// perfbench: one run of one workload, timed (`--trace 0`, end-to-end
// metrics) or traced (`--trace 1`, per-layer metrics).  The last line of
// standard output is the run's JSON record:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {value, unit}}}
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>

#include "bench.h"

namespace {

void print_record(const perfbench::RunResult& r)
{
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              r.correct ? "true" : "false", static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const auto& m = r.metrics[i];
    // JSON has no NaN/inf: a non-finite value is reported as null.
    if (std::isfinite(m.value))
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "", m.name.c_str(),
                  m.value, m.unit.c_str());
    else
      std::printf("%s\"%s\": {\"value\": null, \"unit\": \"%s\"}", i ? ", " : "", m.name.c_str(),
                  m.unit.c_str());
  }
  std::printf("}}\n");
}

int usage()
{
  std::fprintf(stderr, "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 "
                       "[--out DIR]\n");
  return 2;
}

} // namespace

int main(int argc, char** argv)
{
  std::string workload, out_dir = ".bench_out";
  long long seed = -1;
  double seconds = 0.0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const char* k = argv[i];
    const char* v = argv[i + 1];
    if (!std::strcmp(k, "--workload"))
      workload = v;
    else if (!std::strcmp(k, "--seed"))
      seed = std::atoll(v);
    else if (!std::strcmp(k, "--seconds"))
      seconds = std::atof(v);
    else if (!std::strcmp(k, "--trace"))
      trace = std::atoi(v);
    else if (!std::strcmp(k, "--out"))
      out_dir = v;
    else
      return usage();
  }
  if (argc % 2 == 0 || workload.empty() || seed < 0 || !(seconds > 0.0) ||
      (trace != 0 && trace != 1))
    return usage();
  try {
    std::filesystem::create_directories(out_dir);
    const perfbench::Workload w =
        perfbench::make_workload(workload, static_cast<std::uint64_t>(seed));
    const perfbench::RunResult r = trace ? perfbench::run_traced(w, seconds, out_dir)
                                         : perfbench::run_timed(w, seconds, out_dir);
    print_record(r);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}

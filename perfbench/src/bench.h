// Shared pieces of the benchmark driver: the four workload definitions, the
// result record every run prints, and process-level probes (memory, CPU).
#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "qmc/miniqmc_driver.h"

namespace perfbench {

/// Threads any workload may use.  Every workload fixes its partition within
/// this budget explicitly; none leaves thread counts to the program.
inline constexpr int kThreadBudget = 2;

/// One workload: the run_miniqmc configuration of one round (a round is one
/// call into the program's entry point), the alternative partition its
/// decomposition-neutrality rerun uses, and — for jobs-open — the job stream.
struct Workload
{
  std::string name;
  mqc::MiniQMCConfig cfg;
  // Neutrality rerun: walkers (a prefix of the population), driver, crowd
  // size and inner team.
  int alt_walkers = 0;
  mqc::DriverMode alt_driver = mqc::DriverMode::Crowd;
  int alt_crowd_size = 0;
  int alt_inner = 1;
  // jobs-open only
  int job_walkers = 0;
  int job_steps = 0;
  double job_rate_hz = 0.0; ///< open-loop submission rate
  int max_pack = 4;
};

/// The workload named @p name with inputs derived from @p seed; throws
/// std::invalid_argument for an unknown name.
Workload make_workload(const std::string& name, std::uint64_t seed);

struct Metric
{
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run prints: the correctness verdict, operation counts, metrics.
struct RunResult
{
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  void add(std::string name, double value, std::string unit)
  {
    metrics.push_back(Metric{std::move(name), value, std::move(unit)});
  }
  /// Record a failed check (also written to stderr).
  void fail_check(const std::string& what);
};

/// Process high-water resident memory in MiB.
double peak_rss_mib();
/// Process CPU time (all threads) in seconds.
double process_cpu_s();

/// Queue-side numbers of one open-loop run (jobs-open).
struct OpenLoopStats
{
  double cpu_per_wall = 0.0;   ///< process CPU seconds / wall seconds of the loop
  double pack_factor = 0.0;    ///< jobs completed / crowd sweeps the queue ran
  double late_max_ms = 0.0;    ///< worst submit time behind the due time
  double latency_p50_ms = 0.0; ///< median from due time until wait() returns
  double latency_p95_ms = 0.0; ///< 95th percentile of the same (0 if < 10 beyond)
};

/// The jobs-open run: setup, the open loop, capacity bursts and their
/// checks; fills @p stats.
RunResult run_open_loop(const Workload& w, double seconds, OpenLoopStats* stats);

/// The timed run (`--trace 0`): end-to-end metrics.
RunResult run_timed(const Workload& w, double seconds, const std::string& out_dir);
/// The traced run (`--trace 1`): per-layer metrics.
RunResult run_traced(const Workload& w, double seconds, const std::string& out_dir);

// ---- checks shared by both runs (checks.cpp) ------------------------------

/// Facade V/VGL/VGH of the workload's engine at sampled positions against
/// the double-precision scalar BsplineRef over the same table.  The grid is
/// capped at 48 points (the paper's) so the check does not rebuild a
/// DRAM-sized table; the traced run checks the full-size table.
bool check_spline(const Workload& w, std::string& detail);
/// Config hash stored in a snapshot file's header (0 when unreadable).
std::uint64_t snapshot_header_hash(const std::string& path);
/// @p path and its `.prev` rotation both load and validate.
bool snapshots_valid(const std::string& path, std::string& detail);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H

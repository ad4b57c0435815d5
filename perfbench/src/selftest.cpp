// Tests of the benchmark's own arithmetic (measure.h): tail percentiles,
// open-loop latency and span attribution.  Run with ctest in the benchmark's
// build directory.
#include <cmath>
#include <cstdio>

#include "measure.h"

namespace {

int failures = 0;

void expect(bool ok, const char* what)
{
  if (!ok) {
    std::printf("FAIL: %s\n", what);
    ++failures;
  }
}

std::vector<double> ramp(int n)
{
  std::vector<double> v;
  for (int i = n; i >= 1; --i)
    v.push_back(i); // descending, so sorting is exercised
  return v;
}

} // namespace

int main()
{
  using namespace perfbench;

  // Percentiles: reported only with at least ten samples beyond them.
  expect(median(ramp(5)) == 3.0 && median(ramp(4)) == 2.5, "median of odd and even counts");
  expect(tail_percentile(ramp(199), 0.95) == std::nullopt, "p95 of 199 samples has 9 beyond");
  const auto p95 = tail_percentile(ramp(200), 0.95);
  expect(p95 && *p95 == 190.0, "p95 of 1..200 is 190 with 10 beyond");
  expect(tail_percentile(ramp(20), 0.5) && *tail_percentile(ramp(20), 0.5) == 10.0,
         "p50 of 20 samples has 10 beyond");
  expect(tail_percentile(ramp(19), 0.5) == std::nullopt, "p50 of 19 samples has 9 beyond");
  expect(tail_percentile({}, 0.5) == std::nullopt, "no percentile of nothing");

  // Open loop: latency from the due time, lateness of the generator.
  const OpenLoopJob late{1.0, 1.25, 1.5};
  expect(std::abs(late.latency_ms() - 500.0) < 1e-9, "latency counts from the due time");
  expect(std::abs(late.late_ms() - 250.0) < 1e-9, "generator lateness is submit - due");

  // Attribution: two steps (glue layer 2), each with children of layers 0
  // and 1, one child nested in another; a gap between the steps.
  const std::vector<Span> spans = {
      {2, -1, 0, 100},  // step 0: 100 ns, children 30 + 50
      {0, 0, 10, 40},   // layer 0: 30 ns, child 10 -> self 20
      {1, 1, 15, 25},   // layer 1 nested in layer 0: 10
      {1, 0, 50, 100},  // layer 1: 50
      {2, -1, 150, 200}, // step 1: 50 ns, child 20
      {0, 4, 160, 180}, // layer 0: 20
  };
  const double wall = 250e-9;
  const Attribution a = attribute(spans, 3, {2}, wall);
  expect(std::abs(a.self_s[0] - 40e-9) < 1e-15, "layer 0 self time excludes its child");
  expect(std::abs(a.self_s[1] - 60e-9) < 1e-15, "layer 1 self time");
  expect(a.calls[0] == 2 && a.calls[1] == 2 && a.calls[2] == 0, "call counts; glue uncounted");
  // Glue: step self 100-80 + 50-20 = 50; uncovered 250-150 = 100.
  expect(std::abs(a.unattributed_s - 150e-9) < 1e-15, "unattributed = glue + uncovered");
  expect(a.unattributed_s >= 0.0 && a.nested(), "well-nested spans");
  expect(std::abs(a.attributed_s + a.unattributed_s - wall) < 1e-15,
         "layers + unattributed equal the wall");
  // A child that outlives its parent gives the parent negative self time.
  const std::vector<Span> bad = {{2, -1, 0, 10}, {0, 0, 5, 30}};
  expect(!attribute(bad, 3, {2}, 40e-9).nested(), "a child outliving its parent is flagged");
  // Roots that cover more than the wall leave a negative remainder.
  expect(!attribute({{0, -1, 0, 100}}, 3, {2}, 50e-9).nested(), "spans beyond the wall flagged");

  // The SpanLog records parents and nothing when disabled.
  SpanLog on(true), off(false);
  {
    Scoped outer(on, 2);
    Scoped inner(on, 0);
    Scoped none(off, 0);
  }
  expect(on.spans().size() == 2 && on.spans()[1].parent == 0 && on.spans()[0].parent == -1,
         "spans record their parent");
  expect(on.spans()[0].t1_ns >= on.spans()[1].t1_ns, "the parent closes after its child");
  expect(off.spans().empty(), "a disabled log records nothing");

  std::printf("%s (%d failures)\n", failures ? "FAILED" : "ok", failures);
  return failures ? 1 : 0;
}

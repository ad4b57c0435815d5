// The benchmark's own arithmetic: medians, tail percentiles, open-loop
// latency and span self-time attribution.  Header-only and free of any
// library dependency so selftest.cpp can pin every rule directly.
#ifndef PERFBENCH_MEASURE_H
#define PERFBENCH_MEASURE_H

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

namespace perfbench {

inline double median(std::vector<double> v)
{
  if (v.empty())
    return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile @p q (0 < q < 1) of @p v, reported only when at
/// least @p min_beyond samples lie above its rank: a tail percentile backed
/// by fewer samples is no tail at all.
inline std::optional<double> tail_percentile(std::vector<double> v, double q,
                                             std::size_t min_beyond = 10)
{
  if (v.empty() || q <= 0.0 || q >= 1.0)
    return std::nullopt;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  const std::size_t idx = rank == 0 ? 0 : rank - 1;
  if (n - 1 - idx < min_beyond)
    return std::nullopt;
  return v[idx];
}

/// One job of an open-loop generator, in seconds since the loop started.
/// Latency runs from the due time, not from the (possibly late) submit, so a
/// stall in the generator or the queue is charged to every job it delays.
struct OpenLoopJob
{
  double due_s = 0.0;
  double submitted_s = 0.0;
  double done_s = 0.0;

  [[nodiscard]] double latency_ms() const noexcept { return (done_s - due_s) * 1e3; }
  [[nodiscard]] double late_ms() const noexcept { return (submitted_s - due_s) * 1e3; }
};

// ---------------------------------------------------------------------------
// Spans.  A span is one timed call into a layer; spans nest (a layer call
// may contain others) and every span records its parent's index, so a
// layer's self time is its duration minus the durations of its children.
// Spans live in memory while the run is traced and are written at its end.
// ---------------------------------------------------------------------------

struct Span
{
  std::uint16_t layer = 0;
  std::int32_t parent = -1; ///< index of the enclosing span, -1 for a root
  std::int64_t t0_ns = 0;
  std::int64_t t1_ns = 0;
};

class SpanLog
{
public:
  using clock = std::chrono::steady_clock;

  explicit SpanLog(bool enabled = true) : enabled_(enabled), epoch_(clock::now()) {}

  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }

  [[nodiscard]] std::int64_t now_ns() const noexcept
  {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(clock::now() - epoch_).count();
  }

  /// Open a span of @p layer under the innermost open span; returns its
  /// index (-1 when tracing is off).
  std::int32_t open(std::uint16_t layer)
  {
    if (!enabled_)
      return -1;
    const auto id = static_cast<std::int32_t>(spans_.size());
    spans_.push_back(Span{layer, open_.empty() ? -1 : open_.back(), now_ns(), 0});
    open_.push_back(id);
    return id;
  }

  void close(std::int32_t id)
  {
    if (id < 0)
      return;
    spans_[static_cast<std::size_t>(id)].t1_ns = now_ns();
    open_.pop_back();
  }

private:
  bool enabled_;
  clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
};

/// RAII span: opens on construction, closes on destruction.
class Scoped
{
public:
  Scoped(SpanLog& log, std::uint16_t layer) : log_(log), id_(log.open(layer)) {}
  ~Scoped() { log_.close(id_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

private:
  SpanLog& log_;
  std::int32_t id_;
};

/// Per-layer self time and call counts of a span log.  Layers listed in
/// @p unattributed_layers (the sweep's own step spans) are the glue between
/// layer calls: their self time, plus all time that no span covers, is the
/// unattributed remainder, so attributed + unattributed is the traced wall.
/// The split is only meaningful when the spans nest: every child inside its
/// parent (no negative self time) and the roots inside the wall (no negative
/// remainder); nested() says whether they did.
struct Attribution
{
  std::vector<double> self_s;
  std::vector<std::size_t> calls;
  double attributed_s = 0.0;   ///< sum of self times of the measured layers
  double unattributed_s = 0.0; ///< glue self time + uncovered time
  double wall_s = 0.0;
  double min_self_s = 0.0;     ///< smallest self time of any span

  [[nodiscard]] bool nested() const noexcept { return min_self_s >= 0.0 && unattributed_s >= 0.0; }
};

inline Attribution attribute(const std::vector<Span>& spans, std::size_t num_layers,
                             const std::vector<std::uint16_t>& unattributed_layers,
                             double wall_s)
{
  Attribution a;
  a.wall_s = wall_s;
  a.self_s.assign(num_layers, 0.0);
  a.calls.assign(num_layers, 0);
  std::vector<double> child_s(spans.size(), 0.0);
  double root_s = 0.0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const double d = 1e-9 * static_cast<double>(spans[i].t1_ns - spans[i].t0_ns);
    if (spans[i].parent >= 0)
      child_s[static_cast<std::size_t>(spans[i].parent)] += d;
    else
      root_s += d;
  }
  double glue_s = 0.0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const double self = 1e-9 * static_cast<double>(s.t1_ns - s.t0_ns) - child_s[i];
    a.min_self_s = std::min(a.min_self_s, self);
    const bool glue = std::find(unattributed_layers.begin(), unattributed_layers.end(),
                                s.layer) != unattributed_layers.end();
    if (glue) {
      glue_s += self;
    } else if (s.layer < num_layers) {
      a.self_s[s.layer] += self;
      a.calls[s.layer] += 1;
      a.attributed_s += self;
    }
  }
  a.unattributed_s = glue_s + (wall_s - root_s);
  return a;
}

} // namespace perfbench

#endif // PERFBENCH_MEASURE_H

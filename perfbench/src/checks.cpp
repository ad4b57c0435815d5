// Correctness checks made apart from the code under test: the spline facade
// against the scalar double-precision reference, and snapshot files against
// the library's own validating loader.
#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <vector>

#include "bench.h"
#include "common/rng.h"
#include "core/bspline_ref.h"
#include "qmc/checkpoint.h"
#include "system.h"

namespace perfbench {

namespace {

/// Largest |a - b| over one component, relative to the component's largest
/// reference magnitude (derivatives scale with 1/h and 1/h^2, so each
/// component is judged on its own scale).
double component_error(const real* got, const std::vector<double>& ref, int n)
{
  double scale = 0.0, err = 0.0;
  for (int i = 0; i < n; ++i) {
    scale = std::max(scale, std::abs(ref[static_cast<std::size_t>(i)]));
    err = std::max(err, std::abs(static_cast<double>(got[i]) - ref[static_cast<std::size_t>(i)]));
  }
  return scale > 0.0 ? err / scale : err;
}

} // namespace

bool check_facade(const System& sys, std::uint64_t seed, std::string& detail)
{
  // 64 tricubic terms accumulated in float: a few hundred ulps of the
  // component's scale is the float-scaled tolerance.
  constexpr double kTol = 512.0 * FLT_EPSILON;
  mqc::BsplineRef<real> ref(*sys.coefs);
  const auto& g = sys.spo.grid();
  const double len[3] = {g.x.num * static_cast<double>(g.x.delta),
                         g.y.num * static_cast<double>(g.y.delta),
                         g.z.num * static_cast<double>(g.z.delta)};
  const std::size_t s = sys.stride;
  mqc::aligned_vector<real> v(s), gr(3 * s), lh(6 * s);
  auto rng = mqc::Xoshiro256::for_stream(seed, 0xC0FFEE);
  double worst = 0.0;
  const int n = sys.norb;
  for (int p = 0; p < 12; ++p) {
    // Positions over 1.5 periods so the periodic wrap is exercised too.
    const mqc::Vec3<real> r{static_cast<real>(g.x.start + 1.5 * len[0] * rng.uniform()),
                            static_cast<real>(g.y.start + 1.5 * len[1] * rng.uniform()),
                            static_cast<real>(g.z.start + 1.5 * len[2] * rng.uniform())};
    const mqc::RefVGH h = ref.evaluate_vgh(r.x, r.y, r.z);
    const std::vector<double>* gs[3] = {&h.gx, &h.gy, &h.gz};
    const std::vector<double>* hs[6] = {&h.hxx, &h.hxy, &h.hxz, &h.hyy, &h.hyz, &h.hzz};
    sys.spo.evaluate_one(mqc::DerivLevel::V, r, v.data(), nullptr, nullptr, s);
    worst = std::max(worst, component_error(v.data(), ref.evaluate_v(r.x, r.y, r.z), n));

    sys.spo.evaluate_one(mqc::DerivLevel::VGL, r, v.data(), gr.data(), lh.data(), s);
    std::vector<double> lap(static_cast<std::size_t>(n));
    for (std::size_t i = 0; i < lap.size(); ++i)
      lap[i] = h.hxx[i] + h.hyy[i] + h.hzz[i];
    worst = std::max(worst, component_error(v.data(), h.v, n));
    for (std::size_t c = 0; c < 3; ++c)
      worst = std::max(worst, component_error(gr.data() + c * s, *gs[c], n));
    worst = std::max(worst, component_error(lh.data(), lap, n));

    sys.spo.evaluate_one(mqc::DerivLevel::VGH, r, v.data(), gr.data(), lh.data(), s);
    worst = std::max(worst, component_error(v.data(), h.v, n));
    for (std::size_t c = 0; c < 3; ++c)
      worst = std::max(worst, component_error(gr.data() + c * s, *gs[c], n));
    for (std::size_t c = 0; c < 6; ++c)
      worst = std::max(worst, component_error(lh.data() + c * s, *hs[c], n));
  }
  if (worst > kTol) {
    char buf[160];
    std::snprintf(buf, sizeof buf, "spline facade vs BsplineRef: relative error %.3g > %.3g",
                  worst, kTol);
    detail = buf;
    return false;
  }
  return true;
}

bool check_spline(const Workload& w, std::string& detail)
{
  mqc::MiniQMCConfig cfg = w.cfg;
  cfg.grid_size = std::min(cfg.grid_size, 48);
  const System sys(cfg);
  return check_facade(sys, w.cfg.seed, detail);
}

std::uint64_t snapshot_header_hash(const std::string& path)
{
  // Header: 8-byte magic, u32 format version, u64 config hash (checkpoint.h).
  std::ifstream in(path, std::ios::binary);
  char head[20] = {};
  if (!in.read(head, sizeof head))
    return 0;
  std::uint64_t hash = 0;
  std::memcpy(&hash, head + 12, sizeof hash);
  return hash;
}

bool snapshots_valid(const std::string& path, std::string& detail)
{
  for (const std::string& p : {path, path + ".prev"}) {
    mqc::ckpt::Snapshot snap;
    const auto r = mqc::ckpt::read_snapshot(p, snapshot_header_hash(p), snap);
    if (!r.loaded()) {
      detail = "snapshot " + p + ": " + mqc::ckpt::load_error_name(r.error) + " " + r.detail;
      return false;
    }
  }
  return true;
}

} // namespace perfbench

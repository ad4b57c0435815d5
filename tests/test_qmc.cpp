// Integration tests: the miniQMC driver (profile sections, acceptance,
// layout equivalence of the Monte Carlo process) and the nested-threading
// driver (partition correctness, output equivalence across nth).
#include <cmath>

#include <gtest/gtest.h>

#include "common/threading.h"
#include "common/timer.h"
#include "distance/distance_table.h"
#include "jastrow/two_body.h"
#include "particles/graphite.h"
#include "core/synthetic_orbitals.h"
#include "qmc/miniqmc_driver.h"
#include "qmc/nested_driver.h"
#include "qmc/walker.h"

using namespace mqc;

// Timing-margin tests are meaningless under the 10-50x overhead of sanitizer
// instrumentation (the CI sanitize job still runs this suite's correctness
// tests): skip them there.
#if defined(__SANITIZE_ADDRESS__)
#define MQC_SKIP_UNDER_SANITIZER() \
  GTEST_SKIP() << "sanitizer build: shadow-memory checks distort timing margins"
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define MQC_SKIP_UNDER_SANITIZER() \
  GTEST_SKIP() << "sanitizer build: shadow-memory checks distort timing margins"
#endif
#endif
#ifndef MQC_SKIP_UNDER_SANITIZER
#define MQC_SKIP_UNDER_SANITIZER() static_cast<void>(0)
#endif

namespace {

MiniQMCConfig small_config()
{
  MiniQMCConfig cfg;
  cfg.supercell = {1, 1, 1};
  cfg.grid_size = 12;
  cfg.num_splines = 16; // 32 electrons
  cfg.steps = 2;
  cfg.num_walkers = 2;
  cfg.quadrature_points = 2;
  return cfg;
}

} // namespace

TEST(MiniQMC, RunsAndProducesSaneProfile)
{
  const auto res = run_miniqmc(small_config());
  EXPECT_EQ(res.num_walkers, 2);
  EXPECT_EQ(res.num_orbitals, 16);
  EXPECT_EQ(res.num_electrons, 32);
  EXPECT_GT(res.seconds, 0.0);
  EXPECT_GT(res.moves_attempted, 0u);
  EXPECT_GT(res.acceptance_ratio, 0.0);
  EXPECT_LT(res.acceptance_ratio, 1.0);
  // All four sections must have been timed.
  EXPECT_GT(res.profile.seconds(kSectionBspline), 0.0);
  EXPECT_GT(res.profile.seconds(kSectionDistance), 0.0);
  EXPECT_GT(res.profile.seconds(kSectionJastrow), 0.0);
  EXPECT_GT(res.profile.seconds(kSectionDeterminant), 0.0);
  // Percentages sum to 100.
  double total = 0.0;
  for (const auto& key : res.profile.keys())
    total += res.profile.percent(key);
  EXPECT_NEAR(total, 100.0, 1e-9);
}

TEST(MiniQMC, AllLayoutsRun)
{
  for (SpoLayout layout : {SpoLayout::AoS, SpoLayout::SoA, SpoLayout::AoSoA}) {
    auto cfg = small_config();
    cfg.spo = layout;
    cfg.tile_size = 16;
    const auto res = run_miniqmc(cfg);
    EXPECT_GT(res.spline_orbital_evals, 0u) << static_cast<int>(layout);
    EXPECT_GT(res.acceptance_ratio, 0.0);
  }
}

TEST(MiniQMC, MoveCountMatchesConfiguration)
{
  auto cfg = small_config();
  cfg.steps = 3;
  const auto res = run_miniqmc(cfg);
  // walkers * steps * electrons proposed moves.
  EXPECT_EQ(res.moves_attempted,
            static_cast<std::size_t>(2) * 3 * static_cast<std::size_t>(res.num_electrons));
}

TEST(MiniQMC, AcceptanceIsLayoutIndependent)
{
  // The Monte Carlo process itself must not depend on the memory layout:
  // same seed => same trajectory => identical acceptance counts (kernels
  // agree to float precision; acceptance is robust to that).
  auto cfg_a = small_config();
  cfg_a.spo = SpoLayout::AoS;
  cfg_a.optimized_dt_jastrow = false;
  auto cfg_b = small_config();
  cfg_b.spo = SpoLayout::SoA;
  cfg_b.optimized_dt_jastrow = true;
  const auto ra = run_miniqmc(cfg_a);
  const auto rb = run_miniqmc(cfg_b);
  EXPECT_NEAR(ra.acceptance_ratio, rb.acceptance_ratio, 0.02);
}

TEST(MiniQMC, DeterministicAcrossRuns)
{
  const auto r1 = run_miniqmc(small_config());
  const auto r2 = run_miniqmc(small_config());
  EXPECT_DOUBLE_EQ(r1.acceptance_ratio, r2.acceptance_ratio);
  EXPECT_EQ(r1.spline_orbital_evals, r2.spline_orbital_evals);
}

// MiniQMCResult::seconds is the wall time of the sweep region only.  A call
// with nothing to sweep spends its wall time on system and walker setup, so
// it must report almost none of it.
TEST(MiniQMC, SecondsExcludeSetup)
{
  for (DriverMode mode : {DriverMode::PerWalker, DriverMode::Crowd, DriverMode::DMC}) {
    MiniQMCConfig cfg;
    cfg.supercell = {3, 3, 1};
    cfg.spo = SpoLayout::AoSoA;
    cfg.optimized_dt_jastrow = true;
    cfg.num_walkers = 8;
    cfg.driver = mode;
    cfg.steps = 0;
    cfg.dmc_generations = 0;
    Stopwatch call;
    const MiniQMCResult r = run_miniqmc(cfg);
    const double wall = call.elapsed();
    EXPECT_LT(r.seconds, 0.1 * wall) << "driver mode " << static_cast<int>(mode);
  }
}

TEST(MiniQMC, SoAJastrowEvaluationBeatsAoSAtPaperScale)
{
#if defined(MQC_NO_VECTOR)
  // The SoA win comes from SIMD over branch-free masked rows; in the scalar
  // reference build the masked full-spline work loses to AoS's early-out
  // branch by design (that asymmetry IS the paper's vector-efficiency story).
  GTEST_SKIP() << "scalar MQC_NO_VECTOR build: SoA wins only via vectorization";
#endif
  MQC_SKIP_UNDER_SANITIZER();
  // Table III's point: the SoA treatment shrinks the distance-table and
  // Jastrow cost, shifting the profile toward B-splines.  Measure the full
  // two-body Jastrow evaluation directly at the CORAL system size (256
  // electrons), where the vectorized row kernels have real work per row.
  const auto sys = make_graphite_supercell(4, 4, 1);
  const int nel = 256;
  auto elec_soa = random_particles<float>(nel, sys.lattice, 3);
  auto elec_aos = to_aos(elec_soa);
  const auto fj2 = BsplineJastrowFunctor<float>::make_exponential(-0.5f, 1.0f, 6.0f);
  DistanceTableAA_AoS<float> ee_a(sys.lattice, nel, MinImageMode::Fast);
  DistanceTableAA_SoA<float> ee_s(sys.lattice, nel, MinImageMode::Fast);
  ee_a.evaluate(elec_aos);
  ee_s.evaluate(elec_soa);
  const TwoBodyJastrowAoS<float> j2a(fj2);
  const TwoBodyJastrowSoA<float> j2s(fj2);
  std::vector<Vec3<float>> g(static_cast<std::size_t>(nel));
  std::vector<float> l(static_cast<std::size_t>(nel));
  volatile float sink = 0.0f;
  const double t_aos = time_per_iteration(
      [&] { sink = sink + j2a.evaluate_log(ee_a, g.data(), l.data()); }, 0.15);
  const double t_soa = time_per_iteration(
      [&] { sink = sink + j2s.evaluate_log(ee_s, g.data(), l.data()); }, 0.15);
  // Measured ~2.4x on the reference host; require a conservative margin.
  EXPECT_LT(t_soa, t_aos / 1.3);
}

TEST(Nested, PartitionedEvaluationMatchesSerial)
{
  // The nested driver's correctness hinges on the strided tile partition
  // writing disjoint slices.  Emulate a 3-member team by hand and compare
  // against the serial whole-set evaluation.
  const auto grid = Grid3D<float>::cube(8, 1.0f);
  auto coefs = make_random_storage<float>(grid, 96, 77);
  MultiBspline<float> mb(*coefs, 16); // 6 tiles
  WalkerSoA<float> serial(mb.out_stride()), team(mb.out_stride());
  const float x = 0.21f, y = 0.55f, z = 0.83f;
  mb.evaluate_vgh(x, y, z, serial.v.data(), serial.g.data(), serial.h.data(), serial.stride);
  const int nth = 3;
  for (int member = 0; member < nth; ++member) {
    StridedRange r(static_cast<std::size_t>(mb.num_tiles()), nth, static_cast<std::size_t>(member));
    r.for_each([&](std::size_t t) {
      mb.evaluate_vgh_tile(static_cast<int>(t), x, y, z, team.v.data(), team.g.data(),
                           team.h.data(), team.stride);
    });
  }
  for (std::size_t i = 0; i < mb.padded_splines(); ++i) {
    ASSERT_EQ(serial.v[i], team.v[i]);
    ASSERT_EQ(serial.g[i], team.g[i]);
    ASSERT_EQ(serial.h[i], team.h[i]);
  }
}

TEST(Nested, DriverRunsAllKernels)
{
  const auto grid = Grid3D<float>::cube(10, 1.0f);
  auto coefs = make_random_storage<float>(grid, 64, 3);
  MultiBspline<float> mb(*coefs, 16);
  for (NestedKernel k : {NestedKernel::V, NestedKernel::VGL, NestedKernel::VGH}) {
    NestedConfig cfg;
    cfg.nth = 2;
    cfg.num_walkers = 1;
    cfg.ns = 8;
    cfg.niters = 2;
    cfg.kernel = k;
    const auto res = run_nested(mb, cfg);
    EXPECT_GT(res.seconds, 0.0);
    EXPECT_GT(res.throughput, 0.0);
    EXPECT_EQ(res.num_walkers, 1);
    EXPECT_EQ(res.nth, 2);
  }
}

TEST(Nested, PartitionedMultiEvaluationMatchesSerial)
{
  // The multi-position path of the nested partition: a 2-member team sweeps
  // its tile subsets over a block of positions with evaluate_vgh_tile_multi;
  // outputs must equal the per-position serial whole-set evaluation exactly.
  const auto grid = Grid3D<float>::cube(8, 1.0f);
  auto coefs = make_random_storage<float>(grid, 96, 78);
  MultiBspline<float> mb(*coefs, 16); // 6 tiles
  const int pb = 3;
  std::vector<Vec3<float>> pos = {{0.21f, 0.55f, 0.83f}, {0.72f, 0.11f, 0.34f},
                                  {0.48f, 0.91f, 0.05f}};
  std::vector<WalkerSoA<float>> serial, team;
  std::vector<float*> v, g, h;
  for (int p = 0; p < pb; ++p) {
    serial.emplace_back(mb.out_stride());
    team.emplace_back(mb.out_stride());
  }
  for (int p = 0; p < pb; ++p) {
    v.push_back(team[static_cast<std::size_t>(p)].v.data());
    g.push_back(team[static_cast<std::size_t>(p)].g.data());
    h.push_back(team[static_cast<std::size_t>(p)].h.data());
  }
  for (int p = 0; p < pb; ++p)
    mb.evaluate_vgh(pos[static_cast<std::size_t>(p)].x, pos[static_cast<std::size_t>(p)].y,
                    pos[static_cast<std::size_t>(p)].z, serial[static_cast<std::size_t>(p)].v.data(),
                    serial[static_cast<std::size_t>(p)].g.data(),
                    serial[static_cast<std::size_t>(p)].h.data(), mb.out_stride());
  std::vector<BsplineWeights3D<float>> w(static_cast<std::size_t>(pb));
  compute_weights_vgh_batch(mb.grid(), pos.data(), pb, w.data());
  const int nth = 2;
  for (int member = 0; member < nth; ++member) {
    StridedRange r(static_cast<std::size_t>(mb.num_tiles()), nth, static_cast<std::size_t>(member));
    r.for_each([&](std::size_t t) {
      mb.evaluate_vgh_tile_multi(static_cast<int>(t), w.data(), pb, v.data(), g.data(), h.data(),
                                 mb.out_stride());
    });
  }
  for (int p = 0; p < pb; ++p)
    for (std::size_t i = 0; i < mb.padded_splines(); ++i) {
      ASSERT_EQ(serial[static_cast<std::size_t>(p)].v[i], team[static_cast<std::size_t>(p)].v[i]);
      ASSERT_EQ(serial[static_cast<std::size_t>(p)].g[i], team[static_cast<std::size_t>(p)].g[i]);
      ASSERT_EQ(serial[static_cast<std::size_t>(p)].h[i], team[static_cast<std::size_t>(p)].h[i]);
    }
}

TEST(Nested, DriverRunsAllKernelsWithPositionBlocks)
{
  const auto grid = Grid3D<float>::cube(10, 1.0f);
  auto coefs = make_random_storage<float>(grid, 64, 3);
  MultiBspline<float> mb(*coefs, 16);
  for (NestedKernel k : {NestedKernel::V, NestedKernel::VGL, NestedKernel::VGH}) {
    NestedConfig cfg;
    cfg.nth = 2;
    cfg.num_walkers = 1;
    cfg.ns = 10; // not a multiple of pos_block: exercises the remainder block
    cfg.niters = 2;
    cfg.pos_block = 4;
    cfg.kernel = k;
    const auto res = run_nested(mb, cfg);
    EXPECT_GT(res.seconds, 0.0);
    EXPECT_GT(res.throughput, 0.0);
    EXPECT_EQ(res.pos_block, 4);
  }
}

TEST(Nested, PositionBlockClampedToPositionCount)
{
  const auto grid = Grid3D<float>::cube(8, 1.0f);
  auto coefs = make_random_storage<float>(grid, 32, 5);
  MultiBspline<float> mb(*coefs, 16);
  NestedConfig cfg;
  cfg.num_walkers = 1;
  cfg.ns = 4;
  cfg.pos_block = 64; // larger than ns
  const auto res = run_nested(mb, cfg);
  EXPECT_EQ(res.pos_block, 4);
  EXPECT_GT(res.throughput, 0.0);
}

TEST(Nested, WalkerCountDerivedFromThreadBudget)
{
  const auto grid = Grid3D<float>::cube(8, 1.0f);
  auto coefs = make_random_storage<float>(grid, 32, 5);
  MultiBspline<float> mb(*coefs, 16);
  NestedConfig cfg;
  cfg.total_threads = 4;
  cfg.nth = 2;
  cfg.ns = 4;
  const auto res = run_nested(mb, cfg);
  EXPECT_EQ(res.num_walkers, 2);
}

TEST(Nested, ThroughputScalesWithWork)
{
  MQC_SKIP_UNDER_SANITIZER();
  // Quadrupling iterations must increase time and keep throughput in the
  // same ballpark.  Timing smoke test: best-of-3 per configuration and a
  // loose bound, because the CI host is a shared VM with heavy steal-time
  // noise on millisecond windows.
  const auto grid = Grid3D<float>::cube(12, 1.0f);
  auto coefs = make_random_storage<float>(grid, 128, 5);
  MultiBspline<float> mb(*coefs, 32);
  NestedConfig cfg;
  cfg.nth = 1;
  cfg.num_walkers = 1;
  cfg.ns = 64;
  auto best = [&](int niters) {
    cfg.niters = niters;
    NestedResult r = run_nested(mb, cfg);
    for (int i = 1; i < 3; ++i) {
      const auto s = run_nested(mb, cfg);
      if (s.seconds < r.seconds)
        r = s;
    }
    return r;
  };
  const auto r1 = best(4);
  const auto r2 = best(16);
  EXPECT_GT(r2.seconds, r1.seconds);
  EXPECT_LT(std::abs(r2.throughput - r1.throughput) / r1.throughput, 1.0);
}

// Internal state of the miniQMC sweep: the shared read-only system, the
// per-walker state, and the per-walker arithmetic of one electron move.
//
// The one sweep body (crowd_sweep.h crowd_sweep_steps) calls
// metropolis_move, quadrature_dist_jastrow and full_jastrow for every walker
// of a crowd; every driver — PerWalker and Crowd (both a WalkerPopulation of
// some crowd size), DMC and the JobQueue — advances walkers through it.  A
// walker's arithmetic and rng draws are a function of its own state only, so
// trajectories are bit-for-bit identical for every crowd size, shard count
// and thread partition, which the tests require.
//
// This header is an implementation detail of the qmc/ translation units; it
// is not part of the public API surface.
#ifndef MQC_QMC_MINIQMC_CONTEXT_H
#define MQC_QMC_MINIQMC_CONTEXT_H

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <vector>

#include "common/rng.h"
#include "common/threading.h"
#include "common/timer.h"
#include "common/vec3.h"
#include "core/bspline_aos.h"
#include "core/bspline_soa.h"
#include "core/multi_bspline.h"
#include "core/orbital_set.h"
#include "core/synthetic_orbitals.h"
#include "core/weights.h"
#include "determinant/det_update.h"
#include "distance/distance_table.h"
#include "jastrow/one_body.h"
#include "jastrow/two_body.h"
#include "particles/graphite.h"
#include "qmc/checkpoint.h"
#include "qmc/miniqmc_driver.h"
#include "qmc/miniqmc_tuner.h"
#include "qmc/walker.h"

namespace mqc::detail {

using qmc_real = float; ///< kernel precision (the paper's miniQMC is all SP)

struct CrowdSet; // crowd_sweep.h

/// Everything shared read-only across walkers: the crystal, the coefficient
/// table and engines, the Jastrow functors, and the ion sets.
struct MiniQMCSystem
{
  /// @p replica (optional) is a pre-built coefficient table this system
  /// adopts instead of generating its own — the WalkerPopulation's NUMA
  /// path: each shard passes its socket-local CoefReplicaSet copy here, so
  /// the engines and the OrbitalSet facade built below resolve every
  /// evaluation through shard-local memory.  A replica must be an exact
  /// copy of the table this config would generate (asserted on shape);
  /// since the generated table is a deterministic function of (grid, norb,
  /// seed), adopting a copy is trajectory-neutral bit-for-bit.
  explicit MiniQMCSystem(const MiniQMCConfig& cfg,
                         std::shared_ptr<CoefStorage<qmc_real>> replica = nullptr)
      : crystal(make_graphite_supercell(cfg.supercell[0], cfg.supercell[1], cfg.supercell[2]))
  {
    norb = cfg.num_splines > 0 ? cfg.num_splines : crystal.num_orbitals();
    nel = 2 * norb;
    nw = cfg.num_walkers > 0 ? cfg.num_walkers : max_threads();
    nq = std::max(1, cfg.quadrature_points);

    // Spline domain: a cube enclosing the cell.  The driver's orbitals are
    // synthetic (random coefficients), so only the access pattern matters;
    // the engines wrap positions periodically in grid coordinates.
    double lmax = 0.0;
    for (const auto& row : crystal.lattice.rows())
      lmax = std::max(lmax, std::abs(row.x) + std::abs(row.y) + std::abs(row.z));
    const auto grid = Grid3D<qmc_real>::cube(cfg.grid_size, static_cast<qmc_real>(lmax));
    if (replica) {
      assert(replica->num_splines() == norb);
      assert(replica->grid().x.num == grid.x.num && replica->grid().y.num == grid.y.num &&
             replica->grid().z.num == grid.z.num);
      coefs = std::move(replica);
    } else {
      coefs = make_random_storage<qmc_real>(grid, norb, cfg.seed);
    }

    // Precision resolution BEFORE wisdom consumption: the AoS baseline has
    // no mixed variant (it predates the SoA stream kernels the wide
    // accumulation tile is built on), so Mixed + AoS resolves to Native —
    // surfaced through MiniQMCResult::precision_path, never silent.  The
    // wisdom entry is only consumed when it was tuned for the same resolved
    // precision: a pos_block tuned against DP-table bandwidth is the wrong
    // knob for a half-size mixed table.
    precision = cfg.precision_path;
    if (precision == PrecisionPath::Mixed && cfg.spo == SpoLayout::AoS)
      precision = PrecisionPath::Native;

    // Tuned dispatch knobs from the wisdom entry tune_miniqmc recorded
    // (never trajectory-affecting: tile size regroups the same per-orbital
    // arithmetic, pos_block and crowd_size reorder independent sweeps):
    // the AoSoA tile size, the facade's position block, and the crowd size
    // the crowd driver resolves when cfg.crowd_size == -1.
    int tile_size = cfg.tile_size;
    std::optional<Wisdom::Entry> tuned;
    if (cfg.wisdom)
      tuned = cfg.wisdom->lookup(miniqmc_wisdom_key(norb, cfg.grid_size, nw));
    if (tuned && tuned->precision != (precision == PrecisionPath::Mixed ? 1 : 0))
      tuned.reset();
    if (tuned) {
      if (cfg.spo == SpoLayout::AoSoA && tuned->tile_size > 0)
        tile_size = tuned->tile_size;
      tuned_crowd_size = tuned->crowd_size;
      tuned_inner_threads = tuned->inner_threads;
    }

    // Engines: only the configured layout is exercised in the sweep.  The
    // OrbitalSet facade over the configured engine is THE evaluation entry
    // point of the sweep; the raw engine members stay for tests that
    // cross-check against direct kernel calls.  The mixed engines read the
    // SAME float coefficient table (mixed changes how it is accumulated,
    // not what is stored — and a direct qmc_real build is bit-identical to
    // a convert_storage-narrowed DP build, since the synthetic builders
    // fill from double-valued sources).
    out_pad = coefs->padded_splines();
    switch (cfg.spo) {
    case SpoLayout::AoS:
      spo_aos = std::make_unique<BsplineAoS<qmc_real>>(coefs);
      spo = OrbitalSet<qmc_real>(*spo_aos);
      break;
    case SpoLayout::SoA:
      if (precision == PrecisionPath::Mixed) {
        spo_soa_mixed = std::make_unique<BsplineSoA<qmc_real, double>>(coefs);
        spo = OrbitalSet<qmc_real>(*spo_soa_mixed);
      } else {
        spo_soa = std::make_unique<BsplineSoA<qmc_real>>(coefs);
        spo = OrbitalSet<qmc_real>(*spo_soa);
      }
      break;
    case SpoLayout::AoSoA:
      if (precision == PrecisionPath::Mixed) {
        spo_aosoa_mixed = std::make_unique<MultiBspline<qmc_real, double>>(*coefs, tile_size);
        out_pad = spo_aosoa_mixed->padded_splines();
        spo = OrbitalSet<qmc_real>(*spo_aosoa_mixed);
      } else {
        spo_aosoa = std::make_unique<MultiBspline<qmc_real>>(*coefs, tile_size);
        out_pad = spo_aosoa->padded_splines();
        spo = OrbitalSet<qmc_real>(*spo_aosoa);
      }
      break;
    }
    if (tuned)
      spo.set_pos_block(tuned->pos_block);
    aos_outputs = cfg.spo == SpoLayout::AoS;

    // Shared Jastrow functors: e-e with the antiparallel cusp, e-ion smooth.
    const double rcut = std::min(crystal.lattice.wigner_seitz_radius(), 6.0);
    j2_functor = BsplineJastrowFunctor<qmc_real>::make_exponential(qmc_real(-0.5), qmc_real(1.0),
                                                                   static_cast<qmc_real>(rcut));
    j1_functor = BsplineJastrowFunctor<qmc_real>::make_exponential(qmc_real(-1.0), qmc_real(0.75),
                                                                   static_cast<qmc_real>(rcut));

    ions_soa = ParticleSetSoA<qmc_real>(crystal.num_ions());
    for (int i = 0; i < crystal.num_ions(); ++i) {
      const auto r = crystal.ions[i];
      ions_soa.set(i, Vec3<qmc_real>{static_cast<qmc_real>(r.x), static_cast<qmc_real>(r.y),
                                     static_cast<qmc_real>(r.z)});
    }
    ions_aos = to_aos(ions_soa);
  }

  MiniQMCSystem(const MiniQMCSystem&) = delete;
  MiniQMCSystem& operator=(const MiniQMCSystem&) = delete;

  CrystalSystem crystal;
  int norb = 0;
  int nel = 0;
  int nw = 0; ///< walker count
  int nq = 1; ///< pseudopotential quadrature points per electron
  std::shared_ptr<CoefStorage<qmc_real>> coefs;
  std::unique_ptr<BsplineAoS<qmc_real>> spo_aos;
  std::unique_ptr<BsplineSoA<qmc_real>> spo_soa;
  std::unique_ptr<MultiBspline<qmc_real>> spo_aosoa;
  /// Mixed-precision engines (float tables, double accumulation); built —
  /// over the same shared table — only when the resolved precision is Mixed.
  std::unique_ptr<BsplineSoA<qmc_real, double>> spo_soa_mixed;
  std::unique_ptr<MultiBspline<qmc_real, double>> spo_aosoa_mixed;
  OrbitalSet<qmc_real> spo;  ///< the one evaluation seam of the sweep
  /// The precision family the engines actually run (cfg.precision_path
  /// after the AoS resolution) — surfaced as MiniQMCResult::precision_path
  /// and mixed into the checkpoint config hash.
  PrecisionPath precision = PrecisionPath::Native;
  bool aos_outputs = false;  ///< walkers fill their AoS-shaped output buffers
  int tuned_crowd_size = 0;  ///< from cfg.wisdom (0 = none; see crowd driver)
  int tuned_inner_threads = 0; ///< from cfg.wisdom (0 = none; see drivers)
  std::size_t out_pad = 0;
  BsplineJastrowFunctor<qmc_real> j2_functor, j1_functor;
  // The Jastrow evaluators hold pointers to the functors above; the deleted
  // copy/move keep those pointers valid for the system's lifetime.
  TwoBodyJastrowAoS<qmc_real> j2_aos{j2_functor};
  TwoBodyJastrowSoA<qmc_real> j2_soa{j2_functor};
  OneBodyJastrowAoS<qmc_real> j1_aos{j1_functor};
  OneBodyJastrowSoA<qmc_real> j1_soa{j1_functor};
  ParticleSetSoA<qmc_real> ions_soa;
  ParticleSetAoS<qmc_real> ions_aos;
};

/// Everything one walker owns.  The coefficient table and functors are
/// shared; all buffers below are thread-private (paper Fig. 3).
struct WalkerState
{
  ParticleSetAoS<qmc_real> elec_aos;
  ParticleSetSoA<qmc_real> elec_soa;
  // Distance tables in both layouts; only the configured one is used in the
  // sweep, but both exist so tests can cross-check paths cheaply.
  std::unique_ptr<DistanceTableAA_AoS<qmc_real>> ee_aos;
  std::unique_ptr<DistanceTableAB_AoS<qmc_real>> ei_aos;
  std::unique_ptr<DistanceTableAA_SoA<qmc_real>> ee_soa;
  std::unique_ptr<DistanceTableAB_SoA<qmc_real>> ei_soa;
  std::unique_ptr<WalkerAoS<qmc_real>> out_aos;
  std::unique_ptr<WalkerSoA<qmc_real>> out_soa;
  // Pseudopotential quadrature batch: one V output slice per quadrature
  // point, filled by the crowd's multi-position V request (the weight
  // scratch lives in the crowd's CrowdScratch, so the hot loop allocates
  // nothing).
  aligned_vector<qmc_real> quad_v;
  std::vector<qmc_real*> quad_v_ptrs;
  std::vector<Vec3<qmc_real>> quad_r;
  DetUpdater det_up, det_dn;
  Xoshiro256 rng;
  std::vector<double> phi;           ///< determinant column scratch
  std::vector<Vec3<qmc_real>> jgrad; ///< full-Jastrow gradient scratch
  std::vector<qmc_real> jlap;        ///< full-Jastrow Laplacian scratch
  std::size_t accepted = 0;
  std::size_t attempted = 0;
  std::size_t orbital_evals = 0;

  /// Hand this walker its crowd's inner team (common/threading.h): its
  /// delayed determinant flushes may fork that many threads under the outer
  /// region.  Scheduling only — every team size gives the bit-identical
  /// trajectory.
  void set_team(TeamHandle t)
  {
    det_up.set_team(t);
    det_dn.set_team(t);
  }
};

/// Resolve the nested-team partition for an outer region of @p outer_work
/// members (crowds), shared by every driver: the config knob
/// (with -1 resolved through the wisdom entry) feeds the topology-aware
/// ThreadPartition::resolve, inner teams > 1 ask the runtime for a second
/// active nesting level, and the resulting schedule is classified for the
/// result's team_path field.  Returns the partition; callers surface it via
/// outer/inner_threads_used.
inline ThreadPartition resolve_team_partition(const MiniQMCConfig& cfg, const MiniQMCSystem& sys,
                                              int outer_work)
{
  int inner_req = cfg.inner_threads;
  if (inner_req < 0)
    inner_req = sys.tuned_inner_threads; // 0 when nothing was tuned => auto
  ThreadPartition part = ThreadPartition::resolve(outer_work, inner_req);
  // The drivers' outer width is fixed by the work (one member per crowd /
  // walker) — a forced MQC_PARTITION outer can size the inner teams but
  // must not misreport the region that actually runs, or team_path /
  // outer_threads_used would describe a schedule that never executed.
  part.outer = std::max(1, outer_work);
  if (part.inner > 1)
    request_nested_levels(2);
  return part;
}

/// Gaussian trial move.
inline Vec3<qmc_real> propose(Xoshiro256& rng, const Vec3<qmc_real>& r, double sigma)
{
  return Vec3<qmc_real>{r.x + static_cast<qmc_real>(sigma * rng.gaussian()),
                        r.y + static_cast<qmc_real>(sigma * rng.gaussian()),
                        r.z + static_cast<qmc_real>(sigma * rng.gaussian())};
}

/// Allocate every buffer of @p w for (@p sys, @p cfg) without computing any
/// physical state: particle sets, distance tables, output/scratch buffers,
/// and determinant engines sized for cfg.delay_rank.  This is the shared
/// shell of init_walker and of the restore/clone paths (qmc/checkpoint.cpp,
/// qmc/dmc_driver.cpp), which overwrite the full committed state anyway and
/// must not pay the O(norb) orbital evaluations of a fresh build.
inline void init_walker_shell(WalkerState& w, const MiniQMCSystem& sys, const MiniQMCConfig& cfg)
{
  w.elec_soa = ParticleSetSoA<qmc_real>(sys.nel);
  w.elec_aos = ParticleSetAoS<qmc_real>(sys.nel);
  // Fast minimum image for both layouts: identical approximation, so the
  // AoS/SoA comparison isolates the layout (see DESIGN.md).
  w.ee_aos = std::make_unique<DistanceTableAA_AoS<qmc_real>>(sys.crystal.lattice, sys.nel,
                                                             MinImageMode::Fast);
  w.ei_aos = std::make_unique<DistanceTableAB_AoS<qmc_real>>(sys.crystal.lattice, sys.ions_aos,
                                                             sys.nel, MinImageMode::Fast);
  w.ee_soa = std::make_unique<DistanceTableAA_SoA<qmc_real>>(sys.crystal.lattice, sys.nel,
                                                             MinImageMode::Fast);
  w.ei_soa = std::make_unique<DistanceTableAB_SoA<qmc_real>>(sys.crystal.lattice, sys.ions_soa,
                                                             sys.nel, MinImageMode::Fast);
  w.out_aos = std::make_unique<WalkerAoS<qmc_real>>(sys.out_pad);
  w.out_soa = std::make_unique<WalkerSoA<qmc_real>>(sys.out_pad);
  w.quad_v.resize(static_cast<std::size_t>(sys.nq) * sys.out_pad);
  w.quad_v_ptrs.resize(static_cast<std::size_t>(sys.nq));
  for (int q = 0; q < sys.nq; ++q)
    w.quad_v_ptrs[static_cast<std::size_t>(q)] =
        w.quad_v.data() + static_cast<std::size_t>(q) * sys.out_pad;
  w.quad_r.resize(static_cast<std::size_t>(sys.nq));
  w.phi.resize(static_cast<std::size_t>(sys.norb));
  w.jgrad.resize(static_cast<std::size_t>(sys.nel));
  w.jlap.resize(static_cast<std::size_t>(sys.nel));
  w.det_up = DetUpdater(cfg.delay_rank);
  w.det_dn = DetUpdater(cfg.delay_rank);
}

/// Walker setup (not profiled): rng stream, positions, tables, output
/// buffers, determinants.  Each walker's state is a function of (config,
/// walker id) only, never of crowd or shard membership.
inline void init_walker(WalkerState& w, const MiniQMCSystem& sys, const MiniQMCConfig& cfg,
                        int wid)
{
  init_walker_shell(w, sys, cfg);
  w.rng = Xoshiro256::for_stream(cfg.seed, static_cast<std::uint64_t>(wid));
  w.elec_soa = random_particles<qmc_real>(sys.nel, sys.crystal.lattice,
                                          cfg.seed + 1000 + static_cast<std::uint64_t>(wid));
  w.elec_aos = to_aos(w.elec_soa);
  if (cfg.optimized_dt_jastrow) {
    w.ee_soa->evaluate(w.elec_soa);
    w.ei_soa->evaluate(w.elec_soa);
  } else {
    w.ee_aos->evaluate(w.elec_aos);
    w.ei_aos->evaluate(w.elec_aos);
  }

  // Determinants from the initial configuration (double precision).
  {
    qmc_real* v = sys.aos_outputs ? w.out_aos->v.data() : w.out_soa->v.data();
    const auto eval_v = [&](int e) {
      sys.spo.evaluate_one(DerivLevel::V, w.elec_soa[e], v, nullptr, nullptr, w.out_soa->stride);
    };
    Matrix<double> a_up(sys.norb), a_dn(sys.norb);
    for (int e = 0; e < sys.norb; ++e) {
      eval_v(e);
      for (int n = 0; n < sys.norb; ++n)
        a_up(n, e) = static_cast<double>(v[n]) + (n == e ? 1.0 : 0.0); // diagonal boost
    }
    for (int e = 0; e < sys.norb; ++e) {
      eval_v(sys.norb + e);
      for (int n = 0; n < sys.norb; ++n)
        a_dn(n, e) = static_cast<double>(v[n]) + (n == e ? 1.0 : 0.0);
    }
    // The diagonal boost keeps the synthetic (random-coefficient) orbital
    // matrices well conditioned; production orbitals are near-orthogonal
    // at distinct electron positions, which this emulates.
    w.det_up.build(a_up);
    w.det_dn.build(a_dn);
  }
}

/// Price and decide one electron move once the trial position and its
/// orbital values are known: distance-table temp rows, Jastrow ratio,
/// determinant ratio, Metropolis accept/reject with commits.  @p v is the
/// walker's slice of the crowd's orbital-value batch at @p r_new; everything
/// inside is arithmetic on the walker's own state and rng stream.  Sections
/// are timed into the crowd's registry @p prof.
inline void metropolis_move(WalkerState& w, const MiniQMCSystem& sys, const MiniQMCConfig& cfg,
                            int e, const Vec3<qmc_real>& r_new, const qmc_real* v,
                            ProfileRegistry& prof)
{
  double log_jr = 0.0;
  {
    ScopedTimer t(prof, kSectionDistance);
    if (cfg.optimized_dt_jastrow) {
      w.ee_soa->compute_temp(w.elec_soa, r_new, e);
      w.ei_soa->compute_temp(r_new);
    } else {
      w.ee_aos->compute_temp(w.elec_aos, r_new, e);
      w.ei_aos->compute_temp(r_new);
    }
  }
  {
    ScopedTimer t(prof, kSectionJastrow);
    if (cfg.optimized_dt_jastrow)
      log_jr = sys.j2_soa.ratio_log(*w.ee_soa, e) + sys.j1_soa.ratio_log(*w.ei_soa, e);
    else
      log_jr = sys.j2_aos.ratio_log(*w.ee_aos, e) + sys.j1_aos.ratio_log(*w.ei_aos, e);
  }

  double det_ratio;
  DetUpdater& det = e < sys.norb ? w.det_up : w.det_dn;
  const int col = e < sys.norb ? e : e - sys.norb;
  {
    ScopedTimer t(prof, kSectionDeterminant);
    for (int n = 0; n < sys.norb; ++n)
      w.phi[static_cast<std::size_t>(n)] = static_cast<double>(v[n]) + (n == col ? 1.0 : 0.0);
    det_ratio = det.ratio(w.phi.data(), col);
  }

  const double p = std::exp(2.0 * log_jr) * det_ratio * det_ratio;
  if (w.rng.uniform() < p) {
    ++w.accepted;
    {
      ScopedTimer t(prof, kSectionDistance);
      if (cfg.optimized_dt_jastrow) {
        w.ee_soa->accept_move(e);
        w.ei_soa->accept_move(e);
      } else {
        w.ee_aos->accept_move(e);
        w.ei_aos->accept_move(e);
      }
    }
    {
      ScopedTimer t(prof, kSectionDeterminant);
      det.accept_move(w.phi.data(), col);
    }
    w.elec_soa.set(e, r_new);
    w.elec_aos[e] = r_new;
  }
}

/// Measurement-phase quadrature for one electron, minus the V batch: the
/// per-point distance rows and one-body Jastrow ratios.  The quadrature
/// positions must already be in w.quad_r (proposed from the walker's rng).
inline void quadrature_dist_jastrow(WalkerState& w, const MiniQMCSystem& sys,
                                    const MiniQMCConfig& cfg, int e, ProfileRegistry& prof)
{
  for (int q = 0; q < cfg.quadrature_points; ++q) {
    {
      ScopedTimer t(prof, kSectionDistance);
      if (cfg.optimized_dt_jastrow)
        w.ei_soa->compute_temp(w.quad_r[static_cast<std::size_t>(q)]);
      else
        w.ei_aos->compute_temp(w.quad_r[static_cast<std::size_t>(q)]);
    }
    {
      ScopedTimer t(prof, kSectionJastrow);
      if (cfg.optimized_dt_jastrow)
        (void)sys.j1_soa.ratio_log(*w.ei_soa, e);
      else
        (void)sys.j1_aos.ratio_log(*w.ei_aos, e);
    }
  }
}

/// Full Jastrow gradients/Laplacians once per step (local energy analogue).
inline void full_jastrow(WalkerState& w, const MiniQMCSystem& sys, const MiniQMCConfig& cfg,
                         ProfileRegistry& prof)
{
  ScopedTimer t(prof, kSectionJastrow);
  if (cfg.optimized_dt_jastrow) {
    (void)sys.j2_soa.evaluate_log(*w.ee_soa, w.jgrad.data(), w.jlap.data());
    (void)sys.j1_soa.evaluate_log(*w.ei_soa, w.jgrad.data(), w.jlap.data());
  } else {
    (void)sys.j2_aos.evaluate_log(*w.ee_aos, w.jgrad.data(), w.jlap.data());
    (void)sys.j1_aos.evaluate_log(*w.ei_aos, w.jgrad.data(), w.jlap.data());
  }
}

/// Reduce per-walker state into the result (counters, per-walker trajectory
/// fingerprints).  Profiles are per crowd; callers merge them.
inline void reduce_result(MiniQMCResult& result, std::vector<WalkerState>& walkers)
{
  std::size_t attempted = 0, accepted = 0;
  result.walker_accepts.resize(walkers.size());
  result.walker_log_det.resize(walkers.size());
  for (std::size_t i = 0; i < walkers.size(); ++i) {
    WalkerState& w = walkers[i];
    attempted += w.attempted;
    accepted += w.accepted;
    result.spline_orbital_evals += w.orbital_evals;
    result.walker_accepts[i] = w.accepted;
    result.walker_log_det[i] = w.det_up.log_det() + w.det_dn.log_det();
  }
  result.moves_attempted = attempted;
  result.acceptance_ratio =
      attempted > 0 ? static_cast<double>(accepted) / static_cast<double>(attempted) : 0.0;
}

/// The DMC branching driver (dmc_driver.cpp); dispatched to by run_miniqmc.
MiniQMCResult run_miniqmc_dmc(const MiniQMCConfig& cfg);

// --------------------------------------------------------------------------
// Checkpoint glue (implemented in qmc/checkpoint.cpp).
//
// WalkerPopulation and the DMC driver run the same epoch-chunked protocol:
// advance all walkers to the next step boundary inside one team region, then
// — OUTSIDE any team region, with no OrbitalResource live — snapshot /
// inject faults / stop.
// Chunking the sweep into epochs is trajectory-neutral: per-walker state and
// rng streams persist across regions, and the stored walker teams stay
// region-valid because TeamHandle binds by nesting level (threading.h).
// --------------------------------------------------------------------------

/// Per-run checkpoint/fault state resolved once from the config.
struct CheckpointRuntime
{
  std::string path;
  int interval = 0; ///< <= 0: only the final end-of-run snapshot
  std::uint64_t config_hash = 0;
  ckpt::FaultPlan fault;

  [[nodiscard]] bool enabled() const noexcept { return !path.empty(); }
};

/// Hash of every configuration field that determines the trajectory (seed,
/// system shape, layout, delay rank, ...).  Scheduling-only knobs — driver
/// mode, crowd size, tile size, inner threads, step budget — are excluded:
/// a snapshot is resumable under any of them (the bit-for-bit invariant).
[[nodiscard]] std::uint64_t miniqmc_config_hash(const MiniQMCConfig& cfg,
                                                const MiniQMCSystem& sys) noexcept;

/// Resolve path/interval/fault plan (cfg.fault_inject overrides the
/// MQC_FAULT_INJECT env var; faults are inert without a checkpoint path).
[[nodiscard]] CheckpointRuntime make_checkpoint_runtime(const MiniQMCConfig& cfg,
                                                        const MiniQMCSystem& sys);

/// First step boundary after @p step: the next interval multiple, the armed
/// fault's abort step, or the end of the run — whichever comes first.
[[nodiscard]] int next_epoch_boundary(const CheckpointRuntime& rt, int step, int steps);

/// The step-boundary snapshot point (call between team regions): writes an
/// interval-aligned or final snapshot, applies armed file faults, and exits
/// the process when the abort fault fires at this boundary.  Asserts under
/// MQC_CONTRACTS that no OrbitalResource of @p crowds' scratch is live.
void checkpoint_step_boundary(const CheckpointRuntime& rt, const MiniQMCConfig& cfg,
                              const MiniQMCSystem& sys, std::vector<WalkerState>& walkers,
                              const CrowdSet& crowds, int step, int steps,
                              MiniQMCResult& result);

/// Resume attempt (call after init_walker, before the sweep): restores every
/// walker from the snapshot at rt.path (with `.prev` fallback) and returns
/// the step to continue from; returns 0 (fresh start) when no snapshot is
/// usable.  Outcome is surfaced in result.resumed_from_step /
/// resume_fallback_used / resume_error — a damaged snapshot never crashes
/// and never half-applies.
[[nodiscard]] int resume_from_checkpoint(const CheckpointRuntime& rt, const MiniQMCConfig& cfg,
                                         const MiniQMCSystem& sys,
                                         std::vector<WalkerState>& walkers,
                                         MiniQMCResult& result);

// --------------------------------------------------------------------------
// Walker-state blob accessors (implemented in qmc/checkpoint.cpp).
//
// The checkpoint Walker-section codec doubles as the DMC walker-clone path:
// a spawned child is exactly a snapshot round-trip of its parent (positions,
// rng stream incl. the Box–Muller cache, committed distance tables of the
// configured layout, determinant engine state), so clone fidelity is pinned
// by the same code the resume tests already pin bit-for-bit.
// --------------------------------------------------------------------------

/// Serialize the full resumable state of @p w as a checkpoint Walker-section
/// payload tagged with slot id @p wid.
[[nodiscard]] std::vector<std::uint8_t> serialize_walker_state(WalkerState& w,
                                                               const MiniQMCSystem& sys,
                                                               const MiniQMCConfig& cfg, int wid);

/// Restore @p w from a Walker-section payload written for slot id @p wid.
/// @p w must be shell-initialized (init_walker_shell or init_walker) for the
/// same (sys, cfg) shape.  Validates everything before mutating; returns
/// false (walker untouched) on any mismatch.
[[nodiscard]] bool restore_walker_state(const std::vector<std::uint8_t>& payload, WalkerState& w,
                                        const MiniQMCSystem& sys, const MiniQMCConfig& cfg,
                                        int wid);

/// Clone the FULL per-walker state of @p src into @p dst (the DMC birth
/// path): blob round-trip for positions/rng/counters/distance tables plus a
/// direct determinant-engine copy (DetUpdater::clone_state_from) so the
/// O(norb^2) matrices skip the byte codec.  @p dst must be shell-initialized
/// for the same (sys, cfg); its rng stream is the parent's — callers give
/// the child its own stream (Xoshiro256::split) afterwards.
void clone_walker_state(WalkerState& dst, WalkerState& src, const MiniQMCSystem& sys,
                        const MiniQMCConfig& cfg);

// --------------------------------------------------------------------------
// DMC population checkpoint glue (implemented in qmc/checkpoint.cpp).
// --------------------------------------------------------------------------

/// Branching-run provenance that must survive a checkpoint: the Meta section
/// of a DMC snapshot appends these after the common prefix (the PR 7 format
/// already supports a variable walker-section count, so dynamic populations
/// reuse the container unchanged).
struct DmcRunState
{
  int generation = 0;         ///< completed branch generations
  double trial_energy = 0.0;  ///< E_T after the last feedback update
  std::uint64_t births = 0;   ///< cumulative walkers spawned by branching
  std::uint64_t deaths = 0;   ///< cumulative walkers killed by branching
  std::vector<double> weights; ///< per-walker branching weights (parallel to the walker vector)
};

/// DMC flavour of checkpoint_step_boundary: identical protocol (interval or
/// final snapshot, file faults, abort fault), but the snapshot carries the
/// live population (walkers.size() walker sections) and the DMC Meta tail.
void dmc_checkpoint_boundary(const CheckpointRuntime& rt, const MiniQMCConfig& cfg,
                             const MiniQMCSystem& sys, std::vector<WalkerState>& walkers,
                             const CrowdSet& crowds, DmcRunState& dmc, int step, int steps,
                             MiniQMCResult& result);

/// DMC flavour of resume_from_checkpoint: resizes @p walkers to the
/// snapshot's population (shell-init + restore per walker), restores the
/// branching provenance into @p dmc, and returns the step to continue from
/// (0 = fresh start).  Same never-crash / never-half-apply contract.
[[nodiscard]] int dmc_resume_from_checkpoint(const CheckpointRuntime& rt,
                                             const MiniQMCConfig& cfg, const MiniQMCSystem& sys,
                                             std::vector<WalkerState>& walkers, DmcRunState& dmc,
                                             MiniQMCResult& result);

} // namespace mqc::detail

#endif // MQC_QMC_MINIQMC_CONTEXT_H

// The one walker sweep.  Every consumer that advances walkers runs
// crowd_sweep_steps below: the resident WalkerPopulation shards (and, through
// them, run_miniqmc's PerWalker and Crowd modes, which differ only in crowd
// size), the DMC driver (dmc_driver.cpp, with Langevin drift switched on) and
// the JobQueue's per-shard workers (job_queue.cpp).  A crowd is a contiguous
// walker range [first, first+count) advanced in lock-step: each electron move
// gathers the crowd's trial positions into ONE multi-position OrbitalSet
// request.  All per-walker arithmetic (distance tables, Jastrow/determinant
// ratios, Metropolis decisions, rng draws) is miniqmc_context.h's, untouched
// — a walker's trajectory is bit-for-bit the same for any crowd
// decomposition, which is what makes crowd size, shard counts and job
// packing trajectory-neutral by construction.
//
// The crowd's inner team (Opt C) serves both levels of a crowd's work: the
// spline requests fork their (tile, position-block) sweep on it, and the
// per-walker phases between them (metropolis_move, the quadrature distance
// and Jastrow ratios, full_jastrow) fork one walker per iteration through
// team_for.  A walker touches only its own state and rng stream, so the
// walker fork is trajectory-neutral too.  Two consequences: timers go to
// per-walker slot registries (CrowdScratch::walker_prof, merged into the
// crowd's registry when crowd_sweep_steps returns), and a walker of a
// multi-walker crowd runs its determinant flush serially, since the team is
// busy with walkers (prepare_crowd).
//
// The shard/crowd layout helpers below (ShardSet, CrowdSet,
// resolve_crowd_cap, surface_schedule, init_crowd_walkers, sweep_crowds) are
// shared by WalkerPopulation and the DMC driver, so both decompose, build and
// report a population the same way.
//
// Like miniqmc_context.h, this header is an implementation detail of the
// qmc/ translation units, not public API.
#ifndef MQC_QMC_CROWD_SWEEP_H
#define MQC_QMC_CROWD_SWEEP_H

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <vector>

#include "core/coef_storage.h"
#include "qmc/miniqmc_context.h"

namespace mqc::detail {

/// Per-crowd scratch: gathered trial positions, per-walker output-slot
/// pointer tables for the multi-position requests, and the OrbitalResource
/// owning the batch's weight sets.  Everything here is walker-INVARIANT
/// (slot pointers into per-walker buffers that live as long as the walker):
/// build it once per crowd, outside the epoch loop, so the timed sweep —
/// and a checkpoint_interval=1 run's every-step epochs — allocate nothing.
struct CrowdScratch
{
  CrowdScratch(std::vector<WalkerState>& walkers, int first, int count, const MiniQMCSystem& sys)
  {
    rnew.resize(static_cast<std::size_t>(count));
    v.resize(static_cast<std::size_t>(count));
    g.resize(static_cast<std::size_t>(count));
    h.resize(static_cast<std::size_t>(count));
    l.resize(static_cast<std::size_t>(count));
    quad_v.resize(static_cast<std::size_t>(count) * static_cast<std::size_t>(sys.nq));
    quad_pos.resize(static_cast<std::size_t>(count) * static_cast<std::size_t>(sys.nq));
    walker_prof.resize(static_cast<std::size_t>(count));
    (void)ores.weights_for(count * sys.nq);
    for (int i = 0; i < count; ++i) {
      WalkerState& w = walkers[static_cast<std::size_t>(first + i)];
      const auto ui = static_cast<std::size_t>(i);
      // The facade writes into the layout-appropriate walker buffer: AoS
      // component groups for the baseline engine, SoA streams otherwise.
      if (sys.aos_outputs) {
        v[ui] = w.out_aos->v.data();
        g[ui] = w.out_aos->g.data();
        h[ui] = w.out_aos->h.data();
        l[ui] = w.out_aos->l.data();
      } else {
        v[ui] = w.out_soa->v.data();
        g[ui] = w.out_soa->g.data();
        h[ui] = w.out_soa->h.data();
        l[ui] = w.out_soa->l.data();
      }
      for (int q = 0; q < sys.nq; ++q)
        quad_v[ui * static_cast<std::size_t>(sys.nq) + static_cast<std::size_t>(q)] =
            w.quad_v_ptrs[static_cast<std::size_t>(q)];
    }
  }

  std::vector<Vec3<qmc_real>> rnew;
  std::vector<qmc_real*> v, g, h, l;   ///< per-walker component slots
  std::vector<qmc_real*> quad_v;       ///< count*nq quadrature value slots
  std::vector<Vec3<qmc_real>> quad_pos; ///< gathered count*nq quadrature positions
  /// One registry per walker slot: the walker phases time into their own
  /// slot from whichever team thread runs them (ProfileRegistry is
  /// single-threaded), and crowd_sweep_steps merges them into the crowd's.
  std::vector<ProfileRegistry> walker_prof;
  OrbitalResource<qmc_real> ores;      ///< weight sets for the crowd's batches
};

/// One VGH request for the crowd's trial positions (scr.rnew[0..count)),
/// landing in each walker's own output buffers.  @p team is the crowd's
/// inner team: with more than one thread the facade forks the (tile,
/// position-block) sweep under this crowd's outer thread (Opt C).
inline void crowd_eval_vgh(const MiniQMCSystem& sys, std::vector<WalkerState>& walkers, int first,
                           int count, CrowdScratch& scr, TeamHandle team)
{
  OrbitalEvalRequest<qmc_real> rq;
  rq.deriv = DerivLevel::VGH;
  rq.positions = scr.rnew.data();
  rq.count = count;
  rq.v = scr.v.data();
  rq.g = scr.g.data();
  rq.lh = scr.h.data();
  rq.stride = sys.out_pad;
  rq.parallel = team.parallel();
  rq.team = team;
  sys.spo.evaluate(rq, scr.ores);
  for (int i = 0; i < count; ++i)
    walkers[static_cast<std::size_t>(first + i)].orbital_evals +=
        static_cast<std::size_t>(sys.norb);
}

/// One VGL request at the crowd's current positions of electron e (kinetic
/// energy measurement).
inline void crowd_eval_vgl(const MiniQMCSystem& sys, const MiniQMCConfig& cfg,
                           std::vector<WalkerState>& walkers, int first, int count, int e,
                           CrowdScratch& scr, TeamHandle team)
{
  for (int i = 0; i < count; ++i) {
    const WalkerState& w = walkers[static_cast<std::size_t>(first + i)];
    scr.rnew[static_cast<std::size_t>(i)] = cfg.optimized_dt_jastrow ? w.elec_soa[e] : w.elec_aos[e];
  }
  OrbitalEvalRequest<qmc_real> rq;
  rq.deriv = DerivLevel::VGL;
  rq.positions = scr.rnew.data();
  rq.count = count;
  rq.v = scr.v.data();
  rq.g = scr.g.data();
  rq.lh = scr.l.data();
  rq.stride = sys.out_pad;
  rq.parallel = team.parallel();
  rq.team = team;
  sys.spo.evaluate(rq, scr.ores);
  for (int i = 0; i < count; ++i)
    walkers[static_cast<std::size_t>(first + i)].orbital_evals +=
        static_cast<std::size_t>(sys.norb);
}

/// One V request over the whole crowd's quadrature points (count*nq
/// positions, each walker's nq points already proposed into its quad_r).
inline void crowd_eval_quad_v(const MiniQMCSystem& sys, const MiniQMCConfig& cfg,
                              std::vector<WalkerState>& walkers, int first, int count,
                              CrowdScratch& scr, TeamHandle team)
{
  const int nq = cfg.quadrature_points;
  // Gather the crowd's quadrature positions into one contiguous batch.
  for (int i = 0; i < count; ++i) {
    const WalkerState& w = walkers[static_cast<std::size_t>(first + i)];
    std::copy(w.quad_r.begin(), w.quad_r.begin() + nq,
              scr.quad_pos.begin() + static_cast<std::size_t>(i) * static_cast<std::size_t>(nq));
  }
  OrbitalEvalRequest<qmc_real> rq;
  rq.deriv = DerivLevel::V;
  rq.positions = scr.quad_pos.data();
  rq.count = count * nq;
  rq.v = scr.quad_v.data();
  rq.parallel = team.parallel();
  rq.team = team;
  sys.spo.evaluate(rq, scr.ores);
  for (int i = 0; i < count; ++i)
    walkers[static_cast<std::size_t>(first + i)].orbital_evals +=
        static_cast<std::size_t>(nq) * static_cast<std::size_t>(sys.norb);
}

/// Langevin drift centre for electron @p e of @p w: r + scale * g, where g is
/// the gradient of the electron's own orbital column from the VGL batch just
/// evaluated at the current positions, and scale = tau clamped so that
/// |scale * g| <= sqrt(tau) (the standard near-node guard).
inline Vec3<qmc_real> drift_centre(const WalkerState& w, const MiniQMCSystem& sys, double tau,
                                   int e, const Vec3<qmc_real>& r)
{
  const int col = e < sys.norb ? e : e - sys.norb;
  double gx, gy, gz;
  if (sys.aos_outputs) {
    const qmc_real* g = w.out_aos->g.data();
    gx = static_cast<double>(g[3 * col + 0]);
    gy = static_cast<double>(g[3 * col + 1]);
    gz = static_cast<double>(g[3 * col + 2]);
  } else {
    gx = static_cast<double>(w.out_soa->gx()[col]);
    gy = static_cast<double>(w.out_soa->gy()[col]);
    gz = static_cast<double>(w.out_soa->gz()[col]);
  }
  const double vmax = 1.0 / std::sqrt(tau);
  const double vnorm = std::sqrt(gx * gx + gy * gy + gz * gz);
  const double scale = vnorm > vmax ? tau * vmax / vnorm : tau;
  return Vec3<qmc_real>{static_cast<qmc_real>(r.x + scale * gx),
                        static_cast<qmc_real>(r.y + scale * gy),
                        static_cast<qmc_real>(r.z + scale * gz)};
}

/// Advance the crowd [first, first+count) from step @p step_begin to
/// @p step_end (exclusive): the lock-step drift-diffusion + measurement body.
/// With @p drift set (full DMC), each electron move first evaluates one VGL
/// batch at the crowd's current positions and proposes from the drift
/// centre (drift_centre); the proposal still draws exactly three gaussians,
/// so the rng draw structure is the same with drift on or off.  The spline
/// requests and the per-walker phases both run on the crowd's @p inner team;
/// every timed section lands in the crowd's registry @p cprof by the time
/// the call returns.  Call inside the consumer's outer region (or from a
/// plain thread with a serial @p inner team); snapshots and fault points
/// stay OUTSIDE, at the epoch boundaries between calls.
inline void crowd_sweep_steps(const MiniQMCSystem& sys, const MiniQMCConfig& cfg,
                              std::vector<WalkerState>& walkers, int first, int count,
                              CrowdScratch& scr, ProfileRegistry& cprof, TeamHandle inner,
                              int step_begin, int step_end, bool drift)
{
  for (int s = step_begin; s < step_end; ++s) {
    // Drift-diffusion phase: the whole crowd moves electron e together.
    for (int e = 0; e < sys.nel; ++e) {
      if (drift) {
        ScopedTimer t(cprof, kSectionBspline);
        crowd_eval_vgl(sys, cfg, walkers, first, count, e, scr, inner);
      }
      for (int i = 0; i < count; ++i) {
        WalkerState& w = walkers[static_cast<std::size_t>(first + i)];
        ++w.attempted;
        const Vec3<qmc_real> r_old = cfg.optimized_dt_jastrow ? w.elec_soa[e] : w.elec_aos[e];
        const Vec3<qmc_real> centre = drift ? drift_centre(w, sys, cfg.dmc_tau, e, r_old) : r_old;
        scr.rnew[static_cast<std::size_t>(i)] = propose(w.rng, centre, cfg.move_sigma);
      }
      {
        ScopedTimer t(cprof, kSectionBspline);
        crowd_eval_vgh(sys, walkers, first, count, scr, inner);
      }
      team_for(inner, count, [&](int i) {
        WalkerState& w = walkers[static_cast<std::size_t>(first + i)];
        const qmc_real* v = sys.aos_outputs ? w.out_aos->v.data() : w.out_soa->v.data();
        metropolis_move(w, sys, cfg, e, scr.rnew[static_cast<std::size_t>(i)], v,
                        scr.walker_prof[static_cast<std::size_t>(i)]);
      });
    }

    // Measurement phase, electron by electron across the crowd: one VGL
    // request (kinetic energy), per-walker quadrature proposals and
    // distance/Jastrow ratios, then one V request over all count*nq
    // quadrature points.  Each walker's rng stream sees the same draw
    // sequence for every crowd size.
    for (int e = 0; e < sys.nel; ++e) {
      {
        ScopedTimer t(cprof, kSectionBspline);
        crowd_eval_vgl(sys, cfg, walkers, first, count, e, scr, inner);
      }
      team_for(inner, count, [&](int i) {
        WalkerState& w = walkers[static_cast<std::size_t>(first + i)];
        const Vec3<qmc_real> re = cfg.optimized_dt_jastrow ? w.elec_soa[e] : w.elec_aos[e];
        for (int q = 0; q < cfg.quadrature_points; ++q)
          w.quad_r[static_cast<std::size_t>(q)] = propose(w.rng, re, 0.5);
        quadrature_dist_jastrow(w, sys, cfg, e, scr.walker_prof[static_cast<std::size_t>(i)]);
      });
      if (cfg.quadrature_points > 0) {
        ScopedTimer t(cprof, kSectionBspline);
        crowd_eval_quad_v(sys, cfg, walkers, first, count, scr, inner);
      }
    }
    team_for(inner, count, [&](int i) {
      full_jastrow(walkers[static_cast<std::size_t>(first + i)], sys, cfg,
                   scr.walker_prof[static_cast<std::size_t>(i)]);
    });
  }
  for (ProfileRegistry& p : scr.walker_prof) {
    cprof.merge(p);
    p.clear();
  }
}

// --------------------------------------------------------------------------
// Shard and crowd layout of a resident population.
// --------------------------------------------------------------------------

/// One system per shard.  Shard 0 is the master (it generates the
/// coefficient table); shards 1..n-1 each copy the table ON THEIR OWN
/// THREAD (CoefReplicaSet first-touch placement, so the pages land on that
/// thread's socket) and build their engines and OrbitalSet facade over the
/// copy.  Identical table values make any shard count bit-for-bit neutral.
struct ShardSet
{
  /// @p requested shards: 0 = auto (MQC_SHARDS, else one per socket; see
  /// resolve_shard_count), clamped to the walker count.
  ShardSet(const MiniQMCConfig& cfg, int requested)
  {
    sys.push_back(std::make_unique<MiniQMCSystem>(cfg));
    const int n = std::min(resolve_shard_count(requested), sys.front()->nw);
    sys.resize(static_cast<std::size_t>(n));
    CoefReplicaSet<qmc_real> replicas(sys.front()->coefs, n);
    team_for(TeamHandle::of(n), n, [&](int s) {
      if (s > 0)
        sys[static_cast<std::size_t>(s)] =
            std::make_unique<MiniQMCSystem>(cfg, replicas.replicate(s));
    });
    // Memory-footprint provenance (opt-in, stderr like the checkpoint
    // diagnostics): the coefficient table is the dominant resident
    // allocation, and the replica bytes are what the precision path halves.
    if (std::getenv("MQC_VERBOSE") != nullptr) {
      for (int s = 0; s < n; ++s)
        std::fprintf(stderr, "miniqmc: shard %d coef replica: %zu bytes\n", s,
                     replicas.replica_bytes(s));
      std::fprintf(stderr, "miniqmc: coef replicas total: %zu bytes across %d shard(s)\n",
                   replicas.total_replica_bytes(), n);
    }
  }

  [[nodiscard]] int size() const noexcept { return static_cast<int>(sys.size()); }
  [[nodiscard]] MiniQMCSystem& master() const noexcept { return *sys.front(); }
  [[nodiscard]] MiniQMCSystem& operator[](int s) const noexcept
  {
    return *sys[static_cast<std::size_t>(s)];
  }

  std::vector<std::unique_ptr<MiniQMCSystem>> sys;
};

/// Crowd-size cap per shard: explicit > 0, 0 = whole shard, -1 = the tuned
/// size from cfg.wisdom (whole shard when nothing was tuned).
inline int resolve_crowd_cap(const MiniQMCConfig& cfg, const MiniQMCSystem& sys)
{
  return cfg.crowd_size < 0 ? sys.tuned_crowd_size : cfg.crowd_size;
}

/// One lock-step crowd: a contiguous walker range inside one shard.
struct CrowdRef
{
  int shard = 0;
  int first = 0;
  int count = 0;
};

/// The crowd decomposition of one walker vector, with each crowd's scratch
/// and profile registry.  Scratch is built with the walkers
/// (init_crowd_walkers) and, after a re-blocking, by the next sweep.
struct CrowdSet
{
  std::vector<CrowdRef> refs;
  std::vector<std::unique_ptr<CrowdScratch>> scratch;
  std::vector<ProfileRegistry> profiles;

  [[nodiscard]] int size() const noexcept { return static_cast<int>(refs.size()); }

  /// Block @p nw walkers contiguously over @p num_shards shards, then each
  /// shard's range into crowds of at most @p crowd_cap (<= 0: one crowd per
  /// shard).  Empty shards contribute no crowds.  Drops every crowd's scratch
  /// and profile, so merge the profiles first.
  void reblock(int nw, int num_shards, int crowd_cap)
  {
    refs.clear();
    for (int s = 0; s < num_shards; ++s) {
      const Range r = block_range(static_cast<std::size_t>(nw),
                                  static_cast<std::size_t>(num_shards),
                                  static_cast<std::size_t>(s));
      const int first = static_cast<int>(r.first), last = static_cast<int>(r.last);
      const int csize = crowd_cap > 0 ? std::min(crowd_cap, last - first) : last - first;
      for (int f = first; f < last; f += csize)
        refs.push_back({s, f, std::min(last - f, csize)});
    }
    scratch.clear();
    scratch.resize(refs.size());
    profiles.assign(refs.size(), ProfileRegistry{});
  }
};

/// Fill the run-shape and schedule fields every driver surfaces: population
/// shape, the resolved crowd size, the spline path (multi-position only when
/// a crowd holds more than one walker and the engine has native
/// multi-position sweeps), the precision path and the thread partition.
inline void surface_schedule(MiniQMCResult& r, const MiniQMCSystem& sys, int crowd_cap,
                             const ThreadPartition& part)
{
  r.num_walkers = sys.nw;
  r.num_electrons = sys.nel;
  r.num_orbitals = sys.norb;
  r.crowd_size_used = crowd_cap > 0 ? std::min(crowd_cap, sys.nw) : sys.nw;
  r.spline_path = r.crowd_size_used > 1 && sys.spo.capabilities().native_multi_eval
                      ? EvalPath::MultiPosition
                      : EvalPath::SinglePosition;
  r.precision_path = sys.precision;
  r.team_path = classify_team_path(part.outer, part.inner);
  r.outer_threads_used = part.outer;
  r.inner_threads_used = part.inner;
}

/// Hand the walkers of crowd @p ci their determinant team and build the
/// crowd's scratch on the calling thread: the static team_for schedule keeps
/// the crowd->thread map stable, so the pages are first-touched where they
/// are consumed.  A one-walker crowd's walker gets the inner team, bound to
/// the current region, for its delayed flush; in a larger crowd the inner
/// team runs the walkers themselves (crowd_sweep_steps), so each walker's
/// flush stays serial inside its team member.
inline void prepare_crowd(const ShardSet& shards, std::vector<WalkerState>& walkers,
                          CrowdSet& crowds, int ci, TeamHandle inner)
{
  const CrowdRef& c = crowds.refs[static_cast<std::size_t>(ci)];
  const TeamHandle det_team =
      c.count > 1 ? TeamHandle::serial() : inner.bound_to_current_region();
  for (int wid = c.first; wid < c.first + c.count; ++wid)
    walkers[static_cast<std::size_t>(wid)].set_team(det_team);
  crowds.scratch[static_cast<std::size_t>(ci)] =
      std::make_unique<CrowdScratch>(walkers, c.first, c.count, shards[c.shard]);
}

/// One team region advancing every crowd from @p step_begin to @p step_end,
/// one crowd per team member.  A crowd without scratch (the first sweep
/// after re-blocking) is prepared first.
inline void sweep_crowds(const ShardSet& shards, const MiniQMCConfig& cfg,
                         std::vector<WalkerState>& walkers, CrowdSet& crowds, TeamHandle inner,
                         int step_begin, int step_end, bool drift)
{
  team_for(TeamHandle::of(crowds.size()), crowds.size(), [&](int ci) {
    const CrowdRef& c = crowds.refs[static_cast<std::size_t>(ci)];
    if (!crowds.scratch[static_cast<std::size_t>(ci)])
      prepare_crowd(shards, walkers, crowds, ci, inner);
    crowd_sweep_steps(shards[c.shard], cfg, walkers, c.first, c.count,
                      *crowds.scratch[static_cast<std::size_t>(ci)],
                      crowds.profiles[static_cast<std::size_t>(ci)], inner, step_begin,
                      step_end, drift);
  });
}

/// Initialize every walker of @p crowds on its shard's system, one crowd per
/// team member, then prepare the crowd (prepare_crowd).  Walker state is a
/// function of (config, walker id) only; the shard system only changes
/// WHERE the orbital table is read from.
inline void init_crowd_walkers(const ShardSet& shards, const MiniQMCConfig& cfg,
                               std::vector<WalkerState>& walkers, CrowdSet& crowds,
                               TeamHandle inner)
{
  team_for(TeamHandle::of(crowds.size()), crowds.size(), [&](int ci) {
    const CrowdRef& c = crowds.refs[static_cast<std::size_t>(ci)];
    for (int wid = c.first; wid < c.first + c.count; ++wid)
      init_walker(walkers[static_cast<std::size_t>(wid)], shards[c.shard], cfg, wid);
    prepare_crowd(shards, walkers, crowds, ci, inner);
  });
}

} // namespace mqc::detail

#endif // MQC_QMC_CROWD_SWEEP_H

// WalkerPopulation implementation: the resident epoch-chunked crowd sweep
// and population persistence over the checkpoint format.  See
// walker_population.h for the design contract and crowd_sweep.h for the
// sweep kernel and the shard/crowd layout helpers.
#include "qmc/walker_population.h"

#include <cassert>
#include <vector>

#include "qmc/crowd_sweep.h"

namespace mqc {

using detail::MiniQMCSystem;
using detail::WalkerState;

struct WalkerPopulation::Impl
{
  explicit Impl(const PopulationConfig& pcfg) : cfg(pcfg.qmc), shards(cfg, pcfg.num_shards) {}

  MiniQMCConfig cfg;      ///< population config (qmc knobs; steps/driver unused)
  detail::ShardSet shards; ///< one system per shard over its first-touch replica
  int step = 0;           ///< the population's Monte Carlo cursor

  /// ONE flat walker vector indexed by global walker id: checkpoint
  /// serialization stays exactly the drivers' (one Walker section per id),
  /// so population snapshots and run_miniqmc snapshots interoperate and the
  /// shard decomposition never leaks into the on-disk format.
  std::vector<WalkerState> walkers;
  detail::CrowdSet crowds; ///< walker -> shard -> crowd blocking, fixed for life
  TeamHandle inner = TeamHandle::serial();

  detail::CheckpointRuntime ckrt;
  /// Provenance + cumulative counters surfaced through result(): resume
  /// fields are written once at construction, checkpoints_written and
  /// seconds accumulate across run_to_step calls.
  MiniQMCResult status;
};

WalkerPopulation::WalkerPopulation(const PopulationConfig& pcfg)
    : impl_(std::make_unique<Impl>(pcfg))
{
  Impl& im = *impl_;
  const MiniQMCSystem& sys0 = im.shards.master();
  const int crowd_cap = detail::resolve_crowd_cap(im.cfg, sys0);
  im.crowds.reblock(sys0.nw, im.shards.size(), crowd_cap);
  const ThreadPartition part = detail::resolve_team_partition(im.cfg, sys0, im.crowds.size());
  im.inner = TeamHandle::inner_of(part);
  detail::surface_schedule(im.status, sys0, crowd_cap, part);

  im.walkers.resize(static_cast<std::size_t>(sys0.nw));
  detail::init_crowd_walkers(im.shards, im.cfg, im.walkers, im.crowds, im.inner);

  // ---- resume (outside any team region) ----------------------------------
  // The config hash and the Walker sections are shard-free, so a snapshot
  // written under any shard count (or by run_miniqmc itself) restores here.
  im.ckrt = detail::make_checkpoint_runtime(im.cfg, sys0);
  im.step = detail::resume_from_checkpoint(im.ckrt, im.cfg, sys0, im.walkers, im.status);
}

WalkerPopulation::~WalkerPopulation() = default;

int WalkerPopulation::num_shards() const noexcept { return impl_->shards.size(); }

int WalkerPopulation::num_walkers() const noexcept
{
  return static_cast<int>(impl_->walkers.size());
}

int WalkerPopulation::current_step() const noexcept { return impl_->step; }

void WalkerPopulation::run_to_step(int target_step)
{
  Impl& im = *impl_;
  const MiniQMCSystem& sys0 = im.shards.master();

  // Epoch-chunked: each team region advances every crowd to the next step
  // boundary; snapshots happen between regions (a no-op without a
  // checkpoint path, when the whole call is one region).  Chunking is
  // trajectory-neutral: walker state and rng streams persist across
  // regions, and the stored walker teams bind by nesting level.
  Stopwatch watch;
  const int entry_step = im.step;
  while (im.step < target_step) {
    const int boundary = detail::next_epoch_boundary(im.ckrt, im.step, target_step);
    detail::sweep_crowds(im.shards, im.cfg, im.walkers, im.crowds, im.inner, im.step, boundary,
                         /*drift=*/false);
    im.step = boundary;
    detail::checkpoint_step_boundary(im.ckrt, im.cfg, sys0, im.walkers, im.crowds, im.step,
                                     target_step, im.status);
  }
  // A call that swept nothing (already at/past the target) still leaves a
  // snapshot when a checkpoint path is set, so the resident state on disk
  // always matches the cursor.  Passing the cursor as the budget makes this
  // a pure final write (the abort fault requires step < steps).
  if (entry_step >= target_step)
    detail::checkpoint_step_boundary(im.ckrt, im.cfg, sys0, im.walkers, im.crowds, im.step,
                                     im.step, im.status);
  im.status.seconds += watch.elapsed();
}

void WalkerPopulation::run_steps(int steps) { run_to_step(impl_->step + steps); }

MiniQMCResult WalkerPopulation::result()
{
  Impl& im = *impl_;
  // Rebuild the aggregate from scratch on every call (walker counters and
  // crowd profiles are cumulative, so reducing into a fresh copy of the
  // provenance-carrying status is idempotent).
  MiniQMCResult r = im.status;
  detail::reduce_result(r, im.walkers);
  for (const auto& p : im.crowds.profiles)
    r.profile.merge(p);
  return r;
}

detail::MiniQMCSystem& WalkerPopulation::shard_system_internal(int shard) const
{
  assert(shard >= 0 && shard < impl_->shards.size());
  return impl_->shards[shard];
}

const MiniQMCConfig& WalkerPopulation::config_internal() const noexcept { return impl_->cfg; }

} // namespace mqc

// JobQueue implementation: per-shard worker threads packing independent
// jobs into crowd sweeps on the population's resident, socket-local
// engines.  See job_queue.h for the API contract and crowd_sweep.h for the
// sweep kernel.
#include "qmc/job_queue.h"

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <map>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "qmc/crowd_sweep.h"

namespace mqc {

using detail::CrowdScratch;
using detail::MiniQMCSystem;
using detail::WalkerState;

namespace {

struct PendingJob
{
  std::uint64_t id = 0;
  JobSpec spec;
};

/// Validate a spec against the resident system; returns an empty string when
/// the job can run on the population's replicated tables as-is.
std::string validate_spec(const JobSpec& spec, const MiniQMCConfig& cfg,
                          const MiniQMCSystem& sys)
{
  if (spec.num_walkers < 1)
    return "num_walkers must be >= 1";
  if (spec.num_walkers > 1 << 20)
    return "num_walkers is implausibly large";
  if (spec.steps < 0)
    return "steps must be >= 0";
  if (spec.precision_bytes != static_cast<int>(sizeof(detail::qmc_real)))
    return "precision mismatch: resident engine is " +
           std::to_string(sizeof(detail::qmc_real)) + "-byte real, job asked for " +
           std::to_string(spec.precision_bytes);
  if (spec.grid_size != 0 && spec.grid_size != cfg.grid_size)
    return "system mismatch: resident grid_size " + std::to_string(cfg.grid_size) +
           ", job asked for " + std::to_string(spec.grid_size);
  for (int d = 0; d < 3; ++d)
    if (spec.supercell[static_cast<std::size_t>(d)] != 0 &&
        spec.supercell[static_cast<std::size_t>(d)] != cfg.supercell[static_cast<std::size_t>(d)])
      return "system mismatch: job supercell disagrees with the resident population";
  (void)sys;
  return {};
}

} // namespace

struct JobQueue::Impl
{
  WalkerPopulation& pop;
  int max_pack;

  std::mutex mu;
  std::condition_variable cv_work; ///< signalled on submit and stop
  std::condition_variable cv_done; ///< signalled when results land
  std::deque<PendingJob> pending;
  std::map<std::uint64_t, JobResult> results; ///< completed, not yet collected
  std::uint64_t next_id = 1;
  std::size_t in_flight = 0;
  std::size_t completed = 0;
  std::size_t batches = 0;
  bool stop = false;
  bool closed = false; ///< set by drain(): later submits are surfaced rejections

  std::vector<std::thread> workers;

  Impl(WalkerPopulation& p, int pack) : pop(p), max_pack(std::max(1, pack)) {}

  /// Run one pack of jobs as a single crowd on shard @p shard's resident
  /// system.  No queue lock is held here.  Returns the number of crowd
  /// sweeps executed (0 when every job in the pack was rejected).
  std::size_t run_batch(int shard, std::vector<PendingJob>& batch,
                        std::vector<std::pair<std::uint64_t, JobResult>>& out)
  {
    const MiniQMCSystem& sys = pop.shard_system_internal(shard);
    const MiniQMCConfig& base = pop.config_internal();

    // Split into runnable jobs and immediate rejections.
    std::vector<PendingJob*> runnable;
    for (PendingJob& j : batch) {
      JobResult r;
      r.id = j.id;
      r.shard = shard;
      r.error = validate_spec(j.spec, base, sys);
      if (r.error.empty()) {
        runnable.push_back(&j);
      } else {
        out.emplace_back(j.id, std::move(r));
      }
    }
    if (runnable.empty())
      return 0;

    // Longest step budget first: the pack's active walkers at any step form
    // a contiguous prefix, so short jobs retire without padding.  Stable on
    // id so the order (which is trajectory-neutral anyway) is reproducible.
    std::stable_sort(runnable.begin(), runnable.end(), [](const PendingJob* a,
                                                          const PendingJob* b) {
      return a->spec.steps != b->spec.steps ? a->spec.steps > b->spec.steps : a->id < b->id;
    });

    int total = 0, max_steps = 0;
    for (const PendingJob* j : runnable) {
      total += j->spec.num_walkers;
      max_steps = std::max(max_steps, j->spec.steps);
    }

    // Ephemeral pack walkers on the shard's resident engine.  Each job's
    // walkers are initialized from ITS config (its seed), with walker index
    // local to the job — exactly what a standalone run would do — so the
    // trajectory is f(physics, job seed, index), independent of packing.
    std::vector<WalkerState> walkers(static_cast<std::size_t>(total));
    std::vector<int> offsets;
    offsets.reserve(runnable.size());
    int off = 0;
    for (const PendingJob* j : runnable) {
      MiniQMCConfig jcfg = base;
      jcfg.seed = j->spec.seed;
      jcfg.num_walkers = j->spec.num_walkers;
      jcfg.steps = j->spec.steps;
      jcfg.checkpoint_path.clear(); // jobs are ephemeral: no persistence
      jcfg.resume = false;
      jcfg.fault_inject.clear();
      offsets.push_back(off);
      for (int k = 0; k < j->spec.num_walkers; ++k) {
        WalkerState& w = walkers[static_cast<std::size_t>(off + k)];
        detail::init_walker(w, sys, jcfg, k);
        w.set_team(TeamHandle::serial()); // plain thread: no OpenMP regions
      }
      off += j->spec.num_walkers;
    }

    // One lock-step sweep over the pack, shrinking to the active prefix as
    // budgets expire.  Serial team: the concurrency is across shards/packs.
    CrowdScratch scr(walkers, 0, total, sys);
    ProfileRegistry prof;
    for (int s = 0; s < max_steps; ++s) {
      int active = 0;
      for (std::size_t ji = 0; ji < runnable.size(); ++ji) {
        if (runnable[ji]->spec.steps > s)
          active = offsets[ji] + runnable[ji]->spec.num_walkers;
      }
      if (active == 0)
        break;
      detail::crowd_sweep_steps(sys, base, walkers, 0, active, scr, prof,
                                TeamHandle::serial(), s, s + 1, /*drift=*/false);
    }

    for (std::size_t ji = 0; ji < runnable.size(); ++ji) {
      const PendingJob* j = runnable[ji];
      JobResult r;
      r.id = j->id;
      r.ok = true;
      r.shard = shard;
      r.walker_accepts.resize(static_cast<std::size_t>(j->spec.num_walkers));
      r.walker_log_det.resize(static_cast<std::size_t>(j->spec.num_walkers));
      for (int k = 0; k < j->spec.num_walkers; ++k) {
        WalkerState& w = walkers[static_cast<std::size_t>(offsets[ji] + k)];
        r.walker_accepts[static_cast<std::size_t>(k)] = w.accepted;
        r.walker_log_det[static_cast<std::size_t>(k)] =
            w.det_up.log_det() + w.det_dn.log_det();
      }
      out.emplace_back(j->id, std::move(r));
    }
    return 1;
  }

  void worker_loop(int shard)
  {
    for (;;) {
      std::vector<PendingJob> batch;
      {
        std::unique_lock<std::mutex> lk(mu);
        cv_work.wait(lk, [&] { return stop || !pending.empty(); });
        if (pending.empty())
          return; // stop requested and nothing left to drain
        while (!pending.empty() && static_cast<int>(batch.size()) < max_pack) {
          batch.push_back(std::move(pending.front()));
          pending.pop_front();
        }
        in_flight += batch.size();
      }
      std::vector<std::pair<std::uint64_t, JobResult>> done;
      const std::size_t swept = run_batch(shard, batch, done);
      {
        std::lock_guard<std::mutex> lk(mu);
        for (auto& [id, r] : done)
          results.emplace(id, std::move(r));
        in_flight -= batch.size();
        completed += batch.size();
        batches += swept;
      }
      cv_done.notify_all();
    }
  }
};

JobQueue::JobQueue(WalkerPopulation& pop, int max_pack)
    : impl_(std::make_unique<Impl>(pop, max_pack))
{
  const int n = std::max(1, pop.num_shards());
  impl_->workers.reserve(static_cast<std::size_t>(n));
  for (int s = 0; s < n; ++s)
    impl_->workers.emplace_back([this, s] { impl_->worker_loop(s); });
}

JobQueue::~JobQueue()
{
  {
    std::lock_guard<std::mutex> lk(impl_->mu);
    impl_->stop = true;
  }
  impl_->cv_work.notify_all();
  for (std::thread& t : impl_->workers)
    t.join();
}

std::uint64_t JobQueue::submit(const JobSpec& spec)
{
  std::uint64_t id;
  bool rejected = false;
  {
    std::lock_guard<std::mutex> lk(impl_->mu);
    id = impl_->next_id++;
    if (impl_->closed) {
      // drain() closed the queue: racing this submit against worker shutdown
      // could silently drop the job, so it is rejected with a surfaced,
      // waitable result instead (never enqueued, never silently lost).
      JobResult r;
      r.id = id;
      r.ok = false;
      r.error = "queue closed by drain(); job rejected";
      impl_->results.emplace(id, std::move(r));
      rejected = true;
    } else {
      impl_->pending.push_back(PendingJob{id, spec});
    }
  }
  if (rejected)
    impl_->cv_done.notify_all();
  else
    impl_->cv_work.notify_one();
  return id;
}

JobResult JobQueue::wait(std::uint64_t id)
{
  std::unique_lock<std::mutex> lk(impl_->mu);
  if (id == 0 || id >= impl_->next_id) {
    JobResult r;
    r.id = id;
    r.error = "unknown job id";
    return r;
  }
  impl_->cv_done.wait(lk, [&] {
    if (impl_->results.count(id) != 0)
      return true;
    // Already collected (or never landed): don't wait forever once the
    // pipeline is idle — wait() is one-shot per id.
    return impl_->pending.empty() && impl_->in_flight == 0;
  });
  auto it = impl_->results.find(id);
  if (it == impl_->results.end()) {
    JobResult r;
    r.id = id;
    r.error = "job result already collected";
    return r;
  }
  JobResult r = std::move(it->second);
  impl_->results.erase(it);
  return r;
}

std::vector<JobResult> JobQueue::drain()
{
  std::unique_lock<std::mutex> lk(impl_->mu);
  impl_->closed = true; // later submits become surfaced rejections (see submit)
  impl_->cv_done.wait(lk, [&] { return impl_->pending.empty() && impl_->in_flight == 0; });
  std::vector<JobResult> out;
  out.reserve(impl_->results.size());
  for (auto& [id, r] : impl_->results)
    out.push_back(std::move(r)); // std::map: already in submission (id) order
  impl_->results.clear();
  return out;
}

int JobQueue::num_workers() const noexcept { return static_cast<int>(impl_->workers.size()); }

std::size_t JobQueue::completed() const
{
  std::lock_guard<std::mutex> lk(impl_->mu);
  return impl_->completed;
}

std::size_t JobQueue::packed_batches() const
{
  std::lock_guard<std::mutex> lk(impl_->mu);
  return impl_->batches;
}

} // namespace mqc

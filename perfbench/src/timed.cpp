// The timed run (`--trace 0`): each workload through the program's public
// entry points, untraced, with setup kept out of every rate.
//
// A sweep workload runs whole rounds — one run_miniqmc call each, identical
// inputs — until the swept time reaches the run length.  run_miniqmc's own
// `seconds` covers walker initialization plus the sweep, so one extra call
// with nothing to sweep measures the initialization; it is subtracted from
// every round's `seconds` and counted as setup instead.
#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <thread>

#include "bench.h"
#include "measure.h"
#include "qmc/job_queue.h"
#include "qmc/walker_population.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0)
{
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Round
{
  mqc::MiniQMCResult r;
  double call_s = 0.0;
};

Round call(const mqc::MiniQMCConfig& cfg)
{
  const auto t0 = Clock::now();
  Round rd;
  rd.r = mqc::run_miniqmc(cfg);
  rd.call_s = since(t0);
  return rd;
}

/// Walker sweeps a round completed.  DMC: generation g sweeps the population
/// left by branch step g-1 (the initial population for g = 0).
double walker_steps(const mqc::MiniQMCConfig& cfg, const mqc::MiniQMCResult& r)
{
  if (cfg.driver != mqc::DriverMode::DMC)
    return static_cast<double>(r.num_walkers) * cfg.steps;
  double sum = 0.0;
  int live = cfg.num_walkers;
  for (int pop : r.dmc_population) {
    sum += live;
    live = pop;
  }
  return sum * cfg.dmc_gen_steps;
}

/// Checks of one round against the call structure the driver must have run
/// and against properties branching must keep.  Empty on success.
std::string check_round(const mqc::MiniQMCConfig& cfg, const mqc::MiniQMCResult& r)
{
  char buf[256];
  const auto nel = static_cast<std::size_t>(r.num_electrons);
  const auto norb = static_cast<std::size_t>(r.num_orbitals);
  const auto nq = static_cast<std::size_t>(cfg.quadrature_points);
  if (r.outer_threads_used * r.inner_threads_used > kThreadBudget) {
    std::snprintf(buf, sizeof buf, "partition %dx%d exceeds the %d-thread budget",
                  r.outer_threads_used, r.inner_threads_used, kThreadBudget);
    return buf;
  }
  if (cfg.driver != mqc::DriverMode::DMC) {
    const auto moves = static_cast<std::size_t>(r.num_walkers) * cfg.steps * nel;
    // Per walker-step: one VGH and one VGL per electron, nq quadrature V each.
    const auto evals = moves * norb * (2 + nq);
    if (r.moves_attempted != moves || r.spline_orbital_evals != evals) {
      std::snprintf(buf, sizeof buf, "moves %zu (want %zu), orbital evals %zu (want %zu)",
                    r.moves_attempted, moves, r.spline_orbital_evals, evals);
      return buf;
    }
    return {};
  }
  // DMC: the population ledger must balance, and the spline calls must
  // match the sweeps the crowd ran.
  const auto final_pop = r.dmc_population.empty() ? cfg.num_walkers : r.dmc_population.back();
  if (static_cast<std::int64_t>(cfg.num_walkers) + static_cast<std::int64_t>(r.dmc_births) -
          static_cast<std::int64_t>(r.dmc_deaths) !=
      final_pop) {
    std::snprintf(buf, sizeof buf, "population ledger: %d + %llu births - %llu deaths != %d",
                  cfg.num_walkers, static_cast<unsigned long long>(r.dmc_births),
                  static_cast<unsigned long long>(r.dmc_deaths), final_pop);
    return buf;
  }
  // One crowd: per crowd-step a drift VGL, the VGH, the VGL and the
  // quadrature V batch for every electron.  (The per-walker sections of the
  // profile cannot be checked: they are merged over the final population
  // only, so the work of walkers killed by branching is not in them.)
  const std::size_t spline_calls =
      static_cast<std::size_t>(cfg.dmc_generations) * cfg.dmc_gen_steps * nel * 4;
  if (r.profile.calls(mqc::kSectionBspline) != spline_calls) {
    std::snprintf(buf, sizeof buf, "spline calls %zu (want %zu)",
                  r.profile.calls(mqc::kSectionBspline), spline_calls);
    return buf;
  }
  std::string detail;
  if (!cfg.checkpoint_path.empty() && !snapshots_valid(cfg.checkpoint_path, detail))
    return detail;
  return {};
}

/// Walkers of @p r whose fingerprint differs from the same walker id's in
/// @p ref (r may hold a prefix of ref's walkers).
std::uint64_t fingerprint_mismatches(const mqc::MiniQMCResult& ref, const mqc::MiniQMCResult& r)
{
  if (r.walker_accepts.size() > ref.walker_accepts.size())
    return r.walker_accepts.size();
  std::uint64_t bad = 0;
  for (std::size_t i = 0; i < r.walker_accepts.size(); ++i)
    bad += r.walker_accepts[i] != ref.walker_accepts[i] ||
           r.walker_log_det[i] != ref.walker_log_det[i];
  return bad;
}

RunResult run_sweep(const Workload& w, double seconds, const std::string& out_dir)
{
  RunResult out;
  mqc::MiniQMCConfig cfg = w.cfg;
  if (cfg.driver == mqc::DriverMode::DMC)
    cfg.checkpoint_path = out_dir + "/" + w.name + ".ckpt";

  mqc::MiniQMCConfig init_only = cfg;
  init_only.steps = 0;
  init_only.dmc_generations = 0;
  init_only.checkpoint_path.clear();
  const Round init = call(init_only);
  const double init_s = init.r.seconds;
  std::vector<double> setups{init.call_s};

  // Rounds differ only in their seed (round r of run seed s is a fixed
  // function of both), so a DMC run averages over several population
  // histories instead of repeating one.
  double swept_s = 0.0;
  std::vector<double> rates;
  mqc::MiniQMCResult ref;
  for (int round = 0; swept_s < seconds; ++round) {
    mqc::MiniQMCConfig rc = cfg;
    rc.seed = cfg.seed + 104729 * static_cast<std::uint64_t>(round);
    Round rd = call(rc);
    const double sweep_s = rd.r.seconds - init_s;
    swept_s += sweep_s;
    rates.push_back(walker_steps(rc, rd.r) / sweep_s);
    setups.push_back(rd.call_s - sweep_s);
    if (round == 0)
      ref = rd.r;
    // Every walker trajectory of a round is one operation; all of a round's
    // fail when it breaks the call structure.
    const std::string bad = check_round(rc, rd.r);
    if (!bad.empty())
      std::fprintf(stderr, "round %d: %s\n", round, bad.c_str());
    out.attempted += rd.r.walker_accepts.size();
    out.failed += bad.empty() ? 0 : rd.r.walker_accepts.size();
  }

  // Decomposition neutrality: round 0 again, for a prefix of its walkers
  // under another driver, crowd size or inner team, must reproduce each of
  // those walkers bit for bit (a trajectory depends on seed and walker id
  // alone).
  mqc::MiniQMCConfig alt = cfg;
  alt.num_walkers = w.alt_walkers;
  alt.driver = w.alt_driver;
  alt.crowd_size = w.alt_crowd_size;
  alt.inner_threads = w.alt_inner;
  if (!alt.checkpoint_path.empty())
    alt.checkpoint_path = out_dir + "/" + w.name + "-alt.ckpt";
  const Round neutral = call(alt);
  const std::string bad = check_round(alt, neutral.r);
  if (!bad.empty())
    std::fprintf(stderr, "neutrality rerun: %s\n", bad.c_str());
  out.attempted += neutral.r.walker_accepts.size();
  out.failed += bad.empty() ? fingerprint_mismatches(ref, neutral.r)
                            : neutral.r.walker_accepts.size();

  // Medians over rounds: a round slowed by a noisy neighbour moves neither.
  out.add("walker_steps_per_s", median(rates), "1/s");
  out.add("setup_s", median(setups), "s");
  return out;
}

} // namespace

/// One job is one operation: it must return ok with @p want's fingerprints.
void check_job(RunResult& out, std::size_t i, const mqc::JobResult& jr,
               const mqc::JobResult& want)
{
  out.attempted += 1;
  if (jr.ok && want.ok && jr.walker_accepts == want.walker_accepts &&
      jr.walker_log_det == want.walker_log_det)
    return;
  out.failed += 1;
  if (out.failed == 1)
    std::fprintf(stderr, "job %zu: ok=%d error='%s' or fingerprints differ\n", i, jr.ok,
                 jr.error.c_str());
}

// jobs-open: open-loop jobs (the fewest with ten beyond the 95th
// percentile), and jobs per capacity burst (whole packs of max_pack).
constexpr std::size_t kOpenLoopJobs = 200;
constexpr int kBurstJobs = 48;

RunResult run_open_loop(const Workload& w, double seconds, OpenLoopStats* stats)
{
  RunResult out;
  mqc::PopulationConfig pc;
  pc.qmc = w.cfg;
  pc.num_shards = 1;

  // Setup: resident tables and walkers, then the queue's worker.  Built
  // 15 times (the last one serves the run) for a median.
  std::vector<double> setups;
  std::unique_ptr<mqc::WalkerPopulation> pop;
  std::unique_ptr<mqc::JobQueue> queue;
  for (int k = 0; k < 15; ++k) {
    queue.reset();
    pop.reset();
    const auto t0 = Clock::now();
    pop = std::make_unique<mqc::WalkerPopulation>(pc);
    queue = std::make_unique<mqc::JobQueue>(*pop, w.max_pack);
    setups.push_back(since(t0));
  }

  // Reference: a job with the population's seed is bit-for-bit a standalone
  // run with the same walkers and steps.
  mqc::MiniQMCConfig solo = w.cfg;
  solo.driver = mqc::DriverMode::Crowd;
  solo.num_walkers = w.job_walkers;
  solo.steps = w.job_steps;
  const mqc::MiniQMCResult solo_r = mqc::run_miniqmc(solo);
  mqc::JobResult ref;
  ref.ok = true;
  ref.walker_accepts = solo_r.walker_accepts;
  ref.walker_log_det = solo_r.walker_log_det;

  mqc::JobSpec spec;
  spec.num_walkers = w.job_walkers;
  spec.steps = w.job_steps;
  spec.seed = w.cfg.seed;
  spec.precision_bytes = sizeof(float);

  const std::size_t n = kOpenLoopJobs;
  std::vector<OpenLoopJob> jobs(n);
  std::vector<std::uint64_t> ids(n);
  std::vector<mqc::JobResult> results(n);
  std::mutex m;
  std::condition_variable cv;
  std::size_t submitted = 0; // guarded by m
  bool stop = false;         // guarded by m: the generator failed

  const double cpu0 = process_cpu_s();
  const auto start = Clock::now();
  // The collector waits for the jobs in submission order and stamps each
  // completion while the generator keeps submitting on schedule.
  std::thread collector([&] {
    for (std::size_t i = 0; i < n; ++i) {
      std::uint64_t id;
      {
        std::unique_lock<std::mutex> lk(m);
        cv.wait(lk, [&] { return submitted > i || stop; });
        if (submitted <= i)
          return;
        id = ids[i];
      }
      results[i] = queue->wait(id);
      jobs[i].done_s = since(start);
    }
  });
  // A fixed schedule at a fixed rate, the same for every seed.
  try {
    for (std::size_t i = 0; i < n; ++i) {
      const double due = static_cast<double>(i) / w.job_rate_hz;
      std::this_thread::sleep_until(start + std::chrono::duration<double>(due));
      const std::uint64_t id = queue->submit(spec);
      const double sent = since(start);
      {
        std::lock_guard<std::mutex> lk(m);
        ids[i] = id;
        jobs[i].due_s = due;
        jobs[i].submitted_s = sent;
        submitted = i + 1;
      }
      cv.notify_one();
    }
  } catch (...) {
    {
      std::lock_guard<std::mutex> lk(m);
      stop = true;
    }
    cv.notify_one();
    collector.join();
    throw;
  }
  collector.join();
  const double loop_s = since(start);
  if (stats) {
    stats->cpu_per_wall = (process_cpu_s() - cpu0) / loop_s;
    stats->pack_factor = static_cast<double>(queue->completed()) /
                         static_cast<double>(std::max<std::size_t>(1, queue->packed_batches()));
    for (const OpenLoopJob& j : jobs)
      stats->late_max_ms = std::max(stats->late_max_ms, j.late_ms());
  }

  // Every open-loop job carries the population's seed, so each must equal
  // the standalone run.
  std::vector<double> latency;
  for (std::size_t i = 0; i < n; ++i) {
    check_job(out, i, results[i], ref);
    latency.push_back(jobs[i].latency_ms());
  }

  // Capacity: bursts of jobs submitted at once, so the queue always has a
  // backlog to pack, until the bursts have run for the run length.  A
  // burst's rate is its walker sweeps over the time from its first submit
  // until its last job returns.  Job k of a burst carries seed + k, so a
  // burst averages over kBurstJobs trajectories, not one; each is run
  // alone first, and packed it must reproduce its lone run bit for bit.
  std::vector<mqc::JobSpec> specs(kBurstJobs, spec);
  std::vector<mqc::JobResult> alone;
  for (int k = 0; k < kBurstJobs; ++k) {
    specs[k].seed = spec.seed + static_cast<std::uint64_t>(k);
    alone.push_back(queue->wait(queue->submit(specs[k])));
  }
  check_job(out, n, alone[0], ref);
  std::vector<double> burst_rates;
  for (double burst_s = 0.0; burst_s < seconds;) {
    const auto t0 = Clock::now();
    std::vector<std::uint64_t> burst_ids;
    for (const mqc::JobSpec& s : specs)
      burst_ids.push_back(queue->submit(s));
    std::vector<mqc::JobResult> burst;
    for (std::uint64_t id : burst_ids)
      burst.push_back(queue->wait(id));
    const double dt = since(t0);
    burst_s += dt;
    burst_rates.push_back(static_cast<double>(kBurstJobs) * w.job_walkers * w.job_steps / dt);
    for (int k = 0; k < kBurstJobs; ++k)
      check_job(out, n + 1 + k, burst[k], alone[k]);
  }

  const auto p95 = tail_percentile(latency, 0.95);
  if (stats) {
    stats->latency_p50_ms = median(latency);
    stats->latency_p95_ms = p95.value_or(0.0);
  }
  if (!p95)
    out.fail_check("fewer than 10 jobs beyond the 95th percentile");
  out.add("walker_steps_per_s", median(burst_rates), "1/s");
  out.add("setup_s", median(setups), "s");
  return out;
}

RunResult run_timed(const Workload& w, double seconds, const std::string& out_dir)
{
  std::string detail;
  const bool spline_ok = check_spline(w, detail);
  RunResult out = w.name == "jobs-open" ? run_open_loop(w, seconds, nullptr) : run_sweep(w, seconds, out_dir);
  if (!spline_ok)
    out.fail_check(detail);
  out.add("peak_rss_mb", peak_rss_mib(), "MiB");
  return out;
}

} // namespace perfbench

// The four workloads and the process probes.  Sizes and partitions are
// explained in ../README.md; every one fixes walkers, crowd size and inner
// team explicitly so no thread count is left to the program.
#include <sys/resource.h>

#include <ctime>
#include <iostream>
#include <stdexcept>

#include "bench.h"

namespace perfbench {

Workload make_workload(const std::string& name, std::uint64_t seed)
{
  Workload w;
  w.name = name;
  mqc::MiniQMCConfig& c = w.cfg;
  c.seed = 20170512 + 7919 * seed;
  c.spo = mqc::SpoLayout::AoSoA;
  c.optimized_dt_jastrow = true;
  c.quadrature_points = 4;
  if (name == "vmc-dram") {
    // 4x4x1 graphite (128 orbitals, 256 electrons) on a grid-136 table of
    // 1.2 GiB: over 4x a 300 MiB last-level cache, so VGH streams from DRAM.
    c.supercell = {4, 4, 1};
    c.grid_size = 136;
    c.tile_size = 32;
    c.num_walkers = 4;
    c.steps = 16;
    c.driver = mqc::DriverMode::Crowd;
    c.crowd_size = 0;
    c.inner_threads = 2;
    w.alt_walkers = 2;
    w.alt_driver = mqc::DriverMode::Crowd;
    w.alt_crowd_size = 1;
    w.alt_inner = 1;
  } else if (name == "vmc-cache") {
    // 4x4x2 graphite (256 orbitals, 512 electrons), a 14 MiB table: the plain
    // single-threaded per-walker baseline with Sherman-Morrison updates.
    c.supercell = {4, 4, 2};
    c.grid_size = 24;
    c.tile_size = 64;
    c.num_walkers = 1;
    c.steps = 16;
    c.driver = mqc::DriverMode::PerWalker;
    c.inner_threads = 1;
    w.alt_walkers = 1;
    w.alt_driver = mqc::DriverMode::Crowd;
    w.alt_crowd_size = 1;
    w.alt_inner = 1;
  } else if (name == "dmc-branch") {
    // 3x3x1 graphite (72 orbitals, 144 electrons), in cache; branching
    // population around 16 walkers, delayed rank-4 updates, snapshots.  One
    // thread: an inner team of 2 on 72 orbitals spent more time forking than
    // it saved and made round rates vary 2x; the neutrality rerun uses 2.
    c.supercell = {3, 3, 1};
    c.grid_size = 32;
    c.tile_size = 32;
    c.num_walkers = 16;
    c.driver = mqc::DriverMode::DMC;
    c.crowd_size = 0;
    c.inner_threads = 1;
    c.delay_rank = 4;
    c.dmc_generations = 5;
    c.dmc_gen_steps = 2;
    c.dmc_target_walkers = 16;
    c.checkpoint_interval = 8;
    w.alt_walkers = 16;
    w.alt_driver = mqc::DriverMode::DMC;
    w.alt_crowd_size = 0;
    w.alt_inner = 2;
  } else if (name == "jobs-open") {
    // A resident 3x3x1 population served through the job queue.
    c.supercell = {3, 3, 1};
    c.grid_size = 32;
    c.tile_size = 32;
    c.num_walkers = 2;
    c.crowd_size = 0;
    c.inner_threads = 1;
    w.job_walkers = 2;
    w.job_steps = 2;
    w.job_rate_hz = 33.0; // ~60% of the ~55 jobs/s one worker serves

    w.max_pack = 4;
  } else {
    throw std::invalid_argument("unknown workload '" + name +
                                "' (vmc-dram, vmc-cache, dmc-branch, jobs-open)");
  }
  return w;
}

void RunResult::fail_check(const std::string& what)
{
  correct = false;
  std::cerr << "CHECK FAILED: " << what << "\n";
}

double peak_rss_mib()
{
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0; // ru_maxrss is KiB on Linux
}

double process_cpu_s()
{
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

} // namespace perfbench

#include "qmc/miniqmc_driver.h"

#include "qmc/miniqmc_context.h"
#include "qmc/walker_population.h"

namespace mqc {

MiniQMCResult run_miniqmc(const MiniQMCConfig& cfg)
{
  if (cfg.driver == DriverMode::DMC)
    return detail::run_miniqmc_dmc(cfg);
  // PerWalker and Crowd are one process at two crowd sizes: a one-shard
  // population swept to cfg.steps.
  PopulationConfig pcfg;
  pcfg.qmc = cfg;
  if (cfg.driver == DriverMode::PerWalker)
    pcfg.qmc.crowd_size = 1;
  pcfg.num_shards = 1;
  WalkerPopulation pop(pcfg);
  pop.run_to_step(cfg.steps);
  return pop.result();
}

} // namespace mqc

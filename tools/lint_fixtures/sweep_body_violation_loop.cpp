// Fixture: a driver with its own walker loop around the move arithmetic
// (a second sweep body beside crowd_sweep_steps) must be flagged.
// Expected: >= 1 [sweep-body] finding.
#include "qmc/miniqmc_context.h"

void per_walker_step(mqc::detail::WalkerState& w, const mqc::detail::MiniQMCSystem& sys,
                     const mqc::MiniQMCConfig& cfg, mqc::ProfileRegistry& prof)
{
  for (int e = 0; e < sys.nel; ++e)
    mqc::detail::metropolis_move(w, sys, cfg, e, w.elec_soa[e], nullptr, prof);
  mqc::detail::full_jastrow(w, sys, cfg, prof);
}

// Fixture: a driver that advances its walkers through the one sweep body,
// and mentions the move functions only in comments, does not trip the rule.
// Expected: 0 findings.
#include "qmc/crowd_sweep.h"

// crowd_sweep_steps calls metropolis_move(), quadrature_dist_jastrow() and
// full_jastrow() for every walker of the crowd.
void advance(const mqc::detail::MiniQMCSystem& sys, const mqc::MiniQMCConfig& cfg,
             std::vector<mqc::detail::WalkerState>& walkers, mqc::detail::CrowdScratch& scr,
             mqc::ProfileRegistry& prof)
{
  mqc::detail::crowd_sweep_steps(sys, cfg, walkers, 0, static_cast<int>(walkers.size()), scr,
                                 prof, mqc::TeamHandle::serial(), 0, 1, /*drift=*/false);
}

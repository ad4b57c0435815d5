// The benchmark's own copy of a workload's physical system, built from the
// library's public classes only: the graphite cell, the random-coefficient
// table and its AoSoA tiling behind the OrbitalSet facade, the Jastrow
// functors and the ion set.  It mirrors what run_miniqmc builds for the same
// configuration, so the traced run and the spline check exercise the same
// table shape as the timed rounds.
#ifndef PERFBENCH_SYSTEM_H
#define PERFBENCH_SYSTEM_H

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>

#include "core/multi_bspline.h"
#include "core/orbital_set.h"
#include "core/synthetic_orbitals.h"
#include "jastrow/bspline_functor.h"
#include "particles/graphite.h"
#include "particles/particle_set.h"
#include "qmc/miniqmc_driver.h"

namespace perfbench {

using real = float; ///< the library's miniQMC kernel precision

struct System
{
  explicit System(const mqc::MiniQMCConfig& cfg)
      : crystal(mqc::make_graphite_supercell(cfg.supercell[0], cfg.supercell[1],
                                             cfg.supercell[2]))
  {
    norb = cfg.num_splines > 0 ? cfg.num_splines : crystal.num_orbitals();
    nel = 2 * norb;
    double lmax = 0.0;
    for (const auto& row : crystal.lattice.rows())
      lmax = std::max(lmax, std::abs(row.x) + std::abs(row.y) + std::abs(row.z));
    coefs = mqc::make_random_storage<real>(
        mqc::Grid3D<real>::cube(cfg.grid_size, static_cast<real>(lmax)), norb, cfg.seed);
    engine = std::make_unique<mqc::MultiBspline<real>>(*coefs, cfg.tile_size);
    spo = mqc::OrbitalSet<real>(*engine);
    stride = engine->padded_splines();

    const double rcut = std::min(crystal.lattice.wigner_seitz_radius(), 6.0);
    j2 = mqc::BsplineJastrowFunctor<real>::make_exponential(real(-0.5), real(1.0),
                                                            static_cast<real>(rcut));
    j1 = mqc::BsplineJastrowFunctor<real>::make_exponential(real(-1.0), real(0.75),
                                                            static_cast<real>(rcut));
    ions = mqc::ParticleSetSoA<real>(crystal.num_ions());
    for (int i = 0; i < crystal.num_ions(); ++i) {
      const auto r = crystal.ions[i];
      ions.set(i, mqc::Vec3<real>{static_cast<real>(r.x), static_cast<real>(r.y),
                                  static_cast<real>(r.z)});
    }
  }
  System(const System&) = delete;
  System& operator=(const System&) = delete;

  mqc::CrystalSystem crystal;
  int norb = 0;
  int nel = 0;
  std::size_t stride = 0;
  std::shared_ptr<mqc::CoefStorage<real>> coefs; ///< untiled; the engine owns a tiled copy
  std::unique_ptr<mqc::MultiBspline<real>> engine;
  mqc::OrbitalSet<real> spo;
  mqc::BsplineJastrowFunctor<real> j2, j1;
  mqc::ParticleSetSoA<real> ions;
};

/// Facade V/VGL/VGH of @p sys at sampled positions against the scalar
/// double-precision BsplineRef over its untiled table (checks.cpp).
bool check_facade(const System& sys, std::uint64_t seed, std::string& detail);

} // namespace perfbench

#endif // PERFBENCH_SYSTEM_H

// The traced run (`--trace 1`): per-layer numbers.
//
// The run drives the sweep's call sequence itself, through the public layer
// classes only — the OrbitalSet facade, the SoA distance tables, the Jastrow
// evaluators and DetUpdater — with a span around every layer call:
//   per electron: facade VGH (one crowd batch, or one position), distance
//                 temp rows, Jastrow ratio, determinant ratio, and on accept
//                 the distance and determinant commits;
//   per step:     facade VGL per electron, the quadrature distance rows and
//                 one-body ratios, one quadrature V batch, full Jastrow.
// The same sequence runs twice from the same walker state, untraced and then
// traced, so the difference of the two walls is the tracing overhead and the
// two trajectories must agree bit for bit (a trace is an observer).  For the
// VMC workloads the trajectory must also equal the program's own round.
//
// Layers the sequence cannot reach from outside (the DMC branch step, the
// queue's dispatch) are read from what the program returns: the DMC
// population series, snapshot files, queue counters.
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "bench.h"
#include "common/rng.h"
#include "common/sysinfo.h"
#include "determinant/det_update.h"
#include "determinant/lu.h"
#include "distance/distance_table.h"
#include "jastrow/one_body.h"
#include "jastrow/two_body.h"
#include "measure.h"
#include "perf/roofline.h"
#include "qmc/checkpoint.h"
#include "qmc/walker.h"
#include "system.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;
using mqc::Vec3;

double since(Clock::time_point t0)
{
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

enum Layer : std::uint16_t
{
  kVGH,
  kVGL,
  kV,
  kDistTemp,
  kDistAccept,
  kJasRatio,
  kJasFull,
  kDetRatio,
  kDetAccept,
  kStep, ///< the sweep's own glue between layer calls (unattributed)
  kNumLayers
};
constexpr const char* kLayerNames[kNumLayers] = {
    "spline.vgh", "spline.vgl",   "spline.v",  "distance.temp", "distance.accept",
    "jastrow.ratio", "jastrow.full", "det.ratio", "det.accept", "sweep.step"};

struct Walker
{
  Walker(const System& sys, int delay)
      : elec(sys.nel), ee(sys.crystal.lattice, sys.nel, mqc::MinImageMode::Fast),
        ei(sys.crystal.lattice, sys.ions, sys.nel, mqc::MinImageMode::Fast), out(sys.stride),
        up(delay), dn(delay), phi(static_cast<std::size_t>(sys.norb)),
        jgrad(static_cast<std::size_t>(sys.nel)), jlap(static_cast<std::size_t>(sys.nel))
  {
  }

  mqc::ParticleSetSoA<real> elec;
  mqc::DistanceTableAA_SoA<real> ee;
  mqc::DistanceTableAB_SoA<real> ei;
  mqc::WalkerSoA<real> out;
  mqc::DetUpdater up, dn;
  mqc::Xoshiro256 rng;
  std::vector<double> phi;
  std::vector<Vec3<real>> jgrad;
  std::vector<real> jlap;
  std::size_t accepted = 0, attempted = 0;
};

/// The orbital matrix of one spin block at the walker's positions, with the
/// diagonal boost the driver applies to keep random orbitals well posed.
mqc::Matrix<double> orbital_matrix(const System& sys, const Walker& w, int first)
{
  mqc::Matrix<double> a(sys.norb);
  std::vector<real> v(sys.stride);
  for (int e = 0; e < sys.norb; ++e) {
    sys.spo.evaluate_one(mqc::DerivLevel::V, w.elec[first + e], v.data(), nullptr, nullptr,
                         sys.stride);
    for (int n = 0; n < sys.norb; ++n)
      a(n, e) = static_cast<double>(v[static_cast<std::size_t>(n)]) + (n == e ? 1.0 : 0.0);
  }
  return a;
}

/// The sweep of one workload over W walkers, as the driver runs it.
class Sweep
{
public:
  Sweep(const System& sys, const mqc::MiniQMCConfig& cfg)
      : sys_(sys), cfg_(cfg), batch_(cfg.driver != mqc::DriverMode::PerWalker),
        team_(mqc::TeamHandle::of(cfg.inner_threads))
  {
    const int nw = cfg.num_walkers;
    const auto nq = static_cast<std::size_t>(cfg.quadrature_points);
    for (int i = 0; i < nw; ++i)
      walkers_.push_back(std::make_unique<Walker>(sys, cfg.delay_rank));
    rnew_.resize(static_cast<std::size_t>(nw));
    quad_r_.resize(static_cast<std::size_t>(nw) * nq);
    quad_v_.resize(quad_r_.size() * sys.stride);
    for (std::size_t p = 0; p < quad_r_.size(); ++p)
      quad_slots_.push_back(quad_v_.data() + p * sys.stride);
    for (auto& w : walkers_) {
      v_.push_back(w->out.v.data());
      g_.push_back(w->out.g.data());
      h_.push_back(w->out.h.data());
      l_.push_back(w->out.l.data());
    }
  }

  /// Fresh walkers: the driver's per-walker streams and initial state.
  void init()
  {
    for (std::size_t i = 0; i < walkers_.size(); ++i) {
      Walker& w = *walkers_[i];
      w.rng = mqc::Xoshiro256::for_stream(cfg_.seed, i);
      w.elec = mqc::random_particles<real>(sys_.nel, sys_.crystal.lattice, cfg_.seed + 1000 + i);
      w.ee.evaluate(w.elec);
      w.ei.evaluate(w.elec);
      w.up.set_team(team_);
      w.dn.set_team(team_);
      w.up.build(orbital_matrix(sys_, w, 0));
      w.dn.build(orbital_matrix(sys_, w, sys_.norb));
      w.accepted = w.attempted = 0;
    }
  }

  void step(SpanLog& log)
  {
    Scoped s_step(log, kStep);
    const std::size_t nw = walkers_.size();
    const int nq = cfg_.quadrature_points;
    for (int e = 0; e < sys_.nel; ++e) {
      for (std::size_t i = 0; i < nw; ++i) {
        Walker& w = *walkers_[i];
        ++w.attempted;
        rnew_[i] = propose(w.rng, w.elec[e], cfg_.move_sigma);
      }
      {
        Scoped s(log, kVGH);
        evaluate(mqc::DerivLevel::VGH, rnew_.data(), h_.data());
      }
      for (std::size_t i = 0; i < nw; ++i)
        move(*walkers_[i], e, rnew_[i], log);
    }
    for (int e = 0; e < sys_.nel; ++e) {
      for (std::size_t i = 0; i < nw; ++i)
        rnew_[i] = walkers_[i]->elec[e];
      {
        Scoped s(log, kVGL);
        evaluate(mqc::DerivLevel::VGL, rnew_.data(), l_.data());
      }
      for (std::size_t i = 0; i < nw; ++i) {
        Walker& w = *walkers_[i];
        const Vec3<real> re = w.elec[e];
        Vec3<real>* qr = quad_r_.data() + i * static_cast<std::size_t>(nq);
        for (int q = 0; q < nq; ++q)
          qr[q] = propose(w.rng, re, 0.5);
        for (int q = 0; q < nq; ++q) {
          {
            Scoped s(log, kDistTemp);
            w.ei.compute_temp(qr[q]);
          }
          Scoped s(log, kJasRatio);
          (void)j1_.ratio_log(w.ei, e);
        }
      }
      if (nq > 0) {
        Scoped s(log, kV);
        mqc::OrbitalEvalRequest<real> rq;
        rq.deriv = mqc::DerivLevel::V;
        rq.positions = quad_r_.data();
        rq.count = static_cast<int>(nw) * nq;
        rq.v = quad_slots_.data();
        rq.parallel = team_.parallel();
        rq.team = team_;
        sys_.spo.evaluate(rq, ores_);
      }
    }
    for (auto& wp : walkers_) {
      Scoped s(log, kJasFull);
      (void)j2_.evaluate_log(wp->ee, wp->jgrad.data(), wp->jlap.data());
      (void)j1_.evaluate_log(wp->ei, wp->jgrad.data(), wp->jlap.data());
    }
  }

  [[nodiscard]] std::vector<std::unique_ptr<Walker>>& walkers() noexcept { return walkers_; }

private:
  static Vec3<real> propose(mqc::Xoshiro256& rng, const Vec3<real>& r, double sigma)
  {
    // Draw order x, y, z: the same stream use as the driver's proposals.
    const auto dx = static_cast<real>(sigma * rng.gaussian());
    const auto dy = static_cast<real>(sigma * rng.gaussian());
    const auto dz = static_cast<real>(sigma * rng.gaussian());
    return Vec3<real>{r.x + dx, r.y + dy, r.z + dz};
  }

  /// VGH (lh = Hessian slots) or VGL (lh = Laplacian slots) at one position
  /// per walker: one crowd batch, or the single-position facade call.
  void evaluate(mqc::DerivLevel d, const Vec3<real>* r, real* const* lh)
  {
    const int nw = static_cast<int>(walkers_.size());
    if (!batch_) {
      sys_.spo.evaluate_one(d, r[0], v_[0], g_[0], lh[0], sys_.stride);
      return;
    }
    mqc::OrbitalEvalRequest<real> rq;
    rq.deriv = d;
    rq.positions = r;
    rq.count = nw;
    rq.v = v_.data();
    rq.g = g_.data();
    rq.lh = lh;
    rq.stride = sys_.stride;
    rq.parallel = team_.parallel();
    rq.team = team_;
    sys_.spo.evaluate(rq, ores_);
  }

  void move(Walker& w, int e, const Vec3<real>& r_new, SpanLog& log)
  {
    double log_jr;
    {
      Scoped s(log, kDistTemp);
      w.ee.compute_temp(w.elec, r_new, e);
      w.ei.compute_temp(r_new);
    }
    {
      Scoped s(log, kJasRatio);
      log_jr = j2_.ratio_log(w.ee, e) + j1_.ratio_log(w.ei, e);
    }
    mqc::DetUpdater& det = e < sys_.norb ? w.up : w.dn;
    const int col = e < sys_.norb ? e : e - sys_.norb;
    double ratio;
    {
      Scoped s(log, kDetRatio);
      for (int n = 0; n < sys_.norb; ++n)
        w.phi[static_cast<std::size_t>(n)] =
            static_cast<double>(w.out.v[static_cast<std::size_t>(n)]) + (n == col ? 1.0 : 0.0);
      ratio = det.ratio(w.phi.data(), col);
    }
    const double p = std::exp(2.0 * log_jr) * ratio * ratio;
    if (w.rng.uniform() < p) {
      ++w.accepted;
      {
        Scoped s(log, kDistAccept);
        w.ee.accept_move(e);
        w.ei.accept_move(e);
      }
      {
        Scoped s(log, kDetAccept);
        det.accept_move(w.phi.data(), col);
      }
      w.elec.set(e, r_new);
    }
  }

  const System& sys_;
  const mqc::MiniQMCConfig& cfg_;
  bool batch_;
  mqc::TeamHandle team_;
  mqc::TwoBodyJastrowSoA<real> j2_{sys_.j2};
  mqc::OneBodyJastrowSoA<real> j1_{sys_.j1};
  std::vector<std::unique_ptr<Walker>> walkers_;
  std::vector<Vec3<real>> rnew_, quad_r_;
  mqc::aligned_vector<real> quad_v_;
  std::vector<real*> quad_slots_, v_, g_, h_, l_;
  mqc::OrbitalResource<real> ores_;
};

struct Fingerprint
{
  std::vector<std::size_t> accepts;
  std::vector<double> log_det;
  bool operator==(const Fingerprint&) const = default;
};

Fingerprint fingerprint(Sweep& sw)
{
  Fingerprint f;
  for (auto& w : sw.walkers()) {
    f.accepts.push_back(w->accepted);
    f.log_det.push_back(w->up.log_det() + w->dn.log_det());
  }
  return f;
}

/// Write the first @p count spans: a text header naming the layers, then one
/// 24-byte record per span (u16 layer, 2 pad bytes, i32 parent index,
/// i64 start ns, i64 end ns).
void write_spans(const SpanLog& log, std::size_t count, const std::string& path)
{
  std::ofstream out(path, std::ios::binary);
  out << "perfbench-spans v1 count=" << count << " layers=";
  for (int l = 0; l < kNumLayers; ++l)
    out << (l ? "," : "") << kLayerNames[l];
  out << "\n";
  out.write(reinterpret_cast<const char*>(log.spans().data()),
            static_cast<std::streamsize>(count * sizeof(Span)));
}

} // namespace

RunResult run_traced(const Workload& w, double seconds, const std::string& out_dir)
{
  RunResult out;
  const mqc::MiniQMCConfig& cfg = w.cfg;
  const bool jobs = w.name == "jobs-open";
  const bool dmc = cfg.driver == mqc::DriverMode::DMC;
  const int threads = std::max(1, cfg.inner_threads);

  // ---- 1. one untraced round through the program's entry point -----------
  double cpu_per_wall = 0.0;
  double dmc_mean = 0, dmc_min = 0, dmc_max = 0, dmc_at_bound = 0, births = 0, deaths = 0;
  double ckpt_bytes = 0, ckpt_write_s = 0, ckpt_read_s = 0;
  double pack_factor = 0, late_ms = 0, latency_p50 = 0, latency_p95 = 0;
  Fingerprint program;
  if (jobs) {
    OpenLoopStats st;
    const RunResult r = run_open_loop(w, seconds, &st);
    out.attempted += r.attempted;
    out.failed += r.failed;
    out.correct = out.correct && r.correct;
    cpu_per_wall = st.cpu_per_wall;
    pack_factor = st.pack_factor;
    late_ms = st.late_max_ms;
    latency_p50 = st.latency_p50_ms;
    latency_p95 = st.latency_p95_ms;
  } else {
    mqc::MiniQMCConfig rc = cfg;
    if (dmc) {
      // 40 generations in one run: long enough for the population
      // controller's oscillation to show in the dmc.* rows.
      rc.dmc_generations = 40;
      rc.checkpoint_path = out_dir + "/" + w.name + "-traced.ckpt";
    }
    const double cpu0 = process_cpu_s();
    const auto t0 = Clock::now();
    const mqc::MiniQMCResult r = mqc::run_miniqmc(rc);
    cpu_per_wall = (process_cpu_s() - cpu0) / since(t0);
    program.accepts = r.walker_accepts;
    program.log_det = r.walker_log_det;
    if (dmc) {
      // Generations held only by the driver's bounds: its 4x-target ceiling
      // or its single-survivor extinction guard.
      const int cap = 4 * cfg.dmc_target_walkers;
      dmc_min = dmc_max = cfg.num_walkers;
      double sum = 0;
      for (int p : r.dmc_population) {
        sum += p;
        dmc_min = std::min<double>(dmc_min, p);
        dmc_max = std::max<double>(dmc_max, p);
        dmc_at_bound += p >= cap || p <= 1;
      }
      dmc_mean = r.dmc_population.empty() ? 0 : sum / static_cast<double>(r.dmc_population.size());
      births = static_cast<double>(r.dmc_births);
      deaths = static_cast<double>(r.dmc_deaths);
      // Checkpoint layer: read the round's own final snapshot, write it back.
      mqc::ckpt::Snapshot snap;
      ckpt_bytes = static_cast<double>(std::filesystem::file_size(rc.checkpoint_path));
      auto t = Clock::now();
      const auto lr =
          mqc::ckpt::read_snapshot(rc.checkpoint_path, snapshot_header_hash(rc.checkpoint_path), snap);
      ckpt_read_s = since(t);
      std::string err;
      t = Clock::now();
      const bool wrote = mqc::ckpt::write_snapshot(out_dir + "/" + w.name + "-copy.ckpt", snap, &err);
      ckpt_write_s = since(t);
      std::string detail;
      if (!lr.loaded() || !wrote || !snapshots_valid(rc.checkpoint_path, detail))
        out.fail_check("snapshot round trip: " + std::string(mqc::ckpt::load_error_name(lr.error)) +
                       " " + err + detail);
    }
  }

  // ---- 2. the workload's system, built from the public classes -----------
  auto t0 = Clock::now();
  System sys(cfg);
  const double table_s = since(t0);
  const double table_bytes = static_cast<double>(sys.spo.capabilities().coef_table_bytes);
  std::string detail;
  if (!check_facade(sys, cfg.seed, detail))
    out.fail_check(detail);
  sys.coefs.reset(); // only the check needed the untiled table

  // ---- 3. the call sequence, untraced then traced ------------------------
  // Whole repetitions of one round's steps from fresh walkers: the untraced
  // pass runs for half the run length, the traced pass repeats it as often.
  mqc::MiniQMCConfig sc = cfg;
  if (jobs) {
    sc.driver = mqc::DriverMode::Crowd; // the queue sweeps packed jobs as one crowd
    sc.num_walkers = w.max_pack * w.job_walkers;
    sc.steps = w.job_steps;
  } else if (dmc) {
    sc.driver = mqc::DriverMode::Crowd; // the drift-free VMC body of the DMC sweep
    sc.steps = cfg.dmc_gen_steps;
  }
  Sweep sweep(sys, sc);
  Fingerprint first;
  int reps = 0;
  double untraced_s = 0.0;
  {
    SpanLog off(false);
    while (untraced_s < 0.5 * seconds) {
      sweep.init();
      const auto t = Clock::now();
      for (int s = 0; s < sc.steps; ++s)
        sweep.step(off);
      untraced_s += since(t);
      if (reps++ == 0)
        first = fingerprint(sweep);
    }
  }
  SpanLog log(true);
  double traced_s = 0.0;
  std::size_t accepted = 0, attempted = 0, first_rep_spans = 0;
  for (int r = 0; r < reps; ++r) {
    sweep.init();
    const std::int64_t a = log.now_ns();
    for (int s = 0; s < sc.steps; ++s)
      sweep.step(log);
    traced_s += 1e-9 * static_cast<double>(log.now_ns() - a);
    if (r == 0)
      first_rep_spans = log.spans().size();
    const Fingerprint f = fingerprint(sweep);
    out.attempted += f.accepts.size();
    out.failed += f == first ? 0 : f.accepts.size();
    for (auto& wp : sweep.walkers()) {
      accepted += wp->accepted;
      attempted += wp->attempted;
    }
  }
  if (!jobs && !dmc && !(first == program)) {
    out.failed += first.accepts.size();
    std::fprintf(stderr, "traced sequence differs from run_miniqmc's trajectory\n");
  }

  // Determinant: incremental log|det| against an LU recompute at the final
  // positions of the last repetition.
  double logdet_err = 0.0;
  for (auto& wp : sweep.walkers()) {
    for (int spin = 0; spin < 2; ++spin) {
      mqc::DetUpdater& det = spin ? wp->dn : wp->up;
      det.flush();
      mqc::Matrix<double> a = orbital_matrix(sys, *wp, spin * sys.norb);
      double ld = 0.0, sign = 0.0;
      if (!mqc::invert_matrix(a, ld, sign))
        out.fail_check("orbital matrix is singular at the final positions");
      logdet_err = std::max(logdet_err, std::abs(det.log_det() - ld) / std::max(1.0, std::abs(ld)));
    }
  }
  if (logdet_err > 1e-6)
    out.fail_check("incremental log|det| drifted from the LU recompute");

  // ---- 4. attribution over the traced step loops (walker initialization
  // between repetitions is outside both walls).
  const Attribution at = attribute(log.spans(), kNumLayers, {kStep}, traced_s);
  if (!at.nested())
    out.fail_check("spans do not nest (negative self time or remainder)");
  // The file keeps one repetition (a full round of steps); all repetitions
  // are in the numbers.
  write_spans(log, first_rep_spans, out_dir + "/" + w.name + ".spans");

  // ---- 5. roofline ceilings on the workload's own thread budget ----------
  sweep.walkers().clear();
  const std::size_t host_llc = mqc::query_system_info().l3_bytes;
  const std::size_t llc = host_llc > 0 ? host_llc : (std::size_t{64} << 20);
  const std::size_t triad_n = 4 * llc / (3 * sizeof(float)) + 1; // 3 arrays >= 4x LLC
#ifdef _OPENMP
  omp_set_num_threads(threads);
#endif
  const double triad_bw = mqc::measure_triad_bandwidth(triad_n, 5);
  const double peak_gflops = mqc::measure_peak_gflops_sp(5);

  // ---- 6. per-layer metrics -----------------------------------------------
  // Positions per call: one per walker for VGH/VGL, nq per walker for V.
  const auto nw = static_cast<double>(sc.num_walkers);
  const double per_call[3] = {nw, nw, nw * sc.quadrature_points};
  const Layer spline[3] = {kVGH, kVGL, kV};
  const mqc::KernelId kid[3] = {mqc::KernelId::VGH, mqc::KernelId::VGL, mqc::KernelId::V};
  const char* tag[3] = {"spline.vgh", "spline.vgl", "spline.v"};
  for (int k = 0; k < 3; ++k) {
    const Layer l = spline[k];
    const double s = at.self_s[l];
    const double pos = static_cast<double>(at.calls[l]) * per_call[k];
    // Bytes are computed from the analytic kernel model, not measured.
    const auto model = mqc::kernel_cost_model(kid[k], true, sys.norb, sizeof(real));
    const double gbps = pos * model.mem_bytes / s / 1e9;
    out.add(std::string(tag[k]) + ".s", s, "s");
    out.add(std::string(tag[k]) + ".calls", static_cast<double>(at.calls[l]), "count");
    out.add(std::string(tag[k]) + ".evals_per_s", pos * sys.norb / s, "1/s");
    out.add(std::string(tag[k]) + ".gbps", gbps, "GB/s");
    out.add(std::string(tag[k]) + ".triad_frac", gbps * 1e9 / triad_bw, "ratio");
  }
  out.add("setup.table_s", table_s, "s");
  out.add("setup.table_bytes", table_bytes, "B");
  out.add("distance.temp.s", at.self_s[kDistTemp], "s");
  out.add("distance.temp.calls", static_cast<double>(at.calls[kDistTemp]), "count");
  out.add("distance.accept.s", at.self_s[kDistAccept], "s");
  out.add("jastrow.ratio.s", at.self_s[kJasRatio], "s");
  out.add("jastrow.ratio.calls", static_cast<double>(at.calls[kJasRatio]), "count");
  out.add("jastrow.full.s", at.self_s[kJasFull], "s");
  // Determinant flops are computed: a ratio is an N-dot product (2N), an
  // accepted move a rank-1 inverse update (4N^2) or its delayed equivalent.
  const double n = sys.norb;
  const double det_flops = 2.0 * n * static_cast<double>(at.calls[kDetRatio]) +
                           4.0 * n * n * static_cast<double>(at.calls[kDetAccept]);
  out.add("det.ratio.s", at.self_s[kDetRatio], "s");
  out.add("det.accept.s", at.self_s[kDetAccept], "s");
  out.add("det.accept.calls", static_cast<double>(at.calls[kDetAccept]), "count");
  out.add("det.gflops", det_flops / (at.self_s[kDetRatio] + at.self_s[kDetAccept]) / 1e9,
          "GFLOP/s");
  out.add("det.logdet_rel_err", logdet_err, "ratio");
  out.add("sweep.acceptance",
          attempted ? static_cast<double>(accepted) / static_cast<double>(attempted) : 0.0,
          "ratio");
  out.add("sweep.unattributed_s", at.unattributed_s, "s");
  out.add("trace.wall_s", traced_s, "s");
  out.add("trace.untraced_wall_s", untraced_s, "s");
  out.add("dmc.population_mean", dmc_mean, "count");
  out.add("dmc.population_min", dmc_min, "count");
  out.add("dmc.population_max", dmc_max, "count");
  out.add("dmc.generations_at_bound", dmc_at_bound, "count");
  out.add("dmc.births", births, "count");
  out.add("dmc.deaths", deaths, "count");
  out.add("checkpoint.bytes", ckpt_bytes, "B");
  out.add("checkpoint.write_s", ckpt_write_s, "s");
  out.add("checkpoint.read_s", ckpt_read_s, "s");
  out.add("queue.pack_factor", pack_factor, "ratio");
  out.add("queue.generator_late_ms", late_ms, "ms");
  out.add("queue.latency_p50_ms", latency_p50, "ms");
  out.add("queue.latency_p95_ms", latency_p95, "ms");
  out.add("threads.cpu_per_wall", cpu_per_wall, "ratio");
  out.add("roofline.triad_gbps", triad_bw / 1e9, "GB/s");
  out.add("roofline.triad_bytes", 3.0 * static_cast<double>(triad_n) * sizeof(float), "B");
  out.add("roofline.llc_bytes", static_cast<double>(llc), "B");
  out.add("roofline.peak_gflops", peak_gflops, "GFLOP/s");
  return out;
}

} // namespace perfbench

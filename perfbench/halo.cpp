/// \file halo.cpp
/// \brief The `halo` workload: 1-D heat diffusion at np=2, one op per step.

#include <cmath>
#include <vector>

#include "mp/mp.hpp"
#include "obs/obs.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr int kRanks = 2;
constexpr int kCells = 512;          ///< Interior cells per rank.
constexpr int kResidualEvery = 8;    ///< Steps between residual allreduces.
constexpr int kWarmupSteps = 512;    ///< Set-up steps before timing.
constexpr int kCountSteps = 64;      ///< Steps of one counting pass.
constexpr int kTagToLeft = 1;        ///< A rank's first cell, sent left.
constexpr int kTagToRight = 2;       ///< A rank's last cell, sent right.
constexpr double kAlpha = 0.25;      ///< Explicit scheme, stable below 0.5.
/// Heat is conserved exactly in real arithmetic; rounding drift over a
/// run stays many orders below this relative bound.
constexpr double kHeatTolerance = 1e-9;
constexpr std::size_t kMaxTracedOps = 50000;
/// The untraced and traced windows run back to back in one process and
/// the in-run step latency is steady, but the spans and handoff stamps of
/// a traced step cost about 0.5 us of a 5 us step.
constexpr double kLayerTolerance = 0.2;

double initial_cell(std::uint64_t seed, int rank, int i) {
  const std::uint64_t h = mix64(mix64(seed) ^ (static_cast<std::uint64_t>(rank) << 32) ^
                                static_cast<std::uint64_t>(i));
  return static_cast<double>(h >> 11) * (100.0 / 9007199254740992.0);  // [0, 100)
}

/// What one job does after its set-up.
struct JobPlan {
  std::uint64_t seed = 1;
  double seconds = 0;      ///< Timed window; 0 = set-up only.
  int fixed_steps = 0;     ///< >0: run exactly this many steps, untimed.
  Tracer* tracer = nullptr;  ///< Rank 0's tracer (traced window only).
};

/// What rank 0 measured (and rank 1's send stamps, for handoff latency).
struct JobLog {
  double setup_s = 0;
  double window_s = 0;
  std::uint64_t cpu_ns = 0;
  std::uint64_t steps = 0;
  std::uint64_t failed = 0;
  bool unmeasured_failed = false;  ///< Heat lost in set-up or counting steps.
  double heat0 = 0;
  Samples op_us;
  /// Traced window: rank 1's send-call times and rank 0's recv-return
  /// times of the two messages rank 1 sends rank 0 per step.
  std::vector<std::uint64_t> sent_ns, received_ns;
};

void run_job(const JobPlan& plan, JobLog& log) {
  const std::uint64_t t_call = now_ns();
  const bool traced = plan.tracer != nullptr;
  if (traced) {
    log.sent_ns.assign(2 * kMaxTracedOps, 0);
    log.received_ns.assign(2 * kMaxTracedOps, 0);
  }
  pml::mp::run(kRanks, [&](pml::mp::Communicator& comm) {
    const int rank = comm.rank();
    const int left = (rank + kRanks - 1) % kRanks;
    const int right = (rank + 1) % kRanks;
    Tracer off(false, 0);
    Tracer& tr = rank == 0 && plan.tracer != nullptr ? *plan.tracer : off;
    const bool timing = rank == 0;
    const bool stamping = traced && (rank == 0 || rank == 1);
    std::vector<double> u(kCells + 2), next(kCells + 2);
    double local = 0;
    for (int i = 1; i <= kCells; ++i) {
      u[i] = initial_cell(plan.seed, rank, i);
      local += u[i];
    }
    const auto sum = pml::mp::op_sum<double>();
    const double heat0 = comm.allreduce(local, sum);

    std::uint64_t step = 0;
    std::uint64_t w0 = 0;
    // In a timed phase rank 0 calls time once now_ns() - w0 reaches limit;
    // set-up and counting steps (limit 0) always run.
    std::uint64_t limit = 0;
    // One step; returns false once rank 0 has called time at a residual
    // allreduce. `measured` steps are timed and traced on rank 0.
    auto one_step = [&](bool measured) {
      // Traced steps are timed by their spans alone.
      const bool rec = measured && timing && !traced;
      const std::size_t slot = static_cast<std::size_t>(step) * 2;
      const bool stamp = measured && stamping && slot + 1 < log.sent_ns.size();
      const std::uint64_t t0 = rec ? now_ns() : 0;
      bool more = true;
      {
        Tracer::Span op(tr, "bench");
        {
          Tracer::Span s(tr, "mp.send");
          if (stamp && rank == 1) log.sent_ns[slot] = now_ns();
          comm.send(u[1], left, kTagToLeft);
          if (stamp && rank == 1) log.sent_ns[slot + 1] = now_ns();
          comm.send(u[kCells], right, kTagToRight);
        }
        {
          Tracer::Span s(tr, "mp.recv");
          u[kCells + 1] = comm.recv<double>(right, kTagToLeft);
          if (stamp && rank == 0) log.received_ns[slot] = now_ns();
          u[0] = comm.recv<double>(left, kTagToRight);
          if (stamp && rank == 0) log.received_ns[slot + 1] = now_ns();
        }
        double change = 0;
        double heat = 0;
        {
          Tracer::Span s(tr, "halo.compute");
          for (int i = 1; i <= kCells; ++i) {
            next[i] = u[i] + kAlpha * (u[i - 1] - 2.0 * u[i] + u[i + 1]);
            change += (next[i] - u[i]) * (next[i] - u[i]);
            heat += next[i];
          }
          u.swap(next);
        }
        ++step;
        if (step % kResidualEvery == 0) {
          Tracer::Span s(tr, "mp.coll.allreduce_small");
          const bool stop = rank == 0 && limit != 0 && now_ns() - w0 >= limit;
          const std::vector<double> r =
              comm.allreduce(std::vector<double>{heat, change, stop ? 1.0 : 0.0}, sum);
          if (rank == 0 && std::fabs(r[0] - heat0) > kHeatTolerance * heat0) {
            if (measured) {
              log.failed += kResidualEvery;
            } else {
              log.unmeasured_failed = true;
            }
          }
          more = r[2] == 0.0;
        }
      }
      if (rec) log.op_us.add(static_cast<double>(now_ns() - t0) / 1e3);
      return more;
    };

    for (int i = 0; i < kWarmupSteps; ++i) one_step(false);
    comm.barrier();
    if (rank == 0) {
      log.setup_s = static_cast<double>(now_ns() - t_call) / 1e9;
      log.heat0 = heat0;
    }
    if (plan.seconds == 0 && plan.fixed_steps == 0) return;
    step = 0;
    if (plan.fixed_steps > 0) {
      for (int i = 0; i < plan.fixed_steps; ++i) one_step(false);
      return;
    }
    limit = static_cast<std::uint64_t>(kWarmupSeconds * 1e9);
    w0 = now_ns();
    while (one_step(false)) {
    }
    step = 0;
    limit = static_cast<std::uint64_t>(plan.seconds * 1e9);
    const std::uint64_t cpu0 = process_cpu_ns();
    w0 = now_ns();
    while (one_step(true)) {
    }
    if (rank == 0) {
      log.window_s = static_cast<double>(now_ns() - w0) / 1e9;
      log.cpu_ns = process_cpu_ns() - cpu0;
      log.steps = step;
    }
  });
}

}  // namespace

Outcome run_halo(const Options& opt) {
  Outcome out;
  auto tally = [&](const JobLog& log) {
    out.attempted += log.steps;
    out.failed += log.failed;
    if (log.unmeasured_failed) {
      out.fail_check("heat not conserved outside a timed window");
    }
  };
  Samples setup;
  for (int i = 0; i + 1 < kSetupReps; ++i) {
    JobLog log;
    run_job({opt.seed, 0, 0, nullptr}, log);
    setup.add(log.setup_s);
    tally(log);
  }
  if (!opt.trace) {
    JobLog log;
    run_job({opt.seed, opt.seconds, 0, nullptr}, log);
    setup.add(log.setup_s);
    tally(log);
    report_setup(out, setup);
    out.metric("cpu_us_per_op", static_cast<double>(log.cpu_ns) / 1e3 / log.steps, "us");
    report_latency(out, "op_us", log.op_us);
    out.metric("ops_per_s", static_cast<double>(log.steps) / log.window_s, "1/s");
    out.metric("peak_rss_mb", peak_rss_mb(), "MiB");
  } else {
    JobLog untraced;
    run_job({opt.seed, opt.seconds / 2, 0, nullptr}, untraced);
    tally(untraced);
    Tracer tracer(true, kMaxTracedOps);
    JobLog traced;
    run_job({opt.seed, opt.seconds / 2, 0, &tracer}, traced);
    tally(traced);
    setup.add(untraced.setup_s);
    report_setup(out, setup);
    layer_table(tracer, LayerBasis::kMedianOp, untraced.op_us.median(), kLayerTolerance,
                out);
    // Each send and recv span covers the step's two calls.
    report_latency(out, "mp.send_us", tracer.layer_samples("mp.send", 2));
    report_latency(out, "mp.recv_us", tracer.layer_samples("mp.recv", 2));
    report_latency(out, "mp.coll.allreduce_small_us",
                   tracer.layer_samples("mp.coll.allreduce_small"));
    report_latency(out, "halo.compute_us", tracer.layer_samples("halo.compute"));
    Samples handoff;
    for (std::size_t i = 0; i < traced.sent_ns.size(); ++i) {
      if (traced.sent_ns[i] != 0 && traced.received_ns[i] != 0) {
        handoff.add((static_cast<double>(traced.received_ns[i]) -
                     static_cast<double>(traced.sent_ns[i])) / 1e3);
      }
    }
    report_latency(out, "mp.handoff_us", handoff);
    run_probes(out);
  }
  // A job's traffic includes its set-up; the difference of a 2n-step and
  // an n-step job is exactly n steps.
  count_and_self_test(out, opt, kCountSteps, [&](std::uint64_t seed) {
    Counts c[2];
    JobLog log;
    for (int k = 0; k < 2; ++k) {
      pml::obs::Scope scope;
      run_job({seed, 0, kCountSteps * (k + 1), nullptr}, log);
      add_counts(c[k], scope.finish());
      tally(log);
    }
    Counts steps = c[1].minus(c[0]);
    steps.input_digest = mix64(static_cast<std::uint64_t>(log.heat0 * 1e6));
    return steps;
  });
  return out;
}

}  // namespace perfbench

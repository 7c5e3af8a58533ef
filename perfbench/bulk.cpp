/// \file bulk.cpp
/// \brief The `bulk` workload: large-vector allreduce and broadcast at np=3.

#include <array>
#include <cstdint>
#include <vector>

#include "mp/mp.hpp"
#include "obs/obs.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr int kRanks = 3;
constexpr int kRoot = 0;
/// Body sizes of the fixed schedule. Each is at or above the 256 KiB
/// segment threshold, so allreduce takes the ring and broadcast the
/// segmented tree. All fit in the 8 MiB L2 of the reference host, so
/// bytes_per_s is computed bytes, not DRAM bandwidth.
constexpr std::array<std::size_t, 5> kBodyBytes = {256 << 10, 512 << 10, 1 << 20, 2 << 20,
                                                   4 << 20};
/// Ops alternate allreduce and broadcast at each size: 10 ops per cycle.
constexpr std::size_t kCycle = 2 * kBodyBytes.size();
constexpr std::size_t kWarmupCycles = 1;
constexpr std::size_t kWarmupOps = kWarmupCycles * kCycle;
constexpr std::size_t kMaxTracedOps = 20000;
constexpr double kLayerTolerance = 0.15;

using Elem = std::int64_t;

/// Seeded inputs with a closed-form sum: rank r's element j is
/// base_r + (j * stride mod 2^20), so the allreduce result is
/// sum(base) + p * (j * stride mod 2^20).
struct Inputs {
  std::array<Elem, kRanks> base{};
  Elem stride = 0;
  explicit Inputs(std::uint64_t seed) {
    for (int r = 0; r < kRanks; ++r) base[r] = static_cast<Elem>(mix64(seed + r) >> 40);
    stride = static_cast<Elem>(mix64(~seed) >> 44) | 1;
  }
  Elem ramp(std::size_t j) const {
    return (static_cast<Elem>(j) * stride) & ((1 << 20) - 1);
  }
  Elem value(int rank, std::size_t j) const { return base[rank] + ramp(j); }
  Elem sum(std::size_t j) const {
    Elem s = 0;
    for (Elem b : base) s += b;
    return s + kRanks * ramp(j);
  }
  std::uint64_t digest() const {
    return mix64(static_cast<std::uint64_t>(base[0] ^ stride));
  }
};

struct JobPlan {
  std::uint64_t seed = 1;
  double seconds = 0;       ///< Timed window; 0 = set-up only.
  std::size_t fixed_ops = 0;  ///< >0: run exactly this many ops, untimed.
  Tracer* tracer = nullptr;
};

struct JobLog {
  double setup_s = 0;
  double window_s = 0;
  std::uint64_t cpu_ns = 0;
  std::uint64_t ops = 0;
  double body_bytes = 0;
  Samples op_us, fill_us;
  /// Per rank, per op (warm-up first): 1 when that rank's result failed
  /// its check.
  std::array<std::vector<char>, kRanks> bad;
};

void run_job(const JobPlan& plan, JobLog& log) {
  const std::uint64_t t_call = now_ns();
  const Inputs in(plan.seed);
  pml::mp::run(kRanks, [&](pml::mp::Communicator& comm) {
    const int rank = comm.rank();
    Tracer off(false, 0);
    Tracer& tr = rank == 0 && plan.tracer != nullptr ? *plan.tracer : off;
    const auto sum = pml::mp::op_sum<Elem>();
    const auto flag_sum = pml::mp::op_sum<int>();
    std::vector<char>& bad = log.bad[rank];
    // In a timed phase rank 0 calls time once now_ns() - w0 reaches limit;
    // set-up and counting ops (limit 0) always run.
    std::uint64_t limit = 0;
    std::uint64_t w0 = 0;

    // One op; returns false when rank 0 has called time. The leading small
    // allreduce lines the ranks up and carries the stop flag; it is not
    // part of the op's time.
    auto one_op = [&](std::size_t i, bool measured) {
      // Traced ops are timed by their spans alone.
      const bool rec = measured && rank == 0 && plan.tracer == nullptr;
      const std::size_t n = kBodyBytes[(i % kCycle) / 2] / sizeof(Elem);
      const bool is_allreduce = i % 2 == 0;
      const std::uint64_t f0 = rec ? now_ns() : 0;
      std::vector<Elem> body;
      if (is_allreduce || rank == kRoot) {
        body.resize(n);
        for (std::size_t j = 0; j < n; ++j) body[j] = in.value(rank, j);
      }
      if (rec) log.fill_us.add(static_cast<double>(now_ns() - f0) / 1e3);
      const bool stop = rank == 0 && limit != 0 && now_ns() - w0 >= limit;
      if (comm.allreduce(stop ? 1 : 0, flag_sum) != 0) return false;

      const std::uint64_t t0 = rec ? now_ns() : 0;
      std::vector<Elem> result;
      {
        Tracer::Span op(tr, "bench");
        if (is_allreduce) {
          Tracer::Span s(tr, "mp.coll.allreduce");
          result = comm.allreduce(std::move(body), sum);
        } else {
          Tracer::Span s(tr, "mp.coll.bcast");
          result = comm.broadcast(std::move(body), kRoot);
        }
        Tracer::Span s(tr, "mp.coll.barrier");
        comm.barrier();
      }
      if (rec) {
        log.op_us.add(static_cast<double>(now_ns() - t0) / 1e3);
        log.body_bytes += static_cast<double>(n * sizeof(Elem));
      }
      bool ok = result.size() == n;
      for (std::size_t j = 0; ok && j < n; ++j) {
        ok = result[j] == (is_allreduce ? in.sum(j) : in.value(kRoot, j));
      }
      bad.push_back(ok ? 0 : 1);
      return true;
    };

    for (std::size_t i = 0; i < kWarmupOps; ++i) one_op(i, false);
    comm.barrier();
    if (rank == 0) log.setup_s = static_cast<double>(now_ns() - t_call) / 1e9;
    if (plan.seconds == 0 && plan.fixed_ops == 0) return;
    std::size_t i = 0;
    if (plan.fixed_ops > 0) {
      for (; i < plan.fixed_ops; ++i) one_op(i, false);
      return;
    }
    limit = static_cast<std::uint64_t>(kWarmupSeconds * 1e9);
    w0 = now_ns();
    while (one_op(i, false)) ++i;
    i = 0;
    limit = static_cast<std::uint64_t>(plan.seconds * 1e9);
    const std::uint64_t cpu0 = process_cpu_ns();
    w0 = now_ns();
    while (one_op(i, true)) ++i;
    if (rank == 0) {
      log.window_s = static_cast<double>(now_ns() - w0) / 1e9;
      log.cpu_ns = process_cpu_ns() - cpu0;
      log.ops = i;
    }
  });
}

/// Ops from index \p from on whose result failed its check on any rank.
std::uint64_t failed_ops(const JobLog& log, std::size_t from) {
  std::uint64_t failed = 0;
  for (std::size_t i = from; i < log.bad[0].size(); ++i) {
    bool any = false;
    for (const auto& b : log.bad) any = any || i >= b.size() || b[i] != 0;
    if (any) ++failed;
  }
  return failed;
}

}  // namespace

Outcome run_bulk(const Options& opt) {
  Outcome out;
  // Every op after set-up is checked, warm-up and timed alike.
  auto tally = [&](const JobLog& log) {
    out.attempted += log.bad[0].size() - kWarmupOps;
    out.failed += failed_ops(log, kWarmupOps);
    if (failed_ops(log, 0) != failed_ops(log, kWarmupOps)) {
      out.fail_check("bulk result wrong in a set-up op");
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
    out.metric("cpu_us_per_op", static_cast<double>(log.cpu_ns) / 1e3 / log.ops, "us");
    report_latency(out, "op_us", log.op_us);
    out.metric("ops_per_s", static_cast<double>(log.ops) / log.window_s, "1/s");
    out.metric("bytes_per_s", log.body_bytes / (log.op_us.sum() / 1e6), "B/s");
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
    const double untraced_mean_us = untraced.op_us.sum() / untraced.op_us.size();
    layer_table(tracer, LayerBasis::kMeanOp, untraced_mean_us, kLayerTolerance, out);
    report_latency(out, "mp.coll.allreduce_us",
                   tracer.layer_samples("mp.coll.allreduce"));
    report_latency(out, "mp.coll.bcast_us", tracer.layer_samples("mp.coll.bcast"));
    out.metric("bulk.fill_us", untraced.fill_us.median(), "us");
    run_probes(out);
  }
  // As in halo, the difference of a two-cycle and a one-cycle job is
  // exactly one cycle of ops.
  count_and_self_test(out, opt, kCycle, [&](std::uint64_t seed) {
    Counts c[2];
    for (std::size_t k = 0; k < 2; ++k) {
      pml::obs::Scope scope;
      JobLog log;
      run_job({seed, 0, kCycle * (k + 1), nullptr}, log);
      add_counts(c[k], scope.finish());
      if (failed_ops(log, 0) != 0) out.fail_check("bulk result wrong in a counting pass");
    }
    Counts cycle = c[1].minus(c[0]);
    cycle.input_digest = Inputs(seed).digest();
    return cycle;
  });
  return out;
}

}  // namespace perfbench

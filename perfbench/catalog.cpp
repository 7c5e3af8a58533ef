/// \file catalog.cpp
/// \brief The pml::run workloads: `catalog` and `explain`.

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/runner.hpp"
#include "obs/critical_path.hpp"
#include "obs/metrics_json.hpp"
#include "patternlets/patternlets.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

/// The registry's two deliberate timing demos: a 200 ms receive timeout
/// and a ~80 ms critical-vs-atomic timing loop. Either would swamp every
/// other patternlet, so both are left out of the sets below.
constexpr const char* kTimingDemos[] = {"mpi/sendrecvDeadlock", "omp/critical2"};

constexpr int kTasks = 2;
constexpr const char* kCoreLayer = "core (pml::run)";
/// Traced runs keep at most this many ops in memory.
constexpr std::size_t kMaxTracedOps = 20000;
/// Layer sum tolerance: per-run wall time of a pml::run follows host steal,
/// and the untraced and traced windows are a few seconds apart.
constexpr double kLayerTolerance = 0.25;

/// A freshly built registry and the set of patternlets a workload runs.
/// The set is derived from the registry, so a new patternlet joins on its
/// own; a timing demo that is no longer registered fails loudly.
struct PatternletSet {
  pml::Registry registry;
  std::vector<const pml::Patternlet*> items;
};

std::unique_ptr<PatternletSet> derive_set(bool mpi_only) {
  auto set = std::make_unique<PatternletSet>();
  pml::patternlets::register_all(set->registry);
  for (const char* slug : kTimingDemos) {
    if (set->registry.find(slug) == nullptr) {
      throw std::runtime_error(std::string("excluded timing demo '") + slug +
                               "' is no longer registered; update kTimingDemos");
    }
  }
  for (const auto& p : set->registry.all()) {
    const bool demo = std::any_of(std::begin(kTimingDemos), std::end(kTimingDemos),
                                  [&](const char* s) { return p.slug == s; });
    const bool mpi = p.tech == pml::Tech::kMPI || p.tech == pml::Tech::kHeterogeneous;
    if (!demo && (mpi || !mpi_only)) set->items.push_back(&p);
  }
  if (set->items.empty()) throw std::runtime_error("empty patternlet set");
  return set;
}

/// The seeded order of one pass over the set (Fisher-Yates on splitmix64).
std::vector<const pml::Patternlet*> pass_order(const PatternletSet& set,
                                               std::uint64_t seed, std::uint64_t pass) {
  std::vector<const pml::Patternlet*> order = set.items;
  std::uint64_t state = mix64(seed) ^ mix64(pass + 0x51ed);
  for (std::size_t i = order.size(); i > 1; --i) {
    state = mix64(state);
    std::swap(order[i - 1], order[state % i]);
  }
  return order;
}

std::uint64_t order_digest(const std::vector<const pml::Patternlet*>& order) {
  std::uint64_t h = 0;
  for (const auto* p : order) {
    for (char c : p->slug) h = mix64(h ^ static_cast<unsigned char>(c));
  }
  return h;
}

/// Bookkeeping spans around each call into the library. Returns false
/// when the op's output fails its check; a throw propagates to the caller.
bool run_op(const pml::Patternlet& p, bool explain, Tracer& tracer) {
  Tracer::Span op(tracer, "bench");
  pml::RunSpec spec;
  spec.tasks = kTasks;
  spec.profile = explain;
  pml::RunResult r;
  {
    // Self time of this span is pml::run's own cost: wall time minus the
    // body's RunResult::seconds.
    Tracer::Span core(tracer, kCoreLayer);
    r = pml::run(p, spec);
    tracer.child("patternlet body", static_cast<std::uint64_t>(r.seconds * 1e9));
  }
  bool ok = !r.output.empty();
  if (explain) {
    if (!r.metrics.has_value()) return false;
    pml::obs::CriticalPath cp;
    {
      Tracer::Span s(tracer, "obs.critical_path");
      cp = pml::obs::critical_path(*r.metrics);
    }
    std::string report;
    {
      Tracer::Span s(tracer, "obs.report");
      report = cp.report();
    }
    std::string json;
    {
      Tracer::Span s(tracer, "obs.metrics_json");
      json = pml::obs::metrics_json(*r.metrics, p.slug);
    }
    // The critical path must tile the profiled wall time exactly: segments
    // chronological and contiguous from origin to finish.
    const auto& prof = *r.metrics;
    bool tiles = !cp.segments.empty() && cp.attributed_ns == cp.wall_ns &&
                 cp.wall_ns == prof.finish_ns - prof.origin_ns &&
                 cp.segments.front().begin_ns == prof.origin_ns &&
                 cp.segments.back().end_ns == prof.finish_ns;
    for (std::size_t i = 1; tiles && i < cp.segments.size(); ++i) {
      tiles = cp.segments[i].begin_ns == cp.segments[i - 1].end_ns;
    }
    ok = ok && tiles && !report.empty() && json.size() > 2;
  }
  return ok;
}

/// Wall and process CPU time of one timed window.
struct Window {
  double wall_s = 0;
  std::uint64_t cpu_ns = 0;
};

/// Runs passes over the set until \p seconds elapse (checked after every
/// op), timing each op into \p op_us and checking its output.
Window run_window(const PatternletSet& set, const Options& opt, bool explain,
                  double seconds, Tracer& tracer, Samples& op_us, Outcome& out) {
  const std::uint64_t cpu0 = process_cpu_ns();
  const std::uint64_t w0 = now_ns();
  const auto limit = static_cast<std::uint64_t>(seconds * 1e9);
  for (std::uint64_t pass = 0; now_ns() - w0 < limit; ++pass) {
    for (const auto* p : pass_order(set, opt.seed, pass)) {
      const std::uint64_t t0 = now_ns();
      bool ok = false;
      try {
        ok = run_op(*p, explain, tracer);
      } catch (const std::exception& e) {
        out.note("op failed: " + p->slug + ": " + e.what());
      }
      op_us.add(static_cast<double>(now_ns() - t0) / 1e3);
      ++out.attempted;
      if (!ok) ++out.failed;
      if (now_ns() - w0 >= limit) break;
    }
  }
  return {static_cast<double>(now_ns() - w0) / 1e9, process_cpu_ns() - cpu0};
}

Outcome run_pml(const Options& opt, bool explain) {
  Outcome out;
  // Set-up: build the registry, derive the set, and one pass over it so
  // lazy process-wide state exists before timing. Repeated; median kept.
  Samples setup;
  std::unique_ptr<PatternletSet> set;
  Tracer off(false, 0);
  for (int i = 0; i < kSetupReps; ++i) {
    const std::uint64_t t0 = now_ns();
    set = derive_set(explain);
    for (const auto* p : set->items) {
      if (!run_op(*p, explain, off)) out.fail_check("set-up op failed: " + p->slug);
    }
    setup.add(static_cast<double>(now_ns() - t0) / 1e9);
  }
  report_setup(out, setup);
  out.note("set: " + std::to_string(set->items.size()) + " patternlets at " +
           std::to_string(kTasks) + " tasks");

  Samples warm, op_us;
  run_window(*set, opt, explain, kWarmupSeconds, off, warm, out);
  if (!opt.trace) {
    const Window w = run_window(*set, opt, explain, opt.seconds, off, op_us, out);
    out.metric("cpu_us_per_op", static_cast<double>(w.cpu_ns) / 1e3 / op_us.size(), "us");
    report_latency(out, "op_us", op_us);
    out.metric("ops_per_s", static_cast<double>(op_us.size()) / w.wall_s, "1/s");
    out.metric("peak_rss_mb", peak_rss_mb(), "MiB");
  } else {
    run_window(*set, opt, explain, opt.seconds / 2, off, op_us, out);
    Tracer on(true, kMaxTracedOps);
    Samples traced_op_us;
    run_window(*set, opt, explain, opt.seconds / 2, on, traced_op_us, out);
    layer_table(on, LayerBasis::kMedianOp, op_us.median(), kLayerTolerance, out);
    report_latency(out, "core.overhead_us", on.layer_samples(kCoreLayer));
    if (explain) {
      report_latency(out, "obs.critical_path_us", on.layer_samples("obs.critical_path"));
      report_latency(out, "obs.metrics_json_us", on.layer_samples("obs.metrics_json"));
    }
    run_probes(out);
  }

  const auto ops = static_cast<double>(set->items.size());
  count_and_self_test(out, opt, ops, [&](std::uint64_t seed) {
    Counts c;
    const auto order = pass_order(*set, seed, 0);
    c.input_digest = order_digest(order);
    for (const auto* p : order) {
      pml::RunSpec spec;
      spec.tasks = kTasks;
      spec.profile = true;
      add_counts(c, *pml::run(*p, spec).metrics);
    }
    return c;
  });
  return out;
}

}  // namespace

Outcome run_catalog(const Options& opt) { return run_pml(opt, false); }
Outcome run_explain(const Options& opt) { return run_pml(opt, true); }

}  // namespace perfbench

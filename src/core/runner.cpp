#include "core/runner.hpp"

#include <chrono>
#include <iostream>

#include "analyze/analyze.hpp"
#include "core/error.hpp"
#include "obs/obs.hpp"
#include "sched/sched.hpp"

namespace pml {

std::vector<std::string> RunResult::texts() const {
  std::vector<std::string> out;
  out.reserve(output.size());
  for (const auto& l : output) out.push_back(l.text);
  return out;
}

std::string RunResult::output_str() const {
  std::string out;
  for (const auto& l : output) {
    out += l.text;
    out += '\n';
  }
  return out;
}

namespace {

/// Store options a RunSpec's checkpoint flags describe.
ckpt::Options ckpt_options_for(const RunSpec& spec) {
  ckpt::Options copts;
  copts.interval = spec.ckpt_interval;
  copts.max_restarts = spec.ckpt_max_restarts;
  copts.save_path = spec.ckpt_file;
  copts.restart_from = spec.restart_from;
  return copts;
}

/// Binds the store's output-rollback seam to the run's capture, so a
/// restarting job can take per-rank marks at each cut and truncate the
/// replayed prefix's lines instead of printing them twice.
void bind_output_hooks(ckpt::Store& store, OutputCapture& out) {
  store.output_mark = [&out](int rank) { return out.count_for(rank); };
  store.output_total = [&out] { return static_cast<std::uint64_t>(out.size()); };
  store.output_rollback = [&out](const std::map<int, std::uint64_t>& marks) {
    out.truncate_to(marks);
  };
  store.output_rollback_total = [&out](std::uint64_t n) {
    out.truncate(static_cast<std::size_t>(n));
  };
}

/// What one execution's windows collected.
struct Harvest {
  double seconds = 0.0;  ///< Window set-up plus the body.
  std::optional<obs::Profile> metrics;
  std::optional<fault::Stats> fault_stats;
  std::optional<ckpt::Stats> ckpt_stats;
  std::optional<std::string> fault_abort;
};

/// Runs the body once inside the fault, checkpoint and profile windows
/// \p spec asks for and harvests all three into \p h. A caller's chaos
/// window stays outside, so an unseeded fault spec inherits the chaos seed
/// (fault::effective_seed falls back to sched::seed()). Under injection a
/// RuntimeFault the body lets escape (deadlock diagnosis, collective
/// timeout, node crash) IS the demonstration: it lands in h.fault_abort
/// instead of failing the run. Any other exception propagates after the
/// harvest, so a scheduler terminal keeps the spans that show where every
/// lane stopped.
void execute(const Patternlet& p, RunContext& ctx, const RunSpec& spec, Harvest& h) {
  const auto t0 = std::chrono::steady_clock::now();
  // A bad spec throws UsageError here, before the body.
  std::optional<fault::FaultScope> faults;
  if (!spec.fault_spec.empty()) faults.emplace(fault::FaultPlan::parse(spec.fault_spec));
  // Installs the process-wide store mp::run picks up, wired to this run's
  // output capture for replay-prefix rollback.
  std::optional<ckpt::Scope> ckpts;
  if (spec.ckpt || !spec.restart_from.empty()) {
    ckpts.emplace(ckpt_options_for(spec));
    bind_output_hooks(ckpts->store(), ctx.out);
  }
  // finish() runs after the body returned, i.e. after every team thread /
  // rank joined — the merge contract obs::Scope documents.
  std::optional<obs::Scope> profiling;
  if (spec.profile) profiling.emplace(spec.obs_ring_spans);
  const auto harvest = [&] {
    h.seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    if (faults.has_value()) h.fault_stats = fault::stats();
    if (ckpts.has_value()) h.ckpt_stats = ckpts->store().stats();
    if (profiling.has_value()) h.metrics = profiling->finish();
  };
  try {
    p.body(ctx);
  } catch (const RuntimeFault& e) {
    if (!faults.has_value()) {
      harvest();
      throw;
    }
    h.fault_abort = e.what();
  } catch (...) {
    harvest();
    throw;
  }
  harvest();
}

/// The RunResult fields both paths fill alike, from one execution.
RunResult collect(const Patternlet& p, int tasks, ToggleSet toggles,
                  std::vector<OutputLine> output, std::vector<TraceEvent> trace, Harvest& h) {
  RunResult result;
  result.slug = p.slug;
  result.tasks = tasks;
  result.toggles = std::move(toggles);
  result.output = std::move(output);
  result.trace = std::move(trace);
  result.seconds = h.seconds;
  result.metrics = std::move(h.metrics);
  if (result.metrics.has_value()) result.critical_path = obs::critical_path(*result.metrics);
  result.fault_stats = h.fault_stats;
  result.fault_abort = std::move(h.fault_abort);
  result.ckpt_stats = h.ckpt_stats;
  return result;
}

/// Verification path of run(): hands the configured body to pml::verify,
/// which executes it repeatedly under controlled scheduling. Each execution
/// gets a fresh capture/trace/context; the surviving output is the
/// violating (or last) execution's — the one the counterexample describes.
RunResult run_verified(const Patternlet& p, const RunSpec& spec, int tasks,
                       ToggleSet toggles) {
  if (spec.chaos_seed != 0) {
    throw UsageError("--verify replaces chaos perturbation; drop --chaos-seed");
  }
  verify::Options vopts;
  if (spec.verify_mode == "chess") {
    vopts.mode = verify::Mode::kChess;
  } else if (spec.verify_mode == "dpor") {
    vopts.mode = verify::Mode::kDpor;
  } else {
    throw UsageError("--verify-mode must be 'dpor' or 'chess', got '" +
                     spec.verify_mode + "'");
  }
  vopts.preemption_bound = spec.verify_bound;
  vopts.max_executions = spec.verify_budget;
  vopts.fault_dimension = !spec.fault_spec.empty();

  std::vector<OutputLine> last_output;
  std::vector<TraceEvent> last_trace;
  Harvest last;
  std::optional<long> expected_updates;
  std::optional<long> observed_updates;
  OutputCapture out;
  if (spec.mirror_stdout) out.mirror_to(&std::cout);
  const auto body = [&] {
    out.clear();
    Trace trace;
    RunContext ctx{tasks, toggles, out, trace, spec.params};
    // The windows open per execution, so fault counters, crash countdowns
    // and the committed cut restart with the schedule, and on a violation
    // the last execution's profile *is* the violating one (--trace-json
    // renders the counterexample's schedule). A bad fault spec throws
    // UsageError out of explore() on the first execution.
    last = Harvest{};
    try {
      execute(p, ctx, spec, last);
    } catch (...) {
      last_output = out.lines();
      last_trace = trace.events();
      throw;
    }
    last_output = out.lines();
    last_trace = trace.events();
    if (ctx.probe.used()) {
      expected_updates = ctx.probe.expected();
      observed_updates = ctx.probe.observed();
    } else {
      expected_updates.reset();
      observed_updates.reset();
    }
  };

  const auto t0 = std::chrono::steady_clock::now();
  verify::Result vr;
  if (!spec.replay_schedule.empty()) {
    const verify::Schedule schedule = verify::Schedule::parse(spec.replay_schedule);
    vr = verify::replay(body, schedule, vopts);
  } else {
    vr = verify::explore(body, vopts);
  }
  const auto t1 = std::chrono::steady_clock::now();

  RunResult result = collect(p, tasks, std::move(toggles), std::move(last_output),
                             std::move(last_trace), last);
  result.seconds = std::chrono::duration<double>(t1 - t0).count();
  result.expected_updates = expected_updates;
  result.observed_updates = observed_updates;
  if (vr.found) {
    // Stamp the counterexample with the full configuration so --replay can
    // reconstruct this exact run from the file alone.
    vr.counterexample.slug = p.slug;
    vr.counterexample.tasks = tasks;
    vr.counterexample.toggles = result.toggles.values();
    for (const auto& [name, value] : spec.params) {
      vr.counterexample.params.emplace_back(name, value);
    }
    vr.counterexample.fault_spec = spec.fault_spec;
    result.counterexample = vr.counterexample.to_string();
  }
  if (!vr.analysis.findings.empty()) result.analysis = vr.analysis;
  result.verification = std::move(vr);
  return result;
}

}  // namespace

RunResult run(const Patternlet& p, const RunSpec& spec) {
  const int tasks = spec.tasks > 0 ? spec.tasks : p.default_tasks;
  if (tasks <= 0) throw UsageError("patternlet '" + p.slug + "': task count must be positive");

  ToggleSet toggles{p.toggles};
  if (spec.all_toggles.has_value()) toggles.set_all(*spec.all_toggles);
  for (const auto& [name, value] : spec.toggle_overrides) toggles.set(name, value);

  if (spec.verify || !spec.replay_schedule.empty()) {
    return run_verified(p, spec, tasks, std::move(toggles));
  }

  OutputCapture out;
  if (spec.mirror_stdout) out.mirror_to(&std::cout);
  Trace trace;
  RunContext ctx{tasks, toggles, out, trace, spec.params};

  // Analysis window covers exactly the body, like the chaos window below.
  std::optional<analyze::Scope> analysis;
  if (spec.analyze) analysis.emplace();

  // Perturbation window covers exactly the body and stays outermost: the
  // scope restores the previous seed even if the body throws.
  Harvest h;
  {
    sched::ChaosScope chaos{spec.chaos_seed};
    execute(p, ctx, spec, h);
  }

  // Harvest the lost-update probe into the trace so the report rides the
  // same channel as the schedule figures: task -1 (the orchestrator),
  // key = expected updates, aux = observed.
  if (ctx.probe.used()) {
    trace.record(-1, "lost-updates", ctx.probe.expected(), ctx.probe.observed());
  }

  // Findings ride the same trace channel as the schedule figures and the
  // probe: task -1 (the orchestrator), kind "finding:<checker>",
  // key = finding index, aux = 1 for errors / 0 for notes.
  std::optional<analyze::Report> report;
  if (analysis.has_value()) {
    report = analysis->finish();
    std::int64_t index = 0;
    for (const auto& f : report->findings) {
      trace.record(-1, std::string("finding:") + analyze::to_string(f.checker), index++,
                   f.severity == analyze::Severity::kError ? 1 : 0);
    }
  }

  RunResult result =
      collect(p, tasks, std::move(toggles), out.lines(), trace.events(), h);
  result.chaos_seed = spec.chaos_seed;
  if (ctx.probe.used()) {
    result.expected_updates = ctx.probe.expected();
    result.observed_updates = ctx.probe.observed();
  }
  result.analysis = std::move(report);
  return result;
}

RunResult run(const std::string& slug, const RunSpec& spec) {
  return run(Registry::instance().get(slug), spec);
}

std::string remediation_for(const Patternlet& p) {
  if (!p.race_demo.has_value()) {
    return "remediation: no staged fix is declared for '" + p.slug +
           "'; add the missing synchronization by hand.";
  }
  const RaceDemo& demo = *p.race_demo;
  if (demo.fixed_toggles.empty()) {
    return "remediation: '" + p.slug +
           "' stages this bug on purpose and declares no fixing toggle — its "
           "lesson *is* the unprotected update; compare with its protected "
           "sibling patternlet.";
  }
  // Phrased as the runner's own flags so the line is copy-pasteable.
  std::string out = "remediation: re-enable the protective line(s):";
  for (const auto& [name, value] : demo.fixed_toggles) {
    out += value ? " --on \"" : " --off \"";
    out += name;
    out += "\"";
  }
  return out;
}

}  // namespace pml

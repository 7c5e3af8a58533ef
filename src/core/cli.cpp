#include "core/cli.hpp"

#include <algorithm>
#include <climits>
#include <fstream>
#include <iterator>

#include "core/error.hpp"
#include "mp/knobs.hpp"
#include "obs/obs.hpp"
#include "verify/schedule.hpp"

namespace pml::cli {

namespace {

using Arg = const std::string&;

constexpr env::Doc kChaosEnv{"PML_CHAOS", "default --chaos-seed (whole classroom sessions)"};
constexpr env::Doc kFaultEnv{"PML_FAULT", "default --fault spec (CI fault sweeps)"};
constexpr env::Doc kCkptEnv{"PML_CKPT", "default --ckpt-interval, and so --ckpt (CI restart sweeps)"};

/// parse_in narrowed to int (task counts, preemption bounds).
int to_int(Arg source, Arg text, int lo) {
  return static_cast<int>(env::parse_in(source, text, static_cast<std::uint64_t>(lo), INT_MAX));
}

constexpr Flag kFlags[] = {
    {nullptr, "--list", nullptr, "list the whole collection", nullptr,
     [](Invocation& i, Arg, Arg) { i.action = Action::kList; }},
    {nullptr, "--list-racy", nullptr, "list the patternlets that stage a race", nullptr,
     [](Invocation& i, Arg, Arg) { i.action = Action::kListRacy; }},
    {nullptr, "--show", "SLUG", "print metadata and the student exercise", nullptr,
     [](Invocation& i, Arg v, Arg) { i.action = Action::kShow; i.slug = v; }},
    {nullptr, "--listing", "SLUG", "print the paper's original C", nullptr,
     [](Invocation& i, Arg v, Arg) { i.action = Action::kListing; i.slug = v; }},
    {"-h", "--help", nullptr, "print this text", nullptr,
     [](Invocation& i, Arg, Arg) { i.action = Action::kHelp; }},
    {"-t", "--tasks", "N", "task (thread/rank) count", nullptr,
     [](Invocation& i, Arg v, Arg s) { i.spec.tasks = to_int(s, v, 1); }},
    {nullptr, "--on", "TOGGLE", "enable a directive toggle (repeatable)", nullptr,
     [](Invocation& i, Arg v, Arg) { i.spec.toggle_overrides.emplace_back(v, true); }},
    {nullptr, "--off", "TOGGLE", "disable a directive toggle (repeatable)", nullptr,
     [](Invocation& i, Arg v, Arg) { i.spec.toggle_overrides.emplace_back(v, false); }},
    {nullptr, "--all-on", nullptr, "force every declared toggle on", nullptr,
     [](Invocation& i, Arg, Arg) { i.spec.all_toggles = true; }},
    {nullptr, "--all-off", nullptr, "force every declared toggle off", nullptr,
     [](Invocation& i, Arg, Arg) { i.spec.all_toggles = false; }},
    {"-p", "--param", "K=V", "integer parameter override (repeatable)", nullptr,
     [](Invocation& i, Arg v, Arg s) {
       const auto eq = v.find('=');
       if (eq == std::string::npos) throw UsageError(s + " expects key=value, got '" + v + "'");
       const std::string key = v.substr(0, eq);
       i.spec.params[key] = env::parse_i64(s + " " + key, v.substr(eq + 1));
     }},
    {nullptr, "--timeline", nullptr, "render the output as a per-task timeline", nullptr,
     [](Invocation& i, Arg, Arg) { i.timeline = true; }},
    {nullptr, "--timeline-lane-program", nullptr,
     "also draw the program (task -1) lane (implies --timeline)", nullptr,
     [](Invocation& i, Arg, Arg) { i.timeline = i.timeline_options.include_program_lane = true; }},
    {nullptr, "--chaos-seed", "N", "seeded schedule perturbation: staged races manifest",
     &kChaosEnv, [](Invocation& i, Arg v, Arg s) { i.spec.chaos_seed = env::parse_u64(s, v); }},
    {nullptr, "--fault", "SPEC",
     "fault injection, comma-joined drop:N[%] dup:N[%] delay:MS crash:NODE[@K] "
     "slow:NODE@MS seed:S",
     &kFaultEnv, [](Invocation& i, Arg v, Arg) { i.spec.fault_spec = v; }},
    {nullptr, "--ckpt", nullptr, "checkpoint/restart: commit cuts, recover node crashes", nullptr,
     [](Invocation& i, Arg, Arg) { i.spec.ckpt = true; }},
    {nullptr, "--ckpt-interval", "N", "commit every Nth checkpoint call (implies --ckpt)",
     &kCkptEnv,
     [](Invocation& i, Arg v, Arg s) {
       i.spec.ckpt_interval = static_cast<std::uint32_t>(env::parse_in(s, v, 1, UINT32_MAX));
       i.spec.ckpt = true;
     }},
    {nullptr, "--ckpt-file", "FILE", "persist every committed cut (implies --ckpt)", nullptr,
     [](Invocation& i, Arg v, Arg) { i.spec.ckpt_file = v; i.spec.ckpt = true; }},
    {nullptr, "--restart-from", "FILE", "adopt a saved cut at the first checkpoint call",
     nullptr, [](Invocation& i, Arg v, Arg) { i.spec.restart_from = v; }},
    {nullptr, "--analyze", nullptr, "race, deadlock and lint analysis; exit 3 on errors", nullptr,
     [](Invocation& i, Arg, Arg) { i.spec.analyze = true; }},
    {nullptr, "--profile", nullptr, "per-task spans and metrics, printed as a table", nullptr,
     [](Invocation& i, Arg, Arg) { i.spec.profile = true; }},
    {nullptr, "--trace-json", "FILE", "Perfetto trace JSON ('-' = stdout; implies --profile)",
     nullptr, [](Invocation& i, Arg v, Arg) { i.trace_json_path = v; i.spec.profile = true; }},
    {nullptr, "--explain", nullptr, "critical path and speedup bound (implies --profile)",
     nullptr, [](Invocation& i, Arg, Arg) { i.explain = i.spec.profile = true; }},
    {nullptr, "--metrics-json", "FILE", "metrics JSON ('-' = stdout; implies --profile)", nullptr,
     [](Invocation& i, Arg v, Arg) { i.metrics_json_path = v; i.spec.profile = true; }},
    {nullptr, "--obs-ring-spans", "N", "per-thread span ring capacity under --profile",
     &obs::kRingSpansKnob,
     [](Invocation& i, Arg v, Arg s) { i.spec.obs_ring_spans = obs::kRingSpansKnob.parse(s, v); }},
    {nullptr, "--verify", nullptr, "explore schedules (model checking); exit 3 on a violation",
     nullptr, [](Invocation& i, Arg, Arg) { i.spec.verify = true; }},
    {nullptr, "--verify-bound", "N", "preemption bound for chess mode (default 2)", nullptr,
     [](Invocation& i, Arg v, Arg s) { i.spec.verify_bound = to_int(s, v, 0); }},
    {nullptr, "--verify-budget", "N", "max executions to explore (default 200)", nullptr,
     [](Invocation& i, Arg v, Arg s) { i.spec.verify_budget = env::parse_in(s, v, 1, UINT64_MAX); }},
    {nullptr, "--verify-mode", "M", "'dpor' (default) or 'chess'", nullptr,
     [](Invocation& i, Arg v, Arg) { i.spec.verify_mode = v; }},
    {nullptr, "--verify-out", "FILE", "counterexample file (default <slug>.pmlsched)", nullptr,
     [](Invocation& i, Arg v, Arg) { i.verify_out_path = v; }},
    {nullptr, "--replay", "FILE", "re-run a .pmlsched counterexample under its own config",
     nullptr, [](Invocation& i, Arg v, Arg) { i.replay_path = v; }},
};

const Flag* find(const std::string& spelling) {
  for (const Flag& f : kFlags) {
    if (spelling == f.name || (f.short_name != nullptr && spelling == f.short_name)) return &f;
  }
  return nullptr;
}

/// Reconstructs the exact configuration the --replay counterexample was
/// found under; the command line's config flags give way to it.
void apply_replay(Invocation& inv) {
  std::ifstream in(inv.replay_path);
  if (!in) throw UsageError("cannot read schedule file: " + inv.replay_path);
  std::string text((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  verify::Schedule schedule;
  try {
    schedule = verify::Schedule::parse(text);
  } catch (const UsageError& e) {
    throw UsageError(std::string("bad schedule file: ") + e.what());
  }
  RunSpec& spec = inv.spec;
  if (inv.slug.empty()) inv.slug = schedule.slug;
  spec.tasks = schedule.tasks;
  spec.toggle_overrides = schedule.toggles;
  spec.all_toggles.reset();
  spec.params.clear();
  for (const auto& [name, value] : schedule.params) spec.params[name] = value;
  spec.fault_spec = schedule.fault_spec;
  spec.verify_bound = schedule.bound;
  spec.verify_mode = schedule.mode;
  spec.chaos_seed = 0;
  spec.replay_schedule = std::move(text);
}

}  // namespace

std::span<const Flag> flags() { return kFlags; }

Invocation parse(const std::vector<std::string>& args, const EnvLookup& env) {
  Invocation inv;
  if (args.empty()) inv.action = Action::kList;
  std::vector<const Flag*> given;
  for (std::size_t k = 0; k < args.size() && inv.action <= Action::kListing; ++k) {
    const std::string& arg = args[k];
    if (!arg.empty() && arg[0] != '-') {
      inv.slug = arg;
      continue;
    }
    // "--flag=value" spells "--flag value" for every flag taking a value.
    const auto eq = arg.rfind("--", 0) == 0 ? arg.find('=') : std::string::npos;
    const std::string spelling = arg.substr(0, eq);
    const Flag* flag = find(spelling);
    if (flag == nullptr || (eq != std::string::npos && flag->metavar == nullptr)) {
      throw UsageError("unknown flag '" + arg + "'");
    }
    std::string value;
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
    } else if (flag->metavar != nullptr) {
      if (k + 1 >= args.size()) throw UsageError(spelling + " needs an argument");
      value = args[++k];
    }
    flag->set(inv, value, spelling);
    given.push_back(flag);
  }
  // --list, --list-racy and --help act at once, whatever follows.
  if (inv.action > Action::kListing) return inv;

  for (const Flag& flag : kFlags) {
    if (flag.env == nullptr || std::count(given.begin(), given.end(), &flag) != 0) continue;
    if (const char* raw = env(flag.env->name)) flag.set(inv, raw, flag.env->name);
  }
  if (!inv.replay_path.empty()) apply_replay(inv);
  if (inv.slug.empty()) throw UsageError("no patternlet named");
  if (inv.action == Action::kRun && inv.trace_json_path == "-" && inv.metrics_json_path == "-") {
    throw UsageError("--trace-json - and --metrics-json - both claim stdout; "
                     "write at least one to a file");
  }
  return inv;
}

std::string help() {
  std::string out =
      "patternlet_runner — run the patternlet collection\n\n"
      "usage: patternlet_runner [SLUG] [options]\n"
      "       (a long option's value may also be attached: --fault=drop:1)\n\noptions:\n";
  const auto row = [&out](std::string left, const std::string& text) {
    left.resize(std::max<std::size_t>(left.size() + 2, 30), ' ');
    out += "  " + left + text + "\n";
  };
  for (const Flag& f : kFlags) {
    std::string left = f.short_name != nullptr ? std::string(f.short_name) + ", " : "";
    left += f.name;
    if (f.metavar != nullptr) left += std::string(" ") + f.metavar;
    row(left, f.help + (f.env != nullptr ? std::string(" [") + f.env->name + "]" : ""));
  }
  out += "\nenvironment (a flag beats its variable):\n";
  for (const Flag& f : kFlags) {
    if (f.env != nullptr) row(f.env->name, f.env->help);
  }
  for (const env::Doc* d : mp::kEnvKnobs) row(d->name, d->help);
  out += "\nexit status: 0 ok, 1 the run failed, 2 usage error (a malformed number "
         "included), 3 analysis or verification found errors\n";
  return out;
}

}  // namespace pml::cli

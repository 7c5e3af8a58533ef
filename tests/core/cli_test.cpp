/// \file cli_test.cpp
/// \brief patternlet_runner's command line (pml::cli): every flag in the
/// table reaches its field, implications and flag-over-variable precedence
/// hold, --replay overrides the config flags, malformed numbers are
/// rejected naming the flag or variable, and --help lists everything.

#include "core/cli.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/error.hpp"
#include "verify/schedule.hpp"

namespace pml::cli {
namespace {

using Env = std::map<std::string, std::string>;

Invocation parse_with(const std::vector<std::string>& args, const Env& env = {}) {
  return parse(args, [&env](const char* name) -> const char* {
    const auto it = env.find(name);
    return it == env.end() ? nullptr : it->second.c_str();
  });
}

/// The UsageError text parse_with throws, or "" when it parses.
std::string error_of(const std::vector<std::string>& args, const Env& env = {}) {
  try {
    parse_with(args, env);
  } catch (const UsageError& e) {
    return e.what();
  }
  return "";
}

/// A .pmlsched file under the test temp dir, removed on destruction.
struct ScheduleFile {
  std::string path;
  explicit ScheduleFile(const std::string& text)
      : path(::testing::TempDir() + "cli_test_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name() +
             ".pmlsched") {
    std::ofstream(path) << text;
  }
  ~ScheduleFile() { std::filesystem::remove(path); }
};

verify::Schedule sample_schedule() {
  verify::Schedule s;
  s.slug = "omp/private";
  s.tasks = 3;
  s.toggles = {{"x", true}};
  s.params = {{"n", 5}};
  s.fault_spec = "dup:1";
  s.bound = 1;
  s.mode = "chess";
  return s;
}

TEST(Cli, EveryTableEntryReachesItsField) {
  const ScheduleFile replay{sample_schedule().to_string()};
  using Check = std::function<bool(const Invocation&)>;
  const std::map<std::string, std::pair<std::vector<std::string>, Check>> cases = {
      {"--list", {{"--list"}, [](auto& i) { return i.action == Action::kList; }}},
      {"--list-racy", {{"--list-racy"}, [](auto& i) { return i.action == Action::kListRacy; }}},
      {"--show",
       {{"--show", "omp/spmd"},
        [](auto& i) { return i.action == Action::kShow && i.slug == "omp/spmd"; }}},
      {"--listing",
       {{"--listing", "omp/spmd"},
        [](auto& i) { return i.action == Action::kListing && i.slug == "omp/spmd"; }}},
      {"--help", {{"--help"}, [](auto& i) { return i.action == Action::kHelp; }}},
      {"--tasks", {{"s", "--tasks", "4"}, [](auto& i) { return i.spec.tasks == 4; }}},
      {"--on",
       {{"s", "--on", "omp parallel"},
        [](auto& i) {
          return i.spec.toggle_overrides ==
                 std::vector<std::pair<std::string, bool>>{{"omp parallel", true}};
        }}},
      {"--off",
       {{"s", "--off", "omp barrier"},
        [](auto& i) {
          return i.spec.toggle_overrides ==
                 std::vector<std::pair<std::string, bool>>{{"omp barrier", false}};
        }}},
      {"--all-on", {{"s", "--all-on"}, [](auto& i) { return i.spec.all_toggles == true; }}},
      {"--all-off", {{"s", "--all-off"}, [](auto& i) { return i.spec.all_toggles == false; }}},
      {"--param",
       {{"s", "--param", "size=-7"},
        [](auto& i) { return i.spec.params == std::map<std::string, long>{{"size", -7}}; }}},
      {"--timeline",
       {{"s", "--timeline"},
        [](auto& i) { return i.timeline && !i.timeline_options.include_program_lane; }}},
      {"--timeline-lane-program",
       {{"s", "--timeline-lane-program"},
        [](auto& i) { return i.timeline && i.timeline_options.include_program_lane; }}},
      {"--chaos-seed", {{"s", "--chaos-seed", "42"}, [](auto& i) { return i.spec.chaos_seed == 42u; }}},
      {"--fault", {{"s", "--fault", "drop:1"}, [](auto& i) { return i.spec.fault_spec == "drop:1"; }}},
      {"--ckpt", {{"s", "--ckpt"}, [](auto& i) { return i.spec.ckpt; }}},
      {"--ckpt-interval",
       {{"s", "--ckpt-interval", "3"},
        [](auto& i) { return i.spec.ckpt_interval == 3u && i.spec.ckpt; }}},
      {"--ckpt-file",
       {{"s", "--ckpt-file", "c.ckpt"},
        [](auto& i) { return i.spec.ckpt_file == "c.ckpt" && i.spec.ckpt; }}},
      {"--restart-from",
       {{"s", "--restart-from", "c.ckpt"},
        [](auto& i) { return i.spec.restart_from == "c.ckpt" && !i.spec.ckpt; }}},
      {"--analyze", {{"s", "--analyze"}, [](auto& i) { return i.spec.analyze; }}},
      {"--profile", {{"s", "--profile"}, [](auto& i) { return i.spec.profile; }}},
      {"--trace-json",
       {{"s", "--trace-json", "t.json"},
        [](auto& i) { return i.trace_json_path == "t.json" && i.spec.profile; }}},
      {"--explain", {{"s", "--explain"}, [](auto& i) { return i.explain && i.spec.profile; }}},
      {"--metrics-json",
       {{"s", "--metrics-json", "m.json"},
        [](auto& i) { return i.metrics_json_path == "m.json" && i.spec.profile; }}},
      {"--obs-ring-spans",
       {{"s", "--obs-ring-spans", "7"}, [](auto& i) { return i.spec.obs_ring_spans == 7u; }}},
      {"--verify", {{"s", "--verify"}, [](auto& i) { return i.spec.verify; }}},
      {"--verify-bound", {{"s", "--verify-bound", "0"}, [](auto& i) { return i.spec.verify_bound == 0; }}},
      {"--verify-budget",
       {{"s", "--verify-budget", "5"}, [](auto& i) { return i.spec.verify_budget == 5u; }}},
      {"--verify-mode",
       {{"s", "--verify-mode", "chess"}, [](auto& i) { return i.spec.verify_mode == "chess"; }}},
      {"--verify-out",
       {{"s", "--verify-out", "x.pmlsched"},
        [](auto& i) { return i.verify_out_path == "x.pmlsched"; }}},
      {"--replay",
       {{"--replay", replay.path},
        [&replay](auto& i) {
          return i.replay_path == replay.path && i.slug == "omp/private" &&
                 !i.spec.replay_schedule.empty();
        }}},
  };
  for (const Flag& flag : flags()) {
    const auto it = cases.find(flag.name);
    ASSERT_NE(it, cases.end()) << flag.name << " has no case here";
    EXPECT_TRUE(it->second.second(parse_with(it->second.first))) << flag.name;
  }
  EXPECT_EQ(cases.size(), flags().size());
}

TEST(Cli, ShortSpellingsAndInlineValuesMatchTheLongForm) {
  EXPECT_EQ(parse_with({"-h"}).action, Action::kHelp);
  EXPECT_EQ(parse_with({"s", "-t", "6"}).spec.tasks, 6);
  EXPECT_EQ(parse_with({"s", "-p", "n=3"}).spec.params.at("n"), 3);
  EXPECT_EQ(parse_with({"s", "--fault=drop:25%,seed:7"}).spec.fault_spec, "drop:25%,seed:7");
  EXPECT_EQ(parse_with({"s", "--tasks=5"}).spec.tasks, 5);
  EXPECT_NE(error_of({"s", "--profile=yes"}).find("unknown flag '--profile=yes'"),
            std::string::npos);
  EXPECT_NE(error_of({"s", "-t=4"}).find("unknown flag"), std::string::npos);
}

TEST(Cli, ActionsAndSlugs) {
  EXPECT_EQ(parse_with({}).action, Action::kList);
  // --list, --list-racy and --help act where they stand: what follows,
  // even garbage, is never parsed.
  EXPECT_EQ(parse_with({"--list", "--bogus"}).action, Action::kList);
  EXPECT_EQ(parse_with({"-t", "4", "--help", "-t", "abc"}).action, Action::kHelp);
  EXPECT_NE(error_of({"--bogus", "--list"}).find("unknown flag '--bogus'"), std::string::npos);
  EXPECT_NE(error_of({"-t", "4"}).find("no patternlet named"), std::string::npos);
  EXPECT_NE(error_of({"s", "--on"}).find("--on needs an argument"), std::string::npos);
  EXPECT_EQ(parse_with({"a", "b"}).slug, "b");  // last slug wins
  const Invocation run = parse_with({"omp/spmd", "-t", "2"});
  EXPECT_EQ(run.action, Action::kRun);
  EXPECT_EQ(run.slug, "omp/spmd");
  EXPECT_FALSE(run.spec.mirror_stdout);
  EXPECT_NE(error_of({"s", "--trace-json", "-", "--metrics-json", "-"}).find("claim stdout"),
            std::string::npos);
  EXPECT_EQ(parse_with({"--show", "s", "--trace-json", "-", "--metrics-json", "-"}).action,
            Action::kShow);
}

TEST(Cli, RepeatedFlagsAccumulateOrLastWins) {
  const Invocation i = parse_with(
      {"s", "--on", "a", "--off", "b", "-p", "x=1", "-p", "x=2", "-t", "2", "-t", "3"});
  EXPECT_EQ(i.spec.toggle_overrides,
            (std::vector<std::pair<std::string, bool>>{{"a", true}, {"b", false}}));
  EXPECT_EQ(i.spec.params.at("x"), 2);
  EXPECT_EQ(i.spec.tasks, 3);
}

TEST(Cli, VariablesSupplyDefaults) {
  const Invocation i = parse_with(
      {"s"}, {{"PML_CHAOS", "7"}, {"PML_FAULT", "drop:1"}, {"PML_CKPT", "4"},
              {"PML_OBS_RING_SPANS", "9"}});
  EXPECT_EQ(i.spec.chaos_seed, 7u);
  EXPECT_EQ(i.spec.fault_spec, "drop:1");
  EXPECT_TRUE(i.spec.ckpt);
  EXPECT_EQ(i.spec.ckpt_interval, 4u);
  EXPECT_EQ(i.spec.obs_ring_spans, 9u);
  // The mp knobs are resolved by mp::run itself, not here.
  EXPECT_NO_THROW(parse_with({"s"}, {{"PML_MP_EAGER_BYTES", "junk"}}));
}

TEST(Cli, AFlagBeatsItsVariable) {
  const Env env = {{"PML_CHAOS", "7"}, {"PML_FAULT", "drop:1"}, {"PML_CKPT", "4"},
                   {"PML_OBS_RING_SPANS", "9"}};
  const Invocation i =
      parse_with({"s", "--chaos-seed", "42", "--fault", "dup:1", "--ckpt-interval", "2",
                  "--obs-ring-spans", "3"},
                 env);
  EXPECT_EQ(i.spec.chaos_seed, 42u);
  EXPECT_EQ(i.spec.fault_spec, "dup:1");
  EXPECT_EQ(i.spec.ckpt_interval, 2u);
  EXPECT_EQ(i.spec.obs_ring_spans, 3u);
  // ...whatever the variable holds: a flag given means its variable is
  // never read.
  EXPECT_EQ(parse_with({"s", "--chaos-seed", "5"}, {{"PML_CHAOS", "abc"}}).spec.chaos_seed, 5u);
  // --ckpt alone does not outrank PML_CKPT's interval; --ckpt-interval does.
  EXPECT_EQ(parse_with({"s", "--ckpt"}, env).spec.ckpt_interval, 4u);
}

TEST(Cli, ReplayOverridesTheConfigFlags) {
  const verify::Schedule schedule = sample_schedule();
  const ScheduleFile file{schedule.to_string()};
  const Invocation i = parse_with(
      {"--replay", file.path, "-t", "8", "--on", "y", "--all-on", "-p", "m=1", "--fault",
       "drop:1", "--verify-bound", "5", "--verify-mode", "dpor", "--chaos-seed", "9"},
      {{"PML_CHAOS", "11"}});
  EXPECT_EQ(i.slug, "omp/private");
  EXPECT_EQ(i.spec.tasks, 3);
  EXPECT_EQ(i.spec.toggle_overrides, schedule.toggles);
  EXPECT_FALSE(i.spec.all_toggles.has_value());
  EXPECT_EQ(i.spec.params, (std::map<std::string, long>{{"n", 5}}));
  EXPECT_EQ(i.spec.fault_spec, "dup:1");
  EXPECT_EQ(i.spec.verify_bound, 1);
  EXPECT_EQ(i.spec.verify_mode, "chess");
  EXPECT_EQ(i.spec.chaos_seed, 0u);
  EXPECT_EQ(verify::Schedule::parse(i.spec.replay_schedule).slug, "omp/private");
  // A slug on the command line names the patternlet; the file does not.
  EXPECT_EQ(parse_with({"omp/spmd", "--replay", file.path}).slug, "omp/spmd");

  EXPECT_NE(error_of({"--replay", file.path + ".missing"}).find("cannot read schedule file"),
            std::string::npos);
  const ScheduleFile garbage{"this is not a schedule\n"};
  EXPECT_NE(error_of({"--replay", garbage.path}).find("bad schedule file"), std::string::npos);
}

TEST(Cli, MalformedValuesAreRejectedNamingTheirSource) {
  const struct {
    std::vector<std::string> args;
    Env env;
    const char* named;
  } cases[] = {
      {{"s", "-t", "abc"}, {}, "-t"},
      {{"s", "-t", "-3"}, {}, "-t"},
      {{"s", "--tasks", "0"}, {}, "--tasks"},
      {{"s", "--verify-bound", "x"}, {}, "--verify-bound"},
      {{"s", "--verify-budget", "12abc"}, {}, "--verify-budget"},
      {{"s", "--verify-budget", "0"}, {}, "--verify-budget"},
      {{"s", "-p", "size=abc"}, {}, "-p size"},
      {{"s", "-p", "size"}, {}, "-p"},
      {{"s", "--chaos-seed", "4x"}, {}, "--chaos-seed"},
      {{"s", "--ckpt-interval", "0"}, {}, "--ckpt-interval"},
      {{"s", "--ckpt-interval", "4294967296"}, {}, "--ckpt-interval"},
      {{"s", "--obs-ring-spans", "0"}, {}, "--obs-ring-spans"},
      {{"s"}, {{"PML_CHAOS", "abc"}}, "PML_CHAOS"},
      {{"s"}, {{"PML_CKPT", "0"}}, "PML_CKPT"},
      {{"s"}, {{"PML_CKPT", "-1"}}, "PML_CKPT"},
      {{"s"}, {{"PML_OBS_RING_SPANS", "abc"}}, "PML_OBS_RING_SPANS"},
      {{"s"}, {{"PML_OBS_RING_SPANS", "0"}}, "PML_OBS_RING_SPANS"},
  };
  for (const auto& c : cases) {
    const std::string what = error_of(c.args, c.env);
    EXPECT_NE(what.find(c.named), std::string::npos)
        << "expected an error naming " << c.named << ", got \"" << what << "\"";
  }
}

TEST(Cli, HelpListsEveryFlagAndEveryVariable) {
  const std::string text = help();
  for (const Flag& flag : flags()) {
    EXPECT_NE(text.find(flag.name), std::string::npos) << flag.name;
    if (flag.short_name != nullptr) {
      EXPECT_NE(text.find(std::string(flag.short_name) + ", " + flag.name), std::string::npos)
          << flag.short_name;
    }
  }
  for (const char* var :
       {"PML_CHAOS", "PML_FAULT", "PML_CKPT", "PML_OBS_RING_SPANS",
        "PML_MP_COLLECTIVE_TIMEOUT_MS", "PML_MP_EAGER_BYTES", "PML_MP_COLL_SEGMENT_BYTES",
        "PML_MP_COLL_ALGO"}) {
    EXPECT_NE(text.find(std::string("\n  ") + var + " "), std::string::npos) << var;
  }
}

}  // namespace
}  // namespace pml::cli

/// \file runner_test.cpp
/// \brief Unit tests for the patternlet runner.

#include "core/runner.hpp"

#include <gtest/gtest.h>

#include <chrono>

#include "core/error.hpp"
#include "mp/mp.hpp"

namespace pml {
namespace {

Patternlet probe_patternlet() {
  Patternlet p;
  p.slug = "test/probe";
  p.title = "probe";
  p.tech = Tech::kOpenMP;
  p.default_tasks = 3;
  p.toggles = {{"flag", "a toggle", false}};
  p.body = [](RunContext& ctx) {
    ctx.out.program("tasks=" + std::to_string(ctx.tasks));
    ctx.out.program(std::string("flag=") + (ctx.toggles.on("flag") ? "on" : "off"));
    ctx.out.program("reps=" + std::to_string(ctx.param("reps", 8)));
    ctx.trace.record(0, "ran", 1);
  };
  return p;
}

/// Rank 0 sends one message that rank 1 waits for with a deadline, so a
/// dropped message ends the job instead of waiting out the deadlock
/// watchdog.
Patternlet mp_probe_patternlet() {
  Patternlet p;
  p.slug = "test/mp-probe";
  p.title = "mp probe";
  p.tech = Tech::kMPI;
  p.default_tasks = 2;
  p.body = [](RunContext& ctx) {
    mp::run(ctx.tasks, [](mp::Communicator& world) {
      if (world.rank() == 0) {
        world.send(1, 1, 0);
      } else {
        (void)world.recv_for<int>(std::chrono::milliseconds(50), 0, 0);
      }
    });
  };
  return p;
}

TEST(Runner, UsesDefaultTasksWhenUnspecified) {
  const RunResult r = run(probe_patternlet());
  EXPECT_EQ(r.tasks, 3);
  EXPECT_EQ(r.texts()[0], "tasks=3");
}

TEST(Runner, SpecOverridesTasksTogglesParams) {
  RunSpec spec;
  spec.tasks = 7;
  spec.toggle_overrides = {{"flag", true}};
  spec.params = {{"reps", 99}};
  const RunResult r = run(probe_patternlet(), spec);
  EXPECT_EQ(r.texts(), (std::vector<std::string>{"tasks=7", "flag=on", "reps=99"}));
}

TEST(Runner, AllTogglesForcesEverything) {
  RunSpec spec;
  spec.all_toggles = true;
  const RunResult r = run(probe_patternlet(), spec);
  EXPECT_EQ(r.texts()[1], "flag=on");
  EXPECT_TRUE(r.toggles.on("flag"));
}

TEST(Runner, AllTogglesThenOverride) {
  RunSpec spec;
  spec.all_toggles = true;
  spec.toggle_overrides = {{"flag", false}};
  const RunResult r = run(probe_patternlet(), spec);
  EXPECT_EQ(r.texts()[1], "flag=off");
}

TEST(Runner, CollectsTraceAndTiming) {
  const RunResult r = run(probe_patternlet());
  ASSERT_EQ(r.trace.size(), 1u);
  EXPECT_EQ(r.trace[0].kind, "ran");
  EXPECT_GE(r.seconds, 0.0);
  EXPECT_EQ(r.slug, "test/probe");
}

TEST(Runner, UnknownToggleOverrideThrows) {
  RunSpec spec;
  spec.toggle_overrides = {{"nope", true}};
  EXPECT_THROW(run(probe_patternlet(), spec), UsageError);
}

TEST(Runner, NonpositiveTaskCountThrows) {
  Patternlet p = probe_patternlet();
  p.default_tasks = 0;
  EXPECT_THROW(run(p), UsageError);
}

TEST(Runner, BodyExceptionsPropagate) {
  Patternlet p = probe_patternlet();
  p.body = [](RunContext&) { throw RuntimeFault("boom"); };
  EXPECT_THROW(run(p), RuntimeFault);
}

TEST(Runner, BothPathsReportFaultStats) {
  // The plain and the verify path harvest alike: a fault spec always
  // yields the injection counters of the (last) execution.
  for (const bool verify : {false, true}) {
    RunSpec spec;
    spec.fault_spec = "drop:1";
    spec.verify = verify;
    const RunResult r = run(mp_probe_patternlet(), spec);
    ASSERT_TRUE(r.fault_stats.has_value()) << (verify ? "verify" : "plain");
    EXPECT_EQ(r.fault_stats->dropped, 1u) << (verify ? "verify" : "plain");
    EXPECT_FALSE(r.fault_abort.has_value()) << (verify ? "verify" : "plain");
  }
}

TEST(RunResult, OutputStrJoinsLines) {
  const RunResult r = run(probe_patternlet());
  EXPECT_EQ(r.output_str(), "tasks=3\nflag=off\nreps=8\n");
}

}  // namespace
}  // namespace pml

/// \file omp_test.cpp
/// \brief Behavioral tests for the 17 OpenMP-style patternlets: each
/// asserts the property its paper figure illustrates.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "core/runner.hpp"
#include "patternlets/patternlets.hpp"

namespace pml::patternlets {
namespace {

class OmpPatternlets : public ::testing::Test {
 protected:
  void SetUp() override { ensure_registered(); }
};

TEST_F(OmpPatternlets, SpmdWithDirectiveOffPrintsOneGreeting) {
  // Paper Fig. 2: one thread.
  RunSpec spec;
  spec.tasks = 4;
  const RunResult r = run("omp/spmd", spec);
  int greetings = 0;
  for (const auto& t : r.texts()) {
    if (t.find("Hello from thread") != std::string::npos) ++greetings;
  }
  EXPECT_EQ(greetings, 1);
  EXPECT_NE(r.output_str().find("Hello from thread 0 of 1"), std::string::npos);
}

TEST_F(OmpPatternlets, SpmdWithDirectiveOnPrintsEveryThreadOnce) {
  // Paper Fig. 3: four threads, each exactly once.
  RunSpec spec;
  spec.tasks = 4;
  spec.toggle_overrides = {{"omp parallel", true}};
  const RunResult r = run("omp/spmd", spec);
  std::multiset<std::string> greetings;
  for (const auto& l : r.output) {
    if (l.text.find("Hello") != std::string::npos) greetings.insert(l.text);
  }
  EXPECT_EQ(greetings.size(), 4u);
  for (int id = 0; id < 4; ++id) {
    EXPECT_EQ(greetings.count("Hello from thread " + std::to_string(id) + " of 4"), 1u);
  }
}

TEST_F(OmpPatternlets, Spmd2HonorsUserThreadCount) {
  for (int tasks : {1, 2, 5}) {
    RunSpec spec;
    spec.tasks = tasks;
    const RunResult r = run("omp/spmd2", spec);
    EXPECT_EQ(static_cast<int>(r.output.size()), tasks);
    EXPECT_NE(r.output_str().find("of " + std::to_string(tasks)), std::string::npos);
  }
}

TEST_F(OmpPatternlets, ForkJoinOrdersBeforeDuringAfter) {
  RunSpec spec;
  spec.tasks = 4;
  spec.toggle_overrides = {{"omp parallel", true}};
  const RunResult r = run("omp/forkJoin", spec);
  EXPECT_TRUE(phase_separated(r.output, phase_is("BEFORE"), phase_is("DURING")));
  EXPECT_TRUE(phase_separated(r.output, phase_is("DURING"), phase_is("AFTER")));
  int during = 0;
  for (const auto& l : r.output) {
    if (l.phase == "DURING") ++during;
  }
  EXPECT_EQ(during, 4);
}

TEST_F(OmpPatternlets, ForkJoin2SecondPhaseHasDoubleTeamAndFollowsFirst) {
  RunSpec spec;
  spec.tasks = 3;
  const RunResult r = run("omp/forkJoin2", spec);
  EXPECT_TRUE(phase_separated(r.output, phase_is("P1"), phase_is("P2")));
  int p1 = 0;
  int p2 = 0;
  for (const auto& l : r.output) {
    if (l.phase == "P1" && l.task >= 0) ++p1;
    if (l.phase == "P2" && l.task >= 0) ++p2;
  }
  EXPECT_EQ(p1, 3);
  EXPECT_EQ(p2, 6);
}

TEST_F(OmpPatternlets, BarrierOnSeparatesPhases) {
  // Paper Fig. 9.
  RunSpec spec;
  spec.tasks = 4;
  spec.toggle_overrides = {{"omp barrier", true}};
  const RunResult r = run("omp/barrier", spec);
  EXPECT_TRUE(phase_separated(r.output, phase_is("BEFORE"), phase_is("AFTER")));
  EXPECT_EQ(tasks_seen(r.output).size(), 4u);
}

TEST_F(OmpPatternlets, BarrierOffEventuallyInterleaves) {
  // Paper Fig. 8: without the barrier the phases *can* interleave. A single
  // run may come out separated by luck; across many runs at least one must
  // interleave.
  RunSpec spec;
  spec.tasks = 4;
  bool interleaved = false;
  for (int attempt = 0; attempt < 50 && !interleaved; ++attempt) {
    const RunResult r = run("omp/barrier", spec);
    interleaved = phases_interleaved(r.output, phase_is("BEFORE"), phase_is("AFTER"));
  }
  EXPECT_TRUE(interleaved);
}

TEST_F(OmpPatternlets, EqualChunksAssignsContiguousBlocks) {
  // Paper Fig. 15.
  RunSpec spec;
  spec.tasks = 2;
  const RunResult r = run("omp/parallelLoopEqualChunks", spec);
  Trace trace;
  std::map<int, std::vector<std::int64_t>> per_task;
  for (const auto& e : r.trace) {
    if (e.kind == "iteration") per_task[e.task].push_back(e.key);
  }
  for (auto& [t, keys] : per_task) std::sort(keys.begin(), keys.end());
  EXPECT_EQ(per_task[0], (std::vector<std::int64_t>{0, 1, 2, 3}));
  EXPECT_EQ(per_task[1], (std::vector<std::int64_t>{4, 5, 6, 7}));
}

TEST_F(OmpPatternlets, EqualChunksSingleThreadDoesEverything) {
  // Paper Fig. 14.
  RunSpec spec;
  spec.tasks = 1;
  const RunResult r = run("omp/parallelLoopEqualChunks", spec);
  EXPECT_EQ(r.trace.size(), 8u);
  for (const auto& e : r.trace) EXPECT_EQ(e.task, 0);
}

TEST_F(OmpPatternlets, ChunksOf1DealsRoundRobin) {
  RunSpec spec;
  spec.tasks = 4;
  const RunResult r = run("omp/parallelLoopChunksOf1", spec);
  for (const auto& e : r.trace) {
    if (e.kind == "iteration") {
      EXPECT_EQ(e.task, e.key % 4) << e.key;
    }
  }
}

TEST_F(OmpPatternlets, DynamicLoopCoversAllIterations) {
  RunSpec spec;
  spec.tasks = 4;
  spec.params = {{"reps", 16}, {"spin", 100}};
  const RunResult r = run("omp/parallelLoopDynamic", spec);
  std::set<std::int64_t> seen;
  for (const auto& e : r.trace) {
    if (e.kind == "iteration") seen.insert(e.key);
  }
  EXPECT_EQ(seen.size(), 16u);
}

TEST_F(OmpPatternlets, LoopDirectiveOffRunsSequentially) {
  RunSpec spec;
  spec.tasks = 4;
  spec.toggle_overrides = {{"omp parallel for", false}};
  const RunResult r = run("omp/parallelLoopEqualChunks", spec);
  for (const auto& e : r.trace) EXPECT_EQ(e.task, 0);
}

TEST_F(OmpPatternlets, ReductionSequentialBaselineAgrees) {
  // Paper Fig. 21: with everything off both sums match.
  RunSpec spec;
  spec.tasks = 4;
  spec.params = {{"size", 100000}};
  const RunResult r = run("omp/reduction", spec);
  const auto texts = r.texts();
  ASSERT_EQ(texts.size(), 2u);
  const auto seq = texts[0].substr(texts[0].find('\t') + 1);
  const auto par = texts[1].substr(texts[1].find('\t') + 1);
  EXPECT_EQ(seq, par);
}

TEST_F(OmpPatternlets, ReductionWithoutClauseLosesUpdates) {
  // Paper Fig. 22: the racy parallel sum is wrong. Run under a fixed
  // chaos seed so the torn update manifests deterministically even on one
  // core, where the natural schedule virtually never exposes it.
  RunSpec spec;
  spec.tasks = 4;
  spec.params = {{"size", 300000}};
  spec.toggle_overrides = {{"omp parallel for", true}};
  spec.chaos_seed = 20220101;
  const RunResult r = run("omp/reduction", spec);
  const auto texts = r.texts();
  EXPECT_NE(texts[0].substr(texts[0].find('\t')), texts[1].substr(texts[1].find('\t')));
  EXPECT_TRUE(r.race_manifested());
  EXPECT_GT(r.lost_updates(), 0);
}

TEST_F(OmpPatternlets, ReductionWithClauseIsCorrectAgain) {
  RunSpec spec;
  spec.tasks = 4;
  spec.params = {{"size", 300000}};
  spec.all_toggles = true;
  const RunResult r = run("omp/reduction", spec);
  const auto texts = r.texts();
  EXPECT_EQ(texts[0].substr(texts[0].find('\t')), texts[1].substr(texts[1].find('\t')));
}

TEST_F(OmpPatternlets, Reduction2CustomMatchesBuiltins) {
  RunSpec spec;
  spec.tasks = 4;
  const RunResult r = run("omp/reduction2", spec);
  const std::string out = r.output_str();
  // "custom min: X  builtin min: X" — both values equal on each line.
  for (const auto& line : r.texts()) {
    const auto pos = line.find("builtin");
    if (pos == std::string::npos) continue;
    const auto custom_val = line.substr(line.find(": ") + 2,
                                        line.find("  builtin") - line.find(": ") - 2);
    const auto builtin_val = line.substr(line.rfind(": ") + 2);
    EXPECT_EQ(custom_val, builtin_val) << line;
  }
}

TEST_F(OmpPatternlets, PrivateClauseGivesEveryThreadItsOwnSquare) {
  RunSpec spec;
  spec.tasks = 4;
  spec.toggle_overrides = {{"private(temp)", true}};
  const RunResult r = run("omp/private", spec);
  for (const auto& l : r.output) {
    if (l.task < 0) continue;
    EXPECT_NE(l.text.find("temp = " + std::to_string(l.task * l.task)),
              std::string::npos)
        << l.text;
  }
}

TEST_F(OmpPatternlets, RaceLosesDepositsEventually) {
  // Same single-core caveat as above: a fixed chaos seed makes the lost
  // deposits a certainty instead of a statistical hope.
  RunSpec spec;
  spec.tasks = 4;
  spec.params = {{"reps", 200000}};
  spec.chaos_seed = 20220101;
  const RunResult r = run("omp/race", spec);
  EXPECT_NE(r.output_str().find("lost to the race"), std::string::npos);
  EXPECT_TRUE(r.race_manifested());
}

TEST_F(OmpPatternlets, CriticalToggleFixesTheBalance) {
  RunSpec spec;
  spec.tasks = 4;
  spec.params = {{"reps", 100000}};
  spec.toggle_overrides = {{"omp critical", true}};
  const RunResult r = run("omp/critical", spec);
  EXPECT_NE(r.output_str().find("balance = 100000.00"), std::string::npos);
}

TEST_F(OmpPatternlets, AtomicToggleFixesTheBalance) {
  RunSpec spec;
  spec.tasks = 4;
  spec.params = {{"reps", 100000}};
  spec.toggle_overrides = {{"omp atomic", true}};
  const RunResult r = run("omp/atomic", spec);
  EXPECT_NE(r.output_str().find("balance = 100000.00"), std::string::npos);
}

TEST_F(OmpPatternlets, Critical2BothExactAndCriticalCostsMore) {
  // Paper Fig. 30: both balances exact; ratio > 1.
  RunSpec spec;
  spec.tasks = 4;
  spec.params = {{"reps", 200000}};
  // The timing claim (critical costs more than atomic) is retried: under
  // heavy external load a single run can invert on an oversubscribed box.
  double best_ratio = 0.0;
  for (int attempt = 0; attempt < 5 && best_ratio <= 1.0; ++attempt) {
    const RunResult r = run("omp/critical2", spec);
    const std::string out = r.output_str();
    // Both balances exact, every attempt.
    std::size_t pos = 0;
    int exact = 0;
    while ((pos = out.find("balance = 200000.00", pos)) != std::string::npos) {
      ++exact;
      ++pos;
    }
    ASSERT_EQ(exact, 2);
    const auto rpos = out.find("ratio: ");
    ASSERT_NE(rpos, std::string::npos);
    best_ratio = std::max(best_ratio, std::stod(out.substr(rpos + 7)));
  }
  EXPECT_GT(best_ratio, 1.0);
}

TEST_F(OmpPatternlets, SectionsEachRunExactlyOnce) {
  RunSpec spec;
  spec.tasks = 4;
  const RunResult r = run("omp/sections", spec);
  std::map<std::int64_t, int> count;
  for (const auto& e : r.trace) {
    if (e.kind == "section") count[e.key] += 1;
  }
  ASSERT_EQ(count.size(), 4u);
  for (const auto& [sec, n] : count) EXPECT_EQ(n, 1) << sec;
}

TEST_F(OmpPatternlets, MasterWorkerRolesRespected) {
  RunSpec spec;
  spec.tasks = 4;
  const RunResult r = run("omp/masterWorker", spec);
  int master_lines = 0;
  int worker_lines = 0;
  int done_lines = 0;
  for (const auto& l : r.output) {
    if (l.phase == "MASTER") {
      EXPECT_EQ(l.task, 0);
      ++master_lines;
    }
    if (l.phase == "WORKER") {
      EXPECT_NE(l.task, 0);
      ++worker_lines;
    }
    if (l.phase == "DONE") ++done_lines;
  }
  EXPECT_EQ(master_lines, 1);
  EXPECT_EQ(worker_lines, 3);
  EXPECT_EQ(done_lines, 1);
}

}  // namespace
}  // namespace pml::patternlets

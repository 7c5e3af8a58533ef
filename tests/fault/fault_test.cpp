/// \file fault_test.cpp
/// \brief Unit tests for pml::fault: spec parsing, the mailbox injection
/// point (drop/dup/delay), and node crashes inside an mp job.

#include "fault/fault.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <vector>

#include "core/error.hpp"
#include "mp/communicator.hpp"
#include "mp/mailbox.hpp"
#include "mp/runtime.hpp"

namespace pml::fault {
namespace {

using mp::Envelope;
using mp::Mailbox;
using mp::Wait;

Envelope env(int ctx, int src, int tag, int value = 0) {
  return Envelope{ctx, src, tag, mp::Codec<int>::encode(value)};
}

int value_of(const Envelope& e) { return mp::Codec<int>::decode(e.data); }

// ---------------------------------------------------------------------------
// Spec grammar

TEST(FaultSpec, EmptySpecParsesToInactivePlan) {
  const FaultPlan plan = FaultPlan::parse("");
  EXPECT_FALSE(plan.any());
  EXPECT_EQ(plan.to_string(), "");
}

TEST(FaultSpec, FullSpecRoundTrips) {
  const std::string spec = "drop:3,dup:10%,delay:7,crash:node-02@4,slow:node-01@9,seed:42";
  const FaultPlan plan = FaultPlan::parse(spec);
  EXPECT_EQ(plan.drop_first, 3u);
  EXPECT_EQ(plan.dup_percent, 10u);
  EXPECT_EQ(plan.delay_max_ms, 7u);
  EXPECT_EQ(plan.crash_node, "node-02");
  EXPECT_EQ(plan.crash_after, 4u);
  EXPECT_EQ(plan.slow_node, "node-01");
  EXPECT_EQ(plan.slow_ms, 9u);
  EXPECT_EQ(plan.seed, 42u);
  EXPECT_EQ(plan.to_string(), spec);
}

TEST(FaultSpec, PercentAndCountFormsAreDistinct) {
  EXPECT_EQ(FaultPlan::parse("drop:25%").drop_percent, 25u);
  EXPECT_EQ(FaultPlan::parse("drop:25%").drop_first, 0u);
  EXPECT_EQ(FaultPlan::parse("drop:25").drop_first, 25u);
  EXPECT_EQ(FaultPlan::parse("drop:25").drop_percent, 0u);
}

TEST(FaultSpec, SeedAcceptsBothSeparators) {
  EXPECT_EQ(FaultPlan::parse("seed:7").seed, 7u);
  EXPECT_EQ(FaultPlan::parse("seed=7").seed, 7u);
}

TEST(FaultSpec, CrashWithoutAtDefaultsToZeroCheckpoints) {
  const FaultPlan plan = FaultPlan::parse("crash:node-03");
  EXPECT_EQ(plan.crash_node, "node-03");
  EXPECT_EQ(plan.crash_after, 0u);
}

TEST(FaultSpec, MalformedTermsThrowUsageError) {
  EXPECT_THROW(FaultPlan::parse("flip:1"), UsageError);       // unknown action
  EXPECT_THROW(FaultPlan::parse("drop"), UsageError);         // no separator
  EXPECT_THROW(FaultPlan::parse("drop:"), UsageError);        // missing value
  EXPECT_THROW(FaultPlan::parse("drop:abc"), UsageError);     // not a number
  EXPECT_THROW(FaultPlan::parse("drop:200%"), UsageError);    // percent > 100
  EXPECT_THROW(FaultPlan::parse("delay:50%"), UsageError);    // delay is ms
  EXPECT_THROW(FaultPlan::parse("slow:node-01"), UsageError); // needs @MS
  EXPECT_THROW(FaultPlan::parse("crash:@2"), UsageError);     // missing node
  EXPECT_THROW(FaultPlan::parse("drop:1,,dup:1"), UsageError);// empty term
}

// ---------------------------------------------------------------------------
// The mailbox injection point, driven directly (auto lanes)

TEST(FaultInject, InactiveByDefault) {
  EXPECT_FALSE(active());
  Mailbox mb;
  mb.deliver(env(0, 0, 1, 5));
  EXPECT_EQ(mb.queued(), 1u);
}

TEST(FaultInject, DropFirstNEatsALanesFirstDeliveries) {
  FaultScope scope{FaultPlan::parse("drop:1")};
  Mailbox mb;
  mb.deliver(env(0, 0, 1, 1));  // this lane's first delivery: dropped
  mb.deliver(env(0, 0, 1, 2));  // second delivery: deposited
  EXPECT_EQ(mb.queued(), 1u);
  const auto got = mb.receive(0, 0, 1, Wait::poll());
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(value_of(*got), 2);
  const Stats s = stats();
  EXPECT_EQ(s.dropped, 1u);
  EXPECT_EQ(s.duplicated, 0u);
}

TEST(FaultInject, DupDepositsTheEnvelopeTwice) {
  FaultScope scope{FaultPlan::parse("dup:1")};
  Mailbox mb;
  mb.deliver(env(0, 0, 1, 9));
  EXPECT_EQ(mb.queued(), 2u);
  const auto first = mb.receive(0, 0, 1, Wait::poll());
  const auto second = mb.receive(0, 0, 1, Wait::poll());
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(value_of(*first), 9);
  EXPECT_EQ(value_of(*second), 9);
  EXPECT_EQ(stats().duplicated, 1u);
}

TEST(FaultInject, PercentDropIsSeedDeterministic) {
  const auto run_once = [] {
    FaultScope scope{FaultPlan::parse("drop:40%,seed:7")};
    Mailbox mb;
    for (int i = 0; i < 64; ++i) mb.deliver(env(0, 0, 1, i));
    const Stats s = stats();
    EXPECT_EQ(mb.queued(), 64u - s.dropped);
    return s;
  };
  const Stats a = run_once();
  const Stats b = run_once();
  EXPECT_EQ(a.seed, 7u);
  EXPECT_EQ(a.dropped, b.dropped);
  EXPECT_EQ(a.checkpoints, b.checkpoints);
  // A 40% plan over 64 messages should drop some and keep some.
  EXPECT_GT(a.dropped, 0u);
  EXPECT_LT(a.dropped, 64u);
}

TEST(FaultInject, DelayHoldsMessagesAndTalliesMicros) {
  FaultScope scope{FaultPlan::parse("delay:3,seed:5")};
  Mailbox mb;
  for (int i = 0; i < 8; ++i) mb.deliver(env(0, 0, 1, i));
  EXPECT_EQ(mb.queued(), 8u);  // delayed, never lost
  const Stats s = stats();
  EXPECT_GT(s.delayed, 0u);
  EXPECT_GT(s.delay_micros, 0u);
}

TEST(FaultInject, DroppedMessagesAreNeverAlsoDuplicated) {
  // drop:100% beats dup:100%: a message that vanished cannot arrive twice.
  FaultScope scope{FaultPlan::parse("drop:100%,dup:100%,seed:3")};
  Mailbox mb;
  for (int i = 0; i < 16; ++i) mb.deliver(env(0, 0, 1, i));
  EXPECT_EQ(mb.queued(), 0u);
  const Stats s = stats();
  EXPECT_EQ(s.dropped, 16u);
  EXPECT_EQ(s.duplicated, 0u);
}

TEST(FaultInject, CrashIsInertWithoutABoundJob) {
  // No mp job is running, so there is no cluster to name a node of: the
  // crash action must do nothing rather than kill a unit-test thread.
  FaultScope scope{FaultPlan::parse("crash:node-01@0")};
  Mailbox mb;
  EXPECT_NO_THROW(mb.deliver(env(0, 0, 1, 1)));
  EXPECT_EQ(mb.queued(), 1u);
  EXPECT_EQ(stats().crashed, 0u);
  EXPECT_TRUE(crashed_ranks().empty());
}

TEST(FaultInject, ScopeRestoresThePreviousPlan) {
  EXPECT_FALSE(active());
  {
    FaultScope scope{FaultPlan::parse("drop:1")};
    EXPECT_TRUE(active());
    EXPECT_EQ(plan().drop_first, 1u);
  }
  EXPECT_FALSE(active());
  EXPECT_FALSE(plan().any());
}

// ---------------------------------------------------------------------------
// Node crashes inside an mp job

TEST(FaultCrash, NodeCrashKillsItsRanksAndSparesTheRest) {
  FaultScope scope{FaultPlan::parse("crash:node-02@0")};
  mp::RunOptions opts;
  // Round-robin over two nodes: node-02 (index 1) hosts ranks 1 and 3.
  opts.cluster = mp::Cluster(2, 4, mp::Placement::kRoundRobin);
  std::array<std::atomic<bool>, 4> finished{};
  EXPECT_THROW(
      mp::run(
          4,
          [&](mp::Communicator& world) {
            const int next = (world.rank() + 1) % world.size();
            world.send(world.rank(), next, /*tag=*/7);  // victims die here
            (void)world.recv_for<int>(std::chrono::milliseconds(100),
                                      mp::kAnySource, 7);
            finished[static_cast<std::size_t>(world.rank())] = true;
          },
          opts),
      NodeCrashFault);

  // Survivors on node-01 ran to completion; both node-02 ranks died.
  EXPECT_TRUE(finished[0]);
  EXPECT_FALSE(finished[1]);
  EXPECT_TRUE(finished[2]);
  EXPECT_FALSE(finished[3]);
  EXPECT_EQ(stats().crashed, 2u);
  std::vector<int> dead = crashed_ranks();
  std::sort(dead.begin(), dead.end());
  EXPECT_EQ(dead, (std::vector<int>{1, 3}));
}

TEST(FaultCrash, UnknownCrashNodeFailsTheRunUpFront) {
  FaultScope scope{FaultPlan::parse("crash:node-99@0")};
  mp::RunOptions opts;
  opts.cluster = mp::Cluster(2, 4, mp::Placement::kRoundRobin);
  EXPECT_THROW(
      mp::run(4, [](mp::Communicator&) { FAIL() << "ranks must not start"; },
              opts),
      UsageError);
}

TEST(FaultCrash, CrashAfterSparesEarlyCheckpoints) {
  // With a 64-checkpoint allowance and only a handful of messages, no rank
  // ever reaches its crash point: the job completes normally.
  FaultScope scope{FaultPlan::parse("crash:node-02@64")};
  mp::RunOptions opts;
  opts.cluster = mp::Cluster(2, 4, mp::Placement::kRoundRobin);
  EXPECT_NO_THROW(mp::run(
      4,
      [](mp::Communicator& world) {
        const int next = (world.rank() + 1) % world.size();
        world.send(world.rank(), next, 7);
        (void)world.recv_for<int>(std::chrono::seconds(5), mp::kAnySource, 7);
      },
      opts));
  EXPECT_EQ(stats().crashed, 0u);
}

}  // namespace
}  // namespace pml::fault

/// \file mailbox_test.cpp
/// \brief Unit tests for mailbox matching and ordering semantics.

#include "mp/mailbox.hpp"

#include <gtest/gtest.h>

#include <thread>

#include "core/error.hpp"

namespace pml::mp {
namespace {

Envelope env(int ctx, int src, int tag, int value = 0) {
  return Envelope{ctx, src, tag, Codec<int>::encode(value)};
}

int value_of(const Envelope& e) { return Codec<int>::decode(e.data); }

TEST(Matching, WildcardsAndExactMatch) {
  const Envelope e = env(0, 3, 7);
  EXPECT_TRUE(matches(e, 0, 3, 7));
  EXPECT_TRUE(matches(e, 0, kAnySource, 7));
  EXPECT_TRUE(matches(e, 0, 3, kAnyTag));
  EXPECT_TRUE(matches(e, 0, kAnySource, kAnyTag));
  EXPECT_FALSE(matches(e, 1, 3, 7));   // wrong context
  EXPECT_FALSE(matches(e, 0, 2, 7));   // wrong source
  EXPECT_FALSE(matches(e, 0, 3, 8));   // wrong tag
}

TEST(Mailbox, DeliverThenReceive) {
  Mailbox mb;
  mb.deliver(env(0, 1, 5, 99));
  const Envelope got = *mb.receive(0, 1, 5);
  EXPECT_EQ(value_of(got), 99);
  EXPECT_EQ(mb.queued(), 0u);
}

TEST(Mailbox, FifoPerSourceAndTag) {
  Mailbox mb;
  mb.deliver(env(0, 1, 5, 1));
  mb.deliver(env(0, 1, 5, 2));
  mb.deliver(env(0, 1, 5, 3));
  EXPECT_EQ(value_of(*mb.receive(0, 1, 5)), 1);
  EXPECT_EQ(value_of(*mb.receive(0, 1, 5)), 2);
  EXPECT_EQ(value_of(*mb.receive(0, 1, 5)), 3);
}

TEST(Mailbox, MatchingSkipsNonMatchingMessages) {
  Mailbox mb;
  mb.deliver(env(0, 1, 5, 10));
  mb.deliver(env(0, 2, 6, 20));
  // Receive the *second* message first — the first stays queued.
  EXPECT_EQ(value_of(*mb.receive(0, 2, 6)), 20);
  EXPECT_EQ(mb.queued(), 1u);
  EXPECT_EQ(value_of(*mb.receive(0, 1, 5)), 10);
}

TEST(Mailbox, WildcardReceiveTakesEarliestArrival) {
  Mailbox mb;
  mb.deliver(env(0, 2, 9, 111));
  mb.deliver(env(0, 1, 9, 222));
  EXPECT_EQ(value_of(*mb.receive(0, kAnySource, kAnyTag)), 111);
}

TEST(Mailbox, ContextsAreIsolated) {
  Mailbox mb;
  mb.deliver(env(1, 0, 5, 42));
  EXPECT_FALSE(mb.receive(0, 0, 5, Wait::poll()).has_value());
  EXPECT_TRUE(mb.receive(1, 0, 5, Wait::poll()).has_value());
}

TEST(Mailbox, TryReceiveDoesNotBlock) {
  Mailbox mb;
  EXPECT_FALSE(mb.receive(0, kAnySource, kAnyTag, Wait::poll()).has_value());
}

TEST(Mailbox, ProbeReportsWithoutRemoving) {
  Mailbox mb;
  mb.deliver(env(0, 4, 2, 5));
  const auto st = mb.probe(0, kAnySource, kAnyTag);
  ASSERT_TRUE(st.has_value());
  EXPECT_EQ(st->source, 4);
  EXPECT_EQ(st->tag, 2);
  EXPECT_EQ(st->bytes, sizeof(int));
  EXPECT_EQ(st->count<int>(), 1u);
  EXPECT_EQ(mb.queued(), 1u);
}

TEST(Mailbox, ReceiveBlocksUntilDelivery) {
  Mailbox mb;
  std::jthread sender([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    mb.deliver(env(0, 0, 1, 7));
  });
  EXPECT_EQ(value_of(*mb.receive(0, 0, 1)), 7);
}

TEST(Mailbox, ReceiveForTimesOutWhenNothingMatches) {
  Mailbox mb;
  mb.deliver(env(0, 0, 99));
  const auto got = mb.receive(0, 0, 1, Wait::within(std::chrono::milliseconds(50)));
  EXPECT_FALSE(got.has_value());
  EXPECT_EQ(mb.queued(), 1u);  // non-matching message untouched
}

TEST(Mailbox, ReceiveForSucceedsWithinDeadline) {
  Mailbox mb;
  std::jthread sender([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    mb.deliver(env(0, 0, 1, 8));
  });
  const auto got = mb.receive(0, 0, 1, Wait::within(std::chrono::seconds(5)));
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(value_of(*got), 8);
}

TEST(Mailbox, PoisonWakesBlockedReceiver) {
  Mailbox mb;
  std::jthread poisoner([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    mb.poison();
  });
  EXPECT_THROW((void)mb.receive(0, 0, 0), RuntimeFault);
}

TEST(Mailbox, PoisonedMailboxStillServesQueuedMatches) {
  Mailbox mb;
  mb.deliver(env(0, 0, 1, 3));
  mb.poison();
  EXPECT_EQ(value_of(*mb.receive(0, 0, 1)), 3);
  EXPECT_THROW((void)mb.receive(0, 0, 1), RuntimeFault);
}

}  // namespace
}  // namespace pml::mp

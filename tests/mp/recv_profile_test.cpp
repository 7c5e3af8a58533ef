/// \file recv_profile_test.cpp
/// \brief Regression test for the fast-path profiling blind spot: every
/// receive records a kRecv span whether the message was already queued
/// (fast path) or the receiver had to block (slow path) — so the span
/// count equals the messages-received counter instead of undercounting
/// exactly the receives that never waited. A poll records a span only when
/// it matches.

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "mp/mailbox.hpp"
#include "obs/obs.hpp"

namespace pml::mp {
namespace {

Envelope env(int ctx, int src, int tag, int value = 0) {
  return Envelope{ctx, src, tag, Codec<int>::encode(value)};
}

std::uint64_t sum_spans(const obs::Profile& p, obs::SpanKind kind) {
  std::uint64_t total = 0;
  for (const auto& [task, m] : p.tasks) total += m.spans(kind);
  return total;
}

std::uint64_t sum_counter(const obs::Profile& p, obs::Counter c) {
  std::uint64_t total = 0;
  for (const auto& [task, m] : p.tasks) total += m.value(c);
  return total;
}

TEST(RecvProfile, FastPathReceivesRecordSpansToo) {
  obs::Scope scope;
  Mailbox mb;
  // Five fast-path receives: the message is already queued, so the old
  // span placement (inside the blocking wait only) recorded nothing.
  for (int i = 0; i < 5; ++i) mb.deliver(env(0, 0, 1, i));
  for (int i = 0; i < 5; ++i) (void)mb.receive(0, 0, 1);
  // One slow-path receive that genuinely blocks.
  std::jthread sender([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    mb.deliver(env(0, 0, 1, 99));
  });
  (void)mb.receive(0, 0, 1);
  sender.join();

  const obs::Profile p = scope.finish();
  const std::uint64_t received = sum_counter(p, obs::Counter::kMessagesReceived);
  EXPECT_EQ(received, 6u);
  EXPECT_EQ(sum_spans(p, obs::SpanKind::kRecv), received);
}

TEST(RecvProfile, TimedReceiveRecordsASpanOnBothOutcomes) {
  obs::Scope scope;
  Mailbox mb;
  mb.deliver(env(0, 0, 1, 1));
  // One fast-path success and one timeout: two kRecv spans, one message.
  ASSERT_TRUE(
      mb.receive(0, 0, 1, Wait::within(std::chrono::milliseconds(50))).has_value());
  EXPECT_FALSE(
      mb.receive(0, 0, 2, Wait::within(std::chrono::milliseconds(10))).has_value());

  const obs::Profile p = scope.finish();
  EXPECT_EQ(sum_spans(p, obs::SpanKind::kRecv), 2u);
  EXPECT_EQ(sum_counter(p, obs::Counter::kMessagesReceived), 1u);
}

TEST(RecvProfile, PollRecordsASpanOnlyWhenItMatches) {
  obs::Scope scope;
  Mailbox mb;
  mb.deliver(env(0, 0, 1, 1));
  // A poll hit is a receive like any other: one kRecv span, one message.
  ASSERT_TRUE(mb.receive(0, 0, 1, Wait::poll()).has_value());
  // A poll miss waited for nothing and received nothing: no span.
  EXPECT_FALSE(mb.receive(0, 0, 1, Wait::poll()).has_value());
  // A deadline already in the past polls: the hit records its span too.
  const Wait spent = Wait::within(std::chrono::milliseconds(1));
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  mb.deliver(env(0, 0, 1, 2));
  ASSERT_TRUE(mb.receive(0, 0, 1, spent).has_value());

  const obs::Profile p = scope.finish();
  EXPECT_EQ(sum_counter(p, obs::Counter::kMessagesReceived), 2u);
  EXPECT_EQ(sum_spans(p, obs::SpanKind::kRecv), 2u);
}

}  // namespace
}  // namespace pml::mp

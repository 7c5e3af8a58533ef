/// \file timeout_race_test.cpp
/// \brief Races a deadline receive's timeout withdrawal against a concurrent
/// deliverer: whatever the interleaving, the message is delivered exactly
/// once or remains queued — never lost, never double-delivered. Swept under
/// several chaos seeds so the perturbation layer varies the interleavings.

#include "mp/mailbox.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "sched/sched.hpp"

namespace pml::mp {
namespace {

Envelope env(int ctx, int src, int tag, int value = 0) {
  return Envelope{ctx, src, tag, Codec<int>::encode(value)};
}

TEST(TimeoutRace, WithdrawalNeverLosesOrDuplicatesAMessage) {
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    sched::ChaosScope chaos{seed};
    for (int iter = 0; iter < 50; ++iter) {
      Mailbox mb;
      // Stagger the delivery across the receiver's whole wait window (and
      // past it), so some iterations deliver into the posted receive, some
      // into the withdrawal, and some after the receiver gave up.
      const auto stagger = std::chrono::microseconds((iter * 37) % 1500);
      std::jthread deliverer([&] {
        std::this_thread::sleep_for(stagger);
        mb.deliver(env(0, 0, 1, 42));
      });
      const auto got = mb.receive(0, 0, 1, Wait::within(std::chrono::milliseconds(1)));
      deliverer.join();
      const auto leftover = mb.receive(0, 0, 1, Wait::poll());
      const int seen = (got.has_value() ? 1 : 0) + (leftover.has_value() ? 1 : 0);
      EXPECT_EQ(seen, 1) << "seed " << seed << " iter " << iter
                         << ": message lost or duplicated across the "
                            "timeout-withdrawal race";
      if (got.has_value()) {
        EXPECT_EQ(Codec<int>::decode(got->data), 42);
      }
      if (leftover.has_value()) {
        EXPECT_EQ(Codec<int>::decode(leftover->data), 42);
      }
    }
  }
}

TEST(TimeoutRace, ZeroTimeoutPollsOnce) {
  Mailbox mb;
  mb.deliver(env(0, 0, 1, 5));
  // A queued match is returned immediately...
  const auto hit = mb.receive(0, 0, 1, Wait::within(std::chrono::milliseconds(0)));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(Codec<int>::decode(hit->data), 5);
  // ...and an empty mailbox answers without waiting.
  const auto t0 = std::chrono::steady_clock::now();
  const auto miss = mb.receive(0, 0, 1, Wait::within(std::chrono::milliseconds(0)));
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_FALSE(miss.has_value());
  EXPECT_LT(elapsed, std::chrono::milliseconds(100));
}

TEST(TimeoutRace, NegativeTimeoutAlsoPollsOnce) {
  Mailbox mb;
  mb.deliver(env(0, 0, 1, 6));
  const auto hit = mb.receive(0, 0, 1, Wait::within(std::chrono::milliseconds(-5)));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(Codec<int>::decode(hit->data), 6);
  EXPECT_FALSE(
      mb.receive(0, 0, 1, Wait::within(std::chrono::milliseconds(-5))).has_value());
}

}  // namespace
}  // namespace pml::mp

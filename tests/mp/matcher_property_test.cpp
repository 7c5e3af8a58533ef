// Matcher-equivalence property tests: the bucketed two-queue matcher inside
// Mailbox must be observationally identical to the old single-deque
// linear-scan matcher, which lives on here as a test oracle. Randomized
// deliver/receive/probe scripts (wildcards, several contexts, chaos seeds)
// are replayed against both; every result must agree, including the order
// wildcard receives drain concurrent sources in — that order *is* the MPI
// non-overtaking guarantee.

#include <gtest/gtest.h>

#include <deque>
#include <map>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "mp/communicator.hpp"
#include "mp/mailbox.hpp"
#include "mp/runtime.hpp"
#include "sched/sched.hpp"

namespace pml::mp {
namespace {

// ---------------------------------------------------------------------------
// The oracle: the pre-overhaul matcher, verbatim — one deque scanned in
// arrival order, first match wins.
// ---------------------------------------------------------------------------

class LinearOracle {
 public:
  void deliver(Envelope e) { queue_.push_back(std::move(e)); }

  std::optional<Envelope> try_receive(int context, int source, int tag) {
    for (auto it = queue_.begin(); it != queue_.end(); ++it) {
      if (matches(*it, context, source, tag)) {
        Envelope e = std::move(*it);
        queue_.erase(it);
        return e;
      }
    }
    return std::nullopt;
  }

  std::optional<Status> probe(int context, int source, int tag) const {
    for (const auto& e : queue_) {
      if (matches(e, context, source, tag)) {
        return Status{e.source, e.tag, e.data.size()};
      }
    }
    return std::nullopt;
  }

  std::size_t queued() const { return queue_.size(); }

 private:
  std::deque<Envelope> queue_;
};

Envelope make_envelope(int context, int source, int tag, std::uint32_t body) {
  Envelope e;
  e.context = context;
  e.source = source;
  e.tag = tag;
  e.data = Codec<std::uint32_t>::encode(body);
  return e;
}

std::uint32_t body_of(const Envelope& e) {
  return Codec<std::uint32_t>::decode(e.data);
}

// One randomized script: a few thousand operations over several contexts,
// sources, and tags, with exact and wildcard receive patterns. Each
// operation is applied to both matchers and the outcomes compared.
void run_script(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  Mailbox mailbox;
  LinearOracle oracle;

  const int contexts[] = {0, 1, 2};
  const int sources[] = {0, 1, 2, 3};
  const int tags[] = {0, 1, 2, 7};

  auto pick = [&rng](const auto& arr) {
    return arr[std::uniform_int_distribution<std::size_t>(
        0, std::size(arr) - 1)(rng)];
  };
  // Receive patterns draw wildcards with real probability.
  auto pick_source = [&] { return rng() % 3 == 0 ? kAnySource : pick(sources); };
  auto pick_tag = [&] { return rng() % 3 == 0 ? kAnyTag : pick(tags); };

  std::uint32_t next_body = 0;
  for (int step = 0; step < 4000; ++step) {
    switch (rng() % 4) {
      case 0:
      case 1: {  // deliver (weighted so queues build up)
        Envelope e = make_envelope(pick(contexts), pick(sources), pick(tags),
                                   next_body++);
        oracle.deliver(e);
        mailbox.deliver(std::move(e));
        break;
      }
      case 2: {  // poll receive
        const int c = pick(contexts);
        const int s = pick_source();
        const int t = pick_tag();
        auto got = mailbox.receive(c, s, t, Wait::poll());
        auto want = oracle.try_receive(c, s, t);
        ASSERT_EQ(got.has_value(), want.has_value())
            << "step " << step << " recv(" << c << "," << s << "," << t << ")";
        if (got) {
          // Identical message, not merely an equally-valid one: bodies are
          // unique serial numbers, so this pins the exact match order.
          EXPECT_EQ(body_of(*got), body_of(*want));
          EXPECT_EQ(got->source, want->source);
          EXPECT_EQ(got->tag, want->tag);
          EXPECT_EQ(got->context, want->context);
        }
        break;
      }
      default: {  // probe
        const int c = pick(contexts);
        const int s = pick_source();
        const int t = pick_tag();
        auto got = mailbox.probe(c, s, t);
        auto want = oracle.probe(c, s, t);
        ASSERT_EQ(got.has_value(), want.has_value());
        if (got) {
          EXPECT_EQ(got->source, want->source);
          EXPECT_EQ(got->tag, want->tag);
          EXPECT_EQ(got->bytes, want->bytes);
        }
        break;
      }
    }
    ASSERT_EQ(mailbox.queued(), oracle.queued());
  }

  // Drain with wildcard receives: full arrival order must agree to the end.
  while (auto want = oracle.try_receive(0, kAnySource, kAnyTag)) {
    auto got = mailbox.receive(0, kAnySource, kAnyTag, Wait::poll());
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(body_of(*got), body_of(*want));
  }
  for (int c : contexts) {
    while (auto want = oracle.try_receive(c, kAnySource, kAnyTag)) {
      auto got = mailbox.receive(c, kAnySource, kAnyTag, Wait::poll());
      ASSERT_TRUE(got.has_value());
      EXPECT_EQ(body_of(*got), body_of(*want));
    }
    EXPECT_FALSE(mailbox.receive(c, kAnySource, kAnyTag, Wait::poll()).has_value());
  }
  EXPECT_EQ(mailbox.queued(), 0u);
}

TEST(MatcherEquivalence, RandomScriptsMatchLinearOracle) {
  for (std::uint64_t seed : {1ull, 2ull, 3ull, 17ull, 99ull, 12345ull}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    run_script(seed);
  }
}

// The same scripts under schedule perturbation: chaos must not change
// matching semantics (it reorders *arrival*, which here is serialized by
// the single-threaded script, so results must stay bit-identical).
TEST(MatcherEquivalence, RandomScriptsMatchUnderChaosSeeds) {
  for (std::uint64_t chaos_seed : {1ull, 7ull, 42ull}) {
    SCOPED_TRACE("chaos seed " + std::to_string(chaos_seed));
    sched::ChaosScope chaos(chaos_seed);
    run_script(1000 + chaos_seed);
  }
}

// ---------------------------------------------------------------------------
// Non-overtaking regression: across threads and under chaos, messages from
// one source on one tag must be received in send order even when drained
// through full wildcards, with other (source, tag) streams interleaving
// arbitrarily.
// ---------------------------------------------------------------------------

TEST(MatcherEquivalence, NonOvertakingPerSourceTagUnderChaos) {
  constexpr int kPerStream = 50;
  for (std::uint64_t chaos_seed : {1ull, 7ull, 42ull}) {
    SCOPED_TRACE("chaos seed " + std::to_string(chaos_seed));
    sched::ChaosScope chaos(chaos_seed);
    mp::run(4, [&](Communicator& world) {
      const int receiver = 0;
      if (world.rank() != receiver) {
        // Two tagged streams per sender, each a numbered sequence.
        for (int i = 0; i < kPerStream; ++i) {
          world.send(i, receiver, /*tag=*/0);
          world.send(1000 + i, receiver, /*tag=*/1);
        }
        return;
      }
      // key = (source, tag) -> last sequence number seen.
      std::map<std::pair<int, int>, int> last;
      Status st;
      const int total = (world.size() - 1) * kPerStream * 2;
      for (int n = 0; n < total; ++n) {
        const int value = world.recv<int>(kAnySource, kAnyTag, &st);
        auto [it, fresh] = last.try_emplace({st.source, st.tag}, -1);
        // Within one (source, tag) stream, values must arrive in send
        // order — the non-overtaking guarantee. Streams may interleave.
        EXPECT_LT(it->second, value)
            << "source " << st.source << " tag " << st.tag << " overtook";
        it->second = value;
      }
      for (const auto& [key, seen] : last) {
        const int expect = key.second == 0 ? kPerStream - 1 : 1000 + kPerStream - 1;
        EXPECT_EQ(seen, expect);
      }
    });
  }
}

// Direct-handoff path: a receive posted *before* the message exists must
// get the same envelope a queued-first receive would, including wildcards.
TEST(MatcherEquivalence, PostedReceiveHandoffMatchesSemantics) {
  for (std::uint64_t chaos_seed : {1ull, 7ull, 42ull}) {
    SCOPED_TRACE("chaos seed " + std::to_string(chaos_seed));
    sched::ChaosScope chaos(chaos_seed);
    mp::run(2, [](Communicator& world) {
      if (world.rank() == 0) {
        // Likely posted before the peer sends: exercises the handoff.
        Status st;
        const int v = world.recv<int>(kAnySource, kAnyTag, &st);
        EXPECT_EQ(v, 7777);
        EXPECT_EQ(st.source, 1);
        EXPECT_EQ(st.tag, 5);
        world.send(1, 1, /*tag=*/9);
      } else {
        world.send(7777, 0, /*tag=*/5);
        EXPECT_EQ(world.recv<int>(0, 9), 1);
      }
    });
  }
}

}  // namespace
}  // namespace pml::mp

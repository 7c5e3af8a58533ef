/// \file overhead_test.cpp
/// \brief The "free when off" regression gate: with no profiling Scope
/// active, the obs hooks must add under 2% run time to a loop-heavy
/// workload, measured against the same loop compiled with no hooks at all
/// (the build-time-disabled baseline).
///
/// Methodology: two structurally identical loops in this TU — one carrying
/// the exact hook pattern the substrates use per chunk (a SpanScope plus a
/// counter hook), one hook-free. Both are timed as min-of-N with the
/// measurements interleaved, so machine noise (frequency steps, a stray
/// daemon) hits both sides alike and the minimum approximates the noise-free
/// cost. Each loop is timed in this thread's CPU time, not wall time, so
/// the time the thread spends descheduled (a parallel ctest run keeps every
/// core busy) is charged to neither side. The hooks compile to one relaxed
/// atomic load plus an untaken branch each, which the per-chunk arithmetic
/// below dwarfs.

#include <gtest/gtest.h>

#include <time.h>

#include <algorithm>
#include <cstdint>

#include "obs/obs.hpp"

namespace pml::obs {
namespace {

constexpr int kChunks = 4000;
constexpr int kOpsPerChunk = 256;
constexpr int kRepetitions = 9;

/// The per-chunk payload: enough arithmetic that a chunk costs hundreds of
/// nanoseconds. noinline so both loops call identical code.
[[gnu::noinline]] std::uint64_t mix_chunk(std::uint64_t x) {
  x |= 1;
  for (int i = 0; i < kOpsPerChunk; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  return x;
}

/// Runtime-opaque seed: a volatile read per measurement keeps the compiler
/// from constant-folding the (pure, deterministic) plain loop away.
volatile std::uint64_t g_seed = 0x9e3779b97f4a7c15ULL;

[[gnu::noinline]] std::uint64_t plain_loop(std::uint64_t acc) {
  for (int c = 0; c < kChunks; ++c) acc = mix_chunk(acc + static_cast<std::uint64_t>(c));
  return acc;
}

[[gnu::noinline]] std::uint64_t hooked_loop(std::uint64_t acc) {
  for (int c = 0; c < kChunks; ++c) {
    // The per-chunk hook pattern Region::for_each compiles in, plus the
    // v2 hooks the message path adds: a flow stamp pair and a registry
    // histogram observation. Off, each is one relaxed load + untaken branch.
    SpanScope chunk{SpanKind::kChunk, "chunk", c, c + 1};
    count(Counter::kChunks);
    const std::uint64_t flow = flow_emit(1, 7, 64);
    flow_recv(flow, 0, 7, 64);
    observe(Metric::kMessageLatency, static_cast<std::uint64_t>(c));
    acc = mix_chunk(acc + static_cast<std::uint64_t>(c));
  }
  return acc;
}

double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double seconds_of(std::uint64_t (*loop)(std::uint64_t), std::uint64_t& sink) {
  const std::uint64_t seed = g_seed;
  const double t0 = thread_cpu_seconds();
  sink += loop(seed);
  return thread_cpu_seconds() - t0;
}

TEST(ObsOverhead, HooksAreFreeWhenProfilingIsOff) {
  ASSERT_FALSE(active()) << "a leaked Scope would invalidate this measurement";

  std::uint64_t sink = 0;
  // Warm-up: page in both paths and settle the clock.
  seconds_of(plain_loop, sink);
  seconds_of(hooked_loop, sink);

  double plain_min = 1e9;
  double hooked_min = 1e9;
  for (int rep = 0; rep < kRepetitions; ++rep) {
    plain_min = std::min(plain_min, seconds_of(plain_loop, sink));
    hooked_min = std::min(hooked_min, seconds_of(hooked_loop, sink));
  }
  ASSERT_NE(sink, 0u);  // keep the loops observable

  EXPECT_LE(hooked_min, plain_min * 1.02)
      << "off-path obs hooks cost " << (hooked_min / plain_min - 1.0) * 100.0
      << "% on a loop-heavy workload (plain " << plain_min * 1e3 << " ms, hooked "
      << hooked_min * 1e3 << " ms)";
}

TEST(ObsOverhead, HookedLoopMatchesPlainResult) {
  // The instrumentation must be observationally transparent.
  EXPECT_EQ(plain_loop(g_seed), hooked_loop(g_seed));
}

}  // namespace
}  // namespace pml::obs

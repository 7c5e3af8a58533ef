#pragma once

/// \file knobs.hpp
/// \brief The message-passing runtime's PML_* environment knobs, declared
/// once. mp::run resolves each as "the RunOptions field, else the variable,
/// else the built-in default"; patternlet_runner's --help lists them.
/// Header-only, so the runner's help needs no link against pml_mp.

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>

#include "core/env.hpp"

namespace pml::mp {

/// Which collective algorithm the dispatching entry points use. kAuto picks
/// per call on (payload bytes, communicator size, op commutativity); the
/// forced values exist for ablation benches and teaching exercises. Forcing
/// an algorithm whose preconditions a call cannot meet (ring needs a
/// commutative op; ring/segmentation need a vector body) falls back to the
/// tree, so a forced run always computes the same result.
enum class CollAlgorithm {
  kAuto = 0,   ///< Select per call: bandwidth-optimal when it pays.
  kTree,       ///< Binomial tree (latency-optimal; the paper's Fig. 19).
  kRing,       ///< Ring reduce-scatter + allgather (bandwidth-optimal).
  kButterfly,  ///< Recursive doubling.
};

/// "auto" | "tree" | "ring" | "butterfly"; anything else throws UsageError.
inline CollAlgorithm parse_coll_algorithm(std::string_view name, std::string_view text) {
  if (text == "auto") return CollAlgorithm::kAuto;
  if (text == "tree") return CollAlgorithm::kTree;
  if (text == "ring") return CollAlgorithm::kRing;
  if (text == "butterfly") return CollAlgorithm::kButterfly;
  throw UsageError(std::string(name) + " must be auto|tree|ring|butterfly, got \"" +
                   std::string(text) + "\"");
}

inline constexpr env::Knob<std::chrono::milliseconds> kCollectiveTimeoutKnob{
    {"PML_MP_COLLECTIVE_TIMEOUT_MS",
     "bound every receive inside a collective to this many ms (0 = unbounded)"},
    [](std::string_view name, std::string_view text) {
      return std::chrono::milliseconds(
          static_cast<std::chrono::milliseconds::rep>(env::parse_in(name, text, 0, INT64_MAX)));
    }};
inline constexpr env::Knob<std::uint64_t> kEagerBytesKnob{
    {"PML_MP_EAGER_BYTES",
     "bodies above this many bytes move by rendezvous (default 8192; 0 = all)"},
    &env::parse_u64};
inline constexpr env::Knob<std::uint64_t> kCollSegmentBytesKnob{
    {"PML_MP_COLL_SEGMENT_BYTES",
     "pipeline segment and ring bar for collectives (default 262144; 0 = off)"},
    &env::parse_u64};
inline constexpr env::Knob<CollAlgorithm> kCollAlgorithmKnob{
    {"PML_MP_COLL_ALGO", "force the collective algorithm: auto|tree|ring|butterfly"},
    &parse_coll_algorithm};

/// Every knob above, in --help order.
inline constexpr const env::Doc* kEnvKnobs[] = {
    &kCollectiveTimeoutKnob, &kEagerBytesKnob, &kCollSegmentBytesKnob, &kCollAlgorithmKnob};

}  // namespace pml::mp

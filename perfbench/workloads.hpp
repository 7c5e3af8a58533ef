#pragma once

/// \file workloads.hpp
/// \brief The four perfbench workloads and the layer probes.
///
/// Every workload is a closed loop with one client: the next op starts
/// only after the previous one returned. The seed changes input contents
/// (catalog order, heat field, vector values) and never the traffic, so
/// message and byte counts repeat exactly across seeds.

#include <cstdint>
#include <functional>

#include "harness.hpp"

namespace pml::obs {
struct Profile;
}

namespace perfbench {

/// `catalog`: each op is one pml::run of one registered patternlet at 2
/// tasks, in a seeded order. Fixed per-run cost (spawn, watchdog, scopes,
/// output capture) dominates.
Outcome run_catalog(const Options& opt);

/// `explain`: each op is one profiled pml::run of an MPI or heterogeneous
/// patternlet at 2 tasks, then obs::critical_path, its report, and
/// obs::metrics_json. Measures the obs layer.
Outcome run_explain(const Options& opt);

/// `halo`: one long mp::run at np=2 of 1-D heat diffusion; each op is one
/// step (halo exchange of small eager messages, the stencil, and every
/// few steps a small allreduce of heat and residual). Mailbox handoff and
/// matching dominate; lifecycle is paid once.
Outcome run_halo(const Options& opt);

/// `bulk`: one long mp::run at np=3; each op is one large-vector allreduce
/// or broadcast on a fixed 256 KiB..4 MiB schedule. Payload movement,
/// rendezvous transfer and combine kernels dominate.
Outcome run_bulk(const Options& opt);

/// Workload-independent layer probes run in every traced run: empty
/// mp::run / smp::parallel / thread::fork_join at 2, rank spawn and join
/// latency, and single-thread mailbox matching with the halo's tag mix.
void run_probes(Outcome& out);

/// Message, byte, copy and span totals of one counting pass.
struct Counts {
  double msgs = 0;
  double bytes = 0;
  double copied = 0;
  double spans = 0;
  std::uint64_t input_digest = 0;  ///< Identifies the seeded inputs.

  /// The counts of this pass minus those of \p base (same digest kept).
  Counts minus(const Counts& base) const {
    return {msgs - base.msgs, bytes - base.bytes, copied - base.copied,
            spans - base.spans, input_digest};
  }
};

/// Adds \p profile's totals into \p c.
void add_counts(Counts& c, const pml::obs::Profile& profile);

/// Self-test and count report: runs \p pass (a fixed number \p ops of ops
/// under obs counting) for the run's seed and for a second seed, checks
/// that the inputs differ while message and byte counts repeat exactly,
/// and in traced runs reports the per-op counts.
void count_and_self_test(Outcome& out, const Options& opt, double ops,
                         const std::function<Counts(std::uint64_t seed)>& pass);

/// splitmix64: the benchmark's seeded generator.
inline std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace perfbench

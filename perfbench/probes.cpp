/// \file probes.cpp
/// \brief Layer probes and the counting pass shared by all workloads.

#include <algorithm>
#include <array>
#include <cstdio>

#include "mp/mp.hpp"
#include "obs/profile.hpp"
#include "smp/team.hpp"
#include "thread/thread.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr int kProbeReps = 300;
constexpr int kMatchBatches = 41;
constexpr int kMatchPairsPerBatch = 2000;

}  // namespace

void run_probes(Outcome& out) {
  Samples empty_run, spawn, join;
  for (int i = 0; i < kProbeReps; ++i) {
    std::array<std::uint64_t, 2> entered{}, left{};
    const std::uint64_t t0 = now_ns();
    pml::mp::run(2, [&](pml::mp::Communicator& comm) {
      entered[comm.rank()] = now_ns();
      left[comm.rank()] = now_ns();
    });
    const std::uint64_t t1 = now_ns();
    const std::uint64_t last_in = std::max(entered[0], entered[1]);
    const std::uint64_t last_out = std::max(left[0], left[1]);
    empty_run.add(static_cast<double>(t1 - t0) / 1e3);
    spawn.add(static_cast<double>(last_in - t0) / 1e3);
    join.add(static_cast<double>(t1 - last_out) / 1e3);
  }
  report_latency(out, "mp.runtime.empty_run_us", empty_run);
  out.metric("mp.runtime.spawn_us", spawn.median(), "us");
  out.metric("mp.runtime.join_us", join.median(), "us");

  Samples region;
  for (int i = 0; i < kProbeReps; ++i) {
    const std::uint64_t t0 = now_ns();
    pml::smp::parallel(2, [](pml::smp::Region&) {});
    region.add(static_cast<double>(now_ns() - t0) / 1e3);
  }
  report_latency(out, "smp.region_empty_us", region);

  Samples fork_join;
  for (int i = 0; i < kProbeReps; ++i) {
    const std::uint64_t t0 = now_ns();
    pml::thread::fork_join(2, [](int) {});
    fork_join.add(static_cast<double>(now_ns() - t0) / 1e3);
  }
  report_latency(out, "thread.fork_join_empty_us", fork_join);

  // Matching without handoff: one thread delivers and receives the halo's
  // two edge messages (source 1, tags 1 and 2, world context) on a
  // benchmark-owned mailbox, receiving in the opposite order to delivery.
  pml::mp::Mailbox mailbox;
  const pml::mp::Payload body = pml::mp::Codec<double>::encode(1.0);
  Samples match;
  for (int b = 0; b < kMatchBatches; ++b) {
    const std::uint64_t t0 = now_ns();
    for (int i = 0; i < kMatchPairsPerBatch / 2; ++i) {
      mailbox.deliver(pml::mp::Envelope{0, 1, 1, body});
      mailbox.deliver(pml::mp::Envelope{0, 1, 2, body});
      mailbox.receive(0, 1, 2);
      mailbox.receive(0, 1, 1);
    }
    match.add(static_cast<double>(now_ns() - t0) / kMatchPairsPerBatch);
  }
  out.metric("mp.mailbox.match_ns", match.median(), "ns");
  char line[120];
  std::snprintf(line, sizeof(line),
                "mp.mailbox.match_ns: p50 %.2f ns, n=%llu batches of %d", match.median(),
                static_cast<unsigned long long>(match.size()), kMatchPairsPerBatch);
  out.note(line);
}

void add_counts(Counts& c, const pml::obs::Profile& profile) {
  for (const auto& [task, m] : profile.tasks) {
    c.msgs += static_cast<double>(m.value(pml::obs::Counter::kMessagesSent));
    c.copied += static_cast<double>(m.value(pml::obs::Counter::kPayloadBytesCopied));
  }
  for (const auto& f : profile.flows) {
    if (f.phase == pml::obs::FlowPhase::kEmit) c.bytes += static_cast<double>(f.bytes);
  }
  c.spans += static_cast<double>(profile.spans.size() + profile.spans_dropped);
}

void count_and_self_test(Outcome& out, const Options& opt, double ops,
                         const std::function<Counts(std::uint64_t seed)>& pass) {
  const Counts a = pass(opt.seed);
  const Counts b = pass(mix64(opt.seed) | 1);
  if (a.input_digest == b.input_digest) out.fail_check("two seeds gave identical inputs");
  if (a.msgs != b.msgs || a.bytes != b.bytes) {
    out.fail_check("message or byte counts differ between seeds");
  }
  char line[200];
  std::snprintf(line, sizeof(line),
                "self-test: two seeds, inputs %s, msgs %.0f vs %.0f, bytes %.0f vs %.0f "
                "per %.0f ops",
                a.input_digest != b.input_digest ? "differ" : "SAME", a.msgs, b.msgs,
                a.bytes, b.bytes, ops);
  out.note(line);
  if (!opt.trace) return;
  out.metric("mp.msgs_per_op", a.msgs / ops, "count");
  out.metric("mp.bytes_per_op", a.bytes / ops, "B");
  out.metric("mp.payload.copied_bytes_per_op", a.copied / ops, "B");
  out.metric("mp.payload.copy_ratio", a.bytes > 0 ? a.copied / a.bytes : 0.0, "ratio");
  out.metric("obs.spans_per_op", a.spans / ops, "count");
}

}  // namespace perfbench

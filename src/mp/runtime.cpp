#include "mp/runtime.hpp"

#include <algorithm>
#include <any>
#include <condition_variable>
#include <exception>
#include <map>
#include <mutex>
#include <numeric>
#include <optional>
#include <set>
#include <stop_token>
#include <string>
#include <thread>

#include "analyze/analyze.hpp"
#include "ckpt/ckpt.hpp"
#include "fault/fault.hpp"
#include "mp/communicator.hpp"
#include "obs/obs.hpp"
#include "sched/coop.hpp"
#include "smp/wtime.hpp"
#include "thread/thread.hpp"

namespace pml::mp {

namespace detail {

RuntimeState::RuntimeState(int np, Cluster c) : nprocs(np), cluster(std::move(c)) {
  mailboxes.reserve(static_cast<std::size_t>(np));
  for (int r = 0; r < np; ++r) mailboxes.push_back(std::make_unique<Mailbox>());
  ckpt_calls.assign(static_cast<std::size_t>(np), 0);
}

std::shared_ptr<pml::thread::Event> RuntimeState::register_ack(std::uint64_t id) {
  auto event = std::make_shared<pml::thread::Event>();
  std::lock_guard lock(ack_mu);
  if (!acks_closed) return acks.emplace(id, event).first->second;
  // No ack can come after poison_all(): release the sender at once rather
  // than park it on an event the shutdown sweep already passed.
  event->set();
  return event;
}

void RuntimeState::acknowledge(std::uint64_t id) {
  std::shared_ptr<pml::thread::Event> event;
  {
    std::lock_guard lock(ack_mu);
    auto it = acks.find(id);
    if (it == acks.end()) return;  // duplicate ack; ignore
    event = it->second;
    acks.erase(it);
  }
  event->set();
}

void RuntimeState::forget_ack(std::uint64_t id) {
  std::lock_guard lock(ack_mu);
  acks.erase(id);
}

void RuntimeState::poison_all() {
  for (auto& mb : mailboxes) mb->poison();
  // Release any rank blocked in an ssend, too.
  std::lock_guard lock(ack_mu);
  acks_closed = true;
  for (auto& [id, event] : acks) event->set();
  acks.clear();
}

}  // namespace detail

namespace {

/// The env-tunable knobs, resolved once per job.
struct Knobs {
  std::chrono::milliseconds collective_timeout;
  std::size_t eager_bytes;
  std::size_t coll_segment_bytes;
  CollAlgorithm coll_algorithm;
};

/// Resolves each knob with the strict parser: "PML_MP_EAGER_BYTES=8kb" or a
/// negative timeout fails loudly naming the variable instead of silently
/// becoming 8 or wrapping around. A zero RunOptions::collective_timeout
/// means "unset".
Knobs resolve_knobs(const RunOptions& options) {
  return {kCollectiveTimeoutKnob.resolve(options.collective_timeout.count() != 0
                                             ? std::optional(options.collective_timeout)
                                             : std::nullopt,
                                         std::chrono::milliseconds{0}),
          kEagerBytesKnob.resolve(options.eager_bytes, kDefaultEagerBytes),
          kCollSegmentBytesKnob.resolve(options.coll_segment_bytes, kDefaultCollSegmentBytes),
          kCollAlgorithmKnob.resolve(options.coll_algorithm, CollAlgorithm::kAuto)};
}

/// The job's checkpoint store, or nullptr when checkpointing is off. A
/// process-wide ckpt::Scope (the runner's --ckpt) wins; otherwise
/// RunOptions::checkpoint_interval builds a job-local in-memory store in
/// \p local. Either way begin_job() drops cuts left over from a previous
/// job sharing the store (and adopts --restart-from once).
ckpt::Store* open_store(const RunOptions& options, std::unique_ptr<ckpt::Store>& local) {
  ckpt::Store* store = ckpt::current();
  if (store == nullptr && options.checkpoint_interval.has_value()) {
    ckpt::Options copts;
    copts.interval = *options.checkpoint_interval;
    copts.max_restarts = options.max_restarts;
    local = std::make_unique<ckpt::Store>(copts);
    store = local.get();
  }
  if (store != nullptr) store->begin_job();
  return store;
}

/// Fresh runtime state for one attempt on \p cluster.
std::shared_ptr<detail::RuntimeState> make_state(int nprocs, Cluster cluster,
                                                 const Knobs& knobs, ckpt::Store* store) {
  auto state = std::make_shared<detail::RuntimeState>(nprocs, std::move(cluster));
  state->start_time = pml::smp::wtime();
  state->collective_timeout = knobs.collective_timeout;
  state->eager_bytes = knobs.eager_bytes;
  state->coll_segment_bytes = knobs.coll_segment_bytes;
  state->coll_algorithm = knobs.coll_algorithm;
  state->ckpt_store = store;
  return state;
}

/// Binds an active fault plan to this attempt's topology: node names in the
/// spec resolve against the cluster (a bad name throws UsageError before any
/// thread spawns) and a crashing node gets the power to poison its ranks'
/// mailboxes.
fault::JobHooks fault_hooks(detail::RuntimeState& state) {
  fault::JobHooks hooks;
  hooks.nprocs = state.nprocs;
  hooks.resolve_node = [cl = &state.cluster](const std::string& name) {
    return cl->find_node(name);
  };
  hooks.node_of = [cl = &state.cluster, np = state.nprocs](int r) { return cl->node_of(r, np); };
  hooks.node_name = [cl = &state.cluster](int n) { return cl->node_name(n); };
  hooks.poison_rank = [st = &state](int r) {
    st->mailboxes[static_cast<std::size_t>(r)]->poison();
  };
  return hooks;
}

/// Restores from the committed cut when there is one: after a crash on a
/// previous attempt, or on the very first attempt when the store adopted a
/// --restart-from snapshot. The channel state — queued envelopes and parked
/// rendezvous bodies — is replayed into the fresh mailboxes/table here,
/// before any rank runs; each rank's own slice of the cut (its serialized
/// state and fault lane counters) is read by its own thread. A crash that
/// beat the first commit leaves no cut, and the attempt replays from
/// scratch (on the re-hosted cluster, so the crash cannot recur).
void restore_from_cut(detail::RuntimeState& state, ckpt::Store& store) {
  std::shared_ptr<const ckpt::GlobalCut> cut = store.committed();
  if (cut == nullptr || cut->nprocs != state.nprocs) return;
  for (int r = 0; r < state.nprocs; ++r) {
    const auto idx = static_cast<std::size_t>(r);
    const ckpt::RankState& rs = cut->ranks[idx];
    for (const Envelope& queued : rs.mailbox) {
      Envelope e = queued;
      // This job stamps its own ack/analyze/obs ids; a stale ack id could
      // complete the wrong ssend. The original sender's ack already fired
      // (or it gave up) before the cut.
      e.wants_ack = false;
      e.ack_id = 0;
      e.analyze_id = 0;
      e.send_ns = 0;
      e.flow = 0;
      e.seq = 0;
      state.mailboxes[idx]->deposit_trusted(std::move(e));
    }
    for (const ckpt::ParkedCopy& pc : rs.parks) {
      RendezvousTable::Parked parked;
      parked.storage.emplace<std::vector<std::byte>>(pc.bytes);
      // The view must come from the vector inside the std::any (heap-held,
      // stable across later moves of Parked).
      auto& held = *std::any_cast<std::vector<std::byte>>(&parked.storage);
      parked.data = held.data();
      parked.bytes = held.size();
      parked.sender = pc.sender;
      parked.dest = pc.dest;
      parked.tag = pc.tag;
      parked.context = pc.context;
      state.rendezvous.restore(pc.ticket, std::move(parked));
    }
  }
  state.ckpt_cut = std::move(cut);
  state.ckpt_pending.assign(static_cast<std::size_t>(state.nprocs), 1);
  store.note_restored_ranks(state.nprocs);
}

/// Progress hooks feeding the deadlock watchdog and the message trace.
/// Installed after the restore so replayed envelopes count as neither.
void watch_progress(detail::RuntimeState& state, pml::Trace* trace) {
  for (int dest = 0; dest < state.nprocs; ++dest) {
    Mailbox& mb = *state.mailboxes[static_cast<std::size_t>(dest)];
    mb.set_owner(dest);
    mb.set_progress_hooks(
        [st = &state](int delta) { st->blocked.fetch_add(delta, std::memory_order_relaxed); },
        [st = &state, trace, dest](const Mailbox::DeliveryInfo& m) {
          st->deliveries.fetch_add(1, std::memory_order_relaxed);
          if (trace != nullptr) {
            trace->record(m.source, "message", dest, static_cast<std::int64_t>(m.bytes));
          }
        });
  }
}

/// Deadlock watchdog for one attempt: if every still-running rank sits in an
/// indefinite wait and no message is delivered for the whole grace period,
/// nothing can ever make progress (only ranks produce messages) — abort with
/// a diagnosis instead of hanging the process. An in-flight checkpoint write
/// counts as progress: a slow seal parks every rank on the release barrier,
/// which is delivery-quiescent but very much not a deadlock. Under
/// cooperative verification the scheduler itself proves deadlocks (a
/// fruitless sweep over all blocked lanes), so the wall-clock watchdog would
/// only add an unmanaged thread and false timing. Destroying the returned
/// thread stops and joins it.
std::jthread start_watchdog(detail::RuntimeState& state, const ckpt::Store* store,
                            std::chrono::milliseconds grace) {
  if (grace.count() <= 0 || sched::coop_active()) return {};
  return std::jthread([&state, store, grace](const std::stop_token& stop) {
    const auto tick = std::chrono::milliseconds(50);
    const long needed_ticks = std::max<long>(1, grace.count() / tick.count());
    long stuck_ticks = 0;
    std::uint64_t last_deliveries = state.deliveries.load();
    std::mutex mu;
    std::condition_variable_any cv;
    std::unique_lock lock(mu);
    // wait_for returns true once the job finishes (no 50ms teardown penalty
    // for short jobs); false means one tick elapsed — inspect.
    while (!cv.wait_for(lock, stop, tick, [&] { return stop.stop_requested(); })) {
      const int live = state.nprocs - state.finished.load(std::memory_order_relaxed);
      const int blocked = state.blocked.load(std::memory_order_relaxed);
      const std::uint64_t delivered = state.deliveries.load();
      const bool writing = store != nullptr && store->write_active();
      if (live > 0 && blocked == live && delivered == last_deliveries && !writing) {
        if (++stuck_ticks >= needed_ticks) {
          state.deadlock_detected.store(true);
          state.poison_all();
          return;
        }
      } else {
        stuck_ticks = 0;
        last_deliveries = delivered;
      }
    }
  });
}

/// Runs `program` on every rank through thread::fork_join — the same
/// fork/join substrate the Pthreads and OpenMP patternlets stand on, which
/// brings the per-rank perturbation lane, cooperative-scheduler lane,
/// analyzer fork/join edges and one "rank" region span. Returns each rank's
/// exception (null for a rank that returned).
std::vector<std::exception_ptr> spawn_ranks(const std::shared_ptr<detail::RuntimeState>& state,
                                            const std::function<void(Communicator&)>& program,
                                            const RunOptions& options) {
  const int nprocs = state->nprocs;
  std::vector<int> world_group(static_cast<std::size_t>(nprocs));
  std::iota(world_group.begin(), world_group.end(), 0);
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(nprocs));
  const std::jthread watchdog = start_watchdog(*state, state->ckpt_store, options.deadlock_grace);
  thread::fork_join(
      nprocs,
      [&](int r) {
        const auto idx = static_cast<std::size_t>(r);
        if (state->ckpt_cut != nullptr && fault::active()) {
          // Resume the fault decision stream where the cut froze it, so a
          // seeded run replays the identical injections across a restart.
          const ckpt::RankState& rs = state->ckpt_cut->ranks[idx];
          fault::lane_restore({rs.fault_deliveries, rs.fault_checkpoints});
        }
        Communicator world(state, /*context=*/0, world_group, r);
        // Topology for the profile: which virtual node hosts this rank (the
        // Perfetto process lane).
        if (obs::active()) {
          obs::on_task_placed(r, state->cluster.node_name(state->cluster.node_of(r, nprocs)));
        }
        try {
          program(world);
        } catch (const sched::CoopAbort&) {
          // Verification run aborted mid-wait; unwind quietly.
        } catch (const fault::NodeCrashFault&) {
          // A contained failure: the crash already poisoned exactly the
          // mailboxes on the dead node, so healthy ranks keep running — that
          // is the whole point of injecting a node crash. No poison_all;
          // finished++ below still keeps the watchdog honest.
          errors[idx] = std::current_exception();
        } catch (...) {
          errors[idx] = std::current_exception();
          // A dead rank would leave peers blocked forever; wake them so the
          // job aborts instead of hanging.
          state->poison_all();
        }
        state->finished.fetch_add(1, std::memory_order_relaxed);
      },
      "rank");
  return errors;
}

/// What the ranks' exceptions say about one attempt, read in one pass.
struct Diagnosis {
  /// The root cause to rethrow, picked by class: a program error, else an
  /// injected node crash, else a RuntimeFault — the lowest rank's within a
  /// class. A node crash outranks the secondary "runtime shut down" faults
  /// its poison pill induced in healthy ranks, but never masks a genuine
  /// program error.
  std::exception_ptr root;
  std::set<int> crashed_nodes;  ///< Nodes a NodeCrashFault named.
};

Diagnosis diagnose(const std::vector<std::exception_ptr>& errors) {
  Diagnosis d;
  int root_class = 0;  // 0 none, 1 RuntimeFault, 2 node crash, 3 program error
  for (const auto& e : errors) {
    if (!e) continue;
    int rank_class = 3;
    try {
      std::rethrow_exception(e);
    } catch (const fault::NodeCrashFault& f) {
      rank_class = 2;
      d.crashed_nodes.insert(f.node());
    } catch (const RuntimeFault&) {
      rank_class = 1;
    } catch (...) {
    }
    if (rank_class > root_class) {
      d.root = e;
      root_class = rank_class;
    }
  }
  return d;
}

/// Moves every rank hosted on a dead node onto the surviving nodes,
/// round-robin, by adding to \p rehost. False when no node survives.
bool rehost_on_survivors(const Cluster& cluster, int nprocs, const std::set<int>& dead,
                         std::map<int, int>& rehost) {
  std::vector<int> survivors;
  for (int n = 0; n < cluster.node_count(); ++n) {
    if (dead.count(n) == 0) survivors.push_back(n);
  }
  if (survivors.empty()) return false;
  std::size_t next = 0;
  for (int r = 0; r < nprocs; ++r) {
    if (dead.count(cluster.node_of(r, nprocs)) != 0) {
      rehost[r] = survivors[next++ % survivors.size()];
    }
  }
  return true;
}

/// Finalize-time channel checks. Any message still queued was sent but
/// never received — the MPI "unmatched send" bug class. A body parked for
/// an RTS that was dropped (or never received) must not outlive the job:
/// draining frees it by construction (`stalled` owns the buffers), and the
/// comm lint names each stall so `--analyze --fault` explains the recovery
/// toggle.
void finalize_channels(detail::RuntimeState& state) {
  const auto stalled = state.rendezvous.drain();
  if (!analyze::active()) return;
  for (int dest = 0; dest < state.nprocs; ++dest) {
    for (const Envelope& e : state.mailboxes[static_cast<std::size_t>(dest)]->snapshot()) {
      analyze::on_mp_leftover(dest, e.source, e.tag, e.context);
    }
  }
  for (const auto& p : stalled) {
    analyze::on_mp_rdv_stalled(p.sender, p.dest, p.tag, p.context, p.bytes);
  }
}

[[noreturn]] void throw_deadlock(std::chrono::milliseconds grace) {
  std::string msg =
      "deadlock detected: all live ranks were blocked in indefinite "
      "receives/synchronous sends with no message in flight for " +
      std::to_string(grace.count()) + " ms";
  if (fault::active()) {
    // The hang is (probably) induced, not inherent: say so, and teach the
    // recovery toggles. The analyze lint gets the same event so
    // `--analyze --fault` names the fix in its findings.
    const fault::Stats fs = fault::stats();
    if (fs.dropped > 0) {
      analyze::on_mp_fault_stall(fs.dropped, grace.count());
      msg += " (fault injection dropped " + std::to_string(fs.dropped) +
             " message(s); make the pattern fault-tolerant with "
             "Communicator::send_with_retry / recv_retry, or set "
             "RunOptions::collective_timeout so collectives degrade "
             "instead of hanging)";
    }
    const std::vector<int> dead = fault::crashed_ranks();
    if (!dead.empty()) {
      msg += " [crashed ranks:";
      for (int r : dead) msg += " " + std::to_string(r);
      msg += "]";
    }
  }
  throw DeadlockError(msg);
}

}  // namespace

void run(int nprocs, const std::function<void(Communicator&)>& program,
         const RunOptions& options) {
  if (nprocs <= 0) throw UsageError("mp::run: nprocs must be positive");
  if (!program) throw UsageError("mp::run: program must be callable");
  const Knobs knobs = resolve_knobs(options);
  std::unique_ptr<ckpt::Store> local_store;
  ckpt::Store* const store = open_store(options, local_store);
  const int max_restarts = store != nullptr ? store->options().max_restarts : 0;

  // Elastic recovery bookkeeping, accumulated across attempts: nodes the
  // crash action has killed so far, and the rank -> surviving-node
  // overrides the next attempt's cluster is built with.
  std::set<int> dead_nodes;
  std::map<int, int> rehost;
  for (int attempt = 0;; ++attempt) {
    Cluster cluster = options.cluster;
    for (const auto& [r, n] : rehost) cluster.rehost(r, n);
    const auto state = make_state(nprocs, std::move(cluster), knobs, store);
    // Declared after `state` so the binding unhooks before the state it
    // points into is torn down. Rebinding per attempt also clears the
    // crashed-rank list, so ranks recovered on a previous attempt are not
    // double-reported to the caller.
    std::optional<fault::JobBinding> fault_binding;
    if (fault::active()) fault_binding.emplace(fault_hooks(*state));
    if (store != nullptr) restore_from_cut(*state, *store);
    watch_progress(*state, options.message_trace);

    const std::vector<std::exception_ptr> errors = spawn_ranks(state, program, options);
    // Join any in-flight cut writer before this attempt's state can go away
    // (the release closure deposits into its mailboxes).
    if (store != nullptr) store->quiesce();

    // Elastic recovery: an injected node crash with a checkpoint store and
    // attempts to spare is not a failure — it is the scenario the store
    // exists for. Move the dead node's ranks onto survivors, let the store
    // roll back to its committed cut, and go again. With every node dead
    // there is nothing to re-host onto; report the crash.
    const Diagnosis diagnosis = diagnose(errors);
    dead_nodes.insert(diagnosis.crashed_nodes.begin(), diagnosis.crashed_nodes.end());
    if (store != nullptr && !diagnosis.crashed_nodes.empty() && attempt < max_restarts &&
        rehost_on_survivors(state->cluster, nprocs, dead_nodes, rehost)) {
      store->restart(nprocs);
      continue;
    }
    finalize_channels(*state);
    if (state->deadlock_detected.load()) throw_deadlock(options.deadlock_grace);
    if (diagnosis.root) std::rethrow_exception(diagnosis.root);
    return;
  }
}

}  // namespace pml::mp

#pragma once

/// \file ckpt.hpp
/// \brief Checkpoint store: staged rank snapshots, committed global cuts,
///        and the restart bookkeeping mp::run uses for elastic recovery.
///
/// A checkpoint is a *consistent cut*: every rank's user state plus the
/// channel state (its queued mailbox envelopes and the rendezvous buffers it
/// parked) captured between two internal barriers, so no message straddles
/// the cut. Ranks stage their snapshots directly into the Store (same
/// address space — no messages needed for sealing); rank 0 seals the cut,
/// which serializes it, optionally persists it to disk, and releases the
/// blocked ranks. On a NodeCrashFault, mp::run re-hosts the dead node's
/// ranks on surviving nodes and replays from the last committed cut.
///
/// The Store is deliberately independent of the mp runtime (it only uses
/// the header-only envelope/payload types), so tests can drive it directly
/// and a future multi-process transport can reuse the format.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "mp/message.hpp"

namespace pml::ckpt {

/// Tuning and persistence knobs for a checkpoint store.
struct Options {
  /// Commit every Nth Communicator::checkpoint() call (1 = every call).
  std::uint32_t interval = 1;
  /// Restart attempts mp::run may make before giving up on recovery.
  int max_restarts = 4;
  /// When non-empty, every committed cut is persisted here (tmp + rename).
  std::string save_path;
  /// When non-empty, the first job adopts this snapshot file as its
  /// committed cut and every rank restores from it on its first
  /// checkpoint() call.
  std::string restart_from;
  /// Test seam: runs inside the commit write, while ranks are parked on the
  /// release barrier (used to prove the deadlock watchdog treats checkpoint
  /// I/O as progress).
  std::function<void()> write_hook;
};

/// Counters reported next to fault::Stats in the runner's stderr summary.
struct Stats {
  std::uint64_t commits = 0;         ///< Cuts sealed.
  std::uint64_t restarts = 0;        ///< mp::run recovery attempts.
  std::uint64_t bytes = 0;           ///< Serialized cut bytes, cumulative.
  std::uint64_t write_micros = 0;    ///< Time spent sealing, cumulative.
  std::uint64_t restored_ranks = 0;  ///< Ranks resumed from a cut.
};

/// A rendezvous buffer this rank had parked at the cut (byte copy — the
/// live table keeps ownership of the original until it is claimed).
struct ParkedCopy {
  std::uint64_t ticket = 0;
  int sender = -1;
  int dest = -1;
  int tag = 0;
  int context = 0;
  std::vector<std::byte> bytes;
};

/// One rank's slice of a consistent cut.
struct RankState {
  std::vector<std::byte> state;        ///< Codec-encoded user state.
  std::uint64_t fault_deliveries = 0;  ///< fault lane counter at the cut.
  std::uint64_t fault_checkpoints = 0; ///< fault lane counter at the cut.
  std::uint64_t output_lines = 0;      ///< Rank's output mark at the cut.
  std::vector<mp::Envelope> mailbox;   ///< Queued envelopes, arrival order.
  std::vector<ParkedCopy> parks;       ///< Buffers this rank had parked.
};

/// A sealed consistent cut across all ranks.
struct GlobalCut {
  std::uint64_t seq = 0;    ///< Checkpoint call index that committed.
  std::uint64_t calls = 0;  ///< Per-rank checkpoint() call count after it.
  int nprocs = 0;
  std::string key;          ///< User key; must match across calls.
  std::vector<RankState> ranks;
};

/// Staging area + committed-cut holder + async cut writer.
///
/// Thread safety: stage()/seal()/committed()/stats() may be called
/// concurrently from rank threads; begin_job()/quiesce()/restart() only
/// from the thread driving mp::run.
class Store {
 public:
  explicit Store(Options opts);
  ~Store();

  Store(const Store&) = delete;
  Store& operator=(const Store&) = delete;

  const Options& options() const noexcept { return opts_; }

  /// Called by mp::run at job entry: drops any staged snapshots and the
  /// committed cut of a previous job sharing this store (stats persist),
  /// and takes the output baseline restart() rolls back to when no cut
  /// committed. The first call adopts Options::restart_from as the
  /// committed cut.
  void begin_job();

  /// Rank \p rank 's slice of the cut committing at call index \p seq.
  /// The first stage of a job fixes the checkpoint key; a later mismatch
  /// throws UsageError (two call sites fighting over one store).
  void stage(std::uint64_t seq, const std::string& key, int rank,
             RankState rs);

  /// Seal the cut at \p seq (all \p nprocs ranks must have staged).
  /// Serializes + persists the cut on a writer thread, then runs
  /// \p release (which unblocks the parked ranks). Returns immediately.
  void seal(std::uint64_t seq, int nprocs, std::uint64_t calls,
            std::function<void()> release);

  /// Synchronous variant for the cooperative (verify) scheduler, where a
  /// hidden writer thread would not be scheduled: seals inline on the
  /// calling rank's thread.
  void seal_sync(std::uint64_t seq, int nprocs, std::uint64_t calls,
                 std::function<void()> release);

  /// Join any in-flight writer. mp::run calls this after joining ranks and
  /// before tearing down runtime state the release closure points into.
  void quiesce();

  /// True while a seal is being written. The deadlock watchdog treats this
  /// as progress: a slow checkpoint write parks every rank on the release
  /// barrier, which is delivery-quiescent but very much not a deadlock.
  bool write_active() const noexcept;

  /// Last committed cut, or nullptr. Never mutated after publication.
  std::shared_ptr<const GlobalCut> committed() const;

  /// Called by mp::run before it replays a crashed job of \p nprocs ranks:
  /// rolls the captured output back to the committed cut's per-rank marks
  /// (to the job's start when no cut fits the job), drops staged-but-unsealed
  /// snapshots (the replay re-stages the same sequence numbers afresh), and
  /// counts the restart.
  void restart(int nprocs);

  void note_restored_ranks(int n);

  Stats stats() const;

  /// \name Output-rollback hooks (bound by the runner; unset = no-op).
  /// The cut records each rank's output mark so a restart can truncate
  /// lines printed after the cut instead of duplicating them on replay.
  /// @{
  std::function<std::uint64_t(int rank)> output_mark;
  std::function<std::uint64_t()> output_total;
  std::function<void(const std::map<int, std::uint64_t>&)> output_rollback;
  std::function<void(std::uint64_t)> output_rollback_total;
  /// @}

 private:
  std::shared_ptr<GlobalCut> take_cut(std::uint64_t seq, int nprocs,
                                      std::uint64_t calls);
  void write_cut(std::shared_ptr<GlobalCut> cut,
                 std::function<void()> release);

  const Options opts_;
  std::uint64_t baseline_lines_ = 0;  ///< output_total() at begin_job().
  mutable std::mutex mu_;
  bool adopted_restart_ = false;
  std::string key_;  ///< Fixed by the first stage of the job.
  std::map<std::uint64_t, std::map<int, RankState>> staged_;
  std::shared_ptr<const GlobalCut> committed_;
  Stats stats_;
  std::atomic<int> writing_{0};
  std::jthread writer_;  ///< At most one in flight; joined before reuse.
};

/// Installs \p opts as the process-wide current store for the duration of
/// the scope (the runner opens one around a --ckpt execution). mp::run
/// picks it up automatically; nesting is a usage error.
class Scope {
 public:
  explicit Scope(Options opts);
  ~Scope();

  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  Store& store() noexcept { return *store_; }

 private:
  std::unique_ptr<Store> store_;
};

/// True when a Scope is active.
bool active() noexcept;

/// The active Scope's store, or nullptr.
Store* current() noexcept;

}  // namespace pml::ckpt

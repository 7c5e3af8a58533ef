#pragma once

/// \file mailbox.hpp
/// \brief Per-rank message queue with MPI matching semantics.
///
/// Each rank owns one Mailbox. Senders deposit envelopes; the owner receives
/// by (context, source, tag), with wildcards. Internally this is the
/// two-queue design real MPI implementations use:
///
///   * an **unexpected-message store** — messages that arrived before any
///     receive wanted them, bucketed by exact (context, source, tag) so an
///     exact-match receive or probe is one hash lookup, O(1) amortized;
///   * a **posted-receive queue** — receives that blocked before their
///     message arrived; deliver() hands the envelope to the first matching
///     posted receive directly and wakes *only that waiter* (no herd).
///
/// Every envelope is stamped with a mailbox-wide arrival sequence number.
/// Wildcard receives (kAnySource / kAnyTag) scan the matching buckets and
/// take the lowest stamp, which is exactly the arrival-order scan the old
/// single-deque matcher performed — so the MPI non-overtaking guarantee
/// (messages from the same source on the same tag are received in send
/// order, while other (source, tag) pairs can be matched around a pending
/// one) is preserved bit-for-bit. The equivalence is enforced by
/// tests/mp/matcher_property_test.cpp against a linear-scan oracle.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "core/error.hpp"
#include "mp/message.hpp"

namespace pml::mp {

/// How long a receive may wait: until a match (block), until a
/// steady-clock deadline, or not at all (poll). A deadline already in the
/// past polls, so a spent budget still drains what is queued and always
/// terminates.
struct Wait {
  enum class Kind { kBlock, kDeadline, kPoll };
  Kind kind = Kind::kBlock;
  std::chrono::steady_clock::time_point deadline{};

  static Wait block() noexcept { return {}; }
  static Wait poll() noexcept { return {Kind::kPoll, {}}; }
  /// A deadline \p timeout from now; a \p timeout <= 0 polls without
  /// reading the clock.
  static Wait within(std::chrono::milliseconds timeout) noexcept {
    if (timeout.count() <= 0) return poll();
    return {Kind::kDeadline, std::chrono::steady_clock::now() + timeout};
  }
};

/// A rank's incoming message queue.
class Mailbox {
 public:
  /// What the post-delivery progress hook gets to see: a snapshot taken
  /// under the lock so the hook itself can run *outside* it.
  struct DeliveryInfo {
    int source = -1;
    int tag = 0;
    int context = 0;
    std::size_t bytes = 0;
  };

  Mailbox() = default;
  Mailbox(const Mailbox&) = delete;
  Mailbox& operator=(const Mailbox&) = delete;

  /// Deposits a message (called by senders). Hands it straight to a posted
  /// matching receiver when one is waiting (targeted wakeup), otherwise
  /// files it in the unexpected store. When pml::fault is active the
  /// envelope first passes the injection point, which may drop it, deposit
  /// it twice, hold it back (sleeping this sender), or throw NodeCrashFault
  /// at a sender whose node is marked crashed.
  void deliver(Envelope e);

  /// Deposits a message *bypassing* the fault-injection shim. Reserved for
  /// runtime-internal traffic that must not be dropped, duplicated, or
  /// crashed: checkpoint barrier tokens and release envelopes, and the
  /// channel-state envelopes replayed into a restored rank's mailbox.
  /// User messages always go through deliver().
  void deposit_trusted(Envelope e);

  /// The one receive: removes and returns the earliest matching message,
  /// waiting as \p wait allows. A block or deadline wait passes the fault
  /// crash checkpoint and opens a kRecv span ("receive" / "receive-for")
  /// before matching, so fast-path matches are profiled too; a poll opens
  /// its span ("receive-poll") only when it matches. nullopt when a poll
  /// misses or a deadline passes (raising the analyze near-miss timeout
  /// event); never nullopt for a block wait. A block or deadline wait
  /// throws RuntimeFault once the runtime shuts down (poison()).
  std::optional<Envelope> receive(int context, int source, int tag,
                                  Wait wait = Wait::block());

  /// Returns the status of the first matching queued message without
  /// removing it (MPI_Iprobe analogue); nullopt if none queued.
  std::optional<Status> probe(int context, int source, int tag) const;

  /// Number of queued messages (any context/source/tag).
  std::size_t queued() const;

  /// Copy of every queued envelope in arrival order (pml::analyze
  /// finalize-time leftover scan: a message still here when the runtime
  /// joins is an unmatched send).
  std::vector<Envelope> snapshot() const;

  /// Records the owning rank so analysis events can name it.
  void set_owner(int rank);

  /// Marks the runtime as shutting down: pending and future blocking
  /// receives throw RuntimeFault instead of hanging forever.
  void poison();

  /// Progress hooks for the runtime's deadlock watchdog and message
  /// tracing: \p block_delta is called with +1 when the owner starts
  /// waiting for a message and -1 when it stops; \p delivered with a
  /// snapshot of each envelope after every deliver(). \p delivered runs
  /// *after* the mailbox lock is released, so it may itself touch the
  /// mailbox; \p block_delta still runs around waits and must be cheap
  /// and thread-safe.
  void set_progress_hooks(std::function<void(int)> block_delta,
                          std::function<void(const DeliveryInfo&)> delivered);

 private:
  /// Exact bucket key for the unexpected-message store.
  struct MatchKey {
    int context;
    int source;
    int tag;
    friend bool operator==(const MatchKey&, const MatchKey&) = default;
  };
  struct MatchKeyHash {
    std::size_t operator()(const MatchKey& k) const noexcept {
      // Contexts, sources and tags are all small non-negative ints (plus
      // the -1 wildcards, which never reach the store); mix them into one
      // word and let the final multiplier scatter the bits.
      std::uint64_t h = (static_cast<std::uint64_t>(k.context) << 42) ^
                        (static_cast<std::uint64_t>(k.source) << 21) ^
                        static_cast<std::uint64_t>(k.tag);
      return static_cast<std::size_t>(h * 0x9e3779b97f4a7c15ull);
    }
  };
  using Store = std::unordered_map<MatchKey, std::deque<Envelope>, MatchKeyHash>;

  /// One blocked receive, stack-allocated in receive() and linked into
  /// posted_ while waiting. The deliverer fills env, flips state, and wakes
  /// *this entry only*.
  struct PostedReceive {
    PostedReceive(int c, int s, int t, bool deadline)
        : context(c), source(s), tag(t), timed(deadline) {}
    int context;
    int source;
    int tag;
    bool timed;  ///< Deadline waits use cv; block waits park on state.
    std::atomic<std::uint32_t> state{kPending};
    Envelope env;
    std::condition_variable cv;
  };
  static constexpr std::uint32_t kPending = 0;
  static constexpr std::uint32_t kFilled = 1;
  static constexpr std::uint32_t kPoisoned = 2;
  /// An untimed waiter CASes kPending -> kParked before futex-waiting; a
  /// waker whose exchange() returns anything else skips the wake syscall
  /// (the waiter is still spinning and will see the store). Timed waiters
  /// never use this value — their condvar always gets a notify.
  static constexpr std::uint32_t kParked = 3;

  /// The real deposit: matching, targeted wakeup or filing, progress hook.
  /// deliver() is the thin fault-injection shim in front of this.
  void deposit(Envelope e);
  /// Removes and returns the front of \p bucket (the earliest match that
  /// find_locked located), firing the analyze/obs match events on the
  /// calling (receiver) thread.
  std::optional<Envelope> take_front_locked(std::deque<Envelope>& bucket, int context,
                                            int source, int tag);
  /// Locates the non-empty bucket holding the earliest match. Returns
  /// nullptr when nothing matches.
  std::deque<Envelope>* find_locked(int context, int source, int tag);
  /// The bucket for an exact key, created if absent. Serves steady-state
  /// traffic from the one-entry cache without touching the hash table.
  std::deque<Envelope>& bucket_for_locked(const MatchKey& key);
  /// Files an envelope in the unexpected store.
  void file_locked(Envelope&& e);
  /// analyze::on_mp_match + obs receive counters for a matched envelope;
  /// must run on the receiving thread (per-thread lanes, vector clocks).
  void note_match_locked(const Envelope& e, int source, int tag, int context);
  /// Releases \p lock and raises analyze's near-miss timeout event.
  void report_timeout(std::unique_lock<std::mutex>& lock, int context,
                      int source, int tag);

  mutable std::mutex mu_;
  /// Unexpected-message buckets. Buckets are *never erased* once created —
  /// drained ones stay empty so repeat traffic on the same key reuses them
  /// allocation-free, and so cached bucket pointers stay valid forever
  /// (unordered_map never invalidates references on insert).
  Store store_;
  MatchKey cached_key_{-1, -1, -1};      ///< Key of cached_bucket_.
  std::deque<Envelope>* cached_bucket_ = nullptr;
  std::deque<PostedReceive*> posted_;    ///< Blocked receives, post order.
  std::uint64_t arrival_seq_ = 0;        ///< Next arrival stamp.
  std::size_t total_queued_ = 0;         ///< Envelopes across all buckets.
  std::function<void(int)> block_delta_;
  std::function<void(const DeliveryInfo&)> delivered_;
  bool poisoned_ = false;
  int owner_ = -1;  ///< Owning rank (analysis diagnostics).
};

}  // namespace pml::mp

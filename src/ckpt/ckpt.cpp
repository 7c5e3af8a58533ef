#include "ckpt/ckpt.hpp"

#include <chrono>
#include <utility>

#include "ckpt/snapshot.hpp"
#include "core/error.hpp"
#include "obs/obs.hpp"

namespace pml::ckpt {

namespace {
Store* g_current = nullptr;
}  // namespace

Store::Store(Options opts) : opts_(std::move(opts)) {
  if (opts_.interval == 0) {
    throw UsageError("ckpt: checkpoint interval must be >= 1");
  }
  if (opts_.max_restarts < 0) {
    throw UsageError("ckpt: max_restarts must be >= 0");
  }
}

Store::~Store() { quiesce(); }

void Store::begin_job() {
  quiesce();
  baseline_lines_ = output_total ? output_total() : 0;
  std::lock_guard<std::mutex> lock(mu_);
  staged_.clear();
  committed_.reset();
  key_.clear();
  if (!adopted_restart_ && !opts_.restart_from.empty()) {
    // Only the first job adopts the preload; later jobs in the same
    // process (a patternlet body calling mp::run twice) start fresh.
    adopted_restart_ = true;
    auto cut = std::make_shared<GlobalCut>(load(opts_.restart_from));
    key_ = cut->key;
    committed_ = std::move(cut);
  }
}

void Store::stage(std::uint64_t seq, const std::string& key, int rank,
                  RankState rs) {
  std::lock_guard<std::mutex> lock(mu_);
  if (key_.empty()) {
    key_ = key;
  } else if (key_ != key) {
    throw UsageError("ckpt: checkpoint key mismatch: store holds \"" + key_ +
                     "\" but rank " + std::to_string(rank) +
                     " checkpointed \"" + key + "\"");
  }
  staged_[seq][rank] = std::move(rs);
}

std::shared_ptr<GlobalCut> Store::take_cut(std::uint64_t seq, int nprocs,
                                           std::uint64_t calls) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = staged_.find(seq);
  if (it == staged_.end() || static_cast<int>(it->second.size()) != nprocs) {
    throw RuntimeFault("ckpt: seal(" + std::to_string(seq) +
                       ") with incomplete staging");
  }
  auto cut = std::make_shared<GlobalCut>();
  cut->seq = seq;
  cut->calls = calls;
  cut->nprocs = nprocs;
  cut->key = key_;
  cut->ranks.resize(static_cast<std::size_t>(nprocs));
  for (auto& [rank, rs] : it->second) {
    cut->ranks[static_cast<std::size_t>(rank)] = std::move(rs);
  }
  staged_.erase(it);
  // Mark the write active *before* the sealer parks on the release
  // barrier, so the watchdog never observes a blocked-and-quiescent
  // window between seal() returning and the writer thread starting.
  writing_.fetch_add(1, std::memory_order_release);
  return cut;
}

void Store::seal(std::uint64_t seq, int nprocs, std::uint64_t calls,
                 std::function<void()> release) {
  quiesce();  // At most one writer in flight.
  auto cut = take_cut(seq, nprocs, calls);
  writer_ = std::jthread([this, cut = std::move(cut),
                          release = std::move(release)]() mutable {
    write_cut(std::move(cut), std::move(release));
  });
}

void Store::seal_sync(std::uint64_t seq, int nprocs, std::uint64_t calls,
                      std::function<void()> release) {
  // Cooperative-scheduler path: a hidden writer thread would never be
  // scheduled, so the sealing rank does the write on its own lane.
  write_cut(take_cut(seq, nprocs, calls), std::move(release));
}

void Store::write_cut(std::shared_ptr<GlobalCut> cut,
                      std::function<void()> release) {
  const auto t0 = std::chrono::steady_clock::now();
  if (opts_.write_hook) opts_.write_hook();
  const std::vector<std::byte> bytes = encode(*cut);
  if (!opts_.save_path.empty()) save(opts_.save_path, *cut);
  const auto micros = std::chrono::duration_cast<std::chrono::microseconds>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
  {
    std::lock_guard<std::mutex> lock(mu_);
    committed_ = std::move(cut);
    ++stats_.commits;
    stats_.bytes += bytes.size();
    stats_.write_micros += static_cast<std::uint64_t>(micros);
  }
  if (obs::active()) {
    obs::count(obs::Counter::kCkptBytes, bytes.size());
    obs::count(obs::Counter::kCkptMicros,
               static_cast<std::uint64_t>(micros));
  }
  writing_.fetch_sub(1, std::memory_order_release);
  if (release) release();
}

void Store::quiesce() { writer_ = {}; }

bool Store::write_active() const noexcept {
  return writing_.load(std::memory_order_acquire) > 0;
}

std::shared_ptr<const GlobalCut> Store::committed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return committed_;
}

void Store::restart(int nprocs) {
  const std::shared_ptr<const GlobalCut> cut = committed();
  if (cut != nullptr && cut->nprocs == nprocs) {
    if (output_rollback) {
      std::map<int, std::uint64_t> marks;
      for (int r = 0; r < nprocs; ++r) {
        marks[r] = cut->ranks[static_cast<std::size_t>(r)].output_lines;
      }
      output_rollback(marks);
    }
  } else if (output_rollback_total) {
    output_rollback_total(baseline_lines_);
  }
  std::lock_guard<std::mutex> lock(mu_);
  staged_.clear();
  ++stats_.restarts;
}

void Store::note_restored_ranks(int n) {
  std::lock_guard<std::mutex> lock(mu_);
  stats_.restored_ranks += static_cast<std::uint64_t>(n);
}

Stats Store::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

Scope::Scope(Options opts) {
  if (g_current != nullptr) {
    throw UsageError("ckpt: nested ckpt::Scope");
  }
  store_ = std::make_unique<Store>(std::move(opts));
  g_current = store_.get();
}

Scope::~Scope() { g_current = nullptr; }

bool active() noexcept { return g_current != nullptr; }

Store* current() noexcept { return g_current; }

}  // namespace pml::ckpt

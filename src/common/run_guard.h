// Run governance: deadlines, cooperative cancellation, and resource
// ceilings for one resolution run.
//
// A RunGuard is a *spec* carried in HeraOptions: a relative time
// budget, an optional cancellation token, and ceilings on the data
// structures a run may grow. The engine arms the guard at run start
// (Arm() turns the relative budget into an absolute deadline) and
// checks it at safe points — iteration boundaries in the
// compare-and-merge loop, candidate strides inside the similarity
// join. On expiry or cancellation the run stops at the next safe point
// and returns the current, valid partial result; on ceiling breach the
// engine sheds load (drops weakest index pairs, truncates posting
// lists, defers candidate groups) instead of dying. HeraStats records
// the outcome and what was shed (see docs/operational_limits.md).
//
// A default-constructed RunGuard imposes nothing and its checks reduce
// to one boolean load, so unguarded runs pay no measurable cost.

#ifndef HERA_COMMON_RUN_GUARD_H_
#define HERA_COMMON_RUN_GUARD_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <functional>
#include <memory>
#include <utility>

#include "common/status.h"

namespace hera {

/// \brief Shared cancellation flag. Copies observe the same flag, so a
/// controller thread can cancel a run it handed the token to. A
/// default-constructed token is empty and never reports cancellation.
class CancellationToken {
 public:
  CancellationToken() = default;

  /// A token backed by a fresh flag.
  static CancellationToken Make() {
    CancellationToken t;
    t.flag_ = std::make_shared<std::atomic<bool>>(false);
    return t;
  }

  /// Requests cancellation. Safe from any thread; no-op on an empty
  /// token.
  void RequestCancel() const {
    if (flag_) flag_->store(true, std::memory_order_relaxed);
  }

  bool CancelRequested() const {
    return flag_ && flag_->load(std::memory_order_relaxed);
  }

  bool empty() const { return flag_ == nullptr; }

 private:
  std::shared_ptr<std::atomic<bool>> flag_;
};

/// \brief Deadline + cancellation + resource ceilings for one run.
///
/// All limits default to "unlimited". Ceilings use 0 for "no limit".
class RunGuard {
 public:
  RunGuard() = default;

  /// Wall-clock budget in milliseconds, measured from Arm(). A budget
  /// of 0 expires immediately once armed (useful to probe the
  /// truncation path); negative clears the deadline.
  RunGuard& WithTimeoutMs(double ms) {
    timeout_ms_ = ms;
    has_timeout_ = ms >= 0.0;
    watched_ = has_timeout_ || !cancel_.empty();
    return *this;
  }

  /// Attaches a cancellation token (see CancellationToken::Make).
  RunGuard& WithCancellation(CancellationToken token) {
    cancel_ = std::move(token);
    watched_ = has_timeout_ || !cancel_.empty();
    return *this;
  }

  /// Ceiling on total value pairs held by the value-pair index; on
  /// breach the weakest (lowest-similarity) excess pairs are shed.
  RunGuard& WithMaxIndexPairs(size_t n) {
    max_index_pairs_ = n;
    return *this;
  }

  /// Ceiling on posting-list length: per-token candidate lists inside
  /// the prefix-filter join and per-record pair lists inside the
  /// value-pair index. Excess entries are shed (frequent-token /
  /// hub-record degradation).
  RunGuard& WithMaxPostingList(size_t n) {
    max_posting_list_ = n;
    return *this;
  }

  /// Ceiling on candidate groups examined per compare-and-merge
  /// iteration; excess groups are deferred to later iterations.
  RunGuard& WithMaxCandidatesPerIteration(size_t n) {
    max_candidates_per_iteration_ = n;
    return *this;
  }

  /// Verification budget: total verifier invocations this run may
  /// spend (0 = unlimited). Counted from Arm(), so a resumed run gets
  /// a fresh budget, like a deadline. A budget turns on best-first
  /// order: each pass verifies its candidate groups highest
  /// similarity upper bound first, and groups left unverified at
  /// exhaustion are deferred into the checkpointable queue, not
  /// dropped.
  RunGuard& WithMaxVerifications(size_t n) {
    max_verifications_ = n;
    return *this;
  }

  /// Hook fired (at most once per run) when the verification budget
  /// runs out and the engine starts deferring the rest of the pass.
  /// Fired on the controller thread, before the truncation checkpoint
  /// is written. Deadlines and cancellation do not fire it.
  using BudgetObserver = std::function<void()>;

  /// Attaches a budget observer. Copies of the guard share the
  /// observer and its fired-once latch.
  RunGuard& WithBudgetObserver(BudgetObserver observer) {
    observer_ = std::make_shared<BudgetObserver>(std::move(observer));
    observer_fired_ = std::make_shared<std::atomic<bool>>(false);
    return *this;
  }

  /// Starts the clock: deadline = now + timeout. Called by the engine
  /// at run start; re-arming grants a fresh budget (each
  /// IncrementalHera::Resolve round is its own run).
  void Arm() {
    if (has_timeout_) {
      deadline_ = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                     std::chrono::duration<double, std::milli>(
                                         timeout_ms_));
      armed_ = true;
    }
  }

  /// True when the run must stop: armed deadline expired or the token
  /// was cancelled. One boolean load when no deadline/token is set.
  bool Interrupted() const {
    if (!watched_) return false;
    return cancel_.CancelRequested() || (armed_ && Clock::now() >= deadline_);
  }

  bool Cancelled() const { return cancel_.CancelRequested(); }
  bool DeadlineExpired() const { return armed_ && Clock::now() >= deadline_; }

  /// OK, or DeadlineExceeded/Cancelled describing why the run must
  /// stop — for callers that want an error instead of a partial result.
  Status StatusIfInterrupted() const;

  /// Fires the budget observer exactly once across all copies of this
  /// guard; later calls (and calls with no observer) are no-ops. Called
  /// by the engine at the first budget cut of a run.
  void NotifyBudgetCut() const;

  size_t max_index_pairs() const { return max_index_pairs_; }
  size_t max_posting_list() const { return max_posting_list_; }
  size_t max_candidates_per_iteration() const {
    return max_candidates_per_iteration_;
  }
  size_t max_verifications() const { return max_verifications_; }

  /// True when any deadline, token, or ceiling is configured.
  bool active() const {
    return watched_ || max_index_pairs_ > 0 || max_posting_list_ > 0 ||
           max_candidates_per_iteration_ > 0 || max_verifications_ > 0;
  }

 private:
  using Clock = std::chrono::steady_clock;

  double timeout_ms_ = -1.0;
  bool has_timeout_ = false;
  bool armed_ = false;
  bool watched_ = false;  // A deadline or token exists; fast-path gate.
  Clock::time_point deadline_{};
  CancellationToken cancel_;
  size_t max_index_pairs_ = 0;
  size_t max_posting_list_ = 0;
  size_t max_candidates_per_iteration_ = 0;
  size_t max_verifications_ = 0;
  // Shared so guard copies (RunGuard is a value carried in
  // HeraOptions) observe one fired-once latch.
  std::shared_ptr<BudgetObserver> observer_;
  std::shared_ptr<std::atomic<bool>> observer_fired_;
};

/// \brief Strided interrupt probe for tight loops: checks the clock
/// only every 1024 ticks, and never again once stopped.
class GuardTicker {
 public:
  explicit GuardTicker(const RunGuard& guard)
      : guard_(guard), enabled_(guard.active()) {}

  /// Returns true when the guarded loop should stop.
  bool Tick() {
    if (!enabled_) return false;
    if (stopped_) return true;
    if ((++ops_ & 1023u) != 0) return false;
    stopped_ = guard_.Interrupted();
    return stopped_;
  }

  /// Batched form for hoisted checks: advances the op counter by `n`
  /// (one call per record, weighted by the work the record covers) and
  /// consults the clock when a 1024-op boundary is crossed — the same
  /// effective cadence as n scalar Tick()s, without putting the guard
  /// in the innermost loop.
  bool Tick(size_t n) {
    if (!enabled_) return false;
    if (stopped_) return true;
    const size_t before = ops_ >> 10;
    ops_ += n;
    if ((ops_ >> 10) == before) return false;
    stopped_ = guard_.Interrupted();
    return stopped_;
  }

  bool stopped() const { return stopped_; }

 private:
  const RunGuard& guard_;
  bool enabled_;
  bool stopped_ = false;
  size_t ops_ = 0;
};

}  // namespace hera

#endif  // HERA_COMMON_RUN_GUARD_H_

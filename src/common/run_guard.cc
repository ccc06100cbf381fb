#include "common/run_guard.h"

namespace hera {

Status RunGuard::StatusIfInterrupted() const {
  if (Cancelled()) return Status::Cancelled("run cancelled via token");
  if (DeadlineExpired()) {
    return Status::DeadlineExceeded("run deadline of " +
                                    std::to_string(timeout_ms_) +
                                    " ms exceeded");
  }
  return Status::OK();
}

void RunGuard::NotifyBudgetCut() const {
  if (!observer_ || !*observer_ || !observer_fired_) return;
  if (observer_fired_->exchange(true, std::memory_order_relaxed)) return;
  (*observer_)();
}

}  // namespace hera

#include "core/options.h"

namespace hera {

Status ValidateOptions(const HeraOptions& options) {
  if (options.xi < 0.0 || options.xi > 1.0) {
    return Status::InvalidArgument("xi must lie in [0, 1], got " +
                                   std::to_string(options.xi));
  }
  if (options.delta < 0.0 || options.delta > 1.0) {
    return Status::InvalidArgument("delta must lie in [0, 1], got " +
                                   std::to_string(options.delta));
  }
  if (options.vote_prior_p <= 0.5 || options.vote_prior_p > 1.0) {
    return Status::InvalidArgument(
        "vote_prior_p must lie in (0.5, 1] (Theorem 2 needs a "
        "better-than-chance prior), got " +
        std::to_string(options.vote_prior_p));
  }
  if (options.vote_rho <= 0.0) {
    return Status::InvalidArgument("vote_rho must be > 0, got " +
                                   std::to_string(options.vote_rho));
  }
  if (options.num_threads > kMaxNumThreads) {
    return Status::InvalidArgument(
        "num_threads must be at most " + std::to_string(kMaxNumThreads) +
        ", got " + std::to_string(options.num_threads));
  }
  if (options.max_iterations == 0) {
    return Status::InvalidArgument("max_iterations must be > 0");
  }
  if (!options.checkpoint_dir.empty() && options.checkpoint_every == 0) {
    return Status::InvalidArgument(
        "checkpoint_every must be > 0 when checkpoint_dir is set");
  }
  return Status::OK();
}

const char* RunOutcomeToString(RunOutcome outcome) {
  switch (outcome) {
    case RunOutcome::kCompleted:
      return "completed";
    case RunOutcome::kDegraded:
      return "degraded";
    case RunOutcome::kIterationCap:
      return "iteration_cap";
    case RunOutcome::kTruncatedBudget:
      return "truncated_budget";
    case RunOutcome::kTruncatedDeadline:
      return "truncated_deadline";
    case RunOutcome::kTruncatedCancelled:
      return "truncated_cancelled";
  }
  return "unknown";
}

bool RunOutcomeFromString(const std::string& name, RunOutcome* out) {
  for (RunOutcome o :
       {RunOutcome::kCompleted, RunOutcome::kDegraded, RunOutcome::kIterationCap,
        RunOutcome::kTruncatedBudget, RunOutcome::kTruncatedDeadline,
        RunOutcome::kTruncatedCancelled}) {
    if (name == RunOutcomeToString(o)) {
      *out = o;
      return true;
    }
  }
  return false;
}

}  // namespace hera

#include "simjoin/similarity_join.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <iterator>
#include <limits>
#include <unordered_map>
#include <utility>

#include "common/failpoint.h"
#include "common/string_util.h"
#include "parallel/parallel_for.h"
#include "sim/kernel.h"
#include "text/normalize.h"
#include "text/qgram.h"

// Read-prefetch hint for posting-list heads and candidate token sets;
// a no-op on compilers without __builtin_prefetch. A hint only, never
// a semantic.
#if defined(__GNUC__) || defined(__clang__)
#define HERA_PREFETCH_READ(addr) __builtin_prefetch((addr), 0, 1)
#else
#define HERA_PREFETCH_READ(addr) ((void)sizeof(addr))
#endif

namespace hera {

std::vector<ValuePair> SimilarityJoin::Join(
    const std::vector<LabeledValue>& values, const ValueSimilarity& simv,
    double xi) const {
  std::vector<ValuePair> out;
  Join(values, simv, xi, RunGuard(), &out);
  return out;
}

std::vector<ValuePair> SimilarityJoin::JoinAB(
    const std::vector<LabeledValue>& probe, const std::vector<LabeledValue>& base,
    const ValueSimilarity& simv, double xi) const {
  std::vector<ValuePair> out;
  JoinAB(probe, base, simv, xi, RunGuard(), &out);
  return out;
}

namespace {

/// Filter/verify counters accumulated per chunk and folded across the
/// join's phases; the single accumulator the report is written from.
struct JoinCounters {
  size_t candidates = 0;
  size_t verified = 0;
  /// Candidates counted but dropped unverified when the guard tripped
  /// at their batch's weighted Tick(n) check (trip-boundary exactness:
  /// candidates == verified + shed_candidates for truncated runs).
  size_t shed_candidates = 0;
  /// Token-path pairs that shared at least one indexed prefix token,
  /// counted once per pair (the marker dedup fires before any filter).
  size_t encountered = 0;
  size_t pruned_length = 0;
  size_t pruned_positional = 0;
  size_t pruned_suffix = 0;

  void Fold(const JoinCounters& o) {
    candidates += o.candidates;
    verified += o.verified;
    shed_candidates += o.shed_candidates;
    encountered += o.encountered;
    pruned_length += o.pruned_length;
    pruned_positional += o.pruned_positional;
    pruned_suffix += o.pruned_suffix;
  }
};

/// One chunk's output: pairs found plus filter/verify counters. Chunks
/// are concatenated in chunk index order (MergeChunks), which is what
/// makes parallel output byte-identical to serial for completed runs.
struct ChunkOut {
  std::vector<ValuePair> pairs;
  JoinCounters counters;
};

void MergeChunks(std::vector<ChunkOut>& chunks, std::vector<ValuePair>* out,
                 JoinCounters* totals) {
  size_t total = 0;
  for (const ChunkOut& c : chunks) total += c.pairs.size();
  out->reserve(out->size() + total);
  for (ChunkOut& c : chunks) {
    std::move(c.pairs.begin(), c.pairs.end(), std::back_inserter(*out));
    totals->Fold(c.counters);
  }
}

/// Writes the accumulated counters into the report (the plumbing every
/// join tail used to duplicate). `token_pairs` is the number of pairs
/// eligible for the token path; the prefix filter's effect is derived
/// from it — pairs it never surfaced were prefix-pruned.
void FinishReport(JoinReport* report, const JoinCounters& totals,
                  bool truncated, size_t shed_posting, size_t token_pairs,
                  const std::vector<ValuePair>& out) {
  if (!report) return;
  report->truncated = truncated;
  report->shed_posting_entries = shed_posting;
  report->candidates = totals.candidates;
  report->verified = totals.verified;
  report->shed_candidates = totals.shed_candidates;
  report->emitted = out.size();
  report->pruned_prefix =
      token_pairs > totals.encountered ? token_pairs - totals.encountered : 0;
  report->pruned_length = totals.pruned_length;
  report->pruned_positional = totals.pruned_positional;
  report->pruned_suffix = totals.pruned_suffix;
}

/// Folds one parallel phase's stats into the join report (element-wise
/// busy-time sum; threads_used is the widest phase). `phase` names the
/// phase for the recorded chunk spans (if any) and `phase_offset_us`
/// rebases their call-relative starts onto the join-entry clock.
void AccumulateBusy(const ParallelRunStats& stats, JoinReport* report,
                    const char* phase = "", double phase_offset_us = 0.0) {
  if (!report) return;
  report->threads_used = std::max(report->threads_used, stats.workers);
  for (const ChunkSpan& cs : stats.chunk_spans) {
    report->worker_spans.push_back(
        {phase, cs.chunk, cs.worker, phase_offset_us + cs.start_us, cs.dur_us});
  }
  if (stats.workers <= 1) return;
  if (report->worker_busy_us.size() < stats.busy_us.size()) {
    report->worker_busy_us.resize(stats.busy_us.size(), 0.0);
  }
  for (size_t w = 0; w < stats.busy_us.size(); ++w) {
    report->worker_busy_us[w] += stats.busy_us[w];
  }
}

size_t NumChunks(size_t n, size_t grain) {
  return n == 0 ? 0 : (n + grain - 1) / grain;
}

/// How a join verifies the candidates the filters let through.
struct VerifyPlan {
  /// Kernel-eligible metric: score encoded token sets directly
  /// (bit-equal to the string path; see sim/kernel.h).
  bool use_kernel = false;
  SetSimKind kind = SetSimKind::kJaccard;
  /// The metric is q-gram Jaccard at the join's q, so the prefix
  /// filter is exact and the positional/suffix filters apply.
  bool exact_filters = false;
  /// Metric-matched PairSimCache for the fallback string path, or null.
  PairSimCache* pair_cache = nullptr;
};

/// Suffix filter recursion depth (each level costs a binary search and
/// halves the spans; 2 is where the cost/benefit curve flattens for
/// q-gram-sized sets).
constexpr int kSuffixFilterDepth = 2;
/// Skip the suffix filter when the remaining spans are shorter than
/// this — verifying tiny sets outright is cheaper than bounding them.
constexpr size_t kSuffixFilterMinRemain = 8;

/// PPJoin+-style check at the pair's first shared prefix token, found
/// at position `px` of `x` and `py` of `y` (both sorted rare-first).
/// Elements below the shared token contribute at most min(px, py) to
/// the intersection, the token itself 1, the suffixes at most
/// min(remaining) (positional bound) — tightened by a depth-limited
/// partition bound (suffix filter). Pruning only when the intersection
/// provably cannot reach MinOverlapForThreshold keeps the filter exact:
/// every pruned pair scores < xi.
/// Returns 0 = keep, 1 = positional-pruned, 2 = suffix-pruned.
int PositionalSuffixFilter(const std::vector<uint32_t>& x, size_t px,
                           const std::vector<uint32_t>& y, size_t py,
                           double xi) {
  const size_t nx = x.size(), ny = y.size();
  const size_t alpha =
      MinOverlapForThreshold(SetSimKind::kJaccard, nx, ny, xi);
  const size_t below = std::min(px, py) + 1;
  const size_t rx = nx - px - 1, ry = ny - py - 1;
  if (below + std::min(rx, ry) < alpha) return 1;
  if (std::min(rx, ry) >= kSuffixFilterMinRemain) {
    size_t ub = below + OverlapUpperBound(x.data() + px + 1, rx,
                                          y.data() + py + 1, ry,
                                          kSuffixFilterDepth);
    if (ub < alpha) return 2;
  }
  return 0;
}

VerifyPlan MakeVerifyPlan(const ValueSimilarity& simv, int q,
                          PairSimCache* cache) {
  VerifyPlan plan;
  plan.use_kernel = GramMetricKind(simv.Name(), q, &plan.kind);
  plan.exact_filters = plan.use_kernel && plan.kind == SetSimKind::kJaccard;
  plan.pair_cache = plan.use_kernel ? nullptr : cache;
  return plan;
}

/// Scores one string-path candidate per the plan: kernel when
/// eligible (early exit below xi returns a negative sentinel, which
/// callers' `s >= xi` emission test already rejects), else the metric,
/// served from the pair cache when one is installed.
double VerifyStringPair(const VerifyPlan& plan, const ValueSimilarity& simv,
                        double xi, const std::vector<uint32_t>& x_ids,
                        const std::vector<uint32_t>& y_ids, const Value& va,
                        const Value& vb) {
  if (plan.use_kernel) return SetSimilarityBounded(plan.kind, x_ids, y_ids, xi);
  if (plan.pair_cache != nullptr) {
    return plan.pair_cache->GetOrCompute(
        va.ToString(), vb.ToString(), [&] { return simv.Compute(va, vb); });
  }
  return simv.Compute(va, vb);
}


/// How the numeric sweep bounds its search window; derived from the
/// metric name so the filter stays exact for both built-in numeric
/// semantics (relative difference and absolute tolerance).
struct NumericWindow {
  bool absolute = false;  // true: |gap| <= (1 - xi) * tol.
  double tol = 0.0;
};

NumericWindow NumericWindowFor(const ValueSimilarity& simv) {
  NumericWindow w;
  std::string name = simv.Name();
  size_t pos = name.find("numeric_tol");
  if (pos != std::string::npos) {
    w.absolute = true;
    w.tol = std::atof(name.c_str() + pos + 11);
  }
  return w;
}

/// Prefix length for the AllPairs filter at threshold filter_xi.
size_t PrefixLen(size_t len, double filter_xi) {
  size_t keep =
      static_cast<size_t>(std::ceil(static_cast<double>(len) * filter_xi));
  size_t prefix = len - (keep > 0 ? keep : 1) + 1;
  return std::min(prefix, len);
}

}  // namespace

Status NestedLoopJoin::Join(const std::vector<LabeledValue>& values,
                            const ValueSimilarity& simv, double xi,
                            const RunGuard& guard, std::vector<ValuePair>* out,
                            JoinReport* report) const {
  HERA_FAILPOINT("simjoin.join");
  out->clear();
  ThreadPool* pool = executor();
  const bool rec = collect_worker_spans() && report != nullptr &&
                   pool != nullptr && pool->size() > 1;
  PairSimCache* pair_cache = PairCacheFor(simv);
  const size_t n = values.size();
  const size_t grain = DefaultGrain(n, pool ? pool->size() : 1);
  std::vector<ChunkOut> chunks(NumChunks(n, grain));
  std::atomic<bool> stop{false};
  ParallelRunStats stats = ParallelChunks(
      pool, n, grain,
      [&](size_t chunk, size_t begin, size_t end, size_t /*worker*/) {
        ChunkOut& co = chunks[chunk];
        GuardTicker ticker(guard);
        for (size_t i = begin;
             i < end && !stop.load(std::memory_order_relaxed); ++i) {
          for (size_t j = i + 1; j < n; ++j) {
            if (ticker.Tick()) {
              stop.store(true, std::memory_order_relaxed);
              break;
            }
            if (values[i].label.rid == values[j].label.rid) continue;
            ++co.counters.candidates;
            ++co.counters.verified;
            const Value& va = values[i].value;
            const Value& vb = values[j].value;
            double s = (pair_cache && va.is_string() && vb.is_string())
                           ? pair_cache->GetOrCompute(
                                 va.AsString(), vb.AsString(),
                                 [&] { return simv.Compute(va, vb); })
                           : simv.Compute(va, vb);
            if (s >= xi) co.pairs.push_back({values[i].label, values[j].label, s});
          }
        }
      },
      rec);
  JoinCounters totals;
  MergeChunks(chunks, out, &totals);
  FinishReport(report, totals, stop.load(std::memory_order_relaxed), 0, 0,
               *out);
  AccumulateBusy(stats, report, "join.nested");
  return Status::OK();
}

Status NestedLoopJoin::JoinAB(const std::vector<LabeledValue>& probe,
                              const std::vector<LabeledValue>& base,
                              const ValueSimilarity& simv, double xi,
                              const RunGuard& guard,
                              std::vector<ValuePair>* out,
                              JoinReport* report) const {
  HERA_FAILPOINT("simjoin.join");
  out->clear();
  ThreadPool* pool = executor();
  const bool rec = collect_worker_spans() && report != nullptr &&
                   pool != nullptr && pool->size() > 1;
  PairSimCache* pair_cache = PairCacheFor(simv);
  const size_t n = probe.size();
  const size_t grain = DefaultGrain(n, pool ? pool->size() : 1);
  std::vector<ChunkOut> chunks(NumChunks(n, grain));
  std::atomic<bool> stop{false};
  ParallelRunStats stats = ParallelChunks(
      pool, n, grain,
      [&](size_t chunk, size_t begin, size_t end, size_t /*worker*/) {
        ChunkOut& co = chunks[chunk];
        GuardTicker ticker(guard);
        for (size_t pi = begin;
             pi < end && !stop.load(std::memory_order_relaxed); ++pi) {
          const LabeledValue& p = probe[pi];
          for (const LabeledValue& b : base) {
            if (ticker.Tick()) {
              stop.store(true, std::memory_order_relaxed);
              break;
            }
            if (p.label.rid == b.label.rid) continue;
            ++co.counters.candidates;
            ++co.counters.verified;
            double s = (pair_cache && p.value.is_string() && b.value.is_string())
                           ? pair_cache->GetOrCompute(
                                 p.value.AsString(), b.value.AsString(),
                                 [&] { return simv.Compute(p.value, b.value); })
                           : simv.Compute(p.value, b.value);
            if (s >= xi) co.pairs.push_back({p.label, b.label, s});
          }
        }
      },
      rec);
  JoinCounters totals;
  MergeChunks(chunks, out, &totals);
  FinishReport(report, totals, stop.load(std::memory_order_relaxed), 0, 0,
               *out);
  AccumulateBusy(stats, report, "join.nested");
  return Status::OK();
}

Status PrefixFilterJoin::Join(const std::vector<LabeledValue>& values,
                              const ValueSimilarity& simv, double xi,
                              const RunGuard& guard,
                              std::vector<ValuePair>* out,
                              JoinReport* report) const {
  HERA_FAILPOINT("simjoin.join");
  out->clear();
  ThreadPool* pool = executor();
  const size_t nworkers = (pool && pool->size() > 1) ? pool->size() : 1;
  // Per-phase chunk spans are rebased onto this join-entry clock so the
  // report's worker spans share one origin across all phases.
  Timer join_timer;
  const bool rec =
      collect_worker_spans() && report != nullptr && nworkers > 1;
  std::atomic<bool> stop{false};
  const size_t max_posting = guard.max_posting_list();
  size_t shed_posting = 0;
  JoinCounters totals;

  // ---- Partition: numeric values are swept, everything else gets the
  // token-based path over its canonical string rendering.
  std::vector<size_t> string_idx, numeric_idx;
  const bool metric_handles_numbers =
      StartsWith(simv.Name(), "hybrid(") || simv.Name() == "numeric";
  for (size_t i = 0; i < values.size(); ++i) {
    if (values[i].value.is_null()) continue;
    if (values[i].value.is_number() && metric_handles_numbers) {
      numeric_idx.push_back(i);
    } else {
      string_idx.push_back(i);
    }
  }

  // ---- Numeric sweep: sort by value; sim >= xi iff
  // (y - x) <= (1 - xi) * max(|x|, |y|), which for y > 0 fails
  // monotonically as y grows, allowing early break. Each chunk of
  // sorted probe positions scans forward independently (read-only), so
  // the sweep parallelizes without coordination.
  std::sort(numeric_idx.begin(), numeric_idx.end(), [&](size_t a, size_t b) {
    return values[a].value.AsNumber() < values[b].value.AsNumber();
  });
  // The window is a pruning device only (the metric makes the final
  // call), so it is epsilon-relaxed: computing t = 1 - xi in floating
  // point can otherwise exclude exact-boundary pairs (sim == xi).
  const double t = 1.0 - xi;
  const NumericWindow window = NumericWindowFor(simv);
  {
    const size_t n = numeric_idx.size();
    const size_t grain = DefaultGrain(n, nworkers);
    std::vector<ChunkOut> chunks(NumChunks(n, grain));
    const double phase_t0 = join_timer.ElapsedMicros();
    ParallelRunStats stats = ParallelChunks(
        pool, n, grain,
        [&](size_t chunk, size_t begin, size_t end, size_t /*worker*/) {
          ChunkOut& co = chunks[chunk];
          GuardTicker ticker(guard);
          for (size_t p = begin;
               p < end && !stop.load(std::memory_order_relaxed); ++p) {
            double x = values[numeric_idx[p]].value.AsNumber();
            for (size_t r = p + 1; r < n; ++r) {
              if (ticker.Tick()) {
                stop.store(true, std::memory_order_relaxed);
                break;
              }
              double y = values[numeric_idx[r]].value.AsNumber();
              double gap = y - x;
              double denom = std::max(std::fabs(x), std::fabs(y));
              bool within;
              if (window.absolute) {
                within = gap <= t * window.tol + 1e-9;
              } else {
                within = denom == 0.0
                             ? gap == 0.0
                             : gap <= t * denom + 1e-9 * std::max(1.0, denom);
              }
              if (!within) {
                // Relative window: failure is monotone only once y > 0.
                // Absolute window: failure is monotone unconditionally.
                if (window.absolute || y > 0) break;
                continue;
              }
              const LabeledValue& va = values[numeric_idx[p]];
              const LabeledValue& vb = values[numeric_idx[r]];
              if (va.label.rid == vb.label.rid) continue;
              ++co.counters.candidates;
              ++co.counters.verified;
              double s = simv.Compute(va.value, vb.value);
              if (s >= xi) co.pairs.push_back({va.label, vb.label, s});
            }
          }
        },
        rec);
    MergeChunks(chunks, out, &totals);
    AccumulateBusy(stats, report, "join.numeric", phase_t0);
  }

  // ---- String path: AllPairs with length + prefix filters, plus
  // positional/suffix filters when the threshold is exact.
  const VerifyPlan plan = MakeVerifyPlan(simv, q_, PairCacheFor(simv));
  // For non-Jaccard metrics the gram filter is only a blocker; run it
  // at a slackened threshold so near-threshold true pairs survive.
  const double filter_xi = plan.exact_filters ? xi : xi * filter_slack_;

  // Phase 1 (parallel): normalization + gram extraction, the
  // embarrassingly parallel part of tokenization. Grams come from the
  // shared TokenCache when one is installed (rounds >= 2 of an
  // incremental run hit it almost every time), else are extracted
  // fresh. Workers write disjoint slots.
  TokenCache* cache = (cache_ && cache_->q() == q_) ? cache_.get() : nullptr;
  std::vector<std::string> normalized(values.size());
  std::vector<TokenCache::GramsPtr> shared_grams;
  std::vector<std::vector<std::string>> owned_grams;
  if (cache) {
    shared_grams.resize(values.size());
  } else {
    owned_grams.resize(values.size());
  }
  {
    const size_t n = string_idx.size();
    const double phase_t0 = join_timer.ElapsedMicros();
    ParallelRunStats stats = ParallelChunks(
        pool, n, DefaultGrain(n, nworkers),
        [&](size_t /*chunk*/, size_t begin, size_t end, size_t /*worker*/) {
          for (size_t k = begin; k < end; ++k) {
            size_t i = string_idx[k];
            normalized[i] = Normalize(values[i].value.ToString());
            if (cache) {
              shared_grams[i] = cache->Grams(normalized[i]);
            } else {
              owned_grams[i] = QgramSet(normalized[i], q_);
            }
          }
        },
        rec);
    AccumulateBusy(stats, report, "join.tokenize", phase_t0);
  }
  auto grams_of = [&](size_t i) -> const std::vector<std::string>& {
    return cache ? *shared_grams[i] : owned_grams[i];
  };

  // Phase 2 (serial): dictionary build + encoding both mutate the
  // dictionary, so they stay on the controller thread.
  QgramDictionary dict(q_);
  for (size_t i : string_idx) dict.AddGrams(grams_of(i));
  dict.Freeze();

  struct Encoded {
    size_t idx;                 // Position in `values`.
    std::vector<uint32_t> ids;  // Sorted rare-first token ids.
  };
  std::vector<Encoded> sets;
  sets.reserve(string_idx.size());
  for (size_t i : string_idx) {
    std::vector<uint32_t> ids = dict.EncodeGrams(grams_of(i));
    if (ids.empty()) continue;  // Nothing to match on.
    sets.push_back({i, std::move(ids)});
  }
  std::sort(sets.begin(), sets.end(), [](const Encoded& a, const Encoded& b) {
    return a.ids.size() < b.ids.size();
  });

  // Phase 3 (serial): full posting lists, built in ascending set
  // order. The posting ceiling is applied in that same order, so each
  // list's contents are exactly what the serial incremental index held
  // — and because entries are ascending, a probe that stops scanning
  // at its own position (cj >= si below) sees exactly the lists as
  // they stood when the serial loop reached it.
  // Each entry carries the token's position inside its set, which is
  // what the positional filter reasons about at probe time.
  struct Posting {
    size_t si;   // Index into `sets`.
    size_t pos;  // Prefix position of the token within sets[si].ids.
  };
  std::vector<size_t> prefix_len(sets.size());
  std::unordered_map<uint32_t, std::vector<Posting>> postings;
  for (size_t si = 0; si < sets.size(); ++si) {
    prefix_len[si] = PrefixLen(sets[si].ids.size(), filter_xi);
    for (size_t pi = 0; pi < prefix_len[si]; ++pi) {
      std::vector<Posting>& list = postings[sets[si].ids[pi]];
      if (max_posting > 0 && list.size() >= max_posting) {
        ++shed_posting;
        continue;
      }
      list.push_back({si, pi});
    }
  }

  // Phase 4 (parallel): probing. Candidates for set si are earlier
  // (shorter-or-equal) sets sharing a prefix token and passing the
  // length filter |y| >= filter_xi * |x|. Dedup markers, candidate
  // buffers, and list scratch are per-worker and reused across
  // chunks; marker values are probe indices, which are globally
  // unique, so no resets are needed. Each record gathers its posting
  // lists first (one map lookup per prefix token), which sizes the
  // candidate buffer from the posting lengths and prefetches the list
  // heads before the scan. The guard is hoisted to a per-record stride
  // (weighted by the record's work, so the check cadence is
  // unchanged).
  {
    const size_t n = sets.size();
    const size_t grain = DefaultGrain(n, nworkers);
    std::vector<ChunkOut> chunks(NumChunks(n, grain));
    std::vector<std::vector<size_t>> markers(nworkers,
                                             std::vector<size_t>(n, SIZE_MAX));
    std::vector<std::vector<size_t>> cand_bufs(nworkers);
    std::vector<std::vector<const std::vector<Posting>*>> list_bufs(nworkers);
    const double phase_t0 = join_timer.ElapsedMicros();
    ParallelRunStats stats = ParallelChunks(
        pool, n, grain,
        [&](size_t chunk, size_t begin, size_t end, size_t worker) {
          ChunkOut& co = chunks[chunk];
          std::vector<size_t>& candidate_of = markers[worker];
          std::vector<size_t>& candidates = cand_bufs[worker];
          std::vector<const std::vector<Posting>*>& lists = list_bufs[worker];
          GuardTicker ticker(guard);
          for (size_t si = begin;
               si < end && !stop.load(std::memory_order_relaxed); ++si) {
            const Encoded& x = sets[si];
            const size_t prefix = prefix_len[si];
            if (ticker.Tick(1 + prefix)) {
              stop.store(true, std::memory_order_relaxed);
              break;
            }
            const double min_len =
                filter_xi * static_cast<double>(x.ids.size());
            lists.clear();
            for (size_t pi = 0; pi < prefix; ++pi) {
              auto it = postings.find(x.ids[pi]);
              lists.push_back(it == postings.end() ? nullptr : &it->second);
            }
            size_t expected = 0;
            for (const std::vector<Posting>* list : lists) {
              if (list == nullptr) continue;
              expected += list->size();
              HERA_PREFETCH_READ(list->data());
            }
            candidates.clear();
            candidates.reserve(std::min(expected, si));
            for (size_t pi = 0; pi < prefix; ++pi) {
              const std::vector<Posting>* list = lists[pi];
              if (list == nullptr) continue;
              for (const Posting& e : *list) {
                const size_t cj = e.si;
                if (cj >= si) break;  // Ascending: the rest joined later.
                if (candidate_of[cj] == si) continue;  // Already seen.
                // Every filter sees a pair exactly once, at its first
                // shared prefix token; re-encounters would fail the
                // same (size-determined) length check, so marking the
                // pair up front changes neither the candidate set nor
                // its order.
                candidate_of[cj] = si;
                ++co.counters.encountered;
                if (static_cast<double>(sets[cj].ids.size()) < min_len) {
                  ++co.counters.pruned_length;
                  continue;
                }
                if (plan.exact_filters) {
                  int pruned = PositionalSuffixFilter(x.ids, pi,
                                                      sets[cj].ids, e.pos, xi);
                  if (pruned != 0) {
                    if (pruned == 1) {
                      ++co.counters.pruned_positional;
                    } else {
                      ++co.counters.pruned_suffix;
                    }
                    continue;
                  }
                }
                candidates.push_back(cj);
              }
            }

            co.counters.candidates += candidates.size();
            if (ticker.Tick(candidates.size())) {
              // This batch was counted as candidates but never reaches
              // the verify scan below — record it shed so the trip
              // boundary stays exact (candidates == verified + shed).
              co.counters.shed_candidates += candidates.size();
              stop.store(true, std::memory_order_relaxed);
              break;
            }
            // Pull the candidates' token sets toward the cache ahead
            // of the verify scan.
            for (size_t cj : candidates) {
              HERA_PREFETCH_READ(sets[cj].ids.data());
            }
            for (size_t cj : candidates) {
              const Encoded& y = sets[cj];
              const LabeledValue& va = values[x.idx];
              const LabeledValue& vb = values[y.idx];
              if (va.label.rid == vb.label.rid) continue;
              ++co.counters.verified;
              double s = VerifyStringPair(plan, simv, xi, x.ids, y.ids,
                                          va.value, vb.value);
              if (s >= xi) co.pairs.push_back({va.label, vb.label, s});
            }
          }
        },
        rec);
    MergeChunks(chunks, out, &totals);
    AccumulateBusy(stats, report, "join.probe", phase_t0);
  }

  const size_t token_pairs = sets.size() * (sets.size() - (sets.empty() ? 0 : 1)) / 2;
  FinishReport(report, totals, stop.load(std::memory_order_relaxed),
               shed_posting, token_pairs, *out);
  return Status::OK();
}


Status PrefixFilterJoin::JoinAB(const std::vector<LabeledValue>& probe,
                                const std::vector<LabeledValue>& base,
                                const ValueSimilarity& simv, double xi,
                                const RunGuard& guard,
                                std::vector<ValuePair>* out,
                                JoinReport* report) const {
  HERA_FAILPOINT("simjoin.join");
  out->clear();
  ThreadPool* pool = executor();
  const size_t nworkers = (pool && pool->size() > 1) ? pool->size() : 1;
  Timer join_timer;
  const bool rec =
      collect_worker_spans() && report != nullptr && nworkers > 1;
  std::atomic<bool> stop{false};
  const size_t max_posting = guard.max_posting_list();
  size_t shed_posting = 0;
  JoinCounters totals;

  const bool metric_handles_numbers =
      StartsWith(simv.Name(), "hybrid(") || simv.Name() == "numeric";
  const VerifyPlan plan = MakeVerifyPlan(simv, q_, PairCacheFor(simv));
  const double filter_xi = plan.exact_filters ? xi : xi * filter_slack_;

  // ---- Numeric path: base sorted by value, probes scan the window
  // where (gap <= (1 - xi) * max(|x|, |y|)) can hold. Probes chunk
  // across workers; the sorted base is read-only.
  std::vector<size_t> base_numeric;
  for (size_t i = 0; i < base.size(); ++i) {
    if (base[i].value.is_number() && metric_handles_numbers) {
      base_numeric.push_back(i);
    }
  }
  std::sort(base_numeric.begin(), base_numeric.end(), [&](size_t a, size_t b) {
    return base[a].value.AsNumber() < base[b].value.AsNumber();
  });
  const double t = 1.0 - xi;
  const NumericWindow window = NumericWindowFor(simv);
  {
    const size_t n = probe.size();
    const size_t grain = DefaultGrain(n, nworkers);
    std::vector<ChunkOut> chunks(NumChunks(n, grain));
    const double phase_t0 = join_timer.ElapsedMicros();
    ParallelRunStats stats = ParallelChunks(
        pool, n, grain,
        [&](size_t chunk, size_t begin, size_t end, size_t /*worker*/) {
          ChunkOut& co = chunks[chunk];
          GuardTicker ticker(guard);
          for (size_t pi = begin;
               pi < end && !stop.load(std::memory_order_relaxed); ++pi) {
            const LabeledValue& p = probe[pi];
            if (!p.value.is_number() || !metric_handles_numbers) continue;
            double x = p.value.AsNumber();
            // Start at the first y >= x and also scan backwards while
            // the symmetric condition can hold.
            auto cmp = [&](size_t idx, double v) {
              return base[idx].value.AsNumber() < v;
            };
            size_t start = static_cast<size_t>(
                std::lower_bound(base_numeric.begin(), base_numeric.end(), x,
                                 cmp) -
                base_numeric.begin());
            auto try_pair = [&](size_t bi) -> bool {  // "Within window".
              double y = base[bi].value.AsNumber();
              double gap = std::fabs(y - x);
              double denom = std::max(std::fabs(x), std::fabs(y));
              // Epsilon-relaxed pruning window; the metric makes the
              // final call.
              bool within;
              if (window.absolute) {
                within = gap <= t * window.tol + 1e-9;
              } else {
                within = denom == 0.0
                             ? gap == 0.0
                             : gap <= t * denom + 1e-9 * std::max(1.0, denom);
              }
              if (!within) return false;
              if (p.label.rid != base[bi].label.rid) {
                ++co.counters.candidates;
                ++co.counters.verified;
                double s = simv.Compute(p.value, base[bi].value);
                if (s >= xi) co.pairs.push_back({p.label, base[bi].label, s});
              }
              return true;
            };
            // Forward: y >= x; failure is monotone for y > 0 (see
            // Join()), and unconditionally for an absolute window.
            for (size_t k = start; k < base_numeric.size(); ++k) {
              if (ticker.Tick()) {
                stop.store(true, std::memory_order_relaxed);
                break;
              }
              double y = base[base_numeric[k]].value.AsNumber();
              if (!try_pair(base_numeric[k]) && (window.absolute || y > 0))
                break;
            }
            // Backward: y < x; by symmetry, failure is monotone while
            // y < 0 for the relative window, always for the absolute.
            for (size_t k = start; k-- > 0;) {
              if (ticker.Tick()) {
                stop.store(true, std::memory_order_relaxed);
                break;
              }
              double y = base[base_numeric[k]].value.AsNumber();
              if (!try_pair(base_numeric[k]) && (window.absolute || y < 0))
                break;
            }
          }
        },
        rec);
    MergeChunks(chunks, out, &totals);
    AccumulateBusy(stats, report, "join.numeric", phase_t0);
  }

  // ---- String path: full inverted index over the base tokens, probes
  // search with their prefix tokens; two-sided length filter.

  // Phase 1 (parallel): normalization + gram extraction for base and
  // probe sides (TokenCache-served when installed).
  TokenCache* cache = (cache_ && cache_->q() == q_) ? cache_.get() : nullptr;
  std::vector<std::string> base_norm(base.size()), probe_norm(probe.size());
  std::vector<TokenCache::GramsPtr> base_shared, probe_shared;
  std::vector<std::vector<std::string>> base_owned, probe_owned;
  if (cache) {
    base_shared.resize(base.size());
    probe_shared.resize(probe.size());
  } else {
    base_owned.resize(base.size());
    probe_owned.resize(probe.size());
  }
  {
    const size_t n = base.size() + probe.size();
    const double phase_t0 = join_timer.ElapsedMicros();
    ParallelRunStats stats = ParallelChunks(
        pool, n, DefaultGrain(n, nworkers),
        [&](size_t /*chunk*/, size_t begin, size_t end, size_t /*worker*/) {
          for (size_t k = begin; k < end; ++k) {
            const bool is_base = k < base.size();
            const size_t i = is_base ? k : k - base.size();
            const LabeledValue& v = is_base ? base[i] : probe[i];
            if (v.value.is_null()) continue;
            if (v.value.is_number() && metric_handles_numbers) continue;
            std::string norm = Normalize(v.value.ToString());
            if (cache) {
              (is_base ? base_shared : probe_shared)[i] = cache->Grams(norm);
            } else {
              (is_base ? base_owned : probe_owned)[i] = QgramSet(norm, q_);
            }
            (is_base ? base_norm : probe_norm)[i] = std::move(norm);
          }
        },
        rec);
    AccumulateBusy(stats, report, "join.tokenize", phase_t0);
  }
  auto base_grams = [&](size_t i) -> const std::vector<std::string>& {
    return cache ? *base_shared[i] : base_owned[i];
  };
  auto probe_grams = [&](size_t i) -> const std::vector<std::string>& {
    return cache ? *probe_shared[i] : probe_owned[i];
  };

  // Phase 2 (serial): dictionary build; mutates the dictionary.
  QgramDictionary dict(q_);
  for (size_t i = 0; i < base.size(); ++i) {
    if (!base_norm[i].empty()) dict.AddGrams(base_grams(i));
  }
  for (size_t i = 0; i < probe.size(); ++i) {
    if (!probe_norm[i].empty()) dict.AddGrams(probe_grams(i));
  }
  dict.Freeze();

  // Phase 3 (serial): encode the base and build its inverted index,
  // honoring the posting ceiling in ascending base order (identical
  // shed decisions to the serial build).
  // token -> (base idx, token position); the position feeds the
  // positional filter at probe time.
  struct Posting {
    size_t bi;
    size_t pos;
  };
  std::unordered_map<uint32_t, std::vector<Posting>> postings;
  std::vector<std::vector<uint32_t>> base_ids(base.size());
  for (size_t i = 0; i < base.size(); ++i) {
    if (base_norm[i].empty()) continue;
    base_ids[i] = dict.EncodeGrams(base_grams(i));
    for (size_t pos = 0; pos < base_ids[i].size(); ++pos) {
      std::vector<Posting>& list = postings[base_ids[i][pos]];
      if (max_posting > 0 && list.size() >= max_posting) {
        ++shed_posting;
        continue;
      }
      list.push_back({i, pos});
    }
  }

  // Probe token ids are pre-encoded here (encoding can intern unknown
  // grams, so it cannot run concurrently) instead of per-probe inside
  // the scan loop, which also drops the per-iteration vector copy the
  // old in-loop encode paid.
  std::vector<std::vector<uint32_t>> probe_ids(probe.size());
  for (size_t i = 0; i < probe.size(); ++i) {
    if (!probe_norm[i].empty()) probe_ids[i] = dict.EncodeGrams(probe_grams(i));
  }

  // Phase 4 (parallel): probing; per-worker last-probe markers (probe
  // indices are globally unique, so markers never need resetting).
  // Each probe gathers its prefix tokens' posting lists up front (one
  // map find per token, with list-head prefetch), and the guard runs
  // at a per-probe stride weighted by the gathered work instead of
  // inside the posting scan.
  {
    const size_t n = probe.size();
    const size_t grain = DefaultGrain(n, nworkers);
    std::vector<ChunkOut> chunks(NumChunks(n, grain));
    std::vector<std::vector<size_t>> markers(
        nworkers, std::vector<size_t>(base.size(), SIZE_MAX));
    std::vector<std::vector<const std::vector<Posting>*>> list_bufs(nworkers);
    const double phase_t0 = join_timer.ElapsedMicros();
    ParallelRunStats stats = ParallelChunks(
        pool, n, grain,
        [&](size_t chunk, size_t begin, size_t end, size_t worker) {
          ChunkOut& co = chunks[chunk];
          std::vector<size_t>& last_probe = markers[worker];
          std::vector<const std::vector<Posting>*>& lists = list_bufs[worker];
          GuardTicker ticker(guard);
          for (size_t pi = begin;
               pi < end && !stop.load(std::memory_order_relaxed); ++pi) {
            const std::vector<uint32_t>& ids = probe_ids[pi];
            if (ids.empty()) continue;
            const size_t len_x = ids.size();
            const size_t prefix = PrefixLen(len_x, filter_xi);
            if (ticker.Tick(1 + prefix)) {
              stop.store(true, std::memory_order_relaxed);
              break;
            }
            const double min_len = filter_xi * static_cast<double>(len_x);
            const double max_len =
                filter_xi > 0.0 ? static_cast<double>(len_x) / filter_xi
                                : std::numeric_limits<double>::infinity();
            lists.clear();
            for (size_t k = 0; k < prefix; ++k) {
              auto it = postings.find(ids[k]);
              lists.push_back(it == postings.end() ? nullptr : &it->second);
            }
            size_t scan_work = 0;
            for (const std::vector<Posting>* list : lists) {
              if (list == nullptr) continue;
              scan_work += list->size();
              HERA_PREFETCH_READ(list->data());
            }
            if (ticker.Tick(scan_work)) {
              stop.store(true, std::memory_order_relaxed);
              break;
            }
            for (size_t k = 0; k < prefix; ++k) {
              const std::vector<Posting>* list = lists[k];
              if (list == nullptr) continue;
              for (const Posting& e : *list) {
                const size_t bi = e.bi;
                if (last_probe[bi] == pi) continue;
                last_probe[bi] = pi;
                ++co.counters.encountered;
                double blen = static_cast<double>(base_ids[bi].size());
                if (blen < min_len || blen > max_len) {
                  ++co.counters.pruned_length;
                  continue;
                }
                if (probe[pi].label.rid == base[bi].label.rid) continue;
                if (plan.exact_filters) {
                  int pruned = PositionalSuffixFilter(ids, k, base_ids[bi],
                                                      e.pos, xi);
                  if (pruned != 0) {
                    if (pruned == 1) {
                      ++co.counters.pruned_positional;
                    } else {
                      ++co.counters.pruned_suffix;
                    }
                    continue;
                  }
                }
                ++co.counters.candidates;
                ++co.counters.verified;
                double s = VerifyStringPair(plan, simv, xi, ids, base_ids[bi],
                                            probe[pi].value, base[bi].value);
                if (s >= xi) co.pairs.push_back({probe[pi].label, base[bi].label, s});
              }
            }
          }
        },
        rec);
    MergeChunks(chunks, out, &totals);
    AccumulateBusy(stats, report, "join.probe", phase_t0);
  }

  size_t probe_tokenized = 0, base_tokenized = 0;
  for (size_t i = 0; i < probe.size(); ++i) {
    if (!probe_ids[i].empty()) ++probe_tokenized;
  }
  for (size_t i = 0; i < base.size(); ++i) {
    if (!base_ids[i].empty()) ++base_tokenized;
  }
  FinishReport(report, totals, stop.load(std::memory_order_relaxed),
               shed_posting, probe_tokenized * base_tokenized, *out);
  return Status::OK();
}

}  // namespace hera

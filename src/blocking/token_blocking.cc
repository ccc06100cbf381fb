#include "blocking/token_blocking.h"

#include <algorithm>
#include <set>
#include <unordered_map>

#include "common/union_find.h"
#include "matching/weight_kernel.h"
#include "text/tokenizer.h"

namespace hera {

std::vector<Block> BuildBlocks(const Dataset& dataset,
                               const BlockingOptions& options) {
  std::unordered_map<std::string, std::vector<uint32_t>> by_token;
  for (const Record& r : dataset.records()) {
    std::set<std::string> record_tokens;  // Dedup within the record.
    for (const Value& v : r.values()) {
      if (v.is_null()) continue;
      for (auto& tok : WordTokenSet(v.ToString())) {
        if (tok.size() >= options.min_token_length) {
          record_tokens.insert(std::move(tok));
        }
      }
    }
    for (const auto& tok : record_tokens) by_token[tok].push_back(r.id());
  }
  std::vector<Block> blocks;
  blocks.reserve(by_token.size());
  for (auto& [token, ids] : by_token) {
    blocks.push_back(Block{token, std::move(ids)});
  }
  // Deterministic order for reproducibility.
  std::sort(blocks.begin(), blocks.end(),
            [](const Block& a, const Block& b) { return a.token < b.token; });
  return blocks;
}

size_t PurgeBlocks(std::vector<Block>* blocks, size_t dataset_size,
                   const BlockingOptions& options) {
  size_t limit = dataset_size;
  if (options.max_block_fraction > 0.0) {
    limit = static_cast<size_t>(options.max_block_fraction *
                                static_cast<double>(dataset_size));
    limit = std::max<size_t>(limit, 2);
  }
  size_t before = blocks->size();
  blocks->erase(
      std::remove_if(blocks->begin(), blocks->end(),
                     [&](const Block& b) {
                       return b.record_ids.size() < 2 ||
                              b.record_ids.size() > limit;
                     }),
      blocks->end());
  return before - blocks->size();
}

std::vector<std::pair<uint32_t, uint32_t>> CandidatePairsFromBlocks(
    const std::vector<Block>& blocks) {
  std::set<std::pair<uint32_t, uint32_t>> pairs;
  for (const Block& b : blocks) {
    for (size_t i = 0; i < b.record_ids.size(); ++i) {
      for (size_t j = i + 1; j < b.record_ids.size(); ++j) {
        uint32_t a = b.record_ids[i], c = b.record_ids[j];
        pairs.emplace(std::min(a, c), std::max(a, c));
      }
    }
  }
  return {pairs.begin(), pairs.end()};
}

BlockingQuality EvaluateBlocking(
    const std::vector<std::pair<uint32_t, uint32_t>>& candidates,
    const std::vector<uint32_t>& truth) {
  BlockingQuality q;
  q.num_candidates = candidates.size();
  uint64_t true_pairs = 0;
  std::unordered_map<uint32_t, uint64_t> sizes;
  for (uint32_t label : truth) ++sizes[label];
  for (const auto& [label, n] : sizes) {
    (void)label;
    true_pairs += n * (n - 1) / 2;
  }
  uint64_t found = 0;
  for (auto [a, b] : candidates) {
    if (truth[a] == truth[b]) ++found;
  }
  q.pair_completeness =
      true_pairs == 0 ? 1.0
                      : static_cast<double>(found) /
                            static_cast<double>(true_pairs);
  uint64_t total_space =
      static_cast<uint64_t>(truth.size()) * (truth.size() - 1) / 2;
  q.reduction_ratio =
      total_space == 0
          ? 0.0
          : 1.0 - static_cast<double>(candidates.size()) /
                      static_cast<double>(total_space);
  return q;
}

namespace {

/// Schema-agnostic record similarity: values of the smaller record,
/// each matched to its best partner in the other record (one-to-one is
/// not enforced — this is the baseline's coarseness), normalized by the
/// smaller value count. Only bests reaching xi contribute, so the
/// scorer's per-cell skipping below xi cannot change the sum.
double BagSimilarity(const Record& a, const Record& b, BestPairScorer& scorer,
                     double xi) {
  const Record& small = a.NumPresent() <= b.NumPresent() ? a : b;
  const Record& large = a.NumPresent() <= b.NumPresent() ? b : a;
  size_t denom = small.NumPresent();
  if (denom == 0) return 0.0;
  double total = 0.0;
  for (const Value& vs : small.values()) {
    if (vs.is_null()) continue;
    double best = scorer.BestAtLeast(vs, large.values(), xi);
    if (best >= xi) total += best;
  }
  return total / static_cast<double>(denom);
}

}  // namespace

std::vector<uint32_t> TokenBlockingER(const Dataset& dataset,
                                      const ValueSimilarity& simv,
                                      const TokenBlockingEROptions& options) {
  const size_t n = dataset.size();
  std::vector<uint32_t> labels(n, 0);
  if (n == 0) return labels;
  std::vector<Block> blocks = BuildBlocks(dataset, options.blocking);
  PurgeBlocks(&blocks, n, options.blocking);
  UnionFind uf(n);
  BestPairScorer scorer(simv);
  for (auto [i, j] : CandidatePairsFromBlocks(blocks)) {
    if (uf.Connected(i, j)) continue;
    double sim =
        BagSimilarity(dataset.record(i), dataset.record(j), scorer, options.xi);
    if (sim >= options.delta) uf.Union(i, j);
  }
  for (uint32_t r = 0; r < n; ++r) labels[r] = uf.Find(r);
  return labels;
}

}  // namespace hera

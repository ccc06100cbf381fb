// Attribute-agnostic token blocking (Papadakis et al., "Efficient
// entity resolution for large heterogeneous information spaces",
// WSDM 2011 — reference [1] of the paper).
//
// The related-work alternative for heterogeneous ER: ignore schemas
// entirely, key every record by the normalized tokens of its values,
// and consider co-blocked records candidate pairs. The paper argues
// this "did not comprise the exact solution of record similarity
// computation" and cannot handle description difference; this module
// lets the claim be measured (bench_ablation).
//
// Pipeline stages, each independently usable:
//   1. BuildBlocks     — token -> record ids.
//   2. PurgeBlocks     — drop oversized, low-information blocks
//                        (block purging).
//   3. CandidatePairs  — distinct co-blocked pairs.
//   4. TokenBlockingER — full baseline: blocking + pairwise record
//                        similarity + transitive closure.

#ifndef HERA_BLOCKING_TOKEN_BLOCKING_H_
#define HERA_BLOCKING_TOKEN_BLOCKING_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "record/dataset.h"
#include "sim/similarity.h"

namespace hera {

/// One block: the records containing a given token.
struct Block {
  std::string token;
  std::vector<uint32_t> record_ids;  // Sorted, unique.
};

/// Blocking configuration.
struct BlockingOptions {
  /// Blocks larger than this fraction of the dataset are purged as
  /// uninformative (stop-word tokens). 0 disables purging.
  double max_block_fraction = 0.1;
  /// Tokens shorter than this never form blocks.
  size_t min_token_length = 2;
};

/// Builds one block per distinct normalized word token across every
/// value of every record, schema-agnostically.
std::vector<Block> BuildBlocks(const Dataset& dataset,
                               const BlockingOptions& options = {});

/// Removes blocks with more than max_block_fraction * |dataset| records
/// (and empties/singletons, which generate no pairs). Returns the
/// number of purged blocks.
size_t PurgeBlocks(std::vector<Block>* blocks, size_t dataset_size,
                   const BlockingOptions& options = {});

/// Distinct record pairs co-occurring in at least one block
/// (first < second).
std::vector<std::pair<uint32_t, uint32_t>> CandidatePairsFromBlocks(
    const std::vector<Block>& blocks);

/// Blocking quality vs ground truth: pair completeness (recall of true
/// pairs among candidates) and reduction ratio (fraction of the full
/// pair space avoided).
struct BlockingQuality {
  double pair_completeness = 0.0;
  double reduction_ratio = 0.0;
  size_t num_candidates = 0;
};
BlockingQuality EvaluateBlocking(
    const std::vector<std::pair<uint32_t, uint32_t>>& candidates,
    const std::vector<uint32_t>& truth);

/// Full attribute-agnostic ER baseline: token blocking, then pairwise
/// instance similarity (records as value bags, best-pair per value of
/// the smaller record, min-normalized), then transitive closure over
/// pairs reaching `delta`.
struct TokenBlockingEROptions {
  BlockingOptions blocking;
  double xi = 0.5;
  double delta = 0.5;
};
std::vector<uint32_t> TokenBlockingER(const Dataset& dataset,
                                      const ValueSimilarity& simv,
                                      const TokenBlockingEROptions& options);

}  // namespace hera

#endif  // HERA_BLOCKING_TOKEN_BLOCKING_H_

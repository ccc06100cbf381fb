// Snapshot codec: a full serialization of the resolution engine's
// mutable state at an iteration boundary.
//
// A snapshot file is a sequence of CRC-framed blocks (see codec.h):
//
//   block 0  header   magic "HERASNAP", format version, run kind,
//                     options/corpus fingerprints, epoch, iteration
//   block 1  core     union-find labels, HeraStats (incl. the full
//                     merge_sequence), loop state, index/vote counters
//   block 2  records  every live super record (fields, values, members)
//   block 3  index    every value pair with its stable pid
//   block 4  votes    schema-matching vote tallies
//
// Restoring a snapshot and replaying the epoch's WAL reconstructs the
// engine byte-for-byte: pids are preserved (they are an index sort
// tie-breaker), stats counters are exact, and the fixpoint loop's
// dirty/deferred sets resume where the pass left off. The fingerprints
// guard against resuming under different options or a different corpus,
// which would silently produce garbage.

#ifndef HERA_PERSIST_SNAPSHOT_H_
#define HERA_PERSIST_SNAPSHOT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/statusor.h"
#include "core/options.h"
#include "index/value_pair_index.h"
#include "record/dataset.h"
#include "record/super_record.h"
#include "schema/majority_vote.h"

namespace hera {
namespace persist {

/// Current snapshot format version. Bump on any layout change; readers
/// reject versions they do not know. v2 added the best-first budget
/// stats (frontier_groups, budget_deferred_groups, shed_join_candidates)
/// to the core block and two per-pass deltas to WAL entries.
inline constexpr uint32_t kSnapshotVersion = 2;

/// Run kind recorded in the header: resuming a batch checkpoint through
/// IncrementalHera (or vice versa) is refused.
enum class RunKind : uint8_t { kBatch = 0, kIncremental = 1 };

/// \brief Complete serializable state of a ResolutionEngine.
struct EngineState {
  // Union-find: labels[r] is the representative of record r.
  uint64_t num_records = 0;
  std::vector<uint32_t> labels;

  // Live super records (the engine's active set).
  std::vector<SuperRecord> super_records;

  // Value-pair index contents; pids are preserved exactly because pid
  // is the index key tie-breaker for equal-similarity pairs.
  std::vector<IndexedPair> index_pairs;
  uint64_t index_next_pid = 0;
  uint64_t index_probe_count = 0;
  uint64_t index_shed_pairs = 0;
  uint64_t index_shed_posting = 0;

  // Schema-matching vote tallies.
  std::vector<ExportedVote> votes;
  uint64_t num_predictions = 0;

  // Run statistics, including the full merge_sequence.
  HeraStats stats;

  // Engine bookkeeping outside HeraStats.
  uint32_t indexed_watermark = 0;
  uint64_t join_shed_posting = 0;
  double simplified_nodes_sum = 0.0;
  uint64_t simplified_nodes_count = 0;

  // Fixpoint-loop state at the snapshot boundary. first_pass=true with
  // empty dirty/deferred means "rescan everything" (a fresh loop).
  bool loop_first_pass = true;
  std::vector<uint32_t> loop_dirty;  // sorted rids
  std::vector<std::pair<uint32_t, uint32_t>> loop_deferred;
};

/// \brief Snapshot file header.
struct SnapshotHeader {
  RunKind kind = RunKind::kBatch;
  uint64_t options_fp = 0;
  uint64_t corpus_fp = 0;
  uint64_t epoch = 0;
  uint64_t iteration = 0;
};

/// Serializes header + state into a framed snapshot file image.
std::string EncodeSnapshot(const SnapshotHeader& header,
                           const EngineState& state);

/// Decoded snapshot: header + state.
struct DecodedSnapshot {
  SnapshotHeader header;
  EngineState state;
};

/// Parses a snapshot file image. Any truncation, bit flip, bad magic,
/// or unknown version yields an IOError; the caller falls back to the
/// previous epoch's snapshot.
StatusOr<DecodedSnapshot> DecodeSnapshot(std::string_view file);

/// FNV-1a fingerprint of the options that shape resolution results
/// (xi, delta, metric, bounds/join/voting switches and parameters).
/// Deliberately excludes max_iterations, num_threads, guard, report and
/// checkpoint settings: a resumed run may tighten or relax those.
uint64_t FingerprintOptions(const HeraOptions& options);

/// FNV-1a fingerprint of a schema catalog (names + attribute lists).
uint64_t FingerprintSchemas(const SchemaCatalog& schemas);

/// FNV-1a fingerprint of a full dataset: schemas + every record's
/// schema id and values. Ground truth is excluded (never read by
/// resolution).
uint64_t FingerprintDataset(const Dataset& dataset);

}  // namespace persist
}  // namespace hera

#endif  // HERA_PERSIST_SNAPSHOT_H_

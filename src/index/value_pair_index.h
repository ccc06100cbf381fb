// The value-pair index of Section III (Definition 6).
//
// Stores every similar value pair (simv >= ξ, different records),
// labeled ((rid1,fid1,vid1),(rid2,fid2,vid2)) with rid1 < rid2, ordered
// by (rid1 asc, rid2 asc, sim desc) — exactly the paper's sort. The
// backing container is an ordered map keyed by (rid1, rid2, -sim, pid),
// which provides the paper's binary-search range lookups
// (binary_search_l / binary_search_r collapse to lower_bound) and the
// O(|V̂_ij| log |V|) merge maintenance of Proposition 4.

#ifndef HERA_INDEX_VALUE_PAIR_INDEX_H_
#define HERA_INDEX_VALUE_PAIR_INDEX_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "simjoin/similarity_join.h"

namespace hera {

/// Relaxed atomic counter with value-copying moves, so classes holding
/// one keep their defaulted move operations (a raw std::atomic deletes
/// them, which historically forced a hand-written field-by-field move
/// that every new member had to be added to — an easy-to-drift list).
class MovableAtomicCounter {
 public:
  MovableAtomicCounter() = default;
  MovableAtomicCounter(MovableAtomicCounter&& other) noexcept
      : v_(other.v_.load(std::memory_order_relaxed)) {}
  MovableAtomicCounter& operator=(MovableAtomicCounter&& other) noexcept {
    v_.store(other.v_.load(std::memory_order_relaxed),
             std::memory_order_relaxed);
    return *this;
  }

  void Inc(uint64_t delta = 1) const {
    v_.fetch_add(delta, std::memory_order_relaxed);
  }
  void Store(uint64_t value) const {
    v_.store(value, std::memory_order_relaxed);
  }
  uint64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  /// Mutable so logically-const probe paths can count traffic.
  mutable std::atomic<uint64_t> v_{0};
};

/// One index entry: pid (stable identity), the two labels, similarity.
struct IndexedPair {
  uint64_t pid = 0;
  ValueLabel a;  // a.rid < b.rid invariant.
  ValueLabel b;
  double sim = 0.0;
};

/// \brief Sorted value-pair index with merge maintenance.
class ValuePairIndex {
 public:
  ValuePairIndex() = default;

  // The probe counter is a MovableAtomicCounter precisely so these can
  // stay defaulted: a hand-written member list here silently dropped
  // fields as they were added. The index is only ever moved between
  // runs, never concurrently with probes.
  ValuePairIndex(ValuePairIndex&&) noexcept = default;
  ValuePairIndex& operator=(ValuePairIndex&&) noexcept = default;

  /// Installs resource ceilings (0 = unlimited): `max_pairs` caps the
  /// total pair count, `max_per_record` caps one record's posting list
  /// (pairs touching it). AddPairs rejects pairs beyond a ceiling and
  /// counts them as shed — feed pairs strongest-first so the weakest
  /// are what gets dropped. Merge maintenance is exempt: relabeling an
  /// existing pair never sheds it.
  void SetCeilings(size_t max_pairs, size_t max_per_record) {
    max_pairs_ = max_pairs;
    max_per_record_ = max_per_record;
  }

  /// Pairs rejected by the max_pairs ceiling.
  size_t shed_pairs() const { return shed_pairs_; }
  /// Pairs rejected by the per-record posting-list ceiling.
  size_t shed_posting_entries() const { return shed_posting_entries_; }

  /// Ingests join output. Each pair is normalized so a.rid < b.rid and
  /// assigned a pid. Replaces any previous contents.
  void Build(const std::vector<ValuePair>& pairs);

  /// Adds further pairs to an existing index (fresh pids); used by
  /// incremental resolution when new records arrive. Honors the
  /// ceilings (see SetCeilings).
  void AddPairs(const std::vector<ValuePair>& pairs);

  /// Number of value pairs currently stored (the |S| of Table II at
  /// build time).
  size_t size() const { return pairs_.size(); }

  /// All pairs for the record pair (i, j), descending similarity.
  /// Order of i and j does not matter.
  std::vector<IndexedPair> PairsFor(uint32_t i, uint32_t j) const;

  /// Visits every non-empty (rid1, rid2) group in index order; `pairs`
  /// is sorted by descending similarity. Candidate generation is one
  /// pass over this (Proposition 2).
  void ForEachGroup(
      const std::function<void(uint32_t rid1, uint32_t rid2,
                               const std::vector<IndexedPair>& pairs)>& fn) const;

  /// Applies the merge of records `rid_i` and `rid_j` into `new_rid`
  /// (Section III-B2): deletes pairs that became intra-record, rewrites
  /// labels per `remap` (from SuperRecord::Merge), and restores sort
  /// order. `new_rid` must be `rid_i` or `rid_j`.
  void ApplyMerge(uint32_t rid_i, uint32_t rid_j, uint32_t new_rid,
                  const std::vector<std::pair<ValueLabel, ValueLabel>>& remap);

  /// Visits every live record's posting-list length (pairs touching
  /// it); feeds the observability layer's posting-length histogram.
  void ForEachPostingLength(
      const std::function<void(uint32_t rid, size_t len)>& fn) const;

  /// PairsFor lookups served since construction (probe traffic; never
  /// reset by Build).
  size_t probe_count() const { return probe_count_.value(); }

  /// All pairs in index order (for tests / checkpoint export).
  std::vector<IndexedPair> Dump() const;

  /// Next pid AddPairs would assign (checkpoint export).
  uint64_t next_pid() const { return next_pid_; }

  /// Replaces the contents with checkpointed pairs, preserving each
  /// pair's pid exactly — pid is the sort tie-breaker for
  /// equal-similarity pairs, so fresh pids could reorder candidate
  /// groups and break the byte-identical-resume guarantee. Ceilings are
  /// not consulted (the pairs already passed them when first added);
  /// the shed/probe counters are restored verbatim.
  void RestoreState(const std::vector<IndexedPair>& pairs, uint64_t next_pid,
                    size_t shed_pairs, size_t shed_posting_entries,
                    uint64_t probe_count);

  /// Verifies invariants (a.rid < b.rid, ordering, secondary indexes
  /// consistent). Returns false and stops at the first violation.
  bool CheckInvariants() const;

 private:
  struct Key {
    uint32_t rid1;
    uint32_t rid2;
    double neg_sim;  // Ascending neg_sim == descending sim.
    uint64_t pid;    // Tie-breaker; keeps keys unique.

    bool operator<(const Key& o) const {
      if (rid1 != o.rid1) return rid1 < o.rid1;
      if (rid2 != o.rid2) return rid2 < o.rid2;
      if (neg_sim != o.neg_sim) return neg_sim < o.neg_sim;
      return pid < o.pid;
    }
  };

  struct Entry {
    ValueLabel a;
    ValueLabel b;
    double sim;
  };

  void Insert(uint64_t pid, ValueLabel a, ValueLabel b, double sim);
  void Erase(uint64_t pid);

  std::map<Key, Entry> pairs_;
  /// pid -> sort key.
  std::unordered_map<uint64_t, Key> by_pid_;
  // rid -> pids of pairs touching that record; drives ApplyMerge.
  std::unordered_map<uint32_t, std::unordered_set<uint64_t>> touching_;
  uint64_t next_pid_ = 0;

  size_t max_pairs_ = 0;
  size_t max_per_record_ = 0;
  size_t shed_pairs_ = 0;
  size_t shed_posting_entries_ = 0;
  /// Atomic (relaxed) because PairsFor is probed concurrently by the
  /// engine's parallel verification phase (everything else on the
  /// index stays controller-thread only).
  MovableAtomicCounter probe_count_;
};

}  // namespace hera

#endif  // HERA_INDEX_VALUE_PAIR_INDEX_H_

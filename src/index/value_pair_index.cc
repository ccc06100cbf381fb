#include "index/value_pair_index.h"

#include <algorithm>
#include <cassert>
#include <map>

namespace hera {

void ValuePairIndex::Build(const std::vector<ValuePair>& pairs) {
  pairs_.clear();
  by_pid_.clear();
  touching_.clear();
  next_pid_ = 0;
  shed_pairs_ = 0;
  shed_posting_entries_ = 0;
  AddPairs(pairs);
}

void ValuePairIndex::AddPairs(const std::vector<ValuePair>& pairs) {
  for (const ValuePair& p : pairs) {
    ValueLabel a = p.a, b = p.b;
    assert(a.rid != b.rid);
    if (a.rid > b.rid) std::swap(a, b);
    if (max_pairs_ > 0 && pairs_.size() >= max_pairs_) {
      ++shed_pairs_;
      continue;
    }
    if (max_per_record_ > 0) {
      auto over = [&](uint32_t rid) {
        auto it = touching_.find(rid);
        return it != touching_.end() && it->second.size() >= max_per_record_;
      };
      if (over(a.rid) || over(b.rid)) {
        ++shed_posting_entries_;
        continue;
      }
    }
    Insert(next_pid_++, a, b, p.sim);
  }
}

void ValuePairIndex::Insert(uint64_t pid, ValueLabel a, ValueLabel b, double sim) {
  Key key{a.rid, b.rid, -sim, pid};
  pairs_.emplace(key, Entry{a, b, sim});
  by_pid_.emplace(pid, key);
  touching_[a.rid].insert(pid);
  touching_[b.rid].insert(pid);
}

void ValuePairIndex::Erase(uint64_t pid) {
  auto pit = pairs_.find(by_pid_.at(pid));
  assert(pit != pairs_.end());
  touching_[pit->second.a.rid].erase(pid);
  touching_[pit->second.b.rid].erase(pid);
  pairs_.erase(pit);
  by_pid_.erase(pid);
}

std::vector<IndexedPair> ValuePairIndex::PairsFor(uint32_t i, uint32_t j) const {
  probe_count_.Inc();
  if (i > j) std::swap(i, j);
  std::vector<IndexedPair> out;
  Key lo{i, j, -2.0, 0};  // Similarities are in [0,1]; -2 precedes all.
  for (auto it = pairs_.lower_bound(lo);
       it != pairs_.end() && it->first.rid1 == i && it->first.rid2 == j; ++it) {
    out.push_back({it->first.pid, it->second.a, it->second.b, it->second.sim});
  }
  return out;
}

void ValuePairIndex::ForEachGroup(
    const std::function<void(uint32_t, uint32_t, const std::vector<IndexedPair>&)>&
        fn) const {
  std::vector<IndexedPair> group;
  uint32_t cur1 = 0, cur2 = 0;
  bool open = false;
  for (const auto& [key, entry] : pairs_) {
    if (!open || key.rid1 != cur1 || key.rid2 != cur2) {
      if (open) fn(cur1, cur2, group);
      group.clear();
      cur1 = key.rid1;
      cur2 = key.rid2;
      open = true;
    }
    group.push_back({key.pid, entry.a, entry.b, entry.sim});
  }
  if (open) fn(cur1, cur2, group);
}

void ValuePairIndex::ApplyMerge(
    uint32_t rid_i, uint32_t rid_j, uint32_t new_rid,
    const std::vector<std::pair<ValueLabel, ValueLabel>>& remap) {
  assert(new_rid == rid_i || new_rid == rid_j);
  std::map<ValueLabel, ValueLabel> relabel(remap.begin(), remap.end());

  // Snapshot affected pids: everything touching either input record.
  std::vector<uint64_t> affected;
  for (uint32_t rid : {rid_i, rid_j}) {
    auto it = touching_.find(rid);
    if (it == touching_.end()) continue;
    affected.insert(affected.end(), it->second.begin(), it->second.end());
  }
  std::sort(affected.begin(), affected.end());
  affected.erase(std::unique(affected.begin(), affected.end()), affected.end());

  for (uint64_t pid : affected) {
    Entry entry = pairs_.at(by_pid_.at(pid));
    auto rewrite = [&](ValueLabel& label) {
      if (label.rid != rid_i && label.rid != rid_j) return;
      auto it = relabel.find(label);
      assert(it != relabel.end() && "merge remap must cover every indexed value");
      label = it->second;
    };
    rewrite(entry.a);
    rewrite(entry.b);
    Erase(pid);
    if (entry.a.rid == entry.b.rid) continue;  // Became intra-record: delete.
    if (entry.a.rid > entry.b.rid) std::swap(entry.a, entry.b);
    Insert(pid, entry.a, entry.b, entry.sim);
  }
  // The absorbed rid no longer owns any pairs.
  touching_.erase(new_rid == rid_i ? rid_j : rid_i);
}

void ValuePairIndex::ForEachPostingLength(
    const std::function<void(uint32_t rid, size_t len)>& fn) const {
  for (const auto& [rid, pids] : touching_) {
    if (!pids.empty()) fn(rid, pids.size());
  }
}

std::vector<IndexedPair> ValuePairIndex::Dump() const {
  std::vector<IndexedPair> out;
  out.reserve(pairs_.size());
  for (const auto& [key, entry] : pairs_) {
    out.push_back({key.pid, entry.a, entry.b, entry.sim});
  }
  return out;
}

void ValuePairIndex::RestoreState(const std::vector<IndexedPair>& pairs,
                                  uint64_t next_pid, size_t shed_pairs,
                                  size_t shed_posting_entries,
                                  uint64_t probe_count) {
  pairs_.clear();
  by_pid_.clear();
  touching_.clear();
  for (const IndexedPair& p : pairs) {
    assert(p.a.rid < p.b.rid);
    Insert(p.pid, p.a, p.b, p.sim);
  }
  next_pid_ = next_pid;
  shed_pairs_ = shed_pairs;
  shed_posting_entries_ = shed_posting_entries;
  probe_count_.Store(probe_count);
}

bool ValuePairIndex::CheckInvariants() const {
  if (by_pid_.size() != pairs_.size()) return false;
  for (const auto& [key, entry] : pairs_) {
    if (entry.a.rid >= entry.b.rid) return false;
    if (key.rid1 != entry.a.rid || key.rid2 != entry.b.rid) return false;
    if (key.neg_sim != -entry.sim) return false;
    auto it = by_pid_.find(key.pid);
    if (it == by_pid_.end()) return false;
    const Key& k2 = it->second;
    if (k2.rid1 != key.rid1 || k2.rid2 != key.rid2 ||
        k2.neg_sim != key.neg_sim || k2.pid != key.pid) {
      return false;
    }
    auto ta = touching_.find(entry.a.rid);
    auto tb = touching_.find(entry.b.rid);
    if (ta == touching_.end() || !ta->second.count(key.pid)) return false;
    if (tb == touching_.end() || !tb->second.count(key.pid)) return false;
  }
  return true;
}

}  // namespace hera

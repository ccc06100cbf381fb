// Tests for src/index: value-pair index ordering (Definition 6), range
// lookups, merge maintenance (Section III-B2, Proposition 3), and the
// bound computation (Algorithm 1).

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <set>
#include <vector>

#include "common/random.h"
#include "index/bounds.h"
#include "index/value_pair_index.h"

namespace hera {
namespace {

ValuePair MakePair(uint32_t r1, uint32_t f1, uint32_t v1, uint32_t r2,
                   uint32_t f2, uint32_t v2, double sim) {
  return {ValueLabel{r1, f1, v1}, ValueLabel{r2, f2, v2}, sim};
}

TEST(ValuePairIndexTest, BuildNormalizesRidOrder) {
  ValuePairIndex index;
  index.Build({MakePair(5, 0, 0, 2, 1, 0, 0.7)});
  auto pairs = index.Dump();
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_EQ(pairs[0].a.rid, 2u);
  EXPECT_EQ(pairs[0].b.rid, 5u);
  EXPECT_TRUE(index.CheckInvariants());
}

TEST(ValuePairIndexTest, SortOrderRid1Rid2SimDesc) {
  ValuePairIndex index;
  index.Build({
      MakePair(1, 0, 0, 3, 0, 0, 0.5),
      MakePair(0, 0, 0, 2, 0, 0, 0.9),
      MakePair(1, 0, 0, 2, 0, 0, 0.6),
      MakePair(1, 1, 0, 3, 1, 0, 0.8),  // Same group as first, higher sim.
  });
  auto pairs = index.Dump();
  ASSERT_EQ(pairs.size(), 4u);
  EXPECT_EQ(pairs[0].a.rid, 0u);  // (0,2) first.
  EXPECT_EQ(pairs[1].a.rid, 1u);  // Then (1,2).
  EXPECT_EQ(pairs[1].b.rid, 2u);
  // Group (1,3): descending similarity.
  EXPECT_EQ(pairs[2].b.rid, 3u);
  EXPECT_DOUBLE_EQ(pairs[2].sim, 0.8);
  EXPECT_DOUBLE_EQ(pairs[3].sim, 0.5);
}

TEST(ValuePairIndexTest, PairsForReturnsGroupDescending) {
  ValuePairIndex index;
  index.Build({
      MakePair(0, 0, 0, 1, 0, 0, 0.4),
      MakePair(0, 1, 0, 1, 1, 0, 0.9),
      MakePair(0, 2, 0, 2, 0, 0, 0.5),
  });
  auto pairs = index.PairsFor(0, 1);
  ASSERT_EQ(pairs.size(), 2u);
  EXPECT_DOUBLE_EQ(pairs[0].sim, 0.9);
  EXPECT_DOUBLE_EQ(pairs[1].sim, 0.4);
  // Argument order is irrelevant.
  EXPECT_EQ(index.PairsFor(1, 0).size(), 2u);
  // Missing group.
  EXPECT_TRUE(index.PairsFor(1, 2).empty());
}

TEST(ValuePairIndexTest, ForEachGroupVisitsAllGroupsInOrder) {
  ValuePairIndex index;
  index.Build({
      MakePair(0, 0, 0, 1, 0, 0, 0.5),
      MakePair(0, 0, 0, 2, 0, 0, 0.5),
      MakePair(1, 0, 0, 2, 0, 0, 0.5),
      MakePair(1, 1, 0, 2, 1, 0, 0.7),
  });
  std::vector<std::pair<uint32_t, uint32_t>> groups;
  std::vector<size_t> sizes;
  index.ForEachGroup([&](uint32_t a, uint32_t b,
                         const std::vector<IndexedPair>& pairs) {
    groups.emplace_back(a, b);
    sizes.push_back(pairs.size());
  });
  EXPECT_EQ(groups, (std::vector<std::pair<uint32_t, uint32_t>>{
                        {0, 1}, {0, 2}, {1, 2}}));
  EXPECT_EQ(sizes, (std::vector<size_t>{1, 1, 2}));
}

TEST(ValuePairIndexTest, ApplyMergeDeletesIntraRecordPairs) {
  // Pairs between the two merged records must disappear (delete step).
  ValuePairIndex index;
  index.Build({
      MakePair(0, 0, 0, 1, 0, 0, 0.9),  // Becomes intra after merge(0,1).
      MakePair(0, 1, 0, 2, 0, 0, 0.8),
  });
  std::vector<std::pair<ValueLabel, ValueLabel>> remap = {
      {{0, 0, 0}, {0, 0, 0}},
      {{0, 1, 0}, {0, 1, 0}},
      {{1, 0, 0}, {0, 0, 1}},  // r1's value joins field 0 of merged R0.
  };
  index.ApplyMerge(0, 1, 0, remap);
  auto pairs = index.Dump();
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_EQ(pairs[0].a.rid, 0u);
  EXPECT_EQ(pairs[0].b.rid, 2u);
  EXPECT_TRUE(index.CheckInvariants());
}

TEST(ValuePairIndexTest, ApplyMergeRewritesLabelsAndReorders) {
  // Fig 6: merging r1 and r6 rewrites rid 6 labels to rid 1 and the
  // affected pairs re-sort into their new groups.
  ValuePairIndex index;
  index.Build({
      MakePair(2, 0, 0, 6, 1, 0, 0.95),  // (2,6) -> becomes (1,2) group.
      MakePair(1, 0, 0, 6, 0, 0, 1.0),   // (1,6) -> intra, deleted.
      MakePair(4, 0, 0, 6, 2, 0, 0.7),   // (4,6) -> (1,4).
  });
  std::vector<std::pair<ValueLabel, ValueLabel>> remap = {
      {{1, 0, 0}, {1, 0, 0}},
      {{6, 0, 0}, {1, 0, 0}},  // Dedup onto r1's value.
      {{6, 1, 0}, {1, 5, 0}},
      {{6, 2, 0}, {1, 6, 0}},
  };
  index.ApplyMerge(1, 6, 1, remap);
  EXPECT_TRUE(index.CheckInvariants());
  auto pairs = index.Dump();
  ASSERT_EQ(pairs.size(), 2u);
  // New sort order: (1,2) before (1,4).
  EXPECT_EQ(pairs[0].a.rid, 1u);
  EXPECT_EQ(pairs[0].b.rid, 2u);
  EXPECT_EQ(pairs[0].a.fid, 5u);  // Rewritten label.
  EXPECT_EQ(pairs[1].b.rid, 4u);
  EXPECT_EQ(pairs[1].a.fid, 6u);
}

TEST(ValuePairIndexTest, Proposition3GroupsCombineAfterMerges) {
  // After merging (0,1) and (2,3), all surviving cross pairs live in
  // the single group (0, 2): V_{f(i) f(j)} ⊆ V.
  ValuePairIndex index;
  index.Build({
      MakePair(0, 0, 0, 2, 0, 0, 0.9),
      MakePair(0, 0, 0, 3, 0, 0, 0.8),
      MakePair(1, 0, 0, 2, 0, 0, 0.7),
      MakePair(1, 0, 0, 3, 0, 0, 0.6),
  });
  index.ApplyMerge(0, 1, 0,
                   {{{0, 0, 0}, {0, 0, 0}}, {{1, 0, 0}, {0, 1, 0}}});
  EXPECT_TRUE(index.CheckInvariants());
  index.ApplyMerge(2, 3, 2,
                   {{{2, 0, 0}, {2, 0, 0}}, {{3, 0, 0}, {2, 1, 0}}});
  EXPECT_TRUE(index.CheckInvariants());
  auto pairs = index.PairsFor(0, 2);
  EXPECT_EQ(pairs.size(), 4u);
  EXPECT_EQ(index.size(), 4u);
  // Descending similarity within the combined group.
  for (size_t i = 1; i < pairs.size(); ++i) {
    EXPECT_GE(pairs[i - 1].sim, pairs[i].sim);
  }
}

TEST(ValuePairIndexTest, BuildReplacesPreviousContents) {
  ValuePairIndex index;
  index.Build({MakePair(0, 0, 0, 1, 0, 0, 0.5)});
  index.Build({MakePair(2, 0, 0, 3, 0, 0, 0.6)});
  EXPECT_EQ(index.size(), 1u);
  EXPECT_TRUE(index.PairsFor(0, 1).empty());
  EXPECT_EQ(index.PairsFor(2, 3).size(), 1u);
}

TEST(ValuePairIndexTest, RandomizedMergeMaintainsInvariants) {
  Rng rng(77);
  const uint32_t kRecords = 20;
  std::vector<ValuePair> pairs;
  for (int i = 0; i < 150; ++i) {
    uint32_t a = static_cast<uint32_t>(rng.Uniform(kRecords));
    uint32_t b = static_cast<uint32_t>(rng.Uniform(kRecords));
    if (a == b) continue;
    pairs.push_back(MakePair(a, static_cast<uint32_t>(rng.Uniform(4)),
                             static_cast<uint32_t>(rng.Uniform(2)), b,
                             static_cast<uint32_t>(rng.Uniform(4)),
                             static_cast<uint32_t>(rng.Uniform(2)),
                             rng.UniformDouble()));
  }
  ValuePairIndex index;
  index.Build(pairs);
  ASSERT_TRUE(index.CheckInvariants());

  // Repeatedly merge random live record pairs with identity-style
  // remaps (values keep fid/vid, rid rewrites to the survivor with a
  // field offset to avoid label collisions).
  std::vector<uint32_t> live;
  for (uint32_t r = 0; r < kRecords; ++r) live.push_back(r);
  for (int step = 0; step < 10 && live.size() >= 2; ++step) {
    size_t ai = rng.Uniform(live.size());
    size_t bi = rng.Uniform(live.size());
    if (ai == bi) continue;
    uint32_t a = live[std::min(ai, bi)], b = live[std::max(ai, bi)];
    // Build the remap from the labels actually present: a's labels map
    // to themselves, b's get globally fresh field ids (guaranteed
    // collision-free across repeated merges).
    static uint32_t next_fid = 1000;
    std::set<ValueLabel> touched;
    std::vector<std::pair<ValueLabel, ValueLabel>> remap;
    for (const auto& p : index.Dump()) {
      for (const ValueLabel& label : {p.a, p.b}) {
        if (label.rid != a && label.rid != b) continue;
        if (!touched.insert(label).second) continue;
        if (label.rid == a) {
          remap.push_back({label, label});
        } else {
          remap.push_back({label, ValueLabel{a, next_fid++, 0}});
        }
      }
    }
    index.ApplyMerge(a, b, a, remap);
    EXPECT_TRUE(index.CheckInvariants()) << "step " << step;
    live.erase(std::remove(live.begin(), live.end(), b), live.end());
    // No pair may reference the dead record.
    for (const auto& p : index.Dump()) {
      EXPECT_NE(p.a.rid, b);
      EXPECT_NE(p.b.rid, b);
    }
  }
}

std::vector<ValuePair> RandomPairs(Rng* rng, size_t n, uint32_t num_records) {
  std::vector<ValuePair> pairs;
  while (pairs.size() < n) {
    uint32_t r1 = static_cast<uint32_t>(rng->Uniform(num_records));
    uint32_t r2 = static_cast<uint32_t>(rng->Uniform(num_records));
    if (r1 == r2) continue;
    pairs.push_back(MakePair(r1, static_cast<uint32_t>(rng->Uniform(3)),
                             static_cast<uint32_t>(rng->Uniform(2)), r2,
                             static_cast<uint32_t>(rng->Uniform(3)),
                             static_cast<uint32_t>(rng->Uniform(2)),
                             static_cast<double>(rng->Uniform(100)) / 100.0));
  }
  return pairs;
}

bool SameDump(const std::vector<IndexedPair>& a,
              const std::vector<IndexedPair>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].pid != b[i].pid || a[i].sim != b[i].sim ||
        !(a[i].a == b[i].a) || !(a[i].b == b[i].b)) {
      return false;
    }
  }
  return true;
}

// Regression for the move-assignment bug: the hand-written member-wise
// move had to list every field and silently dropped newly added ones.
// With MovableAtomicCounter the moves are defaulted — moving must carry
// *all* state, including the counters.
TEST(ValuePairIndexTest, MoveCarriesFullState) {
  Rng rng(5);
  ValuePairIndex index;
  index.SetCeilings(100, 0);
  index.Build(RandomPairs(&rng, 150, 20));  // 50 shed by the ceiling.
  (void)index.PairsFor(1, 2);
  (void)index.PairsFor(3, 4);
  const auto dump = index.Dump();
  const size_t size = index.size();
  const size_t shed = index.shed_pairs();
  const size_t probes = index.probe_count();
  const uint64_t next_pid = index.next_pid();

  ValuePairIndex moved(std::move(index));
  EXPECT_EQ(moved.size(), size);
  EXPECT_EQ(moved.shed_pairs(), shed);
  EXPECT_EQ(moved.probe_count(), probes);
  EXPECT_EQ(moved.next_pid(), next_pid);
  EXPECT_TRUE(moved.CheckInvariants());
  EXPECT_TRUE(SameDump(moved.Dump(), dump));

  ValuePairIndex assigned;
  assigned = std::move(moved);
  EXPECT_EQ(assigned.size(), size);
  EXPECT_EQ(assigned.shed_pairs(), shed);
  EXPECT_EQ(assigned.probe_count(), probes);
  EXPECT_TRUE(assigned.CheckInvariants());
  EXPECT_TRUE(SameDump(assigned.Dump(), dump));
  // The moved-to index keeps working: probes still land.
  (void)assigned.PairsFor(0, 1);
  EXPECT_EQ(assigned.probe_count(), probes + 1);
}

TEST(ValuePairIndexTest, RestoreStateKeepsPidsAndCounters) {
  Rng rng(88);
  ValuePairIndex index;
  index.Build(RandomPairs(&rng, 200, 25));
  const auto dump = index.Dump();
  const uint64_t next_pid = index.next_pid();

  ValuePairIndex restored;
  restored.RestoreState(dump, next_pid, 3, 4, 17);
  EXPECT_TRUE(restored.CheckInvariants());
  EXPECT_TRUE(SameDump(restored.Dump(), dump));
  EXPECT_EQ(restored.shed_pairs(), 3u);
  EXPECT_EQ(restored.shed_posting_entries(), 4u);
  EXPECT_EQ(restored.probe_count(), 17u);
  EXPECT_EQ(restored.next_pid(), next_pid);
}

// -------------------------------------------------------------- Bounds

TEST(BoundsTest, EmptyPairsGiveZeroBounds) {
  BoundResult r = ComputeBounds({}, 3, 3);
  EXPECT_DOUBLE_EQ(r.upper, 0.0);
  EXPECT_DOUBLE_EQ(r.lower, 0.0);
  EXPECT_FALSE(r.exact);
}

TEST(BoundsTest, OneToOnePairsAreExact) {
  // No multiple field: Up == Low == Sim (paper's direct-merge case).
  std::vector<IndexedPair> pairs = {
      {0, {0, 0, 0}, {1, 0, 0}, 1.0},
      {1, {0, 1, 0}, {1, 1, 0}, 0.8},
  };
  BoundResult r = ComputeBounds(pairs, 4, 3);
  EXPECT_TRUE(r.exact);
  EXPECT_DOUBLE_EQ(r.upper, (1.0 + 0.8) / 3.0);
  EXPECT_DOUBLE_EQ(r.lower, r.upper);
}

TEST(BoundsTest, MultipleFieldMakesBoundsDiverge) {
  // Field 0 of the left record is covered by two pairs (multiple
  // field): upper counts the max, greedy lower resolves the conflict.
  std::vector<IndexedPair> pairs = {
      {0, {0, 0, 0}, {1, 0, 0}, 0.9},
      {1, {0, 0, 0}, {1, 1, 0}, 0.6},
      {2, {0, 1, 0}, {1, 1, 0}, 0.5},
  };
  BoundResult r = ComputeBounds(pairs, 2, 2);
  EXPECT_FALSE(r.exact);
  // Upper: left sums max per left field: 0.9 + 0.5 = 1.4; right sums
  // 0.9 + 0.6 = 1.5; min is 1.4.
  EXPECT_DOUBLE_EQ(r.upper, 1.4 / 2.0);
  // Greedy: take 0.9 (f0-g0), then 0.5 (f1-g1). Low = 1.4/2 too but via
  // a realizable matching; here they coincide.
  EXPECT_DOUBLE_EQ(r.lower, 1.4 / 2.0);
}

TEST(BoundsTest, RefinedSetKeepsMaxPerFieldPair) {
  std::vector<IndexedPair> pairs = {
      {0, {0, 0, 0}, {1, 0, 0}, 0.9},
      {1, {0, 0, 1}, {1, 0, 1}, 0.7},  // Same field pair, lower sim.
      {2, {0, 1, 0}, {1, 1, 0}, 0.5},
  };
  BoundResult r = ComputeBounds(pairs, 2, 2);
  ASSERT_EQ(r.refined.size(), 2u);
  EXPECT_DOUBLE_EQ(r.refined[0].sim, 0.9);
  EXPECT_DOUBLE_EQ(r.refined[1].sim, 0.5);
  EXPECT_TRUE(r.exact);
}

TEST(BoundsTest, PaperExample4DirectComputation) {
  // (r4, r6): three one-to-one pairs 1.0, 1.0, 0.9 over 5-field
  // records: Up = Low = 2.9 / 5 = 0.58.
  std::vector<IndexedPair> pairs = {
      {0, {3, 2, 0}, {5, 2, 0}, 1.0},
      {1, {3, 3, 0}, {5, 3, 0}, 1.0},
      {2, {3, 4, 0}, {5, 4, 0}, 0.9},
  };
  BoundResult r = ComputeBounds(pairs, 5, 5);
  EXPECT_TRUE(r.exact);
  EXPECT_DOUBLE_EQ(r.upper, 2.9 / 5.0);
  EXPECT_DOUBLE_EQ(r.lower, 2.9 / 5.0);
}

// Property: Low <= optimal matching / min <= Up on random instances
// (optimal found by brute force over permutations).
class BoundsPropertyTest : public ::testing::TestWithParam<uint64_t> {};

double BruteForceBestMatching(const std::vector<IndexedPair>& refined,
                              size_t nl, size_t nr) {
  // Exhaustive search over subsets via recursion on left fields.
  std::vector<std::vector<double>> w(nl, std::vector<double>(nr, -1.0));
  for (const auto& p : refined) w[p.a.fid][p.b.fid] = p.sim;
  std::vector<bool> used(nr, false);
  std::function<double(size_t)> best = [&](size_t i) -> double {
    if (i == nl) return 0.0;
    double result = best(i + 1);  // Leave field i unmatched.
    for (size_t j = 0; j < nr; ++j) {
      if (!used[j] && w[i][j] >= 0.0) {
        used[j] = true;
        result = std::max(result, w[i][j] + best(i + 1));
        used[j] = false;
      }
    }
    return result;
  };
  return best(0);
}

TEST_P(BoundsPropertyTest, BoundsSandwichOptimum) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 50; ++trial) {
    const size_t nl = 2 + rng.Uniform(4), nr = 2 + rng.Uniform(4);
    std::vector<IndexedPair> pairs;
    uint64_t pid = 0;
    for (uint32_t f = 0; f < nl; ++f) {
      for (uint32_t g = 0; g < nr; ++g) {
        if (rng.Bernoulli(0.4)) {
          pairs.push_back({pid++, {0, f, 0}, {1, g, 0},
                           0.3 + 0.7 * rng.UniformDouble()});
        }
      }
    }
    std::sort(pairs.begin(), pairs.end(),
              [](const IndexedPair& a, const IndexedPair& b) {
                return a.sim > b.sim;
              });
    BoundResult r = ComputeBounds(pairs, nl, nr);
    double denom = static_cast<double>(std::min(nl, nr));
    double optimal = BruteForceBestMatching(r.refined, nl, nr) / denom;
    EXPECT_LE(r.lower, optimal + 1e-9);
    EXPECT_GE(r.upper, optimal - 1e-9);
    if (r.exact) {
      EXPECT_NEAR(r.lower, optimal, 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BoundsPropertyTest,
                         ::testing::Values(11, 22, 33, 44, 55));

}  // namespace
}  // namespace hera

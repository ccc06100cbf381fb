// Tests for incremental resolution (IncrementalHera) and the
// probe-vs-base join it relies on.

#include <gtest/gtest.h>

#include <set>
#include <tuple>

#include "common/random.h"
#include "core/hera.h"
#include "core/incremental.h"
#include "eval/metrics.h"
#include "sim/metrics.h"
#include "testing_util.h"

namespace hera {
namespace {

// ------------------------------------------------------------- JoinAB

using PairKey =
    std::tuple<uint32_t, uint32_t, uint32_t, uint32_t, uint32_t, uint32_t>;

PairKey KeyOf(const ValuePair& p) {
  ValueLabel a = p.a, b = p.b;
  if (b.rid < a.rid ||
      (b.rid == a.rid && std::tie(b.fid, b.vid) < std::tie(a.fid, a.vid))) {
    std::swap(a, b);
  }
  return {a.rid, a.fid, a.vid, b.rid, b.fid, b.vid};
}

std::set<PairKey> KeySet(const std::vector<ValuePair>& pairs) {
  std::set<PairKey> out;
  for (const auto& p : pairs) out.insert(KeyOf(p));
  return out;
}

TEST(JoinABTest, PrefixFilterMatchesNestedLoop) {
  std::vector<LabeledValue> base = {
      {ValueLabel{0, 0, 0}, Value("electronic")},
      {ValueLabel{1, 0, 0}, Value("2 Norman Street")},
      {ValueLabel{2, 0, 0}, Value("bush@gmail")},
      {ValueLabel{3, 0, 0}, Value(100.0)},
  };
  std::vector<LabeledValue> probe = {
      {ValueLabel{4, 0, 0}, Value("electronics")},
      {ValueLabel{5, 0, 0}, Value("2 West Norman")},
      {ValueLabel{6, 0, 0}, Value(99.0)},
      {ValueLabel{7, 0, 0}, Value()},
  };
  for (const char* metric_name : {"jaccard_q2", "hybrid(jaccard_q2)"}) {
    auto metric = MakeSimilarity(metric_name);
    for (double xi : {0.3, 0.5, 0.8}) {
      auto fast = KeySet(PrefixFilterJoin().JoinAB(probe, base, *metric, xi));
      auto slow = KeySet(NestedLoopJoin().JoinAB(probe, base, *metric, xi));
      EXPECT_EQ(fast, slow) << metric_name << " xi=" << xi;
    }
  }
}

TEST(JoinABTest, ExcludesSameRid) {
  std::vector<LabeledValue> base = {{ValueLabel{0, 0, 0}, Value("abc")}};
  std::vector<LabeledValue> probe = {{ValueLabel{0, 1, 0}, Value("abc")}};
  auto metric = MakeSimilarity("jaccard_q2");
  EXPECT_TRUE(PrefixFilterJoin().JoinAB(probe, base, *metric, 0.5).empty());
  EXPECT_TRUE(NestedLoopJoin().JoinAB(probe, base, *metric, 0.5).empty());
}

TEST(JoinABTest, RandomizedEquivalence) {
  Rng rng(41);
  const char* kWords[] = {"alpha", "bravo", "charlie", "delta", "echo",
                          "foxtrot", "golf", "hotel"};
  auto make_values = [&](uint32_t rid_base, size_t n) {
    std::vector<LabeledValue> out;
    for (uint32_t i = 0; i < n; ++i) {
      LabeledValue& lv = out.emplace_back();
      lv.label = ValueLabel{rid_base + i, 0, 0};
      if (rng.Bernoulli(0.25)) {
        lv.value = Value(static_cast<double>(rng.Uniform(50)));
      } else {
        std::string s = kWords[rng.Uniform(8)];
        if (rng.Bernoulli(0.5)) s.append(" ").append(kWords[rng.Uniform(8)]);
        if (rng.Bernoulli(0.3)) s[rng.Uniform(s.size())] = 'q';
        lv.value = Value(s);
      }
    }
    return out;
  };
  auto metric = MakeSimilarity("hybrid(jaccard_q2)");
  for (int trial = 0; trial < 10; ++trial) {
    auto base = make_values(0, 25);
    auto probe = make_values(100, 15);
    for (double xi : {0.4, 0.6, 0.9}) {
      auto fast = KeySet(PrefixFilterJoin().JoinAB(probe, base, *metric, xi));
      auto slow = KeySet(NestedLoopJoin().JoinAB(probe, base, *metric, xi));
      EXPECT_EQ(fast, slow) << "trial=" << trial << " xi=" << xi;
    }
  }
}

// ---------------------------------------------------- IncrementalHera

TEST(IncrementalHeraTest, RejectsBadConfig) {
  HeraOptions opts;
  opts.metric = "bogus";
  EXPECT_FALSE(IncrementalHera::Create(opts, SchemaCatalog()).ok());
}

TEST(IncrementalHeraTest, RejectsBadRecords) {
  Dataset ds = testing_util::MakeCustomersDataset();
  auto inc = IncrementalHera::Create(HeraOptions{}, ds.schemas());
  ASSERT_TRUE(inc.ok());
  EXPECT_FALSE((*inc)->AddRecord(99, {Value("x")}).ok());
  EXPECT_FALSE((*inc)->AddRecord(0, {Value("too few")}).ok());
}

TEST(IncrementalHeraTest, MatchesBatchOnMotivatingExample) {
  Dataset ds = testing_util::MakeCustomersDataset();
  HeraOptions opts;
  auto batch = Hera(opts).Run(ds);
  ASSERT_TRUE(batch.ok());

  auto inc_or = IncrementalHera::Create(opts, ds.schemas());
  ASSERT_TRUE(inc_or.ok());
  IncrementalHera& inc = **inc_or;
  for (const Record& r : ds.records()) {
    auto id = inc.AddRecord(r.schema_id(), r.values());
    ASSERT_TRUE(id.ok());
    EXPECT_EQ(*id, r.id());
  }
  EXPECT_EQ(*inc.Resolve(), ds.size());
  EXPECT_TRUE(testing_util::SamePartition(inc.Labels(), batch->entity_of));
}

TEST(IncrementalHeraTest, RecordByRecordStillResolves) {
  // Feed the motivating example one record per Resolve() round; the
  // final partition must still match ground truth.
  Dataset ds = testing_util::MakeCustomersDataset();
  auto inc_or = IncrementalHera::Create(HeraOptions{}, ds.schemas());
  ASSERT_TRUE(inc_or.ok());
  IncrementalHera& inc = **inc_or;
  for (const Record& r : ds.records()) {
    ASSERT_TRUE(inc.AddRecord(r.schema_id(), r.values()).ok());
    inc.Resolve();
  }
  EXPECT_TRUE(testing_util::SamePartition(inc.Labels(), ds.entity_of()));
}

TEST(IncrementalHeraTest, PendingRecordsAreSingletonsUntilResolve) {
  Dataset ds = testing_util::MakeCustomersDataset();
  auto inc_or = IncrementalHera::Create(HeraOptions{}, ds.schemas());
  ASSERT_TRUE(inc_or.ok());
  IncrementalHera& inc = **inc_or;
  ASSERT_TRUE(inc.AddRecord(0, ds.record(0).values()).ok());
  ASSERT_TRUE(inc.AddRecord(2, ds.record(5).values()).ok());
  EXPECT_EQ(inc.NumPending(), 2u);
  auto labels = inc.Labels();
  ASSERT_EQ(labels.size(), 2u);
  EXPECT_NE(labels[0], labels[1]);  // Not resolved yet.
  inc.Resolve();
  EXPECT_EQ(inc.NumPending(), 0u);
  labels = inc.Labels();
  EXPECT_EQ(labels[0], labels[1]);  // r1 and r6 are near-identical.
}

TEST(IncrementalHeraTest, ResolveWithNothingPendingIsNoop) {
  auto inc_or = IncrementalHera::Create(HeraOptions{}, SchemaCatalog());
  ASSERT_TRUE(inc_or.ok());
  EXPECT_EQ(*(*inc_or)->Resolve(), 0u);
  EXPECT_TRUE((*inc_or)->Labels().empty());
}

TEST(IncrementalHeraTest, LateArrivalBridgesClusters) {
  // Two records of one entity that do not match each other, plus a
  // later third record similar to both: the late arrival must pull
  // the existing clusters together (compare-and-merge across rounds).
  SchemaCatalog schemas;
  uint32_t s1 = schemas.Register(Schema("S1", {"name", "email"}));
  uint32_t s2 = schemas.Register(Schema("S2", {"name", "email", "phone"}));
  uint32_t s3 = schemas.Register(Schema("S3", {"email2", "phone"}));

  HeraOptions opts;
  opts.delta = 0.75;
  auto inc_or = IncrementalHera::Create(opts, schemas);
  ASSERT_TRUE(inc_or.ok());
  IncrementalHera& inc = **inc_or;
  ASSERT_TRUE(inc.AddRecord(s1, {Value("Jon Smith"), Value("jon@x.test")}).ok());
  ASSERT_TRUE(inc.AddRecord(s3, {Value("jon@x.test"), Value("555-0101")}).ok());
  // Records 0 and 1 share only the email -> sim = 1/2 = 0.5 < 0.75.
  inc.Resolve();
  auto labels = inc.Labels();
  EXPECT_NE(labels[0], labels[1]);
  // The bridge shares name+email with r0 (sim 2/2 = 1.0); the merged
  // super record then covers both of r1's fields (email+phone, 1.0).
  ASSERT_TRUE(inc.AddRecord(s2, {Value("Jon Smith"), Value("jon@x.test"),
                                 Value("555-0101")})
                  .ok());
  inc.Resolve();
  labels = inc.Labels();
  EXPECT_EQ(labels[0], labels[2]);
  EXPECT_EQ(labels[0], labels[1]) << "late arrival must bridge the clusters";
}

TEST(IncrementalHeraTest, StatsAccumulateAcrossRounds) {
  Dataset ds = testing_util::MakeCustomersDataset();
  auto inc_or = IncrementalHera::Create(HeraOptions{}, ds.schemas());
  ASSERT_TRUE(inc_or.ok());
  IncrementalHera& inc = **inc_or;
  for (uint32_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(inc.AddRecord(ds.record(i).schema_id(), ds.record(i).values()).ok());
  }
  inc.Resolve();
  size_t iters_after_first = inc.stats().iterations;
  for (uint32_t i = 3; i < 6; ++i) {
    ASSERT_TRUE(inc.AddRecord(ds.record(i).schema_id(), ds.record(i).values()).ok());
  }
  inc.Resolve();
  EXPECT_GT(inc.stats().iterations, iters_after_first);
  EXPECT_GT(inc.stats().merges, 0u);
}

}  // namespace
}  // namespace hera

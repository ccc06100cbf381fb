// Tests for src/simjoin: the prefix-filter join must agree exactly
// with the nested-loop oracle for the Jaccard metric (the filter is
// exact there), across thresholds and random inputs.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "common/random.h"
#include "sim/metrics.h"
#include "simjoin/similarity_join.h"

namespace hera {
namespace {

using PairKey = std::tuple<uint32_t, uint32_t, uint32_t, uint32_t, uint32_t, uint32_t>;

PairKey KeyOf(const ValuePair& p) {
  ValueLabel a = p.a, b = p.b;
  if (b.rid < a.rid) std::swap(a, b);
  return {a.rid, a.fid, a.vid, b.rid, b.fid, b.vid};
}

std::set<PairKey> KeySet(const std::vector<ValuePair>& pairs) {
  std::set<PairKey> out;
  for (const auto& p : pairs) out.insert(KeyOf(p));
  return out;
}

std::vector<LabeledValue> MakeValues(const std::vector<std::string>& strings) {
  std::vector<LabeledValue> out;
  for (uint32_t i = 0; i < strings.size(); ++i) {
    out.push_back({ValueLabel{i, 0, 0}, Value(strings[i])});
  }
  return out;
}

TEST(NestedLoopJoinTest, FindsSimilarPairs) {
  auto values = MakeValues({"electronic", "electronics", "sports"});
  auto metric = MakeSimilarity("jaccard_q2");
  NestedLoopJoin join;
  auto pairs = join.Join(values, *metric, 0.5);
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_DOUBLE_EQ(pairs[0].sim, 0.9);
}

TEST(NestedLoopJoinTest, ExcludesSameRecordPairs) {
  std::vector<LabeledValue> values = {
      {ValueLabel{0, 0, 0}, Value("abc")},
      {ValueLabel{0, 1, 0}, Value("abc")},  // Same rid: excluded.
      {ValueLabel{1, 0, 0}, Value("abc")},
  };
  auto metric = MakeSimilarity("jaccard_q2");
  auto pairs = NestedLoopJoin().Join(values, *metric, 0.9);
  EXPECT_EQ(pairs.size(), 2u);  // (0,f0)-(1,...) and (0,f1)-(1,...).
  for (const auto& p : pairs) EXPECT_NE(p.a.rid, p.b.rid);
}

TEST(NestedLoopJoinTest, ThresholdZeroKeepsOnlyPositive) {
  // xi = 0 admits every cross-record pair with sim >= 0 (all of them).
  auto values = MakeValues({"abc", "xyz"});
  auto metric = MakeSimilarity("jaccard_q2");
  auto pairs = NestedLoopJoin().Join(values, *metric, 0.0);
  EXPECT_EQ(pairs.size(), 1u);
  EXPECT_DOUBLE_EQ(pairs[0].sim, 0.0);
}

TEST(PrefixFilterJoinTest, MatchesOracleOnSmallExample) {
  auto values = MakeValues(
      {"electronic", "electronics", "sports", "Bush", "J.Bush", "bush@gmail"});
  auto metric = MakeSimilarity("jaccard_q2");
  auto oracle = KeySet(NestedLoopJoin().Join(values, *metric, 0.5));
  auto fast = KeySet(PrefixFilterJoin().Join(values, *metric, 0.5));
  EXPECT_EQ(oracle, fast);
}

TEST(PrefixFilterJoinTest, EmptyInput) {
  auto metric = MakeSimilarity("jaccard_q2");
  EXPECT_TRUE(PrefixFilterJoin().Join({}, *metric, 0.5).empty());
}

TEST(PrefixFilterJoinTest, SingleValueNoPairs) {
  auto values = MakeValues({"alone"});
  auto metric = MakeSimilarity("jaccard_q2");
  EXPECT_TRUE(PrefixFilterJoin().Join(values, *metric, 0.1).empty());
}

TEST(PrefixFilterJoinTest, IdenticalValuesAcrossManyRecords) {
  std::vector<std::string> strings(10, "same value");
  auto values = MakeValues(strings);
  auto metric = MakeSimilarity("jaccard_q2");
  auto pairs = PrefixFilterJoin().Join(values, *metric, 1.0);
  EXPECT_EQ(pairs.size(), 45u);  // C(10, 2).
  for (const auto& p : pairs) EXPECT_DOUBLE_EQ(p.sim, 1.0);
}

TEST(PrefixFilterJoinTest, NumericSweepUnderHybridMetric) {
  std::vector<LabeledValue> values = {
      {ValueLabel{0, 0, 0}, Value(100.0)},
      {ValueLabel{1, 0, 0}, Value(99.0)},   // sim ~0.99.
      {ValueLabel{2, 0, 0}, Value(50.0)},   // sim 0.5 vs 100.
      {ValueLabel{3, 0, 0}, Value(1.0)},    // Far from all.
  };
  auto metric = MakeSimilarity("hybrid(jaccard_q2)");
  auto fast = KeySet(PrefixFilterJoin().Join(values, *metric, 0.9));
  auto oracle = KeySet(NestedLoopJoin().Join(values, *metric, 0.9));
  EXPECT_EQ(fast, oracle);
  EXPECT_EQ(fast.size(), 1u);
}

TEST(PrefixFilterJoinTest, NumericSweepWithNegativeValues) {
  std::vector<LabeledValue> values = {
      {ValueLabel{0, 0, 0}, Value(-100.0)},
      {ValueLabel{1, 0, 0}, Value(-99.0)},
      {ValueLabel{2, 0, 0}, Value(100.0)},
      {ValueLabel{3, 0, 0}, Value(0.0)},
      {ValueLabel{4, 0, 0}, Value(0.0)},
  };
  auto metric = MakeSimilarity("hybrid(jaccard_q2)");
  for (double xi : {0.3, 0.5, 0.9, 1.0}) {
    auto fast = KeySet(PrefixFilterJoin().Join(values, *metric, xi));
    auto oracle = KeySet(NestedLoopJoin().Join(values, *metric, xi));
    EXPECT_EQ(fast, oracle) << "xi=" << xi;
  }
}

TEST(PrefixFilterJoinTest, MixedStringAndNumericValues) {
  std::vector<LabeledValue> values = {
      {ValueLabel{0, 0, 0}, Value("drama film")},
      {ValueLabel{1, 0, 0}, Value("drama films")},
      {ValueLabel{2, 0, 0}, Value(1999.0)},
      {ValueLabel{3, 0, 0}, Value(1998.0)},
      {ValueLabel{4, 0, 0}, Value()},  // Null: never joins.
  };
  auto metric = MakeSimilarity("hybrid(jaccard_q2)");
  auto fast = KeySet(PrefixFilterJoin().Join(values, *metric, 0.6));
  auto oracle = KeySet(NestedLoopJoin().Join(values, *metric, 0.6));
  EXPECT_EQ(fast, oracle);
  EXPECT_EQ(fast.size(), 2u);  // String pair + numeric pair.
}

// Property sweep: random string corpora, several thresholds — fast join
// must equal the oracle exactly (prefix filter is exact for Jaccard).
class JoinEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<double, uint64_t>> {};

TEST_P(JoinEquivalenceTest, PrefixFilterEqualsOracle) {
  auto [xi, seed] = GetParam();
  Rng rng(seed);
  const char* kWords[] = {"norman", "street", "bush",  "gmail", "electronic",
                          "manager", "sports", "west",  "john",  "product"};
  std::vector<LabeledValue> values;
  const uint32_t kRecords = 30;
  for (uint32_t r = 0; r < kRecords; ++r) {
    uint32_t fields = 1 + static_cast<uint32_t>(rng.Uniform(4));
    for (uint32_t f = 0; f < fields; ++f) {
      std::string s = kWords[rng.Uniform(10)];
      if (rng.Bernoulli(0.5)) s.append(" ").append(kWords[rng.Uniform(10)]);
      if (rng.Bernoulli(0.3)) s[rng.Uniform(s.size())] = 'z';  // Typo.
      values.push_back({ValueLabel{r, f, 0}, Value(s)});
    }
  }
  auto metric = MakeSimilarity("jaccard_q2");
  auto oracle = KeySet(NestedLoopJoin().Join(values, *metric, xi));
  auto fast = KeySet(PrefixFilterJoin().Join(values, *metric, xi));
  EXPECT_EQ(oracle, fast) << "xi=" << xi << " seed=" << seed;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, JoinEquivalenceTest,
    ::testing::Combine(::testing::Values(0.3, 0.5, 0.7, 0.9, 1.0),
                       ::testing::Values(1u, 2u, 3u, 4u)));

// A guard trip between candidate generation and verification must not
// lose pairs from the accounting: the batch whose weighted Tick(n)
// fired was counted as candidates but never verified, and is reported
// shed — candidates == verified + shed_candidates holds exactly at the
// trip boundary.
TEST(PrefixFilterJoinTest, ShedCandidatesExactAtGuardTrip) {
  // Identical values across many records: candidate lists grow with
  // the probe index, so the 1024-op ticker boundary is crossed inside
  // a large Tick(candidates.size()) batch.
  std::vector<std::string> strings(200, "same value");
  auto values = MakeValues(strings);
  auto metric = MakeSimilarity("jaccard_q2");

  CancellationToken token = CancellationToken::Make();
  token.RequestCancel();  // Trips at the first ticker boundary.
  RunGuard guard;
  guard.WithCancellation(token);
  std::vector<ValuePair> out;
  JoinReport report;
  ASSERT_TRUE(
      PrefixFilterJoin().Join(values, *metric, 1.0, guard, &out, &report).ok());
  EXPECT_TRUE(report.truncated);
  EXPECT_GT(report.candidates, 0u);
  EXPECT_GT(report.shed_candidates, 0u);
  EXPECT_EQ(report.candidates, report.verified + report.shed_candidates);

  // Unguarded control: nothing is shed and every candidate is verified.
  std::vector<ValuePair> full;
  JoinReport full_report;
  ASSERT_TRUE(PrefixFilterJoin()
                  .Join(values, *metric, 1.0, RunGuard(), &full, &full_report)
                  .ok());
  EXPECT_FALSE(full_report.truncated);
  EXPECT_EQ(full_report.shed_candidates, 0u);
  EXPECT_EQ(full_report.candidates, full_report.verified);
}

// Similarity values reported by the fast join must equal the metric's.
TEST(PrefixFilterJoinTest, ReportedSimilaritiesMatchMetric) {
  auto values = MakeValues({"2 Norman Street", "2 West Norman", "West Norman"});
  auto metric = MakeSimilarity("jaccard_q2");
  for (const auto& p : PrefixFilterJoin().Join(values, *metric, 0.2)) {
    double expect = metric->Compute(values[p.a.rid].value, values[p.b.rid].value);
    EXPECT_NEAR(p.sim, expect, 1e-12);
  }
}

}  // namespace
}  // namespace hera

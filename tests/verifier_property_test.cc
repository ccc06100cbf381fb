// Property test: the full verification pipeline (index -> refined
// field set -> simplification -> Kuhn-Munkres) must compute exactly
// Definition 5 — the maximum-weight one-to-one field matching over
// field similarities >= xi, normalized by min(|R_i|, |R_j|) — as
// checked against an exhaustive brute force on random super records.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/verifier.h"
#include "index/value_pair_index.h"
#include "record/dataset.h"
#include "record/super_record.h"
#include "sim/metrics.h"
#include "simjoin/similarity_join.h"

namespace hera {
namespace {

/// Builds a random super record with `fields` fields of 1-2 values
/// drawn from a small vocabulary (so collisions and conflicts happen).
SuperRecord RandomSuperRecord(uint32_t rid, size_t fields, Rng* rng) {
  const char* kVocab[] = {"alpha bravo", "alpha bravx", "charlie delta",
                          "charlie deltx", "echo fox",   "echo fix",
                          "golf hotel",   "golf hotels", "india juliet"};
  Dataset scratch;
  std::vector<std::string> attr_names;
  for (size_t i = 0; i < fields; ++i) {
    attr_names.push_back(std::string("a").append(std::to_string(i)));
  }
  uint32_t sid = scratch.schemas().Register(Schema("S", attr_names));
  std::vector<Value> values;
  for (size_t i = 0; i < fields; ++i) {
    values.emplace_back(std::string(kVocab[rng->Uniform(std::size(kVocab))]));
  }
  uint32_t id = scratch.AddRecord(sid, values);
  SuperRecord sr = SuperRecord::FromRecord(scratch.record(id));
  sr.set_rid(rid);
  // Optionally add extra values to some fields (super-record structure).
  std::vector<FieldMatch> no_match;
  (void)no_match;
  return sr;
}

/// Brute force Definition 5: field similarities via exhaustive max
/// over value pairs, then exhaustive max-weight one-to-one matching.
double BruteForceSim(const SuperRecord& a, const SuperRecord& b,
                     const ValueSimilarity& simv, double xi) {
  size_t na = a.num_fields(), nb = b.num_fields();
  std::vector<std::vector<double>> w(na, std::vector<double>(nb, -1.0));
  for (size_t i = 0; i < na; ++i) {
    for (size_t j = 0; j < nb; ++j) {
      double best = 0.0;
      for (size_t p = 0; p < a.field(i).size(); ++p) {
        for (size_t q = 0; q < b.field(j).size(); ++q) {
          best = std::max(best, simv.Compute(a.field(i).value(p).value,
                                             b.field(j).value(q).value));
        }
      }
      if (best >= xi) w[i][j] = best;
    }
  }
  std::vector<bool> used(nb, false);
  std::function<double(size_t)> solve = [&](size_t i) -> double {
    if (i == na) return 0.0;
    double best = solve(i + 1);
    for (size_t j = 0; j < nb; ++j) {
      if (!used[j] && w[i][j] >= 0.0) {
        used[j] = true;
        best = std::max(best, w[i][j] + solve(i + 1));
        used[j] = false;
      }
    }
    return best;
  };
  return solve(0) / static_cast<double>(std::min(na, nb));
}

class VerifierPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(VerifierPropertyTest, MatchesBruteForceDefinition5) {
  Rng rng(GetParam());
  auto metric = MakeSimilarity("jaccard_q2");
  const double xi = 0.4;
  for (int trial = 0; trial < 40; ++trial) {
    SuperRecord a = RandomSuperRecord(0, 2 + rng.Uniform(4), &rng);
    SuperRecord b = RandomSuperRecord(1, 2 + rng.Uniform(4), &rng);

    // Index route (production path).
    std::vector<LabeledValue> values;
    for (const SuperRecord* sr : {&a, &b}) {
      for (uint32_t f = 0; f < sr->num_fields(); ++f) {
        for (uint32_t v = 0; v < sr->field(f).size(); ++v) {
          values.push_back(
              {ValueLabel{sr->rid(), f, v}, sr->field(f).value(v).value});
        }
      }
    }
    ValuePairIndex index;
    index.Build(NestedLoopJoin().Join(values, *metric, xi));
    VerifyResult vr =
        InstanceBasedVerifier().Verify(a, b, index.PairsFor(0, 1));

    double expected = BruteForceSim(a, b, *metric, xi);
    EXPECT_NEAR(vr.sim, expected, 1e-9)
        << "trial " << trial << "\n a=" << a.ToString()
        << "\n b=" << b.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, VerifierPropertyTest,
                         ::testing::Values(101, 202, 303, 404, 505, 606));

}  // namespace
}  // namespace hera

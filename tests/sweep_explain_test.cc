// Tests for the pair explanation API and the corpus-model builders.

#include <gtest/gtest.h>

#include <string>

#include "core/explain.h"
#include "core/hera.h"
#include "data/corpus_model.h"
#include "sim/metrics.h"
#include "testing_util.h"

namespace hera {
namespace {

// ------------------------------------------------------------ ExplainPair

TEST(ExplainPairTest, ExplainsSimilarBaseRecords) {
  Dataset ds = testing_util::MakeCustomersDataset();
  auto metric = MakeSimilarity("jaccard_q2");
  SuperRecord r1 = SuperRecord::FromRecord(ds.record(0));
  SuperRecord r6 = SuperRecord::FromRecord(ds.record(5));
  PairExplanation ex = ExplainPair(ds.schemas(), r1, r6, *metric, 0.5);
  EXPECT_NEAR(ex.sim, 3.9 / 5.0, 1e-9);
  EXPECT_EQ(ex.denominator, 5u);
  ASSERT_EQ(ex.matches.size(), 4u);
  // Every match carries attribute names and the value pair.
  bool saw_email = false;
  for (const MatchedField& m : ex.matches) {
    EXPECT_FALSE(m.attr_a.empty());
    EXPECT_FALSE(m.attr_b.empty());
    if (m.attr_a == "e-mail" && m.attr_b == "work mailbox") {
      saw_email = true;
      EXPECT_EQ(m.value_a, "bush@gmail");
      EXPECT_DOUBLE_EQ(m.sim, 1.0);
    }
  }
  EXPECT_TRUE(saw_email);
}

TEST(ExplainPairTest, DissimilarPairExplainsEmpty) {
  Dataset ds = testing_util::MakeCustomersDataset();
  auto metric = MakeSimilarity("jaccard_q2");
  SuperRecord r1 = SuperRecord::FromRecord(ds.record(0));
  SuperRecord r2 = SuperRecord::FromRecord(ds.record(1));
  PairExplanation ex = ExplainPair(ds.schemas(), r1, r2, *metric, 0.5);
  EXPECT_DOUBLE_EQ(ex.sim, 0.0);
  EXPECT_TRUE(ex.matches.empty());
}

TEST(ExplainPairTest, ToStringIsReadable) {
  Dataset ds = testing_util::MakeCustomersDataset();
  auto metric = MakeSimilarity("jaccard_q2");
  SuperRecord r1 = SuperRecord::FromRecord(ds.record(0));
  SuperRecord r6 = SuperRecord::FromRecord(ds.record(5));
  std::string text = ExplainPair(ds.schemas(), r1, r6, *metric, 0.5).ToString();
  EXPECT_NE(text.find("Sim = 0.780"), std::string::npos) << text;
  EXPECT_NE(text.find("bush@gmail"), std::string::npos);
}

TEST(ExplainPairTest, ArgumentOrderInsensitiveSimilarity) {
  Dataset ds = testing_util::MakeCustomersDataset();
  auto metric = MakeSimilarity("jaccard_q2");
  SuperRecord r1 = SuperRecord::FromRecord(ds.record(0));
  SuperRecord r6 = SuperRecord::FromRecord(ds.record(5));
  PairExplanation ab = ExplainPair(ds.schemas(), r1, r6, *metric, 0.5);
  PairExplanation ba = ExplainPair(ds.schemas(), r6, r1, *metric, 0.5);
  EXPECT_NEAR(ab.sim, ba.sim, 1e-12);
  EXPECT_EQ(ab.matches.size(), ba.matches.size());
}

// ----------------------------------------------------------- CorpusModel

TEST(CorpusModelTest, BuildsFrozenModelOverAllValues) {
  Dataset ds = testing_util::MakeCustomersDataset();
  auto model = BuildTfIdfModel(ds);
  ASSERT_NE(model, nullptr);
  EXPECT_TRUE(model->frozen());
  // 6 records x (5,3,5,5,5,5) non-null values = 26 documents... count:
  // r1..r6 have 5+3+3+5+5+5 = 26 values.
  EXPECT_EQ(model->num_documents(), 26u);
}

TEST(CorpusModelTest, SoftTfIdfMetricWorksInHera) {
  Dataset ds = testing_util::MakeCustomersDataset();
  HeraOptions opts;
  opts.similarity = MakeSoftTfIdfFor(ds, 0.9);
  opts.xi = 0.6;
  opts.delta = 0.4;
  auto result = Hera(opts).Run(ds);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->entity_of.size(), ds.size());
  // Soft TF-IDF matches the identical name/address/email values; the
  // easy pairs must merge.
  EXPECT_EQ(result->entity_of[0], result->entity_of[5]);  // r1, r6.
}

}  // namespace
}  // namespace hera

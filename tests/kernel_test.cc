// Tests for the integer-encoded similarity kernels (sim/kernel.h), the
// verified-pair cache (sim/pair_cache.h), and the invariants the join
// and engine build on them: every kernel score is bit-equal to the
// string-path metric, the threshold-bounded forms never change which
// pairs survive, and the kernel tier and the pair-cache knob leave
// labels and merge sequences byte-identical at every thread count.

#include "sim/kernel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "sim/kernel_dispatch.h"
#include "sim/string_metrics.h"

#include "baselines/homogeneous.h"
#include "core/hera.h"
#include "data/movie_generator.h"
#include "data/publication_generator.h"
#include "matching/weight_kernel.h"
#include "sim/metrics.h"
#include "sim/pair_cache.h"
#include "simjoin/similarity_join.h"
#include "text/normalize.h"
#include "text/qgram.h"

namespace hera {
namespace {

// ------------------------------------------------- intersection kernels

std::vector<uint32_t> SortedSet(std::vector<uint32_t> v) {
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
  return v;
}

std::vector<uint32_t> RandomSet(std::mt19937* rng, size_t n, uint32_t lo,
                                uint32_t hi) {
  std::uniform_int_distribution<uint32_t> dist(lo, hi);
  std::vector<uint32_t> v;
  v.reserve(n);
  for (size_t i = 0; i < n; ++i) v.push_back(dist(*rng));
  return SortedSet(std::move(v));
}

size_t ReferenceIntersect(const std::vector<uint32_t>& a,
                          const std::vector<uint32_t>& b) {
  std::vector<uint32_t> out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out.size();
}

TEST(KernelIntersectTest, AllStrategiesAgreeWithReference) {
  std::mt19937 rng(42);
  for (int trial = 0; trial < 200; ++trial) {
    // Mix of dense windows (bitmap-eligible), skewed sizes (gallop),
    // and wide sparse sets (merge).
    size_t na = trial % 7 == 0 ? 0 : rng() % 64;
    size_t nb = trial % 11 == 0 ? 0 : rng() % 512;
    uint32_t hi = trial % 3 == 0 ? 900 : 100000;
    auto a = RandomSet(&rng, na, 0, hi);
    auto b = RandomSet(&rng, nb, 0, hi);
    size_t want = ReferenceIntersect(a, b);
    EXPECT_EQ(IntersectSizeMerge(a.data(), a.size(), b.data(), b.size()), want);
    EXPECT_EQ(IntersectSizeGallop(a.data(), a.size(), b.data(), b.size()), want);
    EXPECT_EQ(IntersectSizeGallop(b.data(), b.size(), a.data(), a.size()), want);
    if (!a.empty() && !b.empty() && BitmapEligible(a, b)) {
      EXPECT_EQ(IntersectSizeBitmap(a, b), want);
    }
    EXPECT_EQ(IntersectSize(a, b), want);
    EXPECT_EQ(IntersectSize(b, a), want);
  }
}

TEST(KernelIntersectTest, BitmapEligibilityIsAWindowTest) {
  // The window is id-inclusive: exactly kBitmapBits distinct ids fit.
  std::vector<uint32_t> wide = {10, 500, 10 + kBitmapBits};
  EXPECT_FALSE(BitmapEligible(wide, wide));
  std::vector<uint32_t> fits = {10, 500, 10 + kBitmapBits - 1};
  EXPECT_TRUE(BitmapEligible(fits, fits));
  EXPECT_EQ(IntersectSizeBitmap(fits, fits), 3u);
  std::vector<uint32_t> far = {1000000};
  EXPECT_FALSE(BitmapEligible(fits, far));
}

constexpr SetSimKind kAllKinds[] = {SetSimKind::kJaccard, SetSimKind::kDice,
                                    SetSimKind::kOverlap, SetSimKind::kCosine};

// --------------------------------------------- SIMD dispatch + kernels

/// Tiers that can actually run on this machine (resolution clamps, so
/// every named tier is testable everywhere — avx2 without CPU support
/// just aliases scalar).
const KernelDispatch kSweepTiers[] = {KernelDispatch::kScalar,
                                      KernelDispatch::kAvx2};

/// Pins the process-global kernel tier for one scope and restores kAuto
/// on exit, so a pinned tier never leaks into later tests in the binary.
class ScopedKernelDispatch {
 public:
  explicit ScopedKernelDispatch(KernelDispatch tier) {
    SetActiveKernelDispatch(tier);
  }
  ~ScopedKernelDispatch() { SetActiveKernelDispatch(KernelDispatch::kAuto); }
  ScopedKernelDispatch(const ScopedKernelDispatch&) = delete;
  ScopedKernelDispatch& operator=(const ScopedKernelDispatch&) = delete;
};

TEST(KernelDispatchTest, StringRoundTripAndUnknownNames) {
  for (KernelDispatch t : {KernelDispatch::kAuto, KernelDispatch::kAvx2,
                           KernelDispatch::kScalar}) {
    KernelDispatch back;
    ASSERT_TRUE(KernelDispatchFromString(KernelDispatchToString(t), &back));
    EXPECT_EQ(back, t);
  }
  KernelDispatch t;
  EXPECT_FALSE(KernelDispatchFromString("", &t));
  EXPECT_FALSE(KernelDispatchFromString("avx512", &t));
  EXPECT_FALSE(KernelDispatchFromString("sse4", &t));
  EXPECT_FALSE(KernelDispatchFromString("AVX2", &t));
}

TEST(KernelDispatchTest, ResolutionNeverReturnsAutoAndClampsDown) {
  for (KernelDispatch req : {KernelDispatch::kAuto, KernelDispatch::kAvx2,
                             KernelDispatch::kScalar}) {
    KernelDispatch got = ResolveKernelDispatch(req);
    EXPECT_NE(got, KernelDispatch::kAuto);
    EXPECT_TRUE(CpuSupportsKernelDispatch(got));
  }
  // Scalar is always supported and always resolves to itself.
  EXPECT_EQ(ResolveKernelDispatch(KernelDispatch::kScalar),
            KernelDispatch::kScalar);
  EXPECT_TRUE(CpuSupportsKernelDispatch(KernelDispatch::kScalar));
  EXPECT_NE(BestSupportedKernelDispatch(), KernelDispatch::kAuto);
  // Gauge values are the documented encoding (1 is retired).
  EXPECT_EQ(KernelDispatchGaugeValue(KernelDispatch::kScalar), 0);
  EXPECT_EQ(KernelDispatchGaugeValue(KernelDispatch::kAvx2), 2);
}

TEST(KernelSimdTest, AllTiersMatchReferenceAtVectorWidthBuckets) {
  std::mt19937 rng(2024);
  // Length buckets straddle the 8-lane AVX2 block boundaries plus the
  // scalar tail: off-by-one bugs in the block loop or MergeTail land
  // exactly there.
  const size_t buckets[] = {0, 1, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63,
                            64, 65, 100};
  for (size_t na : buckets) {
    for (size_t nb : buckets) {
      for (int rep = 0; rep < 6; ++rep) {
        // Alternate dense (many hits, windows overlap) and sparse
        // (disjoint-window skip path) universes.
        uint32_t hi = rep % 2 == 0 ? static_cast<uint32_t>(na + nb + 8)
                                   : 1000000;
        auto a = RandomSet(&rng, na, 0, hi);
        auto b = RandomSet(&rng, nb, 0, hi);
        size_t want = ReferenceIntersect(a, b);
        for (KernelDispatch tier : kSweepTiers) {
          EXPECT_EQ(
              IntersectSizeSimd(a.data(), a.size(), b.data(), b.size(), tier),
              want)
              << "tier=" << KernelDispatchToString(tier) << " na=" << a.size()
              << " nb=" << b.size();
        }
      }
    }
  }
}

TEST(KernelSimdTest, BoundedSimilarityBitEqualAcrossTiers) {
  std::mt19937 rng(31337);
  const double xis[] = {0.0, 0.2, 0.5, 0.8, 0.95, 1.0};
  for (int trial = 0; trial < 400; ++trial) {
    uint32_t hi = trial % 2 == 0 ? 300 : 50000;
    auto a = RandomSet(&rng, rng() % 130, 0, hi);
    auto b = RandomSet(&rng, rng() % 130, 0, hi);
    SetSimKind kind = kAllKinds[trial % 4];
    double full = SetSimilarity(kind, a, b);
    for (double xi : xis) {
      double want = full >= xi ? full : kBelowThreshold;
      for (KernelDispatch tier : kSweepTiers) {
        // Bit-equal including the sentinel: abandon timing differs per
        // tier (per-block vs per-element) but the decision cannot.
        EXPECT_EQ(SetSimilarityBounded(kind, a, b, xi, tier), want)
            << "tier=" << KernelDispatchToString(tier) << " xi=" << xi;
      }
    }
  }
}

TEST(KernelSimdTest, SimdCounterAdvancesOnVectorTiers) {
  std::mt19937 rng(5);
  auto a = RandomSet(&rng, 64, 0, 10000);
  auto b = RandomSet(&rng, 64, 0, 10000);
  if (ResolveKernelDispatch(KernelDispatch::kAvx2) == KernelDispatch::kScalar) {
    GTEST_SKIP() << "no vector tier on this CPU";
  }
  uint64_t before = KernelCountersNow().simd_intersections;
  IntersectSizeSimd(a.data(), a.size(), b.data(), b.size(),
                    KernelDispatch::kAvx2);
  EXPECT_GT(KernelCountersNow().simd_intersections, before);
  // The scalar tier never touches the SIMD counter.
  uint64_t mid = KernelCountersNow().simd_intersections;
  IntersectSizeSimd(a.data(), a.size(), b.data(), b.size(),
                    KernelDispatch::kScalar);
  EXPECT_EQ(KernelCountersNow().simd_intersections, mid);
}

// ------------------------------------------- Myers edit-distance kernel

/// Reference corpus for the edit kernels: ASCII, multi-byte UTF-8,
/// embedded NULs, and strings crossing the 64/128 block boundaries.
std::vector<std::string> EditCorpus() {
  std::vector<std::string> corpus = {
      "",
      "a",
      "kitten",
      "sitting",
      "The Matrix (1999)",
      "the matrix",
      "Ein schöner Tag — naïve café",
      "数据库 систем records",
      std::string("nul\0inside", 10),       // embedded NUL
      std::string("\0\0\0", 3),             // all NULs
      std::string(63, 'x'),                 // one word exactly
      std::string(64, 'x'),                 // word boundary
      std::string(65, 'x'),                 // first multi-block length
      std::string(64, 'x') + "y",
      std::string(128, 'a'),                // two-block boundary
      std::string(129, 'b'),
      "entity resolution on heterogeneous records",
  };
  std::mt19937 rng(77);
  std::uniform_int_distribution<int> byte(0, 255);  // Full byte alphabet.
  std::uniform_int_distribution<int> narrow('a', 'd');
  for (int i = 0; i < 30; ++i) {
    std::string s;
    size_t len = rng() % 150;
    for (size_t j = 0; j < len; ++j) {
      s.push_back(static_cast<char>(i % 2 == 0 ? narrow(rng) : byte(rng)));
    }
    corpus.push_back(std::move(s));
  }
  return corpus;
}

TEST(MyersTest, MatchesDpOnCorpusAndBothDirections) {
  const std::vector<std::string> corpus = EditCorpus();
  for (const std::string& a : corpus) {
    for (const std::string& b : corpus) {
      size_t want = LevenshteinDistanceDp(a, b);
      EXPECT_EQ(LevenshteinDistanceMyers(a, b), want)
          << "|a|=" << a.size() << " |b|=" << b.size();
      // The dispatching entry point agrees on every tier.
      EXPECT_EQ(LevenshteinDistance(a, b), want);
    }
  }
}

TEST(MyersTest, BoundedIsExactAtOrAboveTheDistance) {
  const std::vector<std::string> corpus = EditCorpus();
  std::mt19937 rng(3);
  for (int trial = 0; trial < 300; ++trial) {
    const std::string& a = corpus[rng() % corpus.size()];
    const std::string& b = corpus[rng() % corpus.size()];
    size_t d = LevenshteinDistanceDp(a, b);
    // Exact at the distance and above it...
    EXPECT_EQ(LevenshteinDistanceBounded(a, b, d), d);
    EXPECT_EQ(LevenshteinDistanceBounded(a, b, d + 3), d);
    // ...and strictly greater than any limit below it.
    if (d > 0) {
      EXPECT_GT(LevenshteinDistanceBounded(a, b, d - 1), d - 1);
    }
  }
}

TEST(MyersTest, NormalizedAtLeastIsExactOrZero) {
  const std::vector<std::string> corpus = EditCorpus();
  std::mt19937 rng(9);
  const double floors[] = {0.0, 0.15, 0.5, 0.75, 0.9, 1.0};
  for (int trial = 0; trial < 400; ++trial) {
    const std::string& a = corpus[rng() % corpus.size()];
    const std::string& b = corpus[rng() % corpus.size()];
    double full = NormalizedLevenshtein(a, b);
    for (double floor : floors) {
      double got = NormalizedLevenshteinAtLeast(a, b, floor);
      if (full >= floor) {
        // Bit-equal: the threshold conversion uses the same double
        // expression NormalizedLevenshtein evaluates.
        EXPECT_EQ(got, full) << "floor=" << floor;
      } else {
        EXPECT_EQ(got, 0.0) << "floor=" << floor;
      }
    }
  }
}

TEST(MyersTest, CounterAdvancesOffTheScalarTier) {
  uint64_t before = KernelCountersNow().myers_calls;
  LevenshteinDistanceMyers("heterogeneous", "heterogenous");
  EXPECT_GT(KernelCountersNow().myers_calls, before);
}

// ------------------------------------- threshold conversion exactness

double Formula(SetSimKind kind, size_t inter, size_t na, size_t nb) {
  // The same expressions the kernels and string metrics evaluate.
  switch (kind) {
    case SetSimKind::kJaccard:
      return static_cast<double>(inter) / static_cast<double>(na + nb - inter);
    case SetSimKind::kDice:
      return 2.0 * static_cast<double>(inter) / static_cast<double>(na + nb);
    case SetSimKind::kOverlap:
      return static_cast<double>(inter) /
             static_cast<double>(std::min(na, nb));
    case SetSimKind::kCosine:
      return static_cast<double>(inter) /
             std::sqrt(static_cast<double>(na) * static_cast<double>(nb));
  }
  return 0.0;
}

TEST(KernelThresholdTest, MinOverlapMatchesBruteForce) {
  const double xis[] = {0.0, 0.1, 0.25, 0.5, 0.5000000001, 0.75, 0.9, 1.0};
  for (SetSimKind kind : kAllKinds) {
    for (size_t na = 0; na <= 24; ++na) {
      for (size_t nb = 0; nb <= 24; ++nb) {
        size_t cap = std::min(na, nb);
        for (double xi : xis) {
          size_t got = MinOverlapForThreshold(kind, na, nb, xi);
          // Exactness: o reaches xi under the double formula iff
          // o >= got, for every feasible o.
          for (size_t o = 0; o <= cap; ++o) {
            bool reaches = na > 0 && nb > 0 && Formula(kind, o, na, nb) >= xi;
            EXPECT_EQ(reaches, o >= got)
                << "kind=" << static_cast<int>(kind) << " na=" << na
                << " nb=" << nb << " xi=" << xi << " o=" << o;
          }
        }
      }
    }
  }
}

TEST(KernelThresholdTest, BoundedReturnsExactScoreOrSentinel) {
  std::mt19937 rng(7);
  const double xis[] = {0.0, 0.2, 0.5, 0.8, 1.0};
  for (int trial = 0; trial < 300; ++trial) {
    auto a = RandomSet(&rng, rng() % 40, 0, 200);
    auto b = RandomSet(&rng, rng() % 40, 0, 200);
    double full = SetSimilarity(kAllKinds[trial % 4], a, b);
    for (double xi : xis) {
      double bounded = SetSimilarityBounded(kAllKinds[trial % 4], a, b, xi);
      if (full >= xi) {
        // Bit-equal, not approximately equal.
        EXPECT_EQ(bounded, full);
      } else {
        EXPECT_EQ(bounded, kBelowThreshold);
      }
    }
  }
}

TEST(KernelThresholdTest, OverlapUpperBoundIsSound) {
  std::mt19937 rng(13);
  for (int trial = 0; trial < 200; ++trial) {
    auto a = RandomSet(&rng, rng() % 60, 0, 500);
    auto b = RandomSet(&rng, rng() % 60, 0, 500);
    size_t truth = ReferenceIntersect(a, b);
    for (int depth = 0; depth <= 3; ++depth) {
      size_t bound = OverlapUpperBound(a.data(), a.size(), b.data(), b.size(),
                                       depth);
      EXPECT_GE(bound, truth) << "depth=" << depth;
      EXPECT_LE(bound, std::min(a.size(), b.size()));
    }
  }
}

// ------------------------------------------ bit-equality vs string path

std::vector<std::string> TestCorpus() {
  std::vector<std::string> corpus = {
      "",                        // empty -> empty gram set
      "a",                       // shorter than q
      "The Matrix (1999)",
      "the matrix",
      "  THE   MATRIX  ",        // collapses to the same normal form
      "Star Wars: Episode IV - A New Hope",
      "star wars episode iv",
      "Ein schöner Tag — naïve café",  // multi-byte UTF-8
      "数据库 систем records",          // CJK + Cyrillic bytes
      "aaaaaaaaaaaa",            // single repeated gram
      "J. R. R. Tolkien",
      "Tolkien, J.R.R.",
      "entity resolution on heterogeneous records",
      "efficient entity resolution",
  };
  std::mt19937 rng(99);
  std::uniform_int_distribution<int> ch('a', 'e');  // Narrow alphabet: overlap.
  for (int i = 0; i < 40; ++i) {
    std::string s;
    size_t len = rng() % 20;
    for (size_t j = 0; j < len; ++j) s.push_back(static_cast<char>(ch(rng)));
    corpus.push_back(s);
  }
  return corpus;
}

TEST(KernelBitEqualityTest, KernelScoresMatchStringMetricsExactly) {
  const char* bases[] = {"jaccard", "dice", "overlap", "cosine"};
  for (int k = 0; k < 4; ++k) {
    for (int q = 1; q <= 3; ++q) {
      std::string name = std::string(bases[k]) + "_q" + std::to_string(q);
      auto metric = MakeSimilarity(name);
      ASSERT_NE(metric, nullptr) << name;
      SetSimKind kind;
      ASSERT_TRUE(GramMetricKind(metric->Name(), q, &kind)) << name;

      std::vector<std::string> corpus = TestCorpus();
      // Dictionary built from only half the corpus, so the other half
      // exercises the unknown-gram (fresh id) path.
      QgramDictionary dict(q);
      for (size_t i = 0; i < corpus.size() / 2; ++i) {
        dict.Add(Normalize(corpus[i]));
      }
      dict.Freeze();
      std::vector<std::vector<uint32_t>> ids;
      ids.reserve(corpus.size());
      for (const std::string& s : corpus) ids.push_back(dict.Encode(Normalize(s)));

      for (size_t i = 0; i < corpus.size(); ++i) {
        for (size_t j = 0; j < corpus.size(); ++j) {
          double want = metric->Compute(Value(corpus[i]), Value(corpus[j]));
          double got = SetSimilarity(kind, ids[i], ids[j]);
          // Bitwise equality: the whole determinism story rests on it.
          EXPECT_EQ(want, got) << name << " i=" << i << " j=" << j << " \""
                               << corpus[i] << "\" vs \"" << corpus[j] << "\"";
        }
      }
    }
  }
}

TEST(KernelBitEqualityTest, GramMetricKindRecognizesExactlyTheKernelFamily) {
  SetSimKind kind;
  EXPECT_TRUE(GramMetricKind("jaccard_q2", 2, &kind));
  EXPECT_EQ(kind, SetSimKind::kJaccard);
  EXPECT_TRUE(GramMetricKind("hybrid(dice_q3)", 3, &kind));
  EXPECT_EQ(kind, SetSimKind::kDice);
  EXPECT_TRUE(GramMetricKind("overlap_q1", 1, &kind));
  EXPECT_EQ(kind, SetSimKind::kOverlap);
  EXPECT_TRUE(GramMetricKind("cosine_q2", 2, &kind));
  EXPECT_EQ(kind, SetSimKind::kCosine);
  // q mismatch, non-set metrics, and two-argument hybrids are rejected.
  EXPECT_FALSE(GramMetricKind("jaccard_q3", 2, &kind));
  EXPECT_FALSE(GramMetricKind("edit", 2, &kind));
  EXPECT_FALSE(GramMetricKind("jaro_winkler", 2, &kind));
  EXPECT_FALSE(GramMetricKind("hybrid(jaccard_q2,numeric)", 2, &kind));
  EXPECT_FALSE(GramMetricKind("jaccard_q22", 2, &kind));
}

TEST(KernelBitEqualityTest, GramMetricSizeParsesExactlyTheKernelFamily) {
  EXPECT_EQ(GramMetricSize("jaccard_q2"), 2);
  EXPECT_EQ(GramMetricSize("jaccard_q3"), 3);
  EXPECT_EQ(GramMetricSize("hybrid(dice_q3)"), 3);
  EXPECT_EQ(GramMetricSize("overlap_q1"), 1);
  EXPECT_EQ(GramMetricSize("cosine_q12"), 12);
  // Non-gram families and malformed suffixes map to 0.
  EXPECT_EQ(GramMetricSize("edit"), 0);
  EXPECT_EQ(GramMetricSize("jaro_winkler"), 0);
  EXPECT_EQ(GramMetricSize("hybrid(jaccard_q2,numeric)"), 0);
  EXPECT_EQ(GramMetricSize("jaccard_q"), 0);
  EXPECT_EQ(GramMetricSize("jaccard_q0"), 0);
  EXPECT_EQ(GramMetricSize("soft_tfidf_q2"), 0);  // Not a kernel metric.
}

TEST(KernelBitEqualityTest, NewMetricRegistryEntriesResolve) {
  for (const char* name : {"dice", "dice_q2", "dice_q3", "overlap",
                           "overlap_q1", "hybrid(dice_q2)"}) {
    auto metric = MakeSimilarity(name);
    ASSERT_NE(metric, nullptr) << name;
    // Symmetric sanity + self-similarity of a non-trivial string.
    Value v("heterogeneous records");
    EXPECT_EQ(metric->Compute(v, v), 1.0) << name;
  }
  EXPECT_EQ(MakeSimilarity("dice_q0"), nullptr);
  EXPECT_EQ(MakeSimilarity("overlap_qx"), nullptr);
}

// ------------------------------------------------------- PairSimCache

TEST(PairSimCacheTest, HitsMissesAndOrderSensitivity) {
  PairSimCache cache("edit");
  EXPECT_EQ(cache.metric_name(), "edit");
  int calls = 0;
  auto score = [&] { ++calls; return 0.75; };
  EXPECT_EQ(cache.GetOrCompute("abc", "abd", score), 0.75);
  EXPECT_EQ(cache.GetOrCompute("abc", "abd", score), 0.75);
  EXPECT_EQ(calls, 1);
  // Reversed arguments are a different key (asymmetric metrics).
  EXPECT_EQ(cache.GetOrCompute("abd", "abc", score), 0.75);
  EXPECT_EQ(calls, 2);
  PairSimCache::Stats s = cache.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 2u);
  EXPECT_EQ(s.entries, 2u);
}

TEST(PairSimCacheTest, LengthFramedKeysDoNotCollide) {
  PairSimCache cache("edit");
  // ("ab", "c") and ("a", "bc") concatenate identically; the length
  // frame must keep them distinct.
  cache.GetOrCompute("ab", "c", [] { return 0.1; });
  EXPECT_EQ(cache.GetOrCompute("a", "bc", [] { return 0.9; }), 0.9);
  EXPECT_EQ(cache.stats().entries, 2u);
}

TEST(PairSimCacheTest, CapacityCeilingDegradesToPassThrough) {
  PairSimCache cache("edit", /*max_entries=*/1);
  cache.GetOrCompute("a", "b", [] { return 0.5; });
  EXPECT_EQ(cache.GetOrCompute("c", "d", [] { return 0.25; }), 0.25);
  PairSimCache::Stats s = cache.stats();
  EXPECT_EQ(s.entries, 1u);
  EXPECT_EQ(s.skipped_inserts, 1u);
  // The retained entry still serves.
  cache.GetOrCompute("a", "b", [] { return -1.0; });
  EXPECT_EQ(cache.stats().hits, 1u);
  cache.Clear();
  EXPECT_EQ(cache.stats().entries, 0u);
}

// --------------------------------------------- join-level equivalence

using PairTuple = std::tuple<uint32_t, uint32_t, uint32_t, uint32_t, uint32_t,
                             uint32_t, double>;

std::vector<PairTuple> AsTuples(const std::vector<ValuePair>& pairs) {
  std::vector<PairTuple> out;
  out.reserve(pairs.size());
  for (const ValuePair& p : pairs) {
    out.push_back({p.a.rid, p.a.fid, p.a.vid, p.b.rid, p.b.fid, p.b.vid, p.sim});
  }
  return out;
}

std::vector<LabeledValue> ValuesOf(const Dataset& ds) {
  std::vector<LabeledValue> values;
  for (const Record& r : ds.records()) {
    SuperRecord sr = SuperRecord::FromRecord(r);
    for (uint32_t f = 0; f < sr.num_fields(); ++f) {
      for (uint32_t v = 0; v < sr.field(f).size(); ++v) {
        values.push_back(
            {ValueLabel{sr.rid(), f, v}, sr.field(f).value(v).value});
      }
    }
  }
  return values;
}

Dataset SmallMovies(size_t records = 90, uint64_t seed = 7) {
  MovieGeneratorConfig config;
  config.num_records = records;
  config.num_entities = records / 5;
  config.seed = seed;
  return GenerateMovieDataset(config);
}

/// String values only: the filter stack's exactness claim is for
/// q-gram metrics over strings (the numeric sweep handles numbers and
/// intentionally never cross-compares a number against a string,
/// unlike the type-blind oracle).
std::vector<LabeledValue> StringValuesOf(const Dataset& ds) {
  std::vector<LabeledValue> values;
  for (LabeledValue& lv : ValuesOf(ds)) {
    if (lv.value.is_string()) values.push_back(std::move(lv));
  }
  return values;
}

/// Join output as sorted tuples with each unordered pair oriented
/// a < b: the joins may orient a pair differently.
std::vector<PairTuple> CanonicalTuples(std::vector<ValuePair> pairs) {
  for (ValuePair& p : pairs) {
    if (std::tie(p.b.rid, p.b.fid, p.b.vid) <
        std::tie(p.a.rid, p.a.fid, p.a.vid)) {
      std::swap(p.a, p.b);
    }
  }
  std::vector<PairTuple> v = AsTuples(pairs);
  std::sort(v.begin(), v.end());
  return v;
}

TEST(KernelJoinTest, KernelJoinMatchesNestedLoopOracleForEveryGramMetric) {
  std::vector<LabeledValue> values = StringValuesOf(SmallMovies());
  // Jaccard arms the exact filter stack: the prefix join emits exactly
  // the oracle's set. The other kinds run a slackened (heuristic)
  // prefix: the join may miss oracle pairs, but every pair it emits is
  // an oracle pair with a bit-identical sim.
  const struct {
    const char* name;
    bool exact;
  } cases[] = {{"jaccard_q2", true},  {"jaccard_q3", true},
               {"hybrid(jaccard_q2)", true}, {"dice_q2", false},
               {"overlap_q2", false}, {"cosine_q2", false}};
  for (const auto& c : cases) {
    auto metric = MakeSimilarity(c.name);
    ASSERT_NE(metric, nullptr) << c.name;
    std::vector<ValuePair> oracle_out, fast_out;
    ASSERT_TRUE(
        NestedLoopJoin().Join(values, *metric, 0.5, RunGuard(), &oracle_out)
            .ok());
    PrefixFilterJoin fast(GramMetricSize(c.name));
    ASSERT_TRUE(fast.Join(values, *metric, 0.5, RunGuard(), &fast_out).ok());
    ASSERT_GT(fast_out.size(), 0u) << c.name;
    const std::vector<PairTuple> oracle = CanonicalTuples(oracle_out);
    const std::vector<PairTuple> fast_tuples = CanonicalTuples(fast_out);
    if (c.exact) {
      EXPECT_EQ(oracle, fast_tuples) << c.name;
      continue;
    }
    for (const PairTuple& t : fast_tuples) {
      EXPECT_TRUE(std::binary_search(oracle.begin(), oracle.end(), t))
          << c.name << ": emitted pair missing from the oracle";
    }
  }
}

TEST(KernelJoinTest, KernelJoinMatchesNestedLoopOracleForJaccard) {
  std::vector<LabeledValue> values = StringValuesOf(SmallMovies(70, 3));
  auto metric = MakeSimilarity("jaccard_q2");
  ASSERT_NE(metric, nullptr);
  std::vector<ValuePair> oracle_out, fast_out;
  NestedLoopJoin oracle;
  ASSERT_TRUE(oracle.Join(values, *metric, 0.5, RunGuard(), &oracle_out).ok());
  PrefixFilterJoin fast;
  ASSERT_TRUE(fast.Join(values, *metric, 0.5, RunGuard(), &fast_out).ok());
  EXPECT_EQ(CanonicalTuples(oracle_out), CanonicalTuples(fast_out));
}

TEST(KernelJoinTest, FilterCountersAreConsistent) {
  Dataset ds = SmallMovies(120, 17);
  std::vector<LabeledValue> values = ValuesOf(ds);
  auto metric = MakeSimilarity("hybrid(jaccard_q2)");
  std::vector<ValuePair> out;
  JoinReport report;
  PrefixFilterJoin join;
  ASSERT_TRUE(join.Join(values, *metric, 0.5, RunGuard(), &out, &report).ok());
  EXPECT_EQ(report.emitted, out.size());
  EXPECT_GE(report.candidates, report.verified);
  EXPECT_GE(report.verified, report.emitted);
  // The exact-jaccard filter stack should actually prune something on
  // real data, and every encountered pair lands in exactly one bucket.
  EXPECT_GT(report.pruned_length + report.pruned_positional +
                report.pruned_suffix,
            0u);
}

TEST(KernelJoinTest, PairCacheServesRepeatVerificationsUnchanged) {
  Dataset ds = SmallMovies(80, 5);
  std::vector<LabeledValue> values = ValuesOf(ds);
  // edit is not kernel-eligible, so verification goes through the
  // metric — and through the cache when one is installed.
  auto metric = MakeSimilarity("edit");
  ASSERT_NE(metric, nullptr);
  std::vector<ValuePair> plain, cached1, cached2;
  PrefixFilterJoin join;
  ASSERT_TRUE(join.Join(values, *metric, 0.6, RunGuard(), &plain).ok());
  PrefixFilterJoin cjoin;
  auto cache = std::make_shared<PairSimCache>(metric->Name());
  cjoin.SetPairSimCache(cache);
  ASSERT_TRUE(cjoin.Join(values, *metric, 0.6, RunGuard(), &cached1).ok());
  ASSERT_TRUE(cjoin.Join(values, *metric, 0.6, RunGuard(), &cached2).ok());
  EXPECT_EQ(AsTuples(plain), AsTuples(cached1));
  EXPECT_EQ(AsTuples(cached1), AsTuples(cached2));
  PairSimCache::Stats s = cache->stats();
  EXPECT_GT(s.misses, 0u);
  EXPECT_GT(s.hits, 0u);  // Second join is served from the cache.
}

TEST(KernelJoinTest, MismatchedCacheMetricIsIgnored) {
  Dataset ds = SmallMovies(60, 9);
  std::vector<LabeledValue> values = ValuesOf(ds);
  auto metric = MakeSimilarity("edit");
  PrefixFilterJoin join;
  auto cache = std::make_shared<PairSimCache>("jaro_winkler");
  join.SetPairSimCache(cache);
  std::vector<ValuePair> out;
  ASSERT_TRUE(join.Join(values, *metric, 0.6, RunGuard(), &out).ok());
  // Name mismatch: the cache must never be consulted.
  EXPECT_EQ(cache->stats().hits + cache->stats().misses, 0u);
}

// ------------------------------------------------ engine determinism

struct RunSignature {
  std::vector<uint32_t> labels;
  std::vector<std::pair<uint32_t, uint32_t>> merge_sequence;
  size_t merges, comparisons, iterations;
};

RunSignature SignatureOf(const HeraResult& result) {
  return {result.entity_of, result.stats.merge_sequence, result.stats.merges,
          result.stats.comparisons, result.stats.iterations};
}

void ExpectSameSignature(const RunSignature& a, const RunSignature& b,
                         const std::string& what) {
  EXPECT_EQ(a.labels, b.labels) << what;
  EXPECT_EQ(a.merge_sequence, b.merge_sequence) << what;
  EXPECT_EQ(a.merges, b.merges) << what;
  EXPECT_EQ(a.comparisons, b.comparisons) << what;
  EXPECT_EQ(a.iterations, b.iterations) << what;
}

TEST(KernelEngineTest, KnobsAndThreadsNeverChangeTheRun) {
  MovieGeneratorConfig mconfig;
  mconfig.num_records = 220;
  mconfig.num_entities = 44;
  mconfig.seed = 7;
  PublicationGeneratorConfig pconfig;
  pconfig.num_records = 180;
  pconfig.num_entities = 45;
  pconfig.seed = 11;
  const Dataset datasets[] = {GenerateMovieDataset(mconfig),
                              GeneratePublicationDataset(pconfig)};
  for (const Dataset& ds : datasets) {
    HeraOptions base;  // auto tier, pair cache on, serial.
    auto want_result = Hera(base).Run(ds);
    ASSERT_TRUE(want_result.ok());
    ASSERT_GT(want_result->stats.merges, 0u);
    RunSignature want = SignatureOf(*want_result);
    struct Config {
      size_t threads;
      KernelDispatch tier;
      bool cache;
    };
    constexpr KernelDispatch kScalar = KernelDispatch::kScalar;
    constexpr KernelDispatch kAvx2 = KernelDispatch::kAvx2;
    const Config configs[] = {
        {0, kScalar, true}, {0, kAvx2, false},  {0, kScalar, false},
        {4, kAvx2, true},   {4, kScalar, true}, {4, kAvx2, false},
        {8, kAvx2, true},   {8, kScalar, false},
    };
    for (const Config& c : configs) {
      ScopedKernelDispatch pin(c.tier);
      HeraOptions opts;
      opts.num_threads = c.threads;
      opts.enable_pair_sim_cache = c.cache;
      auto got = Hera(opts).Run(ds);
      ASSERT_TRUE(got.ok());
      ExpectSameSignature(
          want, SignatureOf(*got),
          "threads=" + std::to_string(c.threads) +
              " tier=" + KernelDispatchToString(c.tier) +
              " cache=" + std::to_string(c.cache));
    }
  }
}

TEST(KernelEngineTest, DispatchTierNeverChangesTheRun) {
  MovieGeneratorConfig mconfig;
  mconfig.num_records = 200;
  mconfig.num_entities = 40;
  mconfig.seed = 3;
  PublicationGeneratorConfig pconfig;
  pconfig.num_records = 160;
  pconfig.num_entities = 40;
  pconfig.seed = 19;
  const Dataset datasets[] = {GenerateMovieDataset(mconfig),
                              GeneratePublicationDataset(pconfig)};
  for (const Dataset& ds : datasets) {
    RunSignature want{};
    {
      ScopedKernelDispatch pin(KernelDispatch::kScalar);
      auto want_result = Hera(HeraOptions{}).Run(ds);
      ASSERT_TRUE(want_result.ok());
      ASSERT_GT(want_result->stats.merges, 0u);
      want = SignatureOf(*want_result);
    }
    for (KernelDispatch tier : kSweepTiers) {
      ScopedKernelDispatch pin(tier);
      for (size_t threads : {size_t{0}, size_t{4}, size_t{8}}) {
        HeraOptions opts;
        opts.num_threads = threads;
        auto got = Hera(opts).Run(ds);
        ASSERT_TRUE(got.ok());
        ExpectSameSignature(want, SignatureOf(*got),
                            std::string("tier=") + KernelDispatchToString(tier) +
                                " threads=" + std::to_string(threads));
      }
    }
  }
}

TEST(KernelEngineTest, EditMetricRunIdenticalAcrossTiers) {
  // Routes the Myers kernel through a whole resolution: the edit
  // metric's verification path and the baselines' dense loops.
  MovieGeneratorConfig config;
  config.num_records = 140;
  config.num_entities = 28;
  config.seed = 23;
  Dataset ds = GenerateMovieDataset(config);
  HeraOptions opts;
  opts.metric = "edit";
  opts.xi = 0.6;
  RunSignature want{};
  {
    ScopedKernelDispatch pin(KernelDispatch::kScalar);
    auto want_result = Hera(opts).Run(ds);
    ASSERT_TRUE(want_result.ok());
    ASSERT_GT(want_result->stats.merges, 0u);
    want = SignatureOf(*want_result);
  }
  for (KernelDispatch tier : {KernelDispatch::kAvx2, KernelDispatch::kAuto}) {
    ScopedKernelDispatch pin(tier);
    auto got = Hera(opts).Run(ds);
    ASSERT_TRUE(got.ok());
    ExpectSameSignature(want, SignatureOf(*got),
                        std::string("edit tier=") +
                            KernelDispatchToString(tier));
  }
}

TEST(KernelEngineTest, Q3MetricArmsKernelsAndStaysLossless) {
  // q = 3 metrics index at their own gram size (GramMetricSize), which
  // arms the encoded kernels and the exact PPJoin+ filters. The trigram
  // universe outgrows the bitmap window, so this is also the path where
  // a whole resolution actually reaches the SIMD merge kernel.
  PublicationGeneratorConfig config;
  config.num_records = 260;
  config.num_entities = 52;
  config.seed = 31;
  Dataset ds = GeneratePublicationDataset(config);
  HeraOptions opts;
  opts.metric = "jaccard_q3";
  RunSignature want{};
  {
    ScopedKernelDispatch pin(KernelDispatch::kScalar);
    auto want_result = Hera(opts).Run(ds);
    ASSERT_TRUE(want_result.ok());
    ASSERT_GT(want_result->stats.merges, 0u);
    want = SignatureOf(*want_result);
  }
  // The prefix-filter join at q = 3 is lossless: the O(n^2) oracle
  // resolves to the same labels.
  {
    HeraOptions oracle;
    oracle.metric = "jaccard_q3";
    oracle.use_prefix_filter_join = false;
    auto got = Hera(oracle).Run(ds);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(want.labels, SignatureOf(*got).labels) << "nested-loop oracle";
  }
  for (KernelDispatch tier : kSweepTiers) {
    ScopedKernelDispatch pin(tier);
    uint64_t before = KernelCountersNow().simd_intersections;
    auto got = Hera(opts).Run(ds);
    ASSERT_TRUE(got.ok());
    ExpectSameSignature(want, SignatureOf(*got),
                        std::string("jaccard_q3 tier=") +
                            KernelDispatchToString(tier));
    // On a vector tier the trigram sets actually reach the SIMD merge.
    if (ResolveKernelDispatch(tier) != KernelDispatch::kScalar) {
      EXPECT_GT(KernelCountersNow().simd_intersections, before)
          << KernelDispatchToString(tier);
    }
  }
}

// --------------------------------------- dense weight loops (baselines)

/// Random value mix: strings from the shared corpus, numbers, nulls.
std::vector<Value> RandomValues(std::mt19937* rng,
                                const std::vector<std::string>& corpus,
                                size_t n) {
  std::vector<Value> out(n);  // Value-initialized: null.
  for (Value& v : out) {
    switch ((*rng)() % 5) {
      case 0:
        v = Value(static_cast<double>((*rng)() % 2000));
        break;
      case 1:
        break;  // null
      default:
        v = Value(corpus[(*rng)() % corpus.size()]);
        break;
    }
  }
  return out;
}

/// The loop BestPairScorer replaces, verbatim.
double BruteBest(const std::vector<Value>& a, const std::vector<Value>& b,
                 const ValueSimilarity& simv) {
  double best = 0.0;
  for (const Value& va : a) {
    for (const Value& vb : b) best = std::max(best, simv.Compute(va, vb));
  }
  return best;
}

TEST(BestPairScorerTest, ExactWheneverMaxReachesFloor) {
  const char* metrics[] = {"jaccard_q2", "dice_q2", "overlap_q3",
                           "hybrid(jaccard_q2)", "edit", "hybrid(edit)"};
  const std::vector<std::string> corpus = TestCorpus();
  for (const char* name : metrics) {
    auto simv = MakeSimilarity(name);
    ASSERT_NE(simv, nullptr) << name;
    BestPairScorer scorer(*simv);
    std::mt19937 rng(7);
    for (int trial = 0; trial < 60; ++trial) {
      std::vector<Value> a = RandomValues(&rng, corpus, 1 + rng() % 6);
      std::vector<Value> b = RandomValues(&rng, corpus, 1 + rng() % 6);
      double want = BruteBest(a, b, *simv);
      for (double floor : {0.0, 0.3, 0.5, 0.9}) {
        double got = scorer.BestAtLeast(a, b, floor);
        if (want >= floor) {
          // Bitwise, not approximate: the kernel evaluates the same
          // floating-point expression as the string metric.
          EXPECT_EQ(got, want) << name << " floor=" << floor;
        } else {
          EXPECT_LT(got, floor) << name << " floor=" << floor;
        }
      }
    }
  }
}

TEST(BestPairScorerTest, KernelDetectionMatchesTheMetricFamily) {
  EXPECT_TRUE(BestPairScorer(*MakeSimilarity("jaccard_q2")).kernel_active());
  EXPECT_TRUE(BestPairScorer(*MakeSimilarity("cosine_q3")).kernel_active());
  EXPECT_TRUE(
      BestPairScorer(*MakeSimilarity("hybrid(dice_q2)")).kernel_active());
  EXPECT_FALSE(BestPairScorer(*MakeSimilarity("edit")).kernel_active());
  EXPECT_FALSE(BestPairScorer(*MakeSimilarity("jaro_winkler")).kernel_active());
  // Edit-family metrics take the bounded Myers path instead.
  EXPECT_TRUE(BestPairScorer(*MakeSimilarity("edit")).edit_active());
  EXPECT_TRUE(BestPairScorer(*MakeSimilarity("hybrid(edit)")).edit_active());
  EXPECT_FALSE(BestPairScorer(*MakeSimilarity("jaccard_q2")).edit_active());
}

TEST(BestPairScorerTest, ClusterSimilarityIdenticalWithScorerOnAndOff) {
  const std::vector<std::string> corpus = TestCorpus();
  auto simv = MakeSimilarity("hybrid(jaccard_q2)");
  // One scorer across every call, so its encoding memo is exercised;
  // the scorer-less overload builds a fresh scorer per call.
  BestPairScorer scorer(*simv);
  std::mt19937 rng(13);
  for (int trial = 0; trial < 40; ++trial) {
    // Two members per cluster so attributes hold several values each.
    HomogeneousCluster ca = HomogeneousCluster::FromRecord(
        Record(0, 0, RandomValues(&rng, corpus, 4)));
    ca.Absorb(HomogeneousCluster::FromRecord(
        Record(2, 0, RandomValues(&rng, corpus, 4))));
    HomogeneousCluster cb = HomogeneousCluster::FromRecord(
        Record(1, 0, RandomValues(&rng, corpus, 4)));
    cb.Absorb(HomogeneousCluster::FromRecord(
        Record(3, 0, RandomValues(&rng, corpus, 4))));
    for (double xi : {0.3, 0.5, 0.8}) {
      EXPECT_EQ(ClusterSimilarity(ca, cb, scorer, xi),
                ClusterSimilarity(ca, cb, *simv, xi));
    }
  }
}

}  // namespace
}  // namespace hera

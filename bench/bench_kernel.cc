// Micro-benchmark for the integer-encoded similarity kernels
// (sim/kernel.h): intersection strategies across set sizes, skew, and
// id density, an end-to-end verification-phase comparison against the
// string metric path on generated movie data (scalar and SIMD tiers
// measured separately), and the Myers bit-parallel edit distance
// against the row DP across string lengths.
//
// Plain executable (no google-benchmark dependency) so it can run in
// the CI bench-smoke job. With HERA_BENCH_JSON_DIR set it writes
// BENCH_kernel.json with every measured series; the committed baseline
// lives at bench/baselines/BENCH_kernel.json.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <random>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/file_util.h"
#include "data/movie_generator.h"
#include "obs/json.h"
#include "record/super_record.h"
#include "sim/kernel.h"
#include "sim/kernel_dispatch.h"
#include "sim/metrics.h"
#include "sim/string_metrics.h"
#include "text/normalize.h"
#include "text/qgram.h"

namespace hera {
namespace bench {
namespace {

volatile uint64_t g_sink = 0;  // Defeats dead-code elimination.

/// Median-of-repeats wall time per call, in nanoseconds.
template <typename Fn>
double NsPerOp(size_t iters, const Fn& fn) {
  double best = 1e30;
  for (int rep = 0; rep < 5; ++rep) {
    auto t0 = std::chrono::steady_clock::now();
    uint64_t acc = 0;
    for (size_t i = 0; i < iters; ++i) acc += fn(i);
    auto t1 = std::chrono::steady_clock::now();
    g_sink = g_sink + acc;
    double ns =
        std::chrono::duration<double, std::nano>(t1 - t0).count() /
        static_cast<double>(iters);
    best = std::min(best, ns);
  }
  return best;
}

std::vector<uint32_t> MakeSet(std::mt19937* rng, size_t n, uint32_t universe) {
  std::uniform_int_distribution<uint32_t> dist(0, universe - 1);
  std::vector<uint32_t> v;
  v.reserve(n * 2);
  while (v.size() < n) {
    v.push_back(dist(*rng));
    std::sort(v.begin(), v.end());
    v.erase(std::unique(v.begin(), v.end()), v.end());
  }
  v.resize(n);
  return v;
}

/// Decimal renderings of the ids, sorted — a stand-in gram set for the
/// string-path comparison (same cardinalities, string comparisons).
std::vector<std::string> AsStringSet(const std::vector<uint32_t>& ids) {
  std::vector<std::string> s;
  s.reserve(ids.size());
  for (uint32_t id : ids) s.push_back(std::to_string(id));
  std::sort(s.begin(), s.end());
  return s;
}

struct SyntheticRow {
  size_t na, nb;
  const char* shape;
  const char* strategy;
  double ns_per_op;
};

void RunSynthetic(std::vector<SyntheticRow>* rows) {
  std::mt19937 rng(1234);
  struct Shape {
    const char* name;
    size_t na, nb;
    uint32_t universe;  // Small universe => dense window => bitmap.
  };
  std::vector<Shape> shapes;
  for (size_t n : {8u, 32u, 128u, 512u, 2048u}) {
    shapes.push_back({"balanced", n, n, static_cast<uint32_t>(8 * n)});
    shapes.push_back({"skew16", n, std::max<size_t>(1, n / 16),
                      static_cast<uint32_t>(8 * n)});
    if (2 * n < kBitmapBits) {
      shapes.push_back({"dense", n, n, static_cast<uint32_t>(2 * n)});
    }
  }
  std::printf("%-9s %6s %6s  %-8s %12s\n", "shape", "na", "nb", "strategy",
              "ns/op");
  PrintRule(48);
  for (const Shape& sh : shapes) {
    // A pool of pairs so the branch predictor sees varied data.
    constexpr size_t kPool = 32;
    std::vector<std::vector<uint32_t>> as, bs;
    std::vector<std::vector<std::string>> sa, sb;
    for (size_t p = 0; p < kPool; ++p) {
      as.push_back(MakeSet(&rng, sh.na, sh.universe));
      bs.push_back(MakeSet(&rng, sh.nb, sh.universe));
      sa.push_back(AsStringSet(as.back()));
      sb.push_back(AsStringSet(bs.back()));
    }
    size_t iters = std::max<size_t>(2000, 2000000 / (sh.na + sh.nb));
    auto add = [&](const char* strategy, double ns) {
      rows->push_back({sh.na, sh.nb, sh.name, strategy, ns});
      std::printf("%-9s %6zu %6zu  %-8s %12.1f\n", sh.name, sh.na, sh.nb,
                  strategy, ns);
    };
    add("strings", NsPerOp(iters / 4 + 1, [&](size_t i) {
          size_t p = i % kPool;
          return OverlapOfSets(sa[p], sb[p]);
        }));
    add("merge", NsPerOp(iters, [&](size_t i) {
          size_t p = i % kPool;
          return IntersectSizeMerge(as[p].data(), as[p].size(), bs[p].data(),
                                    bs[p].size());
        }));
    add("gallop", NsPerOp(iters, [&](size_t i) {
          size_t p = i % kPool;
          return IntersectSizeGallop(bs[p].data(), bs[p].size(), as[p].data(),
                                     as[p].size());
        }));
    if (BitmapEligible(as[0], bs[0])) {
      add("bitmap", NsPerOp(iters, [&](size_t i) {
            size_t p = i % kPool;
            return IntersectSizeBitmap(as[p], bs[p]);
          }));
    }
    // The AVX2 tier on the same shapes; on a CPU without it the row
    // aliases the scalar merge (resolution clamps down).
    add("avx2", NsPerOp(iters, [&](size_t i) {
          size_t p = i % kPool;
          return IntersectSizeSimd(as[p].data(), as[p].size(), bs[p].data(),
                                   bs[p].size(), KernelDispatch::kAvx2);
        }));
    add("auto", NsPerOp(iters, [&](size_t i) {
          size_t p = i % kPool;
          return IntersectSize(as[p], bs[p]);
        }));
  }
}

struct VerifyResultRow {
  size_t pairs = 0;
  double string_ns = 0;        // Cached string metric (TokenCache-backed).
  double string_cold_ns = 0;   // Re-normalize + re-tokenize every call.
  double kernel_ns = 0;        // SetSimilarityBounded on encoded sets.
  double kernel_scalar_ns = 0; // Intersection comparison, scalar tier.
  double kernel_simd_ns = 0;   // Intersection comparison, best SIMD tier.
  double speedup = 0;          // string_ns / kernel_ns.
  double speedup_cold = 0;     // string_cold_ns / kernel_ns.
  double simd_speedup = 0;     // kernel_scalar_ns / kernel_simd_ns.
};

/// The verification workload: candidate value pairs from generated
/// movie records, scored at xi by (a) the string metric, (b) the
/// bounded kernel on dictionary-encoded gram sets.
VerifyResultRow RunVerifyPhase() {
  MovieGeneratorConfig config;
  config.num_records = 400;
  config.num_entities = 80;
  config.seed = 7;
  Dataset ds = GenerateMovieDataset(config);
  std::vector<Value> values;
  for (const Record& r : ds.records()) {
    SuperRecord sr = SuperRecord::FromRecord(r);
    for (uint32_t f = 0; f < sr.num_fields(); ++f) {
      for (uint32_t v = 0; v < sr.field(f).size(); ++v) {
        const Value& val = sr.field(f).value(v).value;
        if (val.is_string()) values.push_back(val);
      }
    }
  }
  const double xi = 0.5;
  auto metric = MakeSimilarity("jaccard_q2");
  QgramDictionary dict(2);
  for (const Value& v : values) dict.Add(Normalize(v.AsString()));
  dict.Freeze();
  std::vector<std::vector<uint32_t>> ids;
  ids.reserve(values.size());
  for (const Value& v : values) ids.push_back(dict.Encode(Normalize(v.AsString())));

  // Candidate pairs: a pseudo-random sample, the same for every path.
  std::mt19937 rng(99);
  std::uniform_int_distribution<size_t> pick(0, values.size() - 1);
  constexpr size_t kPairs = 20000;
  std::vector<std::pair<size_t, size_t>> pairs;
  pairs.reserve(kPairs);
  for (size_t i = 0; i < kPairs; ++i) pairs.push_back({pick(rng), pick(rng)});

  VerifyResultRow row;
  row.pairs = kPairs;
  // Warm the metric's token cache once so "strings" measures the
  // steady-state cached path (the cold path is measured separately).
  for (const Value& v : values) (void)metric->Compute(v, v);
  row.string_ns = NsPerOp(kPairs, [&](size_t i) {
    const auto& [a, b] = pairs[i % kPairs];
    return static_cast<uint64_t>(
        metric->Compute(values[a], values[b]) >= xi);
  });
  row.string_cold_ns = NsPerOp(kPairs, [&](size_t i) {
    const auto& [a, b] = pairs[i % kPairs];
    return static_cast<uint64_t>(
        JaccardOfSets(QgramSet(Normalize(values[a].AsString()), 2),
                      QgramSet(Normalize(values[b].AsString()), 2)) >= xi);
  });
  row.kernel_ns = NsPerOp(kPairs, [&](size_t i) {
    const auto& [a, b] = pairs[i % kPairs];
    return static_cast<uint64_t>(
        SetSimilarityBounded(SetSimKind::kJaccard, ids[a], ids[b], xi) !=
        kBelowThreshold);
  });
  // Tier comparison on the pairs that reach a real SIMD merge. Two
  // screens: (a) q = 2's ~1.3k-gram universe keeps every id window
  // inside the bitmap kernel, which no tier changes, so the tier rows
  // use q = 3 encodings (50k-gram universe -> wide windows -> the
  // merge shape the SIMD kernels own); (b) merge cost concentrates in
  // the long values (titles, name lists — years and genres take the
  // scalar path on every tier), so pairs draw from values with >= 16
  // grams, each scored against itself and its nearest pool neighbor
  // (high overlap, full-length intersections) rather than random pairs
  // that abandon after a few elements. The cutoff keeps three-plus
  // AVX2 blocks in flight per side.
  QgramDictionary dict3(3);
  for (const Value& v : values) dict3.Add(Normalize(v.AsString()));
  dict3.Freeze();
  std::vector<std::vector<uint32_t>> ids3;
  ids3.reserve(values.size());
  for (const Value& v : values) {
    ids3.push_back(dict3.Encode(Normalize(v.AsString())));
  }
  std::vector<size_t> longs;
  for (size_t i = 0; i < ids3.size(); ++i) {
    if (ids3[i].size() >= 24) longs.push_back(i);
  }
  std::uniform_int_distribution<size_t> pick_long(0, longs.size() - 1);
  std::vector<std::pair<size_t, size_t>> cands;
  cands.reserve(kPairs);
  for (size_t i = 0; i < kPairs; ++i) {
    size_t a = pick_long(rng);
    cands.push_back(
        {longs[a], i % 2 == 0 ? longs[a] : longs[(a + 1) % longs.size()]});
  }
  // The rows measure the intersection comparison itself (the work the
  // tier actually changes); the threshold conversion and shape
  // dispatch around it are tier-independent and already counted in
  // kernel_ns above.
  const KernelDispatch simd_tier = ResolveKernelDispatch(KernelDispatch::kAuto);
  row.kernel_scalar_ns = NsPerOp(kPairs, [&](size_t i) {
    const auto& [a, b] = cands[i % kPairs];
    return IntersectSizeSimd(ids3[a].data(), ids3[a].size(), ids3[b].data(),
                             ids3[b].size(), KernelDispatch::kScalar);
  });
  row.kernel_simd_ns = NsPerOp(kPairs, [&](size_t i) {
    const auto& [a, b] = cands[i % kPairs];
    return IntersectSizeSimd(ids3[a].data(), ids3[a].size(), ids3[b].data(),
                             ids3[b].size(), simd_tier);
  });
  row.speedup = row.string_ns / row.kernel_ns;
  row.speedup_cold = row.string_cold_ns / row.kernel_ns;
  row.simd_speedup = row.kernel_scalar_ns / row.kernel_simd_ns;
  std::printf("\nverification phase (%zu candidate pairs, xi=%.2f)\n",
              row.pairs, xi);
  PrintRule(48);
  std::printf("%-28s %12.1f ns/pair\n", "string metric (cached grams)",
              row.string_ns);
  std::printf("%-28s %12.1f ns/pair\n", "string metric (re-tokenize)",
              row.string_cold_ns);
  std::printf("%-28s %12.1f ns/pair\n", "encoded kernel (bounded)",
              row.kernel_ns);
  std::printf("%-28s %11.2fx (%.2fx vs re-tokenize)\n", "kernel speedup",
              row.speedup, row.speedup_cold);
  std::printf("%-28s %12.1f ns/pair\n", "intersection, scalar tier",
              row.kernel_scalar_ns);
  std::printf("%-28s %12.1f ns/pair (%s)\n", "intersection, simd tier",
              row.kernel_simd_ns, KernelDispatchToString(simd_tier));
  std::printf("%-28s %11.2fx\n", "simd speedup", row.simd_speedup);
  return row;
}

struct MyersRow {
  size_t len = 0;
  double dp_ns = 0;
  double myers_ns = 0;
  double speedup = 0;
};

/// Myers bit-parallel kernel vs the row DP on pools of near-duplicate
/// strings (one substitution apart — representative of verification,
/// and neither pre-filter can shortcut them).
std::vector<MyersRow> RunMyers() {
  std::mt19937 rng(4321);
  std::uniform_int_distribution<int> ch('a', 'z');
  std::vector<MyersRow> rows;
  std::printf("\nedit distance (dp vs myers)\n");
  PrintRule(48);
  std::printf("%6s %12s %12s %10s\n", "len", "dp ns/op", "myers ns/op",
              "speedup");
  for (size_t len : {16u, 64u, 256u}) {
    constexpr size_t kPool = 32;
    std::vector<std::string> as, bs;
    for (size_t p = 0; p < kPool; ++p) {
      std::string s;
      for (size_t i = 0; i < len; ++i) s.push_back(static_cast<char>(ch(rng)));
      as.push_back(s);
      s[rng() % len] = static_cast<char>(ch(rng));
      bs.push_back(s);
    }
    size_t iters = std::max<size_t>(500, 400000 / (len + 1));
    MyersRow row;
    row.len = len;
    row.dp_ns = NsPerOp(iters, [&](size_t i) {
      size_t p = i % kPool;
      return LevenshteinDistanceDp(as[p], bs[p]);
    });
    row.myers_ns = NsPerOp(iters, [&](size_t i) {
      size_t p = i % kPool;
      return LevenshteinDistanceMyers(as[p], bs[p]);
    });
    row.speedup = row.dp_ns / row.myers_ns;
    std::printf("%6zu %12.1f %12.1f %9.2fx\n", row.len, row.dp_ns,
                row.myers_ns, row.speedup);
    rows.push_back(row);
  }
  return rows;
}

void WriteJson(const std::vector<SyntheticRow>& rows,
               const VerifyResultRow& verify,
               const std::vector<MyersRow>& myers) {
  const char* dir = BenchJsonDir();
  if (dir == nullptr) return;
  obs::JsonWriter w;
  w.BeginObject();
  w.Key("bench").String("kernel");
  w.Key("synthetic").BeginArray();
  for (const SyntheticRow& r : rows) {
    w.BeginObject();
    w.Key("shape").String(r.shape);
    w.Key("na").UInt(r.na);
    w.Key("nb").UInt(r.nb);
    w.Key("strategy").String(r.strategy);
    w.Key("ns_per_op").Number(r.ns_per_op);
    w.EndObject();
  }
  w.EndArray();
  w.Key("verify").BeginObject();
  w.Key("pairs").UInt(verify.pairs);
  w.Key("string_ns_per_pair").Number(verify.string_ns);
  w.Key("string_cold_ns_per_pair").Number(verify.string_cold_ns);
  w.Key("kernel_ns_per_pair").Number(verify.kernel_ns);
  w.Key("kernel_scalar_ns_per_pair").Number(verify.kernel_scalar_ns);
  w.Key("kernel_simd_ns_per_pair").Number(verify.kernel_simd_ns);
  w.Key("speedup").Number(verify.speedup);
  w.Key("speedup_cold").Number(verify.speedup_cold);
  w.Key("simd_speedup").Number(verify.simd_speedup);
  w.EndObject();
  w.Key("myers").BeginObject();
  w.Key("dispatch_tier").String(
      KernelDispatchToString(ResolveKernelDispatch(KernelDispatch::kAuto)));
  w.Key("rows").BeginArray();
  for (const MyersRow& r : myers) {
    w.BeginObject();
    w.Key("len").UInt(r.len);
    w.Key("dp_ns_per_op").Number(r.dp_ns);
    w.Key("myers_ns_per_op").Number(r.myers_ns);
    w.Key("speedup").Number(r.speedup);
    w.EndObject();
  }
  w.EndArray();
  for (const MyersRow& r : myers) {
    // Named gauges so the bench gate can track each length directly.
    w.Key(("speedup_" + std::to_string(r.len)).c_str()).Number(r.speedup);
  }
  w.EndObject();
  w.EndObject();
  std::string path = std::string(dir) + "/BENCH_kernel.json";
  Status st = AtomicWriteFile(path, w.str() + "\n");
  if (!st.ok()) {
    std::fprintf(stderr, "cannot write %s: %s\n", path.c_str(),
                 st.ToString().c_str());
  } else {
    std::printf("\nwrote %s\n", path.c_str());
  }
}

}  // namespace
}  // namespace bench
}  // namespace hera

int main() {
  std::printf("kernel dispatch tier: %s\n",
              hera::KernelDispatchToString(
                  hera::ActiveKernelDispatch()));
  std::vector<hera::bench::SyntheticRow> rows;
  hera::bench::RunSynthetic(&rows);
  hera::bench::VerifyResultRow verify = hera::bench::RunVerifyPhase();
  std::vector<hera::bench::MyersRow> myers = hera::bench::RunMyers();
  hera::bench::WriteJson(rows, verify, myers);
  return 0;
}

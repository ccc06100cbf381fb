// Quality-vs-budget curve of the best-first frontier that a
// verification budget turns on, on the ambiguity corpus
// (data/ambiguity_generator.h) whose decoys sit at low record ids —
// exactly where a canonical-order budget would burn first.
//
// The curve is deterministic: it counts verifications and measures
// pair recall, no wall clock involved, so the committed baseline is a
// tight regression gate. tools/bench_compare.py gates
// progressive.recall_50 (frontier recall at 50% of the full budget,
// 1/3 on this corpus); a frontier that silently degrades to canonical
// order recalls 0.167 there and fails loudly.
//
// Plain executable (no google-benchmark dependency) so it can run in
// the CI bench-smoke job. With HERA_BENCH_JSON_DIR set it writes
// BENCH_progressive.json; the committed baseline lives at
// bench/baselines/BENCH_progressive.json.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/file_util.h"
#include "core/hera.h"
#include "data/ambiguity_generator.h"
#include "eval/metrics.h"
#include "obs/json.h"

namespace hera {
namespace bench {
namespace {

struct CurvePoint {
  double fraction = 0;       // Budget as a fraction of the full run's V.
  size_t budget = 0;         // max_verifications handed to the guard.
  size_t frontier_spent = 0; // Verifications spent (must equal budget).
  double frontier_recall = 0;
};

HeraResult RunBudgeted(const Dataset& ds, size_t budget) {
  HeraOptions opts;
  opts.num_threads = BenchThreads();
  opts.guard.WithMaxVerifications(budget);
  auto result = Hera(opts).Run(ds);
  if (!result.ok()) {
    std::fprintf(stderr, "HERA failed: %s\n",
                 result.status().ToString().c_str());
    std::abort();
  }
  return std::move(result).value();
}

void WriteJson(size_t entities, size_t decoys, size_t total_verifications,
               double full_recall, const std::vector<CurvePoint>& curve) {
  const char* dir = BenchJsonDir();
  if (dir == nullptr) return;
  obs::JsonWriter w;
  w.BeginObject();
  w.Key("bench").String("progressive");
  w.Key("dataset").BeginObject();
  w.Key("entities").UInt(entities);
  w.Key("decoys").UInt(decoys);
  w.EndObject();
  w.Key("progressive").BeginObject();
  w.Key("total_verifications").UInt(total_verifications);
  w.Key("full_recall").Number(full_recall);
  double recall_50 = 0;
  for (const CurvePoint& p : curve) {
    if (p.fraction == 0.5) recall_50 = p.frontier_recall;
  }
  w.Key("recall_50").Number(recall_50);
  w.EndObject();
  w.Key("curve").BeginArray();
  for (const CurvePoint& p : curve) {
    w.BeginObject();
    w.Key("fraction").Number(p.fraction);
    w.Key("budget").UInt(p.budget);
    w.Key("frontier_spent").UInt(p.frontier_spent);
    w.Key("frontier_recall").Number(p.frontier_recall);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  std::string path = std::string(dir) + "/BENCH_progressive.json";
  Status st = AtomicWriteFile(path, w.str() + "\n");
  if (!st.ok()) {
    std::fprintf(stderr, "cannot write %s: %s\n", path.c_str(),
                 st.ToString().c_str());
  } else {
    std::printf("\nwrote %s\n", path.c_str());
  }
}

int Run() {
  AmbiguityGeneratorConfig config;
  config.num_entities = 50;
  config.num_decoys = 50;
  config.seed = 11;
  Dataset ds = GenerateAmbiguousDataset(config);

  // Gauge the budgeted run's own verification demand: the frontier
  // reorders verification, so its total can differ from the canonical
  // run's. Budgets are fractions of this V.
  HeraOptions gauge;
  gauge.num_threads = BenchThreads();
  gauge.guard.WithMaxVerifications(1u << 30);
  auto full = Hera(gauge).Run(ds);
  if (!full.ok() || full->stats.outcome != RunOutcome::kCompleted) {
    std::fprintf(stderr, "gauge run did not complete\n");
    return 1;
  }
  const size_t total = full->stats.candidates;
  const double full_recall =
      EvaluatePairs(full->entity_of, ds.entity_of()).recall;

  std::printf("quality vs verification budget (%zu entities, %zu decoys, "
              "full run: %zu verifications, recall %.3f)\n",
              config.num_entities, config.num_decoys, total, full_recall);
  PrintRule(40);
  std::printf("%-8s %-8s %16s\n", "budget", "(frac)", "frontier recall");

  std::vector<CurvePoint> curve;
  for (double fraction : {0.25, 0.5, 0.75}) {
    CurvePoint p;
    p.fraction = fraction;
    p.budget = static_cast<size_t>(static_cast<double>(total) * fraction);
    auto frontier = RunBudgeted(ds, p.budget);
    if (frontier.stats.outcome != RunOutcome::kTruncatedBudget) {
      std::fprintf(stderr, "budget %zu did not bind\n", p.budget);
      return 1;
    }
    p.frontier_spent = frontier.stats.candidates;
    p.frontier_recall =
        EvaluatePairs(frontier.entity_of, ds.entity_of()).recall;
    curve.push_back(p);
    std::printf("%-8zu %-8.2f %16.3f\n", p.budget, p.fraction,
                p.frontier_recall);
  }

  WriteJson(config.num_entities, config.num_decoys, total, full_recall, curve);
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace hera

int main() { return hera::bench::Run(); }

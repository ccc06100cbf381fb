// End-to-end HERA benchmark binary: runs one named workload through
// HERA's public API and prints one JSON line of raw measurements on
// stdout. perfbench/run.py builds this binary, checks its outputs
// against the recorded digests and turns the raw numbers into the
// metrics named in BENCHMARK.json.
//
//   hera_e2e_bench --workload movies-batch --seed 7 --seconds 30
//                  --trace 0 --workdir DIR
//
// --trace 0 times whole calls (Hera::Run, or one 10-record stream
// batch) with tracing and collect_report off, over round(seconds /
// nominal round time) rounds, each on its own corpus (--seconds 0: one
// round). --trace 1 is the layer run, a fixed set of calls on the
// seed's corpus: it times the benchmark's own calls into each module's
// public functions as spans (name, start, end, parent, run id), kept
// in memory and written to DIR/spans-<workload>-<seed>.json at exit.
// See perfbench/README.md for the metrics.

#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/file_util.h"
#include "core/engine.h"
#include "core/hera.h"
#include "core/incremental.h"
#include "core/options.h"
#include "core/verifier.h"
#include "data/movie_generator.h"
#include "data/publication_generator.h"
#include "eval/metrics.h"
#include "index/bounds.h"
#include "index/value_pair_index.h"
#include "persist/checkpoint.h"
#include "persist/snapshot.h"
#include "record/super_record.h"
#include "sim/kernel_dispatch.h"
#include "sim/metrics.h"

namespace fs = std::filesystem;

namespace {

using Clock = std::chrono::steady_clock;

double Since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------- JSON

std::string Num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

/// Insertion-ordered JSON object writer.
class Obj {
 public:
  Obj& Raw(const std::string& key, const std::string& json) {
    fields_.emplace_back(key, json);
    return *this;
  }
  Obj& Add(const std::string& key, double v) { return Raw(key, Num(v)); }
  Obj& Str(const std::string& key, const std::string& v) {
    return Raw(key, Quote(v));
  }
  Obj& Bool(const std::string& key, bool v) {
    return Raw(key, v ? "true" : "false");
  }
  std::string Json() const {
    std::string out = "{";
    for (size_t i = 0; i < fields_.size(); ++i) {
      if (i > 0) out += ",";
      out += Quote(fields_[i].first) + ":" + fields_[i].second;
    }
    return out + "}";
  }

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

std::string Array(const std::vector<std::string>& items) {
  std::string out = "[";
  for (size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ",";
    out += items[i];
  }
  return out + "]";
}

// ------------------------------------------------------------- helpers

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// FNV-1a over the labels and the merge sequence: the output check.
std::string Digest(const std::vector<uint32_t>& labels,
                   const std::vector<std::pair<uint32_t, uint32_t>>& merges) {
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](uint32_t x) {
    for (int b = 0; b < 4; ++b) {
      h ^= (x >> (8 * b)) & 0xffu;
      h *= 1099511628211ull;
    }
  };
  mix(static_cast<uint32_t>(labels.size()));
  for (uint32_t l : labels) mix(l);
  mix(static_cast<uint32_t>(merges.size()));
  for (const auto& [i, j] : merges) {
    mix(i);
    mix(j);
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

/// Resident set size of this process in bytes (/proc/self/statm).
double RssBytes() {
  std::ifstream in("/proc/self/statm");
  long pages = 0, resident = 0;
  in >> pages >> resident;
  return static_cast<double>(resident) * static_cast<double>(sysconf(_SC_PAGESIZE));
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      size_t colon = line.find(':');
      if (colon != std::string::npos) {
        size_t start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

uint64_t DirBytes(const std::string& dir, const std::string& prefix) {
  uint64_t total = 0;
  std::error_code ec;
  for (const auto& e : fs::directory_iterator(dir, ec)) {
    if (e.path().filename().string().rfind(prefix, 0) == 0) {
      total += e.file_size(ec);
    }
  }
  return total;
}

std::string NewestFile(const std::string& dir, const std::string& prefix) {
  std::string best;
  std::error_code ec;
  for (const auto& e : fs::directory_iterator(dir, ec)) {
    const std::string name = e.path().filename().string();
    if (name.rfind(prefix, 0) == 0 && name.find(".tmp") == std::string::npos &&
        name > best) {
      best = name;
    }
  }
  return best.empty() ? "" : dir + "/" + best;
}

void Die(const std::string& msg) {
  std::fprintf(stderr, "hera_e2e_bench: %s\n", msg.c_str());
  std::exit(1);
}

// ------------------------------------------------------------ workloads

struct Workload {
  std::string name;
  bool stream = false;
  bool movies = true;
  size_t records = 0;
  size_t entities = 0;
  size_t threads = 1;
  size_t bulk = 0;        ///< Stream: records bulk-loaded during set-up.
  size_t batches = 0;     ///< Stream: closed-loop batches per round.
  size_t batch_size = 0;  ///< Stream: records per batch.
  double nominal_round_s = 0.0;  ///< Typical round time; sets rounds per run.
};

bool LookupWorkload(const std::string& name, Workload* w) {
  if (name == "movies-batch") {
    *w = {name, false, true, 2000, 150, 4, 0, 0, 0, 6.0};
  } else if (name == "pubs-batch") {
    *w = {name, false, false, 1500, 250, 1, 0, 0, 0, 8.0};
  } else if (name == "movies-stream") {
    *w = {name, true, true, 2000, 150, 1, 1500, 50, 10, 16.0};
  } else {
    return false;
  }
  return true;
}

hera::Dataset Generate(const Workload& w, uint64_t seed) {
  if (w.movies) {
    hera::MovieGeneratorConfig c;
    c.num_records = w.records;
    c.num_entities = w.entities;
    c.seed = seed;
    return hera::GenerateMovieDataset(c);
  }
  hera::PublicationGeneratorConfig c;
  c.num_records = w.records;
  c.num_entities = w.entities;
  c.seed = seed;
  return hera::GeneratePublicationDataset(c);
}

hera::HeraOptions BaseOptions(size_t threads) {
  hera::HeraOptions o;  // Default xi = delta = 0.5, jaccard_q2.
  o.num_threads = threads;
  return o;
}

/// One timed call: its wall time and output check inputs.
struct Call {
  double ms = 0.0;
  bool ok = false;
  std::string outcome;
  std::string digest;
  std::string error;
  std::string Json() const {
    return Obj()
        .Add("ms", ms)
        .Bool("ok", ok)
        .Str("outcome", outcome)
        .Str("digest", digest)
        .Str("error", error)
        .Json();
  }
};

// --------------------------------------------------------------- spans

/// In-memory span recorder for the traced run. Spans are recorded by
/// the benchmark around its own calls into each layer's public API.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start_s = 0.0;
    double end_s = 0.0;
    int parent = -1;
    int run = 0;
  };

  explicit Tracer(Clock::time_point origin) : origin_(origin) {}

  int Begin(const std::string& name, int run) {
    Span s;
    s.name = name;
    s.start_s = Since(origin_);
    s.parent = open_.empty() ? -1 : open_.back();
    s.run = run;
    spans_.push_back(s);
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }
  double End(int id) {
    spans_[id].end_s = Since(origin_);
    if (!open_.empty() && open_.back() == id) open_.pop_back();
    return spans_[id].end_s - spans_[id].start_s;
  }
  /// Times fn() as one span; returns its duration in seconds.
  double Time(const std::string& name, int run, const std::function<void()>& fn) {
    int id = Begin(name, run);
    fn();
    return End(id);
  }

  /// Ids of the spans named `name` that have no parent.
  std::vector<int> Roots(const std::string& name) const {
    std::vector<int> ids;
    for (size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].parent < 0 && spans_[i].name == name) ids.push_back(static_cast<int>(i));
    }
    return ids;
  }

  double Duration(int id) const { return spans_[id].end_s - spans_[id].start_s; }
  /// Span duration minus the time its direct children cover.
  double SelfTime(int id) const {
    double child = 0.0;
    for (const Span& s : spans_) {
      if (s.parent == id) child += s.end_s - s.start_s;
    }
    return Duration(id) - child;
  }
  /// Sum of self times of the spans named `name` under root span `root`
  /// (transitively).
  double LayerSelf(int root, const std::string& layer) const {
    double total = 0.0;
    for (size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].name.rfind(layer, 0) != 0) continue;
      for (int p = static_cast<int>(i); p >= 0; p = spans_[p].parent) {
        if (p == root) {
          total += SelfTime(static_cast<int>(i));
          break;
        }
      }
    }
    return total;
  }

  void Write(const std::string& path) const {
    std::vector<std::string> rows;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      rows.push_back(Obj()
                         .Add("id", static_cast<double>(i))
                         .Str("name", s.name)
                         .Add("start_s", s.start_s)
                         .Add("end_s", s.end_s)
                         .Add("parent", s.parent)
                         .Add("run", s.run)
                         .Json());
    }
    std::ofstream out(path);
    out << Array(rows) << "\n";
  }

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// ---------------------------------------------------------- batch calls

Call RunBatch(const hera::Dataset& ds, const hera::HeraOptions& opts,
              hera::HeraResult* out = nullptr) {
  Call c;
  auto t0 = Clock::now();
  auto result = hera::Hera(opts).Run(ds);
  c.ms = Since(t0) * 1e3;
  if (!result.ok()) {
    c.error = result.status().ToString();
    return c;
  }
  c.outcome = hera::RunOutcomeToString(result->stats.outcome);
  c.ok = result->stats.outcome == hera::RunOutcome::kCompleted;
  c.digest = Digest(result->entity_of, result->stats.merge_sequence);
  if (out != nullptr) *out = std::move(*result);
  return c;
}

// ------------------------------------------------------------- streams

struct StreamRound {
  double setup_s = 0.0;
  std::vector<Call> calls;
  std::vector<uint32_t> labels;
  double wal_bytes = 0.0;  ///< Sum over batches of WAL bytes on disk after it.
  bool restore_ok = false;
  double recover_ms = 0.0;
  std::string error;
};

/// One stream round: set-up (generate, bulk-load, first Resolve), then a
/// closed loop of `batches` x (AddRecord x batch_size, Resolve), then the
/// durability check. `ckpt_dir` empty disables checkpointing.
StreamRound RunStream(const Workload& w, uint64_t seed, const std::string& ckpt_dir,
                      Tracer* tracer = nullptr, int run = 0,
                      hera::Dataset* dataset_out = nullptr) {
  StreamRound r;
  auto t0 = Clock::now();
  hera::Dataset ds = Generate(w, seed);
  hera::HeraOptions o = BaseOptions(w.threads);
  if (!ckpt_dir.empty()) {
    fs::remove_all(ckpt_dir);
    fs::create_directories(ckpt_dir);
    o.checkpoint_dir = ckpt_dir;
  }
  auto created = hera::IncrementalHera::Create(o, ds.schemas());
  if (!created.ok()) Die("IncrementalHera::Create: " + created.status().ToString());
  std::unique_ptr<hera::IncrementalHera> inc = std::move(*created);
  const auto& recs = ds.records();
  for (size_t k = 0; k < w.bulk; ++k) {
    if (!inc->AddRecord(recs[k].schema_id(), recs[k].values()).ok()) {
      Die("bulk AddRecord failed");
    }
  }
  auto bulk = inc->Resolve();
  if (!bulk.ok()) Die("bulk Resolve: " + bulk.status().ToString());
  r.setup_s = Since(t0);

  size_t next = w.bulk;
  for (size_t b = 0; b < w.batches; ++b) {
    Call c;
    int span = tracer ? tracer->Begin("stream.batch", run) : -1;
    auto tb = Clock::now();
    bool added = true;
    {
      int add = tracer ? tracer->Begin("record.add", run) : -1;
      for (size_t k = 0; k < w.batch_size && next < recs.size(); ++k, ++next) {
        added = added && inc->AddRecord(recs[next].schema_id(), recs[next].values()).ok();
      }
      if (tracer) tracer->End(add);
    }
    int res = tracer ? tracer->Begin("core.resolve", run) : -1;
    auto resolved = inc->Resolve();
    if (tracer) tracer->End(res);
    c.ms = Since(tb) * 1e3;
    if (tracer) tracer->End(span);
    if (!added) {
      c.error = "AddRecord failed";
    } else if (!resolved.ok()) {
      c.error = resolved.status().ToString();
    } else {
      c.outcome = hera::RunOutcomeToString(inc->stats().outcome);
      c.ok = inc->stats().outcome == hera::RunOutcome::kCompleted;
      c.digest = Digest(inc->Labels(), inc->stats().merge_sequence);
    }
    if (!ckpt_dir.empty()) r.wal_bytes += static_cast<double>(DirBytes(ckpt_dir, "wal-"));
    r.calls.push_back(c);
  }
  r.labels = inc->Labels();
  inc.reset();

  if (!ckpt_dir.empty()) {
    int span = tracer ? tracer->Begin("persist.restore", run) : -1;
    auto tr = Clock::now();
    auto restored = hera::IncrementalHera::Restore(o, ds.schemas());
    r.recover_ms = Since(tr) * 1e3;
    if (tracer) tracer->End(span);
    if (!restored.ok()) {
      r.error = "Restore: " + restored.status().ToString();
    } else {
      r.restore_ok = (*restored)->Labels() == r.labels;
      if (!r.restore_ok) r.error = "restored labels differ";
    }
  }
  if (dataset_out != nullptr) *dataset_out = std::move(ds);
  return r;
}

// ------------------------------------------------------- environment

std::string EnvJson(const Workload& w, uint64_t seed) {
  auto env = [](const char* name) {
    const char* v = std::getenv(name);
    return std::string(v ? v : "");
  };
  return Obj()
      .Add("nproc", static_cast<double>(std::thread::hardware_concurrency()))
      .Str("cpu_model", CpuModel())
      .Str("build_type", HERA_BENCH_BUILD_TYPE)
      .Str("sanitize", HERA_BENCH_SANITIZE)
      .Str("kernel_dispatch",
           hera::KernelDispatchToString(hera::ActiveKernelDispatch()))
      .Str("HERA_FAILPOINTS", HERA_BENCH_FAILPOINTS)
      .Str("HERA_OBS", HERA_BENCH_OBS)
      .Str("HERA_KERNEL_DISPATCH_env", env("HERA_KERNEL_DISPATCH"))
      .Add("seed", static_cast<double>(seed))
      .Add("threads", static_cast<double>(w.threads))
      .Json();
}

bool SanitizerBuild() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return true;
#else
  const std::string s = HERA_BENCH_SANITIZE;
  return !(s.empty() || s == "OFF" || s == "0" || s == "FALSE" || s == "NO");
#endif
}

// ------------------------------------------------------ untraced run

/// Corpus seed of round k: round 0 resolves the seed's own corpus, later
/// rounds fresh corpora drawn from it, so one run averages over several
/// inputs of the workload's size instead of repeating one.
uint64_t CorpusSeed(uint64_t seed, size_t k) { return seed + 1000003ull * k; }

/// Rounds in a run of `seconds`: the run length over the workload's
/// nominal round time, so the inputs depend only on seed and seconds.
size_t Rounds(const Workload& w, double seconds) {
  if (seconds <= 0.0) return 1;
  return std::max<size_t>(1, static_cast<size_t>(std::lround(seconds / w.nominal_round_s)));
}

std::string MeasureE2e(const Workload& w, uint64_t seed, double seconds,
                       const std::string& workdir) {
  std::vector<std::string> rounds;
  for (size_t k = 0; k < Rounds(w, seconds); ++k) {
    // Return the previous round's freed heap to the system, so the
    // process peak is the largest single round's, not an artifact of
    // how one round's free memory fragments under the next.
    malloc_trim(0);
    const uint64_t cs = CorpusSeed(seed, k);
    Obj round;
    round.Add("corpus_seed", static_cast<double>(cs));
    std::vector<std::string> calls;
    if (!w.stream) {
      auto t0 = Clock::now();
      hera::Dataset ds = Generate(w, cs);
      round.Add("setup_s", Since(t0));
      hera::HeraResult res;
      Call c = RunBatch(ds, BaseOptions(w.threads), &res);
      calls.push_back(c.Json());
      round.Add("f1", c.ok ? hera::EvaluatePairs(res.entity_of, ds.entity_of()).f1 : 0.0);
      round.Add("records", static_cast<double>(ds.size()));
    } else {
      const std::string dir = workdir + "/ckpt-" + w.name + "-" + std::to_string(k);
      hera::Dataset ds;
      StreamRound r = RunStream(w, cs, dir, nullptr, 0, &ds);
      fs::remove_all(dir);
      for (const Call& c : r.calls) calls.push_back(c.Json());
      round.Add("setup_s", r.setup_s)
          .Add("f1", hera::EvaluatePairs(r.labels, ds.entity_of()).f1)
          .Add("records", static_cast<double>(w.batches * w.batch_size))
          .Raw("restore", Obj()
                              .Bool("ok", r.restore_ok)
                              .Add("ms", r.recover_ms)
                              .Str("error", r.error)
                              .Json());
    }
    round.Raw("calls", Array(calls));
    rounds.push_back(round.Json());
  }
  return Obj().Str("workload", w.name).Raw("rounds", Array(rounds)).Json();
}

// -------------------------------------------------------- layer probes

/// Layer metrics for one corpus: everything timed from outside through
/// the public functions of simjoin, index, core, record, matching,
/// schema and persist. Fills `m` (metric name -> value).
struct LayerRun {
  Tracer* tracer;
  std::map<std::string, double>* m;
  int next_run = 1;

  /// One resolve split at the layer boundaries: ComputeSimilarValuePairs
  /// (simjoin), then ResolutionEngine::IndexPrecomputed (index),
  /// IterateToFixpoint and the engine's destruction (core), under one
  /// root span. Hera::Run destroys its engine before it returns, so the
  /// teardown belongs to the call. Exporting the state is benchmark
  /// work; only the call that is not used for attribution asks for it.
  struct Decomposed {
    int root = -1;
    double join_s = 0.0;
    double fixpoint_s = 0.0;
    double teardown_s = 0.0;
    std::string digest;
  };
  Decomposed DecomposedCall(const hera::Dataset& ds, size_t threads,
                            hera::persist::EngineState* state_out = nullptr,
                            std::vector<hera::ValuePair>* pairs_out = nullptr) {
    const int run = next_run++;
    hera::HeraOptions opts = BaseOptions(threads);
    Decomposed d;
    d.root = tracer->Begin("call", run);
    std::vector<hera::ValuePair> pairs;
    d.join_s = tracer->Time("simjoin.join", run, [&] {
      auto p = hera::ComputeSimilarValuePairs(ds, opts);
      if (!p.ok()) Die("ComputeSimilarValuePairs: " + p.status().ToString());
      pairs = std::move(*p);
    });
    int core = tracer->Begin("core.fixpoint", run);
    auto engine =
        std::make_unique<hera::ResolutionEngine>(opts, hera::MakeSimilarity(opts.metric));
    engine->AddRecords(ds.records());
    engine->ArmGuard();
    tracer->Time("index.load", run, [&] {
      if (!engine->IndexPrecomputed(pairs).ok()) Die("IndexPrecomputed failed");
    });
    if (!engine->IterateToFixpoint().ok()) Die("IterateToFixpoint failed");
    d.fixpoint_s = tracer->End(core);
    if (engine->stats().outcome != hera::RunOutcome::kCompleted) {
      Die("decomposed call did not complete");
    }
    d.digest = Digest(engine->Labels(), engine->stats().merge_sequence);
    if (state_out != nullptr) *state_out = engine->ExportState();
    d.teardown_s = tracer->Time("core.teardown", run, [&] { engine.reset(); });
    tracer->End(d.root);
    if (pairs_out != nullptr) *pairs_out = std::move(pairs);
    return d;
  }

  /// Index, bounds, verification and merge-replay probes on a built
  /// corpus: every group of the index built from `pairs`.
  void IndexProbes(const hera::Dataset& ds, const std::vector<hera::ValuePair>& pairs,
                   const std::vector<std::pair<uint32_t, uint32_t>>& merge_sequence) {
    const int run = next_run++;
    const double delta = BaseOptions(1).delta;
    std::vector<size_t> nfields(ds.size());
    std::map<uint32_t, hera::SuperRecord> srs;
    for (const hera::Record& r : ds.records()) {
      srs[r.id()] = hera::SuperRecord::FromRecord(r);
      nfields[r.id()] = srs[r.id()].num_fields();
    }

    // Build, with the resident-set change across it.
    malloc_trim(0);
    const double rss0 = RssBytes();
    auto idx = std::make_unique<hera::ValuePairIndex>();
    (*m)["index.build_s"] = tracer->Time("index.build", run, [&] { idx->Build(pairs); });
    const double rss1 = RssBytes();
    (*m)["index.pairs"] = static_cast<double>(idx->size());
    (*m)["index.bytes_per_pair"] =
        idx->size() > 0 ? (rss1 - rss0) / static_cast<double>(idx->size()) : 0.0;

    // One enumeration pass.
    std::vector<std::pair<uint32_t, uint32_t>> groups;
    const double enum_s = tracer->Time("index.enumerate", run, [&] {
      idx->ForEachGroup([&](uint32_t a, uint32_t b, const std::vector<hera::IndexedPair>&) {
        groups.emplace_back(a, b);
      });
    });
    (*m)["index.enumerate_ms"] = enum_s * 1e3;
    (*m)["index.groups"] = static_cast<double>(groups.size());

    // PairsFor and ComputeBounds on every group; Verify where the
    // bounds do not settle the group.
    std::vector<std::vector<hera::IndexedPair>> group_pairs(groups.size());
    const double pf_s = tracer->Time("index.pairs_for", run, [&] {
      for (size_t g = 0; g < groups.size(); ++g) {
        group_pairs[g] = idx->PairsFor(groups[g].first, groups[g].second);
      }
    });
    (*m)["index.pairs_for_us"] =
        groups.empty() ? 0.0 : pf_s * 1e6 / static_cast<double>(groups.size());
    std::vector<size_t> unsettled;
    const double bounds_s = tracer->Time("index.bounds", run, [&] {
      for (size_t g = 0; g < groups.size(); ++g) {
        hera::BoundResult b = hera::ComputeBounds(
            group_pairs[g], nfields[groups[g].first], nfields[groups[g].second]);
        if (b.upper >= delta && b.upper != b.lower) unsettled.push_back(g);
      }
    });
    (*m)["index.bounds_ms"] = bounds_s * 1e3;
    size_t km_calls = 0;
    hera::InstanceBasedVerifier verifier(nullptr);
    const double verify_s = tracer->Time("core.verify", run, [&] {
      for (size_t g : unsettled) {
        hera::VerifyResult vr = verifier.Verify(srs[groups[g].first],
                                                srs[groups[g].second], group_pairs[g]);
        if (vr.km_size > 0) ++km_calls;
      }
    });
    (*m)["core.verify_ms"] = verify_s * 1e3;
    (*m)["core.verifications"] = static_cast<double>(unsettled.size());
    (*m)["matching.km_calls"] = static_cast<double>(km_calls);
    group_pairs.clear();
    group_pairs.shrink_to_fit();

    // Replay of the run's merge sequence on a freshly built index.
    idx = std::make_unique<hera::ValuePairIndex>();
    idx->Build(pairs);
    double merge_s = 0.0, apply_s = 0.0;
    int replay = tracer->Begin("index.replay", run);
    for (const auto& [i, j] : merge_sequence) {
      std::vector<hera::IndexedPair> p = idx->PairsFor(i, j);
      hera::VerifyResult vr = verifier.Verify(srs[i], srs[j], p);
      std::vector<std::pair<hera::ValueLabel, hera::ValueLabel>> remap;
      hera::SuperRecord merged;
      merge_s += tracer->Time("record.merge", run, [&] {
        merged = hera::SuperRecord::Merge(srs[i], srs[j], vr.matching, i, &remap);
      });
      apply_s += tracer->Time("index.apply_merge", run,
                              [&] { idx->ApplyMerge(i, j, i, remap); });
      srs.erase(j);
      srs[i] = std::move(merged);
    }
    tracer->End(replay);
    const double merges = static_cast<double>(merge_sequence.size());
    (*m)["index.apply_merge_s"] = apply_s;
    (*m)["index.apply_merge_us_per_merge"] = merges > 0 ? apply_s * 1e6 / merges : 0.0;
    (*m)["record.merge_us"] = merges > 0 ? merge_s * 1e6 / merges : 0.0;
    (*m)["index.replay_final_pairs"] = static_cast<double>(idx->size());
  }

  /// Counts from the library's own RunReport (one collect_report run).
  void ReportCounts(const hera::Dataset& ds, size_t threads) {
    const int run = next_run++;
    hera::HeraOptions opts = BaseOptions(threads);
    opts.collect_report = true;
    hera::HeraResult res;
    tracer->Time("report.run", run, [&] {
      auto r = hera::Hera(opts).Run(ds);
      if (!r.ok()) Die("report run: " + r.status().ToString());
      res = std::move(*r);
    });
    double groups = 0, pruned = 0;
    for (const auto& row : res.report.iterations) {
      groups += static_cast<double>(row.groups);
      pruned += static_cast<double>(row.pruned);
    }
    auto counter = [&](const std::string& name) {
      auto it = res.report.counters.find(name);
      return it == res.report.counters.end() ? 0.0 : static_cast<double>(it->second);
    };
    (*m)["core.passes"] = static_cast<double>(res.stats.iterations);
    (*m)["core.groups_enumerated"] = groups;
    (*m)["core.groups_pruned"] = pruned;
    (*m)["simjoin.candidates"] = counter("simjoin.candidates");
    (*m)["simjoin.emitted"] = counter("simjoin.emitted");
    (*m)["simjoin.candidates_per_emitted"] =
        counter("simjoin.emitted") > 0
            ? counter("simjoin.candidates") / counter("simjoin.emitted")
            : 0.0;
    (*m)["schema.decided_matchings"] =
        static_cast<double>(res.stats.decided_schema_matchings);
  }

  /// Snapshot write and recovery of an engine state in `dir`.
  void PersistProbes(const hera::persist::EngineState& state, const std::string& dir,
                     hera::persist::RunKind kind) {
    const int run = next_run++;
    fs::remove_all(dir);
    fs::create_directories(dir);
    hera::persist::CheckpointManager::Config cfg;
    cfg.dir = dir;
    cfg.kind = kind;
    // The fingerprints only guard recovery, which this probe never does.
    cfg.options_fp = 1;
    cfg.corpus_fp = 1;
    (*m)["persist.snapshot_write_ms"] =
        1e3 * tracer->Time("persist.snapshot_write", run, [&] {
          auto mgr = hera::persist::CheckpointManager::Open(cfg, nullptr);
          if (!mgr.ok() || !(*mgr)->WriteSnapshot(state).ok()) {
            Die("CheckpointManager::WriteSnapshot failed");
          }
        });
    (*m)["persist.snapshot_bytes"] =
        static_cast<double>(DirBytes(dir, "snapshot-"));
    fs::remove_all(dir);
  }
};

std::string MeasureLayers(const Workload& w, uint64_t seed,
                          const std::string& workdir) {
  Tracer tracer(Clock::now());
  std::map<std::string, double> m;
  LayerRun lr{&tracer, &m};

  hera::Dataset ds;
  std::vector<double> gen_s;
  for (int k = 0; k < 3; ++k) {
    gen_s.push_back(tracer.Time("data.generate", 0, [&] { ds = Generate(w, seed); }));
  }
  m["data.generate_s"] = Median(gen_s);

  // Traced calls at the workload's thread count, beside untraced
  // references for the coverage and overhead figures. For the batch
  // workloads the two kinds alternate and each figure is the median of
  // the per-pair values, so drift in machine speed cancels within a
  // pair. The stream runs a round with checkpoints, one without (the
  // checkpoint share) and a traced one.
  std::vector<std::string> digests;
  std::vector<LayerRun::Decomposed> traced;
  hera::persist::EngineState state, persist_state;
  if (!w.stream) {
    std::vector<double> untraced, s_join, s_index, s_core, coverage, unattributed,
        overhead;
    for (int k = 0; k < 3; ++k) {
      Call c = RunBatch(ds, BaseOptions(w.threads));
      if (!c.ok) Die("untraced reference call failed: " + c.error);
      digests.push_back(c.digest);
      traced.push_back(lr.DecomposedCall(ds, w.threads));
      const LayerRun::Decomposed& d = traced.back();
      digests.push_back(d.digest);
      s_join.push_back(tracer.LayerSelf(d.root, "simjoin.") * 1e3);
      s_index.push_back(tracer.LayerSelf(d.root, "index.") * 1e3);
      s_core.push_back(tracer.LayerSelf(d.root, "core.") * 1e3);
      const double covered = s_join.back() + s_index.back() + s_core.back();
      untraced.push_back(c.ms);
      coverage.push_back(covered / c.ms);
      unattributed.push_back(c.ms - covered);
      overhead.push_back(tracer.Duration(d.root) * 1e3 - c.ms);
    }
    m["self.simjoin_ms"] = Median(s_join);
    m["self.index_ms"] = Median(s_index);
    m["self.core_ms"] = Median(s_core);
    m["self.record_ms"] = 0.0;
    m["trace.untraced_p50_ms"] = Median(untraced);
    m["trace.coverage"] = Median(coverage);
    m["trace.unattributed_ms"] = Median(unattributed);
    m["trace.overhead_ms"] = Median(overhead);
    m["persist.checkpoint_share"] = 0.0;
    m["persist.wal_bytes_per_batch"] = 0.0;
    m["persist.recover_ms"] = 0.0;
  } else {
    const std::string dir = workdir + "/ckpt-trace-" + w.name;
    StreamRound plain = RunStream(w, seed, dir);
    // The persist probes rewrite the stream's newest snapshot.
    const std::string snap = NewestFile(dir, "snapshot-");
    auto bytes = hera::ReadFileToString(snap);
    if (!bytes.ok()) Die("no snapshot in " + dir);
    auto decoded = hera::persist::DecodeSnapshot(*bytes);
    if (!decoded.ok()) Die("DecodeSnapshot: " + decoded.status().ToString());
    persist_state = std::move(decoded->state);
    StreamRound nockpt = RunStream(w, seed, "");
    StreamRound tr = RunStream(w, seed, dir, &tracer, lr.next_run++);
    fs::remove_all(dir);
    std::vector<double> a, b, t;
    for (const Call& c : plain.calls) a.push_back(c.ms);
    for (const Call& c : nockpt.calls) b.push_back(c.ms);
    for (const Call& c : tr.calls) t.push_back(c.ms);
    for (const StreamRound* r : {&plain, &nockpt, &tr}) {
      for (const Call& c : r->calls) {
        if (!c.ok) Die("stream call failed: " + c.error);
      }
      digests.push_back(r->calls.back().digest);
    }
    if (!plain.restore_ok || !tr.restore_ok) Die("stream restore check failed");
    const double untraced_ms = Median(a);
    // Per batch: record.add and core.resolve under stream.batch.
    std::vector<double> add, resolve;
    for (int id : tracer.Roots("stream.batch")) {
      add.push_back(tracer.LayerSelf(id, "record.") * 1e3);
      resolve.push_back(tracer.LayerSelf(id, "core.") * 1e3);
    }
    const double covered = Median(add) + Median(resolve);
    m["self.simjoin_ms"] = 0.0;
    m["self.index_ms"] = 0.0;
    m["self.record_ms"] = Median(add);
    m["self.core_ms"] = Median(resolve);
    m["trace.untraced_p50_ms"] = untraced_ms;
    m["trace.coverage"] = covered / untraced_ms;
    m["trace.unattributed_ms"] = untraced_ms - covered;
    m["trace.overhead_ms"] = Median(t) - untraced_ms;
    m["persist.checkpoint_share"] = (Median(a) - Median(b)) / Median(a);
    m["persist.wal_bytes_per_batch"] = plain.wal_bytes / static_cast<double>(w.batches);
    m["persist.recover_ms"] = plain.recover_ms;
    traced.push_back(lr.DecomposedCall(ds, w.threads));
  }

  // The same split at the other thread count (1 vs 4) for the scaling
  // figures; its final state and pairs feed the index and persist probes.
  std::vector<hera::ValuePair> pairs;
  const LayerRun::Decomposed other =
      lr.DecomposedCall(ds, w.threads > 1 ? 1 : 4, &state, &pairs);
  const std::string digest = traced.back().digest;
  if (other.digest != digest) Die("thread count changed the labels");
  std::vector<double> join_s, fix_s, teardown_s;
  for (const LayerRun::Decomposed& d : traced) {
    join_s.push_back(d.join_s);
    fix_s.push_back(d.fixpoint_s);
    teardown_s.push_back(d.teardown_s);
  }
  m["core.teardown_ms"] = Median(teardown_s) * 1e3;
  const double join_w = Median(join_s), fix_w = Median(fix_s);
  m["simjoin.join_s"] = join_w;
  m["simjoin.speedup_4t"] = w.threads > 1 ? other.join_s / join_w : join_w / other.join_s;
  m["core.fixpoint_s"] = fix_w;
  m["core.fixpoint_speedup_4t"] =
      w.threads > 1 ? other.fixpoint_s / fix_w : fix_w / other.fixpoint_s;
  m["index.run_final_pairs"] = static_cast<double>(state.index_pairs.size());

  lr.ReportCounts(ds, w.threads);
  m["simjoin.ns_per_candidate"] =
      m["simjoin.candidates"] > 0 ? join_w * 1e9 / m["simjoin.candidates"] : 0.0;
  lr.IndexProbes(ds, pairs, state.stats.merge_sequence);
  lr.PersistProbes(w.stream ? persist_state : state, workdir + "/persist-probe-" + w.name,
                   w.stream ? hera::persist::RunKind::kIncremental
                            : hera::persist::RunKind::kBatch);
  tracer.Write(workdir + "/spans-" + w.name + "-" + std::to_string(seed) + ".json");
  Obj metrics;
  for (const auto& [k, v] : m) metrics.Add(k, v);
  std::vector<std::string> dq;
  for (const std::string& d : digests) dq.push_back(Quote(d));
  return Obj()
      .Str("workload", w.name)
      .Raw("layers", metrics.Json())
      .Raw("digests", Array(dq))
      .Str("decomposed_digest", digest)
      .Json();
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, workdir = ".";
  uint64_t seed = 7;
  double seconds = 10;
  int trace = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") {
      workload = v;
    } else if (k == "--seed") {
      seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      seconds = std::strtod(v.c_str(), nullptr);
    } else if (k == "--trace") {
      trace = std::atoi(v.c_str());
    } else if (k == "--workdir") {
      workdir = v;
    } else {
      Die("unknown flag " + k);
    }
  }
  Workload w;
  if (!LookupWorkload(workload, &w)) Die("unknown workload '" + workload + "'");
  if (SanitizerBuild()) Die("refusing to report numbers from a sanitizer build");
  fs::create_directories(workdir);
  const std::string body = trace ? MeasureLayers(w, seed, workdir)
                                 : MeasureE2e(w, seed, seconds, workdir);
  std::printf("{\"env\":%s,\"result\":%s}\n", EnvJson(w, seed).c_str(), body.c_str());
  return 0;
}

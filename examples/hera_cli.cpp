// hera_cli: run HERA over a dataset file from the command line.
//
//   hera_cli resolve <input.hera> [--xi X] [--delta D] [--metric NAME]
//                    [--threads N]
//                    [--out labels.csv] [--quiet]
//                    [--emit-report report.json] [--log-level LEVEL]
//                    [--trace-out trace.json] [--timeline-csv FILE]
//                    [--timeline-interval-ms MS]
//                    [--checkpoint-dir DIR] [--checkpoint-every K]
//                    [--resume] [--deadline-ms MS]
//                    [--max-verifications N]
//   hera_cli generate <movies|publications|ambiguous> <output.hera>
//                    [--records N] [--entities E] [--seed S] [--decoys D]
//   hera_cli stats <input.hera>
//
// Every command refuses an unknown flag, a flag without its value, and
// a number that does not parse or is out of range (HERA_THREADS
// included), with exit code 64 before any input is read.
//
// `resolve` prints (or writes) one "record_id,entity_label" line per
// record plus run statistics; when the input carries ground truth it
// also reports precision/recall/F1. --emit-report turns on metric
// collection and writes the machine-readable run report (JSON; see
// docs/observability.md). --trace-out writes the run as a Chrome-trace
// JSON file (open at ui.perfetto.dev or chrome://tracing); it and
// --timeline-csv imply report collection and, unless overridden by
// --timeline-interval-ms, a 50 ms timeline sampler. Profiling is
// observation-only: labels and merge order are byte-identical with it
// on or off. --log-level (debug|info|warning|error|off)
// overrides the HERA_LOG_LEVEL environment variable. --threads (or the
// HERA_THREADS environment variable; the flag wins) sets
// HeraOptions::num_threads — results are identical at any setting (see
// docs/performance.md); the run report records the value used.
// The HERA_KERNEL_DISPATCH environment variable ("auto", "avx2" or
// "scalar") pins the kernel tier, which otherwise follows CPUID; an
// unknown value is a usage error. Labels and merge order are
// byte-identical at every tier (see docs/performance.md, "SIMD kernel
// tier").
//
// Durability: --checkpoint-dir makes the run resumable after a kill or
// a --deadline-ms truncation (snapshots + WAL, docs/file_format.md);
// --resume continues from the directory's newest checkpoint (falling
// back to a fresh run when it holds none).
//
// Verification budget: --max-verifications N caps total verifier
// invocations and verifies each pass's candidate groups best-first
// (highest similarity upper bound first), so the cut sheds the least
// promising work (see docs/operational_limits.md, "Verification
// budget"). SIGINT/SIGTERM are converted into cooperative
// cancellation: the run stops at its next safe point, checkpoints, and
// exits 2 with a resume hint.
//
// Exit codes: 0 the run completed; 2 the run ended governed (degraded,
// iteration cap, budget spent, or truncated — the labeling is valid
// and, with a checkpoint directory, resumable); 3 error (unreadable
// input, corrupt checkpoint, write failure); 64 usage error.

#include <cerrno>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <map>
#include <string>
#include <type_traits>
#include <vector>

#include "common/file_util.h"
#include "common/logging.h"
#include "core/hera.h"
#include "data/ambiguity_generator.h"
#include "data/csv.h"
#include "data/profile.h"
#include "data/movie_generator.h"
#include "data/publication_generator.h"
#include "eval/cluster_metrics.h"
#include "eval/metrics.h"
#include "obs/perfetto.h"
#include "sim/kernel_dispatch.h"
#include "sim/metrics.h"

using namespace hera;

namespace {

int Usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  hera_cli resolve <input.hera> [--xi X] [--delta D] [--metric NAME]\n"
      "                   [--threads N]\n"
      "                   [--out labels.csv] [--quiet]\n"
      "                   [--emit-report report.json] [--log-level LEVEL]\n"
      "                   [--trace-out trace.json] [--timeline-csv FILE]\n"
      "                   [--timeline-interval-ms MS]\n"
      "                   [--checkpoint-dir DIR] [--checkpoint-every K]\n"
      "                   [--resume] [--deadline-ms MS]\n"
      "                   [--max-verifications N]\n"
      "  hera_cli generate <movies|publications|ambiguous> <output.hera>\n"
      "                   [--records N] [--entities E] [--seed S]\n"
      "                   [--decoys D]   (ambiguous only; --records unused)\n"
      "  hera_cli stats <input.hera>\n");
  return 64;
}

/// Signal-to-cancellation bridge: SIGINT/SIGTERM request RunGuard
/// cancellation, so the run stops at its next safe point, writes its
/// checkpoint (when --checkpoint-dir is set), and exits 2 with a
/// resume hint instead of dying mid-write. RequestCancel is one
/// relaxed atomic store — async-signal-safe.
CancellationToken g_signal_cancel = CancellationToken::Make();

extern "C" void HandleStopSignal(int /*sig*/) {
  g_signal_cancel.RequestCancel();
}

/// One command's arguments: positionals in order, and each given flag
/// with its value ("" for a bare switch; a later repeat overrides an
/// earlier one).
struct Args {
  std::vector<std::string> positional;
  std::map<std::string, std::string> flags;

  const char* Value(const char* flag) const {
    auto it = flags.find(flag);
    return it == flags.end() ? nullptr : it->second.c_str();
  }
  bool Has(const char* flag) const { return flags.count(flag) > 0; }
};

/// Splits `argv` into `out` against the command's flags. --log-level is
/// accepted by every command and applied here. Prints why and returns
/// false on an unknown flag, a flag without its value, a bad log level,
/// or a positional count other than `positionals`.
bool ParseArgs(int argc, char** argv, const char* cmd, size_t positionals,
               std::initializer_list<const char*> valued,
               std::initializer_list<const char*> bare, Args* out) {
  auto listed = [](std::initializer_list<const char*> flags, const char* arg) {
    for (const char* f : flags) {
      if (std::strcmp(f, arg) == 0) return true;
    }
    return false;
  };
  for (int i = 0; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--", 2) != 0) {
      out->positional.push_back(arg);
    } else if (listed(bare, arg)) {
      out->flags[arg] = "";
    } else if (listed(valued, arg) || std::strcmp(arg, "--log-level") == 0) {
      if (i + 1 == argc || std::strncmp(argv[i + 1], "--", 2) == 0) {
        std::fprintf(stderr, "hera_cli %s: %s needs a value\n", cmd, arg);
        return false;
      }
      out->flags[arg] = argv[++i];
    } else {
      std::fprintf(stderr, "hera_cli %s: unknown flag %s\n", cmd, arg);
      return false;
    }
  }
  if (out->positional.size() != positionals) {
    std::fprintf(stderr, "hera_cli %s: want %zu non-flag arguments, got %zu\n",
                 cmd, positionals, out->positional.size());
    return false;
  }
  if (const char* v = out->Value("--log-level")) {
    LogLevel level;
    if (!ParseLogLevel(v, &level)) {
      std::fprintf(stderr,
                   "unknown --log-level %s (want debug|info|warning|error|off)\n",
                   v);
      return false;
    }
    SetLogLevel(level);
  }
  return true;
}

/// Parses all of `text` as a finite number (T floating point) or a
/// non-negative decimal integer (T a 64-bit unsigned type). Prints why
/// and returns false otherwise ("abc", "4x", "-1", "nan", overflow).
template <typename T>
bool ParseNumber(const char* name, const char* text, T* out) {
  errno = 0;
  char* end = nullptr;
  bool ok;
  if constexpr (std::is_floating_point_v<T>) {
    const double v = std::strtod(text, &end);
    ok = end != text && std::isfinite(v);
    *out = static_cast<T>(v);
  } else {
    const unsigned long long v = std::strtoull(text, &end, 10);
    static_assert(sizeof(T) == sizeof(v), "64-bit unsigned target");
    ok = text[0] >= '0' && text[0] <= '9';
    *out = static_cast<T>(v);
  }
  if (!ok || *end != '\0' || errno == ERANGE) {
    std::fprintf(stderr, "invalid value '%s' for %s (want a %s)\n", text, name,
                 std::is_floating_point_v<T> ? "finite number"
                                             : "non-negative integer");
    return false;
  }
  return true;
}

/// Parses the flag's value into `out` when the flag was given.
template <typename T>
bool ParseFlag(const Args& args, const char* flag, T* out) {
  const char* v = args.Value(flag);
  return v == nullptr || ParseNumber(flag, v, out);
}

int CmdResolve(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, "resolve", 1,
                 {"--xi", "--delta", "--metric", "--threads",
                  "--out", "--emit-report", "--trace-out",
                  "--timeline-csv", "--timeline-interval-ms",
                  "--checkpoint-dir", "--checkpoint-every", "--deadline-ms",
                  "--max-verifications"},
                 {"--quiet", "--resume"}, &args)) {
    return Usage();
  }
  HeraOptions opts;
  if (const char* v = args.Value("--metric")) opts.metric = v;
  if (const char* v = args.Value("--checkpoint-dir")) opts.checkpoint_dir = v;
  const char* env_threads = std::getenv("HERA_THREADS");
  double deadline_ms = -1.0;  // Negative: no deadline.
  size_t max_verifications = 0;
  if (!ParseFlag(args, "--xi", &opts.xi) ||
      !ParseFlag(args, "--delta", &opts.delta) ||
      (env_threads != nullptr &&
       !ParseNumber("HERA_THREADS", env_threads, &opts.num_threads)) ||
      !ParseFlag(args, "--threads", &opts.num_threads) ||
      !ParseFlag(args, "--checkpoint-every", &opts.checkpoint_every) ||
      !ParseFlag(args, "--deadline-ms", &deadline_ms) ||
      !ParseFlag(args, "--max-verifications", &max_verifications)) {
    return Usage();
  }
  if (args.Value("--deadline-ms") != nullptr && deadline_ms < 0.0) {
    std::fprintf(stderr, "invalid value '%s' for --deadline-ms (want >= 0)\n",
                 args.Value("--deadline-ms"));
    return Usage();
  }
  opts.guard.WithTimeoutMs(deadline_ms);
  opts.guard.WithMaxVerifications(max_verifications);
  // The library reads HERA_KERNEL_DISPATCH itself and would take a typo
  // as auto; refuse it here, like HERA_THREADS.
  const char* dispatch_env = std::getenv("HERA_KERNEL_DISPATCH");
  KernelDispatch tier;
  if (dispatch_env != nullptr &&
      !KernelDispatchFromString(dispatch_env, &tier)) {
    std::fprintf(stderr,
                 "invalid value '%s' for HERA_KERNEL_DISPATCH (want "
                 "auto|avx2|scalar)\n",
                 dispatch_env);
    return Usage();
  }
  const bool quiet = args.Has("--quiet");
  if (max_verifications > 0 && !quiet) {
    opts.guard.WithBudgetObserver([] {
      std::fprintf(stderr,
                   "verification budget spent: deferring the pass's "
                   "unverified candidate groups\n");
    });
  }
  // An operator Ctrl-C (or a supervisor's SIGTERM) becomes cooperative
  // cancellation: the run ends governed at the next safe point with a
  // valid labeling, a final checkpoint, and exit code 2.
  opts.guard.WithCancellation(g_signal_cancel);
  std::signal(SIGINT, HandleStopSignal);
  std::signal(SIGTERM, HandleStopSignal);
  const bool resume = args.Has("--resume");
  if (resume && opts.checkpoint_dir.empty()) {
    std::fprintf(stderr, "--resume requires --checkpoint-dir\n");
    return Usage();
  }
  const char* report_path = args.Value("--emit-report");
  const char* trace_path = args.Value("--trace-out");
  const char* timeline_csv_path = args.Value("--timeline-csv");
  opts.collect_report =
      report_path != nullptr || trace_path != nullptr ||
      timeline_csv_path != nullptr;
  // Trace/timeline output wants sampled counter tracks, so those flags
  // turn the sampler on at its 50 ms default unless the user sets an
  // explicit interval (0 disables the sampler but keeps span tracing).
  if (trace_path != nullptr || timeline_csv_path != nullptr) {
    opts.timeline_interval_ms = 50;
  }
  if (!ParseFlag(args, "--timeline-interval-ms", &opts.timeline_interval_ms)) {
    return Usage();
  }
  if (Status st = ValidateOptions(opts); !st.ok()) {
    std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
    return Usage();
  }
  if (!MakeSimilarity(opts.metric)) {
    std::fprintf(stderr, "unknown metric %s\n", opts.metric.c_str());
    return Usage();
  }

  const char* input_path = args.positional[0].c_str();
  auto ds = ReadDataset(input_path);
  if (!ds.ok()) {
    std::fprintf(stderr, "error reading %s: %s\n", input_path,
                 ds.status().ToString().c_str());
    return 3;
  }

  StatusOr<HeraResult> result =
      resume ? Hera(opts).Resume(*ds) : Hera(opts).Run(*ds);
  if (resume && !result.ok() &&
      result.status().code() == StatusCode::kNotFound) {
    std::fprintf(stderr, "no checkpoint in %s; starting a fresh run\n",
                 opts.checkpoint_dir.c_str());
    result = Hera(opts).Run(*ds);
  }
  if (!result.ok()) {
    std::fprintf(stderr, "error: %s\n", result.status().ToString().c_str());
    return 3;
  }

  const char* out_path = args.Value("--out");
  if (out_path != nullptr) {
    std::string csv = "record_id,entity_label\n";
    for (uint32_t r = 0; r < ds->size(); ++r) {
      csv += std::to_string(r) + "," + std::to_string(result->entity_of[r]) +
             "\n";
    }
    Status wst = AtomicWriteFile(out_path, csv);
    if (!wst.ok()) {
      std::fprintf(stderr, "cannot write %s: %s\n", out_path,
                   wst.ToString().c_str());
      return 3;
    }
  } else if (!quiet) {
    std::printf("record_id,entity_label\n");
    for (uint32_t r = 0; r < ds->size(); ++r) {
      std::printf("%u,%u\n", r, result->entity_of[r]);
    }
  }

  const HeraStats& st = result->stats;
  std::fprintf(stderr,
               "records=%zu entities=%zu index=%zu iterations=%zu "
               "comparisons=%zu direct=%zu merges=%zu time=%.1fms\n",
               ds->size(), result->super_records.size(), st.index_size,
               st.iterations, st.comparisons, st.direct_merges, st.merges,
               st.total_ms);
  int exit_code = 0;
  if (st.outcome != RunOutcome::kCompleted) {
    std::fprintf(stderr, "outcome=%s (run was governed; labeling is valid)\n",
                 RunOutcomeToString(st.outcome));
    if (!opts.checkpoint_dir.empty()) {
      std::fprintf(stderr,
                   "resume hint: rerun with --checkpoint-dir %s --resume to "
                   "continue this run\n",
                   opts.checkpoint_dir.c_str());
    }
    exit_code = 2;
  }
  if (report_path != nullptr) {
    Status wst = AtomicWriteFile(report_path, result->report.ToJson() + "\n");
    if (!wst.ok()) {
      std::fprintf(stderr, "cannot write %s: %s\n", report_path,
                   wst.ToString().c_str());
      return 3;
    }
    if (!quiet) {
      std::fprintf(stderr, "%s", result->report.ToString().c_str());
      std::fprintf(stderr, "report written to %s\n", report_path);
    }
  }
  if (trace_path != nullptr) {
    Status wst = AtomicWriteFile(trace_path,
                                 obs::ExportChromeTrace(result->report));
    if (!wst.ok()) {
      std::fprintf(stderr, "cannot write %s: %s\n", trace_path,
                   wst.ToString().c_str());
      return 3;
    }
    if (!quiet) {
      std::fprintf(stderr,
                   "trace written to %s (open at ui.perfetto.dev)\n",
                   trace_path);
    }
  }
  if (timeline_csv_path != nullptr) {
    Status wst = AtomicWriteFile(timeline_csv_path,
                                 result->report.TimelineCsv());
    if (!wst.ok()) {
      std::fprintf(stderr, "cannot write %s: %s\n", timeline_csv_path,
                   wst.ToString().c_str());
      return 3;
    }
    if (!quiet) {
      std::fprintf(stderr, "timeline written to %s\n", timeline_csv_path);
    }
  }
  if (ds->has_ground_truth()) {
    PairMetrics m = EvaluatePairs(result->entity_of, ds->entity_of());
    std::fprintf(stderr, "precision=%.3f recall=%.3f F1=%.3f ARI=%.3f\n",
                 m.precision, m.recall, m.f1,
                 AdjustedRandIndex(result->entity_of, ds->entity_of()));
  }
  return exit_code;
}

int CmdGenerate(int argc, char** argv) {
  Args args;
  size_t records = 1000, entities = 150, decoys = 0;
  uint64_t seed = 1;
  if (!ParseArgs(argc, argv, "generate", 2,
                 {"--records", "--entities", "--seed", "--decoys"}, {}, &args) ||
      !ParseFlag(args, "--records", &records) ||
      !ParseFlag(args, "--entities", &entities) ||
      !ParseFlag(args, "--seed", &seed) ||
      !ParseFlag(args, "--decoys", &decoys)) {
    return Usage();
  }
  const std::string& domain = args.positional[0];
  const std::string& out_path = args.positional[1];
  if (domain == "ambiguous") {
    // Verification-heavy corpus: every merge costs a KM verification,
    // decoys add verification-shaped non-matches. Record count follows
    // from entities and decoys, so --records does not apply.
    if (entities == 0) {
      std::fprintf(stderr, "need entities >= 1\n");
      return Usage();
    }
    AmbiguityGeneratorConfig config;
    config.num_entities = entities;
    config.seed = seed;
    config.num_decoys = decoys;
    Dataset ds = GenerateAmbiguousDataset(config);
    Status st = WriteDataset(ds, out_path);
    if (!st.ok()) {
      std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
      return 3;
    }
    std::printf("wrote %zu records / %zu entities / %zu schemas to %s\n",
                ds.size(), ds.NumEntities(), ds.schemas().size(),
                out_path.c_str());
    return 0;
  }
  if (entities == 0 || records < entities) {
    std::fprintf(stderr, "need records >= entities >= 1\n");
    return Usage();
  }
  Dataset ds;
  if (domain == "movies") {
    MovieGeneratorConfig config;
    config.num_records = records;
    config.num_entities = entities;
    config.seed = seed;
    ds = GenerateMovieDataset(config);
  } else if (domain == "publications") {
    PublicationGeneratorConfig config;
    config.num_records = records;
    config.num_entities = entities;
    config.seed = seed;
    ds = GeneratePublicationDataset(config);
  } else {
    return Usage();
  }
  Status st = WriteDataset(ds, out_path);
  if (!st.ok()) {
    std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
    return 3;
  }
  std::printf("wrote %zu records / %zu entities / %zu schemas to %s\n",
              ds.size(), ds.NumEntities(), ds.schemas().size(),
              out_path.c_str());
  return 0;
}

int CmdStats(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, "stats", 1, {}, {}, &args)) return Usage();
  const char* input_path = args.positional[0].c_str();
  auto ds = ReadDataset(input_path);
  if (!ds.ok()) {
    std::fprintf(stderr, "error reading %s: %s\n", input_path,
                 ds.status().ToString().c_str());
    return 3;
  }
  std::printf("records:             %zu\n", ds->size());
  std::printf("schemas:             %zu\n", ds->schemas().size());
  for (uint32_t s = 0; s < ds->schemas().size(); ++s) {
    size_t count = 0;
    for (const Record& r : ds->records()) {
      if (r.schema_id() == s) ++count;
    }
    std::printf("  %-16s %zu records, %zu attributes\n",
                ds->schemas().Get(s).name().c_str(), count,
                ds->schemas().Get(s).size());
  }
  std::printf("ground truth:        %s\n", ds->has_ground_truth() ? "yes" : "no");
  if (ds->has_ground_truth()) {
    std::printf("entities:            %zu\n", ds->NumEntities());
  }
  std::printf("distinct attributes: %zu\n", ds->NumDistinctAttributes());
  std::printf("\n%s", ProfileDataset(*ds).ToString().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  std::string cmd = argv[1];
  if (cmd == "resolve") return CmdResolve(argc - 2, argv + 2);
  if (cmd == "generate") return CmdGenerate(argc - 2, argv + 2);
  if (cmd == "stats") return CmdStats(argc - 2, argv + 2);
  return Usage();
}

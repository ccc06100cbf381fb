// Tests for the observability subsystem: JSON writer, metrics
// primitives and registry (including concurrency), tracer spans and
// events, the exporters, and the engine integration behind
// HeraOptions::collect_report.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "common/run_guard.h"
#include "core/hera.h"
#include "core/incremental.h"
#include "obs/json.h"
#include "obs/json_reader.h"
#include "obs/metrics.h"
#include "obs/perfetto.h"
#include "obs/report.h"
#include "obs/timeline.h"
#include "obs/trace.h"
#include "testing_util.h"

namespace hera {
namespace {

// ---------------------------------------------------------------- JSON

TEST(JsonWriterTest, GoldenObject) {
  obs::JsonWriter w;
  w.BeginObject()
      .Key("n").Int(3)
      .Key("xs").BeginArray().Number(1.5).Null().EndArray()
      .Key("s").String("hi")
      .Key("b").Bool(true)
      .EndObject();
  EXPECT_EQ(w.str(), R"({"n":3,"xs":[1.5,null],"s":"hi","b":true})");
}

TEST(JsonWriterTest, NonFiniteNumbersBecomeNull) {
  obs::JsonWriter w;
  w.BeginArray()
      .Number(std::numeric_limits<double>::quiet_NaN())
      .Number(std::numeric_limits<double>::infinity())
      .Number(-std::numeric_limits<double>::infinity())
      .Number(2.0)
      .EndArray();
  EXPECT_EQ(w.str(), "[null,null,null,2]");
}

TEST(JsonWriterTest, IntegralDoublesPrintWithoutExponent) {
  obs::JsonWriter w;
  w.BeginArray().Number(8071.0).Number(0.0).Number(-3.0).EndArray();
  EXPECT_EQ(w.str(), "[8071,0,-3]");
}

TEST(JsonWriterTest, EscapesControlCharactersAndQuotes) {
  EXPECT_EQ(obs::JsonEscape("a\"b\\c\nd\te"), "a\\\"b\\\\c\\nd\\te");
  EXPECT_EQ(obs::JsonEscape(std::string("\x01", 1)), "\\u0001");
}

TEST(JsonWriterTest, EmptyContainers) {
  obs::JsonWriter w;
  w.BeginObject().Key("a").BeginArray().EndArray().Key("o").BeginObject()
      .EndObject().EndObject();
  EXPECT_EQ(w.str(), R"({"a":[],"o":{}})");
}

// --------------------------------------------------------- JSON reader

TEST(JsonReaderTest, ParsesScalarsAndContainers) {
  auto v = obs::ParseJson(R"( {"n": 3, "x": -1.5e2, "b": true,
                               "s": "hi", "z": null,
                               "a": [1, [2], {}]} )");
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  ASSERT_TRUE(v->is_object());
  EXPECT_DOUBLE_EQ(v->Find("n")->number_value, 3.0);
  EXPECT_DOUBLE_EQ(v->Find("x")->number_value, -150.0);
  EXPECT_TRUE(v->Find("b")->bool_value);
  EXPECT_EQ(v->Find("s")->string_value, "hi");
  EXPECT_TRUE(v->Find("z")->is_null());
  const obs::JsonValue* a = v->Find("a");
  ASSERT_TRUE(a->is_array());
  ASSERT_EQ(a->items.size(), 3u);
  EXPECT_TRUE(a->items[1].is_array());
  EXPECT_TRUE(a->items[2].is_object());
  EXPECT_EQ(v->Find("missing"), nullptr);
}

TEST(JsonReaderTest, RoundTripsWriterOutput) {
  obs::JsonWriter w;
  w.BeginObject()
      .Key("esc").String("a\"b\\c\nd\te")
      .Key("nums").BeginArray().Number(0.0).Number(-3.25).UInt(1u << 30)
      .EndArray()
      .EndObject();
  auto v = obs::ParseJson(w.str());
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  EXPECT_EQ(v->Find("esc")->string_value, "a\"b\\c\nd\te");
  EXPECT_DOUBLE_EQ(v->Find("nums")->items[2].number_value,
                   static_cast<double>(1u << 30));
}

TEST(JsonReaderTest, UnicodeEscapesDecodeToUtf8) {
  // "café " (U+00E9) + an emoji via a surrogate pair (U+1F600).
  auto v = obs::ParseJson("\"caf\\u00e9 \\uD83D\\uDE00\"");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->string_value, "caf\xC3\xA9 \xF0\x9F\x98\x80");
  EXPECT_FALSE(obs::ParseJson(R"("\uD83D")").ok());   // Unpaired high.
  EXPECT_FALSE(obs::ParseJson(R"("\uDE00")").ok());   // Unpaired low.
}

TEST(JsonReaderTest, RejectsMalformedInput) {
  for (const char* bad :
       {"", "{", "[1,]", "{\"a\":}", "{\"a\" 1}", "tru", "1 2", "\"x",
        "[1] garbage", "-", "1.", "1e", "'single'", "{\"a\":1,}"}) {
    EXPECT_FALSE(obs::ParseJson(bad).ok()) << "accepted: " << bad;
  }
  // Parse errors carry a position.
  auto err = obs::ParseJson("[1, oops]");
  ASSERT_FALSE(err.ok());
  EXPECT_NE(err.status().ToString().find("offset"), std::string::npos);
}

TEST(JsonReaderTest, DepthLimitIsEnforcedNotCrashed) {
  std::string deep(300, '[');
  deep += std::string(300, ']');
  EXPECT_FALSE(obs::ParseJson(deep).ok());
  std::string ok(100, '[');
  ok += std::string(100, ']');
  EXPECT_TRUE(obs::ParseJson(ok).ok());
}

TEST(JsonReaderTest, FindPathWalksNestedObjects) {
  auto v = obs::ParseJson(R"({"stats": {"verify": {"speedup": 14.2}}})");
  ASSERT_TRUE(v.ok());
  const obs::JsonValue* s = v->FindPath("stats.verify.speedup");
  ASSERT_NE(s, nullptr);
  EXPECT_DOUBLE_EQ(s->number_value, 14.2);
  EXPECT_EQ(v->FindPath("stats.nope.speedup"), nullptr);
  EXPECT_EQ(v->FindPath("stats.verify.speedup.deeper"), nullptr);
}

// ------------------------------------------------------------ timeline

TEST(TimelineTest, RingOverflowDropsOldestAndCounts) {
  obs::TimelineSeries series(4);
  for (int i = 0; i < 10; ++i) {
    obs::TimelineSample s;
    s.t_ms = static_cast<double>(i);
    series.Push(std::move(s));
  }
  EXPECT_EQ(series.size(), 4u);
  EXPECT_EQ(series.dropped(), 6u);
  auto samples = series.Samples();
  ASSERT_EQ(samples.size(), 4u);
  // Chronological and holding the newest four.
  EXPECT_DOUBLE_EQ(samples.front().t_ms, 6.0);
  EXPECT_DOUBLE_EQ(samples.back().t_ms, 9.0);
}

TEST(TimelineTest, SamplerTakesEdgeSamplesAndFreezesColumns) {
  obs::TimelineSeries series(64);
  obs::TimelineSampler::Options sopts;
  sopts.interval_ms = 10000;  // No periodic tick during the test.
  double clock = 0.0;
  obs::TimelineSampler sampler(sopts, [&clock] { return clock += 1.0; },
                               &series);
  std::atomic<uint64_t> counter{7};
  sampler.AddProbe("c", [&counter] {
    return static_cast<double>(counter.load());
  });
  sampler.Start();
  sampler.Start();  // Idempotent.
  sampler.AddProbe("late", [] { return 0.0; });  // Ignored after Start.
  sampler.SampleNow();
  sampler.Stop();
  sampler.Stop();  // Idempotent.
  EXPECT_GE(sampler.samples_taken(), 3u);  // Start + SampleNow + Stop.
  auto columns = series.columns();
  ASSERT_EQ(columns.size(), 1u);
  EXPECT_EQ(columns[0], "c");
  auto samples = series.Samples();
  ASSERT_GE(samples.size(), 3u);
  for (size_t i = 1; i < samples.size(); ++i) {
    EXPECT_GT(samples[i].t_ms, samples[i - 1].t_ms);  // Monotone clock.
  }
  for (const auto& s : samples) {
    ASSERT_EQ(s.values.size(), 1u);
    EXPECT_DOUBLE_EQ(s.values[0], 7.0);
  }
}

TEST(TimelineTest, ProcSelfStatsReadsOnLinux) {
  obs::ProcSelfStats stats;
  bool ok = obs::ReadProcSelfStats(&stats);
#ifdef __linux__
  ASSERT_TRUE(ok);
  EXPECT_GT(stats.rss_bytes, 0.0);
  EXPECT_GE(stats.cpu_user_ms + stats.cpu_sys_ms, 0.0);
#else
  EXPECT_FALSE(ok);
#endif
}

// ------------------------------------------------------------- metrics

TEST(MetricsTest, CounterAndGaugeBasics) {
  obs::Counter c;
  c.Inc();
  c.Inc(41);
  EXPECT_EQ(c.value(), 42u);
  obs::Gauge g;
  g.Set(2.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
}

TEST(MetricsTest, HistogramBucketPlacement) {
  obs::Histogram h({1.0, 10.0, 100.0});
  h.Observe(0.5);    // <= 1
  h.Observe(1.0);    // <= 1 (bounds are inclusive upper)
  h.Observe(5.0);    // <= 10
  h.Observe(100.0);  // <= 100
  h.Observe(1e9);    // +inf tail
  EXPECT_EQ(h.num_buckets(), 4u);
  EXPECT_EQ(h.bucket_count(0), 2u);
  EXPECT_EQ(h.bucket_count(1), 1u);
  EXPECT_EQ(h.bucket_count(2), 1u);
  EXPECT_EQ(h.bucket_count(3), 1u);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 1.0 + 5.0 + 100.0 + 1e9);
}

TEST(MetricsTest, ExponentialBounds) {
  auto bounds = obs::Histogram::ExponentialBounds(1.0, 4.0, 4);
  ASSERT_EQ(bounds.size(), 4u);
  EXPECT_DOUBLE_EQ(bounds[0], 1.0);
  EXPECT_DOUBLE_EQ(bounds[1], 4.0);
  EXPECT_DOUBLE_EQ(bounds[2], 16.0);
  EXPECT_DOUBLE_EQ(bounds[3], 64.0);
}

TEST(MetricsTest, RegistryReturnsStableInstances) {
  obs::MetricsRegistry reg;
  obs::Counter* a = reg.GetCounter("x");
  obs::Counter* b = reg.GetCounter("x");
  EXPECT_EQ(a, b);
  obs::Histogram* h1 = reg.GetHistogram("h", {1.0, 2.0});
  obs::Histogram* h2 = reg.GetHistogram("h", {9.0});  // First bounds win.
  EXPECT_EQ(h1, h2);
  EXPECT_EQ(h1->bounds().size(), 2u);
}

TEST(MetricsTest, RegistryIsThreadSafe) {
  obs::MetricsRegistry reg;
  constexpr int kThreads = 8;
  constexpr int kOps = 5000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg] {
      // Every thread registers the same names (exercising the locked
      // path) and hammers the lock-free update path.
      obs::Counter* c = reg.GetCounter("ops");
      obs::Histogram* h =
          reg.GetHistogram("lat", obs::Histogram::ExponentialBounds(1, 2, 8));
      for (int i = 0; i < kOps; ++i) {
        c->Inc();
        h->Observe(static_cast<double>(i % 300));
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(reg.GetCounter("ops")->value(),
            static_cast<uint64_t>(kThreads) * kOps);
  obs::Histogram* h = reg.GetHistogram("lat", {});
  EXPECT_EQ(h->count(), static_cast<uint64_t>(kThreads) * kOps);
  uint64_t bucket_total = 0;
  for (size_t i = 0; i < h->num_buckets(); ++i) bucket_total += h->bucket_count(i);
  EXPECT_EQ(bucket_total, h->count());
}

TEST(MetricsTest, ScopedTimerFeedsBothSinks) {
  obs::Histogram h({1e9});
  double acc_ms = 1.0;  // Accumulates, not overwrites.
  {
    obs::ScopedTimer t(&acc_ms, &h);
  }
  EXPECT_GT(acc_ms, 1.0);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_GE(h.sum(), 0.0);
}

TEST(MetricsTest, ScopedTimerStopIsIdempotent) {
  double acc_ms = 0.0;
  obs::ScopedTimer t(&acc_ms);
  t.Stop();
  double first = acc_ms;
  t.Stop();
  EXPECT_DOUBLE_EQ(acc_ms, first);  // Second Stop (and dtor) add nothing.
}

// -------------------------------------------------------------- tracer

TEST(TracerTest, SpansNestAndAggregate) {
  obs::Tracer tracer;
  {
    auto outer = tracer.StartSpan("outer");
    {
      auto inner = tracer.StartSpan("inner");
    }
    {
      auto inner = tracer.StartSpan("inner");
    }
  }
  auto spans = tracer.spans();
  ASSERT_EQ(spans.size(), 3u);
  // Inner spans close first and sit one level deep.
  EXPECT_EQ(spans[0].name, "inner");
  EXPECT_EQ(spans[0].depth, 1);
  EXPECT_EQ(spans[2].name, "outer");
  EXPECT_EQ(spans[2].depth, 0);
  auto stats = tracer.PhaseStats();
  EXPECT_EQ(stats["inner"].count, 2u);
  EXPECT_EQ(stats["outer"].count, 1u);
  EXPECT_GE(stats["outer"].max_ms, 0.0);
}

TEST(TracerTest, NullTraceSpansAreNoOps) {
  auto span = obs::StartSpan(nullptr, "whatever");  // Must not crash.
  span.End();
  obs::Tracer::Span defaulted;  // Dtor of a default span is a no-op too.
}

TEST(TracerTest, EventsCarryIterationScope) {
  obs::Tracer tracer;
  tracer.Event("before", "x", 1);
  tracer.SetIteration(3);
  tracer.Event("during", "y", 2);
  tracer.SetIteration(-1);
  auto events = tracer.events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].iteration, -1);
  EXPECT_EQ(events[1].iteration, 3);
  EXPECT_EQ(events[1].kind, "during");
  EXPECT_EQ(events[1].value, 2u);
}

TEST(TracerTest, EventOverflowIsCountedNotSilent) {
  obs::Tracer tracer;
  const size_t total = obs::Tracer::kMaxEvents + 57;
  for (size_t i = 0; i < total; ++i) tracer.Event("e");
  EXPECT_EQ(tracer.events().size(), obs::Tracer::kMaxEvents);
  EXPECT_EQ(tracer.dropped_events(), 57u);
}

// ------------------------------------------------------------ outcomes

TEST(RunOutcomeTest, ToStringCoversEveryValue) {
  EXPECT_STREQ(RunOutcomeToString(RunOutcome::kCompleted), "completed");
  EXPECT_STREQ(RunOutcomeToString(RunOutcome::kDegraded), "degraded");
  EXPECT_STREQ(RunOutcomeToString(RunOutcome::kIterationCap), "iteration_cap");
  EXPECT_STREQ(RunOutcomeToString(RunOutcome::kTruncatedDeadline),
               "truncated_deadline");
  EXPECT_STREQ(RunOutcomeToString(RunOutcome::kTruncatedCancelled),
               "truncated_cancelled");
}

TEST(RunOutcomeTest, FromStringRoundTripsEveryValue) {
  for (RunOutcome o :
       {RunOutcome::kCompleted, RunOutcome::kDegraded, RunOutcome::kIterationCap,
        RunOutcome::kTruncatedDeadline, RunOutcome::kTruncatedCancelled}) {
    RunOutcome parsed;
    ASSERT_TRUE(RunOutcomeFromString(RunOutcomeToString(o), &parsed));
    EXPECT_EQ(parsed, o);
  }
}

TEST(RunOutcomeTest, FromStringRejectsUnknownNames) {
  RunOutcome out = RunOutcome::kDegraded;
  EXPECT_FALSE(RunOutcomeFromString("bogus", &out));
  EXPECT_EQ(out, RunOutcome::kDegraded);  // Untouched.
  EXPECT_FALSE(RunOutcomeFromString("", &out));
}

// ------------------------------------------------------------- reports

TEST(ReportTest, HeraStatsJsonGolden) {
  HeraStats s;
  s.index_size = 10;
  s.iterations = 2;
  s.merges = 3;
  std::string json = obs::HeraStatsToJson(s, "completed");
  EXPECT_NE(json.find("\"outcome\":\"completed\""), std::string::npos);
  EXPECT_NE(json.find("\"index_size\":10"), std::string::npos);
  EXPECT_NE(json.find("\"iterations\":2"), std::string::npos);
  EXPECT_NE(json.find("\"merges\":3"), std::string::npos);
  EXPECT_NE(json.find("\"join_truncated\":false"), std::string::npos);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
}

TEST(ReportTest, NonFiniteStatsSerializeAsNull) {
  HeraStats s;
  s.avg_simplified_nodes = std::numeric_limits<double>::quiet_NaN();
  s.total_ms = std::numeric_limits<double>::infinity();
  std::string json = obs::HeraStatsToJson(s, "completed");
  EXPECT_NE(json.find("\"avg_simplified_nodes\":null"), std::string::npos);
  EXPECT_NE(json.find("\"total_ms\":null"), std::string::npos);
  EXPECT_EQ(json.find("nan"), std::string::npos);
  EXPECT_EQ(json.find("inf"), std::string::npos);
}

TEST(ReportTest, EmptyReportExportsValidOutput) {
  obs::RunReport r;
  EXPECT_TRUE(r.empty());
  std::string json = r.ToJson();
  EXPECT_NE(json.find("\"collected\":false"), std::string::npos);
  EXPECT_NE(json.find("\"schema_version\":1"), std::string::npos);
  EXPECT_FALSE(r.ToString().empty());
  r.ToPrometheusText();  // Must not crash on an empty report.
}

TEST(ReportTest, PrometheusTextFormat) {
  obs::RunTrace trace;
  trace.metrics().GetCounter("simjoin.candidates")->Inc(7);
  trace.metrics().GetGauge("index.size")->Set(42.0);
  obs::Histogram* h = trace.metrics().GetHistogram("lat.us", {1.0, 10.0});
  h->Observe(0.5);
  h->Observe(5.0);
  h->Observe(99.0);
  HeraStats stats;
  obs::RunReport r = obs::BuildRunReport(trace, stats, "completed");
  std::string text = r.ToPrometheusText();
  EXPECT_NE(text.find("# TYPE hera_simjoin_candidates counter"),
            std::string::npos);
  EXPECT_NE(text.find("hera_simjoin_candidates 7"), std::string::npos);
  EXPECT_NE(text.find("hera_index_size 42"), std::string::npos);
  // Buckets are cumulative and end with +Inf == _count.
  EXPECT_NE(text.find("hera_lat_us_bucket{le=\"1\"} 1"), std::string::npos);
  EXPECT_NE(text.find("hera_lat_us_bucket{le=\"10\"} 2"), std::string::npos);
  EXPECT_NE(text.find("hera_lat_us_bucket{le=\"+Inf\"} 3"), std::string::npos);
  EXPECT_NE(text.find("hera_lat_us_count 3"), std::string::npos);
}

// --------------------------------------------------- engine integration

TEST(ObsIntegrationTest, ReportDisabledByDefault) {
  Dataset ds = testing_util::MakeCustomersDataset();
  auto result = Hera(HeraOptions{}).Run(ds);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->report.empty());
}

TEST(ObsIntegrationTest, CollectReportFillsEverySection) {
  Dataset ds = testing_util::MakeCustomersDataset();
  HeraOptions opts;
  opts.collect_report = true;
  auto result = Hera(opts).Run(ds);
  ASSERT_TRUE(result.ok());
  const obs::RunReport& r = result->report;
  ASSERT_TRUE(r.collected);
  EXPECT_EQ(r.outcome, "completed");
  EXPECT_EQ(r.stats.merges, result->stats.merges);

  // Phase aggregates cover the instrumented sites.
  auto phase = [&r](const std::string& name) -> const obs::RunReport::Phase* {
    for (const auto& p : r.phases) {
      if (p.name == name) return &p;
    }
    return nullptr;
  };
  ASSERT_NE(phase("index.build"), nullptr);
  ASSERT_NE(phase("resolve"), nullptr);
  ASSERT_NE(phase("iteration"), nullptr);
  EXPECT_EQ(phase("iteration")->count, result->stats.iterations);
  EXPECT_GE(phase("resolve")->total_ms, 0.0);

  // Per-iteration rows sum back to the run totals.
  ASSERT_EQ(r.iterations.size(), result->stats.iterations);
  uint64_t merges = 0, pruned = 0, verified = 0;
  for (const auto& row : r.iterations) {
    merges += row.merges;
    pruned += row.pruned;
    verified += row.verified;
  }
  EXPECT_EQ(merges, result->stats.merges);
  EXPECT_EQ(pruned, result->stats.pruned_by_bound);
  EXPECT_EQ(verified, result->stats.candidates);

  // Metric snapshot: join counters and the index gauge.
  EXPECT_GT(r.counters.at("simjoin.emitted"), 0u);
  EXPECT_GE(r.counters.at("simjoin.candidates"),
            r.counters.at("simjoin.emitted"));
  EXPECT_DOUBLE_EQ(r.gauges.at("index.size"),
                   static_cast<double>(result->stats.index_size));

  // Verify latency histogram saw every verified candidate.
  const obs::RunReport::HistogramData* lat = nullptr;
  for (const auto& h : r.histograms) {
    if (h.name == "verify.latency_us") lat = &h;
  }
  ASSERT_NE(lat, nullptr);
  EXPECT_EQ(lat->count, result->stats.candidates);

  // The JSON export parses far enough to carry the schema version.
  std::string json = r.ToJson();
  EXPECT_NE(json.find("\"schema_version\":1"), std::string::npos);
  EXPECT_NE(json.find("\"outcome\":\"completed\""), std::string::npos);
}

TEST(ObsIntegrationTest, InstrumentedRunMatchesUninstrumented) {
  Dataset ds = testing_util::MakeCustomersDataset();
  HeraOptions plain;
  HeraOptions observed;
  observed.collect_report = true;
  auto r1 = Hera(plain).Run(ds);
  auto r2 = Hera(observed).Run(ds);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r1->entity_of, r2->entity_of);
  EXPECT_EQ(r1->stats.merges, r2->stats.merges);
  EXPECT_EQ(r1->stats.comparisons, r2->stats.comparisons);
}

TEST(ObsIntegrationTest, GovernanceEventsAppearInReport) {
  Dataset ds = testing_util::MakeCustomersDataset();
  HeraOptions opts;
  opts.collect_report = true;
  opts.guard.WithMaxCandidatesPerIteration(1);
  auto result = Hera(opts).Run(ds);
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(result->stats.deferred_candidate_groups > 0);
  bool saw_defer = false;
  for (const auto& e : result->report.events) {
    if (e.kind == "defer.candidates") {
      saw_defer = true;
      EXPECT_GT(e.value, 0u);
      EXPECT_GE(e.iteration, 1);
    }
  }
  EXPECT_TRUE(saw_defer);
}

TEST(ObsIntegrationTest, TruncationEventOnImmediateDeadline) {
  Dataset ds = testing_util::MakeCustomersDataset();
  HeraOptions opts;
  opts.collect_report = true;
  opts.guard.WithTimeoutMs(0.0);  // Expires the moment it is armed.
  auto result = Hera(opts).Run(ds);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->report.outcome, "truncated_deadline");
  bool saw_truncation = false;
  for (const auto& e : result->report.events) {
    if (e.kind == "join.truncated" || e.kind == "truncated") {
      saw_truncation = true;
      EXPECT_EQ(e.detail, "deadline");
    }
  }
  EXPECT_TRUE(saw_truncation);
}

TEST(ObsIntegrationTest, ShedEventsOnIndexCeiling) {
  Dataset ds = testing_util::MakeCustomersDataset();
  HeraOptions opts;
  opts.collect_report = true;
  opts.guard.WithMaxIndexPairs(5);
  auto result = Hera(opts).Run(ds);
  ASSERT_TRUE(result.ok());
  ASSERT_GT(result->stats.shed_index_pairs, 0u);
  EXPECT_EQ(result->report.outcome, "degraded");
  uint64_t shed_from_events = 0;
  for (const auto& e : result->report.events) {
    if (e.kind == "shed.index_pairs") shed_from_events += e.value;
  }
  EXPECT_EQ(shed_from_events, result->stats.shed_index_pairs);
}

TEST(ObsIntegrationTest, FailpointTripsBecomeEvents) {
  failpoint::DisarmAll();
  failpoint::Arm("engine.merge", Status::Internal("injected"), /*skip=*/0,
                 /*trips=*/1);
  Dataset ds = testing_util::MakeCustomersDataset();
  HeraOptions opts;
  opts.collect_report = true;
  auto result = Hera(opts).Run(ds);
  failpoint::DisarmAll();
  ASSERT_FALSE(result.ok());  // The injected failure propagates.

  // The trip itself is observable on a fresh, successful run with the
  // failpoint disarmed mid-way: verify via IncrementalHera, whose
  // report survives the failed round.
  auto inc = IncrementalHera::Create(opts, ds.schemas());
  ASSERT_TRUE(inc.ok());
  for (const Record& r : ds.records()) {
    ASSERT_TRUE((*inc)->AddRecord(r.schema_id(), r.values()).ok());
  }
  failpoint::Arm("engine.merge", Status::Internal("injected"), /*skip=*/0,
                 /*trips=*/1);
  EXPECT_FALSE((*inc)->Resolve().ok());
  failpoint::DisarmAll();
  obs::RunReport report = (*inc)->Report();
  ASSERT_TRUE(report.collected);
  EXPECT_EQ(report.counters.at("failpoint.trips"), 1u);
  bool saw_trip = false;
  for (const auto& e : report.events) {
    if (e.kind == "failpoint" && e.detail == "engine.merge") saw_trip = true;
  }
  EXPECT_TRUE(saw_trip);

  // And the retry completes, accumulating into the same trace.
  ASSERT_TRUE((*inc)->Resolve().ok());
  obs::RunReport after = (*inc)->Report();
  EXPECT_EQ(after.outcome, "completed");
  EXPECT_GT(after.counters.at("incremental.rounds"), 1u);
}

TEST(ObsIntegrationTest, IncrementalRoundsAccumulate) {
  Dataset ds = testing_util::MakeCustomersDataset();
  HeraOptions opts;
  opts.collect_report = true;
  auto inc = IncrementalHera::Create(opts, ds.schemas());
  ASSERT_TRUE(inc.ok());
  size_t half = ds.records().size() / 2;
  for (size_t i = 0; i < ds.records().size(); ++i) {
    const Record& r = ds.records()[i];
    ASSERT_TRUE((*inc)->AddRecord(r.schema_id(), r.values()).ok());
    if (i + 1 == half) {
      ASSERT_TRUE((*inc)->Resolve().ok());
    }
  }
  ASSERT_TRUE((*inc)->Resolve().ok());
  obs::RunReport report = (*inc)->Report();
  ASSERT_TRUE(report.collected);
  EXPECT_EQ(report.counters.at("incremental.rounds"), 2u);
  EXPECT_EQ(report.counters.at("incremental.records"), ds.records().size());
  bool saw_round_event = false;
  for (const auto& e : report.events) {
    if (e.kind == "incremental.round") saw_round_event = true;
  }
  EXPECT_TRUE(saw_round_event);
}

// ------------------------------------------- Prometheus labeled series

TEST(ReportTest, PrometheusPhaseSeriesAreLabeledAndEscaped) {
  obs::RunReport r;
  r.collected = true;
  r.phases.push_back({"index.build", 2, 12.5, 8.0});
  r.phases.push_back({"odd\"name\\with\nstuff", 1, 1.0, 1.0});
  std::string text = r.ToPrometheusText();
  EXPECT_NE(text.find("# TYPE hera_phase_ms_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("hera_phase_ms_total{phase=\"index.build\"} 12.5"),
            std::string::npos);
  EXPECT_NE(text.find("hera_phase_runs_total{phase=\"index.build\"} 2"),
            std::string::npos);
  // Backslash, quote, and newline are escaped inside the label value.
  EXPECT_NE(
      text.find(
          "hera_phase_ms_total{phase=\"odd\\\"name\\\\with\\nstuff\"} 1"),
      std::string::npos);
  // No line of the exposition text contains a raw (unescaped) newline
  // inside a label: every line must be "name{...} value" or a comment.
  size_t start = 0;
  while (start < text.size()) {
    size_t end = text.find('\n', start);
    std::string line = text.substr(start, end - start);
    EXPECT_TRUE(line.empty() || line[0] == '#' ||
                line.find(' ') != std::string::npos)
        << "torn line: " << line;
    start = end == std::string::npos ? text.size() : end + 1;
  }
}

// ------------------------------------------------------- timeline CSV

TEST(ReportTest, TimelineCsvGolden) {
  obs::RunReport r;
  r.collected = true;
  r.timeline.interval_ms = 50.0;
  r.timeline.columns = {"merges", "index_size"};
  obs::TimelineSample s1;
  s1.t_ms = 1.5;
  s1.rss_bytes = 4096;
  s1.cpu_user_ms = 2;
  s1.cpu_sys_ms = 1;
  s1.values = {0, 10};
  obs::TimelineSample s2 = s1;
  s2.t_ms = 51.5;
  s2.values = {3, 12};
  r.timeline.samples = {s1, s2};
  EXPECT_EQ(r.TimelineCsv(),
            "t_ms,rss_bytes,cpu_user_ms,cpu_sys_ms,merges,index_size\n"
            "1.5,4096,2,1,0,10\n"
            "51.5,4096,2,1,3,12\n");
  // Header-only when the sampler was off.
  obs::RunReport empty;
  EXPECT_EQ(empty.TimelineCsv(), "t_ms,rss_bytes,cpu_user_ms,cpu_sys_ms\n");
}

// -------------------------------------------------- timeline sampling

TEST(ObsIntegrationTest, TimelineSamplerFillsReportTimeline) {
  Dataset ds = testing_util::MakeCustomersDataset();
  HeraOptions opts;
  opts.timeline_interval_ms = 1;  // Implies report collection.
  auto result = Hera(opts).Run(ds);
  ASSERT_TRUE(result.ok());
  const obs::RunReport& r = result->report;
  ASSERT_TRUE(r.collected);
  EXPECT_DOUBLE_EQ(r.timeline.interval_ms, 1.0);
  ASSERT_GE(r.timeline.samples.size(), 2u);  // Start + Stop edges.
  // Columns include the quality-curve probes.
  auto has_column = [&r](const char* name) {
    for (const auto& c : r.timeline.columns) {
      if (c == name) return true;
    }
    return false;
  };
  ASSERT_TRUE(has_column("merges"));
  ASSERT_TRUE(has_column("verified_groups"));
  ASSERT_TRUE(has_column("pairs_emitted"));
  ASSERT_TRUE(has_column("index_size"));
  size_t merges_col = 0;
  while (r.timeline.columns[merges_col] != "merges") ++merges_col;
  double prev_t = -1.0, prev_merges = -1.0;
  for (const obs::TimelineSample& s : r.timeline.samples) {
    EXPECT_GE(s.t_ms, prev_t);  // Monotone sample clock.
    prev_t = s.t_ms;
    ASSERT_EQ(s.values.size(), r.timeline.columns.size());
    EXPECT_GE(s.values[merges_col], prev_merges);  // Cumulative curve.
    prev_merges = s.values[merges_col];
  }
  // The final edge sample sees every merge of the run.
  EXPECT_DOUBLE_EQ(r.timeline.samples.back().values[merges_col],
                   static_cast<double>(result->stats.merges));
  // Quality-over-time: per-iteration rows carry the stitched clock.
  double prev_row_t = 0.0;
  for (const auto& row : r.iterations) {
    EXPECT_GE(row.t_ms, prev_row_t);
    prev_row_t = row.t_ms;
  }
#ifdef __linux__
  EXPECT_GT(r.timeline.samples.back().rss_bytes, 0.0);
#endif
}

TEST(ObsIntegrationTest, SamplerOnOrOffProducesIdenticalResults) {
  Dataset ds = testing_util::MakeCustomersDataset();
  HeraOptions plain;
  HeraOptions sampled;
  sampled.collect_report = true;
  sampled.timeline_interval_ms = 1;
  auto r1 = Hera(plain).Run(ds);
  auto r2 = Hera(sampled).Run(ds);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r1->entity_of, r2->entity_of);
  EXPECT_EQ(r1->stats.merge_sequence, r2->stats.merge_sequence);
}

TEST(ObsIntegrationTest, TimelineRingOverflowIsReported) {
  Dataset ds = testing_util::MakeCustomersDataset();
  HeraOptions opts;
  opts.timeline_interval_ms = 1;
  opts.timeline_capacity = 2;  // Force the ring to wrap.
  auto result = Hera(opts).Run(ds);
  ASSERT_TRUE(result.ok());
  const obs::RunReport& r = result->report;
  ASSERT_LE(r.timeline.samples.size(), 2u);  // Ring capacity holds.
  ASSERT_GE(r.timeline.samples.size(), 1u);
  // Overflow keeps the newest samples: the retained tail is the final
  // edge sample, which sees every merge of the run.
  size_t merges_col = 0;
  while (r.timeline.columns[merges_col] != "merges") ++merges_col;
  EXPECT_DOUBLE_EQ(r.timeline.samples.back().values[merges_col],
                   static_cast<double>(result->stats.merges));
}

// ------------------------------------------------------- Chrome trace

TEST(ChromeTraceTest, ExportRoundTripsThroughRepoParser) {
  Dataset ds = testing_util::MakeCustomersDataset();
  HeraOptions opts;
  opts.collect_report = true;
  opts.timeline_interval_ms = 1;
  auto result = Hera(opts).Run(ds);
  ASSERT_TRUE(result.ok());
  std::string trace_json = obs::ExportChromeTrace(result->report);
  auto doc = obs::ParseJson(trace_json);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const obs::JsonValue* events = doc->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  ASSERT_GT(events->items.size(), 0u);

  bool saw_phase_span = false, saw_counter = false, saw_thread_name = false;
  for (const obs::JsonValue& e : events->items) {
    ASSERT_TRUE(e.is_object());
    const obs::JsonValue* ph = e.Find("ph");
    ASSERT_NE(ph, nullptr);
    ASSERT_TRUE(ph->is_string());
    ASSERT_NE(e.Find("pid"), nullptr);
    ASSERT_TRUE(e.Find("pid")->is_number());
    ASSERT_NE(e.Find("tid"), nullptr);
    ASSERT_TRUE(e.Find("tid")->is_number());
    if (ph->string_value != "M") {
      // Every non-metadata event sits on the timeline.
      ASSERT_NE(e.Find("ts"), nullptr);
      ASSERT_TRUE(e.Find("ts")->is_number());
      EXPECT_GE(e.Find("ts")->number_value, 0.0);
    }
    if (ph->string_value == "X") {
      ASSERT_NE(e.Find("dur"), nullptr);
      EXPECT_GE(e.Find("dur")->number_value, 0.0);
      if (e.Find("name")->string_value == "resolve") saw_phase_span = true;
      // Iteration spans carry the pass's counter deltas as args.
      if (e.Find("name")->string_value == "iteration") {
        EXPECT_NE(e.FindPath("args.merges"), nullptr);
        EXPECT_NE(e.FindPath("args.verified"), nullptr);
      }
    }
    if (ph->string_value == "C" &&
        e.Find("name")->string_value == "merges") {
      saw_counter = true;
      EXPECT_NE(e.FindPath("args.value"), nullptr);
    }
    if (ph->string_value == "M" &&
        e.Find("name")->string_value == "thread_name") {
      saw_thread_name = true;
    }
  }
  EXPECT_TRUE(saw_phase_span);
  EXPECT_TRUE(saw_counter);
  EXPECT_TRUE(saw_thread_name);
}

TEST(ChromeTraceTest, GovernanceEventsBecomeInstants) {
  Dataset ds = testing_util::MakeCustomersDataset();
  HeraOptions opts;
  opts.collect_report = true;
  opts.guard.WithMaxIndexPairs(5);  // Forces shed.index_pairs events.
  auto result = Hera(opts).Run(ds);
  ASSERT_TRUE(result.ok());
  ASSERT_GT(result->stats.shed_index_pairs, 0u);
  auto doc = obs::ParseJson(obs::ExportChromeTrace(result->report));
  ASSERT_TRUE(doc.ok());
  bool saw_instant = false;
  for (const obs::JsonValue& e : doc->Find("traceEvents")->items) {
    const obs::JsonValue* ph = e.Find("ph");
    if (ph->string_value == "i" &&
        e.Find("name")->string_value == "shed.index_pairs") {
      saw_instant = true;
      EXPECT_EQ(e.Find("s")->string_value, "p");  // Process-scoped.
      EXPECT_GT(e.FindPath("args.value")->number_value, 0.0);
    }
  }
  EXPECT_TRUE(saw_instant);
}

TEST(ChromeTraceTest, EmptyReportExportsValidTrace) {
  obs::RunReport empty;
  auto doc = obs::ParseJson(obs::ExportChromeTrace(empty));
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const obs::JsonValue* events = doc->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  // Metadata-only (process/controller names), but schema-valid.
  EXPECT_GE(events->items.size(), 2u);
}

}  // namespace
}  // namespace hera

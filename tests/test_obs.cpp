// Observability layer: recorder semantics (nesting, ring wraparound,
// drops), deterministic multi-thread aggregation, the zero-cost-when-off
// contract, exporter round-trips through the strict JSON parser, and the
// guard that instrumentation never perturbs scheduler results.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <thread>
#include <vector>

#include "test_util.hpp"

namespace dsslice {
namespace {

using testing::make_chain;
using testing::small_generator;

/// RAII guard: every test starts from a clean, disabled layer and leaves it
/// that way no matter how it exits.
struct ObsGuard {
  ObsGuard() {
    obs::set_enabled(false);
    obs::reset();
  }
  ~ObsGuard() {
    obs::set_enabled(false);
    obs::reset();
    obs::set_ring_capacity(8192);
  }
};

TEST(ObsTrace, DisabledRecordsNothing) {
  ObsGuard guard;
  {
    DSSLICE_SPAN("obs.test.disabled");
    DSSLICE_COUNT("obs.test.disabled.count", 3);
    DSSLICE_GAUGE("obs.test.disabled.gauge", 1.5);
  }
  const obs::MetricsSnapshot snapshot = obs::metrics_snapshot();
  EXPECT_EQ(snapshot.spans.count("obs.test.disabled"), 0u);
  EXPECT_EQ(snapshot.counters.count("obs.test.disabled.count"), 0u);
  EXPECT_EQ(snapshot.gauges.count("obs.test.disabled.gauge"), 0u);
}

TEST(ObsTrace, DisabledModeAllocatesNothing) {
  ObsGuard guard;
  // A fresh thread running instrumented code with the layer off must not
  // even create its thread-local buffer (the layer's only allocation).
  const std::uint64_t before = obs::internal_allocations();
  std::thread worker([] {
    for (int i = 0; i < 1000; ++i) {
      DSSLICE_SPAN("obs.test.noalloc");
      DSSLICE_COUNT("obs.test.noalloc.count", i);
    }
  });
  worker.join();
  EXPECT_EQ(obs::internal_allocations(), before);
}

TEST(ObsTrace, SpanNestingDepthsAndCounts) {
  ObsGuard guard;
  obs::set_enabled(true);
  {
    DSSLICE_SPAN("obs.test.outer");
    for (int i = 0; i < 3; ++i) {
      DSSLICE_SPAN("obs.test.inner");
    }
  }
  obs::set_enabled(false);

  const obs::MetricsSnapshot metrics = obs::metrics_snapshot();
  ASSERT_EQ(metrics.spans.count("obs.test.outer"), 1u);
  ASSERT_EQ(metrics.spans.count("obs.test.inner"), 1u);
  EXPECT_EQ(metrics.spans.at("obs.test.outer").count, 1u);
  EXPECT_EQ(metrics.spans.at("obs.test.inner").count, 3u);
  // The outer span covers its children, so its total is at least theirs.
  EXPECT_GE(metrics.spans.at("obs.test.outer").total_ns,
            metrics.spans.at("obs.test.inner").total_ns);

  const obs::TraceSnapshot trace = obs::trace_snapshot();
  ASSERT_EQ(trace.spans.size(), 4u);
  EXPECT_EQ(trace.dropped, 0u);
  for (const obs::TraceSpan& span : trace.spans) {
    const std::string name = span.name;
    EXPECT_EQ(span.depth, name == "obs.test.outer" ? 0u : 1u) << name;
    EXPECT_LE(span.start_ns, span.end_ns);
  }
}

TEST(ObsTrace, RingWraparoundKeepsNewestAndCountsDrops) {
  ObsGuard guard;
  obs::set_ring_capacity(16);
  obs::set_enabled(true);
  // A fresh thread gets the 16-slot ring; 50 spans overflow it. Aggregate
  // counts must stay exact (they bypass the ring); the timeline keeps the
  // newest 16 and reports 34 dropped.
  std::thread worker([] {
    for (int i = 0; i < 50; ++i) {
      DSSLICE_SPAN("obs.test.wrap");
    }
  });
  worker.join();
  obs::set_enabled(false);

  const obs::MetricsSnapshot metrics = obs::metrics_snapshot();
  ASSERT_EQ(metrics.spans.count("obs.test.wrap"), 1u);
  EXPECT_EQ(metrics.spans.at("obs.test.wrap").count, 50u);
  EXPECT_EQ(metrics.dropped_ring_events, 34u);

  const obs::TraceSnapshot trace = obs::trace_snapshot();
  std::size_t wrap_spans = 0;
  for (const obs::TraceSpan& span : trace.spans) {
    if (std::string(span.name) == "obs.test.wrap") {
      ++wrap_spans;
    }
  }
  EXPECT_EQ(wrap_spans, 16u);
  EXPECT_EQ(trace.dropped, 34u);
  // Oldest-first within the survivors.
  EXPECT_TRUE(std::is_sorted(trace.spans.begin(), trace.spans.end(),
                             [](const obs::TraceSpan& a,
                                const obs::TraceSpan& b) {
                               return a.start_ns < b.start_ns;
                             }));
}

// The same deterministic item-indexed work, partitioned over 1 and over 7
// threads, must aggregate to bit-identical counts and totals: integer event
// counts and histogram buckets are order-independent sums, and the integral
// counter deltas are exact in double.
TEST(ObsTrace, MultiThreadMergeIsDeterministic) {
  constexpr std::size_t kItems = 700;
  const auto run_partitioned = [](std::size_t thread_count) {
    obs::set_enabled(true);
    std::vector<std::thread> workers;
    const std::size_t chunk = kItems / thread_count;
    for (std::size_t t = 0; t < thread_count; ++t) {
      const std::size_t begin = t * chunk;
      const std::size_t end = t + 1 == thread_count ? kItems : begin + chunk;
      workers.emplace_back([begin, end] {
        for (std::size_t item = begin; item < end; ++item) {
          DSSLICE_SPAN("obs.test.merge.item");
          DSSLICE_COUNT("obs.test.merge.work", item);
          DSSLICE_COUNT("obs.test.merge.items", 1);
        }
      });
    }
    for (std::thread& worker : workers) {
      worker.join();
    }
    obs::set_enabled(false);
    return obs::metrics_snapshot();
  };

  ObsGuard guard;
  const obs::MetricsSnapshot serial = run_partitioned(1);
  obs::reset();
  const obs::MetricsSnapshot parallel = run_partitioned(7);

  ASSERT_EQ(serial.spans.count("obs.test.merge.item"), 1u);
  ASSERT_EQ(parallel.spans.count("obs.test.merge.item"), 1u);
  EXPECT_EQ(serial.spans.at("obs.test.merge.item").count,
            parallel.spans.at("obs.test.merge.item").count);
  EXPECT_EQ(serial.spans.at("obs.test.merge.item").hist.count(),
            parallel.spans.at("obs.test.merge.item").hist.count());

  const obs::CounterStats& work_a = serial.counters.at("obs.test.merge.work");
  const obs::CounterStats& work_b =
      parallel.counters.at("obs.test.merge.work");
  EXPECT_EQ(work_a.count, work_b.count);
  EXPECT_EQ(work_a.total, work_b.total);  // exact: integral deltas
  EXPECT_EQ(work_a.total, static_cast<double>(kItems * (kItems - 1) / 2));
  EXPECT_EQ(serial.counters.at("obs.test.merge.items").total,
            static_cast<double>(kItems));
  EXPECT_EQ(parallel.counters.at("obs.test.merge.items").total,
            static_cast<double>(kItems));
  EXPECT_EQ(serial.dropped_accum_events, 0u);
  EXPECT_EQ(parallel.dropped_accum_events, 0u);
}

TEST(ObsTrace, GaugeTracksLastMinMax) {
  ObsGuard guard;
  obs::set_enabled(true);
  DSSLICE_GAUGE("obs.test.gauge", 5.0);
  DSSLICE_GAUGE("obs.test.gauge", -2.0);
  DSSLICE_GAUGE("obs.test.gauge", 3.0);
  obs::set_enabled(false);

  const obs::MetricsSnapshot metrics = obs::metrics_snapshot();
  ASSERT_EQ(metrics.gauges.count("obs.test.gauge"), 1u);
  const obs::GaugeStats& gauge = metrics.gauges.at("obs.test.gauge");
  EXPECT_EQ(gauge.count, 3u);
  EXPECT_EQ(gauge.last, 3.0);
  EXPECT_EQ(gauge.min, -2.0);
  EXPECT_EQ(gauge.max, 5.0);
}

TEST(ObsExport, ChromeTraceRoundTripsThroughParser) {
  ObsGuard guard;
  obs::set_enabled(true);
  {
    DSSLICE_SPAN("obs.test.export \"quoted\"");
    DSSLICE_SPAN("obs.test.export.child");
  }
  obs::set_enabled(false);

  const obs::TraceSnapshot trace = obs::trace_snapshot();
  ASSERT_EQ(trace.spans.size(), 2u);
  const std::string json = obs::to_chrome_trace_json(trace);

  const obs::JsonParseResult parsed = obs::parse_json(json);
  ASSERT_TRUE(parsed.ok) << parsed.error << " at " << parsed.error_offset;
  const obs::JsonValue* events = parsed.value.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  ASSERT_EQ(events->array.size(), 2u);
  for (std::size_t k = 0; k < events->array.size(); ++k) {
    const obs::JsonValue& event = events->array[k];
    const obs::TraceSpan& span = trace.spans[k];
    ASSERT_NE(event.find("name"), nullptr);
    EXPECT_EQ(event.find("name")->string, span.name);  // escaping round-trip
    EXPECT_EQ(event.find("ph")->string, "X");
    // Timestamps are µs with 3 decimals — ns-exact after the round-trip.
    EXPECT_NEAR(event.find("ts")->number,
                static_cast<double>(span.start_ns) / 1000.0, 1e-3);
    EXPECT_NEAR(event.find("dur")->number,
                static_cast<double>(span.end_ns - span.start_ns) / 1000.0,
                1e-3);
    ASSERT_NE(event.find("args"), nullptr);
    EXPECT_EQ(event.find("args")->find("depth")->number,
              static_cast<double>(span.depth));
  }
}

TEST(ObsExport, MetricsJsonlRoundTripsThroughParser) {
  ObsGuard guard;
  obs::set_enabled(true);
  {
    DSSLICE_SPAN("obs.test.jsonl.span");
  }
  DSSLICE_COUNT("obs.test.jsonl.counter", 7);
  DSSLICE_GAUGE("obs.test.jsonl.gauge", 2.5);
  obs::set_enabled(false);

  const std::string jsonl = obs::to_metrics_jsonl(obs::metrics_snapshot());
  std::vector<obs::JsonValue> lines;
  std::string error;
  ASSERT_TRUE(obs::parse_jsonl(jsonl, lines, error)) << error;

  bool saw_span = false, saw_counter = false, saw_gauge = false,
       saw_meta = false;
  for (const obs::JsonValue& line : lines) {
    const obs::JsonValue* type = line.find("type");
    ASSERT_NE(type, nullptr);
    const obs::JsonValue* name = line.find("name");
    if (type->string == "meta") {
      saw_meta = true;
      EXPECT_EQ(line.find("dropped_ring_events")->number, 0.0);
    } else if (name != nullptr && name->string == "obs.test.jsonl.span") {
      saw_span = true;
      EXPECT_EQ(line.find("count")->number, 1.0);
      EXPECT_GE(line.find("p95_ns")->number, 0.0);
    } else if (name != nullptr && name->string == "obs.test.jsonl.counter") {
      saw_counter = true;
      EXPECT_EQ(line.find("total")->number, 7.0);
    } else if (name != nullptr && name->string == "obs.test.jsonl.gauge") {
      saw_gauge = true;
      EXPECT_EQ(line.find("last")->number, 2.5);
    }
  }
  EXPECT_TRUE(saw_span);
  EXPECT_TRUE(saw_counter);
  EXPECT_TRUE(saw_gauge);
  EXPECT_TRUE(saw_meta);
}

TEST(ObsExport, SummaryTextListsEveryMetric) {
  ObsGuard guard;
  obs::set_enabled(true);
  {
    DSSLICE_SPAN("obs.test.summary.span");
  }
  DSSLICE_COUNT("obs.test.summary.counter", 1);
  obs::set_enabled(false);

  const std::string text = obs::to_summary_text(obs::metrics_snapshot());
  EXPECT_NE(text.find("obs.test.summary.span"), std::string::npos);
  EXPECT_NE(text.find("obs.test.summary.counter"), std::string::npos);
  EXPECT_NE(text.find("dropped_ring_events=0"), std::string::npos);
}

TEST(ObsJsonLint, RejectsMalformedDocuments) {
  EXPECT_FALSE(obs::parse_json("{\"a\":}").ok);
  EXPECT_FALSE(obs::parse_json("{\"a\":1,}").ok);
  EXPECT_FALSE(obs::parse_json("[1,2").ok);
  EXPECT_FALSE(obs::parse_json("\"unterminated").ok);
  EXPECT_FALSE(obs::parse_json("{} trailing").ok);
  EXPECT_TRUE(obs::parse_json("{\"a\": [1, -2.5e3, true, null, \"s\"]}").ok);

  std::vector<obs::JsonValue> lines;
  std::string error;
  EXPECT_FALSE(obs::parse_jsonl("{\"ok\":1}\n{bad}\n", lines, error));
  EXPECT_NE(error.find("line 2"), std::string::npos);
}

// The parser recurses once per nesting level, so a deep document must come
// back as an error instead of overflowing the stack: 100,000 '[' bytes
// once crashed every entry point.
TEST(ObsJsonLint, RejectsDeepNestingWithoutCrashing) {
  const std::string deep(100000, '[');
  const obs::JsonParseResult strict = obs::parse_json(deep);
  EXPECT_FALSE(strict.ok);
  EXPECT_NE(strict.error.find("nesting"), std::string::npos) << strict.error;
  EXPECT_FALSE(obs::parse_json(deep + std::string(deep.size(), ']')).ok);
  EXPECT_FALSE(obs::parse_streaming_json(deep).ok);
  EXPECT_FALSE(obs::parse_streaming_json(deep + "\n" + deep).ok);
  std::vector<obs::JsonValue> lines;
  std::string error;
  EXPECT_FALSE(obs::parse_jsonl("{}\n" + deep + "\n", lines, error));
  EXPECT_NE(error.find("line 2"), std::string::npos) << error;
  // Up to the bound, nesting still parses.
  EXPECT_TRUE(
      obs::parse_json(std::string(256, '[') + std::string(256, ']')).ok);
  EXPECT_FALSE(
      obs::parse_json(std::string(257, '[') + std::string(257, ']')).ok);
}

// Seeded mutation fuzz over exporter output: every entry point returns on
// every mutant of a Chrome trace and a metrics JSONL, with no crash and no
// exception (under the sanitize preset, no UB either).
TEST(ObsJsonLint, SeededMutantsReturnWithoutCrashing) {
  obs::TraceSnapshot trace;
  trace.spans = {{"obs.test.fuzz \"quoted\"", 1000, 251234, 0, 0},
                 {"obs.test.fuzz.child", 2000, 2067, 1, 1}};
  obs::MetricsSnapshot metrics;
  metrics.spans["obs.test.fuzz.span"] = {3, 180597, 67, 180000, {}};
  metrics.counters["obs.test.fuzz.counter"] = {1, 7.0};
  metrics.gauges["obs.test.fuzz.gauge"] = {3, 2.5, -0.125, 1e21};
  metrics.thread_count = 2;
  static constexpr const char* kWords[] = {
      "[",    "]",     "{",     "}",    "\"",         ":",  ",",
      "\\",   "\\u00", "\\uZZ", "null", "true",       "-",  "1e999",
      "-0.5", "1.e3",  "[[[[[[[[[[[[[[[[", "\"\\u0000\"", "\n"};
  for (const auto& [pinned, seed] :
       {std::pair{obs::to_chrome_trace_json(trace), 0x7EACEULL},
        std::pair{obs::to_metrics_jsonl(metrics), 0x3E7C5ULL}}) {
    int accepted = 0;
    testing::for_each_mutant(
        pinned, seed, 2000, kWords, [&accepted](const std::string& text, int) {
          std::vector<obs::JsonValue> values;
          std::string error;
          const bool jsonl = obs::parse_jsonl(text, values, error);
          accepted += obs::parse_json(text).ok || jsonl ? 1 : 0;
          bool completed = false;
          obs::parse_streaming_json(text, &completed);
          values.clear();
          bool truncated = false;
          obs::parse_streaming_jsonl(text, values, error, &truncated);
        });
    // The mutants reach past the first byte: some are still documents.
    EXPECT_GT(accepted, 20) << pinned;
  }
}

// Instrumentation must never perturb results: the same scenario scheduled
// with recording off and with recording on yields bit-identical schedules.
TEST(ObsEquivalence, SchedulersUnchangedByRecording) {
  ObsGuard guard;
  const auto schedules_equal = [](const SchedulerResult& a,
                                  const SchedulerResult& b) {
    if (a.success != b.success || a.failed_task != b.failed_task ||
        a.schedule.placed_count() != b.schedule.placed_count()) {
      return false;
    }
    for (NodeId v = 0; v < a.schedule.task_count(); ++v) {
      if (a.schedule.placed(v) != b.schedule.placed(v)) {
        return false;
      }
      if (a.schedule.placed(v) && !(a.schedule.entry(v) == b.schedule.entry(v))) {
        return false;
      }
    }
    return true;
  };

  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const Scenario scenario = generate_scenario(small_generator(seed), seed);
    const Application& app = scenario.application;
    const Platform& platform = scenario.platform;
    const std::vector<double> est =
        estimate_wcets(app, WcetEstimation::kAverage);
    const DeadlineMetric metric(MetricKind::kAdaptL);

    obs::set_enabled(false);
    const DeadlineAssignment plain_assignment =
        run_slicing(app, est, metric, platform.processor_count());
    const SchedulerResult plain_list =
        EdfListScheduler().run(app, plain_assignment, platform);
    const SchedulerResult plain_dispatch =
        EdfDispatchScheduler().run(app, plain_assignment, platform);

    obs::set_enabled(true);
    const DeadlineAssignment traced_assignment =
        run_slicing(app, est, metric, platform.processor_count());
    const SchedulerResult traced_list =
        EdfListScheduler().run(app, traced_assignment, platform);
    const SchedulerResult traced_dispatch =
        EdfDispatchScheduler().run(app, traced_assignment, platform);
    obs::set_enabled(false);

    ASSERT_EQ(plain_assignment.windows.size(),
              traced_assignment.windows.size());
    for (std::size_t v = 0; v < plain_assignment.windows.size(); ++v) {
      EXPECT_EQ(plain_assignment.windows[v].arrival,
                traced_assignment.windows[v].arrival);
      EXPECT_EQ(plain_assignment.windows[v].deadline,
                traced_assignment.windows[v].deadline);
    }
    EXPECT_TRUE(schedules_equal(plain_list, traced_list)) << "seed " << seed;
    EXPECT_TRUE(schedules_equal(plain_dispatch, traced_dispatch))
        << "seed " << seed;
  }
}

// Pinned dispatcher event accounting (docs/PERFORMANCE.md). The dispatcher
// is deterministic, so these exact counts are stable; a change means the
// event-loop structure changed and the documented rescan ratio must be
// re-measured.
TEST(ObsDispatchCounters, PinnedEventAndRescanCounts) {
  ObsGuard guard;
  // Three-task chain on one processor: dispatch alternates "start the ready
  // task" and "advance to its completion".
  const Application app = make_chain(3, 10.0, 100.0);
  const Platform platform = Platform::identical(1);
  const std::vector<double> est = estimate_wcets(app, WcetEstimation::kAverage);
  const DeadlineAssignment assignment = run_slicing(
      app, est, DeadlineMetric(MetricKind::kPure), platform.processor_count());

  obs::set_enabled(true);
  const SchedulerResult result =
      EdfDispatchScheduler().run(app, assignment, platform);
  obs::set_enabled(false);
  ASSERT_TRUE(result.success);

  const obs::MetricsSnapshot metrics = obs::metrics_snapshot();
  const auto counter = [&](const char* name) {
    return metrics.counters.count(name) != 0
               ? metrics.counters.at(name).total
               : 0.0;
  };
  EXPECT_EQ(counter("sched.dispatch.runs"), 1.0);
  EXPECT_EQ(counter("sched.dispatch.dispatched"), 3.0);
  // Six events: PURE slicing tiles [0, 100] into three windows, so after
  // each completion the dispatcher must also advance to the next slice
  // arrival before it can start the successor — two events per task. Each
  // dispatching event runs the scan twice (one productive pass, one that
  // finds nothing startable), each arrival-wait event scans once, and the
  // final completion exits the loop before scanning: 3×2 + 2×1 = 8.
  EXPECT_EQ(counter("sched.dispatch.events"), 6.0);
  EXPECT_EQ(counter("sched.dispatch.rescans"), 8.0);
  EXPECT_EQ(counter("sched.dispatch.misses"), 0.0);
}

// Bounds on the measured rescan-to-event ratio for a realistic generated
// scenario batch: each event runs at least one scan, and the deterministic
// dispatcher stays well under the worst-case n scans per event.
TEST(ObsDispatchCounters, RescanRatioStaysBounded) {
  ObsGuard guard;
  obs::set_enabled(true);
  for (std::uint64_t seed = 10; seed < 20; ++seed) {
    const Scenario scenario = generate_scenario(small_generator(seed), seed);
    const std::vector<double> est =
        estimate_wcets(scenario.application, WcetEstimation::kAverage);
    const DeadlineAssignment assignment =
        run_slicing(scenario.application, est,
                    DeadlineMetric(MetricKind::kAdaptL),
                    scenario.platform.processor_count());
    EdfDispatchScheduler().run(scenario.application, assignment,
                               scenario.platform);
  }
  obs::set_enabled(false);

  const obs::MetricsSnapshot metrics = obs::metrics_snapshot();
  ASSERT_EQ(metrics.counters.count("sched.dispatch.events"), 1u);
  const double events = metrics.counters.at("sched.dispatch.events").total;
  const double rescans = metrics.counters.at("sched.dispatch.rescans").total;
  ASSERT_GT(events, 0.0);
  const double ratio = rescans / events;
  EXPECT_GE(ratio, 1.0);
  EXPECT_LE(ratio, 3.0);  // measured ~2 scans/event; n would mean quadratic
}

TEST(ObsRegistry, ResetClearsLiveAndRetiredState) {
  ObsGuard guard;
  obs::set_enabled(true);
  {
    DSSLICE_SPAN("obs.test.reset.main");
  }
  std::thread worker([] { DSSLICE_COUNT("obs.test.reset.worker", 1); });
  worker.join();
  obs::set_enabled(false);

  EXPECT_FALSE(obs::metrics_snapshot().empty());
  obs::reset();
  const obs::MetricsSnapshot metrics = obs::metrics_snapshot();
  EXPECT_EQ(metrics.spans.count("obs.test.reset.main"), 0u);
  EXPECT_EQ(metrics.counters.count("obs.test.reset.worker"), 0u);
  EXPECT_EQ(obs::trace_snapshot().spans.size(), 0u);
}

/// A span name's statistics over `durations`, as the registry merges them.
obs::SpanStats span_stats(const std::vector<std::uint64_t>& durations) {
  obs::SpanStats s;
  for (const std::uint64_t d : durations) {
    s.min_ns = s.count == 0 ? d : std::min(s.min_ns, d);
    s.max_ns = std::max(s.max_ns, d);
    ++s.count;
    s.total_ns += d;
    s.hist.add(d);
  }
  return s;
}

// A percentile never leaves the observed range. The histogram alone puts
// one 37.6 s span at 42.9 s, its bucket's upper edge.
TEST(ObsRegistry, SpanPercentilesStayWithinObservedRange) {
  const std::uint64_t one = 37'600'000'000;
  const obs::SpanStats single = span_stats({one});
  for (const double p : {0.0, 50.0, 95.0, 99.0, 100.0}) {
    EXPECT_EQ(single.percentile_ns(p), static_cast<double>(one)) << p;
  }

  Xoshiro256 rng(0x5A4D);
  std::vector<std::uint64_t> durations;
  for (int i = 0; i < 500; ++i) {
    durations.push_back(1 + rng.next() % (std::uint64_t{1} << (i % 40)));
  }
  const obs::SpanStats sample = span_stats(durations);
  const auto [lo, hi] = std::minmax_element(durations.begin(), durations.end());
  for (double p = 0.0; p <= 100.0; p += 0.5) {
    const double v = sample.percentile_ns(p);
    EXPECT_GE(v, static_cast<double>(*lo)) << p;
    EXPECT_LE(v, static_cast<double>(*hi)) << p;
  }
  EXPECT_EQ(obs::SpanStats{}.percentile_ns(50.0), 0.0);
}

}  // namespace
}  // namespace dsslice

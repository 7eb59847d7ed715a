// Streaming sink contracts (obs/stream.hpp): the delta stream's final
// cumulative values reconcile bit-for-bit with a quiescent snapshot, ring
// wraparound racing a concurrent drain never loses or double-counts an
// entry, chunk files are Perfetto-tolerant mid-run and strict JSON after
// stop, the tolerant streaming parsers handle mid-record cuts, the sweep
// engine's progress/checkpoint instrumentation is present, and attaching a
// sink never changes sweep aggregates.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "dsslice/obs/json_lint.hpp"
#include "dsslice/obs/registry.hpp"
#include "dsslice/obs/stream.hpp"
#include "dsslice/obs/trace.hpp"
#include "dsslice/sim/experiment.hpp"
#include "dsslice/sim/sweeps.hpp"
#include "dsslice/sweep/checkpoint.hpp"
#include "dsslice/sweep/sweep_engine.hpp"
#include "dsslice/util/check.hpp"

namespace dsslice {
namespace {

/// RAII guard: every test starts from a clean, disabled layer and leaves it
/// that way no matter how it exits (same discipline as test_obs.cpp).
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

/// Unique file path under the system temp dir, removed on scope exit.
class TempFile {
 public:
  explicit TempFile(const std::string& name)
      : path_((std::filesystem::temp_directory_path() /
               ("dsslice_stream_test_" + name))
                  .string()) {
    std::filesystem::remove(path_);
  }
  ~TempFile() {
    std::error_code ec;
    std::filesystem::remove(path_, ec);
    std::filesystem::remove(path_ + ".tmp", ec);
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

ExperimentConfig sweep_config() {
  ExperimentConfig config;
  config.generator.base_seed = 0x5EED;
  return config;
}

SweepOptions small_sweep_options() {
  SweepOptions options;
  options.scenario_count = 96;
  options.shard_size = 16;
  return options;
}

/// Final cumulative values folded from a metrics-delta stream: for each
/// metric, the last delta record wins (it carries the authoritative
/// cumulative fields).
struct FinalCum {
  std::map<std::string, obs::JsonValue> last;  // name -> last delta record
  std::uint64_t ticks = 0;
  bool final_tick = false;
};

FinalCum fold_delta_stream(const std::string& text) {
  FinalCum out;
  std::vector<obs::JsonValue> records;
  std::string error;
  EXPECT_TRUE(obs::parse_streaming_jsonl(text, records, error)) << error;
  for (obs::JsonValue& record : records) {
    const obs::JsonValue* type = record.find("type");
    if (type == nullptr) {
      continue;
    }
    if (type->string == "delta") {
      out.last[record.find("name")->string] = record;
    } else if (type->string == "tick") {
      ++out.ticks;
      const obs::JsonValue* final_flag = record.find("final");
      out.final_tick = final_flag != nullptr && final_flag->boolean;
    }
  }
  return out;
}

double num(const obs::JsonValue& record, const char* key) {
  const obs::JsonValue* value = record.find(key);
  EXPECT_NE(value, nullptr) << key;
  return value == nullptr ? 0.0 : value->number;
}

// The reconciliation pin: a workload records on several threads while a
// sink streams deltas; once recording is disabled and the sink stopped,
// the stream's final cumulative values must equal the quiescent snapshot
// exactly — not approximately — for every metric the snapshot holds.
TEST(ObsStream, FinalCumulativeReconcilesWithQuiescentSnapshot) {
  ObsGuard guard;
  TempFile deltas("reconcile.deltas.jsonl");
  obs::set_enabled(true);

  obs::StreamOptions options;
  options.metrics_delta_path = deltas.path();
  options.interval_ms = 2;
  obs::StreamSink sink(options);
  sink.start();

  std::vector<std::thread> workers;
  for (int t = 0; t < 3; ++t) {
    workers.emplace_back([t] {
      for (int i = 0; i < 400; ++i) {
        DSSLICE_SPAN("obs.stream.reconcile.span");
        DSSLICE_COUNT("obs.stream.reconcile.count", i + t);
        DSSLICE_GAUGE("obs.stream.reconcile.gauge",
                      0.1 * static_cast<double>(i) - t);
      }
    });
  }
  for (std::thread& worker : workers) {
    worker.join();
  }

  obs::set_enabled(false);  // quiescent before the final drain
  sink.stop();
  const obs::MetricsSnapshot snapshot = obs::metrics_snapshot();

  const FinalCum stream = fold_delta_stream(slurp(deltas.path()));
  EXPECT_TRUE(stream.final_tick);
  EXPECT_GE(stream.ticks, 1u);

  ASSERT_EQ(snapshot.spans.count("obs.stream.reconcile.span"), 1u);
  const obs::SpanStats& span =
      snapshot.spans.at("obs.stream.reconcile.span");
  ASSERT_EQ(stream.last.count("obs.stream.reconcile.span"), 1u);
  const obs::JsonValue& span_rec =
      stream.last.at("obs.stream.reconcile.span");
  EXPECT_EQ(num(span_rec, "cum_count"), static_cast<double>(span.count));
  EXPECT_EQ(num(span_rec, "cum_total_ns"),
            static_cast<double>(span.total_ns));
  EXPECT_EQ(num(span_rec, "min_ns"), static_cast<double>(span.min_ns));
  EXPECT_EQ(num(span_rec, "max_ns"), static_cast<double>(span.max_ns));

  ASSERT_EQ(snapshot.counters.count("obs.stream.reconcile.count"), 1u);
  const obs::CounterStats& counter =
      snapshot.counters.at("obs.stream.reconcile.count");
  const obs::JsonValue& counter_rec =
      stream.last.at("obs.stream.reconcile.count");
  EXPECT_EQ(num(counter_rec, "cum_count"),
            static_cast<double>(counter.count));
  EXPECT_EQ(num(counter_rec, "cum_total"), counter.total);  // bit-exact

  ASSERT_EQ(snapshot.gauges.count("obs.stream.reconcile.gauge"), 1u);
  const obs::GaugeStats& gauge =
      snapshot.gauges.at("obs.stream.reconcile.gauge");
  const obs::JsonValue& gauge_rec =
      stream.last.at("obs.stream.reconcile.gauge");
  EXPECT_EQ(num(gauge_rec, "cum_count"), static_cast<double>(gauge.count));
  EXPECT_EQ(num(gauge_rec, "last"), gauge.last);
  EXPECT_EQ(num(gauge_rec, "min"), gauge.min);
  EXPECT_EQ(num(gauge_rec, "max"), gauge.max);
}

// The lossless-accounting pin: recorder threads wrap a small ring far
// faster than the flusher drains it. Every written ring index must be
// classified exactly once — streamed into the chunk or counted as dropped
// — and the drained timeline must stay in record order per thread (a
// re-drained or torn entry would break monotonicity or the totals).
TEST(ObsStream, WraparoundRacingDrainLosesNothingDoubleCountsNothing) {
  ObsGuard guard;
  constexpr std::uint64_t kThreads = 4;
  constexpr std::uint64_t kSpansPerThread = 20000;
  static const char* kNames[kThreads] = {
      "obs.stream.wrap.a", "obs.stream.wrap.b", "obs.stream.wrap.c",
      "obs.stream.wrap.d"};

  TempFile chunks("wrap.chunks.json");
  obs::set_ring_capacity(256);  // applies to the worker threads below
  obs::set_enabled(true);

  obs::StreamOptions options;
  options.trace_chunk_path = chunks.path();
  options.interval_ms = 1;  // drain as aggressively as the API allows
  obs::StreamSink sink(options);
  sink.start();

  std::vector<std::thread> workers;
  for (std::uint64_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([t] {
      for (std::uint64_t i = 0; i < kSpansPerThread; ++i) {
        DSSLICE_SPAN(kNames[t]);
      }
    });
  }
  for (std::thread& worker : workers) {
    worker.join();
  }
  obs::set_enabled(false);
  sink.stop();

  const obs::StreamStats stats = sink.stats();
  EXPECT_EQ(stats.spans_streamed + stats.spans_dropped,
            kThreads * kSpansPerThread);
  EXPECT_GT(stats.spans_streamed, 0u);

  const obs::JsonParseResult parsed = obs::parse_json(slurp(chunks.path()));
  ASSERT_TRUE(parsed.ok) << parsed.error;  // strict after stop()
  ASSERT_TRUE(parsed.value.is_array());

  std::map<std::string, std::uint64_t> streamed_by_name;
  std::map<double, double> last_ts_by_tid;
  std::uint64_t events = 0;
  for (const obs::JsonValue& event : parsed.value.array) {
    const std::string& name = event.find("name")->string;
    if (name == "obs.stream.stop") {
      continue;
    }
    ++events;
    ++streamed_by_name[name];
    const double tid = event.find("tid")->number;
    const double ts = event.find("ts")->number;
    const auto it = last_ts_by_tid.find(tid);
    if (it != last_ts_by_tid.end()) {
      EXPECT_GE(ts, it->second) << "tid " << tid;  // record order per thread
    }
    last_ts_by_tid[tid] = ts;
  }
  EXPECT_EQ(events, stats.spans_streamed);
  EXPECT_EQ(last_ts_by_tid.size(), kThreads);
  std::uint64_t streamed_total = 0;
  for (std::uint64_t t = 0; t < kThreads; ++t) {
    EXPECT_LE(streamed_by_name[kNames[t]], kSpansPerThread);
    streamed_total += streamed_by_name[kNames[t]];
  }
  EXPECT_EQ(streamed_total, stats.spans_streamed);

  // Aggregate counts bypass the ring and must stay exact regardless of how
  // many timeline entries wrapped away.
  const obs::MetricsSnapshot snapshot = obs::metrics_snapshot();
  for (std::uint64_t t = 0; t < kThreads; ++t) {
    ASSERT_EQ(snapshot.spans.count(kNames[t]), 1u);
    EXPECT_EQ(snapshot.spans.at(kNames[t]).count, kSpansPerThread);
  }
}

// Chunk files must load mid-run (tolerant parse of the truncated array) and
// become strict JSON once stop() appends the summary event and closes the
// array.
TEST(ObsStream, ChunkFileTolerantMidRunStrictAfterStop) {
  ObsGuard guard;
  TempFile chunks("midrun.chunks.json");
  obs::set_enabled(true);

  obs::StreamOptions options;
  options.trace_chunk_path = chunks.path();
  options.interval_ms = 1000;  // ticks driven manually below
  obs::StreamSink sink(options);
  sink.start();

  for (int i = 0; i < 10; ++i) {
    DSSLICE_SPAN("obs.stream.midrun");
  }
  sink.tick_now();  // flushes complete event lines, array still open

  bool completed = true;
  const obs::JsonParseResult midrun =
      obs::parse_streaming_json(slurp(chunks.path()), &completed);
  ASSERT_TRUE(midrun.ok) << midrun.error;
  EXPECT_FALSE(completed);
  ASSERT_TRUE(midrun.value.is_array());
  EXPECT_EQ(midrun.value.array.size(), 10u);

  obs::set_enabled(false);
  sink.stop();

  const obs::JsonParseResult final_doc =
      obs::parse_streaming_json(slurp(chunks.path()), &completed);
  ASSERT_TRUE(final_doc.ok) << final_doc.error;
  EXPECT_TRUE(completed);  // strict document now
  ASSERT_TRUE(final_doc.value.is_array());
  ASSERT_EQ(final_doc.value.array.size(), 11u);
  EXPECT_EQ(final_doc.value.array.back().find("name")->string,
            "obs.stream.stop");
}

TEST(ObsStream, SecondConcurrentSinkIsRejected) {
  ObsGuard guard;
  TempFile deltas("single.deltas.jsonl");
  obs::StreamOptions options;
  options.metrics_delta_path = deltas.path();
  obs::StreamSink first(options);
  first.start();
  obs::StreamSink second(options);
  EXPECT_THROW(second.start(), ConfigError);
  first.stop();
}

TEST(ObsStreamParsers, StreamingJsonAcceptsTruncatedArrays) {
  bool completed = false;

  // Strict documents pass through unchanged.
  EXPECT_TRUE(obs::parse_streaming_json("[1, 2, 3]", &completed).ok);
  EXPECT_TRUE(completed);

  // Cut between lines, trailing comma, no ']'.
  const obs::JsonParseResult between =
      obs::parse_streaming_json("[\n{\"a\":1},\n{\"b\":2},\n", &completed);
  ASSERT_TRUE(between.ok) << between.error;
  EXPECT_FALSE(completed);
  EXPECT_EQ(between.value.array.size(), 2u);

  // Cut mid-record: the partial final line is dropped.
  const obs::JsonParseResult midrecord = obs::parse_streaming_json(
      "[\n{\"a\":1},\n{\"b\":\"unterm", &completed);
  ASSERT_TRUE(midrecord.ok) << midrecord.error;
  EXPECT_FALSE(completed);
  EXPECT_EQ(midrecord.value.array.size(), 1u);

  // A bare '[' header is an empty stream, not an error.
  const obs::JsonParseResult header =
      obs::parse_streaming_json("[\n", &completed);
  ASSERT_TRUE(header.ok) << header.error;
  EXPECT_EQ(header.value.array.size(), 0u);

  // Garbage stays an error; non-array documents are not "repaired".
  EXPECT_FALSE(obs::parse_streaming_json("", &completed).ok);
  EXPECT_FALSE(obs::parse_streaming_json("nonsense", &completed).ok);
}

TEST(ObsStreamParsers, StreamingJsonlDropsOnlyAPartialFinalLine) {
  std::vector<obs::JsonValue> records;
  std::string error;
  bool truncated = false;

  ASSERT_TRUE(obs::parse_streaming_jsonl("{\"a\":1}\n{\"b\":2}\n", records,
                                         error, &truncated));
  EXPECT_EQ(records.size(), 2u);
  EXPECT_FALSE(truncated);

  records.clear();
  ASSERT_TRUE(obs::parse_streaming_jsonl(
      "{\"a\":1}\n{\"b\":2}\n{\"c\":\"unterm", records, error, &truncated));
  EXPECT_EQ(records.size(), 2u);
  EXPECT_TRUE(truncated);

  // A malformed line that is NOT the unterminated final one still fails —
  // tolerance is for mid-write cuts, not corrupt streams.
  records.clear();
  EXPECT_FALSE(obs::parse_streaming_jsonl("{bad}\n{\"a\":1}\n", records,
                                          error, &truncated));
}

// The sweep engine publishes live progress gauges and checkpoint cost
// metrics whether or not a sink is attached (the sink only reads them).
TEST(ObsStream, SweepProgressAndCheckpointMetricsRecorded) {
  ObsGuard guard;
  TempFile ckpt("progress.ckpt");
  obs::set_enabled(true);
  SweepOptions options = small_sweep_options();
  options.checkpoint_path = ckpt.path();
  options.checkpoint_every = 2;
  const SweepReport report = run_sweep(sweep_config(), options);
  obs::set_enabled(false);

  ASSERT_TRUE(report.complete);
  const obs::MetricsSnapshot snapshot = obs::metrics_snapshot();

  ASSERT_EQ(snapshot.counters.count("sweep.progress.scenarios_done"), 1u);
  EXPECT_EQ(snapshot.counters.at("sweep.progress.scenarios_done").total,
            96.0);
  ASSERT_EQ(snapshot.counters.count("sweep.progress.successes"), 1u);
  EXPECT_LE(snapshot.counters.at("sweep.progress.successes").total, 96.0);

  ASSERT_EQ(snapshot.gauges.count("sweep.progress.scenarios_total"), 1u);
  EXPECT_EQ(snapshot.gauges.at("sweep.progress.scenarios_total").last, 96.0);
  ASSERT_EQ(snapshot.gauges.count("sweep.progress.waves_total"), 1u);
  ASSERT_EQ(snapshot.gauges.count("sweep.progress.wave"), 1u);
  EXPECT_EQ(snapshot.gauges.at("sweep.progress.wave").last,
            snapshot.gauges.at("sweep.progress.waves_total").last);
  ASSERT_EQ(snapshot.gauges.count("sweep.progress.shards_done"), 1u);
  EXPECT_EQ(snapshot.gauges.at("sweep.progress.shards_done").last, 6.0);
  ASSERT_EQ(snapshot.gauges.count(
                "sweep.progress.scenarios_per_sec_ewma"), 1u);
  EXPECT_GT(
      snapshot.gauges.at("sweep.progress.scenarios_per_sec_ewma").last, 0.0);

  // Checkpoint cost contract (docs/OBSERVABILITY.md): one save_ms mark per
  // checkpoint written, and the serialized sizes accumulate.
  ASSERT_EQ(snapshot.gauges.count("sweep.checkpoint.save_ms"), 1u);
  EXPECT_EQ(snapshot.gauges.at("sweep.checkpoint.save_ms").count,
            report.checkpoints_written);
  ASSERT_EQ(snapshot.counters.count("sweep.checkpoint.bytes"), 1u);
  EXPECT_EQ(snapshot.counters.at("sweep.checkpoint.bytes").count,
            report.checkpoints_written);
  EXPECT_GT(snapshot.counters.at("sweep.checkpoint.bytes").total, 0.0);

  // The load side mirrors save_ms: a fresh sweep marks no load_ms, a
  // resumed one marks it once, for the one checkpoint it read.
  EXPECT_EQ(snapshot.gauges.count("sweep.checkpoint.load_ms"), 0u);
  obs::reset();
  obs::set_enabled(true);
  options.resume = true;
  const SweepReport resumed = run_sweep(sweep_config(), options);
  obs::set_enabled(false);
  EXPECT_EQ(resumed.shards_resumed, 6u);
  const obs::MetricsSnapshot after = obs::metrics_snapshot();
  ASSERT_EQ(after.gauges.count("sweep.checkpoint.load_ms"), 1u);
  EXPECT_EQ(after.gauges.at("sweep.checkpoint.load_ms").count, 1u);
  EXPECT_GE(after.gauges.at("sweep.checkpoint.load_ms").last, 0.0);
}

// Streaming must be non-interfering: the same sweep with and without an
// attached sink produces bit-identical aggregates (serialized via the
// checkpoint codec, which stores raw double bit patterns).
TEST(ObsStream, SweepAggregatesBitIdenticalWithAndWithoutSink) {
  ObsGuard guard;

  obs::set_enabled(true);
  const SweepReport plain = run_sweep(sweep_config(), small_sweep_options());
  obs::set_enabled(false);
  obs::reset();

  TempFile deltas("sweep.deltas.jsonl");
  TempFile chunks("sweep.chunks.json");
  obs::set_enabled(true);
  obs::StreamOptions options;
  options.metrics_delta_path = deltas.path();
  options.trace_chunk_path = chunks.path();
  options.interval_ms = 1;
  SweepReport streamed;
  {
    obs::StreamSink sink(options);
    sink.start();
    streamed = run_sweep(sweep_config(), small_sweep_options());
    obs::set_enabled(false);
    sink.stop();
  }

  EXPECT_EQ(serialize_sweep_aggregate(streamed.aggregate),
            serialize_sweep_aggregate(plain.aggregate));
  EXPECT_EQ(streamed.scenarios(), plain.scenarios());
}

// A figure sweep runs its (row, graph chunk) work items concurrently. None
// of them may publish sweep.progress.* — per-sweep totals written by
// parallel items would overwrite each other and the heartbeat would report
// more scenarios done than scheduled — so the status file shows a plain
// tick.
TEST(ObsStream, FigureSweepPublishesNoSweepProgress) {
  ObsGuard guard;
  TempFile status("figure.status.json");
  ExperimentConfig base = sweep_config();
  base.generator.graph_count = 8;
  ThreadPool pool(2);
  obs::set_enabled(true);
  obs::StreamOptions options;
  options.status_path = status.path();
  options.interval_ms = 1;
  {
    obs::StreamSink sink(options);
    sink.start();
    (void)sweep_system_size(base, {2, 3}, pool);
    obs::set_enabled(false);
    sink.stop();
  }

  const obs::MetricsSnapshot snapshot = obs::metrics_snapshot();
  for (const auto& [name, counter] : snapshot.counters) {
    EXPECT_NE(name.rfind("sweep.progress.", 0), 0u) << name;
  }
  for (const auto& [name, gauge] : snapshot.gauges) {
    EXPECT_NE(name.rfind("sweep.progress.", 0), 0u) << name;
  }
  // 2 sizes x 4 metrics: one row per size, each one 8-graph work item, and
  // no engine shard.
  EXPECT_EQ(snapshot.counters.count("sweep.shards_completed"), 0u);
  ASSERT_EQ(snapshot.spans.count("sim.figure.row_chunk"), 1u);
  EXPECT_EQ(snapshot.spans.at("sim.figure.row_chunk").count, 2u);

  const std::string heartbeat = slurp(status.path());
  EXPECT_NE(heartbeat.find("\"type\":\"heartbeat\""), std::string::npos)
      << heartbeat;
  EXPECT_NE(heartbeat.find("\"sweep\":false"), std::string::npos)
      << heartbeat;
}

}  // namespace
}  // namespace dsslice

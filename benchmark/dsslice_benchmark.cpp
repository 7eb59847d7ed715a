// Repository benchmark program: runs one workload of the benchmark declared
// in BENCHMARK.json and prints one JSON line of raw results on stdout.
// benchmark/run.py builds this binary, runs one process per workload and
// turns that line into the named metrics.
//
//   dsslice_benchmark --workload sweep-paper --seed 20250707 --seconds 14
//
// Everything runs on one ThreadPool(1) worker in a closed loop: the next
// round starts only after the previous one returned. A run has four phases:
//   1. untimed warm-up (at least --warmup seconds): the first ~0.5 s after
//      process start runs up to 1.5x slower while the CPU clock ramps up;
//   2. --seconds of timed rounds, each a fixed-size call of the library's
//      own entry point (run_sweep, sweep_system_size) and each followed by
//      one cold start: a fresh ThreadPool(1), hence a fresh thread-local
//      sweep arena, running a one-scenario call;
//   3. traced passes: the same work decomposed into the public per-layer
//      calls in the engine's order, each call wrapped in a span kept in
//      memory; the fastest pass gives the per-layer metrics;
//   4. cross-checks that hold at any seed.
// Each round, cold start, traced pass and cross-check is one operation. It
// fails if it throws, does not complete, or its digest differs from the
// one it must reproduce.
#include <unistd.h>

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "dsslice/dsslice.hpp"

namespace {

using namespace dsslice;
using Clock = std::chrono::steady_clock;

// The traced passes run for this share of --seconds.
constexpr double kTraceShare = 0.15;
// Scenarios compared with the batch kernel on and off.
constexpr std::size_t kKernelCheckScenarios = 4096;
const std::vector<std::size_t> kFigureSizes = {2, 3, 4, 5, 6, 7, 8};

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string hex64(std::uint64_t v) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%016llx",
                static_cast<unsigned long long>(v));
  return buffer;
}

std::string num(double v) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", v);
  return buffer;
}

// ---------------------------------------------------------------------------
// Workloads. Sizes are part of the benchmark definition: changing one makes
// results incomparable with every earlier run.
// ---------------------------------------------------------------------------

enum class Kind { kSweep, kResume, kFigure };

struct Workload {
  Kind kind = Kind::kSweep;
  ExperimentConfig config;
  std::size_t scenarios = 0;   // per round
  std::size_t shard_size = 0;  // sweep kinds
  std::size_t max_shards = 0;  // shards per resumed call (kResume)
  std::size_t graphs = 0;      // per figure cell (kFigure)

  std::size_t shard_count() const {
    return (scenarios + shard_size - 1) / shard_size;
  }
};

Workload make_workload(const std::string& name, std::uint64_t seed,
                       std::size_t scale) {
  Workload w;
  w.config.generator.base_seed = seed;
  if (name == "sweep-paper") {
    w.scenarios = 2048 / scale;
    w.shard_size = 1024;
  } else if (name == "sweep-dispatch-wide") {
    w.config.algorithm = SchedulerAlgorithm::kDispatchEdf;
    w.config.scheduler.abort_on_miss = false;
    w.config.generator.workload.min_tasks = 100;
    w.config.generator.workload.max_tasks = 150;
    w.config.generator.workload.olr = 0.6;
    w.config.generator.platform.processor_count = 4;
    w.scenarios = 512 / scale;
    w.shard_size = 256;
  } else if (name == "sweep-ckpt-resume") {
    w.kind = Kind::kResume;
    w.scenarios = 1024 / scale;
    w.shard_size = 16;
    w.max_shards = 2;
  } else if (name == "fig2-experiment") {
    w.kind = Kind::kFigure;
    w.graphs = 32 / scale;
    w.config.generator.graph_count = w.graphs;
    w.scenarios = w.graphs * 4 * kFigureSizes.size();
  } else {
    throw ConfigError("unknown workload '" + name + "'");
  }
  if (w.scenarios == 0) {
    throw ConfigError("--scale leaves workload '" + name + "' empty");
  }
  return w;
}

SweepOptions resume_options(const Workload& w, const std::string& path) {
  SweepOptions o;
  o.scenario_count = w.scenarios;
  o.shard_size = w.shard_size;
  o.checkpoint_path = path;
  o.checkpoint_every = 1;
  o.resume = true;
  o.max_shards = w.max_shards;
  return o;
}

// ---------------------------------------------------------------------------
// Pass results and their digests.
// ---------------------------------------------------------------------------

struct PassResult {
  std::uint64_t digest = 0;
  std::uint64_t successes = 0;
  std::vector<std::uint64_t> cells;  // figure: successes per (series, m)
  bool complete = false;
};

PassResult from_aggregate(const SweepAggregate& aggregate, bool complete) {
  PassResult r;
  r.digest = fnv1a(serialize_sweep_aggregate(aggregate));
  r.successes = aggregate.success.successes();
  r.complete = complete;
  return r;
}

struct FigureCell {
  std::string series;
  std::size_t m = 0;
  std::uint64_t successes = 0;
  double mean_min_laxity = 0.0;
};

// The digest covers each cell's exact success count and the bit pattern of
// its mean min-laxity, the two numbers a figure prints per point.
PassResult from_cells(const std::vector<FigureCell>& cells) {
  PassResult r;
  std::string text;
  for (const FigureCell& c : cells) {
    text += c.series + ' ' + std::to_string(c.m) + ' ' +
            std::to_string(c.successes) + ' ' +
            hex64(std::bit_cast<std::uint64_t>(c.mean_min_laxity)) + '\n';
    r.cells.push_back(c.successes);
    r.successes += c.successes;
  }
  r.digest = fnv1a(text);
  r.complete = true;
  return r;
}

/// One round through the library's own entry point.
PassResult run_pass(const Workload& w, ThreadPool& pool,
                    const std::string& ckpt) {
  switch (w.kind) {
    case Kind::kSweep: {
      SweepOptions o;
      o.scenario_count = w.scenarios;
      o.shard_size = w.shard_size;
      const SweepReport r = run_sweep(w.config, o, pool);
      return from_aggregate(r.aggregate, r.complete);
    }
    case Kind::kResume: {
      std::filesystem::remove(ckpt);
      const SweepOptions o = resume_options(w, ckpt);
      SweepReport r;
      do {
        r = run_sweep(w.config, o, pool);
      } while (!r.complete && r.shards_run > 0);
      std::filesystem::remove(ckpt);
      return from_aggregate(r.aggregate, r.complete);
    }
    case Kind::kFigure: {
      const SweepResult s = sweep_system_size(w.config, kFigureSizes, pool);
      std::vector<FigureCell> cells;
      for (const Series& series : s.series) {
        for (std::size_t j = 0; j < kFigureSizes.size(); ++j) {
          cells.push_back(
              {series.name, kFigureSizes[j],
               static_cast<std::uint64_t>(std::llround(
                   series.success_ratio[j] * static_cast<double>(w.graphs))),
               series.mean_min_laxity[j]});
        }
      }
      return from_cells(cells);
    }
  }
  throw ConfigError("unhandled workload kind");
}

// ---------------------------------------------------------------------------
// In-memory span trace of the decomposed pass.
// ---------------------------------------------------------------------------

enum class SpanKind : std::uint8_t {
  kPass,
  kGen,
  kAnalysis,
  kBatch,
  kCore,
  kSched,
  kFold,
  kMerge,
  kSave,
  kLoad,
};
constexpr std::size_t kSpanKinds = static_cast<std::size_t>(SpanKind::kLoad) + 1;

struct SpanName {
  const char* name;
  const char* layer;  // the library module the span's calls belong to
};
constexpr std::array<SpanName, kSpanKinds> kSpanNames = {{
    {"pass", "pass"},
    {"gen", "gen"},
    {"analysis", "analysis"},
    {"batch", "batch"},
    {"core", "core"},
    {"sched", "sched"},
    {"sweep.fold", "sweep.fold"},
    {"sweep.fold.merge", "sweep.fold"},
    {"sweep.checkpoint.save", "sweep.checkpoint"},
    {"sweep.checkpoint.load", "sweep.checkpoint"},
}};

struct Span {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  // index into the span list, -1 for the root
  std::uint32_t id = 0;      // first scenario of a chunk, scenario or shard
  SpanKind kind = SpanKind::kPass;
};

class Trace {
 public:
  explicit Trace(std::size_t expected_spans) { spans_.reserve(expected_spans); }

  /// Runs body inside a span nested in the innermost open one.
  template <typename F>
  decltype(auto) time(SpanKind kind, std::size_t id, F&& body) {
    const Scope scope(*this, kind, id);
    return body();
  }

  const std::vector<Span>& spans() const { return spans_; }
  /// Duration of the root span.
  std::int64_t wall_ns() const { return spans_[0].end_ns - spans_[0].start_ns; }

 private:
  class Scope {
   public:
    Scope(Trace& trace, SpanKind kind, std::size_t id)
        : trace_(trace), index_(trace.spans_.size()) {
      trace.spans_.push_back(
          {0, 0, trace.open_, static_cast<std::uint32_t>(id), kind});
      trace.open_ = static_cast<std::int32_t>(index_);
      trace.spans_[index_].start_ns = now_ns();
    }
    ~Scope() {
      const std::int64_t end = now_ns();
      Span& span = trace_.spans_[index_];
      span.end_ns = end;
      trace_.open_ = span.parent;
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Trace& trace_;
    std::size_t index_;
  };

  std::vector<Span> spans_;
  std::int32_t open_ = -1;
};

/// Work counts taken at the span boundaries of the traced pass.
struct Counters {
  std::size_t scenarios = 0;
  std::size_t tasks = 0;
  std::size_t scheduled = 0;
  std::size_t batch_passes = 0;
  std::size_t core_passes = 0;
  std::size_t saves = 0;
  std::size_t loads = 0;
  std::uint64_t save_bytes = 0;
  std::uint64_t builds = 0;
  std::uint64_t gen_grow = 0;
  std::uint64_t batch_grow = 0;
  std::uint64_t sched_grow = 0;
};

/// run_sweep decomposed: the engine's shard loop on fresh, caller-owned
/// arenas. kResume repeats the interrupted call until every shard is done,
/// loading and saving the checkpoint as the engine does.
PassResult traced_sweep(const Workload& w, const std::string& ckpt,
                        Trace& trace, Counters& c) {
  const ExperimentConfig& config = w.config;
  const std::size_t gen_chunk = SweepOptions{}.gen_chunk;
  const bool checkpointing = w.kind == Kind::kResume;
  ScenarioBatch batch;
  BatchSliceKernel kernel;
  ScenarioScratch scratch;
  BatchSliceConfig kernel_config;
  kernel_config.metric = metric_of(config.technique);
  kernel_config.params = config.metric_params;
  kernel_config.wcet_strategy = config.wcet_strategy;

  const auto run_shard = [&](std::size_t shard, SweepCheckpoint& state) {
    SweepAggregate aggregate;
    const std::size_t first = shard * w.shard_size;
    const std::size_t last = std::min(first + w.shard_size, w.scenarios);
    for (std::size_t chunk = first; chunk < last; chunk += gen_chunk) {
      const std::size_t n = std::min(gen_chunk, last - chunk);
      trace.time(SpanKind::kGen, chunk,
                 [&] { batch.generate(config.generator, chunk, n); });
      trace.time(SpanKind::kAnalysis, chunk, [&] {
        for (std::size_t i = 0; i < n; ++i) {
          (void)batch[i].application.analysis();
        }
      });
      trace.time(SpanKind::kBatch, chunk,
                 [&] { kernel.run(batch.scenarios(), kernel_config); });
      for (std::size_t i = 0; i < n; ++i) {
        const GraphOutcome outcome = trace.time(SpanKind::kSched, chunk + i, [&] {
          return evaluate_scheduled(config, batch[i], kernel.assignment(i),
                                    kernel.outcome_min_laxity(i),
                                    kernel.stats(i).passes, &scratch);
        });
        trace.time(SpanKind::kFold, chunk + i,
                   [&] { aggregate.add(outcome); });
        c.tasks += batch[i].application.task_count();
        c.batch_passes += kernel.stats(i).passes;
        c.scheduled += outcome.scheduled ? 1 : 0;
      }
      c.scenarios += n;
    }
    trace.time(SpanKind::kFold, shard, [&] {
      state.shards[shard] = aggregate;
      state.completed[shard] = 1;
    });
  };

  const std::size_t shard_count = w.shard_count();
  const std::uint64_t fingerprint = sweep_config_fingerprint(config);
  if (checkpointing) {
    std::filesystem::remove(ckpt);
  }
  SweepAggregate total;
  bool complete = false;
  bool progressed = true;
  while (!complete && progressed) {
    SweepCheckpoint state;
    state.fingerprint = fingerprint;
    state.scenario_count = w.scenarios;
    state.shard_size = w.shard_size;
    state.completed.assign(shard_count, 0);
    state.shards.assign(shard_count, SweepAggregate{});
    if (checkpointing && std::filesystem::exists(ckpt)) {
      trace.time(SpanKind::kLoad, c.loads,
                 [&] { state = load_sweep_checkpoint(ckpt); });
      ++c.loads;
    }
    std::size_t run = 0;
    for (std::size_t s = 0; s < shard_count; ++s) {
      if (state.completed[s] != 0) {
        continue;
      }
      if (w.max_shards != 0 && run == w.max_shards) {
        break;
      }
      run_shard(s, state);
      ++run;
      if (checkpointing) {
        c.save_bytes += trace.time(SpanKind::kSave, s, [&] {
          return save_sweep_checkpoint(state, ckpt);
        });
        ++c.saves;
      }
    }
    total = SweepAggregate{};
    trace.time(SpanKind::kMerge, 0, [&] {
      for (std::size_t s = 0; s < shard_count; ++s) {
        if (state.completed[s] != 0) {
          total.merge(state.shards[s]);
        }
      }
    });
    complete = state.completed_count() == shard_count;
    progressed = run > 0;
  }
  if (checkpointing) {
    std::filesystem::remove(ckpt);
  }
  c.gen_grow = batch.grow_events();
  c.batch_grow = kernel.grow_events();
  c.sched_grow = scratch.sched.grow_events();
  return from_aggregate(total, complete);
}

/// sweep_system_size decomposed: run_experiment's per-graph path
/// (generate_scenario, then the scalar distribution and the scheduler) for
/// every (series, m) cell in the figure's order.
PassResult traced_figure(const Workload& w, Trace& trace, Counters& c) {
  ScenarioScratch scratch;
  std::optional<Scenario> scenario;
  DeadlineAssignment assignment;
  std::vector<FigureCell> cells;
  for (const SeriesSpec& spec : metric_series(w.config)) {
    for (const std::size_t m : kFigureSizes) {
      ExperimentConfig config = spec.factory(static_cast<double>(m));
      config.generator.platform.processor_count = m;
      ExperimentResult result;
      for (std::size_t k = 0; k < w.graphs; ++k) {
        // Assigning over the previous scenario destroys it inside the span.
        trace.time(SpanKind::kGen, k, [&] {
          scenario = generate_scenario(
              config.generator, derive_seed(config.generator.base_seed, k));
        });
        const Application& app = scenario->application;
        trace.time(SpanKind::kAnalysis, k, [&] { (void)app.analysis(); });
        std::size_t passes = 0;
        double laxity = 0.0;
        trace.time(SpanKind::kCore, k, [&] {
          estimate_wcets_into(app, config.wcet_strategy, scratch.est);
          assignment = distribute_for_config(config, app, scenario->platform,
                                             scratch.est, &passes, &scratch);
          laxity = min_laxity(assignment, scratch.est);
        });
        const GraphOutcome outcome = trace.time(SpanKind::kSched, k, [&] {
          return evaluate_scheduled(config, *scenario, assignment, laxity,
                                    passes, &scratch);
        });
        trace.time(SpanKind::kFold, k, [&] { result.add(outcome); });
        c.tasks += app.task_count();
        c.core_passes += passes;
        c.scheduled += outcome.scheduled ? 1 : 0;
        ++c.scenarios;
      }
      cells.push_back({spec.name, m, result.success.successes(),
                       result.min_laxity.mean()});
    }
  }
  trace.time(SpanKind::kGen, 0, [&] { scenario.reset(); });
  trace.time(SpanKind::kCore, 0, [&] { assignment = DeadlineAssignment{}; });
  c.sched_grow = scratch.sched.grow_events();
  return from_cells(cells);
}

// ---------------------------------------------------------------------------
// Per-layer metrics from span self times.
// ---------------------------------------------------------------------------

using Metrics = std::vector<std::pair<std::string, double>>;

/// Percentile p in [0, 100] of span durations; 0 for a layer that did not run.
double percentile(const std::vector<double>& durations, double p) {
  return durations.empty() ? 0.0 : percentile_of(durations, p);
}

Metrics layer_metrics(const Trace& trace, const Counters& c,
                      double timed_round_s) {
  const std::vector<Span>& spans = trace.spans();
  // Self time: a span's duration minus the durations of its children.
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    self[i] = spans[i].end_ns - spans[i].start_ns;
  }
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      self[static_cast<std::size_t>(s.parent)] -= s.end_ns - s.start_ns;
    }
  }
  std::array<double, kSpanKinds> self_ns{};
  std::array<std::vector<double>, kSpanKinds> dur_us;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto k = static_cast<std::size_t>(spans[i].kind);
    self_ns[k] += static_cast<double>(self[i]);
    dur_us[k].push_back(
        static_cast<double>(spans[i].end_ns - spans[i].start_ns) * 1e-3);
  }
  const auto of = [&](SpanKind k) {
    return self_ns[static_cast<std::size_t>(k)];
  };
  const auto durations = [&](SpanKind k) -> const std::vector<double>& {
    return dur_us[static_cast<std::size_t>(k)];
  };
  const auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
  const auto n = static_cast<double>(c.scenarios);
  const auto wall_ns = static_cast<double>(trace.wall_ns());
  const double fold_ns = of(SpanKind::kFold) + of(SpanKind::kMerge);
  const double checkpoint_ns = of(SpanKind::kSave) + of(SpanKind::kLoad);
  const double covered = of(SpanKind::kGen) + of(SpanKind::kAnalysis) +
                         of(SpanKind::kBatch) + of(SpanKind::kCore) +
                         of(SpanKind::kSched) + fold_ns + checkpoint_ns;
  double merge_us = 0.0;
  for (const double d : durations(SpanKind::kMerge)) {
    merge_us += d;
  }

  return {
      {"gen.ns_per_scenario", ratio(of(SpanKind::kGen), n)},
      {"gen.chunk_us_p50", percentile(durations(SpanKind::kGen), 50)},
      {"gen.chunk_us_p90", percentile(durations(SpanKind::kGen), 90)},
      {"gen.tasks_per_scenario", ratio(static_cast<double>(c.tasks), n)},
      {"gen.grow_events", static_cast<double>(c.gen_grow)},
      {"analysis.ns_per_scenario", ratio(of(SpanKind::kAnalysis), n)},
      {"analysis.ns_per_task",
       ratio(of(SpanKind::kAnalysis), static_cast<double>(c.tasks))},
      {"analysis.builds_per_scenario",
       ratio(static_cast<double>(c.builds), n)},
      {"batch.ns_per_scenario", ratio(of(SpanKind::kBatch), n)},
      {"batch.chunk_us_p50", percentile(durations(SpanKind::kBatch), 50)},
      {"batch.chunk_us_p90", percentile(durations(SpanKind::kBatch), 90)},
      {"batch.passes_per_scenario",
       ratio(static_cast<double>(c.batch_passes), n)},
      {"batch.grow_events", static_cast<double>(c.batch_grow)},
      {"core.ns_per_scenario", ratio(of(SpanKind::kCore), n)},
      {"core.scenario_us_p50", percentile(durations(SpanKind::kCore), 50)},
      {"core.scenario_us_p99", percentile(durations(SpanKind::kCore), 99)},
      {"core.passes_per_scenario",
       ratio(static_cast<double>(c.core_passes), n)},
      {"sched.ns_per_scenario", ratio(of(SpanKind::kSched), n)},
      {"sched.scenario_us_p50", percentile(durations(SpanKind::kSched), 50)},
      {"sched.scenario_us_p99", percentile(durations(SpanKind::kSched), 99)},
      {"sched.success_ratio", ratio(static_cast<double>(c.scheduled), n)},
      {"sched.grow_events", static_cast<double>(c.sched_grow)},
      {"fold.ns_per_scenario", ratio(fold_ns, n)},
      {"fold.merge_us", merge_us},
      {"checkpoint.save_ms_p50",
       percentile(durations(SpanKind::kSave), 50) * 1e-3},
      {"checkpoint.save_ms_p90",
       percentile(durations(SpanKind::kSave), 90) * 1e-3},
      {"checkpoint.load_ms_p50",
       percentile(durations(SpanKind::kLoad), 50) * 1e-3},
      {"checkpoint.load_ms_p90",
       percentile(durations(SpanKind::kLoad), 90) * 1e-3},
      {"checkpoint.bytes_per_save",
       ratio(static_cast<double>(c.save_bytes),
             static_cast<double>(c.saves))},
      {"checkpoint.saves", static_cast<double>(c.saves)},
      {"checkpoint.loads", static_cast<double>(c.loads)},
      {"checkpoint.share", ratio(checkpoint_ns, wall_ns)},
      {"trace.coverage", ratio(covered, wall_ns)},
      {"trace.overhead_pct",
       100.0 * (ratio(wall_ns * 1e-9, timed_round_s) - 1.0)},
      {"trace.spans", static_cast<double>(spans.size())},
  };
}

// ---------------------------------------------------------------------------
// Chrome trace_event export, one event per line.
// ---------------------------------------------------------------------------

std::string chrome_trace_json(const Trace& trace) {
  const std::vector<Span>& spans = trace.spans();
  const std::int64_t origin = spans.empty() ? 0 : spans[0].start_ns;
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  char buffer[320];
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const SpanName& name = kSpanNames[static_cast<std::size_t>(s.kind)];
    std::snprintf(buffer, sizeof buffer,
                  "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                  "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                  "\"args\":{\"id\":%u,\"parent\":%d}}%s\n",
                  name.name, name.layer,
                  static_cast<double>(s.start_ns - origin) * 1e-3,
                  static_cast<double>(s.end_ns - s.start_ns) * 1e-3, s.id,
                  s.parent, i + 1 < spans.size() ? "," : "");
    out += buffer;
  }
  out += "]}\n";
  return out;
}

/// Reads the exported file back and checks it with the library's strict
/// JSON parser: one document holding exactly the recorded events.
bool validate_trace_file(const std::string& path, std::size_t events,
                         std::string& error) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  const obs::JsonParseResult parsed = obs::parse_json(text.str());
  if (!parsed.ok) {
    error = parsed.error + " at offset " + std::to_string(parsed.error_offset);
    return false;
  }
  const obs::JsonValue* list = parsed.value.find("traceEvents");
  if (list == nullptr || !list->is_array() || list->array.size() != events) {
    error = "traceEvents missing or not " + std::to_string(events) + " events";
    return false;
  }
  return true;
}

/// One cold start: a fresh ThreadPool(1), hence a fresh thread-local sweep
/// arena, running a one-scenario call. Cold start `index` uses its own
/// scenario stream, so the measurement does not rest on one scenario's cost.
/// kResume instead resumes one shard from the untimed half-done checkpoint,
/// so the checkpoint load is part of the measurement. Returns its seconds.
double cold_start(const Workload& w, std::size_t index, const std::string& ckpt,
                  const std::string& half_ckpt) {
  ExperimentConfig config = w.config;
  if (w.kind == Kind::kResume) {
    std::filesystem::copy_file(
        half_ckpt, ckpt, std::filesystem::copy_options::overwrite_existing);
  } else {
    config.generator.base_seed = derive_seed(config.generator.base_seed, index);
  }
  bool ok = false;
  const std::int64_t t0 = now_ns();
  double seconds = 0.0;
  {
    ThreadPool fresh(1);
    if (w.kind == Kind::kFigure) {
      config.generator.graph_count = 1;
      ok = run_experiment(config, fresh).success.trials() == 1;
    } else if (w.kind == Kind::kResume) {
      SweepOptions o = resume_options(w, ckpt);
      o.max_shards = 1;
      const SweepReport s = run_sweep(config, o, fresh);
      ok = s.shards_run == 1 && s.shards_resumed == w.shard_count() / 2;
    } else {
      SweepOptions o;
      o.scenario_count = 1;
      o.shard_size = w.shard_size;
      const SweepReport s = run_sweep(config, o, fresh);
      ok = s.complete && s.scenarios() == 1;
    }
    seconds = seconds_since(t0);  // the pool's teardown is not set-up
  }
  if (!ok) {
    throw ConfigError("cold start did not complete its call");
  }
  return seconds;
}

// ---------------------------------------------------------------------------
// Operations and the result line.
// ---------------------------------------------------------------------------

class Ops {
 public:
  /// Runs one operation; it fails if it throws or returns false.
  template <typename F>
  bool attempt(const std::string& what, F&& op) {
    ++attempted_;
    std::string why;
    try {
      if (op()) {
        return true;
      }
      why = "check failed";
    } catch (const std::exception& e) {
      why = e.what();
    }
    failures_.push_back(what + ": " + why);
    std::fprintf(stderr, "FAILED %s: %s\n", what.c_str(), why.c_str());
    return false;
  }

  std::size_t attempted() const { return attempted_; }
  const std::vector<std::string>& failures() const { return failures_; }

 private:
  std::size_t attempted_ = 0;
  std::vector<std::string> failures_;
};

std::string json_list(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    out += (i == 0 ? "" : ", ") + num(values[i]);
  }
  return out + "]";
}

/// Peak resident set of this process image in MiB. VmHWM rather than
/// getrusage's ru_maxrss: Linux carries ru_maxrss across exec, so a process
/// spawned from a larger parent would report the parent's peak.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  throw ConfigError("no VmHWM in /proc/self/status");
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli("dsslice_benchmark",
                "Runs one benchmark workload on one worker thread and prints "
                "its raw results as one JSON line (see benchmark/README.md).");
  cli.add_flag("workload", "sweep-paper",
               "sweep-paper | sweep-dispatch-wide | sweep-ckpt-resume | "
               "fig2-experiment");
  cli.add_flag("seed", "20250707", "base seed of the generated scenarios");
  cli.add_flag("seconds", "14",
               "timed seconds of rounds (traced passes add 15% of this)");
  cli.add_flag("warmup", "1", "untimed warm-up seconds");
  cli.add_flag("scale", "1", "divide every workload size by this (smoke: 16)");
  cli.add_flag("tmp-dir", "",
               "directory for checkpoint files (default: system temp dir)");
  cli.add_flag("trace-dir", "",
               "write the traced pass as Chrome trace_event JSON here");
  if (!cli.parse(argc, argv)) {
    return 1;
  }

  try {
    const std::string name = cli.get_string("workload");
    const auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));
    const double seconds = cli.get_double("seconds");
    const double warmup = cli.get_double("warmup");
    const std::int64_t scale = cli.get_int("scale");
    if (scale < 1) {
      throw ConfigError("--scale must be at least 1");
    }
    const Workload w =
        make_workload(name, seed, static_cast<std::size_t>(scale));
    std::filesystem::path tmp = cli.get_string("tmp-dir");
    if (tmp.empty()) {
      tmp = std::filesystem::temp_directory_path();
    }
    std::filesystem::create_directories(tmp);
    const std::string stem =
        "dsslice_benchmark_" + std::to_string(getpid()) + "_" + name;
    const std::string ckpt = (tmp / (stem + ".ckpt")).string();
    const std::string half_ckpt = (tmp / (stem + ".half.ckpt")).string();

    ThreadPool pool(1);
    Ops ops;

    // 1. Warm-up.
    const std::int64_t warm_start = now_ns();
    do {
      (void)run_pass(w, pool, ckpt);
    } while (seconds_since(warm_start) < warmup);

    // 2. Timed rounds back to back, each followed by one cold start. Every
    // round must reproduce the first round's digest.
    if (w.kind == Kind::kResume) {
      SweepOptions half;
      half.scenario_count = w.scenarios;
      half.shard_size = w.shard_size;
      half.checkpoint_path = half_ckpt;
      half.max_shards = w.shard_count() / 2;
      std::filesystem::remove(half_ckpt);
      (void)run_sweep(w.config, half, pool);
    }
    std::optional<PassResult> timed;
    std::vector<double> rates;
    std::vector<double> setups;
    const std::int64_t timed_start = now_ns();
    do {
      const std::int64_t t0 = now_ns();
      const bool ok = ops.attempt("round", [&] {
        const PassResult r = run_pass(w, pool, ckpt);
        if (!timed) {
          timed = r;
        }
        return r.complete && r.digest == timed->digest;
      });
      const double wall = seconds_since(t0);
      if (ok) {
        rates.push_back(static_cast<double>(w.scenarios) / wall);
      }
      ops.attempt("cold start", [&] {
        setups.push_back(cold_start(w, setups.size(), ckpt, half_ckpt));
        return true;
      });
    } while (seconds_since(timed_start) < seconds);
    std::filesystem::remove(half_ckpt);
    std::filesystem::remove(ckpt);
    if (rates.empty() || setups.empty()) {
      throw ConfigError("no round or cold start completed");
    }
    // The fastest round and cold start: on a shared host the other tenants
    // only ever slow a round down, and they do so by up to 2x in cycles
    // of about a second, so the extremes track the code and the medians
    // track the neighbours (see README.md, "Why the fastest round").
    const double scenarios_per_s = *std::max_element(rates.begin(), rates.end());
    const double setup_s = *std::min_element(setups.begin(), setups.end());
    const double rss_mb = peak_rss_mb();

    // 3. Traced passes on the pool's worker; the fastest one gives the
    // per-layer metrics.
    std::optional<Trace> best;
    Counters best_counters;
    const std::int64_t trace_start = now_ns();
    do {
      Trace trace(w.scenarios * 6 + 1024);
      Counters counters;
      const bool ok = ops.attempt("traced pass", [&] {
        PassResult r;
        pool.submit([&] {
          const std::uint64_t builds = GraphAnalysis::construction_count();
          trace.time(SpanKind::kPass, 0, [&] {
            r = w.kind == Kind::kFigure
                    ? traced_figure(w, trace, counters)
                    : traced_sweep(w, ckpt, trace, counters);
          });
          counters.builds = GraphAnalysis::construction_count() - builds;
        });
        pool.wait_idle();
        return r.complete && r.digest == timed->digest;
      });
      if (ok && (!best || trace.wall_ns() < best->wall_ns())) {
        best = std::move(trace);
        best_counters = counters;
      }
    } while (seconds_since(trace_start) < seconds * kTraceShare);
    if (!best) {
      throw ConfigError("no traced pass completed");
    }

    // 4. Cross-checks.
    if (w.kind == Kind::kFigure) {
      ops.attempt("run_experiment vs run_sweep (ADAPT-L, m=3)", [&] {
        ExperimentConfig config = w.config;
        config.technique = DistributionTechnique::kSlicingAdaptL;
        config.generator.platform.processor_count = 3;
        const std::uint64_t experiment =
            run_experiment(config, pool).success.successes();
        SweepOptions o;
        o.scenario_count = w.graphs;
        const std::uint64_t sweep =
            run_sweep(config, o, pool).aggregate.success.successes();
        // The same cell of the timed figure (cells run series-major).
        const std::vector<SeriesSpec> specs = metric_series(w.config);
        const std::string adapt_l = to_string(MetricKind::kAdaptL);
        const auto series = static_cast<std::size_t>(
            std::find_if(specs.begin(), specs.end(),
                         [&](const SeriesSpec& s) { return s.name == adapt_l; }) -
            specs.begin());
        const auto column = static_cast<std::size_t>(
            std::find(kFigureSizes.begin(), kFigureSizes.end(), 3) -
            kFigureSizes.begin());
        const std::uint64_t figure =
            timed->cells.at(series * kFigureSizes.size() + column);
        return experiment == sweep && sweep == figure;
      });
    } else {
      ops.attempt("batch kernel on vs off", [&] {
        SweepOptions on;
        on.scenario_count = std::min(kKernelCheckScenarios, w.scenarios);
        on.shard_size = w.shard_size;
        SweepOptions off = on;
        off.use_batch_kernel = false;
        return serialize_sweep_aggregate(run_sweep(w.config, on, pool).aggregate) ==
               serialize_sweep_aggregate(run_sweep(w.config, off, pool).aggregate);
      });
    }

    const Metrics layers = layer_metrics(
        *best, best_counters,
        static_cast<double>(w.scenarios) / scenarios_per_s);

    std::string trace_file;
    const std::string trace_dir = cli.get_string("trace-dir");
    if (!trace_dir.empty()) {
      std::filesystem::create_directories(trace_dir);
      trace_file = (std::filesystem::path(trace_dir) / (name + ".trace.json"))
                       .string();
      ops.attempt("trace export", [&] {
        std::string error;
        const bool ok =
            write_text_file(trace_file, chrome_trace_json(*best)) &&
            validate_trace_file(trace_file, best->spans().size(), error);
        if (!error.empty()) {
          std::fprintf(stderr, "trace %s: %s\n", trace_file.c_str(),
                       error.c_str());
        }
        return ok;
      });
    }

    std::string out = "{\"workload\": \"" + name + "\", \"seed\": " +
                      std::to_string(seed) + ", \"scale\": " +
                      std::to_string(scale) + ", \"scenarios_per_round\": " +
                      std::to_string(w.scenarios) + ", \"traced_scenarios\": " +
                      std::to_string(best_counters.scenarios);
    out += ", \"scenarios_per_s\": " + num(scenarios_per_s) +
           ", \"setup_s\": " + num(setup_s) + ", \"rounds\": " +
           json_list(rates) + ", \"cold_starts\": " + json_list(setups);
    out += ", \"peak_rss_mb\": " + num(rss_mb);
    out += ", \"per_layer\": {";
    for (std::size_t i = 0; i < layers.size(); ++i) {
      out += (i == 0 ? "\"" : ", \"") + layers[i].first + "\": " +
             num(layers[i].second);
    }
    out += "}, \"digest\": \"" + hex64(timed->digest) + "\", \"successes\": " +
           std::to_string(timed->successes) + ", \"cells\": [";
    for (std::size_t i = 0; i < timed->cells.size(); ++i) {
      out += (i == 0 ? "" : ", ") + std::to_string(timed->cells[i]);
    }
    out += "], \"attempted\": " + std::to_string(ops.attempted()) +
           ", \"failures\": [";
    for (std::size_t i = 0; i < ops.failures().size(); ++i) {
      out += (i == 0 ? "\"" : ", \"") + obs::json_escape(ops.failures()[i]) +
             "\"";
    }
    out += "], \"trace_file\": " +
           (trace_file.empty() ? std::string("null")
                               : "\"" + obs::json_escape(trace_file) + "\"") +
           "}";
    std::printf("%s\n", out.c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dsslice_benchmark: %s\n", e.what());
    return 2;
  }
}

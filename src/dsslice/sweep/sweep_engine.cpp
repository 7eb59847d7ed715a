#include "dsslice/sweep/sweep_engine.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <mutex>
#include <vector>

#include "dsslice/batch/slice_kernel.hpp"
#include "dsslice/core/quality.hpp"
#include "dsslice/gen/scenario_batch.hpp"
#include "dsslice/obs/trace.hpp"
#include "dsslice/sweep/checkpoint.hpp"
#include "dsslice/util/check.hpp"

namespace dsslice {

namespace {

/// Per-thread arena: one scenario batch (generator storage + scratch) and
/// one evaluation scratch, reused across every shard and figure row the
/// thread runs.
/// Arenas self-register so sweep_arena_grow_events() can see the growth
/// counters of live threads; a dying thread flushes its count into the
/// retired tally (the obs registry's live+retired idiom).
class SweepArena {
 public:
  SweepArena();
  ~SweepArena();

  SweepArena(const SweepArena&) = delete;
  SweepArena& operator=(const SweepArena&) = delete;

  ScenarioBatch batch;
  ScenarioScratch scratch;
  BatchSliceKernel kernel;
  DeadlineAssignment assignment;  // distribute_arena_scenario, scalar route

  std::uint64_t grow_events() const {
    return batch.grow_events() + scratch.sched.grow_events() +
           scratch.est_growth.grow_events() + kernel.grow_events();
  }
};

struct ArenaRegistry {
  std::mutex mutex;
  std::vector<const SweepArena*> live;
  std::uint64_t retired = 0;
};

ArenaRegistry& arena_registry() {
  // Leaked on purpose: worker thread_locals may outlive any static with a
  // destructor, and a reachable singleton is not a leak to LSan.
  static ArenaRegistry* registry = new ArenaRegistry;
  return *registry;
}

SweepArena::SweepArena() {
  ArenaRegistry& reg = arena_registry();
  const std::lock_guard<std::mutex> lock(reg.mutex);
  reg.live.push_back(this);
}

SweepArena::~SweepArena() {
  ArenaRegistry& reg = arena_registry();
  const std::lock_guard<std::mutex> lock(reg.mutex);
  std::erase(reg.live, this);
  reg.retired += grow_events();
}

SweepArena& local_arena() {
  thread_local SweepArena arena;
  return arena;
}

BatchSliceConfig kernel_config(const ExperimentConfig& config) {
  BatchSliceConfig slicing;
  slicing.metric = metric_of(config.technique);
  slicing.params = config.metric_params;
  slicing.wcet_strategy = config.wcet_strategy;
  return slicing;
}

void validate_options(const SweepOptions& options) {
  if (options.scenario_count == 0) {
    throw ConfigError("sweep scenario_count must be positive");
  }
  if (options.shard_size == 0) {
    throw ConfigError("sweep shard_size must be positive");
  }
  if (options.resume && options.checkpoint_path.empty()) {
    throw ConfigError("sweep resume requires a checkpoint path");
  }
}

}  // namespace

std::uint64_t sweep_arena_grow_events() {
  ArenaRegistry& reg = arena_registry();
  const std::lock_guard<std::mutex> lock(reg.mutex);
  std::uint64_t total = reg.retired;
  for (const SweepArena* arena : reg.live) {
    total += arena->grow_events();
  }
  return total;
}

void generate_arena_scenario(const GeneratorConfig& generator,
                             std::uint64_t index) {
  local_arena().batch.generate(generator, index, SweepOptions::gen_chunk);
}

ArenaDistribution distribute_arena_scenario(const ExperimentConfig& config,
                                            bool use_batch_kernel) {
  SweepArena& arena = local_arena();
  const Scenario& scenario = arena.batch[0];
  // The kernel is bit-identical to the scalar route below (its equivalence
  // contract), so the choice never shows in a result.
  if (use_batch_kernel && is_slicing(config.technique)) {
    arena.kernel.run(arena.batch.scenarios(), kernel_config(config));
    return {scenario, arena.kernel.assignment(0),
            arena.kernel.outcome_min_laxity(0), arena.kernel.stats(0).passes,
            {}, arena.scratch};
  }
  const std::span<const double> est =
      arena.scratch.estimate(scenario.application, config.wcet_strategy);
  std::size_t passes = 0;
  arena.assignment =
      distribute_for_config(config, scenario.application, scenario.platform,
                            est, &passes, &arena.scratch);
  return {scenario, arena.assignment, min_laxity(arena.assignment, est),
          passes, est, arena.scratch};
}

GraphOutcome evaluate_arena_scenario(const ExperimentConfig& config,
                                     bool use_batch_kernel) {
  const ArenaDistribution d =
      distribute_arena_scenario(config, use_batch_kernel);
  return evaluate_scheduled(config, d.scenario, d.assignment, d.min_laxity,
                            d.passes, &d.scratch);
}

SweepAggregate run_sweep_shard(const ExperimentConfig& config,
                               std::size_t first, std::size_t last,
                               bool use_batch_kernel) {
  DSSLICE_SPAN("sweep.shard");
  SweepAggregate aggregate;
  for (std::size_t k = first; k < last; ++k) {
    generate_arena_scenario(config.generator, k);
    aggregate.add(evaluate_arena_scenario(config, use_batch_kernel));
  }
  DSSLICE_COUNT("sweep.shards_completed", 1);
  return aggregate;
}

SweepReport run_sweep(const ExperimentConfig& config,
                      const SweepOptions& options, ThreadPool& pool) {
  DSSLICE_SPAN("sweep.run");
  validate_options(options);
  config.generator.validate();

  const std::size_t shard_count =
      ceil_div(options.scenario_count, options.shard_size);
  const std::uint64_t fingerprint = sweep_config_fingerprint(config);

  SweepCheckpoint state;
  state.fingerprint = fingerprint;
  state.scenario_count = options.scenario_count;
  state.shard_size = options.shard_size;
  state.completed.assign(shard_count, 0);
  state.shards.assign(shard_count, SweepAggregate{});

  SweepReport report;
  report.shard_count = shard_count;

  if (options.resume &&
      std::filesystem::exists(options.checkpoint_path)) {
    const auto load_t0 = std::chrono::steady_clock::now();
    SweepCheckpoint loaded = load_sweep_checkpoint(options.checkpoint_path);
    const double load_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - load_t0)
            .count();
    DSSLICE_GAUGE("sweep.checkpoint.load_ms", load_ms);
    if (loaded.fingerprint != fingerprint) {
      throw ConfigError(
          "sweep checkpoint " + options.checkpoint_path +
          " was written under a different experiment configuration "
          "(fingerprint mismatch) — refusing to mix aggregates");
    }
    if (loaded.scenario_count != options.scenario_count ||
        loaded.shard_size != options.shard_size) {
      throw ConfigError(
          "sweep checkpoint " + options.checkpoint_path +
          " has a different layout (" +
          std::to_string(loaded.scenario_count) + " scenarios in shards of " +
          std::to_string(loaded.shard_size) + ") than this sweep");
    }
    state = std::move(loaded);
    report.shards_resumed = state.completed_count();
    DSSLICE_COUNT("sweep.shards_resumed",
                  static_cast<std::int64_t>(report.shards_resumed));
  }

  std::vector<std::size_t> pending;
  pending.reserve(shard_count);
  for (std::size_t s = 0; s < shard_count; ++s) {
    if (state.completed[s] == 0) {
      pending.push_back(s);
    }
  }
  if (options.max_shards != 0 && pending.size() > options.max_shards) {
    pending.resize(options.max_shards);
  }

  const bool checkpointing = !options.checkpoint_path.empty();
  const std::size_t wave_width =
      options.checkpoint_every == 0 ? std::max<std::size_t>(1, pending.size())
                                    : options.checkpoint_every;

  // Progress feed for the streaming sink's heartbeat (obs/stream.cpp):
  // cumulative sweep.progress.* counters plus per-wave gauges. Recording
  // them is independent of whether a sink is attached, so a streaming run
  // and a plain run execute identical instruction streams through the
  // sweep itself — the aggregates stay bit-identical either way.
  const std::size_t waves_total = ceil_div(pending.size(), wave_width);
  DSSLICE_GAUGE("sweep.progress.scenarios_total",
                static_cast<std::int64_t>(options.scenario_count));
  DSSLICE_GAUGE("sweep.progress.waves_total",
                static_cast<std::int64_t>(waves_total));
  DSSLICE_GAUGE("sweep.progress.shards_resumed",
                static_cast<std::int64_t>(report.shards_resumed));
  if (report.shards_resumed > 0) {
    std::uint64_t resumed_scenarios = 0;
    std::uint64_t resumed_successes = 0;
    for (std::size_t s = 0; s < shard_count; ++s) {
      if (state.completed[s] != 0) {
        resumed_scenarios += state.shards[s].scenarios();
        resumed_successes += state.shards[s].success.successes();
      }
    }
    DSSLICE_COUNT("sweep.progress.scenarios_done",
                  static_cast<std::int64_t>(resumed_scenarios));
    DSSLICE_COUNT("sweep.progress.successes",
                  static_cast<std::int64_t>(resumed_successes));
  }

  const auto run_one_shard = [&](std::size_t shard) {
    const std::size_t first = shard * options.shard_size;
    const std::size_t last =
        std::min(first + options.shard_size, options.scenario_count);
    state.shards[shard] =
        run_sweep_shard(config, first, last, options.use_batch_kernel);
    state.completed[shard] = 1;
  };

  const auto t0 = std::chrono::steady_clock::now();
  std::size_t scenarios_run = 0;
  double rate_ewma = 0.0;
  for (std::size_t wave = 0; wave < pending.size(); wave += wave_width) {
    const std::size_t wave_end = std::min(wave + wave_width, pending.size());
    const auto wave_t0 = std::chrono::steady_clock::now();
    parallel_for(pool, wave_end - wave,
                 [&](std::size_t k) { run_one_shard(pending[wave + k]); });
    const double wave_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      wave_t0)
            .count();
    std::uint64_t wave_scenarios = 0;
    std::uint64_t wave_successes = 0;
    for (std::size_t k = wave; k < wave_end; ++k) {
      wave_scenarios += state.shards[pending[k]].scenarios();
      wave_successes += state.shards[pending[k]].success.successes();
    }
    scenarios_run += wave_scenarios;
    report.shards_run += wave_end - wave;

    const double wave_rate =
        wave_seconds > 0.0
            ? static_cast<double>(wave_scenarios) / wave_seconds
            : 0.0;
    rate_ewma = rate_ewma == 0.0 ? wave_rate
                                 : 0.25 * wave_rate + 0.75 * rate_ewma;
    DSSLICE_COUNT("sweep.progress.scenarios_done",
                  static_cast<std::int64_t>(wave_scenarios));
    DSSLICE_COUNT("sweep.progress.successes",
                  static_cast<std::int64_t>(wave_successes));
    DSSLICE_GAUGE("sweep.progress.wave",
                  static_cast<std::int64_t>(wave / wave_width + 1));
    DSSLICE_GAUGE("sweep.progress.shards_done",
                  static_cast<std::int64_t>(report.shards_run +
                                            report.shards_resumed));
    DSSLICE_GAUGE("sweep.progress.scenarios_per_sec_ewma", rate_ewma);

    if (checkpointing) {
      DSSLICE_SPAN("sweep.checkpoint");
      const auto save_t0 = std::chrono::steady_clock::now();
      const std::size_t bytes =
          save_sweep_checkpoint(state, options.checkpoint_path);
      const double save_ms =
          std::chrono::duration<double, std::milli>(
              std::chrono::steady_clock::now() - save_t0)
              .count();
      ++report.checkpoints_written;
      DSSLICE_COUNT("sweep.checkpoints_written", 1);
      DSSLICE_GAUGE("sweep.checkpoint.save_ms", save_ms);
      DSSLICE_COUNT("sweep.checkpoint.bytes",
                    static_cast<std::int64_t>(bytes));
    }
  }
  const auto t1 = std::chrono::steady_clock::now();
  report.wall_seconds = std::chrono::duration<double>(t1 - t0).count();

  // Fold in shard-index order — the only order that makes thread count,
  // completion order and resume boundaries invisible in the result.
  for (std::size_t s = 0; s < shard_count; ++s) {
    if (state.completed[s] != 0) {
      report.aggregate.merge(state.shards[s]);
    }
  }
  report.complete = state.completed_count() == shard_count;

  DSSLICE_COUNT("sweep.scenarios", static_cast<std::int64_t>(scenarios_run));
  if (report.wall_seconds > 0.0 && scenarios_run > 0) {
    DSSLICE_GAUGE("sweep.scenarios_per_sec",
                  static_cast<std::int64_t>(
                      static_cast<double>(scenarios_run) /
                      report.wall_seconds));
  }
  return report;
}

SweepReport run_sweep(const ExperimentConfig& config,
                      const SweepOptions& options) {
  return run_sweep(config, options, global_pool());
}

}  // namespace dsslice

// Batched, sharded, resumable sweep engine — the throughput path for the
// roadmap's 10⁶–10⁷-scenario evaluation runs.
//
// Layout: `scenario_count` scenarios are split into shards of `shard_size`
// consecutive scenario indices. A shard is the unit of scheduling,
// aggregation and checkpointing:
//
//   - workers claim shards via the thread pool; within a shard, each
//     scenario is generated into the thread's ScenarioBatch, distributed by
//     its BatchSliceKernel and scheduled with its ScenarioScratch, one
//     scenario per call (larger generator chunks bought no throughput and
//     cost resident memory). After warm-up the whole path is
//     allocation-free (sweep_arena_grow_events() is the counter the benches
//     gate on). That per-scenario step (generate_arena_scenario +
//     evaluate_arena_scenario) is also what every figure row runs;
//   - each shard folds its outcomes into its own SweepAggregate; the final
//     result folds per-shard aggregates in shard-index order, so thread
//     count and completion order cannot perturb a single bit;
//   - shards are run in *waves* of `checkpoint_every`: after each wave
//     barrier the engine persists the completed-shard bitmap plus per-shard
//     aggregates (sweep/checkpoint.hpp). An interrupted sweep resumed from
//     its checkpoint reproduces the uninterrupted aggregates bit-exactly.
#pragma once

#include <cstdint>
#include <string>

#include "dsslice/sim/experiment.hpp"
#include "dsslice/sweep/aggregate.hpp"
#include "dsslice/util/thread_pool.hpp"

namespace dsslice {

struct SweepOptions {
  /// Total number of scenarios (indices [0, scenario_count) under the
  /// config's base seed). Must be positive.
  std::size_t scenario_count = 0;
  /// Scenarios per shard. The shard is the checkpoint/aggregation grain:
  /// smaller shards checkpoint finer but fold more aggregates.
  std::size_t shard_size = 1024;
  /// Scenarios per ScenarioBatch::generate / BatchSliceKernel::run call.
  static constexpr std::size_t gen_chunk = 1;
  /// Checkpoint wave width in shards; 0 = one wave (checkpoint only at the
  /// end, and only when checkpoint_path is set).
  std::size_t checkpoint_every = 0;
  /// Checkpoint file path; empty disables checkpointing entirely.
  std::string checkpoint_path;
  /// When true and checkpoint_path exists, restore completed shards from it
  /// (rejecting fingerprint/layout mismatches) and compute only the rest.
  bool resume = false;
  /// Stop after running this many *new* shards (0 = no limit). This is the
  /// interruption hook: tests and benches use it to abandon a sweep at a
  /// checkpoint boundary and resume it later.
  std::size_t max_shards = 0;
  /// Route slicing techniques through the SoA batch slicing kernel
  /// (batch/slice_kernel.hpp): each generated scenario is distributed by
  /// the kernel, then joined back into evaluate_scheduled. Bit-identical
  /// aggregates to the scalar path by the kernel's equivalence contract. The
  /// off switch serves `sweep_runner --no-batch-kernel` and the repo
  /// benchmark's kernel on/off check. Ignored for non-slicing techniques.
  bool use_batch_kernel = true;
};

struct SweepReport {
  SweepAggregate aggregate;  ///< fold of completed shards in index order
  std::size_t shard_count = 0;
  std::size_t shards_run = 0;      ///< shards computed by this call
  std::size_t shards_resumed = 0;  ///< shards restored from the checkpoint
  std::size_t checkpoints_written = 0;
  bool complete = false;  ///< every shard completed (run or resumed)
  double wall_seconds = 0.0;

  std::uint64_t scenarios() const { return aggregate.scenarios(); }
};

/// Runs (or resumes) a sweep on the given pool. Throws ConfigError for
/// invalid options or a checkpoint that does not match the configuration.
SweepReport run_sweep(const ExperimentConfig& config,
                      const SweepOptions& options, ThreadPool& pool);

/// Convenience overload using the process-wide pool.
SweepReport run_sweep(const ExperimentConfig& config,
                      const SweepOptions& options);

/// The engine's per-scenario step, on the calling thread's arena (one per
/// thread, reused by every shard and figure row the thread runs).
/// generate_arena_scenario draws scenario `index` of `generator`'s stream
/// (seed derive_seed(base_seed, index)) into the arena, replacing the one
/// it held. The generator config must be valid.
void generate_arena_scenario(const GeneratorConfig& generator,
                             std::uint64_t index);

/// Evaluates the arena's current scenario under `config`: through the batch
/// slicing kernel and evaluate_scheduled for a slicing technique when
/// use_batch_kernel is set, through evaluate_generated otherwise. This is
/// the one evaluation driver: run_sweep_shard folds its outcomes directly,
/// and a figure row (sim/sweeps.hpp) evaluates one generated scenario under
/// every cell that shares its generator config. `config.generator` must be
/// the stream the scenario was drawn from. Allocation-free once warm.
GraphOutcome evaluate_arena_scenario(const ExperimentConfig& config,
                                     bool use_batch_kernel = true);

/// One shard of a sweep: generates and evaluates scenarios [first, last)
/// on the calling thread's arena and folds their outcomes in index order.
/// run_sweep runs every shard through this function, so a sweep whose
/// single shard covers [0, n) returns exactly run_sweep_shard(config, 0, n).
/// Records the sweep.shard span and sweep.shards_completed counter, but
/// none of run_sweep's progress metrics. The config must be valid.
SweepAggregate run_sweep_shard(const ExperimentConfig& config,
                               std::size_t first, std::size_t last,
                               bool use_batch_kernel = true);

/// Capacity growths observed inside the sweep's per-thread arenas
/// (generator batch storage + scratch, scheduler workspaces, estimate
/// buffers) since process start, including arenas of exited threads. Warm
/// sweeps must not move this counter — the zero-allocation gate enforced by
/// the sweep tests and reported as *.grow_events by the repo benchmark.
std::uint64_t sweep_arena_grow_events();

}  // namespace dsslice

// Experiment execution: one experiment is one shard of the sweep engine.
//
// run_experiment evaluates graph k from derive_seed(base_seed, k) through
// the same batched generator, batch slicing kernel and per-thread arena as
// every million-scenario sweep, and folds the outcomes in index order.
#pragma once

#include "dsslice/sim/experiment.hpp"
#include "dsslice/sweep/aggregate.hpp"
#include "dsslice/util/thread_pool.hpp"

namespace dsslice {

/// Runs config.generator.graph_count task sets as one sweep shard on the
/// calling thread (run_sweep_shard over [0, graph_count)) and returns its
/// aggregate: bit-identical to a checkpoint-free run_sweep with a single
/// shard. Safe to call from a pool worker. A figure (sim/sweeps.hpp) does
/// not call it per cell: it evaluates cells that share a generator config
/// on one scenario stream, with the same per-scenario step and fold order,
/// so each cell still equals run_experiment(cell config). Publishes no
/// sweep.progress.* metrics, so concurrent experiments never overwrite a
/// sweep's live progress. Throws ConfigError for an invalid config.
SweepAggregate run_experiment(const ExperimentConfig& config);

/// Same as above; the pool is unused. Kept for callers written against the
/// pooled signature (benchmark/dsslice_benchmark.cpp).
SweepAggregate run_experiment(const ExperimentConfig& config,
                              ThreadPool& pool);

}  // namespace dsslice

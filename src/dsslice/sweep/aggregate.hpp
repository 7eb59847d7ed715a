// Streaming aggregate of scenario outcomes: the result type of every
// evaluation, from a one-experiment figure cell (run_experiment) to a
// million-scenario sweep.
//
// A sweep never retains per-scenario outcomes: every shard folds its
// GraphOutcomes into one SweepAggregate online (O(1) memory per shard) and
// the engine merges the per-shard aggregates in shard-index order. Because
// Welford merges are order-sensitive in the last bits, that fixed fold
// order is what makes 1-thread and N-thread sweeps — and interrupted-then-
// resumed sweeps — produce bit-identical results.
#pragma once

#include <string>

#include "dsslice/sim/experiment.hpp"
#include "dsslice/util/stats.hpp"

namespace dsslice {

/// Online aggregate over a set of scenario outcomes: the success count, the
/// moments of each secondary measure, and a laxity histogram so a sweep can
/// report the *distribution* of min-laxity (the infeasibility tail), not
/// just its moments, without retaining scenarios.
struct SweepAggregate {
  SuccessCounter success;
  RunningStats min_laxity;
  RunningStats max_lateness;   ///< over outcomes with lateness_valid
  RunningStats makespan;       ///< over successful schedules
  RunningStats slicing_passes;
  RunningStats task_count;
  LinearHistogram laxity;      ///< min-laxity distribution (default range)

  void add(const GraphOutcome& outcome);
  /// Order-sensitive merge — callers must fold shards in index order.
  void merge(const SweepAggregate& other);

  std::uint64_t scenarios() const { return success.trials(); }
  double success_ratio() const { return success.ratio(); }

  /// One-line human-readable summary.
  std::string summary(const std::string& label) const;
};

/// Former name of run_experiment's result, kept for code that still spells
/// it (benchmark/dsslice_benchmark.cpp).
using ExperimentResult = SweepAggregate;

}  // namespace dsslice

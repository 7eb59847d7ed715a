// Figure rows: the one batch driver behind every figure sweep
// (sim/sweeps.hpp) and every robustness batch (robust/robustness_harness.hpp).
// Internal to the library; dsslice.hpp does not export it.
//
// A caller describes its cells by the scenario stream each one draws
// (`streams[i]`: scenario k is derive_seed(base_seed, k) of that generator
// config) and evaluates them with `evaluate(cell, k)`, which reads scenario
// k from the calling thread's sweep arena (evaluate_arena_scenario or
// distribute_arena_scenario). Cells whose streams are exactly equal (every
// field, doubles by bit pattern) form a row: the pool runs one task per
// (row, graph chunk), which generates each scenario once and evaluates it
// under every cell of the row. Each cell's outcomes are folded in scenario
// order, so no aggregate depends on the pool size or on which cells share
// its row.
#pragma once

#include <cstddef>
#include <span>
#include <type_traits>
#include <vector>

#include "dsslice/gen/generator_config.hpp"
#include "dsslice/obs/trace.hpp"
#include "dsslice/sweep/sweep_engine.hpp"
#include "dsslice/util/thread_pool.hpp"

namespace dsslice::detail {

/// The rows of a set of cells and the (row, graph range) work items that
/// cover them. rows[r] lists its cells in cell order.
struct FigureRowPlan {
  struct Chunk {
    std::size_t row;
    std::size_t first;
    std::size_t last;
  };
  std::vector<std::vector<std::size_t>> rows;
  std::vector<Chunk> chunks;
};

/// Groups cells by stream and splits each row's graph range into chunks.
FigureRowPlan plan_figure_rows(std::span<const GeneratorConfig> streams);

/// Runs every cell and returns one aggregate per g = cells_per_fold
/// consecutive cells: aggregate j folds cells [j·g, (j+1)·g) one after the
/// other, each over its scenarios in index order (Aggregate::add). Pool
/// workers call `evaluate` concurrently, for different (cell, k). The
/// streams must be valid and streams.size() a multiple of cells_per_fold.
template <typename Aggregate, typename Evaluate>
std::vector<Aggregate> run_figure_rows(std::span<const GeneratorConfig> streams,
                                       std::size_t cells_per_fold,
                                       ThreadPool& pool, Evaluate&& evaluate) {
  using Outcome = std::invoke_result_t<Evaluate&, std::size_t, std::size_t>;
  const FigureRowPlan plan = plan_figure_rows(streams);

  // outcomes[i][k] is cell i's outcome on scenario k. Every chunk writes
  // its own slots, so workers never share one.
  std::vector<std::vector<Outcome>> outcomes(streams.size());
  for (std::size_t i = 0; i < streams.size(); ++i) {
    outcomes[i].resize(streams[i].graph_count);
  }
  parallel_for(pool, plan.chunks.size(), [&](std::size_t w) {
    DSSLICE_SPAN("sim.figure.row_chunk");
    const FigureRowPlan::Chunk& chunk = plan.chunks[w];
    const std::vector<std::size_t>& row = plan.rows[chunk.row];
    for (std::size_t k = chunk.first; k < chunk.last; ++k) {
      generate_arena_scenario(streams[row.front()], k);
      for (const std::size_t cell : row) {
        outcomes[cell][k] = evaluate(cell, k);
      }
    }
  });

  std::vector<Aggregate> folds(streams.size() / cells_per_fold);
  for (std::size_t i = 0; i < streams.size(); ++i) {
    for (const Outcome& outcome : outcomes[i]) {
      folds[i / cells_per_fold].add(outcome);
    }
  }
  return folds;
}

}  // namespace dsslice::detail

#include "dsslice/sim/figure_rows.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>

namespace dsslice::detail {

namespace {

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

// The row key: cells share one generated scenario stream only when every
// generator field is equal, doubles by bit pattern (so -0.0 and 0.0 differ).
// The structured bindings stop compiling when a field is added, so the key
// cannot silently ignore one.
bool same_stream(const PlatformConfig& a, const PlatformConfig& b) {
  const auto& [m, min_classes, max_classes, bus, deviation, model] = a;
  return m == b.processor_count && min_classes == b.min_class_count &&
         max_classes == b.max_class_count &&
         same_bits(bus, b.bus_delay_per_item) &&
         same_bits(deviation, b.class_deviation) && model == b.class_model;
}

bool same_stream(const WorkloadConfig& a, const WorkloadConfig& b) {
  const auto& [min_tasks, max_tasks, min_depth, max_depth, min_degree,
               max_degree, locality, mean_c, etd, inel, olr, spread, ccr,
               min_opt, max_opt, integral] = a;
  return min_tasks == b.min_tasks && max_tasks == b.max_tasks &&
         min_depth == b.min_depth && max_depth == b.max_depth &&
         min_degree == b.min_degree && max_degree == b.max_degree &&
         locality == b.edge_locality &&
         same_bits(mean_c, b.mean_execution_time) && same_bits(etd, b.etd) &&
         same_bits(inel, b.ineligible_probability) && same_bits(olr, b.olr) &&
         same_bits(spread, b.olr_spread) && same_bits(ccr, b.ccr) &&
         same_bits(min_opt, b.min_optional_fraction) &&
         same_bits(max_opt, b.max_optional_fraction) &&
         integral == b.integral_messages;
}

bool same_stream(const GeneratorConfig& a, const GeneratorConfig& b) {
  const auto& [platform, workload, graph_count, base_seed] = a;
  return same_stream(platform, b.platform) &&
         same_stream(workload, b.workload) && graph_count == b.graph_count &&
         base_seed == b.base_seed;
}

/// Graphs per (row, graph chunk) work item: small enough that a figure
/// with fewer rows than workers still spreads over the pool, large enough
/// that dispatch is noise next to the row's evaluations.
constexpr std::size_t kRowChunk = 16;

}  // namespace

FigureRowPlan plan_figure_rows(std::span<const GeneratorConfig> streams) {
  FigureRowPlan plan;
  for (std::size_t i = 0; i < streams.size(); ++i) {
    const auto row =
        std::find_if(plan.rows.begin(), plan.rows.end(), [&](const auto& r) {
          return same_stream(streams[r.front()], streams[i]);
        });
    if (row == plan.rows.end()) {
      plan.rows.push_back({i});
    } else {
      row->push_back(i);
    }
  }
  for (std::size_t r = 0; r < plan.rows.size(); ++r) {
    const std::size_t graphs = streams[plan.rows[r].front()].graph_count;
    for (std::size_t first = 0; first < graphs; first += kRowChunk) {
      plan.chunks.push_back({r, first, std::min(first + kRowChunk, graphs)});
    }
  }
  return plan;
}

}  // namespace dsslice::detail

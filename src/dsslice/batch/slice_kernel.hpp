// Batch slicing kernel — the sweep engine's slicing hot path.
//
// The million-scenario sweep (sweep/sweep_engine.hpp) spends most of its
// time slicing: per scenario it estimates WCETs, computes metric weights,
// and peels critical paths off the task graph until every task owns a
// window. The scalar pipeline (run_slicing) keeps its DP state in AoS form
// (vector<PathCandidate> entries, vector<bool> assigned flags), rescans
// every remaining task per pass and tests each neighbour for assignment.
// BatchSliceKernel runs the same computation one scenario at a time through
// reused per-node buffers:
//
//  * Staging. c̄ (estimate_wcets_into), the mandatory demand of imprecise
//    workloads (mandatory_estimates_into — precise scenarios peel straight
//    from c̄) and the metric weights (DeadlineMetric::weights_into) land in
//    kernel-owned buffers sized by the largest task count seen.
//  * One setup loop. In reverse topological order it fills the anchors,
//    the initial Π-sinks and pass 0's latest-finish bounds L(v) in one go;
//    pass 0's forward DP then runs densely in topological order.
//  * Live adjacency. The kernel copies the graph's CSR successor and
//    predecessor lists once per scenario (2·|A| ids) and, when a spine is
//    assigned, removes its nodes from their unassigned neighbours' lists by
//    stable removal. The lists keep CSR order, so every fold visits
//    neighbours in the scalar path's order, and every walk reads only
//    unassigned neighbours without a membership test. A list's length is
//    the node's unassigned degree: Π-sources and Π-sinks are the nodes with
//    an empty predecessor or successor list.
//  * Incremental peel passes. The DP state lives in packed per-node records
//    (L(v) with the weight; start, Σw, count, prev and score), and two
//    dirty sets indexed by topological position, walked word by word via
//    countl_zero / countr_zero, hold the nodes a pass must recompute: an
//    anchor tightened, a neighbour assigned, a successor's L or a
//    predecessor's (start, Σw, count) changed bitwise. A node whose
//    recomputed value is bitwise unchanged stops the propagation, so the
//    incremental walk reads exactly the values a full recompute would
//    produce: the speedup is structural, never approximate. The sink of
//    each pass is the (score, id) minimum over a bitset of the current
//    Π-sinks.
//  * Inline spine slicing. The window is sliced over the spine inside the
//    kernel with the expressions and preconditions of
//    DeadlineMetric::adaptive_slices_into / slices_into, and the metric's
//    path_value() is inlined into the DP fold, both through a MetricKind
//    template, so a pass makes no out-of-line metric call.
//
// run() takes a span because the sweep hands it a ScenarioBatch window; it
// is a plain loop that stages and peels one scenario at a time.
//
// Bit-identity contract: for every scenario, every metric and any batch
// size, the kernel's windows, pass indices, slicing stats and min-laxities
// are bit-identical to the scalar pipeline (estimate_wcets_into →
// mandatory_estimates_into → run_slicing with default options), which
// stays the one reference (SweepOptions::use_batch_kernel = false routes
// the sweep through it). Candidate ranking is expression-for-expression
// core/critical_path.hpp's path_candidate_better; every floating-point fold
// keeps the scalar evaluation order. Enforced by tests/test_batch_kernel.cpp.
//
// Zero-warm-allocation: all storage is capacity-tracked; a warm kernel
// re-run over a batch whose shapes were seen before performs no heap
// allocation (grow_events() stays flat — the same contract as
// ScenarioBatch and SweepArena). Per-node buffers reserve to the largest
// task count seen, the adjacency copy to twice the largest arc count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "dsslice/core/metrics.hpp"
#include "dsslice/core/slicing.hpp"
#include "dsslice/core/wcet_estimate.hpp"
#include "dsslice/gen/taskgraph_generator.hpp"
#include "dsslice/model/task.hpp"
#include "dsslice/util/growth.hpp"

namespace dsslice {

/// One slicing configuration applied to every scenario of a batch (the
/// sweep evaluates one technique per run, so this is not per-scenario).
struct BatchSliceConfig {
  MetricKind metric = MetricKind::kAdaptL;
  MetricParams params;
  WcetEstimation wcet_strategy = WcetEstimation::kAverage;
};

/// Reusable batch slicing kernel. One instance per worker thread; run()
/// overwrites all per-batch state. Results stay valid until the next run().
class BatchSliceKernel {
 public:
  /// Slices every scenario of the batch: per scenario k the deadline
  /// assignment, slicing stats and outcome min-laxity are available through
  /// the accessors afterwards. Scenarios must satisfy run_slicing's
  /// preconditions (acyclic graph, an E-T-E deadline on every output task,
  /// ≥1 processor).
  void run(std::span<const Scenario> scenarios, const BatchSliceConfig& config);

  std::size_t size() const { return batch_size_; }

  /// Execution windows of scenario k (bit-identical to run_slicing).
  const DeadlineAssignment& assignment(std::size_t k) const {
    return assignments_[k];
  }
  /// Slicing diagnostics of scenario k; stats(k).min_laxity is over the
  /// *slicing* estimates (mandatory demand for imprecise workloads).
  const SlicingStats& stats(std::size_t k) const { return stats_[k]; }
  /// min_i (d_i − c̄_i) over the ORIGINAL estimates — the quantity
  /// evaluate_generated reports as GraphOutcome::min_laxity.
  double outcome_min_laxity(std::size_t k) const {
    return outcome_min_laxity_[k];
  }
  /// Capacity growths of any kernel-owned buffer since construction. Warm
  /// re-runs at previously-seen shapes must not move this counter.
  std::uint64_t grow_events() const { return growth_.grow_events(); }

 private:
  /// Hint for per-node buffers: the largest task count ever seen.
  std::size_t node_hint() const { return max_tasks_seen_; }

  template <MetricKind Kind>
  void peel_scenario(std::size_t k, const Application& app,
                     std::span<const double> est);

  // ---- per-scenario staging ----
  std::size_t batch_size_ = 0;
  std::size_t max_tasks_seen_ = 0;   // running max task count per scenario
  std::size_t max_arcs_seen_ = 0;    // running max arc count (adj_ hint)
  std::vector<double> est_;          // c̄
  std::vector<double> mandatory_;    // mandatory demand (imprecise only)
  std::vector<double> weights_;      // metric weights ĉ / c̄
  MetricWorkspace metric_ws_;

  // ---- per-batch results ----
  std::vector<DeadlineAssignment> assignments_;
  std::vector<SlicingStats> stats_;
  std::vector<double> outcome_min_laxity_;

  // One node's forward-DP record, packed so a candidate evaluation touches
  // a single cache line instead of five parallel arrays (exactly 32 bytes,
  // alignas keeps every record inside one line). The per-scenario DP state
  // is the one deliberately AoS corner of the kernel: the forward fold reads
  // all fields of a predecessor together, so splitting them only multiplies
  // cache traffic.
  struct alignas(32) NodeDp {
    Time start;
    double sum;
    double score;
    std::uint32_t count;
    NodeId prev;
  };
  static_assert(sizeof(NodeDp) == 32);
  /// Backward-pass record: L(v) plus the (immutable) metric weight, packed
  /// because the backward fold reads both per unassigned successor.
  struct LatestWeight {
    Time latest;
    double weight;
  };
  /// A node's live adjacency: its unassigned successors and predecessors,
  /// kept in CSR order as ranges of adj_. The lengths double as the
  /// unassigned-degree counters (Π-source: pred_len == 0, Π-sink:
  /// succ_len == 0).
  struct LiveAdjacency {
    std::uint32_t succ_at;
    std::uint32_t succ_len;
    std::uint32_t pred_at;
    std::uint32_t pred_len;
  };

  // ---- peel-engine scratch (sized per scenario) ----
  std::vector<Time> arrival_;             // anchor arrivals (−inf = unset)
  std::vector<Time> deadline_;            // anchor deadlines (+inf = unset)
  std::vector<LatestWeight> lw_;          // backward-pass L(v) + weight
  std::vector<NodeDp> dp_;                // forward-DP records
  std::vector<std::uint32_t> pos_of_;     // node id → topological position
  std::vector<LiveAdjacency> live_;       // per-node live neighbour ranges
  std::vector<NodeId> adj_;               // live neighbour ids, 2·|A|
  std::vector<std::uint64_t> sink_bits_;        // current Π-sinks (node ids)
  std::vector<std::uint64_t> dirty_back_;       // backward-pass work list
  std::vector<std::uint64_t> dirty_fwd_;        // forward-pass work list
  std::vector<NodeId> path_nodes_;        // current spine

  // Every buffer grows through growth_.reserve with a hint: the largest
  // task count seen for per-node buffers, so a buffer jumps straight to
  // that size. Without the hint, a late scenario larger than any this
  // buffer had held (one only some scenarios touch: the mandatory-demand
  // buffer, a result slot), though no larger than the sweep's largest,
  // would re-allocate mid-steady-state and trip the zero-warm-growth gate.
  GrowthCounter growth_;
};

}  // namespace dsslice

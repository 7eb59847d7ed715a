// The SLICING deadline-distribution algorithm (Fig. 1 of the paper).
//
// Given an application (task graph + E-T-E timing requirements), estimated
// WCETs, and a critical-path metric, the algorithm repeatedly:
//   1. finds the most critical remaining path (critical_path.hpp),
//   2. partitions that path's window into non-overlapping slices according
//      to the metric (metrics.hpp), clamped into any anchors the tasks
//      accumulated from earlier passes,
//   3. propagates new anchors to the immediate neighbours of the assigned
//      tasks (anchors.hpp),
// until every task owns an execution window (a_i, D_i).
//
// The result guarantees, by construction:
//  * path constraint (Eq. 1): Σ d_i ≤ D_ete along every input→output path;
//  * non-overlap (I1/I2): for any arc u→v, D_u ≤ a_v — each task finishes
//    before its successors arrive, eliminating precedence-induced jitter.
// Windows may be infeasibly small (even negative) when the E-T-E deadline
// is tighter than the workload — the scheduler then rejects the task set,
// which is exactly the success-ratio signal the paper measures.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "dsslice/core/critical_path.hpp"
#include "dsslice/core/metrics.hpp"
#include "dsslice/core/wcet_estimate.hpp"
#include "dsslice/model/application.hpp"
#include "dsslice/model/task.hpp"

namespace dsslice {

/// Diagnostics of one slicing run.
struct SlicingStats {
  /// Number of critical paths peeled off (main-loop iterations).
  std::size_t passes = 0;
  /// Metric value R of the first (most critical) path.
  double first_path_metric = 0.0;
  /// Length of the first critical path in tasks.
  std::size_t first_path_length = 0;
  /// Minimum laxity min_i (d_i − c̄_i) over all tasks after distribution.
  double min_laxity = 0.0;
  /// True when every window fits its task's estimated WCET (necessary but
  /// not sufficient for schedulability).
  bool windows_feasible = false;
};

/// One main-loop iteration of the algorithm, for explain/debug output:
/// which path was judged most critical, over which window, at what metric
/// value.
struct SlicingPass {
  std::vector<NodeId> path;
  Time window_start = kTimeZero;
  Time window_end = kTimeZero;
  double metric_value = 0.0;
  /// Relative deadlines assigned to the path tasks, in path order.
  std::vector<double> slices;
};

/// Full decision trace of a slicing run (one entry per pass). Intended for
/// explainability and tests; costs O(n) extra memory when requested.
struct SlicingTrace {
  std::vector<SlicingPass> passes;

  /// Multi-line human-readable rendering ("pass 0: t3 -> t7 -> ... R=12.5").
  std::string to_string(const Application& app) const;
};

/// Reusable buffers for run_slicing. A run always needs per-pass scratch
/// (metric weights, the critical-path DP arrays, the per-path weight /
/// estimate / slice vectors); pointing SlicingOptions::workspace at one of
/// these keeps every buffer alive across runs, so steady-state slicing
/// performs no heap allocation beyond the returned DeadlineAssignment.
/// One workspace per thread — runs sharing a workspace must not overlap.
struct SlicingWorkspace {
  std::vector<double> weights;       ///< per-task metric weights ĉ / c̄
  MetricWorkspace metric;            ///< DeadlineMetric scratch
  CriticalPathSearch search;         ///< DP arrays of the path search
  CriticalPath path;                 ///< current spine (nodes reused)
  std::vector<double> path_weights;  ///< ĉ along the current spine
  std::vector<double> path_est;      ///< c̄ along the current spine
  std::vector<double> slices;        ///< relative deadlines of the spine
};

struct SlicingOptions {
  /// Optional shared-resource requirements: consumed by the resource-aware
  /// ADAPT-L weights (see DeadlineMetric::weights_into). Not owned.
  const ResourceModel* resources = nullptr;
  /// When set, the run records every pass (path, window, metric value,
  /// slices) into this trace. Not owned; cleared at the start of the run.
  SlicingTrace* trace = nullptr;
  /// When set, the run borrows these buffers instead of allocating its own
  /// (identical results either way). Not owned; contents are unspecified
  /// after the run.
  SlicingWorkspace* workspace = nullptr;
};

/// Runs the slicing algorithm and returns per-task execution windows.
///
/// `est_wcet` must come from estimate_wcets(app, ...); `processor_count` is
/// the m used by the adaptive metrics' surplus factors. The application must
/// be acyclic with a finite E-T-E deadline on every output task.
DeadlineAssignment run_slicing(const Application& app,
                               std::span<const double> est_wcet,
                               const DeadlineMetric& metric,
                               std::size_t processor_count,
                               SlicingStats* stats = nullptr,
                               const SlicingOptions& options = {});

/// Recycling variant of run_slicing: writes the windows into `out`
/// (windows resized, pass_of reassigned) so batch drivers reuse one
/// DeadlineAssignment per slot instead of reallocating. Bit-identical to
/// run_slicing — the value-returning overload delegates here.
void run_slicing_into(DeadlineAssignment& out, const Application& app,
                      std::span<const double> est_wcet,
                      const DeadlineMetric& metric,
                      std::size_t processor_count,
                      SlicingStats* stats = nullptr,
                      const SlicingOptions& options = {});

/// Convenience overload: estimates WCETs internally.
DeadlineAssignment run_slicing(const Application& app,
                               MetricKind metric_kind,
                               std::size_t processor_count,
                               WcetEstimation wcet_strategy =
                                   WcetEstimation::kAverage,
                               const MetricParams& params = {},
                               SlicingStats* stats = nullptr);

}  // namespace dsslice

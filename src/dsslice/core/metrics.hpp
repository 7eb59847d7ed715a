// Critical-path metrics for the slicing technique (§4.5).
//
// A metric does three jobs:
//  1. `weights_into()` — per-task weight w_i used throughout one slicing
//     run.
//     For PURE/NORM this is the estimated WCET c̄_i; for the adaptive
//     metrics it is the *virtual execution time* ĉ_i (Eqs. 6 and 8), which
//     inflates c̄_i for tasks above the execution-time threshold in
//     proportion to the contention they are expected to face.
//  2. `path_value()` — the laxity-ratio R of a candidate path (Eqs. 2, 4);
//     the critical path is the one *minimizing* R.
//  3. `slices_into()` — the relative deadlines d_i that partition a path's
//     window (Eqs. 3, 5): equal-share for PURE/ADAPT-*, proportional for
//     NORM. Slices always tile the window exactly: Σ d_i = |window|.
#pragma once

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "dsslice/model/application.hpp"
#include "dsslice/model/resources.hpp"
#include "dsslice/model/time.hpp"

namespace dsslice {

enum class MetricKind {
  kPure,    ///< pure laxity ratio — equal laxity share per task [5]
  kNorm,    ///< normalized laxity ratio — laxity ∝ execution time [5]
  kAdaptG,  ///< globally adaptive — surplus from average parallelism ξ [12]
  kAdaptL,  ///< locally adaptive — surplus from the parallel set Ψ_i (new)
};

std::string to_string(MetricKind kind);

/// All four metrics, in presentation order (handy for sweeps).
std::span<const MetricKind> all_metric_kinds();

/// Tunables of the adaptive metrics with the paper's default values (§6).
struct MetricParams {
  /// Global adaptivity factor k_G (ADAPT-G surplus = k_G · ξ / m).
  double k_global = 1.5;
  /// Local adaptivity factor k_L (ADAPT-L surplus = k_L · |Ψ_i| / m).
  double k_local = 0.2;
  /// Execution-time threshold as a multiple of the mean estimated WCET
  /// (paper: c_thres = 1.0 · c_mean). Only tasks with c̄_i ≥ c_thres receive
  /// a virtual execution time.
  double threshold_factor = 1.0;
  /// When set, an absolute threshold overriding threshold_factor.
  std::optional<double> threshold_override;
  /// Resource adaptivity factor k_R for the resource-aware ADAPT-L
  /// extension (§7.3 future work): parallel tasks sharing an exclusive
  /// resource with τ_i contribute k_R each to the virtual-time surplus
  /// (they serialize regardless of the processor count).
  double k_resource = 0.2;
  /// Temporal filtering of the parallel sets (ADAPT-L only; off = paper
  /// Eq. 8). Structurally unordered tasks whose *static* execution bounds
  /// [EST, LFT] (earliest start from input arrivals, latest finish from
  /// E-T-E deadlines, both over estimated WCETs) cannot overlap are dropped
  /// from Ψ_i: they can never actually contend. Without this, unrolled
  /// planning cycles make ADAPT-L count invocations from disjoint time
  /// frames as rivals and over-inflate catastrophically (ablation A13).
  bool temporal_parallel_sets = false;
};

/// Reusable buffers for DeadlineMetric::weights_into. Keeping one per worker
/// (or per slicing run) makes repeated weight computations allocation-free;
/// contents are unspecified between calls.
struct MetricWorkspace {
  std::vector<double> level;     ///< static levels (ADAPT-G ξ computation)
  std::vector<Time> est_start;   ///< EST bounds (temporal parallel sets)
  std::vector<Time> lft_finish;  ///< LFT bounds (temporal parallel sets)
};

class DeadlineMetric {
 public:
  explicit DeadlineMetric(MetricKind kind, MetricParams params = {});

  MetricKind kind() const { return kind_; }
  const MetricParams& params() const { return params_; }
  std::string name() const { return to_string(kind_); }

  /// True for ADAPT-G / ADAPT-L (affects precomputation cost).
  bool is_adaptive() const;

  /// Per-task weights for one slicing run, written into `out` (resized to
  /// the task count); scratch data goes into `workspace` when given, so
  /// repeated calls are allocation-free. `est_wcet` is c̄;
  /// `processor_count` is the m in the surplus factors. ADAPT-L reads the
  /// parallel sets from the application's memoized GraphAnalysis (built once
  /// per graph, well inside the paper's O(n³) budget, §4.5) and walks them
  /// over the reach/co-reach bitset words instead of materializing them;
  /// with a warm cache every metric's weights are O(n) except the temporal /
  /// resource-aware ADAPT-L variants, which scan the Ψ_i bitset rows
  /// (O(n²/64)).
  ///
  /// Resource-aware weights (§7.3 future work), when `resources` is not
  /// null: every metric is unchanged except ADAPT-L, whose virtual execution
  /// time becomes ĉ_i = c̄_i (1 + k_L·|Ψ_i|/m + k_R·|Ψ_i ∩ conflict(i)|) —
  /// parallel tasks sharing an exclusive resource contend at full weight
  /// because a resource, unlike the processor pool, admits one holder at a
  /// time.
  void weights_into(const Application& app, std::span<const double> est_wcet,
                    std::size_t processor_count,
                    const ResourceModel* resources, std::vector<double>& out,
                    MetricWorkspace* workspace = nullptr) const;

  /// Laxity-ratio value R of a path with window length `window`, total
  /// weight `sum_weight`, and `count` tasks. Lower = more critical. Handles
  /// degenerate paths (zero weight / zero tasks) by ±infinity so they sort
  /// to the non-critical end unless the window itself is negative.
  double path_value(Time window, double sum_weight, std::size_t count) const;

  /// Relative deadlines d_i for the path tasks whose weights are given, so
  /// that Σ d_i == window (exact tiling), written into `out` (resized to the
  /// path length; it must not alias the input spans). Negative slices are
  /// possible when the window is tighter than the weights — the
  /// schedulability test will then fail, which is the intended signal.
  void slices_into(Time window, std::span<const double> path_weights,
                   std::vector<double>& out) const;

  /// Slice computation for the adaptive metrics, which distinguishes the
  /// virtual execution times ĉ (`path_weights`) from the real estimates c̄
  /// (`path_est`). Three regimes (see DESIGN.md §4):
  ///  * laxity ≥ Σ(ĉ−c̄): the paper's exact formula d_i = ĉ_i + R;
  ///  * 0 < laxity < Σ(ĉ−c̄): inflation scaled to the available laxity so
  ///    adaptivity never consumes another task's required execution time
  ///    ("only certain tasks are allotted *extra* laxities", §4.5);
  ///  * laxity ≤ 0: degenerate to PURE on the real estimates.
  /// Non-adaptive metrics delegate to slices_into(). Σ d_i == window always.
  /// `out` as for slices_into().
  void adaptive_slices_into(Time window, std::span<const double> path_weights,
                            std::span<const double> path_est,
                            std::vector<double>& out) const;

  /// The effective execution-time threshold used by weights_into() for the
  /// given estimates (exposed for tests and diagnostics).
  double effective_threshold(std::span<const double> est_wcet) const;

 private:
  MetricKind kind_;
  MetricParams params_;
};

}  // namespace dsslice

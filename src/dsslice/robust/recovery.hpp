// Degraded-mode recovery policies for the on-line dispatcher
// (docs/ROBUSTNESS.md).
//
// A RecoveryEngine plugs into EdfDispatchScheduler through the
// DispatchControl hook and reacts to the fault events the dispatcher
// surfaces:
//  * kNone             — observe only; killed tasks are lost, windows stay
//                        as sliced (the baseline the harness compares to).
//  * kRedistributeSlack— when a task overruns its slice deadline or a
//                        processor fails, re-slice the surviving suffix of
//                        every affected path: each not-yet-started task gets
//                        the execution window [EST, LFT] computed over the
//                        *residual* E-T-E budget (earliest start from the
//                        actual state of the run, latest finish backing off
//                        each output's E-T-E deadline by the estimated
//                        remaining work). By construction no new deadline
//                        ever exceeds the residual budget along any path.
//                        Killed tasks are revived and re-windowed.
//  * kMigrate          — reassign tasks stranded on a failed processor to
//                        the least-loaded surviving processor of an
//                        eligible class (windows untouched).
//  * kShedOptional     — graceful degradation (imprecise computation): on an
//                        overrun or failure, drop the *optional* part of
//                        every not-yet-started task (View::shed), then
//                        redistribute the reclaimed time as slack over the
//                        surviving suffix. Tasks with optional_fraction == 0
//                        make this behave exactly like kRedistributeSlack.
//  * kDegradeThenMigrate — shed first; migrate a victim to a surviving
//                        processor only when its re-sliced window still
//                        cannot fit its (reduced) estimated demand.
#pragma once

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "dsslice/model/application.hpp"
#include "dsslice/model/platform.hpp"
#include "dsslice/sched/dispatch_scheduler.hpp"

namespace dsslice {

enum class RecoveryPolicy {
  kNone,
  kRedistributeSlack,
  kMigrate,
  kShedOptional,
  kDegradeThenMigrate,
};

std::string to_string(RecoveryPolicy policy);

/// Recomputes the windows of every not-yet-started task from the live
/// dispatch state: arrival = earliest start consistent with the actual
/// finishes of started work (estimated WCETs for unstarted predecessors),
/// deadline = latest finish that still leaves every downstream task its
/// estimated WCET before its output's E-T-E deadline. Started and completed
/// tasks keep their windows. Exposed for tests (the budget-safety property
/// is asserted path-by-path).
std::vector<Window> redistribute_slack(const Application& app,
                                       std::span<const double> est_wcet,
                                       const DispatchControl::View& view,
                                       const std::vector<Window>& windows);

/// The least-loaded processor still alive at `now` whose class the task is
/// eligible for (ties: smaller WCET, then lower id). nullopt when every
/// eligible processor is down — the task cannot be recovered.
std::optional<ProcessorId> choose_migration_target(
    const Task& task, const Platform& platform,
    std::span<const Time> busy_until, std::span<const Time> down_at,
    Time now);

/// Counters of the recovery actions taken during one dispatch.
struct RecoveryStats {
  std::size_t reslices = 0;    ///< redistribute_slack invocations
  std::size_t migrations = 0;  ///< tasks re-pinned to a surviving processor
  std::size_t revived = 0;     ///< killed tasks re-released for execution
  std::size_t abandoned = 0;   ///< killed tasks with no surviving option
  std::size_t shed = 0;        ///< tasks whose optional part was dropped
  double optional_dropped = 0.0;  ///< estimated optional time shed (units)

  void merge(const RecoveryStats& other);
};

/// DispatchControl implementation of the recovery policies. Stateful per
/// run: construct one engine per dispatch simulation.
class RecoveryEngine final : public DispatchControl {
 public:
  RecoveryEngine(RecoveryPolicy policy, const Application& app,
                 std::vector<double> est_wcet);

  RecoveryPolicy policy() const { return policy_; }
  const RecoveryStats& stats() const { return stats_; }

  void on_completion(const View& view, NodeId v, bool missed,
                     std::vector<Window>& windows) override;

  std::vector<NodeId> on_processor_failure(
      const View& view, ProcessorId p, const std::vector<NodeId>& victims,
      std::vector<Window>& windows,
      std::vector<ProcessorId>& pinned) override;

 private:
  /// Drops the optional part of every not-yet-started task that still has
  /// one: marks view.shed, reduces live_est_ to the mandatory demand, and
  /// tallies the reclaimed time. No-op when the host provides no shed
  /// channel or nothing is left to shed.
  void shed_optionals(const View& view);
  /// Re-runs the residual-budget distribution (redistribute_slack) over
  /// live_est_.
  void reslice(const View& view, std::vector<Window>& windows);
  /// Pins task v to choose_migration_target's processor; false (pin left
  /// alone) when every eligible processor is down.
  bool migrate(const View& view, NodeId v, std::vector<ProcessorId>& pinned);
  /// Re-homes every unstarted task pinned to the failed processor p, or
  /// unpins it when no eligible processor survives.
  void rehome_stranded(const View& view, ProcessorId p,
                       std::vector<ProcessorId>& pinned);
  /// Migrates killed task v and re-releases it (appended to `revived`), or
  /// abandons it when no eligible processor survives.
  void migrate_or_abandon(const View& view, NodeId v,
                          std::vector<ProcessorId>& pinned,
                          std::vector<NodeId>& revived);

  RecoveryPolicy policy_;
  const Application& app_;
  std::vector<double> est_wcet_;
  /// Estimates the re-slice passes plan against: starts as est_wcet_ and
  /// drops to the mandatory demand of each task shed_optionals() degrades.
  /// Identical to est_wcet_ whenever no task carries an optional part, which
  /// keeps kShedOptional bit-identical to kRedistributeSlack on precise
  /// workloads.
  std::vector<double> live_est_;
  RecoveryStats stats_;
};

}  // namespace dsslice

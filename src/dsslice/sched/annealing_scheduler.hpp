// Simulated-annealing schedule optimization.
//
// The paper's related work applies simulated annealing to real-time
// scheduling and jitter control (Di Natale & Stankovic [15]), and §7.3
// calls for evaluating the slicing metrics under other assignment/
// scheduling policies. This module optimizes the task→processor *mapping*:
// given a fixed mapping, tasks are sequenced EDF within their windows
// (schedule_with_fixed_mapping: the §5.4 list scheduler with every task a
// singleton co-location group on its mapped processor); annealing then
// walks the mapping space — moving one task to another eligible processor
// per step — accepting regressions with the Metropolis rule under
// geometric cooling. The energy is the schedule's maximum lateness, so the
// search keeps pushing even after feasibility is reached (more margin =
// more robustness).
//
// Deterministic: all randomness comes from the seeded xoshiro stream in
// the options.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "dsslice/model/application.hpp"
#include "dsslice/model/platform.hpp"
#include "dsslice/model/task.hpp"
#include "dsslice/sched/edf_list_scheduler.hpp"

namespace dsslice {

class SchedulerWorkspace;

/// List-schedules the application with every task pinned to the given
/// processor (strict locality): EdfListScheduler in lateness mode (never
/// aborts), append placement, each task a singleton CoLocation group fixed
/// to its mapped processor. Deadlines are compared exactly, as everywhere
/// in the list scheduler. Throws ConfigError when the mapping's size is
/// wrong, a processor is out of range or a task is ineligible on its
/// processor's class.
SchedulerResult schedule_with_fixed_mapping(
    const Application& app, const DeadlineAssignment& assignment,
    const Platform& platform, const std::vector<ProcessorId>& mapping);

/// Allocation-free variant of schedule_with_fixed_mapping: writes the
/// (bit-identical) result into `result`, reusing `ws` buffers — the inner
/// loop of the annealing search.
void schedule_with_fixed_mapping_into(SchedulerResult& result,
                                      SchedulerWorkspace& ws,
                                      const Application& app,
                                      const DeadlineAssignment& assignment,
                                      const Platform& platform,
                                      std::span<const ProcessorId> mapping);

struct AnnealingOptions {
  std::size_t iterations = 2000;
  double initial_temperature = 20.0;
  /// Geometric cooling factor per iteration.
  double cooling = 0.9975;
  std::uint64_t seed = 0xA22EA1;
};

struct AnnealingResult {
  /// Schedule of the best mapping found (lateness mode, always complete).
  SchedulerResult result;
  std::vector<ProcessorId> mapping;
  /// Final energy = maximum lateness of the best schedule.
  double energy = 0.0;
  /// Number of strictly improving moves accepted.
  std::size_t improvements = 0;

  AnnealingResult(std::size_t tasks, std::size_t processors)
      : result{Schedule(tasks, processors), false, std::nullopt, "", {}} {}
};

/// Anneals the task→processor mapping starting from the greedy EDF
/// placement. The best-ever mapping is returned (the walk itself may end
/// somewhere worse). `ws` (optional) supplies reusable buffers for the
/// per-iteration replays — with it, the search loop stops allocating once
/// warmed up (improvements still copy into the returned best).
AnnealingResult anneal_schedule(const Application& app,
                                const DeadlineAssignment& assignment,
                                const Platform& platform,
                                const AnnealingOptions& options = {},
                                SchedulerWorkspace* ws = nullptr);

}  // namespace dsslice

#include "dsslice/sched/annealing_scheduler.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "dsslice/gen/rng.hpp"
#include "dsslice/obs/trace.hpp"
#include "dsslice/sched/scheduler_workspace.hpp"
#include "dsslice/util/check.hpp"

namespace dsslice {

SchedulerResult schedule_with_fixed_mapping(
    const Application& app, const DeadlineAssignment& assignment,
    const Platform& platform, const std::vector<ProcessorId>& mapping) {
  SchedulerWorkspace ws;
  SchedulerResult result;
  schedule_with_fixed_mapping_into(result, ws, app, assignment, platform,
                                   mapping);
  return result;
}

void schedule_with_fixed_mapping_into(SchedulerResult& result,
                                      SchedulerWorkspace& ws,
                                      const Application& app,
                                      const DeadlineAssignment& assignment,
                                      const Platform& platform,
                                      std::span<const ProcessorId> mapping) {
  const std::size_t n = app.task_count();
  const std::size_t m = platform.processor_count();
  DSSLICE_REQUIRE(mapping.size() == n, "mapping size mismatch");
  for (NodeId v = 0; v < n; ++v) {
    DSSLICE_REQUIRE(mapping[v] < m, "mapped processor out of range");
    DSSLICE_REQUIRE(app.task(v).eligible(platform.class_of(mapping[v])),
                    "task " + app.task(v).name +
                        " mapped to an ineligible processor class");
  }

  // Singleton groups pinned to the mapping; lateness mode, so a fixed
  // mapping taken from a greedy schedule replays it exactly.
  ws.size(ws.singleton_groups, n);
  std::iota(ws.singleton_groups.begin(), ws.singleton_groups.end(),
            std::size_t{0});
  const CoLocation pinned{ws.singleton_groups, n, mapping};
  SchedulerOptions lateness_mode;
  lateness_mode.abort_on_miss = false;
  EdfListScheduler(lateness_mode)
      .run_into(result, ws, app, assignment, platform, nullptr, &pinned);
}

namespace {

/// Maximum lateness of a complete schedule — the annealing energy.
double energy_of(const SchedulerResult& result,
                 const DeadlineAssignment& assignment) {
  double worst = -std::numeric_limits<double>::infinity();
  for (NodeId v = 0; v < assignment.windows.size(); ++v) {
    worst = std::max(worst, result.schedule.entry(v).finish -
                                assignment.windows[v].deadline);
  }
  return worst;
}

}  // namespace

AnnealingResult anneal_schedule(const Application& app,
                                const DeadlineAssignment& assignment,
                                const Platform& platform,
                                const AnnealingOptions& options,
                                SchedulerWorkspace* ws) {
  DSSLICE_SPAN("sched.anneal.run");
  const std::size_t n = app.task_count();
  const std::size_t m = platform.processor_count();
  DSSLICE_REQUIRE(options.iterations >= 1, "need at least one iteration");
  DSSLICE_REQUIRE(options.cooling > 0.0 && options.cooling < 1.0,
                  "cooling factor must be in (0, 1)");
  DSSLICE_REQUIRE(options.initial_temperature > 0.0,
                  "initial temperature must be positive");

  SchedulerWorkspace local_ws;
  SchedulerWorkspace& w = ws != nullptr ? *ws : local_ws;

  // Seed mapping: the greedy EDF list schedule in lateness mode (always
  // complete), which also seeds the incumbent energy.
  SchedulerOptions greedy_options;
  greedy_options.abort_on_miss = false;
  EdfListScheduler(greedy_options)
      .run_into(w.seed_result, w, app, assignment, platform);
  DSSLICE_REQUIRE(w.seed_result.schedule.complete(),
                  "greedy seed schedule failed: " +
                      w.seed_result.failure_reason);

  w.size(w.current_mapping, n);
  for (NodeId v = 0; v < n; ++v) {
    w.current_mapping[v] = w.seed_result.schedule.entry(v).processor;
  }

  AnnealingResult best(n, m);
  best.mapping.assign(w.current_mapping.begin(), w.current_mapping.end());
  schedule_with_fixed_mapping_into(w.trial_result, w, app, assignment,
                                   platform, w.current_mapping);
  best.result = w.trial_result;
  best.energy = energy_of(best.result, assignment);

  double current_energy = best.energy;
  double temperature = options.initial_temperature;
  Xoshiro256 rng(options.seed);

  for (std::size_t it = 0; it < options.iterations; ++it) {
    // Neighbour: move one random task to another eligible processor.
    const auto v = static_cast<NodeId>(
        rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
    w.eligible_targets.clear();
    for (ProcessorId p = 0; p < m; ++p) {
      if (p != w.current_mapping[v] &&
          app.task(v).eligible(platform.class_of(p))) {
        w.push(w.eligible_targets, p);
      }
    }
    if (w.eligible_targets.empty()) {
      temperature *= options.cooling;
      continue;  // task is pinned by eligibility
    }
    const ProcessorId target = w.eligible_targets[static_cast<std::size_t>(
        rng.uniform_int(0,
                        static_cast<std::int64_t>(w.eligible_targets.size()) -
                            1))];

    w.size(w.neighbour_mapping, n);
    std::copy(w.current_mapping.begin(), w.current_mapping.end(),
              w.neighbour_mapping.begin());
    w.neighbour_mapping[v] = target;
    schedule_with_fixed_mapping_into(w.trial_result, w, app, assignment,
                                     platform, w.neighbour_mapping);
    const double trial_energy = energy_of(w.trial_result, assignment);

    const double delta = trial_energy - current_energy;
    const bool accept =
        delta < 0.0 || rng.next_double() < std::exp(-delta / temperature);
    if (accept) {
      std::swap(w.current_mapping, w.neighbour_mapping);
      current_energy = trial_energy;
      if (trial_energy < best.energy) {
        best.energy = trial_energy;
        best.mapping.assign(w.current_mapping.begin(),
                            w.current_mapping.end());
        best.result = w.trial_result;
        ++best.improvements;
      }
    }
    temperature *= options.cooling;
  }
  DSSLICE_COUNT("sched.anneal.runs", 1);
  DSSLICE_COUNT("sched.anneal.iterations", options.iterations);
  DSSLICE_COUNT("sched.anneal.improvements", best.improvements);
  return best;
}

}  // namespace dsslice

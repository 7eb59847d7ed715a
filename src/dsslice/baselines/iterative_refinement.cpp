#include "dsslice/baselines/iterative_refinement.hpp"

#include <algorithm>
#include <limits>

#include "dsslice/baselines/kao_garcia_molina.hpp"
#include "dsslice/sched/edf_list_scheduler.hpp"
#include "dsslice/util/check.hpp"

namespace dsslice {

DeadlineAssignment distribute_iterative(const Application& app,
                                        std::span<const double> est_wcet,
                                        const Platform& platform,
                                        const IterativeOptions& options,
                                        IterativeInfo* info) {
  const std::size_t n = app.task_count();
  DSSLICE_REQUIRE(est_wcet.size() == n, "estimate vector size mismatch");
  DSSLICE_REQUIRE(options.max_iterations >= 1, "need at least one iteration");
  DSSLICE_REQUIRE(options.relax_gain > 0.0, "relax gain must be positive");
  DSSLICE_REQUIRE(options.tighten_keep >= 0.0 && options.tighten_keep <= 1.0,
                  "tighten_keep must be in [0, 1]");

  // Governing E-T-E deadline per task: the hard ceiling for relaxation.
  const std::vector<Time> governing = governing_deadlines(app);

  // Initial assignment: equal flexibility (the strongest single-shot Kao
  // strategy); its arrivals (communication-free ESTs) stay fixed across
  // iterations — only deadlines move.
  DeadlineAssignment current =
      distribute_kao(app, est_wcet, KaoStrategy::kEqualFlexibility);

  SchedulerOptions sched_options;
  sched_options.abort_on_miss = false;
  const EdfListScheduler scheduler(sched_options);

  DeadlineAssignment best = current;
  std::size_t best_misses = std::numeric_limits<std::size_t>::max();
  double best_max_lateness = std::numeric_limits<double>::infinity();
  IterativeInfo local;

  for (std::size_t iter = 0; iter < options.max_iterations; ++iter) {
    local.iterations_used = iter + 1;
    const SchedulerResult result = scheduler.run(app, current, platform);
    DSSLICE_CHECK(result.schedule.complete(),
                  "lateness-mode schedule must place every task");

    std::size_t misses = 0;
    double max_lateness = -std::numeric_limits<double>::infinity();
    for (NodeId v = 0; v < n; ++v) {
      const double lateness =
          result.schedule.entry(v).finish - current.windows[v].deadline;
      max_lateness = std::max(max_lateness, lateness);
      if (lateness > kTimeTolerance) {
        ++misses;
      }
    }
    if (misses < best_misses ||
        (misses == best_misses && max_lateness < best_max_lateness)) {
      best = current;
      best_misses = misses;
      best_max_lateness = max_lateness;
    }
    if (misses == 0) {
      local.converged = true;
      break;
    }

    // Redistribute: relax the losers toward their governing deadline,
    // tighten the over-achievers toward their observed finish.
    for (NodeId v = 0; v < n; ++v) {
      const Time finish = result.schedule.entry(v).finish;
      Window& w = current.windows[v];
      const double lateness = finish - w.deadline;
      if (lateness > kTimeTolerance) {
        w.deadline =
            std::min(governing[v], w.deadline + options.relax_gain * lateness);
      } else if (lateness < -kTimeTolerance) {
        const Time floor_deadline = w.arrival + est_wcet[v];
        const Time target = finish + options.tighten_keep * (-lateness);
        w.deadline = std::max(floor_deadline, std::min(w.deadline, target));
      }
    }
  }

  if (info != nullptr) {
    *info = local;
  }
  return best;
}

}  // namespace dsslice

// Random task-graph / application generation (§5.2).
//
// Layered-DAG construction honouring the paper's parameters: task count
// 40–60, depth 8–12 levels, per-task degree 1–3, execution times uniform
// around c_mean with deviation ETD, per-class heterogeneity of ±25%, 5%
// (task, class) ineligibility, message sizes chosen for CCR = 0.1, and one
// E-T-E deadline per output task derived from the overall laxity ratio OLR.
#pragma once

#include <cstdint>

#include "dsslice/gen/generator_config.hpp"
#include "dsslice/gen/platform_generator.hpp"
#include "dsslice/gen/rng.hpp"
#include "dsslice/model/application.hpp"
#include "dsslice/model/platform.hpp"
#include "dsslice/model/resources.hpp"

namespace dsslice {

/// One generated experiment unit: the platform plus an application whose
/// per-class WCETs are consistent with that platform's classes.
struct Scenario {
  Platform platform;
  Application application;
};

/// Reusable draw-structure buffers for batched scenario generation — the
/// generator-side counterpart of sched/SchedulerWorkspace. One instance per
/// worker thread lets consecutive generate_scenario_into calls recycle the
/// DAG-layout temporaries (level sizes, capacity-filtered candidate pools,
/// per-task WCET snapshots) instead of reallocating them per scenario.
///
/// grow_events() follows the PR 3 contract: it counts every capacity growth
/// of a scratch-managed buffer, so tests can warm a scratch on a batch,
/// regenerate, and assert the counter did not move. Buffer reuse never
/// changes the RNG draw sequence — a scenario generated through a scratch
/// is bit-identical to one generated without (pinned by test).
class GeneratorScratch {
 public:
  std::uint64_t grow_events() const { return grow_events_; }

  /// vec.assign(count, value) with capacity-growth accounting.
  template <typename T>
  void fill(std::vector<T>& vec, std::size_t count, const T& value) {
    if (vec.capacity() < count) {
      ++grow_events_;
    }
    vec.assign(count, value);
  }

  /// Growth-accounted push_back for buffers filled incrementally.
  template <typename T>
  void push(std::vector<T>& vec, const T& value) {
    if (vec.size() == vec.capacity()) {
      ++grow_events_;
    }
    vec.push_back(value);
  }

  /// vec.resize(count) with capacity-growth accounting (task-slot reuse).
  template <typename T>
  void resize(std::vector<T>& vec, std::size_t count) {
    if (vec.capacity() < count) {
      ++grow_events_;
    }
    vec.resize(count);
  }

  /// Growth-accounted push_back of a moved-from slot (spare-pool shuffling).
  template <typename T>
  void push_move(std::vector<T>& vec, T&& value) {
    if (vec.size() == vec.capacity()) {
      ++grow_events_;
    }
    vec.push_back(std::move(value));
  }

  /// Resizes `tasks` to `count` task slots, parking surplus slots in
  /// `spare_tasks` (and refilling from it) instead of destroying them: task
  /// counts vary per scenario, and a destroyed slot would reallocate its
  /// wcet_by_class storage on the next larger draw.
  void resize_task_slots(std::size_t count) {
    while (tasks.size() > count) {
      push_move(spare_tasks, std::move(tasks.back()));
      tasks.pop_back();
    }
    while (tasks.size() < count && !spare_tasks.empty()) {
      push_move(tasks, std::move(spare_tasks.back()));
      spare_tasks.pop_back();
    }
    resize(tasks, count);
  }

  std::vector<std::size_t> level_sizes;   // tasks per DAG level
  std::vector<NodeId> level_start;        // first node id of each level
  std::vector<NodeId> with_capacity;      // spare-out-degree anchor pool
  std::vector<NodeId> candidates;         // successor-wiring pool
  std::vector<ProcessorClassId> populated;  // classes with processors
  std::vector<double> drawn_wcet;         // pre-ineligibility WCET snapshot
  std::vector<double> message_items;      // per-arc message draws, arc order

  // Deep storage recycled between generate_application_into calls: the
  // structure is drawn into `graph` (TaskGraph::reset keeps every per-node
  // adjacency slot, including those beyond a smaller graph's node count)
  // and the task slots into `tasks` (per-task wcet_by_class capacity
  // survives), then Application::rebuild_swap trades them for the target's
  // previous storage. The adjacency capacity and the platform staging
  // buffers are not counted by grow_events(); they stop growing once the
  // largest shapes of a stream have been drawn (into both graphs that
  // rebuild_swap alternates), and tests/test_alloc_free.cpp checks that a
  // warm scenario makes no heap allocation at all.
  TaskGraph graph;
  std::vector<Task> tasks;
  std::vector<Task> spare_tasks;
  PlatformDraw platform;

 private:
  std::uint64_t grow_events_ = 0;
};

/// Generates a random application for an existing platform. The E-T-E
/// deadline uses the average accumulated workload (mean WCET over eligible
/// classes, summed over tasks) scaled by the configured OLR.
///
/// `class_model` selects how per-class WCETs are synthesized:
/// kUniformFactors multiplies each task's base time by the platform class's
/// speed factor (default; preserves the paper's ETD=0 invariant), while
/// kUnrelated draws an independent ±class_deviation factor per (task, class).
Application generate_application(const WorkloadConfig& config,
                                 const Platform& platform, Xoshiro256& rng,
                                 ClassModel class_model =
                                     ClassModel::kUniformFactors,
                                 double class_deviation = 0.25,
                                 GeneratorScratch* scratch = nullptr);

/// In-place variant: rebuilds `app` via Application::rebuild_swap, recycling
/// the scratch's deep storage (graph adjacency, task slots) so repeated
/// calls on the same target perform almost no heap allocation. Draw-for-draw
/// identical to generate_application — storage reuse never perturbs the RNG
/// stream.
void generate_application_into(Application& app, const WorkloadConfig& config,
                               const Platform& platform, Xoshiro256& rng,
                               ClassModel class_model, double class_deviation,
                               GeneratorScratch* scratch);

/// Generates platform + application from a single seed (scenario `index` of
/// a batch uses derive_seed(config.base_seed, index)).
Scenario generate_scenario(const GeneratorConfig& config, std::uint64_t seed);

/// Batched-generation entry points: reuse the scratch buffers across calls
/// and skip the per-call config.validate() (the batch caller validates
/// once). Results are bit-identical to generate_scenario(config, seed) for
/// every seed — buffer reuse never perturbs the RNG stream.
Scenario generate_scenario_with(const GeneratorConfig& config,
                                std::uint64_t seed, GeneratorScratch* scratch);
void generate_scenario_into(const GeneratorConfig& config, std::uint64_t seed,
                            Scenario& out, GeneratorScratch* scratch);

/// Convenience: scenario `index` of the batch described by `config`.
Scenario generate_scenario_at(const GeneratorConfig& config,
                              std::size_t index);

/// Draws random shared-resource requirements for an application (§7.3
/// future-work experiments): `resource_count` exclusive resources, each
/// (task, resource) pair requiring with probability `probability`.
ResourceModel generate_resources(const Application& app,
                                 std::size_t resource_count,
                                 double probability, Xoshiro256& rng);

}  // namespace dsslice

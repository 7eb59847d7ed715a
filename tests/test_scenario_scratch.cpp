// The per-scenario step's scratch contract: a null ScenarioScratch and a
// shared warm one are the same computation, and the sweep arena's scalar
// route is evaluate_generated. Every double is compared by bit pattern over
// the list scheduler, the dispatcher and the preemptive simulator, slicing
// and direct techniques, precise and imprecise workloads.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "dsslice/gen/rng.hpp"
#include "dsslice/sim/experiment.hpp"
#include "dsslice/sweep/sweep_engine.hpp"
#include "test_util.hpp"

namespace dsslice {
namespace {

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

constexpr std::size_t kScenarios = 12;

/// Every (algorithm, technique, workload) combination the contract covers.
std::vector<ExperimentConfig> contract_configs() {
  const SchedulerAlgorithm algorithms[] = {SchedulerAlgorithm::kListEdf,
                                           SchedulerAlgorithm::kDispatchEdf,
                                           SchedulerAlgorithm::kPreemptiveEdf};
  const DistributionTechnique techniques[] = {
      DistributionTechnique::kSlicingAdaptL, DistributionTechnique::kSlicingPure,
      DistributionTechnique::kKaoEQS, DistributionTechnique::kKaoED};
  const double fractions[] = {0.0, 0.4};
  std::vector<ExperimentConfig> configs;
  for (const SchedulerAlgorithm algorithm : algorithms) {
    for (const DistributionTechnique technique : techniques) {
      for (const double fraction : fractions) {
        ExperimentConfig config;
        config.generator = testing::small_generator(0xC0FFEE);
        config.generator.workload.min_optional_fraction = fraction;
        config.generator.workload.max_optional_fraction = fraction;
        config.algorithm = algorithm;
        config.technique = technique;
        config.scheduler.abort_on_miss = fraction == 0.0;
        configs.push_back(config);
      }
    }
  }
  return configs;
}

std::string name(const ExperimentConfig& config, std::size_t k) {
  return to_string(config.technique) + " algorithm " +
         std::to_string(static_cast<int>(config.algorithm)) + " fraction " +
         std::to_string(config.generator.workload.max_optional_fraction) +
         " scenario " + std::to_string(k);
}

Scenario scenario_at(const ExperimentConfig& config, std::size_t k) {
  return generate_scenario(config.generator,
                           derive_seed(config.generator.base_seed, k));
}

void expect_same_outcome(const GraphOutcome& a, const GraphOutcome& b,
                         const std::string& where) {
  EXPECT_EQ(a.scheduled, b.scheduled) << where;
  EXPECT_EQ(bits(a.min_laxity), bits(b.min_laxity)) << where;
  EXPECT_EQ(bits(a.max_lateness), bits(b.max_lateness)) << where;
  EXPECT_EQ(a.lateness_valid, b.lateness_valid) << where;
  EXPECT_EQ(bits(a.makespan), bits(b.makespan)) << where;
  EXPECT_EQ(a.slicing_passes, b.slicing_passes) << where;
  EXPECT_EQ(a.task_count, b.task_count) << where;
}

void expect_same_assignment(const DeadlineAssignment& a,
                            const DeadlineAssignment& b,
                            const std::string& where) {
  ASSERT_EQ(a.windows.size(), b.windows.size()) << where;
  ASSERT_EQ(a.pass_of.size(), b.pass_of.size()) << where;
  for (std::size_t v = 0; v < a.windows.size(); ++v) {
    EXPECT_EQ(bits(a.windows[v].arrival), bits(b.windows[v].arrival))
        << where << " task " << v;
    EXPECT_EQ(bits(a.windows[v].deadline), bits(b.windows[v].deadline))
        << where << " task " << v;
    EXPECT_EQ(a.pass_of[v], b.pass_of[v]) << where << " task " << v;
  }
}

/// A scratch warmed on every configuration and scenario first, so the
/// comparisons below run on recycled buffers.
ScenarioScratch warm_scratch(const std::vector<ExperimentConfig>& configs) {
  ScenarioScratch scratch;
  for (const ExperimentConfig& config : configs) {
    for (std::size_t k = 0; k < kScenarios; ++k) {
      evaluate_generated(config, scenario_at(config, k), &scratch);
    }
  }
  return scratch;
}

TEST(ScenarioScratchContract, NullScratchMatchesWarmScratchBitwise) {
  const std::vector<ExperimentConfig> configs = contract_configs();
  ScenarioScratch scratch = warm_scratch(configs);
  std::size_t imprecise = 0;
  std::size_t scheduled = 0;
  for (const ExperimentConfig& config : configs) {
    for (std::size_t k = 0; k < kScenarios; ++k) {
      const std::string where = name(config, k);
      const Scenario scenario = scenario_at(config, k);
      const Application& app = scenario.application;
      imprecise += app.has_optional_work() ? 1 : 0;

      const std::vector<double> est =
          estimate_wcets(app, config.wcet_strategy);
      std::size_t passes_null = 99;
      std::size_t passes_warm = 99;
      const DeadlineAssignment null_assignment = distribute_for_config(
          config, app, scenario.platform, est, &passes_null, nullptr);
      const DeadlineAssignment warm_assignment = distribute_for_config(
          config, app, scenario.platform, est, &passes_warm, &scratch);
      expect_same_assignment(null_assignment, warm_assignment, where);
      EXPECT_EQ(passes_null, passes_warm) << where;

      const double laxity = min_laxity(null_assignment, est);
      const GraphOutcome null_scheduled = evaluate_scheduled(
          config, scenario, null_assignment, laxity, passes_null, nullptr);
      const GraphOutcome warm_scheduled = evaluate_scheduled(
          config, scenario, null_assignment, laxity, passes_null, &scratch);
      expect_same_outcome(null_scheduled, warm_scheduled, where);

      const GraphOutcome null_generated =
          evaluate_generated(config, scenario, nullptr);
      const GraphOutcome warm_generated =
          evaluate_generated(config, scenario, &scratch);
      expect_same_outcome(null_generated, warm_generated, where);
      expect_same_outcome(null_generated, null_scheduled, where);
      scheduled += null_generated.scheduled ? 1 : 0;
    }
  }
  // The corpus covers what it claims: imprecise workloads, and both
  // successful and failed schedules.
  EXPECT_GT(imprecise, 0u);
  EXPECT_GT(scheduled, 0u);
  EXPECT_LT(scheduled, configs.size() * kScenarios);
}

TEST(ScenarioScratchContract, ArenaScalarRouteIsEvaluateGenerated) {
  for (const ExperimentConfig& config : contract_configs()) {
    for (std::size_t k = 0; k < kScenarios; ++k) {
      const std::string where = name(config, k);
      const GraphOutcome expected =
          evaluate_generated(config, scenario_at(config, k));
      generate_arena_scenario(config.generator, k);
      expect_same_outcome(evaluate_arena_scenario(config, false), expected,
                          where + " scalar");
      expect_same_outcome(evaluate_arena_scenario(config, true), expected,
                          where + " kernel");
    }
  }
}

}  // namespace
}  // namespace dsslice

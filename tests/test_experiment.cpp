#include <gtest/gtest.h>

#include "dsslice/sim/experiment.hpp"
#include "dsslice/sweep/aggregate.hpp"
#include "test_util.hpp"

namespace dsslice {
namespace {

TEST(ExperimentConfig, DisplayLabelDefaultsToTechnique) {
  ExperimentConfig c;
  c.technique = DistributionTechnique::kSlicingNorm;
  EXPECT_EQ(c.display_label(), "SLICE/NORM");
  c.label = "custom";
  EXPECT_EQ(c.display_label(), "custom");
}

TEST(SweepAggregate, AddAggregates) {
  SweepAggregate r;
  GraphOutcome ok;
  ok.scheduled = true;
  ok.min_laxity = 5.0;
  ok.max_lateness = -2.0;
  ok.lateness_valid = true;
  ok.makespan = 100.0;
  ok.slicing_passes = 7;
  ok.task_count = 50;
  r.add(ok);
  GraphOutcome fail;
  fail.scheduled = false;
  fail.min_laxity = -3.0;
  fail.task_count = 42;
  r.add(fail);

  EXPECT_EQ(r.success.trials(), 2u);
  EXPECT_DOUBLE_EQ(r.success_ratio(), 0.5);
  EXPECT_EQ(r.min_laxity.count(), 2u);
  EXPECT_DOUBLE_EQ(r.min_laxity.mean(), 1.0);
  EXPECT_EQ(r.max_lateness.count(), 1u);   // only lateness_valid outcomes
  EXPECT_EQ(r.makespan.count(), 1u);       // only successful outcomes
  EXPECT_DOUBLE_EQ(r.makespan.mean(), 100.0);
  EXPECT_DOUBLE_EQ(r.task_count.mean(), 46.0);
  EXPECT_EQ(r.laxity.count(), 2u);         // histogram sees every outcome
}

TEST(SweepAggregate, MergeCombines) {
  SweepAggregate a;
  SweepAggregate b;
  GraphOutcome ok;
  ok.scheduled = true;
  ok.makespan = 10.0;
  a.add(ok);
  GraphOutcome fail;
  b.add(fail);
  a.merge(b);
  EXPECT_EQ(a.scenarios(), 2u);
  EXPECT_DOUBLE_EQ(a.success_ratio(), 0.5);
  EXPECT_EQ(a.makespan.count(), 1u);
  EXPECT_EQ(a.laxity.count(), 2u);
}

TEST(SweepAggregate, SummaryMentionsLabelAndRatio) {
  SweepAggregate r;
  GraphOutcome ok;
  ok.scheduled = true;
  ok.makespan = 10.0;
  r.add(ok);
  const std::string s = r.summary("ADAPT-L");
  EXPECT_NE(s.find("ADAPT-L"), std::string::npos);
  EXPECT_NE(s.find("100.0%"), std::string::npos);
}

// The outcome of the scenario generated from `seed`.
GraphOutcome evaluate_seed(const ExperimentConfig& c, std::uint64_t seed) {
  return evaluate_generated(c, generate_scenario(c.generator, seed));
}

TEST(EvaluateScenario, ProducesConsistentOutcome) {
  ExperimentConfig c;
  c.generator = testing::paper_generator(5);
  c.technique = DistributionTechnique::kSlicingAdaptL;
  const GraphOutcome o = evaluate_seed(c, derive_seed(5, 0));
  EXPECT_GE(o.task_count, c.generator.workload.min_tasks);
  EXPECT_LE(o.task_count, c.generator.workload.max_tasks);
  EXPECT_GE(o.slicing_passes, 1u);
  if (o.scheduled) {
    EXPECT_TRUE(o.lateness_valid);
    EXPECT_LE(o.max_lateness, 0.0);
    EXPECT_GT(o.makespan, 0.0);
  }
}

TEST(EvaluateScenario, DeterministicForSameSeed) {
  ExperimentConfig c;
  c.generator = testing::paper_generator(6);
  c.technique = DistributionTechnique::kSlicingNorm;
  const GraphOutcome a = evaluate_seed(c, 12345);
  const GraphOutcome b = evaluate_seed(c, 12345);
  EXPECT_EQ(a.scheduled, b.scheduled);
  EXPECT_DOUBLE_EQ(a.min_laxity, b.min_laxity);
  EXPECT_EQ(a.task_count, b.task_count);
  EXPECT_EQ(a.slicing_passes, b.slicing_passes);
}

TEST(EvaluateScenario, BaselineTechniquesReportZeroPasses) {
  ExperimentConfig c;
  c.generator = testing::paper_generator(7);
  c.technique = DistributionTechnique::kKaoEQF;
  const GraphOutcome o = evaluate_seed(c, 99);
  EXPECT_EQ(o.slicing_passes, 0u);
}

TEST(EvaluateScenario, IterativeTechniqueRunsThroughPlatformOverload) {
  ExperimentConfig c;
  c.generator = testing::small_generator(8);
  c.technique = DistributionTechnique::kIterative;
  const GraphOutcome o = evaluate_seed(c, 123);
  EXPECT_EQ(o.slicing_passes, 0u);
  EXPECT_GT(o.task_count, 0u);
}

TEST(EvaluateScenario, DispatchAlgorithmIsUsedWhenSelected) {
  // On most scenarios the two engines agree; the test asserts the dispatch
  // path at least runs and produces a coherent outcome, and that the two
  // engines agree on an easy (loose-deadline) scenario.
  ExperimentConfig c;
  c.generator = testing::small_generator(9);
  c.generator.workload.olr = 2.0;  // loose: both engines must succeed
  c.technique = DistributionTechnique::kSlicingAdaptL;
  c.algorithm = SchedulerAlgorithm::kDispatchEdf;
  const GraphOutcome dispatch = evaluate_seed(c, 7);
  c.algorithm = SchedulerAlgorithm::kListEdf;
  const GraphOutcome list = evaluate_seed(c, 7);
  EXPECT_TRUE(dispatch.scheduled);
  EXPECT_TRUE(list.scheduled);
  EXPECT_EQ(dispatch.task_count, list.task_count);
}

TEST(EvaluateScenario, BusContentionOptionFlowsThrough) {
  ExperimentConfig c;
  c.generator = testing::small_generator(10);
  c.generator.workload.ccr = 0.5;
  c.technique = DistributionTechnique::kSlicingAdaptL;
  c.scheduler.simulate_bus_contention = true;
  const GraphOutcome contended = evaluate_seed(c, 3);
  c.scheduler.simulate_bus_contention = false;
  const GraphOutcome nominal = evaluate_seed(c, 3);
  // The contended run can only do as well or worse than the nominal one on
  // the same scenario (same windows, extra constraint).
  EXPECT_LE(contended.scheduled, nominal.scheduled);
}

}  // namespace
}  // namespace dsslice

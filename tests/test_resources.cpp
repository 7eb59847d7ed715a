// Shared-resource constraints (§7.3 future work): model, resource-aware
// scheduling, exclusivity validation, and the ADAPT-LR metric extension.
#include <gtest/gtest.h>

#include "dsslice/core/slicing.hpp"
#include "dsslice/gen/taskgraph_generator.hpp"
#include "dsslice/model/resources.hpp"
#include "dsslice/sched/edf_list_scheduler.hpp"
#include "dsslice/sched/validation.hpp"
#include "test_util.hpp"

namespace dsslice {
namespace {

DeadlineAssignment windows(std::vector<Window> ws) {
  DeadlineAssignment a;
  a.windows = std::move(ws);
  return a;
}

TEST(ResourceModel, RequirementsAndConflicts) {
  ResourceModel model(4, 2);
  EXPECT_EQ(model.task_count(), 4u);
  EXPECT_EQ(model.resource_count(), 2u);
  model.require(0, 0);
  model.require(1, 0);
  model.require(1, 1);
  model.require(2, 1);
  model.require(1, 0);  // idempotent
  EXPECT_EQ(model.requirement_count(), 4u);
  EXPECT_EQ(model.resources_of(1).size(), 2u);
  EXPECT_TRUE(model.conflicts(0, 1));
  EXPECT_TRUE(model.conflicts(1, 2));
  EXPECT_FALSE(model.conflicts(0, 2));
  EXPECT_FALSE(model.conflicts(0, 3));
  EXPECT_EQ(model.holders_of(0).size(), 2u);
  EXPECT_THROW(model.require(9, 0), ConfigError);
  EXPECT_THROW(model.require(0, 9), ConfigError);
}

TEST(ResourceScheduling, SerializesConflictingParallelTasks) {
  // Two independent tasks on two processors share a resource: they must
  // serialize despite having a processor each.
  ApplicationBuilder b;
  const NodeId x = b.add_uniform_task("x", 10.0);
  const NodeId y = b.add_uniform_task("y", 10.0);
  b.set_ete_deadline(x, 100.0);
  b.set_ete_deadline(y, 100.0);
  const Application app = b.build();
  const auto a = windows({{0.0, 50.0}, {0.0, 100.0}});
  const Platform platform = Platform::identical(2);

  ResourceModel model(2, 1);
  model.require(x, 0);
  model.require(y, 0);

  const auto without = EdfListScheduler().run(app, a, platform);
  ASSERT_TRUE(without.success);
  EXPECT_DOUBLE_EQ(without.schedule.entry(y).start, 0.0);  // parallel

  const auto with = EdfListScheduler().run(app, a, platform, &model);
  ASSERT_TRUE(with.success);
  EXPECT_DOUBLE_EQ(with.schedule.entry(x).start, 0.0);
  EXPECT_DOUBLE_EQ(with.schedule.entry(y).start, 10.0);  // serialized
  EXPECT_TRUE(
      validate_resource_exclusivity(app, with.schedule, model).empty());
}

TEST(ResourceScheduling, UnrelatedResourcesDoNotSerialize) {
  ApplicationBuilder b;
  const NodeId x = b.add_uniform_task("x", 10.0);
  const NodeId y = b.add_uniform_task("y", 10.0);
  b.set_ete_deadline(x, 100.0);
  b.set_ete_deadline(y, 100.0);
  const Application app = b.build();
  const auto a = windows({{0.0, 100.0}, {0.0, 100.0}});
  ResourceModel model(2, 2);
  model.require(x, 0);
  model.require(y, 1);
  const auto r =
      EdfListScheduler().run(app, a, Platform::identical(2), &model);
  ASSERT_TRUE(r.success);
  EXPECT_DOUBLE_EQ(r.schedule.entry(x).start, 0.0);
  EXPECT_DOUBLE_EQ(r.schedule.entry(y).start, 0.0);
}

TEST(ResourceScheduling, RejectsInsertionPlacement) {
  const Application app = testing::make_chain(2, 10.0, 100.0);
  const auto a = windows({{0.0, 50.0}, {50.0, 100.0}});
  ResourceModel model(2, 1);
  SchedulerOptions options;
  options.placement = PlacementPolicy::kInsertion;
  EXPECT_THROW(EdfListScheduler(options).run(app, a, Platform::identical(1),
                                             &model),
               ConfigError);
}

TEST(ResourceValidation, DetectsConcurrentHolders) {
  ApplicationBuilder b;
  const NodeId x = b.add_uniform_task("x", 10.0);
  const NodeId y = b.add_uniform_task("y", 10.0);
  b.set_ete_deadline(x, 100.0);
  b.set_ete_deadline(y, 100.0);
  const Application app = b.build();
  ResourceModel model(2, 1);
  model.require(x, 0);
  model.require(y, 0);
  Schedule s(2, 2);
  s.place(x, 0, 0.0, 10.0);
  s.place(y, 1, 5.0, 15.0);  // overlaps on the resource
  const auto problems = validate_resource_exclusivity(app, s, model);
  ASSERT_FALSE(problems.empty());
  EXPECT_NE(problems.front().find("hold it concurrently"),
            std::string::npos);
}

TEST(ResourceMetric, AdaptLrInflatesConflictingTasks) {
  // Diamond: the two mids are parallel; give them a shared resource. Under
  // ADAPT-LR their virtual time must exceed plain ADAPT-L's.
  const Application app = testing::make_diamond(10.0, 30.0, 30.0, 10.0,
                                                200.0);
  const std::vector<double> est{10.0, 30.0, 30.0, 10.0};
  ResourceModel model(4, 1);
  model.require(1, 0);
  model.require(2, 0);
  MetricParams params;
  params.k_local = 0.2;
  params.k_resource = 0.3;
  const DeadlineMetric metric(MetricKind::kAdaptL, params);
  const auto plain = testing::weights(metric, app, est, 2);
  const auto aware = testing::weights(metric, app, est, 2, &model);
  // mids: plain = 30(1 + 0.2·1/2); aware adds k_R·1.
  EXPECT_DOUBLE_EQ(plain[1], 30.0 * 1.1);
  EXPECT_DOUBLE_EQ(aware[1], 30.0 * (1.1 + 0.3));
  // Below-threshold tasks and non-conflicting structure untouched.
  EXPECT_DOUBLE_EQ(aware[0], 10.0);
  EXPECT_DOUBLE_EQ(aware[3], 10.0);
  // Null model degenerates to the plain weights.
  const auto null_model = testing::weights(metric, app, est, 2, nullptr);
  EXPECT_EQ(null_model, plain);
  // Non-ADAPT-L metrics ignore resources entirely.
  const DeadlineMetric pure(MetricKind::kPure);
  EXPECT_EQ(testing::weights(pure, app, est, 2, &model), est);
}

TEST(ResourceMetric, SlicingOptionsCarryTheModel) {
  const Application app = testing::make_diamond(10.0, 30.0, 30.0, 10.0,
                                                120.0);
  const std::vector<double> est{10.0, 30.0, 30.0, 10.0};
  ResourceModel model(4, 1);
  model.require(1, 0);
  model.require(2, 0);
  SlicingOptions options;
  options.resources = &model;
  const DeadlineMetric metric(MetricKind::kAdaptL);
  const auto aware = run_slicing(app, est, metric, 2, nullptr, options);
  const auto blind = run_slicing(app, est, metric, 2);
  // The resource-aware run gives the conflicting mids longer windows.
  EXPECT_GT(aware.windows[1].length(), blind.windows[1].length() - 1e-9);
  EXPECT_TRUE(validate_assignment(app, aware).empty());
}

TEST(ResourceGeneration, HonoursProbabilityBounds) {
  const Scenario sc = generate_scenario_at(testing::paper_generator(90), 0);
  Xoshiro256 rng(5);
  const ResourceModel none =
      generate_resources(sc.application, 3, 0.0, rng);
  EXPECT_EQ(none.requirement_count(), 0u);
  const ResourceModel all = generate_resources(sc.application, 2, 1.0, rng);
  EXPECT_EQ(all.requirement_count(), sc.application.task_count() * 2);
  EXPECT_THROW(generate_resources(sc.application, 1, 1.5, rng), ConfigError);
}

TEST(ResourceScheduling, RandomScenariosValidate) {
  GeneratorConfig gen = testing::paper_generator(91);
  for (std::size_t k = 0; k < 8; ++k) {
    const Scenario sc = generate_scenario_at(gen, k);
    Xoshiro256 rng(derive_seed(91, k));
    const ResourceModel model =
        generate_resources(sc.application, 4, 0.05, rng);
    const auto est = estimate_wcets(sc.application, WcetEstimation::kAverage);
    SlicingOptions options;
    options.resources = &model;
    const auto a = run_slicing(sc.application, est,
                               DeadlineMetric(MetricKind::kAdaptL),
                               sc.platform.processor_count(), nullptr,
                               options);
    SchedulerOptions lateness_mode;
    lateness_mode.abort_on_miss = false;
    const auto r = EdfListScheduler(lateness_mode)
                       .run(sc.application, a, sc.platform, &model);
    ASSERT_TRUE(r.schedule.complete());
    EXPECT_TRUE(
        validate_resource_exclusivity(sc.application, r.schedule, model)
            .empty())
        << "scenario " << k;
    ValidationOptions vopts;
    vopts.check_deadlines = false;
    EXPECT_TRUE(validate_schedule(sc.application, sc.platform, a,
                                  r.schedule, vopts)
                    .empty())
        << "scenario " << k;
  }
}

}  // namespace
}  // namespace dsslice

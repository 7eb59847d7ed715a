// Graceful-degradation invariants (docs/ROBUSTNESS.md): the
// mandatory/optional split helpers, the equivalence guard pinning that
// precise workloads are bit-identical under the new policies, and the
// end-to-end behavior of shed-optional and degrade-then-migrate.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "dsslice/core/wcet_estimate.hpp"
#include "dsslice/obs/registry.hpp"
#include "dsslice/obs/trace.hpp"
#include "dsslice/robust/fault_model.hpp"
#include "dsslice/robust/recovery.hpp"
#include "dsslice/robust/robustness_harness.hpp"
#include "test_util.hpp"

namespace dsslice {
namespace {

DeadlineAssignment windows(std::vector<Window> ws) {
  DeadlineAssignment a;
  a.windows = std::move(ws);
  return a;
}

/// Sets the same optional fraction on every task.
Application with_optional(Application app, double fraction) {
  for (NodeId v = 0; v < app.task_count(); ++v) {
    app.mutable_task(v).optional_fraction = fraction;
  }
  return app;
}

TEST(DegradedModel, MandatoryOptionalSplit) {
  Task task;
  task.name = "t";
  task.wcet_by_class = {10.0, 4.0};
  EXPECT_FALSE(task.has_optional_part());
  EXPECT_DOUBLE_EQ(task.mandatory_wcet(0), 10.0);
  EXPECT_DOUBLE_EQ(task.optional_wcet(0), 0.0);

  task.optional_fraction = 0.25;
  EXPECT_TRUE(task.has_optional_part());
  EXPECT_DOUBLE_EQ(task.mandatory_wcet(0), 7.5);
  EXPECT_DOUBLE_EQ(task.optional_wcet(0), 2.5);
  EXPECT_DOUBLE_EQ(task.mandatory_wcet(1) + task.optional_wcet(1), 4.0);

  // A fully optional task has zero mandatory demand.
  task.optional_fraction = 1.0;
  EXPECT_DOUBLE_EQ(task.mandatory_wcet(0), 0.0);
  EXPECT_DOUBLE_EQ(task.optional_wcet(0), 10.0);

  EXPECT_TRUE(valid_optional_fraction(0.0));
  EXPECT_TRUE(valid_optional_fraction(1.0));
  EXPECT_FALSE(valid_optional_fraction(-0.1));
  EXPECT_FALSE(valid_optional_fraction(1.5));
  EXPECT_FALSE(valid_optional_fraction(std::nan("")));
}

TEST(DegradedModel, MandatoryEstimates) {
  const Application precise = testing::make_chain(3, 10.0, 90.0);
  const std::vector<double> est{12.0, 8.0, 10.0};
  EXPECT_FALSE(precise.has_optional_work());
  // Precise tasks pass estimates through untouched (bitwise).
  std::vector<double> buffer;
  mandatory_estimates_into(precise, est, buffer);
  EXPECT_EQ(buffer, est);

  const Application imprecise = with_optional(precise, 0.5);
  EXPECT_TRUE(imprecise.has_optional_work());
  std::vector<double> mandatory;
  mandatory_estimates_into(imprecise, est, mandatory);
  ASSERT_EQ(mandatory.size(), est.size());
  for (std::size_t i = 0; i < est.size(); ++i) {
    EXPECT_DOUBLE_EQ(mandatory[i], est[i] * 0.5);
  }
  // A reused output buffer is overwritten with the new result.
  mandatory_estimates_into(imprecise, est, buffer);
  EXPECT_EQ(buffer, mandatory);
}

TEST(DegradedModel, ValidateRejectsInvalidFractions) {
  const Platform platform = Platform::identical(1);
  Application app = testing::make_chain(2, 10.0, 90.0);
  EXPECT_TRUE(app.validate(platform).empty());

  app.mutable_task(0).optional_fraction = 1.5;
  const std::vector<std::string> issues = app.validate(platform);
  ASSERT_FALSE(issues.empty());
  EXPECT_NE(issues.front().find("optional"), std::string::npos);

  app.mutable_task(0).optional_fraction = std::nan("");
  EXPECT_FALSE(app.validate(platform).empty());
}

TEST(DegradedMode, ZeroOptionalShedEquivalentToRedistributeSlack) {
  // Equivalence guard: on precise workloads (optional fractions all zero)
  // the shed-optional policy must reproduce redistribute-slack bit for bit
  // — same placements, same telemetry, same recovery stats — under both
  // overruns and a processor failure.
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const Scenario scenario =
        generate_scenario(testing::small_generator(seed), seed);
    const Application& app = scenario.application;
    ASSERT_FALSE(app.has_optional_work());
    const std::vector<double> est =
        estimate_wcets(app, WcetEstimation::kAverage);
    const DeadlineAssignment a = run_slicing(
        app, est, DeadlineMetric(MetricKind::kAdaptL),
        scenario.platform.processor_count());

    FaultSpec spec;
    spec.scope = OverrunScope::kUniform;
    spec.overrun_factor = 2.0;
    spec.overrun_probability = 0.4;
    spec.seed = seed * 13 + 1;
    FaultTrace trace = FaultModel(spec).instantiate(app, scenario.platform);
    // One processor halts mid-run to exercise the failure path too.
    trace.conditions.processor_down_at.assign(
        scenario.platform.processor_count(), kTimeInfinity);
    trace.conditions.processor_down_at[0] = 12.0;

    const EdfDispatchScheduler sched({.abort_on_miss = false});
    RecoveryEngine redis(RecoveryPolicy::kRedistributeSlack, app, est);
    DispatchTelemetry t_redis;
    const auto r_redis = sched.run(app, a, scenario.platform,
                                   &trace.conditions, &redis, &t_redis);
    RecoveryEngine shed(RecoveryPolicy::kShedOptional, app, est);
    DispatchTelemetry t_shed;
    const auto r_shed = sched.run(app, a, scenario.platform,
                                  &trace.conditions, &shed, &t_shed);

    EXPECT_EQ(r_redis.success, r_shed.success) << "seed " << seed;
    EXPECT_EQ(t_redis.completion, t_shed.completion) << "seed " << seed;
    EXPECT_EQ(t_redis.misses, t_shed.misses) << "seed " << seed;
    EXPECT_EQ(t_redis.killed, t_shed.killed) << "seed " << seed;
    EXPECT_EQ(t_redis.unfinished, t_shed.unfinished) << "seed " << seed;
    EXPECT_TRUE(t_redis.degraded.empty());
    EXPECT_TRUE(t_shed.degraded.empty());
    for (NodeId v = 0; v < app.task_count(); ++v) {
      ASSERT_EQ(r_redis.schedule.placed(v), r_shed.schedule.placed(v));
      if (r_redis.schedule.placed(v)) {
        EXPECT_EQ(r_redis.schedule.entry(v), r_shed.schedule.entry(v))
            << "seed " << seed << " task " << v;
      }
    }
    EXPECT_EQ(redis.stats().reslices, shed.stats().reslices);
    EXPECT_EQ(redis.stats().revived, shed.stats().revived);
    EXPECT_EQ(redis.stats().abandoned, shed.stats().abandoned);
    EXPECT_EQ(shed.stats().shed, 0u);
    EXPECT_EQ(shed.stats().migrations, 0u);
    EXPECT_DOUBLE_EQ(shed.stats().optional_dropped, 0.0);
  }
}

TEST(DegradedMode, ZeroOptionalBatchesMatchAcrossPolicies) {
  // Batch-level pin of the same guard through the robustness harness.
  RobustnessConfig config;
  config.base.generator = testing::small_generator(42);
  config.base.generator.graph_count = 12;
  config.base.technique = DistributionTechnique::kSlicingAdaptL;
  config.faults.scope = OverrunScope::kUniform;
  config.faults.overrun_factor = 2.0;
  config.faults.overrun_probability = 0.35;
  config.faults.seed = 99;

  config.policy = RecoveryPolicy::kRedistributeSlack;
  ThreadPool serial(1);
  const RobustnessResult redis = run_robustness(config, serial);
  config.policy = RecoveryPolicy::kShedOptional;
  const RobustnessResult shed = run_robustness(config, serial);

  EXPECT_EQ(redis.ete_met.successes(), shed.ete_met.successes());
  EXPECT_EQ(redis.ete_met.trials(), shed.ete_met.trials());
  EXPECT_EQ(redis.slice_misses.sum(), shed.slice_misses.sum());
  EXPECT_EQ(redis.recovery.reslices, shed.recovery.reslices);
  EXPECT_EQ(shed.recovery.shed, 0u);
  EXPECT_EQ(shed.degraded_completions, 0u);
  // Precise workloads carry no optional demand: quality is identically 1.
  EXPECT_DOUBLE_EQ(shed.optional_demand, 0.0);
  EXPECT_DOUBLE_EQ(shed.quality.mean(), 1.0);
}

TEST(DegradedMode, ShedOptionalRecoversDeadlineNoneMisses) {
  // Chain of 3 × 10 on one processor, E-T-E deadline 35, every task half
  // optional. Task 0 overruns to 20: without recovery the chain finishes at
  // 40 and misses; shedding the optional halves of tasks 1–2 finishes at 30.
  const Application app =
      with_optional(testing::make_chain(3, 10.0, 35.0), 0.5);
  const Platform platform = Platform::identical(1);
  const auto a = windows({{0.0, 12.0}, {12.0, 24.0}, {24.0, 35.0}});
  const std::vector<double> est(3, 10.0);

  FaultTrace trace = FaultModel(FaultSpec{}).instantiate(app, platform);
  trace.conditions.wcet_factor = {2.0, 1.0, 1.0};

  const EdfDispatchScheduler sched({.abort_on_miss = false});
  RecoveryEngine none(RecoveryPolicy::kNone, app, est);
  DispatchTelemetry t_none;
  sched.run(app, a, platform, &trace.conditions, &none, &t_none);
  EXPECT_DOUBLE_EQ(t_none.completion[2], 40.0);  // E-T-E 35 missed
  EXPECT_TRUE(t_none.degraded.empty());

  RecoveryEngine shed(RecoveryPolicy::kShedOptional, app, est);
  DispatchTelemetry t_shed;
  sched.run(app, a, platform, &trace.conditions, &shed, &t_shed);
  EXPECT_DOUBLE_EQ(t_shed.completion[0], 20.0);  // the miss that triggers
  EXPECT_DOUBLE_EQ(t_shed.completion[1], 25.0);  // mandatory half only
  EXPECT_DOUBLE_EQ(t_shed.completion[2], 30.0);  // E-T-E 35 met
  EXPECT_EQ(shed.stats().shed, 2u);
  EXPECT_DOUBLE_EQ(shed.stats().optional_dropped, 10.0);
  EXPECT_GE(shed.stats().reslices, 1u);
  EXPECT_EQ(t_shed.degraded, (std::vector<NodeId>{1, 2}));
}

TEST(DegradedMode, DegradeThenMigrateShedsBeforeMigrating) {
  // p0 dies at t=5 with task 0 in flight. With half-optional tasks and a
  // loose E-T-E budget, shedding alone reclaims enough slack: the victim is
  // revived unpinned (no migration) and the chain completes degraded.
  const Application app =
      with_optional(testing::make_chain(2, 10.0, 100.0), 0.5);
  const Platform platform = Platform::identical(2);
  const auto a = windows({{0.0, 50.0}, {50.0, 100.0}});
  const std::vector<double> est(2, 10.0);

  FaultTrace trace = FaultModel(FaultSpec{}).instantiate(app, platform);
  trace.conditions.processor_down_at = {5.0, kTimeInfinity};

  RecoveryEngine engine(RecoveryPolicy::kDegradeThenMigrate, app, est);
  DispatchTelemetry telemetry;
  const auto r = EdfDispatchScheduler({.abort_on_miss = false})
                     .run(app, a, platform, &trace.conditions, &engine,
                          &telemetry);
  EXPECT_TRUE(r.schedule.complete());
  EXPECT_TRUE(telemetry.unfinished.empty());
  // The killed task is unstarted again when the engine reacts, so its own
  // optional part is shed along with the successor's.
  EXPECT_EQ(engine.stats().shed, 2u);
  EXPECT_EQ(engine.stats().revived, 1u);
  EXPECT_EQ(engine.stats().migrations, 0u);  // shedding sufficed
  EXPECT_EQ(r.schedule.entry(0).processor, 1u);  // rerun on the survivor
  EXPECT_DOUBLE_EQ(telemetry.completion[0], 10.0);  // 5 + mandatory 5
  EXPECT_DOUBLE_EQ(telemetry.completion[1], 15.0);
  EXPECT_EQ(telemetry.degraded, (std::vector<NodeId>{0, 1}));
}

TEST(DegradedMode, DegradeThenMigrateEscalatesWhenSheddingInsufficient) {
  // Precise chain (nothing to shed) with a tight E-T-E budget: after the
  // failure the re-sliced window cannot hold the victim's demand, so the
  // policy escalates to a pinned migration onto the survivor.
  const Application app = testing::make_chain(2, 10.0, 22.0);
  const Platform platform = Platform::identical(2);
  const auto a = windows({{0.0, 12.0}, {12.0, 22.0}});
  const std::vector<double> est(2, 10.0);

  FaultTrace trace = FaultModel(FaultSpec{}).instantiate(app, platform);
  trace.conditions.processor_down_at = {5.0, kTimeInfinity};

  RecoveryEngine engine(RecoveryPolicy::kDegradeThenMigrate, app, est);
  DispatchTelemetry telemetry;
  const auto r = EdfDispatchScheduler({.abort_on_miss = false})
                     .run(app, a, platform, &trace.conditions, &engine,
                          &telemetry);
  EXPECT_EQ(engine.stats().shed, 0u);
  EXPECT_EQ(engine.stats().migrations, 1u);
  EXPECT_EQ(engine.stats().revived, 1u);
  EXPECT_EQ(engine.stats().abandoned, 0u);
  EXPECT_EQ(r.schedule.entry(0).processor, 1u);
  EXPECT_TRUE(r.schedule.complete());  // finishes, though past the E-T-E
  EXPECT_TRUE(telemetry.degraded.empty());
}

TEST(DegradedMode, QualityAccountingTracksOptionalWork) {
  RobustnessConfig config;
  config.base.generator = testing::small_generator(7);
  config.base.generator.graph_count = 10;
  config.base.generator.workload.min_optional_fraction = 0.4;
  config.base.generator.workload.max_optional_fraction = 0.4;
  config.base.technique = DistributionTechnique::kSlicingAdaptL;

  // Fault-free: every optional part runs, quality is identically 1.
  config.policy = RecoveryPolicy::kNone;
  ThreadPool serial(1);
  const RobustnessResult clean = run_robustness(config, serial);
  EXPECT_GT(clean.optional_demand, 0.0);
  EXPECT_DOUBLE_EQ(clean.optional_completed, clean.optional_demand);
  EXPECT_DOUBLE_EQ(clean.quality.mean(), 1.0);
  EXPECT_EQ(clean.degraded_completions, 0u);

  // Under overruns, shed-optional trades quality for deadlines: whatever it
  // sheds shows up as degraded completions and a quality ratio below 1.
  config.faults.scope = OverrunScope::kUniform;
  config.faults.overrun_factor = 2.5;
  config.faults.overrun_probability = 0.5;
  config.faults.seed = 4242;
  config.policy = RecoveryPolicy::kShedOptional;
  const RobustnessResult shed = run_robustness(config, serial);
  EXPECT_GT(shed.recovery.shed, 0u);
  EXPECT_GT(shed.degraded_completions, 0u);
  EXPECT_LT(shed.quality.mean(), 1.0);
  EXPECT_GE(shed.quality.mean(), 0.0);
  EXPECT_LE(shed.optional_completed, shed.optional_demand);
}

TEST(DegradedMode, SeedReplicatesAreDeterministicAndAdditive) {
  RobustnessConfig config;
  config.base.generator = testing::small_generator(3);
  config.base.generator.graph_count = 6;
  config.faults.scope = OverrunScope::kUniform;
  config.faults.overrun_factor = 1.8;
  config.faults.overrun_probability = 0.4;
  config.policy = RecoveryPolicy::kRedistributeSlack;

  // Replicate 0 uses the base seeds untouched: a one-replicate run is the
  // original batch bit for bit.
  ThreadPool serial(1);
  const RobustnessResult single = run_robustness(config, serial);
  config.seed_replicates = 1;
  const RobustnessResult one = run_robustness(config, serial);
  EXPECT_EQ(single.ete_met.successes(), one.ete_met.successes());
  EXPECT_EQ(single.ete_met.trials(), one.ete_met.trials());
  EXPECT_EQ(single.slice_misses.sum(), one.slice_misses.sum());

  config.seed_replicates = 3;
  const RobustnessResult a = run_robustness(config, serial);
  const RobustnessResult b = run_robustness(config, serial);
  EXPECT_EQ(a.ete_met.successes(), b.ete_met.successes());
  EXPECT_EQ(a.ete_met.trials(), b.ete_met.trials());
  EXPECT_GT(a.ete_met.trials(), one.ete_met.trials());
  // A 3-worker pool agrees with the 1-worker run.
  ThreadPool pool(3);
  const RobustnessResult c = run_robustness(config, pool);
  EXPECT_EQ(a.ete_met.successes(), c.ete_met.successes());
  EXPECT_EQ(a.slice_misses.sum(), c.slice_misses.sum());
  EXPECT_EQ(a.recovery.reslices, c.recovery.reslices);
}

TEST(DegradedMode, RecoveryCountersExported) {
  obs::set_enabled(true);
  obs::reset();
  {
    const Application app =
        with_optional(testing::make_chain(3, 10.0, 35.0), 0.5);
    const Platform platform = Platform::identical(1);
    const auto a = windows({{0.0, 12.0}, {12.0, 24.0}, {24.0, 35.0}});
    const std::vector<double> est(3, 10.0);
    FaultTrace trace = FaultModel(FaultSpec{}).instantiate(app, platform);
    trace.conditions.wcet_factor = {2.0, 1.0, 1.0};
    RecoveryEngine shed(RecoveryPolicy::kShedOptional, app, est);
    DispatchTelemetry telemetry;
    EdfDispatchScheduler({.abort_on_miss = false})
        .run(app, a, platform, &trace.conditions, &shed, &telemetry);
  }
  const obs::MetricsSnapshot metrics = obs::metrics_snapshot();
  obs::set_enabled(false);
  obs::reset();
  ASSERT_EQ(metrics.counters.count("recovery.shed_tasks"), 1u);
  EXPECT_DOUBLE_EQ(metrics.counters.at("recovery.shed_tasks").total, 2.0);
  ASSERT_EQ(metrics.counters.count("recovery.optional_dropped"), 1u);
  EXPECT_DOUBLE_EQ(metrics.counters.at("recovery.optional_dropped").total,
                   10.0);
  ASSERT_EQ(metrics.counters.count("sched.dispatch.degraded"), 1u);
  EXPECT_DOUBLE_EQ(metrics.counters.at("sched.dispatch.degraded").total, 2.0);
}

}  // namespace
}  // namespace dsslice

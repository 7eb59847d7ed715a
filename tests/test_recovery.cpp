// Recovery-policy invariants: redistribute-slack never hands out more than
// the residual E-T-E budget along any path, migration never targets an
// ineligible or dead processor, and end-to-end both policies dominate the
// do-nothing baseline on the scenarios they are designed for.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "dsslice/graph/algorithms.hpp"
#include "dsslice/robust/fault_model.hpp"
#include "dsslice/robust/recovery.hpp"
#include "dsslice/robust/robustness_harness.hpp"
#include "test_util.hpp"

namespace dsslice {
namespace {

constexpr double kEps = 1e-9;

DeadlineAssignment windows(std::vector<Window> ws) {
  DeadlineAssignment a;
  a.windows = std::move(ws);
  return a;
}

/// A View over a pristine (nothing started) dispatch state at `now`.
struct ViewFixture {
  std::vector<char> started;
  std::vector<char> done;
  std::vector<Time> finish;
  std::vector<Time> busy_until;
  std::vector<Time> down_at;

  ViewFixture(const Application& app, const Platform& platform)
      : started(app.task_count(), 0),
        done(app.task_count(), 0),
        finish(app.task_count(), kTimeInfinity),
        busy_until(platform.processor_count(), kTimeZero),
        down_at(platform.processor_count(), kTimeInfinity) {}

  DispatchControl::View view(const Application& app, const Platform& platform,
                             Time now) const {
    return DispatchControl::View{app,  platform, now,        started,
                                 done, finish,   busy_until, down_at};
  }
};

TEST(RedistributeSlack, NeverExceedsResidualBudgetOnAnyPath) {
  // Property over random graphs: for every path v → ... → o, the re-sliced
  // deadline of v plus the estimated WCET of everything after v never
  // exceeds the E-T-E deadline of o — i.e. the re-slice only redistributes
  // the residual budget, it cannot manufacture time.
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const Scenario scenario =
        generate_scenario(testing::small_generator(seed), seed);
    const Application& app = scenario.application;
    const std::vector<double> est =
        estimate_wcets(app, WcetEstimation::kAverage);
    const DeadlineAssignment original = run_slicing(
        app, est, DeadlineMetric(MetricKind::kAdaptL),
        scenario.platform.processor_count());

    ViewFixture fx(app, scenario.platform);
    const auto resliced = redistribute_slack(
        app, est, fx.view(app, scenario.platform, /*now=*/5.0),
        original.windows);

    for (const auto& path : enumerate_paths(app.graph(), 2000)) {
      const NodeId output = path.back();
      if (!app.has_ete_deadline(output)) {
        continue;
      }
      double downstream = 0.0;  // Σ est_wcet strictly after position k
      for (std::size_t k = path.size(); k-- > 1;) {
        const NodeId v = path[k - 1];
        downstream += est[path[k]];
        if (resliced[v].deadline >= kTimeInfinity) {
          continue;
        }
        EXPECT_LE(resliced[v].deadline + downstream,
                  app.ete_deadline(output) + kEps)
            << "seed " << seed << " task " << v;
      }
    }
  }
}

TEST(RedistributeSlack, KeepsWindowsOfStartedAndDoneTasks) {
  const Application app = testing::make_chain(3, 10.0, 90.0);
  const Platform platform = Platform::identical(1);
  const std::vector<double> est(3, 10.0);
  const auto original =
      windows({{0.0, 30.0}, {30.0, 60.0}, {60.0, 90.0}});

  ViewFixture fx(app, platform);
  fx.started[0] = 1;
  fx.done[0] = 1;
  fx.finish[0] = 35.0;  // finished late
  const auto resliced = redistribute_slack(
      app, est, fx.view(app, platform, 35.0), original.windows);

  EXPECT_EQ(resliced[0].arrival, original.windows[0].arrival);
  EXPECT_EQ(resliced[0].deadline, original.windows[0].deadline);
  // Task 1 restarts from the actual state: EST = finish of task 0, LFT
  // backs off the E-T-E deadline by task 2's estimate.
  EXPECT_DOUBLE_EQ(resliced[1].arrival, 35.0);
  EXPECT_DOUBLE_EQ(resliced[1].deadline, 80.0);
  EXPECT_DOUBLE_EQ(resliced[2].arrival, 45.0);
  EXPECT_DOUBLE_EQ(resliced[2].deadline, 90.0);
}

TEST(MigrationTarget, NeverPicksIneligibleOrDeadProcessor) {
  // Two classes: the task only runs on class 0. Processor 0 (class 0) is
  // dead, processor 1 is class 1 (ineligible), processor 2 is class 0.
  const std::vector<ProcessorClass> classes{ProcessorClass{"a", 1.0},
                                            ProcessorClass{"b", 1.0}};
  std::vector<Processor> procs{Processor{"p0", 0}, Processor{"p1", 1},
                               Processor{"p2", 0}};
  const Platform platform(classes, std::move(procs),
                          std::make_shared<SharedBus>(1.0));
  Task task;
  task.name = "t";
  task.wcet_by_class = {10.0, kIneligibleWcet};

  const std::vector<Time> busy{0.0, 0.0, 0.0};
  std::vector<Time> down{5.0, kTimeInfinity, kTimeInfinity};
  auto target = choose_migration_target(task, platform, busy, down, 10.0);
  ASSERT_TRUE(target.has_value());
  EXPECT_EQ(*target, 2u);

  // Kill the last eligible processor too: no target.
  down[2] = 5.0;
  EXPECT_FALSE(
      choose_migration_target(task, platform, busy, down, 10.0).has_value());
}

TEST(MigrationTarget, PrefersLeastLoadedThenFastest) {
  const std::vector<ProcessorClass> classes{ProcessorClass{"a", 1.0},
                                            ProcessorClass{"b", 1.0}};
  std::vector<Processor> procs{Processor{"p0", 0}, Processor{"p1", 0},
                               Processor{"p2", 1}};
  const Platform platform(classes, std::move(procs),
                          std::make_shared<SharedBus>(1.0));
  Task task;
  task.name = "t";
  task.wcet_by_class = {10.0, 4.0};

  const std::vector<Time> down(3, kTimeInfinity);
  // p1 is the least loaded eligible processor.
  const std::vector<Time> uneven{30.0, 12.0, 30.0};
  EXPECT_EQ(*choose_migration_target(task, platform, uneven, down, 10.0), 1u);
  // Equal load: the faster class (p2, wcet 4) wins over lower id.
  const std::vector<Time> idle(3, 0.0);
  EXPECT_EQ(*choose_migration_target(task, platform, idle, down, 0.0), 2u);
}

TEST(RecoveryEngine, MigrateRevivesKilledWorkOntoSurvivor) {
  // Chain of 3 on two processors; p0 dies mid-flight of task 1. kMigrate
  // must finish the chain on p1; kNone strands it.
  const Application app = testing::make_chain(3, 10.0, 200.0);
  // Task 1's window opens right as task 0 finishes, so it is in flight on
  // p0 (lowest-id tie-break) when the failure strikes at t=15.
  const auto a = windows({{0.0, 60.0}, {10.0, 130.0}, {130.0, 200.0}});
  const Platform platform = Platform::identical(2);

  FaultTrace trace = FaultModel(FaultSpec{}).instantiate(app, platform);
  trace.conditions.processor_down_at = {15.0, kTimeInfinity};

  const std::vector<double> est(3, 10.0);
  const EdfDispatchScheduler sched({.abort_on_miss = false});

  RecoveryEngine none(RecoveryPolicy::kNone, app, est);
  DispatchTelemetry t_none;
  const auto r_none =
      sched.run(app, a, platform, &trace.conditions, &none, &t_none);
  EXPECT_FALSE(r_none.success);
  EXPECT_FALSE(t_none.unfinished.empty());
  EXPECT_EQ(none.stats().abandoned, t_none.killed.size());

  RecoveryEngine migrate(RecoveryPolicy::kMigrate, app, est);
  DispatchTelemetry t_mig;
  const auto r_mig =
      sched.run(app, a, platform, &trace.conditions, &migrate, &t_mig);
  EXPECT_TRUE(t_mig.unfinished.empty());
  EXPECT_TRUE(r_mig.schedule.complete());
  EXPECT_GE(migrate.stats().migrations, 1u);
  EXPECT_EQ(migrate.stats().revived, t_mig.killed.size());
  // Everything after the failure runs on the survivor.
  for (NodeId v = 0; v < app.task_count(); ++v) {
    if (r_mig.schedule.entry(v).start > 15.0) {
      EXPECT_EQ(r_mig.schedule.entry(v).processor, 1u);
    }
  }
}

TEST(RecoveryEngine, MigrationHonorsEligibleClasses) {
  // The killed task is only eligible for class 0; the sole survivor is
  // class 1 — migration must abandon it, never mis-assign it.
  ApplicationBuilder b;
  const NodeId t0 = b.add_task("t0", {10.0, kIneligibleWcet});
  const NodeId t1 = b.add_task("t1", {10.0, 5.0});
  b.add_precedence(t0, t1, 0.0);
  b.set_input_arrival(t0, 0.0);
  b.set_ete_deadline(t1, 100.0);
  const Application app = b.build(2);

  const std::vector<ProcessorClass> classes{ProcessorClass{"a", 1.0},
                                            ProcessorClass{"b", 1.0}};
  std::vector<Processor> procs{Processor{"p0", 0}, Processor{"p1", 1}};
  const Platform platform(classes, std::move(procs),
                          std::make_shared<SharedBus>(1.0));
  const auto a = windows({{0.0, 50.0}, {50.0, 100.0}});

  FaultTrace trace = FaultModel(FaultSpec{}).instantiate(app, platform);
  trace.conditions.processor_down_at = {5.0, kTimeInfinity};

  RecoveryEngine migrate(RecoveryPolicy::kMigrate, app, {10.0, 5.0});
  DispatchTelemetry telemetry;
  const auto r = EdfDispatchScheduler({.abort_on_miss = false})
                     .run(app, a, platform, &trace.conditions, &migrate,
                          &telemetry);
  EXPECT_FALSE(r.success);
  EXPECT_EQ(migrate.stats().abandoned, 1u);
  EXPECT_EQ(migrate.stats().migrations, 0u);
  // t0 must not have been placed anywhere (p1 is ineligible for it).
  EXPECT_FALSE(r.schedule.placed(t0));
}

TEST(RecoveryEngine, RedistributeSlackReducesMissesUnderOverrun) {
  // Batch property on paper-shaped workloads: with a hot-spot overrun, the
  // redistribute-slack policy must meet at least as many E-T-E deadlines as
  // the do-nothing baseline (and strictly more in aggregate).
  RobustnessConfig config;
  config.base.generator = testing::small_generator(77);
  config.base.generator.graph_count = 24;
  config.base.technique = DistributionTechnique::kSlicingAdaptL;
  config.faults.scope = OverrunScope::kUniform;
  config.faults.overrun_factor = 2.0;
  config.faults.overrun_probability = 0.35;
  config.faults.seed = 1234;

  config.policy = RecoveryPolicy::kNone;
  ThreadPool serial(1);
  const RobustnessResult none = run_robustness(config, serial);
  config.policy = RecoveryPolicy::kRedistributeSlack;
  const RobustnessResult redistribute = run_robustness(config, serial);

  EXPECT_EQ(none.ete_met.trials(), redistribute.ete_met.trials());
  EXPECT_GE(redistribute.ete_met.successes(), none.ete_met.successes());
  EXPECT_GT(redistribute.recovery.reslices, 0u);
}

TEST(RobustnessHarness, DeterministicAcrossRuns) {
  RobustnessConfig config;
  config.base.generator = testing::small_generator(5);
  config.base.generator.graph_count = 8;
  config.faults.overrun_factor = 1.8;
  config.faults.overrun_probability = 0.4;
  config.policy = RecoveryPolicy::kRedistributeSlack;

  ThreadPool serial(1);
  const RobustnessResult a = run_robustness(config, serial);
  const RobustnessResult b = run_robustness(config, serial);
  EXPECT_EQ(a.ete_met.successes(), b.ete_met.successes());
  EXPECT_EQ(a.ete_met.trials(), b.ete_met.trials());
  EXPECT_EQ(a.slice_misses.sum(), b.slice_misses.sum());
  EXPECT_EQ(a.recovery.reslices, b.recovery.reslices);

  ThreadPool pool(3);
  const RobustnessResult c = run_robustness(config, pool);
  EXPECT_EQ(a.ete_met.successes(), c.ete_met.successes());
  EXPECT_EQ(a.slice_misses.sum(), c.slice_misses.sum());
  EXPECT_EQ(a.recovery.reslices, c.recovery.reslices);
}

TEST(RobustnessHarness, BreakdownFactorInterpolatesCrossing) {
  SweepResult sweep;
  sweep.x_label = "overrun-factor";
  sweep.x = {1.0, 2.0, 3.0};
  Series fragile;
  fragile.name = "fragile";
  fragile.success_ratio = {0.95, 0.85, 0.55};  // miss: 5%, 15%, 45%
  Series hardy;
  hardy.name = "hardy";
  hardy.success_ratio = {1.0, 0.99, 0.95};
  sweep.series = {fragile, hardy};

  const auto points = breakdown_overrun_factors(sweep, /*threshold=*/0.10);
  ASSERT_EQ(points.size(), 2u);
  EXPECT_EQ(points[0].series, "fragile");
  EXPECT_TRUE(points[0].broke);
  // Crossing between x=1 (5%) and x=2 (15%): threshold 10% → x = 1.5.
  EXPECT_NEAR(points[0].factor, 1.5, 1e-12);
  EXPECT_FALSE(points[1].broke);
  EXPECT_DOUBLE_EQ(points[1].factor, 3.0);
}

}  // namespace
}  // namespace dsslice

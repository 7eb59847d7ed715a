#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "dsslice/core/slicing.hpp"
#include "dsslice/sched/annealing_scheduler.hpp"
#include "dsslice/sched/clustering.hpp"
#include "dsslice/sched/scheduler_workspace.hpp"
#include "dsslice/sched/validation.hpp"
#include "test_util.hpp"

namespace dsslice {
namespace {

DeadlineAssignment windows(std::vector<Window> ws) {
  DeadlineAssignment a;
  a.windows = std::move(ws);
  return a;
}

TEST(Clustering, MergesAlongHeavyArcs) {
  ApplicationBuilder b;
  const NodeId a0 = b.add_uniform_task("a0", 10.0);
  const NodeId a1 = b.add_uniform_task("a1", 10.0);
  const NodeId b0 = b.add_uniform_task("b0", 10.0);
  const NodeId b1 = b.add_uniform_task("b1", 10.0);
  b.add_precedence(a0, a1, 10.0);  // heavy
  b.add_precedence(b0, b1, 1.0);   // light
  b.set_input_arrival(a0, 0.0);
  b.set_input_arrival(b0, 0.0);
  b.set_ete_deadline(a1, 100.0);
  b.set_ete_deadline(b1, 100.0);
  const Application app = b.build();
  const Clustering c = cluster_by_communication(app, 5.0, 4);
  EXPECT_EQ(c.cluster_of[a0], c.cluster_of[a1]);
  EXPECT_NE(c.cluster_of[b0], c.cluster_of[b1]);
  EXPECT_EQ(c.cluster_count, 3u);
  EXPECT_EQ(c.size_of(c.cluster_of[a0]), 2u);
}

TEST(Clustering, RespectsSizeCap) {
  // A chain of 5 tasks, all heavy arcs, cap 2: clusters of at most 2.
  ApplicationBuilder b;
  std::vector<NodeId> chain;
  for (int i = 0; i < 5; ++i) {
    chain.push_back(b.add_uniform_task("t" + std::to_string(i), 10.0));
  }
  b.add_chain(chain, 10.0);
  b.set_input_arrival(chain.front(), 0.0);
  b.set_ete_deadline(chain.back(), 500.0);
  const Application app = b.build();
  const Clustering c = cluster_by_communication(app, 1.0, 2);
  for (std::size_t k = 0; k < c.cluster_count; ++k) {
    EXPECT_LE(c.size_of(k), 2u);
  }
}

TEST(Clustering, ZeroThresholdMergesEverythingUpToCap) {
  const Application app = testing::make_diamond(10.0, 10.0, 10.0, 10.0,
                                                200.0, 1.0);
  const Clustering c = cluster_by_communication(app, 0.0, 4);
  EXPECT_EQ(c.cluster_count, 1u);
}

TEST(ClusteredScheduler, CoLocatesClusterMembers) {
  const Application app = testing::make_diamond(10.0, 20.0, 20.0, 10.0,
                                                200.0, 8.0);
  const auto a = windows(
      {{0.0, 50.0}, {50.0, 140.0}, {50.0, 140.0}, {140.0, 200.0}});
  const Clustering c = cluster_by_communication(app, 1.0, 4);
  ASSERT_EQ(c.cluster_count, 1u);
  const CoLocation groups = c.groups();
  const auto r = EdfListScheduler().run(app, a, Platform::identical(3),
                                        nullptr, &groups);
  ASSERT_TRUE(r.success) << r.failure_reason;
  const ProcessorId p = r.schedule.entry(0).processor;
  for (NodeId v = 1; v < 4; ++v) {
    EXPECT_EQ(r.schedule.entry(v).processor, p);
  }
  EXPECT_TRUE(
      validate_schedule(app, Platform::identical(3), a, r.schedule).empty());
}

TEST(ClusteredScheduler, SingletonClustersBehaveLikeListEdf) {
  // Singleton clusters constrain nothing, so the clustered run must place
  // every task exactly as the plain list scheduler does (same processor,
  // start, finish and verdict), in abort and in lateness mode, over 3,072
  // paper-size scenarios at seed 20250707: m ∈ {2, 3, 4, 6} × OLR ∈
  // {0.6, 0.8, 1.2} × 256 graphs, ADAPT-L windows.
  SchedulerWorkspace ws;
  SchedulerResult plain;
  SchedulerResult clustered;
  std::size_t scenarios = 0;
  std::size_t successes = 0;
  for (const std::size_t m : {2u, 3u, 4u, 6u}) {
    for (const double olr : {0.6, 0.8, 1.2}) {
      GeneratorConfig cfg = testing::paper_generator(20250707, m);
      cfg.workload.olr = olr;
      for (std::size_t k = 0; k < 256; ++k) {
        const Scenario sc = generate_scenario_at(cfg, k);
        const Application& app = sc.application;
        const auto est = estimate_wcets(app, WcetEstimation::kAverage);
        const auto a = run_slicing(app, est,
                                   DeadlineMetric(MetricKind::kAdaptL), m);
        // Threshold above every message size → all singletons.
        const Clustering c = cluster_by_communication(app, 1e9, 1);
        ASSERT_EQ(c.cluster_count, app.task_count());
        const CoLocation groups = c.groups();
        for (const bool abort_on_miss : {true, false}) {
          SchedulerOptions options;
          options.abort_on_miss = abort_on_miss;
          const EdfListScheduler scheduler(options);
          scheduler.run_into(plain, ws, app, a, sc.platform);
          scheduler.run_into(clustered, ws, app, a, sc.platform, nullptr,
                             &groups);
          const std::string label =
              "m=" + std::to_string(m) + " olr=" + std::to_string(olr) +
              " k=" + std::to_string(k) +
              (abort_on_miss ? " abort" : " lateness");
          ASSERT_EQ(clustered.success, plain.success) << label;
          ASSERT_EQ(clustered.failed_task, plain.failed_task) << label;
          ASSERT_EQ(clustered.failure_reason, plain.failure_reason) << label;
          for (NodeId v = 0; v < app.task_count(); ++v) {
            ASSERT_EQ(clustered.schedule.placed(v), plain.schedule.placed(v))
                << label << " task " << v;
            if (plain.schedule.placed(v)) {
              ASSERT_EQ(clustered.schedule.entry(v), plain.schedule.entry(v))
                  << label << " task " << v;
            }
          }
          ++scenarios;
          successes += plain.success ? 1 : 0;
        }
      }
    }
  }
  EXPECT_EQ(scenarios, 2u * 3072u);
  // Both verdicts occur, so placements past a miss are compared too.
  EXPECT_GT(successes, 0u);
  EXPECT_LT(successes, scenarios);
}

TEST(ClusteredScheduler, EligibilityMustHoldClusterWide) {
  // Two clustered tasks whose eligible classes are disjoint: no processor
  // can host the cluster.
  ApplicationBuilder b;
  const NodeId u = b.add_task("u", {10.0, kIneligibleWcet});
  const NodeId v = b.add_task("v", {kIneligibleWcet, 10.0});
  b.add_precedence(u, v, 10.0);
  b.set_input_arrival(u, 0.0);
  b.set_ete_deadline(v, 100.0);
  const Application app = b.build(2);
  const Platform plat = Platform::shared_bus(
      {ProcessorClass{"e0", 1.0}, ProcessorClass{"e1", 1.0}}, {0, 1});
  const auto a = windows({{0.0, 50.0}, {50.0, 100.0}});
  const Clustering c = cluster_by_communication(app, 1.0, 2);
  ASSERT_EQ(c.cluster_count, 1u);
  const CoLocation groups = c.groups();
  const auto r = EdfListScheduler().run(app, a, plat, nullptr, &groups);
  EXPECT_FALSE(r.success);
  EXPECT_NE(r.failure_reason.find("no commonly eligible processor"),
            std::string::npos);

  // With one common class the cluster lands there, although u alone would
  // finish earlier on the other processor.
  ApplicationBuilder b2;
  const NodeId u2 = b2.add_task("u", {10.0, 20.0});
  const NodeId v2 = b2.add_task("v", {kIneligibleWcet, 10.0});
  b2.add_precedence(u2, v2, 10.0);
  b2.set_input_arrival(u2, 0.0);
  b2.set_ete_deadline(v2, 100.0);
  const Application app2 = b2.build(2);
  const Clustering c2 = cluster_by_communication(app2, 1.0, 2);
  const CoLocation groups2 = c2.groups();
  const auto plain = EdfListScheduler().run(app2, a, plat);
  ASSERT_TRUE(plain.success) << plain.failure_reason;
  EXPECT_EQ(plain.schedule.entry(u2).processor, 0u);
  const auto r2 = EdfListScheduler().run(app2, a, plat, nullptr, &groups2);
  ASSERT_TRUE(r2.success) << r2.failure_reason;
  EXPECT_EQ(r2.schedule.entry(u2).processor, 1u);
  EXPECT_EQ(r2.schedule.entry(v2).processor, 1u);
}

TEST(ClusteredScheduler, EliminatesCrossProcessorTrafficOnHeavyArcs) {
  // Clustering's structural guarantee: arcs merged into one cluster never
  // cross processors, so the bus traffic over heavy arcs drops relative to
  // unconstrained EDF placement. (Whether that wins overall depends on how
  // much parallelism the pinning costs — see the bus ablation — so the
  // test asserts the traffic claim, not a schedulability claim.)
  GeneratorConfig gen = testing::paper_generator(97);
  gen.workload.ccr = 1.0;
  double plain_cross_items = 0.0;
  double clustered_cross_items = 0.0;
  for (std::size_t k = 0; k < 12; ++k) {
    const Scenario sc = generate_scenario_at(gen, k);
    const auto est = estimate_wcets(sc.application, WcetEstimation::kAverage);
    const auto a = run_slicing(sc.application, est,
                               DeadlineMetric(MetricKind::kAdaptL),
                               sc.platform.processor_count());
    SchedulerOptions lateness_mode;
    lateness_mode.abort_on_miss = false;
    const auto plain = EdfListScheduler(lateness_mode)
                           .run(sc.application, a, sc.platform);
    const Clustering c = cluster_by_communication(
        sc.application, 20.0, std::max<std::size_t>(
                                  2, sc.application.task_count() / 3));
    const CoLocation groups = c.groups();
    const auto clustered = EdfListScheduler(lateness_mode)
                               .run(sc.application, a, sc.platform, nullptr,
                                    &groups);
    ASSERT_TRUE(plain.schedule.complete());
    ASSERT_TRUE(clustered.schedule.complete());
    const auto cross_items = [&](const Schedule& schedule) {
      double items = 0.0;
      for (const Arc& arc : sc.application.graph().arcs()) {
        if (schedule.entry(arc.from).processor !=
            schedule.entry(arc.to).processor) {
          items += arc.message_items;
        }
      }
      return items;
    };
    plain_cross_items += cross_items(plain.schedule);
    clustered_cross_items += cross_items(clustered.schedule);
    // Clustered arcs are intra-processor by construction.
    for (const Arc& arc : sc.application.graph().arcs()) {
      if (c.cluster_of[arc.from] == c.cluster_of[arc.to]) {
        EXPECT_EQ(clustered.schedule.entry(arc.from).processor,
                  clustered.schedule.entry(arc.to).processor);
      }
    }
  }
  EXPECT_LT(clustered_cross_items, plain_cross_items);
}

TEST(ClusteredScheduler, FixedGroupsRunOnTheirProcessor) {
  // Source and sink share a group fixed to processor 2; the two middle
  // tasks form a free group, which follows its first placed member.
  const Application app = testing::make_diamond(10.0, 20.0, 20.0, 10.0,
                                                200.0, 8.0);
  const auto a = windows(
      {{0.0, 50.0}, {50.0, 140.0}, {50.0, 140.0}, {140.0, 200.0}});
  const std::vector<std::size_t> group_of{0, 1, 1, 0};
  const std::vector<ProcessorId> fixed{2, kAnyProcessor};
  const CoLocation groups{group_of, 2, fixed};
  const Platform platform = Platform::identical(3);
  const auto r = EdfListScheduler().run(app, a, platform, nullptr, &groups);
  ASSERT_TRUE(r.success) << r.failure_reason;
  EXPECT_EQ(r.schedule.entry(0).processor, 2u);
  EXPECT_EQ(r.schedule.entry(3).processor, 2u);
  // The first middle task can start at its arrival anywhere, so the §5.4
  // tie rule puts it on processor 0; the second follows it there and
  // serializes behind it.
  EXPECT_EQ(r.schedule.entry(1).processor, 0u);
  EXPECT_EQ(r.schedule.entry(2).processor, 0u);
  EXPECT_EQ(r.schedule.entry(2).start, r.schedule.entry(1).finish);
  EXPECT_TRUE(validate_schedule(app, platform, a, r.schedule).empty());
}

TEST(ClusteredScheduler, RejectsMalformedGroups) {
  const Application app = testing::make_chain(2, 10.0, 100.0);
  const auto a = windows({{0.0, 50.0}, {50.0, 100.0}});
  const Platform platform = Platform::identical(2);
  const EdfListScheduler scheduler;
  const std::vector<std::size_t> short_table{0};
  const std::vector<std::size_t> two_groups{0, 1};
  const std::vector<ProcessorId> off_platform{0, 2};
  const CoLocation bad[] = {
      {short_table, 1},             // one group id for two tasks
      {two_groups, 1},              // group 1 of a single group
      {two_groups, 2, off_platform},  // processor 2 on two processors
      {two_groups, 2, std::span<const ProcessorId>(off_platform).first(1)},
  };
  for (const CoLocation& groups : bad) {
    EXPECT_THROW(scheduler.run(app, a, platform, nullptr, &groups),
                 ConfigError);
  }
}

TEST(ClusteredScheduler, WarmCoLocatedRunsGrowZeroBuffers) {
  SchedulerWorkspace ws;
  SchedulerResult result;
  SchedulerOptions lateness_mode;
  lateness_mode.abort_on_miss = false;
  const EdfListScheduler scheduler(lateness_mode);
  const auto run_batch = [&] {
    for (std::size_t k = 0; k < 6; ++k) {
      const Scenario sc =
          generate_scenario_at(testing::paper_generator(98), k);
      const auto est =
          estimate_wcets(sc.application, WcetEstimation::kAverage);
      const auto a = run_slicing(sc.application, est,
                                 DeadlineMetric(MetricKind::kAdaptL),
                                 sc.platform.processor_count());
      const Clustering c = cluster_by_communication(sc.application, 20.0, 4);
      const CoLocation groups = c.groups();
      scheduler.run_into(result, ws, sc.application, a, sc.platform, nullptr,
                         &groups);
      std::vector<ProcessorId> mapping(sc.application.task_count());
      for (NodeId v = 0; v < mapping.size(); ++v) {
        mapping[v] = result.schedule.entry(v).processor;
      }
      schedule_with_fixed_mapping_into(result, ws, sc.application, a,
                                       sc.platform, mapping);
    }
  };
  run_batch();  // cold: sizes every buffer for the batch's largest scenario
  run_batch();  // settle
  const std::uint64_t warm = ws.grow_events();
  run_batch();
  EXPECT_EQ(ws.grow_events(), warm)
      << "warm co-located runs must not grow workspace buffers";
}

TEST(Clustering, RejectsBadCap) {
  const Application app = testing::make_chain(2, 10.0, 100.0);
  EXPECT_THROW(cluster_by_communication(app, 1.0, 0), ConfigError);
}

}  // namespace
}  // namespace dsslice

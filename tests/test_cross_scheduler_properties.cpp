// Cross-scheduler consistency properties: the seven scheduling engines must
// agree where their models coincide, and the analytic feasibility checks
// must never flag an assignment some engine actually scheduled.
#include <gtest/gtest.h>

#include "dsslice/dsslice.hpp"
#include "test_util.hpp"

namespace dsslice {
namespace {

using testing::paper_generator;

struct Prepared {
  Scenario scenario;
  DeadlineAssignment assignment;
};

Prepared prepare(std::uint64_t seed, MetricKind kind = MetricKind::kAdaptL) {
  Scenario sc = generate_scenario_at(paper_generator(seed), 0);
  const auto est = estimate_wcets(sc.application, WcetEstimation::kAverage);
  auto a = run_slicing(sc.application, est, DeadlineMetric(kind),
                       sc.platform.processor_count());
  return Prepared{std::move(sc), std::move(a)};
}

TEST(CrossScheduler, NecessaryConditionsNeverFlagAScheduledAssignment) {
  // Soundness in the forward direction: if the greedy scheduler met every
  // window, the analytic necessary conditions must all hold.
  for (std::uint64_t seed : {301u, 302u, 303u, 304u, 305u, 306u}) {
    const Prepared p = prepare(seed);
    const auto result = EdfListScheduler().run(p.scenario.application,
                                               p.assignment,
                                               p.scenario.platform);
    if (!result.success) {
      continue;
    }
    const FeasibilityReport report = check_necessary_conditions(
        p.scenario.application, p.assignment, p.scenario.platform);
    EXPECT_TRUE(report.maybe_feasible())
        << "seed " << seed << ": "
        << (report.violations.empty() ? "" : report.violations.front());
  }
}

TEST(CrossScheduler, DispatcherIsWorkConserving) {
  // No processor may idle while a task bound for it was dispatchable: in
  // the produced schedule, any gap on a processor implies every task that
  // eventually ran there was not yet dispatchable during the gap. We verify
  // the cheap corollary: a task never starts later than the maximum of its
  // release constraints and the previous finish on its processor.
  for (std::uint64_t seed : {311u, 312u, 313u}) {
    const Prepared p = prepare(seed);
    const auto r = EdfDispatchScheduler().run(p.scenario.application,
                                              p.assignment,
                                              p.scenario.platform);
    if (!r.success) {
      continue;
    }
    const TaskGraph& g = p.scenario.application.graph();
    for (ProcessorId proc = 0; proc < p.scenario.platform.processor_count();
         ++proc) {
      // on_processor is in placement order = start order for the dispatcher.
      Time prev_finish = kTimeZero;
      for (const NodeId v : r.schedule.on_processor(proc)) {
        const ScheduledTask& e = r.schedule.entry(v);
        Time release = p.assignment.windows[v].arrival;
        for (const NodeId u : g.predecessors(v)) {
          const ScheduledTask& pe = r.schedule.entry(u);
          const double items = g.message_items(u, v).value_or(0.0);
          release = std::max(release,
                             pe.finish + p.scenario.platform.comm_delay(
                                             pe.processor, proc, items));
        }
        EXPECT_LE(e.start, std::max(release, prev_finish) + 1e-6)
            << "seed " << seed << " task " << v
            << " idled a dispatchable processor";
        prev_finish = e.finish;
      }
    }
  }
}

TEST(CrossScheduler, AllEnginesAgreeOnSerialChains) {
  // On a single chain with exactly-fitting windows there is no scheduling
  // freedom: list, dispatch, preemptive and clustered engines must produce
  // the same completion times.
  const Application app = testing::make_chain(5, 10.0, 200.0);
  DeadlineAssignment a;
  for (int i = 0; i < 5; ++i) {
    a.windows.push_back(Window{40.0 * i, 40.0 * (i + 1)});
  }
  const Platform platform = Platform::identical(2);

  const auto list = EdfListScheduler().run(app, a, platform);
  const auto dispatch = EdfDispatchScheduler().run(app, a, platform);
  const auto preemptive = PreemptiveEdfScheduler().run(app, a, platform);
  const Clustering singletons = cluster_by_communication(app, 1e9, 1);
  const CoLocation groups = singletons.groups();
  const auto clustered =
      EdfListScheduler().run(app, a, platform, nullptr, &groups);

  ASSERT_TRUE(list.success);
  ASSERT_TRUE(dispatch.success);
  ASSERT_TRUE(preemptive.success);
  ASSERT_TRUE(clustered.success);
  for (NodeId v = 0; v < 5; ++v) {
    const Time f = list.schedule.entry(v).finish;
    EXPECT_DOUBLE_EQ(dispatch.schedule.entry(v).finish, f);
    EXPECT_DOUBLE_EQ(preemptive.completion[v], f);
    EXPECT_DOUBLE_EQ(clustered.schedule.entry(v).finish, f);
  }
  EXPECT_EQ(preemptive.preemptions, 0u);
}

TEST(CrossScheduler, OracleConfirmsEveryEngineSuccessOnSmallInstances) {
  GeneratorConfig gen = testing::small_generator(320);
  gen.workload.min_tasks = 8;
  gen.workload.max_tasks = 10;
  gen.workload.min_depth = 3;
  gen.workload.max_depth = 3;
  for (std::size_t k = 0; k < 10; ++k) {
    const Scenario sc = generate_scenario_at(gen, k);
    const auto est = estimate_wcets(sc.application, WcetEstimation::kAverage);
    const auto a = run_slicing(sc.application, est,
                               DeadlineMetric(MetricKind::kNorm),
                               sc.platform.processor_count());
    bool any_engine_succeeded =
        EdfListScheduler().run(sc.application, a, sc.platform).success ||
        EdfDispatchScheduler().run(sc.application, a, sc.platform).success ||
        PreemptiveEdfScheduler().run(sc.application, a, sc.platform).success;
    if (!any_engine_succeeded) {
      continue;
    }
    // Note: preemptive success does not imply non-preemptive feasibility in
    // general; restrict the oracle cross-check to the non-preemptive wins.
    const bool nonpreemptive_ok =
        EdfListScheduler().run(sc.application, a, sc.platform).success ||
        EdfDispatchScheduler().run(sc.application, a, sc.platform).success;
    if (!nonpreemptive_ok) {
      continue;
    }
    const auto oracle =
        branch_and_bound_schedule(sc.application, a, sc.platform);
    EXPECT_EQ(oracle.status, BnbStatus::kFeasible) << "scenario " << k;
  }
}

}  // namespace
}  // namespace dsslice

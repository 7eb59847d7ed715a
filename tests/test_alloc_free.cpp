// Zero-allocation gate for the warm sweep path.
//
// This binary replaces the global operator new/delete with counting
// versions, which is why it is its own executable (dsslice_alloc_tests):
// the counters would otherwise see every other suite's allocations. It
// drives the sweep engine's per-scenario loop layer by layer — generate,
// analysis, batch slicing kernel, scheduling plus the aggregate fold — and
// asserts that once the per-thread storage is warm no layer touches the
// heap. The grow_events() counters only see scratch-managed buffers; this
// test sees every allocation.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "dsslice/batch/slice_kernel.hpp"
#include "dsslice/gen/scenario_batch.hpp"
#include "dsslice/gen/taskgraph_generator.hpp"
#include "dsslice/sim/experiment.hpp"
#include "dsslice/sweep/aggregate.hpp"
#include "dsslice/sweep/sweep_engine.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t size, std::size_t alignment) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  size = std::max<std::size_t>(size, 1);
  void* p = alignment <= alignof(std::max_align_t)
                ? std::malloc(size)
                : std::aligned_alloc(alignment,
                                     (size + alignment - 1) / alignment *
                                         alignment);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

}  // namespace

// The array and nothrow forms forward to these in libstdc++.
void* operator new(std::size_t size) {
  return counted_alloc(size, alignof(std::max_align_t));
}
void* operator new(std::size_t size, std::align_val_t alignment) {
  return counted_alloc(size, static_cast<std::size_t>(alignment));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace dsslice {
namespace {

std::uint64_t allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

// Allocations per layer, totalled and worst-case over the measured window.
struct LayerCounts {
  std::uint64_t gen = 0;
  std::uint64_t analysis = 0;
  std::uint64_t batch = 0;
  std::uint64_t sched_fold_scheduled = 0;  // over scheduled scenarios
  std::uint64_t sched_fold_failed_max = 0;  // worst failed scenario
  std::size_t failed = 0;
  std::size_t scenarios = 0;
};

constexpr std::size_t kWindow = 512;

// The sweep engine's shard loop (run_sweep_shard) on caller-owned storage,
// one scenario per generate call (SweepOptions::gen_chunk). The analysis is
// forced before the kernel so its cost lands in its own layer, as in the
// benchmark's traced pass.
//
// Warm-up runs the same window twice: recycled storage only grows to the
// largest shape it has held, and Application::rebuild_swap ping-pongs two
// graphs, so two passes show every scenario to every recycled buffer.
LayerCounts count_warm_allocations(const ExperimentConfig& config) {
  static_assert(SweepOptions::gen_chunk == 1);
  ScenarioBatch batch;
  BatchSliceKernel kernel;
  ScenarioScratch scratch;
  SweepAggregate aggregate;
  BatchSliceConfig kernel_config;
  kernel_config.metric = metric_of(config.technique);
  kernel_config.params = config.metric_params;
  kernel_config.wcet_strategy = config.wcet_strategy;

  LayerCounts counts;
  for (int pass = 0; pass < 3; ++pass) {
    const bool measured = pass == 2;
    for (std::size_t k = 0; k < kWindow; ++k) {
      const std::uint64_t t0 = allocations();
      batch.generate(config.generator, k, 1);
      const std::uint64_t t1 = allocations();
      (void)batch[0].application.analysis();
      const std::uint64_t t2 = allocations();
      kernel.run(batch.scenarios(), kernel_config);
      const std::uint64_t t3 = allocations();
      const GraphOutcome outcome = evaluate_scheduled(
          config, batch[0], kernel.assignment(0), kernel.outcome_min_laxity(0),
          kernel.stats(0).passes, &scratch);
      aggregate.add(outcome);
      const std::uint64_t t4 = allocations();
      if (!measured) {
        continue;
      }
      counts.gen += t1 - t0;
      counts.analysis += t2 - t1;
      counts.batch += t3 - t2;
      if (outcome.scheduled) {
        counts.sched_fold_scheduled += t4 - t3;
      } else {
        ++counts.failed;
        counts.sched_fold_failed_max =
            std::max(counts.sched_fold_failed_max, t4 - t3);
      }
      ++counts.scenarios;
    }
  }
  return counts;
}

void expect_allocation_free(const LayerCounts& c) {
  ASSERT_EQ(c.scenarios, kWindow);
  EXPECT_LT(c.failed, c.scenarios) << "no scheduled scenario was measured";
  EXPECT_EQ(c.gen, 0u) << "allocations in ScenarioBatch::generate";
  EXPECT_EQ(c.analysis, 0u) << "allocations in Application::analysis";
  EXPECT_EQ(c.batch, 0u) << "allocations in BatchSliceKernel::run";
  EXPECT_EQ(c.sched_fold_scheduled, 0u)
      << "allocations scheduling and folding scheduled scenarios";
  // A failed scenario may allocate its failure_reason string (one heap
  // buffer once the message outgrows the small-string storage) until that
  // string becomes an enum (ROADMAP item 6).
  EXPECT_LE(c.sched_fold_failed_max, 1u)
      << "allocations scheduling and folding a failed scenario";
}

TEST(AllocFree, CountingNewSeesHeapAllocations) {
  // Direct calls: a new-expression's allocation may be elided.
  const std::uint64_t before = allocations();
  void* p = ::operator new(64);
  void* q = ::operator new(64, std::align_val_t{64});
  const std::uint64_t after = allocations();
  ::operator delete(q, std::align_val_t{64});
  ::operator delete(p);
  EXPECT_EQ(after - before, 2u);
}

TEST(AllocFree, DefaultGraphAndGeneratorScratchAllocateNothing) {
  // generate_application_into constructs a local GeneratorScratch on every
  // call, used or not, and a scratch holds a default TaskGraph.
  const std::uint64_t before = allocations();
  {
    const TaskGraph graph;
    const GeneratorScratch scratch;
    EXPECT_EQ(graph.node_count() + scratch.graph.node_count(), 0u);
  }
  EXPECT_EQ(allocations(), before);
}

TEST(AllocFree, WarmPaperScenarioAllocatesNothing) {
  const ExperimentConfig config;  // the paper's defaults
  expect_allocation_free(count_warm_allocations(config));
}

TEST(AllocFree, WarmDispatchWideScenarioAllocatesNothing) {
  // The sweep-dispatch-wide benchmark shape: two bitset words per row.
  ExperimentConfig config;
  config.algorithm = SchedulerAlgorithm::kDispatchEdf;
  config.scheduler.abort_on_miss = false;
  config.generator.workload.min_tasks = 100;
  config.generator.workload.max_tasks = 150;
  config.generator.workload.olr = 0.6;
  config.generator.platform.processor_count = 4;
  expect_allocation_free(count_warm_allocations(config));
}

}  // namespace
}  // namespace dsslice

// M1: google-benchmark micro-benchmarks for the algorithmic kernels,
// checking the complexity classes the paper quotes:
//  * SLICING main loop: O(n²) per application (§4.4);
//  * transitive closure for ADAPT-L: within the quoted O(n³) (§4.5);
//  * EDF list scheduler: O(n²·m) (§5.4).
#include <benchmark/benchmark.h>
#include <cstdint>

#include "dsslice/dsslice.hpp"

namespace {

using namespace dsslice;

GeneratorConfig sized_config(std::size_t tasks, std::size_t processors) {
  GeneratorConfig cfg;
  cfg.platform.processor_count = processors;
  cfg.workload.min_tasks = tasks;
  cfg.workload.max_tasks = tasks;
  cfg.workload.min_depth = std::max<std::size_t>(2, tasks / 5);
  cfg.workload.max_depth = std::max<std::size_t>(2, tasks / 5);
  cfg.base_seed = 0xBE7C;
  return cfg;
}

void BM_SlicingByMetric(benchmark::State& state, MetricKind kind) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Scenario sc = generate_scenario_at(sized_config(n, 3), 0);
  const auto est = estimate_wcets(sc.application, WcetEstimation::kAverage);
  const DeadlineMetric metric(kind);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        run_slicing(sc.application, est, metric, 3));
  }
  state.SetComplexityN(static_cast<std::int64_t>(n));
}

void BM_SlicingPure(benchmark::State& state) {
  BM_SlicingByMetric(state, MetricKind::kPure);
}
void BM_SlicingAdaptL(benchmark::State& state) {
  BM_SlicingByMetric(state, MetricKind::kAdaptL);
}
BENCHMARK(BM_SlicingPure)->RangeMultiplier(2)->Range(16, 512)->Complexity();
BENCHMARK(BM_SlicingAdaptL)->RangeMultiplier(2)->Range(16, 512)->Complexity();

void BM_TransitiveClosure(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Scenario sc = generate_scenario_at(sized_config(n, 3), 1);
  for (auto _ : state) {
    TransitiveClosure closure(sc.application.graph());
    benchmark::DoNotOptimize(closure.parallel_set_size(0));
  }
  state.SetComplexityN(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_TransitiveClosure)
    ->RangeMultiplier(2)
    ->Range(16, 1024)
    ->Complexity();

void BM_GraphAnalysisBuild(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Scenario sc = generate_scenario_at(sized_config(n, 3), 1);
  for (auto _ : state) {
    GraphAnalysis analysis(sc.application.graph());
    benchmark::DoNotOptimize(analysis.parallel_set_size(0));
  }
  state.SetComplexityN(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_GraphAnalysisBuild)
    ->RangeMultiplier(2)
    ->Range(16, 1024)
    ->Complexity();

void BM_ParallelSetMaterialized(benchmark::State& state) {
  // Baseline: build the Ψ_i node vectors (one allocation per task per call).
  const auto n = static_cast<std::size_t>(state.range(0));
  const Scenario sc = generate_scenario_at(sized_config(n, 3), 1);
  const GraphAnalysis& analysis = sc.application.analysis();
  for (auto _ : state) {
    std::size_t total = 0;
    for (NodeId i = 0; i < n; ++i) {
      total += analysis.parallel_set(i).size();
    }
    benchmark::DoNotOptimize(total);
  }
  state.SetComplexityN(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_ParallelSetMaterialized)
    ->RangeMultiplier(2)
    ->Range(16, 1024)
    ->Complexity();

void BM_ParallelSetBitsetWalk(benchmark::State& state) {
  // Hot path: walk ~(reach | coreach) word by word, no allocation.
  const auto n = static_cast<std::size_t>(state.range(0));
  const Scenario sc = generate_scenario_at(sized_config(n, 3), 1);
  const GraphAnalysis& analysis = sc.application.analysis();
  for (auto _ : state) {
    std::size_t total = 0;
    for (NodeId i = 0; i < n; ++i) {
      analysis.for_each_parallel(i, [&](NodeId) { ++total; });
    }
    benchmark::DoNotOptimize(total);
  }
  state.SetComplexityN(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_ParallelSetBitsetWalk)
    ->RangeMultiplier(2)
    ->Range(16, 1024)
    ->Complexity();

void BM_AdaptLWeightsCached(benchmark::State& state) {
  // Per-call weights cost with a warm analysis cache and a reused workspace
  // (the per-scenario cost inside a sweep after this PR).
  const auto n = static_cast<std::size_t>(state.range(0));
  const Scenario sc = generate_scenario_at(sized_config(n, 3), 1);
  const auto est = estimate_wcets(sc.application, WcetEstimation::kAverage);
  const DeadlineMetric metric(MetricKind::kAdaptL);
  sc.application.analysis();
  MetricWorkspace workspace;
  std::vector<double> out;
  for (auto _ : state) {
    metric.weights_into(sc.application, est, 3, nullptr, out, &workspace);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetComplexityN(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_AdaptLWeightsCached)
    ->RangeMultiplier(2)
    ->Range(16, 1024)
    ->Complexity();

void BM_BatchSlice(benchmark::State& state) {
  // The batch slicing kernel (ADAPT-L) over a warm batch of 8 scenarios;
  // BM_SlicingAdaptL is the run_slicing side of the same comparison
  // (bench/perf_slicing's batch rows are the gated form).
  const auto n = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kBatch = 8;
  std::vector<Scenario> scenarios;
  scenarios.reserve(kBatch);
  for (std::size_t s = 0; s < kBatch; ++s) {
    scenarios.push_back(generate_scenario_at(sized_config(n, 3), s));
    scenarios.back().application.analysis();
  }
  BatchSliceKernel kernel;
  BatchSliceConfig config;
  config.metric = MetricKind::kAdaptL;
  kernel.run(scenarios, config);  // warm: the timed loop is allocation-free
  for (auto _ : state) {
    kernel.run(scenarios, config);
    benchmark::DoNotOptimize(kernel.assignment(0).windows.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kBatch));
  state.SetComplexityN(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_BatchSlice)->RangeMultiplier(2)->Range(32, 512)->Complexity();

void BM_EdfScheduler(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto m = static_cast<std::size_t>(state.range(1));
  const Scenario sc = generate_scenario_at(sized_config(n, m), 2);
  const auto est = estimate_wcets(sc.application, WcetEstimation::kAverage);
  const auto assignment = run_slicing(
      sc.application, est, DeadlineMetric(MetricKind::kNorm), m);
  SchedulerOptions options;
  options.abort_on_miss = false;  // measure full-schedule cost
  const EdfListScheduler scheduler(options);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        scheduler.run(sc.application, assignment, sc.platform));
  }
}
BENCHMARK(BM_EdfScheduler)
    ->Args({64, 2})
    ->Args({64, 8})
    ->Args({256, 2})
    ->Args({256, 8})
    ->Args({512, 8});

void BM_WorkloadGeneration(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const GeneratorConfig cfg = sized_config(n, 3);
  std::uint64_t k = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(generate_scenario(cfg, derive_seed(1, k++)));
  }
}
BENCHMARK(BM_WorkloadGeneration)->Arg(50)->Arg(200);

void BM_FullPipelinePaperPoint(benchmark::State& state) {
  // One paper-default task set end to end: generate → estimate → slice
  // (ADAPT-L) → schedule. This is the per-graph unit cost of every figure.
  GeneratorConfig cfg;  // paper defaults
  cfg.base_seed = 0xF16;
  ExperimentConfig config;
  config.generator = cfg;
  config.technique = DistributionTechnique::kSlicingAdaptL;
  std::uint64_t k = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(evaluate_scenario(config, derive_seed(2, k++)));
  }
}
BENCHMARK(BM_FullPipelinePaperPoint);

}  // namespace

BENCHMARK_MAIN();

#include "dsslice/gen/taskgraph_generator.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "dsslice/gen/platform_generator.hpp"
#include "dsslice/obs/trace.hpp"
#include "dsslice/util/check.hpp"

namespace dsslice {

namespace {

/// Distributes `n` tasks over `depth` levels, at least one per level; the
/// surplus is spread uniformly at random. Fills scratch.level_sizes and the
/// per-level start ids (node ids are assigned consecutively by level, so a
/// level is fully described by its [start, start + size) range).
void draw_level_sizes(std::size_t n, std::size_t depth, Xoshiro256& rng,
                      GeneratorScratch& scratch) {
  scratch.fill(scratch.level_sizes, depth, std::size_t{1});
  for (std::size_t extra = 0; extra < n - depth; ++extra) {
    const auto level = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(depth) - 1));
    ++scratch.level_sizes[level];
  }
  scratch.fill(scratch.level_start, depth, NodeId{0});
  NodeId next = 0;
  for (std::size_t l = 0; l < depth; ++l) {
    scratch.level_start[l] = next;
    next += static_cast<NodeId>(scratch.level_sizes[l]);
  }
}

/// Draws the layered precedence structure: each task beyond level 0 picks
/// 1–3 predecessors from the previous level (preferring predecessors that
/// still have spare out-degree); level-ℓ tasks without successors are then
/// wired forward so only the last level contains output tasks.
void draw_structure_into(TaskGraph& g, const WorkloadConfig& cfg,
                         std::size_t n, std::size_t depth, Xoshiro256& rng,
                         GeneratorScratch& scratch) {
  draw_level_sizes(n, depth, rng, scratch);
  g.reset(n);

  // Node ids are consecutive by level, so the previous level is the id
  // range [prev_start, start) and "any earlier level" is [0, start) — the
  // same enumeration orders the materialized pools used to have, hence the
  // same uniform_int draws.
  for (std::size_t l = 1; l < depth; ++l) {
    const NodeId prev_start = scratch.level_start[l - 1];
    const NodeId start = scratch.level_start[l];
    const NodeId end = start + static_cast<NodeId>(scratch.level_sizes[l]);
    const std::size_t prev_size = scratch.level_sizes[l - 1];
    for (NodeId v = start; v < end; ++v) {
      const auto want = static_cast<std::size_t>(rng.uniform_int(
          static_cast<std::int64_t>(cfg.min_degree),
          static_cast<std::int64_t>(cfg.max_degree)));

      // One predecessor always comes from the immediately preceding level:
      // it pins v's topological depth to its layer. Prefer predecessors with
      // spare out-capacity so out-degrees also stay in the configured band.
      scratch.with_capacity.clear();
      for (NodeId u = prev_start; u < start; ++u) {
        if (g.out_degree(u) < cfg.max_degree) {
          scratch.push(scratch.with_capacity, u);
        }
      }
      const std::size_t anchor_count = scratch.with_capacity.empty()
                                           ? prev_size
                                           : scratch.with_capacity.size();
      const auto a = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(anchor_count) - 1));
      const NodeId anchor = scratch.with_capacity.empty()
                                ? prev_start + static_cast<NodeId>(a)
                                : scratch.with_capacity[a];
      g.add_arc(anchor, v);

      // Remaining predecessors per the edge-locality mode.
      const bool any_earlier =
          cfg.edge_locality == EdgeLocality::kAnyEarlierLevel;
      const NodeId pool_base = any_earlier ? 0 : prev_start;
      const std::size_t pool_size =
          any_earlier ? static_cast<std::size_t>(start) : prev_size;
      std::size_t extra = std::min(want, pool_size) - 1;
      for (std::size_t k = 0; k < extra; ++k) {
        const auto j = static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(pool_size) - 1));
        const NodeId u = pool_base + static_cast<NodeId>(j);
        if (!g.has_arc(u, v)) {
          g.add_arc(u, v);
        }
      }
    }
    // Every previous-level task must have at least one successor (only the
    // final level may contain output tasks).
    for (NodeId u = prev_start; u < start; ++u) {
      if (g.out_degree(u) != 0) {
        continue;
      }
      // Prefer a current-level task with spare in-capacity.
      scratch.candidates.clear();
      for (NodeId v = start; v < end; ++v) {
        if (g.in_degree(v) < cfg.max_degree && !g.has_arc(u, v)) {
          scratch.push(scratch.candidates, v);
        }
      }
      if (scratch.candidates.empty()) {
        for (NodeId v = start; v < end; ++v) {
          if (!g.has_arc(u, v)) {
            scratch.push(scratch.candidates, v);
          }
        }
      }
      DSSLICE_CHECK(!scratch.candidates.empty(),
                    "level with no attachable successor");
      const auto j = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(scratch.candidates.size()) - 1));
      g.add_arc(u, scratch.candidates[j]);
    }
  }
}

/// Draws a message size whose expectation matches the configured CCR.
double draw_message_items(const WorkloadConfig& cfg, Xoshiro256& rng) {
  const double mean_items = cfg.ccr * cfg.mean_execution_time;
  if (mean_items <= 0.0) {
    return 0.0;
  }
  if (cfg.integral_messages) {
    // Uniform over {1, ..., 2·mean-1} keeps the mean at `mean_items` for
    // integral means >= 1 (paper: mean 2 ⇒ sizes in {1, 2, 3}).
    const auto mean = static_cast<std::int64_t>(std::llround(mean_items));
    if (mean <= 1) {
      return 1.0;
    }
    return static_cast<double>(rng.uniform_int(1, 2 * mean - 1));
  }
  return rng.uniform(0.0, 2.0 * mean_items);
}

}  // namespace

Application generate_application(const WorkloadConfig& config,
                                 const Platform& platform, Xoshiro256& rng,
                                 ClassModel class_model,
                                 double class_deviation,
                                 GeneratorScratch* scratch) {
  Application app{TaskGraph{}, std::vector<Task>{}};
  generate_application_into(app, config, platform, rng, class_model,
                            class_deviation, scratch);
  return app;
}

void generate_application_into(Application& app, const WorkloadConfig& config,
                               const Platform& platform, Xoshiro256& rng,
                               ClassModel class_model, double class_deviation,
                               GeneratorScratch* scratch) {
  DSSLICE_SPAN("gen.taskgraph");
  GeneratorScratch local_scratch;
  GeneratorScratch& scr = scratch != nullptr ? *scratch : local_scratch;
  const auto n = static_cast<std::size_t>(
      rng.uniform_int(static_cast<std::int64_t>(config.min_tasks),
                      static_cast<std::int64_t>(config.max_tasks)));
  const auto depth = static_cast<std::size_t>(
      rng.uniform_int(static_cast<std::int64_t>(config.min_depth),
                      static_cast<std::int64_t>(config.max_depth)));
  DSSLICE_REQUIRE(depth <= n, "graph depth exceeds task count");

  // Structure draws first, then message sizes per CCR in arc-insertion
  // order — the same total draw order the former two-graph build used, over
  // a single recycled graph.
  draw_structure_into(scr.graph, config, n, depth, rng, scr);
  scr.fill(scr.message_items, scr.graph.arc_count(), 0.0);
  for (std::size_t k = 0; k < scr.message_items.size(); ++k) {
    scr.message_items[k] = draw_message_items(config, rng);
  }
  scr.graph.assign_message_items(scr.message_items);

  // Classes that actually have processors: eligibility must keep at least
  // one of these per task or the task could never be scheduled.
  const std::size_t class_count = platform.class_count();
  scr.populated.clear();
  for (ProcessorClassId e = 0; e < class_count; ++e) {
    if (platform.processors_in_class(e) > 0) {
      scr.push(scr.populated, e);
    }
  }
  std::vector<ProcessorClassId>& populated = scr.populated;
  DSSLICE_CHECK(!populated.empty(), "platform without populated classes");

  const double c_mean = config.mean_execution_time;
  scr.resize_task_slots(n);
  for (NodeId i = 0; i < n; ++i) {
    Task& t = scr.tasks[i];
    t.name = "t" + std::to_string(i);  // SSO: no heap for generated names
    // Reset recycled-slot state the loops below do not overwrite.
    t.phasing = kTimeZero;
    t.period = kTimeZero;
    t.optional_fraction = 0.0;
    // Base execution time under the configured ETD.
    const double base =
        config.etd == 0.0
            ? c_mean
            : rng.uniform(c_mean * (1.0 - config.etd),
                          c_mean * (1.0 + config.etd));
    scr.resize(t.wcet_by_class, class_count);
    for (ProcessorClassId e = 0; e < class_count; ++e) {
      const double scale =
          class_model == ClassModel::kUniformFactors
              ? platform.processor_class(e).speed_factor
              : rng.uniform(1.0 - class_deviation, 1.0 + class_deviation);
      // Execution times are integral time units (§3.1), floor at 1.
      t.wcet_by_class[e] = std::max(1.0, std::round(base * scale));
    }
    // 5% per-(task, class) ineligibility; keep >= 1 populated class.
    scr.fill(scr.drawn_wcet, t.wcet_by_class.size(), 0.0);
    std::copy(t.wcet_by_class.begin(), t.wcet_by_class.end(),
              scr.drawn_wcet.begin());
    const std::vector<double>& drawn = scr.drawn_wcet;
    for (ProcessorClassId e = 0; e < class_count; ++e) {
      if (rng.bernoulli(config.ineligible_probability)) {
        t.wcet_by_class[e] = kIneligibleWcet;
      }
    }
    const bool any_populated_eligible = std::any_of(
        populated.begin(), populated.end(),
        [&](ProcessorClassId e) { return t.eligible(e); });
    if (!any_populated_eligible) {
      const auto j = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(populated.size()) - 1));
      const ProcessorClassId e = populated[j];
      t.wcet_by_class[e] = drawn[e];
    }
  }

  // Trade the freshly drawn storage for the target's previous storage; the
  // scratch recycles that capacity on the next call.
  app.rebuild_swap(scr.graph, scr.tasks);

  // E-T-E deadline from the OLR over the average accumulated workload
  // (mean WCET across eligible classes, summed over all tasks).
  double avg_workload = 0.0;
  for (NodeId i = 0; i < n; ++i) {
    const Task& t = app.task(i);
    double sum = 0.0;
    std::size_t k = 0;
    for (ProcessorClassId e = 0; e < class_count; ++e) {
      if (t.eligible(e)) {
        sum += t.wcet(e);
        ++k;
      }
    }
    avg_workload += sum / static_cast<double>(k);
  }
  // Direct ascending scans visit outputs/inputs in the same order as the
  // materialized output_nodes()/input_nodes() lists, without allocating.
  for (NodeId out = 0; out < n; ++out) {
    if (!app.graph().is_output(out)) {
      continue;
    }
    const double spread =
        config.olr_spread == 0.0
            ? 1.0
            : rng.uniform(1.0 - config.olr_spread, 1.0 + config.olr_spread);
    app.set_ete_deadline(out,
                         std::round(config.olr * avg_workload * spread));
  }
  for (NodeId in = 0; in < n; ++in) {
    if (app.graph().is_input(in)) {
      app.set_input_arrival(in, kTimeZero);
    }
  }

  // Imprecise-computation splits, drawn after every other draw so that a
  // disabled knob (max == 0, the default) leaves the RNG stream — and an
  // enabled knob leaves the graph structure, WCETs and deadlines — untouched
  // for a given seed.
  if (config.max_optional_fraction > 0.0) {
    for (NodeId i = 0; i < n; ++i) {
      app.mutable_task(i).optional_fraction = rng.uniform(
          config.min_optional_fraction, config.max_optional_fraction);
    }
  }
}

Scenario generate_scenario(const GeneratorConfig& config, std::uint64_t seed) {
  config.validate();
  return generate_scenario_with(config, seed, nullptr);
}

Scenario generate_scenario_with(const GeneratorConfig& config,
                                std::uint64_t seed,
                                GeneratorScratch* scratch) {
  DSSLICE_SPAN("gen.scenario");
  DSSLICE_COUNT("gen.scenarios", 1);
  Xoshiro256 rng(seed);
  Platform platform = generate_platform(config.platform, rng);
  Application app =
      generate_application(config.workload, platform, rng,
                           config.platform.class_model,
                           config.platform.class_deviation, scratch);
  return Scenario{std::move(platform), std::move(app)};
}

void generate_scenario_into(const GeneratorConfig& config, std::uint64_t seed,
                            Scenario& out, GeneratorScratch* scratch) {
  DSSLICE_SPAN("gen.scenario");
  DSSLICE_COUNT("gen.scenarios", 1);
  Xoshiro256 rng(seed);
  PlatformDraw local_draw;
  generate_platform_into(out.platform, config.platform, rng,
                         scratch != nullptr ? scratch->platform : local_draw);
  generate_application_into(out.application, config.workload, out.platform,
                            rng, config.platform.class_model,
                            config.platform.class_deviation, scratch);
}

Scenario generate_scenario_at(const GeneratorConfig& config,
                              std::size_t index) {
  return generate_scenario(config, derive_seed(config.base_seed, index));
}

ResourceModel generate_resources(const Application& app,
                                 std::size_t resource_count,
                                 double probability, Xoshiro256& rng) {
  DSSLICE_REQUIRE(probability >= 0.0 && probability <= 1.0,
                  "probability out of range");
  ResourceModel model(app.task_count(), resource_count);
  for (NodeId v = 0; v < app.task_count(); ++v) {
    for (ResourceId r = 0; r < resource_count; ++r) {
      if (rng.bernoulli(probability)) {
        model.require(v, r);
      }
    }
  }
  return model;
}

}  // namespace dsslice

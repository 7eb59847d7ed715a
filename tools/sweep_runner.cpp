// Command-line driver for the batched sweep engine: runs a large scenario
// sweep with sharded arenas and streaming aggregation, optionally writing
// shard-boundary checkpoints and resuming an interrupted run. The obs flags
// (--trace/--metrics/--obs-summary) export the engine's instrumentation
// (sweep.scenarios_per_sec, sweep.shards_completed, checkpoint counters)
// for tools/trace_check validation. The streaming flags watch the sweep
// while it runs: --live renders a heartbeat line per flush interval (fed
// by the engine's sweep.progress.* gauges), --status-file keeps a
// machine-readable heartbeat fresh via atomic rewrite, and
// --metrics-stream / --trace-stream append incremental exports that
// tools/obs_tail and Perfetto can follow mid-run.
//
//   sweep_runner --scenarios 1000000 --shard-size 1024
//                --checkpoint sweep.ckpt --checkpoint-every 64
//   sweep_runner --scenarios 1000000 --checkpoint sweep.ckpt --resume
//   sweep_runner --scenarios 1000000 --checkpoint sweep.ckpt
//                --checkpoint-every 64 --live --status-file sweep.status
//                --metrics-stream sweep.deltas.jsonl
#include <cstdio>
#include <exception>

#include "dsslice/dsslice.hpp"

using namespace dsslice;

int main(int argc, char** argv) {
  CliParser cli("sweep_runner",
                "Batched million-scenario sweep: sharded generation + "
                "evaluation with streaming aggregation and checkpoint/resume.");
  cli.add_flag("scenarios", "100000", "total scenario count");
  cli.add_flag("shard-size", "1024", "scenarios per shard");
  cli.add_flag("checkpoint", "", "checkpoint file (empty: no checkpointing)");
  cli.add_flag("checkpoint-every", "0",
               "write a checkpoint every N shards (0: once at the end)");
  cli.add_bool_flag("resume", "resume from the checkpoint file if it exists");
  cli.add_flag("max-shards", "0",
               "stop after N shards (0: run to completion; use with "
               "--checkpoint to exercise interrupt/resume)");
  cli.add_flag("threads", "0", "worker threads (0: hardware concurrency)");
  cli.add_flag("seed", "20250707", "base seed for scenario generation");
  cli.add_bool_flag("no-batch-kernel",
                    "evaluate slicing scenario-at-a-time instead of through "
                    "the SoA batch kernel (A/B baseline; identical results)");
  dsslice::obs::ObsCli::register_flags(cli);
  if (!cli.parse(argc, argv)) {
    return 1;
  }
  dsslice::obs::ObsCli obs_session(cli);

  ExperimentConfig config;
  config.generator.base_seed =
      static_cast<std::uint64_t>(cli.get_int("seed"));

  SweepOptions options;
  options.scenario_count = static_cast<std::size_t>(cli.get_int("scenarios"));
  options.shard_size = static_cast<std::size_t>(cli.get_int("shard-size"));
  options.checkpoint_path = cli.get_string("checkpoint");
  options.checkpoint_every =
      static_cast<std::size_t>(cli.get_int("checkpoint-every"));
  options.resume = cli.get_bool("resume");
  options.max_shards = static_cast<std::size_t>(cli.get_int("max-shards"));
  options.use_batch_kernel = !cli.get_bool("no-batch-kernel");

  const auto threads = static_cast<std::size_t>(cli.get_int("threads"));
  try {
    SweepReport report;
    if (threads == 0) {
      report = run_sweep(config, options);
    } else {
      ThreadPool pool(threads);
      report = run_sweep(config, options, pool);
    }
    std::printf("%s\n", report.aggregate.summary("sweep").c_str());
    std::printf(
        "shards      %zu/%zu run (%zu resumed), %zu checkpoint(s)\n"
        "wall        %.2f s (%.0f scenarios/sec)\n",
        report.shards_run, report.shard_count, report.shards_resumed,
        report.checkpoints_written, report.wall_seconds,
        report.wall_seconds > 0.0
            ? static_cast<double>(report.scenarios()) / report.wall_seconds
            : 0.0);
    if (!report.complete) {
      std::printf("incomplete: resume with --checkpoint %s --resume\n",
                  options.checkpoint_path.c_str());
    }
    obs_session.finish();
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sweep_runner: %s\n", e.what());
    return 1;
  }
}

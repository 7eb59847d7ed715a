// Sweep engine contracts: checkpoint round-trips are bit-exact, interrupted
// sweeps resume bit-identically, thread count never perturbs aggregates, a
// warm sweep allocates nothing, and malformed or mismatched checkpoints are
// rejected instead of silently mixing aggregates.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <string>

#include "dsslice/sim/experiment.hpp"
#include "dsslice/sweep/aggregate.hpp"
#include "dsslice/sweep/checkpoint.hpp"
#include "dsslice/sweep/sweep_engine.hpp"
#include "dsslice/util/check.hpp"
#include "dsslice/util/thread_pool.hpp"

namespace dsslice {
namespace {

ExperimentConfig sweep_config(std::uint64_t seed = 0x5EED) {
  ExperimentConfig config;
  config.generator.base_seed = seed;
  return config;
}

SweepOptions small_options() {
  SweepOptions options;
  options.scenario_count = 96;
  options.shard_size = 16;
  return options;
}

/// Unique checkpoint path under the system temp dir, removed on scope exit.
class TempCheckpoint {
 public:
  explicit TempCheckpoint(const std::string& name)
      : path_((std::filesystem::temp_directory_path() /
               ("dsslice_test_" + name + ".ckpt"))
                  .string()) {
    std::filesystem::remove(path_);
  }
  ~TempCheckpoint() {
    std::error_code ec;
    std::filesystem::remove(path_, ec);
    std::filesystem::remove(path_ + ".tmp", ec);
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// A checkpoint with non-trivial Welford state in its shard aggregates.
SweepCheckpoint sample_checkpoint() {
  SweepCheckpoint ckpt;
  ckpt.fingerprint = 0xF00DF00DF00DF00Dull;
  ckpt.scenario_count = 32;
  ckpt.shard_size = 16;
  ckpt.completed = {1, 0};
  ckpt.shards.resize(2);
  for (int i = 0; i < 16; ++i) {
    GraphOutcome outcome;
    outcome.scheduled = (i % 3 != 0);
    outcome.min_laxity = 0.37 * static_cast<double>(i) - 1.25;
    outcome.lateness_valid = outcome.scheduled;
    outcome.max_lateness = outcome.scheduled ? -outcome.min_laxity : 0.0;
    outcome.makespan = 100.0 + static_cast<double>(i * i);
    outcome.slicing_passes = static_cast<std::size_t>(i % 4);
    outcome.task_count = 40u + static_cast<std::size_t>(i);
    ckpt.shards[0].add(outcome);
  }
  return ckpt;
}

TEST(SweepCheckpoint, SerializationRoundTripsBitExactly) {
  const SweepCheckpoint original = sample_checkpoint();
  const std::string text = serialize_sweep_checkpoint(original);
  const SweepCheckpoint restored = parse_sweep_checkpoint(text);
  EXPECT_EQ(restored.fingerprint, original.fingerprint);
  EXPECT_EQ(restored.scenario_count, original.scenario_count);
  EXPECT_EQ(restored.shard_size, original.shard_size);
  EXPECT_EQ(restored.completed, original.completed);
  ASSERT_EQ(restored.shards.size(), original.shards.size());
  // Text → struct → text must be the identity: doubles are stored as raw
  // bit patterns, so even the last Welford bit survives.
  EXPECT_EQ(serialize_sweep_checkpoint(restored), text);
  EXPECT_EQ(serialize_sweep_aggregate(restored.shards[0]),
            serialize_sweep_aggregate(original.shards[0]));
  EXPECT_EQ(restored.completed_count(), 1u);
}

TEST(SweepCheckpoint, SaveLoadRoundTrip) {
  TempCheckpoint tmp("save_load");
  const SweepCheckpoint original = sample_checkpoint();
  save_sweep_checkpoint(original, tmp.path());
  const SweepCheckpoint loaded = load_sweep_checkpoint(tmp.path());
  EXPECT_EQ(serialize_sweep_checkpoint(loaded),
            serialize_sweep_checkpoint(original));
}

TEST(SweepCheckpoint, LoadRejectsMissingFile) {
  EXPECT_THROW(load_sweep_checkpoint("/nonexistent/dir/sweep.ckpt"),
               ConfigError);
}

TEST(SweepCheckpoint, ParseRejectsVersionMismatch) {
  std::string text = serialize_sweep_checkpoint(sample_checkpoint());
  const std::string header = "dsslice-sweep-checkpoint 1";
  ASSERT_EQ(text.compare(0, header.size(), header), 0);
  text.replace(0, header.size(), "dsslice-sweep-checkpoint 2");
  EXPECT_THROW(parse_sweep_checkpoint(text), ConfigError);
}

TEST(SweepCheckpoint, ParseRejectsTruncation) {
  const std::string text = serialize_sweep_checkpoint(sample_checkpoint());
  EXPECT_THROW(parse_sweep_checkpoint(text.substr(0, text.size() / 2)),
               ConfigError);
  EXPECT_THROW(parse_sweep_checkpoint(""), ConfigError);
}

TEST(SweepCheckpoint, ParseRejectsCorruptedValues) {
  const std::string text = serialize_sweep_checkpoint(sample_checkpoint());
  // Corrupt a hex-encoded double on the min_laxity stat line: 'z' is not a
  // hex digit, so the bit-pattern decode must reject the file.
  const std::size_t line = text.find("stat min_laxity ");
  ASSERT_NE(line, std::string::npos);
  const std::size_t eol = text.find('\n', line);
  ASSERT_NE(eol, std::string::npos);
  std::string corrupted = text;
  corrupted[eol - 1] = 'z';
  EXPECT_THROW(parse_sweep_checkpoint(corrupted), ConfigError);
}

TEST(SweepEngine, ValidatesOptions) {
  const ExperimentConfig config = sweep_config();
  SweepOptions options = small_options();
  options.scenario_count = 0;
  EXPECT_THROW(run_sweep(config, options), ConfigError);
  options = small_options();
  options.shard_size = 0;
  EXPECT_THROW(run_sweep(config, options), ConfigError);
  options = small_options();
  options.resume = true;  // resume without a checkpoint path
  EXPECT_THROW(run_sweep(config, options), ConfigError);
}

TEST(SweepEngine, ResumeMatchesUninterruptedRunBitForBit) {
  const ExperimentConfig config = sweep_config();
  ThreadPool pool(2);

  const SweepReport whole = run_sweep(config, small_options(), pool);
  ASSERT_TRUE(whole.complete);
  EXPECT_EQ(whole.shard_count, 6u);
  EXPECT_EQ(whole.shards_run, 6u);
  EXPECT_EQ(whole.scenarios(), 96u);

  TempCheckpoint tmp("resume");
  SweepOptions interrupted = small_options();
  interrupted.checkpoint_path = tmp.path();
  interrupted.checkpoint_every = 2;
  interrupted.max_shards = 3;  // abandon the sweep mid-way
  const SweepReport partial = run_sweep(config, interrupted, pool);
  EXPECT_FALSE(partial.complete);
  EXPECT_EQ(partial.shards_run, 3u);
  EXPECT_GE(partial.checkpoints_written, 1u);

  SweepOptions resumed_options = small_options();
  resumed_options.checkpoint_path = tmp.path();
  resumed_options.checkpoint_every = 2;
  resumed_options.resume = true;
  const SweepReport resumed = run_sweep(config, resumed_options, pool);
  EXPECT_TRUE(resumed.complete);
  EXPECT_GE(resumed.shards_resumed, 3u);
  EXPECT_EQ(resumed.shards_run + resumed.shards_resumed, 6u);
  EXPECT_EQ(serialize_sweep_aggregate(resumed.aggregate),
            serialize_sweep_aggregate(whole.aggregate));
}

TEST(SweepEngine, ResumeOfCompleteSweepRunsNothing) {
  const ExperimentConfig config = sweep_config();
  ThreadPool pool(1);
  TempCheckpoint tmp("complete");
  SweepOptions options = small_options();
  options.checkpoint_path = tmp.path();
  const SweepReport first = run_sweep(config, options, pool);
  ASSERT_TRUE(first.complete);

  options.resume = true;
  const SweepReport again = run_sweep(config, options, pool);
  EXPECT_TRUE(again.complete);
  EXPECT_EQ(again.shards_run, 0u);
  EXPECT_EQ(again.shards_resumed, 6u);
  EXPECT_EQ(serialize_sweep_aggregate(again.aggregate),
            serialize_sweep_aggregate(first.aggregate));
}

TEST(SweepEngine, ThreadCountDoesNotChangeAggregateBits) {
  const ExperimentConfig config = sweep_config();
  ThreadPool single(1);
  ThreadPool quad(4);
  const SweepReport serial = run_sweep(config, small_options(), single);
  const SweepReport parallel = run_sweep(config, small_options(), quad);
  EXPECT_EQ(serialize_sweep_aggregate(parallel.aggregate),
            serialize_sweep_aggregate(serial.aggregate));
}

// run_sweep is its shards folded in index order: merging run_sweep_shard
// over the same index ranges reproduces the sweep's aggregate exactly.
TEST(SweepEngine, SweepIsItsShardsFoldedInOrder) {
  const ExperimentConfig config = sweep_config();
  const SweepOptions options = small_options();
  ThreadPool pool(3);
  SweepAggregate folded;
  for (std::size_t first = 0; first < options.scenario_count;
       first += options.shard_size) {
    folded.merge(run_sweep_shard(config, first, first + options.shard_size));
  }
  const SweepReport sweep = run_sweep(config, options, pool);
  EXPECT_EQ(serialize_sweep_aggregate(folded),
            serialize_sweep_aggregate(sweep.aggregate));
}

// The batch slicing kernel is an execution strategy, not a semantic change:
// toggling it must not perturb a single aggregate bit, for every slicing
// metric. (Non-slicing techniques ignore the flag; one spot check.)
TEST(SweepEngine, BatchKernelDoesNotChangeAggregateBits) {
  ThreadPool pool(2);
  const DistributionTechnique techniques[] = {
      DistributionTechnique::kSlicingPure, DistributionTechnique::kSlicingNorm,
      DistributionTechnique::kSlicingAdaptG,
      DistributionTechnique::kSlicingAdaptL, DistributionTechnique::kKaoED};
  for (const DistributionTechnique technique : techniques) {
    ExperimentConfig config = sweep_config();
    config.technique = technique;
    SweepOptions with_kernel = small_options();
    with_kernel.use_batch_kernel = true;
    SweepOptions without_kernel = small_options();
    without_kernel.use_batch_kernel = false;
    const SweepReport on = run_sweep(config, with_kernel, pool);
    const SweepReport off = run_sweep(config, without_kernel, pool);
    EXPECT_EQ(serialize_sweep_aggregate(on.aggregate),
              serialize_sweep_aggregate(off.aggregate))
        << "technique " << to_string(technique);
  }
}

TEST(SweepEngine, RejectsFingerprintMismatchOnResume) {
  ThreadPool pool(1);
  TempCheckpoint tmp("fingerprint");
  SweepOptions options = small_options();
  options.checkpoint_path = tmp.path();
  options.max_shards = 2;
  options.checkpoint_every = 1;
  run_sweep(sweep_config(0x5EED), options, pool);

  options.resume = true;
  // Same layout, different scenario distribution: mixing would be silent
  // data corruption, so the engine must refuse.
  EXPECT_THROW(run_sweep(sweep_config(0xD1FF), options, pool), ConfigError);
}

TEST(SweepEngine, RejectsLayoutMismatchOnResume) {
  const ExperimentConfig config = sweep_config();
  ThreadPool pool(1);
  TempCheckpoint tmp("layout");
  SweepOptions options = small_options();
  options.checkpoint_path = tmp.path();
  options.max_shards = 2;
  options.checkpoint_every = 1;
  run_sweep(config, options, pool);

  options.resume = true;
  options.shard_size = 32;  // different shard layout than the checkpoint
  EXPECT_THROW(run_sweep(config, options, pool), ConfigError);
}

TEST(SweepEngine, WarmSweepAllocatesNothing) {
  const ExperimentConfig config = sweep_config();
  // One single-threaded pool for all runs: every fresh pool brings fresh
  // thread-local arenas (the gate is about *steady state*, not first
  // touch), and with N workers the racy shard->thread assignment could
  // hand a thread a scenario shape it never warmed on.
  ThreadPool pool(1);
  // The arena's batch storage rotates between its one scenario slot
  // (gen_chunk = 1) and the generator scratch (see the ScenarioBatch
  // steady-state test), so settle until a full rotation cycle of runs
  // stays flat before asserting.
  constexpr int kRotationCycle = 4;  // one slot + scratch, with margin
  int flat = 0;
  for (int pass = 0; pass < 100 && flat < kRotationCycle; ++pass) {
    const std::uint64_t before = sweep_arena_grow_events();
    run_sweep(config, small_options(), pool);
    flat = sweep_arena_grow_events() == before ? flat + 1 : 0;
  }
  ASSERT_EQ(flat, kRotationCycle) << "sweep arena never reached steady state";
  const std::uint64_t warm = sweep_arena_grow_events();
  run_sweep(config, small_options(), pool);
  EXPECT_EQ(sweep_arena_grow_events(), warm);
}

}  // namespace
}  // namespace dsslice

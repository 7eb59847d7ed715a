// Sweep engine contracts: checkpoint round-trips are bit-exact, interrupted
// sweeps resume bit-identically, thread count never perturbs aggregates, a
// warm sweep allocates nothing, and malformed or mismatched checkpoints are
// rejected instead of silently mixing aggregates.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cfloat>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <sstream>
#include <string>

#include "dsslice/gen/rng.hpp"
#include "dsslice/sim/experiment.hpp"
#include "dsslice/sweep/aggregate.hpp"
#include "dsslice/sweep/checkpoint.hpp"
#include "dsslice/sweep/sweep_engine.hpp"
#include "dsslice/util/check.hpp"
#include "dsslice/util/text_codec.hpp"
#include "dsslice/util/thread_pool.hpp"
#include "test_util.hpp"

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

// Version 1 stored every completed shard's aggregate; this build reads only
// the folded-prefix format and refuses the old header by name.
TEST(SweepCheckpoint, ParseRejectsVersionMismatch) {
  std::string text = serialize_sweep_checkpoint(sample_checkpoint());
  const std::string header = "dsslice-sweep-checkpoint 2";
  ASSERT_EQ(text.compare(0, header.size(), header), 0);
  text.replace(0, header.size(), "dsslice-sweep-checkpoint 1");
  try {
    parse_sweep_checkpoint(text);
    FAIL() << "a version 1 header was accepted";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "unsupported checkpoint format version 1 (this build "
                  "reads version 2)"),
              std::string::npos)
        << e.what();
  }
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

/// A checkpoint whose every field sits on an edge of its encoding: signed
/// zero, both infinities, NaNs with payloads, denormals, DBL_MAX, counts of
/// 0 and UINT64_MAX, a layout near 2^64 and a non-default histogram range.
/// Only shard 0 is complete, so the stored fold is a copy of that shard and
/// every edge value reaches the text unchanged.
SweepCheckpoint edge_checkpoint() {
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kDenormal = std::numeric_limits<double>::denorm_min();
  const double nan_payload = std::bit_cast<double>(0x7ff80000deadbeefULL);
  const double negative_nan = std::bit_cast<double>(0xfff8000000000001ULL);
  const double largest_denormal = std::bit_cast<double>(0x000fffffffffffffULL);

  SweepCheckpoint ckpt;
  ckpt.fingerprint = kMax;
  ckpt.scenario_count = kMax;
  ckpt.shard_size = kMax / 2;  // three shards, the last one scenario long
  ckpt.completed = {1, 0, 0};
  ckpt.shards.resize(3);

  SweepAggregate& first = ckpt.shards[0];
  first.success.add_many(kMax, kMax);
  first.min_laxity =
      RunningStats::from_state({kMax, -0.0, nan_payload, kInf, -kInf, DBL_MAX});
  first.max_lateness = RunningStats::from_state({0, 0.0, 0.0, 0.0, kInf, -kInf});
  first.makespan = RunningStats::from_state(
      {1, kDenormal, -kDenormal, DBL_MIN, -DBL_MAX, largest_denormal});
  first.slicing_passes =
      RunningStats::from_state({7, 1.5, 0.25, 10.5, 1.0, 2.0});
  first.task_count =
      RunningStats::from_state({2, negative_nan, 0.0, -0.0, -kInf, kInf});
  first.laxity = LinearHistogram(-3.75, 1.0e9);
  std::array<std::uint64_t, LinearHistogram::kBinCount> bins{};
  for (std::size_t b = 0; b < bins.size(); ++b) {
    bins[b] = b % 3 == 0 ? 0 : kMax - b;
  }
  LinearHistogramAccess::restore(first.laxity, kMax, 0, bins);
  return ckpt;
}

// Pins the exact bytes of the checkpoint format. A change here changes the
// format: it needs a new version number, because files that earlier builds
// wrote under the old one are refused by its version line.
TEST(SweepCheckpoint, MatchesPinnedSerializationDigest) {
  const std::string text = serialize_sweep_checkpoint(edge_checkpoint());
  EXPECT_EQ(text.size(), 1728u);
  EXPECT_EQ(testing::fnv1a(text), 0xd044b212cfb21a60ULL);
}

TEST(SweepCheckpoint, EdgeValuesRoundTripBitExactly) {
  const std::string text = serialize_sweep_checkpoint(edge_checkpoint());
  const SweepCheckpoint restored = parse_sweep_checkpoint(text);
  EXPECT_EQ(serialize_sweep_checkpoint(restored), text);
  EXPECT_EQ(restored.completed, (std::vector<std::uint8_t>{1, 0, 0}));
  const RunningStatsState s = restored.shards[0].min_laxity.state();
  EXPECT_EQ(s.n, std::numeric_limits<std::size_t>::max());
  EXPECT_EQ(std::bit_cast<std::uint64_t>(s.mean), 0x8000000000000000ULL);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(s.m2), 0x7ff80000deadbeefULL);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(
                restored.shards[0].task_count.state().mean),
            0xfff8000000000001ULL);
  EXPECT_EQ(restored.shards[0].success.successes(),
            std::numeric_limits<std::uint64_t>::max());
}

// The stored aggregate is the fold of a prefix; a gap in the completed
// shards has no such fold, so the writer refuses it.
TEST(SweepCheckpoint, SerializeRejectsNonPrefixCompleted) {
  SweepCheckpoint gap = sample_checkpoint();
  gap.completed = {0, 1};
  EXPECT_THROW(serialize_sweep_checkpoint(gap), ConfigError);
  SweepCheckpoint three = edge_checkpoint();
  three.completed = {1, 0, 1};
  EXPECT_THROW(serialize_sweep_checkpoint(three), ConfigError);
}

// The reader splits tokens on any whitespace and drops '#' comments and
// blank lines, so a file that went through a CRLF editor or was annotated
// by hand still loads to the same checkpoint.
TEST(SweepCheckpoint, ParseAcceptsCrlfTabsAndComments) {
  const std::string text = serialize_sweep_checkpoint(sample_checkpoint());
  EXPECT_EQ(serialize_sweep_checkpoint(
                parse_sweep_checkpoint(testing::hand_edited(text))),
            text);
}

/// `text` with the `index`-th space-separated token of the first line that
/// starts with `prefix` replaced by `token`.
std::string with_token(const std::string& text, const std::string& prefix,
                       std::size_t index, const std::string& token) {
  std::size_t begin = text.rfind('\n' + prefix) + 1;
  EXPECT_NE(begin, 0u) << prefix;
  for (std::size_t i = 0; i < index; ++i) {
    begin = text.find(' ', begin) + 1;
  }
  const std::size_t end = text.find_first_of(" \n", begin);
  return text.substr(0, begin) + token + text.substr(end);
}

// Numbers are read only in the writer's spelling. A reader that took a
// sign or a 0x prefix would restore a different value than the one
// written: "-00c000000000000" as a mean came back as a NaN.
TEST(SweepCheckpoint, ParseRejectsNonCanonicalNumbers) {
  const std::string text = serialize_sweep_checkpoint(sample_checkpoint());
  ASSERT_NO_THROW(parse_sweep_checkpoint(
      with_token(text, "stat min_laxity ", 3, "00c0000000000000")));
  for (const char* mean : {"-00c000000000000", "+00c000000000000",
                           "0x0c000000000000", "00C0000000000000"}) {
    EXPECT_THROW(parse_sweep_checkpoint(
                     with_token(text, "stat min_laxity ", 3, mean)),
                 ConfigError)
        << mean;
  }
  ASSERT_NO_THROW(parse_sweep_checkpoint(with_token(text, "completed ", 1, "1")));
  for (const char* count : {"+1", "01", "-0"}) {
    EXPECT_THROW(
        parse_sweep_checkpoint(with_token(text, "completed ", 1, count)),
        ConfigError)
        << count;
  }
  EXPECT_THROW(parse_sweep_checkpoint(with_token(
                   text, "scenarios ", 1, "18446744073709551616")),
               ConfigError);
}

// A fold of K completed shards holds trials exactly when K > 0, and never
// more than the sweep's scenario count.
TEST(SweepCheckpoint, ParseRejectsTrialCountsNoPrefixCanHave) {
  const std::string text = serialize_sweep_checkpoint(sample_checkpoint());
  ASSERT_NE(text.find("\ncompleted 1\n"), std::string::npos);
  ASSERT_NE(text.find("\nsuccess 10 16\n"), std::string::npos);
  ASSERT_NO_THROW(parse_sweep_checkpoint(with_token(text, "success ", 2, "32")));
  const std::string none_completed = with_token(text, "completed ", 1, "0");
  EXPECT_THROW(parse_sweep_checkpoint(none_completed), ConfigError);
  EXPECT_THROW(parse_sweep_checkpoint(with_token(
                   with_token(text, "success ", 1, "0"), "success ", 2, "0")),
               ConfigError);
  EXPECT_THROW(parse_sweep_checkpoint(with_token(text, "success ", 2, "33")),
               ConfigError);

  SweepCheckpoint empty = sample_checkpoint();
  empty.completed = {0, 0};
  const SweepCheckpoint restored =
      parse_sweep_checkpoint(serialize_sweep_checkpoint(empty));
  EXPECT_EQ(restored.completed_count(), 0u);
  EXPECT_EQ(restored.shards[0].scenarios(), 0u);
}

// A line longer than the format's longest (hist, 69 tokens) is the wrong
// arity, however many tokens it carries.
TEST(SweepCheckpoint, ParseRejectsOverlongLines) {
  const std::string text = serialize_sweep_checkpoint(sample_checkpoint());
  const std::size_t hist_end = text.find('\n', text.find("\nhist "));
  for (const int extra : {1, 100}) {
    std::string longer = text;
    for (int i = 0; i < extra; ++i) {
      longer.insert(hist_end, " 7");
    }
    EXPECT_THROW(parse_sweep_checkpoint(longer), ConfigError) << extra;
  }
}

// Seeded mutation fuzz: every mutant of the pinned text either parses, and
// then serialize -> parse is a fixed point, or throws ConfigError. Any other
// exception (or, under the sanitize preset, any UB) fails the test.
TEST(SweepCheckpoint, SeededMutantsParseOrThrowConfigError) {
  const std::string pinned = serialize_sweep_checkpoint(edge_checkpoint());
  static constexpr const char* kWords[] = {
      "0", "1", "2", "3", "7", "01", "+1", "18446744073709551615",
      "18446744073709551616", "0000000000000000", "7ff8000000000001",
      "fff0000000000000", "8000000000000000", "42", "shard", "stat", "hist",
      "end"};
  constexpr int kMutants = 2000;
  const int parsed = testing::parse_or_reject_mutants(
      pinned, 0xC0DECULL, kMutants, kWords, parse_sweep_checkpoint,
      serialize_sweep_checkpoint);
  // The mutants must reach past the first checks: some still parse (57 of
  // the 2000 at this seed).
  EXPECT_GT(parsed, kMutants / 40);
}

// The fingerprint is stored in every checkpoint, so its rendering is part
// of the format: a change here would refuse every file saved before it.
TEST(SweepCheckpoint, ConfigFingerprintIsPinned) {
  ExperimentConfig config;
  EXPECT_EQ(sweep_config_fingerprint(config), 0x191796dc26c79764ULL);
  config.metric_params.threshold_override = -0.5;
  config.generator.base_seed = std::numeric_limits<std::uint64_t>::max();
  EXPECT_EQ(sweep_config_fingerprint(config), 0x6c43f9e2c51db89bULL);
}

// A layout whose shard-count line was computed with a wrapping ceil-div
// (5 scenarios in shards of 2^64-1 as 0 shards) must be rejected: a sweep
// resuming from it would index an empty completed bitmap.
TEST(SweepCheckpoint, ParseRejectsWrappedShardCount) {
  SweepCheckpoint wrapped;
  wrapped.scenario_count = 5;
  wrapped.shard_size = std::numeric_limits<std::uint64_t>::max();
  const std::string text = serialize_sweep_checkpoint(wrapped);
  ASSERT_NE(text.find("shard-count 0\n"), std::string::npos);
  EXPECT_THROW(parse_sweep_checkpoint(text), ConfigError);
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

// A shard size near SIZE_MAX is one shard holding every scenario, not a
// shard count that wraps to zero and runs nothing.
TEST(SweepEngine, HugeShardSizeRunsOneShard) {
  SweepOptions options;
  options.scenario_count = 100;
  options.shard_size = std::numeric_limits<std::size_t>::max();
  ThreadPool pool(1);
  const SweepReport report = run_sweep(sweep_config(), options, pool);
  EXPECT_TRUE(report.complete);
  EXPECT_EQ(report.shard_count, 1u);
  EXPECT_EQ(report.shards_run, 1u);
  EXPECT_EQ(report.scenarios(), 100u);
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

// Resume is exact from every interrupt point: a sweep stopped after k of its
// 12 shards and resumed from the checkpoint folds to the uninterrupted
// aggregate, whatever the pool size or the save cadence.
TEST(SweepEngine, ResumeFromEveryInterruptPointMatchesUninterruptedRun) {
  const ExperimentConfig config = sweep_config();
  SweepOptions options;
  options.scenario_count = 23;  // 12 shards, the last one scenario long
  options.shard_size = 2;
  ThreadPool serial(1);
  const SweepReport whole = run_sweep(config, options, serial);
  ASSERT_EQ(whole.shard_count, 12u);
  const std::string expected = serialize_sweep_aggregate(whole.aggregate);

  TempCheckpoint tmp("every_interrupt");
  for (const std::size_t threads : {1u, 3u}) {
    ThreadPool pool(threads);
    for (const std::size_t every : {1u, 5u}) {
      for (std::size_t k = 0; k <= 12; ++k) {
        std::filesystem::remove(tmp.path());
        SweepOptions run = options;
        run.checkpoint_path = tmp.path();
        run.checkpoint_every = every;
        if (k > 0) {  // max_shards = 0 would run the whole sweep
          run.max_shards = k;
          ASSERT_EQ(run_sweep(config, run, pool).shards_run, k);
        }
        run.max_shards = 0;
        run.resume = true;
        const SweepReport resumed = run_sweep(config, run, pool);
        const std::string where = "threads " + std::to_string(threads) +
                                  ", every " + std::to_string(every) +
                                  ", k " + std::to_string(k);
        EXPECT_TRUE(resumed.complete) << where;
        EXPECT_EQ(resumed.shards_resumed, k) << where;
        EXPECT_EQ(serialize_sweep_aggregate(resumed.aggregate), expected)
            << where;
      }
    }
  }
}

// A save costs the same however many shards have completed: the checkpoint
// after 1 shard and after 64 have the same lines and tokens, and differ in
// size only where a count has more digits.
TEST(SweepEngine, CheckpointSizeDoesNotGrowWithCompletedShards) {
  const ExperimentConfig config = sweep_config();
  ThreadPool pool(1);
  TempCheckpoint tmp("size");
  SweepOptions options;
  options.scenario_count = 128;
  options.shard_size = 2;
  options.checkpoint_path = tmp.path();
  options.max_shards = 1;
  run_sweep(config, options, pool);
  const std::string one = read_text_file(tmp.path(), "checkpoint");
  options.max_shards = 0;
  options.resume = true;
  ASSERT_TRUE(run_sweep(config, options, pool).complete);
  const std::string all = read_text_file(tmp.path(), "checkpoint");
  ASSERT_NE(one.find("\ncompleted 1\n"), std::string::npos);
  ASSERT_NE(all.find("\ncompleted 64\n"), std::string::npos);

  EXPECT_LT(one.size(), 1100u);
  EXPECT_LT(all.size(), 1100u);
  EXPECT_EQ(std::count(one.begin(), one.end(), '\n'),
            std::count(all.begin(), all.end(), '\n'));
  std::istringstream one_tokens(one);
  std::istringstream all_tokens(all);
  const auto is_count = [](const std::string& token) {
    return token.find_first_not_of("0123456789") == std::string::npos;
  };
  std::string a;
  std::string b;
  std::size_t count_growth = 0;
  while (one_tokens >> a) {
    ASSERT_TRUE(all_tokens >> b) << "the 64-shard checkpoint is shorter";
    if (a.size() != b.size()) {
      ASSERT_TRUE(is_count(a) && is_count(b)) << a << " vs " << b;
      ASSERT_LT(a.size(), b.size()) << a << " vs " << b;
      count_growth += b.size() - a.size();
    }
  }
  EXPECT_FALSE(all_tokens >> b) << "the 64-shard checkpoint is longer";
  EXPECT_EQ(all.size() - one.size(), count_growth);
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

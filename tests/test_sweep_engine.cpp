// Sweep engine contracts: checkpoint round-trips are bit-exact, interrupted
// sweeps resume bit-identically, thread count never perturbs aggregates, a
// warm sweep allocates nothing, and malformed or mismatched checkpoints are
// rejected instead of silently mixing aggregates.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cfloat>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>

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

// A save over a checkpoint of another sweep (another configuration or
// layout) leaves the file a save to a fresh path would: nothing of the
// foreign file survives, even where it is no further along.
TEST(SweepCheckpoint, SaveOverForeignCheckpointReplacesItWhole) {
  TempCheckpoint fresh("foreign_fresh");
  const SweepCheckpoint mine = sample_checkpoint();
  save_sweep_checkpoint(mine, fresh.path());
  const std::string expected = read_text_file(fresh.path(), "checkpoint");

  SweepCheckpoint other_config = mine;
  other_config.fingerprint ^= 1;
  SweepCheckpoint other_scenarios = mine;
  other_scenarios.scenario_count = 31;  // still two shards of 16
  SweepCheckpoint other_shard_size = mine;
  other_shard_size.shard_size = 17;  // still two shards
  TempCheckpoint tmp("foreign");
  for (const SweepCheckpoint& foreign :
       {other_config, other_scenarios, other_shard_size}) {
    std::filesystem::remove(tmp.path());
    save_sweep_checkpoint(foreign, tmp.path());
    save_sweep_checkpoint(mine, tmp.path());
    EXPECT_EQ(read_text_file(tmp.path(), "checkpoint"), expected);
  }
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

/// The state of a 4-shard sweep with its first `done` shards complete.
SweepCheckpoint partial_checkpoint(std::size_t done) {
  SweepCheckpoint ckpt = sample_checkpoint();
  ckpt.scenario_count = 64;
  ckpt.completed.assign(4, 0);
  std::fill_n(ckpt.completed.begin(), done, std::uint8_t{1});
  ckpt.shards.assign(4, ckpt.shards[0]);
  return ckpt;
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.flush()) << path;
}

/// The state text a load of `path` returns.
std::string loaded_text(const std::string& path) {
  return serialize_sweep_checkpoint(load_sweep_checkpoint(path));
}

/// Checkpoint files of one 4-shard sweep after its first three saves: the
/// first writes the whole file, the second and third write one slot each.
struct SaveHistory {
  std::string after[4];  ///< the file after saves 1..3 (index 0 unused)
  std::string text[4];   ///< the state text of saves 1..3
  std::size_t first = 0;  ///< first byte where the files after 2 and 3 differ
  std::size_t last = 0;   ///< last such byte
};

SaveHistory save_history(const std::string& path) {
  SaveHistory h;
  std::filesystem::remove(path);
  for (std::size_t done = 1; done <= 3; ++done) {
    save_sweep_checkpoint(partial_checkpoint(done), path);
    h.after[done] = read_text_file(path, "checkpoint");
    h.text[done] = serialize_sweep_checkpoint(partial_checkpoint(done));
  }
  const std::string& before = h.after[2];
  const std::string& after = h.after[3];
  EXPECT_EQ(before.size(), after.size());
  while (h.first < after.size() && before[h.first] == after[h.first]) {
    ++h.first;
  }
  h.last = after.size() - 1;
  while (h.last > h.first && before[h.last] == after[h.last]) {
    --h.last;
  }
  return h;
}

// A save that continues the sweep whose state the file holds writes into
// the file in place: a hard link to it sees the new state and no temp file
// is left. A complete checkpoint is written whole and renamed into place.
TEST(SweepCheckpoint, RoutineSaveWritesInPlace) {
  TempCheckpoint tmp("in_place");
  TempCheckpoint link("in_place_link");
  save_sweep_checkpoint(partial_checkpoint(1), tmp.path());
  std::filesystem::create_hard_link(tmp.path(), link.path());
  for (const std::size_t done : {2u, 3u}) {
    save_sweep_checkpoint(partial_checkpoint(done), tmp.path());
    EXPECT_EQ(loaded_text(link.path()),
              serialize_sweep_checkpoint(partial_checkpoint(done)));
    EXPECT_FALSE(std::filesystem::exists(tmp.path() + ".tmp"));
  }
  save_sweep_checkpoint(partial_checkpoint(4), tmp.path());
  EXPECT_EQ(loaded_text(tmp.path()),
            serialize_sweep_checkpoint(partial_checkpoint(4)));
  EXPECT_EQ(loaded_text(link.path()),
            serialize_sweep_checkpoint(partial_checkpoint(3)));
}

// A process killed mid-save leaves the in-place write cut short at some
// byte. Every such cut of the third save loads the second save's state bit
// for bit: the write tears only the slot it writes, never the newest.
TEST(SweepCheckpoint, SlotWriteCutShortLoadsPreviousState) {
  TempCheckpoint tmp("torn");
  const SaveHistory h = save_history(tmp.path());
  ASSERT_LT(h.last - h.first, kCheckpointSlotBytes);
  EXPECT_EQ(loaded_text(tmp.path()), h.text[3]);
  for (std::size_t cut = h.first; cut <= h.last; ++cut) {
    write_file(tmp.path(),
               h.after[3].substr(0, cut) + h.after[2].substr(cut));
    EXPECT_EQ(loaded_text(tmp.path()), h.text[2]) << "cut at byte " << cut;
  }
}

// One damaged byte anywhere in the newest record loses only that record:
// the load falls back to the older slot.
TEST(SweepCheckpoint, DamagedNewestSlotLoadsOlderSlot) {
  TempCheckpoint tmp("flip");
  const SaveHistory h = save_history(tmp.path());
  const std::size_t header = h.after[3].find('\n') + 1;
  const std::size_t slot_start =
      header + (h.first - header) / kCheckpointSlotBytes * kCheckpointSlotBytes;
  for (std::size_t at = slot_start; at <= h.last; ++at) {
    std::string damaged = h.after[3];
    damaged[at] = static_cast<char>(damaged[at] ^ 0x5a);
    write_file(tmp.path(), damaged);
    EXPECT_EQ(loaded_text(tmp.path()), h.text[2]) << "byte " << at;
  }
}

TEST(SweepCheckpoint, LoadRejectsFileWithBothSlotsDamaged) {
  TempCheckpoint tmp("both_damaged");
  const SaveHistory h = save_history(tmp.path());
  const std::size_t header = h.after[3].find('\n') + 1;
  std::string damaged = h.after[3];
  for (const std::size_t slot : {0u, 1u}) {
    damaged[header + slot * kCheckpointSlotBytes + 100] ^= 0x5a;
  }
  write_file(tmp.path(), damaged);
  try {
    load_sweep_checkpoint(tmp.path());
    FAIL() << "a file with both slots damaged was loaded";
  } catch (const ConfigError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(tmp.path()), std::string::npos) << what;
    EXPECT_NE(what.find("no intact slot"), std::string::npos) << what;
  }
}

// The file's version line is 3. A version 2 file (the bare state text, as
// earlier builds wrote it) and a version 1 file are refused by name.
TEST(SweepCheckpoint, LoadRefusesOtherFileVersionsByName) {
  TempCheckpoint tmp("versions");
  const std::string text = serialize_sweep_checkpoint(sample_checkpoint());
  save_sweep_checkpoint(sample_checkpoint(), tmp.path());
  std::string v1 = read_text_file(tmp.path(), "checkpoint");
  const std::string line = "dsslice-sweep-checkpoint 3\n";
  ASSERT_EQ(v1.compare(0, line.size(), line), 0);
  v1[line.size() - 2] = '1';
  for (const auto& [version, file] :
       {std::pair{"1", v1}, std::pair{"2", text}}) {
    write_file(tmp.path(), file);
    try {
      load_sweep_checkpoint(tmp.path());
      FAIL() << "a version " << version << " file was loaded";
    } catch (const ConfigError& e) {
      EXPECT_NE(std::string(e.what()).find(
                    "unsupported checkpoint format version " +
                    std::string(version) + " (this build reads version 3)"),
                std::string::npos)
          << e.what();
    }
  }
}

/// `file` with the checksum of the record at `at` recomputed over its header
/// and the state text it delimits, if its header still has both, so that
/// the record's edits reach the header checks and the state-text parser.
std::string resealed(std::string file, std::size_t at) {
  const std::string_view record =
      std::string_view(file).substr(at, kCheckpointSlotBytes);
  const std::size_t eol = record.find('\n');
  if (eol == std::string_view::npos) {
    return file;
  }
  const std::size_t sum = record.rfind(' ', eol);
  if (sum == std::string_view::npos || sum == 0 || eol - sum != 17) {
    return file;
  }
  const std::size_t length = record.rfind(' ', sum - 1);
  std::uint64_t body = 0;
  const char* end = record.data() + sum;
  if (length == std::string_view::npos ||
      std::from_chars(record.data() + length + 1, end, body).ptr != end ||
      body > record.size() - eol - 1) {
    return file;
  }
  std::string sealed(record.substr(0, sum + 1));
  sealed += record.substr(eol + 1, static_cast<std::size_t>(body));
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(testing::fnv1a(sealed)));
  file.replace(at + sum + 1, 16, hex);
  return file;
}

// Seeded mutation fuzz over the whole file (the version line, both slot
// headers with their lengths and checksums, the state texts, the padding)
// and over the newest record with its checksum recomputed. Every mutant
// loads or throws ConfigError. A whole-file mutant that loads holds the
// second or third save's state exactly; a resealed record's edits reach
// the header checks and the state parser, and what loads re-serializes to
// a fixed point. Any other exception (or, under the sanitize preset, any
// UB) fails the test.
TEST(SweepCheckpoint, SeededFileMutantsLoadOrThrowConfigError) {
  TempCheckpoint tmp("file_mutants");
  const SaveHistory h = save_history(tmp.path());
  static constexpr const char* kWords[] = {
      "0", "1", "2", "3", "4", "01", "+1", "64", "4096", "18446744073709551615",
      "0000000000000000", "ffffffffffffffff", "slot", "end",
      "dsslice-sweep-checkpoint"};
  constexpr int kMutants = 1500;
  int loaded = 0;
  testing::for_each_mutant(
      h.after[3], 0x51075ULL, kMutants, kWords,
      [&](const std::string& mutant, int m) {
        write_file(tmp.path(), mutant);
        try {
          const std::string text = loaded_text(tmp.path());
          ++loaded;
          EXPECT_TRUE(text == h.text[3] || text == h.text[2])
              << "mutant " << m;
        } catch (const ConfigError&) {
        }
      });
  // About a third load (516 at this seed): an edit inside the newest
  // record, or one that shifts the slot after it, damages one slot and the
  // other loads; an edit to the version line, or one that shifts both
  // slots, is refused.
  EXPECT_GT(loaded, kMutants / 4);
  EXPECT_LT(loaded, kMutants);

  const std::size_t header = h.after[3].find('\n') + 1;
  const std::size_t at =
      header + (h.first - header) / kCheckpointSlotBytes * kCheckpointSlotBytes;
  const std::size_t record_end = h.after[3].find("\nend\n", at) + 5;
  const std::string record = h.after[3].substr(at, record_end - at);
  int edited = 0;
  testing::for_each_mutant(
      record, 0x5EA1ULL, kMutants, kWords,
      [&](const std::string& mutant, int m) {
        std::string file = h.after[3];
        file.replace(at, std::min(mutant.size(), kCheckpointSlotBytes),
                     mutant, 0, kCheckpointSlotBytes);
        write_file(tmp.path(), resealed(file, at));
        try {
          const std::string text = loaded_text(tmp.path());
          edited += text != h.text[3] && text != h.text[2] ? 1 : 0;
          EXPECT_EQ(serialize_sweep_checkpoint(parse_sweep_checkpoint(text)),
                    text)
              << "mutant " << m;
        } catch (const ConfigError&) {
        }
      });
  // Some edited records still load (50 at this seed).
  EXPECT_GT(edited, kMutants / 100);
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

// A save costs the same however many shards have completed: the file keeps
// its fixed size, and the state text after 1 shard and after 64 have the
// same lines and tokens and differ in size only where a count has more
// digits.
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
  const std::uintmax_t file_size = std::filesystem::file_size(tmp.path());
  const std::string one =
      serialize_sweep_checkpoint(load_sweep_checkpoint(tmp.path()));
  options.max_shards = 0;
  options.resume = true;
  ASSERT_TRUE(run_sweep(config, options, pool).complete);
  EXPECT_EQ(std::filesystem::file_size(tmp.path()), file_size);
  const std::string all =
      serialize_sweep_checkpoint(load_sweep_checkpoint(tmp.path()));
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

// A complete checkpoint's bytes depend on the sweep alone, not on how it
// got there: whatever the save cadence, and whether the sweep ran
// uninterrupted, was interrupted after any wave and resumed, or was
// interrupted at every wave boundary, it leaves the file that a sweep
// saving once at the end leaves.
TEST(SweepEngine, CompleteCheckpointBytesDoNotDependOnInterrupts) {
  const ExperimentConfig config = sweep_config();
  ThreadPool pool(2);
  TempCheckpoint tmp("complete_bytes");
  SweepOptions options = small_options();  // 6 shards
  options.checkpoint_path = tmp.path();
  ASSERT_TRUE(run_sweep(config, options, pool).complete);
  const std::string expected = read_text_file(tmp.path(), "checkpoint");

  for (const std::size_t every : {1u, 2u}) {
    options.checkpoint_every = every;
    for (std::size_t k = 0; k < 6; k += every) {
      std::filesystem::remove(tmp.path());
      if (k > 0) {  // max_shards = 0 would run the whole sweep
        SweepOptions interrupted = options;
        interrupted.max_shards = k;
        ASSERT_FALSE(run_sweep(config, interrupted, pool).complete);
      }
      SweepOptions resumed = options;
      resumed.resume = true;
      ASSERT_TRUE(run_sweep(config, resumed, pool).complete);
      EXPECT_EQ(read_text_file(tmp.path(), "checkpoint"), expected)
          << "every " << every << ", k " << k;
    }

    std::filesystem::remove(tmp.path());
    SweepOptions one_wave = options;
    one_wave.max_shards = every;
    one_wave.resume = true;
    std::size_t runs = 0;
    while (!run_sweep(config, one_wave, pool).complete) {
      ASSERT_LT(++runs, 6u);
    }
    EXPECT_EQ(read_text_file(tmp.path(), "checkpoint"), expected)
        << "every " << every << ", one wave per run";
  }
}

// A sweep that does not resume starts over whatever its checkpoint path
// holds. Once it has saved, an interrupt and a resume must reproduce its
// own uninterrupted aggregate, even when the stale file has the same
// configuration and layout and is further along.
TEST(SweepEngine, FreshSweepSavesOverFurtherAlongCheckpoint) {
  const ExperimentConfig config = sweep_config();
  ThreadPool pool(1);
  const std::string expected =
      serialize_sweep_aggregate(run_sweep(config, small_options(), pool)
                                    .aggregate);
  // 5 of 6 shards done, with a fold that is not this sweep's.
  SweepCheckpoint stale = sample_checkpoint();
  stale.fingerprint = sweep_config_fingerprint(config);
  stale.scenario_count = 96;
  stale.completed = {1, 1, 1, 1, 1, 0};
  stale.shards.resize(6);

  TempCheckpoint tmp("stale");
  for (const std::size_t k : {1u, 2u, 3u}) {
    save_sweep_checkpoint(stale, tmp.path());
    SweepOptions options = small_options();
    options.checkpoint_path = tmp.path();
    options.checkpoint_every = 1;
    options.max_shards = k;
    ASSERT_EQ(run_sweep(config, options, pool).shards_run, k);
    options.max_shards = 0;
    options.resume = true;
    const SweepReport resumed = run_sweep(config, options, pool);
    EXPECT_EQ(resumed.shards_resumed, k);
    EXPECT_EQ(serialize_sweep_aggregate(resumed.aggregate), expected) << k;
  }
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

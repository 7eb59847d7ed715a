#include "dsslice/sweep/checkpoint.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdio>
#include <fstream>
#include <optional>
#include <string_view>

#include "dsslice/util/check.hpp"
#include "dsslice/util/text_codec.hpp"

namespace dsslice {

namespace {

/// Version of the state text (serialize_sweep_checkpoint).
constexpr int kTextVersion = 2;
/// Version of the file: the two checksummed slots around the state text.
constexpr int kFileVersion = 3;
constexpr std::string_view kFileHeader = "dsslice-sweep-checkpoint 3\n";
constexpr std::size_t kFileBytes =
    kFileHeader.size() + 2 * kCheckpointSlotBytes;

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;

/// Sanity bound on shard counts. A count beyond this is a corrupted file,
/// not a real sweep; rejecting it up front avoids huge allocations.
constexpr std::uint64_t kMaxShardCount = 1'000'000;

/// Serialized size to reserve: an aggregate runs to ~700 bytes with small
/// bin counts and the layout header to ~150, so the text rarely regrows.
constexpr std::size_t kTextHint = 1024;

/// 64 bits in 16 lowercase hex digits.
struct Hex64 {
  std::uint64_t bits;
};

TextWriter& operator<<(TextWriter& w, Hex64 x) {
  static constexpr char kDigits[] = "0123456789abcdef";
  char buf[16];
  for (int i = 15; i >= 0; --i) {
    buf[i] = kDigits[x.bits & 0xf];
    x.bits >>= 4;
  }
  return w << std::string_view(buf, sizeof buf);
}

/// A double as its raw IEEE-754 bit pattern in 16 lowercase hex digits —
/// exact round-trip by construction (decimal formatting is not trusted for
/// Welford state).
struct HexBits {
  double value;
};

TextWriter& operator<<(TextWriter& w, HexBits x) {
  return w << Hex64{std::bit_cast<std::uint64_t>(x.value)};
}

/// Exactly 16 lowercase hex digits, as Hex64 spells them.
std::optional<std::uint64_t> hex64(std::string_view tok) {
  if (tok.size() != 16) {
    return std::nullopt;
  }
  std::uint64_t bits = 0;
  for (const char c : tok) {
    std::uint64_t digit = 0;
    if (c >= '0' && c <= '9') {
      digit = static_cast<std::uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      digit = static_cast<std::uint64_t>(c - 'a' + 10);
    } else {
      return std::nullopt;
    }
    bits = bits << 4 | digit;
  }
  return bits;
}

double to_hex_double(const LineReader& reader, std::string_view tok) {
  const std::optional<std::uint64_t> bits = hex64(tok);
  if (!bits) {
    reader.fail("not a 16-hex-digit bit pattern: " + std::string(tok));
  }
  return std::bit_cast<double>(*bits);
}

void write_stat(TextWriter& w, std::string_view name,
                const RunningStats& stats) {
  const RunningStatsState s = stats.state();
  w << "stat " << name << ' ' << s.n << ' ' << HexBits{s.mean} << ' '
    << HexBits{s.m2} << ' ' << HexBits{s.sum} << ' ' << HexBits{s.min} << ' '
    << HexBits{s.max} << '\n';
}

RunningStats read_stat(LineReader& reader, std::string_view name) {
  const Tokens tokens = reader.next();
  if (tokens.size() != 8 || tokens[0] != "stat" || tokens[1] != name) {
    reader.fail("expected 'stat " + std::string(name) +
                "' with 6 argument(s)");
  }
  RunningStatsState s;
  s.n = static_cast<std::size_t>(reader.to_u64(tokens[2]));
  s.mean = to_hex_double(reader, tokens[3]);
  s.m2 = to_hex_double(reader, tokens[4]);
  s.sum = to_hex_double(reader, tokens[5]);
  s.min = to_hex_double(reader, tokens[6]);
  s.max = to_hex_double(reader, tokens[7]);
  return RunningStats::from_state(s);
}

void write_aggregate(TextWriter& w, const SweepAggregate& a) {
  w << "success " << a.success.successes() << ' ' << a.success.trials()
    << '\n';
  write_stat(w, "min_laxity", a.min_laxity);
  write_stat(w, "max_lateness", a.max_lateness);
  write_stat(w, "makespan", a.makespan);
  write_stat(w, "slicing_passes", a.slicing_passes);
  write_stat(w, "task_count", a.task_count);
  w << "hist " << HexBits{a.laxity.lo()} << ' ' << HexBits{a.laxity.hi()}
    << ' ' << a.laxity.underflow() << ' ' << a.laxity.overflow();
  for (std::size_t b = 0; b < LinearHistogram::kBinCount; ++b) {
    w << ' ' << a.laxity.bin(b);
  }
  w << '\n';
}

/// The fold of `completed` shards of a sweep of `scenarios`: it has trials
/// exactly when some shard completed, and never more than the sweep has.
SweepAggregate read_aggregate(LineReader& reader, std::uint64_t completed,
                              std::uint64_t scenarios) {
  SweepAggregate a;
  Tokens tokens = reader.next();
  reader.expect(tokens, "success", 2);
  const std::uint64_t successes = reader.to_u64(tokens[1]);
  const std::uint64_t trials = reader.to_u64(tokens[2]);
  if (successes > trials) {
    reader.fail("success count exceeds trial count");
  }
  if ((trials == 0) != (completed == 0)) {
    reader.fail(completed == 0 ? "trials recorded with no shard completed"
                               : "no trials recorded for completed shards");
  }
  if (trials > scenarios) {
    reader.fail("trial count exceeds the sweep's scenario count");
  }
  a.success.add_many(successes, trials);
  a.min_laxity = read_stat(reader, "min_laxity");
  a.max_lateness = read_stat(reader, "max_lateness");
  a.makespan = read_stat(reader, "makespan");
  a.slicing_passes = read_stat(reader, "slicing_passes");
  a.task_count = read_stat(reader, "task_count");
  tokens = reader.next();
  reader.expect(tokens, "hist", 4 + LinearHistogram::kBinCount);
  const double lo = to_hex_double(reader, tokens[1]);
  const double hi = to_hex_double(reader, tokens[2]);
  if (!(lo < hi)) {
    reader.fail("histogram range is empty");
  }
  a.laxity = LinearHistogram(lo, hi);
  std::array<std::uint64_t, LinearHistogram::kBinCount> bins{};
  for (std::size_t b = 0; b < LinearHistogram::kBinCount; ++b) {
    bins[b] = reader.to_u64(tokens[5 + b]);
  }
  LinearHistogramAccess::restore(a.laxity, reader.to_u64(tokens[3]),
                                 reader.to_u64(tokens[4]), bins);
  return a;
}

/// FNV-1a 64-bit over a byte string, continuing from `h`.
std::uint64_t fnv1a(std::string_view bytes, std::uint64_t h = kFnvOffset) {
  for (const char c : bytes) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Reads a version line and refuses any version but `version` by name.
void read_version(LineReader& reader, int version) {
  const Tokens tokens = reader.next();
  reader.expect(tokens, "dsslice-sweep-checkpoint", 1);
  if (reader.to_u64(tokens[1]) != static_cast<std::uint64_t>(version)) {
    reader.fail("unsupported checkpoint format version " +
                std::string(tokens[1]) + " (this build reads version " +
                std::to_string(version) + ")");
  }
}

}  // namespace

std::size_t SweepCheckpoint::completed_count() const {
  std::size_t n = 0;
  for (const std::uint8_t flag : completed) {
    n += flag != 0 ? 1 : 0;
  }
  return n;
}

std::uint64_t sweep_config_fingerprint(const ExperimentConfig& config) {
  const PlatformConfig& p = config.generator.platform;
  const WorkloadConfig& w = config.generator.workload;
  const MetricParams& mp = config.metric_params;
  std::string text;
  TextWriter out(text);
  out << "dsslice-sweep-config-v1"
      << " m=" << p.processor_count << " classes=" << p.min_class_count << ','
      << p.max_class_count << " bus=" << HexBits{p.bus_delay_per_item}
      << " dev=" << HexBits{p.class_deviation}
      << " cmodel=" << static_cast<int>(p.class_model)
      << " tasks=" << w.min_tasks << ',' << w.max_tasks << " depth="
      << w.min_depth << ',' << w.max_depth << " degree=" << w.min_degree << ','
      << w.max_degree << " locality=" << static_cast<int>(w.edge_locality)
      << " cmean=" << HexBits{w.mean_execution_time}
      << " etd=" << HexBits{w.etd}
      << " inel=" << HexBits{w.ineligible_probability}
      << " olr=" << HexBits{w.olr} << " spread=" << HexBits{w.olr_spread}
      << " ccr=" << HexBits{w.ccr}
      << " opt=" << HexBits{w.min_optional_fraction} << ','
      << HexBits{w.max_optional_fraction}
      << " intmsg=" << (w.integral_messages ? 1 : 0)
      << " seed=" << config.generator.base_seed
      << " technique=" << static_cast<int>(config.technique)
      << " kg=" << HexBits{mp.k_global} << " kl=" << HexBits{mp.k_local}
      << " tf=" << HexBits{mp.threshold_factor} << " to=";
  if (mp.threshold_override.has_value()) {
    out << HexBits{*mp.threshold_override};
  } else {
    out << "none";
  }
  out << " kr=" << HexBits{mp.k_resource}
      << " tps=" << (mp.temporal_parallel_sets ? 1 : 0)
      << " wcet=" << static_cast<int>(config.wcet_strategy)
      << " placement=" << static_cast<int>(config.scheduler.placement)
      << " abort=" << (config.scheduler.abort_on_miss ? 1 : 0)
      << " bus_contention="
      << (config.scheduler.simulate_bus_contention ? 1 : 0)
      << " algorithm=" << static_cast<int>(config.algorithm);
  return fnv1a(text);
}

std::string serialize_sweep_aggregate(const SweepAggregate& aggregate) {
  std::string text;
  text.reserve(kTextHint);
  TextWriter w(text);
  write_aggregate(w, aggregate);
  return text;
}

std::string serialize_sweep_checkpoint(const SweepCheckpoint& checkpoint) {
  const std::size_t completed = checkpoint.completed_count();
  for (std::size_t s = 0; s < checkpoint.shard_count(); ++s) {
    DSSLICE_REQUIRE((checkpoint.completed[s] != 0) == (s < completed),
                    "checkpointed shards must be a prefix of the sweep");
  }
  // The index-order fold of the completed prefix. It starts from a copy of
  // slot 0, not a default aggregate, whose histogram range could differ.
  // Slots without trials hold nothing to fold: the parser leaves every
  // slot but the first empty.
  SweepAggregate prefix;
  if (completed > 0) {
    prefix = checkpoint.shards[0];
    for (std::size_t s = 1; s < completed; ++s) {
      if (checkpoint.shards[s].scenarios() != 0) {
        prefix.merge(checkpoint.shards[s]);
      }
    }
  }
  std::string text;
  text.reserve(kTextHint);
  TextWriter w(text);
  w << "dsslice-sweep-checkpoint " << kTextVersion << '\n';
  w << "fingerprint " << checkpoint.fingerprint << '\n';
  w << "scenarios " << checkpoint.scenario_count << '\n';
  w << "shard-size " << checkpoint.shard_size << '\n';
  w << "shard-count " << checkpoint.shard_count() << '\n';
  w << "completed " << completed << '\n';
  write_aggregate(w, prefix);
  w << "end\n";
  return text;
}

SweepCheckpoint parse_sweep_checkpoint(std::string_view text) {
  LineReader reader(text, "sweep checkpoint");
  read_version(reader, kTextVersion);
  SweepCheckpoint cp;
  Tokens tokens = reader.next();
  reader.expect(tokens, "fingerprint", 1);
  cp.fingerprint = reader.to_u64(tokens[1]);
  tokens = reader.next();
  reader.expect(tokens, "scenarios", 1);
  cp.scenario_count = reader.to_u64(tokens[1]);
  tokens = reader.next();
  reader.expect(tokens, "shard-size", 1);
  cp.shard_size = reader.to_u64(tokens[1]);
  if (cp.shard_size == 0) {
    reader.fail("shard size must be positive");
  }
  tokens = reader.next();
  reader.expect(tokens, "shard-count", 1);
  const std::uint64_t shard_count = reader.to_u64(tokens[1]);
  if (shard_count > kMaxShardCount) {
    reader.fail("shard count " + std::string(tokens[1]) +
                " exceeds the sanity bound of " +
                std::to_string(kMaxShardCount));
  }
  const std::uint64_t expected_shards =
      ceil_div(cp.scenario_count, cp.shard_size);
  if (shard_count != expected_shards) {
    reader.fail("shard count " + std::string(tokens[1]) + " does not match " +
                std::to_string(cp.scenario_count) + " scenarios in shards of " +
                std::to_string(cp.shard_size));
  }
  tokens = reader.next();
  reader.expect(tokens, "completed", 1);
  const std::uint64_t completed_count = reader.to_u64(tokens[1]);
  if (completed_count > shard_count) {
    reader.fail("completed count exceeds shard count");
  }
  SweepAggregate prefix =
      read_aggregate(reader, completed_count, cp.scenario_count);
  tokens = reader.next();
  reader.expect(tokens, "end", 0);
  cp.completed.assign(static_cast<std::size_t>(shard_count), 0);
  std::fill_n(cp.completed.begin(), completed_count, std::uint8_t{1});
  cp.shards.assign(static_cast<std::size_t>(shard_count), SweepAggregate{});
  if (completed_count > 0) {
    cp.shards[0] = std::move(prefix);
  }
  return cp;
}

namespace {

/// One slot of a checkpoint file as read back.
struct Slot {
  const char* damage = nullptr;  ///< why the slot is not intact; null if it is
  std::uint64_t completed = 0;
  std::uint64_t fingerprint = 0;
  std::uint64_t scenario_count = 0;
  std::uint64_t shard_size = 0;
  std::string_view body;  ///< the state text
};

std::size_t slot_offset(std::size_t slot) {
  return kFileHeader.size() + slot * kCheckpointSlotBytes;
}

/// A slot record: the header line "slot <completed> <fingerprint>
/// <scenarios> <shard-size> <body-bytes> <checksum>", then the state text.
/// The checksum is FNV-1a over the header up to the checksum and then the
/// body, so a write torn inside the header cannot pair new fields with the
/// old body and its checksum.
std::string slot_record(const SweepCheckpoint& checkpoint,
                        std::size_t completed, std::string_view body) {
  std::string record;
  record.reserve(kTextHint + 128);
  TextWriter w(record);
  w << "slot " << completed << ' ' << checkpoint.fingerprint << ' '
    << checkpoint.scenario_count << ' ' << checkpoint.shard_size << ' '
    << body.size() << ' ';
  w << Hex64{fnv1a(body, fnv1a(record))} << '\n';
  record += body;
  DSSLICE_REQUIRE(record.size() <= kCheckpointSlotBytes,
                  "sweep checkpoint record of " +
                      std::to_string(record.size()) +
                      " bytes does not fit its slot");
  return record;
}

/// Reads the record at the start of `bytes` (one slot's extent): its
/// header, through the shared codec, and its checksum. The state text is
/// left to the parser.
Slot read_slot(std::string_view bytes) {
  Slot slot;
  const std::size_t eol = bytes.find('\n');
  if (eol == std::string_view::npos) {
    slot.damage = "no header line";
    return slot;
  }
  const std::string_view header = bytes.substr(0, eol);
  std::uint64_t body_bytes = 0;
  std::optional<std::uint64_t> checksum;
  std::string_view sealed;  // the header up to the checksum
  try {
    LineReader reader(header, "sweep checkpoint slot");
    const Tokens tokens = reader.next();
    reader.expect(tokens, "slot", 6);
    slot.completed = reader.to_u64(tokens[1]);
    slot.fingerprint = reader.to_u64(tokens[2]);
    slot.scenario_count = reader.to_u64(tokens[3]);
    slot.shard_size = reader.to_u64(tokens[4]);
    body_bytes = reader.to_u64(tokens[5]);
    checksum = hex64(tokens[6]);
    sealed = header.substr(0, static_cast<std::size_t>(tokens[6].data() -
                                                       header.data()));
  } catch (const ConfigError&) {
    checksum.reset();
  }
  if (!checksum) {
    slot.damage = "malformed header";
    return slot;
  }
  if (body_bytes > bytes.size() - (eol + 1)) {
    slot.damage = "state text overruns the slot";
    return slot;
  }
  slot.body = bytes.substr(eol + 1, static_cast<std::size_t>(body_bytes));
  if (fnv1a(slot.body, fnv1a(sealed)) != *checksum) {
    slot.damage = "checksum mismatch";
  }
  return slot;
}

/// Both slots of `file`; a slot the file is too short to reach is damaged.
std::array<Slot, 2> read_slots(std::string_view file) {
  std::array<Slot, 2> slots;
  for (std::size_t i = 0; i < slots.size(); ++i) {
    if (slot_offset(i) >= file.size()) {
      slots[i].damage = "missing";
    } else {
      slots[i] = read_slot(file.substr(slot_offset(i), kCheckpointSlotBytes));
    }
  }
  return slots;
}

/// The intact slot with the larger completed count (slot 0 on a tie), or
/// -1 when neither is intact.
int newest_slot(const std::array<Slot, 2>& slots) {
  if (slots[0].damage != nullptr) {
    return slots[1].damage != nullptr ? -1 : 1;
  }
  if (slots[1].damage != nullptr) {
    return 0;
  }
  return slots[1].completed > slots[0].completed ? 1 : 0;
}

/// Closes a file descriptor on scope exit.
struct FileDescriptor {
  int fd;
  ~FileDescriptor() {
    if (fd >= 0) {
      ::close(fd);
    }
  }
};

/// Writes `record` over the older slot of the file at `path` when the
/// newest intact slot is an earlier save of the same sweep, and returns
/// whether it did. The newest slot is left untouched, so a write cut short
/// tears only the slot being written and a load still finds the previous
/// state. Nothing is created, truncated or renamed.
bool write_older_slot(const SweepCheckpoint& checkpoint,
                      std::size_t completed, std::string_view record,
                      const std::string& path) {
  const FileDescriptor file{::open(path.c_str(), O_RDWR | O_CLOEXEC)};
  if (file.fd < 0) {
    return false;
  }
  std::array<char, kFileBytes> buffer;
  const ssize_t got = ::pread(file.fd, buffer.data(), buffer.size(), 0);
  if (got < 0) {
    return false;
  }
  const std::string_view bytes(buffer.data(), static_cast<std::size_t>(got));
  if (!bytes.starts_with(kFileHeader)) {
    return false;
  }
  const std::array<Slot, 2> slots = read_slots(bytes);
  const int newest = newest_slot(slots);
  if (newest < 0) {
    return false;
  }
  const Slot& last = slots[static_cast<std::size_t>(newest)];
  if (last.fingerprint != checkpoint.fingerprint ||
      last.scenario_count != checkpoint.scenario_count ||
      last.shard_size != checkpoint.shard_size || last.completed > completed) {
    return false;
  }
  const off_t at = static_cast<off_t>(slot_offset(newest == 0 ? 1 : 0));
  if (::pwrite(file.fd, record.data(), record.size(), at) !=
      static_cast<ssize_t>(record.size())) {
    throw ConfigError("write failed for sweep checkpoint: " + path);
  }
  return true;
}

/// Writes a whole file with `record` in both slots to `path + ".tmp"` and
/// renames it over `path`, so an interrupt mid-write leaves the previous
/// file intact.
void replace_file(std::string_view record, const std::string& path) {
  std::string file(kFileBytes, ' ');
  kFileHeader.copy(file.data(), kFileHeader.size());
  for (const std::size_t slot : {0u, 1u}) {
    record.copy(file.data() + slot_offset(slot), record.size());
    file[slot_offset(slot) + kCheckpointSlotBytes - 1] = '\n';
  }
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      throw ConfigError("cannot write sweep checkpoint: " + tmp);
    }
    out.write(file.data(), static_cast<std::streamsize>(file.size()));
    out.flush();
    if (!out) {
      throw ConfigError("write failed for sweep checkpoint: " + tmp);
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    throw ConfigError("cannot move sweep checkpoint into place: " + path);
  }
}

}  // namespace

std::size_t save_sweep_checkpoint(const SweepCheckpoint& checkpoint,
                                  const std::string& path) {
  const std::string body = serialize_sweep_checkpoint(checkpoint);
  const std::size_t completed = checkpoint.completed_count();
  const std::string record = slot_record(checkpoint, completed, body);
  // A complete checkpoint is always written whole, both slots alike, so its
  // bytes do not depend on the saves before it.
  if (completed == checkpoint.shard_count() ||
      !write_older_slot(checkpoint, completed, record, path)) {
    replace_file(record, path);
  }
  return body.size();
}

SweepCheckpoint load_sweep_checkpoint(const std::string& path) {
  const std::string file = read_text_file(path, "sweep checkpoint");
  LineReader reader(std::string_view(file).substr(0, file.find('\n')),
                    "sweep checkpoint");
  read_version(reader, kFileVersion);
  const std::array<Slot, 2> slots = read_slots(file);
  const int newest = newest_slot(slots);
  if (newest < 0) {
    throw ConfigError("sweep checkpoint " + path +
                      " has no intact slot (slot 0: " + slots[0].damage +
                      "; slot 1: " + slots[1].damage + ")");
  }
  return parse_sweep_checkpoint(slots[static_cast<std::size_t>(newest)].body);
}

}  // namespace dsslice

#include "dsslice/sweep/checkpoint.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdio>
#include <optional>
#include <string_view>

#include "dsslice/util/check.hpp"
#include "dsslice/util/text_codec.hpp"

namespace dsslice {

namespace {

/// Version of the file, stated once by its first line.
constexpr int kFileVersion = 4;
constexpr std::string_view kFileHeader = "dsslice-sweep-checkpoint 4\n";
constexpr std::size_t kFileBytes =
    kFileHeader.size() + 2 * kCheckpointSlotBytes;

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;

/// Sanity bound on shard counts. A layout deriving more is a corrupted
/// file, not a real sweep; rejecting it up front avoids huge allocations.
constexpr std::uint64_t kMaxShardCount = 1'000'000;

/// Serialized size to reserve: an aggregate runs to ~700 bytes with small
/// bin counts, so the text rarely regrows.
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

/// The fields of a record's header line, "slot <completed> <fingerprint>
/// <scenarios> <shard-size> <body-bytes> <checksum>".
struct RecordHeader {
  std::uint64_t completed = 0;
  std::uint64_t fingerprint = 0;
  std::uint64_t scenario_count = 0;
  std::uint64_t shard_size = 0;
  std::uint64_t body_bytes = 0;
  std::uint64_t checksum = 0;
  std::size_t sealed = 0;  ///< offset in the text of the checksum token
};

/// Reads the header line from `reader`, a reader over `text`. Every field
/// must be spelled as the writer spells it; what the fields say is left to
/// the caller.
RecordHeader read_header(LineReader& reader, std::string_view text) {
  const Tokens tokens = reader.next();
  reader.expect(tokens, "slot", 6);
  const std::optional<std::uint64_t> checksum = hex64(tokens[6]);
  if (!checksum) {
    reader.fail("not a 16-hex-digit checksum: " + std::string(tokens[6]));
  }
  return {reader.to_u64(tokens[1]), reader.to_u64(tokens[2]),
          reader.to_u64(tokens[3]), reader.to_u64(tokens[4]),
          reader.to_u64(tokens[5]), *checksum,
          static_cast<std::size_t>(tokens[6].data() - text.data())};
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
  // Every field is bound by name, so a field added to one of these configs
  // fails to compile here until it is hashed or skipped on purpose. The
  // sweep supplies its own scenario count, so graph_count is skipped, and a
  // display label does not change outcomes.
  const auto& [generator, technique, mp, wcet, scheduler, algorithm, label] =
      config;
  const auto& [platform, workload, graph_count, seed] = generator;
  const auto& [m, min_classes, max_classes, bus, deviation, model] = platform;
  const auto& [min_tasks, max_tasks, min_depth, max_depth, min_degree,
               max_degree, locality, mean_c, etd, inel, olr, spread, ccr,
               min_opt, max_opt, integral] = workload;
  const auto& [k_global, k_local, threshold_factor, threshold_override,
               k_resource, temporal] = mp;
  const auto& [placement, abort_on_miss, bus_contention] = scheduler;
  std::string text;
  TextWriter out(text);
  out << "dsslice-sweep-config-v1"
      << " m=" << m << " classes=" << min_classes << ',' << max_classes
      << " bus=" << HexBits{bus} << " dev=" << HexBits{deviation}
      << " cmodel=" << static_cast<int>(model) << " tasks=" << min_tasks
      << ',' << max_tasks << " depth=" << min_depth << ',' << max_depth
      << " degree=" << min_degree << ',' << max_degree
      << " locality=" << static_cast<int>(locality)
      << " cmean=" << HexBits{mean_c} << " etd=" << HexBits{etd}
      << " inel=" << HexBits{inel} << " olr=" << HexBits{olr}
      << " spread=" << HexBits{spread} << " ccr=" << HexBits{ccr}
      << " opt=" << HexBits{min_opt} << ',' << HexBits{max_opt}
      << " intmsg=" << (integral ? 1 : 0) << " seed=" << seed
      << " technique=" << static_cast<int>(technique)
      << " kg=" << HexBits{k_global} << " kl=" << HexBits{k_local}
      << " tf=" << HexBits{threshold_factor} << " to=";
  if (threshold_override.has_value()) {
    out << HexBits{*threshold_override};
  } else {
    out << "none";
  }
  out << " kr=" << HexBits{k_resource} << " tps=" << (temporal ? 1 : 0)
      << " wcet=" << static_cast<int>(wcet)
      << " placement=" << static_cast<int>(placement)
      << " abort=" << (abort_on_miss ? 1 : 0)
      << " bus_contention=" << (bus_contention ? 1 : 0)
      << " algorithm=" << static_cast<int>(algorithm);
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
  DSSLICE_REQUIRE(checkpoint.shard_size > 0 &&
                      checkpoint.shard_count() ==
                          ceil_div(checkpoint.scenario_count,
                                   checkpoint.shard_size),
                  "checkpoint shard count must match its layout");
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
  const std::string body = serialize_sweep_aggregate(prefix);
  std::string record;
  record.reserve(body.size() + 128);  // the header runs to ~110 bytes
  TextWriter w(record);
  w << "slot " << completed << ' ' << checkpoint.fingerprint << ' '
    << checkpoint.scenario_count << ' ' << checkpoint.shard_size << ' '
    << body.size() << ' ';
  // The checksum covers the header up to itself, so a write torn inside
  // the header cannot pair new fields with the old body and its checksum.
  w << Hex64{fnv1a(body, fnv1a(record))} << '\n';
  record += body;
  DSSLICE_REQUIRE(record.size() <= kCheckpointSlotBytes,
                  "sweep checkpoint record of " +
                      std::to_string(record.size()) +
                      " bytes does not fit its slot");
  return record;
}

SweepCheckpoint parse_sweep_checkpoint(std::string_view text) {
  LineReader reader(text, "sweep checkpoint");
  const RecordHeader header = read_header(reader, text);
  if (header.shard_size == 0) {
    reader.fail("shard size must be positive");
  }
  const std::uint64_t shard_count =
      ceil_div(header.scenario_count, header.shard_size);
  if (shard_count > kMaxShardCount) {
    reader.fail("layout exceeds the sanity bound of " +
                std::to_string(kMaxShardCount) + " shards");
  }
  if (header.completed > shard_count) {
    reader.fail("completed count exceeds shard count");
  }
  SweepCheckpoint cp;
  cp.fingerprint = header.fingerprint;
  cp.scenario_count = header.scenario_count;
  cp.shard_size = header.shard_size;
  SweepAggregate prefix =
      read_aggregate(reader, header.completed, header.scenario_count);
  cp.completed.assign(static_cast<std::size_t>(shard_count), 0);
  std::fill_n(cp.completed.begin(), header.completed, std::uint8_t{1});
  cp.shards.assign(static_cast<std::size_t>(shard_count), SweepAggregate{});
  if (header.completed > 0) {
    cp.shards[0] = std::move(prefix);
  }
  return cp;
}

namespace {

/// One slot of a checkpoint file as read back.
struct Slot {
  const char* damage = nullptr;  ///< why the slot is not intact; null if it is
  RecordHeader header;
  std::string_view record;  ///< the header line and the body it delimits
};

std::size_t slot_offset(std::size_t slot) {
  return kFileHeader.size() + slot * kCheckpointSlotBytes;
}

/// Reads the record at the start of `bytes` (one slot's extent): its
/// header line, and the body that line delimits checked against its
/// checksum. What the fields say is left to the parser.
Slot read_slot(std::string_view bytes) {
  Slot slot;
  const std::size_t eol = bytes.find('\n');
  if (eol == std::string_view::npos) {
    slot.damage = "no header line";
    return slot;
  }
  const std::string_view line = bytes.substr(0, eol);
  try {
    LineReader reader(line, "sweep checkpoint slot");
    slot.header = read_header(reader, line);
  } catch (const ConfigError&) {
    slot.damage = "malformed header";
    return slot;
  }
  if (slot.header.body_bytes > bytes.size() - (eol + 1)) {
    slot.damage = "body overruns the slot";
    return slot;
  }
  slot.record = bytes.substr(
      0, eol + 1 + static_cast<std::size_t>(slot.header.body_bytes));
  if (fnv1a(slot.record.substr(eol + 1),
            fnv1a(line.substr(0, slot.header.sealed))) !=
      slot.header.checksum) {
    slot.damage = "checksum mismatch";
  }
  return slot;
}

/// Closes a file descriptor on scope exit.
struct FileDescriptor {
  explicit FileDescriptor(int descriptor) : fd(descriptor) {}
  FileDescriptor(const FileDescriptor&) = delete;
  FileDescriptor& operator=(const FileDescriptor&) = delete;
  ~FileDescriptor() {
    if (fd >= 0) {
      ::close(fd);
    }
  }
  int fd;
};

/// Throws ConfigError naming `path` for a file whose first line is not
/// this version's: another version by name, anything else as malformed.
[[noreturn]] void refuse_version(std::string_view bytes,
                                 const std::string& path) {
  const std::string context = "sweep checkpoint " + path;
  LineReader reader(bytes.substr(0, bytes.find('\n')), context);
  const Tokens tokens = reader.next();
  reader.expect(tokens, "dsslice-sweep-checkpoint", 1);
  reader.fail("unsupported checkpoint format version " +
              std::string(tokens[1]) + " (this build reads version " +
              std::to_string(kFileVersion) + ")");
}

/// A checkpoint file as one pread of at most its fixed size shows it: the
/// version line and both slots, each checked against its checksum. Bytes
/// past the second slot are never read. The file stays open for a save's
/// in-place write. A missing, unreadable or foreign file is not an
/// exception here, so a save over one falls back to a whole-file write.
struct CheckpointFile {
  /// Opens `path` with `flags` and reads it. A file that cannot be read or
  /// is not of this version has both slots damaged.
  CheckpointFile(const std::string& path, int flags)
      : file(::open(path.c_str(), flags | O_CLOEXEC)) {
    const ssize_t got =
        file.fd < 0 ? -1 : ::pread(file.fd, buffer.data(), buffer.size(), 0);
    read = got >= 0;
    bytes = std::string_view(buffer.data(),
                             read ? static_cast<std::size_t>(got) : 0);
    for (std::size_t i = 0; i < slots.size(); ++i) {
      if (!bytes.starts_with(kFileHeader)) {
        slots[i].damage = "unread";
      } else if (slot_offset(i) >= bytes.size()) {
        slots[i].damage = "missing";
      } else {
        slots[i] =
            read_slot(bytes.substr(slot_offset(i), kCheckpointSlotBytes));
      }
    }
  }

  /// The intact slot with the larger completed count (slot 0 on a tie), or
  /// null when neither is intact.
  const Slot* newest() const {
    if (slots[0].damage != nullptr) {
      return slots[1].damage != nullptr ? nullptr : &slots[1];
    }
    if (slots[1].damage != nullptr) {
      return &slots[0];
    }
    return slots[1].header.completed > slots[0].header.completed ? &slots[1]
                                                                 : &slots[0];
  }

  FileDescriptor file;
  std::array<char, kFileBytes> buffer;
  bool read = false;       ///< whether the file opened and read
  std::string_view bytes;  ///< what was read, in buffer
  std::array<Slot, 2> slots;
};

/// Writes `record` over the older slot of the file at `path` when the
/// newest intact slot is an earlier save of the same sweep, and returns
/// whether it did. The newest slot is left untouched, so a write cut short
/// tears only the slot being written and a load still finds the previous
/// state. Nothing is created, truncated or renamed.
bool write_older_slot(const SweepCheckpoint& checkpoint,
                      std::size_t completed, std::string_view record,
                      const std::string& path) {
  const CheckpointFile file(path, O_RDWR);
  const Slot* newest = file.newest();
  if (newest == nullptr) {
    return false;
  }
  const RecordHeader& last = newest->header;
  if (last.fingerprint != checkpoint.fingerprint ||
      last.scenario_count != checkpoint.scenario_count ||
      last.shard_size != checkpoint.shard_size || last.completed > completed) {
    return false;
  }
  const off_t at =
      static_cast<off_t>(slot_offset(newest == &file.slots[0] ? 1 : 0));
  if (::pwrite(file.file.fd, record.data(), record.size(), at) !=
      static_cast<ssize_t>(record.size())) {
    throw ConfigError("write failed for sweep checkpoint: " + path);
  }
  return true;
}

/// Writes a whole file with `record` in both slots to `path + ".tmp"` and
/// renames it over `path`, so an interrupt mid-write leaves the previous
/// file intact.
void replace_file(std::string_view record, const std::string& path) {
  std::array<char, kFileBytes> file;
  file.fill(' ');
  kFileHeader.copy(file.data(), kFileHeader.size());
  for (const std::size_t slot : {0u, 1u}) {
    record.copy(file.data() + slot_offset(slot), record.size());
    file[slot_offset(slot) + kCheckpointSlotBytes - 1] = '\n';
  }
  const std::string tmp = path + ".tmp";
  const int fd =
      ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0666);
  if (fd < 0) {
    throw ConfigError("cannot write sweep checkpoint: " + tmp);
  }
  const bool written = ::write(fd, file.data(), file.size()) ==
                       static_cast<ssize_t>(file.size());
  if (::close(fd) != 0 || !written) {
    throw ConfigError("write failed for sweep checkpoint: " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    throw ConfigError("cannot move sweep checkpoint into place: " + path);
  }
}

}  // namespace

std::size_t save_sweep_checkpoint(const SweepCheckpoint& checkpoint,
                                  const std::string& path) {
  const std::string record = serialize_sweep_checkpoint(checkpoint);
  const std::size_t completed = checkpoint.completed_count();
  // A complete checkpoint is always written whole, both slots alike, so its
  // bytes do not depend on the saves before it.
  if (completed == checkpoint.shard_count() ||
      !write_older_slot(checkpoint, completed, record, path)) {
    replace_file(record, path);
  }
  return record.size();
}

SweepCheckpoint load_sweep_checkpoint(const std::string& path) {
  const CheckpointFile file(path, O_RDONLY);
  if (!file.read) {
    throw ConfigError("cannot read sweep checkpoint: " + path);
  }
  if (!file.bytes.starts_with(kFileHeader)) {
    refuse_version(file.bytes, path);
  }
  const Slot* newest = file.newest();
  if (newest == nullptr) {
    throw ConfigError("sweep checkpoint " + path +
                      " has no intact slot (slot 0: " + file.slots[0].damage +
                      "; slot 1: " + file.slots[1].damage + ")");
  }
  return parse_sweep_checkpoint(newest->record);
}

}  // namespace dsslice

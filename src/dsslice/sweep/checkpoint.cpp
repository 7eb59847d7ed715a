#include "dsslice/sweep/checkpoint.hpp"

#include <bit>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "dsslice/util/check.hpp"

namespace dsslice {

namespace {

constexpr int kFormatVersion = 1;

/// Sanity bound on shard counts. A count beyond this is a corrupted file,
/// not a real sweep; rejecting it up front avoids huge allocations.
constexpr std::uint64_t kMaxShardCount = 1'000'000;

/// Raw IEEE-754 bit pattern as 16 hex digits — exact round-trip by
/// construction (decimal formatting is not trusted for Welford state).
std::string hex64(double x) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(std::bit_cast<std::uint64_t>(x)));
  return buf;
}

/// Tokenized line reader with position tracking for error messages
/// (mirrors sim/serialization.cpp).
class LineReader {
 public:
  explicit LineReader(const std::string& text) : in_(text) {}

  std::vector<std::string> next() {
    std::string line;
    while (std::getline(in_, line)) {
      ++line_no_;
      const std::size_t hash = line.find('#');
      if (hash != std::string::npos) {
        line = line.substr(0, hash);
      }
      std::istringstream ls(line);
      std::vector<std::string> tokens;
      std::string tok;
      while (ls >> tok) {
        tokens.push_back(tok);
      }
      if (!tokens.empty()) {
        return tokens;
      }
    }
    fail("unexpected end of input");
  }

  [[noreturn]] void fail(const std::string& why) const {
    throw ConfigError("sweep checkpoint parse error at line " +
                      std::to_string(line_no_) + ": " + why);
  }

  void expect(const std::vector<std::string>& tokens,
              const std::string& keyword, std::size_t arity) const {
    if (tokens.empty() || tokens[0] != keyword ||
        tokens.size() != arity + 1) {
      fail("expected '" + keyword + "' with " + std::to_string(arity) +
           " argument(s)");
    }
  }

  std::uint64_t to_u64(const std::string& tok) const {
    if (tok.empty() || tok[0] == '-') {
      fail("not an unsigned integer: " + tok);
    }
    errno = 0;
    char* end = nullptr;
    const unsigned long long v = std::strtoull(tok.c_str(), &end, 10);
    if (end == nullptr || *end != '\0' || errno == ERANGE) {
      fail("not an unsigned integer: " + tok);
    }
    return static_cast<std::uint64_t>(v);
  }

  double to_hex_double(const std::string& tok) const {
    if (tok.size() != 16) {
      fail("not a 16-hex-digit bit pattern: " + tok);
    }
    errno = 0;
    char* end = nullptr;
    const unsigned long long v = std::strtoull(tok.c_str(), &end, 16);
    if (end == nullptr || *end != '\0' || errno == ERANGE) {
      fail("not a 16-hex-digit bit pattern: " + tok);
    }
    return std::bit_cast<double>(static_cast<std::uint64_t>(v));
  }

 private:
  std::istringstream in_;
  int line_no_ = 0;
};

void write_stat(std::ostringstream& os, const std::string& name,
                const RunningStats& stats) {
  const RunningStatsState s = stats.state();
  os << "stat " << name << ' ' << s.n << ' ' << hex64(s.mean) << ' '
     << hex64(s.m2) << ' ' << hex64(s.sum) << ' ' << hex64(s.min) << ' '
     << hex64(s.max) << '\n';
}

RunningStats read_stat(LineReader& reader, const std::string& name) {
  const std::vector<std::string> tokens = reader.next();
  if (tokens.size() != 8 || tokens[0] != "stat" || tokens[1] != name) {
    reader.fail("expected 'stat " + name + "' with 6 argument(s)");
  }
  RunningStatsState s;
  s.n = static_cast<std::size_t>(reader.to_u64(tokens[2]));
  s.mean = reader.to_hex_double(tokens[3]);
  s.m2 = reader.to_hex_double(tokens[4]);
  s.sum = reader.to_hex_double(tokens[5]);
  s.min = reader.to_hex_double(tokens[6]);
  s.max = reader.to_hex_double(tokens[7]);
  return RunningStats::from_state(s);
}

void write_aggregate(std::ostringstream& os, const SweepAggregate& a) {
  os << "success " << a.success.successes() << ' ' << a.success.trials()
     << '\n';
  write_stat(os, "min_laxity", a.min_laxity);
  write_stat(os, "max_lateness", a.max_lateness);
  write_stat(os, "makespan", a.makespan);
  write_stat(os, "slicing_passes", a.slicing_passes);
  write_stat(os, "task_count", a.task_count);
  os << "hist " << hex64(a.laxity.lo()) << ' ' << hex64(a.laxity.hi()) << ' '
     << a.laxity.underflow() << ' ' << a.laxity.overflow();
  for (std::size_t b = 0; b < LinearHistogram::kBinCount; ++b) {
    os << ' ' << a.laxity.bin(b);
  }
  os << '\n';
}

SweepAggregate read_aggregate(LineReader& reader) {
  SweepAggregate a;
  std::vector<std::string> tokens = reader.next();
  reader.expect(tokens, "success", 2);
  const std::uint64_t successes = reader.to_u64(tokens[1]);
  const std::uint64_t trials = reader.to_u64(tokens[2]);
  if (successes > trials) {
    reader.fail("success count exceeds trial count");
  }
  a.success.add_many(successes, trials);
  a.min_laxity = read_stat(reader, "min_laxity");
  a.max_lateness = read_stat(reader, "max_lateness");
  a.makespan = read_stat(reader, "makespan");
  a.slicing_passes = read_stat(reader, "slicing_passes");
  a.task_count = read_stat(reader, "task_count");
  tokens = reader.next();
  reader.expect(tokens, "hist", 4 + LinearHistogram::kBinCount);
  const double lo = reader.to_hex_double(tokens[1]);
  const double hi = reader.to_hex_double(tokens[2]);
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

/// FNV-1a 64-bit over a byte string.
std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
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
  std::ostringstream os;
  os << "dsslice-sweep-config-v1"
     << " m=" << p.processor_count << " classes=" << p.min_class_count << ','
     << p.max_class_count << " bus=" << hex64(p.bus_delay_per_item)
     << " dev=" << hex64(p.class_deviation)
     << " cmodel=" << static_cast<int>(p.class_model)
     << " tasks=" << w.min_tasks << ',' << w.max_tasks << " depth="
     << w.min_depth << ',' << w.max_depth << " degree=" << w.min_degree << ','
     << w.max_degree << " locality=" << static_cast<int>(w.edge_locality)
     << " cmean=" << hex64(w.mean_execution_time) << " etd=" << hex64(w.etd)
     << " inel=" << hex64(w.ineligible_probability)
     << " olr=" << hex64(w.olr) << " spread=" << hex64(w.olr_spread)
     << " ccr=" << hex64(w.ccr) << " opt=" << hex64(w.min_optional_fraction)
     << ',' << hex64(w.max_optional_fraction)
     << " intmsg=" << (w.integral_messages ? 1 : 0)
     << " seed=" << config.generator.base_seed
     << " technique=" << static_cast<int>(config.technique)
     << " kg=" << hex64(mp.k_global) << " kl=" << hex64(mp.k_local)
     << " tf=" << hex64(mp.threshold_factor) << " to="
     << (mp.threshold_override.has_value() ? hex64(*mp.threshold_override)
                                           : std::string("none"))
     << " kr=" << hex64(mp.k_resource)
     << " tps=" << (mp.temporal_parallel_sets ? 1 : 0)
     << " wcet=" << static_cast<int>(config.wcet_strategy)
     << " placement=" << static_cast<int>(config.scheduler.placement)
     << " abort=" << (config.scheduler.abort_on_miss ? 1 : 0)
     << " bus_contention="
     << (config.scheduler.simulate_bus_contention ? 1 : 0)
     << " algorithm=" << static_cast<int>(config.algorithm);
  return fnv1a(os.str());
}

std::string serialize_sweep_aggregate(const SweepAggregate& aggregate) {
  std::ostringstream os;
  write_aggregate(os, aggregate);
  return os.str();
}

std::string serialize_sweep_checkpoint(const SweepCheckpoint& checkpoint) {
  std::ostringstream os;
  os << "dsslice-sweep-checkpoint " << kFormatVersion << '\n';
  os << "fingerprint " << checkpoint.fingerprint << '\n';
  os << "scenarios " << checkpoint.scenario_count << '\n';
  os << "shard-size " << checkpoint.shard_size << '\n';
  os << "shard-count " << checkpoint.shard_count() << '\n';
  os << "completed " << checkpoint.completed_count() << '\n';
  for (std::size_t s = 0; s < checkpoint.shard_count(); ++s) {
    if (checkpoint.completed[s] == 0) {
      continue;
    }
    os << "shard " << s << '\n';
    write_aggregate(os, checkpoint.shards[s]);
  }
  os << "end\n";
  return os.str();
}

SweepCheckpoint parse_sweep_checkpoint(const std::string& text) {
  LineReader reader(text);
  std::vector<std::string> tokens = reader.next();
  reader.expect(tokens, "dsslice-sweep-checkpoint", 1);
  if (reader.to_u64(tokens[1]) != static_cast<std::uint64_t>(kFormatVersion)) {
    reader.fail("unsupported checkpoint format version " + tokens[1] +
                " (this build reads version " +
                std::to_string(kFormatVersion) + ")");
  }
  SweepCheckpoint cp;
  tokens = reader.next();
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
    reader.fail("shard count " + tokens[1] +
                " exceeds the sanity bound of " +
                std::to_string(kMaxShardCount));
  }
  const std::uint64_t expected_shards =
      ceil_div(cp.scenario_count, cp.shard_size);
  if (shard_count != expected_shards) {
    reader.fail("shard count " + tokens[1] + " does not match " +
                std::to_string(cp.scenario_count) + " scenarios in shards of " +
                std::to_string(cp.shard_size));
  }
  tokens = reader.next();
  reader.expect(tokens, "completed", 1);
  const std::uint64_t completed_count = reader.to_u64(tokens[1]);
  if (completed_count > shard_count) {
    reader.fail("completed count exceeds shard count");
  }
  cp.completed.assign(static_cast<std::size_t>(shard_count), 0);
  cp.shards.assign(static_cast<std::size_t>(shard_count), SweepAggregate{});
  for (std::uint64_t k = 0; k < completed_count; ++k) {
    tokens = reader.next();
    reader.expect(tokens, "shard", 1);
    const std::uint64_t index = reader.to_u64(tokens[1]);
    if (index >= shard_count) {
      reader.fail("shard index " + tokens[1] + " out of range");
    }
    if (cp.completed[static_cast<std::size_t>(index)] != 0) {
      reader.fail("duplicate shard " + tokens[1]);
    }
    cp.completed[static_cast<std::size_t>(index)] = 1;
    cp.shards[static_cast<std::size_t>(index)] = read_aggregate(reader);
  }
  tokens = reader.next();
  reader.expect(tokens, "end", 0);
  return cp;
}

std::size_t save_sweep_checkpoint(const SweepCheckpoint& checkpoint,
                                  const std::string& path) {
  const std::string tmp = path + ".tmp";
  const std::string text = serialize_sweep_checkpoint(checkpoint);
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      throw ConfigError("cannot write sweep checkpoint: " + tmp);
    }
    out << text;
    out.flush();
    if (!out) {
      throw ConfigError("write failed for sweep checkpoint: " + tmp);
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    throw ConfigError("cannot move sweep checkpoint into place: " + path);
  }
  return text.size();
}

SweepCheckpoint load_sweep_checkpoint(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw ConfigError("cannot read sweep checkpoint: " + path);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parse_sweep_checkpoint(buffer.str());
}

}  // namespace dsslice

// Checkpoint format for resumable sweeps.
//
// A checkpoint is the sweep's durable state at a wave boundary: the layout,
// how many shards have completed, and one SweepAggregate — the fold of the
// completed shards in shard-index order. run_sweep saves only after a whole
// wave, and a wave runs the lowest pending shards, so the completed shards
// always form a prefix [0, K). The sweep's result is that same index-order
// fold continued over shards K, K+1, ..., so a resumed sweep folds exactly
// the sequence an uninterrupted one does and its aggregate is bit-identical.
// A save therefore costs O(1) text however many shards have completed.
//
// The file is the repo's usual line-oriented text format, written and read
// by the shared codec in util/text_codec.hpp, with a version header
// ("dsslice-sweep-checkpoint 2"); files of any other version are refused.
// Doubles are stored as 16-hex-digit raw bit patterns, not decimals:
// Welford state must round-trip to the last bit or the resumed aggregate
// drifts from the uninterrupted one.
//
// Only the writer's canonical spellings are read back: integers as plain
// decimal digits (no sign, no leading zero) and doubles as exactly 16
// lowercase hex digits (no sign, no 0x prefix). Tokens may be separated by
// any blanks, lines may end in CRLF, and '#' starts a comment.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dsslice/sim/experiment.hpp"
#include "dsslice/sweep/aggregate.hpp"

namespace dsslice {

/// ceil(n / d) for d > 0 without the wrap of (n + d - 1) / d when d is near
/// 2^64: the shard count of `n` scenarios in shards of `d`.
constexpr std::uint64_t ceil_div(std::uint64_t n, std::uint64_t d) {
  return n / d + (n % d != 0 ? 1 : 0);
}

/// Durable sweep state: layout parameters, a completed-shard bitmap and one
/// aggregate slot per shard (default-empty for incomplete shards).
///
/// Invariant: the index-order fold of the completed slots is the sweep's
/// aggregate; a slot is not necessarily one shard's aggregate. A parsed
/// checkpoint holds the whole completed prefix's fold in slot 0 and leaves
/// every other slot empty.
struct SweepCheckpoint {
  /// Fingerprint of the ExperimentConfig the sweep ran under (see
  /// sweep_config_fingerprint). Resuming under a different configuration is
  /// rejected — the restored aggregates would silently mix distributions.
  std::uint64_t fingerprint = 0;
  std::uint64_t scenario_count = 0;
  std::uint64_t shard_size = 0;
  std::vector<std::uint8_t> completed;  ///< one flag per shard
  std::vector<SweepAggregate> shards;   ///< one aggregate slot per shard

  std::size_t shard_count() const { return completed.size(); }
  std::size_t completed_count() const;
};

/// FNV-1a fingerprint over a canonical rendering of every field that
/// affects sweep outcomes: generator (platform + workload + base seed),
/// technique, metric parameters, WCET strategy, scheduler options and
/// algorithm. graph_count is deliberately excluded — the sweep supplies its
/// own scenario count.
std::uint64_t sweep_config_fingerprint(const ExperimentConfig& config);

/// Canonical text form of one aggregate — exposed so tests and benches can
/// assert bit-identity of two aggregates without poking at Welford state.
std::string serialize_sweep_aggregate(const SweepAggregate& aggregate);

/// Writes the layout and the fold of the completed slots. Throws
/// ConfigError unless the completed shards are a prefix of the sweep.
std::string serialize_sweep_checkpoint(const SweepCheckpoint& checkpoint);
/// Throws ConfigError (with a line number) on version mismatch, truncation,
/// corruption, a non-canonical number, or a trial count that cannot be the
/// fold of the completed shards.
SweepCheckpoint parse_sweep_checkpoint(const std::string& text);

/// Atomic save: writes to `path + ".tmp"` then renames over `path`, so an
/// interrupt mid-write leaves the previous checkpoint intact. Returns the
/// serialized size in bytes (feeds the sweep.checkpoint.bytes counter).
std::size_t save_sweep_checkpoint(const SweepCheckpoint& checkpoint,
                                  const std::string& path);
/// Throws ConfigError when the file is missing or malformed.
SweepCheckpoint load_sweep_checkpoint(const std::string& path);

}  // namespace dsslice

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
// A record states that state once: the header line "slot <completed>
// <fingerprint> <scenarios> <shard-size> <body-bytes> <checksum>" and a
// body of the fold's lines, in the line-oriented text format of
// util/text_codec.hpp. The shard count is ceil(scenarios / shard-size).
// Doubles are 16-hex-digit raw bit patterns, not decimals: Welford state
// must round-trip to the last bit or the resumed aggregate drifts. Only
// the writer's spellings are read back: integers as plain decimal digits
// (no sign, no leading zero), doubles and the checksum as exactly 16
// lowercase hex digits. Tokens may be separated by any blanks, lines may
// end in CRLF, and '#' starts a comment. The checksum is FNV-1a over the
// header up to itself and the body's <body-bytes> bytes.
//
// The file holds two fixed slots, so that a routine save overwrites one in
// place instead of writing a new file and renaming it (which makes ext4
// flush the new file's blocks at once):
//
//   dsslice-sweep-checkpoint 4            the file's version line
//   slot 0, kCheckpointSlotBytes bytes    a record, padded with blanks
//   slot 1, kCheckpointSlotBytes bytes    a record, padded with blanks
//
// A slot whose checksum holds is intact; a load takes the intact slot with
// the larger completed count. Save and load read at most the version line
// and both slots. Files of any other version are refused by name.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "dsslice/sim/experiment.hpp"
#include "dsslice/sweep/aggregate.hpp"

namespace dsslice {

/// Size of each of the two slots of a checkpoint file. A record runs to at
/// most about 2.3 KB.
inline constexpr std::size_t kCheckpointSlotBytes = 4096;

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
/// algorithm. graph_count (the sweep supplies its own scenario count) and
/// the display label are deliberately excluded.
std::uint64_t sweep_config_fingerprint(const ExperimentConfig& config);

/// Canonical text form of one aggregate — exposed so tests and benches can
/// assert bit-identity of two aggregates without poking at Welford state.
std::string serialize_sweep_aggregate(const SweepAggregate& aggregate);

/// The record: the layout and the fold of the completed slots. Throws
/// ConfigError unless the completed shards are a prefix of the sweep and
/// their count is the one the layout derives.
std::string serialize_sweep_checkpoint(const SweepCheckpoint& checkpoint);
/// Parses one record. Throws ConfigError (with a line number) on
/// truncation, corruption, a non-canonical number, a layout of no shard
/// size or more than a million shards, or a trial count that cannot be the
/// fold of the completed shards. The checksum is checked by the load, not
/// here, so a record edited by hand still parses.
SweepCheckpoint parse_sweep_checkpoint(std::string_view text);

/// Saves the checkpoint to `path` so that an interrupt at any point leaves
/// either the previous state or the new one loadable. When the file's
/// newest intact slot is an earlier save of the same sweep (same
/// fingerprint and layout, no more shards completed), the new record
/// overwrites the other slot in place; the newest slot is not touched, so a
/// write cut short tears only the slot being written. Otherwise — no file,
/// another sweep's, another version, a further-along state or both slots
/// torn — and whenever the checkpoint is complete, the whole file is written
/// to `path + ".tmp"` with the record in both slots and renamed over
/// `path`. Neither way syncs to disk. Returns the size of the record in
/// bytes (feeds the sweep.checkpoint.bytes counter).
std::size_t save_sweep_checkpoint(const SweepCheckpoint& checkpoint,
                                  const std::string& path);
/// Loads the intact slot with the larger completed count, reading no more
/// than the version line and two slots. Throws ConfigError when the file is
/// missing, unreadable, of another version or malformed, or has no intact
/// slot.
SweepCheckpoint load_sweep_checkpoint(const std::string& path);

}  // namespace dsslice

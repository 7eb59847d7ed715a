// Scenario serialization: a stable, human-readable text format for one
// {platform, application} pair, so that interesting task sets (e.g. the one
// graph a metric fails on) can be dumped, attached to a bug report, and
// reloaded bit-exactly.
//
// Format (line-oriented, '#' comments allowed):
//
//   dsslice-scenario 1
//   classes <k>
//   class <name> <speed_factor>            (k times)
//   processors <m>
//   proc <name> <class_index>              (m times)
//   bus <per_item_delay>
//   tasks <n>
//   task <name> <phasing> <period> <wcet...> [<optional_fraction>]
//                                          ('-' = ineligible; the trailing
//                                          mandatory/optional split in [0, 1]
//                                          is emitted only when non-zero)
//   arcs <a>
//   arc <from> <to> <message_items>        (a times)
//   arrival <node> <time>                  (per input task)
//   deadline <node> <time>                 (per output task with one)
//   end
//
// A `proc` line may carry an optional availability window
// (`proc <name> <class_index> <from> <until>`); it is emitted only when the
// processor is not always-on.
//
// Only shared-bus platforms are supported (the only kind the generator
// produces); serializing another interconnect throws.
//
// Fault specifications (robust/fault_model.hpp) use a sibling format:
//
//   dsslice-faults 1
//   seed <u64>
//   overrun <scope> <factor> <addend> <probability> <hotspot_fraction>
//   failures <k>
//   failure <processor> <time>             (k times)
//   random-failure <probability> <from> <until>
//   spike <probability> <factor>
//   end
//
// A realized FaultTrace (one concrete run's injected conditions plus
// bookkeeping) has its own sibling format, so an interesting realization —
// e.g. the exact overrun pattern that broke a policy — can be attached to a
// bug report independently of the spec that produced it:
//
//   dsslice-fault-trace 1
//   wcet-factor <k> <v...>                 (k = 0 or task count)
//   wcet-addend <k> <v...>
//   arc-delay-factor <k> <v...>
//   processor-down <k> <t...>              ('inf' = never halts)
//   overrun-tasks <k> <id...>
//   failures <k>
//   failure <processor> <time>             (k times)
//   spiked-arcs <k> <id...>
//   end
//
// All three formats are written and read by the line codec in
// util/text_codec.hpp, and only the writer's canonical spellings are read
// back: integers (counts, ids, the version, the seed) as plain decimal
// digits (no sign, no leading zero, no 0x, no exponent or fraction) and
// doubles in the std::from_chars general grammar, filling the whole token
// (an optional '-', decimal digits with an optional '.' and exponent, or
// inf / nan; no '+', no hex). The writer spells doubles as %.17g, so every
// value round-trips bit-exactly. Tokens may be separated by any blanks,
// lines may end in CRLF, and '#' starts a comment.
//
// All parsers reject NaN / infinite durations (except the explicitly
// infinite halt instants above), negative times, and counts and ids beyond
// a sanity bound of 1'000'000 with a ConfigError naming the offending line.
#pragma once

#include <string>

#include "dsslice/gen/taskgraph_generator.hpp"
#include "dsslice/robust/fault_model.hpp"

namespace dsslice {

/// Serializes a scenario in the format above.
std::string serialize_scenario(const Scenario& scenario);

/// Parses a scenario; throws ConfigError with a line number on malformed
/// input.
Scenario parse_scenario(const std::string& text);

/// File helpers (throw ConfigError on I/O failure).
void save_scenario(const Scenario& scenario, const std::string& path);
Scenario load_scenario(const std::string& path);

/// Serializes a fault specification in the format above.
std::string serialize_fault_spec(const FaultSpec& spec);

/// Parses and validates a fault specification; throws ConfigError with a
/// line number on malformed input.
FaultSpec parse_fault_spec(const std::string& text);

/// Serializes a realized fault trace in the format above.
std::string serialize_fault_trace(const FaultTrace& trace);

/// Parses a fault trace; throws ConfigError with a line number on malformed
/// input (negative factors, NaN, inconsistent vector sizes).
FaultTrace parse_fault_trace(const std::string& text);

}  // namespace dsslice

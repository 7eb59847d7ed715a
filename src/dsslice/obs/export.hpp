// Exporters for observability snapshots:
//  * Chrome trace_event JSON — load the file in Perfetto (ui.perfetto.dev)
//    or chrome://tracing for a per-thread timeline;
//  * JSONL metric dumps — one self-describing JSON object per line, easy to
//    grep / jq / pandas;
//  * plain-text summary — aligned table for terminal output.
// Formats are documented in docs/OBSERVABILITY.md.
#pragma once

#include <string>

#include "dsslice/obs/registry.hpp"
#include "dsslice/report/table.hpp"
#include "dsslice/util/string_util.hpp"

namespace dsslice::obs {

/// Serializes a trace snapshot as Chrome trace_event JSON ("X" complete
/// events, timestamps in microseconds, one row per recorder thread).
std::string to_chrome_trace_json(const TraceSnapshot& trace);

/// Appends one span as a Chrome trace "X" event object, without separator:
/// ts and dur in µs with exactly three decimals, formatted from the integer
/// nanoseconds. to_chrome_trace_json and the streaming sink's chunk writer
/// (obs/stream.cpp) both serialize spans through it.
void append_chrome_trace_event(std::string& out, const TraceSpan& span);

/// Serializes a metrics snapshot as JSONL: one `{"type":"span"|"counter"|
/// "gauge"|"meta",...}` object per line, sorted by name within type.
std::string to_metrics_jsonl(const MetricsSnapshot& metrics);

/// Span statistics as an aligned table (count, total ms, share of summed
/// span time, mean/p50/p95/p99/max in µs), sorted by total time descending.
Table span_summary_table(const MetricsSnapshot& metrics);

/// Counter and gauge values as an aligned table, sorted by name.
Table counter_summary_table(const MetricsSnapshot& metrics);

/// Complete human-readable summary (both tables plus drop/thread footer).
std::string to_summary_text(const MetricsSnapshot& metrics);

/// Exact serialization for reconcilable metric values: integral values as
/// plain integers, everything else with 17 significant digits so parsing
/// the text yields the identical double. Both the snapshot export and the
/// streaming sink (obs/stream.cpp) write values through it, which is what
/// lets tools/obs_tail --against compare stream and snapshot bit-for-bit.
std::string format_metric_value(double value);

/// JSON string escaping, shared with the schedule export; defined in
/// util/string_util.hpp.
using dsslice::json_escape;

}  // namespace dsslice::obs

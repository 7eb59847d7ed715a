#include "dsslice/obs/export.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <utility>
#include <vector>

namespace dsslice::obs {

namespace {

std::string format_double(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  return buf;
}

double ns_to_us(std::uint64_t ns) { return static_cast<double>(ns) / 1000.0; }

/// Span names are compile-time literals; virtually none need JSON
/// escaping, and the per-span json_escape allocation is measurable at full
/// ring throughput on small machines.
bool needs_json_escape(const char* text) {
  for (const char* p = text; *p != '\0'; ++p) {
    if (*p == '"' || *p == '\\' || static_cast<unsigned char>(*p) < 0x20) {
      return true;
    }
  }
  return false;
}

void append_u64(std::string& out, std::uint64_t value) {
  char buf[24];
  char* p = buf + sizeof(buf);
  do {
    *--p = static_cast<char>('0' + value % 10);
    value /= 10;
  } while (value != 0);
  out.append(p, static_cast<std::size_t>(buf + sizeof(buf) - p));
}

/// Appends `ns` as microseconds with exactly three decimals ("1234.567"),
/// the Chrome-trace ts/dur convention, without printf's double path — the
/// streaming chunk writer serializes every recorded span, so this is the
/// hottest formatting call in its sink (see the perf_obs streaming-tax
/// gate).
void append_ns_as_us(std::string& out, std::uint64_t ns) {
  append_u64(out, ns / 1000);
  std::uint64_t frac = ns % 1000;
  char buf[4] = {'.', static_cast<char>('0' + frac / 100),
                 static_cast<char>('0' + (frac / 10) % 10),
                 static_cast<char>('0' + frac % 10)};
  out.append(buf, 4);
}

double ns_to_ms(std::uint64_t ns) {
  return static_cast<double>(ns) / 1e6;
}

}  // namespace

std::string format_metric_value(double value) {
  char buf[64];
  const double truncated = static_cast<double>(static_cast<long long>(value));
  if (value == truncated && value > -9.007199254740992e15 &&
      value < 9.007199254740992e15) {
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(value));
  } else {
    std::snprintf(buf, sizeof(buf), "%.17g", value);
  }
  return buf;
}

void append_chrome_trace_event(std::string& out, const TraceSpan& span) {
  const std::uint64_t dur_ns =
      span.end_ns >= span.start_ns ? span.end_ns - span.start_ns : 0;
  const char* name = span.name != nullptr ? span.name : "?";
  out += "{\"name\":\"";
  if (needs_json_escape(name)) {
    out += json_escape(name);
  } else {
    out += name;
  }
  out += "\",\"cat\":\"dsslice\",\"ph\":\"X\",\"pid\":1,\"tid\":";
  append_u64(out, span.tid);
  out += ",\"ts\":";
  append_ns_as_us(out, span.start_ns);
  out += ",\"dur\":";
  append_ns_as_us(out, dur_ns);
  out += ",\"args\":{\"depth\":";
  append_u64(out, span.depth);
  out += "}}";
}

std::string to_chrome_trace_json(const TraceSnapshot& trace) {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  for (std::size_t k = 0; k < trace.spans.size(); ++k) {
    if (k > 0) {
      out += ',';
    }
    append_chrome_trace_event(out, trace.spans[k]);
  }
  out += "],\"otherData\":{\"tool\":\"dsslice\",\"droppedSpans\":";
  append_u64(out, trace.dropped);
  out += "}}\n";
  return out;
}

std::string to_metrics_jsonl(const MetricsSnapshot& metrics) {
  std::ostringstream out;
  for (const auto& [name, s] : metrics.spans) {
    out << "{\"type\":\"span\",\"name\":\"" << json_escape(name)
        << "\",\"count\":" << s.count << ",\"total_ns\":" << s.total_ns
        << ",\"min_ns\":" << (s.count > 0 ? s.min_ns : 0)
        << ",\"max_ns\":" << s.max_ns
        << ",\"mean_ns\":" << format_double(s.mean_ns())
        << ",\"p50_ns\":" << format_double(s.percentile_ns(50.0))
        << ",\"p95_ns\":" << format_double(s.percentile_ns(95.0))
        << ",\"p99_ns\":" << format_double(s.percentile_ns(99.0)) << "}\n";
  }
  for (const auto& [name, c] : metrics.counters) {
    out << "{\"type\":\"counter\",\"name\":\"" << json_escape(name)
        << "\",\"count\":" << c.count
        << ",\"total\":" << format_metric_value(c.total) << "}\n";
  }
  for (const auto& [name, g] : metrics.gauges) {
    out << "{\"type\":\"gauge\",\"name\":\"" << json_escape(name)
        << "\",\"count\":" << g.count
        << ",\"last\":" << format_metric_value(g.last)
        << ",\"min\":" << format_metric_value(g.min)
        << ",\"max\":" << format_metric_value(g.max) << "}\n";
  }
  out << "{\"type\":\"meta\",\"thread_count\":" << metrics.thread_count
      << ",\"dropped_ring_events\":" << metrics.dropped_ring_events
      << ",\"dropped_accum_events\":" << metrics.dropped_accum_events
      << "}\n";
  return out.str();
}

Table span_summary_table(const MetricsSnapshot& metrics) {
  // Share is relative to the summed time of depth-agnostic span totals;
  // nested spans overlap their parents, so shares can exceed 100% in sum.
  std::uint64_t grand_total_ns = 0;
  for (const auto& [name, s] : metrics.spans) {
    grand_total_ns += s.total_ns;
  }
  std::vector<std::pair<std::string, const SpanStats*>> rows;
  rows.reserve(metrics.spans.size());
  for (const auto& [name, s] : metrics.spans) {
    rows.emplace_back(name, &s);
  }
  std::stable_sort(rows.begin(), rows.end(),
                   [](const auto& a, const auto& b) {
                     return a.second->total_ns > b.second->total_ns;
                   });

  Table table({"span", "count", "total_ms", "share", "mean_us", "p50_us",
               "p95_us", "p99_us", "max_us"});
  for (const auto& [name, s] : rows) {
    const double share =
        grand_total_ns == 0
            ? 0.0
            : 100.0 * static_cast<double>(s->total_ns) /
                  static_cast<double>(grand_total_ns);
    table.add_row({name, std::to_string(s->count),
                   format_fixed(ns_to_ms(s->total_ns), 3),
                   format_fixed(share, 1) + "%",
                   format_fixed(s->mean_ns() / 1000.0, 1),
                   format_fixed(s->percentile_ns(50.0) / 1000.0, 1),
                   format_fixed(s->percentile_ns(95.0) / 1000.0, 1),
                   format_fixed(s->percentile_ns(99.0) / 1000.0, 1),
                   format_fixed(ns_to_us(s->max_ns), 1)});
  }
  return table;
}

Table counter_summary_table(const MetricsSnapshot& metrics) {
  Table table({"metric", "kind", "count", "value"});
  for (const auto& [name, c] : metrics.counters) {
    table.add_row(
        {name, "counter", std::to_string(c.count), format_double(c.total)});
  }
  for (const auto& [name, g] : metrics.gauges) {
    table.add_row({name, "gauge", std::to_string(g.count),
                   format_double(g.last) + " [" + format_double(g.min) + ", " +
                       format_double(g.max) + "]"});
  }
  return table;
}

std::string to_summary_text(const MetricsSnapshot& metrics) {
  std::ostringstream out;
  if (metrics.empty()) {
    out << "observability: no events recorded (is tracing enabled?)\n";
    return out.str();
  }
  if (!metrics.spans.empty()) {
    out << "spans:\n" << span_summary_table(metrics).to_string(2);
  }
  if (!metrics.counters.empty() || !metrics.gauges.empty()) {
    out << "counters & gauges:\n" << counter_summary_table(metrics).to_string(2);
  }
  out << "threads=" << metrics.thread_count
      << " dropped_ring_events=" << metrics.dropped_ring_events
      << " dropped_accum_events=" << metrics.dropped_accum_events << "\n";
  return out.str();
}

}  // namespace dsslice::obs

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

std::string to_chrome_trace_json(const TraceSnapshot& trace) {
  std::ostringstream out;
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const TraceSpan& span : trace.spans) {
    if (!first) {
      out << ",";
    }
    first = false;
    const double ts_us = ns_to_us(span.start_ns);
    const double dur_us =
        span.end_ns >= span.start_ns ? ns_to_us(span.end_ns - span.start_ns)
                                     : 0.0;
    out << "{\"name\":\""
        << json_escape(span.name != nullptr ? span.name : "?")
        << "\",\"cat\":\"dsslice\",\"ph\":\"X\",\"pid\":1,\"tid\":"
        << span.tid << ",\"ts\":" << format_fixed(ts_us, 3)
        << ",\"dur\":" << format_fixed(dur_us, 3)
        << ",\"args\":{\"depth\":" << span.depth << "}}";
  }
  out << "],\"otherData\":{\"tool\":\"dsslice\",\"droppedSpans\":"
      << trace.dropped << "}}\n";
  return out.str();
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

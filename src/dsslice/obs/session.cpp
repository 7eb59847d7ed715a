#include "dsslice/obs/session.hpp"

#include <cstdio>

#include "dsslice/obs/export.hpp"
#include "dsslice/obs/registry.hpp"
#include "dsslice/obs/trace.hpp"
#include "dsslice/report/csv.hpp"

namespace dsslice::obs {

void ObsCli::register_flags(CliParser& cli) {
  cli.add_flag("trace", "",
               "write a Chrome trace_event JSON (Perfetto-loadable) here");
  cli.add_flag("metrics", "", "write JSONL metric aggregates here");
  cli.add_bool_flag("obs-summary", "print a span/counter summary table");
  cli.add_flag("trace-capacity", "8192",
               "span ring capacity per thread (older spans drop first)");
  cli.add_flag("trace-stream", "",
               "append Chrome-trace chunks here while running "
               "(Perfetto-loadable mid-run)");
  cli.add_flag("metrics-stream", "",
               "append JSONL metric deltas here while running");
  cli.add_flag("status-file", "",
               "atomically rewrite a one-object JSON heartbeat here every "
               "stream interval");
  cli.add_flag("stream-interval-ms", "500",
               "streaming flush period in milliseconds");
  cli.add_bool_flag("live",
                    "render a one-line heartbeat to stderr every stream "
                    "interval");
}

ObsCli::ObsCli(const CliParser& cli)
    : trace_path_(cli.get_string("trace")),
      metrics_path_(cli.get_string("metrics")),
      summary_(cli.get_bool("obs-summary")) {
  StreamOptions stream;
  stream.trace_chunk_path = cli.get_string("trace-stream");
  stream.metrics_delta_path = cli.get_string("metrics-stream");
  stream.status_path = cli.get_string("status-file");
  stream.interval_ms =
      static_cast<std::uint32_t>(cli.get_int("stream-interval-ms"));
  stream.heartbeat_stderr = cli.get_bool("live");
  const bool streaming_requested = !stream.trace_chunk_path.empty() ||
                                   !stream.metrics_delta_path.empty() ||
                                   !stream.status_path.empty() ||
                                   stream.heartbeat_stderr;

  active_ = !trace_path_.empty() || !metrics_path_.empty() || summary_ ||
            streaming_requested;
  if (active_) {
    set_ring_capacity(cli.get_count("trace-capacity"));
    reset();
    set_enabled(true);
#if !DSSLICE_OBS_ENABLED
    std::fprintf(stderr,
                 "warning: observability output requested but the build "
                 "compiled it out (DSSLICE_OBS=OFF)\n");
#endif
  }
  if (streaming_requested) {
    sink_ = std::make_unique<StreamSink>(stream);
    sink_->start();
  }
}

ObsCli::~ObsCli() {
  if (sink_ != nullptr) {
    sink_->stop();
  }
}

bool ObsCli::finish() {
  if (!active_ || finished_) {
    return true;
  }
  finished_ = true;
  set_enabled(false);
  if (sink_ != nullptr) {
    // Recording is off, so this final drain is quiescent: the stream's
    // last cumulative values equal the snapshots exported below.
    sink_->stop();
    const StreamStats stats = sink_->stats();
    std::printf("stream: %llu spans (%llu dropped), %llu metric deltas, "
                "%llu ticks\n",
                static_cast<unsigned long long>(stats.spans_streamed),
                static_cast<unsigned long long>(stats.spans_dropped),
                static_cast<unsigned long long>(stats.delta_records),
                static_cast<unsigned long long>(stats.ticks));
  }
  bool ok = true;
  if (!trace_path_.empty()) {
    const TraceSnapshot trace = trace_snapshot();
    if (write_text_file(trace_path_, to_chrome_trace_json(trace))) {
      std::printf("trace written to %s (%zu spans", trace_path_.c_str(),
                  trace.spans.size());
      if (trace.dropped > 0) {
        std::printf(", %llu dropped by ring wraparound",
                    static_cast<unsigned long long>(trace.dropped));
      }
      std::printf(")\n");
    } else {
      std::fprintf(stderr, "warning: could not write %s\n",
                   trace_path_.c_str());
      ok = false;
    }
  }
  const MetricsSnapshot metrics = metrics_snapshot();
  if (!metrics_path_.empty()) {
    if (write_text_file(metrics_path_, to_metrics_jsonl(metrics))) {
      std::printf("metrics written to %s\n", metrics_path_.c_str());
    } else {
      std::fprintf(stderr, "warning: could not write %s\n",
                   metrics_path_.c_str());
      ok = false;
    }
  }
  if (summary_) {
    std::fputs(to_summary_text(metrics).c_str(), stdout);
  }
  return ok;
}

}  // namespace dsslice::obs

#include "dsslice/sim/serialization.hpp"

#include <cmath>
#include <cstdint>
#include <fstream>

#include "dsslice/util/check.hpp"
#include "dsslice/util/text_codec.hpp"

namespace dsslice {

namespace {

constexpr int kFormatVersion = 1;

/// Sanity bound on entity counts and ids (classes, processors, tasks,
/// arcs). A count beyond this is a corrupted or hostile file, not a real
/// scenario; rejecting it up front avoids multi-gigabyte allocations.
constexpr std::uint64_t kMaxEntityCount = 1'000'000;

/// Reads the `<magic> <version>` header line.
void read_header(LineReader& reader, std::string_view magic) {
  const Tokens header = reader.next();
  reader.expect(header, magic, 1);
  if (reader.to_u64(header[1]) != static_cast<std::uint64_t>(kFormatVersion)) {
    reader.fail("unsupported format version " + std::string(header[1]));
  }
}

/// A finite number — rejects NaN and ±inf (corrupted durations/values).
double to_finite(const LineReader& reader, std::string_view tok,
                 const std::string& what) {
  const double v = reader.to_double(tok);
  if (!std::isfinite(v)) {
    reader.fail(what + " must be finite, got: " + std::string(tok));
  }
  return v;
}

/// A finite, non-negative duration/time/size-like value.
double to_nonneg(const LineReader& reader, std::string_view tok,
                 const std::string& what) {
  const double v = to_finite(reader, tok, what);
  if (v < 0.0) {
    reader.fail(what + " must be non-negative, got: " + std::string(tok));
  }
  return v;
}

/// A time value where infinity is meaningful ("never"); rejects NaN and
/// negative values.
double to_time(const LineReader& reader, std::string_view tok,
               const std::string& what) {
  const double v = reader.to_double(tok);
  if (std::isnan(v) || v < 0.0) {
    reader.fail(what + " must be a non-negative time, got: " +
                std::string(tok));
  }
  return v;
}

/// An entity count or id, bounded by kMaxEntityCount.
std::size_t to_count(const LineReader& reader, std::string_view tok,
                     const std::string& what) {
  const std::uint64_t v = reader.to_u64(tok);
  if (v > kMaxEntityCount) {
    reader.fail(what + " " + std::string(tok) +
                " exceeds the sanity bound of " +
                std::to_string(kMaxEntityCount));
  }
  return static_cast<std::size_t>(v);
}

/// Reads a `<keyword> <count> <values...>` line whose count matches the
/// values it carries into `out`, one `convert` per value.
template <typename T, typename Convert>
void read_list(LineReader& reader, const std::string& keyword,
               const std::string& what, std::vector<T>& out,
               Convert convert) {
  const Tokens line = reader.next();
  if (line.size() < 2 || line[0] != keyword) {
    reader.fail("expected '" + keyword + " <count> <values...>'");
  }
  const std::size_t count = to_count(reader, line[1], keyword + " count");
  if (line.size() != 2 + count) {
    reader.fail(keyword + " declares " + std::string(line[1]) +
                " value(s) but carries " + std::to_string(line.size() - 2));
  }
  out.reserve(count);
  for (const std::string_view tok : line.subspan(2)) {
    out.push_back(static_cast<T>(convert(reader, tok, what)));
  }
}

void write_failures(TextWriter& w, const std::vector<ProcessorFailure>& all) {
  w << "failures " << all.size() << '\n';
  for (const ProcessorFailure& f : all) {
    w << "failure " << f.processor << ' ' << f.at << '\n';
  }
}

std::vector<ProcessorFailure> read_failures(LineReader& reader) {
  Tokens line = reader.next();
  reader.expect(line, "failures", 1);
  const std::size_t count = to_count(reader, line[1], "failure count");
  std::vector<ProcessorFailure> failures;
  for (std::size_t k = 0; k < count; ++k) {
    line = reader.next();
    reader.expect(line, "failure", 2);
    failures.push_back(ProcessorFailure{
        static_cast<ProcessorId>(to_count(reader, line[1], "processor id")),
        to_nonneg(reader, line[2], "failure time")});
  }
  return failures;
}

/// Emits `<keyword> <k> <v...>` for one vector of the trace.
template <typename T>
void write_list(TextWriter& w, std::string_view keyword,
                const std::vector<T>& values) {
  w << keyword << ' ' << values.size();
  for (const T v : values) {
    w << ' ' << v;
  }
  w << '\n';
}

}  // namespace

std::string serialize_scenario(const Scenario& scenario) {
  const Platform& platform = scenario.platform;
  const Application& app = scenario.application;
  const auto* bus = dynamic_cast<const SharedBus*>(&platform.network());
  DSSLICE_REQUIRE(bus != nullptr,
                  "only shared-bus platforms can be serialized");

  std::string text;
  TextWriter w(text);
  w << "dsslice-scenario " << kFormatVersion << '\n';
  w << "classes " << platform.class_count() << '\n';
  for (const ProcessorClass& e : platform.classes()) {
    w << "class " << e.name << ' ' << e.speed_factor << '\n';
  }
  w << "processors " << platform.processor_count() << '\n';
  for (const Processor& p : platform.processors()) {
    w << "proc " << p.name << ' ' << p.klass;
    if (p.available_from != kTimeZero || p.available_until != kTimeInfinity) {
      w << ' ' << p.available_from << ' ' << p.available_until;
    }
    w << '\n';
  }
  w << "bus " << bus->per_item_delay() << '\n';
  w << "tasks " << app.task_count() << '\n';
  for (NodeId v = 0; v < app.task_count(); ++v) {
    const Task& t = app.task(v);
    w << "task " << t.name << ' ' << t.phasing << ' ' << t.period;
    for (const double c : t.wcet_by_class) {
      if (c < 0.0) {
        w << " -";
      } else {
        w << ' ' << c;
      }
    }
    // The mandatory/optional split travels as an optional trailing token so
    // precise scenarios serialize byte-identically to the pre-split format.
    if (t.has_optional_part()) {
      w << ' ' << t.optional_fraction;
    }
    w << '\n';
  }
  w << "arcs " << app.graph().arc_count() << '\n';
  for (const Arc& a : app.graph().arcs()) {
    w << "arc " << a.from << ' ' << a.to << ' ' << a.message_items << '\n';
  }
  for (const NodeId in : app.graph().input_nodes()) {
    w << "arrival " << in << ' ' << app.input_arrival(in) << '\n';
  }
  for (const NodeId out : app.graph().output_nodes()) {
    if (app.has_ete_deadline(out)) {
      w << "deadline " << out << ' ' << app.ete_deadline(out) << '\n';
    }
  }
  w << "end\n";
  return text;
}

Scenario parse_scenario(const std::string& text) {
  LineReader reader(text, "scenario");
  read_header(reader, "dsslice-scenario");

  Tokens line = reader.next();
  reader.expect(line, "classes", 1);
  const std::size_t class_count = to_count(reader, line[1], "class count");
  std::vector<ProcessorClass> classes;
  for (std::size_t k = 0; k < class_count; ++k) {
    line = reader.next();
    reader.expect(line, "class", 2);
    const double speed = to_finite(reader, line[2], "speed_factor");
    if (speed <= 0.0) {
      reader.fail("speed_factor must be positive, got: " +
                  std::string(line[2]));
    }
    classes.push_back(ProcessorClass{std::string(line[1]), speed});
  }

  line = reader.next();
  reader.expect(line, "processors", 1);
  const std::size_t proc_count = to_count(reader, line[1], "processor count");
  std::vector<Processor> procs;
  for (std::size_t q = 0; q < proc_count; ++q) {
    line = reader.next();
    if (line[0] != "proc" || (line.size() != 3 && line.size() != 5)) {
      reader.fail("expected 'proc <name> <class_index> [<from> <until>]'");
    }
    const std::size_t klass = to_count(reader, line[2], "class index");
    if (klass >= class_count) {
      reader.fail("processor class index out of range");
    }
    Processor p{std::string(line[1]), static_cast<ProcessorClassId>(klass)};
    if (line.size() == 5) {
      p.available_from = to_nonneg(reader, line[3], "availability start");
      p.available_until = to_time(reader, line[4], "availability end");
      if (p.available_until < p.available_from) {
        reader.fail("availability window ends before it starts");
      }
    }
    procs.push_back(std::move(p));
  }

  line = reader.next();
  reader.expect(line, "bus", 1);
  const double bus_delay = to_nonneg(reader, line[1], "bus per-item delay");
  Platform platform(std::move(classes), std::move(procs),
                    std::make_shared<SharedBus>(bus_delay));

  line = reader.next();
  reader.expect(line, "tasks", 1);
  const std::size_t task_count = to_count(reader, line[1], "task count");
  std::vector<Task> tasks;
  for (std::size_t i = 0; i < task_count; ++i) {
    line = reader.next();
    if ((line.size() != 4 + class_count && line.size() != 5 + class_count) ||
        line[0] != "task") {
      reader.fail("expected 'task <name> <phasing> <period> <" +
                  std::to_string(class_count) +
                  " wcets> [<optional_fraction>]'");
    }
    Task t;
    t.name = std::string(line[1]);
    t.phasing = to_nonneg(reader, line[2], "phasing");
    t.period = to_nonneg(reader, line[3], "period");
    for (std::size_t e = 0; e < class_count; ++e) {
      const std::string_view tok = line[4 + e];
      t.wcet_by_class.push_back(tok == "-" ? kIneligibleWcet
                                           : to_nonneg(reader, tok, "wcet"));
    }
    if (line.size() == 5 + class_count) {
      const double f =
          to_finite(reader, line[4 + class_count], "optional_fraction");
      if (!valid_optional_fraction(f)) {
        reader.fail(
            "optional_fraction must be within [0, 1] — the optional part "
            "cannot be negative, NaN, or exceed the WCET, got: " +
            std::string(line[4 + class_count]));
      }
      t.optional_fraction = f;
    }
    tasks.push_back(std::move(t));
  }

  line = reader.next();
  reader.expect(line, "arcs", 1);
  const std::size_t arc_count = to_count(reader, line[1], "arc count");
  std::vector<Arc> arcs;
  for (std::size_t a = 0; a < arc_count; ++a) {
    line = reader.next();
    reader.expect(line, "arc", 3);
    const std::size_t from = to_count(reader, line[1], "arc endpoint");
    const std::size_t to = to_count(reader, line[2], "arc endpoint");
    if (from >= task_count || to >= task_count) {
      reader.fail("arc endpoint out of range");
    }
    arcs.push_back(Arc{static_cast<NodeId>(from), static_cast<NodeId>(to),
                       to_nonneg(reader, line[3], "message_items")});
  }
  TaskGraph graph(task_count, std::move(arcs));

  Application app(std::move(graph), std::move(tasks));
  for (;;) {
    line = reader.next();
    if (line.size() == 1 && line[0] == "end") {
      break;
    }
    if (line.size() == 3 && line[0] == "arrival") {
      const std::size_t node = to_count(reader, line[1], "arrival node");
      if (node >= task_count) {
        reader.fail("arrival node out of range");
      }
      app.set_input_arrival(static_cast<NodeId>(node),
                            to_nonneg(reader, line[2], "arrival"));
    } else if (line.size() == 3 && line[0] == "deadline") {
      const std::size_t node = to_count(reader, line[1], "deadline node");
      if (node >= task_count) {
        reader.fail("deadline node out of range");
      }
      app.set_ete_deadline(static_cast<NodeId>(node),
                           to_nonneg(reader, line[2], "deadline"));
    } else {
      reader.fail("expected 'arrival', 'deadline' or 'end'");
    }
  }
  return Scenario{std::move(platform), std::move(app)};
}

void save_scenario(const Scenario& scenario, const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  DSSLICE_REQUIRE(static_cast<bool>(out), "cannot open " + path);
  out << serialize_scenario(scenario);
  DSSLICE_REQUIRE(static_cast<bool>(out), "failed to write " + path);
}

Scenario load_scenario(const std::string& path) {
  return parse_scenario(read_text_file(path, "scenario"));
}

std::string serialize_fault_spec(const FaultSpec& spec) {
  spec.validate();
  std::string text;
  TextWriter w(text);
  w << "dsslice-faults " << kFormatVersion << '\n';
  w << "seed " << spec.seed << '\n';
  w << "overrun " << to_string(spec.scope) << ' ' << spec.overrun_factor
    << ' ' << spec.overrun_addend << ' ' << spec.overrun_probability << ' '
    << spec.hotspot_fraction << '\n';
  write_failures(w, spec.failures);
  w << "random-failure " << spec.random_failure_probability << ' '
    << spec.random_failure_window.arrival << ' '
    << spec.random_failure_window.deadline << '\n';
  w << "spike " << spec.spike_probability << ' ' << spec.spike_factor << '\n';
  w << "end\n";
  return text;
}

FaultSpec parse_fault_spec(const std::string& text) {
  LineReader reader(text, "fault-spec");
  read_header(reader, "dsslice-faults");

  FaultSpec spec;

  Tokens line = reader.next();
  reader.expect(line, "seed", 1);
  spec.seed = reader.to_u64(line[1]);

  line = reader.next();
  reader.expect(line, "overrun", 5);
  if (line[1] == "uniform") {
    spec.scope = OverrunScope::kUniform;
  } else if (line[1] == "hot-spot") {
    spec.scope = OverrunScope::kHotSpot;
  } else {
    reader.fail("unknown overrun scope: " + std::string(line[1]));
  }
  spec.overrun_factor = to_nonneg(reader, line[2], "overrun_factor");
  spec.overrun_addend = to_finite(reader, line[3], "overrun_addend");
  spec.overrun_probability = to_nonneg(reader, line[4], "overrun_probability");
  spec.hotspot_fraction = to_nonneg(reader, line[5], "hotspot_fraction");

  spec.failures = read_failures(reader);

  line = reader.next();
  reader.expect(line, "random-failure", 3);
  spec.random_failure_probability =
      to_nonneg(reader, line[1], "random_failure_probability");
  spec.random_failure_window.arrival =
      to_nonneg(reader, line[2], "random_failure_window start");
  spec.random_failure_window.deadline =
      to_nonneg(reader, line[3], "random_failure_window end");

  line = reader.next();
  reader.expect(line, "spike", 2);
  spec.spike_probability = to_nonneg(reader, line[1], "spike_probability");
  spec.spike_factor = to_nonneg(reader, line[2], "spike_factor");

  reader.expect(reader.next(), "end", 0);
  spec.validate();
  return spec;
}

std::string serialize_fault_trace(const FaultTrace& trace) {
  std::string text;
  TextWriter w(text);
  w << "dsslice-fault-trace " << kFormatVersion << '\n';
  write_list(w, "wcet-factor", trace.conditions.wcet_factor);
  write_list(w, "wcet-addend", trace.conditions.wcet_addend);
  write_list(w, "arc-delay-factor", trace.conditions.arc_delay_factor);
  write_list(w, "processor-down", trace.conditions.processor_down_at);
  write_list(w, "overrun-tasks", trace.overrun_tasks);
  write_failures(w, trace.failures);
  write_list(w, "spiked-arcs", trace.spiked_arcs);
  w << "end\n";
  return text;
}

FaultTrace parse_fault_trace(const std::string& text) {
  LineReader reader(text, "fault-trace");
  read_header(reader, "dsslice-fault-trace");

  FaultTrace trace;
  read_list(reader, "wcet-factor", "wcet factor",
            trace.conditions.wcet_factor, to_nonneg);
  read_list(reader, "wcet-addend", "wcet addend",
            trace.conditions.wcet_addend, to_finite);
  read_list(reader, "arc-delay-factor", "arc delay factor",
            trace.conditions.arc_delay_factor, to_nonneg);
  // Halt instants may legitimately be infinite ("never halts").
  read_list(reader, "processor-down", "halt instant",
            trace.conditions.processor_down_at, to_time);
  read_list(reader, "overrun-tasks", "task id", trace.overrun_tasks,
            to_count);
  trace.failures = read_failures(reader);
  read_list(reader, "spiked-arcs", "arc id", trace.spiked_arcs, to_count);
  reader.expect(reader.next(), "end", 0);
  return trace;
}

}  // namespace dsslice

#include <gtest/gtest.h>

#include <cfloat>
#include <cstdio>
#include <limits>

#include "dsslice/sim/serialization.hpp"
#include "test_util.hpp"

namespace dsslice {
namespace {

void expect_equal_scenarios(const Scenario& a, const Scenario& b) {
  ASSERT_EQ(a.platform.processor_count(), b.platform.processor_count());
  ASSERT_EQ(a.platform.class_count(), b.platform.class_count());
  for (ProcessorClassId e = 0; e < a.platform.class_count(); ++e) {
    EXPECT_EQ(a.platform.processor_class(e).name,
              b.platform.processor_class(e).name);
    EXPECT_DOUBLE_EQ(a.platform.processor_class(e).speed_factor,
                     b.platform.processor_class(e).speed_factor);
  }
  for (ProcessorId p = 0; p < a.platform.processor_count(); ++p) {
    EXPECT_EQ(a.platform.class_of(p), b.platform.class_of(p));
  }
  ASSERT_EQ(a.application.task_count(), b.application.task_count());
  for (NodeId v = 0; v < a.application.task_count(); ++v) {
    const Task& ta = a.application.task(v);
    const Task& tb = b.application.task(v);
    EXPECT_EQ(ta.name, tb.name);
    EXPECT_EQ(ta.wcet_by_class, tb.wcet_by_class);
    EXPECT_DOUBLE_EQ(ta.phasing, tb.phasing);
    EXPECT_DOUBLE_EQ(ta.period, tb.period);
    EXPECT_DOUBLE_EQ(ta.optional_fraction, tb.optional_fraction);
  }
  ASSERT_EQ(a.application.graph().arcs(), b.application.graph().arcs());
  for (const NodeId out : a.application.graph().output_nodes()) {
    EXPECT_EQ(a.application.has_ete_deadline(out),
              b.application.has_ete_deadline(out));
    if (a.application.has_ete_deadline(out)) {
      EXPECT_DOUBLE_EQ(a.application.ete_deadline(out),
                       b.application.ete_deadline(out));
    }
  }
}

TEST(Serialization, RoundTripsGeneratedScenarios) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    const Scenario original =
        generate_scenario_at(testing::paper_generator(seed), 0);
    const std::string text = serialize_scenario(original);
    const Scenario parsed = parse_scenario(text);
    expect_equal_scenarios(original, parsed);
    // Serialization is a fixed point.
    EXPECT_EQ(serialize_scenario(parsed), text);
  }
}

TEST(Serialization, RoundTripsIneligibilityAndPeriods) {
  ApplicationBuilder b;
  const NodeId u = b.add_task("u", {10.0, kIneligibleWcet}, 2.0, 40.0);
  const NodeId v = b.add_task("v", {kIneligibleWcet, 12.0}, 0.0, 40.0);
  b.add_precedence(u, v, 3.5);
  b.set_input_arrival(u, 2.0);
  b.set_ete_deadline(v, 38.0);
  Scenario sc{Platform::shared_bus({ProcessorClass{"a", 1.0},
                                    ProcessorClass{"b", 1.25}},
                                   {0, 1}, 2.0),
              b.build(2)};
  const Scenario parsed = parse_scenario(serialize_scenario(sc));
  expect_equal_scenarios(sc, parsed);
  const auto* bus =
      dynamic_cast<const SharedBus*>(&parsed.platform.network());
  ASSERT_NE(bus, nullptr);
  EXPECT_DOUBLE_EQ(bus->per_item_delay(), 2.0);
}

TEST(Serialization, CommentsAndBlankLinesIgnored) {
  const Scenario sc =
      generate_scenario_at(testing::small_generator(7), 0);
  std::string text = serialize_scenario(sc);
  text = "# a comment\n\n" + text;
  EXPECT_NO_THROW(parse_scenario(text));
}

TEST(Serialization, RejectsMalformedInput) {
  EXPECT_THROW(parse_scenario(""), ConfigError);
  EXPECT_THROW(parse_scenario("dsslice-scenario 99\n"), ConfigError);
  EXPECT_THROW(parse_scenario("dsslice-scenario 1\nclasses x\n"),
               ConfigError);
  // Arc endpoint out of range.
  const std::string bad =
      "dsslice-scenario 1\nclasses 1\nclass e0 1\nprocessors 1\n"
      "proc p0 0\nbus 1\ntasks 1\ntask t0 0 0 5\narcs 1\narc 0 7 1\nend\n";
  EXPECT_THROW(parse_scenario(bad), ConfigError);
  // Truncated before 'end'.
  const std::string truncated =
      "dsslice-scenario 1\nclasses 1\nclass e0 1\nprocessors 1\n"
      "proc p0 0\nbus 1\ntasks 1\ntask t0 0 0 5\narcs 0\n";
  EXPECT_THROW(parse_scenario(truncated), ConfigError);
}

TEST(Serialization, RejectsNonFiniteAndNegativeValues) {
  const auto scenario_with = [](const std::string& task_line,
                                const std::string& bus = "bus 1") {
    return "dsslice-scenario 1\nclasses 1\nclass e0 1\nprocessors 1\n"
           "proc p0 0\n" +
           bus + "\ntasks 1\n" + task_line + "\narcs 0\nend\n";
  };
  // NaN / infinite durations are corrupted data, not big numbers.
  EXPECT_THROW(parse_scenario(scenario_with("task t0 nan 0 5")), ConfigError);
  EXPECT_THROW(parse_scenario(scenario_with("task t0 0 inf 5")), ConfigError);
  EXPECT_THROW(parse_scenario(scenario_with("task t0 0 0 nan")), ConfigError);
  // Negative durations.
  EXPECT_THROW(parse_scenario(scenario_with("task t0 -1 0 5")), ConfigError);
  EXPECT_THROW(parse_scenario(scenario_with("task t0 0 0 -5")), ConfigError);
  EXPECT_THROW(parse_scenario(scenario_with("task t0 0 0 5", "bus -2")),
               ConfigError);
  // Zero or negative speed factors.
  EXPECT_THROW(
      parse_scenario("dsslice-scenario 1\nclasses 1\nclass e0 0\n"),
      ConfigError);
  // The error message names the offending line.
  try {
    parse_scenario(scenario_with("task t0 nan 0 5"));
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("line 8"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("phasing"), std::string::npos);
  }
}

TEST(Serialization, RejectsAbsurdEntityCounts) {
  EXPECT_THROW(
      parse_scenario("dsslice-scenario 1\nclasses 99999999999\n"),
      ConfigError);
  EXPECT_THROW(parse_scenario("dsslice-scenario 1\nclasses 1\nclass e0 1\n"
                              "processors 2000000\n"),
               ConfigError);
}

TEST(Serialization, RoundTripsProcessorAvailability) {
  std::vector<Processor> procs{Processor{"p0", 0}, Processor{"p1", 0}};
  procs[0].available_from = 10.0;
  procs[0].available_until = 90.0;
  Scenario sc{Platform({ProcessorClass{"e0", 1.0}}, std::move(procs),
                       std::make_shared<SharedBus>(1.0)),
              testing::make_chain(2, 5.0, 50.0)};
  const Scenario parsed = parse_scenario(serialize_scenario(sc));
  EXPECT_DOUBLE_EQ(parsed.platform.processor(0).available_from, 10.0);
  EXPECT_DOUBLE_EQ(parsed.platform.processor(0).available_until, 90.0);
  EXPECT_EQ(parsed.platform.processor(1).available_from, kTimeZero);
  EXPECT_EQ(parsed.platform.processor(1).available_until, kTimeInfinity);
  // Availability windows that end before they start are rejected.
  EXPECT_THROW(
      parse_scenario("dsslice-scenario 1\nclasses 1\nclass e0 1\n"
                     "processors 1\nproc p0 0 50 10\n"),
      ConfigError);
}

TEST(Serialization, FaultSpecRoundTrips) {
  FaultSpec spec;
  spec.seed = 0xDEADBEEFu;
  spec.scope = OverrunScope::kHotSpot;
  spec.overrun_factor = 2.5;
  spec.overrun_addend = 1.25;
  spec.overrun_probability = 0.4;
  spec.hotspot_fraction = 0.3;
  spec.failures.push_back(ProcessorFailure{1, 17.5});
  spec.random_failure_probability = 0.1;
  spec.random_failure_window = Window{0.0, 80.0};
  spec.spike_probability = 0.2;
  spec.spike_factor = 5.0;

  const std::string text = serialize_fault_spec(spec);
  const FaultSpec parsed = parse_fault_spec(text);
  EXPECT_EQ(parsed, spec);
  // Fixed point.
  EXPECT_EQ(serialize_fault_spec(parsed), text);
}

TEST(Serialization, FaultSpecRejectsMalformedInput) {
  EXPECT_THROW(parse_fault_spec(""), ConfigError);
  EXPECT_THROW(parse_fault_spec("dsslice-faults 2\n"), ConfigError);
  const auto spec_with = [](const std::string& overrun) {
    return "dsslice-faults 1\nseed 7\n" + overrun +
           "\nfailures 0\nrandom-failure 0 0 0\nspike 0 1\nend\n";
  };
  EXPECT_NO_THROW(parse_fault_spec(spec_with("overrun uniform 1 0 0 0.25")));
  EXPECT_THROW(parse_fault_spec(spec_with("overrun sideways 1 0 0 0.25")),
               ConfigError);
  EXPECT_THROW(parse_fault_spec(spec_with("overrun uniform nan 0 0 0.25")),
               ConfigError);
  // Out-of-range probability is caught by FaultSpec::validate.
  EXPECT_THROW(parse_fault_spec(spec_with("overrun uniform 1 0 1.5 0.25")),
               ConfigError);
  // Negative seed.
  EXPECT_THROW(
      parse_fault_spec("dsslice-faults 1\nseed -4\n"
                       "overrun uniform 1 0 0 0.25\nfailures 0\n"
                       "random-failure 0 0 0\nspike 0 1\nend\n"),
      ConfigError);
}

TEST(Serialization, RoundTripsOptionalFractions) {
  ApplicationBuilder b;
  const NodeId u = b.add_task("u", {4.0}, 0.0, 40.0);
  const NodeId v = b.add_task("v", {6.0}, 0.0, 40.0);
  const NodeId w = b.add_task("w", {2.0}, 0.0, 40.0);
  b.add_precedence(u, v, 1.0);
  b.add_precedence(v, w, 1.0);
  b.set_input_arrival(u, 0.0);
  b.set_ete_deadline(w, 38.0);
  Scenario sc{Platform::shared_bus({ProcessorClass{"e0", 1.0}}, {0}, 1.0),
              b.build(1)};
  sc.application.mutable_task(v).optional_fraction = 0.5;
  sc.application.mutable_task(w).optional_fraction = 1.0;  // fully optional

  const std::string text = serialize_scenario(sc);
  const Scenario parsed = parse_scenario(text);
  expect_equal_scenarios(sc, parsed);
  EXPECT_DOUBLE_EQ(parsed.application.task(v).optional_fraction, 0.5);
  EXPECT_DOUBLE_EQ(parsed.application.task(w).mandatory_wcet(0), 0.0);
  // Fixed point, and precise tasks keep the legacy 4+k-token line — a
  // fraction-free scenario serializes byte-identically to older builds.
  EXPECT_EQ(serialize_scenario(parsed), text);
  EXPECT_NE(text.find("task u 0 40 4\n"), std::string::npos) << text;
  EXPECT_NE(text.find("task v 0 40 6 0.5\n"), std::string::npos) << text;
}

TEST(Serialization, RejectsInvalidOptionalSplits) {
  const auto scenario_with = [](const std::string& task_line) {
    return "dsslice-scenario 1\nclasses 1\nclass e0 1\nprocessors 1\n"
           "proc p0 0\nbus 1\ntasks 1\n" +
           task_line + "\narcs 0\nend\n";
  };
  // The boundary values 0 and 1 are legal splits.
  EXPECT_NO_THROW(parse_scenario(scenario_with("task t0 3 0 5 0")));
  EXPECT_NO_THROW(parse_scenario(scenario_with("task t0 3 0 5 1")));
  // An optional part larger than the WCET, negative, or NaN is corrupt.
  EXPECT_THROW(parse_scenario(scenario_with("task t0 3 0 5 1.5")),
               ConfigError);
  EXPECT_THROW(parse_scenario(scenario_with("task t0 3 0 5 -0.1")),
               ConfigError);
  EXPECT_THROW(parse_scenario(scenario_with("task t0 3 0 5 nan")),
               ConfigError);
  EXPECT_THROW(parse_scenario(scenario_with("task t0 3 0 5 inf")),
               ConfigError);
  try {
    parse_scenario(scenario_with("task t0 3 0 5 1.5"));
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("optional_fraction"),
              std::string::npos)
        << e.what();
  }
}

TEST(Serialization, FaultTraceRoundTrips) {
  FaultTrace trace;
  trace.conditions.wcet_factor = {1.0, 2.5, 1.0};
  trace.conditions.wcet_addend = {0.0, 1.25, 0.0};
  trace.conditions.arc_delay_factor = {1.0, 3.0};
  // 'inf' halt instants ("never halts") must survive the text format.
  trace.conditions.processor_down_at = {kTimeInfinity, 17.5};
  trace.overrun_tasks = {1};
  trace.failures.push_back(ProcessorFailure{1, 17.5});
  trace.spiked_arcs = {1};

  const std::string text = serialize_fault_trace(trace);
  const FaultTrace parsed = parse_fault_trace(text);
  EXPECT_EQ(parsed, trace);
  EXPECT_EQ(serialize_fault_trace(parsed), text);
  EXPECT_DOUBLE_EQ(parsed.conditions.processor_down_at[0], kTimeInfinity);

  // A fault-free trace (all vectors empty = no perturbation) round-trips.
  const FaultTrace empty;
  EXPECT_EQ(parse_fault_trace(serialize_fault_trace(empty)), empty);
}

TEST(Serialization, FaultTraceRejectsMalformedInput) {
  EXPECT_THROW(parse_fault_trace(""), ConfigError);
  EXPECT_THROW(parse_fault_trace("dsslice-fault-trace 9\n"), ConfigError);
  const auto trace_with = [](const std::string& line) {
    return "dsslice-fault-trace 1\n" + line +
           "\nwcet-addend 0\narc-delay-factor 0\nprocessor-down 0\n"
           "overrun-tasks 0\nfailures 0\nspiked-arcs 0\nend\n";
  };
  EXPECT_NO_THROW(parse_fault_trace(trace_with("wcet-factor 2 1 2.5")));
  // Declared count disagrees with the carried values.
  EXPECT_THROW(parse_fault_trace(trace_with("wcet-factor 3 1 2.5")),
               ConfigError);
  // Negative or NaN factors are corrupt, not faults.
  EXPECT_THROW(parse_fault_trace(trace_with("wcet-factor 1 -2")),
               ConfigError);
  EXPECT_THROW(parse_fault_trace(trace_with("wcet-factor 1 nan")),
               ConfigError);
  // Truncated before 'end'.
  EXPECT_THROW(
      parse_fault_trace("dsslice-fault-trace 1\nwcet-factor 0\n"
                        "wcet-addend 0\narc-delay-factor 0\n"
                        "processor-down 0\noverrun-tasks 0\nfailures 0\n"
                        "spiked-arcs 0\n"),
      ConfigError);
}

/// A scenario whose numbers sit on the edges of the decimal spelling:
/// signed zero, a denormal, DBL_MAX, 0.1 and 1/3 (no short decimal), an
/// infinite availability end, ineligible WCETs and optional fractions.
Scenario edge_scenario() {
  constexpr double kDenormal = std::numeric_limits<double>::denorm_min();
  ApplicationBuilder b;
  const NodeId u = b.add_task("u", {kDenormal, kIneligibleWcet}, -0.0, DBL_MAX);
  const NodeId v = b.add_task("v", {1.0 / 3.0, 0.1}, 0.1, 0.0);
  const NodeId w = b.add_task("w", {kIneligibleWcet, DBL_MAX}, 1e21, 40.0);
  b.add_precedence(u, v, 1.0 / 3.0);
  b.add_precedence(u, w, -0.0);
  b.add_precedence(v, w, kDenormal);
  b.set_input_arrival(u, 0.1);
  b.set_ete_deadline(w, 1e21);
  std::vector<Processor> procs{Processor{"p0", 0}, Processor{"p1", 1},
                               Processor{"p2", 0}};
  procs[0].available_from = 0.1;
  procs[0].available_until = DBL_MAX;
  procs[2].available_from = kDenormal;
  procs[2].available_until = kTimeInfinity;
  Scenario sc{Platform({ProcessorClass{"slow", 1.0 / 3.0},
                        ProcessorClass{"fast", DBL_MAX}},
                       std::move(procs), std::make_shared<SharedBus>(0.1)),
              b.build(2)};
  sc.application.mutable_task(v).optional_fraction = 1.0 / 3.0;
  sc.application.mutable_task(w).optional_fraction = 1.0;
  return sc;
}

FaultSpec edge_fault_spec() {
  FaultSpec spec;
  spec.seed = std::numeric_limits<std::uint64_t>::max();
  spec.scope = OverrunScope::kHotSpot;
  spec.overrun_factor = 1.0 / 3.0;
  spec.overrun_addend = -0.0;
  spec.overrun_probability = 0.1;
  spec.hotspot_fraction = std::numeric_limits<double>::denorm_min();
  // 1'000'000 is the largest id the parsers' sanity bound admits.
  spec.failures = {ProcessorFailure{0, -0.0},
                   ProcessorFailure{1'000'000, DBL_MAX}};
  spec.random_failure_probability = 1.0;
  spec.random_failure_window = Window{0.1, 1e21};
  spec.spike_probability = 1.0 / 3.0;
  spec.spike_factor = DBL_MAX;
  return spec;
}

FaultTrace edge_fault_trace() {
  constexpr double kDenormal = std::numeric_limits<double>::denorm_min();
  FaultTrace trace;
  trace.conditions.wcet_factor = {1.0 / 3.0, 0.1, DBL_MAX};
  trace.conditions.wcet_addend = {-0.0, -kDenormal, -DBL_MAX};
  trace.conditions.arc_delay_factor = {kDenormal, 0.0};
  trace.conditions.processor_down_at = {kTimeInfinity, 0.1, DBL_MAX};
  trace.overrun_tasks = {0, 2};
  trace.failures = {ProcessorFailure{1, 0.1},
                    ProcessorFailure{1'000'000, 1e21}};
  trace.spiked_arcs = {0, 1};
  return trace;
}

// Pins the exact bytes of the three text formats on edge values: a file
// written by any earlier build must keep loading to the same value, and the
// writer must keep spelling every double as %.17g does.
TEST(Serialization, ScenarioMatchesPinnedDigest) {
  const std::string text = serialize_scenario(edge_scenario());
  EXPECT_EQ(text.size(), 581u);
  EXPECT_EQ(testing::fnv1a(text), 0x9e86939ede13d67eULL);
  EXPECT_EQ(serialize_scenario(parse_scenario(text)), text);
}

TEST(Serialization, FaultSpecMatchesPinnedDigest) {
  const std::string text = serialize_fault_spec(edge_fault_spec());
  EXPECT_EQ(text.size(), 288u);
  EXPECT_EQ(testing::fnv1a(text), 0xbc3a244b38dd01dcULL);
  EXPECT_EQ(serialize_fault_spec(parse_fault_spec(text)), text);
}

TEST(Serialization, FaultTraceMatchesPinnedDigest) {
  const std::string text = serialize_fault_trace(edge_fault_trace());
  EXPECT_EQ(text.size(), 382u);
  EXPECT_EQ(testing::fnv1a(text), 0x90b28d80ea1c6084ULL);
  EXPECT_EQ(serialize_fault_trace(parse_fault_trace(text)), text);
}

// The line formats split tokens on any blanks and drop '#' comments and
// blank lines, so a file that went through a CRLF editor or was annotated
// by hand still loads to the same value.
TEST(Serialization, ParseAcceptsCrlfTabsAndComments) {
  using testing::hand_edited;
  const std::string scenario = serialize_scenario(edge_scenario());
  EXPECT_EQ(serialize_scenario(parse_scenario(hand_edited(scenario))),
            scenario);
  const std::string spec = serialize_fault_spec(edge_fault_spec());
  EXPECT_EQ(serialize_fault_spec(parse_fault_spec(hand_edited(spec))), spec);
  const std::string trace = serialize_fault_trace(edge_fault_trace());
  EXPECT_EQ(serialize_fault_trace(parse_fault_trace(hand_edited(trace))),
            trace);
}

/// A one-task scenario with the given `tasks` count and `task` line.
std::string one_task_scenario(const std::string& count,
                              const std::string& task_line) {
  return "dsslice-scenario 1\nclasses 1\nclass e0 1\nprocessors 1\n"
         "proc p0 0\nbus 1\ntasks " +
         count + "\n" + task_line + "\narcs 0\nend\n";
}

/// A fault spec with the given `seed` token and one `failure` line.
std::string fault_spec_with(const std::string& seed,
                            const std::string& failure) {
  return "dsslice-faults 1\nseed " + seed +
         "\noverrun uniform 1 0 0 0.25\nfailures 1\n" + failure +
         "\nrandom-failure 0 0 0\nspike 0 1\nend\n";
}

/// An empty fault trace with one `failure` line.
std::string fault_trace_with(const std::string& failure) {
  return "dsslice-fault-trace 1\nwcet-factor 0\nwcet-addend 0\n"
         "arc-delay-factor 0\nprocessor-down 0\noverrun-tasks 0\n"
         "failures 1\n" +
         failure + "\nspiked-arcs 0\nend\n";
}

// Integer fields are read only as plain decimal digits: every other
// spelling of 1 is a corrupted file, not a count.
TEST(Serialization, RejectsNonCanonicalCounts) {
  ASSERT_NO_THROW(parse_scenario(one_task_scenario("1", "task t0 0 0 5")));
  for (const char* count : {"+1", "0x1", "1e0", "1.0", "01"}) {
    EXPECT_THROW(parse_scenario(one_task_scenario(count, "task t0 0 0 5")),
                 ConfigError)
        << count;
  }
}

// Doubles are read in the std::from_chars grammar: no '+', no hex.
TEST(Serialization, RejectsNonCanonicalDoubles) {
  for (const char* wcet : {"0x1p3", "+5"}) {
    EXPECT_THROW(parse_scenario(one_task_scenario(
                     "1", std::string("task t0 0 0 ") + wcet)),
                 ConfigError)
        << wcet;
  }
}

TEST(Serialization, RejectsSignedSeed) {
  ASSERT_NO_THROW(parse_fault_spec(fault_spec_with("7", "failure 0 5")));
  EXPECT_THROW(parse_fault_spec(fault_spec_with("+7", "failure 0 5")),
               ConfigError);
}

// A number is the whole token: an embedded NUL does not end it early.
TEST(Serialization, RejectsEmbeddedNul) {
  const std::string wcet("5\0junk", 6);
  EXPECT_THROW(parse_scenario(one_task_scenario("1", "task t0 0 0 " + wcet)),
               ConfigError);
}

// A processor id beyond the sanity bound is rejected like every other id,
// instead of wrapping: 2^32 + 1 once came back as processor 1.
TEST(Serialization, RejectsOutOfBoundFailureProcessors) {
  ASSERT_NO_THROW(parse_fault_spec(fault_spec_with("7", "failure 1 5")));
  EXPECT_THROW(parse_fault_spec(fault_spec_with("7", "failure 4294967297 5")),
               ConfigError);
  ASSERT_NO_THROW(parse_fault_trace(fault_trace_with("failure 1 5")));
  EXPECT_THROW(parse_fault_trace(fault_trace_with("failure 4294967297 5")),
               ConfigError);
}

// Seeded mutation fuzz over each pinned text: every mutant either parses,
// and then serialize -> parse is a fixed point, or throws ConfigError.
TEST(Serialization, SeededMutantsParseOrThrowConfigError) {
  static constexpr const char* kWords[] = {
      "0",    "1",     "-",      "-0",         "01",      "+1",
      "0x1",  "1e0",   "1.0",    "0x1p3",      "nan",     "inf",
      "-inf", "1e999", "1e-400", "4294967297", "1000000", "1000001",
      "18446744073709551616",    "end",        "task",    "arc",
      "failure", "uniform"};
  constexpr int kMutants = 2000;
  // Some mutants of each text still parse (161, 93 and 83 at these seeds),
  // so the fuzz reaches past the first checks.
  EXPECT_GT(testing::parse_or_reject_mutants(
                serialize_scenario(edge_scenario()), 0x5CE7A810ULL, kMutants,
                kWords, parse_scenario, serialize_scenario),
            kMutants / 40);
  EXPECT_GT(testing::parse_or_reject_mutants(
                serialize_fault_spec(edge_fault_spec()), 0xFA175ULL, kMutants,
                kWords, parse_fault_spec, serialize_fault_spec),
            kMutants / 40);
  EXPECT_GT(testing::parse_or_reject_mutants(
                serialize_fault_trace(edge_fault_trace()), 0x7ACEULL,
                kMutants, kWords, parse_fault_trace, serialize_fault_trace),
            kMutants / 40);
}

TEST(Serialization, FileRoundTrip) {
  const Scenario sc =
      generate_scenario_at(testing::small_generator(9), 0);
  const std::string path =
      ::testing::TempDir() + "/dsslice_scenario_test.txt";
  save_scenario(sc, path);
  const Scenario loaded = load_scenario(path);
  expect_equal_scenarios(sc, loaded);
  std::remove(path.c_str());
  EXPECT_THROW(load_scenario("/nonexistent/path.txt"), ConfigError);
  EXPECT_THROW(save_scenario(sc, "/nonexistent-dir/x.txt"), ConfigError);
}

TEST(Serialization, ParsedScenarioRunsThroughPipeline) {
  const Scenario sc =
      generate_scenario_at(testing::paper_generator(11), 0);
  const Scenario parsed = parse_scenario(serialize_scenario(sc));
  const auto est = estimate_wcets(parsed.application,
                                  WcetEstimation::kAverage);
  const auto a = run_slicing(parsed.application, est,
                             DeadlineMetric(MetricKind::kAdaptL),
                             parsed.platform.processor_count());
  const auto est0 = estimate_wcets(sc.application, WcetEstimation::kAverage);
  const auto a0 = run_slicing(sc.application, est0,
                              DeadlineMetric(MetricKind::kAdaptL),
                              sc.platform.processor_count());
  for (NodeId v = 0; v < sc.application.task_count(); ++v) {
    EXPECT_EQ(a.windows[v], a0.windows[v]);
  }
}

}  // namespace
}  // namespace dsslice

#include "dsslice/model/application.hpp"

#include <cmath>
#include <sstream>
#include <utility>

#include "dsslice/graph/algorithms.hpp"
#include "dsslice/obs/trace.hpp"
#include "dsslice/util/check.hpp"

namespace dsslice {

Application::Application(TaskGraph graph, std::vector<Task> tasks)
    : graph_(std::move(graph)),
      tasks_(std::move(tasks)),
      ete_deadline_(tasks_.size(), kTimeInfinity) {
  DSSLICE_REQUIRE(graph_.node_count() == tasks_.size(),
                  "one task per graph node required");
}

Application::Application(const Application& other)
    : graph_(other.graph_),
      tasks_(other.tasks_),
      ete_deadline_(other.ete_deadline_),
      analysis_cache_(other.analysis_cache_.load(std::memory_order_acquire)) {}

Application::Application(Application&& other) noexcept
    : graph_(std::move(other.graph_)),
      tasks_(std::move(other.tasks_)),
      ete_deadline_(std::move(other.ete_deadline_)),
      analysis_cache_(other.analysis_cache_.load(std::memory_order_acquire)),
      analysis_spare_(other.analysis_spare_.exchange(
          nullptr, std::memory_order_acq_rel)) {}

Application& Application::operator=(const Application& other) {
  if (this != &other) {
    graph_ = other.graph_;
    tasks_ = other.tasks_;
    ete_deadline_ = other.ete_deadline_;
    analysis_cache_.store(other.analysis_cache_.load(std::memory_order_acquire),
                          std::memory_order_release);
  }
  return *this;
}

Application& Application::operator=(Application&& other) noexcept {
  if (this != &other) {
    graph_ = std::move(other.graph_);
    tasks_ = std::move(other.tasks_);
    ete_deadline_ = std::move(other.ete_deadline_);
    analysis_cache_.store(other.analysis_cache_.load(std::memory_order_acquire),
                          std::memory_order_release);
    analysis_spare_.store(
        other.analysis_spare_.exchange(nullptr, std::memory_order_acq_rel),
        std::memory_order_release);
  }
  return *this;
}

void Application::rebuild_swap(TaskGraph& graph, std::vector<Task>& tasks) {
  DSSLICE_REQUIRE(graph.node_count() == tasks.size(),
                  "one task per graph node required");
  std::swap(graph_, graph);
  std::swap(tasks_, tasks);
  ete_deadline_.assign(tasks_.size(), kTimeInfinity);
  auto old = analysis_cache_.exchange(nullptr, std::memory_order_acq_rel);
  if (old != nullptr && old.use_count() == 1) {
    // No copy shares the analysis any more. The fence orders the last reads
    // of a copy that released it before the rebuild's writes.
    std::atomic_thread_fence(std::memory_order_acquire);
    analysis_spare_.store(std::move(old), std::memory_order_release);
  }
}

const GraphAnalysis& Application::analysis() const {
  auto cached = analysis_cache_.load(std::memory_order_acquire);
  if (cached == nullptr) {
    DSSLICE_COUNT("analysis.cache.miss", 1);
    // Each racing first call takes the spare at most once; the others build.
    auto built = analysis_spare_.exchange(nullptr, std::memory_order_acq_rel);
    if (built != nullptr) {
      built->rebuild(graph_);
    } else {
      built = std::make_shared<GraphAnalysis>(graph_);
    }
    std::shared_ptr<GraphAnalysis> expected;
    if (analysis_cache_.compare_exchange_strong(expected, built,
                                                std::memory_order_acq_rel,
                                                std::memory_order_acquire)) {
      cached = std::move(built);
    } else {
      cached = std::move(expected);  // another thread won the race
    }
  } else {
    DSSLICE_COUNT("analysis.cache.hit", 1);
  }
  return *cached;
}

const Task& Application::task(NodeId i) const {
  DSSLICE_REQUIRE(i < tasks_.size(), "task id out of range");
  return tasks_[i];
}

Task& Application::mutable_task(NodeId i) {
  DSSLICE_REQUIRE(i < tasks_.size(), "task id out of range");
  return tasks_[i];
}

void Application::set_input_arrival(NodeId input, Time arrival) {
  DSSLICE_REQUIRE(input < tasks_.size(), "task id out of range");
  DSSLICE_REQUIRE(graph_.is_input(input),
                  "arrival may only be set on input tasks");
  DSSLICE_REQUIRE(arrival >= kTimeZero && std::isfinite(arrival),
                  "arrival must be finite and non-negative");
  tasks_[input].phasing = arrival;
}

Time Application::input_arrival(NodeId input) const {
  DSSLICE_REQUIRE(input < tasks_.size(), "task id out of range");
  return tasks_[input].phasing;
}

void Application::set_ete_deadline(NodeId output, Time deadline) {
  DSSLICE_REQUIRE(output < tasks_.size(), "task id out of range");
  DSSLICE_REQUIRE(graph_.is_output(output),
                  "E-T-E deadlines may only be set on output tasks");
  DSSLICE_REQUIRE(deadline > kTimeZero, "deadline must be positive");
  ete_deadline_[output] = deadline;
}

Time Application::ete_deadline(NodeId output) const {
  DSSLICE_REQUIRE(output < tasks_.size(), "task id out of range");
  return ete_deadline_[output];
}

bool Application::has_ete_deadline(NodeId output) const {
  DSSLICE_REQUIRE(output < tasks_.size(), "task id out of range");
  return std::isfinite(ete_deadline_[output]);
}

Time Application::total_workload(std::span<const double> est_wcet) const {
  DSSLICE_REQUIRE(est_wcet.size() == tasks_.size(),
                  "estimate vector size mismatch");
  Time total = kTimeZero;
  for (const double c : est_wcet) {
    total += c;
  }
  return total;
}

bool Application::has_optional_work() const {
  for (const Task& t : tasks_) {
    if (t.has_optional_part()) {
      return true;
    }
  }
  return false;
}

std::vector<std::string> Application::validate(
    const Platform& platform) const {
  std::vector<std::string> problems;
  if (!is_dag(graph_)) {
    problems.push_back("task graph contains a cycle");
  }
  const std::size_t classes = platform.class_count();
  for (NodeId i = 0; i < tasks_.size(); ++i) {
    const Task& t = tasks_[i];
    const std::string who = "task " + std::to_string(i) + " (" + t.name + ")";
    if (t.wcet_by_class.size() != classes) {
      problems.push_back(who + ": WCET vector has " +
                         std::to_string(t.wcet_by_class.size()) +
                         " entries, platform has " + std::to_string(classes) +
                         " classes");
      continue;
    }
    if (t.eligible_class_count() == 0) {
      problems.push_back(who + ": ineligible on every processor class");
    }
    bool runnable = false;
    for (ProcessorId p = 0; p < platform.processor_count(); ++p) {
      if (t.eligible(platform.class_of(p))) {
        runnable = true;
        break;
      }
    }
    if (!runnable) {
      problems.push_back(who +
                         ": no processor of an eligible class is present");
    }
    for (const double c : t.wcet_by_class) {
      if (c >= 0.0 && !(c > 0.0)) {
        problems.push_back(who + ": zero WCET entry");
        break;
      }
    }
    if (t.phasing < kTimeZero || !std::isfinite(t.phasing)) {
      problems.push_back(who + ": invalid phasing");
    }
    if (t.period < kTimeZero) {
      problems.push_back(who + ": negative period");
    }
    if (!valid_optional_fraction(t.optional_fraction)) {
      problems.push_back(
          who + ": optional fraction must be finite and within [0, 1] "
                "(optional part cannot exceed the WCET or be negative)");
    }
    if (graph_.is_output(i) && !has_ete_deadline(i)) {
      problems.push_back(who + ": output task without an E-T-E deadline");
    }
  }
  return problems;
}

void Application::validate_or_throw(const Platform& platform) const {
  const auto problems = validate(platform);
  if (problems.empty()) {
    return;
  }
  std::ostringstream os;
  os << "invalid application:";
  for (const std::string& p : problems) {
    os << "\n  - " << p;
  }
  throw ConfigError(os.str());
}

Application merge_applications(const Application& a, const Application& b) {
  const auto offset = static_cast<NodeId>(a.task_count());
  TaskGraph graph(a.task_count() + b.task_count());
  std::vector<Task> tasks;
  tasks.reserve(a.task_count() + b.task_count());
  for (NodeId v = 0; v < a.task_count(); ++v) {
    tasks.push_back(a.task(v));
  }
  for (NodeId v = 0; v < b.task_count(); ++v) {
    tasks.push_back(b.task(v));
  }
  for (const Arc& arc : a.graph().arcs()) {
    graph.add_arc(arc.from, arc.to, arc.message_items);
  }
  for (const Arc& arc : b.graph().arcs()) {
    graph.add_arc(arc.from + offset, arc.to + offset, arc.message_items);
  }
  Application merged(std::move(graph), std::move(tasks));
  for (const NodeId in : a.graph().input_nodes()) {
    merged.set_input_arrival(in, a.input_arrival(in));
  }
  for (const NodeId in : b.graph().input_nodes()) {
    merged.set_input_arrival(in + offset, b.input_arrival(in));
  }
  for (const NodeId out : a.graph().output_nodes()) {
    if (a.has_ete_deadline(out)) {
      merged.set_ete_deadline(out, a.ete_deadline(out));
    }
  }
  for (const NodeId out : b.graph().output_nodes()) {
    if (b.has_ete_deadline(out)) {
      merged.set_ete_deadline(out + offset, b.ete_deadline(out));
    }
  }
  return merged;
}

NodeId ApplicationBuilder::add_task(std::string name,
                                    std::vector<double> wcet_by_class,
                                    Time phasing, Time period) {
  DSSLICE_REQUIRE(!wcet_by_class.empty(), "task needs at least one WCET");
  Pending p;
  p.task = Task{std::move(name), std::move(wcet_by_class), phasing, period};
  tasks_.push_back(std::move(p));
  return graph_.add_node();
}

NodeId ApplicationBuilder::add_uniform_task(std::string name, double wcet,
                                            Time phasing, Time period) {
  DSSLICE_REQUIRE(wcet > 0.0, "WCET must be positive");
  Pending p;
  p.task = Task{std::move(name), {}, phasing, period};
  p.uniform = true;
  p.uniform_wcet = wcet;
  tasks_.push_back(std::move(p));
  return graph_.add_node();
}

void ApplicationBuilder::add_precedence(NodeId from, NodeId to,
                                        double message_items) {
  graph_.add_arc(from, to, message_items);
}

void ApplicationBuilder::add_chain(const std::vector<NodeId>& chain,
                                   double message_items) {
  for (std::size_t i = 1; i < chain.size(); ++i) {
    add_precedence(chain[i - 1], chain[i], message_items);
  }
}

void ApplicationBuilder::set_input_arrival(NodeId input, Time arrival) {
  arrivals_.emplace_back(input, arrival);
}

void ApplicationBuilder::set_ete_deadline(NodeId output, Time deadline) {
  deadlines_.emplace_back(output, deadline);
}

Application ApplicationBuilder::build(std::size_t class_count) {
  DSSLICE_REQUIRE(class_count > 0, "need at least one processor class");
  std::vector<Task> tasks;
  tasks.reserve(tasks_.size());
  for (Pending& p : tasks_) {
    if (p.uniform) {
      p.task.wcet_by_class.assign(class_count, p.uniform_wcet);
    } else {
      DSSLICE_REQUIRE(p.task.wcet_by_class.size() == class_count,
                      "task " + p.task.name + " WCET vector does not match "
                      "class count");
    }
    tasks.push_back(std::move(p.task));
  }
  Application app(std::move(graph_), std::move(tasks));
  for (const auto& [node, arrival] : arrivals_) {
    app.set_input_arrival(node, arrival);
  }
  for (const auto& [node, deadline] : deadlines_) {
    app.set_ete_deadline(node, deadline);
  }
  // The builder is single-use: reset to a clean state.
  tasks_.clear();
  arrivals_.clear();
  deadlines_.clear();
  graph_ = TaskGraph();
  return app;
}

}  // namespace dsslice

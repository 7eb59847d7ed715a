// A real-time application: task graph + task parameters + end-to-end timing
// requirements (input arrival times and E-T-E deadlines on output tasks).
#pragma once

#include <atomic>
#include <cstddef>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "dsslice/analysis/graph_analysis.hpp"
#include "dsslice/graph/task_graph.hpp"
#include "dsslice/model/platform.hpp"
#include "dsslice/model/task.hpp"
#include "dsslice/model/time.hpp"

namespace dsslice {

class Application {
 public:
  Application(TaskGraph graph, std::vector<Task> tasks);

  // The task graph only changes through rebuild_swap, so the memoized
  // GraphAnalysis stays valid until then and copies may share it. The
  // copy/move operations below exist only because the cache holds an
  // atomic and a mutex (not copyable); they otherwise behave like the
  // defaults, except that a copy never takes the spare analysis (recycled
  // storage belongs to one application).
  Application(const Application& other);
  Application(Application&& other) noexcept;
  Application& operator=(const Application& other);
  Application& operator=(Application&& other) noexcept;

  const TaskGraph& graph() const { return graph_; }
  std::size_t task_count() const { return tasks_.size(); }

  /// The shared graph analysis (topological order, reach /
  /// co-reach bitsets, parallel-set sizes), built lazily on first use and
  /// memoized until the graph changes. The first call after rebuild_swap
  /// rebuilds the spare analysis it parked, if any, in place (no heap
  /// allocation once warm); otherwise it builds a new one. Thread-safe:
  /// a built analysis is one acquire load away; the first call builds it
  /// under a mutex, and concurrent first calls wait for that build.
  /// Requires an acyclic graph, like every consumer of the analysis.
  /// Invalidation: the graph only changes through rebuild_swap, which
  /// resets the cache; any future API that mutates the graph in place must
  /// do the same.
  const GraphAnalysis& analysis() const;

  /// Rebuilds this application in place by *swapping* in new graph and task
  /// storage: the previous storage lands back in the arguments so the caller
  /// can recycle its heap capacity (batch-generation hot path). Arrivals
  /// revert to the tasks' phasing, E-T-E deadlines reset to unset and the
  /// memoized analysis is dropped — the result is indistinguishable from a
  /// freshly constructed Application(graph, tasks). A dropped analysis that
  /// no copy shares is parked as the spare for the next analysis() call;
  /// references obtained from analysis() before the swap are invalidated.
  void rebuild_swap(TaskGraph& graph, std::vector<Task>& tasks);

  const Task& task(NodeId i) const;
  Task& mutable_task(NodeId i);
  const std::vector<Task>& tasks() const { return tasks_; }

  /// Sets the earliest release of an input task (its phasing φ). Only
  /// meaningful for tasks with no predecessors.
  void set_input_arrival(NodeId input, Time arrival);
  /// Arrival of an input task (defaults to the task's phasing, i.e. 0).
  Time input_arrival(NodeId input) const;

  /// Sets the absolute end-to-end deadline of an output task.
  void set_ete_deadline(NodeId output, Time deadline);
  /// E-T-E deadline of an output task; kTimeInfinity when unset.
  Time ete_deadline(NodeId output) const;
  bool has_ete_deadline(NodeId output) const;

  /// Total estimated workload Σ c̄_i for a given WCET estimate vector.
  Time total_workload(std::span<const double> est_wcet) const;

  /// True when any task carries an optional (sheddable) part. O(n) scan;
  /// gates the imprecise-computation paths so the classic precise model
  /// pays nothing.
  bool has_optional_work() const;

  /// Validates internal consistency against a platform:
  /// graph is acyclic, each task has one WCET entry per platform class,
  /// at least one eligible class, non-negative parameters, every output with
  /// a finite deadline, every input with a finite arrival. Returns a list of
  /// human-readable problems (empty = valid).
  std::vector<std::string> validate(const Platform& platform) const;

  /// Throwing wrapper around validate().
  void validate_or_throw(const Platform& platform) const;

 private:
  /// Takes `other`'s memoized analysis (never its spare).
  void share_analysis(const Application& other);

  TaskGraph graph_;
  std::vector<Task> tasks_;
  std::vector<Time> ete_deadline_;   // per node; infinity when not an anchor
  // Lazily-built memoized analysis: `analysis_` publishes it (null until
  // built), `analysis_owner_` keeps it alive and is shared between copies
  // (same graph). `analysis_spare_` is an unshared analysis of a previous
  // graph, kept by rebuild_swap so the next analysis() call can rebuild it
  // in place instead of allocating. The mutex guards both shared_ptrs.
  mutable std::atomic<const GraphAnalysis*> analysis_{nullptr};
  mutable std::mutex analysis_mutex_;
  mutable std::shared_ptr<GraphAnalysis> analysis_owner_;
  mutable std::shared_ptr<GraphAnalysis> analysis_spare_;
};

/// Disjoint union of two applications: b's tasks are appended after a's
/// (node ids offset by a.task_count()); arcs, arrivals, E-T-E deadlines and
/// periods carry over. Useful for composing multi-rate workloads whose
/// components the planning-cycle expander can unroll at different rates.
Application merge_applications(const Application& a, const Application& b);

/// Fluent builder used by examples and tests:
///
///   ApplicationBuilder b;
///   auto sense = b.add_task("sense", {4.0, 5.0});
///   auto act   = b.add_task("act",   {2.0, 2.5});
///   b.add_precedence(sense, act, /*message_items=*/2.0);
///   b.set_ete_deadline(act, 40.0);
///   Application app = b.build();
class ApplicationBuilder {
 public:
  /// Adds a task with explicit per-class WCETs (use kIneligibleWcet to mark
  /// classes the task may not run on).
  NodeId add_task(std::string name, std::vector<double> wcet_by_class,
                  Time phasing = kTimeZero, Time period = kTimeZero);

  /// Adds a task that runs on every class with the same WCET. The builder
  /// expands the vector to the class count given at build().
  NodeId add_uniform_task(std::string name, double wcet,
                          Time phasing = kTimeZero, Time period = kTimeZero);

  /// Adds the arc from → to. build() hands every arc to the graph at once
  /// and rejects malformed ones there (TaskGraph::assign).
  void add_precedence(NodeId from, NodeId to, double message_items = 0.0);

  /// Declares a chain t1 ≺ t2 ≺ ... with a shared message size.
  void add_chain(const std::vector<NodeId>& chain, double message_items = 0.0);

  void set_input_arrival(NodeId input, Time arrival);
  void set_ete_deadline(NodeId output, Time deadline);

  std::size_t task_count() const { return tasks_.size(); }

  /// Builds the application. `class_count` resolves add_uniform_task entries;
  /// tasks added with explicit vectors must match it.
  Application build(std::size_t class_count = 1);

 private:
  struct Pending {
    Task task;
    bool uniform = false;
    double uniform_wcet = 0.0;
  };
  std::vector<Pending> tasks_;
  std::vector<Arc> arcs_;
  std::vector<std::pair<NodeId, Time>> arrivals_;
  std::vector<std::pair<NodeId, Time>> deadlines_;
};

}  // namespace dsslice

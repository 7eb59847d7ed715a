// Communication-driven task clustering (paper §1 reference [1]).
//
// Task-assignment techniques commonly cluster tasks that communicate
// heavily and co-locate each cluster, converting expensive cross-processor
// messages into free shared-memory accesses — the very behaviour the
// slicing technique's "assume zero communication cost" prediction (§4.3)
// banks on. This module provides cluster_by_communication(): a union-find
// merge of tasks connected by arcs whose message size meets a threshold,
// with a cluster-size cap so one cluster cannot exceed what a single
// processor can hold. Scheduling with the clusters co-located is
// EdfListScheduler with Clustering::groups() as its co-location groups:
// each cluster takes the processor its first scheduled member is placed on
// (earliest start, then finish, then processor id, among the processors
// every member can run on), and all later members follow it.
#pragma once

#include <cstddef>
#include <vector>

#include "dsslice/model/application.hpp"
#include "dsslice/sched/edf_list_scheduler.hpp"

namespace dsslice {

/// A clustering: cluster id per task (0..cluster_count-1, dense).
struct Clustering {
  std::vector<std::size_t> cluster_of;
  std::size_t cluster_count = 0;

  std::size_t size_of(std::size_t cluster) const;

  /// The clusters as free co-location groups (borrows cluster_of, so a
  /// temporary Clustering cannot hand them out).
  CoLocation groups() const& { return {cluster_of, cluster_count}; }
  CoLocation groups() && = delete;
};

/// Merges tasks along arcs with message_items >= threshold, largest
/// messages first, never growing a cluster past `max_cluster_size` tasks.
/// Threshold <= 0 merges along every arc (subject to the size cap).
Clustering cluster_by_communication(const Application& app,
                                    double message_threshold,
                                    std::size_t max_cluster_size);

}  // namespace dsslice

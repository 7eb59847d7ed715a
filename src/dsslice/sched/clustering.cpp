#include "dsslice/sched/clustering.hpp"

#include <algorithm>
#include <numeric>

#include "dsslice/util/check.hpp"

namespace dsslice {

std::size_t Clustering::size_of(std::size_t cluster) const {
  return static_cast<std::size_t>(
      std::count(cluster_of.begin(), cluster_of.end(), cluster));
}

namespace {

/// Plain union-find with path compression.
class UnionFind {
 public:
  explicit UnionFind(std::size_t n) : parent_(n), size_(n, 1) {
    std::iota(parent_.begin(), parent_.end(), 0);
  }

  std::size_t find(std::size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }

  std::size_t size(std::size_t x) { return size_[find(x)]; }

  void unite(std::size_t a, std::size_t b) {
    a = find(a);
    b = find(b);
    if (a == b) {
      return;
    }
    if (size_[a] < size_[b]) {
      std::swap(a, b);
    }
    parent_[b] = a;
    size_[a] += size_[b];
  }

 private:
  std::vector<std::size_t> parent_;
  std::vector<std::size_t> size_;
};

}  // namespace

Clustering cluster_by_communication(const Application& app,
                                    double message_threshold,
                                    std::size_t max_cluster_size) {
  DSSLICE_REQUIRE(max_cluster_size >= 1, "cluster size cap must be >= 1");
  const std::size_t n = app.task_count();
  UnionFind uf(n);

  // Heaviest messages first so the size cap spends its budget on the arcs
  // that matter most.
  std::vector<Arc> arcs = app.graph().arcs();
  std::sort(arcs.begin(), arcs.end(), [](const Arc& a, const Arc& b) {
    if (a.message_items != b.message_items) {
      return a.message_items > b.message_items;
    }
    return a.from != b.from ? a.from < b.from : a.to < b.to;
  });
  for (const Arc& arc : arcs) {
    if (arc.message_items < message_threshold) {
      continue;
    }
    if (uf.find(arc.from) == uf.find(arc.to)) {
      continue;
    }
    if (uf.size(arc.from) + uf.size(arc.to) > max_cluster_size) {
      continue;
    }
    uf.unite(arc.from, arc.to);
  }

  Clustering clustering;
  clustering.cluster_of.resize(n);
  std::vector<std::size_t> dense(n, SIZE_MAX);
  for (NodeId v = 0; v < n; ++v) {
    const std::size_t root = uf.find(v);
    if (dense[root] == SIZE_MAX) {
      dense[root] = clustering.cluster_count++;
    }
    clustering.cluster_of[v] = dense[root];
  }
  return clustering;
}

}  // namespace dsslice

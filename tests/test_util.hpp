// Shared fixtures and builders for the dsslice test suite.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dsslice/dsslice.hpp"

namespace dsslice::testing {

/// FNV-1a 64-bit over a byte string: the digest the pin tests compare
/// against committed constants.
inline std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char ch : bytes) {
    h ^= static_cast<std::uint8_t>(ch);
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// A linear chain t0 ≺ t1 ≺ ... with uniform WCETs and one E-T-E deadline.
inline Application make_chain(std::size_t length, double wcet, Time deadline,
                              double message_items = 0.0) {
  ApplicationBuilder b;
  std::vector<NodeId> nodes;
  for (std::size_t i = 0; i < length; ++i) {
    nodes.push_back(b.add_uniform_task("t" + std::to_string(i), wcet));
  }
  b.add_chain(nodes, message_items);
  b.set_input_arrival(nodes.front(), 0.0);
  b.set_ete_deadline(nodes.back(), deadline);
  return b.build();
}

/// Diamond: src ≺ {mid_a, mid_b} ≺ sink. WCETs (src, a, b, sink).
inline Application make_diamond(double c_src, double c_a, double c_b,
                                double c_sink, Time deadline,
                                double message_items = 0.0) {
  ApplicationBuilder b;
  const NodeId src = b.add_uniform_task("src", c_src);
  const NodeId mid_a = b.add_uniform_task("mid_a", c_a);
  const NodeId mid_b = b.add_uniform_task("mid_b", c_b);
  const NodeId sink = b.add_uniform_task("sink", c_sink);
  b.add_precedence(src, mid_a, message_items);
  b.add_precedence(src, mid_b, message_items);
  b.add_precedence(mid_a, sink, message_items);
  b.add_precedence(mid_b, sink, message_items);
  b.set_input_arrival(src, 0.0);
  b.set_ete_deadline(sink, deadline);
  return b.build();
}

/// A small generator configuration for fast property sweeps.
inline GeneratorConfig small_generator(std::uint64_t seed,
                                       std::size_t processors = 3) {
  GeneratorConfig cfg;
  cfg.platform.processor_count = processors;
  cfg.workload.min_tasks = 12;
  cfg.workload.max_tasks = 24;
  cfg.workload.min_depth = 4;
  cfg.workload.max_depth = 6;
  cfg.graph_count = 1;
  cfg.base_seed = seed;
  return cfg;
}

/// The paper's default generator configuration (full size).
inline GeneratorConfig paper_generator(std::uint64_t seed,
                                       std::size_t processors = 3) {
  GeneratorConfig cfg;
  cfg.platform.processor_count = processors;
  cfg.base_seed = seed;
  return cfg;
}

}  // namespace dsslice::testing

// Shared fixtures and builders for the dsslice test suite.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <span>
#include <string>
#include <utility>
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

/// Seeded mutation fuzz over a pinned text: calls `visit(mutant, index)`
/// for `count` mutants, each the pinned text after one to three random
/// edits — a bit flip, a byte the line formats give meaning to (overwritten
/// or inserted), a deleted run, a line spliced before or over another, a
/// token replaced by one of `words`, or a truncation. The edit stream
/// depends only on `seed`, `pinned` and `words`.
template <typename Visit>
void for_each_mutant(const std::string& pinned, std::uint64_t seed,
                     int count, std::span<const char* const> words,
                     Visit&& visit) {
  static constexpr char kAlphabet[] = "0123456789abcdefABx+- \t\r\n#";
  Xoshiro256 rng(seed);
  const auto below = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng.next() % n);
  };
  // Lines are drawn first and a byte within the line second, so short
  // structural lines are hit as often as long ones.
  const auto random_line = [&](const std::string& text) {
    std::vector<std::size_t> starts = {0};
    for (std::size_t i = 0; i + 1 < text.size(); ++i) {
      if (text[i] == '\n') {
        starts.push_back(i + 1);
      }
    }
    const std::size_t begin = starts[below(starts.size())];
    const std::size_t eol = text.find('\n', begin);
    return std::pair{begin, eol == std::string::npos ? text.size() : eol + 1};
  };
  for (int m = 0; m < count; ++m) {
    std::string text = pinned;
    const std::size_t edits = 1 + below(3);
    for (std::size_t e = 0; e < edits && !text.empty(); ++e) {
      const auto [line, line_end] = random_line(text);
      const std::size_t at = line + below(line_end - line);
      switch (below(7)) {
        case 0:  // flip one bit
          text[at] = static_cast<char>(text[at] ^ (1 << below(8)));
          break;
        case 1:  // overwrite with a byte the format gives meaning to
          text[at] = kAlphabet[below(sizeof kAlphabet - 1)];
          break;
        case 2:  // insert a byte
          text.insert(at, 1, kAlphabet[below(sizeof kAlphabet - 1)]);
          break;
        case 3:  // delete a run of bytes
          text.erase(at, 1 + below(8));
          break;
        case 4: {  // splice: copy this line before or over another one
          const std::string copy = text.substr(line, line_end - line);
          const auto [to, to_end] = random_line(text);
          text.replace(to, below(2) == 0 ? 0 : to_end - to, copy);
          break;
        }
        case 5: {  // replace the token around `at` with a boundary word
          const auto blank = [](char c) { return c == ' ' || c == '\n'; };
          std::size_t begin = at;
          while (begin > 0 && !blank(text[begin - 1])) {
            --begin;
          }
          std::size_t end = at;
          while (end < text.size() && !blank(text[end])) {
            ++end;
          }
          text.replace(begin, end - begin, words[below(words.size())]);
          break;
        }
        default:  // truncate
          text.resize(at);
          break;
      }
    }
    visit(text, m);
  }
}

/// Holds every mutant of `for_each_mutant` to the parsers' contract for
/// hostile input: it either parses, and then serialize -> parse is a fixed
/// point, or throws ConfigError. Any other exception (or, under the
/// sanitize preset, any UB) fails the calling test. Returns how many
/// mutants parsed.
template <typename Parse, typename Serialize>
int parse_or_reject_mutants(const std::string& pinned, std::uint64_t seed,
                            int count, std::span<const char* const> words,
                            Parse parse, Serialize serialize) {
  int parsed = 0;
  for_each_mutant(pinned, seed, count, words,
                  [&](const std::string& text, int m) {
                    try {
                      const auto value = parse(text);
                      ++parsed;
                      const std::string again = serialize(value);
                      EXPECT_EQ(serialize(parse(again)), again)
                          << "mutant " << m;
                    } catch (const ConfigError&) {
                      // rejected with a line number
                    }
                  });
  return parsed;
}

/// `text` as a hand editor might leave it: a leading comment and blank
/// lines, tabs for spaces, indentation, trailing comments and CRLF endings.
inline std::string hand_edited(const std::string& text) {
  std::string edited = "# annotated by hand\r\n\r\n";
  std::size_t begin = 0;
  for (std::size_t eol; (eol = text.find('\n', begin)) != std::string::npos;
       begin = eol + 1) {
    std::string line = text.substr(begin, eol - begin);
    for (char& c : line) {
      c = c == ' ' ? '\t' : c;
    }
    edited += " \t" + line + "  # note\r\n \t\r\n";
  }
  EXPECT_EQ(begin, text.size()) << "text must end in a newline";
  return edited;
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

/// Ψ_i by breadth-first search (graph::reachable), independent of
/// GraphAnalysis: every j ≠ i that neither reaches i nor is reached by it,
/// in ascending order.
inline std::vector<NodeId> bfs_parallel_set(const TaskGraph& g, NodeId i) {
  std::vector<NodeId> parallel;
  for (NodeId j = 0; j < g.node_count(); ++j) {
    if (j != i && !reachable(g, i, j) && !reachable(g, j, i)) {
      parallel.push_back(j);
    }
  }
  return parallel;
}

/// Ψ_i as GraphAnalysis::for_each_parallel walks it (ascending).
inline std::vector<NodeId> walked_parallel_set(const GraphAnalysis& a,
                                               NodeId i) {
  std::vector<NodeId> walked;
  a.for_each_parallel(i, [&](NodeId j) { walked.push_back(j); });
  return walked;
}

/// DeadlineMetric::weights_into into a fresh vector.
inline std::vector<double> weights(const DeadlineMetric& metric,
                                   const Application& app,
                                   std::span<const double> est_wcet,
                                   std::size_t processor_count,
                                   const ResourceModel* resources = nullptr) {
  std::vector<double> w;
  metric.weights_into(app, est_wcet, processor_count, resources, w);
  return w;
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

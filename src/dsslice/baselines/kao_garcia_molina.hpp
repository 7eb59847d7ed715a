// Deadline-division baselines of Kao & Garcia-Molina [9, 10], generalized
// from task chains to DAGs.
//
// These strategies assign each task an absolute deadline derived from the
// end-to-end deadline and (for the smarter variants) the downstream
// workload; they do not produce non-overlapping slices. To make them
// comparable inside the paper's time-driven model we pair each deadline with
// the task's earliest-start time EST_i (communication-free forward pass over
// estimated WCETs) as its arrival — the least restrictive arrival compatible
// with the precedence constraints.
//
// Chain→DAG generalization (documented in DESIGN.md): the "remaining work
// after i" of the original chain formulas becomes the longest remaining
// chain, i.e. the static level SL_i; the "remaining task count" becomes the
// hop count of that chain; and the governing end-to-end deadline of i is the
// minimum E-T-E deadline over reachable output tasks.
//
//  UD  (ultimate deadline)  D_i = D
//  ED  (effective deadline) D_i = D − (SL_i − c̄_i)
//  EQS (equal slack)        D_i = EST_i + c̄_i + (D − EST_i − SL_i) / n_i
//  EQF (equal flexibility)  D_i = EST_i + c̄_i + (D − EST_i − SL_i)·c̄_i/SL_i
#pragma once

#include <span>
#include <string>
#include <vector>

#include "dsslice/model/application.hpp"
#include "dsslice/model/task.hpp"

namespace dsslice {

enum class KaoStrategy {
  kUltimateDeadline,
  kEffectiveDeadline,
  kEqualSlack,
  kEqualFlexibility,
};

std::string to_string(KaoStrategy strategy);

/// Governing E-T-E deadline of every task: the minimum E-T-E deadline over
/// the output tasks it reaches (an output's own). One reverse-topological
/// pass; shared by the Kao, Bettati-Liu and iterative-refinement
/// baselines. Requires an E-T-E deadline on every output task.
std::vector<Time> governing_deadlines(const Application& app);

/// Distributes deadlines per the selected strategy. `est_wcet` are the
/// estimated WCETs c̄_i used for all workload terms.
DeadlineAssignment distribute_kao(const Application& app,
                                  std::span<const double> est_wcet,
                                  KaoStrategy strategy);

}  // namespace dsslice

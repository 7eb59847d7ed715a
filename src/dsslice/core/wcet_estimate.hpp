// Estimated WCETs c̄_i for relaxed locality constraints (§5.3).
//
// Before task assignment is known, a task's execution time is ambiguous on a
// heterogeneous platform: it depends on which processor class it will land
// on. Deadline distribution therefore works with an *estimate* c̄_i derived
// from the per-class WCET table. The paper studies three strategies.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "dsslice/model/application.hpp"

namespace dsslice {

enum class WcetEstimation {
  kAverage,  ///< WCET-AVG: mean over all eligible classes (Eq. 9)
  kMax,      ///< WCET-MAX: pessimistic maximum (Eq. 10)
  kMin,      ///< WCET-MIN: optimistic minimum (Eq. 11)
};

std::string to_string(WcetEstimation strategy);

/// Computes c̄_i for every task. Only eligible classes participate ("all
/// valid execution times"); applications must have ≥1 eligible class per
/// task (enforced by Application::validate).
std::vector<double> estimate_wcets(const Application& app,
                                   WcetEstimation strategy);

/// Allocation-free variant writing into a reusable buffer (batch sweeps).
void estimate_wcets_into(const Application& app, WcetEstimation strategy,
                         std::vector<double>& out);

/// Single-task variant.
double estimate_wcet(const Task& task, WcetEstimation strategy);

/// Scales an estimate vector down to the *mandatory* demand of each task,
/// written into a reusable buffer: out[i] = (1 − optional_fraction_i) ·
/// est_wcet[i]. Tasks with no optional part keep their estimate
/// bit-identically. Deadline distribution plans against mandatory demand so
/// the optional parts surface as recoverable slack (docs/ROBUSTNESS.md,
/// "Graceful degradation").
void mandatory_estimates_into(const Application& app,
                              std::span<const double> est_wcet,
                              std::vector<double>& out);

}  // namespace dsslice

// Time base for the simulation.
//
// The paper assumes a discrete global system time (t ∈ N) with all
// application parameters expressed in integral time units. Deadline slicing,
// however, produces rational slice boundaries (windows are divided by task
// counts / execution-time sums). We therefore represent time as `double`:
// all generated inputs are integral, and every boundary is computed from a
// single closed-form expression over integral inputs (prefix sums), so
// comparisons are reproducible and windows tile exactly.
#pragma once

#include <limits>
#include <string>

namespace dsslice {

/// Simulation time, in paper "time units".
using Time = double;

inline constexpr Time kTimeZero = 0.0;
inline constexpr Time kTimeInfinity = std::numeric_limits<Time>::infinity();

/// Absolute tolerance of the time comparisons that forgive floating-point
/// representation error (the dispatcher's and the preemptive simulator's
/// event instants, the validators' defaults, recovery, diagnosis,
/// feasibility, branch and bound, iterative refinement and the robustness
/// harness's E-T-E check). The list scheduler compares deadlines exactly.
inline constexpr Time kTimeTolerance = 1e-9;

/// Half-open / closed execution window [arrival, deadline] of a task.
struct Window {
  Time arrival = kTimeZero;     ///< earliest start time a_i
  Time deadline = kTimeInfinity;  ///< absolute deadline D_i

  /// Window length |w_i| = D_i - a_i; negative for inverted windows, which
  /// can arise when the end-to-end deadline is infeasibly tight.
  Time length() const { return deadline - arrival; }

  /// True when the window can hold an execution of duration `c`.
  bool fits(Time c) const { return length() >= c; }

  bool operator==(const Window&) const = default;
};

/// Human-readable "[a, D]" rendering used in logs and schedule dumps.
std::string to_string(const Window& w);

/// Greatest common divisor / least common multiple on integral time values
/// (used by the planning-cycle computation for periodic task sets).
long long time_gcd(long long a, long long b);
long long time_lcm(long long a, long long b);

}  // namespace dsslice

// Random heterogeneous platform generation (§5.1).
#pragma once

#include <vector>

#include "dsslice/gen/generator_config.hpp"
#include "dsslice/gen/rng.hpp"
#include "dsslice/model/platform.hpp"

namespace dsslice {

/// Draws a platform per the paper's setup: the class count m_e is uniform in
/// [min_class_count, max_class_count]; every class gets a speed factor
/// s_e ~ U[1-h, 1+h] (stored in ProcessorClass::speed_factor and consumed by
/// the workload generator in ClassModel::kUniformFactors mode); each of the
/// m processors is assigned a uniformly random class; the interconnect is a
/// time-multiplexed shared bus.
Platform generate_platform(const PlatformConfig& config, Xoshiro256& rng);

/// Staging buffers for generate_platform_into, reused across calls.
struct PlatformDraw {
  std::vector<ProcessorClass> classes;
  std::vector<ProcessorClassId> class_of;
};

/// In-place variant: draws the same platform as generate_platform, draw for
/// draw, into `out` through Platform::assign_shared_bus. Allocation-free once
/// `draw` and `out` have held a platform with as many classes and
/// processors.
void generate_platform_into(Platform& out, const PlatformConfig& config,
                            Xoshiro256& rng, PlatformDraw& draw);

}  // namespace dsslice

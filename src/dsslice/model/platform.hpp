// Multiprocessor platform: processors, their classes, and the interconnect.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "dsslice/model/interconnect.hpp"
#include "dsslice/model/processor.hpp"
#include "dsslice/model/time.hpp"

namespace dsslice {

/// Graham-style machine classification (§3.1).
enum class MachineKind {
  kIdentical,  ///< single class: every task runs equally fast everywhere
  kUniform,    ///< per-class speed factor scales a common base time
  kUnrelated,  ///< per-(task, class) execution times are arbitrary
};

std::string to_string(MachineKind kind);

/// A heterogeneous multiprocessor P = {p_q} with class set E and a network.
///
/// The platform owns its interconnect. Copying a platform clones the
/// interconnect settings for the shared-bus case (the only copyable model the
/// generator produces); platforms with custom networks are move-only in
/// practice.
class Platform {
 public:
  /// Convenience factory for the paper's platform: `m` processors drawn from
  /// `classes`, shared bus with unit per-item delay. `class_of[q]` gives each
  /// processor's class index; it must have `m` entries.
  static Platform shared_bus(std::vector<ProcessorClass> classes,
                             std::vector<ProcessorClassId> class_of,
                             Time per_item_delay = 1.0);

  /// Homogeneous convenience factory: `m` identical processors, shared bus.
  static Platform identical(std::size_t m, Time per_item_delay = 1.0);

  Platform(std::vector<ProcessorClass> classes, std::vector<Processor> procs,
           std::shared_ptr<const Interconnect> network);

  /// Rebuilds this platform in place as shared_bus(classes, class_of,
  /// per_item_delay) would build it, reusing the class and processor
  /// storage. The current network is kept when it already is a SharedBus
  /// with the same per-item delay: interconnects are immutable, so copies
  /// taken earlier may keep sharing it. No heap allocation once the storage
  /// has held as many classes and processors.
  void assign_shared_bus(std::span<const ProcessorClass> classes,
                         std::span<const ProcessorClassId> class_of,
                         Time per_item_delay);

  std::size_t processor_count() const { return processors_.size(); }
  std::size_t class_count() const { return classes_.size(); }

  const Processor& processor(ProcessorId p) const;
  const ProcessorClass& processor_class(ProcessorClassId e) const;
  ProcessorClassId class_of(ProcessorId p) const;

  const std::vector<Processor>& processors() const { return processors_; }
  const std::vector<ProcessorClass>& classes() const { return classes_; }

  const Interconnect& network() const { return *network_; }

  /// Worst-case message delay between two processors (0 when co-located).
  Time comm_delay(ProcessorId src, ProcessorId dst, double items) const;

  /// Number of processors belonging to class `e`.
  std::size_t processors_in_class(ProcessorClassId e) const;

 private:
  Platform() = default;

  std::vector<ProcessorClass> classes_;
  std::vector<Processor> processors_;
  std::shared_ptr<const Interconnect> network_;
};

}  // namespace dsslice

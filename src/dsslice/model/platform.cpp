#include "dsslice/model/platform.hpp"

#include <algorithm>

#include "dsslice/util/check.hpp"

namespace dsslice {

std::string to_string(MachineKind kind) {
  switch (kind) {
    case MachineKind::kIdentical:
      return "identical";
    case MachineKind::kUniform:
      return "uniform";
    case MachineKind::kUnrelated:
      return "unrelated";
  }
  return "unknown";
}

Platform Platform::shared_bus(std::vector<ProcessorClass> classes,
                              std::vector<ProcessorClassId> class_of,
                              Time per_item_delay) {
  Platform platform;
  platform.assign_shared_bus(classes, class_of, per_item_delay);
  return platform;
}

void Platform::assign_shared_bus(std::span<const ProcessorClass> classes,
                                 std::span<const ProcessorClassId> class_of,
                                 Time per_item_delay) {
  DSSLICE_REQUIRE(!classes.empty(), "at least one processor class required");
  DSSLICE_REQUIRE(!class_of.empty(), "at least one processor required");
  for (const ProcessorClassId e : class_of) {
    DSSLICE_REQUIRE(e < classes.size(), "processor class index out of range");
  }
  classes_.assign(classes.begin(), classes.end());
  processors_.resize(class_of.size());
  for (std::size_t q = 0; q < class_of.size(); ++q) {
    // Reset every field: a recycled slot may carry another platform's state.
    processors_[q] = Processor{"p" + std::to_string(q), class_of[q]};
  }
  const auto* bus = dynamic_cast<const SharedBus*>(network_.get());
  if (bus == nullptr || bus->per_item_delay() != per_item_delay) {
    network_ = std::make_shared<SharedBus>(per_item_delay);
  }
}

Platform Platform::identical(std::size_t m, Time per_item_delay) {
  DSSLICE_REQUIRE(m > 0, "at least one processor required");
  std::vector<ProcessorClass> classes{ProcessorClass{"e0", 1.0}};
  std::vector<ProcessorClassId> class_of(m, 0);
  return shared_bus(std::move(classes), std::move(class_of), per_item_delay);
}

Platform::Platform(std::vector<ProcessorClass> classes,
                   std::vector<Processor> procs,
                   std::shared_ptr<const Interconnect> network)
    : classes_(std::move(classes)),
      processors_(std::move(procs)),
      network_(std::move(network)) {
  DSSLICE_REQUIRE(!classes_.empty(), "at least one processor class required");
  DSSLICE_REQUIRE(!processors_.empty(), "at least one processor required");
  DSSLICE_REQUIRE(network_ != nullptr, "platform needs an interconnect");
  for (const Processor& p : processors_) {
    DSSLICE_REQUIRE(p.klass < classes_.size(),
                    "processor references unknown class");
  }
}

const Processor& Platform::processor(ProcessorId p) const {
  DSSLICE_REQUIRE(p < processors_.size(), "processor id out of range");
  return processors_[p];
}

const ProcessorClass& Platform::processor_class(ProcessorClassId e) const {
  DSSLICE_REQUIRE(e < classes_.size(), "class id out of range");
  return classes_[e];
}

ProcessorClassId Platform::class_of(ProcessorId p) const {
  return processor(p).klass;
}

Time Platform::comm_delay(ProcessorId src, ProcessorId dst,
                          double items) const {
  DSSLICE_REQUIRE(src < processors_.size() && dst < processors_.size(),
                  "processor id out of range");
  return network_->delay(src, dst, items);
}

std::size_t Platform::processors_in_class(ProcessorClassId e) const {
  DSSLICE_REQUIRE(e < classes_.size(), "class id out of range");
  return static_cast<std::size_t>(
      std::count_if(processors_.begin(), processors_.end(),
                    [e](const Processor& p) { return p.klass == e; }));
}

}  // namespace dsslice

// Abstract device: anything that stamps into the MNA system.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "netlist/node.h"
#include "netlist/stamp_context.h"

namespace cmldft::netlist {

/// Base class for all circuit elements. Concrete models live in devices/.
///
/// A device owns its parameter values; terminal connectivity is a list of
/// NodeIds that the defect-injection layer may rewire (node splits for
/// opens). Devices are cloneable so faulty netlist copies are cheap to make.
class Device {
 public:
  Device(std::string name, std::vector<NodeId> nodes)
      : name_(std::move(name)), nodes_(std::move(nodes)) {}
  virtual ~Device() = default;

  Device(const Device&) = default;
  Device& operator=(const Device&) = default;

  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  int num_terminals() const { return static_cast<int>(nodes_.size()); }
  NodeId node(int terminal) const { return nodes_.at(static_cast<size_t>(terminal)); }
  const std::vector<NodeId>& nodes() const { return nodes_; }
  /// Rewire one terminal (used by defect injection to split nodes).
  void set_node(int terminal, NodeId n) { nodes_.at(static_cast<size_t>(terminal)) = n; }

  /// Number of branch-current unknowns this device contributes (e.g. 1 for
  /// an ideal voltage source).
  virtual int num_branches() const { return 0; }
  /// Number of integrator state slots (charges/currents) this device keeps.
  virtual int num_states() const { return 0; }
  /// Nonlinear devices force Newton iteration even in linear circuits.
  virtual bool is_nonlinear() const { return false; }

  /// Load the device's linearized companion model at the present iterate.
  ///
  /// Contract binding sparse assembly, which replays a compiled stamp plan
  /// (sim/mna.h): the *sequence* of Add*/SetState calls — their
  /// destinations and order — must be a pure function of the netlist
  /// topology and the analysis context, never of the iterate. Only the
  /// stamped *values* may depend on the iterate. A context change may
  /// alter the sequence (e.g. charge companions joining in transient mode)
  /// as long as it changes the call count too; replay detects that per
  /// device and re-records. Debug builds additionally verify every
  /// destination against the plan. Dense and hierarchical assembly
  /// accumulate directly and do not rely on it.
  virtual void Stamp(StampContext& ctx) const = 0;

  /// Deep copy (for building faulty variants of a circuit).
  virtual std::unique_ptr<Device> Clone() const = 0;

  /// One-word device kind for reports ("resistor", "bjt", ...).
  virtual std::string_view kind() const = 0;

  /// Position of this device in its owning netlist's stable device order
  /// (-1 while unowned). Maintained by Netlist; MNA systems use it as a
  /// dense per-device index instead of hashing device pointers.
  int ordinal() const { return ordinal_; }
  void set_ordinal(int ordinal) { ordinal_ = ordinal; }

 private:
  std::string name_;
  std::vector<NodeId> nodes_;
  int ordinal_ = -1;
};

inline int StampContext::BranchUnknown(const Device& dev, int slot) const {
  const size_t i = static_cast<size_t>(dev.ordinal());
  assert(i < slots_->size() && "device not part of this MNA system");
  const int offset = (*slots_)[i].branch_offset;
  assert(offset >= 0 && slot < dev.num_branches());
  return offset + slot;
}

inline int StampContext::StateSlot(const Device& dev, int slot) const {
  const size_t i = static_cast<size_t>(dev.ordinal());
  assert(i < slots_->size() && "device not part of this MNA system");
  const int offset = (*slots_)[i].state_offset;
  assert(offset >= 0 && slot < dev.num_states());
  return offset + slot;
}

}  // namespace cmldft::netlist

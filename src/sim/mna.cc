#include "sim/mna.h"

#include <cassert>
#include <unordered_set>

#include "sim/hier.h"
#include "util/telemetry.h"

namespace cmldft::sim {

using netlist::Device;
using netlist::NodeId;

namespace {
struct AssemblyMetrics {
  util::telemetry::Counter plan_compiles =
      util::telemetry::GetCounter("sim.assembly.plan_compiles");
  util::telemetry::Counter plan_mismatches =
      util::telemetry::GetCounter("sim.assembly.plan_mismatches");
};
const AssemblyMetrics& Metrics() {
  static const AssemblyMetrics m;
  return m;
}
// Register at load time so snapshots list these metrics even when no
// assembly ran — the telemetry schema must not depend on code paths.
[[maybe_unused]] const AssemblyMetrics& kEagerRegistration = Metrics();
}  // namespace

MnaSystem::MnaSystem(const netlist::Netlist& netlist)
    : StampContext(analysis_, slots_, prev_states_, curr_states_),
      netlist_(&netlist) {
  num_devices_ = netlist.num_devices();
  num_node_unknowns_ = netlist.num_nodes() - 1;  // ground excluded
  int branch_cursor = num_node_unknowns_;
  int state_cursor = 0;
  slots_.resize(static_cast<size_t>(num_devices_));
  for (int i = 0; i < num_devices_; ++i) {
    const Device& dev = netlist.device(i);
    assert(dev.ordinal() == i && "netlist device ordinals out of sync");
    netlist::DeviceSlots& s = slots_[static_cast<size_t>(i)];
    if (dev.num_branches() > 0) {
      s.branch_offset = branch_cursor;
      branch_cursor += dev.num_branches();
    }
    if (dev.num_states() > 0) {
      s.state_offset = state_cursor;
      state_cursor += dev.num_states();
    }
  }
  num_unknowns_ = branch_cursor;
  num_states_ = state_cursor;
  jacobian_ = linalg::Matrix(static_cast<size_t>(num_unknowns_),
                             static_cast<size_t>(num_unknowns_));
  rhs_.assign(static_cast<size_t>(num_unknowns_), 0.0);
  prev_states_.assign(static_cast<size_t>(num_states_), 0.0);
  curr_states_.assign(static_cast<size_t>(num_states_), 0.0);
}

MnaSystem::~MnaSystem() = default;

HierSolver* MnaSystem::GetHierSolver() {
  if (!hier_checked_) {
    hier_checked_ = true;
    auto solver = std::make_unique<HierSolver>(this);
    if (solver->usable()) hier_ = std::move(solver);
  }
  return hier_.get();
}

int MnaSystem::UnknownOfNode(NodeId node) const {
  assert(node >= 0 && node < netlist_->num_nodes());
  return node == netlist::kGroundNode ? -1 : node - 1;
}

int MnaSystem::UnknownOfBranch(const Device& dev, int slot) const {
  assert(&netlist_->device(dev.ordinal()) == &dev &&
         "device ordinal does not match this system's netlist");
  return BranchUnknown(dev, slot);
}

void MnaSystem::set_sparse(bool sparse) {
  sparse_ = sparse;
  if (sparse_ && sparse_jac_.dimension() != static_cast<size_t>(num_unknowns_)) {
    sparse_jac_ = linalg::SparseBuilder(static_cast<size_t>(num_unknowns_));
  }
}

void MnaSystem::Assemble(const linalg::Vector& iterate) {
  assert(static_cast<int>(iterate.size()) == num_unknowns_);
  assert(netlist_->num_devices() == num_devices_ &&
         "netlist devices changed after MnaSystem construction");
  set_iterate(&iterate);
  if (!sparse_) {
    DenseAssemble();
  } else if (!plan_ready_ ||
             sparse_jac_.pattern_version() != plan_pattern_version_ ||
             !ReplayAssemble()) {
    RecordAssemble();
  }
  set_iterate(nullptr);
}

void MnaSystem::DenseAssemble() {
  jacobian_.Fill(0.0);
  std::fill(rhs_.begin(), rhs_.end(), 0.0);
  for (int i = 0; i < num_devices_; ++i) netlist_->device(i).Stamp(*this);
}

void MnaSystem::RecordAssemble() {
  phase_ = AssemblyPhase::kRecording;
  plan_ready_ = false;
  rec_mat_.clear();
  rhs_plan_.clear();
  state_plan_.clear();
  spans_.assign(static_cast<size_t>(num_devices_), DeviceSpan{});
  sparse_jac_.Clear();
  std::fill(rhs_.begin(), rhs_.end(), 0.0);
  for (int i = 0; i < num_devices_; ++i) {
    DeviceSpan& span = spans_[static_cast<size_t>(i)];
    span.mat_begin = static_cast<uint32_t>(rec_mat_.size());
    span.rhs_begin = static_cast<uint32_t>(rhs_plan_.size());
    span.state_begin = static_cast<uint32_t>(state_plan_.size());
    netlist_->device(i).Stamp(*this);
    span.mat_end = static_cast<uint32_t>(rec_mat_.size());
    span.rhs_end = static_cast<uint32_t>(rhs_plan_.size());
    span.state_end = static_cast<uint32_t>(state_plan_.size());
  }
  phase_ = AssemblyPhase::kDense;
  CompilePlan();
}

void MnaSystem::CompilePlan() {
  const size_t n = static_cast<size_t>(num_unknowns_);
  mat_plan_.resize(rec_mat_.size());
  std::unordered_set<uint64_t> seen;
  seen.reserve(rec_mat_.size() * 2);
  for (size_t k = 0; k < rec_mat_.size(); ++k) {
    const auto [r, c] = rec_mat_[k];
    double* target =
        sparse_jac_.SlotPointer(static_cast<size_t>(r), static_cast<size_t>(c));
    assert(target != nullptr && "recorded slot missing from sparse pattern");
    if (target == nullptr) return;  // leave plan_ready_ false
    const bool first =
        seen.insert(static_cast<uint64_t>(r) * n + static_cast<uint64_t>(c))
            .second;
    mat_plan_[k] = MatrixWrite{target, PackRc(r, c) | (first ? kAssignBit : 0)};
  }
  // Sentinels (see the header): a key/row no stamp can produce terminates
  // each stream so the replay path needs no bounds checks.
  mat_plan_.push_back(MatrixWrite{nullptr, ~0ull});
  rhs_plan_.push_back(-1);
  state_plan_.push_back(-1);

  plan_pattern_version_ = sparse_jac_.pattern_version();
  plan_ready_ = true;
  Metrics().plan_compiles.Increment();
}

bool MnaSystem::ReplayAssemble() {
  phase_ = AssemblyPhase::kReplaying;
  plan_mismatch_ = false;
  std::fill(rhs_.begin(), rhs_.end(), 0.0);
  mat_cursor_ = rhs_cursor_ = state_cursor_ = 0;
  for (int i = 0; i < num_devices_; ++i) {
    const DeviceSpan& span = spans_[static_cast<size_t>(i)];
    netlist_->device(i).Stamp(*this);
    // A device may legitimately take a different conditional stamp path
    // than the recorded one (e.g. a charge companion crossing zero); the
    // per-call checks catch wrong destinations, the span check catches a
    // shorter call sequence.
    if (plan_mismatch_ || mat_cursor_ != span.mat_end ||
        rhs_cursor_ != span.rhs_end || state_cursor_ != span.state_end) {
      plan_mismatch_ = true;
      break;
    }
  }
  phase_ = AssemblyPhase::kDense;
  if (plan_mismatch_) {
    plan_ready_ = false;
    Metrics().plan_mismatches.Increment();
    return false;
  }
  return true;
}

void MnaSystem::RotateStates() {
  prev_states_ = curr_states_;
}

void MnaSystem::ResetCurrentStates() {
  curr_states_ = prev_states_;
}

void MnaSystem::AddMatrix(int r, int c, double v) {
  if (phase_ == AssemblyPhase::kReplaying) {
    const MatrixWrite& e = mat_plan_[mat_cursor_];
    // The sentinel's null target stops a device that stamps past its
    // recorded span. Release builds rely on that plus the per-device call
    // count checks — sufficient because stamp destinations are a pure
    // function of topology and context (contract on Device::Stamp); debug
    // builds verify every destination.
    if (e.target == nullptr) {
      plan_mismatch_ = true;
      return;
    }
#ifndef NDEBUG
    if ((e.key & ~kAssignBit) != PackRc(r, c)) {
      plan_mismatch_ = true;
      return;
    }
#endif
    ++mat_cursor_;
    if (e.key & kAssignBit) {
      // First touch of this slot: store instead of accumulating so replay
      // can skip re-clearing the builder (see MatrixWrite in the header).
      *e.target = v;
    } else {
      *e.target += v;
    }
    return;
  }
  if (phase_ == AssemblyPhase::kRecording) {
    rec_mat_.push_back({r, c});
    sparse_jac_.Add(static_cast<size_t>(r), static_cast<size_t>(c), v);
    return;
  }
  jacobian_(static_cast<size_t>(r), static_cast<size_t>(c)) += v;
}

void MnaSystem::AddRhs(int r, double v) {
  if (phase_ == AssemblyPhase::kReplaying) {
    if (rhs_plan_[rhs_cursor_] != static_cast<int32_t>(r)) {
      plan_mismatch_ = true;  // includes the -1 sentinel past the end
      return;
    }
    ++rhs_cursor_;
    rhs_[static_cast<size_t>(r)] += v;
    return;
  }
  if (phase_ == AssemblyPhase::kRecording) {
    rhs_plan_.push_back(static_cast<int32_t>(r));
  }
  rhs_[static_cast<size_t>(r)] += v;
}

void MnaSystem::WriteState(int slot, double value) {
  const size_t s = static_cast<size_t>(slot);
  if (phase_ == AssemblyPhase::kReplaying) {
    if (state_plan_[state_cursor_] != static_cast<int32_t>(slot)) {
      plan_mismatch_ = true;  // includes the -1 sentinel past the end
      return;
    }
    ++state_cursor_;
    curr_states_[s] = value;
    return;
  }
  if (phase_ == AssemblyPhase::kRecording) {
    state_plan_.push_back(static_cast<int32_t>(slot));
  }
  curr_states_[s] = value;
}

}  // namespace cmldft::sim

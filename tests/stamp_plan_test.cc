// The compiled stamp plan must be invisible: for any netlist, any mode
// sequence, and any iterate, a reused sparse system that replays its plan
// produces a Jacobian, RHS, and state vector bit-identical to a fresh
// system's first (recording) assembly — across mode/context switches that
// force devices down different conditional stamp paths (plan mismatch +
// re-record), across state rotations and rejected steps, and across
// switches between sparse and dense routing. Dense and sparse routing
// assemble the same values.
#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <memory>
#include <vector>

#include "devices/bjt.h"
#include "devices/diode.h"
#include "devices/passive.h"
#include "devices/sources.h"
#include "sim/mna.h"
#include "util/rng.h"
#include "util/strings.h"

namespace cmldft {
namespace {

using devices::Waveform;
using netlist::NodeId;

// Random mixed-device netlist: every device kind the simulator knows,
// wired to random nodes (ground included, so dropped stamps are covered).
netlist::Netlist RandomNetlist(uint64_t seed, int num_nodes, int num_devices) {
  util::Rng rng(seed);
  netlist::Netlist nl;
  std::vector<NodeId> nodes = {netlist::kGroundNode};
  for (int i = 0; i < num_nodes; ++i) {
    nodes.push_back(nl.AddNode(util::StrPrintf("n%d", i)));
  }
  auto pick = [&] { return nodes[rng.NextBelow(nodes.size())]; };
  for (int i = 0; i < num_devices; ++i) {
    const std::string name = util::StrPrintf("d%d", i);
    switch (rng.NextBelow(7)) {
      case 0:
        nl.AddDevice(std::make_unique<devices::Resistor>(
            name, pick(), pick(), rng.NextDouble(100.0, 10e3)));
        break;
      case 1:
        nl.AddDevice(std::make_unique<devices::Capacitor>(
            name, pick(), pick(), rng.NextDouble(1e-15, 1e-12)));
        break;
      case 2:
        nl.AddDevice(std::make_unique<devices::Diode>(name, pick(), pick()));
        break;
      case 3:
        nl.AddDevice(
            std::make_unique<devices::Bjt>(name, pick(), pick(), pick()));
        break;
      case 4:
        nl.AddDevice(std::make_unique<devices::VSource>(
            name, pick(), pick(), Waveform::Dc(rng.NextDouble(-2.0, 2.0))));
        break;
      case 5:
        nl.AddDevice(std::make_unique<devices::ISource>(
            name, pick(), pick(), Waveform::Dc(rng.NextDouble(-1e-3, 1e-3))));
        break;
      default:
        nl.AddDevice(std::make_unique<devices::Vcvs>(
            name, pick(), pick(), pick(), pick(), rng.NextDouble(-4.0, 4.0)));
        break;
    }
  }
  return nl;
}

linalg::Vector RandomIterate(util::Rng& rng, int n) {
  linalg::Vector x(static_cast<size_t>(n));
  for (double& v : x) v = rng.NextDouble(-1.2, 1.2);
  return x;
}

// Bitwise double equality (distinguishes -0.0 from +0.0 and is NaN-safe).
::testing::AssertionResult BitEqual(double a, double b, const char* what,
                                    size_t index) {
  uint64_t ba, bb;
  std::memcpy(&ba, &a, sizeof(ba));
  std::memcpy(&bb, &b, sizeof(bb));
  if (ba == bb) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << what << "[" << index << "]: " << a << " vs " << b
         << " (bits differ)";
}

struct SparseEntry {
  size_t row, col;
  double value;
};

std::vector<SparseEntry> Entries(const linalg::SparseBuilder& b) {
  std::vector<SparseEntry> out;
  b.ForEach([&](size_t r, size_t c, double v) { out.push_back({r, c, v}); });
  return out;
}

void ExpectIdentical(const sim::MnaSystem& reused,
                     const sim::MnaSystem& fresh) {
  if (reused.sparse()) {
    const auto pe = Entries(reused.sparse_jacobian());
    const auto le = Entries(fresh.sparse_jacobian());
    ASSERT_EQ(pe.size(), le.size());
    for (size_t k = 0; k < pe.size(); ++k) {
      EXPECT_EQ(pe[k].row, le[k].row) << "entry " << k;
      EXPECT_EQ(pe[k].col, le[k].col) << "entry " << k;
      EXPECT_TRUE(BitEqual(pe[k].value, le[k].value, "sparse", k));
    }
  } else {
    const size_t n = static_cast<size_t>(reused.num_unknowns());
    for (size_t i = 0; i < n * n; ++i) {
      ASSERT_TRUE(BitEqual(reused.jacobian().data()[i],
                           fresh.jacobian().data()[i], "jacobian", i));
    }
  }
  for (size_t i = 0; i < reused.rhs().size(); ++i) {
    ASSERT_TRUE(BitEqual(reused.rhs()[i], fresh.rhs()[i], "rhs", i));
  }
  const std::vector<double>& rs = reused.current_states();
  const std::vector<double>& fs = fresh.current_states();
  ASSERT_EQ(rs.size(), fs.size());
  for (size_t i = 0; i < rs.size(); ++i) {
    ASSERT_TRUE(BitEqual(rs[i], fs[i], "state", i));
  }
}

// One step of an analysis history: a context change (including state
// rotation/reset) or an assembly at a given iterate.
struct Step {
  std::function<void(sim::MnaSystem&)> configure;
  linalg::Vector iterate;  // empty: configure-only step
};

// Drives one reused system through `history` and, after every assembly,
// rebuilds the state it had on a fresh system: the steps before run with
// dense routing (same states, no plan), then the fresh system makes its
// first assembly in the reused system's routing — for sparse, a recording.
// Every pair must be bitwise equal.
void RunAgainstFresh(const netlist::Netlist& nl,
                     const std::vector<Step>& history) {
  sim::MnaSystem reused(nl);
  for (size_t k = 0; k < history.size(); ++k) {
    if (history[k].configure) history[k].configure(reused);
    if (history[k].iterate.empty()) continue;
    reused.Assemble(history[k].iterate);

    sim::MnaSystem fresh(nl);
    for (size_t j = 0; j < k; ++j) {
      if (history[j].configure) history[j].configure(fresh);
      if (history[j].iterate.empty()) continue;
      fresh.set_sparse(false);
      fresh.Assemble(history[j].iterate);
    }
    if (history[k].configure) history[k].configure(fresh);
    fresh.set_sparse(reused.sparse());
    fresh.Assemble(history[k].iterate);
    ExpectIdentical(reused, fresh);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// DC iterations, a switch to transient (charge companions activate, so
// devices take different conditional stamp paths — the plan must
// re-record, not replay garbage), accepted timepoints, and a rejected
// step retried with a smaller dt.
std::vector<Step> AnalysisHistory(util::Rng& rng, int n, bool sparse) {
  std::vector<Step> h;
  auto config = [&h](std::function<void(sim::MnaSystem&)> fn) {
    h.push_back({std::move(fn), {}});
  };
  auto assemble = [&] { h.push_back({nullptr, RandomIterate(rng, n)}); };
  config([sparse](sim::MnaSystem& m) {
    m.set_sparse(sparse);
    m.set_mode(netlist::AnalysisMode::kDcOperatingPoint);
    m.set_initializing_state(true);
  });
  for (int iter = 0; iter < 4; ++iter) assemble();
  config([](sim::MnaSystem& m) {
    m.RotateStates();
    m.set_mode(netlist::AnalysisMode::kTransient);
    m.set_initializing_state(false);
    m.set_dt(1e-12);
    m.set_time(1e-12);
  });
  for (int step = 0; step < 3; ++step) {
    for (int iter = 0; iter < 3; ++iter) assemble();
    config([step](sim::MnaSystem& m) {
      m.RotateStates();
      m.set_time(1e-12 * (step + 2));
    });
  }
  config([](sim::MnaSystem& m) {
    m.ResetCurrentStates();
    m.set_dt(2.5e-13);
  });
  assemble();
  return h;
}

void RunHistory(uint64_t seed, bool sparse) {
  const netlist::Netlist nl = RandomNetlist(seed, /*num_nodes=*/9,
                                            /*num_devices=*/24);
  util::Rng rng(seed ^ 0xD1CEull);
  const int n = sim::MnaSystem(nl).num_unknowns();
  RunAgainstFresh(nl, AnalysisHistory(rng, n, sparse));
}

TEST(StampPlanTest, RandomNetlistsDenseBitIdentical) {
  for (uint64_t seed = 1; seed <= 8; ++seed) RunHistory(seed, /*sparse=*/false);
}

TEST(StampPlanTest, RandomNetlistsSparseBitIdentical) {
  for (uint64_t seed = 1; seed <= 8; ++seed) RunHistory(seed, /*sparse=*/true);
}

// Switching a system between sparse and dense routing mid-life must not
// replay a stale plan or leave the other backend's storage half-built.
TEST(StampPlanTest, SurvivesSparseDenseSwitch) {
  const netlist::Netlist nl = RandomNetlist(3, 8, 20);
  util::Rng rng(99);
  const int n = sim::MnaSystem(nl).num_unknowns();
  std::vector<Step> history;
  for (const bool sparse : {false, true, false, true, true}) {
    history.push_back({[sparse](sim::MnaSystem& m) { m.set_sparse(sparse); },
                       RandomIterate(rng, n)});
  }
  RunAgainstFresh(nl, history);
}

// Dense and sparse routing of the same assembly agree in value (the sign
// of an exact zero may differ: dense accumulates into +0.0).
TEST(StampPlanTest, DenseAndSparseRoutingAssembleEqualValues) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    const netlist::Netlist nl = RandomNetlist(seed, 9, 24);
    sim::MnaSystem dense(nl);
    sim::MnaSystem sparse(nl);
    sparse.set_sparse(true);
    util::Rng rng(seed);
    for (const bool transient : {false, true}) {
      for (sim::MnaSystem* m : {&dense, &sparse}) {
        m->set_mode(transient ? netlist::AnalysisMode::kTransient
                              : netlist::AnalysisMode::kDcOperatingPoint);
        m->set_initializing_state(!transient);
        m->set_dt(1e-12);
      }
      for (int iter = 0; iter < 3; ++iter) {
        const linalg::Vector x = RandomIterate(rng, dense.num_unknowns());
        dense.Assemble(x);
        sparse.Assemble(x);
        const linalg::Matrix s = sparse.sparse_jacobian().ToDense();
        const size_t nu = static_cast<size_t>(dense.num_unknowns());
        for (size_t i = 0; i < nu * nu; ++i) {
          ASSERT_EQ(dense.jacobian().data()[i], s.data()[i])
              << "seed " << seed << " entry " << i;
        }
        for (size_t i = 0; i < nu; ++i) {
          ASSERT_TRUE(BitEqual(dense.rhs()[i], sparse.rhs()[i], "rhs", i))
              << "seed " << seed;
        }
      }
      dense.RotateStates();
      sparse.RotateStates();
    }
  }
}

}  // namespace
}  // namespace cmldft

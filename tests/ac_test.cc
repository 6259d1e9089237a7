// AC small-signal tests: analytic RC filter magnitude/phase, corner
// extraction, CML buffer gain and bandwidth, detector-node pole.
#include <cmath>
#include <memory>

#include <gtest/gtest.h>

#include "cml/builder.h"
#include "core/detector.h"
#include "devices/passive.h"
#include "devices/sources.h"
#include "netlist/netlist.h"
#include "sim/ac.h"
#include "util/units.h"

namespace cmldft::sim {
namespace {

using namespace util::literals;
using netlist::kGroundNode;

TEST(Ac, RcLowPassMatchesAnalytic) {
  netlist::Netlist nl;
  const auto vin = nl.AddNode("vin");
  const auto out = nl.AddNode("out");
  nl.AddDevice(std::make_unique<devices::VSource>("V1", vin, kGroundNode,
                                                  devices::Waveform::Dc(0.0)));
  nl.AddDevice(std::make_unique<devices::Resistor>("R1", vin, out, 1_kOhm));
  nl.AddDevice(std::make_unique<devices::Capacitor>("C1", out, kGroundNode, 1_pF));
  const double fc = 1.0 / (2 * M_PI * 1e3 * 1e-12);  // ~159 MHz
  auto freqs = LogFrequencies(1e6, 10e9, 10);
  auto r = RunAc(nl, "V1", freqs);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const auto mag = r->Magnitude("out");
  const auto ph = r->Phase("out");
  for (size_t i = 0; i < freqs.size(); ++i) {
    const double w_tau = freqs[i] / fc;
    const double expected = 1.0 / std::sqrt(1.0 + w_tau * w_tau);
    EXPECT_NEAR(mag[i], expected, expected * 0.01 + 1e-6) << "f=" << freqs[i];
    EXPECT_NEAR(ph[i], -std::atan(w_tau), 0.01) << "f=" << freqs[i];
  }
  EXPECT_NEAR(r->Corner3dB("out"), fc, fc * 0.05);
}

// The operating point's linear solver must not matter: a DC solve routed
// sparse (forced here; kAuto does it above 256 unknowns) leaves the dense
// Jacobian unfilled, so AC must linearize with dense routing itself.
TEST(Ac, SparseOperatingPointMatchesDense) {
  netlist::Netlist nl;
  const auto vin = nl.AddNode("vin");
  const auto out = nl.AddNode("out");
  nl.AddDevice(std::make_unique<devices::VSource>("V1", vin, kGroundNode,
                                                  devices::Waveform::Dc(0.0)));
  nl.AddDevice(std::make_unique<devices::Resistor>("R1", vin, out, 1_kOhm));
  nl.AddDevice(std::make_unique<devices::Capacitor>("C1", out, kGroundNode, 1_pF));
  const auto freqs = LogFrequencies(1e6, 10e9, 10);
  AcOptions dense_opts;
  dense_opts.dc.newton.solver = NewtonOptions::Solver::kDense;
  AcOptions sparse_opts;
  sparse_opts.dc.newton.solver = NewtonOptions::Solver::kSparse;
  auto dense = RunAc(nl, "V1", freqs, dense_opts);
  auto sparse = RunAc(nl, "V1", freqs, sparse_opts);
  ASSERT_TRUE(dense.ok()) << dense.status().ToString();
  ASSERT_TRUE(sparse.ok()) << sparse.status().ToString();
  const auto dm = dense->Magnitude("out");
  const auto sm = sparse->Magnitude("out");
  const auto dp = dense->Phase("out");
  const auto sp = sparse->Phase("out");
  for (size_t i = 0; i < freqs.size(); ++i) {
    EXPECT_NEAR(sm[i], dm[i], dm[i] * 0.01 + 1e-6) << "f=" << freqs[i];
    EXPECT_NEAR(sp[i], dp[i], 0.01) << "f=" << freqs[i];
  }
}

TEST(Ac, SecondSourceIsAcGrounded) {
  // Superposition check: a second DC source contributes nothing to the
  // small-signal response.
  netlist::Netlist nl;
  const auto vin = nl.AddNode("vin");
  const auto bias = nl.AddNode("bias");
  const auto out = nl.AddNode("out");
  nl.AddDevice(std::make_unique<devices::VSource>("V1", vin, kGroundNode,
                                                  devices::Waveform::Dc(0.0)));
  nl.AddDevice(std::make_unique<devices::VSource>("V2", bias, kGroundNode,
                                                  devices::Waveform::Dc(2.0)));
  nl.AddDevice(std::make_unique<devices::Resistor>("R1", vin, out, 1_kOhm));
  nl.AddDevice(std::make_unique<devices::Resistor>("R2", bias, out, 1_kOhm));
  auto r = RunAc(nl, "V1", {1e6});
  ASSERT_TRUE(r.ok());
  // out = vin/2 in AC (bias grounded): |V(out)| = 0.5.
  EXPECT_NEAR(r->Magnitude("out")[0], 0.5, 1e-9);
}

TEST(Ac, CmlBufferGainAndBandwidth) {
  netlist::Netlist nl;
  cml::CmlTechnology tech;
  cml::CellBuilder cells(nl, tech);
  // Bias both inputs at the switching point so the small-signal gain is
  // maximal; stimulate the true input.
  const auto inp = nl.AddNode("inp");
  const auto inn = nl.AddNode("inn");
  nl.AddDevice(std::make_unique<devices::VSource>(
      "Vinp", inp, kGroundNode, devices::Waveform::Dc(tech.v_mid())));
  nl.AddDevice(std::make_unique<devices::VSource>(
      "Vinn", inn, kGroundNode, devices::Waveform::Dc(tech.v_mid())));
  cml::DiffPort in{inp, inn, "inp", "inn"};
  const cml::DiffPort out = cells.AddBuffer("buf", in);
  cells.AddBuffer("load", out);
  auto freqs = LogFrequencies(1e7, 100e9, 8);
  auto r = RunAc(nl, "Vinp", freqs);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // Single-ended gain at the balanced point: gm*RC/2 with gm = I/2 / VT.
  const double gm = (tech.tail_current / 2.0) / util::ThermalVoltage();
  const double expected_gain = gm * tech.load_resistance() / 2.0;
  const double dc_gain = r->Magnitude(out.n_name).front();
  EXPECT_NEAR(dc_gain, expected_gain, expected_gain * 0.25);
  // Bandwidth in the GHz range (the technology class the paper targets).
  const double f3db = r->Corner3dB(out.n_name);
  EXPECT_GT(f3db, 1e9);
  EXPECT_LT(f3db, 60e9);
}

TEST(Ac, DetectorLoadPoleScalesWithCapacitor) {
  // The detector vout node is a high-impedance RC node; its pole must move
  // by 10x when C7 changes 10x — the reason tstability scales with load.
  // Probe the node impedance by injecting through a large resistor and
  // watching where the transfer rolls off.
  auto corner_of = [&](double cap) {
    netlist::Netlist nl;
    cml::CmlTechnology tech;
    cml::CellBuilder cells(nl, tech);
    const auto in = cells.AddDifferentialDc("in", true);
    const auto out = cells.AddBuffer("buf", in);
    core::DetectorOptions dopt;
    dopt.load_cap = cap;
    dopt.load_kind = core::DetectorOptions::LoadKind::kResistor;
    core::DetectorBuilder det(cells, dopt);
    const std::string vout = det.AttachVariant1("det", out);
    const auto probe = nl.AddNode("probe");
    nl.AddDevice(std::make_unique<devices::VSource>(
        "Vprobe", probe, kGroundNode, devices::Waveform::Dc(tech.vgnd)));
    nl.AddDevice(std::make_unique<devices::Resistor>(
        "Rinject", probe, nl.FindNode(vout), 1_MOhm));
    auto r = RunAc(nl, "Vprobe", LogFrequencies(1e2, 1e9, 6));
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? r->Corner3dB(vout) : 0.0;
  };
  const double f10p = corner_of(10e-12);
  const double f1p = corner_of(1e-12);
  ASSERT_GT(f10p, 0.0);
  ASSERT_GT(f1p, 0.0);
  EXPECT_NEAR(f1p / f10p, 10.0, 1.5);
}

TEST(Ac, RejectsUnknownSource) {
  netlist::Netlist nl;
  EXPECT_EQ(RunAc(nl, "nope", {1e6}).status().code(),
            util::StatusCode::kNotFound);
}

TEST(Ac, LogFrequenciesEndpoints) {
  auto f = LogFrequencies(1e3, 1e6, 5);
  EXPECT_NEAR(f.front(), 1e3, 1e-6);
  EXPECT_NEAR(f.back(), 1e6, 1e-3);
  for (size_t i = 1; i < f.size(); ++i) EXPECT_GT(f[i], f[i - 1]);
}

}  // namespace
}  // namespace cmldft::sim

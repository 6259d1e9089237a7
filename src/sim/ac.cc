#include "sim/ac.h"

#include <cmath>
#include <numbers>

#include "linalg/lu.h"
#include "sim/dc_internal.h"
#include "sim/mna.h"
#include "util/strings.h"

namespace cmldft::sim {

std::vector<double> AcResult::Frequencies() const {
  std::vector<double> out;
  out.reserve(points_.size());
  for (const auto& p : points_) out.push_back(p.frequency);
  return out;
}

std::vector<double> AcResult::Magnitude(const std::string& node) const {
  const netlist::NodeId id = netlist_->FindNode(node);
  std::vector<double> out;
  out.reserve(points_.size());
  for (const auto& p : points_) {
    out.push_back(id <= 0 ? 0.0
                          : std::abs(p.node_voltages[static_cast<size_t>(id)]));
  }
  return out;
}

std::vector<double> AcResult::MagnitudeDb(const std::string& node) const {
  std::vector<double> out = Magnitude(node);
  for (double& v : out) v = 20.0 * std::log10(std::max(v, 1e-30));
  return out;
}

std::vector<double> AcResult::Phase(const std::string& node) const {
  const netlist::NodeId id = netlist_->FindNode(node);
  std::vector<double> out;
  out.reserve(points_.size());
  for (const auto& p : points_) {
    out.push_back(id <= 0 ? 0.0
                          : std::arg(p.node_voltages[static_cast<size_t>(id)]));
  }
  return out;
}

double AcResult::Corner3dB(const std::string& node) const {
  const std::vector<double> mag = Magnitude(node);
  if (mag.empty()) return 0.0;
  const double threshold = mag.front() / std::sqrt(2.0);
  for (size_t i = 1; i < mag.size(); ++i) {
    if (mag[i] <= threshold) {
      // Log-linear interpolation between the bracketing points.
      const double f0 = points_[i - 1].frequency, f1 = points_[i].frequency;
      const double m0 = mag[i - 1], m1 = mag[i];
      if (m0 == m1) return f1;
      const double t = (m0 - threshold) / (m0 - m1);
      return f0 * std::pow(f1 / f0, t);
    }
  }
  return 0.0;
}

std::vector<double> LogFrequencies(double f_start, double f_stop,
                                   int points_per_decade) {
  std::vector<double> out;
  const double decades = std::log10(f_stop / f_start);
  const int n = std::max(2, static_cast<int>(decades * points_per_decade) + 1);
  for (int i = 0; i < n; ++i) {
    out.push_back(f_start * std::pow(f_stop / f_start,
                                     static_cast<double>(i) / (n - 1)));
  }
  return out;
}

util::StatusOr<AcResult> RunAc(const netlist::Netlist& netlist,
                               const std::string& source_name,
                               const std::vector<double>& frequencies,
                               const AcOptions& options) {
  const netlist::Device* src = netlist.FindDevice(source_name);
  if (src == nullptr || src->kind() != "vsource") {
    return util::Status::NotFound("no voltage source named '" + source_name +
                                  "'");
  }

  MnaSystem mna(netlist);
  mna.set_temperature(options.dc.temperature_k);
  mna.set_mode(netlist::AnalysisMode::kDcOperatingPoint);
  mna.set_initializing_state(true);
  mna.set_time(0.0);
  mna.set_dt(0.0);
  linalg::Vector zero(static_cast<size_t>(mna.num_unknowns()), 0.0);
  auto op = internal::SolveDcHomotopy(mna, options.dc, zero);
  if (!op.ok()) {
    return util::Status::NoConvergence("AC operating point: " +
                                       op.status().message());
  }
  const linalg::Vector& x0 = op.value().newton.solution;
  mna.RotateStates();

  // Linearize: a backward-Euler transient assembly at the operating point
  // yields J(dt) = G + C/dt exactly (charge companions are linear in 1/dt).
  // Route dense: the DC solve may have left the system sparse, which would
  // leave jacobian() unfilled.
  mna.set_sparse(false);
  mna.set_mode(netlist::AnalysisMode::kTransient);
  mna.set_initializing_state(false);
  mna.set_method(netlist::IntegrationMethod::kBackwardEuler);
  const size_t n = static_cast<size_t>(mna.num_unknowns());

  mna.set_dt(1e9);  // C/dt negligible -> G
  mna.Assemble(x0);
  linalg::Matrix g_mat = mna.jacobian();
  mna.ResetCurrentStates();

  mna.set_dt(1.0);  // G + C
  mna.Assemble(x0);
  linalg::Matrix c_mat = mna.jacobian();
  mna.ResetCurrentStates();
  for (size_t r = 0; r < n; ++r) {
    for (size_t c = 0; c < n; ++c) c_mat(r, c) -= g_mat(r, c);
  }

  // Unit stimulus on the chosen source's branch row; all other independent
  // sources are AC-grounded (their branch rows read v = 0).
  linalg::CVector rhs(n, {0.0, 0.0});
  rhs[static_cast<size_t>(mna.UnknownOfBranch(*src, 0))] = {1.0, 0.0};

  std::vector<AcPoint> points;
  points.reserve(frequencies.size());
  for (double f : frequencies) {
    const double w = 2.0 * std::numbers::pi * f;
    linalg::CMatrix a(n, n);
    for (size_t r = 0; r < n; ++r) {
      for (size_t c = 0; c < n; ++c) {
        a(r, c) = {g_mat(r, c), w * c_mat(r, c)};
      }
    }
    auto x = linalg::SolveDense(a, rhs);
    if (!x.ok()) {
      return util::Status::SingularMatrix(
          util::StrPrintf("AC solve failed at f=%.3g Hz: %s", f,
                          x.status().message().c_str()));
    }
    AcPoint point;
    point.frequency = f;
    point.node_voltages.assign(static_cast<size_t>(netlist.num_nodes()),
                               {0.0, 0.0});
    for (netlist::NodeId node = 1; node < netlist.num_nodes(); ++node) {
      point.node_voltages[static_cast<size_t>(node)] =
          (*x)[static_cast<size_t>(mna.UnknownOfNode(node))];
    }
    points.push_back(std::move(point));
  }
  return AcResult(&netlist, std::move(points));
}

}  // namespace cmldft::sim

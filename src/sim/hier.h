// Hierarchical bordered-block-diagonal MNA solver (opt-in via
// NewtonOptions::hierarchical; see docs/performance.md "Layer 6").
//
// The paper's circuits are dozens-to-hundreds of copies of a handful of
// CML cells. cml::CellBuilder annotates each cell's devices as a
// netlist::CellInstance; this solver partitions the MNA unknowns from
// the *live* topology (so defect node-splits reclassify correctly): an
// unknown is internal to cell k iff every device touching it belongs to
// cell k, everything else — interconnect, rails, sources, detectors,
// fault devices — is border. Each Newton iteration then runs:
//
//   P1 (parallel)  per-cell local assembly into dense blocks
//   S1 (serial)    factor-share grouping by block signature
//   P2 (parallel)  LU + Schur complement of each unique block
//                  (linalg/bbd.h), shared across matching cells
//   P3 (parallel)  per-cell rhs reduction
//   S2 (serial)    border assembly in cell order + global devices
//   --             border solve (dense, or sparse above the same
//                  crossover as the flat kAuto solver)
//   P4 (parallel)  per-cell back-substitution
//
// Every parallel phase writes to disjoint per-cell storage and every
// reduction runs serially in cell order, so results are bit-identical
// for any thread count. The elimination order differs from the flat
// solve, so solutions are tolerance-equivalent (not bitwise) to flat —
// gated in tests exactly like dense == sparse.
#pragma once

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "linalg/bbd.h"
#include "linalg/lu.h"
#include "linalg/matrix.h"
#include "linalg/sparse.h"
#include "netlist/netlist.h"
#include "sim/options.h"
#include "util/status.h"

namespace cmldft::sim {

class MnaSystem;

class HierSolver {
 public:
  /// Builds the partition from `mna`'s netlist. The solver keeps a
  /// pointer; the MnaSystem must outlive it (MnaSystem owns its solver).
  explicit HierSolver(MnaSystem* mna);

  /// True when at least one annotated cell resolved to live devices and
  /// contributes internal unknowns worth eliminating. When false the
  /// caller must use the flat path.
  bool usable() const { return usable_; }

  int num_cells() const { return static_cast<int>(cells_.size()); }
  int border_size() const { return static_cast<int>(border_unknowns_.size()); }

  /// One hierarchical Newton linear solve: assemble all device stamps at
  /// `iterate`, eliminate cell internals, solve the border, and
  /// back-substitute. On success `*x_new` is the next Newton iterate
  /// (same convention as flat Assemble + solve). SingularMatrix when a
  /// cell block or the border has no stable pivot — the Newton loop
  /// reports it exactly like a flat factorization failure so the DC
  /// homotopy ladder reacts normally.
  util::Status AssembleAndSolve(const linalg::Vector& iterate,
                                linalg::Vector* x_new,
                                const NewtonOptions& opts);

 private:
  class CellStampContext;
  class BorderStampContext;

  struct Cell {
    std::string name;
    std::string type;
    std::vector<int> device_ordinals;
    std::vector<int> internal;  ///< global unknown ids, ascending
    std::vector<int> border;    ///< touched border unknowns, ascending
    /// global unknown -> local id: internals map to [0, ni), touched
    /// border to [ni, ni + nb).
    std::unordered_map<int, int> local_of;

    // Per-solve scratch (each cell's is touched by exactly one worker in
    // the parallel phases, so the writes are disjoint by construction).
    linalg::Matrix local;  ///< (ni+nb) x (ni+nb) stamped block
    linalg::Vector rhs;    ///< ni+nb
    linalg::Matrix a_ii, a_ib, a_bi;
    std::string signature;
    std::shared_ptr<linalg::BbdBlockFactors> factors;
    linalg::Vector y, c;      ///< rhs reduction outputs
    linalg::Vector x_b, x_i;  ///< back-substitution scratch
  };

  void BuildPartition();
  /// Accumulate into the border Jacobian (dense matrix or sparse builder).
  void AddBorderMatrix(int r, int c, double v);
  /// Factor-share key: cell type + dims + the raw bytes of the block
  /// entries, so only bit-identical blocks share a factorization.
  static std::string SignatureOf(const Cell& cell);

  MnaSystem* mna_;
  std::vector<Cell> cells_;
  bool usable_ = false;

  std::vector<int> border_unknowns_;  ///< ascending global unknown ids
  std::vector<int> border_index_of_;  ///< global unknown -> border id or -1
  std::vector<int> global_devices_;   ///< ordinals outside every cell

  // Border system storage. Dense below the same ~256-unknown crossover
  // the flat kAuto solver uses; sparse above it, with the builder's
  // deterministic re-Add order keeping the pattern stable so the numeric
  // Refactor fast path engages after the first factorization.
  linalg::Matrix border_mat_;
  linalg::Vector border_rhs_;
  linalg::Vector border_x_;
  linalg::SparseBuilder border_builder_{0};
  linalg::SparseLu border_lu_;
  bool border_sparse_ = false;
  bool border_factored_once_ = false;

  // Factor-share cache, double-buffered across AssembleAndSolve calls:
  // lookups hit this solve's map first, then the previous solve's (deep
  // in a settled chain the same blocks recur timepoint after timepoint).
  // Swapping the maps bounds the cache to two solves' worth of factors.
  std::unordered_map<std::string, std::shared_ptr<linalg::BbdBlockFactors>>
      prev_map_;
  std::unordered_map<std::string, std::shared_ptr<linalg::BbdBlockFactors>>
      cur_map_;
};

}  // namespace cmldft::sim

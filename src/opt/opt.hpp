// Machine-independent optimiser — the IMPACT role in the paper's
// Trimaran-based flow (§4.1). Classic passes over the non-SSA IR plus
// if-conversion, the transformation EPIC predication exists for.
// Individual passes are exposed for unit testing and for the ablation
// benches (A1 measures if-conversion on/off).
#pragma once

#include <vector>

#include "analysis/manager.hpp"
#include "ir/ir.hpp"

namespace cepic::opt {

struct OptOptions {
  bool fold = true;          ///< constant folding + algebraic simplification
  bool copy_propagate = true;
  bool cse = true;           ///< local common-subexpression elimination
  /// Loop-invariant code motion. Off by default: hoisting lengthens
  /// live ranges, which costs spills on the register-starved SARM
  /// baseline and turns forwarded operands into register-file reads on
  /// EPIC; without pressure-awareness it is a net loss on most of the
  /// paper's workloads (measured in EXPERIMENTS.md). Kept as an option
  /// for experimentation and exercised by the test suite.
  bool licm = false;
  bool dce = true;           ///< liveness-based dead-code elimination
  bool simplify_cfg = true;  ///< jump threading, block merging, unreachable
  bool inline_calls = true;  ///< bottom-up leaf inlining
  bool if_convert = true;    ///< hammocks -> guarded (predicated) code
  int inline_max_insts = 200;
  int if_convert_max_ops = 10;
  int max_rounds = 4;
  /// Debug: run ir::verify_module after every pass (not just once at
  /// the end), naming the offending pass in the InternalError. Also
  /// enabled by setting the CEPIC_VERIFY_IR environment variable.
  /// Purely a check — never changes the emitted IR, so the pipeline
  /// store deliberately leaves it out of its key material.
  bool verify_each_pass = false;
  /// Differential-check every PreservedAnalyses claim against a fresh
  /// recomputation (expensive; also enabled by CEPIC_VERIFY_ANALYSES).
  bool verify_analyses = false;
};

/// Run the full pipeline to a fixed point (bounded by max_rounds).
void optimize(ir::Module& module, const OptOptions& options = {});

// ---- individual passes; each returns true if it changed anything ----
// A pass reads analyses through `am` and, when it changed the function,
// tells the manager what survived (bumping the function's version).
bool pass_constfold(ir::Function& fn, analysis::AnalysisManager& am);
bool pass_copy_propagate(ir::Function& fn, analysis::AnalysisManager& am);
bool pass_cse(ir::Function& fn, analysis::AnalysisManager& am);
bool pass_licm(ir::Function& fn, analysis::AnalysisManager& am);
bool pass_dce(ir::Function& fn, analysis::AnalysisManager& am);
bool pass_simplify_cfg(ir::Function& fn, analysis::AnalysisManager& am);
bool pass_if_convert(ir::Function& fn, analysis::AnalysisManager& am,
                     int max_ops);
/// `fn_changed`, when non-null, is sized to module.functions and set
/// per caller so the driver can invalidate exactly the functions that
/// received clones.
bool pass_inline(ir::Module& module, int max_insts,
                 std::vector<bool>* fn_changed = nullptr);

}  // namespace cepic::opt

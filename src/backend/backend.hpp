// EPIC backend — the elcor role from the paper (§4.1): lowering from IR
// to HPL-PD-subset machine operations, register allocation over the
// configured register files, dependence-aware resource-constrained list
// scheduling driven by the Mdes, and emission of the scheduled MultiOps
// as an asmtool::Listing, which the configuration-driven assembler
// encodes into machine code. The backend writes no assembly syntax;
// asmtool::to_text prints the Listing when text is wanted.
#pragma once

#include <string>

#include "backend/machine.hpp"
#include "core/config.hpp"
#include "ir/ir.hpp"
#include "mdes/mdes.hpp"

namespace cepic::backend {

struct BackendOptions {
  /// Initial stack pointer (must match the simulator's memory size;
  /// pipeline::Service sets it from SimOptions::mem_size).
  std::uint32_t stack_top = std::uint32_t{1} << 22;
  /// Schedule greedily for ILP; when false each op gets its own bundle
  /// (ablation baseline for the scheduler's contribution).
  bool schedule = true;
  /// Test-only: when non-zero, the scheduler packs against this register
  /// port budget instead of the Mdes one, leaving the emitted program's
  /// configuration untouched. Used to fabricate contract-violating
  /// schedules that mcheck must catch (the simulator merely stalls).
  unsigned test_override_port_budget = 0;
};

/// Compile a verified IR module to a Listing for the given processor
/// configuration: the data section, the `__start` stub and every
/// function's scheduled MultiOps, with branch targets still `@label`.
/// Throws Error/CompileError when the module needs operations the
/// customisation lacks (e.g. DIV on a divider-less ALU), exceeds ABI
/// limits (more than 8 arguments) or has globals that do not fit below
/// `options.stack_top`.
asmtool::Listing compile_ir_to_listing(const ir::Module& module,
                                       const ProcessorConfig& config,
                                       const BackendOptions& options = {});

// ---- pipeline stages, exposed for unit tests ----

/// Lower one IR function to machine code with virtual registers.
MFunc lower_function(const ir::Function& fn, const ir::Module& module,
                     const ir::DataLayout& layout, const Mdes& mdes,
                     const ProcessorConfig& config);

/// Allocate physical registers (rewrites in place, adds spill code and
/// patches frame adjustments). Throws Error if a register file is too
/// small to allocate even with spilling.
void allocate_registers(MFunc& fn, const ProcessorConfig& config);

/// Pack each block into MultiOps obeying the Mdes resources, the issue
/// width, dependence latencies and the register-port budget. Latency
/// gaps are emitted as explicit empty bundles so that within a block,
/// bundle index == issue cycle — the machine-level contract mcheck
/// verifies statically. `override_port_budget` (0 = off) substitutes the
/// Mdes budget, see BackendOptions::test_override_port_budget.
ScheduledFunc schedule_function(const MFunc& fn, const Mdes& mdes,
                                const ProcessorConfig& config,
                                bool schedule = true,
                                unsigned override_port_budget = 0);

/// Lay out scheduled functions + data section + `__start` stub as the
/// Listing compile_ir_to_listing returns (its last stage, "emit").
asmtool::Listing emit_module_listing(std::vector<ScheduledFunc> funcs,
                                     const ir::Module& module,
                                     const BackendOptions& options);

/// asmtool::to_text of emit_module_listing: the same module as
/// assembly text.
std::string emit_module_asm(const std::vector<ScheduledFunc>& funcs,
                            const ir::Module& module,
                            const ProcessorConfig& config,
                            const BackendOptions& options);

}  // namespace cepic::backend

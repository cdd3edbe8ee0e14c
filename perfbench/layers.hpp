// Outside-in calls into each layer's public functions, for the traced
// run. Each helper wraps exactly one layer entry point in a Span and
// adds the sizes that drive that layer's cost to LayerCounts.
//
// compile_stages() repeats backend::compile_ir_to_asm stage by stage
// (lower_function -> allocate_registers -> schedule_function ->
// emit_module_asm); the caller checks its assembly against the
// pipeline's byte for byte, which shows the split measures the same
// program the pipeline compiles.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/config.hpp"
#include "core/program.hpp"
#include "ir/ir.hpp"
#include "pipeline/pipeline.hpp"
#include "sarm/driver.hpp"
#include "trace.hpp"

namespace perfbench {

/// Exact per-request sizes and counters gathered by the helpers below.
/// Summed with +=; every field is a pure function of the inputs.
struct LayerCounts {
  std::uint64_t ir_insts = 0;        ///< IR instructions out of the frontend
  std::uint64_t ir_insts_after = 0;  ///< ... after opt::optimize
  std::uint64_t mops = 0;            ///< machine ops after regalloc
  std::uint64_t max_block_ops = 0;   ///< largest scheduling region (max)
  std::int64_t regalloc_added_ops = 0;  ///< spill/fill minus removed moves
  std::uint64_t bundles = 0;         ///< scheduled bundles, empty ones too
  std::uint64_t issue_slots = 0;     ///< bundles x issue width
  std::uint64_t useful_ops = 0;      ///< ops placed in those slots
  std::uint64_t program_bytes = 0;   ///< CEPX-encoded Program bytes

  std::uint64_t sim_cycles = 0;
  std::uint64_t sim_bundles_issued = 0;
  std::uint64_t sim_ops_committed = 0;
  std::uint64_t sim_stall_cycles = 0;
  std::uint64_t threaded_blocks = 0;
  std::uint64_t cold_steps = 0;
  std::uint64_t fallback_bundles = 0;
  std::uint64_t sarm_cycles = 0;

  LayerCounts& operator+=(const LayerCounts& o);
};

/// Where a call's spans hang: tracer (may be null), parent span, point.
struct SpanSite {
  Tracer* tracer = nullptr;
  std::uint32_t parent = 0;
  int point = -1;
};

/// minic::compile_to_ir ("frontend"), then opt::optimize ("opt"). While
/// obs tracing is on, the optimiser's own per-pass obs spans land
/// inside the "opt" span (see with_program_spans).
cepic::ir::Module front_and_opt(const SpanSite& at, std::string_view source,
                                const cepic::opt::OptOptions& options,
                                LayerCounts& counts);

struct CompiledPoint {
  std::string asm_text;
  cepic::Program program;
  std::vector<std::uint8_t> bytes;  ///< CEPX encoding of `program`
};

/// Backend stages, assembler and CEPX codec for one codegen config
/// (which must already be a Service::codegen_slice). Also checks that
/// decoding the encoded bytes gives the Program back.
CompiledPoint compile_stages(const SpanSite& at, const cepic::ir::Module& module,
                             const cepic::ProcessorConfig& config,
                             const cepic::backend::BackendOptions& options,
                             LayerCounts& counts);

/// Service::compile_program under a "pipeline.compile_program" span.
cepic::Program compile_program(const SpanSite& at,
                               cepic::pipeline::Service& service,
                               std::string_view source,
                               const cepic::ProcessorConfig& config);

/// serial::decode_program under a "serial.decode" span.
cepic::Program decode(const SpanSite& at, const std::vector<std::uint8_t>& bytes);

struct SimResult {
  std::uint64_t cycles = 0;
  std::uint64_t output_hash = 0;
};

/// EpicSimulator construction ("sim.construct") and run ("sim.run").
SimResult simulate(const SpanSite& at, cepic::Program program,
                   const cepic::SimOptions& options, LayerCounts& counts);

/// sarm::compile_minic_to_sarm ("sarm.compile") for a SarmSimulator
/// whose memory is `mem_size` bytes.
cepic::sarm::SProgram sarm_compile(const SpanSite& at, std::string_view source,
                                   std::size_t mem_size);

/// SarmSimulator construction and run ("sarm.run").
SimResult sarm_run(const SpanSite& at, cepic::sarm::SProgram program,
                   const cepic::sarm::SarmOptionsSim& options,
                   LayerCounts& counts);

}  // namespace perfbench

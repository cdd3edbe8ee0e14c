#include "layers.hpp"

#include <algorithm>
#include <optional>
#include <utility>

#include "asmtool/assembler.hpp"
#include "backend/backend.hpp"
#include "core/custom.hpp"
#include "frontend/irgen.hpp"
#include "ir/verify.hpp"
#include "mdes/mdes.hpp"
#include "opt/opt.hpp"
#include "serial/serial.hpp"
#include "support/bits.hpp"
#include "support/error.hpp"

namespace perfbench {

using namespace cepic;

namespace {

std::uint64_t count_insts(const ir::Module& module) {
  std::uint64_t n = 0;
  for (const ir::Function& fn : module.functions) {
    for (const ir::BasicBlock& block : fn.blocks) n += block.insts.size();
  }
  return n;
}

std::uint64_t count_mops(const backend::MFunc& fn) {
  std::uint64_t n = 0;
  for (const backend::MBlock& block : fn.blocks) n += block.insts.size();
  return n;
}

}  // namespace

LayerCounts& LayerCounts::operator+=(const LayerCounts& o) {
  ir_insts += o.ir_insts;
  ir_insts_after += o.ir_insts_after;
  mops += o.mops;
  max_block_ops = std::max(max_block_ops, o.max_block_ops);
  regalloc_added_ops += o.regalloc_added_ops;
  bundles += o.bundles;
  issue_slots += o.issue_slots;
  useful_ops += o.useful_ops;
  program_bytes += o.program_bytes;
  sim_cycles += o.sim_cycles;
  sim_bundles_issued += o.sim_bundles_issued;
  sim_ops_committed += o.sim_ops_committed;
  sim_stall_cycles += o.sim_stall_cycles;
  threaded_blocks += o.threaded_blocks;
  cold_steps += o.cold_steps;
  fallback_bundles += o.fallback_bundles;
  sarm_cycles += o.sarm_cycles;
  return *this;
}

ir::Module front_and_opt(const SpanSite& at, std::string_view source,
                         const opt::OptOptions& options, LayerCounts& counts) {
  ir::Module module;
  {
    Span span(at.tracer, "frontend", at.parent, at.point);
    module = minic::compile_to_ir(source);
  }
  counts.ir_insts += count_insts(module);
  {
    Span span(at.tracer, "opt", at.parent, at.point);
    opt::optimize(module, options);
  }
  counts.ir_insts_after += count_insts(module);
  return module;
}

CompiledPoint compile_stages(const SpanSite& at, const ir::Module& module,
                             const ProcessorConfig& config,
                             const backend::BackendOptions& options,
                             LayerCounts& counts) {
  // The set-up compile_ir_to_asm performs before its stage loop.
  config.validate();
  ir::verify_module(module, /*require_main=*/true);
  const ir::DataLayout layout = ir::layout_globals(module);
  const CustomOpTable custom = CustomOpTable::for_names(config.custom_ops);
  const Mdes mdes(config, &custom);

  CompiledPoint out;
  std::vector<backend::ScheduledFunc> scheduled;
  scheduled.reserve(module.functions.size());
  for (const ir::Function& fn : module.functions) {
    backend::MFunc mf;
    {
      Span span(at.tracer, "backend.lower", at.parent, at.point);
      mf = backend::lower_function(fn, module, layout, mdes, config);
    }
    const std::uint64_t lowered = count_mops(mf);
    {
      Span span(at.tracer, "backend.regalloc", at.parent, at.point);
      backend::allocate_registers(mf, config);
    }
    const std::uint64_t allocated = count_mops(mf);
    counts.mops += allocated;
    counts.regalloc_added_ops += static_cast<std::int64_t>(allocated) -
                                 static_cast<std::int64_t>(lowered);
    for (const backend::MBlock& block : mf.blocks) {
      counts.max_block_ops =
          std::max<std::uint64_t>(counts.max_block_ops, block.insts.size());
    }
    {
      Span span(at.tracer, "backend.schedule", at.parent, at.point);
      scheduled.push_back(backend::schedule_function(
          mf, mdes, config, options.schedule,
          options.test_override_port_budget));
    }
    for (const auto& block : scheduled.back().blocks) {
      counts.bundles += block.bundles.size();
      counts.issue_slots += block.bundles.size() * config.issue_width;
      for (const auto& bundle : block.bundles) counts.useful_ops += bundle.size();
    }
  }
  {
    Span span(at.tracer, "backend.emit", at.parent, at.point);
    out.asm_text = backend::emit_module_asm(scheduled, module, config, options);
  }
  {
    Span span(at.tracer, "asmtool.assemble", at.parent, at.point);
    out.program = asmtool::assemble(out.asm_text, config);
  }
  {
    Span span(at.tracer, "serial.encode", at.parent, at.point);
    out.bytes = serial::encode_program(out.program);
  }
  counts.program_bytes += out.bytes.size();
  if (decode(at, out.bytes) != out.program) {
    throw Error("CEPX round trip changed the Program for " + config.summary());
  }
  return out;
}

Program compile_program(const SpanSite& at, pipeline::Service& service,
                        std::string_view source, const ProcessorConfig& config) {
  Span span(at.tracer, "pipeline.compile_program", at.parent, at.point);
  return service.compile_program(source, config);
}

Program decode(const SpanSite& at, const std::vector<std::uint8_t>& bytes) {
  Span span(at.tracer, "serial.decode", at.parent, at.point);
  return serial::decode_program(bytes);
}

SimResult simulate(const SpanSite& at, Program program,
                   const SimOptions& options, LayerCounts& counts) {
  std::optional<EpicSimulator> sim;
  {
    Span span(at.tracer, "sim.construct", at.parent, at.point);
    const CustomOpTable custom =
        CustomOpTable::for_names(program.config.custom_ops);
    sim.emplace(std::move(program), custom, options);
  }
  {
    Span span(at.tracer, "sim.run", at.parent, at.point);
    sim->run();
  }
  const SimStats& st = sim->stats();
  const ThreadedCache& tc = sim->threaded_cache();
  counts.sim_cycles += st.cycles;
  counts.sim_bundles_issued += st.bundles_issued;
  counts.sim_ops_committed += st.ops_committed;
  counts.sim_stall_cycles += st.stall_scoreboard + st.stall_reg_ports +
                             st.stall_mem_contention + st.branch_bubbles;
  counts.threaded_blocks += tc.blocks.size();
  counts.cold_steps += tc.cold_steps;
  counts.fallback_bundles += tc.fallback_bundles;
  return SimResult{st.cycles, fnv1a64_words(sim->output())};
}

sarm::SProgram sarm_compile(const SpanSite& at, std::string_view source,
                            std::size_t mem_size) {
  // The stack-top wiring sarm::run_minic_on_sarm does.
  sarm::SarmCompileOptions options;
  options.backend.stack_top = static_cast<std::uint32_t>(mem_size);
  Span span(at.tracer, "sarm.compile", at.parent, at.point);
  return sarm::compile_minic_to_sarm(source, options);
}

SimResult sarm_run(const SpanSite& at, sarm::SProgram program,
                   const sarm::SarmOptionsSim& options, LayerCounts& counts) {
  Span span(at.tracer, "sarm.run", at.parent, at.point);
  sarm::SarmSimulator sim(std::move(program), options);
  sim.run();
  counts.sarm_cycles += sim.stats().cycles;
  return SimResult{sim.stats().cycles, fnv1a64_words(sim.output())};
}

}  // namespace perfbench

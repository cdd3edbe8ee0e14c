// Cycle-level simulator of the customisable EPIC processor (the
// ReaCT-ILP role from the paper, §5.2). Models the prototype's 2-stage
// pipeline (Fetch/Decode/Issue | Execute/WriteBack, paper Fig. 2):
//
//  * one MultiOp of up to issue_width operations issues per cycle;
//  * MultiOp semantics: all operands are read before any result of the
//    same MultiOp is written;
//  * the register file controller allows `reg_port_budget` register
//    read+write operations per cycle; exceeding it stalls issue
//    (paper §3.2). Results produced in the immediately preceding cycle
//    are satisfied by forwarding and cost no read port;
//  * operand readiness is scoreboarded, so hand-written assembly that
//    ignores latencies still executes correctly — it just stalls;
//  * a taken branch flushes the fetch stage: one bubble cycle;
//  * predicated operations execute but are nullified on a false guard;
//  * optionally, every data-memory access steals one cycle of
//    instruction-fetch bandwidth (unified_memory_contention, ablation).
//
// A simulator has two halves. The SimImage is immutable: the Program,
// its decoded bundles and the program checks, built once and shared by
// std::shared_ptr<const SimImage> across every simulation-only variant
// of one compiled Program. The EpicSimulator holds only per-run state:
// the full ProcessorConfig, registers, memory, the threaded tier's
// blocks and statistics (docs/SIM.md "Simulator images").
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/custom.hpp"
#include "core/program.hpp"
#include "mdes/mdes.hpp"
#include "core/memory.hpp"
#include "sim/decode.hpp"
#include "sim/stats.hpp"
#include "sim/threaded.hpp"
#include "sim/timeline.hpp"

namespace cepic {

struct SimOptions {
  std::uint64_t max_cycles = 2'000'000'000;
  std::size_t mem_size = std::size_t{1} << 22;  // 4 MiB
  /// Execution tier (docs/SIM.md "Execution tiers"). Threaded promotes
  /// hot bundle runs to pre-compiled micro-op blocks (sim/threaded.hpp)
  /// and executes cold/irregular code on the decode tier; Decode is the
  /// pre-decoded fast path (sim/decode.hpp); Interp is the
  /// decode-every-cycle reference. All three are bit-identical in
  /// stats, output, faults and architectural state
  /// (tests/test_sim_fastpath.cpp proves it differentially). Per-bundle
  /// recording (a SimTimeline, which also renders the text trace) runs
  /// on the decode tier: run() with a timeline attached pins Threaded to
  /// Decode and flags it in SimStats::timeline_pinned.
  ExecTier exec_tier = ExecTier::Threaded;
  /// An entry pc's Nth dispatch (N = this) compiles and runs its
  /// threaded block; the first N-1 run on the decode tier. 1 compiles
  /// eagerly on first touch. Only read when exec_tier == Threaded.
  unsigned threaded_hot_threshold = 8;
};

/// The immutable half of a simulator: everything that is a pure
/// function of a compiled Program and its custom-op semantics. Its
/// identity is the Program, stamped with the codegen slice of its config
/// (ProcessorConfig::codegen_slice), plus the custom-op table. Nothing
/// in it reads a simulation-only config field, so one image serves every
/// pipeline_stages / unified_memory_contention variant of the Program,
/// on every execution tier. Held by std::shared_ptr<const SimImage>, it
/// is safe to read from many threads at once.
struct SimImage {
  /// Stamps `program` with its codegen slice, runs the program checks
  /// (whole bundles, histogram width, register ranges: SimError
  /// "bundle B slot S: ..." on an out-of-range index), installs builtin
  /// semantics for every config-enabled custom op `custom` lacks and
  /// decodes every bundle against the Mdes.
  SimImage(Program program, CustomOpTable custom);
  /// `decoded`'s bundles point into its own arrays.
  SimImage(const SimImage&) = delete;
  SimImage& operator=(const SimImage&) = delete;

  Program program;
  CustomOpTable custom;
  /// Built from `custom` as the caller supplied it, before the builtins
  /// are installed (custom-op latencies come from the caller's table).
  Mdes mdes;
  /// One entry per bundle, in flat arrays (sim/decode.hpp).
  DecodedProgram decoded;
  /// Whole-program facts behind ThreadedCache::advance_bound: the
  /// largest result latency and the largest static §3.2 port demand
  /// (writes + reads) of any bundle.
  std::uint64_t max_latency = 1;
  std::uint64_t max_port_demand = 0;
};

class EpicSimulator {
public:
  /// Builds a private image of `program` (see SimImage; program checks
  /// throw from here) and simulates it under program.config.
  explicit EpicSimulator(Program program, CustomOpTable custom = {},
                         SimOptions options = {});

  /// Simulates a shared image under `config`, which may differ from the
  /// image's config only in the simulation-only fields. Throws SimError
  /// naming the first differing field otherwise: an image decoded for
  /// another datapath width, latency or custom-op set would simulate
  /// wrong bundles.
  EpicSimulator(std::shared_ptr<const SimImage> image, ProcessorConfig config,
                SimOptions options = {});

  /// Reset architectural state and statistics (keeps the program).
  void reset();

  /// Run until HALT. Throws SimError on a fault or cycle-limit overrun.
  const SimStats& run();

  /// Execute one MultiOp (for microtests). Returns false once halted.
  bool step();

  bool halted() const { return halted_; }

  // --- architectural state access (tests, examples) ---
  std::uint32_t gpr(unsigned i) const;
  void set_gpr(unsigned i, std::uint32_t v);
  bool pred(unsigned i) const;
  void set_pred(unsigned i, bool v);
  std::uint32_t btr(unsigned i) const;
  std::uint32_t pc() const { return pc_; }

  DataMemory& memory() { return mem_; }
  const DataMemory& memory() const { return mem_; }

  /// Values emitted through the OUT port, in order.
  const std::vector<std::uint32_t>& output() const { return output_; }

  const SimStats& stats() const { return stats_; }
  /// The image's Program: its config is the codegen slice. config()
  /// is the full configuration of this run.
  const Program& program() const { return image_->program; }
  const ProcessorConfig& config() const { return config_; }

  /// Threaded-tier promotion counters, compiled blocks and telemetry
  /// (read-only; empty unless exec_tier == Threaded). Blocks are pure
  /// functions of the program and survive reset().
  const ThreadedCache& threaded_cache() const { return threaded_; }

  /// The tier run() would execute on right now: the configured tier,
  /// except that an attached timeline pins Threaded to Decode.
  ExecTier active_tier() const {
    if (options_.exec_tier == ExecTier::Threaded && timeline_ == nullptr) {
      return ExecTier::Threaded;
    }
    return options_.exec_tier == ExecTier::Interp ? ExecTier::Interp
                                                  : ExecTier::Decode;
  }

  /// Attach an opt-in per-cycle event timeline (sim/timeline.hpp);
  /// nullptr detaches. The caller owns the timeline and keeps it alive
  /// across run(). With no timeline attached the step loop is
  /// unchanged except for three dead integer stores.
  void set_timeline(SimTimeline* timeline) { timeline_ = timeline; }

private:
  struct WriteBack {
    RegFile file = RegFile::None;
    std::uint32_t index = 0;
    std::uint32_t value = 0;
    std::uint64_t ready = 0;
  };
  struct PendingStore {
    bool byte = false;
    std::uint32_t addr = 0;
    std::uint32_t value = 0;
  };

  std::uint32_t read_operand(const Operand& o, SrcSpec spec, bool zext) const;
  std::uint64_t ready_cycle(RegFile file, std::uint32_t index) const;
  void note_ready(RegFile file, std::uint32_t index, std::uint64_t cycle);

  /// One step through the pre-decoded fast path. Dispatches to the
  /// template below so the no-timeline instantiation carries zero
  /// timeline bookkeeping.
  bool step_decoded(const DecodedBundle& bundle);
  template <bool kTimeline>
  bool step_decoded_impl(const DecodedBundle& bundle);
  /// One step through the interpretive decode-every-cycle path; runs
  /// only on ExecTier::Interp, the differential reference tier.
  bool step_interpretive();
  /// Fetch a pre-decoded source operand's value.
  std::uint32_t fetch(const DecodedSrc& src) const;
  /// Shared cycle-limit clamp: fires as soon as the issue computation
  /// proves the limit will be crossed, before any state changes.
  void check_cycle_limit(std::uint64_t issue) const;
  /// Shared writeback + advance/control-flow tail of both step paths.
  void write_back(const std::vector<PendingStore>& stores,
                  const std::vector<WriteBack>& writes);
  bool finish_step(std::uint64_t issue, bool branch_taken,
                   std::uint32_t branch_target, bool halt_now, bool any_mem,
                   unsigned useful_ops);

  // --- threaded tier (sim/threaded.cpp) ---
  /// run() body for ExecTier::Threaded: dispatch compiled blocks,
  /// promote hot entry pcs, execute cold bundles on the decode path.
  void run_threaded();
  /// Execute one compiled block starting at pc_ == block.entry_pc.
  void exec_block(const ThreadedBlock& block);
  /// Lower the maximal straight-line bundle run starting at entry_pc
  /// (non-const: interns literal operands in threaded_.pool).
  ThreadedBlock compile_block(std::uint32_t entry_pc);

  /// Checks config_ against the image and sizes the per-run state.
  void start();

  std::shared_ptr<const SimImage> image_;
  /// The full configuration: the simulation-only fields are read from
  /// here, everything else equals image_->program.config.
  ProcessorConfig config_;
  SimOptions options_;
  const CustomOpTable* custom_ = nullptr;  ///< &image_->custom, hoisted
  /// image_->decoded.bundles.data(), hoisted.
  const DecodedBundle* decoded_ = nullptr;
  unsigned width_ = 32;
  bool fwd_ = true;           ///< image mdes forwarding(), hoisted
  unsigned port_budget_ = 8;  ///< image mdes reg_port_budget(), hoisted

  /// Threaded-tier promotion counters and compiled micro-op blocks
  /// (empty unless exec_tier == Threaded); blocks compile lazily at
  /// promotion and survive reset(). They bake in config_'s
  /// unified_memory_contention, so they stay per run.
  ThreadedCache threaded_;
  std::uint32_t bundle_count_ = 0;  ///< program bundle_count(), hoisted
  std::uint32_t gpr_mask_ = 0;      ///< datapath-width value mask, hoisted
  /// Reused per-step scratch (capacity fixed by issue_width): the
  /// interpretive path's per-cycle heap allocations removed.
  std::vector<WriteBack> writes_scratch_;
  std::vector<PendingStore> stores_scratch_;

  /// Opt-in per-cycle timeline (not owned; see set_timeline).
  SimTimeline* timeline_ = nullptr;
  /// Per-step stall attribution handed to the timeline by finish_step
  /// (filled unconditionally — cheaper than a branch in the step loop).
  std::uint64_t tl_fetch_ = 0;
  std::uint64_t tl_sb_stall_ = 0;
  std::uint64_t tl_port_stall_ = 0;
  /// Per-step op events, reused; only populated while a timeline is
  /// attached.
  std::vector<SimTimeline::OpEvent> tl_ops_;

  /// Extended register files. Layout of gprs_:
  ///   [0, num_gprs)          architectural registers (r0 pinned to 0)
  ///   [num_gprs]             write sink for the threaded tier (absent
  ///                          destinations redirect here, so write-back
  ///                          is branchless)
  ///   [num_gprs + 1, ...)    ThreadedCache::pool literal constants,
  ///                          appended as blocks are compiled and left
  ///                          intact by reset()
  /// preds_ likewise carries one sink slot at num_preds. The public
  /// accessors bound-check against the architectural counts only.
  std::vector<std::uint32_t> gprs_;
  std::vector<std::uint8_t> preds_;
  std::vector<std::uint32_t> btrs_;
  std::vector<std::uint64_t> gpr_ready_;
  std::vector<std::uint64_t> pred_ready_;
  std::vector<std::uint64_t> btr_ready_;
  DataMemory mem_;

  std::uint32_t pc_ = 0;
  std::uint64_t cycle_ = 0;
  bool halted_ = false;

  std::vector<std::uint32_t> output_;
  SimStats stats_;
};

}  // namespace cepic

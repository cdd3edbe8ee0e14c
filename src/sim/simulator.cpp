#include "sim/simulator.hpp"

#include <algorithm>

#include "core/eval.hpp"
#include "obs/obs.hpp"
#include "support/bits.hpp"
#include "support/text.hpp"

namespace cepic {

namespace {

/// "config has `K = V`, image was built for `K = W`" for the first
/// to_text() line on which the two configurations differ.
std::string first_difference(const ProcessorConfig& run,
                             const ProcessorConfig& image) {
  const std::string run_text = run.to_text();
  const std::string image_text = image.to_text();
  const std::vector<std::string_view> a = split(run_text, '\n');
  const std::vector<std::string_view> b = split(image_text, '\n');
  for (std::size_t i = 0; i < a.size() && i < b.size(); ++i) {
    if (a[i] != b[i]) {
      return cat("config has `", a[i], "`, image was built for `", b[i], "`");
    }
  }
  return "configurations differ";
}

}  // namespace

SimImage::SimImage(Program program_in, CustomOpTable custom_in)
    : program(std::move(program_in)),
      custom(std::move(custom_in)),
      mdes(program.config, &custom) {
  program.config = program.config.codegen_slice();
  const ProcessorConfig& cfg = program.config;
  CEPIC_CHECK(program.code.size() % cfg.issue_width == 0,
              "program code is not a whole number of bundles");
  // The per-bundle width histogram is statically sized; a customisation
  // with wider issue must fail here, not overflow the histogram index.
  CEPIC_CHECK(cfg.issue_width <= SimStats::kMaxBundleWidth,
              cat("issue_width ", cfg.issue_width,
                  " exceeds the bundle-width histogram range 0..",
                  SimStats::kMaxBundleWidth));
  // Every tier indexes register arrays by the encoded fields, so an
  // out-of-range index is refused here rather than faulting mid-run.
  // (Only register ranges: they are part of the simulation slice of the
  // configuration; unsupported ops fault when first executed.)
  if (std::string fault = register_range_fault(program); !fault.empty()) {
    throw SimError(fault);
  }
  // Install semantics for any config-enabled custom op the caller did
  // not supply explicitly.
  for (unsigned slot = 0; slot < cfg.custom_ops.size(); ++slot) {
    if (!custom.has(slot)) {
      auto op = builtin_custom_op(cfg.custom_ops[slot]);
      if (op) custom.install(slot, std::move(*op));
    }
  }
  decoded = decode_program(program, mdes);
  for (const DecodedOp& op : decoded.ops) {
    max_latency = std::max<std::uint64_t>(max_latency, op.latency);
  }
  for (const DecodedBundle& b : decoded.bundles) {
    max_port_demand = std::max<std::uint64_t>(
        max_port_demand, b.write_ports + b.port_reads.size());
  }
}

EpicSimulator::EpicSimulator(Program program, CustomOpTable custom,
                             SimOptions options)
    : config_(program.config),
      options_(options),
      mem_(options.mem_size) {
  image_ = std::make_shared<const SimImage>(std::move(program),
                                            std::move(custom));
  start();
}

EpicSimulator::EpicSimulator(std::shared_ptr<const SimImage> image,
                             ProcessorConfig config, SimOptions options)
    : image_(std::move(image)),
      config_(std::move(config)),
      options_(options),
      mem_(options.mem_size) {
  start();
}

void EpicSimulator::start() {
  config_.validate();
  if (!(config_.codegen_slice() == image_->program.config)) {
    throw SimError(cat("simulator image mismatch: ",
                       first_difference(config_, image_->program.config)));
  }
  custom_ = &image_->custom;
  decoded_ = image_->decoded.bundles.data();
  width_ = config_.datapath_width;
  fwd_ = image_->mdes.forwarding();
  port_budget_ = image_->mdes.reg_port_budget();
  bundle_count_ = static_cast<std::uint32_t>(image_->program.bundle_count());
  gpr_mask_ = width_ >= 32 ? 0xFFFFFFFFu
                           : ((std::uint32_t{1} << width_) - 1);
  // +1: write-sink slot for the threaded tier (see the gprs_ layout
  // comment in simulator.hpp); pool constants append beyond it.
  gprs_.assign(config_.num_gprs + 1, 0);
  preds_.assign(config_.num_preds + 1, 0);
  btrs_.assign(config_.num_btrs, 0);
  gpr_ready_.assign(config_.num_gprs + 1, 0);
  pred_ready_.assign(config_.num_preds + 1, 0);
  btr_ready_.assign(config_.num_btrs, 0);
  if (options_.exec_tier != ExecTier::Interp) {
    writes_scratch_.reserve(2 * config_.issue_width);
    stores_scratch_.reserve(config_.issue_width);
  }
  if (options_.exec_tier == ExecTier::Threaded) {
    threaded_.block_at.assign(bundle_count_, ThreadedCache::kCold);
    threaded_.hot.assign(bundle_count_, 0);
    // Worst-case clock advance of any single bundle: scoreboard stall
    // (bounded by the largest in-flight latency), port stall (bounded
    // by the largest static port demand), bubbles and contention.
    const std::uint64_t max_ports = image_->max_port_demand;
    const std::uint64_t port_bound =
        max_ports == 0 ? 0 : (max_ports + port_budget_ - 1) / port_budget_;
    threaded_.advance_bound = image_->max_latency + port_bound +
                              config_.pipeline_stages + 2;
  }
  reset();
}

void EpicSimulator::reset() {
  // Architectural registers + the sink only: the constant-pool tail of
  // gprs_ holds compiled-block literals, which survive reset exactly
  // like the blocks that reference them.
  std::fill_n(gprs_.begin(), config_.num_gprs + 1, 0);
  std::fill(preds_.begin(), preds_.end(), 0);
  std::fill(btrs_.begin(), btrs_.end(), 0);
  std::fill(gpr_ready_.begin(), gpr_ready_.end(), 0);
  std::fill(pred_ready_.begin(), pred_ready_.end(), 0);
  std::fill(btr_ready_.begin(), btr_ready_.end(), 0);
  preds_[0] = 1;  // p0 hardwired true
  mem_.reset();  // cost: the pages actually written, not the full size
  mem_.load_image(kDataBase, image_->program.data);
  pc_ = image_->program.entry_bundle;
  cycle_ = 0;
  halted_ = false;
  output_.clear();
  stats_ = SimStats{};
}

std::uint32_t EpicSimulator::gpr(unsigned i) const {
  CEPIC_CHECK(i < config_.num_gprs, "gpr index");
  return i == 0 ? 0 : gprs_[i];
}

void EpicSimulator::set_gpr(unsigned i, std::uint32_t v) {
  CEPIC_CHECK(i < config_.num_gprs, "gpr index");
  if (i != 0) gprs_[i] = mask_to_width(v, width_);
}

bool EpicSimulator::pred(unsigned i) const {
  CEPIC_CHECK(i < config_.num_preds, "pred index");
  return i == 0 ? true : preds_[i] != 0;
}

void EpicSimulator::set_pred(unsigned i, bool v) {
  CEPIC_CHECK(i < config_.num_preds, "pred index");
  if (i != 0) preds_[i] = v ? 1 : 0;
}

std::uint32_t EpicSimulator::btr(unsigned i) const {
  CEPIC_CHECK(i < btrs_.size(), "btr index");
  return btrs_[i];
}

std::uint64_t EpicSimulator::ready_cycle(RegFile file,
                                         std::uint32_t index) const {
  switch (file) {
    case RegFile::Gpr: return index == 0 ? 0 : gpr_ready_[index];
    case RegFile::Pred: return index == 0 ? 0 : pred_ready_[index];
    case RegFile::Btr: return btr_ready_[index];
    case RegFile::None: break;
  }
  return 0;
}

void EpicSimulator::note_ready(RegFile file, std::uint32_t index,
                               std::uint64_t cycle) {
  switch (file) {
    case RegFile::Gpr:
      if (index != 0) gpr_ready_[index] = cycle;
      break;
    case RegFile::Pred:
      if (index != 0) pred_ready_[index] = cycle;
      break;
    case RegFile::Btr:
      btr_ready_[index] = cycle;
      break;
    case RegFile::None:
      break;
  }
}

std::uint32_t EpicSimulator::read_operand(const Operand& o, SrcSpec spec,
                                          bool zext) const {
  (void)zext;  // literal extension already happened at decode/build time
  if (o.is_lit()) return mask_to_width(static_cast<std::uint32_t>(o.lit), width_);
  if (!o.is_reg()) return 0;
  switch (reg_file(spec)) {
    case RegFile::Gpr: return gpr(o.reg);
    case RegFile::Pred: return pred(o.reg) ? 1u : 0u;
    case RegFile::Btr: return btr(o.reg);
    case RegFile::None: break;
  }
  return 0;
}

std::uint32_t EpicSimulator::fetch(const DecodedSrc& src) const {
  switch (src.kind) {
    case SrcKind::Zero: return 0;
    case SrcKind::Lit: return src.value;
    // gprs_[0] is pinned to 0 (reset + set_gpr never write it), so the
    // r0 special case costs nothing here.
    case SrcKind::Gpr: return gprs_[src.reg];
    case SrcKind::Pred:
      return (src.reg == 0 || preds_[src.reg] != 0) ? 1u : 0u;
    case SrcKind::Btr: return btrs_[src.reg];
  }
  return 0;
}

void EpicSimulator::check_cycle_limit(std::uint64_t issue) const {
  // Issuing at `issue` would advance the clock to issue + 1; refuse as
  // soon as that provably crosses the budget, before stalls, bubbles or
  // side effects are applied (the old end-of-step check let one step
  // overshoot the limit arbitrarily far).
  if (issue >= options_.max_cycles) {
    throw SimError(cat("cycle limit exceeded (", options_.max_cycles,
                       " cycles) at bundle ", pc_, " — runaway program?"));
  }
}

void EpicSimulator::write_back(const std::vector<PendingStore>& stores,
                               const std::vector<WriteBack>& writes) {
  // Memory first (loads above read pre-store memory), then registers in
  // op order (later writes win on WAW within a MultiOp).
  for (const PendingStore& s : stores) {
    if (s.byte) {
      mem_.write_byte(s.addr, static_cast<std::uint8_t>(s.value));
    } else {
      mem_.write_word(s.addr, s.value);
    }
  }
  for (const WriteBack& w : writes) {
    switch (w.file) {
      case RegFile::Gpr:
        set_gpr(w.index, w.value);
        break;
      case RegFile::Pred:
        set_pred(w.index, w.value != 0);
        break;
      case RegFile::Btr:
        btrs_[w.index] = w.value;
        break;
      case RegFile::None:
        break;
    }
    note_ready(w.file, w.index, w.ready);
  }
}

bool EpicSimulator::finish_step(std::uint64_t issue, bool branch_taken,
                                std::uint32_t branch_target, bool halt_now,
                                bool any_mem, unsigned useful_ops) {
  const std::uint32_t issued_pc = pc_;
  ++stats_.bundles_issued;
  stats_.bundle_width_hist[std::min<std::size_t>(
      useful_ops, SimStats::kMaxBundleWidth)]++;
  cycle_ = issue + 1;

  const bool contention =
      config_.unified_memory_contention && any_mem;
  if (contention) {
    ++cycle_;
    ++stats_.stall_mem_contention;
  }

  unsigned bubbles = 0;
  bool keep_running = true;
  if (halt_now) {
    halted_ = true;
    keep_running = false;
  } else if (branch_taken) {
    ++stats_.branches_taken;
    // A taken branch flushes everything in front of execute: one bubble
    // per pipeline stage before it (1 on the 2-stage prototype).
    bubbles = config_.pipeline_stages - 1;
    stats_.branch_bubbles += bubbles;
    cycle_ += bubbles;
    if (branch_target >= bundle_count_) {
      throw SimError(cat("branch to bundle ", branch_target,
                         " past end of program"));
    }
    pc_ = branch_target;
  } else {
    ++pc_;
  }

  stats_.cycles = cycle_;

  if (timeline_ != nullptr) {
    SimTimeline::BundleEvent bundle;
    bundle.fetch = tl_fetch_;
    bundle.issue = issue;
    bundle.sb_stall = tl_sb_stall_;
    bundle.port_stall = tl_port_stall_;
    bundle.pc = issued_pc;
    bundle.useful_ops = useful_ops;
    bundle.mem_contention = contention;
    bundle.branch_bubbles = bubbles;
    bundle.halt = halt_now;
    bundle.end_cycle = cycle_;
    timeline_->record(bundle, tl_ops_);
  }
  return keep_running;
}

bool EpicSimulator::step() {
  if (halted_) return false;
  if (pc_ >= bundle_count_) {
    throw SimError(cat("pc 0x", std::hex, pc_, " past end of program"));
  }
  // Single-stepping a threaded-tier simulator executes the decode tier:
  // bit-identical by contract, and per-bundle stepping has no block to
  // amortise over anyway. run() is where blocks pay off.
  if (options_.exec_tier != ExecTier::Interp) {
    stats_.exec_tier = ExecTier::Decode;
    return step_decoded(decoded_[pc_]);
  }
  stats_.exec_tier = ExecTier::Interp;
  return step_interpretive();
}

bool EpicSimulator::step_decoded(const DecodedBundle& bundle) {
  return timeline_ != nullptr ? step_decoded_impl<true>(bundle)
                              : step_decoded_impl<false>(bundle);
}

template <bool kTimeline>
bool EpicSimulator::step_decoded_impl(const DecodedBundle& bundle) {
  // ---- Stage 1: issue cycle from the pre-computed source lists. ----
  std::uint64_t issue = cycle_;
  for (const std::uint32_t r : bundle.sb_gpr) {
    issue = std::max(issue, gpr_ready_[r]);
  }
  for (const std::uint32_t r : bundle.sb_pred) {
    issue = std::max(issue, pred_ready_[r]);
  }
  for (const std::uint32_t r : bundle.sb_btr) {
    issue = std::max(issue, btr_ready_[r]);
  }
  if constexpr (kTimeline) {
    tl_fetch_ = cycle_;
    tl_sb_stall_ = issue - cycle_;
  }
  stats_.stall_scoreboard += issue - cycle_;

  // §3.2 register-port budget fixed point over the static read/write
  // lists. Without forwarding the demand is constant, so one division
  // suffices; with forwarding, delaying issue can turn a forwarded read
  // into a port read — iterate exactly like the interpretive path.
  std::uint64_t port_stall = 0;
  if (!fwd_) {
    const unsigned ports =
        bundle.write_ports + static_cast<unsigned>(bundle.port_reads.size());
    if (ports != 0) port_stall = (ports + port_budget_ - 1) / port_budget_ - 1;
  } else if (bundle.write_ports != 0 || !bundle.port_reads.empty()) {
    for (int iter = 0; iter < 4; ++iter) {
      const std::uint64_t at = issue + port_stall;
      unsigned ports = bundle.write_ports;
      for (const std::uint32_t r : bundle.port_reads) {
        if (gpr_ready_[r] != at) ++ports;
      }
      const std::uint64_t needed =
          ports == 0 ? 0 : (ports + port_budget_ - 1) / port_budget_ - 1;
      if (needed == port_stall) break;
      port_stall = needed;
    }
  }
  if constexpr (kTimeline) tl_port_stall_ = port_stall;
  stats_.stall_reg_ports += port_stall;
  issue += port_stall;
  check_cycle_limit(issue);

  // ---- Stage 2: execute + writeback (all reads before any write). ----
  writes_scratch_.clear();
  stores_scratch_.clear();
  if constexpr (kTimeline) tl_ops_.clear();
  bool branch_taken = false;
  std::uint32_t branch_target = 0;
  bool halt_now = false;
  bool any_mem = false;
  unsigned useful_ops = 0;

  for (const DecodedOp& op : bundle.ops) {
    stats_.nops += op.nops_before;
    ++useful_ops;
    ++stats_.ops_executed;
    if (op.kind == ExecKind::Unsupported) {
      throw SimError(cat("operation `", std::string(op.info->name),
                         "` not implemented on this customisation"));
    }
    const bool guard = op.pred == 0 || preds_[op.pred] != 0;
    if (!guard) {
      ++stats_.ops_nullified;
      if constexpr (kTimeline) {
        tl_ops_.push_back({op.info->fu, op.info->name, 1, true});
      }
      continue;
    }
    ++stats_.ops_committed;
    if constexpr (kTimeline) {
      tl_ops_.push_back({op.info->fu, op.info->name, op.latency, false});
    }

    const std::uint32_t a = fetch(op.src1);
    const std::uint32_t b = fetch(op.src2);
    const std::uint64_t ready = issue + op.latency;

    switch (op.kind) {
      case ExecKind::Alu: {
        const std::uint32_t r = eval_alu(op.op, a, b, width_, custom_);
        writes_scratch_.push_back({RegFile::Gpr, op.dest1, r, ready});
        break;
      }
      case ExecKind::Cmpp: {
        const bool c = eval_cmpp(op.op, a, b, width_);
        writes_scratch_.push_back(
            {RegFile::Pred, op.dest1, c ? 1u : 0u, ready});
        if (op.has_dest2) {
          writes_scratch_.push_back(
              {RegFile::Pred, op.dest2, c ? 0u : 1u, ready});
        }
        break;
      }
      case ExecKind::Out:
        output_.push_back(a);
        break;
      case ExecKind::LdW:
        any_mem = true;
        writes_scratch_.push_back(
            {RegFile::Gpr, op.dest1,
             mask_to_width(mem_.read_word(a + b), width_), ready});
        ++stats_.mem_reads;
        break;
      case ExecKind::LdWS:
        any_mem = true;
        writes_scratch_.push_back(
            {RegFile::Gpr, op.dest1,
             mask_to_width(mem_.read_word_speculative(a + b), width_), ready});
        ++stats_.mem_reads;
        break;
      case ExecKind::LdB: {
        any_mem = true;
        const std::uint8_t byte = mem_.read_byte(a + b);
        writes_scratch_.push_back(
            {RegFile::Gpr, op.dest1,
             mask_to_width(
                 static_cast<std::uint32_t>(static_cast<std::int32_t>(
                     static_cast<std::int8_t>(byte))),
                 width_),
             ready});
        ++stats_.mem_reads;
        break;
      }
      case ExecKind::LdBU:
        any_mem = true;
        writes_scratch_.push_back(
            {RegFile::Gpr, op.dest1,
             static_cast<std::uint32_t>(mem_.read_byte(a + b)), ready});
        ++stats_.mem_reads;
        break;
      case ExecKind::StW:
        any_mem = true;
        stores_scratch_.push_back({false, a + b, gprs_[op.dest1]});
        ++stats_.mem_writes;
        break;
      case ExecKind::StB:
        any_mem = true;
        stores_scratch_.push_back({true, a + b, gprs_[op.dest1]});
        ++stats_.mem_writes;
        break;
      case ExecKind::Pbr:
        writes_scratch_.push_back(
            {RegFile::Btr, op.dest1, op.src1.value, ready});
        break;
      case ExecKind::Bru:
      case ExecKind::Brr:
        if (!branch_taken) {
          branch_taken = true;
          branch_target = a;
        }
        break;
      case ExecKind::Brct:
      case ExecKind::Brcf: {
        const bool cond = b != 0;
        const bool take = op.kind == ExecKind::Brct ? cond : !cond;
        if (take) {
          if (!branch_taken) {
            branch_taken = true;
            branch_target = a;
          }
        } else {
          ++stats_.branches_not_taken;
        }
        break;
      }
      case ExecKind::Brl:
        writes_scratch_.push_back({RegFile::Gpr, op.dest1, pc_ + 1, ready});
        if (!branch_taken) {
          branch_taken = true;
          branch_target = a;
        }
        break;
      case ExecKind::Halt:
        halt_now = true;
        break;
      case ExecKind::Unsupported:
        break;  // unreachable: thrown above
    }
  }
  stats_.nops += bundle.nops_trailing;

  write_back(stores_scratch_, writes_scratch_);
  return finish_step(issue, branch_taken, branch_target, halt_now, any_mem,
                     useful_ops);
}

bool EpicSimulator::step_interpretive() {
  const std::span<const Instruction> bundle = image_->program.bundle(pc_);

  // ---- Stage 1: fetch/decode/issue. Determine the issue cycle. ----
  // (a) Scoreboard: all source operands must be ready.
  std::uint64_t issue = cycle_;
  for (const Instruction& inst : bundle) {
    if (inst.is_nop()) continue;
    const OpInfo& info = inst.info();
    issue = std::max(issue, ready_cycle(RegFile::Pred, inst.pred));
    if (inst.src1.is_reg()) {
      issue = std::max(issue, ready_cycle(reg_file(info.src1), inst.src1.reg));
    }
    if (inst.src2.is_reg()) {
      issue = std::max(issue, ready_cycle(reg_file(info.src2), inst.src2.reg));
    }
    if (info.dest1_is_source) {
      issue = std::max(issue, ready_cycle(RegFile::Gpr, inst.dest1));
    }
  }
  tl_fetch_ = cycle_;
  tl_sb_stall_ = issue - cycle_;
  stats_.stall_scoreboard += issue - cycle_;

  // (b) Register-file-controller port budget (paper §3.2): GPR reads not
  // satisfied by forwarding plus GPR writes must fit in the budget;
  // excess adds issue cycles. Delaying issue can turn a forwarded read
  // into a port read, so iterate to a fixed point (converges fast: the
  // port count only grows while forwarded reads remain).
  const bool fwd = image_->mdes.forwarding();
  const unsigned budget = image_->mdes.reg_port_budget();
  std::uint64_t port_stall = 0;
  for (int iter = 0; iter < 4; ++iter) {
    const std::uint64_t at = issue + port_stall;
    unsigned ports = 0;
    auto count_read = [&](std::uint32_t reg) {
      if (reg == 0) return;  // r0 is hardwired, no port needed
      const std::uint64_t r = gpr_ready_[reg];
      if (!(fwd && r == at)) ++ports;
    };
    for (const Instruction& inst : bundle) {
      if (inst.is_nop()) continue;
      const OpInfo& info = inst.info();
      if (inst.src1.is_reg() && reg_file(info.src1) == RegFile::Gpr) {
        count_read(inst.src1.reg);
      }
      if (inst.src2.is_reg() && reg_file(info.src2) == RegFile::Gpr) {
        count_read(inst.src2.reg);
      }
      if (info.dest1_is_source) count_read(inst.dest1);
      if (info.writes_dest1() && info.dest1 == RegFile::Gpr && inst.dest1 != 0) {
        ++ports;
      }
    }
    const std::uint64_t needed =
        ports == 0 ? 0 : (ports + budget - 1) / budget - 1;
    if (needed == port_stall) break;
    port_stall = needed;
  }
  tl_port_stall_ = port_stall;
  stats_.stall_reg_ports += port_stall;
  issue += port_stall;
  check_cycle_limit(issue);

  // ---- Stage 2: execute + writeback (MultiOp semantics: all reads
  // happen before any write of the same MultiOp). ----
  if (timeline_ != nullptr) tl_ops_.clear();
  std::vector<WriteBack> writes;
  std::vector<PendingStore> stores;
  bool branch_taken = false;
  std::uint32_t branch_target = 0;
  bool halt_now = false;
  bool any_mem = false;
  unsigned useful_ops = 0;

  for (const Instruction& inst : bundle) {
    if (inst.is_nop()) {
      ++stats_.nops;
      continue;
    }
    ++useful_ops;
    ++stats_.ops_executed;
    const OpInfo& info = inst.info();
    if (!image_->mdes.op_supported(inst.op)) {
      throw SimError(cat("operation `", std::string(info.name),
                         "` not implemented on this customisation"));
    }
    const bool guard = pred(inst.pred);
    if (!guard) {
      ++stats_.ops_nullified;
      if (timeline_ != nullptr) {
        tl_ops_.push_back({info.fu, info.name, 1, true});
      }
      continue;
    }
    ++stats_.ops_committed;
    if (timeline_ != nullptr) {
      tl_ops_.push_back({info.fu, info.name, image_->mdes.latency(inst.op), false});
    }

    const std::uint32_t a =
        read_operand(inst.src1, info.src1, info.literal_zero_extends);
    const std::uint32_t b =
        read_operand(inst.src2, info.src2, info.literal_zero_extends);
    const std::uint64_t ready = issue + image_->mdes.latency(inst.op);

    switch (info.fu) {
      case FuClass::Alu: {
        const std::uint32_t r = eval_alu(inst.op, a, b, width_, custom_);
        writes.push_back({RegFile::Gpr, inst.dest1, r, ready});
        break;
      }
      case FuClass::Cmpu: {
        const bool c = eval_cmpp(inst.op, a, b, width_);
        writes.push_back({RegFile::Pred, inst.dest1, c ? 1u : 0u, ready});
        if (info.dest2 != RegFile::None) {
          writes.push_back({RegFile::Pred, inst.dest2, c ? 0u : 1u, ready});
        }
        break;
      }
      case FuClass::Lsu: {
        if (inst.op == Op::OUT) {
          output_.push_back(a);
          break;
        }
        any_mem = true;
        const std::uint32_t addr = a + b;
        switch (inst.op) {
          case Op::LDW:
            writes.push_back({RegFile::Gpr, inst.dest1,
                              mask_to_width(mem_.read_word(addr), width_),
                              ready});
            ++stats_.mem_reads;
            break;
          case Op::LDWS:
            writes.push_back({RegFile::Gpr, inst.dest1,
                              mask_to_width(mem_.read_word_speculative(addr),
                                            width_),
                              ready});
            ++stats_.mem_reads;
            break;
          case Op::LDB: {
            const std::uint8_t byte = mem_.read_byte(addr);
            writes.push_back(
                {RegFile::Gpr, inst.dest1,
                 mask_to_width(static_cast<std::uint32_t>(
                                   static_cast<std::int32_t>(
                                       static_cast<std::int8_t>(byte))),
                               width_),
                 ready});
            ++stats_.mem_reads;
            break;
          }
          case Op::LDBU:
            writes.push_back({RegFile::Gpr, inst.dest1,
                              static_cast<std::uint32_t>(mem_.read_byte(addr)),
                              ready});
            ++stats_.mem_reads;
            break;
          case Op::STW:
            stores.push_back({false, addr, gpr(inst.dest1)});
            ++stats_.mem_writes;
            break;
          case Op::STB:
            stores.push_back({true, addr, gpr(inst.dest1)});
            ++stats_.mem_writes;
            break;
          default:
            CEPIC_CHECK(false, "unhandled LSU op");
        }
        break;
      }
      case FuClass::Bru: {
        switch (inst.op) {
          case Op::PBR:
            writes.push_back({RegFile::Btr, inst.dest1,
                              static_cast<std::uint32_t>(inst.src1.lit),
                              ready});
            break;
          case Op::BRU:
            if (!branch_taken) {
              branch_taken = true;
              branch_target = a;
            }
            break;
          case Op::BRCT:
          case Op::BRCF: {
            const bool cond = b != 0;
            const bool take = inst.op == Op::BRCT ? cond : !cond;
            if (take) {
              if (!branch_taken) {
                branch_taken = true;
                branch_target = a;
              }
            } else {
              ++stats_.branches_not_taken;
            }
            break;
          }
          case Op::BRL:
            writes.push_back({RegFile::Gpr, inst.dest1, pc_ + 1, ready});
            if (!branch_taken) {
              branch_taken = true;
              branch_target = a;
            }
            break;
          case Op::BRR:
            if (!branch_taken) {
              branch_taken = true;
              branch_target = a;
            }
            break;
          case Op::HALT:
            halt_now = true;
            break;
          default:
            CEPIC_CHECK(false, "unhandled BRU op");
        }
        break;
      }
      case FuClass::None:
        break;
    }
  }

  write_back(stores, writes);
  return finish_step(issue, branch_taken, branch_target, halt_now, any_mem,
                     useful_ops);
}

const SimStats& EpicSimulator::run() {
  const ExecTier tier = active_tier();
  stats_.exec_tier = tier;
  stats_.timeline_pinned =
      options_.exec_tier == ExecTier::Threaded && tier == ExecTier::Decode;
  if (tier == ExecTier::Threaded) {
    run_threaded();
    obs::observe("sim.cycles_per_run", stats_.cycles);
    return stats_;
  }
  while (step()) {
  }
  // step() re-stamps the marker each bundle; restore the run-level
  // verdict (identical unless the tier was pinned).
  stats_.exec_tier = tier;
  obs::observe("sim.cycles_per_run", stats_.cycles);
  return stats_;
}

}  // namespace cepic

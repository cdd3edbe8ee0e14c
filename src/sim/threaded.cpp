// Threaded-code execution tier: block lowering (compile_block), the
// micro-op dispatch loop (exec_block) and the tier's run loop
// (run_threaded). See sim/threaded.hpp for the contract; the oracle
// whose observable behaviour every path here must reproduce exactly is
// step_decoded_impl / finish_step in sim/simulator.cpp.

#include <algorithm>
#include <span>
#include <utility>

#include "core/eval.hpp"
#include "sim/simulator.hpp"
#include "support/text.hpp"

namespace cepic {

namespace {

/// Register touched by an op, for the intra-bundle hazard scan.
struct RegRef {
  RegFile file = RegFile::None;
  std::uint32_t index = 0;
  bool operator==(const RegRef&) const = default;
};

void add_src_read(std::vector<RegRef>& reads, const DecodedSrc& src) {
  switch (src.kind) {
    case SrcKind::Gpr:
      if (src.reg != 0) reads.push_back({RegFile::Gpr, src.reg});
      break;
    case SrcKind::Pred:
      // preds_[0] is hardwired true and set_pred never writes it.
      if (src.reg != 0) reads.push_back({RegFile::Pred, src.reg});
      break;
    case SrcKind::Btr:
      reads.push_back({RegFile::Btr, src.reg});
      break;
    case SrcKind::Zero:
    case SrcKind::Lit:
      break;
  }
}

/// Everything `op` reads at execute time. The decode tier reads all of
/// these before any op of the bundle writes; direct micro-op execution
/// interleaves, so any op reading a register an earlier op writes must
/// push the whole bundle to the per-bundle fallback.
void reads_of(const DecodedOp& op, std::vector<RegRef>& reads) {
  reads.clear();
  if (op.pred != 0) reads.push_back({RegFile::Pred, op.pred});
  add_src_read(reads, op.src1);
  add_src_read(reads, op.src2);
  if (op.kind == ExecKind::StW || op.kind == ExecKind::StB) {
    // Store value: dest1-as-source.
    if (op.dest1 != 0) reads.push_back({RegFile::Gpr, op.dest1});
  }
}

/// Everything `op` may write. Guarded writes count: whether the guard
/// fires is unknown at compile time, so assume it does.
void writes_of(const DecodedOp& op, std::vector<RegRef>& writes) {
  writes.clear();
  switch (op.kind) {
    case ExecKind::Alu:
    case ExecKind::LdW:
    case ExecKind::LdWS:
    case ExecKind::LdB:
    case ExecKind::LdBU:
    case ExecKind::Brl:
      if (op.dest1 != 0) writes.push_back({RegFile::Gpr, op.dest1});
      break;
    case ExecKind::Cmpp:
      if (op.dest1 != 0) writes.push_back({RegFile::Pred, op.dest1});
      if (op.has_dest2 && op.dest2 != 0) {
        writes.push_back({RegFile::Pred, op.dest2});
      }
      break;
    case ExecKind::Pbr:
      writes.push_back({RegFile::Btr, op.dest1});
      break;
    default:
      break;
  }
}

/// exec_block counts bundle widths in one 64-bit accumulator: a 9-bit
/// lane per width 0..6 (lanes are flushed at least every 256 bundles,
/// below 2^9). A wider bundle, beyond any validated issue width, runs
/// through the per-bundle fallback.
constexpr unsigned kHistLaneBits = 9;
constexpr unsigned kHistLanes = 7;
static_assert(kHistLanes * kHistLaneBits <= 64);
static_assert(kHistLanes <= SimStats::kMaxBundleWidth + 1);

bool src_is_fast(const DecodedSrc& src) {
  return src.kind == SrcKind::Zero || src.kind == SrcKind::Lit ||
         src.kind == SrcKind::Gpr;
}

/// Can this op be lowered to a direct micro-op (with memory probes),
/// or must the bundle fall back to step_decoded()?
bool op_is_direct(const DecodedOp& op) {
  if (op.latency > 255) return false;  // lat rides in a uint8_t
  switch (op.kind) {
    case ExecKind::Alu:
      // Custom-op semantics are user callbacks: they may throw, so the
      // no-throw-between-begin-and-end invariant would not hold.
      if (is_custom(op.op)) return false;
      return src_is_fast(op.src1) && src_is_fast(op.src2);
    case ExecKind::Cmpp:
    case ExecKind::Out:
    case ExecKind::LdW:
    case ExecKind::LdWS:
    case ExecKind::LdB:
    case ExecKind::LdBU:
    case ExecKind::StW:
    case ExecKind::StB:
      return src_is_fast(op.src1) && src_is_fast(op.src2);
    case ExecKind::Pbr:
      return true;  // uses the raw literal, no operand fetch
    case ExecKind::Bru:
    case ExecKind::Brr:
    case ExecKind::Brl:
      return op.src1.kind != SrcKind::Pred;  // Btr/Gpr/Lit/Zero targets
    case ExecKind::Brct:
    case ExecKind::Brcf:
      if (op.src1.kind == SrcKind::Pred) return false;
      return op.src2.kind == SrcKind::Pred || op.src2.kind == SrcKind::Zero ||
             op.src2.kind == SrcKind::Lit;
    case ExecKind::Halt:
      return true;
    case ExecKind::Unsupported:
      return false;  // must fault with the decode tier's interleaving
  }
  return false;
}

bool is_control(ExecKind kind) {
  switch (kind) {
    case ExecKind::Bru:
    case ExecKind::Brr:
    case ExecKind::Brl:
    case ExecKind::Brct:
    case ExecKind::Brcf:
    case ExecKind::Halt:
      return true;
    default:
      return false;
  }
}

/// Specialised dispatch code for an ALU op. Only exact at a 32-bit
/// datapath, where eval_alu's sign-extended int64 arithmetic collapses
/// to plain uint32 identities; other widths use kAluGen.
UopCode alu_code(Op op, unsigned width) {
  if (width != 32) return UopCode::kAluGen;
  switch (op) {
    case Op::ADD: return UopCode::kAluAdd;
    case Op::SUB: return UopCode::kAluSub;
    case Op::MUL: return UopCode::kAluMul;
    case Op::AND: return UopCode::kAluAnd;
    case Op::OR: return UopCode::kAluOr;
    case Op::XOR: return UopCode::kAluXor;
    case Op::SHL: return UopCode::kAluShl;
    case Op::SHRL: return UopCode::kAluShrl;
    case Op::MOV: return UopCode::kAluMov;
    default: return UopCode::kAluGen;  // DIV/REM/MIN/MAX/ABS/SHRA
  }
}

}  // namespace

ThreadedBlock EpicSimulator::compile_block(std::uint32_t entry_pc) {
  ThreadedBlock block;
  block.entry_pc = entry_pc;

  // Extended-GPR index space (gprs_ layout in simulator.hpp): literal
  // operands intern into the shared constant pool so exec_block fetches
  // every operand with one unconditional load, and absent destinations
  // redirect to the sink so write-back never branches.
  const std::uint32_t gpr_sink = config_.num_gprs;
  const std::uint32_t pred_sink = config_.num_preds;
  const std::uint32_t pool_base = gpr_sink + 1;
  auto gpr_of = [&](const DecodedSrc& src) -> std::uint32_t {
    if (src.kind == SrcKind::Gpr) return src.reg;
    const std::uint32_t value = src.kind == SrcKind::Lit ? src.value : 0;
    if (value == 0) return 0;  // r0 is pinned to 0: the free zero literal
    for (std::size_t i = 0; i < threaded_.pool.size(); ++i) {
      if (threaded_.pool[i] == value) {
        return pool_base + static_cast<std::uint32_t>(i);
      }
    }
    threaded_.pool.push_back(value);
    return pool_base + static_cast<std::uint32_t>(threaded_.pool.size() - 1);
  };

  // Bundles whose memory probes can bail: each needs a tail fallback
  // micro-op appended after kExit. {indices of the uops whose e is the
  // bail target (standalone probes or fused probing forms), bundle pc,
  // index of the uop following the bundle's end}.
  struct ProbedBundle {
    std::vector<std::uint32_t> probes;
    std::uint32_t pc = 0;
    std::uint32_t next = 0;
  };
  std::vector<ProbedBundle> probed;

  std::vector<RegRef> hazard_writes;
  std::vector<RegRef> refs;

  // Static timing. Every bundle advances the clock by at least one
  // cycle (clk = issue + 1 with issue >= clk), so bundle j of a pass
  // begins at clk_j >= issue_i + (j - i) for every earlier bundle i. A
  // register whose last in-block writer is bundle i, unguarded, with
  // latency L <= j - i is therefore ready (issue_i + L <= clk_j) and
  // its scoreboard read cannot stall: it is dropped from the begin.
  const std::size_t pred_base = config_.num_gprs;
  const std::size_t btr_base = pred_base + config_.num_preds;
  threaded_.writers.resize(btr_base + config_.num_btrs);
  ThreadedCache::Writer* const writers = threaded_.writers.data();
  const std::uint64_t stamp = ++threaded_.compiles;
  auto writer_of = [&](RegFile file, std::uint32_t index) -> auto& {
    return writers[file == RegFile::Gpr    ? index
                   : file == RegFile::Pred ? pred_base + index
                                           : btr_base + index];
  };
  auto proven_ready = [&](RegFile file, std::uint32_t index) {
    const ThreadedCache::Writer& w = writer_of(file, index);
    return w.stamp == stamp && !w.guarded &&
           w.latency <= block.len_bundles - w.ordinal;
  };
  // Record the bundle's writes once its own reads are lowered. Several
  // writers in one bundle: the largest latency bounds the ready time,
  // and one unguarded writer makes the write certain.
  auto note_writes = [&](const DecodedBundle& bundle) {
    for (const DecodedOp& op : bundle.ops) {
      writes_of(op, refs);
      for (const RegRef& r : refs) {
        ThreadedCache::Writer& w = writer_of(r.file, r.index);
        const bool guarded = op.pred != 0;
        if (w.stamp == stamp && w.ordinal == block.len_bundles) {
          w.latency = std::max(w.latency, op.latency);
          w.guarded = w.guarded && guarded;
        } else {
          w = {stamp, block.len_bundles, op.latency, guarded};
        }
      }
    }
  };

  // The open fold run: index of the previous bundle's end uop when that
  // bundle may anchor or extend a run (direct, no memory probe, a plain
  // fall-through end), else kNoRun.
  constexpr std::size_t kNoRun = ~std::size_t{0};
  std::size_t run_end = kNoRun;

  std::uint32_t pc = entry_pc;
  while (pc < bundle_count_ && block.len_bundles < kThreadedMaxBlock) {
    const DecodedBundle& bundle = decoded_[pc];

    // ---- classify: direct (+probes) or per-bundle fallback ----
    bool direct = bundle.ops.size() < kHistLanes;
    hazard_writes.clear();
    for (const DecodedOp& op : bundle.ops) {
      if (!direct || !op_is_direct(op)) {
        direct = false;
        break;
      }
      reads_of(op, refs);
      for (const RegRef& r : refs) {
        if (std::find(hazard_writes.begin(), hazard_writes.end(), r) !=
            hazard_writes.end()) {
          // Intra-bundle RAW: the decode tier reads all operands before
          // any write of the same MultiOp; direct execution would not.
          direct = false;
          break;
        }
      }
      if (!direct) break;
      writes_of(op, refs);
      hazard_writes.insert(hazard_writes.end(), refs.begin(), refs.end());
    }

    if (!direct) {
      MicroOp fb;
      fb.code = UopCode::kFallback;
      fb.pc = pc;
      fb.e = static_cast<std::uint32_t>(block.uops.size()) + 1;
      block.uops.push_back(fb);
      note_writes(bundle);
      run_end = kNoRun;
      ++block.len_bundles;
      ++pc;
      continue;
    }

    ProbedBundle pb;
    pb.pc = pc;

    // ---- can the probes fuse into the memory ops themselves? ----
    // A fused probe bails mid-bundle, after earlier ops of the bundle
    // have executed, so the replay through step_decoded() is exact only
    // when re-running that prefix is unobservable: no OUT (the stream
    // would double-emit), no guard (the kGuard prefix commits its
    // statistics immediately), and no op writing a register the bundle
    // reads — the replay would see the new value (this covers self
    // increments and write-after-read pairs; the begin uop's scoreboard
    // and §3.2 port-read scans are register reads too, but they draw
    // from the same read set). hazard_writes holds the whole bundle's
    // writes after the classification scan above.
    bool fuse_probes = true;
    for (const DecodedOp& op : bundle.ops) {
      if (op.kind == ExecKind::Out || op.pred != 0) {
        fuse_probes = false;
        break;
      }
      reads_of(op, refs);
      for (const RegRef& r : refs) {
        if (std::find(hazard_writes.begin(), hazard_writes.end(), r) !=
            hazard_writes.end()) {
          fuse_probes = false;
          break;
        }
      }
      if (!fuse_probes) break;
    }

    // ---- static stat deltas, folded onto the end uop: the four
    // 16-bit-lane counters (nops | executed<<16 in lo, committed |
    // mem_reads<<16 in hi) and mem_writes ----
    unsigned n_nops = bundle.nops_trailing;
    unsigned n_commit = 0;
    unsigned n_memr = 0;
    unsigned n_memw = 0;
    bool traps = false;  // a memory op that needs a probe
    unsigned max_lat = 0;
    for (const DecodedOp& op : bundle.ops) {
      n_nops += op.nops_before;
      max_lat = std::max(max_lat, op.latency);
      switch (op.kind) {
        case ExecKind::LdW:
        case ExecKind::LdB:
        case ExecKind::LdBU:
        case ExecKind::StW:
        case ExecKind::StB: traps = true; break;
        default: break;
      }
      if (op.pred != 0) continue;  // counted by its kGuard prefix
      ++n_commit;
      switch (op.kind) {
        case ExecKind::LdW:
        case ExecKind::LdWS:
        case ExecKind::LdB:
        case ExecKind::LdBU: ++n_memr; break;
        case ExecKind::StW:
        case ExecKind::StB: ++n_memw; break;
        default: break;
      }
    }
    std::uint32_t lo = (n_nops & 0xffu) |
                       static_cast<std::uint32_t>(bundle.ops.size() & 0xff)
                           << 16;
    std::uint32_t hi = (n_commit & 0xffu) | (n_memr & 0xffu) << 16;
    // Width-histogram delta: one count in the bundle's lane.
    std::uint64_t hist = std::uint64_t{1}
                         << (kHistLaneBits * bundle.ops.size());

    // ---- begin uop: scoreboard slices + §3.2 port verdict ----
    // (sources the static timing proves ready are left out)
    unsigned fold = 0;  // this bundle's offset in its fold run
    {
      MicroOp m;
      m.pc = pc;
      const std::size_t sb_at = block.sb.size();
      m.a = static_cast<std::uint32_t>(sb_at);
      auto add_sources = [&](RegFile file,
                             std::span<const std::uint32_t> regs) {
        std::uint32_t kept = 0;
        for (const std::uint32_t r : regs) {
          if (proven_ready(file, r)) {
            ++threaded_.elided_sources;
          } else {
            block.sb.push_back(r);
            ++kept;
          }
        }
        return kept;
      };
      const std::uint32_t n_gpr = add_sources(RegFile::Gpr, bundle.sb_gpr);
      const std::uint32_t n_pred = add_sources(RegFile::Pred, bundle.sb_pred);
      const std::uint32_t n_btr = add_sources(RegFile::Btr, bundle.sb_btr);
      m.b = n_gpr | n_pred << 8 | n_btr << 16;
      const unsigned demand =
          bundle.write_ports + static_cast<unsigned>(bundle.port_reads.size());
      if (fwd_ && demand > port_budget_) {
        // Forwarding can re-price reads as issue slips: dynamic fixed
        // point over the port-read list.
        m.code = UopCode::kBeginPorts;
        m.d = static_cast<std::uint32_t>(block.sb.size());
        block.sb.insert(block.sb.end(), bundle.port_reads.begin(),
                        bundle.port_reads.end());
        m.b |= static_cast<std::uint32_t>(bundle.port_reads.size()) << 24;
        m.aux = static_cast<std::uint8_t>(bundle.write_ports);
      } else {
        // Constant verdict: zero with forwarding (demand fits the
        // budget), a pre-divided stall without it.
        m.aux = static_cast<std::uint8_t>(
            fwd_ || demand == 0 ? 0
                                : (demand + port_budget_ - 1) / port_budget_ - 1);
        if (m.aux == 0 && n_pred == 0 && n_btr == 0 && n_gpr <= 2) {
          // No slice scan: kBeginFast with no sources at all, else the
          // dominant shape — one or two GPR-only scoreboard sources
          // and no port stall: the register indices ride in the uop
          // itself (a/d; gpr_ready[0] is always 0, so padding with r0
          // is free), issue = ready max.
          m.code = n_gpr == 0 ? UopCode::kBeginFast : UopCode::kBegin2;
          m.a = n_gpr == 0 ? 0 : block.sb[sb_at];
          m.d = n_gpr > 1 ? block.sb[sb_at + 1] : m.a;
          block.sb.resize(sb_at);
        } else {
          m.code = UopCode::kBegin;
        }
      }

      // Fold a stall-free boundary: a kBeginFast bundle after a plain
      // fall-through end issues exactly one cycle after its
      // predecessor, so both the end and this begin drop out and the
      // bundle joins the predecessor's run at offset fold (its results
      // ready at anchor issue + fold + lat). Neither bundle may hold a
      // memory probe (a bail replays from a bundle boundary the run no
      // longer has) and the pipeline must have no memory contention (a
      // dynamic extra cycle); every baked latency and summed stat lane
      // stays within its 8 bits.
      if (m.code == UopCode::kBeginFast && run_end != kNoRun && !traps &&
          !config_.unified_memory_contention) {
        const MicroOp& prev = block.uops[run_end];
        const unsigned next_fold = prev.b >> 16;  // the run's clock advance
        const std::uint32_t sum_lo = prev.d + lo;
        const std::uint32_t sum_hi = prev.e + hi;
        if (max_lat + next_fold <= 255 &&
            ((sum_lo | sum_hi) & 0xff00ff00u) == 0) {
          fold = next_fold;
          lo = sum_lo;
          hi = sum_hi;
          hist += std::uint64_t{prev.h} << 32 | prev.a;
          block.uops.pop_back();  // the previous end (always the last uop)
          ++threaded_.folded_bundles;
        }
      }
      if (fold == 0) block.uops.push_back(m);
    }
    note_writes(bundle);

    // ---- standalone memory probes, for bundles the fused forms
    // cannot prove exact (after the begin uop — its stall statistics
    // are deferred to the bundle-end uop, so a bail still replays the
    // bundle with no state changed; placing them here keeps every
    // fall-through end/begin pair adjacent and fusable). Probes read
    // only pre-bundle register values, which the intra-bundle hazard
    // scan above guarantees are what the decode tier would read.
    for (const DecodedOp& op : bundle.ops) {
      if (fuse_probes) break;  // the fused forms carry their own probe
      UopCode code;
      switch (op.kind) {
        case ExecKind::LdW: code = UopCode::kProbeWord; break;
        case ExecKind::LdB:
        case ExecKind::LdBU: code = UopCode::kProbeByte; break;
        case ExecKind::StW: code = UopCode::kProbeWord; break;
        case ExecKind::StB: code = UopCode::kProbeByte; break;
        default: continue;  // LdWS never faults: no probe
      }
      MicroOp m;
      m.code = code;
      m.pc = pc;
      m.a = gpr_of(op.src1);
      m.b = gpr_of(op.src2);
      if (op.pred != 0) {
        m.flags |= kFlagGuarded;
        m.pred = static_cast<std::uint16_t>(op.pred);
      }
      pb.probes.push_back(static_cast<std::uint32_t>(block.uops.size()));
      block.uops.push_back(m);
    }

    // ---- op uops, in slot order ----
    for (const DecodedOp& op : bundle.ops) {
      if (op.pred != 0) {
        // Predicate prefix: the op handlers themselves never test
        // guards (most ops are unguarded), the prefix skips or commits
        // the next slot and carries the dynamic stat deltas a static
        // end-uop fold cannot know.
        MicroOp g;
        g.code = UopCode::kGuard;
        g.pc = pc;
        g.pred = static_cast<std::uint16_t>(op.pred);
        switch (op.kind) {
          case ExecKind::LdW:
          case ExecKind::LdWS:
          case ExecKind::LdB:
          case ExecKind::LdBU: g.a = 1; break;  // mem_reads on commit
          case ExecKind::StW:
          case ExecKind::StB: g.b = 1; break;  // mem_writes on commit
          default: break;
        }
        block.uops.push_back(g);
      }

      MicroOp m;
      m.pc = pc;
      m.lat = static_cast<std::uint8_t>(op.latency + fold);
      m.op = op.op;
      // Branch targets live in the extended GPR space too (pool slot
      // for literal targets) unless they come from a branch-target
      // register: one flag picks the file, nothing else branches.
      auto target_of = [&](const DecodedSrc& src) {
        if (src.kind == SrcKind::Btr) return src.reg;
        m.flags |= kFlagTargetGpr;
        return gpr_of(src);
      };
      switch (op.kind) {
        case ExecKind::Alu:
          m.code = alu_code(op.op, width_);
          m.a = gpr_of(op.src1);
          m.b = gpr_of(op.src2);
          m.d = op.dest1 != 0 ? op.dest1 : gpr_sink;
          break;
        case ExecKind::Cmpp:
          m.code = UopCode::kCmpp;
          m.a = gpr_of(op.src1);
          m.b = gpr_of(op.src2);
          // Both predicate writes are unconditional in exec_block; an
          // absent (or p0) destination lands in the sink.
          m.d = op.dest1 != 0 ? op.dest1 : pred_sink;
          m.e = op.has_dest2 && op.dest2 != 0 ? op.dest2 : pred_sink;
          break;
        case ExecKind::Out:
          m.code = UopCode::kOut;
          m.a = gpr_of(op.src1);
          break;
        case ExecKind::LdW:
        case ExecKind::LdWS:
        case ExecKind::LdB:
        case ExecKind::LdBU:
          m.code = op.kind == ExecKind::LdW    ? UopCode::kLdW
                   : op.kind == ExecKind::LdWS ? UopCode::kLdWS
                   : op.kind == ExecKind::LdB  ? UopCode::kLdB
                                               : UopCode::kLdBU;
          m.a = gpr_of(op.src1);
          m.b = gpr_of(op.src2);
          m.d = op.dest1 != 0 ? op.dest1 : gpr_sink;
          break;
        case ExecKind::StW:
        case ExecKind::StB:
          m.code = op.kind == ExecKind::StW ? UopCode::kStW : UopCode::kStB;
          m.a = gpr_of(op.src1);
          m.b = gpr_of(op.src2);
          m.d = op.dest1;  // store value register (dest1-as-source; r0
                           // reads as 0, so no redirect)
          break;
        case ExecKind::Pbr:
          m.code = UopCode::kPbr;
          m.a = op.src1.value;  // raw literal, not width-masked
          m.d = op.dest1;
          break;
        case ExecKind::Bru:
        case ExecKind::Brr:
        case ExecKind::Brl:
          m.code = UopCode::kBr;
          m.a = target_of(op.src1);
          if (op.kind == ExecKind::Brl) {
            m.flags |= kFlagLink;
            m.d = op.dest1 != 0 ? op.dest1 : gpr_sink;
            m.b = mask_to_width(pc + 1, width_);  // link value, pre-masked
          }
          break;
        case ExecKind::Brct:
        case ExecKind::Brcf:
          m.code = op.kind == ExecKind::Brct ? UopCode::kBrct : UopCode::kBrcf;
          m.a = target_of(op.src1);
          // Condition: p0 is hardwired true, so fold it (and Zero/Lit)
          // into a literal condition.
          if (op.src2.kind == SrcKind::Pred && op.src2.reg != 0) {
            m.b = op.src2.reg;
          } else {
            m.flags |= kFlagS2Lit;
            m.b = op.src2.kind == SrcKind::Pred ? 1 : op.src2.value;
          }
          break;
        case ExecKind::Halt:
          m.code = UopCode::kHalt;
          break;
        case ExecKind::Unsupported:
          break;  // unreachable: op_is_direct rejected it
      }
      if (fuse_probes) {
        // Probing forms: the bail target (e) is patched to the
        // bundle's tail fallback below, exactly like a standalone
        // probe. kLdWS stays plain — it never faults.
        UopCode fused = m.code;
        switch (m.code) {
          case UopCode::kLdW: fused = UopCode::kLdWP; break;
          case UopCode::kLdB: fused = UopCode::kLdBP; break;
          case UopCode::kLdBU: fused = UopCode::kLdBUP; break;
          case UopCode::kStW: fused = UopCode::kStWP; break;
          case UopCode::kStB: fused = UopCode::kStBP; break;
          default: break;
        }
        if (fused != m.code) {
          m.code = fused;
          pb.probes.push_back(static_cast<std::uint32_t>(block.uops.size()));
        }
      }
      block.uops.push_back(m);
    }

    // ---- end uop: folded statistics + epilogue ----
    {
      MicroOp m;
      m.pc = pc;
      bool control = false;
      for (const DecodedOp& op : bundle.ops) control |= is_control(op.kind);
      m.code = control ? UopCode::kEnd : UopCode::kEndFall;
      // d/e: the four counter deltas (the run's sums when folded)
      // pre-expanded to 16-bit lanes of one 64-bit word, so exec_block
      // folds them with a single register add (flushed to SimStats at
      // block exits).
      m.d = lo;
      m.e = hi;
      m.b = (n_memw & 0xffu) | (fold + 1) << 16;
      m.a = static_cast<std::uint32_t>(hist);
      m.h = static_cast<std::uint32_t>(hist >> 32);
      if (config_.unified_memory_contention) {
        m.flags |= kFlagContention;
      }
      run_end = control || traps ? kNoRun : block.uops.size();
      block.uops.push_back(m);
    }

    pb.next = static_cast<std::uint32_t>(block.uops.size());
    if (!pb.probes.empty()) probed.push_back(std::move(pb));
    ++block.len_bundles;
    ++pc;

    // An unguarded unconditional control op never falls through: the
    // block cannot extend past it.
    bool always_exits = false;
    for (const DecodedOp& op : bundle.ops) {
      if (op.pred != 0) continue;
      if (op.kind == ExecKind::Bru || op.kind == ExecKind::Brr ||
          op.kind == ExecKind::Brl || op.kind == ExecKind::Halt) {
        always_exits = true;
      }
    }
    if (always_exits) break;
  }

  block.uops.push_back(MicroOp{});  // kExit

  // Tail fallbacks for probe bails: replay the bundle via
  // step_decoded() (reproducing the fault, or the guarded skip), then
  // rejoin the block at the next bundle if execution fell through.
  for (const ProbedBundle& pb : probed) {
    const std::uint32_t tail = static_cast<std::uint32_t>(block.uops.size());
    MicroOp fb;
    fb.code = UopCode::kFallback;
    fb.pc = pb.pc;
    fb.e = pb.next;
    block.uops.push_back(fb);
    for (const std::uint32_t probe : pb.probes) block.uops[probe].e = tail;
  }

  // Fuse adjacent fall-through-end / begin pairs into one dispatch
  // (roughly one indirect branch per bundle saved on straight-line
  // code). Codes are rewritten in place and both slots stay, so probe
  // bail targets and fallback rejoin indices remain valid: a rejoin
  // lands on the second slot and executes the original begin there,
  // while the fused handler consumes both slots itself.
  for (std::size_t i = 0; i + 1 < block.uops.size(); ++i) {
    if (block.uops[i].code != UopCode::kEndFall) continue;
    if (block.uops[i + 1].code == UopCode::kBegin) {
      block.uops[i].code = UopCode::kEndFallBegin;
    } else if (block.uops[i + 1].code == UopCode::kBegin2) {
      block.uops[i].code = UopCode::kEndFallBegin2;
    } else if (block.uops[i + 1].code == UopCode::kBeginFast) {
      block.uops[i].code = UopCode::kEndFallBeginFast;
    } else if (block.uops[i + 1].code == UopCode::kBeginPorts) {
      block.uops[i].code = UopCode::kEndFallBeginPorts;
    }
  }

  block.max_advance =
      (std::uint64_t{block.len_bundles} + 1) * threaded_.advance_bound;
  // Blocks live as long as their simulator: drop the push_back slack.
  block.uops.shrink_to_fit();
  block.sb.shrink_to_fit();
  return block;
}

// Dispatch strategy: classic threaded code. With GNU extensions the
// dispatch is a computed goto replicated at the end of every handler —
// no bounds check, and each handler's indirect branch predicts
// independently (a shared switch jump is a BTB bottleneck at this
// frequency). Elsewhere the same handler bodies compile as a portable
// for/switch loop.
#if defined(__GNUC__) || defined(__clang__)
#define CEPIC_THREADED_GOTO 1
#else
#define CEPIC_THREADED_GOTO 0
#endif

#if CEPIC_THREADED_GOTO
#define CEPIC_CASE(x) L_##x
#define CEPIC_NEXT() goto* kDispatch[static_cast<unsigned>((++u)->code)]
#define CEPIC_DISPATCH() goto* kDispatch[static_cast<unsigned>(u->code)]
#else
#define CEPIC_CASE(x) case UopCode::x
#define CEPIC_NEXT() \
  {                  \
    ++u;             \
    continue;        \
  }
#define CEPIC_DISPATCH() continue
#endif

void EpicSimulator::exec_block(const ThreadedBlock& block) {
  // Not const: when one block exits into the entry of another compiled
  // block (the loop back-edge case), execution transitions to it right
  // here (L_next_block below) without returning to run_threaded — all
  // the hoisted state stays in registers across the whole hot region.
  const MicroOp* uops = block.uops.data();
  const std::uint32_t* sbt = block.sb.data();
  const DecodedBundle* const db = decoded_;
  const std::int32_t* const block_at = threaded_.block_at.data();
  const ThreadedBlock* const blocks_p = threaded_.blocks.data();
  const std::uint64_t max_cycles = options_.max_cycles;
  const std::uint32_t bcount = bundle_count_;
  const unsigned bubbles_c = config_.pipeline_stages - 1;

  // Hoisted raw pointers: locals whose address never escapes, so the
  // compiler keeps them live in registers across the member-function
  // calls below (vector members would have to be reloaded).
  std::uint32_t* const gprs = gprs_.data();
  std::uint8_t* const preds = preds_.data();
  std::uint32_t* const btrs = btrs_.data();
  std::uint64_t* const gpr_ready = gpr_ready_.data();
  std::uint64_t* const pred_ready = pred_ready_.data();
  std::uint64_t* const btr_ready = btr_ready_.data();
  std::uint8_t* const mem = mem_.exec_data();
  const std::size_t mem_size = mem_.size();
  const std::uint32_t gpr_mask = gpr_mask_;

  const MicroOp* u = uops;

  // The architectural clock and next-pc live in registers; the members
  // (cycle_, pc_, stats_.cycles) are flushed only where they become
  // observable: block exits, per-bundle fallbacks and fault throws.
  // Invariant at every flush point: stats_.cycles == cycle_ == clk at a
  // bundle boundary, exactly as after finish_step.
  std::uint64_t clk = cycle_;
  std::uint32_t pcl = pc_;
  std::uint64_t issue = clk;
  bool branch_taken = false;
  bool halt_now = false;
  bool any_mem = false;
  std::uint32_t branch_target = 0;
  PendingStore pend[SimStats::kMaxBundleWidth];
  unsigned pend_n = 0;

  // Per-bundle counter deltas accumulate in 16-bit lanes of one
  // register (nops | executed<<16 | committed<<32 | mem_reads<<48,
  // pre-expanded at lowering time) plus bundle/stall counters, flushed
  // to SimStats only where stats become observable. A lane cannot
  // overflow: forward-only movement bounds one pass at
  // kThreadedMaxBlock (<= 64) end micro-ops, each delta <= 255, and
  // block-to-block transitions flush.
  std::uint64_t acc = 0;
  // Second accumulator, same lane trick: stall_scoreboard |
  // stall_reg_ports<<16 | mem_writes<<32 | bundles_issued<<48. Per-end
  // deltas are <= 254 / 8 / 8 / run length, so the overflow bound is
  // the same one `acc` lives under (it counts bundles, not ends).
  std::uint64_t acc2 = 0;
  // Bundle-width histogram, one kHistLaneBits lane per width, under
  // the same flush bound.
  std::uint64_t hacc = 0;
  // Current bundle's stall deltas (scoreboard | reg_ports<<16), packed
  // by the begin shapes and folded into acc2 by the end micro-op:
  // deferring the commit lets the memory probes run *after* the begin
  // (keeping end/begin pairs adjacent for fusion) while a probe bail
  // still replays the bundle with its statistics untouched.
  std::uint64_t bundle_sr = 0;

// Operand fetch / guard prologue shared by the op micro-ops. Operand
// fields are extended-GPR indices (literals were interned into the
// constant-pool tail of gprs_ at lowering time), so a fetch is one
// unconditional load. The guard bookkeeping mirrors the decode tier: a
// false guard nullifies, a true guard on a guarded op commits
// (unguarded commits are folded onto the end micro-op instead).
#define CEPIC_SRC_A() gprs[m.a]
#define CEPIC_SRC_B() gprs[m.b]
// Unconditional: absent destinations (and r0) were redirected to the
// write sink at lowering time.
#define CEPIC_WRITE_GPR(value)    \
  gprs[m.d] = (value);            \
  gpr_ready[m.d] = issue + m.lat
// Folded per-bundle statistics + pending-store flush + clock advance:
// the head of the bundle epilogue, shared by kEndFall and kEnd (legal:
// nothing between the begin uop and here can throw). Mirrors
// finish_step's exact order; loads and stores went through the probes,
// so raw big-endian access cannot fault.
#define CEPIC_END_COMMON()                                           \
  const std::uint32_t sb2 = m.b;                                     \
  const std::uint32_t adv = sb2 >> 16; /* bundles in the run */      \
  acc += (static_cast<std::uint64_t>(m.e) << 32) | m.d;              \
  /* stall stats commit with the bundle (a probe bail after the */   \
  /* begin drops them), mem_writes and the bundle count ride the */  \
  /* upper lanes */                                                  \
  acc2 += bundle_sr + (static_cast<std::uint64_t>(sb2 & 0xff) << 32) + \
          (static_cast<std::uint64_t>(adv) << 48);                   \
  hacc += (static_cast<std::uint64_t>(m.h) << 32) | m.a;             \
  for (unsigned i = 0; i < pend_n; ++i) {                            \
    const std::uint32_t at = pend[i].addr;                           \
    const std::uint32_t v = pend[i].value;                           \
    mem_.mark_written(at, pend[i].byte ? 1 : 4);                     \
    if (pend[i].byte) {                                              \
      mem[at] = static_cast<std::uint8_t>(v);                        \
    } else {                                                         \
      mem[at] = static_cast<std::uint8_t>(v >> 24);                  \
      mem[at + 1] = static_cast<std::uint8_t>(v >> 16);              \
      mem[at + 2] = static_cast<std::uint8_t>(v >> 8);               \
      mem[at + 3] = static_cast<std::uint8_t>(v);                    \
    }                                                                \
  }                                                                  \
  clk = issue + adv; /* the run's last bundle issued at issue + adv - 1 */ \
  if ((m.flags & kFlagContention) && any_mem) {                      \
    ++clk;                                                           \
    ++stats_.stall_mem_contention;                                   \
  }                                                                  \
  any_mem = false; /* consume-and-reset: cheaper than resetting */   \
  pend_n = 0;      /* at every begin (see kFallback / kEnd)     */
// Apply the accumulated counter deltas. Required before every point
// where SimStats escapes the block: returns, throws, per-bundle
// fallbacks (step_decoded updates SimStats itself and may throw), and
// block-to-block transitions (keeps the lane-overflow bound).
#define CEPIC_FLUSH_STATS()                        \
  stats_.nops += acc & 0xffff;                     \
  stats_.ops_executed += (acc >> 16) & 0xffff;     \
  stats_.ops_committed += (acc >> 32) & 0xffff;    \
  stats_.mem_reads += acc >> 48;                   \
  stats_.stall_scoreboard += acc2 & 0xffff;        \
  stats_.stall_reg_ports += (acc2 >> 16) & 0xffff; \
  stats_.mem_writes += (acc2 >> 32) & 0xffff;      \
  stats_.bundles_issued += acc2 >> 48;             \
  for (unsigned w = 0; w < kHistLanes; ++w) {      \
    stats_.bundle_width_hist[w] +=                 \
        (hacc >> (kHistLaneBits * w)) & 0x1ff;     \
  }                                                \
  acc = 0;                                         \
  acc2 = 0;                                        \
  hacc = 0;
// Scoreboard scan of the begin micro-op: issue slips to the latest
// ready time over the bundle's source registers (leaves `is` in
// scope; the caller packs the stall delta into bundle_sr). Shared by
// kBegin/kBeginPorts and the fused end+begin codes. The delta parks in
// bundle_sr (not acc2): it becomes observable only when the bundle's
// end micro-op commits, so a memory probe bailing to the per-bundle
// fallback leaves no trace of it.
#define CEPIC_BEGIN_SB()                                     \
  std::uint64_t is = clk;                                    \
  {                                                          \
    const std::uint32_t* p = sbt + m.a;                      \
    const std::uint32_t counts = m.b;                        \
    for (unsigned i = 0; i < (counts & 0xff); ++i) {         \
      is = std::max(is, gpr_ready[p[i]]);                    \
    }                                                        \
    p += counts & 0xff;                                      \
    for (unsigned i = 0; i < ((counts >> 8) & 0xff); ++i) {  \
      is = std::max(is, pred_ready[p[i]]);                   \
    }                                                        \
    p += (counts >> 8) & 0xff;                               \
    for (unsigned i = 0; i < ((counts >> 16) & 0xff); ++i) { \
      is = std::max(is, btr_ready[p[i]]);                    \
    }                                                        \
  }
// §3.2 fixed point, exactly as step_decoded_impl with forwarding on:
// delaying issue can turn a forwarded read into a port read. Follows
// CEPIC_BEGIN_SB (consumes `is`); shared by kBeginPorts and its fused
// form.
#define CEPIC_BEGIN_PORTS_STALL()                                        \
  const std::uint32_t* reads = sbt + m.d;                                \
  const unsigned n_reads = m.b >> 24;                                    \
  std::uint64_t port_stall = 0;                                          \
  for (int iter = 0; iter < 4; ++iter) {                                 \
    const std::uint64_t at = is + port_stall;                            \
    unsigned ports = m.aux; /* static write-port demand */               \
    for (unsigned i = 0; i < n_reads; ++i) {                             \
      if (gpr_ready[reads[i]] != at) ++ports;                            \
    }                                                                    \
    const std::uint64_t needed =                                         \
        ports == 0 ? 0 : (ports + port_budget_ - 1) / port_budget_ - 1;  \
    if (needed == port_stall) break;                                     \
    port_stall = needed;                                                 \
  }                                                                      \
  bundle_sr = (is - clk) | (port_stall << 16);                           \
  issue = is + port_stall

#if CEPIC_THREADED_GOTO
  // Indexed by UopCode; order must match the enum (the count is pinned
  // by the static_assert below).
  static const void* const kDispatch[] = {
      &&L_kBeginFast, &&L_kBegin,  &&L_kBegin2,        &&L_kBeginPorts,
      &&L_kProbeWord, &&L_kProbeByte, &&L_kGuard,      &&L_kAluGen,
      &&L_kAluAdd,
      &&L_kAluSub,    &&L_kAluMul, &&L_kAluAnd,        &&L_kAluOr,
      &&L_kAluXor,    &&L_kAluShl, &&L_kAluShrl,       &&L_kAluMov,
      &&L_kCmpp,      &&L_kOut,    &&L_kLdW,           &&L_kLdWS,
      &&L_kLdB,       &&L_kLdBU,   &&L_kStW,           &&L_kStB,
      &&L_kLdWP,      &&L_kLdBP,   &&L_kLdBUP,         &&L_kStWP,
      &&L_kStBP,
      &&L_kPbr,       &&L_kBr,     &&L_kBrct,          &&L_kBrcf,
      &&L_kHalt,      &&L_kEndFall, &&L_kEnd,          &&L_kEndFallBegin,
      &&L_kEndFallBegin2,          &&L_kEndFallBeginFast,
      &&L_kEndFallBeginPorts,
      &&L_kFallback,  &&L_kExit,
  };
  static_assert(sizeof(kDispatch) / sizeof(kDispatch[0]) == kNumUopCodes);
#endif
  goto L_dispatch;

  // Block exit with a known next pc: when the next bundle heads a
  // compiled block and the cycle-limit slack holds, transition straight
  // into it — the common loop back-edge never pays the function-call
  // round trip through run_threaded (prologue, re-hoisting a dozen
  // pointers) per iteration.
L_next_block:
  if (pcl < bcount) {
    const std::int32_t bi = block_at[pcl];
    if (bi >= 0) {
      const ThreadedBlock& nb = blocks_p[bi];
      if (clk < max_cycles && max_cycles - clk > nb.max_advance) {
        ++threaded_.block_entries;
        // SimStats are not observable across an in-function
        // transition, so the flush is lazy: only often enough that the
        // 16-bit lanes of `acc` cannot overflow (<= 255 per end
        // micro-op, and one block pass adds at most kThreadedMaxBlock
        // ends, so lanes stay <= 255 * (192 + 64) < 2^16).
        constexpr std::uint64_t kFlushBundles = 192;
        static_assert(255 * (kFlushBundles + kThreadedMaxBlock) < (1u << 16),
                      "kThreadedMaxBlock overflows exec_block's stat lanes");
        static_assert(kFlushBundles + kThreadedMaxBlock < (1u << kHistLaneBits),
                      "kThreadedMaxBlock overflows the histogram lanes");
        if (acc2 >= (kFlushBundles << 48)) {
          CEPIC_FLUSH_STATS();
        }
        uops = nb.uops.data();
        sbt = nb.sb.data();
        u = uops;
        goto L_dispatch;
      }
    }
  }
  CEPIC_FLUSH_STATS();
  pc_ = pcl;
  cycle_ = clk;
  stats_.cycles = clk;
  return;

L_dispatch:
#if CEPIC_THREADED_GOTO
  CEPIC_DISPATCH();
#else
  for (;;) {
    switch (u->code) {
#endif

      CEPIC_CASE(kBeginFast) : {
        issue = clk;
        bundle_sr = 0;
        CEPIC_NEXT();
      }

      CEPIC_CASE(kBegin) : {
        const MicroOp& m = *u;
        CEPIC_BEGIN_SB();
        bundle_sr = (is - clk) | (static_cast<std::uint64_t>(m.aux) << 16);
        issue = is + m.aux;
        CEPIC_NEXT();
      }

      CEPIC_CASE(kBegin2) : {
        const MicroOp& m = *u;
        const std::uint64_t is =
            std::max(clk, std::max(gpr_ready[m.a], gpr_ready[m.d]));
        bundle_sr = is - clk;
        issue = is;
        CEPIC_NEXT();
      }

      CEPIC_CASE(kBeginPorts) : {
        const MicroOp& m = *u;
        CEPIC_BEGIN_SB();
        CEPIC_BEGIN_PORTS_STALL();
        CEPIC_NEXT();
      }

      CEPIC_CASE(kProbeWord) : {
        const MicroOp& m = *u;
        if ((m.flags & kFlagGuarded) && preds[m.pred] == 0) {
          CEPIC_NEXT();  // op will be nullified: no access, no probe
        }
        const std::uint32_t addr = CEPIC_SRC_A() + CEPIC_SRC_B();
        if (addr < kDataBase || (addr & 3u) != 0 ||
            static_cast<std::size_t>(addr) + 4 > mem_size) {
          u = uops + m.e;  // would fault: replay via the tail fallback
          CEPIC_DISPATCH();
        }
        CEPIC_NEXT();
      }
      CEPIC_CASE(kProbeByte) : {
        const MicroOp& m = *u;
        if ((m.flags & kFlagGuarded) && preds[m.pred] == 0) {
          CEPIC_NEXT();
        }
        const std::uint32_t addr = CEPIC_SRC_A() + CEPIC_SRC_B();
        if (addr < kDataBase ||
            static_cast<std::size_t>(addr) + 1 > mem_size) {
          u = uops + m.e;
          CEPIC_DISPATCH();
        }
        CEPIC_NEXT();
      }

      CEPIC_CASE(kGuard) : {
        const MicroOp& m = *u;
        if (preds[m.pred] == 0) {
          ++stats_.ops_nullified;
          u += 2;  // skip the guarded op (always exactly one slot)
          CEPIC_DISPATCH();
        }
        ++stats_.ops_committed;
        stats_.mem_reads += m.a;  // dynamic mem deltas the end uop's
        stats_.mem_writes += m.b; /* static fold cannot account for */
        CEPIC_NEXT();
      }

      CEPIC_CASE(kAluGen) : {
        const MicroOp& m = *u;
        const std::uint32_t r =
            eval_alu(m.op, CEPIC_SRC_A(), CEPIC_SRC_B(), width_, custom_);
        CEPIC_WRITE_GPR(r);
        CEPIC_NEXT();
      }
      CEPIC_CASE(kAluAdd) : {
        const MicroOp& m = *u;
        CEPIC_WRITE_GPR(CEPIC_SRC_A() + CEPIC_SRC_B());
        CEPIC_NEXT();
      }
      CEPIC_CASE(kAluSub) : {
        const MicroOp& m = *u;
        CEPIC_WRITE_GPR(CEPIC_SRC_A() - CEPIC_SRC_B());
        CEPIC_NEXT();
      }
      CEPIC_CASE(kAluMul) : {
        const MicroOp& m = *u;
        CEPIC_WRITE_GPR(CEPIC_SRC_A() * CEPIC_SRC_B());
        CEPIC_NEXT();
      }
      CEPIC_CASE(kAluAnd) : {
        const MicroOp& m = *u;
        CEPIC_WRITE_GPR(CEPIC_SRC_A() & CEPIC_SRC_B());
        CEPIC_NEXT();
      }
      CEPIC_CASE(kAluOr) : {
        const MicroOp& m = *u;
        CEPIC_WRITE_GPR(CEPIC_SRC_A() | CEPIC_SRC_B());
        CEPIC_NEXT();
      }
      CEPIC_CASE(kAluXor) : {
        const MicroOp& m = *u;
        CEPIC_WRITE_GPR(CEPIC_SRC_A() ^ CEPIC_SRC_B());
        CEPIC_NEXT();
      }
      CEPIC_CASE(kAluShl) : {
        const MicroOp& m = *u;
        CEPIC_WRITE_GPR(CEPIC_SRC_A() << (CEPIC_SRC_B() & 31u));
        CEPIC_NEXT();
      }
      CEPIC_CASE(kAluShrl) : {
        const MicroOp& m = *u;
        CEPIC_WRITE_GPR(CEPIC_SRC_A() >> (CEPIC_SRC_B() & 31u));
        CEPIC_NEXT();
      }
      CEPIC_CASE(kAluMov) : {
        const MicroOp& m = *u;
        CEPIC_WRITE_GPR(CEPIC_SRC_A());
        CEPIC_NEXT();
      }

      CEPIC_CASE(kCmpp) : {
        const MicroOp& m = *u;
        const bool c = eval_cmpp(m.op, CEPIC_SRC_A(), CEPIC_SRC_B(), width_);
        const std::uint64_t ready = issue + m.lat;
        // Unconditional: absent destinations (and p0) were redirected
        // to the predicate sink at lowering time.
        preds[m.d] = c ? 1 : 0;
        pred_ready[m.d] = ready;
        preds[m.e] = c ? 0 : 1;
        pred_ready[m.e] = ready;
        CEPIC_NEXT();
      }

      CEPIC_CASE(kOut) : {
        const MicroOp& m = *u;
        output_.push_back(CEPIC_SRC_A());
        CEPIC_NEXT();
      }

      CEPIC_CASE(kLdW) : {
        const MicroOp& m = *u;
        any_mem = true;
        const std::uint32_t at = CEPIC_SRC_A() + CEPIC_SRC_B();
        const std::uint32_t w = static_cast<std::uint32_t>(mem[at]) << 24 |
                                static_cast<std::uint32_t>(mem[at + 1]) << 16 |
                                static_cast<std::uint32_t>(mem[at + 2]) << 8 |
                                static_cast<std::uint32_t>(mem[at + 3]);
        CEPIC_WRITE_GPR(w & gpr_mask);
        CEPIC_NEXT();
      }
      CEPIC_CASE(kLdWS) : {
        const MicroOp& m = *u;
        any_mem = true;
        // Non-trapping load: no probe, so the range check lives here
        // (out-of-range reads yield 0, as read_word_speculative).
        const std::uint32_t at = CEPIC_SRC_A() + CEPIC_SRC_B();
        std::uint32_t w = 0;
        if (at >= kDataBase && (at & 3u) == 0 &&
            static_cast<std::size_t>(at) + 4 <= mem_size) {
          w = static_cast<std::uint32_t>(mem[at]) << 24 |
              static_cast<std::uint32_t>(mem[at + 1]) << 16 |
              static_cast<std::uint32_t>(mem[at + 2]) << 8 |
              static_cast<std::uint32_t>(mem[at + 3]);
        }
        CEPIC_WRITE_GPR(w & gpr_mask);
        CEPIC_NEXT();
      }
      CEPIC_CASE(kLdB) : {
        const MicroOp& m = *u;
        any_mem = true;
        const std::uint8_t byte = mem[CEPIC_SRC_A() + CEPIC_SRC_B()];
        CEPIC_WRITE_GPR(static_cast<std::uint32_t>(static_cast<std::int32_t>(
                            static_cast<std::int8_t>(byte))) &
                        gpr_mask);
        CEPIC_NEXT();
      }
      CEPIC_CASE(kLdBU) : {
        const MicroOp& m = *u;
        any_mem = true;
        CEPIC_WRITE_GPR(
            static_cast<std::uint32_t>(mem[CEPIC_SRC_A() + CEPIC_SRC_B()]) &
            gpr_mask);
        CEPIC_NEXT();
      }

      CEPIC_CASE(kStW) : {
        const MicroOp& m = *u;
        any_mem = true;
        // Deferred to the bundle epilogue: a later load in the same
        // MultiOp must read pre-store memory. The value is captured
        // now, as the decode tier does at the op's slot.
        pend[pend_n].byte = false;
        pend[pend_n].addr = CEPIC_SRC_A() + CEPIC_SRC_B();
        pend[pend_n].value = gprs[m.d];
        ++pend_n;
        CEPIC_NEXT();
      }
      CEPIC_CASE(kStB) : {
        const MicroOp& m = *u;
        any_mem = true;
        pend[pend_n].byte = true;
        pend[pend_n].addr = CEPIC_SRC_A() + CEPIC_SRC_B();
        pend[pend_n].value = gprs[m.d];
        ++pend_n;
        CEPIC_NEXT();
      }

      // Probing memory forms: the probe rides in the op itself (see
      // threaded.hpp for the eligibility rule that makes a mid-bundle
      // bail exact). The check precedes every state change of THIS op;
      // earlier ops' effects are replay-idempotent by construction.
      CEPIC_CASE(kLdWP) : {
        const MicroOp& m = *u;
        const std::uint32_t at = CEPIC_SRC_A() + CEPIC_SRC_B();
        if (at < kDataBase || (at & 3u) != 0 ||
            static_cast<std::size_t>(at) + 4 > mem_size) {
          u = uops + m.e;  // would fault: replay via the tail fallback
          CEPIC_DISPATCH();
        }
        any_mem = true;
        const std::uint32_t w = static_cast<std::uint32_t>(mem[at]) << 24 |
                                static_cast<std::uint32_t>(mem[at + 1]) << 16 |
                                static_cast<std::uint32_t>(mem[at + 2]) << 8 |
                                static_cast<std::uint32_t>(mem[at + 3]);
        CEPIC_WRITE_GPR(w & gpr_mask);
        CEPIC_NEXT();
      }
      CEPIC_CASE(kLdBP) : {
        const MicroOp& m = *u;
        const std::uint32_t at = CEPIC_SRC_A() + CEPIC_SRC_B();
        if (at < kDataBase || static_cast<std::size_t>(at) + 1 > mem_size) {
          u = uops + m.e;
          CEPIC_DISPATCH();
        }
        any_mem = true;
        CEPIC_WRITE_GPR(static_cast<std::uint32_t>(static_cast<std::int32_t>(
                            static_cast<std::int8_t>(mem[at]))) &
                        gpr_mask);
        CEPIC_NEXT();
      }
      CEPIC_CASE(kLdBUP) : {
        const MicroOp& m = *u;
        const std::uint32_t at = CEPIC_SRC_A() + CEPIC_SRC_B();
        if (at < kDataBase || static_cast<std::size_t>(at) + 1 > mem_size) {
          u = uops + m.e;
          CEPIC_DISPATCH();
        }
        any_mem = true;
        CEPIC_WRITE_GPR(static_cast<std::uint32_t>(mem[at]) & gpr_mask);
        CEPIC_NEXT();
      }
      CEPIC_CASE(kStWP) : {
        const MicroOp& m = *u;
        const std::uint32_t at = CEPIC_SRC_A() + CEPIC_SRC_B();
        if (at < kDataBase || (at & 3u) != 0 ||
            static_cast<std::size_t>(at) + 4 > mem_size) {
          u = uops + m.e;
          CEPIC_DISPATCH();
        }
        any_mem = true;
        pend[pend_n].byte = false;
        pend[pend_n].addr = at;
        pend[pend_n].value = gprs[m.d];
        ++pend_n;
        CEPIC_NEXT();
      }
      CEPIC_CASE(kStBP) : {
        const MicroOp& m = *u;
        const std::uint32_t at = CEPIC_SRC_A() + CEPIC_SRC_B();
        if (at < kDataBase || static_cast<std::size_t>(at) + 1 > mem_size) {
          u = uops + m.e;
          CEPIC_DISPATCH();
        }
        any_mem = true;
        pend[pend_n].byte = true;
        pend[pend_n].addr = at;
        pend[pend_n].value = gprs[m.d];
        ++pend_n;
        CEPIC_NEXT();
      }

      CEPIC_CASE(kPbr) : {
        const MicroOp& m = *u;
        btrs[m.d] = m.a;  // raw literal; BTR writes are not masked
        btr_ready[m.d] = issue + m.lat;
        CEPIC_NEXT();
      }

      CEPIC_CASE(kBr) : {
        const MicroOp& m = *u;
        if (m.flags & kFlagLink) {
          CEPIC_WRITE_GPR(m.b);  // pre-masked return bundle
        }
        if (!branch_taken) {
          branch_taken = true;
          branch_target =
              (m.flags & kFlagTargetGpr) ? gprs[m.a] : btrs[m.a];
        }
        CEPIC_NEXT();
      }

      CEPIC_CASE(kBrct) : {
        const MicroOp& m = *u;
        const bool cond =
            (m.flags & kFlagS2Lit) ? m.b != 0 : preds[m.b] != 0;
        if (cond) {
          if (!branch_taken) {
            branch_taken = true;
            branch_target =
                (m.flags & kFlagTargetGpr) ? gprs[m.a] : btrs[m.a];
          }
        } else {
          ++stats_.branches_not_taken;
        }
        CEPIC_NEXT();
      }
      CEPIC_CASE(kBrcf) : {
        const MicroOp& m = *u;
        const bool cond =
            (m.flags & kFlagS2Lit) ? m.b != 0 : preds[m.b] != 0;
        if (!cond) {
          if (!branch_taken) {
            branch_taken = true;
            branch_target =
                (m.flags & kFlagTargetGpr) ? gprs[m.a] : btrs[m.a];
          }
        } else {
          ++stats_.branches_not_taken;
        }
        CEPIC_NEXT();
      }

      CEPIC_CASE(kHalt) : {
        halt_now = true;
        CEPIC_NEXT();
      }

      CEPIC_CASE(kEndFall) : {
        const MicroOp& m = *u;
        CEPIC_END_COMMON();
        pcl = m.pc + 1;
        CEPIC_NEXT();
      }

      CEPIC_CASE(kEnd) : {
        const MicroOp& m = *u;
        // finish_step leaves stats_.cycles at the previous bundle's
        // value on a fault throw; capture it before the clock advances
        // (in a folded run the previous bundle ended one cycle before
        // the run's last issue).
        const std::uint64_t prev_clk = clk;
        CEPIC_END_COMMON();
        if (halt_now) {
          halted_ = true;
          pc_ = m.pc;  // halt does not advance pc
          cycle_ = clk;
          stats_.cycles = clk;
          CEPIC_FLUSH_STATS();
          return;
        }
        if (branch_taken) {
          ++stats_.branches_taken;
          stats_.branch_bubbles += bubbles_c;
          clk += bubbles_c;
          if (branch_target >= bundle_count_) {
            // Before stats_.cycles and pc_ advance, matching
            // finish_step (cycle_ already includes the bubbles).
            pc_ = m.pc;
            cycle_ = clk;
            stats_.cycles = adv == 1 ? prev_clk : issue + adv - 1;
            CEPIC_FLUSH_STATS();
            throw SimError(cat("branch to bundle ", branch_target,
                               " past end of program"));
          }
          pcl = branch_target;
          branch_taken = false;  // consumed; false at every bundle begin
          if (branch_target == m.pc + 1) {
            CEPIC_NEXT();  // branch to the fall-through: stay in block
          }
          goto L_next_block;  // taken branch: maybe straight into a block
        }
        pcl = m.pc + 1;
        CEPIC_NEXT();
      }

      CEPIC_CASE(kEndFallBegin) : {
        {
          const MicroOp& m = *u;
          CEPIC_END_COMMON();
          pcl = m.pc + 1;
        }
        ++u;  // the begin micro-op rides in the next slot
        {
          const MicroOp& m = *u;
          CEPIC_BEGIN_SB();
          bundle_sr = (is - clk) | (static_cast<std::uint64_t>(m.aux) << 16);
          issue = is + m.aux;
        }
        CEPIC_NEXT();
      }

      CEPIC_CASE(kEndFallBegin2) : {
        {
          const MicroOp& m = *u;
          CEPIC_END_COMMON();
          pcl = m.pc + 1;
        }
        ++u;  // the begin micro-op rides in the next slot
        {
          const MicroOp& m = *u;
          const std::uint64_t is =
              std::max(clk, std::max(gpr_ready[m.a], gpr_ready[m.d]));
          bundle_sr = is - clk;
          issue = is;
        }
        CEPIC_NEXT();
      }

      CEPIC_CASE(kEndFallBeginFast) : {
        const MicroOp& m = *u;
        CEPIC_END_COMMON();
        pcl = m.pc + 1;
        ++u;  // skip the (empty) begin slot
        issue = clk;
        bundle_sr = 0;
        CEPIC_NEXT();
      }

      CEPIC_CASE(kEndFallBeginPorts) : {
        {
          const MicroOp& m = *u;
          CEPIC_END_COMMON();
          pcl = m.pc + 1;
        }
        ++u;  // the ports-begin micro-op rides in the next slot
        {
          const MicroOp& m = *u;
          CEPIC_BEGIN_SB();
          CEPIC_BEGIN_PORTS_STALL();
        }
        CEPIC_NEXT();
      }

      CEPIC_CASE(kFallback) : {
        const MicroOp& m = *u;
        ++threaded_.fallback_bundles;
        // A probe bail may arrive mid-bundle: drop the partial bundle's
        // latched state to restore the every-bundle-begins-clean
        // invariant (step_decoded replays the bundle from scratch).
        branch_taken = false;
        halt_now = false;
        any_mem = false;
        pend_n = 0;
        pc_ = m.pc;
        cycle_ = clk;
        stats_.cycles = clk;
        CEPIC_FLUSH_STATS();
        if (!step_decoded(db[m.pc])) return;  // halted
        if (pc_ != m.pc + 1) {
          clk = cycle_;  // branched away: maybe straight into a block
          pcl = pc_;
          goto L_next_block;
        }
        clk = cycle_;
        pcl = pc_;
        u = uops + m.e;
        CEPIC_DISPATCH();
      }

      CEPIC_CASE(kExit) : {
        goto L_next_block;  // pcl holds the fall-through successor
      }

#if !CEPIC_THREADED_GOTO
    }
  }
#endif

#undef CEPIC_SRC_A
#undef CEPIC_SRC_B
#undef CEPIC_WRITE_GPR
#undef CEPIC_END_COMMON
#undef CEPIC_FLUSH_STATS
#undef CEPIC_BEGIN_SB
#undef CEPIC_BEGIN_PORTS_STALL
#undef CEPIC_CASE
#undef CEPIC_NEXT
#undef CEPIC_DISPATCH
}

void EpicSimulator::run_threaded() {
  const std::uint64_t max_cycles = options_.max_cycles;
  while (!halted_) {
    if (pc_ >= bundle_count_) {
      throw SimError(cat("pc 0x", std::hex, pc_, " past end of program"));
    }
    const std::int32_t bi = threaded_.block_at[pc_];
    if (bi >= 0) {
      const ThreadedBlock& block = threaded_.blocks[bi];
      // Blocks elide the per-bundle cycle-limit check; only enter with
      // enough slack that the limit provably cannot be hit inside.
      // Near the limit, single-step the decode tier — its check (and
      // fault text) is exact.
      if (cycle_ < max_cycles && max_cycles - cycle_ > block.max_advance) {
        ++threaded_.block_entries;
        exec_block(block);
        continue;
      }
      if (!step_decoded(decoded_[pc_])) return;
      continue;
    }
    if (++threaded_.hot[pc_] >= options_.threaded_hot_threshold) {
      threaded_.blocks.push_back(compile_block(pc_));
      threaded_.block_at[pc_] =
          static_cast<std::int32_t>(threaded_.blocks.size() - 1);
      // Materialise any literals the new block interned: pool constant
      // i lives at extended-GPR index num_gprs + 1 + i. Compilation
      // only happens here (never inside exec_block), so every block a
      // running exec_block can transition into already has its
      // constants in place when gprs_.data() is hoisted.
      const std::size_t pool_base = config_.num_gprs + 1;
      // (gpr_ready_ needs no pool slots: ready times are only read for
      // scoreboard/port registers and written for real dests + sink.)
      for (std::size_t i = gprs_.size() - pool_base;
           i < threaded_.pool.size(); ++i) {
        gprs_.push_back(threaded_.pool[i]);
      }
      continue;  // dispatch the freshly compiled block
    }
    ++threaded_.cold_steps;
    if (!step_decoded(decoded_[pc_])) return;
  }
}

}  // namespace cepic

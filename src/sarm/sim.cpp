#include "sarm/sim.hpp"

#include "core/program.hpp"
#include "support/bits.hpp"
#include "support/text.hpp"

namespace cepic::sarm {

namespace {

constexpr unsigned kN = 8, kZ = 4, kC = 2, kV = 1;

constexpr bool cond_passes(Cond cond, unsigned nzcv) {
  const bool n = nzcv & kN, z = nzcv & kZ, c = nzcv & kC, v = nzcv & kV;
  switch (cond) {
    case Cond::AL: return true;
    case Cond::EQ: return z;
    case Cond::NE: return !z;
    case Cond::LT: return n != v;
    case Cond::GE: return n == v;
    case Cond::GT: return !z && n == v;
    case Cond::LE: return z || n != v;
    case Cond::LO: return !c;
    case Cond::HS: return c;
    case Cond::HI: return c && !z;
    case Cond::LS: return !c || z;
  }
  return false;
}

/// Per condition, the NZCV nibbles it passes on, one bit each.
constexpr std::array<std::uint16_t, 11> kCondMasks = [] {
  std::array<std::uint16_t, 11> masks{};
  for (unsigned c = 0; c < masks.size(); ++c) {
    for (unsigned f = 0; f < 16; ++f) {
      if (cond_passes(static_cast<Cond>(c), f)) masks[c] |= 1u << f;
    }
  }
  return masks;
}();

/// The registers an instruction reads in the cycle after a load, for
/// the load-use interlock.
std::uint16_t interlock_reads(const SInst& inst) {
  const auto bit = [](std::uint32_t r) {
    return static_cast<std::uint16_t>(1u << r);
  };
  switch (inst.op) {
    case SOp::B:
    case SOp::Bl:
    case SOp::Halt:
      return 0;
    case SOp::Bx:
      return bit(inst.rn);
    default:
      break;
  }
  std::uint16_t reads = inst.op2.is_imm ? 0 : bit(inst.op2.rm);
  switch (inst.op) {
    case SOp::Mov:
    case SOp::Mvn:
    case SOp::Out:
      return reads;
    case SOp::Str:
    case SOp::Strb:
      return reads | bit(inst.rd) | bit(inst.rn);
    default:
      return reads | bit(inst.rn);
  }
}

std::uint32_t load_be32(const std::uint8_t* p) {
  return (static_cast<std::uint32_t>(p[0]) << 24) |
         (static_cast<std::uint32_t>(p[1]) << 16) |
         (static_cast<std::uint32_t>(p[2]) << 8) |
         static_cast<std::uint32_t>(p[3]);
}

void store_be32(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v >> 24);
  p[1] = static_cast<std::uint8_t>(v >> 16);
  p[2] = static_cast<std::uint8_t>(v >> 8);
  p[3] = static_cast<std::uint8_t>(v);
}

}  // namespace

SarmSimulator::SarmSimulator(SProgram program, SarmOptionsSim options)
    : data_(std::move(program.data)),
      entry_(program.entry),
      options_(options),
      mem_(options.mem_size) {
  code_.reserve(program.code.size());
  for (std::size_t i = 0; i < program.code.size(); ++i) {
    const SInst& inst = program.code[i];
    const Operand2& op2 = inst.op2;
    for (const std::uint32_t r : {inst.rd, inst.rn, op2.is_imm ? 0 : op2.rm}) {
      if (r >= kNumRegs) {
        throw SimError(cat("SARM instruction ", i, " (", to_string(inst),
                           "): register r", r, " out of range"));
      }
    }
    Decoded d;
    d.op = inst.op;
    d.cond_mask = kCondMasks[static_cast<unsigned>(inst.cond)];
    d.reads = interlock_reads(inst);
    d.rd = static_cast<std::uint8_t>(inst.rd);
    d.rn = static_cast<std::uint8_t>(inst.rn);
    d.branch = inst.op == SOp::B || inst.op == SOp::Bl || inst.op == SOp::Bx;
    if (op2.is_imm) {
      d.rm = kZeroReg;
      d.value = static_cast<std::uint32_t>(op2.imm);
    } else {
      d.rm = static_cast<std::uint8_t>(op2.rm);
      if (op2.shift != Shift::None && op2.shift_amount > 31) {
        throw SimError(cat("SARM instruction ", i, " (", to_string(inst),
                           "): shift amount ",
                           static_cast<unsigned>(op2.shift_amount),
                           " out of range 0..31"));
      }
      switch (op2.shift) {
        case Shift::None: break;
        case Shift::Lsl: d.lsl = op2.shift_amount; break;
        case Shift::Lsr: d.lsr = op2.shift_amount; break;
        case Shift::Asr: d.asr = op2.shift_amount; break;
      }
    }
    if (inst.op == SOp::B || inst.op == SOp::Bl) {
      d.value = static_cast<std::uint32_t>(inst.target);
    }
    code_.push_back(d);
  }
  reset();
}

void SarmSimulator::reset() {
  regs_.fill(0);
  nzcv_ = 0;
  mem_.reset();  // cost: the pages actually written, not the full size
  mem_.load_image(kDataBase, data_);
  pc_ = entry_;
  halted_ = false;
  load_mask_ = 0;
  output_.clear();
  stats_ = SarmStats{};
}

std::uint32_t SarmSimulator::reg(unsigned i) const {
  CEPIC_CHECK(i < kNumRegs, "register index");
  return regs_[i];
}

void SarmSimulator::set_reg(unsigned i, std::uint32_t v) {
  CEPIC_CHECK(i < kNumRegs, "register index");
  regs_[i] = v;
}

const SarmStats& SarmSimulator::run() {
  if (halted_) return stats_;
  const Decoded* const code = code_.data();
  const std::size_t code_size = code_.size();
  std::uint32_t* const r = regs_.data();
  std::uint8_t* const mem = mem_.exec_data();
  const std::size_t mem_size = mem_.size();
  const std::uint64_t max_cycles = options_.max_cycles;
  const unsigned mul_extra = options_.mul_extra_cycles;
  const unsigned div_extra = options_.div_total_cycles - 1;
  const unsigned branch_penalty = options_.taken_branch_penalty;
  // DataMemory's checks, inline; a failing access goes through the
  // checked accessor, which throws the fault's text.
  const auto word_ok = [&](std::uint32_t a) {
    return a >= kDataBase && std::size_t{a} + 4 <= mem_size && (a & 3u) == 0;
  };
  const auto byte_ok = [&](std::uint32_t a) {
    return a >= kDataBase && std::size_t{a} < mem_size;
  };

  // The machine state lives in locals; sync() writes it back before
  // anything that can throw and at HALT, so a fault leaves the members
  // exactly as after the last counted cycle.
  std::uint32_t pc = pc_;
  unsigned nzcv = nzcv_;
  std::uint16_t load_mask = load_mask_;
  SarmStats st = stats_;
  const auto sync = [&](std::uint32_t at) {
    pc_ = at;
    nzcv_ = static_cast<std::uint8_t>(nzcv);
    load_mask_ = load_mask;
    stats_ = st;
  };

  for (;;) {
    if (pc >= code_size) [[unlikely]] {
      sync(pc);
      throw SimError(cat("SARM pc ", pc, " past end of program"));
    }
    const Decoded& d = code[pc];
    ++st.insts_executed;
    ++st.cycles;
    // Load-use interlock (value read the cycle after a load).
    if (d.reads & load_mask) {
      ++st.cycles;
      ++st.load_use_stalls;
    }
    load_mask = 0;
    std::uint32_t next = pc + 1;

    if ((d.cond_mask >> nzcv) & 1u) {
      ++st.insts_committed;
      const std::uint32_t n = r[d.rn];
      const std::uint32_t m =
          (static_cast<std::uint32_t>(to_signed(r[d.rm] << d.lsl) >> d.asr) >>
           d.lsr) +
          d.value;
      switch (d.op) {
        case SOp::Add: r[d.rd] = n + m; break;
        case SOp::Sub: r[d.rd] = n - m; break;
        case SOp::Rsb: r[d.rd] = m - n; break;
        case SOp::Mul:
          r[d.rd] = n * m;
          st.cycles += mul_extra;
          st.mul_cycles += mul_extra;
          break;
        case SOp::And: r[d.rd] = n & m; break;
        case SOp::Orr: r[d.rd] = n | m; break;
        case SOp::Eor: r[d.rd] = n ^ m; break;
        case SOp::Bic: r[d.rd] = n & ~m; break;
        case SOp::Mov: r[d.rd] = m; break;
        case SOp::Mvn: r[d.rd] = ~m; break;
        case SOp::Lsl: r[d.rd] = n << (m & 31); break;
        case SOp::Lsr: r[d.rd] = n >> (m & 31); break;
        case SOp::Asr:
          r[d.rd] = static_cast<std::uint32_t>(to_signed(n) >> (m & 31));
          break;
        case SOp::Min:
        case SOp::Max:
          sync(pc);
          CEPIC_CHECK(false, "min/max are lowered by the code generator");
          break;
        case SOp::Cmp: {
          const std::uint32_t result = n - m;
          nzcv = (result >> 31) * kN | (result == 0) * kZ |
                 (n >= m) * kC |  // no borrow
                 (((n ^ m) & (n ^ result)) >> 31) * kV;
          break;
        }
        case SOp::Ldr: {
          const std::uint32_t a = n + m;
          if (word_ok(a)) [[likely]] {
            r[d.rd] = load_be32(mem + a);
          } else {
            sync(pc);
            r[d.rd] = mem_.read_word(a);
          }
          ++st.mem_reads;
          load_mask = static_cast<std::uint16_t>(1u << d.rd);
          break;
        }
        case SOp::Ldrb: {
          const std::uint32_t a = n + m;
          if (byte_ok(a)) [[likely]] {
            r[d.rd] = mem[a];
          } else {
            sync(pc);
            r[d.rd] = mem_.read_byte(a);
          }
          ++st.mem_reads;
          load_mask = static_cast<std::uint16_t>(1u << d.rd);
          break;
        }
        case SOp::Str: {
          const std::uint32_t a = n + m;
          if (word_ok(a)) [[likely]] {
            mem_.mark_written(a, 4);
            store_be32(mem + a, r[d.rd]);
          } else {
            sync(pc);
            mem_.write_word(a, r[d.rd]);
          }
          ++st.mem_writes;
          break;
        }
        case SOp::Strb: {
          const std::uint32_t a = n + m;
          if (byte_ok(a)) [[likely]] {
            mem_.mark_written(a, 1);
            mem[a] = static_cast<std::uint8_t>(r[d.rd]);
          } else {
            sync(pc);
            mem_.write_byte(a, static_cast<std::uint8_t>(r[d.rd]));
          }
          ++st.mem_writes;
          break;
        }
        case SOp::Bl:
          r[kLr] = pc + 1;
          [[fallthrough]];
        case SOp::B:
          next = d.value;
          ++st.branches_taken;
          st.cycles += branch_penalty;
          break;
        case SOp::Bx:
          next = n;
          ++st.branches_taken;
          st.cycles += branch_penalty;
          break;
        case SOp::Out:
          output_.push_back(m);
          break;
        case SOp::Halt:
          sync(pc);
          halted_ = true;
          return stats_;
        case SOp::SDiv:
        case SOp::SRem: {
          // Software divide routine: same defined corner cases as the
          // EPIC divider (q=0/r=n for m==0; INT_MIN/-1 wraps).
          const std::int32_t sn = to_signed(n);
          const std::int32_t sm = to_signed(m);
          std::int32_t q = 0, rem = sn;
          if (sm != 0) {
            const std::int64_t wq = static_cast<std::int64_t>(sn) / sm;
            q = static_cast<std::int32_t>(wq);
            rem = static_cast<std::int32_t>(static_cast<std::int64_t>(sn) % sm);
          }
          r[d.rd] = to_unsigned(d.op == SOp::SDiv ? q : rem);
          st.cycles += div_extra;
          st.div_cycles += div_extra;
          break;
        }
      }
    } else {
      st.branches_not_taken += d.branch;
    }

    pc = next;
    if (st.cycles > max_cycles) [[unlikely]] {
      sync(pc);
      throw SimError(cat("SARM cycle limit exceeded (", options_.max_cycles,
                         ") — runaway program?"));
    }
  }
}

}  // namespace cepic::sarm

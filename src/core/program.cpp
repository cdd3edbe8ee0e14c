#include "core/program.hpp"

#include "core/encoding.hpp"
#include "support/error.hpp"
#include "support/text.hpp"

namespace cepic {

std::span<const Instruction> Program::bundle(std::uint32_t addr) const {
  const std::size_t w = config.issue_width;
  CEPIC_CHECK(addr < bundle_count(), "bundle address out of range");
  return {code.data() + addr * w, w};
}

std::uint32_t Program::append_bundle(std::span<const Instruction> ops) {
  const std::size_t w = config.issue_width;
  CEPIC_CHECK(ops.size() <= w, "bundle wider than issue width");
  const auto addr = static_cast<std::uint32_t>(bundle_count());
  for (const Instruction& inst : ops) code.push_back(inst);
  for (std::size_t i = ops.size(); i < w; ++i) code.push_back(Instruction::nop());
  return addr;
}

std::vector<std::uint64_t> Program::encode_code() const {
  std::vector<std::uint64_t> words;
  words.reserve(code.size());
  for (const Instruction& inst : code) {
    words.push_back(encode_instruction(inst, config));
  }
  return words;
}

std::string register_range_fault(const Program& program) {
  const std::size_t width = program.config.issue_width;
  for (std::size_t i = 0; width != 0 && i < program.code.size(); ++i) {
    const Instruction& inst = program.code[i];
    if (inst.is_nop()) continue;
    for (const Defect& d : check_instruction(inst, program.config)) {
      if (d.kind == DefectKind::RegRange) {
        return cat("bundle ", i / width, " slot ", i % width, ": ", d.message);
      }
    }
  }
  return {};
}

}  // namespace cepic

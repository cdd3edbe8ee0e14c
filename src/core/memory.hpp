// Byte-addressed big-endian data memory for the EPIC and SARM
// simulators. Address 0..kDataBase-1 is unmapped (null guard); word
// accesses must be 4-byte aligned. Speculative loads (HPL-PD LDWS) use
// the *_speculative accessors, which never fault and return 0 instead —
// exactly the "non-trapping load" EPIC mechanism.
//
// The bytes live in one private anonymous mapping, not on the heap: the
// kernel supplies zero pages on first touch, so construction costs O(1)
// whatever the size and resident memory grows only with the pages a run
// writes. A PROT_NONE guard page follows the last page, so a direct
// access past the end (the threaded tier's probed pointer) faults in
// every build (docs/SIM.md "Simulator images").
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "support/error.hpp"

namespace cepic {

class DataMemory {
public:
  explicit DataMemory(std::size_t size_bytes);
  ~DataMemory();

  /// Deep copy: a fresh mapping holding the source's written pages.
  DataMemory(const DataMemory& other);
  DataMemory& operator=(const DataMemory& other);
  /// The mapping moves; a moved-from memory has size 0, faults every
  /// checked access and destructs cleanly.
  DataMemory(DataMemory&& other) noexcept;
  DataMemory& operator=(DataMemory&& other) noexcept;

  /// Copy an image into memory starting at `base`.
  void load_image(std::uint32_t base, std::span<const std::uint8_t> image);

  std::size_t size() const { return size_; }

  std::uint32_t read_word(std::uint32_t addr) const;
  void write_word(std::uint32_t addr, std::uint32_t value);
  std::uint8_t read_byte(std::uint32_t addr) const;
  void write_byte(std::uint32_t addr, std::uint8_t value);

  /// Non-trapping word read: out-of-range, unmapped or misaligned
  /// addresses yield 0.
  std::uint32_t read_word_speculative(std::uint32_t addr) const;

  /// Zero the memory again, at a cost proportional to the pages
  /// actually written since construction / the last reset (a 4 KiB
  /// dirty bitmap maintained by the write accessors) instead of the
  /// full size. Simulator reset() is per-run overhead: re-zeroing
  /// megabytes of untouched image would dominate short simulations.
  void reset();

  /// Mark pages written. Every store that bypasses the checked
  /// accessors (the threaded tier writes through exec_data() after
  /// probing) must pair with this, or reset() misses it.
  void mark_written(std::uint32_t addr, unsigned n) {
    const std::size_t first = addr >> kPageBits;
    const std::size_t last =
        (static_cast<std::size_t>(addr) + n - 1) >> kPageBits;
    for (std::size_t p = first; p <= last; ++p) {
      dirty_[p >> 6] |= std::uint64_t{1} << (p & 63);
    }
  }

  /// Unmanaged image pointer for the threaded tier's probed direct
  /// accesses; see mark_written().
  std::uint8_t* exec_data() { return bytes_; }

  /// Direct image access for loaders and tests. The mutable overload
  /// conservatively marks the whole memory written, because writes
  /// through the span are invisible to the dirty bitmap.
  std::span<std::uint8_t> raw() {
    for (std::uint64_t& w : dirty_) w = ~std::uint64_t{0};
    return {bytes_, size_};
  }
  std::span<const std::uint8_t> raw() const { return {bytes_, size_}; }

private:
  static constexpr unsigned kPageBits = 12;  ///< 4 KiB dirty pages

  void check(std::uint32_t addr, unsigned bytes, bool write) const;
  /// Calls `f(lo, hi)` for each dirty page's byte range, in order.
  template <typename F>
  void for_each_dirty_page(F f) const;
  void unmap();

  std::uint8_t* bytes_ = nullptr;  ///< start of the mapping
  std::size_t size_ = 0;
  std::vector<std::uint64_t> dirty_;  ///< one bit per page, see reset()
};

}  // namespace cepic

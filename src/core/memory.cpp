#include "core/memory.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cstring>
#include <new>
#include <utility>

#include "core/program.hpp"
#include "support/text.hpp"

namespace cepic {

namespace {

std::size_t host_page() {
  static const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  return page;
}

/// The memory's pages rounded up to host pages, plus the guard page.
std::size_t mapping_bytes(std::size_t size) {
  const std::size_t page = host_page();
  return (size + page - 1) / page * page + page;
}

/// A zero-filled mapping of `size` usable bytes followed by an
/// inaccessible guard page. Nothing is touched here: the kernel maps a
/// zero page in on first access.
std::uint8_t* map_zeroed(std::size_t size) {
  const std::size_t total = mapping_bytes(size);
  void* p = mmap(nullptr, total, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc();
  auto* bytes = static_cast<std::uint8_t*>(p);
  const std::size_t guard = total - host_page();
  if (mprotect(bytes + guard, host_page(), PROT_NONE) != 0) {
    (void)munmap(p, total);
    throw std::bad_alloc();
  }
  // A run touches a few scattered pages: a transparent huge page would
  // zero 2 MiB on the first of them, which is the cost this avoids.
  (void)madvise(p, guard, MADV_NOHUGEPAGE);
  return bytes;
}

}  // namespace

DataMemory::DataMemory(std::size_t size_bytes)
    : size_(size_bytes),
      dirty_((((size_bytes + (1u << kPageBits) - 1) >> kPageBits) >> 6) + 1,
             0) {
  CEPIC_CHECK(size_bytes >= kDataBase, "data memory smaller than data base");
  bytes_ = map_zeroed(size_bytes);
}

DataMemory::~DataMemory() { unmap(); }

void DataMemory::unmap() {
  if (bytes_ != nullptr) (void)munmap(bytes_, mapping_bytes(size_));
  bytes_ = nullptr;
  size_ = 0;
}

template <typename F>
void DataMemory::for_each_dirty_page(F f) const {
  const std::size_t pages = (size_ + (1u << kPageBits) - 1) >> kPageBits;
  for (std::size_t w = 0; w < dirty_.size(); ++w) {
    std::uint64_t bits = dirty_[w];
    while (bits != 0) {
      const unsigned b = static_cast<unsigned>(std::countr_zero(bits));
      bits &= bits - 1;
      const std::size_t page = w * 64 + b;
      if (page >= pages) return;  // raw() sets stray bits past the end
      const std::size_t lo = page << kPageBits;
      f(lo, std::min(lo + (std::size_t{1} << kPageBits), size_));
    }
  }
}

DataMemory::DataMemory(const DataMemory& other)
    : size_(other.size_), dirty_(other.dirty_) {
  if (other.bytes_ == nullptr) return;
  bytes_ = map_zeroed(size_);
  // Pages never written are zero on both sides.
  other.for_each_dirty_page([&](std::size_t lo, std::size_t hi) {
    std::memcpy(bytes_ + lo, other.bytes_ + lo, hi - lo);
  });
}

DataMemory& DataMemory::operator=(const DataMemory& other) {
  if (this != &other) *this = DataMemory(other);
  return *this;
}

DataMemory::DataMemory(DataMemory&& other) noexcept
    : bytes_(std::exchange(other.bytes_, nullptr)),
      size_(std::exchange(other.size_, 0)),
      dirty_(std::move(other.dirty_)) {}

DataMemory& DataMemory::operator=(DataMemory&& other) noexcept {
  if (this != &other) {
    unmap();
    bytes_ = std::exchange(other.bytes_, nullptr);
    size_ = std::exchange(other.size_, 0);
    dirty_ = std::move(other.dirty_);
  }
  return *this;
}

void DataMemory::load_image(std::uint32_t base,
                            std::span<const std::uint8_t> image) {
  CEPIC_CHECK(base + image.size() <= size_,
              "data image does not fit in memory");
  std::copy(image.begin(), image.end(), bytes_ + base);
  mark_written(base, static_cast<unsigned>(image.size()));
}

void DataMemory::reset() {
  for_each_dirty_page([&](std::size_t lo, std::size_t hi) {
    std::memset(bytes_ + lo, 0, hi - lo);
  });
  std::fill(dirty_.begin(), dirty_.end(), std::uint64_t{0});
}

void DataMemory::check(std::uint32_t addr, unsigned n, bool write) const {
  if (addr < kDataBase) {
    throw SimError(cat(write ? "store" : "load", " to unmapped low address 0x",
                       std::hex, addr, " (null guard)"));
  }
  if (static_cast<std::size_t>(addr) + n > size_) {
    throw SimError(cat(write ? "store" : "load", " past end of memory: 0x",
                       std::hex, addr));
  }
  if (n == 4 && (addr & 3u) != 0) {
    throw SimError(cat("misaligned word ", write ? "store" : "load",
                       " at 0x", std::hex, addr));
  }
}

std::uint32_t DataMemory::read_word(std::uint32_t addr) const {
  check(addr, 4, false);
  // Big-endian, as the paper's architecture.
  return (static_cast<std::uint32_t>(bytes_[addr]) << 24) |
         (static_cast<std::uint32_t>(bytes_[addr + 1]) << 16) |
         (static_cast<std::uint32_t>(bytes_[addr + 2]) << 8) |
         static_cast<std::uint32_t>(bytes_[addr + 3]);
}

void DataMemory::write_word(std::uint32_t addr, std::uint32_t value) {
  check(addr, 4, true);
  mark_written(addr, 4);
  bytes_[addr] = static_cast<std::uint8_t>(value >> 24);
  bytes_[addr + 1] = static_cast<std::uint8_t>(value >> 16);
  bytes_[addr + 2] = static_cast<std::uint8_t>(value >> 8);
  bytes_[addr + 3] = static_cast<std::uint8_t>(value);
}

std::uint8_t DataMemory::read_byte(std::uint32_t addr) const {
  check(addr, 1, false);
  return bytes_[addr];
}

void DataMemory::write_byte(std::uint32_t addr, std::uint8_t value) {
  check(addr, 1, true);
  mark_written(addr, 1);
  bytes_[addr] = value;
}

std::uint32_t DataMemory::read_word_speculative(std::uint32_t addr) const {
  if (addr < kDataBase || (addr & 3u) != 0 ||
      static_cast<std::size_t>(addr) + 4 > size_) {
    return 0;
  }
  return read_word(addr);
}

}  // namespace cepic

// The paper's four benchmarks (§5.2, Table 1, Figs. 3-5) as MiniC
// programs plus bit-exact native reference implementations.
//
//   SHA      — SHA-256 of a dim x dim RGB image (3 bytes/pixel)
//   AES      — AES-128 ECB: encrypt "Hello AES World!" n times, then
//              decrypt back and check
//   DCT      — fixed-point 8x8 DCT encode + decode of a dim x dim
//              greyscale image, reporting reconstruction checksums
//   DIJKSTRA — all-pairs shortest paths on an adjacency-matrix graph
//
// The paper reads a 256x256 PPM image; we synthesise input data inside
// the program with the same xorshift32 PRNG that the native references
// use, so every execution (IR interpreter, EPIC simulator, SARM
// simulator, native golden) sees identical bytes. Sizes are parameters:
// the default bench sizes are scaled down from the paper's so the whole
// harness runs in seconds (shape, not absolute time, is the target —
// see EXPERIMENTS.md).
//
// Every workload's program emits its results through out(); the golden
// function returns the exact expected stream.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace cepic::workloads {

struct Workload {
  std::string name;
  std::string minic_source;
  std::vector<std::uint32_t> expected_output;  ///< native golden stream
};

/// SHA-256 of a dim*dim*3-byte synthetic image. Output: 8 digest words.
Workload make_sha(int dim = 32);

/// AES-128: encrypt the 16-byte message `iterations` times (chained),
/// decrypt back, output the 16 recovered bytes, a chained ciphertext
/// checksum, and a match flag.
Workload make_aes(int iterations = 100);

/// Fixed-point 8x8 DCT encode+decode of a dim x dim image. Output:
/// coefficient checksum, reconstruction checksum, total absolute error.
Workload make_dct(int dim = 32);

/// All-pairs shortest paths (repeated Dijkstra, linear min scan) over a
/// synthetic dense graph. Output: checksum of all pair distances.
Workload make_dijkstra(int nodes = 16);

/// All four at their given sizes, in paper order (SHA, AES, DCT,
/// Dijkstra).
std::vector<Workload> all_workloads(int sha_dim, int aes_iters, int dct_dim,
                                    int dijkstra_nodes);

/// Seeded straight-line MiniC program: one `main` with `statements`
/// compound assignments, array loads/stores and out() calls over 16
/// run-time-seeded variables, all emitted with out() at the end. The
/// compile-bound input of the scheduler's golden digests and scaling
/// benchmarks; it has no native golden (the IR interpreter is its
/// oracle). The same seed always yields the same text.
std::string make_straight_line(std::uint64_t seed, int statements);

// ---- native reference primitives (exposed for validation tests) ----

/// SHA-256 digest of a byte string.
std::vector<std::uint32_t> sha256_reference(
    const std::vector<std::uint8_t>& message);

/// AES-128 single-block encrypt/decrypt (FIPS-197).
std::vector<std::uint8_t> aes128_encrypt_block(
    const std::vector<std::uint8_t>& key, const std::vector<std::uint8_t>& in);
std::vector<std::uint8_t> aes128_decrypt_block(
    const std::vector<std::uint8_t>& key, const std::vector<std::uint8_t>& in);

/// The fixed-point DCT coefficient table shared by the MiniC source and
/// the native reference: round(cos((2x+1)*u*pi/16) * 2048).
const int* dct_coeff_table();  // 8x8, row u, column x

/// Synthetic input byte stream (xorshift32, seed 1): byte i is the top
/// byte of the i+1'th PRNG state.
std::vector<std::uint8_t> synthetic_bytes(std::size_t n);

}  // namespace cepic::workloads

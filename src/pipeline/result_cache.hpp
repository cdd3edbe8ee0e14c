// Simulation-result cache for the batch pipeline. A point's simulation
// outcome is fully determined by (MiniC source, compile options,
// ProcessorConfig, simulation memory/cycle limits); the pipeline keys
// entries by a pair of stable 64-bit hashes covering exactly that
// material and every repeated point — within one Service's lifetime or
// across tool invocations via the on-disk file — is free. An entry is a
// whole RunOutcome: every SimStats counter, the bundle-width histogram,
// the execution tier, and the OUT-stream fingerprint and return value.
// The analytic area/power model is recomputed from the config on every
// run, which keeps every cached field an integer and the file format
// trivially round-trippable.
//
// File format: one `v3` line per entry, `#` comments; unknown or
// malformed lines (including old `v1` and `v2` lines) are ignored on
// load so stale files never break a run. The file is published by
// temp-file + rename, so a run killed mid-save leaves the previous file
// intact.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <span>
#include <string>
#include <utility>

#include "sim/stats.hpp"
#include "support/bits.hpp"

namespace cepic::pipeline {

/// Outcome of one (source, config) simulation: the simulator's
/// statistics plus the output check. When `ok` is false the item failed
/// to compile or simulate and `error` carries the diagnostic; every
/// other field is zero.
struct RunOutcome : SimStats {
  bool ok = false;
  std::string error;
  bool from_result_cache = false;  ///< simulation skipped entirely

  std::uint64_t output_words = 0;  ///< length of the OUT stream
  std::uint64_t output_hash = 0;   ///< FNV-1a fingerprint of the stream
  std::uint32_t ret = 0;           ///< main's return value (r3)

  /// Record a finished run's OUT stream: sets `ok`, its length and its
  /// fingerprint.
  void set_output(std::span<const std::uint32_t> output) {
    ok = true;
    output_words = output.size();
    output_hash = fnv1a64_words(output);
  }

  /// The run succeeded and its OUT stream equals `golden`.
  bool matches(std::span<const std::uint32_t> golden) const {
    return ok && output_words == golden.size() &&
           output_hash == fnv1a64_words(golden);
  }

  /// SimStats equality (which leaves out the execution-tier markers)
  /// plus every field above.
  bool operator==(const RunOutcome&) const = default;
};

class ResultCache {
public:
  using Key = std::pair<std::uint64_t, std::uint64_t>;  ///< (source, config)

  /// Merge entries from `path` into the cache. A missing file is not an
  /// error (first run); malformed lines are skipped. Returns the number
  /// of entries loaded.
  std::size_t load_file(const std::string& path);

  /// Write every entry to `path` (full rewrite, deterministic order),
  /// published atomically by temp-file + rename. Throws Error if the
  /// file cannot be written.
  void save_file(const std::string& path) const;

  /// Thread-safe lookup; counts a hit or miss.
  bool lookup(const Key& key, RunOutcome& out) const;

  /// Thread-safe insert of a successful outcome (last writer wins;
  /// entries for the same key are identical by construction).
  void insert(const Key& key, const RunOutcome& outcome);

  std::size_t size() const;
  std::uint64_t hits() const;
  std::uint64_t misses() const;

private:
  mutable std::mutex mu_;
  std::map<Key, RunOutcome> entries_;  ///< ordered => deterministic save
  mutable std::uint64_t hits_ = 0;
  mutable std::uint64_t misses_ = 0;
};

}  // namespace cepic::pipeline

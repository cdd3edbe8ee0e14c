// Content-addressed store of compilation artifacts at three
// granularities:
//
//   kIr       the optimised IR Module, CEPX-encoded (keyed by source +
//             optimiser options only — shared by *every* processor
//             configuration, and loaded back without reparsing)
//   kProgram  the assembled Program, CEPX-encoded — the one per-config
//             compile product (keyed additionally by the codegen-
//             relevant slice of the ProcessorConfig and the backend
//             options; stored with the codegen slice embedded so one
//             blob serves every simulation-only variant of the config).
//             Assembly text is never stored: it is printed on demand.
//   kIrLint   the IR-level lint report (analysis::lint_module) for the
//             optimised Module, keyed like kIr (config-independent —
//             the lint reads only the IR), one parseable diagnostic
//             per line so the report is rebuilt typed on a hit
//
// Artifacts are addressed by ArtifactId{granularity, digest} handles —
// stable 64-bit content hashes computed by pipeline::Service (see
// pipeline.cpp); callers never touch on-disk paths or raw key strings.
// The typed get/put overloads go through the serial:: CEPX codecs, so
// Modules and Programs enter and leave the store as validated binary
// containers. Blobs live in an in-memory map and, when a root directory
// is given, under `<root>/<store_version_tag()>/<gran>/` — one file per
// artifact, written via a temp file + rename so readers never observe a
// torn write. Because the version tag names the directory, artifacts
// written by an older toolchain (different encoding, scheduler,
// container format...) are simply invisible to a newer build and can
// never be replayed; a `format` marker inside each versioned directory
// additionally rejects directories laid out by other means with a clear
// error instead of silently misreading them.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>

#include "core/program.hpp"
#include "ir/ir.hpp"

namespace cepic::pipeline {

enum class Granularity {
  kIr = 0,
  kProgram = 1,
  kIrLint = 2,
};

inline constexpr int kNumGranularities = 3;

const char* to_string(Granularity g);

/// Typed handle to one stored artifact: which granularity it lives at
/// and the 64-bit content digest that addresses it. The Service derives
/// digests; everything else just passes handles around.
struct ArtifactId {
  Granularity granularity = Granularity::kIr;
  std::uint64_t digest = 0;

  bool operator==(const ArtifactId&) const = default;
};

/// Render e.g. "ir:1f2e3d4c5b6a7988" for diagnostics and logs.
std::string to_string(const ArtifactId& id);

/// Hit/miss/write counters for one granularity. A disk read that
/// succeeds counts as a hit (the artifact was reused across processes).
struct GranularityStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t puts = 0;
};

struct StoreStats {
  GranularityStats ir;
  /// Always zero: no granularity stores assembly text any more. Kept
  /// only because the end-to-end benchmark still sums it; ROADMAP item 2
  /// deletes it.
  GranularityStats assembly;
  GranularityStats program;
  /// Always zero, like `assembly`: no granularity stores mcheck reports
  /// any more (cepic-lint runs mcheck itself). Kept for the same reason.
  GranularityStats lint;
  GranularityStats ir_lint;
};

/// Write `bytes` to `path` through a temp file + rename: readers never
/// see a partial file, and a writer killed mid-write leaves the old one
/// intact. `what` names the file in errors. Throws Error on failure.
void publish_file(const std::string& path, std::string_view bytes,
                  std::string_view what);

class Store {
public:
  /// Memory-only store (artifacts shared within one Service lifetime).
  Store() = default;

  /// Persistent store rooted at `root` (created eagerly, together with
  /// its format marker). Artifacts live under `<root>/<version_tag>/`;
  /// `version_tag` defaults to store_version_tag() and is parameterised
  /// only so tests can prove the version isolation property. Throws
  /// Error if `root` holds an old-layout or foreign store.
  explicit Store(const std::string& root, std::string version_tag = {});

  // --- raw blob interface (kIrLint text artifacts) ---

  /// Look up a blob. Memory first, then disk (a disk hit is promoted
  /// into memory). Returns false on a miss.
  bool get(const ArtifactId& id, std::string& blob);

  /// Record a blob in memory and, if persistent, on disk. Throws Error
  /// if the disk write fails (a half-working store would silently lose
  /// the cross-process reuse the caller asked for).
  void put(const ArtifactId& id, std::string_view blob);

  // --- typed interface (CEPX-encoded binary artifacts) ---

  /// Load a Module (id.granularity must be kIr). Decode errors — a
  /// corrupt or stale container — propagate as Error with the CEPX
  /// diagnostic; a clean miss returns false.
  bool get(const ArtifactId& id, ir::Module& out);
  void put(const ArtifactId& id, const ir::Module& module);

  /// Load a Program (id.granularity must be kProgram).
  bool get(const ArtifactId& id, Program& out);
  void put(const ArtifactId& id, const Program& program);

  StoreStats stats() const;

  /// The versioned directory artifacts live in; empty if memory-only.
  const std::string& directory() const { return dir_; }
  bool persistent() const { return !dir_.empty(); }

private:
  std::string object_path(const ArtifactId& id) const;

  std::string dir_;  ///< <root>/<version_tag>, "" when memory-only
  mutable std::mutex mu_;
  std::unordered_map<std::uint64_t, std::string> mem_[kNumGranularities];
  StoreStats stats_;
};

}  // namespace cepic::pipeline

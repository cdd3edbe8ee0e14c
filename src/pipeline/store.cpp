#include "pipeline/store.hpp"

#include <filesystem>
#include <fstream>
#include <span>
#include <sstream>
#include <thread>

#include "obs/obs.hpp"
#include "pipeline/version.hpp"
#include "serial/serial.hpp"
#include "support/error.hpp"
#include "support/text.hpp"

namespace cepic::pipeline {

namespace {

namespace fs = std::filesystem;

GranularityStats& stats_for(StoreStats& s, Granularity g) {
  switch (g) {
    case Granularity::kIr: return s.ir;
    case Granularity::kIrLint: return s.ir_lint;
    default: return s.program;
  }
}

/// Directory naming per granularity.
const char* subdir(Granularity g) {
  switch (g) {
    case Granularity::kIr: return "ir";
    case Granularity::kIrLint: return "irlint";
    default: return "prog";
  }
}

/// File extension, purely for humans poking at the store. IR and
/// Programs persist as CEPX containers.
const char* extension(Granularity g) {
  switch (g) {
    case Granularity::kIr: return ".cepx";
    case Granularity::kIrLint: return ".irlint";
    default: return ".cepx";
  }
}

std::string hex16(std::uint64_t v) {
  static const char* kDigits = "0123456789abcdef";
  std::string s(16, '0');
  for (int i = 15; i >= 0; --i) {
    s[static_cast<std::size_t>(i)] = kDigits[v & 0xF];
    v >>= 4;
  }
  return s;
}

/// Contents of the `format` marker each versioned directory carries.
/// Bump together with the store layout (not the artifact schema — that
/// is what the version tag is for).
constexpr std::string_view kFormatMarker = "cepx-store 2\n";

std::span<const std::uint8_t> as_bytes(std::string_view blob) {
  return {reinterpret_cast<const std::uint8_t*>(blob.data()), blob.size()};
}

std::string_view as_view(const std::vector<std::uint8_t>& bytes) {
  return {reinterpret_cast<const char*>(bytes.data()), bytes.size()};
}

}  // namespace

const char* to_string(Granularity g) {
  switch (g) {
    case Granularity::kIr: return "ir";
    case Granularity::kIrLint: return "irlint";
    default: return "program";
  }
}

std::string to_string(const ArtifactId& id) {
  return cat(to_string(id.granularity), ":", hex16(id.digest));
}

void publish_file(const std::string& path, std::string_view bytes,
                  std::string_view what) {
  // The temp name carries the thread id so two threads never share one;
  // concurrent writers of the same path then race only on the rename.
  std::ostringstream tid;
  tid << std::this_thread::get_id();
  const std::string tmp = cat(path, ".tmp.", tid.str());
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) throw Error(cat("cannot write ", what, " ", tmp));
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    if (!out.flush()) throw Error(cat("failed writing ", what, " ", tmp));
  }
  std::error_code ec;
  fs::rename(tmp, path, ec);
  if (ec) {
    fs::remove(tmp, ec);
    throw Error(cat("cannot publish ", what, " ", path));
  }
}

Store::Store(const std::string& root, std::string version_tag) {
  if (root.empty()) return;  // degenerate: behave as memory-only
  if (version_tag.empty()) version_tag = store_version_tag();

  // A store *root* contains version-tag directories; a *versioned*
  // directory contains the per-granularity subtrees. Someone pointing
  // the root at a versioned directory (old layout, or a copy-paste of
  // an inner path) would silently shadow every artifact, so reject it.
  // (`asm/` held assembly text and `lint/` mcheck reports in older
  // stores.)
  const fs::path root_path(root);
  for (const char* g : {"ir", "asm", "prog", "lint", "irlint"}) {
    std::error_code ec;
    if (fs::is_directory(root_path / g, ec)) {
      throw Error(cat(
          "store root ", root, " looks like a versioned artifact directory "
          "(contains '", g, "/'); pass the store root, not a version "
          "subdirectory — old-layout stores must be re-produced"));
    }
  }

  dir_ = (root_path / version_tag).string();
  const fs::path marker = fs::path(dir_) / "format";
  std::error_code ec;
  if (fs::exists(fs::path(dir_), ec)) {
    std::ifstream in(marker, std::ios::binary);
    std::ostringstream ss;
    if (in) ss << in.rdbuf();
    if (!in || ss.str() != kFormatMarker) {
      throw Error(cat(
          "store directory ", dir_, " was not written by this toolchain "
          "(missing or mismatched format marker); delete it or point the "
          "store elsewhere — old-layout stores must be re-produced"));
    }
    return;
  }
  fs::create_directories(fs::path(dir_), ec);
  if (ec) throw Error(cat("cannot create store directory ", dir_));
  std::ofstream out(marker, std::ios::binary | std::ios::trunc);
  if (!out ||
      !out.write(kFormatMarker.data(),
                 static_cast<std::streamsize>(kFormatMarker.size()))
           .flush()) {
    throw Error(cat("cannot write store format marker in ", dir_));
  }
}

std::string Store::object_path(const ArtifactId& id) const {
  return (fs::path(dir_) / subdir(id.granularity) /
          (hex16(id.digest) + extension(id.granularity)))
      .string();
}

bool Store::get(const ArtifactId& id, std::string& blob) {
  // Every typed get() funnels through this blob path, so one latency
  // seam covers memory hits, disk promotions and misses alike.
  obs::ScopedObserve latency("store.get_ns");
  {
    std::unique_lock<std::mutex> lock(mu_);
    const auto& map = mem_[static_cast<int>(id.granularity)];
    const auto it = map.find(id.digest);
    if (it != map.end()) {
      blob = it->second;
      ++stats_for(stats_, id.granularity).hits;
      return true;
    }
  }
  if (!dir_.empty()) {
    std::ifstream in(object_path(id), std::ios::binary);
    if (in) {
      std::ostringstream ss;
      ss << in.rdbuf();
      blob = ss.str();
      std::unique_lock<std::mutex> lock(mu_);
      mem_[static_cast<int>(id.granularity)][id.digest] = blob;
      ++stats_for(stats_, id.granularity).hits;
      return true;
    }
  }
  std::unique_lock<std::mutex> lock(mu_);
  ++stats_for(stats_, id.granularity).misses;
  return false;
}

void Store::put(const ArtifactId& id, std::string_view blob) {
  obs::ScopedObserve latency("store.put_ns");
  {
    std::unique_lock<std::mutex> lock(mu_);
    mem_[static_cast<int>(id.granularity)][id.digest] = std::string(blob);
    ++stats_for(stats_, id.granularity).puts;
  }
  if (dir_.empty()) return;
  const std::string path = object_path(id);
  std::error_code ec;
  fs::create_directories(fs::path(path).parent_path(), ec);
  if (ec) throw Error(cat("cannot create store directory for ", path));
  // Concurrent writers of one key race only on identical content.
  publish_file(path, blob, "store object");
}

bool Store::get(const ArtifactId& id, ir::Module& out) {
  CEPIC_CHECK(id.granularity == Granularity::kIr,
              "Module artifacts live at Granularity::kIr");
  std::string blob;
  if (!get(id, blob)) return false;
  try {
    out = serial::decode_module(as_bytes(blob));
  } catch (const Error& e) {
    throw Error(cat("store artifact ", to_string(id), ": ", e.what()));
  }
  return true;
}

void Store::put(const ArtifactId& id, const ir::Module& module) {
  CEPIC_CHECK(id.granularity == Granularity::kIr,
              "Module artifacts live at Granularity::kIr");
  const std::vector<std::uint8_t> bytes = serial::encode_module(module);
  put(id, as_view(bytes));
}

bool Store::get(const ArtifactId& id, Program& out) {
  CEPIC_CHECK(id.granularity == Granularity::kProgram,
              "Program artifacts live at Granularity::kProgram");
  std::string blob;
  if (!get(id, blob)) return false;
  try {
    out = serial::decode_program(as_bytes(blob));
  } catch (const Error& e) {
    throw Error(cat("store artifact ", to_string(id), ": ", e.what()));
  }
  return true;
}

void Store::put(const ArtifactId& id, const Program& program) {
  CEPIC_CHECK(id.granularity == Granularity::kProgram,
              "Program artifacts live at Granularity::kProgram");
  const std::vector<std::uint8_t> bytes = serial::encode_program(program);
  put(id, as_view(bytes));
}

StoreStats Store::stats() const {
  std::unique_lock<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace cepic::pipeline

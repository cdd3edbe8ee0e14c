#include "pipeline/result_cache.hpp"

#include <charconv>
#include <fstream>
#include <sstream>
#include <string_view>
#include <vector>

#include "pipeline/store.hpp"
#include "support/error.hpp"
#include "support/text.hpp"

namespace cepic::pipeline {

namespace {

/// The SimStats counters a line carries, in file order.
constexpr std::uint64_t SimStats::*kCounters[] = {
    &SimStats::cycles,           &SimStats::bundles_issued,
    &SimStats::ops_executed,     &SimStats::ops_committed,
    &SimStats::ops_nullified,    &SimStats::nops,
    &SimStats::stall_scoreboard, &SimStats::stall_reg_ports,
    &SimStats::stall_mem_contention, &SimStats::branch_bubbles,
    &SimStats::mem_reads,        &SimStats::mem_writes,
    &SimStats::branches_taken,   &SimStats::branches_not_taken,
};

// v3 <src hex> <cfg hex> <counters> <histogram> <exec_tier> <out_words>
//    <out_hash hex> <ret>
constexpr std::size_t kFields =
    3 + std::size(kCounters) + (SimStats::kMaxBundleWidth + 1) + 1 + 3;

bool parse_u64(std::string_view s, std::uint64_t& out, bool hex) {
  const char* end = s.data() + s.size();
  const auto [stop, ec] = std::from_chars(s.data(), end, out, hex ? 16 : 10);
  return ec == std::errc() && stop == end;
}

/// Parse one `v3` line's fields into `key` and `out`; false when any
/// field is malformed or out of range.
bool parse_entry(const std::vector<std::string_view>& fields,
                 ResultCache::Key& key, RunOutcome& out) {
  std::size_t at = 1;
  const auto next = [&](std::uint64_t& v, bool hex = false) {
    return parse_u64(fields[at++], v, hex);
  };
  if (!next(key.first, true) || !next(key.second, true)) return false;
  for (const auto counter : kCounters) {
    if (!next(out.*counter)) return false;
  }
  for (std::uint64_t& bucket : out.bundle_width_hist) {
    if (!next(bucket)) return false;
  }
  std::uint64_t tier = 0;
  std::uint64_t ret = 0;
  if (!next(tier) || tier > static_cast<std::uint64_t>(ExecTier::Threaded) ||
      !next(out.output_words) || !next(out.output_hash, true) || !next(ret) ||
      ret > 0xFFFFFFFFull) {
    return false;
  }
  out.exec_tier = static_cast<ExecTier>(tier);
  out.ret = static_cast<std::uint32_t>(ret);
  out.ok = true;
  return true;
}

}  // namespace

std::size_t ResultCache::load_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return 0;
  std::size_t loaded = 0;
  std::string line;
  while (std::getline(in, line)) {
    const auto fields = split_ws(line);
    Key key;
    RunOutcome outcome;
    if (fields.size() != kFields || fields[0] != "v3" ||
        !parse_entry(fields, key, outcome)) {
      continue;
    }
    std::unique_lock<std::mutex> lock(mu_);
    entries_[key] = std::move(outcome);
    ++loaded;
  }
  return loaded;
}

void ResultCache::save_file(const std::string& path) const {
  std::ostringstream os;
  os << "# cepic pipeline result cache. One line per (source, config) "
        "point:\n"
     << "# v3 src_hash cfg_hash <" << std::size(kCounters)
     << " SimStats counters> <"
     << SimStats::kMaxBundleWidth + 1
     << " bundle-width buckets> exec_tier out_words out_hash ret\n";
  {
    std::unique_lock<std::mutex> lock(mu_);
    for (const auto& [key, e] : entries_) {
      os << "v3 " << hex64(key.first) << ' ' << hex64(key.second);
      for (const auto counter : kCounters) os << ' ' << e.*counter;
      for (const std::uint64_t bucket : e.bundle_width_hist) os << ' ' << bucket;
      os << ' ' << static_cast<unsigned>(e.exec_tier) << ' ' << e.output_words
         << ' ' << hex64(e.output_hash) << ' ' << e.ret << '\n';
    }
  }
  publish_file(path, os.str(), "cache file");
}

bool ResultCache::lookup(const Key& key, RunOutcome& out) const {
  std::unique_lock<std::mutex> lock(mu_);
  const auto it = entries_.find(key);
  if (it == entries_.end()) {
    ++misses_;
    return false;
  }
  ++hits_;
  out = it->second;
  return true;
}

void ResultCache::insert(const Key& key, const RunOutcome& outcome) {
  std::unique_lock<std::mutex> lock(mu_);
  entries_[key] = outcome;
}

std::size_t ResultCache::size() const {
  std::unique_lock<std::mutex> lock(mu_);
  return entries_.size();
}

std::uint64_t ResultCache::hits() const {
  std::unique_lock<std::mutex> lock(mu_);
  return hits_;
}

std::uint64_t ResultCache::misses() const {
  std::unique_lock<std::mutex> lock(mu_);
  return misses_;
}

}  // namespace cepic::pipeline

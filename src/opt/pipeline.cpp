// The pass driver.  It iterates a fixed pass battery, in a fixed order,
// over every function until a round changes nothing (output IR is
// pinned byte-identical by tests/golden).  Two things keep that cheap:
//
//  * a shared AnalysisManager caches Cfg/dominators/liveness/reaching-
//    defs/available-copies per function; passes declare what they
//    preserved, so only genuinely stale results are recomputed;
//  * every (function, pass) pair remembers the manager version at which
//    the pass last reported "no change"; a deterministic pass re-run on
//    an unchanged function is provably a no-op, so the invocation is
//    skipped outright (`opt.pass_skips`).
//
// Every pass rescans the whole function when it does run; the sparse
// work lives inside the passes (DCE's re-sweep of the blocks whose
// live_out moved).  The outer round loop survives as the inline
// barrier the battery is ordered around (inlining between rounds is
// semantically observable); once the module converges a round
// degenerates to a handful of version checks and the loop exits.
#include <array>
#include <cstdint>
#include <cstdlib>
#include <vector>

#include "analysis/manager.hpp"
#include "ir/verify.hpp"
#include "obs/obs.hpp"
#include "opt/opt.hpp"
#include "support/arena.hpp"
#include "support/error.hpp"
#include "support/text.hpp"

namespace cepic::opt {

namespace {

/// Re-verify the whole module after `pass` and pin the blame on it:
/// a corrupt module at this point was legal before the pass ran.
void verify_after(const ir::Module& module, const char* pass) {
  try {
    ir::verify_module(module);
  } catch (const InternalError& e) {
    throw InternalError(cat("after pass ", pass, ": ", e.what()));
  }
}

enum PassId {
  kSimplifyCfg = 0,
  kConstfold,
  kCopyprop,
  kCse,
  kLicm,
  kDce,
  kIfConvert,
  kNumPassIds,
};

class Driver {
 public:
  Driver(ir::Module& module, const OptOptions& options)
      : module_(module),
        options_(options),
        verify_each_(
            options.verify_each_pass ||
            std::getenv("CEPIC_VERIFY_IR") != nullptr),  // NOLINT(concurrency-mt-unsafe)
        clean_version_(module.functions.size()) {
    am_.set_verify(
        options.verify_analyses ||
        std::getenv("CEPIC_VERIFY_ANALYSES") != nullptr);  // NOLINT(concurrency-mt-unsafe)
  }

  /// Run one pass on one function unless the pass already reported "no
  /// change" at the function's current version.
  template <typename Pass>
  bool run(PassId id, const char* name, Pass pass, std::size_t fi) {
    ir::Function& fn = module_.functions[fi];
    std::uint64_t& clean = clean_version_[fi][id];
    const std::uint64_t version = am_.version(fn);
    if (clean == version) {
      obs::add("opt.pass_skips");
      return false;
    }
    bool changed = false;
    {
      obs::Span span(name, "opt");
      obs::ScopedObserve latency("opt.pass_ns");
      span.arg("fn", fn.name);
      changed = pass(fn, am_);
    }
    obs::add("opt.pass_runs");
    if (verify_each_) verify_after(module_, name);
    // The skip is sound only if every change bumps the version.
    CEPIC_CHECK(!changed || am_.version(fn) != version,
                cat("pass ", name, " changed @", fn.name,
                    " without invalidating"));
    if (!changed) clean = version;
    return changed;
  }

  /// Inlining reads every callee while rewriting callers, so its skip
  /// condition is module-wide: every function unchanged since the last
  /// no-op inline run.
  bool run_inline() {
    if (inline_clean_.size() == module_.functions.size()) {
      bool clean = true;
      for (std::size_t fi = 0; fi < module_.functions.size(); ++fi) {
        if (inline_clean_[fi] != am_.version(module_.functions[fi])) {
          clean = false;
          break;
        }
      }
      if (clean) {
        obs::add("opt.pass_skips");
        return false;
      }
    }
    std::vector<bool> fn_changed;
    bool changed = false;
    {
      obs::Span span("inline", "opt");
      obs::ScopedObserve latency("opt.pass_ns");
      changed = pass_inline(module_, options_.inline_max_insts, &fn_changed);
    }
    obs::add("opt.pass_runs");
    if (verify_each_) verify_after(module_, "inline");
    if (changed) {
      inline_clean_.clear();
      for (std::size_t fi = 0; fi < module_.functions.size(); ++fi) {
        if (fn_changed[fi]) am_.invalidate_all(module_.functions[fi]);
      }
    } else {
      inline_clean_.resize(module_.functions.size());
      for (std::size_t fi = 0; fi < module_.functions.size(); ++fi) {
        inline_clean_[fi] = am_.version(module_.functions[fi]);
      }
    }
    return changed;
  }

 private:
  ir::Module& module_;
  const OptOptions& options_;
  const bool verify_each_;
  analysis::AnalysisManager am_;
  /// Per function, per pass: the version at which the pass last
  /// reported "no change" (0 = never; versions start at 1).
  std::vector<std::array<std::uint64_t, kNumPassIds>> clean_version_;
  std::vector<std::uint64_t> inline_clean_;
};

}  // namespace

void optimize(ir::Module& module, const OptOptions& options) {
  obs::Span opt_span("optimize", "opt");
  Driver driver(module, options);

  // Pass battery and ordering are load-bearing: the optimized IR (and
  // the golden digests pinning it) depends on the exact sequence.
  int rounds_run = 0;
  for (int round = 0; round < options.max_rounds; ++round) {
    ++rounds_run;
    bool changed = false;
    if (options.inline_calls) changed |= driver.run_inline();
    for (std::size_t fi = 0; fi < module.functions.size(); ++fi) {
      const auto simplify_cfg = [&] {
        if (options.simplify_cfg) {
          changed |= driver.run(kSimplifyCfg, "simplify_cfg",
                                pass_simplify_cfg, fi);
        }
      };
      const auto copyprop = [&] {
        if (options.copy_propagate) {
          changed |= driver.run(kCopyprop, "copy_propagate",
                                pass_copy_propagate, fi);
        }
      };
      const auto constfold = [&] {
        if (options.fold) {
          changed |= driver.run(kConstfold, "constfold", pass_constfold, fi);
        }
      };
      const auto cse = [&] {
        if (options.cse) changed |= driver.run(kCse, "cse", pass_cse, fi);
      };
      simplify_cfg();
      constfold();
      copyprop();
      cse();
      if (options.licm) {
        changed |= driver.run(kLicm, "licm", pass_licm, fi);
        simplify_cfg();
        copyprop();
        cse();
      }
      constfold();
      copyprop();
      if (options.dce) changed |= driver.run(kDce, "dce", pass_dce, fi);
      if (options.if_convert) {
        changed |= driver.run(
            kIfConvert, "if_convert",
            [&options](ir::Function& fn, analysis::AnalysisManager& am) {
              return pass_if_convert(fn, am, options.if_convert_max_ops);
            },
            fi);
        simplify_cfg();
      }
    }
    if (!changed) break;
  }
  opt_span.arg("rounds", static_cast<std::uint64_t>(rounds_run));
  obs::Registry::instance().set_gauge(
      "opt.arena_reserved_bytes",
      static_cast<double>(Arena::scratch().bytes_reserved()));
  obs::Registry::instance().set_gauge(
      "opt.arena_peak_bytes",
      static_cast<double>(Arena::scratch().bytes_peak()));
  ir::verify_module(module);
}

}  // namespace cepic::opt

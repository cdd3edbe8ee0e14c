// Preservation soundness for the optimiser's analysis manager, and the
// pins on what the pass driver emits.
//
//  1. PreservedAnalyses claims are sound — an analysis a pass kept
//     cached equals a fresh recomputation (checked differentially here
//     for every pass over the fuzz corpus, and continuously by the
//     manager's verify mode during full pipeline runs).
//  2. The optimised IR is pinned byte-for-byte by tests/golden/
//     optimize_digests.txt (regenerate by rerunning the digest test
//     with CEPIC_REGEN_GOLDEN=1 in the environment); the driver's
//     version skip must be invisible there, and must actually fire.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/manager.hpp"
#include "frontend/irgen.hpp"
#include "ir/ir.hpp"
#include "ir/verify.hpp"
#include "obs/obs.hpp"
#include "opt/opt.hpp"
#include "support/bits.hpp"
#include "support/error.hpp"
#include "support/prng.hpp"
#include "workloads/workloads.hpp"

#include "test_util.hpp"

namespace cepic {
namespace {

std::vector<workloads::Workload> corpus_workloads() {
  std::vector<workloads::Workload> ws = workloads::all_workloads(16, 8, 8, 8);
  ws.push_back(workloads::make_dct(16));  // the BM_Optimize module
  return ws;
}

/// The fuzz slice of the corpus: seed -> module, skipping generated
/// modules the verifier rejects (the generator is unconstrained).
std::vector<std::pair<std::uint64_t, ir::Module>> corpus_fuzz(
    std::uint64_t max_seed) {
  std::vector<std::pair<std::uint64_t, ir::Module>> out;
  for (std::uint64_t seed = 1; seed <= max_seed; ++seed) {
    Prng rng(seed);
    ir::Module m = testutil::random_module(rng);
    try {
      ir::verify_module(m);
    } catch (const InternalError&) {
      continue;
    }
    out.emplace_back(seed, std::move(m));
  }
  return out;
}

std::string digest_of(ir::Module m, const opt::OptOptions& opts) {
  try {
    opt::optimize(m, opts);
    char buf[32];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(fnv1a64(ir::to_string(m))));
    return buf;
  } catch (const std::exception&) {
    return "throw";  // collapse; error text may vary
  }
}

// ------------------------------------------------ golden digest corpus

TEST(OptimizeGolden, DigestsMatchCommittedCorpus) {
  std::ostringstream fresh;
  for (const workloads::Workload& w : corpus_workloads()) {
    const ir::Module m = minic::compile_to_ir(w.minic_source);
    fresh << "workload " << w.name << " default " << digest_of(m, {}) << "\n";
    opt::OptOptions licm;
    licm.licm = true;
    fresh << "workload " << w.name << " licm " << digest_of(m, licm) << "\n";
  }
  for (std::uint64_t seed = 1; seed <= 1000; ++seed) {
    Prng rng(seed);
    ir::Module m = testutil::random_module(rng);
    fresh << "fuzz " << seed << " default ";
    try {
      ir::verify_module(m);
      fresh << digest_of(std::move(m), {});
    } catch (const InternalError&) {
      fresh << "skip";
    }
    fresh << "\n";
  }

  const std::string path =
      std::string(CEPIC_TEST_DIR) + "/golden/optimize_digests.txt";
  if (std::getenv("CEPIC_REGEN_GOLDEN") != nullptr) {  // NOLINT(concurrency-mt-unsafe)
    std::ofstream out(path, std::ios::binary);
    out << fresh.str();
    GTEST_SKIP() << "regenerated " << path;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in) << "missing golden corpus at " << path;
  std::ostringstream golden;
  golden << in.rdbuf();
  EXPECT_EQ(golden.str(), fresh.str())
      << "optimized IR drifted from the committed digests; if the change "
         "is intentional, update tests/golden/optimize_digests.txt";
}

// ------------------------------------------------ version skip fires

TEST(VersionSkip, OptimizingDctSkipsUnchangedPassInvocations) {
  // The digests above cannot tell whether the driver skipped a pass
  // that last reported "no change" at the function's current version;
  // the counter can.
  ir::Module m = minic::compile_to_ir(workloads::make_dct(16).minic_source);
  std::atomic<std::uint64_t>& skips =
      obs::Registry::instance().counter("opt.pass_skips");
  const std::uint64_t before = skips.load();
  opt::optimize(m);
  EXPECT_GT(skips.load(), before);
}

// ----------------------- differential verify through full pipeline runs

TEST(PreservationSoundness, FullPipelineUnderDifferentialVerify) {
  // verify_analyses recomputes every claimed-preserved cached analysis
  // at every invalidation and throws naming the over-claiming pass.
  opt::OptOptions opts;
  opts.verify_analyses = true;
  for (const workloads::Workload& w : corpus_workloads()) {
    ir::Module m = minic::compile_to_ir(w.minic_source);
    ASSERT_NO_THROW(opt::optimize(m, opts)) << w.name;
    ir::Module m2 = minic::compile_to_ir(w.minic_source);
    opt::OptOptions licm = opts;
    licm.licm = true;
    ASSERT_NO_THROW(opt::optimize(m2, licm)) << w.name << " (licm)";
  }
  for (auto& [seed, m] : corpus_fuzz(300)) {
    try {
      opt::optimize(m, opts);
    } catch (const InternalError& e) {
      // Only preservation violations matter here; fuzz modules may
      // legitimately fail post-pass IR verification in any mode.
      EXPECT_EQ(std::string(e.what()).find("claimed to preserve"),
                std::string::npos)
          << "seed " << seed << ": " << e.what();
    }
  }
}

// ------------------- per pass x module: cache vs fresh recomputation

TEST(PreservationSoundness, PerPassCachedAnalysesMatchFresh) {
  using analysis::AnalysisManager;
  const auto check_fn = [](ir::Function& fn, const char* tag) {
    struct NamedPass {
      const char* name;
      bool (*run)(ir::Function&, AnalysisManager&);
    };
    const NamedPass passes[] = {
        {"constfold", opt::pass_constfold},
        {"copy_propagate", opt::pass_copy_propagate},
        {"cse", opt::pass_cse},
        {"dce", opt::pass_dce},
        {"simplify_cfg", opt::pass_simplify_cfg},
        {"licm", opt::pass_licm},
        {"if_convert", [](ir::Function& f, AnalysisManager& am) {
           return opt::pass_if_convert(f, am, 10);
         }},
    };
    for (const NamedPass& pass : passes) {
      AnalysisManager am;
      // Warm every cache slot, then let the pass invalidate what it
      // must: whatever the getters serve afterwards has to agree with
      // a from-scratch recomputation.
      am.cfg(fn);
      am.dominators(fn);
      am.liveness(fn);
      am.reaching_defs(fn);
      am.available_copies(fn);
      pass.run(fn, am);
      const analysis::Cfg fresh_cfg = analysis::Cfg::build(fn);
      EXPECT_EQ(am.cfg(fn), fresh_cfg) << pass.name << " on " << tag;
      EXPECT_EQ(am.dominators(fn), compute_dominators(fn, fresh_cfg))
          << pass.name << " on " << tag;
      EXPECT_EQ(am.liveness(fn), compute_liveness(fn, fresh_cfg))
          << pass.name << " on " << tag;
      EXPECT_EQ(am.reaching_defs(fn), compute_reaching_defs(fn, fresh_cfg))
          << pass.name << " on " << tag;
      EXPECT_EQ(am.available_copies(fn),
                compute_available_copies(fn, fresh_cfg))
          << pass.name << " on " << tag;
    }
  };
  for (auto& [seed, m] : corpus_fuzz(200)) {
    const std::string tag = "fuzz seed " + std::to_string(seed);
    for (ir::Function& fn : m.functions) check_fn(fn, tag.c_str());
  }
  for (const workloads::Workload& w : corpus_workloads()) {
    ir::Module m = minic::compile_to_ir(w.minic_source);
    for (ir::Function& fn : m.functions) check_fn(fn, w.name.c_str());
  }
}

// --------------------------------------------- manager unit behaviour

TEST(AnalysisManager, VersionBumpsAndPreservedResultsSurvive) {
  ir::Module m = minic::compile_to_ir(
      "int main() { int a = 1; int b = a + 2; return b; }");
  ir::Function& fn = m.functions.front();
  analysis::AnalysisManager am;
  EXPECT_EQ(am.version(fn), 1u);
  const analysis::Liveness* live = &am.liveness(fn);
  const analysis::Cfg* cfg = &am.cfg(fn);

  am.invalidate(fn,
                analysis::PreservedAnalyses::none().preserve(
                    analysis::AnalysisKind::kCfg),
                "test");
  EXPECT_EQ(am.version(fn), 2u);
  // The preserved CFG is served from cache (same object); liveness was
  // dropped and comes back as a fresh equal result (the heap may hand
  // the replacement the same address, so only values are asserted).
  EXPECT_EQ(&am.cfg(fn), cfg);
  EXPECT_EQ(am.liveness(fn), compute_liveness(fn, *cfg));
  (void)live;

  am.invalidate_all(fn);
  EXPECT_EQ(am.version(fn), 3u);
  EXPECT_EQ(am.cfg(fn), analysis::Cfg::build(fn));
}

TEST(AnalysisManager, VerifyModeCatchesOverclaimedPreservation) {
  ir::Module m = minic::compile_to_ir(
      "int main() { int a = 1; int b = a + 2; return b; }");
  ir::Function& fn = m.functions.front();
  analysis::AnalysisManager am;
  am.set_verify(true);
  am.liveness(fn);

  // Mutate the function behind the manager's back (a new block changes
  // the shape of every per-block result), then falsely claim everything
  // survived.
  const int added = fn.add_block("mut");
  ir::IrInst ret;
  ret.op = ir::IrOp::Ret;
  if (fn.returns_value) ret.a = ir::Value::i(0);
  fn.blocks[added].insts.push_back(ret);

  EXPECT_THROW(am.invalidate(fn, analysis::PreservedAnalyses::all(),
                             "bad_pass"),
               InternalError);
}

}  // namespace
}  // namespace cepic

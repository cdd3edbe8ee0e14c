// Pins every paper-reproduction experiment's printed output byte for
// byte at --small sizes (R1 and A4 take no sizes) against
// tests/golden/repro/<experiment>.txt. Regenerate the goldens by
// rerunning the test with CEPIC_REGEN_GOLDEN=1 in the environment.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>

#include "repro.hpp"
#include "support/error.hpp"
#include "support/text.hpp"

namespace cepic::repro {
namespace {

class ReproGolden : public ::testing::TestWithParam<std::string> {};

TEST_P(ReproGolden, OutputMatchesCommittedGolden) {
  std::ostringstream fresh;
  ASSERT_TRUE(run({GetParam()}, kSmall, fresh)) << fresh.str();
  const std::string path =
      cat(CEPIC_TEST_DIR, "/golden/repro/", GetParam(), ".txt");
  if (std::getenv("CEPIC_REGEN_GOLDEN") != nullptr) {  // NOLINT(concurrency-mt-unsafe)
    std::ofstream(path, std::ios::binary) << fresh.str();
    GTEST_SKIP() << "regenerated " << path;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in) << "missing golden at " << path;
  std::ostringstream golden;
  golden << in.rdbuf();
  EXPECT_EQ(golden.str(), fresh.str())
      << "experiment output drifted from " << path
      << "; if the change is intentional, regenerate the golden";
}

INSTANTIATE_TEST_SUITE_P(Experiments, ReproGolden,
                         ::testing::ValuesIn(experiment_names()),
                         [](const auto& info) { return info.param; });

}  // namespace
}  // namespace cepic::repro

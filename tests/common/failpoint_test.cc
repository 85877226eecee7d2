// Unit tests for the deterministic failpoint registry: the trigger
// grammar, driven through the registry API, and one production macro
// site armed and disarmed.

#include "common/failpoint.h"

#include <gtest/gtest.h>

#include <vector>

#include "common/parallel.h"

namespace privmark {
namespace {

class FailpointTest : public ::testing::Test {
 protected:
  void SetUp() override { FailpointRegistry::Instance().Reset(); }
  void TearDown() override { FailpointRegistry::Instance().Reset(); }
};

TEST_F(FailpointTest, UnconfiguredNeverFires) {
  auto& registry = FailpointRegistry::Instance();
  for (int i = 0; i < 100; ++i) EXPECT_FALSE(registry.Hit("nope"));
  EXPECT_EQ(registry.hit_count("nope"), 0u);  // unarmed fast path: no count
}

TEST_F(FailpointTest, AlwaysAndOffModes) {
  auto& registry = FailpointRegistry::Instance();
  ASSERT_TRUE(registry.Configure("p", "always").ok());
  EXPECT_TRUE(registry.Hit("p"));
  EXPECT_TRUE(registry.Hit("p"));
  ASSERT_TRUE(registry.Configure("p", "off").ok());
  EXPECT_FALSE(registry.Hit("p"));
}

TEST_F(FailpointTest, NthFiresFromNthHitOn) {
  auto& registry = FailpointRegistry::Instance();
  ASSERT_TRUE(registry.Configure("p", "nth:3").ok());
  EXPECT_FALSE(registry.Hit("p"));
  EXPECT_FALSE(registry.Hit("p"));
  EXPECT_TRUE(registry.Hit("p"));
  EXPECT_TRUE(registry.Hit("p"));
  EXPECT_EQ(registry.hit_count("p"), 4u);
}

TEST_F(FailpointTest, OnceFiresExactlyOnce) {
  auto& registry = FailpointRegistry::Instance();
  ASSERT_TRUE(registry.Configure("p", "once:2").ok());
  EXPECT_FALSE(registry.Hit("p"));
  EXPECT_TRUE(registry.Hit("p"));
  EXPECT_FALSE(registry.Hit("p"));
  EXPECT_FALSE(registry.Hit("p"));
}

TEST_F(FailpointTest, ProbIsDeterministicPerSeed) {
  auto& registry = FailpointRegistry::Instance();
  auto draw_pattern = [&registry](const std::string& trigger) {
    EXPECT_TRUE(registry.Configure("p", trigger).ok());
    std::vector<bool> fired;
    fired.reserve(64);
    for (int i = 0; i < 64; ++i) fired.push_back(registry.Hit("p"));
    return fired;
  };
  const std::vector<bool> a = draw_pattern("prob:0.3:42");
  const std::vector<bool> b = draw_pattern("prob:0.3:42");
  const std::vector<bool> c = draw_pattern("prob:0.3:43");
  EXPECT_EQ(a, b);       // same seed -> same firing pattern
  EXPECT_NE(a, c);       // different seed -> (with 64 draws) different
  size_t fired = 0;
  for (bool f : a) fired += f ? 1 : 0;
  EXPECT_GT(fired, 0u);
  EXPECT_LT(fired, 64u);
}

TEST_F(FailpointTest, MalformedTriggersRejected) {
  auto& registry = FailpointRegistry::Instance();
  EXPECT_FALSE(registry.Configure("p", "sometimes").ok());
  EXPECT_FALSE(registry.Configure("p", "nth:0").ok());
  EXPECT_FALSE(registry.Configure("p", "nth:abc").ok());
  EXPECT_FALSE(registry.Configure("p", "nth:99999999999999999999999").ok());
  EXPECT_FALSE(registry.Configure("p", "prob:1.5:1").ok());
  EXPECT_FALSE(registry.Configure("p", "prob:nan:1").ok());
  EXPECT_FALSE(registry.Configure("p", "prob:-nan:1").ok());
  EXPECT_FALSE(registry.Configure("p", "prob:0.5").ok());
  EXPECT_FALSE(registry.Configure("", "always").ok());
}

TEST_F(FailpointTest, MacroSitesAreLiveInThisBuild) {
  auto& registry = FailpointRegistry::Instance();
  // The ThreadPool dispatch site is the one macro site reachable without
  // any IO: arm it, run a pooled batch, and expect the injected error to
  // surface as the lowest-numbered task's exception.
  ASSERT_TRUE(registry.Configure("threadpool.dispatch", "always").ok());
  ThreadPool pool(3);
  EXPECT_THROW(pool.Run(8, [](size_t) {}), std::runtime_error);
  ASSERT_TRUE(registry.Configure("threadpool.dispatch", "off").ok());
  // Disarmed again: the same batch runs clean.
  std::atomic<size_t> ran{0};
  pool.Run(8, [&](size_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 8u);
}

}  // namespace
}  // namespace privmark

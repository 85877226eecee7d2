#include "watermark/watermark_key.h"

#include <gtest/gtest.h>

#include <set>

namespace privmark {
namespace {

TEST(TupleSelectionTest, DeterministicPerIdent) {
  WatermarkKey key;
  key.eta = 10;
  for (int i = 0; i < 50; ++i) {
    const std::string ident = "id" + std::to_string(i);
    EXPECT_EQ(IsTupleSelected(key, HashAlgorithm::kSha1, ident),
              IsTupleSelected(key, HashAlgorithm::kSha1, ident));
  }
}

TEST(TupleSelectionTest, RateApproximatesOneOverEta) {
  WatermarkKey key;
  for (uint64_t eta : {10u, 50u, 100u}) {
    key.eta = eta;
    size_t selected = 0;
    constexpr size_t kCount = 30000;
    for (size_t i = 0; i < kCount; ++i) {
      if (IsTupleSelected(key, HashAlgorithm::kSha1,
                          "ident" + std::to_string(i))) {
        ++selected;
      }
    }
    const double rate = static_cast<double>(selected) / kCount;
    EXPECT_NEAR(rate, 1.0 / static_cast<double>(eta), 0.5 / eta)
        << "eta=" << eta;
  }
}

TEST(TupleSelectionTest, DifferentK1SelectsDifferentTuples) {
  WatermarkKey a;
  a.k1 = "alpha";
  a.eta = 5;
  WatermarkKey b;
  b.k1 = "bravo";
  b.eta = 5;
  int differing = 0;
  for (int i = 0; i < 2000; ++i) {
    const std::string ident = "id" + std::to_string(i);
    if (IsTupleSelected(a, HashAlgorithm::kSha1, ident) !=
        IsTupleSelected(b, HashAlgorithm::kSha1, ident)) {
      ++differing;
    }
  }
  EXPECT_GT(differing, 200);
}

TEST(TupleSelectionTest, EtaOneSelectsEverything) {
  WatermarkKey key;
  key.eta = 1;
  for (int i = 0; i < 20; ++i) {
    EXPECT_TRUE(IsTupleSelected(key, HashAlgorithm::kSha1,
                                "id" + std::to_string(i)));
  }
}

// --- SelectionRule: Eq. (5) without a divide -------------------------------

uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

TEST(SelectionRuleTest, MatchesModuloAtEdgesAndOnRandomValues) {
  constexpr uint64_t kMax = ~uint64_t{0};
  // Odd, even and power-of-two eta, both sides of 2^32, and the extremes
  // (s = 0 rotates by nothing; s = 63 by all but one bit).
  const uint64_t etas[] = {1,
                           2,
                           3,
                           7,
                           64,
                           75,
                           96,
                           uint64_t{1} << 32,
                           (uint64_t{1} << 32) + 1,
                           uint64_t{1} << 63,
                           kMax};
  for (uint64_t eta : etas) {
    const SelectionRule rule(eta);
    const auto check = [&](uint64_t h) {
      if (rule.Selects(h) != (h % eta == 0)) {
        ADD_FAILURE() << "eta=" << eta << " h=" << h;
      }
    };
    // Sums wrap mod 2^64 on purpose: they are just more values to check.
    for (uint64_t h : {uint64_t{0}, uint64_t{1}, eta - 1, eta, eta + 1,
                       5 * eta, kMax, kMax - eta + 1}) {
      check(h);
    }
    uint64_t state = eta;
    for (int i = 0; i < 100000; ++i) {
      const uint64_t h = SplitMix64(&state);
      check(h);
      // A true multiple of eta, and its neighbours.
      const uint64_t multiple = h - h % eta;
      check(multiple);
      check(multiple + 1);
      check(multiple - 1);
    }
  }
}

TEST(WmdPositionTest, InRangeAndDeterministic) {
  WatermarkKey key;
  for (int i = 0; i < 200; ++i) {
    const std::string ident = "id" + std::to_string(i);
    const size_t p = WmdPosition(key, HashAlgorithm::kSha1, ident, "age", 97);
    EXPECT_LT(p, 97u);
    EXPECT_EQ(p, WmdPosition(key, HashAlgorithm::kSha1, ident, "age", 97));
  }
}

TEST(WmdPositionTest, ColumnSeparation) {
  WatermarkKey key;
  int differing = 0;
  for (int i = 0; i < 500; ++i) {
    const std::string ident = "id" + std::to_string(i);
    if (WmdPosition(key, HashAlgorithm::kSha1, ident, "age", 1000) !=
        WmdPosition(key, HashAlgorithm::kSha1, ident, "zip", 1000)) {
      ++differing;
    }
  }
  EXPECT_GT(differing, 450);
}

TEST(WmdPositionTest, PositionsCoverTheRange) {
  WatermarkKey key;
  std::set<size_t> seen;
  for (int i = 0; i < 2000; ++i) {
    seen.insert(WmdPosition(key, HashAlgorithm::kSha1,
                            "id" + std::to_string(i), "c", 20));
  }
  EXPECT_EQ(seen.size(), 20u);
}

TEST(PermutationIndexTest, InRangeDeterministicDepthSeparated) {
  WatermarkKey key;
  const size_t a =
      PermutationIndex(key, HashAlgorithm::kSha1, "id1", "age", 2, 7);
  EXPECT_LT(a, 7u);
  EXPECT_EQ(a, PermutationIndex(key, HashAlgorithm::kSha1, "id1", "age", 2, 7));
  // Depth changes the draw (used to decorrelate levels).
  int differing = 0;
  for (int i = 0; i < 300; ++i) {
    const std::string ident = "id" + std::to_string(i);
    if (PermutationIndex(key, HashAlgorithm::kSha1, ident, "age", 1, 64) !=
        PermutationIndex(key, HashAlgorithm::kSha1, ident, "age", 2, 64)) {
      ++differing;
    }
  }
  EXPECT_GT(differing, 280);
}

TEST(PermutationIndexTest, K2Separation) {
  WatermarkKey a;
  a.k2 = "one";
  WatermarkKey b;
  b.k2 = "two";
  int differing = 0;
  for (int i = 0; i < 300; ++i) {
    const std::string ident = "id" + std::to_string(i);
    if (PermutationIndex(a, HashAlgorithm::kSha1, ident, "c", 0, 64) !=
        PermutationIndex(b, HashAlgorithm::kSha1, ident, "c", 0, 64)) {
      ++differing;
    }
  }
  EXPECT_GT(differing, 280);
}

TEST(KeySeparationTest, SelectionIndependentOfK2) {
  // Changing k2 must not affect Eq. (5) selection (k1's job).
  WatermarkKey a;
  a.k2 = "x";
  a.eta = 7;
  WatermarkKey b = a;
  b.k2 = "y";
  for (int i = 0; i < 200; ++i) {
    const std::string ident = "id" + std::to_string(i);
    EXPECT_EQ(IsTupleSelected(a, HashAlgorithm::kSha1, ident),
              IsTupleSelected(b, HashAlgorithm::kSha1, ident));
  }
}

}  // namespace
}  // namespace privmark

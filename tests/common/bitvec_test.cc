#include "common/bitvec.h"

#include <gtest/gtest.h>

namespace privmark {
namespace {

TEST(BitVectorTest, DefaultEmpty) {
  BitVector v;
  EXPECT_TRUE(v.empty());
  EXPECT_EQ(v.size(), 0u);
  EXPECT_EQ(v.ToString(), "");
}

TEST(BitVectorTest, ConstructAllZeros) {
  BitVector v(70);
  EXPECT_EQ(v.size(), 70u);
  for (size_t i = 0; i < 70; ++i) EXPECT_FALSE(v.Get(i));
}

TEST(BitVectorTest, ConstructAllOnes) {
  BitVector v(70, true);
  for (size_t i = 0; i < 70; ++i) EXPECT_TRUE(v.Get(i));
  // Padding bits must not break equality with a manually filled vector.
  BitVector w(70);
  for (size_t i = 0; i < 70; ++i) w.Set(i, true);
  EXPECT_EQ(v, w);
}

TEST(BitVectorTest, SetAndGet) {
  BitVector v(10);
  v.Set(3, true);
  v.Set(9, true);
  EXPECT_TRUE(v.Get(3));
  EXPECT_TRUE(v.Get(9));
  EXPECT_FALSE(v.Get(4));
  v.Set(3, false);
  EXPECT_FALSE(v.Get(3));
}

TEST(BitVectorTest, FromStringRoundTrip) {
  auto v = BitVector::FromString("0110010111");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->ToString(), "0110010111");
}

TEST(BitVectorTest, FromStringRejectsJunk) {
  EXPECT_FALSE(BitVector::FromString("01x0").ok());
}

TEST(BitVectorTest, FromDigestTakesMsbFirst) {
  // 0xA5 = 10100101.
  auto v = BitVector::FromDigest({0xA5}, 8);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->ToString(), "10100101");
}

TEST(BitVectorTest, FromDigestPrefix) {
  auto v = BitVector::FromDigest({0xFF, 0x00}, 10);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->ToString(), "1111111100");
}

TEST(BitVectorTest, FromDigestRejectsOverlongRequest) {
  EXPECT_FALSE(BitVector::FromDigest({0xFF}, 9).ok());
}

TEST(BitVectorTest, DuplicateConcatenatesCopies) {
  auto v = BitVector::FromString("101").ValueOrDie();
  const BitVector d = v.Duplicate(3);
  EXPECT_EQ(d.ToString(), "101101101");
}

TEST(BitVectorTest, DuplicateZeroCopiesIsEmpty) {
  auto v = BitVector::FromString("101").ValueOrDie();
  EXPECT_TRUE(v.Duplicate(0).empty());
}

TEST(BitVectorTest, HammingDistance) {
  auto a = BitVector::FromString("10101").ValueOrDie();
  auto b = BitVector::FromString("10010").ValueOrDie();
  ASSERT_TRUE(a.HammingDistance(b).ok());
  EXPECT_EQ(*a.HammingDistance(b), 3u);
  EXPECT_EQ(*a.HammingDistance(a), 0u);
}

TEST(BitVectorTest, HammingDistanceSizeMismatch) {
  auto a = BitVector::FromString("101").ValueOrDie();
  auto b = BitVector::FromString("10").ValueOrDie();
  EXPECT_FALSE(a.HammingDistance(b).ok());
}

TEST(BitVectorTest, LossFraction) {
  auto a = BitVector::FromString("1111").ValueOrDie();
  auto b = BitVector::FromString("1001").ValueOrDie();
  EXPECT_DOUBLE_EQ(*a.LossFraction(b), 0.5);
  EXPECT_DOUBLE_EQ(*a.LossFraction(a), 0.0);
}

TEST(BitVectorTest, EqualityIsValueBased) {
  auto a = BitVector::FromString("0011").ValueOrDie();
  auto b = BitVector::FromString("0011").ValueOrDie();
  auto c = BitVector::FromString("0010").ValueOrDie();
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a == c);
}

}  // namespace
}  // namespace privmark

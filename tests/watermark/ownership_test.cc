#include "watermark/ownership.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "common/random.h"

#include "core/framework.h"
#include "datagen/medical_data.h"

namespace privmark {
namespace {

TEST(IdentifierStatisticTest, MeanOfDigits) {
  auto v = IdentifierStatistic({"100", "200", "300"});
  ASSERT_TRUE(v.ok());
  EXPECT_DOUBLE_EQ(*v, 200.0);
}

TEST(IdentifierStatisticTest, StripsNonDigits) {
  auto v = IdentifierStatistic({"ssn-100", "id:300"});
  ASSERT_TRUE(v.ok());
  EXPECT_DOUBLE_EQ(*v, 200.0);
}

TEST(IdentifierStatisticTest, RejectsDigitFreeIdentifier) {
  EXPECT_FALSE(IdentifierStatistic({"abc"}).ok());
  EXPECT_FALSE(IdentifierStatistic({}).ok());
}

// v as it was computed before the digits were read as an integer: collect
// the digit string, keep 15 digits, std::stod. The integer reading must
// give the same double bit for bit.
double StodStatistic(const std::vector<std::string>& idents) {
  double sum = 0.0;
  for (const std::string& ident : idents) {
    std::string digits;
    for (char ch : ident) {
      if (ch >= '0' && ch <= '9') digits += ch;
    }
    if (digits.size() > 15) digits.resize(15);
    sum += std::stod(digits);
  }
  return sum / static_cast<double>(idents.size());
}

TEST(IdentifierStatisticTest, LeadingZerosAreDropped) {
  auto v = IdentifierStatistic({"007", "0003", "000"});
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 10.0 / 3.0);
}

TEST(IdentifierStatisticTest, ReadsTheFirstFifteenDigits) {
  auto v = IdentifierStatistic({"1234567890123456789"});
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 123456789012345.0);
  // Separators don't count towards the fifteen.
  auto split =
      IdentifierStatistic({"123-456-789-012-345-678", "999999999999999"});
  ASSERT_TRUE(split.ok());
  EXPECT_EQ(*split, (123456789012345.0 + 999999999999999.0) / 2.0);
}

TEST(IdentifierStatisticTest, MixedLettersAndDigits) {
  auto v = IdentifierStatistic({"a1b2c3", "x9y", "MRN-0042z"});
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, (123.0 + 9.0 + 42.0) / 3.0);
}

TEST(IdentifierStatisticTest, DigitFreeIdentifierNamesItself) {
  auto v = IdentifierStatistic({"123", "no-digits-here", "456"});
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(v.status().message().find("'no-digits-here' contains no digits"),
            std::string::npos)
      << v.status().ToString();
}

TEST(IdentifierStatisticTest, BitIdenticalToStodReading) {
  Random rng(20050405);
  std::vector<std::string> idents;
  for (int i = 0; i < 5000; ++i) {
    std::string ident;
    const size_t length = 1 + rng.Uniform(30);
    for (size_t j = 0; j < length; ++j) {
      ident += rng.Uniform(4) == 0 ? static_cast<char>('a' + rng.Uniform(26))
                                   : static_cast<char>('0' + rng.Uniform(10));
    }
    ident += static_cast<char>('0' + rng.Uniform(10));
    idents.push_back(ident);
  }
  auto v = IdentifierStatistic(idents);
  ASSERT_TRUE(v.ok());
  const double reference = StodStatistic(idents);
  EXPECT_EQ(std::memcmp(&*v, &reference, sizeof(double)), 0)
      << *v << " vs " << reference;
}

TEST(StatisticFromTableTest, MatchesRenderedColumnForStringAndInt64) {
  for (ValueType type : {ValueType::kString, ValueType::kInt64}) {
    Schema schema;
    ASSERT_TRUE(schema.AddColumn({"age", ColumnRole::kOther,
                                  ValueType::kInt64}).ok());
    ASSERT_TRUE(schema.AddColumn({"id", ColumnRole::kIdentifying, type}).ok());
    Table t(schema);
    std::vector<std::string> rendered;
    Random rng(7);
    for (int i = 0; i < 200; ++i) {
      const int64_t number = static_cast<int64_t>(rng.Uniform(1000000000)) -
                             (i % 5 == 0 ? 500000000 : 0);
      const Value ident = type == ValueType::kString
                              ? Value::String("ssn:" + std::to_string(number))
                              : Value::Int64(number);
      rendered.push_back(ident.ToString());
      ASSERT_TRUE(t.AppendRow({Value::Int64(i), ident}).ok());
    }
    auto from_table = StatisticFromTable(t, 1);
    auto from_strings = IdentifierStatistic(rendered);
    ASSERT_TRUE(from_table.ok());
    ASSERT_TRUE(from_strings.ok());
    EXPECT_EQ(*from_table, *from_strings) << ValueTypeToString(type);
  }
}

TEST(StatisticFromTableTest, RejectsEmptyAndDigitFreeColumns) {
  Schema schema;
  ASSERT_TRUE(schema.AddColumn({"id", ColumnRole::kIdentifying,
                                ValueType::kString}).ok());
  Table t(schema);
  EXPECT_EQ(StatisticFromTable(t, 0).status().code(),
            StatusCode::kInvalidArgument);
  ASSERT_TRUE(t.AppendRow({Value::String("42")}).ok());
  ASSERT_TRUE(t.AppendRow({Value::String("anon")}).ok());
  auto v = StatisticFromTable(t, 0);
  ASSERT_FALSE(v.ok());
  EXPECT_NE(v.status().message().find("'anon' contains no digits"),
            std::string::npos)
      << v.status().ToString();
}

TEST(DeriveOwnershipMarkTest, DeterministicAndLengthCorrect) {
  auto a = DeriveOwnershipMark(123.456, 20, HashAlgorithm::kSha1);
  auto b = DeriveOwnershipMark(123.456, 20, HashAlgorithm::kSha1);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(*a, *b);
  EXPECT_EQ(a->size(), 20u);
}

TEST(DeriveOwnershipMarkTest, SensitiveToStatistic) {
  auto a = DeriveOwnershipMark(123.456, 20, HashAlgorithm::kSha1);
  auto b = DeriveOwnershipMark(123.457, 20, HashAlgorithm::kSha1);
  EXPECT_FALSE(*a == *b);
}

TEST(DeriveOwnershipMarkTest, Validation) {
  EXPECT_FALSE(DeriveOwnershipMark(1.0, 0, HashAlgorithm::kSha1).ok());
  EXPECT_FALSE(DeriveOwnershipMark(1.0, 500, HashAlgorithm::kSha1).ok());
  // A mark may use every bit of one 160-bit SHA-1 digest, and no more.
  EXPECT_TRUE(DeriveOwnershipMark(1.0, 160, HashAlgorithm::kSha1).ok());
  EXPECT_FALSE(DeriveOwnershipMark(1.0, 161, HashAlgorithm::kSha1).ok());
}

// End-to-end dispute fixture: protect a data set, then resolve claims.
class OwnershipDisputeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    MedicalDataSpec spec;
    spec.num_rows = 2000;
    spec.seed = 99;
    dataset_ = std::make_unique<MedicalDataset>(
        std::move(GenerateMedicalDataset(spec)).ValueOrDie());
    config_.binning.k = 10;
    config_.binning.enforce_joint = false;
    config_.binning.encryption_passphrase = "owner-passphrase";
    config_.key.k1 = "owner-k1";
    config_.key.k2 = "owner-k2";
    config_.key.eta = 10;
    auto metrics =
        MetricsFromDepthCuts(dataset_->trees(), {2, 1, 2, 1, 1}).ValueOrDie();
    framework_ =
        std::make_unique<ProtectionFramework>(std::move(metrics), config_);
    outcome_ = std::make_unique<ProtectionOutcome>(
        std::move(framework_->Protect(dataset_->table)).ValueOrDie());
  }

  std::unique_ptr<MedicalDataset> dataset_;
  FrameworkConfig config_;
  std::unique_ptr<ProtectionFramework> framework_;
  std::unique_ptr<ProtectionOutcome> outcome_;
};

TEST_F(OwnershipDisputeTest, LegitimateOwnerEstablishesOwnership) {
  const Aes128 cipher = Aes128::FromPassphrase("owner-passphrase");
  HierarchicalWatermarker wm = framework_->MakeWatermarker(outcome_->binning);
  OwnershipConfig oc;
  auto verdict =
      ResolveDispute(outcome_->watermarked, wm, cipher,
                     outcome_->identifier_statistic, outcome_->embed.wmd_size,
                     oc);
  ASSERT_TRUE(verdict.ok());
  EXPECT_TRUE(verdict->statistic_consistent);
  EXPECT_GE(verdict->mark_match, 0.99);
  EXPECT_LT(verdict->p_value, 1e-5);
  EXPECT_TRUE(verdict->ownership_established);
}

TEST_F(OwnershipDisputeTest, WrongStatisticClaimFails) {
  const Aes128 cipher = Aes128::FromPassphrase("owner-passphrase");
  HierarchicalWatermarker wm = framework_->MakeWatermarker(outcome_->binning);
  OwnershipConfig oc;
  auto verdict = ResolveDispute(outcome_->watermarked, wm, cipher,
                                outcome_->identifier_statistic * 2.0,
                                outcome_->embed.wmd_size, oc);
  ASSERT_TRUE(verdict.ok());
  EXPECT_FALSE(verdict->statistic_consistent);
  EXPECT_FALSE(verdict->ownership_established);
}

TEST_F(OwnershipDisputeTest, AttackerWithoutDecryptionKeyFails) {
  // Attack scenario: a thief claims the table with his own key material.
  const Aes128 thief_cipher = Aes128::FromPassphrase("thief-passphrase");
  WatermarkKey thief_key;
  thief_key.k1 = "thief-k1";
  thief_key.k2 = "thief-k2";
  thief_key.eta = 10;
  HierarchicalWatermarker thief_wm(
      outcome_->binning.qi_columns,
      *outcome_->binning.binned.schema().IdentifyingColumn(),
      framework_->metrics().maximal, outcome_->binning.ultimate, thief_key,
      WatermarkOptions{});
  OwnershipConfig oc;
  auto verdict = ResolveDispute(outcome_->watermarked, thief_wm, thief_cipher,
                                outcome_->identifier_statistic,
                                outcome_->embed.wmd_size, oc);
  ASSERT_TRUE(verdict.ok());
  // The thief cannot decrypt the identifiers, so the statistic check fails.
  EXPECT_FALSE(verdict->statistic_consistent);
  EXPECT_FALSE(verdict->ownership_established);
}

TEST_F(OwnershipDisputeTest, Attack1BogusMarkDoesNotDisplaceOwner) {
  // Rightful-ownership Attack 1: the attacker inserts his own mark into the
  // owner's published table. Both marks are then detectable, but only the
  // owner passes the statistic + F(v) binding.
  Table pirated = outcome_->watermarked.Clone();
  WatermarkKey attacker_key;
  attacker_key.k1 = "attacker-k1";
  attacker_key.k2 = "attacker-k2";
  attacker_key.eta = 10;
  HierarchicalWatermarker attacker_wm(
      outcome_->binning.qi_columns,
      *outcome_->binning.binned.schema().IdentifyingColumn(),
      framework_->metrics().maximal, outcome_->binning.ultimate, attacker_key,
      WatermarkOptions{});
  const BitVector attacker_mark =
      BitVector::FromString("01010101010101010101").ValueOrDie();
  auto attacker_embed = attacker_wm.Embed(&pirated, attacker_mark);
  ASSERT_TRUE(attacker_embed.ok());

  // The attacker's mark is present...
  auto attacker_detect = attacker_wm.Detect(pirated, attacker_mark.size(),
                                            attacker_embed->wmd_size);
  ASSERT_TRUE(attacker_detect.ok());
  EXPECT_LT(*MarkLossAgainst(attacker_mark, attacker_detect->recovered), 0.2);

  // ...but the owner still establishes ownership on the pirated table,
  const Aes128 owner_cipher = Aes128::FromPassphrase("owner-passphrase");
  HierarchicalWatermarker owner_wm =
      framework_->MakeWatermarker(outcome_->binning);
  OwnershipConfig oc;
  auto owner_verdict =
      ResolveDispute(pirated, owner_wm, owner_cipher,
                     outcome_->identifier_statistic, outcome_->embed.wmd_size,
                     oc);
  ASSERT_TRUE(owner_verdict.ok());
  EXPECT_TRUE(owner_verdict->ownership_established);

  // ...while the attacker cannot bind his mark to the encrypted
  // identifiers (he cannot decrypt them to produce a consistent v).
  auto attacker_verdict = ResolveDispute(
      pirated, attacker_wm, Aes128::FromPassphrase("attacker-passphrase"),
      4567.0, attacker_embed->wmd_size, oc);
  ASSERT_TRUE(attacker_verdict.ok());
  EXPECT_FALSE(attacker_verdict->ownership_established);
}

TEST_F(OwnershipDisputeTest, StatisticSurvivesDeletionWithinTolerance) {
  // The paper's rationale for a *statistical* binding: the disputed table
  // may have lost tuples; tau absorbs the drift.
  Table attacked = outcome_->watermarked.Clone();
  attacked.RemoveRows({0, 1, 2, 3, 4, 5, 6, 7, 8, 9});
  const Aes128 cipher = Aes128::FromPassphrase("owner-passphrase");
  auto v = StatisticFromEncrypted(
      attacked, *attacked.schema().IdentifyingColumn(), cipher);
  ASSERT_TRUE(v.ok());
  // Mean of 9-digit SSNs drifts by much less than 1% of its magnitude.
  EXPECT_NEAR(*v, outcome_->identifier_statistic,
              0.01 * outcome_->identifier_statistic);
}

TEST(StatisticFromEncryptedTest, FailsWhenMostRowsUndecryptable) {
  Schema schema;
  ASSERT_TRUE(schema.AddColumn({"id", ColumnRole::kIdentifying,
                                ValueType::kString}).ok());
  Table t(schema);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(t.AppendRow({Value::String("nothexatall-" +
                                           std::to_string(i))}).ok());
  }
  const Aes128 cipher = Aes128::FromPassphrase("any");
  EXPECT_EQ(StatisticFromEncrypted(t, 0, cipher).status().code(),
            StatusCode::kVerificationFailed);
}

}  // namespace
}  // namespace privmark

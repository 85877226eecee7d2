// Cross-commit golden digests for both watermarking schemes.
//
// Every other watermark suite compares two runs of the same binary
// (parallel vs serial, streamed vs one-shot). This one pins the output
// itself: a SHA-1 over the embedded table's CSV bytes, the EmbedReport
// counters, the hierarchical CellMove list, EstimateBandwidth and the
// fused Detect report (recovered bits, bit-exact vote margins, counters),
// for both schemes on a fixed-seed 2k-row binned table. A refactor of the
// embed/detect loops must reproduce these digests unchanged.

#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "binning/binning_engine.h"
#include "common/strings.h"
#include "crypto/sha1.h"
#include "datagen/medical_data.h"
#include "metrics/usage_metrics.h"
#include "relation/csv.h"
#include "watermark/hierarchical.h"
#include "watermark/single_level.h"

namespace privmark {
namespace {

struct Fixture {
  std::unique_ptr<MedicalDataset> dataset;
  UsageMetrics metrics;
  BinningOutcome binning;
  BitVector mark;
};

const Fixture& SharedFixture() {
  static const Fixture* fixture = [] {
    auto* f = new Fixture;
    MedicalDataSpec spec;
    spec.num_rows = 2000;
    spec.seed = 20050405;
    f->dataset = std::make_unique<MedicalDataset>(
        std::move(GenerateMedicalDataset(spec)).ValueOrDie());
    f->metrics = MetricsFromDepthCuts(f->dataset->trees(), {2, 1, 2, 1, 1})
                     .ValueOrDie();
    BinningConfig config;
    config.k = 10;
    config.enforce_joint = false;
    config.encryption_passphrase = "golden-owner-passphrase";
    BinningAgent agent(f->metrics, config);
    f->binning = std::move(agent.Run(f->dataset->table)).ValueOrDie();
    f->mark = BitVector::FromString("1011001001101011").ValueOrDie();
    return f;
  }();
  return *fixture;
}

WatermarkKey GoldenKey(uint64_t eta) {
  WatermarkKey key;
  key.k1 = "golden-k1";
  key.k2 = "golden-k2";
  key.eta = eta;
  return key;
}

// Accumulates the digested fields as text, one per line.
class Digest {
 public:
  void Add(const std::string& name, const std::string& value) {
    text_ += name + "=" + value + "\n";
  }
  void Add(const std::string& name, size_t value) {
    Add(name, std::to_string(value));
  }
  std::string Hex() const { return HexEncode(Sha1::Hash(text_)); }

 private:
  std::string text_;
};

// Hex-float rendering: bit-exact, unlike any decimal precision.
std::string ExactDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

void AddEmbedReport(const EmbedReport& report, Digest* digest) {
  digest->Add("embed.tuples_selected", report.tuples_selected);
  digest->Add("embed.slots_embedded", report.slots_embedded);
  digest->Add("embed.slots_skipped_no_gap", report.slots_skipped_no_gap);
  digest->Add("embed.copies", report.copies);
  digest->Add("embed.wmd_size", report.wmd_size);
  digest->Add("embed.cells_changed", report.cells_changed);
}

void AddDetectReport(const std::string& prefix, const DetectReport& report,
                     Digest* digest) {
  digest->Add(prefix + ".recovered", report.recovered.ToString());
  digest->Add(prefix + ".tuples_selected", report.tuples_selected);
  digest->Add(prefix + ".slots_read", report.slots_read);
  digest->Add(prefix + ".slots_skipped", report.slots_skipped);
  std::string margins;
  for (double m : report.vote_margin) margins += ExactDouble(m) + ",";
  digest->Add(prefix + ".vote_margin", margins);
  std::string voted;
  for (bool b : report.bit_voted) voted += b ? '1' : '0';
  digest->Add(prefix + ".bit_voted", voted);
}

// Rewrites every 7th row's quasi-identifying cells to labels no hierarchy
// knows, so detection must skip them as altered beyond the domain.
Table AlterOutsideDomain(const Table& table,
                         const std::vector<size_t>& qi_columns) {
  Table altered = table.Clone();
  for (size_t r = 0; r < altered.num_rows(); r += 7) {
    for (size_t col : qi_columns) {
      altered.Set(r, col, Value::String("outside-domain-" + std::to_string(r)));
    }
  }
  return altered;
}

enum class Scheme { kHierarchical, kSingleLevel };

std::string RunScheme(Scheme scheme, size_t copies, uint64_t eta,
                      size_t workers) {
  const Fixture& f = SharedFixture();
  WatermarkOptions options;
  options.num_threads = workers;
  const size_t ident = *f.binning.binned.schema().IdentifyingColumn();
  Digest digest;
  Table marked = f.binning.binned.Clone();
  EmbedReport embed;
  size_t bandwidth = 0;
  DetectReport detect;
  DetectReport detect_altered;
  if (scheme == Scheme::kHierarchical) {
    const HierarchicalWatermarker wm(f.binning.qi_columns, ident,
                                     f.metrics.maximal, f.binning.ultimate,
                                     GoldenKey(eta), options);
    bandwidth = wm.EstimateBandwidth(f.binning.binned).ValueOrDie();
    std::vector<CellMove> moves;
    embed = wm.Embed(&marked, f.mark, copies, &moves).ValueOrDie();
    std::string rendered;
    for (const CellMove& m : moves) {
      rendered += std::to_string(m.row) + ":" + std::to_string(m.col_idx) +
                  ":" + std::to_string(m.from) + ">" + std::to_string(m.to) +
                  ";";
    }
    digest.Add("moves", rendered);
    detect = wm.Detect(marked, f.mark.size(), embed.wmd_size).ValueOrDie();
    detect_altered =
        wm.Detect(AlterOutsideDomain(marked, f.binning.qi_columns),
                  f.mark.size(), embed.wmd_size)
            .ValueOrDie();
  } else {
    const SingleLevelWatermarker wm(f.binning.qi_columns, ident,
                                    f.binning.ultimate, GoldenKey(eta),
                                    options);
    bandwidth = wm.EstimateBandwidth(f.binning.binned).ValueOrDie();
    embed = wm.Embed(&marked, f.mark, copies).ValueOrDie();
    detect = wm.Detect(marked, f.mark.size(), embed.wmd_size).ValueOrDie();
    detect_altered =
        wm.Detect(AlterOutsideDomain(marked, f.binning.qi_columns),
                  f.mark.size(), embed.wmd_size)
            .ValueOrDie();
  }
  digest.Add("table", TableToCsv(marked));
  digest.Add("bandwidth", bandwidth);
  AddEmbedReport(embed, &digest);
  AddDetectReport("detect", detect, &digest);
  AddDetectReport("detect_altered", detect_altered, &digest);
  return digest.Hex();
}

using Case = std::tuple<Scheme, size_t /*copies*/, uint64_t /*eta*/,
                        size_t /*workers*/>;

// Digests recorded from the pre-refactor embedders. Worker count is not a
// key: 1 and 4 workers must produce the same bytes.
const std::map<std::tuple<Scheme, size_t, uint64_t>, std::string>&
Expected() {
  static const auto* expected =
      new std::map<std::tuple<Scheme, size_t, uint64_t>, std::string>{
          {{Scheme::kHierarchical, 0, 5},
           "45e73bf0c2205f56b9a84a50af89be9ed215e0f1"},
          {{Scheme::kHierarchical, 0, 50},
           "36b7772afe7cb9b543bde3d20999ff0dabe279bd"},
          {{Scheme::kHierarchical, 3, 5},
           "cb5b6fe1d7464bcc38fd1ca3e17e7c5db1cf7cdf"},
          {{Scheme::kHierarchical, 3, 50},
           "6a152b197e1e665beb66b38b7106091d02b0491d"},
          {{Scheme::kSingleLevel, 0, 5},
           "362d8a656ac6a612b9a2d52e3ea26cad1381945f"},
          {{Scheme::kSingleLevel, 0, 50},
           "1d2c8825114c454659ee8c9e9973f9d593999dc0"},
          {{Scheme::kSingleLevel, 3, 5},
           "c560134a2bf60f42d1d00c0c8f268da2edd9737e"},
          {{Scheme::kSingleLevel, 3, 50},
           "e2077b208e761e131488d8bb3ce38d79b0c1be10"},
      };
  return *expected;
}

class SchemeGoldenTest : public ::testing::TestWithParam<Case> {};

TEST_P(SchemeGoldenTest, DigestMatchesPinnedValue) {
  const auto [scheme, copies, eta, workers] = GetParam();
  const std::string actual = RunScheme(scheme, copies, eta, workers);
  EXPECT_EQ(actual, Expected().at({scheme, copies, eta}));
}

std::string CaseName(const ::testing::TestParamInfo<Case>& info) {
  const auto& [scheme, copies, eta, workers] = info.param;
  return std::string(scheme == Scheme::kHierarchical ? "Hierarchical"
                                                     : "SingleLevel") +
         "_Copies" + std::to_string(copies) + "_Eta" + std::to_string(eta) +
         "_Workers" + std::to_string(workers);
}

INSTANTIATE_TEST_SUITE_P(
    BothSchemes, SchemeGoldenTest,
    ::testing::Combine(::testing::Values(Scheme::kHierarchical,
                                         Scheme::kSingleLevel),
                       ::testing::Values(size_t{0}, size_t{3}),
                       ::testing::Values(uint64_t{5}, uint64_t{50}),
                       ::testing::Values(size_t{1}, size_t{4})),
    CaseName);

}  // namespace
}  // namespace privmark

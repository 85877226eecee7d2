#include "core/framework.h"

#include <cmath>
#include <map>
#include <string_view>

#include "core/session.h"

namespace privmark {

ProtectionFramework::ProtectionFramework(UsageMetrics metrics,
                                         FrameworkConfig config)
    : metrics_(std::move(metrics)), config_(std::move(config)) {}

HierarchicalWatermarker ProtectionFramework::MakeWatermarker(
    const BinningOutcome& binning) const {
  // The identifying column index comes from the binned table's schema; the
  // binning agent guarantees exactly one.
  const size_t ident_column =
      binning.binned.schema().IdentifyingColumn().ValueOrDie();
  return HierarchicalWatermarker(binning.qi_columns, ident_column,
                                 metrics_.maximal, binning.ultimate,
                                 config_.key, config_.watermark);
}

Result<ProtectionOutcome> ProtectionFramework::Protect(
    const Table& original) const {
  // The one-shot protect is the degenerate streaming case: a session fed
  // the whole table as a single batch and flushed once. The session's
  // first flush runs exactly the Sec. 3 pipeline (mark derivation,
  // binning with the optional Sec. 6 epsilon re-selection, watermark
  // embed, Fig. 14 seamlessness), so the outcome is bit-identical to the
  // historical all-at-once implementation — the streaming-equivalence
  // property suite pins this down.
  ProtectionSession session(metrics_, config_, SessionConfig());
  PRIVMARK_ASSIGN_OR_RETURN(IngestResult ingested, session.Ingest(original));
  (void)ingested;
  PRIVMARK_ASSIGN_OR_RETURN(EpochOutput epoch, session.Flush());
  return std::move(epoch.outcome);
}

Result<std::vector<AttributeSeamlessness>> MeasureSeamlessness(
    const Table& binned, const Table& watermarked,
    const std::vector<size_t>& qi_columns, size_t k) {
  if (binned.num_rows() != watermarked.num_rows()) {
    return Status::InvalidArgument(
        "MeasureSeamlessness: tables have different row counts");
  }
  std::vector<AttributeSeamlessness> rows;
  rows.reserve(qi_columns.size());
  for (size_t col : qi_columns) {
    AttributeSeamlessness row;
    row.attribute = binned.schema().column(col).name;

    // Count label frequencies. Binned cells are label strings, so counting
    // by reference (transparent comparator) avoids one copy per cell.
    auto count_labels = [col](const Table& table) {
      std::map<std::string, size_t, std::less<>> counts;
      for (size_t r = 0; r < table.num_rows(); ++r) {
        const Value& cell = table.at(r, col);
        if (cell.type() == ValueType::kString) {
          const std::string_view label = cell.AsString();
          auto it = counts.find(label);
          if (it == counts.end()) {
            counts.emplace(std::string(label), 1);
          } else {
            ++it->second;
          }
        } else {
          ++counts[cell.ToString()];
        }
      }
      return counts;
    };
    const auto before = count_labels(binned);
    const auto after = count_labels(watermarked);

    row.total_bins = before.size();
    // Changed = union of labels whose before/after sizes differ.
    std::map<std::string, std::pair<size_t, size_t>, std::less<>> merged;
    for (const auto& [label, n] : before) merged[label].first = n;
    for (const auto& [label, n] : after) merged[label].second = n;
    for (const auto& [label, sizes] : merged) {
      if (sizes.first != sizes.second) ++row.bins_size_changed;
    }
    for (const auto& [label, n] : after) {
      if (n < k) ++row.bins_below_k;
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

size_t ConservativeEpsilon(size_t largest_bin, size_t rows, size_t wmd_size) {
  if (rows == 0) return 0;
  const double s = static_cast<double>(largest_bin);
  const double total = static_cast<double>(rows);
  return static_cast<size_t>(
      std::ceil(s / total * static_cast<double>(wmd_size)));
}

}  // namespace privmark

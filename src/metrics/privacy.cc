#include "metrics/privacy.h"

#include <algorithm>

namespace privmark {

Result<PrivacyReport> EvaluatePrivacy(const Table& table,
                                      const std::vector<size_t>& qi_columns) {
  if (qi_columns.empty()) {
    return Status::InvalidArgument(
        "EvaluatePrivacy: empty quasi-identifier set");
  }
  for (size_t col : qi_columns) {
    if (col >= table.num_columns()) {
      return Status::OutOfRange("EvaluatePrivacy: column index " +
                                std::to_string(col) + " out of range");
    }
  }
  PrivacyReport report;
  if (table.num_rows() == 0) return report;

  const std::vector<Bin> bins = table.GroupBy(qi_columns);
  report.num_bins = bins.size();
  report.k_anonymity_level = table.num_rows();
  double risk_sum = 0.0;
  for (const Bin& bin : bins) {
    report.k_anonymity_level = std::min(report.k_anonymity_level, bin.size());
    // Every record in the bin carries risk 1/|bin|.
    risk_sum += 1.0;  // |bin| * (1 / |bin|)
    if (bin.size() == 1) ++report.unique_records;
  }
  report.average_risk = risk_sum / static_cast<double>(table.num_rows());
  report.max_risk = 1.0 / static_cast<double>(report.k_anonymity_level);
  return report;
}

}  // namespace privmark

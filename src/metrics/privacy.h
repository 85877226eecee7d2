// Privacy evaluation of (binned) tables: how anonymous is a release,
// really?
//
// The paper's guarantee is k-anonymity over the quasi-identifying columns
// (Sec. 2/Sec. 4). This module provides the measurement side a data
// holder runs before outsourcing: the achieved k, the re-identification
// risk profile under the standard prosecutor model (the adversary knows
// their target is in the table; the chance of pinning the target down is
// 1/|bin|).

#ifndef PRIVMARK_METRICS_PRIVACY_H_
#define PRIVMARK_METRICS_PRIVACY_H_

#include <cstddef>
#include <vector>

#include "common/status.h"
#include "relation/table.h"

namespace privmark {

/// \brief Privacy profile of a table w.r.t. a quasi-identifier set.
struct PrivacyReport {
  /// The achieved k: the smallest equivalence-class size (0 for an empty
  /// table). The table is k-anonymous for every k <= this value.
  size_t k_anonymity_level = 0;
  /// Number of equivalence classes (bins).
  size_t num_bins = 0;
  /// Prosecutor-model re-identification risk, averaged over *records*:
  /// mean of 1/|bin(record)|.
  double average_risk = 0.0;
  /// Worst-case record risk: 1 / k_anonymity_level (1.0 if any record is
  /// unique).
  double max_risk = 0.0;
  /// Records whose risk exceeds 1/2 (bins of size 1: unique records).
  size_t unique_records = 0;
};

/// \brief Measures the privacy profile over the given columns.
Result<PrivacyReport> EvaluatePrivacy(const Table& table,
                                      const std::vector<size_t>& qi_columns);

}  // namespace privmark

#endif  // PRIVMARK_METRICS_PRIVACY_H_

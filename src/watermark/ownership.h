// Rightful-ownership resolution (paper Sec. 5.4).
//
// Robustness against mark removal is not enough to establish ownership:
// an attacker can insert his own mark into the owner's watermarked table
// (Attack 1) or "extract" a bogus mark to fabricate a fake original
// (Attack 2). The multimedia literature's answer — and the paper's — is to
// bind the mark to the original data through a one-way function F.
//
// The binned table's identifying column is *encrypted*, so only the owner
// can produce the cleartext identifiers. The paper therefore sets
//   wm = F(v),  v = a statistical value (e.g. the mean) of the cleartext
//               identifying column,
// and resolves a dispute by having the owner (1) present v, (2) decrypt the
// identifiers in court and recompute v' — valid if |v - v'| < tau (the
// table may have lost or gained tuples under attack, hence a statistic with
// tolerance rather than exact cleartext), and (3) extract the mark and
// compare with F(v).

#ifndef PRIVMARK_WATERMARK_OWNERSHIP_H_
#define PRIVMARK_WATERMARK_OWNERSHIP_H_

#include <string>
#include <vector>

#include "common/bitvec.h"
#include "common/status.h"
#include "crypto/aes128.h"
#include "relation/table.h"
#include "watermark/hierarchical.h"

namespace privmark {

/// \brief Minimum fraction of matching mark bits for an extraction to
/// count as a detection of that key's mark. The single definition shared
/// by the dispute protocol (OwnershipConfig), fingerprint scans
/// (FingerprintConfig), and the CLI verdict lines, so the consumers can
/// never drift apart.
inline constexpr double kDetectionMatchThreshold = 0.8;

/// \brief Parameters of the dispute protocol.
struct OwnershipConfig {
  HashAlgorithm hash = HashAlgorithm::kSha1;
  /// Mark length in bits (the paper's experiments use a 20-bit mark).
  size_t mark_bits = 20;
  /// Relative tolerance tau: the claim is consistent iff
  /// |v - v'| < tau * max(1, |v|). The paper's tau is a "predefined
  /// threshold" absorbing attack-induced drift of the statistic; a relative
  /// form keeps one default meaningful across identifier magnitudes.
  /// Random-sample deletion of 30% of ~9-digit identifiers drifts the mean
  /// by well under 1%, so 0.02 accepts heavily attacked tables while
  /// rejecting fabricated statistics.
  double tau = 0.02;
  /// Minimum fraction of matching mark bits for the extraction to count.
  double match_threshold = kDetectionMatchThreshold;
};

/// \brief v: the mean of the numeric interpretation of cleartext
/// identifiers (digits extracted from each identifier, e.g. SSNs; the first
/// 15 digits are read, so each term is exact in a double).
/// InvalidArgument if an identifier contains no digits.
Result<double> IdentifierStatistic(const std::vector<std::string>& idents);

/// \brief Convenience: statistic of a table's cleartext identifying column.
Result<double> StatisticFromTable(const Table& table, size_t ident_column);

/// \brief Decrypts the identifying column and computes the statistic.
/// Identifiers that fail to decrypt (bogus tuples added by an attacker) are
/// skipped; fails if fewer than half decrypt.
Result<double> StatisticFromEncrypted(const Table& table, size_t ident_column,
                                      const Aes128& cipher);

/// \brief F(v): one-way derivation of the ownership mark from the
/// statistic. Canonicalizes v to 6 decimal places before hashing.
Result<BitVector> DeriveOwnershipMark(double v, size_t bits,
                                      HashAlgorithm algo);

/// \brief The court's verdict on a disputed table.
struct DisputeVerdict {
  double claimed_v = 0.0;
  double recomputed_v = 0.0;
  /// |claimed_v - recomputed_v| < tau after decrypting the identifiers.
  bool statistic_consistent = false;
  /// Fraction of F(claimed_v)'s bits matching the extracted mark.
  double mark_match = 0.0;
  /// Probability of the observed agreement arising by chance (binomial
  /// tail over the voted bits) — the number the claimant cites in court.
  double p_value = 1.0;
  bool ownership_established = false;
};

/// \brief Runs the full Sec. 5.4 protocol on a disputed table.
///
/// \param suspect the table in dispute (possibly attacked)
/// \param watermarker the claimant's watermarker (their secret key)
/// \param cipher the claimant's identifier encryption key
/// \param claimed_v the statistic the claimant presents
/// \param wmd_size the claimant's recorded wmd length (embedding metadata)
Result<DisputeVerdict> ResolveDispute(const Table& suspect,
                                      const HierarchicalWatermarker& watermarker,
                                      const Aes128& cipher, double claimed_v,
                                      size_t wmd_size,
                                      const OwnershipConfig& config);

}  // namespace privmark

#endif  // PRIVMARK_WATERMARK_OWNERSHIP_H_

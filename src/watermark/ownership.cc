#include "watermark/ownership.h"

#include <cmath>
#include <cstdint>
#include <string_view>

#include "common/strings.h"
#include "crypto/keyed_hash.h"

namespace privmark {

namespace {

// The numeric reading of one identifier: its digits in order, of which the
// first 15 are read as an integer — below 10^15 < 2^53, so the double is
// exact and equals what std::stod gives on the same digit string.
Result<double> IdentifierNumber(std::string_view ident) {
  uint64_t number = 0;
  size_t digits = 0;
  for (char ch : ident) {
    if (ch < '0' || ch > '9') continue;
    number = number * 10 + static_cast<uint64_t>(ch - '0');
    if (++digits == 15) break;
  }
  if (digits == 0) {
    return Status::InvalidArgument("identifier '" + std::string(ident) +
                                   "' contains no digits");
  }
  return static_cast<double>(number);
}

Status NoIdentifiers() {
  return Status::InvalidArgument("IdentifierStatistic: no identifiers");
}

}  // namespace

Result<double> IdentifierStatistic(const std::vector<std::string>& idents) {
  if (idents.empty()) return NoIdentifiers();
  double sum = 0.0;
  for (const std::string& ident : idents) {
    PRIVMARK_ASSIGN_OR_RETURN(double number, IdentifierNumber(ident));
    sum += number;
  }
  return sum / static_cast<double>(idents.size());
}

Result<double> StatisticFromTable(const Table& table, size_t ident_column) {
  if (table.num_rows() == 0) return NoIdentifiers();
  // Same sum order as IdentifierStatistic over the rendered column, so the
  // double is bit-identical; string cells are read in place.
  double sum = 0.0;
  for (size_t r = 0; r < table.num_rows(); ++r) {
    const Value& cell = table.at(r, ident_column);
    PRIVMARK_ASSIGN_OR_RETURN(
        double number, cell.type() == ValueType::kString
                           ? IdentifierNumber(cell.AsString())
                           : IdentifierNumber(cell.ToString()));
    sum += number;
  }
  return sum / static_cast<double>(table.num_rows());
}

Result<double> StatisticFromEncrypted(const Table& table, size_t ident_column,
                                      const Aes128& cipher) {
  std::vector<std::string> decrypted;
  decrypted.reserve(table.num_rows());
  size_t failures = 0;
  for (size_t r = 0; r < table.num_rows(); ++r) {
    auto plain = cipher.DecryptValue(table.at(r, ident_column).ToString());
    // A bogus (attacker-fabricated) ciphertext occasionally "decrypts" to
    // garbage with consistent chunk headers; identifiers carry digits, so
    // digit-free plaintexts are counted as failures too.
    const bool has_digit =
        plain.ok() && plain->find_first_of("0123456789") != std::string::npos;
    if (has_digit) {
      decrypted.push_back(std::move(plain).ValueOrDie());
    } else {
      ++failures;
    }
  }
  if (decrypted.size() < failures) {
    return Status::VerificationFailed(
        "fewer than half of the identifiers decrypt under this key (" +
        std::to_string(decrypted.size()) + " of " +
        std::to_string(table.num_rows()) + ")");
  }
  return IdentifierStatistic(decrypted);
}

Result<BitVector> DeriveOwnershipMark(double v, size_t bits,
                                      HashAlgorithm algo) {
  if (bits == 0) {
    return Status::InvalidArgument("DeriveOwnershipMark: zero-length mark");
  }
  const std::string canonical = FormatDouble(v, 6);
  const std::vector<uint8_t> digest =
      KeyedDigest(algo, "privmark-ownership", canonical);
  if (bits > digest.size() * 8) {
    return Status::InvalidArgument(
        "DeriveOwnershipMark: mark longer than one digest (" +
        std::to_string(bits) + " bits)");
  }
  return BitVector::FromDigest(digest, bits);
}

Result<DisputeVerdict> ResolveDispute(const Table& suspect,
                                      const HierarchicalWatermarker& watermarker,
                                      const Aes128& cipher, double claimed_v,
                                      size_t wmd_size,
                                      const OwnershipConfig& config) {
  DisputeVerdict verdict;
  verdict.claimed_v = claimed_v;

  // Step 1-2: decrypt the identifying column, recompute the statistic, and
  // compare against the claim with tolerance tau.
  PRIVMARK_ASSIGN_OR_RETURN(size_t ident_column,
                            suspect.schema().IdentifyingColumn());
  auto recomputed = StatisticFromEncrypted(suspect, ident_column, cipher);
  if (!recomputed.ok()) {
    // Wrong key (or a table that is not the claimant's): the claim fails,
    // but the protocol itself completed.
    verdict.statistic_consistent = false;
    verdict.ownership_established = false;
    return verdict;
  }
  verdict.recomputed_v = *recomputed;
  verdict.statistic_consistent =
      std::abs(claimed_v - verdict.recomputed_v) <
      config.tau * std::max(1.0, std::abs(claimed_v));

  // Step 3: extract the embedded mark and compare against F(claimed_v).
  PRIVMARK_ASSIGN_OR_RETURN(
      BitVector expected,
      DeriveOwnershipMark(claimed_v, config.mark_bits, config.hash));
  PRIVMARK_ASSIGN_OR_RETURN(
      DetectReport detection,
      watermarker.Detect(suspect, config.mark_bits, wmd_size));
  PRIVMARK_ASSIGN_OR_RETURN(double loss,
                            expected.LossFraction(detection.recovered));
  verdict.mark_match = 1.0 - loss;
  PRIVMARK_ASSIGN_OR_RETURN(verdict.p_value,
                            DetectionPValue(expected, detection));
  verdict.ownership_established = verdict.statistic_consistent &&
                                  verdict.mark_match >= config.match_threshold;
  return verdict;
}

}  // namespace privmark

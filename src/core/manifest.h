// Protection manifest: the non-secret metadata a data owner must keep to
// detect their watermark later or to re-derive the pipeline configuration
// in court.
//
// The watermarking key (k1, k2, eta) and the encryption passphrase are
// secrets and deliberately NOT part of the manifest; what is recorded:
//
//   - mark length, wmd length (the paper's |wm| and |wmd| = l*|wm|),
//     copies, hash algorithm, epsilon used,
//   - per quasi-identifying column: the column name and the *labels* of
//     its ultimate and maximal generalization nodes, from which the
//     GeneralizationSets (and hence the watermarker) are reconstructed
//     against the owner's domain hierarchy trees.
//
// Serialized as a line-oriented "key = value" text format (sections per
// column) so manifests diff well and need no third-party parser.

#ifndef PRIVMARK_CORE_MANIFEST_H_
#define PRIVMARK_CORE_MANIFEST_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "core/framework.h"
#include "core/session.h"

namespace privmark {

/// \brief One column's generalization record.
struct ManifestColumn {
  std::string name;
  std::vector<std::string> ultimate_labels;
  std::vector<std::string> maximal_labels;
};

/// \brief The serializable protection record.
struct ProtectionManifest {
  size_t mark_bits = 0;
  size_t wmd_size = 0;
  size_t copies = 0;
  size_t epsilon = 0;
  HashAlgorithm hash = HashAlgorithm::kSha1;
  /// Name of the key this copy was embedded with (FrameworkConfig::key_id;
  /// a KeyRegistry entry name, never the key itself). Empty = unnamed.
  std::string key_id;
  std::vector<ManifestColumn> columns;
};

/// \brief Builds the manifest of one session epoch from its EpochRecord
/// (each epoch has its own generalization, wmd size, and epsilon, so each
/// gets its own manifest; detection over an epoch's output uses that
/// epoch's manifest). A one-shot protect is a one-epoch session.
///
/// \param schema the stream's schema (for the column names)
Result<ProtectionManifest> ManifestFromEpoch(const EpochRecord& epoch,
                                             const Schema& schema,
                                             const UsageMetrics& metrics,
                                             const FrameworkConfig& config);

/// \brief ManifestFromEpoch for every sealed epoch of `session`, in
/// epoch order, from the session's own schema, metrics and config.
Result<std::vector<ProtectionManifest>> SessionManifests(
    const ProtectionSession& session);

/// \brief Serializes to the text format.
std::string SerializeManifest(const ProtectionManifest& manifest);

/// \brief Parses the text format; rejects malformed input with
/// InvalidArgument.
Result<ProtectionManifest> ParseManifest(const std::string& text);

/// \brief Reconstructs the watermarker from a manifest, the owner's trees
/// (one per manifest column, same order) and the secret key.
///
/// \param table the protected table (used only to locate the identifying
///        and quasi-identifying columns by name)
Result<HierarchicalWatermarker> WatermarkerFromManifest(
    const ProtectionManifest& manifest, const Table& table,
    const std::vector<const DomainHierarchy*>& trees, const WatermarkKey& key,
    const WatermarkOptions& options);

/// \brief ReadManifestFile refuses files larger than this (a manifest
/// is a few KB of labels; a huge file is an attack or a mixup, and
/// parsing it would buffer it whole).
inline constexpr size_t kMaxManifestBytes = size_t{1} << 20;

/// \brief Reads and parses a manifest file. A file above
/// kMaxManifestBytes is refused with IOError before it is read.
Result<ProtectionManifest> ReadManifestFile(const std::string& path);

}  // namespace privmark

#endif  // PRIVMARK_CORE_MANIFEST_H_

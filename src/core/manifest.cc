#include "core/manifest.h"

#include <cstdint>

#include "common/durable_file.h"
#include "common/kv_text.h"
#include "common/strings.h"

namespace privmark {

namespace {

// Labels may contain '|' in principle; escape the separator and backslash.
std::string EscapeLabel(const std::string& label) {
  std::string out;
  for (char c : label) {
    if (c == '|' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

Result<std::vector<std::string>> SplitEscaped(const std::string& joined) {
  std::vector<std::string> parts;
  std::string current;
  bool escaped = false;
  for (char c : joined) {
    if (escaped) {
      current += c;
      escaped = false;
    } else if (c == '\\') {
      escaped = true;
    } else if (c == '|') {
      parts.push_back(std::move(current));
      current.clear();
    } else {
      current += c;
    }
  }
  // A trailing backslash escapes nothing: the manifest was truncated or
  // hand-corrupted, and silently dropping the byte would parse a
  // different label list than the writer serialized.
  if (escaped) {
    return Status::InvalidArgument(
        "manifest: unterminated escape (dangling '\\') in label list: " +
        joined);
  }
  parts.push_back(std::move(current));
  return parts;
}

std::string JoinEscaped(const std::vector<std::string>& labels) {
  std::vector<std::string> escaped;
  escaped.reserve(labels.size());
  for (const auto& label : labels) escaped.push_back(EscapeLabel(label));
  return Join(escaped, "|");
}

}  // namespace

Result<ProtectionManifest> ManifestFromEpoch(const EpochRecord& epoch,
                                             const Schema& schema,
                                             const UsageMetrics& metrics,
                                             const FrameworkConfig& config) {
  if (epoch.ultimate.size() != metrics.maximal.size()) {
    return Status::InvalidArgument(
        "ManifestFromEpoch: epoch and metrics disagree on column count");
  }
  const std::vector<size_t> qi_columns = schema.QuasiIdentifyingColumns();
  if (qi_columns.size() != epoch.ultimate.size()) {
    return Status::InvalidArgument(
        "ManifestFromEpoch: schema and epoch disagree on column count");
  }
  ProtectionManifest manifest;
  manifest.mark_bits = epoch.mark.size();
  manifest.wmd_size = epoch.wmd_size;
  manifest.copies = epoch.copies;
  manifest.epsilon = epoch.epsilon_used;
  manifest.hash = config.watermark.hash;
  manifest.key_id = config.key_id;
  // Per quasi-identifying column: its name and the labels of its
  // published (ultimate) and maximal generalizations.
  for (size_t c = 0; c < qi_columns.size(); ++c) {
    ManifestColumn column;
    column.name = schema.column(qi_columns[c]).name;
    const DomainHierarchy& tree = *metrics.trees[c];
    for (NodeId id : epoch.ultimate[c].nodes()) {
      column.ultimate_labels.push_back(tree.node(id).label);
    }
    for (NodeId id : metrics.maximal[c].nodes()) {
      column.maximal_labels.push_back(tree.node(id).label);
    }
    manifest.columns.push_back(std::move(column));
  }
  return manifest;
}

Result<std::vector<ProtectionManifest>> SessionManifests(
    const ProtectionSession& session) {
  std::vector<ProtectionManifest> manifests;
  for (const EpochRecord& epoch : session.epochs()) {
    // An epoch exists only after a batch fixed the session's schema.
    PRIVMARK_ASSIGN_OR_RETURN(
        ProtectionManifest manifest,
        ManifestFromEpoch(epoch, *session.schema(), session.metrics(),
                          session.config()));
    manifests.push_back(std::move(manifest));
  }
  return manifests;
}

std::string SerializeManifest(const ProtectionManifest& manifest) {
  std::string out;
  out += "privmark-manifest-version = 1\n";
  out += "mark_bits = " + std::to_string(manifest.mark_bits) + "\n";
  out += "wmd_size = " + std::to_string(manifest.wmd_size) + "\n";
  out += "copies = " + std::to_string(manifest.copies) + "\n";
  out += "epsilon = " + std::to_string(manifest.epsilon) + "\n";
  out += std::string("hash = ") + HashAlgorithmToString(manifest.hash) + "\n";
  if (!manifest.key_id.empty()) {
    out += "key_id = " + manifest.key_id + "\n";
  }
  for (const ManifestColumn& column : manifest.columns) {
    out += "[column]\n";
    out += "name = " + column.name + "\n";
    out += "ultimate = " + JoinEscaped(column.ultimate_labels) + "\n";
    out += "maximal = " + JoinEscaped(column.maximal_labels) + "\n";
  }
  return out;
}

Result<ProtectionManifest> ParseManifest(const std::string& text) {
  PRIVMARK_ASSIGN_OR_RETURN(const KvText parsed, ParseKvText(text, "manifest"));
  ProtectionManifest manifest;
  bool saw_version = false;
  for (const auto& [key, value] : parsed.top.fields) {
    size_t* number = key == "mark_bits"  ? &manifest.mark_bits
                     : key == "wmd_size" ? &manifest.wmd_size
                     : key == "copies"   ? &manifest.copies
                     : key == "epsilon"  ? &manifest.epsilon
                                         : nullptr;
    if (number != nullptr) {
      // Strict decimal: an adversarial manifest must yield
      // InvalidArgument, never an exception or a wrapped value.
      PRIVMARK_ASSIGN_OR_RETURN(
          *number, ParseDecimalU64(value, "manifest: field '" + key + "'"));
    } else if (key == "privmark-manifest-version") {
      if (value != "1") {
        return Status::InvalidArgument("manifest: unsupported version " +
                                       value);
      }
      saw_version = true;
    } else if (key == "hash") {
      // H is SHA-1 (crypto/keyed_hash.h); any other hash is refused.
      if (value != "SHA1") {
        return Status::InvalidArgument("manifest: unsupported hash '" + value +
                                       "' (only SHA1)");
      }
      manifest.hash = HashAlgorithm::kSha1;
    } else if (key == "key_id") {
      manifest.key_id = value;
    } else if (key == "name" || key == "ultimate" || key == "maximal") {
      return Status::InvalidArgument("manifest: '" + key +
                                     "' outside a [column] section");
    } else {
      return Status::InvalidArgument("manifest: unknown key " + key);
    }
  }
  for (const KvSection& section : parsed.sections) {
    const std::string* name = section.Find("name");
    const std::string* ultimate = section.Find("ultimate");
    const std::string* maximal = section.Find("maximal");
    // Keys are unique per section, so three fields that include all three
    // keys are exactly them. The writer always emits all three: a section
    // missing one was truncated, and an empty list could not be written
    // back.
    if (section.name != "column" || section.fields.size() != 3 ||
        name == nullptr || ultimate == nullptr || maximal == nullptr) {
      return Status::InvalidArgument(
          "manifest: section [" + section.name +
          "] is not a [column] of exactly name, ultimate and maximal");
    }
    ManifestColumn column;
    column.name = *name;
    PRIVMARK_ASSIGN_OR_RETURN(column.ultimate_labels, SplitEscaped(*ultimate));
    PRIVMARK_ASSIGN_OR_RETURN(column.maximal_labels, SplitEscaped(*maximal));
    manifest.columns.push_back(std::move(column));
  }
  if (!saw_version) {
    return Status::InvalidArgument("manifest: missing version header");
  }
  if (manifest.mark_bits == 0 || manifest.wmd_size == 0) {
    return Status::InvalidArgument(
        "manifest: mark_bits and wmd_size must be positive");
  }
  return manifest;
}

Result<HierarchicalWatermarker> WatermarkerFromManifest(
    const ProtectionManifest& manifest, const Table& table,
    const std::vector<const DomainHierarchy*>& trees, const WatermarkKey& key,
    const WatermarkOptions& options) {
  if (trees.size() != manifest.columns.size()) {
    return Status::InvalidArgument(
        "WatermarkerFromManifest: tree count does not match manifest");
  }
  PRIVMARK_ASSIGN_OR_RETURN(size_t ident_column,
                            table.schema().IdentifyingColumn());
  std::vector<size_t> qi_columns;
  std::vector<GeneralizationSet> ultimate;
  std::vector<GeneralizationSet> maximal;
  for (size_t c = 0; c < manifest.columns.size(); ++c) {
    const ManifestColumn& column = manifest.columns[c];
    PRIVMARK_ASSIGN_OR_RETURN(size_t col,
                              table.schema().ColumnIndex(column.name));
    qi_columns.push_back(col);
    const DomainHierarchy* tree = trees[c];
    auto labels_to_set =
        [tree](const std::vector<std::string>& labels)
        -> Result<GeneralizationSet> {
      std::vector<NodeId> nodes;
      nodes.reserve(labels.size());
      for (const std::string& label : labels) {
        PRIVMARK_ASSIGN_OR_RETURN(NodeId id, tree->FindByLabel(label));
        nodes.push_back(id);
      }
      return GeneralizationSet::Create(tree, std::move(nodes));
    };
    PRIVMARK_ASSIGN_OR_RETURN(GeneralizationSet ult,
                              labels_to_set(column.ultimate_labels));
    PRIVMARK_ASSIGN_OR_RETURN(GeneralizationSet max,
                              labels_to_set(column.maximal_labels));
    ultimate.push_back(std::move(ult));
    maximal.push_back(std::move(max));
  }
  return HierarchicalWatermarker(std::move(qi_columns), ident_column,
                                 std::move(maximal), std::move(ultimate), key,
                                 options);
}

Result<ProtectionManifest> ReadManifestFile(const std::string& path) {
  PRIVMARK_ASSIGN_OR_RETURN(const std::string text,
                            ReadFileCapped(path, kMaxManifestBytes));
  return ParseManifest(text);
}

}  // namespace privmark

#include "core/manifest.h"

#include <cstdint>
#include <fstream>
#include <set>
#include <sstream>

#include "common/durable_file.h"
#include "common/failpoint.h"
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

Result<ProtectionManifest> BuildManifest(const ProtectionOutcome& outcome,
                                         const UsageMetrics& metrics,
                                         const FrameworkConfig& config) {
  if (outcome.binning.qi_columns.size() != metrics.maximal.size()) {
    return Status::InvalidArgument(
        "BuildManifest: outcome and metrics disagree on column count");
  }
  ProtectionManifest manifest;
  manifest.mark_bits = outcome.mark.size();
  manifest.wmd_size = outcome.embed.wmd_size;
  manifest.copies = outcome.embed.copies;
  manifest.epsilon = outcome.epsilon_used;
  manifest.hash = config.watermark.hash;
  manifest.key_id = config.key_id;
  for (size_t c = 0; c < outcome.binning.qi_columns.size(); ++c) {
    ManifestColumn column;
    const size_t col = outcome.binning.qi_columns[c];
    column.name = outcome.binning.binned.schema().column(col).name;
    const DomainHierarchy& tree = *metrics.trees[c];
    for (NodeId id : outcome.binning.ultimate[c].nodes()) {
      column.ultimate_labels.push_back(tree.node(id).label);
    }
    for (NodeId id : metrics.maximal[c].nodes()) {
      column.maximal_labels.push_back(tree.node(id).label);
    }
    manifest.columns.push_back(std::move(column));
  }
  return manifest;
}

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
  ProtectionManifest manifest;
  ManifestColumn* current_column = nullptr;
  bool saw_version = false;
  // Duplicate detection: a key repeated in the same scope means a
  // corrupted or spliced manifest — last-one-wins would silently parse
  // a file the writer never produced.
  std::set<std::string> seen_scalar;
  std::set<std::string> seen_column;
  // Strict decimal: an adversarial manifest must yield InvalidArgument,
  // never an exception or a wrapped value.
  auto parse_size = [](const std::string& value, const std::string& key) {
    return ParseDecimalU64(value, "manifest: field '" + key + "'");
  };

  for (const std::string& raw_line : Split(text, '\n')) {
    const std::string line = Trim(raw_line);
    if (line.empty()) continue;
    if (line == "[column]") {
      if (current_column != nullptr && current_column->name.empty()) {
        return Status::InvalidArgument(
            "manifest: [column] section without a name");
      }
      manifest.columns.emplace_back();
      current_column = &manifest.columns.back();
      seen_column.clear();
      continue;
    }
    const size_t eq = line.find(" = ");
    if (eq == std::string::npos) {
      return Status::InvalidArgument("manifest: malformed line: " + line);
    }
    const std::string key = line.substr(0, eq);
    const std::string value = line.substr(eq + 3);
    const bool column_key =
        key == "name" || key == "ultimate" || key == "maximal";
    if (column_key) {
      if (current_column == nullptr) {
        return Status::InvalidArgument("manifest: '" + key +
                                       "' outside a [column] section");
      }
      if (!seen_column.insert(key).second) {
        return Status::InvalidArgument("manifest: duplicate key '" + key +
                                       "' in a [column] section");
      }
      if (key == "name") {
        if (value.empty()) {
          return Status::InvalidArgument("manifest: column name is empty");
        }
        current_column->name = value;
      } else if (key == "ultimate") {
        PRIVMARK_ASSIGN_OR_RETURN(current_column->ultimate_labels,
                                  SplitEscaped(value));
      } else {
        PRIVMARK_ASSIGN_OR_RETURN(current_column->maximal_labels,
                                  SplitEscaped(value));
      }
      continue;
    }
    if (!seen_scalar.insert(key).second) {
      return Status::InvalidArgument("manifest: duplicate key '" + key + "'");
    }
    if (key == "privmark-manifest-version") {
      if (value != "1") {
        return Status::InvalidArgument("manifest: unsupported version " +
                                       value);
      }
      saw_version = true;
    } else if (key == "mark_bits") {
      PRIVMARK_ASSIGN_OR_RETURN(manifest.mark_bits, parse_size(value, key));
    } else if (key == "wmd_size") {
      PRIVMARK_ASSIGN_OR_RETURN(manifest.wmd_size, parse_size(value, key));
    } else if (key == "copies") {
      PRIVMARK_ASSIGN_OR_RETURN(manifest.copies, parse_size(value, key));
    } else if (key == "epsilon") {
      PRIVMARK_ASSIGN_OR_RETURN(manifest.epsilon, parse_size(value, key));
    } else if (key == "hash") {
      if (value == "SHA1") {
        manifest.hash = HashAlgorithm::kSha1;
      } else if (value == "MD5") {
        manifest.hash = HashAlgorithm::kMd5;
      } else {
        return Status::InvalidArgument("manifest: unknown hash " + value);
      }
    } else if (key == "key_id") {
      manifest.key_id = value;
    } else {
      return Status::InvalidArgument("manifest: unknown key " + key);
    }
  }
  if (current_column != nullptr && current_column->name.empty()) {
    return Status::InvalidArgument(
        "manifest: [column] section without a name");
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

Status WriteManifestFile(const ProtectionManifest& manifest,
                         const std::string& path) {
  if (PRIVMARK_FAILPOINT("manifest.write")) {
    return Status::IOError("failpoint 'manifest.write' triggered for '" +
                           path + "'");
  }
  if (PRIVMARK_FAILPOINT("manifest.fsync")) {
    return Status::IOError("failpoint 'manifest.fsync' triggered for '" +
                           path + "'");
  }
  // Durable, matching the journal's discipline: a manifest names the
  // generalization its (fsynced) epoch was published under, so losing
  // it to a crash strands an otherwise-recoverable epoch.
  return WriteFileDurable(path, SerializeManifest(manifest));
}

Result<ProtectionManifest> ReadManifestFile(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) {
    return Status::IOError("cannot open '" + path + "' for reading");
  }
  std::ostringstream buffer;
  buffer << file.rdbuf();
  const std::string text = buffer.str();
  if (text.size() > kMaxManifestBytes) {
    return Status::InvalidArgument(
        "manifest file '" + path + "' is " + std::to_string(text.size()) +
        " bytes; the cap is " + std::to_string(kMaxManifestBytes));
  }
  return ParseManifest(text);
}

}  // namespace privmark

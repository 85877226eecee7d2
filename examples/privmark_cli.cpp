// privmark_cli — command-line front end for the full pipeline on CSV
// files with the paper's medical schema R(ssn, age, zip_code, doctor,
// symptom, prescription).
//
//   privmark_cli generate <rows> <out.csv> [--seed=N]
//       synthesize a clinical data set
//
//   privmark_cli protect <in.csv> <out.csv> <manifest.out>
//                [--k=20] [--eta=50] [--pass=...] [--k1=...] [--k2=...]
//                [--joint] [--epsilon] [--threads=N] [--batch-size=N]
//                [--rebin-policy=freeze|drift] [--drift-threshold=0.5]
//       bin to k-anonymity, encrypt identifiers, embed the ownership
//       mark; writes the protected table and the (non-secret) manifest,
//       and prints each epoch's mark and identifier statistic v (keep
//       both for a dispute). The table streams through an incremental
//       ProtectionSession: as one batch, or in N-row batches with
//       --batch-size=N. Under `freeze` (the default) all batches
//       accumulate and one flush at the end emits epoch 0 — the same
//       bytes whatever the batch size; under `drift` the first batch is
//       the initial load (flushed immediately) and later batches open new
//       epochs whenever accumulated rows drift past the threshold — each
//       epoch gets its own mark, embed, and manifest (epoch N > 0 is
//       written to <manifest.out>.epochN)
//
//   privmark_cli gen-key <out.key> [--name=recipient] [--eta=50]
//                [--seed=N] [--k1=...] [--k2=...]
//       write a named key file (a one-entry registry). Key material is
//       drawn from a Random seeded by --seed — privmark never touches
//       system entropy, so pick a fresh seed per recipient — or taken
//       verbatim from --k1/--k2. Concatenating gen-key outputs' [key]
//       sections under one magic line forms a multi-key registry.
//
//   privmark_cli detect <table.csv> <manifest> [--key=key.file]
//                [--registry=keys.file] [--mark=bits] [--json[=path]]
//                [--k1=...] [--k2=...] [--eta=50] [--threads=N]
//       recover the embedded mark with the secret key (--key file or
//       --k1/--k2/--eta), or — with --registry — scan the table against
//       every key in the registry and print ranked suspects (--mark
//       supplies the owner's expected mark; without it ranking falls
//       back to internal vote agreement). --json emits the structured
//       report to stdout (or to =path)
//
//   privmark_cli cmp <table.csv> <manifest> <expected_mark_bits>
//                [--key=key.file] [--k1=...] [--k2=...] [--eta=50]
//                [--threads=N] [--json[=path]]
//       audiowmark-style comparison: does the table carry this key's
//       mark? Prints mark match, margin ratio, and p-value; exits 0 on
//       MATCH, 3 on NO_MATCH
//
//   privmark_cli attack <in.csv> <out.csv> <kind> <fraction>
//                [--seed=N] [--manifest=...] [--threads=N]
//       kind: alter | add | delete | generalize (generalize needs the
//       manifest for the maximal nodes and ignores fraction)
//
//   privmark_cli dispute <table.csv> <manifest> <claimed_v>
//                [--pass=...] [--k1=...] [--k2=...] [--eta=50]
//       run the Sec. 5.4 rightful-ownership protocol
//
//   privmark_cli recover <journal.wal> <out.csv> <manifest.out>
//                [--k=20] [--eta=50] [--pass=...] [--k1=...] [--k2=...]
//                [--key=key.file] [--joint] [--epsilon] [--threads=N]
//                [--rebin-policy=freeze|drift] [--drift-threshold=0.5]
//       rebuild a crashed session's stream from its write-ahead journal:
//       replays the journal (discarding any torn tail), writes every row
//       the crashed process had emitted to <out.csv> and one manifest
//       per sealed epoch. The flags must repeat the original run's
//       non-secret config (k, joint, policy — validated against the
//       journal's fingerprint) and its secrets (never journaled). The
//       journal file itself is left untouched.
//
//   privmark_cli daemon [--port=0] [--cap=N] [--journal-dir=DIR]
//                [--default-deadline-ms=0] [--max-queue-depth=0]
//                [--shutdown-deadline-ms=-1]
//       run the network daemon on 127.0.0.1:<port> (0 = ephemeral; the
//       bound port is printed, so tests can parse it). Serves the wire
//       protocol of service/wire.h: any number of clients, one session
//       strand per stream, every strand taking turns on one worker pool
//       of --cap threads. The shedding knob mirrors ServiceConfig:
//       --max-queue-depth bounds a session's queue; shed requests come
//       back ResourceExhausted with a typed retry_after_ms hint. Runs
//       until stdin reaches EOF or SIGINT/SIGTERM, then drains with
//       Shutdown(--shutdown-deadline-ms) (-1 = wait forever).
//
//   privmark_cli serve <script> [--cap=N] [--journal-dir=DIR]
//                [--connect=host:port] [--key=key.file]
//                [--pass=...] [--k1=...] [--k2=...] [--eta=50]
//       drive the service from a scripted request file. serve always
//       speaks the daemon protocol: with --connect=host:port it drives a
//       running `privmark_cli daemon` (--cap/--journal-dir are then that
//       daemon's to decide); without it, a daemon embedded in this
//       process on an ephemeral loopback port, built exactly like
//       `daemon` — named streams protected concurrently on one shared
//       pool of at most --cap=N workers (0 = hardware). With
//       --journal-dir every stream is durable: batches are journaled
//       write-ahead to DIR/<session>.wal, and re-opening a session whose
//       journal already exists replays it first (the open line reports
//       what was recovered). Script lines (# starts a comment):
//         open <session> <out.csv> <manifest.out> [--k=20] [--joint]
//              [--epsilon] [--threads=1] [--rebin-policy=freeze|drift]
//              [--drift-threshold=0.5]
//         ingest <session> <in.csv> [--threads=N] [--deadline-ms=N]
//         flush <session> [--threads=N] [--deadline-ms=N]
//         detect <session> [<table.csv>] [--threads=N] [--deadline-ms=N]
//         fingerprint <session> <registry.file> [<table.csv>]
//                     [--threads=N] [--deadline-ms=N] [--stream]
//         close <session>
//       Each stream gets its own connection. Requests are pipelined and
//       run concurrently across sessions; a session's requests always
//       execute in script order. `detect` with no table re-reads what
//       the session emitted so far. `close` (implicit at end of script)
//       writes the session's emitted rows to its out.csv and one
//       manifest per epoch (<manifest.out>.epochN for N > 0), serialized
//       by the daemon — byte-identical whichever daemon served the
//       script. --key=<file> names the key in every manifest (key_id).
//       --deadline-ms=N bounds one request (absent = the daemon's
//       default). fingerprint --stream prints each key-shard's verdicts
//       as its partial frame lands, then the terminal ranking
//       (byte-identical to the one-shot report).
//
// --threads=N runs the row-sharded pipeline stages on N workers (0 = one
// per hardware thread); outputs are byte-identical for every N, so the
// flag is purely a throughput knob. Default 1 (serial). The `add` attack
// is the one surface that ignores it: appending rows consumes the random
// stream for every cell, which is inherently sequential.
//
// Secrets (k1/k2/eta, encryption passphrase) are parameters, never stored
// in the manifest.

#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <system_error>
#include <utility>
#include <vector>

#include "attack/attacks.h"
#include "core/framework.h"
#include "core/manifest.h"
#include "core/report_json.h"
#include "core/session.h"
#include "common/durable_file.h"
#include "common/strings.h"
#include "datagen/medical_data.h"
#include "relation/csv.h"
#include "service/client.h"
#include "service/daemon.h"
#include "watermark/fingerprint.h"
#include "watermark/key_registry.h"
#include "watermark/ownership.h"

using namespace privmark;  // NOLINT — example brevity

namespace {

struct Args {
  std::vector<std::string> positional;
  std::map<std::string, std::string> flags;

  std::string Flag(const std::string& name, const std::string& fallback)
      const {
    auto it = flags.find(name);
    return it == flags.end() ? fallback : it->second;
  }
  // A malformed number is a usage error (exit 2), never an exception.
  uint64_t FlagU64(const std::string& name, uint64_t fallback) const {
    auto it = flags.find(name);
    if (it == flags.end()) return fallback;
    const Result<uint64_t> value = ParseDecimalU64(it->second, name);
    if (!value.ok()) {
      std::fprintf(stderr,
                   "error: --%s needs a non-negative integer, got '%s'\n",
                   name.c_str(), it->second.c_str());
      std::exit(2);
    }
    return *value;
  }
  // FlagU64 for a divisor such as --eta or a level such as --k: 0 is a
  // usage error too.
  uint64_t FlagPositive(const std::string& name, uint64_t fallback) const {
    const uint64_t value = FlagU64(name, fallback);
    if (value == 0) {
      std::fprintf(stderr, "error: --%s must be positive\n", name.c_str());
      std::exit(2);
    }
    return value;
  }
};

// Strict finite number: the whole of `text` must parse, and NaN and the
// infinities are refused (atof reads "abc" as 0 and passes "nan" on).
bool ParseFiniteDouble(const std::string& text, double* out) {
  char* end = nullptr;
  *out = std::strtod(text.c_str(), &end);
  return end != text.c_str() && *end == '\0' && std::isfinite(*out);
}

Args ParseTokens(const std::vector<std::string>& tokens) {
  Args args;
  for (const std::string& arg : tokens) {
    if (StartsWith(arg, "--")) {
      const size_t eq = arg.find('=');
      if (eq == std::string::npos) {
        args.flags[arg.substr(2)] = "true";
      } else {
        args.flags[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
      }
    } else {
      args.positional.push_back(arg);
    }
  }
  return args;
}

Args ParseArgs(int argc, char** argv) {
  std::vector<std::string> tokens;
  for (int i = 1; i < argc; ++i) tokens.emplace_back(argv[i]);
  return ParseTokens(tokens);
}

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

template <typename T>
T Must(Result<T> result) {
  if (!result.ok()) {
    std::fprintf(stderr, "error: %s\n", result.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(result).ValueOrDie();
}

WatermarkKey KeyFromArgs(const Args& args) {
  return WatermarkKey{args.Flag("k1", "cli-default-k1"),
                      args.Flag("k2", "cli-default-k2"),
                      args.FlagPositive("eta", 50)};
}

// The key named by --key=<file> (a gen-key output), else flag-supplied
// material with an empty name.
NamedKey NamedKeyFromArgs(const Args& args) {
  const std::string path = args.Flag("key", "");
  if (!path.empty()) return Must(ReadKeyFile(path));
  return NamedKey{"", KeyFromArgs(args)};
}

// Emits a --json report: to stdout for bare --json, to the flag's value
// for --json=<path>. No-op when the flag is absent.
int EmitJson(const Args& args, const std::string& json) {
  if (args.flags.count("json") == 0) return 0;
  const std::string path = args.Flag("json", "");
  if (path.empty() || path == "true") {
    std::fputs(json.c_str(), stdout);
    return 0;
  }
  if (const Status st = WriteFileDurable(path, json); !st.ok()) {
    std::fprintf(stderr, "error: cannot write JSON report: %s\n",
                 st.ToString().c_str());
    return 1;
  }
  return 0;
}

int CmdGenerate(const Args& args) {
  if (args.positional.size() != 3) {
    std::fprintf(stderr, "usage: privmark_cli generate <rows> <out.csv>\n");
    return 2;
  }
  MedicalDataSpec spec;
  const Result<uint64_t> rows = ParseDecimalU64(args.positional[1], "<rows>");
  if (!rows.ok()) {
    std::fprintf(stderr, "error: <rows> must be a non-negative integer, "
                 "got '%s'\n", args.positional[1].c_str());
    return 2;
  }
  spec.num_rows = *rows;
  spec.seed = args.FlagU64("seed", spec.seed);
  MedicalDataset dataset = Must(GenerateMedicalDataset(spec));
  if (auto st = WriteTableCsv(dataset.table, args.positional[2]); !st.ok()) {
    return Fail(st);
  }
  std::printf("wrote %zu rows to %s\n", dataset.table.num_rows(),
              args.positional[2].c_str());
  return 0;
}

// The non-secret + secret framework configuration shared by protect and
// recover (recover must repeat the original run's flags; the journal's
// fingerprint validates the non-secret part).
FrameworkConfig FrameworkConfigFromArgs(const Args& args) {
  FrameworkConfig config;
  config.binning.k = args.FlagPositive("k", 20);
  config.binning.enforce_joint = args.flags.count("joint") > 0;
  config.binning.encryption_passphrase = args.Flag("pass", "cli-default-pass");
  config.binning.num_threads = args.FlagU64("threads", 1);
  config.watermark.num_threads = config.binning.num_threads;
  const NamedKey named = NamedKeyFromArgs(args);
  config.key = named.key;
  config.key_id = named.name;
  config.auto_epsilon = args.flags.count("epsilon") > 0;
  return config;
}

Result<UsageMetrics> MetricsForConfig(const FrameworkConfig& config,
                                      const MedicalDataset& ontologies) {
  if (config.binning.enforce_joint) {
    return UnconstrainedMetrics(ontologies.trees());
  }
  return MetricsFromDepthCuts(ontologies.trees(), {2, 1, 2, 1, 1});
}

// The daemon config `daemon` and the embedded `serve` daemon share:
// --cap workers, --journal-dir durability, and the medical metrics
// factory (`ontologies` must outlive the daemon).
DaemonConfig DaemonConfigFromArgs(const Args& args,
                                  const MedicalDataset& ontologies) {
  DaemonConfig config;
  config.service.thread_cap = args.FlagU64("cap", 0);
  config.service.journal_dir = args.Flag("journal-dir", "");
  config.schema = MedicalSchema();
  config.metrics_for_config = [&ontologies](const FrameworkConfig& fc) {
    return MetricsForConfig(fc, ontologies);
  };
  return config;
}

// Fills `session_config` from --rebin-policy / --drift-threshold. Returns
// 0 on success, a usage exit code otherwise.
int ParseSessionConfig(const Args& args, SessionConfig* session_config,
                       std::string* policy_out) {
  const std::string policy = args.Flag("rebin-policy", "freeze");
  if (policy == "drift") {
    session_config->policy = RebinPolicy::kRebinOnDrift;
  } else if (policy != "freeze") {
    std::fprintf(stderr, "unknown --rebin-policy '%s' (freeze|drift)\n",
                 policy.c_str());
    return 2;
  }
  const std::string threshold_text = args.Flag("drift-threshold", "0.5");
  // A NaN threshold compares false against every drift, so re-binning
  // would silently never happen.
  if (!ParseFiniteDouble(threshold_text, &session_config->drift_threshold) ||
      session_config->drift_threshold <= 0.0) {
    std::fprintf(stderr,
                 "--drift-threshold must be a positive finite number, got "
                 "'%s'\n",
                 threshold_text.c_str());
    return 2;
  }
  if (policy_out != nullptr) *policy_out = policy;
  return 0;
}

// Writes one stream's published files durably: `table` to `out_path`,
// then epoch e's manifest text to `manifest_path` for epoch 0 and to
// `manifest_path.epoch<e>` after it. Returns the manifest paths.
Result<std::vector<std::string>> WriteStreamFiles(
    const Table& table, const std::string& out_path,
    const std::string& manifest_path,
    const std::vector<std::string>& manifest_texts) {
  PRIVMARK_RETURN_NOT_OK(WriteTableCsv(table, out_path));
  std::vector<std::string> paths;
  for (size_t e = 0; e < manifest_texts.size(); ++e) {
    paths.push_back(e == 0 ? manifest_path
                           : manifest_path + ".epoch" + std::to_string(e));
    PRIVMARK_RETURN_NOT_OK(WriteFileDurable(paths.back(), manifest_texts[e]));
  }
  return paths;
}

// WriteStreamFiles for a local session (protect, recover): `emitted` to
// <out.csv> and one manifest per sealed epoch to <manifest.out>.
std::vector<std::string> WriteSessionFiles(const Args& args,
                                           const ProtectionSession& session,
                                           const Table& emitted) {
  std::vector<std::string> texts;
  for (const ProtectionManifest& manifest : Must(SessionManifests(session))) {
    texts.push_back(SerializeManifest(manifest));
  }
  return Must(
      WriteStreamFiles(emitted, args.positional[2], args.positional[3], texts));
}

int CmdProtect(const Args& args) {
  if (args.positional.size() != 4) {
    std::fprintf(stderr,
                 "usage: privmark_cli protect <in.csv> <out.csv> "
                 "<manifest.out> [--key=key.file] [--k=] [--eta=] [--pass=] "
                 "[--joint] [--epsilon] [--threads=] [--batch-size=] "
                 "[--rebin-policy=freeze|drift] [--drift-threshold=]\n");
    return 2;
  }
  MedicalDataset ontologies = Must(GenerateMedicalDataset({.num_rows = 1}));
  Table input = Must(ReadTableCsv(args.positional[1], MedicalSchema()));

  FrameworkConfig config = FrameworkConfigFromArgs(args);
  UsageMetrics metrics = Must(MetricsForConfig(config, ontologies));
  SessionConfig session_config;
  std::string policy;
  if (int rc = ParseSessionConfig(args, &session_config, &policy); rc != 0) {
    return rc;
  }
  // No --batch-size: the whole table is one batch.
  size_t batch_size = args.FlagU64("batch-size", 0);
  if (batch_size == 0) batch_size = input.num_rows();

  ProtectionSession session(metrics, config, session_config);
  Table output(input.schema());
  size_t num_batches = 0;
  for (size_t begin = 0; begin < input.num_rows() || num_batches == 0;
       begin += batch_size) {
    (void)output.Append(
        Must(session.Ingest(input.Slice(begin, begin + batch_size))).emitted);
    ++num_batches;
    // Drift mode: the first batch is the initial load; flush immediately
    // so later batches stream against a live generalization.
    if (num_batches == 1 &&
        session_config.policy == RebinPolicy::kRebinOnDrift) {
      (void)output.Append(Must(session.Flush()).outcome.watermarked);
    }
  }
  if (session.rows_buffered() > 0 || !session.frozen()) {
    (void)output.Append(Must(session.Flush()).outcome.watermarked);
  }

  const std::vector<std::string> paths =
      WriteSessionFiles(args, session, output);
  std::printf("protected %zu rows  (k=%zu%s, eta=%llu%s%s)\n",
              output.num_rows(), config.binning.k,
              config.binning.enforce_joint ? " joint" : " per-attribute",
              static_cast<unsigned long long>(config.key.eta),
              config.key_id.empty() ? "" : ", key ",
              config.key_id.c_str());
  for (size_t e = 0; e < paths.size(); ++e) {
    const EpochRecord& epoch = session.epochs()[e];
    std::printf("epoch %zu: emitted %zu rows, suppressed %zu, wmd %zu, "
                "v %.6f, manifest -> %s\n",
                epoch.epoch, epoch.rows_emitted, epoch.rows_suppressed,
                epoch.wmd_size, epoch.identifier_statistic,
                paths[e].c_str());
    std::printf("information loss: %.2f%%\n", epoch.information_loss * 100);
    std::printf("mark (keep secret until dispute): %s\n",
                epoch.mark.ToString().c_str());
    std::printf("identifier statistic v (PRESENT IN COURT): %.6f\n",
                epoch.identifier_statistic);
  }
  std::printf("streamed %zu rows in %zu batch(es) (%s policy)\n",
              session.rows_ingested(), num_batches, policy.c_str());
  std::printf("table -> %s\nmanifest -> %s\n", args.positional[2].c_str(),
              args.positional[3].c_str());
  return 0;
}

// A published table and what reading it takes: the medical ontologies,
// the table's manifest, and the watermarker that manifest rebuilds.
struct Published {
  MedicalDataset ontologies;  // owns the trees `watermarker` points into
  Table table;
  ProtectionManifest manifest;
  HierarchicalWatermarker watermarker;
};

// Loads the table at <table.csv> (the first argument) and the manifest
// at `manifest_path`, and rebuilds the watermarker for `key` on
// --threads workers — the input of detect, cmp, dispute and the
// generalize attack.
Published LoadPublished(const Args& args, const std::string& manifest_path,
                        const WatermarkKey& key) {
  MedicalDataset ontologies = Must(GenerateMedicalDataset({.num_rows = 1}));
  Table table = Must(ReadTableCsv(args.positional[1], MedicalSchema()));
  ProtectionManifest manifest = Must(ReadManifestFile(manifest_path));
  WatermarkOptions options;
  options.hash = manifest.hash;
  options.num_threads = args.FlagU64("threads", 1);
  HierarchicalWatermarker watermarker = Must(WatermarkerFromManifest(
      manifest, table, ontologies.trees(), key, options));
  return Published{std::move(ontologies), std::move(table),
                   std::move(manifest), std::move(watermarker)};
}

int CmdDetect(const Args& args) {
  if (args.positional.size() != 3) {
    std::fprintf(stderr,
                 "usage: privmark_cli detect <table.csv> <manifest> "
                 "[--key=key.file] [--registry=keys.file] [--mark=bits] "
                 "[--json[=path]] [--k1=] [--k2=] [--eta=] [--threads=]\n");
    return 2;
  }
  const std::string registry_path = args.Flag("registry", "");
  // A registry scan takes only structure (labels, maximal sets) from the
  // watermarker; every candidate key comes from the registry.
  const NamedKey named =
      registry_path.empty() ? NamedKeyFromArgs(args) : NamedKey{};
  const Published published = LoadPublished(args, args.positional[2],
                                            named.key);
  const ProtectionManifest& manifest = published.manifest;
  if (!registry_path.empty()) {
    KeyRegistry registry = Must(KeyRegistry::ReadFile(registry_path));
    FingerprintConfig scan;
    scan.wm_size = manifest.mark_bits;
    scan.wmd_size = manifest.wmd_size;
    if (args.flags.count("mark") > 0) {
      scan.expected_mark = Must(BitVector::FromString(args.Flag("mark", "")));
    }
    FingerprintReport report = Must(ScanForFingerprints(
        published.watermarker, published.table, registry, scan));
    std::printf("scanned %zu key(s), %zu detected (threshold %.2f, "
                "ranked by %s)\n",
                report.verdicts.size(), report.keys_detected,
                scan.match_threshold,
                scan.expected_mark.size() > 0 ? "mark match"
                                              : "vote agreement");
    for (size_t i = 0; i < report.ranking.size(); ++i) {
      const KeyVerdict& v = report.verdicts[report.ranking[i]];
      std::printf("  %2zu. %-24s score %.6f  match %.6f  agreement %.6f  "
                  "p %.3e  %s\n",
                  i + 1, v.key_name.c_str(), v.score, v.mark_match,
                  v.margin_ratio, v.p_value,
                  v.detected ? "DETECTED" : "clear");
    }
    if (report.collusion) {
      std::printf("COLLUSION: %zu keys cleared the threshold — the table "
                  "mixes rows from several recipients' copies\n",
                  report.keys_detected);
    }
    return EmitJson(args, FingerprintReportJson(report,
                                                scan.match_threshold));
  }

  DetectReport report = Must(published.watermarker.Detect(
      published.table, manifest.mark_bits, manifest.wmd_size));
  size_t voted = 0;
  for (bool b : report.bit_voted) voted += b ? 1 : 0;
  std::printf("recovered mark: %s\n", report.recovered.ToString().c_str());
  std::printf("bits with votes: %zu/%zu, slots read: %zu, tuples selected: "
              "%zu\n",
              voted, manifest.mark_bits, report.slots_read,
              report.tuples_selected);
  return EmitJson(args, DetectReportJson(named.name, report));
}

int CmdGenKey(const Args& args) {
  if (args.positional.size() != 2) {
    std::fprintf(stderr,
                 "usage: privmark_cli gen-key <out.key> [--name=recipient] "
                 "[--eta=50] [--seed=N] [--k1=] [--k2=]\n");
    return 2;
  }
  const std::string name = args.Flag("name", "recipient");
  const uint64_t eta = args.FlagPositive("eta", 50);
  NamedKey key;
  if (args.flags.count("k1") > 0 || args.flags.count("k2") > 0) {
    key = NamedKey{name, KeyFromArgs(args)};
  } else {
    // privmark never draws from system entropy — the caller owns the
    // seed, and distinct recipients need distinct seeds.
    Random rng(args.FlagU64("seed", 1));
    key = GenerateKey(name, eta, &rng);
  }
  if (auto st = WriteKeyFile(key, args.positional[1]); !st.ok()) {
    return Fail(st);
  }
  std::printf("key '%s' (eta %llu) -> %s\n", key.name.c_str(),
              static_cast<unsigned long long>(key.key.eta),
              args.positional[1].c_str());
  return 0;
}

int CmdCmp(const Args& args) {
  if (args.positional.size() != 4) {
    std::fprintf(stderr,
                 "usage: privmark_cli cmp <table.csv> <manifest> "
                 "<expected_mark_bits> [--key=key.file] [--k1=] [--k2=] "
                 "[--eta=] [--threads=] [--json[=path]]\n");
    return 2;
  }
  NamedKey named = NamedKeyFromArgs(args);
  if (named.name.empty()) named.name = "candidate";
  const Published published = LoadPublished(args, args.positional[2],
                                            named.key);
  BitVector expected = Must(BitVector::FromString(args.positional[3]));
  KeyRegistry registry;
  if (auto st = registry.Add(named); !st.ok()) return Fail(st);

  FingerprintConfig scan;
  scan.wm_size = published.manifest.mark_bits;
  scan.wmd_size = published.manifest.wmd_size;
  scan.expected_mark = expected;
  FingerprintReport report = Must(ScanForFingerprints(
      published.watermarker, published.table, registry, scan));
  const KeyVerdict& verdict = report.verdicts[0];
  std::printf("key: %s\n", verdict.key_name.c_str());
  std::printf("mark match: %.1f%% (chance probability %.3e)\n",
              verdict.mark_match * 100, verdict.p_value);
  std::printf("vote agreement: %.1f%%\n", verdict.margin_ratio * 100);
  std::printf("verdict: %s (threshold %.2f)\n",
              verdict.detected ? "MATCH" : "NO_MATCH",
              scan.match_threshold);
  const int json_status =
      EmitJson(args, CmpReportJson(verdict, expected, scan.match_threshold));
  if (json_status != 0) return json_status;
  return verdict.detected ? 0 : 3;
}

int CmdAttack(const Args& args) {
  if (args.positional.size() != 5) {
    std::fprintf(stderr,
                 "usage: privmark_cli attack <in.csv> <out.csv> "
                 "<alter|add|delete|generalize> <fraction> [--seed=] "
                 "[--manifest=] [--threads=]\n");
    return 2;
  }
  double fraction = 0.0;
  if (!ParseFiniteDouble(args.positional[4], &fraction)) {
    std::fprintf(stderr, "<fraction> must be a finite number, got '%s'\n",
                 args.positional[4].c_str());
    return 2;
  }
  Table table = Must(ReadTableCsv(args.positional[1], MedicalSchema()));
  const std::string kind = args.positional[3];
  Random rng(args.FlagU64("seed", 1));
  const size_t threads = args.FlagU64("threads", 1);
  const std::vector<size_t> qi = MedicalSchema().QuasiIdentifyingColumns();

  AttackReport report;
  if (kind == "alter") {
    report = Must(SubsetAlterationAttack(&table, qi, fraction, &rng, threads));
  } else if (kind == "add") {
    report = Must(SubsetAdditionAttack(&table, fraction, &rng));
  } else if (kind == "delete") {
    report = Must(SubsetDeletionAttack(&table, fraction, &rng, threads));
  } else if (kind == "generalize") {
    const std::string manifest_path = args.Flag("manifest", "");
    if (manifest_path.empty()) {
      std::fprintf(stderr, "generalize needs --manifest=<path>\n");
      return 2;
    }
    // Reconstruct the maximal sets to cap the attack (the attacker knows
    // the published generalization structure).
    const Published published =
        LoadPublished(args, manifest_path, WatermarkKey{});
    report = Must(GeneralizationAttack(
        &table, published.watermarker.qi_columns(),
        published.watermarker.maximal(), 1, threads));
  } else {
    std::fprintf(stderr, "unknown attack kind '%s'\n", kind.c_str());
    return 2;
  }
  if (auto st = WriteTableCsv(table, args.positional[2]); !st.ok()) {
    return Fail(st);
  }
  std::printf("%s attack: %zu rows affected, %zu cells changed; %zu rows "
              "remain -> %s\n",
              kind.c_str(), report.rows_affected, report.cells_changed,
              table.num_rows(), args.positional[2].c_str());
  return 0;
}

// ---- serve: one script interpreter over the daemon protocol --------------
//
// Every stream gets its own DaemonClient connection, to the daemon named
// by --connect or to one embedded in this process. Script lines become
// pipelined CallAsync requests: a stream's calls execute in script order
// on its session strand while other streams' calls run concurrently. A
// stream waits its calls out, oldest first, only where the script needs
// their results: `detect`/`fingerprint` with no table (they read what the
// stream emitted so far), `close`, end of script, and whenever the
// stream reaches the daemon's in-flight window.
struct ServeStream {
  struct Inflight {
    WireFrameType type = WireFrameType::kClose;
    bool streamed = false;
    DaemonClient::PendingCall call;
  };
  std::string out_path;
  std::string manifest_path;
  std::unique_ptr<DaemonClient> client;
  std::deque<Inflight> inflight;
  Table emitted{MedicalSchema()};
  bool closed = false;
};

bool ServeError(const std::string& name, const char* what,
                const Status& status) {
  std::fprintf(stderr, "error: [%s] %s: %s\n", name.c_str(), what,
               status.ToString().c_str());
  return false;
}

// Streamed fingerprint: prints each key-shard's verdicts as its partial
// frame lands. The terminal ranking follows once Wait() has validated it
// against these very shards.
bool PrintShards(const std::string& name, DaemonClient::PendingCall* call) {
  FingerprintShard shard;
  for (;;) {
    Result<bool> more = call->NextShard(&shard);
    if (!more.ok()) {
      return ServeError(name, "fingerprint --stream", more.status());
    }
    if (!*more) return true;
    size_t detected = 0;
    for (const KeyVerdict& v : shard.verdicts) detected += v.detected ? 1 : 0;
    std::printf("[%s] shard (epoch %zu, #%zu, keys %zu..%zu): "
                "%zu/%zu detected\n",
                name.c_str(), shard.epoch, shard.shard, shard.first_key,
                shard.first_key + shard.verdicts.size() - 1, detected,
                shard.verdicts.size());
  }
}

// Waits for the stream's oldest in-flight call and folds its response
// into the stream: emitted rows, one printed line per outcome, and — on
// close — the written out.csv and manifests. Returns false on a
// transport error or a non-OK service status.
bool AwaitOldest(const std::string& name, ServeStream* stream) {
  ServeStream::Inflight inflight = std::move(stream->inflight.front());
  stream->inflight.pop_front();
  const char* verb = WireFrameTypeToString(inflight.type);
  if (inflight.streamed && !PrintShards(name, &inflight.call)) return false;
  Result<WireResponse> result = inflight.call.Wait();
  if (!result.ok()) return ServeError(name, verb, result.status());
  const WireResponse& response = *result;
  if (!response.status.ok()) {
    ServeError(name, verb, response.status);
    if (response.status.retry_after_ms() >= 0) {
      std::fprintf(stderr, "error: [%s] daemon shed the request; retry in "
                   "%lld ms\n",
                   name.c_str(),
                   static_cast<long long>(response.status.retry_after_ms()));
    }
    return false;
  }
  switch (response.kind) {
    case WireFrameType::kOpen:
      // A recovered stream already emitted rows before the crash; fold
      // them in so close writes the complete output.
      if (response.open.recovered) {
        (void)stream->emitted.Append(response.open.emitted);
        std::printf("[%s] recovered from journal: %llu batch(es), %llu "
                    "sealed epoch(s), %zu row(s) re-emitted%s\n",
                    name.c_str(),
                    static_cast<unsigned long long>(
                        response.open.batches_applied),
                    static_cast<unsigned long long>(
                        response.open.epochs_sealed),
                    response.open.emitted.num_rows(),
                    response.open.tail_truncated ? " (torn tail discarded)"
                                                 : "");
      }
      break;
    case WireFrameType::kIngest:
      (void)stream->emitted.Append(response.ingest.emitted);
      std::printf("[%s] ingest: +%llu rows emitted, %llu suppressed, "
                  "%llu buffered (epoch %llu, %llu threads)\n",
                  name.c_str(),
                  static_cast<unsigned long long>(
                      response.ingest.rows_emitted),
                  static_cast<unsigned long long>(
                      response.ingest.rows_suppressed),
                  static_cast<unsigned long long>(
                      response.ingest.rows_buffered),
                  static_cast<unsigned long long>(response.ingest.epoch),
                  static_cast<unsigned long long>(response.threads_granted));
      break;
    case WireFrameType::kFlush:
      (void)stream->emitted.Append(response.flush.emitted);
      std::printf("[%s] flush: epoch %llu emitted %zu rows, v %.6f "
                  "(%llu threads)\n",
                  name.c_str(),
                  static_cast<unsigned long long>(response.flush.epoch),
                  response.flush.emitted.num_rows(),
                  response.flush.identifier_statistic,
                  static_cast<unsigned long long>(response.threads_granted));
      break;
    case WireFrameType::kDetect:
      for (const DetectReport& report : response.reports) {
        size_t voted = 0;
        for (bool b : report.bit_voted) voted += b ? 1 : 0;
        std::printf("[%s] detect: mark %s, bits with votes %zu/%zu "
                    "(%llu threads)\n",
                    name.c_str(), report.recovered.ToString().c_str(), voted,
                    report.recovered.size(),
                    static_cast<unsigned long long>(
                        response.threads_granted));
      }
      break;
    case WireFrameType::kFingerprint:
      for (const FingerprintReport& report : response.fingerprints) {
        std::printf("[%s] fingerprint: %zu/%zu key(s) detected%s "
                    "(%llu threads)\n",
                    name.c_str(), report.keys_detected,
                    report.verdicts.size(),
                    report.collusion ? " COLLUSION" : "",
                    static_cast<unsigned long long>(
                        response.threads_granted));
        for (size_t i = 0; i < report.ranking.size(); ++i) {
          const KeyVerdict& v = report.verdicts[report.ranking[i]];
          std::printf("[%s]   %2zu. %-24s score %.6f  %s\n", name.c_str(),
                      i + 1, v.key_name.c_str(), v.score,
                      v.detected ? "DETECTED" : "clear");
        }
      }
      break;
    case WireFrameType::kClose: {
      std::printf("[%s] close: ingested %llu, emitted %llu, suppressed "
                  "%llu, %zu epoch(s)\n",
                  name.c_str(),
                  static_cast<unsigned long long>(
                      response.close.rows_ingested),
                  static_cast<unsigned long long>(
                      response.close.rows_emitted),
                  static_cast<unsigned long long>(
                      response.close.rows_suppressed),
                  response.close.epochs.size());
      // The daemon serialized each epoch's manifest server-side; write
      // the text verbatim.
      std::vector<std::string> manifest_texts;
      for (const WireEpochSummary& epoch : response.close.epochs) {
        manifest_texts.push_back(epoch.manifest_text);
      }
      const Result<std::vector<std::string>> written =
          WriteStreamFiles(stream->emitted, stream->out_path,
                           stream->manifest_path, manifest_texts);
      if (!written.ok()) return ServeError(name, verb, written.status());
      stream->closed = true;
      stream->client->Disconnect();
      break;
    }
    case WireFrameType::kResponse:
    case WireFrameType::kPartial:
      break;  // unreachable: the client validated the echoed kind
  }
  return true;
}

bool DrainStream(const std::string& name, ServeStream* stream) {
  while (!stream->inflight.empty()) {
    if (!AwaitOldest(name, stream)) return false;
  }
  return true;
}

// Sends `request` on the stream's connection without waiting for it.
// At the daemon's in-flight window the oldest call is waited out first,
// so the daemon never stops reading while this process is still writing
// (which could otherwise fill both socket buffers).
bool Submit(const std::string& name, ServeStream* stream,
            const WireRequest& request) {
  if (stream->inflight.size() >= kMaxInflightPerConnection &&
      !AwaitOldest(name, stream)) {
    return false;
  }
  Result<DaemonClient::PendingCall> call = stream->client->CallAsync(request);
  if (!call.ok()) {
    return ServeError(name, WireFrameTypeToString(request.type),
                      call.status());
  }
  stream->inflight.push_back({request.type, request.stream, *std::move(call)});
  return true;
}

// Runs the serve script against the daemon at `host`:`port`.
int ServeScript(const Args& args, std::istream& script,
                const std::string& host, uint16_t port) {
  const std::string passphrase = args.Flag("pass", "cli-default-pass");
  const NamedKey key = NamedKeyFromArgs(args);
  std::map<std::string, ServeStream> streams;
  std::string line;
  size_t line_no = 0;
  while (std::getline(script, line)) {
    ++line_no;
    const size_t hash = line.find('#');
    if (hash != std::string::npos) line = line.substr(0, hash);
    std::istringstream words(line);
    std::vector<std::string> tokens;
    for (std::string word; words >> word;) tokens.push_back(word);
    if (tokens.empty()) continue;
    const Args cmd = ParseTokens(tokens);
    auto bad_line = [&](const char* why) {
      std::fprintf(stderr, "error: script line %zu: %s\n", line_no, why);
      return 1;
    };
    if (cmd.positional.empty()) {
      return bad_line("missing verb (open|ingest|flush|detect|close)");
    }
    const std::string& verb = cmd.positional[0];
    if (verb == "open") {
      if (cmd.positional.size() != 4) {
        return bad_line("open <session> <out.csv> <manifest.out> [flags]");
      }
      SessionConfig session_config;
      std::string policy;
      if (int rc = ParseSessionConfig(cmd, &session_config, &policy);
          rc != 0) {
        return rc;
      }
      const std::string& name = cmd.positional[1];
      ServeStream stream;
      stream.out_path = cmd.positional[2];
      stream.manifest_path = cmd.positional[3];
      stream.client = std::make_unique<DaemonClient>(MedicalSchema());
      if (auto st = stream.client->Connect(host, port); !st.ok()) {
        return Fail(st);
      }
      WireRequest request;
      request.type = WireFrameType::kOpen;
      request.session = name;
      request.open.k = cmd.FlagPositive("k", 20);
      request.open.enforce_joint = cmd.flags.count("joint") > 0;
      request.open.auto_epsilon = cmd.flags.count("epsilon") > 0;
      request.open.num_threads = cmd.FlagU64("threads", 1);
      request.open.passphrase = passphrase;
      request.open.k1 = key.key.k1;
      request.open.k2 = key.key.k2;
      request.open.eta = key.key.eta;
      request.open.key_id = key.name;
      request.open.policy =
          session_config.policy == RebinPolicy::kRebinOnDrift ? 1 : 0;
      request.open.drift_threshold = session_config.drift_threshold;
      std::printf("[%s] open (k=%llu, %s)\n", name.c_str(),
                  static_cast<unsigned long long>(request.open.k),
                  policy.c_str());
      if (!Submit(name, &stream, request) || !DrainStream(name, &stream)) {
        return 1;
      }
      streams[name] = std::move(stream);
      continue;
    }
    if (cmd.positional.size() < 2) return bad_line("missing session name");
    const std::string& name = cmd.positional[1];
    auto it = streams.find(name);
    if (it == streams.end() || it->second.closed) {
      return bad_line("unknown or closed session");
    }
    ServeStream& stream = it->second;
    WireRequest request;
    request.session = name;
    request.ask = cmd.flags.count("threads") > 0 ? cmd.FlagU64("threads", 1)
                                                 : UINT64_MAX;
    if (cmd.flags.count("deadline-ms") > 0) {
      request.deadline_ms =
          static_cast<int64_t>(cmd.FlagU64("deadline-ms", 0));
    }
    // detect/fingerprint default to what the session emitted so far,
    // which requires the stream's in-flight calls to land first.
    auto suspect_copy = [&](size_t table_arg, Table* copy) {
      if (cmd.positional.size() > table_arg) {
        *copy = Must(ReadTableCsv(cmd.positional[table_arg], MedicalSchema()));
        return true;
      }
      if (!DrainStream(name, &stream)) return false;
      *copy = stream.emitted.Clone();
      return true;
    };
    if (verb == "ingest") {
      if (cmd.positional.size() != 3) {
        return bad_line("ingest <session> <in.csv>");
      }
      request.type = WireFrameType::kIngest;
      request.table = Must(ReadTableCsv(cmd.positional[2], MedicalSchema()));
    } else if (verb == "flush") {
      request.type = WireFrameType::kFlush;
    } else if (verb == "detect") {
      request.type = WireFrameType::kDetect;
      if (!suspect_copy(2, &request.table)) return 1;
    } else if (verb == "fingerprint") {
      if (cmd.positional.size() != 3 && cmd.positional.size() != 4) {
        return bad_line(
            "fingerprint <session> <registry> [<table.csv>] [--stream]");
      }
      request.type = WireFrameType::kFingerprint;
      request.registry_text =
          Must(KeyRegistry::ReadFile(cmd.positional[2])).Serialize();
      request.stream = cmd.flags.count("stream") > 0;
      if (!suspect_copy(3, &request.table)) return 1;
    } else if (verb == "close") {
      request.type = WireFrameType::kClose;
    } else {
      return bad_line(
          "unknown verb (open|ingest|flush|detect|fingerprint|close)");
    }
    if (!Submit(name, &stream, request)) return 1;
    if (verb == "close" && !DrainStream(name, &stream)) return 1;
  }

  // End of script: close whatever is still open.
  for (auto& [name, stream] : streams) {
    if (stream.closed) continue;
    WireRequest request;
    request.type = WireFrameType::kClose;
    request.session = name;
    if (!Submit(name, &stream, request) || !DrainStream(name, &stream)) {
      return 1;
    }
  }
  std::printf("served %zu stream(s) via %s:%u\n", streams.size(),
              host.c_str(), port);
  return 0;
}

int CmdServe(const Args& args) {
  if (args.positional.size() != 2) {
    std::fprintf(stderr,
                 "usage: privmark_cli serve <script> [--cap=N] "
                 "[--journal-dir=DIR] [--connect=host:port] "
                 "[--key=key.file] [--pass=] [--k1=] [--k2=] [--eta=]\n");
    return 2;
  }
  std::ifstream script(args.positional[1]);
  if (!script) {
    std::fprintf(stderr, "error: cannot open script '%s'\n",
                 args.positional[1].c_str());
    return 1;
  }
  const std::string endpoint = args.Flag("connect", "");
  if (!endpoint.empty()) {
    const size_t colon = endpoint.rfind(':');
    const Result<uint64_t> port =
        ParseDecimalU64(endpoint.substr(colon + 1), "port");
    if (colon == std::string::npos || colon == 0 || !port.ok() ||
        *port == 0 || *port > 65535) {
      std::fprintf(stderr,
                   "error: --connect needs host:port with a port in "
                   "1..65535, got '%s'\n",
                   endpoint.c_str());
      return 2;
    }
    return ServeScript(args, script, endpoint.substr(0, colon),
                       static_cast<uint16_t>(*port));
  }
  // No --connect: the same interpreter against a daemon embedded in this
  // process, built exactly as `privmark_cli daemon` builds its own. The
  // ontologies outlive the daemon (declared first, destroyed last).
  MedicalDataset ontologies = Must(GenerateMedicalDataset({.num_rows = 1}));
  PrivmarkDaemon daemon(DaemonConfigFromArgs(args, ontologies));
  if (auto st = daemon.Start(0); !st.ok()) return Fail(st);
  const int rc = ServeScript(args, script, "127.0.0.1", daemon.port());
  const Status st = daemon.Shutdown();
  if (rc != 0) return rc;
  return st.ok() ? 0 : Fail(st);
}

// ---- daemon: the network front-end ---------------------------------------

volatile std::sig_atomic_t g_daemon_stop = 0;
void HandleDaemonSignal(int) { g_daemon_stop = 1; }

int CmdDaemon(const Args& args) {
  if (args.positional.size() != 1) {
    std::fprintf(stderr,
                 "usage: privmark_cli daemon [--port=0] [--cap=N] "
                 "[--journal-dir=DIR] [--default-deadline-ms=0] "
                 "[--max-queue-depth=0] [--shutdown-deadline-ms=-1]\n");
    return 2;
  }
  const uint64_t port = args.FlagU64("port", 0);
  if (port > 65535) {
    std::fprintf(stderr, "error: --port out of range\n");
    return 2;
  }
  // The ontologies outlive the daemon; every opened stream's metrics
  // reference their trees.
  MedicalDataset ontologies = Must(GenerateMedicalDataset({.num_rows = 1}));

  DaemonConfig config = DaemonConfigFromArgs(args, ontologies);
  config.service.default_deadline_ms =
      static_cast<int64_t>(args.FlagU64("default-deadline-ms", 0));
  config.service.max_queue_depth = args.FlagU64("max-queue-depth", 0);

  PrivmarkDaemon daemon(std::move(config));
  if (auto st = daemon.Start(static_cast<uint16_t>(port)); !st.ok()) {
    return Fail(st);
  }
  std::printf("daemon listening on 127.0.0.1:%u (cap %llu%s%s)\n",
              daemon.port(),
              static_cast<unsigned long long>(daemon.service().thread_cap()),
              args.Flag("journal-dir", "").empty() ? "" : ", journal-dir ",
              args.Flag("journal-dir", "").c_str());
  std::fflush(stdout);  // scripts and tests parse the port off this line

  // sigaction without SA_RESTART, not std::signal: glibc's signal()
  // restarts the blocking stdin read after the handler runs, so a
  // SIGINT would never wake the getline below.
  struct sigaction action {};
  action.sa_handler = HandleDaemonSignal;
  ::sigaction(SIGINT, &action, nullptr);
  ::sigaction(SIGTERM, &action, nullptr);
  // Foreground service: stays up until the controlling script closes
  // stdin or sends a signal. Stray stdin lines are ignored.
  std::string line;
  while (g_daemon_stop == 0 && std::getline(std::cin, line)) {
  }

  const int64_t deadline =
      args.flags.count("shutdown-deadline-ms") > 0
          ? static_cast<int64_t>(args.FlagU64("shutdown-deadline-ms", 0))
          : -1;
  const Status st = daemon.Shutdown(deadline);
  std::printf("daemon stopped after %zu connection(s)\n",
              daemon.connections_accepted());
  return st.ok() ? 0 : Fail(st);
}

int CmdRecover(const Args& args) {
  if (args.positional.size() != 4) {
    std::fprintf(stderr,
                 "usage: privmark_cli recover <journal.wal> <out.csv> "
                 "<manifest.out> [--key=key.file] [--k=] [--eta=] [--pass=] "
                 "[--joint] [--epsilon] [--threads=] "
                 "[--rebin-policy=freeze|drift] [--drift-threshold=]\n");
    return 2;
  }
  MedicalDataset ontologies = Must(GenerateMedicalDataset({.num_rows = 1}));
  FrameworkConfig config = FrameworkConfigFromArgs(args);
  UsageMetrics metrics = Must(MetricsForConfig(config, ontologies));
  SessionConfig session_config;
  std::string policy;
  if (int rc = ParseSessionConfig(args, &session_config, &policy); rc != 0) {
    return rc;
  }

  // resume_journaling = false: this is offline inspection of a crashed
  // run's journal; leave the file byte-for-byte as the crash left it.
  RecoveredSession rec =
      Must(ProtectionSession::Recover(args.positional[1], metrics, config,
                                      session_config,
                                      /*resume_journaling=*/false));
  std::printf("replayed %zu batch(es), %zu sealed epoch(s) "
              "(%zu valid journal bytes%s)\n",
              rec.batches_applied, rec.epochs_sealed, rec.valid_bytes,
              rec.tail_truncated ? ", torn tail discarded" : "");

  const std::vector<std::string> paths =
      WriteSessionFiles(args, *rec.session, rec.emitted);
  std::printf("recovered %zu emitted row(s) -> %s\n", rec.emitted.num_rows(),
              args.positional[2].c_str());
  for (size_t e = 0; e < paths.size(); ++e) {
    const EpochRecord& epoch = rec.session->epochs()[e];
    std::printf("epoch %zu: %zu rows, v %.6f, manifest -> %s\n", epoch.epoch,
                epoch.rows_emitted, epoch.identifier_statistic,
                paths[e].c_str());
  }
  if (rec.session->rows_buffered() > 0) {
    std::printf("note: %zu row(s) were journaled but not yet flushed; "
                "re-open the stream (serve --journal-dir) to finish it\n",
                rec.session->rows_buffered());
  }
  return 0;
}

int CmdDispute(const Args& args) {
  if (args.positional.size() != 4) {
    std::fprintf(stderr,
                 "usage: privmark_cli dispute <table.csv> <manifest> "
                 "<claimed_v> [--pass=] [--k1=] [--k2=] [--eta=]\n");
    return 2;
  }
  double claimed_v = 0.0;
  if (!ParseFiniteDouble(args.positional[3], &claimed_v)) {
    std::fprintf(stderr, "<claimed_v> must be a finite number, got '%s'\n",
                 args.positional[3].c_str());
    return 2;
  }
  const Published published =
      LoadPublished(args, args.positional[2], KeyFromArgs(args));
  const Aes128 cipher =
      Aes128::FromPassphrase(args.Flag("pass", "cli-default-pass"));
  OwnershipConfig oc;
  oc.mark_bits = published.manifest.mark_bits;
  oc.hash = published.manifest.hash;
  DisputeVerdict verdict = Must(
      ResolveDispute(published.table, published.watermarker, cipher,
                     claimed_v, published.manifest.wmd_size, oc));
  std::printf("claimed v:    %.6f\nrecomputed v: %.6f\n", verdict.claimed_v,
              verdict.recomputed_v);
  std::printf("statistic consistent: %s\n",
              verdict.statistic_consistent ? "yes" : "no");
  std::printf("mark match: %.1f%% (chance probability %.3e)\n",
              verdict.mark_match * 100, verdict.p_value);
  std::printf("ownership: %s\n",
              verdict.ownership_established ? "ESTABLISHED" : "rejected");
  return verdict.ownership_established ? 0 : 3;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  if (args.positional.empty()) {
    std::fprintf(stderr,
                 "usage: privmark_cli "
                 "<generate|gen-key|protect|detect|cmp|attack|dispute|serve"
                 "|daemon|recover> ...\n");
    return 2;
  }
  const std::string& command = args.positional[0];
  if (command == "generate") return CmdGenerate(args);
  if (command == "gen-key") return CmdGenKey(args);
  if (command == "protect") return CmdProtect(args);
  if (command == "detect") return CmdDetect(args);
  if (command == "cmp") return CmdCmp(args);
  if (command == "attack") return CmdAttack(args);
  if (command == "dispute") return CmdDispute(args);
  if (command == "serve") return CmdServe(args);
  if (command == "daemon") return CmdDaemon(args);
  if (command == "recover") return CmdRecover(args);
  std::fprintf(stderr, "unknown command '%s'\n", command.c_str());
  return 2;
}

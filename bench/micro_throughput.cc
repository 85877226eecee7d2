// Micro-benchmarks (google-benchmark): throughput of the pipeline stages
// on the standard 20k-tuple data set. The paper reports no absolute
// timings (its testbed was a 2G-CPU/512M-RAM 2005 PC); these numbers
// document the cost profile of this implementation.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <vector>

#include <string>

#include <thread>

#include "bench_util.h"
#include "binning/binning_engine.h"
#include "common/binenc.h"
#include "common/parallel.h"
#include "common/random.h"
#include "core/session.h"
#include "crypto/aes128.h"
#include "crypto/aes128_internal.h"
#include "crypto/keyed_hash.h"
#include "crypto/sha1.h"
#include "hierarchy/encoded_view.h"
#include "service/client.h"
#include "service/daemon.h"
#include "service/service.h"
#include "service/wire.h"
#include "watermark/detect_index.h"
#include "watermark/hierarchical.h"
#include "watermark/key_registry.h"

namespace privmark {
namespace bench {
namespace {

struct SharedState {
  Environment env;
  BinningOutcome binned;
  std::unique_ptr<HierarchicalWatermarker> watermarker;
  Table marked;
  BitVector mark;
  size_t wmd_size = 0;
};

SharedState& State() {
  static SharedState* state = [] {
    auto* s = new SharedState;
    s->env = MakeEnvironment();
    FrameworkConfig config = MakeConfig(20, 75);
    BinningAgent agent(s->env.metrics, config.binning);
    s->binned = Unwrap(agent.Run(s->env.original()), "binning");
    s->watermarker = std::make_unique<HierarchicalWatermarker>(
        s->binned.qi_columns,
        *s->binned.binned.schema().IdentifyingColumn(),
        s->env.metrics.maximal, s->binned.ultimate, config.key,
        config.watermark);
    s->mark = Unwrap(BitVector::FromString("10110010011010111001"), "mark");
    s->marked = s->binned.binned.Clone();
    s->wmd_size =
        Unwrap(s->watermarker->Embed(&s->marked, s->mark), "embed").wmd_size;
    return s;
  }();
  return *state;
}

void BM_GenerateDataset(benchmark::State& state) {
  for (auto _ : state) {
    MedicalDataSpec spec;
    spec.num_rows = static_cast<size_t>(state.range(0));
    auto ds = GenerateMedicalDataset(spec);
    benchmark::DoNotOptimize(ds);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_GenerateDataset)
    ->Arg(1000)
    ->Arg(20000)
    ->Iterations(3)
    ->Unit(benchmark::kMillisecond);

void BM_MonoBinning20k(benchmark::State& state) {
  SharedState& s = State();
  BinningConfig config;
  config.k = static_cast<size_t>(state.range(0));
  config.enforce_joint = false;
  config.num_threads = static_cast<size_t>(state.range(1));
  BinningAgent agent(s.env.metrics, config);
  for (auto _ : state) {
    auto outcome = agent.Run(s.env.original());
    benchmark::DoNotOptimize(outcome);
  }
  state.SetItemsProcessed(state.iterations() * s.env.original().num_rows());
}
BENCHMARK(BM_MonoBinning20k)
    ->ArgNames({"k", "threads"})
    ->Args({10, 1})
    ->Args({10, 2})
    ->Args({10, 4})
    ->Args({10, 8})
    ->Args({100, 1})
    ->Iterations(3)
    ->Unit(benchmark::kMillisecond);

void BM_JointBinning20k(benchmark::State& state) {
  SharedState& s = State();
  const UsageMetrics unconstrained =
      UnconstrainedMetrics(s.env.dataset->trees());
  BinningConfig config;
  config.k = static_cast<size_t>(state.range(0));
  config.enforce_joint = true;
  BinningAgent agent(unconstrained, config);
  for (auto _ : state) {
    auto outcome = agent.Run(s.env.original());
    benchmark::DoNotOptimize(outcome);
  }
  state.SetItemsProcessed(state.iterations() * s.env.original().num_rows());
}
BENCHMARK(BM_JointBinning20k)->Arg(10)->Iterations(2)->Unit(
    benchmark::kMillisecond);

// Watermarker with the standard config but a benchmark-chosen thread
// count (outputs are byte-identical across counts; only throughput moves).
HierarchicalWatermarker ThreadedWatermarker(const SharedState& s,
                                            size_t num_threads) {
  FrameworkConfig config = MakeConfig(20, 75);
  config.watermark.num_threads = num_threads;
  return HierarchicalWatermarker(
      s.binned.qi_columns, *s.binned.binned.schema().IdentifyingColumn(),
      s.env.metrics.maximal, s.binned.ultimate, config.key, config.watermark);
}

void BM_WatermarkEmbed20k(benchmark::State& state) {
  SharedState& s = State();
  const HierarchicalWatermarker watermarker =
      ThreadedWatermarker(s, static_cast<size_t>(state.range(0)));
  // The fresh input clone is benchmark scaffolding, not embedding work —
  // at ~7 ms per 20k-table deep copy it would drown the ~1 ms embed being
  // measured — so it runs outside the timed region.
  for (auto _ : state) {
    state.PauseTiming();
    {
      Table table = s.binned.binned.Clone();
      state.ResumeTiming();
      auto report = watermarker.Embed(&table, s.mark);
      benchmark::DoNotOptimize(report);
      state.PauseTiming();
    }  // the clone's destruction stays off the clock as well
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * s.binned.binned.num_rows());
}
BENCHMARK(BM_WatermarkEmbed20k)
    ->ArgNames({"threads"})
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Iterations(5)
    ->Unit(benchmark::kMillisecond);

void BM_WatermarkDetect20k(benchmark::State& state) {
  SharedState& s = State();
  const HierarchicalWatermarker watermarker =
      ThreadedWatermarker(s, static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    auto report = watermarker.Detect(s.marked, s.mark.size(), s.wmd_size);
    benchmark::DoNotOptimize(report);
  }
  state.SetItemsProcessed(state.iterations() * s.marked.num_rows());
}
BENCHMARK(BM_WatermarkDetect20k)
    ->ArgNames({"threads"})
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Iterations(5)
    ->Unit(benchmark::kMillisecond);

void BM_MultiKeyDetect20k(benchmark::State& state) {
  // Registry-scan cost: one shared DetectIndex over the marked 20k table,
  // then keyed tallies for `keys` candidate keys sharded over `threads`
  // workers. The index is built once outside the loop — this isolates the
  // per-key tally cost that dominates large registries, versus
  // BM_WatermarkDetect20k which pays the full fused scan per key.
  SharedState& s = State();
  const size_t num_keys = static_cast<size_t>(state.range(0));
  const size_t threads = static_cast<size_t>(state.range(1));
  const DetectIndex index =
      Unwrap(BuildDetectIndex(*s.watermarker, s.marked), "detect index");
  Random keygen(7);
  std::vector<WatermarkKey> keys = {MakeConfig(20, 75).key};
  while (keys.size() < num_keys) {
    keys.push_back(
        GenerateKey("k" + std::to_string(keys.size()), 75, &keygen).key);
  }
  std::unique_ptr<ThreadPool> pool;
  if (threads > 1) pool = MakeThreadPool(threads);
  for (auto _ : state) {
    auto reports = MultiKeyTally(index, keys, HashAlgorithm::kSha1,
                                 s.mark.size(), s.wmd_size, pool.get());
    CheckOk(reports.status(), "multi-key tally");
    benchmark::DoNotOptimize(reports);
  }
  state.SetItemsProcessed(state.iterations() * num_keys);
}
BENCHMARK(BM_MultiKeyDetect20k)
    ->ArgNames({"keys", "threads"})
    ->Args({1, 1})
    ->Args({16, 1})
    ->Args({16, 4})
    ->Args({64, 1})  // the audit workload's registry, serial
    ->Args({256, 1})
    ->Args({256, 4})
    ->Args({256, 8})
    ->Iterations(3)
    ->Unit(benchmark::kMillisecond);

void BM_AesEncryptValue(benchmark::State& state) {
  // Labelled with the block backend Aes128 dispatched to on this machine.
  state.SetLabel(crypto_internal::AesNiActive() ? "aesni" : "portable");
  const Aes128 cipher = Aes128::FromPassphrase("bench");
  size_t i = 0;
  for (auto _ : state) {
    auto out = cipher.EncryptValue("12345678" + std::to_string(i++ % 10));
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AesEncryptValue);

void BM_MaterializeProtected20k(benchmark::State& state) {
  // The materialize stage of a flush on its own: encrypt the 20k
  // identifiers and write each QI cell's ultimate label (evaluation depth
  // cuts), serial. Labelled with the AES backend it ran on.
  SharedState& s = State();
  const Table& input = s.env.original();
  const std::vector<size_t>& qi_columns = s.binned.qi_columns;
  std::vector<const DomainHierarchy*> trees;
  for (const auto& gs : s.env.metrics.maximal) trees.push_back(gs.tree());
  const EncodedView view =
      Unwrap(EncodedView::Leaves(input, qi_columns, trees), "encode");
  const size_t ident = *input.schema().IdentifyingColumn();
  const Aes128 cipher =
      Aes128::FromPassphrase(BinningConfig().encryption_passphrase);
  state.SetLabel(crypto_internal::AesNiActive() ? "aesni" : "portable");
  for (auto _ : state) {
    auto binned = MaterializeProtected(input, qi_columns, ident,
                                       s.binned.ultimate, view, cipher,
                                       nullptr);
    CheckOk(binned.status(), "materialize");
    benchmark::DoNotOptimize(binned);
  }
  state.SetItemsProcessed(state.iterations() * input.num_rows());
}
BENCHMARK(BM_MaterializeProtected20k)
    ->Iterations(5)
    ->Unit(benchmark::kMillisecond);

void BM_Sha1Hash(benchmark::State& state) {
  std::string payload(static_cast<size_t>(state.range(0)), 'x');
  for (auto _ : state) {
    auto digest = Sha1::Hash(payload);
    benchmark::DoNotOptimize(digest);
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Sha1Hash)->Arg(64)->Arg(4096);

void BM_KeyedHashBatch(benchmark::State& state) {
  // Per-hash cost of the batched keyed-hash entry point at a given batch
  // size (lanes=1 is the scalar fallback path) and message length. The
  // watermark hot loops call this with whole row blocks; the lanes sweep
  // shows how much of the multi-buffer kernel's speedup each batch shape
  // actually collects. items == hashes.
  const size_t lanes = static_cast<size_t>(state.range(0));
  const size_t msg_len = static_cast<size_t>(state.range(1));
  const std::string key = "bench-k1-secret";
  std::vector<std::string> messages(lanes);
  for (size_t i = 0; i < lanes; ++i) {
    messages[i] = std::string(msg_len, static_cast<char>('a' + i % 26));
  }
  std::vector<std::string_view> views(messages.begin(), messages.end());
  std::vector<uint64_t> outs(lanes);
  for (auto _ : state) {
    KeyedHash64Batch(HashAlgorithm::kSha1, key, views.data(), lanes,
                     outs.data());
    benchmark::DoNotOptimize(outs.data());
  }
  state.SetItemsProcessed(state.iterations() * lanes);
}
BENCHMARK(BM_KeyedHashBatch)
    ->ArgNames({"lanes", "len"})
    ->Args({1, 24})
    ->Args({4, 24})
    ->Args({8, 24})
    ->Args({64, 24})
    ->Args({8, 96})
    ->Args({64, 96})
    // Registry-scan shapes: with the 15-byte key, len 32 is one padded
    // block like an Eq. (5) selection hash over a 32-char ident, len 45
    // two blocks like a "pos:<ident>:<column>" position message.
    ->Args({16, 32})
    ->Args({64, 32})
    ->Args({64, 45});

void BM_StreamingIngest20k(benchmark::State& state) {
  // End-to-end streaming throughput (rows/sec): the 20k table replayed
  // through a freeze-mode ProtectionSession in batch-size batches plus
  // one flush — the full protect pipeline (encode, count-merge, bin,
  // materialize, embed) under incremental ingest. Batch = 20000 is the
  // degenerate single-batch case (one-shot Protect through the session).
  SharedState& s = State();
  const size_t batch_size = static_cast<size_t>(state.range(0));
  const Table& original = s.env.original();
  std::vector<Table> batches;
  for (size_t begin = 0; begin < original.num_rows(); begin += batch_size) {
    batches.push_back(original.Slice(begin, begin + batch_size));
  }
  FrameworkConfig config = MakeConfig(20, 75);
  config.binning.num_threads = static_cast<size_t>(state.range(1));
  config.watermark.num_threads = config.binning.num_threads;
  for (auto _ : state) {
    ProtectionSession session(s.env.metrics, config, SessionConfig());
    for (const Table& batch : batches) {
      auto result = session.Ingest(batch);
      CheckOk(result.status(), "ingest");
    }
    auto flushed = session.Flush();
    CheckOk(flushed.status(), "flush");
    benchmark::DoNotOptimize(flushed);
  }
  state.SetItemsProcessed(state.iterations() * original.num_rows());
}
BENCHMARK(BM_StreamingIngest20k)
    ->ArgNames({"batch", "threads"})
    ->Args({20000, 1})
    ->Args({1000, 1})
    ->Args({100, 1})
    ->Args({1000, 2})
    ->Args({1000, 4})
    ->Iterations(2)
    ->Unit(benchmark::kMillisecond);

void BM_ServiceThroughput(benchmark::State& state) {
  // Request throughput of the async service front-end: `sessions`
  // concurrent streams, each replaying a disjoint 2000-row slice of the
  // 20k table in 500-row ProtectBatch requests plus one Flush, on one
  // shared pool of `cap` workers. Reported rate = requests/sec across
  // all sessions (items == requests); sessions x cap sweeps how the
  // sessions' turns share the cap workers.
  SharedState& s = State();
  const size_t num_sessions = static_cast<size_t>(state.range(0));
  const size_t cap = static_cast<size_t>(state.range(1));
  const size_t rows_per_session = 2000;
  const size_t batch_rows = 500;
  std::vector<std::vector<Table>> batches(num_sessions);
  for (size_t i = 0; i < num_sessions; ++i) {
    const size_t base = (i * rows_per_session) % s.env.original().num_rows();
    for (size_t begin = 0; begin < rows_per_session; begin += batch_rows) {
      batches[i].push_back(
          s.env.original().Slice(base + begin, base + begin + batch_rows));
    }
  }
  FrameworkConfig config = MakeConfig(20, 75);
  config.binning.num_threads = 0;  // every request asks for the whole cap
  config.watermark.num_threads = 0;
  size_t requests = 0;
  for (auto _ : state) {
    ServiceConfig service_config;
    service_config.thread_cap = cap;
    PrivmarkService service(service_config);
    for (size_t i = 0; i < num_sessions; ++i) {
      CheckOk(service.OpenSession("s" + std::to_string(i), s.env.metrics,
                                  config),
              "open session");
    }
    std::vector<ServiceFuture> futures;
    for (size_t i = 0; i < num_sessions; ++i) {
      const std::string name = "s" + std::to_string(i);
      for (const Table& batch : batches[i]) {
        futures.push_back(service.ProtectBatch(name, batch.Clone()));
      }
      futures.push_back(service.Flush(name));
    }
    for (ServiceFuture& future : futures) {
      CheckOk(future.get().status(), "service request");
    }
    requests += futures.size();
    service.Shutdown();
  }
  state.SetItemsProcessed(static_cast<int64_t>(requests));
}
BENCHMARK(BM_ServiceThroughput)
    ->ArgNames({"sessions", "cap"})
    ->Args({1, 1})
    ->Args({4, 1})
    ->Args({4, 4})
    ->Args({8, 4})
    ->Iterations(2)
    ->Unit(benchmark::kMillisecond);

void BM_ServiceThroughputLoopback(benchmark::State& state) {
  // The same sessions x cap sweep as BM_ServiceThroughput, but through
  // the network daemon over real loopback sockets: each session is one
  // DaemonClient connection driven by its own thread. The delta against
  // the in-process numbers is the whole wire overhead — framing, CRCs,
  // the columnar table codec both ways, and one connection's
  // request/response round-trips.
  SharedState& s = State();
  const size_t num_sessions = static_cast<size_t>(state.range(0));
  const size_t cap = static_cast<size_t>(state.range(1));
  const size_t rows_per_session = 2000;
  const size_t batch_rows = 500;
  std::vector<std::vector<Table>> batches(num_sessions);
  for (size_t i = 0; i < num_sessions; ++i) {
    const size_t base = (i * rows_per_session) % s.env.original().num_rows();
    for (size_t begin = 0; begin < rows_per_session; begin += batch_rows) {
      batches[i].push_back(
          s.env.original().Slice(base + begin, base + begin + batch_rows));
    }
  }
  size_t requests = 0;
  for (auto _ : state) {
    DaemonConfig daemon_config;
    daemon_config.service.thread_cap = cap;
    daemon_config.schema = s.env.original().schema();
    daemon_config.metrics_for_config =
        [&s](const FrameworkConfig&) -> Result<UsageMetrics> {
      return s.env.metrics;
    };
    PrivmarkDaemon daemon(std::move(daemon_config));
    CheckOk(daemon.Start(0), "daemon start");
    std::vector<std::thread> drivers;
    for (size_t i = 0; i < num_sessions; ++i) {
      drivers.emplace_back([&s, &daemon, &batches, i] {
        const std::string name = "s" + std::to_string(i);
        DaemonClient client(s.env.original().schema());
        CheckOk(client.Connect("127.0.0.1", daemon.port()), "connect");
        WireRequest open;
        open.type = WireFrameType::kOpen;
        open.session = name;
        open.open.k = 20;
        open.open.enforce_joint = false;
        open.open.passphrase = "bench-owner-passphrase";
        open.open.k1 = "bench-k1";
        open.open.k2 = "bench-k2";
        open.open.eta = 75;
        open.open.num_threads = 0;  // every request asks for the whole cap
        auto opened = client.Call(open);
        CheckOk(opened.status(), "open transport");
        CheckOk(opened->status, "open session");
        for (const Table& batch : batches[i]) {
          WireRequest ingest;
          ingest.type = WireFrameType::kIngest;
          ingest.session = name;
          ingest.table = batch.Clone();
          auto response = client.Call(ingest);
          CheckOk(response.status(), "ingest transport");
          CheckOk(response->status, "ingest");
        }
        WireRequest flush;
        flush.type = WireFrameType::kFlush;
        flush.session = name;
        auto flushed = client.Call(flush);
        CheckOk(flushed.status(), "flush transport");
        CheckOk(flushed->status, "flush");
      });
    }
    for (std::thread& driver : drivers) driver.join();
    requests += num_sessions * (batches[0].size() + 1);
    CheckOk(daemon.Shutdown(), "daemon shutdown");
  }
  state.SetItemsProcessed(static_cast<int64_t>(requests));
}
BENCHMARK(BM_ServiceThroughputLoopback)
    ->ArgNames({"sessions", "cap"})
    ->Args({1, 1})
    ->Args({4, 1})
    ->Args({4, 4})
    ->Args({8, 4})
    ->Iterations(2)
    ->Unit(benchmark::kMillisecond);

void BM_StreamedFingerprintLoopback(benchmark::State& state) {
  // Protocol-v2 streamed fingerprint over a real loopback socket: one
  // connection, one protected epoch, a registry of `keys` candidates,
  // and each iteration drains every kPartial shard before the terminal
  // response. The delta against an in-process scan is the v2 streaming
  // overhead — per-shard framing, CRCs, and the client's demux path.
  SharedState& s = State();
  const size_t num_keys = static_cast<size_t>(state.range(0));

  DaemonConfig daemon_config;
  daemon_config.service.thread_cap = 4;
  daemon_config.schema = s.env.original().schema();
  daemon_config.metrics_for_config =
      [&s](const FrameworkConfig&) -> Result<UsageMetrics> {
    return s.env.metrics;
  };
  PrivmarkDaemon daemon(std::move(daemon_config));
  CheckOk(daemon.Start(0), "daemon start");
  DaemonClient client(s.env.original().schema());
  CheckOk(client.Connect("127.0.0.1", daemon.port()), "connect");

  WireRequest open;
  open.type = WireFrameType::kOpen;
  open.session = "audit";
  open.open.k = 20;
  open.open.enforce_joint = false;
  open.open.passphrase = "bench-owner-passphrase";
  open.open.k1 = "bench-k1";
  open.open.k2 = "bench-k2";
  open.open.eta = 75;
  open.open.num_threads = 0;  // scan with the whole cap
  auto opened = client.Call(open);
  CheckOk(opened.status(), "open transport");
  CheckOk(opened->status, "open session");

  WireRequest ingest;
  ingest.type = WireFrameType::kIngest;
  ingest.session = "audit";
  ingest.table = s.env.original().Slice(0, 2000);
  auto ingested = client.Call(ingest);
  CheckOk(ingested.status(), "ingest transport");
  CheckOk(ingested->status, "ingest");
  WireRequest flush;
  flush.type = WireFrameType::kFlush;
  flush.session = "audit";
  auto flushed = client.Call(flush);
  CheckOk(flushed.status(), "flush transport");
  CheckOk(flushed->status, "flush");
  const Table suspect = flushed->flush.emitted.Clone();

  KeyRegistry registry;
  CheckOk(registry.Add(NamedKey{"owner", {"bench-k1", "bench-k2", 75}}),
          "owner key");
  Random keygen(2005);
  for (size_t i = 1; i < num_keys; ++i) {
    CheckOk(registry.Add(GenerateKey("k" + std::to_string(i), 75, &keygen)),
            "decoy key");
  }

  WireRequest scan;
  scan.type = WireFrameType::kFingerprint;
  scan.session = "audit";
  scan.registry_text = registry.Serialize();
  scan.stream = true;
  size_t keys_scanned = 0;
  for (auto _ : state) {
    scan.table = suspect.Clone();
    auto pending = client.CallAsync(scan);
    CheckOk(pending.status(), "scan send");
    FingerprintShard shard;
    while (true) {
      auto more = pending->NextShard(&shard);
      CheckOk(more.status(), "shard");
      if (!*more) break;
      benchmark::DoNotOptimize(shard.verdicts.data());
    }
    auto scanned = pending->Wait();
    CheckOk(scanned.status(), "scan transport");
    CheckOk(scanned->status, "scan");
    keys_scanned += num_keys;
  }
  state.SetItemsProcessed(static_cast<int64_t>(keys_scanned));
  CheckOk(daemon.Shutdown(), "daemon shutdown");
}
BENCHMARK(BM_StreamedFingerprintLoopback)
    ->ArgNames({"keys"})
    ->Arg(32)
    ->Arg(128)
    ->Iterations(2)
    ->Unit(benchmark::kMillisecond);

void BM_WireTableCodec(benchmark::State& state) {
  // The codec half of one daemon ingest round trip: a 500-row batch and
  // its binned, marked emission, each encoded, framed, unframed and
  // decoded. Every iteration uses fresh per-connection codecs warmed on
  // the previous 500 rows (untimed), so the QI vocabulary is already in
  // the dictionaries and the identifiers are new, as on a live
  // connection. `bytes` is both frames' size.
  SharedState& s = State();
  const Table warm_batch = s.env.original().Slice(0, 500);
  const Table batch = s.env.original().Slice(500, 1000);
  const Table warm_emission = s.marked.Slice(0, 500);
  const Table emission = s.marked.Slice(500, 1000);
  const auto round_trip = [](const Table& table, WireTableEncoder* encoder,
                             WireTableDecoder* decoder) {
    WireFrame frame;
    frame.type = WireFrameType::kIngest;
    encoder->Encode(table, &frame.payload);
    const std::string encoded =
        Unwrap(EncodeWireFrame(frame, kWireProtocolV2), "frame");
    const size_t body_length =
        Unwrap(WireFrameBodyLength(encoded.data()), "frame length");
    const WireFrame unframed = Unwrap(
        DecodeWireFrameBody(encoded.data(),
                            encoded.substr(kWireFrameHeaderBytes,
                                           body_length)),
        "unframe");
    BinReader reader(unframed.payload);
    Table decoded = Unwrap(decoder->Decode(&reader), "decode");
    benchmark::DoNotOptimize(decoded);
    return encoded.size();
  };
  // Held outside the loop so the previous iteration's codecs are
  // destroyed while the timer is paused.
  std::optional<WireTableEncoder> request_encoder;
  std::optional<WireTableDecoder> request_decoder;
  std::optional<WireTableEncoder> response_encoder;
  std::optional<WireTableDecoder> response_decoder;
  size_t bytes = 0;
  for (auto _ : state) {
    state.PauseTiming();
    request_encoder.emplace();
    request_decoder.emplace(batch.schema());
    response_encoder.emplace();
    response_decoder.emplace(emission.schema());
    round_trip(warm_batch, &*request_encoder, &*request_decoder);
    round_trip(warm_emission, &*response_encoder, &*response_decoder);
    state.ResumeTiming();
    bytes = round_trip(batch, &*request_encoder, &*request_decoder) +
            round_trip(emission, &*response_encoder, &*response_decoder);
  }
  state.counters["bytes"] = static_cast<double>(bytes);
}
BENCHMARK(BM_WireTableCodec)->Unit(benchmark::kMicrosecond);

void BM_EncodeView20k(benchmark::State& state) {
  // Cost of the dictionary-encoding pass itself: resolving every QI cell
  // of the 20k table to its leaf NodeId once. This is what each pipeline
  // stage used to pay per pass and now pays once per run.
  SharedState& s = State();
  std::vector<const DomainHierarchy*> trees;
  for (const auto& gs : s.env.metrics.maximal) trees.push_back(gs.tree());
  const std::vector<size_t> qi_columns =
      s.env.original().schema().QuasiIdentifyingColumns();
  for (auto _ : state) {
    auto view = EncodedView::Leaves(s.env.original(), qi_columns, trees);
    benchmark::DoNotOptimize(view);
  }
  state.SetItemsProcessed(state.iterations() * s.env.original().num_rows() *
                          qi_columns.size());
}
BENCHMARK(BM_EncodeView20k)->Iterations(5)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace bench
}  // namespace privmark

// Custom main instead of BENCHMARK_MAIN(): records whether *this library*
// was compiled with optimizations into the JSON context. (The benchmark
// library's own "library_build_type" field describes libbenchmark, not us —
// distro packages often ship it assertion-enabled, which made Release runs
// look like debug runs.)
int main(int argc, char** argv) {
#ifdef NDEBUG
  benchmark::AddCustomContext("privmark_build_type", "release");
#else
  benchmark::AddCustomContext("privmark_build_type", "debug");
#endif
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

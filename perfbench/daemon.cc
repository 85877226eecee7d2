// daemon: ingest request round trips against a loopback PrivmarkDaemon.

#include <string>
#include <vector>

#include "core/session.h"
#include "service/client.h"
#include "service/convert.h"
#include "service/daemon.h"
#include "workloads.h"

namespace privmark {
namespace perfbench {
namespace {

constexpr size_t kInitialRows = 4000;  // ingested + flushed at set-up
constexpr size_t kBatchRows = 500;     // one measured request's batch
constexpr char kSession[] = "ward";
constexpr char kMirrorSession[] = "ward-mirror";

// Declaration order is destruction order reversed: the client disconnects
// before the daemon shuts down, and the daemon stops before the dataset
// (whose hierarchies its sessions reference) goes away.
struct DaemonInput {
  Dataset dataset;
  FrameworkConfig config;
  std::unique_ptr<PrivmarkDaemon> daemon;
  std::unique_ptr<DaemonClient> client;
  /// One prebuilt kIngest request per 500-row stream batch.
  std::vector<WireRequest> requests;
  /// What an in-process session emits for each batch.
  std::vector<Table> reference;
  // Traced runs replay each request's wire and service work on a mirror
  // session of the same daemon, through codecs whose dictionaries
  // persist across requests like a connection's.
  WireTableEncoder request_encoder;
  std::unique_ptr<WireTableDecoder> request_decoder;
  WireTableEncoder response_encoder;
  std::unique_ptr<WireTableDecoder> response_decoder;
};

WireRequest OpenRequest(const FrameworkConfig& config) {
  WireRequest open;
  open.type = WireFrameType::kOpen;
  open.session = kSession;
  open.open.k = config.binning.k;
  open.open.enforce_joint = config.binning.enforce_joint;
  open.open.num_threads = config.binning.num_threads;
  open.open.passphrase = config.binning.encryption_passphrase;
  open.open.k1 = config.key.k1;
  open.open.k2 = config.key.k2;
  open.open.eta = config.key.eta;
  return open;
}

Result<WireResponse> CallOk(DaemonClient* client, const WireRequest& request) {
  PRIVMARK_ASSIGN_OR_RETURN(WireResponse response, client->Call(request));
  PRIVMARK_RETURN_NOT_OK(response.status);
  return response;
}

Status SetUpDaemon(uint64_t seed, DaemonInput* input) {
  PRIVMARK_ASSIGN_OR_RETURN(input->dataset,
                            MakeDataset(20000, MixSeed(seed, 200)));
  input->config = MakeConfig(20, 75, /*enforce_joint=*/false);
  const Table& table = input->dataset.table();
  const UsageMetrics metrics = input->dataset.metrics;

  DaemonConfig daemon_config;
  daemon_config.service.thread_cap = 1;
  daemon_config.schema = table.schema();
  daemon_config.metrics_for_config =
      [metrics](const FrameworkConfig&) -> Result<UsageMetrics> {
    return metrics;
  };
  input->daemon = std::make_unique<PrivmarkDaemon>(std::move(daemon_config));
  PRIVMARK_RETURN_NOT_OK(input->daemon->Start(0));
  input->client = std::make_unique<DaemonClient>(table.schema());
  PRIVMARK_RETURN_NOT_OK(
      input->client->Connect("127.0.0.1", input->daemon->port()));

  // Open the stream and freeze its epoch 0 on the first rows, over the
  // wire and in process alike.
  PRIVMARK_RETURN_NOT_OK(
      CallOk(input->client.get(), OpenRequest(input->config)).status());
  const Table initial = table.Slice(0, kInitialRows);
  WireRequest ingest;
  ingest.type = WireFrameType::kIngest;
  ingest.session = kSession;
  ingest.table = initial.Clone();
  PRIVMARK_RETURN_NOT_OK(CallOk(input->client.get(), ingest).status());
  WireRequest flush;
  flush.type = WireFrameType::kFlush;
  flush.session = kSession;
  PRIVMARK_ASSIGN_OR_RETURN(WireResponse flushed,
                            CallOk(input->client.get(), flush));

  ProtectionSession session(metrics, input->config);
  PRIVMARK_RETURN_NOT_OK(session.Ingest(initial).status());
  PRIVMARK_ASSIGN_OR_RETURN(EpochOutput epoch, session.Flush());
  if (!SameTable(flushed.flush.emitted, epoch.outcome.watermarked)) {
    return Status::VerificationFailed("daemon epoch 0 differs from in-process");
  }

  PrivmarkService& service = input->daemon->service();
  PRIVMARK_RETURN_NOT_OK(
      service.OpenSession(kMirrorSession, metrics, input->config));
  PRIVMARK_RETURN_NOT_OK(
      service.ProtectBatch(kMirrorSession, initial.Clone()).get().status());
  PRIVMARK_RETURN_NOT_OK(service.Flush(kMirrorSession).get().status());
  input->request_decoder = std::make_unique<WireTableDecoder>(table.schema());
  input->response_decoder = std::make_unique<WireTableDecoder>(table.schema());

  for (size_t begin = kInitialRows; begin < table.num_rows();
       begin += kBatchRows) {
    WireRequest request;
    request.type = WireFrameType::kIngest;
    request.session = kSession;
    request.table = table.Slice(begin, begin + kBatchRows);
    PRIVMARK_ASSIGN_OR_RETURN(IngestResult emitted,
                              session.Ingest(request.table));
    input->reference.push_back(std::move(emitted.emitted));
    input->requests.push_back(std::move(request));
  }
  return Status::OK();
}

// The traced replay of one request on the mirror session: request
// encode + framing + decode, the service call, then response build +
// encode + framing + decode. Returns the decoded emitted batch.
Result<Table> MirrorRequest(DaemonInput* input, const WireRequest& request,
                            Trace* trace) {
  size_t wire_bytes = 0;
  const auto encode_frame =
      [&wire_bytes](WireFrameType type, std::string payload) -> Status {
    wire_bytes += payload.size();
    WireFrame frame;
    frame.type = type;
    frame.request_id = 1;
    frame.payload = std::move(payload);
    return EncodeWireFrame(frame, kWireProtocolV2).status();
  };
  PRIVMARK_ASSIGN_OR_RETURN(
      WireRequest decoded,
      trace->Span("wire_codec_ms", [&]() -> Result<WireRequest> {
        std::string payload =
            EncodeWireRequest(request, &input->request_encoder);
        PRIVMARK_RETURN_NOT_OK(encode_frame(request.type, payload));
        return DecodeWireRequest(request.type, payload,
                                 input->request_decoder.get());
      }));
  Result<ServiceResponse> served = trace->Span("service_ms", [&] {
    return input->daemon->service()
        .ProtectBatch(kMirrorSession, std::move(decoded.table))
        .get();
  });
  PRIVMARK_RETURN_NOT_OK(served.status());
  PRIVMARK_ASSIGN_OR_RETURN(
      WireResponse response,
      trace->Span("wire_codec_ms", [&]() -> Result<WireResponse> {
        const WireResponse built =
            ToWireResponse(WireFrameType::kIngest, std::move(served));
        std::string payload =
            EncodeWireResponse(built, &input->response_encoder);
        PRIVMARK_RETURN_NOT_OK(
            encode_frame(WireFrameType::kResponse, payload));
        return DecodeWireResponse(payload, input->response_decoder.get());
      }));
  trace->Count("wire_bytes", static_cast<double>(wire_bytes));
  trace->Count("rows_per_op", static_cast<double>(request.table.num_rows()));
  PRIVMARK_RETURN_NOT_OK(response.status);
  return std::move(response.ingest.emitted);
}

}  // namespace

Result<WorkloadReport> RunDaemon(const RunOptions& options) {
  std::unique_ptr<DaemonInput> input;
  PRIVMARK_ASSIGN_OR_RETURN(
      double setup_s,
      TimeSetup(5, [&] { input.reset(); },
                [&] {
                  input = std::make_unique<DaemonInput>();
                  return SetUpDaemon(options.seed, input.get());
                }));
  size_t next = 0;
  WorkloadReport report = MeasureWindow(
      options, setup_s, [&](Trace* trace, double* latency_ms) -> Status {
        const size_t i = next++ % input->requests.size();
        const WireRequest& request = input->requests[i];
        double mirror_ms = 0.0;
        if (options.trace) {
          const Clock::time_point mirror_start = Clock::now();
          PRIVMARK_ASSIGN_OR_RETURN(Table mirrored,
                                    MirrorRequest(input.get(), request, trace));
          mirror_ms = MillisSince(mirror_start);
          if (!SameTable(mirrored, input->reference[i])) {
            return Status::VerificationFailed("mirror emission differs");
          }
        }
        const Clock::time_point start = Clock::now();
        PRIVMARK_ASSIGN_OR_RETURN(WireResponse response,
                                  CallOk(input->client.get(), request));
        *latency_ms = MillisSince(start);
        if (options.trace) {
          // What the round trip spent beyond the codec and service work
          // the mirror replay measured: sockets, thread hand-offs, and
          // any stall between them.
          trace->AddSpan("transport_ms", *latency_ms - mirror_ms);
        }
        if (!SameTable(response.ingest.emitted, input->reference[i])) {
          return Status::VerificationFailed(
              "daemon emission differs from in-process session");
        }
        return Status::OK();
      });
  input->client->Disconnect();
  PRIVMARK_RETURN_NOT_OK(input->daemon->Shutdown());
  return report;
}

}  // namespace perfbench
}  // namespace privmark

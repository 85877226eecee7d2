#include "service/convert.h"

#include <memory>
#include <utility>

#include "core/manifest.h"
#include "watermark/key_registry.h"

namespace privmark {

Result<RequestKind> RequestKindForFrame(WireFrameType type) {
  switch (type) {
    case WireFrameType::kIngest:
      return RequestKind::kProtectBatch;
    case WireFrameType::kFlush:
      return RequestKind::kFlush;
    case WireFrameType::kDetect:
      return RequestKind::kDetect;
    case WireFrameType::kFingerprint:
      return RequestKind::kDetectFingerprint;
    case WireFrameType::kClose:
      return RequestKind::kCloseSession;
    case WireFrameType::kOpen:      // registry bookkeeping, not strand work
    case WireFrameType::kResponse:
    case WireFrameType::kPartial:
      break;
  }
  return Status::InvalidArgument(std::string("a ") +
                                 WireFrameTypeToString(type) +
                                 " frame has no service-request shape");
}

Result<ServiceRequest> ToServiceRequest(WireRequest request) {
  ServiceRequest service_request;
  PRIVMARK_ASSIGN_OR_RETURN(service_request.kind,
                            RequestKindForFrame(request.type));
  service_request.session = request.session;
  service_request.table = std::move(request.table);
  service_request.num_threads = static_cast<size_t>(request.ask);
  service_request.deadline_ms = request.deadline_ms;
  if (request.type == WireFrameType::kFingerprint) {
    PRIVMARK_ASSIGN_OR_RETURN(KeyRegistry registry,
                              KeyRegistry::Parse(request.registry_text));
    service_request.registry =
        std::make_shared<const KeyRegistry>(std::move(registry));
  }
  return service_request;
}

WireResponse ToWireResponse(WireFrameType kind,
                            Result<ServiceResponse> result) {
  WireResponse response;
  response.kind = kind;
  if (!result.ok()) {
    // The fully-defined non-OK envelope: nothing granted, the stream's
    // durability barrier not implicated, the retry hint on the status.
    response.status = result.status();
    response.threads_granted = 0;
    return response;
  }
  ServiceResponse& executed = *result;
  response.journal_status = executed.journal_status;
  response.threads_granted = executed.threads_granted;
  switch (kind) {
    case WireFrameType::kIngest:
      response.ingest.epoch = executed.ingest.epoch;
      response.ingest.flushed = executed.ingest.flushed;
      response.ingest.rows_emitted = executed.ingest.rows_emitted;
      response.ingest.rows_suppressed = executed.ingest.rows_suppressed;
      response.ingest.rows_buffered = executed.ingest.rows_buffered;
      response.ingest.emitted = std::move(executed.ingest.emitted);
      break;
    case WireFrameType::kFlush:
      response.flush.epoch = executed.epoch.epoch;
      response.flush.identifier_statistic =
          executed.epoch.outcome.identifier_statistic;
      response.flush.emitted = std::move(executed.epoch.outcome.watermarked);
      break;
    case WireFrameType::kDetect:
      response.reports = std::move(executed.reports);
      break;
    case WireFrameType::kFingerprint:
      response.fingerprints = std::move(executed.fingerprints);
      break;
    case WireFrameType::kClose:
      response.close.rows_ingested = executed.stats.rows_ingested;
      response.close.rows_emitted = executed.stats.rows_emitted;
      response.close.rows_suppressed = executed.stats.rows_suppressed;
      for (size_t e = 0; e < executed.stats.epochs.size(); ++e) {
        const EpochRecord& epoch = executed.stats.epochs[e];
        WireEpochSummary summary;
        summary.epoch = epoch.epoch;
        summary.rows_emitted = epoch.rows_emitted;
        summary.rows_suppressed = epoch.rows_suppressed;
        summary.wmd_size = epoch.wmd_size;
        summary.identifier_statistic = epoch.identifier_statistic;
        // Serialized server-side: EpochRecord holds tree-pointer state
        // that cannot cross the wire, but its manifest text can — and
        // SerializeManifest is deterministic, so the client's file is
        // byte-identical to a local run's.
        if (e < executed.stats.manifests.size()) {
          summary.manifest_text =
              SerializeManifest(executed.stats.manifests[e]);
        }
        response.close.epochs.push_back(std::move(summary));
      }
      break;
    case WireFrameType::kOpen:
    case WireFrameType::kResponse:
    case WireFrameType::kPartial:
      break;  // kOpen is built by the daemon's open path, not here
  }
  return response;
}

}  // namespace privmark

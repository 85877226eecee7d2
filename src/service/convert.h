// The single seam between the in-process request surface
// (ServiceRequest / ServiceResponse, service/service.h) and the wire
// surface (WireRequest / WireResponse, service/wire.h). The daemon and
// the CLI used to each hand-copy fields between the two shapes; every
// conversion now lives here, so a field added to one surface fails to
// compile (or round-trip-test) here instead of silently dropping on one
// of the copies.
//
// The two surfaces are intentionally NOT the same struct: the wire
// shape is what can cross a socket (serialized registries, pre-built
// manifest text, no shared_ptr or tree-pointer state), the service
// shape is what the strands execute. These helpers define the exact
// correspondence:
//
//   WireRequest  --ToServiceRequest-->  ServiceRequest
//   (kind, Result<ServiceResponse>)  --ToWireResponse--> WireResponse
//
// ToWireResponse also pins down the NON-OK envelope: a failed request's
// response has threads_granted = 0 (nothing was granted for any work
// that produced output), journal_status OK (the failure says nothing
// about the stream's durability barrier), and the retry hint riding on
// the status itself.

#ifndef PRIVMARK_SERVICE_CONVERT_H_
#define PRIVMARK_SERVICE_CONVERT_H_

#include <string>

#include "common/status.h"
#include "core/session.h"
#include "service/service.h"
#include "service/wire.h"

namespace privmark {

/// \brief The service kind a request frame type executes as.
/// InvalidArgument for frame types with no ServiceRequest shape (kOpen
/// — registry bookkeeping, not strand work — kResponse, kPartial).
Result<RequestKind> RequestKindForFrame(WireFrameType type);

/// \brief Builds the executable request for a decoded wire request.
/// kOpen has no ServiceRequest shape (it is registry bookkeeping, not
/// strand work) and is rejected with InvalidArgument; a kFingerprint
/// request's registry_text is parsed here (its streamed flag becomes a
/// null fingerprint_sink — the transport layer attaches the real sink).
/// Takes the request by value and moves its table into the result, so a
/// caller done with the request passes it with std::move and no table
/// is copied.
Result<ServiceRequest> ToServiceRequest(WireRequest request);

/// \brief Builds the wire response for one executed request. `kind` is
/// the request's frame type (the response echoes it). On a non-OK
/// result the envelope is fully defined: threads_granted = 0,
/// journal_status OK, the retry hint on the status. A close response
/// carries each epoch's serialized stats.manifests entry (empty text
/// for an epoch without one). Takes the result by value so emitted
/// tables move, not copy.
WireResponse ToWireResponse(WireFrameType kind, Result<ServiceResponse> result);

}  // namespace privmark

#endif  // PRIVMARK_SERVICE_CONVERT_H_

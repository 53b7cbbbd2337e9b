#ifndef MPC_EXEC_RPC_PROTOCOL_H_
#define MPC_EXEC_RPC_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "exec/cluster.h"
#include "net/frame.h"
#include "obs/trace.h"
#include "store/bgp_matcher.h"

namespace mpc::exec {

/// Site RPC message types, carried as frame types in the versioned
/// net::Frame envelope (magic + length + FNV-1a checksum). One request
/// frame in, one reply frame out; the coordinator has at most one request
/// outstanding per site connection, so there is no interleaving to
/// disambiguate.
inline constexpr uint16_t kMsgHello = net::kFirstAppFrameType + 0;
inline constexpr uint16_t kMsgEvalRequest = net::kFirstAppFrameType + 1;
inline constexpr uint16_t kMsgEvalReply = net::kFirstAppFrameType + 2;
// +3 and +4 are unassigned, which keeps kMsgError's value; a worker
// answers an unassigned type with an error frame.
inline constexpr uint16_t kMsgError = net::kFirstAppFrameType + 5;

/// Worker self-description, sent once per accepted connection. The
/// coordinator checks site/k and the presence row, and records the
/// load/memory figures for loading_millis()/MemoryUsage().
struct HelloMsg {
  uint32_t site = 0;
  uint32_t k = 0;
  uint64_t pid = 0;
  double load_millis = 0.0;
  uint64_t memory_bytes = 0;
  /// This site's property-presence row; must equal the coordinator's
  /// (both derive from the same partition dir). It is what refuses a
  /// worker serving other data.
  std::vector<uint8_t> property_present;
};

/// One site-subquery evaluation order: the resolved sub-BGP plus the
/// serialized Bloom filters. Patterns ship resolved (numeric ids) —
/// coordinator and workers parse the same graph file, so they share the
/// dictionary encoding.
struct EvalRequestMsg {
  store::ResolvedQuery resolved;  // patterns + num_vars only
  std::vector<size_t> pattern_indices;
  uint64_t max_rows = UINT64_MAX;
  struct Filter {
    uint32_t var = 0;
    std::string bits;  // BloomFilter::ToBytes
  };
  std::vector<Filter> filters;
  /// Distributed trace context (protocol v2). trace_id == 0 means the
  /// coordinator is not tracing: the worker records nothing and ships
  /// no spans back.
  obs::TraceContext trace;
};

/// Upper bound on spans one EvalReply may carry. The worker keeps the
/// earliest spans when it recorded more (the root and coarse phases —
/// the ones a timeline needs); the decoder rejects a count past the cap
/// before allocating.
inline constexpr uint32_t kMaxSpansPerReply = 512;
/// Per-span attribute cap, mirroring the span cap's allocate-safety.
inline constexpr uint32_t kMaxAttrsPerSpan = 64;

std::string EncodeHello(const HelloMsg& msg);
Result<HelloMsg> DecodeHello(std::string_view payload);

/// Encodes straight from the executor's request (no intermediate copy).
/// `trace` is the coordinator-side context the worker's spans adopt; an
/// empty context (trace_id 0) disables worker-side recording.
std::string EncodeEvalRequest(const store::ResolvedQuery& resolved,
                              const SiteEvalRequest& request,
                              const obs::TraceContext& trace);
inline std::string EncodeEvalRequest(const store::ResolvedQuery& resolved,
                                     const SiteEvalRequest& request) {
  return EncodeEvalRequest(resolved, request, obs::TraceContext());
}
Result<EvalRequestMsg> DecodeEvalRequest(std::string_view payload);

/// `spans` are the worker's recorded TraceEvents for this request
/// (span/parent ids and tids are worker-local; the coordinator remaps
/// them on ingest). At most kMaxSpansPerReply ship — earliest first.
std::string EncodeEvalReply(const SiteEvalReply& reply,
                            const std::vector<obs::TraceEvent>& spans);
inline std::string EncodeEvalReply(const SiteEvalReply& reply) {
  return EncodeEvalReply(reply, {});
}
/// EncodeEvalReply in two steps: the reply up to its span list, then
/// the list appended. A worker encodes the body inside the spans it
/// ships, so its encode time travels with them.
std::string EncodeEvalReplyBody(const SiteEvalReply& reply);
void AppendReplySpans(const std::vector<obs::TraceEvent>& spans,
                      std::string* payload);
/// Fills table/bloom_dropped/eval_millis; transport fields stay zero.
/// When `spans` is non-null the carried span list is decoded into it
/// (cleared first); when null the span bytes are validated and skipped.
Status DecodeEvalReply(std::string_view payload, SiteEvalReply* reply,
                       std::vector<obs::TraceEvent>* spans = nullptr);

/// A Status carried across the wire (worker-side failures).
std::string EncodeError(const Status& status);
/// Returns the carried (non-ok) status; ParseError if the payload is
/// not a well-formed error message.
Status DecodeError(std::string_view payload);

}  // namespace mpc::exec

#endif  // MPC_EXEC_RPC_PROTOCOL_H_

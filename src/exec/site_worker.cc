#include "exec/site_worker.h"

#include <unistd.h>

#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "common/crash_hook.h"
#include "common/timer.h"
#include "exec/cluster.h"
#include "exec/rpc_protocol.h"
#include "net/frame.h"
#include "net/socket.h"
#include "obs/trace.h"
#include "partition/partition_io.h"
#include "store/triple_store.h"

namespace mpc::exec {

namespace {

/// Timeouts are short so the drain flag is polled between frames; a
/// worker never blocks longer than this before noticing SIGTERM.
constexpr double kPollMillis = 200.0;

/// Everything a worker serves: its partition's store plus the Hello
/// self-description. Loaded once, before the worker listens.
struct SiteData {
  store::TripleStore store;
  std::vector<uint8_t> property_present;
  uint32_t k = 0;
  double load_millis = 0.0;

  HelloMsg MakeHello(uint32_t site) const {
    HelloMsg hello;
    hello.site = site;
    hello.k = k;
    hello.pid = static_cast<uint64_t>(::getpid());
    hello.load_millis = load_millis;
    hello.memory_bytes = store.MemoryUsage();
    hello.property_present = property_present;
    return hello;
  }
};

/// Loads this site from the segment its coordinator packed: opens
/// `partition_<site>.mpcseg` (checksums, the directory's fingerprint and
/// the site id are checked), decodes it with one all-unbound Scan into
/// an in-memory TripleStore and unmaps it. No graph is parsed: every id
/// a query needs was resolved at the coordinator, and the Hello metadata
/// (k, property universe) lives in the segment header.
Status LoadSiteData(const std::string& partition_dir, uint32_t site,
                    SiteData* data) {
  Timer timer;
  Result<uint64_t> fingerprint =
      partition::PartitionIo::Fingerprint(partition_dir);
  if (!fingerprint.ok()) return fingerprint.status();
  // k is not known here without the manifest; the coordinator checks
  // the Hello's k instead.
  Result<storage::SegmentStore> segment = OpenSiteSegment(
      partition_dir, site, *fingerprint, /*k=*/std::nullopt);
  if (!segment.ok()) return segment.status();
  data->store = DecodeToTripleStore(*segment);
  data->property_present = PropertyPresence(
      data->store, static_cast<size_t>(segment->header().num_properties));
  data->k = segment->header().k;
  data->load_millis = timer.ElapsedMillis();
  return Status::Ok();
}

bool ShouldStop(const SiteWorkerOptions& options) {
  return options.stop != nullptr &&
         options.stop->load(std::memory_order_relaxed);
}

/// Evaluates one request against the site store and encodes the reply.
/// When the request carries a trace context the worker records its own
/// spans under it and ships them back in the reply (worker-local ids;
/// the coordinator remaps them on ingest), then discards its buffers so
/// a long-lived connection's trace memory stays bounded.
std::string HandleEval(const SiteData& data, uint32_t site,
                       const EvalRequestMsg& msg) {
  std::vector<size_t> indices(msg.pattern_indices.begin(),
                              msg.pattern_indices.end());
  std::vector<std::unique_ptr<BloomFilter>> filters;
  if (!msg.filters.empty()) {
    filters.resize(msg.resolved.num_vars);
    for (const EvalRequestMsg::Filter& f : msg.filters) {
      filters[f.var] = std::make_unique<BloomFilter>(BloomFilter::FromBytes(
          std::span<const uint8_t>(
              reinterpret_cast<const uint8_t*>(f.bits.data()),
              f.bits.size())));
    }
  }
  SiteEvalRequest request;
  request.pattern_indices = indices;
  request.max_rows = msg.max_rows;
  request.var_filters = msg.filters.empty() ? nullptr : &filters;

  const bool traced = msg.trace.trace_id != 0;
  if (traced && !obs::TracingEnabled()) obs::StartTracing();
  std::string encoded;
  {
    // The propagated context parents the worker's root span directly to
    // the coordinator's span that issued this request. The parent id is
    // not locally valid here, but the span ids shipped back are
    // remapped by the coordinator anyway.
    obs::ScopedTraceContext ctx(msg.trace);
    obs::TraceSpan root("site.eval");
    if (traced) {
      root.Attr("site", static_cast<uint64_t>(site));
      if (!msg.trace.query_tag.empty()) root.Attr("tag", msg.trace.query_tag);
    }
    const SiteEvalReply reply =
        EvaluateSiteRequest(data.store, msg.resolved, request);
    obs::TraceSpan encode("net.encode_reply");
    encoded = EncodeEvalReplyBody(reply);
    encode.Attr("rows", static_cast<uint64_t>(reply.table.num_rows()))
        .Attr("bytes", static_cast<uint64_t>(encoded.size()));
  }
  std::vector<obs::TraceEvent> spans;
  if (traced) {
    for (obs::TraceEvent& e : obs::CollectTrace()) {
      if (e.trace_id == msg.trace.trace_id) spans.push_back(std::move(e));
    }
  }
  AppendReplySpans(spans, &encoded);
  if (!traced) return encoded;
  obs::DiscardTrace();
  return encoded;
}

/// Serves one accepted connection until the peer leaves, the stream
/// tears, or the drain flag is raised. Decode failures on an intact
/// stream are answered with an error frame and the connection stays up;
/// transport-level damage drops the connection (the coordinator
/// reconnects through the supervisor).
void ServeConnection(const net::Socket& conn, const SiteWorkerOptions& options,
                     const SiteData& data, CrashAfter* crash) {
  if (!net::WriteFrame(conn, kMsgHello, EncodeHello(data.MakeHello(options.site)))
           .ok()) {
    return;
  }
  while (!ShouldStop(options)) {
    Result<net::Frame> frame = net::ReadFrame(conn, kPollMillis);
    if (!frame.ok()) {
      if (frame.status().code() == StatusCode::kDeadlineExceeded) {
        continue;  // idle: poll the drain flag again
      }
      return;  // clean EOF or torn stream: drop the connection
    }
    switch (frame->type) {
      case net::kFramePing: {
        if (!net::WriteFrame(conn, net::kFramePong, "").ok()) return;
        break;
      }
      case kMsgEvalRequest: {
        Result<EvalRequestMsg> msg = DecodeEvalRequest(frame->payload);
        if (!msg.ok()) {
          if (!net::WriteFrame(conn, kMsgError, EncodeError(msg.status()))
                   .ok()) {
            return;
          }
          break;
        }
        std::string reply = HandleEval(data, options.site, *msg);
        if (options.queries_served != nullptr) ++*options.queries_served;
        // The chaos hook dies HERE — reply computed but unsent — so the
        // coordinator observes the worst case: a connection torn
        // mid-query, not a polite refusal.
        crash->Tick();
        if (!net::WriteFrame(conn, kMsgEvalReply, reply).ok()) return;
        break;
      }
      default: {
        Status st = Status::InvalidArgument(
            "unexpected frame type " + std::to_string(frame->type) +
            " at site worker");
        if (!net::WriteFrame(conn, kMsgError, EncodeError(st)).ok()) return;
        break;
      }
    }
  }
}

}  // namespace

Status RunSiteWorker(const SiteWorkerOptions& options) {
  CrashAfter crash(options.kill_after_queries);
  SiteData data;
  MPC_RETURN_IF_ERROR(LoadSiteData(options.partition_dir, options.site, &data));
  Result<net::Socket> listener = net::Socket::Listen(options.socket_path);
  if (!listener.ok()) return listener.status();
  // One connection at a time: the coordinator keeps a single persistent
  // connection per site with at most one request outstanding on it (its
  // batches overlap different sites, never two requests to one), so
  // concurrency here would only add interleaving to reason about.
  while (!ShouldStop(options)) {
    Result<net::Socket> conn = listener->Accept(kPollMillis);
    if (!conn.ok()) {
      if (conn.status().code() == StatusCode::kDeadlineExceeded) continue;
      return conn.status();  // the listener itself broke
    }
    ServeConnection(*conn, options, data, &crash);
  }
  return Status::Ok();
}

}  // namespace mpc::exec

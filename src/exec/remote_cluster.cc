#include "exec/remote_cluster.h"

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <optional>
#include <utility>

#include "common/timer.h"
#include "exec/rpc_protocol.h"
#include "net/frame.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "partition/partition_io.h"

namespace mpc::exec {

namespace {

/// Sleeps a backoff interval (wall-clock; these are real waits, unlike
/// the simulator's virtual ones).
void SleepMillis(double ms) {
  if (ms <= 0) return;
  ::usleep(static_cast<useconds_t>(ms * 1000.0));
}

std::string SocketPathFor(const std::string& dir, uint32_t site) {
  return dir + "/site_" + std::to_string(site) + ".sock";
}

/// Re-bases worker-clock span timestamps onto the coordinator's trace
/// clock and ingests them into the local trace. Each process's trace
/// clock has an arbitrary epoch, so the worker's root span (earliest
/// start in the batch) is anchored at the request's send time plus half
/// the network slack (round trip minus worker compute) — the symmetric-
/// delay assumption — which nests site tracks inside the attempt span.
void IngestRemoteSpans(std::vector<obs::TraceEvent> spans, uint64_t trace_id,
                       uint64_t parent_span_id, double send_us, double rtt_us,
                       uint32_t pid) {
  double root_start = spans[0].start_us;
  double root_dur = spans[0].dur_us;
  for (const obs::TraceEvent& e : spans) {
    if (e.start_us < root_start) {
      root_start = e.start_us;
      root_dur = e.dur_us;
    }
  }
  const double slack_us = std::max(0.0, rtt_us - root_dur);
  const double delta_us = send_us + slack_us / 2.0 - root_start;
  obs::RecordRemoteSpans(std::move(spans), trace_id, parent_span_id, delta_us,
                         pid);
}

}  // namespace

Result<std::unique_ptr<RemoteCluster>> RemoteCluster::Start(
    partition::Partitioning partitioning, Options options) {
  // Checked before any spawn: a worker that cannot bind its socket dies
  // at once, and respawning it would only burn the restart budget.
  std::error_code ec;
  if (!std::filesystem::is_directory(options.socket_dir, ec)) {
    return Status::NotFound("socket directory '" + options.socket_dir +
                            "' does not exist");
  }
  // The workers load what is packed here, so a directory that holds
  // another partitioning is refused before anything is written into it.
  MPC_RETURN_IF_ERROR(
      partition::PartitionIo::CheckSaved(options.partition_dir, partitioning));
  MPC_RETURN_IF_ERROR(PackSegments(partitioning, options.partition_dir));
  std::unique_ptr<RemoteCluster> cluster(new RemoteCluster());
  cluster->partitioning_ = std::move(partitioning);
  cluster->options_ = std::move(options);

  const uint32_t k = cluster->k();
  const size_t num_properties =
      cluster->partitioning_.crossing_property_mask().size();
  for (uint32_t i = 0; i < k; ++i) {
    cluster->property_present_.push_back(
        PropertyPresence(cluster->partitioning_.partition(i), num_properties));
  }
  std::vector<net::WorkerSpec> specs;
  specs.reserve(k);
  for (uint32_t i = 0; i < k; ++i) {
    net::WorkerSpec spec;
    spec.socket_path = SocketPathFor(cluster->options_.socket_dir, i);
    spec.argv = {cluster->options_.worker_binary, "site",
                 cluster->options_.partition_dir,
                 "--site=" + std::to_string(i),
                 "--socket=" + spec.socket_path};
    if (i == cluster->options_.kill_site &&
        cluster->options_.kill_after_queries > 0) {
      // chaos_argv, not argv: the supervisor drops it on respawn, so the
      // injected crash fires once and the replacement worker is healthy.
      spec.chaos_argv.push_back(
          "--kill-after-queries=" +
          std::to_string(cluster->options_.kill_after_queries));
    }
    specs.push_back(std::move(spec));
  }
  cluster->supervisor_ = std::make_unique<net::SiteSupervisor>(
      std::move(specs), cluster->options_.supervisor);
  cluster->sites_.reserve(k);
  for (uint32_t i = 0; i < k; ++i) {
    cluster->sites_.push_back(std::make_unique<SiteState>());
  }
  MPC_RETURN_IF_ERROR(cluster->supervisor_->StartAll());

  // Handshake with every worker up front: a fleet that cannot even say
  // Hello is a deployment error, not a runtime fault to tolerate.
  double max_load = 0.0;
  for (uint32_t i = 0; i < k; ++i) {
    SiteState* state = cluster->sites_[i].get();
    std::lock_guard<std::mutex> lock(state->mu);
    Status st = cluster->EnsureConnectedLocked(i, state);
    if (!st.ok()) {
      cluster->supervisor_->StopAll();
      return st;
    }
    max_load = std::max(max_load, state->load_millis);
  }
  cluster->loading_millis_ = max_load;
  return cluster;
}

RemoteCluster::~RemoteCluster() {
  // Drop data connections before the supervisor signals the workers so
  // their accept loops are idle during the drain.
  for (auto& state : sites_) {
    std::lock_guard<std::mutex> lock(state->mu);
    state->conn.Close();
  }
  if (supervisor_ != nullptr) supervisor_->StopAll();
}

std::string RemoteCluster::ConnectPath(uint32_t i) const {
  if (i < options_.connect_path_override.size() &&
      !options_.connect_path_override[i].empty()) {
    return options_.connect_path_override[i];
  }
  return SocketPathFor(options_.socket_dir, i);
}

Status RemoteCluster::AcceptHello(uint32_t i, const std::string& payload,
                                  SiteState* state) const {
  Result<HelloMsg> hello = DecodeHello(payload);
  if (!hello.ok()) return hello.status();
  if (hello->site != i || hello->k != k()) {
    return Status::Internal(
        "worker handshake mismatch: announced site " +
        std::to_string(hello->site) + "/" + std::to_string(hello->k) +
        ", expected " + std::to_string(i) + "/" + std::to_string(k()));
  }
  // The worker derives its presence row from the segment Start packed;
  // disagreement means it loaded different data than the coordinator
  // believes it serves (a segment replaced on disk) — refuse before
  // wrong answers become possible.
  if (hello->property_present != property_present_[i]) {
    return Status::Internal("worker " + std::to_string(i) +
                            " property-presence row disagrees with the "
                            "coordinator's partitioning");
  }
  state->memory_bytes = hello->memory_bytes;
  state->load_millis = hello->load_millis;
  state->worker_pid = hello->pid;
  return Status::Ok();
}

Status RemoteCluster::EnsureConnectedLocked(uint32_t i,
                                            SiteState* state) const {
  if (state->conn.valid()) return Status::Ok();
  // The supervisor gates the connect: it waits out a pending
  // backoff-scheduled respawn and reports Unavailable once the restart
  // budget is spent.
  const std::string path = ConnectPath(i);
  Result<net::Socket> conn = [&]() -> Result<net::Socket> {
    if (path == SocketPathFor(options_.socket_dir, i)) {
      return supervisor_->Connect(i);
    }
    // Chaos-proxy interposition: the supervisor still vouches for the
    // process, but bytes flow through the proxy.
    MPC_RETURN_IF_ERROR(
        supervisor_->WaitUntilUp(i, options_.supervisor.spawn_wait_ms));
    return net::Socket::Connect(path);
  }();
  if (!conn.ok()) return conn.status();
  state->conn = std::move(*conn);

  // The worker speaks first: one Hello per accepted connection, written
  // as soon as it accepts (its store is loaded before it listens).
  Result<net::Frame> frame =
      net::ReadFrame(state->conn, options_.default_timeout_ms);
  if (!frame.ok() || frame->type != kMsgHello) {
    state->conn.Close();
    if (!frame.ok()) return frame.status();
    return Status::ParseError("expected Hello frame, got type " +
                              std::to_string(frame->type));
  }
  Status st = AcceptHello(i, frame->payload, state);
  if (!st.ok()) state->conn.Close();
  return st;
}

Status RemoteCluster::ReceiveReplyLocked(SiteState* state,
                                         double timeout_ms,
                                         const SentRequest& sent,
                                         obs::TraceSpan* span,
                                         SiteEvalReply* reply,
                                         bool* fatal) const {
  *fatal = false;
  Result<net::Frame> frame = net::ReadFrame(state->conn, timeout_ms);
  if (!frame.ok()) {
    // Timed out, torn, or gone: the stream may carry a stale reply now,
    // so the connection cannot be reused either way.
    state->conn.Close();
    return frame.status();
  }
  if (frame->type == kMsgError) {
    // The worker answered: transport is fine, the request was refused.
    *fatal = true;
    Status carried = DecodeError(frame->payload);
    return carried.ok()
               ? Status::ParseError("malformed error frame from worker")
               : carried;
  }
  if (frame->type != kMsgEvalReply) {
    state->conn.Close();
    return Status::ParseError("expected frame type " +
                              std::to_string(kMsgEvalReply) + ", got " +
                              std::to_string(frame->type));
  }
  const double rtt_ms = sent.timer.ElapsedMillis();
  std::vector<obs::TraceEvent> remote_spans;
  Status st = Status::Ok();
  {
    obs::TraceSpan decode("net.decode_reply");
    st = DecodeEvalReply(frame->payload, reply,
                         sent.trace_id != 0 ? &remote_spans : nullptr);
    decode.Attr("rows", static_cast<uint64_t>(reply->table.num_rows()))
        .Attr("bytes", static_cast<uint64_t>(frame->payload.size()));
  }
  if (!st.ok()) {
    // A payload that passed the checksum but fails to decode is a
    // protocol bug, not line noise; drop the connection anyway so a
    // retry starts clean.
    state->conn.Close();
    return st;
  }
  obs::MetricsRegistry::Default()
      .HistogramRef("exec.rpc.rtt_ms", obs::DefaultLatencyBoundsMs())
      .Observe(rtt_ms);
  span->Attr("rows", static_cast<uint64_t>(reply->table.num_rows()))
      .Attr("wire_bytes", static_cast<uint64_t>(frame->payload.size()));
  if (!remote_spans.empty()) {
    // The worker parented its spans to the context the request carried;
    // they are re-parented to this site's attempt span.
    IngestRemoteSpans(std::move(remote_spans), sent.trace_id, span->id(),
                      sent.send_us, rtt_ms * 1000.0,
                      static_cast<uint32_t>(state->worker_pid));
  }
  return Status::Ok();
}

Status RemoteCluster::SendRequestLocked(uint32_t site, SiteState* state,
                                        const std::string& payload,
                                        SentRequest* sent) const {
  MPC_RETURN_IF_ERROR(EnsureConnectedLocked(site, state));
  sent->send_us = obs::TraceNowMicros();
  sent->timer.Reset();
  Status st = net::WriteFrame(state->conn, kMsgEvalRequest, payload);
  if (!st.ok()) state->conn.Close();
  return st;
}

Status RemoteCluster::AttemptsLocked(uint32_t site, SiteState* state,
                                     const store::ResolvedQuery& resolved,
                                     const SiteEvalRequest& request,
                                     const SiteCallPolicy& policy,
                                     int first_attempt, Status last,
                                     SiteEvalReply* reply) const {
  const double timeout_ms = TimeoutMillis(policy);
  for (int attempt = first_attempt; attempt <= policy.max_retries;
       ++attempt) {
    if (attempt > 0) {
      // Real exponential backoff, charged to the reply's wait clock so
      // coordinator stats reflect wall time actually spent waiting.
      const double backoff =
          policy.backoff_ms * static_cast<double>(uint64_t{1} << (attempt - 1));
      SleepMillis(backoff);
      reply->wait_millis += backoff;
      ++reply->retries;
    }
    obs::TraceSpan span("exec.rpc.attempt");
    span.Attr("site", site).Attr("attempt", attempt);
    // The attempt span is open, so the captured context parents the
    // worker's spans to THIS attempt — which is why the request is
    // encoded inside the loop: each retry re-parents. With tracing off
    // the context is empty and the worker records nothing.
    const obs::TraceContext trace = obs::CurrentTraceContext();
    const std::string payload = EncodeEvalRequest(resolved, request, trace);
    Timer attempt_timer;
    SentRequest sent;
    sent.trace_id = trace.trace_id;
    Status st = SendRequestLocked(site, state, payload, &sent);
    if (st.ok()) {
      bool fatal = false;
      st = ReceiveReplyLocked(state, timeout_ms, sent, &span, reply, &fatal);
      if (st.ok()) return st;
      if (fatal) {
        span.Attr("error", st.ToString());
        return st;
      }
    }
    span.Attr("error", st.ToString());
    reply->wait_millis += attempt_timer.ElapsedMillis();
    last = st;
  }
  // Terminal classification for the executor's failover logic: a blown
  // deadline on the final attempt keeps its code (the site may be alive
  // but slow); everything else collapses to Unavailable.
  if (last.code() == StatusCode::kDeadlineExceeded) return last;
  return Status::Unavailable("site " + std::to_string(site) +
                             " unreachable after " +
                             std::to_string(policy.max_retries + 1) +
                             " attempts: " + last.ToString());
}

double RemoteCluster::TimeoutMillis(const SiteCallPolicy& policy) const {
  return policy.timeout_ms > 0 ? policy.timeout_ms
                               : options_.default_timeout_ms;
}

Status RemoteCluster::EvaluateOnSite(uint32_t site,
                                     const store::ResolvedQuery& resolved,
                                     const SiteEvalRequest& request,
                                     const SiteCallPolicy& policy,
                                     SiteEvalReply* reply) const {
  SiteState* state = sites_[site].get();
  std::lock_guard<std::mutex> lock(state->mu);
  return AttemptsLocked(
      site, state, resolved, request, policy, /*first_attempt=*/0,
      Status::Unavailable("site " + std::to_string(site) +
                          ": no attempt made"),
      reply);
}

void RemoteCluster::EvaluateOnSites(std::span<const uint32_t> sites,
                                    const store::ResolvedQuery& resolved,
                                    const SiteEvalRequest& request,
                                    const SiteCallPolicy& policy,
                                    int /*num_threads*/,
                                    std::span<SiteEvalReply> replies,
                                    std::span<Status> statuses) const {
  // Ascending site order for locking, writing and reading: concurrent
  // batches take the site mutexes in one global order, so none waits
  // on a lock another holds while that one waits on it.
  std::vector<size_t> order(sites.size());
  for (size_t s = 0; s < order.size(); ++s) order[s] = s;
  std::sort(order.begin(), order.end(),
            [&](size_t a, size_t b) { return sites[a] < sites[b]; });
  // One encoding for every site. The worker parents its spans to the
  // caller's span; ReceiveReplyLocked re-parents them to the site's
  // attempt span.
  const obs::TraceContext trace = obs::CurrentTraceContext();
  const std::string payload = EncodeEvalRequest(resolved, request, trace);
  struct InFlight {
    std::unique_lock<std::mutex> lock;
    // Attempt 0 of every site is in flight at once, so its span is
    // detached from this thread's span stack.
    std::optional<obs::TraceSpan> span;
    Timer attempt_timer;
    SentRequest sent;
    Status status;
  };
  std::vector<InFlight> flights(sites.size());

  // Scatter: lock each site and write the request to it.
  for (size_t s : order) {
    InFlight& f = flights[s];
    SiteState* state = sites_[sites[s]].get();
    f.lock = std::unique_lock<std::mutex>(state->mu);
    f.span.emplace("exec.rpc.attempt", obs::TraceSpan::Detached::kDetached);
    f.span->Attr("site", sites[s]).Attr("attempt", 0);
    f.attempt_timer.Reset();
    f.sent.trace_id = trace.trace_id;
    f.status = SendRequestLocked(sites[s], state, payload, &f.sent);
  }

  // Gather: read the replies in site order, each against a deadline
  // that runs from its own write, and release each site once answered.
  const double timeout_ms = TimeoutMillis(policy);
  for (size_t s : order) {
    InFlight& f = flights[s];
    SiteState* state = sites_[sites[s]].get();
    if (f.status.ok()) {
      // A deadline already spent still polls once for a reply that
      // arrived meanwhile.
      const double left =
          std::max(timeout_ms - f.sent.timer.ElapsedMillis(), 1e-3);
      bool fatal = false;
      f.status = ReceiveReplyLocked(state, left, f.sent, &*f.span,
                                    &replies[s], &fatal);
      if (f.status.ok() || fatal) {
        if (fatal) f.span->Attr("error", f.status.ToString());
        statuses[s] = f.status;
        f.span.reset();
        f.lock.unlock();
        continue;
      }
    }
    f.span->Attr("error", f.status.ToString());
    f.span.reset();
    replies[s].wait_millis += f.attempt_timer.ElapsedMillis();
  }

  // A site whose write, read or decode failed (its connection is closed)
  // continues with attempt 1 of the per-site retry loop, still locked.
  // Only now: a retry's backoff must not eat the other sites' deadlines.
  for (size_t s : order) {
    InFlight& f = flights[s];
    if (!f.lock.owns_lock()) continue;
    statuses[s] =
        AttemptsLocked(sites[s], sites_[sites[s]].get(), resolved, request,
                       policy, /*first_attempt=*/1, f.status, &replies[s]);
    f.lock.unlock();
  }
}

size_t RemoteCluster::MemoryUsage() const {
  size_t total = 0;
  for (auto& state : sites_) {
    std::lock_guard<std::mutex> lock(state->mu);
    total += state->memory_bytes;
  }
  return total;
}

}  // namespace mpc::exec

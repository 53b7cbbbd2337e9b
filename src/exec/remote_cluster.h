#ifndef MPC_EXEC_REMOTE_CLUSTER_H_
#define MPC_EXEC_REMOTE_CLUSTER_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/timer.h"
#include "exec/cluster.h"
#include "net/socket.h"
#include "net/supervisor.h"
#include "obs/trace.h"

namespace mpc::exec {

/// The real multi-process deployment of the paper's site model: one
/// `mpc site` worker process per partition, spawned and babysat by a
/// SiteSupervisor, spoken to over checksummed framed RPC on local
/// sockets. Plugs into DistributedExecutor through the same
/// ClusterBackend interface as the in-process simulator, so decompose /
/// union / hash-join, timeout/retry policies, PartialResultPolicy and
/// replica failover all run unchanged — but here a dead site is a dead
/// process and a torn frame is a torn stream, not a sampled outcome.
class RemoteCluster final : public ClusterBackend {
 public:
  struct Options {
    /// The mpc binary to exec as `<binary> site ...` workers.
    std::string worker_binary;
    /// Unread: workers parse no graph, they load the segments Start
    /// packs. Kept only because servebench's lubm_remote setup still
    /// assigns it; drop it together with that assignment.
    std::string graph_path;
    /// PartitionIo::Save output of the partitioning passed to Start;
    /// Start packs every site's segment here for the workers to load.
    std::string partition_dir;
    /// Directory for the per-site socket files (site_<i>.sock).
    std::string socket_dir;
    /// Chaos: pass --kill-after-queries=N to this one site's worker (it
    /// SIGKILLs itself mid-reply on its Nth evaluation).
    uint32_t kill_site = UINT32_MAX;
    uint64_t kill_after_queries = 0;
    /// Per-site connect-path override so a ChaosProxy can interpose on
    /// the data path while the supervisor watches the real socket.
    /// Empty vector or empty string = connect directly.
    std::vector<std::string> connect_path_override;
    /// Reply deadline when the executor's policy carries none; also
    /// bounds the wait for a worker's Hello.
    double default_timeout_ms = 30000;
    net::SupervisorOptions supervisor;
  };

  /// Checks that `partition_dir` holds `partitioning`
  /// (PartitionIo::CheckSaved; InvalidArgument, with nothing written and
  /// nothing spawned, when it does not), packs every site's segment
  /// there (PackSegments, the same bytes `mpc pack` writes), spawns the
  /// worker fleet, waits for every socket to accept, performs the Hello
  /// handshake (validating site ids, k, and that the worker's
  /// property-presence row matches the coordinator's, which catches a
  /// segment replaced on disk behind the coordinator's back), and
  /// returns the ready cluster. The fleet serves that one partitioning
  /// for its lifetime; only the per-site connections change after Start.
  static Result<std::unique_ptr<RemoteCluster>> Start(
      partition::Partitioning partitioning, Options options);

  ~RemoteCluster() override;

  RemoteCluster(const RemoteCluster&) = delete;
  RemoteCluster& operator=(const RemoteCluster&) = delete;

  /// One site evaluation over the wire, honoring `policy`: per-attempt
  /// reply deadline, exponential backoff, policy.max_retries reconnect
  /// attempts. Every retry reconnects through the supervisor, so a
  /// worker that crashed and was respawned serves the retry. Terminal
  /// failures are Unavailable (site down past the budget, torn frames)
  /// or DeadlineExceeded (deadline blown on the last attempt) — exactly
  /// the codes the executor's failover path expects.
  Status EvaluateOnSite(uint32_t site, const store::ResolvedQuery& resolved,
                        const SiteEvalRequest& request,
                        const SiteCallPolicy& policy,
                        SiteEvalReply* reply) const override;

  /// The pipelined scatter step: locks the sites in ascending order,
  /// encodes the request once and writes it to every site, then reads
  /// the replies in site order, releasing each site as soon as its
  /// reply is decoded. Each site's deadline runs from its own write. A
  /// site whose write, read or decode fails has its connection closed
  /// and, once every reply is read, continues with attempt 1 of
  /// EvaluateOnSite's retry loop, so every fault path and status code
  /// is EvaluateOnSite's; a kMsgError reply stays fatal. `num_threads`
  /// is unused: one thread keeps every site busy.
  void EvaluateOnSites(std::span<const uint32_t> sites,
                       const store::ResolvedQuery& resolved,
                       const SiteEvalRequest& request,
                       const SiteCallPolicy& policy, int num_threads,
                       std::span<SiteEvalReply> replies,
                       std::span<Status> statuses) const override;

  /// Sum of worker-reported store footprints.
  size_t MemoryUsage() const override;

  /// The process babysitter — exposed so fault tests can Kill() workers
  /// and assert on restarts().
  net::SiteSupervisor& supervisor() const { return *supervisor_; }

 private:
  /// Mutable per-site connection state. Concurrent queries share the
  /// connections; the per-site mutex gives one call at a time each
  /// connection, and a batch holds several, always taken in ascending
  /// site order.
  struct SiteState {
    std::mutex mu;
    net::Socket conn;  // invalid = disconnected
    uint64_t memory_bytes = 0;
    double load_millis = 0.0;
    /// Worker OS pid from the last Hello — the pid stamped onto this
    /// site's spans in merged traces.
    uint64_t worker_pid = 0;
  };

  /// What the reply of one written request is checked and traced
  /// against.
  struct SentRequest {
    /// The trace the request carried (0 = untraced).
    uint64_t trace_id = 0;
    /// Write time on the trace clock, and a timer started at the write.
    double send_us = 0.0;
    Timer timer;
  };

  RemoteCluster() = default;

  /// Connects (or reconnects) site `i` and runs the Hello handshake.
  /// Caller holds state->mu.
  Status EnsureConnectedLocked(uint32_t i, SiteState* state) const;
  /// Connects if needed and writes one EvalRequest frame. A failed write
  /// closes the connection. Caller holds state->mu.
  Status SendRequestLocked(uint32_t site, SiteState* state,
                           const std::string& payload,
                           SentRequest* sent) const;
  /// Reads and decodes the reply to `sent` within `timeout_ms`, records
  /// its round trip in exec.rpc.rtt_ms and ingests the worker's spans
  /// under `span`. kMsgError replies surface as the carried status with
  /// *fatal=true (the worker rejected the request; retrying cannot
  /// help). Transport and decode failures close the connection and stay
  /// retryable. Caller holds state->mu.
  Status ReceiveReplyLocked(SiteState* state, double timeout_ms,
                            const SentRequest& sent, obs::TraceSpan* span,
                            SiteEvalReply* reply, bool* fatal) const;
  /// The per-site retry loop from `first_attempt` on, `last` being the
  /// failure that led here, with the terminal classification described
  /// at EvaluateOnSite. Caller holds the site's mutex.
  Status AttemptsLocked(uint32_t site, SiteState* state,
                        const store::ResolvedQuery& resolved,
                        const SiteEvalRequest& request,
                        const SiteCallPolicy& policy, int first_attempt,
                        Status last, SiteEvalReply* reply) const;
  /// `policy`'s reply deadline, or the transport default.
  double TimeoutMillis(const SiteCallPolicy& policy) const;
  /// Validates a Hello payload against this cluster's expectations.
  Status AcceptHello(uint32_t i, const std::string& payload,
                     SiteState* state) const;
  std::string ConnectPath(uint32_t i) const;

  Options options_;
  std::unique_ptr<net::SiteSupervisor> supervisor_;
  mutable std::vector<std::unique_ptr<SiteState>> sites_;
};

}  // namespace mpc::exec

#endif  // MPC_EXEC_REMOTE_CLUSTER_H_

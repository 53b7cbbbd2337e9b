#ifndef MPC_EXEC_SITE_WORKER_H_
#define MPC_EXEC_SITE_WORKER_H_

#include <atomic>
#include <cstdint>
#include <string>

#include "common/status.h"

namespace mpc::exec {

/// Configuration for one `mpc site` worker process: which partition it
/// serves, where it listens, and the fault/drain hooks.
struct SiteWorkerOptions {
  /// PartitionIo::Save output holding the coordinator-packed
  /// `partition_<site>.mpcseg` (RemoteCluster::Start packs it).
  std::string partition_dir;
  uint32_t site = 0;
  std::string socket_path;
  /// Chaos hook: SIGKILL this process right before sending the reply to
  /// its Nth evaluation (0 = disabled). The coordinator then sees the
  /// stream die mid-query — the survivable fault the failover tests
  /// exercise.
  uint64_t kill_after_queries = 0;
  /// Graceful-drain flag, set from a SIGTERM/SIGINT handler. Checked
  /// between frames: an in-flight evaluation finishes and its reply is
  /// sent before the worker returns.
  const std::atomic<bool>* stop = nullptr;
  /// Total evaluations served, for the CLI's exit report.
  uint64_t* queries_served = nullptr;
};

/// Runs one site worker to completion: loads this site's segment once
/// into an in-memory store (a missing, damaged or foreign segment's
/// status is returned before the socket is created), listens on the
/// socket, sends a Hello on every accepted connection and answers
/// Ping/Eval frames until the stop flag drains it. Returns Ok on
/// a clean drain; any malformed or unexpected frame is answered with an
/// error frame (or, if the stream itself is torn, the connection is
/// dropped) — never a crash.
Status RunSiteWorker(const SiteWorkerOptions& options);

}  // namespace mpc::exec

#endif  // MPC_EXEC_SITE_WORKER_H_

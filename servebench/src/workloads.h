#ifndef SERVEBENCH_WORKLOADS_H_
#define SERVEBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "inputs.h"

namespace servebench {

struct RunOptions {
  Workload workload = Workload::kDbpediaLog;
  uint64_t seed = 1;
  /// Length of the timed window; the window always ends on a whole pass
  /// over the query file.
  double seconds = 20.0;
  /// false: the end-to-end run (tracing off). true: the separate traced
  /// run that reports the per-layer metrics.
  bool trace = false;
  /// Scratch directory for this run (inputs, segments, sockets, trace).
  std::string work_dir;
  /// The `mpc` binary lubm_remote spawns as `mpc site` workers.
  std::string mpc_binary;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunReport {
  /// Every checked answer matched its oracle and nothing failed.
  bool correct = true;
  /// Queries plus update batches.
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
};

/// Generates the inputs for options.seed, deploys the system from them
/// and measures it. Errors are problems of the benchmark itself (bad
/// arguments, unreadable files, too few samples for a percentile);
/// failures of the system under test come back in the report.
mpc::Result<RunReport> RunWorkload(const RunOptions& options);

}  // namespace servebench

#endif  // SERVEBENCH_WORKLOADS_H_

#ifndef MPC_EXEC_FAULT_MODEL_H_
#define MPC_EXEC_FAULT_MODEL_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/status.h"
#include "exec/cluster.h"

namespace mpc::exec {

/// What the fault model injects for one (site, subquery-step, attempt)
/// RPC of a simulated query.
enum class FaultKind {
  kNone = 0,
  /// The site stops responding and stays down for the rest of the query
  /// (fail-stop). Its internal data is unreachable; only crossing-edge
  /// replicas on live sites survive.
  kCrash,
  /// One lost/errored RPC; the same site succeeds on a later attempt.
  kTransient,
  /// The site answers, but slower by `FaultOptions::slowdown_factor`.
  /// With a configured site deadline the slow attempt misses it and is
  /// retried; without one the extra latency is only charged to the
  /// simulated clock.
  kSlowdown,
};

const char* FaultKindName(FaultKind kind);

/// Configuration of the injected failure distribution. All sampling is a
/// pure function of (seed, site, step, attempt), so a query's fault
/// schedule is identical at every thread count and on every rerun —
/// faults are reproducible test inputs, not noise.
struct FaultOptions {
  uint64_t seed = 0;
  /// P[site crashes at a given subquery step] (sampled once per
  /// (site, step), before the first attempt; crashes are sticky).
  double crash_rate = 0.0;
  /// P[one attempt fails transiently].
  double transient_rate = 0.0;
  /// P[one attempt is slowed by slowdown_factor].
  double slowdown_rate = 0.0;
  double slowdown_factor = 8.0;
  /// Sites that are down before the query starts (deterministic
  /// alternative to crash_rate; the CLI's --fail-sites).
  std::vector<uint32_t> fail_sites;

  bool any() const {
    return crash_rate > 0.0 || transient_rate > 0.0 ||
           slowdown_rate > 0.0 || !fail_sites.empty();
  }
};

/// Deterministic, seeded fault injector for the simulated cluster. The
/// model is stateless after construction: every decision hashes
/// (seed, site, step, attempt), so concurrent probing from the executor's
/// worker threads is race-free and the schedule never depends on timing.
class FaultModel {
 public:
  FaultModel() = default;
  explicit FaultModel(FaultOptions options);

  bool enabled() const { return options_.any(); }
  const FaultOptions& options() const { return options_; }

  /// The fault injected into attempt `attempt` of subquery step `step`
  /// at `site`. Crashes are only sampled at attempt 0 (a site that
  /// survived the first attempt of a step does not crash mid-retry).
  FaultKind Sample(uint32_t site, size_t step, int attempt) const;

  /// True iff the site is already down when step `step` begins: it is
  /// listed in fail_sites, or a crash was sampled at an earlier step.
  bool DownBefore(uint32_t site, size_t step) const;

  /// The one call-level fault wrapper: evaluates `request` at every
  /// site of `sites` through `backend`'s batch call for subquery step
  /// `step`, with this model's faults injected at the call. Each site's
  /// attempts are simulated first; only the sites that survive them are
  /// sent to the backend, in one batch. A simulated fault comes back the
  /// way a real transport reports a real one — a Status (Unavailable for
  /// a crash or for transient errors that outlast the retries,
  /// DeadlineExceeded for slowdowns that keep missing the deadline) with
  /// the reply's retries and wait_millis charged the simulated attempts;
  /// a failed site's eval_millis stays 0, a tolerated slowdown scales it
  /// by slowdown_factor. Exhausted transient retries also set the
  /// reply's `transient`: the site is not down for later steps. `net`
  /// supplies the deadline, retry and backoff settings, for the
  /// simulated attempts and for the backend's real ones alike;
  /// `num_threads` is the backend's. With faults off this forwards
  /// straight to the backend.
  void EvaluateOnSites(const ClusterBackend& backend, const NetworkModel& net,
                       size_t step, std::span<const uint32_t> sites,
                       const store::ResolvedQuery& resolved,
                       const SiteEvalRequest& request, int num_threads,
                       std::span<SiteEvalReply> replies,
                       std::span<Status> statuses) const;

 private:
  double Uniform(uint32_t site, size_t step, int attempt) const;
  bool InFailList(uint32_t site) const;

  FaultOptions options_;
};

}  // namespace mpc::exec

#endif  // MPC_EXEC_FAULT_MODEL_H_

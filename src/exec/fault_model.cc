#include "exec/fault_model.h"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "obs/trace.h"

namespace mpc::exec {

namespace {

/// What the simulated attempts of one site call amount to.
struct SimulatedAttempts {
  Status status = Status::Ok();
  int retries = 0;
  /// Simulated waiting: backoff between attempts, blown deadlines,
  /// failure detection.
  double wait_ms = 0.0;
  /// Multiplier on the measured eval time (slowdown fault, no deadline).
  double slowdown = 1.0;
  bool transient = false;
};

/// Plays the retry protocol of one (site, step) call against the pure
/// fault schedule, one exec.rpc.attempt span per simulated attempt.
SimulatedAttempts Simulate(const FaultModel& faults, const NetworkModel& net,
                           size_t step, uint32_t site) {
  SimulatedAttempts out;
  auto fail = [&](StatusCode code, const char* what) {
    std::string msg = "site " + std::to_string(site) + " " + what +
                      " at subquery step " + std::to_string(step);
    out.status = code == StatusCode::kDeadlineExceeded
                     ? Status::DeadlineExceeded(std::move(msg))
                     : Status::Unavailable(std::move(msg));
    return out;
  };
  if (faults.DownBefore(site, step)) {
    // Crashed at an earlier step while not being contacted (e.g. it was
    // pruned then); this contact detects it.
    out.wait_ms = net.FailureDetectMillis();
    obs::TraceSpan span("exec.rpc.attempt");
    span.Attr("site", site)
        .Attr("subquery", static_cast<uint64_t>(step))
        .Attr("attempt", 0)
        .Attr("fault", "crash")
        .Attr("sim_wait_ms", out.wait_ms);
    return fail(StatusCode::kUnavailable, "is down");
  }
  for (int attempt = 0; attempt <= net.max_retries; ++attempt) {
    obs::TraceSpan span("exec.rpc.attempt");
    const FaultKind kind = faults.Sample(site, step, attempt);
    span.Attr("site", site)
        .Attr("subquery", static_cast<uint64_t>(step))
        .Attr("attempt", attempt)
        .Attr("fault", FaultKindName(kind));
    switch (kind) {
      case FaultKind::kNone:
        return out;
      case FaultKind::kCrash:
        // Fail-stop: no retry can help; the site is gone for the rest of
        // the query.
        out.wait_ms += net.FailureDetectMillis();
        span.Attr("sim_wait_ms", net.FailureDetectMillis());
        return fail(StatusCode::kUnavailable, "crashed");
      case FaultKind::kTransient:
        out.wait_ms += net.BackoffMillis(attempt);
        span.Attr("sim_wait_ms", net.BackoffMillis(attempt));
        if (attempt == net.max_retries) {
          out.transient = true;
          return fail(StatusCode::kUnavailable, "exhausted its retries");
        }
        ++out.retries;
        break;
      case FaultKind::kSlowdown:
        if (!net.has_deadline()) {
          // No deadline configured: the slow answer is accepted and its
          // latency multiplier charged to the simulated clock.
          out.slowdown = faults.options().slowdown_factor;
          span.Attr("slowdown", out.slowdown);
          return out;
        }
        // The slow attempt misses the per-site deadline; we waited the
        // full timeout for nothing.
        out.wait_ms += net.site_timeout_ms;
        span.Attr("sim_wait_ms", net.site_timeout_ms);
        if (attempt == net.max_retries) {
          return fail(StatusCode::kDeadlineExceeded,
                      "kept missing its deadline");
        }
        ++out.retries;
        break;
    }
  }
  return out;
}

}  // namespace

const char* FaultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kNone:
      return "none";
    case FaultKind::kCrash:
      return "crash";
    case FaultKind::kTransient:
      return "transient";
    case FaultKind::kSlowdown:
      return "slowdown";
  }
  return "unknown";
}

FaultModel::FaultModel(FaultOptions options) : options_(std::move(options)) {
  std::sort(options_.fail_sites.begin(), options_.fail_sites.end());
}

bool FaultModel::InFailList(uint32_t site) const {
  return std::binary_search(options_.fail_sites.begin(),
                            options_.fail_sites.end(), site);
}

double FaultModel::Uniform(uint32_t site, size_t step, int attempt) const {
  // Two SplitMix64 rounds over a distinct-coordinate mix; the golden-ratio
  // multipliers keep (site, step, attempt) lattices from colliding.
  uint64_t state = options_.seed;
  state ^= 0x9e3779b97f4a7c15ULL * (static_cast<uint64_t>(site) + 1);
  state ^= 0xbf58476d1ce4e5b9ULL * (static_cast<uint64_t>(step) + 1);
  state ^= 0x94d049bb133111ebULL * (static_cast<uint64_t>(attempt) + 1);
  SplitMix64(state);
  const uint64_t z = SplitMix64(state);
  return static_cast<double>(z >> 11) * 0x1.0p-53;
}

FaultKind FaultModel::Sample(uint32_t site, size_t step, int attempt) const {
  if (!enabled()) return FaultKind::kNone;
  if (attempt == 0 && InFailList(site)) return FaultKind::kCrash;
  const double u = Uniform(site, step, attempt);
  // One uniform draw against the cumulative bands. Retries re-sample
  // only the transient/slowdown bands: a site that survived attempt 0
  // of this step cannot crash mid-retry.
  double band = attempt == 0 ? options_.crash_rate : 0.0;
  if (attempt == 0 && u < band) return FaultKind::kCrash;
  band += options_.transient_rate;
  if (u < band) return FaultKind::kTransient;
  band += options_.slowdown_rate;
  if (u < band) return FaultKind::kSlowdown;
  return FaultKind::kNone;
}

bool FaultModel::DownBefore(uint32_t site, size_t step) const {
  if (!enabled()) return false;
  if (InFailList(site)) return true;
  for (size_t s = 0; s < step; ++s) {
    if (Sample(site, s, 0) == FaultKind::kCrash) return true;
  }
  return false;
}

void FaultModel::EvaluateOnSites(const ClusterBackend& backend,
                                 const NetworkModel& net, size_t step,
                                 std::span<const uint32_t> sites,
                                 const store::ResolvedQuery& resolved,
                                 const SiteEvalRequest& request,
                                 int num_threads,
                                 std::span<SiteEvalReply> replies,
                                 std::span<Status> statuses) const {
  const SiteCallPolicy policy = SiteCallPolicy::FromNetwork(net);
  if (!enabled()) {
    backend.EvaluateOnSites(sites, resolved, request, policy, num_threads,
                            replies, statuses);
    return;
  }
  std::vector<SimulatedAttempts> attempts(sites.size());
  std::vector<uint32_t> survivors;
  std::vector<size_t> slots;
  for (size_t s = 0; s < sites.size(); ++s) {
    attempts[s] = Simulate(*this, net, step, sites[s]);
    if (attempts[s].status.ok()) {
      survivors.push_back(sites[s]);
      slots.push_back(s);
      continue;
    }
    replies[s].retries = attempts[s].retries;
    replies[s].wait_millis = attempts[s].wait_ms;
    replies[s].transient = attempts[s].transient;
    statuses[s] = attempts[s].status;
  }
  std::vector<SiteEvalReply> survivor_replies(survivors.size());
  std::vector<Status> survivor_statuses(survivors.size());
  backend.EvaluateOnSites(survivors, resolved, request, policy, num_threads,
                          survivor_replies, survivor_statuses);
  for (size_t i = 0; i < survivors.size(); ++i) {
    const SimulatedAttempts& simulated = attempts[slots[i]];
    SiteEvalReply& reply = replies[slots[i]];
    reply = std::move(survivor_replies[i]);
    reply.eval_millis *= simulated.slowdown;
    reply.retries += simulated.retries;
    reply.wait_millis += simulated.wait_ms;
    statuses[slots[i]] = std::move(survivor_statuses[i]);
  }
}

}  // namespace mpc::exec

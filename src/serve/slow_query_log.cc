#include "serve/slow_query_log.h"

#include <sys/stat.h>

#include <cstdio>
#include <fstream>
#include <utility>
#include <vector>

#include "exec/query_classifier.h"
#include "obs/json.h"
#include "obs/trace.h"
#include "sparql/shape.h"

namespace mpc::serve {

namespace {

/// The per-site attempt timeline: every exec.rpc.attempt span recorded
/// under this query's trace id, in start order (CollectTrace's order
/// within a track; cross-track order is by pid/tid, which is fine for a
/// log a human reads sorted anyway).
std::string AttemptsJson(const std::vector<obs::TraceEvent>& events) {
  std::string out = "[";
  bool first = true;
  for (const obs::TraceEvent& e : events) {
    if (e.name != "exec.rpc.attempt") continue;
    if (!first) out += ",";
    first = false;
    out += "{\"start_us\":" + obs::JsonNumber(e.start_us) +
           ",\"dur_us\":" + obs::JsonNumber(e.dur_us);
    bool ok = true;
    for (const obs::TraceAttr& a : e.attrs) {
      if (a.key == "site" || a.key == "attempt" || a.key == "rows") {
        out += ',' + obs::JsonString(a.key) + ':' + a.value.ToJson();
      } else if (a.key == "error") {
        ok = false;
        out += ",\"error\":" + a.value.ToJson();
      }
    }
    out += std::string(",\"ok\":") + (ok ? "true" : "false") + "}";
  }
  out += "]";
  return out;
}

}  // namespace

SlowQueryLog::SlowQueryLog(Options options) : options_(std::move(options)) {}

void SlowQueryLog::MaybeRecord(const exec::QueryRequest& request,
                               const Result<exec::QueryResponse>& result,
                               double latency_ms, double queue_wait_ms) {
  if (!options_.enabled() || latency_ms < options_.threshold_ms) return;

  std::string line = "{";
  line += "\"latency_ms\":" + obs::JsonNumber(latency_ms);
  line += ",\"queue_wait_ms\":" + obs::JsonNumber(queue_wait_ms);
  line += ",\"text\":" + obs::JsonString(request.text);
  // Recomputing the canonical shape key re-parses the query, but only
  // on the slow path — the fast path never pays for the log.
  Result<sparql::QueryGraph> query = exec::ResolveRequestQuery(request);
  if (query.ok()) {
    line += ",\"shape_key\":" +
            obs::JsonString(sparql::CanonicalShapeKey(*query));
  }
  uint64_t trace_id = 0;
  if (result.ok()) {
    const exec::ExecutionStats& stats = result->stats;
    trace_id = stats.trace_id;
    line += std::string(",\"plan\":{\"cls\":") +
            obs::JsonString(exec::IeqClassName(stats.cls)) +
            ",\"independent\":" + (stats.independent ? "true" : "false") +
            ",\"num_subqueries\":" + std::to_string(stats.num_subqueries) +
            ",\"plan_cache_hit\":" + (stats.plan_cache_hit ? "true" : "false") +
            ",\"result_cache_hit\":" +
            (stats.result_cache_hit ? "true" : "false") + "}";
    line += std::string(",\"complete\":") + (stats.complete ? "true" : "false");
    line += ",\"completeness_bound\":" +
            obs::JsonNumber(stats.completeness_bound);
    line += ",\"rows\":" + std::to_string(result->bindings.num_rows());
    line += ",\"retries\":" + std::to_string(stats.retries);
    line += ",\"sites_failed\":" + std::to_string(stats.sites_failed);
  } else {
    line += ",\"error\":" + obs::JsonString(result.status().ToString());
  }
  if (trace_id != 0) {
    const std::vector<obs::TraceEvent> events =
        obs::ExtractTraceForId(trace_id);
    line += ",\"trace_id\":" + std::to_string(trace_id);
    line += ",\"attempts\":" + AttemptsJson(events);
    if (options_.keep_traces) {
      line += ",\"trace_file\":" +
              obs::JsonString(options_.path + ".trace." +
                              std::to_string(trace_id) + ".json");
    }
  }
  line += "}\n";

  std::lock_guard<std::mutex> lock(mutex_);
  if (trace_id != 0 && options_.keep_traces) {
    const std::string trace_path =
        options_.path + ".trace." + std::to_string(trace_id) + ".json";
    // Retained only for slow queries; a failed write is not worth
    // failing the query path over.
    (void)obs::WriteTraceForId(trace_id, trace_path);
  }
  AppendLocked(line);
}

void SlowQueryLog::AppendLocked(const std::string& line) {
  if (!sized_) {
    struct stat st;
    bytes_ = ::stat(options_.path.c_str(), &st) == 0
                 ? static_cast<size_t>(st.st_size)
                 : 0;
    sized_ = true;
  }
  if (bytes_ > 0 && bytes_ + line.size() > options_.max_bytes) {
    // Single rotation keeps the on-disk footprint <= 2x the cap while
    // the freshest entries always survive.
    (void)std::rename(options_.path.c_str(),
                      (options_.path + ".old").c_str());
    bytes_ = 0;
  }
  std::ofstream out(options_.path, std::ios::binary | std::ios::app);
  if (!out) return;
  out.write(line.data(), static_cast<std::streamsize>(line.size()));
  bytes_ += line.size();
  ++entries_;
}

}  // namespace mpc::serve

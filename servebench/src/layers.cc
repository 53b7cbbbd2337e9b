#include "layers.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "common/timer.h"
#include "exec/decomposer.h"
#include "exec/join.h"
#include "exec/rpc_protocol.h"
#include "sparql/parser.h"
#include "stats.h"

namespace servebench {

namespace {

using mpc::obs::TraceEvent;
using mpc::obs::TraceSpan;

std::string Stripped(const std::string& name) {
  return name.substr(std::string(kSpanPrefix).size());
}

std::string LayerOf(const std::string& stripped) {
  return stripped.substr(0, stripped.find('.'));
}

/// Length of the union of [start, end) intervals.
double CoveredUs(std::vector<std::pair<double, double>> intervals) {
  std::sort(intervals.begin(), intervals.end());
  double covered = 0.0;
  double end = -1.0;
  for (const auto& [lo, hi] : intervals) {
    const double from = std::max(lo, end);
    if (hi > from) covered += hi - from;
    end = std::max(end, hi);
  }
  return covered;
}

/// p-th percentile of `samples`, or 0 when the layer recorded none (the
/// workload does not exercise it).
mpc::Result<double> PercentileOrZero(const std::vector<double>& samples,
                                     double pct, const std::string& metric) {
  if (samples.empty()) return 0.0;
  return Percentile(samples, pct, metric);
}

}  // namespace

void SpanTable::Add(const std::vector<TraceEvent>& events) {
  for (const TraceEvent& e : events) {
    if (e.name.rfind(kSpanPrefix, 0) == 0) events_.push_back(e);
  }
}

std::vector<double> SpanTable::DurationsMs(const std::string& name) const {
  const std::string full = kSpanPrefix + name;
  std::vector<double> out;
  for (const TraceEvent& e : events_) {
    if (e.name == full) out.push_back(e.dur_us / 1000.0);
  }
  return out;
}

double SpanTable::SumMs(const std::string& name) const {
  return Sum(DurationsMs(name));
}

std::vector<double> SpanTable::SelfMs(
    const std::vector<std::string>& skip) const {
  auto skipped = [&](const TraceEvent& e) {
    return std::find(skip.begin(), skip.end(), Stripped(e.name)) != skip.end();
  };
  std::unordered_map<uint64_t, size_t> by_id;
  for (size_t i = 0; i < events_.size(); ++i) {
    if (!skipped(events_[i])) by_id.emplace(events_[i].span_id, i);
  }
  std::vector<std::vector<std::pair<double, double>>> children(events_.size());
  for (const TraceEvent& e : events_) {
    if (skipped(e)) continue;
    auto parent = by_id.find(e.parent_id);
    if (parent == by_id.end()) continue;
    const TraceEvent& p = events_[parent->second];
    children[parent->second].emplace_back(
        std::max(e.start_us, p.start_us),
        std::min(e.start_us + e.dur_us, p.start_us + p.dur_us));
  }
  std::vector<double> self(events_.size(), 0.0);
  for (size_t i = 0; i < events_.size(); ++i) {
    if (skipped(events_[i])) continue;
    self[i] = (events_[i].dur_us - CoveredUs(std::move(children[i]))) / 1000.0;
  }
  return self;
}

double SpanTable::SelfMsOf(const std::string& name) const {
  const std::vector<double> self = SelfMs({});
  const std::string full = kSpanPrefix + name;
  double sum = 0.0;
  for (size_t i = 0; i < events_.size(); ++i) {
    if (events_[i].name == full) sum += self[i];
  }
  return sum;
}

std::map<std::string, double> SpanTable::SelfMsByLayer(
    const std::vector<std::string>& skip) const {
  const std::vector<double> self_ms = SelfMs(skip);
  std::map<std::string, double> self;
  for (size_t i = 0; i < events_.size(); ++i) {
    self[LayerOf(Stripped(events_[i].name))] += self_ms[i];
  }
  return self;
}

mpc::Result<ReplayOutcome> ReplayQueries(
    const ReplayTarget& target, const std::vector<std::string>& queries,
    size_t rounds, std::vector<Metric>* metrics) {
  namespace exec = mpc::exec;
  namespace store = mpc::store;
  const mpc::serve::ServingState& state = *target.state;
  const exec::ClusterBackend& backend = state.cluster();
  const mpc::rdf::RdfGraph& graph = state.graph();

  ReplayOutcome out;
  uint64_t shipped_bytes = 0;
  uint64_t sites_pruned = 0;
  uint64_t sites_evaluated = 0;
  uint64_t local_rows = 0;
  uint64_t num_results = 0;
  uint64_t retries = 0;
  uint64_t reply_bytes = 0;
  uint64_t replies = 0;
  std::vector<double> rpc_overhead_ms;

  for (size_t round = 0; round < rounds; ++round) {
    for (const std::string& text : queries) {
      ++out.queries;
      mpc::Result<mpc::sparql::QueryGraph> parsed =
          mpc::Status::Internal("unparsed");
      {
        TraceSpan span("bench.sparql.parse");
        parsed = mpc::sparql::SparqlParser::Parse(text);
      }
      if (!parsed.ok()) return parsed.status();

      mpc::Result<exec::QueryResponse> direct =
          mpc::Status::Internal("not executed");
      {
        TraceSpan span("bench.exec.execute");
        direct = state.distributed().Execute(
            exec::QueryRequest::FromQuery(*parsed));
      }
      if (!direct.ok()) {
        ++out.mismatches;
        continue;
      }
      // Later rounds only add Execute samples for its tail.
      if (round > 0) continue;
      shipped_bytes += direct->stats.shipped_bytes;
      sites_pruned += direct->stats.sites_pruned;
      sites_evaluated += direct->stats.sites_evaluated;
      local_rows += direct->stats.local_rows;
      num_results += direct->stats.num_results;

      store::BindingTable replayed;
      {
        TraceSpan replay_span("bench.exec.replay");
        exec::QueryPlan plan;
        {
          TraceSpan span("bench.exec.plan");
          plan = exec::PlanQuery(*parsed, backend.partitioning(), graph);
        }
        const store::ResolvedQuery resolved =
            store::ResolveQuery(*parsed, graph);
        std::vector<store::BindingTable> tables;
        for (const std::vector<size_t>& sub : plan.decomposition.subqueries) {
          std::vector<mpc::rdf::PropertyId> required;
          for (size_t idx : sub) {
            const store::ResolvedPattern& p = resolved.patterns[idx];
            if (!p.p_is_var && !p.impossible) required.push_back(p.p);
          }
          exec::SiteEvalRequest request;
          request.pattern_indices = sub;
          store::BindingTable merged;
          for (uint32_t site = 0; site < backend.k(); ++site) {
            if (!std::all_of(required.begin(), required.end(),
                             [&](mpc::rdf::PropertyId p) {
                               return backend.SiteHasProperty(site, p);
                             })) {
              continue;
            }
            exec::SiteEvalReply reply;
            mpc::Status status = mpc::Status::Ok();
            if (target.remote != nullptr) {
              mpc::Timer rpc_timer;
              {
                TraceSpan span("bench.net.rpc");
                status = target.remote->EvaluateOnSite(
                    site, resolved, request, exec::SiteCallPolicy(), &reply);
              }
              const double rpc_ms = rpc_timer.ElapsedMillis();
              retries += static_cast<uint64_t>(reply.retries);
              exec::SiteEvalReply local;
              mpc::Timer local_timer;
              {
                TraceSpan span("bench.store.site_eval");
                (void)target.reference->EvaluateOnSite(
                    site, resolved, request, exec::SiteCallPolicy(), &local);
              }
              rpc_overhead_ms.push_back(rpc_ms - local_timer.ElapsedMillis());
              std::string payload;
              {
                TraceSpan span("bench.net.encode_reply");
                payload = exec::EncodeEvalReply(local);
              }
              reply_bytes += payload.size();
              ++replies;
              exec::SiteEvalReply decoded;
              mpc::Status decode_status = mpc::Status::Ok();
              {
                TraceSpan span("bench.net.decode_reply");
                decode_status = exec::DecodeEvalReply(payload, &decoded);
              }
              if (!decode_status.ok() ||
                  decoded.table.rows != local.table.rows ||
                  (status.ok() && (reply.table.var_ids != local.table.var_ids ||
                                   reply.table.rows != local.table.rows))) {
                ++out.mismatches;
              }
            } else {
              TraceSpan span("bench.store.site_eval");
              status = backend.EvaluateOnSite(site, resolved, request,
                                              exec::SiteCallPolicy(), &reply);
            }
            if (!status.ok()) {
              ++out.mismatches;
              continue;
            }
            if (merged.var_ids.empty()) merged.var_ids = reply.table.var_ids;
            for (auto& row : reply.table.rows) {
              merged.rows.push_back(std::move(row));
            }
          }
          if (merged.var_ids.empty()) merged = exec::SchemaTable(resolved, sub);
          merged.Deduplicate();
          tables.push_back(std::move(merged));
        }
        if (plan.classification.independently_executable()) {
          replayed = std::move(tables.front());
        } else {
          TraceSpan span("bench.exec.join");
          replayed = exec::JoinAll(std::move(tables));
          replayed.Deduplicate();
        }
        replayed.SortColumnsAscending();
        if (parsed->limit() != SIZE_MAX &&
            replayed.rows.size() > parsed->limit()) {
          replayed.rows.resize(parsed->limit());
        }
      }
      if (replayed.var_ids != direct->bindings.var_ids ||
          replayed.rows != direct->bindings.rows) {
        ++out.mismatches;
      }
    }
  }

  auto add = [&](const char* name, double value, const char* unit) {
    metrics->push_back(Metric{name, value, unit});
  };
  add("exec.shipped_bytes", static_cast<double>(shipped_bytes), "B");
  add("exec.sites_pruned_pct",
      sites_pruned + sites_evaluated == 0
          ? 0.0
          : 100.0 * static_cast<double>(sites_pruned) /
                static_cast<double>(sites_pruned + sites_evaluated),
      "%");
  add("store.rows_per_result",
      num_results == 0 ? 0.0
                       : static_cast<double>(local_rows) /
                             static_cast<double>(num_results),
      "count");
  mpc::Result<double> overhead =
      PercentileOrZero(rpc_overhead_ms, 50, "net.rpc_overhead_ms_p50");
  if (!overhead.ok()) return overhead.status();
  add("net.rpc_overhead_ms_p50", *overhead, "ms");
  add("net.reply_bytes",
      replies == 0 ? 0.0
                   : static_cast<double>(reply_bytes) /
                         static_cast<double>(replies),
      "B");
  add("net.retries", static_cast<double>(retries), "count");
  return out;
}

mpc::Status AddSpanMetrics(const SpanTable& spans,
                           std::vector<Metric>* metrics) {
  auto add = [&](const std::string& name, double value, const char* unit) {
    metrics->push_back(Metric{name, value, unit});
  };
  struct PercentileMetric {
    const char* metric;
    const char* span;
    double pct;
    double scale;  // ms -> metric unit
    const char* unit;
  };
  for (const PercentileMetric& q : std::vector<PercentileMetric>{
           {"store.site_eval_ms_p50", "store.site_eval", 50, 1, "ms"},
           {"sparql.parse_us_p50", "sparql.parse", 50, 1000, "us"},
           {"exec.execute_ms_p50", "exec.execute", 50, 1, "ms"},
           {"exec.execute_ms_p99", "exec.execute", 99, 1, "ms"},
           {"net.rpc_ms_p50", "net.rpc", 50, 1, "ms"},
           {"net.encode_reply_us", "net.encode_reply", 50, 1000, "us"},
           {"net.decode_reply_us", "net.decode_reply", 50, 1000, "us"},
           {"serve.publish_ms", "serve.publish", 50, 1, "ms"},
           {"dynamic.apply_ms_p50", "dynamic.apply", 50, 1, "ms"},
           {"dynamic.capture_ms_p50", "dynamic.capture", 50, 1, "ms"},
       }) {
    mpc::Result<double> value =
        PercentileOrZero(spans.DurationsMs(q.span), q.pct, q.metric);
    if (!value.ok()) return value.status();
    add(q.metric, *value * q.scale, q.unit);
  }
  for (const char* layer_call :
       {"rdf.parse", "mpc.partition", "partition.save", "store.build",
        "storage.pack", "storage.open", "net.start"}) {
    add(std::string(layer_call) + "_ms", spans.SumMs(layer_call), "ms");
  }
  add("store.site_eval_ms_sum", spans.SumMs("store.site_eval"), "ms");
  add("exec.plan_ms", spans.SumMs("exec.plan"), "ms");
  add("exec.join_ms", spans.SumMs("exec.join"), "ms");

  // exec.merge_ms: the replay span's self time, i.e. Execute's steps
  // minus plan, site evaluations and join: the coordinator merge/dedupe.
  add("exec.merge_ms", spans.SelfMsOf("exec.replay"), "ms");

  const std::map<std::string, double> self =
      spans.SelfMsByLayer({"serve.query", "exec.execute"});
  for (const char* layer : {"rdf", "mpc", "partition", "store", "storage",
                            "sparql", "exec", "net", "serve", "dynamic"}) {
    auto it = self.find(layer);
    add(std::string("self.") + layer + "_ms",
        it == self.end() ? 0.0 : it->second, "ms");
  }
  return mpc::Status::Ok();
}

}  // namespace servebench

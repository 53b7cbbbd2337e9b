#ifndef MPC_BENCH_BENCH_UTIL_H_
#define MPC_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <cstdlib>
#include <iomanip>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "common/string_util.h"
#include "common/timer.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "exec/cluster.h"
#include "exec/decomposer.h"
#include "exec/distributed_executor.h"
#include "mpc/mpc_partitioner.h"
#include "partition/edge_cut_partitioner.h"
#include "partition/subject_hash_partitioner.h"
#include "partition/vp_partitioner.h"
#include "sparql/parser.h"
#include "sparql/shape.h"
#include "workload/datasets.h"

namespace mpc::bench {

inline constexpr uint32_t kSites = 8;
inline constexpr double kEpsilon = 0.1;

/// The four partitioning strategies of the paper's evaluation, by table
/// name.
inline std::vector<std::string> StrategyNames() {
  return {"MPC", "Subject_Hash", "VP", "METIS"};
}

/// Instantiates the named strategy behind the common Partitioner
/// interface. num_threads follows the shared convention (0 = hardware
/// concurrency, 1 = serial).
inline std::unique_ptr<partition::Partitioner> MakeStrategy(
    const std::string& name, uint64_t seed = 1, int num_threads = 1) {
  partition::PartitionerOptions base{.k = kSites,
                                     .epsilon = kEpsilon,
                                     .seed = seed,
                                     .num_threads = num_threads};
  if (name == "MPC" || name == "MPC-Exact") {
    core::MpcOptions options;
    options.base = base;
    if (name == "MPC-Exact") {
      options.strategy = core::SelectionStrategy::kExact;
    }
    return std::make_unique<core::MpcPartitioner>(options);
  }
  if (name == "Subject_Hash") {
    return std::make_unique<partition::SubjectHashPartitioner>(base);
  }
  if (name == "VP") {
    return std::make_unique<partition::VpPartitioner>(base);
  }
  if (name == "METIS") {
    return std::make_unique<partition::EdgeCutPartitioner>(base);
  }
  std::cerr << "unknown strategy " << name << "\n";
  std::abort();
}

/// Runs the named strategy, reporting per-stage timings and thread usage
/// through the unified RunStats that every Partitioner now fills
/// (stats.total_millis is the strategy's partitioning time).
inline partition::Partitioning RunStrategy(
    const std::string& name, const rdf::RdfGraph& graph,
    partition::RunStats* stats = nullptr, uint64_t seed = 1,
    int num_threads = 1) {
  return MakeStrategy(name, seed, num_threads)->Partition(graph, stats);
}

inline sparql::QueryGraph MustParse(const std::string& text) {
  Result<sparql::QueryGraph> q = sparql::SparqlParser::Parse(text);
  if (!q.ok()) {
    std::cerr << "query parse failed: " << q.status().ToString() << "\n"
              << text << "\n";
    std::abort();
  }
  return std::move(q).value();
}

/// IEQ share (%) of `queries` under `partitioning`: the share of
/// union-only plans (PlanQuery — the Section V-A classifier, or VP's
/// single-site locality test). `stars_only` instead credits star
/// queries only (the plain Subject_Hash / METIS columns of Table III,
/// before their "+" crossing-property extension).
inline double IeqPercent(const std::vector<workload::NamedQuery>& queries,
                         const partition::Partitioning& partitioning,
                         const rdf::RdfGraph& graph,
                         bool stars_only = false) {
  if (queries.empty()) return 0.0;
  size_t ieq = 0;
  for (const workload::NamedQuery& nq : queries) {
    sparql::QueryGraph q = MustParse(nq.sparql);
    ieq += stars_only ? sparql::IsStarQuery(q)
                      : exec::PlanQuery(q, partitioning, graph).union_only;
  }
  return 100.0 * static_cast<double>(ieq) /
         static_cast<double>(queries.size());
}

/// Five-number summary used by Fig. 8's candlesticks.
struct Quartiles {
  double min = 0, q1 = 0, median = 0, q3 = 0, max = 0;
};

inline Quartiles Summarize(std::vector<double> values) {
  Quartiles q;
  if (values.empty()) return q;
  std::sort(values.begin(), values.end());
  auto at = [&](double frac) {
    size_t idx = static_cast<size_t>(frac * (values.size() - 1));
    return values[idx];
  };
  q.min = values.front();
  q.q1 = at(0.25);
  q.median = at(0.5);
  q.q3 = at(0.75);
  q.max = values.back();
  return q;
}

/// Fixed-width cell helpers for the table printers.
inline void Cell(const std::string& text, int width) {
  std::cout << std::right << std::setw(width) << text;
}
inline void LeftCell(const std::string& text, int width) {
  std::cout << std::left << std::setw(width) << text;
}

/// Scale factor from the first non-flag argument (default 1.0) so every
/// bench can be run smaller/larger: `./table2_partition_quality 0.25`.
/// Flag-style arguments ("--trace-out=...") are skipped, so the scale
/// and the observability flags compose in any order.
inline double ScaleFromArgs(int argc, char** argv, double fallback = 1.0) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) == 0) continue;
    double value = std::atof(arg.c_str());
    if (value > 0) return value;
  }
  return fallback;
}

/// Honors the CLI's observability flags in any bench binary:
///
///   ./table2_partition_quality 0.25 --trace-out=t.json --trace-summary
///
/// Construct once at the top of main(); tracing starts immediately when
/// any flag asks for it and the exports are written when the scope is
/// destroyed. Unknown flags are left alone (the bench may have its own).
class ObsScope {
 public:
  ObsScope(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg.rfind("--trace-out=", 0) == 0) {
        trace_out_ = arg.substr(12);
      } else if (arg.rfind("--metrics-out=", 0) == 0) {
        metrics_out_ = arg.substr(14);
      } else if (arg == "--trace-summary") {
        trace_summary_ = true;
      }
    }
    if (!trace_out_.empty() || trace_summary_) obs::StartTracing();
  }

  ~ObsScope() {
    obs::StopTracing();
    if (!trace_out_.empty()) {
      Status st = obs::WriteTrace(trace_out_);
      if (st.ok()) {
        std::cerr << "trace written to: " << trace_out_ << "\n";
      } else {
        std::cerr << st.ToString() << "\n";
      }
    }
    if (trace_summary_) std::cout << obs::TraceToTextTree();
    if (!metrics_out_.empty()) {
      Status st = obs::MetricsRegistry::Default().WriteJson(metrics_out_);
      if (st.ok()) {
        std::cerr << "metrics written to: " << metrics_out_ << "\n";
      } else {
        std::cerr << st.ToString() << "\n";
      }
    }
  }

  ObsScope(const ObsScope&) = delete;
  ObsScope& operator=(const ObsScope&) = delete;

 private:
  std::string trace_out_;
  std::string metrics_out_;
  bool trace_summary_ = false;
};

}  // namespace mpc::bench

#endif  // MPC_BENCH_BENCH_UTIL_H_

// Ablation: site localization (executor option site_pruning: property
// presence, ownership and constant stars, exec::SelectSites) — sound
// forms of the query
// localization the paper leaves as future work. Reports per-dataset how
// many site evaluations the benchmark queries and a query log save.

#include "bench_util.h"

namespace {

void RunDataset(mpc::workload::DatasetId id, double scale) {
  using namespace mpc;
  workload::GeneratedDataset d = workload::MakeDataset(id, scale);
  std::vector<workload::NamedQuery> queries = d.benchmark_queries;
  if (queries.empty()) {
    queries = workload::MakeQueryLog(id, d.graph, 300);
  }
  exec::Cluster cluster =
      exec::Cluster::Build(bench::RunStrategy("MPC", d.graph, nullptr));

  size_t with_pruning = 0, without_pruning = 0, pruned = 0;
  double time_with = 0, time_without = 0;
  for (const workload::NamedQuery& nq : queries) {
    sparql::QueryGraph q = bench::MustParse(nq.sparql);
    {
      exec::DistributedExecutor::Options options;
      options.site_pruning = true;
      options.max_rows = 200000;
      exec::DistributedExecutor executor(cluster, d.graph, options);
      auto response = executor.Execute(exec::QueryRequest::FromQuery(q));
      if (!response.ok()) std::exit(1);
      with_pruning += response->stats.sites_evaluated;
      pruned += response->stats.sites_pruned;
      time_with += response->stats.total_millis;
    }
    {
      exec::DistributedExecutor::Options options;
      options.site_pruning = false;
      options.max_rows = 200000;
      exec::DistributedExecutor executor(cluster, d.graph, options);
      auto response = executor.Execute(exec::QueryRequest::FromQuery(q));
      if (!response.ok()) std::exit(1);
      without_pruning += response->stats.sites_evaluated;
      time_without += response->stats.total_millis;
    }
  }
  bench::LeftCell(d.name, 10);
  bench::Cell(FormatWithCommas(without_pruning), 14);
  bench::Cell(FormatWithCommas(with_pruning), 14);
  bench::Cell(FormatDouble(100.0 * pruned /
                               std::max<size_t>(1, without_pruning),
                           1) +
                  "%",
              10);
  bench::Cell(FormatDouble(time_without / queries.size(), 1), 13);
  bench::Cell(FormatDouble(time_with / queries.size(), 1), 13);
  std::cout << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  const double scale = mpc::bench::ScaleFromArgs(argc, argv, 0.5);
  mpc::bench::ObsScope obs(argc, argv);
  std::cout << "=== Ablation: site localization under MPC (k=8, scale "
            << scale << ") ===\n";
  mpc::bench::LeftCell("Dataset", 10);
  mpc::bench::Cell("site-evals off", 14);
  mpc::bench::Cell("site-evals on", 14);
  mpc::bench::Cell("pruned", 10);
  mpc::bench::Cell("avg ms (off)", 13);
  mpc::bench::Cell("avg ms (on)", 13);
  std::cout << "\n";
  RunDataset(mpc::workload::DatasetId::kLubm, scale);
  RunDataset(mpc::workload::DatasetId::kYago2, scale);
  RunDataset(mpc::workload::DatasetId::kBio2rdf, scale);
  RunDataset(mpc::workload::DatasetId::kLgd, scale);
  std::cout << "(property presence prunes modular datasets — Bio2RDF's "
               "per-module vocabularies, LGD's tile tags; ownership prunes "
               "queries anchored at a constant on an internal property, or "
               "at one constant on every pattern)\n";
  return 0;
}

// Fig. 11: partitioning-agnostic system experiment — gStoreD-style
// partial-evaluation-and-assembly plan (ExecStrategy::kGstored) under the
// three vertex-disjoint partitionings, on LUBM's non-star queries and all
// YAGO2 queries. Fewer crossing properties => fewer local partial
// matches => faster.

#include "bench_util.h"

#include "exec/distributed_executor.h"

namespace {

void RunDataset(mpc::workload::DatasetId id, double scale,
                bool non_star_only) {
  using namespace mpc;
  workload::GeneratedDataset d = workload::MakeDataset(id, scale);

  std::vector<std::string> strategies = {"MPC", "Subject_Hash", "METIS"};
  std::vector<exec::Cluster> clusters;
  for (const std::string& s : strategies) {
    clusters.push_back(
        exec::Cluster::Build(bench::RunStrategy(s, d.graph, nullptr)));
  }

  std::cout << "--- " << d.name
            << " (gStoreD runtime: total ms | local partial matches) "
               "---\n";
  bench::LeftCell("Query", 7);
  for (const std::string& s : strategies) bench::Cell(s, 22);
  std::cout << "\n";

  // gStoreD dispatches every fragment to every site.
  exec::ExecutorOptions options;
  options.site_pruning = false;
  for (const workload::NamedQuery& nq : d.benchmark_queries) {
    if (non_star_only && nq.is_star) continue;
    sparql::QueryGraph q = bench::MustParse(nq.sparql);
    bench::LeftCell(nq.name, 7);
    for (exec::Cluster& cluster : clusters) {
      exec::DistributedExecutor executor(cluster, d.graph, options);
      auto response = executor.Execute(exec::QueryRequest::FromQuery(
          q, {.strategy = exec::ExecStrategy::kGstored}));
      if (!response.ok()) {
        std::cerr << nq.name << " failed: " << response.status().ToString()
                  << "\n";
        std::exit(1);
      }
      bench::Cell(FormatDouble(response->stats.total_millis, 1) + " | " +
                      FormatWithCommas(response->stats.local_rows),
                  22);
    }
    std::cout << "\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  const double scale = mpc::bench::ScaleFromArgs(argc, argv);
  mpc::bench::ObsScope obs(argc, argv);
  std::cout << "=== Fig. 11: Partitioning-agnostic (gStoreD) Experiments "
               "(k=8, scale "
            << scale << ") ===\n";
  RunDataset(mpc::workload::DatasetId::kLubm, scale,
             /*non_star_only=*/true);
  RunDataset(mpc::workload::DatasetId::kYago2, scale,
             /*non_star_only=*/false);
  std::cout << "(paper shape: MPC always smallest — fewer crossing "
               "properties mean fewer local partial matches)\n";
  return 0;
}

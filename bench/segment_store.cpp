// Out-of-core segment experiment: cold-start latency, resident footprint
// and query-mix latency of the mmap'ed SegmentStore backend against the
// in-memory TripleStore backend, on the LUBM mix.
//
//   ./segment_store [scale] [--trace-out=...] [--metrics-out=...]
//
// The two acceptance ratios are asserted (exit 1 when violated):
//   - segment cold start (open + TOC read) at least 5x faster than the
//     in-memory path's N-Triples re-parse + four-index build;
//   - per-site footprint (sum of MemoryUsage) at least 2x smaller.
// Query results are required to be bit-identical between the backends.
// Each query's median over its repeats is printed per backend.

#include <filesystem>
#include <fstream>
#include <functional>

#include "bench_util.h"
#include "exec/cluster.h"
#include "exec/query_api.h"
#include "partition/partition_io.h"
#include "rdf/ntriples.h"
#include "storage/segment_writer.h"
#include "store/triple_store.h"
#include "workload/lubm.h"

namespace mpc::bench {
namespace {

std::string TempDir(const std::string& name) {
  std::string dir = "/tmp/mpc_bench_" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

/// VmRSS from /proc/self/status, in bytes (0 when unavailable).
size_t ResidentBytes() {
  std::ifstream in("/proc/self/status");
  std::string key;
  while (in >> key) {
    if (key == "VmRSS:") {
      size_t kb = 0;
      in >> kb;
      return kb * 1024;
    }
    in.ignore(4096, '\n');
  }
  return 0;
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return v[static_cast<size_t>(q * (v.size() - 1))];
}

int Run(int argc, char** argv) {
  const double scale = ScaleFromArgs(argc, argv);

  workload::LubmOptions lubm_options;
  lubm_options.num_universities =
      std::max<uint32_t>(2, static_cast<uint32_t>(40 * scale));
  workload::GeneratedDataset dataset = workload::MakeLubm(lubm_options);
  const rdf::RdfGraph& graph = dataset.graph;
  std::cout << "LUBM x" << scale << ": "
            << FormatWithCommas(graph.triples().size()) << " triples, k="
            << kSites << "\n\n";

  const std::string dir = TempDir("segment_store");
  const std::string graph_path = dir + "/graph.nt";
  if (!rdf::WriteNTriplesFile(graph, graph_path).ok()) {
    std::cerr << "cannot write " << graph_path << "\n";
    return 1;
  }
  partition::Partitioning partitioning =
      RunStrategy("Subject_Hash", graph);
  if (!partition::PartitionIo::Save(graph, partitioning, dir).ok()) {
    std::cerr << "cannot save partitioning\n";
    return 1;
  }

  // --- pack -------------------------------------------------------------
  Timer pack_timer;
  storage::SegmentWriteStats pack_stats;
  Status pack_status = exec::PackSegments(partitioning, dir,
                                          storage::kDefaultBlockSize,
                                          &pack_stats);
  if (!pack_status.ok()) {
    std::cerr << pack_status.ToString() << "\n";
    return 1;
  }
  const uint64_t packed_bytes = pack_stats.file_bytes;
  const double pack_millis = pack_timer.ElapsedMillis();

  // --- cold start: what one site worker pays ----------------------------
  // Both paths are timed best-of-3: a single shot is dominated by page
  // cache and allocator warm-up jitter, which is not the effect under
  // measurement.
  constexpr int kColdRepeats = 3;

  // Memory backend: re-parse the N-Triples file and build the four-index
  // TripleStore for every site.
  double memory_cold_millis = 0.0;
  rdf::RdfGraph reparsed;
  exec::Cluster memory_cluster;
  for (int r = 0; r < kColdRepeats; ++r) {
    Timer timer;
    rdf::GraphBuilder builder;
    if (!rdf::NTriplesParser::ParseFile(graph_path, &builder, 1).ok()) {
      std::cerr << "re-parse failed\n";
      return 1;
    }
    reparsed = builder.Build();
    memory_cluster = exec::Cluster::Build(partitioning);
    const double millis = timer.ElapsedMillis();
    if (r == 0 || millis < memory_cold_millis) memory_cold_millis = millis;
  }

  const size_t rss_after_memory = ResidentBytes();

  // Segment backend: map the files, read headers and TOCs, verify.
  double segment_cold_millis = 0.0;
  Result<exec::Cluster> segment_cluster =
      Status::InvalidArgument("not yet opened");
  for (int r = 0; r < kColdRepeats; ++r) {
    Timer timer;
    segment_cluster = exec::Cluster::BuildFromSegments(partitioning, dir);
    const double millis = timer.ElapsedMillis();
    if (!segment_cluster.ok()) {
      std::cerr << segment_cluster.status().ToString() << "\n";
      return 1;
    }
    if (r == 0 || millis < segment_cold_millis) segment_cold_millis = millis;
  }

  const size_t memory_bytes = memory_cluster.MemoryUsage();
  const size_t segment_bytes = segment_cluster->MemoryUsage();

  std::cout << "pack:        " << FormatMillis(pack_millis) << " ms, "
            << FormatWithCommas(packed_bytes) << " B ("
            << FormatDouble(static_cast<double>(packed_bytes) /
                                static_cast<double>(graph.triples().size()),
                            2)
            << " B/triple)\n";
  std::cout << "cold start:  memory " << FormatMillis(memory_cold_millis)
            << " ms (parse + 4-index build), segment "
            << FormatMillis(segment_cold_millis) << " ms (mmap + TOC) -> "
            << FormatDouble(memory_cold_millis /
                                std::max(segment_cold_millis, 1e-3),
                            1)
            << "x\n";
  std::cout << "footprint:   memory " << FormatWithCommas(memory_bytes)
            << " B, segment " << FormatWithCommas(segment_bytes) << " B -> "
            << FormatDouble(static_cast<double>(memory_bytes) /
                                static_cast<double>(
                                    std::max<size_t>(segment_bytes, 1)),
                            1)
            << "x (VmRSS after memory build: "
            << FormatWithCommas(rss_after_memory) << " B)\n\n";

  // --- query mix: bit-identity + latency quantiles ----------------------
  exec::DistributedExecutor memory_exec(memory_cluster, graph, {});
  exec::DistributedExecutor segment_exec(*segment_cluster, graph, {});
  constexpr int kRepeats = 5;
  std::vector<double> memory_lat;
  std::vector<double> segment_lat;
  std::vector<std::string> per_query;
  uint64_t rows = 0;
  for (const workload::NamedQuery& q : dataset.benchmark_queries) {
    std::vector<double> memory_q;
    std::vector<double> segment_q;
    for (int r = 0; r < kRepeats; ++r) {
      Timer tm;
      Result<exec::QueryResponse> a =
          memory_exec.Execute(exec::QueryRequest::FromText(q.sparql));
      memory_q.push_back(tm.ElapsedMillis());
      Timer ts;
      Result<exec::QueryResponse> b =
          segment_exec.Execute(exec::QueryRequest::FromText(q.sparql));
      segment_q.push_back(ts.ElapsedMillis());
      if (!a.ok() || !b.ok()) {
        std::cerr << q.name << ": execution failed\n";
        return 1;
      }
      if (a->bindings.rows != b->bindings.rows ||
          a->bindings.var_ids != b->bindings.var_ids) {
        std::cerr << q.name << ": backends disagree ("
                  << a->bindings.num_rows() << " vs "
                  << b->bindings.num_rows() << " rows)\n";
        return 1;
      }
      if (r == 0) rows += a->bindings.num_rows();
    }
    const double memory_median = Quantile(memory_q, 0.5);
    const double segment_median = Quantile(segment_q, 0.5);
    per_query.push_back(
        "  " + q.name + ": memory " + FormatDouble(memory_median, 3) +
        " ms, segment " + FormatDouble(segment_median, 3) + " ms (" +
        FormatDouble(segment_median / std::max(memory_median, 1e-6), 2) +
        "x)\n");
    memory_lat.insert(memory_lat.end(), memory_q.begin(), memory_q.end());
    segment_lat.insert(segment_lat.end(), segment_q.begin(), segment_q.end());
  }
  std::cout << "query mix:   " << dataset.benchmark_queries.size()
            << " queries x " << kRepeats << ", " << FormatWithCommas(rows)
            << " rows, bit-identical\n";
  std::cout << "  memory:    p50 " << FormatDouble(Quantile(memory_lat, 0.5), 2)
            << " ms, p95 " << FormatDouble(Quantile(memory_lat, 0.95), 2)
            << " ms\n";
  std::cout << "  segment:   p50 "
            << FormatDouble(Quantile(segment_lat, 0.5), 2) << " ms, p95 "
            << FormatDouble(Quantile(segment_lat, 0.95), 2) << " ms\n";
  std::cout << "per-query medians of " << kRepeats << " repeats:\n";
  for (const std::string& line : per_query) std::cout << line;
  std::cout << "\n";

  // --- FunctionRef vs std::function on the Scan hot path ----------------
  // The satellite claim: handing Scan a capturing lambda no longer
  // allocates. Measure a tight per-triple callback through both.
  {
    const store::TripleStore& site0 = *dynamic_cast<const store::TripleStore*>(
        &memory_cluster.site(0));
    uint64_t sink = 0;
    constexpr int kScanRepeats = 20;
    Timer fr_timer;
    for (int r = 0; r < kScanRepeats; ++r) {
      site0.Scan(rdf::kInvalidVertex, rdf::kInvalidProperty,
                 rdf::kInvalidVertex, [&](const rdf::Triple& t) {
                   sink += t.object;
                   return true;
                 });
    }
    const double fr_millis = fr_timer.ElapsedMillis();
    Timer fn_timer;
    for (int r = 0; r < kScanRepeats; ++r) {
      // The pre-refactor shape: a std::function materialized per call.
      std::function<bool(const rdf::Triple&)> fn =
          [&](const rdf::Triple& t) {
            sink += t.object;
            return true;
          };
      site0.Scan(rdf::kInvalidVertex, rdf::kInvalidProperty,
                 rdf::kInvalidVertex, fn);
    }
    const double fn_millis = fn_timer.ElapsedMillis();
    std::cout << "scan sweep:  FunctionRef " << FormatMillis(fr_millis)
              << " ms, via std::function " << FormatMillis(fn_millis)
              << " ms (x" << kScanRepeats << " full-site sweeps, checksum "
              << sink % 1000 << ")\n\n";
  }

  (void)reparsed;
  int failures = 0;
  const double cold_ratio =
      memory_cold_millis / std::max(segment_cold_millis, 1e-3);
  if (cold_ratio < 5.0) {
    std::cerr << "FAIL: segment cold start only " << FormatDouble(cold_ratio, 2)
              << "x faster (need >= 5x)\n";
    ++failures;
  }
  const double mem_ratio = static_cast<double>(memory_bytes) /
                           static_cast<double>(std::max<size_t>(segment_bytes, 1));
  if (mem_ratio < 2.0) {
    std::cerr << "FAIL: segment footprint only " << FormatDouble(mem_ratio, 2)
              << "x smaller (need >= 2x)\n";
    ++failures;
  }
  if (failures == 0) {
    std::cout << "acceptance:  cold start " << FormatDouble(cold_ratio, 1)
              << "x (>=5x), footprint " << FormatDouble(mem_ratio, 1)
              << "x (>=2x) -- ok\n";
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace mpc::bench

int main(int argc, char** argv) {
  mpc::bench::ObsScope obs(argc, argv);
  return mpc::bench::Run(argc, argv);
}

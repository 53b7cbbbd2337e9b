// mpc — command-line front end for the library.
//
//   mpc stats <data.nt>
//   mpc partition <data.nt> <out_dir> [--strategy=mpc|hash|vp|metis]
//                 [--k=N] [--epsilon=E] [--seed=S] [--threads=T]
//   mpc classify <data.nt> <partition_dir> <sparql...>
//   mpc explain <data.nt> <partition_dir> <sparql...>
//   mpc pack <data.nt> <partition_dir> [--block-size=B]
//   mpc query <data.nt> <partition_dir> <sparql...>
//       [--store=memory|segment]
//       [--fail-sites=0,3] [--fault-rate=P] [--transient-rate=P]
//       [--site-timeout-ms=T] [--retries=N] [--fault-seed=S]
//       [--partial-results=fail|best-effort]
//   mpc update <data.nt> <partition_dir> <updates.ulog>
//       [--policy=threshold|periodic|never] [--period=N]
//       [--max-lcross-growth=G] [--min-lcross-slack=N]
//       [--workload=FILE] [--migrate] [--max-moves=N]
//       [--report-every=N] [--out=DIR] [--threads=T]
//       [--journal-dir=DIR] [--checkpoint-every=N] [--recover]
//   mpc serve <data.nt> <partition_dir> --queries=FILE
//       [--concurrency=N] [--qps=R] [--repeat=N] [--queue-cap=N]
//       [--admission=reject|block] [--deadline-ms=D]
//       [--updates=FILE] [--update-interval-ms=I]
//       [--policy=...] [--workload=FILE] [--migrate]
//
// Workload-adaptive maintenance (update and serve): --workload=FILE
// reads one SPARQL query per line and weighs each property by the
// number of queries touching it (weight 1 + count, so unqueried
// properties still count once); the threshold policy then fires on the
// *weighted* |L_cross| too, reacting faster when hot properties start
// crossing. --migrate arms the cheaper escalation level: before paying
// for a full repartition the maintainer moves up to --max-moves hot
// boundary vertices between sites, and only recomputes from scratch if
// the drift is still over the bound afterwards. `serve` additionally
// accumulates weights live from the queries it serves (under --updates,
// re-fed to the maintainer before every batch) and defaults to
// --policy=never, keeping its historical fixed-partition behavior
// unless a policy is requested.
//
// `serve` replays a query file (one SPARQL query per line; blank lines
// and lines starting with # are skipped) through the concurrent
// QueryService: --concurrency workers drain a --queue-cap-bounded
// admission queue, --qps paces the open-loop submitter (0 = as fast as
// possible), --repeat replays the file N times, and --deadline-ms fails
// queries that wait in the queue past their deadline. With --updates the
// run streams an update log through an IncrementalMaintainer on a side
// thread, publishing a fresh serving snapshot after every batch — the
// result cache invalidates itself on the generation bump. The summary
// line "rejected: N" plus serve.* histogram quantiles make runs easy to
// assert on from scripts.
//
// `update` streams an update log (batches of `+ <s> <p> <o> .` inserts /
// `- ...` deletes, separated by blank lines) through the incremental
// maintainer, printing drift reports and the repartitions the policy
// triggered (each runs inside the batch that fired it); --out saves the
// final compacted partitioning.
//
// With --journal-dir every applied batch is write-ahead journaled and
// periodically checkpointed there, so a crashed run can be resumed with
// --recover: the maintainer reloads the latest checkpoint, replays the
// journal tail, and the stream continues from the first unapplied batch
// (state bit-identical to a run that never crashed). A journal is bound
// to its partition_dir by fingerprint; re-running without --recover over
// an existing journal is refused rather than silently double-applied.
//
// `pack` writes each site's triples as an immutable compressed segment
// (partition_<i>.mpcseg) next to the partition's N-Triples files; with
// --store=segment, query/serve then mmap those segments instead of
// re-indexing — cold start becomes a file map plus a TOC read, and
// resident memory is bounded by the pages queries touch. Results are
// bit-identical between the two backends. `serve --remote` packs the
// same segments itself before it spawns its workers, and each `site`
// worker decodes its own into an in-memory store: no worker parses the
// graph, and both commands refuse --store=segment. Packing and opening
// go through the shared site loader in exec/cluster.h, so every command
// refuses a segment packed for another partitioning or another site the
// same way.
//
// The SPARQL argument may be a file path or an inline query string.
// --threads=0 (the default) uses every hardware thread; --threads=1 runs
// serially. Results are identical at any value.
//
// Observability (every command):
//   --trace-out=FILE     write a Chrome trace_event JSON of the run
//                        (load in chrome://tracing or ui.perfetto.dev)
//   --trace-summary      print a collapsed per-thread span tree to stdout
//   --metrics-out=FILE   write the metrics registry (counters, gauges,
//                        histograms with p50/p95/p99) as JSON
//
// The fault flags inject deterministic site failures into the simulated
// cluster (see DESIGN.md "Fault model"): --fail-sites crashes the listed
// sites, --fault-rate is a per-(site,subquery) crash probability,
// --transient-rate a per-attempt retryable error probability. Unknown
// flags and malformed values are rejected with a non-zero exit.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <future>
#include <iostream>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/crash_hook.h"
#include "common/flags.h"
#include "common/string_util.h"
#include "dynamic/incremental_maintainer.h"
#include "dynamic/update_journal.h"
#include "dynamic/update_log.h"
#include "exec/cluster.h"
#include "exec/decomposer.h"
#include "exec/distributed_executor.h"
#include "exec/explain.h"
#include "exec/query_classifier.h"
#include "exec/remote_cluster.h"
#include "exec/site_worker.h"
#include "mpc/mpc_partitioner.h"
#include "mpc/weighted_selector.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/snapshot.h"
#include "obs/trace.h"
#include "partition/edge_cut_partitioner.h"
#include "partition/partition_io.h"
#include "partition/subject_hash_partitioner.h"
#include "partition/vp_partitioner.h"
#include "rdf/ntriples.h"
#include "rdf/stats.h"
#include "serve/admin.h"
#include "serve/query_service.h"
#include "serve/serving_state.h"
#include "sparql/parser.h"
#include "storage/segment_writer.h"

namespace {

using namespace mpc;

int Usage() {
  std::cerr <<
      R"(usage:
  mpc stats <data.nt>
  mpc partition <data.nt> <out_dir> [--strategy=mpc|hash|vp|metis]
                [--k=N] [--epsilon=E] [--seed=S] [--threads=T]
  mpc classify <data.nt> <partition_dir> <sparql-or-file>
  mpc explain <data.nt> <partition_dir> <sparql-or-file>
  mpc pack <data.nt> <partition_dir> [--block-size=B]
  mpc query <data.nt> <partition_dir> <sparql-or-file>
      [--store=memory|segment]
      [--fail-sites=0,3] [--fault-rate=P] [--transient-rate=P]
      [--site-timeout-ms=T] [--retries=N] [--retry-backoff-ms=B]
      [--fault-seed=S] [--partial-results=fail|best-effort]
  mpc update <data.nt> <partition_dir> <updates.ulog>
      [--policy=threshold|periodic|never] [--period=N]
      [--max-lcross-growth=G] [--min-lcross-slack=N]
      [--workload=FILE] [--migrate] [--max-moves=N]
      [--report-every=N] [--out=DIR] [--threads=T]
      [--journal-dir=DIR] [--checkpoint-every=N] [--recover]
  mpc serve <data.nt> <partition_dir> --queries=FILE
      [--store=memory|segment]
      [--concurrency=N] [--qps=R] [--repeat=N]
      [--queue-cap=N] [--admission=reject|block] [--deadline-ms=D]
      [--updates=FILE] [--update-interval-ms=I]
      [--policy=threshold|periodic|never] [--workload=FILE]
      [--migrate] [--max-moves=N] [--min-lcross-slack=N]
      [--remote] [--socket-dir=DIR] [--worker-binary=PATH]
      [--max-restarts=N] [--kill-site=I] [--kill-after-queries=N]
      [--admin-socket=PATH] [--slow-query-ms=T] [--slow-log=FILE]
  mpc site <partition_dir> --site=I --socket=PATH [--kill-after-queries=N]
  mpc top --socket=ADMIN_PATH [--json] [--interval-ms=I] [--count=N]
observability (any command):
      [--trace-out=FILE] [--trace-summary] [--metrics-out=FILE]
serve also answers SIGUSR1 with a live flush: metrics/trace out files
are rewritten and a windowed stats snapshot is printed, the run keeps
going. --admin-socket exposes the same snapshot to `mpc top`.
)";
  return 2;
}

/// The tool's "--key=value" flags (parsed by common/flags.h; unknown or
/// malformed flags abort with exit 2 rather than running with defaults).
struct Flags {
  std::string strategy = "mpc";
  uint32_t k = 8;
  double epsilon = 0.1;
  uint64_t seed = 1;
  int threads = 0;  // 0 = hardware_concurrency

  // Store backend for query/serve ("segment" needs a prior `mpc pack`;
  // serve --remote workers always load segments), and the pack
  // command's block size.
  std::string store = "memory";
  uint32_t block_size = storage::kDefaultBlockSize;

  // Fault injection (query command).
  std::vector<uint32_t> fail_sites;
  double fault_rate = 0.0;      // crash probability per (site, subquery)
  double transient_rate = 0.0;  // retryable-error probability per attempt
  double site_timeout_ms = 0.0;
  int retries = 2;
  double retry_backoff_ms = 1.0;
  uint64_t fault_seed = 0;
  std::string partial_results = "fail";

  // Streaming updates (update and serve commands). An empty policy means
  // the command's default: update defaults to "threshold", serve to
  // "never" (historically serve never repartitioned; adaptive serving is
  // opt-in via --policy/--migrate).
  std::string policy;
  uint32_t period = 64;
  double max_lcross_growth = 0.5;
  uint64_t min_lcross_slack = 4;
  uint32_t report_every = 8;
  std::string out_dir;

  // Workload-adaptive repartitioning (update and serve commands):
  // --workload seeds per-property weights from a query file (serve also
  // accumulates them live from served queries), --migrate enables the
  // hot-vertex migration escalation below a full repartition.
  std::string workload_file;
  bool migrate = false;
  uint32_t max_moves = 16;

  // Durability (update command). checkpoint_every=0 checkpoints only
  // after repartitions; crash_after is a test hook that SIGKILLs the
  // process right after the Nth batch commits (journal + apply).
  std::string journal_dir;
  uint32_t checkpoint_every = 0;
  bool recover = false;
  uint32_t crash_after = 0;

  // Real multi-process cluster (serve --remote) and the `site` worker
  // command. kill_after_queries doubles as the worker-side chaos hook.
  bool remote = false;
  std::string socket_dir;
  std::string worker_binary;
  uint32_t kill_site = UINT32_MAX;
  uint64_t kill_after_queries = 0;
  int max_restarts = 3;
  uint32_t site = 0;
  std::string socket_path;

  // Query serving (serve command).
  std::string queries_file;
  int concurrency = 16;
  double qps = 0.0;  // 0 = open throttle (submit as fast as possible)
  uint32_t repeat = 1;
  uint32_t queue_cap = 1024;
  std::string admission = "reject";
  double deadline_ms = 0.0;  // 0 = no deadline
  std::string updates_file;
  double update_interval_ms = 0.0;

  // Live introspection (serve command) and the top client.
  std::string admin_socket;
  double slow_query_ms = 0.0;  // 0 = slow-query log off
  std::string slow_log;        // default: slow_queries.jsonl
  bool json = false;
  double interval_ms = 2000.0;
  uint32_t count = 0;  // 0 = refresh until interrupted

  // Observability (any command).
  std::string trace_out;
  std::string metrics_out;
  bool trace_summary = false;

  std::vector<std::string> positional;

  partition::PartitionerOptions PartitionerOpts() const {
    return partition::PartitionerOptions{
        .k = k, .epsilon = epsilon, .seed = seed, .num_threads = threads};
  }

  exec::ExecutorOptions ExecutorOpts() const {
    exec::ExecutorOptions options;
    options.num_threads = threads;
    options.faults.seed = fault_seed;
    options.faults.crash_rate = fault_rate;
    options.faults.transient_rate = transient_rate;
    options.faults.fail_sites = fail_sites;
    options.network.site_timeout_ms = site_timeout_ms;
    options.network.max_retries = retries;
    options.network.retry_backoff_ms = retry_backoff_ms;
    options.partial_results = partial_results == "best-effort"
                                  ? exec::PartialResultPolicy::kBestEffort
                                  : exec::PartialResultPolicy::kFail;
    return options;
  }

  static Result<Flags> Parse(int argc, char** argv, int first) {
    Flags flags;
    FlagParser parser;
    parser.AddString("strategy", &flags.strategy);
    parser.AddUint32("k", &flags.k);
    parser.AddDouble("epsilon", &flags.epsilon);
    parser.AddUint64("seed", &flags.seed);
    parser.AddInt("threads", &flags.threads);
    parser.AddChoice("store", &flags.store, {"memory", "segment"});
    parser.AddUint32("block-size", &flags.block_size);
    parser.AddUint32List("fail-sites", &flags.fail_sites);
    parser.AddDouble("fault-rate", &flags.fault_rate);
    parser.AddDouble("transient-rate", &flags.transient_rate);
    parser.AddDouble("site-timeout-ms", &flags.site_timeout_ms);
    parser.AddInt("retries", &flags.retries);
    parser.AddDouble("retry-backoff-ms", &flags.retry_backoff_ms);
    parser.AddUint64("fault-seed", &flags.fault_seed);
    parser.AddChoice("partial-results", &flags.partial_results,
                     {"fail", "best-effort"});
    parser.AddChoice("policy", &flags.policy,
                     {"threshold", "periodic", "never"});
    parser.AddUint32("period", &flags.period);
    parser.AddDouble("max-lcross-growth", &flags.max_lcross_growth);
    parser.AddUint64("min-lcross-slack", &flags.min_lcross_slack);
    parser.AddString("workload", &flags.workload_file);
    parser.AddBool("migrate", &flags.migrate);
    parser.AddUint32("max-moves", &flags.max_moves);
    parser.AddUint32("report-every", &flags.report_every);
    parser.AddString("journal-dir", &flags.journal_dir);
    parser.AddUint32("checkpoint-every", &flags.checkpoint_every);
    parser.AddBool("recover", &flags.recover);
    parser.AddUint32("crash-after", &flags.crash_after);
    parser.AddBool("remote", &flags.remote);
    parser.AddString("socket-dir", &flags.socket_dir);
    parser.AddString("worker-binary", &flags.worker_binary);
    parser.AddUint32("kill-site", &flags.kill_site);
    parser.AddUint64("kill-after-queries", &flags.kill_after_queries);
    parser.AddInt("max-restarts", &flags.max_restarts);
    parser.AddUint32("site", &flags.site);
    parser.AddString("socket", &flags.socket_path);
    parser.AddString("queries", &flags.queries_file);
    parser.AddInt("concurrency", &flags.concurrency);
    parser.AddDouble("qps", &flags.qps);
    parser.AddUint32("repeat", &flags.repeat);
    parser.AddUint32("queue-cap", &flags.queue_cap);
    parser.AddChoice("admission", &flags.admission, {"reject", "block"});
    parser.AddDouble("deadline-ms", &flags.deadline_ms);
    parser.AddString("updates", &flags.updates_file);
    parser.AddDouble("update-interval-ms", &flags.update_interval_ms);
    parser.AddString("admin-socket", &flags.admin_socket);
    parser.AddDouble("slow-query-ms", &flags.slow_query_ms);
    parser.AddString("slow-log", &flags.slow_log);
    parser.AddBool("json", &flags.json);
    parser.AddDouble("interval-ms", &flags.interval_ms);
    parser.AddUint32("count", &flags.count);
    parser.AddString("out", &flags.out_dir);
    parser.AddString("trace-out", &flags.trace_out);
    parser.AddString("metrics-out", &flags.metrics_out);
    parser.AddBool("trace-summary", &flags.trace_summary);
    Result<std::vector<std::string>> positional =
        parser.Parse(argc, argv, first);
    if (!positional.ok()) return positional.status();
    flags.positional = std::move(*positional);
    return flags;
  }
};

Result<rdf::RdfGraph> LoadGraph(const std::string& path, int threads) {
  rdf::GraphBuilder builder;
  Status st = rdf::NTriplesParser::ParseFile(path, &builder, threads);
  if (!st.ok()) return st;
  return builder.Build();
}

/// A graph and the partitioning saved for it.
struct LoadedPartition {
  rdf::RdfGraph graph;
  partition::Partitioning partitioning;
};

/// The preamble of every command that works on a partition directory:
/// parses positional[0] and reloads the partitioning saved in
/// positional[1] against it. Prints the error and returns nullopt on
/// failure.
std::optional<LoadedPartition> LoadPartition(const Flags& flags) {
  Result<rdf::RdfGraph> graph = LoadGraph(flags.positional[0], flags.threads);
  if (!graph.ok()) {
    std::cerr << graph.status().ToString() << "\n";
    return std::nullopt;
  }
  Result<partition::Partitioning> partitioning =
      partition::PartitionIo::Load(*graph, flags.positional[1]);
  if (!partitioning.ok()) {
    std::cerr << partitioning.status().ToString() << "\n";
    return std::nullopt;
  }
  return LoadedPartition{std::move(*graph), std::move(*partitioning)};
}

/// The in-process cluster over `partitioning` on the --store backend:
/// in-memory indexes, or `mpc pack`'s segments. Prints the error and
/// returns nullopt on failure.
std::optional<exec::Cluster> OpenCluster(const Flags& flags,
                                         partition::Partitioning partitioning) {
  if (flags.store != "segment") {
    return exec::Cluster::Build(std::move(partitioning), flags.threads);
  }
  Result<exec::Cluster> opened = exec::Cluster::BuildFromSegments(
      std::move(partitioning), flags.positional[1], flags.threads);
  if (!opened.ok()) {
    std::cerr << opened.status().ToString()
              << "\n(--store=segment needs `mpc pack " << flags.positional[0]
              << " " << flags.positional[1] << "` first)\n";
    return std::nullopt;
  }
  return std::move(*opened);
}

/// Graceful-drain flag for `serve` and `site`: SIGINT/SIGTERM stop
/// admission, in-flight work finishes, metrics/trace flush, exit 0.
std::atomic<bool> g_drain{false};

void HandleDrainSignal(int /*signum*/) {
  g_drain.store(true, std::memory_order_relaxed);
}

void InstallDrainHandlers() {
  g_drain.store(false, std::memory_order_relaxed);
  std::signal(SIGINT, HandleDrainSignal);
  std::signal(SIGTERM, HandleDrainSignal);
}

/// Live-flush flag for `serve`: SIGUSR1 asks for a mid-run flush of
/// --metrics-out/--trace-out plus a stats dump, without terminating.
std::atomic<bool> g_flush{false};

void HandleFlushSignal(int /*signum*/) {
  g_flush.store(true, std::memory_order_relaxed);
}

/// The running mpc binary, for serve --remote to exec its own workers.
std::string SelfExePath() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) return "mpc";
  buf[n] = '\0';
  return std::string(buf);
}

/// Maps the shared drift-policy and migration flags onto maintainer
/// options. `fallback` is the command's default policy: "threshold" for
/// update, "never" for serve (whose historical behavior is a fixed
/// partition).
void ApplyPolicyFlags(const Flags& flags, const std::string& fallback,
                      dynamic::MaintainerOptions* options) {
  const std::string policy = flags.policy.empty() ? fallback : flags.policy;
  if (policy == "never") {
    options->policy.kind = dynamic::RepartitionPolicy::Kind::kNever;
  } else if (policy == "periodic") {
    options->policy.kind = dynamic::RepartitionPolicy::Kind::kPeriodic;
    options->policy.period_batches = flags.period;
  } else {
    options->policy.kind = dynamic::RepartitionPolicy::Kind::kThreshold;
    options->policy.max_lcross_growth = flags.max_lcross_growth;
    options->policy.min_lcross_slack = flags.min_lcross_slack;
  }
  options->migration.enabled = flags.migrate;
  options->migration.max_moves = flags.max_moves;
}

/// Loads a --workload file (one SPARQL query per line; blank lines and
/// #-comments skipped) into per-property weights: 1 + number of queries
/// touching the property, so unqueried properties still weigh as much
/// as one fresh (beyond-vector) property does.
Result<std::vector<double>> LoadWorkloadWeights(const std::string& path,
                                                const rdf::RdfGraph& graph) {
  std::ifstream in(path);
  if (!in) {
    return Status::NotFound("cannot open --workload file: " + path);
  }
  std::vector<sparql::QueryGraph> queries;
  std::string line;
  size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const size_t first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos || line[first] == '#') continue;
    Result<sparql::QueryGraph> query = sparql::SparqlParser::Parse(line);
    if (!query.ok()) {
      return Status::InvalidArgument(path + ":" + std::to_string(lineno) +
                                     ": " + query.status().message());
    }
    queries.push_back(std::move(*query));
  }
  std::vector<double> weights =
      core::ComputeWorkloadPropertyWeights(queries, graph);
  for (double& w : weights) w += 1.0;
  return weights;
}

/// The argument is a file path if it exists on disk; otherwise inline
/// SPARQL text.
std::string LoadQueryText(const std::string& arg) {
  std::error_code ec;
  if (std::filesystem::exists(arg, ec) && !ec) {
    std::ifstream in(arg, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
  }
  return arg;
}

int CmdStats(const Flags& flags) {
  if (flags.positional.size() != 1) return Usage();
  Result<rdf::RdfGraph> graph = LoadGraph(flags.positional[0], flags.threads);
  if (!graph.ok()) {
    std::cerr << graph.status().ToString() << "\n";
    return 1;
  }
  rdf::DatasetStats stats =
      rdf::ComputeStats(flags.positional[0], *graph);
  std::cout << "entities:   " << FormatWithCommas(stats.num_entities)
            << "\ntriples:    " << FormatWithCommas(stats.num_triples)
            << "\nproperties: " << FormatWithCommas(stats.num_properties)
            << "\ntop-property share: "
            << FormatDouble(100.0 * rdf::TopPropertyShare(*graph), 2)
            << "%\n";
  auto histogram = rdf::PropertyHistogram(*graph);
  std::cout << "property frequency head:";
  for (size_t i = 0; i < std::min<size_t>(8, histogram.size()); ++i) {
    std::cout << " " << FormatWithCommas(histogram[i]);
  }
  std::cout << "\n";
  return 0;
}

int CmdPartition(const Flags& flags) {
  if (flags.positional.size() != 2) return Usage();
  Result<rdf::RdfGraph> graph =
      LoadGraph(flags.positional[0], flags.threads);
  if (!graph.ok()) {
    std::cerr << graph.status().ToString() << "\n";
    return 1;
  }

  partition::RunStats run_stats;
  partition::Partitioning partitioning;
  const partition::PartitionerOptions options = flags.PartitionerOpts();
  if (flags.strategy == "mpc") {
    core::MpcOptions mpc_options;
    mpc_options.base = options;
    partitioning =
        core::MpcPartitioner(mpc_options).Partition(*graph, &run_stats);
  } else if (flags.strategy == "hash") {
    partitioning = partition::SubjectHashPartitioner(options).Partition(
        *graph, &run_stats);
  } else if (flags.strategy == "vp") {
    partitioning =
        partition::VpPartitioner(options).Partition(*graph, &run_stats);
  } else if (flags.strategy == "metis") {
    partitioning = partition::EdgeCutPartitioner(options).Partition(
        *graph, &run_stats);
  } else {
    std::cerr << "unknown strategy: " << flags.strategy << "\n";
    return 2;
  }

  Status st = partition::PartitionIo::Save(*graph, partitioning,
                                           flags.positional[1]);
  if (!st.ok()) {
    std::cerr << st.ToString() << "\n";
    return 1;
  }
  std::string stages;
  for (const partition::RunStats::Stage& stage : run_stats.stages) {
    if (!stages.empty()) stages += " + ";
    stages += stage.name + " " + FormatMillis(stage.millis);
  }
  std::cout << "strategy:            " << flags.strategy << " (k="
            << flags.k << ", eps=" << flags.epsilon << ", threads="
            << run_stats.threads_used << ")\n"
            << "partitioning time:   " << FormatMillis(run_stats.total_millis)
            << " ms  (" << stages << ")\n"
            << "crossing properties: "
            << FormatWithCommas(partitioning.num_crossing_properties())
            << " / " << FormatWithCommas(graph->num_properties()) << "\n"
            << "crossing edges:      "
            << FormatWithCommas(partitioning.num_crossing_edges()) << "\n"
            << "balance ratio:       "
            << FormatDouble(partitioning.BalanceRatio(), 3) << "\n"
            << "replication ratio:   "
            << FormatDouble(partitioning.ReplicationRatio(*graph), 3)
            << "\nwritten to:          " << flags.positional[1] << "\n";
  return 0;
}

int CmdExplain(const Flags& flags) {
  if (flags.positional.size() != 3) return Usage();
  std::optional<LoadedPartition> loaded = LoadPartition(flags);
  if (!loaded) return 1;
  rdf::RdfGraph& graph = loaded->graph;
  partition::Partitioning& partitioning = loaded->partitioning;
  Result<sparql::QueryGraph> query =
      sparql::SparqlParser::Parse(LoadQueryText(flags.positional[2]));
  if (!query.ok()) {
    std::cerr << query.status().ToString() << "\n";
    return 1;
  }
  exec::Cluster cluster =
      exec::Cluster::Build(std::move(partitioning), flags.threads);
  std::cout << exec::ExplainQuery(*query, cluster.partitioning(), graph,
                                  &cluster);
  return 0;
}

int CmdClassifyOrQuery(const Flags& flags, bool execute) {
  if (flags.positional.size() != 3) return Usage();
  std::optional<LoadedPartition> loaded = LoadPartition(flags);
  if (!loaded) return 1;
  rdf::RdfGraph& graph = loaded->graph;
  partition::Partitioning& partitioning = loaded->partitioning;
  Result<sparql::QueryGraph> query =
      sparql::SparqlParser::Parse(LoadQueryText(flags.positional[2]));
  if (!query.ok()) {
    std::cerr << query.status().ToString() << "\n";
    return 1;
  }

  const exec::QueryPlan plan = exec::PlanQuery(*query, partitioning, graph);
  std::cout << "class:      " << exec::IeqClassName(plan.classification.cls)
            << "\nindependent: "
            << (plan.union_only ? "yes (union only)" : "no (join needed)")
            << "\ncrossing patterns: "
            << plan.classification.num_crossing_patterns << " / "
            << query->num_patterns() << "\n";
  if (!plan.union_only) {
    std::cout << "decomposes into " << plan.decomposition.num_subqueries()
              << " subqueries\n";
  }
  if (!execute) return 0;

  std::optional<exec::Cluster> cluster =
      OpenCluster(flags, std::move(partitioning));
  if (!cluster) return 1;
  exec::DistributedExecutor executor(*cluster, graph, flags.ExecutorOpts());
  Result<exec::QueryResponse> response =
      executor.Execute(exec::QueryRequest::FromQuery(*query));
  if (!response.ok()) {
    std::cerr << response.status().ToString() << "\n";
    return 1;
  }
  const exec::ExecutionStats& stats = response->stats;
  store::BindingTable result =
      store::ApplyProjection(response->bindings, query->projection());
  std::cout << "results: " << FormatWithCommas(result.num_rows())
            << "  (QDT " << FormatDouble(stats.decomposition_millis, 1)
            << " + LET " << FormatDouble(stats.local_eval_millis, 1)
            << " + JT " << FormatDouble(stats.join_millis, 1) << " + net "
            << FormatDouble(stats.network_millis, 1) << " = "
            << FormatDouble(stats.total_millis, 1) << " ms; sites "
            << stats.sites_evaluated << " evaluated / "
            << stats.sites_pruned << " pruned)\n";
  if (!stats.complete || stats.sites_failed > 0 || stats.retries > 0) {
    std::cout << "faults:  " << stats.sites_failed
              << " site-subqueries failed, " << stats.retries
              << " retries, " << stats.failover_hits
              << " rows served from replicas; complete="
              << (stats.complete ? "yes" : "no")
              << " completeness>=" << FormatDouble(
                     100.0 * stats.completeness_bound, 1)
              << "% (replicated " << stats.replicated_failed_vertices << "/"
              << stats.failed_site_vertices
              << " failed-site vertices; fault wait "
              << FormatDouble(stats.fault_wait_millis, 1) << " ms)\n";
  }
  const size_t limit = 20;
  for (size_t r = 0; r < std::min(limit, result.rows.size()); ++r) {
    for (size_t c = 0; c < result.var_ids.size(); ++c) {
      std::cout << (c ? " " : "  ")
                << graph.VertexName(result.rows[r][c]);
    }
    std::cout << "\n";
  }
  if (result.rows.size() > limit) {
    std::cout << "  ... (" << result.rows.size() - limit << " more)\n";
  }
  return 0;
}

/// `mpc pack`: writes one compressed immutable segment per site into the
/// partition directory, stamped with its fingerprint. One-time cost at
/// partition time; --store=segment then opens these instead of
/// re-parsing the graph.
int CmdPack(const Flags& flags) {
  if (flags.positional.size() != 2) return Usage();
  std::optional<LoadedPartition> loaded = LoadPartition(flags);
  if (!loaded) return 1;
  const auto start = std::chrono::steady_clock::now();
  storage::SegmentWriteStats stats;
  Status st = exec::PackSegments(loaded->partitioning, flags.positional[1],
                                 flags.block_size, &stats);
  if (!st.ok()) {
    std::cerr << st.ToString() << "\n";
    return 1;
  }
  const double millis =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - start)
          .count();
  std::cout << "packed:     " << loaded->partitioning.k() << " segments, "
            << FormatWithCommas(stats.num_triples) << " stored triples, "
            << FormatWithCommas(stats.pso_blocks + stats.pos_blocks)
            << " blocks ("
            << FormatWithCommas(flags.block_size) << " B each)\n"
            << "bytes:      " << FormatWithCommas(stats.file_bytes) << " ("
            << FormatDouble(stats.num_triples == 0
                                ? 0.0
                                : static_cast<double>(stats.file_bytes) /
                                      static_cast<double>(stats.num_triples),
                            2)
            << " B/triple vs " << sizeof(rdf::Triple) * 4
            << " B/triple resident in memory)\n"
            << "pack time:  " << FormatMillis(millis) << " ms\n"
            << "written to: " << flags.positional[1] << "\n";
  return 0;
}

int CmdUpdate(const Flags& flags) {
  if (flags.positional.size() != 3) return Usage();
  std::optional<LoadedPartition> loaded = LoadPartition(flags);
  if (!loaded) return 1;
  rdf::RdfGraph& graph = loaded->graph;
  partition::Partitioning& partitioning = loaded->partitioning;
  if (partitioning.kind() != partition::PartitioningKind::kVertexDisjoint) {
    std::cerr << "update requires a vertex-disjoint partitioning\n";
    return 1;
  }
  Result<std::vector<dynamic::UpdateBatch>> batches =
      dynamic::UpdateLog::LoadFile(flags.positional[2]);
  if (!batches.ok()) {
    std::cerr << batches.status().ToString() << "\n";
    return 1;
  }

  dynamic::MaintainerOptions options;
  options.num_threads = flags.threads;
  options.mpc.base = flags.PartitionerOpts();
  ApplyPolicyFlags(flags, /*fallback=*/"threshold", &options);
  if (!flags.workload_file.empty()) {
    Result<std::vector<double>> weights =
        LoadWorkloadWeights(flags.workload_file, graph);
    if (!weights.ok()) {
      std::cerr << weights.status().ToString() << "\n";
      return 1;
    }
    size_t weighted = 0;
    for (double w : *weights) weighted += w > 1.0 ? 1 : 0;
    std::cout << "workload: " << FormatWithCommas(weighted)
              << " queried properties (of "
              << FormatWithCommas(weights->size()) << ")\n";
    options.property_weights = std::move(*weights);
  }

  std::unique_ptr<dynamic::IncrementalMaintainer> maintainer;
  size_t skip = 0;
  if (!flags.journal_dir.empty()) {
    options.journal_dir = flags.journal_dir;
    options.checkpoint_every_batches = flags.checkpoint_every;
    std::error_code ec;
    const bool journal_exists = std::filesystem::exists(
        dynamic::UpdateJournal::JournalPath(flags.journal_dir), ec);
    if (journal_exists && !flags.recover) {
      std::cerr << "journal already exists in " << flags.journal_dir
                << "; pass --recover to resume, or use a fresh "
                   "--journal-dir\n";
      return 1;
    }
    Result<uint64_t> fingerprint =
        partition::PartitionIo::Fingerprint(flags.positional[1]);
    if (!fingerprint.ok()) {
      std::cerr << fingerprint.status().ToString() << "\n";
      return 1;
    }
    Result<std::unique_ptr<dynamic::IncrementalMaintainer>> opened =
        dynamic::IncrementalMaintainer::OpenDurable(
            std::move(graph), std::move(partitioning), options,
            *fingerprint);
    if (!opened.ok()) {
      std::cerr << opened.status().ToString() << "\n";
      return 1;
    }
    maintainer = std::move(*opened);
    skip = maintainer->batches_applied();
    if (skip > 0) {
      std::cout << "recovered: " << FormatWithCommas(skip)
                << " batches already durable, resuming after them\n";
    }
  } else {
    if (flags.recover) {
      std::cerr << "--recover requires --journal-dir\n";
      return 1;
    }
    maintainer = std::make_unique<dynamic::IncrementalMaintainer>(
        std::move(graph), std::move(partitioning), options);
  }
  if (skip > batches->size()) {
    std::cerr << "journal holds " << skip
              << " batches but the update log only has "
              << batches->size() << "; wrong --journal-dir?\n";
    return 1;
  }
  std::cout << "seed: " << FormatWithCommas(maintainer->num_live_triples())
            << " triples, |L_cross| "
            << maintainer->partitioning().num_crossing_properties() << ", "
            << batches->size() - skip << " batches\n";

  size_t inserts = 0;
  size_t deletes = 0;
  size_t noops = 0;
  // Crash-test hook: die without any cleanup, exactly as a power cut
  // would, so check.sh can exercise --recover.
  CrashAfter crash_after(flags.crash_after);
  for (size_t b = skip; b < batches->size(); ++b) {
    dynamic::ApplyResult r = maintainer->ApplyBatch((*batches)[b]);
    if (!r.durability.ok()) {
      std::cerr << "batch " << b + 1
                << ": durability failure, stopping stream: "
                << r.durability.ToString() << "\n";
      return 1;
    }
    inserts += r.inserts;
    deletes += r.deletes;
    noops += r.noops;
    if (r.migrated > 0) {
      std::cout << "batch " << b + 1 << ": migrated " << r.migrated
                << " hot " << (r.migrated == 1 ? "vertex" : "vertices")
                << " (weighted |L_cross| -"
                << FormatDouble(r.migration_gain, 2) << ")"
                << (r.repartition_triggered ? "" : ", repartition avoided")
                << "\n";
    }
    if (r.repartition_triggered) {
      std::cout << "batch " << b + 1 << ": repartition ("
                << r.trigger_reason << ")\n";
    }
    std::cout.flush();
    crash_after.Tick();
    const bool report =
        flags.report_every > 0 &&
        ((b + 1) % flags.report_every == 0 || b + 1 == batches->size());
    if (report) {
      const dynamic::DriftMetrics& m = r.drift;
      std::cout << "batch " << b + 1 << ": live "
                << FormatWithCommas(m.live_triples) << ", |L_cross| "
                << m.crossing_properties << " (seed "
                << m.seed_crossing_properties << "), tombstones "
                << FormatDouble(100.0 * m.tombstone_ratio, 1)
                << "%, replication "
                << FormatDouble(m.replication_ratio, 3) << ", balance "
                << FormatDouble(m.balance_ratio, 3) << "\n";
    }
  }
  if (maintainer->journaling()) {
    Status st = maintainer->WriteCheckpoint();
    if (!st.ok()) {
      std::cerr << "final checkpoint failed: " << st.ToString() << "\n";
      return 1;
    }
  }

  const dynamic::DriftMetrics final_drift = maintainer->drift();
  std::cout << "applied: " << FormatWithCommas(inserts) << " inserts, "
            << FormatWithCommas(deletes) << " deletes, "
            << FormatWithCommas(noops) << " no-ops; "
            << maintainer->repartition_count() << " repartitions\n";
  if (flags.migrate) {
    std::cout << "migrated: " << FormatWithCommas(final_drift.migrations)
              << " hot-vertex moves\n";
  }
  std::cout << "final:   live " << FormatWithCommas(final_drift.live_triples)
            << ", |L_cross| " << final_drift.crossing_properties
            << ", balance " << FormatDouble(final_drift.balance_ratio, 3);
  if (!options.property_weights.empty()) {
    std::cout << ", weighted |L_cross| "
              << FormatDouble(final_drift.weighted_crossing_properties, 2)
              << " (seed "
              << FormatDouble(final_drift.seed_weighted_crossing_properties,
                              2)
              << ")";
  }
  std::cout << "\n";

  if (!flags.out_dir.empty()) {
    // Save a self-contained pair: the live graph as graph.nt plus a
    // partitioning over *its* id space, so
    //   mpc query <out>/graph.nt <out> ...
    // works directly. (The maintained partitioning covers the grown
    // dictionary universe, including tombstoned vertices, and would not
    // load against the compacted graph.)
    rdf::RdfGraph live = maintainer->MaterializeGraph();
    const partition::VertexAssignment& maintained =
        maintainer->partitioning().assignment();
    partition::VertexAssignment assignment;
    assignment.k = maintained.k;
    assignment.part.resize(live.num_vertices());
    for (rdf::VertexId v = 0; v < live.num_vertices(); ++v) {
      assignment.part[v] =
          maintained.part[maintainer->graph().vertex_dict().Lookup(
              live.VertexName(v))];
    }
    partition::Partitioning compact =
        partition::Partitioning::MaterializeVertexDisjoint(
            live, std::move(assignment), flags.threads);
    Status st = partition::PartitionIo::Save(live, compact, flags.out_dir);
    if (st.ok()) {
      st = rdf::WriteNTriplesFile(live, flags.out_dir + "/graph.nt");
    }
    if (!st.ok()) {
      std::cerr << st.ToString() << "\n";
      return 1;
    }
    std::cout << "written to: " << flags.out_dir << " (+ graph.nt)\n";
  }
  return 0;
}


/// One partition-site worker process: loads its site from the segment
/// in <partition_dir> (written by serve --remote's coordinator or by
/// `mpc pack`), serves the framed RPC protocol on --socket until
/// SIGTERM/SIGINT drains it. Spawned by serve --remote (via the
/// SiteSupervisor) or run by hand.
int CmdSite(const Flags& flags) {
  if (flags.positional.size() != 1) return Usage();
  if (flags.socket_path.empty()) {
    std::cerr << "site requires --socket=PATH\n";
    return 2;
  }
  if (flags.store == "segment") {
    std::cerr << "site does not take --store=segment (a worker always "
                 "loads its packed segment into memory)\n";
    return 2;
  }
  InstallDrainHandlers();
  exec::SiteWorkerOptions options;
  options.partition_dir = flags.positional[0];
  options.site = flags.site;
  options.socket_path = flags.socket_path;
  options.kill_after_queries = flags.kill_after_queries;
  options.stop = &g_drain;
  uint64_t served = 0;
  options.queries_served = &served;
  Status st = exec::RunSiteWorker(options);
  if (!st.ok()) {
    std::cerr << "site " << flags.site << ": " << st.ToString() << "\n";
    return 1;
  }
  std::cout << "site " << flags.site << " drained: " << served
            << " queries served\n";
  return 0;
}

int CmdServe(const Flags& flags) {
  if (flags.positional.size() != 2) return Usage();
  if (flags.queries_file.empty()) {
    std::cerr << "serve requires --queries=FILE\n";
    return 2;
  }
  if (flags.remote && !flags.updates_file.empty()) {
    std::cerr << "--remote and --updates are mutually exclusive (the "
                 "workers serve the partitioning they were started with)\n";
    return 2;
  }
  if (flags.remote && flags.store == "segment") {
    std::cerr << "--remote does not take --store=segment (the workers "
                 "always load the coordinator's segments into memory)\n";
    return 2;
  }
  InstallDrainHandlers();
  g_flush.store(false, std::memory_order_relaxed);
  std::signal(SIGUSR1, HandleFlushSignal);
  // The slow-query log keys on the merged per-query trace, so a slow
  // threshold implies tracing even without --trace-out.
  if (flags.slow_query_ms > 0.0 && !obs::TracingEnabled()) {
    obs::StartTracing();
  }
  std::optional<LoadedPartition> loaded = LoadPartition(flags);
  if (!loaded) return 1;
  rdf::RdfGraph& graph = loaded->graph;
  partition::Partitioning& partitioning = loaded->partitioning;

  std::vector<std::string> queries;
  {
    std::ifstream in(flags.queries_file);
    if (!in) {
      std::cerr << "cannot open --queries file: " << flags.queries_file
                << "\n";
      return 1;
    }
    std::string line;
    while (std::getline(in, line)) {
      const size_t first = line.find_first_not_of(" \t\r");
      if (first == std::string::npos || line[first] == '#') continue;
      queries.push_back(line);
    }
  }
  if (queries.empty()) {
    std::cerr << "no queries in " << flags.queries_file << "\n";
    return 1;
  }

  // Executors stay serial inside the serving workers: --concurrency is
  // the parallelism (see QueryServiceOptions::num_workers).
  serve::ServingStateOptions state_options;
  state_options.executor = flags.ExecutorOpts();
  state_options.executor.num_threads = 1;
  state_options.build_threads = flags.threads;

  std::unique_ptr<dynamic::IncrementalMaintainer> maintainer;
  std::vector<dynamic::UpdateBatch> updates;
  std::shared_ptr<const serve::ServingState> state;
  // Live workload accumulation (adaptive serving): the query observer
  // bumps per-property counts as queries are served; the updater thread
  // folds them into the maintainer's weights before each batch. The
  // name→id map is frozen at the seed graph on purpose — the
  // maintainer's dictionary grows concurrently, and properties born
  // after the seed default to weight 1.0 anyway.
  std::mutex workload_mutex;
  std::vector<double> workload_counts;
  std::unordered_map<std::string, rdf::PropertyId> seed_properties;
  std::vector<double> base_weights;
  if (flags.remote) {
    exec::RemoteCluster::Options ropt;
    ropt.worker_binary =
        flags.worker_binary.empty() ? SelfExePath() : flags.worker_binary;
    ropt.partition_dir = flags.positional[1];
    ropt.socket_dir =
        flags.socket_dir.empty() ? flags.positional[1] : flags.socket_dir;
    ropt.kill_site = flags.kill_site;
    ropt.kill_after_queries = flags.kill_after_queries;
    ropt.supervisor.max_restarts = flags.max_restarts;
    Result<std::unique_ptr<exec::RemoteCluster>> remote =
        exec::RemoteCluster::Start(std::move(partitioning), ropt);
    if (!remote.ok()) {
      std::cerr << remote.status().ToString() << "\n";
      return 1;
    }
    const uint32_t num_sites = (*remote)->k();
    std::cout << "remote cluster: " << num_sites << " site processes up ("
              << FormatMillis((*remote)->loading_millis())
              << " ms max site load)\n";
    state = serve::ServingState::WrapBackend(std::move(graph),
                                             std::move(*remote),
                                             /*generation=*/0, state_options);
  } else if (!flags.updates_file.empty()) {
    if (partitioning.kind() !=
        partition::PartitioningKind::kVertexDisjoint) {
      std::cerr << "--updates requires a vertex-disjoint partitioning\n";
      return 1;
    }
    Result<std::vector<dynamic::UpdateBatch>> loaded =
        dynamic::UpdateLog::LoadFile(flags.updates_file);
    if (!loaded.ok()) {
      std::cerr << loaded.status().ToString() << "\n";
      return 1;
    }
    updates = std::move(*loaded);
    if (flags.store == "segment") {
      // Out-of-core dynamic serving: every Capture composes these
      // immutable pack-time segments with the maintainer's delta sets
      // instead of rebuilding per-site indexes per published batch.
      std::optional<exec::Cluster> opened = OpenCluster(flags, partitioning);
      if (!opened) return 1;
      state_options.base_sources = opened->sources();
    }
    dynamic::MaintainerOptions moptions;
    moptions.num_threads = flags.threads;
    moptions.mpc.base = flags.PartitionerOpts();
    ApplyPolicyFlags(flags, /*fallback=*/"never", &moptions);
    if (!flags.workload_file.empty()) {
      Result<std::vector<double>> weights =
          LoadWorkloadWeights(flags.workload_file, graph);
      if (!weights.ok()) {
        std::cerr << weights.status().ToString() << "\n";
        return 1;
      }
      moptions.property_weights = std::move(*weights);
    }
    base_weights = moptions.property_weights;
    seed_properties.reserve(graph.num_properties());
    for (size_t p = 0; p < graph.num_properties(); ++p) {
      seed_properties.emplace(graph.PropertyName(
                                  static_cast<rdf::PropertyId>(p)),
                              static_cast<rdf::PropertyId>(p));
    }
    workload_counts.assign(graph.num_properties(), 0.0);
    maintainer = std::make_unique<dynamic::IncrementalMaintainer>(
        std::move(graph), std::move(partitioning), moptions);
    state = serve::ServingState::Capture(*maintainer, state_options);
  } else {
    std::optional<exec::Cluster> cluster =
        OpenCluster(flags, std::move(partitioning));
    if (!cluster) return 1;
    state = serve::ServingState::WrapBackend(
        std::move(graph), std::make_unique<exec::Cluster>(std::move(*cluster)),
        /*generation=*/0, state_options);
  }

  serve::QueryServiceOptions service_options;
  service_options.num_workers = flags.concurrency;
  service_options.queue_capacity = flags.queue_cap;
  service_options.admission =
      flags.admission == "block"
          ? serve::QueryServiceOptions::Admission::kBlock
          : serve::QueryServiceOptions::Admission::kReject;
  if (flags.slow_query_ms > 0.0) {
    service_options.slow_query.threshold_ms = flags.slow_query_ms;
    service_options.slow_query.path =
        flags.slow_log.empty() ? "slow_queries.jsonl" : flags.slow_log;
  }
  if (maintainer != nullptr) {
    service_options.query_observer = [&](const sparql::QueryGraph& query) {
      // Each query counts a property once, mirroring
      // ComputeWorkloadPropertyWeights.
      std::vector<rdf::PropertyId> touched;
      for (const sparql::TriplePattern& pattern : query.patterns()) {
        if (pattern.predicate.is_variable()) continue;
        auto it = seed_properties.find(pattern.predicate.text);
        if (it == seed_properties.end()) continue;
        if (std::find(touched.begin(), touched.end(), it->second) ==
            touched.end()) {
          touched.push_back(it->second);
        }
      }
      if (touched.empty()) return;
      std::lock_guard<std::mutex> lock(workload_mutex);
      for (rdf::PropertyId p : touched) workload_counts[p] += 1.0;
    };
  }
  serve::QueryService service(std::move(state), service_options);

  // Live introspection: the snapshotter computes windowed stats over
  // the metrics registry; the admin socket serves them to `mpc top`,
  // and SIGUSR1 dumps them (plus the out files) mid-run.
  obs::Snapshotter snapshotter;
  snapshotter.Start();
  std::unique_ptr<serve::AdminServer> admin;
  if (!flags.admin_socket.empty()) {
    admin = std::make_unique<serve::AdminServer>(
        flags.admin_socket, [&snapshotter] { return snapshotter.StatsJson(); });
    Status st = admin->Start();
    if (!st.ok()) {
      std::cerr << st.ToString() << "\n";
      return 1;
    }
  }
  std::atomic<bool> stop_flusher{false};
  std::thread flusher([&] {
    while (!stop_flusher.load(std::memory_order_relaxed)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      if (!g_flush.exchange(false, std::memory_order_relaxed)) continue;
      if (!flags.metrics_out.empty()) {
        (void)obs::MetricsRegistry::Default().WriteJson(flags.metrics_out);
      }
      if (!flags.trace_out.empty() && obs::TracingEnabled()) {
        (void)obs::WriteTrace(flags.trace_out);
      }
      snapshotter.SampleNow();
      std::cout << snapshotter.StatsJson() << "\n" << std::flush;
    }
  });

  // Update stream on a side thread: apply a batch, capture + publish a
  // new snapshot, sleep. Queries never block on this — in-flight ones
  // finish on the snapshot they started with.
  std::atomic<bool> stop_updates{false};
  std::atomic<size_t> batches_published{0};
  std::thread updater;
  if (maintainer != nullptr && !updates.empty()) {
    updater = std::thread([&] {
      for (const dynamic::UpdateBatch& batch : updates) {
        if (stop_updates.load()) break;
        {
          // Fold the live query counts into the weights the drift
          // threshold sees: base (--workload seed, default 1.0) + count.
          std::lock_guard<std::mutex> lock(workload_mutex);
          bool any = !base_weights.empty();
          for (double c : workload_counts) any = any || c > 0.0;
          if (any) {
            std::vector<double> weights(workload_counts.size());
            for (size_t p = 0; p < weights.size(); ++p) {
              weights[p] = (p < base_weights.size() ? base_weights[p] : 1.0) +
                           workload_counts[p];
            }
            maintainer->SetPropertyWeights(std::move(weights));
          }
        }
        maintainer->ApplyBatch(batch);
        service.Publish(serve::ServingState::Capture(*maintainer,
                                                     state_options));
        batches_published.fetch_add(1);
        if (flags.update_interval_ms > 0.0) {
          std::this_thread::sleep_for(std::chrono::duration<double,
                                                            std::milli>(
              flags.update_interval_ms));
        }
      }
    });
  }

  using Clock = std::chrono::steady_clock;
  const Clock::time_point start = Clock::now();
  std::vector<std::future<Result<exec::QueryResponse>>> futures;
  futures.reserve(static_cast<size_t>(flags.repeat) * queries.size());
  size_t submitted = 0;
  for (uint32_t r = 0; r < flags.repeat && !g_drain.load(); ++r) {
    for (const std::string& text : queries) {
      // SIGINT/SIGTERM: stop admitting, let everything already submitted
      // finish below, flush, exit 0.
      if (g_drain.load()) break;
      if (flags.qps > 0.0) {
        // Open-loop pacing against the schedule, not the previous send,
        // so a slow burst does not permanently lower the offered rate.
        const auto due =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(
                            static_cast<double>(submitted) / flags.qps));
        std::this_thread::sleep_until(due);
      }
      exec::QueryRequest request = exec::QueryRequest::FromText(text);
      request.options.deadline_ms = flags.deadline_ms;
      futures.push_back(service.Submit(std::move(request)));
      ++submitted;
    }
  }

  size_t ok = 0;
  size_t rejected = 0;
  size_t expired = 0;
  size_t failed = 0;
  size_t incomplete = 0;
  double min_bound = 1.0;
  size_t result_cache_hits = 0;
  size_t plan_cache_hits = 0;
  uint64_t rows = 0;
  uint64_t min_generation = UINT64_MAX;
  uint64_t max_generation = 0;
  for (auto& future : futures) {
    Result<exec::QueryResponse> response = future.get();
    if (response.ok()) {
      ++ok;
      rows += response->bindings.num_rows();
      result_cache_hits += response->stats.result_cache_hit ? 1 : 0;
      plan_cache_hits += response->stats.plan_cache_hit ? 1 : 0;
      min_generation = std::min(min_generation, response->generation);
      max_generation = std::max(max_generation, response->generation);
      if (!response->stats.complete) {
        ++incomplete;
        min_bound = std::min(min_bound, response->stats.completeness_bound);
      }
    } else if (response.status().code() == StatusCode::kUnavailable) {
      ++rejected;
    } else if (response.status().code() == StatusCode::kDeadlineExceeded) {
      ++expired;
    } else {
      if (failed == 0) {
        std::cerr << "first failure: " << response.status().ToString()
                  << "\n";
      }
      ++failed;
    }
  }
  const double wall_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - start)
          .count();
  stop_updates.store(true);
  if (updater.joinable()) updater.join();
  service.Shutdown();
  stop_flusher.store(true);
  if (flusher.joinable()) flusher.join();
  if (admin != nullptr) admin->Stop();
  snapshotter.Stop();
  if (g_drain.load()) {
    std::cout << "drained:  admission stopped by signal after "
              << FormatWithCommas(submitted) << " submissions\n";
  }

  auto& metrics = obs::MetricsRegistry::Default();
  auto& latency =
      metrics.HistogramRef("serve.latency_ms", obs::DefaultLatencyBoundsMs());
  auto& queue_wait = metrics.HistogramRef("serve.queue_wait_ms",
                                          obs::DefaultLatencyBoundsMs());
  std::cout << "served:   " << FormatWithCommas(ok) << "/"
            << FormatWithCommas(submitted) << " queries, "
            << FormatWithCommas(rows) << " rows, "
            << FormatDouble(wall_ms, 1) << " ms wall ("
            << FormatDouble(1000.0 * static_cast<double>(ok) / wall_ms, 1)
            << " qps)\n"
            << "rejected: " << rejected << "\n"
            << "expired:  " << expired << "\n"
            << "failed:   " << failed << "\n"
            << "caches:   " << FormatWithCommas(result_cache_hits)
            << " result hits, " << FormatWithCommas(plan_cache_hits)
            << " plan hits\n";
  if (incomplete > 0) {
    // Same "completeness>=" formatting as `mpc query`, so a degraded
    // remote serve run can be diffed against the simulator's
    // ComputeReplicaCoverage-derived bound (scripts/check.sh does).
    std::cout << "partial:  " << FormatWithCommas(incomplete)
              << " best-effort answers, completeness>="
              << FormatDouble(100.0 * min_bound, 1) << "%\n";
  }
  if (ok > 0) {
    std::cout << "gens:     " << min_generation << ".." << max_generation
              << " (" << batches_published.load()
              << " update batches published)\n";
  }
  if (maintainer != nullptr && flags.migrate) {
    // Updater joined above: the maintainer is quiesced, so reading the
    // drift here is race-free. The greppable adaptive-serving summary.
    const dynamic::DriftMetrics adaptive = maintainer->drift();
    std::cout << "migrated: " << FormatWithCommas(adaptive.migrations)
              << " hot-vertex moves, " << maintainer->repartition_count()
              << " repartitions, weighted |L_cross| "
              << FormatDouble(adaptive.weighted_crossing_properties, 2)
              << " (seed "
              << FormatDouble(adaptive.seed_weighted_crossing_properties, 2)
              << ")\n";
  }
  std::cout << "latency:  p50 " << FormatDouble(latency.Quantile(0.5), 2)
            << " ms, p95 " << FormatDouble(latency.Quantile(0.95), 2)
            << " ms, p99 " << FormatDouble(latency.Quantile(0.99), 2)
            << " ms (queue wait p99 "
            << FormatDouble(queue_wait.Quantile(0.99), 2) << " ms)\n";
  if (service.slow_query_log() != nullptr) {
    std::cout << "slow:     "
              << FormatWithCommas(service.slow_query_log()->entries_written())
              << " queries over "
              << FormatDouble(flags.slow_query_ms, 1) << " ms logged to "
              << service.slow_query_log()->options().path << "\n";
  }
  return failed > 0 ? 1 : 0;
}

// ---------------------------------------------------------------------------
// mpc top: live serving introspection over the admin socket.

/// counters[name].field from the stats JSON, or fallback when absent.
double StatsField(const obs::JsonValue& root, const char* section,
                  const std::string& name, const char* field,
                  double fallback = 0.0) {
  const obs::JsonValue* sec = root.Find(section);
  if (sec == nullptr) return fallback;
  const obs::JsonValue* entry = sec->Find(name);
  if (entry == nullptr) return fallback;
  if (entry->is_number()) return entry->number;  // gauges are bare numbers
  const obs::JsonValue* value = entry->Find(field);
  return value != nullptr && value->is_number() ? value->number : fallback;
}

bool StatsHas(const obs::JsonValue& root, const char* section,
              const std::string& name) {
  const obs::JsonValue* sec = root.Find(section);
  return sec != nullptr && sec->Find(name) != nullptr;
}

/// Windowed cache-hit percentage from a pair of hit/miss counters.
std::string HitRate(const obs::JsonValue& root, const std::string& prefix) {
  const double hits = StatsField(root, "counters", prefix + ".hits",
                                 "window_delta");
  const double misses = StatsField(root, "counters", prefix + ".misses",
                                   "window_delta");
  if (hits + misses <= 0.0) return "-";
  return FormatDouble(100.0 * hits / (hits + misses), 1) + "%";
}

void RenderTop(const obs::JsonValue& root) {
  const obs::JsonValue* up = root.Find("uptime_ms");
  const obs::JsonValue* win = root.Find("window_ms");
  std::cout << "mpc top — uptime "
            << FormatDouble((up != nullptr ? up->number : 0.0) / 1000.0, 1)
            << " s, window "
            << FormatDouble((win != nullptr ? win->number : 0.0) / 1000.0, 1)
            << " s\n";
  std::cout << "queries   "
            << FormatWithCommas(static_cast<uint64_t>(
                   StatsField(root, "counters", "serve.queries", "value")))
            << " total, "
            << FormatDouble(StatsField(root, "counters", "serve.queries",
                                       "rate_per_s"), 1)
            << " qps | queue depth "
            << static_cast<uint64_t>(
                   StatsField(root, "gauges", "serve.queue_depth", ""))
            << "\n";
  std::cout << "latency   p50 "
            << FormatDouble(StatsField(root, "histograms", "serve.latency_ms",
                                       "p50"), 2)
            << " ms, p95 "
            << FormatDouble(StatsField(root, "histograms", "serve.latency_ms",
                                       "p95"), 2)
            << " ms, p99 "
            << FormatDouble(StatsField(root, "histograms", "serve.latency_ms",
                                       "p99"), 2)
            << " ms (window) | queue wait p99 "
            << FormatDouble(StatsField(root, "histograms",
                                       "serve.queue_wait_ms", "p99"), 2)
            << " ms\n";
  std::cout << "admission "
            << FormatWithCommas(static_cast<uint64_t>(
                   StatsField(root, "counters", "serve.admitted", "value")))
            << " admitted, "
            << static_cast<uint64_t>(
                   StatsField(root, "counters", "serve.rejected", "value"))
            << " rejected, "
            << static_cast<uint64_t>(StatsField(root, "counters",
                                                "serve.deadline_expired",
                                                "value"))
            << " expired\n";
  std::cout << "caches    plan " << HitRate(root, "serve.plan_cache")
            << " hit, result " << HitRate(root, "serve.result_cache")
            << " hit (window)\n";
  if (StatsHas(root, "gauges", "net.supervisor.alive")) {
    std::cout << "sites     "
              << static_cast<uint64_t>(StatsField(root, "gauges",
                                                  "net.supervisor.alive", ""))
              << " up | restarts "
              << static_cast<uint64_t>(StatsField(root, "counters",
                                                  "net.supervisor.restarts",
                                                  "value"))
              << ", deaths "
              << static_cast<uint64_t>(StatsField(root, "counters",
                                                  "net.supervisor.deaths",
                                                  "value"))
              << ", gave up "
              << static_cast<uint64_t>(StatsField(root, "counters",
                                                  "net.supervisor.gave_up",
                                                  "value"))
              << " | heartbeat p99 "
              << FormatDouble(StatsField(root, "histograms",
                                         "net.supervisor.heartbeat_ms",
                                         "p99"), 2)
              << " ms\n";
    const obs::JsonValue* counters = root.Find("counters");
    if (counters != nullptr) {
      for (const auto& [name, value] : counters->object) {
        const std::string_view prefix = "net.supervisor.site_";
        if (name.compare(0, prefix.size(), prefix) != 0) continue;
        if (name.size() < prefix.size() ||
            name.find(".restarts") == std::string::npos) {
          continue;
        }
        const obs::JsonValue* v = value.Find("value");
        if (v != nullptr && v->number > 0.0) {
          std::cout << "          " << name << " = "
                    << static_cast<uint64_t>(v->number) << "\n";
        }
      }
    }
  }
  if (StatsHas(root, "counters", "storage.segment.blocks_decoded") ||
      StatsHas(root, "counters", "storage.segment.blocks_pruned")) {
    std::cout << "storage   blocks decoded "
              << FormatWithCommas(static_cast<uint64_t>(
                     StatsField(root, "counters",
                                "storage.segment.blocks_decoded", "value")))
              << " ("
              << FormatDouble(StatsField(root, "counters",
                                         "storage.segment.blocks_decoded",
                                         "rate_per_s"), 1)
              << "/s), pruned "
              << FormatWithCommas(static_cast<uint64_t>(
                     StatsField(root, "counters",
                                "storage.segment.blocks_pruned", "value")))
              << "\n";
  }
}

int CmdTop(const Flags& flags) {
  if (!flags.positional.empty()) return Usage();
  if (flags.socket_path.empty()) {
    std::cerr << "top requires --socket=ADMIN_PATH (the serve process's "
                 "--admin-socket)\n";
    return 2;
  }
  if (flags.json) {
    Result<std::string> stats = serve::FetchStats(flags.socket_path, 5000.0);
    if (!stats.ok()) {
      std::cerr << stats.status().ToString() << "\n";
      return 1;
    }
    std::cout << *stats << "\n";
    return 0;
  }
  InstallDrainHandlers();
  const bool tty = ::isatty(STDOUT_FILENO) != 0;
  for (uint32_t shown = 0; !g_drain.load(std::memory_order_relaxed);) {
    Result<std::string> stats = serve::FetchStats(flags.socket_path, 5000.0);
    if (!stats.ok()) {
      std::cerr << stats.status().ToString() << "\n";
      return 1;
    }
    Result<obs::JsonValue> parsed = obs::ParseJson(*stats);
    if (!parsed.ok()) {
      std::cerr << "bad stats payload: " << parsed.status().ToString() << "\n";
      return 1;
    }
    if (tty) std::cout << "\x1b[H\x1b[2J";
    RenderTop(*parsed);
    std::cout << std::flush;
    if (++shown >= flags.count && flags.count > 0) break;
    // Sleep in short slices so SIGINT lands promptly.
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double, std::milli>(flags.interval_ms));
    while (!g_drain.load(std::memory_order_relaxed) &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  }
  return 0;
}

}  // namespace

int RunCommand(const std::string& command, const Flags& flags) {
  if (command == "stats") return CmdStats(flags);
  if (command == "partition") return CmdPartition(flags);
  if (command == "classify") return CmdClassifyOrQuery(flags, false);
  if (command == "explain") return CmdExplain(flags);
  if (command == "pack") return CmdPack(flags);
  if (command == "query") return CmdClassifyOrQuery(flags, true);
  if (command == "update") return CmdUpdate(flags);
  if (command == "serve") return CmdServe(flags);
  if (command == "site") return CmdSite(flags);
  if (command == "top") return CmdTop(flags);
  return Usage();
}

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  std::string command = argv[1];
  Result<Flags> flags = Flags::Parse(argc, argv, 2);
  if (!flags.ok()) {
    std::cerr << flags.status().ToString() << "\n";
    return 2;
  }

  const bool tracing = !flags->trace_out.empty() || flags->trace_summary;
  if (tracing) obs::StartTracing();

  int exit_code = RunCommand(command, *flags);

  if (tracing) {
    obs::StopTracing();
    if (!flags->trace_out.empty()) {
      Status st = obs::WriteTrace(flags->trace_out);
      if (!st.ok()) {
        std::cerr << st.ToString() << "\n";
        if (exit_code == 0) exit_code = 1;
      } else {
        std::cout << "trace written to: " << flags->trace_out << "\n";
      }
    }
    if (flags->trace_summary) std::cout << obs::TraceToTextTree();
  }
  if (!flags->metrics_out.empty()) {
    Status st =
        obs::MetricsRegistry::Default().WriteJson(flags->metrics_out);
    if (!st.ok()) {
      std::cerr << st.ToString() << "\n";
      if (exit_code == 0) exit_code = 1;
    } else {
      std::cout << "metrics written to: " << flags->metrics_out << "\n";
    }
  }
  return exit_code;
}

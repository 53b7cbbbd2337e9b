// End-to-end tests of the real multi-process site runtime: RemoteCluster
// over `mpc site` worker processes, with survived (not simulated)
// faults. Every test spawns actual workers via the SiteSupervisor, so
// the binary built at build/tools/mpc must exist; tests skip cleanly
// when it does not (e.g. a tests-only build).

#include <stdlib.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/random.h"
#include "exec/cluster.h"
#include "exec/distributed_executor.h"
#include "exec/remote_cluster.h"
#include "exec/site_worker.h"
#include "gtest/gtest.h"
#include "mpc/mpc_partitioner.h"
#include "net/chaos_proxy.h"
#include "obs/json.h"
#include "obs/trace.h"
#include "partition/partition_io.h"
#include "partition/vp_partitioner.h"
#include "rdf/graph.h"
#include "rdf/ntriples.h"
#include "storage/segment_writer.h"
#include "test_util.h"

namespace mpc::exec {
namespace {

using rdf::RdfGraph;
using store::BindingTable;

/// Locates build/tools/mpc relative to this test binary
/// (build/tests/remote_cluster_test). Empty when not found.
std::string WorkerBinary() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) return "";
  buf[n] = '\0';
  const std::filesystem::path exe(buf);
  const std::filesystem::path candidate =
      exe.parent_path().parent_path() / "tools" / "mpc";
  std::error_code ec;
  if (std::filesystem::exists(candidate, ec)) return candidate.string();
  return "";
}

/// The query mix: IEQ stars (union-only) and non-IEQ paths (decompose +
/// coordinator hash-join), so both executor data-paths cross the wire.
const char* kQueryMix[] = {
    "SELECT * WHERE { ?x <t:p0> ?y . }",
    "SELECT * WHERE { ?x <t:p0> ?y . ?x <t:p1> ?z . }",
    "SELECT * WHERE { ?x <t:p0> ?y . ?y <t:p2> ?z . }",
    "SELECT * WHERE { ?x <t:p1> ?y . ?y <t:p3> ?z . ?z <t:p4> ?w . }",
};

/// One deployment: a graph serialized to disk, the coordinator's parse
/// of it, a saved k-way MPC partitioning, and the running worker fleet.
/// The workers parse nothing: they load the segments Start packs from
/// the coordinator's own partitioning, so their ids are its ids.
struct Deployment {
  std::string dir;
  std::string partition_dir;
  RdfGraph graph;
  partition::Partitioning partitioning;  // coordinator's own copy
  std::unique_ptr<RemoteCluster> remote;

  ~Deployment() {
    remote.reset();  // stop workers before removing their sockets
    if (!dir.empty()) {
      std::error_code ec;
      std::filesystem::remove_all(dir, ec);
    }
  }
};

/// Builds the on-disk artifacts and fills `options` for a fleet over
/// them, without starting it. Returns nullptr when the worker binary is
/// missing — callers GTEST_SKIP — and fails the test on real errors.
std::unique_ptr<Deployment> PrepareDeployment(uint32_t k,
                                              RemoteCluster::Options* options) {
  const std::string binary = WorkerBinary();
  if (binary.empty()) return nullptr;

  auto d = std::make_unique<Deployment>();
  char tmpl[] = "/tmp/mpc_rct_XXXXXX";  // short: socket paths live here
  if (::mkdtemp(tmpl) == nullptr) {
    ADD_FAILURE() << "mkdtemp failed";
    return nullptr;
  }
  d->dir = tmpl;

  Rng rng(5);
  RdfGraph seed = testutil::RandomGraph(rng, 60, 240, 5, /*community=*/12,
                                        /*escape=*/0.2);
  const std::string graph_path = d->dir + "/graph.nt";
  Status st = rdf::WriteNTriplesFile(seed, graph_path);
  if (!st.ok()) {
    ADD_FAILURE() << st.ToString();
    return nullptr;
  }
  rdf::GraphBuilder builder;
  st = rdf::NTriplesParser::ParseFile(graph_path, &builder);
  if (!st.ok()) {
    ADD_FAILURE() << st.ToString();
    return nullptr;
  }
  d->graph = builder.Build();

  core::MpcOptions mpc;
  mpc.base.k = k;
  mpc.base.epsilon = 0.3;
  mpc.base.seed = 3;
  partition::Partitioning fresh = core::MpcPartitioner(mpc).Partition(d->graph);
  d->partition_dir = d->dir + "/parts";
  st = partition::PartitionIo::Save(d->graph, fresh, d->partition_dir);
  if (!st.ok()) {
    ADD_FAILURE() << st.ToString();
    return nullptr;
  }
  // Load (not the fresh object): the coordinator must see exactly the
  // materialization the workers load from disk.
  Result<partition::Partitioning> loaded =
      partition::PartitionIo::Load(d->graph, d->partition_dir);
  if (!loaded.ok()) {
    ADD_FAILURE() << loaded.status().ToString();
    return nullptr;
  }
  d->partitioning = *loaded;

  options->worker_binary = binary;
  options->partition_dir = d->partition_dir;
  options->socket_dir = d->dir;
  options->supervisor.heartbeat_interval_ms = 10;
  options->supervisor.restart_backoff_ms = 20;
  options->supervisor.spawn_wait_ms = 30000;
  options->supervisor.drain_grace_ms = 2000;
  return d;
}

/// Builds the on-disk artifacts and starts the fleet. `tweak` runs after
/// all default options are filled (socket_dir is set, so chaos proxies
/// can derive paths from it). Returns nullptr when the worker binary is
/// missing — callers GTEST_SKIP — and fails the test on real errors.
std::unique_ptr<Deployment> MakeDeployment(
    uint32_t k,
    const std::function<void(RemoteCluster::Options*)>& tweak = {}) {
  RemoteCluster::Options options;
  std::unique_ptr<Deployment> d = PrepareDeployment(k, &options);
  if (d == nullptr) return nullptr;
  if (tweak) tweak(&options);

  Result<std::unique_ptr<RemoteCluster>> remote =
      RemoteCluster::Start(d->partitioning, std::move(options));
  if (!remote.ok()) {
    ADD_FAILURE() << remote.status().ToString();
    return nullptr;
  }
  d->remote = std::move(*remote);
  return d;
}

/// Executor options for real RPC: generous backoff so a retry lands
/// after the supervisor's respawn (backoff sleeps are real here).
ExecutorOptions RemoteExecOptions() {
  ExecutorOptions options;
  options.network.max_retries = 3;
  options.network.retry_backoff_ms = 100.0;
  return options;
}

/// Union-semantics ground truth for a degraded vertex-disjoint cluster
/// (Def 3.7): every live site evaluates the full BGP on its fragment
/// (internal + crossing replicas) and the rows are unioned.
BindingTable DegradedUnionTruth(const partition::Partitioning& partitioning,
                                const RdfGraph& graph,
                                const sparql::QueryGraph& query,
                                const std::vector<uint32_t>& down) {
  store::ResolvedQuery resolved = store::ResolveQuery(query, graph);
  BindingTable merged;
  bool first = true;
  for (uint32_t site = 0; site < partitioning.k(); ++site) {
    if (std::find(down.begin(), down.end(), site) != down.end()) continue;
    store::TripleStore store(SiteTriples(partitioning.partition(site)));
    BindingTable table = store::BgpMatcher::EvaluateAll(store, resolved);
    if (first) {
      merged = std::move(table);
      first = false;
    } else {
      merged.rows.insert(merged.rows.end(), table.rows.begin(),
                         table.rows.end());
    }
  }
  merged.Deduplicate();
  return merged;
}

/// Polls until the supervisor notices worker `site` is dead (its monitor
/// reaps asynchronously).
void AwaitReaped(const RemoteCluster& remote, uint32_t site) {
  for (int i = 0; i < 1000 && remote.supervisor().IsAlive(site); ++i) {
    ::usleep(5000);
  }
  EXPECT_FALSE(remote.supervisor().IsAlive(site));
}

// --- Acceptance: the simulator and the real fleet are bit-identical on
// a fault-free mix. ---

TEST(RemoteClusterTest, FaultFreeMixIsBitIdenticalToSimulator) {
  std::unique_ptr<Deployment> d = MakeDeployment(4);
  if (d == nullptr) GTEST_SKIP() << "worker binary not built";

  Cluster sim = Cluster::Build(d->partitioning);
  const ExecutorOptions options = RemoteExecOptions();
  DistributedExecutor sim_exec(sim, d->graph, options);
  DistributedExecutor remote_exec(*d->remote, d->graph, options);

  for (const char* text : kQueryMix) {
    sparql::QueryGraph query = testutil::ParseQueryOrDie(text);
    Result<QueryResponse> sim_r =
        sim_exec.Execute(QueryRequest::FromQuery(query));
    Result<QueryResponse> remote_r =
        remote_exec.Execute(QueryRequest::FromQuery(query));
    ASSERT_TRUE(sim_r.ok()) << sim_r.status().ToString();
    ASSERT_TRUE(remote_r.ok()) << remote_r.status().ToString() << " " << text;

    // Bit-identical: same columns, same rows, same order — the worker
    // runs the very EvaluateSiteRequest the simulator runs, and the
    // coordinator merges per-site tables in site order on both paths.
    EXPECT_EQ(remote_r->bindings.var_ids, sim_r->bindings.var_ids) << text;
    EXPECT_EQ(remote_r->bindings.rows, sim_r->bindings.rows) << text;
    EXPECT_TRUE(remote_r->stats.complete);
    EXPECT_DOUBLE_EQ(remote_r->stats.completeness_bound, 1.0);
    EXPECT_EQ(remote_r->stats.sites_evaluated, sim_r->stats.sites_evaluated);
    EXPECT_EQ(remote_r->stats.sites_pruned, sim_r->stats.sites_pruned);
    EXPECT_EQ(remote_r->stats.sites_failed, 0u);
    EXPECT_EQ(remote_r->stats.independent, sim_r->stats.independent);

    // And both equal the k=1 ground truth.
    BindingTable truth = testutil::GroundTruth(d->graph, query);
    EXPECT_EQ(testutil::RowSet(remote_r->bindings), testutil::RowSet(truth))
        << text;
  }
}

// The gStoreD plan runs over the real fleet too, with the simulator's
// bindings and partial-match counts.
TEST(RemoteClusterTest, GStoredOverRpcMatchesSimulator) {
  std::unique_ptr<Deployment> d = MakeDeployment(4);
  if (d == nullptr) GTEST_SKIP() << "worker binary not built";

  Cluster sim = Cluster::Build(d->partitioning);
  DistributedExecutor sim_exec(sim, d->graph, RemoteExecOptions());
  DistributedExecutor remote_exec(*d->remote, d->graph, RemoteExecOptions());
  for (const char* text : kQueryMix) {
    const QueryRequest request = QueryRequest::FromQuery(
        testutil::ParseQueryOrDie(text),
        {.strategy = ExecStrategy::kGstored});
    Result<QueryResponse> sim_r = sim_exec.Execute(request);
    Result<QueryResponse> remote_r = remote_exec.Execute(request);
    ASSERT_TRUE(sim_r.ok()) << sim_r.status().ToString();
    ASSERT_TRUE(remote_r.ok()) << remote_r.status().ToString() << " " << text;
    EXPECT_EQ(remote_r->bindings.var_ids, sim_r->bindings.var_ids) << text;
    EXPECT_EQ(remote_r->bindings.rows, sim_r->bindings.rows) << text;
    EXPECT_EQ(remote_r->stats.local_rows, sim_r->stats.local_rows) << text;
    EXPECT_EQ(remote_r->stats.sites_evaluated, sim_r->stats.sites_evaluated)
        << text;
  }
}

// Workers load the segments Start packs and serve the decoded in-memory
// store: the bindings and the reported footprint are the simulator's.
TEST(RemoteClusterTest, SegmentWorkersMatchSimulator) {
  std::unique_ptr<Deployment> d = MakeDeployment(4);
  if (d == nullptr) GTEST_SKIP() << "worker binary not built";
  for (uint32_t i = 0; i < 4; ++i) {
    EXPECT_TRUE(std::filesystem::exists(
        storage::SegmentPath(d->partition_dir, i)))
        << "site " << i;
  }
  Cluster sim = Cluster::Build(d->partitioning);
  EXPECT_EQ(d->remote->MemoryUsage(), sim.MemoryUsage());
  DistributedExecutor sim_exec(sim, d->graph, RemoteExecOptions());
  DistributedExecutor remote_exec(*d->remote, d->graph, RemoteExecOptions());
  for (const char* text : kQueryMix) {
    sparql::QueryGraph query = testutil::ParseQueryOrDie(text);
    Result<QueryResponse> sim_r =
        sim_exec.Execute(QueryRequest::FromQuery(query));
    Result<QueryResponse> remote_r =
        remote_exec.Execute(QueryRequest::FromQuery(query));
    ASSERT_TRUE(sim_r.ok()) << sim_r.status().ToString();
    ASSERT_TRUE(remote_r.ok()) << remote_r.status().ToString() << " " << text;
    EXPECT_EQ(remote_r->bindings.var_ids, sim_r->bindings.var_ids) << text;
    EXPECT_EQ(remote_r->bindings.rows, sim_r->bindings.rows) << text;
    EXPECT_EQ(remote_r->stats.sites_pruned, sim_r->stats.sites_pruned);
  }
}

/// The bytes of every file in `dir` whose name ends in `.mpcseg`.
std::map<std::string, std::string> SegmentFiles(const std::string& dir) {
  std::map<std::string, std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".mpcseg") continue;
    std::ifstream in(entry.path(), std::ios::binary);
    files[entry.path().filename().string()] =
        std::string((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  }
  return files;
}

// Start packs exactly what `mpc pack` writes (PackSegments over
// PartitionIo::Load of the same directory), for an MPC and a VP
// partitioning at k=4.
TEST(RemoteClusterTest, StartPacksTheSegmentsMpcPackWrites) {
  RemoteCluster::Options options;
  std::unique_ptr<Deployment> d = PrepareDeployment(4, &options);
  if (d == nullptr) GTEST_SKIP() << "worker binary not built";
  partition::PartitionerOptions vp;
  vp.k = 4;
  const std::string vp_dir = d->dir + "/vp";
  const partition::Partitioning vp_fresh =
      partition::VpPartitioner(vp).Partition(d->graph);
  ASSERT_TRUE(partition::PartitionIo::Save(d->graph, vp_fresh, vp_dir).ok());

  const std::pair<std::string, const partition::Partitioning*> cases[] = {
      {d->partition_dir, &d->partitioning}, {vp_dir, &vp_fresh}};
  for (const auto& [dir, partitioning] : cases) {
    RemoteCluster::Options run = options;
    run.partition_dir = dir;
    Result<std::unique_ptr<RemoteCluster>> remote =
        RemoteCluster::Start(*partitioning, run);
    ASSERT_TRUE(remote.ok()) << dir << ": " << remote.status().ToString();
    remote->reset();
    const std::map<std::string, std::string> started = SegmentFiles(dir);
    ASSERT_EQ(started.size(), 4u) << dir;

    Result<partition::Partitioning> loaded =
        partition::PartitionIo::Load(d->graph, dir);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    ASSERT_TRUE(PackSegments(*loaded, dir).ok());
    EXPECT_TRUE(SegmentFiles(dir) == started) << dir;
  }
}

// A worker whose segment is missing, truncated or packed for another
// site returns OpenSiteSegment's status and never creates its socket.
TEST(SiteWorkerTest, RefusedSegmentIsReturnedBeforeListening) {
  char tmpl[] = "/tmp/mpc_swt_XXXXXX";
  ASSERT_NE(::mkdtemp(tmpl), nullptr);
  const std::string dir = tmpl;
  Rng rng(11);
  RdfGraph graph = testutil::RandomGraph(rng, 40, 160, 4);
  core::MpcOptions mpc;
  mpc.base.k = 3;
  const partition::Partitioning partitioning =
      core::MpcPartitioner(mpc).Partition(graph);
  ASSERT_TRUE(partition::PartitionIo::Save(graph, partitioning, dir).ok());
  ASSERT_TRUE(PackSegments(partitioning, dir).ok());
  Result<uint64_t> fingerprint = partition::PartitionIo::Fingerprint(dir);
  ASSERT_TRUE(fingerprint.ok());

  const std::string segment = storage::SegmentPath(dir, 0);
  const std::function<void()> damage[] = {
      [&] { std::filesystem::remove(segment); },
      [&] {
        std::filesystem::resize_file(
            segment, std::filesystem::file_size(segment) / 2);
      },
      [&] {
        std::filesystem::remove(segment);
        std::filesystem::copy_file(storage::SegmentPath(dir, 1), segment);
      },
  };
  for (const auto& fault : damage) {
    std::filesystem::remove(segment);
    ASSERT_TRUE(PackSegments(partitioning, dir).ok());
    fault();
    const Result<storage::SegmentStore> open =
        OpenSiteSegment(dir, 0, *fingerprint, std::nullopt);
    ASSERT_FALSE(open.ok());

    SiteWorkerOptions options;
    options.partition_dir = dir;
    options.site = 0;
    options.socket_path = dir + "/site_0.sock";
    const Status st = RunSiteWorker(options);
    EXPECT_EQ(st.code(), open.status().code()) << st.ToString();
    EXPECT_EQ(st.message(), open.status().message());
    EXPECT_FALSE(std::filesystem::exists(options.socket_path));
  }
  std::filesystem::remove_all(dir);
}

// A socket directory that does not exist is a deployment error: Start
// reports it at once instead of spawning workers that cannot bind and
// spending the restart budget on them.
TEST(RemoteClusterTest, MissingSocketDirFailsBeforeSpawning) {
  Rng rng(5);
  RdfGraph graph = testutil::RandomGraph(rng, 30, 90, 4);
  core::MpcOptions mpc;
  mpc.base.k = 2;
  RemoteCluster::Options options;
  options.worker_binary = "/nonexistent/mpc";
  options.socket_dir = "/nonexistent/mpc_sockets";
  options.supervisor.max_restarts = 0;
  Result<std::unique_ptr<RemoteCluster>> remote = RemoteCluster::Start(
      core::MpcPartitioner(mpc).Partition(graph), options);
  ASSERT_FALSE(remote.ok());
  EXPECT_EQ(remote.status().code(), StatusCode::kNotFound);
  EXPECT_NE(remote.status().message().find("/nonexistent/mpc_sockets"),
            std::string::npos)
      << remote.status().ToString();
}

// --- Acceptance: SIGKILL a site mid-stream; the supervisor respawns it
// and the retried RPC completes the query. ---

TEST(RemoteClusterTest, SigkilledWorkerIsRespawnedAndQueryCompletes) {
  std::unique_ptr<Deployment> d = MakeDeployment(4);
  if (d == nullptr) GTEST_SKIP() << "worker binary not built";

  DistributedExecutor executor(*d->remote, d->graph, RemoteExecOptions());
  sparql::QueryGraph query = testutil::ParseQueryOrDie(kQueryMix[1]);

  // Warm query proves the fleet serves, then the chaos lever.
  Result<QueryResponse> warm =
      executor.Execute(QueryRequest::FromQuery(query));
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  ASSERT_TRUE(d->remote->supervisor().Kill(1).ok());

  // The coordinator still holds a connection to the corpse; the first
  // attempt fails over the torn socket and a backed-off retry reconnects
  // to the respawned process.
  Result<QueryResponse> response =
      executor.Execute(QueryRequest::FromQuery(query));
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_TRUE(response->stats.complete);
  EXPECT_EQ(testutil::RowSet(response->bindings),
            testutil::RowSet(testutil::GroundTruth(d->graph, query)));
  EXPECT_GE(d->remote->supervisor().restarts(1), 1);
  EXPECT_GE(response->stats.retries, 1u);
}

// --- Acceptance: restart budget exhausted -> best-effort answer whose
// completeness bound matches ComputeReplicaCoverage exactly. ---

TEST(RemoteClusterTest, ExhaustedBudgetDegradesToCoverageBoundedBestEffort) {
  std::unique_ptr<Deployment> d = MakeDeployment(
      4, [](RemoteCluster::Options* o) { o->supervisor.max_restarts = 0; });
  if (d == nullptr) GTEST_SKIP() << "worker binary not built";

  ExecutorOptions options = RemoteExecOptions();
  options.network.max_retries = 1;
  options.network.retry_backoff_ms = 1.0;  // gave-up sites fail instantly
  options.partial_results = PartialResultPolicy::kBestEffort;
  DistributedExecutor executor(*d->remote, d->graph, options);

  const uint32_t kDead = 2;
  ASSERT_TRUE(d->remote->supervisor().Kill(kDead).ok());
  AwaitReaped(*d->remote, kDead);

  sparql::QueryGraph query = testutil::ParseQueryOrDie(kQueryMix[1]);
  Result<QueryResponse> response =
      executor.Execute(QueryRequest::FromQuery(query));
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  const ExecutionStats& stats = response->stats;
  EXPECT_FALSE(stats.complete);
  EXPECT_GE(stats.sites_failed, 1u);

  // The reported bound must be exactly the replica-coverage analysis for
  // this availability view — the acceptance criterion of the issue.
  SiteAvailability avail = d->remote->AllUp();
  avail.MarkDown(kDead);
  const ReplicaCoverage coverage = d->remote->ComputeReplicaCoverage(avail);
  const double expected_bound =
      1.0 - static_cast<double>(coverage.lost_triples) /
                static_cast<double>(d->graph.num_edges());
  EXPECT_DOUBLE_EQ(stats.completeness_bound, expected_bound);
  EXPECT_EQ(stats.failed_site_vertices, coverage.failed_owned_vertices);
  EXPECT_EQ(stats.replicated_failed_vertices, coverage.replicated_on_live);

  // IEQ union semantics: the answer is exactly what the live fragments
  // (incl. the dead site's crossing-edge replicas) can produce.
  BindingTable truth =
      DegradedUnionTruth(d->partitioning, d->graph, query, {kDead});
  EXPECT_EQ(testutil::RowSet(response->bindings), testutil::RowSet(truth));
}

// --- A worker that SIGKILLs itself after computing (but before sending)
// a reply: the coordinator sees a torn stream mid-query and fails over
// to the healthy respawn. ---

TEST(RemoteClusterTest, MidReplyCrashIsSurvivedByRespawnedWorker) {
  std::unique_ptr<Deployment> d =
      MakeDeployment(4, [](RemoteCluster::Options* o) {
        o->kill_site = 0;
        o->kill_after_queries = 1;
      });
  if (d == nullptr) GTEST_SKIP() << "worker binary not built";

  DistributedExecutor executor(*d->remote, d->graph, RemoteExecOptions());
  sparql::QueryGraph query = testutil::ParseQueryOrDie(kQueryMix[0]);
  Result<QueryResponse> response =
      executor.Execute(QueryRequest::FromQuery(query));
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_TRUE(response->stats.complete);
  EXPECT_EQ(testutil::RowSet(response->bindings),
            testutil::RowSet(testutil::GroundTruth(d->graph, query)));
  // The crash flag is first-spawn-only, so the respawn served the retry.
  EXPECT_GE(d->remote->supervisor().restarts(0), 1);
  EXPECT_GE(response->stats.retries, 1u);
}

// --- Transport faults injected by the chaos proxy: corruption heals on
// retry; a persistently torn stream is a clean error that heals once the
// fault clears; delays surface as DeadlineExceeded. ---

TEST(RemoteClusterTest, ChaosProxyFaultsAreSurvivedOrCleanlyReported) {
  std::unique_ptr<net::ChaosProxy> proxy;
  std::unique_ptr<Deployment> d =
      MakeDeployment(4, [&proxy](RemoteCluster::Options* o) {
        const std::string listen = o->socket_dir + "/proxy_0.sock";
        const std::string target = o->socket_dir + "/site_0.sock";
        proxy = std::make_unique<net::ChaosProxy>(listen, target,
                                                  net::ChaosOptions{});
        ASSERT_TRUE(proxy->Start().ok());
        o->connect_path_override = {listen, "", "", ""};
        // A corrupted length field can leave the coordinator waiting for
        // bytes that never come; keep that wait short.
        o->default_timeout_ms = 3000;
      });
  if (d == nullptr) GTEST_SKIP() << "worker binary not built";
  ASSERT_NE(proxy, nullptr);

  ExecutorOptions options = RemoteExecOptions();
  options.network.retry_backoff_ms = 20.0;
  DistributedExecutor executor(*d->remote, d->graph, options);
  sparql::QueryGraph query = testutil::ParseQueryOrDie(kQueryMix[0]);

  // 1. Single-byte corruption in the next reply: checksum catches it,
  // the retry reconnects past the (absolute-offset, hence one-shot)
  // fault and succeeds.
  {
    net::ChaosOptions chaos;
    // +25 lands inside the payload of the next reply frame (the header
    // is 20 bytes, eval-reply payloads are >= 28): checksum mismatch,
    // caught as soon as the full frame is read.
    chaos.corrupt_reply_at = proxy->reply_bytes_forwarded() + 25;
    chaos.corrupt_mask = 0x5a;
    proxy->UpdateOptions(chaos);
    Result<QueryResponse> response =
        executor.Execute(QueryRequest::FromQuery(query));
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_TRUE(response->stats.complete);
    EXPECT_EQ(testutil::RowSet(response->bindings),
              testutil::RowSet(testutil::GroundTruth(d->graph, query)));
    EXPECT_GE(response->stats.retries, 1u);
  }

  // 2. A stream cut that persists across reconnects: every attempt tears
  // mid-frame, and the failure is a clean Unavailable (never a crash,
  // never garbage rows). Clearing the fault heals the site.
  {
    net::ChaosOptions chaos;
    chaos.truncate_reply_after = proxy->reply_bytes_forwarded() + 9;
    proxy->UpdateOptions(chaos);
    Result<QueryResponse> response =
        executor.Execute(QueryRequest::FromQuery(query));
    ASSERT_FALSE(response.ok());
    EXPECT_EQ(response.status().code(), StatusCode::kUnavailable)
        << response.status().ToString();

    proxy->UpdateOptions(net::ChaosOptions{});
    response = executor.Execute(QueryRequest::FromQuery(query));
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(testutil::RowSet(response->bindings),
              testutil::RowSet(testutil::GroundTruth(d->graph, query)));
  }

  // 3. Reply delay past the per-attempt deadline: DeadlineExceeded, the
  // terminal code the executor's retry/failover policy keys on.
  {
    net::ChaosOptions chaos;
    chaos.delay_reply_ms = 500.0;
    proxy->UpdateOptions(chaos);
    ExecutorOptions slow = options;
    slow.network.site_timeout_ms = 50.0;
    slow.network.max_retries = 1;
    DistributedExecutor impatient(*d->remote, d->graph, slow);
    Result<QueryResponse> response =
        impatient.Execute(QueryRequest::FromQuery(query));
    ASSERT_FALSE(response.ok());
    EXPECT_EQ(response.status().code(), StatusCode::kDeadlineExceeded)
        << response.status().ToString();
    proxy->UpdateOptions(net::ChaosOptions{});
  }

  d.reset();  // stop the fleet before the proxy goes away
}

// --- The pipelined batch: the request goes to every site before any
// reply is read. A site that fails inside the batch goes through the
// per-site retry loop alone; the other sites' replies stand. ---

/// Runs `text`'s whole BGP as one batch on sites 0..k-1 of `remote`.
struct BatchRun {
  std::vector<SiteEvalReply> replies;
  std::vector<Status> statuses;
};
BatchRun RunBatch(const ClusterBackend& backend, const RdfGraph& graph,
                  const std::string& text, const SiteCallPolicy& policy) {
  const store::ResolvedQuery resolved =
      store::ResolveQuery(testutil::ParseQueryOrDie(text), graph);
  std::vector<size_t> patterns(resolved.patterns.size());
  for (size_t i = 0; i < patterns.size(); ++i) patterns[i] = i;
  SiteEvalRequest request;
  request.pattern_indices = patterns;
  std::vector<uint32_t> sites(backend.k());
  for (uint32_t i = 0; i < backend.k(); ++i) sites[i] = i;
  BatchRun run;
  run.replies.resize(sites.size());
  run.statuses.resize(sites.size());
  backend.EvaluateOnSites(sites, resolved, request, policy, /*num_threads=*/1,
                          run.replies, run.statuses);
  return run;
}

/// Every site of `remote` answered as the simulator's does.
void ExpectSitesMatchSimulator(const BatchRun& remote, const BatchRun& sim,
                               const std::vector<uint32_t>& sites) {
  for (uint32_t site : sites) {
    ASSERT_TRUE(remote.statuses[site].ok())
        << "site " << site << ": " << remote.statuses[site].ToString();
    EXPECT_EQ(remote.replies[site].table.var_ids,
              sim.replies[site].table.var_ids)
        << "site " << site;
    EXPECT_EQ(remote.replies[site].table.rows, sim.replies[site].table.rows)
        << "site " << site;
  }
}

TEST(RemoteClusterTest, WorkerKilledMidBatchIsRetriedAloneOthersKeepReplies) {
  const uint32_t kKilled = 2;
  std::unique_ptr<Deployment> d =
      MakeDeployment(4, [](RemoteCluster::Options* o) {
        o->kill_site = kKilled;
        o->kill_after_queries = 1;
      });
  if (d == nullptr) GTEST_SKIP() << "worker binary not built";
  const Cluster sim = Cluster::Build(d->partitioning);
  const SiteCallPolicy policy{.timeout_ms = 0.0, .max_retries = 3,
                              .backoff_ms = 100.0};
  const BatchRun expected = RunBatch(sim, d->graph, kQueryMix[1], policy);

  // The killed worker dies after computing its reply, while the other
  // three have theirs written or in flight.
  const BatchRun run = RunBatch(*d->remote, d->graph, kQueryMix[1], policy);
  ExpectSitesMatchSimulator(run, expected, {0, 1, 2, 3});
  for (uint32_t site = 0; site < 4; ++site) {
    if (site == kKilled) {
      EXPECT_GE(run.replies[site].retries, 1) << "site " << site;
    } else {
      EXPECT_EQ(run.replies[site].retries, 0) << "site " << site;
    }
  }
  EXPECT_GE(d->remote->supervisor().restarts(kKilled), 1);

  // The executor's answers over the healed fleet equal the simulator's.
  DistributedExecutor sim_exec(sim, d->graph, RemoteExecOptions());
  DistributedExecutor remote_exec(*d->remote, d->graph, RemoteExecOptions());
  for (const char* text : kQueryMix) {
    const QueryRequest request =
        QueryRequest::FromQuery(testutil::ParseQueryOrDie(text));
    Result<QueryResponse> sim_r = sim_exec.Execute(request);
    Result<QueryResponse> remote_r = remote_exec.Execute(request);
    ASSERT_TRUE(sim_r.ok() && remote_r.ok()) << text;
    EXPECT_EQ(remote_r->bindings.rows, sim_r->bindings.rows) << text;
  }
}

TEST(RemoteClusterTest, TornFrameInsideBatchFailsOnlyThatSite) {
  const uint32_t kProxied = 1;
  std::unique_ptr<net::ChaosProxy> proxy;
  std::unique_ptr<Deployment> d =
      MakeDeployment(4, [&proxy](RemoteCluster::Options* o) {
        const std::string listen = o->socket_dir + "/proxy_1.sock";
        const std::string target = o->socket_dir + "/site_1.sock";
        proxy = std::make_unique<net::ChaosProxy>(listen, target,
                                                  net::ChaosOptions{});
        ASSERT_TRUE(proxy->Start().ok());
        o->connect_path_override = {"", listen, "", ""};
        o->default_timeout_ms = 3000;
      });
  if (d == nullptr) GTEST_SKIP() << "worker binary not built";
  ASSERT_NE(proxy, nullptr);
  const Cluster sim = Cluster::Build(d->partitioning);
  const SiteCallPolicy policy{.timeout_ms = 0.0, .max_retries = 2,
                              .backoff_ms = 20.0};
  const BatchRun expected = RunBatch(sim, d->graph, kQueryMix[0], policy);

  // 1. One corrupted reply frame: checksum mismatch at site 1 only; its
  // retry reconnects past the one-shot fault.
  {
    net::ChaosOptions chaos;
    chaos.corrupt_reply_at = proxy->reply_bytes_forwarded() + 25;
    chaos.corrupt_mask = 0x5a;
    proxy->UpdateOptions(chaos);
    const BatchRun run = RunBatch(*d->remote, d->graph, kQueryMix[0], policy);
    ExpectSitesMatchSimulator(run, expected, {0, 1, 2, 3});
    for (uint32_t site = 0; site < 4; ++site) {
      EXPECT_EQ(run.replies[site].retries, site == kProxied ? 1 : 0)
          << "site " << site;
    }
  }

  // 2. A cut mid-frame that persists across reconnects: site 1 runs out
  // of attempts with a clean Unavailable; the other sites' replies were
  // read before its retries and stand.
  {
    net::ChaosOptions chaos;
    chaos.truncate_reply_after = proxy->reply_bytes_forwarded() + 9;
    proxy->UpdateOptions(chaos);
    const BatchRun run = RunBatch(*d->remote, d->graph, kQueryMix[0], policy);
    ExpectSitesMatchSimulator(run, expected, {0, 2, 3});
    EXPECT_EQ(run.statuses[kProxied].code(), StatusCode::kUnavailable)
        << run.statuses[kProxied].ToString();
    EXPECT_EQ(run.replies[kProxied].retries, policy.max_retries);
    for (uint32_t site : {0u, 2u, 3u}) {
      EXPECT_EQ(run.replies[site].retries, 0) << "site " << site;
    }
  }

  // Cleared, the site heals and the batch equals the simulator again.
  proxy->UpdateOptions(net::ChaosOptions{});
  const BatchRun run = RunBatch(*d->remote, d->graph, kQueryMix[0], policy);
  ExpectSitesMatchSimulator(run, expected, {0, 1, 2, 3});
  d.reset();  // stop the fleet before the proxy goes away
}

// --- Start refuses a partition directory that holds another
// partitioning before it writes a segment there or spawns a worker. ---

TEST(RemoteClusterTest, WorkersOnAnotherPartitioningAreRefused) {
  RemoteCluster::Options options;
  std::unique_ptr<Deployment> d = PrepareDeployment(4, &options);
  if (d == nullptr) GTEST_SKIP() << "worker binary not built";

  // The directory holds another partitioning of the same graph, same k:
  // VP, whose sites each hold only the properties hashed to them.
  partition::PartitionerOptions vp;
  vp.k = 4;
  const std::string other_dir = d->dir + "/other";
  ASSERT_TRUE(partition::PartitionIo::Save(
                  d->graph, partition::VpPartitioner(vp).Partition(d->graph),
                  other_dir)
                  .ok());

  options.partition_dir = other_dir;
  Result<std::unique_ptr<RemoteCluster>> remote =
      RemoteCluster::Start(d->partitioning, options);
  ASSERT_FALSE(remote.ok());
  EXPECT_EQ(remote.status().code(), StatusCode::kInvalidArgument)
      << remote.status().ToString();
  EXPECT_NE(remote.status().message().find("holds another partitioning"),
            std::string::npos)
      << remote.status().ToString();
  EXPECT_TRUE(SegmentFiles(other_dir).empty());

  // No worker of the refused fleet is running: no live process names
  // this deployment's directory in its argv.
  for (const auto& entry : std::filesystem::directory_iterator("/proc")) {
    const std::string pid = entry.path().filename().string();
    if (pid.find_first_not_of("0123456789") != std::string::npos) continue;
    std::ifstream in(entry.path() / "cmdline", std::ios::binary);
    const std::string cmdline((std::istreambuf_iterator<char>(in)),
                              std::istreambuf_iterator<char>());
    EXPECT_EQ(cmdline.find(d->dir), std::string::npos)
        << "worker pid " << pid << " outlived the refused Start";
  }
}

// --- The Hello's property-presence check still refuses a worker whose
// segment was replaced on disk behind the coordinator's back. ---

TEST(RemoteClusterTest, SegmentReplacedOnDiskIsRefusedAtHello) {
  std::unique_ptr<Deployment> d = MakeDeployment(4);
  if (d == nullptr) GTEST_SKIP() << "worker binary not built";
  const uint32_t kSite = 1;

  // A well-formed segment for site 1, stamped with the directory's
  // fingerprint, that lacks one of the site's properties.
  std::vector<rdf::Triple> triples =
      SiteTriples(d->partitioning.partition(kSite));
  ASSERT_FALSE(triples.empty());
  const rdf::PropertyId dropped = triples.front().property;
  std::erase_if(triples, [dropped](const rdf::Triple& t) {
    return t.property == dropped;
  });
  Result<uint64_t> fingerprint =
      partition::PartitionIo::Fingerprint(d->partition_dir);
  ASSERT_TRUE(fingerprint.ok());
  storage::SegmentWriterOptions writer;
  writer.site = kSite;
  writer.k = 4;
  writer.num_properties = d->partitioning.crossing_property_mask().size();
  writer.num_vertices = d->graph.num_vertices();
  writer.partition_fingerprint = *fingerprint;
  ASSERT_TRUE(storage::WriteSegment(
                  storage::SegmentPath(d->partition_dir, kSite),
                  std::move(triples), writer)
                  .ok());

  // The respawned worker loads the replacement and announces its row.
  ASSERT_TRUE(d->remote->supervisor().Kill(kSite).ok());
  AwaitReaped(*d->remote, kSite);
  const store::ResolvedQuery resolved = store::ResolveQuery(
      testutil::ParseQueryOrDie(kQueryMix[0]), d->graph);
  SiteEvalRequest request;
  const std::vector<size_t> patterns = {0};
  request.pattern_indices = patterns;
  SiteEvalReply reply;
  const Status st = d->remote->EvaluateOnSite(
      kSite, resolved, request,
      SiteCallPolicy{.timeout_ms = 0.0, .max_retries = 2, .backoff_ms = 100.0},
      &reply);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("property-presence row disagrees"),
            std::string::npos)
      << st.ToString();
}

// --- Several clients share one executor over one fleet, as a serving
// process does: the per-site connections are the only shared mutable
// state, and every answer must still equal the simulator's. ---

TEST(RemoteClusterTest, ConcurrentQueriesMatchSimulator) {
  std::unique_ptr<Deployment> d = MakeDeployment(4);
  if (d == nullptr) GTEST_SKIP() << "worker binary not built";

  Cluster sim = Cluster::Build(d->partitioning);
  DistributedExecutor sim_exec(sim, d->graph, RemoteExecOptions());
  std::vector<QueryRequest> requests;
  std::vector<BindingTable> expected;
  for (const char* text : kQueryMix) {
    requests.push_back(
        QueryRequest::FromQuery(testutil::ParseQueryOrDie(text)));
    Result<QueryResponse> sim_r = sim_exec.Execute(requests.back());
    ASSERT_TRUE(sim_r.ok()) << sim_r.status().ToString();
    expected.push_back(std::move(sim_r->bindings));
  }

  const DistributedExecutor remote_exec(*d->remote, d->graph,
                                        RemoteExecOptions());
  constexpr int kThreads = 4;
  constexpr int kRounds = 5;
  std::vector<std::vector<std::string>> errors(kThreads);
  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        // Each client walks the mix from its own offset, so different
        // queries are in flight at once.
        for (size_t n = 0; n < requests.size(); ++n) {
          const size_t q = (n + static_cast<size_t>(t)) % requests.size();
          Result<QueryResponse> r = remote_exec.Execute(requests[q]);
          if (!r.ok()) {
            errors[t].push_back(r.status().ToString());
          } else if (r->bindings.var_ids != expected[q].var_ids ||
                     r->bindings.rows != expected[q].rows) {
            errors[t].push_back(std::string("wrong answer: ") + kQueryMix[q]);
          }
        }
      }
    });
  }
  for (std::thread& client : clients) client.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_TRUE(errors[t].empty())
        << "client " << t << ": " << errors[t].size()
        << " failures, first: " << errors[t].front();
  }
}

// --- Acceptance: a traced query against the real fleet assembles ONE
// merged trace — coordinator and site-worker spans under a single trace
// id, with the workers' real pids and no orphan parent edges. ---

TEST(RemoteClusterTest, TracedQueryAssemblesOneMergedTraceAcrossProcesses) {
  std::unique_ptr<Deployment> d = MakeDeployment(4);
  if (d == nullptr) GTEST_SKIP() << "worker binary not built";

  obs::StartTracing();
  DistributedExecutor executor(*d->remote, d->graph, RemoteExecOptions());
  // The join query: decompose + per-site RPCs, so site.eval spans exist.
  sparql::QueryGraph query = testutil::ParseQueryOrDie(kQueryMix[2]);
  Result<QueryResponse> response =
      executor.Execute(QueryRequest::FromQuery(query));
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  const uint64_t trace_id = response->stats.trace_id;
  ASSERT_NE(trace_id, 0u);

  const std::vector<obs::TraceEvent> events = obs::ExtractTraceForId(trace_id);
  obs::StopTracing();
  ASSERT_FALSE(events.empty());

  std::set<std::string> names;
  std::set<uint32_t> pids;
  std::set<uint64_t> span_ids;
  for (const obs::TraceEvent& e : events) {
    EXPECT_EQ(e.trace_id, trace_id) << e.name;
    names.insert(e.name);
    pids.insert(e.pid);
    span_ids.insert(e.span_id);
  }
  // Coordinator-side call span and worker-side evaluation span both
  // landed in the same trace.
  EXPECT_EQ(names.count("exec.rpc.attempt"), 1u);
  EXPECT_EQ(names.count("site.eval"), 1u);
  // The coordinator's union and the reply's encode and decode are
  // spans of their own.
  EXPECT_EQ(names.count("exec.gather"), 1u);
  EXPECT_EQ(names.count("net.decode_reply"), 1u);
  EXPECT_EQ(names.count("net.encode_reply"), 1u);
  for (const obs::TraceEvent& e : events) {
    if (e.name == "net.encode_reply") {
      EXPECT_NE(e.pid, 0u);
    } else if (e.name == "net.decode_reply" || e.name == "exec.gather") {
      EXPECT_EQ(e.pid, 0u) << e.name;
    }
  }
  // pid 0 is this process; every worker stamped its real pid.
  EXPECT_GE(pids.size(), 2u) << "no remote spans were ingested";
  EXPECT_EQ(pids.count(0), 1u);
  for (const obs::TraceEvent& e : events) {
    if (e.parent_id == 0) continue;
    EXPECT_EQ(span_ids.count(e.parent_id), 1u)
        << "orphan parent edge under " << e.name;
  }
  // Remote spans parent into coordinator spans: each site.eval hangs off
  // a span recorded by pid 0.
  std::map<uint64_t, uint32_t> pid_of;
  for (const obs::TraceEvent& e : events) pid_of[e.span_id] = e.pid;
  for (const obs::TraceEvent& e : events) {
    if (e.name == "site.eval") {
      ASSERT_NE(e.parent_id, 0u);
      EXPECT_EQ(pid_of.at(e.parent_id), 0u);
    }
  }

  // The exported Chrome JSON passes the same invariants trace_check
  // enforces in merged mode.
  Result<obs::JsonValue> parsed =
      obs::ParseJson(obs::TraceEventsToChromeJson(events));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const obs::JsonValue* exported = parsed->Find("traceEvents");
  ASSERT_NE(exported, nullptr);
  EXPECT_EQ(exported->array.size(), events.size());
}

// --- Every site of a pipelined batch has its own attempt span, and the
// site's worker spans nest under it, inside the query's trace. ---

TEST(RemoteClusterTest, EverySiteOfATracedBatchNestsUnderTheQueryTrace) {
  std::unique_ptr<Deployment> d = MakeDeployment(4);
  if (d == nullptr) GTEST_SKIP() << "worker binary not built";

  obs::StartTracing();
  DistributedExecutor executor(*d->remote, d->graph, RemoteExecOptions());
  // The IEQ star: one subquery, one batch over every site holding p0.
  Result<QueryResponse> response = executor.Execute(
      QueryRequest::FromQuery(testutil::ParseQueryOrDie(kQueryMix[0])));
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  const uint64_t trace_id = response->stats.trace_id;
  const std::vector<obs::TraceEvent> events = obs::ExtractTraceForId(trace_id);
  obs::StopTracing();
  ASSERT_GE(response->stats.sites_evaluated, 2u);

  std::map<uint64_t, const obs::TraceEvent*> by_id;
  for (const obs::TraceEvent& e : events) by_id[e.span_id] = &e;
  auto site_of = [](const obs::TraceEvent& e) -> uint64_t {
    for (const obs::TraceAttr& a : e.attrs) {
      if (a.key == "site") return a.value.u;
    }
    return UINT64_MAX;
  };
  std::set<uint64_t> attempt_sites;
  std::set<uint64_t> evaluated_sites;
  std::set<uint32_t> worker_pids;
  for (const obs::TraceEvent& e : events) {
    EXPECT_EQ(e.trace_id, trace_id) << e.name;
    if (e.name == "exec.rpc.attempt") {
      EXPECT_TRUE(attempt_sites.insert(site_of(e)).second)
          << "two attempts at site " << site_of(e);
      // The attempt hangs off the query's span chain.
      const obs::TraceEvent* up = &e;
      while (up != nullptr && up->name != "exec.query") {
        up = by_id.count(up->parent_id) ? by_id.at(up->parent_id) : nullptr;
      }
      EXPECT_NE(up, nullptr) << "attempt outside the query's span chain";
    }
    if (e.name == "site.eval") {
      ASSERT_EQ(by_id.count(e.parent_id), 1u);
      const obs::TraceEvent& attempt = *by_id.at(e.parent_id);
      EXPECT_EQ(attempt.name, "exec.rpc.attempt");
      EXPECT_EQ(attempt.pid, 0u);
      EXPECT_NE(e.pid, 0u);
      evaluated_sites.insert(site_of(attempt));
      worker_pids.insert(e.pid);
    }
  }
  EXPECT_EQ(attempt_sites.size(), response->stats.sites_evaluated);
  EXPECT_EQ(evaluated_sites, attempt_sites);
  // One worker process per site answered.
  EXPECT_EQ(worker_pids.size(), attempt_sites.size());
}

}  // namespace
}  // namespace mpc::exec

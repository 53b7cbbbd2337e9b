#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "common/hash.h"
#include "common/timer.h"
#include "dynamic/incremental_maintainer.h"
#include "dynamic/update_log.h"
#include "exec/cluster.h"
#include "exec/decomposer.h"
#include "exec/remote_cluster.h"
#include "layers.h"
#include "mpc/mpc_partitioner.h"
#include "obs/trace.h"
#include "partition/partition_io.h"
#include "rdf/ntriples.h"
#include "serve/query_service.h"
#include "serve/serving_state.h"
#include "sparql/parser.h"
#include "stats.h"
#include "storage/segment_store.h"
#include "storage/segment_writer.h"
#include "store/bgp_matcher.h"
#include "store/triple_store.h"

namespace servebench {

namespace {

namespace dynamic = mpc::dynamic;
namespace exec = mpc::exec;
namespace obs = mpc::obs;
namespace rdf = mpc::rdf;
namespace serve = mpc::serve;
namespace store = mpc::store;
using Clock = std::chrono::steady_clock;
using mpc::Result;
using mpc::Status;

/// Set-ups per end-to-end run; setup_s is their median.
constexpr int kSetupRepetitions = 7;
/// Fewest whole passes over the query list in a timed window:
/// throughput takes the fastest pass, latency each distinct query's
/// fastest answer (see QueryMinimums).
constexpr size_t kMinPasses = 3;
/// lubm_live: a batch whose generation is checked against the oracle
/// every this many batches (plus the last one and the initial snapshot).
constexpr size_t kCheckEveryBatches = 20;
/// Traced run: samples the replay needs for exec.execute_ms_p99.
constexpr size_t kReplaySamples = 1000;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}
double MillisBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

/// Closed-loop client threads, at most nproc; the service gets as many
/// workers. lubm_live leaves one core to its writer, so that snapshot
/// capture is not starved by readers and update visibility stays a
/// measure of the write path rather than of scheduling. lubm_remote
/// runs 2: its 8 worker processes share the same cores, and with 4
/// clients the median query spent most of its 4.6 ms waiting for a core
/// (0.7 ms with 2).
int ClientCount(Workload workload) {
  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  const unsigned wanted = workload == Workload::kDbpediaLog ? 4u
                          : workload == Workload::kLubmLive ? 3u
                                                            : 2u;
  return static_cast<int>(std::min(wanted, cores));
}

/// One deployed system: the serving front-end and what feeds it.
struct Deployment {
  /// lubm_live only: the single writer's maintainer and the capture
  /// options holding the packed per-site segments.
  std::unique_ptr<dynamic::IncrementalMaintainer> maintainer;
  serve::ServingStateOptions state_options;
  /// The snapshot the service starts from (dropped on lubm_live once
  /// the writer takes over).
  std::shared_ptr<const serve::ServingState> initial;
  /// Declared last so it shuts down first.
  std::unique_ptr<serve::QueryService> service;

  size_t input_triples = 0;
  double stored_bytes = 0.0;
  double setup_seconds = 0.0;
  mpc::core::MpcRunStats partition_stats;
  /// lubm_remote only (owned by the serving state).
  const exec::RemoteCluster* remote = nullptr;
};

/// From the files on disk to the first answerable query: parse, MPC
/// partition, then the backend's own set-up, then the service.
Result<std::unique_ptr<Deployment>> Deploy(const RunOptions& options,
                                           const InputFiles& files) {
  auto d = std::make_unique<Deployment>();
  const Clock::time_point start = Clock::now();
  obs::TraceSpan setup_span("bench.setup");

  rdf::GraphBuilder builder;
  {
    obs::TraceSpan span("bench.rdf.parse");
    Status st = rdf::NTriplesParser::ParseFile(files.graph, &builder,
                                               /*num_threads=*/0);
    if (!st.ok()) return st;
  }
  rdf::RdfGraph graph = builder.Build();
  d->input_triples = graph.num_edges();

  mpc::partition::Partitioning partitioning;
  {
    obs::TraceSpan span("bench.mpc.partition");
    mpc::core::MpcOptions mpc_options;
    mpc_options.base.k = kSites;
    partitioning = mpc::core::MpcPartitioner(mpc_options)
                       .Partition(graph, &d->partition_stats);
  }

  serve::ServingStateOptions& state_options = d->state_options;
  switch (options.workload) {
    case Workload::kDbpediaLog: {
      exec::Cluster cluster;
      {
        obs::TraceSpan span("bench.store.build");
        cluster = exec::Cluster::Build(std::move(partitioning),
                                       state_options.build_threads);
      }
      d->stored_bytes = static_cast<double>(cluster.MemoryUsage());
      d->initial = serve::ServingState::WrapBackend(
          std::move(graph), std::make_unique<exec::Cluster>(std::move(cluster)),
          /*generation=*/0, state_options);
      break;
    }
    case Workload::kLubmLive: {
      const std::string dir = options.work_dir + "/segments";
      std::filesystem::create_directories(dir);
      {
        obs::TraceSpan span("bench.storage.pack");
        for (uint32_t i = 0; i < partitioning.k(); ++i) {
          const mpc::partition::Partition& p = partitioning.partition(i);
          std::vector<rdf::Triple> triples = p.internal_edges;
          triples.insert(triples.end(), p.crossing_edges.begin(),
                         p.crossing_edges.end());
          mpc::storage::SegmentWriterOptions writer;
          writer.site = i;
          writer.k = partitioning.k();
          writer.num_properties = graph.num_properties();
          writer.num_vertices = graph.num_vertices();
          mpc::storage::SegmentWriteStats stats;
          Status st = mpc::storage::WriteSegment(
              mpc::storage::SegmentPath(dir, i), std::move(triples), writer,
              &stats);
          if (!st.ok()) return st;
          d->stored_bytes += static_cast<double>(stats.file_bytes);
        }
      }
      {
        obs::TraceSpan span("bench.storage.open");
        for (uint32_t i = 0; i < partitioning.k(); ++i) {
          Result<mpc::storage::SegmentStore> segment =
              mpc::storage::SegmentStore::Open(
                  mpc::storage::SegmentPath(dir, i));
          if (!segment.ok()) return segment.status();
          state_options.base_sources.push_back(
              std::make_shared<const mpc::storage::SegmentStore>(
                  std::move(*segment)));
        }
      }
      dynamic::MaintainerOptions maintainer_options;
      maintainer_options.mpc.base.k = kSites;
      {
        obs::TraceSpan span("bench.dynamic.attach");
        d->maintainer = std::make_unique<dynamic::IncrementalMaintainer>(
            std::move(graph), std::move(partitioning), maintainer_options);
      }
      {
        obs::TraceSpan span("bench.dynamic.capture_initial");
        d->initial =
            serve::ServingState::Capture(*d->maintainer, state_options);
      }
      break;
    }
    case Workload::kLubmRemote: {
      const std::string partition_dir = options.work_dir + "/partition";
      {
        obs::TraceSpan span("bench.partition.save");
        Status st = mpc::partition::PartitionIo::Save(graph, partitioning,
                                                      partition_dir);
        if (!st.ok()) return st;
      }
      exec::RemoteCluster::Options remote_options;
      remote_options.worker_binary = options.mpc_binary;
      remote_options.graph_path = files.graph;
      remote_options.partition_dir = partition_dir;
      remote_options.socket_dir = options.work_dir + "/sockets";
      std::filesystem::create_directories(remote_options.socket_dir);
      Result<std::unique_ptr<exec::RemoteCluster>> remote =
          Status::Internal("not started");
      {
        obs::TraceSpan span("bench.net.start");
        remote = exec::RemoteCluster::Start(std::move(partitioning),
                                            remote_options);
      }
      if (!remote.ok()) return remote.status();
      d->remote = remote->get();
      d->stored_bytes = static_cast<double>((*remote)->MemoryUsage());
      d->initial = serve::ServingState::WrapBackend(
          std::move(graph), std::move(*remote), /*generation=*/0,
          state_options);
      break;
    }
  }

  serve::QueryServiceOptions service_options;
  service_options.num_workers = ClientCount(options.workload);
  service_options.result_cache_capacity = 0;
  {
    obs::TraceSpan span("bench.serve.start");
    d->service =
        std::make_unique<serve::QueryService>(d->initial, service_options);
  }
  d->setup_seconds = SecondsSince(start);
  return d;
}

using Rows = std::vector<std::vector<uint32_t>>;

uint64_t HashRows(const Rows& rows) {
  uint64_t h = mpc::HashU64(rows.size());
  for (const std::vector<uint32_t>& row : rows) {
    h = mpc::HashCombine(h, mpc::HashU64(row.size()));
    for (uint32_t v : row) h = mpc::HashCombine(h, mpc::HashU64(v));
  }
  return h;
}

/// What the oracle checks of an answer, without keeping its rows (a
/// copy of every answer would count in peak_rss_mb): the columns, the
/// row count, and hashes of the rows in the order served and sorted.
struct Fingerprint {
  std::vector<uint32_t> var_ids;
  size_t rows = 0;
  uint64_t served = 0;
  uint64_t sorted = 0;
};

Fingerprint TakeFingerprint(store::BindingTable table) {
  Fingerprint f;
  f.var_ids = std::move(table.var_ids);
  f.rows = table.rows.size();
  f.served = HashRows(table.rows);
  std::sort(table.rows.begin(), table.rows.end());
  f.sorted = HashRows(table.rows);
  return f;
}

/// Fingerprints the first answer to each query at each watched
/// generation, for the oracle check after the run, and checks every
/// later answer at that generation against it by row count.
class AnswerCollector {
 public:
  using Answers = std::vector<std::optional<Fingerprint>>;

  explicit AnswerCollector(size_t num_queries) : num_queries_(num_queries) {}

  void Watch(uint64_t generation) {
    std::lock_guard<std::mutex> lock(mu_);
    kept_.try_emplace(generation, num_queries_);
  }

  void Offer(size_t query, exec::QueryResponse& response) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = kept_.find(response.generation);
    if (it == kept_.end()) return;
    std::optional<Fingerprint>& slot = it->second[query];
    if (!slot.has_value()) {
      slot = TakeFingerprint(std::move(response.bindings));
    } else if (slot->rows != response.bindings.num_rows()) {
      ++inconsistent_;
    }
  }

  /// Only read after every client thread has joined.
  const Answers& kept(uint64_t generation) const {
    return kept_.at(generation);
  }
  uint64_t inconsistent() const { return inconsistent_; }

 private:
  const size_t num_queries_;
  std::mutex mu_;
  std::map<uint64_t, Answers> kept_;
  uint64_t inconsistent_ = 0;
};

/// True iff `expected` (rows in any order) is the answer `kept` saw.
bool SameAnswer(store::BindingTable expected,
                const std::optional<Fingerprint>& kept) {
  if (!kept.has_value()) return false;
  const Fingerprint f = TakeFingerprint(std::move(expected));
  return f.var_ids == kept->var_ids && f.sorted == kept->sorted;
}

/// One window's samples, indexed by claim: entry p * list_size + i is
/// position i of the query list in pass p, NaN where that query failed.
struct WindowResult {
  size_t list_size = 0;
  std::vector<double> latency_ms;
  std::vector<double> queue_wait_ms;
  std::vector<double> service_ms;
  /// When each whole pass's last query completed, since the window
  /// started.
  std::vector<double> pass_end_seconds;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t plan_cache_hits = 0;
  double wall_seconds = 0.0;

  uint64_t answered() const { return attempted - failed; }
  double qps() const {
    return static_cast<double>(answered()) / wall_seconds;
  }
  /// The fastest whole pass's queries per second. Every pass replays
  /// the same list, so the passes differ only in how much the machine's
  /// other tenants slowed them down.
  double FastestPassQps() const {
    std::vector<double> rates;
    double previous = 0.0;
    for (double end : pass_end_seconds) {
      end = std::max(end, previous);
      rates.push_back(static_cast<double>(list_size) / (end - previous));
      previous = end;
    }
    return rates.empty() ? 0.0
                         : *std::max_element(rates.begin(), rates.end());
  }
};

/// The answered samples of `samples` (the NaNs left out).
std::vector<double> Answered(const std::vector<double>& samples) {
  std::vector<double> out;
  for (double v : samples) {
    if (!std::isnan(v)) out.push_back(v);
  }
  return out;
}

/// Closed-loop replay of the query list through the service by
/// `clients` threads. The window runs whole passes over the list until
/// `seconds` have passed, at least `min_passes` were made, and
/// `writer_running` (when given) has dropped; seconds = 0 with
/// min_passes = 1 is exactly one pass. Latency runs from Submit to the
/// future resolving. `distinct_of` maps a list position to its distinct
/// query, the index `answers` keeps answers by.
WindowResult RunWindow(serve::QueryService& service, int clients,
                       const std::vector<std::string>& queries,
                       const std::vector<size_t>& distinct_of,
                       double seconds, size_t min_passes,
                       const std::atomic<bool>* writer_running,
                       AnswerCollector* answers, bool client_spans) {
  const size_t n = queries.size();
  std::mutex claim_mu;
  size_t next = 0;
  bool stopped = false;
  const Clock::time_point start = Clock::now();
  auto claim = [&](size_t* index) {
    std::lock_guard<std::mutex> lock(claim_mu);
    if (stopped) return false;
    if (next > 0 && next % n == 0 && next / n >= min_passes &&
        SecondsSince(start) >= seconds &&
        (writer_running == nullptr || !writer_running->load())) {
      stopped = true;
      return false;
    }
    *index = next++;
    return true;
  };

  struct Sample {
    size_t index = 0;
    double done_seconds = 0.0;
    double latency_ms = 0.0;
    double queue_wait_ms = 0.0;
  };
  struct ClientResult {
    std::vector<Sample> samples;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    uint64_t plan_cache_hits = 0;
  };
  std::vector<ClientResult> per_client(static_cast<size_t>(clients));
  std::mutex error_mu;
  bool error_reported = false;
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      ClientResult& r = per_client[static_cast<size_t>(c)];
      size_t index = 0;
      while (claim(&index)) {
        ++r.attempted;
        std::optional<obs::TraceSpan> span;
        if (client_spans) span.emplace("bench.serve.query");
        const Clock::time_point submitted = Clock::now();
        Result<exec::QueryResponse> response =
            service.Submit(exec::QueryRequest::FromText(queries[index % n]))
                .get();
        const double latency = MillisBetween(submitted, Clock::now());
        span.reset();
        if (!response.ok()) {
          ++r.failed;
          std::lock_guard<std::mutex> lock(error_mu);
          if (!error_reported) {
            error_reported = true;
            std::cerr << "query failed: " << response.status().ToString()
                      << "\n";
          }
          continue;
        }
        r.samples.push_back({index, SecondsSince(start), latency,
                             response->stats.queue_wait_millis});
        r.plan_cache_hits += response->stats.plan_cache_hit ? 1 : 0;
        if (answers != nullptr) {
          answers->Offer(distinct_of[index % n], *response);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  WindowResult total;
  total.wall_seconds = SecondsSince(start);
  total.list_size = n;
  const double nan = std::nan("");
  total.latency_ms.assign(next, nan);
  total.queue_wait_ms.assign(next, nan);
  total.service_ms.assign(next, nan);
  total.pass_end_seconds.assign(next / n, 0.0);
  for (const ClientResult& r : per_client) {
    for (const Sample& s : r.samples) {
      total.latency_ms[s.index] = s.latency_ms;
      total.queue_wait_ms[s.index] = s.queue_wait_ms;
      total.service_ms[s.index] = s.latency_ms - s.queue_wait_ms;
      double& pass_end = total.pass_end_seconds[s.index / n];
      pass_end = std::max(pass_end, s.done_seconds);
    }
    total.attempted += r.attempted;
    total.failed += r.failed;
    total.plan_cache_hits += r.plan_cache_hits;
  }
  return total;
}

/// lubm_live's single writer: applies update batches on a fixed
/// schedule (an open loop), capturing and publishing a snapshot after
/// each, as `mpc serve --updates` does without a journal.
class Writer {
 public:
  /// A published generation whose answers the oracle checks.
  struct Checkpoint {
    uint64_t generation = 0;
    size_t batches_applied = 0;
    /// Repartitions before it: snapshots of one epoch share an id space.
    size_t epoch = 0;
  };

  Writer(Deployment* d, std::vector<dynamic::UpdateBatch> batches,
         double interval_ms, AnswerCollector* answers)
      : d_(d),
        batches_(std::move(batches)),
        interval_ms_(interval_ms),
        answers_(answers),
        published_(d->initial) {
    checkpoints_.push_back({published_->generation(), 0, 0});
    answers_->Watch(published_->generation());
  }
  ~Writer() {
    if (thread_.joinable()) thread_.join();
  }
  Writer(const Writer&) = delete;
  Writer& operator=(const Writer&) = delete;

  /// Starts applying the batches due within the next `window_seconds`
  /// on a thread; running() drops when the last one is published.
  void Start(double window_seconds) {
    const size_t due = std::min(
        batches_.size() - next_,
        static_cast<size_t>(
            std::ceil(window_seconds * 1000.0 / interval_ms_ - 1e-9)));
    running_.store(due > 0);
    thread_ = std::thread([this, due] { Loop(due); });
  }
  void Join() { thread_.join(); }
  const std::atomic<bool>* running() const { return &running_; }

  size_t applied() const { return next_; }
  uint64_t failed() const { return failed_; }
  size_t repartitions() const { return repartitions_; }
  size_t migrations() const { return migrations_; }
  const std::vector<double>& visible_ms() const { return visible_ms_; }
  double max_late_ms() const { return max_late_ms_; }
  const std::vector<dynamic::UpdateBatch>& batches() const {
    return batches_;
  }
  const std::vector<Checkpoint>& checkpoints() const { return checkpoints_; }
  /// A snapshot whose dictionaries name every id any snapshot of
  /// `epoch` handed out (dictionaries only grow between repartitions):
  /// the last one published before the epoch ended.
  const serve::ServingState& NamesFor(size_t epoch) const {
    return epoch < epoch_ends_.size() ? *epoch_ends_[epoch] : *published_;
  }

 private:
  void Loop(size_t due) {
    const Clock::time_point t0 = Clock::now();
    for (size_t j = 0; j < due; ++j, ++next_) {
      const Clock::time_point scheduled =
          t0 + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double, std::milli>(
                       static_cast<double>(j) * interval_ms_));
      std::this_thread::sleep_until(scheduled);
      max_late_ms_ =
          std::max(max_late_ms_, MillisBetween(scheduled, Clock::now()));
      obs::TraceSpan batch_span("bench.dynamic.batch");
      dynamic::ApplyResult result;
      {
        obs::TraceSpan span("bench.dynamic.apply");
        result = d_->maintainer->ApplyBatch(batches_[next_]);
      }
      if (!result.durability.ok()) ++failed_;
      if (result.repartitioned) {
        ++repartitions_;
        epoch_ends_.push_back(published_);
      }
      migrations_ += result.migrated;
      std::shared_ptr<const serve::ServingState> next;
      {
        obs::TraceSpan span("bench.dynamic.capture");
        next = serve::ServingState::Capture(*d_->maintainer,
                                            d_->state_options);
      }
      const size_t applied = next_ + 1;
      if (applied % kCheckEveryBatches == 0 || j + 1 == due) {
        answers_->Watch(next->generation());
        checkpoints_.push_back(
            {next->generation(), applied, epoch_ends_.size()});
      }
      published_ = next;
      {
        obs::TraceSpan span("bench.serve.publish");
        d_->service->Publish(std::move(next));
      }
      visible_ms_.push_back(MillisBetween(scheduled, Clock::now()));
    }
    running_.store(false);
  }

  Deployment* d_;
  const std::vector<dynamic::UpdateBatch> batches_;
  const double interval_ms_;
  AnswerCollector* answers_;
  std::atomic<bool> running_{false};
  size_t next_ = 0;
  uint64_t failed_ = 0;
  size_t repartitions_ = 0;
  size_t migrations_ = 0;
  double max_late_ms_ = 0.0;
  std::vector<double> visible_ms_;
  std::vector<Checkpoint> checkpoints_;
  /// The last snapshot published before each repartition, and the last
  /// one published so far (which the service is also serving).
  std::vector<std::shared_ptr<const serve::ServingState>> epoch_ends_;
  std::shared_ptr<const serve::ServingState> published_;
  /// Declared last: joined (by Join or the destructor) before the
  /// members it uses go away.
  std::thread thread_;
};

// ---------------------------------------------------------------------
// Oracles.

/// The single-TripleStore answer to `text` over `graph`.
Result<store::BindingTable> OracleAnswer(const store::TripleStore& oracle,
                                         const rdf::RdfGraph& graph,
                                         const std::string& text) {
  Result<mpc::sparql::QueryGraph> parsed =
      mpc::sparql::SparqlParser::Parse(text);
  if (!parsed.ok()) return parsed.status();
  store::BindingTable table = store::BgpMatcher::EvaluateAll(
      oracle, store::ResolveQuery(*parsed, graph));
  table.Deduplicate();
  return table;
}

/// Static snapshots: every kept answer against a single TripleStore over
/// the whole graph (ids agree: one parse of one file). Returns the
/// number of mismatching or missing answers.
Result<uint64_t> CheckStatic(const serve::ServingState& state,
                             const std::vector<std::string>& queries,
                             const AnswerCollector& answers) {
  const store::TripleStore oracle(state.graph().triples());
  const AnswerCollector::Answers& kept = answers.kept(state.generation());
  uint64_t mismatches = answers.inconsistent();
  for (size_t q = 0; q < queries.size(); ++q) {
    Result<store::BindingTable> expected =
        OracleAnswer(oracle, state.graph(), queries[q]);
    if (!expected.ok()) return expected.status();
    if (!SameAnswer(std::move(*expected), kept[q])) {
      std::cerr << "oracle mismatch on query " << q << ": " << queries[q]
                << "\n";
      ++mismatches;
    }
  }
  return mismatches;
}

/// lubm_remote: the worker fleet's answers must equal the in-process
/// Cluster's over the same partitioning bit for bit (row order too).
Result<uint64_t> CheckRemoteAgainstCluster(
    const serve::ServingState& state, const exec::Cluster& reference,
    const std::vector<std::string>& queries, const AnswerCollector& answers) {
  const exec::DistributedExecutor executor(reference, state.graph());
  const AnswerCollector::Answers& kept = answers.kept(state.generation());
  uint64_t mismatches = 0;
  for (size_t q = 0; q < queries.size(); ++q) {
    Result<exec::QueryResponse> local =
        executor.Execute(exec::QueryRequest::FromText(queries[q]));
    if (!local.ok()) return local.status();
    const Fingerprint f = TakeFingerprint(std::move(local->bindings));
    if (!kept[q].has_value() || f.var_ids != kept[q]->var_ids ||
        f.served != kept[q]->served) {
      std::cerr << "remote answer differs from the in-process cluster on "
                   "query "
                << q << "\n";
      ++mismatches;
    }
  }
  return mismatches;
}

struct LexTriple {
  std::string s, p, o;
  bool operator==(const LexTriple&) const = default;
};
struct LexTripleHash {
  size_t operator()(const LexTriple& t) const {
    return mpc::HashCombine(
        mpc::HashCombine(mpc::HashString(t.s), mpc::HashString(t.p)),
        mpc::HashString(t.o));
  }
};
/// `table` (ids of `from`) re-encoded with the ids `to` gives the same
/// terms; a term `to` does not know becomes kInvalidVertex, which no
/// served answer contains.
store::BindingTable Reencode(store::BindingTable table,
                             const rdf::RdfGraph& from, const rdf::RdfGraph& to,
                             const std::set<uint32_t>& predicate_vars) {
  for (std::vector<uint32_t>& row : table.rows) {
    for (size_t c = 0; c < row.size(); ++c) {
      row[c] = predicate_vars.count(table.var_ids[c]) != 0
                   ? to.property_dict().Lookup(from.PropertyName(row[c]))
                   : to.vertex_dict().Lookup(from.VertexName(row[c]));
    }
  }
  return table;
}

/// lubm_live: replays the update log onto a lexical copy of the graph
/// file, independent of the maintainer, and at every watched generation
/// compares each kept answer with a single TripleStore built over that
/// generation's live triples (re-encoded into the served id space).
Result<uint64_t> CheckLive(const InputFiles& files,
                           const std::vector<std::string>& queries,
                           const Writer& writer,
                           const AnswerCollector& answers) {
  rdf::GraphBuilder base_builder;
  Status st = rdf::NTriplesParser::ParseFile(files.graph, &base_builder);
  if (!st.ok()) return st;
  const rdf::RdfGraph base = base_builder.Build();
  std::unordered_set<LexTriple, LexTripleHash> live;
  for (const rdf::Triple& t : base.triples()) {
    live.insert({base.VertexName(t.subject), base.PropertyName(t.property),
                 base.VertexName(t.object)});
  }
  std::vector<mpc::sparql::QueryGraph> parsed;
  for (const std::string& text : queries) {
    Result<mpc::sparql::QueryGraph> q = mpc::sparql::SparqlParser::Parse(text);
    if (!q.ok()) return q.status();
    parsed.push_back(std::move(*q));
  }

  uint64_t mismatches = answers.inconsistent();
  size_t applied = 0;
  for (const Writer::Checkpoint& checkpoint : writer.checkpoints()) {
    const uint64_t generation = checkpoint.generation;
    for (; applied < checkpoint.batches_applied; ++applied) {
      for (const dynamic::TripleUpdate& u : writer.batches()[applied].updates) {
        LexTriple t{u.subject, u.property, u.object};
        if (u.kind == dynamic::UpdateKind::kInsert) {
          live.insert(std::move(t));
        } else {
          live.erase(t);
        }
      }
    }
    rdf::GraphBuilder builder;
    for (const LexTriple& t : live) builder.Add(t.s, t.p, t.o);
    const rdf::RdfGraph graph = builder.Build();
    const store::TripleStore oracle(graph.triples());
    const rdf::RdfGraph& served = writer.NamesFor(checkpoint.epoch).graph();
    const AnswerCollector::Answers& kept = answers.kept(generation);
    for (size_t q = 0; q < queries.size(); ++q) {
      if (!kept[q].has_value()) continue;  // not asked at this generation
      std::set<uint32_t> predicate_vars;
      const store::ResolvedQuery resolved =
          store::ResolveQuery(parsed[q], graph);
      for (const store::ResolvedPattern& p : resolved.patterns) {
        if (p.p_is_var) predicate_vars.insert(p.p);
      }
      store::BindingTable expected =
          store::BgpMatcher::EvaluateAll(oracle, resolved);
      expected.Deduplicate();
      if (!SameAnswer(Reencode(std::move(expected), graph, served,
                               predicate_vars),
                      kept[q])) {
        std::cerr << "oracle mismatch on query " << q << " at generation "
                  << generation << " (" << checkpoint.batches_applied
                  << " batches)\n";
        ++mismatches;
      }
    }
  }
  // Every query must have been checked at least once: the warm-up pass
  // runs each one at the initial generation.
  for (const std::optional<Fingerprint>& answer :
       answers.kept(writer.checkpoints().front().generation)) {
    if (!answer.has_value()) ++mismatches;
  }
  return mismatches;
}

// ---------------------------------------------------------------------
// Metrics.

/// The distinct queries of `queries` in first-seen order; `distinct_of`
/// gets each list position's index among them.
std::vector<std::string> Distinct(const std::vector<std::string>& queries,
                                  std::vector<size_t>* distinct_of) {
  std::vector<std::string> distinct;
  std::unordered_map<std::string, size_t> index;
  for (const std::string& q : queries) {
    auto [it, inserted] = index.try_emplace(q, distinct.size());
    if (inserted) distinct.push_back(q);
    distinct_of->push_back(it->second);
  }
  return distinct;
}

Result<double> IeqPercent(const serve::ServingState& state,
                          const std::vector<std::string>& distinct) {
  size_t ieq = 0;
  for (const std::string& text : distinct) {
    Result<mpc::sparql::QueryGraph> q = mpc::sparql::SparqlParser::Parse(text);
    if (!q.ok()) return q.status();
    ieq += exec::PlanQuery(*q, state.cluster().partitioning(), state.graph())
                   .classification.independently_executable()
               ? 1
               : 0;
  }
  return 100.0 * static_cast<double>(ieq) /
         static_cast<double>(distinct.size());
}

/// Peak resident set of this process plus, on lubm_remote, of every
/// worker still running.
double PeakRssMib(const Deployment& d) {
  uint64_t kib = PeakRssKib("self");
  if (d.remote != nullptr) {
    for (uint32_t i = 0; i < d.remote->k(); ++i) {
      kib += PeakRssKib(std::to_string(d.remote->supervisor().pid(i)));
    }
  }
  return static_cast<double>(kib) / 1024.0;
}

double SegmentBlocksPrunedPercent(const Deployment& d) {
  uint64_t pruned = 0;
  uint64_t decoded = 0;
  for (const auto& source : d.state_options.base_sources) {
    const auto* segment =
        dynamic_cast<const mpc::storage::SegmentStore*>(source.get());
    if (segment == nullptr) continue;
    pruned += segment->blocks_pruned();
    decoded += segment->blocks_decoded();
  }
  return pruned + decoded == 0 ? 0.0
                               : 100.0 * static_cast<double>(pruned) /
                                     static_cast<double>(pruned + decoded);
}

/// Everything after the timed window: correctness checks against the
/// oracles. Adds the mismatches to report->failed.
Status CheckAnswers(const RunOptions& options, const InputFiles& files,
                    const Deployment& d,
                    const std::vector<std::string>& queries,
                    const AnswerCollector& answers, const Writer* writer,
                    const exec::Cluster* reference, RunReport* report) {
  Result<uint64_t> mismatches =
      options.workload == Workload::kLubmLive
          ? CheckLive(files, queries, *writer, answers)
          : CheckStatic(*d.initial, queries, answers);
  if (!mismatches.ok()) return mismatches.status();
  uint64_t total = *mismatches;
  if (reference != nullptr) {
    Result<uint64_t> remote =
        CheckRemoteAgainstCluster(*d.initial, *reference, queries, answers);
    if (!remote.ok()) return remote.status();
    total += *remote;
  }
  report->failed += total;
  if (total != 0) report->correct = false;
  return Status::Ok();
}

void AddMetric(RunReport* report, std::string name, double value,
               std::string unit) {
  report->metrics.push_back(Metric{std::move(name), value, std::move(unit)});
}

Result<std::vector<dynamic::UpdateBatch>> LoadUpdates(const InputFiles& files) {
  if (files.updates.empty()) return std::vector<dynamic::UpdateBatch>();
  return dynamic::UpdateLog::LoadFile(files.updates);
}

}  // namespace

Result<RunReport> RunWorkload(const RunOptions& options) {
  const std::string input_dir = options.work_dir + "/inputs";
  Status st = GenerateInputs(options.workload, options.seed, input_dir);
  if (!st.ok()) return st;
  const InputFiles files = InputPaths(options.workload, input_dir);
  Result<std::vector<std::string>> queries = LoadQueries(files.queries);
  if (!queries.ok()) return queries.status();
  Result<std::vector<dynamic::UpdateBatch>> updates = LoadUpdates(files);
  if (!updates.ok()) return updates.status();
  std::vector<size_t> distinct_of;
  const std::vector<std::string> distinct = Distinct(*queries, &distinct_of);

  // Declared before the deployment so it runs after the worker fleet
  // has stopped: no socket file outlives the run, even a failed one.
  struct RemoveOnExit {
    std::string path;
    ~RemoveOnExit() {
      std::error_code ec;
      std::filesystem::remove_all(path, ec);
    }
  } sockets{options.work_dir + "/sockets"};

  RunReport report;
  // --- Set-up. The end-to-end run sets up several times and keeps the
  // last deployment; the traced run sets up once, traced.
  std::vector<double> setup_seconds;
  std::unique_ptr<Deployment> d;
  std::vector<obs::TraceEvent> setup_events;
  const int repetitions = options.trace ? 1 : kSetupRepetitions;
  for (int i = 0; i < repetitions; ++i) {
    d.reset();
    if (options.trace) obs::StartTracing();
    Result<std::unique_ptr<Deployment>> deployed = Deploy(options, files);
    if (options.trace) {
      obs::StopTracing();
      setup_events = obs::CollectTrace();
    }
    if (!deployed.ok()) return deployed.status();
    d = std::move(*deployed);
    setup_seconds.push_back(d->setup_seconds);
  }

  AnswerCollector answers(distinct.size());
  answers.Watch(d->initial->generation());
  std::unique_ptr<Writer> writer;
  if (options.workload == Workload::kLubmLive) {
    // The whole log spreads evenly over the timed window.
    const double interval_ms =
        options.seconds * 1000.0 / static_cast<double>(updates->size());
    writer = std::make_unique<Writer>(d.get(), std::move(*updates),
                                      interval_ms, &answers);
    // Old snapshots must be able to go: the writer keeps what it needs.
    d->initial.reset();
  }
  const int clients = ClientCount(options.workload);
  // A timed window (with the writer alongside on lubm_live).
  auto window = [&](double seconds, size_t min_passes, bool client_spans) {
    if (writer != nullptr) writer->Start(seconds);
    WindowResult r =
        RunWindow(*d->service, clients, *queries, distinct_of, seconds,
                  min_passes, writer != nullptr ? writer->running() : nullptr,
                  &answers, client_spans);
    if (writer != nullptr) writer->Join();
    report.attempted += r.attempted;
    report.failed += r.failed;
    if (r.failed != 0) report.correct = false;
    return r;
  };

  // Warm-up: one untimed pass, which also asks every query once at the
  // initial generation for the oracle check.
  {
    WindowResult warm = RunWindow(*d->service, clients, *queries,
                                  distinct_of, 0.0, 1, nullptr, &answers,
                                  false);
    report.attempted += warm.attempted;
    report.failed += warm.failed;
    if (warm.failed != 0) report.correct = false;
  }

  std::unique_ptr<exec::Cluster> reference;
  auto build_reference = [&] {
    if (d->remote != nullptr) {
      reference = std::make_unique<exec::Cluster>(
          exec::Cluster::Build(d->initial->cluster().partitioning()));
    }
  };

  if (!options.trace) {
    WindowResult r = window(options.seconds, kMinPasses, false);
    const double rss_mib = PeakRssMib(*d);
    if (writer != nullptr) {
      report.attempted += writer->applied();
      report.failed += writer->failed();
      if (writer->failed() != 0) report.correct = false;
    }
    build_reference();
    st = CheckAnswers(options, files, *d, distinct, answers, writer.get(),
                      reference.get(), &report);
    if (!st.ok()) return st;

    const std::vector<double> per_query =
        QueryMinimums(r.latency_ms, distinct_of);
    Result<double> p50 = Percentile(per_query, 50, "query_p50_ms");
    Result<double> p99 = Percentile(per_query, 99, "query_p99_ms");
    if (!p50.ok()) return p50.status();
    if (!p99.ok()) return p99.status();
    const std::shared_ptr<const serve::ServingState> final_state =
        d->service->state();
    Result<double> ieq = IeqPercent(*final_state, distinct);
    if (!ieq.ok()) return ieq.status();
    AddMetric(&report, "setup_s", Median(setup_seconds), "s");
    AddMetric(&report, "query_p50_ms", *p50, "ms");
    AddMetric(&report, "query_p99_ms", *p99, "ms");
    AddMetric(&report, "qps", r.FastestPassQps(), "1/s");
    AddMetric(&report, "answered_pct",
              100.0 * static_cast<double>(report.attempted - report.failed) /
                  static_cast<double>(std::max<uint64_t>(report.attempted, 1)),
              "%");
    AddMetric(&report, "peak_rss_mb", rss_mib, "MiB");
    AddMetric(&report, "stored_bytes_per_triple",
              d->stored_bytes / static_cast<double>(d->input_triples), "B");
    AddMetric(&report, "l_cross",
              static_cast<double>(final_state->cluster()
                                      .partitioning()
                                      .num_crossing_properties()),
              "count");
    AddMetric(&report, "ieq_pct", *ieq, "%");
    std::cout << "queries: " << r.answered() << " timed in "
              << r.pass_end_seconds.size() << " passes, " << r.wall_seconds
              << " s\n";
    if (writer != nullptr) {
      std::cout << "writer: " << writer->applied() << " batches, "
                << writer->repartitions() << " repartitions, "
                << writer->migrations() << " migrations, at most "
                << writer->max_late_ms() << " ms late; update visible p50 "
                << Quantile(writer->visible_ms(), 0.5) << " ms, p90 "
                << Quantile(writer->visible_ms(), 0.9) << " ms\n";
    }
    return report;
  }

  // --- Traced run. An untraced window and a traced one of equal length
  // give trace.overhead_pct; the traced window gives the serve and
  // dynamic layers; the replay gives the executor's layers.
  const double traced_seconds = options.seconds / 4.0;
  WindowResult untraced = window(traced_seconds, 1, false);
  obs::StartTracing();
  WindowResult traced = window(traced_seconds, 1, true);
  obs::StopTracing();
  SpanTable spans;
  spans.Add(setup_events);
  spans.Add(obs::CollectTrace());

  build_reference();
  const size_t rounds =
      (kReplaySamples + distinct.size() - 1) / distinct.size();
  obs::StartTracing();
  const std::shared_ptr<const serve::ServingState> served =
      d->service->state();
  ReplayTarget target;
  target.state = served.get();
  target.remote = d->remote;
  target.reference = reference.get();
  std::vector<Metric> replay_metrics;
  Result<ReplayOutcome> replay =
      ReplayQueries(target, distinct, rounds, &replay_metrics);
  obs::StopTracing();
  if (!replay.ok()) return replay.status();
  spans.Add(obs::CollectTrace());
  report.attempted += replay->queries;
  report.failed += replay->mismatches;
  if (replay->mismatches != 0) report.correct = false;
  if (writer != nullptr) {
    report.attempted += writer->applied();
    report.failed += writer->failed();
    if (writer->failed() != 0) report.correct = false;
  }
  st = CheckAnswers(options, files, *d, distinct, answers, writer.get(),
                    reference.get(), &report);
  if (!st.ok()) return st;

  const std::string trace_path = options.work_dir + "/trace.json";
  st = mpc::Status::Ok();
  {
    std::ofstream out(trace_path);
    out << obs::TraceEventsToChromeJson(spans.events());
    if (!out) st = Status::IoError("cannot write " + trace_path);
  }
  if (!st.ok()) return st;
  std::cout << "trace: " << spans.events().size() << " benchmark spans in "
            << trace_path << "\n";

  st = AddSpanMetrics(spans, &report.metrics);
  if (!st.ok()) return st;
  for (Metric& m : replay_metrics) report.metrics.push_back(std::move(m));
  const mpc::core::MpcRunStats& ps = d->partition_stats;
  AddMetric(&report, "mpc.selection_ms", ps.StageMillis("selection"), "ms");
  AddMetric(&report, "mpc.coarsening_ms", ps.StageMillis("coarsening"), "ms");
  AddMetric(&report, "mpc.metis_ms", ps.StageMillis("metis"), "ms");
  AddMetric(&report, "mpc.materialize_ms", ps.StageMillis("materialize"),
            "ms");
  AddMetric(&report, "storage.blocks_pruned_pct",
            SegmentBlocksPrunedPercent(*d), "%");
  const std::vector<double> waits = Answered(traced.queue_wait_ms);
  Result<double> wait50 = Percentile(waits, 50, "serve.queue_wait_ms_p50");
  Result<double> wait99 = Percentile(waits, 99, "serve.queue_wait_ms_p99");
  Result<double> service50 = Percentile(Answered(traced.service_ms), 50,
                                        "serve.service_ms_p50");
  for (const Result<double>* r : {&wait50, &wait99, &service50}) {
    if (!r->ok()) return r->status();
  }
  AddMetric(&report, "serve.queue_wait_ms_p50", *wait50, "ms");
  AddMetric(&report, "serve.queue_wait_ms_p99", *wait99, "ms");
  AddMetric(&report, "serve.service_ms_p50", *service50, "ms");
  AddMetric(&report, "serve.plan_cache_hit_pct",
            100.0 * static_cast<double>(traced.plan_cache_hits) /
                static_cast<double>(std::max<uint64_t>(traced.answered(), 1)),
            "%");
  const bool live = writer != nullptr;
  AddMetric(&report, "dynamic.repartitions",
            live ? static_cast<double>(writer->repartitions()) : 0.0, "count");
  AddMetric(&report, "dynamic.migrations",
            live ? static_cast<double>(writer->migrations()) : 0.0, "count");
  AddMetric(&report, "dynamic.writer_late_ms",
            live ? writer->max_late_ms() : 0.0, "ms");
  // The traced run's two windows apply half the update log, too few
  // batches for Percentile's tail rule; these figures carry no bound.
  AddMetric(&report, "dynamic.update_visible_ms_p50",
            live ? Quantile(writer->visible_ms(), 0.5) : 0.0, "ms");
  AddMetric(&report, "dynamic.update_visible_ms_p90",
            live ? Quantile(writer->visible_ms(), 0.9) : 0.0, "ms");
  AddMetric(&report, "trace.overhead_pct",
            100.0 * (untraced.qps() / traced.qps() - 1.0), "%");
  return report;
}

}  // namespace servebench

#include "serve/query_service.h"

#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/status.h"
#include "dynamic/incremental_maintainer.h"
#include "exec/query_api.h"
#include "gtest/gtest.h"
#include "obs/json.h"
#include "obs/trace.h"
#include "partition/subject_hash_partitioner.h"
#include "serve/admin.h"
#include "serve/lru_cache.h"
#include "serve/serving_state.h"
#include "test_util.h"

namespace mpc::serve {
namespace {

using testutil::BuildGraph;
using testutil::GroundTruth;
using testutil::T;

rdf::RdfGraph SmallGraph() {
  return BuildGraph({
      {"a", "knows", "b"},
      {"b", "knows", "c"},
      {"c", "knows", "a"},
      {"a", "likes", "d"},
      {"d", "likes", "e"},
      {"e", "worksAt", "f"},
      {"f", "worksAt", "g"},
      {"g", "knows", "h"},
      {"h", "likes", "a"},
      {"b", "worksAt", "f"},
      {"c", "likes", "e"},
      {"d", "knows", "g"},
  });
}

partition::Partitioning Hash2(const rdf::RdfGraph& graph) {
  partition::PartitionerOptions options;
  options.k = 2;
  return partition::SubjectHashPartitioner(options).Partition(graph);
}

std::shared_ptr<const ServingState> SmallState() {
  rdf::RdfGraph graph = SmallGraph();
  partition::Partitioning partitioning = Hash2(graph);
  return ServingState::Build(std::move(graph), std::move(partitioning));
}

/// Rows as lexical forms so answers can be compared across snapshots
/// whose dense ids differ.
std::set<std::vector<std::string>> LexRows(const store::BindingTable& table,
                                           const rdf::RdfGraph& graph) {
  std::set<std::vector<std::string>> rows;
  for (const auto& row : table.rows) {
    std::vector<std::string> lex;
    lex.reserve(row.size());
    for (uint32_t id : row) lex.emplace_back(graph.VertexName(id));
    rows.insert(std::move(lex));
  }
  return rows;
}

/// A gate the pre_execute_hook blocks on, so tests can hold worker
/// threads at a known point and saturate the admission queue.
class Gate {
 public:
  void Open() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      open_ = true;
    }
    cv_.notify_all();
  }
  void Wait() {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [this] { return open_; });
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool open_ = false;
};

// ----------------------------------------------------------------- LruCache

TEST(LruCacheTest, EvictsLeastRecentlyUsed) {
  LruCache<std::shared_ptr<int>> cache(2);
  cache.Put("a", std::make_shared<int>(1));
  cache.Put("b", std::make_shared<int>(2));
  ASSERT_NE(cache.Get("a"), nullptr);  // refresh a; b is now LRU
  cache.Put("c", std::make_shared<int>(3));
  EXPECT_EQ(cache.Get("b"), nullptr);
  ASSERT_NE(cache.Get("a"), nullptr);
  EXPECT_EQ(*cache.Get("a"), 1);
  EXPECT_EQ(*cache.Get("c"), 3);
}

TEST(LruCacheTest, ZeroCapacityNeverStores) {
  LruCache<std::shared_ptr<int>> cache(0);
  cache.Put("a", std::make_shared<int>(1));
  EXPECT_EQ(cache.Get("a"), nullptr);
}

TEST(LruCacheTest, PutReplacesExistingKey) {
  LruCache<std::shared_ptr<int>> cache(2);
  cache.Put("a", std::make_shared<int>(1));
  cache.Put("a", std::make_shared<int>(9));
  EXPECT_EQ(*cache.Get("a"), 9);
}

// ------------------------------------------------------------- QueryService

TEST(QueryServiceTest, AnswersMatchDirectExecution) {
  auto state = SmallState();
  QueryService service(state);
  const std::string text = "SELECT * WHERE { ?x <t:knows> ?y . }";
  Result<exec::QueryResponse> served =
      service.Execute(exec::QueryRequest::FromText(text));
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  Result<exec::QueryResponse> direct =
      state->distributed().Execute(exec::QueryRequest::FromText(text));
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(served->bindings.rows, direct->bindings.rows);
  EXPECT_EQ(served->generation, 0u);
  EXPECT_GE(served->stats.queue_wait_millis, 0.0);
}

TEST(QueryServiceTest, ParseErrorCarriesQueryText) {
  QueryService service(SmallState());
  Result<exec::QueryResponse> r =
      service.Execute(exec::QueryRequest::FromText("NOT SPARQL AT ALL"));
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("NOT SPARQL AT ALL"),
            std::string::npos);
}

TEST(QueryServiceTest, SaturatedQueueRejectsWithUnavailable) {
  Gate gate;
  std::atomic<int> executing{0};
  QueryServiceOptions options;
  options.num_workers = 1;
  options.queue_capacity = 2;
  options.admission = QueryServiceOptions::Admission::kReject;
  options.pre_execute_hook = [&](const exec::QueryRequest&) {
    executing.fetch_add(1);
    gate.Wait();
  };
  QueryService service(SmallState(), options);

  const std::string text = "SELECT * WHERE { ?x <t:knows> ?y . }";
  std::vector<std::future<Result<exec::QueryResponse>>> futures;
  // First submission is popped by the (gated) worker; the next two fill
  // the queue; everything after that must be rejected immediately.
  futures.push_back(service.Submit(exec::QueryRequest::FromText(text)));
  while (executing.load() == 0) std::this_thread::yield();
  for (int i = 0; i < 2; ++i) {
    futures.push_back(service.Submit(exec::QueryRequest::FromText(text)));
  }
  EXPECT_EQ(service.queue_depth(), 2u);

  size_t rejected = 0;
  for (int i = 0; i < 5; ++i) {
    std::future<Result<exec::QueryResponse>> f =
        service.Submit(exec::QueryRequest::FromText(text));
    // A rejected future is resolved synchronously inside Submit.
    Result<exec::QueryResponse> r = f.get();
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kUnavailable);
    EXPECT_NE(r.status().message().find("admission queue full"),
              std::string::npos);
    EXPECT_NE(r.status().message().find("<t:knows>"), std::string::npos);
    ++rejected;
  }
  EXPECT_EQ(rejected, 5u);

  // Releasing the gate drains the three admitted queries successfully —
  // saturation never wedges the service.
  gate.Open();
  for (auto& f : futures) {
    Result<exec::QueryResponse> r = f.get();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->bindings.num_rows(), 5u);
  }
}

TEST(QueryServiceTest, BlockingAdmissionNeverRejects) {
  QueryServiceOptions options;
  options.num_workers = 2;
  options.queue_capacity = 1;
  options.admission = QueryServiceOptions::Admission::kBlock;
  QueryService service(SmallState(), options);

  const std::string text = "SELECT * WHERE { ?x <t:likes> ?y . }";
  // Far more submissions than capacity, from several threads at once:
  // every one must eventually succeed (Submit blocks instead of
  // rejecting), and nothing deadlocks.
  std::vector<std::thread> producers;
  std::atomic<size_t> ok{0};
  for (int t = 0; t < 4; ++t) {
    producers.emplace_back([&] {
      for (int i = 0; i < 25; ++i) {
        Result<exec::QueryResponse> r =
            service.Execute(exec::QueryRequest::FromText(text));
        if (r.ok() && r->bindings.num_rows() == 4) ok.fetch_add(1);
      }
    });
  }
  for (auto& p : producers) p.join();
  EXPECT_EQ(ok.load(), 100u);
}

TEST(QueryServiceTest, DeadlineExpiresInQueue) {
  Gate gate;
  std::atomic<int> executing{0};
  QueryServiceOptions options;
  options.num_workers = 1;
  options.pre_execute_hook = [&](const exec::QueryRequest&) {
    executing.fetch_add(1);
    gate.Wait();
  };
  QueryService service(SmallState(), options);

  const std::string text = "SELECT * WHERE { ?x <t:worksAt> ?y . }";
  // Occupy the only worker, then enqueue a query whose deadline lapses
  // while it waits.
  std::future<Result<exec::QueryResponse>> blocker =
      service.Submit(exec::QueryRequest::FromText(
          "SELECT * WHERE { ?x <t:knows> ?y . }"));
  while (executing.load() == 0) std::this_thread::yield();

  exec::QueryRequest doomed = exec::QueryRequest::FromText(text);
  doomed.options.deadline_ms = 5.0;
  std::future<Result<exec::QueryResponse>> expired =
      service.Submit(std::move(doomed));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  gate.Open();

  Result<exec::QueryResponse> r = expired.get();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(r.status().message().find("<t:worksAt>"), std::string::npos);
  ASSERT_TRUE(blocker.get().ok());
}

TEST(QueryServiceTest, ShutdownDrainsAdmittedAndRejectsNew) {
  QueryServiceOptions options;
  options.num_workers = 2;
  QueryService service(SmallState(), options);
  const std::string text = "SELECT * WHERE { ?x <t:knows> ?y . }";
  std::vector<std::future<Result<exec::QueryResponse>>> futures;
  for (int i = 0; i < 16; ++i) {
    futures.push_back(service.Submit(exec::QueryRequest::FromText(text)));
  }
  service.Shutdown();
  for (auto& f : futures) {
    ASSERT_TRUE(f.get().ok());
  }
  Result<exec::QueryResponse> late =
      service.Execute(exec::QueryRequest::FromText(text));
  ASSERT_FALSE(late.ok());
  EXPECT_EQ(late.status().code(), StatusCode::kUnavailable);
}

TEST(QueryServiceTest, ResultCacheHitsUntilGenerationBump) {
  rdf::RdfGraph graph = SmallGraph();
  partition::Partitioning partitioning = Hash2(graph);
  dynamic::MaintainerOptions moptions;
  moptions.policy.kind = dynamic::RepartitionPolicy::Kind::kNever;
  dynamic::IncrementalMaintainer maintainer(std::move(graph),
                                            std::move(partitioning),
                                            moptions);
  QueryService service(ServingState::Capture(maintainer));
  const uint64_t gen0 = service.generation();
  const std::string text = "SELECT * WHERE { ?x <t:knows> ?y . }";

  Result<exec::QueryResponse> first =
      service.Execute(exec::QueryRequest::FromText(text));
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first->stats.result_cache_hit);
  EXPECT_EQ(first->generation, gen0);

  Result<exec::QueryResponse> second =
      service.Execute(exec::QueryRequest::FromText(text));
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->stats.result_cache_hit);
  EXPECT_EQ(second->bindings.rows, first->bindings.rows);

  // Insert a new <t:knows> edge and publish: the generation bumps, the
  // cached entry stops matching, and the fresh answer has the new row.
  dynamic::UpdateBatch batch;
  batch.updates.push_back(dynamic::TripleUpdate{
      dynamic::UpdateKind::kInsert, T("x"), T("knows"), T("a")});
  maintainer.ApplyBatch(batch);
  service.Publish(ServingState::Capture(maintainer));
  ASSERT_GT(service.generation(), gen0);

  Result<exec::QueryResponse> third =
      service.Execute(exec::QueryRequest::FromText(text));
  ASSERT_TRUE(third.ok());
  EXPECT_FALSE(third->stats.result_cache_hit);
  EXPECT_EQ(third->generation, service.generation());
  EXPECT_EQ(third->bindings.num_rows(), first->bindings.num_rows() + 1);

  Result<exec::QueryResponse> fourth =
      service.Execute(exec::QueryRequest::FromText(text));
  ASSERT_TRUE(fourth.ok());
  EXPECT_TRUE(fourth->stats.result_cache_hit);
  EXPECT_EQ(fourth->generation, service.generation());
}

TEST(QueryServiceTest, PlanCacheHitsOnRepeatedShape) {
  QueryServiceOptions options;
  options.result_cache_capacity = 0;  // force every query to the planner
  QueryService service(SmallState(), options);
  // Same shape, different constants: one canonical key.
  Result<exec::QueryResponse> first = service.Execute(
      exec::QueryRequest::FromText("SELECT * WHERE { ?x <t:knows> ?y . ?y "
                                   "<t:likes> ?z . }"));
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first->stats.plan_cache_hit);
  Result<exec::QueryResponse> second = service.Execute(
      exec::QueryRequest::FromText("SELECT * WHERE { ?a <t:knows> ?b . ?b "
                                   "<t:likes> ?c . }"));
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->stats.plan_cache_hit);
  EXPECT_EQ(second->bindings.rows, first->bindings.rows);
}

TEST(QueryServiceTest, PlanCacheKeepsStrategiesApart) {
  QueryServiceOptions options;
  options.result_cache_capacity = 0;
  std::shared_ptr<const ServingState> state = SmallState();
  QueryService service(state, options);
  const std::string text =
      "SELECT * WHERE { ?x <t:knows> ?y . ?y <t:likes> ?z . }";
  const exec::ExecOptions gstored{.strategy = exec::ExecStrategy::kGstored};
  Result<exec::QueryResponse> direct = state->distributed().Execute(
      exec::QueryRequest::FromText(text, gstored));
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();

  ASSERT_TRUE(service.Execute(exec::QueryRequest::FromText(text)).ok());
  // Same shape, other strategy: the default plan must not be reused.
  for (bool cached : {false, true}) {
    Result<exec::QueryResponse> response =
        service.Execute(exec::QueryRequest::FromText(text, gstored));
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(response->stats.plan_cache_hit, cached);
    EXPECT_EQ(response->stats.num_subqueries, direct->stats.num_subqueries);
    EXPECT_EQ(response->bindings.rows, direct->bindings.rows);
  }
}

/// 8 submitter threads churn queries while an update thread applies
/// batches and publishes snapshots. Every answer must match a
/// from-scratch oracle (single-store ground truth on the materialized
/// live graph) for the generation the answer reports.
TEST(QueryServiceTest, ConcurrentChurnIsGenerationConsistent) {
  rdf::RdfGraph graph = SmallGraph();
  partition::Partitioning partitioning = Hash2(graph);
  dynamic::MaintainerOptions moptions;
  moptions.policy.kind = dynamic::RepartitionPolicy::Kind::kNever;
  dynamic::IncrementalMaintainer maintainer(std::move(graph),
                                            std::move(partitioning),
                                            moptions);

  const std::vector<std::string> texts = {
      "SELECT * WHERE { ?x <t:knows> ?y . }",
      "SELECT * WHERE { ?x <t:likes> ?y . }",
      "SELECT * WHERE { ?x <t:worksAt> ?y . }",
  };

  // oracle[generation][qi]: lexical ground-truth rows, computed with the
  // single-store evaluator on a from-scratch materialization — no
  // executor, cluster or cache code in the loop. states[generation]
  // supplies the id space for decoding served bindings.
  std::map<uint64_t, std::vector<std::set<std::vector<std::string>>>> oracle;
  std::map<uint64_t, std::shared_ptr<const ServingState>> states;
  auto record = [&](const std::shared_ptr<const ServingState>& state) {
    rdf::RdfGraph live = maintainer.MaterializeGraph();
    std::vector<std::set<std::vector<std::string>>>& rows =
        oracle[state->generation()];
    for (const std::string& text : texts) {
      rows.push_back(
          LexRows(GroundTruth(live, testutil::ParseQueryOrDie(text)), live));
    }
    states[state->generation()] = state;
  };

  std::shared_ptr<const ServingState> initial =
      ServingState::Capture(maintainer);
  record(initial);

  QueryServiceOptions options;
  options.num_workers = 4;
  QueryService service(std::move(initial), options);

  struct Answer {
    size_t qi;
    uint64_t generation;
    store::BindingTable bindings;
  };
  std::mutex answers_mutex;
  std::vector<Answer> answers;

  std::atomic<bool> stop{false};
  std::thread updater([&] {
    for (int b = 0; b < 12; ++b) {
      dynamic::UpdateBatch batch;
      batch.updates.push_back(dynamic::TripleUpdate{
          dynamic::UpdateKind::kInsert, T("n" + std::to_string(b)),
          T(b % 2 == 0 ? "knows" : "likes"), T("a")});
      if (b % 3 == 2) {
        batch.updates.push_back(dynamic::TripleUpdate{
            dynamic::UpdateKind::kDelete, T("n" + std::to_string(b - 1)),
            T((b - 1) % 2 == 0 ? "knows" : "likes"), T("a")});
      }
      maintainer.ApplyBatch(batch);
      std::shared_ptr<const ServingState> next =
          ServingState::Capture(maintainer);
      record(next);
      service.Publish(std::move(next));
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    stop.store(true);
  });

  std::vector<std::thread> submitters;
  std::atomic<size_t> failures{0};
  for (int t = 0; t < 8; ++t) {
    submitters.emplace_back([&, t] {
      size_t i = static_cast<size_t>(t);
      while (!stop.load()) {
        const size_t qi = i++ % texts.size();
        Result<exec::QueryResponse> r =
            service.Execute(exec::QueryRequest::FromText(texts[qi]));
        if (!r.ok()) {
          failures.fetch_add(1);
          continue;
        }
        std::lock_guard<std::mutex> lock(answers_mutex);
        answers.push_back(Answer{qi, r->generation,
                                 std::move(r->bindings)});
      }
    });
  }
  for (auto& s : submitters) s.join();
  updater.join();
  service.Shutdown();
  EXPECT_EQ(failures.load(), 0u);

  ASSERT_FALSE(answers.empty());
  size_t checked = 0;
  for (const Answer& a : answers) {
    auto oracle_it = oracle.find(a.generation);
    ASSERT_NE(oracle_it, oracle.end())
        << "answer reports unpublished generation " << a.generation;
    const rdf::RdfGraph& id_space = states.at(a.generation)->graph();
    EXPECT_EQ(LexRows(a.bindings, id_space), oracle_it->second[a.qi])
        << "generation " << a.generation << " query " << a.qi;
    ++checked;
  }
  EXPECT_EQ(checked, answers.size());
}

// ------------------------------------------------- unified API error path

TEST(ExecuteRequestTest, ParseErrorCarriesQueryText) {
  auto state = SmallState();
  Result<exec::QueryResponse> r =
      state->distributed().Execute(exec::QueryRequest::FromText("NOT SPARQL"));
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("NOT SPARQL"), std::string::npos);
}

// ----------------------------------------------------------- slow-query log

std::vector<std::string> ReadLines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

std::string UniquePath(const std::string& stem) {
  return ::testing::TempDir() + stem + "." + std::to_string(::getpid());
}

TEST(SlowQueryLogTest, LogsOnlyQueriesOverThreshold) {
  QueryServiceOptions options;
  options.slow_query.path = UniquePath("slow_over");
  options.slow_query.threshold_ms = 0.0001;  // everything is "slow"
  options.slow_query.keep_traces = false;
  {
    QueryService service(SmallState(), options);
    ASSERT_TRUE(service
                    .Execute(exec::QueryRequest::FromText(
                        "SELECT * WHERE { ?x <t:knows> ?y . }"))
                    .ok());
    ASSERT_NE(service.slow_query_log(), nullptr);
    EXPECT_EQ(service.slow_query_log()->entries_written(), 1u);
  }
  const std::vector<std::string> lines = ReadLines(options.slow_query.path);
  ASSERT_EQ(lines.size(), 1u);
  Result<obs::JsonValue> entry = obs::ParseJson(lines[0]);
  ASSERT_TRUE(entry.ok()) << entry.status().ToString();
  // trace_id appears only when tracing is live (see the traced test).
  for (const char* field : {"latency_ms", "queue_wait_ms", "text",
                            "shape_key", "plan", "complete", "rows"}) {
    EXPECT_NE(entry->Find(field), nullptr) << field;
  }
  EXPECT_NE(entry->Find("text")->str.find("knows"), std::string::npos);
  EXPECT_NE(entry->Find("plan")->Find("cls"), nullptr);
  std::remove(options.slow_query.path.c_str());
}

TEST(SlowQueryLogTest, FastQueriesAreNotLogged) {
  QueryServiceOptions options;
  options.slow_query.path = UniquePath("slow_none");
  options.slow_query.threshold_ms = 1e9;
  QueryService service(SmallState(), options);
  ASSERT_TRUE(service
                  .Execute(exec::QueryRequest::FromText(
                      "SELECT * WHERE { ?x <t:knows> ?y . }"))
                  .ok());
  EXPECT_EQ(service.slow_query_log()->entries_written(), 0u);
  EXPECT_TRUE(ReadLines(options.slow_query.path).empty());
}

TEST(SlowQueryLogTest, FailedQueriesAreLoggedWithTheError) {
  QueryServiceOptions options;
  options.slow_query.path = UniquePath("slow_err");
  options.slow_query.threshold_ms = 0.0001;
  options.slow_query.keep_traces = false;
  QueryService service(SmallState(), options);
  ASSERT_FALSE(
      service.Execute(exec::QueryRequest::FromText("NOT SPARQL")).ok());
  const std::vector<std::string> lines = ReadLines(options.slow_query.path);
  ASSERT_EQ(lines.size(), 1u);
  Result<obs::JsonValue> entry = obs::ParseJson(lines[0]);
  ASSERT_TRUE(entry.ok());
  ASSERT_NE(entry->Find("error"), nullptr);
  EXPECT_FALSE(entry->Find("error")->str.empty());
  std::remove(options.slow_query.path.c_str());
}

TEST(SlowQueryLogTest, RotatesOnceAtMaxBytesAndStaysBounded) {
  QueryServiceOptions options;
  options.slow_query.path = UniquePath("slow_rot");
  options.slow_query.threshold_ms = 0.0001;
  options.slow_query.max_bytes = 2048;
  options.slow_query.keep_traces = false;
  QueryService service(SmallState(), options);
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(service
                    .Execute(exec::QueryRequest::FromText(
                        "SELECT * WHERE { ?x <t:knows> ?y . }"))
                    .ok());
  }
  EXPECT_EQ(service.slow_query_log()->entries_written(), 50u);
  struct ::stat live;
  ASSERT_EQ(::stat(options.slow_query.path.c_str(), &live), 0);
  EXPECT_LE(static_cast<uint64_t>(live.st_size),
            options.slow_query.max_bytes);
  // Exactly one rotation generation: live file + .old, nothing else.
  struct ::stat old;
  ASSERT_EQ(::stat((options.slow_query.path + ".old").c_str(), &old), 0)
      << "rotation never happened";
  EXPECT_LE(static_cast<uint64_t>(old.st_size), options.slow_query.max_bytes);
  // Every retained line is still valid standalone JSON.
  for (const std::string& line : ReadLines(options.slow_query.path)) {
    EXPECT_TRUE(obs::ParseJson(line).ok()) << line;
  }
  std::remove(options.slow_query.path.c_str());
  std::remove((options.slow_query.path + ".old").c_str());
}

TEST(SlowQueryLogTest, TracedSlowQueryRetainsItsMergedTrace) {
  obs::StartTracing();
  QueryServiceOptions options;
  options.slow_query.path = UniquePath("slow_trace");
  options.slow_query.threshold_ms = 0.0001;
  {
    QueryService service(SmallState(), options);
    ASSERT_TRUE(service
                    .Execute(exec::QueryRequest::FromText(
                        "SELECT * WHERE { ?x <t:knows> ?y . }"))
                    .ok());
  }
  obs::StopTracing();
  const std::vector<std::string> lines = ReadLines(options.slow_query.path);
  ASSERT_EQ(lines.size(), 1u);
  Result<obs::JsonValue> entry = obs::ParseJson(lines[0]);
  ASSERT_TRUE(entry.ok());
  const obs::JsonValue* trace_id = entry->Find("trace_id");
  ASSERT_NE(trace_id, nullptr);
  EXPECT_GT(trace_id->number, 0.0);
  const obs::JsonValue* trace_file = entry->Find("trace_file");
  ASSERT_NE(trace_file, nullptr) << "keep_traces should retain the trace";
  std::ifstream trace(trace_file->str);
  ASSERT_TRUE(trace.good()) << trace_file->str;
  std::ostringstream buffer;
  buffer << trace.rdbuf();
  Result<obs::JsonValue> parsed = obs::ParseJson(buffer.str());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const obs::JsonValue* events = parsed->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  EXPECT_FALSE(events->array.empty());
  std::remove(options.slow_query.path.c_str());
  std::remove(trace_file->str.c_str());
}

// ------------------------------------------------------------- admin socket

TEST(AdminServerTest, ServesStatsOverTheSocket) {
  const std::string socket = UniquePath("admin_sock");
  AdminServer server(socket, [] { return std::string("{\"x\":1}"); });
  ASSERT_TRUE(server.Start().ok());
  for (int i = 1; i <= 3; ++i) {
    Result<std::string> stats = FetchStats(socket, 2000.0);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_EQ(*stats, "{\"x\":1}");
    EXPECT_EQ(server.requests_served(), static_cast<uint64_t>(i));
  }
  server.Stop();
  EXPECT_FALSE(FetchStats(socket, 200.0).ok());
}

TEST(AdminServerTest, FetchFromMissingSocketFailsCleanly) {
  EXPECT_FALSE(FetchStats(UniquePath("admin_gone"), 200.0).ok());
}

}  // namespace
}  // namespace mpc::serve

#include "obs/metrics.h"

#include <cmath>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/thread_pool.h"
#include "exec/distributed_executor.h"
#include "gtest/gtest.h"
#include "mpc/mpc_partitioner.h"
#include "obs/json.h"
#include "test_util.h"

namespace mpc::obs {
namespace {

TEST(HistogramTest, BucketBoundariesAreInclusiveUpperBounds) {
  Histogram h({1.0, 2.0, 4.0});
  ASSERT_EQ(h.num_buckets(), 4u);  // 3 bounds + overflow

  h.Observe(0.5);  // -> bucket 0
  h.Observe(1.0);  // inclusive: still bucket 0
  h.Observe(1.5);  // -> bucket 1
  h.Observe(2.0);  // inclusive: bucket 1
  h.Observe(4.0);  // inclusive: bucket 2
  h.Observe(9.0);  // -> overflow

  EXPECT_EQ(h.bucket_count(0), 2u);
  EXPECT_EQ(h.bucket_count(1), 2u);
  EXPECT_EQ(h.bucket_count(2), 1u);
  EXPECT_EQ(h.bucket_count(3), 1u);
  EXPECT_EQ(h.count(), 6u);
  EXPECT_NEAR(h.sum(), 0.5 + 1.0 + 1.5 + 2.0 + 4.0 + 9.0, 1e-9);
}

TEST(HistogramTest, QuantilesOnKnownUniformDistribution) {
  // 100 observations 1..100 against bounds 10,20,...,100: every bucket
  // holds exactly 10 values, so the interpolated quantile estimate is
  // within one bucket width of the exact order statistic.
  std::vector<double> bounds;
  for (int b = 10; b <= 100; b += 10) bounds.push_back(b);
  Histogram h(bounds);
  for (int v = 1; v <= 100; ++v) h.Observe(v);

  EXPECT_NEAR(h.Quantile(0.50), 50.0, 10.0);
  EXPECT_NEAR(h.Quantile(0.95), 95.0, 10.0);
  EXPECT_NEAR(h.Quantile(0.99), 99.0, 10.0);
  // Quantiles are monotone in q.
  EXPECT_LE(h.Quantile(0.50), h.Quantile(0.95));
  EXPECT_LE(h.Quantile(0.95), h.Quantile(0.99));
  // Extremes stay within the observed range.
  EXPECT_GE(h.Quantile(0.0), 0.0);
  EXPECT_LE(h.Quantile(1.0), 100.0);
}

TEST(HistogramTest, P99LandsInOverflowClampsToLastBound) {
  Histogram h({1.0, 10.0});
  for (int i = 0; i < 100; ++i) h.Observe(1000.0);
  // Everything is in the overflow bucket; the estimate clamps to the
  // last finite bound rather than inventing a value.
  EXPECT_DOUBLE_EQ(h.Quantile(0.99), 10.0);
}

TEST(HistogramTest, EmptyHistogramQuantileIsZero) {
  Histogram h(DefaultLatencyBoundsMs());
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 0.0);
  EXPECT_EQ(h.count(), 0u);
}

TEST(MetricsRegistryTest, CounterAtomicUnderParallelFor) {
  MetricsRegistry registry;
  Counter& counter = registry.CounterRef("parallel.increments");
  constexpr size_t kItems = 100000;
  ParallelFor(0, kItems, /*grain=*/64, /*num_threads=*/8,
              [&](size_t) { counter.Inc(); });
  EXPECT_EQ(counter.value(), kItems);

  Histogram& hist = registry.HistogramRef("parallel.values", {0.5});
  ParallelFor(0, kItems, /*grain=*/64, /*num_threads=*/8,
              [&](size_t i) { hist.Observe(i % 2 == 0 ? 0.0 : 1.0); });
  EXPECT_EQ(hist.count(), kItems);
  EXPECT_EQ(hist.bucket_count(0) + hist.bucket_count(1), kItems);
  EXPECT_EQ(hist.bucket_count(0), kItems / 2);
}

TEST(MetricsRegistryTest, RefsAreStableAndNamed) {
  MetricsRegistry registry;
  Counter& a = registry.CounterRef("same.name");
  Counter& b = registry.CounterRef("same.name");
  EXPECT_EQ(&a, &b);
  a.Inc(3);
  EXPECT_EQ(b.value(), 3u);

  Gauge& g = registry.GaugeRef("a.gauge");
  g.Set(2.5);
  EXPECT_DOUBLE_EQ(registry.GaugeRef("a.gauge").value(), 2.5);

  // Histogram bounds apply only on first creation.
  Histogram& h = registry.HistogramRef("a.hist", {1.0, 2.0});
  Histogram& h2 = registry.HistogramRef("a.hist", {99.0});
  EXPECT_EQ(&h, &h2);
  EXPECT_EQ(h2.bounds().size(), 2u);
}

TEST(MetricsRegistryTest, JsonExportRoundTrips) {
  MetricsRegistry registry;
  registry.CounterRef("c.one").Inc(7);
  registry.GaugeRef("g.ratio").Set(0.25);
  Histogram& h = registry.HistogramRef("h.lat", {1.0, 2.0});
  h.Observe(0.5);
  h.Observe(1.5);
  // A name needing every kind of escape, and a value JSON cannot hold.
  const std::string odd = std::string("q\"b\\n\nc") + '\x01';
  registry.GaugeRef(odd).Set(NAN);
  EXPECT_EQ(JsonNumber(NAN), "0");
  Result<JsonValue> name = ParseJson(JsonString(odd));
  ASSERT_TRUE(name.ok()) << name.status().ToString();
  EXPECT_EQ(name->str, odd);

  Result<JsonValue> parsed = ParseJson(registry.ToJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const JsonValue* counters = parsed->Find("counters");
  const JsonValue* gauges = parsed->Find("gauges");
  const JsonValue* histograms = parsed->Find("histograms");
  ASSERT_TRUE(counters && counters->is_object());
  ASSERT_TRUE(gauges && gauges->is_object());
  ASSERT_TRUE(histograms && histograms->is_object());

  ASSERT_NE(counters->Find("c.one"), nullptr);
  EXPECT_DOUBLE_EQ(counters->Find("c.one")->number, 7.0);
  ASSERT_NE(gauges->Find("g.ratio"), nullptr);
  EXPECT_DOUBLE_EQ(gauges->Find("g.ratio")->number, 0.25);
  ASSERT_NE(gauges->Find(odd), nullptr);
  EXPECT_EQ(gauges->Find(odd)->number, 0.0);

  const JsonValue* hist = histograms->Find("h.lat");
  ASSERT_NE(hist, nullptr);
  ASSERT_TRUE(hist->is_object());
  ASSERT_NE(hist->Find("count"), nullptr);
  EXPECT_DOUBLE_EQ(hist->Find("count")->number, 2.0);
}

// --- Regression: the executor's flushed counters mirror its
// ExecutionStats exactly on a seeded fault run. ---

TEST(ExecMetricsRegressionTest, CountersMatchExecutionStatsUnderFaults) {
  Rng rng(5);
  rdf::RdfGraph graph = testutil::RandomGraph(rng, 60, 240, 5,
                                              /*community=*/12,
                                              /*escape=*/0.2);
  core::MpcOptions options;
  options.base.k = 8;
  options.base.epsilon = 0.3;
  options.base.seed = 3;
  exec::Cluster cluster =
      exec::Cluster::Build(core::MpcPartitioner(options).Partition(graph));

  exec::DistributedExecutor::Options exec_options;
  exec_options.faults.seed = 99;
  exec_options.faults.crash_rate = 0.15;
  exec_options.faults.transient_rate = 0.2;
  exec_options.faults.slowdown_rate = 0.1;
  exec_options.network.site_timeout_ms = 25.0;
  exec_options.partial_results = exec::PartialResultPolicy::kBestEffort;
  exec::DistributedExecutor executor(cluster, graph, exec_options);

  MetricsRegistry::Default().ResetForTest();
  uint64_t queries = 0;
  uint64_t retries = 0;
  uint64_t sites_failed = 0;
  uint64_t sites_evaluated = 0;
  uint64_t failover_hits = 0;
  uint64_t rows = 0;
  for (const std::string& text :
       {std::string("SELECT * WHERE { ?x <t:p0> ?y . ?x <t:p1> ?z . }"),
        std::string("SELECT * WHERE { ?a <t:p0> ?b . ?b <t:p1> ?c . "
                    "?c <t:p2> ?d . }")}) {
    sparql::QueryGraph query = testutil::ParseQueryOrDie(text);
    Result<exec::QueryResponse> response =
        executor.Execute(exec::QueryRequest::FromQuery(query));
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    const exec::ExecutionStats& stats = response->stats;
    ++queries;
    retries += stats.retries;
    sites_failed += stats.sites_failed;
    sites_evaluated += stats.sites_evaluated;
    failover_hits += stats.failover_hits;
    rows += stats.num_results;
  }
  // The seeded fault model must actually exercise the retry path,
  // otherwise this test would pass vacuously.
  ASSERT_GT(retries + sites_failed, 0u);

  MetricsRegistry& metrics = MetricsRegistry::Default();
  EXPECT_EQ(metrics.CounterRef("exec.queries").value(), queries);
  EXPECT_EQ(metrics.CounterRef("exec.retries").value(), retries);
  EXPECT_EQ(metrics.CounterRef("exec.sites_failed").value(), sites_failed);
  EXPECT_EQ(metrics.CounterRef("exec.sites_evaluated").value(),
            sites_evaluated);
  EXPECT_EQ(metrics.CounterRef("exec.failover_hits").value(), failover_hits);
  EXPECT_EQ(metrics.CounterRef("exec.rows_returned").value(), rows);
  EXPECT_EQ(metrics.HistogramRef("exec.total_ms").count(), queries);
}

}  // namespace
}  // namespace mpc::obs

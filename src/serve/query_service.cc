#include "serve/query_service.h"

#include <string>
#include <utility>

#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "partition/partitioning.h"
#include "sparql/shape.h"

namespace mpc::serve {

namespace {

double ToMillis(std::chrono::steady_clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

}  // namespace

QueryService::QueryService(std::shared_ptr<const ServingState> state,
                           QueryServiceOptions options)
    : options_(std::move(options)),
      state_(std::move(state)),
      plan_cache_(options_.plan_cache_capacity),
      result_cache_(options_.result_cache_capacity) {
  if (options_.slow_query.enabled()) {
    slow_log_ = std::make_unique<SlowQueryLog>(options_.slow_query);
  }
  const int workers = ResolveNumThreads(options_.num_workers);
  workers_.reserve(static_cast<size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

QueryService::~QueryService() { Shutdown(); }

std::future<Result<exec::QueryResponse>> QueryService::Submit(
    exec::QueryRequest request) {
  Pending pending;
  pending.enqueued = Clock::now();
  if (request.options.deadline_ms > 0.0) {
    pending.has_deadline = true;
    pending.deadline =
        pending.enqueued +
        std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double, std::milli>(
                request.options.deadline_ms));
  }
  pending.request = std::move(request);
  std::future<Result<exec::QueryResponse>> future =
      pending.promise.get_future();

  auto& metrics = obs::MetricsRegistry::Default();
  std::unique_lock<std::mutex> lock(queue_mutex_);
  if (options_.queue_capacity > 0 && admitting_ &&
      queue_.size() >= options_.queue_capacity) {
    if (options_.admission == QueryServiceOptions::Admission::kReject) {
      lock.unlock();
      metrics.CounterRef("serve.rejected").Inc();
      pending.promise.set_value(exec::AttachQueryText(
          Status::Unavailable(
              "admission queue full (capacity " +
              std::to_string(options_.queue_capacity) + ")"),
          pending.request.text));
      return future;
    }
    space_available_.wait(lock, [this] {
      return !admitting_ || queue_.size() < options_.queue_capacity;
    });
  }
  if (!admitting_) {
    lock.unlock();
    metrics.CounterRef("serve.rejected").Inc();
    pending.promise.set_value(exec::AttachQueryText(
        Status::Unavailable("QueryService is shut down"),
        pending.request.text));
    return future;
  }
  queue_.push_back(std::move(pending));
  const double depth = static_cast<double>(queue_.size());
  lock.unlock();
  metrics.CounterRef("serve.admitted").Inc();
  metrics.GaugeRef("serve.queue_depth").Set(depth);
  work_available_.notify_one();
  return future;
}

Result<exec::QueryResponse> QueryService::Execute(exec::QueryRequest request) {
  return Submit(std::move(request)).get();
}

void QueryService::Publish(std::shared_ptr<const ServingState> state) {
  std::lock_guard<std::mutex> lock(state_mutex_);
  state_ = std::move(state);
}

std::shared_ptr<const ServingState> QueryService::state() const {
  std::lock_guard<std::mutex> lock(state_mutex_);
  return state_;
}

void QueryService::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    admitting_ = false;
    stop_workers_ = true;
  }
  work_available_.notify_all();
  space_available_.notify_all();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
}

size_t QueryService::queue_depth() const {
  std::lock_guard<std::mutex> lock(queue_mutex_);
  return queue_.size();
}

void QueryService::WorkerLoop() {
  auto& metrics = obs::MetricsRegistry::Default();
  for (;;) {
    Pending pending;
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      work_available_.wait(
          lock, [this] { return stop_workers_ || !queue_.empty(); });
      // Drain before stopping: every admitted query gets an answer.
      if (queue_.empty()) return;
      pending = std::move(queue_.front());
      queue_.pop_front();
      metrics.GaugeRef("serve.queue_depth")
          .Set(static_cast<double>(queue_.size()));
    }
    space_available_.notify_one();

    const Clock::time_point dequeued = Clock::now();
    const double queue_wait = ToMillis(dequeued - pending.enqueued);
    Result<exec::QueryResponse> result = [&]() -> Result<exec::QueryResponse> {
      if (pending.has_deadline && dequeued >= pending.deadline) {
        metrics.CounterRef("serve.deadline_expired").Inc();
        return exec::AttachQueryText(
            Status::DeadlineExceeded(
                "deadline (" +
                std::to_string(pending.request.options.deadline_ms) +
                " ms) expired after " + std::to_string(queue_wait) +
                " ms in admission queue"),
            pending.request.text);
      }
      if (options_.pre_execute_hook) options_.pre_execute_hook(pending.request);
      return Run(pending.request, queue_wait);
    }();

    const double latency = ToMillis(Clock::now() - pending.enqueued);
    metrics.CounterRef("serve.queries").Inc();
    metrics
        .HistogramRef("serve.latency_ms", obs::DefaultLatencyBoundsMs())
        .Observe(latency);
    metrics
        .HistogramRef("serve.queue_wait_ms", obs::DefaultLatencyBoundsMs())
        .Observe(queue_wait);
    // After Run returned the query's serve.query span is closed, so the
    // slow log sees the complete trace (parent-edge closure included).
    if (slow_log_ != nullptr) {
      slow_log_->MaybeRecord(pending.request, result, latency, queue_wait);
    }
    pending.promise.set_value(std::move(result));
  }
}

Result<exec::QueryResponse> QueryService::Run(
    const exec::QueryRequest& request, double queue_wait_millis) {
  auto& metrics = obs::MetricsRegistry::Default();
  // One snapshot for the whole query: cache decisions and execution all
  // see the same generation, whatever Publish does concurrently.
  std::shared_ptr<const ServingState> state = this->state();

  Result<sparql::QueryGraph> query = exec::ResolveRequestQuery(request);
  if (!query.ok()) return query.status();
  // Observe before the cache lookups: a cache hit is workload too, and
  // the weight accumulation must see the real query mix.
  if (options_.query_observer) options_.query_observer(*query);

  obs::TraceSpan span("serve.query");
  span.Attr("generation", state->generation());
  if (!request.options.trace_tag.empty()) {
    span.Attr("tag", request.options.trace_tag);
  }
  // Re-install the ambient context with the caller's tag so everything
  // below serve.query — including the wire context shipped to remote
  // site workers — carries it. No-op with tracing disabled (the ambient
  // context is empty and stays empty).
  obs::TraceContext tagged = obs::CurrentTraceContext();
  tagged.query_tag = request.options.trace_tag;
  obs::ScopedTraceContext tag_scope(tagged);

  // Both cache keys lead with the strategy: the two plans report
  // different stats for the same bindings. The result key is the exact
  // query; ToString() canonicalizes whitespace and term spelling, so
  // textual variants of one query share an entry.
  const std::string strategy_key =
      std::string(exec::ExecStrategyName(request.options.strategy)) + "\n";
  const std::string result_key = strategy_key + query->ToString();
  if (options_.result_cache_capacity > 0) {
    std::shared_ptr<const exec::QueryResponse> cached;
    {
      std::lock_guard<std::mutex> lock(result_cache_mutex_);
      cached = result_cache_.Get(result_key);
    }
    if (cached != nullptr && cached->generation == state->generation()) {
      metrics.CounterRef("serve.result_cache.hits").Inc();
      exec::QueryResponse response = *cached;  // copy: caller owns rows
      response.stats.result_cache_hit = true;
      response.stats.queue_wait_millis = queue_wait_millis;
      response.stats.trace_id = tagged.trace_id;
      span.Attr("result_cache", "hit");
      return response;
    }
    metrics.CounterRef("serve.result_cache.misses").Inc();
  }

  // Plan cache: vertex-disjoint partitionings only (VP planning is
  // per-pattern and trivial).
  std::shared_ptr<const exec::QueryPlan> plan;
  bool plan_was_cached = false;
  const bool plannable = state->cluster().partitioning().kind() ==
                         partition::PartitioningKind::kVertexDisjoint;
  if (plannable && options_.plan_cache_capacity > 0) {
    const std::string shape_key =
        strategy_key + sparql::CanonicalShapeKey(*query);
    std::shared_ptr<const PlanEntry> entry;
    {
      std::lock_guard<std::mutex> lock(plan_cache_mutex_);
      entry = plan_cache_.Get(shape_key);
    }
    if (entry != nullptr && entry->generation == state->generation()) {
      plan = entry->plan;
      plan_was_cached = true;
      metrics.CounterRef("serve.plan_cache.hits").Inc();
    } else {
      metrics.CounterRef("serve.plan_cache.misses").Inc();
      auto fresh = std::make_shared<PlanEntry>();
      fresh->generation = state->generation();
      fresh->plan = std::make_shared<const exec::QueryPlan>(
          exec::PlanQuery(*query, state->cluster().partitioning(),
                          state->graph(), request.options.strategy));
      plan = fresh->plan;
      std::lock_guard<std::mutex> lock(plan_cache_mutex_);
      plan_cache_.Put(shape_key, std::move(fresh));
    }
  }

  // Execute on the snapshot. The request is re-issued with the parsed
  // form attached so the executor does not re-parse; the original text
  // rides along for error messages.
  exec::QueryRequest resolved;
  resolved.query = std::move(*query);
  resolved.text = request.text;
  resolved.options = request.options;
  Result<exec::QueryResponse> response =
      state->distributed().Execute(resolved, plan.get());
  if (!response.ok()) return response.status();
  // The executor flags any externally supplied plan as a cache hit; keep
  // the flag honest for plans this call just computed and inserted.
  response->stats.plan_cache_hit = plan_was_cached;
  response->stats.queue_wait_millis = queue_wait_millis;
  // Stamp this serving's own trace id (cached executions would
  // otherwise carry a stale or zero id).
  response->stats.trace_id = tagged.trace_id;

  // Cache only answers that are provably a pure function of (query,
  // generation): independently executable (IEQ — no decomposition whose
  // policy knobs could differ) and complete (no best-effort partial
  // answers).
  if (options_.result_cache_capacity > 0 && response->stats.independent &&
      response->stats.complete) {
    auto entry = std::make_shared<const exec::QueryResponse>(*response);
    std::lock_guard<std::mutex> lock(result_cache_mutex_);
    result_cache_.Put(result_key, std::move(entry));
  }
  span.Attr("rows", static_cast<uint64_t>(response->bindings.num_rows()))
      .Attr("plan_cache", plan_was_cached ? "hit" : "miss");
  return response;
}

}  // namespace mpc::serve

#include "obs/snapshot.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "obs/json.h"
#include "obs/trace.h"

namespace mpc::obs {

double QuantileFromBuckets(const std::vector<double>& bounds,
                           const std::vector<uint64_t>& buckets,
                           uint64_t count, double q) {
  if (count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(count);
  uint64_t cumulative = 0;
  for (size_t b = 0; b < buckets.size(); ++b) {
    const uint64_t in_bucket = buckets[b];
    if (in_bucket == 0) continue;
    if (static_cast<double>(cumulative + in_bucket) >= target) {
      if (b >= bounds.size()) {
        return bounds.empty() ? 0.0 : bounds.back();  // overflow bucket
      }
      const double upper = bounds[b];
      const double lower = b == 0 ? 0.0 : bounds[b - 1];
      const double rank_in_bucket =
          std::max(0.0, target - static_cast<double>(cumulative));
      return lower + (upper - lower) * rank_in_bucket /
                         static_cast<double>(in_bucket);
    }
    cumulative += in_bucket;
  }
  return bounds.empty() ? 0.0 : bounds.back();
}

uint64_t CounterDelta(uint64_t prev, uint64_t cur) {
  return cur >= prev ? cur - prev : cur;
}

HistogramSnapshot HistogramDelta(const HistogramSnapshot& prev,
                                 const HistogramSnapshot& cur) {
  // Shape change or any shrinking bucket means the histogram was reset
  // inside the window (worker respawn, test reset): the current state
  // is then entirely post-reset, so it IS the window delta.
  bool reset = prev.bounds != cur.bounds ||
               prev.buckets.size() != cur.buckets.size();
  if (!reset) {
    for (size_t b = 0; b < cur.buckets.size(); ++b) {
      if (cur.buckets[b] < prev.buckets[b]) {
        reset = true;
        break;
      }
    }
  }
  if (reset) return cur;
  HistogramSnapshot delta;
  delta.bounds = cur.bounds;
  delta.buckets.resize(cur.buckets.size());
  for (size_t b = 0; b < cur.buckets.size(); ++b) {
    delta.buckets[b] = cur.buckets[b] - prev.buckets[b];
  }
  delta.count = CounterDelta(prev.count, cur.count);
  delta.sum = cur.sum >= prev.sum ? cur.sum - prev.sum : cur.sum;
  return delta;
}

SnapshotWindow::SnapshotWindow(size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

void SnapshotWindow::Push(MetricsSnapshot snapshot) {
  if (entries_.size() < capacity_) {
    entries_.push_back(std::move(snapshot));
    return;
  }
  entries_[start_] = std::move(snapshot);
  start_ = (start_ + 1) % capacity_;
}

const MetricsSnapshot& SnapshotWindow::oldest() const {
  return entries_[entries_.size() < capacity_ ? 0 : start_];
}

const MetricsSnapshot& SnapshotWindow::newest() const {
  const size_t last = entries_.size() < capacity_
                          ? entries_.size() - 1
                          : (start_ + capacity_ - 1) % capacity_;
  return entries_[last];
}

Snapshotter::Snapshotter(SnapshotterOptions options)
    : options_(options), window_(options.window) {}

Snapshotter::~Snapshotter() { Stop(); }

void Snapshotter::Start() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (running_) return;
    running_ = true;
    started_at_ms_ = TraceNowMicros() / 1000.0;
    window_.Push(MetricsRegistry::Default().TakeSnapshot());
  }
  thread_ = std::thread(&Snapshotter::Loop, this);
}

void Snapshotter::Stop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!running_) return;
    running_ = false;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

void Snapshotter::SampleNow() {
  MetricsSnapshot snapshot = MetricsRegistry::Default().TakeSnapshot();
  std::lock_guard<std::mutex> lock(mutex_);
  window_.Push(std::move(snapshot));
}

void Snapshotter::Loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (running_) {
    cv_.wait_for(lock, std::chrono::duration<double, std::milli>(
                           options_.interval_ms),
                 [this] { return !running_; });
    if (!running_) return;
    lock.unlock();
    MetricsSnapshot snapshot = MetricsRegistry::Default().TakeSnapshot();
    lock.lock();
    window_.Push(std::move(snapshot));
  }
}

std::string Snapshotter::StatsJson() const {
  MetricsSnapshot cur = MetricsRegistry::Default().TakeSnapshot();
  MetricsSnapshot prev;
  bool has_prev = false;
  double started_at_ms = 0.0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!window_.empty()) {
      prev = window_.oldest();
      has_prev = true;
    }
    started_at_ms = started_at_ms_;
  }
  // No baseline sample yet (fresh or just-reset snapshotter): there is
  // no window. A default-constructed prev would make window_ms the
  // absolute trace-clock value and dress lifetime totals up as windowed
  // deltas with garbage rates; report a zero-width window instead, with
  // lifetime values and zero rates.
  const double window_ms =
      has_prev ? std::max(0.0, cur.at_ms - prev.at_ms) : 0.0;
  const double window_s = window_ms / 1000.0;
  std::string out = "{";
  out += "\"uptime_ms\":" +
         JsonNumber(std::max(0.0, cur.at_ms - started_at_ms));
  out += ",\"window_ms\":" + JsonNumber(window_ms);
  out += ",\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : cur.counters) {
    if (!first) out += ",";
    first = false;
    auto it = prev.counters.find(name);
    const uint64_t delta =
        has_prev ? CounterDelta(it == prev.counters.end() ? 0 : it->second,
                                value)
                 : 0;
    const double rate =
        window_s > 0.0 ? static_cast<double>(delta) / window_s : 0.0;
    out += JsonString(name) + ":{\"value\":" + std::to_string(value) +
           ",\"window_delta\":" + std::to_string(delta) +
           ",\"rate_per_s\":" + JsonNumber(rate) + "}";
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, value] : cur.gauges) {
    if (!first) out += ",";
    first = false;
    out += JsonString(name) + ":" + JsonNumber(value);
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, hs] : cur.histograms) {
    if (!first) out += ",";
    first = false;
    auto it = prev.histograms.find(name);
    const HistogramSnapshot delta =
        it == prev.histograms.end() ? hs : HistogramDelta(it->second, hs);
    // Without a baseline the quantiles still summarize lifetime samples,
    // but the window count and rate are honestly zero.
    const uint64_t window_count = has_prev ? delta.count : 0;
    const double rate =
        window_s > 0.0 ? static_cast<double>(window_count) / window_s : 0.0;
    out += JsonString(name) + ":{\"count\":" + std::to_string(hs.count) +
           ",\"window_count\":" + std::to_string(window_count) +
           ",\"rate_per_s\":" + JsonNumber(rate) +
           ",\"p50\":" +
           JsonNumber(QuantileFromBuckets(delta.bounds, delta.buckets,
                                          delta.count, 0.50)) +
           ",\"p95\":" +
           JsonNumber(QuantileFromBuckets(delta.bounds, delta.buckets,
                                          delta.count, 0.95)) +
           ",\"p99\":" +
           JsonNumber(QuantileFromBuckets(delta.bounds, delta.buckets,
                                          delta.count, 0.99)) +
           "}";
  }
  out += "}}";
  return out;
}

}  // namespace mpc::obs

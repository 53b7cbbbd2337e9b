#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <fstream>

#include "common/string_util.h"
#include "obs/json.h"
#include "obs/snapshot.h"
#include "obs/trace.h"

namespace mpc::obs {

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), buckets_(bounds_.size() + 1) {
  if (bounds_.empty()) bounds_ = DefaultLatencyBoundsMs();
  if (buckets_.size() != bounds_.size() + 1) {
    // bounds_ was defaulted above; size the buckets to match.
    std::vector<std::atomic<uint64_t>> fresh(bounds_.size() + 1);
    buckets_.swap(fresh);
  }
}

void Histogram::Observe(double value) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  const size_t bucket = static_cast<size_t>(it - bounds_.begin());
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
}

double Histogram::Quantile(double q) const {
  std::vector<uint64_t> buckets(buckets_.size());
  for (size_t b = 0; b < buckets_.size(); ++b) buckets[b] = bucket_count(b);
  return QuantileFromBuckets(bounds_, buckets, count(), q);
}

std::vector<double> DefaultLatencyBoundsMs() {
  std::vector<double> bounds;
  for (double b = 0.01; b < 60000.0; b *= std::sqrt(10.0)) bounds.push_back(b);
  return bounds;
}

MetricsRegistry& MetricsRegistry::Default() {
  static MetricsRegistry* registry = new MetricsRegistry;
  return *registry;
}

Counter& MetricsRegistry::CounterRef(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::GaugeRef(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::HistogramRef(const std::string& name,
                                         std::vector<double> bounds) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>(std::move(bounds));
  return *slot;
}

std::string MetricsRegistry::ToJson() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, counter] : counters_) {
    if (!first) out += ",";
    first = false;
    out += JsonString(name) + ":" + std::to_string(counter->value());
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, gauge] : gauges_) {
    if (!first) out += ",";
    first = false;
    out += JsonString(name) + ":" + JsonNumber(gauge->value());
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms_) {
    if (!first) out += ",";
    first = false;
    out += JsonString(name) + ":{\"count\":" + std::to_string(h->count()) +
           ",\"sum\":" + JsonNumber(h->sum()) +
           ",\"p50\":" + JsonNumber(h->Quantile(0.50)) +
           ",\"p95\":" + JsonNumber(h->Quantile(0.95)) +
           ",\"p99\":" + JsonNumber(h->Quantile(0.99)) + ",\"buckets\":[";
    bool first_bucket = true;
    for (size_t b = 0; b < h->num_buckets(); ++b) {
      const uint64_t count = h->bucket_count(b);
      if (count == 0) continue;  // sparse export
      if (!first_bucket) out += ",";
      first_bucket = false;
      const std::string le = b < h->bounds().size()
                                 ? JsonNumber(h->bounds()[b])
                                 : std::string("\"+inf\"");
      out += "{\"le\":" + le + ",\"count\":" + std::to_string(count) + "}";
    }
    out += "]}";
  }
  out += "}}";
  return out;
}

std::string MetricsRegistry::ToText() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string out;
  for (const auto& [name, counter] : counters_) {
    out += name + " " + FormatWithCommas(counter->value()) + "\n";
  }
  for (const auto& [name, gauge] : gauges_) {
    out += name + " " + FormatDouble(gauge->value(), 4) + "\n";
  }
  for (const auto& [name, h] : histograms_) {
    out += name + " count=" + FormatWithCommas(h->count()) +
           " sum=" + FormatDouble(h->sum(), 3) +
           " p50=" + FormatDouble(h->Quantile(0.50), 3) +
           " p95=" + FormatDouble(h->Quantile(0.95), 3) +
           " p99=" + FormatDouble(h->Quantile(0.99), 3) + "\n";
  }
  return out;
}

Status MetricsRegistry::WriteJson(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IoError("cannot open " + path + " for writing");
  const std::string json = ToJson();
  out.write(json.data(), static_cast<std::streamsize>(json.size()));
  out.flush();
  if (!out) return Status::IoError("write failed for " + path);
  return Status::Ok();
}

MetricsSnapshot MetricsRegistry::TakeSnapshot() const {
  MetricsSnapshot snapshot;
  snapshot.at_ms = TraceNowMicros() / 1000.0;
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [name, counter] : counters_) {
    snapshot.counters.emplace(name, counter->value());
  }
  for (const auto& [name, gauge] : gauges_) {
    snapshot.gauges.emplace(name, gauge->value());
  }
  for (const auto& [name, h] : histograms_) {
    HistogramSnapshot hs;
    hs.bounds = h->bounds();
    hs.buckets.resize(h->num_buckets());
    for (size_t b = 0; b < h->num_buckets(); ++b) {
      hs.buckets[b] = h->bucket_count(b);
    }
    hs.count = h->count();
    hs.sum = h->sum();
    snapshot.histograms.emplace(name, std::move(hs));
  }
  return snapshot;
}

void MetricsRegistry::ResetForTest() {
  std::lock_guard<std::mutex> lock(mutex_);
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
}

}  // namespace mpc::obs

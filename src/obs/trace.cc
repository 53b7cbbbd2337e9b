#include "obs/trace.h"

#include <algorithm>
#include <array>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>

#include "common/logging.h"
#include "common/string_util.h"
#include "obs/json.h"

namespace mpc::obs {

namespace internal {
std::atomic<bool> g_tracing_enabled{false};
}  // namespace internal

AttrValue AttrValue::Int(int64_t v) {
  AttrValue a;
  a.kind = Kind::kInt;
  a.i = v;
  return a;
}
AttrValue AttrValue::Uint(uint64_t v) {
  AttrValue a;
  a.kind = Kind::kUint;
  a.u = v;
  return a;
}
AttrValue AttrValue::Double(double v) {
  AttrValue a;
  a.kind = Kind::kDouble;
  a.d = v;
  return a;
}
AttrValue AttrValue::Str(std::string_view v) {
  AttrValue a;
  a.kind = Kind::kString;
  a.s.assign(v);
  return a;
}

namespace {

/// Per-thread event storage: a singly linked list of fixed chunks. The
/// owning thread appends with plain writes and publishes each event (and
/// each new chunk) with a release store; exporters walk the list with
/// acquire loads. No mutex is ever taken on the record path, and
/// published slots are immutable, so concurrent Collect is race-free.
constexpr size_t kChunkSize = 256;

struct Chunk {
  std::atomic<size_t> count{0};
  std::atomic<Chunk*> next{nullptr};
  std::array<TraceEvent, kChunkSize> events;
};

class ThreadBuffer {
 public:
  ThreadBuffer() : head_(new Chunk), tail_(head_) {}
  ~ThreadBuffer() {
    for (Chunk* c = head_; c != nullptr;) {
      Chunk* next = c->next.load(std::memory_order_acquire);
      delete c;
      c = next;
    }
  }

  /// Owner thread only.
  void Append(TraceEvent&& event) {
    size_t n = tail_->count.load(std::memory_order_relaxed);
    if (n == kChunkSize) {
      Chunk* fresh = new Chunk;
      tail_->next.store(fresh, std::memory_order_release);
      tail_ = fresh;
      n = 0;
    }
    tail_->events[n] = std::move(event);
    tail_->count.store(n + 1, std::memory_order_release);
  }

  /// Any thread. Appends every published event with index >=
  /// discard_before to `out`.
  void Snapshot(std::vector<TraceEvent>* out) const {
    const size_t skip = discard_before.load(std::memory_order_relaxed);
    size_t index = 0;
    for (const Chunk* c = head_; c != nullptr;
         c = c->next.load(std::memory_order_acquire)) {
      const size_t n = c->count.load(std::memory_order_acquire);
      for (size_t i = 0; i < n; ++i, ++index) {
        if (index >= skip) out->push_back(c->events[i]);
      }
    }
  }

  /// Any thread: events published so far.
  size_t TotalPublished() const {
    size_t total = 0;
    for (const Chunk* c = head_; c != nullptr;
         c = c->next.load(std::memory_order_acquire)) {
      total += c->count.load(std::memory_order_acquire);
    }
    return total;
  }

  /// Events recorded before StartTracing are logically discarded by
  /// advancing this watermark (the storage itself is append-only).
  std::atomic<size_t> discard_before{0};
  uint32_t tid = 0;

 private:
  Chunk* head_;
  Chunk* tail_;  // owner thread only
};

struct Registry {
  std::mutex mutex;
  /// shared_ptr so a buffer outlives its (possibly short-lived pool)
  /// thread: events survive until export.
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  Timer::Clock::time_point epoch = Timer::Now();
};

Registry& GlobalRegistry() {
  static Registry* registry = new Registry;
  return *registry;
}

ThreadBuffer& LocalBuffer() {
  thread_local std::shared_ptr<ThreadBuffer> buffer = [] {
    auto fresh = std::make_shared<ThreadBuffer>();
    Registry& registry = GlobalRegistry();
    std::lock_guard<std::mutex> lock(registry.mutex);
    fresh->tid = static_cast<uint32_t>(registry.buffers.size());
    registry.buffers.push_back(fresh);
    return fresh;
  }();
  return *buffer;
}

struct ThreadSpanState {
  uint64_t current_span = 0;
  uint64_t trace_id = 0;
  uint32_t depth = 0;
  std::string query_tag;
};

ThreadSpanState& SpanState() {
  thread_local ThreadSpanState state;
  return state;
}

std::atomic<uint64_t> g_next_span_id{1};

double MicrosSinceEpoch(Timer::Clock::time_point tp) {
  return Timer::MicrosBetween(GlobalRegistry().epoch, tp);
}

}  // namespace

uint64_t CurrentSpanId() { return SpanState().current_span; }

TraceContext CurrentTraceContext() {
  const ThreadSpanState& state = SpanState();
  TraceContext ctx;
  ctx.trace_id = state.trace_id;
  ctx.parent_span_id = state.current_span;
  ctx.query_tag = state.query_tag;
  return ctx;
}

std::string CurrentQueryTag() { return SpanState().query_tag; }

double TraceNowMicros() { return MicrosSinceEpoch(Timer::Now()); }

ScopedTraceContext::ScopedTraceContext(const TraceContext& ctx) {
  ThreadSpanState& state = SpanState();
  saved_trace_id_ = state.trace_id;
  saved_span_ = state.current_span;
  saved_depth_ = state.depth;
  saved_tag_ = std::move(state.query_tag);
  state.trace_id = ctx.trace_id;
  state.current_span = ctx.parent_span_id;
  state.depth = 0;
  state.query_tag = ctx.query_tag;
}

ScopedTraceContext::~ScopedTraceContext() {
  ThreadSpanState& state = SpanState();
  state.trace_id = saved_trace_id_;
  state.current_span = saved_span_;
  state.depth = saved_depth_;
  state.query_tag = std::move(saved_tag_);
}

namespace {
void AdvanceDiscardWatermarks() {
  Registry& registry = GlobalRegistry();
  std::lock_guard<std::mutex> lock(registry.mutex);
  for (auto& buffer : registry.buffers) {
    buffer->discard_before.store(buffer->TotalPublished(),
                                 std::memory_order_relaxed);
  }
}
}  // namespace

void StartTracing() {
  AdvanceDiscardWatermarks();
  SetLogSpanIdProvider(&CurrentSpanId);
  internal::g_tracing_enabled.store(true, std::memory_order_relaxed);
}

void StopTracing() {
  internal::g_tracing_enabled.store(false, std::memory_order_relaxed);
  SetLogSpanIdProvider(nullptr);
}

void DiscardTrace() { AdvanceDiscardWatermarks(); }

void TraceSpan::Begin(std::string_view name, bool detached) {
  active_ = true;
  detached_ = detached;
  name_.assign(name);
  ThreadSpanState& state = SpanState();
  parent_id_ = state.current_span;
  depth_ = state.depth;
  span_id_ = g_next_span_id.fetch_add(1, std::memory_order_relaxed);
  start_ = Timer::Now();
  if (detached) {
    // Leaves the thread state alone; without an ambient trace it is
    // still its own root.
    trace_id_ = state.trace_id != 0 ? state.trace_id : span_id_;
    return;
  }
  // A span with no ambient trace becomes its own trace root, so every
  // span chain — traced query or stray background work — carries a
  // trace id and per-query extraction never sees id-less spans.
  if (state.trace_id == 0) {
    state.trace_id = span_id_;
    owns_trace_ = true;
  }
  trace_id_ = state.trace_id;
  state.current_span = span_id_;
  ++state.depth;
}

void TraceSpan::End() {
  const Timer::Clock::time_point end = Timer::Now();
  if (!detached_) {
    ThreadSpanState& state = SpanState();
    state.current_span = parent_id_;
    --state.depth;
    if (owns_trace_) state.trace_id = 0;
  }

  ThreadBuffer& buffer = LocalBuffer();
  TraceEvent event;
  event.name = std::move(name_);
  event.span_id = span_id_;
  event.parent_id = parent_id_;
  event.trace_id = trace_id_;
  event.tid = buffer.tid;
  event.depth = depth_;
  event.start_us = MicrosSinceEpoch(start_);
  event.dur_us = Timer::MicrosBetween(start_, end);
  event.attrs = std::move(attrs_);
  buffer.Append(std::move(event));
}

TraceSpan& TraceSpan::Attr(std::string_view key, int64_t value) {
  if (active_) attrs_.push_back({std::string(key), AttrValue::Int(value)});
  return *this;
}
TraceSpan& TraceSpan::Attr(std::string_view key, uint64_t value) {
  if (active_) attrs_.push_back({std::string(key), AttrValue::Uint(value)});
  return *this;
}
TraceSpan& TraceSpan::Attr(std::string_view key, double value) {
  if (active_) attrs_.push_back({std::string(key), AttrValue::Double(value)});
  return *this;
}
TraceSpan& TraceSpan::Attr(std::string_view key, std::string_view value) {
  if (active_) attrs_.push_back({std::string(key), AttrValue::Str(value)});
  return *this;
}

std::string AttrValue::ToJson() const {
  switch (kind) {
    case Kind::kInt:
      return std::to_string(i);
    case Kind::kUint:
      return std::to_string(u);
    case Kind::kDouble:
      return JsonNumber(d);
    case Kind::kString:
      return JsonString(s);
  }
  return "null";
}

std::vector<TraceEvent> CollectTrace() {
  Registry& registry = GlobalRegistry();
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  {
    std::lock_guard<std::mutex> lock(registry.mutex);
    buffers = registry.buffers;
  }
  std::vector<TraceEvent> events;
  for (const auto& buffer : buffers) buffer->Snapshot(&events);
  std::stable_sort(events.begin(), events.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     if (a.pid != b.pid) return a.pid < b.pid;
                     if (a.tid != b.tid) return a.tid < b.tid;
                     return a.start_us < b.start_us;
                   });
  return events;
}

void RecordRemoteSpans(std::vector<TraceEvent> events, uint64_t trace_id,
                       uint64_t parent_span_id, double delta_us,
                       uint32_t pid) {
  if (events.empty()) return;
  // Remap the batch's span ids through the local allocator so remote
  // ids (allocated independently by the worker) cannot collide with
  // coordinator span ids or with another worker's batch.
  std::map<uint64_t, uint64_t> remap;
  for (const TraceEvent& e : events) {
    remap.emplace(e.span_id,
                  g_next_span_id.fetch_add(1, std::memory_order_relaxed));
  }
  ThreadBuffer& buffer = LocalBuffer();
  for (TraceEvent& e : events) {
    e.span_id = remap[e.span_id];
    auto parent = remap.find(e.parent_id);
    // A parent outside the batch is a worker-side ancestor we did not
    // ship; hang the span off the coordinator span that owns the call
    // so parent edges always close in the merged trace.
    e.parent_id = parent != remap.end() ? parent->second : parent_span_id;
    e.trace_id = trace_id;
    e.pid = pid;
    e.start_us += delta_us;
    buffer.Append(std::move(e));
  }
}

std::vector<TraceEvent> ExtractTraceForId(uint64_t trace_id) {
  std::vector<TraceEvent> events = CollectTrace();
  events.erase(std::remove_if(events.begin(), events.end(),
                              [trace_id](const TraceEvent& e) {
                                return e.trace_id != trace_id;
                              }),
               events.end());
  return events;
}

std::string TraceEventsToChromeJson(const std::vector<TraceEvent>& events) {
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  for (const TraceEvent& e : events) {
    if (!first) out += ",";
    first = false;
    // pid 0 is "this process"; keep the historical pid 1 in the export
    // so single-process traces are unchanged and remote pids (real OS
    // pids, never 1) stay distinct.
    const uint32_t pid = e.pid == 0 ? 1 : e.pid;
    out += "{\"name\":" + JsonString(e.name) +
           ",\"cat\":\"mpc\",\"ph\":\"X\",\"pid\":" + std::to_string(pid) +
           ",\"tid\":" + std::to_string(e.tid) +
           ",\"ts\":" + JsonNumber(e.start_us) +
           ",\"dur\":" + JsonNumber(e.dur_us) + ",\"args\":{";
    out += "\"span_id\":" + std::to_string(e.span_id);
    out += ",\"parent_id\":" + std::to_string(e.parent_id);
    if (e.trace_id != 0) {
      out += ",\"trace_id\":" + std::to_string(e.trace_id);
    }
    for (const TraceAttr& a : e.attrs) {
      out += "," + JsonString(a.key) + ":" + a.value.ToJson();
    }
    out += "}}";
  }
  out += "]}";
  return out;
}

std::string TraceToChromeJson() {
  return TraceEventsToChromeJson(CollectTrace());
}

namespace {

std::string FormatAttrs(const TraceEvent& e) {
  if (e.attrs.empty()) return "";
  std::string out = "  (";
  for (size_t i = 0; i < e.attrs.size(); ++i) {
    if (i > 0) out += " ";
    const AttrValue& v = e.attrs[i].value;
    out += e.attrs[i].key + "=";
    switch (v.kind) {
      case AttrValue::Kind::kInt:
        out += std::to_string(v.i);
        break;
      case AttrValue::Kind::kUint:
        out += std::to_string(v.u);
        break;
      case AttrValue::Kind::kDouble:
        out += FormatDouble(v.d, 3);
        break;
      case AttrValue::Kind::kString:
        out += v.s;
        break;
    }
  }
  out += ")";
  return out;
}

/// Merges consecutive sibling spans sharing a name into one tree line.
struct TreeNode {
  const TraceEvent* event = nullptr;
  std::vector<size_t> children;  // indices into the event vector
};

void PrintSubtree(const std::vector<TraceEvent>& events,
                  const std::map<uint64_t, TreeNode>& nodes,
                  const std::vector<size_t>& children, int indent,
                  std::string* out) {
  // Group siblings by name, preserving first-seen order.
  std::vector<std::string> order;
  std::map<std::string, std::vector<size_t>> by_name;
  for (size_t idx : children) {
    const std::string& name = events[idx].name;
    if (by_name.find(name) == by_name.end()) order.push_back(name);
    by_name[name].push_back(idx);
  }
  for (const std::string& name : order) {
    const std::vector<size_t>& group = by_name[name];
    double total_us = 0.0;
    for (size_t idx : group) total_us += events[idx].dur_us;
    out->append(static_cast<size_t>(indent) * 2, ' ');
    *out += name;
    if (group.size() > 1) {
      *out += " x" + std::to_string(group.size());
    }
    *out += "  " + FormatDouble(total_us / 1000.0, 3) + " ms";
    if (group.size() == 1) *out += FormatAttrs(events[group[0]]);
    *out += "\n";
    // Merge every group member's children into one child list so a
    // repeated stage shows one collapsed subtree.
    std::vector<size_t> merged;
    for (size_t idx : group) {
      auto it = nodes.find(events[idx].span_id);
      if (it != nodes.end()) {
        merged.insert(merged.end(), it->second.children.begin(),
                      it->second.children.end());
      }
    }
    if (!merged.empty()) {
      PrintSubtree(events, nodes, merged, indent + 1, out);
    }
  }
}

}  // namespace

std::string TraceToTextTree() {
  const std::vector<TraceEvent> events = CollectTrace();
  std::string out;
  // Per (process, thread) track: index events, attach children to
  // parents (a parent's event exists whenever its children do — spans
  // close inside-out), and print roots in start order.
  std::vector<std::pair<uint32_t, uint32_t>> tracks;
  for (const TraceEvent& e : events) {
    const std::pair<uint32_t, uint32_t> track{e.pid, e.tid};
    if (tracks.empty() || tracks.back() != track) tracks.push_back(track);
  }
  for (const auto& [pid, tid] : tracks) {
    std::map<uint64_t, TreeNode> nodes;
    for (size_t i = 0; i < events.size(); ++i) {
      if (events[i].pid == pid && events[i].tid == tid) {
        nodes[events[i].span_id].event = &events[i];
      }
    }
    std::vector<size_t> roots;
    for (size_t i = 0; i < events.size(); ++i) {
      if (events[i].pid != pid || events[i].tid != tid) continue;
      auto parent = nodes.find(events[i].parent_id);
      if (events[i].parent_id != 0 && parent != nodes.end()) {
        parent->second.children.push_back(i);
      } else {
        roots.push_back(i);
      }
    }
    out += pid == 0 ? "[thread " + std::to_string(tid) + "]\n"
                    : "[pid " + std::to_string(pid) + " thread " +
                          std::to_string(tid) + "]\n";
    PrintSubtree(events, nodes, roots, 1, &out);
  }
  return out;
}

namespace {
Status WriteStringToFile(const std::string& json, const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IoError("cannot open " + path + " for writing");
  out.write(json.data(), static_cast<std::streamsize>(json.size()));
  out.flush();
  if (!out) return Status::IoError("write failed for " + path);
  return Status::Ok();
}
}  // namespace

Status WriteTrace(const std::string& path) {
  return WriteStringToFile(TraceToChromeJson(), path);
}

Status WriteTraceForId(uint64_t trace_id, const std::string& path) {
  return WriteStringToFile(TraceEventsToChromeJson(ExtractTraceForId(trace_id)),
                           path);
}

}  // namespace mpc::obs

#ifndef MPC_OBS_TRACE_H_
#define MPC_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "common/timer.h"

namespace mpc::obs {

/// Typed span attribute value (the "args" of a Chrome trace event).
struct AttrValue {
  enum class Kind { kInt, kUint, kDouble, kString };
  Kind kind = Kind::kInt;
  int64_t i = 0;
  uint64_t u = 0;
  double d = 0.0;
  std::string s;

  static AttrValue Int(int64_t v);
  static AttrValue Uint(uint64_t v);
  static AttrValue Double(double v);
  static AttrValue Str(std::string_view v);

  /// JSON-encoded value ("42", "1.5", "\"greedy\"").
  std::string ToJson() const;
};

struct TraceAttr {
  std::string key;
  AttrValue value;
};

/// One completed span. Timestamps are microseconds on the process-wide
/// monotonic trace clock (Timer::Clock), so events from every thread
/// share one time axis.
struct TraceEvent {
  std::string name;
  uint64_t span_id = 0;
  /// Enclosing span on the same thread at the moment this span opened
  /// (0 = top-level).
  uint64_t parent_id = 0;
  /// Id of the query-level trace this span belongs to. A top-level span
  /// with no ambient context becomes its own trace root (trace_id ==
  /// span_id), so every span chain carries a trace id uniformly.
  uint64_t trace_id = 0;
  /// Dense per-process trace thread index (registration order, not the
  /// OS tid — stable across runs with the same thread structure).
  uint32_t tid = 0;
  /// Originating OS process for merged multi-process traces. 0 means
  /// "this process"; exporters render it as pid 1 for compatibility with
  /// single-process traces. Remote spans ingested via RecordRemoteSpans
  /// carry the worker's real pid.
  uint32_t pid = 0;
  uint32_t depth = 0;
  double start_us = 0.0;
  double dur_us = 0.0;
  std::vector<TraceAttr> attrs;
};

/// Propagatable slice of the ambient tracing state: which query-level
/// trace the current work belongs to and which span should adopt spans
/// opened under it. Crosses threads (executor pool lambdas) and, via
/// EvalRequestMsg, process boundaries (site workers).
struct TraceContext {
  uint64_t trace_id = 0;
  uint64_t parent_span_id = 0;
  /// Free-form query label (ExecOptions::trace_tag) — propagated so a
  /// site worker's spans can be attributed to the query that caused
  /// them without joining on span ids.
  std::string query_tag;

  bool empty() const { return trace_id == 0; }
};

namespace internal {
extern std::atomic<bool> g_tracing_enabled;
}  // namespace internal

/// The whole-program tracing switch. When false, a TraceSpan costs one
/// relaxed atomic load and nothing is recorded.
inline bool TracingEnabled() {
  return internal::g_tracing_enabled.load(std::memory_order_relaxed);
}

/// Enables tracing. Events recorded before this call are discarded, so a
/// Start/Collect pair brackets exactly one traced region. Also installs
/// the span-id provider so MPC_LOG lines carry the active span id.
void StartTracing();

/// Disables tracing (recorded events stay collectable).
void StopTracing();

/// Logically discards everything recorded so far (advances the per-
/// thread watermarks exactly like StartTracing) without toggling the
/// enabled flag. Site workers call this after shipping a query's spans
/// so their buffers stay bounded across a long-lived connection.
void DiscardTrace();

/// Id of the innermost open span on this thread (0 = none).
uint64_t CurrentSpanId();

/// The ambient trace context of this thread: the innermost open span
/// and its trace id (plus the installed query tag, if any). Capture
/// this before handing work to another thread, then install it there
/// with ScopedTraceContext.
TraceContext CurrentTraceContext();

/// Microseconds elapsed on the process-wide trace clock (the same axis
/// as TraceEvent::start_us). Used to re-base remote span timestamps.
double TraceNowMicros();

/// Installs a trace context on this thread for the current scope:
/// spans opened inside adopt ctx.trace_id and parent to
/// ctx.parent_span_id. Restores the previous thread state (including
/// any ambient context) on destruction. An empty context installs
/// cleanly and simply isolates the scope from the caller's spans.
class ScopedTraceContext {
 public:
  explicit ScopedTraceContext(const TraceContext& ctx);
  ~ScopedTraceContext();

  ScopedTraceContext(const ScopedTraceContext&) = delete;
  ScopedTraceContext& operator=(const ScopedTraceContext&) = delete;

 private:
  uint64_t saved_trace_id_ = 0;
  uint64_t saved_span_ = 0;
  uint32_t saved_depth_ = 0;
  std::string saved_tag_;
};

/// The query tag installed by the innermost ScopedTraceContext (empty
/// when none is installed).
std::string CurrentQueryTag();

/// RAII span. Opened (and its id published for nesting/log correlation)
/// at construction, recorded at destruction. Record-side cost is one
/// append to a per-thread chunk list — no locks, no contention with
/// other threads; exporters synchronize on per-chunk release/acquire
/// counters. Use via MPC_TRACE_SPAN for the common no-attribute case, or
/// construct directly to attach attributes:
///
///   obs::TraceSpan span("mpc.selection");
///   span.Attr("iterations", result.iterations);
class TraceSpan {
 public:
  /// Marks a span that parents to the current span but never becomes
  /// the current span itself, so spans opened after it are its siblings
  /// and it may close in any order. For work whose lifetime is no scope
  /// on this thread's span stack: the pipelined RPC scatter keeps one
  /// attempt span per site open while every site's reply is in flight.
  enum class Detached { kDetached };

  explicit TraceSpan(std::string_view name) {
    if (TracingEnabled()) Begin(name, /*detached=*/false);
  }
  TraceSpan(std::string_view name, Detached) {
    if (TracingEnabled()) Begin(name, /*detached=*/true);
  }
  ~TraceSpan() {
    if (active_) End();
  }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  TraceSpan& Attr(std::string_view key, int64_t value);
  TraceSpan& Attr(std::string_view key, uint64_t value);
  TraceSpan& Attr(std::string_view key, double value);
  TraceSpan& Attr(std::string_view key, std::string_view value);
  TraceSpan& Attr(std::string_view key, const char* value) {
    return Attr(key, std::string_view(value));
  }
  TraceSpan& Attr(std::string_view key, int value) {
    return Attr(key, static_cast<int64_t>(value));
  }
  TraceSpan& Attr(std::string_view key, unsigned value) {
    return Attr(key, static_cast<uint64_t>(value));
  }

  bool active() const { return active_; }
  /// This span's id (0 when tracing was off at construction).
  uint64_t id() const { return span_id_; }

 private:
  void Begin(std::string_view name, bool detached);
  void End();

  bool active_ = false;
  bool detached_ = false;
  bool owns_trace_ = false;
  uint64_t span_id_ = 0;
  uint64_t parent_id_ = 0;
  uint64_t trace_id_ = 0;
  uint32_t depth_ = 0;
  Timer::Clock::time_point start_{};
  std::string name_;
  std::vector<TraceAttr> attrs_;
};

/// Snapshot of every event recorded since StartTracing, sorted by
/// (pid, tid, start_us). Safe to call while other threads still trace;
/// events being appended concurrently may or may not be included.
std::vector<TraceEvent> CollectTrace();

/// Ingests spans recorded by another process (a site worker) into this
/// process's trace under `trace_id`. Span ids are remapped through the
/// local id allocator so they cannot collide with coordinator spans;
/// parent edges internal to the batch are remapped consistently, and
/// spans whose parent is not in the batch are re-parented to
/// `parent_span_id` (the coordinator-side span that owns the remote
/// call). Timestamps are shifted by `delta_us` onto the local trace
/// clock and every event is stamped with the worker's `pid`. Call from
/// the thread that owns the remote call (appends to its buffer).
void RecordRemoteSpans(std::vector<TraceEvent> events, uint64_t trace_id,
                       uint64_t parent_span_id, double delta_us,
                       uint32_t pid);

/// Every collected event whose trace_id matches — one query's merged
/// trace (coordinator + ingested site-worker spans).
std::vector<TraceEvent> ExtractTraceForId(uint64_t trace_id);

/// Chrome trace_event JSON ({"traceEvents":[...]}) — loadable in
/// chrome://tracing and Perfetto. Span ids, trace ids and attributes
/// land in each event's "args"; remote events keep their real pid.
std::string TraceToChromeJson();

/// Chrome trace_event JSON for an explicit event list (e.g. the output
/// of ExtractTraceForId).
std::string TraceEventsToChromeJson(const std::vector<TraceEvent>& events);

/// Collapsed per-thread call tree for terminals: siblings with the same
/// name are merged into one line with a count and total duration.
std::string TraceToTextTree();

/// Writes TraceToChromeJson() to `path`.
Status WriteTrace(const std::string& path);

/// Writes the merged trace for one trace id to `path`.
Status WriteTraceForId(uint64_t trace_id, const std::string& path);

}  // namespace mpc::obs

#define MPC_OBS_CONCAT_INNER_(a, b) a##b
#define MPC_OBS_CONCAT_(a, b) MPC_OBS_CONCAT_INNER_(a, b)

/// Anonymous RAII scope: MPC_TRACE_SPAN("coarsen"); traces to the end of
/// the enclosing block.
#define MPC_TRACE_SPAN(name) \
  ::mpc::obs::TraceSpan MPC_OBS_CONCAT_(mpc_trace_span_, __LINE__)(name)

#endif  // MPC_OBS_TRACE_H_

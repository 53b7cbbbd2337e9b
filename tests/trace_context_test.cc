// Distributed-trace context propagation: the ambient TraceContext, its
// wire codec on EvalRequest/EvalReply (protocol v2), remote-span ingest
// (remap + re-parent + re-base), and merged-trace assembly under
// concurrency. Codec tests follow net_frame_test's rigor: full round
// trips, every-prefix truncation sweeps, random single-byte corruption.

#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/random.h"
#include "common/thread_pool.h"
#include "exec/cluster.h"
#include "exec/rpc_protocol.h"
#include "gtest/gtest.h"
#include "obs/json.h"
#include "obs/trace.h"

namespace mpc::exec {
namespace {

class TraceContextTest : public ::testing::Test {
 protected:
  void TearDown() override { obs::StopTracing(); }
};

const obs::TraceEvent* FindEvent(const std::vector<obs::TraceEvent>& events,
                                 const std::string& name) {
  for (const obs::TraceEvent& e : events) {
    if (e.name == name) return &e;
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Ambient context semantics.

TEST_F(TraceContextTest, TopLevelSpanIsItsOwnTraceRoot) {
  obs::StartTracing();
  { obs::TraceSpan a("root.a"); }
  { obs::TraceSpan b("root.b"); }
  const std::vector<obs::TraceEvent> events = obs::CollectTrace();
  const obs::TraceEvent* a = FindEvent(events, "root.a");
  const obs::TraceEvent* b = FindEvent(events, "root.b");
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  // A root with no ambient context starts its own trace...
  EXPECT_EQ(a->trace_id, a->span_id);
  EXPECT_EQ(b->trace_id, b->span_id);
  // ...and sibling roots are distinct traces.
  EXPECT_NE(a->trace_id, b->trace_id);
}

TEST_F(TraceContextTest, NestedSpansInheritTheRootsTraceId) {
  obs::StartTracing();
  {
    obs::TraceSpan root("q");
    obs::TraceSpan child("q.child");
    obs::TraceSpan grandchild("q.grandchild");
  }
  const std::vector<obs::TraceEvent> events = obs::CollectTrace();
  ASSERT_EQ(events.size(), 3u);
  const obs::TraceEvent* root = FindEvent(events, "q");
  for (const obs::TraceEvent& e : events) {
    EXPECT_EQ(e.trace_id, root->span_id) << e.name;
  }
}

// Detached spans (one per site of a pipelined RPC batch) overlap on one
// thread: each parents to the span current at its opening, none becomes
// current, and they may close in any order.
TEST_F(TraceContextTest, DetachedSpansAreOverlappingSiblings) {
  obs::StartTracing();
  uint64_t root_id = 0;
  uint64_t first_id = 0;
  {
    obs::TraceSpan root("batch");
    root_id = root.id();
    auto first = std::make_unique<obs::TraceSpan>(
        "site", obs::TraceSpan::Detached::kDetached);
    auto second = std::make_unique<obs::TraceSpan>(
        "site", obs::TraceSpan::Detached::kDetached);
    first_id = first->id();
    EXPECT_EQ(obs::CurrentSpanId(), root_id);
    first.reset();  // closes before the later-opened sibling
    { obs::TraceSpan child("child"); }
    second.reset();
    EXPECT_EQ(obs::CurrentSpanId(), root_id);
  }
  EXPECT_EQ(obs::CurrentSpanId(), 0u);
  const std::vector<obs::TraceEvent> events = obs::CollectTrace();
  ASSERT_EQ(events.size(), 4u);
  for (const obs::TraceEvent& e : events) {
    EXPECT_EQ(e.trace_id, root_id) << e.name;
    if (e.name != "batch") {
      EXPECT_EQ(e.parent_id, root_id) << e.name;
    }
  }
  EXPECT_NE(first_id, 0u);
  EXPECT_NE(first_id, root_id);
}

TEST_F(TraceContextTest, ScopedContextInstallsAndRestores) {
  obs::StartTracing();
  obs::TraceContext ctx;
  uint64_t outer_span = 0;
  {
    obs::TraceSpan outer("outer");
    ctx = obs::CurrentTraceContext();
    EXPECT_EQ(ctx.parent_span_id, obs::CurrentSpanId());
    EXPECT_FALSE(ctx.empty());
    outer_span = obs::CurrentSpanId();
    {
      obs::TraceContext tagged = ctx;
      tagged.query_tag = "tenant-7";
      obs::ScopedTraceContext scope(tagged);
      EXPECT_EQ(obs::CurrentQueryTag(), "tenant-7");
      obs::TraceSpan inner("inner");
      EXPECT_EQ(obs::CurrentTraceContext().trace_id, ctx.trace_id);
    }
    // Everything restored: span, tag.
    EXPECT_EQ(obs::CurrentSpanId(), outer_span);
    EXPECT_EQ(obs::CurrentQueryTag(), "");
  }
  const std::vector<obs::TraceEvent> events = obs::CollectTrace();
  const obs::TraceEvent* inner = FindEvent(events, "inner");
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(inner->trace_id, ctx.trace_id);
  EXPECT_EQ(inner->parent_id, outer_span);
}

TEST_F(TraceContextTest, EmptyContextIsolatesTheScope) {
  obs::StartTracing();
  obs::TraceSpan outer("outer");
  {
    obs::ScopedTraceContext scope(obs::TraceContext{});
    obs::TraceSpan inner("isolated");
  }
  const std::vector<obs::TraceEvent> events = obs::CollectTrace();
  const obs::TraceEvent* inner = FindEvent(events, "isolated");
  ASSERT_NE(inner, nullptr);
  // Isolated scope: the span rooted a fresh trace, not the outer one.
  EXPECT_EQ(inner->parent_id, 0u);
  EXPECT_EQ(inner->trace_id, inner->span_id);
}

TEST_F(TraceContextTest, DisabledTracingYieldsEmptyContext) {
  ASSERT_FALSE(obs::TracingEnabled());
  obs::TraceSpan span("never");
  EXPECT_TRUE(obs::CurrentTraceContext().empty());
}

// Merged assembly under concurrency: 8 threads record spans under one
// propagated context; no span is lost, every span carries the trace id,
// and every parent edge resolves within the extracted trace.
TEST_F(TraceContextTest, EightThreadsAssembleOneTraceWithoutLoss) {
  obs::StartTracing();
  constexpr int kThreads = 8;
  constexpr int kSpansPerThread = 50;
  uint64_t trace_id = 0;
  {
    obs::TraceSpan root("fanout.root");
    const obs::TraceContext ctx = obs::CurrentTraceContext();
    trace_id = ctx.trace_id;
    ParallelFor(0, kThreads, 1, kThreads, [&](size_t t) {
      obs::ScopedTraceContext scope(ctx);
      for (int i = 0; i < kSpansPerThread; ++i) {
        obs::TraceSpan outer("w.outer");
        obs::TraceSpan inner("w.inner");
        (void)t;
      }
    });
  }
  const std::vector<obs::TraceEvent> events =
      obs::ExtractTraceForId(trace_id);
  // root + per-thread outer/inner pairs, none lost.
  ASSERT_EQ(events.size(), 1u + 2u * kThreads * kSpansPerThread);
  std::set<uint64_t> span_ids;
  for (const obs::TraceEvent& e : events) {
    EXPECT_EQ(e.trace_id, trace_id);
    span_ids.insert(e.span_id);
  }
  EXPECT_EQ(span_ids.size(), events.size()) << "span ids must be unique";
  const obs::TraceEvent* root = FindEvent(events, "fanout.root");
  ASSERT_NE(root, nullptr);
  for (const obs::TraceEvent& e : events) {
    if (e.span_id == root->span_id) continue;
    // Parent closure: every parent edge resolves inside the trace.
    EXPECT_TRUE(span_ids.count(e.parent_id) == 1) << e.name;
    if (e.name == "w.outer") {
      EXPECT_EQ(e.parent_id, root->span_id);
    }
  }
}

// ---------------------------------------------------------------------------
// Remote-span ingest.

TEST_F(TraceContextTest, RecordRemoteSpansRemapsReparentsAndStampsPid) {
  obs::StartTracing();
  uint64_t trace_id = 0;
  uint64_t attempt_span = 0;
  {
    obs::TraceSpan attempt("rpc.attempt");
    const obs::TraceContext ctx = obs::CurrentTraceContext();
    trace_id = ctx.trace_id;
    attempt_span = ctx.parent_span_id;

    // Worker-local batch: root (id 7, parent 0 out-of-batch) with one
    // child (id 8). Ids chosen to collide with plausible local ids.
    obs::TraceEvent wroot;
    wroot.name = "site.eval";
    wroot.span_id = 7;
    wroot.parent_id = 0;
    wroot.start_us = 100.0;
    wroot.dur_us = 50.0;
    obs::TraceEvent wchild;
    wchild.name = "site.scan";
    wchild.span_id = 8;
    wchild.parent_id = 7;
    wchild.start_us = 110.0;
    wchild.dur_us = 20.0;
    obs::RecordRemoteSpans({wroot, wchild}, trace_id, attempt_span,
                           /*delta_us=*/1000.0, /*pid=*/4242);
  }
  const std::vector<obs::TraceEvent> events =
      obs::ExtractTraceForId(trace_id);
  ASSERT_EQ(events.size(), 3u);
  const obs::TraceEvent* attempt = FindEvent(events, "rpc.attempt");
  const obs::TraceEvent* root = FindEvent(events, "site.eval");
  const obs::TraceEvent* child = FindEvent(events, "site.scan");
  ASSERT_NE(attempt, nullptr);
  ASSERT_NE(root, nullptr);
  ASSERT_NE(child, nullptr);
  // Out-of-batch parent -> re-parented to the coordinator attempt span.
  EXPECT_EQ(root->parent_id, attempt->span_id);
  // In-batch edge remapped consistently; ids no longer worker-local.
  EXPECT_EQ(child->parent_id, root->span_id);
  EXPECT_NE(root->span_id, 7u);
  EXPECT_NE(child->span_id, 8u);
  // Clock re-based and pid stamped.
  EXPECT_DOUBLE_EQ(root->start_us, 1100.0);
  EXPECT_DOUBLE_EQ(child->start_us, 1110.0);
  EXPECT_EQ(root->pid, 4242u);
  EXPECT_EQ(child->pid, 4242u);
  EXPECT_EQ(attempt->pid, 0u);
}

TEST_F(TraceContextTest, MergedChromeJsonCarriesTraceIdAndRealPids) {
  obs::StartTracing();
  uint64_t trace_id = 0;
  {
    obs::TraceSpan attempt("rpc.attempt");
    trace_id = obs::CurrentTraceContext().trace_id;
    obs::TraceEvent remote;
    remote.name = "site.eval";
    remote.span_id = 1;
    remote.start_us = 5.0;
    remote.dur_us = 1.0;
    obs::RecordRemoteSpans({remote}, trace_id,
                           obs::CurrentTraceContext().parent_span_id, 0.0,
                           999);
  }
  const std::string json =
      obs::TraceEventsToChromeJson(obs::ExtractTraceForId(trace_id));
  Result<obs::JsonValue> parsed = obs::ParseJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const obs::JsonValue* events = parsed->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->array.size(), 2u);
  std::set<double> pids;
  for (const obs::JsonValue& e : events->array) {
    const obs::JsonValue* args = e.Find("args");
    ASSERT_NE(args, nullptr);
    const obs::JsonValue* tid = args->Find("trace_id");
    ASSERT_NE(tid, nullptr);
    EXPECT_EQ(tid->number, static_cast<double>(trace_id));
    pids.insert(e.Find("pid")->number);
  }
  // Local events export as pid 1; the remote keeps its real pid.
  EXPECT_EQ(pids, (std::set<double>{1.0, 999.0}));
}

// ---------------------------------------------------------------------------
// Wire codec: EvalRequest trace context.

store::ResolvedQuery MakeResolved() {
  store::ResolvedQuery resolved;
  resolved.num_vars = 2;
  store::ResolvedPattern p;
  p.s_is_var = true;
  p.s = 0;
  p.p = 17;
  p.o_is_var = true;
  p.o = 1;
  resolved.patterns.push_back(p);
  return resolved;
}

TEST(TraceCodecTest, EvalRequestRoundTripsTraceContext) {
  const store::ResolvedQuery resolved = MakeResolved();
  const std::vector<size_t> indices = {0};
  SiteEvalRequest request;
  request.pattern_indices = indices;
  obs::TraceContext trace;
  trace.trace_id = 0xDEADBEEFCAFEF00Dull;
  trace.parent_span_id = 42;
  trace.query_tag = "replay:LQ2 \"quoted\"\n";
  Result<EvalRequestMsg> decoded =
      DecodeEvalRequest(EncodeEvalRequest(resolved, request, trace));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->trace.trace_id, trace.trace_id);
  EXPECT_EQ(decoded->trace.parent_span_id, trace.parent_span_id);
  EXPECT_EQ(decoded->trace.query_tag, trace.query_tag);
}

TEST(TraceCodecTest, EvalRequestWithoutContextDecodesEmpty) {
  const store::ResolvedQuery resolved = MakeResolved();
  const std::vector<size_t> indices = {0};
  SiteEvalRequest request;
  request.pattern_indices = indices;
  Result<EvalRequestMsg> decoded =
      DecodeEvalRequest(EncodeEvalRequest(resolved, request));
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->trace.empty());
  EXPECT_EQ(decoded->trace.parent_span_id, 0u);
  EXPECT_TRUE(decoded->trace.query_tag.empty());
}

// ---------------------------------------------------------------------------
// Wire codec: EvalReply span list.

std::vector<obs::TraceEvent> MakeSpans() {
  std::vector<obs::TraceEvent> spans;
  obs::TraceEvent root;
  root.name = "site.eval";
  root.span_id = 1;
  root.parent_id = 0;
  root.tid = 0;
  root.depth = 0;
  root.start_us = 1234.5;
  root.dur_us = 99.25;
  root.attrs.push_back({"site", obs::AttrValue::Uint(3)});
  root.attrs.push_back({"delta", obs::AttrValue::Int(-7)});
  root.attrs.push_back({"ratio", obs::AttrValue::Double(0.125)});
  root.attrs.push_back({"tag", obs::AttrValue::Str("q\"uote\\d")});
  spans.push_back(root);
  obs::TraceEvent child;
  child.name = "site.scan";
  child.span_id = 2;
  child.parent_id = 1;
  child.tid = 1;
  child.depth = 1;
  child.start_us = 1240.0;
  child.dur_us = 10.0;
  spans.push_back(child);
  return spans;
}

SiteEvalReply MakeReply() {
  SiteEvalReply reply;
  reply.table.var_ids = {0, 1};
  reply.table.rows = {{1, 2}, {3, 4}};
  reply.bloom_dropped = 5;
  reply.eval_millis = 2.5;
  return reply;
}

TEST(TraceCodecTest, EvalReplyRoundTripsSpansWithEveryAttrKind) {
  const std::vector<obs::TraceEvent> spans = MakeSpans();
  SiteEvalReply decoded;
  std::vector<obs::TraceEvent> decoded_spans;
  Status st = DecodeEvalReply(EncodeEvalReply(MakeReply(), spans), &decoded,
                              &decoded_spans);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(decoded.table.rows.size(), 2u);
  ASSERT_EQ(decoded_spans.size(), spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const obs::TraceEvent& a = spans[i];
    const obs::TraceEvent& b = decoded_spans[i];
    EXPECT_EQ(b.name, a.name);
    EXPECT_EQ(b.span_id, a.span_id);
    EXPECT_EQ(b.parent_id, a.parent_id);
    EXPECT_EQ(b.tid, a.tid);
    EXPECT_EQ(b.depth, a.depth);
    EXPECT_DOUBLE_EQ(b.start_us, a.start_us);
    EXPECT_DOUBLE_EQ(b.dur_us, a.dur_us);
    ASSERT_EQ(b.attrs.size(), a.attrs.size());
    for (size_t j = 0; j < a.attrs.size(); ++j) {
      EXPECT_EQ(b.attrs[j].key, a.attrs[j].key);
      EXPECT_EQ(b.attrs[j].value.kind, a.attrs[j].value.kind);
      EXPECT_EQ(b.attrs[j].value.ToJson(), a.attrs[j].value.ToJson());
    }
  }
}

TEST(TraceCodecTest, EvalReplyWithoutSpanSinkSkipsThemCleanly) {
  SiteEvalReply decoded;
  Status st =
      DecodeEvalReply(EncodeEvalReply(MakeReply(), MakeSpans()), &decoded);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(decoded.table.rows.size(), 2u);
}

TEST(TraceCodecTest, EvalReplySpanCapKeepsEarliestSpans) {
  std::vector<obs::TraceEvent> spans;
  for (uint32_t i = 0; i < kMaxSpansPerReply + 100; ++i) {
    obs::TraceEvent e;
    e.name = "s" + std::to_string(i);
    e.span_id = i + 1;
    e.start_us = static_cast<double>(i);
    spans.push_back(e);
  }
  SiteEvalReply decoded;
  std::vector<obs::TraceEvent> decoded_spans;
  Status st = DecodeEvalReply(EncodeEvalReply(MakeReply(), spans), &decoded,
                              &decoded_spans);
  ASSERT_TRUE(st.ok()) << st.ToString();
  ASSERT_EQ(decoded_spans.size(), kMaxSpansPerReply);
  // Earliest-first: the cap drops the tail, never the root.
  EXPECT_EQ(decoded_spans.front().name, "s0");
  EXPECT_EQ(decoded_spans.back().name,
            "s" + std::to_string(kMaxSpansPerReply - 1));
}

TEST(TraceCodecTest, HostileSpanCountIsRejectedBeforeAllocation) {
  // A forged count past the cap must ParseError without allocating.
  // The span count is the trailing u32 of a zero-span encoding; replace
  // it with a hostile value (little-endian, matching ByteWriter).
  const std::string base = EncodeEvalReply(MakeReply());
  std::string hostile(base.begin(), base.end() - 4);
  const uint32_t bogus = kMaxSpansPerReply + 1;
  for (int i = 0; i < 4; ++i) {
    hostile.push_back(static_cast<char>((bogus >> (8 * i)) & 0xff));
  }
  SiteEvalReply sink;
  std::vector<obs::TraceEvent> spans;
  Status st = DecodeEvalReply(hostile, &sink, &spans);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kParseError);
}

TEST(TraceCodecTest, EveryTruncationFailsCleanly) {
  const store::ResolvedQuery resolved = MakeResolved();
  const std::vector<size_t> indices = {0};
  SiteEvalRequest request;
  request.pattern_indices = indices;
  obs::TraceContext trace;
  trace.trace_id = 7;
  trace.parent_span_id = 9;
  trace.query_tag = "t";
  struct Case {
    std::string bytes;
    std::function<Status(std::string_view)> decode;
  };
  const std::vector<Case> cases = {
      {EncodeEvalRequest(resolved, request, trace),
       [](std::string_view p) { return DecodeEvalRequest(p).status(); }},
      {EncodeEvalReply(MakeReply(), MakeSpans()),
       [](std::string_view p) {
         SiteEvalReply sink;
         std::vector<obs::TraceEvent> spans;
         return DecodeEvalReply(p, &sink, &spans);
       }},
  };
  for (const Case& c : cases) {
    EXPECT_TRUE(c.decode(c.bytes).ok());
    for (size_t len = 0; len < c.bytes.size(); ++len) {
      Status st = c.decode(std::string_view(c.bytes).substr(0, len));
      EXPECT_FALSE(st.ok()) << "prefix " << len << "/" << c.bytes.size();
      EXPECT_EQ(st.code(), StatusCode::kParseError);
    }
  }
}

TEST(TraceCodecTest, RandomCorruptionsNeverMisbehave) {
  const std::string base = EncodeEvalReply(MakeReply(), MakeSpans());
  Rng rng(99);
  for (int trial = 0; trial < 500; ++trial) {
    std::string mutated = base;
    mutated[rng.Below(mutated.size())] ^=
        static_cast<char>(1 + rng.Below(255));
    SiteEvalReply sink;
    std::vector<obs::TraceEvent> spans;
    Status st = DecodeEvalReply(mutated, &sink, &spans);
    if (!st.ok()) {
      EXPECT_EQ(st.code(), StatusCode::kParseError);
    }
  }
}

}  // namespace
}  // namespace mpc::exec

#include "exec/rpc_protocol.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "net/bytes.h"

namespace mpc::exec {

using net::ByteReader;
using net::ByteWriter;

namespace {

/// Guards a count field against allocating more than the payload could
/// possibly back: every element needs at least `elem_bytes` bytes.
Status CheckCount(uint64_t count, size_t elem_bytes, size_t remaining,
                  const char* what) {
  if (count <= remaining / elem_bytes) return Status::Ok();
  return Status::ParseError(std::string(what) + " count " +
                            std::to_string(count) +
                            " exceeds what the payload can hold");
}

}  // namespace

std::string EncodeHello(const HelloMsg& msg) {
  ByteWriter w;
  w.U32(msg.site);
  w.U32(msg.k);
  w.U64(msg.pid);
  w.F64(msg.load_millis);
  w.U64(msg.memory_bytes);
  w.Str(std::string_view(
      reinterpret_cast<const char*>(msg.property_present.data()),
      msg.property_present.size()));
  return w.Take();
}

Result<HelloMsg> DecodeHello(std::string_view payload) {
  ByteReader r(payload);
  HelloMsg msg;
  MPC_RETURN_IF_ERROR(r.U32(&msg.site));
  MPC_RETURN_IF_ERROR(r.U32(&msg.k));
  MPC_RETURN_IF_ERROR(r.U64(&msg.pid));
  MPC_RETURN_IF_ERROR(r.F64(&msg.load_millis));
  MPC_RETURN_IF_ERROR(r.U64(&msg.memory_bytes));
  std::string presence;
  MPC_RETURN_IF_ERROR(r.Str(&presence));
  msg.property_present.assign(presence.begin(), presence.end());
  MPC_RETURN_IF_ERROR(r.ExpectEnd());
  return msg;
}

std::string EncodeEvalRequest(const store::ResolvedQuery& resolved,
                              const SiteEvalRequest& request,
                              const obs::TraceContext& trace) {
  ByteWriter w;
  w.U64(resolved.num_vars);
  w.U32(static_cast<uint32_t>(resolved.patterns.size()));
  for (const store::ResolvedPattern& p : resolved.patterns) {
    uint8_t flags = 0;
    flags |= p.s_is_var ? 1 : 0;
    flags |= p.p_is_var ? 2 : 0;
    flags |= p.o_is_var ? 4 : 0;
    flags |= p.impossible ? 8 : 0;
    w.U8(flags);
    w.U32(p.s);
    w.U32(p.p);
    w.U32(p.o);
  }
  w.U32(static_cast<uint32_t>(request.pattern_indices.size()));
  for (size_t idx : request.pattern_indices) {
    w.U32(static_cast<uint32_t>(idx));
  }
  w.U64(request.max_rows);
  // Only filters over variables this sub-BGP binds matter site-side,
  // but shipping the full set keeps encode trivial; workers index by
  // var id anyway.
  uint32_t num_filters = 0;
  std::string filters;
  if (request.var_filters != nullptr) {
    ByteWriter fw;
    for (uint32_t var = 0; var < request.var_filters->size(); ++var) {
      const auto& filter = (*request.var_filters)[var];
      if (filter == nullptr) continue;
      ++num_filters;
      fw.U32(var);
      std::vector<uint8_t> bits = filter->ToBytes();
      fw.Str(std::string_view(reinterpret_cast<const char*>(bits.data()),
                              bits.size()));
    }
    filters = fw.Take();
  }
  w.U32(num_filters);
  w.Bytes(filters);
  w.U64(trace.trace_id);
  w.U64(trace.parent_span_id);
  w.Str(trace.query_tag);
  return w.Take();
}

Result<EvalRequestMsg> DecodeEvalRequest(std::string_view payload) {
  ByteReader r(payload);
  EvalRequestMsg msg;
  uint64_t num_vars = 0;
  MPC_RETURN_IF_ERROR(r.U64(&num_vars));
  uint32_t num_patterns = 0;
  MPC_RETURN_IF_ERROR(r.U32(&num_patterns));
  MPC_RETURN_IF_ERROR(
      CheckCount(num_patterns, 13, r.remaining(), "pattern"));
  msg.resolved.num_vars = num_vars;
  msg.resolved.patterns.reserve(num_patterns);
  for (uint32_t i = 0; i < num_patterns; ++i) {
    uint8_t flags = 0;
    store::ResolvedPattern p;
    MPC_RETURN_IF_ERROR(r.U8(&flags));
    MPC_RETURN_IF_ERROR(r.U32(&p.s));
    MPC_RETURN_IF_ERROR(r.U32(&p.p));
    MPC_RETURN_IF_ERROR(r.U32(&p.o));
    p.s_is_var = flags & 1;
    p.p_is_var = flags & 2;
    p.o_is_var = flags & 4;
    p.impossible = flags & 8;
    msg.resolved.patterns.push_back(p);
  }
  uint32_t num_indices = 0;
  MPC_RETURN_IF_ERROR(r.U32(&num_indices));
  MPC_RETURN_IF_ERROR(CheckCount(num_indices, 4, r.remaining(), "index"));
  msg.pattern_indices.reserve(num_indices);
  for (uint32_t i = 0; i < num_indices; ++i) {
    uint32_t idx = 0;
    MPC_RETURN_IF_ERROR(r.U32(&idx));
    if (idx >= num_patterns) {
      return Status::ParseError("pattern index " + std::to_string(idx) +
                                " out of range (have " +
                                std::to_string(num_patterns) + " patterns)");
    }
    msg.pattern_indices.push_back(idx);
  }
  MPC_RETURN_IF_ERROR(r.U64(&msg.max_rows));
  uint32_t num_filters = 0;
  MPC_RETURN_IF_ERROR(r.U32(&num_filters));
  MPC_RETURN_IF_ERROR(CheckCount(num_filters, 8, r.remaining(), "filter"));
  msg.filters.reserve(num_filters);
  for (uint32_t i = 0; i < num_filters; ++i) {
    EvalRequestMsg::Filter filter;
    MPC_RETURN_IF_ERROR(r.U32(&filter.var));
    MPC_RETURN_IF_ERROR(r.Str(&filter.bits));
    if (filter.var >= num_vars) {
      return Status::ParseError("filter variable out of range");
    }
    msg.filters.push_back(std::move(filter));
  }
  MPC_RETURN_IF_ERROR(r.U64(&msg.trace.trace_id));
  MPC_RETURN_IF_ERROR(r.U64(&msg.trace.parent_span_id));
  MPC_RETURN_IF_ERROR(r.Str(&msg.trace.query_tag));
  MPC_RETURN_IF_ERROR(r.ExpectEnd());
  return msg;
}

namespace {

void EncodeSpan(ByteWriter* w, const obs::TraceEvent& e) {
  w->Str(e.name);
  w->U64(e.span_id);
  w->U64(e.parent_id);
  w->U32(e.tid);
  w->U32(e.depth);
  w->F64(e.start_us);
  w->F64(e.dur_us);
  const uint32_t num_attrs = static_cast<uint32_t>(
      std::min<size_t>(e.attrs.size(), kMaxAttrsPerSpan));
  w->U32(num_attrs);
  for (uint32_t a = 0; a < num_attrs; ++a) {
    const obs::TraceAttr& attr = e.attrs[a];
    w->Str(attr.key);
    w->U8(static_cast<uint8_t>(attr.value.kind));
    switch (attr.value.kind) {
      case obs::AttrValue::Kind::kInt:
        w->U64(static_cast<uint64_t>(attr.value.i));
        break;
      case obs::AttrValue::Kind::kUint:
        w->U64(attr.value.u);
        break;
      case obs::AttrValue::Kind::kDouble:
        w->F64(attr.value.d);
        break;
      case obs::AttrValue::Kind::kString:
        w->Str(attr.value.s);
        break;
    }
  }
}

Status DecodeSpan(ByteReader* r, obs::TraceEvent* e) {
  MPC_RETURN_IF_ERROR(r->Str(&e->name));
  MPC_RETURN_IF_ERROR(r->U64(&e->span_id));
  MPC_RETURN_IF_ERROR(r->U64(&e->parent_id));
  MPC_RETURN_IF_ERROR(r->U32(&e->tid));
  MPC_RETURN_IF_ERROR(r->U32(&e->depth));
  MPC_RETURN_IF_ERROR(r->F64(&e->start_us));
  MPC_RETURN_IF_ERROR(r->F64(&e->dur_us));
  uint32_t num_attrs = 0;
  MPC_RETURN_IF_ERROR(r->U32(&num_attrs));
  if (num_attrs > kMaxAttrsPerSpan) {
    return Status::ParseError("span attr count " + std::to_string(num_attrs) +
                              " exceeds cap");
  }
  MPC_RETURN_IF_ERROR(CheckCount(num_attrs, 5, r->remaining(), "attr"));
  e->attrs.reserve(num_attrs);
  for (uint32_t a = 0; a < num_attrs; ++a) {
    obs::TraceAttr attr;
    MPC_RETURN_IF_ERROR(r->Str(&attr.key));
    uint8_t kind = 0;
    MPC_RETURN_IF_ERROR(r->U8(&kind));
    switch (kind) {
      case static_cast<uint8_t>(obs::AttrValue::Kind::kInt): {
        uint64_t bits = 0;
        MPC_RETURN_IF_ERROR(r->U64(&bits));
        attr.value = obs::AttrValue::Int(static_cast<int64_t>(bits));
        break;
      }
      case static_cast<uint8_t>(obs::AttrValue::Kind::kUint): {
        uint64_t u = 0;
        MPC_RETURN_IF_ERROR(r->U64(&u));
        attr.value = obs::AttrValue::Uint(u);
        break;
      }
      case static_cast<uint8_t>(obs::AttrValue::Kind::kDouble): {
        double d = 0.0;
        MPC_RETURN_IF_ERROR(r->F64(&d));
        attr.value = obs::AttrValue::Double(d);
        break;
      }
      case static_cast<uint8_t>(obs::AttrValue::Kind::kString): {
        std::string s;
        MPC_RETURN_IF_ERROR(r->Str(&s));
        attr.value = obs::AttrValue::Str(s);
        break;
      }
      default:
        return Status::ParseError("span attr carries invalid kind " +
                                  std::to_string(kind));
    }
    e->attrs.push_back(std::move(attr));
  }
  return Status::Ok();
}

}  // namespace

std::string EncodeEvalReplyBody(const SiteEvalReply& reply) {
  const store::BindingTable& table = reply.table;
  ByteWriter w;
  w.Reserve(32 + 4 * table.var_ids.size() + table.ByteSize());
  w.U64(reply.bloom_dropped);
  w.F64(reply.eval_millis);
  w.U32(static_cast<uint32_t>(table.var_ids.size()));
  for (uint32_t var : table.var_ids) w.U32(var);
  w.U64(table.rows.size());
  // Each row's cells are little-endian u32s, the host's own layout
  // (DecodeEvalReply checks the same), so a row is one append.
  static_assert(std::endian::native == std::endian::little);
  for (const std::vector<uint32_t>& row : table.rows) {
    w.Bytes(std::string_view(reinterpret_cast<const char*>(row.data()),
                             row.size() * sizeof(uint32_t)));
  }
  return w.Take();
}

void AppendReplySpans(const std::vector<obs::TraceEvent>& spans,
                      std::string* payload) {
  // Earliest spans win under the cap: the root and coarse phase spans
  // open first, and those are the ones a cross-process timeline needs.
  const uint32_t num_spans = static_cast<uint32_t>(
      std::min<size_t>(spans.size(), kMaxSpansPerReply));
  ByteWriter w;
  w.U32(num_spans);
  for (uint32_t i = 0; i < num_spans; ++i) EncodeSpan(&w, spans[i]);
  payload->append(w.Take());
}

std::string EncodeEvalReply(const SiteEvalReply& reply,
                            const std::vector<obs::TraceEvent>& spans) {
  std::string payload = EncodeEvalReplyBody(reply);
  AppendReplySpans(spans, &payload);
  return payload;
}

Status DecodeEvalReply(std::string_view payload, SiteEvalReply* reply,
                       std::vector<obs::TraceEvent>* spans) {
  ByteReader r(payload);
  uint64_t dropped = 0;
  MPC_RETURN_IF_ERROR(r.U64(&dropped));
  MPC_RETURN_IF_ERROR(r.F64(&reply->eval_millis));
  reply->bloom_dropped = dropped;
  uint32_t num_cols = 0;
  MPC_RETURN_IF_ERROR(r.U32(&num_cols));
  MPC_RETURN_IF_ERROR(CheckCount(num_cols, 4, r.remaining(), "column"));
  store::BindingTable& table = reply->table;
  table.var_ids.clear();
  table.rows.clear();
  table.var_ids.reserve(num_cols);
  for (uint32_t i = 0; i < num_cols; ++i) {
    uint32_t var = 0;
    MPC_RETURN_IF_ERROR(r.U32(&var));
    table.var_ids.push_back(var);
  }
  uint64_t num_rows = 0;
  MPC_RETURN_IF_ERROR(r.U64(&num_rows));
  const size_t row_bytes = size_t{num_cols} * 4;
  MPC_RETURN_IF_ERROR(CheckCount(num_rows, num_cols == 0 ? 1 : row_bytes,
                                 r.remaining(), "row"));
  // The row block is bounds-checked once and copied row by row: its
  // cells are little-endian u32s, the host's own layout.
  static_assert(std::endian::native == std::endian::little);
  std::string_view block;
  MPC_RETURN_IF_ERROR(r.Bytes(num_rows * row_bytes, &block));
  table.rows.resize(num_rows);
  for (uint64_t i = 0; i < num_rows && row_bytes > 0; ++i) {
    table.rows[i].resize(num_cols);
    std::memcpy(table.rows[i].data(), block.data() + i * row_bytes,
                row_bytes);
  }
  uint32_t num_spans = 0;
  MPC_RETURN_IF_ERROR(r.U32(&num_spans));
  if (num_spans > kMaxSpansPerReply) {
    return Status::ParseError("reply span count " + std::to_string(num_spans) +
                              " exceeds cap");
  }
  MPC_RETURN_IF_ERROR(CheckCount(num_spans, 44, r.remaining(), "span"));
  if (spans != nullptr) {
    spans->clear();
    spans->reserve(num_spans);
  }
  for (uint32_t i = 0; i < num_spans; ++i) {
    obs::TraceEvent e;
    MPC_RETURN_IF_ERROR(DecodeSpan(&r, &e));
    if (spans != nullptr) spans->push_back(std::move(e));
  }
  return r.ExpectEnd();
}

std::string EncodeError(const Status& status) {
  ByteWriter w;
  w.U32(static_cast<uint32_t>(status.code()));
  w.Str(status.message());
  return w.Take();
}

Status DecodeError(std::string_view payload) {
  ByteReader r(payload);
  uint32_t code = 0;
  std::string message;
  MPC_RETURN_IF_ERROR(r.U32(&code));
  MPC_RETURN_IF_ERROR(r.Str(&message));
  MPC_RETURN_IF_ERROR(r.ExpectEnd());
  switch (static_cast<StatusCode>(code)) {
    case StatusCode::kInvalidArgument:
      return Status::InvalidArgument(std::move(message));
    case StatusCode::kParseError:
      return Status::ParseError(std::move(message));
    case StatusCode::kNotFound:
      return Status::NotFound(std::move(message));
    case StatusCode::kOutOfRange:
      return Status::OutOfRange(std::move(message));
    case StatusCode::kCapacityExceeded:
      return Status::CapacityExceeded(std::move(message));
    case StatusCode::kUnsupported:
      return Status::Unsupported(std::move(message));
    case StatusCode::kInternal:
      return Status::Internal(std::move(message));
    case StatusCode::kIoError:
      return Status::IoError(std::move(message));
    case StatusCode::kUnavailable:
      return Status::Unavailable(std::move(message));
    case StatusCode::kDeadlineExceeded:
      return Status::DeadlineExceeded(std::move(message));
    case StatusCode::kOk:
      break;  // an error frame must not carry Ok
  }
  return Status::ParseError("error frame carries invalid status code " +
                            std::to_string(code));
}

}  // namespace mpc::exec

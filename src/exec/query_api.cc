#include "exec/query_api.h"

#include "sparql/parser.h"

namespace mpc::exec {

const char* ExecStrategyName(ExecStrategy strategy) {
  switch (strategy) {
    case ExecStrategy::kAuto:
      return "auto";
    case ExecStrategy::kGstored:
      return "gstored";
  }
  return "unknown";
}

Status AttachQueryText(const Status& status, const std::string& text) {
  if (status.ok() || text.empty()) return status;
  constexpr size_t kMaxShown = 200;
  std::string shown = text.substr(0, kMaxShown);
  // Collapse newlines so the query stays one greppable log line.
  for (char& c : shown) {
    if (c == '\n' || c == '\r' || c == '\t') c = ' ';
  }
  if (text.size() > kMaxShown) shown += "...";
  std::string msg = status.message() + " in query: \"" + shown + "\"";
  switch (status.code()) {
    case StatusCode::kParseError:
      return Status::ParseError(std::move(msg));
    case StatusCode::kInvalidArgument:
      return Status::InvalidArgument(std::move(msg));
    case StatusCode::kUnavailable:
      return Status::Unavailable(std::move(msg));
    case StatusCode::kDeadlineExceeded:
      return Status::DeadlineExceeded(std::move(msg));
    default:
      return Status::Internal(std::move(msg));
  }
}

Result<sparql::QueryGraph> ResolveRequestQuery(const QueryRequest& request) {
  if (request.query.has_value()) return *request.query;
  Result<sparql::QueryGraph> parsed =
      sparql::SparqlParser::Parse(request.text);
  if (!parsed.ok()) return AttachQueryText(parsed.status(), request.text);
  return parsed;
}

}  // namespace mpc::exec

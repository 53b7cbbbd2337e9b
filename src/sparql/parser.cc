#include "sparql/parser.h"

#include <cctype>
#include <charconv>
#include <string>
#include <unordered_map>

namespace mpc::sparql {

namespace {

constexpr std::string_view kRdfType =
    "<http://www.w3.org/1999/02/22-rdf-syntax-ns#type>";

/// Hand-rolled lexer/parser state over the query text.
class ParserImpl {
 public:
  explicit ParserImpl(std::string_view text) : text_(text) {}

  Result<QueryGraph> Parse() {
    MPC_RETURN_IF_ERROR(ParsePrologue());
    MPC_RETURN_IF_ERROR(ParseSelect());
    MPC_RETURN_IF_ERROR(ParseWhere());
    MPC_RETURN_IF_ERROR(ParseSolutionModifiers());
    SkipWs();
    if (!AtEnd()) return Error("trailing input after '}'");
    return builder_.Build();
  }

 private:
  bool AtEnd() const { return pos_ >= text_.size(); }
  char Peek() const { return text_[pos_]; }

  void SkipWs() {
    while (!AtEnd()) {
      char c = Peek();
      if (c == ' ' || c == '\t' || c == '\r' || c == '\n') {
        ++pos_;
      } else if (c == '#') {
        while (!AtEnd() && Peek() != '\n') ++pos_;
      } else {
        break;
      }
    }
  }

  /// Case-insensitive keyword match; consumes on success.
  bool ConsumeKeyword(std::string_view keyword) {
    SkipWs();
    if (text_.size() - pos_ < keyword.size()) return false;
    for (size_t i = 0; i < keyword.size(); ++i) {
      if (std::toupper(static_cast<unsigned char>(text_[pos_ + i])) !=
          std::toupper(static_cast<unsigned char>(keyword[i]))) {
        return false;
      }
    }
    // Keyword must end at a token boundary.
    size_t after = pos_ + keyword.size();
    if (after < text_.size()) {
      char c = text_[after];
      if (std::isalnum(static_cast<unsigned char>(c)) || c == '_') {
        return false;
      }
    }
    pos_ = after;
    return true;
  }

  bool ConsumeChar(char c) {
    SkipWs();
    if (AtEnd() || Peek() != c) return false;
    ++pos_;
    return true;
  }

  Status Error(const std::string& message) const {
    return Status::ParseError(message + " (at offset " +
                              std::to_string(pos_) + ")");
  }

  Status ParsePrologue() {
    while (ConsumeKeyword("PREFIX")) {
      SkipWs();
      // prefix name up to ':'
      size_t start = pos_;
      while (!AtEnd() && Peek() != ':') ++pos_;
      if (AtEnd()) return Error("PREFIX missing ':'");
      std::string prefix(text_.substr(start, pos_ - start));
      ++pos_;  // ':'
      SkipWs();
      if (AtEnd() || Peek() != '<') return Error("PREFIX missing IRI");
      size_t end = text_.find('>', pos_);
      if (end == std::string_view::npos) {
        return Error("unterminated PREFIX IRI");
      }
      // Store the IRI body without angle brackets for concatenation.
      prefixes_[prefix] =
          std::string(text_.substr(pos_ + 1, end - pos_ - 1));
      pos_ = end + 1;
    }
    return Status::Ok();
  }

  Status ParseSelect() {
    if (!ConsumeKeyword("SELECT")) return Error("expected SELECT");
    if (ConsumeKeyword("DISTINCT")) builder_.Distinct();
    SkipWs();
    if (ConsumeChar('*')) return Status::Ok();
    bool any = false;
    while (true) {
      SkipWs();
      if (AtEnd()) return Error("unexpected end in SELECT clause");
      char c = Peek();
      if (c != '?' && c != '$') break;
      ++pos_;
      std::string name = ScanVarName();
      if (name.empty()) return Error("empty variable name in SELECT");
      builder_.Select(name);
      any = true;
    }
    if (!any) return Error("SELECT requires '*' or at least one variable");
    return Status::Ok();
  }

  std::string ScanVarName() {
    size_t start = pos_;
    while (!AtEnd()) {
      char c = Peek();
      if (std::isalnum(static_cast<unsigned char>(c)) || c == '_') {
        ++pos_;
      } else {
        break;
      }
    }
    return std::string(text_.substr(start, pos_ - start));
  }

  Status ParseWhere() {
    if (!ConsumeKeyword("WHERE")) return Error("expected WHERE");
    if (!ConsumeChar('{')) return Error("expected '{'");
    while (true) {
      SkipWs();
      if (AtEnd()) return Error("unterminated WHERE block");
      if (Peek() == '}') {
        ++pos_;
        break;
      }
      QueryTerm s, p, o;
      MPC_RETURN_IF_ERROR(ParseTerm(&s, /*position=*/0));
      MPC_RETURN_IF_ERROR(ParseTerm(&p, /*position=*/1));
      MPC_RETURN_IF_ERROR(ParseTerm(&o, /*position=*/2));
      builder_.Add(std::move(s), std::move(p), std::move(o));
      SkipWs();
      if (!AtEnd() && Peek() == '.') ++pos_;  // optional trailing '.'
    }
    return Status::Ok();
  }

  Status ParseSolutionModifiers() {
    if (ConsumeKeyword("LIMIT")) {
      SkipWs();
      size_t start = pos_;
      while (!AtEnd() && std::isdigit(static_cast<unsigned char>(Peek()))) {
        ++pos_;
      }
      if (pos_ == start) return Error("LIMIT requires a number");
      size_t limit = 0;
      const std::from_chars_result parsed =
          std::from_chars(text_.data() + start, text_.data() + pos_, limit);
      if (parsed.ec != std::errc()) return Error("LIMIT out of range");
      builder_.Limit(limit);
    }
    return Status::Ok();
  }

  /// position: 0=subject, 1=predicate, 2=object.
  Status ParseTerm(QueryTerm* term, int position) {
    SkipWs();
    if (AtEnd()) return Error("unexpected end of pattern");
    char c = Peek();
    if (c == '?' || c == '$') {
      ++pos_;
      std::string name = ScanVarName();
      if (name.empty()) return Error("empty variable name");
      *term = QueryTerm::Variable(std::move(name));
      return Status::Ok();
    }
    if (c == '<') {
      size_t end = text_.find('>', pos_);
      if (end == std::string_view::npos) return Error("unterminated IRI");
      *term = QueryTerm::Constant(
          std::string(text_.substr(pos_, end - pos_ + 1)));
      pos_ = end + 1;
      return Status::Ok();
    }
    if (c == '"') {
      if (position != 2) return Error("literal allowed only as object");
      size_t i = pos_ + 1;
      while (i < text_.size()) {
        if (text_[i] == '\\') {
          i += 2;
          continue;
        }
        if (text_[i] == '"') break;
        ++i;
      }
      if (i >= text_.size()) return Error("unterminated literal");
      ++i;  // past closing quote
      if (i < text_.size() && text_[i] == '@') {
        ++i;
        while (i < text_.size() &&
               (std::isalnum(static_cast<unsigned char>(text_[i])) ||
                text_[i] == '-')) {
          ++i;
        }
      } else if (i + 1 < text_.size() && text_[i] == '^' &&
                 text_[i + 1] == '^') {
        i += 2;
        if (i >= text_.size() || text_[i] != '<') {
          return Error("malformed datatype IRI");
        }
        size_t end = text_.find('>', i);
        if (end == std::string_view::npos) {
          return Error("unterminated datatype IRI");
        }
        i = end + 1;
      }
      *term = QueryTerm::Constant(std::string(text_.substr(pos_, i - pos_)));
      pos_ = i;
      return Status::Ok();
    }
    if (c == '_' && pos_ + 1 < text_.size() && text_[pos_ + 1] == ':') {
      if (position == 1) return Error("blank node not allowed as predicate");
      size_t i = pos_ + 2;
      while (i < text_.size() && !std::isspace(static_cast<unsigned char>(
                                     text_[i])) &&
             text_[i] != '.') {
        ++i;
      }
      *term = QueryTerm::Constant(std::string(text_.substr(pos_, i - pos_)));
      pos_ = i;
      return Status::Ok();
    }
    // 'a' keyword (predicate position only) or prefixed name pfx:local.
    if (position == 1 && c == 'a') {
      size_t after = pos_ + 1;
      if (after >= text_.size() ||
          std::isspace(static_cast<unsigned char>(text_[after]))) {
        ++pos_;
        *term = QueryTerm::Constant(std::string(kRdfType));
        return Status::Ok();
      }
    }
    if (std::isalpha(static_cast<unsigned char>(c)) || c == ':') {
      size_t start = pos_;
      while (!AtEnd() && Peek() != ':') {
        char pc = Peek();
        if (!std::isalnum(static_cast<unsigned char>(pc)) && pc != '_' &&
            pc != '-' && pc != '.') {
          return Error("malformed prefixed name");
        }
        ++pos_;
      }
      if (AtEnd()) return Error("malformed prefixed name (missing ':')");
      std::string prefix(text_.substr(start, pos_ - start));
      ++pos_;  // ':'
      size_t local_start = pos_;
      while (!AtEnd()) {
        char pc = Peek();
        if (std::isalnum(static_cast<unsigned char>(pc)) || pc == '_' ||
            pc == '-') {
          ++pos_;
        } else {
          break;
        }
      }
      auto it = prefixes_.find(prefix);
      if (it == prefixes_.end()) {
        return Error("unknown prefix '" + prefix + ":'");
      }
      std::string iri = "<" + it->second +
                        std::string(text_.substr(local_start,
                                                 pos_ - local_start)) +
                        ">";
      *term = QueryTerm::Constant(std::move(iri));
      return Status::Ok();
    }
    return Error(std::string("unexpected character '") + c + "'");
  }


  std::string_view text_;
  size_t pos_ = 0;
  std::unordered_map<std::string, std::string> prefixes_;
  QueryGraphBuilder builder_;
};

}  // namespace

Result<QueryGraph> SparqlParser::Parse(std::string_view text) {
  return ParserImpl(text).Parse();
}

}  // namespace mpc::sparql

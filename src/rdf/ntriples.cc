#include "rdf/ntriples.h"

#include <algorithm>
#include <array>
#include <filesystem>
#include <fstream>
#include <functional>
#include <vector>

#include "common/string_util.h"
#include "common/thread_pool.h"
#include "obs/trace.h"

namespace mpc::rdf {

namespace {

/// Scans one RDF term starting at s[pos]. On success advances *pos past
/// the term and returns the term's token (including delimiters).
Status ScanTerm(std::string_view s, size_t* pos, std::string_view* term,
                bool allow_literal) {
  size_t i = *pos;
  if (i >= s.size()) return Status::ParseError("unexpected end of line");
  const size_t start = i;
  char c = s[i];
  if (c == '<') {
    // IRI: everything up to the closing '>'.
    size_t end = s.find('>', i + 1);
    if (end == std::string_view::npos) {
      return Status::ParseError("unterminated IRI");
    }
    *term = s.substr(start, end - start + 1);
    *pos = end + 1;
    return Status::Ok();
  }
  if (c == '_' && i + 1 < s.size() && s[i + 1] == ':') {
    // Blank node label: _:[A-Za-z0-9_.-]+ (pragmatic superset).
    i += 2;
    size_t lbl = i;
    while (i < s.size() && s[i] != ' ' && s[i] != '\t') ++i;
    if (i == lbl) return Status::ParseError("empty blank node label");
    *term = s.substr(start, i - start);
    *pos = i;
    return Status::Ok();
  }
  if (c == '"') {
    if (!allow_literal) {
      return Status::ParseError("literal not allowed in this position");
    }
    // Literal body with backslash escapes.
    ++i;
    while (i < s.size()) {
      if (s[i] == '\\') {
        i += 2;
        continue;
      }
      if (s[i] == '"') break;
      ++i;
    }
    if (i >= s.size()) return Status::ParseError("unterminated literal");
    ++i;  // past the closing quote
    // Optional language tag or datatype suffix.
    if (i < s.size() && s[i] == '@') {
      ++i;
      while (i < s.size() && s[i] != ' ' && s[i] != '\t') ++i;
    } else if (i + 1 < s.size() && s[i] == '^' && s[i + 1] == '^') {
      i += 2;
      if (i >= s.size() || s[i] != '<') {
        return Status::ParseError("malformed datatype IRI");
      }
      size_t end = s.find('>', i + 1);
      if (end == std::string_view::npos) {
        return Status::ParseError("unterminated datatype IRI");
      }
      i = end + 1;
    }
    *term = s.substr(start, i - start);
    *pos = i;
    return Status::Ok();
  }
  return Status::ParseError("unexpected character '" + std::string(1, c) +
                            "'");
}

void SkipSpaces(std::string_view s, size_t* pos) {
  while (*pos < s.size() && (s[*pos] == ' ' || s[*pos] == '\t')) ++(*pos);
}

}  // namespace

namespace {

/// One triple's terms, as views into the parsed text.
struct TermViews {
  std::string_view subject, property, object;
};

/// Parses one line into `terms`. Returns OK and sets *is_triple=false for
/// blank or comment lines.
Status ScanTriple(std::string_view line, TermViews* terms, bool* is_triple) {
  *is_triple = false;
  std::string_view s = StripWhitespace(line);
  if (s.empty() || s[0] == '#') return Status::Ok();

  size_t pos = 0;
  MPC_RETURN_IF_ERROR(
      ScanTerm(s, &pos, &terms->subject, /*allow_literal=*/false));
  SkipSpaces(s, &pos);
  MPC_RETURN_IF_ERROR(
      ScanTerm(s, &pos, &terms->property, /*allow_literal=*/false));
  if (!terms->property.empty() && terms->property[0] == '_') {
    return Status::ParseError("blank node not allowed as predicate");
  }
  SkipSpaces(s, &pos);
  MPC_RETURN_IF_ERROR(
      ScanTerm(s, &pos, &terms->object, /*allow_literal=*/true));
  SkipSpaces(s, &pos);
  if (pos >= s.size() || s[pos] != '.') {
    return Status::ParseError("missing terminating '.'");
  }
  ++pos;
  SkipSpaces(s, &pos);
  if (pos != s.size()) {
    return Status::ParseError("trailing characters after '.'");
  }
  *is_triple = true;
  return Status::Ok();
}

}  // namespace

Status NTriplesParser::ParseLine(std::string_view line, GraphBuilder* builder,
                                 bool* is_triple) {
  TermViews terms;
  MPC_RETURN_IF_ERROR(ScanTriple(line, &terms, is_triple));
  if (*is_triple) builder->Add(terms.subject, terms.property, terms.object);
  return Status::Ok();
}

namespace {

/// Scans one line-aligned chunk of a document, handing each triple's
/// terms to `sink`. A non-final chunk always ends with '\n' (the splitter
/// guarantees it), so it iterates `while (start < size)` — no phantom
/// trailing empty line. The final chunk iterates `while (start <= size)`,
/// exactly like a serial pass over the whole text, so the per-chunk line
/// counts sum to the serial line count and error line numbers match the
/// serial parse.
///
/// On success *line_count is the chunk's line count; on error it is the
/// 1-based index of the malformed line within the chunk, and `sink` has
/// seen every triple before that line.
template <typename Sink>
Status ScanChunk(std::string_view chunk, bool is_final, Sink&& sink,
                 size_t* line_count) {
  size_t line_no = 0;
  size_t start = 0;
  while (is_final ? start <= chunk.size() : start < chunk.size()) {
    size_t end = chunk.find('\n', start);
    std::string_view line = (end == std::string_view::npos)
                                ? chunk.substr(start)
                                : chunk.substr(start, end - start);
    ++line_no;
    TermViews terms;
    bool is_triple = false;
    Status st = ScanTriple(line, &terms, &is_triple);
    if (!st.ok()) {
      *line_count = line_no;
      return st;
    }
    if (is_triple) sink(terms);
    if (end == std::string_view::npos) break;
    start = end + 1;
  }
  *line_count = line_no;
  return Status::Ok();
}

/// The serial parse: every triple goes straight into `builder`.
Status ParseSerial(std::string_view text, GraphBuilder* builder,
                   size_t* error_line) {
  return ScanChunk(
      text, /*is_final=*/true,
      [builder](const TermViews& t) {
        builder->Add(t.subject, t.property, t.object);
      },
      error_line);
}

/// Cuts `text` into at most `max_chunks` line-aligned pieces: every
/// boundary sits just past a '\n', so every chunk but the last ends with
/// a newline. Returns strictly increasing offsets starting at 0 and
/// ending at text.size().
std::vector<size_t> ChunkBoundaries(std::string_view text,
                                    size_t max_chunks) {
  std::vector<size_t> bounds{0};
  for (size_t c = 1; c < max_chunks; ++c) {
    size_t target = text.size() * c / max_chunks;
    if (target < bounds.back()) target = bounds.back();
    size_t nl = text.find('\n', target);
    size_t b = (nl == std::string_view::npos) ? text.size() : nl + 1;
    if (b > bounds.back() && b < text.size()) bounds.push_back(b);
  }
  bounds.push_back(text.size());
  return bounds;
}

/// One chunk's occurrences of one column of terms (vertices: each
/// triple's subject then object, as the serial parse interns them;
/// properties: each triple's property). Each occurrence is hashed into
/// one of kShards shards as it is scanned, while its text is hot.
///
/// AssignIds gives every occurrence of a column, split into chunks whose
/// concatenation is the serial order, the id one-by-one interning would:
///
///  1. (Add, during the scan) hash every occurrence into its shard,
///     keeping each (chunk, shard) list in occurrence order;
///  2. per shard, in parallel: dedupe the shard's occurrences in chunk
///     order, so each shard lists its distinct terms by first occurrence,
///     and mark every first occurrence;
///  3. serially: walk the occurrences and intern each marked one — the
///     n-th marked occurrence of a shard is that shard's n-th term;
///  4. per chunk, in parallel: look every occurrence's id up.
class TermColumn {
 public:
  void Reserve(size_t n) {
    terms_.reserve(n);
    shard_.reserve(n);
  }

  void Add(std::string_view term) {
    const uint64_t hash = std::hash<std::string_view>()(term);
    const uint8_t h = static_cast<uint8_t>(hash >> (64 - kShardBits));
    entries_[h].push_back(
        {static_cast<uint32_t>(terms_.size()), static_cast<uint32_t>(hash)});
    shard_.push_back(h);
    terms_.push_back(term);
  }

  size_t size() const { return terms_.size(); }

  /// Occurrence i's id, once AssignIds has run.
  uint32_t id(size_t i) const { return ids_[i]; }

  /// `intern` is called once per distinct term, in order of first
  /// occurrence, and returns its id.
  template <typename Intern>
  static void AssignIds(std::vector<TermColumn>& chunks, int threads,
                        Intern&& intern) {
    // Step 2. ids_[i] first holds occurrence i's index among its shard's
    // terms; shard_[i] gains kFirst on the shard's first sight of it.
    for (TermColumn& chunk : chunks) chunk.ids_.resize(chunk.size());
    ParallelFor(0, kShards, 1, threads, [&](size_t h) {
      ShardTable table;
      for (TermColumn& chunk : chunks) {
        for (const Entry& e : chunk.entries_[h]) {
          bool first = false;
          chunk.ids_[e.index] = table.Find(chunk.terms_[e.index], e.hash,
                                           &first);
          if (first) chunk.shard_[e.index] |= kFirst;
        }
        chunk.entries_[h] = {};
      }
    });

    // Step 3.
    std::vector<std::vector<uint32_t>> ids_of_shard(kShards);
    for (const TermColumn& chunk : chunks) {
      for (size_t i = 0; i < chunk.size(); ++i) {
        if (chunk.shard_[i] & kFirst) {
          ids_of_shard[chunk.shard_[i] & ~kFirst].push_back(
              intern(chunk.terms_[i]));
        }
      }
    }

    // Step 4.
    ParallelFor(0, chunks.size(), 1, threads, [&](size_t c) {
      TermColumn& chunk = chunks[c];
      for (size_t i = 0; i < chunk.size(); ++i) {
        chunk.ids_[i] = ids_of_shard[chunk.shard_[i] & ~kFirst][chunk.ids_[i]];
      }
    });
  }

 private:
  static constexpr int kShardBits = 6;
  static constexpr size_t kShards = size_t{1} << kShardBits;
  static constexpr uint8_t kFirst = 0x80;

  struct Entry {
    uint32_t index;  // occurrence index within its chunk
    uint32_t hash;   // low bits of the term's hash
  };

  /// Open-addressing set of one shard's distinct terms, numbered by first
  /// occurrence.
  class ShardTable {
   public:
    /// Returns `term`'s index, adding it (and setting *first) if new.
    uint32_t Find(std::string_view term, uint32_t hash, bool* first) {
      if (2 * (terms_.size() + 1) > slots_.size()) Grow();
      const size_t mask = slots_.size() - 1;
      for (size_t s = hash & mask;; s = (s + 1) & mask) {
        const uint32_t at = slots_[s];
        if (at == kEmpty) {
          slots_[s] = static_cast<uint32_t>(terms_.size());
          terms_.push_back({term, hash});
          *first = true;
          return slots_[s];
        }
        if (terms_[at].hash == hash && terms_[at].term == term) return at;
      }
    }

   private:
    static constexpr uint32_t kEmpty = UINT32_MAX;

    void Grow() {
      slots_.assign(std::max<size_t>(64, 2 * slots_.size()), kEmpty);
      const size_t mask = slots_.size() - 1;
      for (uint32_t t = 0; t < terms_.size(); ++t) {
        size_t s = terms_[t].hash & mask;
        while (slots_[s] != kEmpty) s = (s + 1) & mask;
        slots_[s] = t;
      }
    }

    struct Term {
      std::string_view term;
      uint32_t hash;
    };
    std::vector<uint32_t> slots_;
    std::vector<Term> terms_;
  };

  std::vector<std::string_view> terms_;
  std::vector<uint8_t> shard_;
  std::array<std::vector<Entry>, kShards> entries_;
  std::vector<uint32_t> ids_;
};

/// The parallel document parse: chunks scan concurrently into term views
/// over `text`, TermColumn numbers the vertex and property terms exactly
/// as the serial parse would, and the triples are appended to
/// `builder` in document order. On error, sets *error_line to the serial
/// parse's 1-based line number and leaves `builder` in the serial parse's
/// partial state.
Status ParseDocumentChunked(std::string_view text, GraphBuilder* builder,
                            int threads, size_t* error_line) {
  // Don't bother chunking tiny inputs; a few chunks per thread keep the
  // threads busy when one of them is slowed down.
  constexpr size_t kMinChunkBytes = 1024;
  const size_t max_chunks = std::min<size_t>(
      4 * static_cast<size_t>(threads),
      std::max<size_t>(1, text.size() / kMinChunkBytes));
  const std::vector<size_t> bounds = ChunkBoundaries(text, max_chunks);
  const size_t num_chunks = bounds.size() - 1;
  if (num_chunks <= 1) return ParseSerial(text, builder, error_line);

  std::vector<TermColumn> vertices(num_chunks);
  std::vector<TermColumn> properties(num_chunks);
  std::vector<Status> statuses(num_chunks);
  std::vector<size_t> line_counts(num_chunks, 0);
  ParallelFor(0, num_chunks, 1, threads, [&](size_t c) {
    std::string_view chunk =
        text.substr(bounds[c], bounds[c + 1] - bounds[c]);
    // Room for a triple per kMinLineBytes, so most chunks never regrow.
    constexpr size_t kMinLineBytes = 48;
    vertices[c].Reserve(2 * chunk.size() / kMinLineBytes);
    properties[c].Reserve(chunk.size() / kMinLineBytes);
    statuses[c] = ScanChunk(
        chunk, /*is_final=*/c + 1 == num_chunks,
        [&](const TermViews& t) {
          vertices[c].Add(t.subject);
          vertices[c].Add(t.object);
          properties[c].Add(t.property);
        },
        &line_counts[c]);
  });

  // Earliest malformed chunk wins — the chunks after it never happened
  // as far as the serial semantics are concerned.
  size_t used_chunks = num_chunks;
  for (size_t c = 0; c < num_chunks; ++c) {
    if (!statuses[c].ok()) {
      used_chunks = c + 1;
      break;
    }
  }
  vertices.resize(used_chunks);
  properties.resize(used_chunks);

  TermColumn::AssignIds(vertices, threads, [builder](std::string_view term) {
    return builder->InternVertex(term);
  });
  TermColumn::AssignIds(properties, threads, [builder](std::string_view term) {
    return builder->InternProperty(term);
  });
  for (size_t c = 0; c < used_chunks; ++c) {
    for (size_t i = 0; i < properties[c].size(); ++i) {
      builder->Add(vertices[c].id(2 * i), properties[c].id(i),
                   vertices[c].id(2 * i + 1));
    }
  }

  const size_t last = used_chunks - 1;
  if (!statuses[last].ok()) {
    size_t global_line = line_counts[last];
    for (size_t c = 0; c < last; ++c) global_line += line_counts[c];
    *error_line = global_line;
    return statuses[last];
  }
  return Status::Ok();
}

}  // namespace

Status NTriplesParser::ParseDocument(std::string_view text,
                                     GraphBuilder* builder,
                                     int num_threads) {
  const int threads = ResolveNumThreads(num_threads);
  obs::TraceSpan span("rdf.parse");
  span.Attr("bytes", static_cast<uint64_t>(text.size()));
  size_t error_line = 0;
  Status st = threads <= 1
                  ? ParseSerial(text, builder, &error_line)
                  : ParseDocumentChunked(text, builder, threads, &error_line);
  if (!st.ok()) {
    return Status::ParseError("line " + std::to_string(error_line) + ": " +
                              st.message());
  }
  return Status::Ok();
}

Status NTriplesParser::ParseFile(const std::string& path,
                                 GraphBuilder* builder, int num_threads) {
  const int threads = ResolveNumThreads(num_threads);
  obs::TraceSpan span("rdf.parse");
  span.Attr("file", path);
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open " + path);
  if (threads <= 1) {
    std::string line;
    size_t line_no = 0;
    while (std::getline(in, line)) {
      ++line_no;
      bool is_triple = false;
      Status st = ParseLine(line, builder, &is_triple);
      if (!st.ok()) {
        return Status::ParseError(path + ":" + std::to_string(line_no) +
                                  ": " + st.message());
      }
    }
    return Status::Ok();
  }
  // Reserve the file's size up front (a stream whose size is unknown
  // still reads whole, just with reallocations).
  std::string text;
  std::error_code size_error;
  const uintmax_t size = std::filesystem::file_size(path, size_error);
  if (!size_error) text.reserve(static_cast<size_t>(size));
  std::vector<char> block(size_t{1} << 16);
  while (in.read(block.data(), static_cast<std::streamsize>(block.size())) ||
         in.gcount() > 0) {
    text.append(block.data(), static_cast<size_t>(in.gcount()));
  }
  if (in.bad()) return Status::IoError("read failed for " + path);
  size_t error_line = 0;
  Status st = ParseDocumentChunked(text, builder, threads, &error_line);
  if (!st.ok()) {
    return Status::ParseError(path + ":" + std::to_string(error_line) +
                              ": " + st.message());
  }
  return Status::Ok();
}

std::string SerializeNTriples(const RdfGraph& graph) {
  std::string out;
  for (const Triple& t : graph.triples()) {
    out += graph.VertexName(t.subject);
    out += ' ';
    out += graph.PropertyName(t.property);
    out += ' ';
    out += graph.VertexName(t.object);
    out += " .\n";
  }
  return out;
}

Status WriteNTriplesFile(const RdfGraph& graph, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IoError("cannot open " + path + " for writing");
  out << SerializeNTriples(graph);
  if (!out) return Status::IoError("write failed for " + path);
  return Status::Ok();
}

}  // namespace mpc::rdf

#include "partition/partition_io.h"

#include <algorithm>
#include <charconv>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/hash.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "rdf/ntriples.h"

namespace mpc::partition {

namespace {

constexpr const char* kManifestName = "manifest.txt";
constexpr const char* kAssignmentName = "assignment.txt";

std::string PartitionFileName(uint32_t i) {
  return "partition_" + std::to_string(i) + ".nt";
}

/// Strict base-10 unsigned parse: the whole field must be digits and fit
/// the target width. (strtoul silently accepts garbage as 0 and saturates
/// on overflow, which let truncated or corrupted files load as a valid
/// assignment to partition 0.)
bool ParseUintField(std::string_view text, uint64_t max, uint64_t* out) {
  text = StripWhitespace(text);
  if (text.empty()) return false;
  uint64_t value = 0;
  for (char c : text) {
    if (c < '0' || c > '9') return false;
    const uint64_t digit = static_cast<uint64_t>(c - '0');
    if (value > (max - digit) / 10) return false;  // would overflow
    value = value * 10 + digit;
  }
  *out = value;
  return true;
}

/// Writes a file through a bounded buffer: whenever the buffer passes
/// kFlushBytes it goes to the stream, so no file is held in memory whole
/// (Save writes its k + 1 files at once).
class BufferedWriter {
 public:
  explicit BufferedWriter(const std::string& path)
      : out_(path, std::ios::binary) {
    buffer_.reserve(kFlushBytes + 1024);
  }

  bool is_open() const { return out_.is_open(); }

  BufferedWriter& operator<<(std::string_view text) {
    buffer_.append(text);
    return *this;
  }

  BufferedWriter& operator<<(uint32_t value) {
    char digits[16];
    buffer_.append(digits,
                   std::to_chars(digits, digits + sizeof(digits), value).ptr);
    return *this;
  }

  /// Ends a line, flushing the buffer once it is full.
  void EndLine() {
    buffer_ += '\n';
    if (buffer_.size() >= kFlushBytes) Flush();
  }

  /// Flushes and closes; false when any write failed.
  bool Close() {
    Flush();
    out_.close();
    return !out_.fail();
  }

 private:
  static constexpr size_t kFlushBytes = size_t{1} << 16;

  void Flush() {
    out_.write(buffer_.data(), static_cast<std::streamsize>(buffer_.size()));
    buffer_.clear();
  }

  std::ofstream out_;
  std::string buffer_;
};

Status WriteAssignment(const rdf::RdfGraph& graph,
                       const Partitioning& partitioning,
                       const std::string& dir) {
  BufferedWriter out(dir + "/" + kAssignmentName);
  if (!out.is_open()) {
    return Status::IoError("cannot write assignment in " + dir);
  }
  const auto& part = partitioning.assignment().part;
  for (size_t v = 0; v < part.size(); ++v) {
    out << graph.VertexName(static_cast<rdf::VertexId>(v)) << "\t"
        << part[v];
    out.EndLine();
  }
  if (!out.Close()) return Status::IoError("assignment write failed in " + dir);
  return Status::Ok();
}

Status WriteSite(const rdf::RdfGraph& graph, const Partition& partition,
                 const std::string& dir, uint32_t i) {
  BufferedWriter out(dir + "/" + PartitionFileName(i));
  if (!out.is_open()) {
    return Status::IoError("cannot write partition file " +
                           PartitionFileName(i));
  }
  for (const auto* edges : {&partition.internal_edges,
                            &partition.crossing_edges}) {
    for (const rdf::Triple& t : *edges) {
      out << graph.VertexName(t.subject) << " "
          << graph.PropertyName(t.property) << " "
          << graph.VertexName(t.object) << " .";
      out.EndLine();
    }
  }
  if (!out.Close()) {
    return Status::IoError("write failed for " + PartitionFileName(i));
  }
  return Status::Ok();
}

/// The manifest's header fields (the crossing list that follows is
/// recomputed on load).
struct Manifest {
  std::string kind;
  uint32_t k = 0;
  uint64_t vertices = 0;
  uint64_t properties = 0;
};

Result<Manifest> ReadManifest(const std::string& dir) {
  std::ifstream in(dir + "/" + kManifestName, std::ios::binary);
  if (!in) return Status::IoError("cannot open " + dir + "/" + kManifestName);
  Manifest manifest;
  bool saw_kind = false;
  bool saw_k = false;
  std::string line;
  size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    std::istringstream fields(line);
    std::string key;
    std::string value;
    fields >> key;
    if (key == "kind") {
      if (!(fields >> manifest.kind) || manifest.kind.empty()) {
        return Status::ParseError("manifest line " + std::to_string(line_no) +
                                  ": malformed kind");
      }
      saw_kind = true;
    } else if (key == "k") {
      uint64_t parsed = 0;
      if (!(fields >> value) ||
          !ParseUintField(value, UINT32_MAX, &parsed) || parsed == 0) {
        return Status::ParseError("manifest line " + std::to_string(line_no) +
                                  ": invalid k '" + value + "'");
      }
      manifest.k = static_cast<uint32_t>(parsed);
      saw_k = true;
    } else if (key == "vertices" || key == "properties") {
      const bool vertices = key == "vertices";
      uint64_t* out = vertices ? &manifest.vertices : &manifest.properties;
      if (!(fields >> value) || !ParseUintField(value, UINT64_MAX, out)) {
        return Status::ParseError("manifest line " + std::to_string(line_no) +
                                  ": invalid " +
                                  (vertices ? "vertex" : "property") +
                                  " count '" + value + "'");
      }
    } else if (key == "crossing:") {
      break;
    }
  }
  if (!saw_kind) {
    return Status::ParseError("manifest missing kind in " + dir);
  }
  if (!saw_k) return Status::ParseError("manifest missing k in " + dir);
  return manifest;
}

}  // namespace

Status PartitionIo::Save(const rdf::RdfGraph& graph,
                         const Partitioning& partitioning,
                         const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return Status::IoError("cannot create " + dir + ": " + ec.message());

  const bool vertex_disjoint =
      partitioning.kind() == PartitioningKind::kVertexDisjoint;

  // Manifest: header lines "key value"; crossing properties one per line
  // after the "crossing:" marker.
  {
    std::ofstream out(dir + "/" + kManifestName, std::ios::binary);
    if (!out) return Status::IoError("cannot write manifest in " + dir);
    out << "kind " << (vertex_disjoint ? "vertex-disjoint" : "edge-disjoint")
        << "\n";
    out << "k " << partitioning.k() << "\n";
    out << "vertices " << graph.num_vertices() << "\n";
    out << "properties " << graph.num_properties() << "\n";
    out << "crossing:\n";
    for (rdf::PropertyId p : partitioning.CrossingProperties()) {
      out << graph.PropertyName(p) << "\n";
    }
    if (!out) return Status::IoError("manifest write failed in " + dir);
  }

  // The assignment (slot 0) and the k site files (slot 1 + i) are
  // written concurrently; errors are reported in that slot order.
  const uint32_t k = partitioning.k();
  std::vector<Status> statuses(k + 1);
  ParallelFor(0, k + 1, 1, /*num_threads=*/0, [&](size_t slot) {
    if (slot == 0) {
      if (vertex_disjoint) {
        statuses[0] = WriteAssignment(graph, partitioning, dir);
      }
      return;
    }
    const uint32_t i = static_cast<uint32_t>(slot - 1);
    statuses[slot] = WriteSite(graph, partitioning.partition(i), dir, i);
  });
  for (const Status& st : statuses) MPC_RETURN_IF_ERROR(st);
  return Status::Ok();
}

Result<Partitioning> PartitionIo::Load(const rdf::RdfGraph& graph,
                                       const std::string& dir) {
  Result<Manifest> manifest = ReadManifest(dir);
  if (!manifest.ok()) return manifest.status();
  const std::string& kind = manifest->kind;
  const uint32_t k = manifest->k;
  const size_t vertices = manifest->vertices;
  std::string line;

  if (kind == "vertex-disjoint") {
    if (vertices != graph.num_vertices()) {
      return Status::InvalidArgument(
          "graph has " + std::to_string(graph.num_vertices()) +
          " vertices but the saved partitioning covers " +
          std::to_string(vertices));
    }
    std::ifstream in(dir + "/" + kAssignmentName, std::ios::binary);
    if (!in) {
      return Status::IoError("cannot open " + dir + "/" + kAssignmentName);
    }
    VertexAssignment assignment;
    assignment.k = k;
    assignment.part.assign(graph.num_vertices(), UINT32_MAX);
    size_t assignment_line = 0;
    while (std::getline(in, line)) {
      ++assignment_line;
      if (StripWhitespace(line).empty()) continue;
      size_t tab = line.find('\t');
      if (tab == std::string::npos) {
        return Status::ParseError("assignment line " +
                                  std::to_string(assignment_line) +
                                  ": no tab");
      }
      std::string_view lexical(line.data(), tab);
      rdf::VertexId v = graph.vertex_dict().Lookup(lexical);
      if (v == rdf::kInvalidVertex) {
        return Status::NotFound("assignment line " +
                                std::to_string(assignment_line) +
                                ": vertex not in graph: " +
                                std::string(lexical));
      }
      std::string_view field(line.data() + tab + 1, line.size() - tab - 1);
      uint64_t parsed = 0;
      if (!ParseUintField(field, UINT32_MAX, &parsed)) {
        return Status::ParseError("assignment line " +
                                  std::to_string(assignment_line) +
                                  ": invalid partition id '" +
                                  std::string(field) + "'");
      }
      const uint32_t p = static_cast<uint32_t>(parsed);
      if (p >= k) {
        return Status::OutOfRange("assignment line " +
                                  std::to_string(assignment_line) +
                                  ": partition out of range");
      }
      assignment.part[v] = p;
    }
    for (uint32_t p : assignment.part) {
      if (p == UINT32_MAX) {
        return Status::InvalidArgument(
            "saved assignment does not cover every vertex of the graph");
      }
    }
    return Partitioning::MaterializeVertexDisjoint(graph,
                                                   std::move(assignment));
  }

  if (kind == "edge-disjoint") {
    // Rebuild the triple assignment by parsing each site file and
    // locating its triples in the (sorted) graph.
    std::vector<uint32_t> triple_part(graph.num_edges(), UINT32_MAX);
    const auto& triples = graph.triples();
    for (uint32_t i = 0; i < k; ++i) {
      rdf::GraphBuilder builder;
      Status st = rdf::NTriplesParser::ParseFile(
          dir + "/" + PartitionFileName(i), &builder);
      if (!st.ok()) return st;
      rdf::RdfGraph site = builder.Build();
      for (const rdf::Triple& t : site.triples()) {
        rdf::VertexId s = graph.vertex_dict().Lookup(site.VertexName(t.subject));
        rdf::PropertyId p =
            graph.property_dict().Lookup(site.PropertyName(t.property));
        rdf::VertexId o = graph.vertex_dict().Lookup(site.VertexName(t.object));
        if (s == rdf::kInvalidVertex || p == rdf::kInvalidVertex ||
            o == rdf::kInvalidVertex) {
          return Status::NotFound("site triple not present in graph");
        }
        rdf::Triple key(s, p, o);
        auto it = std::lower_bound(triples.begin(), triples.end(), key);
        if (it == triples.end() || !(*it == key)) {
          return Status::NotFound("site triple not present in graph");
        }
        triple_part[it - triples.begin()] = i;
      }
    }
    for (uint32_t p : triple_part) {
      if (p == UINT32_MAX) {
        return Status::InvalidArgument(
            "saved site files do not cover every triple of the graph");
      }
    }
    return Partitioning::MaterializeEdgeDisjoint(graph, k, triple_part);
  }

  return Status::ParseError("unknown partitioning kind '" + kind + "'");
}

Status PartitionIo::CheckSaved(const std::string& dir,
                               const Partitioning& partitioning) {
  Result<Manifest> manifest = ReadManifest(dir);
  if (!manifest.ok()) return manifest.status();
  auto refuse = [&dir](const std::string& what) {
    return Status::InvalidArgument(dir + " holds another partitioning: " +
                                   what + " differs");
  };
  const bool vertex_disjoint =
      partitioning.kind() == PartitioningKind::kVertexDisjoint;
  if (manifest->kind != (vertex_disjoint ? "vertex-disjoint"
                                         : "edge-disjoint")) {
    return refuse("the kind");
  }
  if (manifest->k != partitioning.k()) return refuse("k");
  if (manifest->properties != partitioning.crossing_property_mask().size()) {
    return refuse("the property count");
  }
  // An edge-disjoint partitioning has no assignment to compare.
  if (!vertex_disjoint) return Status::Ok();
  const std::vector<uint32_t>& part = partitioning.assignment().part;
  if (manifest->vertices != part.size()) return refuse("the vertex count");
  std::ifstream in(dir + "/" + kAssignmentName, std::ios::binary);
  if (!in) return Status::IoError("cannot open " + dir + "/" + kAssignmentName);
  // Save writes vertex v's owner on line v, after the last tab.
  std::string line;
  for (size_t v = 0; v < part.size(); ++v) {
    uint64_t owner = 0;
    if (!std::getline(in, line) ||
        !ParseUintField(std::string_view(line).substr(line.rfind('\t') + 1),
                        UINT32_MAX, &owner) ||
        owner != part[v]) {
      return refuse("the owner of vertex " + std::to_string(v));
    }
  }
  if (std::getline(in, line)) return refuse("the assignment's length");
  return Status::Ok();
}

Result<uint64_t> PartitionIo::Fingerprint(const std::string& dir) {
  const std::string manifest_path =
      (std::filesystem::path(dir) / kManifestName).string();
  std::ifstream manifest(manifest_path, std::ios::binary);
  if (!manifest) {
    return Status::IoError("cannot open " + manifest_path);
  }
  std::ostringstream manifest_bytes;
  manifest_bytes << manifest.rdbuf();

  // The assignment file pins the vertex->site map; absent for
  // edge-disjoint partitionings, which hash the manifest alone.
  std::string assignment_bytes;
  const std::string assignment_path =
      (std::filesystem::path(dir) / kAssignmentName).string();
  std::ifstream assignment(assignment_path, std::ios::binary);
  if (assignment) {
    std::ostringstream buffer;
    buffer << assignment.rdbuf();
    assignment_bytes = std::move(buffer).str();
  }
  return HashCombine(HashString(manifest_bytes.str()),
                     HashString(assignment_bytes));
}

}  // namespace mpc::partition

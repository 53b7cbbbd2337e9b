#ifndef MPC_RDF_NTRIPLES_H_
#define MPC_RDF_NTRIPLES_H_

#include <string>
#include <string_view>

#include "common/status.h"
#include "rdf/graph.h"

namespace mpc::rdf {

/// Streaming N-Triples parser covering the subset all six evaluation
/// datasets use: IRIs (<...>), blank nodes (_:label), and literals with
/// optional language tag or datatype ("..."@en, "..."^^<...>). Comments
/// (#) and blank lines are skipped. Escapes inside literals are kept in
/// their escaped lexical form — partitioning never needs the decoded
/// value, and this keeps round-trips byte-exact.
class NTriplesParser {
 public:
  /// Parses one line. Returns OK and sets *is_triple=false for blank or
  /// comment lines. On success with a triple, adds it to `builder`.
  static Status ParseLine(std::string_view line, GraphBuilder* builder,
                          bool* is_triple);

  /// Parses a whole document (newline-separated). Stops at the first
  /// malformed line and reports its 1-based line number.
  ///
  /// With num_threads > 1 (0 = hardware_concurrency) line-aligned chunks
  /// are scanned concurrently into term views over `text`, the terms are
  /// deduplicated per hash shard in parallel and numbered in order of
  /// first occurrence, and the triples are remapped in parallel — the
  /// resulting builder state (ids, triple order, reported error) is
  /// bit-identical to the serial parse at any thread count.
  static Status ParseDocument(std::string_view text, GraphBuilder* builder,
                              int num_threads = 1);

  /// Reads and parses a file from disk. num_threads follows the
  /// ParseDocument convention; the serial path streams line by line,
  /// the parallel path reads the file into memory first.
  static Status ParseFile(const std::string& path, GraphBuilder* builder,
                          int num_threads = 1);
};

/// Serializes a graph back to N-Triples text, one triple per line, in the
/// graph's canonical (property, subject, object) order.
std::string SerializeNTriples(const RdfGraph& graph);

/// Writes SerializeNTriples(graph) to `path`.
Status WriteNTriplesFile(const RdfGraph& graph, const std::string& path);

}  // namespace mpc::rdf

#endif  // MPC_RDF_NTRIPLES_H_

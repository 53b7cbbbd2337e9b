#ifndef MPC_PARTITION_PARTITION_IO_H_
#define MPC_PARTITION_PARTITION_IO_H_

#include <string>

#include "common/status.h"
#include "partition/partitioning.h"
#include "rdf/graph.h"

namespace mpc::partition {

/// On-disk layout of a saved partitioning, as a deployment would ship it
/// to sites:
///
///   <dir>/manifest.txt           k, kind, |V|, |L|, crossing properties
///   <dir>/assignment.txt         one "vertex-lexical <tab> partition" line
///                                per vertex (vertex-disjoint only)
///   <dir>/partition_<i>.nt       N-Triples per site: internal edges
///                                followed by crossing-edge replicas
///
/// Lexical forms (not dense ids) are stored, so a saved partitioning can
/// be reloaded against a graph whose dictionary assigns different ids —
/// or against a freshly re-parsed copy of the data.
class PartitionIo {
 public:
  /// Writes `partitioning` (over `graph`) into `dir`, creating it.
  static Status Save(const rdf::RdfGraph& graph,
                     const Partitioning& partitioning,
                     const std::string& dir);

  /// Reloads a vertex-disjoint partitioning saved by Save() and
  /// re-materializes it against `graph` (which must contain the same
  /// triples, e.g. re-parsed from the original file). Edge-disjoint
  /// (VP) partitionings are reconstructed from the per-site files.
  static Result<Partitioning> Load(const rdf::RdfGraph& graph,
                                   const std::string& dir);

  /// Refuses (InvalidArgument) a directory that does not hold
  /// `partitioning`: the manifest's kind, k and property count must be
  /// `partitioning`'s and, for a vertex-disjoint partitioning, so must
  /// its vertex count and the owner on every assignment line. Reads no
  /// graph and no site file.
  static Status CheckSaved(const std::string& dir,
                           const Partitioning& partitioning);

  /// Content fingerprint of a saved partitioning (FNV over the manifest
  /// and assignment bytes). The dynamic update journal and checkpoints
  /// are stamped with it, so recovery refuses to replay a journal onto a
  /// partitioning it was not written for.
  static Result<uint64_t> Fingerprint(const std::string& dir);
};

}  // namespace mpc::partition

#endif  // MPC_PARTITION_PARTITION_IO_H_

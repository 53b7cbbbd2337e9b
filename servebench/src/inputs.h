#ifndef SERVEBENCH_INPUTS_H_
#define SERVEBENCH_INPUTS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace servebench {

enum class Workload { kDbpediaLog, kLubmLive, kLubmRemote };

const char* WorkloadName(Workload workload);
mpc::Result<Workload> ParseWorkload(std::string_view name);

/// Sites every workload partitions into (the paper's 8-machine cluster).
inline constexpr uint32_t kSites = 8;

/// The files the system under test receives; `updates` is empty for the
/// static workloads.
struct InputFiles {
  std::string graph;
  std::string queries;
  std::string updates;
};

InputFiles InputPaths(Workload workload, const std::string& dir);

/// Writes the workload's inputs for `seed` into `dir` (created): an
/// N-Triples graph, a query file with one SPARQL query per line, and for
/// lubm_live an update log (dynamic::UpdateLog format). The same seed
/// always gives byte-identical files.
mpc::Status GenerateInputs(Workload workload, uint64_t seed,
                           const std::string& dir);

/// Reads a query file: one query per non-blank line.
mpc::Result<std::vector<std::string>> LoadQueries(const std::string& path);

}  // namespace servebench

#endif  // SERVEBENCH_INPUTS_H_

#include "inputs.h"

#include <filesystem>
#include <fstream>
#include <unordered_set>
#include <utility>

#include "common/random.h"
#include "dynamic/update_log.h"
#include "rdf/ntriples.h"
#include "workload/datasets.h"

namespace servebench {

namespace {

// Input sizes. DBpedia x0.5 is ~50k triples and ~5,300 properties with
// an 8,000-query profile log; LUBM x4 is ~200k triples over 18
// properties. The log and the LUBM scale are large enough that the costs
// of the heavy queries, and so the tail and throughput, vary little
// from seed to seed. lubm_live serves LUBM x2 (~100k triples): its
// queries run on segments plus overlays, about five times slower than
// in memory, and at x4 a 20-second window held fewer than three passes
// over the query list.
constexpr double kDbpediaScale = 0.5;
constexpr size_t kQueryLogSize = 8000;
constexpr double kLubmScale = 4.0;
constexpr double kLubmLiveScale = 2.0;
// Copies of LQ1-LQ14 in the LUBM query list (1,050 queries).
constexpr size_t kLubmCopies = 75;
// lubm_live's update log. The writer spreads these batches evenly over
// the timed window, so the run always holds the same batches and more
// than 10 of them lie beyond the p90 of their visibility latency.
constexpr size_t kUpdateBatches = 120;
constexpr size_t kUpdatesPerBatch = 20;

mpc::Status WriteQueries(const std::vector<mpc::workload::NamedQuery>& queries,
                         const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return mpc::Status::IoError("cannot open " + path);
  for (const mpc::workload::NamedQuery& q : queries) {
    std::string line = q.sparql;
    for (char& c : line) {
      if (c == '\n' || c == '\r') c = ' ';
    }
    out << line << '\n';
  }
  if (!out) return mpc::Status::IoError("write failed for " + path);
  return mpc::Status::Ok();
}

/// The LUBM query list: kLubmCopies copies of LQ1-LQ14 in a seeded
/// order, long enough that at least 10 positions lie beyond its p99.
std::vector<mpc::workload::NamedQuery> MakeLubmList(
    const std::vector<mpc::workload::NamedQuery>& queries, uint64_t seed) {
  std::vector<mpc::workload::NamedQuery> list;
  for (size_t copy = 0; copy < kLubmCopies; ++copy) {
    list.insert(list.end(), queries.begin(), queries.end());
  }
  mpc::Rng rng(seed ^ 0x9e3779b97f4a7c15ULL);
  for (size_t i = list.size(); i > 1; --i) {
    std::swap(list[i - 1], list[rng.Below(i)]);
  }
  return list;
}

/// A seeded insert/delete stream over the LUBM graph that keeps every
/// internal property internal, so the default threshold policy sees no
/// |L_cross| growth and the segment-plus-overlay path serves every
/// batch: inserts attach fresh entities to an existing object (the
/// maintainer places a new vertex beside its neighbour), deletes
/// tombstone live seed triples, and re-inserts restore earlier deletes.
///
/// The repository's dynamic-update benches instead insert 30% new edges
/// between random existing vertices. Served here, that stream made the
/// policy repartition on 28-30 of 120 batches. After the first
/// repartition every capture rebuilds the in-memory cluster, so the
/// segments stop serving within the first few batches. At x4 the writer
/// then fell 8 s behind its schedule; at x1, |L_cross| at the end
/// ranged over 9-13 and the IEQ share over 79-93% from seed to seed.
std::vector<mpc::dynamic::UpdateBatch> MakeUpdateStream(
    const mpc::rdf::RdfGraph& graph, uint64_t seed) {
  mpc::Rng rng(seed ^ 0x5e7eb0a1dULL);
  const std::vector<mpc::rdf::Triple>& triples = graph.triples();
  std::unordered_set<size_t> deleted;
  std::vector<size_t> deleted_order;
  size_t fresh = 0;
  auto update = [&](mpc::dynamic::UpdateKind kind,
                    const mpc::rdf::Triple& t) {
    mpc::dynamic::TripleUpdate u;
    u.kind = kind;
    u.subject = graph.VertexName(t.subject);
    u.property = graph.PropertyName(t.property);
    u.object = graph.VertexName(t.object);
    return u;
  };
  std::vector<mpc::dynamic::UpdateBatch> batches(kUpdateBatches);
  for (mpc::dynamic::UpdateBatch& batch : batches) {
    for (size_t i = 0; i < kUpdatesPerBatch; ++i) {
      const uint64_t roll = rng.Below(10);
      if (roll < 4) {
        const mpc::rdf::Triple& t = triples[rng.Below(triples.size())];
        mpc::dynamic::TripleUpdate u =
            update(mpc::dynamic::UpdateKind::kInsert, t);
        u.subject =
            "<http://example.org/lubm/fresh" + std::to_string(fresh++) + ">";
        batch.updates.push_back(std::move(u));
      } else if (roll < 7 && !deleted_order.empty()) {
        const size_t pick = rng.Below(deleted_order.size());
        const size_t index = deleted_order[pick];
        deleted_order[pick] = deleted_order.back();
        deleted_order.pop_back();
        deleted.erase(index);
        batch.updates.push_back(
            update(mpc::dynamic::UpdateKind::kInsert, triples[index]));
      } else {
        size_t index = rng.Below(triples.size());
        while (deleted.count(index) != 0) index = rng.Below(triples.size());
        deleted.insert(index);
        deleted_order.push_back(index);
        batch.updates.push_back(
            update(mpc::dynamic::UpdateKind::kDelete, triples[index]));
      }
    }
  }
  return batches;
}

}  // namespace

const char* WorkloadName(Workload workload) {
  switch (workload) {
    case Workload::kDbpediaLog:
      return "dbpedia_log";
    case Workload::kLubmLive:
      return "lubm_live";
    case Workload::kLubmRemote:
      return "lubm_remote";
  }
  return "?";
}

mpc::Result<Workload> ParseWorkload(std::string_view name) {
  for (Workload w :
       {Workload::kDbpediaLog, Workload::kLubmLive, Workload::kLubmRemote}) {
    if (name == WorkloadName(w)) return w;
  }
  return mpc::Status::InvalidArgument("unknown workload '" +
                                      std::string(name) + "'");
}

InputFiles InputPaths(Workload workload, const std::string& dir) {
  InputFiles files;
  files.graph = dir + "/graph.nt";
  files.queries = dir + "/queries.txt";
  if (workload == Workload::kLubmLive) files.updates = dir + "/updates.txt";
  return files;
}

mpc::Status GenerateInputs(Workload workload, uint64_t seed,
                           const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return mpc::Status::IoError("cannot create " + dir);
  const InputFiles files = InputPaths(workload, dir);
  if (workload == Workload::kDbpediaLog) {
    mpc::workload::GeneratedDataset d = mpc::workload::MakeDataset(
        mpc::workload::DatasetId::kDbpedia, kDbpediaScale, seed);
    mpc::Status st = mpc::rdf::WriteNTriplesFile(d.graph, files.graph);
    if (!st.ok()) return st;
    return WriteQueries(
        mpc::workload::MakeQueryLog(mpc::workload::DatasetId::kDbpedia,
                                    d.graph, kQueryLogSize, seed),
        files.queries);
  }
  mpc::workload::GeneratedDataset d = mpc::workload::MakeDataset(
      mpc::workload::DatasetId::kLubm,
      workload == Workload::kLubmLive ? kLubmLiveScale : kLubmScale, seed);
  mpc::Status st = mpc::rdf::WriteNTriplesFile(d.graph, files.graph);
  if (!st.ok()) return st;
  st = WriteQueries(MakeLubmList(d.benchmark_queries, seed), files.queries);
  if (!st.ok() || files.updates.empty()) return st;
  return mpc::dynamic::UpdateLog::SaveFile(MakeUpdateStream(d.graph, seed),
                                           files.updates);
}

mpc::Result<std::vector<std::string>> LoadQueries(const std::string& path) {
  std::ifstream in(path);
  if (!in) return mpc::Status::IoError("cannot open " + path);
  std::vector<std::string> queries;
  std::string line;
  while (std::getline(in, line)) {
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    queries.push_back(line);
  }
  if (queries.empty()) return mpc::Status::ParseError("no queries in " + path);
  return queries;
}

}  // namespace servebench

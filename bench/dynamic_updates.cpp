// Streaming-ingest experiment for the dynamic maintenance subsystem
// (src/dynamic/): a LUBM seed graph is MPC-partitioned once, then a
// deterministic insert/delete stream runs through IncrementalMaintainer.
// At checkpoints the maintained partitioning is compared against an
// oracle — a full MPC repartition of the exact live graph — on the two
// quantities the paper optimizes: |L_cross| and the IEQ share of the 14
// LUBM benchmark queries. Tombstone and replication ratios show the
// price of lazy deletion between repartitions.
//
// Usage: ./dynamic_updates [scale]   (scale 1.0 ~ 20 universities)

#include <cstdint>
#include <filesystem>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/random.h"
#include "common/timer.h"
#include "dynamic/incremental_maintainer.h"
#include "workload/lubm.h"

namespace mpc {
namespace {

using dynamic::IncrementalMaintainer;
using dynamic::TripleUpdate;
using dynamic::UpdateBatch;
using dynamic::UpdateKind;

/// Deterministic LUBM-flavoured update stream. Inserts either attach a
/// brand-new entity through an existing property (a fresh student/course
/// mirroring a random seed triple's shape) or add an edge between
/// existing entities; deletes tombstone random seed triples.
std::vector<UpdateBatch> MakeStream(Rng& rng, const rdf::RdfGraph& seed,
                                    size_t num_batches,
                                    size_t updates_per_batch) {
  std::vector<UpdateBatch> batches;
  size_t fresh = 0;
  for (size_t b = 0; b < num_batches; ++b) {
    UpdateBatch batch;
    for (size_t i = 0; i < updates_per_batch; ++i) {
      const rdf::Triple& t = seed.triples()[rng.Below(seed.num_edges())];
      TripleUpdate u;
      const uint64_t roll = rng.Below(10);
      if (roll < 4) {
        // New entity, attached the way the sampled seed triple attaches
        // its subject (same property, same object side).
        u.kind = UpdateKind::kInsert;
        u.subject = "<http://example.org/lubm/fresh" +
                    std::to_string(fresh++) + ">";
        u.property = seed.PropertyName(t.property);
        u.object = seed.VertexName(t.object);
      } else if (roll < 7) {
        // New edge between existing entities: the sampled triple's
        // property, re-targeted at another triple's object.
        const rdf::Triple& other =
            seed.triples()[rng.Below(seed.num_edges())];
        u.kind = UpdateKind::kInsert;
        u.subject = seed.VertexName(t.subject);
        u.property = seed.PropertyName(t.property);
        u.object = seed.VertexName(other.object);
      } else {
        u.kind = UpdateKind::kDelete;
        u.subject = seed.VertexName(t.subject);
        u.property = seed.PropertyName(t.property);
        u.object = seed.VertexName(t.object);
      }
      batch.updates.push_back(std::move(u));
    }
    batches.push_back(std::move(batch));
  }
  return batches;
}

std::string Pct(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f", value);
  return buf;
}

void RunPolicy(const std::string& label,
               const dynamic::RepartitionPolicy& policy,
               const workload::GeneratedDataset& dataset,
               const partition::Partitioning& seed_partitioning,
               const std::vector<UpdateBatch>& stream,
               size_t checkpoint_every) {
  dynamic::MaintainerOptions options;
  options.policy = policy;
  options.mpc.base.k = bench::kSites;
  options.mpc.base.epsilon = bench::kEpsilon;
  options.num_threads = 0;
  IncrementalMaintainer maintainer(dataset.graph.Clone(),
                                   seed_partitioning, options);

  std::cout << "policy=" << label << "  seed |L_cross|="
            << seed_partitioning.num_crossing_properties() << "\n";
  bench::LeftCell("batch", 7);
  bench::Cell("live", 9);
  bench::Cell("|Lx|", 6);
  bench::Cell("|Lx|*", 7);
  bench::Cell("IEQ%", 7);
  bench::Cell("IEQ%*", 7);
  bench::Cell("tomb%", 7);
  bench::Cell("repl", 7);
  bench::Cell("repart", 8);
  std::cout << "\n";

  Timer timer;
  for (size_t b = 0; b < stream.size(); ++b) {
    dynamic::ApplyResult r = maintainer.ApplyBatch(stream[b]);
    const bool last = b + 1 == stream.size();
    if ((b + 1) % checkpoint_every != 0 && !last) continue;

    // Oracle: full MPC repartition of the exact live graph.
    rdf::RdfGraph live = maintainer.MaterializeGraph();
    core::MpcOptions oracle_options = options.mpc;
    oracle_options.base.num_threads = 0;
    partition::Partitioning oracle =
        core::MpcPartitioner(oracle_options).Partition(live);

    partition::Partitioning maintained = maintainer.CompactPartitioning();
    const double ieq = bench::IeqPercent(dataset.benchmark_queries,
                                         maintained, maintainer.graph());
    const double ieq_oracle =
        bench::IeqPercent(dataset.benchmark_queries, oracle, live);

    bench::LeftCell(std::to_string(b + 1), 7);
    bench::Cell(std::to_string(r.drift.live_triples), 9);
    bench::Cell(std::to_string(r.drift.crossing_properties), 6);
    bench::Cell(std::to_string(oracle.num_crossing_properties()), 7);
    bench::Cell(Pct(ieq), 7);
    bench::Cell(Pct(ieq_oracle), 7);
    bench::Cell(Pct(100.0 * r.drift.tombstone_ratio), 7);
    bench::Cell(Pct(r.drift.replication_ratio), 7);
    bench::Cell(std::to_string(r.drift.repartitions) +
                    (r.repartition_triggered ? "!" : ""),
                8);
    std::cout << "\n";
  }
  std::cout << "stream time: " << Pct(timer.ElapsedMillis()) << " ms ("
            << maintainer.repartition_count() << " repartitions)\n\n";
}

/// Crash-recovery experiment: the same stream runs journaled (write-
/// ahead journal + periodic checkpoints), then the process state is
/// dropped and OpenDurable recovers it — checkpoint load plus journal-
/// tail replay. The acceptance bar is recovery well under a from-scratch
/// MPC repartition of the live graph (<25%).
void RunRecovery(const workload::GeneratedDataset& dataset,
                 const partition::Partitioning& seed_partitioning,
                 const std::vector<UpdateBatch>& stream) {
  namespace fs = std::filesystem;
  const std::string dir =
      (fs::temp_directory_path() / "mpc_dynamic_updates_journal").string();
  fs::remove_all(dir);

  dynamic::MaintainerOptions options;
  options.policy.kind = dynamic::RepartitionPolicy::Kind::kThreshold;
  options.mpc.base.k = bench::kSites;
  options.mpc.base.epsilon = bench::kEpsilon;
  options.num_threads = 0;
  options.journal_dir = dir;
  // An off-cycle cadence, so the stream ends with a journal tail past
  // the last checkpoint and recovery has real replay work to do.
  options.checkpoint_every_batches = 5;
  const uint64_t fp = 0xbe7c0ffe;

  // From-scratch baseline: a crash WITHOUT the journal loses the
  // maintainer state, and rebuilding it means re-running the whole
  // stream (every batch, every triggered repartition) from the seed.
  Timer plain_timer;
  {
    dynamic::MaintainerOptions plain = options;
    plain.journal_dir.clear();
    IncrementalMaintainer m(dataset.graph.Clone(), seed_partitioning,
                            plain);
    for (const UpdateBatch& b : stream) m.ApplyBatch(b);
  }
  const double plain_ms = plain_timer.ElapsedMillis();

  Timer journaled_timer;
  {
    Result<std::unique_ptr<IncrementalMaintainer>> m =
        dynamic::IncrementalMaintainer::OpenDurable(
            dataset.graph.Clone(), seed_partitioning, options, fp);
    if (!m.ok()) {
      std::cout << "journaled run failed: " << m.status().ToString()
                << "\n";
      return;
    }
    for (const UpdateBatch& b : stream) (*m)->ApplyBatch(b);
  }  // process "crashes": only the journal directory survives
  const double journaled_ms = journaled_timer.ElapsedMillis();

  Timer recover_timer;
  Result<std::unique_ptr<IncrementalMaintainer>> recovered =
      dynamic::IncrementalMaintainer::OpenDurable(
          dataset.graph.Clone(), seed_partitioning, options, fp);
  const double recover_ms = recover_timer.ElapsedMillis();
  if (!recovered.ok()) {
    std::cout << "recovery failed: " << recovered.status().ToString()
              << "\n";
    return;
  }

  // Reference point: one bare MPC run over the live graph — cheaper
  // than the full rebuild but does NOT restore maintainer state (drift
  // counters, tombstones, the exact placement of streamed inserts).
  rdf::RdfGraph live = (*recovered)->MaterializeGraph();
  Timer scratch_timer;
  core::MpcOptions scratch_options = options.mpc;
  scratch_options.base.num_threads = 0;
  partition::Partitioning scratch =
      core::MpcPartitioner(scratch_options).Partition(live);
  const double scratch_ms = scratch_timer.ElapsedMillis();

  std::cout << "crash recovery (journal + checkpoints in " << dir
            << "):\n"
            << "  journaled stream:         " << Pct(journaled_ms)
            << " ms (" << (*recovered)->batches_applied() << " batches, "
            << (*recovered)->repartition_count()
            << " repartitions; +"
            << Pct(100.0 * (journaled_ms - plain_ms) / plain_ms)
            << "% journal overhead)\n"
            << "  recovery (ckpt+replay):   " << Pct(recover_ms) << " ms\n"
            << "  from-scratch rebuild:     " << Pct(plain_ms)
            << " ms (re-run the stream from the seed)\n"
            << "  one bare MPC repartition: " << Pct(scratch_ms)
            << " ms (live graph, |L_cross| "
            << scratch.num_crossing_properties()
            << "; loses maintainer state)\n"
            << "  recovery / from-scratch:  "
            << Pct(100.0 * recover_ms / plain_ms) << "% (target <25%)\n\n";
  fs::remove_all(dir);
}

}  // namespace
}  // namespace mpc

int main(int argc, char** argv) {
  using namespace mpc;
  const double scale = bench::ScaleFromArgs(argc, argv);
  bench::ObsScope obs(argc, argv);

  workload::LubmOptions lubm;
  lubm.num_universities =
      std::max<uint32_t>(2, static_cast<uint32_t>(20 * scale));
  workload::GeneratedDataset dataset = workload::MakeLubm(lubm);
  std::cout << "LUBM x" << lubm.num_universities << ": "
            << dataset.graph.num_edges() << " triples, "
            << dataset.graph.num_vertices() << " vertices, "
            << dataset.graph.num_properties() << " properties\n";

  core::MpcOptions mpc;
  mpc.base.k = bench::kSites;
  mpc.base.epsilon = bench::kEpsilon;
  mpc.base.num_threads = 0;
  partition::Partitioning seed =
      core::MpcPartitioner(mpc).Partition(dataset.graph);

  // ~30% of the seed's size flows through the stream.
  const size_t num_batches = 12;
  const size_t per_batch =
      std::max<size_t>(10, dataset.graph.num_edges() * 3 / 10 / num_batches);
  std::cout << "stream: " << num_batches << " batches x " << per_batch
            << " updates (40% new-entity inserts, 30% new edges, "
               "30% deletes)\n";
  std::cout << "columns: |Lx|/IEQ% maintained, |Lx|*/IEQ%* oracle full "
               "repartition of the live graph\n\n";

  Rng rng(7);
  std::vector<UpdateBatch> stream =
      MakeStream(rng, dataset.graph, num_batches, per_batch);

  dynamic::RepartitionPolicy threshold;
  threshold.kind = dynamic::RepartitionPolicy::Kind::kThreshold;
  RunPolicy("threshold", threshold, dataset, seed, stream, 2);

  dynamic::RepartitionPolicy never;
  never.kind = dynamic::RepartitionPolicy::Kind::kNever;
  RunPolicy("never", never, dataset, seed, stream, 2);

  RunRecovery(dataset, seed, stream);

  return 0;
}

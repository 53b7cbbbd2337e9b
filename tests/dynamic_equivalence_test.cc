// Acceptance test for dynamic maintenance: a seeded random insert/delete
// stream is applied through IncrementalMaintainer and, independently, to
// a plain triple-set oracle. At checkpoints the maintained partitioning
// must answer every query exactly like a from-scratch partitioning of the
// oracle graph, |L_cross| must respect the policy bound whenever the
// policy did not fire, and all maintained state must be bit-identical at
// 1, 2 and 8 threads.

#include <array>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/random.h"
#include "dynamic/incremental_maintainer.h"
#include "dynamic/update_journal.h"
#include "exec/cluster.h"
#include "exec/distributed_executor.h"
#include "gtest/gtest.h"
#include "mpc/mpc_partitioner.h"
#include "serve/serving_state.h"
#include "test_util.h"

namespace mpc::dynamic {
namespace {

using rdf::RdfGraph;
using store::BindingTable;

using LexTriple = std::array<std::string, 3>;

std::vector<std::string> Queries() {
  return {
      "SELECT * WHERE { ?x <t:p0> ?y . }",
      "SELECT * WHERE { ?x <t:p0> ?y . ?x <t:p1> ?z . }",
      "SELECT * WHERE { ?a <t:p2> ?x . ?x <t:p3> ?b . }",
      "SELECT * WHERE { ?a <t:p0> ?b . ?b <t:p1> ?c . ?c <t:p2> ?d . }",
      // Triangle; all bindings are vertices (variable predicates are
      // excluded here because ?p binds a property id, which cannot be
      // compared lexically across two different dictionaries).
      "SELECT * WHERE { ?a <t:p0> ?b . ?b <t:p1> ?c . ?a <t:p2> ?c . }",
  };
}

std::set<std::vector<std::string>> LexRows(const BindingTable& table,
                                           const RdfGraph& graph) {
  std::set<std::vector<std::string>> rows;
  for (const auto& row : table.rows) {
    std::vector<std::string> lex;
    lex.reserve(row.size());
    for (uint32_t id : row) lex.emplace_back(graph.VertexName(id));
    rows.insert(std::move(lex));
  }
  return rows;
}

/// Deterministic mixed update stream: edge inserts between existing
/// vertices, inserts attaching brand-new vertices (sometimes via
/// brand-new properties), and deletes of seed triples.
std::vector<UpdateBatch> MakeStream(Rng& rng, const RdfGraph& seed,
                                    size_t num_batches,
                                    size_t updates_per_batch) {
  std::vector<UpdateBatch> batches;
  size_t fresh = 0;
  for (size_t b = 0; b < num_batches; ++b) {
    UpdateBatch batch;
    for (size_t i = 0; i < updates_per_batch; ++i) {
      TripleUpdate u;
      const uint64_t roll = rng.Below(10);
      if (roll < 4) {  // insert between existing vertices
        u.kind = UpdateKind::kInsert;
        u.subject = "<t:v" + std::to_string(rng.Below(60)) + ">";
        u.property = "<t:p" + std::to_string(rng.Below(5)) + ">";
        u.object = "<t:v" + std::to_string(rng.Below(60)) + ">";
      } else if (roll < 6) {  // attach a brand-new vertex
        u.kind = UpdateKind::kInsert;
        u.subject = "<t:new" + std::to_string(fresh++) + ">";
        u.property = rng.Chance(0.2)
                         ? "<t:extra" + std::to_string(rng.Below(3)) + ">"
                         : "<t:p" + std::to_string(rng.Below(5)) + ">";
        u.object = "<t:v" + std::to_string(rng.Below(60)) + ">";
      } else {  // delete a seed triple (may already be gone: noop)
        const rdf::Triple& t =
            seed.triples()[rng.Below(seed.num_edges())];
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

void ApplyToOracle(const UpdateBatch& batch, std::set<LexTriple>* oracle) {
  for (const TripleUpdate& u : batch.updates) {
    LexTriple t{u.subject, u.property, u.object};
    if (u.kind == UpdateKind::kInsert) {
      oracle->insert(t);
    } else {
      oracle->erase(t);
    }
  }
}

RdfGraph OracleGraph(const std::set<LexTriple>& oracle) {
  rdf::GraphBuilder builder;
  for (const LexTriple& t : oracle) builder.Add(t[0], t[1], t[2]);
  return builder.Build();
}

void ExpectSameDrift(const DriftMetrics& a, const DriftMetrics& b,
                     const std::string& context) {
  EXPECT_EQ(a.live_triples, b.live_triples) << context;
  EXPECT_EQ(a.seed_crossing_properties, b.seed_crossing_properties)
      << context;
  EXPECT_EQ(a.crossing_properties, b.crossing_properties) << context;
  EXPECT_EQ(a.crossing_edges, b.crossing_edges) << context;
  EXPECT_EQ(a.lcross_growth, b.lcross_growth) << context;
  EXPECT_EQ(a.balance_ratio, b.balance_ratio) << context;
  EXPECT_EQ(a.tombstone_ratio, b.tombstone_ratio) << context;
  EXPECT_EQ(a.replication_ratio, b.replication_ratio) << context;
  EXPECT_EQ(a.max_internal_component, b.max_internal_component) << context;
  EXPECT_EQ(a.repartitions, b.repartitions) << context;
}

TEST(DynamicEquivalenceTest, MaintainedMatchesFromScratchUnderStream) {
  Rng rng(1234);
  RdfGraph seed = testutil::RandomGraph(rng, 60, 220, 5, /*community=*/12,
                                        /*escape=*/0.15);
  core::MpcOptions mpc;
  mpc.base.k = 4;
  mpc.base.epsilon = 0.3;
  partition::Partitioning seed_partitioning =
      core::MpcPartitioner(mpc).Partition(seed);

  // The oracle starts as the seed's triples.
  std::set<LexTriple> oracle;
  for (const rdf::Triple& t : seed.triples()) {
    oracle.insert(LexTriple{seed.VertexName(t.subject),
                            seed.PropertyName(t.property),
                            seed.VertexName(t.object)});
  }

  MaintainerOptions options;
  options.mpc = mpc;
  options.policy.kind = RepartitionPolicy::Kind::kThreshold;
  const std::vector<int> thread_counts = {1, 2, 8};
  std::vector<std::unique_ptr<IncrementalMaintainer>> maintainers;
  for (int threads : thread_counts) {
    MaintainerOptions per = options;
    per.num_threads = threads;
    maintainers.push_back(std::make_unique<IncrementalMaintainer>(
        seed.Clone(), seed_partitioning, per));
  }

  std::vector<UpdateBatch> stream = MakeStream(rng, seed, 12, 12);
  for (size_t b = 0; b < stream.size(); ++b) {
    ApplyToOracle(stream[b], &oracle);
    std::vector<ApplyResult> results;
    for (auto& m : maintainers) {
      results.push_back(m->ApplyBatch(stream[b]));
    }
    const std::string context = "batch " + std::to_string(b);

    // Thread-count invariance: every maintained stat is identical.
    for (size_t i = 1; i < results.size(); ++i) {
      ExpectSameDrift(results[0].drift, results[i].drift, context);
      EXPECT_EQ(results[0].repartition_triggered,
                results[i].repartition_triggered)
          << context;
      EXPECT_EQ(maintainers[0]->partitioning().assignment().part,
                maintainers[i]->partitioning().assignment().part)
          << context;
      EXPECT_EQ(maintainers[0]->partitioning().crossing_property_mask(),
                maintainers[i]->partitioning().crossing_property_mask())
          << context;
    }

    // Live set matches the oracle exactly.
    EXPECT_EQ(maintainers[0]->num_live_triples(), oracle.size()) << context;

    // |L_cross| respects the policy bound unless this very batch fired.
    const ApplyResult& r = results[0];
    if (!r.repartition_triggered) {
      EXPECT_LE(r.drift.crossing_properties,
                options.policy.LcrossBound(r.drift.seed_crossing_properties))
          << context;
    }
  }

  // Final equivalence: maintained results == from-scratch results on the
  // oracle graph, compared lexically (dense ids differ between the two).
  RdfGraph scratch = OracleGraph(oracle);
  ASSERT_EQ(maintainers[0]->num_live_triples(), scratch.num_edges());
  for (const std::string& text : Queries()) {
    sparql::QueryGraph query = testutil::ParseQueryOrDie(text);
    BindingTable truth = testutil::GroundTruth(scratch, query);
    std::set<std::vector<std::string>> expected = LexRows(truth, scratch);
    for (size_t i = 0; i < maintainers.size(); ++i) {
      Result<exec::QueryResponse> got =
          serve::ServingState::Capture(*maintainers[i])
              ->distributed()
              .Execute(exec::QueryRequest::FromText(text));
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_EQ(LexRows(got->bindings, maintainers[i]->graph()), expected)
          << "query: " << text << " threads: " << thread_counts[i];
    }
  }

  // And the maintained live set is lexically identical to the oracle.
  std::set<LexTriple> maintained;
  const RdfGraph& g = maintainers[0]->graph();
  for (const rdf::Triple& t : maintainers[0]->LiveTriples()) {
    maintained.insert(LexTriple{g.VertexName(t.subject),
                                g.PropertyName(t.property),
                                g.VertexName(t.object)});
  }
  EXPECT_EQ(maintained, oracle);
}

TEST(DynamicEquivalenceTest, DeleteHeavyStreamStaysCorrect) {
  // Deleting most of the graph exercises tombstone accumulation and the
  // tombstone-ratio trigger; queries must stay exact throughout.
  Rng rng(77);
  RdfGraph seed = testutil::RandomGraph(rng, 30, 100, 4, 10);
  core::MpcOptions mpc;
  mpc.base.k = 3;
  mpc.base.epsilon = 0.3;
  MaintainerOptions options;
  options.mpc = mpc;
  options.policy.kind = RepartitionPolicy::Kind::kThreshold;
  options.policy.max_tombstone_ratio = 0.3;
  IncrementalMaintainer m(seed.Clone(),
                          core::MpcPartitioner(mpc).Partition(seed),
                          options);

  std::set<LexTriple> oracle;
  for (const rdf::Triple& t : seed.triples()) {
    oracle.insert(LexTriple{seed.VertexName(t.subject),
                            seed.PropertyName(t.property),
                            seed.VertexName(t.object)});
  }

  // Delete the seed triples in deterministic slices of 15.
  std::vector<LexTriple> all(oracle.begin(), oracle.end());
  size_t repartitions_seen = 0;
  for (size_t start = 0; start < all.size(); start += 15) {
    UpdateBatch batch;
    for (size_t i = start; i < std::min(start + 15, all.size()); ++i) {
      batch.updates.push_back(TripleUpdate{UpdateKind::kDelete, all[i][0],
                                           all[i][1], all[i][2]});
    }
    ApplyToOracle(batch, &oracle);
    ApplyResult r = m.ApplyBatch(batch);
    repartitions_seen += r.repartitioned ? 1 : 0;
    EXPECT_EQ(m.num_live_triples(), oracle.size());

    RdfGraph scratch = OracleGraph(oracle);
    sparql::QueryGraph query =
        testutil::ParseQueryOrDie("SELECT * WHERE { ?x <t:p0> ?y . }");
    BindingTable truth = testutil::GroundTruth(scratch, query);
    Result<exec::QueryResponse> got =
        serve::ServingState::Capture(m)->distributed().Execute(
            exec::QueryRequest::FromText(
                "SELECT * WHERE { ?x <t:p0> ?y . }"));
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(LexRows(got->bindings, m.graph()), LexRows(truth, scratch));
  }
  EXPECT_EQ(m.num_live_triples(), 0u);
  // The tombstone trigger must have fired at least once while draining.
  EXPECT_GE(m.repartition_count(), 1u);
  EXPECT_GE(repartitions_seen, 1u);
}

// ---------------------------------------------------------- Crash recovery

std::string TempDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

/// How the simulated crash leaves the journal directory.
enum class CrashKind {
  kNoJournal,       // crash before anything durable was written
  kTornWrite,       // crash mid-append: the last frame is torn
  kJournalComplete, // frames intact, but no checkpoint survives
  kCheckpointTail,  // a mid-stream checkpoint plus a journal tail
};

const char* CrashName(CrashKind kind) {
  switch (kind) {
    case CrashKind::kNoJournal: return "no-journal";
    case CrashKind::kTornWrite: return "torn-write";
    case CrashKind::kJournalComplete: return "journal-complete";
    case CrashKind::kCheckpointTail: return "checkpoint-tail";
  }
  return "?";
}

/// Kill-and-recover: a durable maintainer applies a prefix of the
/// stream, "crashes" (the process state is dropped; only the journal
/// directory survives, mutilated per CrashKind), is recovered via
/// OpenDurable, finishes the stream, and must be state-identical to an
/// uninterrupted run — at every thread count. Repartitions run inside
/// the batch that fires them, so a replayed batch re-runs its
/// repartition exactly where the original stream did.
TEST(DynamicRecoveryTest, RecoveredStateMatchesUninterruptedRun) {
  Rng rng(4242);
  RdfGraph seed = testutil::RandomGraph(rng, 60, 220, 5, /*community=*/12,
                                        /*escape=*/0.15);
  core::MpcOptions mpc;
  mpc.base.k = 4;
  mpc.base.epsilon = 0.3;
  partition::Partitioning seed_partitioning =
      core::MpcPartitioner(mpc).Partition(seed);
  std::vector<UpdateBatch> stream = MakeStream(rng, seed, 10, 12);
  const size_t crash_at = 6;  // batches applied before the crash
  const uint64_t fp = 0x5eedf00d;

  for (int threads : {1, 2, 8}) {
    MaintainerOptions options;
    options.mpc = mpc;
    // Tight thresholds so the stream drives repartitions — the matrix
    // must also prove that recovery re-runs them identically.
    options.policy.kind = RepartitionPolicy::Kind::kThreshold;
    options.policy.max_lcross_growth = 0.2;
    options.policy.min_lcross_slack = 2;
    options.policy.max_tombstone_ratio = 0.1;
    options.num_threads = threads;

    // Reference: an uninterrupted (non-durable) run of the full stream.
    IncrementalMaintainer reference(seed.Clone(), seed_partitioning,
                                    options);
    for (const UpdateBatch& b : stream) reference.ApplyBatch(b);
    const MaintainerState want = reference.ExportState();
    // The stream must drive at least one repartition, or the matrix
    // would never prove that recovery replays repartitions correctly.
    ASSERT_GE(reference.repartition_count(), 1u);

    for (CrashKind kind :
         {CrashKind::kNoJournal, CrashKind::kTornWrite,
          CrashKind::kJournalComplete, CrashKind::kCheckpointTail}) {
      const std::string context = std::string(CrashName(kind)) +
                                  " threads=" + std::to_string(threads);
      const std::string dir = TempDir(
          "mpc_recover_" + std::string(CrashName(kind)) + "_" +
          std::to_string(threads));
      MaintainerOptions durable = options;
      durable.journal_dir = dir;
      durable.checkpoint_every_batches =
          kind == CrashKind::kCheckpointTail ? 4 : 0;

      // Phase 1: run until the crash point (skipped for kNoJournal —
      // that crash happened before the first durable byte).
      size_t durable_batches = 0;
      if (kind != CrashKind::kNoJournal) {
        Result<std::unique_ptr<IncrementalMaintainer>> first =
            IncrementalMaintainer::OpenDurable(
                seed.Clone(), seed_partitioning, durable, fp);
        ASSERT_TRUE(first.ok()) << context << ": "
                                << first.status().ToString();
        for (size_t b = 0; b < crash_at; ++b) {
          ApplyResult r = (*first)->ApplyBatch(stream[b]);
          ASSERT_TRUE(r.durability.ok()) << context;
        }
        durable_batches = crash_at;
      }

      // The crash: drop the maintainer, then mutilate the directory.
      switch (kind) {
        case CrashKind::kNoJournal:
        case CrashKind::kCheckpointTail:
          break;
        case CrashKind::kTornWrite: {
          // Tear the final frame; batch crash_at is no longer durable.
          const std::string path = UpdateJournal::JournalPath(dir);
          std::filesystem::resize_file(
              path, std::filesystem::file_size(path) - 9);
          durable_batches = crash_at - 1;
          [[fallthrough]];
        }
        case CrashKind::kJournalComplete:
          // No checkpoint survives: recovery must replay the whole
          // journal from the seed (repartitions re-run synchronously).
          for (const auto& entry :
               std::filesystem::directory_iterator(dir)) {
            if (entry.path().extension() == ".ckpt") {
              std::filesystem::remove(entry.path());
            }
          }
          break;
      }

      // Phase 2: recover and finish the stream.
      Result<std::unique_ptr<IncrementalMaintainer>> recovered =
          IncrementalMaintainer::OpenDurable(
              seed.Clone(), seed_partitioning, durable, fp);
      ASSERT_TRUE(recovered.ok()) << context << ": "
                                  << recovered.status().ToString();
      EXPECT_EQ((*recovered)->batches_applied(), durable_batches)
          << context;
      for (size_t b = (*recovered)->batches_applied(); b < stream.size();
           ++b) {
        ApplyResult r = (*recovered)->ApplyBatch(stream[b]);
        ASSERT_TRUE(r.durability.ok()) << context;
      }

      const MaintainerState got = (*recovered)->ExportState();
      EXPECT_TRUE(got == want) << context;
      // On mismatch, pin down which piece diverged.
      if (!(got == want)) {
        EXPECT_EQ(got.seq, want.seq) << context;
        EXPECT_EQ(got.vertex_terms, want.vertex_terms) << context;
        EXPECT_EQ(got.property_terms, want.property_terms) << context;
        EXPECT_EQ(got.snapshot_triples, want.snapshot_triples) << context;
        EXPECT_EQ(got.assignment, want.assignment) << context;
        EXPECT_EQ(got.crossing_count, want.crossing_count) << context;
        EXPECT_EQ(got.num_crossing_edges, want.num_crossing_edges)
            << context;
        EXPECT_EQ(got.added, want.added) << context;
        EXPECT_EQ(got.deleted, want.deleted) << context;
        EXPECT_TRUE(got.forest == want.forest) << context;
        EXPECT_TRUE(got.tracker == want.tracker) << context;
        EXPECT_EQ(got.forest_stale_deletes, want.forest_stale_deletes)
            << context;
      }
    }
  }
}

/// Re-opening a finished durable run replays to exactly the final state
/// without re-running a single batch from the caller's side.
TEST(DynamicRecoveryTest, ReopenAfterCleanFinishIsIdempotent) {
  Rng rng(99);
  RdfGraph seed = testutil::RandomGraph(rng, 40, 140, 4, 10);
  core::MpcOptions mpc;
  mpc.base.k = 3;
  mpc.base.epsilon = 0.3;
  partition::Partitioning seed_partitioning =
      core::MpcPartitioner(mpc).Partition(seed);
  std::vector<UpdateBatch> stream = MakeStream(rng, seed, 6, 8);

  MaintainerOptions options;
  options.mpc = mpc;
  options.policy.kind = RepartitionPolicy::Kind::kThreshold;
  options.journal_dir = TempDir("mpc_recover_idem");
  const uint64_t fp = 17;

  MaintainerState finished;
  {
    Result<std::unique_ptr<IncrementalMaintainer>> m =
        IncrementalMaintainer::OpenDurable(seed.Clone(), seed_partitioning,
                                           options, fp);
    ASSERT_TRUE(m.ok());
    for (const UpdateBatch& b : stream) (*m)->ApplyBatch(b);
    ASSERT_TRUE((*m)->WriteCheckpoint().ok());
    finished = (*m)->ExportState();
  }
  Result<std::unique_ptr<IncrementalMaintainer>> again =
      IncrementalMaintainer::OpenDurable(seed.Clone(), seed_partitioning,
                                         options, fp);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ((*again)->batches_applied(), stream.size());
  EXPECT_TRUE((*again)->ExportState() == finished);

  // The wrong fingerprint is refused outright.
  EXPECT_FALSE(IncrementalMaintainer::OpenDurable(
                   seed.Clone(), seed_partitioning, options, fp + 1)
                   .ok());
}

}  // namespace
}  // namespace mpc::dynamic

// Pins the Table II headline |L_cross| values of the repro datasets at
// bench scale factors, so the reproduction cannot silently drift. These
// are the measured values recorded in EXPERIMENTS.md; the LUBM and
// WatDiv values match the paper exactly (5 and 17).

#include <ostream>
#include <string>

#include "gtest/gtest.h"
#include "mpc/mpc_partitioner.h"
#include "workload/datasets.h"

namespace mpc {
namespace {

struct PinCase {
  workload::DatasetId id;
  double scale;
  size_t min_crossing;
  size_t max_crossing;
};

/// Cases are named after their dataset (gtest's default prints the raw
/// bytes, struct padding included).
void PrintTo(const PinCase& c, std::ostream* os) {
  *os << workload::DatasetName(c.id);
}

class Table2PinningTest : public ::testing::TestWithParam<PinCase> {};

TEST_P(Table2PinningTest, MpcCrossingPropertiesInBand) {
  const auto [id, scale, lo, hi] = GetParam();
  workload::GeneratedDataset d = workload::MakeDataset(id, scale, 1);
  core::MpcOptions options;
  options.base.k = 8;
  options.base.epsilon = 0.1;
  partition::Partitioning p =
      core::MpcPartitioner(options).Partition(d.graph);
  EXPECT_GE(p.num_crossing_properties(), lo) << workload::DatasetName(id);
  EXPECT_LE(p.num_crossing_properties(), hi) << workload::DatasetName(id);
}

INSTANTIATE_TEST_SUITE_P(
    AllDatasets, Table2PinningTest,
    ::testing::Values(
        // Paper: LUBM 5 — matched exactly at bench scale.
        PinCase{workload::DatasetId::kLubm, 1.0, 5, 5},
        // Paper: WatDiv 17 — matched exactly (type + 15 global + country).
        PinCase{workload::DatasetId::kWatdiv, 1.0, 17, 17},
        // Paper: YAGO2 5; ours lands at 4-5 of the 5 global connectors.
        PinCase{workload::DatasetId::kYago2, 1.0, 3, 6},
        // Paper: Bio2RDF 36; at repro scale the xref properties are
        // sparse enough that almost all stay internal.
        PinCase{workload::DatasetId::kBio2rdf, 1.0, 0, 40},
        // Paper: LGD 6; ours 2-6 of the 6 global connectors.
        PinCase{workload::DatasetId::kLgd, 0.5, 1, 8}),
    [](const auto& info) {
      return std::string(workload::DatasetName(info.param.id));
    });

}  // namespace
}  // namespace mpc

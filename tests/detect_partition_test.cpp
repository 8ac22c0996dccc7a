#include <gtest/gtest.h>

#include "detect/partition.h"
#include "gen/erdos_renyi.h"
#include "graph/builder.h"
#include "util/rng.h"

namespace rejecto::detect {
namespace {

// Random augmented graph: ER friendships plus random rejection arcs.
graph::AugmentedGraph RandomAugmented(graph::NodeId n, graph::EdgeId edges,
                                      std::size_t arcs, util::Rng& rng) {
  graph::GraphBuilder b(n);
  const auto social = gen::ErdosRenyi({.num_nodes = n, .num_edges = edges},
                                      rng);
  for (const auto& e : social.Edges()) b.AddFriendship(e.u, e.v);
  for (std::size_t i = 0; i < arcs; ++i) {
    const auto u = static_cast<graph::NodeId>(rng.NextUInt(n));
    auto v = static_cast<graph::NodeId>(rng.NextUInt(n));
    if (u == v) v = (v + 1) % n;
    b.AddRejection(u, v);
  }
  return b.BuildAugmented();
}

std::vector<char> RandomMask(graph::NodeId n, double p, util::Rng& rng) {
  std::vector<char> m(n, 0);
  for (auto& c : m) c = rng.NextBool(p) ? 1 : 0;
  return m;
}

TEST(PartitionTest, InitialQuantitiesMatchOracle) {
  util::Rng rng(1);
  const auto g = RandomAugmented(40, 120, 80, rng);
  const auto mask = RandomMask(40, 0.4, rng);
  Partition p(g, mask);
  const auto oracle = g.ComputeCut(mask);
  const auto q = p.Quantities();
  EXPECT_EQ(q.cross_friendships, oracle.cross_friendships);
  EXPECT_EQ(q.rejections_into_u, oracle.rejections_into_u);
  EXPECT_EQ(q.rejections_from_u, oracle.rejections_from_u);
}

TEST(PartitionTest, SizeUTracked) {
  util::Rng rng(2);
  const auto g = RandomAugmented(20, 40, 20, rng);
  std::vector<char> mask(20, 0);
  mask[3] = mask[7] = 1;
  Partition p(g, mask);
  EXPECT_EQ(p.SizeU(), 2u);
  p.Switch(3);
  EXPECT_EQ(p.SizeU(), 1u);
  p.Switch(0);
  EXPECT_EQ(p.SizeU(), 2u);
  EXPECT_FALSE(p.InU(3));
  EXPECT_TRUE(p.InU(0));
}

TEST(PartitionTest, MaskSizeMismatchThrows) {
  util::Rng rng(3);
  const auto g = RandomAugmented(10, 20, 10, rng);
  EXPECT_THROW(Partition(g, std::vector<char>(5, 0)), std::invalid_argument);
}

TEST(PartitionTest, SwitchOutOfRangeThrows) {
  util::Rng rng(4);
  const auto g = RandomAugmented(10, 20, 10, rng);
  Partition p(g, std::vector<char>(10, 0));
  EXPECT_THROW(p.Switch(10), std::out_of_range);
}

TEST(PartitionTest, DoubleSwitchIsIdentity) {
  util::Rng rng(5);
  const auto g = RandomAugmented(30, 80, 50, rng);
  const auto mask = RandomMask(30, 0.5, rng);
  Partition p(g, mask);
  const auto before = p.Quantities();
  p.Switch(11);
  p.Switch(11);
  const auto after = p.Quantities();
  EXPECT_EQ(before.cross_friendships, after.cross_friendships);
  EXPECT_EQ(before.rejections_into_u, after.rejections_into_u);
  EXPECT_EQ(p.Mask(), mask);
}

// SwitchAll (the KL rollback) lands on exactly the state the same Switch
// calls reach: mask, region size, cut totals and every node's gain.
TEST(PartitionTest, SwitchAllMatchesSwitchingOneByOne) {
  util::Rng rng(9);
  const auto g = RandomAugmented(50, 150, 100, rng);
  const auto mask = RandomMask(50, 0.4, rng);
  Partition one_by_one(g, mask);
  Partition recomputed(g, mask);
  std::vector<graph::NodeId> nodes;
  for (graph::NodeId v = 0; v < 50; v += 3) nodes.push_back(v);
  for (graph::NodeId v : nodes) one_by_one.Switch(v);
  recomputed.SwitchAll(nodes);
  EXPECT_EQ(recomputed.Mask(), one_by_one.Mask());
  EXPECT_EQ(recomputed.SizeU(), one_by_one.SizeU());
  const auto q = recomputed.Quantities();
  const auto want = one_by_one.Quantities();
  EXPECT_EQ(q.cross_friendships, want.cross_friendships);
  EXPECT_EQ(q.rejections_into_u, want.rejections_into_u);
  EXPECT_EQ(q.rejections_from_u, want.rejections_from_u);
  for (graph::NodeId v = 0; v < 50; ++v) {
    EXPECT_EQ(recomputed.DeltaFriends(v), one_by_one.DeltaFriends(v)) << v;
    EXPECT_EQ(recomputed.DeltaRejections(v), one_by_one.DeltaRejections(v))
        << v;
  }
  const graph::NodeId bad[1] = {50};
  EXPECT_THROW(recomputed.SwitchAll(bad), std::out_of_range);
}

// Property: after any random switch sequence, the incrementally-maintained
// totals equal the O(E) oracle recomputation.
class PartitionPropertyTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(PartitionPropertyTest, IncrementalTotalsMatchOracleAfterSwitches) {
  util::Rng rng(GetParam());
  const graph::NodeId n = 20 + static_cast<graph::NodeId>(rng.NextUInt(40));
  const auto g =
      RandomAugmented(n, static_cast<graph::EdgeId>(n) * 3, n * 2, rng);
  const auto mask = RandomMask(n, 0.3, rng);
  Partition p(g, mask);
  for (int step = 0; step < 200; ++step) {
    p.Switch(static_cast<graph::NodeId>(rng.NextUInt(n)));
    if (step % 20 == 0) {
      const auto oracle = g.ComputeCut(p.Mask());
      const auto q = p.Quantities();
      ASSERT_EQ(q.cross_friendships, oracle.cross_friendships) << "step " << step;
      ASSERT_EQ(q.rejections_into_u, oracle.rejections_into_u) << "step " << step;
      ASSERT_EQ(q.rejections_from_u, oracle.rejections_from_u) << "step " << step;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, PartitionPropertyTest,
                         ::testing::Range<std::uint64_t>(0, 12));

// Property: DeltaObjective(v) equals the objective difference measured by
// actually switching v and recomputing from scratch.
class DeltaObjectivePropertyTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DeltaObjectivePropertyTest, DeltaMatchesRecomputedDifference) {
  util::Rng rng(GetParam() + 100);
  const graph::NodeId n = 15 + static_cast<graph::NodeId>(rng.NextUInt(25));
  const auto g =
      RandomAugmented(n, static_cast<graph::EdgeId>(n) * 2, n * 2, rng);
  const auto mask = RandomMask(n, 0.5, rng);
  const double k = 0.25 + rng.NextDouble() * 4.0;

  Partition p(g, mask);
  for (graph::NodeId v = 0; v < n; ++v) {
    const double before = p.Objective(k);
    const double predicted = p.DeltaObjective(v, k);
    p.Switch(v);
    const double after = p.Objective(k);
    ASSERT_NEAR(after - before, predicted, 1e-9) << "node " << v;
    p.Switch(v);  // restore
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, DeltaObjectivePropertyTest,
                         ::testing::Range<std::uint64_t>(0, 12));

}  // namespace
}  // namespace rejecto::detect

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "graph/augmented_graph.h"
#include "graph/builder.h"
#include "graph/rejection_graph.h"
#include "graph/social_graph.h"
#include "graph/subgraph.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace rejecto::graph {
namespace {

// ---------- GraphBuilder / SocialGraph ----------

TEST(GraphBuilderTest, EmptyGraph) {
  GraphBuilder b;
  const SocialGraph g = b.BuildSocial();
  EXPECT_EQ(g.NumNodes(), 0u);
  EXPECT_EQ(g.NumEdges(), 0u);
}

TEST(GraphBuilderTest, AddNodeReturnsSequentialIds) {
  GraphBuilder b;
  EXPECT_EQ(b.AddNode(), 0u);
  EXPECT_EQ(b.AddNode(), 1u);
  EXPECT_EQ(b.AddNodes(3), 2u);
  EXPECT_EQ(b.NumNodes(), 5u);
}

TEST(GraphBuilderTest, SelfFriendshipThrows) {
  GraphBuilder b(2);
  EXPECT_THROW(b.AddFriendship(1, 1), std::invalid_argument);
}

TEST(GraphBuilderTest, SelfRejectionArcThrows) {
  GraphBuilder b(2);
  EXPECT_THROW(b.AddRejection(0, 0), std::invalid_argument);
}

TEST(GraphBuilderTest, EdgesImplicitlyGrowNodeRange) {
  GraphBuilder b;
  b.AddFriendship(3, 7);
  EXPECT_EQ(b.NumNodes(), 8u);
  const SocialGraph g = b.BuildSocial();
  EXPECT_EQ(g.NumNodes(), 8u);
  EXPECT_TRUE(g.HasEdge(3, 7));
  EXPECT_EQ(g.Degree(0), 0u);
}

TEST(GraphBuilderTest, DuplicateEdgesCollapse) {
  GraphBuilder b(3);
  b.AddFriendship(0, 1);
  b.AddFriendship(1, 0);
  b.AddFriendship(0, 1);
  const SocialGraph g = b.BuildSocial();
  EXPECT_EQ(g.NumEdges(), 1u);
  EXPECT_EQ(g.Degree(0), 1u);
  EXPECT_EQ(g.Degree(1), 1u);
}

TEST(SocialGraphTest, NeighborsAreSorted) {
  GraphBuilder b(5);
  b.AddFriendship(2, 4);
  b.AddFriendship(2, 0);
  b.AddFriendship(2, 3);
  const SocialGraph g = b.BuildSocial();
  const auto nbrs = g.Neighbors(2);
  EXPECT_TRUE(std::is_sorted(nbrs.begin(), nbrs.end()));
  EXPECT_EQ(nbrs.size(), 3u);
}

TEST(SocialGraphTest, HasEdgeSymmetric) {
  GraphBuilder b(4);
  b.AddFriendship(1, 3);
  const SocialGraph g = b.BuildSocial();
  EXPECT_TRUE(g.HasEdge(1, 3));
  EXPECT_TRUE(g.HasEdge(3, 1));
  EXPECT_FALSE(g.HasEdge(0, 2));
}

// Accessor bounds checks are REJECTO_DCHECKs: they throw in debug builds
// and compile out entirely under NDEBUG (Release), so the contract is only
// testable when NDEBUG is off.
#ifndef NDEBUG
TEST(SocialGraphTest, OutOfRangeNodeThrows) {
  GraphBuilder b(2);
  b.AddFriendship(0, 1);
  const SocialGraph g = b.BuildSocial();
  EXPECT_THROW(g.Degree(2), std::out_of_range);
  EXPECT_THROW(g.Neighbors(9), std::out_of_range);
  EXPECT_THROW((void)g.HasEdge(0, 5), std::out_of_range);
}
#endif  // NDEBUG

TEST(SocialGraphTest, EdgesReportsEachOnceNormalized) {
  GraphBuilder b(4);
  b.AddFriendship(3, 1);
  b.AddFriendship(0, 2);
  const SocialGraph g = b.BuildSocial();
  auto edges = g.Edges();
  ASSERT_EQ(edges.size(), 2u);
  for (const Edge& e : edges) EXPECT_LT(e.u, e.v);
}

TEST(SocialGraphTest, MaxDegreeTracked) {
  GraphBuilder b(5);
  for (NodeId v = 1; v < 5; ++v) b.AddFriendship(0, v);
  EXPECT_EQ(b.BuildSocial().MaxDegree(), 4u);
}

TEST(GraphBuilderTest, BuilderReusableAfterBuild) {
  GraphBuilder b(3);
  b.AddFriendship(0, 1);
  const SocialGraph g1 = b.BuildSocial();
  b.AddFriendship(1, 2);
  const SocialGraph g2 = b.BuildSocial();
  EXPECT_EQ(g1.NumEdges(), 1u);
  EXPECT_EQ(g2.NumEdges(), 2u);
}

// ---------- RejectionGraph ----------

TEST(RejectionGraphTest, DirectionalityPreserved) {
  GraphBuilder b(3);
  b.AddRejection(0, 1);  // 0 rejected 1's request
  const RejectionGraph r = b.BuildRejection();
  EXPECT_TRUE(r.HasArc(0, 1));
  EXPECT_FALSE(r.HasArc(1, 0));
  EXPECT_EQ(r.OutDegree(0), 1u);
  EXPECT_EQ(r.InDegree(1), 1u);
  EXPECT_EQ(r.InDegree(0), 0u);
}

TEST(RejectionGraphTest, RepeatedRejectionsCollapse) {
  GraphBuilder b(2);
  b.AddRejection(0, 1);
  b.AddRejection(0, 1);
  b.AddRejection(0, 1);
  EXPECT_EQ(b.BuildRejection().NumArcs(), 1u);
}

TEST(RejectionGraphTest, BothDirectionsAreDistinctArcs) {
  GraphBuilder b(2);
  b.AddRejection(0, 1);
  b.AddRejection(1, 0);
  const RejectionGraph r = b.BuildRejection();
  EXPECT_EQ(r.NumArcs(), 2u);
}

TEST(RejectionGraphTest, InAdjacencyMirrorsOut) {
  GraphBuilder b(5);
  b.AddRejection(0, 2);
  b.AddRejection(1, 2);
  b.AddRejection(3, 2);
  b.AddRejection(2, 4);
  const RejectionGraph r = b.BuildRejection();
  const auto rejectors = r.Rejectors(2);
  ASSERT_EQ(rejectors.size(), 3u);
  EXPECT_TRUE(std::is_sorted(rejectors.begin(), rejectors.end()));
  EXPECT_EQ(r.Rejectees(2).size(), 1u);
  EXPECT_EQ(r.Rejectees(2)[0], 4u);
}

TEST(RejectionGraphTest, ArcsEnumerationMatchesCount) {
  GraphBuilder b(4);
  b.AddRejection(0, 1);
  b.AddRejection(2, 3);
  b.AddRejection(3, 0);
  const RejectionGraph r = b.BuildRejection();
  EXPECT_EQ(r.Arcs().size(), r.NumArcs());
}

#ifndef NDEBUG
TEST(RejectionGraphTest, OutOfRangeThrows) {
  GraphBuilder b(2);
  b.AddRejection(0, 1);
  const RejectionGraph r = b.BuildRejection();
  EXPECT_THROW(r.Rejectors(5), std::out_of_range);
  EXPECT_THROW(r.InDegree(2), std::out_of_range);
}
#endif  // NDEBUG

// ---------- AugmentedGraph ----------

AugmentedGraph MakeSmallAugmented() {
  // Legit: 0-1-2 triangle. Fakes: 3-4 linked. Attack edge 2-3.
  // Rejections: 0->3, 1->3, 1->4 (legit rejecting fakes), 4->0 (fake
  // rejecting a legit request).
  GraphBuilder b(5);
  b.AddFriendship(0, 1);
  b.AddFriendship(1, 2);
  b.AddFriendship(0, 2);
  b.AddFriendship(3, 4);
  b.AddFriendship(2, 3);
  b.AddRejection(0, 3);
  b.AddRejection(1, 3);
  b.AddRejection(1, 4);
  b.AddRejection(4, 0);
  return b.BuildAugmented();
}

TEST(AugmentedGraphTest, MismatchedNodeCountsThrow) {
  GraphBuilder bf(3);
  bf.AddFriendship(0, 1);
  GraphBuilder br(2);
  br.AddRejection(0, 1);
  EXPECT_THROW(AugmentedGraph(bf.BuildSocial(), br.BuildRejection()),
               std::invalid_argument);
}

TEST(AugmentedGraphTest, ComputeCutOnFakeRegion) {
  const AugmentedGraph g = MakeSmallAugmented();
  std::vector<char> in_u = {0, 0, 0, 1, 1};  // U = fakes {3,4}
  const CutQuantities q = g.ComputeCut(in_u);
  EXPECT_EQ(q.cross_friendships, 1u);    // attack edge 2-3
  EXPECT_EQ(q.rejections_into_u, 3u);    // 0->3, 1->3, 1->4
  EXPECT_EQ(q.rejections_from_u, 1u);    // 4->0
  EXPECT_NEAR(q.AcceptanceRate(), 1.0 / 4.0, 1e-12);
  EXPECT_NEAR(q.FriendsToRejectionsRatio(), 1.0 / 3.0, 1e-12);
}

TEST(AugmentedGraphTest, ComputeCutEmptyU) {
  const AugmentedGraph g = MakeSmallAugmented();
  std::vector<char> in_u(5, 0);
  const CutQuantities q = g.ComputeCut(in_u);
  EXPECT_EQ(q.cross_friendships, 0u);
  EXPECT_EQ(q.rejections_into_u, 0u);
  EXPECT_EQ(q.AcceptanceRate(), 1.0);  // degenerate 0/0 convention
  EXPECT_TRUE(std::isinf(q.FriendsToRejectionsRatio()));
}

TEST(AugmentedGraphTest, ComputeCutFullU) {
  const AugmentedGraph g = MakeSmallAugmented();
  std::vector<char> in_u(5, 1);
  const CutQuantities q = g.ComputeCut(in_u);
  EXPECT_EQ(q.cross_friendships, 0u);
  EXPECT_EQ(q.rejections_into_u, 0u);
  EXPECT_EQ(q.rejections_from_u, 0u);
}

TEST(AugmentedGraphTest, ComputeCutWrongMaskSizeThrows) {
  const AugmentedGraph g = MakeSmallAugmented();
  EXPECT_THROW(g.ComputeCut(std::vector<char>(3, 0)), std::invalid_argument);
}

TEST(CutQuantitiesTest, AcceptanceRateFormula) {
  CutQuantities q;
  q.cross_friendships = 30;
  q.rejections_into_u = 70;
  EXPECT_NEAR(q.AcceptanceRate(), 0.3, 1e-12);
  EXPECT_NEAR(q.FriendsToRejectionsRatio(), 30.0 / 70.0, 1e-12);
}

// ---------- InducedSubgraph ----------

TEST(SubgraphTest, KeepsOnlyMaskedNodesAndInternalEdges) {
  const AugmentedGraph g = MakeSmallAugmented();
  std::vector<char> keep = {1, 1, 1, 0, 0};  // drop the fakes
  const CompactedGraph c = InducedSubgraph(g, keep);
  EXPECT_EQ(c.graph.NumNodes(), 3u);
  EXPECT_EQ(c.graph.Friendships().NumEdges(), 3u);  // legit triangle only
  EXPECT_EQ(c.graph.Rejections().NumArcs(), 0u);    // all arcs touched fakes
  EXPECT_EQ(c.parent_id, (std::vector<NodeId>{0, 1, 2}));
}

TEST(SubgraphTest, KeepsInternalRejections) {
  GraphBuilder b(4);
  b.AddFriendship(0, 1);
  b.AddRejection(0, 1);
  b.AddRejection(2, 1);
  const AugmentedGraph g = b.BuildAugmented();
  std::vector<char> keep = {1, 1, 0, 1};
  const CompactedGraph c = InducedSubgraph(g, keep);
  EXPECT_EQ(c.graph.NumNodes(), 3u);
  EXPECT_EQ(c.graph.Rejections().NumArcs(), 1u);  // 0->1 survives, 2->1 gone
  EXPECT_TRUE(c.graph.Rejections().HasArc(0, 1));
}

TEST(SubgraphTest, EmptyKeepProducesEmptyGraph) {
  const AugmentedGraph g = MakeSmallAugmented();
  const CompactedGraph c = InducedSubgraph(g, std::vector<char>(5, 0));
  EXPECT_EQ(c.graph.NumNodes(), 0u);
  EXPECT_TRUE(c.parent_id.empty());
}

TEST(SubgraphTest, WrongMaskSizeThrows) {
  const AugmentedGraph g = MakeSmallAugmented();
  EXPECT_THROW(InducedSubgraph(g, std::vector<char>(2, 1)),
               std::invalid_argument);
}

TEST(SubgraphTest, ParentIdsMapBack) {
  const AugmentedGraph g = MakeSmallAugmented();
  std::vector<char> keep = {0, 1, 0, 1, 1};
  const CompactedGraph c = InducedSubgraph(g, keep);
  EXPECT_EQ(c.parent_id, (std::vector<NodeId>{1, 3, 4}));
  // Edge 3-4 in the parent is 1-2 in the child.
  EXPECT_TRUE(c.graph.Friendships().HasEdge(1, 2));
}

// Reference compaction through GraphBuilder — the implementation the CSR
// filter replaced. The builder path re-sorts and re-deduplicates, so
// agreement here proves the filter preserves the full CSR contract.
CompactedGraph BuilderInducedSubgraph(const AugmentedGraph& g,
                                      const std::vector<char>& keep) {
  std::vector<NodeId> new_id(g.NumNodes(), kInvalidNode);
  CompactedGraph out;
  for (NodeId u = 0; u < g.NumNodes(); ++u) {
    if (keep[u]) {
      new_id[u] = static_cast<NodeId>(out.parent_id.size());
      out.parent_id.push_back(u);
    }
  }
  GraphBuilder builder(static_cast<NodeId>(out.parent_id.size()));
  const auto& fr = g.Friendships();
  for (NodeId u = 0; u < g.NumNodes(); ++u) {
    if (!keep[u]) continue;
    for (NodeId v : fr.Neighbors(u)) {
      if (u < v && keep[v]) builder.AddFriendship(new_id[u], new_id[v]);
    }
  }
  const auto& rej = g.Rejections();
  for (NodeId u = 0; u < g.NumNodes(); ++u) {
    if (!keep[u]) continue;
    for (NodeId v : rej.Rejectees(u)) {
      if (keep[v]) builder.AddRejection(new_id[u], new_id[v]);
    }
  }
  out.graph = builder.BuildAugmented();
  return out;
}

// Full structural equality, not just counts: per-node adjacency in both
// graphs and both rejection directions, plus the cached degree maxima the
// KL gain bound depends on.
void ExpectSameCompaction(const CompactedGraph& a, const CompactedGraph& b) {
  ASSERT_EQ(a.parent_id, b.parent_id);
  ASSERT_EQ(a.graph.NumNodes(), b.graph.NumNodes());
  const auto& fa = a.graph.Friendships();
  const auto& fb = b.graph.Friendships();
  ASSERT_EQ(fa.NumEdges(), fb.NumEdges());
  EXPECT_EQ(fa.MaxDegree(), fb.MaxDegree());
  EXPECT_EQ(a.graph.MaxFriendshipDegree(), b.graph.MaxFriendshipDegree());
  EXPECT_EQ(a.graph.MaxRejectionDegree(), b.graph.MaxRejectionDegree());
  const auto& ra = a.graph.Rejections();
  const auto& rb = b.graph.Rejections();
  ASSERT_EQ(ra.NumArcs(), rb.NumArcs());
  for (NodeId v = 0; v < a.graph.NumNodes(); ++v) {
    ASSERT_TRUE(std::equal(fa.Neighbors(v).begin(), fa.Neighbors(v).end(),
                           fb.Neighbors(v).begin(), fb.Neighbors(v).end()))
        << "friend row " << v;
    ASSERT_TRUE(std::equal(ra.Rejectees(v).begin(), ra.Rejectees(v).end(),
                           rb.Rejectees(v).begin(), rb.Rejectees(v).end()))
        << "rejectee row " << v;
    ASSERT_TRUE(std::equal(ra.Rejectors(v).begin(), ra.Rejectors(v).end(),
                           rb.Rejectors(v).begin(), rb.Rejectors(v).end()))
        << "rejector row " << v;
  }
}

AugmentedGraph RandomAugmentedForSubgraph(NodeId n, EdgeId edges,
                                          std::size_t arcs, util::Rng& rng) {
  GraphBuilder b(n);
  for (EdgeId e = 0; e < edges; ++e) {
    const auto u = static_cast<NodeId>(rng.NextUInt(n));
    auto v = static_cast<NodeId>(rng.NextUInt(n));
    if (u == v) v = (v + 1) % n;
    b.AddFriendship(u, v);
  }
  for (std::size_t i = 0; i < arcs; ++i) {
    const auto u = static_cast<NodeId>(rng.NextUInt(n));
    auto v = static_cast<NodeId>(rng.NextUInt(n));
    if (u == v) v = (v + 1) % n;
    b.AddRejection(u, v);
  }
  return b.BuildAugmented();
}

TEST(SubgraphTest, CsrFilterMatchesBuilderOnRandomMasks) {
  util::Rng rng(99);
  const AugmentedGraph g = RandomAugmentedForSubgraph(60, 200, 150, rng);
  for (int trial = 0; trial < 110; ++trial) {
    std::vector<char> keep(g.NumNodes(), 0);
    const double p = rng.NextDouble();  // densities from ~empty to ~full
    for (auto& c : keep) c = rng.NextBool(p) ? 1 : 0;
    const CompactedGraph csr = InducedSubgraph(g, keep);
    const CompactedGraph ref = BuilderInducedSubgraph(g, keep);
    ExpectSameCompaction(csr, ref);
  }
}

TEST(SubgraphTest, FullMaskIsAnExactIdentityCompaction) {
  util::Rng rng(77);
  const AugmentedGraph g = RandomAugmentedForSubgraph(40, 120, 90, rng);
  const CompactedGraph c = InducedSubgraph(g, std::vector<char>(40, 1));
  ASSERT_EQ(c.graph.NumNodes(), g.NumNodes());
  EXPECT_EQ(c.graph, g);  // all three CSRs byte-equal, degree caches too
  std::vector<NodeId> iota(g.NumNodes());
  for (NodeId v = 0; v < g.NumNodes(); ++v) iota[v] = v;
  EXPECT_EQ(c.parent_id, iota);
}

TEST(SubgraphTest, IsolatedNodeOnlyMaskKeepsNodesAndNoEdges) {
  // Nodes 0/2/5 have no friendships AND no rejection arcs; a mask selecting
  // only them must produce an edgeless graph in all three CSRs while still
  // materializing every kept node.
  GraphBuilder b(6);
  b.AddFriendship(1, 3);
  b.AddFriendship(3, 4);
  b.AddRejection(4, 1);
  const AugmentedGraph g = b.BuildAugmented();
  const std::vector<char> keep = {1, 0, 1, 0, 0, 1};
  const CompactedGraph c = InducedSubgraph(g, keep);
  ASSERT_EQ(c.graph.NumNodes(), 3u);
  EXPECT_EQ(c.parent_id, (std::vector<NodeId>{0, 2, 5}));
  EXPECT_EQ(c.graph.Friendships().NumEdges(), 0u);
  EXPECT_EQ(c.graph.Rejections().NumArcs(), 0u);
  for (NodeId v = 0; v < 3; ++v) {
    EXPECT_EQ(c.graph.Friendships().Degree(v), 0u);
    EXPECT_EQ(c.graph.Rejections().OutDegree(v), 0u);
    EXPECT_EQ(c.graph.Rejections().InDegree(v), 0u);
  }
  EXPECT_EQ(c.graph.MaxFriendshipDegree(), 0u);
  EXPECT_EQ(c.graph.MaxRejectionDegree(), 0u);
}

TEST(SubgraphTest, RejectionMirrorStaysConsistentUnderCompaction) {
  // The out-CSR and in-CSR are filtered independently; they must remain
  // exact mirrors of each other for every mask.
  util::Rng rng(88);
  const AugmentedGraph g = RandomAugmentedForSubgraph(50, 150, 200, rng);
  for (int trial = 0; trial < 40; ++trial) {
    std::vector<char> keep(g.NumNodes(), 0);
    for (auto& c : keep) c = rng.NextBool(rng.NextDouble()) ? 1 : 0;
    const CompactedGraph c = InducedSubgraph(g, keep);
    const auto& rej = c.graph.Rejections();
    std::size_t out_total = 0;
    std::size_t in_total = 0;
    for (NodeId u = 0; u < c.graph.NumNodes(); ++u) {
      out_total += rej.Rejectees(u).size();
      in_total += rej.Rejectors(u).size();
      for (NodeId v : rej.Rejectees(u)) {
        const auto in_row = rej.Rejectors(v);
        EXPECT_TRUE(std::find(in_row.begin(), in_row.end(), u) !=
                    in_row.end())
            << "arc " << u << "->" << v << " missing from the in-CSR";
      }
    }
    EXPECT_EQ(out_total, in_total);
    EXPECT_EQ(out_total, rej.NumArcs());
  }
}

// Checks a compaction against the definition itself rather than a second
// implementation: kept nodes in id order, and exactly the internal edges
// and arcs, remapped.
void ExpectInducedByDefinition(const AugmentedGraph& g,
                               const std::vector<char>& keep,
                               const CompactedGraph& c) {
  std::vector<NodeId> new_id(g.NumNodes(), kInvalidNode);
  std::vector<NodeId> kept;
  for (NodeId u = 0; u < g.NumNodes(); ++u) {
    if (keep[u]) {
      new_id[u] = static_cast<NodeId>(kept.size());
      kept.push_back(u);
    }
  }
  ASSERT_EQ(c.parent_id, kept);
  ASSERT_EQ(c.graph.NumNodes(), kept.size());
  EdgeId internal_edges = 0;
  std::size_t internal_arcs = 0;
  for (NodeId u : kept) {
    for (NodeId v : g.Friendships().Neighbors(u)) {
      if (u < v && keep[v]) {
        ++internal_edges;
        ASSERT_TRUE(c.graph.Friendships().HasEdge(new_id[u], new_id[v]))
            << "edge " << u << "-" << v;
      }
    }
    for (NodeId v : g.Rejections().Rejectees(u)) {
      if (!keep[v]) continue;
      ++internal_arcs;
      const auto row = c.graph.Rejections().Rejectees(new_id[u]);
      ASSERT_TRUE(std::binary_search(row.begin(), row.end(), new_id[v]))
          << "arc " << u << "->" << v;
    }
  }
  EXPECT_EQ(c.graph.Friendships().NumEdges(), internal_edges);
  EXPECT_EQ(c.graph.Rejections().NumArcs(), internal_arcs);
}

TEST(SubgraphTest, PoolParityOnRandomMasks) {
  util::Rng rng(123);
  const AugmentedGraph g = RandomAugmentedForSubgraph(120, 500, 400, rng);
  util::ThreadPool pool(4);
  for (int trial = 0; trial < 25; ++trial) {
    std::vector<char> keep(g.NumNodes(), 0);
    for (auto& c : keep) c = rng.NextBool(0.6) ? 1 : 0;
    const CompactedGraph serial = InducedSubgraph(g, keep, nullptr);
    const CompactedGraph parallel = InducedSubgraph(g, keep, &pool);
    ExpectSameCompaction(serial, parallel);
  }

  // The compaction a MAAR round performs at scenario scale: ~10K nodes, a
  // 30% prune, and rejection arcs that overlap friendship pairs (every
  // fourth friendship also carries a rejection).
  constexpr NodeId kNodes = 10'000;
  GraphBuilder b(kNodes);
  for (EdgeId e = 0; e < 50'000; ++e) {
    const auto u = static_cast<NodeId>(rng.NextUInt(kNodes));
    auto v = static_cast<NodeId>(rng.NextUInt(kNodes));
    if (u == v) v = (v + 1) % kNodes;
    b.AddFriendship(u, v);
    if (e % 4 == 0) b.AddRejection(v, u);
  }
  for (int i = 0; i < 10'000; ++i) {
    const auto u = static_cast<NodeId>(rng.NextUInt(kNodes));
    auto v = static_cast<NodeId>(rng.NextUInt(kNodes));
    if (u == v) v = (v + 1) % kNodes;
    b.AddRejection(u, v);
  }
  const AugmentedGraph large = b.BuildAugmented();
  std::vector<char> keep(kNodes, 1);
  for (auto& c : keep) c = rng.NextBool(0.3) ? 0 : 1;
  const CompactedGraph serial = InducedSubgraph(large, keep, nullptr);
  const CompactedGraph parallel = InducedSubgraph(large, keep, &pool);
  ExpectInducedByDefinition(large, keep, serial);
  ExpectInducedByDefinition(large, keep, parallel);
  ExpectSameCompaction(serial, parallel);
}

}  // namespace
}  // namespace rejecto::graph

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <stdexcept>
#include <tuple>
#include <utility>

#include "detect/extended_kl.h"
#include "engine/cluster.h"
#include "engine/dist_kl.h"
#include "engine/dist_detector.h"
#include "engine/dist_maar.h"
#include "engine/prefetch.h"
#include "engine/shard_store.h"
#include "engine/wire.h"
#include "gen/erdos_renyi.h"
#include "graph/builder.h"
#include "sim/scenario.h"
#include "util/rng.h"

namespace rejecto::engine {
namespace {

graph::AugmentedGraph SmallAugmented(util::Rng& rng, graph::NodeId n = 60) {
  graph::GraphBuilder b(n);
  const auto social = gen::ErdosRenyi(
      {.num_nodes = n, .num_edges = static_cast<graph::EdgeId>(n) * 3}, rng);
  for (const auto& e : social.Edges()) b.AddFriendship(e.u, e.v);
  for (graph::NodeId i = 0; i < n; ++i) {
    const auto u = static_cast<graph::NodeId>(rng.NextUInt(n));
    const auto v = static_cast<graph::NodeId>(rng.NextUInt(n));
    if (u != v) b.AddRejection(u, v);
  }
  return b.BuildAugmented();
}

// One output row pointer per row, for ShardedGraphStore::FetchInto.
std::vector<NodeAdjacency*> RowPointers(std::vector<NodeAdjacency>& rows) {
  std::vector<NodeAdjacency*> out;
  for (NodeAdjacency& row : rows) out.push_back(&row);
  return out;
}

// ---------- Cluster ----------

TEST(ClusterTest, InvalidPrefetchConfigThrows) {
  EXPECT_THROW(Cluster({.num_workers = 2, .prefetch_batch = 0}), std::invalid_argument);
  EXPECT_THROW(
      Cluster({.num_workers = 2, .prefetch_batch = 100, .buffer_capacity = 10}),
      std::invalid_argument);
}

// ---------- ShardedGraphStore ----------

TEST(ShardStoreTest, ZeroShardsThrow) {
  util::Rng rng(1);
  const auto g = SmallAugmented(rng);
  util::ThreadPool pool(2);
  EXPECT_THROW(ShardedGraphStore(g, 0, pool), std::invalid_argument);
}

TEST(ShardStoreTest, LocalMatchesGraph) {
  util::Rng rng(2);
  const auto g = SmallAugmented(rng);
  util::ThreadPool pool(2);
  const ShardedGraphStore store(g, 4, pool);
  for (graph::NodeId v = 0; v < g.NumNodes(); ++v) {
    const NodeAdjacency& a = store.Local(v);
    const auto fr = g.Friendships().Neighbors(v);
    ASSERT_EQ(a.friends.size(), fr.size());
    EXPECT_TRUE(std::equal(fr.begin(), fr.end(), a.friends.begin()));
    EXPECT_EQ(a.rejectors.size(), g.Rejections().InDegree(v));
    EXPECT_EQ(a.rejectees.size(), g.Rejections().OutDegree(v));
  }
}

TEST(ShardStoreTest, FetchIntoReturnsRequestedOrder) {
  util::Rng rng(3);
  const auto g = SmallAugmented(rng);
  util::ThreadPool pool(2);
  const ShardedGraphStore store(g, 3, pool);
  IoStats stats;
  const graph::NodeId ids[4] = {7, 1, 12, 5};
  std::vector<NodeAdjacency> batch(4);
  store.FetchInto(ids, RowPointers(batch), stats);
  ASSERT_EQ(batch.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(batch[static_cast<std::size_t>(i)].friends.size(),
              g.Friendships().Degree(ids[i]));
  }
}

TEST(ShardStoreTest, FetchAccountingChargesPerShardTouched) {
  util::Rng rng(4);
  const auto g = SmallAugmented(rng);
  util::ThreadPool pool(2);
  const ShardedGraphStore store(g, 4, pool);
  IoStats stats;
  // Nodes 0 and 4 share shard 0; node 1 is shard 1 -> 2 RPCs.
  const graph::NodeId ids[3] = {0, 4, 1};
  std::vector<NodeAdjacency> batch(3);
  store.FetchInto(ids, RowPointers(batch), stats);
  EXPECT_EQ(stats.fetch_requests, 2u);
  EXPECT_EQ(stats.nodes_fetched, 3u);
  EXPECT_GT(stats.bytes_transferred, 0u);
}

TEST(NetworkModelTest, MicrosFormula) {
  const NetworkModel m{.rpc_latency_us = 100.0, .bandwidth_gbps = 1.0};
  // 2 RPCs + 1e6 bytes: 200us latency + 8e6 bits / 1e3 bits-per-us = 8000us.
  EXPECT_NEAR(m.MicrosFor(2, 1'000'000), 200.0 + 8000.0, 1e-9);
}

TEST(ShardStoreTest, SimulatedNetworkTimeAccrues) {
  util::Rng rng(14);
  const auto g = SmallAugmented(rng);
  util::ThreadPool pool(2);
  const NetworkModel slow{.rpc_latency_us = 1000.0, .bandwidth_gbps = 0.001};
  const ShardedGraphStore store(g, 2, pool, slow);
  IoStats stats;
  const graph::NodeId ids[2] = {0, 1};
  std::vector<NodeAdjacency> batch(2);
  store.FetchInto(ids, RowPointers(batch), stats);
  // One batch = one latency charge plus payload time.
  const double expected =
      slow.MicrosFor(1, stats.bytes_transferred);
  EXPECT_NEAR(stats.simulated_network_us, expected, 1e-9);
  store.FetchInto(ids, RowPointers(batch), stats);
  EXPECT_NEAR(stats.simulated_network_us, 2 * expected, 1e-9);
}

TEST(ShardStoreTest, FetchOutOfRangeThrows) {
  util::Rng rng(5);
  const auto g = SmallAugmented(rng);
  util::ThreadPool pool(2);
  const ShardedGraphStore store(g, 2, pool);
  IoStats stats;
  const graph::NodeId ids[1] = {static_cast<graph::NodeId>(g.NumNodes())};
  std::vector<NodeAdjacency> batch(1);
  EXPECT_THROW(store.FetchInto(ids, RowPointers(batch), stats),
               std::out_of_range);
}

// ---------- PrefetchBuffer ----------

TEST(PrefetchTest, MissThenHit) {
  util::Rng rng(6);
  const auto g = SmallAugmented(rng);
  util::ThreadPool pool(2);
  const ShardedGraphStore store(g, 2, pool);
  PrefetchBuffer buf(store, 16, 1);
  buf.Get(3);
  EXPECT_EQ(buf.Stats().cache_misses, 1u);
  buf.Get(3);
  EXPECT_EQ(buf.Stats().cache_hits, 1u);
}

TEST(PrefetchTest, CandidatesArePrefetched) {
  util::Rng rng(7);
  const auto g = SmallAugmented(rng);
  util::ThreadPool pool(2);
  const ShardedGraphStore store(g, 2, pool);
  PrefetchBuffer buf(store, 16, 4);
  buf.Get(0, [](std::size_t want, std::vector<graph::NodeId>& out) {
    for (graph::NodeId v = 1; out.size() < want + 1 && v < 10; ++v) {
      out.push_back(v);
    }
  });
  EXPECT_EQ(buf.Stats().cache_misses, 1u);
  buf.Get(1);
  buf.Get(2);
  buf.Get(3);
  EXPECT_EQ(buf.Stats().cache_hits, 3u);
  EXPECT_EQ(buf.Stats().cache_misses, 1u);
}

TEST(PrefetchTest, LruEvictsOldest) {
  util::Rng rng(8);
  const auto g = SmallAugmented(rng);
  util::ThreadPool pool(2);
  const ShardedGraphStore store(g, 2, pool);
  PrefetchBuffer buf(store, 2, 1);  // capacity 2
  buf.Get(0);
  buf.Get(1);
  buf.Get(0);  // refresh 0; LRU order now [0, 1]
  buf.Get(2);  // evicts 1
  buf.Get(0);
  EXPECT_EQ(buf.Stats().cache_hits, 2u);  // the refresh + final Get(0)
  buf.Get(1);                             // must re-fetch
  EXPECT_EQ(buf.Stats().cache_misses, 4u);
}

TEST(PrefetchTest, DuplicateCandidatesDeduped) {
  util::Rng rng(9);
  const auto g = SmallAugmented(rng);
  util::ThreadPool pool(2);
  const ShardedGraphStore store(g, 2, pool);
  PrefetchBuffer buf(store, 16, 4);
  buf.Get(0, [](std::size_t, std::vector<graph::NodeId>& out) {
    out.push_back(0);  // the missed node itself
    out.push_back(5);
    out.push_back(5);  // duplicate
  });
  EXPECT_EQ(buf.Stats().nodes_fetched, 2u);  // 0 and 5 only
}

TEST(PrefetchTest, InvalidConfigThrows) {
  util::Rng rng(10);
  const auto g = SmallAugmented(rng);
  util::ThreadPool pool(2);
  const ShardedGraphStore store(g, 2, pool);
  EXPECT_THROW(PrefetchBuffer(store, 0, 1), std::invalid_argument);
  EXPECT_THROW(PrefetchBuffer(store, 4, 8), std::invalid_argument);
}

TEST(PrefetchTest, MissedNodeRanksAheadOfItsCandidates) {
  util::Rng rng(11);
  const auto g = SmallAugmented(rng);
  util::ThreadPool pool(2);
  const ShardedGraphStore store(g, 2, pool);
  PrefetchBuffer buf(store, 3, 3);
  buf.Get(0, [](std::size_t, std::vector<graph::NodeId>& out) {
    out.push_back(1);
    out.push_back(2);
  });
  EXPECT_EQ(buf.CachedNodes(), 3u);
  // LRU order is now [0, 1, 2]: the next miss evicts the last candidate.
  buf.Get(3);
  buf.Get(0);
  buf.Get(1);
  EXPECT_EQ(buf.Stats().cache_hits, 2u);
  buf.Get(2);
  EXPECT_EQ(buf.Stats().cache_misses, 3u);
  EXPECT_EQ(buf.CachedNodes(), 3u);
}

TEST(PrefetchTest, RowsMatchTheGraphAcrossSlotReuse) {
  util::Rng rng(12);
  const auto g = SmallAugmented(rng);
  util::ThreadPool pool(2);
  const ShardedGraphStore store(g, 3, pool);
  PrefetchBuffer buf(store, 4, 2);
  // Cycling every node through four slots reuses each slot many times, so
  // rows of different lengths land in storage that held other rows.
  for (int round = 0; round < 3; ++round) {
    for (graph::NodeId v = 0; v < g.NumNodes(); ++v) {
      const NodeAdjacency& a =
          buf.Get(v, [&](std::size_t, std::vector<graph::NodeId>& out) {
            out.push_back((v * 7 + 3) % g.NumNodes());
          });
      const auto fr = g.Friendships().Neighbors(v);
      const auto rin = g.Rejections().Rejectors(v);
      const auto rout = g.Rejections().Rejectees(v);
      ASSERT_TRUE(std::ranges::equal(a.friends, fr)) << "node " << v;
      ASSERT_TRUE(std::ranges::equal(a.rejectors, rin)) << "node " << v;
      ASSERT_TRUE(std::ranges::equal(a.rejectees, rout)) << "node " << v;
    }
  }
  EXPECT_LE(buf.CachedNodes(), 4u);
}

TEST(PrefetchTest, CapacityAboveNodeCountNeverEvicts) {
  util::Rng rng(13);
  const auto g = SmallAugmented(rng, 20);
  util::ThreadPool pool(2);
  const ShardedGraphStore store(g, 2, pool);
  PrefetchBuffer buf(store, 1000, 1);
  for (graph::NodeId v = 0; v < g.NumNodes(); ++v) buf.Get(v);
  for (graph::NodeId v = 0; v < g.NumNodes(); ++v) buf.Get(v);
  EXPECT_EQ(buf.Stats().cache_misses, g.NumNodes());
  EXPECT_EQ(buf.Stats().cache_hits, g.NumNodes());
  EXPECT_EQ(buf.CachedNodes(), g.NumNodes());
}

TEST(PrefetchTest, OutOfRangeIdsThrowOrAreSkipped) {
  util::Rng rng(14);
  const auto g = SmallAugmented(rng);
  util::ThreadPool pool(2);
  const ShardedGraphStore store(g, 2, pool);
  PrefetchBuffer buf(store, 16, 4);
  EXPECT_THROW(buf.Get(g.NumNodes()), std::out_of_range);
  // A candidate is only a hint: an id outside the store is dropped.
  buf.Get(0, [&](std::size_t, std::vector<graph::NodeId>& out) {
    out.push_back(g.NumNodes() + 5);
    out.push_back(1);
  });
  EXPECT_EQ(buf.Stats().nodes_fetched, 2u);
}

// ---------- Wire codec ----------

TEST(WireCodecTest, FetchResponseDecodesIntoReusedRows) {
  util::Rng rng(15);
  const auto g = SmallAugmented(rng);
  util::ThreadPool pool(2);
  const ShardedGraphStore store(g, 1, pool);
  const NodeAdjacency* sent[3] = {&store.Local(4), &store.Local(0),
                                  &store.Local(9)};
  std::vector<unsigned char> body;
  wire::EncodeFetchResponse(77, sent, body);

  // Stale contents and capacity in the targets must not leak through.
  std::vector<NodeAdjacency> rows(3);
  for (auto& row : rows) row.friends.assign(500, 123);
  NodeAdjacency* out[3] = {&rows[0], &rows[1], &rows[2]};
  ASSERT_TRUE(wire::DecodeFetchResponse(body, 77, out));
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(rows[i].friends, sent[i]->friends);
    EXPECT_EQ(rows[i].rejectors, sent[i]->rejectors);
    EXPECT_EQ(rows[i].rejectees, sent[i]->rejectees);
  }
  // Another generation or a different row count is refused untouched.
  EXPECT_FALSE(wire::DecodeFetchResponse(body, 78, out));
  EXPECT_FALSE(wire::DecodeFetchResponse(body, 77, std::span(out, 2)));
  EXPECT_EQ(rows[0].friends, sent[0]->friends);
}

TEST(WireCodecTest, FetchResponseRejectsEveryTruncationAndTrailingByte) {
  util::Rng rng(16);
  const auto g = SmallAugmented(rng);
  util::ThreadPool pool(2);
  const ShardedGraphStore store(g, 1, pool);
  const NodeAdjacency* sent[2] = {&store.Local(2), &store.Local(3)};
  std::vector<unsigned char> body;
  wire::EncodeFetchResponse(5, sent, body);
  std::vector<NodeAdjacency> rows(2);
  NodeAdjacency* out[2] = {&rows[0], &rows[1]};
  for (std::size_t len = 0; len < body.size(); ++len) {
    EXPECT_THROW(wire::DecodeFetchResponse(std::span(body.data(), len), 5,
                                           out),
                 std::runtime_error)
        << "cut at " << len;
  }
  body.push_back(0);
  EXPECT_THROW(wire::DecodeFetchResponse(body, 5, out), std::runtime_error);
}

TEST(WireCodecTest, FetchRequestRoundTripsAndBoundsTheCount) {
  const graph::NodeId ids[4] = {9, 0, 4000000000u, 17};
  std::vector<unsigned char> body;
  wire::EncodeFetchRequest(3, ids, body);
  const wire::FetchRequest req = wire::DecodeFetchRequest(body);
  EXPECT_EQ(req.store_id, 3u);
  EXPECT_TRUE(std::ranges::equal(req.ids, ids));
  // A count claiming more ids than the body holds is refused up front.
  body[8] = 0xff;
  body[9] = 0xff;
  EXPECT_THROW(wire::DecodeFetchRequest(body), std::runtime_error);
}

// ---------- DistributedKl equivalence ----------

// Prefetch batch and buffer capacity of the master's PrefetchBuffer.
using BufferShape = std::pair<std::size_t, std::size_t>;

// Runs DistributedKl under `shape` and asserts it matches detect::ExtendedKl
// bit for bit; returns the distributed result for further checks.
DistKlResult ExpectMatchesSerial(const graph::AugmentedGraph& g,
                                 const std::vector<char>& init,
                                 const std::vector<char>& locked,
                                 const detect::KlConfig& cfg,
                                 std::uint32_t shards, BufferShape shape) {
  const auto serial = detect::ExtendedKl(g, init, locked, cfg);
  Cluster cluster({.num_workers = shards,
                   .prefetch_batch = shape.first,
                   .buffer_capacity = shape.second});
  const ShardedGraphStore store(g, shards, cluster.Pool());
  DistKlResult dist = DistributedKl(store, init, locked, cfg, cluster);

  EXPECT_EQ(dist.kl.in_u, serial.in_u);
  EXPECT_EQ(dist.kl.cut.cross_friendships, serial.cut.cross_friendships);
  EXPECT_EQ(dist.kl.cut.rejections_into_u, serial.cut.rejections_into_u);
  EXPECT_EQ(dist.kl.cut.rejections_from_u, serial.cut.rejections_from_u);
  EXPECT_EQ(dist.kl.stats.passes, serial.stats.passes);
  EXPECT_EQ(dist.kl.stats.switches_applied, serial.stats.switches_applied);
  EXPECT_DOUBLE_EQ(dist.kl.stats.final_objective,
                   serial.stats.final_objective);
  return dist;
}

std::vector<char> RejectedInit(const graph::AugmentedGraph& g) {
  std::vector<char> init(g.NumNodes(), 0);
  for (graph::NodeId v = 0; v < g.NumNodes(); ++v) {
    init[v] = g.Rejections().InDegree(v) > 0 ? 1 : 0;
  }
  return init;
}

class DistKlEquivalenceTest
    : public ::testing::TestWithParam<
          std::tuple<std::uint32_t, double, BufferShape>> {};

TEST_P(DistKlEquivalenceTest, BitIdenticalToSerialKl) {
  const auto [shards, k, shape] = GetParam();
  util::Rng rng(42 + shards);
  const auto g = SmallAugmented(rng, 120);
  std::vector<char> locked(g.NumNodes(), 0);
  locked[0] = 1;
  locked[5] = 1;
  const auto dist = ExpectMatchesSerial(g, RejectedInit(g), locked,
                                        detect::KlConfig{.k = k}, shards,
                                        shape);
  EXPECT_GT(dist.io.nodes_fetched, 0u);
}

// A pass that keeps no prefix: KL restarted from its own converged mask
// replays its final pass, which found no improving prefix.
TEST_P(DistKlEquivalenceTest, PassKeepingNoPrefix) {
  const auto [shards, k, shape] = GetParam();
  util::Rng rng(142 + shards);
  const auto g = SmallAugmented(rng, 120);
  const std::vector<char> locked;
  const detect::KlConfig cfg{.k = k};
  const auto converged = detect::ExtendedKl(g, RejectedInit(g), locked, cfg);
  ASSERT_LT(converged.stats.passes, cfg.max_passes);
  const auto serial = detect::ExtendedKl(g, converged.in_u, locked, cfg);
  ASSERT_EQ(serial.stats.passes, 1);
  ASSERT_EQ(serial.stats.switches_applied, 0u);
  const auto dist =
      ExpectMatchesSerial(g, converged.in_u, locked, cfg, shards, shape);
  EXPECT_EQ(dist.kl.in_u, converged.in_u);
}

// A pass that keeps its whole sequence: every unlocked node sits in U with
// friends only among locked W nodes, so each switch gains its degree and
// the cumulative gain peaks at the last switch.
TEST_P(DistKlEquivalenceTest, PassKeepingWholeSequence) {
  const auto [shards, k, shape] = GetParam();
  constexpr graph::NodeId kMovers = 10;
  constexpr graph::NodeId kNodes = 40;
  util::Rng rng(242 + shards);
  graph::GraphBuilder b(kNodes);
  for (graph::NodeId v = 0; v < kMovers; ++v) {
    for (graph::NodeId j = 0; j < 3; ++j) {
      b.AddFriendship(v, kMovers + (3 * v + j) % (kNodes - kMovers));
    }
  }
  for (graph::NodeId i = 0; i < 2 * kNodes; ++i) {
    const auto u =
        static_cast<graph::NodeId>(kMovers + rng.NextUInt(kNodes - kMovers));
    const auto w =
        static_cast<graph::NodeId>(kMovers + rng.NextUInt(kNodes - kMovers));
    if (u == w) continue;
    if (i % 2 == 0) {
      b.AddFriendship(u, w);
    } else {
      b.AddRejection(u, w);
    }
  }
  const auto g = b.BuildAugmented();
  std::vector<char> init(kNodes, 0);
  std::vector<char> locked(kNodes, 1);
  for (graph::NodeId v = 0; v < kMovers; ++v) {
    init[v] = 1;
    locked[v] = 0;
  }
  const detect::KlConfig cfg{.k = k};
  const auto serial = detect::ExtendedKl(g, init, locked, cfg);
  ASSERT_EQ(serial.stats.switches_applied, kMovers);
  ASSERT_EQ(serial.stats.passes, 2);
  ExpectMatchesSerial(g, init, locked, cfg, shards, shape);
}

// Prefetching on; no prefetch with a one-row cache (every Get misses); no
// prefetch with a cache larger than the graph (nothing is ever evicted).
INSTANTIATE_TEST_SUITE_P(
    ShardAndK, DistKlEquivalenceTest,
    ::testing::Combine(::testing::Values(1u, 2u, 3u, 5u),
                       ::testing::Values(0.25, 1.0, 4.0),
                       ::testing::Values(BufferShape{8, 64}, BufferShape{1, 1},
                                         BufferShape{1, 1024})));

TEST(DistKlTest, RollbackFetchesNothing) {
  util::Rng rng(76);
  const auto g = SmallAugmented(rng, 150);
  std::vector<char> locked(g.NumNodes(), 0);
  locked[3] = 1;
  locked[7] = 1;
  const std::uint64_t unlocked = g.NumNodes() - 2;
  constexpr std::uint32_t kShards = 2;

  Cluster cluster(
      {.num_workers = kShards, .prefetch_batch = 1, .buffer_capacity = 16});
  const ShardedGraphStore store(g, kShards, cluster.Pool());
  const auto dist = DistributedKl(store, RejectedInit(g), locked,
                                  detect::KlConfig{.k = 1.0}, cluster);

  // One Get per pop, and every pass pops each unlocked node once: the
  // rollback to the best prefix adds no Get at all.
  ASSERT_GT(dist.kl.stats.passes, 1);
  EXPECT_EQ(dist.io.cache_hits + dist.io.cache_misses,
            static_cast<std::uint64_t>(dist.kl.stats.passes) * unlocked);
  // It is charged as aggregate scans instead: the initial one plus at most
  // one per pass, each a round trip per shard.
  EXPECT_GE(dist.io.scan_requests, 2u * kShards);
  EXPECT_LE(dist.io.scan_requests,
            (1u + static_cast<std::uint64_t>(dist.kl.stats.passes)) * kShards);
  EXPECT_EQ(dist.io.scan_requests % kShards, 0u);
}

// The exact metered I/O of one distributed KL run and of one simnet
// detection: the fetch order is a pure function of the bucket list's state
// at each pop, so a kernel change that keeps the cut but moves a single
// fetch, prefetch candidate or aggregate scan shows up here.
TEST(DistKlTest, MeteredIoIsPinned) {
  util::Rng rng(45);
  const auto g = SmallAugmented(rng, 120);
  std::vector<char> locked(g.NumNodes(), 0);
  locked[0] = 1;
  locked[5] = 1;
  Cluster cluster(
      {.num_workers = 3, .prefetch_batch = 8, .buffer_capacity = 64});
  const ShardedGraphStore store(g, 3, cluster.Pool());
  const auto dist = DistributedKl(store, RejectedInit(g), locked,
                                  detect::KlConfig{.k = 1.0}, cluster);
  EXPECT_EQ(dist.io.fetch_requests, 538u);
  EXPECT_EQ(dist.io.nodes_fetched, 805u);
  EXPECT_EQ(dist.io.cache_hits, 548u);
  EXPECT_EQ(dist.io.cache_misses, 278u);
  EXPECT_EQ(dist.io.scan_requests, 24u);
  EXPECT_EQ(dist.io.bytes_transferred, 62040u);

  util::Rng world_rng(55);
  const auto legit =
      gen::ErdosRenyi({.num_nodes = 400, .num_edges = 1600}, world_rng);
  sim::ScenarioConfig scfg;
  scfg.seed = 5;
  scfg.num_fakes = 80;
  const auto scenario = sim::BuildScenario(legit, scfg);
  util::Rng seed_rng(6);
  const auto seeds = scenario.SampleSeeds(10, 4, seed_rng);
  detect::IterativeConfig cfg;
  cfg.target_detections = 80;
  cfg.maar.seed = 3;
  ClusterConfig wired_cfg{
      .num_workers = 3, .prefetch_batch = 32, .buffer_capacity = 512};
  wired_cfg.transport = net::TransportKind::kSimNet;
  wired_cfg.sim.seed = 42;
  Cluster wired(wired_cfg);
  const auto detected =
      DetectFriendSpammersDistributed(scenario.graph, seeds, cfg, wired);
  EXPECT_EQ(detected.io.wire.frames_sent, 4258u);
}

TEST(DistKlTest, PrefetchingReducesFetchRequests) {
  util::Rng rng(77);
  const auto g = SmallAugmented(rng, 150);
  const std::vector<char> init = RejectedInit(g);
  const detect::KlConfig cfg{.k = 1.0};

  Cluster no_prefetch(
      {.num_workers = 2, .prefetch_batch = 1, .buffer_capacity = 256});
  const ShardedGraphStore store1(g, 2, no_prefetch.Pool());
  const auto a = DistributedKl(store1, init, {}, cfg, no_prefetch);

  Cluster with_prefetch(
      {.num_workers = 2, .prefetch_batch = 32, .buffer_capacity = 256});
  const ShardedGraphStore store2(g, 2, with_prefetch.Pool());
  const auto b = DistributedKl(store2, init, {}, cfg, with_prefetch);

  EXPECT_EQ(a.kl.in_u, b.kl.in_u);  // prefetching never changes the result
  EXPECT_LT(b.io.fetch_requests, a.io.fetch_requests);
}

TEST(DistMaarTest, MatchesSerialMaarSolver) {
  util::Rng rng(91);
  const auto g = SmallAugmented(rng, 100);
  detect::Seeds seeds;
  seeds.legit = {0, 1};
  detect::MaarConfig cfg;
  cfg.min_region_size = 2;
  cfg.seed = 4;

  detect::MaarSolver serial(g, seeds, cfg);
  const auto expected = serial.Solve();

  Cluster cluster(
      {.num_workers = 3, .prefetch_batch = 16, .buffer_capacity = 128});
  const ShardedGraphStore store(g, 3, cluster.Pool());
  const auto dist = SolveMaarDistributed(g, store, cluster, seeds, cfg);

  EXPECT_EQ(dist.cut.valid, expected.valid);
  if (expected.valid) {
    EXPECT_EQ(dist.cut.in_u, expected.in_u);
    EXPECT_DOUBLE_EQ(dist.cut.ratio, expected.ratio);
    EXPECT_DOUBLE_EQ(dist.cut.k, expected.k);
  }
  EXPECT_EQ(dist.cut.kl_runs, expected.kl_runs);
  EXPECT_GT(dist.io.nodes_fetched, 0u);
}

TEST(DistDetectorTest, MatchesSerialPipeline) {
  // A planted scenario with two fake groups exercises multiple rounds
  // (and thus multiple re-shardings) of the distributed pipeline.
  util::Rng rng(55);
  const auto legit =
      gen::ErdosRenyi({.num_nodes = 400, .num_edges = 1600}, rng);
  sim::ScenarioConfig scfg;
  scfg.seed = 5;
  scfg.num_fakes = 80;
  const auto scenario = sim::BuildScenario(legit, scfg);
  util::Rng seed_rng(6);
  const auto seeds = scenario.SampleSeeds(10, 4, seed_rng);

  detect::IterativeConfig cfg;
  cfg.target_detections = 80;
  cfg.maar.seed = 3;
  const auto serial =
      detect::DetectFriendSpammers(scenario.graph, seeds, cfg);

  Cluster cluster(
      {.num_workers = 3, .prefetch_batch = 32, .buffer_capacity = 512});
  const auto dist = DetectFriendSpammersDistributed(scenario.graph, seeds,
                                                    cfg, cluster);

  EXPECT_EQ(dist.detection.detected, serial.detected);
  EXPECT_EQ(dist.detection.rounds.size(), serial.rounds.size());
  EXPECT_EQ(dist.detection.hit_target, serial.hit_target);
  EXPECT_GE(dist.stores_built, 1);
  EXPECT_GT(dist.io.nodes_fetched, 0u);
}

TEST(DistKlTest, InvalidInputsThrow) {
  util::Rng rng(78);
  const auto g = SmallAugmented(rng, 40);
  Cluster cluster({.num_workers = 2});
  const ShardedGraphStore store(g, 2, cluster.Pool());
  EXPECT_THROW(DistributedKl(store, std::vector<char>(10, 0), {},
                             detect::KlConfig{.k = 1.0}, cluster),
               std::invalid_argument);
  EXPECT_THROW(DistributedKl(store, std::vector<char>(g.NumNodes(), 0), {},
                             detect::KlConfig{.k = 0.0}, cluster),
               std::invalid_argument);
}

}  // namespace
}  // namespace rejecto::engine

// Property suite pinning scalar-vs-AVX2 bit-identity for every vectorized
// detection kernel (util/simd.h and its call sites):
//
//   * the raw primitives (CountZeroAt, FilterMapRow, CopyU32),
//   * util::Crc32c (SSE4.2 crc32 vs the slice-by-8 table),
//   * AugmentedGraph::ComputeCut (cut counting),
//   * Partition::InitAggregates + SwitchFused (the fused switch kernel),
//   * graph::InducedSubgraph (mask filter / compaction),
//   * stream::DeltaGraph::Compact (two-pointer merge fast paths),
//
// each across >= 200 random graphs/masks and at 1, 2, and 8 threads for the
// pool-parallel kernels. On hosts without AVX2 SetModeForTest(kAvx2) keeps
// scalar, so the suite degenerates to scalar==scalar and still runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "detect/bucket_list.h"
#include "detect/extended_kl.h"
#include "detect/partition.h"
#include "graph/augmented_graph.h"
#include "graph/builder.h"
#include "graph/subgraph.h"
#include "stream/delta_graph.h"
#include "stream/mutation_log.h"
#include "util/buffer.h"
#include "util/crc32c.h"
#include "util/rng.h"
#include "util/simd.h"
#include "util/thread_pool.h"

namespace rejecto {
namespace {

namespace simd = util::simd;
using simd::SimdMode;

constexpr int kTrials = 220;

// Runs `body` under the given mode, restoring the ambient mode afterwards.
template <typename Fn>
auto WithMode(SimdMode mode, Fn&& body) {
  const SimdMode prev = simd::ActiveMode();
  simd::SetModeForTest(mode);
  auto result = body();
  simd::SetModeForTest(prev);
  return result;
}

graph::AugmentedGraph RandomGraph(util::Rng& rng, graph::NodeId max_nodes) {
  const graph::NodeId n = 1 + rng.NextUInt(max_nodes);
  graph::GraphBuilder builder(n);
  const std::size_t edges = rng.NextUInt(4 * n + 1);
  for (std::size_t i = 0; i < edges; ++i) {
    const auto u = static_cast<graph::NodeId>(rng.NextUInt(n));
    const auto v = static_cast<graph::NodeId>(rng.NextUInt(n));
    if (u != v) builder.AddFriendship(u, v);
  }
  const std::size_t arcs = rng.NextUInt(3 * n + 1);
  for (std::size_t i = 0; i < arcs; ++i) {
    const auto u = static_cast<graph::NodeId>(rng.NextUInt(n));
    const auto v = static_cast<graph::NodeId>(rng.NextUInt(n));
    if (u != v) builder.AddRejection(u, v);
  }
  return builder.BuildAugmented();
}

std::vector<char> RandomMask(util::Rng& rng, graph::NodeId n) {
  std::vector<char> mask(n, 0);
  const double p = rng.NextDouble(0.0, 1.0);
  for (auto& c : mask) {
    // Arbitrary non-zero bytes, not just 1: the kernels promise the
    // documented "non-zero means in U" semantics for any caller mask.
    c = rng.NextBool(p) ? static_cast<char>(1 + rng.NextUInt(127)) : 0;
  }
  return mask;
}

TEST(SimdPrimitiveTest, CountZeroAtMatchesScalar) {
  util::Rng rng(401);
  for (int trial = 0; trial < kTrials; ++trial) {
    const std::size_t universe = 1 + rng.NextUInt(500);
    util::AlignedVector<unsigned char> mask(universe);
    for (auto& b : mask) b = rng.NextBool(0.5) ? 1 : 0;
    util::AlignedVector<std::uint32_t> idx(rng.NextUInt(300));
    for (auto& i : idx) i = rng.NextUInt(static_cast<std::uint32_t>(universe));

    const auto scalar = WithMode(SimdMode::kScalar, [&] {
      return simd::CountZeroAt(mask.data(), idx.data(), idx.size());
    });
    const auto vec = WithMode(SimdMode::kAvx2, [&] {
      return simd::CountZeroAt(mask.data(), idx.data(), idx.size());
    });
    ASSERT_EQ(scalar, vec) << "trial " << trial;
  }
}

TEST(SimdPrimitiveTest, FilterMapRowMatchesScalar) {
  util::Rng rng(402);
  for (int trial = 0; trial < kTrials; ++trial) {
    const std::size_t universe = 1 + rng.NextUInt(500);
    util::AlignedVector<unsigned char> keep(universe);
    for (auto& b : keep) b = rng.NextBool(0.6) ? 1 : 0;
    std::vector<std::uint32_t> map(universe);
    for (auto& m : map) m = rng.NextUInt(1u << 20);
    util::AlignedVector<std::uint32_t> row(rng.NextUInt(300));
    for (auto& v : row) v = rng.NextUInt(static_cast<std::uint32_t>(universe));

    std::vector<std::uint32_t> out_s(row.size() + 8, 0xDEADBEEF);
    std::vector<std::uint32_t> out_v(row.size() + 8, 0xDEADBEEF);
    const auto n_s = WithMode(SimdMode::kScalar, [&] {
      return simd::FilterMapRow(keep.data(), map.data(), row.data(),
                                row.size(), out_s.data());
    });
    const auto n_v = WithMode(SimdMode::kAvx2, [&] {
      return simd::FilterMapRow(keep.data(), map.data(), row.data(),
                                row.size(), out_v.data());
    });
    ASSERT_EQ(n_s, n_v) << "trial " << trial;
    for (std::size_t i = 0; i < n_s; ++i) {
      ASSERT_EQ(out_s[i], out_v[i]) << "trial " << trial << " slot " << i;
    }
    // Nothing written past the returned count (masked stores): the
    // sentinel bytes after n survive in both modes.
    for (std::size_t i = n_s; i < out_v.size(); ++i) {
      ASSERT_EQ(out_v[i], 0xDEADBEEF) << "trial " << trial << " slot " << i;
    }
  }
}

TEST(SimdPrimitiveTest, CopyU32MatchesScalar) {
  util::Rng rng(403);
  for (int trial = 0; trial < kTrials; ++trial) {
    util::AlignedVector<std::uint32_t> src(rng.NextUInt(400));
    for (auto& v : src) v = rng.NextUInt(~0u);
    std::vector<std::uint32_t> dst_s(src.size(), 0);
    std::vector<std::uint32_t> dst_v(src.size(), 0);
    WithMode(SimdMode::kScalar, [&] {
      simd::CopyU32(src.data(), src.size(), dst_s.data());
      return 0;
    });
    WithMode(SimdMode::kAvx2, [&] {
      simd::CopyU32(src.data(), src.size(), dst_v.data());
      return 0;
    });
    ASSERT_EQ(dst_s, dst_v) << "trial " << trial;
  }
}

std::uint32_t Crc32cIn(SimdMode mode, const unsigned char* data,
                       std::size_t len, std::uint32_t crc = 0) {
  return WithMode(mode, [&] { return util::Crc32c(data, len, crc); });
}

TEST(SimdPrimitiveTest, Crc32cMatchesTableAtEveryLengthAndAlignment) {
  util::Rng rng(404);
  constexpr std::size_t kMaxLen = 256;
  constexpr std::size_t kAlignments = 16;
  std::vector<unsigned char> buf(kMaxLen + kAlignments);
  for (auto& b : buf) b = static_cast<unsigned char>(rng.NextUInt(256));
  for (std::size_t align = 0; align < kAlignments; ++align) {
    for (std::size_t len = 0; len <= kMaxLen; ++len) {
      const unsigned char* p = buf.data() + align;
      const std::uint32_t table = Crc32cIn(SimdMode::kScalar, p, len);
      ASSERT_EQ(Crc32cIn(SimdMode::kAvx2, p, len), table)
          << "align " << align << " len " << len;
      // Continuing from a previous CRC must agree too (the WAL and frame
      // codecs chain calls).
      const std::size_t cut = len / 3;
      const std::uint32_t head = Crc32cIn(SimdMode::kAvx2, p, cut);
      ASSERT_EQ(Crc32cIn(SimdMode::kAvx2, p + cut, len - cut, head), table)
          << "align " << align << " len " << len << " cut " << cut;
    }
  }
}

TEST(SimdPrimitiveTest, Crc32cRfc3720Vectors) {
  // RFC 3720 appendix B.4, plus the conventional "123456789" check value.
  std::vector<unsigned char> zeros(32, 0x00);
  std::vector<unsigned char> ones(32, 0xFF);
  std::vector<unsigned char> up(32);
  std::vector<unsigned char> down(32);
  for (std::size_t i = 0; i < 32; ++i) {
    up[i] = static_cast<unsigned char>(i);
    down[i] = static_cast<unsigned char>(31 - i);
  }
  const std::vector<unsigned char> read_pdu = {
      0x01, 0xc0, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x14, 0x00, 0x00, 0x00, 0x00, 0x00, 0x04, 0x00,
      0x00, 0x00, 0x00, 0x14, 0x00, 0x00, 0x00, 0x18, 0x28, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00};
  const std::string check = "123456789";
  const std::vector<unsigned char> check_bytes(check.begin(), check.end());
  const std::pair<const std::vector<unsigned char>*, std::uint32_t> cases[] = {
      {&zeros, 0x8A9136AAu}, {&ones, 0x62A8AB43u},    {&up, 0x46DD794Eu},
      {&down, 0x113FDB5Cu},  {&read_pdu, 0xD9963A56u}, {&check_bytes, 0xE3069283u},
  };
  for (SimdMode mode : {SimdMode::kScalar, SimdMode::kAvx2}) {
    for (const auto& [bytes, want] : cases) {
      EXPECT_EQ(Crc32cIn(mode, bytes->data(), bytes->size()), want)
          << simd::ModeName(mode) << " on " << bytes->size() << " bytes";
    }
  }
}

TEST(SimdKernelTest, ComputeCutBitIdentical) {
  util::Rng rng(404);
  for (int trial = 0; trial < kTrials; ++trial) {
    const auto g = RandomGraph(rng, 120);
    const auto mask = RandomMask(rng, g.NumNodes());
    const auto cut_s =
        WithMode(SimdMode::kScalar, [&] { return g.ComputeCut(mask); });
    const auto cut_v =
        WithMode(SimdMode::kAvx2, [&] { return g.ComputeCut(mask); });
    ASSERT_EQ(cut_s.cross_friendships, cut_v.cross_friendships) << trial;
    ASSERT_EQ(cut_s.rejections_into_u, cut_v.rejections_into_u) << trial;
    ASSERT_EQ(cut_s.rejections_from_u, cut_v.rejections_from_u) << trial;
  }
}

// One fused switch sequence; returns the final mask plus exact totals so
// runs under different modes can be compared bit-for-bit.
struct SwitchOutcome {
  std::vector<char> mask;
  graph::CutQuantities cut;
  double objective = 0.0;

  bool operator==(const SwitchOutcome& o) const {
    return mask == o.mask &&
           cut.cross_friendships == o.cut.cross_friendships &&
           cut.rejections_into_u == o.cut.rejections_into_u &&
           cut.rejections_from_u == o.cut.rejections_from_u &&
           objective == o.objective;  // bit-exact: integers through doubles
  }
};

SwitchOutcome RunFusedSequence(const graph::AugmentedGraph& g,
                               const std::vector<char>& init,
                               const std::vector<graph::NodeId>& seq,
                               double k) {
  const graph::NodeId n = g.NumNodes();
  const double gain_bound =
      std::max(1.0, static_cast<double>(g.MaxFriendshipDegree()) +
                        k * static_cast<double>(g.MaxRejectionDegree()));
  detect::Partition p(g, init);
  detect::BucketList bl(n, gain_bound, 64.0);
  for (graph::NodeId v = 0; v < n; ++v) {
    bl.Insert(v, -p.DeltaObjective(v, k));
  }
  util::AlignedVector<graph::NodeId> touched;
  for (graph::NodeId v : seq) p.SwitchFused(v, k, bl, touched);
  SwitchOutcome out;
  out.mask = p.Mask();
  out.cut = p.Quantities();
  out.objective = p.Objective(k);
  return out;
}

TEST(SimdKernelTest, FusedSwitchBitIdentical) {
  util::Rng rng(405);
  for (int trial = 0; trial < kTrials; ++trial) {
    const auto g = RandomGraph(rng, 100);
    const auto init = RandomMask(rng, g.NumNodes());
    const double k = rng.NextDouble(0.1, 3.0);
    std::vector<graph::NodeId> seq(rng.NextUInt(120));
    for (auto& v : seq) {
      v = static_cast<graph::NodeId>(rng.NextUInt(g.NumNodes()));
    }
    const auto out_s = WithMode(
        SimdMode::kScalar, [&] { return RunFusedSequence(g, init, seq, k); });
    const auto out_v = WithMode(
        SimdMode::kAvx2, [&] { return RunFusedSequence(g, init, seq, k); });
    ASSERT_TRUE(out_s == out_v) << "trial " << trial;
    // Both must agree with the exact O(E+R) oracle on the final mask.
    const auto oracle = WithMode(
        SimdMode::kScalar, [&] { return g.ComputeCut(out_s.mask); });
    ASSERT_EQ(out_s.cut.cross_friendships, oracle.cross_friendships) << trial;
    ASSERT_EQ(out_s.cut.rejections_into_u, oracle.rejections_into_u) << trial;
  }
}

TEST(SimdKernelTest, ExtendedKlBitIdenticalAcrossModes) {
  util::Rng rng(406);
  for (int trial = 0; trial < kTrials; ++trial) {
    const auto g = RandomGraph(rng, 80);
    const auto init = RandomMask(rng, g.NumNodes());
    detect::KlConfig cfg;
    cfg.k = rng.NextDouble(0.25, 2.0);
    const auto r_s = WithMode(SimdMode::kScalar, [&] {
      return detect::ExtendedKl(g, init, {}, cfg);
    });
    const auto r_v = WithMode(SimdMode::kAvx2, [&] {
      return detect::ExtendedKl(g, init, {}, cfg);
    });
    ASSERT_EQ(r_s.in_u, r_v.in_u) << "trial " << trial;
    ASSERT_EQ(r_s.stats.passes, r_v.stats.passes) << "trial " << trial;
    ASSERT_EQ(r_s.stats.final_objective, r_v.stats.final_objective) << trial;
  }
}

TEST(SimdKernelTest, InducedSubgraphBitIdenticalAcrossModesAndThreads) {
  util::Rng rng(407);
  util::ThreadPool pool2(2);
  util::ThreadPool pool8(8);
  std::vector<util::ThreadPool*> pools = {nullptr, &pool2, &pool8};
  for (int trial = 0; trial < kTrials; ++trial) {
    const auto g = RandomGraph(rng, 120);
    std::vector<char> keep = RandomMask(rng, g.NumNodes());
    const auto ref = WithMode(SimdMode::kScalar, [&] {
      return graph::InducedSubgraph(g, keep, nullptr);
    });
    for (util::ThreadPool* pool : pools) {
      for (SimdMode mode : {SimdMode::kScalar, SimdMode::kAvx2}) {
        const auto got = WithMode(
            mode, [&] { return graph::InducedSubgraph(g, keep, pool); });
        ASSERT_EQ(got.parent_id, ref.parent_id) << "trial " << trial;
        ASSERT_TRUE(got.graph == ref.graph)
            << "trial " << trial << " mode=" << simd::ModeName(mode);
      }
    }
  }
}

TEST(SimdKernelTest, DeltaCompactBitIdenticalAcrossModesAndThreads) {
  util::Rng rng(408);
  util::ThreadPool pool2(2);
  util::ThreadPool pool8(8);
  std::vector<util::ThreadPool*> pools = {nullptr, &pool2, &pool8};
  for (int trial = 0; trial < kTrials; ++trial) {
    const auto g = RandomGraph(rng, 100);
    const graph::NodeId n = g.NumNodes();
    // Random event tape: adds, rejections, and node removals, so compaction
    // exercises copy-through rows, added-only rows, and true merges.
    std::vector<stream::Event> events(rng.NextUInt(120));
    for (auto& e : events) {
      const auto kind = rng.NextUInt(4);
      e.u = static_cast<graph::NodeId>(rng.NextUInt(n));
      e.v = static_cast<graph::NodeId>(rng.NextUInt(n));
      if (kind == 3) {
        e.type = stream::EventType::kRemoveNode;
      } else if (kind == 2) {
        e.type = stream::EventType::kReject;
      } else {
        e.type = stream::EventType::kAddFriend;
      }
      if (e.u == e.v) e.type = stream::EventType::kRemoveNode;
    }
    stream::DeltaConfig dcfg;
    dcfg.compact_fraction = -1.0;

    std::optional<graph::AugmentedGraph> ref;
    for (util::ThreadPool* pool : pools) {
      for (SimdMode mode : {SimdMode::kScalar, SimdMode::kAvx2}) {
        auto compacted = WithMode(mode, [&] {
          stream::DeltaGraph d(g, dcfg);
          d.SetPool(pool);
          d.ApplyAll(events);
          d.Compact();
          return d.Graph();
        });
        if (!ref) {
          ref = std::move(compacted);
        } else {
          ASSERT_TRUE(compacted == *ref)
              << "trial " << trial << " mode=" << simd::ModeName(mode);
        }
      }
    }
  }
}

}  // namespace
}  // namespace rejecto

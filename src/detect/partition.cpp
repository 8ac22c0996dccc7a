#include "detect/partition.h"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "detect/bucket_list.h"
#include "util/dcheck.h"
#include "util/simd.h"

namespace rejecto::detect {

namespace {

// The fused-switch delta kernel treats the NodeAggregates array as a flat
// u32 array: word 4w is agg_[w].deg, word 4w+1 is agg_[w].cross_friends.
//
// Branch-free scalar form of the cross-friends update: sides differ exactly
// when the top bit of deg ^ v_side is set, and the count moves by +1 (differ)
// or -1 (match) — (deg ^ v_side) >> 31 is 1 or 0, so 2x-1 is the delta in
// unsigned arithmetic.
inline void CrossFriendDeltasScalar(std::uint32_t* agg_words,
                                    const graph::NodeId* row, std::size_t n,
                                    std::uint32_t v_side) {
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t base = static_cast<std::size_t>(row[i]) << 2;
    const std::uint32_t differs = (agg_words[base] ^ v_side) >> 31;
    agg_words[base + 1] += 2 * differs - 1;
  }
}

#if defined(__x86_64__) || defined(__i386__)
// AVX2 form: gathers 8 deg words at once so the random-access cache misses
// overlap, then applies the computed ±1 deltas scalar (the target lines are
// warm after the gather). Same integer arithmetic as the scalar form —
// bit-identical. Requires node ids < 2^29 (word index shifted left by 2
// must stay a positive s32 for the gather).
__attribute__((target("avx2"))) void CrossFriendDeltasAvx2(
    std::uint32_t* agg_words, const graph::NodeId* row, std::size_t n,
    std::uint32_t v_side) {
  const __m256i side = _mm256_set1_epi32(static_cast<int>(v_side));
  const __m256i one = _mm256_set1_epi32(1);
  alignas(32) std::uint32_t delta[8];
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i vidx =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(row + i));
    const __m256i words = _mm256_slli_epi32(vidx, 2);
    const __m256i degs = _mm256_i32gather_epi32(
        reinterpret_cast<const int*>(agg_words), words, 4);
    const __m256i differs =
        _mm256_srli_epi32(_mm256_xor_si256(degs, side), 31);
    _mm256_store_si256(
        reinterpret_cast<__m256i*>(delta),
        _mm256_sub_epi32(_mm256_add_epi32(differs, differs), one));
    for (int j = 0; j < 8; ++j) {
      agg_words[(static_cast<std::size_t>(row[i + j]) << 2) + 1] += delta[j];
    }
  }
  CrossFriendDeltasScalar(agg_words, row + i, n - i, v_side);
}
#endif  // x86

inline void CrossFriendDeltas(std::uint32_t* agg_words,
                              const graph::NodeId* row, std::size_t n,
                              std::uint32_t v_side, bool use_avx2) {
#if defined(__x86_64__) || defined(__i386__)
  if (use_avx2 && n >= 16) {
    CrossFriendDeltasAvx2(agg_words, row, n, v_side);
    return;
  }
#else
  (void)use_avx2;
#endif
  CrossFriendDeltasScalar(agg_words, row, n, v_side);
}

}  // namespace

Partition::Partition(const graph::GraphSource& src, std::vector<char> in_u)
    : src_(src), in_u_(std::move(in_u)) {
  if (in_u_.size() != src_.NumNodes()) {
    throw std::invalid_argument("Partition: mask size mismatch");
  }
  InitAggregates();
}

void Partition::Reset(const graph::GraphSource& src,
                      const std::vector<char>& in_u) {
  if (in_u.size() != src.NumNodes()) {
    throw std::invalid_argument("Partition: mask size mismatch");
  }
  src_ = src;
  in_u_ = in_u;  // copy-assign reuses the existing capacity
  InitAggregates();
}

void Partition::InitAggregates() {
  const graph::NodeId n = static_cast<graph::NodeId>(in_u_.size());
  agg_.assign(n, NodeAggregates{});

  // Normalize the mask to strict 0/1: callers promise "non-zero means in U",
  // and normalizing makes the side comparisons below, the side bit, and the
  // SIMD zero-byte counts all agree on the same membership.
  for (graph::NodeId v = 0; v < n; ++v) in_u_[v] = in_u_[v] != 0 ? 1 : 0;

  // Gather path: every per-node aggregate is an exact zero-byte count over
  // the normalized mask (cross = neighbors on the other side, in_from_w =
  // rejectors outside U, out_to_u = rejectees inside U), so the results
  // match the scalar loops bit for bit.
  const unsigned char* mask = nullptr;
  if (util::simd::ActiveMode() == util::simd::SimdMode::kAvx2 && n > 0) {
    mask_scratch_.resize(n);
    std::memcpy(mask_scratch_.data(), in_u_.data(), n);
    mask = mask_scratch_.data();
  }
  // Each visit reads the mask and writes only agg_[v], so a source may run
  // the pass from several threads (the distributed store scans its shards
  // in parallel).
  src_.ForEachRow([this, mask](graph::NodeId v,
                               std::span<const graph::NodeId> friends,
                               std::span<const graph::NodeId> rejectors,
                               std::span<const graph::NodeId> rejectees) {
    NodeAggregates& a = agg_[v];
    const bool v_in_u = in_u_[v] != 0;
    a.deg = static_cast<std::uint32_t>(friends.size()) |
            (v_in_u ? kSideBit : 0u);
    if (mask != nullptr) {
      const std::size_t friends_out =
          util::simd::CountZeroAt(mask, friends.data(), friends.size());
      a.cross_friends = static_cast<std::uint32_t>(
          v_in_u ? friends_out : friends.size() - friends_out);
      a.in_from_w = static_cast<std::uint32_t>(
          util::simd::CountZeroAt(mask, rejectors.data(), rejectors.size()));
      a.out_to_u = static_cast<std::uint32_t>(
          rejectees.size() -
          util::simd::CountZeroAt(mask, rejectees.data(), rejectees.size()));
      return;
    }
    for (graph::NodeId w : friends) {
      if (v_in_u != (in_u_[w] != 0)) ++a.cross_friends;
    }
    for (graph::NodeId x : rejectors) {
      if (!in_u_[x]) ++a.in_from_w;
    }
    for (graph::NodeId y : rejectees) {
      if (in_u_[y]) ++a.out_to_u;
    }
  });

  size_u_ = 0;
  cross_friendships_ = 0;
  rejections_into_u_ = 0;
  for (graph::NodeId v = 0; v < n; ++v) {
    if (in_u_[v]) {
      ++size_u_;
      cross_friendships_ += agg_[v].cross_friends;
      rejections_into_u_ += agg_[v].in_from_w;
    }
  }
}

void Partition::SwitchAll(std::span<const graph::NodeId> nodes) {
  for (graph::NodeId v : nodes) {
    if (v >= NumNodes()) {
      throw std::out_of_range("Partition::SwitchAll: node id");
    }
    in_u_[v] = in_u_[v] ? 0 : 1;
  }
  InitAggregates();
}

void Partition::Switch(graph::NodeId v) {
  if (v >= NumNodes()) throw std::out_of_range("Partition::Switch: node id");
  // Update the global totals with the pre-switch deltas.
  cross_friendships_ = static_cast<std::uint64_t>(
      static_cast<std::int64_t>(cross_friendships_) + DeltaFriends(v));
  rejections_into_u_ = static_cast<std::uint64_t>(
      static_cast<std::int64_t>(rejections_into_u_) + DeltaRejections(v));

  const bool was_in_u = InU(v);
  in_u_[v] = was_in_u ? 0 : 1;
  size_u_ += was_in_u ? -1 : 1;
  agg_[v].deg ^= kSideBit;

  // v's own cross-friend count flips; partners' counts shift by one.
  agg_[v].cross_friends = (agg_[v].deg & kDegMask) - agg_[v].cross_friends;
  const std::uint32_t v_side = agg_[v].deg & kSideBit;
  for (graph::NodeId w : src_.Friends(v)) {
    if (v_side != (agg_[w].deg & kSideBit)) {
      ++agg_[w].cross_friends;
    } else {
      --agg_[w].cross_friends;
    }
  }
  // v entering U (resp. leaving) makes each rejector x of v gain (lose) an
  // out-arc into U; each rejectee y of v gains (loses) an in-arc from Ū when
  // v leaves U (resp. enters).
  const std::int32_t into_u = was_in_u ? -1 : 1;
  for (graph::NodeId x : src_.Rejectors(v)) {
    agg_[x].out_to_u = static_cast<std::uint32_t>(
        static_cast<std::int32_t>(agg_[x].out_to_u) + into_u);
  }
  for (graph::NodeId y : src_.Rejectees(v)) {
    agg_[y].in_from_w = static_cast<std::uint32_t>(
        static_cast<std::int32_t>(agg_[y].in_from_w) - into_u);
  }
}

void Partition::SwitchFused(graph::NodeId v, double k, BucketList& bl,
                            util::AlignedVector<graph::NodeId>& touched,
                            const graph::NodeId* rank) {
  REJECTO_DCHECK(v < NumNodes(), "Partition::SwitchFused: node id");
  touched.clear();

  cross_friendships_ = static_cast<std::uint64_t>(
      static_cast<std::int64_t>(cross_friendships_) + DeltaFriends(v));
  rejections_into_u_ = static_cast<std::uint64_t>(
      static_cast<std::int64_t>(rejections_into_u_) + DeltaRejections(v));

  const bool was_in_u = InU(v);
  in_u_[v] = was_in_u ? 0 : 1;
  size_u_ += was_in_u ? -1 : 1;
  agg_[v].deg ^= kSideBit;

  const auto friends = src_.Friends(v);
  const auto rejectors = src_.Rejectors(v);
  const auto rejectees = src_.Rejectees(v);

  // The touched buffer is the three adjacency rows back to back — one bulk
  // memcpy per row instead of a push_back per neighbor. Duplicates (a node
  // that is both friend and rejector/rejectee of v) stay in the buffer; the
  // deferred sweep makes them no-ops.
  touched.Append(friends.data(), friends.size());
  touched.Append(rejectors.data(), rejectors.size());
  touched.Append(rejectees.data(), rejectees.size());

  // Aggregate deltas, branch-free (AVX2-gathered on long rows): identical
  // integer arithmetic to Switch.
  agg_[v].cross_friends = (agg_[v].deg & kDegMask) - agg_[v].cross_friends;
  const std::uint32_t v_side = agg_[v].deg & kSideBit;
  const bool use_avx2 =
      util::simd::ActiveMode() == util::simd::SimdMode::kAvx2 &&
      NumNodes() < (1u << 29);
  static_assert(sizeof(NodeAggregates) == 4 * sizeof(std::uint32_t));
  CrossFriendDeltas(reinterpret_cast<std::uint32_t*>(agg_.data()),
                    friends.data(), friends.size(), v_side, use_avx2);
  const std::size_t friends_end = friends.size();
  const std::int32_t into_u = was_in_u ? -1 : 1;
  for (graph::NodeId x : rejectors) {
    agg_[x].out_to_u = static_cast<std::uint32_t>(
        static_cast<std::int32_t>(agg_[x].out_to_u) + into_u);
  }
  const std::size_t rejectors_end = friends_end + rejectors.size();
  for (graph::NodeId y : rejectees) {
    agg_[y].in_from_w = static_cast<std::uint32_t>(
        static_cast<std::int32_t>(agg_[y].in_from_w) - into_u);
  }

  // Layout invariance (rank != null): each adjacency segment holds a
  // duplicate-free node set ordered by CURRENT (layout) id; re-sorting it
  // by original id reproduces the identity layout's segment order, and
  // keeping the segment boundaries preserves which occurrence of a
  // cross-segment duplicate relinks first. The identity run's relink
  // sequence is thus replayed node-for-node under any layout.
  if (rank != nullptr) {
    auto by_rank = [rank](graph::NodeId a, graph::NodeId b) {
      return rank[a] < rank[b];
    };
    auto begin = touched.begin();
    std::sort(begin, begin + static_cast<std::ptrdiff_t>(friends_end),
              by_rank);
    std::sort(begin + static_cast<std::ptrdiff_t>(friends_end),
              begin + static_cast<std::ptrdiff_t>(rejectors_end), by_rank);
    std::sort(begin + static_cast<std::ptrdiff_t>(rejectors_end),
              touched.end(), by_rank);
  }

  // Deferred bucket maintenance with the final aggregates: the first
  // occurrence of each neighbor relinks it (head of its new bucket), later
  // occurrences and unchanged buckets are no-ops inside Adjust — the exact
  // relink sequence of the unfused refresh loop. The gain is recomputed
  // from the integer aggregates (never accumulated in floating point), so
  // quantization and pick order match the unfused path bit for bit. The
  // Contains guard skips the gain recompute for nodes already popped or
  // locked — Adjust would ignore them anyway. The link records are
  // prefetched a fixed lookahead ahead of the sweep (the old code issued
  // the prefetches during the delta traversal, which on long rows evicted
  // the early lines before the sweep reached them).
  const std::size_t count = touched.size();
  constexpr std::size_t kLookahead = 8;
  for (std::size_t i = 0; i < count; ++i) {
    if (i + kLookahead < count) bl.PrefetchNode(touched[i + kLookahead]);
    const graph::NodeId w = touched[i];
    if (bl.Contains(w)) bl.Adjust(w, -DeltaObjective(w, k));
  }
}

graph::CutQuantities Partition::Quantities() const noexcept {
  graph::CutQuantities q;
  q.cross_friendships = cross_friendships_;
  q.rejections_into_u = rejections_into_u_;
  // rejections_from_u is not part of the objective, so it is not tracked
  // incrementally; derive it: for v ∈ Ū, arcs into v from U equal
  // InDegree(v) − in_from_w(v).
  std::uint64_t from_u = 0;
  for (graph::NodeId v = 0; v < NumNodes(); ++v) {
    if (!in_u_[v]) {
      from_u += src_.RejInDegree(v) - agg_[v].in_from_w;
    }
  }
  q.rejections_from_u = from_u;
  return q;
}

}  // namespace rejecto::detect

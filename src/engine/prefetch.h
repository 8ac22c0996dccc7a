// Master-side prefetch buffer with LRU replacement (paper §V).
//
// Fetching one node's adjacency per switch would cost a master<->worker
// round trip per step; the prototype instead prefetches the nodes most
// likely to be switched next — those with the highest potential gains in
// the bucket list — in batches, and evicts with LRU. The candidate supplier
// is injected: DistributedKl's store-backed row cursor hands in the KL
// kernel's current top-gain nodes (BucketList::CollectTop), read when a
// switched node's row misses, right after the kernel popped it.
//
// The cache is a fixed table of min(capacity, n) slots: an n-sized node ->
// slot index, intrusive LRU links over slot ids, and per-slot rows whose
// vectors keep their capacity when the slot is reused. Fetches decode
// straight into the victim slots, so once the slots have grown a miss
// allocates no rows on the master.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "engine/shard_store.h"
#include "graph/types.h"

namespace rejecto::engine {

class PrefetchBuffer {
 public:
  // capacity: max cached adjacencies; batch_size: nodes pulled per miss
  // (the missed node plus up to batch_size-1 candidates).
  PrefetchBuffer(const ShardedGraphStore& store, std::size_t capacity,
                 std::size_t batch_size);

  // Returns v's adjacency, fetching a batch on miss. `candidates` appends
  // ids worth prefetching alongside v to `out` (which holds v on entry);
  // repeats of v, cached ids, duplicates and out-of-range ids are skipped.
  // The reference stays valid until the next Get. Throws std::out_of_range
  // for a v outside the store.
  using CandidateSupplier =
      std::function<void(std::size_t want, std::vector<graph::NodeId>& out)>;
  const NodeAdjacency& Get(graph::NodeId v,
                           const CandidateSupplier& candidates);

  // Get without prefetching beyond v itself.
  const NodeAdjacency& Get(graph::NodeId v);

  const IoStats& Stats() const noexcept { return stats_; }
  std::size_t CachedNodes() const noexcept { return cached_; }

 private:
  static constexpr std::uint32_t kNoSlot = UINT32_MAX;
  // Slot-index mark for a node already in the batch being assembled.
  static constexpr std::uint32_t kPending = UINT32_MAX - 1;

  struct Link {
    graph::NodeId node = graph::kInvalidNode;  // kInvalidNode: empty slot
    std::uint32_t prev = 0;
    std::uint32_t next = 0;
  };

  void Unlink(std::uint32_t s) noexcept;
  void LinkAfter(std::uint32_t at, std::uint32_t s) noexcept;
  void MoveToFront(std::uint32_t s) noexcept {
    Unlink(s);
    LinkAfter(sentinel_, s);
  }
  void MoveToBack(std::uint32_t s) noexcept {
    Unlink(s);
    LinkAfter(links_[sentinel_].prev, s);
  }

  const ShardedGraphStore* store_;
  std::size_t batch_size_;
  IoStats stats_;
  std::size_t cached_ = 0;

  std::vector<std::uint32_t> slot_of_;  // node -> slot, kNoSlot if uncached
  // Circular LRU list over slot ids, most recent first; links_[sentinel_]
  // is the list head. Empty slots sit at the tail, so they fill first.
  std::vector<Link> links_;
  std::uint32_t sentinel_ = 0;
  std::vector<NodeAdjacency> rows_;  // per-slot row storage
  std::vector<graph::NodeId> batch_;
  std::vector<NodeAdjacency*> batch_rows_;
};

}  // namespace rejecto::engine

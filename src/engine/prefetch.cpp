#include "engine/prefetch.h"

#include <algorithm>
#include <stdexcept>

namespace rejecto::engine {

PrefetchBuffer::PrefetchBuffer(const ShardedGraphStore& store,
                               std::size_t capacity, std::size_t batch_size)
    : store_(&store), batch_size_(batch_size) {
  if (capacity == 0 || batch_size == 0) {
    throw std::invalid_argument("PrefetchBuffer: capacity and batch > 0");
  }
  if (batch_size > capacity) {
    throw std::invalid_argument("PrefetchBuffer: batch exceeds capacity");
  }
  // More slots than nodes could never fill, and a batch never holds more
  // distinct nodes than there are, so it always fits in the slots.
  const auto slots = static_cast<std::uint32_t>(
      std::min<std::size_t>(capacity, store.NumNodes()));
  slot_of_.assign(store.NumNodes(), kNoSlot);
  rows_.resize(slots);
  links_.resize(slots + 1);
  sentinel_ = slots;
  links_[sentinel_].prev = links_[sentinel_].next = sentinel_;
  for (std::uint32_t s = 0; s < slots; ++s) LinkAfter(links_[sentinel_].prev, s);
  batch_.reserve(batch_size);
  batch_rows_.reserve(batch_size);
}

void PrefetchBuffer::Unlink(std::uint32_t s) noexcept {
  links_[links_[s].prev].next = links_[s].next;
  links_[links_[s].next].prev = links_[s].prev;
}

void PrefetchBuffer::LinkAfter(std::uint32_t at, std::uint32_t s) noexcept {
  links_[s].prev = at;
  links_[s].next = links_[at].next;
  links_[links_[at].next].prev = s;
  links_[at].next = s;
}

const NodeAdjacency& PrefetchBuffer::Get(graph::NodeId v,
                                         const CandidateSupplier& candidates) {
  if (v >= slot_of_.size()) {
    throw std::out_of_range("PrefetchBuffer::Get: node id");
  }
  if (const std::uint32_t s = slot_of_[v]; s != kNoSlot) {
    ++stats_.cache_hits;
    MoveToFront(s);
    return rows_[s];
  }
  ++stats_.cache_misses;

  batch_.assign(1, v);
  if (candidates && batch_size_ > 1) {
    candidates(batch_size_ - 1, batch_);
    // One slot-index probe rejects v, cached ids and duplicates alike:
    // every kept id is marked pending until it gets its slot below.
    slot_of_[v] = kPending;
    std::size_t kept = 1;
    for (std::size_t i = 1; i < batch_.size() && kept < batch_size_; ++i) {
      const graph::NodeId c = batch_[i];
      if (c >= slot_of_.size() || slot_of_[c] != kNoSlot) continue;
      slot_of_[c] = kPending;
      batch_[kept++] = c;
    }
    batch_.resize(kept);
  }

  // Claim the least-recent slots (empty ones first), in reverse batch order
  // so v ends up most recent with the candidates behind it in rank order.
  batch_rows_.resize(batch_.size());
  for (std::size_t i = batch_.size(); i > 0; --i) {
    const graph::NodeId u = batch_[i - 1];
    const std::uint32_t s = links_[sentinel_].prev;
    if (links_[s].node != graph::kInvalidNode) {
      slot_of_[links_[s].node] = kNoSlot;  // evict
    } else {
      ++cached_;
    }
    links_[s].node = u;
    slot_of_[u] = s;
    MoveToFront(s);
    batch_rows_[i - 1] = &rows_[s];
  }

  try {
    store_->FetchInto(batch_, batch_rows_, stats_);
  } catch (...) {
    // The batch's rows may be half written: return their slots to the
    // tail as empty so nothing stale is ever served.
    for (graph::NodeId u : batch_) {
      const std::uint32_t s = slot_of_[u];
      slot_of_[u] = kNoSlot;
      links_[s].node = graph::kInvalidNode;
      MoveToBack(s);
    }
    cached_ -= batch_.size();
    throw;
  }
  return rows_[slot_of_[v]];
}

const NodeAdjacency& PrefetchBuffer::Get(graph::NodeId v) {
  return Get(v, CandidateSupplier{});
}

}  // namespace rejecto::engine

// Uniform adjacency source for the detection kernels: an in-RAM
// AugmentedGraph or a RowCursor behind one row-span API.
//
// Partition and ExtendedKl only ever consume the degree maxima, rejection
// in-degrees, sorted row spans and one bulk pass over every row;
// GraphSource is that contract as a value type (two pointers). The RAM
// branch is devirtualised, so the hot loops compile to one predictable
// branch per accessor, and AugmentedGraph call sites convert implicitly.
// Every other backend is a RowCursor: the out-of-core DecodeCursor and the
// distributed store's rows (engine/dist_kl.cpp). A cursor row stays valid
// across the handful of accesses a switch makes, not forever.
//
// Every backend returns identical bytes for identical graphs, which is the
// root of the bit-identical-cut guarantee across them.
#pragma once

#include <cstdint>
#include <functional>
#include <span>

#include "graph/augmented_graph.h"
#include "graph/types.h"

namespace rejecto::graph {

// (v, friends, rejectors, rejectees) for one node of a bulk pass.
using RowVisitor =
    std::function<void(NodeId, std::span<const NodeId>,
                       std::span<const NodeId>, std::span<const NodeId>)>;

// Row access other than an in-RAM graph. The accessors may mutate the
// cursor (a block cache, a fetch buffer): one cursor per thread.
class RowCursor {
 public:
  virtual ~RowCursor() = default;

  virtual NodeId NumNodes() const = 0;
  virtual std::uint64_t MaxFriendshipDegree() const = 0;
  // max over v of InDegree(v) + OutDegree(v), as on AugmentedGraph.
  virtual std::uint64_t MaxRejectionDegree() const = 0;

  // Rejections u received (the rejectors row's length).
  virtual std::uint32_t InDegree(NodeId u) = 0;

  virtual std::span<const NodeId> Friends(NodeId u) = 0;
  virtual std::span<const NodeId> Rejectees(NodeId u) = 0;
  virtual std::span<const NodeId> Rejectors(NodeId u) = 0;

  // Calls fn once for every node. An override may visit nodes in any order
  // and from several threads at once, so fn may only write state of the
  // node it is handed.
  virtual void ForEachRow(const RowVisitor& fn) {
    for (NodeId v = 0; v < NumNodes(); ++v) {
      fn(v, Friends(v), Rejectors(v), Rejectees(v));
    }
  }
};

class GraphSource {
 public:
  // Empty source; usable only after assignment (Partition's default state).
  GraphSource() = default;

  // Implicit by design: every Partition/ExtendedKl call site holding an
  // AugmentedGraph keeps compiling unchanged.
  GraphSource(const AugmentedGraph& g) : ram_(&g) {}  // NOLINT

  // The cursor must outlive the source.
  explicit GraphSource(RowCursor* cursor) : cursor_(cursor) {}

  NodeId NumNodes() const {
    return ram_ != nullptr ? ram_->NumNodes() : cursor_->NumNodes();
  }

  std::uint64_t MaxFriendshipDegree() const {
    return ram_ != nullptr ? ram_->MaxFriendshipDegree()
                           : cursor_->MaxFriendshipDegree();
  }
  std::uint64_t MaxRejectionDegree() const {
    return ram_ != nullptr ? ram_->MaxRejectionDegree()
                           : cursor_->MaxRejectionDegree();
  }

  std::uint32_t RejInDegree(NodeId u) const {
    return ram_ != nullptr ? ram_->Rejections().InDegree(u)
                           : cursor_->InDegree(u);
  }

  std::span<const NodeId> Friends(NodeId u) const {
    return ram_ != nullptr ? ram_->Friendships().Neighbors(u)
                           : cursor_->Friends(u);
  }
  std::span<const NodeId> Rejectees(NodeId u) const {
    return ram_ != nullptr ? ram_->Rejections().Rejectees(u)
                           : cursor_->Rejectees(u);
  }
  std::span<const NodeId> Rejectors(NodeId u) const {
    return ram_ != nullptr ? ram_->Rejections().Rejectors(u)
                           : cursor_->Rejectors(u);
  }

  // One pass over every node's rows: an inlined loop for RAM, else
  // RowCursor::ForEachRow (which may run fn on several threads).
  template <typename Fn>
  void ForEachRow(Fn&& fn) const {
    if (ram_ == nullptr) {
      cursor_->ForEachRow(fn);
      return;
    }
    const SocialGraph& friends = ram_->Friendships();
    const RejectionGraph& rejections = ram_->Rejections();
    for (NodeId v = 0; v < ram_->NumNodes(); ++v) {
      fn(v, friends.Neighbors(v), rejections.Rejectors(v),
         rejections.Rejectees(v));
    }
  }

 private:
  const AugmentedGraph* ram_ = nullptr;
  RowCursor* cursor_ = nullptr;
};

}  // namespace rejecto::graph

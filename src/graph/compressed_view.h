// Out-of-core view of an RJSNAP02 compressed snapshot.
//
// CompressedGraphView mmaps the file and exposes the three adjacency
// structures (friendship, rejection-out, rejection-in) at block granularity:
// Open() validates the container, the meta section and the three block
// indexes — a few KB of reads — without paging in a single adjacency byte.
// Each block's encoded bytes carry their own CRC32C in the index, verified
// on first decode, so a 100M+-edge snapshot opens in milliseconds and
// integrity checking is paid only for the blocks detection actually visits.
//
// DecodeCursor is the per-thread access path detection runs on: a bounded
// LRU of decoded blocks per CSR (three independent caches, so the three
// row spans SwitchFused holds for one vertex can never evict each other),
// reusable aligned decode scratch, and span accessors mirroring the
// AugmentedGraph API. Peak RSS of a detection pass over the view is
// index + per-cursor cache + scratch — independent of the edge count.
//
// Span lifetime: a span returned for node u stays valid until `capacity`
// further *distinct-block* accesses on the same CSR (LRU order). Callers
// holding a row across long stretches must copy it; the detection kernels
// only ever hold one row per CSR at a time.
//
// Materialize() decodes every block (optionally in parallel) into a plain
// in-RAM Snapshot — the v2 path of LoadSnapshot, and the reference the
// bit-identity property tests compare the out-of-core path against.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "graph/graph_source.h"
#include "graph/layout.h"
#include "graph/snapshot.h"
#include "graph/snapshot_format.h"
#include "graph/types.h"
#include "util/buffer.h"

namespace rejecto::util {
class ThreadPool;
}  // namespace rejecto::util

namespace rejecto::graph {

class CompressedGraphView {
 public:
  // CSR selector for the block APIs.
  enum Csr : int { kFriend = 0, kRejOut = 1, kRejIn = 2 };

  // Maps and validates `path`. Throws std::runtime_error (with the usual
  // "snapshot: <path> at offset <n>: ..." diagnostics) on any container
  // violation; rejects RJSNAP01 files (those load via LoadSnapshot, which
  // dispatches on the magic).
  static CompressedGraphView Open(const std::string& path);

  NodeId NumNodes() const noexcept { return n_; }
  std::uint64_t NumEdges() const noexcept { return edges_; }
  std::uint64_t NumArcs() const noexcept { return arcs_; }
  std::uint32_t BlockRows() const noexcept { return block_rows_; }
  // Identical for all three CSRs (same row count, same span).
  NodeId NumBlocks() const noexcept { return num_blocks_; }

  // Degree maxima from the meta section — exact, computed by the writer,
  // so ExtendedKl's gain bound is identical on the RAM and compressed
  // paths (a prerequisite for bit-identical cuts).
  std::uint64_t MaxFriendshipDegree() const noexcept {
    return max_friendship_degree_;
  }
  std::uint64_t MaxRejectionDegree() const noexcept {
    return max_rejection_degree_;
  }

  // The stored layout (empty when the snapshot was saved in identity
  // layout); ids handed to/returned from this view live in the stored
  // (laid-out) id space, exactly like Snapshot::graph.
  const Layout& StoredLayout() const noexcept { return layout_; }

  const std::string& Path() const noexcept { return path_; }

  // Bytes of file mapped (the whole file; residency is what stays small).
  std::uint64_t MappedBytes() const noexcept { return file_->size(); }

  // Total encoded adjacency bytes across the three blob sections.
  std::uint64_t AdjacencyBlobBytes() const noexcept {
    return csr_[0].blob_len + csr_[1].blob_len + csr_[2].blob_len;
  }

  // Global adjacency index of the first entry of `block` (== the CSR offset
  // of the block's first row).
  std::uint64_t BlockFirstAdj(int csr, NodeId block) const;

  // Rows in `block` (block_rows_ except possibly the last block).
  std::uint32_t BlockRowCount(int csr, NodeId block) const;

  // File-absolute byte range of the block's encoded bytes, for
  // FileBytes::ReleaseRange during bounded-RSS scans.
  void BlockFileRange(int csr, NodeId block, std::uint64_t* offset,
                      std::uint64_t* length) const;

  // CRC-verifies and decodes one block into reusable scratch: block-local
  // row offsets (BlockRowCount + 1 entries) and the block's adjacency.
  // Throws std::runtime_error naming the section, block and file offset on
  // CRC mismatch or malformed block bytes.
  void DecodeBlockInto(int csr, NodeId block,
                       util::AlignedVector<std::uint32_t>& row_offsets,
                       util::AlignedVector<NodeId>& adj) const;

  const snapfmt::FileBytes& Bytes() const noexcept { return *file_; }

  // Full in-RAM expansion (LoadSnapshot's v2 path). Decodes blocks in
  // parallel when a pool is supplied (each writes a disjoint slice of the
  // target CSR), serially otherwise.
  Snapshot Materialize(util::ThreadPool* pool = nullptr) const;

 private:
  struct CsrView {
    const unsigned char* index = nullptr;  // (num_blocks + 1) records
    const unsigned char* blob = nullptr;
    std::uint64_t blob_file_offset = 0;
    std::uint64_t blob_len = 0;
    std::uint64_t total_adj = 0;
  };

  CompressedGraphView() = default;

  // {byte_off, first_adj, crc, rows} of index record `block` (the sentinel
  // included, as record num_blocks_).
  void IndexRecord(int csr, NodeId block, std::uint64_t* byte_off,
                   std::uint64_t* first_adj, std::uint32_t* crc,
                   std::uint32_t* rows) const;

  std::shared_ptr<snapfmt::FileBytes> file_;
  std::string path_;
  NodeId n_ = 0;
  std::uint64_t edges_ = 0;
  std::uint64_t arcs_ = 0;
  std::uint32_t block_rows_ = 0;
  NodeId num_blocks_ = 0;
  std::uint64_t max_friendship_degree_ = 0;
  std::uint64_t max_rejection_degree_ = 0;
  Layout layout_;
  CsrView csr_[3];
};

// Per-thread decoded-block cache over a CompressedGraphView: the
// out-of-core RowCursor. Not thread-safe; create one per worker
// (MaarSolver keeps one per scratch slot). Row accessors mirror
// SocialGraph/RejectionGraph.
class DecodeCursor final : public RowCursor {
 public:
  // cache_rows: decoded rows retained per CSR (three caches of this size).
  // < 0 reads REJECTO_DECODE_CACHE_ROWS (default 65536). The cache always
  // holds at least 4 blocks per CSR so short access patterns never thrash.
  explicit DecodeCursor(const CompressedGraphView& view,
                        std::int64_t cache_rows = -1);

  const CompressedGraphView& View() const noexcept { return *view_; }
  NodeId NumNodes() const override { return view_->NumNodes(); }
  std::uint64_t MaxFriendshipDegree() const override {
    return view_->MaxFriendshipDegree();
  }
  std::uint64_t MaxRejectionDegree() const override {
    return view_->MaxRejectionDegree();
  }

  std::span<const NodeId> Friends(NodeId u) override {
    return Row(CompressedGraphView::kFriend, u);
  }
  std::span<const NodeId> Rejectees(NodeId u) override {
    return Row(CompressedGraphView::kRejOut, u);
  }
  std::span<const NodeId> Rejectors(NodeId u) override {
    return Row(CompressedGraphView::kRejIn, u);
  }

  std::uint32_t FriendDegree(NodeId u) {
    return RowDegree(CompressedGraphView::kFriend, u);
  }
  std::uint32_t OutDegree(NodeId u) {
    return RowDegree(CompressedGraphView::kRejOut, u);
  }
  std::uint32_t InDegree(NodeId u) override {
    return RowDegree(CompressedGraphView::kRejIn, u);
  }

  std::uint64_t BlocksDecoded() const noexcept { return blocks_decoded_; }
  std::uint64_t CacheHits() const noexcept { return cache_hits_; }

 private:
  struct Slot {
    NodeId block = kInvalidNode;
    std::uint64_t tick = 0;
    util::AlignedVector<std::uint32_t> row_offsets;
    util::AlignedVector<NodeId> adj;
  };
  struct Cache {
    std::vector<std::int32_t> slot_of_block;  // -1 when not resident
    std::vector<Slot> slots;
  };

  const Slot& Fetch(int csr, NodeId block);

  std::span<const NodeId> Row(int csr, NodeId u) {
    const Slot& s = Fetch(csr, u / view_->BlockRows());
    const std::uint32_t r = u % view_->BlockRows();
    return {s.adj.data() + s.row_offsets[r],
            s.adj.data() + s.row_offsets[r + 1]};
  }
  std::uint32_t RowDegree(int csr, NodeId u) {
    const Slot& s = Fetch(csr, u / view_->BlockRows());
    const std::uint32_t r = u % view_->BlockRows();
    return s.row_offsets[r + 1] - s.row_offsets[r];
  }

  const CompressedGraphView* view_;
  std::uint64_t tick_ = 0;
  std::uint64_t blocks_decoded_ = 0;
  std::uint64_t cache_hits_ = 0;
  Cache caches_[3];
};

}  // namespace rejecto::graph

#include "engine/dist_kl.h"

#include "engine/prefetch.h"
#include "graph/graph_source.h"

namespace rejecto::engine {
namespace {

// The store-backed row source of one DistributedKl call.
class StoreRows final : public graph::RowCursor {
 public:
  StoreRows(const ShardedGraphStore& store, const ClusterConfig& config,
            const detect::BucketList& gains)
      : store_(store),
        buffer_(store, config.buffer_capacity, config.prefetch_batch),
        candidates_([&gains](std::size_t want,
                             std::vector<graph::NodeId>& out) {
          gains.CollectTop(want, out);
        }) {}

  graph::NodeId NumNodes() const override { return store_.NumNodes(); }
  std::uint64_t MaxFriendshipDegree() const override {
    return store_.MaxFriendshipDegree();
  }
  std::uint64_t MaxRejectionDegree() const override {
    return store_.MaxRejectionDegree();
  }
  std::uint32_t InDegree(graph::NodeId u) override {
    return store_.RejInDegree(u);
  }

  // A switch reads Friends first, then the other two rows of the same
  // node, so Friends makes the one buffer Get (and prefetch) per switch.
  std::span<const graph::NodeId> Friends(graph::NodeId u) override {
    row_ = &buffer_.Get(u, candidates_);
    row_node_ = u;
    return row_->friends;
  }
  std::span<const graph::NodeId> Rejectees(graph::NodeId u) override {
    return Row(u).rejectees;
  }
  std::span<const graph::NodeId> Rejectors(graph::NodeId u) override {
    return Row(u).rejectors;
  }

  // Each shard scans only its own partition (free, shard-local reads),
  // metered as one mask broadcast (a bit per node) plus a gather of the
  // aggregates (24 bytes per node).
  void ForEachRow(const graph::RowVisitor& fn) override {
    const graph::NodeId n = store_.NumNodes();
    const std::uint32_t shards = store_.NumShards();
    store_.ForEachShard([&](std::uint32_t s) {
      for (graph::NodeId v = s; v < n; v += shards) {
        const NodeAdjacency& a = store_.Local(v);
        fn(v, a.friends, a.rejectors, a.rejectees);
      }
    });
    store_.ChargeScan((static_cast<std::uint64_t>(n) + 7) / 8,
                      24 * static_cast<std::uint64_t>(n), scan_io_);
  }

  IoStats Stats() const {
    IoStats io = buffer_.Stats();
    io.Accumulate(scan_io_);
    return io;
  }

 private:
  const NodeAdjacency& Row(graph::NodeId u) {
    if (row_node_ != u) Friends(u);
    return *row_;
  }

  const ShardedGraphStore& store_;
  PrefetchBuffer buffer_;
  PrefetchBuffer::CandidateSupplier candidates_;
  const NodeAdjacency* row_ = nullptr;  // valid until the next buffer Get
  graph::NodeId row_node_ = graph::kInvalidNode;
  IoStats scan_io_;
};

}  // namespace

DistKlResult DistributedKl(const ShardedGraphStore& store,
                           const std::vector<char>& init_in_u,
                           const std::vector<char>& locked,
                           const detect::KlConfig& kl_config,
                           Cluster& cluster, detect::KlScratch* scratch) {
  detect::KlScratch local;
  detect::KlScratch& ws = scratch != nullptr ? *scratch : local;
  StoreRows rows(store, cluster.Config(), ws.bucket);
  DistKlResult result;
  result.kl = detect::ExtendedKl(graph::GraphSource(&rows), init_in_u,
                                 locked, kl_config, &ws);
  result.io = rows.Stats();
  return result;
}

}  // namespace rejecto::engine

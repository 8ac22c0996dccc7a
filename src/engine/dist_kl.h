// Distributed extended Kernighan–Lin (paper §V).
//
// The same algorithm as detect::ExtendedKl with the prototype's Spark data
// layout: node status (side, cross-friend / rejection aggregates, switch
// gains, bucket list) lives on the master; adjacency lives on the workers
// in a ShardedGraphStore and is pulled on demand through a PrefetchBuffer
// whose prefetch candidates are the bucket list's current top-gain nodes.
// The aggregates are built by a shard-parallel worker-local scan, like the
// prototype's RDD transformations, and the same scan rebuilds them when a
// pass rolls back to its best prefix: rollback flips the mask and never
// re-fetches a row. The result is bit-identical to detect::ExtendedKl (an
// equivalence the tests assert); what differs is the metered I/O.
#pragma once

#include "detect/extended_kl.h"
#include "engine/cluster.h"
#include "engine/shard_store.h"
#include "graph/augmented_graph.h"

namespace rejecto::engine {

struct DistKlResult {
  detect::KlResult kl;
  IoStats io;
  std::uint32_t num_shards = 0;
};

// Runs extended KL from `init_in_u` over the graph held by `store`, with
// `locked` (empty, or one flag per node) nodes never switched. Row fetches
// go through a PrefetchBuffer sized by the cluster's buffer_capacity and
// prefetch_batch; `io` reports them plus the aggregate scans. Throws
// std::invalid_argument on a non-positive k or a mask of the wrong size.
DistKlResult DistributedKl(const ShardedGraphStore& store,
                           std::vector<char> init_in_u,
                           const std::vector<char>& locked,
                           const detect::KlConfig& kl_config,
                           Cluster& cluster);

}  // namespace rejecto::engine

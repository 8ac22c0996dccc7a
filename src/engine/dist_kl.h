// Distributed extended Kernighan–Lin (paper §V).
//
// detect::ExtendedKl — the one KL kernel — run with the prototype's Spark
// data layout: node status (side, aggregates, gains, bucket list) lives on
// the master in the kernel's own Partition and BucketList; adjacency lives
// on the workers in a ShardedGraphStore. The kernel reads it through a
// store-backed graph::RowCursor:
//   * a switched node's row comes from a per-call PrefetchBuffer, whose
//     prefetch candidates are the kernel's current top-gain nodes
//     (BucketList::CollectTop on the KlScratch the kernel runs on);
//   * a full pass over the rows (the aggregates at the start of a call and
//     after each rollback by recompute) is a shard-parallel worker-local
//     scan, like the prototype's RDD transformations, metered as one
//     ShardedGraphStore::ChargeScan;
//   * rejection in-degrees and the degree maxima are master-resident
//     arrays the store filled when it built its shards.
// The result is the single-box result bit for bit (an equivalence the
// tests assert); what differs is the metered I/O.
#pragma once

#include "detect/extended_kl.h"
#include "engine/cluster.h"
#include "engine/shard_store.h"

namespace rejecto::engine {

struct DistKlResult {
  detect::KlResult kl;
  IoStats io;
};

// Runs extended KL from `init_in_u` over the graph held by `store`, with
// `locked` (empty, or one flag per node) nodes never switched. Row fetches
// go through a PrefetchBuffer sized by the cluster's buffer_capacity and
// prefetch_batch; `io` reports them plus the aggregate scans. `scratch`
// (may be null) is the reusable kernel workspace, as for ExtendedKl.
// Throws std::invalid_argument on a non-positive k or a mask of the wrong
// size.
DistKlResult DistributedKl(const ShardedGraphStore& store,
                           const std::vector<char>& init_in_u,
                           const std::vector<char>& locked,
                           const detect::KlConfig& kl_config,
                           Cluster& cluster,
                           detect::KlScratch* scratch = nullptr);

}  // namespace rejecto::engine

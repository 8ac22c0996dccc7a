// Worker-resident sharded graph storage (paper §V).
//
// The Rejecto prototype keeps the (huge) social graph distributed across
// Spark workers as RDD partitions while the master holds only per-node
// algorithm state. This substrate reproduces that data layout: the
// augmented graph's adjacency is hash-sharded across `num_shards` workers
// and the master pulls per-node adjacency through FetchInto. Where the
// shard data lives and what carries the request depends on the cluster's
// transport backend (net/transport.h):
//
//   loopback  (default) in-process arrays; the per-shard lookups execute
//             on the worker pool and are metered as simulated network I/O
//             via NetworkModel — the original simulated-cluster path.
//   simnet    the store pushes each partition to a per-worker
//             engine::ShardWorker through RJNET001 kBuildShard frames over
//             net::SimNetwork, and FetchInto issues kFetchRequest frames
//             over the same deterministic faulty links.
//   socket    identical protocol, but the ShardWorkers are real processes
//             behind net::SocketTransport.
//
// Failure tolerance (docs/ROBUSTNESS.md): FetchInto consults two failpoint
// sites before touching a shard — "engine/fetch_shard" (a transient fetch
// failure/timeout; the master retries with exponential backoff up to
// FetchPolicy::max_attempts) and "engine/worker_crash" (the worker dies and
// its partition is lost). On the wire backends the same retry loop also
// absorbs *transport* faults: timeouts from dropped/partitioned links,
// CRC-rejected corrupt frames, and dead peers. When retries are exhausted
// or a worker crashes, degraded mode fails the shard over: its partition is
// rebuilt from the source graph — the lineage recompute of the prototype's
// RDDs — and served master-locally, so detection continues bit-identical to
// a failure-free run. With degraded mode off the same condition throws.
// Failure resolution runs on the master thread in increasing shard order,
// so injected faults are deterministic.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "graph/augmented_graph.h"
#include "graph/types.h"
#include "net/transport.h"
#include "util/thread_pool.h"

namespace rejecto::engine {

// A node's complete neighborhood in the augmented graph.
struct NodeAdjacency {
  std::vector<graph::NodeId> friends;
  std::vector<graph::NodeId> rejectors;  // cast rejections onto this node
  std::vector<graph::NodeId> rejectees;  // rejected by this node

  // Simulated wire size: 4 bytes per id plus a fixed header.
  std::uint64_t WireBytes() const noexcept {
    return 16 + 4 * (friends.size() + rejectors.size() + rejectees.size());
  }
};

// Master<->worker link model for simulated network time: every batched
// RPC pays a fixed round-trip latency plus its payload over the link
// bandwidth. Defaults approximate a 10 GbE datacenter link. (The simnet
// backend meters with its own per-link delay matrix instead; the socket
// backend pays real time.)
struct NetworkModel {
  double rpc_latency_us = 150.0;
  double bandwidth_gbps = 10.0;

  double MicrosFor(std::uint64_t rpcs, std::uint64_t bytes) const noexcept {
    return static_cast<double>(rpcs) * rpc_latency_us +
           static_cast<double>(bytes) * 8.0 / (bandwidth_gbps * 1e3);
  }
};

// Master-side retry/failover policy for shard RPCs. Lives on ClusterConfig
// (the deployment's knobs) and is copied into every store the cluster
// builds. On wire backends attempt_timeout_us doubles as the per-request
// transport deadline and publish_timeout_us bounds a shard partition push.
struct FetchPolicy {
  std::uint32_t max_attempts = 3;        // tries per shard RPC before failover
  double backoff_us = 1000.0;            // wait before retry #1
  double backoff_multiplier = 2.0;       // exponential backoff growth
  double attempt_timeout_us = 5000.0;    // per-attempt request deadline
  double publish_timeout_us = 250'000.0; // per-attempt shard-push deadline
  // Fail a dead/unreachable shard over to a replica rebuilt from the source
  // graph instead of aborting the sweep.
  bool degraded_mode = true;

  // Rejects zero attempts, negative backoff/timeouts, and a shrinking
  // backoff with a file:line-prefixed std::invalid_argument naming `who`
  // (e.g. "ClusterConfig.fetch").
  void Validate(const std::string& who) const;
};

// Cumulative master<->worker traffic accounting.
struct IoStats {
  std::uint64_t fetch_requests = 0;  // batched RPCs issued
  std::uint64_t nodes_fetched = 0;
  std::uint64_t bytes_transferred = 0;
  std::uint64_t cache_hits = 0;      // served from the prefetch buffer
  std::uint64_t cache_misses = 0;
  // Shard round trips of aggregate scans (ChargeScan): a mask broadcast out
  // and an aggregate gather back, one per shard per scan. Not included in
  // fetch_requests.
  std::uint64_t scan_requests = 0;
  std::uint64_t fetch_retries = 0;   // shard RPC attempts repeated
  std::uint64_t shard_failovers = 0; // partitions rebuilt from lineage
  double simulated_network_us = 0.0;  // NetworkModel / simnet virtual time
  double simulated_backoff_us = 0.0;  // retry backoff waits (simulated)
  // Wire-level counters (frames, bytes on the wire, timeouts, reconnects,
  // corrupt/dropped frames) — all zero on the loopback backend, which
  // never encodes a frame.
  net::TransportStats wire;

  double HitRate() const noexcept {
    const std::uint64_t total = cache_hits + cache_misses;
    return total == 0 ? 0.0
                      : static_cast<double>(cache_hits) /
                            static_cast<double>(total);
  }

  // Field-wise sum, so aggregation sites can't silently drop a counter.
  void Accumulate(const IoStats& o) noexcept {
    fetch_requests += o.fetch_requests;
    nodes_fetched += o.nodes_fetched;
    bytes_transferred += o.bytes_transferred;
    cache_hits += o.cache_hits;
    cache_misses += o.cache_misses;
    scan_requests += o.scan_requests;
    fetch_retries += o.fetch_retries;
    shard_failovers += o.shard_failovers;
    simulated_network_us += o.simulated_network_us;
    simulated_backoff_us += o.simulated_backoff_us;
    wire.Accumulate(o.wire);
  }
};

class Cluster;

class ShardedGraphStore {
 public:
  // Shards g's adjacency round-robin (node id mod num_shards). The pool
  // models the cluster's workers; it must outlive the store. `g` must also
  // outlive the store — it is the lineage source for shard failover. This
  // form always uses the loopback path (no transport).
  ShardedGraphStore(const graph::AugmentedGraph& g, std::uint32_t num_shards,
                    util::ThreadPool& pool,
                    const NetworkModel& network = {},
                    const FetchPolicy& policy = {});

  // Cluster-aware form: one shard per worker, FetchPolicy from the cluster
  // config, and worker-death tracking shared with `cluster` — a shard whose
  // worker is already dead is built as a failover replica up front (counted
  // in Failovers()), and a crash injected mid-sweep marks the worker dead
  // for every later store the cluster builds. When the cluster runs a wire
  // transport (simnet/socket), construction also *publishes* every live
  // shard's partition to its worker as kBuildShard frames; a push that
  // cannot be delivered within the fetch policy fails the shard over at
  // build time (degraded mode) or throws.
  ShardedGraphStore(const graph::AugmentedGraph& g, Cluster& cluster,
                    const NetworkModel& network = {});

  ~ShardedGraphStore();

  graph::NodeId NumNodes() const noexcept { return num_nodes_; }
  std::uint32_t NumShards() const noexcept {
    return static_cast<std::uint32_t>(shards_.size());
  }

  std::uint32_t ShardOf(graph::NodeId v) const noexcept {
    return v % NumShards();
  }

  // Pulls the adjacency of each requested node into caller-owned rows:
  // *out[i] receives nodes[i]'s adjacency, reusing its vectors' capacity
  // (wire responses decode straight into them). The request is grouped by
  // shard. Loopback: the per-shard lookups execute on the worker pool and
  // `stats` is charged one fetch_request per shard touched plus the
  // payload bytes. Wire backends: one kFetchRequest frame per shard
  // touched, retried/failed-over per FetchPolicy, with wire counters
  // accumulated into stats.wire. Throws std::out_of_range for an id outside
  // the store; if it throws, the rows' contents are unspecified.
  // Master-thread only.
  void FetchInto(std::span<const graph::NodeId> nodes,
                 std::span<NodeAdjacency* const> out, IoStats& stats) const;

  // Master-resident node status (paper §V): filled when the shards are
  // built, read without any I/O.
  std::uint32_t RejInDegree(graph::NodeId v) const {
    return rej_in_degree_[v];
  }
  std::uint64_t MaxFriendshipDegree() const noexcept {
    return max_friendship_degree_;
  }
  // max over v of rejections received plus rejections cast.
  std::uint64_t MaxRejectionDegree() const noexcept {
    return max_rejection_degree_;
  }

  // Runs fn(shard_index) for every shard on the worker pool and waits —
  // the analogue of a Spark transformation over all partitions. (On wire
  // backends this worker-local compute still executes in-process; only the
  // fetch/update RPC boundary crosses the transport. See DESIGN.md.)
  void ForEachShard(const std::function<void(std::uint32_t)>& fn) const;

  // Meters one ForEachShard scan whose master broadcasts `broadcast_bytes`
  // to every shard and gathers `gather_bytes` back in total: one
  // scan_request per shard, the bytes, and one NetworkModel round trip (the
  // shards answer in parallel, as in a loopback FetchInto). Nothing crosses
  // the transport; this only charges the traffic a deployment would pay.
  void ChargeScan(std::uint64_t broadcast_bytes, std::uint64_t gather_bytes,
                  IoStats& stats) const;

  // Worker-local access to a node's adjacency — no simulated network I/O.
  // Only call for nodes of the shard the caller is processing (inside a
  // ForEachShard body); cross-shard reads must go through FetchInto.
  const NodeAdjacency& Local(graph::NodeId v) const {
    return shards_[ShardOf(v)].nodes[v / NumShards()];
  }

  // Shards built as failover replicas because their worker was already
  // dead at construction. Publish-time failovers are metered into
  // PublishIo().shard_failovers and FetchInto-time failovers into the
  // caller's IoStats, so summing all three never double-counts.
  std::uint64_t Failovers() const noexcept { return failovers_; }

  // True if shard s currently serves from a rebuilt replica.
  bool IsReplica(std::uint32_t s) const { return replica_[s] != 0; }

  // Wire traffic of the construction-time shard publish (zero for
  // loopback stores).
  const IoStats& PublishIo() const noexcept { return publish_io_; }

  // Store generation on the wire (0 for loopback stores).
  std::uint64_t StoreId() const noexcept { return store_id_; }

 private:
  struct Shard {
    // Dense local storage: local index = global id / num_shards.
    std::vector<NodeAdjacency> nodes;
  };

  // Rebuilds shard s's partition from the source graph (deterministic, so
  // a replica is bit-identical to the partition it replaces).
  void BuildShard(std::uint32_t s) const;
  // Degraded-mode failover of an unreachable shard; throws when degraded
  // mode is off.
  void FailoverShard(std::uint32_t s, IoStats& stats) const;
  // Loopback phase 1: decide a shard RPC's fate on the master thread —
  // success, retries with backoff, or crash/exhaustion failover.
  void ResolveShardFetch(std::uint32_t s, IoStats& stats) const;
  // Wire-path per-shard fetch: the full retry/backoff/failover loop around
  // transport Calls; fills `out` at `positions` either from the response
  // or from the local replica after failover.
  void ResolveWireFetch(std::uint32_t s,
                        std::span<const graph::NodeId> nodes,
                        const std::vector<std::size_t>& positions,
                        std::span<NodeAdjacency* const> out,
                        IoStats& stats) const;
  void ServeLocally(std::uint32_t s, std::span<const graph::NodeId> nodes,
                    const std::vector<std::size_t>& positions,
                    std::span<NodeAdjacency* const> out) const;
  // Pushes shard s to its worker (wire backends); returns false when the
  // shard had to fail over (or throws without degraded mode).
  bool PublishShard(std::uint32_t s);

  graph::NodeId num_nodes_ = 0;
  const graph::AugmentedGraph* source_;  // lineage for failover rebuilds
  std::vector<std::uint32_t> rej_in_degree_;
  std::uint64_t max_friendship_degree_ = 0;
  std::uint64_t max_rejection_degree_ = 0;
  // Failure handling mutates shard state from const FetchInto; all of it
  // runs on the master thread (FetchInto is not itself thread-safe).
  mutable std::vector<Shard> shards_;
  mutable std::vector<char> replica_;
  mutable std::uint64_t failovers_ = 0;
  // FetchInto scratch, reused across calls (master thread only): request
  // positions per shard, one shard's ids and rows, and the request message.
  mutable std::vector<std::vector<std::size_t>> by_shard_;
  mutable std::vector<graph::NodeId> wire_ids_;
  mutable std::vector<NodeAdjacency*> wire_rows_;
  mutable net::Message wire_request_;
  util::ThreadPool* pool_;
  Cluster* cluster_ = nullptr;  // worker-death tracking; may be null
  net::Transport* transport_ = nullptr;  // null = loopback
  net::TransportKind transport_kind_ = net::TransportKind::kLoopback;
  std::uint64_t store_id_ = 0;
  IoStats publish_io_;
  NetworkModel network_;
  FetchPolicy policy_;
};

}  // namespace rejecto::engine

#include "engine/shard_store.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "engine/cluster.h"
#include "engine/wire.h"
#include "util/failpoint.h"

namespace rejecto::engine {
namespace {

std::string At(int line) {
  return std::string("shard_store.cpp:") + std::to_string(line) + ": ";
}

// Wire counters are cumulative on the transport; per-operation IoStats get
// the snapshot difference.
net::TransportStats Delta(const net::TransportStats& now,
                          const net::TransportStats& then) {
  net::TransportStats d;
  d.frames_sent = now.frames_sent - then.frames_sent;
  d.frames_received = now.frames_received - then.frames_received;
  d.bytes_sent = now.bytes_sent - then.bytes_sent;
  d.bytes_received = now.bytes_received - then.bytes_received;
  d.timeouts = now.timeouts - then.timeouts;
  d.reconnects = now.reconnects - then.reconnects;
  d.corrupt_frames = now.corrupt_frames - then.corrupt_frames;
  d.dropped_frames = now.dropped_frames - then.dropped_frames;
  d.busy_us = now.busy_us - then.busy_us;
  return d;
}

// Real backoff for the real backend; simulated backends only meter it.
// Capped so a test with an aggressive multiplier can't stall for seconds.
void SleepBackoff(double backoff_us) {
  constexpr double kMaxSleepUs = 50'000.0;
  const auto us = static_cast<std::int64_t>(
      backoff_us < kMaxSleepUs ? backoff_us : kMaxSleepUs);
  if (us > 0) std::this_thread::sleep_for(std::chrono::microseconds(us));
}

}  // namespace

void FetchPolicy::Validate(const std::string& who) const {
  if (max_attempts == 0) {
    throw std::invalid_argument(At(__LINE__) + who +
                                ".max_attempts must be >= 1");
  }
  if (backoff_us < 0.0) {
    throw std::invalid_argument(At(__LINE__) + who +
                                ".backoff_us must be non-negative");
  }
  if (backoff_multiplier < 1.0) {
    throw std::invalid_argument(At(__LINE__) + who +
                                ".backoff_multiplier must be >= 1");
  }
  if (attempt_timeout_us < 0.0) {
    throw std::invalid_argument(At(__LINE__) + who +
                                ".attempt_timeout_us must be non-negative");
  }
  if (publish_timeout_us < 0.0) {
    throw std::invalid_argument(At(__LINE__) + who +
                                ".publish_timeout_us must be non-negative");
  }
}

ShardedGraphStore::ShardedGraphStore(const graph::AugmentedGraph& g,
                                     std::uint32_t num_shards,
                                     util::ThreadPool& pool,
                                     const NetworkModel& network,
                                     const FetchPolicy& policy)
    : num_nodes_(g.NumNodes()),
      source_(&g),
      pool_(&pool),
      network_(network),
      policy_(policy) {
  if (num_shards == 0) {
    throw std::invalid_argument(
        At(__LINE__) + "ShardedGraphStore: num_shards must be > 0");
  }
  policy_.Validate("ShardedGraphStore policy");
  shards_.resize(num_shards);
  replica_.assign(num_shards, 0);
  rej_in_degree_.resize(num_nodes_);
  // Shard loading is embarrassingly parallel across shards. Each worker
  // also reports its nodes' rejection in-degrees and its degree maxima.
  std::vector<std::pair<std::size_t, std::size_t>> maxima(num_shards);
  pool_->ParallelFor(num_shards, [&](std::size_t s) {
    BuildShard(static_cast<std::uint32_t>(s));
    for (graph::NodeId v = s; v < num_nodes_; v += num_shards) {
      const NodeAdjacency& a = Local(v);
      rej_in_degree_[v] = static_cast<std::uint32_t>(a.rejectors.size());
      maxima[s].first = std::max(maxima[s].first, a.friends.size());
      maxima[s].second = std::max(maxima[s].second,
                                  a.rejectors.size() + a.rejectees.size());
    }
  });
  for (const auto& [friends, rejections] : maxima) {
    max_friendship_degree_ =
        std::max<std::uint64_t>(max_friendship_degree_, friends);
    max_rejection_degree_ =
        std::max<std::uint64_t>(max_rejection_degree_, rejections);
  }
}

ShardedGraphStore::ShardedGraphStore(const graph::AugmentedGraph& g,
                                     Cluster& cluster,
                                     const NetworkModel& network)
    : ShardedGraphStore(g, static_cast<std::uint32_t>(cluster.Pool().size()),
                        cluster.Pool(), network, cluster.Config().fetch) {
  cluster_ = &cluster;
  // Partitions of already-dead workers start life as failover replicas: the
  // data was just rebuilt from lineage (the constructor above), which is
  // exactly the degraded-mode path — but constructing a store for a dead
  // worker without degraded mode is an operator error.
  for (std::uint32_t s = 0; s < NumShards(); ++s) {
    if (cluster.WorkerDead(s)) {
      if (!policy_.degraded_mode) {
        throw std::runtime_error(
            "ShardedGraphStore: worker " + std::to_string(s) +
            " is dead and degraded mode is off");
      }
      replica_[s] = 1;
      ++failovers_;
    }
  }
  if (cluster.Transport() != nullptr) {
    transport_ = cluster.Transport();
    transport_kind_ = cluster.TransportKind();
    store_id_ = cluster.NextStoreId();
    // Distribute the partitions: every live shard is pushed to its worker
    // as a kBuildShard frame, in shard order on the master thread so the
    // wire schedule is deterministic.
    for (std::uint32_t s = 0; s < NumShards(); ++s) {
      if (replica_[s] == 0) PublishShard(s);
    }
  }
}

ShardedGraphStore::~ShardedGraphStore() = default;

void ShardedGraphStore::BuildShard(std::uint32_t s) const {
  const std::uint32_t num_shards = NumShards();
  Shard& shard = shards_[s];
  shard.nodes.assign((num_nodes_ + num_shards - 1 - s) / num_shards,
                     NodeAdjacency{});
  const graph::AugmentedGraph& g = *source_;
  for (graph::NodeId v = static_cast<graph::NodeId>(s); v < num_nodes_;
       v += num_shards) {
    NodeAdjacency& a = shard.nodes[v / num_shards];
    const auto fr = g.Friendships().Neighbors(v);
    const auto rin = g.Rejections().Rejectors(v);
    const auto rout = g.Rejections().Rejectees(v);
    a.friends.assign(fr.begin(), fr.end());
    a.rejectors.assign(rin.begin(), rin.end());
    a.rejectees.assign(rout.begin(), rout.end());
  }
}

void ShardedGraphStore::FailoverShard(std::uint32_t s, IoStats& stats) const {
  if (!policy_.degraded_mode) {
    throw std::runtime_error(
        "ShardedGraphStore: shard " + std::to_string(s) +
        " unavailable after " + std::to_string(policy_.max_attempts) +
        " attempts and degraded mode is off");
  }
  // Lineage recompute: the replacement worker rebuilds the partition from
  // the source graph, so the replica is bit-identical to what was lost.
  // (Without degraded mode the throw above leaves the partition intact, so
  // a caller that catches it can fetch again once the fault clears.)
  BuildShard(s);
  replica_[s] = 1;
  ++stats.shard_failovers;
}

bool ShardedGraphStore::PublishShard(std::uint32_t s) {
  util::Failpoints& fp = util::Failpoints::Instance();
  const net::TransportStats before = transport_->Stats();
  net::Message req;
  req.type = net::MsgType::kBuildShard;
  {
    wire::BuildShard b;
    b.store_id = store_id_;
    b.shard = s;
    b.num_shards = NumShards();
    b.num_nodes = num_nodes_;
    // The local partition stays put (lineage source + worker-local
    // compute); the worker gets a copy.
    b.rows = shards_[s].nodes;
    wire::EncodeBuildShard(b, req.body);
  }

  bool acked = false;
  double backoff = policy_.backoff_us;
  for (std::uint32_t attempt = 1;; ++attempt) {
    if (fp.ShouldFail("engine/worker_crash")) {
      if (cluster_ != nullptr) cluster_->KillWorker(s);
      break;
    }
    // Straggler-proof: a fresh id per attempt, so an ack limping in after
    // its attempt timed out is discarded by the transport, not us.
    req.request_id = transport_->NextRequestId();
    net::Message resp;
    double elapsed = 0.0;
    const net::CallStatus st = transport_->Call(
        s, req, &resp, policy_.publish_timeout_us, &elapsed);
    if (transport_kind_ == net::TransportKind::kSimNet) {
      publish_io_.simulated_network_us += elapsed;
    }
    if (st == net::CallStatus::kOk &&
        resp.type == net::MsgType::kBuildAck) {
      try {
        const wire::BuildAck ack = wire::DecodeBuildAck(resp.body);
        if (ack.store_id == store_id_ && ack.shard == s &&
            ack.row_count == shards_[s].nodes.size()) {
          acked = true;
          break;
        }
      } catch (const std::exception&) {
        // Undecodable ack body: treat like any failed attempt.
      }
    }
    if (st == net::CallStatus::kPeerDead) {
      if (cluster_ != nullptr) cluster_->KillWorker(s);
      break;
    }
    if (attempt >= policy_.max_attempts) break;
    ++publish_io_.fetch_retries;
    publish_io_.simulated_backoff_us += backoff;
    if (transport_kind_ == net::TransportKind::kSocket) SleepBackoff(backoff);
    backoff *= policy_.backoff_multiplier;
  }
  publish_io_.wire.Accumulate(Delta(transport_->Stats(), before));
  if (acked) {
    publish_io_.bytes_transferred += req.body.size();
    return true;
  }
  // The push never landed: the shard serves master-locally from here on
  // (or the whole construction aborts without degraded mode). Counted in
  // publish_io_.shard_failovers, not Failovers(), so aggregating both never
  // double-counts.
  FailoverShard(s, publish_io_);
  return false;
}

void ShardedGraphStore::ResolveShardFetch(std::uint32_t s,
                                          IoStats& stats) const {
  util::Failpoints& fp = util::Failpoints::Instance();
  double backoff = policy_.backoff_us;
  for (std::uint32_t attempt = 1;; ++attempt) {
    if (fp.ShouldFail("engine/worker_crash")) {
      // The worker died; its in-memory partition is gone. Every store this
      // cluster builds from now on sees the death.
      if (cluster_ != nullptr) cluster_->KillWorker(s);
      FailoverShard(s, stats);
      return;
    }
    if (!fp.ShouldFail("engine/fetch_shard")) return;  // attempt succeeded
    // The master burns the attempt's timeout discovering the failure.
    stats.simulated_network_us += policy_.attempt_timeout_us;
    if (attempt >= policy_.max_attempts) {
      FailoverShard(s, stats);
      return;
    }
    ++stats.fetch_retries;
    stats.simulated_backoff_us += backoff;
    backoff *= policy_.backoff_multiplier;
  }
}

void ShardedGraphStore::ServeLocally(
    std::uint32_t s, std::span<const graph::NodeId> nodes,
    const std::vector<std::size_t>& positions,
    std::span<NodeAdjacency* const> out) const {
  for (std::size_t i : positions) {
    *out[i] = shards_[s].nodes[nodes[i] / NumShards()];
  }
}

void ShardedGraphStore::ResolveWireFetch(
    std::uint32_t s, std::span<const graph::NodeId> nodes,
    const std::vector<std::size_t>& positions,
    std::span<NodeAdjacency* const> out, IoStats& stats) const {
  util::Failpoints& fp = util::Failpoints::Instance();
  wire_ids_.clear();
  wire_rows_.clear();
  for (std::size_t i : positions) {
    wire_ids_.push_back(nodes[i]);
    wire_rows_.push_back(out[i]);
  }
  net::Message& req = wire_request_;
  req.type = net::MsgType::kFetchRequest;
  wire::EncodeFetchRequest(store_id_, wire_ids_, req.body);

  const net::TransportStats before = transport_->Stats();
  bool served = false;
  double backoff = policy_.backoff_us;
  for (std::uint32_t attempt = 1;; ++attempt) {
    // The legacy failpoint sites fire on wire backends too, so the same
    // crash/flaky scenarios drive every backend.
    if (fp.ShouldFail("engine/worker_crash")) {
      if (cluster_ != nullptr) cluster_->KillWorker(s);
      FailoverShard(s, stats);
      break;
    }
    bool injected = false;
    bool failed = false;
    if (fp.ShouldFail("engine/fetch_shard")) {
      injected = true;
      failed = true;
      stats.simulated_network_us += policy_.attempt_timeout_us;
    } else {
      req.request_id = transport_->NextRequestId();
      net::Message resp;
      double elapsed = 0.0;
      const net::CallStatus st = transport_->Call(
          s, req, &resp, policy_.attempt_timeout_us, &elapsed);
      if (transport_kind_ == net::TransportKind::kSimNet) {
        stats.simulated_network_us += elapsed;
      }
      if (st == net::CallStatus::kOk &&
          resp.type == net::MsgType::kFetchResponse) {
        try {
          if (wire::DecodeFetchResponse(resp.body, store_id_, wire_rows_)) {
            std::uint64_t bytes = 0;
            for (const NodeAdjacency* row : wire_rows_) {
              bytes += row->WireBytes();
            }
            ++stats.fetch_requests;
            stats.bytes_transferred += bytes;
            served = true;
            break;
          }
          failed = true;  // stale generation or truncated row set
        } catch (const std::exception&) {
          failed = true;  // body passed CRC but didn't decode: retry
        }
      } else if (st == net::CallStatus::kOk &&
                 resp.type == net::MsgType::kError) {
        bool lost_partition = false;
        try {
          lost_partition = wire::DecodeError(resp.body).first ==
                           wire::ErrorCode::kUnknownStore;
        } catch (const std::exception&) {
        }
        if (lost_partition) {
          // The worker process restarted and lost this store's partition —
          // for this store that's a crash, even though the peer is alive.
          FailoverShard(s, stats);
          break;
        }
        failed = true;
      } else if (st == net::CallStatus::kPeerDead) {
        if (cluster_ != nullptr) cluster_->KillWorker(s);
        FailoverShard(s, stats);
        break;
      } else {
        failed = true;  // kTimeout, kError, or an unexpected response type
      }
    }
    if (!failed) break;
    if (attempt >= policy_.max_attempts) {
      FailoverShard(s, stats);
      break;
    }
    ++stats.fetch_retries;
    stats.simulated_backoff_us += backoff;
    if (!injected && transport_kind_ == net::TransportKind::kSocket) {
      SleepBackoff(backoff);
    }
    backoff *= policy_.backoff_multiplier;
  }
  stats.wire.Accumulate(Delta(transport_->Stats(), before));
  // Anything not answered over the wire is served from the (possibly just
  // rebuilt) local replica — bit-identical data, by lineage determinism.
  if (!served) ServeLocally(s, nodes, positions, out);
}

void ShardedGraphStore::FetchInto(std::span<const graph::NodeId> nodes,
                                  std::span<NodeAdjacency* const> out,
                                  IoStats& stats) const {
  if (out.size() != nodes.size()) {
    throw std::invalid_argument(
        "ShardedGraphStore::FetchInto: one output row per node");
  }
  const std::uint32_t num_shards = NumShards();
  std::vector<std::vector<std::size_t>>& by_shard = by_shard_;
  by_shard.resize(num_shards);
  for (auto& positions : by_shard) positions.clear();
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (nodes[i] >= num_nodes_) {
      throw std::out_of_range("ShardedGraphStore::FetchInto: node id");
    }
    by_shard[ShardOf(nodes[i])].push_back(i);
  }

  if (transport_ != nullptr) {
    // Wire path: one kFetchRequest frame per touched shard, issued on the
    // master thread in increasing shard order — the same deterministic
    // order the loopback path resolves faults in, which is why the pool
    // size cannot perturb the wire schedule.
    for (std::uint32_t s = 0; s < num_shards; ++s) {
      if (by_shard[s].empty()) continue;
      if (replica_[s] != 0) {
        ServeLocally(s, nodes, by_shard[s], out);
      } else {
        ResolveWireFetch(s, nodes, by_shard[s], out, stats);
      }
    }
    stats.nodes_fetched += nodes.size();
    return;
  }

  // Phase 1 (master thread, increasing shard order — deterministic fault
  // injection): settle each touched shard's fate. A shard that returns from
  // here is reachable, possibly via a freshly rebuilt replica.
  for (std::uint32_t s = 0; s < num_shards; ++s) {
    if (!by_shard[s].empty()) ResolveShardFetch(s, stats);
  }

  // Phase 2: the surviving per-shard lookups fly in parallel on the pool.
  std::vector<std::future<std::uint64_t>> futs;
  for (std::uint32_t s = 0; s < num_shards; ++s) {
    if (by_shard[s].empty()) continue;
    futs.push_back(pool_->Submit([this, s, &by_shard, &nodes, &out]() {
      std::uint64_t bytes = 0;
      for (std::size_t i : by_shard[s]) {
        *out[i] = shards_[s].nodes[nodes[i] / NumShards()];
        bytes += out[i]->WireBytes();
      }
      return bytes;
    }));
  }
  std::uint64_t batch_bytes = 0;
  std::uint64_t batch_rpcs = 0;
  for (auto& f : futs) {
    batch_bytes += f.get();
    ++batch_rpcs;
  }
  stats.bytes_transferred += batch_bytes;
  stats.fetch_requests += batch_rpcs;
  stats.nodes_fetched += nodes.size();
  // Shard RPCs of one batch fly in parallel: the batch pays one latency
  // plus the full payload over the shared master link.
  if (batch_rpcs > 0) {
    stats.simulated_network_us +=
        network_.MicrosFor(1, batch_bytes);
  }
}

void ShardedGraphStore::ForEachShard(
    const std::function<void(std::uint32_t)>& fn) const {
  pool_->ParallelFor(NumShards(),
                     [&](std::size_t s) { fn(static_cast<std::uint32_t>(s)); });
}

void ShardedGraphStore::ChargeScan(std::uint64_t broadcast_bytes,
                                   std::uint64_t gather_bytes,
                                   IoStats& stats) const {
  const std::uint64_t bytes = broadcast_bytes * NumShards() + gather_bytes;
  stats.scan_requests += NumShards();
  stats.bytes_transferred += bytes;
  stats.simulated_network_us += network_.MicrosFor(1, bytes);
}

}  // namespace rejecto::engine

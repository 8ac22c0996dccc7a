// Cluster model (paper §V).
//
// Wraps a worker thread pool plus the knobs of the prototype's deployment:
// worker count, prefetch batch size, master-side buffer capacity, and the
// transport the master speaks to its workers:
//
//   loopback  no transport object at all — the "network" is the metered
//             FetchInto path of ShardedGraphStore (the original simulated
//             cluster; default, and byte-identical to what it always did).
//   simnet    a net::SimNetwork carrying RJNET001 frames between the master
//             and in-process ShardWorkers over deterministic faulty links.
//   socket    a net::SocketTransport speaking the same frames to real
//             worker processes (one endpoint per worker).
//
// Config validation happens in the constructor and throws
// std::invalid_argument with a file:line prefix — a bad deployment dies
// loudly at construction, never as a hung fetch loop later.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "engine/shard_store.h"
#include "net/sim_net.h"
#include "net/socket_transport.h"
#include "net/transport.h"
#include "util/thread_pool.h"

namespace rejecto::engine {

class ShardWorker;

struct ClusterConfig {
  std::uint32_t num_workers = 4;
  std::size_t prefetch_batch = 64;      // nodes pulled per cache miss
  std::size_t buffer_capacity = 4096;   // adjacencies cached on the master
  // Retry/backoff/failover knobs for shard fetches (docs/ROBUSTNESS.md);
  // copied into every ShardedGraphStore the cluster builds.
  FetchPolicy fetch;
  // Transport backend; fields below only matter for their backend.
  net::TransportKind transport = net::TransportKind::kLoopback;
  // simnet: num_peers may stay 0 (auto-filled with num_workers); if set it
  // must match num_workers.
  net::SimNetConfig sim;
  // socket: endpoints.size() must equal num_workers, each a worker process
  // already listening (or about to be; the transport retries connects).
  net::SocketConfig socket;
};

class Cluster {
 public:
  explicit Cluster(const ClusterConfig& config);
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  const ClusterConfig& Config() const noexcept { return config_; }
  util::ThreadPool& Pool() noexcept { return pool_; }

  // Null on the loopback backend.
  net::Transport* Transport() noexcept { return transport_.get(); }
  net::TransportKind TransportKind() const noexcept {
    return config_.transport;
  }

  // Store generations on the wire. Monotonic per cluster so a worker can
  // tell a re-pushed partition from a new round's store.
  std::uint64_t NextStoreId() noexcept { return ++store_ids_; }

  // Cumulative wire traffic since construction (null for loopback).
  const net::TransportStats* WireStats() const noexcept;

  // Sends kShutdown to every live worker process (socket backend only;
  // no-op otherwise). The destructor calls this too, so an explicit call is
  // only needed to shut workers down early.
  void ShutdownTransport();

  // Worker-death bookkeeping. A dead worker's partitions are rebuilt as
  // replicas by every store built afterwards (and by a mid-sweep failover
  // in stores already live). Master-thread only, like FetchInto.
  void KillWorker(std::uint32_t worker);
  void ReviveWorker(std::uint32_t worker);
  bool WorkerDead(std::uint32_t worker) const noexcept {
    return worker < dead_.size() && dead_[worker] != 0;
  }
  std::uint32_t NumDeadWorkers() const noexcept;

  // The in-process ShardWorker behind simnet peer `worker` (null on other
  // backends) — test hook for asserting what the wire actually delivered.
  const ShardWorker* SimWorker(std::uint32_t worker) const noexcept;

 private:
  ClusterConfig config_;
  util::ThreadPool pool_;
  std::vector<char> dead_;
  std::unique_ptr<net::Transport> transport_;
  // simnet backend: the per-peer frame handlers' state. Owned here so every
  // store the cluster builds talks to the same workers, like a real
  // deployment.
  std::vector<std::unique_ptr<ShardWorker>> sim_workers_;
  std::uint64_t store_ids_ = 0;
};

}  // namespace rejecto::engine

// Table II: Rejecto's execution time with respect to the input graph size
// on the cluster.
//
// The paper runs the Spark prototype on 5x 60GB EC2 machines over 0.5M-10M
// user graphs (~16 edges/user) and reports near-linear scaling. We
// reproduce the identical data layout in-process (DESIGN.md substitution
// #4) — sharded worker storage, master-resident bucket list, batched
// prefetch with LRU — at laptop scale (50K .. 1.6M users, x2 steps). The
// shape to check is near-linear growth of both runtime and simulated
// network traffic with graph size.
#include <algorithm>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "detect/maar.h"
#include "engine/cluster.h"
#include "engine/dist_detector.h"
#include "engine/dist_maar.h"
#include "engine/shard_store.h"
#include "gen/barabasi_albert.h"
#include "harness.h"
#include "sim/scenario.h"
#include "util/flags.h"
#include "util/table.h"
#include "util/timer.h"

int main() {
  using namespace rejecto;
  const auto ctx = bench::ExperimentContext::FromEnv();

  const std::vector<graph::NodeId> sizes =
      ctx.fast ? std::vector<graph::NodeId>{50'000, 100'000}
               : std::vector<graph::NodeId>{50'000, 100'000, 200'000,
                                            400'000, 800'000};

  util::Table t({"users", "edges", "arcs", "shards", "time_sec",
                 "sim_net_sec", "fetch_requests", "mb_transferred",
                 "prefetch_hit_rate"});
  t.set_precision(3);

  for (graph::NodeId n : sizes) {
    // ~16 edges/user as in Table II; a 5% fake region sends spam.
    util::Rng grng(ctx.seed + n);
    const auto legit =
        gen::BarabasiAlbert({.num_nodes = n, .edges_per_node = 8}, grng);
    sim::ScenarioConfig scfg;
    scfg.seed = ctx.seed + n;
    scfg.num_fakes = n / 20;
    scfg.careless_fraction = 0.05;
    const auto scenario = sim::BuildScenario(legit, scfg);

    // The master's prefetch buffer holds a fixed fraction of the node set,
    // mirroring how the paper provisions the cluster so memory scales with
    // the graph ("provided that the aggregate memory ... suffices").
    engine::ClusterConfig ccfg;
    ccfg.num_workers = 4;
    ccfg.prefetch_batch = 512;
    ccfg.buffer_capacity = std::max<std::size_t>(8192, n / 2);
    engine::Cluster cluster(ccfg);
    const engine::ShardedGraphStore store(scenario.graph, 4, cluster.Pool());

    // A full (reduced-sweep) MAAR solve on the cluster substrate: the k
    // sweep, multi-init KL runs, and Dinkelbach refinement all pull
    // adjacency through the workers — what the paper's Table II times.
    detect::MaarConfig maar;
    maar.k_min = 0.25;
    maar.k_max = 4.0;
    maar.k_scale = 4.0;  // 3 sweep points
    maar.num_random_inits = 0;
    maar.dinkelbach_rounds = 1;
    maar.seed = ctx.seed;

    util::WallTimer timer;
    const auto result = engine::SolveMaarDistributed(scenario.graph, store,
                                                     cluster, {}, maar);
    const double secs = timer.Seconds();

    // The same reduced sweep in-process, serial vs parallel, appended to
    // BENCH_maar.json — the single-machine counterpart of this table's
    // cluster scaling numbers.
    detect::MaarConfig probe = maar;
    probe.num_random_inits = 3;
    const int parallel = detect::EffectiveThreads(util::ThreadCount());
    std::vector<int> threads = {1};
    if (parallel > 1) threads.push_back(parallel);
    bench::RunMaarSpeedupProbe("bench_table2_scaling", scenario.graph, probe,
                               threads);

    // At the sweep's largest size — where the CSRs have long outgrown the
    // caches — measure what the locality layout and the binary snapshots
    // buy: shuffled-vs-BFS-relaid switch throughput (the acceptance bar is
    // layout_bfs >= 1.2x on this graph) and text-vs-snapshot load time.
    if (n == sizes.back()) {
      bench::RunLayoutKernelProbe("bench_table2_scaling", scenario.graph,
                                  ctx.fast);
      bench::RunSnapshotLoadProbe("bench_table2_scaling", scenario.graph,
                                  ctx.fast);
    }

    // Wire probe at the smallest size: the same detection over the simnet
    // transport, with every fetch/update crossing the RJNET001 frame
    // boundary. Per-round transport counters go to BENCH_maar.json so the
    // traffic decay across pruning rounds is machine-readable.
    if (n == sizes.front()) {
      engine::ClusterConfig wcfg;
      wcfg.num_workers = 4;
      wcfg.prefetch_batch = 512;
      wcfg.buffer_capacity = std::max<std::size_t>(8192, n / 2);
      wcfg.transport = net::TransportKind::kSimNet;
      wcfg.sim.seed = ctx.seed + 101;
      engine::Cluster wired(wcfg);
      util::Rng srng(ctx.seed + 9);
      const auto seeds = scenario.SampleSeeds(16, 6, srng);
      detect::IterativeConfig dcfg;
      dcfg.target_detections = scfg.num_fakes;
      dcfg.maar = maar;
      const auto wire = engine::DetectFriendSpammersDistributed(
          scenario.graph, seeds, dcfg, wired);
      std::vector<bench::BenchRecord> rounds;
      for (std::size_t r = 0; r < wire.per_round.size(); ++r) {
        const engine::IoStats& io = wire.per_round[r];
        const std::map<std::string, std::string> labels = {
            {"transport",
             net::TransportKindName(net::TransportKind::kSimNet)},
            {"users", std::to_string(n)},
            {"round", std::to_string(r)}};
        auto add = [&](const char* metric, double value, const char* unit) {
          rounds.push_back(
              {"bench_table2_scaling", metric, value, unit, labels});
        };
        add("frames_sent", static_cast<double>(io.wire.frames_sent), "count");
        add("frames_received", static_cast<double>(io.wire.frames_received),
            "count");
        add("bytes_sent", static_cast<double>(io.wire.bytes_sent), "bytes");
        add("bytes_received", static_cast<double>(io.wire.bytes_received),
            "bytes");
        add("retries", static_cast<double>(io.fetch_retries), "count");
        add("timeouts", static_cast<double>(io.wire.timeouts), "count");
        add("reconnects", static_cast<double>(io.wire.reconnects), "count");
        add("failovers", static_cast<double>(io.shard_failovers), "count");
        add("busy_us", io.wire.busy_us, "us");
      }
      bench::AppendBenchJson(rounds);
      std::cout << "wire probe (simnet, " << n << " users): "
                << wire.per_round.size() << " rounds, "
                << wire.io.wire.frames_sent << " frames, "
                << wire.io.wire.bytes_sent + wire.io.wire.bytes_received
                << " bytes on the wire\n";
    }

    t.AddRow({static_cast<std::int64_t>(n),
              static_cast<std::int64_t>(
                  scenario.graph.Friendships().NumEdges()),
              static_cast<std::int64_t>(scenario.graph.Rejections().NumArcs()),
              std::int64_t{4}, secs,
              result.io.simulated_network_us / 1e6,
              static_cast<std::int64_t>(result.io.fetch_requests),
              static_cast<double>(result.io.bytes_transferred) / 1e6,
              result.io.HitRate()});
    (void)result.cut;
  }
  ctx.Emit("table2",
           "Table II: distributed MAAR solve runtime vs graph size (4"
           " simulated workers)",
           t);
  std::cout << "\nShape check: time and traffic grow near-linearly with"
               " users (the paper's 0.5M->10M scaling claim at laptop"
               " scale).\n";
  return 0;
}

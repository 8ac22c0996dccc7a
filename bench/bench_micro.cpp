// Micro-benchmarks (google-benchmark): data-structure and algorithm
// throughput underlying the headline numbers — bucket-list operations, the
// incremental partition switch, a full extended-KL solve, the parallel MAAR
// sweep, generator throughput, and the engine's fetch path. After the
// registered benchmarks run, main() executes a serial-vs-parallel MAAR
// speedup probe and appends it to BENCH_maar.json (see bench/harness.h).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "detect/bucket_list.h"
#include "detect/extended_kl.h"
#include "detect/maar.h"
#include "detect/partition.h"
#include "engine/cluster.h"
#include "engine/epoch_detector.h"
#include "engine/prefetch.h"
#include "engine/shard_store.h"
#include "gen/barabasi_albert.h"
#include "gen/holme_kim.h"
#include "graph/subgraph.h"
#include "harness.h"
#include "sim/scenario.h"
#include "sim/stream_feed.h"
#include "stream/mutation_log.h"
#include "util/flags.h"
#include "util/rng.h"
#include "util/simd.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace {

using namespace rejecto;

sim::Scenario MakeScenario(graph::NodeId legit_nodes, graph::NodeId fakes) {
  util::Rng rng(7);
  const auto legit = gen::BarabasiAlbert(
      {.num_nodes = legit_nodes, .edges_per_node = 4}, rng);
  sim::ScenarioConfig cfg;
  cfg.seed = 11;
  cfg.num_fakes = fakes;
  return sim::BuildScenario(legit, cfg);
}

void BM_BucketListInsertPop(benchmark::State& state) {
  const auto n = static_cast<graph::NodeId>(state.range(0));
  util::Rng rng(3);
  std::vector<double> gains(n);
  for (auto& g : gains) g = rng.NextDouble(-50.0, 50.0);
  for (auto _ : state) {
    detect::BucketList bl(n, 50.0, 64.0);
    for (graph::NodeId v = 0; v < n; ++v) bl.Insert(v, gains[v]);
    while (!bl.Empty()) benchmark::DoNotOptimize(bl.PopMax());
  }
  state.SetItemsProcessed(state.iterations() * n * 2);
}
BENCHMARK(BM_BucketListInsertPop)->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 17);

void BM_BucketListUpdate(benchmark::State& state) {
  const graph::NodeId n = 1 << 14;
  util::Rng rng(3);
  detect::BucketList bl(n, 50.0, 64.0);
  for (graph::NodeId v = 0; v < n; ++v) bl.Insert(v, rng.NextDouble(-50, 50));
  graph::NodeId v = 0;
  for (auto _ : state) {
    bl.Update(v, rng.NextDouble(-50.0, 50.0));
    v = (v + 1) % n;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BucketListUpdate);

void BM_PartitionSwitch(benchmark::State& state) {
  const auto scenario = MakeScenario(10'000, 1'000);
  std::vector<char> mask(scenario.NumNodes(), 0);
  for (graph::NodeId v = 0; v < scenario.NumNodes(); ++v) {
    mask[v] = scenario.graph.Rejections().InDegree(v) > 0 ? 1 : 0;
  }
  detect::Partition p(scenario.graph, mask);
  util::Rng rng(5);
  for (auto _ : state) {
    p.Switch(static_cast<graph::NodeId>(rng.NextUInt(scenario.NumNodes())));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PartitionSwitch);

void BM_ExtendedKlSolve(benchmark::State& state) {
  const auto scenario = MakeScenario(
      static_cast<graph::NodeId>(state.range(0)),
      static_cast<graph::NodeId>(state.range(0) / 10));
  std::vector<char> init(scenario.NumNodes(), 0);
  for (graph::NodeId v = 0; v < scenario.NumNodes(); ++v) {
    init[v] = scenario.graph.Rejections().InDegree(v) > 0 ? 1 : 0;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(detect::ExtendedKl(
        scenario.graph, init, {}, detect::KlConfig{.k = 0.5}));
  }
  state.SetItemsProcessed(
      state.iterations() *
      static_cast<std::int64_t>(scenario.graph.Friendships().NumEdges()));
}
BENCHMARK(BM_ExtendedKlSolve)->Arg(5'000)->Arg(20'000)->Unit(benchmark::kMillisecond);

void BM_MaarSolve(benchmark::State& state) {
  // The full k-sweep grid (default 11 k values × 4 inits) at the given
  // thread count; Arg(0) resolves to hardware concurrency.
  const auto scenario = MakeScenario(10'000, 1'000);
  detect::MaarConfig cfg;
  cfg.num_random_inits = 3;
  cfg.num_threads = static_cast<int>(state.range(0));
  cfg.seed = 17;
  for (auto _ : state) {
    detect::MaarSolver solver(scenario.graph, {}, cfg);
    benchmark::DoNotOptimize(solver.Solve());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MaarSolve)->Arg(1)->Arg(2)->Arg(4)->Arg(0)->Unit(benchmark::kMillisecond);

void BM_BarabasiAlbert(benchmark::State& state) {
  const auto n = static_cast<graph::NodeId>(state.range(0));
  std::uint64_t seed = 1;
  for (auto _ : state) {
    util::Rng rng(seed++);
    benchmark::DoNotOptimize(
        gen::BarabasiAlbert({.num_nodes = n, .edges_per_node = 4}, rng));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_BarabasiAlbert)->Arg(10'000)->Arg(100'000)->Unit(benchmark::kMillisecond);

void BM_HolmeKim(benchmark::State& state) {
  const auto n = static_cast<graph::NodeId>(state.range(0));
  std::uint64_t seed = 1;
  for (auto _ : state) {
    util::Rng rng(seed++);
    benchmark::DoNotOptimize(gen::HolmeKim(
        {.num_nodes = n, .edges_per_node = 4, .triad_probability = 0.5},
        rng));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_HolmeKim)->Arg(10'000)->Unit(benchmark::kMillisecond);

void BM_ShardFetchInto(benchmark::State& state) {
  const auto scenario = MakeScenario(20'000, 2'000);
  engine::ClusterConfig ccfg;
  ccfg.num_workers = 4;
  engine::Cluster cluster(ccfg);
  const engine::ShardedGraphStore store(scenario.graph, 4, cluster.Pool());
  util::Rng rng(9);
  const auto size = static_cast<std::size_t>(state.range(0));
  std::vector<graph::NodeId> batch(size);
  std::vector<engine::NodeAdjacency> rows(size);
  std::vector<engine::NodeAdjacency*> out;
  for (engine::NodeAdjacency& row : rows) out.push_back(&row);
  engine::IoStats stats;
  for (auto _ : state) {
    for (auto& v : batch) {
      v = static_cast<graph::NodeId>(rng.NextUInt(scenario.NumNodes()));
    }
    store.FetchInto(batch, out, stats);
    benchmark::DoNotOptimize(rows.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ShardFetchInto)->Arg(16)->Arg(256);

void BM_PrefetchBufferGet(benchmark::State& state) {
  const auto scenario = MakeScenario(20'000, 2'000);
  engine::ClusterConfig ccfg;
  ccfg.num_workers = 4;
  engine::Cluster cluster(ccfg);
  const engine::ShardedGraphStore store(scenario.graph, 4, cluster.Pool());
  engine::PrefetchBuffer buf(store, 4096, 64);
  util::Rng rng(9);
  for (auto _ : state) {
    // Zipf-ish locality: 80% of accesses hit a hot 1K-node region.
    const graph::NodeId v =
        rng.NextBool(0.8)
            ? static_cast<graph::NodeId>(rng.NextUInt(1024))
            : static_cast<graph::NodeId>(rng.NextUInt(scenario.NumNodes()));
    benchmark::DoNotOptimize(buf.Get(v));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PrefetchBufferGet);

// ---------------------------------------------------------------------------
// Kernel probes: the fused KL switch, CSR compaction and cut-count kernels,
// appended to BENCH_maar.json as BenchRecord rows. The fused switch and the
// compaction are checked for equivalence by FusedKlTest and SubgraphTest.

void RunKernelProbes(const std::string& bench_name, bool fast) {
  const auto ctx = rejecto::bench::ExperimentContext::FromEnv();
  std::vector<std::string> datasets = {"ca-HepTh"};
  if (!fast) datasets.push_back("synthetic");

  std::vector<rejecto::bench::BenchRecord> records;
  for (const std::string& name : datasets) {
    // Table I-calibrated host graph with the paper's rejection overlay.
    const graph::SocialGraph& legit = rejecto::bench::Dataset(name, ctx);
    sim::ScenarioConfig scfg;
    scfg.seed = 23;
    scfg.num_fakes = fast ? 400 : 2'000;
    const auto scenario = sim::BuildScenario(legit, scfg);
    const auto& g = scenario.graph;
    const auto n = g.NumNodes();
    const std::map<std::string, std::string> labels = {
        {"dataset", name},
        {"users", std::to_string(n)},
        {"edges", std::to_string(g.Friendships().NumEdges())}};

    // KL switch kernel: one recorded random switch sequence driven through
    // Partition::SwitchFused.
    {
      util::Rng rng(31);
      std::vector<char> init(n, 0);
      for (auto& c : init) c = rng.NextBool(0.35) ? 1 : 0;
      std::vector<graph::NodeId> seq(fast ? 40'000 : 200'000);
      for (auto& v : seq) v = static_cast<graph::NodeId>(rng.NextUInt(n));
      std::vector<double> samples(fast ? 5 : 7);
      for (double& seconds : samples) {
        rejecto::bench::RunSwitchSequence(g, init, seq, 1.0, &seconds);
      }
      rejecto::bench::AddKernelRows(records, bench_name, "kl_switch_fused",
                                    labels,
                                    static_cast<std::int64_t>(seq.size()),
                                    samples);
    }

    // Compaction kernel: prune a MAAR-round-sized region through the CSR
    // filter on a pool.
    {
      util::Rng rng(57);
      std::vector<char> keep(n, 1);
      for (auto& c : keep) c = rng.NextBool(0.3) ? 0 : 1;
      const int reps = fast ? 3 : 8;
      util::ThreadPool pool(rejecto::util::HardwareThreads());
      std::vector<double> samples;
      std::int64_t kept = 0;
      for (int i = 0; i < reps; ++i) {
        util::WallTimer t;
        const auto csr = graph::InducedSubgraph(g, keep, &pool);
        samples.push_back(t.Seconds());
        kept = static_cast<std::int64_t>(csr.parent_id.size());
      }
      rejecto::bench::AddKernelRows(records, bench_name, "compact_csr", labels,
                                    kept, samples);
    }

    // Cut-count kernel (AugmentedGraph::ComputeCut): the scalar oracle vs
    // the gather-based AVX2 zero-byte counter, on the same mask. Each rep
    // times an inner batch of full recomputations so a single O(E+R) pass
    // is well above timer resolution. Exact integer counts: any mismatch
    // between the modes aborts the bench.
    {
      const auto prev_mode = util::simd::ActiveMode();
      if (!util::simd::Avx2Supported()) {
        std::cout << bench_name << ": host lacks AVX2; cut_count_avx2 runs "
                  << "the scalar fallback\n";
      }
      util::Rng rng(83);
      std::vector<char> in_u(n, 0);
      for (auto& c : in_u) c = rng.NextBool(0.4) ? 1 : 0;
      const int reps = fast ? 5 : 9;
      const int inner = fast ? 4 : 8;
      std::vector<double> scalar_samples, avx2_samples;
      for (int i = 0; i < reps; ++i) {
        // Alternate modes across reps so machine noise hits both equally.
        util::simd::SetModeForTest(util::simd::SimdMode::kScalar);
        graph::CutQuantities cs{};
        util::WallTimer ts;
        for (int j = 0; j < inner; ++j) cs = g.ComputeCut(in_u);
        scalar_samples.push_back(ts.Seconds());

        util::simd::SetModeForTest(util::simd::SimdMode::kAvx2);
        graph::CutQuantities cv{};
        util::WallTimer tv;
        for (int j = 0; j < inner; ++j) cv = g.ComputeCut(in_u);
        avx2_samples.push_back(tv.Seconds());

        if (cs.cross_friendships != cv.cross_friendships ||
            cs.rejections_into_u != cv.rejections_into_u ||
            cs.rejections_from_u != cv.rejections_from_u) {
          std::cerr << bench_name << ": CUT COUNT KERNEL DIVERGED\n";
          std::abort();
        }
      }
      util::simd::SetModeForTest(prev_mode);
      const auto scanned = static_cast<std::int64_t>(
          inner * (2 * g.Friendships().NumEdges() +
                   2 * g.Rejections().NumArcs()));
      rejecto::bench::AddKernelRows(records, bench_name, "cut_count_scalar",
                                    labels, scanned, scalar_samples);
      rejecto::bench::AddKernelRows(records, bench_name, "cut_count_avx2",
                                    labels, scanned, avx2_samples);
    }
  }
  rejecto::bench::AppendBenchJson(records);
}

// Serving-path scoring probe: engine::EpochDetector::ScoreSenderIncremental
// over every sender with the overlay mostly clean — the admission service's
// steady state, where an epoch just compacted and only a trickle of
// post-epoch events touched any node, so most senders take the O(1)
// epoch-tag check straight down the base CSR.
void RunIncrementalScoreProbe(const std::string& bench_name, bool fast) {
  const auto scenario = MakeScenario(fast ? 4'000 : 20'000, fast ? 400 : 2'000);
  const stream::MutationLog log = sim::ToMutationLog(scenario.log);

  engine::EpochConfig ecfg;
  ecfg.events_per_epoch = 0;  // one explicit epoch below
  ecfg.detect.target_detections = fast ? 400 : 2'000;
  ecfg.detect.maar.seed = 23;
  ecfg.detect.maar.num_threads = 1;
  util::Rng seed_rng(13);
  engine::EpochDetector det(log.NumNodes(),
                            scenario.SampleSeeds(40, 12, seed_rng), ecfg);
  det.IngestAll(log.Events());
  det.RunEpoch();
  if (!det.HasIncrementalBaseline()) {
    std::cerr << bench_name << ": incremental probe: no baseline epoch\n";
    std::abort();
  }

  // Post-epoch trickle: ~1% of nodes touched by fresh friendships, the
  // rest stay on the fast path.
  const graph::NodeId n = det.Graph().NumNodes();
  util::Rng rng(57);
  for (graph::NodeId i = 0; i < n / 200; ++i) {
    const auto a = static_cast<graph::NodeId>(rng.NextUInt(n));
    const auto b = static_cast<graph::NodeId>(rng.NextUInt(n));
    if (a != b) det.Ingest({stream::EventType::kAddFriend, a, b});
  }

  const int reps = fast ? 5 : 9;
  std::vector<double> samples;
  double checksum = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    double sum = 0.0;
    util::WallTimer t;
    for (graph::NodeId s = 0; s < n; ++s) {
      sum += det.ScoreSenderIncremental(s).gain;
    }
    samples.push_back(t.Seconds());
    checksum = sum;
  }
  benchmark::DoNotOptimize(checksum);

  std::vector<rejecto::bench::BenchRecord> records;
  rejecto::bench::AddKernelRows(
      records, bench_name, "incr_score_fast",
      {{"users", std::to_string(n)},
       {"edges",
        std::to_string(det.Graph().Graph().Friendships().NumEdges())}},
      static_cast<std::int64_t>(n), samples);
  rejecto::bench::AppendBenchJson(records);
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  // Serial-vs-parallel MAAR sweep: the acceptance grid (default k sweep,
  // num_random_inits = 3) at 1/2/4/hardware threads, appended to
  // BENCH_maar.json with bit-identical-cut verification.
  const bool fast = rejecto::util::FastBenchMode();
  const auto scenario =
      MakeScenario(fast ? 4'000 : 20'000, fast ? 400 : 2'000);
  rejecto::detect::MaarConfig cfg;
  cfg.num_random_inits = 3;
  cfg.seed = 21;
  std::vector<int> threads = {
      1, 2, 4, static_cast<int>(rejecto::util::HardwareThreads())};
  std::sort(threads.begin(), threads.end());
  threads.erase(std::unique(threads.begin(), threads.end()), threads.end());
  rejecto::bench::RunMaarSpeedupProbe("bench_micro", scenario.graph, cfg,
                                      threads);

  // Kernel probes: fused KL switch throughput, CSR compaction time and the
  // scalar-vs-AVX2 cut count, appended to the same BENCH_maar.json array.
  RunKernelProbes("bench_micro", fast);

  // Serving-path scoring: EpochDetector::ScoreSenderIncremental over every
  // sender after a post-epoch trickle.
  RunIncrementalScoreProbe("bench_micro", fast);

  // Memory-layout and cold-start probes (graph/layout.h, graph/snapshot.h):
  // shuffled-vs-BFS-relaid switch throughput, plus text-vs-snapshot load
  // time on the same scenario graph.
  rejecto::bench::RunLayoutKernelProbe("bench_micro", scenario.graph, fast);
  rejecto::bench::RunSnapshotLoadProbe("bench_micro", scenario.graph, fast);

  // Out-of-core probes (graph/compressed_view.h): RJSNAP02 load +
  // detection bit-identity vs RAM, then (full mode only) the 100M-edge
  // streamed scan with its hard RSS-budget assertion.
  rejecto::bench::RunCompressedSnapshotProbe("bench_micro", scenario.graph,
                                             fast);
  if (!fast) rejecto::bench::RunCompressedCeilingProbe("bench_micro");
  return 0;
}

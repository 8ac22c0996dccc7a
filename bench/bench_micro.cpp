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
#include <span>
#include <stdexcept>
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
#include "graph/builder.h"
#include "graph/subgraph.h"
#include "harness.h"
#include "sim/scenario.h"
#include "sim/stream_feed.h"
#include "stream/delta_graph.h"
#include "stream/mutation_log.h"
#include "util/buffer.h"
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
// Kernel probes: fused-vs-unfused KL switch and CSR-vs-builder compaction,
// appended to BENCH_maar.json as KernelBenchRecords.

// The pre-fusion inner kernel, kept here — and only here — as the baseline
// toggle. OldPartition resurrects the seed's Partition byte for byte,
// including the cost model the fused rewrite removed: every graph accessor
// paid an out-of-line CheckNode call (now a compiled-out REJECTO_DCHECK),
// which the old refresh loop hit once per touched neighbor via
// DeltaFriends → Degree.
[[gnu::noinline]] void OldCheckNode(graph::NodeId u, graph::NodeId n) {
  if (u >= n) throw std::out_of_range("node id out of range");
}

class OldPartition {
 public:
  OldPartition(const graph::AugmentedGraph& g, const std::vector<char>& in_u)
      : g_(&g), in_u_(in_u) {
    const graph::NodeId n = g.NumNodes();
    cross_friends_.assign(n, 0);
    in_from_w_.assign(n, 0);
    out_to_u_.assign(n, 0);
    for (graph::NodeId v = 0; v < n; ++v) {
      if (in_u_[v]) ++size_u_;
      for (graph::NodeId w : Neighbors(v)) {
        if (in_u_[v] != in_u_[w]) ++cross_friends_[v];
      }
      for (graph::NodeId x : Rejectors(v)) {
        if (!in_u_[x]) ++in_from_w_[v];
      }
      for (graph::NodeId y : Rejectees(v)) {
        if (in_u_[y]) ++out_to_u_[v];
      }
    }
    for (graph::NodeId v = 0; v < n; ++v) {
      if (in_u_[v]) {
        cross_friendships_ += cross_friends_[v];
        rejections_into_u_ += in_from_w_[v];
      }
    }
  }

  // Checked accessors, matching the seed's inline accessor + out-of-line
  // CheckNode split.
  std::uint32_t Degree(graph::NodeId u) const {
    OldCheckNode(u, g_->NumNodes());
    return g_->Friendships().Degree(u);
  }
  std::span<const graph::NodeId> Neighbors(graph::NodeId u) const {
    OldCheckNode(u, g_->NumNodes());
    return g_->Friendships().Neighbors(u);
  }
  std::span<const graph::NodeId> Rejectors(graph::NodeId u) const {
    OldCheckNode(u, g_->NumNodes());
    return g_->Rejections().Rejectors(u);
  }
  std::span<const graph::NodeId> Rejectees(graph::NodeId u) const {
    OldCheckNode(u, g_->NumNodes());
    return g_->Rejections().Rejectees(u);
  }

  void Switch(graph::NodeId v) {
    if (v >= g_->NumNodes()) {
      throw std::out_of_range("OldPartition::Switch: node id");
    }
    cross_friendships_ = static_cast<std::uint64_t>(
        static_cast<std::int64_t>(cross_friendships_) + DeltaFriends(v));
    rejections_into_u_ = static_cast<std::uint64_t>(
        static_cast<std::int64_t>(rejections_into_u_) + DeltaRejections(v));
    const bool was_in_u = in_u_[v] != 0;
    in_u_[v] = was_in_u ? 0 : 1;
    size_u_ += was_in_u ? -1 : 1;
    cross_friends_[v] = Degree(v) - cross_friends_[v];
    for (graph::NodeId w : Neighbors(v)) {
      if (in_u_[v] != in_u_[w]) {
        ++cross_friends_[w];
      } else {
        --cross_friends_[w];
      }
    }
    const std::int32_t into_u = was_in_u ? -1 : 1;
    for (graph::NodeId x : Rejectors(v)) {
      out_to_u_[x] = static_cast<std::uint32_t>(
          static_cast<std::int32_t>(out_to_u_[x]) + into_u);
    }
    for (graph::NodeId y : Rejectees(v)) {
      in_from_w_[y] = static_cast<std::uint32_t>(
          static_cast<std::int32_t>(in_from_w_[y]) - into_u);
    }
  }

  double DeltaObjective(graph::NodeId v, double k) const {
    return static_cast<double>(DeltaFriends(v)) -
           k * static_cast<double>(DeltaRejections(v));
  }
  std::int64_t DeltaFriends(graph::NodeId v) const {
    return static_cast<std::int64_t>(Degree(v)) -
           2 * static_cast<std::int64_t>(cross_friends_[v]);
  }
  std::int64_t DeltaRejections(graph::NodeId v) const {
    const std::int64_t d = static_cast<std::int64_t>(out_to_u_[v]) -
                           static_cast<std::int64_t>(in_from_w_[v]);
    return in_u_[v] ? d : -d;
  }
  double Objective(double k) const noexcept {
    return static_cast<double>(cross_friendships_) -
           k * static_cast<double>(rejections_into_u_);
  }
  graph::CutQuantities Quantities() const {
    graph::CutQuantities q;
    q.cross_friendships = cross_friendships_;
    q.rejections_into_u = rejections_into_u_;
    std::uint64_t from_u = 0;
    for (graph::NodeId v = 0; v < g_->NumNodes(); ++v) {
      if (!in_u_[v]) from_u += g_->Rejections().InDegree(v) - in_from_w_[v];
    }
    q.rejections_from_u = from_u;
    return q;
  }
  const std::vector<char>& Mask() const noexcept { return in_u_; }

 private:
  const graph::AugmentedGraph* g_;
  std::vector<char> in_u_;
  graph::NodeId size_u_ = 0;
  std::vector<std::uint32_t> cross_friends_;
  std::vector<std::uint32_t> in_from_w_;
  std::vector<std::uint32_t> out_to_u_;
  std::uint64_t cross_friendships_ = 0;
  std::uint64_t rejections_into_u_ = 0;
};

// The seed's gain bucket list, verbatim: three parallel per-node arrays
// (next/prev/bucket-of) instead of the packed NodeLink records, with the
// hot operations out of line as they were when they lived in their own
// translation unit.
class OldBucketList {
 public:
  OldBucketList(graph::NodeId num_nodes, double max_abs_gain,
                double resolution)
      : resolution_(resolution) {
    max_bucket_ = static_cast<std::int32_t>(std::llround(
                      std::ceil(max_abs_gain * resolution))) + 1;
    heads_.assign(static_cast<std::size_t>(2 * max_bucket_) + 1, kNil);
    next_.assign(num_nodes, kNil);
    prev_.assign(num_nodes, kNil);
    bucket_of_.assign(num_nodes, kAbsent);
    cur_max_ = -max_bucket_;
  }

  bool Empty() const noexcept { return size_ == 0; }
  bool Contains(graph::NodeId v) const { return bucket_of_[v] != kAbsent; }

  [[gnu::noinline]] void Insert(graph::NodeId v, double gain) {
    if (bucket_of_[v] != kAbsent) {
      throw std::invalid_argument("OldBucketList::Insert: already present");
    }
    const std::int32_t b = QuantizeClamped(gain);
    bucket_of_[v] = b;
    const std::size_t h = static_cast<std::size_t>(b + max_bucket_);
    next_[v] = heads_[h];
    prev_[v] = kNil;
    if (heads_[h] != kNil) {
      prev_[static_cast<std::size_t>(heads_[h])] = static_cast<std::int32_t>(v);
    }
    heads_[h] = static_cast<std::int32_t>(v);
    if (b > cur_max_) cur_max_ = b;
    ++size_;
  }

  [[gnu::noinline]] void Update(graph::NodeId v, double new_gain) {
    if (bucket_of_[v] == kAbsent) {
      throw std::invalid_argument("OldBucketList::Update: not present");
    }
    const std::int32_t b = QuantizeClamped(new_gain);
    if (b == bucket_of_[v]) return;
    Unlink(v);
    Insert(v, new_gain);
  }

  [[gnu::noinline]] graph::NodeId PopMax() {
    if (size_ == 0) return graph::kInvalidNode;
    while (heads_[static_cast<std::size_t>(cur_max_ + max_bucket_)] == kNil) {
      --cur_max_;
    }
    const auto v = static_cast<graph::NodeId>(
        heads_[static_cast<std::size_t>(cur_max_ + max_bucket_)]);
    Unlink(v);
    return v;
  }

 private:
  static constexpr std::int32_t kAbsent = INT32_MIN;
  static constexpr std::int32_t kNil = -1;

  std::int32_t QuantizeClamped(double gain) const noexcept {
    const double scaled = gain * resolution_;
    if (scaled >= static_cast<double>(max_bucket_)) return max_bucket_;
    if (scaled <= static_cast<double>(-max_bucket_)) return -max_bucket_;
    return static_cast<std::int32_t>(std::llround(scaled));
  }

  void Unlink(graph::NodeId v) {
    const std::size_t h =
        static_cast<std::size_t>(bucket_of_[v] + max_bucket_);
    if (prev_[v] != kNil) {
      next_[static_cast<std::size_t>(prev_[v])] = next_[v];
    } else {
      heads_[h] = next_[v];
    }
    if (next_[v] != kNil) prev_[static_cast<std::size_t>(next_[v])] = prev_[v];
    bucket_of_[v] = kAbsent;
    --size_;
  }

  double resolution_ = 1.0;
  std::int32_t max_bucket_ = 0;
  std::vector<std::int32_t> heads_;
  std::vector<std::int32_t> next_;
  std::vector<std::int32_t> prev_;
  std::vector<std::int32_t> bucket_of_;
  std::int32_t cur_max_ = 0;
  graph::NodeId size_ = 0;
};

// The seed's ExtendedKl inner loop, verbatim: a fresh OldPartition per call,
// a fresh OldBucketList per pass (allocating and zero-filling the bucket
// arrays every time), and the two-traversal Switch + Contains/Update
// refresh per popped node.
detect::KlResult OldExtendedKl(const graph::AugmentedGraph& g,
                               const std::vector<char>& init_in_u,
                               const detect::KlConfig& config) {
  const graph::NodeId n = g.NumNodes();
  OldPartition p(g, init_in_u);
  const double k = config.k;
  const double gain_bound =
      std::max(1.0, static_cast<double>(g.MaxFriendshipDegree()) +
                        k * static_cast<double>(g.MaxRejectionDegree()));
  detect::KlStats stats;
  std::vector<graph::NodeId> seq;
  seq.reserve(n);
  for (int pass = 0; pass < config.max_passes; ++pass) {
    ++stats.passes;
    OldBucketList bl(n, gain_bound, config.gain_resolution);
    for (graph::NodeId v = 0; v < n; ++v) {
      bl.Insert(v, -p.DeltaObjective(v, k));
    }
    seq.clear();
    double cum = 0.0;
    double best_cum = 0.0;
    std::size_t best_prefix = 0;
    auto refresh = [&](graph::NodeId w) {
      if (bl.Contains(w)) bl.Update(w, -p.DeltaObjective(w, k));
    };
    while (!bl.Empty()) {
      const graph::NodeId v = bl.PopMax();
      const double gain = -p.DeltaObjective(v, k);
      p.Switch(v);
      seq.push_back(v);
      cum += gain;
      if (cum > best_cum + 1e-7) {
        best_cum = cum;
        best_prefix = seq.size();
      }
      for (graph::NodeId w : p.Neighbors(v)) refresh(w);
      for (graph::NodeId w : p.Rejectors(v)) refresh(w);
      for (graph::NodeId w : p.Rejectees(v)) refresh(w);
    }
    for (std::size_t i = seq.size(); i > best_prefix; --i) {
      p.Switch(seq[i - 1]);
    }
    stats.switches_applied += best_prefix;
    if (best_prefix == 0) break;
  }
  detect::KlResult result;
  result.cut = p.Quantities();
  stats.final_objective = p.Objective(k);
  result.stats = stats;
  result.in_u = p.Mask();
  return result;
}

// GraphBuilder-based compaction — the implementation the CSR filter
// replaced, retained as the probe's baseline.
graph::CompactedGraph BuilderCompact(const graph::AugmentedGraph& g,
                                     const std::vector<char>& keep) {
  std::vector<graph::NodeId> new_id(g.NumNodes(), graph::kInvalidNode);
  graph::CompactedGraph out;
  for (graph::NodeId u = 0; u < g.NumNodes(); ++u) {
    if (keep[u]) {
      new_id[u] = static_cast<graph::NodeId>(out.parent_id.size());
      out.parent_id.push_back(u);
    }
  }
  graph::GraphBuilder builder(static_cast<graph::NodeId>(out.parent_id.size()));
  const auto& fr = g.Friendships();
  for (graph::NodeId u = 0; u < g.NumNodes(); ++u) {
    if (!keep[u]) continue;
    for (graph::NodeId v : fr.Neighbors(u)) {
      if (u < v && keep[v]) builder.AddFriendship(new_id[u], new_id[v]);
    }
  }
  const auto& rej = g.Rejections();
  for (graph::NodeId u = 0; u < g.NumNodes(); ++u) {
    if (!keep[u]) continue;
    for (graph::NodeId v : rej.Rejectees(u)) {
      if (keep[v]) builder.AddRejection(new_id[u], new_id[v]);
    }
  }
  out.graph = builder.BuildAugmented();
  return out;
}

void RunKernelProbes(const std::string& bench_name, bool fast) {
  const auto ctx = rejecto::bench::ExperimentContext::FromEnv();
  std::vector<std::string> datasets = {"ca-HepTh"};
  if (!fast) datasets.push_back("synthetic");

  std::vector<rejecto::bench::KernelBenchRecord> records;
  for (const std::string& name : datasets) {
    // Table I-calibrated host graph with the paper's rejection overlay.
    const graph::SocialGraph& legit = rejecto::bench::Dataset(name, ctx);
    sim::ScenarioConfig scfg;
    scfg.seed = 23;
    scfg.num_fakes = fast ? 400 : 2'000;
    const auto scenario = sim::BuildScenario(legit, scfg);
    const auto& g = scenario.graph;
    const auto n = g.NumNodes();

    // Min-of-reps is the headline, the median rides along so one lucky rep
    // on a noisy box is visible in the record itself.
    auto median_of = [](std::vector<double> samples) {
      std::sort(samples.begin(), samples.end());
      const std::size_t mid = samples.size() / 2;
      if (samples.size() % 2 == 1) return samples[mid];
      return 0.5 * (samples[mid - 1] + samples[mid]);
    };
    auto min_of = [](const std::vector<double>& samples) {
      return *std::min_element(samples.begin(), samples.end());
    };
    auto record = [&](const char* kernel, std::int64_t items, double seconds,
                      double seconds_median, double baseline_seconds) {
      rejecto::bench::KernelBenchRecord r;
      r.bench = bench_name;
      r.kernel = kernel;
      r.users = static_cast<std::int64_t>(n);
      r.edges = static_cast<std::int64_t>(g.Friendships().NumEdges());
      r.items = items;
      r.seconds = seconds;
      r.seconds_median = seconds_median;
      r.throughput = static_cast<double>(items) / std::max(seconds, 1e-9);
      r.speedup = baseline_seconds / std::max(seconds, 1e-9);
      std::cout << bench_name << " kernel=" << kernel << " dataset=" << name
                << " items=" << r.items << " seconds=" << r.seconds
                << " median=" << r.seconds_median
                << " throughput=" << r.throughput
                << " speedup=" << r.speedup << "\n";
      records.push_back(std::move(r));
    };

    // KL switch kernel: one recorded random switch sequence driven through
    // the seed's two-traversal Switch + Contains/Update refresh (on the
    // seed's data layouts) and through the fused single-traversal
    // SwitchFused, with a bitwise-equal objective checksum as the
    // divergence guard. A full-solve cross-check (OldExtendedKl vs the
    // scratch-reusing ExtendedKl) guards the ends of both loops too.
    {
      util::Rng rng(31);
      std::vector<char> init(n, 0);
      for (auto& c : init) c = rng.NextBool(0.35) ? 1 : 0;
      const detect::KlConfig kcfg{.k = 1.0};
      const double k = kcfg.k;
      const double gain_bound =
          std::max(1.0, static_cast<double>(g.MaxFriendshipDegree()) +
                            k * static_cast<double>(g.MaxRejectionDegree()));

      detect::KlScratch scratch;
      const auto fused_ref = detect::ExtendedKl(g, init, {}, kcfg, &scratch);
      const auto old_ref = OldExtendedKl(g, init, kcfg);
      if (old_ref.in_u != fused_ref.in_u ||
          old_ref.stats.passes != fused_ref.stats.passes ||
          old_ref.stats.final_objective != fused_ref.stats.final_objective) {
        std::cerr << bench_name << ": FUSED KL KERNEL DIVERGED\n";
        std::abort();
      }

      std::vector<graph::NodeId> seq(fast ? 40'000 : 200'000);
      for (auto& v : seq) v = static_cast<graph::NodeId>(rng.NextUInt(n));

      // Alternate the two kernels across reps so frequency drift and other
      // machine noise hit both sides equally, and keep the best rep of each:
      // both kernels are deterministic, so any rep-to-rep spread is
      // interference, and min-of-reps converges on the true cost.
      const int reps = fast ? 5 : 7;
      std::vector<double> old_samples, fused_samples;
      for (int i = 0; i < reps; ++i) {
        double old_sum = 0.0;
        {
          OldPartition p(g, init);
          OldBucketList bl(n, gain_bound, kcfg.gain_resolution);
          for (graph::NodeId v = 0; v < n; ++v) {
            bl.Insert(v, -p.DeltaObjective(v, k));
          }
          util::WallTimer t;
          for (graph::NodeId v : seq) {
            p.Switch(v);
            for (graph::NodeId w : p.Neighbors(v)) {
              if (bl.Contains(w)) bl.Update(w, -p.DeltaObjective(w, k));
            }
            for (graph::NodeId w : p.Rejectors(v)) {
              if (bl.Contains(w)) bl.Update(w, -p.DeltaObjective(w, k));
            }
            for (graph::NodeId w : p.Rejectees(v)) {
              if (bl.Contains(w)) bl.Update(w, -p.DeltaObjective(w, k));
            }
          }
          old_samples.push_back(t.Seconds());
          old_sum = p.Objective(k);
        }

        double fused_sum = 0.0;
        {
          detect::Partition p(g, init);
          detect::BucketList bl(n, gain_bound, kcfg.gain_resolution);
          for (graph::NodeId v = 0; v < n; ++v) {
            bl.Insert(v, -p.DeltaObjective(v, k));
          }
          util::AlignedVector<graph::NodeId> touched;
          touched.reserve(static_cast<std::size_t>(g.MaxFriendshipDegree() +
                                                   g.MaxRejectionDegree()));
          util::WallTimer t;
          for (graph::NodeId v : seq) {
            p.SwitchFused(v, k, bl, touched);
          }
          fused_samples.push_back(t.Seconds());
          fused_sum = p.Objective(k);
        }

        if (old_sum != fused_sum) {
          std::cerr << bench_name << ": FUSED SWITCH KERNEL DIVERGED ("
                    << old_sum << " vs " << fused_sum << ")\n";
          std::abort();
        }
      }
      const auto switches = static_cast<std::int64_t>(seq.size());
      const double old_s = min_of(old_samples);
      record("kl_switch_old", switches, old_s, median_of(old_samples), old_s);
      record("kl_switch_fused", switches, min_of(fused_samples),
             median_of(fused_samples), old_s);
    }

    // Compaction kernel: prune a MAAR-round-sized region, GraphBuilder path
    // vs the sort-free CSR filter on a pool. Min-of-reps like every other
    // probe (both kernels are deterministic; the spread is interference).
    {
      util::Rng rng(57);
      std::vector<char> keep(n, 1);
      for (auto& c : keep) c = rng.NextBool(0.3) ? 0 : 1;
      const int reps = fast ? 3 : 8;
      util::ThreadPool pool(rejecto::util::HardwareThreads());

      std::vector<double> builder_samples, csr_samples;
      std::int64_t kept = 0;
      for (int i = 0; i < reps; ++i) {
        util::WallTimer tb;
        const auto ref = BuilderCompact(g, keep);
        builder_samples.push_back(tb.Seconds());
        util::WallTimer tc;
        const auto csr = graph::InducedSubgraph(g, keep, &pool);
        csr_samples.push_back(tc.Seconds());
        kept = static_cast<std::int64_t>(csr.parent_id.size());
        if (ref.graph.Friendships().NumEdges() !=
                csr.graph.Friendships().NumEdges() ||
            ref.graph.Rejections().NumArcs() !=
                csr.graph.Rejections().NumArcs() ||
            ref.parent_id != csr.parent_id) {
          std::cerr << bench_name << ": CSR COMPACTION DIVERGED\n";
          std::abort();
        }
      }
      const double builder_s = min_of(builder_samples);
      record("compact_builder", kept, builder_s, median_of(builder_samples),
             builder_s);
      record("compact_csr", kept, min_of(csr_samples),
             median_of(csr_samples), builder_s);
    }

    // Cut-count kernel (AugmentedGraph::ComputeCut): the scalar oracle vs
    // the gather-based AVX2 zero-byte counter, on the same mask. Each rep
    // times an inner batch of full recomputations so a single O(E+R) pass
    // is well above timer resolution. Exact integer counts: any mismatch
    // between the modes aborts the bench.
    {
      const auto prev_mode = util::simd::ActiveMode();
      if (!util::simd::Avx2Supported()) {
        std::cout << bench_name << ": host lacks AVX2; cut_count_avx2 and "
                  << "merge_avx2 run the scalar fallback (speedup ~1)\n";
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
      const double cut_scalar_s = min_of(scalar_samples);
      record("cut_count_scalar", scanned, cut_scalar_s,
             median_of(scalar_samples), cut_scalar_s);
      record("cut_count_avx2", scanned, min_of(avx2_samples),
             median_of(avx2_samples), cut_scalar_s);
    }

    // Delta-merge kernel (stream::DeltaGraph::Compact's per-row merge):
    // the seed's element-wise two-pointer walk — which every row paid
    // before the fast paths landed, retained here as the baseline like
    // kl_switch_old — vs the shipped MergeRow dispatch, where overlay-free
    // rows (the overwhelming majority at any realistic compaction
    // threshold; ~2% of rows get a synthetic overlay here) bulk-copy
    // through the SIMD tier. Both legs must produce identical bytes.
    {
      const auto prev_mode = util::simd::ActiveMode();
      util::Rng rng(71);
      const auto& fr = g.Friendships();
      std::vector<std::vector<graph::NodeId>> added(n), removed(n);
      std::size_t out_bound = 0;
      for (graph::NodeId u = 0; u < n; ++u) {
        const auto row = fr.Neighbors(u);
        if (!row.empty() && rng.NextBool(0.02)) {
          // removed ⊆ base (every third element); added disjoint from base.
          for (std::size_t j = 0; j < row.size(); j += 3) {
            removed[u].push_back(row[j]);
          }
          for (int t = 0; t < 4; ++t) {
            const auto v = static_cast<graph::NodeId>(rng.NextUInt(n));
            if (!std::binary_search(row.begin(), row.end(), v)) {
              added[u].push_back(v);
            }
          }
          std::sort(added[u].begin(), added[u].end());
          added[u].erase(std::unique(added[u].begin(), added[u].end()),
                         added[u].end());
        }
        out_bound += row.size() + added[u].size();
      }
      util::AlignedVector<graph::NodeId> out_old(out_bound);
      util::AlignedVector<graph::NodeId> out_new(out_bound);

      // The retired path: every row walks element by element.
      auto merge_walk = [](std::span<const graph::NodeId> base_row,
                           const std::vector<graph::NodeId>& rem,
                           const std::vector<graph::NodeId>& add,
                           graph::NodeId* out) {
        std::size_t r = 0;
        std::size_t a = 0;
        for (graph::NodeId v : base_row) {
          if (r < rem.size() && rem[r] == v) {
            ++r;
            continue;
          }
          while (a < add.size() && add[a] < v) *out++ = add[a++];
          *out++ = v;
        }
        while (a < add.size()) *out++ = add[a++];
        return out;
      };
      // The shipped dispatch (mirrors stream/delta_graph.cpp MergeRow).
      auto merge_fast = [&](std::span<const graph::NodeId> base_row,
                            const std::vector<graph::NodeId>& rem,
                            const std::vector<graph::NodeId>& add,
                            graph::NodeId* out) {
        if (rem.empty()) {
          if (add.empty()) {
            util::simd::CopyU32(base_row.data(), base_row.size(), out);
            return out + base_row.size();
          }
          if (base_row.empty()) {
            util::simd::CopyU32(add.data(), add.size(), out);
            return out + add.size();
          }
        }
        return merge_walk(base_row, rem, add, out);
      };

      const int reps = fast ? 7 : 11;
      std::vector<double> merge_old_samples, merge_new_samples;
      std::int64_t merged = 0;
      for (int i = 0; i < reps; ++i) {
        util::simd::SetModeForTest(util::simd::SimdMode::kScalar);
        util::WallTimer t_old;
        graph::NodeId* o = out_old.data();
        for (graph::NodeId u = 0; u < n; ++u) {
          o = merge_walk(fr.Neighbors(u), removed[u], added[u], o);
        }
        merge_old_samples.push_back(t_old.Seconds());

        util::simd::SetModeForTest(util::simd::SimdMode::kAvx2);
        util::WallTimer t_new;
        graph::NodeId* p = out_new.data();
        for (graph::NodeId u = 0; u < n; ++u) {
          p = merge_fast(fr.Neighbors(u), removed[u], added[u], p);
        }
        merge_new_samples.push_back(t_new.Seconds());

        merged = o - out_old.data();
        if (o - out_old.data() != p - out_new.data() ||
            !std::equal(out_old.data(), o, out_new.data())) {
          std::cerr << bench_name << ": DELTA MERGE KERNEL DIVERGED\n";
          std::abort();
        }
      }
      util::simd::SetModeForTest(prev_mode);
      const double merge_old_s = min_of(merge_old_samples);
      record("merge_scalar", merged, merge_old_s,
             median_of(merge_old_samples), merge_old_s);
      record("merge_avx2", merged, min_of(merge_new_samples),
             median_of(merge_new_samples), merge_old_s);
    }
  }
  rejecto::bench::AppendKernelBenchJson(records);
}

// Serving-path scoring probe: engine::EpochDetector::ScoreSenderIncremental
// with the overlay mostly clean — the admission service's steady state,
// where an epoch just compacted and only a trickle of post-epoch events
// touched any node. "incr_score_overlay_old" replicates the pre-fast-path
// kernel (every sender pays the three overlay merge walks even when its
// rows are pure base CSR); "incr_score_fast" is the shipped kernel, whose
// O(1) epoch-tag check sends untouched senders straight down the base CSR.
// Divergence guard: both kernels must produce bit-identical gains for every
// sender.
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

  // The retired kernel: unconditional overlay resolution, byte-for-byte
  // the pre-fast-path walk (same side() arithmetic on the same rows).
  const stream::DeltaGraph& delta = det.Graph();
  const std::vector<char>& mask = det.IncrementalMask();
  const double k = det.IncrementalK();
  const auto side = [&](graph::NodeId v) -> bool {
    return v < mask.size() && mask[v] != 0;
  };
  const auto score_old = [&](graph::NodeId s) -> detect::IncrementalScore {
    if (side(s)) return {0.0, true};
    std::int64_t delta_friend = 0;
    std::int64_t delta_rej = 0;
    delta.ForEachFriend(s, [&](graph::NodeId f) {
      delta_friend += side(f) ? -1 : +1;
    });
    delta.ForEachRejector(s, [&](graph::NodeId r) {
      if (!side(r)) ++delta_rej;
    });
    delta.ForEachRejectee(s, [&](graph::NodeId t) {
      if (side(t)) --delta_rej;
    });
    const double gain = static_cast<double>(delta_friend) -
                        k * static_cast<double>(delta_rej);
    return {gain, gain < 0.0};
  };

  const int reps = fast ? 5 : 9;
  std::vector<double> old_samples, fast_samples;
  std::vector<double> gains_old(n), gains_fast(n);
  for (int rep = 0; rep < reps; ++rep) {
    util::WallTimer t_old;
    for (graph::NodeId s = 0; s < n; ++s) gains_old[s] = score_old(s).gain;
    old_samples.push_back(t_old.Seconds());

    util::WallTimer t_fast;
    for (graph::NodeId s = 0; s < n; ++s) {
      gains_fast[s] = det.ScoreSenderIncremental(s).gain;
    }
    fast_samples.push_back(t_fast.Seconds());

    if (gains_old != gains_fast) {
      std::cerr << bench_name << ": INCREMENTAL SCORE KERNEL DIVERGED\n";
      std::abort();
    }
  }

  auto median_of = [](std::vector<double> samples) {
    std::sort(samples.begin(), samples.end());
    const std::size_t mid = samples.size() / 2;
    if (samples.size() % 2 == 1) return samples[mid];
    return 0.5 * (samples[mid - 1] + samples[mid]);
  };
  const double old_s = *std::min_element(old_samples.begin(),
                                         old_samples.end());
  const double fast_s = *std::min_element(fast_samples.begin(),
                                          fast_samples.end());
  std::vector<rejecto::bench::KernelBenchRecord> records;
  for (const auto& [kernel, seconds, med] :
       {std::tuple{"incr_score_overlay_old", old_s, median_of(old_samples)},
        std::tuple{"incr_score_fast", fast_s, median_of(fast_samples)}}) {
    rejecto::bench::KernelBenchRecord r;
    r.bench = bench_name;
    r.kernel = kernel;
    r.users = static_cast<std::int64_t>(n);
    r.edges = static_cast<std::int64_t>(
        det.Graph().Graph().Friendships().NumEdges());
    r.items = static_cast<std::int64_t>(n);
    r.seconds = seconds;
    r.seconds_median = med;
    r.throughput = static_cast<double>(n) / std::max(seconds, 1e-9);
    r.speedup = old_s / std::max(seconds, 1e-9);
    std::cout << bench_name << " kernel=" << r.kernel << " items=" << r.items
              << " seconds=" << r.seconds << " throughput=" << r.throughput
              << " speedup=" << r.speedup << "\n";
    records.push_back(std::move(r));
  }
  rejecto::bench::AppendKernelBenchJson(records);
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  // Serial-vs-parallel speedup record: the acceptance grid (default k sweep,
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

  // Kernel probes: fused-vs-unfused KL switch throughput and CSR-vs-builder
  // compaction time, appended to the same BENCH_maar.json array.
  RunKernelProbes("bench_micro", fast);

  // Serving-path scoring: the epoch-tag fast path vs unconditional overlay
  // resolution in EpochDetector::ScoreSenderIncremental.
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

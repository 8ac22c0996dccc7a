// Parallel MAAR sweep: thread count is an execution detail, never an
// algorithmic one — any num_threads must produce bit-identical cuts.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "detect/iterative.h"
#include "detect/maar.h"
#include "gen/planted_partition.h"
#include "graph/compressed_view.h"
#include "graph/layout.h"
#include "graph/snapshot.h"
#include "sim/scenario.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace rejecto::detect {
namespace {

// A planted-partition legit graph with an overlaid friend-spam attack:
// enough structure that the sweep's KL runs do real work across many k.
sim::Scenario PlantedScenario() {
  util::Rng rng(31);
  const auto legit = gen::PlantedPartition({.num_nodes = 600,
                                           .num_communities = 3,
                                           .p_in = 0.05,
                                           .p_out = 0.005},
                                          rng)
                         .graph;
  sim::ScenarioConfig cfg;
  cfg.seed = 23;
  cfg.num_fakes = 120;
  cfg.requests_per_spammer = 15;
  return sim::BuildScenario(legit, cfg);
}

MaarConfig GridConfig() {
  MaarConfig cfg;
  cfg.num_random_inits = 3;  // 4 inits x 11 k values: a real grid
  cfg.seed = 9;
  return cfg;
}

TEST(ParallelMaarTest, ThreadCountNeverChangesTheCut) {
  const auto scenario = PlantedScenario();
  MaarCut reference;
  for (const int threads : {1, 2, 8}) {
    MaarConfig cfg = GridConfig();
    cfg.num_threads = threads;
    MaarSolver solver(scenario.graph, {}, cfg);
    const MaarCut cut = solver.Solve();
    ASSERT_TRUE(cut.valid) << threads << " threads";
    EXPECT_EQ(cut.threads_used, threads);
    if (threads == 1) {
      reference = cut;
      continue;
    }
    EXPECT_EQ(cut.in_u, reference.in_u) << threads << " threads";
    EXPECT_EQ(cut.ratio, reference.ratio) << threads << " threads";
    EXPECT_EQ(cut.k, reference.k) << threads << " threads";
    EXPECT_EQ(cut.kl_runs, reference.kl_runs) << threads << " threads";
    EXPECT_EQ(cut.switches, reference.switches) << threads << " threads";
  }
}

TEST(ParallelMaarTest, ExternalPoolMatchesOwnedPool) {
  const auto scenario = PlantedScenario();
  MaarConfig cfg = GridConfig();
  cfg.num_threads = 3;
  MaarSolver own(scenario.graph, {}, cfg);
  const MaarCut a = own.Solve();

  util::ThreadPool pool(3);
  MaarSolver ext(scenario.graph, {}, cfg);
  const MaarCut b = ext.Solve(&pool);
  EXPECT_EQ(a.in_u, b.in_u);
  EXPECT_EQ(a.ratio, b.ratio);
  EXPECT_EQ(b.threads_used, 3);
}

TEST(ParallelMaarTest, PipelineDeterministicAcrossThreadCounts) {
  const auto scenario = PlantedScenario();
  util::Rng seed_rng(7);
  const auto seeds = scenario.SampleSeeds(20, 6, seed_rng);

  DetectionResult reference;
  for (const int threads : {1, 4}) {
    IterativeConfig cfg;
    cfg.maar = GridConfig();
    cfg.maar.num_threads = threads;
    cfg.target_detections = scenario.num_fakes;
    const auto result =
        DetectFriendSpammers(scenario.graph, seeds, cfg);
    if (threads == 1) {
      reference = result;
      continue;
    }
    EXPECT_EQ(result.detected, reference.detected);
    EXPECT_EQ(result.rounds.size(), reference.rounds.size());
    EXPECT_EQ(result.total_kl_runs, reference.total_kl_runs);
    EXPECT_EQ(result.total_switches, reference.total_switches);
    EXPECT_EQ(result.threads_used, 4);
  }
  EXPECT_GT(reference.total_kl_runs, 0u);
  EXPECT_GE(reference.total_seconds, 0.0);
}

TEST(ParallelMaarTest, WarmStartNeverWorsensTheRatio) {
  const auto scenario = PlantedScenario();
  MaarConfig cold = GridConfig();
  cold.warm_start = false;
  MaarConfig warm = GridConfig();
  warm.warm_start = true;
  const MaarCut a = MaarSolver(scenario.graph, {}, cold).Solve();
  const MaarCut b = MaarSolver(scenario.graph, {}, warm).Solve();
  ASSERT_TRUE(a.valid);
  ASSERT_TRUE(b.valid);
  EXPECT_LE(b.ratio, a.ratio + 1e-12);
  EXPECT_EQ(a.warm_start_runs, 0);
  EXPECT_GT(b.warm_start_runs, 0);
  EXPECT_EQ(b.kl_runs, a.kl_runs + b.warm_start_runs);
}

TEST(ParallelMaarTest, InstrumentationIsCoherent) {
  const auto scenario = PlantedScenario();
  MaarConfig cfg = GridConfig();
  cfg.num_threads = 2;
  const MaarCut cut = MaarSolver(scenario.graph, {}, cfg).Solve();
  ASSERT_TRUE(cut.valid);
  EXPECT_GT(cut.kl_runs, 0);
  EXPECT_GE(cut.kl_runs, cut.warm_start_runs);
  EXPECT_GT(cut.switches, 0u);
  EXPECT_GE(cut.sweep_seconds, 0.0);
  EXPECT_GE(cut.refine_seconds, 0.0);
  EXPECT_GE(cut.total_seconds, cut.sweep_seconds + cut.refine_seconds);
}

TEST(ParallelMaarTest, EffectiveThreadsResolvesAndClamps) {
  EXPECT_GE(EffectiveThreads(0), 1);  // 0 = hardware concurrency
  EXPECT_EQ(EffectiveThreads(1), 1);
  EXPECT_EQ(EffectiveThreads(6), 6);
  EXPECT_EQ(EffectiveThreads(-3), 1);
}

TEST(ParallelMaarTest, GainBoundMaximaMatchBruteForce) {
  // The cached degree maxima GainBound relies on (computed at graph build /
  // compaction) must agree with a direct scan.
  const auto scenario = PlantedScenario();
  const auto& g = scenario.graph;
  std::uint64_t max_f = 0, max_r = 0;
  for (graph::NodeId v = 0; v < g.NumNodes(); ++v) {
    max_f = std::max<std::uint64_t>(max_f, g.Friendships().Degree(v));
    max_r = std::max<std::uint64_t>(
        max_r, static_cast<std::uint64_t>(g.Rejections().InDegree(v) +
                                          g.Rejections().OutDegree(v)));
  }
  EXPECT_EQ(g.MaxFriendshipDegree(), max_f);
  EXPECT_EQ(g.MaxRejectionDegree(), max_r);
  EXPECT_GT(max_r, 0u);  // the scenario actually planted rejections
}

// --- The pipelined schedule: cells and the warm-start chain share the pool.

using Runner = MaarSolver::KlRunner;

// Sleeps in inverse proportion to k before solving, so the high-k cells
// finish first and the chain, which needs the low-k levels, is starved.
KlResult LowKSleepsKl(const graph::AugmentedGraph& g,
                      const std::vector<char>& init,
                      const std::vector<char>& locked, const KlConfig& cfg,
                      KlScratch* scratch) {
  std::this_thread::sleep_for(
      std::chrono::microseconds(static_cast<int>(300.0 / cfg.k)));
  return ExtendedKl(g, init, locked, cfg, scratch);
}

std::uint64_t MaskHash(const std::vector<char>& mask) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : mask) {
    h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ULL;
  }
  return h;
}

void ExpectSameCut(const MaarCut& a, const MaarCut& b,
                   const std::string& label) {
  EXPECT_EQ(a.valid, b.valid) << label;
  EXPECT_EQ(a.in_u, b.in_u) << label;
  EXPECT_EQ(a.ratio, b.ratio) << label;
  EXPECT_EQ(a.k, b.k) << label;
  EXPECT_EQ(a.kl_runs, b.kl_runs) << label;
  EXPECT_EQ(a.warm_start_runs, b.warm_start_runs) << label;
  EXPECT_EQ(a.switches, b.switches) << label;
}

struct GridShape {
  const char* name;
  bool one_k;
  int random_inits;
};

MaarConfig ShapedConfig(const GridShape& shape, bool warm_start) {
  MaarConfig cfg = GridConfig();
  cfg.warm_start = warm_start;
  cfg.num_random_inits = shape.random_inits;
  if (shape.one_k) cfg.k_min = cfg.k_max = 1.0;
  return cfg;
}

TEST(ParallelMaarTest, StarvedChainStillMatchesOneThread) {
  const auto scenario = PlantedScenario();
  const GridShape shapes[] = {{"full grid", false, 3},
                              {"one k", true, 3},
                              {"one init", false, 0},
                              {"one cell", true, 0}};
  for (const GridShape& shape : shapes) {
    for (const bool warm : {true, false}) {
      const std::string label = std::string(shape.name) +
                                (warm ? ", warm start" : ", cold");
      MaarConfig cfg = ShapedConfig(shape, warm);
      cfg.num_threads = 1;
      const MaarCut reference = MaarSolver(scenario.graph, {}, cfg).Solve();
      ASSERT_TRUE(reference.valid) << label;
      for (const int threads : {2, 3, 8}) {
        cfg.num_threads = threads;
        const MaarCut cut =
            MaarSolver(scenario.graph, {}, cfg, LowKSleepsKl).Solve();
        ExpectSameCut(reference, cut,
                      label + ", " + std::to_string(threads) + " threads");
      }
    }
  }
}

TEST(ParallelMaarTest, CompressedViewSolverMatchesOneThread) {
  const auto scenario = PlantedScenario();
  const std::string name =
      "rejecto_parallel_maar_" +
      std::to_string(reinterpret_cast<std::uintptr_t>(&scenario)) + ".snap";
  const auto path = std::filesystem::temp_directory_path() / name;
  graph::SnapshotOptions opts;
  opts.format = graph::SnapshotFormat::kRjsnap02;
  opts.block_rows = 64;
  graph::SaveSnapshot(path.string(), scenario.graph, graph::Layout{}, opts);
  {
    const auto view = graph::CompressedGraphView::Open(path.string());
    for (const bool warm : {true, false}) {
      MaarConfig cfg = GridConfig();
      cfg.warm_start = warm;
      cfg.num_threads = 1;
      const MaarCut reference = MaarSolver(scenario.graph, {}, cfg).Solve();
      ASSERT_TRUE(reference.valid);
      for (const int threads : {1, 2, 3, 8}) {
        cfg.num_threads = threads;
        const MaarCut cut = MaarSolver(view, {}, cfg).Solve();
        ExpectSameCut(reference, cut,
                      std::string(warm ? "warm, " : "cold, ") +
                          std::to_string(threads) + " threads");
      }
    }
  }
  std::filesystem::remove(path);
}

// The message of whatever Solve() throws, or "" when it returns.
std::string SolveError(const graph::AugmentedGraph& g, MaarConfig cfg,
                       const Runner& runner, int threads) {
  cfg.num_threads = threads;
  try {
    MaarSolver(g, {}, cfg, runner).Solve();
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

// The masks of the sweep's initial partitions, learned from a cold solve
// without refinement (every KL call it makes is a grid cell).
std::set<std::uint64_t> CellInits(const graph::AugmentedGraph& g) {
  std::set<std::uint64_t> inits;
  MaarConfig cold = GridConfig();
  cold.warm_start = false;
  cold.dinkelbach_rounds = 0;
  cold.num_threads = 1;
  MaarSolver(g, {}, cold,
             [&](const graph::AugmentedGraph& graph,
                 const std::vector<char>& init,
                 const std::vector<char>& locked, const KlConfig& cfg,
                 KlScratch* scratch) {
               inits.insert(MaskHash(init));
               return ExtendedKl(graph, init, locked, cfg, scratch);
             })
      .Solve();
  return inits;
}

// Sleeps like LowKSleepsKl, then throws "cell k=... init=..." or "warm
// k=... init=..." when `fails(is_cell, k)` holds for the call.
Runner FailingKl(const std::set<std::uint64_t>& cell_inits,
                 std::function<bool(bool, double)> fails) {
  return [cell_inits, fails](const graph::AugmentedGraph& g,
                             const std::vector<char>& init,
                             const std::vector<char>& locked,
                             const KlConfig& cfg, KlScratch* scratch) {
    KlResult r = LowKSleepsKl(g, init, locked, cfg, scratch);
    const bool is_cell = cell_inits.count(MaskHash(init)) != 0;
    if (fails(is_cell, cfg.k)) {
      throw std::runtime_error(std::string(is_cell ? "cell" : "warm") +
                               " k=" + std::to_string(cfg.k) + " init=" +
                               std::to_string(MaskHash(init)));
    }
    return r;
  };
}

TEST(ParallelMaarTest, FailingCellRaisesTheSameExceptionAtAnyThreadCount) {
  // Every call at k = 1 and k = 4 throws. The warm run at 1 (the first warm
  // run: k = 1/2 yields the first valid cut) fails before any cell at 1 in
  // sweep order, and the slow k = 1 cells fail after the fast k = 4 ones in
  // wall time. The lowest-index failing cell, (1, first init), must win
  // every time.
  const auto scenario = PlantedScenario();
  const auto cell_inits = CellInits(scenario.graph);
  ASSERT_EQ(cell_inits.size(), 4u);
  const Runner runner = FailingKl(cell_inits, [](bool, double k) {
    return k == 1.0 || k == 4.0;
  });
  const std::string reference =
      SolveError(scenario.graph, GridConfig(), runner, 1);
  ASSERT_EQ(reference.rfind("cell k=1.000000 ", 0), 0u) << reference;
  for (const int threads : {2, 3, 8}) {
    EXPECT_EQ(SolveError(scenario.graph, GridConfig(), runner, threads),
              reference)
        << threads << " threads";
  }
}

TEST(ParallelMaarTest, FailingWarmRunRaisesTheSameExceptionAtAnyThreadCount) {
  // Only the warm run at k = 2 throws; every cell succeeds.
  const auto scenario = PlantedScenario();
  const auto cell_inits = CellInits(scenario.graph);
  ASSERT_EQ(cell_inits.size(), 4u);
  const Runner runner = FailingKl(cell_inits, [](bool is_cell, double k) {
    return !is_cell && k == 2.0;
  });
  const std::string reference =
      SolveError(scenario.graph, GridConfig(), runner, 1);
  ASSERT_EQ(reference.rfind("warm k=2.000000 ", 0), 0u) << reference;
  for (const int threads : {2, 3, 8}) {
    EXPECT_EQ(SolveError(scenario.graph, GridConfig(), runner, threads),
              reference)
        << threads << " threads";
  }
}

TEST(ParallelMaarTest, OnlyTheRefinementRunsOnTheCallingThread) {
  const auto scenario = PlantedScenario();
  struct Call {
    std::uint64_t start, end;  // ticks of a shared sequence counter
    bool on_caller;
  };
  std::mutex mu;
  std::vector<Call> calls;
  std::atomic<std::uint64_t> seq{0};
  const std::thread::id caller = std::this_thread::get_id();
  const Runner runner = [&](const graph::AugmentedGraph& g,
                            const std::vector<char>& init,
                            const std::vector<char>& locked,
                            const KlConfig& cfg, KlScratch* scratch) {
    const std::uint64_t start = seq.fetch_add(1);
    KlResult r = LowKSleepsKl(g, init, locked, cfg, scratch);
    const std::uint64_t end = seq.fetch_add(1);
    const std::lock_guard<std::mutex> lock(mu);
    calls.push_back({start, end, std::this_thread::get_id() == caller});
    return r;
  };
  const MaarConfig cfg = GridConfig();
  util::ThreadPool pool(3);
  const MaarCut cut = MaarSolver(scenario.graph, {}, cfg, runner).Solve(&pool);
  ASSERT_TRUE(cut.valid);
  ASSERT_EQ(calls.size(), static_cast<std::size_t>(cut.kl_runs));

  const int cells = 9 * 4;  // k = 1/16 ... 16, four inits
  std::uint64_t last_pool_end = 0;
  int on_caller = 0;
  for (const Call& c : calls) {
    if (!c.on_caller) last_pool_end = std::max(last_pool_end, c.end);
  }
  for (const Call& c : calls) {
    if (!c.on_caller) continue;
    ++on_caller;
    EXPECT_GT(c.start, last_pool_end) << "a caller-thread KL run overlapped "
                                         "the sweep";
  }
  EXPECT_EQ(on_caller, cut.kl_runs - cells - cut.warm_start_runs);
  EXPECT_GT(cut.warm_start_runs, 0);
}

}  // namespace
}  // namespace rejecto::detect

// batch_large and batch_dist: one full detection call per measurement, on
// the §VI-A attack over a Table I graph.
//
//   batch_large  soc-Slashdot (82,168 legit users + 10K fakes), single-box
//                detect::DetectFriendSpammers on a 3-thread pool.
//   batch_dist   facebook (10K legit + 10K fakes), the same pipeline through
//                engine::DetectFriendSpammersDistributed on a fault-free
//                simnet cluster of 3 workers.
//
// Set-up is the graph build from the mutation stream (plus the cluster for
// batch_dist), done three times and reported as the median. The timed phase
// repeats the detection call for about --seconds and reports per-call
// medians. The traced run adds a MaarSolver whose KlRunner times every
// detect::ExtendedKl call, which splits each round solve into its grid,
// warm tail and refinement.
#include <algorithm>
#include <cmath>
#include <iostream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "detect/extended_kl.h"
#include "detect/maar.h"
#include "engine/cluster.h"
#include "engine/dist_detector.h"
#include "engine/shard_store.h"
#include "metrics/classification.h"
#include "util/thread_pool.h"

namespace perfbench {
namespace {

constexpr int kThreads = 3;
constexpr int kSetupReps = 3;
// Detection must find the fake region: the paper reports precision close to
// 1 on every Table I graph with this attack.
constexpr double kMinPrecision = 0.95;
// Reconciliation tolerance of the traced run: the layer times must add up
// to the measured total within this share of it.
constexpr double kReconcileTolerance = 0.05;

// Runs `call` for about `seconds`: at least once, then again while the next
// call is expected to end no more than half a call past the deadline.
template <class F>
void RepeatFor(double seconds, F&& call) {
  const double start = Now();
  double last = 0.0;
  do {
    const double t0 = Now();
    call();
    last = Now() - t0;
  } while (Now() - start + 0.5 * last <= seconds);
}

bool SameDetection(const detect::DetectionResult& a,
                   const detect::DetectionResult& b) {
  if (a.detected != b.detected || a.rounds.size() != b.rounds.size() ||
      a.total_kl_runs != b.total_kl_runs ||
      a.total_switches != b.total_switches) {
    return false;
  }
  for (std::size_t i = 0; i < a.rounds.size(); ++i) {
    const detect::RoundInfo& x = a.rounds[i];
    const detect::RoundInfo& y = b.rounds[i];
    if (x.detected != y.detected || x.ratio != y.ratio || x.k != y.k ||
        x.kl_runs != y.kl_runs || x.switches != y.switches ||
        x.cut.cross_friendships != y.cut.cross_friendships ||
        x.cut.rejections_into_u != y.cut.rejections_into_u ||
        x.cut.rejections_from_u != y.cut.rejections_from_u) {
      return false;
    }
  }
  return true;
}

void CheckPrecision(Report& report, const AttackInput& in,
                    const detect::DetectionResult& r) {
  const auto cm = metrics::EvaluateDetection(in.scenario.is_fake, r.detected);
  report.Check(cm.Precision() >= kMinPrecision &&
                   r.detected.size() == in.scenario.num_fakes,
               "precision " + std::to_string(cm.Precision()) + " over " +
                   std::to_string(r.detected.size()) + " detected");
}

// Builds the graph from the mutation stream kSetupReps times, each build
// followed by `extra()` inside the same timed region, and returns the last
// build; the median lands in setup_s and graph.build_s.
template <class F>
std::shared_ptr<const graph::AugmentedGraph> TimedSetup(Report& report,
                                                         const AttackInput& in,
                                                         double& setup_s,
                                                         F&& extra) {
  std::vector<double> times;
  std::shared_ptr<const graph::AugmentedGraph> g;
  for (int i = 0; i < kSetupReps; ++i) {
    g.reset();
    const double t0 = Now();
    g = std::make_shared<const graph::AugmentedGraph>(
        in.log.BuildAugmentedGraph());
    extra();
    times.push_back(Now() - t0);
  }
  report.Check(*g == in.scenario.graph,
               "graph built from the stream equals the scenario graph");
  setup_s = Median(times);
  report.Set("setup_s", setup_s);
  report.Set("graph.build_s", setup_s);
  return g;
}

// One round of the traced pipeline, split by the timing KlRunner.
struct RoundTrace {
  double solve_s = 0.0;      // MaarSolver::Solve wall time
  double grid_s = 0.0;       // solve start to the end of the last grid cell
  double warm_tail_s = 0.0;  // the serial warm-start KL runs
  double refine_s = 0.0;     // the Dinkelbach KL runs
  std::vector<double> cells;
  double busy_s = 0.0;       // sum of grid cell times
};

// A detect::MaarRunner that solves each round with a MaarSolver whose
// KlRunner times every detect::ExtendedKl call. Grid cells run on pool
// threads; the warm tail and refinement run serially on the calling thread,
// warm tail first, so the caller's calls split by MaarCut::warm_start_runs.
class TracingRunner {
 public:
  explicit TracingRunner(util::ThreadPool* pool) : pool_(pool) {}

  detect::MaarCut Solve(const graph::AugmentedGraph& residual,
                        const detect::Seeds& seeds,
                        const detect::MaarConfig& maar) {
    struct Call {
      double start, end;
      bool on_caller;
    };
    std::mutex mu;
    std::vector<Call> calls;  // guarded by mu
    const std::thread::id caller = std::this_thread::get_id();
    detect::MaarSolver::KlRunner kl =
        [&](const graph::AugmentedGraph& g, const std::vector<char>& init,
            const std::vector<char>& locked, const detect::KlConfig& cfg,
            detect::KlScratch* scratch) {
          const double t0 = Now();
          detect::KlResult r = detect::ExtendedKl(g, init, locked, cfg, scratch);
          const double t1 = Now();
          const std::lock_guard<std::mutex> lock(mu);
          calls.push_back({t0, t1, std::this_thread::get_id() == caller});
          return r;
        };
    const double start = Now();
    detect::MaarSolver solver(residual, seeds, maar, kl);
    detect::MaarCut cut = solver.Solve(pool_);
    RoundTrace rt;
    rt.solve_s = Now() - start;
    std::vector<Call> serial;
    for (const Call& c : calls) {
      if (c.on_caller) {
        serial.push_back(c);
        continue;
      }
      rt.cells.push_back(c.end - c.start);
      rt.busy_s += c.end - c.start;
      rt.grid_s = std::max(rt.grid_s, c.end - start);
    }
    std::sort(serial.begin(), serial.end(),
              [](const Call& a, const Call& b) { return a.start < b.start; });
    for (std::size_t i = 0; i < serial.size(); ++i) {
      const double d = serial[i].end - serial[i].start;
      (static_cast<int>(i) < cut.warm_start_runs ? rt.warm_tail_s
                                                  : rt.refine_s) += d;
    }
    rounds_.push_back(std::move(rt));
    return cut;
  }

  const std::vector<RoundTrace>& Rounds() const noexcept { return rounds_; }

 private:
  util::ThreadPool* pool_;
  std::vector<RoundTrace> rounds_;
};

double SumSolves(const detect::DetectionResult& r) {
  double s = 0.0;
  for (const detect::RoundInfo& round : r.rounds) s += round.solve_seconds;
  return s;
}

// Reports the counts every batch run shares, and reconciles the rounds
// against the measured wall time of the call: Σ round solves +
// graph.compact_s ≈ wall. Returns the relative error.
double ReportPipelineLayers(Report& report, const detect::DetectionResult& r,
                            double wall) {
  const double compact = r.total_seconds - SumSolves(r);
  report.Set("graph.compact_s", compact);
  report.Set("detect.rounds", static_cast<double>(r.rounds.size()));
  report.Set("detect.kl_runs", static_cast<double>(r.total_kl_runs));
  report.Set("detect.switches", static_cast<double>(r.total_switches));
  return std::abs(SumSolves(r) + compact - wall) / wall;
}

void FinishReconcile(Report& report, double err) {
  report.Set("detect.reconcile_err", err);
  report.Check(err <= kReconcileTolerance,
               "layer times reconcile with the measured total (error " +
                   std::to_string(err) + ")");
}

}  // namespace

void RunBatchLarge(const Args& args, Report& report) {
  const AttackInput in = MakeAttack("soc-Slashdot", args.seed, kThreads);
  double setup_s = 0.0;
  const auto g = TimedSetup(report, in, setup_s, [] {});

  std::vector<double> walls;
  std::vector<double> cpus;
  detect::DetectionResult first;
  auto untraced = [&] {
    const double cpu0 = ProcessCpuSeconds();
    const double t0 = Now();
    detect::DetectionResult r =
        detect::DetectFriendSpammers(*g, in.seeds, in.config);
    walls.push_back(Now() - t0);
    cpus.push_back(ProcessCpuSeconds() - cpu0);
    std::cerr << "perfbench: detection call " << walls.size() << ": "
              << walls.back() << " s\n";
    CheckPrecision(report, in, r);
    if (walls.size() == 1) {
      first = std::move(r);
    } else {
      report.Check(SameDetection(first, r),
                   "repeated detection calls return the same cut");
    }
  };

  if (!report.Trace()) {
    RepeatFor(args.seconds, untraced);
    report.Set("detect_s", Median(walls));
    report.Set("cpu_s", Median(cpus));
    ReportBatchQuality(report, in, g, first, setup_s, Median(walls));
    report.Set("peak_rss_mb", PeakRssMb());
    return;
  }

  // Traced run: two untraced calls (the first warms caches and the page
  // pool), then the same call through the timing runner; the difference to
  // the second untraced call is the tracing overhead.
  untraced();
  untraced();
  util::ThreadPool pool(kThreads);
  TracingRunner tracer(&pool);
  const double t0 = Now();
  const detect::DetectionResult traced = detect::DetectFriendSpammers(
      *g, in.seeds, in.config,
      [&](const graph::AugmentedGraph& residual, const detect::Seeds& s,
          const detect::MaarConfig& maar) {
        return tracer.Solve(residual, s, maar);
      },
      &pool);
  const double wall = Now() - t0;
  report.Check(SameDetection(first, traced),
               "traced detection returns the untraced cut");
  report.Set("detect.trace_overhead_s", wall - walls.back());

  double err = ReportPipelineLayers(report, traced, wall);
  double grid = 0.0, warm = 0.0, refine = 0.0, busy = 0.0;
  std::vector<double> cells;
  for (const RoundTrace& rt : tracer.Rounds()) {
    grid += rt.grid_s;
    warm += rt.warm_tail_s;
    refine += rt.refine_s;
    busy += rt.busy_s;
    cells.insert(cells.end(), rt.cells.begin(), rt.cells.end());
    err = std::max(err, std::abs(rt.grid_s + rt.warm_tail_s + rt.refine_s -
                                 rt.solve_s) /
                            rt.solve_s);
  }
  report.Set("detect.grid_s", grid);
  report.Set("detect.warm_tail_s", warm);
  report.Set("detect.refine_s", refine);
  report.Set("detect.cell_p50_s", Median(cells));
  report.Set("detect.cell_max_s",
             cells.empty() ? 0.0 : *std::max_element(cells.begin(),
                                                     cells.end()));
  report.Set("detect.grid_efficiency",
             grid > 0.0 ? busy / (static_cast<double>(kThreads) * grid) : 0.0);
  FinishReconcile(report, err);
}

void RunBatchDist(const Args& args, Report& report) {
  const AttackInput in = MakeAttack("facebook", args.seed, kThreads);
  engine::ClusterConfig ccfg;
  ccfg.num_workers = 3;
  ccfg.transport = net::TransportKind::kSimNet;
  ccfg.sim.seed = args.seed + 7;
  // Every set-up's cluster stays alive until all are built, so no
  // teardown lands inside a timed set-up.
  std::vector<std::unique_ptr<engine::Cluster>> clusters;
  double setup_s = 0.0;
  const auto g = TimedSetup(report, in, setup_s, [&] {
    clusters.push_back(std::make_unique<engine::Cluster>(ccfg));
  });
  engine::Cluster* cluster = clusters.back().get();

  // The distributed == single-box contract: every distributed call must
  // return the single-box cut bit for bit.
  const detect::DetectionResult reference =
      detect::DetectFriendSpammers(*g, in.seeds, in.config);
  CheckPrecision(report, in, reference);

  std::vector<double> walls;
  std::vector<double> cpus;
  engine::DistDetectionResult first;
  auto call = [&] {
    const double cpu0 = ProcessCpuSeconds();
    const double t0 = Now();
    engine::DistDetectionResult r =
        engine::DetectFriendSpammersDistributed(*g, in.seeds, in.config,
                                                *cluster);
    walls.push_back(Now() - t0);
    cpus.push_back(ProcessCpuSeconds() - cpu0);
    std::cerr << "perfbench: distributed call " << walls.size() << ": "
              << walls.back() << " s\n";
    report.Check(SameDetection(reference, r.detection),
                 "distributed cut equals the single-box cut");
    if (walls.size() == 1) {
      first = std::move(r);
    } else {
      report.Check(r.io.fetch_requests == first.io.fetch_requests &&
                       r.io.wire.frames_sent == first.io.wire.frames_sent,
                   "repeated distributed calls make the same fetches");
    }
  };

  if (!report.Trace()) {
    RepeatFor(args.seconds, call);
    report.Set("detect_s", Median(walls));
    report.Set("cpu_s", Median(cpus));
    ReportBatchQuality(report, in, g, first.detection, setup_s,
                       Median(walls));
    report.Set("peak_rss_mb", PeakRssMb());
    return;
  }

  call();
  {
    const double t0 = Now();
    const engine::ShardedGraphStore store(*g, *cluster);
    report.Set("engine.store_build_s", Now() - t0);
  }
  const engine::IoStats& io = first.io;
  report.Set("engine.fetch_requests", static_cast<double>(io.fetch_requests));
  report.Set("engine.nodes_fetched", static_cast<double>(io.nodes_fetched));
  report.Set("engine.cache_hit_ratio", io.HitRate());
  report.Set("engine.bytes_transferred",
             static_cast<double>(io.bytes_transferred));
  report.Set("net.frames_sent", static_cast<double>(io.wire.frames_sent));
  report.Set("net.frames_received",
             static_cast<double>(io.wire.frames_received));
  report.Set("net.bytes_sent", static_cast<double>(io.wire.bytes_sent));
  report.Set("net.busy_s", io.wire.busy_us * 1e-6);
  FinishReconcile(report,
                  ReportPipelineLayers(report, first.detection, walls.front()));
}

}  // namespace perfbench

// Streaming subsystem benchmarks: event-ingest throughput through
// stream::DeltaGraph and warm vs cold epoch re-detection latency through
// engine::EpochDetector, appended to BENCH_maar.json as BenchRecord rows
// (kernels "stream_ingest", "epoch_cold", "epoch_warm"; cold seconds over
// warm seconds is the steady-state payoff of warm starts).
//
// Divergence guards mirror bench_micro: the streamed graph must equal batch
// construction, and a warm-start-disabled epoch must reproduce the batch
// pipeline's detections bit-for-bit; any mismatch aborts the bench.
#include <cstdlib>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "detect/iterative.h"
#include "engine/epoch_detector.h"
#include "harness.h"
#include "sim/scenario.h"
#include "sim/stream_feed.h"
#include "stream/delta_graph.h"
#include "stream/mutation_log.h"
#include "util/flags.h"
#include "util/timer.h"

using namespace rejecto;

int main() {
  const auto ctx = bench::ExperimentContext::FromEnv();
  std::vector<std::string> datasets = {"ca-HepTh"};
  if (!ctx.fast) datasets.push_back("synthetic");

  std::vector<bench::BenchRecord> records;
  for (const std::string& name : datasets) {
    const graph::SocialGraph& legit = bench::Dataset(name, ctx);
    sim::ScenarioConfig scfg;
    scfg.seed = 23;
    scfg.num_fakes = ctx.fast ? 400 : 2'000;
    const auto scenario = sim::BuildScenario(legit, scfg);
    util::Rng seed_rng(7);
    const auto seeds = scenario.SampleSeeds(30, 10, seed_rng);
    sim::ChurnConfig churn;
    churn.seed = 13;
    churn.num_removals = 32;
    const auto log = sim::GenerateChurnLog(scenario.log, churn);
    const auto batch_graph = log.BuildAugmentedGraph();

    const std::map<std::string, std::string> labels = {
        {"dataset", name},
        {"users", std::to_string(batch_graph.NumNodes())},
        {"edges", std::to_string(batch_graph.Friendships().NumEdges())}};
    auto record = [&](const char* kernel, std::int64_t items,
                      const std::vector<double>& samples) {
      bench::AddKernelRows(records, "bench_stream", kernel, labels, items,
                           samples);
    };

    // --- ingest throughput: overlay absorption + auto-compactions ---
    {
      const int reps = ctx.fast ? 3 : 5;
      std::vector<double> samples;
      for (int i = 0; i < reps; ++i) {
        stream::DeltaGraph d(log.NumNodes());
        util::WallTimer t;
        d.ApplyAll(log.Events());
        samples.push_back(t.Seconds());
        d.Compact();
        if (d.Graph() != batch_graph) {
          std::cerr << "bench_stream: STREAMED GRAPH DIVERGED from batch\n";
          std::abort();
        }
      }
      record("stream_ingest", static_cast<std::int64_t>(log.NumEvents()),
             samples);
    }

    // --- epoch re-detection: cold batch vs warm-started epoch ---
    detect::IterativeConfig dcfg;
    dcfg.target_detections = scfg.num_fakes;
    dcfg.maar.seed = 31;
    dcfg.maar.num_threads = util::ThreadCount();

    util::WallTimer cold_timer;
    const auto cold = detect::DetectFriendSpammers(batch_graph, seeds, dcfg);
    const double cold_s = cold_timer.Seconds();

    // Warm-off epoch must be bit-identical to the batch run (the streamed
    // substrate cannot change the detector's answer).
    {
      engine::EpochConfig ecfg;
      ecfg.detect = dcfg;
      ecfg.warm_start = false;
      ecfg.events_per_epoch = 0;
      engine::EpochDetector det(log.NumNodes(), seeds, ecfg);
      det.IngestAll(log.Events());
      det.RunEpoch();
      if (det.LastResult().detected != cold.detected) {
        std::cerr << "bench_stream: COLD EPOCH DIVERGED from batch\n";
        std::abort();
      }
    }

    // Steady state: the first epoch (at ~60% of the stream) runs cold and
    // establishes the warm state; the final epoch absorbs the rest and
    // re-detects on the full graph with the narrowed round-0 sweep — the
    // apples-to-apples comparison against the cold solve above.
    {
      engine::EpochConfig ecfg;
      ecfg.detect = dcfg;
      ecfg.warm_start = true;
      ecfg.events_per_epoch = 0;
      engine::EpochDetector det(log.NumNodes(), seeds, ecfg);
      const auto events = log.Events();
      const std::size_t head = events.size() * 3 / 5;
      det.IngestAll(events.subspan(0, head));
      det.RunEpoch();  // cold; seeds the warm state
      det.IngestAll(events.subspan(head));
      const auto& warm_epoch = det.RunEpoch();
      if (!warm_epoch.warm_started) {
        std::cerr << "bench_stream: WARM EPOCH NEVER WARM-STARTED\n";
        std::abort();
      }
      record("epoch_cold", static_cast<std::int64_t>(cold.total_kl_runs),
             {cold_s});
      record("epoch_warm",
             static_cast<std::int64_t>(warm_epoch.total_kl_runs),
             {warm_epoch.detect_seconds});
      std::cout << "bench_stream dataset=" << name
                << " warm-epoch speedup: " << cold_s << "s cold vs "
                << warm_epoch.detect_seconds << "s warm ("
                << cold.total_kl_runs << " vs " << warm_epoch.total_kl_runs
                << " KL runs)\n";
    }
  }
  bench::AppendBenchJson(records);
  return 0;
}

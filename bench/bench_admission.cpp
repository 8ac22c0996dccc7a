// Serving-tier mixed-load benchmark for serve::AdmissionService.
//
// One run per reader count: the writer ingests the attack event stream
// (auto-cutting epochs every events_per_epoch events, detection off the
// hot path) while N reader threads decide continuously against whichever
// epoch is published through the hazard-pointer RCU cell (serve/rcu.h).
// After ingest drains and a final forced epoch lands, readers run on until
// the measurement window closes. Appends rows labelled readers=<N> with
// combined decisions/sec, writer ingest events/sec, the mean epoch-publish
// stall (the only time ingest pauses), and merged reader p50/p95/p99
// decision latency.
//
// Divergence guard: every reader samples decisions (sender, verdict, score,
// epoch id) into a bounded reservoir; after the run a serial
// engine::EpochDetector replay of the same stream rebuilds every published
// epoch's scoring baseline and recomputes each sampled decision. One
// mismatch aborts the whole binary before anything is appended — the bench
// is only allowed to report numbers for a service that serves the
// serial-identical answer.
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <thread>
#include <vector>

#include "engine/epoch_detector.h"
#include "gen/erdos_renyi.h"
#include "graph/builder.h"
#include "harness.h"
#include "serve/admission.h"
#include "sim/scenario.h"
#include "sim/stream_feed.h"
#include "util/flags.h"
#include "util/latency.h"
#include "util/rng.h"
#include "util/table.h"
#include "util/timer.h"

namespace {

using namespace rejecto;

struct Sampled {
  graph::NodeId sender = 0;
  serve::Decision decision;
};

struct RunResult {
  int readers = 0;
  std::vector<bench::BenchRecord> rows;
  std::vector<std::vector<Sampled>> sampled;  // per reader
};

struct BenchWorkload {
  stream::MutationLog log;
  detect::Seeds seeds;
  engine::EpochConfig epoch;
};

BenchWorkload MakeWorkload(const bench::ExperimentContext& ctx) {
  util::Rng rng(ctx.seed + 77);
  const graph::NodeId users = ctx.fast ? 2'000 : 20'000;
  const auto legit = gen::ErdosRenyi(
      {.num_nodes = users, .num_edges = static_cast<graph::EdgeId>(users) * 8},
      rng);
  sim::ScenarioConfig scfg;
  scfg.seed = ctx.seed + 5;
  scfg.num_fakes = users / 10;
  const auto scenario = sim::BuildScenario(legit, scfg);
  util::Rng seed_rng(ctx.seed + 11);
  sim::ChurnConfig churn;
  churn.seed = ctx.seed + 3;
  BenchWorkload w{sim::GenerateChurnLog(scenario.log, churn),
                  scenario.SampleSeeds(ctx.fast ? 15 : 40,
                                       ctx.fast ? 5 : 12, seed_rng),
                  {}};
  w.epoch.detect.target_detections = scfg.num_fakes;
  w.epoch.detect.maar.seed = 23;
  w.epoch.detect.maar.num_threads = static_cast<int>(util::ThreadCount());
  w.epoch.events_per_epoch = w.log.NumEvents() / 4 + 1;
  return w;
}

RunResult RunConfig(const BenchWorkload& w, int readers,
                    double min_window_seconds) {
  serve::AdmissionConfig cfg;
  cfg.epoch = w.epoch;
  cfg.grey_margin = 2.0;
  serve::AdmissionService svc(
      graph::GraphBuilder(w.log.NumNodes()).BuildAugmented(), w.seeds, cfg);

  std::atomic<bool> stop{false};
  RunResult out;
  out.sampled.resize(readers);
  std::vector<util::LatencyHistogram> hists(readers);
  std::vector<std::uint64_t> decided(readers, 0);
  std::vector<std::thread> threads;
  util::WallTimer window;
  for (int r = 0; r < readers; ++r) {
    auto reader = svc.CreateReader();
    threads.emplace_back([&, r, rd = std::move(reader)]() mutable {
      util::Rng rng(r * 6151 + 13);
      const std::uint64_t n = w.log.NumNodes() + 16;
      std::uint64_t t = 0;
      auto& samples = out.sampled[r];
      samples.reserve(1 << 12);
      while (!stop.load(std::memory_order_acquire)) {
        const auto sender = static_cast<graph::NodeId>(rng.NextUInt(n));
        const serve::Decision d = rd.Decide(sender, t++);
        // Bounded reservoir for the divergence guard: every 64th decision
        // until full — cheap enough to not distort the measured rate.
        if ((t & 63) == 0 && samples.size() < (1u << 13)) {
          samples.push_back({sender, d});
        }
      }
      hists[r] = rd.Latency();
      decided[r] = rd.Decisions();
    });
  }

  util::WallTimer ingest_timer;
  for (const stream::Event& e : w.log.Events()) svc.Submit(e);
  svc.Drain();
  const double ingest_seconds = ingest_timer.Seconds();
  svc.ForceEpoch();
  // Keep the decision window open long enough for stable throughput even
  // when ingest finishes quickly.
  while (window.Seconds() < min_window_seconds) {
    std::this_thread::yield();
  }
  stop.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();
  const double window_seconds = window.Seconds();

  util::LatencyHistogram merged;
  std::uint64_t decisions = 0;
  for (int r = 0; r < readers; ++r) {
    merged.Merge(hists[r]);
    decisions += decided[r];
  }

  out.readers = readers;
  bench::AddAdmissionRows(
      out.rows, "bench_admission",
      {{"readers", std::to_string(readers)},
       {"users", std::to_string(w.log.NumNodes())}},
      svc.Stats(), decisions, window_seconds, ingest_seconds, merged);
  return out;
}

// Serial replay of the same stream with the same epoch config; index =
// published epoch id. Mirrors AdmissionService's publication contract.
std::vector<serve::PublishedEpoch> BuildOracle(const BenchWorkload& w) {
  std::vector<serve::PublishedEpoch> epochs;
  epochs.emplace_back();  // bootstrap epoch 0: no baseline
  engine::EpochDetector det(w.log.NumNodes(), w.seeds, w.epoch);
  const auto capture = [&] {
    serve::PublishedEpoch pe;
    pe.epoch_id = epochs.size();
    pe.graph =
        std::make_shared<const graph::AugmentedGraph>(det.Graph().Graph());
    pe.has_baseline = det.HasIncrementalBaseline();
    if (pe.has_baseline) {
      pe.mask = det.IncrementalMask();
      pe.mask.resize(pe.graph->NumNodes(), 0);
      pe.k = det.IncrementalK();
    }
    epochs.push_back(std::move(pe));
  };
  for (const stream::Event& e : w.log.Events()) {
    if (det.Ingest(e) != nullptr) capture();
  }
  det.RunEpoch();
  capture();
  return epochs;
}

void DivergenceGuard(const BenchWorkload& w,
                     const std::vector<RunResult>& runs) {
  const std::vector<serve::PublishedEpoch> oracle = BuildOracle(w);
  std::uint64_t checked = 0;
  for (const RunResult& run : runs) {
    for (const auto& per_reader : run.sampled) {
      for (const Sampled& s : per_reader) {
        if (s.decision.epoch_id >= oracle.size()) {
          std::cerr << "bench_admission: DIVERGENCE: decision cites epoch "
                    << s.decision.epoch_id << " but the serial replay "
                    << "published only " << oracle.size() - 1 << "\n";
          std::abort();
        }
        const serve::Decision expect = serve::DecideAgainst(
            oracle[s.decision.epoch_id], s.sender, /*grey_margin=*/2.0);
        if (expect.verdict != s.decision.verdict ||
            expect.score != s.decision.score) {
          std::cerr << "bench_admission: DIVERGENCE: sender " << s.sender
                    << " epoch " << s.decision.epoch_id << " concurrent={"
                    << serve::VerdictName(s.decision.verdict) << ", "
                    << s.decision.score << "} serial={"
                    << serve::VerdictName(expect.verdict) << ", "
                    << expect.score << "}\n";
          std::abort();
        }
        ++checked;
      }
    }
  }
  std::cout << "divergence guard: " << checked
            << " sampled concurrent decisions reproduced serially\n";
}

}  // namespace

int main() {
  const auto ctx = bench::ExperimentContext::FromEnv();
  const BenchWorkload w = MakeWorkload(ctx);
  const double window = ctx.fast ? 0.3 : 2.0;

  const std::vector<int> reader_counts =
      ctx.fast ? std::vector<int>{2} : std::vector<int>{1, 4, 8};

  std::vector<RunResult> runs;
  for (const int readers : reader_counts) {
    runs.push_back(RunConfig(w, readers, window));
  }

  // The guard runs before anything is appended: no record is emitted for a
  // run whose concurrent answers the serial replay cannot reproduce.
  DivergenceGuard(w, runs);

  const char* columns[] = {"decisions_per_sec", "ingest_events_per_sec",
                           "epoch_publish_stall_us", "p50_ns",
                           "p95_ns", "p99_ns", "epochs"};
  util::Table t({"readers", "decisions/s", "ingest ev/s", "publish stall us",
                 "p50 ns", "p95 ns", "p99 ns", "epochs"});
  t.set_precision(0);
  std::vector<bench::BenchRecord> records;
  for (const RunResult& run : runs) {
    std::vector<util::Table::Cell> row = {
        static_cast<std::int64_t>(run.readers)};
    for (const char* metric : columns) {
      for (const bench::BenchRecord& r : run.rows) {
        if (r.metric == metric) row.push_back(r.value);
      }
    }
    t.AddRow(std::move(row));
    records.insert(records.end(), run.rows.begin(), run.rows.end());
  }
  ctx.Emit("bench_admission", "Admission service mixed load (record actuals)",
           t);
  bench::AppendBenchJson(records);
  return 0;
}

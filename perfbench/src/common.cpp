#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <span>
#include <stdexcept>
#include <utility>

#include "gen/datasets.h"
#include "metrics/classification.h"
#include "sim/stream_feed.h"
#include "util/rng.h"

namespace perfbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json (run.py checks every result line against it).
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},          {"detect_s", "s"},
    {"precision", "fraction"}, {"cpu_s", "s"},
    {"peak_rss_mb", "MB"},     {"fresh_p50_s", "s"},
    {"fresh_p99_s", "s"},      {"decide_rate", "1/s"},
    {"fake_block_share", "fraction"},
    {"legit_admit_share", "fraction"},
};

constexpr MetricSpec kPerLayer[] = {
    {"graph.build_s", "s"},
    {"graph.compact_s", "s"},
    {"detect.rounds", "count"},
    {"detect.kl_runs", "count"},
    {"detect.switches", "count"},
    {"detect.grid_s", "s"},
    {"detect.warm_tail_s", "s"},
    {"detect.refine_s", "s"},
    {"detect.cell_p50_s", "s"},
    {"detect.cell_max_s", "s"},
    {"detect.grid_efficiency", "fraction"},
    {"detect.reconcile_err", "fraction"},
    {"detect.trace_overhead_s", "s"},
    {"detect.score_ns", "ns"},
    {"engine.epoch_detect_s", "s"},
    {"engine.epoch_detect_max_s", "s"},
    {"engine.epoch_kl_runs", "count"},
    {"engine.replay_detect_s", "s"},
    {"engine.store_build_s", "s"},
    {"engine.fetch_requests", "count"},
    {"engine.nodes_fetched", "count"},
    {"engine.cache_hit_ratio", "fraction"},
    {"engine.bytes_transferred", "bytes"},
    {"net.frames_sent", "count"},
    {"net.frames_received", "count"},
    {"net.bytes_sent", "bytes"},
    {"net.busy_s", "s"},
    {"stream.wal_append_p50_us", "us"},
    {"stream.wal_append_p99_us", "us"},
    {"stream.apply_ns", "ns"},
    {"stream.compact_s", "s"},
    {"serve.submit_p99_us", "us"},
    {"serve.queue_depth_max", "count"},
    {"serve.snapshot_s", "s"},
    {"serve.detect_wait_s", "s"},
    {"serve.backpressure_yields", "count"},
    {"serve.publish_lag_s", "s"},
    {"serve.reconcile_err", "fraction"},
    {"serve.epochs", "count"},
    {"serve.decide_p50_ns", "ns"},
    {"serve.decide_p99_ns", "ns"},
    {"load.gen_lag_max_s", "s"},
    {"load.ops_attempted", "count"},
    {"load.ops_failed", "count"},
};

}  // namespace

Report::Report(bool trace) : trace_(trace) {
  if (trace) {
    for (const MetricSpec& m : kPerLayer) units_[m.name] = m.unit;
  } else {
    for (const MetricSpec& m : kEndToEnd) units_[m.name] = m.unit;
  }
  for (const auto& [name, unit] : units_) values_[name] = 0.0;
}

void Report::Set(const std::string& name, double value) {
  // Metrics of the other list are measured in both modes; only the active
  // list is reported. A name on neither list is a typo.
  if (units_.count(name) != 0) {
    values_[name] = value;
    return;
  }
  for (const auto& list : {std::span<const MetricSpec>(kEndToEnd),
                           std::span<const MetricSpec>(kPerLayer)}) {
    for (const MetricSpec& m : list) {
      if (name == m.name) return;
    }
  }
  throw std::logic_error("perfbench: unknown metric " + name);
}

void Report::Check(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    std::cerr << "perfbench: CHECK FAILED: " << what << "\n";
  }
}

void Report::Print() const {
  std::string line = "{\"correct\": ";
  line += failed_ == 0 && attempted_ > 0 ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted_);
  line += ", \"failed\": " + std::to_string(failed_);
  line += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, value] : values_) {
    char num[64];
    std::snprintf(num, sizeof(num), "%.17g",
                  std::isfinite(value) ? value : 0.0);
    if (!first) line += ", ";
    first = false;
    line += "\"" + name + "\": {\"value\": " + num + ", \"unit\": \"" +
            units_.at(name) + "\"}";
  }
  line += "}}";
  std::cout << line << std::endl;
}

AttackInput MakeAttack(std::string_view dataset, std::uint64_t seed,
                       int threads) {
  const graph::SocialGraph legit = gen::MakeDataset(dataset, seed);
  sim::ScenarioConfig scfg;  // §VI-A: 10K fakes, 20 requests each, 70% rejected
  scfg.seed = seed * 1000003 + 17;
  AttackInput in;
  in.scenario = sim::BuildScenario(legit, scfg);
  in.log = sim::ToMutationLog(in.scenario.log);
  util::Rng seed_rng(seed ^ 0x5eedbeefULL);
  in.seeds = in.scenario.SampleSeeds(100, 30, seed_rng);
  in.config.target_detections = in.scenario.num_fakes;
  in.config.maar.seed = seed * 7919 + 13;
  in.config.maar.num_threads = threads;
  std::vector<char> sent(in.scenario.NumNodes(), 0);
  for (const sim::FriendRequest& r : in.scenario.log.Requests()) {
    sent[r.sender] = 1;
  }
  for (graph::NodeId v = 0; v < sent.size(); ++v) {
    if (sent[v]) in.senders.push_back(v);
  }
  return in;
}

double ProcessCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

serve::PublishedEpoch BaselineOf(
    std::shared_ptr<const graph::AugmentedGraph> graph,
    const detect::DetectionResult& result, std::uint64_t epoch_id) {
  serve::PublishedEpoch pe;
  pe.epoch_id = epoch_id;
  pe.graph = std::move(graph);
  if (!result.rounds.empty() && result.rounds.front().k > 0.0) {
    pe.has_baseline = true;
    pe.mask.assign(pe.graph->NumNodes(), 0);
    for (graph::NodeId v : result.rounds.front().detected) pe.mask[v] = 1;
    pe.k = result.rounds.front().k;
  }
  pe.detected = result.detected;
  return pe;
}

Shares DecideEverySender(const serve::PublishedEpoch& epoch,
                         const AttackInput& in) {
  std::uint64_t fakes = 0, blocked = 0, legit = 0, admitted = 0;
  for (graph::NodeId s : in.senders) {
    const serve::Verdict v = serve::DecideAgainst(epoch, s, 0.0).verdict;
    if (in.scenario.IsFake(s)) {
      ++fakes;
      blocked += v == serve::Verdict::kReject ? 1 : 0;
    } else {
      ++legit;
      admitted += v == serve::Verdict::kAdmit ? 1 : 0;
    }
  }
  Shares s;
  s.fake_block = fakes == 0 ? 0.0 : static_cast<double>(blocked) / fakes;
  s.legit_admit = legit == 0 ? 0.0 : static_cast<double>(admitted) / legit;
  return s;
}

void ReportBatchQuality(Report& report, const AttackInput& in,
                        std::shared_ptr<const graph::AugmentedGraph> graph,
                        const detect::DetectionResult& result,
                        double setup_s, double detect_s) {
  const auto cm =
      metrics::EvaluateDetection(in.scenario.is_fake, result.detected);
  report.Set("precision", cm.Precision());
  const auto nodes = static_cast<double>(graph->NumNodes());
  const serve::PublishedEpoch epoch = BaselineOf(std::move(graph), result, 1);
  const Shares shares = DecideEverySender(epoch, in);
  report.Set("fake_block_share", shares.fake_block);
  report.Set("legit_admit_share", shares.legit_admit);
  report.Set("decide_rate", nodes / detect_s);
  report.Set("fresh_p50_s", setup_s + detect_s);
  report.Set("fresh_p99_s", setup_s + detect_s);
}

}  // namespace perfbench

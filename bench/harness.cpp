#include "harness.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <numeric>
#include <span>
#include <sstream>
#include <stdexcept>

#include "baseline/votetrust.h"
#include "detect/bucket_list.h"
#include "detect/partition.h"
#include "gen/synthetic_stream.h"
#include "graph/compressed_view.h"
#include "graph/io.h"
#include "graph/layout.h"
#include "graph/snapshot.h"
#include "metrics/classification.h"
#include "metrics/ranking.h"
#include "serve/admission.h"
#include "study/early_detection.h"
#include "util/buffer.h"
#include "util/flags.h"
#include "util/latency.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace rejecto::bench {

ExperimentContext ExperimentContext::FromEnv() {
  ExperimentContext ctx;
  ctx.fast = util::FastBenchMode();
  ctx.seed = util::ExperimentSeed();
  ctx.csv_dir = util::GetEnvString("REJECTO_CSV_DIR");
  return ctx;
}

void ExperimentContext::Emit(const std::string& id, const std::string& title,
                             const util::Table& table) const {
  table.PrintWithTitle(title);
  if (csv_dir) {
    std::filesystem::create_directories(*csv_dir);
    std::ofstream out(*csv_dir + "/" + id + ".csv");
    table.WriteCsv(out);
  }
}

sim::ScenarioConfig PaperAttackConfig(const ExperimentContext& ctx) {
  sim::ScenarioConfig cfg;
  cfg.seed = ctx.seed;
  cfg.num_fakes = ctx.fast ? 2'000 : 10'000;
  cfg.intra_fake_links_per_account = 6;
  cfg.spamming_fraction = 1.0;
  cfg.requests_per_spammer = 20;
  cfg.spam_rejection_rate = 0.7;
  cfg.legit_rejection_rate = 0.2;
  cfg.careless_fraction = 0.15;
  return cfg;
}

detect::IterativeConfig PaperDetectorConfig(const ExperimentContext& ctx,
                                            std::uint64_t target) {
  detect::IterativeConfig cfg;
  cfg.target_detections = target;
  cfg.maar.seed = ctx.seed * 7919 + 13;
  // REJECTO_THREADS (0 = hardware); bit-identical results either way, so
  // every bench may run its sweeps parallel by default.
  cfg.maar.num_threads = util::ThreadCount();
  // REJECTO_LAYOUT (identity|bfs): detection results are invariant under
  // the layout (graph/layout.h), so the knob only changes cache behavior.
  cfg.maar.layout = graph::LayoutPolicyFromEnv();
  return cfg;
}

const graph::SocialGraph& Dataset(const std::string& name,
                                  const ExperimentContext& ctx) {
  static std::map<std::string, graph::SocialGraph> cache;
  auto it = cache.find(name);
  if (it == cache.end()) {
    it = cache.emplace(name, gen::MakeDataset(name, ctx.seed)).first;
  }
  return it->second;
}

DetectorScores RunBothDetectors(const sim::Scenario& scenario,
                                const ExperimentContext& ctx) {
  util::Rng seed_rng(ctx.seed ^ 0x5eedbeefULL);
  const graph::NodeId n_legit_seeds = ctx.fast ? 40 : 100;
  const graph::NodeId n_spam_seeds = ctx.fast ? 10 : 30;
  const auto seeds =
      scenario.SampleSeeds(n_legit_seeds, n_spam_seeds, seed_rng);

  DetectorScores out;
  {
    util::WallTimer t;
    const auto cfg = PaperDetectorConfig(ctx, scenario.num_fakes);
    const auto result =
        detect::DetectFriendSpammers(scenario.graph, seeds, cfg);
    out.rejecto_seconds = t.Seconds();
    out.rejecto_rounds = static_cast<int>(result.rounds.size());
    out.rejecto =
        metrics::EvaluateDetection(scenario.is_fake, result.detected)
            .Precision();
  }
  {
    baseline::VoteTrustConfig cfg;
    cfg.trust_seeds = seeds.legit;
    const auto vt = baseline::RunVoteTrust(scenario.log, cfg);
    out.votetrust =
        metrics::EvaluateDetection(
            scenario.is_fake,
            metrics::LowestScored(vt.ratings, scenario.num_fakes))
            .Precision();
  }
  return out;
}

std::vector<double> Sweep(std::vector<double> full,
                          const ExperimentContext& ctx) {
  if (!ctx.fast || full.size() <= 3) return full;
  // Keep first, middle, last.
  return {full.front(), full[full.size() / 2], full.back()};
}

std::vector<std::string> AppendixDatasets(const ExperimentContext& ctx) {
  if (ctx.fast) return {"ca-HepTh"};
  return {"ca-HepTh",      "ca-AstroPh",  "email-Enron",
          "soc-Epinions",  "soc-Slashdot", "synthetic"};
}

namespace {

#ifndef REJECTO_GIT_SHA
#define REJECTO_GIT_SHA "unknown"
#endif

// Scans a BENCH_maar.json body for the largest "run_id" value; 0 when the
// file is missing or fresh.
std::uint64_t MaxRunId(const std::string& json) {
  static const std::string key = "\"run_id\": ";
  std::uint64_t max_id = 0;
  for (std::size_t pos = json.find(key); pos != std::string::npos;
       pos = json.find(key, pos + key.size())) {
    std::uint64_t id = 0;
    for (std::size_t i = pos + key.size();
         i < json.size() && std::isdigit(static_cast<unsigned char>(json[i]));
         ++i) {
      id = id * 10 + static_cast<std::uint64_t>(json[i] - '0');
    }
    max_id = std::max(max_id, id);
  }
  return max_id;
}

constexpr const char* kSpace = " \t\r\n";

// True when `json` is one top-level JSON array whose brackets and braces
// balance outside strings, with only whitespace after the closing ']'. A
// structural check, not a full parser: it tells a complete file from one
// an interrupted writer cut short.
bool IsJsonArray(const std::string& json) {
  std::size_t i = json.find_first_not_of(kSpace);
  if (i == std::string::npos || json[i] != '[') return false;
  std::vector<char> open;
  bool in_string = false;
  for (; i < json.size(); ++i) {
    const char c = json[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') {
      in_string = true;
    } else if (c == '[' || c == '{') {
      open.push_back(c);
    } else if (c == ']' || c == '}') {
      if (open.empty() || open.back() != (c == ']' ? '[' : '{')) return false;
      open.pop_back();
      if (open.empty()) {
        return json.find_first_not_of(kSpace, i + 1) == std::string::npos;
      }
    }
  }
  return false;
}

void WriteJsonString(std::ostream& os, const std::string& s) {
  os << '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      os << '\\' << c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      static const char* hex = "0123456789abcdef";
      os << "\\u00" << hex[(c >> 4) & 0xf] << hex[c & 0xf];
    } else {
      os << c;
    }
  }
  os << '"';
}

// Process peak resident set ("VmHWM:    123456 kB" in /proc/self/status)
// in bytes; 0 when the key is absent (non-Linux) or /proc is unavailable.
std::uint64_t PeakRssBytes() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) != 0) continue;
    std::uint64_t kb = 0;
    for (char c : line) {
      if (std::isdigit(static_cast<unsigned char>(c))) {
        kb = kb * 10 + static_cast<std::uint64_t>(c - '0');
      }
    }
    return kb * 1024;
  }
  return 0;
}

}  // namespace

void AppendBenchJson(const std::vector<BenchRecord>& records) {
  if (records.empty()) return;
  namespace fs = std::filesystem;
  const fs::path path =
      fs::path(util::GetEnvString("REJECTO_JSON_DIR").value_or(".")) /
      "BENCH_maar.json";

  std::string existing;
  if (fs::exists(path)) {
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    existing = ss.str();
    if (!IsJsonArray(existing)) {
      throw std::runtime_error("AppendBenchJson: " + path.string() +
                               " is not a well-formed JSON array; refusing "
                               "to overwrite it");
    }
  }

  std::ostringstream body;
  bool first = true;
  if (existing.empty()) {
    body << "[";
  } else {
    // Reopen the array: drop the closing ']' and any whitespace before it.
    existing.erase(existing.find_last_not_of(kSpace));
    existing.erase(existing.find_last_not_of(kSpace) + 1);
    body << existing;
    first = existing.back() == '[';
  }
  const std::uint64_t run_id = MaxRunId(existing) + 1;
  body.precision(10);
  for (const BenchRecord& r : records) {
    body << (first ? "\n  " : ",\n  ");
    first = false;
    body << "{\"git_sha\": ";
    WriteJsonString(body, REJECTO_GIT_SHA);
    body << ", \"run_id\": " << run_id
         << ", \"cores\": " << util::HardwareThreads() << ", \"bench\": ";
    WriteJsonString(body, r.bench);
    body << ", \"metric\": ";
    WriteJsonString(body, r.metric);
    body << ", \"value\": ";
    if (std::isfinite(r.value)) {
      body << r.value;
    } else {
      body << "null";
    }
    body << ", \"unit\": ";
    WriteJsonString(body, r.unit);
    body << ", \"labels\": {";
    const char* sep = "";
    for (const auto& [key, value] : r.labels) {
      body << sep;
      WriteJsonString(body, key);
      body << ": ";
      WriteJsonString(body, value);
      sep = ", ";
    }
    body << "}}";
  }
  body << "\n]\n";

  // Write beside the target and rename over it: a reader (or a crash) sees
  // either the old array or the new one, never a partial file.
  const fs::path tmp = path.string() + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    out << body.str();
    out.close();
    if (!out) {
      throw std::runtime_error("AppendBenchJson: cannot write " +
                               tmp.string());
    }
  }
  fs::rename(tmp, path);
}

void AddKernelRows(std::vector<BenchRecord>& out, const std::string& bench,
                   const std::string& kernel,
                   std::map<std::string, std::string> labels,
                   std::int64_t items, const std::vector<double>& samples) {
  std::vector<double> sorted = samples;
  std::sort(sorted.begin(), sorted.end());
  const std::size_t mid = sorted.size() / 2;
  const double min_s = sorted.front();
  const double median_s = sorted.size() % 2 == 1
                              ? sorted[mid]
                              : 0.5 * (sorted[mid - 1] + sorted[mid]);
  const double throughput =
      static_cast<double>(items) / std::max(min_s, 1e-9);
  labels["kernel"] = kernel;
  labels["items"] = std::to_string(items);
  out.push_back({bench, "seconds", min_s, "s", labels});
  out.push_back({bench, "seconds_median", median_s, "s", labels});
  out.push_back({bench, "throughput", throughput, "items/s", labels});
  std::cout << bench << " kernel=" << kernel << " items=" << items
            << " seconds=" << min_s << " median=" << median_s
            << " throughput=" << throughput << "\n";
}

void AddTemporalRows(std::vector<BenchRecord>& out, const std::string& bench,
                     const std::string& adversary, std::int64_t users,
                     const study::EarlyDetectionResult& res) {
  const std::map<std::string, std::string> labels = {
      {"adversary", adversary},
      {"users", std::to_string(users)},
      {"spammers", std::to_string(res.spammers_total)},
      {"requests", std::to_string(res.total_spam_requests)}};
  auto add = [&](const std::string& metric, double value, const char* unit) {
    out.push_back({bench, metric, value, unit, labels});
  };
  add("time_to_detection", res.mean_time_to_detection, "requests");
  add("harm_before_detection", res.mean_harm_before_detection, "requests");
  add("detected", static_cast<double>(res.spammers_detected), "count");
  add("undetected",
      static_cast<double>(res.spammers_total - res.spammers_detected),
      "count");
  add("final_precision", res.curve.back().precision, "fraction");
  add("final_recall", res.curve.back().recall, "fraction");
  for (const std::uint32_t r : {5u, 10u, 20u, 50u}) {
    double recall = 0.0;
    for (const auto& cp : res.checkpoints) {
      if (cp.requests == r) recall = cp.Recall();
    }
    add("recall_at_" + std::to_string(r), recall, "fraction");
  }
}

void AddAdmissionRows(std::vector<BenchRecord>& out, const std::string& bench,
                      const std::map<std::string, std::string>& labels,
                      const serve::AdmissionStats& stats,
                      std::uint64_t decisions, double decide_seconds,
                      double ingest_seconds,
                      const util::LatencyHistogram& latency) {
  auto add = [&](const char* metric, double value, const char* unit) {
    out.push_back({bench, metric, value, unit, labels});
  };
  const auto epochs = static_cast<double>(stats.epochs_published);
  add("decisions_per_sec", static_cast<double>(decisions) / decide_seconds,
      "1/s");
  add("ingest_events_per_sec",
      static_cast<double>(stats.events_ingested) / ingest_seconds,
      "events/s");
  add("epoch_publish_stall_us",
      epochs > 0 ? 1e6 * stats.snapshot_seconds_total / epochs : 0.0, "us");
  add("detect_seconds", stats.last_detect_seconds, "s");
  add("p50_ns", static_cast<double>(latency.P50()), "ns");
  add("p95_ns", static_cast<double>(latency.P95()), "ns");
  add("p99_ns", static_cast<double>(latency.P99()), "ns");
  add("events", static_cast<double>(stats.events_ingested), "count");
  add("decisions", static_cast<double>(decisions), "count");
  add("epochs", epochs, "count");
}

double RunSwitchSequence(const graph::AugmentedGraph& g,
                         const std::vector<char>& init,
                         const std::vector<graph::NodeId>& seq, double k,
                         double* seconds_out) {
  const graph::NodeId n = g.NumNodes();
  const double gain_bound =
      std::max(1.0, static_cast<double>(g.MaxFriendshipDegree()) +
                        k * static_cast<double>(g.MaxRejectionDegree()));
  detect::Partition p(g, init);
  detect::BucketList bl(n, gain_bound, detect::KlConfig{}.gain_resolution);
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
  *seconds_out = t.Seconds();
  return p.Objective(k);
}

void RunMaarSpeedupProbe(const std::string& bench_name,
                         const graph::AugmentedGraph& g,
                         detect::MaarConfig config,
                         const std::vector<int>& threads_list) {
  std::vector<BenchRecord> records;
  double serial_seconds = 0.0;
  std::vector<char> reference_mask;
  for (int t : threads_list) {
    config.num_threads = t;
    detect::MaarSolver solver(g, {}, config);
    const detect::MaarCut cut = solver.Solve();
    if (records.empty()) {
      serial_seconds = cut.total_seconds;
      reference_mask = cut.in_u;
    } else if (cut.in_u != reference_mask) {
      std::cerr << bench_name << ": PARALLEL SWEEP DETERMINISM VIOLATION at "
                << t << " threads\n";
      std::abort();
    }
    const std::map<std::string, std::string> labels = {
        {"probe", "maar_sweep"},
        {"users", std::to_string(g.NumNodes())},
        {"edges", std::to_string(g.Friendships().NumEdges())},
        {"threads", std::to_string(t)}};
    records.push_back({bench_name, "seconds", cut.total_seconds, "s", labels});
    records.push_back({bench_name, "kl_runs",
                       static_cast<double>(cut.kl_runs), "count", labels});
    std::cout << bench_name << " MAAR sweep: users=" << g.NumNodes()
              << " threads=" << t << " seconds=" << cut.total_seconds
              << " kl_runs=" << cut.kl_runs << " speedup="
              << serial_seconds / std::max(cut.total_seconds, 1e-9) << "\n";
  }
  AppendBenchJson(records);
}

namespace {

// The workload labels every graph probe's rows carry.
std::map<std::string, std::string> GraphLabels(const graph::AugmentedGraph& g) {
  return {{"users", std::to_string(g.NumNodes())},
          {"edges", std::to_string(g.Friendships().NumEdges())}};
}

}  // namespace

void RunLayoutKernelProbe(const std::string& bench_name,
                          const graph::AugmentedGraph& g, bool fast) {
  const graph::NodeId n = g.NumNodes();
  if (n < 2) return;

  // Baseline: a deterministic Fisher–Yates shuffle of the ids — the "as
  // interned from a text file" order the layout subsystem exists to fix.
  // (Generator graphs are born in a friendly order, so comparing against g
  // itself would understate what relayout buys on real ingested data.)
  util::Rng rng(97);
  std::vector<graph::NodeId> perm(n);
  std::iota(perm.begin(), perm.end(), 0);
  for (graph::NodeId i = n - 1; i > 0; --i) {
    std::swap(perm[i], perm[rng.NextUInt(i + 1)]);
  }
  const graph::Layout shuffle =
      graph::LayoutFromPermutation(std::move(perm));
  const graph::AugmentedGraph g_shuf = graph::ApplyLayout(g, shuffle);
  const graph::Layout bfs =
      graph::ComputeLayout(g_shuf, graph::LayoutPolicy::kBfs);
  const graph::AugmentedGraph g_bfs = graph::ApplyLayout(g_shuf, bfs);

  // One logical workload on both layouts: same init mask, same switch
  // sequence, translated into each graph's id space. The sequence is a
  // propagation-ordered sweep — the BFS visit order of the shuffled graph
  // from its highest-combined-degree hubs, truncated — because that is the
  // temporal shape of the detector's hot passes (a KL sweep chasing the
  // gain frontier, vote propagation): each switch lands next to the
  // previous one in graph distance. The layout under test decides whether
  // that graph-adjacency becomes address-adjacency. A uniform-random
  // sequence would instead measure a workload no vertex order can help.
  std::vector<char> init(n, 0);
  for (auto& c : init) c = rng.NextBool(0.35) ? 1 : 0;
  const std::vector<char> init_bfs = graph::MaskToLayout(bfs, init);
  std::vector<graph::NodeId> seq;
  seq.reserve(n);
  {
    std::vector<std::uint32_t> degree(n);
    for (graph::NodeId v = 0; v < n; ++v) {
      degree[v] = g_shuf.Friendships().Degree(v) +
                  g_shuf.Rejections().InDegree(v) +
                  g_shuf.Rejections().OutDegree(v);
    }
    std::vector<graph::NodeId> order(n);
    std::iota(order.begin(), order.end(), graph::NodeId{0});
    std::stable_sort(order.begin(), order.end(),
                     [&](graph::NodeId a, graph::NodeId b) {
                       return degree[a] > degree[b];
                     });
    std::vector<char> vis(n, 0);
    auto expand = [&](std::span<const graph::NodeId> row) {
      for (graph::NodeId w : row) {
        if (!vis[w]) {
          vis[w] = 1;
          seq.push_back(w);
        }
      }
    };
    for (graph::NodeId s : order) {
      if (vis[s]) continue;
      vis[s] = 1;
      std::size_t head = seq.size();
      seq.push_back(s);
      for (; head < seq.size(); ++head) {
        const graph::NodeId u = seq[head];
        expand(g_shuf.Friendships().Neighbors(u));
        expand(g_shuf.Rejections().Rejectees(u));
        expand(g_shuf.Rejections().Rejectors(u));
      }
    }
  }
  seq.resize(std::min<std::size_t>(seq.size(), fast ? 40'000 : 200'000));
  std::vector<graph::NodeId> seq_bfs(seq.size());
  for (std::size_t i = 0; i < seq.size(); ++i) {
    seq_bfs[i] = bfs.new_of_old[seq[i]];
  }

  const double k = 1.0;
  const int reps = fast ? 5 : 7;
  std::vector<double> shuf_samples, bfs_samples;
  for (int i = 0; i < reps; ++i) {
    // Alternate layouts across reps so machine noise hits both equally;
    // keep the best rep of each (the kernel is deterministic).
    double s = 0.0;
    const double shuf_obj = RunSwitchSequence(g_shuf, init, seq, k, &s);
    shuf_samples.push_back(s);
    const double bfs_obj = RunSwitchSequence(g_bfs, init_bfs, seq_bfs, k, &s);
    bfs_samples.push_back(s);
    if (shuf_obj != bfs_obj) {
      std::cerr << bench_name << ": LAYOUT KERNEL DIVERGED (" << shuf_obj
                << " vs " << bfs_obj << ")\n";
      std::abort();
    }
  }

  std::vector<BenchRecord> records;
  const auto switches = static_cast<std::int64_t>(seq.size());
  const std::map<std::string, std::string> labels = GraphLabels(g);
  AddKernelRows(records, bench_name, "layout_identity", labels, switches,
                shuf_samples);
  AddKernelRows(records, bench_name, "layout_bfs", labels, switches,
                bfs_samples);
  AppendBenchJson(records);
}

void RunSnapshotLoadProbe(const std::string& bench_name,
                          const graph::AugmentedGraph& g, bool fast) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() / ("rejecto_probe_" + bench_name);
  fs::create_directories(dir);
  const std::string fr_path = (dir / "friendships.txt").string();
  const std::string rej_path = (dir / "rejections.txt").string();
  const std::string snap_path = (dir / "graph.snap").string();

  graph::SaveEdgeList(g.Friendships(), fr_path);
  {
    std::ofstream out(rej_path);
    out << "# Directed rejection arcs: " << g.NumNodes() << " nodes, "
        << g.Rejections().NumArcs() << " arcs\n";
    for (const graph::Arc& a : g.Rejections().Arcs()) {
      out << a.from << ' ' << a.to << '\n';
    }
  }
  graph::SaveSnapshot(snap_path, g);

  const std::int64_t items = static_cast<std::int64_t>(
      g.Friendships().NumEdges() + g.Rejections().NumArcs());
  const int reps = fast ? 2 : 3;
  std::vector<double> text_samples, snap_samples;
  for (int i = 0; i < reps; ++i) {
    util::WallTimer t_text;
    const graph::LoadedAugmentedGraph loaded =
        graph::LoadAugmentedGraph(fr_path, rej_path);
    text_samples.push_back(t_text.Seconds());

    util::WallTimer t_snap;
    const graph::Snapshot snap = graph::LoadSnapshot(snap_path);
    snap_samples.push_back(t_snap.Seconds());

    // The text loader interns ids in file order, so its graph is g up to a
    // relabeling: the edge and arc counts must match. The snapshot must
    // reproduce g exactly.
    if (loaded.graph.Friendships().NumEdges() != g.Friendships().NumEdges() ||
        loaded.graph.Rejections().NumArcs() != g.Rejections().NumArcs()) {
      std::cerr << bench_name << ": TEXT LOADER LOST EDGES\n";
      std::abort();
    }
    if (snap.graph != g || !snap.layout.IsIdentity()) {
      std::cerr << bench_name << ": SNAPSHOT ROUND-TRIP DIVERGED\n";
      std::abort();
    }
  }
  std::error_code ec;
  fs::remove_all(dir, ec);  // best-effort scratch cleanup

  std::vector<BenchRecord> records;
  const std::map<std::string, std::string> labels = GraphLabels(g);
  AddKernelRows(records, bench_name, "text_load", labels, items,
                text_samples);
  AddKernelRows(records, bench_name, "snapshot_load", labels, items,
                snap_samples);
  AppendBenchJson(records);
}

void RunCompressedSnapshotProbe(const std::string& bench_name,
                                const graph::AugmentedGraph& g, bool fast) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() / ("rejecto_cprobe_" + bench_name);
  fs::create_directories(dir);
  const std::string v1_path = (dir / "graph.snap").string();
  const std::string v2_path = (dir / "graph.snap2").string();

  // BFS relayout is the compressed format's target regime (neighbor ids
  // cluster, so the per-row deltas stay in the 1-byte varint range). Both
  // files store the same relaid id space, so the loads compare directly.
  graph::SnapshotOptions v1_opts;
  graph::SnapshotOptions v2_opts;
  v2_opts.format = graph::SnapshotFormat::kRjsnap02;
  graph::SaveSnapshotWithPolicy(v1_path, g, graph::LayoutPolicy::kBfs,
                                v1_opts);
  graph::SaveSnapshotWithPolicy(v2_path, g, graph::LayoutPolicy::kBfs,
                                v2_opts);

  const std::int64_t items = static_cast<std::int64_t>(
      g.Friendships().NumEdges() + g.Rejections().NumArcs());
  const int reps = fast ? 2 : 3;
  std::vector<double> v1_samples, v2_samples;
  for (int i = 0; i < reps; ++i) {
    util::WallTimer t1;
    const graph::Snapshot s1 = graph::LoadSnapshot(v1_path);
    v1_samples.push_back(t1.Seconds());

    util::WallTimer t2;
    const graph::Snapshot s2 = graph::LoadSnapshot(v2_path);
    v2_samples.push_back(t2.Seconds());

    if (s1.graph != s2.graph || !(s1.layout == s2.layout)) {
      std::cerr << bench_name << ": RJSNAP02 LOAD DIVERGED FROM RJSNAP01\n";
      std::abort();
    }
  }

  const auto view = graph::CompressedGraphView::Open(v2_path);
  // The v1 adjacency payload is raw u32: both friendship directions plus
  // the out- and in-arc copies of every rejection.
  const std::uint64_t v1_adj_bytes =
      (2 * g.Friendships().NumEdges() + 2 * g.Rejections().NumArcs()) *
      sizeof(graph::NodeId);
  const double ratio = static_cast<double>(view.AdjacencyBlobBytes()) /
                       static_cast<double>(std::max<std::uint64_t>(
                           v1_adj_bytes, 1));
  std::cout << bench_name << ": rjsnap02 adjacency "
            << view.AdjacencyBlobBytes() << "B vs rjsnap01 " << v1_adj_bytes
            << "B (ratio " << ratio << ")\n";
  // Sanity floor only: the attack scenario carries adversarially scattered
  // rejection edges, so the hard <= 0.5x criterion lives with the
  // 100M-edge BFS-locality run (RunCompressedCeilingProbe); here the
  // encoding must simply never lose to raw u32.
  if (ratio >= 1.0) {
    std::cerr << bench_name << ": COMPRESSION DID NOT SHRINK ADJACENCY\n";
    std::abort();
  }

  // Full-pipeline bit-identity: the out-of-core detector against the
  // in-RAM one on the expanded snapshot, same seeds and config. Seed
  // quality is irrelevant here — only divergence is.
  const graph::Snapshot snap = graph::LoadSnapshot(v2_path);
  const graph::NodeId n = view.NumNodes();
  detect::Seeds seeds;
  if (n >= 16) {
    for (graph::NodeId i = 0; i < 8; ++i) seeds.legit.push_back(i);
    for (graph::NodeId i = n - 8; i < n; ++i) seeds.spammer.push_back(i);
  }
  detect::IterativeConfig cfg;
  cfg.maar.seed = 42 * 7919 + 13;
  cfg.maar.num_threads = util::ThreadCount();
  cfg.max_rounds = 2;
  cfg.target_detections = std::max<std::uint64_t>(1, n / 10);

  util::WallTimer t_ram;
  const detect::DetectionResult ram =
      detect::DetectFriendSpammers(snap.graph, seeds, cfg);
  const double ram_s = t_ram.Seconds();

  util::WallTimer t_mm;
  const detect::DetectionResult mm =
      detect::DetectFriendSpammersCompressed(view, seeds, cfg);
  const double mm_s = t_mm.Seconds();

  bool same = ram.detected == mm.detected &&
              ram.rounds.size() == mm.rounds.size();
  for (std::size_t r = 0; same && r < ram.rounds.size(); ++r) {
    const detect::RoundInfo& a = ram.rounds[r];
    const detect::RoundInfo& b = mm.rounds[r];
    same = a.detected == b.detected &&
           a.cut.cross_friendships == b.cut.cross_friendships &&
           a.cut.rejections_into_u == b.cut.rejections_into_u &&
           a.cut.rejections_from_u == b.cut.rejections_from_u && a.k == b.k;
  }
  if (!same) {
    std::cerr << bench_name << ": COMPRESSED DETECTION DIVERGED FROM RAM\n";
    std::abort();
  }

  std::vector<BenchRecord> records;
  std::map<std::string, std::string> labels = GraphLabels(g);
  AddKernelRows(records, bench_name, "snapshot_load_v1", labels, items,
                v1_samples);
  AddKernelRows(records, bench_name, "snapshot_compressed_load", labels,
                items, v2_samples);
  AddKernelRows(records, bench_name, "detect_ram", labels, items, {ram_s});
  AddKernelRows(records, bench_name, "detect_compressed", labels, items,
                {mm_s});
  labels["kernel"] = "detect_compressed";
  records.push_back({bench_name, "peak_rss_bytes",
                     static_cast<double>(PeakRssBytes()), "bytes", labels});
  records.push_back({bench_name, "mapped_bytes",
                     static_cast<double>(view.MappedBytes()), "bytes",
                     labels});
  AppendBenchJson(records);

  std::error_code ec;
  fs::remove_all(dir, ec);  // best-effort scratch cleanup
}

void RunCompressedCeilingProbe(const std::string& bench_name) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() / ("rejecto_ceiling_" + bench_name);
  fs::create_directories(dir);
  const std::string path = (dir / "synthetic_100m.snap2").string();

  gen::StreamSnapshotConfig cfg;
  cfg.num_nodes = 12'500'000;
  cfg.friendship_stubs = 8;  // ~100M undirected edges
  cfg.rejection_stubs = 2;
  cfg.locality_window = 64;
  cfg.seed = util::ExperimentSeed();

  std::cout << bench_name
            << ": streaming ~100M-edge synthetic RJSNAP02 to scratch...\n";
  util::WallTimer t_gen;
  const gen::StreamSnapshotStats stats =
      gen::WriteSyntheticCompressedSnapshot(path, cfg);
  const double gen_s = t_gen.Seconds();
  std::cout << bench_name << ": wrote " << stats.num_edges << " edges, "
            << stats.num_arcs << " arcs, " << stats.file_bytes << "B in "
            << gen_s << "s\n";

  const long long budget_mb = util::GetEnvInt("REJECTO_RSS_BUDGET_MB", 600);
  const std::uint64_t baseline = PeakRssBytes();

  // The <= 0.5x compression acceptance bar, measured where the format is
  // designed to win: a BFS-locality graph (the generator's window keeps
  // deltas in the single-byte varint range, like a relaid social graph).
  const std::uint64_t v1_adj_bytes =
      (2 * stats.num_edges + 2 * stats.num_arcs) * sizeof(graph::NodeId);

  // Decode every block of every CSR, releasing the mmapped pages behind
  // the scan so residency stays bounded no matter how big the file is.
  util::WallTimer t_scan;
  const auto view = graph::CompressedGraphView::Open(path);
  const double ratio = static_cast<double>(view.AdjacencyBlobBytes()) /
                       static_cast<double>(std::max<std::uint64_t>(
                           v1_adj_bytes, 1));
  std::cout << bench_name << ": rjsnap02 adjacency "
            << view.AdjacencyBlobBytes() << "B vs rjsnap01 " << v1_adj_bytes
            << "B (ratio " << ratio << ")\n";
  if (ratio > 0.5) {
    std::cerr << bench_name
              << ": COMPRESSION RATIO EXCEEDS 0.5x ON BFS-LOCALITY GRAPH\n";
    std::abort();
  }
  util::AlignedVector<std::uint32_t> row_offsets;
  util::AlignedVector<graph::NodeId> adj;
  std::uint64_t checksum = 0;
  std::uint64_t release_floor = 0;
  constexpr std::uint64_t kReleaseChunk = 128ull << 20;
  for (int csr = 0; csr < 3; ++csr) {
    for (graph::NodeId b = 0; b < view.NumBlocks(); ++b) {
      view.DecodeBlockInto(csr, b, row_offsets, adj);
      checksum += adj.size() + (adj.empty() ? 0 : adj.back());
      std::uint64_t off = 0;
      std::uint64_t len = 0;
      view.BlockFileRange(csr, b, &off, &len);
      if (off > release_floor + kReleaseChunk) {
        view.Bytes().ReleaseRange(release_floor, off - release_floor);
        release_floor = off;
      }
    }
  }
  const double scan_s = t_scan.Seconds();
  const std::uint64_t peak = PeakRssBytes();
  const std::uint64_t grew = peak > baseline ? peak - baseline : 0;
  std::cout << bench_name << ": scanned all blocks in " << scan_s
            << "s (checksum=" << checksum << "), RSS grew "
            << (grew >> 20) << "MB over baseline (budget " << budget_mb
            << "MB, peak " << (peak >> 20) << "MB)\n";
  if (grew > static_cast<std::uint64_t>(budget_mb) << 20) {
    std::cerr << bench_name << ": 100M-EDGE SCAN EXCEEDED "
              << budget_mb << "MB RSS BUDGET\n";
    std::abort();
  }

  std::vector<BenchRecord> records;
  std::map<std::string, std::string> labels = {
      {"users", std::to_string(cfg.num_nodes)},
      {"edges", std::to_string(stats.num_edges)}};
  AddKernelRows(records, bench_name, "compressed_scan_100m", labels,
                static_cast<std::int64_t>(stats.num_edges + stats.num_arcs),
                {scan_s});
  labels["kernel"] = "compressed_scan_100m";
  records.push_back({bench_name, "peak_rss_bytes", static_cast<double>(peak),
                     "bytes", labels});
  records.push_back({bench_name, "mapped_bytes",
                     static_cast<double>(view.MappedBytes()), "bytes",
                     labels});
  AppendBenchJson(records);

  std::error_code ec;
  fs::remove_all(dir, ec);  // best-effort scratch cleanup
}

}  // namespace rejecto::bench

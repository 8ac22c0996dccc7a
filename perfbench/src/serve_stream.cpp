// serve_stream: the online admission layer under an open-loop event stream.
//
// Input: the facebook §VI-A attack as one sim::ToMutationLog stream. The
// first half is the base graph; the second half is the served stream.
//
// Set-up (three times, median reported): build the base graph, start a
// serve::AdmissionService over it (WAL on, token-bucket + static-list
// policy chain, one detection thread) and force the cold epoch.
//
// Timed phase: one generator thread sends the stream open-loop at a fixed
// rate, chosen so the send takes --seconds, and the service cuts an epoch
// every 1/kEpochs of it. In the gaps between due sends the same thread
// calls Reader::Decide. Each event's freshness runs from its scheduled send
// time until the first decision scored against an epoch containing it. The
// phase ends when the last timed epoch is seen. Busy threads: the
// generator, the service's writer and its detection thread.
//
// Checks: a serial replay of the same events through stream::DeltaGraph,
// stream::WalWriter and engine::RunEpochDetection, cutting epochs at the
// same boundaries, must publish the same final epoch (mask, k, detected),
// and must reproduce every sampled live decision against the replayed epoch
// with the same id. The replay also times each of those calls for the
// traced run.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "detect/incremental.h"
#include "engine/epoch_detector.h"
#include "metrics/classification.h"
#include "serve/admission.h"
#include "serve/policy.h"
#include "stream/delta_graph.h"
#include "stream/wal.h"
#include "util/latency.h"
#include "util/rng.h"

namespace perfbench {
namespace {

constexpr int kSetupReps = 3;
constexpr std::uint64_t kEpochs = 16;  // auto epochs in the timed phase
constexpr std::size_t kMaxSamples = 1 << 16;
// Publication lag must reconcile with snapshot + detect wait + detection
// within this share of it; the rest is queue transit and the generator
// noticing the new epoch.
constexpr double kReconcileTolerance = 0.10;

// Removes the run's WAL directory on every exit path.
struct ScratchDir {
  std::filesystem::path path;
  explicit ScratchDir(std::filesystem::path p) : path(std::move(p)) {
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
};

struct Sampled {
  graph::NodeId sender;
  serve::Decision decision;
};

// What the generator saw when an epoch first showed up in a decision.
struct EpochSeen {
  std::uint64_t id = 0;
  double seen = 0.0;      // steady-clock seconds
  double snapshot = NAN;  // live compact + copy; NaN when not attributable
  double detect = NAN;    // PublishedEpoch::detect_seconds
};

serve::PublishedEpoch Publish(std::uint64_t id, std::uint64_t events,
                              std::shared_ptr<const graph::AugmentedGraph> g,
                              const engine::EpochWarmState& warm,
                              std::vector<graph::NodeId> detected) {
  // Mirrors AdmissionService's publication of a finished epoch.
  serve::PublishedEpoch pe;
  pe.epoch_id = id;
  pe.events_ingested = events;
  pe.graph = std::move(g);
  pe.has_baseline = warm.valid && warm.k > 0.0;
  if (pe.has_baseline) {
    pe.mask = warm.mask;
    pe.mask.resize(pe.graph->NumNodes(), 0);
    pe.k = warm.k;
  }
  pe.detected = std::move(detected);
  return pe;
}

// Stores the timed scores so the scoring calls cannot be optimized away.
volatile double g_score_sink = 0.0;

bool SameEpoch(const serve::PublishedEpoch& a, const serve::PublishedEpoch& b) {
  return a.epoch_id == b.epoch_id && a.events_ingested == b.events_ingested &&
         a.has_baseline == b.has_baseline &&
         a.mask == b.mask && a.k == b.k && a.detected == b.detected &&
         *a.graph == *b.graph;
}

}  // namespace

void RunServeStream(const Args& args, Report& report) {
  const AttackInput in = MakeAttack("facebook", args.seed, 1);
  const std::span<const stream::Event> events = in.log.Events();
  const std::size_t half = events.size() / 2;
  stream::MutationLog base_log(in.log.NumNodes());
  for (std::size_t i = 0; i < half; ++i) base_log.Append(events[i]);
  const std::uint64_t per_epoch = (events.size() - half) / kEpochs;
  const std::size_t timed = per_epoch * kEpochs;
  const double rate = static_cast<double>(timed) / args.seconds;
  std::vector<graph::NodeId> probes(1 << 20);
  {
    util::Rng rng(args.seed * 31 + 5);
    for (graph::NodeId& p : probes) {
      p = in.senders[rng.NextUInt(in.senders.size())];
    }
  }
  std::vector<char> blocklist(in.log.NumNodes(), 0);
  for (graph::NodeId v : in.seeds.spammer) blocklist[v] = 1;

  serve::AdmissionConfig acfg;
  acfg.epoch.detect = in.config;
  acfg.epoch.events_per_epoch = per_epoch;
  acfg.max_readers = 4;
  const ScratchDir wal_dir(".bench_build/perfbench-wal-" +
                           std::to_string(::getpid()));

  // --- set-up ---
  std::vector<double> setups, builds;
  std::unique_ptr<serve::AdmissionService> svc;
  serve::AdmissionService::Reader reader;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    reader = serve::AdmissionService::Reader();
    svc.reset();
    acfg.wal_path = (wal_dir.path / ("live" + std::to_string(rep))).string();
    const double t0 = Now();
    graph::AugmentedGraph base = base_log.BuildAugmentedGraph();
    builds.push_back(Now() - t0);
    svc = std::make_unique<serve::AdmissionService>(std::move(base), in.seeds,
                                                    acfg);
    serve::TokenBucketConfig bucket;
    bucket.num_senders = in.log.NumNodes();
    svc->AddPolicy(std::make_unique<serve::TokenBucketPolicy>(bucket));
    svc->AddPolicy(std::make_unique<serve::StaticListPolicy>(
        blocklist, serve::Verdict::kReject));
    reader = svc->CreateReader();
    svc->ForceEpoch();
    setups.push_back(Now() - t0);
  }
  report.Set("setup_s", Median(setups));
  report.Set("graph.build_s", Median(builds));

  // --- timed phase ---
  const std::uint64_t first_epoch = svc->PublishedEpochId();
  const std::uint64_t last_epoch = first_epoch + kEpochs;
  std::vector<double> sched(timed, 0.0);
  std::vector<double> fresh(timed, 0.0);
  std::vector<EpochSeen> seen;
  std::vector<Sampled> samples;
  samples.reserve(kMaxSamples);
  util::LatencyHistogram submit_ns;
  std::size_t sent = 0, covered = 0, queue_max = 0;
  std::uint64_t decisions = 0, current = first_epoch;
  double gen_lag_max = 0.0;
  bool timed_out = false;
  const double cpu0 = ProcessCpuSeconds();
  const double start = Now();
  for (;;) {
    double now = Now();
    while (sent < timed && start + static_cast<double>(sent) / rate <= now) {
      const double due = start + static_cast<double>(sent) / rate;
      sched[sent] = due;
      gen_lag_max = std::max(gen_lag_max, now - due);
      svc->Submit(events[half + sent]);
      const double after = Now();
      submit_ns.Record(static_cast<std::uint64_t>((after - now) * 1e9));
      queue_max = std::max(queue_max, svc->Stats().queue_depth);
      ++sent;
      now = after;
    }
    const graph::NodeId sender = probes[decisions & (probes.size() - 1)];
    const serve::Decision d = reader.Decide(sender, sent);
    ++decisions;
    if ((decisions & 63) == 0 && samples.size() < kMaxSamples) {
      samples.push_back({sender, d});
    }
    if (d.epoch_id != current) {
      EpochSeen e;
      e.id = current = d.epoch_id;
      e.seen = Now();
      const std::size_t contains =
          std::min<std::size_t>(timed, (e.id - first_epoch) * per_epoch);
      for (; covered < contains; ++covered) {
        fresh[covered] = e.seen - sched[covered];
      }
      if (const auto pe = svc->CurrentEpoch(); pe->epoch_id == e.id) {
        e.detect = pe->detect_seconds;
      }
      // The live snapshot time is this epoch's while the next boundary has
      // not been sent yet.
      if (sent < (e.id - first_epoch + 1) * per_epoch) {
        e.snapshot = svc->Stats().last_snapshot_seconds;
      }
      seen.push_back(e);
      if (current >= last_epoch) break;
    }
    if (now - start > args.seconds + 60.0) {
      timed_out = true;
      break;
    }
  }
  const double wall = Now() - start;
  const double cpu = ProcessCpuSeconds() - cpu0;
  report.Check(!timed_out, "every timed epoch was published");

  // Leftover events (fewer than one epoch) and the final forced epoch.
  for (std::size_t i = half + timed; i < events.size(); ++i) {
    svc->Submit(events[i]);
  }
  const std::uint64_t final_id = svc->ForceEpoch();
  const auto live_final = svc->CurrentEpoch();
  const serve::AdmissionStats stats = svc->Stats();
  const util::LatencyHistogram decide_ns = reader.Latency();
  reader = serve::AdmissionService::Reader();
  svc.reset();

  // --- per-epoch accounting of the timed phase ---
  std::vector<double> lags, snaps, waits, dets;
  double lag_sum = 0.0, parts_sum = 0.0, prev_seen = start;
  bool kept_up = stats.backpressure_yields == 0;
  for (const EpochSeen& e : seen) {
    const std::size_t last = (e.id - first_epoch) * per_epoch - 1;
    const double lag = e.seen - sched[last];
    kept_up = kept_up && lag < static_cast<double>(per_epoch) / rate;
    lags.push_back(lag);
    // The detector is busy with the previous epoch until it publishes.
    const double wait =
        std::max(0.0, prev_seen - (sched[last] + e.snapshot));
    prev_seen = e.seen;
    if (std::isnan(e.snapshot) || std::isnan(e.detect)) continue;
    snaps.push_back(e.snapshot);
    waits.push_back(wait);
    dets.push_back(e.detect);
    lag_sum += lag;
    parts_sum += e.snapshot + wait + e.detect;
  }
  report.Check(kept_up,
               "each epoch was published before the next one was cut");
  const double reconcile_err =
      lag_sum > 0.0 ? std::abs(lag_sum - parts_sum) / lag_sum : 1.0;
  if (report.Trace()) {
    report.Check(reconcile_err <= kReconcileTolerance,
                 "publish lag reconciles with snapshot + wait + detect "
                 "(error " + std::to_string(reconcile_err) + ")");
  }

  report.Set("cpu_s", cpu);
  report.Set("fresh_p50_s", Quantile(fresh, 0.50));
  report.Set("fresh_p99_s", Quantile(fresh, 0.99));
  report.Set("decide_rate", static_cast<double>(decisions) / wall);
  // The live epochs span the whole timed phase, so their median rides out
  // short swings in the host's speed better than the replay's few seconds.
  report.Set("detect_s", Median(dets));
  report.Set("engine.epoch_detect_s", Median(dets));
  report.Set("engine.epoch_detect_max_s",
             dets.empty() ? 0.0 : *std::max_element(dets.begin(), dets.end()));
  report.Set("serve.submit_p99_us", submit_ns.P99() * 1e-3);
  report.Set("serve.queue_depth_max", static_cast<double>(queue_max));
  report.Set("serve.snapshot_s", Median(snaps));
  report.Set("serve.detect_wait_s", Median(waits));
  report.Set("serve.backpressure_yields",
             static_cast<double>(stats.backpressure_yields));
  report.Set("serve.publish_lag_s", Median(lags));
  report.Set("serve.reconcile_err", reconcile_err);
  report.Set("serve.epochs", static_cast<double>(seen.size()));
  report.Set("serve.decide_p50_ns", static_cast<double>(decide_ns.P50()));
  report.Set("serve.decide_p99_ns", static_cast<double>(decide_ns.P99()));
  report.Set("load.gen_lag_max_s", gen_lag_max);

  // --- serial replay: the oracle, and the traced per-call timings ---
  std::sort(samples.begin(), samples.end(),
            [](const Sampled& a, const Sampled& b) {
              return a.decision.epoch_id < b.decision.epoch_id;
            });
  std::size_t next_sample = 0;
  std::uint64_t mismatches = 0, checked = 0;
  std::vector<double> wal_us, apply_ns, compact_s, replay_detect_s;
  std::uint64_t kl_runs = 0, rounds = 0, switches = 0;
  serve::PublishedEpoch replay_final;
  {
    stream::DeltaGraph delta(base_log.BuildAugmentedGraph(), acfg.epoch.delta);
    stream::WalWriter wal((wal_dir.path / "replay").string(), acfg.wal);
    engine::EpochWarmState warm;
    std::uint64_t ingested = 0, since = 0, next_id = first_epoch;
    auto cut = [&] {
      const double t0 = Now();
      delta.Compact();
      compact_s.push_back(Now() - t0);
      auto g = std::make_shared<const graph::AugmentedGraph>(delta.Graph());
      const double t1 = Now();
      engine::EpochDetectionOutput out =
          engine::RunEpochDetection(*g, in.seeds, acfg.epoch, warm, nullptr);
      replay_detect_s.push_back(Now() - t1);
      kl_runs += out.result.total_kl_runs;
      switches += out.result.total_switches;
      rounds += out.result.rounds.size();
      if (out.next_warm.valid) warm = std::move(out.next_warm);
      replay_final = Publish(next_id++, ingested, std::move(g), warm,
                             std::move(out.result.detected));
      for (; next_sample < samples.size() &&
             samples[next_sample].decision.epoch_id <= replay_final.epoch_id;
           ++next_sample) {
        const Sampled& s = samples[next_sample];
        const serve::Decision expect = serve::DecideAgainst(
            replay_final, s.sender, acfg.grey_margin);
        const bool ok =
            s.decision.epoch_id == replay_final.epoch_id &&
            s.decision.score == expect.score &&
            (s.decision.escalated ? s.decision.verdict > expect.verdict
                                  : s.decision.verdict == expect.verdict);
        mismatches += ok ? 0 : 1;
        ++checked;
      }
      since = 0;
    };
    cut();  // the forced cold epoch of the set-up
    for (std::size_t i = half; i < events.size(); ++i) {
      const double t0 = Now();
      wal.Append(events[i]);
      const double t1 = Now();
      delta.Apply(events[i]);
      const double t2 = Now();
      wal_us.push_back((t1 - t0) * 1e6);
      apply_ns.push_back((t2 - t1) * 1e9);
      ++ingested;
      if (++since >= per_epoch) cut();
    }
    cut();  // the final forced epoch
    wal.Close();
  }
  report.Check(checked == samples.size() && mismatches == 0,
               std::to_string(mismatches) + " of " +
                   std::to_string(samples.size()) +
                   " sampled live decisions differ from the serial replay");
  report.Check(final_id == replay_final.epoch_id &&
                   SameEpoch(*live_final, replay_final),
               "final published epoch equals the serial replay's");

  const auto cm = metrics::EvaluateDetection(in.scenario.is_fake,
                                             live_final->detected);
  report.Set("precision", cm.Precision());
  report.Set("engine.replay_detect_s", Median(replay_detect_s));
  const Shares shares = DecideEverySender(*live_final, in);
  report.Set("fake_block_share", shares.fake_block);
  report.Set("legit_admit_share", shares.legit_admit);
  report.Set("stream.wal_append_p50_us", Quantile(wal_us, 0.50));
  report.Set("stream.wal_append_p99_us", Quantile(wal_us, 0.99));
  report.Set("stream.apply_ns", Median(apply_ns));
  report.Set("stream.compact_s", Median(compact_s));
  report.Set("engine.epoch_kl_runs", static_cast<double>(kl_runs));
  report.Set("detect.rounds", static_cast<double>(rounds));
  report.Set("detect.kl_runs", static_cast<double>(kl_runs));
  report.Set("detect.switches", static_cast<double>(switches));
  if (report.Trace() && live_final->has_baseline) {
    std::vector<double> score_ns;
    score_ns.reserve(in.senders.size());
    double gains = 0.0;
    for (graph::NodeId s : in.senders) {
      const double t0 = Now();
      const detect::IncrementalScore sc = detect::ScoreSenderIncremental(
          *live_final->graph, live_final->mask, live_final->k, s);
      score_ns.push_back((Now() - t0) * 1e9);
      gains += sc.gain;
    }
    g_score_sink = gains;
    report.Set("detect.score_ns", Median(score_ns));
  }
  report.Set("peak_rss_mb", PeakRssMb());
}

}  // namespace perfbench

// Figure 19 (repo extension): time-to-detection under the paper's static
// spam campaign, replayed temporally.
//
// The paper evaluates end-state precision/recall; deployment cares how
// EARLY the flag lands. This bench unfolds the §VI-A campaign over
// intervals on the Facebook graph, runs one detection epoch per interval
// (engine::EpochDetector, cold epochs), scores every spammer sub-epoch at
// its 5th/10th/20th/50th request with the O(deg) incremental gain, and
// reports the precision/recall-vs-time curve, the checkpoint recall table,
// and the distribution summary of time-to-detection and
// harm-before-detection.
//
// Divergence guard: with warm starts off, the final epoch must be
// BIT-IDENTICAL to a one-shot batch DetectFriendSpammers over the full
// request log — the temporal harness may not change what the detector
// computes, only when. Any mismatch aborts the bench.
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "detect/iterative.h"
#include "harness.h"
#include "sim/temporal_eval.h"
#include "study/early_detection.h"
#include "util/table.h"

int main() {
  using namespace rejecto;
  const auto ctx = bench::ExperimentContext::FromEnv();
  const auto& legit = bench::Dataset("facebook", ctx);

  sim::TemporalEvalConfig cfg;
  cfg.seed = ctx.seed;
  cfg.adversary = sim::AdversaryKind::kStaticCampaign;
  cfg.num_fakes = ctx.fast ? 150 : 400;
  cfg.num_intervals = ctx.fast ? 5 : 8;
  cfg.requests_per_spammer_per_interval = ctx.fast ? 6 : 8;

  sim::TemporalWorld world(legit, cfg);
  sim::AdaptiveAdversary adversary(world);
  util::Rng seed_rng(ctx.seed ^ 0x5eedbeefULL);
  const auto seeds = world.SampleSeeds(ctx.fast ? 40 : 100,
                                       ctx.fast ? 10 : 30, seed_rng);

  study::EarlyDetectionConfig ecfg;
  ecfg.detect = bench::PaperDetectorConfig(ctx, world.NumFakes());
  const auto res = study::RunEarlyDetection(world, adversary, seeds, ecfg);

  // Guard: final epoch == batch detection on the complete log.
  {
    const auto batch = detect::DetectFriendSpammers(
        world.Log().BuildAugmentedGraph(), seeds, ecfg.detect);
    if (batch.detected != res.final_detection.detected ||
        batch.rounds.size() != res.final_detection.rounds.size()) {
      std::cerr << "DIVERGENCE: temporal final epoch != batch detection on "
                   "the full log\n";
      std::abort();
    }
  }

  util::Table curve({"interval", "requests_replayed", "detected", "precision",
                     "recall", "detect_seconds"});
  curve.set_precision(4);
  for (const auto& p : res.curve) {
    curve.AddRow({static_cast<std::int64_t>(p.interval),
                  static_cast<std::int64_t>(p.requests_replayed),
                  static_cast<std::int64_t>(p.num_detected), p.precision,
                  p.recall, p.detect_seconds});
  }
  ctx.Emit("fig19_curve",
           "Figure 19a: precision/recall vs time (static campaign, facebook)",
           curve);

  util::Table cps({"requests_sent", "spammers_scored", "flagged", "recall"});
  cps.set_precision(4);
  for (const auto& cp : res.checkpoints) {
    cps.AddRow({static_cast<std::int64_t>(cp.requests),
                static_cast<std::int64_t>(cp.scored),
                static_cast<std::int64_t>(cp.flagged), cp.Recall()});
  }
  ctx.Emit("fig19_checkpoints",
           "Figure 19b: sub-epoch incremental recall at request checkpoints",
           cps);

  util::Table agg({"spammers", "detected", "undetected",
                   "mean_time_to_detection", "mean_harm_before_detection",
                   "incremental_flags"});
  agg.set_precision(4);
  agg.AddRow({static_cast<std::int64_t>(res.spammers_total),
              static_cast<std::int64_t>(res.spammers_detected),
              static_cast<std::int64_t>(res.spammers_total -
                                        res.spammers_detected),
              res.mean_time_to_detection, res.mean_harm_before_detection,
              static_cast<std::int64_t>(res.incremental_flags)});
  ctx.Emit("fig19_summary", "Figure 19c: time-to-detection summary", agg);

  std::vector<bench::BenchRecord> records;
  bench::AddTemporalRows(records, "bench_fig19",
                         std::string(sim::AdversaryName(cfg.adversary)),
                         static_cast<std::int64_t>(world.NumLegit()), res);
  bench::AppendBenchJson(records);

  std::cout << "\nShape check: recall climbs across epochs while"
               " time-to-detection stays a small fraction of the campaign"
               " budget; the final epoch is bit-identical to batch.\n";
  return 0;
}

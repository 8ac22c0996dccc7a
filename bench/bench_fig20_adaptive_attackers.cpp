// Figure 20 (repo extension): adaptive adversaries vs the temporal
// detector.
//
// Replays the same Facebook-based temporal world under all four adversary
// strategies (sim/temporal_eval.h) — the static §VI-A campaign and three
// adaptive ones that consume the evolving rejection/detection state
// (probe-then-flood, rejection-aware retargeting, slow-drip collusion) —
// and compares time-to-detection, harm-before-detection, and final
// detection quality.
//
// Acceptance guard (the point of the figure): adaptivity must BUY the
// attacker something measurable — at least one adaptive strategy must
// worsen at least one defender metric vs the static baseline (more harm
// before detection, longer survival, or lower final recall). If every
// adaptive strategy is dominated by static, the adversary model is
// toothless and the bench aborts.
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "harness.h"
#include "sim/temporal_eval.h"
#include "study/early_detection.h"
#include "util/table.h"

int main() {
  using namespace rejecto;
  const auto ctx = bench::ExperimentContext::FromEnv();
  const auto& legit = bench::Dataset("facebook", ctx);

  const std::vector<sim::AdversaryKind> kinds = {
      sim::AdversaryKind::kStaticCampaign,
      sim::AdversaryKind::kProbeThenFlood,
      sim::AdversaryKind::kRejectionRetarget,
      sim::AdversaryKind::kSlowDripCollusion,
  };

  struct RunSummary {
    sim::AdversaryKind kind;
    study::EarlyDetectionResult res;
    std::int64_t users = 0;
  };
  std::vector<RunSummary> runs;
  for (sim::AdversaryKind kind : kinds) {
    sim::TemporalEvalConfig cfg;
    cfg.seed = ctx.seed;
    cfg.adversary = kind;
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
    RunSummary run;
    run.kind = kind;
    run.res = study::RunEarlyDetection(world, adversary, seeds, ecfg);
    run.users = static_cast<std::int64_t>(world.NumLegit());
    runs.push_back(std::move(run));
  }

  util::Table t({"adversary", "spam_requests", "spam_accepted", "detected",
                 "undetected", "mean_ttd", "mean_harm", "final_recall",
                 "recall_at_10"});
  t.set_precision(4);
  auto recall_at = [](const study::EarlyDetectionResult& r, std::uint32_t n) {
    for (const auto& cp : r.checkpoints) {
      if (cp.requests == n) return cp.Recall();
    }
    return 0.0;
  };
  for (const auto& run : runs) {
    const auto& r = run.res;
    t.AddRow({std::string(sim::AdversaryName(run.kind)),
              static_cast<std::int64_t>(r.total_spam_requests),
              static_cast<std::int64_t>(r.total_spam_accepted),
              static_cast<std::int64_t>(r.spammers_detected),
              static_cast<std::int64_t>(r.spammers_total -
                                        r.spammers_detected),
              r.mean_time_to_detection, r.mean_harm_before_detection,
              r.curve.back().recall, recall_at(r, 10)});
  }
  ctx.Emit("fig20",
           "Figure 20: adaptive adversaries vs temporal detection (facebook)",
           t);

  // Acceptance guard: adaptivity must worsen >= 1 defender metric somewhere.
  const auto& base = runs.front().res;
  bool adaptive_wins_something = false;
  for (std::size_t i = 1; i < runs.size(); ++i) {
    const auto& r = runs[i].res;
    const bool more_harm =
        r.mean_harm_before_detection > base.mean_harm_before_detection;
    const bool survives_longer =
        r.mean_time_to_detection > base.mean_time_to_detection;
    const bool lower_recall = r.curve.back().recall < base.curve.back().recall;
    const bool more_undetected =
        (r.spammers_total - r.spammers_detected) >
        (base.spammers_total - base.spammers_detected);
    if (more_harm || survives_longer || lower_recall || more_undetected) {
      adaptive_wins_something = true;
    }
  }
  if (!adaptive_wins_something) {
    std::cerr << "DIVERGENCE: no adaptive adversary worsened any metric vs "
                 "the static baseline — adversary model is toothless\n";
    std::abort();
  }

  std::vector<bench::BenchRecord> records;
  for (const auto& run : runs) {
    bench::AddTemporalRows(records, "bench_fig20",
                           std::string(sim::AdversaryName(run.kind)),
                           run.users, run.res);
  }
  bench::AppendBenchJson(records);

  std::cout << "\nShape check: at least one adaptive strategy lands more harm"
               " or survives longer than the static campaign.\n";
  return 0;
}

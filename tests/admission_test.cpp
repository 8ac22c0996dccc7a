// serve::AdmissionService differential + policy-chain suite.
//
// The load-bearing invariant (ISSUE: concurrent admission): replaying the
// SAME interleaved trace serially (EpochDetector oracle) and concurrently
// (AdmissionService with 1/2/8 reader threads deciding mid-ingest) must
// produce (a) identical epoch content — the oracle's per-epoch baseline
// reproduces every published decision exactly, given the published-epoch id
// the decision carries — and (b) a final state bit-identical to the batch
// build of the event log. Decisions are pure functions of (epoch, sender),
// so the differential conditions on the epoch id rather than on scheduling.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "detect/iterative.h"
#include "engine/epoch_detector.h"
#include "gen/erdos_renyi.h"
#include "graph/builder.h"
#include "serve/admission.h"
#include "serve/mpsc_queue.h"
#include "serve/policy.h"
#include "serve/published_epoch.h"
#include "sim/scenario.h"
#include "sim/stream_feed.h"
#include "stream/mutation_log.h"
#include "util/rng.h"

namespace rejecto {
namespace {

using serve::AdmissionConfig;
using serve::AdmissionService;
using serve::Decision;
using serve::PublishedEpoch;
using serve::Verdict;
using stream::MutationLog;

// ---------- MpscQueue ----------

TEST(MpscQueue, FifoAndWraparound) {
  serve::MpscQueue<int> q(4);
  EXPECT_EQ(q.Capacity(), 4u);
  int out = 0;
  EXPECT_FALSE(q.TryPop(out));
  for (int lap = 0; lap < 5; ++lap) {
    for (int i = 0; i < 4; ++i) EXPECT_TRUE(q.TryPush(lap * 10 + i));
    EXPECT_FALSE(q.TryPush(99));  // full
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE(q.TryPop(out));
      EXPECT_EQ(out, lap * 10 + i);
    }
    EXPECT_FALSE(q.TryPop(out));  // empty again
  }
}

TEST(MpscQueue, ConcurrentProducersDeliverEverySumOnce) {
  serve::MpscQueue<std::uint64_t> q(256);
  constexpr int kProducers = 4;
  constexpr std::uint64_t kPerProducer = 20'000;
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&q, p] {
      for (std::uint64_t i = 0; i < kPerProducer; ++i) {
        const std::uint64_t v = static_cast<std::uint64_t>(p) * kPerProducer
                                + i + 1;
        while (!q.TryPush(v)) std::this_thread::yield();
      }
    });
  }
  std::uint64_t sum = 0;
  std::uint64_t popped = 0;
  const std::uint64_t total = kProducers * kPerProducer;
  while (popped < total) {
    std::uint64_t v = 0;
    if (q.TryPop(v)) {
      sum += v;
      ++popped;
    } else {
      std::this_thread::yield();
    }
  }
  for (auto& t : producers) t.join();
  EXPECT_EQ(sum, total * (total + 1) / 2);
  std::uint64_t v = 0;
  EXPECT_FALSE(q.TryPop(v));
}

// ---------- policy chain ----------

TEST(TokenBucketPolicy, BurstsExhaustAndRefill) {
  serve::TokenBucketConfig cfg;
  cfg.capacity = 2.0;
  cfg.refill_per_tick = 1.0;
  cfg.on_limit = Verdict::kGrey;
  cfg.num_senders = 4;
  serve::TokenBucketPolicy bucket(cfg);
  const PublishedEpoch epoch;
  const Decision base;
  const auto eval = [&](graph::NodeId s, std::uint64_t t) {
    return bucket.Evaluate({s, t, epoch, base}, Verdict::kAdmit);
  };
  // Burst of 3 at t=0: two tokens, then limited.
  EXPECT_EQ(eval(0, 0), Verdict::kAdmit);
  EXPECT_EQ(eval(0, 0), Verdict::kAdmit);
  EXPECT_EQ(eval(0, 0), Verdict::kGrey);
  // Another sender's bucket is untouched.
  EXPECT_EQ(eval(1, 0), Verdict::kAdmit);
  // One tick refills one token.
  EXPECT_EQ(eval(0, 1), Verdict::kAdmit);
  EXPECT_EQ(eval(0, 1), Verdict::kGrey);
  // A long gap refills to capacity, not beyond.
  EXPECT_EQ(eval(0, 1000), Verdict::kAdmit);
  EXPECT_EQ(eval(0, 1000), Verdict::kAdmit);
  EXPECT_EQ(eval(0, 1000), Verdict::kGrey);
  // Out-of-order logical time: treated as zero elapsed, never a refill.
  EXPECT_EQ(eval(0, 500), Verdict::kGrey);
  // Senders past the table pass through.
  EXPECT_EQ(eval(1000, 0), Verdict::kAdmit);
  // Escalation only: a kReject incoming verdict is never downgraded.
  EXPECT_EQ(bucket.Evaluate({0, 2000, epoch, base}, Verdict::kReject),
            Verdict::kReject);
}

TEST(StaticListPolicy, EscalatesFlaggedOnly) {
  serve::StaticListPolicy list({0, 1, 0}, Verdict::kReject);
  const PublishedEpoch epoch;
  const Decision base;
  EXPECT_EQ(list.Evaluate({0, 0, epoch, base}, Verdict::kAdmit),
            Verdict::kAdmit);
  EXPECT_EQ(list.Evaluate({1, 0, epoch, base}, Verdict::kAdmit),
            Verdict::kReject);
  EXPECT_EQ(list.Evaluate({1, 0, epoch, base}, Verdict::kGrey),
            Verdict::kReject);
  EXPECT_EQ(list.Evaluate({7, 0, epoch, base}, Verdict::kGrey),
            Verdict::kGrey);
}

// ---------- service workload ----------

struct Workload {
  MutationLog log;
  detect::Seeds seeds;
  graph::NodeId num_fakes = 0;
};

Workload MakeWorkload(std::uint64_t seed) {
  util::Rng rng(seed + 61);
  const auto legit =
      gen::ErdosRenyi({.num_nodes = 300, .num_edges = 1200}, rng);
  sim::ScenarioConfig cfg;
  cfg.seed = seed * 5 + 3;
  cfg.num_fakes = 60;
  const auto scenario = sim::BuildScenario(legit, cfg);
  util::Rng seed_rng(seed + 9);
  sim::ChurnConfig churn;
  churn.seed = seed + 29;
  return {sim::GenerateChurnLog(scenario.log, churn),
          scenario.SampleSeeds(15, 5, seed_rng), cfg.num_fakes};
}

engine::EpochConfig ServiceEpochConfig(const Workload& w) {
  engine::EpochConfig ecfg;
  ecfg.detect.target_detections = w.num_fakes;
  ecfg.detect.maar.seed = 23;
  ecfg.detect.maar.num_threads = 1;
  ecfg.warm_start = true;
  ecfg.events_per_epoch = w.log.NumEvents() / 4 + 1;
  return ecfg;
}

// The serial oracle: one EpochDetector replay of the trace, capturing the
// scoring baseline after every epoch. Index = published epoch id (0 is the
// bootstrap: no baseline, every sender admits).
std::vector<PublishedEpoch> BuildOracle(const Workload& w,
                                        const engine::EpochConfig& ecfg) {
  std::vector<PublishedEpoch> epochs;
  epochs.emplace_back();  // bootstrap: has_baseline = false
  engine::EpochDetector det(w.log.NumNodes(), w.seeds, ecfg);
  const auto capture = [&] {
    PublishedEpoch pe;
    pe.epoch_id = epochs.size();
    pe.graph =
        std::make_shared<const graph::AugmentedGraph>(det.Graph().Graph());
    pe.has_baseline = det.HasIncrementalBaseline();
    if (pe.has_baseline) {
      pe.mask = det.IncrementalMask();
      pe.mask.resize(pe.graph->NumNodes(), 0);
      pe.k = det.IncrementalK();
    }
    pe.detected = det.LastResult().detected;
    epochs.push_back(std::move(pe));
  };
  for (const stream::Event& e : w.log.Events()) {
    if (det.Ingest(e) != nullptr) capture();
  }
  det.RunEpoch();  // the trailing ForceEpoch
  capture();
  return epochs;
}

struct RecordedDecision {
  graph::NodeId sender = 0;
  Decision decision;
};

class AdmissionDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(AdmissionDifferentialTest, ConcurrentDecisionsMatchSerialOracle) {
  const int num_readers = GetParam();
  const Workload w = MakeWorkload(1);
  const engine::EpochConfig ecfg = ServiceEpochConfig(w);
  const std::vector<PublishedEpoch> oracle = BuildOracle(w, ecfg);
  constexpr double kGreyMargin = 2.0;

  AdmissionConfig cfg;
  cfg.epoch = ecfg;
  cfg.grey_margin = kGreyMargin;
  AdmissionService svc(
      graph::GraphBuilder(w.log.NumNodes()).BuildAugmented(), w.seeds, cfg);

  std::atomic<bool> stop{false};
  std::vector<std::vector<RecordedDecision>> recorded(num_readers);
  std::vector<std::thread> readers;
  for (int r = 0; r < num_readers; ++r) {
    AdmissionService::Reader reader = svc.CreateReader();
    readers.emplace_back(
        [&stop, &recorded, r, n = w.log.NumNodes(),
         rd = std::move(reader)]() mutable {
          util::Rng rng(r * 7919 + 17);
          std::uint64_t t = 0;
          auto& out = recorded[r];
          out.reserve(1 << 14);
          while (!stop.load(std::memory_order_acquire)) {
            const auto sender =
                static_cast<graph::NodeId>(rng.NextUInt(n + 8));
            out.push_back({sender, rd.Decide(sender, t++)});
            if ((t & 63) == 0) std::this_thread::yield();  // 1-core box
            if (out.size() >= (1u << 16)) break;           // bound memory
          }
        });
  }

  for (const stream::Event& e : w.log.Events()) svc.Submit(e);
  svc.Drain();
  const std::uint64_t final_id = svc.ForceEpoch();
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();

  // Epoch ids and count match the oracle exactly.
  ASSERT_EQ(final_id + 1, oracle.size());
  const auto current = svc.CurrentEpoch();
  ASSERT_NE(current, nullptr);
  EXPECT_EQ(current->epoch_id, final_id);
  EXPECT_EQ(svc.Stats().epochs_published, final_id);

  // Final state bit-identical to the batch build, and the final epoch's
  // content bit-identical to the serial oracle's.
  EXPECT_EQ(*current->graph, w.log.BuildAugmentedGraph());
  EXPECT_EQ(*current->graph, *oracle.back().graph);
  EXPECT_EQ(current->detected, oracle.back().detected);
  EXPECT_EQ(current->mask, oracle.back().mask);
  EXPECT_EQ(current->k, oracle.back().k);

  // Every concurrent decision is reproduced by the oracle epoch it was
  // scored against — the divergence count must be exactly zero.
  std::uint64_t checked = 0;
  for (const auto& per_reader : recorded) {
    for (const RecordedDecision& rec : per_reader) {
      ASSERT_LT(rec.decision.epoch_id, oracle.size());
      const Decision expect = serve::DecideAgainst(
          oracle[rec.decision.epoch_id], rec.sender, kGreyMargin);
      ASSERT_EQ(rec.decision.verdict, expect.verdict)
          << "sender=" << rec.sender << " epoch=" << rec.decision.epoch_id;
      ASSERT_EQ(rec.decision.score, expect.score)
          << "sender=" << rec.sender << " epoch=" << rec.decision.epoch_id;
      EXPECT_FALSE(rec.decision.escalated);  // no policies in this service
      ++checked;
    }
  }
  EXPECT_GT(checked, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    ReaderWidths, AdmissionDifferentialTest,
    ::testing::Values(1, 2, 8));

// With warm starts off and a single forced epoch, the published detection
// must be EXACTLY the batch pipeline's on the final graph.
TEST(AdmissionService, ColdForcedEpochEqualsBatchDetection) {
  const Workload w = MakeWorkload(2);
  engine::EpochConfig ecfg = ServiceEpochConfig(w);
  ecfg.warm_start = false;
  ecfg.events_per_epoch = 0;  // ForceEpoch only

  AdmissionConfig cfg;
  cfg.epoch = ecfg;
  AdmissionService svc(
      graph::GraphBuilder(w.log.NumNodes()).BuildAugmented(), w.seeds, cfg);
  for (const stream::Event& e : w.log.Events()) svc.Submit(e);
  const std::uint64_t id = svc.ForceEpoch();
  EXPECT_EQ(id, 1u);

  const graph::AugmentedGraph batch_graph = w.log.BuildAugmentedGraph();
  const auto batch =
      detect::DetectFriendSpammers(batch_graph, w.seeds, ecfg.detect);
  const auto epoch = svc.CurrentEpoch();
  ASSERT_NE(epoch, nullptr);
  EXPECT_EQ(*epoch->graph, batch_graph);
  EXPECT_EQ(epoch->detected, batch.detected);
  ASSERT_TRUE(epoch->has_baseline);
  ASSERT_FALSE(batch.rounds.empty());
  EXPECT_EQ(epoch->k, batch.rounds.front().k);
}

TEST(AdmissionService, BootstrapAdmitsEverythingAndChainEscalates) {
  // Tiny empty graph, no events: only the bootstrap epoch exists.
  AdmissionConfig cfg;
  cfg.epoch.events_per_epoch = 0;
  AdmissionService svc(graph::GraphBuilder(16).BuildAugmented(),
                       detect::Seeds{}, cfg);
  serve::TokenBucketConfig tb;
  tb.capacity = 1.0;
  tb.refill_per_tick = 0.0;  // never refills: second request always greys
  tb.num_senders = 16;
  svc.AddPolicy(std::make_unique<serve::TokenBucketPolicy>(tb));
  svc.AddPolicy(std::make_unique<serve::StaticListPolicy>(
      std::vector<char>{0, 0, 0, 1}, Verdict::kReject));

  auto reader = svc.CreateReader();
  // The chain freezes once a reader exists.
  EXPECT_THROW(svc.AddPolicy(std::make_unique<serve::StaticListPolicy>(
                   std::vector<char>{1}, Verdict::kGrey)),
               std::logic_error);

  const Decision first = reader.Decide(0, 0);
  EXPECT_EQ(first.verdict, Verdict::kAdmit);
  EXPECT_EQ(first.epoch_id, 0u);
  EXPECT_EQ(first.score, 0.0);
  EXPECT_FALSE(first.escalated);

  const Decision limited = reader.Decide(0, 0);  // bucket is empty now
  EXPECT_EQ(limited.verdict, Verdict::kGrey);
  EXPECT_TRUE(limited.escalated);

  const Decision listed = reader.Decide(3, 0);  // blocklisted sender
  EXPECT_EQ(listed.verdict, Verdict::kReject);
  EXPECT_TRUE(listed.escalated);

  EXPECT_EQ(reader.Decisions(), 3u);
  EXPECT_EQ(reader.Admitted(), 1u);
  EXPECT_EQ(reader.Greyed(), 1u);
  EXPECT_EQ(reader.Rejected(), 1u);
  EXPECT_EQ(reader.Escalated(), 2u);
  EXPECT_EQ(reader.Latency().Count(), 3u);
}

TEST(AdmissionService, StatsAndDrainAccounting) {
  const Workload w = MakeWorkload(3);
  engine::EpochConfig ecfg = ServiceEpochConfig(w);
  ecfg.events_per_epoch = 0;
  AdmissionConfig cfg;
  cfg.epoch = ecfg;
  AdmissionService svc(
      graph::GraphBuilder(w.log.NumNodes()).BuildAugmented(), w.seeds, cfg);
  for (const stream::Event& e : w.log.Events()) svc.Submit(e);
  svc.Drain();
  const auto s = svc.Stats();
  EXPECT_EQ(s.events_submitted, w.log.NumEvents());
  EXPECT_EQ(s.events_ingested, w.log.NumEvents());
  EXPECT_EQ(s.events_applied + s.events_noop, s.events_ingested);
  EXPECT_EQ(s.epochs_published, 0u);
  svc.ForceEpoch();
  EXPECT_EQ(svc.Stats().epochs_published, 1u);
  EXPECT_EQ(svc.Stats().published_events, w.log.NumEvents());
  svc.Stop();
  EXPECT_FALSE(svc.TrySubmit({stream::EventType::kAddFriend, 0, 1}));
}

TEST(AdmissionService, RejectsSelfEdgeAtSubmission) {
  AdmissionConfig cfg;
  cfg.epoch.events_per_epoch = 0;
  AdmissionService svc(graph::GraphBuilder(4).BuildAugmented(),
                       detect::Seeds{}, cfg);
  EXPECT_THROW(svc.Submit({stream::EventType::kAddFriend, 2, 2}),
               std::invalid_argument);
}

}  // namespace
}  // namespace rejecto

// Sub-epoch incremental scoring (detect/incremental.h and the DeltaGraph /
// EpochDetector seam): the O(deg) gain must be EXACTLY the objective delta
// W(U ∪ {s}) − W(U) against the batch ComputeCut oracle, the overlay-aware
// detector variant must match the compacted-CSR variant with events still
// in the overlay, and — the acceptance bar — the incremental classification
// must agree with a full re-detection's round-0 membership on at least 95%
// of clearly-shaped new senders.
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <vector>

#include "detect/incremental.h"
#include "detect/iterative.h"
#include "engine/epoch_detector.h"
#include "gen/erdos_renyi.h"
#include "sim/scenario.h"
#include "stream/delta_graph.h"
#include "stream/mutation_log.h"
#include "util/rng.h"

namespace rejecto {
namespace {

double Objective(const graph::AugmentedGraph& g, const std::vector<char>& u,
                 double k) {
  const graph::CutQuantities cut = g.ComputeCut(u);
  return static_cast<double>(cut.cross_friendships) -
         k * static_cast<double>(cut.rejections_into_u);
}

sim::Scenario SmallScenario(std::uint64_t seed) {
  util::Rng rng(seed + 17);
  const auto legit =
      gen::ErdosRenyi({.num_nodes = 400, .num_edges = 1600}, rng);
  sim::ScenarioConfig cfg;
  cfg.seed = seed * 5 + 3;
  cfg.num_fakes = 80;
  return sim::BuildScenario(legit, cfg);
}

// ---------- exact-gain oracle ----------

TEST(IncrementalScoreTest, GainIsExactObjectiveDelta) {
  const auto scenario = SmallScenario(1);
  const graph::AugmentedGraph& g = scenario.graph;
  util::Rng rng(99);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<char> in_u(g.NumNodes(), 0);
    for (graph::NodeId v = 0; v < g.NumNodes(); ++v) {
      in_u[v] = rng.NextBool(0.2) ? 1 : 0;
    }
    const double k = rng.NextDouble(0.25, 4.0);
    auto s = static_cast<graph::NodeId>(rng.NextUInt(g.NumNodes()));
    in_u[s] = 0;  // score a sender outside U

    const auto score = detect::ScoreSenderIncremental(g, in_u, k, s);
    std::vector<char> with_s = in_u;
    with_s[s] = 1;
    const double oracle = Objective(g, with_s, k) - Objective(g, in_u, k);
    EXPECT_NEAR(score.gain, oracle, 1e-9) << "trial " << trial << " s=" << s;
    EXPECT_EQ(score.suspicious, score.gain < 0.0);
  }
}

TEST(IncrementalScoreTest, MemberOfMaskIsSuspiciousWithZeroGain) {
  const auto scenario = SmallScenario(2);
  std::vector<char> in_u(scenario.graph.NumNodes(), 0);
  in_u[7] = 1;
  const auto score = detect::ScoreSenderIncremental(scenario.graph, in_u,
                                                    1.0, 7);
  EXPECT_TRUE(score.suspicious);
  EXPECT_EQ(score.gain, 0.0);
}

TEST(IncrementalScoreTest, RejectsInvalidArguments) {
  const auto scenario = SmallScenario(3);
  const graph::AugmentedGraph& g = scenario.graph;
  std::vector<char> in_u(g.NumNodes(), 0);
  EXPECT_THROW(detect::ScoreSenderIncremental(g, in_u, 0.0, 0),
               std::invalid_argument);
  EXPECT_THROW(detect::ScoreSenderIncremental(g, in_u, -1.0, 0),
               std::invalid_argument);
  EXPECT_THROW(detect::ScoreSenderIncremental(g, in_u, 1.0, g.NumNodes()),
               std::out_of_range);
  std::vector<char> short_mask(g.NumNodes() - 1, 0);
  EXPECT_THROW(detect::ScoreSenderIncremental(g, short_mask, 1.0, 0),
               std::invalid_argument);
}

// ---------- the overlay-aware detector variant ----------

// Events since the last epoch sit in the un-compacted overlay: a new
// sender's whole history, plus a trickle of friendships among existing
// nodes (~2% of them) — the admission service's steady state, where most
// senders take the untouched-row fast path and a few resolve overlay rows.
// Every sender's overlay-aware score must equal the pure-CSR score on the
// compacted graph, bit for bit.
TEST(IncrementalScoreTest, DetectorScoreMatchesCsrScoreWithOverlayEvents) {
  const auto scenario = SmallScenario(4);
  util::Rng seed_rng(11);
  const auto seeds = scenario.SampleSeeds(15, 5, seed_rng);

  engine::EpochConfig ecfg;
  ecfg.detect.target_detections = scenario.num_fakes;
  ecfg.detect.maar.seed = 23;
  ecfg.events_per_epoch = 0;
  engine::EpochDetector det(scenario.graph, seeds, ecfg);
  det.RunEpoch();
  ASSERT_TRUE(det.HasIncrementalBaseline());

  const graph::NodeId n = scenario.graph.NumNodes();
  const graph::NodeId s = n;  // joins after the baseline epoch
  util::Rng rng(5);
  std::vector<stream::Event> events;
  for (int i = 0; i < 6; ++i) {
    const auto v = static_cast<graph::NodeId>(
        rng.NextUInt(scenario.num_legit));
    events.push_back({stream::EventType::kReject, s, v});
    events.push_back({stream::EventType::kAccept, s,
                      static_cast<graph::NodeId>(
                          scenario.num_legit +
                          rng.NextUInt(scenario.num_fakes))});
  }
  for (graph::NodeId i = 0; i < n / 100; ++i) {
    const auto a = static_cast<graph::NodeId>(rng.NextUInt(n));
    const auto b = static_cast<graph::NodeId>(rng.NextUInt(n));
    if (a != b) events.push_back({stream::EventType::kAddFriend, a, b});
  }
  for (const stream::Event& e : events) det.Ingest(e);

  // Replay the same events on a standalone DeltaGraph, compact it into a
  // full CSR, and score against the pure-CSR implementation.
  stream::DeltaGraph delta(scenario.graph);
  for (const stream::Event& e : events) delta.Apply(e);
  delta.Compact();
  std::vector<char> mask = det.IncrementalMask();
  mask.resize(delta.Graph().NumNodes(), 0);
  const double k = det.IncrementalK();
  for (graph::NodeId v = 0; v < delta.Graph().NumNodes(); ++v) {
    const auto overlay_score = det.ScoreSenderIncremental(v);
    const auto csr_score =
        detect::ScoreSenderIncremental(delta.Graph(), mask, k, v);
    ASSERT_EQ(overlay_score.gain, csr_score.gain) << "sender " << v;
    ASSERT_EQ(overlay_score.suspicious, csr_score.suspicious)
        << "sender " << v;
  }
}

TEST(IncrementalScoreTest, DetectorThrowsWithoutBaseline) {
  const auto scenario = SmallScenario(5);
  util::Rng seed_rng(11);
  const auto seeds = scenario.SampleSeeds(15, 5, seed_rng);
  engine::EpochConfig ecfg;
  ecfg.detect.target_detections = scenario.num_fakes;
  ecfg.events_per_epoch = 0;
  engine::EpochDetector det(scenario.graph, seeds, ecfg);
  EXPECT_FALSE(det.HasIncrementalBaseline());
  EXPECT_THROW(det.ScoreSenderIncremental(0), std::logic_error);
}

// ---------- agreement with full re-detection (the acceptance bar) ----------

// New senders with a clear shape — spammy (mostly-rejected requests plus
// friendships into the fake region) or benign (accepted requests to
// legitimate users) — must be classified by the O(deg) incremental score
// the same way a full batch re-detection's round-0 region places them, on
// at least 95% of samples. The floor is pinned; a regression in either the
// solver or the incremental math trips it.
TEST(IncrementalScoreTest, AgreesWithFullRedetectionOnNewSenders) {
  const auto scenario = SmallScenario(6);
  detect::IterativeConfig dcfg;
  dcfg.target_detections = scenario.num_fakes;
  dcfg.maar.seed = 23;
  util::Rng seed_rng(11);
  const auto seeds = scenario.SampleSeeds(15, 5, seed_rng);

  const auto base = detect::DetectFriendSpammers(scenario.graph, seeds, dcfg);
  ASSERT_FALSE(base.rounds.empty());
  const double k = base.rounds.front().k;
  std::vector<char> mask(scenario.graph.NumNodes() + 1, 0);
  for (graph::NodeId v : base.rounds.front().detected) mask[v] = 1;

  util::Rng rng(2718);
  const graph::NodeId s = scenario.graph.NumNodes();  // the new sender's id
  int trials = 0;
  int agreements = 0;
  for (int t = 0; t < 40; ++t) {
    const bool spammy = (t % 2) == 0;
    sim::RequestLog log(s + 1);
    for (const sim::FriendRequest& r : scenario.log.Requests()) {
      log.Add(r.sender, r.receiver, r.response);
    }
    if (spammy) {
      for (std::uint64_t v :
           rng.SampleWithoutReplacement(scenario.num_legit, 10)) {
        log.Add(s, static_cast<graph::NodeId>(v),
                rng.NextBool(0.75) ? sim::Response::kRejected
                                   : sim::Response::kAccepted);
      }
      for (std::uint64_t f :
           rng.SampleWithoutReplacement(scenario.num_fakes, 5)) {
        log.Add(s, static_cast<graph::NodeId>(scenario.num_legit + f),
                sim::Response::kAccepted);
      }
    } else {
      for (std::uint64_t v :
           rng.SampleWithoutReplacement(scenario.num_legit, 8)) {
        log.Add(s, static_cast<graph::NodeId>(v),
                rng.NextBool(0.9) ? sim::Response::kAccepted
                                  : sim::Response::kRejected);
      }
    }
    const graph::AugmentedGraph with_s = log.BuildAugmentedGraph();
    const auto incr = detect::ScoreSenderIncremental(with_s, mask, k, s);

    // Full re-detection sees one more account in its population estimate.
    detect::IterativeConfig rcfg = dcfg;
    rcfg.target_detections = scenario.num_fakes + 1;
    const auto redetect = detect::DetectFriendSpammers(with_s, seeds, rcfg);
    ASSERT_FALSE(redetect.rounds.empty());
    bool in_round0 = false;
    for (graph::NodeId v : redetect.rounds.front().detected) {
      if (v == s) in_round0 = true;
    }
    ++trials;
    if (in_round0 == incr.suspicious) ++agreements;
  }
  const double agreement =
      static_cast<double>(agreements) / static_cast<double>(trials);
  EXPECT_GE(agreement, 0.95) << agreements << "/" << trials;
}

}  // namespace
}  // namespace rejecto

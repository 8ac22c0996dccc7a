// Shared pieces of the perfbench workloads: the seeded attack input, the
// metric registry every run reports through, and small measurement helpers.
//
// Inputs are generated before any set-up or timed phase starts, so neither
// setup_s nor a timed phase ever includes input generation.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "detect/iterative.h"
#include "detect/seeds.h"
#include "graph/augmented_graph.h"
#include "serve/published_epoch.h"
#include "sim/scenario.h"
#include "stream/mutation_log.h"

namespace perfbench {

using namespace rejecto;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
};

// Collects one run's metrics and output checks, and prints the result line.
// The active list is the end-to-end one (untraced run) or the per-layer one
// (traced run). Set() drops names of the other list and throws on a name of
// neither; Print() prints every name of the active list, so a layer a
// workload does not exercise reads 0.
class Report {
 public:
  explicit Report(bool trace);

  void Set(const std::string& name, double value);
  // Counts one checked operation; a failed check is logged to stderr and
  // counted in `failed`.
  void Check(bool ok, const std::string& what);

  bool Trace() const noexcept { return trace_; }
  std::uint64_t Attempted() const noexcept { return attempted_; }
  std::uint64_t Failed() const noexcept { return failed_; }

  // Prints {"correct", "attempted", "failed", "metrics"} as one line.
  void Print() const;

 private:
  bool trace_;
  std::map<std::string, double> values_;
  std::map<std::string, std::string> units_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

// The §VI-A attack on a Table I graph, with everything the workloads derive
// from it. Deterministic given (dataset, seed).
struct AttackInput {
  sim::Scenario scenario;
  stream::MutationLog log;               // sim::ToMutationLog(scenario.log)
  detect::Seeds seeds;
  detect::IterativeConfig config;
  std::vector<graph::NodeId> senders;    // every node that sent a request
};
AttackInput MakeAttack(std::string_view dataset, std::uint64_t seed,
                       int threads);

inline double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
double ProcessCpuSeconds();
double PeakRssMb();

double Median(std::vector<double> v);
// Linear-interpolated quantile, q in [0, 1].
double Quantile(std::vector<double> v, double q);

// The incremental-scoring baseline a detection result publishes: round 0's
// detected ids as the mask and its ratio weight k (what
// engine::RunEpochDetection hands the next epoch and the serving layer).
serve::PublishedEpoch BaselineOf(
    std::shared_ptr<const graph::AugmentedGraph> graph,
    const detect::DetectionResult& result, std::uint64_t epoch_id);

// serve::DecideAgainst over every sender: the share of fake senders
// rejected and of legitimate senders admitted.
struct Shares {
  double fake_block = 0.0;
  double legit_admit = 0.0;
};
Shares DecideEverySender(const serve::PublishedEpoch& epoch,
                         const AttackInput& in);

// Fills the quality and serving metrics of a batch result. One detection
// call renders a verdict on every account, so decide_rate is accounts per
// detection second, and every event becomes visible once the detection over
// it returns, so both freshness quantiles are set-up plus detection time.
void ReportBatchQuality(Report& report, const AttackInput& in,
                        std::shared_ptr<const graph::AugmentedGraph> graph,
                        const detect::DetectionResult& result,
                        double setup_s, double detect_s);

}  // namespace perfbench

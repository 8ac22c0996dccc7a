// Shared experiment harness for the per-figure/per-table bench binaries.
//
// Each binary reproduces exactly one table or figure of the paper
// (DESIGN.md §3): it assembles the paper's workload via sim::BuildScenario,
// runs Rejecto and the VoteTrust baseline, and prints the same rows/series
// the paper reports. Environment knobs (util/flags.h):
//   REJECTO_BENCH_FAST=1  reduced sweeps / smaller attack for CI
//   REJECTO_SEED=<u64>    experiment seed (default 42)
//   REJECTO_CSV_DIR=<dir> additionally write each table as CSV
//   REJECTO_THREADS=<n>   MAAR sweep threads (0 = hardware concurrency)
//   REJECTO_JSON_DIR=<dir> where BENCH_maar.json is written (default cwd);
//                         every measurement lands there as BenchRecord rows
//   REJECTO_LAYOUT=<p>    vertex-layout policy: identity (default) or bfs;
//                         results are invariant, only locality changes
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "detect/iterative.h"
#include "gen/datasets.h"
#include "graph/social_graph.h"
#include "sim/scenario.h"
#include "util/table.h"

namespace rejecto::serve {
struct AdmissionStats;
}  // namespace rejecto::serve
namespace rejecto::study {
struct EarlyDetectionResult;
}  // namespace rejecto::study
namespace rejecto::util {
class LatencyHistogram;
}  // namespace rejecto::util

namespace rejecto::bench {

struct ExperimentContext {
  bool fast = false;
  std::uint64_t seed = 42;
  std::optional<std::string> csv_dir;

  static ExperimentContext FromEnv();

  // Prints the table with a title and, if csv_dir is set, writes
  // <csv_dir>/<id>.csv.
  void Emit(const std::string& id, const std::string& title,
            const util::Table& table) const;
};

// The paper's common attack setup (§VI-A): 10K fakes, 6 intra-fake links on
// arrival, 20 requests per spammer at 70% rejection, 20% legit rejection
// rate, 15% careless legit users. Fast mode shrinks the fake region to 2K.
sim::ScenarioConfig PaperAttackConfig(const ExperimentContext& ctx);

// Rejecto's default detector configuration for the evaluation: stop at the
// OSN's estimate of the fake population (= the injected count).
detect::IterativeConfig PaperDetectorConfig(const ExperimentContext& ctx,
                                            std::uint64_t target);

// Cached per-process dataset instantiation (Table I registry).
const graph::SocialGraph& Dataset(const std::string& name,
                                  const ExperimentContext& ctx);

struct DetectorScores {
  double rejecto = 0.0;     // precision == recall (declared = injected)
  double votetrust = 0.0;
  double rejecto_seconds = 0.0;
  int rejecto_rounds = 0;
};

// Runs both schemes on the scenario with freshly sampled seeds
// (100 legit / 30 spammer seeds, scaled down in fast mode).
DetectorScores RunBothDetectors(const sim::Scenario& scenario,
                                const ExperimentContext& ctx);

// The sweep values used by a figure, thinned in fast mode.
std::vector<double> Sweep(std::vector<double> full,
                          const ExperimentContext& ctx);

// Dataset list for the appendix figures: the six non-facebook graphs (full
// mode) or just ca-HepTh (fast mode).
std::vector<std::string> AppendixDatasets(const ExperimentContext& ctx);

// One row of BENCH_maar.json: a single named measurement with its unit,
// plus string labels saying what was measured (kernel, dataset, readers,
// adversary, users, ...). A measurement with several numbers is several
// rows sharing labels, and a ratio between two paths is read off their two
// rows rather than stored. This is the name/value/unit shape of
// perfbench's result line.
struct BenchRecord {
  std::string bench;   // emitting binary, e.g. "bench_micro"
  std::string metric;  // e.g. "seconds", "decisions_per_sec"
  double value = 0.0;
  std::string unit;    // e.g. "s", "1/s", "ns", "bytes", "count"
  std::map<std::string, std::string> labels;
};

// Appends the records to <REJECTO_JSON_DIR or cwd>/BENCH_maar.json, one
// flat JSON array every bench binary contributes to. Each row is stamped
// with "git_sha" (the short commit the harness was built from), "run_id"
// (one past the largest run_id already in the file, so ids increase across
// append batches and binaries) and "cores" (hardware threads). The grown
// array is written to a temporary file and renamed over the old one, so an
// interrupted run leaves the earlier records intact. An existing file that
// is not a well-formed JSON array throws std::runtime_error and is left
// untouched.
void AppendBenchJson(const std::vector<BenchRecord>& records);

// Adds the rows for one timed kernel to `out`: "seconds" (min of the rep
// samples, the headline: the kernels are deterministic, so rep-to-rep
// spread is interference), "seconds_median" (the noise indicator) and
// "throughput" (items / min seconds). Labels: `labels` plus "kernel" and
// "items". Prints a one-line summary to stdout.
void AddKernelRows(std::vector<BenchRecord>& out, const std::string& bench,
                   const std::string& kernel,
                   std::map<std::string, std::string> labels,
                   std::int64_t items, const std::vector<double>& samples);

// Adds the rows for one temporal early-detection run (study/
// early_detection.h): "time_to_detection" (mean over detected spammers)
// and "harm_before_detection" (mean over all), in spam requests, plus the
// detected/undetected counts, the last epoch's precision and recall, and
// the sub-epoch checkpoint recall at 5/10/20/50 requests. Labels:
// adversary, users, spammers, requests.
void AddTemporalRows(std::vector<BenchRecord>& out, const std::string& bench,
                     const std::string& adversary, std::int64_t users,
                     const study::EarlyDetectionResult& res);

// Adds the rows for one serve::AdmissionService run: "decisions_per_sec"
// (`decisions` by all readers over `decide_seconds`),
// "ingest_events_per_sec" (writer drain rate over `ingest_seconds`),
// "epoch_publish_stall_us" (mean snapshot cut, the only time ingest
// pauses), "detect_seconds" (last off-path detection), "p50_ns" / "p95_ns"
// / "p99_ns" (reader decision latency) and the events, decisions and
// epochs counts.
void AddAdmissionRows(std::vector<BenchRecord>& out, const std::string& bench,
                      const std::map<std::string, std::string>& labels,
                      const serve::AdmissionStats& stats,
                      std::uint64_t decisions, double decide_seconds,
                      double ingest_seconds,
                      const util::LatencyHistogram& latency);

// Times one switch-sequence run of the fused KL kernel
// (Partition::SwitchFused) on `g` from the `init` mask; returns the final
// objective so callers can cross-check runs on relaid-out copies.
double RunSwitchSequence(const graph::AugmentedGraph& g,
                         const std::vector<char>& init,
                         const std::vector<graph::NodeId>& seq, double k,
                         double* seconds_out);

// Runs MaarSolver::Solve over `threads_list` on the scenario graph with the
// given config, asserts the cuts are bit-identical to the threads=1 run
// (aborting the bench otherwise), appends "seconds" and "kl_runs" rows per
// thread count under `bench_name`, and prints a short speedup summary to
// stdout.
void RunMaarSpeedupProbe(const std::string& bench_name,
                         const graph::AugmentedGraph& g,
                         detect::MaarConfig config,
                         const std::vector<int>& threads_list);

// Locality probe for graph/layout.h: drives one propagation-ordered switch
// sweep (the BFS visit order of the graph — the temporal shape of a KL
// pass or a vote-propagation round) through the fused KL kernel on a
// deterministically SHUFFLED copy of g (simulating the arbitrary id order
// a text intern produces — the layout subsystem's motivating baseline) and
// on its BFS relayout, with a bit-equal final-objective divergence guard.
// Appends "layout_identity" and "layout_bfs" kernel rows.
void RunLayoutKernelProbe(const std::string& bench_name,
                          const graph::AugmentedGraph& g, bool fast);

// Cold-start probe for graph/snapshot.h: round-trips g through text edge
// lists and a binary snapshot in a scratch directory, then times
// graph::LoadAugmentedGraph and graph::LoadSnapshot. Appends "text_load"
// and "snapshot_load" kernel rows; aborts unless the snapshot reproduces g
// and the text load has g's shape.
void RunSnapshotLoadProbe(const std::string& bench_name,
                          const graph::AugmentedGraph& g, bool fast);

// Out-of-core probes for graph/compressed_view.h. Saves g (BFS-relaid, the
// format's target regime) as both RJSNAP01 and RJSNAP02 in a scratch dir,
// then:
//   "snapshot_compressed_load" — LoadSnapshot(v2) time vs the v1 load,
//     with the v2/v1 adjacency-bytes ratio printed and a hard abort if the
//     two loads disagree or compression fails to shrink adjacency at all
//     (the hard <= 0.5x bar lives in RunCompressedCeilingProbe — the attack
//     scenario's scattered rejection edges are the format's worst case);
//   "detect_compressed" / "detect_ram" — the full iterative pipeline over
//     the mmap view vs in RAM, aborting unless detected sets, rounds and
//     cuts are bit-identical; detect_compressed also reports peak_rss_bytes
//     and mapped_bytes rows.
void RunCompressedSnapshotProbe(const std::string& bench_name,
                                const graph::AugmentedGraph& g, bool fast);

// 100M-edge memory-ceiling assertion (skipped in fast mode by the callers):
// streams a synthetic 100M-edge RJSNAP02 to scratch via gen/ without
// materializing the graph, then decodes every block of every CSR through a
// bounded cursor while releasing cold pages, and ABORTS if VmHWM grew by
// more than REJECTO_RSS_BUDGET_MB (default 600) over the pre-open baseline,
// or if the compressed adjacency exceeds 0.5x the equivalent RJSNAP01
// adjacency bytes (the acceptance bar, measured on the BFS-locality graph
// the format targets). Appends "compressed_scan_100m" kernel rows plus
// the measured peak.
void RunCompressedCeilingProbe(const std::string& bench_name);

}  // namespace rejecto::bench

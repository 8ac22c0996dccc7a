// Minimum aggregate acceptance rate (MAAR) cut solver (paper §IV-B, §IV-D).
//
// Finding the cut minimizing the friends-to-rejections ratio
// |F(Ū,U)| / |R⃗(Ū,U)| is NP-hard (2-approximation-preserving reduction
// from MIN-RATIO-CUT). Per Theorem 1, the optimum for ratio k* is also the
// optimum of the linear problem min |F| − k*·|R⃗|, so the solver:
//   1. sweeps k over a geometric sequence, running ExtendedKl for each k
//      from multiple initial partitions (a rejection-degree heuristic plus
//      randomized inits),
//   2. refines the best candidate with Dinkelbach-style iterations: set
//      k ← ratio(best cut) and re-solve until a fixpoint,
//   3. returns the valid cut with the lowest ratio (ties: more explaining
//      rejections).
// A cut is valid when both regions meet the minimum size and U receives at
// least one rejection.
//
// Parallel sweep (the paper's Spark prototype parallelizes exactly this
// grid, §V/Table II): every (k, init) cell of the sweep is an independent
// KL run, while the warm starts (the incumbent best mask injected as one
// extra init at the next k) form a chain through the incumbent. Solve()
// runs both as one pipelined schedule: one worker loop per pool thread
// pulls cells in sweep order, and whichever loop completes the last cell
// of a k level — or the previous chain step — runs the next chain step.
// A chain step reduces that level's cells in fixed init order, then runs
// the warm KL at the next k and reduces it. So the reduction always sees
// cells(k_0), warm(k_1), cells(k_1), ... in the same order, and the
// winner, tie-breaking included, is a pure function of the cell results:
// any thread count produces bit-identical cuts. The Dinkelbach rounds then
// run serially on the calling thread. Without a pool, or with a single
// cell, the same loop runs inline on the caller.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "detect/extended_kl.h"
#include "detect/seeds.h"
#include "graph/augmented_graph.h"
#include "graph/compressed_view.h"
#include "graph/layout.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace rejecto::detect {

// Resolves a num_threads config value: 0 → util::HardwareThreads(),
// anything below 1 clamps to 1.
int EffectiveThreads(int num_threads);

struct MaarConfig {
  // Geometric k sweep: k_min, k_min*k_scale, ... up to k_max (inclusive-ish).
  double k_min = 1.0 / 16.0;
  double k_max = 16.0;
  double k_scale = 2.0;

  int dinkelbach_rounds = 3;

  // Initial partitions per k: the rejection heuristic plus this many random
  // masks (each node in U independently with random_init_fraction).
  int num_random_inits = 1;
  double random_init_fraction = 0.25;

  // Validity constraints on the reported cut. The fraction cap rejects the
  // degenerate "complement" cut (U = everyone except a handful of heavy
  // rejectors, whose ratio is spuriously tiny): friend spammers are a
  // minority of the OSN, which the provider knows from population
  // estimates (§III-B). 0.6 keeps every paper scenario valid (fakes top
  // out at 50% of nodes on the facebook graph).
  graph::NodeId min_region_size = 4;
  double max_region_fraction = 0.6;

  KlConfig kl;  // kl.k is overwritten by the sweep

  // Optional extra initial partition appended (after the heuristic and the
  // random inits) to every k cell of the sweep — the streaming engine's
  // warm start injects the previous epoch's cut mask here. Must be empty or
  // sized to the graph's node count; seed placement is forced onto it like
  // any other init. Appending at a fixed position keeps the reduction order
  // deterministic, so thread count still cannot change the winner.
  std::vector<char> extra_init;

  std::uint64_t seed = 1;

  // Memory-layout policy (graph/layout.h). Non-identity makes Solve() remap
  // the graph through ComputeLayout/ApplyLayout before solving and map the
  // returned mask back, with `rank` set internally so the cut is
  // bit-identical to the identity run — callers see original ids and
  // identical results, only the cache behavior changes. DetectFriendSpammers
  // applies the same wrap once for its whole pipeline. The default KL runner
  // honors it; the distributed engine's custom runners solve whatever graph
  // they are handed and run identity layouts.
  graph::LayoutPolicy layout = graph::LayoutPolicy::kIdentity;

  // Layout-invariance rank (see graph/layout.h): empty, or an n-sized
  // permutation mapping each node of the (laid-out) graph to its ORIGINAL
  // id. When set, random inits are drawn indexed by original id and every
  // KL tie-break is keyed on it, so results equal the identity-layout run.
  // Callers running an already-laid-out graph set this to
  // Layout::old_of_new; Solve()'s own layout wrap sets it automatically.
  std::vector<graph::NodeId> rank;

  // Worker threads for the (k × init) grid and the warm-start chain:
  // 0 = util::HardwareThreads(), values < 0 clamp to 1. Any setting yields
  // bit-identical cuts (see the header comment); threads only change
  // wall-clock time.
  int num_threads = 0;

  // After the grid cells at k_i are reduced, re-run KL once at k_{i+1}
  // seeded with the incumbent best mask (the warm-start chain). Adds
  // candidates only, so it can never worsen the returned cut.
  bool warm_start = true;
};

struct MaarCut {
  bool valid = false;
  std::vector<char> in_u;       // suspicious region
  graph::CutQuantities cut;
  double ratio = 0.0;           // |F(Ū,U)| / |R⃗(Ū,U)|
  double k = 0.0;               // weight that produced the cut

  // Instrumentation (benchmarks report speedup from these).
  int kl_runs = 0;              // total ExtendedKl invocations
  int warm_start_runs = 0;      // subset of kl_runs from the warm chain
  std::uint64_t switches = 0;   // KL switches applied, summed over runs
  int threads_used = 1;         // pool width the grid actually ran on
  double sweep_seconds = 0.0;   // grid, reduction and warm chain
  double refine_seconds = 0.0;  // Dinkelbach rounds
  double total_seconds = 0.0;   // whole Solve() call
};

class MaarSolver {
 public:
  // Pluggable inner solver: detect::ExtendedKl over the in-RAM graph by
  // default. The distributed engine injects a runner that calls
  // engine::DistributedKl — the same ExtendedKl over the cluster's sharded
  // store, on the scratch handed in — so the whole k-sweep runs on the
  // cluster substrate with bit-exact results; a tracing runner may wrap
  // ExtendedKl to time each call. The KlScratch* is a per-thread reusable
  // workspace owned by the solver (one per pool block, so no locking); it
  // may be null.
  using KlRunner = std::function<KlResult(
      const graph::AugmentedGraph&, const std::vector<char>& init_in_u,
      const std::vector<char>& locked, const KlConfig&, KlScratch* scratch)>;

  // The graph must outlive the solver. Seeds are validated on construction.
  MaarSolver(const graph::AugmentedGraph& g, Seeds seeds, MaarConfig config);
  MaarSolver(const graph::AugmentedGraph& g, Seeds seeds, MaarConfig config,
             KlRunner kl_runner);

  // Out-of-core mode: solves directly over a compressed snapshot view —
  // every grid cell runs ExtendedKl through a per-thread DecodeCursor, so
  // peak RSS is per-cursor cache × threads rather than the full CSR
  // expansion. Bit-identical to solving over view.Materialize().graph:
  // both paths serve the same adjacency bytes and the reduction is the
  // same pure function of the cell results. config.layout must be
  // kIdentity (remapping requires the in-RAM graph; save the snapshot
  // with a layout policy instead) and custom KL runners are not supported
  // here. The view must outlive the solver.
  MaarSolver(const graph::CompressedGraphView& view, Seeds seeds,
             MaarConfig config);

  // Creates a private pool when config.num_threads resolves to > 1.
  MaarCut Solve();
  // Runs the grid and the warm-start chain on `pool` (callers amortize pool
  // construction across many solves, e.g. DetectFriendSpammers across
  // rounds); nullptr behaves like Solve(). With a pool, every KL run except
  // the Dinkelbach refinement runs on a pool thread, and the kl_runner must
  // be safe to invoke concurrently (the default ExtendedKl runner is pure).
  MaarCut Solve(util::ThreadPool* pool);

 private:
  std::vector<std::vector<char>> InitialPartitions(util::Rng& rng) const;
  std::vector<double> SweepKs() const;
  bool IsValid(const std::vector<char>& in_u,
               const graph::CutQuantities& cut) const;
  graph::NodeId NumNodes() const {
    return g_ != nullptr ? g_->NumNodes() : view_->NumNodes();
  }
  void ValidateConfig();

  // Exactly one of g_/view_ is set (RAM vs out-of-core mode).
  const graph::AugmentedGraph* g_ = nullptr;
  const graph::CompressedGraphView* view_ = nullptr;
  Seeds seeds_;
  MaarConfig config_;
  KlRunner kl_runner_;
  std::vector<char> locked_;
  // Inverse of config_.rank (original id -> node id), empty when rank is:
  // random init draws walk it so the i-th rng draw always lands on the node
  // whose ORIGINAL id is i, whatever the layout.
  std::vector<graph::NodeId> rank_order_;
};

}  // namespace rejecto::detect

// Extended Kernighan–Lin for rejection-augmented social graphs
// (paper §IV-D, Algorithm 1).
//
// For a fixed k > 0, minimizes W(U) = |F(Ū,U)| − k·|R⃗(Ū,U)| by FM-style
// single-node switching (no balance constraint — region sizes are unknown a
// priori): each pass greedily pops the max-gain node from a bucket list,
// tentatively switches it (even at negative gain, to climb out of local
// minima), then applies the switch-sequence prefix with the largest positive
// cumulative gain. Passes repeat until no improving prefix exists. Locked
// nodes (seeds, §IV-F) never enter the bucket list.
//
// The inner loop is the classic FM delta-gain kernel: a switch makes ONE
// traversal of the node's friends/rejectors/rejectees
// (Partition::SwitchFused), fusing the aggregate updates with bucket
// maintenance, and a node only relinks when its quantized bucket actually
// changes (BucketList::Adjust). A pass rolls back to its best prefix by
// recompute (Partition::SwitchAll). All working state lives in a KlScratch
// that callers may reuse across invocations; the steady-state pass loop
// then performs no heap allocation at all (the only allocation per call is
// the result mask copy). The out-of-core path and the distributed engine
// (engine/dist_kl.h) run this same loop over their own graph::RowCursor.
#pragma once

#include <cstdint>
#include <vector>

#include "detect/bucket_list.h"
#include "detect/partition.h"
#include "graph/augmented_graph.h"
#include "graph/graph_source.h"
#include "util/buffer.h"

namespace rejecto::detect {

struct KlConfig {
  double k = 1.0;                 // rejection weight (> 0)
  int max_passes = 16;            // safety bound; convergence is typical in <6
  double gain_resolution = 64.0;  // bucket quantization (buckets per unit)

  // Layout-invariance hook (see graph/layout.h): when non-null, an n-sized
  // array mapping each node of the (laid-out) graph to its ORIGINAL id.
  // Every order-sensitive step — the pass's bucket insertion order and the
  // deferred relink order inside SwitchFused — is then keyed on original
  // ids, so the result is bit-identical to running on the identity layout.
  // Null (the default) keeps the unchanged fast path; an explicit identity
  // rank produces the same result as null. The pointee must outlive the
  // call (MaarSolver points it at its config's rank array).
  const std::vector<graph::NodeId>* rank = nullptr;
};

struct KlStats {
  int passes = 0;
  std::uint64_t switches_applied = 0;  // sum of applied prefix lengths
  double final_objective = 0.0;        // W(U) at termination
};

struct KlResult {
  std::vector<char> in_u;
  graph::CutQuantities cut;
  KlStats stats;
};

// Reusable workspace for ExtendedKl. Default-constructed empty; every
// ExtendedKl call Reset()s it for the given graph, growing capacity only
// when the graph is larger than any seen before. Not thread-safe — use one
// scratch per thread (MaarSolver keeps one per pool block).
struct KlScratch {
  Partition partition;
  BucketList bucket;
  util::AlignedVector<graph::NodeId> seq;   // this pass's switch sequence
  util::AlignedVector<graph::NodeId> touched;  // neighbors hit per switch
  util::AlignedVector<graph::NodeId> order;  // rank mode: by ascending rank
};

// `locked` may be empty (nothing pinned); otherwise size must equal
// src.NumNodes(). init_in_u must already respect the lock placement. When
// `scratch` is null a call-local workspace is used; results are identical
// either way, and identical whatever graph the scratch last served.
//
// `src` is either an in-RAM AugmentedGraph (implicit conversion keeps the
// historical call sites compiling unchanged) or a graph::RowCursor (a
// compressed snapshot's DecodeCursor, the distributed store's rows); every
// backend serves identical adjacency bytes, so the returned cut is
// bit-identical regardless of which one a caller picks.
KlResult ExtendedKl(const graph::GraphSource& src,
                    const std::vector<char>& init_in_u,
                    const std::vector<char>& locked, const KlConfig& config,
                    KlScratch* scratch = nullptr);

// Sizes `scratch`'s gain buckets for ExtendedKl runs over `src` at any k up
// to `max_k`, so those runs never regrow them. Results do not depend on it.
void ReserveKlBuckets(const graph::GraphSource& src, double max_k,
                      const KlConfig& config, KlScratch& scratch);

}  // namespace rejecto::detect

#include "detect/extended_kl.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace rejecto::detect {
namespace {

constexpr double kGainEps = 1e-7;

// Largest possible |gain| of any single switch: every friend edge and every
// rejection arc incident to the node can contribute at most 1 and k, so
// max_F + k·max_R over the graph's cached degree maxima dominates
// max_v (deg(v) + k·rejdeg(v)). O(1) per call — the MAAR sweep invokes KL
// dozens of times per solve, and the maxima are precomputed when the
// (possibly compacted) AugmentedGraph is built. The looser bound never
// changes results: no actual gain reaches either bound, so bucket indices
// (round(gain × resolution), clamp untriggered) are identical.
double GainBound(const graph::GraphSource& src, double k) {
  const double b = static_cast<double>(src.MaxFriendshipDegree()) +
                   k * static_cast<double>(src.MaxRejectionDegree());
  return std::max(1.0, b);
}

}  // namespace

void ReserveKlBuckets(const graph::GraphSource& src, double max_k,
                      const KlConfig& config, KlScratch& scratch) {
  scratch.bucket.Reset(src.NumNodes(), GainBound(src, max_k),
                       config.gain_resolution);
}

KlResult ExtendedKl(const graph::GraphSource& src,
                    const std::vector<char>& init_in_u,
                    const std::vector<char>& locked, const KlConfig& config,
                    KlScratch* scratch) {
  const graph::NodeId n = src.NumNodes();
  if (config.k <= 0.0) {
    throw std::invalid_argument("ExtendedKl: k must be positive");
  }
  if (!locked.empty() && locked.size() != n) {
    throw std::invalid_argument("ExtendedKl: locked mask size mismatch");
  }
  auto is_locked = [&](graph::NodeId v) {
    return !locked.empty() && locked[v] != 0;
  };
  const graph::NodeId* rank =
      config.rank != nullptr && !config.rank->empty() ? config.rank->data()
                                                      : nullptr;
  if (rank != nullptr && config.rank->size() != n) {
    throw std::invalid_argument("ExtendedKl: rank size mismatch");
  }

  KlScratch local;
  KlScratch& ws = scratch != nullptr ? *scratch : local;
  ws.partition.Reset(src, init_in_u);
  Partition& p = ws.partition;

  // Rank mode: insert nodes in ascending ORIGINAL id so every intra-bucket
  // LIFO tie-break matches the identity-layout run (where layout id =
  // original id and the plain 0..n-1 loop is already rank order).
  if (rank != nullptr) {
    ws.order.assign(n, 0);
    for (graph::NodeId v = 0; v < n; ++v) {
      const graph::NodeId r = (*config.rank)[v];
      if (r >= n) throw std::invalid_argument("ExtendedKl: rank not a permutation");
      ws.order[r] = v;
    }
  }

  const double k = config.k;
  const double gain_bound = GainBound(src, k);

  KlStats stats;
  ws.seq.reserve(n);
  // One switch touches at most deg(v) + rejdeg(v) neighbors; reserving once
  // here keeps SwitchFused's push_backs allocation-free for the whole call.
  ws.touched.reserve(static_cast<std::size_t>(src.MaxFriendshipDegree() +
                                              src.MaxRejectionDegree()));

  for (int pass = 0; pass < config.max_passes; ++pass) {
    ++stats.passes;
    ws.bucket.Reset(n, gain_bound, config.gain_resolution);
    BucketList& bl = ws.bucket;
    if (rank != nullptr) {
      for (graph::NodeId v : ws.order) {
        if (!is_locked(v)) bl.Insert(v, -p.DeltaObjective(v, k));
      }
    } else {
      for (graph::NodeId v = 0; v < n; ++v) {
        if (!is_locked(v)) bl.Insert(v, -p.DeltaObjective(v, k));
      }
    }

    ws.seq.clear();
    double cum = 0.0;
    double best_cum = 0.0;
    std::size_t best_prefix = 0;  // number of leading switches to keep

    while (!bl.Empty()) {
      const graph::NodeId v = bl.PopMax();
      const double gain = -p.DeltaObjective(v, k);
      p.SwitchFused(v, k, bl, ws.touched, rank);
      ws.seq.push_back(v);
      cum += gain;
      if (cum > best_cum + kGainEps) {
        best_cum = cum;
        best_prefix = ws.seq.size();
      }
    }

    // Roll back everything after the best prefix (or everything, if no
    // positive prefix exists) by recompute. The suffix is normally most of
    // the graph, so one pass over the rows is cheaper than replaying its
    // switches, and on the distributed store it reads shard-local rows
    // instead of fetching them.
    if (best_prefix < ws.seq.size()) {
      p.SwitchAll({ws.seq.data() + best_prefix, ws.seq.size() - best_prefix});
    }
    stats.switches_applied += best_prefix;
    if (best_prefix == 0) break;  // converged: no improving prefix
  }

  KlResult result;
  result.cut = p.Quantities();
  stats.final_objective = p.Objective(k);
  result.stats = stats;
  result.in_u = p.Mask();
  return result;
}

}  // namespace rejecto::detect

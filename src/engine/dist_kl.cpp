#include "engine/dist_kl.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "detect/bucket_list.h"
#include "engine/prefetch.h"

namespace rejecto::engine {
namespace {

constexpr double kGainEps = 1e-7;  // matches detect::ExtendedKl

// Master-resident node status: the "20 bytes per node on the master" of
// §V, here as parallel arrays.
struct MasterState {
  std::vector<char> in_u;
  std::vector<std::uint32_t> deg;
  std::vector<std::uint32_t> rej_in;
  std::vector<std::uint32_t> rej_out;
  std::vector<std::uint32_t> cross_friends;
  std::vector<std::uint32_t> in_from_w;
  std::vector<std::uint32_t> out_to_u;
  std::uint64_t cross_total = 0;
  std::uint64_t rin_total = 0;

  std::int64_t DeltaFriends(graph::NodeId v) const {
    return static_cast<std::int64_t>(deg[v]) -
           2 * static_cast<std::int64_t>(cross_friends[v]);
  }
  std::int64_t DeltaRejections(graph::NodeId v) const {
    const std::int64_t d = static_cast<std::int64_t>(out_to_u[v]) -
                           static_cast<std::int64_t>(in_from_w[v]);
    return in_u[v] ? d : -d;
  }
  // Same arithmetic as detect::Partition::DeltaObjective negated, so the
  // distributed run is bit-identical to the single-machine one.
  double Gain(graph::NodeId v, double k) const {
    return -(static_cast<double>(DeltaFriends(v)) -
             k * static_cast<double>(DeltaRejections(v)));
  }

  void Switch(graph::NodeId v, const NodeAdjacency& adj) {
    cross_total = static_cast<std::uint64_t>(
        static_cast<std::int64_t>(cross_total) + DeltaFriends(v));
    rin_total = static_cast<std::uint64_t>(
        static_cast<std::int64_t>(rin_total) + DeltaRejections(v));
    const bool was_in_u = in_u[v] != 0;
    in_u[v] = was_in_u ? 0 : 1;
    cross_friends[v] = deg[v] - cross_friends[v];
    for (graph::NodeId w : adj.friends) {
      if (in_u[v] != in_u[w]) {
        ++cross_friends[w];
      } else {
        --cross_friends[w];
      }
    }
    const std::int32_t into_u = was_in_u ? -1 : 1;
    for (graph::NodeId x : adj.rejectors) {
      out_to_u[x] = static_cast<std::uint32_t>(
          static_cast<std::int32_t>(out_to_u[x]) + into_u);
    }
    for (graph::NodeId y : adj.rejectees) {
      in_from_w[y] = static_cast<std::uint32_t>(
          static_cast<std::int32_t>(in_from_w[y]) - into_u);
    }
  }

  // Recomputes every aggregate from in_u, shard-parallel like the
  // prototype's RDD transformations: each worker scans only its own
  // partition (free, shard-local reads) and writes only its own node ids,
  // so no synchronization is needed. The counts are integers of the mask
  // alone, so this lands on exactly the state Switch would have reached.
  // Metered as one mask broadcast (a bit per node) plus a gather of the six
  // u32 aggregates per node.
  void Rebuild(const ShardedGraphStore& store, IoStats& io) {
    const graph::NodeId n = store.NumNodes();
    const std::uint32_t shards = store.NumShards();
    for (auto* a : {&deg, &rej_in, &rej_out, &cross_friends, &in_from_w,
                    &out_to_u}) {
      a->resize(n);
    }
    store.ForEachShard([&](std::uint32_t s) {
      for (graph::NodeId v = s; v < n; v += shards) {
        const NodeAdjacency& a = store.Local(v);
        std::uint32_t cross = 0;
        std::uint32_t from_w = 0;
        std::uint32_t to_u = 0;
        for (graph::NodeId w : a.friends) cross += in_u[v] != in_u[w];
        for (graph::NodeId x : a.rejectors) from_w += in_u[x] == 0;
        for (graph::NodeId y : a.rejectees) to_u += in_u[y] != 0;
        deg[v] = static_cast<std::uint32_t>(a.friends.size());
        rej_in[v] = static_cast<std::uint32_t>(a.rejectors.size());
        rej_out[v] = static_cast<std::uint32_t>(a.rejectees.size());
        cross_friends[v] = cross;
        in_from_w[v] = from_w;
        out_to_u[v] = to_u;
      }
    });
    cross_total = 0;
    rin_total = 0;
    for (graph::NodeId v = 0; v < n; ++v) {
      if (in_u[v]) {
        cross_total += cross_friends[v];
        rin_total += in_from_w[v];
      }
    }
    store.ChargeScan((static_cast<std::uint64_t>(n) + 7) / 8,
                     24 * static_cast<std::uint64_t>(n), io);
  }
};

}  // namespace

DistKlResult DistributedKl(const ShardedGraphStore& store,
                           std::vector<char> init_in_u,
                           const std::vector<char>& locked,
                           const detect::KlConfig& kl_config,
                           Cluster& cluster) {
  const graph::NodeId n = store.NumNodes();
  if (kl_config.k <= 0.0) {
    throw std::invalid_argument("DistributedKl: k must be positive");
  }
  if (init_in_u.size() != n) {
    throw std::invalid_argument("DistributedKl: mask size mismatch");
  }
  if (!locked.empty() && locked.size() != n) {
    throw std::invalid_argument("DistributedKl: locked mask size mismatch");
  }
  const double k = kl_config.k;
  auto is_locked = [&](graph::NodeId v) {
    return !locked.empty() && locked[v] != 0;
  };

  MasterState st;
  st.in_u = std::move(init_in_u);
  IoStats scan_io;
  st.Rebuild(store, scan_io);

  // Gain bound identical to detect::ExtendedKl's.
  double gain_bound = 1.0;
  for (graph::NodeId v = 0; v < n; ++v) {
    gain_bound = std::max(
        gain_bound, static_cast<double>(st.deg[v]) +
                        k * static_cast<double>(st.rej_in[v] + st.rej_out[v]));
  }

  PrefetchBuffer buffer(store, cluster.Config().buffer_capacity,
                        cluster.Config().prefetch_batch);

  DistKlResult result;
  detect::KlStats& stats = result.kl.stats;
  std::vector<graph::NodeId> seq;
  seq.reserve(n);

  for (int pass = 0; pass < kl_config.max_passes; ++pass) {
    ++stats.passes;
    detect::BucketList bl(n, gain_bound, kl_config.gain_resolution);
    for (graph::NodeId v = 0; v < n; ++v) {
      if (!is_locked(v)) bl.Insert(v, st.Gain(v, k));
    }

    seq.clear();
    double cum = 0.0;
    double best_cum = 0.0;
    std::size_t best_prefix = 0;

    // Adjust is the branch-light Contains+Update: absent nodes (locked or
    // already switched) no-op, and a node only relinks when its quantized
    // bucket actually changes.
    auto refresh = [&](graph::NodeId w) { bl.Adjust(w, st.Gain(w, k)); };
    auto supplier = [&](std::size_t want, std::vector<graph::NodeId>& out) {
      bl.CollectTop(want, out);
    };

    while (!bl.Empty()) {
      const graph::NodeId v = bl.PopMax();
      const double gain = st.Gain(v, k);
      const NodeAdjacency& adj = buffer.Get(v, supplier);
      st.Switch(v, adj);
      seq.push_back(v);
      cum += gain;
      if (cum > best_cum + kGainEps) {
        best_cum = cum;
        best_prefix = seq.size();
      }
      for (graph::NodeId w : adj.friends) refresh(w);
      for (graph::NodeId w : adj.rejectors) refresh(w);
      for (graph::NodeId w : adj.rejectees) refresh(w);
    }

    // Roll back by recompute: un-switch the rejected suffix in the mask
    // only, then rebuild the aggregates from it. A pass pops every unlocked
    // node, so the suffix is normally most of n, and one worker-local O(m)
    // scan is far cheaper than re-fetching those rows to replay switches.
    if (best_prefix < seq.size()) {
      for (std::size_t i = best_prefix; i < seq.size(); ++i) {
        st.in_u[seq[i]] = st.in_u[seq[i]] ? 0 : 1;
      }
      st.Rebuild(store, scan_io);
    }
    stats.switches_applied += best_prefix;
    if (best_prefix == 0) break;
  }

  result.kl.cut.cross_friendships = st.cross_total;
  result.kl.cut.rejections_into_u = st.rin_total;
  std::uint64_t from_u = 0;
  for (graph::NodeId v = 0; v < n; ++v) {
    if (!st.in_u[v]) from_u += st.rej_in[v] - st.in_from_w[v];
  }
  result.kl.cut.rejections_from_u = from_u;
  stats.final_objective = static_cast<double>(st.cross_total) -
                          k * static_cast<double>(st.rin_total);
  result.kl.in_u = std::move(st.in_u);
  result.io = buffer.Stats();
  result.io.Accumulate(scan_io);
  result.num_shards = store.NumShards();
  return result;
}

}  // namespace rejecto::engine

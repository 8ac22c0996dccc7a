#include "engine/dist_maar.h"

#include "engine/dist_kl.h"

namespace rejecto::engine {

DistMaarResult SolveMaarDistributed(const graph::AugmentedGraph& g,
                                    const ShardedGraphStore& store,
                                    Cluster& cluster,
                                    const detect::Seeds& seeds,
                                    const detect::MaarConfig& config) {
  DistMaarResult result;
  auto runner = [&](const graph::AugmentedGraph& /*graph*/,
                    const std::vector<char>& init,
                    const std::vector<char>& locked,
                    const detect::KlConfig& kl,
                    detect::KlScratch* scratch) {
    DistKlResult r = DistributedKl(store, init, locked, kl, cluster, scratch);
    result.io.Accumulate(r.io);
    return std::move(r.kl);
  };
  // The sweep must stay serial here: every DistributedKl call owns its
  // prefetch buffer, but its fetches go through ShardedGraphStore::
  // FetchInto, which runs only on the master thread, and the runner above
  // accumulates IoStats without locking. Determinism of the sweep makes the
  // cut identical either way; on this substrate the parallelism is the
  // simulated workers'.
  detect::MaarConfig serial_config = config;
  serial_config.num_threads = 1;
  detect::MaarSolver solver(g, seeds, serial_config, runner);
  result.cut = solver.Solve();
  return result;
}

}  // namespace rejecto::engine

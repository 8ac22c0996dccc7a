#include "detect/maar.h"

#include <algorithm>
#include <cmath>
#include <exception>
#include <limits>
#include <memory>
#include <mutex>
#include <stdexcept>

#include "util/timer.h"

namespace rejecto::detect {

int EffectiveThreads(int num_threads) {
  if (num_threads == 0) {
    return static_cast<int>(util::HardwareThreads());
  }
  return std::max(1, num_threads);
}

MaarSolver::MaarSolver(const graph::AugmentedGraph& g, Seeds seeds,
                       MaarConfig config)
    : MaarSolver(g, std::move(seeds), config,
                 [](const graph::AugmentedGraph& graph,
                    const std::vector<char>& init,
                    const std::vector<char>& locked, const KlConfig& kl,
                    KlScratch* scratch) {
                   return ExtendedKl(graph, init, locked, kl, scratch);
                 }) {}

MaarSolver::MaarSolver(const graph::AugmentedGraph& g, Seeds seeds,
                       MaarConfig config, KlRunner kl_runner)
    : g_(&g),
      seeds_(std::move(seeds)),
      config_(std::move(config)),
      kl_runner_(std::move(kl_runner)) {
  if (!kl_runner_) {
    throw std::invalid_argument("MaarSolver: null KL runner");
  }
  ValidateConfig();
}

MaarSolver::MaarSolver(const graph::CompressedGraphView& view, Seeds seeds,
                       MaarConfig config)
    : view_(&view), seeds_(std::move(seeds)), config_(std::move(config)) {
  if (config_.layout != graph::LayoutPolicy::kIdentity) {
    throw std::invalid_argument(
        "MaarSolver: layout policies require the in-RAM graph; save the "
        "snapshot with SaveSnapshotWithPolicy instead");
  }
  ValidateConfig();
}

void MaarSolver::ValidateConfig() {
  const graph::NodeId n = NumNodes();
  seeds_.Validate(n);
  if (config_.k_min <= 0 || config_.k_max < config_.k_min ||
      config_.k_scale <= 1.0) {
    throw std::invalid_argument("MaarSolver: invalid k sweep");
  }
  if (!config_.extra_init.empty() && config_.extra_init.size() != n) {
    throw std::invalid_argument("MaarSolver: extra_init size mismatch");
  }
  if (!config_.rank.empty()) {
    if (config_.rank.size() != n) {
      throw std::invalid_argument("MaarSolver: rank size mismatch");
    }
    rank_order_.assign(n, graph::kInvalidNode);
    for (graph::NodeId v = 0; v < n; ++v) {
      const graph::NodeId r = config_.rank[v];
      if (r >= n || rank_order_[r] != graph::kInvalidNode) {
        throw std::invalid_argument("MaarSolver: rank is not a permutation");
      }
      rank_order_[r] = v;
    }
  }
  // Point the per-cell KL configs at OUR copy of the rank array; a stale
  // pointer copied in from the caller's config must never survive.
  config_.kl.rank = config_.rank.empty() ? nullptr : &config_.rank;
  locked_ = BuildLockedMask(n, seeds_);
}

std::vector<std::vector<char>> MaarSolver::InitialPartitions(
    util::Rng& rng) const {
  const graph::NodeId n = NumNodes();
  std::vector<std::vector<char>> inits;

  // Rejection heuristic: any node that ever got rejected starts in U. The
  // sweep's KL runs pull sporadically-rejected legitimate users back out.
  // Out-of-core mode scans the rejection-in degrees through a throwaway
  // cursor — a sequential pass, so each block decodes exactly once.
  std::vector<char> heur(n, 0);
  if (g_ != nullptr) {
    for (graph::NodeId v = 0; v < n; ++v) {
      if (g_->Rejections().InDegree(v) > 0) heur[v] = 1;
    }
  } else {
    graph::DecodeCursor cursor(*view_);
    for (graph::NodeId v = 0; v < n; ++v) {
      if (cursor.InDegree(v) > 0) heur[v] = 1;
    }
  }
  ApplySeedPlacement(heur, seeds_);
  inits.push_back(std::move(heur));

  for (int i = 0; i < config_.num_random_inits; ++i) {
    std::vector<char> mask(n, 0);
    if (rank_order_.empty()) {
      for (graph::NodeId v = 0; v < n; ++v) {
        mask[v] = rng.NextBool(config_.random_init_fraction) ? 1 : 0;
      }
    } else {
      // Draw indexed by ORIGINAL id so the same rng stream marks the same
      // logical nodes under any layout (identity rank degenerates to the
      // loop above).
      for (graph::NodeId orig = 0; orig < n; ++orig) {
        mask[rank_order_[orig]] =
            rng.NextBool(config_.random_init_fraction) ? 1 : 0;
      }
    }
    ApplySeedPlacement(mask, seeds_);
    inits.push_back(std::move(mask));
  }

  // Caller-provided warm mask (e.g. the previous epoch's cut), appended
  // last so the sweep's deterministic reduction order is unchanged.
  if (!config_.extra_init.empty()) {
    std::vector<char> warm = config_.extra_init;
    ApplySeedPlacement(warm, seeds_);
    inits.push_back(std::move(warm));
  }
  return inits;
}

bool MaarSolver::IsValid(const std::vector<char>& in_u,
                         const graph::CutQuantities& cut) const {
  graph::NodeId size_u = 0;
  for (char c : in_u) size_u += (c != 0);
  const graph::NodeId n = NumNodes();
  const graph::NodeId size_w = n - size_u;
  // Clamp the minimum region size only when infeasible: no cut of an
  // n-node graph can put min_region_size nodes on both sides once
  // n < 2*min_region_size, so cap it at n/2 (small graphs and late residual
  // graphs stay solvable); the configured value is honored otherwise.
  const graph::NodeId min_region = std::max<graph::NodeId>(
      1, std::min<graph::NodeId>(config_.min_region_size, n / 2));
  return size_u >= min_region && size_w >= min_region &&
         static_cast<double>(size_u) <=
             config_.max_region_fraction * static_cast<double>(n) &&
         cut.rejections_into_u > 0;
}

std::vector<double> MaarSolver::SweepKs() const {
  std::vector<double> ks;
  for (double k = config_.k_min; k <= config_.k_max * (1.0 + 1e-9);
       k *= config_.k_scale) {
    ks.push_back(k);
  }
  return ks;
}

MaarCut MaarSolver::Solve() { return Solve(nullptr); }

MaarCut MaarSolver::Solve(util::ThreadPool* pool) {
  // Non-identity layout: remap once, solve with the rank hook engaged, and
  // translate the mask back — callers always see original ids, and the cut
  // is bit-identical to the identity-layout solve (see graph/layout.h).
  if (config_.layout != graph::LayoutPolicy::kIdentity) {
    util::WallTimer total_timer;
    const graph::Layout layout =
        graph::ComputeLayout(*g_, config_.layout, pool);
    const graph::AugmentedGraph laid = graph::ApplyLayout(*g_, layout, pool);
    MaarConfig inner = config_;
    inner.layout = graph::LayoutPolicy::kIdentity;
    inner.rank = layout.old_of_new;
    if (!inner.extra_init.empty()) {
      inner.extra_init = graph::MaskToLayout(layout, inner.extra_init);
    }
    Seeds laid_seeds = seeds_;
    laid_seeds.legit = graph::IdsToLayout(layout, seeds_.legit);
    laid_seeds.spammer = graph::IdsToLayout(layout, seeds_.spammer);
    MaarSolver solver(laid, std::move(laid_seeds), std::move(inner),
                      kl_runner_);
    MaarCut cut = solver.Solve(pool);
    if (!cut.in_u.empty()) cut.in_u = graph::MaskFromLayout(layout, cut.in_u);
    cut.total_seconds = total_timer.Seconds();
    return cut;
  }

  util::WallTimer total_timer;
  util::Rng rng(config_.seed);
  const auto inits = InitialPartitions(rng);
  const auto ks = SweepKs();
  const std::size_t cells = ks.size() * inits.size();

  MaarCut best;
  best.ratio = std::numeric_limits<double>::infinity();

  auto consider = [&](KlResult&& r, double k) {
    ++best.kl_runs;
    best.switches += r.stats.switches_applied;
    if (!IsValid(r.in_u, r.cut)) return false;
    const double ratio = r.cut.FriendsToRejectionsRatio();
    const bool better =
        ratio < best.ratio - 1e-12 ||
        (std::abs(ratio - best.ratio) <= 1e-12 &&
         r.cut.rejections_into_u > best.cut.rejections_into_u);
    if (better) {
      best.valid = true;
      best.in_u = std::move(r.in_u);
      best.cut = r.cut;
      best.ratio = ratio;
      best.k = k;
      return true;
    }
    return false;
  };

  // Phase 1 — the (k × init) grid and the warm-start chain, as one
  // dependency-driven schedule. Cells are independent KL runs, handed out
  // in sweep order (k outer, init inner). Chain step i reduces the cells at
  // k_i in init order, then — once the incumbent exists — re-runs KL at
  // k_{i+1} from the incumbent mask and reduces that too. So the reduction
  // sees cells(k_0), warm(k_1), cells(k_1), ... whatever thread ran what,
  // and thread count cannot change the winner.
  util::WallTimer sweep_timer;
  std::unique_ptr<util::ThreadPool> owned_pool;
  if (pool == nullptr && cells > 1 &&
      EffectiveThreads(config_.num_threads) > 1) {
    owned_pool = std::make_unique<util::ThreadPool>(
        static_cast<std::size_t>(EffectiveThreads(config_.num_threads)));
    pool = owned_pool.get();
  }
  best.threads_used = pool == nullptr ? 1 : static_cast<int>(pool->size());
  const std::size_t blocks = pool != nullptr && cells > 1 ? pool->size() : 1;

  // One reusable KL workspace per worker loop: a loop runs as exactly one
  // task, so its scratch is never shared, and every KL run inside it reuses
  // the same buffers instead of reallocating per cell. Out-of-core mode
  // pairs each scratch with its own DecodeCursor (the cursor's block cache
  // is mutable per-thread state, exactly like the scratch).
  std::vector<KlScratch> scratches(blocks);
  std::vector<std::unique_ptr<graph::DecodeCursor>> cursors;
  if (view_ != nullptr) {
    cursors.reserve(blocks);
    for (std::size_t i = 0; i < blocks; ++i) {
      cursors.push_back(std::make_unique<graph::DecodeCursor>(*view_));
    }
  }
  auto source = [&](std::size_t block) {
    return view_ != nullptr ? graph::GraphSource(cursors[block].get())
                            : graph::GraphSource(*g_);
  };
  // Size every loop's gain buckets for the largest k here, on the calling
  // thread. Any loop may run a top-k cell, and growing its buckets one k
  // step at a time inside the pool leaves each outgrown array in that
  // thread's malloc arena: peak RSS on the soc-Slashdot attack graph was
  // ~15% higher without this.
  if (blocks > 1) {
    for (std::size_t b = 0; b < blocks; ++b) {
      ReserveKlBuckets(source(b), ks.back(), config_.kl, scratches[b]);
    }
  }
  auto run_kl = [&](std::size_t block, const std::vector<char>& init,
                    double k) {
    KlConfig kl = config_.kl;
    kl.k = k;
    if (view_ != nullptr) {
      return ExtendedKl(source(block), init, locked_, kl, &scratches[block]);
    }
    return kl_runner_(*g_, init, locked_, kl, &scratches[block]);
  };

  // grid[c] is written by the loop that ran cell c before it counts the
  // cell done under `mu`, and read only by the chain step that saw the
  // count reach zero under `mu`. `best` is touched only by the one chain
  // step in flight.
  std::vector<KlResult> grid(cells);
  std::mutex mu;
  std::size_t next_cell = 0;                              // guarded by mu
  std::vector<std::size_t> left(ks.size(), inits.size());  // guarded by mu
  std::size_t next_level = 0;                             // guarded by mu
  bool chain_busy = false;                                // guarded by mu
  std::size_t failed_cell = cells;  // lowest failed cell; guarded by mu
  std::exception_ptr cell_error;    // failed_cell's; guarded by mu
  std::exception_ptr chain_error;   // guarded by mu

  auto chain_step = [&](std::size_t block, std::size_t ki) {
    for (std::size_t ii = 0; ii < inits.size(); ++ii) {
      KlResult& r = grid[ki * inits.size() + ii];
      consider(std::move(r), ks[ki]);
      r = {};
    }
    if (config_.warm_start && best.valid && ki + 1 < ks.size()) {
      ++best.warm_start_runs;
      consider(run_kl(block, best.in_u, ks[ki + 1]), ks[ki + 1]);
    }
  };

  // Each turn prefers the chain — it gates the reduction — and otherwise
  // takes the next cell; a loop returns once neither is available. The
  // loop that finishes a step's last dependency (its level's last cell, or
  // the previous step) re-checks at once, so the chain never stalls and no
  // loop ever waits. After a cell fails no further cell is started: every
  // lower-indexed cell was already handed out, so the lowest failing cell
  // is the same on any schedule. A failure also stops the chain.
  auto worker = [&](std::size_t block, std::size_t) {
    std::unique_lock<std::mutex> lock(mu);
    for (;;) {
      if (!chain_busy && failed_cell == cells && !chain_error &&
          next_level < ks.size() && left[next_level] == 0) {
        chain_busy = true;
        lock.unlock();
        std::exception_ptr error;
        try {
          chain_step(block, next_level);
        } catch (...) {
          error = std::current_exception();
        }
        lock.lock();
        chain_busy = false;
        chain_error = error;
        ++next_level;
        continue;
      }
      if (next_cell < cells && failed_cell == cells) {
        const std::size_t c = next_cell++;
        lock.unlock();
        std::exception_ptr error;
        try {
          grid[c] = run_kl(block, inits[c % inits.size()],
                           ks[c / inits.size()]);
        } catch (...) {
          error = std::current_exception();
        }
        lock.lock();
        if (error && c < failed_cell) {
          failed_cell = c;
          cell_error = error;
        }
        --left[c / inits.size()];
        continue;
      }
      return;
    }
  };
  if (blocks > 1) {
    pool->ParallelFor(blocks, worker);
  } else {
    worker(0, 0);
  }
  if (cell_error) std::rethrow_exception(cell_error);
  if (chain_error) std::rethrow_exception(chain_error);
  best.sweep_seconds = sweep_timer.Seconds();

  // Phase 2 — Dinkelbach refinement: with k set to the best cut's own
  // ratio, the cut's objective is exactly 0, so any strictly-negative-
  // objective cut found by KL has a strictly smaller ratio.
  util::WallTimer refine_timer;
  for (int round = 0; round < config_.dinkelbach_rounds && best.valid;
       ++round) {
    const double k = best.ratio;
    if (!(k > 0) || !std::isfinite(k)) break;  // perfect cut; cannot improve
    if (!consider(run_kl(0, best.in_u, k), k)) {
      break;
    }
  }
  best.refine_seconds = refine_timer.Seconds();

  best.total_seconds = total_timer.Seconds();
  return best;
}

}  // namespace rejecto::detect

#include "tt/solver_frontier.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <functional>
#include <stdexcept>
#include <string>

#include "obs/trace.hpp"
#include "util/bits.hpp"

namespace ttp::tt {

namespace {

/// The top-layer check's threshold: share of layer k−2's C(k,2) sets that
/// must be reachable for the planner to give up on the sparse closure. The
/// paper's domain families fill that layer completely; the random family
/// fills 4.5–7.6% of it on average and 29% at most (docs/algorithm.md).
constexpr double kTopLayerDenseFill = 0.5;

/// Scratch for the per-chunk gather rows (slot indices, action-major).
/// Thread-local so pool workers and batch workers each reuse their own;
/// capacity is bounded by the chunk budget below, not the instance.
struct RowScratch {
  AlignedBuf<std::uint32_t> inter;
  AlignedBuf<std::uint32_t> minus;
};

RowScratch& row_scratch() {
  static thread_local RowScratch rs;
  return rs;
}

/// States per wave chunk: keeps one chunk's rows (≤ N·chunk·8 bytes for
/// tests' two rows) around a megabyte so they stay cache-resident while
/// the wave gathers through them. Deterministic in N only.
std::size_t wave_chunk(int num_actions) {
  const std::size_t by_bytes =
      (std::size_t{1} << 20) / (8 * std::max(num_actions, 1));
  return std::max<std::size_t>(16, std::min<std::size_t>(4096, by_bytes));
}

/// States per expansion chunk: bounds the candidate scratch (maxkids
/// 4-byte masks per state) to ~8 MiB.
std::size_t expand_chunk(std::size_t maxkids) {
  const std::size_t by_bytes =
      (std::size_t{8} << 20) / (4 * std::max<std::size_t>(maxkids, 1));
  return std::max<std::size_t>(16, std::min<std::size_t>(8192, by_bytes));
}

/// Runs fn(begin, end) over [0, n): pooled when a pool is supplied and the
/// range is worth splitting, inline otherwise. fn must be safe for any
/// partition into contiguous chunks.
void for_ranges(util::ThreadPool* pool, std::size_t n,
                const std::function<void(std::size_t, std::size_t)>& fn) {
  if (n == 0) return;
  if (pool != nullptr && n > 1) {
    pool->parallel_for(n, fn);
  } else {
    fn(0, n);
  }
}

/// p(S) with the exact association of subset_weight_table(): the table's
/// recurrence w[lowest] + p(S minus lowest) unrolls to a descending-bit
/// accumulation, so folding bits high -> low reproduces it bitwise without
/// materializing the 2^k table.
double sparse_subset_weight(const std::vector<double>& w, Mask s) {
  double acc = 0.0;
  while (s != 0) {
    const int hb = std::bit_width(s) - 1;
    acc = w[static_cast<std::size_t>(hb)] + acc;
    s &= ~(Mask{1} << hb);
  }
  return acc;
}

/// Rebuilds the arena's layer-contiguous layout + mask->slot map from the
/// expansion buckets. Slot 0 is ∅; layers ascend, masks ascend per layer —
/// LayerIndex order restricted to the closure.
void layout_closure(const Instance& ins, FrontierArena& ar,
                    util::ThreadPool* pool) {
  const int k = ins.k();
  ar.masks.resize_discard(ar.states);
  ar.layer_off.assign(static_cast<std::size_t>(k) + 2, 0);
  Mask* masks = ar.masks.data();
  std::size_t slot = 0;
  masks[slot++] = 0;  // ∅
  for (int j = 1; j <= k; ++j) {
    ar.layer_off[static_cast<std::size_t>(j)] = slot;
    std::vector<Mask>& b = ar.buckets[static_cast<std::size_t>(j)];
    std::sort(b.begin(), b.end());
    for (const Mask m : b) masks[slot++] = m;
  }
  ar.layer_off[static_cast<std::size_t>(k) + 1] = slot;
  assert(slot == ar.states && "closure layout must place every state");

  ar.map.reset(ar.states);
  for (std::size_t s = 0; s < ar.states; ++s) {
    ar.map.insert(masks[s], static_cast<std::uint32_t>(s));
  }

  ar.ws.resize_discard(ar.states);
  double* ws = ar.ws.data();
  const std::vector<double>& w = ins.weights();
  for_ranges(pool, ar.states, [&](std::size_t b, std::size_t e) {
    for (std::size_t s = b; s < e; ++s) {
      ws[s] = sparse_subset_weight(w, masks[s]);
    }
  });
}

/// Sparse tree reconstruction: solver.cpp's recursion with the best-action
/// lookups routed through the mask->slot map.
Tree reconstruct_sparse(const Instance& ins, const FrontierArena& ar) {
  const Mask U = ins.universe();
  const std::uint32_t uslot = ar.map.find(U);
  assert(uslot != StateMap::kNotFound);
  if (std::isinf(ar.cost.data()[uslot])) return Tree{};

  std::vector<TreeNode> nodes;
  std::function<int(Mask)> build = [&](Mask s) -> int {
    const std::uint32_t slot = ar.map.find(s);
    assert(slot != StateMap::kNotFound &&
           "every state the optimal tree visits is reachable by closure");
    const int a = ar.best.data()[slot];
    if (a < 0) {
      throw std::runtime_error("reconstruct_tree: no action for feasible state");
    }
    const Action& act = ins.action(a);
    const int self = static_cast<int>(nodes.size());
    nodes.push_back(TreeNode{s, a, -1, -1});
    if (act.is_test) {
      const Mask inter = s & act.set;
      const Mask minus = s & ~act.set;
      nodes[static_cast<std::size_t>(self)].yes = build(inter);
      nodes[static_cast<std::size_t>(self)].no = build(minus);
    } else {
      const Mask minus = s & ~act.set;
      if (minus != 0) {
        nodes[static_cast<std::size_t>(self)].no = build(minus);
      }
    }
    return self;
  };
  const int root = build(U);
  return Tree(std::move(nodes), root);
}

/// The bottom-up sparse waves over a laid-out closure. Bitwise identical
/// to the dense sweep on the reachable states: chunks are deterministic in
/// (layer, N), every chunk is evaluated by the same kernel regardless of
/// which worker runs it, writes are per-state disjoint, and same-layer
/// reads only ever touch the state's own (still-kInf) slot.
SolveResult solve_on_closure(const Instance& ins, FrontierArena& ar,
                             util::ThreadPool* pool,
                             std::string_view span_name) {
  SolveResult res;
  const int k = ins.k();
  const int N = ins.num_actions();
  const std::size_t nt = static_cast<std::size_t>(ins.num_tests());

  TTP_TRACE_SPAN(root_span, span_name, res.steps);
  root_span.attr("k", k);
  root_span.attr("actions", N);
  root_span.attr("states", static_cast<std::uint64_t>(ar.states));
  // The sparse wave is scalar under every TTP_KERNEL (kernel_sparse.hpp).
  root_span.attr("kernel", kernel_variant_name(KernelVariant::kScalar));

  static thread_local ActionSoA soa_tls;
  soa_tls.build(ins);
  // Local alias so the chunk lambda captures THIS thread's SoA: thread_local
  // variables are not captured — a worker naming `soa_tls` directly would
  // read its own (empty) instance.
  const ActionSoA& soa = soa_tls;

  ar.cost.resize_discard(ar.states);
  ar.best.resize_discard(ar.states);
  std::fill_n(ar.cost.data(), ar.states, kInf);
  std::fill_n(ar.best.data(), ar.states, -1);
  ar.cost.data()[0] = 0.0;

  const Mask* masks = ar.masks.data();
  double* cost = ar.cost.data();
  int* best = ar.best.data();
  const double* ws = ar.ws.data();
  const std::size_t chunk = wave_chunk(N);

  for (int j = 1; j <= k; ++j) {
    const std::size_t base = ar.layer_off[static_cast<std::size_t>(j)];
    const std::size_t n = ar.layer_off[static_cast<std::size_t>(j) + 1] - base;
    if (n == 0) continue;
    TTP_TRACE_SPAN(layer_span, "frontier.wave", res.steps);
    layer_span.attr("j", j);
    layer_span.attr("states", static_cast<std::uint64_t>(n));
    const std::size_t num_chunks = (n + chunk - 1) / chunk;
    const auto run_chunk = [&](std::size_t c) {
      const std::size_t c0 = base + c * chunk;
      const std::size_t cc = std::min(chunk, base + n - c0);
      RowScratch& rs = row_scratch();
      rs.inter.resize_discard(std::max<std::size_t>(nt, 1) * cc);
      rs.minus.resize_discard(static_cast<std::size_t>(N) * cc);
      std::uint32_t* ir = rs.inter.data();
      std::uint32_t* mr = rs.minus.data();
      // Gather rows: minus slots for every action, inter slots for tests
      // only (treatments never read theirs). A valid split's child is in
      // the closure by construction; invalid splits resolve to slot 0 (∅)
      // or the state's own slot, so find() can never miss here.
      for (std::size_t i = 0; i < static_cast<std::size_t>(N); ++i) {
        const Mask ts = soa.set[i];
        const Mask tn = soa.nset[i];
        std::uint32_t* row_m = mr + i * cc;
        for (std::size_t p = 0; p < cc; ++p) {
          row_m[p] = ar.map.find(masks[c0 + p] & tn);
          assert(row_m[p] != StateMap::kNotFound);
        }
        if (i < nt) {
          std::uint32_t* row_i = ir + i * cc;
          for (std::size_t p = 0; p < cc; ++p) {
            row_i[p] = ar.map.find(masks[c0 + p] & ts);
            assert(row_i[p] != StateMap::kNotFound);
          }
        }
      }
      eval_states_sparse(soa, masks + c0, ws + c0, ir, mr, cc, cc, cost, best,
                         c0);
    };
    for_ranges(pool, num_chunks, [&](std::size_t b, std::size_t e) {
      for (std::size_t c = b; c < e; ++c) run_chunk(c);
    });
    // Sequential cost model restricted to the reachable set: one parallel
    // step per M-evaluation actually performed.
    const std::uint64_t evals =
        static_cast<std::uint64_t>(n) * static_cast<std::uint64_t>(N);
    res.steps.charge(evals, evals);
  }

  const std::uint32_t uslot = ar.map.find(ins.universe());
  res.cost = cost[uslot];
  {
    TTP_TRACE_SPAN(tree_span, "frontier.tree");
    res.tree = reconstruct_sparse(ins, ar);
  }
  // Sparse results deliberately leave res.table empty — not materializing
  // the 2^k vectors is the point. cost/tree/steps/breakdown are complete.
  res.breakdown.add("m_evaluations", res.steps.total_ops);
  res.breakdown.add("frontier_states", ar.states);
  TTP_METRIC_ADD("kernel.frontier.solves", 1);
  TTP_METRIC_ADD("kernel.frontier.states", ar.states);
  TTP_METRIC_HIST("kernel.frontier.ratio",
                  (std::uint64_t{1} << k) / std::max<std::size_t>(ar.states, 1));
  return res;
}

}  // namespace

std::size_t FrontierConfig::state_budget(int k) const {
  std::size_t cap = max_states != 0
                        ? max_states
                        : std::max<std::size_t>(
                              1024, max_state_bytes / kSparseBytesPerState);
  if (k <= dense_max_k) {
    const double cross =
        dense_crossover * static_cast<double>(std::uint64_t{1} << k);
    cap = std::min(cap, std::max<std::size_t>(
                            1024, static_cast<std::size_t>(cross)));
  }
  return cap;
}

ClosureResult expand_reachable(const Instance& ins, std::size_t max_states,
                               FrontierArena& arena, util::ThreadPool* pool,
                               bool top_check) {
  const int k = ins.k();
  const int N = ins.num_actions();
  const std::size_t nt = static_cast<std::size_t>(ins.num_tests());
  const Mask U = ins.universe();

  arena.complete = false;
  arena.buckets.assign(static_cast<std::size_t>(k) + 1, {});
  arena.map.reset(std::min<std::size_t>(max_states, 4096));
  arena.map.insert(U, 0);
  arena.buckets[static_cast<std::size_t>(k)].push_back(U);
  std::size_t total = 2;  // ∅ and U (∅ joins the map at layout time)

  static thread_local ActionSoA soa_tls;
  soa_tls.build(ins);
  // Local alias so the emit lambda captures THIS thread's SoA (thread_local
  // variables are never captured; workers would see their own empty one).
  const ActionSoA& soa = soa_tls;
  // Emit capacity per state: two children per test, one per treatment.
  const std::size_t maxkids = 2 * nt + (static_cast<std::size_t>(N) - nt);
  const std::size_t chunk = expand_chunk(maxkids);
  arena.cand.resize_discard(chunk * std::max<std::size_t>(maxkids, 1));
  arena.cand_n.resize_discard(chunk);
  Mask* cand = arena.cand.data();
  std::uint32_t* cand_n = arena.cand_n.data();

  // Top-down: children have strictly smaller popcount, so one k -> 2
  // descent discovers the whole closure (layer-1 states only spawn ∅).
  // Layer j is complete once every layer above it has been expanded.
  const double top_sets = 0.5 * k * (k - 1);  // C(k,2) = |layer k−2|
  std::size_t expanded = 0;
  for (int j = k; j >= 2; --j) {
    const std::vector<Mask>& layer = arena.buckets[static_cast<std::size_t>(j)];
    if (top_check && j == k - 2 &&
        static_cast<double>(layer.size()) > kTopLayerDenseFill * top_sets) {
      arena.states = total;
      return ClosureResult{false, true, total, expanded};
    }
    expanded += layer.size();
    for (std::size_t off = 0; off < layer.size(); off += chunk) {
      const std::size_t cc = std::min(chunk, layer.size() - off);
      // Parallel emit: the dedup map is read-only here; each state writes
      // its own candidate row, so workers never touch shared state.
      for_ranges(pool, cc, [&](std::size_t b, std::size_t e) {
        for (std::size_t p = b; p < e; ++p) {
          const Mask s = layer[off + p];
          Mask* row = cand + p * maxkids;
          std::uint32_t cnt = 0;
          for (std::size_t i = 0; i < static_cast<std::size_t>(N); ++i) {
            const Mask im = s & soa.set[i];
            const Mask mm = s & soa.nset[i];
            if (i < nt) {
              if (im == 0 || mm == 0) continue;  // test does not split S
              if (arena.map.find(im) == StateMap::kNotFound) row[cnt++] = im;
              if (arena.map.find(mm) == StateMap::kNotFound) row[cnt++] = mm;
            } else {
              if (im == 0 || mm == 0) continue;  // inapplicable or final
              if (arena.map.find(mm) == StateMap::kNotFound) row[cnt++] = mm;
            }
          }
          cand_n[p] = cnt;
        }
      });
      // Serial merge: deterministic insertion order, budget enforcement.
      for (std::size_t p = 0; p < cc; ++p) {
        const Mask* row = cand + p * maxkids;
        const std::uint32_t cnt = cand_n[p];
        for (std::uint32_t c = 0; c < cnt; ++c) {
          if (!arena.map.insert(row[c], 0)) continue;
          arena.buckets[static_cast<std::size_t>(util::popcount(row[c]))]
              .push_back(row[c]);
          if (++total > max_states) {
            arena.states = total;
            return ClosureResult{false, false, total, expanded};
          }
        }
      }
    }
  }
  arena.states = total;
  arena.complete = true;
  layout_closure(ins, arena, pool);
  return ClosureResult{true, false, total, expanded};
}

ClosureOverBudget::ClosureOverBudget(int k_, std::size_t states_,
                                     int dense_max_k)
    : std::runtime_error(
          "frontier: reachable closure exceeds the sparse budget (" +
          std::to_string(states_) + "+ states) and k=" + std::to_string(k_) +
          " exceeds the dense ceiling " + std::to_string(dense_max_k)),
      k(k_),
      states(states_) {}

SolveResult solve_adaptive(const Instance& ins, SolveArena& dense,
                           FrontierArena& sparse, const FrontierConfig& cfg,
                           util::ThreadPool* pool, std::string_view span_name) {
  ins.check();
  const int k = ins.k();
  // Above the dense ceiling sparse is the only option, min_sparse_k
  // notwithstanding: no dense table may be built, so the budget-capped
  // expansion below decides whether the instance can be served at all.
  const bool must_sparse = k > cfg.dense_max_k;
  if (!cfg.enable_sparse || (!must_sparse && k < cfg.min_sparse_k)) {
    if (must_sparse) {
      throw std::runtime_error(
          "frontier: sparse path disabled and k=" + std::to_string(k) +
          " exceeds the dense ceiling " + std::to_string(cfg.dense_max_k));
    }
    return solve_with_arena(ins, dense, span_name);
  }
  // The top-layer check only where dense is exact and the caller left the
  // dense sweep a share of the lattice (dense_crossover = 1 forces sparse).
  const bool top_check = !must_sparse && cfg.dense_crossover < 1.0;
  ClosureResult cr;
  {
    TTP_TRACE_SPAN(span, "frontier.closure");
    cr = expand_reachable(ins, cfg.state_budget(k), sparse, pool, top_check);
    span.attr("states", static_cast<std::uint64_t>(cr.states));
    span.attr("expanded", static_cast<std::uint64_t>(cr.expanded));
    span.attr("complete", cr.complete ? 1 : 0);
    span.attr("top_full", cr.top_full ? 1 : 0);
  }
  if (!cr.complete) {
    TTP_METRIC_ADD("kernel.frontier.fallback", 1);
    if (must_sparse) {
      // Release the overrun's map and buckets: a reused arena keeps its
      // capacity, and every later expansion on it would refill a map
      // sized for the whole budget (1.68M states by default) first.
      sparse.map = StateMap{};
      sparse.buckets.clear();
      throw ClosureOverBudget(k, cr.states, cfg.dense_max_k);
    }
    // A budget overrun or a full top layer: the sparse attempt is given up
    // either way, and both read as a fallback.
    SolveResult res = solve_with_arena(ins, dense, span_name);
    res.breakdown.add("frontier_fallback", 1);
    return res;
  }
  return solve_on_closure(ins, sparse, pool, span_name);
}

FrontierSolver::FrontierSolver(std::size_t workers, FrontierConfig cfg)
    : pool_(workers), cfg_(cfg) {}

namespace {

/// Debug-only re-entrancy guard (see the class comment): two concurrent
/// solve() calls on one FrontierSolver race on the shared arenas.
class [[maybe_unused]] SolveGuard {
 public:
  explicit SolveGuard(std::atomic<bool>& flag) : flag_(flag) {
#ifndef NDEBUG
    const bool was = flag_.exchange(true, std::memory_order_acq_rel);
    assert(!was &&
           "FrontierSolver::solve is single-caller: concurrent calls race "
           "on the shared arenas");
#endif
  }
  ~SolveGuard() {
#ifndef NDEBUG
    flag_.store(false, std::memory_order_release);
#endif
  }

 private:
  [[maybe_unused]] std::atomic<bool>& flag_;
};

}  // namespace

SolveResult FrontierSolver::solve(const Instance& ins) const {
  const SolveGuard guard(in_solve_);
  return solve_adaptive(ins, dense_arena_, arena_, cfg_, &pool_,
                        "solve.frontier");
}

SolveResult FrontierSolver::solve_sparse(const Instance& ins,
                                         FrontierTables* tables) const {
  const SolveGuard guard(in_solve_);
  ins.check();
  const int k = ins.k();
  // Forced-sparse budget: cfg_.max_states when pinned, otherwise the full
  // lattice (expansion is bounded by 2^k, so it always completes).
  const std::size_t budget = cfg_.max_states != 0
                                 ? cfg_.max_states
                                 : (std::size_t{1} << k) + 1;
  ClosureResult cr;
  {
    TTP_TRACE_SPAN(span, "frontier.closure");
    cr = expand_reachable(ins, budget, arena_, &pool_);
    span.attr("states", static_cast<std::uint64_t>(cr.states));
  }
  if (!cr.complete) {
    throw std::runtime_error(
        "FrontierSolver::solve_sparse: closure exceeds max_states=" +
        std::to_string(budget));
  }
  SolveResult res = solve_on_closure(ins, arena_, &pool_, "solve.frontier");
  if (tables != nullptr) {
    tables->masks.assign(arena_.masks.data(),
                         arena_.masks.data() + arena_.states);
    tables->layer_off = arena_.layer_off;
    tables->cost.assign(arena_.cost.data(),
                        arena_.cost.data() + arena_.states);
    tables->best.assign(arena_.best.data(),
                        arena_.best.data() + arena_.states);
  }
  return res;
}

}  // namespace ttp::tt

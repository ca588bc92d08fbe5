#include "core/slice_refiner.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include "util/rng.hpp"

namespace ltns::core {
namespace {

// How far, in log2 units, the screen's estimate may sit from the exact
// ordered sum. Both approximate the same log2 Σ 2^term. The ordered chain
// rounds once per log2_add: with log2 costs below 128 an ulp of the running
// value is at most 2^-46 ≈ 1.4e-14, so ~10^3 nodes drift by at most
// ~1.4e-11, and the committed sum C the estimate starts from carries the
// same bound. The estimate adds k ≤ 10^3 linear-domain differences whose
// magnitudes total at most 1 + scale (the old terms are parts of C), each
// rounded by 2^-53, so scale is off by at most (k + 2)·2^-53·(1 + scale):
// with scale > kMinScale that is ≤ ~1.2e-10 relative, ~1.6e-10 in log2. The
// total, ≲ 2e-10, sits four orders of magnitude under the margin, so
// `estimate − margin` is a strict lower bound on the exact cost.
constexpr double kScreenMargin = 1e-6;
// Below this, 1 + Σ has cancelled too far for the estimate to be trusted.
constexpr double kMinScale = 0x1p-10;

// Acceptance probability of an uphill move, exp((C_ori − C_new)/C_ori / T),
// with huge C handled via the linear-domain ratio 2^(Δlog2). Falls as
// `dlog2` = log2 C_new − log2 C_ori grows.
double uphill_probability(double dlog2, double T) {
  return std::exp((1.0 - std::exp2(dlog2)) / T);
}

// evaluate_slicing's per-node values for the current slice set, kept across
// proposals (see the header). The state owns the slice set. An edit
// re-evaluates only the nodes incident to the edited edges and resumes the
// log2-sum at the first touched node, so every value is bit-identical to a
// full evaluation. An edit stays pending until commit() or rollback().
class SlicingState {
 public:
  SlicingState(const tn::ContractionTree& tree, SliceSet S, double target)
      : tree_(tree),
        S_(std::move(S)),
        bound_(target + 1e-9),
        incident_(size_t(tree.network()->num_edges())) {
    const size_t count = size_t(tree.num_nodes());
    size_.assign(count, kLog2Zero);  // counts as within bound until evaluated
    term_.assign(count, kLog2Zero);  // a leaf adds log2(0): log2_add returns acc as is
    rank_.assign(count, -1);
    dirty_.assign(count, 0);
    S_.edges().for_each([&](int e) { insert_sliced(e); });
    for (int i = 0; i < tree.num_nodes(); ++i) {
      const auto& n = tree.node(i);
      (n.is_leaf() ? n.ixs : n.union_ixs).for_each([&](int e) {
        incident_[size_t(e)].push_back(i);
      });
      if (!n.is_leaf()) {
        rank_[size_t(i)] = int(internal_.size());
        internal_.push_back(i);
      }
      evaluate(i);
    }
    running_.assign(internal_.size() + 1, kLog2Zero);
    pending_.assign(internal_.size() + 1, kLog2Zero);
    log2_total_cost();  // first_ == 0: the whole sum
    commit();
  }

  const SliceSet& slices() const { return S_; }
  size_t num_sliced() const { return sliced_.size(); }
  EdgeId sliced(size_t k) const { return sliced_[k].edge; }  // ascending edge ids
  double size(int node) const { return size_[size_t(node)]; }
  // satisfies_memory_bound over the stored sizes.
  bool fits() const { return over_ == 0; }

  // Pending edit: unslices `out` and, unless `in` is tn::kNone, slices `in`,
  // then re-evaluates the nodes incident to either.
  void edit(EdgeId out, EdgeId in) {
    S_.remove(out);
    erase_sliced(out);
    if (in != tn::kNone) {
      S_.add(in);
      insert_sliced(in);
    }
    out_ = out;
    in_ = in;
    touch(out);
    if (in != tn::kNone) touch(in);
  }

  // Bounded estimate of log2_total_cost() under the pending edit, from the
  // committed sum and the touched nodes' old and new terms alone; NaN where
  // cancellation makes it untrustworthy. Within kScreenMargin of the exact
  // value.
  double estimate() const {
    const double c = running_.back();
    double sum = 0;
    for (const Saved& u : undo_)  // a leaf's terms are log2(0): it would add +0
      if (rank_[size_t(u.node)] >= 0)
        sum += std::exp2(term_[size_t(u.node)] - c) - std::exp2(u.term - c);
    const double scale = 1.0 + sum;
    if (!(scale > kMinScale)) return std::numeric_limits<double>::quiet_NaN();
    return c + std::log2(scale) + S_.log2_num_subtasks();
  }

  // evaluate_slicing(tree, S).log2_total_cost, resumed at the first touched
  // internal node in tree order. Leaves add log2(0), which log2_add returns
  // unchanged, so the sum runs over internal nodes only.
  double log2_total_cost() {
    double acc = running_[size_t(first_)];
    for (size_t r = size_t(first_); r < internal_.size(); ++r)
      pending_[r + 1] = acc = log2_add(acc, term_[size_t(internal_[r])]);
    return acc + S_.log2_num_subtasks();
  }

  // Keeps the pending edit; log2_total_cost must have run since it.
  void commit() {
    std::copy(pending_.begin() + first_ + 1, pending_.end(), running_.begin() + first_ + 1);
    clear();
  }

  // Undoes the pending edit with the inverse SliceSet calls, as a caller
  // editing S itself would make them.
  void rollback() {
    if (in_ != tn::kNone) {
      S_.remove(in_);
      erase_sliced(in_);
    }
    S_.add(out_);
    insert_sliced(out_);
    for (auto u = undo_.rbegin(); u != undo_.rend(); ++u) {
      set_size(u->node, u->size);
      term_[size_t(u->node)] = u->term;
    }
    clear();
  }

 private:
  struct Sliced {
    EdgeId edge;
    double log2w;
  };
  struct Saved {
    int node;
    double size, term;
  };

  std::vector<Sliced>::iterator find_sliced(EdgeId e) {
    return std::lower_bound(sliced_.begin(), sliced_.end(), e,
                            [](const Sliced& s, EdgeId x) { return s.edge < x; });
  }
  void insert_sliced(EdgeId e) {
    sliced_.insert(find_sliced(e), {e, tree_.network()->edge(e).log2w});
  }
  void erase_sliced(EdgeId e) { sliced_.erase(find_sliced(e)); }

  // Re-evaluates the nodes incident to `e` that the pending edit has not
  // touched yet.
  void touch(EdgeId e) {
    for (int i : incident_[size_t(e)]) {
      if (dirty_[size_t(i)]) continue;
      dirty_[size_t(i)] = 1;
      undo_.push_back({i, size_[size_t(i)], term_[size_t(i)]});
      if (rank_[size_t(i)] >= 0) first_ = std::min(first_, rank_[size_t(i)]);
      evaluate(i);
    }
  }

  // sliced_node_log2size and the Eq. 4 term of evaluate_slicing, summing
  // log2w over the ≤ |S| sliced edges instead of intersecting bitsets. The
  // edges are visited in ascending id, as for_each_intersection visits
  // them, so both sums are the same doubles.
  void evaluate(int i) {
    const auto& n = tree_.node(i);
    double w_out = 0, w_union = 0;
    if (n.is_leaf()) {
      for (const Sliced& s : sliced_)
        if (n.ixs.contains(s.edge)) w_out += s.log2w;
    } else {
      for (const Sliced& s : sliced_) {
        if (n.ixs.contains(s.edge)) w_out += s.log2w;
        if (n.union_ixs.contains(s.edge)) w_union += s.log2w;
      }
      term_[size_t(i)] = n.log2cost - w_union;
    }
    set_size(i, n.log2size - w_out);
  }
  void set_size(int i, double s) {
    double& old = size_[size_t(i)];
    over_ += int(s > bound_) - int(old > bound_);
    old = s;
  }
  void clear() {
    for (const Saved& u : undo_) dirty_[size_t(u.node)] = 0;
    undo_.clear();
    first_ = int(internal_.size());
  }

  const tn::ContractionTree& tree_;
  SliceSet S_;
  std::vector<Sliced> sliced_;  // S_ in ascending edge id, with weights
  double bound_;                // a node is over the memory bound above this
  int over_ = 0;                // nodes whose stored size is over bound_
  // Per node in tree order: sliced log2 size, Eq. 4 term (log2(0) for leaves).
  std::vector<double> size_, term_;
  std::vector<int> internal_;  // internal nodes in tree order
  std::vector<int> rank_;      // per node: its position in internal_, -1 for a leaf
  // running_[r]: log2-sum of the first r internal terms (running_[0] is
  // log2(0)); pending_ holds the same under the pending edit.
  std::vector<double> running_, pending_;
  std::vector<char> dirty_;
  std::vector<std::vector<int>> incident_;  // per edge: nodes holding it, in order
  std::vector<Saved> undo_;
  // Rank of the first internal node the pending edit touched; |internal_| if none.
  int first_ = 0;
  EdgeId out_ = tn::kNone, in_ = tn::kNone;  // the pending edit
};

// Stem positions in the lifetime of `e` whose sliced tensor is exactly at
// the target rank — the paper's find_critical_tensors.
void find_critical_tensors(const tn::Stem& stem, const StemLifetimes& lt,
                           const SlicingState& state, double target, EdgeId e,
                           std::vector<int>& crit) {
  crit.clear();
  const auto& iv = lt.of(e);
  for (int p = iv.begin; p <= iv.end; ++p)
    if (std::abs(state.size(stem.nodes[size_t(p)]) - target) < 1e-9) crit.push_back(p);
}

// Unsliced stem edges whose lifetime covers every critical position — the
// paper's find_candidate_indices.
void find_candidate_indices(const tn::Stem& stem, const StemLifetimes& lt, const IndexSet& S,
                            const std::vector<int>& crit, EdgeId skip,
                            std::vector<EdgeId>& out) {
  out.clear();
  if (crit.empty()) return;
  // Any covering edge must be an index of the first critical tensor; scan
  // those instead of the whole edge universe.
  const auto& first_ixs = stem.tree->node(stem.nodes[size_t(crit.front())]).ixs;
  const auto& net = *stem.tree->network();
  first_ixs.for_each([&](int e) {
    // Never swap an open (output) edge in: the runners only merge additively
    // over closed edges, so open edges must survive to the root un-sliced.
    if (e == skip || S.contains(e) || net.edge(EdgeId(e)).b == tn::kNone) return;
    const auto& iv = lt.of(e);
    bool covers = true;
    for (int p : crit)
      if (!iv.contains(p)) {
        covers = false;
        break;
      }
    if (covers) out.push_back(EdgeId(e));
  });
}

}  // namespace

SliceSet refine_slices(const tn::Stem& stem, SliceSet S, const SliceRefinerOptions& opt,
                       RefineStats* stats_out) {
  auto lt = StemLifetimes::build(stem);
  SlicingState state(*stem.tree, std::move(S), opt.target_log2size);
  Rng rng(opt.seed);
  RefineStats stats;

  double cur_cost = state.log2_total_cost();
  stats.initial_log2cost = cur_cost;
  SliceSet best = state.slices();
  double best_cost = cur_cost;
  std::vector<int> crit;
  std::vector<EdgeId> candidates;

  for (double T = opt.initial_temperature; T > opt.final_temperature; T *= opt.alpha) {
    for (int k = 0; k < opt.moves_per_temperature; ++k) {
      if (state.num_sliced() == 0) break;
      EdgeId a = state.sliced(rng.next_below(state.num_sliced()));

      find_critical_tensors(stem, lt, state, opt.target_log2size, a, crit);
      if (crit.empty()) {
        // `a` shields no critical tensor; if the whole tree stays within
        // bound without it, it is pure overhead — drop it.
        state.edit(a, tn::kNone);
        if (state.fits()) {
          ++stats.dropped_useless;
          ++stats.exact_evals;
          cur_cost = state.log2_total_cost();
          state.commit();
          if (cur_cost < best_cost) {
            best = state.slices();
            best_cost = cur_cost;
          }
        } else {
          state.rollback();  // needed by a branch tensor after all
        }
        continue;
      }

      find_candidate_indices(stem, lt, state.slices().edges(), crit, a, candidates);
      for (EdgeId b : candidates) {
        ++stats.proposed;
        state.edit(a, b);
        bool take = false;
        double cost = 0;
        if (state.fits()) {  // out of bound, the cost is never read
          // Screen: when even the lower bound on the cost is above
          // cur_cost the move is surely uphill, so u is drawn here as the
          // exact rule would draw it. The acceptance probability falls with
          // the cost, so u ≥ p(cost_floor) ≥ p(cost) rejects without the
          // ordered sum. A NaN estimate compares false and takes the exact
          // path.
          const double cost_floor = state.estimate() - kScreenMargin;
          const bool uphill = cost_floor > cur_cost;
          const double u = uphill ? rng.next_double() : 0;
          if (!uphill || u < uphill_probability(cost_floor - cur_cost, T)) {
            ++stats.exact_evals;
            cost = state.log2_total_cost();
            if (cost < cur_cost) {
              take = true;
            } else if ((uphill ? u : rng.next_double()) <
                       uphill_probability(cost - cur_cost, T)) {
              take = true;
              ++stats.uphill_accepted;
            }
          }
        }
        if (take) {
          state.commit();
          ++stats.accepted;
          cur_cost = cost;
          if (cur_cost < best_cost) {
            best = state.slices();
            best_cost = cur_cost;
          }
          a = b;  // the sliced edge under consideration is now b
        } else {
          state.rollback();
        }
      }
    }
  }

  stats.final_log2cost = best_cost;
  if (stats_out) *stats_out = stats;
  return best;
}

}  // namespace ltns::core

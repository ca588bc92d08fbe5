#include "core/slice_refiner.hpp"

#include <algorithm>
#include <cmath>

#include "util/rng.hpp"

namespace ltns::core {
namespace {

// evaluate_slicing's per-node values for the current slice set, kept across
// proposals (see the header). An edit of S re-evaluates only the nodes
// incident to the edited edges and resumes the log2-sum at the first touched
// node, so every value is bit-identical to a full evaluation. An edit stays
// pending until commit() or rollback().
class SlicingState {
 public:
  SlicingState(const tn::ContractionTree& tree, const SliceSet& S)
      : tree_(tree), incident_(size_t(tree.network()->num_edges())) {
    const size_t count = size_t(tree.num_nodes());
    size_.resize(count);
    term_.assign(count, kLog2Zero);  // a leaf adds log2(0): log2_add returns acc as is
    running_.resize(count);
    pending_.resize(count);
    dirty_.assign(count, 0);
    for (int i = 0; i < tree.num_nodes(); ++i) {
      const auto& n = tree.node(i);
      (n.is_leaf() ? n.ixs : n.union_ixs).for_each([&](int e) {
        incident_[size_t(e)].push_back(i);
      });
      evaluate(i, S.edges());
    }
    log2_total_cost(S);  // first_ == 0: the whole sum
    commit();
  }

  double size(int node) const { return size_[size_t(node)]; }

  // satisfies_memory_bound over the stored sizes.
  bool fits(double target) const {
    for (double s : size_)
      if (s > target + 1e-9) return false;
    return true;
  }

  // Re-evaluates the nodes incident to `e`; call once per edited edge, after
  // every edit of the proposal has been applied to S.
  void update(EdgeId e, const IndexSet& S) {
    for (int i : incident_[size_t(e)]) {
      if (dirty_[size_t(i)]) continue;
      dirty_[size_t(i)] = 1;
      undo_.push_back({i, size_[size_t(i)], term_[size_t(i)]});
      first_ = std::min(first_, i);
      evaluate(i, S);
    }
  }

  // evaluate_slicing(tree, S).log2_total_cost, resumed at the first touched
  // node in tree order.
  double log2_total_cost(const SliceSet& S) {
    double acc = first_ == 0 ? kLog2Zero : running_[size_t(first_) - 1];
    for (size_t i = size_t(first_); i < term_.size(); ++i)
      pending_[i] = acc = log2_add(acc, term_[i]);
    return acc + S.log2_num_subtasks();
  }

  // Keeps the pending edit; log2_total_cost must have run since it.
  void commit() {
    std::copy(pending_.begin() + first_, pending_.end(), running_.begin() + first_);
    clear();
  }

  void rollback() {
    for (auto u = undo_.rbegin(); u != undo_.rend(); ++u) {
      size_[size_t(u->node)] = u->size;
      term_[size_t(u->node)] = u->term;
    }
    clear();
  }

 private:
  struct Saved {
    int node;
    double size, term;
  };

  void evaluate(int i, const IndexSet& S) {
    const auto& n = tree_.node(i);
    size_[size_t(i)] = sliced_node_log2size(tree_, i, S);
    if (!n.is_leaf())
      term_[size_t(i)] = n.log2cost - tn::log2w_intersection(*tree_.network(), n.union_ixs, S);
  }
  void clear() {
    for (const Saved& u : undo_) dirty_[size_t(u.node)] = 0;
    undo_.clear();
    first_ = int(size_.size());
  }

  const tn::ContractionTree& tree_;
  // Per node in tree order: sliced log2 size, Eq. 4 term, log2-sum so far.
  std::vector<double> size_, term_, running_, pending_;
  std::vector<char> dirty_;
  std::vector<std::vector<int>> incident_;  // per edge: nodes holding it, in order
  std::vector<Saved> undo_;
  int first_ = 0;  // first node the pending edit touched; num_nodes if none
};

// Stem positions in the lifetime of `e` whose sliced tensor is exactly at
// the target rank — the paper's find_critical_tensors.
std::vector<int> find_critical_tensors(const tn::Stem& stem, const StemLifetimes& lt,
                                       const SlicingState& state, double target, EdgeId e) {
  std::vector<int> crit;
  const auto& iv = lt.of(e);
  for (int p = iv.begin; p <= iv.end; ++p)
    if (std::abs(state.size(stem.nodes[size_t(p)]) - target) < 1e-9) crit.push_back(p);
  return crit;
}

// Unsliced stem edges whose lifetime covers every critical position — the
// paper's find_candidate_indices.
std::vector<EdgeId> find_candidate_indices(const tn::Stem& stem, const StemLifetimes& lt,
                                           const IndexSet& S, const std::vector<int>& crit,
                                           EdgeId skip) {
  std::vector<EdgeId> out;
  if (crit.empty()) return out;
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
  return out;
}

}  // namespace

SliceSet refine_slices(const tn::Stem& stem, SliceSet S, const SliceRefinerOptions& opt,
                       RefineStats* stats_out) {
  auto lt = StemLifetimes::build(stem);
  SlicingState state(*stem.tree, S);
  Rng rng(opt.seed);
  RefineStats stats;

  double cur_cost = state.log2_total_cost(S);
  stats.initial_log2cost = cur_cost;
  SliceSet best = S;
  double best_cost = cur_cost;

  for (double T = opt.initial_temperature; T > opt.final_temperature; T *= opt.alpha) {
    for (int k = 0; k < opt.moves_per_temperature; ++k) {
      auto sliced = S.to_vector();
      if (sliced.empty()) break;
      EdgeId a = sliced[rng.next_below(sliced.size())];

      auto crit = find_critical_tensors(stem, lt, state, opt.target_log2size, a);
      if (crit.empty()) {
        // `a` shields no critical tensor; if the whole tree stays within
        // bound without it, it is pure overhead — drop it.
        S.remove(a);
        state.update(a, S.edges());
        if (state.fits(opt.target_log2size)) {
          ++stats.dropped_useless;
          cur_cost = state.log2_total_cost(S);
          state.commit();
          if (cur_cost < best_cost) {
            best = S;
            best_cost = cur_cost;
          }
        } else {
          S.add(a);  // needed by a branch tensor after all
          state.rollback();
        }
        continue;
      }

      for (EdgeId b : find_candidate_indices(stem, lt, S.edges(), crit, a)) {
        ++stats.proposed;
        S.remove(a);
        S.add(b);
        state.update(a, S.edges());
        state.update(b, S.edges());
        bool take = false;
        double cost = 0;
        if (state.fits(opt.target_log2size)) {  // out of bound, the cost is never read
          cost = state.log2_total_cost(S);
          if (cost < cur_cost) {
            take = true;
          } else {
            // exp((C_ori − C_new)/C_ori / T) with huge C handled via the
            // linear-domain ratio 2^(Δlog2).
            double ratio = std::exp2(cost - cur_cost);
            double p = std::exp((1.0 - ratio) / T);
            if (rng.next_double() < p) {
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
            best = S;
            best_cost = cur_cost;
          }
          a = b;  // the sliced edge under consideration is now b
        } else {
          S.remove(b);
          S.add(a);
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

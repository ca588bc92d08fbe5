#include "core/slice_finder.hpp"

#include <algorithm>

#include "core/greedy_slicer.hpp"

namespace ltns::core {
namespace {

// Lifetime length counted over the positions still in M ("Update lf" step).
int remaining_length(const LifetimeInterval& iv, const std::vector<char>& alive) {
  if (!iv.alive()) return 0;
  int len = 0;
  for (int p = iv.begin; p <= iv.end; ++p) len += alive[size_t(p)];
  return len;
}

}  // namespace

SliceSet lifetime_slice_finder(const tn::Stem& stem, const SliceFinderOptions& opt,
                               SlicedMetrics* metrics_out) {
  const tn::ContractionTree& tree = *stem.tree;
  const TensorNetwork& net = *tree.network();
  const double t = opt.target_log2size;
  const int N = stem.length();

  auto lifetimes = StemLifetimes::build(stem);
  SliceSet S(net);

  // Current (post-slicing) log2 size of each stem tensor.
  std::vector<double> dims(static_cast<size_t>(N), 0.0);
  for (int p = 0; p < N; ++p) dims[size_t(p)] = stem.log2size(p);

  // M = positions whose tensor still exceeds the target.
  std::vector<char> alive(size_t(N), 0);
  int n_alive = 0;
  for (int p = 0; p < N; ++p)
    if (dims[size_t(p)] > t + 1e-9) {
      alive[size_t(p)] = 1;
      ++n_alive;
    }

  auto slice_edge = [&](EdgeId e) {
    S.add(e);
    const auto& iv = lifetimes.of(e);
    for (int p = iv.begin; p <= iv.end; ++p) dims[size_t(p)] -= net.edge(e).log2w;
  };

  while (n_alive > 0) {
    // Ends of the remaining region.
    int front = 0, back = N - 1;
    while (!alive[size_t(front)]) ++front;
    while (!alive[size_t(back)]) --back;
    const int sT = dims[size_t(front)] < dims[size_t(back)] ? front : back;

    // Slice sT down to the target: its unsliced indices, longest remaining
    // lifetime first.
    while (dims[size_t(sT)] > t + 1e-9) {
      EdgeId best = tn::kNone;
      int best_len = -1;
      LifetimeInterval best_iv;
      tree.node(stem.nodes[size_t(sT)]).ixs.for_each([&](int e) {
        // Open edges carry the batch output — slicing one would make the
        // runners' additive merge scramble the result (see make_plan, which
        // clamps the target so a non-open candidate always exists here).
        if (S.contains(e) || net.edge(EdgeId(e)).b == tn::kNone) return;
        const auto& iv = lifetimes.of(e);
        int len = remaining_length(iv, alive);
        // Tie-break on the raw interval, then the id, for determinism.
        if (len > best_len ||
            (len == best_len && iv.length() > best_iv.length()) ||
            (len == best_len && iv.length() == best_iv.length() && e < best)) {
          best = e;
          best_len = len;
          best_iv = iv;
        }
      });
      if (best == tn::kNone) throw_unreachable_target("lifetime_slice_finder", net, t);
      slice_edge(best);
    }

    // Drop everything that now fits.
    for (int p = 0; p < N; ++p) {
      if (alive[size_t(p)] && dims[size_t(p)] <= t + 1e-9) {
        alive[size_t(p)] = 0;
        --n_alive;
      }
    }
  }

  if (opt.fixup_whole_tree && !satisfies_memory_bound(tree, S, t)) {
    // Branches are normally below the bound; when one is not, extend the set
    // with the greedy rule restricted to the still-oversized nodes.
    while (!satisfies_memory_bound(tree, S, t)) {
      IndexSet cand(net.num_edges());
      for (int i = 0; i < tree.num_nodes(); ++i)
        if (sliced_node_log2size(tree, i, S.edges()) > t + 1e-9) cand |= tree.node(i).ixs;
      cand -= S.edges();
      EdgeId best = tn::kNone;
      double best_cost = 0;
      cand.for_each([&](int e) {
        if (net.edge(EdgeId(e)).b == tn::kNone) return;  // open: never sliced
        S.add(e);
        double c = evaluate_slicing(tree, S).log2_total_cost;
        S.remove(e);
        if (best == tn::kNone || c < best_cost) {
          best = e;
          best_cost = c;
        }
      });
      if (best == tn::kNone) throw_unreachable_target("lifetime_slice_finder", net, t);
      S.add(best);
    }
  }

  if (metrics_out) *metrics_out = evaluate_slicing(tree, S);
  return S;
}

}  // namespace ltns::core

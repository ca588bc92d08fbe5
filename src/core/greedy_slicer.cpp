#include "core/greedy_slicer.hpp"

#include <algorithm>
#include <cassert>

namespace ltns::core {
namespace {

// Collects the unsliced indices of every node whose sliced size still
// exceeds the bound. These are the only edges whose slicing can reduce the
// maximum — exactly cotengra's candidate pool.
std::vector<EdgeId> oversized_candidates(const ContractionTree& tree, const SliceSet& S,
                                         double target) {
  IndexSet cand(tree.network()->num_edges());
  for (int i = 0; i < tree.num_nodes(); ++i) {
    if (sliced_node_log2size(tree, i, S.edges()) <= target + 1e-9) continue;
    cand |= tree.node(i).ixs;
  }
  cand -= S.edges();
  // Open edges carry the batch output and must survive to the root un-sliced
  // (the runners merge subtask results by addition over closed edges only).
  std::vector<EdgeId> out;
  cand.for_each([&](int e) {
    if (tree.network()->edge(EdgeId(e)).b != tn::kNone) out.push_back(EdgeId(e));
  });
  return out;
}

}  // namespace

SliceSet greedy_slice(const ContractionTree& tree, const GreedySlicerOptions& opt,
                      SlicedMetrics* metrics_out) {
  SliceSet S(*tree.network());
  while (!satisfies_memory_bound(tree, S, opt.target_log2size)) {
    assert(S.size() < opt.max_slices && "greedy slicer exceeded max_slices");
    auto cands = oversized_candidates(tree, S, opt.target_log2size);
    if (cands.empty())
      throw_unreachable_target("greedy_slice", *tree.network(), opt.target_log2size);
    EdgeId best = tn::kNone;
    double best_cost = 0;
    for (EdgeId e : cands) {
      S.add(e);
      double c = evaluate_slicing(tree, S).log2_total_cost;
      S.remove(e);
      if (best == tn::kNone || c < best_cost) {
        best = e;
        best_cost = c;
      }
    }
    S.add(best);
  }
  if (metrics_out) *metrics_out = evaluate_slicing(tree, S);
  return S;
}

}  // namespace ltns::core

#include "core/slicing.hpp"

#include <cassert>
#include <cmath>
#include <sstream>
#include <stdexcept>

namespace ltns::core {

void SliceSet::add(EdgeId e) {
  assert(!set_.contains(e));
  set_.insert(e);
  log2w_ += net_->edge(e).log2w;
}

void SliceSet::remove(EdgeId e) {
  assert(set_.contains(e));
  set_.erase(e);
  log2w_ -= net_->edge(e).log2w;
}

SlicedMetrics evaluate_slicing(const ContractionTree& tree, const SliceSet& slices) {
  const TensorNetwork& net = *tree.network();
  const IndexSet& S = slices.edges();
  SlicedMetrics m;
  m.log2_num_subtasks = slices.log2_num_subtasks();

  Log2Accumulator per_subtask;
  for (const auto& n : tree.nodes()) {
    double sz = n.log2size - tn::log2w_intersection(net, n.ixs, S);
    m.max_log2size = std::max(m.max_log2size, sz);
    if (n.is_leaf()) continue;
    // Sliced indices inside s_l ∪ s_r are fixed within a subtask: the
    // contraction loses exactly their weight (Eq. 4 term).
    double c = n.log2cost - tn::log2w_intersection(net, n.union_ixs, S);
    per_subtask.add(c);
    m.max_union_log2size = std::max(m.max_union_log2size, c);
  }
  m.log2_cost_per_subtask = per_subtask.value();
  m.log2_total_cost = m.log2_cost_per_subtask + m.log2_num_subtasks;
  m.log2_overhead = m.log2_total_cost - tree.total_log2cost();
  return m;
}

double sliced_node_log2size(const ContractionTree& tree, int node, const IndexSet& slices) {
  const auto& n = tree.node(node);
  return n.log2size - tn::log2w_intersection(*tree.network(), n.ixs, slices);
}

bool satisfies_memory_bound(const ContractionTree& tree, const SliceSet& slices,
                            double target_log2size) {
  for (int i = 0; i < tree.num_nodes(); ++i)
    if (sliced_node_log2size(tree, i, slices.edges()) > target_log2size + 1e-9) return false;
  return true;
}

double open_log2width(const TensorNetwork& net) {
  double w = 0;
  for (EdgeId e : net.open_edges()) w += net.edge(e).log2w;
  return w;
}

void throw_unreachable_target(const char* slicer, const TensorNetwork& net,
                              double target_log2size) {
  std::ostringstream o;
  o << slicer << ": target_log2size " << target_log2size << " is unreachable: open edges are "
    << "never sliced (open width " << open_log2width(net) << ")";
  throw std::invalid_argument(o.str());
}

double brute_force_sliced_log2cost(const ContractionTree& tree, const SliceSet& slices) {
  const TensorNetwork& net = *tree.network();
  auto sliced = slices.to_vector();
  for (EdgeId e : sliced) {
    (void)e;
    assert(std::abs(net.edge(e).log2w - 1.0) < 1e-12 && "reference assumes unit weights");
  }
  const size_t n_tasks = size_t(1) << sliced.size();
  Log2Accumulator total;
  for (size_t task = 0; task < n_tasks; ++task) {
    // Every subtask runs the identical shrunken tree, so the assignment does
    // not change the cost — but we still loop to mirror the execution
    // structure the definition describes.
    Log2Accumulator sub;
    for (const auto& nd : tree.nodes()) {
      if (nd.is_leaf()) continue;
      sub.add(nd.log2cost - tn::log2w_intersection(net, nd.union_ixs, slices.edges()));
    }
    total.add(sub.value());
  }
  return total.value();
}

}  // namespace ltns::core

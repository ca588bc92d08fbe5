// Slicing cost model: Eq. 2 (overhead) and Eq. 4 (sliced total cost).
//
// Slicing a set S of edges fixes those indices, splitting the contraction
// into Π_{e∈S} 2^{log2w(e)} independent subtasks. Inside one subtask, a
// contraction whose union index set meets S gets cheaper by the weight of
// the met indices; contractions untouched by S are recomputed identically in
// every subtask — that recomputation is the *slicing overhead*.
#pragma once

#include <string>
#include <vector>

#include "tn/contraction_tree.hpp"
#include "util/index_set.hpp"
#include "util/log2math.hpp"

namespace ltns::core {

using tn::ContractionTree;
using tn::EdgeId;
using tn::TensorNetwork;

struct SlicedMetrics {
  double log2_num_subtasks = 0;      // Σ log2w over S
  double log2_cost_per_subtask = 0;  // C_slice(B) of Eq. 2, log2
  double log2_total_cost = 0;        // per-subtask × subtasks, log2
  double log2_overhead = 0;          // Eq. 2, log2 (0 ⇒ no overhead)
  double max_log2size = 0;           // biggest sliced intermediate
  double max_union_log2size = 0;     // biggest sliced contraction scope
  double overhead() const { return std::exp2(log2_overhead); }
};

class SliceSet {
 public:
  SliceSet() = default;  // empty shell; assign a real one before use
  explicit SliceSet(const TensorNetwork& net) : net_(&net), set_(net.num_edges()) {}

  const IndexSet& edges() const { return set_; }
  int size() const { return set_.count(); }
  bool contains(EdgeId e) const { return set_.contains(e); }
  void add(EdgeId e);
  void remove(EdgeId e);
  std::vector<EdgeId> to_vector() const { return set_.to_vector(); }
  // Σ log2w over the sliced edges == log2 of the subtask count.
  double log2_num_subtasks() const { return log2w_; }

 private:
  const TensorNetwork* net_ = nullptr;
  IndexSet set_;
  double log2w_ = 0;
};

// Evaluates Eq. 2 / Eq. 4 for `slices` over the whole tree.
SlicedMetrics evaluate_slicing(const ContractionTree& tree, const SliceSet& slices);

// Sliced log2 size of one tree node's output tensor.
double sliced_node_log2size(const ContractionTree& tree, int node, const IndexSet& slices);

// True iff every intermediate tensor fits 2^target_log2size after slicing.
bool satisfies_memory_bound(const ContractionTree& tree, const SliceSet& slices,
                            double target_log2size);

// Σ log2w over the open (output) edges, which no slicer ever picks.
double open_log2width(const TensorNetwork& net);

// std::invalid_argument for a slicer whose oversized tensor holds only open
// edges: `target_log2size` is below what slicing can reach.
[[noreturn]] void throw_unreachable_target(const char* slicer, const TensorNetwork& net,
                                           double target_log2size);

// Brute-force reference used by tests: enumerates all subtask assignments of
// the (unit-weight) sliced edges and sums per-subtask costs directly.
// Exponential in |S|; keep |S| small.
double brute_force_sliced_log2cost(const ContractionTree& tree, const SliceSet& slices);

}  // namespace ltns::core

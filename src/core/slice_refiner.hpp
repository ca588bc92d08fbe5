// Algorithm 2: simulated-annealing slice refiner.
//
// Keeps the size of the slicing set fixed and searches the neighborhood
// generated by *edge replacement*: a sliced index `a` may be swapped for an
// unsliced index `b` whose lifetime contains all of `a`'s critical tensors
// (stem tensors sitting exactly at the target rank — the ones that would
// overflow if `a` were unsliced). Uphill moves are accepted with probability
// exp((C_ori − C_new) / C_ori / T), escaping the local minima a greedy
// replacement gets stuck in. Sliced edges whose lifetime contains no
// critical tensor contribute nothing to memory reduction and are dropped
// outright.
//
// Evaluation is incremental. The refiner keeps, across proposals, each
// node's sliced size and Eq. 4 cost term, an edge → node incidence list
// (nodes whose `ixs` or `union_ixs` hold the edge) and the running log2-sum
// after each node in tree order (a leaf adds log2(0), which log2_add returns
// unchanged). A swap or drop re-evaluates only the nodes incident to the
// edited edges, with the same log2w_intersection calls as evaluate_slicing,
// and resumes the sum from the stored running value just before the first
// touched node. Bit-identity rule: the same doubles are added in the same
// order as a full evaluation, so the
// returned set, its SlicedMetrics and RefineStats match the full-
// re-evaluation loop bit for bit (tests/reference_refiner.hpp); a rejected
// proposal restores the saved values instead of re-evaluating.
#pragma once

#include <cstdint>

#include "core/lifetime.hpp"
#include "core/slicing.hpp"
#include "tn/stem.hpp"

namespace ltns::core {

struct SliceRefinerOptions {
  double target_log2size = 30;
  double initial_temperature = 1.0;
  double final_temperature = 1e-3;
  double alpha = 0.9;      // geometric cooling factor
  int moves_per_temperature = 24;
  uint64_t seed = 0xC0FFEE;
};

struct RefineStats {
  int proposed = 0;
  int accepted = 0;
  int uphill_accepted = 0;
  int dropped_useless = 0;  // sliced edges with no critical tensor, removed
  double initial_log2cost = 0;
  double final_log2cost = 0;
};

// Returns the best (lowest Eq. 4 total cost) slicing set seen; it always
// satisfies the whole-tree memory bound if the input does.
SliceSet refine_slices(const tn::Stem& stem, SliceSet S, const SliceRefinerOptions& opt,
                       RefineStats* stats_out = nullptr);

}  // namespace ltns::core

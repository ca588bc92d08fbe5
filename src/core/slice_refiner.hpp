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
// after each internal node in tree order (a leaf adds log2(0), which
// log2_add returns unchanged, so leaves are left out of the sum). A swap or
// drop re-evaluates only the nodes incident to the edited edges. Each such
// node sums log2w over the ≤ |S| sliced edges it holds, kept as a sorted
// vector, instead of intersecting full bitsets; the edges are visited in
// ascending id, as for_each_intersection visits them, so each sum is the
// same double. A count of nodes over the memory bound, kept as sizes
// change, makes the bound check O(1).
//
// Most proposals are rejected, so they are screened before the exact sum.
// From the committed sum C and the touched nodes' old and new terms alone,
// est = C + log2(1 + Σ(2^(new−C) − 2^(old−C))) + log2 |subtasks|. Rounding
// keeps est within ~2e-10 of the exact ordered sum over ~10^3 nodes, so
// est − 1e-6 is a strict lower bound on it (slice_refiner.cpp derives the
// margin). When that bound is above the current cost the move is surely
// uphill: u is drawn where the exact rule draws it, and u ≥ the acceptance
// probability at the bound rejects the move, since the probability falls
// with the cost. Every other proposal — a possible accept, an estimate
// within the margin, a NaN estimate or one where 1 + Σ ≤ 2^-10 has
// cancelled — resumes the ordered sum from the stored running value just
// before the first touched node.
//
// Bit-identity rule: the same doubles are added in the same order as a full
// evaluation and the RNG is drawn at the same points, so the returned set,
// its SlicedMetrics and RefineStats match the full-re-evaluation loop bit
// for bit (tests/reference_refiner.hpp); a rejected proposal restores the
// saved values instead of re-evaluating.
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
  int exact_evals = 0;      // ordered log2-sum evaluations (proposals the screen kept, drops)
  double initial_log2cost = 0;
  double final_log2cost = 0;
};

// Returns the best (lowest Eq. 4 total cost) slicing set seen; it always
// satisfies the whole-tree memory bound if the input does.
SliceSet refine_slices(const tn::Stem& stem, SliceSet S, const SliceRefinerOptions& opt,
                       RefineStats* stats_out = nullptr);

}  // namespace ltns::core

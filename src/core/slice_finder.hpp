// Algorithm 1: the lifetime-guided, in-place slice finder.
//
// Works on the stem. Walk in from whichever end of the still-oversized
// region has the smaller tensor; slice that tensor down to the target rank
// by picking its indices with the *longest remaining lifetime* (so each
// sliced index also shrinks as much of the rest of the stem as possible);
// drop every tensor that now fits; repeat until nothing is oversized.
// Theorem 1 motivates the goal: a smaller valid slicing set implies (via an
// exchange argument) the existence of an equally small set with lower
// overhead, which the SA refiner (Algorithm 2) then looks for.
#pragma once

#include "core/lifetime.hpp"
#include "core/slicing.hpp"
#include "tn/stem.hpp"

namespace ltns::core {

struct SliceFinderOptions {
  double target_log2size = 30;
  // If true, greedily add slices afterwards until the *whole tree* (branches
  // included) meets the bound; the stem-only result is what Algorithm 1
  // itself guarantees.
  bool fixup_whole_tree = true;
};

// Throws std::invalid_argument when a tensor above the target holds only
// open edges (target below the open width; make_plan clamps it first).
SliceSet lifetime_slice_finder(const tn::Stem& stem, const SliceFinderOptions& opt,
                               SlicedMetrics* metrics_out = nullptr);

}  // namespace ltns::core

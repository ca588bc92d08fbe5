// Greedy slicing baseline (the cotengra strategy, §2.1.2).
//
// "It repeatedly chooses a dimension that leads to the most minor overhead
// to slice, until the memory demand is satisfied." Candidates are the
// indices of the currently-largest sliced intermediates; the pick minimizes
// the resulting Eq. 4 total cost. This is the comparison target of Fig. 10.
#pragma once

#include "core/slicing.hpp"

namespace ltns::core {

struct GreedySlicerOptions {
  // Stop when every sliced intermediate is ≤ 2^target_log2size.
  double target_log2size = 30;
  // Safety valve against degenerate trees.
  int max_slices = 256;
};

// Returns the slicing set; `metrics_out` (optional) receives the final
// Eq. 2/4 evaluation. Throws std::invalid_argument when an oversized tensor
// holds only open edges (target below the open width).
SliceSet greedy_slice(const ContractionTree& tree, const GreedySlicerOptions& opt,
                      SlicedMetrics* metrics_out = nullptr);

}  // namespace ltns::core

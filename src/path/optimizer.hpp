// Multi-trial path optimization driver (the cotengra "anytime" loop).
//
// Runs a budget of randomized greedy / partition trials, keeps the best tree
// by Eq. 1 cost, then applies subtree local tuning. The trials run on
// short-lived threads and are folded in trial-index order, so the result is
// the same for any thread count. Every raw trial is returned too, so the
// planner can rank them by their sliced cost (core::make_plan). This is the
// front half of the planning pipeline; the back half (slicing) lives in
// core/.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "tn/contraction_tree.hpp"

namespace ltns::path {

struct OptimizerOptions {
  int greedy_trials = 24;
  int partition_trials = 8;
  double temperature = 0.6;   // greedy-noise scale after the first trial
  bool tune = true;
  int tune_max_leaves = 8;
  int tune_sweeps = 2;
  uint64_t seed = 7;
};

// One raw (untuned) trial, in the order find_path ran it.
struct PathTrial {
  tn::SsaPath path;
  double log2cost = 0;  // Eq. 1 total, log2 flops
  int index = 0;        // position in PathResult::trials
  std::string method;   // family and per-family trial number, e.g. "greedy#0"
};

struct PathResult {
  tn::SsaPath path;
  double log2cost = 0;     // Eq. 1 total, log2 flops
  double log2size = 0;     // biggest intermediate, log2 elements
  std::string method;      // the winning trial, e.g. "greedy#17+tune"
  int best_trial = -1;     // index of the raw trial `path` was tuned from
  std::vector<PathTrial> trials;  // every trial run
};

PathResult find_path(const tn::TensorNetwork& net, const OptimizerOptions& opt = {});

// Monotone process-wide count of find_path calls. The plan cache's "a warm
// run performs zero path-optimization work" guarantee is asserted against
// this counter (exported as ltns_planner_invocations_total): tests and the
// CI cache job read it before and after a cached run.
uint64_t find_path_invocations();

}  // namespace ltns::path

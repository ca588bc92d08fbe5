// Planner: the end-to-end planning pipeline of the paper.
//
//   network --(path optimizer)--> path trials + tuned default path
//           --(per trial: tree, stem, Algorithm 1 slice finder)-->
//             sliced cost (Eq. 4) of each screened trial
//           --(Algorithm 2 SA refiner, on the default and the screen's
//              winner)--> the lower-cost refined plan
//
// The screen (kLifetimeRefined only) takes the default first, then the
// other trials by (Eq. 1 cost, trial index), and stops at the first trial
// whose unsliced cost reaches the best sliced cost found: Eq. 4 >= Eq. 1,
// so no later trial can win. The two refines run on two threads with the
// same seed; a tie keeps the default, so the plan is a pure function of
// (network, PlanOptions). kLifetime and kGreedyBaseline slice the default
// path only (the slicer ablations compare slicers on one tree).
#pragma once

#include <memory>
#include <string>

#include "core/slice_finder.hpp"
#include "core/slice_refiner.hpp"
#include "core/slicing.hpp"
#include "path/optimizer.hpp"
#include "tn/stem.hpp"

namespace ltns::core {

enum class SlicerKind { kLifetime, kLifetimeRefined, kGreedyBaseline };

struct PlanOptions {
  path::OptimizerOptions path;
  double target_log2size = 30;
  SlicerKind slicer = SlicerKind::kLifetimeRefined;
  SliceRefinerOptions refiner;
  uint64_t seed = 99;
};

struct Plan {
  tn::SsaPath path;
  // Held behind a stable pointer: `stem` (and any fused plans built on it)
  // reference the tree by address, so Plan stays safely movable/copyable.
  std::shared_ptr<tn::ContractionTree> tree;
  tn::Stem stem;
  SliceSet slices;
  SlicedMetrics metrics;
  // The path trial the plan came from; kLifetimeRefined adds how many trials
  // the sliced-cost screen ran, e.g. "greedy#0 (sliced screen 9/32)".
  std::string path_method;

  int num_slices() const { return slices.size(); }
  double num_subtasks() const { return std::exp2(metrics.log2_num_subtasks); }
};

Plan make_plan(const tn::TensorNetwork& net, const PlanOptions& opt);

// make_plan over a path search the caller already ran: `pr` must be
// path::find_path(net, opt.path), e.g. the probe that set the target.
Plan make_plan(const tn::TensorNetwork& net, const PlanOptions& opt, path::PathResult pr);

// Canonical text of EVERY plan knob (including the nested optimizer and
// refiner options), for content-addressed fingerprinting: two PlanOptions
// with equal text produce identical plans (make_plan is deterministic),
// and any knob change — which may change the resolved plan — changes the
// text. New fields MUST be appended here or the cache would serve stale
// plans across the change, and so must a change to how make_plan chooses
// among path trials (the fixed "|choose:" token).
std::string plan_options_text(const PlanOptions& opt);

}  // namespace ltns::core

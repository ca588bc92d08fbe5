#include "core/planner.hpp"

#include <algorithm>
#include <sstream>

#include "core/greedy_slicer.hpp"

namespace ltns::core {

std::string plan_options_text(const PlanOptions& opt) {
  std::ostringstream o;
  o.precision(17);  // doubles round-trip exactly
  o << "path:" << opt.path.greedy_trials << ',' << opt.path.partition_trials << ','
    << opt.path.community_trials << ',' << opt.path.temperature << ','
    << int(opt.path.tune) << ',' << opt.path.tune_max_leaves << ',' << opt.path.tune_sweeps
    << ',' << opt.path.seed;
  o << "|target:" << opt.target_log2size;
  o << "|slicer:" << int(opt.slicer);
  o << "|refiner:" << opt.refiner.target_log2size << ',' << opt.refiner.initial_temperature
    << ',' << opt.refiner.final_temperature << ',' << opt.refiner.alpha << ','
    << opt.refiner.moves_per_temperature << ',' << opt.refiner.seed;
  o << "|seed:" << opt.seed;
  return o.str();
}

Plan make_plan(const tn::TensorNetwork& net, const PlanOptions& opt) {
  auto pr = path::find_path(net, opt.path);

  // Open (output) edges survive to the root, so no slicing set can push the
  // root below their combined width — and the sliced runners merge subtask
  // results by addition, which is only sound over CLOSED edges. Clamp the
  // bound to the open width (the slicers themselves never pick open edges):
  // a batch with more open qubits than the target still plans, it just
  // holds a root of exactly 2^|open| elements.
  const double target = std::max(opt.target_log2size, open_log2width(net));

  Plan plan{std::move(pr.path),
            nullptr,
            tn::Stem{},
            SliceSet(net),
            SlicedMetrics{},
            pr.method};
  plan.tree = std::make_shared<tn::ContractionTree>(tn::ContractionTree::build(net, plan.path));
  plan.stem = tn::extract_stem(*plan.tree);

  switch (opt.slicer) {
    case SlicerKind::kGreedyBaseline: {
      GreedySlicerOptions g;
      g.target_log2size = target;
      plan.slices = greedy_slice(*plan.tree, g, &plan.metrics);
      break;
    }
    case SlicerKind::kLifetime: {
      SliceFinderOptions f;
      f.target_log2size = target;
      plan.slices = lifetime_slice_finder(plan.stem, f, &plan.metrics);
      break;
    }
    case SlicerKind::kLifetimeRefined: {
      SliceFinderOptions f;
      f.target_log2size = target;
      SliceSet s = lifetime_slice_finder(plan.stem, f);
      SliceRefinerOptions r = opt.refiner;
      r.target_log2size = target;
      r.seed = opt.seed;
      plan.slices = refine_slices(plan.stem, std::move(s), r);
      plan.metrics = evaluate_slicing(*plan.tree, plan.slices);
      break;
    }
  }
  return plan;
}

}  // namespace ltns::core

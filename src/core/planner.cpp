#include "core/planner.hpp"

#include <algorithm>
#include <exception>
#include <optional>
#include <sstream>
#include <thread>
#include <tuple>
#include <vector>

#include "core/greedy_slicer.hpp"

namespace ltns::core {

std::string plan_options_text(const PlanOptions& opt) {
  std::ostringstream o;
  o.precision(17);  // doubles round-trip exactly
  o << "path:" << opt.path.greedy_trials << ',' << opt.path.partition_trials << ','
    << opt.path.temperature << ',' << int(opt.path.tune) << ',' << opt.path.tune_max_leaves
    << ',' << opt.path.tune_sweeps << ',' << opt.path.seed;
  o << "|target:" << opt.target_log2size;
  o << "|slicer:" << int(opt.slicer);
  // refiner.target_log2size and refiner.seed are absent: make_plan
  // overwrites both (with the clamped target and `seed`).
  o << "|refiner:" << opt.refiner.initial_temperature << ',' << opt.refiner.final_temperature
    << ',' << opt.refiner.alpha << ',' << opt.refiner.moves_per_temperature;
  o << "|seed:" << opt.seed;
  // Not a knob: names make_plan's rule for choosing among the path trials,
  // so plans filed under an earlier rule are never served for this one.
  o << "|choose:sliced";
  return o.str();
}

namespace {

// A plan whose tree and stem are built but which holds no slices yet.
Plan tree_plan(const tn::TensorNetwork& net, tn::SsaPath path, std::string method) {
  Plan plan{std::move(path), nullptr, tn::Stem{}, SliceSet(net), SlicedMetrics{},
            std::move(method)};
  plan.tree = std::make_shared<tn::ContractionTree>(tn::ContractionTree::build(net, plan.path));
  plan.stem = tn::extract_stem(*plan.tree);
  return plan;
}

// Algorithm 2 over the plan's Algorithm 1 slices.
void refine(Plan& plan, const SliceRefinerOptions& r) {
  plan.slices = refine_slices(plan.stem, std::move(plan.slices), r);
  plan.metrics = evaluate_slicing(*plan.tree, plan.slices);
}

}  // namespace

Plan make_plan(const tn::TensorNetwork& net, const PlanOptions& opt) {
  return make_plan(net, opt, path::find_path(net, opt.path));
}

Plan make_plan(const tn::TensorNetwork& net, const PlanOptions& opt, path::PathResult pr) {
  // Open (output) edges survive to the root, so no slicing set can push the
  // root below their combined width — and the sliced runners merge subtask
  // results by addition, which is only sound over CLOSED edges. Clamp the
  // bound to the open width (the slicers themselves never pick open edges):
  // a batch with more open qubits than the target still plans, it just
  // holds a root of exactly 2^|open| elements.
  const double target = std::max(opt.target_log2size, open_log2width(net));

  Plan plan = tree_plan(net, std::move(pr.path), pr.method);
  SliceFinderOptions f;
  f.target_log2size = target;

  switch (opt.slicer) {
    case SlicerKind::kGreedyBaseline: {
      GreedySlicerOptions g;
      g.target_log2size = target;
      plan.slices = greedy_slice(*plan.tree, g, &plan.metrics);
      return plan;
    }
    case SlicerKind::kLifetime:
      plan.slices = lifetime_slice_finder(plan.stem, f, &plan.metrics);
      return plan;
    case SlicerKind::kLifetimeRefined:
      break;
  }

  // Screen: rank the trials by the sliced cost (Eq. 4) Algorithm 1 gives
  // them. The tuned default goes first, the other raw trials follow in
  // (Eq. 1 cost, trial index) order. Eq. 4 >= Eq. 1 for every slicing set,
  // so once a trial's unsliced cost reaches the best sliced cost found, no
  // later trial can beat it and the screen stops.
  plan.slices = lifetime_slice_finder(plan.stem, f);
  double best_cost = evaluate_slicing(*plan.tree, plan.slices).log2_total_cost;
  std::vector<const path::PathTrial*> order;
  for (const auto& t : pr.trials)
    if (t.index != pr.best_trial) order.push_back(&t);
  std::sort(order.begin(), order.end(), [](const path::PathTrial* a, const path::PathTrial* b) {
    return std::tie(a->log2cost, a->index) < std::tie(b->log2cost, b->index);
  });
  std::optional<Plan> challenger;
  int screened = 1;
  for (const path::PathTrial* t : order) {
    if (t->log2cost >= best_cost) break;
    ++screened;
    Plan cand = tree_plan(net, t->path, t->method);
    cand.slices = lifetime_slice_finder(cand.stem, f);
    const double cost = evaluate_slicing(*cand.tree, cand.slices).log2_total_cost;
    if (cost < best_cost) {
      best_cost = cost;
      challenger = std::move(cand);
    }
  }

  // Refine (Algorithm 2) the default and, if the screen picked another
  // trial, that one too on a second thread, both with the plan's seed. The
  // lower refined cost wins and a tie keeps the default, so the plan does
  // not depend on thread timing.
  SliceRefinerOptions r = opt.refiner;
  r.target_log2size = target;
  r.seed = opt.seed;
  if (challenger) {
    std::exception_ptr err;
    std::thread side([&] {
      try {
        refine(*challenger, r);
      } catch (...) {
        err = std::current_exception();
      }
    });
    try {
      refine(plan, r);
    } catch (...) {
      side.join();
      throw;
    }
    side.join();
    if (err) std::rethrow_exception(err);
    if (challenger->metrics.log2_total_cost < plan.metrics.log2_total_cost)
      plan = std::move(*challenger);
  } else {
    refine(plan, r);
  }
  plan.path_method += " (sliced screen " + std::to_string(screened) + '/' +
                      std::to_string(pr.trials.size()) + ')';
  return plan;
}

}  // namespace ltns::core

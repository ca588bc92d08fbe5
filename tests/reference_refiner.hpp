// Test-only reference for core::refine_slices: the Algorithm 2 loop with a
// full evaluate_slicing per proposal and a whole-tree satisfies_memory_bound
// per drop. The library's refiner keeps per-node state across proposals
// instead; the two must return identical slice sets, metrics and stats for
// every input and seed (test_slicers' RefinerDifferential cases).
#pragma once

#include <cmath>
#include <vector>

#include "core/lifetime.hpp"
#include "core/slice_refiner.hpp"
#include "core/slicing.hpp"
#include "tn/stem.hpp"
#include "util/rng.hpp"

namespace ltns::test {

inline std::vector<int> reference_critical_tensors(const tn::Stem& stem,
                                                   const core::StemLifetimes& lt,
                                                   const IndexSet& S, double target,
                                                   tn::EdgeId e) {
  std::vector<int> crit;
  const auto& iv = lt.of(e);
  for (int p = iv.begin; p <= iv.end; ++p) {
    double sz = core::sliced_node_log2size(*stem.tree, stem.nodes[size_t(p)], S);
    if (std::abs(sz - target) < 1e-9) crit.push_back(p);
  }
  return crit;
}

inline std::vector<tn::EdgeId> reference_candidate_indices(const tn::Stem& stem,
                                                           const core::StemLifetimes& lt,
                                                           const IndexSet& S,
                                                           const std::vector<int>& crit,
                                                           tn::EdgeId skip) {
  std::vector<tn::EdgeId> out;
  if (crit.empty()) return out;
  const auto& first_ixs = stem.tree->node(stem.nodes[size_t(crit.front())]).ixs;
  const auto& net = *stem.tree->network();
  first_ixs.for_each([&](int e) {
    if (e == skip || S.contains(e) || net.edge(tn::EdgeId(e)).b == tn::kNone) return;
    const auto& iv = lt.of(e);
    bool covers = true;
    for (int p : crit)
      if (!iv.contains(p)) {
        covers = false;
        break;
      }
    if (covers) out.push_back(tn::EdgeId(e));
  });
  return out;
}

inline core::SliceSet reference_refine_slices(const tn::Stem& stem, core::SliceSet S,
                                              const core::SliceRefinerOptions& opt,
                                              core::RefineStats* stats_out) {
  const tn::ContractionTree& tree = *stem.tree;
  auto lt = core::StemLifetimes::build(stem);
  Rng rng(opt.seed);
  core::RefineStats stats;

  double cur_cost = core::evaluate_slicing(tree, S).log2_total_cost;
  stats.initial_log2cost = cur_cost;
  core::SliceSet best = S;
  double best_cost = cur_cost;

  for (double T = opt.initial_temperature; T > opt.final_temperature; T *= opt.alpha) {
    for (int k = 0; k < opt.moves_per_temperature; ++k) {
      auto sliced = S.to_vector();
      if (sliced.empty()) break;
      tn::EdgeId a = sliced[rng.next_below(sliced.size())];

      auto crit = reference_critical_tensors(stem, lt, S.edges(), opt.target_log2size, a);
      if (crit.empty()) {
        S.remove(a);
        if (core::satisfies_memory_bound(tree, S, opt.target_log2size)) {
          ++stats.dropped_useless;
          cur_cost = core::evaluate_slicing(tree, S).log2_total_cost;
          if (cur_cost < best_cost) {
            best = S;
            best_cost = cur_cost;
          }
        } else {
          S.add(a);
        }
        continue;
      }

      for (tn::EdgeId b : reference_candidate_indices(stem, lt, S.edges(), crit, a)) {
        ++stats.proposed;
        S.remove(a);
        S.add(b);
        auto m = core::evaluate_slicing(tree, S);
        bool in_bound = m.max_log2size <= opt.target_log2size + 1e-9;
        bool take = false;
        if (in_bound) {
          if (m.log2_total_cost < cur_cost) {
            take = true;
          } else {
            double ratio = std::exp2(m.log2_total_cost - cur_cost);
            double p = std::exp((1.0 - ratio) / T);
            if (rng.next_double() < p) {
              take = true;
              ++stats.uphill_accepted;
            }
          }
        }
        if (take) {
          ++stats.accepted;
          cur_cost = m.log2_total_cost;
          if (cur_cost < best_cost) {
            best = S;
            best_cost = cur_cost;
          }
          a = b;
        } else {
          S.remove(b);
          S.add(a);
        }
      }
    }
  }

  stats.final_log2cost = best_cost;
  if (stats_out) *stats_out = stats;
  return best;
}

}  // namespace ltns::test

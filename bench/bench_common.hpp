// Shared setup for the figure-reproduction benches.
//
// Each bench binary regenerates one table/figure of the paper and prints
// the same rows/series the paper plots.
//
// Scale note: the paper's flagship network is Sycamore-53 m=20. Planning
// figures (6, 7, 10) run on exactly that network class (analysis only — no
// tensor data is materialized). Execution figures (11, 12, 13) run real
// kernels, so they use grid RQCs sized to fit the host while exercising the
// same code paths.
#pragma once

#include <cstdio>
#include <memory>

#include "circuit/lowering.hpp"
#include "core/planner.hpp"
#include "exec/tree_executor.hpp"
#include "path/optimizer.hpp"
#include "tn/stem.hpp"

namespace ltns::bench {

struct Instance {
  circuit::LoweredNetwork ln;
  std::shared_ptr<tn::ContractionTree> tree;
  tn::Stem stem;

  exec::LeafProvider leaves() const {
    return [this](tn::VertId v) -> const exec::Tensor& { return ln.tensors[size_t(v)]; };
  }
};

// Sycamore-53 RQC with m cycles, planned with a serious trial budget.
inline Instance sycamore_instance(int cycles, uint64_t seed = 0, int greedy_trials = 32,
                                  int partition_trials = 8) {
  circuit::RqcOptions rqc;
  rqc.cycles = cycles;
  rqc.seed = 2019 + seed;
  Instance inst{circuit::lower(circuit::random_quantum_circuit(
                    circuit::Device::sycamore53(), rqc)),
                nullptr,
                {}};
  circuit::simplify(inst.ln);
  path::OptimizerOptions po;
  po.greedy_trials = greedy_trials;
  po.partition_trials = partition_trials;
  po.seed = 7 + seed;
  auto pr = path::find_path(inst.ln.net, po);
  inst.tree =
      std::make_shared<tn::ContractionTree>(tn::ContractionTree::build(inst.ln.net, pr.path));
  inst.stem = tn::extract_stem(*inst.tree);
  return inst;
}

// Grid RQC sized for real execution on the host.
inline Instance grid_instance(int rows, int cols, int cycles, uint64_t seed = 0,
                              int greedy_trials = 16) {
  circuit::RqcOptions rqc;
  rqc.cycles = cycles;
  rqc.seed = 2019 + seed;
  Instance inst{circuit::lower(circuit::random_quantum_circuit(
                    circuit::Device::grid(rows, cols), rqc)),
                nullptr,
                {}};
  circuit::simplify(inst.ln);
  path::OptimizerOptions po;
  po.greedy_trials = greedy_trials;
  po.partition_trials = 4;
  po.seed = 7 + seed;
  auto pr = path::find_path(inst.ln.net, po);
  inst.tree =
      std::make_shared<tn::ContractionTree>(tn::ContractionTree::build(inst.ln.net, pr.path));
  inst.stem = tn::extract_stem(*inst.tree);
  return inst;
}

inline void header(const char* fig, const char* what) {
  std::printf("==============================================================\n");
  std::printf("%s — %s\n", fig, what);
  std::printf("==============================================================\n");
}

}  // namespace ltns::bench

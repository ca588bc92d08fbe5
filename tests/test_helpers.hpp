// Shared fixtures: small circuits, networks and trees used across the suite.
#pragma once

#include <cstring>
#include <vector>

#include "circuit/circuit.hpp"
#include "circuit/lowering.hpp"
#include "core/planner.hpp"
#include "device/backend.hpp"
#include "exec/tensor.hpp"
#include "path/greedy.hpp"
#include "tn/contraction_tree.hpp"
#include "tn/stem.hpp"

namespace ltns::test {

// The byte-comparison behind every bitwise-identity acceptance criterion:
// identical index order, identical size, identical payload bits.
inline bool bitwise_equal(const exec::Tensor& a, const exec::Tensor& b) {
  return a.ixs() == b.ixs() && a.size() == b.size() &&
         std::memcmp(a.raw(), b.raw(), a.size() * sizeof(exec::cfloat)) == 0;
}

// A small RQC on a rows x cols grid.
inline circuit::Circuit small_rqc(int rows, int cols, int cycles, uint64_t seed = 42) {
  auto dev = circuit::Device::grid(rows, cols);
  circuit::RqcOptions opt;
  opt.cycles = cycles;
  opt.seed = seed;
  return circuit::random_quantum_circuit(dev, opt);
}

// Lowered + simplified network of a small RQC.
inline circuit::LoweredNetwork small_network(int rows, int cols, int cycles,
                                             uint64_t seed = 42) {
  auto ln = circuit::lower(small_rqc(rows, cols, cycles, seed));
  circuit::simplify(ln);
  return ln;
}

// Deterministic greedy tree over a network.
inline tn::ContractionTree greedy_tree(const tn::TensorNetwork& net, uint64_t seed = 1,
                                       double temperature = 0.0) {
  path::GreedyOptions g;
  g.seed = seed;
  g.temperature = temperature;
  return tn::ContractionTree::build(net, path::greedy_path(net, g));
}

// Compiles the chain w0 x branches[0] x ... into a StemProgram and runs it
// once through `backend`'s run_stem_window (the per-subtask fused path).
inline exec::Tensor run_compiled_chain(device::DeviceBackend& backend, const exec::Tensor& w0,
                                       const std::vector<exec::Tensor>& branches,
                                       exec::ContractStats* cs, device::DeviceStats* ds) {
  std::vector<std::vector<int>> branch_ixs;
  for (const auto& b : branches) branch_ixs.push_back(b.ixs());
  const auto prog = exec::compile_stem_program(w0.ixs(), branch_ixs);
  std::vector<exec::Tensor> ordered;
  std::vector<const exec::cfloat*> bptr;
  for (size_t i = 0; i < branches.size(); ++i)
    ordered.push_back(device::host_backend().permute(branches[i], prog.steps[i].b_order, nullptr));
  for (const auto& b : ordered) bptr.push_back(b.raw());
  exec::AlignedCfloatVec w(prog.scratch_elems), tmp(prog.scratch_elems);
  std::copy(w0.data().begin(), w0.data().end(), w.begin());
  exec::Tensor out(prog.out_ixs);
  backend.run_stem_window(prog, bptr.data(), w.data(), tmp.data(), out.raw(), cs, ds);
  return out;
}

// The scalar reference chain as a backend (exec::cgemm / PermuteMap::apply
// bits at fp32, the portable bf16 chain at bf16). Registry backends run the
// probed tier, so kernel checks compare against this instead.
inline device::DeviceBackend reference_backend(exec::Precision p = exec::Precision::kFp32) {
  return device::DeviceBackend("host", p, exec::IsaTier::kPortable);
}

inline std::vector<int> zero_bits(int n) { return std::vector<int>(size_t(n), 0); }

}  // namespace ltns::test

// Sycamore-53 planning and full-machine projection — the paper's headline
// use case, at planning scale.
//
//   $ ./sycamore_projection [cycles]
//
// Builds the m-cycle 53-qubit Sycamore-style RQC, plans a contraction with
// the lifetime slicers, and projects end-to-end time / sustained Pflops on
// the modeled new Sunway system (the paper reports 96.1 s at 308.6 Pflops
// for m=20 on 107,520 nodes). Numbers here depend on the quality of the
// found path — the projection methodology is the reproduced artifact.
#include <cstdio>
#include <cstdlib>

#include "circuit/lowering.hpp"
#include "core/planner.hpp"
#include "sunway/cost_model.hpp"

using namespace ltns;

int main(int argc, char** argv) {
  const int cycles = argc > 1 ? std::atoi(argv[1]) : 12;
  auto device = circuit::Device::sycamore53();
  circuit::RqcOptions rqc;
  rqc.cycles = cycles;
  auto circ = circuit::random_quantum_circuit(device, rqc);
  auto ln = circuit::lower(circ);
  circuit::simplify(ln);
  std::printf("Sycamore-style RQC: 53 qubits, m=%d -> %d tensors / %d indices\n", cycles,
              ln.net.num_alive_vertices(), ln.net.num_alive_edges());

  core::PlanOptions po;
  po.path.greedy_trials = 48;
  po.path.partition_trials = 16;
  // Per-CG main-memory budget: 16 GB / 8 B = 2^31 elements; keep headroom.
  po.target_log2size = 30;
  auto plan = core::make_plan(ln.net, po);

  std::printf("path %s: cost 2^%.2f flops, biggest tensor 2^%.1f\n", plan.path_method.c_str(),
              plan.tree->total_log2cost(), plan.tree->max_log2size());
  std::printf("stem: %d tensors carrying %.1f%% of the flops\n", plan.stem.length(),
              100 * plan.stem.cost_fraction());
  std::printf("slicing: %d edges -> 2^%d subtasks, overhead %.4f\n", plan.num_slices(),
              plan.num_slices(), plan.metrics.overhead());

  // Projection through the machine model: assume the fused executor holds
  // the measured arithmetic intensity of ~30 flop/B (Fig. 13 range) so each
  // subtask is near the roofline ridge.
  auto arch = sunway::ArchSpec::sw26010pro();
  sunway::SubtaskProfile prof;
  prof.flops = std::exp2(plan.metrics.log2_cost_per_subtask);
  prof.dma_bytes = prof.flops / 30.0;
  prof.dma_granularity = 512;

  std::printf("\n%-10s %14s %16s %12s\n", "nodes", "time (s)", "sustained", "efficiency");
  for (int nodes : {1024, 4096, 16384, 65536, arch.nodes_full_machine}) {
    auto pt = sunway::project(arch, prof, std::exp2(plan.metrics.log2_num_subtasks), nodes);
    std::printf("%-10d %14.2f %13.2f Pf %11.1f%%\n", pt.nodes, pt.seconds,
                pt.sustained_flops / 1e15, 100 * pt.parallel_efficiency);
  }
  std::printf("\npaper (m=20, full machine): 96.1 s, 308.6 Pflops sustained\n");
  return 0;
}

// Headline reproduction (abstract + §6.2): the full planning pipeline on a
// Sycamore-style 53-qubit RQC, per-subtask cost measured on real kernels,
// projected to the full new Sunway system.
//
// Paper numbers for m=20: contraction complexity ~10^18.8-equivalent class,
// overhead <= 1.05, 1024 nodes -> 10098.5 s for 1M correlated samples,
// projected 107,520 nodes -> 96.1 s at 308.6 Pflops sustained (vs 60.4
// Pflops for the 2021 Gordon Bell work). We reproduce the pipeline and the
// projection arithmetic; absolute complexity depends on path quality.
#include <cmath>
#include <utility>

#include "bench_common.hpp"
#include "core/planner.hpp"
#include "exec/fused_executor.hpp"
#include "sunway/cost_model.hpp"

using namespace ltns;

int main(int argc, char** argv) {
  const int cycles = argc > 1 ? std::atoi(argv[1]) : 20;
  bench::header("Headline", "Sycamore-53 plan + full-machine projection");

  // 1. Plan the flagship network with the lifetime pipeline.
  circuit::RqcOptions rqc;
  rqc.cycles = cycles;
  rqc.seed = 2019;
  auto ln = circuit::lower(circuit::random_quantum_circuit(circuit::Device::sycamore53(), rqc));
  circuit::simplify(ln);
  core::PlanOptions po;
  po.path.greedy_trials = 48;
  po.path.partition_trials = 16;
  // The paper slices cotengra rank-45 trees to 2^30 (8 GB, inside a 16 GB
  // CG). Our in-repo planner finds fatter trees (ROADMAP.md, "Where the
  // remaining gain is"), so we reproduce the paper's slicing DEPTH; the
  // projection arithmetic is unchanged.
  auto probe_path = path::find_path(ln.net, po.path);
  po.target_log2size = std::max(30.0, probe_path.log2size - 14.0);
  auto plan = core::make_plan(ln.net, po, std::move(probe_path));
  std::printf("slicing target 2^%.0f (depth %.0f below the fattest tensor)\n",
              po.target_log2size, plan.tree->max_log2size() - po.target_log2size);
  std::printf("plan: cost 2^%.2f (~10^%.1f) flops, |S| = %d, overhead %.4f (paper <= 1.05)\n",
              plan.tree->total_log2cost(), plan.tree->total_log2cost() * std::log10(2.0),
              plan.num_slices(), plan.metrics.overhead());

  // 2. Measure the fused kernel's arithmetic intensity on an executable
  //    analogue (same code path, host-sized tensors).
  auto probe = bench::grid_instance(3, 6, 14);
  auto fplan = exec::plan_fused(probe.stem, {}, 32768);
  exec::FusedStats st;
  exec::execute_fused(fplan, probe.leaves(), 0, nullptr, &st);
  double ai = st.exec.flops / std::max(1.0, st.dma.total_bytes());
  // Flop-per-LDM-byte of the fused kernel: permute traffic per useful flop.
  double flop_per_ldm_byte = st.exec.flops / std::max(1.0, 16.0 * st.exec.permute_elems);
  std::printf("measured fused arithmetic intensity: %.1f flop/B (paper: 10x-40x)\n",
              ai);
  std::printf("measured permute traffic: %.2f flop per LDM byte\n\n", flop_per_ldm_byte);

  // 3. Project: per-subtask flops from the plan, AI from the measurement.
  auto arch = sunway::ArchSpec::sw26010pro();
  sunway::SubtaskProfile prof;
  prof.flops = std::exp2(plan.metrics.log2_cost_per_subtask);
  prof.dma_bytes = prof.flops / ai;
  prof.dma_granularity = 512;
  prof.ldm_bytes = prof.flops / flop_per_ldm_byte;
  const double subtasks = std::exp2(plan.metrics.log2_num_subtasks);

  std::printf("%10s %14s %16s %14s\n", "nodes", "time (s)", "sustained", "of peak");
  for (int nodes : {1024, 107520}) {
    auto pt = sunway::project(arch, prof, subtasks, nodes);
    std::printf("%10d %14.2f %13.2f Pf %13.1f%%\n", nodes, pt.seconds,
                pt.sustained_flops / 1e15,
                100 * pt.sustained_flops / (arch.peak_sp_flops_per_node() * nodes));
  }
  // 4. Same projection fed with a cotengra-class plan (the paper's tree:
  //    ~10^18.8 flops, overhead 1.05, sliced into 2^22 subtasks) — isolates
  //    the projection methodology from our path finder's quality gap.
  std::printf("\nnormalized to the paper's tree (10^18.8 flops, overhead 1.05, 2^22 tasks):\n");
  sunway::SubtaskProfile ref;
  const double ref_total_flops = std::pow(10.0, 18.8) * 1.05;
  const double ref_subtasks = std::exp2(22.0);
  ref.flops = ref_total_flops / ref_subtasks;
  ref.dma_bytes = ref.flops / ai;
  ref.dma_granularity = 512;
  ref.ldm_bytes = ref.flops / flop_per_ldm_byte;
  for (int nodes : {1024, 107520}) {
    auto pt = sunway::project(arch, ref, ref_subtasks, nodes);
    std::printf("%10d %14.2f s %13.2f Pf\n", nodes, pt.seconds, pt.sustained_flops / 1e15);
  }

  std::printf("\npaper: 1024 nodes -> 10098.5 s; 107520 nodes -> 96.1 s @ 308.6 Pflops\n");
  std::printf("2021 Gordon Bell baseline: 60.4 Pflops (>5x improvement claimed)\n");
  return 0;
}

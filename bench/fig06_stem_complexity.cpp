// Fig. 6: time complexity along the stem before slicing, and the redundancy
// multiple (2^{|S| - |S ∩ s_V|}) introduced by slicing, per stem step —
// "the key to a low overhead is that the time complexity of the main
// computation-intensive part is kept".
//
// Paper workload: Sycamore m=20. The shape to reproduce: the per-step
// complexity has a fat plateau in the middle of the stem; the slicing
// multiple is ~1 exactly on that plateau (big tensors lie in the lifetimes
// of many sliced edges) and rises toward the stem's ends.
#include <cmath>

#include "bench_common.hpp"
#include "core/slice_finder.hpp"
#include "core/slice_refiner.hpp"

using namespace ltns;

int main(int argc, char** argv) {
  const int cycles = argc > 1 ? std::atoi(argv[1]) : 20;
  bench::header("Fig. 6", "stem time complexity and slicing multiple (Sycamore m=20)");

  // Slicing depth below the path's fattest tensor. The paper slices cotengra
  // rank~45 trees down to 2^30 (depth ~15); our in-repo planner finds fatter
  // trees (see ROADMAP.md, "Where the remaining gain is"), so the depth, not
  // the absolute target, is the reproduced parameter.
  const int depth = argc > 2 ? std::atoi(argv[2]) : 12;

  auto inst = bench::sycamore_instance(cycles);
  std::printf("network: %d tensors, path cost 2^%.2f, stem length %d (%.1f%% of flops)\n",
              inst.ln.net.num_alive_vertices(), inst.tree->total_log2cost(),
              inst.stem.length(), 100 * inst.stem.cost_fraction());

  const double target = inst.tree->max_log2size() - depth;
  std::printf("max tensor 2^%.1f, slicing target 2^%.1f (depth %d)\n",
              inst.tree->max_log2size(), target, depth);
  core::SliceFinderOptions fo;
  fo.target_log2size = target;
  auto S0 = core::lifetime_slice_finder(inst.stem, fo);
  core::SliceRefinerOptions ro;
  ro.target_log2size = target;
  auto S = core::refine_slices(inst.stem, S0, ro);
  auto m = core::evaluate_slicing(*inst.tree, S);
  std::printf("slicing: |S| = %d, overhead %.4f\n\n", S.size(), m.overhead());

  std::printf("%6s %16s %18s %10s\n", "step", "log2 complexity", "sliced complexity",
              "multiple");
  for (int i = 0; i + 1 < inst.stem.length(); ++i) {
    const auto& node = inst.tree->node(inst.stem.nodes[size_t(i) + 1]);
    double lc = node.log2cost;
    double hit = tn::log2w_intersection(inst.ln.net, node.union_ixs, S.edges());
    // Per-step total over all subtasks: 2^{lc - hit} * 2^{|S|}; the multiple
    // vs the unsliced step is 2^{|S| - hit}.
    double multiple = S.log2_num_subtasks() - hit;
    std::printf("%6d %16.2f %18.2f %9.0fx\n", i, lc, lc - hit + S.log2_num_subtasks(),
                std::exp2(multiple));
  }
  std::printf("\nshape check: multiple should be ~1x on the high-complexity plateau\n");
  return 0;
}

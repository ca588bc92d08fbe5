// Fig. 7: overhead distribution across target sizes, with the data-movement
// costs of *stacking* at each storage level translated into equal-overhead
// lines via arithmetic intensity (§3.3).
//
// Paper workload: Sycamore m=20 ("original memory cost dozens of PBs; 96 GB
// main memory and 256 KB LDM per CPE"). The shape to reproduce: slicing
// overhead grows as the target shrinks; the IO equal-overhead line sits far
// above the slicing overhead at the DRAM target (=> slice at process level),
// while the DMA equal-overhead line sits below it at the LDM target
// (=> stack / fuse at thread level).
#include <cmath>

#include "bench_common.hpp"
#include "core/slice_finder.hpp"
#include "core/slice_refiner.hpp"
#include "core/stacking.hpp"
#include "sunway/arch.hpp"

using namespace ltns;

int main(int argc, char** argv) {
  const int cycles = argc > 1 ? std::atoi(argv[1]) : 20;
  bench::header("Fig. 7", "overhead vs target size, slice-or-stack regions (Sycamore m=20)");
  auto inst = bench::sycamore_instance(cycles);
  auto arch = sunway::ArchSpec::sw26010pro();

  const double peak = arch.peak_sp_flops_per_cg;
  core::StorageLevel io{"disk->dram", 96e9, arch.io_bandwidth, peak};
  core::StorageLevel dma{"dram->ldm", arch.ldm_bytes, arch.dma_bandwidth, peak};
  core::StorageLevel ldm{"ldm->reg", 64e3, arch.ldm_access_bandwidth, peak};

  std::printf("network cost 2^%.2f flops, biggest tensor 2^%.1f elements\n\n",
              inst.tree->total_log2cost(), inst.tree->max_log2size());
  std::printf("%8s %6s %14s | %16s %16s %16s\n", "target", "|S|", "slice ovh",
              "stack-ovh io", "stack-ovh dma", "stack-ovh ldm");

  // Sweep the target from just-below the path's fattest tensor down to 16
  // ranks below it; the paper's absolute targets assume cotengra-quality
  // trees (see ROADMAP.md, "Where the remaining gain is").
  const double top = inst.tree->max_log2size();
  for (double t = top - 1; t >= top - 16 && t >= 4; t -= 1) {
    core::SliceFinderOptions fo;
    fo.target_log2size = t;
    auto S0 = core::lifetime_slice_finder(inst.stem, fo);
    core::SliceRefinerOptions ro;
    ro.target_log2size = t;
    ro.moves_per_temperature = 12;
    auto S = core::refine_slices(inst.stem, S0, ro);
    auto m = core::evaluate_slicing(*inst.tree, S);

    auto ovh = [&](const core::StorageLevel& lvl) {
      return std::exp2(core::stacking_cost(inst.stem, S, lvl).log2_equivalent_overhead);
    };
    std::printf("%8.0f %6d %14.4f | %16.3g %16.3g %16.3g\n", t, S.size(), m.overhead(),
                ovh(io), ovh(dma), ovh(ldm));
  }
  std::printf("\nregion check: slice where slice-ovh < stack-ovh (IO levels), stack where\n"
              "stack-ovh < slice-ovh (DMA/LDM levels)\n");
  return 0;
}

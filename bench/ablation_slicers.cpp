// Ablation: the four slicing strategies the paper discusses, under identical
// conditions — (1) static greedy (cotengra baseline, §2.1.2), (2) dynamic
// slicing with interleaved local tuning (Alibaba, ref [16]), (3) the
// lifetime finder alone (Algorithm 1), (4) lifetime finder + SA refiner
// (Algorithm 1 + 2, the paper's full pipeline).
#include <cmath>

#include "bench_common.hpp"
#include "core/dynamic_slicer.hpp"
#include "core/greedy_slicer.hpp"
#include "core/slice_finder.hpp"
#include "core/slice_refiner.hpp"
#include "path/greedy.hpp"
#include "util/timer.hpp"

using namespace ltns;

int main(int argc, char** argv) {
  const int cycles = argc > 1 ? std::atoi(argv[1]) : 20;
  const int npaths = argc > 2 ? std::atoi(argv[2]) : 24;
  const int depth = argc > 3 ? std::atoi(argv[3]) : 16;
  bench::header("Ablation", "greedy vs dynamic vs lifetime vs lifetime+SA slicers");

  circuit::RqcOptions rqc;
  rqc.cycles = cycles;
  rqc.seed = 2019;
  auto ln = circuit::lower(circuit::random_quantum_circuit(circuit::Device::sycamore53(), rqc));
  circuit::simplify(ln);
  std::printf("network: %d tensors, %d paths, slicing depth %d\n\n",
              ln.net.num_alive_vertices(), npaths, depth);

  struct Acc {
    const char* name;
    double sum_size = 0, sum_log_ovh = 0, sum_seconds = 0;
  } acc[4] = {{"greedy (static)"}, {"dynamic (tune-interleaved)"}, {"lifetime (Alg.1)"},
              {"lifetime + SA (Alg.1+2)"}};

  for (int i = 0; i < npaths; ++i) {
    path::GreedyOptions g;
    g.temperature = i == 0 ? 0.0 : 0.8;
    g.seed = 500 + uint64_t(i);
    auto tree = tn::ContractionTree::build(ln.net, path::greedy_path(ln.net, g));
    auto stem = tn::extract_stem(tree);
    const double target = tree.max_log2size() - depth;

    {
      Timer t;
      core::GreedySlicerOptions o;
      o.target_log2size = target;
      core::SlicedMetrics m;
      auto S = core::greedy_slice(tree, o, &m);
      acc[0].sum_size += S.size();
      acc[0].sum_log_ovh += m.log2_overhead;
      acc[0].sum_seconds += t.seconds();
    }
    {
      Timer t;
      core::DynamicSlicerOptions o;
      o.target_log2size = target;
      auto r = core::dynamic_slice(tree, o);
      acc[1].sum_size += r.slices.size();
      acc[1].sum_log_ovh += r.metrics.log2_overhead;
      acc[1].sum_seconds += t.seconds();
    }
    {
      Timer t;
      core::SliceFinderOptions o;
      o.target_log2size = target;
      core::SlicedMetrics m;
      auto S = core::lifetime_slice_finder(stem, o, &m);
      acc[2].sum_size += S.size();
      acc[2].sum_log_ovh += m.log2_overhead;
      acc[2].sum_seconds += t.seconds();

      Timer t2;
      core::SliceRefinerOptions ro;
      ro.target_log2size = target;
      ro.seed = uint64_t(i);
      auto Sr = core::refine_slices(stem, S, ro);
      auto mr = core::evaluate_slicing(tree, Sr);
      acc[3].sum_size += Sr.size();
      acc[3].sum_log_ovh += mr.log2_overhead;
      acc[3].sum_seconds += t.seconds() + t2.seconds();
    }
  }

  std::printf("%-28s %10s %16s %14s\n", "slicer", "mean |S|", "geo-mean ovh", "mean time");
  for (const auto& a : acc)
    std::printf("%-28s %10.2f %16.4f %12.3f s\n", a.name, a.sum_size / npaths,
                std::exp2(a.sum_log_ovh / npaths), a.sum_seconds / npaths);
  std::printf("\npaper's ordering: lifetime+SA <= dynamic < static greedy in overhead,\n"
              "lifetime sets no larger than greedy's\n");
  return 0;
}

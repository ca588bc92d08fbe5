// Fig. 10: slicing size and overhead, our lifetime strategy vs the greedy
// baseline, over a corpus of contraction paths on the same network.
//
// Paper protocol: 400 paths found by cotengra; both slicers run per path;
// red series = extra sliced edges of cotengra vs ours; green = overhead
// ratio. Claim: "our strategy performs better on more than 98% of cases",
// best overhead < 1.05. Here the corpus is random-greedy paths on the
// Sycamore-style m=20 network; pass a smaller path count for a quick run.
#include <algorithm>
#include <cmath>

#include "bench_common.hpp"
#include "cache/cache.hpp"
#include "core/greedy_slicer.hpp"
#include "core/slice_finder.hpp"
#include "core/slice_refiner.hpp"
#include "path/greedy.hpp"
#include "path/local_tune.hpp"
#include "util/timer.hpp"

using namespace ltns;

int main(int argc, char** argv) {
  const int cycles = argc > 1 ? std::atoi(argv[1]) : 20;
  const int npaths = argc > 2 ? std::atoi(argv[2]) : 400;
  bench::header("Fig. 10", "lifetime slicing vs greedy baseline over many paths");

  // One network, many paths (the paper's protocol).
  circuit::RqcOptions rqc;
  rqc.cycles = cycles;
  rqc.seed = 2019;
  auto ln = circuit::lower(circuit::random_quantum_circuit(circuit::Device::sycamore53(), rqc));
  circuit::simplify(ln);
  std::printf("network: %d tensors / %d indices; %d paths\n\n", ln.net.num_alive_vertices(),
              ln.net.num_alive_edges(), npaths);

  // Constant slicing depth below each path's fattest tensor — the paper's
  // fixed 2^30 target presumes cotengra-quality (rank ~45) trees; a fixed
  // target on a mixed-quality corpus just measures path quality. Both
  // slicers always see identical conditions per path.
  const int depth = argc > 3 ? std::atoi(argv[3]) : 12;
  int better_or_equal_size = 0, better_or_equal_ovh = 0;
  int sum_extra_edges = 0;
  double best_ovh = 1e300, sum_log_ratio = 0;
  std::printf("%6s %10s %6s %6s %12s %12s %10s\n", "path", "cost", "|Sg|", "|Sf|", "ovh greedy",
              "ovh ours", "ratio");

  for (int i = 0; i < npaths; ++i) {
    // Corpus paths: randomized greedy + one local-tuning sweep, the closest
    // analogue of cotengra's per-trial reconfiguration.
    path::GreedyOptions g;
    g.temperature = i == 0 ? 0.0 : 0.8;
    g.seed = 1000 + uint64_t(i);
    auto raw = tn::ContractionTree::build(ln.net, path::greedy_path(ln.net, g));
    path::LocalTuneOptions lt;
    lt.max_leaves = 6;
    lt.sweeps = 1;
    auto tuned = path::local_tune(raw, lt);
    auto tree = tn::ContractionTree::build(ln.net, tuned.path);
    auto stem = tn::extract_stem(tree);
    const double target = tree.max_log2size() - depth;

    core::GreedySlicerOptions go;
    go.target_log2size = target;
    core::SlicedMetrics mg;
    auto Sg = core::greedy_slice(tree, go, &mg);

    core::SliceFinderOptions fo;
    fo.target_log2size = target;
    auto Sf0 = core::lifetime_slice_finder(stem, fo);
    core::SliceRefinerOptions ro;
    ro.target_log2size = target;
    ro.seed = uint64_t(i);
    ro.moves_per_temperature = 12;
    auto Sf = core::refine_slices(stem, Sf0, ro);
    auto mf = core::evaluate_slicing(tree, Sf);

    int extra = Sg.size() - Sf.size();  // the red series
    double ratio = std::exp2(mf.log2_overhead - mg.log2_overhead);  // the green series
    sum_extra_edges += extra;
    sum_log_ratio += mf.log2_overhead - mg.log2_overhead;
    better_or_equal_size += (extra >= 0);
    better_or_equal_ovh += (ratio <= 1.0 + 1e-3);  // ties within noise count
    best_ovh = std::min(best_ovh, mf.overhead());
    if (i < 20 || i % 50 == 0)
      std::printf("%6d %7.1f lg %6d %6d %12.4f %12.4f %9.3f\n", i, tree.total_log2cost(),
                  Sg.size(), Sf.size(), mg.overhead(), mf.overhead(), ratio);
  }

  std::printf("\nsummary over %d paths @ slicing depth %d:\n", npaths, depth);
  std::printf("  ours <= greedy in slicing-set size: %5.1f%%  (mean extra greedy edges %+.2f)\n",
              100.0 * better_or_equal_size / npaths, double(sum_extra_edges) / npaths);
  std::printf("  ours <= greedy in overhead:         %5.1f%%  (paper: >98%%)\n",
              100.0 * better_or_equal_ovh / npaths);
  std::printf("  geometric-mean overhead ratio:      %.4f  (<1 means ours lower)\n",
              std::exp2(sum_log_ratio / npaths));
  std::printf("  best overhead found:                %.4f  (paper: <1.05)\n", best_ovh);
  std::printf("  (ties within 0.1%% count as equal; the red series is the size gap,\n"
              "   the green series is the per-path ratio column above)\n");

  // Cold vs warm planning latency through the content-addressed plan cache
  // (src/cache/): the cold side pays the full trial budget in src/path/,
  // the warm side deserializes the stored SSA path + slice set and rebuilds
  // the tree — zero optimizer invocations. Machine-readable for the perf
  // dashboards, same spirit as fig11's scaling JSON.
  {
    core::PlanOptions po;
    po.path.greedy_trials = 32;
    po.path.partition_trials = 8;
    po.target_log2size = 30;  // the paper's fixed 2^30 slicing target
    cache::CacheOptions copt;  // in-memory tiers: pure (de)serialization cost
    cache::PlanCache pc(copt);
    const auto key = cache::plan_key("fig10-sycamore", "", po);

    const uint64_t inv0 = path::find_path_invocations();
    Timer cold_timer;
    auto plan = core::make_plan(ln.net, po);
    const double cold_seconds = cold_timer.seconds();
    const uint64_t cold_invocations = path::find_path_invocations() - inv0;
    pc.insert(key, plan);

    core::Plan warm_plan;
    const uint64_t inv1 = path::find_path_invocations();
    Timer warm_timer;
    const bool hit = pc.lookup(key, ln.net, &warm_plan);
    const double warm_seconds = warm_timer.seconds();
    const uint64_t warm_invocations = path::find_path_invocations() - inv1;

    std::printf("\nplanning-latency JSON (cold = src/path/ runs, warm = plan-cache hit):\n");
    std::printf("{\"section\":\"planning_latency\",\"network\":\"sycamore53-m%d\","
                "\"cold_seconds\":%.6f,\"warm_seconds\":%.6f,\"speedup\":%.1f,"
                "\"cold_planner_invocations\":%llu,\"warm_planner_invocations\":%llu,"
                "\"plan_cache_hit\":%s,\"num_slices\":%d}\n",
                cycles, cold_seconds, warm_seconds,
                warm_seconds > 0 ? cold_seconds / warm_seconds : 0.0,
                (unsigned long long)cold_invocations, (unsigned long long)warm_invocations,
                hit ? "true" : "false", warm_plan.num_slices());
  }
  return 0;
}

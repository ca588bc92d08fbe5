// Tests for the three slicers: greedy baseline, Algorithm 1 (lifetime
// finder), Algorithm 2 (SA refiner) — plus the Theorem 1 flavored property
// that smaller lifetime-guided sets beat greedy overhead on RQC networks,
// and a bitwise differential test of the incremental refiner against the
// full-re-evaluation reference in reference_refiner.hpp.
#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <stdexcept>
#include <string>

#include "core/greedy_slicer.hpp"
#include "core/slice_finder.hpp"
#include "core/slice_refiner.hpp"
#include "reference_refiner.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"

namespace ltns::core {
namespace {

struct Setup {
  circuit::LoweredNetwork ln;
  std::shared_ptr<tn::ContractionTree> tree;
  tn::Stem stem;
};

Setup make_setup(int rows, int cols, int cycles, uint64_t seed = 42) {
  Setup s{test::small_network(rows, cols, cycles, seed), nullptr, {}};
  s.tree = std::make_shared<tn::ContractionTree>(test::greedy_tree(s.ln.net, seed));
  s.stem = tn::extract_stem(*s.tree);
  return s;
}

double pick_target(const tn::ContractionTree& tree, double below = 3.0) {
  return std::max(2.0, tree.max_log2size() - below);
}

TEST(GreedySlicer, MeetsMemoryBound) {
  auto s = make_setup(4, 4, 8);
  GreedySlicerOptions opt;
  opt.target_log2size = pick_target(*s.tree);
  SlicedMetrics m;
  auto S = greedy_slice(*s.tree, opt, &m);
  EXPECT_TRUE(satisfies_memory_bound(*s.tree, S, opt.target_log2size));
  EXPECT_LE(m.max_log2size, opt.target_log2size + 1e-9);
  EXPECT_GT(S.size(), 0);
}

TEST(GreedySlicer, NoWorkWhenAlreadyUnderBound) {
  auto s = make_setup(3, 3, 4);
  GreedySlicerOptions opt;
  opt.target_log2size = s.tree->max_log2size() + 1;
  auto S = greedy_slice(*s.tree, opt);
  EXPECT_EQ(S.size(), 0);
}

TEST(LifetimeSliceFinder, MeetsMemoryBoundOnStem) {
  auto s = make_setup(4, 4, 8);
  SliceFinderOptions opt;
  opt.target_log2size = pick_target(*s.tree);
  SlicedMetrics m;
  auto S = lifetime_slice_finder(s.stem, opt, &m);
  EXPECT_TRUE(satisfies_memory_bound(*s.tree, S, opt.target_log2size));
  EXPECT_GT(S.size(), 0);
}

TEST(LifetimeSliceFinder, DeterministicAcrossRuns) {
  auto s = make_setup(4, 4, 8);
  SliceFinderOptions opt;
  opt.target_log2size = pick_target(*s.tree);
  auto a = lifetime_slice_finder(s.stem, opt);
  auto b = lifetime_slice_finder(s.stem, opt);
  EXPECT_EQ(a.to_vector(), b.to_vector());
}

TEST(LifetimeSliceFinder, SlicesOnlyStemEdges) {
  auto s = make_setup(4, 4, 8);
  SliceFinderOptions opt;
  opt.target_log2size = pick_target(*s.tree);
  opt.fixup_whole_tree = false;
  auto S = lifetime_slice_finder(s.stem, opt);
  auto lt = StemLifetimes::build(s.stem);
  for (int e : S.to_vector()) EXPECT_TRUE(lt.of(e).alive()) << "edge " << e << " not on stem";
}

TEST(LifetimeSliceFinder, FindsSetAtLeastAsSmallAsGreedyOnRqc) {
  // The Fig. 10 claim: the in-place slicing strategy finds potentially
  // smaller sets. Check over several circuits: never more than one extra
  // edge, usually fewer or equal.
  int wins = 0, ties = 0, losses = 0;
  for (uint64_t seed : {1u, 2u, 3u, 4u, 5u, 6u}) {
    auto s = make_setup(4, 5, 10, seed);
    double t = pick_target(*s.tree, 4.0);
    GreedySlicerOptions go;
    go.target_log2size = t;
    auto Sg = greedy_slice(*s.tree, go);
    SliceFinderOptions fo;
    fo.target_log2size = t;
    auto Sf = lifetime_slice_finder(s.stem, fo);
    if (Sf.size() < Sg.size()) ++wins;
    else if (Sf.size() == Sg.size()) ++ties;
    else ++losses;
  }
  EXPECT_GE(wins + ties, losses) << "lifetime finder should not be systematically larger";
}

TEST(SliceRefiner, NeverViolatesBoundAndNeverWorseThanInput) {
  for (uint64_t seed : {3u, 7u, 11u}) {
    auto s = make_setup(4, 4, 8, seed);
    double t = pick_target(*s.tree);
    SliceFinderOptions fo;
    fo.target_log2size = t;
    auto S0 = lifetime_slice_finder(s.stem, fo);
    double c0 = evaluate_slicing(*s.tree, S0).log2_total_cost;

    SliceRefinerOptions ro;
    ro.target_log2size = t;
    ro.seed = seed;
    RefineStats st;
    auto S1 = refine_slices(s.stem, S0, ro, &st);
    auto m1 = evaluate_slicing(*s.tree, S1);
    EXPECT_TRUE(satisfies_memory_bound(*s.tree, S1, t));
    EXPECT_LE(m1.log2_total_cost, c0 + 1e-9) << "refiner returns the best seen";
    EXPECT_NEAR(st.final_log2cost, m1.log2_total_cost, 1e-9);
    EXPECT_GE(st.proposed, 0);
  }
}

TEST(SliceRefiner, DropsUselessSlices) {
  // Hand the refiner a set with one obviously useless edge (a tiny branch
  // edge whose lifetime holds no critical tensor): it should be dropped.
  auto s = make_setup(4, 4, 8);
  double t = pick_target(*s.tree);
  SliceFinderOptions fo;
  fo.target_log2size = t;
  auto S = lifetime_slice_finder(s.stem, fo);
  // Add a useless edge: one absent from every critical (== t) stem tensor.
  auto lt = StemLifetimes::build(s.stem);
  int useless = -1;
  for (int e : s.ln.net.alive_edges()) {
    if (S.contains(e) || lt.of(e).alive()) continue;
    useless = e;
    break;
  }
  if (useless < 0) GTEST_SKIP() << "no off-stem edge available";
  S.add(useless);
  int before = S.size();
  SliceRefinerOptions ro;
  ro.target_log2size = t;
  auto S2 = refine_slices(s.stem, S, ro);
  EXPECT_LE(S2.size(), before);
  EXPECT_TRUE(satisfies_memory_bound(*s.tree, S2, t));
}

TEST(Theorem1Flavor, SmallerSetsCorrelateWithLowerOverhead) {
  // Theorem 1's practical content: when the lifetime finder produces a
  // strictly smaller set than greedy, its (refined) overhead should not be
  // dramatically worse, and on average should be better.
  double sum_log_ratio = 0;
  int n = 0;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    auto s = make_setup(4, 5, 10, seed);
    double t = pick_target(*s.tree, 4.0);
    GreedySlicerOptions go;
    go.target_log2size = t;
    SlicedMetrics mg;
    greedy_slice(*s.tree, go, &mg);

    SliceFinderOptions fo;
    fo.target_log2size = t;
    auto Sf = lifetime_slice_finder(s.stem, fo);
    SliceRefinerOptions ro;
    ro.target_log2size = t;
    ro.seed = seed;
    auto Sr = refine_slices(s.stem, Sf, ro);
    auto mr = evaluate_slicing(*s.tree, Sr);
    sum_log_ratio += mr.log2_overhead - mg.log2_overhead;
    ++n;
  }
  EXPECT_LE(sum_log_ratio / n, 0.75) << "lifetime+SA should be competitive with greedy";
}

// A 3x3 depth-6 grid with six open qubits: the root keeps 2^6 elements of
// open edges, which no slicer may cut, so target 2 is unreachable.
circuit::LoweredNetwork open_heavy_network() {
  circuit::LoweringOptions lo;
  lo.open_qubits = {0, 1, 2, 3, 4, 5};
  auto ln = circuit::lower(test::small_rqc(3, 3, 6), lo);
  circuit::simplify(ln);
  return ln;
}

void expect_unreachable(const std::function<void()>& slice) {
  try {
    slice();
    ADD_FAILURE() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    std::string what = e.what();
    EXPECT_NE(what.find("target_log2size 2 "), std::string::npos) << what;
    EXPECT_NE(what.find("open width 6"), std::string::npos) << what;
  }
}

TEST(GreedySlicer, ThrowsWhenTargetIsBelowOpenWidth) {
  auto ln = open_heavy_network();
  auto tree = test::greedy_tree(ln.net);
  GreedySlicerOptions opt;
  opt.target_log2size = 2;
  expect_unreachable([&] { greedy_slice(tree, opt); });
}

TEST(LifetimeSliceFinder, ThrowsWhenTargetIsBelowOpenWidth) {
  auto ln = open_heavy_network();
  auto tree = test::greedy_tree(ln.net);
  auto stem = tn::extract_stem(tree);
  SliceFinderOptions opt;
  opt.target_log2size = 2;
  expect_unreachable([&] { lifetime_slice_finder(stem, opt); });
}

// One refiner input: a network, its greedy tree and stem, a target clamped
// to the open width (as make_plan does) and the finder's slice set.
struct RefineInput {
  std::string name;
  std::shared_ptr<const circuit::LoweredNetwork> ln;
  std::shared_ptr<const tn::ContractionTree> tree;
  tn::Stem stem;
  double target = 0;
  SliceSet start;
};

RefineInput refine_input(std::string name, circuit::LoweredNetwork ln, double below,
                         uint64_t tree_seed = 1) {
  RefineInput in;
  in.name = std::move(name);
  in.ln = std::make_shared<const circuit::LoweredNetwork>(std::move(ln));
  in.tree = std::make_shared<const tn::ContractionTree>(test::greedy_tree(in.ln->net, tree_seed));
  in.stem = tn::extract_stem(*in.tree);
  in.target = std::max({2.0, in.tree->max_log2size() - below, open_log2width(in.ln->net)});
  SliceFinderOptions fo;
  fo.target_log2size = in.target;
  in.start = lifetime_slice_finder(in.stem, fo);
  return in;
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

// Refines `in` with seeds 1..`seeds` through both refiners; every returned
// slice set, SlicedMetrics field and RefineStats field must match bit for
// bit (exact_evals is the library's own: the reference has no screen).
// Returns the summed stats so callers can check the moves were exercised.
RefineStats expect_refiners_agree(const RefineInput& in, uint64_t seeds = 20) {
  RefineStats sum;
  for (uint64_t seed = 1; seed <= seeds; ++seed) {
    SCOPED_TRACE(in.name + " seed " + std::to_string(seed));
    SliceRefinerOptions ro;
    ro.target_log2size = in.target;
    ro.seed = seed;
    RefineStats ws, gs;
    auto want = test::reference_refine_slices(in.stem, in.start, ro, &ws);
    auto got = refine_slices(in.stem, in.start, ro, &gs);
    EXPECT_EQ(got.to_vector(), want.to_vector());
    auto mw = evaluate_slicing(*in.tree, want);
    auto mg = evaluate_slicing(*in.tree, got);
    EXPECT_TRUE(same_bits(mg.log2_num_subtasks, mw.log2_num_subtasks));
    EXPECT_TRUE(same_bits(mg.log2_cost_per_subtask, mw.log2_cost_per_subtask));
    EXPECT_TRUE(same_bits(mg.log2_total_cost, mw.log2_total_cost));
    EXPECT_TRUE(same_bits(mg.log2_overhead, mw.log2_overhead));
    EXPECT_TRUE(same_bits(mg.max_log2size, mw.max_log2size));
    EXPECT_TRUE(same_bits(mg.max_union_log2size, mw.max_union_log2size));
    EXPECT_EQ(gs.proposed, ws.proposed);
    EXPECT_EQ(gs.accepted, ws.accepted);
    EXPECT_EQ(gs.uphill_accepted, ws.uphill_accepted);
    EXPECT_EQ(gs.dropped_useless, ws.dropped_useless);
    EXPECT_TRUE(same_bits(gs.initial_log2cost, ws.initial_log2cost));
    EXPECT_TRUE(same_bits(gs.final_log2cost, ws.final_log2cost));
    sum.proposed += gs.proposed;
    sum.accepted += gs.accepted;
    sum.dropped_useless += gs.dropped_useless;
    sum.exact_evals += gs.exact_evals;
  }
  return sum;
}

TEST(RefinerDifferential, GridsMatchFullReevaluation) {
  for (uint64_t seed : {1u, 2u}) {
    auto st = expect_refiners_agree(
        refine_input("4x4 m8 c" + std::to_string(seed), test::small_network(4, 4, 8, seed), 3,
                     seed));
    EXPECT_GT(st.accepted, 0);
  }
  for (uint64_t seed : {1u, 2u}) {
    auto st = expect_refiners_agree(
        refine_input("4x5 m10 c" + std::to_string(seed), test::small_network(4, 5, 10, seed),
                     4, seed));
    EXPECT_GT(st.accepted, 0);
  }
}

TEST(RefinerDifferential, Sycamore53MatchesFullReevaluation) {
  circuit::RqcOptions ro;
  ro.cycles = 6;
  auto ln = circuit::lower(circuit::random_quantum_circuit(circuit::Device::sycamore53(), ro));
  circuit::simplify(ln);
  auto st = expect_refiners_agree(refine_input("syc53 m6", std::move(ln), 6));
  EXPECT_GT(st.accepted, 0);
  // The screen is live: some rejections skipped the ordered sum.
  EXPECT_LT(st.exact_evals, st.proposed);
}

// At m12 the costs pass 2^50, where the running sum's rounding is coarsest;
// m6 stays far below. Thousands of proposals here land within the screen's
// margin of the current cost and must take the exact path.
TEST(RefinerDifferential, Sycamore53AtScaleMatchesFullReevaluation) {
  circuit::RqcOptions ro;
  ro.cycles = 12;
  auto ln = circuit::lower(circuit::random_quantum_circuit(circuit::Device::sycamore53(), ro));
  circuit::simplify(ln);
  auto in = refine_input("syc53 m12", std::move(ln), 4);
  ASSERT_GT(evaluate_slicing(*in.tree, in.start).log2_total_cost, 50);
  auto st = expect_refiners_agree(in, 2);
  EXPECT_GT(st.accepted, 0);
  EXPECT_LT(st.exact_evals, st.proposed);
}

TEST(RefinerDifferential, RandomNetworksMatchFullReevaluation) {
  int proposed = 0;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed);
    circuit::LoweredNetwork ln;
    ln.net = tn::random_network(16 + int(rng.next_below(8)), 2.4, seed);
    proposed += expect_refiners_agree(
                    refine_input("random n" + std::to_string(seed), std::move(ln), 3, seed))
                    .proposed;
  }
  EXPECT_GT(proposed, 0);
}

TEST(RefinerDifferential, OpenBatchMatchesFullReevaluation) {
  circuit::LoweringOptions lo;
  lo.open_qubits = {0, 5, 10};
  auto ln = circuit::lower(test::small_rqc(4, 4, 8), lo);
  circuit::simplify(ln);
  auto st = expect_refiners_agree(refine_input("4x4 open3", std::move(ln), 3));
  EXPECT_GT(st.accepted, 0);
}

TEST(RefinerDifferential, DropPathMatchesFullReevaluation) {
  // The DropsUselessSlices setup: the finder's set plus one off-stem edge.
  auto in = refine_input("4x4 drop", test::small_network(4, 4, 8), 3, 42);
  auto lt = StemLifetimes::build(in.stem);
  for (int e : in.ln->net.alive_edges()) {
    if (in.start.contains(e) || lt.of(e).alive()) continue;
    in.start.add(e);
    break;
  }
  auto st = expect_refiners_agree(in);
  EXPECT_GT(st.dropped_useless, 0);
}

class SlicerSweep : public ::testing::TestWithParam<std::tuple<int, uint64_t>> {};

TEST_P(SlicerSweep, AllSlicersMeetAnyFeasibleTarget) {
  auto [below, seed] = GetParam();
  auto s = make_setup(4, 4, 8, seed);
  double t = std::max(2.0, s.tree->max_log2size() - below);
  GreedySlicerOptions go;
  go.target_log2size = t;
  auto Sg = greedy_slice(*s.tree, go);
  EXPECT_TRUE(satisfies_memory_bound(*s.tree, Sg, t));
  SliceFinderOptions fo;
  fo.target_log2size = t;
  auto Sf = lifetime_slice_finder(s.stem, fo);
  EXPECT_TRUE(satisfies_memory_bound(*s.tree, Sf, t));
}

INSTANTIATE_TEST_SUITE_P(TargetsAndSeeds, SlicerSweep,
                         ::testing::Combine(::testing::Values(1, 2, 3, 4, 5),
                                            ::testing::Values(uint64_t(2), uint64_t(9))));

}  // namespace
}  // namespace ltns::core

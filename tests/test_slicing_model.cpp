// Eq. 2 / Eq. 4 slicing cost model tests, including the brute-force
// cross-check over explicit subtask enumeration.
#include <gtest/gtest.h>

#include "core/slicing.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"

namespace ltns::core {
namespace {

TEST(SliceSet, TracksSizeAndSubtasks) {
  auto ln = test::small_network(3, 3, 4);
  SliceSet S(ln.net);
  EXPECT_EQ(S.size(), 0);
  EXPECT_DOUBLE_EQ(S.log2_num_subtasks(), 0.0);
  auto edges = ln.net.alive_edges();
  S.add(edges[0]);
  S.add(edges[1]);
  EXPECT_EQ(S.size(), 2);
  EXPECT_DOUBLE_EQ(S.log2_num_subtasks(), 2.0);
  S.remove(edges[0]);
  EXPECT_EQ(S.size(), 1);
  EXPECT_TRUE(S.contains(edges[1]));
  EXPECT_FALSE(S.contains(edges[0]));
}

TEST(EvaluateSlicing, EmptySetIsFree) {
  auto ln = test::small_network(3, 3, 4);
  auto tree = test::greedy_tree(ln.net);
  SliceSet S(ln.net);
  auto m = evaluate_slicing(tree, S);
  EXPECT_DOUBLE_EQ(m.log2_num_subtasks, 0.0);
  EXPECT_NEAR(m.log2_total_cost, tree.total_log2cost(), 1e-12);
  EXPECT_NEAR(m.log2_overhead, 0.0, 1e-12);
  EXPECT_NEAR(m.overhead(), 1.0, 1e-12);
  EXPECT_NEAR(m.max_log2size, tree.max_log2size(), 1e-12);
}

TEST(EvaluateSlicing, SingleEdgeAcrossWholeTreeHasNoOverhead) {
  // A path graph a-b-c contracted left to right: slicing the edge held to
  // the very end would halve everything it touches. Construct a case where
  // an open edge lives in every intermediate: lifetime = whole tree, so
  // overhead is exactly 1.
  tn::TensorNetwork net;
  auto a = net.add_vertex(), b = net.add_vertex(), c = net.add_vertex();
  net.add_edge(a, b);
  net.add_edge(b, c);
  int open = net.add_edge(a, tn::kNone);
  tn::SsaPath p;
  p.leaf_vertices = {a, b, c};
  p.steps = {{0, 1}, {3, 2}};
  auto tree = tn::ContractionTree::build(net, p);
  SliceSet S(net);
  S.add(open);
  auto m = evaluate_slicing(tree, S);
  EXPECT_NEAR(m.log2_overhead, 0.0, 1e-12) << "lifetime spans every contraction";
}

TEST(EvaluateSlicing, UntouchedEdgeDoublesTotal) {
  // Slicing an edge that appears in NO contraction of interest doubles the
  // whole computation: overhead = 2.
  tn::TensorNetwork net;
  auto a = net.add_vertex(), b = net.add_vertex(), c = net.add_vertex(), d = net.add_vertex();
  net.add_edge(a, b);
  net.add_edge(c, d);
  int cd2 = net.add_edge(c, d);
  tn::SsaPath p;
  p.leaf_vertices = {a, b, c, d};
  p.steps = {{0, 1}, {2, 3}, {4, 5}};
  auto tree = tn::ContractionTree::build(net, p);
  SliceSet S(net);
  // Slice the a-b edge: it is absent from the c-d contraction, which gets
  // recomputed in both subtasks.
  S.add(0);
  auto m = evaluate_slicing(tree, S);
  EXPECT_GT(m.overhead(), 1.0);
  (void)cd2;
}

TEST(EvaluateSlicing, MatchesBruteForce) {
  Rng rng(17);
  for (uint64_t seed : {4u, 8u, 15u, 16u, 23u, 42u}) {
    auto net = tn::random_network(14, 2.6, seed);
    auto tree = test::greedy_tree(net, seed);
    auto edges = net.alive_edges();
    SliceSet S(net);
    for (int k = 0; k < 3 && k < int(edges.size()); ++k) {
      int e;
      do {
        e = edges[rng.next_below(edges.size())];
      } while (S.contains(e));
      S.add(e);
    }
    auto m = evaluate_slicing(tree, S);
    EXPECT_NEAR(m.log2_total_cost, brute_force_sliced_log2cost(tree, S), 1e-9);
  }
}

TEST(EvaluateSlicing, SubtaskCostDecomposition) {
  auto ln = test::small_network(3, 4, 6);
  auto tree = test::greedy_tree(ln.net);
  SliceSet S(ln.net);
  auto edges = ln.net.alive_edges();
  S.add(edges[3]);
  S.add(edges[5]);
  auto m = evaluate_slicing(tree, S);
  EXPECT_NEAR(m.log2_total_cost, m.log2_cost_per_subtask + m.log2_num_subtasks, 1e-12);
  EXPECT_GE(m.log2_overhead, -1e-12) << "slicing can never reduce total flops";
}

TEST(EvaluateSlicing, MoreSlicesNeverReduceTotal) {
  // "More sliced edges tend to lead to higher overhead ... will grow unless
  // the lifetimes of the added edges go across the whole contraction tree."
  auto ln = test::small_network(3, 4, 8);
  auto tree = test::greedy_tree(ln.net);
  SliceSet S(ln.net);
  double prev = evaluate_slicing(tree, S).log2_total_cost;
  for (int e : {0, 4, 9, 13}) {
    if (!ln.net.edge(e).alive) continue;
    S.add(e);
    double cur = evaluate_slicing(tree, S).log2_total_cost;
    EXPECT_GE(cur + 1e-9, prev);
    prev = cur;
  }
}

// Eq. 4 >= Eq. 1: slicing repeats work, it never removes any. make_plan's
// sliced-cost screen stops at the first trial whose unsliced cost reaches
// the best sliced cost found, which is exact only because of this bound.
TEST(EvaluateSlicing, SlicedTotalNeverBelowUnsliced) {
  Rng rng(0x5EC7);
  for (uint64_t seed = 1; seed <= 24; ++seed) {
    auto net = tn::random_network(10 + int(seed % 9), 2.4 + 0.05 * double(seed % 7), seed);
    auto tree = test::greedy_tree(net, seed, seed % 2 == 0 ? 0.0 : 0.8);
    const auto edges = net.alive_edges();
    for (int trial = 0; trial < 8; ++trial) {
      SliceSet S(net);
      const size_t k = rng.next_below(std::min<size_t>(edges.size(), 7) + 1);
      while (size_t(S.size()) < k) S.add(edges[rng.next_below(edges.size())]);
      EXPECT_GE(evaluate_slicing(tree, S).log2_total_cost, tree.total_log2cost() - 1e-9)
          << "seed " << seed << " |S| " << k;
    }
  }
}

TEST(MemoryBound, DetectsOversizedNodes) {
  auto ln = test::small_network(4, 4, 8);
  auto tree = test::greedy_tree(ln.net);
  SliceSet S(ln.net);
  EXPECT_FALSE(satisfies_memory_bound(tree, S, tree.max_log2size() - 1));
  EXPECT_TRUE(satisfies_memory_bound(tree, S, tree.max_log2size()));
}

TEST(SlicedNodeSize, OnlyCountsPresentEdges) {
  auto ln = test::small_network(3, 3, 4);
  auto tree = test::greedy_tree(ln.net);
  SliceSet S(ln.net);
  // Find a leaf and slice an edge NOT on it.
  int leaf = -1;
  for (int i = 0; i < tree.num_nodes(); ++i)
    if (tree.node(i).is_leaf()) {
      leaf = i;
      break;
    }
  int absent = -1;
  for (int e : ln.net.alive_edges())
    if (!tree.node(leaf).ixs.contains(e)) {
      absent = e;
      break;
    }
  ASSERT_GE(absent, 0);
  S.add(absent);
  EXPECT_DOUBLE_EQ(sliced_node_log2size(tree, leaf, S.edges()), tree.node(leaf).log2size);
}

}  // namespace
}  // namespace ltns::core

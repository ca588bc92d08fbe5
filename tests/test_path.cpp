#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <optional>
#include <thread>

#include "core/planner.hpp"
#include "path/greedy.hpp"
#include "path/local_tune.hpp"
#include "path/optimizer.hpp"
#include "path/partition.hpp"
#include "test_helpers.hpp"

namespace ltns::path {
namespace {

void expect_valid_path(const tn::TensorNetwork& net, const tn::SsaPath& p) {
  auto tree = tn::ContractionTree::build(net, p);
  std::string why;
  EXPECT_TRUE(tree.validate(&why)) << why;
}

TEST(GreedyPath, ValidOnRqcNetwork) {
  auto ln = test::small_network(4, 4, 8);
  expect_valid_path(ln.net, greedy_path(ln.net));
}

TEST(GreedyPath, ValidOnRandomNetworks) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    auto net = tn::random_network(8 + int(seed) * 5, 2.7, seed);
    GreedyOptions g;
    g.seed = seed;
    expect_valid_path(net, greedy_path(net, g));
  }
}

TEST(GreedyPath, DeterministicAtZeroTemperature) {
  auto ln = test::small_network(4, 4, 6);
  auto p1 = greedy_path(ln.net);
  auto p2 = greedy_path(ln.net);
  EXPECT_EQ(p1.steps, p2.steps);
}

TEST(GreedyPath, TemperatureExploresDifferentPaths) {
  auto ln = test::small_network(4, 4, 8);
  GreedyOptions a;
  a.temperature = 1.0;
  a.seed = 1;
  GreedyOptions b;
  b.temperature = 1.0;
  b.seed = 2;
  EXPECT_NE(greedy_path(ln.net, a).steps, greedy_path(ln.net, b).steps);
}

TEST(GreedyPath, HandlesDisconnectedNetworks) {
  tn::TensorNetwork net;
  auto a = net.add_vertex(), b = net.add_vertex();
  auto c = net.add_vertex(), d = net.add_vertex();
  net.add_edge(a, b);
  net.add_edge(c, d);
  expect_valid_path(net, greedy_path(net));
}

TEST(GreedyPath, SingleVertexNetwork) {
  tn::TensorNetwork net;
  net.add_vertex();
  auto p = greedy_path(net);
  EXPECT_EQ(p.leaf_vertices.size(), 1u);
  EXPECT_TRUE(p.steps.empty());
}

TEST(PartitionPath, ValidAndReasonable) {
  auto ln = test::small_network(4, 5, 10);
  PartitionOptions opt;
  auto p = partition_path(ln.net, opt);
  expect_valid_path(ln.net, p);
  // Should not be catastrophically worse than greedy on a planar RQC.
  auto tg = tn::ContractionTree::build(ln.net, greedy_path(ln.net));
  auto tp = tn::ContractionTree::build(ln.net, p);
  EXPECT_LT(tp.total_log2cost(), tg.total_log2cost() + 20.0);
}

TEST(PartitionPath, ValidOnRandomNetworks) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    auto net = tn::random_network(40, 3.0, seed);
    PartitionOptions opt;
    opt.seed = seed;
    expect_valid_path(net, partition_path(net, opt));
  }
}

TEST(OptimalOrder, MatchesExhaustiveOnTriangle) {
  tn::TensorNetwork net;
  auto a = net.add_vertex(), b = net.add_vertex(), c = net.add_vertex();
  net.add_edge(a, b);
  net.add_edge(b, c);
  net.add_edge(a, c);
  std::vector<IndexSet> leaves{net.vertex_index_set(a), net.vertex_index_set(b),
                               net.vertex_index_set(c)};
  double cost;
  auto steps = optimal_order(net, leaves, &cost);
  EXPECT_EQ(steps.size(), 2u);
  // All contraction orders of a triangle cost the same: 2^3 + 2^2.
  EXPECT_NEAR(std::exp2(cost), 12.0, 1e-9);
}

TEST(OptimalOrder, BeatsWorstOrderOnAChain) {
  // Chain a-b-c-d with a fat middle edge: contracting ends first is bad.
  tn::TensorNetwork net;
  auto a = net.add_vertex(), b = net.add_vertex(), c = net.add_vertex(), d = net.add_vertex();
  net.add_edge(a, b);
  net.add_edge(b, c, 6.0);
  net.add_edge(c, d);
  std::vector<IndexSet> leaves;
  for (auto v : {a, b, c, d}) leaves.push_back(net.vertex_index_set(v));
  double best;
  optimal_order(net, leaves, &best);
  // Worst order contracts a with d first (outer product with the fat edge
  // alive on both sides).
  tn::SsaPath bad;
  bad.leaf_vertices = {a, b, c, d};
  bad.steps = {{0, 3}, {4, 1}, {5, 2}};
  auto bad_tree = tn::ContractionTree::build(net, bad);
  EXPECT_LT(best, bad_tree.total_log2cost());
}

TEST(LocalTune, NeverIncreasesCost) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    auto net = tn::random_network(30, 2.8, seed);
    auto tree = test::greedy_tree(net, seed, 1.0);
    auto r = local_tune(tree);
    EXPECT_LE(r.log2cost_after, r.log2cost_before + 1e-9);
    expect_valid_path(net, r.path);
  }
}

TEST(LocalTune, ImprovesABadTree) {
  // A deliberately shuffled (high temperature) greedy tree should leave
  // room for subtree improvement on at least one seed.
  int improved = 0;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    auto ln = test::small_network(4, 4, 8, seed);
    auto tree = test::greedy_tree(ln.net, seed, 4.0);
    auto r = local_tune(tree);
    improved += r.improved_subtrees;
  }
  EXPECT_GT(improved, 0);
}

TEST(Optimizer, PicksBestAcrossFamilies) {
  auto ln = test::small_network(4, 4, 8);
  OptimizerOptions opt;
  opt.greedy_trials = 8;
  opt.partition_trials = 4;
  auto r = find_path(ln.net, opt);
  expect_valid_path(ln.net, r.path);
  EXPECT_FALSE(r.method.empty());
  // Every raw trial comes back, in run order, with its Eq. 1 cost; the
  // result is the best of them, tuned (tuning only lowers the cost).
  ASSERT_EQ(r.trials.size(), 12u);
  for (size_t i = 0; i < r.trials.size(); ++i) {
    const auto& t = r.trials[i];
    EXPECT_EQ(t.index, int(i));
    const std::string want =
        i < 8 ? "greedy#" + std::to_string(i) : "partition#" + std::to_string(i - 8);
    EXPECT_EQ(t.method, want);
    expect_valid_path(ln.net, t.path);
    EXPECT_DOUBLE_EQ(t.log2cost, tn::ContractionTree::build(ln.net, t.path).total_log2cost());
    EXPECT_GE(t.log2cost, r.log2cost - 1e-9);
  }
  ASSERT_GE(r.best_trial, 0);
  EXPECT_EQ(r.method.rfind(r.trials[size_t(r.best_trial)].method, 0), 0u) << r.method;
  // Best-of-N is at least as good as the deterministic greedy alone.
  auto tg = tn::ContractionTree::build(ln.net, greedy_path(ln.net));
  EXPECT_LE(r.log2cost, tg.total_log2cost() + 1e-9);
}

// find_path as a serial loop: each trial built and folded as soon as it
// runs, in trial order, then the winner tuned. The threaded find_path must
// return these bytes whatever its thread count.
PathResult serial_find_path(const tn::TensorNetwork& net, const OptimizerOptions& opt) {
  PathResult best;
  auto consider = [&](tn::SsaPath p, const char* family, int i) {
    auto tree = tn::ContractionTree::build(net, p);
    const int index = int(best.trials.size());
    const std::string method = std::string(family) + '#' + std::to_string(i);
    best.trials.push_back({p, tree.total_log2cost(), index, method});
    bool better = best.best_trial < 0 || tree.total_log2cost() < best.log2cost - 1e-12 ||
                  (std::abs(tree.total_log2cost() - best.log2cost) <= 1e-12 &&
                   tree.max_log2size() < best.log2size);
    if (better) {
      best.path = std::move(p);
      best.log2cost = tree.total_log2cost();
      best.log2size = tree.max_log2size();
      best.method = method;
      best.best_trial = index;
    }
  };
  for (int i = 0; i < opt.greedy_trials; ++i) {
    GreedyOptions g;
    g.temperature = (i == 0 ? 0.0 : opt.temperature);
    g.seed = opt.seed + uint64_t(i) * 0x9e37;
    consider(greedy_path(net, g), "greedy", i);
  }
  for (int i = 0; i < opt.partition_trials; ++i) {
    PartitionOptions p;
    p.seed = opt.seed + 0x1234 + uint64_t(i) * 0x51ed;
    consider(partition_path(net, p), "partition", i);
  }
  if (opt.tune && best.best_trial >= 0) {
    auto tuned = local_tune(tn::ContractionTree::build(net, best.path),
                            LocalTuneOptions{opt.tune_max_leaves, opt.tune_sweeps});
    if (tuned.log2cost_after < best.log2cost) {
      best.path = std::move(tuned.path);
      best.log2cost = tuned.log2cost_after;
      best.log2size = tn::ContractionTree::build(net, best.path).max_log2size();
      best.method += "+tune";
    }
  }
  return best;
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

void expect_same_result(const PathResult& got, const PathResult& want, const char* name) {
  EXPECT_EQ(got.path.leaf_vertices, want.path.leaf_vertices) << name;
  EXPECT_EQ(got.path.steps, want.path.steps) << name;
  EXPECT_TRUE(same_bits(got.log2cost, want.log2cost)) << name;
  EXPECT_TRUE(same_bits(got.log2size, want.log2size)) << name;
  EXPECT_EQ(got.method, want.method) << name;
  EXPECT_EQ(got.best_trial, want.best_trial) << name;
  ASSERT_EQ(got.trials.size(), want.trials.size()) << name;
  for (size_t i = 0; i < got.trials.size(); ++i) {
    const auto& g = got.trials[i];
    const auto& w = want.trials[i];
    EXPECT_EQ(g.path.leaf_vertices, w.path.leaf_vertices) << name << " trial " << i;
    EXPECT_EQ(g.path.steps, w.path.steps) << name << " trial " << i;
    EXPECT_TRUE(same_bits(g.log2cost, w.log2cost)) << name << " trial " << i;
    EXPECT_EQ(g.index, w.index) << name << " trial " << i;
    EXPECT_EQ(g.method, w.method) << name << " trial " << i;
  }
}

TEST(Optimizer, ParallelTrialsMatchSerialFold) {
  struct Case {
    const char* name;
    circuit::LoweredNetwork ln;
    OptimizerOptions opt;
  };
  std::vector<Case> cases;
  {
    // The `ltns_cli gen-sycamore 12 5 | ltns_cli plan -` network and budget.
    circuit::RqcOptions ro;
    ro.cycles = 12;
    ro.seed = 5;
    auto ln = circuit::lower(circuit::random_quantum_circuit(circuit::Device::sycamore53(), ro));
    circuit::simplify(ln);
    OptimizerOptions opt;
    opt.greedy_trials = 32;
    opt.partition_trials = 8;
    cases.push_back({"sycamore53 m12", std::move(ln), opt});
  }
  cases.push_back({"grid4x5 m14", test::small_network(4, 5, 14), OptimizerOptions{}});
  for (const auto& c : cases) {
    const auto want = serial_find_path(c.ln.net, c.opt);
    expect_same_result(find_path(c.ln.net, c.opt), want, c.name);
    // Again: thread timing differs from run to run, the bytes may not.
    expect_same_result(find_path(c.ln.net, c.opt), want, c.name);
  }
}

TEST(Optimizer, ConcurrentMakePlanCallersMatchALoneCall) {
  // make_plan callers share one process (a server's poll thread next to a
  // Simulator); each call's trial threads must not disturb the others'.
  auto ln = test::small_network(4, 5, 14);
  core::PlanOptions po;
  po.target_log2size = 14;
  const auto lone = core::make_plan(ln.net, po);
  std::vector<std::optional<core::Plan>> got(3);
  std::vector<std::thread> callers;
  for (auto& g : got) callers.emplace_back([&] { g = core::make_plan(ln.net, po); });
  for (auto& t : callers) t.join();
  for (const auto& p : got) {
    ASSERT_TRUE(p);
    const core::Plan& g = *p;
    EXPECT_EQ(g.path.leaf_vertices, lone.path.leaf_vertices);
    EXPECT_EQ(g.path.steps, lone.path.steps);
    EXPECT_EQ(g.slices.to_vector(), lone.slices.to_vector());
    EXPECT_EQ(std::memcmp(&g.metrics, &lone.metrics, sizeof(core::SlicedMetrics)), 0);
    EXPECT_EQ(g.path_method, lone.path_method);
  }
}

class OptimizerSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(OptimizerSweep, ValidPlansOnVaryingCircuits) {
  auto ln = test::small_network(3 + int(GetParam() % 2), 4, 6 + int(GetParam() % 5), GetParam());
  OptimizerOptions opt;
  opt.greedy_trials = 4;
  opt.partition_trials = 2;
  opt.seed = GetParam();
  auto r = find_path(ln.net, opt);
  expect_valid_path(ln.net, r.path);
  EXPECT_GE(r.log2size, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, OptimizerSweep, ::testing::Range(uint64_t(1), uint64_t(9)));

}  // namespace
}  // namespace ltns::path

// Planner (all slicer kinds) and Simulator facade option-matrix tests.
#include <gtest/gtest.h>

#include <cstring>
#include <utility>

#include "api/simulator.hpp"
#include "core/planner.hpp"
#include "sv/statevector.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"

namespace ltns {
namespace {

core::PlanOptions fast_plan(double target) {
  core::PlanOptions po;
  po.path.greedy_trials = 4;
  po.path.partition_trials = 2;
  po.target_log2size = target;
  po.refiner.moves_per_temperature = 6;
  po.refiner.alpha = 0.75;
  return po;
}

class PlannerKinds : public ::testing::TestWithParam<core::SlicerKind> {};

TEST_P(PlannerKinds, ProducesValidBoundedPlans) {
  auto ln = test::small_network(4, 4, 8);
  auto po = fast_plan(8);
  po.slicer = GetParam();
  auto plan = core::make_plan(ln.net, po);
  std::string why;
  EXPECT_TRUE(plan.tree->validate(&why)) << why;
  EXPECT_TRUE(core::satisfies_memory_bound(*plan.tree, plan.slices, po.target_log2size));
  EXPECT_EQ(plan.stem.nodes.back(), plan.tree->root());
  EXPECT_GE(plan.num_subtasks(), 1.0);
  EXPECT_FALSE(plan.path_method.empty());
  // Metrics agree with a fresh evaluation.
  auto m = core::evaluate_slicing(*plan.tree, plan.slices);
  EXPECT_NEAR(m.log2_total_cost, plan.metrics.log2_total_cost, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(AllKinds, PlannerKinds,
                         ::testing::Values(core::SlicerKind::kGreedyBaseline,
                                           core::SlicerKind::kLifetime,
                                           core::SlicerKind::kLifetimeRefined));

TEST(Planner, RefinedNeverWorseThanUnrefined) {
  auto ln = test::small_network(4, 4, 8);
  auto po = fast_plan(7);
  po.slicer = core::SlicerKind::kLifetime;
  auto p1 = core::make_plan(ln.net, po);
  po.slicer = core::SlicerKind::kLifetimeRefined;
  auto p2 = core::make_plan(ln.net, po);
  EXPECT_LE(p2.metrics.log2_total_cost, p1.metrics.log2_total_cost + 1e-9);
}

TEST(Planner, PlanIsCopyableAndStable) {
  // The stem points into the tree; copying/moving the Plan must not break it.
  auto ln = test::small_network(3, 3, 6);
  auto plan = core::make_plan(ln.net, fast_plan(8));
  core::Plan copy = plan;
  core::Plan moved = std::move(plan);
  EXPECT_EQ(copy.stem.tree, copy.tree.get() == nullptr ? nullptr : copy.stem.tree);
  EXPECT_EQ(moved.stem.nodes.back(), moved.tree->root());
  EXPECT_NEAR(moved.stem.total_log2cost(), copy.stem.total_log2cost(), 1e-12);
}

// The plan cache files one plan per circuit shape, not per bitstring
// (cache::plan_key has no bits). That is sound only while lower + simplify
// + make_plan never read a bra cap's value: for every circuit and open
// set, the plan of any seeded bitstring must equal the first one's —
// same leaves, steps and sliced edges, bitwise-equal metrics.
TEST(Planner, PlanIsBlindToOutputBitValues) {
  // A 12-qubit corner of the Sycamore diamond: its couplers are not a grid.
  const auto syc = circuit::Device::sycamore53();
  circuit::Device sub;
  for (int q = 0; q < 12; ++q) sub.coords.push_back(syc.coords[size_t(q)]);
  for (auto [a, b] : syc.couplers)
    if (a < 12 && b < 12) sub.couplers.emplace_back(a, b);
  circuit::RqcOptions ro;
  ro.cycles = 6;
  ro.seed = 7;
  const std::vector<std::pair<const char*, circuit::Circuit>> circuits = {
      {"grid3x3", test::small_rqc(3, 3, 6, 31)},
      {"grid4x4", test::small_rqc(4, 4, 8, 32)},
      {"syc12", circuit::random_quantum_circuit(sub, ro)},
  };
  const auto po = fast_plan(6);
  for (const auto& [name, c] : circuits) {
    const int n = c.num_qubits;
    const std::vector<std::vector<int>> open_sets = {{}, {1, n / 2}, {0, 3, n - 1}};
    for (const auto& open : open_sets) {
      Rng rng(0xB175 + uint64_t(n) * 16 + open.size());
      // The first bitstring's plan, by value (its tree points into a
      // network that does not outlive the iteration).
      tn::SsaPath first_path;
      std::vector<int> first_slices;
      core::SlicedMetrics first_metrics;
      for (int k = 0; k < 8; ++k) {
        circuit::LoweringOptions lo;
        for (int q = 0; q < n; ++q) lo.output_bits.push_back(int(rng.next_below(2)));
        lo.open_qubits = open;
        auto ln = circuit::lower(c, lo);
        circuit::simplify(ln);
        const auto plan = core::make_plan(ln.net, po);
        if (k == 0) {
          first_path = plan.path;
          first_slices = plan.slices.to_vector();
          first_metrics = plan.metrics;
          if (name == std::string("grid4x4")) {
            EXPECT_GT(plan.num_slices(), 0) << "open=" << open.size();
          }
          continue;
        }
        const std::string where = std::string(name) + " open=" + std::to_string(open.size()) +
                                  " bitstring " + std::to_string(k);
        EXPECT_EQ(plan.path.leaf_vertices, first_path.leaf_vertices) << where;
        EXPECT_EQ(plan.path.steps, first_path.steps) << where;
        EXPECT_EQ(plan.slices.to_vector(), first_slices) << where;
        EXPECT_EQ(std::memcmp(&plan.metrics, &first_metrics, sizeof(core::SlicedMetrics)), 0)
            << where;
      }
    }
  }
}

// The default path sliced the way make_plan slices it: find_path's best
// tree, Algorithm 1, then Algorithm 2 seeded with opt.seed. Closed
// networks only (no clamp to the open width).
struct StagedPlan {
  tn::SsaPath path;
  std::vector<int> slices;
  core::SlicedMetrics metrics;
};

StagedPlan staged_default_plan(const tn::TensorNetwork& net, const core::PlanOptions& po) {
  auto pr = path::find_path(net, po.path);
  auto tree = tn::ContractionTree::build(net, pr.path);
  auto stem = tn::extract_stem(tree);
  core::SliceFinderOptions f;
  f.target_log2size = po.target_log2size;
  core::SliceRefinerOptions r = po.refiner;
  r.target_log2size = po.target_log2size;
  r.seed = po.seed;
  auto slices = core::refine_slices(stem, core::lifetime_slice_finder(stem, f), r);
  return {pr.path, slices.to_vector(), core::evaluate_slicing(tree, slices)};
}

void expect_same_plan(const core::Plan& a, const core::Plan& b, const std::string& where) {
  EXPECT_EQ(a.path.leaf_vertices, b.path.leaf_vertices) << where;
  EXPECT_EQ(a.path.steps, b.path.steps) << where;
  EXPECT_EQ(a.slices.to_vector(), b.slices.to_vector()) << where;
  EXPECT_EQ(std::memcmp(&a.metrics, &b.metrics, sizeof(core::SlicedMetrics)), 0) << where;
  EXPECT_EQ(a.path_method, b.path_method) << where;
}

// amp-grid20's network: the default path slices to a higher Eq. 4 cost than
// another trial, so the sliced-cost screen must move the plan off it.
TEST(Planner, ChoosesPathBySlicedCost) {
  auto ln = test::small_network(4, 5, 14);
  core::PlanOptions po;
  po.target_log2size = 14;
  const auto plan = core::make_plan(ln.net, po);
  const auto staged = staged_default_plan(ln.net, po);
  EXPECT_LT(plan.metrics.log2_total_cost, staged.metrics.log2_total_cost);
  EXPECT_LE(plan.metrics.log2_overhead, staged.metrics.log2_overhead);
  EXPECT_NE(plan.path.steps, staged.path.steps);
  EXPECT_NE(plan.path_method.find("(sliced screen "), std::string::npos) << plan.path_method;
  EXPECT_TRUE(core::satisfies_memory_bound(*plan.tree, plan.slices, po.target_log2size));
  const auto fresh = core::evaluate_slicing(*plan.tree, plan.slices);
  EXPECT_EQ(std::memcmp(&fresh, &plan.metrics, sizeof(core::SlicedMetrics)), 0);

  // Two refines race on two threads; the plan must not depend on which
  // finishes first.
  for (int rep = 0; rep < 3; ++rep)
    expect_same_plan(core::make_plan(ln.net, po), plan, "rep " + std::to_string(rep));
}

// Where the default path also slices cheapest, the plan is the one the
// default path alone gives, bit for bit.
TEST(Planner, KeepsDefaultPathWhenItWins) {
  struct Case {
    std::string name;
    circuit::LoweredNetwork ln;
    core::PlanOptions po;
  };
  std::vector<Case> cases;
  {
    core::PlanOptions po;
    po.target_log2size = 16;
    cases.push_back({"grid4x5 m12", test::small_network(4, 5, 12), po});
  }
  {
    // The smoke-size plan-syc53 recipe: target = the path's biggest tensor - 6.
    circuit::RqcOptions ro;
    ro.cycles = 8;
    ro.seed = 1;
    auto ln = circuit::lower(circuit::random_quantum_circuit(circuit::Device::sycamore53(), ro));
    circuit::simplify(ln);
    core::PlanOptions po;
    po.path.greedy_trials = 4;
    po.path.partition_trials = 1;
    po.target_log2size = std::max(4.0, path::find_path(ln.net, po.path).log2size - 6);
    cases.push_back({"sycamore53 m8", std::move(ln), po});
  }
  for (const auto& c : cases) {
    const auto plan = core::make_plan(c.ln.net, c.po);
    const auto staged = staged_default_plan(c.ln.net, c.po);
    EXPECT_EQ(plan.path.leaf_vertices, staged.path.leaf_vertices) << c.name;
    EXPECT_EQ(plan.path.steps, staged.path.steps) << c.name;
    EXPECT_EQ(plan.slices.to_vector(), staged.slices) << c.name;
    EXPECT_EQ(std::memcmp(&plan.metrics, &staged.metrics, sizeof(core::SlicedMetrics)), 0)
        << c.name;
    expect_same_plan(core::make_plan(c.ln.net, c.po), plan, c.name + " second call");
  }
}

// `ltns_cli plan`'s recipe: a probe search sets the target, and make_plan
// takes the probe instead of searching again. Same plan, one search.
TEST(Planner, ReusesTheProbePathSearch) {
  auto ln = test::small_network(4, 5, 12);
  core::PlanOptions po;
  const uint64_t before = path::find_path_invocations();
  auto probe = path::find_path(ln.net, po.path);
  po.target_log2size = std::max(4.0, probe.log2size - 6);
  const auto reused = core::make_plan(ln.net, po, std::move(probe));
  EXPECT_EQ(path::find_path_invocations(), before + 1);
  expect_same_plan(reused, core::make_plan(ln.net, po), "probe overload");
}

TEST(Simulator, AmplitudeMatchesAcrossSlicerKinds) {
  auto c = test::small_rqc(3, 3, 6, 5);
  auto bits = test::zero_bits(c.num_qubits);
  auto want = sv::simulate_amplitude(c, bits);
  for (auto kind : {core::SlicerKind::kGreedyBaseline, core::SlicerKind::kLifetime,
                    core::SlicerKind::kLifetimeRefined}) {
    api::SimulatorOptions opt;
    opt.plan = fast_plan(8);
    opt.plan.slicer = kind;
    api::Simulator sim(c, opt);
    auto res = sim.amplitude(bits);
    EXPECT_NEAR(std::abs(res.amplitude - want), 0.0, 1e-4) << int(kind);
  }
}

TEST(Simulator, TinyLdmStillCorrect) {
  auto c = test::small_rqc(3, 3, 6, 9);
  api::SimulatorOptions opt;
  opt.plan = fast_plan(8);
  opt.ldm_elems = 128;  // absurdly small: every window falls back or slices hard
  api::Simulator sim(c, opt);
  auto res = sim.amplitude(test::zero_bits(c.num_qubits));
  auto want = sv::simulate_amplitude(c, test::zero_bits(c.num_qubits));
  EXPECT_NEAR(std::abs(res.amplitude - want), 0.0, 1e-4);
}

TEST(Simulator, ExplicitPoolIsUsed) {
  ThreadPool pool(3);
  auto c = test::small_rqc(3, 3, 6, 13);
  api::SimulatorOptions opt;
  opt.plan = fast_plan(8);
  opt.pool = &pool;
  api::Simulator sim(c, opt);
  auto res = sim.amplitude(test::zero_bits(c.num_qubits));
  auto want = sv::simulate_amplitude(c, test::zero_bits(c.num_qubits));
  EXPECT_NEAR(std::abs(res.amplitude - want), 0.0, 1e-4);
}

TEST(Simulator, LooseTargetMeansNoSlices) {
  auto c = test::small_rqc(3, 3, 4);
  api::SimulatorOptions opt;
  opt.plan = fast_plan(30);
  api::Simulator sim(c, opt);
  auto res = sim.amplitude(test::zero_bits(c.num_qubits));
  EXPECT_EQ(res.num_slices, 0);
  EXPECT_NEAR(res.slicing.overhead(), 1.0, 1e-9);
}

TEST(Simulator, BatchSingleOpenQubit) {
  auto c = test::small_rqc(2, 3, 5, 3);
  api::SimulatorOptions opt;
  opt.plan = fast_plan(8);
  api::Simulator sim(c, opt);
  auto batch = sim.batch_amplitudes(test::zero_bits(c.num_qubits), {2});
  ASSERT_EQ(batch.amplitudes.size(), 2u);
  sv::Statevector sv(c.num_qubits);
  sv.run(c);
  for (int b = 0; b < 2; ++b) {
    auto bits = test::zero_bits(c.num_qubits);
    bits[2] = b;
    EXPECT_NEAR(std::abs(batch.amplitudes[size_t(b)] - sv.amplitude_bits(bits)), 0.0, 1e-4);
  }
}

TEST(Simulator, SamplingDeterministicPerSeed) {
  api::BatchResult batch;
  batch.amplitudes = {{0.5, 0}, {0.5, 0}, {0.5, 0}, {0.5, 0}};
  auto a = api::Simulator::sample_from_batch(batch, 100, 42);
  auto b = api::Simulator::sample_from_batch(batch, 100, 42);
  EXPECT_EQ(a, b);
  auto c = api::Simulator::sample_from_batch(batch, 100, 43);
  EXPECT_NE(a, c);
}

}  // namespace
}  // namespace ltns

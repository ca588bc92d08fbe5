// Tree executor, slice runner and fused (secondary slicing) executor tests.
// The load-bearing invariants:
//   1. sliced execution summed over all subtasks == unsliced execution;
//   2. fused execution == step-by-step execution;
//   3. the fused executor respects the LDM capacity, and its compiled
//      windows are bitwise a plain contract chain on every backend;
//   4. TNC amplitudes match the statevector simulator (see
//      test_integration.cpp for the full pipeline version).
#include <gtest/gtest.h>

#include "core/greedy_slicer.hpp"
#include "core/slice_finder.hpp"
#include "exec/fused_executor.hpp"
#include "exec/slice_runner.hpp"
#include "exec/tree_executor.hpp"
#include "test_helpers.hpp"
#include "util/parallel.hpp"

namespace ltns::exec {
namespace {

struct Fixture {
  circuit::LoweredNetwork ln;
  std::shared_ptr<tn::ContractionTree> tree;
  tn::Stem stem;

  LeafProvider leaves() const {
    return [this](tn::VertId v) -> const Tensor& { return ln.tensors[size_t(v)]; };
  }
};

Fixture make_fixture(int rows, int cols, int cycles, uint64_t seed = 42) {
  Fixture f{test::small_network(rows, cols, cycles, seed), nullptr, {}};
  f.tree = std::make_shared<tn::ContractionTree>(test::greedy_tree(f.ln.net, seed));
  f.stem = tn::extract_stem(*f.tree);
  return f;
}

// Fused output in the stepwise layout (its secondary axes lead), compared
// bit for bit: both paths contract the same operands in the same
// shared-axis order with the same K panels.
::testing::AssertionResult same_bits_as(const Tensor& fused, const Tensor& step) {
  if (test::bitwise_equal(permute(fused, step.ixs()), step))
    return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure() << "fused and stepwise tensors differ (rank "
                                       << step.rank() << ")";
}

TEST(TreeExecutor, ClosedNetworkYieldsScalar) {
  auto f = make_fixture(3, 3, 4);
  auto r = execute_tree(*f.tree, f.leaves(), {}, 0);
  EXPECT_EQ(r.rank(), 0);
  EXPECT_TRUE(std::isfinite(r.data()[0].real()));
}

TEST(TreeExecutor, StatsPopulated) {
  auto f = make_fixture(3, 3, 4);
  ExecStats st;
  execute_tree(*f.tree, f.leaves(), {}, 0, nullptr, &st);
  EXPECT_GT(st.flops, 0.0);
  EXPECT_GT(st.bytes_main, 0.0);
  EXPECT_GT(st.peak_live_elems, 0u);
}

TEST(TreeExecutor, SlicedSubtasksSumToUnsliced) {
  auto f = make_fixture(3, 3, 6);
  auto full = execute_tree(*f.tree, f.leaves(), {}, 0);

  core::GreedySlicerOptions go;
  go.target_log2size = std::max(2.0, f.tree->max_log2size() - 2);
  auto S = core::greedy_slice(*f.tree, go);
  ASSERT_GT(S.size(), 0);

  auto rr = run_sliced(*f.tree, f.leaves(), S);
  EXPECT_EQ(rr.tasks_run, uint64_t(1) << S.size());
  EXPECT_NEAR(std::abs(std::complex<double>(rr.accumulated.data()[0]) -
                       std::complex<double>(full.data()[0])),
              0.0, 1e-3 * std::max(1.0, double(std::abs(full.data()[0]))));
}

TEST(TreeExecutor, EachSubtaskIndependentOfOrder) {
  auto f = make_fixture(3, 3, 5);
  core::SliceSet S(f.ln.net);
  // Slice two stem edges.
  auto lt = core::StemLifetimes::build(f.stem);
  int added = 0;
  for (int e : f.ln.net.alive_edges()) {
    if (lt.of(e).alive() && lt.of(e).length() >= 2) {
      S.add(e);
      if (++added == 2) break;
    }
  }
  ASSERT_EQ(added, 2);
  auto sliced = S.to_vector();
  // Sum in forward and reverse order agree.
  std::complex<double> fwd{0, 0}, rev{0, 0};
  for (uint64_t t = 0; t < 4; ++t)
    fwd += std::complex<double>(execute_tree(*f.tree, f.leaves(), sliced, t).data()[0]);
  for (uint64_t t = 4; t-- > 0;)
    rev += std::complex<double>(execute_tree(*f.tree, f.leaves(), sliced, t).data()[0]);
  EXPECT_NEAR(std::abs(fwd - rev), 0.0, 1e-5);
}

TEST(SliceRunner, SubsetOfTasksRunsRequestedCount) {
  auto f = make_fixture(3, 3, 6);
  core::GreedySlicerOptions go;
  go.target_log2size = std::max(2.0, f.tree->max_log2size() - 2);
  auto S = core::greedy_slice(*f.tree, go);
  SliceRunOptions opt;
  opt.first_task = 1;
  opt.num_tasks = 2;
  auto rr = run_sliced(*f.tree, f.leaves(), S, opt);
  EXPECT_EQ(rr.tasks_run, 2u);
  EXPECT_GT(rr.stats.flops, 0.0);
}

TEST(FusedPlan, CoversEveryStemStepExactlyOnce) {
  auto f = make_fixture(4, 4, 8);
  auto plan = plan_fused(f.stem, {}, 1 << 13);
  int expect_begin = 0;
  for (const auto& w : plan.windows) {
    EXPECT_EQ(w.begin_step, expect_begin);
    EXPECT_GT(w.end_step, w.begin_step);
    expect_begin = w.end_step;
  }
  EXPECT_EQ(expect_begin, f.stem.length() - 1);
}

TEST(FusedPlan, RespectsLdmCapacityAtPlanTime) {
  auto f = make_fixture(4, 4, 8);
  const size_t cap = 1 << 10;
  auto plan = plan_fused(f.stem, {}, cap);
  for (const auto& w : plan.windows)
    if (w.in_ldm) EXPECT_LE(w.program.peak_elems, cap);
}

TEST(FusedPlan, BiggerLdmFusesLongerWindows) {
  auto f = make_fixture(4, 4, 8);
  auto small = plan_fused(f.stem, {}, 1 << 8);
  auto big = plan_fused(f.stem, {}, 1 << 16);
  EXPECT_LE(big.windows.size(), small.windows.size());
  EXPECT_GE(big.average_fused_length(), small.average_fused_length());
}

TEST(FusedExecutor, MatchesStepwiseUnsliced) {
  auto f = make_fixture(3, 4, 6);
  auto plan = plan_fused(f.stem, {}, 1 << 12);
  FusedStats fs, ss;
  auto fused = execute_fused(plan, f.leaves(), 0, nullptr, &fs);
  auto step = execute_stem_stepwise(f.stem, f.leaves(), {}, 0, nullptr, &ss);
  EXPECT_TRUE(same_bits_as(fused, step));
  EXPECT_GT(fs.ldm_subtasks, 0u);
}

TEST(FusedExecutor, MatchesStepwiseUnderProcessSlicing) {
  auto f = make_fixture(3, 4, 8);
  core::SliceFinderOptions fo;
  fo.target_log2size = std::max(2.0, f.tree->max_log2size() - 2);
  auto S = core::lifetime_slice_finder(f.stem, fo);
  auto sliced = S.to_vector();
  ASSERT_GT(sliced.size(), 0u);
  auto plan = plan_fused(f.stem, sliced, 1 << 12);
  for (uint64_t task : {uint64_t(0), (uint64_t(1) << sliced.size()) - 1}) {
    auto fused = execute_fused(plan, f.leaves(), task);
    auto step = execute_stem_stepwise(f.stem, f.leaves(), sliced, task);
    EXPECT_TRUE(same_bits_as(fused, step)) << "task " << task;
  }
}

TEST(FusedExecutor, ParallelMatchesSerial) {
  auto f = make_fixture(3, 4, 6);
  auto plan = plan_fused(f.stem, {}, 1 << 10);
  ThreadPool pool(4);
  auto serial = execute_fused(plan, f.leaves(), 0, nullptr);
  auto parallel = execute_fused(plan, f.leaves(), 0, &pool);
  EXPECT_TRUE(test::bitwise_equal(serial, parallel));
}

TEST(FusedExecutor, RespectsLdmAtRuntime) {
  auto f = make_fixture(4, 4, 8);
  const size_t cap = 1 << 11;
  auto plan = plan_fused(f.stem, {}, cap);
  FusedStats fs;
  execute_fused(plan, f.leaves(), 0, nullptr, &fs);
  // The reported peak is the executed programs' own live w + branch + result.
  size_t want = 0;
  for (const auto& w : plan.windows)
    if (w.in_ldm) want = std::max(want, w.program.peak_elems);
  EXPECT_GT(fs.ldm_peak_elems, 0u);
  EXPECT_EQ(fs.ldm_peak_elems, want);
  EXPECT_LE(fs.ldm_peak_elems, cap);
}

TEST(FusedExecutor, ReducesDmaTrafficVsStepwise) {
  // The whole point of secondary slicing: less main-memory traffic.
  auto f = make_fixture(4, 4, 10);
  auto plan = plan_fused(f.stem, {}, 1 << 13);
  if (plan.average_fused_length() < 1.5) GTEST_SKIP() << "stem too small to fuse";
  FusedStats fused, step;
  execute_fused(plan, f.leaves(), 0, nullptr, &fused);
  execute_stem_stepwise(f.stem, f.leaves(), {}, 0, nullptr, &step);
  EXPECT_LT(fused.dma.total_bytes(), step.dma.total_bytes());
}

TEST(FusedExecutor, CooperativeDmaRestoresGranularity) {
  auto f = make_fixture(4, 4, 10);
  auto coop = plan_fused(f.stem, {}, 1 << 12, /*cooperative_dma=*/true);
  auto raw = plan_fused(f.stem, {}, 1 << 12, /*cooperative_dma=*/false);
  FusedStats a, b;
  execute_fused(coop, f.leaves(), 0, nullptr, &a);
  execute_fused(raw, f.leaves(), 0, nullptr, &b);
  EXPECT_GE(a.dma.min_granularity, std::min(512.0, b.dma.min_granularity));
  if (b.dma.min_granularity < 512.0) EXPECT_GT(a.dma.rma_bytes, 0.0);
}

TEST(SliceRunner, FusedModeMatchesStepMode) {
  auto f = make_fixture(3, 4, 8);
  core::SliceFinderOptions fo;
  fo.target_log2size = std::max(2.0, f.tree->max_log2size() - 2);
  auto S = core::lifetime_slice_finder(f.stem, fo);
  auto plan = plan_fused(f.stem, S.to_vector(), 1 << 12);

  SliceRunOptions fused_opt;
  fused_opt.fused = &plan;
  auto rf = run_sliced(*f.tree, f.leaves(), S, fused_opt);
  auto rs = run_sliced(*f.tree, f.leaves(), S);
  EXPECT_NEAR(std::abs(std::complex<double>(rf.accumulated.data()[0]) -
                       std::complex<double>(rs.accumulated.data()[0])),
              0.0, 1e-3 * std::max(1.0, double(std::abs(rs.accumulated.data()[0]))));
}

// The fused stem as plain exec::contract calls, derived from the live
// layouts only: per in-LDM window, every secondary assignment contracts its
// own slice of T through the window's branches into its output block
// (secondary axes leading); a fallback window contracts T directly.
Tensor contract_chain_reference(const FusedPlan& plan, const LeafProvider& leaves,
                                uint64_t assignment, device::DeviceBackend* backend) {
  const tn::Stem& stem = *plan.stem;
  const auto& tree = *stem.tree;
  std::vector<Tensor> br;
  for (int k = 0; k + 1 < stem.length(); ++k)
    br.push_back(execute_subtree(tree, stem.branches[size_t(k)], leaves, plan.process_sliced,
                                 assignment, nullptr, nullptr, backend));
  Tensor T = execute_subtree(tree, stem.nodes[0], leaves, plan.process_sliced, assignment,
                             nullptr, nullptr, backend);
  for (const auto& win : plan.windows) {
    if (!win.in_ldm) {
      T = contract(T, br[size_t(win.begin_step)], nullptr, nullptr, backend);
      continue;
    }
    std::vector<int> touched, secondary;
    for (int k = win.begin_step; k < win.end_step; ++k)
      touched.insert(touched.end(), br[size_t(k)].ixs().begin(), br[size_t(k)].ixs().end());
    for (int e : T.ixs())
      if (std::find(touched.begin(), touched.end(), e) == touched.end()) secondary.push_back(e);
    const size_t ns = secondary.size();
    Tensor out;
    for (uint64_t s = 0; s < (uint64_t(1) << ns); ++s) {
      Tensor w = T.fixed_all(secondary, s);  // bit i of s fixes secondary[i]
      for (int k = win.begin_step; k < win.end_step; ++k)
        w = contract(w, br[size_t(k)], nullptr, nullptr, backend);
      if (s == 0) {
        std::vector<int> ixs = secondary;
        ixs.insert(ixs.end(), w.ixs().begin(), w.ixs().end());
        out = Tensor(ixs);
      }
      uint64_t block = 0;  // secondary[0] is the slowest output axis
      for (size_t i = 0; i < ns; ++i) block |= ((s >> i) & 1) << (ns - 1 - i);
      std::copy(w.data().begin(), w.data().end(), out.data().begin() + size_t(block) * w.size());
    }
    T = std::move(out);
  }
  return T;
}

TEST(CompiledWindow, BitwiseMatchesContractChainOnRandomStems) {
  ThreadPool pool(3);
  int fallback = 0, s2_zero = 0, s2_positive = 0;
  struct Net {
    int rows, cols, cycles;
    uint64_t seed;
  };
  for (const Net& n : {Net{3, 3, 6, 5}, Net{3, 4, 8, 11}, Net{4, 4, 8, 23}}) {
    auto f = make_fixture(n.rows, n.cols, n.cycles, n.seed);
    core::SliceFinderOptions fo;
    fo.target_log2size = std::max(2.0, f.tree->max_log2size() - 2);
    const auto S = core::lifetime_slice_finder(f.stem, fo).to_vector();
    ASSERT_FALSE(S.empty());
    for (const std::vector<int>& sliced : {std::vector<int>{}, S}) {
      const uint64_t last = (uint64_t(1) << sliced.size()) - 1;
      for (size_t cap : {size_t(1) << 4, size_t(1) << 6, size_t(1) << 8, size_t(1) << 11}) {
        auto plan = plan_fused(f.stem, sliced, cap);
        for (const auto& w : plan.windows) {
          if (!w.in_ldm) ++fallback;
          else if (w.secondary.empty()) ++s2_zero;
          else ++s2_positive;
        }
        for (uint64_t a : {uint64_t(0), last / 2 + 1, last}) {
          if (a > last) continue;
          for (const char* suffix : {"", "+bf16"}) {
            auto ref = test::reference_backend(device::parse_backend_spec(suffix).precision);
            const Tensor want = contract_chain_reference(plan, f.leaves(), a, &ref);
            for (const auto& info : device::available_backends()) {
              auto backend = device::make_backend(info.name + suffix);
              for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
                const Tensor got = execute_fused(plan, f.leaves(), a, p, nullptr, backend.get());
                ASSERT_TRUE(test::bitwise_equal(want, got))
                    << info.name << suffix << " net seed " << n.seed << " |S|=" << sliced.size()
                    << " assignment " << a << " ldm " << cap << (p ? " pool" : " serial");
              }
            }
          }
        }
      }
    }
  }
  // The caps above must exercise every window kind.
  EXPECT_GT(fallback, 0);
  EXPECT_GT(s2_zero, 0);
  EXPECT_GT(s2_positive, 0);
}

TEST(CompiledWindow, LeafLayoutMismatchFailsLoudly) {
  auto f = make_fixture(3, 4, 6);
  auto plan = plan_fused(f.stem, {}, 1 << 12);
  // The stem's bottom tensor is a leaf: hand it over with its axes reversed
  // (same values, a layout the plan did not compile for).
  const auto& bottom = f.tree->node(f.stem.nodes[0]);
  ASSERT_TRUE(bottom.is_leaf());
  const Tensor& leaf = f.ln.tensors[size_t(bottom.leaf_vertex)];
  ASSERT_GE(leaf.rank(), 2);
  std::vector<int> reversed(leaf.ixs().rbegin(), leaf.ixs().rend());
  const Tensor swapped = permute(leaf, reversed);
  LeafProvider leaves = [&](tn::VertId v) -> const Tensor& {
    return v == bottom.leaf_vertex ? swapped : f.ln.tensors[size_t(v)];
  };
  EXPECT_THROW(execute_fused(plan, leaves, 0), std::runtime_error);
  EXPECT_NO_THROW(execute_fused(plan, f.leaves(), 0));
  // Schedulers catch it on the calling thread, before any worker starts.
  EXPECT_THROW(check_fused_leaves(plan, leaves), std::runtime_error);
  EXPECT_NO_THROW(check_fused_leaves(plan, f.leaves()));
  ThreadPool pool(2);
  SliceRunOptions opt;
  opt.fused = &plan;
  opt.pool = &pool;
  opt.executor = SliceExecutor::kStaticPool;
  EXPECT_THROW(run_sliced(*f.tree, leaves, core::SliceSet(f.ln.net), opt),
               std::runtime_error);
}

class FusedLdmSweep : public ::testing::TestWithParam<int> {};

TEST_P(FusedLdmSweep, CorrectAcrossLdmSizes) {
  auto f = make_fixture(3, 3, 6);
  auto plan = plan_fused(f.stem, {}, size_t(1) << GetParam());
  auto fused = execute_fused(plan, f.leaves(), 0);
  auto step = execute_stem_stepwise(f.stem, f.leaves(), {}, 0);
  EXPECT_TRUE(same_bits_as(fused, step));
}

INSTANTIATE_TEST_SUITE_P(LdmSizes, FusedLdmSweep, ::testing::Values(6, 8, 10, 12, 14, 16));

}  // namespace
}  // namespace ltns::exec

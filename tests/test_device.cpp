// Device-backend subsystem tests (src/device/). The load-bearing
// invariants:
//   1. the registry lists host and simd, builds both at the probed tier
//      (with or without a +fp32/+bf16 precision suffix), and fails unknown
//      names — removed ones included — with a message naming the known
//      backends;
//   2. every registry backend is BITWISE identical to the portable scalar
//      reference (test::reference_backend) for gemm, contract, stem windows
//      and whole sliced runs — across degenerate shapes, pool widths,
//      executors and worker counts — and every tier this CPU runs matches
//      it in one process (kernel-level fuzzing lives in test_kernels_parity);
//   3. transfer accounting: a vector tier reports its panel packing as
//      to-device traffic, the portable tier reports zero, and a stem window
//      downloads nothing;
//   4. DeviceStats rides ExecStats/ExecutorSnapshot through run_sliced.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "core/greedy_slicer.hpp"
#include "device/backend.hpp"
#include "device/cpu_probe.hpp"
#include "exec/simd_kernels.hpp"
#include "exec/fused_executor.hpp"
#include "exec/gemm.hpp"
#include "exec/slice_runner.hpp"
#include "exec/tree_executor.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"

namespace ltns::device {
namespace {

using exec::cfloat;

std::vector<cfloat> random_buf(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<cfloat> b(n);
  for (auto& v : b) v = cfloat(float(rng.next_normal()), float(rng.next_normal()));
  return b;
}

using test::bitwise_equal;

// --- registry -------------------------------------------------------------

TEST(DeviceRegistry, ListsHostAndSimd) {
  auto all = available_backends();
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0].name, "host");
  EXPECT_EQ(all[1].name, "simd");
  for (const auto& b : all) {
    EXPECT_GE(b.caps.alignment, alignof(cfloat));
    EXPECT_FALSE(b.caps.description.empty());
    // Lanes/isa come from the runtime dispatch probe, not hard-coded
    // guesses: both backends report the same active tier.
    EXPECT_EQ(b.caps.simd_lanes, probe_simd_lanes()) << b.name;
    EXPECT_EQ(b.caps.isa, exec::isa_name(cpu_probe().active)) << b.name;
  }
}

TEST(DeviceRegistry, ConstructsByNameAndEmptyMeansHost) {
  EXPECT_STREQ(make_backend("host")->name(), "host");
  EXPECT_STREQ(make_backend("simd")->name(), "simd");
  EXPECT_STREQ(make_backend("")->name(), "host");
  // One kernel path: every name, and the null-backend instance, runs the
  // probed tier.
  for (const char* name : {"host", "simd", "simd+bf16"})
    EXPECT_EQ(make_backend(name)->tier(), cpu_probe().active) << name;
  EXPECT_EQ(host_backend().tier(), cpu_probe().active);
}

TEST(DeviceRegistry, PrecisionSpecsParseAndDefaultToFp32) {
  EXPECT_EQ(make_backend("host")->precision(), exec::Precision::kFp32);
  EXPECT_EQ(make_backend("simd+fp32")->precision(), exec::Precision::kFp32);
  EXPECT_EQ(make_backend("simd+bf16")->precision(), exec::Precision::kBf16);
  EXPECT_EQ(make_backend("host+bf16")->precision(), exec::Precision::kBf16);
  EXPECT_THROW(make_backend("host+fp64"), std::invalid_argument);
  const auto spec = parse_backend_spec("simd+bf16");
  EXPECT_EQ(spec.name, "simd");
  EXPECT_EQ(spec.precision, exec::Precision::kBf16);
  EXPECT_EQ(spec.spec(), "simd+bf16");
  EXPECT_EQ(parse_backend_spec("simd").spec(), "simd");
}

TEST(DeviceRegistry, UnknownNameFailsListingKnownBackends) {
  // "blocked" and "cuda" were backends once; specs naming them now fail.
  for (const std::string name : {"tpu", "blocked", "cuda", "cuda+bf16"}) {
    try {
      make_backend(name);
      FAIL() << "expected std::invalid_argument for " << name;
    } catch (const std::invalid_argument& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("'" + parse_backend_spec(name).name + "'"), std::string::npos) << msg;
      EXPECT_NE(msg.find("known backends: host simd"), std::string::npos) << msg;
    }
  }
}

TEST(DeviceRegistry, HelpListsEveryBackendWithAlignment) {
  const std::string help = backend_help();
  EXPECT_NE(help.find("host"), std::string::npos);
  EXPECT_NE(help.find("simd"), std::string::npos);
  EXPECT_NE(help.find("alignment=64"), std::string::npos);
}

// --- tensor alignment (the vector kernels' precondition) ------------------

TEST(DeviceAlignment, TensorStorageIs64ByteAligned) {
  static_assert(exec::kTensorAlignment == 64, "vector kernels assume 64-byte tensors");
  for (int rank : {0, 1, 3, 7, 12}) {
    std::vector<int> ixs;
    for (int i = 0; i < rank; ++i) ixs.push_back(i);
    auto t = exec::random_tensor(ixs, uint64_t(rank) + 1);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(t.raw()) % exec::kTensorAlignment, 0u)
        << "rank " << rank;
    // Copies and moves keep the guarantee (fresh aligned storage).
    exec::Tensor c = t;
    EXPECT_EQ(reinterpret_cast<uintptr_t>(c.raw()) % exec::kTensorAlignment, 0u);
  }
}

TEST(DeviceStatsMergeAndSince, FieldwiseArithmetic) {
  DeviceStats a, b;
  a.bytes_to_device = 100;
  a.gemm_calls = 3;
  a.stem_steps = 2;
  b.bytes_to_device = 40;
  b.gemm_calls = 1;
  b.permute_calls = 5;
  DeviceStats m = a;
  m.merge(b);
  EXPECT_EQ(m.bytes_to_device, 140.0);
  EXPECT_EQ(m.gemm_calls, 4u);
  EXPECT_EQ(m.permute_calls, 5u);
  auto d = m.since(b);
  EXPECT_EQ(d.bytes_to_device, a.bytes_to_device);
  EXPECT_EQ(d.gemm_calls, a.gemm_calls);
  EXPECT_EQ(d.stem_steps, a.stem_steps);
}

// --- kernel parity: every registry name == the portable reference --------

// Shapes chosen to hit every path: 4x4 tiles, ragged row/column edges, the
// narrow bandwidth-bound regime, multiple K panels (k > 256), and tiny
// degenerate sizes.
struct GemmShape {
  int m, n, k;
};
const GemmShape kShapes[] = {
    {4, 4, 4},     {8, 8, 8},      {16, 16, 16},  {5, 7, 3},    {1, 1, 1},
    {3, 3, 300},   {64, 64, 64},   {33, 65, 17},  {4096, 4, 4}, {4, 4096, 4},
    {128, 4, 520}, {17, 259, 300}, {100, 100, 1}, {2, 2, 1024}, {0, 4, 4},
    {4, 0, 4},     {4, 4, 0},
};

TEST(DeviceBackend, GemmBitwiseIdenticalToPortableSerial) {
  auto ref = test::reference_backend();
  uint64_t seed = 1;
  for (const auto& s : kShapes) {
    auto a = random_buf(size_t(s.m) * size_t(std::max(s.k, 1)), seed++);
    auto b = random_buf(size_t(std::max(s.k, 1)) * size_t(s.n), seed++);
    std::vector<cfloat> want(size_t(s.m) * s.n, cfloat{7, 7});
    DeviceStats st0;
    ref.gemm(s.m, s.n, s.k, a.data(), b.data(), want.data(), nullptr, &st0);
    EXPECT_EQ(st0.gemm_calls, 1u);
    for (const char* name : {"host", "simd"}) {
      std::vector<cfloat> got(size_t(s.m) * s.n, cfloat{9, 9});
      DeviceStats st;
      make_backend(name)->gemm(s.m, s.n, s.k, a.data(), b.data(), got.data(), nullptr, &st);
      // An m=0 or n=0 output is empty, and memcmp must not see its null data().
      EXPECT_TRUE(want.empty() ||
                  std::memcmp(want.data(), got.data(), want.size() * sizeof(cfloat)) == 0)
          << name << " m=" << s.m << " n=" << s.n << " k=" << s.k;
      EXPECT_EQ(st.gemm_calls, 1u);
    }
  }
}

TEST(DeviceBackend, GemmBitwiseIdenticalToPortableAcrossPoolWidths) {
  auto ref = test::reference_backend();
  const int m = 120, n = 70, k = 300;  // big enough to cross the parallel threshold
  auto a = random_buf(size_t(m) * k, 100);
  auto b = random_buf(size_t(k) * n, 101);
  std::vector<cfloat> want(size_t(m) * n);
  ref.gemm(m, n, k, a.data(), b.data(), want.data(), nullptr, nullptr);
  for (int workers : {1, 2, 3, 5}) {
    ThreadPool pool(workers);
    for (const char* name : {"host", "simd"}) {
      std::vector<cfloat> got(size_t(m) * n);
      make_backend(name)->gemm(m, n, k, a.data(), b.data(), got.data(), &pool, nullptr);
      EXPECT_EQ(std::memcmp(want.data(), got.data(), want.size() * sizeof(cfloat)), 0)
          << name << " workers=" << workers;
    }
  }
}

TEST(DeviceBackend, NarrowGemmPackingCountsToDeviceTraffic) {
  // 64x4x32: n = 4 fills no avx2/avx512 lane, so the row-lane kernel packs
  // the ragged B columns and A transposed, re and im planes of floats. NEON
  // (4 lanes) packs the same planes for its one full column block; the
  // portable tier packs nothing. Both names run the probed tier.
  const int m = 64, n = 4, k = 32;
  auto a = random_buf(size_t(m) * k, 17);
  auto b = random_buf(size_t(k) * n, 18);
  std::vector<cfloat> c(size_t(m) * n);
  const bool vector_tier = cpu_probe().active != exec::IsaTier::kPortable;
  const double planes = 2.0 * (double(k) * n + double(m) * k) * sizeof(float);
  for (const char* name : {"host", "simd"}) {
    DeviceStats st;
    make_backend(name)->gemm(m, n, k, a.data(), b.data(), c.data(), nullptr, &st);
    EXPECT_EQ(st.bytes_to_device, vector_tier ? planes : 0.0) << name;
    EXPECT_EQ(st.uploads, vector_tier ? 1u : 0u) << name;
  }
  DeviceStats st0;
  test::reference_backend().gemm(m, n, k, a.data(), b.data(), c.data(), nullptr, &st0);
  EXPECT_EQ(st0.bytes_to_device, 0.0);
  EXPECT_EQ(st0.uploads, 0u);
  // Kernel level, every compiled vector tier: two K panels (256 + 44) are
  // two timed packs, not one per 16- or 8-row block.
  const int k2 = 300;
  auto a2 = random_buf(size_t(m) * k2, 19);
  auto b2 = random_buf(size_t(k2) * n, 20);
  for (exec::IsaTier tier : runnable_isa_tiers()) {
    if (tier == exec::IsaTier::kPortable) continue;
    exec::SimdPackStats ps;
    exec::cgemm_simd(tier, exec::Precision::kFp32, m, n, k2, a2.data(), b2.data(), c.data(),
                     nullptr, &ps);
    EXPECT_EQ(ps.bytes, 2.0 * (double(k2) * n + double(m) * k2) * sizeof(float))
        << exec::isa_name(tier);
    EXPECT_EQ(ps.packs, 2u) << exec::isa_name(tier);
  }
}

TEST(DeviceBackend, ContractMatchesPortablePathBitwise) {
  auto t1 = exec::random_tensor({0, 1, 2, 3, 4, 5, 6, 7}, 11);
  auto t2 = exec::random_tensor({4, 5, 6, 7, 8, 9}, 12);
  auto raw = test::reference_backend().contract(t1, t2, nullptr, nullptr, nullptr);
  for (const char* name : {"host", "simd"}) {
    auto b = make_backend(name);
    exec::ContractStats cs;
    DeviceStats ds;
    auto r = b->contract(t1, t2, nullptr, &cs, &ds);
    EXPECT_TRUE(bitwise_equal(raw, r)) << name;
    EXPECT_GT(cs.flops, 0.0);
    EXPECT_EQ(ds.gemm_calls, 1u);
  }
}

TEST(DeviceBackend, StemWindowBatchedMatchesStepLoopBitwise) {
  // A stem-shaped chain: working tensor absorbs three rank-4 branches.
  auto w0 = exec::random_tensor({0, 1, 2, 3, 4, 5, 6, 7}, 21);
  std::vector<exec::Tensor> branches;
  branches.push_back(exec::random_tensor({0, 1, 100, 101}, 22));
  branches.push_back(exec::random_tensor({100, 2, 102, 103}, 23));
  branches.push_back(exec::random_tensor({101, 103, 104, 105}, 24));

  auto ref = test::reference_backend();
  exec::Tensor expect = w0;
  exec::ContractStats want;
  size_t live_peak = 0;  // largest live w + branch + result of the step loop
  std::vector<std::vector<int>> branch_ixs;
  for (const auto& b : branches) {
    exec::Tensor next = ref.contract(expect, b, nullptr, &want, nullptr);
    live_peak = std::max(live_peak, expect.size() + b.size() + next.size());
    expect = std::move(next);
    branch_ixs.push_back(b.ixs());
  }
  EXPECT_EQ(exec::compile_stem_program(w0.ixs(), branch_ixs).peak_elems, live_peak);

  for (const char* name : {"host", "simd"}) {
    auto backend = make_backend(name);
    exec::ContractStats cs;
    DeviceStats ds;
    auto got = test::run_compiled_chain(*backend, w0, branches, &cs, &ds);
    EXPECT_TRUE(bitwise_equal(expect, got)) << name;
    EXPECT_EQ(ds.stem_steps, branches.size()) << name;
    EXPECT_EQ(cs.flops, want.flops) << name;
    EXPECT_EQ(ds.downloads, 0u) << name;  // kernels read host tensors in place
  }
}

// --- whole sliced runs: every executor, backend and tier, bitwise ---------

struct Fixture {
  circuit::LoweredNetwork ln;
  std::shared_ptr<tn::ContractionTree> tree;
  core::SliceSet slices;

  exec::LeafProvider leaves() const {
    return [this](tn::VertId v) -> const exec::Tensor& { return ln.tensors[size_t(v)]; };
  }
};

Fixture make_fixture(int rows = 3, int cols = 4, int cycles = 6) {
  Fixture f{test::small_network(rows, cols, cycles), nullptr, core::SliceSet{}};
  f.tree = std::make_shared<tn::ContractionTree>(test::greedy_tree(f.ln.net));
  core::GreedySlicerOptions go;
  go.target_log2size = std::max(2.0, f.tree->max_log2size() - 3.0);
  f.slices = core::greedy_slice(*f.tree, go);
  return f;
}

TEST(RunSlicedBackends, BitwiseIdenticalAcrossBackendsExecutorsAndWorkers) {
  auto f = make_fixture();
  ASSERT_GE(f.slices.size(), 2);

  auto portable = test::reference_backend();
  exec::SliceRunOptions base;
  base.executor = exec::SliceExecutor::kInnerPool;
  ThreadPool pool1(1);
  base.pool = &pool1;
  base.backend = &portable;
  auto ref = exec::run_sliced(*f.tree, f.leaves(), f.slices, base);
  ASSERT_TRUE(ref.completed);

  for (const char* name : {"host", "simd"}) {
    auto backend = make_backend(name);
    for (auto ex : {exec::SliceExecutor::kInnerPool, exec::SliceExecutor::kStaticPool,
                    exec::SliceExecutor::kWorkStealing}) {
      for (int workers : {1, 3}) {
        ThreadPool pool(workers);
        runtime::SliceScheduler sched(workers);
        exec::SliceRunOptions ro;
        ro.executor = ex;
        ro.pool = &pool;
        ro.scheduler = &sched;
        ro.backend = backend.get();
        auto r = exec::run_sliced(*f.tree, f.leaves(), f.slices, ro);
        ASSERT_TRUE(r.completed);
        EXPECT_TRUE(bitwise_equal(ref.accumulated, r.accumulated))
            << name << " executor=" << int(ex) << " workers=" << workers;
        // DeviceStats rides the run's ExecStats and its ExecutorSnapshot.
        EXPECT_GT(r.stats.device.gemm_calls, 0u);
        EXPECT_EQ(r.executor_stats.device.gemm_calls, r.stats.device.gemm_calls);
      }
    }
  }
}

TEST(RunSlicedBackends, FusedPathBitwiseIdenticalAcrossBackends) {
  auto f = make_fixture();
  auto stem = tn::extract_stem(*f.tree);
  auto plan = exec::plan_fused(stem, f.slices.to_vector(), 1 << 12);

  auto portable = test::reference_backend();
  ThreadPool pool1(1);
  exec::SliceRunOptions base;
  base.executor = exec::SliceExecutor::kInnerPool;
  base.pool = &pool1;
  base.fused = &plan;
  base.backend = &portable;
  auto ref = exec::run_sliced(*f.tree, f.leaves(), f.slices, base);
  ASSERT_TRUE(ref.completed);

  for (const char* name : {"host", "simd"}) {
    auto backend = make_backend(name);
    for (int workers : {1, 2}) {
      ThreadPool pool(workers);
      exec::SliceRunOptions ro;
      ro.executor = exec::SliceExecutor::kInnerPool;
      ro.pool = &pool;
      ro.fused = &plan;
      ro.backend = backend.get();
      auto r = exec::run_sliced(*f.tree, f.leaves(), f.slices, ro);
      ASSERT_TRUE(r.completed);
      EXPECT_TRUE(bitwise_equal(ref.accumulated, r.accumulated))
          << name << " workers=" << workers;
      EXPECT_GT(r.stats.device.stem_steps, 0u) << name;
    }
  }
}

TEST(RunSlicedTiers, EveryRunnableTierMatchesPortableInOneProcess) {
  // LTNS_FORCE_ISA picks one tier per process; this walks every tier the
  // CPU runs in one process, stepwise and fused: fp32 bitwise equal to the
  // portable reference, bf16 bitwise equal across tiers. The 4x4 grid's
  // GEMMs are tall enough (m >= 16) to reach the lane and row-lane kernels.
  auto f = make_fixture(4, 4, 8);
  auto stem = tn::extract_stem(*f.tree);
  auto plan = exec::plan_fused(stem, f.slices.to_vector(), 1 << 12);
  const auto tiers = runnable_isa_tiers();
  ASSERT_EQ(tiers.front(), exec::IsaTier::kPortable);
  const exec::FusedPlan* const runs[] = {nullptr, &plan};  // stepwise, fused
  for (const exec::FusedPlan* fused : runs) {
    exec::Tensor fp32_ref;
    for (auto prec : {exec::Precision::kFp32, exec::Precision::kBf16}) {
      exec::Tensor want;
      for (exec::IsaTier tier : tiers) {
        DeviceBackend backend("simd", prec, tier);
        ThreadPool pool(2);
        exec::SliceRunOptions ro;
        ro.executor = exec::SliceExecutor::kInnerPool;
        ro.pool = &pool;
        ro.fused = fused;
        ro.backend = &backend;
        auto r = exec::run_sliced(*f.tree, f.leaves(), f.slices, ro);
        ASSERT_TRUE(r.completed);
        if (tier == exec::IsaTier::kPortable) {
          want = r.accumulated;
          continue;
        }
        EXPECT_TRUE(bitwise_equal(want, r.accumulated))
            << exec::isa_name(tier) << " " << exec::precision_name(prec)
            << (fused ? " fused" : " stepwise");
      }
      if (prec == exec::Precision::kFp32)
        fp32_ref = want;
      else  // the mixed mode engaged
        EXPECT_FALSE(bitwise_equal(fp32_ref, want)) << (fused ? "fused" : "stepwise");
    }
  }
}

}  // namespace
}  // namespace ltns::device

// Instrumentation plumbing: ExecStats/DmaStats merging, arithmetic
// intensity accounting, and the counters the Fig. 12/13 benches rely on.
#include <gtest/gtest.h>

#include "exec/fused_executor.hpp"
#include "exec/slice_runner.hpp"
#include "exec/tree_executor.hpp"
#include "runtime/executor_stats.hpp"
#include "test_helpers.hpp"

namespace ltns::exec {
namespace {

TEST(ExecStats, MergeAccumulates) {
  ExecStats a, b;
  a.flops = 10;
  a.bytes_main = 100;
  a.peak_live_elems = 5;
  b.flops = 3;
  b.bytes_main = 7;
  b.peak_live_elems = 9;
  a.merge(b);
  EXPECT_DOUBLE_EQ(a.flops, 13);
  EXPECT_DOUBLE_EQ(a.bytes_main, 107);
  EXPECT_EQ(a.peak_live_elems, 9u);  // high-water mark, not a sum
}

TEST(ExecStats, ArithmeticIntensity) {
  ExecStats s;
  s.flops = 100;
  s.bytes_main = 25;
  EXPECT_DOUBLE_EQ(s.arithmetic_intensity(), 4.0);
  ExecStats zero;
  EXPECT_DOUBLE_EQ(zero.arithmetic_intensity(), 0.0);
}

TEST(DmaStats, RecordAndMerge) {
  DmaStats a;
  a.record_get(1024, 512);
  a.record_put(2048, 1024);
  EXPECT_DOUBLE_EQ(a.total_bytes(), 3072);
  EXPECT_DOUBLE_EQ(a.transfers_get, 2);
  EXPECT_DOUBLE_EQ(a.transfers_put, 2);
  EXPECT_DOUBLE_EQ(a.min_granularity, 512);
  // Bandwidth-weighted effective granularity: (1024*512 + 2048*1024)/3072.
  EXPECT_NEAR(a.effective_granularity(), (1024.0 * 512 + 2048.0 * 1024) / 3072.0, 1e-9);

  DmaStats b;
  b.record_get(512, 64);
  b.rma_bytes = 100;
  a.merge(b);
  EXPECT_DOUBLE_EQ(a.total_bytes(), 3584);
  EXPECT_DOUBLE_EQ(a.min_granularity, 64);
  EXPECT_DOUBLE_EQ(a.rma_bytes, 100);
}

TEST(Instrumentation, FlopsMatchTreeCostModel) {
  // Counted GEMM flops of an unsliced execution must equal 8 * 2^Eq.1-cost
  // (each contraction is one M x K x N GEMM with 8 flops per MAC).
  auto ln = test::small_network(3, 3, 5);
  auto tree = test::greedy_tree(ln.net);
  auto leaves = [&](tn::VertId v) -> const Tensor& { return ln.tensors[size_t(v)]; };
  ExecStats st;
  execute_tree(tree, leaves, {}, 0, nullptr, &st);
  EXPECT_NEAR(st.flops, 8.0 * std::exp2(tree.total_log2cost()), 1e-3 * st.flops);
}

TEST(Instrumentation, SlicedFlopsMatchEq4) {
  // Summed over all subtasks, counted flops must equal 8 * 2^Eq.4-total.
  auto ln = test::small_network(3, 3, 6);
  auto tree = test::greedy_tree(ln.net);
  core::SliceSet S(ln.net);
  auto stem = tn::extract_stem(tree);
  auto lt = core::StemLifetimes::build(stem);
  for (int e : ln.net.alive_edges()) {
    if (lt.of(e).alive() && lt.of(e).length() >= 2) {
      S.add(e);
      if (S.size() == 2) break;
    }
  }
  ASSERT_EQ(S.size(), 2);
  auto leaves = [&](tn::VertId v) -> const Tensor& { return ln.tensors[size_t(v)]; };
  auto rr = run_sliced(tree, leaves, S);
  auto m = core::evaluate_slicing(tree, S);
  EXPECT_NEAR(rr.stats.flops, 8.0 * std::exp2(m.log2_total_cost), 1e-3 * rr.stats.flops);
}

TEST(Instrumentation, PeakLiveElemsBoundsBiggestIntermediate) {
  auto ln = test::small_network(3, 4, 6);
  auto tree = test::greedy_tree(ln.net);
  auto leaves = [&](tn::VertId v) -> const Tensor& { return ln.tensors[size_t(v)]; };
  ExecStats st;
  execute_tree(tree, leaves, {}, 0, nullptr, &st);
  EXPECT_GE(double(st.peak_live_elems), std::exp2(tree.max_log2size()));
}

// --- ExecutorSnapshot / DeviceStats aggregation edge cases -----------------

runtime::ExecutorSnapshot sample_snapshot(uint64_t scale) {
  runtime::ExecutorSnapshot s;
  s.scheduled = 10 * scale;
  s.stolen = 2 * scale;
  s.finished = 8 * scale;
  s.cancelled = scale;
  s.running = int(scale);
  s.waiting = int(2 * scale);
  s.ema_utilization = 0.5;
  s.ranges_stolen = 3 * scale;
  s.ranges_reissued = scale;
  s.straggler_wait_seconds = 0.25 * double(scale);
  s.device.bytes_to_device = 1000.0 * double(scale);
  s.device.bytes_to_host = 100.0 * double(scale);
  s.device.ns_to_device = 5000.0 * double(scale);
  s.device.uploads = 4 * scale;
  s.device.gemm_calls = 6 * scale;
  s.permute = {3 * scale, 0.1 * double(scale)};
  s.gemm = {4 * scale, 0.2 * double(scale)};
  s.reduce = {2 * scale, 0.05 * double(scale)};
  s.memory = {scale, 0.01 * double(scale)};
  return s;
}

TEST(ExecutorSnapshot, SinceOfSelfIsZeroDelta) {
  auto s = sample_snapshot(3);
  auto d = s.since(s);
  EXPECT_EQ(d.scheduled, 0u);
  EXPECT_EQ(d.stolen, 0u);
  EXPECT_EQ(d.finished, 0u);
  EXPECT_EQ(d.cancelled, 0u);
  EXPECT_EQ(d.ranges_stolen, 0u);
  EXPECT_EQ(d.ranges_reissued, 0u);
  EXPECT_DOUBLE_EQ(d.straggler_wait_seconds, 0.0);
  EXPECT_DOUBLE_EQ(d.device.bytes_to_device, 0.0);
  EXPECT_EQ(d.device.gemm_calls, 0u);
  EXPECT_EQ(d.gemm.count, 0u);
  EXPECT_DOUBLE_EQ(d.gemm.seconds, 0.0);
  // Gauges keep their end-of-run value rather than subtracting.
  EXPECT_EQ(d.running, s.running);
  EXPECT_EQ(d.waiting, s.waiting);
  EXPECT_DOUBLE_EQ(d.ema_utilization, s.ema_utilization);
}

TEST(ExecutorSnapshot, SinceEmptyBaselineIsIdentity) {
  // Diffing against a default-constructed (empty) begin snapshot must
  // reproduce the end snapshot exactly — no counter may wrap.
  auto s = sample_snapshot(5);
  runtime::ExecutorSnapshot empty;
  auto d = s.since(empty);
  EXPECT_EQ(d.scheduled, s.scheduled);
  EXPECT_EQ(d.finished, s.finished);
  EXPECT_EQ(d.device.uploads, s.device.uploads);
  EXPECT_DOUBLE_EQ(d.permute.seconds, s.permute.seconds);
  EXPECT_EQ(d.reduce.count, s.reduce.count);
}

TEST(ExecutorSnapshot, SinceIsWraparoundFreeOnMonotoneCounters) {
  // begin <= end componentwise (counters are cumulative): every delta
  // stays small and non-wrapped even near a large baseline.
  auto begin = sample_snapshot(1000000);
  auto end = begin;
  end.scheduled += 7;
  end.finished += 5;
  end.device.gemm_calls += 11;
  end.gemm.count += 5;
  end.gemm.seconds += 0.5;
  auto d = end.since(begin);
  EXPECT_EQ(d.scheduled, 7u);
  EXPECT_EQ(d.finished, 5u);
  EXPECT_EQ(d.device.gemm_calls, 11u);
  EXPECT_EQ(d.gemm.count, 5u);
  EXPECT_NEAR(d.gemm.seconds, 0.5, 1e-9);
  EXPECT_LT(d.scheduled, uint64_t(1) << 32);  // would be huge if wrapped
}

TEST(ExecutorSnapshot, MergeEmptyIsIdentityBothWays) {
  auto s = sample_snapshot(2);
  runtime::ExecutorSnapshot empty;

  auto a = s;
  a.merge(empty);  // x + 0 = x, including the finished-weighted EMA
  EXPECT_EQ(a.scheduled, s.scheduled);
  EXPECT_EQ(a.finished, s.finished);
  EXPECT_DOUBLE_EQ(a.ema_utilization, s.ema_utilization);
  EXPECT_DOUBLE_EQ(a.device.bytes_to_device, s.device.bytes_to_device);
  EXPECT_EQ(a.gemm.count, s.gemm.count);

  runtime::ExecutorSnapshot b;
  b.merge(s);  // 0 + x = x
  EXPECT_EQ(b.scheduled, s.scheduled);
  EXPECT_DOUBLE_EQ(b.ema_utilization, s.ema_utilization);
  EXPECT_EQ(b.reduce.count, s.reduce.count);
}

TEST(ExecutorSnapshot, MergeOfTwoEmptiesStaysEmpty) {
  // finished == 0 on both sides must not divide by zero or invent an EMA.
  runtime::ExecutorSnapshot a, b;
  a.merge(b);
  EXPECT_EQ(a.scheduled, 0u);
  EXPECT_DOUBLE_EQ(a.ema_utilization, 0.0);
  EXPECT_DOUBLE_EQ(a.straggler_wait_seconds, 0.0);
}

TEST(ExecutorSnapshot, MergeIsCommutativeOnCountersAndEma) {
  auto x = sample_snapshot(2);
  x.ema_utilization = 0.9;
  auto y = sample_snapshot(7);
  y.ema_utilization = 0.3;

  auto xy = x;
  xy.merge(y);
  auto yx = y;
  yx.merge(x);
  EXPECT_EQ(xy.scheduled, yx.scheduled);
  EXPECT_EQ(xy.stolen, yx.stolen);
  EXPECT_EQ(xy.finished, yx.finished);
  EXPECT_EQ(xy.ranges_stolen, yx.ranges_stolen);
  EXPECT_EQ(xy.device.uploads, yx.device.uploads);
  EXPECT_DOUBLE_EQ(xy.device.bytes_to_host, yx.device.bytes_to_host);
  EXPECT_EQ(xy.permute.count, yx.permute.count);
  EXPECT_DOUBLE_EQ(xy.permute.seconds, yx.permute.seconds);
  // The EMA is a finished-task-weighted average, so order cannot matter.
  EXPECT_NEAR(xy.ema_utilization, yx.ema_utilization, 1e-12);
  const double expect_ema = (0.9 * double(x.finished) + 0.3 * double(y.finished)) /
                            double(x.finished + y.finished);
  EXPECT_NEAR(xy.ema_utilization, expect_ema, 1e-12);
}

TEST(DeviceStats, SinceAndMergeEdgeCases) {
  device::DeviceStats a;
  a.bytes_to_device = 500;
  a.ns_to_device = 1000;
  a.uploads = 2;
  a.gemm_calls = 3;
  // since(self) == zero; since(empty) == identity.
  auto z = a.since(a);
  EXPECT_DOUBLE_EQ(z.bytes_to_device, 0.0);
  EXPECT_EQ(z.uploads, 0u);
  device::DeviceStats empty;
  auto id = a.since(empty);
  EXPECT_DOUBLE_EQ(id.bytes_to_device, a.bytes_to_device);
  EXPECT_EQ(id.gemm_calls, a.gemm_calls);
  // merge with empty is identity; merge is commutative.
  device::DeviceStats b;
  b.bytes_to_host = 70;
  b.downloads = 1;
  b.permute_calls = 4;
  auto ab = a;
  ab.merge(b);
  auto ba = b;
  ba.merge(a);
  EXPECT_DOUBLE_EQ(ab.total_transfer_bytes(), ba.total_transfer_bytes());
  EXPECT_EQ(ab.kernel_calls(), ba.kernel_calls());
  EXPECT_EQ(ab.kernel_calls(), 7u);
  auto ae = a;
  ae.merge(empty);
  EXPECT_DOUBLE_EQ(ae.bytes_to_device, a.bytes_to_device);
  EXPECT_EQ(ae.uploads, a.uploads);
}

TEST(PerfScope, BooksOnceAndClosesIdempotently) {
  runtime::PerfEvent ev;
  {
    runtime::PerfScope ps(&ev);
    ps.close();
    ps.close();  // second close must not double-book
  }
  EXPECT_EQ(ev.count(), 1u);
  {
    runtime::PerfScope ps(&ev);  // destructor closes
  }
  EXPECT_EQ(ev.count(), 2u);
  { runtime::PerfScope none(nullptr); }  // null event: no-op guard
  EXPECT_EQ(ev.count(), 2u);
}

TEST(Instrumentation, FusedCountsAllWindows) {
  auto ln = test::small_network(3, 4, 8);
  auto tree = test::greedy_tree(ln.net);
  auto stem = tn::extract_stem(tree);
  auto plan = exec::plan_fused(stem, {}, 32768);
  auto leaves = [&](tn::VertId v) -> const Tensor& { return ln.tensors[size_t(v)]; };
  FusedStats st;
  execute_fused(plan, leaves, 0, nullptr, &st);
  uint64_t expected = 0;
  for (const auto& w : plan.windows)
    if (w.in_ldm) expected += uint64_t(1) << w.secondary.size();
  EXPECT_EQ(st.ldm_subtasks, expected);
  EXPECT_GT(st.dma.bytes_get, 0.0);
  EXPECT_GT(st.dma.bytes_put, 0.0);
}

}  // namespace
}  // namespace ltns::exec

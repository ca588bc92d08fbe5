#include "exec/slice_runner.hpp"

#include <algorithm>
#include <cassert>
#include <vector>

#include "obs/trace.hpp"
#include "runtime/reduction.hpp"
#include "util/timer.hpp"

namespace ltns::exec {

namespace {

// Per-worker accumulation slot; padded so workers never share a cache line.
struct alignas(64) WorkerPartial {
  ExecStats exec;
  runtime::MemoryStats memory;
};

}  // namespace

SliceRunResult run_sliced(const tn::ContractionTree& tree, const LeafProvider& leaves,
                          const core::SliceSet& slices, const SliceRunOptions& opt) {
  auto sliced = slices.to_vector();
  assert(sliced.size() < 57);
  const uint64_t all = uint64_t(1) << sliced.size();
  // Clamp the shard window to [0, 2^|S|): an out-of-range first_task runs
  // nothing (completed, empty tensor) and an overflowing num_tasks runs the
  // remainder of the range — never tasks that don't exist. Multi-process
  // shard plans are computed from 2^|S|, but a hand-written window (CLI,
  // bench, a stale plan) must not silently schedule nonsense.
  const uint64_t first = std::min(opt.first_task, all);
  const uint64_t count = opt.num_tasks == 0 ? all - first : std::min(opt.num_tasks, all - first);
  // A layout mismatch would otherwise throw inside a worker thread.
  if (opt.fused != nullptr && count > 0) check_fused_leaves(*opt.fused, leaves);

  ThreadPool* pool = opt.pool != nullptr ? opt.pool : &ThreadPool::global();
  runtime::SliceScheduler* sched =
      opt.scheduler != nullptr ? opt.scheduler : &runtime::SliceScheduler::global();

  // Run-local telemetry sink for every executor; under work stealing the
  // scheduler routes its counters here, so concurrent runs sharing a
  // scheduler never mix their numbers.
  runtime::ExecutorStats xstats;

  const int n_workers = opt.executor == SliceExecutor::kWorkStealing ? sched->size()
                        : opt.executor == SliceExecutor::kStaticPool ? pool->size()
                                                                     : 1;
  std::vector<WorkerPartial> partial;
  partial.resize(size_t(n_workers));
  runtime::ReductionTree reduction(first, count, &xstats.reduce);

  // Inner-pool mode keeps the ThreadPool busy *inside* each subtask; the
  // task-distributing executors run each subtask single-threaded instead.
  ThreadPool* inner = opt.executor == SliceExecutor::kInnerPool ? pool : nullptr;

  auto run_task = [&](int worker, uint64_t t) {
    obs::TraceScope tr(obs::EventKind::kSlice, t);
    WorkerPartial& mine = partial[size_t(worker)];
    Tensor r;
    if (opt.fused != nullptr) {
      FusedStats fs;
      r = execute_fused(*opt.fused, leaves, t, inner, &fs, opt.backend);
      mine.exec.merge(fs.exec);
      mine.memory.scratch_bytes_get += fs.dma.bytes_get;
      mine.memory.scratch_bytes_put += fs.dma.bytes_put;
      mine.memory.rma_bytes += fs.dma.rma_bytes;
      mine.memory.ldm_subtasks += fs.ldm_subtasks;
      mine.memory.ldm_peak_elems = std::max(mine.memory.ldm_peak_elems, fs.ldm_peak_elems);
      mine.memory.main_bytes += fs.exec.bytes_main;
      mine.memory.host_peak_elems =
          std::max(mine.memory.host_peak_elems, fs.exec.peak_live_elems);
      xstats.permute.add(fs.exec.permute_seconds);
      xstats.gemm.add(fs.exec.gemm_seconds);
      xstats.memory.add(fs.exec.memory_seconds);
    } else {
      ExecStats es;
      r = execute_tree(tree, leaves, sliced, t, inner, &es, opt.backend);
      mine.exec.merge(es);
      mine.memory.main_bytes += es.bytes_main;
      mine.memory.host_peak_elems = std::max(mine.memory.host_peak_elems, es.peak_live_elems);
      xstats.permute.add(es.permute_seconds);
      xstats.gemm.add(es.gemm_seconds);
      xstats.memory.add(es.memory_seconds);
    }
    reduction.add(t, std::move(r));
  };

  SliceRunResult res;
  Timer wall;
  switch (opt.executor) {
    case SliceExecutor::kInnerPool: {
      xstats.scheduled_delta(count);
      for (uint64_t t = first; t < first + count; ++t) {
        run_task(0, t);
        xstats.finished_delta(1);
      }
      res.tasks_run = count;
      break;
    }
    case SliceExecutor::kStaticPool: {
      xstats.scheduled_delta(count);
      std::vector<double> busy_s(size_t(n_workers), 0.0);
      Timer span;
      pool->parallel_for(count, [&](int w, size_t b, size_t e) {
        Timer busy;
        for (size_t i = b; i < e; ++i) {
          run_task(w, first + i);
          xstats.finished_delta(1);
        }
        busy_s[size_t(w)] = busy.seconds();
      });
      // One utilization sample per worker: chunk busy time over the span of
      // the whole static phase (idle = waiting for the slowest chunk).
      const double span_s = span.seconds();
      for (double b : busy_s) xstats.update_ema_utilization(b, span_s);
      res.tasks_run = count;
      break;
    }
    case SliceExecutor::kWorkStealing: {
      res.tasks_run = sched->run(first, count, run_task, opt.grain, &xstats);
      break;
    }
  }
  res.wall_seconds = wall.seconds();
  if (opt.executor == SliceExecutor::kInnerPool)
    xstats.update_ema_utilization(res.wall_seconds, res.wall_seconds);

  for (const auto& p : partial) {
    res.stats.merge(p.exec);
    res.memory.merge(p.memory);
  }
  res.executor_stats = xstats.snapshot();
  // Device transfer/kernel telemetry rides the snapshot so every existing
  // aggregation path (shard telemetry, API results, CLI) carries it.
  res.executor_stats.device = res.stats.device;
  res.reduce_merges = reduction.merges();
  // A cancelled run never completes its tournament: `accumulated` then stays
  // the default empty tensor and `completed` stays false.
  res.completed = reduction.complete();
  if (res.completed) res.accumulated = reduction.take_root();
  return res;
}

}  // namespace ltns::exec

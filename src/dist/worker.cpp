#include "dist/worker.hpp"

#include "cache/cache.hpp"
#include "circuit/io.hpp"
#include "device/backend.hpp"
#include "dist/checkpoint.hpp"
#include "dist/shard_plan.hpp"
#include "obs/trace.hpp"
#include "util/timer.hpp"

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

#include <unistd.h>

namespace ltns::dist {

ChaosHooks chaos_from_env(int worker_id) {
  auto selects_me = [worker_id](const char* s) {
    return s != nullptr && (std::strcmp(s, "any") == 0 || std::atoi(s) == worker_id);
  };
  ChaosHooks h;
  if (selects_me(std::getenv("LTNS_CHAOS_KILL_SHARD"))) {
    h.kill_after_ranges = 1;
    if (const char* a = std::getenv("LTNS_CHAOS_KILL_AFTER_RANGES")) h.kill_after_ranges = std::atoi(a);
  }
  if (selects_me(std::getenv("LTNS_CHAOS_SLEEP_SHARD"))) {
    h.sleep_ms_per_task = 20;
    if (const char* m = std::getenv("LTNS_CHAOS_SLEEP_MS")) h.sleep_ms_per_task = std::atof(m);
  }
  return h;
}

namespace {

// Reduces one tournament-aligned block with run_sliced and folds the run's
// counters into `tel`. Every lease takes this one path, so a block partial
// is computed the exact same way whichever worker or transport runs it —
// the bitwise-identity guarantee rests on that.
exec::Tensor reduce_block(const AlignedBlock& block, const InheritedPlan& plan,
                          exec::SliceRunOptions ro, ShardTelemetry* tel) {
  ro.first_task = block.first();
  ro.num_tasks = block.count();
  ro.fused = plan.fused;
  auto r = exec::run_sliced(*plan.tree, plan.leaves, *plan.slices, ro);
  if (!r.completed) throw std::runtime_error("block run did not complete");
  tel->tasks_run += r.tasks_run;
  tel->reduce_merges += r.reduce_merges;
  tel->executor.merge(r.executor_stats);
  tel->memory.merge(r.memory);
  tel->exec.merge(r.stats);
  return std::move(r.accumulated);
}

// Everything a worker keeps per job id: the contraction it runs, a
// worker-local backend instance, and the cumulative telemetry it ships with
// every kRangeDone.
struct WorkerJobCtx {
  std::unique_ptr<Prepared> prepared;  // decoded jobs only
  exec::FusedPlan fused_plan;          // decoded fused jobs only
  InheritedPlan plan;                  // what the block loop runs
  std::unique_ptr<device::DeviceBackend> backend;
  std::string backend_name;
  exec::SliceExecutor executor = exec::SliceExecutor::kWorkStealing;
  uint64_t grain = 1;
  ShardTelemetry tel;
};

// Rebuilds the coordinator's plan from the kJob: lowers the circuit and
// decodes the plan blob over it (the planner never runs here). A blob
// that does not decode, or decodes to another |S| or fingerprint than the
// coordinator stamped, would run a different contraction than the one
// merged — it is an error.
void decode_job_plan(const Job& job, WorkerJobCtx* ctx) {
  std::vector<int> bits;
  bits.reserve(job.bits.size());
  for (char ch : job.bits) bits.push_back(ch == '1');
  ctx->prepared = lower_job(circuit::circuit_from_string(job.circuit_text), bits, job.open_qubits);
  core::Plan& plan = ctx->prepared->plan;
  if (!cache::decode_plan(job.plan, ctx->prepared->lowered.net, &plan))
    throw std::runtime_error("plan blob (" + std::to_string(job.plan.size()) +
                             " bytes) does not fit the lowered network");
  if (plan.num_slices() != int(job.num_slices))
    throw std::runtime_error("plan mismatch: decoded |S| = " + std::to_string(plan.num_slices()) +
                             ", coordinator expected " + std::to_string(job.num_slices));
  if (run_fingerprint(job.circuit_text, job.bits, open_text(job.open_qubits), job.fused != 0,
                      job.ldm_elems,
                      plan.path, plan.slices.to_vector()) != job.run_id)
    throw std::runtime_error("plan blob does not match the run fingerprint " + job.run_id);
  ctx->plan.tree = plan.tree.get();
  ctx->plan.leaves = [&ln = ctx->prepared->lowered](tn::VertId v) -> const exec::Tensor& {
    return ln.tensors[size_t(v)];
  };
  ctx->plan.slices = &plan.slices;
  if (job.fused != 0) {
    ctx->fused_plan = exec::plan_fused(plan.stem, plan.slices.to_vector(), size_t(job.ldm_elems));
    ctx->plan.fused = &ctx->fused_plan;
  }
}

std::unique_ptr<WorkerJobCtx> plan_job(const Job& job, int worker_id,
                                       const std::string& backend_override,
                                       const InheritedPlan* inherited) {
  auto ctx = std::make_unique<WorkerJobCtx>();
  if (inherited != nullptr) {
    ctx->plan = *inherited;
  } else {
    obs::TraceScope tr(obs::EventKind::kPlan, job.job_id, uint64_t(job.num_slices), 1);
    try {
      decode_job_plan(job, ctx.get());
    } catch (const std::exception& e) {
      throw std::runtime_error("job " + std::to_string(job.job_id) + ": " + e.what());
    }
  }
  // This worker's hardware decides the backend NAME: the override wins,
  // then the job's default. The job's precision sticks to the override
  // unless it pins its own (+fp32/+bf16) — bitwise identity across
  // conforming backends at one precision is what lets a heterogeneous
  // fleet share one reduction.
  // A job from an older coordinator may name a backend this build lacks.
  try {
    ctx->backend_name = device::merge_backend_override(job.backend, backend_override);
    ctx->backend = device::make_backend(ctx->backend_name);
  } catch (const std::exception& e) {
    throw std::runtime_error("job " + std::to_string(job.job_id) + ": " + e.what());
  }
  ctx->executor = exec::SliceExecutor(job.executor);
  ctx->grain = job.grain;
  ctx->tel.shard = worker_id;
  ctx->tel.backend = ctx->backend_name;
  return ctx;
}

// Adds one job's cumulative counters to a worker-wide pulse sample.
void add_job_counters(const ShardTelemetry& t, WorkerPulse* p) {
  p->tasks_run += t.tasks_run;
  p->leases_completed += t.leases;
  p->device_bytes += t.executor.device.total_transfer_bytes();
  p->device_ns += t.executor.device.ns_to_device + t.executor.device.ns_to_host;
}

// Reads until the coordinator closes its end. Exiting with anything unread
// in our receive buffer would reset the connection and could tear our last
// frames (trace + done, or an error report) out from under the reader.
void linger(int fd) {
  try {
    Frame f;
    while (read_frame(fd, &f)) {
    }
  } catch (...) {
  }
}

// Called once `what` went out as a kError report: logs it and lingers until
// the coordinator drops this worker, so the report is read rather than
// reset away.
int failed(int fd, int worker_id, const char* what) {
  std::fprintf(stderr, "worker %d: %s\n", worker_id, what);
  linger(fd);
  return 1;
}

}  // namespace

int serve_leases(int fd, const std::string& backend_override, const InheritedPlan* inherited) {
  std::signal(SIGPIPE, SIG_IGN);  // a dead coordinator must surface as a write error
  int worker_id = -1;
  double heartbeat_seconds = 0;
  try {
    write_frame(fd, FrameType::kHello, nullptr, 0);
    Frame f;
    if (!read_frame(fd, &f)) throw std::runtime_error("coordinator closed before welcoming");
    ByteReader r(f.payload);
    if (f.type == FrameType::kError) throw std::runtime_error("coordinator error: " + r.get_string());
    if (f.type != FrameType::kWelcome) throw std::runtime_error("expected a welcome frame");
    worker_id = int(r.get<int32_t>());
    heartbeat_seconds = r.get<double>();
  } catch (const std::exception& e) {
    send_error(fd, e.what());
    return failed(fd, worker_id, e.what());
  }
  const ChaosHooks chaos = chaos_from_env(worker_id);
  Timer wall;

  // The compute thread and the heartbeat thread share the socket: one
  // mutex keeps frames from interleaving mid-write.
  std::mutex write_mu;
  auto send = [fd, &write_mu](FrameType t, const ByteWriter& w) {
    std::lock_guard<std::mutex> lock(write_mu);
    write_frame(fd, t, w);
  };
  // Live metrics sample shared between the compute thread (writes after
  // each finished block) and the heartbeat thread (reads + serializes).
  std::mutex pulse_mu;
  WorkerPulse pulse;
  std::string pulse_backend = backend_override.empty() ? "host" : backend_override;
  std::atomic<bool> stop{false};
  std::thread heartbeat([&] {
    if (heartbeat_seconds <= 0) return;  // disabled (stall-test hook)
    Timer since;
    while (!stop.load(std::memory_order_relaxed)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      if (since.seconds() < heartbeat_seconds) continue;
      since.reset();
      try {
        // Heartbeats advertise the device backend this worker runs on plus
        // the latest WorkerPulse, so a status probe sees the fleet's device
        // mix AND per-worker utilization live.
        ByteWriter hb;
        {
          std::lock_guard<std::mutex> lock(pulse_mu);
          hb.put_string(pulse_backend);
          put_pulse(hb, pulse);
        }
        send(FrameType::kHeartbeat, hb);
      } catch (...) {
        return;  // coordinator gone; the compute thread will notice too
      }
    }
  });
  // Quiesces the heartbeat thread: before serializing trace buffers (it
  // records wire_send events of its own) and before any goodbye frame.
  auto stop_heartbeat = [&] {
    stop.store(true);
    if (heartbeat.joinable()) heartbeat.join();
  };
  struct JoinGuard {
    decltype(stop_heartbeat)& stop;
    ~JoinGuard() { stop(); }
  } guard{stop_heartbeat};

  try {
    // Contexts of the jobs still live on the coordinator; kJobEnd drops
    // one, after folding its counters into `retired` so the pulse's
    // worker-wide totals never go backwards.
    std::map<uint64_t, std::unique_ptr<WorkerJobCtx>> ctxs;
    WorkerPulse retired;
    std::unique_ptr<ThreadPool> pool;
    std::unique_ptr<runtime::SliceScheduler> sched;
    bool ship_trace = false;
    uint64_t ranges_done = 0;

    for (;;) {
      {
        ByteWriter w;
        w.put<int32_t>(int32_t(worker_id));
        send(FrameType::kLeaseRequest, w);
      }
      // Between the request and its lease, kJob frames describe jobs this
      // worker has not built yet, and kJobEnd frames retire finished ones.
      Frame f;
      for (;;) {
        if (!read_frame(fd, &f)) throw std::runtime_error("coordinator closed mid-run");
        if (f.type == FrameType::kError) {
          ByteReader r(f.payload);
          throw std::runtime_error("coordinator error: " + r.get_string());
        }
        if (f.type == FrameType::kJobEnd) {
          ByteReader r(f.payload);
          auto it = ctxs.find(r.get<uint64_t>());
          if (it == ctxs.end()) continue;
          add_job_counters(it->second->tel, &retired);
          ctxs.erase(it);
          continue;
        }
        if (f.type != FrameType::kJob) break;
        ByteReader jr(f.payload);
        const Job job = get_job(jr);
        if (job.trace != 0) {
          // A traced job arms this process's tracer under its worker id
          // (forked workers re-homed theirs at fork time); the chunk ships
          // back over kTrace at drain, one lane per process.
          ship_trace = true;
          if (inherited == nullptr) obs::Tracer::instance().enable(worker_id);
        }
        if (ctxs.count(job.job_id) == 0) {
          auto ctx = plan_job(job, worker_id, backend_override, inherited);
          std::lock_guard<std::mutex> lock(pulse_mu);
          pulse_backend = ctx->backend_name;
          ctxs[job.job_id] = std::move(ctx);
        }
        if (pool == nullptr) {
          const int workers = job.workers > 0 ? job.workers : 0;  // 0 = hardware
          pool = std::make_unique<ThreadPool>(workers);
          sched = std::make_unique<runtime::SliceScheduler>(workers);
        }
      }
      if (f.type == FrameType::kDrain) break;
      if (f.type != FrameType::kJobLease)
        throw std::runtime_error("unexpected frame while awaiting a lease");

      ByteReader r(f.payload);
      const auto job_id = r.get<uint64_t>();
      const auto lease = r.get<uint64_t>();
      const auto first = r.get<uint64_t>();
      const auto count = r.get<uint64_t>();
      auto it = ctxs.find(job_id);
      if (it == ctxs.end())
        throw std::runtime_error("lease for job " + std::to_string(job_id) +
                                 " arrived before its job frame");
      WorkerJobCtx& ctx = *it->second;
      if (chaos.kill_after_ranges >= 0 && ranges_done >= uint64_t(chaos.kill_after_ranges)) {
        // Die exactly like a SIGKILLed node — no goodbye frame, no cleanup —
        // and die HOLDING this lease, so the kill exercises the revoke +
        // requeue path, not just the loss of an idle worker.
        ::raise(SIGKILL);
      }

      exec::SliceRunOptions ro;
      ro.executor = ctx.executor;
      ro.grain = ctx.grain;
      ro.pool = pool.get();
      ro.scheduler = sched.get();
      ro.backend = ctx.backend.get();
      obs::TraceScope lease_tr(obs::EventKind::kLeaseWork, lease, first, count);
      for (const auto& block : aligned_blocks(first, count)) {
        auto partial = reduce_block(block, ctx.plan, ro, &ctx.tel);
        {
          // Refresh the heartbeat sample with worker-wide cumulative counts
          // (every job this worker has touched: retired plus live ones).
          WorkerPulse sum = retired;
          for (const auto& [id, c] : ctxs) add_job_counters(c->tel, &sum);
          std::lock_guard<std::mutex> lock(pulse_mu);
          pulse.ema_utilization = ctx.tel.executor.ema_utilization;
          pulse.tasks_run = sum.tasks_run;
          pulse.leases_completed = sum.leases_completed;
          pulse.device_bytes = sum.device_bytes;
          pulse.device_ns = sum.device_ns;
          pulse.wall_seconds = wall.seconds();
          pulse.jobs_held = ctxs.size();
          pulse_backend = ctx.backend_name;
        }
        if (chaos.sleep_ms_per_task > 0) {
          // Artificial straggler: the block still completes (heartbeats keep
          // this worker alive), it is just slow — the rest of the fleet must
          // absorb its home window via steals.
          std::this_thread::sleep_for(std::chrono::microseconds(
              int64_t(chaos.sleep_ms_per_task * 1000 * double(block.count()))));
        }
        ByteWriter w;
        w.put<uint64_t>(lease);
        w.put<int32_t>(int32_t(block.level));
        w.put<uint64_t>(block.index);
        put_tensor(w, partial);
        send(FrameType::kLeaseBlock, w);
      }
      ++ranges_done;
      ++ctx.tel.leases;
      ctx.tel.wall_seconds = wall.seconds();
      {
        // kRangeDone doubles as the telemetry carrier: the coordinator
        // keeps the latest cumulative snapshot per (job, worker).
        ByteWriter w;
        w.put<uint64_t>(lease);
        put_telemetry(w, ctx.tel);
        send(FrameType::kRangeDone, w);
      }
    }

    stop_heartbeat();
    auto& tracer = obs::Tracer::instance();
    if (ship_trace && tracer.enabled()) {
      const auto chunk = tracer.serialize();
      write_frame(fd, FrameType::kTrace, chunk.data(), chunk.size());
    }
    write_frame(fd, FrameType::kDone, nullptr, 0);
    linger(fd);
    return 0;
  } catch (const std::exception& e) {
    // Report first — under the write lock, the heartbeat thread may be
    // mid-frame — and only then wind the heartbeat down.
    {
      std::lock_guard<std::mutex> lock(write_mu);
      send_error(fd, e.what());
    }
    stop_heartbeat();
    return failed(fd, worker_id, e.what());
  }
}

}  // namespace ltns::dist

#include "exec/shard_runner.hpp"

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <thread>

#include <sys/socket.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include "device/backend.hpp"
#include "dist/server.hpp"
#include "dist/worker.hpp"
#include "obs/trace.hpp"
#include "util/timer.hpp"

namespace ltns::exec {

namespace {

int workers_for(const ShardRunOptions& opt) {
  if (opt.workers_per_process > 0) return opt.workers_per_process;
  const int hw = int(std::max(1u, std::thread::hardware_concurrency()));
  return std::max(1, hw / std::max(1, opt.processes));
}

// The backend a shard's worker overrides the job's default with ("" =
// none): per-shard names only exist for heterogeneous fleets.
std::string backend_override_for(const ShardRunOptions& opt, int shard_id) {
  if (opt.backends.empty()) return "";
  return opt.backends[size_t(shard_id) % opt.backends.size()];
}

// Worker process body: run the one worker loop over the inherited,
// already-planned contraction, then exit. Never returns; exit code 0 =
// clean drain, 1 = reported error frame.
[[noreturn]] void worker_main(int fd, int shard_id, const std::string& backend_override,
                              const dist::InheritedPlan& plan) {
  // The fork inherited the parent's armed tracer, ring buffers and all:
  // drop the parent's events and re-home this process under its own rank so
  // the merged timeline renders one lane per shard.
  if (obs::Tracer::instance().enabled()) obs::Tracer::instance().reset_after_fork(shard_id);
  const int rc = dist::serve_leases(fd, backend_override, &plan);
  ::close(fd);
  std::_Exit(rc);
}

void append_error(std::string* error, const std::string& msg) {
  if (!error->empty()) *error += "; ";
  *error += msg;
}

}  // namespace

ShardRunResult run_sharded(const tn::ContractionTree& tree, const LeafProvider& leaves,
                           const core::SliceSet& slices, const ShardRunOptions& opt) {
  ShardRunResult res;
  const auto sliced = slices.to_vector();
  if (sliced.size() >= 57) {
    res.error = "too many sliced edges";
    return res;
  }
  const int processes = std::max(1, opt.processes);
  const std::string backend = opt.backend.empty() ? "host" : opt.backend;

  dist::ServerOptions so;
  so.home_workers = processes;
  so.lease_size = opt.lease_size;
  so.heartbeat_seconds = opt.heartbeat_seconds;
  so.stall_timeout_seconds = opt.stall_timeout_seconds;
  // Fork mode has no listener, so nobody can rejoin — but a fleet where
  // every worker is stalled (wedged, not dead) must still end in an error
  // rather than a hang, and this timeout is what bounds that wait.
  so.accept_timeout_seconds = std::max(60, int(opt.stall_timeout_seconds * 2));
  so.fsync_seconds = opt.spill_fsync_seconds;
  so.metrics_out = opt.metrics_out;
  so.metrics_interval_seconds = opt.metrics_interval_seconds;
  auto engine = std::make_unique<dist::JobServer>(so);

  Timer wall;
  const dist::InheritedPlan plan{&tree, leaves, &slices, opt.fused};
  std::vector<int> engine_fds;
  std::vector<pid_t> pids;
  for (int p = 0; p < processes; ++p) {
    int sv[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) {
      append_error(&res.error, "socketpair failed");
      break;
    }
    pid_t pid = ::fork();
    if (pid < 0) {
      ::close(sv[0]);
      ::close(sv[1]);
      append_error(&res.error, "fork failed");
      break;
    }
    if (pid == 0) {
      // Child: drop every inherited coordinator-side descriptor.
      for (int fd : engine_fds) ::close(fd);
      ::close(sv[0]);
      if (opt.fault_shard == p) std::_Exit(17);  // test hook: die unreported
      worker_main(sv[1], p, backend_override_for(opt, p), plan);
    }
    ::close(sv[1]);
    engine->add_worker(sv[0], p);  // the engine owns it now
    engine_fds.push_back(sv[0]);
    pids.push_back(pid);
  }

  dist::OneShotResult run;
  if (res.error.empty()) {
    // The job every worker runs: execution knobs only — the plan itself
    // crossed the fork.
    dist::OneShotJob job;
    job.total = uint64_t(1) << sliced.size();
    job.job.executor = uint32_t(opt.executor);
    job.job.grain = opt.grain;
    job.job.workers = workers_for(opt);
    job.job.num_slices = int32_t(sliced.size());
    job.job.backend = backend;
    job.job.trace = obs::Tracer::instance().enabled() ? 1 : 0;
    job.spill_dir = opt.spill_dir;
    job.run_id = opt.spill_run_id;
    job.resume = opt.resume;
    run = engine->run_one(std::move(job));
    res.error = run.error;
  }
  // Closing the engine's ends EOFs any worker still waiting, so the reap
  // below cannot hang. Worker deaths are absorbed by design (the requeue is
  // the feature under test in the chaos job): an abnormal exit only matters
  // through the run error the engine already reported.
  engine.reset();
  for (pid_t pid : pids) ::waitpid(pid, nullptr, 0);

  // Every process gets a record, named by the backend it was asked to run
  // — even one that completed no lease before the queue drained.
  res.shards.assign(size_t(processes), {});
  for (int p = 0; p < processes; ++p) {
    res.shards[size_t(p)].shard = p;
    res.shards[size_t(p)].backend =
        device::merge_backend_override(backend, backend_override_for(opt, p));
  }
  for (auto& t : run.telemetry.shards)
    if (t.shard >= 0 && t.shard < processes && t.leases > 0) res.shards[size_t(t.shard)] = t;
  res.tasks_run = run.tasks_run;
  res.reduce_merges = run.reduce_merges;
  res.stats = run.telemetry.stats;
  res.executor_stats = run.telemetry.runtime_stats;
  res.memory = run.telemetry.memory;
  res.rebalance = run.telemetry.rebalance;
  res.wall_seconds = wall.seconds();
  if (!res.error.empty()) return res;
  res.accumulated = std::move(run.root);
  res.completed = true;
  return res;
}

}  // namespace ltns::exec

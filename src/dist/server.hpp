// The coordinator engine: every multi-process path runs through JobServer.
//
//   - `ltns_cli serve` is a persistent daemon multiplexing a NAMED JOB
//     QUEUE over a single worker fleet (serve());
//   - `ltns_cli coordinate` is the same engine on a TCP port running ONE
//     job planned from its circuit, then exiting (run_one(), via
//     dist::coordinate in dist/service.hpp);
//   - `--processes=N` (exec::run_sharded) is the same engine with no
//     listener, N forked workers registered by add_worker(), running ONE
//     job whose plan the workers inherited across the fork (run_one()).
//
// The server accepts kSubmit frames (circuit + plan knobs + tenant
// identity), queues them, and drives every admitted job through its own
// LeaseLedger + ShardMerger over the SAME long-lived workers — leases from
// different jobs interleave freely on one fleet. Scheduling is two-level:
//
//   1. FairShare picks the next TENANT by stride scheduling: each tenant
//      accrues virtual time at rate work/weight, the runnable tenant with
//      the least virtual time dispatches next. Zero-weight tenants are
//      background: they only run when no weighted tenant has work.
//   2. Within the tenant, jobs order by priority (desc) then id (asc).
//
// AdmissionControl bounds the queue (submits beyond max_queued are
// REJECTED, not buffered) and adapts the concurrent-job limit between
// min/max_running off the fleet's mean worker-utilization EMA — the same
// WorkerPulse samples PR 6's heartbeats already carry: a saturated fleet
// shrinks the limit toward min_running, an idle one grows it.
//
// Determinism: each job owns a private LeaseLedger over its own task range
// with a DISJOINT lease-id base (job id in the high 32 bits), so a lease id
// alone routes every worker frame to its job, and each job's tournament
// merges in the exact tree order a solo run uses — a job's amplitude is
// byte-identical to `ltns_cli amp` on the same spec no matter what else
// shares the fleet, or which workers die mid-run (revoked leases requeue
// per job).
//
// Durability: with --state-dir, specs, terminal results and per-job spill
// journals live under <state_dir>/jobs/<id>/; a restarted server re-queues
// unfinished jobs and resumes their journals, per job. A
// one-shot job journals to the spill dir its caller names.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "api/telemetry.hpp"
#include "cache/options.hpp"
#include "dist/job.hpp"
#include "exec/tensor.hpp"

namespace ltns::dist {

// Weighted fair share across tenants via stride scheduling. Standalone and
// deterministic so the scheduling policy is unit-testable without sockets.
class FairShare {
 public:
  // Declares (or re-weights) a tenant. Weight 0 = background-only.
  void set_weight(const std::string& tenant, uint32_t weight);

  // Picks from `runnable` the weighted tenant with the least virtual time
  // (ties break lexicographically, for determinism); zero-weight tenants
  // are chosen only when no weighted tenant is runnable. A tenant idle
  // since its last dispatch is clamped up to the scheduler clock first, so
  // sleeping never banks credit. Returns "" when `runnable` is empty.
  // Unknown names are treated as weight-1 tenants (first pick declares).
  std::string pick(const std::vector<std::string>& runnable);

  // Charges `tasks` units of dispatched work to `tenant`: its virtual time
  // advances by tasks/weight.
  void charge(const std::string& tenant, uint64_t tasks);

  double virtual_time(const std::string& tenant) const;

  struct TenantShare {
    std::string tenant;
    uint32_t weight = 1;
    double virtual_time = 0;
    uint64_t tasks_charged = 0;
  };
  std::vector<TenantShare> shares() const;

 private:
  struct State {
    uint32_t weight = 1;
    double vt = 0;
    uint64_t charged = 0;
  };
  State& ensure(const std::string& tenant);
  std::map<std::string, State> tenants_;
  double clock_ = 0;  // virtual time of the last dispatched tenant
};

struct AdmissionOptions {
  size_t max_queued = 64;  // kSubmit beyond this is rejected
  int min_running = 1;     // adaptive concurrent-job limit floor...
  int max_running = 4;     // ...and ceiling
  // Fleet mean utilization EMA watermarks: above high the limit steps
  // down, below low it steps up. In between the limit holds.
  double high_watermark = 0.85;
  double low_watermark = 0.5;
};

// Queue bound + adaptive concurrent-job limit. Standalone for unit tests.
class AdmissionControl {
 public:
  explicit AdmissionControl(AdmissionOptions opt);

  // Admission decision for one new submit given the current queue depth.
  bool admit(size_t queued) const { return queued < opt_.max_queued; }

  // Feeds the latest fleet-mean worker-utilization EMA; nudges the running
  // limit one step per call toward the watermark band.
  void observe_utilization(double mean_ema);

  int running_limit() const { return limit_; }
  const AdmissionOptions& options() const { return opt_; }

 private:
  AdmissionOptions opt_;
  int limit_;
};

struct ServerOptions {
  // "" = volatile server: queue and results live only in this process.
  std::string state_dir;
  // Notional home-window count for every job's lease ledger (the fleet may
  // be larger or smaller at any moment; extra workers steal).
  int home_workers = 2;
  uint64_t lease_size = 0;  // 0 = auto (~8 leases per home window)
  // Worker kHeartbeat period, sent in kWelcome; <= 0 disables heartbeats
  // AND stall revocation with them (no way to tell slow from dead; worker
  // death still surfaces as EOF).
  double heartbeat_seconds = 0.2;
  // Quarantine a worker silent this long: revoke + requeue its leases.
  // 0 disables; values under 4 heartbeat periods are clamped up so a
  // healthy-but-busy worker can never be revoked into a livelock.
  double stall_timeout_seconds = 30;
  // Longest wait with unfinished work and no worker able to run it; the
  // engine then fails with "timed out waiting for a live worker". 0 = wait
  // forever (serve's default).
  int accept_timeout_seconds = 0;
  double fsync_seconds = 0;  // per-job journal fsync cadence (0 = every record)
  // Execution defaults stamped into every job's kJob payload.
  int workers_per_process = 0;  // 0 = worker hardware decides
  uint32_t executor = 0;        // exec::SliceExecutor
  uint64_t grain = 1;
  std::string backend = "host";
  std::string metrics_out;  // ltns_server_*/ltns_tenant_* snapshot target
  double metrics_interval_seconds = 0;
  AdmissionOptions admission;
  // Content-addressed plan & result cache. The server only engages it when
  // cache_dir is set: a memory-only cache behind a long-lived daemon would
  // silently serve results that vanish on restart while claiming the same
  // fingerprints — the CLI refuses that combination up front.
  cache::CacheOptions cache;
};

// The plan and kJob payload the engine derives for an amp-kind spec: a
// `serve` submission and a `coordinate` circuit plan through this one
// function, so both run the same plan under the same journal fingerprint.
// Throws when planning fails.
struct SpecPlan {
  std::unique_ptr<Prepared> prepared;
  Job job;             // execution knobs from ServerOptions, plan knobs from the spec
  uint64_t total = 0;  // 2^|S| tasks
  std::string run_id;  // dist::run_fingerprint of the spec and its plan
};
SpecPlan plan_spec(const JobSpec& spec, const ServerOptions& opt,
                   cache::PlanCache* plan_cache = nullptr);

// One job planned before the engine saw it, run as the engine's only job.
struct OneShotJob {
  uint64_t total = 0;     // 2^|S| tasks
  Job job;                // kJob payload every worker gets; the engine sets job_id
  std::string spill_dir;  // "" = no journal
  std::string run_id;     // journal fingerprint (CheckpointMeta::run_id)
  bool resume = false;    // replay an existing journal first
};

struct OneShotResult {
  std::string error;  // "" = `root` holds the merged tensor
  exec::Tensor root;  // merged in tournament order, bitwise a solo run's
  uint64_t tasks_run = 0;
  uint64_t reduce_merges = 0;  // worker-local plus coordinator merges
  // Per-worker records (one per worker that joined, by id), their
  // aggregate, and the lease counters folded into runtime_stats.
  api::RunTelemetry telemetry;
};

// The coordinator engine. Single-threaded poll loop over every peer:
// fleet workers (dist::serve_leases, kHello -> kWelcome handshake),
// control clients (kSubmit/kJobStatus/kCancel/kFetchResult/kShutdown) and
// status probes share the listening port, when there is one.
class JobServer {
 public:
  JobServer(uint16_t port, ServerOptions opt);  // binds; throws on failure
  explicit JobServer(ServerOptions opt);        // no listener: add_worker only
  ~JobServer();
  JobServer(const JobServer&) = delete;
  JobServer& operator=(const JobServer&) = delete;

  uint16_t port() const;
  const ServerOptions& options() const;

  // Registers a pre-connected worker (run_sharded's socketpairs) under
  // a fixed id, so the chaos hooks select workers by shard index; it still
  // says kHello and is welcomed under that id. The engine owns the fd.
  void add_worker(int fd, int worker_id);

  // Runs until a kShutdown frame arrives, finishes the running jobs,
  // drains the fleet, and returns "" (or a fatal error).
  std::string serve();

  // Admits `job`, serves until it is terminal, drains the fleet and hands
  // back the raw merged root. Submissions are refused meanwhile.
  OneShotResult run_one(OneShotJob job);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace ltns::dist

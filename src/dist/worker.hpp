// The lease protocol's worker half: the one loop every worker process runs
// — forked local workers of exec::run_sharded, TCP workers of `ltns_cli
// coordinate`, and the job server's fleet. The coordinator half is the
// JobServer engine (dist/server.hpp), whichever transport it serves.
//
//   worker                         coordinator
//   ------                         -----------
//   kHello ->                      <- kWelcome {worker id, heartbeat period}
//   kLeaseRequest ->               <- kJob (first lease of each job only)
//                  <- kJobLease     LeaseLedger::acquire (own home window,
//                                   then steal from the most-loaded home)
//   kLeaseBlock* ->                buffered under the lease id
//   kRangeDone ->                  buffered blocks fed to the job's
//                                  ShardMerger; the frame's cumulative
//                                  telemetry kept
//   kLeaseRequest -> ...           (repeat until nothing is left to run)
//                  <- kJobEnd       (each job the worker holds, once it is
//                                   finished, failed or cancelled)
//                  <- kDrain
//   [kTrace,] kDone ->             traced jobs only ship their event chunk
//
// A background thread on the worker writes kHeartbeat frames while the
// compute thread is busy, so the coordinator can tell "slow" from "dead":
// a silent worker past the stall timeout (or an EOF) has its leases
// revoked and requeued for idle peers, and any frame it later sends for a
// revoked lease is dropped — never double-merged. Because every range is
// reduced as tournament-aligned blocks and merged once in fixed tournament
// order, the accumulated tensor is bitwise identical to a single-process
// run regardless of which worker computed which range or how many times a
// range was re-issued.
#pragma once

#include <string>

#include "dist/job.hpp"
#include "exec/slice_runner.hpp"

namespace ltns::dist {

// A contraction a forked worker inherited from its parent, already planned:
// such workers run every job they are sent over it instead of decoding the
// kJob's plan.
struct InheritedPlan {
  const tn::ContractionTree* tree = nullptr;
  exec::LeafProvider leaves;
  const core::SliceSet* slices = nullptr;
  const exec::FusedPlan* fused = nullptr;  // null = step-by-step execution
};

// The worker loop: says kHello on `fd`, takes its id and heartbeat period
// from kWelcome, then requests leases until kDrain. Each job id's first
// kJob is built once (its plan blob decoded over the lowered circuit, or
// `inherited`), with the device backend the job names unless
// `backend_override` picks this worker's own, and kept until kJobEnd. A
// blob that does not fit is reported as a kError naming the job. Every
// kRangeDone carries the job's cumulative telemetry; a kTrace chunk ships
// at drain only when some kJob asked for tracing.
// Returns 0 after a clean drain, 1 after reporting a failure as kError.
// Reads the chaos-injection env hooks (see chaos_from_env).
int serve_leases(int fd, const std::string& backend_override = "",
                 const InheritedPlan* inherited = nullptr);

// Chaos hooks for the fault tests and the chaos-distributed CI job; all
// no-ops unless the env selects THIS worker id (`any` selects every id —
// only sane when the env is scoped to a single worker process):
//   LTNS_CHAOS_KILL_SHARD=<id|any>  worker to SIGKILL itself mid-run
//   LTNS_CHAOS_KILL_AFTER_RANGES=<n>  ...on receiving its (n+1)-th lease,
//                                     while holding it (default 1), so the
//                                     death always leaves work to requeue
//   LTNS_CHAOS_SLEEP_SHARD=<id>     worker to run as an artificial straggler
//   LTNS_CHAOS_SLEEP_MS=<ms>        ...sleeping ms per task (default 20)
struct ChaosHooks {
  int kill_after_ranges = -1;  // -1 = off
  double sleep_ms_per_task = 0;
};
ChaosHooks chaos_from_env(int worker_id);

}  // namespace ltns::dist

// TCP coordinator/worker service: the multi-host face of the coordinator
// engine (dist/server.hpp).
//
// `ltns_cli coordinate` is a JobServer on a TCP port that runs one job and
// exits: the circuit is planned exactly as `serve` plans a submitted amp
// job (dist::plan_spec), the engine leases its task ranges to whichever
// workers connect, and the merged root scales into the amplitude — the
// merge order and wire format are shared with the local fork runner, so
// the amplitude is bitwise identical to a single-process run.
//
// Workers never run the planner: each kJob carries the coordinator's
// encoded plan, which a worker decodes over its own lowering of the
// circuit and cross-checks (|S| and the run fingerprint) before running a
// lease — so every process contracts the same tree and slice set. Peers
// must run the same binary on the same architecture — the wire
// format ships raw IEEE bit patterns (see wire.hpp).
#pragma once

#include <complex>
#include <cstdint>
#include <string>

#include "dist/server.hpp"

namespace ltns::dist {

struct CoordinatedAmplitude {
  std::complex<double> amplitude{0, 0};  // valid when run.error is empty
  int num_slices = 0;
  OneShotResult run;
};

// Plans `spec` with plan_spec under `engine`'s options and runs it as the
// engine's one job: journaled to `spill_dir` when set (replaying it first
// with `resume`), and with `trace` asking every worker to ship its event
// chunk back at drain. The journal fingerprint matches what a solo run or
// the fork runner writes for the same job, so either can resume the other.
CoordinatedAmplitude coordinate(JobServer& engine, const JobSpec& spec,
                                const std::string& spill_dir = "", bool resume = false,
                                bool trace = false);

// Connects to a coordinator or a job server and runs the worker loop
// (dist::serve_leases) until drained; returns 0 on success (non-zero on any
// failure). `backend_override` (optional) picks this worker's device
// backend instead of the job's default — the heterogeneous-fleet knob.
int serve_worker(const std::string& host, uint16_t port,
                 const std::string& backend_override = "");

// Status probe: connects to a running coordinator or job server and
// returns its live status JSON (`ltns_cli coordinate --status`). Throws
// std::runtime_error when nothing answers.
std::string query_status(const std::string& host, uint16_t port);

}  // namespace ltns::dist

// ltns_cli: command-line front end over the public API.
//
//   ltns_cli gen   <rows> <cols> <cycles> [seed]          # emit a circuit file
//   ltns_cli gen-sycamore <cycles> [seed]
//   ltns_cli plan  <circuit-file> [depth]                 # path + lifetime slicing report
//   ltns_cli amp   <circuit-file> <bitstring>             # one amplitude (verified vs sv if <=22q)
//   ltns_cli sample <circuit-file> <n_open> <n_samples>   # correlated samples
//   ltns_cli query <circuit-file> <query-file>            # batched queries, shared contractions
//
//   ltns_cli coordinate <port> <nworkers> <circuit-file> <bitstring>
//   ltns_cli coordinate --status <host> <port>            # live lease state as JSON
//   ltns_cli worker <host> <port>                         # serve one shard job / join a fleet
//
// Multi-tenant service (see docs/service.md):
//   ltns_cli serve <port>                                 # persistent job server
//   ltns_cli submit <host> <port> <circuit-file> <bitstring>
//   ltns_cli status <host> <port> [job-id]                # server or per-job JSON
//   ltns_cli cancel <host> <port> <job-id>
//   ltns_cli result <host> <port> <job-id> [--wait]
//   ltns_cli shutdown <host> <port>
//
// Runtime flags (anywhere on the command line; `--help` prints them grouped
// the way api::SimulatorOptions nests them):
//   --runtime=ws|static|serial   subtask executor (default ws = work stealing)
//   --grain=N                    scheduler chunk size (tasks per deque pop)
//   --processes=N                fork N lease-driven worker processes
//                                (amp/sample/query; default 1): straggler
//                                steal, dead-worker requeue
//   --workers=N                  scheduler width per process (default: hw/N)
//   --backend=SPEC               device backend (host|simd, each with an
//                                optional +fp32|+bf16 precision suffix;
//                                default host; `--backend=help` lists them
//                                with capabilities; both names run the
//                                same kernels at the probed ISA tier)
//   --precision=fp32|bf16        GEMM operand precision (default fp32); bf16
//                                keeps fp32 accumulation and is deterministic
//                                but only ULP-close to fp32 (docs/kernels.md)
//   --lease=N                    tasks per lease (default: auto)
//   --heartbeat=SECONDS          worker liveness period (default 0.2)
//   --stall-timeout=SECONDS      silent-worker revoke threshold (default 30)
//   --spill-dir=PATH             durable run ledger: journal completed ranges
//                                there (see docs/operations.md)
//   --resume                     replay an existing spill journal first, so a
//                                restarted coordinator redoes only unfinished
//                                ranges (output stays bitwise identical)
//   --spill-fsync=SECONDS        journal fsync cadence (default 0 = every record)
//   --cache-dir=PATH             persistent plan/result cache directory, shared
//                                across runs AND transports (amp/sample/serve
//                                hit the same store; see docs/caching.md)
//   --plan-cache=N               in-memory plan-cache entries (0 disables)
//   --result-cache=N             in-memory result-cache entries (0 disables)
//   --cache-readonly             consult but never write the on-disk store
//   --trace-out=PATH             arm the event tracer and write the run's
//                                Chrome trace-event JSON there (load it in
//                                chrome://tracing or ui.perfetto.dev; multi-
//                                process runs render as one timeline)
//   --metrics-out=PATH           write the run's final metrics snapshot there
//                                (ltns.metrics.v1 JSON + a .prom twin)
//   --metrics-interval=SECONDS   ALSO rewrite --metrics-out periodically while
//                                a sharded run is live (scraper cadence)
//   --max-open=N                 query grouper merge bound (default 6)
//   --amp-mode=exact|grouped     query amp answers: byte-exact standalone runs
//                                (default) or sliced from grouped batches
//   --queries=FILE               submit: queue FILE as one batched query job
//   --no-telemetry               suppress the executor/memory stats report
//   --version                    print the build stamp (git describe, compiler,
//                                flags) and exit
//
// Circuits use the ltnsqc v1 text format (see src/circuit/io.hpp); "-" reads
// stdin. This is the fourth runnable example and the scripting entry point.
#include <complex>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <utility>
#include <vector>

#include "api/simulator.hpp"
#include "circuit/io.hpp"
#include "core/planner.hpp"
#include "device/backend.hpp"
#include "dist/client.hpp"
#include "dist/server.hpp"
#include "dist/service.hpp"
#include "obs/build_info.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "path/optimizer.hpp"
#include "query/engine.hpp"
#include "sv/statevector.hpp"
#include "util/timer.hpp"

using namespace ltns;

namespace {

struct RuntimeFlags {
  exec::SliceExecutor executor = exec::SliceExecutor::kWorkStealing;
  uint64_t grain = 1;
  double target = 16;  // planner slicing target (log2 of max tensor size)
  int processes = 1;
  int workers = 0;
  bool telemetry = true;
  uint64_t lease = 0;
  double heartbeat = 0.2;
  double stall_timeout = 30;
  std::string spill_dir;
  bool resume = false;
  double spill_fsync = 0;
  // Cache flag group (options.cache). The -1 sentinels mean "not given":
  // cmd_serve needs to tell an explicit --plan-cache apart from the default
  // to refuse a memory-only cache behind a long-lived daemon.
  std::string cache_dir;
  long long plan_cache = -1;
  long long result_cache = -1;
  bool cache_readonly = false;
  std::string backend = "host";
  bool backend_set = false;  // --backend given explicitly (worker override)
  std::string precision = "fp32";
  std::string trace_out;
  std::string metrics_out;
  double metrics_interval = 0;
  // Service verbs (serve / submit / result).
  std::string state_dir;
  uint64_t max_queue = 64;
  int max_running = 4;
  std::string tenant = "default";
  uint32_t weight = 1;
  int priority = 0;
  std::string job_name;
  bool wait = false;
  // Query verbs (query / submit --queries).
  int max_open = 6;
  std::string amp_mode = "exact";
  std::string queries_file;
};

RuntimeFlags g_flags;

const char* executor_name(exec::SliceExecutor e) {
  switch (e) {
    case exec::SliceExecutor::kWorkStealing: return "work-stealing";
    case exec::SliceExecutor::kStaticPool: return "static-pool";
    case exec::SliceExecutor::kInnerPool: return "serial+inner-pool";
  }
  return "?";
}

// --precision folded into the backend spec: the spec string is the one
// precision channel (api::effective_backend_spec does the same fold). Used
// by the verbs that ship a backend string directly (coordinate / serve).
std::string effective_backend() {
  auto spec = device::parse_backend_spec(g_flags.backend);
  if (g_flags.precision == "bf16") spec.precision = exec::Precision::kBf16;
  return spec.spec();
}

api::SimulatorOptions make_sim_options() {
  api::SimulatorOptions opt;
  opt.plan.target_log2size = g_flags.target;
  opt.executor = g_flags.executor;
  opt.grain = g_flags.grain;
  opt.backend = g_flags.backend;
  opt.precision = g_flags.precision;
  opt.sharding.processes = g_flags.processes;
  opt.sharding.workers_per_process = g_flags.workers;
  opt.sharding.lease_size = g_flags.lease;
  opt.sharding.heartbeat_seconds = g_flags.heartbeat;
  opt.sharding.stall_timeout_seconds = g_flags.stall_timeout;
  opt.durability.spill_dir = g_flags.spill_dir;
  opt.durability.resume = g_flags.resume;
  opt.durability.fsync_seconds = g_flags.spill_fsync;
  opt.cache.cache_dir = g_flags.cache_dir;
  if (g_flags.plan_cache >= 0) opt.cache.plan_cache_entries = size_t(g_flags.plan_cache);
  if (g_flags.result_cache >= 0) opt.cache.result_cache_entries = size_t(g_flags.result_cache);
  opt.cache.read_only = g_flags.cache_readonly;
  opt.observability.metrics_out = g_flags.metrics_out;
  opt.observability.metrics_interval_seconds = g_flags.metrics_interval;
  return opt;
}

// Strips --runtime=/--grain=/--no-telemetry from argv; returns the rest.
std::vector<char*> parse_runtime_flags(int argc, char** argv) {
  std::vector<char*> rest;
  for (int i = 0; i < argc; ++i) {
    if (std::strncmp(argv[i], "--runtime=", 10) == 0) {
      const char* v = argv[i] + 10;
      if (std::strcmp(v, "ws") == 0) g_flags.executor = exec::SliceExecutor::kWorkStealing;
      else if (std::strcmp(v, "static") == 0) g_flags.executor = exec::SliceExecutor::kStaticPool;
      else if (std::strcmp(v, "serial") == 0) g_flags.executor = exec::SliceExecutor::kInnerPool;
      else {
        std::fprintf(stderr, "unknown --runtime '%s' (ws|static|serial)\n", v);
        std::exit(64);
      }
    } else if (std::strncmp(argv[i], "--grain=", 8) == 0) {
      g_flags.grain = uint64_t(std::atoll(argv[i] + 8));
    } else if (std::strncmp(argv[i], "--processes=", 12) == 0) {
      g_flags.processes = std::atoi(argv[i] + 12);
      if (g_flags.processes < 1) {
        std::fprintf(stderr, "--processes must be >= 1\n");
        std::exit(64);
      }
    } else if (std::strncmp(argv[i], "--workers=", 10) == 0) {
      g_flags.workers = std::atoi(argv[i] + 10);
    } else if (std::strncmp(argv[i], "--backend=", 10) == 0) {
      g_flags.backend = argv[i] + 10;
      g_flags.backend_set = true;
      // `--backend=help` (or any unknown name) prints the full backend
      // listing — capabilities, alignment, ISA tier — instead of a bare
      // error from deep inside the run.
      if (g_flags.backend == "help" || g_flags.backend == "list") {
        std::fputs(device::backend_help().c_str(), stdout);
        std::exit(0);
      }
      // Validate the NAME part only: "simd+bf16" is a full spec, and
      // parse_backend_spec rejects a bad precision suffix on its own.
      bool known = false;
      try {
        const auto spec = device::parse_backend_spec(g_flags.backend);
        for (const auto& b : device::available_backends()) known = known || b.name == spec.name;
      } catch (const std::invalid_argument& e) {
        std::fprintf(stderr, "--backend: %s\n", e.what());
        std::exit(64);
      }
      if (!known) {
        std::fprintf(stderr, "unknown --backend '%s'\n\n%s",
                     g_flags.backend.c_str(), device::backend_help().c_str());
        std::exit(64);
      }
    } else if (std::strncmp(argv[i], "--precision=", 12) == 0) {
      g_flags.precision = argv[i] + 12;
      if (g_flags.precision != "fp32" && g_flags.precision != "bf16") {
        std::fprintf(stderr, "unknown --precision '%s' (fp32|bf16)\n", g_flags.precision.c_str());
        std::exit(64);
      }
    } else if (std::strcmp(argv[i], "--elastic") == 0) {
      // Removed with the static driver: every multi-process run leases.
      std::fprintf(stderr, "--elastic was removed: every multi-process run uses the lease "
                           "driver, drop the flag\n");
      std::exit(64);
    } else if (std::strncmp(argv[i], "--lease=", 8) == 0) {
      g_flags.lease = uint64_t(std::atoll(argv[i] + 8));
    } else if (std::strncmp(argv[i], "--heartbeat=", 12) == 0) {
      g_flags.heartbeat = std::atof(argv[i] + 12);
    } else if (std::strncmp(argv[i], "--stall-timeout=", 16) == 0) {
      g_flags.stall_timeout = std::atof(argv[i] + 16);
    } else if (std::strncmp(argv[i], "--spill-dir=", 12) == 0) {
      g_flags.spill_dir = argv[i] + 12;
      if (g_flags.spill_dir.empty()) {
        std::fprintf(stderr, "--spill-dir needs a path\n");
        std::exit(64);
      }
    } else if (std::strcmp(argv[i], "--resume") == 0) {
      g_flags.resume = true;
    } else if (std::strncmp(argv[i], "--spill-fsync=", 14) == 0) {
      g_flags.spill_fsync = std::atof(argv[i] + 14);
    } else if (std::strncmp(argv[i], "--cache-dir=", 12) == 0) {
      g_flags.cache_dir = argv[i] + 12;
      if (g_flags.cache_dir.empty()) {
        std::fprintf(stderr, "--cache-dir needs a path\n");
        std::exit(64);
      }
    } else if (std::strncmp(argv[i], "--plan-cache=", 13) == 0) {
      g_flags.plan_cache = std::atoll(argv[i] + 13);
      if (g_flags.plan_cache < 0) {
        std::fprintf(stderr, "--plan-cache must be >= 0 (0 disables the plan cache)\n");
        std::exit(64);
      }
    } else if (std::strncmp(argv[i], "--result-cache=", 15) == 0) {
      g_flags.result_cache = std::atoll(argv[i] + 15);
      if (g_flags.result_cache < 0) {
        std::fprintf(stderr, "--result-cache must be >= 0 (0 disables the result cache)\n");
        std::exit(64);
      }
    } else if (std::strcmp(argv[i], "--cache-readonly") == 0) {
      g_flags.cache_readonly = true;
    } else if (std::strncmp(argv[i], "--trace-out=", 12) == 0) {
      g_flags.trace_out = argv[i] + 12;
      if (g_flags.trace_out.empty()) {
        std::fprintf(stderr, "--trace-out needs a path\n");
        std::exit(64);
      }
    } else if (std::strncmp(argv[i], "--metrics-out=", 14) == 0) {
      g_flags.metrics_out = argv[i] + 14;
      if (g_flags.metrics_out.empty()) {
        std::fprintf(stderr, "--metrics-out needs a path\n");
        std::exit(64);
      }
    } else if (std::strncmp(argv[i], "--metrics-interval=", 19) == 0) {
      g_flags.metrics_interval = std::atof(argv[i] + 19);
    } else if (std::strncmp(argv[i], "--target=", 9) == 0) {
      g_flags.target = std::atof(argv[i] + 9);
      if (g_flags.target < 1) {
        std::fprintf(stderr, "--target must be >= 1 (log2 of the sliced tensor bound)\n");
        std::exit(64);
      }
    } else if (std::strncmp(argv[i], "--state-dir=", 12) == 0) {
      g_flags.state_dir = argv[i] + 12;
      if (g_flags.state_dir.empty()) {
        std::fprintf(stderr, "--state-dir needs a path\n");
        std::exit(64);
      }
    } else if (std::strncmp(argv[i], "--max-queue=", 12) == 0) {
      g_flags.max_queue = uint64_t(std::atoll(argv[i] + 12));
    } else if (std::strncmp(argv[i], "--max-running=", 14) == 0) {
      g_flags.max_running = std::atoi(argv[i] + 14);
      if (g_flags.max_running < 1) {
        std::fprintf(stderr, "--max-running must be >= 1\n");
        std::exit(64);
      }
    } else if (std::strncmp(argv[i], "--tenant=", 9) == 0) {
      g_flags.tenant = argv[i] + 9;
      if (g_flags.tenant.empty()) {
        std::fprintf(stderr, "--tenant needs a name\n");
        std::exit(64);
      }
    } else if (std::strncmp(argv[i], "--weight=", 9) == 0) {
      const int w = std::atoi(argv[i] + 9);
      if (w < 0) {
        std::fprintf(stderr, "--weight must be >= 0 (0 = background-only tenant)\n");
        std::exit(64);
      }
      g_flags.weight = uint32_t(w);
    } else if (std::strncmp(argv[i], "--priority=", 11) == 0) {
      g_flags.priority = std::atoi(argv[i] + 11);
    } else if (std::strncmp(argv[i], "--job-name=", 11) == 0) {
      g_flags.job_name = argv[i] + 11;
    } else if (std::strncmp(argv[i], "--max-open=", 11) == 0) {
      g_flags.max_open = std::atoi(argv[i] + 11);
      if (g_flags.max_open < 0 || g_flags.max_open > query::kMaxOpenQubits) {
        std::fprintf(stderr, "--max-open must be in [0, %d]\n", query::kMaxOpenQubits);
        std::exit(64);
      }
    } else if (std::strncmp(argv[i], "--amp-mode=", 11) == 0) {
      g_flags.amp_mode = argv[i] + 11;
      if (g_flags.amp_mode != "exact" && g_flags.amp_mode != "grouped") {
        std::fprintf(stderr, "unknown --amp-mode '%s' (exact|grouped)\n",
                     g_flags.amp_mode.c_str());
        std::exit(64);
      }
    } else if (std::strncmp(argv[i], "--queries=", 10) == 0) {
      g_flags.queries_file = argv[i] + 10;
      if (g_flags.queries_file.empty()) {
        std::fprintf(stderr, "--queries needs a path\n");
        std::exit(64);
      }
    } else if (std::strcmp(argv[i], "--wait") == 0) {
      g_flags.wait = true;
    } else if (std::strcmp(argv[i], "--version") == 0) {
      const auto& b = obs::build_info();
      std::printf("ltns %s\n  compiler: %s\n  flags: %s\n  build type: %s\n", b.version,
                  b.compiler, b.flags, b.build_type);
      std::exit(0);
    } else if (std::strcmp(argv[i], "--no-telemetry") == 0) {
      g_flags.telemetry = false;
    } else {
      rest.push_back(argv[i]);
    }
  }
  // A silently-ignored flag combination is worse than an error: an
  // operator who types --resume without --spill-dir believes the run
  // resumed AND re-armed the journal when neither happened. The checks
  // live in api::validate_options — the same gate the Simulator runs — so
  // the CLI and the API can never drift apart on what is coherent.
  std::string bad = api::validate_options(make_sim_options());
  if (!bad.empty()) {
    std::fprintf(stderr, "%s\n", bad.c_str());
    std::exit(64);
  }
  return rest;
}

// cache::CacheStats -> the obs mirror struct the metrics registry takes.
// Also where ltns_planner_invocations_total comes from: the CI cache job
// asserts it stays flat across a warm run.
obs::CacheSample to_cache_sample(const cache::CacheStats* c) {
  obs::CacheSample s;
  if (c != nullptr) {
    const std::pair<const char*, const cache::TierStats*> tiers[] = {{"plan", &c->plan},
                                                                     {"result", &c->result}};
    for (const auto& [name, t] : tiers) {
      obs::CacheTierSample ts;
      ts.tier = name;
      ts.memory_hits = t->memory_hits;
      ts.disk_hits = t->disk_hits;
      ts.misses = t->misses;
      ts.evictions = t->evictions;
      ts.insertions = t->insertions;
      ts.corrupt_dropped = t->corrupt_dropped;
      ts.disk_bytes_written = t->disk_bytes_written;
      ts.memory_entries = t->memory_entries;
      ts.memory_bytes = t->memory_bytes;
      s.tiers.push_back(ts);
    }
    s.superset_hits = c->superset_hits;
  }
  s.planner_invocations = path::find_path_invocations();
  return s;
}

// query::EngineStats -> the obs mirror struct (obs stays free of query
// headers, so the copy lives with the caller).
obs::QuerySample to_query_sample(const query::EngineStats& e) {
  obs::QuerySample s;
  s.queries = e.queries;
  s.amp_queries = e.amp_queries;
  s.batch_queries = e.batch_queries;
  s.sample_queries = e.sample_queries;
  s.expect_queries = e.expect_queries;
  s.groups = e.groups;
  s.closed_groups = e.closed_groups;
  s.open_groups = e.open_groups;
  s.contractions = e.contractions;
  s.planner_passes = e.planner_passes;
  s.plan_cache_hits = e.plan_cache_hits;
  s.plan_rebuilds = e.plan_rebuilds;
  s.result_cache_hits = e.result_cache_hits;
  s.superset_hits = e.superset_hits;
  s.amplitudes_returned = e.amplitudes_returned;
  s.samples_drawn = e.samples_drawn;
  s.errors = e.errors;
  s.plan_seconds = e.plan_seconds;
  s.exec_seconds = e.exec_seconds;
  return s;
}

// One query answer. Shared by the solo `query` verb and `result` on a
// query job, so the two transports emit the SAME bytes per query — and an
// amp answer's `amplitude = ` line is the exact line a standalone `amp`
// run prints (scripts/query_e2e.sh byte-diffs all three). Returns 1 when
// the answer carries an error.
int print_query_result(const query::QueryResult& r) {
  std::printf("# query %d: %s\n", r.id, r.text.c_str());
  if (!r.error.empty()) {
    std::printf("error: %s\n", r.error.c_str());
    return 1;
  }
  switch (r.kind) {
    case query::QueryKind::kAmplitude:
      std::printf("amplitude = %+.10e %+.10ei  (|a|^2 = %.3e)\n", r.amplitudes[0].real(),
                  r.amplitudes[0].imag(), std::norm(r.amplitudes[0]));
      break;
    case query::QueryKind::kBatch: {
      // Index bits in open-set order, open_qubits[0] most significant —
      // the layout eval.hpp documents.
      int n_open = 0;
      while ((size_t(1) << n_open) < r.amplitudes.size()) ++n_open;
      for (size_t k = 0; k < r.amplitudes.size(); ++k) {
        std::string pattern(size_t(n_open), '0');
        for (int i = 0; i < n_open; ++i)
          if ((k >> (n_open - 1 - i)) & 1) pattern[size_t(i)] = '1';
        std::printf("amplitude[%s] = %+.10e %+.10ei\n", pattern.c_str(), r.amplitudes[k].real(),
                    r.amplitudes[k].imag());
      }
      break;
    }
    case query::QueryKind::kSample:
      for (const auto& s : r.samples) std::printf("%s\n", s.c_str());
      break;
    case query::QueryKind::kExpectation:
      std::printf("expectation = %+.10f\n", r.expectation);
      break;
  }
  return 0;
}

// Post-run observability flush: the merged Chrome trace (local threads +
// any ingested worker chunks) and the final metrics snapshot. Failures are
// reported but never change the exit code — the amplitude already printed.
void flush_observability(const runtime::ExecutorSnapshot& rt, const runtime::MemoryStats& mem,
                         const dist::RebalanceStats& reb, uint64_t tasks_run,
                         uint64_t reduce_merges, double wall_seconds,
                         const cache::CacheStats* cache = nullptr) {
  if (!g_flags.trace_out.empty()) {
    std::string err;
    if (!obs::Tracer::instance().write_chrome_json(g_flags.trace_out, &err))
      std::fprintf(stderr, "trace-out: %s\n", err.c_str());
  }
  if (!g_flags.metrics_out.empty()) {
    obs::MetricsRegistry reg;
    obs::fill_run_metrics(reg, rt, mem, reb, tasks_run, reduce_merges, wall_seconds);
    obs::fill_cache_metrics(reg, to_cache_sample(cache));
    std::string err;
    if (!reg.write_files(g_flags.metrics_out, &err))
      std::fprintf(stderr, "metrics-out: %s\n", err.c_str());
  }
}

void print_shards(const std::vector<dist::ShardTelemetry>& shards) {
  if (!g_flags.telemetry || shards.empty()) return;
  for (const auto& s : shards)
    std::printf("  shard %d [%s]: tasks %llu over %llu leases, wall %.3fs\n", int(s.shard),
                s.backend.empty() ? "host" : s.backend.c_str(), (unsigned long long)s.tasks_run,
                (unsigned long long)s.leases, s.wall_seconds);
}

void print_rebalance(const dist::RebalanceStats& r) {
  if (!g_flags.telemetry || (r.leases_issued == 0 && r.ranges_replayed == 0)) return;
  std::printf("rebalance: %llu leases (%llu completed), %llu stolen, %llu reissued, "
              "%llu requeued, %llu late-dropped, %llu workers lost, straggler wait %.3fs\n",
              (unsigned long long)r.leases_issued, (unsigned long long)r.leases_completed,
              (unsigned long long)r.ranges_stolen, (unsigned long long)r.ranges_reissued,
              (unsigned long long)r.ranges_requeued, (unsigned long long)r.late_results_dropped,
              (unsigned long long)r.workers_lost, r.straggler_wait_seconds);
  if (r.ranges_replayed > 0)
    std::printf("resume: %llu ranges (%llu tasks) replayed from the spill journal\n",
                (unsigned long long)r.ranges_replayed, (unsigned long long)r.tasks_replayed);
}

void print_cache(const cache::CacheStats& c) {
  if (!g_flags.telemetry || c.hits() + c.misses() == 0) return;
  std::printf("cache: plan %llu hits (%llu mem, %llu disk) / %llu misses, "
              "result %llu hits (%llu mem, %llu disk) / %llu misses\n",
              (unsigned long long)c.plan.hits(), (unsigned long long)c.plan.memory_hits,
              (unsigned long long)c.plan.disk_hits, (unsigned long long)c.plan.misses,
              (unsigned long long)c.result.hits(), (unsigned long long)c.result.memory_hits,
              (unsigned long long)c.result.disk_hits, (unsigned long long)c.result.misses);
}

void print_telemetry(const runtime::ExecutorSnapshot& rt, const runtime::MemoryStats& mem) {
  if (!g_flags.telemetry) return;
  std::printf("runtime [%s]: %llu tasks (%llu stolen, %llu cancelled), utilization %.0f%%\n",
              executor_name(g_flags.executor), (unsigned long long)rt.finished,
              (unsigned long long)rt.stolen, (unsigned long long)rt.cancelled,
              100 * rt.ema_utilization);
  std::printf("  phases: gemm %.3fs (%llu), permute %.3fs (%llu), reduce %.3fs (%llu merges)\n",
              rt.gemm.seconds, (unsigned long long)rt.gemm.count, rt.permute.seconds,
              (unsigned long long)rt.permute.count, rt.reduce.seconds,
              (unsigned long long)rt.reduce.count);
  std::printf("  memory: main %.3g B, LDM get/put %.3g/%.3g B, RMA %.3g B, "
              "LDM peak %zu elems, host peak %zu elems\n",
              mem.main_bytes, mem.scratch_bytes_get, mem.scratch_bytes_put, mem.rma_bytes,
              mem.ldm_peak_elems, mem.host_peak_elems);
  const auto& d = rt.device;
  if (d.kernel_calls() > 0 || d.stem_steps > 0)
    std::printf("  device [%s]: gemm %llu, permute %llu, stem steps %llu, "
                "to-device %.3g B / %.3g ms, to-host %.3g B / %.3g ms\n",
                g_flags.backend.c_str(), (unsigned long long)d.gemm_calls,
                (unsigned long long)d.permute_calls, (unsigned long long)d.stem_steps,
                d.bytes_to_device, d.ns_to_device / 1e6, d.bytes_to_host, d.ns_to_host / 1e6);
}

// The submit verb ships the circuit VERBATIM (the server and every fleet
// worker re-plan from the same text — that textual identity is what makes a
// service job byte-identical to a solo run), so it loads raw text, not a
// parsed Circuit.
std::string load_circuit_text(const char* path) {
  std::ostringstream text;
  if (std::strcmp(path, "-") == 0) {
    text << std::cin.rdbuf();
  } else {
    std::ifstream f(path);
    if (!f) {
      std::fprintf(stderr, "cannot open '%s'\n", path);
      std::exit(2);
    }
    text << f.rdbuf();
  }
  return text.str();
}

circuit::Circuit load_circuit(const char* path) {
  if (std::strcmp(path, "-") == 0) return circuit::read_circuit(std::cin);
  std::ifstream f(path);
  if (!f) {
    std::fprintf(stderr, "cannot open '%s'\n", path);
    std::exit(2);
  }
  return circuit::read_circuit(f);
}

int cmd_gen(int argc, char** argv, bool sycamore) {
  circuit::RqcOptions rqc;
  circuit::Device dev;
  int base;
  if (sycamore) {
    if (argc < 3) return 64;
    dev = circuit::Device::sycamore53();
    rqc.cycles = std::atoi(argv[2]);
    base = 3;
  } else {
    if (argc < 5) return 64;
    dev = circuit::Device::grid(std::atoi(argv[2]), std::atoi(argv[3]));
    rqc.cycles = std::atoi(argv[4]);
    base = 5;
  }
  if (argc > base) rqc.seed = uint64_t(std::atoll(argv[base]));
  circuit::write_circuit(std::cout, circuit::random_quantum_circuit(dev, rqc));
  return 0;
}

int cmd_plan(int argc, char** argv) {
  if (argc < 3) return 64;
  auto circ = load_circuit(argv[2]);
  const double depth = argc > 3 ? std::atof(argv[3]) : 12;

  auto ln = circuit::lower(circ);
  circuit::simplify(ln);
  std::printf("circuit: %d qubits, %zu gates -> %d tensors / %d indices\n", circ.num_qubits,
              circ.ops.size(), ln.net.num_alive_vertices(), ln.net.num_alive_edges());

  core::PlanOptions po;
  po.path.greedy_trials = 32;
  po.path.partition_trials = 8;
  auto probe = path::find_path(ln.net, po.path);
  po.target_log2size = std::max(4.0, probe.log2size - depth);
  auto plan = core::make_plan(ln.net, po, std::move(probe));
  std::printf("path %s: cost 2^%.2f flops, max tensor 2^%.1f\n", plan.path_method.c_str(),
              plan.tree->total_log2cost(), plan.tree->max_log2size());
  std::printf("stem: %d tensors (%.1f%% of flops)\n", plan.stem.length(),
              100 * plan.stem.cost_fraction());
  std::printf("slicing: %d edges -> %.0f subtasks, overhead %.4f, sliced max 2^%.1f\n",
              plan.num_slices(), plan.num_subtasks(), plan.metrics.overhead(),
              plan.metrics.max_log2size);
  return 0;
}

int cmd_amp(int argc, char** argv) {
  if (argc < 4) return 64;
  auto circ = load_circuit(argv[2]);
  const char* bitstr = argv[3];
  if (int(std::strlen(bitstr)) != circ.num_qubits) {
    std::fprintf(stderr, "bitstring must have %d bits\n", circ.num_qubits);
    return 2;
  }
  std::vector<int> bits(size_t(circ.num_qubits));
  for (int q = 0; q < circ.num_qubits; ++q) bits[size_t(q)] = bitstr[q] == '1';

  api::Simulator sim(circ, make_sim_options());
  auto res = sim.amplitude(bits);
  const auto& tel = res.telemetry;
  if (!tel.error.empty()) {
    std::fprintf(stderr, "sharded run failed: %s\n", tel.error.c_str());
    return 1;
  }
  std::printf("amplitude = %+.10e %+.10ei  (|a|^2 = %.3e)\n", res.amplitude.real(),
              res.amplitude.imag(), std::norm(res.amplitude));
  std::printf("slices %d, overhead %.4f, flops %.3g\n", res.num_slices, res.slicing.overhead(),
              tel.stats.flops);
  const auto cstats = sim.cache_stats();
  print_telemetry(tel.runtime_stats, tel.memory);
  print_shards(tel.shards);
  print_rebalance(tel.rebalance);
  print_cache(cstats);
  flush_observability(tel.runtime_stats, tel.memory, tel.rebalance, tel.runtime_stats.finished,
                      tel.runtime_stats.reduce.count, res.exec_seconds, &cstats);
  if (circ.num_qubits <= 22) {
    auto exact = sv::simulate_amplitude(circ, bits);
    std::printf("statevector check: |diff| = %.3g\n", std::abs(res.amplitude - exact));
  }
  return 0;
}

int cmd_sample(int argc, char** argv) {
  if (argc < 5) return 64;
  auto circ = load_circuit(argv[2]);
  const int n_open = std::atoi(argv[3]);
  const int n_samples = std::atoi(argv[4]);
  if (n_open < 1 || n_open > 20 || n_open > circ.num_qubits) {
    std::fprintf(stderr, "n_open out of range\n");
    return 2;
  }
  std::vector<int> bits(size_t(circ.num_qubits), 0);
  std::vector<int> open;
  for (int i = 0; i < n_open; ++i) open.push_back(i * circ.num_qubits / n_open);

  api::Simulator sim(circ, make_sim_options());
  Timer wall;
  auto batch = sim.batch_amplitudes(bits, open);
  const double wall_seconds = wall.seconds();
  const auto& tel = batch.telemetry;
  if (!tel.error.empty()) {
    std::fprintf(stderr, "sharded run failed: %s\n", tel.error.c_str());
    return 1;
  }
  auto samples = api::Simulator::sample_from_batch(batch, n_samples, 7);
  std::printf("# open qubits:");
  for (int q : open) std::printf(" %d", q);
  std::printf("\n");
  const auto cstats = sim.cache_stats();
  print_telemetry(tel.runtime_stats, tel.memory);
  print_shards(tel.shards);
  print_rebalance(tel.rebalance);
  print_cache(cstats);
  flush_observability(tel.runtime_stats, tel.memory, tel.rebalance,
                      tel.runtime_stats.finished, tel.runtime_stats.reduce.count,
                      wall_seconds, &cstats);
  for (auto s : samples) {
    for (int i = 0; i < n_open; ++i) std::putchar('0' + char((s >> (n_open - 1 - i)) & 1));
    std::putchar('\n');
  }
  return 0;
}

// Batched query engine (docs/queries.md): a whole query file against ONE
// circuit, answered through shared contractions and streamed per query as
// its group completes. All run flags apply — --processes shards each
// group's contraction, --cache-dir shares plans and results with
// amp/sample/serve. "-" reads the query file from stdin.
int cmd_query(int argc, char** argv) {
  if (argc < 4) return 64;
  auto circ = load_circuit(argv[2]);
  const auto parsed = query::parse_queries(load_circuit_text(argv[3]), circ.num_qubits);
  if (!parsed.ok()) {
    // parse_queries also rejects an EMPTY file, so parsed.queries is
    // non-empty past this point.
    std::fprintf(stderr, "query file: %s\n", parsed.error.c_str());
    return 2;
  }

  api::Simulator sim(circ, make_sim_options());
  query::EngineOptions eo;
  eo.max_open = g_flags.max_open;
  eo.group_amplitudes = g_flags.amp_mode == "grouped";
  query::Engine engine(sim, eo);

  Timer wall;
  int errors = 0;
  const auto st = engine.run(parsed.queries, [&](const query::QueryResult& r) {
    errors += print_query_result(r);
  });
  const double wall_seconds = wall.seconds();

  // The acceptance invariant is readable straight off this line:
  // contractions < queries whenever grouping shared any work.
  std::printf("# queries %llu -> groups %llu (%llu closed, %llu open), contractions %llu\n",
              (unsigned long long)st.queries, (unsigned long long)st.groups,
              (unsigned long long)st.closed_groups, (unsigned long long)st.open_groups,
              (unsigned long long)st.contractions);
  std::printf("# plans: %llu planned, %llu cached, %llu rebuilt; reuse: %llu exact, "
              "%llu superset; wall %.3fs (plan %.3fs, exec %.3fs)\n",
              (unsigned long long)st.planner_passes, (unsigned long long)st.plan_cache_hits,
              (unsigned long long)st.plan_rebuilds, (unsigned long long)st.result_cache_hits,
              (unsigned long long)st.superset_hits, wall_seconds, st.plan_seconds,
              st.exec_seconds);
  const auto cstats = sim.cache_stats();
  print_cache(cstats);

  if (!g_flags.trace_out.empty()) {
    std::string err;
    if (!obs::Tracer::instance().write_chrome_json(g_flags.trace_out, &err))
      std::fprintf(stderr, "trace-out: %s\n", err.c_str());
  }
  if (!g_flags.metrics_out.empty()) {
    obs::MetricsRegistry reg;
    obs::fill_query_metrics(reg, to_query_sample(st));
    obs::fill_cache_metrics(reg, to_cache_sample(&cstats));
    std::string err;
    if (!reg.write_files(g_flags.metrics_out, &err))
      std::fprintf(stderr, "metrics-out: %s\n", err.c_str());
  }
  return errors > 0 ? 1 : 0;
}

// Multi-host mode: `coordinate` shards one amplitude job across `nworkers`
// TCP workers (started separately with `worker`) and prints the same
// amplitude line as `amp`, so the two paths can be diffed byte-for-byte.
int cmd_coordinate(int argc, char** argv) {
  // Status probe: `coordinate --status <host> <port>` asks a live
  // coordinator for its lease/heartbeat state (debugging hung fleets).
  if (argc >= 3 && std::strcmp(argv[2], "--status") == 0) {
    if (argc < 5) return 64;
    const int port = std::atoi(argv[4]);
    if (port <= 0 || port > 65535) return 64;
    try {
      std::printf("%s\n", dist::query_status(argv[3], uint16_t(port)).c_str());
      return 0;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return 1;
    }
  }
  if (argc < 6) return 64;
  const int port = std::atoi(argv[2]);
  const int nworkers = std::atoi(argv[3]);
  if (port < 0 || port > 65535 || nworkers < 1) return 64;
  auto circ = load_circuit(argv[4]);
  const char* bitstr = argv[5];
  if (int(std::strlen(bitstr)) != circ.num_qubits) {
    std::fprintf(stderr, "bitstring must have %d bits\n", circ.num_qubits);
    return 2;
  }
  std::vector<int> bits(size_t(circ.num_qubits));
  for (int q = 0; q < circ.num_qubits; ++q) bits[size_t(q)] = bitstr[q] == '1';

  // The same engine as `serve`, on this port, running one job.
  dist::ServerOptions so;
  so.home_workers = nworkers;
  so.lease_size = g_flags.lease;
  so.heartbeat_seconds = g_flags.heartbeat;
  so.stall_timeout_seconds = g_flags.stall_timeout;
  so.accept_timeout_seconds = 300;  // fail rather than hang with no worker
  so.fsync_seconds = g_flags.spill_fsync;
  so.workers_per_process = g_flags.workers;
  so.executor = uint32_t(g_flags.executor);
  so.grain = g_flags.grain;
  so.backend = effective_backend();
  so.metrics_out = g_flags.metrics_out;
  so.metrics_interval_seconds = g_flags.metrics_interval;
  dist::JobSpec spec;
  spec.circuit_text = circuit::circuit_to_string(circ);
  spec.bits = bitstr;
  spec.target_log2size = g_flags.target;
  Timer wall;
  dist::JobServer engine{uint16_t(port), so};
  std::fprintf(stderr, "coordinator listening on port %u, leasing to %d home workers\n",
               unsigned(engine.port()), nworkers);
  const auto res = dist::coordinate(engine, spec, g_flags.spill_dir, g_flags.resume,
                                    !g_flags.trace_out.empty());
  if (!res.run.error.empty()) {
    std::fprintf(stderr, "distributed run failed: %s\n", res.run.error.c_str());
    return 1;
  }
  const auto& tel = res.run.telemetry;
  std::printf("amplitude = %+.10e %+.10ei  (|a|^2 = %.3e)\n", res.amplitude.real(),
              res.amplitude.imag(), std::norm(res.amplitude));
  std::printf("slices %d, tasks %llu over %d workers\n", res.num_slices,
              (unsigned long long)res.run.tasks_run, nworkers);
  print_shards(tel.shards);
  print_rebalance(tel.rebalance);
  flush_observability(tel.runtime_stats, tel.memory, tel.rebalance, res.run.tasks_run,
                      res.run.reduce_merges, wall.seconds());
  if (circ.num_qubits <= 22) {
    auto exact = sv::simulate_amplitude(circ, bits);
    std::printf("statevector check: |diff| = %.3g\n", std::abs(res.amplitude - exact));
  }
  return 0;
}

int cmd_worker(int argc, char** argv) {
  if (argc < 4) return 64;
  const int port = std::atoi(argv[3]);
  if (port <= 0 || port > 65535) return 64;
  // An EXPLICIT --backend on a worker overrides the job's default: each
  // node runs the backend its hardware has (the heterogeneous-fleet knob).
  // Without the flag the worker follows the coordinator's job.
  const int rc = dist::serve_worker(argv[2], uint16_t(port),
                                    g_flags.backend_set ? g_flags.backend : std::string{});
  // A worker given --trace-out also keeps a local copy of its own lane —
  // the coordinator still gets the kTrace chunk for the merged timeline.
  if (!g_flags.trace_out.empty() && obs::Tracer::instance().enabled()) {
    std::string err;
    if (!obs::Tracer::instance().write_chrome_json(g_flags.trace_out, &err))
      std::fprintf(stderr, "trace-out: %s\n", err.c_str());
  }
  return rc;
}

// --- multi-tenant service verbs (dist/server.hpp + dist/client.hpp) --------

int cmd_serve(int argc, char** argv) {
  if (argc < 3) return 64;
  const int port = std::atoi(argv[2]);
  if (port < 0 || port > 65535) return 64;
  dist::ServerOptions so;
  so.state_dir = g_flags.state_dir;
  // --processes picks the notional home-window count of every job's lease
  // ledger (the fleet itself grows and shrinks freely).
  so.home_workers = std::max(2, g_flags.processes);
  so.lease_size = g_flags.lease;
  so.heartbeat_seconds = g_flags.heartbeat;
  so.stall_timeout_seconds = g_flags.stall_timeout;
  so.fsync_seconds = g_flags.spill_fsync;
  so.workers_per_process = g_flags.workers;
  so.executor = uint32_t(g_flags.executor);
  so.grain = g_flags.grain;
  so.backend = effective_backend();
  so.metrics_out = g_flags.metrics_out;
  so.metrics_interval_seconds = g_flags.metrics_interval;
  so.admission.max_queued = size_t(g_flags.max_queue);
  so.admission.max_running = g_flags.max_running;
  // The server only engages the cache with a persistent tier behind it: a
  // memory-only cache inside a long-lived daemon would claim fingerprints
  // that silently vanish on restart. Explicit cache flags without
  // --cache-dir are therefore a refused combination, not a quiet no-op.
  if (g_flags.cache_dir.empty() &&
      (g_flags.plan_cache >= 0 || g_flags.result_cache >= 0 || g_flags.cache_readonly)) {
    std::fprintf(stderr, "serve: cache flags require --cache-dir (a memory-only cache in a "
                         "persistent daemon would vanish on restart)\n");
    return 64;
  }
  so.cache.cache_dir = g_flags.cache_dir;
  if (g_flags.plan_cache >= 0) so.cache.plan_cache_entries = size_t(g_flags.plan_cache);
  if (g_flags.result_cache >= 0) so.cache.result_cache_entries = size_t(g_flags.result_cache);
  so.cache.read_only = g_flags.cache_readonly;
  try {
    dist::JobServer server{uint16_t(port), so};
    std::fprintf(stderr, "job server listening on port %u%s\n", unsigned(server.port()),
                 g_flags.state_dir.empty() ? " (volatile: no --state-dir)" : "");
    const auto err = server.serve();
    if (!err.empty()) {
      std::fprintf(stderr, "job server failed: %s\n", err.c_str());
      return 1;
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }
}

int cmd_submit(int argc, char** argv) {
  const bool query_job = !g_flags.queries_file.empty();
  if (argc < (query_job ? 5 : 6)) return 64;
  if (query_job && argc > 5) {
    std::fprintf(stderr, "submit --queries=FILE takes no bitstring argument\n");
    return 64;
  }
  const int port = std::atoi(argv[3]);
  if (port <= 0 || port > 65535) return 64;
  dist::JobSpec spec;
  spec.name = g_flags.job_name;
  spec.tenant = g_flags.tenant;
  spec.weight = g_flags.weight;
  spec.priority = g_flags.priority;
  spec.circuit_text = load_circuit_text(argv[4]);
  spec.target_log2size = g_flags.target;
  // --precision and a +bf16 suffix on --backend are the same request; the
  // server folds spec.precision into its own backend choice (wire v7).
  spec.precision =
      exec::precision_name(device::parse_backend_spec(effective_backend()).precision);
  if (query_job) {
    // Kind "query": the whole query file rides in the spec; bits carries
    // the all-zero base string (its length tells the server the qubit
    // count), so the circuit must parse client-side.
    spec.kind = "query";
    spec.query_text = load_circuit_text(g_flags.queries_file.c_str());
    spec.max_open = g_flags.max_open;
    spec.amp_mode = g_flags.amp_mode;
    try {
      std::istringstream in(spec.circuit_text);
      const auto circ = circuit::read_circuit(in);
      spec.bits.assign(size_t(circ.num_qubits), '0');
    } catch (const std::exception& e) {
      std::fprintf(stderr, "cannot parse circuit: %s\n", e.what());
      return 2;
    }
  } else {
    spec.bits = argv[5];
    for (char c : spec.bits) {
      if (c != '0' && c != '1') {
        std::fprintf(stderr, "bitstring must be 0s and 1s\n");
        return 2;
      }
    }
  }
  try {
    auto rep = dist::submit_job(argv[2], uint16_t(port), spec);
    if (!rep.ok) {
      std::fprintf(stderr, "rejected: %s\n", rep.message.c_str());
      return 1;
    }
    std::printf("job %llu %s (tenant %s, weight %u, priority %d)\n",
                (unsigned long long)rep.job_id, rep.message.c_str(), spec.tenant.c_str(),
                spec.weight, spec.priority);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }
}

int cmd_status(int argc, char** argv) {
  if (argc < 4) return 64;
  const int port = std::atoi(argv[3]);
  if (port <= 0 || port > 65535) return 64;
  const uint64_t job_id = argc > 4 ? uint64_t(std::atoll(argv[4])) : 0;
  try {
    std::printf("%s\n", dist::job_status_json(argv[2], uint16_t(port), job_id).c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }
}

int cmd_cancel(int argc, char** argv) {
  if (argc < 5) return 64;
  const int port = std::atoi(argv[3]);
  if (port <= 0 || port > 65535) return 64;
  try {
    auto rep = dist::cancel_job(argv[2], uint16_t(port), uint64_t(std::atoll(argv[4])));
    std::fprintf(rep.ok ? stdout : stderr, "%s\n", rep.message.c_str());
    return rep.ok ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }
}

int cmd_result(int argc, char** argv) {
  if (argc < 5) return 64;
  const int port = std::atoi(argv[3]);
  if (port <= 0 || port > 65535) return 64;
  try {
    auto rec =
        dist::fetch_result(argv[2], uint16_t(port), uint64_t(std::atoll(argv[4])), g_flags.wait);
    if (rec.state != dist::JobState::kDone) {
      std::fprintf(stderr, "job %llu %s: %s\n", (unsigned long long)rec.job_id,
                   dist::job_state_name(rec.state), rec.error.c_str());
      return 1;
    }
    if (rec.kind == "query") {
      // Per-query blocks in file order, through the SAME printer the solo
      // `query` verb uses — a served query job's amplitude lines byte-match
      // both the solo query run and standalone `amp` runs.
      int errors = 0;
      for (const auto& q : rec.query_results) errors += print_query_result(q);
      std::printf("# queries %zu, wall %.3fs\n", rec.query_results.size(), rec.wall_seconds);
      print_telemetry(rec.telemetry.runtime_stats, rec.telemetry.memory);
      print_shards(rec.telemetry.shards);
      print_rebalance(rec.telemetry.rebalance);
      return errors > 0 ? 1 : 0;
    }
    const std::complex<double> amp(rec.amplitude_re, rec.amplitude_im);
    // The exact line `amp`/`coordinate` print — the service e2e byte-diffs
    // a job's amplitude against a solo run's.
    std::printf("amplitude = %+.10e %+.10ei  (|a|^2 = %.3e)\n", amp.real(), amp.imag(),
                std::norm(amp));
    std::printf("slices %d, tasks %llu, wall %.3fs\n", rec.num_slices,
                (unsigned long long)rec.tasks_run, rec.wall_seconds);
    print_telemetry(rec.telemetry.runtime_stats, rec.telemetry.memory);
    print_shards(rec.telemetry.shards);
    print_rebalance(rec.telemetry.rebalance);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }
}

int cmd_shutdown(int argc, char** argv) {
  if (argc < 4) return 64;
  const int port = std::atoi(argv[3]);
  if (port <= 0 || port > 65535) return 64;
  try {
    auto rep = dist::shutdown_server(argv[2], uint16_t(port));
    std::fprintf(rep.ok ? stdout : stderr, "%s\n", rep.message.c_str());
    return rep.ok ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }
}

}  // namespace

int main(int raw_argc, char** raw_argv) {
  auto args = parse_runtime_flags(raw_argc, raw_argv);
  int argc = int(args.size());
  char** argv = args.data();
  // Arm the tracer before any run starts: this process records as the
  // coordinator lane (rank -1 -> pid 0); forked shard workers re-home
  // themselves after the fork and a TCP worker takes the rank its job
  // assigns (see src/obs/trace.hpp).
  if (!g_flags.trace_out.empty()) {
    const bool is_worker = argc >= 2 && std::strcmp(argv[1], "worker") == 0;
    obs::Tracer::instance().enable(is_worker ? 0 : -1);
  }
  // Usage sections mirror the api::SimulatorOptions nesting: run-level
  // knobs, then sharding.*, durability.*, observability.*, and the service
  // flags the options structs don't cover.
  if (argc < 2 || std::strcmp(argv[1], "--help") == 0 || std::strcmp(argv[1], "help") == 0) {
    std::fprintf(stderr,
                 "usage: ltns_cli <verb> [args] [flags]\n"
                 "\n"
                 "circuits:\n"
                 "  gen <rows> <cols> <cycles> [seed]       emit a random circuit\n"
                 "  gen-sycamore <cycles> [seed]            emit a Sycamore-53 circuit\n"
                 "  plan <circuit|-> [depth]                path + lifetime slicing report\n"
                 "\n"
                 "one-shot runs:\n"
                 "  amp|run <circuit|-> <bitstring>         one amplitude (sv check <= 22q)\n"
                 "  sample <circuit|-> <n_open> <n_samples> correlated samples\n"
                 "  query <circuit|-> <queries|->           batched queries over one planned\n"
                 "                                          circuit (docs/queries.md)\n"
                 "  coordinate <port> <n> <circuit|-> <bits> shard one job over TCP workers\n"
                 "  coordinate --status <host> <port>       live lease state as JSON\n"
                 "  worker <host> <port>                    serve a coordinator OR a fleet\n"
                 "\n"
                 "multi-tenant service (docs/service.md):\n"
                 "  serve <port>                            persistent fair-share job server\n"
                 "  submit <host> <port> <circuit|-> <bits> queue a job, print its id\n"
                 "  status <host> <port> [job-id]           server (or one job) JSON\n"
                 "  cancel <host> <port> <job-id>           cancel a queued/running job\n"
                 "  result <host> <port> <job-id> [--wait]  fetch (or await) a result\n"
                 "  shutdown <host> <port>                  drain the fleet and exit\n"
                 "\n"
                 "run flags:\n"
                 "  --runtime=ws|static|serial --grain=N\n"
                 "  --backend=SPEC  host|simd with optional +fp32|+bf16 suffix\n"
                 "                  (help lists capabilities; docs/kernels.md)\n"
                 "  --precision=fp32|bf16   GEMM operand precision (default fp32)\n"
                 "  --target=N   planner slicing bound, log2 elems (default 16)\n"
                 "query (docs/queries.md):\n"
                 "  --max-open=N       batch-group merge bound (default 6)\n"
                 "  --amp-mode=exact|grouped   amp answers byte-match solo runs (exact,\n"
                 "                     default) or may slice from grouped batches\n"
                 "sharding (options.sharding):\n"
                 "  --processes=N --workers=N --lease=N --heartbeat=S\n"
                 "  --stall-timeout=S\n"
                 "durability (options.durability):\n"
                 "  --spill-dir=PATH --resume --spill-fsync=S\n"
                 "cache (options.cache, docs/caching.md):\n"
                 "  --cache-dir=PATH   persistent plan/result store (amp/sample/serve share it)\n"
                 "  --plan-cache=N --result-cache=N   LRU entries (0 disables that cache)\n"
                 "  --cache-readonly   consult but never write the on-disk store\n"
                 "observability (options.observability):\n"
                 "  --trace-out=PATH --metrics-out=PATH --metrics-interval=S --no-telemetry\n"
                 "service:\n"
                 "  serve:  --state-dir=PATH --max-queue=N --max-running=N\n"
                 "  submit: --tenant=NAME --weight=N --priority=N --job-name=NAME\n"
                 "          --queries=FILE  queue the query file as one batched job\n"
                 "                          (then no <bits> argument; docs/queries.md)\n"
                 "  result: --wait\n"
                 "misc:\n"
                 "  --version --help\n");
    return argc < 2 ? 64 : 0;
  }
  std::string cmd = argv[1];
  int rc = 64;
  if (cmd == "gen") rc = cmd_gen(argc, argv, false);
  else if (cmd == "gen-sycamore") rc = cmd_gen(argc, argv, true);
  else if (cmd == "plan") rc = cmd_plan(argc, argv);
  else if (cmd == "amp" || cmd == "run") rc = cmd_amp(argc, argv);
  else if (cmd == "sample") rc = cmd_sample(argc, argv);
  else if (cmd == "query") rc = cmd_query(argc, argv);
  else if (cmd == "coordinate") rc = cmd_coordinate(argc, argv);
  else if (cmd == "worker") rc = cmd_worker(argc, argv);
  else if (cmd == "serve") rc = cmd_serve(argc, argv);
  else if (cmd == "submit") rc = cmd_submit(argc, argv);
  else if (cmd == "status") rc = cmd_status(argc, argv);
  else if (cmd == "cancel") rc = cmd_cancel(argc, argv);
  else if (cmd == "result") rc = cmd_result(argc, argv);
  else if (cmd == "shutdown") rc = cmd_shutdown(argc, argv);
  if (rc == 64) std::fprintf(stderr, "bad arguments; run `ltns_cli --help` for usage\n");
  return rc;
}

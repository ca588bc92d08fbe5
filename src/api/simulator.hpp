// Simulator: the public facade tying the whole pipeline together.
//
//   circuit -> lower -> simplify -> plan (path + lifetime slicing)
//           -> execute (step-by-step or fused/secondary-slicing)
//           -> amplitude / correlated-sample batch
//
// This is the API the examples use; everything underneath is reachable for
// users who need the pieces (e.g. to swap the slicer, as the benches do).
#pragma once

#include <complex>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "api/telemetry.hpp"
#include "cache/options.hpp"
#include "circuit/lowering.hpp"
#include "core/planner.hpp"
#include "exec/shard_runner.hpp"
#include "exec/slice_runner.hpp"

namespace ltns::cache {
class PlanCache;
class ResultCache;
struct BatchEntry;
}  // namespace ltns::cache

namespace ltns::api {

// Multi-process sharding knobs. processes > 1 forks worker processes that
// lease bounded ranges of the 2^|S| subtasks from a coordinator queue
// (exec::run_sharded) — idle workers steal a straggler's untouched ranges
// and a dead worker's leases are requeued — and merges the partials in
// fixed tournament order, so the result is bitwise identical to an
// in-process run.
struct ShardingOptions {
  int processes = 1;
  int workers_per_process = 0;        // scheduler width per worker; 0 = hw/processes
  uint64_t lease_size = 0;            // tasks per lease; 0 = auto
  double heartbeat_seconds = 0.2;     // worker liveness period
  double stall_timeout_seconds = 30;  // silent-with-leases -> revoke + requeue
};

// Durable run ledger: journal every completed lease range to
// `<spill_dir>/ledger.journal` (fsync'd every `fsync_seconds`; <= 0 =
// after every record). With `resume`, an existing
// journal for the SAME job (circuit + bits + plan knobs are fingerprinted)
// is replayed first, so a run whose coordinator crashed continues where
// the journal ends and still produces output bitwise identical to an
// uninterrupted run. A spill dir routes even a 1-process run through the
// shard driver, whose lease ledger is what journals. See
// docs/operations.md.
struct DurabilityOptions {
  std::string spill_dir;
  bool resume = false;
  double fsync_seconds = 0;
};

// Live-metrics snapshot of sharded runs: the coordinator writes
// `metrics_out` (ltns.metrics.v1 JSON + a .prom twin for scrapers) every
// `metrics_interval_seconds` while the run is live, and once more at the
// end. <= 0 disables. Event tracing needs no option here — arming
// obs::Tracer before the run is process-global, and forked workers re-home
// themselves automatically (see src/obs/trace.hpp).
struct ObservabilityOptions {
  std::string metrics_out;
  double metrics_interval_seconds = 0;
};

struct SimulatorOptions {
  core::PlanOptions plan;
  bool fused = true;              // secondary-slicing executor on the stem
  size_t ldm_elems = 32768;       // LDM model capacity: 256 KB / 8 B
  // Slice-subtask runtime: work stealing by default; the static ThreadPool
  // partition and the legacy inner-pool mode remain selectable fallbacks.
  exec::SliceExecutor executor = exec::SliceExecutor::kWorkStealing;
  ThreadPool* pool = nullptr;     // kInnerPool/kStaticPool; defaults to global
  runtime::SliceScheduler* scheduler = nullptr;  // kWorkStealing; defaults to global
  uint64_t grain = 1;             // scheduler chunk size (tasks per pop)
  // Device backend the kernels run on: "host" or "simd" (two names for the
  // same runtime-dispatched vector tiers), optionally with a "+fp32"/"+bf16"
  // precision suffix. Every tier is bitwise identical at a given
  // precision, so results never depend on this choice;
  // device::make_backend throws std::invalid_argument for unknown names.
  // In sharded runs each worker process constructs its own instance of
  // this backend after the fork.
  std::string backend = "host";
  // GEMM operand precision: "fp32" (default; bitwise contract) or "bf16"
  // (mixed precision: bf16 operands, fp32 accumulation — deterministic,
  // ULP-bounded vs fp32; see docs/kernels.md). Folded into the backend
  // spec; an explicit "+fp32" suffix on `backend` conflicts with "bf16"
  // here and is rejected by validate_options.
  std::string precision = "fp32";
  ShardingOptions sharding;
  DurabilityOptions durability;
  ObservabilityOptions observability;
  // Content-addressed plan & result cache (src/cache/): in-memory LRU
  // tiers by default, persistent across processes with `cache_dir` set.
  cache::CacheOptions cache;
};

// One shared gate for the flag combinations that would otherwise be
// silently ignored (resume without a spill dir, a metrics cadence with
// nowhere to write). Returns the error
// text, empty when the options are coherent. Both the CLI (at parse time,
// exit 64) and Simulator::amplitude/batch_amplitudes (as the result's
// `telemetry.error`) call this, so the two layers can never drift.
std::string validate_options(const SimulatorOptions& opt);

// The backend spec a run actually constructs: `opt.backend` with
// `opt.precision` folded in ("simd" + "bf16" -> "simd+bf16"). This is the
// string that travels to forked shard workers and remote jobs.
std::string effective_backend_spec(const SimulatorOptions& opt);

struct AmplitudeResult {
  std::complex<double> amplitude{0, 0};
  // False when the run was cancelled mid-flight; `amplitude` is then 0 and
  // must not be read as the answer.
  bool completed = false;
  core::SlicedMetrics slicing;
  int num_slices = 0;
  // True when the answer came out of the result cache (no contraction ran).
  bool from_cache = false;
  RunTelemetry telemetry;  // shared tail; `telemetry.error` on failure
  double plan_seconds = 0;
  double exec_seconds = 0;
};

struct BatchResult {
  // amplitudes[k] is the amplitude whose open-qubit bits are the binary
  // digits of k (open_qubits[0] = most significant).
  std::vector<std::complex<double>> amplitudes;
  bool completed = false;  // false: cancelled mid-flight, amplitudes empty
  std::vector<int> open_qubits;
  core::SlicedMetrics slicing;
  // True when the answer came out of the result cache (no contraction ran).
  bool from_cache = false;
  RunTelemetry telemetry;  // shared tail; `telemetry.error` on failure
};

// A resolved, reusable plan: the output of Simulator::prepare(), accepted
// by amplitude()/batch_amplitudes() so many queries share one planning
// pass. The underlying state (lowered network + plan) is heap-allocated
// and pinned — the plan's ContractionTree stores a raw pointer into the
// lowered network, so the state must never move after planning (the same
// rule dist::prepare_job documents). The handle itself is a shared_ptr
// wrapper: cheap to copy, safe to move, shareable across queries.
class PreparedPlan {
 public:
  PreparedPlan() = default;  // invalid until assigned from prepare()

  bool valid() const { return state_ != nullptr; }
  const std::vector<int>& bits() const;
  const std::vector<int>& open_qubits() const;
  int num_slices() const;
  const core::SlicedMetrics& slicing() const;
  double plan_seconds() const;
  // True when the plan came out of the cache (src/path/ never ran).
  bool plan_from_cache() const;
  // The content-addressed key this plan is filed under: circuit, open
  // positions and plan knobs, equal across bit values.
  const std::string& plan_cache_key() const;

 private:
  friend class Simulator;
  struct State;
  std::shared_ptr<const State> state_;
};

class Simulator {
 public:
  explicit Simulator(circuit::Circuit c, SimulatorOptions opt = {});

  const circuit::Circuit& circuit() const { return circuit_; }
  const SimulatorOptions& options() const { return opt_; }

  // Resolves the plan for one output configuration: lower -> simplify ->
  // plan cache lookup, falling back to make_plan (and populating the
  // cache). The plan key covers the circuit, the open-qubit POSITIONS and
  // the plan knobs but not the bit values (lowering is value-blind), so
  // after the first plan for a circuit shape every other bitstring with
  // the same open set is a plan-cache hit. The returned handle can be
  // passed to amplitude() / batch_amplitudes() any number of times.
  PreparedPlan prepare(const std::vector<int>& bits,
                       const std::vector<int>& open_qubits = {}) const;

  // Re-targets an already-resolved plan at a DIFFERENT output bitstring
  // with the SAME open-qubit set: lowers the new network and rebuilds
  // `rep`'s encoded plan over it (cache::decode_plan) — the planner never
  // runs, because lowering is value-blind across output bit values. The
  // query engine resolves each open-set signature once and re-targets it
  // for every later group; this works with the plan cache disabled too.
  // Nothing is inserted into the plan cache: the re-targeted plan's key is
  // `rep`'s key, which already holds it. Returns an invalid handle when
  // `rep` is invalid, its open set differs, or the rebuild does not fit
  // (caller falls back to prepare()).
  PreparedPlan prepare_like(const PreparedPlan& rep, const std::vector<int>& bits,
                            const std::vector<int>& open_qubits) const;

  // Single closed amplitude <bits|C|0...0>. Prepares internally (through
  // the plan cache, so only the first bitstring of a circuit plans); a
  // cached completed result, keyed on the bit values, returns without
  // planning or contraction.
  AmplitudeResult amplitude(const std::vector<int>& bits) const;
  // Same query against an already-prepared plan (must have been prepared
  // with empty open_qubits).
  AmplitudeResult amplitude(const PreparedPlan& plan) const;

  // Correlated batch: qubits in `open_qubits` are left open, the rest fixed
  // to `bits`; one contraction yields all 2^|open| amplitudes (§6.2's "1M
  // correlated samples" method).
  BatchResult batch_amplitudes(const std::vector<int>& bits,
                               const std::vector<int>& open_qubits) const;
  BatchResult batch_amplitudes(const PreparedPlan& plan) const;

  // Draws `n` samples of the open qubits from the batch distribution
  // |amplitude|^2 (renormalized over the batch). Delegates to
  // query::sample_from_amplitudes — platform-stable xoshiro256** RNG over
  // a fixed-order prefix-sum CDF, so the sample stream is byte-reproducible
  // across runs, hosts and process counts (regression-tested).
  static std::vector<uint64_t> sample_from_batch(const BatchResult& batch, int n, uint64_t seed);

  // Probes the result cache for a batch whose open-qubit set covers
  // `open_qubits` and whose base bits agree with `bits` outside it — the
  // caller slices its answer out without any contraction (the query
  // engine's superset probe; proper supersets count as
  // ltns_cache_superset_hits_total). False when the cache is disabled or
  // holds no covering batch.
  bool find_covering_batch(const std::vector<int>& bits, const std::vector<int>& open_qubits,
                           cache::BatchEntry* out) const;

  // Live counters of this Simulator's plan/result caches (zeros when the
  // caches are disabled). Exported as the ltns_cache_* metric series.
  cache::CacheStats cache_stats() const;

 private:
  bool amplitude_from_cache(const std::string& key, double plan_seconds,
                            AmplitudeResult* out) const;
  std::string plan_key_for(const std::vector<int>& open_qubits) const;
  std::string result_key_for(const std::vector<int>& bits,
                             const std::vector<int>& open_qubits) const;

  circuit::Circuit circuit_;
  SimulatorOptions opt_;
  // Everything the result key hashes besides bits/open qubits — the scope
  // the covering-batch index partitions on (see ResultCache).
  std::string result_scope_;
  // Query methods are const; the caches are deliberately shared mutable
  // state (internally locked), created once at construction.
  std::shared_ptr<cache::PlanCache> plan_cache_;
  std::shared_ptr<cache::ResultCache> result_cache_;
};

}  // namespace ltns::api

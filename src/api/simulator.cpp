#include "api/simulator.hpp"

#include <cassert>

#include "cache/cache.hpp"
#include "circuit/io.hpp"
#include "device/backend.hpp"
#include "dist/checkpoint.hpp"
#include "query/eval.hpp"
#include "util/timer.hpp"

namespace ltns::api {

// The pinned planning state behind a PreparedPlan handle. Allocated once,
// never moved: `plan.tree` holds a raw pointer to `lowered.net`, so the
// network must reach its final address before make_plan (or a cache
// rebuild) runs against it.
struct PreparedPlan::State {
  std::vector<int> bits;
  std::vector<int> open_qubits;
  circuit::LoweredNetwork lowered;
  core::Plan plan;
  double plan_seconds = 0;
  bool plan_from_cache = false;
  std::string plan_cache_key;
  std::string result_cache_key;
};

bool PreparedPlan::plan_from_cache() const { return state_ != nullptr && state_->plan_from_cache; }
double PreparedPlan::plan_seconds() const { return state_ != nullptr ? state_->plan_seconds : 0; }
int PreparedPlan::num_slices() const { return state_ != nullptr ? state_->plan.num_slices() : 0; }

const std::vector<int>& PreparedPlan::bits() const {
  static const std::vector<int> empty;
  return state_ != nullptr ? state_->bits : empty;
}

const std::vector<int>& PreparedPlan::open_qubits() const {
  static const std::vector<int> empty;
  return state_ != nullptr ? state_->open_qubits : empty;
}

const core::SlicedMetrics& PreparedPlan::slicing() const {
  static const core::SlicedMetrics empty;
  return state_ != nullptr ? state_->plan.metrics : empty;
}

const std::string& PreparedPlan::plan_cache_key() const {
  static const std::string empty;
  return state_ != nullptr ? state_->plan_cache_key : empty;
}

Simulator::Simulator(circuit::Circuit c, SimulatorOptions opt)
    : circuit_(std::move(c)), opt_(std::move(opt)) {
  if (opt_.cache.plan_enabled()) plan_cache_ = std::make_shared<cache::PlanCache>(opt_.cache);
  if (opt_.cache.result_enabled()) {
    result_cache_ = std::make_shared<cache::ResultCache>(opt_.cache);
    // The covering-batch index scope: a result key with bits/open blanked,
    // i.e. the circuit + every knob that selects WHICH numbers come out.
    result_scope_ = cache::result_key(circuit::circuit_to_string(circuit_), "", "", opt_.plan,
                                      opt_.fused, opt_.ldm_elems);
  }
}

namespace {

// Canonical key preimage forms, shared with dist::run_fingerprint: '0'/'1'
// text for the output bits, "q0,q1," text for the open-qubit list.
std::string bit_text(const std::vector<int>& bits) {
  std::string t;
  t.reserve(bits.size());
  for (int b : bits) t += b != 0 ? '1' : '0';
  return t;
}

std::string open_text(const std::vector<int>& open_qubits) {
  std::string t;
  for (int q : open_qubits) t += std::to_string(q) + ",";
  return t;
}

struct RunOutput {
  exec::SliceRunResult r;
  std::vector<dist::ShardTelemetry> shards;
  dist::RebalanceStats rebalance;
  std::string error;
};

// Moves one run's output into the result's shared telemetry tail.
void fill_telemetry(RunTelemetry& t, RunOutput& out) {
  t.stats = out.r.stats;
  t.runtime_stats = out.r.executor_stats;
  t.memory = out.r.memory;
  t.shards = std::move(out.shards);
  t.rebalance = out.rebalance;
  t.error = std::move(out.error);
}

// Checkpoint-journal fingerprint of this exact job: a --resume against a
// journal from a different job must be refused, not merged. Delegates to
// the canonical dist::run_fingerprint (inputs + the RESOLVED plan, so any
// PlanOptions change that alters the plan changes the fingerprint, and a
// journal spilled here can resume under the TCP service and vice versa).
std::string run_fingerprint(const circuit::Circuit& c, const SimulatorOptions& opt,
                            const std::vector<int>& bits, const std::vector<int>& open_qubits,
                            const core::Plan& plan) {
  return dist::run_fingerprint(circuit::circuit_to_string(c), bit_text(bits),
                               open_text(open_qubits), opt.fused, opt.ldm_elems, plan.path,
                               plan.slices.to_vector());
}

RunOutput run(const circuit::LoweredNetwork& lowered, const core::Plan& plan,
              const SimulatorOptions& opt, exec::FusedPlan* fused_storage,
              const std::string& spill_run_id) {
  const exec::FusedPlan* fused = nullptr;
  if (opt.fused) {
    *fused_storage = exec::plan_fused(plan.stem, plan.slices.to_vector(), opt.ldm_elems);
    fused = fused_storage;
  }
  auto leaves = [&ln = lowered](tn::VertId v) -> const exec::Tensor& {
    return ln.tensors[size_t(v)];
  };

  RunOutput out;
  // The shared coherence gate: refuse silently-ignored flag combinations
  // (resume without a spill dir, ...) in one place.
  out.error = validate_options(opt);
  if (!out.error.empty()) return out;
  // A spill dir implies the shard driver even at one process: only the
  // lease ledger journals, so the in-process path has nothing to spill.
  if (opt.sharding.processes > 1 || !opt.durability.spill_dir.empty()) {
    exec::ShardRunOptions so;
    so.processes = opt.sharding.processes;
    so.workers_per_process = opt.sharding.workers_per_process;
    so.executor = opt.executor;
    so.grain = opt.grain;
    so.fused = fused;
    so.lease_size = opt.sharding.lease_size;
    so.heartbeat_seconds = opt.sharding.heartbeat_seconds;
    so.stall_timeout_seconds = opt.sharding.stall_timeout_seconds;
    so.spill_dir = opt.durability.spill_dir;
    so.resume = opt.durability.resume;
    so.spill_fsync_seconds = opt.durability.fsync_seconds;
    so.spill_run_id = spill_run_id;
    so.backend = effective_backend_spec(opt);  // each worker constructs it after the fork
    so.metrics_out = opt.observability.metrics_out;
    so.metrics_interval_seconds = opt.observability.metrics_interval_seconds;
    auto sr = exec::run_sharded(*plan.tree, leaves, plan.slices, so);
    out.r.accumulated = std::move(sr.accumulated);
    out.r.completed = sr.completed;
    out.r.tasks_run = sr.tasks_run;
    out.r.stats = sr.stats;
    out.r.wall_seconds = sr.wall_seconds;
    out.r.executor_stats = sr.executor_stats;
    out.r.memory = sr.memory;
    out.r.reduce_merges = sr.reduce_merges;
    out.shards = std::move(sr.shards);
    out.rebalance = sr.rebalance;
    out.error = std::move(sr.error);
    return out;
  }

  // In-process run: the Simulator owns one backend instance for the run.
  auto backend = device::make_backend(effective_backend_spec(opt));
  exec::SliceRunOptions ro;
  ro.executor = opt.executor;
  ro.scheduler = opt.scheduler;
  ro.grain = opt.grain;
  ro.pool = opt.pool != nullptr ? opt.pool : &ThreadPool::global();
  ro.fused = fused;
  ro.backend = backend.get();
  out.r = exec::run_sliced(*plan.tree, leaves, plan.slices, ro);
  return out;
}

}  // namespace

std::string effective_backend_spec(const SimulatorOptions& opt) {
  auto spec = device::parse_backend_spec(opt.backend);
  if (opt.precision == "bf16") spec.precision = exec::Precision::kBf16;
  return spec.spec();
}

std::string validate_options(const SimulatorOptions& opt) {
  if (!opt.precision.empty() && opt.precision != "fp32" && opt.precision != "bf16")
    return "unknown precision '" + opt.precision + "'; use fp32 or bf16";
  if (opt.precision == "bf16" && opt.backend.find("+fp32") != std::string::npos)
    return "precision bf16 conflicts with explicit fp32 backend spec '" + opt.backend + "'";
  try {
    device::parse_backend_spec(opt.backend);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  if (opt.durability.spill_dir.empty() &&
      (opt.durability.resume || opt.durability.fsync_seconds != 0))
    return "--resume/--spill-fsync require --spill-dir";
  if (opt.observability.metrics_out.empty() &&
      opt.observability.metrics_interval_seconds != 0)
    return "--metrics-interval requires --metrics-out";
  return cache::validate_cache_options(opt.cache);
}

std::string Simulator::plan_key_for(const std::vector<int>& open_qubits) const {
  return cache::plan_key(circuit::circuit_to_string(circuit_), open_text(open_qubits), opt_.plan);
}

std::string Simulator::result_key_for(const std::vector<int>& bits,
                                      const std::vector<int>& open_qubits) const {
  return cache::result_key(circuit::circuit_to_string(circuit_), bit_text(bits),
                           open_text(open_qubits), opt_.plan, opt_.fused, opt_.ldm_elems);
}

PreparedPlan Simulator::prepare(const std::vector<int>& bits,
                                const std::vector<int>& open_qubits) const {
  Timer t;
  auto st = std::make_shared<PreparedPlan::State>();
  st->bits = bits;
  st->open_qubits = open_qubits;
  st->plan_cache_key = plan_key_for(open_qubits);
  st->result_cache_key = result_key_for(bits, open_qubits);
  circuit::LoweringOptions lo;
  lo.output_bits = bits;
  lo.open_qubits = open_qubits;
  // The network lands at its FINAL heap address before any plan (cached or
  // fresh) is built over it — the tree keeps a raw pointer into it.
  st->lowered = circuit::lower(circuit_, lo);
  circuit::simplify(st->lowered);
  if (plan_cache_ != nullptr &&
      plan_cache_->lookup(st->plan_cache_key, st->lowered.net, &st->plan)) {
    st->plan_from_cache = true;
  } else {
    st->plan = core::make_plan(st->lowered.net, opt_.plan);
    if (plan_cache_ != nullptr) plan_cache_->insert(st->plan_cache_key, st->plan);
  }
  st->plan_seconds = t.seconds();
  PreparedPlan p;
  p.state_ = std::move(st);
  return p;
}

PreparedPlan Simulator::prepare_like(const PreparedPlan& rep, const std::vector<int>& bits,
                                     const std::vector<int>& open_qubits) const {
  if (!rep.valid() || rep.state_->open_qubits != open_qubits) return {};
  Timer t;
  auto st = std::make_shared<PreparedPlan::State>();
  st->bits = bits;
  st->open_qubits = open_qubits;
  st->plan_cache_key = plan_key_for(open_qubits);
  st->result_cache_key = result_key_for(bits, open_qubits);
  circuit::LoweringOptions lo;
  lo.output_bits = bits;
  lo.open_qubits = open_qubits;
  st->lowered = circuit::lower(circuit_, lo);
  circuit::simplify(st->lowered);
  // Re-target the representative's resolved plan at this network. Lowering
  // is value-blind, so the rebuild is expected to fit; if it ever does not
  // (e.g. simplify folded differently), return invalid and let the caller
  // fall back to a full prepare().
  if (!cache::decode_plan(cache::encode_plan(rep.state_->plan), st->lowered.net, &st->plan))
    return {};
  st->plan_from_cache = true;  // the planner never ran; `rep` holds the key
  st->plan_seconds = t.seconds();
  PreparedPlan p;
  p.state_ = std::move(st);
  return p;
}

bool Simulator::amplitude_from_cache(const std::string& key, double plan_seconds,
                                     AmplitudeResult* out) const {
  if (result_cache_ == nullptr) return false;
  cache::AmplitudeEntry e;
  if (!result_cache_->lookup_amplitude(key, &e)) return false;
  out->amplitude = e.amplitude;
  out->completed = true;
  out->slicing = e.slicing;
  out->num_slices = e.num_slices;
  out->from_cache = true;
  out->telemetry = std::move(e.telemetry);
  out->plan_seconds = plan_seconds;
  out->exec_seconds = 0;
  return true;
}

AmplitudeResult Simulator::amplitude(const std::vector<int>& bits) const {
  // A cached completed result answers before ANY planning work — but only
  // when the options would validate, so a misconfigured run still reports
  // its configuration error instead of silently serving stale bytes.
  if (result_cache_ != nullptr && validate_options(opt_).empty()) {
    AmplitudeResult res;
    if (amplitude_from_cache(result_key_for(bits, {}), /*plan_seconds=*/0, &res)) return res;
  }
  return amplitude(prepare(bits));
}

AmplitudeResult Simulator::amplitude(const PreparedPlan& plan) const {
  AmplitudeResult res;
  if (!plan.valid()) {
    res.telemetry.error = "amplitude() called with an invalid (default) PreparedPlan";
    return res;
  }
  const auto& st = *plan.state_;
  if (!st.open_qubits.empty()) {
    res.telemetry.error =
        "amplitude() needs a plan prepared without open qubits (use batch_amplitudes)";
    return res;
  }
  res.slicing = st.plan.metrics;
  res.num_slices = st.plan.num_slices();
  res.plan_seconds = st.plan_seconds;
  if (amplitude_from_cache(st.result_cache_key, st.plan_seconds, &res)) return res;

  Timer t;
  exec::FusedPlan fused;
  auto out = run(st.lowered, st.plan, opt_, &fused,
                 opt_.durability.spill_dir.empty()
                     ? std::string{}
                     : run_fingerprint(circuit_, opt_, st.bits, {}, st.plan));
  const auto& rr = out.r;
  res.exec_seconds = t.seconds();
  res.completed = rr.completed;
  fill_telemetry(res.telemetry, out);
  // A cancelled or failed run yields an empty tensor; report a zero
  // amplitude rather than reading a scalar that was never accumulated.
  if (!rr.completed || rr.accumulated.size() == 0) return res;
  assert(rr.accumulated.rank() == 0);
  res.amplitude = std::complex<double>(rr.accumulated.data()[0]) * st.lowered.scalar;
  if (result_cache_ != nullptr && res.telemetry.error.empty()) {
    cache::AmplitudeEntry e;
    e.amplitude = res.amplitude;
    e.num_slices = res.num_slices;
    e.slicing = res.slicing;
    e.tasks_run = rr.tasks_run;
    e.wall_seconds = rr.wall_seconds;
    e.telemetry = res.telemetry;
    result_cache_->insert_amplitude(st.result_cache_key, e);
  }
  return res;
}

BatchResult Simulator::batch_amplitudes(const std::vector<int>& bits,
                                        const std::vector<int>& open_qubits) const {
  assert(!open_qubits.empty() && open_qubits.size() <= 24);
  if (result_cache_ != nullptr && validate_options(opt_).empty()) {
    cache::BatchEntry e;
    if (result_cache_->lookup_batch(result_key_for(bits, open_qubits), &e, result_scope_)) {
      BatchResult res;
      res.amplitudes = std::move(e.amplitudes);
      res.completed = true;
      res.open_qubits = std::move(e.open_qubits);
      res.slicing = e.slicing;
      res.from_cache = true;
      res.telemetry = std::move(e.telemetry);
      return res;
    }
  }
  return batch_amplitudes(prepare(bits, open_qubits));
}

BatchResult Simulator::batch_amplitudes(const PreparedPlan& plan) const {
  BatchResult res;
  if (!plan.valid()) {
    res.telemetry.error = "batch_amplitudes() called with an invalid (default) PreparedPlan";
    return res;
  }
  const auto& st = *plan.state_;
  if (st.open_qubits.empty()) {
    res.telemetry.error =
        "batch_amplitudes() needs a plan prepared with open qubits (use amplitude)";
    return res;
  }
  res.open_qubits = st.open_qubits;
  res.slicing = st.plan.metrics;
  if (result_cache_ != nullptr) {
    cache::BatchEntry e;
    if (result_cache_->lookup_batch(st.result_cache_key, &e, result_scope_)) {
      res.amplitudes = std::move(e.amplitudes);
      res.completed = true;
      res.from_cache = true;
      res.telemetry = std::move(e.telemetry);
      return res;
    }
  }

  exec::FusedPlan fused;
  auto out = run(st.lowered, st.plan, opt_, &fused,
                 opt_.durability.spill_dir.empty()
                     ? std::string{}
                     : run_fingerprint(circuit_, opt_, st.bits, st.open_qubits, st.plan));
  const auto& rr = out.r;
  res.completed = rr.completed;
  fill_telemetry(res.telemetry, out);

  const exec::Tensor& t = rr.accumulated;
  if (!rr.completed || t.size() == 0) return res;  // cancelled: no amplitudes
  // Canonical re-index (open_qubits[0] = MSB) lives in query::eval so the
  // server's query jobs derive the identical bytes from the same tensor.
  res.amplitudes = query::amplitudes_from_tensor(t, st.lowered, st.open_qubits);
  if (result_cache_ != nullptr && res.telemetry.error.empty()) {
    cache::BatchEntry e;
    e.amplitudes = res.amplitudes;
    e.open_qubits = res.open_qubits;
    e.base_bits = st.bits;
    for (int q : e.open_qubits) e.base_bits[size_t(q)] = 0;  // canonical form
    e.slicing = res.slicing;
    e.telemetry = res.telemetry;
    result_cache_->insert_batch(st.result_cache_key, e, result_scope_);
  }
  return res;
}

cache::CacheStats Simulator::cache_stats() const {
  cache::CacheStats s;
  if (plan_cache_ != nullptr) s.plan = plan_cache_->stats();
  if (result_cache_ != nullptr) {
    s.result = result_cache_->stats();
    s.superset_hits = result_cache_->superset_hits();
  }
  return s;
}

bool Simulator::find_covering_batch(const std::vector<int>& bits,
                                    const std::vector<int>& open_qubits,
                                    cache::BatchEntry* out) const {
  if (result_cache_ == nullptr || !validate_options(opt_).empty()) return false;
  return result_cache_->find_covering_batch(result_scope_, bits, open_qubits, out);
}

std::vector<uint64_t> Simulator::sample_from_batch(const BatchResult& batch, int n,
                                                   uint64_t seed) {
  return query::sample_from_amplitudes(batch.amplitudes, n, seed);
}

}  // namespace ltns::api

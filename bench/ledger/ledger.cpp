// bench_ledger: one rep of one ledger workload (see bench/ledger/README.md).
//
//   bench_ledger run <workload> --seed=S --seconds=T --trace=0|1 --out=DIR [--smoke]
//   bench_ledger worker <port> <rank> <dir> <traced 0|1>
//
// `run` sets the workload up several times (set-up time is reported as the
// median), measures it for T seconds, checks every answer, and writes
// DIR/result.json, plus DIR/trace.json when traced. `worker` is one fleet
// worker of the serve workload, which execs this binary to start it.
// bench/ledger/run.py drives both and turns result.json into metrics.
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <complex>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "api/simulator.hpp"
#include "circuit/io.hpp"
#include "core/planner.hpp"
#include "core/slice_finder.hpp"
#include "core/slice_refiner.hpp"
#include "device/cpu_probe.hpp"
#include "dist/client.hpp"
#include "dist/server.hpp"
#include "dist/service.hpp"
#include "gen.hpp"
#include "obs/build_info.hpp"
#include "obs/trace.hpp"
#include "path/optimizer.hpp"
#include "query/engine.hpp"
#include "query/eval.hpp"
#include "runtime/slice_scheduler.hpp"
#include "spans.hpp"
#include "sv/statevector.hpp"

using namespace ltns;
using namespace ltns::ledger;
namespace fs = std::filesystem;

namespace {

constexpr int kSetups = 3;                          // set-ups per run; median reported
constexpr size_t kTraceCapacity = size_t(1) << 15;  // tracer events kept per thread
constexpr double kOracleTol = 1e-4;                 // max |a_tn - a_sv| * 2^(n/2)
constexpr double kSampleMismatchTol = 0.02;         // see check_query_oracle

uint64_t g_start_ns = 0;  // process start: the first set-up is timed from here

struct Config {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool traced = false;
  bool smoke = false;
  fs::path out = ".";
  int setups() const { return smoke ? 1 : kSetups; }
  uint64_t deadline(uint64_t t0) const { return t0 + uint64_t(seconds * 1e9); }
};

struct Check {
  std::string name;
  bool ok = true;
  std::string detail;
};

struct RunResult {
  std::vector<double> setup_s;
  double timed_s = 0;
  uint64_t attempted = 0, completed = 0, failed = 0;
  std::vector<double> latencies_s;
  double peak_rss_mb = 0;
  double oracle_err = -1;           // -1: the workload has no amplitudes to check
  std::vector<double> overheads;  // slicing overhead of each plan used
  // "key:value": the op (its index, or tenant:job) and its answer's exact
  // bytes as hex or digest. Reps of one seed share keys, so run.py can
  // compare the traced and untraced passes answer by answer.
  std::vector<std::string> answers;
  std::vector<Check> checks;
  std::map<std::string, double> layers;  // traced pass only
  std::vector<std::vector<uint8_t>> worker_trace_chunks;

  void answer(const std::string& key, const std::string& value) {
    answers.push_back(key + ":" + value);
  }
  void check(const std::string& name, bool ok, const std::string& detail = "") {
    checks.push_back({name, ok, detail});
  }
};

// Threads and connections the benchmark may use: nproc, at most 4.
int bench_workers() {
  const unsigned hw = std::thread::hardware_concurrency();
  return int(std::clamp(hw, 1u, 4u));
}

// Peak resident set of this process image (VmHWM). getrusage's ru_maxrss
// would also count the memory the parent had before exec'ing us.
double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  for (std::string line; std::getline(f, line);)
    if (line.rfind("VmHWM:", 0) == 0) return std::atof(line.c_str() + 6) / 1024.0;  // kB
  return 0;
}

uint64_t fnv1a(const void* data, size_t n, uint64_t h = 1469598103934665603ull) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) h = (h ^ p[i]) * 1099511628211ull;
  return h;
}

std::string hex64(uint64_t v) {
  char b[17];
  std::snprintf(b, sizeof b, "%016llx", (unsigned long long)v);
  return b;
}

// The exact bytes of an amplitude, as text.
std::string amp_hex(std::complex<double> a) {
  uint64_t re = 0, im = 0;
  const double r = a.real(), i = a.imag();
  std::memcpy(&re, &r, sizeof r);
  std::memcpy(&im, &i, sizeof i);
  return hex64(re) + hex64(im);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : (v[m - 1] + v[m]) / 2;
}

double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (double x : v) s += std::log(x);
  return std::exp(s / double(v.size()));
}

double oracle_scale(int num_qubits) { return std::exp2(num_qubits / 2.0); }

// Arms obs::Tracer for the timed phase of a traced run only, so set-up and
// checks leave no events.
class TracedPhase {
 public:
  explicit TracedPhase(bool on) : on_(on) {
    if (on_) obs::Tracer::instance().enable(-1, kTraceCapacity);
  }
  TracedPhase(const TracedPhase&) = delete;
  TracedPhase& operator=(const TracedPhase&) = delete;
  ~TracedPhase() {
    if (on_) obs::Tracer::instance().disable();
  }

 private:
  bool on_;
};

// Per-op self time of every bench span, and the closure.
void add_span_layers(RunResult& r, const SpanLog& log, double ops) {
  const auto acc = account_layers(log.spans());
  for (const auto& [name, s] : acc.self_seconds) r.layers[name + "_s"] = s / ops;
  r.layers["bench.unattributed_frac"] = acc.unattributed_frac();
}

// Sums of the RunTelemetry tails the API returns (amp results, serve job
// records): the exec, device and runtime per-layer metrics. Device and
// runtime seconds are thread-seconds; exec bytes are computed, not measured.
struct ExecAgg {
  double flops = 0, main_bytes = 0, ldm_bytes = 0, exec_s = 0;
  double gemm_s = 0, permute_s = 0, reduce_s = 0, gemm_calls = 0, permute_calls = 0;
  double tasks = 0, stolen = 0, utilization = 0;
  int runs = 0;

  void add(const api::RunTelemetry& t, double exec_seconds) {
    const auto& rt = t.runtime_stats;
    flops += t.stats.flops;
    main_bytes += t.memory.main_bytes;
    ldm_bytes += t.memory.scratch_bytes();
    exec_s += exec_seconds;
    gemm_s += rt.gemm.seconds;
    permute_s += rt.permute.seconds;
    reduce_s += rt.reduce.seconds;
    gemm_calls += double(rt.device.gemm_calls);
    permute_calls += double(rt.device.permute_calls);
    tasks += double(rt.finished);
    stolen += double(rt.stolen);
    utilization += rt.ema_utilization;
    ++runs;
  }

  void emit(std::map<std::string, double>& L, double ops) const {
    L["exec.flops"] = flops / ops;
    L["exec.gflops"] = exec_s > 0 ? flops / exec_s / 1e9 : 0;
    L["exec.ldm_bytes"] = ldm_bytes / ops;
    L["exec.flops_per_byte"] = main_bytes + ldm_bytes > 0 ? flops / (main_bytes + ldm_bytes) : 0;
    L["device.gemm_s"] = gemm_s / ops;
    L["device.permute_s"] = permute_s / ops;
    L["device.gemm_calls"] = gemm_calls / ops;
    L["device.permute_calls"] = permute_calls / ops;
    L["runtime.tasks"] = tasks / ops;
    L["runtime.stolen"] = stolen / ops;
    L["runtime.utilization"] = runs > 0 ? utilization / runs : 0;
    L["runtime.reduce_s"] = reduce_s / ops;
  }
};

api::SimulatorOptions sim_options(double target, const char* backend,
                                  runtime::SliceScheduler* sched) {
  api::SimulatorOptions o;
  o.plan.target_log2size = target;
  o.backend = backend;
  o.scheduler = sched;
  return o;
}

bool amp_ok(const api::AmplitudeResult& r) { return r.completed && r.telemetry.error.empty(); }

std::string bits_list(const std::vector<std::vector<int>>& bits) {
  std::string t;
  for (const auto& b : bits) t += bit_text(b) + "\n";
  return t;
}

// --- amp-grid20 -------------------------------------------------------------

RunResult run_amp(const Config& cfg, SpanLog& log) {
  struct Size {
    int rows, cols, cycles;
    double target;
  };
  const Size z = cfg.smoke ? Size{3, 3, 8, 6} : Size{4, 5, 14, 14};
  const int n = z.rows * z.cols;
  RunResult r;

  circuit::Circuit circ;
  std::unique_ptr<BitStream> bits;
  std::unique_ptr<runtime::SliceScheduler> sched;
  std::unique_ptr<api::Simulator> sim;
  for (int i = 0; i < cfg.setups(); ++i) {
    sim.reset();
    sched.reset();
    const uint64_t t0 = i == 0 ? g_start_ns : now_ns();
    circ = grid_circuit(z.rows, z.cols, z.cycles, derive_seed(cfg.seed, Stream::kCircuit));
    bits = std::make_unique<BitStream>(n, derive_seed(cfg.seed, Stream::kBits));
    sched = std::make_unique<runtime::SliceScheduler>(bench_workers());
    sim = std::make_unique<api::Simulator>(circ, sim_options(z.target, "simd", sched.get()));
    if (!amp_ok(sim->amplitude(bits->next()))) throw std::runtime_error("amp warm-up failed");
    r.setup_s.push_back(seconds_since(t0));
  }

  std::vector<std::vector<int>> inputs;
  std::vector<api::AmplitudeResult> results;
  ExecAgg agg;
  double slices = 0, log2_subtasks = 0;
  {
    TracedPhase phase(cfg.traced);
    const uint64_t phase0 = now_ns();
    while (now_ns() < cfg.deadline(phase0)) {
      inputs.push_back(bits->next());
      const uint64_t op = inputs.size();
      const uint64_t t = now_ns();
      api::AmplitudeResult res;
      {
        SpanScope root(log, "op", -1, op);
        if (log.on()) {
          // Traced: the same call split at the prepare/execute seam.
          api::PreparedPlan plan;
          {
            SpanScope s(log, "api.prepare", root.id(), op);
            plan = sim->prepare(inputs.back());
          }
          SpanScope s(log, "api.exec", root.id(), op);
          res = sim->amplitude(plan);
        } else {
          res = sim->amplitude(inputs.back());
        }
      }
      r.latencies_s.push_back(seconds_since(t));
      results.push_back(std::move(res));
    }
    r.timed_s = seconds_since(phase0);
  }
  r.peak_rss_mb = peak_rss_mb();

  r.attempted = results.size();
  for (size_t i = 0; i < results.size(); ++i) {
    const auto& res = results[i];
    if (!amp_ok(res)) {
      ++r.failed;
      r.answer(std::to_string(i), "error");
      continue;
    }
    ++r.completed;
    r.answer(std::to_string(i), amp_hex(res.amplitude));
    r.overheads.push_back(res.slicing.overhead());
    agg.add(res.telemetry, res.exec_seconds);
    slices += res.num_slices;
    log2_subtasks += res.slicing.log2_num_subtasks;
  }

  // Oracle: every answer against one statevector run.
  sv::Statevector state(n);
  state.run(circ);
  r.oracle_err = 0;
  uint64_t wrong = 0;
  for (size_t i = 0; i < results.size(); ++i) {
    if (!amp_ok(results[i])) continue;
    const double err =
        std::abs(results[i].amplitude - state.amplitude_bits(inputs[i])) * oracle_scale(n);
    r.oracle_err = std::max(r.oracle_err, err);
    if (err > kOracleTol) ++wrong;
  }
  r.failed += wrong;
  r.check("oracle", wrong == 0, std::to_string(wrong) + " answers beyond tolerance");

  // The other pass's call shape on op 0, through a fresh Simulator so no
  // cache answers it: the bytes must match.
  if (!results.empty() && amp_ok(results[0])) {
    api::Simulator fresh(circ, sim_options(z.target, "simd", sched.get()));
    api::AmplitudeResult alt =
        log.on() ? fresh.amplitude(inputs[0]) : fresh.amplitude(fresh.prepare(inputs[0]));
    const bool same = amp_ok(alt) && amp_hex(alt.amplitude) == amp_hex(results[0].amplitude);
    if (!same) ++r.failed;
    r.check("traced_vs_untraced_bytes", same);
  }

  dump_input(cfg.out, "circuit.qc", circuit::circuit_to_string(circ));
  dump_input(cfg.out, "amps.txt", bits_list(inputs));

  if (log.on() && r.completed > 0) {
    const double ops = double(r.completed);
    add_span_layers(r, log, ops);
    agg.emit(r.layers, ops);
    r.layers["core.num_slices"] = slices / ops;
    r.layers["core.log2_subtasks"] = log2_subtasks / ops;
  }
  return r;
}

// --- plan-syc53 -------------------------------------------------------------

struct PlanSize {
  int cycles, greedy, partition;
  double depth;  // target = path max size - depth (the `ltns_cli plan` recipe)
  int pool;      // distinct circuits, cycled through
};

core::PlanOptions plan_options(const PlanSize& z) {
  core::PlanOptions po;
  po.path.greedy_trials = z.greedy;
  po.path.partition_trials = z.partition;
  return po;
}

struct PlanAnswer {
  std::string digest;
  core::SlicedMetrics metrics;
  double path_log2cost = 0, path_log2size = 0;
  int num_slices = 0;
};

PlanAnswer plan_answer(const tn::SsaPath& path, const core::SliceSet& slices,
                       const core::SlicedMetrics& m, const path::PathResult& probe) {
  uint64_t h = fnv1a(path.leaf_vertices.data(), path.leaf_vertices.size() * sizeof(tn::VertId));
  h = fnv1a(path.steps.data(), path.steps.size() * sizeof(path.steps[0]), h);
  const auto s = slices.to_vector();
  h = fnv1a(s.data(), s.size() * sizeof(s[0]), h);
  const double mv[] = {m.log2_num_subtasks, m.log2_cost_per_subtask, m.log2_total_cost,
                       m.log2_overhead,     m.max_log2size,          m.max_union_log2size};
  h = fnv1a(mv, sizeof mv, h);
  return {hex64(h), m, probe.log2cost, probe.log2size, slices.size()};
}

// The untraced op: `ltns_cli plan`'s recipe through core::make_plan.
PlanAnswer plan_whole(const circuit::Circuit& c, const PlanSize& z) {
  auto ln = circuit::lower(c);
  circuit::simplify(ln);
  auto po = plan_options(z);
  const auto probe = path::find_path(ln.net, po.path);
  po.target_log2size = std::max(4.0, probe.log2size - z.depth);
  const auto plan = core::make_plan(ln.net, po);
  return plan_answer(plan.path, plan.slices, plan.metrics, probe);
}

// The traced op: the same recipe with make_plan's stages called one by one,
// in make_plan's order and with its arguments, each stage one span.
struct StagedPlan {
  PlanAnswer answer;
  // Kept for the finder-vs-refined comparison made after the op. Heap
  // state: the tree points into the network, which must not move.
  std::unique_ptr<circuit::LoweredNetwork> ln;
  std::shared_ptr<tn::ContractionTree> tree;
  core::SliceSet found;
};

StagedPlan plan_staged(const circuit::Circuit& c, const PlanSize& z, SpanLog& log, int root,
                       uint64_t op) {
  StagedPlan out;
  out.ln = std::make_unique<circuit::LoweredNetwork>();
  auto& net = out.ln->net;
  {
    SpanScope s(log, "circuit.lower", root, op);
    *out.ln = circuit::lower(c);
    circuit::simplify(*out.ln);
  }
  auto po = plan_options(z);
  path::PathResult probe, pr;
  {
    SpanScope s(log, "path.search", root, op);
    probe = path::find_path(net, po.path);
  }
  po.target_log2size = std::max(4.0, probe.log2size - z.depth);
  {
    SpanScope s(log, "path.search", root, op);
    pr = path::find_path(net, po.path);
  }
  // make_plan's clamp of the bound to the open width (0 here: closed network).
  double open_log2 = 0;
  for (tn::EdgeId e : net.open_edges()) open_log2 += net.edge(e).log2w;
  const double target = std::max(po.target_log2size, open_log2);
  tn::Stem stem;
  {
    SpanScope s(log, "core.stem", root, op);
    out.tree = std::make_shared<tn::ContractionTree>(tn::ContractionTree::build(net, pr.path));
    stem = tn::extract_stem(*out.tree);
  }
  {
    SpanScope s(log, "core.slice_find", root, op);
    core::SliceFinderOptions f;
    f.target_log2size = target;
    out.found = core::lifetime_slice_finder(stem, f);
  }
  SpanScope s(log, "core.slice_refine", root, op);
  core::SliceRefinerOptions ro = po.refiner;
  ro.target_log2size = target;
  ro.seed = po.seed;
  const auto refined = core::refine_slices(stem, out.found, ro);
  out.answer = plan_answer(pr.path, refined, core::evaluate_slicing(*out.tree, refined), probe);
  return out;
}

RunResult run_plan(const Config& cfg, SpanLog& log) {
  const PlanSize z = cfg.smoke ? PlanSize{8, 4, 1, 6, 2} : PlanSize{20, 32, 8, 12, 6};
  RunResult r;

  // The warm-up plans circuit 0 through the OTHER pass's call shape, and
  // the first timed op plans it again: their bytes must match.
  std::vector<circuit::Circuit> pool;
  PlanAnswer warm;
  SpanLog quiet(false);
  for (int i = 0; i < cfg.setups(); ++i) {
    pool.clear();
    const uint64_t t0 = i == 0 ? g_start_ns : now_ns();
    for (int k = 0; k < z.pool; ++k)
      pool.push_back(sycamore_circuit(z.cycles, derive_seed(cfg.seed, Stream::kCircuit, k)));
    warm = log.on() ? plan_whole(pool[0], z) : plan_staged(pool[0], z, quiet, -1, 0).answer;
    r.setup_s.push_back(seconds_since(t0));
  }

  std::vector<PlanAnswer> answers;
  std::vector<double> finder_over_refined;
  {
    TracedPhase phase(cfg.traced);
    const uint64_t phase0 = now_ns();
    while (now_ns() < cfg.deadline(phase0)) {
      const auto& c = pool[answers.size() % pool.size()];
      const uint64_t op = answers.size() + 1;
      const uint64_t t = now_ns();
      if (log.on()) {
        StagedPlan sp;
        {
          SpanScope root(log, "op", -1, op);
          sp = plan_staged(c, z, log, root.id(), op);
        }
        r.latencies_s.push_back(seconds_since(t));
        finder_over_refined.push_back(core::evaluate_slicing(*sp.tree, sp.found).overhead() /
                                      sp.answer.metrics.overhead());
        answers.push_back(std::move(sp.answer));
      } else {
        answers.push_back(plan_whole(c, z));
        r.latencies_s.push_back(seconds_since(t));
      }
    }
    r.timed_s = seconds_since(phase0);
  }
  r.peak_rss_mb = peak_rss_mb();

  r.attempted = r.completed = answers.size();
  for (size_t i = 0; i < answers.size(); ++i) {
    r.answer(std::to_string(i), answers[i].digest);
    r.overheads.push_back(answers[i].metrics.overhead());
  }
  const bool same = !answers.empty() && answers[0].digest == warm.digest;
  if (!same) ++r.failed;
  r.check("staged_plan_equals_make_plan", same);

  for (size_t k = 0; k < std::min(pool.size(), answers.size()); ++k)
    dump_input(cfg.out, "sycamore-" + std::to_string(k) + ".qc",
               circuit::circuit_to_string(pool[k]));

  if (log.on() && !answers.empty()) {
    const double ops = double(answers.size());
    add_span_layers(r, log, ops);
    double cost = 0, size = 0, slices = 0, subtasks = 0;
    for (const auto& a : answers) {
      cost += a.path_log2cost;
      size += a.path_log2size;
      slices += a.num_slices;
      subtasks += a.metrics.log2_num_subtasks;
    }
    r.layers["path.log2cost"] = cost / ops;
    r.layers["path.log2size"] = size / ops;
    r.layers["core.num_slices"] = slices / ops;
    r.layers["core.log2_subtasks"] = subtasks / ops;
    r.layers["core.refine_gain"] = geomean(finder_over_refined);
  }
  return r;
}

// --- query-grid20 -----------------------------------------------------------

std::string query_digest(const query::QueryResult& q) {
  uint64_t h = fnv1a(q.text.data(), q.text.size());
  h = fnv1a(q.error.data(), q.error.size(), h);
  h = fnv1a(q.amplitudes.data(), q.amplitudes.size() * sizeof(q.amplitudes[0]), h);
  for (const auto& s : q.samples) h = fnv1a(s.data(), s.size(), h);
  return hex64(fnv1a(&q.expectation, sizeof q.expectation, h));
}

// Checks one engine answer against the library's own evaluator fed with
// statevector amplitudes over the query's open set. Samples may differ where
// a draw lands within float rounding of a CDF step, so up to
// kSampleMismatchTol of them may disagree. Returns false on a wrong answer;
// folds amplitude errors into *max_err.
bool check_query_oracle(const query::Query& q, const query::QueryResult& got,
                        const sv::Statevector& state, int n, double* max_err) {
  const size_t k = q.open_qubits.size();
  std::vector<std::complex<double>> amps(size_t(1) << k);
  std::vector<int> bits = q.bits;
  for (size_t idx = 0; idx < amps.size(); ++idx) {
    for (size_t j = 0; j < k; ++j) bits[size_t(q.open_qubits[j])] = int((idx >> (k - 1 - j)) & 1);
    amps[idx] = state.amplitude_bits(bits);
  }
  const auto want = query::evaluate_query(q, q.open_qubits, amps);
  switch (q.kind) {
    case query::QueryKind::kAmplitude:
    case query::QueryKind::kBatch: {
      if (got.amplitudes.size() != want.amplitudes.size()) return false;
      double err = 0;
      for (size_t i = 0; i < want.amplitudes.size(); ++i)
        err = std::max(err, std::abs(got.amplitudes[i] - want.amplitudes[i]) * oracle_scale(n));
      *max_err = std::max(*max_err, err);
      return err <= kOracleTol;
    }
    case query::QueryKind::kSample: {
      if (got.samples.size() != want.samples.size()) return false;
      size_t mismatched = 0;
      for (size_t i = 0; i < want.samples.size(); ++i)
        mismatched += got.samples[i] != want.samples[i];
      return double(mismatched) <= kSampleMismatchTol * double(want.samples.size());
    }
    case query::QueryKind::kExpectation:
      return std::abs(got.expectation - want.expectation) <= kOracleTol;
  }
  return false;
}

RunResult run_query(const Config& cfg, SpanLog& log) {
  struct Size {
    int rows, cols, cycles;
    double target;
  };
  const Size z = cfg.smoke ? Size{3, 3, 8, 6} : Size{4, 5, 12, 16};
  const int n = z.rows * z.cols;
  const QueryLayout layout = query_layout(n);
  query::EngineOptions eo;  // exact amp mode, max_open 6
  query::GrouperOptions go;
  go.max_open = eo.max_open;
  go.group_amplitudes = eo.group_amplitudes;
  RunResult r;

  circuit::Circuit circ;
  std::unique_ptr<BitStream> amps;
  std::unique_ptr<Rng> rng;
  std::unique_ptr<runtime::SliceScheduler> sched;
  std::unique_ptr<api::Simulator> sim;
  QueryRound prev;
  for (int i = 0; i < cfg.setups(); ++i) {
    sim.reset();
    sched.reset();
    const uint64_t t0 = i == 0 ? g_start_ns : now_ns();
    circ = grid_circuit(z.rows, z.cols, z.cycles, derive_seed(cfg.seed, Stream::kCircuit));
    amps = std::make_unique<BitStream>(n, derive_seed(cfg.seed, Stream::kBits));
    rng = std::make_unique<Rng>(derive_seed(cfg.seed, Stream::kQueries));
    sched = std::make_unique<runtime::SliceScheduler>(bench_workers());
    sim = std::make_unique<api::Simulator>(circ, sim_options(z.target, "host", sched.get()));
    prev = make_query_round(layout, n, *amps, *rng, nullptr);
    const auto warm = query::parse_queries(prev.text, n);
    query::Engine engine(*sim, eo);
    const auto st = engine.run(warm.queries, [](const query::QueryResult&) {});
    if (!warm.ok() || st.errors > 0) throw std::runtime_error("query warm-up failed");
    r.setup_s.push_back(seconds_since(t0));
  }

  query::Engine engine(*sim, eo);
  std::vector<std::string> files;
  std::vector<query::Query> queries;
  std::vector<query::QueryResult> results;  // in arrival order
  std::vector<size_t> result_query;         // results[i] answers queries[result_query[i]]
  query::EngineStats total;
  uint64_t group_mismatches = 0;
  const auto cache0 = sim->cache_stats();
  {
    TracedPhase phase(cfg.traced);
    const uint64_t phase0 = now_ns();
    while (now_ns() < cfg.deadline(phase0)) {
      QueryRound round = make_query_round(layout, n, *amps, *rng, &prev);
      files.push_back(round.text);
      const uint64_t op = files.size();
      query::ParsedQueries parsed;
      std::vector<query::GroupSpec> groups;
      query::EngineStats st;
      {
        SpanScope root(log, "op", -1, op);
        {
          SpanScope s(log, "query.parse", root.id(), op);
          parsed = query::parse_queries(round.text, n);
        }
        if (!parsed.ok())
          throw std::runtime_error("generated query file rejected: " + parsed.error);
        {
          SpanScope s(log, "query.group", root.id(), op);
          groups = query::group_queries(parsed.queries, go);
        }
        SpanScope s(log, "query.run", root.id(), op);
        const uint64_t t = now_ns();
        const size_t base = queries.size();  // ids restart at 1 in every file
        st = engine.run(parsed.queries, [&](const query::QueryResult& q) {
          r.latencies_s.push_back(seconds_since(t));
          results.push_back(q);
          result_query.push_back(base + size_t(q.id) - 1);
        });
      }
      group_mismatches += st.groups != groups.size();
      for (auto& q : parsed.queries) queries.push_back(std::move(q));
      total.groups += st.groups;
      total.contractions += st.contractions;
      total.planner_passes += st.planner_passes;
      total.plan_rebuilds += st.plan_rebuilds;
      total.plan_seconds += st.plan_seconds;
      total.exec_seconds += st.exec_seconds;
      prev = std::move(round);
    }
    r.timed_s = seconds_since(phase0);
  }
  r.peak_rss_mb = peak_rss_mb();
  const auto cache1 = sim->cache_stats();

  r.attempted = results.size();
  r.check("engine_groups_match_grouper", group_mismatches == 0,
          std::to_string(group_mismatches) + " files disagree");
  sv::Statevector state(n);
  state.run(circ);
  r.oracle_err = 0;
  uint64_t wrong = 0;
  for (size_t i = 0; i < results.size(); ++i) {
    const auto& got = results[i];
    r.answer(std::to_string(i), query_digest(got));
    if (!got.error.empty()) {
      ++r.failed;
      continue;
    }
    ++r.completed;
    if (!check_query_oracle(queries[result_query[i]], got, state, n, &r.oracle_err)) ++wrong;
  }
  r.failed += wrong;
  r.check("oracle", wrong == 0, std::to_string(wrong) + " answers beyond tolerance");

  // Exact amp mode promises the bytes of a standalone amplitude() call.
  for (size_t i = 0; i < results.size(); ++i) {
    if (results[i].kind != query::QueryKind::kAmplitude || !results[i].error.empty()) continue;
    api::Simulator fresh(circ, sim_options(z.target, "host", sched.get()));
    const auto solo = fresh.amplitude(queries[result_query[i]].bits);
    const bool same = amp_ok(solo) && amp_hex(solo.amplitude) == amp_hex(results[i].amplitudes[0]);
    if (!same) ++r.failed;
    r.check("exact_amp_equals_solo_bytes", same);
    break;
  }

  // The plans the engine resolved, one per open-set signature (plans are
  // value-blind, so all-zero base bits stand in for every group's).
  {
    api::Simulator fresh(circ, sim_options(z.target, "host", sched.get()));
    const std::vector<int> zeros(size_t(n), 0);
    for (const auto* open : {&layout.batch_open, &layout.sample_open, &layout.expect_a,
                             &layout.expect_b})
      r.overheads.push_back(fresh.prepare(zeros, *open).slicing().overhead());
    r.overheads.push_back(fresh.prepare(zeros).slicing().overhead());
  }

  dump_input(cfg.out, "circuit.qc", circuit::circuit_to_string(circ));
  for (size_t f = 0; f < files.size(); ++f)
    dump_input(cfg.out, "queries-" + std::to_string(f) + ".txt", files[f]);

  if (log.on() && !results.empty()) {
    const double ops = double(results.size());
    add_span_layers(r, log, ops);
    auto& L = r.layers;
    L["query.plan_s"] = total.plan_seconds / ops;
    L["query.exec_s"] = total.exec_seconds / ops;
    L["query.run_s"] -= L["query.plan_s"] + L["query.exec_s"];  // the engine's own time
    L["query.groups"] = double(total.groups) / ops;
    L["query.contractions"] = double(total.contractions) / ops;
    L["query.planner_passes"] = double(total.planner_passes) / ops;
    L["query.plan_rebuilds"] = double(total.plan_rebuilds) / ops;
    const double plan_hits = double(cache1.plan.hits() - cache0.plan.hits());
    const double result_hits = double(cache1.result.hits() - cache0.result.hits());
    const double lookups =
        double(cache1.hits() + cache1.misses() - cache0.hits() - cache0.misses());
    L["cache.plan_hits"] = plan_hits / ops;
    L["cache.result_hits"] = result_hits / ops;
    L["cache.superset_hits"] = double(cache1.superset_hits - cache0.superset_hits) / ops;
    L["cache.hit_ratio"] = lookups > 0 ? (plan_hits + result_hits) / lookups : 0;
  }
  return r;
}

// --- serve-grid20 -----------------------------------------------------------

const char* const kHost = "127.0.0.1";
constexpr int kFleetWorkers = 2;
constexpr int kWorkerThreads = 2;
constexpr size_t kInFlight = 3;  // jobs each tenant keeps outstanding (closed loop)
constexpr size_t kJobsPerTenant = 256;  // far more than a run submits

// An in-process JobServer plus its fleet: kFleetWorkers copies of this
// binary in `worker` mode, forked and exec'd, talking to it over loopback.
class Fleet {
 public:
  Fleet() = default;
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;
  ~Fleet() { stop(); }

  // Workers leave their peak RSS, and when `traced` their event chunks, in
  // `worker_dir` as they exit.
  void start(const fs::path& cache_dir, const fs::path& worker_dir, bool traced) {
    dist::ServerOptions so;
    so.home_workers = kFleetWorkers;
    so.workers_per_process = kWorkerThreads;
    so.cache.cache_dir = cache_dir.string();
    server_ = std::make_unique<dist::JobServer>(0, so);
    worker_dir_ = worker_dir;
    fs::create_directories(worker_dir_);
    const std::string exe = fs::read_symlink("/proc/self/exe").string();
    for (int w = 0; w < kFleetWorkers; ++w) {
      std::vector<std::string> args = {exe,
                                       "worker",
                                       std::to_string(server_->port()),
                                       std::to_string(w),
                                       worker_dir_.string(),
                                       traced ? "1" : "0"};
      std::vector<char*> argv;
      for (auto& a : args) argv.push_back(a.data());
      argv.push_back(nullptr);
      const pid_t pid = ::fork();
      if (pid < 0) throw std::runtime_error("fork failed");
      if (pid == 0) {
        ::prctl(PR_SET_PDEATHSIG, SIGKILL);  // never outlive the benchmark process
        ::execv(argv[0], argv.data());
        ::_exit(127);
      }
      workers_.push_back(pid);
    }
    thread_ = std::thread([this] {
      try {
        serve_error_ = server_->serve();
      } catch (const std::exception& e) {
        serve_error_ = e.what();
      }
    });
    // Set-up ends only once both workers have been welcomed.
    const uint64_t t0 = now_ns();
    for (;;) {
      const std::string s = status();
      size_t alive = 0;
      for (size_t p = 0; (p = s.find("\"alive\":true", p)) != std::string::npos; ++p) ++alive;
      if (alive >= size_t(kFleetWorkers)) break;
      if (seconds_since(t0) > 30) throw std::runtime_error("fleet workers never joined");
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }

  uint16_t port() const { return server_->port(); }
  std::string status() const { return dist::job_status_json(kHost, port(), 0); }

  struct Report {
    std::string serve_error;
    double worker_peak_rss_mb = 0;
    std::vector<std::vector<uint8_t>> trace_chunks;
  };

  // Drains the fleet and reaps every worker, then collects what they left.
  Report stop() {
    Report rep;
    if (thread_.joinable()) {
      try {
        dist::shutdown_server(kHost, port());
      } catch (const std::exception&) {
        // The server already exited; joining below still reaps it.
      }
      thread_.join();
      rep.serve_error = serve_error_;
    }
    for (pid_t pid : workers_) reap(pid);
    for (size_t w = 0; w < workers_.size(); ++w) {
      const fs::path stem = worker_dir_ / ("worker-" + std::to_string(w));
      std::ifstream rss(stem.string() + ".rss");
      double mb = 0;
      if (rss >> mb) rep.worker_peak_rss_mb = std::max(rep.worker_peak_rss_mb, mb);
      std::ifstream chunk(stem.string() + ".chunk", std::ios::binary);
      if (chunk)
        rep.trace_chunks.emplace_back(std::istreambuf_iterator<char>(chunk),
                                      std::istreambuf_iterator<char>());
    }
    workers_.clear();
    return rep;
  }

 private:
  static void reap(pid_t pid) {
    int status = 0;
    const uint64_t t0 = now_ns();
    while (::waitpid(pid, &status, WNOHANG) == 0) {
      if (seconds_since(t0) > 10) {
        ::kill(pid, SIGKILL);
        ::waitpid(pid, &status, 0);
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }

  std::unique_ptr<dist::JobServer> server_;
  std::vector<pid_t> workers_;
  fs::path worker_dir_;
  std::string serve_error_;
  std::thread thread_;  // last: joined before the members it uses go away
};

struct Tenant {
  std::string name;
  uint32_t weight = 1;
  circuit::Circuit circ;
  std::string circ_text;
  std::vector<std::vector<int>> bits;  // job k's output bits
  std::vector<int> repeat_of;          // -1, or the job whose spec job k repeats
};

// Job k repeats job k-3 when k % 4 == 3: a quarter of the jobs repeat a
// spec that is already answered when they are submitted (with 3 jobs in
// flight, job k-3 is fetched before job k is sent), so the server answers
// them from its cache at submit.
Tenant make_tenant(const std::string& name, uint32_t weight, const circuit::Circuit& circ,
                   uint64_t bits_seed) {
  Tenant t{name, weight, circ, circuit::circuit_to_string(circ), {}, {}};
  BitStream stream(circ.num_qubits, bits_seed);
  for (size_t k = 0; k < kJobsPerTenant; ++k) {
    const bool repeat = k % 4 == 3;
    t.repeat_of.push_back(repeat ? int(k) - 3 : -1);
    t.bits.push_back(repeat ? t.bits[k - 3] : stream.next());
  }
  return t;
}

dist::JobSpec job_spec(const Tenant& t, const std::vector<int>& bits, double target) {
  dist::JobSpec s;
  s.tenant = t.name;
  s.weight = t.weight;
  s.circuit_text = t.circ_text;
  s.bits = bit_text(bits);
  s.target_log2size = target;
  return s;
}

struct JobOutcome {
  size_t k = 0;
  bool ok = false;
  bool cached = false;  // answered from the server's cache at submit
  std::complex<double> amp;
  double latency_s = 0, submit_s = 0, wall_s = 0;
  api::RunTelemetry telemetry;
  uint64_t tasks_run = 0;
};

struct TenantLoad {
  std::vector<JobOutcome> jobs;
  uint64_t attempted = 0, failed = 0;
};

// One tenant's closed loop: keep kInFlight jobs outstanding until the
// deadline, fetching the oldest (blocking) before sending the next; then
// drain. Latency is client-observed: submit start to result arrival.
void tenant_loop(const Tenant& t, int thread, uint16_t port, uint64_t deadline, double target,
                 SpanLog& log, TenantLoad* load) {
  struct Pending {
    size_t k;
    uint64_t id, t0;
    double submit_s;
    bool cached;
    int root;
  };
  std::deque<Pending> in_flight;
  const auto op_id = [thread](size_t k) { return (uint64_t(thread) << 32) | k; };
  size_t k = 0;
  for (;;) {
    while (in_flight.size() < kInFlight && now_ns() < deadline && k < t.bits.size()) {
      Pending p{k, 0, now_ns(), 0, false, log.new_id()};
      ++load->attempted;
      try {
        dist::SubmitReply rep;
        {
          SpanScope s(log, "dist.submit", p.root, op_id(k), thread);
          rep = dist::submit_job(kHost, port, job_spec(t, t.bits[k], target));
        }
        p.submit_s = seconds_since(p.t0);
        p.id = rep.job_id;
        p.cached = rep.message.find("cache") != std::string::npos;
        if (rep.ok) in_flight.push_back(p);
        else ++load->failed;  // rejected by admission
      } catch (const std::exception&) {
        ++load->failed;
      }
      ++k;
    }
    if (in_flight.empty()) break;
    const Pending p = in_flight.front();
    in_flight.pop_front();
    JobOutcome o;
    o.k = p.k;
    o.cached = p.cached;
    o.submit_s = p.submit_s;
    try {
      dist::JobResultRecord rec;
      {
        SpanScope s(log, "dist.fetch", p.root, op_id(p.k), thread);
        rec = dist::fetch_result(kHost, port, p.id, /*wait=*/true);
      }
      const uint64_t t1 = now_ns();
      log.add(Span{"op", p.t0, t1, p.root, -1, op_id(p.k), thread});
      o.latency_s = double(t1 - p.t0) / 1e9;
      o.ok = rec.state == dist::JobState::kDone;
      o.amp = {rec.amplitude_re, rec.amplitude_im};
      o.wall_s = p.cached ? 0 : rec.wall_seconds;  // a cached record carries its source's wall
      o.tasks_run = rec.tasks_run;
      o.telemetry = std::move(rec.telemetry);
    } catch (const std::exception&) {
      o.ok = false;
    }
    if (!o.ok) ++load->failed;
    load->jobs.push_back(std::move(o));
  }
}

// The cumulative result/plan tier counters in a server status JSON.
struct TierCounts {
  double plan_hits = 0, result_hits = 0, lookups = 0;
};

double json_number(const std::string& json, const std::string& key, size_t from) {
  const size_t p = json.find("\"" + key + "\":", from);
  return p == std::string::npos ? 0 : std::strtod(json.c_str() + p + key.size() + 3, nullptr);
}

// (hits, lookups) of one tier ("plan" or "result") in a server status JSON.
std::pair<double, double> tier_hits(const std::string& status, const char* tier) {
  const size_t p = status.find(std::string("\"") + tier + "\":{\"memory_hits\"");
  if (p == std::string::npos) return {0, 0};
  const double hits = json_number(status, "memory_hits", p) + json_number(status, "disk_hits", p);
  return {hits, hits + json_number(status, "misses", p)};
}

TierCounts tier_counts(const std::string& status) {
  const auto [plan_hits, plan_lookups] = tier_hits(status, "plan");
  const auto [result_hits, result_lookups] = tier_hits(status, "result");
  return {plan_hits, result_hits, plan_lookups + result_lookups};
}

RunResult run_serve(const Config& cfg, SpanLog& log) {
  struct Size {
    int rows, cols, cycles;
    double target;
  };
  const Size z = cfg.smoke ? Size{3, 3, 8, 6} : Size{4, 5, 12, 16};
  const int n = z.rows * z.cols;
  RunResult r;

  std::vector<Tenant> tenants;
  std::vector<int> warm_bits;
  Fleet fleet;
  for (int i = 0; i < cfg.setups(); ++i) {
    fleet.stop();
    const fs::path cache_dir = cfg.out / ("server-cache-" + std::to_string(i));
    fs::remove_all(cache_dir);
    const uint64_t t0 = i == 0 ? g_start_ns : now_ns();
    tenants.clear();
    for (uint64_t ti = 0; ti < 2; ++ti) {
      const auto circ =
          grid_circuit(z.rows, z.cols, z.cycles, derive_seed(cfg.seed, Stream::kCircuit, ti));
      tenants.push_back(make_tenant(ti == 0 ? "alice" : "bob", ti == 0 ? 2 : 1, circ,
                                    derive_seed(cfg.seed, Stream::kJobs, ti)));
    }
    warm_bits = BitStream(n, derive_seed(cfg.seed, Stream::kWarmup)).next();
    fleet.start(cache_dir, cfg.out / "workers", cfg.traced);
    auto warm = job_spec(tenants[0], warm_bits, z.target);
    warm.tenant = "warmup";
    const auto rep = dist::submit_job(kHost, fleet.port(), warm);
    if (!rep.ok ||
        dist::fetch_result(kHost, fleet.port(), rep.job_id, true).state != dist::JobState::kDone)
      throw std::runtime_error("serve warm-up job failed");
    r.setup_s.push_back(seconds_since(t0));
  }

  std::vector<TenantLoad> loads(tenants.size());
  const TierCounts tiers0 = tier_counts(fleet.status());
  TierCounts tiers1;
  {
    TracedPhase phase(cfg.traced);
    const uint64_t phase0 = now_ns();
    std::vector<std::thread> clients;
    for (size_t ti = 0; ti < tenants.size(); ++ti)
      clients.emplace_back(tenant_loop, std::cref(tenants[ti]), int(ti) + 1, fleet.port(),
                           cfg.deadline(phase0), z.target, std::ref(log), &loads[ti]);
    for (auto& c : clients) c.join();
    r.timed_s = seconds_since(phase0);
    tiers1 = tier_counts(fleet.status());
  }
  auto drained = fleet.stop();
  r.peak_rss_mb = std::max(peak_rss_mb(), drained.worker_peak_rss_mb);
  r.worker_trace_chunks = std::move(drained.trace_chunks);
  r.check("server", drained.serve_error.empty(), drained.serve_error);

  std::vector<double> tenant_p50;
  for (size_t ti = 0; ti < tenants.size(); ++ti) {
    const auto& t = tenants[ti];
    auto& load = loads[ti];
    std::sort(load.jobs.begin(), load.jobs.end(),
              [](const JobOutcome& a, const JobOutcome& b) { return a.k < b.k; });
    r.attempted += load.attempted;
    r.failed += load.failed;
    std::vector<double> lat;
    std::map<size_t, const JobOutcome*> by_k;
    for (const auto& o : load.jobs) {
      r.answer(t.name + ":" + std::to_string(o.k), o.ok ? amp_hex(o.amp) : "error");
      if (!o.ok) continue;
      r.latencies_s.push_back(o.latency_s);
      lat.push_back(o.latency_s);
      by_k[o.k] = &o;
    }
    tenant_p50.push_back(median(lat));
    r.completed += by_k.size();

    sv::Statevector state(n);
    state.run(t.circ);
    if (ti == 0) r.oracle_err = 0;
    uint64_t wrong = 0, repeat_mismatch = 0, solo_mismatch = 0;
    for (const auto& [k, o] : by_k) {
      const double err = std::abs(o->amp - state.amplitude_bits(t.bits[k])) * oracle_scale(n);
      r.oracle_err = std::max(r.oracle_err, err);
      wrong += err > kOracleTol;
      const auto src = by_k.find(size_t(t.repeat_of[k]));
      if (t.repeat_of[k] >= 0 && src != by_k.end() && amp_hex(src->second->amp) != amp_hex(o->amp))
        ++repeat_mismatch;
    }
    // Every repeated spec, and the tenant's first job, against a solo
    // Simulator::amplitude of the same spec.
    runtime::SliceScheduler sched(bench_workers());
    for (const auto& [k, o] : by_k) {
      if (k != by_k.begin()->first && t.repeat_of[k] < 0) continue;
      api::Simulator solo(t.circ, sim_options(z.target, "host", &sched));
      const auto res = solo.amplitude(t.bits[k]);
      solo_mismatch += !amp_ok(res) || amp_hex(res.amplitude) != amp_hex(o->amp);
      if (amp_ok(res)) r.overheads.push_back(res.slicing.overhead());
    }
    r.failed += wrong + repeat_mismatch + solo_mismatch;
    r.check("oracle_" + t.name, wrong == 0, std::to_string(wrong) + " answers beyond tolerance");
    r.check("repeat_equals_original_" + t.name, repeat_mismatch == 0,
            std::to_string(repeat_mismatch) + " repeats differ");
    r.check("job_equals_solo_" + t.name, solo_mismatch == 0,
            std::to_string(solo_mismatch) + " jobs differ from a solo run");
  }

  for (size_t ti = 0; ti < tenants.size(); ++ti) {
    const auto& t = tenants[ti];
    dump_input(cfg.out, t.name + ".qc", t.circ_text);
    std::string jobs = "# job bits repeat_of\n";
    for (size_t k = 0; k < loads[ti].attempted; ++k)
      jobs += std::to_string(k) + " " + bit_text(t.bits[k]) + " " +
              std::to_string(t.repeat_of[k]) + "\n";
    dump_input(cfg.out, t.name + "-jobs.txt", jobs);
  }
  dump_input(cfg.out, "warmup-bits.txt", bit_text(warm_bits) + "\n");

  if (log.on() && r.completed > 0) {
    const double ops = double(r.completed);
    add_span_layers(r, log, ops);
    auto& L = r.layers;
    ExecAgg agg;
    double executed = 0, wall = 0, queue_wait = 0, cached = 0, tasks = 0, stolen = 0;
    for (const auto& load : loads) {
      for (const auto& o : load.jobs) {
        if (!o.ok) continue;
        queue_wait += std::max(0.0, o.latency_s - o.wall_s - o.submit_s);
        if (o.cached) {
          ++cached;
          continue;
        }
        ++executed;
        wall += o.wall_s;
        tasks += double(o.tasks_run);
        stolen += double(o.telemetry.rebalance.ranges_stolen);
        agg.add(o.telemetry, o.wall_s);
      }
    }
    agg.emit(L, ops);
    L["dist.job_wall_s"] = executed > 0 ? wall / executed : 0;
    L["dist.queue_wait_s"] = queue_wait / ops;
    L["dist.served_from_cache"] = cached / ops;
    L["dist.tasks_run"] = tasks / ops;
    L["dist.ranges_stolen"] = stolen / ops;
    L["dist.tenant_p50_ratio"] = tenant_p50[0] > 0 ? tenant_p50[1] / tenant_p50[0] : 0;
    const double plan_hits = tiers1.plan_hits - tiers0.plan_hits;
    const double result_hits = tiers1.result_hits - tiers0.result_hits;
    const double lookups = tiers1.lookups - tiers0.lookups;
    L["cache.plan_hits"] = plan_hits / ops;
    L["cache.result_hits"] = result_hits / ops;
    L["cache.hit_ratio"] = lookups > 0 ? (plan_hits + result_hits) / lookups : 0;
  }
  return r;
}

// --- result.json --------------------------------------------------------------

std::string json_num(double v) {
  if (!std::isfinite(v)) return "null";
  char b[32];
  std::snprintf(b, sizeof b, "%.17g", v);
  return b;
}

std::string json_str(const std::string& s) {
  std::string o = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') o += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    o += c;
  }
  return o + "\"";
}

template <class T, class F>
std::string json_array(const std::vector<T>& v, F fmt) {
  std::string o = "[";
  for (size_t i = 0; i < v.size(); ++i) o += (i ? "," : "") + fmt(v[i]);
  return o + "]";
}

std::string json_check(const Check& c) {
  return "{\"name\":" + json_str(c.name) + ",\"ok\":" + (c.ok ? "true" : "false") +
         ",\"detail\":" + json_str(c.detail) + "}";
}

void write_result(const Config& cfg, const RunResult& r) {
  std::ostringstream o;
  o << "{\"schema\":\"ltns.ledger.rep.v1\",\"workload\":" << json_str(cfg.workload)
    << ",\"seed\":" << cfg.seed << ",\"seconds\":" << json_num(cfg.seconds)
    << ",\"traced\":" << (cfg.traced ? "true" : "false")
    << ",\"smoke\":" << (cfg.smoke ? "true" : "false") << ",\"workers\":" << bench_workers()
    << ",\"isa\":" << json_str(device::probe_isa_label())
    << ",\"build\":" << obs::build_info_json()
    << ",\"setup_s\":" << json_array(r.setup_s, json_num) << ",\"timed_s\":" << json_num(r.timed_s)
    << ",\"attempted\":" << r.attempted << ",\"completed\":" << r.completed
    << ",\"failed\":" << r.failed << ",\"latencies_s\":" << json_array(r.latencies_s, json_num)
    << ",\"peak_rss_mb\":" << json_num(r.peak_rss_mb)
    << ",\"oracle_err\":" << (r.oracle_err < 0 ? "null" : json_num(r.oracle_err))
    << ",\"slicing_overhead\":" << json_num(geomean(r.overheads))
    << ",\"answers\":" << json_array(r.answers, json_str)
    << ",\"checks\":" << json_array(r.checks, json_check)
    << ",\"layers\":{";
  bool first = true;
  for (const auto& [k, v] : r.layers) {
    o << (first ? "" : ",") << json_str(k) << ":" << json_num(v);
    first = false;
  }
  o << "}}\n";
  std::ofstream f(cfg.out / "result.json");
  f << o.str();
  if (!f) throw std::runtime_error("cannot write " + (cfg.out / "result.json").string());
}

void write_trace(const Config& cfg, const RunResult& r, const SpanLog& log) {
  auto& tracer = obs::Tracer::instance();
  for (const auto& c : r.worker_trace_chunks) tracer.ingest(c);
  uint64_t t0 = chunk_min_ts(tracer.serialize());
  for (const auto& c : r.worker_trace_chunks) t0 = std::min(t0, chunk_min_ts(c));
  std::ofstream f(cfg.out / "trace.json");
  f << merged_trace_json(tracer.chrome_json(), t0, log.spans());
  if (!f) throw std::runtime_error("cannot write " + (cfg.out / "trace.json").string());
}

int usage() {
  std::fprintf(stderr,
               "usage: bench_ledger run <amp-grid20|plan-syc53|query-grid20|serve-grid20>\n"
               "         --seed=S --seconds=T --trace=0|1 --out=DIR [--smoke]\n"
               "       bench_ledger worker <port> <rank> <dir> <traced 0|1>\n");
  return 64;
}

// A serve-workload fleet worker: joins the JobServer on loopback and runs
// leases until drained, then leaves DIR/worker-<rank>.rss (peak RSS, MB)
// and, when traced, DIR/worker-<rank>.chunk (its tracer events).
int worker_main(int argc, char** argv) {
  if (argc < 6) return usage();
  const int port = std::atoi(argv[2]);
  const int rank = std::atoi(argv[3]);
  const fs::path stem = fs::path(argv[4]) / ("worker-" + std::string(argv[3]));
  const bool traced = std::strcmp(argv[5], "1") == 0;
  if (traced) obs::Tracer::instance().enable(rank, kTraceCapacity);
  const int rc = dist::serve_worker(kHost, uint16_t(port));
  std::ofstream(stem.string() + ".rss") << json_num(peak_rss_mb()) << "\n";
  if (traced) {
    const auto bytes = obs::Tracer::instance().serialize();
    std::ofstream f(stem.string() + ".chunk", std::ios::binary);
    f.write(reinterpret_cast<const char*>(bytes.data()), std::streamsize(bytes.size()));
  }
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  g_start_ns = now_ns();
  ::signal(SIGPIPE, SIG_IGN);  // a closed loopback peer must surface as an error, not a kill
  if (argc >= 2 && std::strcmp(argv[1], "worker") == 0) return worker_main(argc, argv);
  if (argc < 3 || std::strcmp(argv[1], "run") != 0) return usage();

  Config cfg;
  cfg.workload = argv[2];
  for (int i = 3; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&a](const char* flag) -> const char* {
      const size_t n = std::strlen(flag);
      return a.compare(0, n, flag) == 0 ? a.c_str() + n : nullptr;
    };
    if (const char* v = value("--seed=")) cfg.seed = std::strtoull(v, nullptr, 10);
    else if (const char* v = value("--seconds=")) cfg.seconds = std::atof(v);
    else if (const char* v = value("--trace=")) cfg.traced = std::strcmp(v, "1") == 0;
    else if (const char* v = value("--out=")) cfg.out = v;
    else if (a == "--smoke") cfg.smoke = true;
    else return usage();
  }
  if (!(cfg.seconds > 0)) return usage();

  RunResult (*run)(const Config&, SpanLog&) = nullptr;
  if (cfg.workload == "amp-grid20") run = run_amp;
  else if (cfg.workload == "plan-syc53") run = run_plan;
  else if (cfg.workload == "query-grid20") run = run_query;
  else if (cfg.workload == "serve-grid20") run = run_serve;
  else return usage();

  try {
    fs::create_directories(cfg.out);
    SpanLog log(cfg.traced);
    const RunResult r = run(cfg, log);
    if (cfg.traced) write_trace(cfg, r, log);
    write_result(cfg, r);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_ledger %s: %s\n", cfg.workload.c_str(), e.what());
    return 1;
  }
}

#include "dist/server.hpp"

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <iomanip>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>

#include <dirent.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include "cache/cache.hpp"
#include "circuit/io.hpp"
#include "core/planner.hpp"
#include "dist/checkpoint.hpp"
#include "dist/lease.hpp"
#include "dist/shard_merge.hpp"
#include "obs/build_info.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "query/eval.hpp"
#include "query/grouper.hpp"
#include "util/timer.hpp"

namespace ltns::dist {

namespace {

// On-disk header of spec.job / result.bin under <state_dir>/jobs/<id>/.
// Versioned separately from the wire: a protocol bump that leaves the
// JobSpec/JobResultRecord layouts alone must not orphan a state dir.
// v2: specs carry the v6 query-job tail (kind/query_text/max_open/
// amp_mode) and result records the kind + per-query result list.
// v3: specs carry the v7 precision tail.
constexpr uint32_t kStateMagic = 0x4C544A53u;  // "LTJS"
constexpr uint16_t kStateVersion = 3;

// The backend spec stamped into a job's kJob payload: the server's
// configured backend NAME with the submission's precision folded in. An
// explicit +suffix on the server's --backend pins precision server-wide
// and wins over the spec (mirrors device::merge_backend_override).
std::string job_backend_spec(const std::string& server_backend, const JobSpec& spec) {
  const std::string base = server_backend.empty() ? "host" : server_backend;
  if (spec.precision == "bf16" && base.find('+') == std::string::npos) return base + "+bf16";
  return base;
}

bool ensure_dir(const std::string& path) {
  return ::mkdir(path.c_str(), 0777) == 0 || errno == EEXIST;
}

// tmp + rename, like every other snapshot writer in the tree: a reader (or
// a crashed writer) never sees a half-written spec or result.
bool write_file_atomic(const std::string& path, const std::vector<uint8_t>& bytes) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) return false;
  bool ok = bytes.empty() || std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
  ok = std::fclose(f) == 0 && ok;
  if (ok) ok = std::rename(tmp.c_str(), path.c_str()) == 0;
  if (!ok) std::remove(tmp.c_str());
  return ok;
}

bool read_file(const std::string& path, std::vector<uint8_t>* out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  out->clear();
  uint8_t buf[4096];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) out->insert(out->end(), buf, buf + n);
  std::fclose(f);
  return true;
}

std::vector<uint8_t> with_state_header(const ByteWriter& payload) {
  ByteWriter w;
  w.put<uint32_t>(kStateMagic);
  w.put<uint16_t>(kStateVersion);
  w.put<uint8_t>(host_endian());
  w.put_bytes(payload.buffer().data(), payload.buffer().size());
  return w.buffer();
}

// Validates the header and positions the reader at the payload. Throws on
// mismatch — loading a foreign or skewed state file must die loudly.
ByteReader open_state_payload(const std::vector<uint8_t>& bytes) {
  ByteReader r(bytes);
  if (r.get<uint32_t>() != kStateMagic) throw std::runtime_error("bad state-file magic");
  if (r.get<uint16_t>() != kStateVersion)
    throw std::runtime_error("state-file version mismatch");
  if (r.get<uint8_t>() != host_endian())
    throw std::runtime_error("state-file endianness mismatch");
  return r;
}

// plan_spec's body, shared with query children: plans `bits` of the
// spec's circuit with `open_qubits` left open.
SpecPlan plan_bits(const JobSpec& s, const circuit::Circuit& circ, const std::vector<int>& bits,
                   const std::vector<int>& open_qubits, const ServerOptions& opt,
                   cache::PlanCache* plan_cache) {
  SpecPlan out;
  // Plan-cache aware: a repeated circuit shape (same circuit text, open
  // positions and knobs, any bit values) skips the path optimizer and the
  // slicers entirely; only the first job of a shape plans on the poll
  // thread. The rebuilt plan is identical, so the job's amplitude stays
  // byte-identical either way.
  out.prepared = prepare_job(circ, s.circuit_text, bits, s.target_log2size, s.plan_seed,
                             plan_cache, nullptr, open_qubits);
  const core::Plan& plan = out.prepared->plan;
  const int ns = plan.num_slices();
  if (ns >= 57) throw std::runtime_error("too many sliced edges");  // run_sharded's bound
  out.total = uint64_t(1) << ns;
  Job& j = out.job;
  j.circuit_text = s.circuit_text;
  j.bits = bit_text(bits);
  j.open_qubits = open_qubits;
  j.plan = cache::encode_plan(plan);
  j.executor = opt.executor;
  j.grain = opt.grain;
  j.workers = opt.workers_per_process;
  j.num_slices = int32_t(ns);
  j.fused = s.fused;
  j.ldm_elems = s.ldm_elems;
  j.backend = job_backend_spec(opt.backend, s);
  out.run_id = run_fingerprint(s.circuit_text, j.bits, open_text(open_qubits), s.fused != 0,
                               s.ldm_elems, plan.path, plan.slices.to_vector());
  j.run_id = out.run_id;
  return out;
}

}  // namespace

SpecPlan plan_spec(const JobSpec& spec, const ServerOptions& opt, cache::PlanCache* plan_cache) {
  const auto circ = circuit::circuit_from_string(spec.circuit_text);
  std::vector<int> bits;
  bits.reserve(spec.bits.size());
  for (char ch : spec.bits) bits.push_back(ch == '1');
  return plan_bits(spec, circ, bits, {}, opt, plan_cache);
}

// --- FairShare -------------------------------------------------------------

FairShare::State& FairShare::ensure(const std::string& tenant) { return tenants_[tenant]; }

void FairShare::set_weight(const std::string& tenant, uint32_t weight) {
  ensure(tenant).weight = weight;
}

std::string FairShare::pick(const std::vector<std::string>& runnable) {
  const std::string* best_name = nullptr;
  State* best = nullptr;
  auto consider = [&](const std::string& name, bool background) {
    State& s = ensure(name);
    if (background != (s.weight == 0)) return;
    // An idle tenant re-enters at the scheduler clock: sleeping must not
    // bank virtual time it can later spend starving active tenants.
    if (s.vt < clock_) s.vt = clock_;
    if (best == nullptr || s.vt < best->vt || (s.vt == best->vt && name < *best_name)) {
      best = &s;
      best_name = &name;
    }
  };
  for (const auto& name : runnable) consider(name, /*background=*/false);
  if (best == nullptr)
    for (const auto& name : runnable) consider(name, /*background=*/true);
  if (best_name == nullptr) return "";
  clock_ = best->vt;
  return *best_name;
}

void FairShare::charge(const std::string& tenant, uint64_t tasks) {
  State& s = ensure(tenant);
  // Zero-weight (background) tenants are charged at weight 1 so several of
  // them still round-robin against each other.
  const double w = s.weight > 0 ? double(s.weight) : 1.0;
  s.vt += double(tasks) / w;
  s.charged += tasks;
}

double FairShare::virtual_time(const std::string& tenant) const {
  auto it = tenants_.find(tenant);
  return it == tenants_.end() ? 0 : it->second.vt;
}

std::vector<FairShare::TenantShare> FairShare::shares() const {
  std::vector<TenantShare> out;
  out.reserve(tenants_.size());
  for (const auto& [name, s] : tenants_) out.push_back({name, s.weight, s.vt, s.charged});
  return out;
}

// --- AdmissionControl ------------------------------------------------------

AdmissionControl::AdmissionControl(AdmissionOptions opt) : opt_(opt) {
  opt_.min_running = std::max(1, opt_.min_running);
  opt_.max_running = std::max(opt_.min_running, opt_.max_running);
  if (opt_.low_watermark > opt_.high_watermark) std::swap(opt_.low_watermark, opt_.high_watermark);
  limit_ = opt_.max_running;  // optimistic until the fleet says otherwise
}

void AdmissionControl::observe_utilization(double mean_ema) {
  if (mean_ema > opt_.high_watermark)
    limit_ = std::max(opt_.min_running, limit_ - 1);
  else if (mean_ema < opt_.low_watermark)
    limit_ = std::min(opt_.max_running, limit_ + 1);
}

// --- the engine ------------------------------------------------------------

struct JobServer::Impl {
  int listen_fd = -1;  // -1 = no listener (fork mode)
  uint16_t port = 0;
  ServerOptions opt;

  struct Peer {
    int fd = -1;
    enum class Kind { kUnknown, kWorker, kWaiter } kind = Kind::kUnknown;
    int worker_id = -1;  // preset by add_worker, else assigned at kHello
    bool parked = false;
    bool draining = false;  // kDrain sent, waiting for kDone
    bool finished = false;
    bool stalled = false;
    std::string backend;
    WorkerPulse pulse;
    bool has_pulse = false;
    uint64_t leases_completed = 0;
    std::set<uint64_t> jobs_sent;  // job ids whose kJob frame this worker holds
    uint64_t waiting_job = 0;      // kind == kWaiter
    Timer last_seen;
    Timer parked_since;  // set when a lease request parks on an empty queue
    Timer drain_since;   // set when kDrain goes out; bounds the goodbye wait
  };
  std::vector<Peer> peers;
  int next_worker_id = 0;

  struct ServerJob {
    uint64_t id = 0;
    JobSpec spec;
    JobState state = JobState::kQueued;
    Job base;           // the kJob every worker of this job receives
    uint64_t total = 0;
    std::unique_ptr<Prepared> prepared;
    std::unique_ptr<LeaseLedger> ledger;
    std::unique_ptr<ShardMerger> merger;
    std::unique_ptr<CheckpointWriter> journal;
    std::map<int, ShardTelemetry> worker_tel;  // latest cumulative per worker
    JobResultRecord result;                    // valid once terminal
    Timer run_wall;

    // v6 query jobs (spec.kind == "query"). The PARENT job holds the
    // parsed queries and the grouper's cover; each group that needs a
    // contraction runs as a hidden internal CHILD job (fresh id, `parent`
    // set) through the very same ledger/merger/lease machinery as a
    // classic amp job — workers cannot tell the difference. Children are
    // never persisted and never appear in status or admission counts; the
    // parent evaluates every member query once the last group lands.
    uint64_t parent = 0;  // != 0: internal child of that query job
    uint64_t child = 0;   // parent: id of the currently running child (0 = none)
    circuit::Circuit qcircuit;
    query::ParsedQueries queries;
    std::vector<query::GroupSpec> groups;
    size_t next_group = 0;
    uint64_t query_groups = 0;       // |groups| at start (survives cleanup)
    uint64_t query_contractions = 0; // groups actually contracted
    uint64_t query_cache_groups = 0; // groups answered from the result cache
    std::vector<ShardTelemetry> query_tel;  // accumulated across children
    std::vector<std::vector<std::complex<double>>> group_amps;

    std::string spill_dir;  // journal directory ("" = none)
    // run_one's job: like a query child, it hands its raw root to its owner
    // instead of an amplitude.
    bool one_shot = false;
    exec::Tensor root;
    uint64_t merges = 0;  // coordinator tournament merges of `root`

    bool internal() const { return parent != 0; }
  };
  std::map<uint64_t, ServerJob> jobs;
  uint64_t next_job_id = 1;

  FairShare shares;
  AdmissionControl admission;
  bool shutting_down = false;
  bool one_shot = false;  // run_one: no job beyond the one it admitted
  std::string peer_errors;  // why workers were dropped, appended to `fatal`
  uint64_t submitted = 0, rejected = 0, cancelled = 0, completed = 0, failed = 0;
  uint64_t late_frames_dropped = 0;
  uint64_t served_from_cache = 0;
  Timer metrics_last, admission_last;

  // Shared content-addressed cache (disk-backed only — see ServerOptions).
  std::unique_ptr<cache::PlanCache> plan_cache;
  std::unique_ptr<cache::ResultCache> result_cache;

  Impl(int fd, uint16_t bound_port, ServerOptions o)
      : listen_fd(fd), port(bound_port), opt(std::move(o)), admission(opt.admission) {
    // Stall detection only works when heartbeats outpace the timeout. With
    // heartbeats disabled there is no way to tell slow from dead, so stall
    // revocation must be off too (death still surfaces as EOF) — otherwise
    // every long lease would be revoked, its result dropped as late, and
    // the same range re-issued forever: a livelock, not a safety net. With
    // heartbeats on, keep the timeout a few periods wide for the same
    // reason.
    if (opt.heartbeat_seconds <= 0) {
      opt.stall_timeout_seconds = 0;
    } else if (opt.stall_timeout_seconds > 0) {
      opt.stall_timeout_seconds = std::max(opt.stall_timeout_seconds, 4 * opt.heartbeat_seconds);
    }
    if (!opt.cache.cache_dir.empty()) {
      if (opt.cache.plan_enabled()) plan_cache = std::make_unique<cache::PlanCache>(opt.cache);
      if (opt.cache.result_enabled())
        result_cache = std::make_unique<cache::ResultCache>(opt.cache);
    }
  }

  ~Impl() {
    close_fd(&listen_fd);
    for (auto& p : peers) close_fd(&p.fd);
  }

  // Bounds the waits that are NOT heartbeat-driven (mid-frame reads, the
  // post-drain goodbye, an unfinished handshake) even when stall detection
  // is disabled.
  double goodbye_timeout() const {
    return opt.stall_timeout_seconds > 0 ? std::max(1.0, opt.stall_timeout_seconds) : 30.0;
  }

  // No job beyond those already admitted will start.
  bool closed() const { return shutting_down || one_shot; }

  // The exact PlanOptions prepare_job derives from a spec — the cache keys
  // must hash the same preimage a solo `amp` run with these knobs hashes,
  // or the two transports would stop sharing entries.
  static core::PlanOptions spec_plan_options(const JobSpec& s) {
    core::PlanOptions po;
    po.target_log2size = s.target_log2size;
    po.seed = s.plan_seed;
    return po;
  }
  static std::string spec_result_key(const JobSpec& s) {
    return cache::result_key(s.circuit_text, s.bits, /*open_qubits=*/"", spec_plan_options(s),
                             s.fused != 0, s.ldm_elems);
  }
  // Everything the result key hashes besides bits/open — the scope the
  // covering-batch index partitions on (mirrors api::Simulator).
  static std::string spec_scope(const JobSpec& s) {
    return cache::result_key(s.circuit_text, "", "", spec_plan_options(s), s.fused != 0,
                             s.ldm_elems);
  }
  static std::string group_result_key(const JobSpec& s, const query::GroupSpec& g) {
    return cache::result_key(s.circuit_text, bit_text(g.base_bits), open_text(g.open_qubits),
                             spec_plan_options(s), s.fused != 0, s.ldm_elems);
  }

  static bool terminal(JobState s) {
    return s == JobState::kDone || s == JobState::kFailed || s == JobState::kCancelled;
  }
  // Internal children ride their parent's admission slot: only the parent
  // counts, or a query job would consume two running slots.
  int running_count() const {
    int n = 0;
    for (const auto& [id, j] : jobs)
      if (j.state == JobState::kRunning && !j.internal()) ++n;
    return n;
  }
  size_t queued_count() const {
    size_t n = 0;
    for (const auto& [id, j] : jobs)
      if (j.state == JobState::kQueued && !j.internal()) ++n;
    return n;
  }

  // --- persistence ---------------------------------------------------------

  std::string jobs_dir() const { return opt.state_dir + "/jobs"; }
  std::string job_dir(uint64_t id) const { return jobs_dir() + "/" + std::to_string(id); }

  void persist_spec(const ServerJob& j) {
    if (opt.state_dir.empty()) return;
    ensure_dir(opt.state_dir);
    ensure_dir(jobs_dir());
    ensure_dir(job_dir(j.id));
    ByteWriter w;
    put_job_spec(w, j.spec);
    write_file_atomic(job_dir(j.id) + "/spec.job", with_state_header(w));
  }

  void persist_result(const ServerJob& j) {
    if (opt.state_dir.empty()) return;
    ensure_dir(job_dir(j.id));
    ByteWriter w;
    put_result_record(w, j.result);
    write_file_atomic(job_dir(j.id) + "/result.bin", with_state_header(w));
  }

  // Rebuilds the queue and the terminal-result index from the state dir: a
  // job with a result.bin is terminal; anything else (queued OR mid-run at
  // the crash) re-queues, and its spill journal — when one exists — will
  // replay at start so only unfinished ranges recompute.
  void resume_scan() {
    if (opt.state_dir.empty()) return;
    DIR* d = ::opendir(jobs_dir().c_str());
    if (d == nullptr) return;
    while (dirent* e = ::readdir(d)) {
      char* end = nullptr;
      const uint64_t id = std::strtoull(e->d_name, &end, 10);
      if (id == 0 || end == e->d_name || *end != '\0') continue;
      std::vector<uint8_t> bytes;
      if (!read_file(job_dir(id) + "/spec.job", &bytes)) continue;
      ServerJob j;
      j.id = id;
      try {
        auto r = open_state_payload(bytes);
        j.spec = get_job_spec(r);
        if (read_file(job_dir(id) + "/result.bin", &bytes)) {
          auto rr = open_state_payload(bytes);
          j.result = get_result_record(rr);
          j.state = j.result.state;
        }
      } catch (const std::exception&) {
        continue;  // damaged entry: leave it on disk, don't load it
      }
      shares.set_weight(j.spec.tenant, j.spec.weight);
      next_job_id = std::max(next_job_id, id + 1);
      // Re-seed the shared result cache from results persisted before the
      // cache existed (or under a different cache dir), so a restarted
      // server short-circuits duplicates of everything it ever finished.
      if (result_cache != nullptr && j.state == JobState::kDone && j.result.error.empty() &&
          j.spec.kind == "amp") {
        cache::AmplitudeEntry e;
        e.amplitude = {j.result.amplitude_re, j.result.amplitude_im};
        e.num_slices = j.result.num_slices;
        e.tasks_run = j.result.tasks_run;
        e.wall_seconds = j.result.wall_seconds;
        e.telemetry = j.result.telemetry;
        result_cache->insert_amplitude(spec_result_key(j.spec), e);
      }
      jobs.emplace(id, std::move(j));
    }
    ::closedir(d);
  }

  // --- scheduling ----------------------------------------------------------

  ServerJob* pick_by_fair_share(JobState wanted) {
    std::map<std::string, std::vector<ServerJob*>> by_tenant;
    for (auto& [id, j] : jobs) {
      if (j.state != wanted) continue;
      if (wanted == JobState::kRunning &&
          (j.ledger == nullptr || j.ledger->pending_ranges() == 0))
        continue;
      by_tenant[j.spec.tenant].push_back(&j);
    }
    if (by_tenant.empty()) return nullptr;
    std::vector<std::string> runnable;
    runnable.reserve(by_tenant.size());
    for (const auto& [tenant, js] : by_tenant) runnable.push_back(tenant);
    const auto tenant = shares.pick(runnable);
    if (tenant.empty()) return nullptr;
    ServerJob* best = nullptr;
    for (ServerJob* j : by_tenant[tenant]) {
      if (best == nullptr || j->spec.priority > best->spec.priority ||
          (j->spec.priority == best->spec.priority && j->id < best->id))
        best = j;
    }
    return best;
  }

  void maybe_start_jobs() {
    if (closed()) return;
    while (running_count() < admission.running_limit()) {
      ServerJob* j = pick_by_fair_share(JobState::kQueued);
      if (j == nullptr) return;
      start_job(*j);
    }
  }

  void start_job(ServerJob& j) {
    if (j.spec.kind == "query") {
      start_query_job(j);
      return;
    }
    SpecPlan sp;
    try {
      obs::TraceScope tr(obs::EventKind::kPlan, j.id);
      sp = plan_spec(j.spec, opt, plan_cache.get());
      tr.set_args(j.id, uint64_t(sp.job.num_slices), 0);
    } catch (const std::exception& e) {
      fail_job(j, std::string("planning failed: ") + e.what());
      return;
    }
    j.prepared = std::move(sp.prepared);
    j.base = std::move(sp.job);
    j.base.job_id = j.id;
    if (!opt.state_dir.empty()) {
      ensure_dir(job_dir(j.id));
      j.spill_dir = job_dir(j.id) + "/spill";
    }
    // Always resume-if-present: a re-queued job that was mid-run when the
    // server died replays its journal and recomputes only the tail.
    admit(j, sp.total, sp.run_id, /*resume=*/true);
  }

  // Runs `j` over a fresh ledger + merger. With a spill dir the journal is
  // opened first — replayed when `resume` — and a journal that already
  // covers the run finishes the job at once.
  void admit(ServerJob& j, uint64_t total, const std::string& run_id, bool resume) {
    j.total = total;
    // Disjoint lease-id base: the job id rides the high 32 bits of every
    // lease this ledger issues, so worker frames route by lease id alone.
    j.ledger = std::make_unique<LeaseLedger>(total, std::max(1, opt.home_workers),
                                             opt.lease_size, (j.id << 32) | 1);
    j.merger = std::make_unique<ShardMerger>(total);
    if (!j.spill_dir.empty()) {
      try {
        CheckpointMeta meta;
        meta.total = total;
        meta.home_workers = int32_t(std::max(1, opt.home_workers));
        meta.lease_size = j.ledger->lease_size();
        meta.run_id = run_id;
        j.journal = open_or_resume_journal(j.spill_dir, meta, resume, opt.fsync_seconds,
                                           j.ledger.get(), j.merger.get());
      } catch (const std::exception& e) {
        fail_job(j, std::string("spill journal: ") + e.what());
        return;
      }
    }
    j.state = JobState::kRunning;
    j.run_wall.reset();
    if (j.ledger->done()) finish_job(j);
  }

  // --- query jobs (v6) -----------------------------------------------------

  void start_query_job(ServerJob& j) {
    try {
      j.qcircuit = circuit::circuit_from_string(j.spec.circuit_text);
      j.queries = query::parse_queries(j.spec.query_text, j.qcircuit.num_qubits);
    } catch (const std::exception& e) {
      fail_job(j, std::string("bad circuit: ") + e.what());
      return;
    }
    // Submit-time validation already rejected malformed files; a parse
    // failure here means the persisted spec was edited — fail loudly.
    if (!j.queries.ok()) {
      fail_job(j, "line " + std::to_string(j.queries.error_line) + ": " + j.queries.error);
      return;
    }
    query::GrouperOptions go;
    go.max_open = std::max(0, int(j.spec.max_open));
    go.group_amplitudes = j.spec.amp_mode == "grouped";
    j.groups = query::group_queries(j.queries.queries, go);
    j.query_groups = j.groups.size();
    j.group_amps.assign(j.groups.size(), {});
    j.next_group = 0;
    j.state = JobState::kRunning;
    j.run_wall.reset();
    start_next_group(j);
  }

  // Advances the parent: serves groups from the result cache until one
  // needs a contraction (spawn a child, return) or none are left (emit the
  // parent's record). Called at start and after every child retires.
  void start_next_group(ServerJob& j) {
    while (j.next_group < j.groups.size()) {
      const auto& g = j.groups[j.next_group];
      std::vector<std::complex<double>> amps;
      if (probe_group_cache(j, g, &amps)) {
        j.group_amps[j.next_group] = std::move(amps);
        ++j.query_cache_groups;
        ++served_from_cache;
        ++j.next_group;
        continue;
      }
      start_child(j, g);  // on failure the parent is already terminal
      return;
    }
    finish_query_job(j);
  }

  // The engine's reuse rule: closed groups in exact amp mode may only take
  // an EXACT single-amplitude hit (byte contract with solo `amp`); open
  // groups — and closed ones under grouped mode — also slice their answer
  // out of any cached batch whose open set covers them.
  bool probe_group_cache(const ServerJob& j, const query::GroupSpec& g,
                         std::vector<std::complex<double>>* out) {
    if (result_cache == nullptr) return false;
    const bool closed = g.open_qubits.empty();
    if (closed) {
      cache::AmplitudeEntry e;
      if (result_cache->lookup_amplitude(group_result_key(j.spec, g), &e)) {
        *out = {e.amplitude};
        return true;
      }
      if (j.spec.amp_mode != "grouped") return false;
    }
    cache::BatchEntry e;
    if (!result_cache->find_covering_batch(spec_scope(j.spec), g.base_bits, g.open_qubits, &e))
      return false;
    *out = query::restrict_amplitudes(e.amplitudes, e.open_qubits, g.open_qubits, g.base_bits);
    return true;
  }

  void start_child(ServerJob& parent, const query::GroupSpec& g) {
    const uint64_t id = next_job_id++;
    ServerJob c;
    c.id = id;
    c.parent = parent.id;
    c.spec = parent.spec;
    c.spec.kind = "amp";
    c.spec.query_text.clear();
    c.spec.name = parent.spec.name + "#g" + std::to_string(parent.next_group);
    SpecPlan sp;
    try {
      obs::TraceScope tr(obs::EventKind::kPlan, id);
      sp = plan_bits(parent.spec, parent.qcircuit, g.base_bits, g.open_qubits, opt,
                     plan_cache.get());
      tr.set_args(id, uint64_t(sp.job.num_slices), 0);
    } catch (const std::exception& e) {
      fail_job(parent,
               "group " + std::to_string(parent.next_group) + " planning failed: " + e.what());
      return;
    }
    c.prepared = std::move(sp.prepared);
    c.base = std::move(sp.job);
    c.base.job_id = id;
    parent.child = id;
    // No spill journal: a crashed server re-queues the PARENT (its spec is
    // persisted, its result is not) and replans every group — the plan
    // cache makes that cheap, and children stay entirely in memory.
    admit(jobs.emplace(id, std::move(c)).first->second, sp.total, "", false);
  }

  // A child's merger drained: convert its root into the parent's group
  // amplitudes, retire the child in place (no record, no persistence) and
  // move the parent forward.
  void finish_child_job(ServerJob& c) {
    std::string err;
    std::vector<std::complex<double>> amps;
    exec::Tensor root;
    if (!c.merger->complete()) {
      err = "reduction incomplete despite a drained ledger";
    } else {
      root = c.merger->take_root();
    }
    auto pit = jobs.find(c.parent);
    std::vector<ShardTelemetry> tel;
    for (const auto& [wid, t] : c.worker_tel) tel.push_back(t);
    const double child_wall = c.run_wall.seconds();
    c.state = JobState::kDone;
    c.ledger.reset();
    c.merger.reset();
    c.worker_tel.clear();
    end_job_on_workers(c.id);
    if (pit == jobs.end() || terminal(pit->second.state)) {
      c.prepared.reset();  // parent gone (cancelled): drop the work
      return;
    }
    ServerJob& p = pit->second;
    p.child = 0;
    for (auto& t : tel) p.query_tel.push_back(std::move(t));
    const auto& g = p.groups[p.next_group];
    if (err.empty()) {
      if (g.open_qubits.empty()) {
        if (root.rank() != 0 || root.size() != 1) {
          err = "closed group produced a non-scalar root";
        } else {
          amps = {std::complex<double>(root.data()[0]) * c.prepared->lowered.scalar};
        }
      } else {
        amps = query::amplitudes_from_tensor(root, c.prepared->lowered, g.open_qubits);
        if (amps.empty()) err = "open group produced a mis-shaped root";
      }
    }
    if (!err.empty()) {
      c.prepared.reset();
      fail_job(p, "group " + std::to_string(p.next_group) + ": " + err);
      return;
    }
    if (result_cache != nullptr) {
      if (g.open_qubits.empty()) {
        // Same entry a solo `amp` run (or an amp-kind submit) would write.
        cache::AmplitudeEntry e;
        e.amplitude = amps[0];
        e.num_slices = c.base.num_slices;
        e.slicing = c.prepared->plan.metrics;
        e.wall_seconds = child_wall;
        result_cache->insert_amplitude(group_result_key(p.spec, g), e);
      } else {
        cache::BatchEntry e;
        e.amplitudes = amps;
        e.open_qubits = g.open_qubits;
        e.base_bits = g.base_bits;  // grouper emits canonical (open zeroed) form
        e.slicing = c.prepared->plan.metrics;
        result_cache->insert_batch(group_result_key(p.spec, g), e, spec_scope(p.spec));
      }
    }
    c.prepared.reset();
    p.group_amps[p.next_group] = std::move(amps);
    ++p.query_contractions;
    ++p.next_group;
    start_next_group(p);
  }

  // Every group answered: evaluate each member query against its group's
  // amplitudes and emit the parent's terminal record, results in file
  // order.
  void finish_query_job(ServerJob& j) {
    JobResultRecord rec;
    rec.job_id = j.id;
    rec.name = j.spec.name;
    rec.tenant = j.spec.tenant;
    rec.kind = "query";
    rec.wall_seconds = j.run_wall.seconds();
    rec.telemetry.shards = j.query_tel;
    auto agg = aggregate_telemetry(rec.telemetry.shards);
    rec.telemetry.stats = agg.stats;
    rec.telemetry.runtime_stats = agg.executor;
    rec.telemetry.memory = agg.memory;
    rec.tasks_run = agg.tasks_run;
    std::vector<query::QueryResult> results(j.queries.queries.size());
    for (size_t gi = 0; gi < j.groups.size(); ++gi) {
      const auto& g = j.groups[gi];
      for (int member : g.members) {
        results[size_t(member)] = query::evaluate_query(j.queries.queries[size_t(member)],
                                                        g.open_qubits, j.group_amps[gi]);
      }
    }
    rec.query_results = std::move(results);
    rec.state = JobState::kDone;
    finalize_job(j, std::move(rec));
  }

  // Hands worker `w` its next lease, its one kDrain once nothing is left
  // to run, or parks it until a revoke, a new job or the drain.
  void dispatch(Peer& w) {
    if (closed() && running_count() == 0) {
      unpark(w);
      // Exactly ONE kDrain per peer: a duplicate would sit unread in the
      // worker's receive buffer when it exits, turning its close into a TCP
      // RST that can destroy the trace/done frames still in flight.
      if (!w.draining) {
        write_frame(w.fd, FrameType::kDrain, nullptr, 0);
        w.draining = true;
        w.drain_since.reset();
      }
      return;
    }
    ServerJob* j = pick_by_fair_share(JobState::kRunning);
    Lease l;
    if (j == nullptr || !j->ledger->acquire(w.worker_id, &l)) {
      if (!w.parked) {
        w.parked = true;
        w.parked_since.reset();
      }
      return;
    }
    unpark(w);
    if (w.jobs_sent.find(j->id) == w.jobs_sent.end()) {
      ByteWriter jw;
      put_job(jw, j->base);
      write_frame(w.fd, FrameType::kJob, jw);
      w.jobs_sent.insert(j->id);
    }
    ByteWriter lw;
    lw.put<uint64_t>(j->id);
    lw.put<uint64_t>(l.id);
    lw.put<uint64_t>(l.first);
    lw.put<uint64_t>(l.count);
    write_frame(w.fd, FrameType::kJobLease, lw);
    shares.charge(j->spec.tenant, l.count);
  }

  void serve_parked() {
    for (auto& p : peers) {
      if (p.fd < 0 || p.finished || !p.parked) continue;
      try {
        dispatch(p);  // stays parked while there is still nothing to hand out
      } catch (...) {
        drop_peer(p);
      }
    }
  }

  // Parked time is straggler wait: each job running while the worker idled
  // is charged the part of the wait that overlapped its run.
  void charge_wait(ServerJob& j, const Peer& p) {
    j.ledger->stats().straggler_wait_seconds +=
        std::min(p.parked_since.seconds(), j.run_wall.seconds());
  }

  void unpark(Peer& p) {
    if (!p.parked) return;
    p.parked = false;
    for (auto& [id, j] : jobs)
      if (j.state == JobState::kRunning && j.ledger != nullptr) charge_wait(j, p);
  }

  // Every running ledger requeues the ranges `worker_id` held.
  void revoke(int worker_id, bool lost) {
    for (auto& [id, j] : jobs)
      if (j.state == JobState::kRunning && j.ledger != nullptr)
        j.ledger->revoke_worker(worker_id, lost);
  }

  void drop_peer(Peer& p) {
    if (p.fd >= 0) ::close(p.fd);
    p.fd = -1;
    const bool was_finished = p.finished;
    p.finished = true;
    unpark(p);
    // A draining worker already finished every lease — losing only its
    // goodbye frames is not a lost worker.
    if (p.worker_id >= 0 && !was_finished) revoke(p.worker_id, /*lost=*/!p.draining);
  }

  // --- job completion ------------------------------------------------------

  void finish_job(ServerJob& j) {
    if (j.internal()) {
      finish_child_job(j);
      return;
    }
    for (const auto& p : peers)
      if (p.parked) charge_wait(j, p);
    JobResultRecord rec;
    rec.job_id = j.id;
    rec.name = j.spec.name;
    rec.tenant = j.spec.tenant;
    rec.num_slices = j.base.num_slices;
    rec.wall_seconds = j.run_wall.seconds();
    fill_telemetry(j, &rec);
    if (!j.merger->complete()) {
      rec.state = JobState::kFailed;
      rec.error = "reduction incomplete despite a drained ledger";
    } else if (j.one_shot) {
      j.merges = j.merger->merges();
      j.root = j.merger->take_root();
      rec.state = JobState::kDone;
    } else {
      auto root = j.merger->take_root();
      if (root.rank() != 0 || root.size() != 1) {
        rec.state = JobState::kFailed;
        rec.error = "amplitude job produced a non-scalar root";
      } else {
        const auto amp = std::complex<double>(root.data()[0]) * j.prepared->lowered.scalar;
        rec.amplitude_re = amp.real();
        rec.amplitude_im = amp.imag();
        rec.state = JobState::kDone;
        if (result_cache != nullptr) {
          // Populate the shared cache: the next identical submit — here or
          // in a solo run pointed at the same --cache-dir — short-circuits.
          cache::AmplitudeEntry e;
          e.amplitude = amp;
          e.num_slices = rec.num_slices;
          e.slicing = j.prepared->plan.metrics;
          e.tasks_run = rec.tasks_run;
          e.wall_seconds = rec.wall_seconds;
          e.telemetry = rec.telemetry;
          result_cache->insert_amplitude(spec_result_key(j.spec), e);
        }
      }
    }
    finalize_job(j, std::move(rec));
  }

  // The record's telemetry tail: the workers' latest cumulative records,
  // their aggregate, and the ledger's lease counters folded into the
  // executor snapshot so they ride every telemetry path.
  void fill_telemetry(const ServerJob& j, JobResultRecord* rec) const {
    auto& t = rec->telemetry;
    for (const auto& [wid, tel] : j.worker_tel) t.shards.push_back(tel);
    const auto agg = aggregate_telemetry(t.shards);
    t.stats = agg.stats;
    t.runtime_stats = agg.executor;
    t.memory = agg.memory;
    rec->tasks_run = agg.tasks_run;
    t.rebalance = j.ledger->stats();
    t.runtime_stats.ranges_stolen += t.rebalance.ranges_stolen;
    t.runtime_stats.ranges_reissued += t.rebalance.ranges_reissued;
    t.runtime_stats.straggler_wait_seconds += t.rebalance.straggler_wait_seconds;
  }

  void fail_job(ServerJob& j, const std::string& error) {
    if (j.internal()) {
      // A child's failure is its parent's failure: retire the child in
      // place (no record of its own) and surface the error on the parent.
      j.state = JobState::kFailed;
      j.ledger.reset();
      j.merger.reset();
      j.journal.reset();
      j.prepared.reset();
      j.worker_tel.clear();
      end_job_on_workers(j.id);
      auto pit = jobs.find(j.parent);
      if (pit != jobs.end() && !terminal(pit->second.state)) {
        pit->second.child = 0;
        fail_job(pit->second,
                 "group " + std::to_string(pit->second.next_group) + ": " + error);
      }
      return;
    }
    JobResultRecord rec;
    rec.job_id = j.id;
    rec.name = j.spec.name;
    rec.tenant = j.spec.tenant;
    rec.state = JobState::kFailed;
    rec.error = error;
    rec.telemetry.error = error;
    if (j.state == JobState::kRunning) rec.wall_seconds = j.run_wall.seconds();
    finalize_job(j, std::move(rec));
  }

  void cancel_job_record(ServerJob& j) {
    JobResultRecord rec;
    rec.job_id = j.id;
    rec.name = j.spec.name;
    rec.tenant = j.spec.tenant;
    rec.state = JobState::kCancelled;
    rec.error = "cancelled by client";
    if (j.state == JobState::kRunning) rec.wall_seconds = j.run_wall.seconds();
    finalize_job(j, std::move(rec));
  }

  void finalize_job(ServerJob& j, JobResultRecord rec) {
    j.result = std::move(rec);
    j.state = j.result.state;
    switch (j.state) {
      case JobState::kDone: ++completed; break;
      case JobState::kFailed: ++failed; break;
      case JobState::kCancelled: ++cancelled; break;
      default: break;
    }
    persist_result(j);
    // Release the run machinery: in-flight worker frames for this job's
    // leases now route nowhere and are counted as late drops.
    j.ledger.reset();
    j.merger.reset();
    j.journal.reset();
    // With the writer closed, shrink a finished job's spill journal to its
    // single-span form (PR 5 carry-over: long-lived state dirs must not
    // accumulate one record per lease forever).
    if (!j.spill_dir.empty() && j.state == JobState::kDone) {
      try {
        compact_checkpoint(j.spill_dir);
      } catch (const std::exception&) {
        // Compaction is an optimization; the full journal still resumes.
      }
    }
    j.prepared.reset();
    j.worker_tel.clear();
    end_job_on_workers(j.id);
    // A terminal query parent takes its running child down with it: the
    // child's machinery drops so in-flight worker frames become clean late
    // drops, exactly like a cancelled classic job.
    if (j.child != 0) {
      auto cit = jobs.find(j.child);
      if (cit != jobs.end() && !terminal(cit->second.state)) {
        cit->second.state = JobState::kCancelled;
        cit->second.ledger.reset();
        cit->second.merger.reset();
        cit->second.prepared.reset();
        cit->second.worker_tel.clear();
        end_job_on_workers(j.child);
      }
      j.child = 0;
    }
    j.queries = {};
    j.groups.clear();
    j.group_amps.clear();
    j.query_tel.clear();
    for (auto& p : peers) {
      if (p.kind != Peer::Kind::kWaiter || p.fd < 0 || p.waiting_job != j.id) continue;
      try {
        ByteWriter w;
        put_result_record(w, j.result);
        write_frame(p.fd, FrameType::kResult, w);
      } catch (...) {
      }
      ::close(p.fd);
      p.fd = -1;
      p.finished = true;
    }
  }

  // Tells every worker holding job `id`'s kJob to drop its context. The job
  // is terminal, so no lease of it follows; a worker that died meanwhile
  // shows up as EOF on the next poll.
  void end_job_on_workers(uint64_t id) {
    ByteWriter w;
    w.put<uint64_t>(id);
    for (auto& p : peers) {
      if (p.fd < 0 || p.jobs_sent.erase(id) == 0) continue;
      try {
        write_frame(p.fd, FrameType::kJobEnd, w);
      } catch (...) {
      }
    }
  }

  // --- control plane -------------------------------------------------------

  void reply_submit(int fd, bool ok, uint64_t id, const std::string& msg) {
    ByteWriter w;
    w.put<uint32_t>(ok ? 1 : 0);
    w.put<uint64_t>(id);
    w.put_string(msg);
    write_frame(fd, FrameType::kSubmitReply, w);
  }

  void reply_server(int fd, bool ok, const std::string& msg) {
    ByteWriter w;
    w.put<uint32_t>(ok ? 1 : 0);
    w.put_string(msg);
    write_frame(fd, FrameType::kServerReply, w);
  }

  void handle_submit(Peer& p, const Frame& f) {
    ByteReader r(f.payload);
    auto spec = get_job_spec(r);
    std::string reason;
    if (one_shot) {
      reason = "this coordinator runs a single job";
    } else if (shutting_down) {
      reason = "server is shutting down";
    } else if (!admission.admit(queued_count())) {
      reason = "queue full (" + std::to_string(queued_count()) + " of " +
               std::to_string(admission.options().max_queued) + " jobs queued)";
    } else if (spec.kind != "amp" && spec.kind != "query") {
      reason = "unknown job kind \"" + spec.kind + "\" (expected \"amp\" or \"query\")";
    } else if (spec.kind == "query" && spec.amp_mode != "exact" && spec.amp_mode != "grouped") {
      reason = "unknown amp mode \"" + spec.amp_mode + "\" (expected \"exact\" or \"grouped\")";
    } else if (!spec.precision.empty() && spec.precision != "fp32" && spec.precision != "bf16") {
      reason = "unknown precision \"" + spec.precision + "\" (expected \"fp32\" or \"bf16\")";
    } else {
      try {
        auto circ = circuit::circuit_from_string(spec.circuit_text);
        if (size_t(circ.num_qubits) != spec.bits.size()) {
          reason = "bitstring length " + std::to_string(spec.bits.size()) +
                   " does not match the circuit's " + std::to_string(circ.num_qubits) +
                   " qubits";
        } else if (spec.kind == "query") {
          // Malformed query files are rejected AT SUBMIT, with the parser's
          // line-tagged message — never queued to fail later.
          auto parsed = query::parse_queries(spec.query_text, circ.num_qubits);
          if (!parsed.ok())
            reason = "line " + std::to_string(parsed.error_line) + ": " + parsed.error;
          else if (parsed.queries.empty())
            reason = "query file contains no queries";
        }
      } catch (const std::exception& e) {
        reason = std::string("bad circuit: ") + e.what();
      }
    }
    if (!reason.empty()) {
      ++rejected;
      reply_submit(p.fd, false, 0, reason);
      return;
    }
    const uint64_t id = next_job_id++;
    ServerJob j;
    j.id = id;
    j.spec = std::move(spec);
    if (j.spec.name.empty()) j.spec.name = "job-" + std::to_string(id);
    shares.set_weight(j.spec.tenant, j.spec.weight);  // latest submit wins
    ++submitted;
    // Duplicate-submit short-circuit: a spec whose result fingerprint is
    // already cached turns terminal AT SUBMIT TIME — it never queues, never
    // plans, never touches the fleet. The new job id gets its own spec.job
    // and result.bin (identity rewritten) so fetch/status work as usual.
    cache::AmplitudeEntry hit;
    if (result_cache != nullptr && j.spec.kind == "amp" &&
        result_cache->lookup_amplitude(spec_result_key(j.spec), &hit)) {
      JobResultRecord rec;
      rec.job_id = id;
      rec.name = j.spec.name;
      rec.tenant = j.spec.tenant;
      rec.state = JobState::kDone;
      rec.amplitude_re = hit.amplitude.real();
      rec.amplitude_im = hit.amplitude.imag();
      rec.num_slices = hit.num_slices;
      rec.wall_seconds = hit.wall_seconds;  // the run that earned the entry
      rec.tasks_run = hit.tasks_run;
      rec.telemetry = hit.telemetry;
      j.result = std::move(rec);
      j.state = JobState::kDone;
      j.total = uint64_t(1) << uint32_t(std::max<int32_t>(0, j.result.num_slices));
      persist_spec(j);
      persist_result(j);
      jobs.emplace(id, std::move(j));
      ++completed;
      ++served_from_cache;
      reply_submit(p.fd, true, id, "done (served from cache)");
      return;
    }
    persist_spec(j);
    jobs.emplace(id, std::move(j));
    reply_submit(p.fd, true, id, "queued");
  }

  void handle_cancel(Peer& p, const Frame& f) {
    ByteReader r(f.payload);
    const uint64_t id = r.get<uint64_t>();
    auto it = jobs.find(id);
    if (it == jobs.end() || it->second.internal()) {
      reply_server(p.fd, false, "unknown job id " + std::to_string(id));
      return;
    }
    if (terminal(it->second.state)) {
      reply_server(p.fd, false,
                   "job " + std::to_string(id) + " already " +
                       job_state_name(it->second.state));
      return;
    }
    cancel_job_record(it->second);
    reply_server(p.fd, true, "cancelled");
  }

  void handle_fetch(Peer& p, const Frame& f) {
    ByteReader r(f.payload);
    const uint64_t id = r.get<uint64_t>();
    const bool wait = r.get<uint32_t>() != 0;
    auto it = jobs.find(id);
    if (it == jobs.end() || it->second.internal()) {
      send_error(p.fd, "unknown job id " + std::to_string(id));
      ::close(p.fd);
      p.fd = -1;
      p.finished = true;
      return;
    }
    if (terminal(it->second.state)) {
      ByteWriter w;
      put_result_record(w, it->second.result);
      write_frame(p.fd, FrameType::kResult, w);
      ::close(p.fd);
      p.fd = -1;
      p.finished = true;
      return;
    }
    if (wait) {
      // Long poll: the fd stays open until the job turns terminal.
      p.kind = Peer::Kind::kWaiter;
      p.waiting_job = id;
      return;
    }
    send_error(p.fd, "job " + std::to_string(id) + " is " +
                         job_state_name(it->second.state) + " (use --wait to block)");
    ::close(p.fd);
    p.fd = -1;
    p.finished = true;
  }

  void handle_shutdown(Peer& p) {
    shutting_down = true;
    // Waiters on jobs that will never start now get a clean refusal
    // instead of a hang (queued jobs persist for the next server).
    for (auto& w : peers) {
      if (w.kind != Peer::Kind::kWaiter || w.fd < 0) continue;
      auto it = jobs.find(w.waiting_job);
      if (it != jobs.end() && terminal(it->second.state)) continue;
      send_error(w.fd, "server shutting down; job " + std::to_string(w.waiting_job) +
                           " is still " +
                           (it == jobs.end() ? "unknown"
                                             : job_state_name(it->second.state)));
      ::close(w.fd);
      w.fd = -1;
      w.finished = true;
    }
    reply_server(p.fd, true, "draining: finishing running jobs, then exiting");
  }

  // --- frame handling ------------------------------------------------------

  void handle_frame(Peer& p, const Frame& f) {
    if (p.kind == Peer::Kind::kUnknown) {
      switch (f.type) {
        case FrameType::kHello: {
          if (p.worker_id < 0) p.worker_id = next_worker_id++;
          ByteWriter w;
          w.put<int32_t>(int32_t(p.worker_id));
          w.put<double>(opt.heartbeat_seconds);
          write_frame(p.fd, FrameType::kWelcome, w);
          p.kind = Peer::Kind::kWorker;
          return;
        }
        case FrameType::kStatusRequest:
        case FrameType::kJobStatus: {
          uint64_t id = 0;
          if (f.type == FrameType::kJobStatus && !f.payload.empty()) {
            ByteReader r(f.payload);
            id = r.get<uint64_t>();
          }
          std::string json;
          if (id == 0) {
            json = server_status_json();
          } else {
            auto it = jobs.find(id);
            if (it == jobs.end() || it->second.internal()) {
              send_error(p.fd, "unknown job id " + std::to_string(id));
              ::close(p.fd);
              p.fd = -1;
              p.finished = true;
              return;
            }
            json = job_status_json(it->second);
          }
          ByteWriter w;
          w.put_string(json);
          try {
            write_frame(p.fd, FrameType::kStatus, w);
          } catch (...) {
          }
          ::close(p.fd);
          p.fd = -1;
          p.finished = true;
          return;
        }
        case FrameType::kSubmit:
          handle_submit(p, f);
          ::close(p.fd);
          p.fd = -1;
          p.finished = true;
          return;
        case FrameType::kCancel:
          handle_cancel(p, f);
          ::close(p.fd);
          p.fd = -1;
          p.finished = true;
          return;
        case FrameType::kFetchResult:
          handle_fetch(p, f);
          return;
        case FrameType::kShutdown:
          handle_shutdown(p);
          ::close(p.fd);
          p.fd = -1;
          p.finished = true;
          return;
        default:
          throw std::runtime_error("peer opened with an unexpected frame");
      }
    }
    if (p.kind != Peer::Kind::kWorker) {
      // A waiter has nothing more to say; any further frame is a protocol
      // error and costs it the connection.
      throw std::runtime_error("unexpected frame from a result waiter");
    }
    switch (f.type) {
      case FrameType::kLeaseRequest: {
        if (!f.payload.empty()) {
          ByteReader r(f.payload);
          if (int(r.get<int32_t>()) != p.worker_id)
            throw std::runtime_error("lease request carries a mismatched worker id");
        }
        p.parked = false;
        dispatch(p);
        break;
      }
      case FrameType::kLeaseBlock: {
        ByteReader r(f.payload);
        const auto lease = r.get<uint64_t>();
        const int level = int(r.get<int32_t>());
        const auto index = r.get<uint64_t>();
        auto it = jobs.find(lease >> 32);
        if (it == jobs.end() || it->second.state != JobState::kRunning) {
          ++late_frames_dropped;  // job finished/cancelled while in flight
          break;
        }
        it->second.ledger->add_block(p.worker_id, lease, level, index, get_tensor(r));
        break;
      }
      case FrameType::kRangeDone: {
        ByteReader r(f.payload);
        const auto lease = r.get<uint64_t>();
        auto it = jobs.find(lease >> 32);
        if (it == jobs.end() || it->second.state != JobState::kRunning) {
          ++late_frames_dropped;
          break;
        }
        ServerJob& j = it->second;
        bool merged = false;
        try {
          merged = j.ledger->complete(p.worker_id, lease, j.merger.get(), j.journal.get());
        } catch (const CheckpointIoError& e) {
          // The JOB's journal failed, not the worker or the server: fail
          // this job, keep serving the rest of the queue.
          fail_job(j, e.what());
          break;
        }
        if (merged) ++p.leases_completed;
        // Cumulative, so the latest record supersedes every earlier one —
        // even when this range arrived too late to merge, the work was done.
        if (!r.exhausted()) {
          auto tel = get_telemetry(r);
          tel.shard = p.worker_id;
          j.worker_tel[p.worker_id] = tel;
        }
        if (merged && j.ledger->done()) finish_job(j);
        break;
      }
      case FrameType::kHeartbeat: {
        if (!f.payload.empty()) {
          ByteReader r(f.payload);
          p.backend = r.get_string();
          if (!r.exhausted()) {
            p.pulse = get_pulse(r);
            p.has_pulse = true;
          }
        }
        break;
      }
      case FrameType::kTrace:
        // The worker's serialized trace buffers, shipped right before its
        // kDone; merged into this process's flush under the worker's own
        // rank/pid.
        obs::Tracer::instance().ingest(f.payload);
        break;
      case FrameType::kDone:
        ::close(p.fd);
        p.fd = -1;
        p.finished = true;
        break;
      case FrameType::kError: {
        ByteReader r(f.payload);
        throw std::runtime_error("worker reported: " + r.get_string());
      }
      default:
        throw std::runtime_error("unexpected frame type from fleet worker");
    }
  }

  // --- observability -------------------------------------------------------

  double fleet_mean_utilization() const {
    double sum = 0;
    int n = 0;
    for (const auto& p : peers) {
      if (p.kind != Peer::Kind::kWorker || p.fd < 0 || p.finished || !p.has_pulse) continue;
      sum += p.pulse.ema_utilization;
      ++n;
    }
    return n > 0 ? sum / n : -1;
  }

  void observe_fleet() {
    if (admission_last.seconds() < 1.0) return;
    admission_last.reset();
    const double mean = fleet_mean_utilization();
    if (mean >= 0) admission.observe_utilization(mean);
  }

  obs::ServerSample metrics_sample() const {
    obs::ServerSample s;
    s.queued = queued_count();
    s.running = uint64_t(running_count());
    for (const auto& p : peers)
      if (p.kind == Peer::Kind::kWorker && p.fd >= 0 && !p.finished) ++s.workers;
    s.running_limit = admission.running_limit();
    s.max_queued = admission.options().max_queued;
    const double mean = fleet_mean_utilization();
    s.fleet_utilization_ema = mean >= 0 ? mean : 0;
    s.submitted_total = submitted;
    s.rejected_total = rejected;
    s.cancelled_total = cancelled;
    s.completed_total = completed;
    s.failed_total = failed;
    for (const auto& t : shares.shares()) {
      obs::TenantSample ts;
      ts.tenant = t.tenant;
      ts.weight = t.weight;
      ts.virtual_time = t.virtual_time;
      ts.tasks_charged = t.tasks_charged;
      for (const auto& [id, j] : jobs) {
        if (j.spec.tenant != t.tenant || j.internal()) continue;
        if (j.state == JobState::kQueued) ++ts.queued;
        if (j.state == JobState::kRunning) ++ts.running;
      }
      s.tenants.push_back(std::move(ts));
    }
    return s;
  }

  obs::CacheSample cache_sample() const {
    obs::CacheSample s;
    auto tier = [](const char* name, const cache::TierStats& t) {
      obs::CacheTierSample o;
      o.tier = name;
      o.memory_hits = t.memory_hits;
      o.disk_hits = t.disk_hits;
      o.misses = t.misses;
      o.evictions = t.evictions;
      o.insertions = t.insertions;
      o.corrupt_dropped = t.corrupt_dropped;
      o.disk_bytes_written = t.disk_bytes_written;
      o.memory_entries = t.memory_entries;
      o.memory_bytes = t.memory_bytes;
      return o;
    };
    if (plan_cache != nullptr) s.tiers.push_back(tier("plan", plan_cache->stats()));
    if (result_cache != nullptr) {
      s.tiers.push_back(tier("result", result_cache->stats()));
      s.superset_hits = result_cache->superset_hits();
    }
    s.planner_invocations = path::find_path_invocations();
    s.served_results = served_from_cache;
    return s;
  }

  void maybe_write_metrics(bool force = false) {
    if (opt.metrics_interval_seconds <= 0 || opt.metrics_out.empty()) return;
    if (!force && metrics_last.seconds() < opt.metrics_interval_seconds) return;
    metrics_last.reset();
    obs::MetricsRegistry reg;
    obs::fill_server_metrics(reg, metrics_sample());
    obs::fill_cache_metrics(reg, cache_sample());
    fill_coordinator_metrics(reg);
    reg.write_files(opt.metrics_out);  // best effort
  }

  // The scheduler-eye series: ledger progress and lease counters summed
  // over the running jobs, plus one gauge set per worker from its pulses.
  void fill_coordinator_metrics(obs::MetricsRegistry& reg) const {
    uint64_t done = 0, total = 0, pending = 0, active = 0;
    RebalanceStats s;
    double lag = -1;
    for (const auto& [id, j] : jobs) {
      if (j.state != JobState::kRunning || j.ledger == nullptr) continue;
      done += j.ledger->tasks_done();
      total += j.ledger->total();
      pending += j.ledger->pending_ranges();
      active += j.ledger->active_leases();
      const auto& js = j.ledger->stats();
      s.leases_issued += js.leases_issued;
      s.leases_completed += js.leases_completed;
      s.ranges_stolen += js.ranges_stolen;
      s.ranges_reissued += js.ranges_reissued;
      s.ranges_requeued += js.ranges_requeued;
      s.workers_lost += js.workers_lost;
      s.straggler_wait_seconds += js.straggler_wait_seconds;
      if (j.journal != nullptr) lag = std::max(lag, j.journal->lag_seconds());
    }
    reg.gauge("ltns_coordinator_tasks_done", double(done));
    reg.gauge("ltns_coordinator_tasks_total", double(total));
    reg.gauge("ltns_coordinator_pending_ranges", double(pending));
    reg.gauge("ltns_coordinator_active_leases", double(active));
    reg.counter("ltns_leases_issued_total", double(s.leases_issued));
    reg.counter("ltns_leases_completed_total", double(s.leases_completed));
    reg.counter("ltns_ranges_stolen_total", double(s.ranges_stolen));
    reg.counter("ltns_ranges_reissued_total", double(s.ranges_reissued));
    reg.counter("ltns_ranges_requeued_total", double(s.ranges_requeued));
    reg.counter("ltns_workers_lost_total", double(s.workers_lost));
    reg.counter("ltns_straggler_wait_seconds_total", s.straggler_wait_seconds);
    if (lag >= 0) reg.gauge("ltns_journal_lag_seconds", lag);
    for (const auto& p : peers) {
      if (p.worker_id < 0) continue;
      const obs::Labels worker{{"worker", std::to_string(p.worker_id)}};
      reg.gauge("ltns_worker_alive", p.fd >= 0 && !p.finished ? 1 : 0, worker);
      reg.gauge("ltns_worker_leases_completed", double(p.leases_completed), worker);
      if (p.has_pulse) {
        reg.gauge("ltns_worker_utilization_ema", p.pulse.ema_utilization, worker);
        reg.gauge("ltns_worker_tasks_run", double(p.pulse.tasks_run), worker);
        reg.gauge("ltns_worker_device_bytes", p.pulse.device_bytes, worker);
        reg.gauge("ltns_worker_device_ns", p.pulse.device_ns, worker);
        reg.gauge("ltns_worker_wall_seconds", p.pulse.wall_seconds, worker);
      }
    }
  }

  std::string job_status_json(const ServerJob& j) const {
    std::ostringstream o;
    o.setf(std::ios::fixed);
    o << std::setprecision(3);
    const uint64_t done_tasks =
        j.ledger != nullptr ? j.ledger->tasks_done()
                            : (j.state == JobState::kDone ? j.total : 0);
    o << "{\"id\":" << j.id << ",\"name\":\"" << obs::json_escape(j.spec.name) << "\",\"tenant\":\""
      << obs::json_escape(j.spec.tenant) << "\",\"weight\":" << j.spec.weight
      << ",\"priority\":" << j.spec.priority << ",\"state\":\"" << job_state_name(j.state)
      << "\",\"total\":" << j.total << ",\"tasks_done\":" << done_tasks << ",\"progress\":"
      << (j.total > 0 ? double(done_tasks) / double(j.total)
                      : (j.state == JobState::kDone ? 1.0 : 0.0));
    if (j.spec.kind == "query") {
      // Query parents progress group by group; per-lease progress lives on
      // the (hidden) child actually holding the ledger.
      o << ",\"kind\":\"query\",\"groups\":" << j.query_groups
        << ",\"groups_done\":" << j.next_group
        << ",\"groups_from_cache\":" << j.query_cache_groups
        << ",\"group_contractions\":" << j.query_contractions;
    }
    if (j.ledger != nullptr) {
      o << ",\"pending_ranges\":" << j.ledger->pending_ranges()
        << ",\"active_leases\":" << j.ledger->active_leases()
        << ",\"lease_size\":" << j.ledger->lease_size();
      // Per-job progress straight from the live pulses: which workers have
      // contributed, and how much, as of their latest kRangeDone.
      o << ",\"workers\":[";
      bool first = true;
      for (const auto& [wid, tel] : j.worker_tel) {
        o << (first ? "" : ",") << "{\"id\":" << wid << ",\"tasks_run\":" << tel.tasks_run
          << ",\"leases\":" << tel.leases << ",\"backend\":\"" << obs::json_escape(tel.backend)
          << "\"}";
        first = false;
      }
      o << "]";
    }
    const auto& s = j.ledger != nullptr ? j.ledger->stats() : j.result.telemetry.rebalance;
    o << ",\"rebalance\":{\"leases_issued\":" << s.leases_issued
      << ",\"leases_completed\":" << s.leases_completed << ",\"ranges_stolen\":" << s.ranges_stolen
      << ",\"ranges_reissued\":" << s.ranges_reissued
      << ",\"ranges_requeued\":" << s.ranges_requeued
      << ",\"late_results_dropped\":" << s.late_results_dropped
      << ",\"workers_lost\":" << s.workers_lost << ",\"ranges_replayed\":" << s.ranges_replayed
      << ",\"tasks_replayed\":" << s.tasks_replayed
      << ",\"straggler_wait_seconds\":" << s.straggler_wait_seconds << "}";
    if (j.journal != nullptr) {
      // Spill-dir health (journal size, fsync age): the status view of
      // checkpoint lag.
      const auto health = j.journal->health_json();
      if (!health.empty()) o << ",\"spill\":" << health;
      o << ",\"journal_lag_seconds\":" << j.journal->lag_seconds();
    }
    if (j.state == JobState::kRunning)
      o << ",\"wall_seconds\":" << j.run_wall.seconds();
    else if (terminal(j.state))
      o << ",\"wall_seconds\":" << j.result.wall_seconds;
    if (terminal(j.state) && !j.result.error.empty())
      o << ",\"error\":\"" << obs::json_escape(j.result.error) << "\"";
    o << "}";
    return o.str();
  }

  std::string server_status_json() const {
    std::ostringstream o;
    o.setf(std::ios::fixed);
    o << std::setprecision(3);
    o << "{\"build\":" << obs::build_info_json() << ",\"service\":\"ltns-jobserver\""
      << ",\"shutting_down\":" << (shutting_down ? "true" : "false")
      << ",\"queued\":" << queued_count() << ",\"running\":" << running_count()
      << ",\"submitted_total\":" << submitted << ",\"rejected_total\":" << rejected
      << ",\"completed_total\":" << completed << ",\"failed_total\":" << failed
      << ",\"cancelled_total\":" << cancelled
      << ",\"late_frames_dropped\":" << late_frames_dropped
      << ",\"served_from_cache_total\":" << served_from_cache;
    if (plan_cache != nullptr || result_cache != nullptr) {
      auto tier_json = [&o](const char* name, const cache::TierStats& t, bool lead_comma) {
        o << (lead_comma ? "," : "") << "\"" << name << "\":{\"memory_hits\":" << t.memory_hits
          << ",\"disk_hits\":" << t.disk_hits << ",\"misses\":" << t.misses
          << ",\"evictions\":" << t.evictions << ",\"insertions\":" << t.insertions
          << ",\"corrupt_dropped\":" << t.corrupt_dropped << ",\"memory_entries\":"
          << t.memory_entries << "}";
      };
      o << ",\"cache\":{\"dir\":\"" << obs::json_escape(opt.cache.cache_dir) << "\"";
      if (plan_cache != nullptr) tier_json("plan", plan_cache->stats(), true);
      if (result_cache != nullptr) tier_json("result", result_cache->stats(), true);
      o << "}";
    }
    const double mean = fleet_mean_utilization();
    o << ",\"admission\":{\"running_limit\":" << admission.running_limit()
      << ",\"min_running\":" << admission.options().min_running
      << ",\"max_running\":" << admission.options().max_running
      << ",\"max_queued\":" << admission.options().max_queued
      << ",\"fleet_utilization_ema\":" << (mean >= 0 ? mean : 0) << "}";
    o << ",\"tenants\":[";
    bool first = true;
    for (const auto& t : shares.shares()) {
      o << (first ? "" : ",") << "{\"tenant\":\"" << obs::json_escape(t.tenant)
        << "\",\"weight\":" << t.weight << ",\"virtual_time\":" << t.virtual_time
        << ",\"tasks_charged\":" << t.tasks_charged << "}";
      first = false;
    }
    o << "],\"workers\":[";
    first = true;
    for (const auto& p : peers) {
      if (p.worker_id < 0) continue;
      o << (first ? "" : ",") << "{\"id\":" << p.worker_id << ",\"backend\":\""
        << (p.backend.empty() ? "?" : obs::json_escape(p.backend))
        << "\",\"alive\":" << (p.fd >= 0 && !p.finished ? "true" : "false")
        << ",\"parked\":" << (p.parked ? "true" : "false")
        << ",\"draining\":" << (p.draining ? "true" : "false")
        << ",\"stalled\":" << (p.stalled ? "true" : "false")
        << ",\"last_seen_seconds\":" << p.last_seen.seconds()
        << ",\"leases_completed\":" << p.leases_completed;
      if (p.has_pulse) {
        // The latest heartbeat pulse, refreshed after every finished block.
        const auto& u = p.pulse;
        o << ",\"utilization_ema\":" << u.ema_utilization << ",\"tasks_run\":" << u.tasks_run
          << ",\"device_bytes\":" << u.device_bytes << ",\"device_ns\":" << u.device_ns
          << ",\"device_bytes_per_ns\":" << (u.device_ns > 0 ? u.device_bytes / u.device_ns : 0)
          << ",\"wall_seconds\":" << u.wall_seconds << ",\"jobs_held\":" << u.jobs_held;
      }
      o << "}";
      first = false;
    }
    o << "],\"jobs\":[";
    first = true;
    for (const auto& [id, j] : jobs) {
      if (j.internal()) continue;  // children are an implementation detail
      o << (first ? "" : ",") << job_status_json(j);
      first = false;
    }
    o << "]}";
    return o.str();
  }

  // --- main loop -----------------------------------------------------------

  void accept_peer() {
    int fd = accept_from(listen_fd);
    if (fd < 0) return;
    set_rcv_timeout(fd, goodbye_timeout());
    Peer p;
    p.fd = fd;
    peers.push_back(std::move(p));
  }

  void add_worker(int fd, int worker_id) {
    set_rcv_timeout(fd, goodbye_timeout());
    Peer p;
    p.fd = fd;
    p.worker_id = worker_id;
    peers.push_back(std::move(p));
    next_worker_id = std::max(next_worker_id, worker_id + 1);
  }

  // Why a run with outstanding work cannot go on, or "" while it can: no
  // worker is left and none can join, or none has been productive for
  // accept_timeout_seconds.
  std::string dead_end(Timer& no_worker) const {
    uint64_t left = 0, total = 0;
    for (const auto& [id, j] : jobs) {
      if (j.state != JobState::kRunning || j.ledger == nullptr) continue;
      left += j.ledger->total() - j.ledger->tasks_done();
      total += j.ledger->total();
    }
    int live = 0, productive = 0;
    for (const auto& p : peers) {
      if (p.worker_id < 0 || p.fd < 0 || p.finished) continue;
      ++live;
      if (!p.stalled) ++productive;
    }
    if (left == 0 || productive > 0) {
      no_worker.reset();
      return "";
    }
    if (live == 0 && listen_fd < 0)
      return "all workers died with " + std::to_string(left) + " of " + std::to_string(total) +
             " tasks outstanding";
    if (opt.accept_timeout_seconds > 0 &&
        no_worker.seconds() > double(opt.accept_timeout_seconds))
      return "timed out waiting for a live worker with " + std::to_string(left) +
             " tasks outstanding";
    return "";
  }

  std::string loop() {
    std::signal(SIGPIPE, SIG_IGN);
    Timer no_worker;
    std::string fatal;
    for (;;) {
      maybe_start_jobs();
      serve_parked();

      if (closed() && running_count() == 0) {
        // Nothing left to run: every welcomed worker gets its one kDrain
        // now — a computing one reads it with its next lease request.
        for (auto& p : peers) {
          if (p.kind != Peer::Kind::kWorker || p.fd < 0 || p.finished || p.draining) continue;
          try {
            dispatch(p);
          } catch (...) {
            drop_peer(p);
          }
        }
        bool settled = true;
        for (const auto& p : peers)
          if (p.fd >= 0 && !p.finished) settled = false;
        if (settled) break;
      }

      // Prune spent control connections (a dashboard polling status every
      // second must not grow the peer table without bound).
      peers.erase(std::remove_if(peers.begin(), peers.end(),
                                 [](const Peer& p) {
                                   return p.fd < 0 && p.finished && p.worker_id < 0;
                                 }),
                  peers.end());

      // Stall quarantine: a silent worker has its leases revoked across
      // every running job; if it recovers, its late results drop cleanly.
      // Marking it stalled is also what lets the dead-end check fire on a
      // frozen fleet.
      const double stall = opt.stall_timeout_seconds;
      for (auto& p : peers) {
        if (p.fd < 0 || p.finished) continue;
        if (stall > 0 && p.worker_id >= 0 && !p.stalled && !p.parked &&
            p.last_seen.seconds() > stall) {
          p.stalled = true;
          revoke(p.worker_id, /*lost=*/false);
        }
        if (p.draining && p.drain_since.seconds() > goodbye_timeout())
          drop_peer(p);  // never said kDone; give up on its goodbye
        else if (p.kind == Peer::Kind::kUnknown && p.last_seen.seconds() > goodbye_timeout())
          drop_peer(p);  // connected but never completed a handshake
      }

      fatal = dead_end(no_worker);
      if (!fatal.empty()) break;

      observe_fleet();
      maybe_write_metrics();

      std::vector<pollfd> pfds;
      std::vector<size_t> owner;  // pfds index -> peers index; listener = SIZE_MAX
      if (listen_fd >= 0) {
        pfds.push_back({listen_fd, POLLIN, 0});
        owner.push_back(size_t(-1));
      }
      for (size_t i = 0; i < peers.size(); ++i) {
        if (peers[i].fd < 0) continue;
        pfds.push_back({peers[i].fd, POLLIN, 0});
        owner.push_back(i);
      }
      ::poll(pfds.data(), nfds_t(pfds.size()), 25);
      for (size_t k = 0; k < pfds.size(); ++k) {
        if ((pfds[k].revents & (POLLIN | POLLERR | POLLHUP)) == 0) continue;
        if (owner[k] == size_t(-1)) {
          accept_peer();  // the listener polls first, so no peer ref is held yet
          continue;
        }
        Peer& p = peers[owner[k]];
        if (p.fd < 0) continue;  // dropped earlier in this round
        try {
          Frame f;
          if (!read_frame(p.fd, &f)) {
            drop_peer(p);
            continue;
          }
          p.last_seen.reset();
          p.stalled = false;
          handle_frame(p, f);
        } catch (const std::exception& e) {
          if (p.worker_id >= 0 && peer_errors.size() < 4096) {
            if (!peer_errors.empty()) peer_errors += "; ";
            peer_errors += "worker " + std::to_string(p.worker_id) + ": " + e.what();
          }
          drop_peer(p);
        }
      }
    }
    maybe_write_metrics(/*force=*/true);  // terminal state for scrapers
    for (auto& p : peers) close_fd(&p.fd);
    if (!fatal.empty() && !peer_errors.empty()) fatal += " (" + peer_errors + ")";
    return fatal;
  }

  std::string serve() {
    resume_scan();
    return loop();
  }

  OneShotResult run_one(OneShotJob in) {
    one_shot = true;
    const uint64_t id = next_job_id++;
    ServerJob& j = jobs[id];
    j.id = id;
    j.one_shot = true;
    j.spec.name = "job-" + std::to_string(id);
    j.base = std::move(in.job);
    j.base.job_id = id;
    j.spill_dir = std::move(in.spill_dir);
    admit(j, in.total, in.run_id, in.resume);

    OneShotResult out;
    out.error = loop();
    if (j.ledger != nullptr) fill_telemetry(j, &j.result);  // the loop gave up mid-run
    if (out.error.empty()) out.error = j.result.error;
    out.root = std::move(j.root);
    out.tasks_run = j.result.tasks_run;
    out.telemetry = std::move(j.result.telemetry);
    // One record per worker that joined, even one that completed no lease.
    auto& shards = out.telemetry.shards;
    std::set<int> reported;
    for (const auto& t : shards) reported.insert(t.shard);
    for (const auto& p : peers) {
      if (p.kind != Peer::Kind::kWorker || !reported.insert(p.worker_id).second) continue;
      ShardTelemetry t;
      t.shard = p.worker_id;
      t.backend = p.backend;
      shards.push_back(std::move(t));
    }
    std::sort(shards.begin(), shards.end(),
              [](const ShardTelemetry& a, const ShardTelemetry& b) { return a.shard < b.shard; });
    out.reduce_merges = j.merges;
    for (const auto& t : shards) out.reduce_merges += t.reduce_merges;
    return out;
  }
};

JobServer::JobServer(uint16_t port, ServerOptions opt) {
  uint16_t bound = 0;
  const int fd = listen_on(port, &bound);
  impl_ = std::make_unique<Impl>(fd, bound, std::move(opt));
}

JobServer::JobServer(ServerOptions opt)
    : impl_(std::make_unique<Impl>(-1, 0, std::move(opt))) {}

JobServer::~JobServer() = default;

uint16_t JobServer::port() const { return impl_->port; }
const ServerOptions& JobServer::options() const { return impl_->opt; }
void JobServer::add_worker(int fd, int worker_id) { impl_->add_worker(fd, worker_id); }
std::string JobServer::serve() { return impl_->serve(); }
OneShotResult JobServer::run_one(OneShotJob job) { return impl_->run_one(std::move(job)); }

}  // namespace ltns::dist

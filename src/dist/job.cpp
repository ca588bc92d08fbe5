#include "dist/job.hpp"

#include <stdexcept>

#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include "circuit/io.hpp"

namespace ltns::dist {

namespace {

void set_nodelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

}  // namespace

void put_job(ByteWriter& w, const Job& j) {
  w.put<uint64_t>(j.job_id);
  w.put_string(j.circuit_text);
  w.put_string(j.bits);
  w.put<uint64_t>(j.plan.size());  // v9
  w.put_bytes(j.plan.data(), j.plan.size());
  w.put_string(j.run_id);
  w.put<uint32_t>(j.executor);
  w.put<uint64_t>(j.grain);
  w.put<int32_t>(j.workers);
  w.put<int32_t>(j.num_slices);
  w.put<uint32_t>(j.fused);
  w.put<uint64_t>(j.ldm_elems);
  w.put_string(j.backend);
  w.put<uint32_t>(j.trace);
  w.put<uint64_t>(j.open_qubits.size());  // v6
  for (int q : j.open_qubits) w.put<int32_t>(int32_t(q));
}

Job get_job(ByteReader& r) {
  Job j;
  j.job_id = r.get<uint64_t>();
  j.circuit_text = r.get_string();
  j.bits = r.get_string();
  const auto plan_len = r.get<uint64_t>();  // v9
  if (plan_len > r.remaining()) throw std::runtime_error("dist wire: truncated plan");
  j.plan.resize(size_t(plan_len));
  r.get_bytes(j.plan.data(), j.plan.size());
  j.run_id = r.get_string();
  j.executor = r.get<uint32_t>();
  j.grain = r.get<uint64_t>();
  j.workers = r.get<int32_t>();
  j.num_slices = r.get<int32_t>();
  j.fused = r.get<uint32_t>();
  j.ldm_elems = r.get<uint64_t>();
  j.backend = r.get_string();
  j.trace = r.get<uint32_t>();
  const auto nq = r.get<uint64_t>();  // v6
  if (nq > r.remaining() / sizeof(int32_t))
    throw std::runtime_error("dist wire: open-qubit count exceeds payload");
  j.open_qubits.reserve(size_t(nq));
  for (uint64_t i = 0; i < nq; ++i) j.open_qubits.push_back(r.get<int32_t>());
  return j;
}

void put_job_spec(ByteWriter& w, const JobSpec& s) {
  w.put_string(s.name);
  w.put_string(s.tenant);
  w.put<uint32_t>(s.weight);
  w.put<int32_t>(s.priority);
  w.put_string(s.circuit_text);
  w.put_string(s.bits);
  w.put<double>(s.target_log2size);
  w.put<uint64_t>(s.plan_seed);
  w.put<uint32_t>(s.fused);
  w.put<uint64_t>(s.ldm_elems);
  w.put_string(s.kind);  // v6
  w.put_string(s.query_text);
  w.put<int32_t>(s.max_open);
  w.put_string(s.amp_mode);
  w.put_string(s.precision);  // v7
}

JobSpec get_job_spec(ByteReader& r) {
  JobSpec s;
  s.name = r.get_string();
  s.tenant = r.get_string();
  s.weight = r.get<uint32_t>();
  s.priority = r.get<int32_t>();
  s.circuit_text = r.get_string();
  s.bits = r.get_string();
  s.target_log2size = r.get<double>();
  s.plan_seed = r.get<uint64_t>();
  s.fused = r.get<uint32_t>();
  s.ldm_elems = r.get<uint64_t>();
  s.kind = r.get_string();  // v6
  s.query_text = r.get_string();
  s.max_open = r.get<int32_t>();
  s.amp_mode = r.get_string();
  s.precision = r.get_string();  // v7
  return s;
}

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

const char* job_state_name(JobState s) {
  switch (s) {
    case JobState::kQueued: return "queued";
    case JobState::kRunning: return "running";
    case JobState::kDone: return "done";
    case JobState::kFailed: return "failed";
    case JobState::kCancelled: return "cancelled";
  }
  return "unknown";
}

void put_rebalance(ByteWriter& w, const RebalanceStats& s) {
  w.put<uint64_t>(s.leases_issued);
  w.put<uint64_t>(s.leases_completed);
  w.put<uint64_t>(s.ranges_stolen);
  w.put<uint64_t>(s.ranges_reissued);
  w.put<uint64_t>(s.ranges_requeued);
  w.put<uint64_t>(s.late_results_dropped);
  w.put<uint64_t>(s.workers_lost);
  w.put<uint64_t>(s.ranges_replayed);
  w.put<uint64_t>(s.tasks_replayed);
  w.put<double>(s.straggler_wait_seconds);
}

RebalanceStats get_rebalance(ByteReader& r) {
  RebalanceStats s;
  s.leases_issued = r.get<uint64_t>();
  s.leases_completed = r.get<uint64_t>();
  s.ranges_stolen = r.get<uint64_t>();
  s.ranges_reissued = r.get<uint64_t>();
  s.ranges_requeued = r.get<uint64_t>();
  s.late_results_dropped = r.get<uint64_t>();
  s.workers_lost = r.get<uint64_t>();
  s.ranges_replayed = r.get<uint64_t>();
  s.tasks_replayed = r.get<uint64_t>();
  s.straggler_wait_seconds = r.get<double>();
  return s;
}

void put_run_telemetry(ByteWriter& w, const api::RunTelemetry& t) {
  put_exec_stats(w, t.stats);
  put_snapshot(w, t.runtime_stats);
  put_memory_stats(w, t.memory);
  w.put<uint64_t>(t.shards.size());
  for (const auto& s : t.shards) put_telemetry(w, s);
  put_rebalance(w, t.rebalance);
  w.put_string(t.error);
}

api::RunTelemetry get_run_telemetry(ByteReader& r) {
  api::RunTelemetry t;
  t.stats = get_exec_stats(r);
  t.runtime_stats = get_snapshot(r);
  t.memory = get_memory_stats(r);
  auto n = r.get<uint64_t>();
  t.shards.reserve(size_t(n));
  for (uint64_t i = 0; i < n; ++i) t.shards.push_back(get_telemetry(r));
  t.rebalance = get_rebalance(r);
  t.error = r.get_string();
  return t;
}

void put_query_result(ByteWriter& w, const query::QueryResult& q) {
  w.put<uint32_t>(uint32_t(q.kind));
  w.put<uint64_t>(q.id);
  w.put_string(q.text);
  w.put_string(q.error);
  w.put<uint64_t>(q.amplitudes.size());
  for (const auto& a : q.amplitudes) {
    w.put<double>(a.real());
    w.put<double>(a.imag());
  }
  w.put<uint64_t>(q.samples.size());
  for (const auto& s : q.samples) w.put_string(s);
  w.put<double>(q.expectation);
}

query::QueryResult get_query_result(ByteReader& r) {
  query::QueryResult q;
  q.kind = query::QueryKind(r.get<uint32_t>());
  q.id = r.get<uint64_t>();
  q.text = r.get_string();
  q.error = r.get_string();
  const auto na = r.get<uint64_t>();
  q.amplitudes.reserve(size_t(na));
  for (uint64_t i = 0; i < na; ++i) {
    const double re = r.get<double>();
    const double im = r.get<double>();
    q.amplitudes.emplace_back(re, im);
  }
  const auto ns = r.get<uint64_t>();
  q.samples.reserve(size_t(ns));
  for (uint64_t i = 0; i < ns; ++i) q.samples.push_back(r.get_string());
  q.expectation = r.get<double>();
  return q;
}

void put_result_record(ByteWriter& w, const JobResultRecord& rec) {
  w.put<uint64_t>(rec.job_id);
  w.put<uint32_t>(uint32_t(rec.state));
  w.put_string(rec.name);
  w.put_string(rec.tenant);
  w.put_string(rec.error);
  w.put<double>(rec.amplitude_re);
  w.put<double>(rec.amplitude_im);
  w.put<int32_t>(rec.num_slices);
  w.put<double>(rec.wall_seconds);
  w.put<uint64_t>(rec.tasks_run);
  put_run_telemetry(w, rec.telemetry);
  w.put_string(rec.kind);  // v6
  w.put<uint64_t>(rec.query_results.size());
  for (const auto& q : rec.query_results) put_query_result(w, q);
}

JobResultRecord get_result_record(ByteReader& r) {
  JobResultRecord rec;
  rec.job_id = r.get<uint64_t>();
  rec.state = JobState(r.get<uint32_t>());
  rec.name = r.get_string();
  rec.tenant = r.get_string();
  rec.error = r.get_string();
  rec.amplitude_re = r.get<double>();
  rec.amplitude_im = r.get<double>();
  rec.num_slices = r.get<int32_t>();
  rec.wall_seconds = r.get<double>();
  rec.tasks_run = r.get<uint64_t>();
  rec.telemetry = get_run_telemetry(r);
  rec.kind = r.get_string();  // v6
  const auto nq = r.get<uint64_t>();
  rec.query_results.reserve(size_t(nq));
  for (uint64_t i = 0; i < nq; ++i) rec.query_results.push_back(get_query_result(r));
  return rec;
}

std::unique_ptr<Prepared> lower_job(const circuit::Circuit& c, const std::vector<int>& bits,
                                    const std::vector<int>& open_qubits) {
  circuit::LoweringOptions lo;
  lo.output_bits = bits;
  lo.open_qubits = open_qubits;
  // The network must reach its FINAL address before a plan is built over
  // it: the contraction tree keeps a raw pointer to it, and a later move
  // of the Prepared would leave that pointer dangling.
  auto p = std::make_unique<Prepared>();
  p->lowered = circuit::lower(c, lo);
  circuit::simplify(p->lowered);
  return p;
}

std::unique_ptr<Prepared> prepare_job(const circuit::Circuit& c, const std::vector<int>& bits,
                                      double target, uint64_t seed,
                                      const std::vector<int>& open_qubits) {
  return prepare_job(c, /*circuit_text=*/"", bits, target, seed, /*plan_cache=*/nullptr,
                     /*from_cache=*/nullptr, open_qubits);
}

std::unique_ptr<Prepared> prepare_job(const circuit::Circuit& c, const std::string& circuit_text,
                                      const std::vector<int>& bits, double target, uint64_t seed,
                                      cache::PlanCache* plan_cache, bool* from_cache,
                                      const std::vector<int>& open_qubits) {
  if (from_cache != nullptr) *from_cache = false;
  auto p = lower_job(c, bits, open_qubits);
  core::PlanOptions po;
  po.target_log2size = target;
  po.seed = seed;
  if (plan_cache != nullptr && plan_cache->enabled()) {
    const auto key = cache::plan_key(circuit_text, open_text(open_qubits), po);
    if (plan_cache->lookup(key, p->lowered.net, &p->plan)) {
      if (from_cache != nullptr) *from_cache = true;
      return p;
    }
    p->plan = core::make_plan(p->lowered.net, po);
    plan_cache->insert(key, p->plan);
    return p;
  }
  p->plan = core::make_plan(p->lowered.net, po);
  return p;
}

void close_fd(int* fd) {
  if (*fd >= 0) ::close(*fd);
  *fd = -1;
}

int listen_on(uint16_t port, uint16_t* bound_port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("dist: socket failed");
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, 64) != 0) {
    close_fd(&fd);
    throw std::runtime_error("dist: bind/listen on port " + std::to_string(port) + " failed");
  }
  socklen_t len = sizeof(addr);
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  *bound_port = ntohs(addr.sin_port);
  return fd;
}

void set_rcv_timeout(int fd, double seconds) {
  if (seconds <= 0) return;
  timeval tv{};
  tv.tv_sec = long(seconds);
  tv.tv_usec = long((seconds - double(tv.tv_sec)) * 1e6);
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
}

void send_error(int fd, const std::string& msg) {
  try {
    ByteWriter w;
    w.put_string(msg);
    write_frame(fd, FrameType::kError, w);
  } catch (...) {
  }
}

int connect_to(const std::string& host, uint16_t port, int attempts) {
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* ai = nullptr;
  if (::getaddrinfo(host.c_str(), std::to_string(port).c_str(), &hints, &ai) != 0 ||
      ai == nullptr)
    return -1;
  int fd = -1;
  for (int attempt = 0; attempt < attempts && fd < 0; ++attempt) {
    if (attempt > 0) ::usleep(500 * 1000);
    for (const addrinfo* a = ai; a != nullptr && fd < 0; a = a->ai_next) {
      fd = ::socket(a->ai_family, a->ai_socktype, a->ai_protocol);
      if (fd >= 0 && ::connect(fd, a->ai_addr, a->ai_addrlen) == 0) break;
      if (fd >= 0) ::close(fd);
      fd = -1;
    }
  }
  ::freeaddrinfo(ai);
  if (fd >= 0) set_nodelay(fd);
  return fd;
}

int accept_from(int listen_fd) {
  const int fd = ::accept(listen_fd, nullptr, nullptr);
  if (fd >= 0) set_nodelay(fd);
  return fd;
}

}  // namespace ltns::dist

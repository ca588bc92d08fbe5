// Multi-tenant job-server tests. The load-bearing invariants:
//   1. FairShare is a real stride scheduler: weighted tenants split the
//      fleet in weight proportion, zero-weight tenants run only when no
//      weighted tenant is runnable, and an idle tenant cannot bank virtual
//      time while away (no post-idle monopoly);
//   2. AdmissionControl bounds the queue hard (reject, never buffer) and
//      walks the concurrent-job limit between the utilization watermarks
//      one step at a time, clamped to [min_running, max_running];
//   3. the server itself multiplexes concurrent jobs from different
//      tenants over ONE fleet and each result is bitwise identical to a
//      solo api::Simulator run of the same spec;
//   4. lifecycle edges hold: cancel works on queued AND running jobs
//      (and is idempotent-safe on terminal ones), a submit past max_queued
//      is rejected with a reason, unknown job ids error instead of hanging;
//   5. a forged frame header on the unauthenticated port costs only its
//      own connection: the server keeps answering;
//   6. the engine rules every coordinator shares: heartbeats off means no
//      stall revocation (no livelock on long leases), shutdown never
//      waits forever on a silent worker, and parked worker time is the
//      job's straggler wait;
//   7. a second job on an already-planned circuit with different bits
//      reuses the plan (a plan-cache hit) and still matches a solo run.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "api/simulator.hpp"
#include "circuit/io.hpp"
#include "dist/client.hpp"
#include "dist/server.hpp"
#include "dist/service.hpp"
#include "test_helpers.hpp"

namespace ltns::dist {
namespace {

// --- FairShare ------------------------------------------------------------

TEST(FairShare, SplitsWorkInWeightProportion) {
  FairShare fs;
  fs.set_weight("alice", 3);
  fs.set_weight("bob", 1);
  int alice = 0, bob = 0;
  for (int i = 0; i < 400; ++i) {
    auto t = fs.pick({"alice", "bob"});
    ASSERT_FALSE(t.empty());
    (t == "alice" ? alice : bob)++;
    fs.charge(t, 1);
  }
  EXPECT_EQ(alice + bob, 400);
  EXPECT_NEAR(alice, 300, 2);
  EXPECT_NEAR(bob, 100, 2);
}

TEST(FairShare, ZeroWeightTenantIsBackgroundOnly) {
  FairShare fs;
  fs.set_weight("paid", 1);
  fs.set_weight("scavenger", 0);
  // While a weighted tenant is runnable the background tenant NEVER runs,
  // no matter how far ahead the weighted tenant's virtual time is.
  for (int i = 0; i < 50; ++i) {
    auto t = fs.pick({"paid", "scavenger"});
    EXPECT_EQ(t, "paid");
    fs.charge(t, 10);
  }
  // Alone, the background tenant does run (weight 0 charges as weight 1).
  EXPECT_EQ(fs.pick({"scavenger"}), "scavenger");
  fs.charge("scavenger", 5);
  EXPECT_GT(fs.virtual_time("scavenger"), 0.0);
}

TEST(FairShare, TwoBackgroundTenantsRoundRobin) {
  FairShare fs;
  fs.set_weight("bg-a", 0);
  fs.set_weight("bg-b", 0);
  int a = 0, b = 0;
  for (int i = 0; i < 20; ++i) {
    auto t = fs.pick({"bg-a", "bg-b"});
    (t == "bg-a" ? a : b)++;
    fs.charge(t, 1);
  }
  EXPECT_EQ(a, 10);
  EXPECT_EQ(b, 10);
}

TEST(FairShare, IdleTenantCannotBankCredit) {
  FairShare fs;
  fs.set_weight("alice", 1);
  fs.set_weight("bob", 1);
  // Bob works alone for a long stretch; Alice is idle (not runnable).
  for (int i = 0; i < 100; ++i) {
    ASSERT_EQ(fs.pick({"bob"}), "bob");
    fs.charge("bob", 1);
  }
  // When Alice returns her virtual time clamps UP to the scheduler clock:
  // she gets the next pick (lowest vt) but not a monopoly — the following
  // 20 picks split evenly instead of all going to her.
  int alice = 0, bob = 0;
  for (int i = 0; i < 20; ++i) {
    auto t = fs.pick({"alice", "bob"});
    (t == "alice" ? alice : bob)++;
    fs.charge(t, 1);
  }
  EXPECT_NEAR(alice, 10, 1);
  EXPECT_NEAR(bob, 10, 1);
}

TEST(FairShare, HeavyWeightCannotStarveLightTenant) {
  FairShare fs;
  fs.set_weight("whale", 9);
  fs.set_weight("minnow", 1);
  int minnow = 0, longest_wait = 0, waiting = 0;
  for (int i = 0; i < 200; ++i) {
    auto t = fs.pick({"whale", "minnow"});
    if (t == "minnow") {
      minnow++;
      waiting = 0;
    } else {
      waiting++;
      longest_wait = std::max(longest_wait, waiting);
    }
    fs.charge(t, 1);
  }
  // 10% of the picks, and never more than ~1/share_ratio picks between
  // consecutive grants: the starvation bound of stride scheduling.
  EXPECT_NEAR(minnow, 20, 2);
  EXPECT_LE(longest_wait, 10);
}

TEST(FairShare, TiesBreakLexicographicallyAndEmptyPickReturnsEmpty) {
  FairShare fs;
  EXPECT_EQ(fs.pick({}), "");
  // Fresh (never-charged) tenants tie at virtual time 0.
  EXPECT_EQ(fs.pick({"zeta", "alpha", "mid"}), "alpha");
  // Unknown names are declared weight-1 on first pick.
  EXPECT_DOUBLE_EQ(fs.virtual_time("zeta"), 0.0);
}

// --- AdmissionControl -----------------------------------------------------

TEST(Admission, StartsOptimisticAndAdmitsUpToQueueBound) {
  AdmissionOptions ao;
  ao.max_queued = 3;
  ao.min_running = 1;
  ao.max_running = 4;
  AdmissionControl ac(ao);
  EXPECT_EQ(ac.running_limit(), 4);
  EXPECT_TRUE(ac.admit(0));
  EXPECT_TRUE(ac.admit(2));
  EXPECT_FALSE(ac.admit(3));  // hard bound: reject, never buffer
  EXPECT_FALSE(ac.admit(100));
}

TEST(Admission, WalksLimitBetweenWatermarksOneStepAtATime) {
  AdmissionOptions ao;
  ao.min_running = 1;
  ao.max_running = 4;
  ao.high_watermark = 0.85;
  ao.low_watermark = 0.5;
  AdmissionControl ac(ao);
  // A saturated fleet steps the limit down once per observation...
  ac.observe_utilization(0.95);
  EXPECT_EQ(ac.running_limit(), 3);
  ac.observe_utilization(0.95);
  ac.observe_utilization(0.95);
  ac.observe_utilization(0.95);
  EXPECT_EQ(ac.running_limit(), 1);  // ...clamped at the floor
  // In the comfort band the limit holds.
  ac.observe_utilization(0.7);
  EXPECT_EQ(ac.running_limit(), 1);
  // An idle fleet steps it back up, clamped at the ceiling.
  for (int i = 0; i < 10; ++i) ac.observe_utilization(0.1);
  EXPECT_EQ(ac.running_limit(), 4);
}

TEST(Admission, SanitizesIncoherentOptions) {
  AdmissionOptions ao;
  ao.min_running = 0;   // floor below 1 makes no sense
  ao.max_running = -2;  // ceiling below the floor even less
  AdmissionControl ac(ao);
  EXPECT_GE(ac.options().min_running, 1);
  EXPECT_GE(ac.options().max_running, ac.options().min_running);
  EXPECT_GE(ac.running_limit(), 1);
}

// --- JobServer end-to-end (in-process fleet) ------------------------------

// One server + N fleet-worker threads on an ephemeral port; every test
// must end with finish() (which drains via kShutdown) or cancel every
// running job first — serve() only returns once running jobs settle.
class ServerE2E : public ::testing::Test {
 protected:
  void start(ServerOptions opt, int n_workers) {
    server_ = std::make_unique<JobServer>(0, opt);
    port_ = server_->port();
    server_thread_ = std::thread([this] { serve_err_ = server_->serve(); });
    for (int i = 0; i < n_workers; ++i)
      workers_.emplace_back([this] { serve_worker("127.0.0.1", port_); });
  }

  void finish() {
    auto rep = shutdown_server("127.0.0.1", port_);
    EXPECT_TRUE(rep.ok) << rep.message;
    server_thread_.join();
    for (auto& w : workers_) w.join();
    workers_.clear();
    EXPECT_EQ(serve_err_, "");
  }

  static JobSpec spec_for(const circuit::Circuit& c, const std::string& bits,
                          const std::string& tenant, uint32_t weight) {
    JobSpec s;
    s.tenant = tenant;
    s.weight = weight;
    s.circuit_text = circuit::circuit_to_string(c);
    s.bits = bits;
    s.target_log2size = 4;  // force real slicing so jobs have many tasks
    return s;
  }

  static std::complex<double> solo_amplitude(const circuit::Circuit& c,
                                             const std::string& bits) {
    api::SimulatorOptions opt;
    opt.plan.target_log2size = 4;
    api::Simulator sim(c, opt);
    std::vector<int> b;
    for (char ch : bits) b.push_back(ch == '1');
    auto res = sim.amplitude(b);
    EXPECT_TRUE(res.completed);
    return res.amplitude;
  }

  std::unique_ptr<JobServer> server_;
  uint16_t port_ = 0;
  std::thread server_thread_;
  std::vector<std::thread> workers_;
  std::string serve_err_ = "unset";
};

TEST_F(ServerE2E, ConcurrentTenantsAreByteIdenticalToSoloRuns) {
  ServerOptions so;
  so.admission.max_running = 2;
  start(so, 2);

  auto c1 = test::small_rqc(3, 3, 8, 5);
  auto c2 = test::small_rqc(3, 3, 8, 6);
  auto r1 = submit_job("127.0.0.1", port_, spec_for(c1, "010101010", "alice", 3));
  auto r2 = submit_job("127.0.0.1", port_, spec_for(c2, "101010101", "bob", 1));
  ASSERT_TRUE(r1.ok) << r1.message;
  ASSERT_TRUE(r2.ok) << r2.message;
  EXPECT_NE(r1.job_id, r2.job_id);

  auto rec1 = fetch_result("127.0.0.1", port_, r1.job_id, /*wait=*/true);
  auto rec2 = fetch_result("127.0.0.1", port_, r2.job_id, /*wait=*/true);
  ASSERT_EQ(rec1.state, JobState::kDone) << rec1.error;
  ASSERT_EQ(rec2.state, JobState::kDone) << rec2.error;
  EXPECT_EQ(rec1.tenant, "alice");
  EXPECT_EQ(rec2.tenant, "bob");
  EXPECT_GT(rec1.tasks_run, uint64_t(1)) << "spec should have sliced into many tasks";

  // THE acceptance criterion: sharing the fleet with another tenant's job
  // must not perturb a single bit of either amplitude.
  auto solo1 = solo_amplitude(c1, "010101010");
  auto solo2 = solo_amplitude(c2, "101010101");
  EXPECT_EQ(rec1.amplitude_re, solo1.real());
  EXPECT_EQ(rec1.amplitude_im, solo1.imag());
  EXPECT_EQ(rec2.amplitude_re, solo2.real());
  EXPECT_EQ(rec2.amplitude_im, solo2.imag());

  // The server snapshot knows both tenants and their weights.
  auto status = job_status_json("127.0.0.1", port_, 0);
  EXPECT_NE(status.find("\"alice\""), std::string::npos);
  EXPECT_NE(status.find("\"bob\""), std::string::npos);
  EXPECT_NE(status.find("\"admission\""), std::string::npos);
  finish();
}

TEST_F(ServerE2E, CancelWorksOnQueuedAndRunningJobs) {
  // No workers: job 1 occupies the single running slot forever, job 2
  // stays queued — the two cancel paths are deterministic.
  ServerOptions so;
  so.admission.max_running = 1;
  start(so, 0);

  auto c = test::small_rqc(3, 3, 6, 13);
  auto r1 = submit_job("127.0.0.1", port_, spec_for(c, "000000000", "t", 1));
  auto r2 = submit_job("127.0.0.1", port_, spec_for(c, "000000001", "t", 1));
  ASSERT_TRUE(r1.ok && r2.ok);

  auto s1 = job_status_json("127.0.0.1", port_, r1.job_id);
  auto s2 = job_status_json("127.0.0.1", port_, r2.job_id);
  EXPECT_NE(s1.find("\"running\""), std::string::npos);
  EXPECT_NE(s2.find("\"queued\""), std::string::npos);

  // Cancel the QUEUED job; its slot never opens, so order matters here.
  auto c2rep = cancel_job("127.0.0.1", port_, r2.job_id);
  EXPECT_TRUE(c2rep.ok) << c2rep.message;
  // Cancel the RUNNING job.
  auto c1rep = cancel_job("127.0.0.1", port_, r1.job_id);
  EXPECT_TRUE(c1rep.ok) << c1rep.message;
  // Cancelling a terminal job is refused, not crashed.
  auto again = cancel_job("127.0.0.1", port_, r2.job_id);
  EXPECT_FALSE(again.ok);

  auto rec1 = fetch_result("127.0.0.1", port_, r1.job_id, /*wait=*/false);
  auto rec2 = fetch_result("127.0.0.1", port_, r2.job_id, /*wait=*/false);
  EXPECT_EQ(rec1.state, JobState::kCancelled);
  EXPECT_EQ(rec2.state, JobState::kCancelled);
  finish();
}

TEST_F(ServerE2E, SubmitPastQueueBoundIsRejectedWithReason) {
  ServerOptions so;
  so.admission.max_running = 1;
  so.admission.max_queued = 1;
  start(so, 0);

  auto c = test::small_rqc(3, 3, 6, 14);
  auto r1 = submit_job("127.0.0.1", port_, spec_for(c, "000000000", "t", 1));
  auto r2 = submit_job("127.0.0.1", port_, spec_for(c, "000000001", "t", 1));
  auto r3 = submit_job("127.0.0.1", port_, spec_for(c, "000000010", "t", 1));
  EXPECT_TRUE(r1.ok);   // admitted, starts running
  EXPECT_TRUE(r2.ok);   // admitted, fills the one queue slot
  ASSERT_FALSE(r3.ok);  // REJECTED, not buffered
  EXPECT_NE(r3.message.find("queue full"), std::string::npos) << r3.message;

  // A rejected submit is not a job: the id space has exactly two entries.
  cancel_job("127.0.0.1", port_, r1.job_id);
  cancel_job("127.0.0.1", port_, r2.job_id);
  finish();
}

TEST_F(ServerE2E, BadSpecsAndUnknownIdsErrorCleanly) {
  ServerOptions so;
  start(so, 0);

  JobSpec garbage;
  garbage.circuit_text = "this is not a circuit";
  garbage.bits = "00";
  auto rep = submit_job("127.0.0.1", port_, garbage);
  EXPECT_FALSE(rep.ok);

  EXPECT_THROW(fetch_result("127.0.0.1", port_, 999, /*wait=*/false), std::runtime_error);
  EXPECT_THROW(job_status_json("127.0.0.1", port_, 999), std::runtime_error);
  EXPECT_FALSE(cancel_job("127.0.0.1", port_, 999).ok);
  finish();
}

// One forged header claiming a 2^39-byte payload, then a closed socket:
// the server must drop that connection (the frame is truncated) without
// ever allocating the claim, and keep answering everyone else.
TEST_F(ServerE2E, ForgedHugeFrameHeaderDoesNotTakeTheServerDown) {
  ServerOptions so;
  start(so, 0);

  int fd = connect_to("127.0.0.1", port_, 10);
  ASSERT_GE(fd, 0);
  ByteWriter h;
  h.put<uint32_t>(kWireMagic);
  h.put<uint16_t>(kWireVersion);
  h.put<uint8_t>(host_endian());
  h.put<uint8_t>(uint8_t(FrameType::kSubmit));
  h.put<uint64_t>(uint64_t(1) << 39);
  ASSERT_EQ(::write(fd, h.buffer().data(), h.buffer().size()), ssize_t(h.buffer().size()));
  ::close(fd);

  auto status = job_status_json("127.0.0.1", port_, 0);
  EXPECT_NE(status.find("\"service\":\"ltns-jobserver\""), std::string::npos) << status;
  finish();
}

// Scoped env setter for the chaos hooks; the in-process fleet threads read
// it when they are welcomed.
struct ScopedEnv {
  std::string key;
  ScopedEnv(const std::string& k, const std::string& v) : key(k) {
    ::setenv(k.c_str(), v.c_str(), 1);
  }
  ~ScopedEnv() { ::unsetenv(key.c_str()); }
};

// With heartbeats off nothing tells a slow worker from a silent one, so
// the stall timeout must not revoke: every lease here outlasts it, and a
// revoke would re-issue the range forever.
TEST_F(ServerE2E, HeartbeatsOffNeverRevokeALongLease) {
  auto c = test::small_rqc(3, 3, 6, 21);
  const std::string bits = "000000000";
  const int ns = prepare_job(c, test::zero_bits(c.num_qubits), 4, core::PlanOptions{}.seed)
                     ->plan.num_slices();
  const uint64_t tasks = uint64_t(1) << ns;
  // One lease holding every task, slept through for 1.2 s.
  ScopedEnv sleeper("LTNS_CHAOS_SLEEP_SHARD", "any");
  ScopedEnv sleep_ms("LTNS_CHAOS_SLEEP_MS", std::to_string(1200.0 / double(tasks)));
  ServerOptions so;
  so.heartbeat_seconds = 0;
  so.stall_timeout_seconds = 0.5;
  so.home_workers = 1;
  so.lease_size = tasks;
  start(so, 1);

  auto r = submit_job("127.0.0.1", port_, spec_for(c, bits, "t", 1));
  ASSERT_TRUE(r.ok) << r.message;
  auto fetched = std::async(std::launch::async, [this, id = r.job_id] {
    return fetch_result("127.0.0.1", port_, id, /*wait=*/true);
  });
  const bool finished = fetched.wait_for(std::chrono::seconds(20)) == std::future_status::ready;
  if (!finished) cancel_job("127.0.0.1", port_, r.job_id);  // releases the waiter
  const auto rec = fetched.get();
  EXPECT_TRUE(finished) << "the job livelocked on stall revokes";
  EXPECT_EQ(rec.state, JobState::kDone) << rec.error;
  EXPECT_EQ(rec.telemetry.rebalance.ranges_reissued, 0u);
  finish();
}

// After kShutdown the engine drains EVERY welcomed worker and bounds the
// goodbye wait: a worker that said hello and then went silent cannot keep
// serve() from returning.
TEST_F(ServerE2E, ShutdownDoesNotWaitOnASilentWorker) {
  ServerOptions so;
  so.stall_timeout_seconds = 1;
  start(so, 0);
  const int fd = connect_to("127.0.0.1", port_, 10);
  ASSERT_GE(fd, 0);
  write_frame(fd, FrameType::kHello, nullptr, 0);
  Frame f;
  ASSERT_TRUE(read_frame(fd, &f));
  ASSERT_EQ(f.type, FrameType::kWelcome);

  auto rep = shutdown_server("127.0.0.1", port_);
  EXPECT_TRUE(rep.ok) << rep.message;
  auto joined = std::async(std::launch::async, [this] { server_thread_.join(); });
  const bool returned = joined.wait_for(std::chrono::seconds(10)) == std::future_status::ready;
  ::close(fd);  // had serve() not returned, this EOF is what releases it
  joined.get();
  EXPECT_TRUE(returned) << "serve() kept waiting on a worker that never said goodbye";
  EXPECT_EQ(serve_err_, "");
}

// Time a worker spends parked on an empty queue is the job's straggler
// wait: one lease covers the whole job, so the second worker parks until
// it finishes.
TEST_F(ServerE2E, ParkedWorkerTimeIsStragglerWait) {
  ScopedEnv sleeper("LTNS_CHAOS_SLEEP_SHARD", "any");
  ScopedEnv sleep_ms("LTNS_CHAOS_SLEEP_MS", "20");
  ServerOptions so;
  so.home_workers = 1;
  so.lease_size = uint64_t(1) << 40;
  start(so, 2);
  // Submit only once both workers are welcomed (and so asking for leases).
  for (int attempt = 0; attempt < 500; ++attempt) {
    const auto s = job_status_json("127.0.0.1", port_, 0);
    size_t alive = 0;
    for (size_t p = 0; (p = s.find("\"alive\":true", p)) != std::string::npos; ++p) ++alive;
    if (alive >= 2) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }

  auto c = test::small_rqc(3, 3, 6, 22);
  auto r = submit_job("127.0.0.1", port_, spec_for(c, "000000000", "t", 1));
  ASSERT_TRUE(r.ok) << r.message;
  auto rec = fetch_result("127.0.0.1", port_, r.job_id, /*wait=*/true);
  ASSERT_EQ(rec.state, JobState::kDone) << rec.error;
  EXPECT_EQ(rec.telemetry.rebalance.leases_issued, 1u);
  EXPECT_GT(rec.telemetry.rebalance.straggler_wait_seconds, 0.0);
  finish();
}

// The number after `"key":` in the first workers[] entry of a server status
// JSON, or -1 before that worker's first heartbeat pulse.
double worker_field(const std::string& status, const std::string& key) {
  const size_t w = status.find("\"workers\":[");
  const size_t jobs = status.find("],\"jobs\":[", w);
  const size_t p = status.find("\"" + key + "\":", w);
  if (w == std::string::npos || p == std::string::npos || p > jobs) return -1;
  return std::strtod(status.c_str() + p + key.size() + 3, nullptr);
}

// A fleet worker keeps one context per job it was sent, and kJobEnd retires
// it: over many sequential jobs it holds at most max_running contexts, and
// its pulse keeps counting the tasks of retired jobs.
TEST_F(ServerE2E, WorkerRetiresJobContextsAndPulseStaysMonotone) {
  ServerOptions so;
  so.admission.max_running = 2;
  so.heartbeat_seconds = 0.02;
  start(so, 1);
  auto c = test::small_rqc(3, 3, 6, 23);
  uint64_t tasks = 0;
  double last_tasks = 0;
  for (int k = 0; k < 40; ++k) {
    std::string bits(9, '0');
    for (int q = 0; q < 6; ++q) bits[size_t(q)] = (k >> q) & 1 ? '1' : '0';
    auto r = submit_job("127.0.0.1", port_, spec_for(c, bits, "t", 1));
    ASSERT_TRUE(r.ok) << r.message;
    auto rec = fetch_result("127.0.0.1", port_, r.job_id, /*wait=*/true);
    ASSERT_EQ(rec.state, JobState::kDone) << rec.error;
    tasks += rec.tasks_run;
    // The pulse after the job's last block counts every task so far.
    std::string status;
    double run = -1;
    for (int attempt = 0; attempt < 300 && run != double(tasks); ++attempt) {
      if (attempt > 0) std::this_thread::sleep_for(std::chrono::milliseconds(5));
      status = job_status_json("127.0.0.1", port_, 0);
      run = worker_field(status, "tasks_run");
      if (run >= 0) {
        EXPECT_GE(run, last_tasks) << "job " << k << ": the pulse went backwards";
        last_tasks = run;
      }
    }
    ASSERT_EQ(run, double(tasks)) << "job " << k << ": " << status;
    EXPECT_LE(worker_field(status, "jobs_held"), double(so.admission.max_running))
        << "job " << k << ": " << status;
  }
  finish();
}

// The plan tier's memory_hits in the status JSON's cache section; -1 when
// the section is missing.
double plan_memory_hits(const std::string& status) {
  const std::string key = "\"plan\":{\"memory_hits\":";
  const auto p = status.find(key);
  if (p == std::string::npos) return -1;
  return std::strtod(status.c_str() + p + key.size(), nullptr);
}

// The plan key has no bit values: after the first job of a circuit, a job
// with other bits is a plan-cache hit on the coordinator, and both jobs'
// amplitudes are still the solo Simulator's bytes.
TEST_F(ServerE2E, SecondBitstringOfACircuitReusesItsPlan) {
  char tmpl[] = "/tmp/ltns_server_cache_XXXXXX";
  ASSERT_NE(::mkdtemp(tmpl), nullptr);
  const std::string dir = tmpl;
  ServerOptions so;
  so.cache.cache_dir = dir;
  start(so, 2);

  auto c = test::small_rqc(3, 3, 8, 29);
  std::vector<std::pair<std::string, JobResultRecord>> jobs;
  for (const std::string bits : {"011001010", "100110001"}) {
    auto r = submit_job("127.0.0.1", port_, spec_for(c, bits, "t", 1));
    ASSERT_TRUE(r.ok) << r.message;
    auto rec = fetch_result("127.0.0.1", port_, r.job_id, /*wait=*/true);
    ASSERT_EQ(rec.state, JobState::kDone) << rec.error;
    EXPECT_GT(rec.tasks_run, uint64_t(1));
    jobs.emplace_back(bits, rec);
  }
  const auto status = job_status_json("127.0.0.1", port_, 0);
  EXPECT_GE(plan_memory_hits(status), 1) << status;
  for (const auto& [bits, rec] : jobs) {
    const auto solo = solo_amplitude(c, bits);
    const double want[2] = {solo.real(), solo.imag()};
    const double got[2] = {rec.amplitude_re, rec.amplitude_im};
    EXPECT_EQ(std::memcmp(got, want, sizeof(got)), 0) << bits;
  }
  finish();
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace ltns::dist

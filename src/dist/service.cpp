#include "dist/service.hpp"

#include <csignal>
#include <stdexcept>

#include <unistd.h>

#include "dist/worker.hpp"
#include "obs/trace.hpp"

namespace ltns::dist {

CoordinatedAmplitude coordinate(JobServer& engine, const JobSpec& spec,
                                const std::string& spill_dir, bool resume, bool trace) {
  CoordinatedAmplitude res;
  SpecPlan sp;
  try {
    // The engine has not numbered the job yet: the span says job 0.
    obs::TraceScope tr(obs::EventKind::kPlan);
    sp = plan_spec(spec, engine.options());
    tr.set_args(0, uint64_t(sp.job.num_slices), 0);
  } catch (const std::exception& e) {
    res.run.error = std::string("planning failed: ") + e.what();
    return res;
  }
  res.num_slices = sp.job.num_slices;
  OneShotJob job;
  job.total = sp.total;
  job.job = std::move(sp.job);
  job.job.trace = trace ? 1 : 0;
  job.spill_dir = spill_dir;
  job.run_id = sp.run_id;
  job.resume = resume;
  res.run = engine.run_one(std::move(job));
  if (!res.run.error.empty()) return res;
  const exec::Tensor& root = res.run.root;
  if (root.rank() != 0 || root.size() != 1) {
    res.run.error = "amplitude job produced a non-scalar root";
    return res;
  }
  res.amplitude = std::complex<double>(root.data()[0]) * sp.prepared->lowered.scalar;
  return res;
}

int serve_worker(const std::string& host, uint16_t port, const std::string& backend_override) {
  std::signal(SIGPIPE, SIG_IGN);
  // ~10s of connect retries: workers may be launched before (or alongside)
  // the coordinator.
  int fd = connect_to(host, port, 20);
  if (fd < 0) return 2;
  const int rc = serve_leases(fd, backend_override);
  ::close(fd);
  return rc;
}

std::string query_status(const std::string& host, uint16_t port) {
  std::signal(SIGPIPE, SIG_IGN);
  // One attempt: a probe should fail fast when nothing is listening.
  int fd = connect_to(host, port, 1);
  if (fd < 0)
    throw std::runtime_error("status: no coordinator listening on " + host + ":" +
                             std::to_string(port));
  try {
    write_frame(fd, FrameType::kStatusRequest, nullptr, 0);
    Frame f;
    if (!read_frame(fd, &f)) throw std::runtime_error("status: coordinator did not answer");
    ByteReader r(f.payload);
    if (f.type == FrameType::kError) throw std::runtime_error("status: " + r.get_string());
    if (f.type != FrameType::kStatus)
      throw std::runtime_error("status: unexpected reply frame");
    auto json = r.get_string();
    ::close(fd);
    return json;
  } catch (...) {
    ::close(fd);
    throw;
  }
}

}  // namespace ltns::dist

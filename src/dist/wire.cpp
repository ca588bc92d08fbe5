#include "dist/wire.hpp"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <sys/uio.h>
#include <unistd.h>

#include "obs/trace.hpp"

namespace ltns::dist {

namespace {

// 1 TiB payload cap: far above any slice tensor, small enough to catch a
// corrupt length before it turns into an allocation bomb.
constexpr uint64_t kMaxPayload = uint64_t(1) << 40;
// Largest payload-buffer growth per read step (see read_frame).
constexpr uint64_t kReadStep = uint64_t(1) << 20;

struct FrameHeader {
  uint32_t magic;
  uint16_t version;
  uint8_t endian;  // kWireEndianLittle/Big; must equal the reader's host
  uint8_t type;
  uint64_t payload_len;
};
static_assert(sizeof(FrameHeader) == 16, "frame header layout is wire ABI");

[[noreturn]] void fail_errno(const char* what) {
  throw std::runtime_error(std::string("dist wire: ") + what + ": " + std::strerror(errno));
}

// Writes every byte of `iov[0..n)`, resuming after partial writes (a
// large payload overruns the socket buffer; the reader drains it).
void writev_exact(int fd, iovec* iov, int n) {
  while (n > 0) {
    ssize_t k = ::writev(fd, iov, n);
    if (k < 0) {
      if (errno == EINTR) continue;
      fail_errno("write");
    }
    auto done = size_t(k);
    for (; n > 0 && done >= iov->iov_len; --n, ++iov) done -= iov->iov_len;
    if (n > 0) {
      iov->iov_base = static_cast<uint8_t*>(iov->iov_base) + done;
      iov->iov_len -= done;
    }
  }
}

// Returns false only when EOF hits before the first byte and `eof_ok` is
// set; EOF mid-buffer always throws (a peer died inside a frame).
bool read_exact(int fd, void* buf, size_t n, bool eof_ok) {
  auto* p = static_cast<uint8_t*>(buf);
  size_t got = 0;
  while (got < n) {
    ssize_t k = ::read(fd, p + got, n - got);
    if (k < 0) {
      if (errno == EINTR) continue;
      fail_errno("read");
    }
    if (k == 0) {
      if (got == 0 && eof_ok) return false;
      throw std::runtime_error("dist wire: peer closed mid-frame");
    }
    got += size_t(k);
  }
  return true;
}

}  // namespace

void write_frame(int fd, FrameType type, const void* payload, size_t size) {
  obs::TraceScope tr(obs::EventKind::kWireSend, uint64_t(type), sizeof(FrameHeader) + size);
  FrameHeader h{kWireMagic, kWireVersion, host_endian(), uint8_t(type), uint64_t(size)};
  iovec iov[2] = {{&h, sizeof(h)}, {const_cast<void*>(payload), size}};
  writev_exact(fd, iov, size > 0 ? 2 : 1);
}

bool read_frame(int fd, Frame* out) {
  // The recv scope covers the blocking wait for the header too — on a
  // timeline, a long wire_recv IS the idle time between frames.
  obs::TraceScope tr(obs::EventKind::kWireRecv);
  FrameHeader h;
  if (!read_exact(fd, &h, sizeof(h), /*eof_ok=*/true)) return false;
  // A genuinely foreign-endian peer swaps EVERY multi-byte field, magic
  // included — so a byte-reversed magic IS the endianness mismatch, and it
  // must be recognized before being written off as garbage.
  if (h.magic != kWireMagic) {
    if (h.magic == __builtin_bswap32(kWireMagic))
      throw std::runtime_error(
          "dist wire: endianness mismatch (magic arrived byte-swapped; peer and host "
          "disagree and the raw IEEE payloads cannot interoperate)");
    throw std::runtime_error("dist wire: bad magic");
  }
  // Version next: a same-endian v1 peer's old header parses to version 1
  // here, so it gets the precise version error rather than a misreading
  // of its (differently laid out) remaining bytes.
  if (h.version != kWireVersion)
    throw std::runtime_error("dist wire: protocol version mismatch (peer v" +
                             std::to_string(h.version) + ", expected v" +
                             std::to_string(kWireVersion) + ")");
  // Defense in depth: same-order magic and version but a wrong endian tag
  // (hand-built or corrupt header) still must not slip through.
  if (h.endian != host_endian())
    throw std::runtime_error(
        "dist wire: endianness mismatch (peer tagged " +
        std::string(h.endian == kWireEndianBig
                        ? "big"
                        : h.endian == kWireEndianLittle ? "little" : "unknown") +
        "-endian, host is " +
        std::string(host_endian() == kWireEndianBig ? "big" : "little") + "-endian)");
  if (h.payload_len > kMaxPayload) throw std::runtime_error("dist wire: oversized payload");
  out->type = FrameType(h.type);
  // Grow the buffer as bytes arrive, at most one step ahead of them: the
  // header is unauthenticated, so a forged length must cost its sender the
  // bytes instead of making this process allocate and zero-fill the claim.
  out->payload.clear();
  for (size_t got = 0; got < h.payload_len;) {
    const size_t step = size_t(std::min<uint64_t>(h.payload_len - got, kReadStep));
    out->payload.resize(got + step);
    read_exact(fd, out->payload.data() + got, step, false);
    got += step;
  }
  tr.set_args(uint64_t(h.type), sizeof(FrameHeader) + h.payload_len);
  return true;
}

void put_tensor(ByteWriter& w, const exec::Tensor& t) {
  w.put<uint32_t>(uint32_t(t.rank()));
  for (int ix : t.ixs()) w.put<int32_t>(int32_t(ix));
  w.put<uint64_t>(t.size());
  w.put_bytes(t.raw(), t.size() * sizeof(exec::cfloat));
}

exec::Tensor get_tensor(ByteReader& r) {
  const auto rank = r.get<uint32_t>();
  if (size_t(rank) > r.remaining() / sizeof(int32_t))
    throw std::runtime_error("dist wire: tensor rank exceeds payload");
  // Tensor's own bound (and a shift-safety bound): a corrupt rank must be
  // rejected BEFORE the 2^rank allocation in Tensor's constructor, not by
  // a debug-only assert inside it.
  if (rank >= 48) throw std::runtime_error("dist wire: tensor rank out of range");
  std::vector<int> ixs(rank);
  for (auto& ix : ixs) ix = int(r.get<int32_t>());
  const auto n = size_t(r.get<uint64_t>());
  // Validate the claimed element count against the rank and the bytes
  // actually present BEFORE allocating — a corrupt length must not become
  // an OOM.
  if (n != size_t(1) << rank)
    throw std::runtime_error("dist wire: tensor size disagrees with its rank");
  if (n > r.remaining() / sizeof(exec::cfloat))
    throw std::runtime_error("dist wire: tensor size exceeds payload");
  exec::Tensor t(std::move(ixs));
  r.get_bytes(t.raw(), n * sizeof(exec::cfloat));  // straight into aligned storage
  return t;
}

namespace {

void put_device_stats(ByteWriter& w, const device::DeviceStats& d) {
  w.put<double>(d.bytes_to_device);
  w.put<double>(d.bytes_to_host);
  w.put<double>(d.ns_to_device);
  w.put<double>(d.ns_to_host);
  w.put<uint64_t>(d.uploads);
  w.put<uint64_t>(d.downloads);
  w.put<uint64_t>(d.gemm_calls);
  w.put<uint64_t>(d.permute_calls);
  w.put<uint64_t>(d.stem_steps);
}

device::DeviceStats get_device_stats(ByteReader& r) {
  device::DeviceStats d;
  d.bytes_to_device = r.get<double>();
  d.bytes_to_host = r.get<double>();
  d.ns_to_device = r.get<double>();
  d.ns_to_host = r.get<double>();
  d.uploads = r.get<uint64_t>();
  d.downloads = r.get<uint64_t>();
  d.gemm_calls = r.get<uint64_t>();
  d.permute_calls = r.get<uint64_t>();
  d.stem_steps = r.get<uint64_t>();
  return d;
}

}  // namespace

void put_exec_stats(ByteWriter& w, const exec::ExecStats& s) {
  w.put<double>(s.flops);
  w.put<double>(s.bytes_main);
  w.put<double>(s.permute_elems);
  w.put<double>(s.gemm_seconds);
  w.put<double>(s.permute_seconds);
  w.put<double>(s.memory_seconds);
  w.put<uint64_t>(uint64_t(s.peak_live_elems));
  put_device_stats(w, s.device);
}

exec::ExecStats get_exec_stats(ByteReader& r) {
  exec::ExecStats s;
  s.flops = r.get<double>();
  s.bytes_main = r.get<double>();
  s.permute_elems = r.get<double>();
  s.gemm_seconds = r.get<double>();
  s.permute_seconds = r.get<double>();
  s.memory_seconds = r.get<double>();
  s.peak_live_elems = size_t(r.get<uint64_t>());
  s.device = get_device_stats(r);
  return s;
}

namespace {

void put_perf(ByteWriter& w, const runtime::PerfSnapshot& p) {
  w.put<uint64_t>(p.count);
  w.put<double>(p.seconds);
}

runtime::PerfSnapshot get_perf(ByteReader& r) {
  runtime::PerfSnapshot p;
  p.count = r.get<uint64_t>();
  p.seconds = r.get<double>();
  return p;
}

}  // namespace

void put_snapshot(ByteWriter& w, const runtime::ExecutorSnapshot& s) {
  w.put<uint64_t>(s.scheduled);
  w.put<uint64_t>(s.stolen);
  w.put<uint64_t>(s.finished);
  w.put<uint64_t>(s.cancelled);
  w.put<int32_t>(s.running);
  w.put<int32_t>(s.waiting);
  w.put<double>(s.ema_utilization);
  w.put<uint64_t>(s.ranges_stolen);
  w.put<uint64_t>(s.ranges_reissued);
  w.put<double>(s.straggler_wait_seconds);
  put_device_stats(w, s.device);
  put_perf(w, s.permute);
  put_perf(w, s.gemm);
  put_perf(w, s.reduce);
  put_perf(w, s.memory);
}

runtime::ExecutorSnapshot get_snapshot(ByteReader& r) {
  runtime::ExecutorSnapshot s;
  s.scheduled = r.get<uint64_t>();
  s.stolen = r.get<uint64_t>();
  s.finished = r.get<uint64_t>();
  s.cancelled = r.get<uint64_t>();
  s.running = int(r.get<int32_t>());
  s.waiting = int(r.get<int32_t>());
  s.ema_utilization = r.get<double>();
  s.ranges_stolen = r.get<uint64_t>();
  s.ranges_reissued = r.get<uint64_t>();
  s.straggler_wait_seconds = r.get<double>();
  s.device = get_device_stats(r);
  s.permute = get_perf(r);
  s.gemm = get_perf(r);
  s.reduce = get_perf(r);
  s.memory = get_perf(r);
  return s;
}

void put_memory_stats(ByteWriter& w, const runtime::MemoryStats& m) {
  w.put<double>(m.main_bytes);
  w.put<double>(m.scratch_bytes_get);
  w.put<double>(m.scratch_bytes_put);
  w.put<double>(m.rma_bytes);
  w.put<uint64_t>(m.ldm_subtasks);
  w.put<uint64_t>(uint64_t(m.ldm_peak_elems));
  w.put<uint64_t>(uint64_t(m.host_peak_elems));
}

runtime::MemoryStats get_memory_stats(ByteReader& r) {
  runtime::MemoryStats m;
  m.main_bytes = r.get<double>();
  m.scratch_bytes_get = r.get<double>();
  m.scratch_bytes_put = r.get<double>();
  m.rma_bytes = r.get<double>();
  m.ldm_subtasks = r.get<uint64_t>();
  m.ldm_peak_elems = size_t(r.get<uint64_t>());
  m.host_peak_elems = size_t(r.get<uint64_t>());
  return m;
}

void put_pulse(ByteWriter& w, const WorkerPulse& p) {
  w.put<double>(p.ema_utilization);
  w.put<uint64_t>(p.tasks_run);
  w.put<uint64_t>(p.leases_completed);
  w.put<double>(p.device_bytes);
  w.put<double>(p.device_ns);
  w.put<double>(p.wall_seconds);
  w.put<uint64_t>(p.jobs_held);
}

WorkerPulse get_pulse(ByteReader& r) {
  WorkerPulse p;
  p.ema_utilization = r.get<double>();
  p.tasks_run = r.get<uint64_t>();
  p.leases_completed = r.get<uint64_t>();
  p.device_bytes = r.get<double>();
  p.device_ns = r.get<double>();
  p.wall_seconds = r.get<double>();
  p.jobs_held = r.get<uint64_t>();
  return p;
}

void put_telemetry(ByteWriter& w, const ShardTelemetry& t) {
  w.put<int32_t>(t.shard);
  w.put<uint64_t>(t.first);
  w.put<uint64_t>(t.count);
  w.put<uint64_t>(t.tasks_run);
  w.put<uint64_t>(t.leases);
  w.put<uint64_t>(t.reduce_merges);
  w.put<double>(t.wall_seconds);
  w.put_string(t.backend);
  put_snapshot(w, t.executor);
  put_memory_stats(w, t.memory);
  put_exec_stats(w, t.exec);
}

ShardTelemetry get_telemetry(ByteReader& r) {
  ShardTelemetry t;
  t.shard = int32_t(r.get<int32_t>());
  t.first = r.get<uint64_t>();
  t.count = r.get<uint64_t>();
  t.tasks_run = r.get<uint64_t>();
  t.leases = r.get<uint64_t>();
  t.reduce_merges = r.get<uint64_t>();
  t.wall_seconds = r.get<double>();
  t.backend = r.get_string();
  t.executor = get_snapshot(r);
  t.memory = get_memory_stats(r);
  t.exec = get_exec_stats(r);
  return t;
}

AggregatedTelemetry aggregate_telemetry(const std::vector<ShardTelemetry>& shards) {
  AggregatedTelemetry agg;
  for (const auto& t : shards) {
    agg.tasks_run += t.tasks_run;
    agg.reduce_merges += t.reduce_merges;
    agg.stats.merge(t.exec);
    agg.memory.merge(t.memory);
    agg.executor.merge(t.executor);
  }
  return agg;
}

}  // namespace ltns::dist

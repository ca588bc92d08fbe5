#include "obs/trace.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <stdexcept>

#include "obs/build_info.hpp"
#include "obs/metrics.hpp"

namespace ltns::obs {

namespace {

constexpr size_t kDefaultCapacity = 65536;

// Chunk framing for the kTrace wire payload. The payload is POD-memcpy'd
// like the rest of the wire (same-arch fleets only, by design).
constexpr uint32_t kChunkMagic = 0x4C54524Bu;  // "LTRK"
constexpr uint16_t kChunkVersion = 1;

const EventKindInfo kKinds[size_t(EventKind::kKindCount)] = {
    {"slice", "slice", "task", nullptr, nullptr},
    {"gemm", "kernel", "mn", "k", nullptr},
    {"permute", "kernel", "elems", nullptr, nullptr},
    {"reduce", "kernel", "elems", nullptr, nullptr},
    {"lease_grant", "lease", "worker", "first", "count"},
    {"lease_steal", "lease", "worker", "first", "count"},
    {"lease_revoke", "lease", "worker", nullptr, nullptr},
    {"lease_requeue", "lease", "first", "count", nullptr},
    {"lease", "lease", "lease", "first", "count"},
    {"range_done", "lease", "worker", "lease", nullptr},
    {"upload", "device", "bytes", nullptr, nullptr},
    {"download", "device", "bytes", nullptr, nullptr},
    {"journal_append", "checkpoint", "bytes", nullptr, nullptr},
    {"journal_fsync", "checkpoint", "journal_bytes", nullptr, nullptr},
    {"wire_send", "wire", "frame", "bytes", nullptr},
    {"wire_recv", "wire", "frame", "bytes", nullptr},
    {"query_group", "query", "group", "open", "members"},
    {"plan", "plan", "job", "slices", "from_blob"},
};

thread_local void* tls_buf = nullptr;

}  // namespace

const EventKindInfo& event_kind_info(EventKind k) {
  return kKinds[size_t(k) < size_t(EventKind::kKindCount) ? size_t(k) : 0];
}

Tracer& Tracer::instance() {
  static Tracer t;
  return t;
}

uint64_t Tracer::now_ns() {
  // steady_clock is CLOCK_MONOTONIC on Linux: one system-wide timebase, so
  // events from forked/local-TCP processes line up on a shared axis.
  return uint64_t(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void Tracer::enable(int rank, size_t capacity_per_thread) {
  std::lock_guard<std::mutex> lk(mu_);
  rank_ = rank;
  if (capacity_per_thread == 0) {
    capacity_per_thread = kDefaultCapacity;
    if (const char* env = std::getenv("LTNS_TRACE_CAPACITY")) {
      const long long v = std::atoll(env);
      if (v > 0) capacity_per_thread = size_t(v);
    }
  }
  capacity_ = capacity_per_thread;
  enabled_.store(true, std::memory_order_relaxed);
}

void Tracer::reset_after_fork(int rank) {
  std::lock_guard<std::mutex> lk(mu_);
  rank_ = rank;
  foreign_.clear();
  // Buffers were copied from the parent; only the forking thread survives.
  // Keep its buffer object (the thread_local pointer stays valid), wipe its
  // contents, drop every other thread's.
  auto* mine = static_cast<ThreadBuf*>(tls_buf);
  std::vector<std::unique_ptr<ThreadBuf>> kept;
  for (auto& tb : threads_) {
    if (tb.get() == mine) {
      tb->head.store(0, std::memory_order_relaxed);
      tb->tid = 0;
      kept.push_back(std::move(tb));
    }
  }
  threads_ = std::move(kept);
  if (mine == nullptr) tls_buf = nullptr;
}

Tracer::ThreadBuf* Tracer::thread_buf() {
  auto* tb = static_cast<ThreadBuf*>(tls_buf);
  if (tb != nullptr) return tb;
  std::lock_guard<std::mutex> lk(mu_);
  auto owned = std::make_unique<ThreadBuf>();
  owned->tid = int(threads_.size());
  owned->capacity = capacity_ != 0 ? capacity_ : kDefaultCapacity;
  owned->ring.resize(owned->capacity);
  tb = owned.get();
  threads_.push_back(std::move(owned));
  tls_buf = tb;
  return tb;
}

void Tracer::record(EventKind kind, uint64_t ts_ns, uint64_t dur_ns, uint64_t a0, uint64_t a1,
                    uint64_t a2) {
  ThreadBuf* tb = thread_buf();
  const uint64_t h = tb->head.load(std::memory_order_relaxed);
  TraceEvent& e = tb->ring[size_t(h % tb->capacity)];
  e.kind = uint16_t(kind);
  e.phase = 0;
  e.ts_ns = ts_ns;
  e.dur_ns = dur_ns;
  e.a0 = a0;
  e.a1 = a1;
  e.a2 = a2;
  tb->head.store(h + 1, std::memory_order_release);
}

void Tracer::instant(EventKind kind, uint64_t a0, uint64_t a1, uint64_t a2) {
  ThreadBuf* tb = thread_buf();
  const uint64_t h = tb->head.load(std::memory_order_relaxed);
  TraceEvent& e = tb->ring[size_t(h % tb->capacity)];
  e.kind = uint16_t(kind);
  e.phase = 1;
  e.ts_ns = now_ns();
  e.dur_ns = 0;
  e.a0 = a0;
  e.a1 = a1;
  e.a2 = a2;
  tb->head.store(h + 1, std::memory_order_release);
}

namespace {

// Snapshot of one ring: oldest-to-newest retained events + drop count.
struct BufView {
  uint64_t dropped = 0;
  std::vector<TraceEvent> events;
};

}  // namespace

std::vector<uint8_t> Tracer::serialize() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<std::pair<int, BufView>> views;
  for (const auto& tb : threads_) {
    const uint64_t h = tb->head.load(std::memory_order_acquire);
    BufView v;
    const uint64_t n = std::min<uint64_t>(h, tb->capacity);
    v.dropped = h - n;
    v.events.reserve(size_t(n));
    for (uint64_t i = h - n; i < h; ++i) v.events.push_back(tb->ring[size_t(i % tb->capacity)]);
    views.emplace_back(tb->tid, std::move(v));
  }

  std::vector<uint8_t> out;
  auto put = [&out](const void* p, size_t n) {
    const size_t old = out.size();
    out.resize(old + n);
    std::memcpy(out.data() + old, p, n);
  };
  auto put_u32 = [&](uint32_t v) { put(&v, sizeof v); };
  auto put_u64 = [&](uint64_t v) { put(&v, sizeof v); };
  put_u32(kChunkMagic);
  const uint32_t ver = kChunkVersion;
  put_u32(ver);
  const int32_t rank = int32_t(rank_);
  put(&rank, sizeof rank);
  put_u32(uint32_t(views.size()));
  for (const auto& [tid, v] : views) {
    const int32_t t = int32_t(tid);
    put(&t, sizeof t);
    put_u64(v.dropped);
    put_u64(uint64_t(v.events.size()));
    if (!v.events.empty()) put(v.events.data(), v.events.size() * sizeof(TraceEvent));
  }
  return out;
}

void Tracer::ingest(const uint8_t* data, size_t size) {
  const uint8_t* p = data;
  const uint8_t* end = data + size;
  auto get = [&p, end](void* out, size_t n) {
    if (size_t(end - p) < n) throw std::runtime_error("obs trace: truncated chunk");
    std::memcpy(out, p, n);
    p += n;
  };
  uint32_t magic = 0, ver = 0;
  get(&magic, sizeof magic);
  get(&ver, sizeof ver);
  if (magic != kChunkMagic || ver != kChunkVersion)
    throw std::runtime_error("obs trace: unrecognized chunk header");
  int32_t rank = 0;
  get(&rank, sizeof rank);
  uint32_t nthreads = 0;
  get(&nthreads, sizeof nthreads);
  if (nthreads > 4096) throw std::runtime_error("obs trace: implausible thread count");
  std::vector<ForeignThread> parsed;
  for (uint32_t i = 0; i < nthreads; ++i) {
    ForeignThread ft;
    ft.rank = int(rank);
    int32_t tid = 0;
    get(&tid, sizeof tid);
    ft.tid = int(tid);
    get(&ft.dropped, sizeof ft.dropped);
    uint64_t n = 0;
    get(&n, sizeof n);
    if (n > uint64_t(end - p) / sizeof(TraceEvent))
      throw std::runtime_error("obs trace: chunk event count exceeds payload");
    ft.events.resize(size_t(n));
    if (n > 0) get(ft.events.data(), size_t(n) * sizeof(TraceEvent));
    parsed.push_back(std::move(ft));
  }
  std::lock_guard<std::mutex> lk(mu_);
  for (auto& ft : parsed) foreign_.push_back(std::move(ft));
}

std::string Tracer::chrome_json() const {
  // Everything — local threads + ingested worker chunks — on one timeline.
  // pid = rank + 1 so the coordinator (rank -1) renders as pid 0.
  std::vector<ForeignThread> all;
  {
    std::lock_guard<std::mutex> lk(mu_);
    for (const auto& tb : threads_) {
      const uint64_t h = tb->head.load(std::memory_order_acquire);
      ForeignThread ft;
      ft.rank = rank_;
      ft.tid = tb->tid;
      const uint64_t n = std::min<uint64_t>(h, tb->capacity);
      ft.dropped = h - n;
      ft.events.reserve(size_t(n));
      for (uint64_t i = h - n; i < h; ++i)
        ft.events.push_back(tb->ring[size_t(i % tb->capacity)]);
      all.push_back(std::move(ft));
    }
    for (const auto& ft : foreign_) all.push_back(ft);
  }

  uint64_t t0 = UINT64_MAX;
  for (const auto& ft : all)
    for (const auto& e : ft.events) t0 = std::min(t0, e.ts_ns);
  if (t0 == UINT64_MAX) t0 = 0;

  std::ostringstream o;
  o << "{\"traceEvents\":[";
  bool first = true;
  auto emit_meta = [&](int pid, const char* what, const std::string& name, int tid) {
    o << (first ? "" : ",") << "{\"name\":\"" << what << "\",\"ph\":\"M\",\"pid\":" << pid
      << ",\"tid\":" << tid << ",\"args\":{\"name\":\"" << json_escape(name) << "\"}}";
    first = false;
  };
  std::vector<int> named_pids;
  uint64_t total_dropped = 0;
  for (const auto& ft : all) {
    const int pid = ft.rank + 1;
    if (std::find(named_pids.begin(), named_pids.end(), pid) == named_pids.end()) {
      named_pids.push_back(pid);
      emit_meta(pid, "process_name",
                ft.rank < 0 ? "coordinator" : "worker-" + std::to_string(ft.rank), 0);
    }
    emit_meta(pid, "thread_name", "thread-" + std::to_string(ft.tid), ft.tid);
    total_dropped += ft.dropped;
    for (const auto& e : ft.events) {
      const auto& info = event_kind_info(EventKind(e.kind));
      const double ts_us = double(e.ts_ns - t0) / 1e3;
      o << (first ? "" : ",") << "{\"name\":\"" << info.name << "\",\"cat\":\"" << info.category
        << "\",\"ph\":\"" << (e.phase == 1 ? "i" : "X") << "\",\"pid\":" << pid
        << ",\"tid\":" << ft.tid << ",\"ts\":" << ts_us;
      if (e.phase == 1)
        o << ",\"s\":\"t\"";
      else
        o << ",\"dur\":" << double(e.dur_ns) / 1e3;
      o << ",\"args\":{";
      bool afirst = true;
      const char* names[3] = {info.arg0, info.arg1, info.arg2};
      const uint64_t vals[3] = {e.a0, e.a1, e.a2};
      for (int i = 0; i < 3; ++i) {
        if (names[i] == nullptr) continue;
        o << (afirst ? "" : ",") << "\"" << names[i] << "\":" << vals[i];
        afirst = false;
      }
      o << "}}";
      first = false;
    }
  }
  o << "],\"displayTimeUnit\":\"ms\",\"otherData\":{\"schema\":\"ltns.trace.v1\","
    << "\"events_dropped\":" << total_dropped << ",\"build\":" << build_info_json() << "}}";
  return o.str();
}

bool Tracer::write_chrome_json(const std::string& path, std::string* error) const {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "w");
  if (f == nullptr) {
    if (error) *error = "cannot open " + tmp;
    return false;
  }
  const std::string body = chrome_json();
  const bool ok = std::fwrite(body.data(), 1, body.size(), f) == body.size();
  std::fclose(f);
  if (!ok || std::rename(tmp.c_str(), path.c_str()) != 0) {
    if (error) *error = "cannot write " + path;
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

uint64_t Tracer::events_recorded() const {
  std::lock_guard<std::mutex> lk(mu_);
  uint64_t n = 0;
  for (const auto& tb : threads_) n += tb->head.load(std::memory_order_acquire);
  for (const auto& ft : foreign_) n += uint64_t(ft.events.size()) + ft.dropped;
  return n;
}

uint64_t Tracer::events_dropped() const {
  std::lock_guard<std::mutex> lk(mu_);
  uint64_t n = 0;
  for (const auto& tb : threads_) {
    const uint64_t h = tb->head.load(std::memory_order_acquire);
    n += h > tb->capacity ? h - tb->capacity : 0;
  }
  for (const auto& ft : foreign_) n += ft.dropped;
  return n;
}

}  // namespace ltns::obs

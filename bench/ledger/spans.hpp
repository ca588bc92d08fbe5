// Bench-side spans of bench_ledger's traced pass.
//
// The benchmark times each call it makes into a public library function as a
// span named "<layer>.<what>", where the layer is the src/ module called
// (circuit, path, core, api, query, dist). A span records start, end, its
// parent span and an op id. An op's root span is named "op", and all spans
// of one op share its id. Spans stay in memory and are written once at
// exit, on their own pid next to obs::Tracer's events in one Chrome trace.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "obs/trace.hpp"

namespace ltns::ledger {

inline uint64_t now_ns() { return obs::Tracer::now_ns(); }

inline double seconds_since(uint64_t t0_ns) { return double(now_ns() - t0_ns) / 1e9; }

struct Span {
  std::string name;  // "op" for an op's root, else "<layer>.<what>"
  uint64_t start_ns = 0, end_ns = 0;
  int id = 0;
  int parent = -1;  // -1: an op's root span
  uint64_t op = 0;
  int thread = 0;  // bench thread: 0 = main, 1.. = serve tenants
};

class SpanLog {
 public:
  explicit SpanLog(bool on) : on_(on) {}
  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  bool on() const { return on_; }
  int new_id() { return next_id_.fetch_add(1, std::memory_order_relaxed); }
  void add(Span s) {
    if (!on_) return;
    std::lock_guard<std::mutex> lk(mu_);
    spans_.push_back(std::move(s));
  }
  std::vector<Span> spans() const {
    std::lock_guard<std::mutex> lk(mu_);
    return spans_;
  }

 private:
  const bool on_;
  std::atomic<int> next_id_{0};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

// Times one call as a span. Reads no clock when the log is off, so the
// untraced pass pays nothing for it.
class SpanScope {
 public:
  SpanScope(SpanLog& log, const char* name, int parent, uint64_t op, int thread = 0) : log_(log) {
    if (!log_.on()) return;
    s_.name = name;
    s_.parent = parent;
    s_.op = op;
    s_.thread = thread;
    s_.id = log_.new_id();
    s_.start_ns = now_ns();
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  ~SpanScope() {
    if (!log_.on()) return;
    s_.end_ns = now_ns();
    log_.add(std::move(s_));
  }
  int id() const { return s_.id; }

 private:
  SpanLog& log_;
  Span s_;
};

using Interval = std::pair<uint64_t, uint64_t>;

inline double union_seconds(std::vector<Interval> iv) {
  std::sort(iv.begin(), iv.end());
  uint64_t covered = 0, lo = 0, hi = 0;
  bool open = false;
  for (const auto& [s, e] : iv) {
    if (open && s <= hi) {
      hi = std::max(hi, e);
      continue;
    }
    if (open) covered += hi - lo;
    lo = s;
    hi = e;
    open = true;
  }
  if (open) covered += hi - lo;
  return double(covered) / 1e9;
}

// Layer self times and the closure of one traced pass. A span's self time
// is its duration minus the part of it its child spans cover. The closure
// compares, per bench thread, the union of op root spans with the union of
// layer spans: what no layer span covers is the benchmark's own glue.
struct LayerAccount {
  std::map<std::string, double> self_seconds;  // by span name, roots excluded
  double op_seconds = 0;
  double covered_seconds = 0;
  double unattributed_frac() const {
    return op_seconds > 0 ? std::max(0.0, 1 - covered_seconds / op_seconds) : 0;
  }
};

inline LayerAccount account_layers(const std::vector<Span>& spans) {
  LayerAccount a;
  std::map<int, std::vector<Interval>> children, roots, layers;  // by parent id / thread
  for (const auto& s : spans) {
    if (s.parent < 0) {
      roots[s.thread].push_back({s.start_ns, s.end_ns});
    } else {
      children[s.parent].push_back({s.start_ns, s.end_ns});
      layers[s.thread].push_back({s.start_ns, s.end_ns});
    }
  }
  for (const auto& s : spans) {
    if (s.parent < 0) continue;
    std::vector<Interval> inside;
    auto it = children.find(s.id);
    if (it != children.end())
      for (const auto& [cs, ce] : it->second)
        if (std::max(cs, s.start_ns) < std::min(ce, s.end_ns))
          inside.push_back({std::max(cs, s.start_ns), std::min(ce, s.end_ns)});
    a.self_seconds[s.name] += double(s.end_ns - s.start_ns) / 1e9 - union_seconds(inside);
  }
  for (const auto& [t, iv] : roots) a.op_seconds += union_seconds(iv);
  for (const auto& [t, iv] : layers) a.covered_seconds += union_seconds(iv);
  return a;
}

// Earliest event timestamp in an obs::Tracer::serialize() chunk (the kTrace
// payload: u32 magic, u32 version, i32 rank, u32 thread count, then per
// thread i32 tid, u64 dropped, u64 event count and the events).
// UINT64_MAX when the chunk holds no events.
inline uint64_t chunk_min_ts(const std::vector<uint8_t>& chunk) {
  size_t p = 12;  // magic, version, rank
  auto get = [&](void* out, size_t n) {
    if (p + n > chunk.size()) throw std::runtime_error("truncated trace chunk");
    std::memcpy(out, chunk.data() + p, n);
    p += n;
  };
  uint64_t t0 = UINT64_MAX;
  uint32_t threads = 0;
  get(&threads, sizeof threads);
  for (uint32_t i = 0; i < threads; ++i) {
    int32_t tid = 0;
    uint64_t dropped = 0, n = 0;
    get(&tid, sizeof tid);
    get(&dropped, sizeof dropped);
    get(&n, sizeof n);
    for (uint64_t k = 0; k < n; ++k) {
      obs::TraceEvent e;
      get(&e, sizeof e);
      t0 = std::min(t0, e.ts_ns);
    }
  }
  return t0;
}

// Pid the bench spans render under (obs::Tracer uses rank + 1: 0 for
// this process, 1.. for fleet workers).
inline constexpr int kBenchPid = 100;

// Tracer::chrome_json() (whose zero is its own earliest event, `tracer_t0`)
// plus the bench spans on kBenchPid, on one timeline whose zero is the
// earliest of both: every tracer "ts" moves later by the difference.
inline std::string merged_trace_json(const std::string& chrome, uint64_t tracer_t0,
                                     const std::vector<Span>& spans) {
  uint64_t t0 = tracer_t0;
  for (const auto& s : spans) t0 = std::min(t0, s.start_ns);
  const double shift_us = tracer_t0 == UINT64_MAX ? 0 : double(tracer_t0 - t0) / 1e3;

  std::string out;
  out.reserve(chrome.size() + spans.size() * 160);
  const std::string key = "\"ts\":";
  size_t pos = 0;
  for (size_t k; (k = chrome.find(key, pos)) != std::string::npos;) {
    k += key.size();
    out.append(chrome, pos, k - pos);
    char* end = nullptr;
    const double ts = std::strtod(chrome.c_str() + k, &end);
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.3f", ts + shift_us);
    out += buf;
    pos = size_t(end - chrome.c_str());
  }
  out.append(chrome, pos, std::string::npos);

  std::ostringstream ev;
  ev << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << kBenchPid
     << ",\"tid\":0,\"args\":{\"name\":\"bench_ledger\"}}";
  for (const auto& s : spans) {
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  ",{\"name\":\"%s\",\"cat\":\"bench\",\"ph\":\"X\",\"pid\":%d,\"tid\":%d,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%llu,\"span\":%d,\"parent\":%d}}",
                  s.name.c_str(), kBenchPid, s.thread, double(s.start_ns - t0) / 1e3,
                  double(s.end_ns - s.start_ns) / 1e3, (unsigned long long)s.op, s.id, s.parent);
    ev << buf;
  }
  const std::string head = "{\"traceEvents\":[";
  if (out.compare(0, head.size(), head) != 0)
    throw std::runtime_error("unexpected chrome trace layout");
  const bool empty = out.compare(head.size(), 1, "]") == 0;
  out.insert(head.size(), ev.str() + (empty ? "" : ","));
  return out;
}

}  // namespace ltns::ledger

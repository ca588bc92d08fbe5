// Low-overhead event tracer for the whole stack (src/obs/).
//
// Always compiled in, enabled per-process by flag. Every instrumented site
// is a TraceScope (or an instant) that loads ONE relaxed atomic when
// tracing is off — no clock read, no allocation, nothing on the
// bitwise-critical path. When on, events land in per-thread ring buffers
// (fixed capacity, newest-wins on wrap) and are flushed after the run as
// Chrome trace-event JSON (chrome://tracing, ui.perfetto.dev).
//
// Multi-process runs render as ONE timeline: each process records under its
// own rank (pid = rank + 1; the coordinator is rank -1 -> pid 0), worker
// processes serialize their buffers into a kTrace wire frame before their
// final telemetry, and the coordinator ingests those chunks next to its own
// events. Timestamps are raw CLOCK_MONOTONIC nanoseconds, which is
// system-wide on Linux — fork- and local-TCP-fleet events align exactly;
// cross-host fleets carry each host's own clock (document the skew, don't
// hide it).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace ltns::obs {

// Fixed vocabulary keeps the event record POD (48 bytes) and the hot-path
// record() a couple of stores. Names/categories live in one table in
// trace.cpp; docs/observability.md mirrors it as the schema promise.
enum class EventKind : uint16_t {
  kSlice = 0,         // one slicing subtask               args: task
  kGemm,              // contract() GEMM phase             args: m*n, k
  kPermute,           // contract() permutation phase      args: elems
  kReduce,            // tournament pairwise merge         args: elems
  kLeaseGrant,        // coordinator issued a lease        args: worker, first, count
  kLeaseSteal,        // ...the lease was stolen work      args: worker, first, count
  kLeaseRevoke,       // worker's leases revoked           args: worker
  kLeaseRequeue,      // one range requeued for reissue    args: first, count
  kLeaseWork,         // worker computing one leased range args: lease, first, count
  kRangeDone,         // coordinator retired a range       args: worker, lease
  kDeviceUpload,      // host -> device transfer           args: bytes
  kDeviceDownload,    // device -> host transfer           args: bytes
  kCheckpointAppend,  // journal record appended           args: bytes
  kCheckpointFsync,   // journal fsync                     args: journal_bytes
  kWireSend,          // one frame written                 args: frame_type, bytes
  kWireRecv,          // one frame read (includes waiting) args: frame_type, bytes
  kQueryGroup,        // one query-engine group answered   args: group, open, members
  kPlan,              // a job's plan built                args: job, slices, from_blob
  kKindCount,
};

struct TraceEvent {
  uint16_t kind = 0;
  uint16_t phase = 0;  // 0 = complete ("X"), 1 = instant ("i")
  uint32_t pad = 0;
  uint64_t ts_ns = 0;
  uint64_t dur_ns = 0;
  uint64_t a0 = 0, a1 = 0, a2 = 0;
};
static_assert(sizeof(TraceEvent) == 48, "trace event layout is the chunk ABI");

struct EventKindInfo {
  const char* name;
  const char* category;  // slice | kernel | lease | device | checkpoint | wire | query | plan
  const char* arg0;      // nullptr = unused
  const char* arg1;
  const char* arg2;
};
const EventKindInfo& event_kind_info(EventKind k);

class Tracer {
 public:
  static Tracer& instance();

  // Arms tracing for this process. `rank` maps to the Chrome pid
  // (coordinator = -1). Capacity is events PER THREAD; 0 keeps the default
  // (LTNS_TRACE_CAPACITY env, else 65536). Not hot-path safe: call before
  // the run starts.
  void enable(int rank, size_t capacity_per_thread = 0);
  void disable() { enabled_.store(false, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  int rank() const { return rank_; }

  // A forked worker inherits the parent's armed tracer and buffers; it must
  // drop everything the parent recorded and re-home itself under its own
  // rank before recording. Keeps (and clears) the calling thread's buffer.
  void reset_after_fork(int rank);

  static uint64_t now_ns();

  // Hot path: append one event to the calling thread's ring. Caller has
  // already checked enabled().
  void record(EventKind kind, uint64_t ts_ns, uint64_t dur_ns, uint64_t a0 = 0, uint64_t a1 = 0,
              uint64_t a2 = 0);
  void instant(EventKind kind, uint64_t a0 = 0, uint64_t a1 = 0, uint64_t a2 = 0);

  // Collection (post-run; racing writers only tear diagnostics, never the
  // run). serialize() packs this process's buffers (with its rank) into a
  // kTrace-frame payload; ingest() stores a worker's chunk for the merged
  // flush; write_chrome_json() renders local + ingested events.
  std::vector<uint8_t> serialize() const;
  void ingest(const uint8_t* data, size_t size);
  void ingest(const std::vector<uint8_t>& chunk) { ingest(chunk.data(), chunk.size()); }
  std::string chrome_json() const;
  // Writes chrome_json() to `path` (tmp + rename). Returns false + fills
  // `error` on I/O failure.
  bool write_chrome_json(const std::string& path, std::string* error = nullptr) const;

  uint64_t events_recorded() const;
  uint64_t events_dropped() const;

 private:
  struct ThreadBuf {
    int tid = 0;
    size_t capacity = 0;
    std::atomic<uint64_t> head{0};  // monotone event count; slot = head % capacity
    std::vector<TraceEvent> ring;
  };

  ThreadBuf* thread_buf();

  std::atomic<bool> enabled_{false};
  int rank_ = -1;
  size_t capacity_ = 0;
  mutable std::mutex mu_;  // registry + chunks; never taken on the hot path
  std::vector<std::unique_ptr<ThreadBuf>> threads_;
  struct ForeignThread {
    int rank = 0;
    int tid = 0;
    uint64_t dropped = 0;
    std::vector<TraceEvent> events;
  };
  std::vector<ForeignThread> foreign_;
};

// RAII complete-event: one relaxed load when tracing is off (no clock).
class TraceScope {
 public:
  explicit TraceScope(EventKind kind, uint64_t a0 = 0, uint64_t a1 = 0, uint64_t a2 = 0)
      : kind_(kind), a0_(a0), a1_(a1), a2_(a2) {
    Tracer& t = Tracer::instance();
    if (t.enabled()) start_ = Tracer::now_ns();
  }
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;
  ~TraceScope() {
    if (start_ == 0) return;
    Tracer& t = Tracer::instance();
    if (t.enabled()) t.record(kind_, start_, Tracer::now_ns() - start_, a0_, a1_, a2_);
  }
  // Late-bound args for values only known at scope exit (e.g. bytes read).
  void set_args(uint64_t a0, uint64_t a1 = 0, uint64_t a2 = 0) {
    a0_ = a0;
    a1_ = a1;
    a2_ = a2;
  }
  bool armed() const { return start_ != 0; }

 private:
  EventKind kind_;
  uint64_t start_ = 0;
  uint64_t a0_, a1_, a2_;
};

inline void trace_instant(EventKind kind, uint64_t a0 = 0, uint64_t a1 = 0, uint64_t a2 = 0) {
  Tracer& t = Tracer::instance();
  if (t.enabled()) t.instant(kind, a0, a1, a2);
}

}  // namespace ltns::obs

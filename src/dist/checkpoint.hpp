// Durable run ledger: coordinator checkpoint/restart for sharded runs.
//
// The coordinator engine (dist/server.hpp) survives worker deaths, but the
// coordinator itself was a single point of failure: its LeaseLedger and the
// ShardMerger's partial tournament lived only in memory. This file adds the
// write-ahead spill that closes that gap.
//
// Model: an append-only journal (`<spill-dir>/ledger.journal`) of
// CRC-framed records. The head record (kRunMeta) pins the run's identity —
// total task count, notional home-window count, the RESOLVED lease size,
// and a caller-supplied run fingerprint — so a journal can never be
// replayed into a differently-tiled ledger. Every time a lease's range
// completes, the coordinator appends one kRangeDone record carrying the
// range AND its tournament-aligned block payloads (serialized with the
// same wire v3 ByteWriter/put_tensor the sockets use, so the tensors
// round-trip BIT-exactly), then fsyncs on a configurable cadence, and only
// then feeds the blocks to the merger.
//
// Restart: replay_checkpoint() walks the journal, re-feeds every recorded
// block into a fresh ShardMerger and retires the matching pending range in
// a freshly-built LeaseLedger (mark_span_done — a compacted record's span
// covers several consecutive leases). Because the merger's
// tournament is order-independent and the payloads are raw bit patterns,
// the resumed run's accumulated tensor is bitwise identical to an
// uninterrupted run: replayed ranges contribute the exact bytes they
// contributed before the crash, and only unfinished ranges are re-offered
// to (re)connecting workers. A torn tail — the header or payload the
// coordinator was writing when it died — fails its CRC/length check and is
// simply truncated: that range (journaled but not durable) is recomputed,
// which is always safe because the crash also destroyed the old merger.
#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "dist/lease.hpp"
#include "dist/shard_merge.hpp"
#include "tn/contraction_tree.hpp"
#include "util/timer.hpp"

namespace ltns::dist {

inline constexpr uint32_t kCheckpointMagic = 0x4C544E4Au;  // "LTNJ"
inline constexpr uint16_t kCheckpointVersion = 1;

// Journal I/O failure (ENOSPC, EIO, ...). Distinct from plain
// runtime_error so the coordinator can tell "the spill failed" from "a
// worker failed": the former is fatal for the RUN — continuing without
// the journal would silently drop the durability guarantee, and blaming
// the worker whose frame triggered the write would drop healthy workers
// one by one instead.
class CheckpointIoError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// FNV-1a 64 as a 16-char hex string — the run_id fingerprint hash.
std::string fnv1a_hex(const void* data, size_t n);
inline std::string fnv1a_hex(const std::string& s) { return fnv1a_hex(s.data(), s.size()); }

// CRC-32 (IEEE, reflected) over a byte range — the journal's record
// checksum, shared with the cache entry headers (src/cache/).
uint32_t crc32_ieee(const void* data, size_t n);

// THE canonical job fingerprint, shared by every driver (fork runner via
// the Simulator, TCP service): hashes the job inputs AND the resolved
// plan — the full SSA contraction path plus the sliced edge set — so (a)
// any planner-option change that alters the plan changes the fingerprint,
// and (b) a journal spilled by one transport can resume under the other
// (both derive the same plan from the same inputs). `bits` is the
// '0'/'1' output bitstring; `open_qubits` a textual open-qubit list
// ("" when closed).
std::string run_fingerprint(const std::string& circuit_text, const std::string& bits,
                            const std::string& open_qubits, bool fused, uint64_t ldm_elems,
                            const tn::SsaPath& path, const std::vector<int>& sliced_edges);

// Identity of the run a journal belongs to. total/home_workers/lease_size
// pin the LeaseLedger tiling (lease_size must be the RESOLVED size — ask
// the constructed ledger, not the 0-means-auto option); run_id is a caller
// fingerprint of the job (circuit + bits + plan knobs). Replay refuses a
// journal whose meta disagrees — resuming someone else's run would merge
// foreign tensors into the tournament.
struct CheckpointMeta {
  uint64_t total = 0;
  int32_t home_workers = 0;
  uint64_t lease_size = 0;
  std::string run_id;  // "" = caller opted out of fingerprint checking
};

// Read-only walk of a journal; never throws on a damaged file — damage
// past the last valid record is the EXPECTED crash artifact.
struct CheckpointScan {
  bool has_meta = false;
  CheckpointMeta meta;
  uint64_t ranges = 0;       // valid kRangeDone records
  uint64_t tasks = 0;        // tasks covered by those ranges
  uint64_t valid_bytes = 0;  // journal prefix that parsed + CRC-checked clean
  bool torn_tail = false;    // bytes beyond valid_bytes existed and were invalid
};

// Scans `<dir>/ledger.journal`. A missing directory or journal is a clean
// empty scan (fresh start), not an error.
CheckpointScan scan_checkpoint(const std::string& dir);

// Replays the journal into `ledger` + `merger`: every valid kRangeDone
// record's blocks go to the merger and its range is retired in the ledger.
// Throws std::runtime_error when the journal's meta contradicts `expect`
// (or a record does not match the ledger tiling) — a config-skew resume
// must die loudly, not double-merge. Returns the scan (use valid_bytes to
// open the appending CheckpointWriter). An absent journal returns an empty
// scan: resume-if-present semantics, so crash-loop supervisors can always
// pass --resume.
CheckpointScan replay_checkpoint(const std::string& dir, const CheckpointMeta& expect,
                                 LeaseLedger* ledger, ShardMerger* merger);

// Journal compaction outcome (numbers refer to the journal file).
struct CompactionStats {
  bool compacted = false;  // file was rewritten
  uint64_t bytes_before = 0;
  uint64_t bytes_after = 0;
  uint64_t ranges_before = 0;  // kRangeDone records before/after
  uint64_t ranges_after = 0;
};

// Rewrites `<dir>/ledger.journal` into its minimal equivalent: contiguous
// completed ranges coalesce into one span record whose block payloads are
// tournament-merged to their maximal aligned blocks (a fully-journaled run
// shrinks to a single root record), and any torn tail is dropped. Replay
// of the compacted journal reproduces the exact merger state — the
// tournament performs the same `left += right` additions in the same tree
// positions whether they happen at compaction time or at merge time, so
// the resumed output stays byte-identical. Runs at resume (before replay)
// and after successful completion, so long sharded runs do not grow their
// spill dir unboundedly. The rewrite is tmp+rename; a missing, empty or
// already-minimal journal is a no-op. Throws CheckpointIoError on I/O
// failure; structural damage is not an error (the valid prefix compacts,
// the tail drops — the same contract as replay).
CompactionStats compact_checkpoint(const std::string& dir);

// One-stop journal setup for a coordinator job (fork runner, TCP
// coordinator and serve alike): with `resume`, first compacts the existing
// journal, then replays it into ledger + merger and reopens it for
// appending; otherwise
// — or when no journal exists yet — starts a fresh journal for `meta`.
// Throws like replay_checkpoint / the CheckpointWriter constructors
// (compaction failure is non-fatal: the uncompacted journal replays).
std::unique_ptr<class CheckpointWriter> open_or_resume_journal(
    const std::string& dir, const CheckpointMeta& meta, bool resume,
    double fsync_interval_seconds, LeaseLedger* ledger, ShardMerger* merger);

// The write half, opened per job by the coordinator engine. Owns the
// journal fd; all methods throw std::runtime_error on I/O failure (a
// coordinator that cannot spill must fail the run, not silently lose its
// durability guarantee).
class CheckpointWriter : public RangeJournal {
 public:
  // Fresh journal: creates `dir` if needed, truncates any previous
  // journal, writes + fsyncs the kRunMeta record (and the directory entry).
  CheckpointWriter(const std::string& dir, const CheckpointMeta& meta,
                   double fsync_interval_seconds);
  // Resumed journal: reopens after replay_checkpoint, truncating the torn
  // tail at `valid_bytes` and appending from there.
  CheckpointWriter(const std::string& dir, uint64_t valid_bytes,
                   double fsync_interval_seconds);
  ~CheckpointWriter() override;
  CheckpointWriter(const CheckpointWriter&) = delete;
  CheckpointWriter& operator=(const CheckpointWriter&) = delete;

  // RangeJournal: appends one kRangeDone record; fsyncs when the cadence
  // says so (interval <= 0 = every record, the durable default).
  void on_range_complete(uint64_t first, uint64_t count,
                         const std::vector<LedgerBlock>& blocks) override;
  void sync();  // fsync now, regardless of cadence

  // Spill health for `coordinate --status`.
  std::string health_json() const override;
  double lag_seconds() const override { return last_sync_.seconds(); }
  uint64_t journal_bytes() const { return bytes_; }
  uint64_t ranges_journaled() const { return ranges_; }
  double last_sync_age_seconds() const { return last_sync_.seconds(); }

 private:
  void append_record(uint8_t type, const std::vector<uint8_t>& payload);

  std::string dir_;
  int fd_ = -1;
  double fsync_interval_ = 0;
  uint64_t bytes_ = 0;
  uint64_t ranges_ = 0;
  uint64_t syncs_ = 0;
  bool dirty_ = false;  // records appended since the last fsync
  Timer last_sync_;
};

}  // namespace ltns::dist

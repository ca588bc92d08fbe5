// Coordinator-side bookkeeping for the lease protocol.
//
// The 2^|S| task range is chopped into bounded lease-sized ranges, seeded
// across the workers' *notional home windows* (the same balanced partition
// the static ShardPlan uses). Workers lease ranges one at a time: a worker
// drains its own home window front-to-back, and once that is empty it
// STEALS the tail range of the most-loaded home — the process-level
// analogue of the in-process deque thief. When a worker dies or stalls,
// every lease it holds is revoked and its ranges are requeued for idle
// peers, so one lost process costs one lease of recomputation instead of
// the whole run.
//
// Double-merge safety: block partials arriving for a lease are BUFFERED in
// the ledger, not fed to the ShardMerger, until the lease's kRangeDone
// lands while the lease is still active under the sender. A revoked
// lease's buffer is dropped with the lease, and a late kRangeDone (or
// stray block) from the original holder is counted and discarded — so each
// task range reaches the merger exactly once no matter how many times it
// was re-issued, and the tournament stays bitwise identical to a
// single-process run.
#pragma once

#include <cstdint>
#include <deque>
#include <unordered_map>
#include <vector>

#include "dist/shard_merge.hpp"
#include "exec/tensor.hpp"

namespace ltns::dist {

// Rebalance telemetry for one sharded run; surfaced through
// ShardRunResult and job records and folded into the aggregated
// ExecutorSnapshot (ranges_stolen / ranges_reissued / straggler wait).
struct RebalanceStats {
  uint64_t leases_issued = 0;
  uint64_t leases_completed = 0;
  uint64_t ranges_stolen = 0;         // issued off another worker's home window
  uint64_t ranges_reissued = 0;       // issued again after a revoke
  uint64_t ranges_requeued = 0;       // put back by revoke_worker
  uint64_t late_results_dropped = 0;  // frames for revoked/stale leases
  uint64_t workers_lost = 0;
  uint64_t ranges_replayed = 0;       // restored from a checkpoint journal
  uint64_t tasks_replayed = 0;        // tasks inside those replayed ranges
  double straggler_wait_seconds = 0;  // idle-worker time parked on an empty queue
};

struct Lease {
  uint64_t id = 0;
  uint64_t first = 0;
  uint64_t count = 0;
};

// One buffered tournament-aligned block partial, as the ledger holds it and
// as the checkpoint journal records it.
struct LedgerBlock {
  int level = 0;
  uint64_t index = 0;
  exec::Tensor partial;
};

// Write-ahead hook for the durable run ledger (dist/checkpoint.hpp): when a
// lease's range completes, its blocks are offered to the journal BEFORE
// they are fed to the ShardMerger, so a range is either durably recorded or
// will be recomputed after a coordinator restart — never half-merged.
class RangeJournal {
 public:
  virtual ~RangeJournal() = default;
  virtual void on_range_complete(uint64_t first, uint64_t count,
                                 const std::vector<LedgerBlock>& blocks) = 0;
  // Spill-dir health for the coordinator's --status JSON ("" = no report).
  virtual std::string health_json() const { return ""; }
  // Journal lag for the live metrics section: seconds since the last
  // durable fsync (-1 = not reported).
  virtual double lag_seconds() const { return -1; }
};

class LeaseLedger {
 public:
  // Bounded leases over [0, total) seeded across `home_workers` notional
  // windows; lease_size = 0 auto-sizes to ~8 leases per home window.
  // `first_lease_id` seeds the id counter: the job server gives each job's
  // ledger a disjoint id base so a lease id alone routes a worker frame to
  // the right job (and a stale id from another job can never collide).
  LeaseLedger(uint64_t total, int home_workers, uint64_t lease_size,
              uint64_t first_lease_id = 1);

  // Issues the next range to `worker` (own home first, then steal from the
  // most-loaded home). False when nothing is pending — the run is either
  // finished or every outstanding range is leased to someone.
  bool acquire(int worker, Lease* out);

  // Buffers one tournament-aligned block partial under (worker, lease).
  // A block for a lease the worker no longer holds is dropped (returns
  // false); a block outside the leased range is a protocol error (throws).
  bool add_block(int worker, uint64_t lease_id, int level, uint64_t index, exec::Tensor partial);

  // The lease's range finished: offers its buffered blocks to `journal`
  // (when given), feeds them into `merger`, and retires the range (returns
  // true). A revoked/stale lease's result is dropped instead (returns
  // false) — never double-merged.
  bool complete(int worker, uint64_t lease_id, ShardMerger* merger,
                RangeJournal* journal = nullptr);

  // Checkpoint replay: retires a pending range restored from the journal
  // WITHOUT leasing it (its blocks were already fed to the merger by the
  // replayer). The range must exactly match one pending range of this
  // ledger's tiling — i.e. the journal was written under the same (total,
  // home_workers, lease_size) — or false is returned and the ledger is
  // unchanged.
  bool mark_range_done(uint64_t first, uint64_t count);

  // Like mark_range_done, but for a COMPACTED journal record: retires every
  // pending range inside [first, first+count). Compaction coalesces
  // contiguous completed ranges into one span, so a span must cover a whole
  // number of consecutive pending lease ranges; boundaries are validated
  // against the whole span BEFORE anything is retired, so a false return
  // (different tiling) leaves the ledger unchanged. A single-lease span
  // degenerates to mark_range_done.
  bool mark_span_done(uint64_t first, uint64_t count);

  // Revokes every lease `worker` holds and requeues the ranges at the
  // front of the queue (they block the tournament root, so they go first).
  // `lost` marks a dead worker rather than a stall quarantine.
  void revoke_worker(int worker, bool lost);

  bool done() const { return tasks_done_ == total_; }
  uint64_t total() const { return total_; }
  uint64_t tasks_done() const { return tasks_done_; }
  uint64_t lease_size() const { return lease_size_; }
  size_t pending_ranges() const { return pending_count_; }
  size_t active_leases() const { return active_.size(); }

  RebalanceStats& stats() { return stats_; }
  const RebalanceStats& stats() const { return stats_; }

  // Live-lease view for the status probe.
  struct ActiveLease {
    uint64_t id = 0;
    int worker = 0;
    uint64_t first = 0;
    uint64_t count = 0;
  };
  std::vector<ActiveLease> active() const;

 private:
  struct PendingRange {
    uint64_t first = 0;
    uint64_t count = 0;
    int home = 0;
  };
  struct ActiveState {
    int worker = 0;
    uint64_t first = 0;
    uint64_t count = 0;
    int home = 0;
    std::vector<LedgerBlock> blocks;
  };

  uint64_t total_ = 0;
  uint64_t lease_size_ = 1;
  uint64_t tasks_done_ = 0;
  uint64_t next_id_ = 1;
  size_t pending_count_ = 0;
  // One queue per notional home window plus an incrementally maintained
  // pending-task load per home, so acquire() is O(#homes), not O(#leases)
  // — at --lease=1 on 2^20 subtasks a single scan-the-deque queue would
  // make the coordinator quadratic. Requeued ranges live in their own
  // front-priority queue (they gate the tournament tail).
  std::deque<PendingRange> reissue_;
  std::vector<std::deque<PendingRange>> by_home_;
  std::vector<uint64_t> home_load_;
  // Window start per home (the shard-plan boundaries): lets replay-time
  // mark_range_done locate a range's home queue in O(log homes) instead of
  // scanning every queue — at --lease=1 on 2^20 tasks a full scan per
  // journal record would make coordinator restart quadratic.
  std::vector<uint64_t> home_first_;
  std::unordered_map<uint64_t, ActiveState> active_;
  RebalanceStats stats_;
};

}  // namespace ltns::dist

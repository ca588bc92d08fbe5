// Fused stem executor — "secondary slicing" (§5).
//
// Between main memory and the 256 KB LDM the slice/stack trade-off flips:
// bandwidth is plentiful, so we *stack* instead of slicing at the process
// level. A window of n consecutive stem steps is executed entirely inside
// per-worker LDM scratch: the indices of the stem tensor that do NOT
// participate in the window (equivalently: whose lifetime extends past the
// window — the paper's choice of "longest lifetime") are sliced at thread
// level into 2^|S2| embarrassingly parallel subtasks. Each subtask does one
// strided DMA-get, n small contractions in LDM, and one contiguous DMA-put
// (the put *is* the stacking, so secondary slicing has zero compute
// overhead). This replaces n-1 full-tensor DMA round-trips of the
// step-by-step baseline and lifts the arithmetic intensity past the
// roofline ridge (Fig. 12 / Fig. 13).
//
// §5.3.2: when the DMA-get granularity falls under the efficient minimum
// (512 B), the cooperative mode models the 64-CPE block load + RMA
// redistribution: granularity is restored to 512 B at the cost of counted
// RMA traffic.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "core/slicing.hpp"
#include "exec/tree_executor.hpp"
#include "tn/stem.hpp"

namespace ltns::exec {

struct DmaStats {
  double bytes_get = 0;
  double bytes_put = 0;
  double rma_bytes = 0;
  double transfers_get = 0;
  double transfers_put = 0;
  double min_granularity = std::numeric_limits<double>::infinity();  // bytes
  // Bandwidth-weighted effective granularity: Σ bytes·g / Σ bytes.
  double granularity_weight = 0;
  void record_get(double bytes, double granularity);
  void record_put(double bytes, double granularity);
  double total_bytes() const { return bytes_get + bytes_put; }
  double effective_granularity() const {
    return total_bytes() > 0 ? granularity_weight / total_bytes() : 0;
  }
  void merge(const DmaStats& o);
};

// A window is compiled at plan time from layouts derived from the tree
// alone (leaf incidence order minus the process-sliced axes, then
// plan_contract's keep_a + keep_b at every node), so nothing but the
// values changes between secondary subtasks, process subtasks or ops.
struct FusedWindow {
  int begin_step = 0;  // stem step range [begin_step, end_step)
  int end_step = 0;
  bool in_ldm = true;  // false: fell back to a main-memory step

  std::vector<int> t_ixs;  // stem tensor layout entering the window
  // In-LDM windows only. Output block b (secondary axes leading) reads T
  // at offset Σ_i bit(|S2|-1-i) of b · secondary_strides[i], through
  // `gather`, then runs `program`, whose peak_elems is the window's LDM
  // demand.
  std::vector<int> secondary;  // S2 axes, in t_ixs order
  std::vector<size_t> secondary_strides;
  PermuteMap gather{{}, 0};  // T -> working tensor, secondary axes at 0
  StemProgram program;
};

struct FusedPlan {
  const tn::Stem* stem = nullptr;
  std::vector<int> process_sliced;  // process-level sliced edges (plan-time)
  // LDM capacity in complex<float> elements: 256 KB / 8 B. The planner
  // checks the SUM of the live operands (w, branch, result) per step, which
  // is what limits the paper to rank-13 operands.
  size_t ldm_elems = 32768;
  bool cooperative_dma = true;
  std::vector<FusedWindow> windows;

  int fused_steps() const;
  double average_fused_length() const;
};

// Plans and compiles the windows. `process_sliced` must match what
// execution will fix.
FusedPlan plan_fused(const tn::Stem& stem, const std::vector<int>& process_sliced,
                     size_t ldm_elems, bool cooperative_dma = true);

struct FusedStats {
  ExecStats exec;
  DmaStats dma;
  uint64_t ldm_subtasks = 0;
  size_t ldm_peak_elems = 0;  // max peak_elems of the programs that ran
};

// The plan compiles for leaves laid out in their vertex's incidence order.
// Throws std::runtime_error naming the first leaf that is not. run_sliced
// calls this on its own thread before handing out any task.
void check_fused_leaves(const FusedPlan& plan, const LeafProvider& leaves);

// Executes the whole stem for one process-level subtask. Branches are
// pre-contracted with the step-by-step executor (their cost is counted into
// `stats->exec` as the paper counts branch pre-conditioning). `backend`
// (optional, null = host) runs every kernel — and each secondary subtask's
// compiled window — on a device backend; output is bitwise identical for
// any conforming backend. Throws std::runtime_error when a live stem
// tensor's layout differs from the compiled one; on a worker thread that
// aborts, so schedulers call check_fused_leaves first.
Tensor execute_fused(const FusedPlan& plan, const LeafProvider& leaves, uint64_t assignment,
                     ThreadPool* pool = nullptr, FusedStats* stats = nullptr,
                     device::DeviceBackend* backend = nullptr);

// Step-by-step stem execution (the Fig. 12 baseline): identical work, but
// every step is a full TTGT against main memory.
Tensor execute_stem_stepwise(const tn::Stem& stem, const LeafProvider& leaves,
                             const std::vector<int>& process_sliced, uint64_t assignment,
                             ThreadPool* pool = nullptr, FusedStats* stats = nullptr,
                             device::DeviceBackend* backend = nullptr);

}  // namespace ltns::exec

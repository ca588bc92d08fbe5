// Pairwise tensor contraction via TTGT (Transpose-Transpose-GEMM-Transpose,
// the 2021 Gordon Bell kernel this paper builds on).
//
// contract(A, B): the shared edge ids are summed. A is permuted to
// [keepA..., shared...], B to [shared..., keepB...], one GEMM of shape
// (2^|keepA| × 2^|shared| × 2^|keepB|) produces the output in layout
// [keepA..., keepB...] directly — no output transpose needed for this index
// convention, which is why the executors keep "free A then free B" order.
#pragma once

#include <optional>
#include <vector>

#include "exec/gemm.hpp"
#include "exec/permute.hpp"
#include "exec/tensor.hpp"
#include "util/parallel.hpp"

namespace ltns::device {
class DeviceBackend;
struct DeviceStats;
}  // namespace ltns::device

namespace ltns::exec {

struct ContractPlan {
  std::vector<int> shared;      // summed edge ids (A's relative order)
  std::vector<int> a_order;     // permuted A layout: keepA + shared
  std::vector<int> b_order;     // permuted B layout: shared + keepB
  std::vector<int> out_ixs;     // keepA + keepB
  int m = 1, n = 1, k = 1;      // GEMM shape (2^keepA, 2^keepB, 2^shared)
  bool a_identity = false;      // permutation of A is a no-op
  bool b_identity = false;
};

ContractPlan plan_contract(const std::vector<int>& a_ixs, const std::vector<int>& b_ixs);

// A chain of contractions of one working tensor against a fixed sequence
// of branches, compiled once from the layouts alone: each step is what
// contract(w, branch) would do, minus every per-call decision.
struct StemStep {
  std::optional<PermuteMap> a_map;  // working tensor -> a_order; none when a_identity
  std::vector<int> b_order;         // the branch layout the GEMM reads
  int m = 1, n = 1, k = 1;          // GEMM shape
};

struct StemProgram {
  std::vector<int> in_ixs;   // working-tensor layout entering step 0
  std::vector<int> out_ixs;  // layout after the last step
  std::vector<StemStep> steps;
  size_t scratch_elems = 1;  // largest working tensor along the chain
  // Largest live working tensor + branch + result of any step
  // (m·k + k·n + m·n): the LDM demand the chain actually runs with.
  size_t peak_elems = 0;
};

StemProgram compile_stem_program(const std::vector<int>& w_ixs,
                                 const std::vector<std::vector<int>>& branch_ixs);

struct ContractStats {
  double flops = 0;
  double permute_elems = 0;   // elements moved by transposes
  double gemm_seconds = 0;
  double permute_seconds = 0;
};

// Contracts A with B over all shared edges. `pool` parallelizes the GEMM;
// stats (optional) accumulate. The permute and GEMM kernels run through
// `backend` (a null backend means device::host_backend()); `dstats`,
// optional, receives its transfer/kernel accounting.
Tensor contract(const Tensor& a, const Tensor& b, ThreadPool* pool = nullptr,
                ContractStats* stats = nullptr, device::DeviceBackend* backend = nullptr,
                device::DeviceStats* dstats = nullptr);

// Reference implementation: explicit loops over all index assignments.
// Exponential; for tests on small tensors only.
Tensor contract_naive(const Tensor& a, const Tensor& b);

}  // namespace ltns::exec

// Pluggable device backends: the accelerator seam of the contraction engine.
//
// A DeviceBackend owns the two kernels every executor needs — GEMM and a
// permutation-map apply — plus the compiled fused stem window built on
// them, aligned scratch management and explicit upload/download with
// DeviceStats accounting. The executors (execute_tree / execute_fused /
// run_sliced) take a backend pointer and route every kernel through it; a
// null backend means host_backend().
//
// The contract every implementation must honor: for the same inputs the
// output is BITWISE identical to the host kernels. Backends are free to
// block, pack, vectorize and stage however they like, but the per-element
// floating-point reduction order is part of the interface — the
// distributed drivers merge partials from heterogeneous fleets, and the
// bitwise-stability guarantee of the whole system (tests/test_device,
// tests/test_dist, the CI byte-diff jobs) rests on this.
//
// Registry: make_backend("host" | "blocked" | "simd" | "cuda"). "host"
// delegates to exec::cgemm / PermuteMap::apply unchanged; "blocked" runs
// cache-blocked, alignment-aware, compiler-vectorizable kernels with the
// identical reduction order; "simd" runs the explicit-intrinsic vector
// tiers (runtime avx2/avx512/neon dispatch, src/device/cpu_probe.*) with
// the same bits; "cuda" is compile-gated behind LTNS_ENABLE_CUDA (listed
// as unavailable otherwise) so real hardware is a drop-in later.
//
// Backend SPECS: every name accepts an optional precision suffix,
// "name+fp32" (the default) or "name+bf16" (the mixed-precision mode:
// bf16 operands, fp32 accumulation). A bf16 backend is still deterministic
// — all conforming backends produce identical bf16 bits — but it is only
// ULP-close to the fp32 reference, so the byte-diff jobs compare bf16 runs
// against each other bitwise and against fp32 under --compare-mode=ulp:<N>
// (docs/kernels.md). The spec string is what travels through every
// existing backend-name channel (SimulatorOptions, shard options, job
// records, worker overrides), so precision needs no parallel plumbing.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "device/stats.hpp"
#include "exec/contract.hpp"
#include "exec/simd_kernels.hpp"
#include "exec/tensor.hpp"
#include "util/parallel.hpp"

namespace ltns::device {

struct DeviceCaps {
  bool available = true;       // constructible in this build
  bool unified_memory = true;  // kernels read host tensors in place
  size_t alignment = exec::kTensorAlignment;  // required/guaranteed buffer alignment
  size_t simd_lanes = 8;  // float lanes the kernels target (cpu_probe's active tier)
  std::string isa;        // active ISA tier label ("avx2", "portable", ...)
  std::string description;
};

class DeviceBackend {
 public:
  explicit DeviceBackend(exec::Precision precision = exec::Precision::kFp32)
      : precision_(precision) {}
  virtual ~DeviceBackend() = default;

  // Operand precision of this instance's GEMM kernels (from the backend
  // spec). Permute and transfers are precision-blind data movement.
  exec::Precision precision() const { return precision_; }

  virtual const char* name() const = 0;
  virtual DeviceCaps capabilities() const = 0;

  // --- aligned scratch + transfers ---------------------------------------
  // Host-class backends hand out host pointers (unified memory); transfers
  // are still real copies with bytes/ns accounting, so the upload/download
  // seam behaves identically when a discrete device replaces them.
  virtual exec::cfloat* alloc_elems(size_t n);
  virtual void free_elems(exec::cfloat* p, size_t n);
  virtual void upload(exec::cfloat* dst, const exec::cfloat* src, size_t n, DeviceStats* stats);
  virtual void download(exec::cfloat* dst, const exec::cfloat* src, size_t n,
                        DeviceStats* stats);

  // --- kernels ------------------------------------------------------------
  // C = A · B, row-major complex float, C overwritten (exec::cgemm shape).
  virtual void gemm(int m, int n, int k, const exec::cfloat* a, const exec::cfloat* b,
                    exec::cfloat* c, ThreadPool* pool, DeviceStats* stats) = 0;
  // Applies a pre-built permutation map (in -> out; out holds
  // map.map_entries() * map.block_elems() elements). The default is the
  // host apply; pure data movement, so any override is bitwise-neutral.
  virtual void permute_apply(const exec::PermuteMap& map, const exec::cfloat* in,
                             exec::cfloat* out, DeviceStats* stats);

  // Permutes `t` into `new_ixs` through permute_apply (identity is a copy).
  exec::Tensor permute(const exec::Tensor& t, const std::vector<int>& new_ixs,
                       DeviceStats* stats);

  // One TTGT pairwise contraction through this backend's kernels (the
  // canonical implementation lives in exec::contract, which dispatches back
  // into gemm/permute above).
  exec::Tensor contract(const exec::Tensor& a, const exec::Tensor& b, ThreadPool* pool,
                        exec::ContractStats* cs, DeviceStats* stats);

  // One secondary subtask of a compiled fused window (at least one step),
  // serial (one subtask IS one CPE/SM): per step, apply the step's map to
  // the working tensor, then GEMM it against branches[i] (already in the
  // step's b_order).
  // `w` holds the working tensor in prog.in_ixs layout; `w` and `tmp` are
  // scratch of prog.scratch_elems elements, both clobbered. The result
  // (prog.out_ixs layout) lands in `out`. Staged (non-unified) backends
  // upload the working tensor and each branch and download the result
  // through upload/download, so transfers are counted per subtask.
  void run_stem_window(const exec::StemProgram& prog, const exec::cfloat* const* branches,
                       exec::cfloat* w, exec::cfloat* tmp, exec::cfloat* out,
                       exec::ContractStats* cs, DeviceStats* stats);

 private:
  exec::Precision precision_;
};

// --- registry -------------------------------------------------------------

struct BackendInfo {
  std::string name;
  DeviceCaps caps;
};

// A parsed "name[+precision]" spec. spec() rebuilds the canonical string
// ("host" stays "host", bf16 specs print the suffix).
struct BackendSpec {
  std::string name = "host";
  exec::Precision precision = exec::Precision::kFp32;
  std::string spec() const;
};

// Splits "blocked+bf16" -> {blocked, kBf16}. Empty spec means the default
// backend ("host"). Throws std::invalid_argument for an unknown precision
// suffix; the NAME is validated later by make_backend (so help/error paths
// can parse specs for unavailable backends).
BackendSpec parse_backend_spec(const std::string& spec);

// Merges a worker-local --backend override with a job's backend spec: the
// override's NAME wins (the worker knows its own hardware), but the JOB's
// precision wins unless the override pins one explicitly with a "+..."
// suffix — precision is part of the job's numeric contract, not a
// hardware choice, and an override must not silently flip a bf16 job to
// fp32 (or vice versa) on one worker of a fleet sharing a reduction.
std::string merge_backend_override(const std::string& job_spec,
                                   const std::string& override_spec);

// The shared fp32 "host" instance: what a null backend pointer means.
DeviceBackend& host_backend();

// Every registered backend, available or not (the CLI's `--backend=help`).
std::vector<BackendInfo> available_backends();

// Constructs a backend from a "name[+precision]" spec; throws
// std::invalid_argument for unknown names/precisions and for backends
// compiled out of this build, with a message that lists what IS available.
std::unique_ptr<DeviceBackend> make_backend(const std::string& spec);

// Human-readable listing of every backend with capability/alignment info.
std::string backend_help();

}  // namespace ltns::device

// The device backend: the accelerator seam of the contraction engine.
//
// A DeviceBackend owns the two kernels every executor needs, GEMM and a
// permutation-map apply, plus the compiled fused stem window built on them,
// with DeviceStats accounting. The executors (execute_tree / execute_fused /
// run_sliced) take a backend pointer and route every kernel through it; a
// null backend means host_backend().
//
// One class, one kernel path: an instance holds a spec name, a precision
// and an exec::IsaTier, and runs exec::cgemm_simd / exec::permute_apply_simd
// at that tier. The registry builds every instance at cpu_probe().active,
// the widest tier this machine runs (runtime avx2/avx512/neon dispatch,
// src/device/cpu_probe.*). Kernels read host tensors in place, so a stem
// window is one path with no staging.
//
// The contract: at fp32 every tier is BITWISE identical to the scalar
// reference chain (exec::cgemm / PermuteMap::apply, which the portable tier
// runs). The per-element floating-point reduction order is part of the
// interface: the distributed drivers merge partials from heterogeneous
// fleets, and the bitwise-stability guarantee of the whole system
// (tests/test_device, tests/test_dist, the CI byte-diff jobs) rests on it.
// LTNS_FORCE_ISA=portable clamps every backend to that scalar reference, and
// tests build reference instances at exec::IsaTier::kPortable directly.
//
// Registry: make_backend("host" | "simd"). Both names build the same class
// at the same tier; both stay because job specs, wire records, the CLI and
// worker overrides carry them.
//
// Backend SPECS: every name accepts an optional precision suffix,
// "name+fp32" (the default) or "name+bf16" (the mixed-precision mode:
// bf16 operands, fp32 accumulation). A bf16 backend is still deterministic
// (every tier produces identical bf16 bits) but it is only ULP-close to the
// fp32 reference, so the byte-diff jobs compare bf16 runs against each
// other bitwise and against fp32 under --compare-mode=ulp:<N>
// (docs/kernels.md). The spec string is what travels through every
// existing backend-name channel (SimulatorOptions, shard options, job
// records, worker overrides), so precision needs no parallel plumbing.
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "device/stats.hpp"
#include "exec/contract.hpp"
#include "exec/simd_kernels.hpp"
#include "exec/tensor.hpp"
#include "util/parallel.hpp"

namespace ltns::device {

struct DeviceCaps {
  size_t alignment = exec::kTensorAlignment;  // required/guaranteed buffer alignment
  size_t simd_lanes = 8;  // float lanes of the instance's tier
  std::string isa;        // the instance's ISA tier ("avx2", "portable", ...)
  std::string description;
};

class DeviceBackend {
 public:
  // `name` is the registry name the spec carried; it labels the instance
  // and does not change its kernels.
  DeviceBackend(std::string name, exec::Precision precision, exec::IsaTier tier)
      : name_(std::move(name)), precision_(precision), tier_(tier) {}

  const char* name() const { return name_.c_str(); }
  // Operand precision of this instance's GEMM kernels (from the backend
  // spec). Permute is precision-blind data movement.
  exec::Precision precision() const { return precision_; }
  exec::IsaTier tier() const { return tier_; }
  DeviceCaps capabilities() const;

  // --- kernels ------------------------------------------------------------
  // C = A · B, row-major complex float, C overwritten (exec::cgemm shape).
  // Panel packing into split-complex planes counts as to-device traffic.
  void gemm(int m, int n, int k, const exec::cfloat* a, const exec::cfloat* b, exec::cfloat* c,
            ThreadPool* pool, DeviceStats* stats);
  // Applies a pre-built permutation map (in -> out; out holds
  // map.map_entries() * map.block_elems() elements). Pure data movement.
  void permute_apply(const exec::PermuteMap& map, const exec::cfloat* in, exec::cfloat* out,
                     DeviceStats* stats);

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
  // (prog.out_ixs layout) lands in `out`.
  void run_stem_window(const exec::StemProgram& prog, const exec::cfloat* const* branches,
                       exec::cfloat* w, exec::cfloat* tmp, exec::cfloat* out,
                       exec::ContractStats* cs, DeviceStats* stats);

 private:
  std::string name_;
  exec::Precision precision_;
  exec::IsaTier tier_;
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

// Splits "simd+bf16" -> {simd, kBf16}. Empty spec means the default
// backend ("host"). Throws std::invalid_argument for an unknown precision
// suffix; the NAME is validated later by make_backend (so help/error paths
// can parse specs naming unknown backends).
BackendSpec parse_backend_spec(const std::string& spec);

// Merges a worker-local --backend override with a job's backend spec: the
// override's NAME wins (the worker knows its own hardware), but the JOB's
// precision wins unless the override pins one explicitly with a "+..."
// suffix — precision is part of the job's numeric contract, not a
// hardware choice, and an override must not silently flip a bf16 job to
// fp32 (or vice versa) on one worker of a fleet sharing a reduction.
std::string merge_backend_override(const std::string& job_spec,
                                   const std::string& override_spec);

// The shared fp32 "host" instance at the probed tier: what a null backend
// pointer means.
DeviceBackend& host_backend();

// Every registered backend (the CLI's `--backend=help`).
std::vector<BackendInfo> available_backends();

// Constructs a backend at cpu_probe().active from a "name[+precision]" spec; throws
// std::invalid_argument for unknown names/precisions, with a message that
// lists the known backends.
std::unique_ptr<DeviceBackend> make_backend(const std::string& spec);

// Human-readable listing of every backend with capability/alignment info.
std::string backend_help();

}  // namespace ltns::device

// Vectorized kernel tiers (the device backend's engine).
//
// Runtime CPU dispatch over explicit-intrinsic complex-GEMM microkernels
// (AVX2 / AVX-512 on x86, NEON on aarch64) and a gather/blocked-copy
// permute, plus the fp32/bf16 mixed-precision kernels. The tier is a plain
// argument here — hardware detection and the LTNS_FORCE_ISA override live
// in src/device/cpu_probe.*, so these kernels stay directly testable per
// tier regardless of what the host machine supports.
//
// BIT-EXACTNESS CONTRACT (fp32): for every tier, cgemm_simd produces output
// bitwise identical to exec::cgemm. The whole build runs -ffp-contract=off
// (CMakeLists.txt), so the scalar reference's per-element semantics reduce
// to a fixed chain that the vector kernels reproduce exactly:
//   * K is cut into kKc-wide panels, visited in ascending order;
//   * per element and panel: split float accumulators over p ascending,
//       cr += ar*br - ai*bi;  ci += ar*bi + ai*br;
//     each multiply and add rounding once (no FMA intrinsics here, ever);
//   * after each panel: c.real += cr; c.imag += ci.
// Vectorizing across j columns computes independent per-element chains in
// lanes — it never reassociates one element's chain — so the tile grid and
// lane width are free while the bits stay pinned. The columns past the last
// full lane (n_full..n, all of them when n < lanes) run ROW-LANE on x86:
// lanes across a block of `lanes` rows, A's K panel packed transposed, each
// B[p][j] broadcast — again one independent chain per lane, with the panel
// partial added (never stored) into C. Rows below a full lane block, and
// every tail on NEON and portable, run the same chain in scalar code.
//
// MIXED PRECISION (bf16 operands, fp32 accumulation — the paper's mixed
// configuration, half the operand bytes per flop): operands are rounded
// to bfloat16 (round-to-nearest-even) on load/pack and the identical fp32
// chain runs on the rounded values. That keeps mixed output DETERMINISTIC —
// bitwise identical across tiers, backends and process counts — while its
// distance from the fp32 reference is only ULP-bounded (the pinned corpus
// in tests/test_kernels_parity.cpp and the e2e --compare-mode=ulp:<N>).
// cgemm_simd(IsaTier::kPortable, Precision::kBf16, ...) is the bf16
// reference, exactly as exec::cgemm is the fp32 one.
#pragma once

#include <cstdint>
#include <vector>

#include "exec/permute.hpp"
#include "exec/tensor.hpp"
#include "util/parallel.hpp"

namespace ltns::exec {

// Vector ISA tier a kernel call targets. kPortable delegates to the scalar
// reference kernels (exec::cgemm / the scalar mixed chain).
enum class IsaTier { kPortable = 0, kAvx2 = 1, kAvx512 = 2, kNeon = 3 };

const char* isa_name(IsaTier t);
// Float lanes the tier's microkernel processes per step (portable reports
// the scalar reference's effective 4-wide 4x4 tile).
size_t isa_lanes(IsaTier t);
// Tiers compiled into this binary for this architecture, portable first.
// (Whether the hardware can RUN them is the cpu_probe's business.)
std::vector<IsaTier> compiled_isa_tiers();

// Operand precision of the GEMM kernels. kBf16 is the paper's mixed mode:
// bfloat16 operands, fp32 accumulation.
enum class Precision { kFp32 = 0, kBf16 = 1 };

const char* precision_name(Precision p);

// Round-to-nearest-even bfloat16 round trip of one float (the value a bf16
// operand contributes to the fp32 chain). NaN payloads may be truncated;
// overflow rounds to infinity, matching hardware bf16 conversion.
inline float bf16_round(float v) {
  uint32_t x;
  __builtin_memcpy(&x, &v, 4);
  x = (x + 0x7fffu + ((x >> 16) & 1u)) & 0xffff0000u;
  __builtin_memcpy(&v, &x, 4);
  return v;
}

// Panel packing accounting: the B and A planes of the lane-wide kernels
// and the ragged-B and transposed-A planes of the row-lane kernel, timed
// once per K panel (the staging copy a discrete device would make
// explicit; the device backend reports it as to-device traffic).
struct SimdPackStats {
  double bytes = 0;
  double ns = 0;
  uint64_t packs = 0;
};

// C = A · B, row-major, C overwritten — exec::cgemm's shape and, for
// Precision::kFp32, exec::cgemm's bits. `pool` parallelizes over row panels
// with the reference kernel's exact threshold and chunking. `pack`
// (optional) accumulates panel packing traffic across workers.
void cgemm_simd(IsaTier tier, Precision prec, int m, int n, int k, const cfloat* a,
                const cfloat* b, cfloat* c, ThreadPool* pool = nullptr,
                SimdPackStats* pack = nullptr);

// Vectorized PermuteMap application: hardware gather for element-granular
// maps (AVX2/AVX-512), width-specialized block copies otherwise. Pure data
// movement — bitwise identical to PermuteMap::apply on every tier.
void permute_apply_simd(IsaTier tier, const PermuteMap& map, const cfloat* in, cfloat* out);

}  // namespace ltns::exec

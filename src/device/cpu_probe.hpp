// Runtime CPU capability probe: which vector ISA tier the device backend's
// dispatch selects, and the lanes/isa it reports in its DeviceCaps.
//
// Detection is cached on first use. The LTNS_FORCE_ISA environment variable
// (portable | avx2 | avx512 | neon) clamps the active tier DOWN for the CI
// dispatch-override matrix: forcing a tier the hardware (or this build's
// architecture) cannot run falls back along avx512 -> avx2 -> portable, so
// the same matrix passes on any runner while exercising every code path the
// machine has. An unrecognized value throws std::invalid_argument — a typo
// in CI must fail loudly, not silently test the wrong tier.
#pragma once

#include <string>
#include <vector>

#include "exec/simd_kernels.hpp"

namespace ltns::device {

struct CpuProbe {
  exec::IsaTier detected = exec::IsaTier::kPortable;  // best tier the hardware runs
  exec::IsaTier active = exec::IsaTier::kPortable;    // after LTNS_FORCE_ISA clamping
  bool forced = false;                                // LTNS_FORCE_ISA was set (and valid)
};

// Cached probe (detection + env override resolved once per process).
const CpuProbe& cpu_probe();

// Float lanes of the active tier — the DeviceCaps::simd_lanes source of
// truth for every registered backend.
size_t probe_simd_lanes();

// Compiled tiers this hardware runs (LTNS_FORCE_ISA aside), portable first:
// what a test may call directly without faulting.
std::vector<exec::IsaTier> runnable_isa_tiers();

// "avx2", "avx512 (forced: portable)", ... for capability descriptions.
std::string probe_isa_label();

}  // namespace ltns::device

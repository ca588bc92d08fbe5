// "host" backend: the reference device.
//
// Delegates straight to exec::cgemm and the base PermuteMap apply, so its
// output is the host path's output by definition — this is the backend
// every other implementation is byte-compared against, the default the
// Simulator and CLI run on, and what a null backend pointer means
// (host_backend()). Under a +bf16 spec the GEMM runs the portable-tier
// bf16 chain (exec::cgemm_simd at IsaTier::kPortable), which every other
// bf16 backend matches bitwise the same way the fp32 backends match
// exec::cgemm.
#include <memory>

#include "device/backend.hpp"
#include "device/cpu_probe.hpp"
#include "exec/gemm.hpp"
#include "exec/simd_kernels.hpp"

namespace ltns::device {

namespace {

class HostBackend final : public DeviceBackend {
 public:
  explicit HostBackend(exec::Precision prec) : DeviceBackend(prec) {}

  const char* name() const override { return "host"; }

  DeviceCaps capabilities() const override {
    DeviceCaps c;
    c.alignment = exec::kTensorAlignment;
    // Lanes from the runtime probe: what the compiler's auto-vectorizer can
    // actually use on this machine, not a hard-coded guess.
    c.simd_lanes = probe_simd_lanes();
    c.isa = exec::isa_name(cpu_probe().active);
    c.description = "reference host kernels (exec::cgemm 4x4 micro-kernel, "
                    "reduced permute map)";
    return c;
  }

  void gemm(int m, int n, int k, const exec::cfloat* a, const exec::cfloat* b, exec::cfloat* c,
            ThreadPool* pool, DeviceStats* stats) override {
    if (precision() == exec::Precision::kBf16)
      exec::cgemm_simd(exec::IsaTier::kPortable, exec::Precision::kBf16, m, n, k, a, b, c, pool);
    else
      exec::cgemm(m, n, k, a, b, c, pool);
    if (stats) stats->gemm_calls += 1;
  }
};

}  // namespace

std::unique_ptr<DeviceBackend> make_host_backend(exec::Precision prec) {
  return std::make_unique<HostBackend>(prec);
}

DeviceBackend& host_backend() {
  static HostBackend host(exec::Precision::kFp32);
  return host;
}

}  // namespace ltns::device

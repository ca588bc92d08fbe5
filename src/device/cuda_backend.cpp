// "cuda" backend: compile-gated scaffolding for a real GPU.
//
// The interface is fully implemented behind LTNS_ENABLE_CUDA so a CUDA
// runtime integration is a drop-in: replace the staged-host kernel bodies
// below with cudaMalloc/cudaMemcpy + cuBLAS/cuTENSOR launches and the rest
// of the system — executors, shard drivers, telemetry, the CI byte-diff
// jobs — already speaks the seam. Until then the gated build runs the host
// kernels through the staged (non-unified) path, which exercises the
// upload/download accounting a discrete device produces.
//
// Without LTNS_ENABLE_CUDA the backend is registered as unavailable:
// make_backend("cuda") fails with a message naming the gate, and the CLI's
// `--backend=help` lists it as such.
#include <memory>
#include <stdexcept>

#include "device/backend.hpp"
#include "device/cpu_probe.hpp"
#include "exec/gemm.hpp"
#include "exec/mixed_gemm.hpp"

namespace ltns::device {

namespace {

DeviceCaps cuda_caps(bool available) {
  DeviceCaps c;
  c.available = available;
  c.unified_memory = false;
  c.alignment = 256;  // cudaMalloc guarantees 256-byte alignment
  // Until a real device launch lands, the scaffolding runs the host CPU
  // kernels — so the honest lanes/isa are the CPU probe's, not the warp
  // width of hypothetical hardware.
  c.simd_lanes = probe_simd_lanes();
  c.isa = exec::isa_name(cpu_probe().active);
  c.description = available
                      ? "CUDA scaffolding (staged host kernels; hardware launch TODO)"
                      : "compiled out — configure with -DLTNS_ENABLE_CUDA=ON";
  return c;
}

#ifdef LTNS_ENABLE_CUDA

class CudaBackend final : public DeviceBackend {
 public:
  explicit CudaBackend(exec::Precision prec) : DeviceBackend(prec) {}
  const char* name() const override { return "cuda"; }
  DeviceCaps capabilities() const override { return cuda_caps(true); }

  void gemm(int m, int n, int k, const exec::cfloat* a, const exec::cfloat* b, exec::cfloat* c,
            ThreadPool* pool, DeviceStats* stats) override {
    // TODO(hardware): device buffers + cublasCgemm. The host kernel keeps
    // the staged path runnable (and bitwise identical) until then.
    if (precision() == exec::Precision::kBf16)
      exec::cgemm_mixed(m, n, k, a, b, c, pool);
    else
      exec::cgemm(m, n, k, a, b, c, pool);
    if (stats) stats->gemm_calls += 1;
  }
};

#endif  // LTNS_ENABLE_CUDA

}  // namespace

DeviceCaps cuda_backend_caps() {
#ifdef LTNS_ENABLE_CUDA
  return cuda_caps(true);
#else
  return cuda_caps(false);
#endif
}

std::unique_ptr<DeviceBackend> make_cuda_backend(exec::Precision prec) {
#ifdef LTNS_ENABLE_CUDA
  return std::make_unique<CudaBackend>(prec);
#else
  (void)prec;
  throw std::invalid_argument(
      "device backend 'cuda' is compiled out of this build (configure with "
      "-DLTNS_ENABLE_CUDA=ON); available backends: host, blocked, simd");
#endif
}

}  // namespace ltns::device

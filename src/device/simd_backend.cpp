// "simd" backend: explicit-intrinsic vector kernels behind runtime dispatch.
//
// The capability probe (device/cpu_probe) picks the widest ISA tier this
// machine runs — avx512, avx2, or neon — and every kernel call routes
// through exec::cgemm_simd / exec::permute_apply_simd at that tier; on
// hardware with no compiled tier the portable scalar kernels run. LTNS_FORCE_ISA
// clamps the tier down for the CI dispatch-override matrix.
//
// Bitwise contract: at fp32 every tier reproduces exec::cgemm's bits
// exactly (same K panels, same per-element chain — see
// exec/simd_kernels.hpp). Under a +bf16 spec the same tiers run the
// mixed-precision chain, still bitwise identical across tiers and
// backends, ULP-bounded against fp32.
//
// Panel/strip packing into split-complex float planes is counted as
// to-device traffic, same as the blocked backend's B panels: packing IS
// the staging copy an accelerator makes explicit.
#include <memory>

#include "device/backend.hpp"
#include "device/cpu_probe.hpp"
#include "exec/simd_kernels.hpp"
#include "obs/trace.hpp"

namespace ltns::device {

namespace {

class SimdBackend final : public DeviceBackend {
 public:
  explicit SimdBackend(exec::Precision prec) : DeviceBackend(prec) {}

  const char* name() const override { return "simd"; }

  DeviceCaps capabilities() const override {
    DeviceCaps c;
    c.available = true;
    c.unified_memory = true;  // kernels read host tensors in place
    c.alignment = exec::kTensorAlignment;
    c.simd_lanes = probe_simd_lanes();
    c.isa = exec::isa_name(cpu_probe().active);
    c.description = "runtime-dispatched vector kernels, active tier: " + probe_isa_label() +
                    "; bitwise identical to 'host' at fp32";
    return c;
  }

  void gemm(int m, int n, int k, const exec::cfloat* a, const exec::cfloat* b, exec::cfloat* c,
            ThreadPool* pool, DeviceStats* stats) override {
    exec::SimdPackStats pack;
    exec::cgemm_simd(cpu_probe().active, precision(), m, n, k, a, b, c, pool, &pack);
    if (pack.bytes > 0) obs::trace_instant(obs::EventKind::kDeviceUpload, uint64_t(pack.bytes));
    if (stats) {
      stats->gemm_calls += 1;
      stats->bytes_to_device += pack.bytes;  // plane packing IS the staging copy
      stats->ns_to_device += pack.ns;
      stats->uploads += pack.packs;
    }
  }

  void permute_apply(const exec::PermuteMap& map, const exec::cfloat* in, exec::cfloat* out,
                     DeviceStats* stats) override {
    exec::permute_apply_simd(cpu_probe().active, map, in, out);
    if (stats) stats->permute_calls += 1;
  }
};

}  // namespace

std::unique_ptr<DeviceBackend> make_simd_backend(exec::Precision prec) {
  return std::make_unique<SimdBackend>(prec);
}

}  // namespace ltns::device

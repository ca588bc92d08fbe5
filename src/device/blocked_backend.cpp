// "blocked" backend: cache-blocked, alignment-aware host kernels.
//
// A host-class device that treats the CPU like an accelerator: GEMM packs
// B into 64-byte-aligned column-tile panels (counted as to-device traffic —
// the staging copy a discrete device would make explicit), blocks columns
// so a panel stays hot in L2, and runs a contiguous-panel micro-kernel the
// compiler can vectorize without gather addressing. Fused stem windows run
// staged (unified_memory = false): the working tensor is uploaded into
// device scratch once per window and the result downloaded once, which is
// both the transfer-accounting model and the memory-locality discipline a
// real device needs.
//
// BIT-EXACTNESS CONTRACT: the output must be bitwise identical to the
// "host" backend (exec::cgemm). That pins three things:
//   * the K panel width (kKc) must equal exec::cgemm's — every C element
//     accumulates one float-precision partial per K panel, in ascending
//     panel order;
//   * the micro-kernel's per-element expressions must be the host 4x4
//     kernel's expressions (split-complex cr += ar*br - ai*bi, p ascending
//     within the panel) — packing only relocates the operands;
//   * the tile grid must classify each (i, j) into the same kernel (4x4
//     vs edge) as the host: i tiles from the row-chunk start, j tiles on
//     global multiples of 4 (kNc is a multiple of 4 so column blocking
//     never shifts the grid).
// Blocking order (columns outside K panels) is free: each element still
// sees its K panels in ascending order. tests/test_device fuzzes this
// against the host backend across shapes and pool widths.
#include <cstring>
#include <memory>
#include <vector>

#include "device/backend.hpp"
#include "device/cpu_probe.hpp"
#include "exec/gemm.hpp"
#include "exec/mixed_gemm.hpp"
#include "obs/trace.hpp"
#include "util/aligned_alloc.hpp"
#include "util/timer.hpp"

namespace ltns::device {

namespace {

using exec::cfloat;

constexpr int kKc = 256;  // MUST match exec::cgemm's K panel (reduction order)
constexpr int kNc = 256;  // column block held hot in L2; multiple of 4

// Same per-element float sequence as exec::cgemm's micro_4x4; B comes from
// the packed panel (tile-major, 4 columns contiguous per K row), so the
// inner loads are unit-stride from an aligned buffer.
inline void micro_4x4_packed(int k, const cfloat* __restrict__ a, int lda,
                             const cfloat* __restrict__ bp, cfloat* __restrict__ c, int ldc) {
  float cr[4][4] = {}, ci[4][4] = {};
  for (int p = 0; p < k; ++p) {
    float br[4], bi[4];
    for (int j = 0; j < 4; ++j) {
      br[j] = bp[size_t(p) * 4 + j].real();
      bi[j] = bp[size_t(p) * 4 + j].imag();
    }
    for (int i = 0; i < 4; ++i) {
      const cfloat av = a[size_t(i) * lda + p];
      const float ar = av.real(), ai = av.imag();
      for (int j = 0; j < 4; ++j) {
        cr[i][j] += ar * br[j] - ai * bi[j];
        ci[i][j] += ar * bi[j] + ai * br[j];
      }
    }
  }
  for (int i = 0; i < 4; ++i)
    for (int j = 0; j < 4; ++j) c[size_t(i) * ldc + j] += cfloat(cr[i][j], ci[i][j]);
}

// Edge tile — the exact expression shape of exec::cgemm's micro_edge, so an
// element on the ragged rim computes the same bits on either backend.
inline void micro_edge(int mm, int nn, int k, const cfloat* a, int lda, const cfloat* b, int ldb,
                       cfloat* c, int ldc) {
  for (int i = 0; i < mm; ++i)
    for (int j = 0; j < nn; ++j) {
      cfloat acc{0, 0};
      for (int p = 0; p < k; ++p) acc += a[size_t(i) * lda + p] * b[size_t(p) * ldb + j];
      c[size_t(i) * ldc + j] += acc;
    }
}

// Per-worker transfer accounting, merged after the parallel region so
// workers never contend on the shared DeviceStats.
struct PackAccum {
  double bytes = 0;
  double ns = 0;
  uint64_t packs = 0;
};

// Reusable aligned pack buffer, one per row-chunk invocation.
struct PanelBuf {
  cfloat* p = nullptr;
  size_t cap = 0;
  cfloat* get(size_t need) {
    if (need > cap) {
      release();
      util::AlignedAllocator<cfloat, exec::kTensorAlignment> a;
      p = a.allocate(need);
      cap = need;
    }
    return p;
  }
  void release() {
    if (p != nullptr) {
      util::AlignedAllocator<cfloat, exec::kTensorAlignment> a;
      a.deallocate(p, cap);
    }
    p = nullptr;
    cap = 0;
  }
  ~PanelBuf() { release(); }
};

void blocked_rows(int m0, int m1, int n, int k, const cfloat* a, const cfloat* b, cfloat* c,
                  PackAccum* acc) {
  for (int i = m0; i < m1; ++i) std::memset(c + size_t(i) * n, 0, size_t(n) * sizeof(cfloat));
  PanelBuf buf;
  for (int jc = 0; jc < n; jc += kNc) {
    const int nc = std::min(kNc, n - jc);
    const int ncf = nc - nc % 4;  // full 4-column tiles in this block
    for (int kp = 0; kp < k; kp += kKc) {
      const int kc = std::min(kKc, k - kp);
      cfloat* bp = nullptr;
      if (ncf > 0) {
        bp = buf.get(size_t(ncf) * size_t(kc));
        Timer t;
        for (int jt = 0; jt < ncf; jt += 4) {
          cfloat* tile = bp + size_t(jt / 4) * (size_t(kc) * 4);
          for (int p = 0; p < kc; ++p)
            for (int q = 0; q < 4; ++q)
              tile[size_t(p) * 4 + q] = b[size_t(kp + p) * n + size_t(jc + jt + q)];
        }
        acc->ns += t.seconds() * 1e9;
        acc->bytes += double(ncf) * double(kc) * sizeof(cfloat);
        acc->packs += 1;
      }
      int i = m0;
      for (; i + 4 <= m1; i += 4) {
        for (int jt = 0; jt < ncf; jt += 4)
          micro_4x4_packed(kc, a + size_t(i) * k + kp, k, bp + size_t(jt / 4) * (size_t(kc) * 4),
                           c + size_t(i) * n + jc + jt, n);
        if (ncf < nc)
          micro_edge(4, nc - ncf, kc, a + size_t(i) * k + kp, k,
                     b + size_t(kp) * n + jc + ncf, n, c + size_t(i) * n + jc + ncf, n);
      }
      if (i < m1)
        micro_edge(m1 - i, nc, kc, a + size_t(i) * k + kp, k, b + size_t(kp) * n + jc, n,
                   c + size_t(i) * n + jc, n);
    }
  }
}

class BlockedBackend final : public DeviceBackend {
 public:
  explicit BlockedBackend(exec::Precision prec) : DeviceBackend(prec) {}

  const char* name() const override { return "blocked"; }

  DeviceCaps capabilities() const override {
    DeviceCaps c;
    c.available = true;
    c.unified_memory = false;  // stem windows stage through device scratch
    c.alignment = exec::kTensorAlignment;
    c.simd_lanes = probe_simd_lanes();  // from the runtime dispatch probe
    c.isa = exec::isa_name(cpu_probe().active);
    c.description = "cache-blocked host kernels: packed aligned B panels, L2 column "
                    "blocking, staged stem windows; bitwise identical to 'host'";
    return c;
  }

  void gemm(int m, int n, int k, const cfloat* a, const cfloat* b, cfloat* c, ThreadPool* pool,
            DeviceStats* stats) override {
    if (stats) stats->gemm_calls += 1;
    if (precision() == exec::Precision::kBf16) {
      // Mixed mode runs the canonical bf16 chain; the packed-panel path is
      // an fp32-operand optimization and would need round-at-pack plumbing
      // to match it — not worth a second bf16 code path here.
      exec::cgemm_mixed(m, n, k, a, b, c, pool);
      return;
    }
    if (m == 0 || n == 0) return;
    if (k == 0) {
      std::memset(c, 0, size_t(m) * n * sizeof(cfloat));
      return;
    }
    // Same parallel split (and threshold) as exec::cgemm, so a given pool
    // yields the same row chunks — and therefore the same tile grid.
    const double work = double(m) * n * k;
    std::vector<PackAccum> acc;
    if (pool != nullptr && pool->size() > 1 && work > 1 << 16) {
      acc.resize(size_t(pool->size()));
      pool->parallel_for(size_t(m), [&](int w, size_t b0, size_t e0) {
        blocked_rows(int(b0), int(e0), n, k, a, b, c, &acc[size_t(w)]);
      });
    } else {
      acc.resize(1);
      blocked_rows(0, m, n, k, a, b, c, &acc[0]);
    }
    double packed_bytes = 0;
    for (const auto& x : acc) packed_bytes += x.bytes;
    obs::trace_instant(obs::EventKind::kDeviceUpload, uint64_t(packed_bytes));
    if (stats) {
      for (const auto& x : acc) {
        stats->bytes_to_device += x.bytes;  // panel packing IS the staging copy
        stats->ns_to_device += x.ns;
        stats->uploads += x.packs;
      }
    }
  }
};

}  // namespace

std::unique_ptr<DeviceBackend> make_blocked_backend(exec::Precision prec) {
  return std::make_unique<BlockedBackend>(prec);
}

}  // namespace ltns::device

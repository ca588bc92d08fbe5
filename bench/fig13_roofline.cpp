// Fig. 13: roofline placement of step-by-step vs fused kernels.
//
// Paper anchors: original arithmetic intensity 1.22 (SP) memory-bound; the
// fused kernels land at 10x-40x flop/byte; the ridge sits at 42.3 flop/B;
// in some cases the problem becomes compute-bound. We count flops and DMA
// bytes of both executors over several task sizes and place them on the
// modeled roofline.
//
// `--json=PATH` additionally writes the measured per-ISA kernel roofline
// (docs/kernels.md): one "kernel_tiers" row per SIMD tier this machine can
// run — portable first, so the vector rows read as speedup_vs_portable —
// plus a "mixed" row for the bf16 backend with its scale-relative ULP
// distance from fp32. The CI bench-smoke job asserts these sections.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "bench_common.hpp"
#include "device/cpu_probe.hpp"
#include "exec/fused_executor.hpp"
#include "exec/gemm.hpp"
#include "exec/simd_kernels.hpp"
#include "sunway/cost_model.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"
#include "util/ulp.hpp"

using namespace ltns;
using exec::cfloat;

namespace {

std::vector<cfloat> random_buf(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<cfloat> b(n);
  for (auto& v : b) v = cfloat(float(rng.next_normal()), float(rng.next_normal()));
  return b;
}

double best_gemm_seconds(exec::IsaTier tier, exec::Precision prec, int n, const cfloat* a,
                         const cfloat* b, cfloat* c) {
  double best = 1e300;
  for (int rep = 0; rep < 3; ++rep) {
    Timer t;
    exec::cgemm_simd(tier, prec, n, n, n, a, b, c);
    best = std::min(best, t.seconds());
  }
  return best;
}

// The measured per-tier kernel roofline: where each dispatch tier's cgemm
// lands against the scalar chain, and where bf16 lands in ULP distance.
int write_kernel_tiers_json(const char* path) {
  const int n = 256;  // compute-bound shape: vector width shows through
  auto a = random_buf(size_t(n) * n, 1), b = random_buf(size_t(n) * n, 2);
  std::vector<cfloat> ref(size_t(n) * n), c(size_t(n) * n);
  const double flops = exec::gemm_flops(n, n, n);

  FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open '%s'\n", path);
    return 1;
  }
  std::fprintf(f, "{\n  \"figure\": \"fig13 per-tier kernel roofline\",\n"
                  "  \"gemm_n\": %d,\n  \"kernel_tiers\": [", n);
  double portable_seconds = 0;
  bool first = true;
  for (auto tier : device::runnable_isa_tiers()) {
    const double s =
        best_gemm_seconds(tier, exec::Precision::kFp32, n, a.data(), b.data(), c.data());
    if (tier == exec::IsaTier::kPortable) {
      portable_seconds = s;
      ref = c;  // the scalar chain IS the reference bits
    }
    const bool eq = std::memcmp(ref.data(), c.data(), c.size() * sizeof(cfloat)) == 0;
    std::fprintf(f,
                 "%s\n    {\"isa\": \"%s\", \"lanes\": %zu, \"seconds\": %.9g, "
                 "\"gflops\": %.4g, \"speedup_vs_portable\": %.4g, \"bitwise_equal\": %s}",
                 first ? "" : ",", exec::isa_name(tier), exec::isa_lanes(tier), s,
                 flops / s / 1e9, portable_seconds / s, eq ? "true" : "false");
    first = false;
  }
  // Mixed precision on the best tier: throughput plus the fp32 distance in
  // scale-relative ULPs (util::ulp_distance_at_scale — the
  // --compare-mode=ulp:<N> metric; must be nonzero and bounded).
  const auto active = device::cpu_probe().active;
  std::vector<cfloat> cm(size_t(n) * n);
  const double sm =
      best_gemm_seconds(active, exec::Precision::kBf16, n, a.data(), b.data(), cm.data());
  float scale = 0;
  for (const auto& v : ref) scale = std::max({scale, std::abs(v.real()), std::abs(v.imag())});
  int64_t max_ulp = 0;
  for (size_t i = 0; i < ref.size(); ++i) {
    max_ulp = std::max(max_ulp,
                       util::ulp_distance_at_scale(ref[i].real(), cm[i].real(), scale));
    max_ulp = std::max(max_ulp,
                       util::ulp_distance_at_scale(ref[i].imag(), cm[i].imag(), scale));
  }
  const int64_t bound = int64_t(1) << 18;
  std::fprintf(f,
               "\n  ],\n  \"mixed\": {\"isa\": \"%s\", \"precision\": \"bf16\", "
               "\"seconds\": %.9g, \"gflops\": %.4g, \"max_ulp_at_scale\": %lld, "
               "\"ulp_bound\": %lld, \"within_bound\": %s}\n}\n",
               exec::isa_name(active), sm, flops / sm / 1e9, (long long)max_ulp,
               (long long)bound, max_ulp > 0 && max_ulp <= bound ? "true" : "false");
  std::fclose(f);
  std::printf("\nper-tier kernel roofline written to %s\n", path);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bench::header("Fig. 13", "roofline: arithmetic intensity before/after secondary slicing");
  auto arch = sunway::ArchSpec::sw26010pro();
  std::printf("ridge point: %.1f flop/B; peak %.2f Tflops/CG; DMA %.1f GB/s\n\n",
              arch.ridge_flop_per_byte(), arch.peak_sp_flops_per_cg / 1e12,
              arch.dma_bandwidth / 1e9);

  std::printf("%-22s %7s %14s %14s %10s %14s %12s\n", "task", "mode", "flops", "DMA bytes",
              "AI", "attainable", "bound");

  struct Cfg {
    const char* name;
    int rows, cols, cycles;
    size_t ldm;
  } cfgs[] = {{"grid 3x4 m=8", 3, 4, 8, 32768},
              {"grid 3x5 m=12", 3, 5, 12, 32768},
              {"grid 3x7 m=14", 3, 7, 14, 32768},
              {"grid 3x7 m=14 smallLDM", 3, 7, 14, 2048}};

  for (const auto& cfg : cfgs) {
    auto inst = bench::grid_instance(cfg.rows, cfg.cols, cfg.cycles);
    for (int mode = 0; mode < 2; ++mode) {
      exec::FusedStats st;
      if (mode == 0) {
        exec::execute_stem_stepwise(inst.stem, inst.leaves(), {}, 0, nullptr, &st);
      } else {
        auto plan = exec::plan_fused(inst.stem, {}, cfg.ldm);
        exec::execute_fused(plan, inst.leaves(), 0, nullptr, &st);
      }
      double ai = st.exec.flops / std::max(1.0, st.dma.total_bytes());
      double attain = arch.roofline_flops(ai);
      std::printf("%-22s %7s %14.3g %14.3g %10.2f %11.2f Gf %12s\n", cfg.name,
                  mode == 0 ? "step" : "fused", st.exec.flops, st.dma.total_bytes(), ai,
                  attain / 1e9, ai >= arch.ridge_flop_per_byte() ? "compute" : "memory");
    }
  }
  std::printf("\nshape check: 'fused' AI should sit an order of magnitude above 'step'\n"
              "(paper: 1.22 -> 10x-40x), crossing the 42.3 ridge in some cases\n");

  for (int i = 1; i < argc; ++i)
    if (std::strncmp(argv[i], "--json=", 7) == 0) return write_kernel_tiers_json(argv[i] + 7);
  return 0;
}

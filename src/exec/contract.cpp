#include "exec/contract.hpp"

#include <algorithm>
#include <cassert>

#include "device/backend.hpp"
#include "obs/trace.hpp"
#include "util/timer.hpp"

namespace ltns::exec {

ContractPlan plan_contract(const std::vector<int>& a_ixs, const std::vector<int>& b_ixs) {
  ContractPlan p;
  auto in_b = [&](int e) { return std::find(b_ixs.begin(), b_ixs.end(), e) != b_ixs.end(); };
  auto in_a = [&](int e) { return std::find(a_ixs.begin(), a_ixs.end(), e) != a_ixs.end(); };

  std::vector<int> keep_a, keep_b;
  for (int e : a_ixs) (in_b(e) ? p.shared : keep_a).push_back(e);
  for (int e : b_ixs)
    if (!in_a(e)) keep_b.push_back(e);

  p.a_order = keep_a;
  p.a_order.insert(p.a_order.end(), p.shared.begin(), p.shared.end());
  p.b_order = p.shared;
  p.b_order.insert(p.b_order.end(), keep_b.begin(), keep_b.end());
  p.out_ixs = keep_a;
  p.out_ixs.insert(p.out_ixs.end(), keep_b.begin(), keep_b.end());
  p.m = 1 << keep_a.size();
  p.n = 1 << keep_b.size();
  p.k = 1 << p.shared.size();
  p.a_identity = (p.a_order == a_ixs);
  p.b_identity = (p.b_order == b_ixs);
  return p;
}

StemProgram compile_stem_program(const std::vector<int>& w_ixs,
                                 const std::vector<std::vector<int>>& branch_ixs) {
  StemProgram prog;
  prog.in_ixs = w_ixs;
  std::vector<int> w = w_ixs;
  prog.scratch_elems = size_t(1) << w.size();
  for (const auto& b : branch_ixs) {
    ContractPlan p = plan_contract(w, b);
    StemStep& st = prog.steps.emplace_back();
    if (!p.a_identity) st.a_map.emplace(permutation_between(w, p.a_order), int(w.size()));
    st.b_order = std::move(p.b_order);
    st.m = p.m;
    st.n = p.n;
    st.k = p.k;
    prog.peak_elems = std::max(prog.peak_elems, size_t(p.m) * size_t(p.k) +
                                                    size_t(p.k) * size_t(p.n) +
                                                    size_t(p.m) * size_t(p.n));
    w = std::move(p.out_ixs);
    prog.scratch_elems = std::max(prog.scratch_elems, size_t(1) << w.size());
  }
  prog.out_ixs = std::move(w);
  return prog;
}

Tensor contract(const Tensor& a, const Tensor& b, ThreadPool* pool, ContractStats* stats,
                device::DeviceBackend* backend, device::DeviceStats* dstats) {
  ContractPlan p = plan_contract(a.ixs(), b.ixs());
  device::DeviceBackend& be = backend != nullptr ? *backend : device::host_backend();

  const Tensor* ap = &a;
  const Tensor* bp = &b;
  Tensor a_tmp, b_tmp;
  if (!p.a_identity || !p.b_identity) {
    ScopedSeconds st(stats != nullptr ? &stats->permute_seconds : nullptr);
    obs::TraceScope tr(obs::EventKind::kPermute,
                       (!p.a_identity ? a.size() : 0) + (!p.b_identity ? b.size() : 0));
    if (!p.a_identity) {
      a_tmp = be.permute(a, p.a_order, dstats);
      ap = &a_tmp;
      if (stats) stats->permute_elems += double(a.size());
    }
    if (!p.b_identity) {
      b_tmp = be.permute(b, p.b_order, dstats);
      bp = &b_tmp;
      if (stats) stats->permute_elems += double(b.size());
    }
  }

  Tensor out(p.out_ixs);
  {
    ScopedSeconds st(stats != nullptr ? &stats->gemm_seconds : nullptr);
    obs::TraceScope tr(obs::EventKind::kGemm, uint64_t(p.m) * uint64_t(p.n), uint64_t(p.k));
    be.gemm(p.m, p.n, p.k, ap->raw(), bp->raw(), out.raw(), pool, dstats);
  }
  if (stats) stats->flops += gemm_flops(p.m, p.n, p.k);
  return out;
}

Tensor contract_naive(const Tensor& a, const Tensor& b) {
  ContractPlan p = plan_contract(a.ixs(), b.ixs());
  assert(a.rank() + b.rank() < 26 && "contract_naive is for small tensors");
  Tensor out(p.out_ixs);

  const int ra = a.rank(), rb = b.rank(), ro = out.rank(), rs = int(p.shared.size());
  std::vector<int> abits(static_cast<size_t>(ra), 0), bbits(static_cast<size_t>(rb), 0),
      obits(static_cast<size_t>(ro), 0), sbits(static_cast<size_t>(rs), 0);
  const size_t n_out = out.size();
  const size_t n_sum = size_t(1) << rs;
  for (size_t o = 0; o < n_out; ++o) {
    for (int d = 0; d < ro; ++d) obits[size_t(d)] = int((o >> (ro - 1 - d)) & 1);
    std::complex<double> acc{0, 0};
    for (size_t s = 0; s < n_sum; ++s) {
      for (int d = 0; d < rs; ++d) sbits[size_t(d)] = int((s >> (rs - 1 - d)) & 1);
      auto bit_for = [&](int e) {
        for (int d = 0; d < rs; ++d)
          if (p.shared[size_t(d)] == e) return sbits[size_t(d)];
        for (int d = 0; d < ro; ++d)
          if (out.ixs()[size_t(d)] == e) return obits[size_t(d)];
        assert(false);
        return 0;
      };
      for (int d = 0; d < ra; ++d) abits[size_t(d)] = bit_for(a.ixs()[size_t(d)]);
      for (int d = 0; d < rb; ++d) bbits[size_t(d)] = bit_for(b.ixs()[size_t(d)]);
      acc += std::complex<double>(a.at(abits)) * std::complex<double>(b.at(bbits));
    }
    out.data()[o] = cfloat(acc);
  }
  return out;
}

}  // namespace ltns::exec

#include "device/backend.hpp"

#include <algorithm>
#include <iterator>
#include <sstream>
#include <stdexcept>

#include "device/cpu_probe.hpp"
#include "obs/trace.hpp"
#include "util/timer.hpp"

namespace ltns::device {

DeviceCaps DeviceBackend::capabilities() const {
  DeviceCaps c;
  c.alignment = exec::kTensorAlignment;
  c.simd_lanes = exec::isa_lanes(tier_);
  c.isa = exec::isa_name(tier_);
  const std::string tier = tier_ == cpu_probe().active ? probe_isa_label() : c.isa;
  c.description = "runtime-dispatched kernels at ISA tier " + tier +
                  "; fp32 bitwise equal to the portable scalar reference";
  return c;
}

void DeviceBackend::gemm(int m, int n, int k, const exec::cfloat* a, const exec::cfloat* b,
                         exec::cfloat* c, ThreadPool* pool, DeviceStats* stats) {
  exec::SimdPackStats pack;
  exec::cgemm_simd(tier_, precision_, m, n, k, a, b, c, pool, &pack);
  if (pack.bytes > 0) obs::trace_instant(obs::EventKind::kDeviceUpload, uint64_t(pack.bytes));
  if (stats) {
    stats->gemm_calls += 1;
    stats->bytes_to_device += pack.bytes;  // plane packing IS the staging copy
    stats->ns_to_device += pack.ns;
    stats->uploads += pack.packs;
  }
}

void DeviceBackend::permute_apply(const exec::PermuteMap& map, const exec::cfloat* in,
                                  exec::cfloat* out, DeviceStats* stats) {
  exec::permute_apply_simd(tier_, map, in, out);
  if (stats) stats->permute_calls += 1;
}

exec::Tensor DeviceBackend::permute(const exec::Tensor& t, const std::vector<int>& new_ixs,
                                    DeviceStats* stats) {
  if (t.ixs() == new_ixs) {
    if (stats) stats->permute_calls += 1;
    return t;
  }
  exec::PermuteMap map(exec::permutation_between(t.ixs(), new_ixs), t.rank());
  exec::Tensor out(new_ixs);
  permute_apply(map, t.raw(), out.raw(), stats);
  return out;
}

exec::Tensor DeviceBackend::contract(const exec::Tensor& a, const exec::Tensor& b,
                                     ThreadPool* pool, exec::ContractStats* cs,
                                     DeviceStats* stats) {
  return exec::contract(a, b, pool, cs, this, stats);
}

void DeviceBackend::run_stem_window(const exec::StemProgram& prog,
                                    const exec::cfloat* const* branches, exec::cfloat* w,
                                    exec::cfloat* tmp, exec::cfloat* out,
                                    exec::ContractStats* cs, DeviceStats* stats) {
  // `w` always holds the working tensor and `tmp` is free.
  for (size_t i = 0; i < prog.steps.size(); ++i) {
    const exec::StemStep& s = prog.steps[i];
    if (s.a_map) {
      const size_t elems = size_t(s.m) * size_t(s.k);
      ScopedSeconds t(cs != nullptr ? &cs->permute_seconds : nullptr);
      obs::TraceScope tr(obs::EventKind::kPermute, elems);
      permute_apply(*s.a_map, w, tmp, stats);
      std::swap(w, tmp);
      if (cs) cs->permute_elems += double(elems);
    }
    exec::cfloat* c = i + 1 == prog.steps.size() ? out : tmp;
    {
      ScopedSeconds t(cs != nullptr ? &cs->gemm_seconds : nullptr);
      obs::TraceScope tr(obs::EventKind::kGemm, uint64_t(s.m) * uint64_t(s.n), uint64_t(s.k));
      gemm(s.m, s.n, s.k, w, branches[i], c, /*pool=*/nullptr, stats);  // serial: one CPE/SM
    }
    if (cs) cs->flops += exec::gemm_flops(s.m, s.n, s.k);
    std::swap(w, tmp);
    if (stats) stats->stem_steps += 1;
  }
}

// --- registry --------------------------------------------------------------

namespace {

// Registered names, in listing order. Each builds the same class.
const char* const kBackendNames[] = {"host", "simd"};

}  // namespace

std::string BackendSpec::spec() const {
  if (precision == exec::Precision::kFp32) return name;
  return name + "+" + exec::precision_name(precision);
}

BackendSpec parse_backend_spec(const std::string& spec) {
  BackendSpec out;
  if (spec.empty()) return out;
  const size_t plus = spec.find('+');
  if (plus == std::string::npos) {
    out.name = spec;
    return out;
  }
  out.name = spec.substr(0, plus);
  const std::string prec = spec.substr(plus + 1);
  if (prec == "fp32")
    out.precision = exec::Precision::kFp32;
  else if (prec == "bf16")
    out.precision = exec::Precision::kBf16;
  else
    throw std::invalid_argument("unknown backend precision '" + prec + "' in spec '" + spec +
                                "'; use fp32 or bf16");
  if (out.name.empty()) out.name = "host";
  return out;
}

std::string merge_backend_override(const std::string& job_spec,
                                   const std::string& override_spec) {
  if (override_spec.empty()) return job_spec.empty() ? "host" : job_spec;
  BackendSpec merged = parse_backend_spec(override_spec);
  if (override_spec.find('+') == std::string::npos)
    merged.precision = parse_backend_spec(job_spec).precision;
  return merged.spec();
}

DeviceBackend& host_backend() {
  static DeviceBackend host("host", exec::Precision::kFp32, cpu_probe().active);
  return host;
}

std::vector<BackendInfo> available_backends() {
  std::vector<BackendInfo> out;
  for (const char* n : kBackendNames) {
    const DeviceBackend b(n, exec::Precision::kFp32, cpu_probe().active);
    out.push_back({n, b.capabilities()});
  }
  return out;
}

std::unique_ptr<DeviceBackend> make_backend(const std::string& spec) {
  const BackendSpec s = parse_backend_spec(spec);
  if (std::find(std::begin(kBackendNames), std::end(kBackendNames), s.name) !=
      std::end(kBackendNames))
    return std::make_unique<DeviceBackend>(s.name, s.precision, cpu_probe().active);
  std::ostringstream msg;
  msg << "unknown device backend '" << s.name << "'; known backends:";
  for (const char* n : kBackendNames) msg << " " << n;
  msg << " (each accepts a +fp32 or +bf16 precision suffix)";
  throw std::invalid_argument(msg.str());
}

std::string backend_help() {
  std::ostringstream o;
  o << "device backends (spec: name[+fp32|+bf16], default fp32). Every name runs the\n"
       "same kernels at the probed ISA tier; LTNS_FORCE_ISA=portable runs the scalar\n"
       "reference.\n";
  for (const auto& b : available_backends()) {
    o << "  " << b.name << "\n"
      << "      " << b.caps.description << "\n"
      << "      alignment=" << b.caps.alignment << "B simd_lanes=" << b.caps.simd_lanes
      << " isa=" << b.caps.isa << "\n";
  }
  return o.str();
}

}  // namespace ltns::device

#include "device/backend.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "obs/trace.hpp"
#include "util/aligned_alloc.hpp"
#include "util/timer.hpp"

namespace ltns::device {

namespace {

constexpr double kBytesPerElem = sizeof(exec::cfloat);

}  // namespace

exec::cfloat* DeviceBackend::alloc_elems(size_t n) {
  util::AlignedAllocator<exec::cfloat, exec::kTensorAlignment> a;
  return a.allocate(n);
}

void DeviceBackend::free_elems(exec::cfloat* p, size_t n) {
  util::AlignedAllocator<exec::cfloat, exec::kTensorAlignment> a;
  a.deallocate(p, n);
}

void DeviceBackend::upload(exec::cfloat* dst, const exec::cfloat* src, size_t n,
                           DeviceStats* stats) {
  obs::TraceScope tr(obs::EventKind::kDeviceUpload, uint64_t(double(n) * kBytesPerElem));
  Timer t;
  std::copy(src, src + n, dst);
  if (stats) {
    stats->bytes_to_device += double(n) * kBytesPerElem;
    stats->ns_to_device += t.seconds() * 1e9;
    stats->uploads += 1;
  }
}

void DeviceBackend::download(exec::cfloat* dst, const exec::cfloat* src, size_t n,
                             DeviceStats* stats) {
  obs::TraceScope tr(obs::EventKind::kDeviceDownload, uint64_t(double(n) * kBytesPerElem));
  Timer t;
  std::copy(src, src + n, dst);
  if (stats) {
    stats->bytes_to_host += double(n) * kBytesPerElem;
    stats->ns_to_host += t.seconds() * 1e9;
    stats->downloads += 1;
  }
}

void DeviceBackend::permute_apply(const exec::PermuteMap& map, const exec::cfloat* in,
                                  exec::cfloat* out, DeviceStats* stats) {
  map.apply(in, out);
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
  // Host-class staging: the scratch buffers double as device memory, so
  // each transfer is one counted copy. A discrete device (real CUDA) would
  // keep `w`/`tmp` in device memory and route the same copies through
  // upload/download.
  const bool staged = !capabilities().unified_memory;
  DeviceStats local;  // transfer accounting when the caller passed none
  DeviceStats* st = stats != nullptr ? stats : &local;
  exec::AlignedCfloatVec stage;  // staged branch copy
  if (staged) {
    upload(tmp, w, size_t(1) << prog.in_ixs.size(), st);
    std::swap(w, tmp);
  }
  // `w` always holds the working tensor and `tmp` is free.
  for (size_t i = 0; i < prog.steps.size(); ++i) {
    const exec::StemStep& s = prog.steps[i];
    const exec::cfloat* b = branches[i];
    if (staged) {
      stage.resize(size_t(s.k) * size_t(s.n));
      upload(stage.data(), b, stage.size(), st);
      b = stage.data();
    }
    if (s.a_map) {
      const size_t elems = size_t(s.m) * size_t(s.k);
      ScopedSeconds t(cs != nullptr ? &cs->permute_seconds : nullptr);
      obs::TraceScope tr(obs::EventKind::kPermute, elems);
      permute_apply(*s.a_map, w, tmp, stats);
      std::swap(w, tmp);
      if (cs) cs->permute_elems += double(elems);
    }
    exec::cfloat* c = i + 1 == prog.steps.size() && !staged ? out : tmp;
    {
      ScopedSeconds t(cs != nullptr ? &cs->gemm_seconds : nullptr);
      obs::TraceScope tr(obs::EventKind::kGemm, uint64_t(s.m) * uint64_t(s.n), uint64_t(s.k));
      gemm(s.m, s.n, s.k, w, b, c, /*pool=*/nullptr, stats);  // serial: one CPE/SM
    }
    if (cs) cs->flops += exec::gemm_flops(s.m, s.n, s.k);
    std::swap(w, tmp);
    st->stem_steps += 1;
  }
  if (staged) download(out, w, size_t(1) << prog.out_ixs.size(), st);
}

// --- registry --------------------------------------------------------------

// Factories live in their backend's translation unit; the explicit list
// (rather than static self-registration) keeps construction order trivial.
std::unique_ptr<DeviceBackend> make_host_backend(exec::Precision prec);
std::unique_ptr<DeviceBackend> make_blocked_backend(exec::Precision prec);
std::unique_ptr<DeviceBackend> make_simd_backend(exec::Precision prec);
std::unique_ptr<DeviceBackend> make_cuda_backend(exec::Precision prec);  // throws when compiled out
DeviceCaps cuda_backend_caps();

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

std::vector<BackendInfo> available_backends() {
  const exec::Precision fp32 = exec::Precision::kFp32;
  std::vector<BackendInfo> out;
  out.push_back({"host", make_host_backend(fp32)->capabilities()});
  out.push_back({"blocked", make_blocked_backend(fp32)->capabilities()});
  out.push_back({"simd", make_simd_backend(fp32)->capabilities()});
  out.push_back({"cuda", cuda_backend_caps()});
  return out;
}

std::unique_ptr<DeviceBackend> make_backend(const std::string& spec) {
  const BackendSpec s = parse_backend_spec(spec);
  if (s.name == "host") return make_host_backend(s.precision);
  if (s.name == "blocked") return make_blocked_backend(s.precision);
  if (s.name == "simd") return make_simd_backend(s.precision);
  if (s.name == "cuda") return make_cuda_backend(s.precision);
  std::ostringstream msg;
  msg << "unknown device backend '" << s.name << "'; known backends:";
  for (const auto& b : available_backends())
    msg << " " << b.name << (b.caps.available ? "" : " (unavailable)");
  msg << " (each accepts a +fp32 or +bf16 precision suffix)";
  throw std::invalid_argument(msg.str());
}

std::string backend_help() {
  std::ostringstream o;
  o << "device backends (spec: name[+fp32|+bf16], default fp32):\n";
  for (const auto& b : available_backends()) {
    o << "  " << b.name << (b.caps.available ? "" : "  [unavailable in this build]") << "\n"
      << "      " << b.caps.description << "\n"
      << "      unified_memory=" << (b.caps.unified_memory ? "yes" : "no")
      << " alignment=" << b.caps.alignment << "B simd_lanes=" << b.caps.simd_lanes
      << " isa=" << b.caps.isa << "\n";
  }
  return o.str();
}

}  // namespace ltns::device

// Device transfer/kernel telemetry (src/device/).
//
// One DeviceStats is kept per worker next to its ExecStats and merged once
// at the end of a run, so recording needs no synchronization. The transfer
// fields follow the bytes/ns-to-device accounting convention of real
// offload runtimes. The backend reads tensors in place and reports its
// panel packing as to-device traffic (zero on the portable tier, which
// packs nothing). No backend copies results back, so the to-host fields stay 0;
// they remain because the wire and metrics encodings carry them.
// This header is dependency-free on purpose: both the exec layer and the
// runtime telemetry embed it.
#pragma once

#include <cstdint>

namespace ltns::device {

struct DeviceStats {
  double bytes_to_device = 0;  // host -> device (uploads, panel packing)
  double bytes_to_host = 0;    // device -> host (downloads)
  double ns_to_device = 0;     // wall time spent moving data in
  double ns_to_host = 0;       // wall time spent moving data out
  uint64_t uploads = 0;        // transfer operations, each direction
  uint64_t downloads = 0;
  uint64_t gemm_calls = 0;     // kernel launches
  uint64_t permute_calls = 0;
  uint64_t stem_steps = 0;     // fused stem steps executed on the device

  void merge(const DeviceStats& o) {
    bytes_to_device += o.bytes_to_device;
    bytes_to_host += o.bytes_to_host;
    ns_to_device += o.ns_to_device;
    ns_to_host += o.ns_to_host;
    uploads += o.uploads;
    downloads += o.downloads;
    gemm_calls += o.gemm_calls;
    permute_calls += o.permute_calls;
    stem_steps += o.stem_steps;
  }

  // Per-run delta between two cumulative readings (ExecutorSnapshot::since).
  DeviceStats since(const DeviceStats& begin) const {
    DeviceStats d = *this;
    d.bytes_to_device -= begin.bytes_to_device;
    d.bytes_to_host -= begin.bytes_to_host;
    d.ns_to_device -= begin.ns_to_device;
    d.ns_to_host -= begin.ns_to_host;
    d.uploads -= begin.uploads;
    d.downloads -= begin.downloads;
    d.gemm_calls -= begin.gemm_calls;
    d.permute_calls -= begin.permute_calls;
    d.stem_steps -= begin.stem_steps;
    return d;
  }

  double total_transfer_bytes() const { return bytes_to_device + bytes_to_host; }
  uint64_t kernel_calls() const { return gemm_calls + permute_calls; }
};

}  // namespace ltns::device

#!/usr/bin/env bash
# End-to-end check of the kernel verification contract (docs/kernels.md):
#
#   1. every backend name at fp32 must print amplitude lines
#      BYTE-identical to the scalar reference chain (the run under
#      LTNS_FORCE_ISA=portable) — solo, across every forced SIMD tier
#      (LTNS_FORCE_ISA clamps to hardware, so the avx512 leg degrades
#      safely on machines without it), under multi-process lease
#      sharding, and through the job server. The references are pinned to
#      portable even when the caller exports LTNS_FORCE_ISA for the whole
#      script, so a forced-tier run never becomes its own reference;
#   2. bf16 mixed precision must be DETERMINISTIC — byte-identical
#      across backends, ISA tiers, process counts, and transports —
#      while differing from fp32 (proof the mode engaged) and staying
#      within the scale-relative ULP bound vs the fp32 reference
#      (scripts/compare_amps.py --compare-mode=ulp:N, the same metric as
#      util::ulp_distance_at_scale and the pinned corpus in
#      tests/test_kernels_parity.cpp).
#
# Usage: scripts/kernels_e2e.sh [path-to-ltns_cli] [port]
set -euo pipefail

CLI=${1:-build/ltns_cli}
PORT=${2:-39427}
CMP="$(dirname "$0")/compare_amps.py"
# Amplitudes are sums over many bf16-rounded contractions, so the bound
# sits well above the single-GEMM corpus pins (~2^15) with slack for
# cancellation between slices: 2^20 spacing units at the fp32 scale.
ULP_BOUND=1048576
DIR=$(mktemp -d)
# `|| true`: a job that already exited but is still listed makes kill fail,
# and set -e would turn that cleanup race into a failed run.
trap 'kill $(jobs -p) 2>/dev/null || true; rm -rf "$DIR"' EXIT

BITS=010101010
"$CLI" gen 3 3 8 5 > "$DIR/c.qc"

amp() { # capture-file, then extra flags; --target=4 forces real slicing
  local out=$1; shift
  "$CLI" --no-telemetry --target=4 amp "$DIR/c.qc" $BITS "$@" \
    | grep '^amplitude' > "$out"
}

echo "== registry lists the simd tier =="
"$CLI" --backend=help | tee "$DIR/help.txt" | grep -q '^  simd' \
  || { echo "simd backend missing from --backend=help"; exit 1; }
grep -q 'isa=' "$DIR/help.txt" || { echo "no isa= in backend help"; exit 1; }

echo "== fp32 reference (scalar chain, LTNS_FORCE_ISA=portable) =="
LTNS_FORCE_ISA=portable amp "$DIR/host.txt" --backend=host
cat "$DIR/host.txt"

echo "== fp32 host and simd bitwise vs the reference (solo) =="
for b in host simd; do
  amp "$DIR/fp32_$b.txt" --backend=$b
  python3 "$CMP" --compare-mode=bitwise "$DIR/host.txt" "$DIR/fp32_$b.txt"
done

echo "== fp32 bitwise under every forced ISA tier =="
for isa in portable avx2 avx512 neon; do
  for b in host simd; do
    LTNS_FORCE_ISA=$isa amp "$DIR/fp32_${b}_$isa.txt" --backend=$b
    python3 "$CMP" --compare-mode=bitwise "$DIR/host.txt" "$DIR/fp32_${b}_$isa.txt"
  done
done

echo "== fp32 simd bitwise under multi-process lease sharding =="
amp "$DIR/fp32_p2.txt" --backend=simd --processes=2
python3 "$CMP" --compare-mode=bitwise "$DIR/host.txt" "$DIR/fp32_p2.txt"

echo "== bf16: deterministic across backends and tiers (solo) =="
LTNS_FORCE_ISA=portable amp "$DIR/bf16_host.txt" --backend=host --precision=bf16
for b in host simd; do
  amp "$DIR/bf16_$b.txt" --backend=$b --precision=bf16
  python3 "$CMP" --compare-mode=bitwise "$DIR/bf16_host.txt" "$DIR/bf16_$b.txt"
done

echo "== bf16: deterministic under multi-process lease sharding =="
amp "$DIR/bf16_p2.txt" --precision=bf16 --processes=2
python3 "$CMP" --compare-mode=bitwise "$DIR/bf16_host.txt" "$DIR/bf16_p2.txt"

echo "== bf16: differs from fp32 but stays ULP-bounded =="
if python3 "$CMP" --compare-mode=bitwise "$DIR/host.txt" "$DIR/bf16_host.txt" \
    > /dev/null 2>&1; then
  echo "bf16 run produced fp32 bits — mixed precision never engaged"; exit 1
fi
python3 "$CMP" --compare-mode=ulp:$ULP_BOUND "$DIR/host.txt" "$DIR/bf16_host.txt"

echo "== serve transport: fp32 bitwise, bf16 deterministic + bounded =="
"$CLI" serve $PORT --processes=2 --backend=simd > "$DIR/server.log" 2>&1 &
SRV=$!
sleep 0.5
"$CLI" worker 127.0.0.1 $PORT > "$DIR/w0.log" 2>&1 &
"$CLI" worker 127.0.0.1 $PORT > "$DIR/w1.log" 2>&1 &
sleep 0.5
"$CLI" submit 127.0.0.1 $PORT "$DIR/c.qc" $BITS --target=4 --job-name=fp32
"$CLI" submit 127.0.0.1 $PORT "$DIR/c.qc" $BITS --target=4 --precision=bf16 --job-name=bf16
"$CLI" result 127.0.0.1 $PORT 1 --wait | grep '^amplitude' > "$DIR/serve_fp32.txt"
"$CLI" result 127.0.0.1 $PORT 2 --wait | grep '^amplitude' > "$DIR/serve_bf16.txt"
python3 "$CMP" --compare-mode=bitwise "$DIR/host.txt" "$DIR/serve_fp32.txt"
python3 "$CMP" --compare-mode=bitwise "$DIR/bf16_host.txt" "$DIR/serve_bf16.txt"
python3 "$CMP" --compare-mode=ulp:$ULP_BOUND "$DIR/host.txt" "$DIR/serve_bf16.txt"
"$CLI" shutdown 127.0.0.1 $PORT
wait $SRV

echo "kernels e2e PASSED"

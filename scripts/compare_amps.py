#!/usr/bin/env python3
"""Amplitude-output comparator for the kernel verification contract.

Compares two `ltns_cli` output captures (the `amplitude = ...` lines that
scripts/kernels_e2e.sh greps out of amp/coordinate/result runs) under one
of two modes:

  --compare-mode=bitwise   byte equality of the amplitude lines. This is
                           the fp32 contract: every backend and every SIMD
                           tier must reproduce the scalar reference bits
                           (LTNS_FORCE_ISA=portable), so
                           even the %.10e text must match exactly.
  --compare-mode=ulp:N     scale-relative ULP bound. This is the bf16
                           mixed-precision contract: deterministic bits,
                           but only ULP-close to the fp32 reference.

The ulp metric mirrors util::ulp_distance_at_scale in src/util/ulp.hpp
EXACTLY: |ref - got| measured in units of the float32 spacing at `scale`,
where scale is the max |component| across the reference file's amplitudes.
Raw per-element ULP distance is useless here — catastrophic cancellation
leaves near-zero components whose sign flips under operand rounding,
billions of raw ULPs away at negligible absolute error — so the bound is
stated at the reference's magnitude, the way a backward-error analysis of
the bf16 chain actually predicts. Stdlib only (struct does the float32 bit
walking; math.ulp would give float64 spacing, which is the wrong unit).

Usage:
  compare_amps.py --compare-mode=bitwise ref.txt got.txt
  compare_amps.py --compare-mode=ulp:1048576 fp32.txt bf16.txt

Exit 0 on pass; exit 1 listing every violation.
"""
import argparse
import math
import re
import struct
import sys

AMP_RE = re.compile(r"amplitude = ([+-][0-9.]+e[+-][0-9]+) ([+-][0-9.]+e[+-][0-9]+)i")


def f32(x):
    """Round a python float through float32 (the kernels' element type)."""
    return struct.unpack("<f", struct.pack("<f", x))[0]


def ulp_of_f32(x):
    """Float32 spacing at |x|: gap to the next representable float above.

    Mirrors util::ulp_of — bit-increment on the float32 encoding, so
    denormals and powers of two get the same answer as the C++ side.
    """
    ax = abs(f32(x))
    if math.isinf(ax) or math.isnan(ax):
        return ax
    bits = struct.unpack("<I", struct.pack("<f", ax))[0]
    nxt = struct.unpack("<f", struct.pack("<I", bits + 1))[0]
    return nxt - ax


def ulp_distance_at_scale(a, b, scale):
    """Mirror of util::ulp_distance_at_scale (same rounding, same units)."""
    a, b = f32(a), f32(b)
    if not (math.isfinite(a) and math.isfinite(b)):
        return 0 if struct.pack("<f", a) == struct.pack("<f", b) else float("inf")
    diff = abs(a - b)  # python floats are doubles: matches the C++ double diff
    if diff == 0.0:
        return 0
    unit = ulp_of_f32(scale)
    if unit <= 0.0:
        return float("inf")
    return int(math.ceil(diff / unit))


def parse_amps(path):
    amps = []
    with open(path) as f:
        for line in f:
            m = AMP_RE.search(line)
            if m:
                amps.append((float(m.group(1)), float(m.group(2)), line.rstrip("\n")))
    if not amps:
        sys.exit(f"{path}: no 'amplitude = ...' lines found")
    return amps


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--compare-mode", required=True,
                    help="'bitwise' or 'ulp:N' (N = max scale-relative ULPs)")
    ap.add_argument("ref", help="reference capture (fp32/host side)")
    ap.add_argument("got", help="capture under test")
    args = ap.parse_args()

    ref, got = parse_amps(args.ref), parse_amps(args.got)
    if len(ref) != len(got):
        sys.exit(f"amplitude count mismatch: {args.ref} has {len(ref)}, "
                 f"{args.got} has {len(got)}")

    if args.compare_mode == "bitwise":
        bad = [(r[2], g[2]) for r, g in zip(ref, got) if r[2] != g[2]]
        for r, g in bad:
            print(f"bitwise mismatch:\n  ref: {r}\n  got: {g}", file=sys.stderr)
        if bad:
            sys.exit(1)
        print(f"bitwise OK: {len(ref)} amplitude line(s) byte-identical")
        return

    m = re.fullmatch(r"ulp:(\d+)", args.compare_mode)
    if not m:
        sys.exit(f"unknown --compare-mode '{args.compare_mode}' (bitwise|ulp:N)")
    bound = int(m.group(1))
    # One scale for the whole file, from the REFERENCE side — the corpus
    # pins in tests/test_kernels_parity.cpp use the same convention.
    scale = max(max(abs(re_), abs(im_)) for re_, im_, _ in ref)
    worst = 0
    bad = 0
    for (r_re, r_im, r_line), (g_re, g_im, g_line) in zip(ref, got):
        d = max(ulp_distance_at_scale(r_re, g_re, scale),
                ulp_distance_at_scale(r_im, g_im, scale))
        worst = max(worst, d)
        if d > bound:
            bad += 1
            print(f"ulp violation ({d} > {bound}):\n  ref: {r_line}\n  got: {g_line}",
                  file=sys.stderr)
    if bad:
        sys.exit(1)
    print(f"ulp OK: {len(ref)} amplitude line(s), max {worst} <= {bound} "
          f"ULPs at scale {scale:.6e}")


if __name__ == "__main__":
    main()

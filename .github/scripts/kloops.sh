#!/bin/sh
# Checks the vector register blocks' k-loops in a release binary.
#
# Usage: .github/scripts/kloops.sh BINARY
#
# Disassembles every function that holds a vector block — the
# AVX-512/AVX2 kernels of `streamk_cpu::simd`, or
# `streamk_cpu::microkernel::register_block` where a `target-cpu`
# with those features inlines them — and finds its innermost loops (a
# backward jump and the instructions it jumps over). A loop whose FMAs
# are `zmm` is an AVX-512 k-loop: 8 rows × 2 vectors, 16 `vfmadd` per
# k-step, f32 (`ps`) or f64 (`pd`). Every one of them must keep its
# accumulators and strides in registers (no `(%rsp)` operand) and
# issue its B-row prefetch (`prefetcht0`); a binary with no f32 or no
# f64 AVX-512 k-loop fails too, so the check cannot pass vacuously.
# `ymm` k-loops (AVX2: 8 × 4 f32 accumulators over 16 registers spill
# by construction) are reported, not judged.
set -eu
bin=$1
objdump -d --no-show-raw-insn -C "$bin" | awk '
function hex(s,   i, c, v) {
    v = 0
    s = tolower(s)
    for (i = 1; i <= length(s); i++) {
        c = index("0123456789abcdef", substr(s, i, 1))
        if (c == 0) break
        v = v * 16 + c - 1
    }
    return v
}
function flush(   i, j, l, inner, fma, vec, ty, rsp, pf) {
    for (l = 1; l <= nloops; l++) {
        inner = 1
        for (j = 1; j <= nloops; j++)
            if (j != l && lo[j] >= lo[l] && hi[j] <= hi[l] && (lo[j] != lo[l] || hi[j] != hi[l])) inner = 0
        if (!inner) continue
        fma = 0; vec = ""; ty = ""; rsp = 0; pf = 0
        for (i = lo[l]; i <= hi[l]; i++) {
            if (ins[i] ~ /vfmadd[0-9]+p[sd]/) {
                fma++
                vec = (ins[i] ~ /zmm/) ? "zmm" : (ins[i] ~ /ymm/ ? "ymm" : vec)
                ty = (ins[i] ~ /vfmadd[0-9]+ps/) ? "f32" : "f64"
            }
            if (ins[i] ~ /\(%rsp\)/) rsp++
            if (ins[i] ~ /prefetcht0/) pf++
        }
        if (fma < 16 || vec == "") continue
        printf "%s %s k-loop in %s: %d FMAs, %d (%%rsp) accesses, %d prefetcht0\n", vec, ty, fn, fma, rsp, pf
        if (vec == "zmm") {
            seen[ty] = 1
            if (rsp > 0) { print "  FAIL: an AVX-512 k-loop touches the stack"; bad = 1 }
            if (pf == 0) { print "  FAIL: an AVX-512 k-loop issues no prefetcht0"; bad = 1 }
        }
    }
    n = 0; nloops = 0; fn = ""
}
/^[0-9a-f]+ <.*>:$/ {
    flush()
    if ($0 ~ /streamk_cpu::microkernel::register_block|streamk_cpu::simd::avx(2|512)_f(32|64)/) {
        fn = $0
        sub(/^[0-9a-f]+ </, "", fn)
        sub(/>:$/, "", fn)
    }
    next
}
fn != "" && /^ +[0-9a-f]+:\t/ {
    split($0, f, "\t")
    gsub(/[ :]/, "", f[1])
    addr = hex(f[1])
    n++
    at[n] = addr
    ins[n] = f[2]
    if (f[2] ~ /^j[a-z]+ +[0-9a-f]+ </) {
        split(f[2], op, / +/)
        t = hex(op[2])
        if (t <= addr) {
            for (i = n; i >= 1 && at[i] > t; i--) ;
            if (i >= 1 && at[i] == t) { nloops++; lo[nloops] = i; hi[nloops] = n }
        }
    }
}
END {
    flush()
    if (!seen["f32"]) { print "FAIL: no f32 AVX-512 k-loop found"; bad = 1 }
    if (!seen["f64"]) { print "FAIL: no f64 AVX-512 k-loop found"; bad = 1 }
    exit bad
}'

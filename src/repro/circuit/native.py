"""Optional native (C) backend for the compiled engine's relaxation loop.

The windowed relaxation of :class:`~repro.circuit.program.BitwiseProgram`
is pure integer/bitwise arithmetic, but the numpy implementation still
pays one Python/numpy dispatch per (step, class-group) — several hundred
small vector calls per chunk, which caps the compiled engine's speedup.
This module lowers exactly that loop into a single C function: a generic
interpreter over the program's relax tables (class codes, pin-row
triples, per-gate inversion flags, per-step window starts), so one
netlist-independent shared object serves every module.

Design constraints:

* **Bit-identical by construction.**  The kernel performs the same
  staged evaluation, XOR diff, and ripple-carry plane fold as the numpy
  path, in the same order, entirely in ``uint64`` integer arithmetic —
  there is no floating point and therefore no rounding freedom.  The
  parity tests compare both paths directly.
* **Optional, never required.**  The C source is embedded here,
  compiled on first use with the system compiler (``$CC``, ``cc``,
  ``gcc`` or ``clang``) into a user-cache shared object keyed by a
  source hash, and loaded with :mod:`ctypes` — no build-time step, no
  new dependencies.  Any failure (no compiler, sandboxed filesystem,
  odd libc) degrades silently to the numpy path, as does setting
  ``REPRO_NATIVE=0``.  ``native_status()`` reports which path is live.
* **Small surface.**  Only the relaxation inner loop is native; settle,
  decode and the shared charge accounting stay in numpy where the
  engine-parity contract is enforced.

The instruction tape was designed as the seam for alternative backends;
this is the first one.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path
from typing import Optional

import numpy as np
import numpy.ctypeslib as npct

__all__ = [
    "CLASS_CODES",
    "NativeTables",
    "decode_native",
    "native_decode",
    "native_kernel",
    "native_status",
    "relax_native",
    "set_native_enabled",
]

#: Canonical class name -> kernel switch code (must match the C source).
CLASS_CODES = {"AND": 0, "XOR": 1, "MAJ": 2, "MUX": 3, "AOI": 4}

_SOURCE = r"""
#include <stdint.h>

/* Windowed-synchronous unit-delay relaxation over packed uint64 lanes.
 *
 * Mirrors BitwiseProgram.relax() exactly: at step t every class group
 * evaluates its level >= t suffix against the step t-1 snapshot (reads
 * from `values`, writes staged results to `scratch`), then all diffs
 * are folded into the bit-sliced toggle planes and written back.  The
 * fold per (row, word) ripples through at most bit_length(t) planes --
 * a row's count after step t is at most t, so deeper carries are
 * provably zero.  Returns the last step with a change.
 */
int32_t repro_relax(
    uint64_t *values,           /* [R, W], updated in place          */
    uint64_t *scratch,          /* [R, W] staging buffer             */
    uint64_t *planes,           /* [MAXP, R, W], zero-initialized    */
    int32_t *n_planes_io,       /* in/out: planes in use             */
    const int32_t *in_rows,     /* pin-major [3, size] per group     */
    const uint8_t *flags,       /* per gate: bits 0-2 pin inversion,
                                   bit 3 output inversion            */
    const int32_t *group_class, /* [n_groups] CLASS_CODES            */
    const int32_t *group_base,  /* [n_groups] first block row        */
    const int32_t *group_size,  /* [n_groups] gates in block         */
    const int32_t *group_off,   /* [n_groups] gate offset into
                                   flags / in_rows                   */
    const int32_t *level_first, /* [n_groups, depth + 2] window
                                   starts                            */
    int32_t n_groups,
    int32_t depth,
    int64_t n_rows,
    int64_t n_words,
    int64_t *evals_out)
{
    int32_t n_planes = *n_planes_io;
    int64_t evals = 0;
    int32_t steps = 0;
    for (int32_t t = 1; t <= depth; t++) {
        int changed = 0;
        /* Stage phase: evaluate every active suffix against the step
         * t-1 snapshot.  Nothing in `values` is written here, so the
         * snapshot semantics match the numpy path exactly. */
        for (int32_t g = 0; g < n_groups; g++) {
            int32_t size = group_size[g];
            int32_t k = level_first[(int64_t)g * (depth + 2) + t];
            if (k >= size)
                continue;
            evals++;
            int32_t base = group_base[g];
            int32_t off = group_off[g];
            int32_t cls = group_class[g];
            const int32_t *pa = in_rows + (int64_t)3 * off;
            const int32_t *pb = pa + size;
            const int32_t *pc = pb + size;
            for (int32_t i = k; i < size; i++) {
                const uint64_t *xa = values + (int64_t)pa[i] * n_words;
                const uint64_t *xb = values + (int64_t)pb[i] * n_words;
                const uint64_t *xc = values + (int64_t)pc[i] * n_words;
                uint64_t *out = scratch + (int64_t)(base + i) * n_words;
                uint8_t f = flags[off + i];
                uint64_t ia = (f & 1) ? ~(uint64_t)0 : 0;
                uint64_t ib = (f & 2) ? ~(uint64_t)0 : 0;
                uint64_t ic = (f & 4) ? ~(uint64_t)0 : 0;
                uint64_t io = (f & 8) ? ~(uint64_t)0 : 0;
                switch (cls) {
                case 0: /* AND */
                    for (int64_t w = 0; w < n_words; w++)
                        out[w] = (((xa[w] ^ ia) & (xb[w] ^ ib))
                                  & (xc[w] ^ ic)) ^ io;
                    break;
                case 1: /* XOR: input inversions fold into io */
                    for (int64_t w = 0; w < n_words; w++)
                        out[w] = (xa[w] ^ xb[w] ^ xc[w]) ^ io;
                    break;
                case 2: /* MAJ */
                    for (int64_t w = 0; w < n_words; w++) {
                        uint64_t a = xa[w], b = xb[w], c = xc[w];
                        out[w] = ((a & (b | c)) | (b & c)) ^ io;
                    }
                    break;
                case 3: /* MUX, pins (sel, a, b) */
                    for (int64_t w = 0; w < n_words; w++) {
                        uint64_t s = xa[w], a = xb[w], b = xc[w];
                        out[w] = (a ^ ((a ^ b) & s)) ^ io;
                    }
                    break;
                case 4: /* AOI */
                    for (int64_t w = 0; w < n_words; w++)
                        out[w] = (((xa[w] ^ ia) & (xb[w] ^ ib))
                                  | (xc[w] ^ ic)) ^ io;
                    break;
                }
            }
        }
        /* Write phase: diff, fold toggles, commit. */
        int32_t bound = 0;
        for (int32_t x = t; x; x >>= 1)
            bound++;
        for (int32_t g = 0; g < n_groups; g++) {
            int32_t size = group_size[g];
            int32_t k = level_first[(int64_t)g * (depth + 2) + t];
            if (k >= size)
                continue;
            int32_t base = group_base[g];
            for (int32_t i = k; i < size; i++) {
                int64_t row = base + i;
                uint64_t *v = values + row * n_words;
                const uint64_t *nv = scratch + row * n_words;
                for (int64_t w = 0; w < n_words; w++) {
                    uint64_t d = v[w] ^ nv[w];
                    if (!d)
                        continue;
                    changed = 1;
                    v[w] = nv[w];
                    uint64_t carry = d;
                    for (int32_t p = 0; p < bound && carry; p++) {
                        uint64_t *pp = planes
                            + ((int64_t)p * n_rows + row) * n_words + w;
                        uint64_t nc = *pp & carry;
                        *pp ^= carry;
                        carry = nc;
                        if (p + 1 > n_planes)
                            n_planes = p + 1;
                    }
                }
            }
        }
        if (!changed)
            break;
        steps = t;
    }
    *n_planes_io = n_planes;
    *evals_out = evals;
    return steps;
}

/* Fused toggle-plane decode: bit-sliced planes (program-row order) to a
 * dense float64 count matrix in *net* order, plus per-lane uint32
 * totals, in one pass.  Decodes the n_lanes lanes starting at word
 * word0 of each plane row, so a caller can walk a chunk in fixed lane
 * blocks through one small output buffer.  Counts are small integers
 * (< 2^n_planes <= 256) so the float64 stores are exact -- the matrix
 * holds bit-for-bit the same values as toggles.astype(float64) on the
 * numpy path, and the BLAS charge accounting downstream stays
 * verbatim-identical.  Eight
 * lanes decode per LUT step (one byte of the packed word spreads to
 * eight count bytes; with n_planes <= 8 the per-byte accumulator cannot
 * carry across lanes). */
void repro_decode(
    const uint64_t *planes,    /* [n_planes, n_rows, n_words]        */
    int32_t n_planes,
    int64_t n_rows,
    int64_t n_words,
    int64_t word0,             /* first decoded word of each row     */
    const int64_t *row_of_net, /* [n_nets] net -> program row        */
    int64_t n_nets,
    int64_t n_lanes,           /* lanes decoded, from word0 on       */
    double *out,               /* [n_nets, n_lanes]                  */
    uint32_t *totals)          /* [n_lanes]                          */
{
    static int lut_built = 0;
    static uint64_t LUT[256];
    if (!lut_built) {
        for (int v = 0; v < 256; v++) {
            uint64_t x = 0;
            for (int b = 0; b < 8; b++)
                if (v & (1 << b))
                    x |= (uint64_t)1 << (8 * b);
            LUT[v] = x;
        }
        lut_built = 1;
    }
    for (int64_t l = 0; l < n_lanes; l++)
        totals[l] = 0;
    int64_t plane_stride = n_rows * n_words;
    for (int64_t net = 0; net < n_nets; net++) {
        int64_t row = row_of_net[net];
        double *dst = out + net * n_lanes;
        const uint64_t *pr = planes + row * n_words + word0;
        for (int64_t w = 0; w < n_words - word0; w++) {
            int64_t lane0 = w * 64;
            int64_t nl = n_lanes - lane0;
            if (nl <= 0)
                break;
            if (nl > 64)
                nl = 64;
            uint64_t pw[8];
            for (int32_t p = 0; p < n_planes; p++)
                pw[p] = pr[(int64_t)p * plane_stride + w];
            for (int64_t b8 = 0; b8 < nl; b8 += 8) {
                uint64_t acc = 0;
                for (int32_t p = 0; p < n_planes; p++)
                    acc += LUT[(pw[p] >> b8) & 0xFF] << p;
                int64_t lim = nl - b8;
                if (lim > 8)
                    lim = 8;
                for (int64_t j = 0; j < lim; j++) {
                    uint32_t c = (uint32_t)((acc >> (8 * j)) & 0xFF);
                    dst[lane0 + b8 + j] = (double)c;
                    totals[lane0 + b8 + j] += c;
                }
            }
        }
    }
}
"""


def _cache_dir() -> Path:
    override = os.environ.get("REPRO_NATIVE_CACHE")
    if override:
        return Path(override)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro-native"


def _compiler() -> Optional[str]:
    cc = os.environ.get("CC")
    if cc and shutil.which(cc):
        return cc
    for name in ("cc", "gcc", "clang"):
        path = shutil.which(name)
        if path:
            return path
    return None


def _build_library() -> Optional[Path]:
    """Compile (or reuse) the cached shared object; None on any failure."""
    cc = _compiler()
    if cc is None:
        return None
    digest = hashlib.sha256(_SOURCE.encode()).hexdigest()[:16]
    cache = _cache_dir()
    so_path = cache / f"relax-{digest}.so"
    if so_path.exists():
        return so_path
    try:
        cache.mkdir(parents=True, exist_ok=True)
        src_path = cache / f"relax-{digest}.c"
        src_path.write_text(_SOURCE)
        fd, tmp_name = tempfile.mkstemp(suffix=".so", dir=str(cache))
        os.close(fd)
        subprocess.run(
            [cc, "-O2", "-shared", "-fPIC", "-o", tmp_name, str(src_path)],
            check=True, capture_output=True, timeout=120,
        )
        os.replace(tmp_name, so_path)  # atomic w.r.t. concurrent builders
        return so_path
    except (OSError, subprocess.SubprocessError):
        return None


_I32 = npct.ndpointer(np.int32, flags="C_CONTIGUOUS")
_U8 = npct.ndpointer(np.uint8, flags="C_CONTIGUOUS")
_U32 = npct.ndpointer(np.uint32, flags="C_CONTIGUOUS")
_U64 = npct.ndpointer(np.uint64, flags="C_CONTIGUOUS")
_I64 = npct.ndpointer(np.int64, flags="C_CONTIGUOUS")
_F64 = npct.ndpointer(np.float64, flags="C_CONTIGUOUS")

#: Lazy singletons: False = not resolved yet, None = unavailable.
_KERNEL = False
_DECODE = False
_STATUS = "unresolved"
#: Programmatic gate override: None defers to $REPRO_NATIVE, True/False wins.
_FORCED: Optional[bool] = None


def _gate_disabled() -> bool:
    """Whether the backend is switched off *right now*.

    Evaluated on every :func:`native_kernel` call — the environment is
    re-read each time rather than captured at import, so forked workers
    and tests can flip ``REPRO_NATIVE`` (or call
    :func:`set_native_enabled`) without re-importing the module.  Only
    the expensive resolution (compile + dlopen) is cached.
    """
    if _FORCED is not None:
        return not _FORCED
    return os.environ.get("REPRO_NATIVE", "").lower() in ("0", "false", "off")


def set_native_enabled(enabled: Optional[bool]) -> None:
    """Override the ``REPRO_NATIVE`` gate programmatically.

    ``True`` forces the native path on (if it can be built), ``False``
    forces the numpy fallback, ``None`` restores deference to the
    environment variable.  Takes effect on the next kernel lookup; the
    compiled library, if already loaded, is kept and simply re-exposed
    when re-enabled.
    """
    global _FORCED
    _FORCED = enabled


def native_kernel():
    """The loaded C relax function, or ``None`` when unavailable.

    Resolution (compiler lookup, compile, dlopen) runs once per process
    and is cached; the ``REPRO_NATIVE`` / :func:`set_native_enabled`
    gate is re-evaluated on every call (``0``/``false``/``off``
    disables).
    """
    global _KERNEL, _DECODE, _STATUS
    if _gate_disabled():
        return None
    if _KERNEL is not False:
        return _KERNEL
    so_path = _build_library()
    if so_path is None:
        _KERNEL, _DECODE, _STATUS = None, None, "no compiler or build failed"
        return None
    try:
        lib = ctypes.CDLL(str(so_path))
        fn = lib.repro_relax
        fn.argtypes = [
            _U64, _U64, _U64, _I32,
            _I32, _U8, _I32, _I32, _I32, _I32, _I32,
            ctypes.c_int32, ctypes.c_int32,
            ctypes.c_int64, ctypes.c_int64,
            _I64,
        ]
        fn.restype = ctypes.c_int32
        dec = lib.repro_decode
        dec.argtypes = [
            _U64, ctypes.c_int32,
            ctypes.c_int64, ctypes.c_int64, ctypes.c_int64,
            _I64, ctypes.c_int64, ctypes.c_int64,
            _F64, _U32,
        ]
        dec.restype = None
    except (OSError, AttributeError):
        _KERNEL, _DECODE, _STATUS = None, None, f"failed to load {so_path}"
        return None
    _KERNEL, _DECODE, _STATUS = fn, dec, f"native ({so_path})"
    return fn


def native_decode():
    """The loaded C decode function, or ``None`` (same gating as relax)."""
    if native_kernel() is None:
        return None
    return _DECODE


def native_status() -> str:
    """Human-readable state of the native backend (for diagnostics)."""
    if _FORCED is False:
        return "disabled by set_native_enabled(False)"
    if _FORCED is None and _gate_disabled():
        return "disabled by REPRO_NATIVE"
    return _STATUS


class NativeTables:
    """Flattened relax tables of one program, ready for the C kernel."""

    __slots__ = (
        "in_rows", "flags", "group_class", "group_base", "group_size",
        "group_off", "level_first", "n_groups", "depth",
    )

    def __init__(self, program) -> None:
        groups = program.relax_groups
        self.n_groups = len(groups)
        self.depth = int(program.depth)
        self.group_class = np.array(
            [CLASS_CODES[g.name] for g in groups], dtype=np.int32
        )
        self.group_base = np.array([g.base for g in groups], dtype=np.int32)
        self.group_size = np.array([g.size for g in groups], dtype=np.int32)
        offs, total = [], 0
        for g in groups:
            offs.append(total)
            total += g.size
        self.group_off = np.array(offs, dtype=np.int32)
        rows, flag_parts = [], []
        for g in groups:
            rows.append(
                np.ascontiguousarray(g.in_rows, dtype=np.int32).ravel()
            )
            f = np.zeros(g.size, dtype=np.uint8)
            if g.inv is not None:
                for pin, mask in enumerate(g.inv):
                    if mask is not None:
                        f |= (mask[:, 0] != 0).astype(np.uint8) << np.uint8(
                            pin
                        )
            if g.out_mask is not None:
                f |= (g.out_mask[:, 0] != 0).astype(np.uint8) << np.uint8(3)
            flag_parts.append(f)
        self.in_rows = (
            np.concatenate(rows) if rows else np.zeros(0, dtype=np.int32)
        )
        self.flags = (
            np.concatenate(flag_parts) if flag_parts
            else np.zeros(0, dtype=np.uint8)
        )
        self.level_first = np.array(
            [g.level_first for g in groups], dtype=np.int32
        ).reshape(self.n_groups, self.depth + 2)


def native_tables(program) -> Optional[NativeTables]:
    """Tables for ``program``, or ``None`` when the native path can't run.

    ``None`` means: kernel unavailable, or the program contains folded
    LUT groups (the numpy path handles those).  Tables are cached on the
    program instance.
    """
    if native_kernel() is None:
        return None
    if any(g.kind != "op" for g in program.relax_groups):
        return None
    cached = program.__dict__.get("_native_tables_cache")
    if cached is None:
        cached = NativeTables(program)
        program.__dict__["_native_tables_cache"] = cached
    return cached


def relax_native(
    tables: NativeTables,
    values: np.ndarray,
    scratch: np.ndarray,
    planes: np.ndarray,
    n_planes: int,
):
    """Run the C relaxation; returns ``(steps, evals, n_planes_used)``.

    ``values`` is updated in place; ``planes`` is the preallocated
    ``[MAXP, R, W]`` zeroed toggle-plane buffer (slot 0 may already hold
    the input-application fold).
    """
    fn = native_kernel()
    n_rows, n_words = values.shape
    n_planes_io = np.array([n_planes], dtype=np.int32)
    evals_out = np.zeros(1, dtype=np.int64)
    steps = fn(
        values, scratch, planes.reshape(-1), n_planes_io,
        tables.in_rows, tables.flags, tables.group_class,
        tables.group_base, tables.group_size, tables.group_off,
        tables.level_first.reshape(-1),
        np.int32(tables.n_groups), np.int32(tables.depth),
        np.int64(n_rows), np.int64(n_words),
        evals_out,
    )
    return int(steps), int(evals_out[0]), int(n_planes_io[0])


def decode_native(
    planes: np.ndarray,
    row_of_net: np.ndarray,
    n_lanes: int,
    out: np.ndarray,
    totals: np.ndarray,
    word_offset: int = 0,
) -> None:
    """Fused plane decode into preallocated ``float64``/``uint32`` buffers.

    ``planes`` is the contiguous ``[n_planes, R, W]`` in-use slice of the
    relax plane buffer (program-row order).  The ``n_lanes`` lanes from
    word ``word_offset`` on are decoded: ``out[net, lane]`` receives the
    exact integer toggle count as float64 and ``totals[lane]`` the
    per-lane sum.  Requires ``n_planes <= 8`` (counts < 256) — callers
    fall back to the numpy decode beyond that.
    """
    fn = native_decode()
    n_planes, n_rows, n_words = planes.shape
    if not 0 <= word_offset or n_lanes > 64 * (n_words - word_offset):
        raise ValueError(
            f"{n_lanes} lanes from word {word_offset} exceed {n_words} words"
        )
    if out.shape != (len(row_of_net), n_lanes) or not out.flags.c_contiguous:
        raise ValueError("out must be a C-contiguous [n_nets, n_lanes] array")
    fn(
        planes.reshape(-1), np.int32(n_planes),
        np.int64(n_rows), np.int64(n_words), np.int64(word_offset),
        row_of_net, np.int64(len(row_of_net)), np.int64(n_lanes),
        out.reshape(-1), totals,
    )

"""Optional native (C) backend of the compiled engine: one call per chunk.

The compiled engine's chunk work — zero-delay settle, windowed unit-delay
relaxation and the capacitance-weighted charge reduction — is pure
integer/bitwise arithmetic plus one fixed-order float sum, but in numpy
it costs one Python dispatch per (level, class) instruction and per
(step, class group), which caps the engine's speed.  This module lowers
the whole chunk into a single C entry, ``repro_chunk``: a generic
interpreter over the program's relax tables (class codes, pin-row
triples, per-gate inversion flags, per-level window starts), so one
netlist-independent shared object serves every module.  ``repro_relax``
exposes the relaxation alone, for callers that need the toggle planes
themselves (the hotspot report, the glitch-weighted accounting).

Design constraints:

* **Bit-identical by construction.**  Settle, relax and the plane fold
  run the same staged evaluation, XOR diff and ripple-carry fold as the
  numpy path, in ``uint64`` integer arithmetic.  The charge reduction
  follows the one float contract every engine shares
  (:func:`repro.circuit.power.net_order_charge`): per lane, multiply each
  net's capacitance by its toggle count, then add in ascending net
  order.  The library is built with ``-ffp-contract=off``, so the
  compiler may vectorize across lanes but never fuses the multiply into
  the add.
* **Optional, never required.**  The C source is embedded here,
  compiled on first use with the system compiler (``$CC``, ``cc``,
  ``gcc`` or ``clang``) into a user-cache shared object named by a hash
  of the source, the flags and the compiler, and loaded with
  :mod:`ctypes` — no build-time step, no new dependencies.  Any failure
  (no compiler, sandboxed filesystem, odd libc) degrades silently to the
  numpy path, as does setting ``REPRO_NATIVE=0``.  ``native_status()``
  reports which path is live.
* **No marshalling in the loop.**  :class:`ChunkKernel` binds the call
  once per (simulator, program): table, capacitance and grow-only work
  buffer addresses are plain ``ctypes.c_void_p`` values it holds (with
  a reference to every buffer), so a chunk pays one foreign call.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path
from typing import Optional, Tuple

import numpy as np
import numpy.ctypeslib as npct

from ..obs.events import EVENTS
from .packed import WORD_BITS

__all__ = [
    "CFLAGS",
    "CLASS_CODES",
    "ChunkKernel",
    "NativeTables",
    "library_path",
    "native_kernel",
    "native_status",
    "relax_native",
    "set_native_enabled",
]

#: Canonical class name -> kernel switch code (must match the C source).
CLASS_CODES = {"AND": 0, "XOR": 1, "MAJ": 2, "MUX": 3, "AOI": 4}

#: Compiler flags of the shared object.  ``-O3`` vectorizes the charge
#: reduction across lanes; ``-ffp-contract=off`` forbids fusing its
#: multiply and add into an FMA (which aarch64 compilers do by default),
#: keeping the sum bit-identical to the numpy reducer.
CFLAGS = ("-O3", "-ffp-contract=off", "-shared", "-fPIC")

_SOURCE = r"""
#include <stdint.h>
#include <string.h>

/* Relax tables of one program (see NativeTables). */
typedef struct {
    const int32_t *in_rows;     /* pin-major [3, size] per group     */
    const uint8_t *flags;       /* per gate: bits 0-2 pin inversion,
                                   bit 3 output inversion            */
    const int32_t *group_class; /* [n_groups] CLASS_CODES            */
    const int32_t *group_base;  /* [n_groups] first block row        */
    const int32_t *group_size;  /* [n_groups] gates in block         */
    const int32_t *group_off;   /* [n_groups] gate offset into
                                   flags / in_rows                   */
    const int32_t *level_first; /* [n_groups, depth + 2]: first block
                                   position at level >= t            */
    int32_t n_groups;
    int32_t depth;
} tables_t;

/* Evaluate block positions [lo, hi) of group g, reading operand rows of
 * `src` and writing output rows of `dst`. */
static void eval_gates(const tables_t *tb, int32_t g, int32_t lo,
                       int32_t hi, const uint64_t *src, uint64_t *dst,
                       int64_t n_words)
{
    int32_t size = tb->group_size[g];
    int32_t base = tb->group_base[g];
    int32_t off = tb->group_off[g];
    int32_t cls = tb->group_class[g];
    const int32_t *pa = tb->in_rows + (int64_t)3 * off;
    const int32_t *pb = pa + size;
    const int32_t *pc = pb + size;
    for (int32_t i = lo; i < hi; i++) {
        const uint64_t *xa = src + (int64_t)pa[i] * n_words;
        const uint64_t *xb = src + (int64_t)pb[i] * n_words;
        const uint64_t *xc = src + (int64_t)pc[i] * n_words;
        uint64_t *out = dst + (int64_t)(base + i) * n_words;
        uint8_t f = tb->flags[off + i];
        uint64_t ia = (f & 1) ? ~(uint64_t)0 : 0;
        uint64_t ib = (f & 2) ? ~(uint64_t)0 : 0;
        uint64_t ic = (f & 4) ? ~(uint64_t)0 : 0;
        uint64_t io = (f & 8) ? ~(uint64_t)0 : 0;
        switch (cls) {
        case 0: /* AND */
            for (int64_t w = 0; w < n_words; w++)
                out[w] = (((xa[w] ^ ia) & (xb[w] ^ ib)) & (xc[w] ^ ic)) ^ io;
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
                out[w] = (((xa[w] ^ ia) & (xb[w] ^ ib)) | (xc[w] ^ ic)) ^ io;
            break;
        }
    }
}

/* Zero-delay settle: every level in ascending order, in place.  A gate
 * reads only rows of lower levels, so the gates of one level may write
 * `values` while their level is evaluated. */
static void settle(const tables_t *tb, uint64_t *values, int64_t n_words)
{
    for (int32_t lvl = 0; lvl <= tb->depth; lvl++) {
        for (int32_t g = 0; g < tb->n_groups; g++) {
            const int32_t *lf = tb->level_first
                + (int64_t)g * (tb->depth + 2);
            if (lf[lvl] < lf[lvl + 1])
                eval_gates(tb, g, lf[lvl], lf[lvl + 1], values, values,
                           n_words);
        }
    }
}

/* Windowed-synchronous unit-delay relaxation over packed uint64 lanes.
 * Word w of plane p of row r lives at planes[r * row_stride +
 * p * plane_stride + w].
 *
 * Mirrors BitwiseProgram.relax() exactly: at step t every class group
 * evaluates its level >= t suffix against the step t-1 snapshot (reads
 * from `values`, writes staged results to `scratch`), then all diffs
 * are folded into the bit-sliced toggle planes and written back.  The
 * fold per (row, word) ripples through at most bit_length(t) planes --
 * a row's count after step t is at most t, so deeper carries are
 * provably zero.  Returns the last step with a change.
 */
static int32_t relax(const tables_t *tb, uint64_t *values,
                     uint64_t *scratch, uint64_t *planes,
                     int64_t row_stride, int64_t plane_stride,
                     int32_t *n_planes_io, int64_t n_words,
                     int64_t *evals_out)
{
    int32_t n_planes = *n_planes_io;
    int32_t depth = tb->depth;
    int64_t evals = 0;
    int32_t steps = 0;
    for (int32_t t = 1; t <= depth; t++) {
        int changed = 0;
        /* Stage phase: nothing in `values` is written here, so the
         * snapshot semantics match the numpy path exactly. */
        for (int32_t g = 0; g < tb->n_groups; g++) {
            int32_t size = tb->group_size[g];
            int32_t k = tb->level_first[(int64_t)g * (depth + 2) + t];
            if (k >= size)
                continue;
            evals++;
            eval_gates(tb, g, k, size, values, scratch, n_words);
        }
        /* Write phase: diff, fold toggles, commit. */
        int32_t bound = 0;
        for (int32_t x = t; x; x >>= 1)
            bound++;
        for (int32_t g = 0; g < tb->n_groups; g++) {
            int32_t size = tb->group_size[g];
            int32_t k = tb->level_first[(int64_t)g * (depth + 2) + t];
            if (k >= size)
                continue;
            int32_t base = tb->group_base[g];
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
                        uint64_t *pp = planes + row * row_stride
                            + p * plane_stride + w;
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

/* Eight one-bit lanes of a byte spread to eight 0/1 bytes (bit j of
 * `byte` becomes byte j). */
static inline uint64_t spread8(uint64_t byte)
{
    return ((((byte * 0x0101010101010101ULL) & 0x8040201008040201ULL)
             + 0x7F7F7F7F7F7F7F7FULL) >> 7) & 0x0101010101010101ULL;
}

/* Per-lane charge and toggle totals straight from the toggle planes:
 * charge[l] = sum over nets, in ascending net order, of
 * caps[net] * count[net, l] -- multiply, then add (the library is built
 * with -ffp-contract=off).  A word whose planes are all zero is skipped:
 * adding caps * 0 = +0.0 leaves a non-negative sum unchanged.  Counts
 * are formed eight lanes at a time, one byte per lane (exact while
 * n_planes <= 8, i.e. counts < 256); deeper programs take a per-lane
 * loop. */
static void reduce_charge(const uint64_t *planes, int32_t n_planes,
                          int64_t row_stride, int64_t plane_stride,
                          int64_t n_words,
                          const int64_t *row_of_net, const double *caps,
                          int64_t n_nets, double *restrict charge,
                          uint32_t *restrict totals)
{
    for (int64_t l = 0; l < 64 * n_words; l++) {
        charge[l] = 0.0;
        totals[l] = 0;
    }
    for (int64_t net = 0; net < n_nets; net++) {
        const uint64_t *pr = planes + row_of_net[net] * row_stride;
        double cap = caps[net];
        for (int64_t w = 0; w < n_words; w++) {
            double *restrict ch = charge + 64 * w;
            uint32_t *restrict tot = totals + 64 * w;
            uint64_t any = 0;
            for (int32_t p = 0; p < n_planes; p++)
                any |= pr[p * plane_stride + w];
            if (!any)
                continue;
            if (n_planes > 8) {
                for (int32_t j = 0; j < 64; j++) {
                    uint32_t c = 0;
                    for (int32_t p = 0; p < n_planes; p++)
                        c |= (uint32_t)((pr[p * plane_stride + w] >> j) & 1)
                             << p;
                    ch[j] += cap * (double)c;
                    tot[j] += c;
                }
                continue;
            }
            uint64_t pw[8];
            for (int32_t p = 0; p < n_planes; p++)
                pw[p] = pr[p * plane_stride + w];
            uint8_t cnt[64];
            for (int32_t b = 0; b < 8; b++) {
                uint64_t acc = 0;
                for (int32_t p = 0; p < n_planes; p++)
                    acc += spread8((pw[p] >> (8 * b)) & 0xFF) << p;
                memcpy(cnt + 8 * b, &acc, 8); /* little-endian lanes */
            }
            for (int32_t j = 0; j < 64; j++) {
                ch[j] += cap * (double)cnt[j];
                tot[j] += cnt[j];
            }
        }
    }
}

int32_t repro_relax(
    uint64_t *values,           /* [R, W], updated in place          */
    uint64_t *scratch,          /* [R, W] staging buffer             */
    uint64_t *planes,           /* [MAXP, R, W], zero-initialized    */
    int32_t *n_planes_io,       /* in/out: planes in use             */
    const int32_t *in_rows, const uint8_t *flags,
    const int32_t *group_class, const int32_t *group_base,
    const int32_t *group_size, const int32_t *group_off,
    const int32_t *level_first, int32_t n_groups, int32_t depth,
    int64_t n_rows,
    int64_t n_words,
    int64_t *evals_out)
{
    tables_t tb = {in_rows, flags, group_class, group_base, group_size,
                   group_off, level_first, n_groups, depth};
    return relax(&tb, values, scratch, planes, n_words, n_rows * n_words,
                 n_planes_io, n_words, evals_out);
}

/* One simulation chunk: settle the old vectors, apply the new ones,
 * relax, and reduce the toggle planes to per-lane charge and totals.
 * Lanes beyond the stream are zero in both input matrices, so they
 * never toggle.  The planes are row-major, [R, max_planes, W], so the
 * reduction reads each net's planes from one block; they must be zero
 * on entry and are zero again on return.  Returns the relaxation steps
 * taken. */
int32_t repro_chunk(
    const uint64_t *old_in,     /* [n_inputs, W] packed old vectors  */
    const uint64_t *new_in,     /* [n_inputs, W] packed new vectors  */
    int64_t n_words,
    uint64_t *values,           /* [R, W] work buffer                */
    uint64_t *scratch,          /* [R, W] staging buffer             */
    uint64_t *planes,           /* [R, max_planes, W] toggle planes  */
    double *charge,             /* [64 W] out: per-lane charge       */
    uint32_t *totals,           /* [64 W] out: per-lane toggles      */
    int64_t *evals_out,
    const int32_t *in_rows, const uint8_t *flags,
    const int32_t *group_class, const int32_t *group_base,
    const int32_t *group_size, const int32_t *group_off,
    const int32_t *level_first, int32_t n_groups, int32_t depth,
    const int64_t *row_of_net,  /* [n_nets] net -> program row       */
    const double *caps,         /* [n_nets] switched capacitance     */
    int64_t n_nets,
    int64_t n_inputs,
    int64_t n_rows,
    int32_t max_planes)
{
    tables_t tb = {in_rows, flags, group_class, group_base, group_size,
                   group_off, level_first, n_groups, depth};
    int64_t row_stride = (int64_t)max_planes * n_words;
    int64_t in_words = n_inputs * n_words;
    uint64_t *in_values = values + 2 * n_words;
    memset(values, 0, (size_t)n_words * sizeof(uint64_t));
    memset(values + n_words, 0xFF, (size_t)n_words * sizeof(uint64_t));
    memcpy(in_values, old_in, (size_t)in_words * sizeof(uint64_t));
    settle(&tb, values, n_words);
    uint64_t moved = 0;
    for (int64_t i = 0; i < n_inputs; i++) {
        uint64_t *in_plane = planes + (2 + i) * row_stride;
        for (int64_t w = 0; w < n_words; w++) {
            uint64_t d = old_in[i * n_words + w] ^ new_in[i * n_words + w];
            in_plane[w] = d;
            moved |= d;
        }
    }
    memcpy(in_values, new_in, (size_t)in_words * sizeof(uint64_t));
    int32_t n_planes = 1;
    int32_t steps = 0;
    *evals_out = 0;
    if (moved)
        steps = relax(&tb, values, scratch, planes, row_stride, n_words,
                      &n_planes, n_words, evals_out);
    reduce_charge(planes, n_planes, row_stride, n_words, n_words,
                  row_of_net, caps, n_nets, charge, totals);
    for (int64_t r = 0; r < n_rows; r++)
        memset(planes + r * row_stride, 0,
               (size_t)n_planes * n_words * sizeof(uint64_t));
    return steps;
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
        return shutil.which(cc)
    for name in ("cc", "gcc", "clang"):
        path = shutil.which(name)
        if path:
            return path
    return None


def library_path(cc: str, flags: Tuple[str, ...] = CFLAGS) -> Path:
    """Cache path of the shared object built by ``cc`` with ``flags``.

    The name hashes the source, the flags and the compiler path, so a
    change to any of them builds a fresh object instead of reusing one
    compiled another way.
    """
    key = "\0".join((_SOURCE, *flags, cc))
    digest = hashlib.sha256(key.encode()).hexdigest()[:16]
    return _cache_dir() / f"relax-{digest}.so"


def _build_library() -> Optional[Path]:
    """Compile (or reuse) the cached shared object; None on any failure."""
    cc = _compiler()
    if cc is None:
        return None
    so_path = library_path(cc)
    if so_path.exists():
        return so_path
    try:
        cache = so_path.parent
        cache.mkdir(parents=True, exist_ok=True)
        src_path = so_path.with_suffix(".c")
        src_path.write_text(_SOURCE)
        fd, tmp_name = tempfile.mkstemp(suffix=".so", dir=str(cache))
        os.close(fd)
        subprocess.run(
            [cc, *CFLAGS, "-o", tmp_name, str(src_path)],
            check=True, capture_output=True, timeout=120,
        )
        os.replace(tmp_name, so_path)  # atomic w.r.t. concurrent builders
        return so_path
    except (OSError, subprocess.SubprocessError):
        return None


_I32 = npct.ndpointer(np.int32, flags="C_CONTIGUOUS")
_U8 = npct.ndpointer(np.uint8, flags="C_CONTIGUOUS")
_U64 = npct.ndpointer(np.uint64, flags="C_CONTIGUOUS")
_I64 = npct.ndpointer(np.int64, flags="C_CONTIGUOUS")
_PTR = ctypes.c_void_p

#: Lazy singletons: False = not resolved yet, None = unavailable.
_KERNEL = False
_CHUNK = False
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
    disables).  The chunk entry resolves with it and is live exactly
    when this returns a function.
    """
    global _KERNEL, _CHUNK, _STATUS
    if _gate_disabled():
        return None
    if _KERNEL is not False:
        return _KERNEL
    so_path = _build_library()
    if so_path is None:
        _KERNEL, _CHUNK, _STATUS = None, None, "no compiler or build failed"
        return None
    tables = [_I32, _U8, _I32, _I32, _I32, _I32, _I32,
              ctypes.c_int32, ctypes.c_int32]
    try:
        lib = ctypes.CDLL(str(so_path))
        fn = lib.repro_relax
        fn.argtypes = [_U64, _U64, _U64, _I32, *tables,
                       ctypes.c_int64, ctypes.c_int64, _I64]
        fn.restype = ctypes.c_int32
        chunk = lib.repro_chunk
        chunk.argtypes = [
            _PTR, _PTR, ctypes.c_int64, _PTR, _PTR, _PTR, _PTR, _PTR, _PTR,
            _PTR, _PTR, _PTR, _PTR, _PTR, _PTR, _PTR,
            ctypes.c_int32, ctypes.c_int32,
            _PTR, _PTR, ctypes.c_int64, ctypes.c_int64, ctypes.c_int64,
            ctypes.c_int32,
        ]
        chunk.restype = ctypes.c_int32
    except (OSError, AttributeError):
        _KERNEL, _CHUNK, _STATUS = None, None, f"failed to load {so_path}"
        return None
    _KERNEL, _CHUNK, _STATUS = fn, chunk, f"native ({so_path})"
    return fn


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

    def arrays(self):
        """The table arrays in the kernels' argument order."""
        return (
            self.in_rows, self.flags, self.group_class, self.group_base,
            self.group_size, self.group_off, self.level_first,
        )


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
        *tables.arrays(),
        np.int32(tables.n_groups), np.int32(tables.depth),
        np.int64(n_rows), np.int64(n_words),
        evals_out,
    )
    return int(steps), int(evals_out[0]), int(n_planes_io[0])


def _address(array: np.ndarray) -> ctypes.c_void_p:
    return ctypes.c_void_p(array.ctypes.data)


class ChunkKernel:
    """``repro_chunk`` bound to one program and its net capacitances.

    Holds the table, ``row_of_net`` and capacitance arrays plus grow-only
    work buffers (values, staging, toggle planes, per-lane charge and
    totals), each referenced here for as long as the C call holds its
    address.  Buffers grow to the widest chunk seen and are reused below
    it; the plane buffer stays zero between calls.
    """

    def __init__(self, program, tables: NativeTables, caps: np.ndarray):
        self._n_rows = program.n_rows
        self._n_inputs = program.n_inputs
        self._max_planes = program.max_planes
        row_of_net = np.ascontiguousarray(program.row_of_net, dtype=np.int64)
        caps = np.ascontiguousarray(caps, dtype=np.float64)
        self._evals = np.zeros(1, dtype=np.int64)
        self._keep = (tables, row_of_net, caps)
        self._tail = (
            _address(self._evals),
            *(_address(a) for a in tables.arrays()),
            tables.n_groups, tables.depth,
            _address(row_of_net), _address(caps),
            len(caps), program.n_inputs, program.n_rows, program.max_planes,
        )
        self._words = 0
        self._grow(1)

    def _grow(self, n_words: int) -> None:
        cells = self._n_rows * n_words
        self._values = np.empty(cells, dtype=np.uint64)
        self._scratch = np.empty(cells, dtype=np.uint64)
        self._planes = np.zeros(self._max_planes * cells, dtype=np.uint64)
        self._charge = np.empty(WORD_BITS * n_words, dtype=np.float64)
        self._totals = np.empty(WORD_BITS * n_words, dtype=np.uint32)
        self._head = tuple(_address(a) for a in (
            self._values, self._scratch, self._planes, self._charge,
            self._totals,
        ))
        self._words = n_words

    def run(
        self, old_packed: np.ndarray, new_packed: np.ndarray, n_lanes: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Charge and toggle totals of one chunk, as ``[n_lanes]`` views.

        ``old_packed``/``new_packed`` are the chunk's packed
        ``[n_inputs, n_words]`` vectors.  The views are overwritten by
        the next call.  Anything else raises ``ValueError`` before an
        address reaches C: inputs are not cast, so a float or signed
        array is refused rather than truncated or wrapped.
        """
        for packed in (old_packed, new_packed):
            if (not isinstance(packed, np.ndarray) or packed.ndim != 2
                    or packed.dtype != np.uint64):
                raise ValueError(
                    f"expected [{self._n_inputs}, n_words] uint64 packed "
                    f"inputs, got {getattr(packed, 'dtype', type(packed))} "
                    f"of shape {np.shape(packed)}"
                )
        old_packed = np.ascontiguousarray(old_packed)
        new_packed = np.ascontiguousarray(new_packed)
        n_words = old_packed.shape[1]
        if (old_packed.shape != (self._n_inputs, n_words)
                or new_packed.shape != old_packed.shape
                or not 0 < n_lanes <= WORD_BITS * n_words):
            raise ValueError(
                f"expected two [{self._n_inputs}, n_words] packed inputs "
                f"holding {n_lanes} lanes, got {old_packed.shape} and "
                f"{new_packed.shape}"
            )
        if n_words > self._words:
            self._grow(n_words)
        steps = _CHUNK(
            old_packed.ctypes.data, new_packed.ctypes.data, n_words,
            *self._head, *self._tail,
        )
        EVENTS.program_steps.inc(steps)
        EVENTS.program_evals.inc(int(self._evals[0]))
        return self._charge[:n_lanes], self._totals[:n_lanes]


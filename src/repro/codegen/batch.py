"""Lane-parallel batched execution (ISSUE 6 tentpole).

The scalar hot path executes one test case at a time; this module makes
the generated step function execute up to :data:`MAX_LANES` test cases
*in lockstep* over numpy-backed signal arrays:

* :func:`vectorize_module` — a source-to-source AST transform that turns
  the scalar generated module (optimizer output or plain emitter output)
  into a lane-parallel variant.  Every signal variable becomes a
  shape-``(lanes,)`` array, ``if`` statements become masked execution of
  both branches with ``np.where`` blends, and probe hits become per-lane
  bit ORs into a ``uint64`` lane-bitset per probe.
* Divergence-sensitive regions — ``while`` bodies (exactly where the
  watchdog ticks) and any statement the vectorizer cannot prove safe —
  fall back to *scalar islands*: a per-lane loop that swaps the lane's
  private watchdog budget in, runs the original scalar code on extracted
  Python scalars, and folds results back into the lane arrays.
* :class:`BatchCoverageRecorder` — per-lane probe bitmaps packed as one
  ``uint64`` per probe (bit *l* = lane *l* hit it), unpacked to per-lane
  rows with one ``np.unpackbits`` call.
* :func:`compile_batch_fuzz_driver` — the batched Algorithm 1 loop:
  unpack N byte streams into lane-major field arrays, step all lanes at
  once, and return per-lane ``(metric, found_new, total_int, iterations,
  timeout)`` with semantics equivalent to running the scalar driver on
  each lane in sequence.

The scalar path stays authoritative: ``tests/modelgen.py`` cross-checks
batched vs scalar lane-by-lane, and ``lanes=1`` engine runs are proven
byte-identical to the seed engine by golden digest.

numpy is an optional dependency: importing this module without it is
fine, but building batched artifacts raises :class:`CodegenError`.
"""

from __future__ import annotations

import ast
import math
from typing import Dict, List, Optional

try:  # soft dependency: scalar path must keep working without numpy
    import numpy as _np
except ImportError:  # pragma: no cover - image always ships numpy
    _np = None

from ..dtypes import DType, saturate_cast
from ..errors import CodegenError
from ..faults.watchdog import WATCHDOG, WatchdogTimeout
from ..lang.ops import BUILTIN_IMPLS, safe_div, safe_mod
from ..model.blocks.lookup import interp1d, interp2d
from .runtime import _WRAPPERS, runtime_globals

__all__ = [
    "MAX_LANES",
    "MAX_BITSET_LANES",
    "have_numpy",
    "vectorize_module",
    "batch_op_census",
    "batch_runtime_globals",
    "BatchCoverageRecorder",
    "compile_batch_fuzz_driver",
]

#: one uint64 bitset per probe caps the *vectorized-codegen* lane count
#: (the generated module's probe writes are single uint64 mask stores)
MAX_LANES = 64

#: the recorder scales past the codegen cap via multi-word uint64
#: bitsets: lane ``l`` lives in word ``l // 64`` at ``_lane_bit(l % 64)``.
#: Wide recorders back engines whose probe writes are not uint64 mask
#: stores — the native kernel backend writes byte rows and folds them in.
MAX_BITSET_LANES = 256


def have_numpy() -> bool:
    """Whether the batched backend can run at all."""
    return _np is not None


def _require_numpy() -> None:
    if _np is None:
        raise CodegenError(
            "batched execution (lanes > 1) requires numpy, which is not "
            "installed; rerun with lanes=1"
        )


def _lane_bit(lane: int) -> int:
    """Bit position of ``lane`` in a ``_bits`` lane-bitset.

    ``_bits`` uses numpy's default big-endian packbits order: lane ``l``
    lands in byte ``l // 8`` at in-byte position ``7 - l % 8``."""
    return (lane & ~7) + 7 - (lane & 7)


if _np is not None:
    #: lane index -> uint64 single-bit mask
    _LB = _np.array(
        [1 << _lane_bit(i) for i in range(MAX_LANES)], dtype=_np.uint64
    )
else:  # pragma: no cover - numpy-less environment
    _LB = None

#: same table as plain Python ints (for scalar-island cov writes)
_LBI = [1 << _lane_bit(i) for i in range(MAX_LANES)]

_I64_LO = -(2 ** 62)
_I64_HI = 2 ** 62


# --------------------------------------------------------------------- #
# lane-array primitives (injected into vectorized module globals)
# --------------------------------------------------------------------- #
# Every helper delegates to the exact scalar implementation when handed a
# non-array: scalar islands and constant-folded paths call the same names
# and must behave bit-for-bit like the scalar engine.


_BOOL_DT = None if _np is None else _np.dtype(bool)
_I64_DT = None if _np is None else _np.dtype(_np.int64)


def _sel(c, a, b):
    """Vectorized ``a if c else b`` (value semantics of the ternary)."""
    if type(c) is _np.ndarray:
        if type(a) is list or type(b) is list:
            la = a if type(a) is list else [a] * len(b)
            lb = b if type(b) is list else [b] * len(a)
            return [_sel(c, x, y) for x, y in zip(la, lb)]
        return _np.where(c, a, b)
    return a if c else b


def _lnot(x):
    if type(x) is _np.ndarray:
        return ~x if x.dtype == _BOOL_DT else x == 0
    return not x


def _bits(m) -> int:
    """Lane-bitset int of a bool mask array.

    Lane ``l`` sits at bit position ``_lane_bit(l)`` — numpy's default
    big-endian packbits order, which skips the ``bitorder`` keyword
    (measurably cheaper on this hot path).  A scalar truth value
    (constant-folded condition) maps to all-ones / zero; the all-ones
    ``-1`` only ever flows through ``&`` chains anchored at the finite
    ``_bits(_active)``, so probe writes stay in uint64 range.
    """
    if type(m) is _np.ndarray:
        return int.from_bytes(_np.packbits(m).tobytes(), "little")
    return -1 if m else 0


def _mk(x):
    """Normalize a truth test to a bool lane array (or scalar bool)."""
    if type(x) is _np.ndarray:
        return x if x.dtype == _BOOL_DT else x != 0
    return bool(x)


def _b2i(x):
    """int64 cast for bool-represented 0/1 signals entering arithmetic
    (``-b`` / ``~b`` / ``b + b`` on bool arrays have logical, not
    numeric, semantics)."""
    if type(x) is _np.ndarray:
        return x.astype(_np.int64)
    return int(x)


_KC: Dict[tuple, object] = {}


def _kc(v, n):
    """Pre-broadcast constant: a same-shape array operand halves numpy's
    ufunc dispatch cost vs a python scalar, so hot constants are
    materialized once per (value, lanes).  The arrays are shared and
    must never be written — generated code only reads BinOp operands."""
    key = (type(v).__name__, v, n)
    arr = _KC.get(key)
    if arr is None:
        arr = _np.full(n, v, dtype=_np.int64 if type(v) is int else _np.float64)
        _KC[key] = arr
    return arr


def _band(m, c):
    """``m AND c`` — ``c`` is a normalized bool array (see ``_mk``) or a
    scalar truth value from a constant fold."""
    if type(c) is _np.ndarray:
        return m & c
    return m if c else _np.zeros_like(m)


def _bandn(m, c):
    """``m AND NOT c``."""
    if type(c) is _np.ndarray:
        return m & ~c
    return _np.zeros_like(m) if c else m


def _to_int64(x):
    """Forgiving int conversion: arrays truncate toward zero.

    Non-finite lanes become 0 and over-wide magnitudes promote to an
    object-dtype array (exact Python-int semantics); the scalar engine
    would raise on such inputs, but in a batch those values only ever
    appear on lanes whose branch mask is off (garbage flows through
    untaken branches), so they must not crash the whole batch.
    """
    if not isinstance(x, _np.ndarray):
        return int(x)
    if x.dtype == object:
        return _np.array([int(v) for v in x], dtype=object)
    if x.dtype.kind == "f":
        finite = _np.isfinite(x)
        safe = _np.where(finite, x, 0.0)
        if (_np.abs(safe) >= 9.2e18).any():
            out = _np.empty(x.shape, dtype=object)
            for i in range(x.size):
                out[i] = int(safe[i])
            return out
        return safe.astype(_np.int64)
    if x.dtype == _I64_DT:
        return x  # callers never mutate: pass through without a copy
    return x.astype(_np.int64)


def _bi(x):
    if isinstance(x, _np.ndarray):
        return _to_int64(x)
    return int(x)


def _bf(x):
    if isinstance(x, _np.ndarray):
        if x.dtype == object:
            return _np.array([float(v) for v in x], dtype=_np.float64)
        return x.astype(_np.float64)
    return float(x)


def _tsel(idx, elems):
    """Per-lane select from a tuple/list of alternatives."""
    if not isinstance(idx, _np.ndarray):
        return elems[idx]
    n = len(elems)
    i = _to_int64(idx) % n
    res = elems[0]
    for k in range(1, n):
        res = _np.where(i == k, elems[k], res)
    return res


def _hit_at(cov, idx, m):
    """Masked probe hit at a lane-varying index."""
    if not isinstance(idx, _np.ndarray):
        cov[int(idx) % len(cov)] |= _bits(m)
        return
    lanes = _np.flatnonzero(m)
    if lanes.size == 0:
        return
    ii = _to_int64(idx)
    if ii.dtype == object:
        for ln in lanes.tolist():
            cov[int(ii[ln]) % len(cov)] |= _LBI[ln]
        return
    _np.bitwise_or.at(cov, ii[lanes] % len(cov), _LB[lanes])


def _bc(v, lanes):
    """Broadcast one scalar initial value to a ``(lanes,)`` array."""
    if isinstance(v, _np.ndarray):
        return v.copy()
    if isinstance(v, list):
        return [_bc(e, lanes) for e in v]
    if isinstance(v, bool):
        return _np.full(lanes, int(v), dtype=_np.int64)
    if isinstance(v, int):
        if _I64_LO < v < _I64_HI:
            return _np.full(lanes, v, dtype=_np.int64)
        out = _np.empty(lanes, dtype=object)
        out[:] = v
        return out
    if isinstance(v, float):
        return _np.full(lanes, v, dtype=_np.float64)
    return v


def _bc_map(d, lanes):
    return {k: _bc(v, lanes) for k, v in d.items()}


# --------------------------------------------------------------------- #
# scalar-island support
# --------------------------------------------------------------------- #


def _lv(v, ln):
    """Load lane ``ln``'s value as an exact Python scalar."""
    if isinstance(v, _np.ndarray):
        e = v[ln]
        return e if v.dtype == object else e.item()
    if isinstance(v, list):
        return [_lv(e, ln) for e in v]
    return v


def _st(dst, ln, val):
    """Store an island result back into lane ``ln``; returns the array
    (possibly dtype-promoted so the Python value round-trips exactly)."""
    if isinstance(dst, list):
        if isinstance(val, list) and len(val) == len(dst):
            return [_st(d, ln, v) for d, v in zip(dst, val)]
        raise TypeError("lane-varying list shape in scalar island")
    kind = dst.dtype.kind
    if isinstance(val, float):
        if kind in "iub":
            dst = dst.astype(_np.float64)
    elif isinstance(val, int) and not isinstance(val, bool):
        if kind == "b":
            # bool-represented 0/1 signal: a plain-int write must not
            # collapse to truthiness
            dst = dst.astype(_np.int64)
        elif kind in "iu" and not (_I64_LO < val < _I64_HI):
            dst = dst.astype(object)
        elif kind == "f" and not (-(2 ** 53) < val < 2 ** 53):
            dst = dst.astype(object)
    dst[ln] = val
    return dst


def _lanes_of(mask, program):
    """Live lanes under ``mask`` (timed-out lanes never re-enter islands)."""
    return _np.flatnonzero(mask & ~program._timed_out)


def _wd_enter(program, ln):
    WATCHDOG.remaining = program._wd_rem[ln]


def _wd_exit(program, ln):
    program._wd_rem[ln] = WATCHDOG.remaining
    WATCHDOG.remaining = None


def _wd_abort(program, ln, cov, exc):
    """Per-lane watchdog abort: snapshot the lane's partial bitmap."""
    snap = int.from_bytes(
        ((cov >> _np.uint64(_lane_bit(ln))) & _np.uint64(1))
        .astype(_np.uint8)
        .tobytes(),
        "little",
    )
    program._timeout_bits[ln] |= snap
    program._timed_out[ln] = True
    program._fresh_timeouts.append((ln, exc))


class _BatchBase:
    """Mixed into vectorized GeneratedModel classes by the transform."""

    def _batch_setup(self, lanes: int) -> None:
        if not 1 <= lanes <= MAX_LANES:
            raise ValueError("lanes must be in 1..%d, got %r" % (MAX_LANES, lanes))
        self._lanes = lanes
        self._timed_out = _np.zeros(lanes, dtype=bool)
        self._timeout_bits = [0] * lanes
        self._fresh_timeouts = []
        self._wd_rem = [None] * lanes
        self._kt = None  # per-instance cache of pre-broadcast constants

    def arm_lanes(self) -> None:
        """Per-input re-arm: every lane gets its own full step budget."""
        self._timed_out[:] = False
        self._timeout_bits = [0] * self._lanes
        self._fresh_timeouts = []
        self._wd_rem = [WATCHDOG.limit] * self._lanes

    def drain_timeouts(self):
        """Lane timeouts raised since the last drain, as (lane, exc)."""
        out = self._fresh_timeouts
        self._fresh_timeouts = []
        return out


# --------------------------------------------------------------------- #
# batched type wrappers / arithmetic (same names as the scalar runtime)
# --------------------------------------------------------------------- #


def _make_batch_int_wrap(bits, signed, name):
    scalar = _WRAPPERS[name]
    mask = (1 << bits) - 1
    half = 1 << (bits - 1)

    def wrap(x):
        if not isinstance(x, _np.ndarray):
            return scalar(x)
        v = _to_int64(x)
        if v.dtype == object:
            return _np.array([scalar(e) for e in v], dtype=_np.int64)
        v = v & mask
        if signed:
            v = (v ^ half) - half
        return v

    return wrap


def _b_w_boolean(x):
    if not isinstance(x, _np.ndarray):
        return _WRAPPERS["boolean"](x)
    return (x != 0).astype(_np.int64)


def _b_w_single(x):
    # float32 round-trip; overflow narrows to inf, like the scalar wrapper
    if not isinstance(x, _np.ndarray):
        return _WRAPPERS["single"](x)
    return _bf(x).astype(_np.float32).astype(_np.float64)


def _b_w_double(x):
    if not isinstance(x, _np.ndarray):
        return _WRAPPERS["double"](x)
    return _bf(x)


def _is_int_like(x):
    if isinstance(x, _np.ndarray):
        return x.dtype.kind in "iub" or x.dtype == object
    return isinstance(x, int)


def _b_safe_div(a, b):
    # generated code overwhelmingly divides by a literal: skip the
    # zero-divisor masking entirely when the divisor is a nonzero scalar
    if type(a) is _np.ndarray:
        if type(b) is int and b != 0 and a.dtype.kind in "iub":
            aa = _to_int64(a)
            q = abs(aa) // abs(b)
            return _np.where((aa < 0) if b > 0 else (aa > 0), -q, q)
        if type(b) in (int, float) and b != 0 and a.dtype.kind == "f":
            return _bf(a) / b
        if type(b) is float and b != 0 and a.dtype.kind in "iub":
            return _bf(a) / b
    if not isinstance(a, _np.ndarray) and not isinstance(b, _np.ndarray):
        return safe_div(a, b)
    if _is_int_like(a) and _is_int_like(b):
        aa = _to_int64(a) if isinstance(a, _np.ndarray) else a
        bb = _to_int64(b) if isinstance(b, _np.ndarray) else b
        z = bb == 0
        if isinstance(bb, _np.ndarray):
            guard = _np.where(z, 1, bb)
        else:
            guard = 1 if z else bb
        q = abs(aa) // abs(guard)
        q = _np.where((aa < 0) != (bb < 0), -q, q)
        return _np.where(z, 0, q)
    aa = _bf(a) if isinstance(a, _np.ndarray) else float(a)
    bb = _bf(b) if isinstance(b, _np.ndarray) else float(b)
    z = bb == 0
    if isinstance(bb, _np.ndarray):
        guard = _np.where(z, 1.0, bb)
    else:
        guard = 1.0 if z else bb
    return _np.where(z, 0.0, aa / guard)


def _b_safe_mod(a, b):
    if type(a) is _np.ndarray:
        if type(b) is int and b != 0 and a.dtype.kind in "iub":
            aa = _to_int64(a)
            m = abs(aa) % abs(b)  # C remainder: sign follows the dividend
            return _np.where(aa < 0, -m, m)
        if type(b) in (int, float) and b != 0 and a.dtype.kind == "f":
            return _np.fmod(_bf(a), b)
        if type(b) is float and b != 0 and a.dtype.kind in "iub":
            return _np.fmod(_bf(a), b)
    if not isinstance(a, _np.ndarray) and not isinstance(b, _np.ndarray):
        return safe_mod(a, b)
    if _is_int_like(a) and _is_int_like(b):
        # scalar: a - safe_div(a, b) * b, EXCEPT b == 0 -> 0 (safe_mod
        # zeroes the whole remainder on a zero divisor; the identity
        # above would hand back the dividend instead)
        d = _b_safe_div(a, b)
        aa = _to_int64(a) if isinstance(a, _np.ndarray) else a
        bb = _to_int64(b) if isinstance(b, _np.ndarray) else b
        res = aa - d * bb
        if isinstance(bb, _np.ndarray):
            return _np.where(bb == 0, 0, res)
        if bb == 0:
            return res * 0  # keeps aa's array shape/dtype when a is one
        return res
    aa = _bf(a) if isinstance(a, _np.ndarray) else float(a)
    bb = _bf(b) if isinstance(b, _np.ndarray) else float(b)
    z = bb == 0
    if isinstance(bb, _np.ndarray):
        guard = _np.where(z, 1.0, bb)
    else:
        guard = 1.0 if z else bb
    # np.fmod == math.fmod elementwise (C fmod on both paths)
    return _np.where(z, 0.0, _np.fmod(aa, guard))


_SEQ_CACHE: Dict[tuple, object] = {}


def _seq_arr(seq):
    key = tuple(seq)
    arr = _SEQ_CACHE.get(key)
    if arr is None:
        arr = _np.array([float(v) for v in key], dtype=_np.float64)
        _SEQ_CACHE[key] = arr
    return arr


def _b_lookup1d(value, breakpoints, table):
    if not isinstance(value, _np.ndarray):
        return interp1d(value, breakpoints, table)
    x = _seq_arr(breakpoints)
    y = _seq_arr(table)
    vv = _bf(value)
    if len(breakpoints) < 2:
        return _np.where(vv == vv, y[0], y[-1])
    # np.clip's python wrapper is several microseconds; two raw ufuncs
    # plus take() do the same clamp at a fraction of the dispatch cost
    i = _np.minimum(
        _np.maximum(_np.searchsorted(x, vv, side="left") - 1, 0), len(x) - 2
    )
    x0 = _np.take(x, i)
    x1 = _np.take(x, i + 1)
    y0 = _np.take(y, i)
    y1 = _np.take(y, i + 1)
    # identical segment + identical op order as the scalar interp1d
    res = y0 + (y1 - y0) * (vv - x0) / (x1 - x0)
    res = _np.where(vv <= x[0], y[0], res)
    res = _np.where(vv >= x[-1], y[-1], res)
    return _np.where(vv != vv, y[-1], res)


def _b_lookup2d(u, v, row_bp, col_bp, table):
    if not isinstance(u, _np.ndarray) and not isinstance(v, _np.ndarray):
        return interp2d(u, v, row_bp, col_bp, table)
    lanes = u.size if isinstance(u, _np.ndarray) else v.size
    if not isinstance(v, _np.ndarray):
        v = _np.full(lanes, float(v), dtype=_np.float64)
    if not isinstance(u, _np.ndarray):
        u = _np.full(lanes, float(u), dtype=_np.float64)
    cuts = [_b_lookup1d(v, col_bp, row) for row in table]
    if len(row_bp) < 2:
        return cuts[0]
    Y = _np.stack([_bf(c) for c in cuts])
    x = _seq_arr(row_bp)
    uu = _bf(u)
    i = _np.minimum(
        _np.maximum(_np.searchsorted(x, uu, side="left") - 1, 0), len(x) - 2
    )
    ar = _np.arange(lanes)
    y0 = Y[i, ar]
    y1 = Y[i + 1, ar]
    res = y0 + (y1 - y0) * (uu - x[i]) / (x[i + 1] - x[i])
    res = _np.where(uu <= x[0], Y[0, ar], res)
    res = _np.where(uu >= x[-1], Y[-1, ar], res)
    return _np.where(uu != uu, Y[-1, ar], res)


def _chain_min(*vals):
    if not any(isinstance(v, _np.ndarray) for v in vals):
        return BUILTIN_IMPLS["min"](*vals)
    acc = vals[0]
    for v in vals[1:]:
        acc = _np.where(v < acc, v, acc)  # keeps-first-on-ties, like min()
    return acc


def _chain_max(*vals):
    if not any(isinstance(v, _np.ndarray) for v in vals):
        return BUILTIN_IMPLS["max"](*vals)
    acc = vals[0]
    for v in vals[1:]:
        acc = _np.where(v > acc, v, acc)
    return acc


def _b_abs(x):
    if isinstance(x, _np.ndarray):
        return _np.abs(x)
    return abs(x)


def _b_floor(x):
    if isinstance(x, _np.ndarray):
        return _to_int64(_np.floor(_bf(x)))
    return BUILTIN_IMPLS["floor"](x)


def _b_ceil(x):
    if isinstance(x, _np.ndarray):
        return _to_int64(_np.ceil(_bf(x)))
    return BUILTIN_IMPLS["ceil"](x)


def _b_round(x):
    if isinstance(x, _np.ndarray):
        return _to_int64(_np.rint(_bf(x)))  # banker's rounding, like round()
    return BUILTIN_IMPLS["round"](x)


def _b_sqrt(x):
    if isinstance(x, _np.ndarray):
        vv = _bf(x)
        neg = vv < 0
        # IEEE sqrt is correctly rounded: bit-identical to math.sqrt
        return _np.where(neg, 0.0, _np.sqrt(_np.where(neg, 0.0, vv)))
    return BUILTIN_IMPLS["sqrt"](x)


def _make_elementwise(name):
    """Trig/exp via the *scalar* impls per element: numpy's SIMD kernels
    may differ by an ulp from libm, which would break bit-exactness."""
    impl = BUILTIN_IMPLS[name]
    nan = float("nan")

    def f(x):
        if not isinstance(x, _np.ndarray):
            return impl(x)
        vv = _bf(x)
        out = _np.empty(vv.shape, dtype=_np.float64)
        for i in range(vv.size):
            e = vv[i]
            out[i] = impl(e) if -math.inf < e < math.inf else (
                impl(e) if name == "exp" else nan
            )
        return out

    return f


def _b_sign(x):
    if isinstance(x, _np.ndarray):
        return (x > 0).astype(_np.int64) - (x < 0).astype(_np.int64)
    return BUILTIN_IMPLS["sign"](x)


def _make_batch_sat(dtype: DType):
    def sat(x, _dt=dtype):
        if not isinstance(x, _np.ndarray):
            return saturate_cast(x, _dt)
        if _dt.is_bool:
            return (x != 0).astype(_np.int64)
        if _dt.is_float:
            return _b_w_single(x) if _dt.name == "single" else _bf(x)
        if x.dtype == object:
            return _np.array(
                [saturate_cast(int(e), _dt) for e in x], dtype=_np.int64
            )
        if x.dtype.kind == "f":
            v = _np.where(x != x, 0.0, x)  # NaN -> 0, like saturate_cast
            v = _np.clip(v, float(_dt.min_value), float(_dt.max_value))
            return v.astype(_np.int64)
        return _np.clip(
            x.astype(_np.int64), _dt.min_value, _dt.max_value
        )

    return sat


# --------------------------------------------------------------------- #
# MCDC lane sinks
# --------------------------------------------------------------------- #


def _noop_sink(mask, vector, outcome):
    pass


def _make_batch_sink(rec, group):
    vec_sets = rec.mcdc_vectors  # [lane][group] -> set

    def add(mask, vector, outcome):
        if type(mask) is int:  # scalar-island call: mask is the lane index
            vec_sets[mask][group].add((int(vector), int(outcome)))
            return
        lanes = _np.flatnonzero(mask)
        va = isinstance(vector, _np.ndarray)
        oa = isinstance(outcome, _np.ndarray)
        for ln in lanes.tolist():
            v = vector[ln] if va else vector
            o = outcome[ln] if oa else outcome
            vec_sets[ln][group].add((int(v), int(o)))

    return add


def _batch_mcdc_adders(hook, n_groups):
    """Batched replacement for ``runtime._mcdc_adders`` (same name in the
    generated module's globals; sink signature is ``add(mask, vec, out)``)."""
    if hook is None:
        return (_noop_sink,) * n_groups
    if isinstance(hook, BatchCoverageRecorder):
        if not hook.mcdc_enabled:
            return (_noop_sink,) * n_groups
        return tuple(_make_batch_sink(hook, g) for g in range(n_groups))

    def _bridge(group):  # lane-less legacy callables: hook(group, vec, out)
        def add(mask, vector, outcome):
            if type(mask) is int:
                hook(group, int(_lv(vector, mask)), int(_lv(outcome, mask)))
                return
            for ln in _np.flatnonzero(mask).tolist():
                hook(group, int(_lv(vector, ln)), int(_lv(outcome, ln)))

        return add

    return tuple(_bridge(g) for g in range(n_groups))


def _mcdc_lanes(hook):
    """Wrap the legacy ``_mcdc(g, v, o)`` prologue hook for lane dispatch:
    vectorized sites call ``_mcdc(g, mask, v, o)``, islands pass the lane."""
    if hook is None:
        return None
    if isinstance(hook, BatchCoverageRecorder):
        if not hook.mcdc_enabled:
            def off(group, mask, vector, outcome):
                pass
            return off
        vec_sets = hook.mcdc_vectors

        def f(group, mask, vector, outcome):
            if type(mask) is int:
                vec_sets[mask][group].add((int(vector), int(outcome)))
                return
            for ln in _np.flatnonzero(mask).tolist():
                vec_sets[ln][group].add(
                    (int(_lv(vector, ln)), int(_lv(outcome, ln)))
                )

        return f

    def g(group, mask, vector, outcome):
        if type(mask) is int:
            hook(group, int(_lv(vector, mask)), int(_lv(outcome, mask)))
            return
        for ln in _np.flatnonzero(mask).tolist():
            hook(group, int(_lv(vector, ln)), int(_lv(outcome, ln)))

    return g


class BatchCoverageRecorder:
    """Per-lane probe bitmaps: uint64 lane-bitset word(s) per probe.

    Up to :data:`MAX_LANES` lanes the bitmap is one word per probe —
    ``curr`` has shape ``(n_probes,)``, the exact layout the vectorized
    generated code's mask stores target, byte-identical to every earlier
    release.  Beyond 64 lanes (kernel-backed engines, up to
    :data:`MAX_BITSET_LANES`) ``curr`` grows a word axis to
    ``(n_probes, words)``; lane ``l`` lives in word ``l // 64`` at bit
    ``_lane_bit(l % 64)``, so the per-lane byte extraction — and with it
    the sequential lane-order ``total_int`` fold — is bit-identical to
    the single-word recorder for any lane index."""

    def __init__(self, branch_db, lanes: int, record_mcdc: bool = False):
        _require_numpy()
        if not 1 <= lanes <= MAX_BITSET_LANES:
            raise ValueError("lanes must be in 1..%d" % MAX_BITSET_LANES)
        self.branch_db = branch_db
        self.lanes = lanes
        self.words = (lanes + MAX_LANES - 1) // MAX_LANES
        self.n_probes = branch_db.n_probes
        if self.words == 1:
            self.curr = _np.zeros(branch_db.n_probes, dtype=_np.uint64)
        else:
            self.curr = _np.zeros(
                (branch_db.n_probes, self.words), dtype=_np.uint64
            )
        self.mcdc_enabled = bool(record_mcdc)
        self.mcdc_vectors = [
            [set() for _ in branch_db.mcdc_groups] for _ in range(lanes)
        ]

    def _word(self, lane: int):
        """The uint64 column holding ``lane``'s bit, any word count."""
        if self.words == 1:
            return self.curr
        return self.curr[:, lane // MAX_LANES]

    def reset_curr(self) -> None:
        self.curr[...] = 0

    def lane_rows(self):
        """(lanes, n_probes) uint8 0/1 matrix of the current bitmaps."""
        if self.n_probes == 0:
            return _np.zeros((self.lanes, 0), dtype=_np.uint8)
        if self.words == 1:
            rows = _np.unpackbits(
                self.curr.view(_np.uint8).reshape(self.n_probes, 8), axis=1
            )
            return rows[:, : self.lanes].T
        rows = _np.unpackbits(
            self.curr.view(_np.uint8).reshape(self.n_probes * self.words, 8),
            axis=1,
        ).reshape(self.n_probes, self.words * MAX_LANES)
        return rows[:, : self.lanes].T

    def lane_bytes(self, lane: int) -> bytes:
        """Lane's bitmap in the scalar recorder's byte-per-probe format."""
        return (
            (
                (self._word(lane) >> _np.uint64(_lane_bit(lane % MAX_LANES)))
                & _np.uint64(1)
            )
            .astype(_np.uint8)
            .tobytes()
        )


def batch_runtime_globals() -> Dict[str, object]:
    """Globals for executing one *vectorized* generated module."""
    _require_numpy()
    env = runtime_globals()
    env.update(
        {
            "_np": _np,
            "_LB": _LB,
            "_LBI": _LBI,
            "_BatchBase": _BatchBase,
            "_WDT": WatchdogTimeout,
            "_sel": _sel,
            "_lnot": _lnot,
            "_bits": _bits,
            "_mk": _mk,
            "_b2i": _b2i,
            "_kc": _kc,
            "_band": _band,
            "_bandn": _bandn,
            "_noop_sink": _noop_sink,
            "_bi": _bi,
            "_bf": _bf,
            "_tsel": _tsel,
            "_hit_at": _hit_at,
            "_bc": _bc,
            "_bc_map": _bc_map,
            "_lv": _lv,
            "_st": _st,
            "_lanes_of": _lanes_of,
            "_wd_enter": _wd_enter,
            "_wd_exit": _wd_exit,
            "_wd_abort": _wd_abort,
            "_mcdc_adders": _batch_mcdc_adders,
            "_mcdc_lanes": _mcdc_lanes,
            "_safe_div": _b_safe_div,
            "_safe_mod": _b_safe_mod,
            "_lookup1d": _b_lookup1d,
            "_lookup2d": _b_lookup2d,
            "_w_boolean": _b_w_boolean,
            "_w_single": _b_w_single,
            "_w_double": _b_w_double,
            "_f_abs": _b_abs,
            "_f_min": _chain_min,
            "_f_max": _chain_max,
            "_f_floor": _b_floor,
            "_f_ceil": _b_ceil,
            "_f_round": _b_round,
            "_f_sqrt": _b_sqrt,
            "_f_sin": _make_elementwise("sin"),
            "_f_cos": _make_elementwise("cos"),
            "_f_tan": _make_elementwise("tan"),
            "_f_exp": _make_elementwise("exp"),
            "_f_sign": _b_sign,
            "_f_mod": _b_safe_mod,
        }
    )
    for name, (bits, signed) in {
        "int8": (8, True),
        "int16": (16, True),
        "int32": (32, True),
        "uint8": (8, False),
        "uint16": (16, False),
        "uint32": (32, False),
    }.items():
        env["_w_%s" % name] = _make_batch_int_wrap(bits, signed, name)
    from ..dtypes import ALL_DTYPES

    for dtype in ALL_DTYPES:
        env["_sat_%s" % dtype.name] = _make_batch_sat(dtype)
    return env


# --------------------------------------------------------------------- #
# the lane vectorizer: scalar generated module -> lane-parallel module
# --------------------------------------------------------------------- #


class _Unvectorizable(Exception):
    """Statement can't be proven lane-safe; execute it as a scalar island."""


_BINOPS = (
    ast.Add, ast.Sub, ast.Mult, ast.Div, ast.FloorDiv, ast.Mod, ast.Pow,
    ast.LShift, ast.RShift, ast.BitAnd, ast.BitOr, ast.BitXor,
)
_CMPOPS = (ast.Eq, ast.NotEq, ast.Lt, ast.LtE, ast.Gt, ast.GtE)
_CALL_MAP = {
    "float": "_bf",
    "int": "_bi",
    "abs": "_f_abs",
    "min": "_f_min",
    "max": "_f_max",
}
_KNOWN_CALL_PREFIXES = ("_w_", "_sat_", "_f_")
_KNOWN_CALLS = {"_safe_div", "_safe_mod", "_lookup1d", "_lookup2d", "len"}


def _is_self_attr(node) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    )


def _name(ident: str, store: bool = False) -> ast.Name:
    return ast.Name(id=ident, ctx=ast.Store() if store else ast.Load())


def _call(fn: str, *args) -> ast.Call:
    return ast.Call(func=_name(fn), args=list(args), keywords=[])


def _const_int(node) -> Optional[int]:
    if isinstance(node, ast.Constant) and isinstance(node.value, int):
        return int(node.value)
    return None


def _wrap_pattern(node):
    """Match the inline integer-wrap idioms in optimizer output.

    ``(x & M ^ H) - H`` (signed, ``M == 2H-1``) and ``x & M`` (unsigned,
    ``M == 2**k - 1``) are idempotent on values already in range, so the
    vectorizer can elide a re-wrap of a name it proved wrapped.  Returns
    ``(inner_expr, (M, H_or_None))`` or ``None``.
    """
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub):
        h = _const_int(node.right)
        l = node.left
        if (
            h
            and h > 0
            and h & (h - 1) == 0
            and isinstance(l, ast.BinOp)
            and isinstance(l.op, ast.BitXor)
            and _const_int(l.right) == h
            and isinstance(l.left, ast.BinOp)
            and isinstance(l.left.op, ast.BitAnd)
            and _const_int(l.left.right) == 2 * h - 1
        ):
            return l.left.left, (2 * h - 1, h)
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitAnd):
        m = _const_int(node.right)
        if m is not None and m > 0 and (m + 1) & m == 0:
            return node.left, (m, None)
    return None


def _fold_cmp(op, a, b):
    if isinstance(op, ast.Eq):
        return a == b
    if isinstance(op, ast.NotEq):
        return a != b
    if isinstance(op, ast.Lt):
        return a < b
    if isinstance(op, ast.LtE):
        return a <= b
    if isinstance(op, ast.Gt):
        return a > b
    return a >= b


class _IslandRename(ast.NodeTransformer):
    """Rewrite an island body to run on one lane's extracted scalars."""

    def __init__(self, locs, attrs):
        self.locs = locs
        self.attrs = attrs

    def visit_Name(self, node):
        if node.id in self.locs:
            return ast.Name(id="_s_" + node.id, ctx=node.ctx)
        return node

    def visit_Attribute(self, node):
        if _is_self_attr(node) and node.attr in self.attrs:
            return ast.Name(id="_s_a_" + node.attr, ctx=node.ctx)
        return self.generic_visit(node)

    def visit_Assign(self, node):
        tgt = node.targets[0]
        if (
            len(node.targets) == 1
            and isinstance(tgt, ast.Subscript)
            and isinstance(tgt.value, ast.Name)
            and tgt.value.id == "cov"
        ):
            # cov[i] = 1  ->  cov[i] |= _LBI[_ln]   (this lane's bit)
            return ast.AugAssign(
                target=ast.Subscript(
                    value=_name("cov"), slice=self.visit(tgt.slice), ctx=ast.Store()
                ),
                op=ast.BitOr(),
                value=ast.Subscript(
                    value=_name("_LBI"), slice=_name("_ln"), ctx=ast.Load()
                ),
            )
        return self.generic_visit(node)

    def visit_Expr(self, node):
        call = node.value
        if isinstance(call, ast.Call) and isinstance(call.func, ast.Name):
            fn = call.func.id
            if fn.startswith("_mcdc_a") and len(call.args) == 1 and isinstance(
                call.args[0], ast.Tuple
            ):
                v, o = call.args[0].elts
                return ast.Expr(
                    value=_call(fn, _name("_ln"), self.visit(v), self.visit(o))
                )
            if fn == "_mcdc" and len(call.args) == 3:
                g, v, o = call.args
                return ast.Expr(
                    value=_call(
                        fn, g, _name("_ln"), self.visit(v), self.visit(o)
                    )
                )
        return self.generic_visit(node)


def _island_vars(stmts, defined):
    """(local reads+writes, written locals, attr reads+writes, written attrs)."""
    reads, writes, a_reads, a_writes = set(), set(), set(), set()
    skip = {"cov", "self", "_ln"}
    for s in stmts:
        for node in ast.walk(s):
            if isinstance(node, ast.Name):
                if node.id in skip or node.id.startswith("_mcdc"):
                    continue
                if isinstance(node.ctx, ast.Store):
                    writes.add(node.id)
                elif node.id in defined:
                    reads.add(node.id)
            elif _is_self_attr(node):
                if isinstance(node.ctx, ast.Store):
                    a_writes.add(node.attr)
                else:
                    a_reads.add(node.attr)
            elif isinstance(node, ast.Subscript) and isinstance(
                node.ctx, ast.Store
            ):
                # element mutation reads the container too
                base = node.value
                if isinstance(base, ast.Name) and base.id not in skip:
                    writes.add(base.id)
                    reads.add(base.id)
                elif _is_self_attr(base):
                    a_writes.add(base.attr)
                    a_reads.add(base.attr)
    return reads, writes, a_reads | a_writes, a_writes


def _assigned_names(stmts):
    out = set()
    for s in stmts:
        for node in ast.walk(s):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                if not node.id.startswith("_mcdc") and node.id != "cov":
                    out.add(node.id)
    return out


def _assign_counts(stmts) -> Dict[str, int]:
    """Store-occurrence count per local name across a statement subtree."""
    out: Dict[str, int] = {}
    for s in stmts:
        for node in ast.walk(s):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                if not node.id.startswith("_mcdc") and node.id != "cov":
                    out[node.id] = out.get(node.id, 0) + 1
    return out


class _MaskCtx:
    """One masked block: a free popcount-bitset guard plus a lazily
    materialized bool mask array.

    Bits compose as plain python ints — ``bits(m & c) == bits(m) &
    bits(c)`` — so nested blocks, probe writes and guards never touch a
    numpy array; the array form (``parent & cond``) is materialized only
    when the block actually blends, dispatches a dynamic probe, records
    MCDC or runs an island.  Materialization inserts the assignment at
    the owning block's first line so every later sibling/nested use sees
    it bound.
    """

    def __init__(self, sv, bits, arr=None, parent=None, cond=None, negated=False):
        self.sv = sv
        self.bits = bits  # name of the python-int lane bitset
        self.arr_var = arr  # name of the bool mask array, once materialized
        self.parent = parent
        self.cond = cond  # name of the normalized condition array
        self.negated = negated
        self.insert_at = 0  # line index of the block's first statement
        self.ind = 0

    def arr(self) -> str:
        if self.arr_var is None:
            pav = self.parent.arr()  # may insert at an earlier position
            self.arr_var = self.sv.tmp("_bm")
            fn = "_bandn" if self.negated else "_band"
            self.sv.insert_line(
                self.insert_at,
                "    " * self.ind
                + "%s = %s(%s, %s)" % (self.arr_var, fn, pav, self.cond),
            )
        return self.arr_var


def _dep_tokens(node) -> frozenset:
    """Names (and ``self.X`` attr tokens) a memoized expression reads."""
    toks = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            toks.add(n.id)
        elif isinstance(n, ast.Attribute):
            toks.add("self.%s" % n.attr)
    return frozenset(toks)


class _StepVectorizer:
    """Emit the lane-parallel step body as source lines."""

    def __init__(self, arg_names):
        self.lines: List[str] = []
        self.ind = 1
        self.defined = set(arg_names)
        self.tmpn = 0
        #: names currently holding bool-represented 0/1 signals
        self.boolvars: set = set()
        #: name -> (mask, half|None): value proven wrapped to that width
        self.wrapw: Dict[str, tuple] = {}
        #: condition name -> [normalized-bool var | None, bitset var];
        #: entries are scoped to the emitting block (restored on exit, so
        #: no line ever references a var from a runtime-skipped sibling)
        self.cond_cache: Dict[str, list] = {}
        #: fresh branch temps assigned exactly once in their if-subtree:
        #: the single write may go unmasked — scalar code defines them
        #: before use on every path that reads them, so inactive lanes'
        #: values are never observed
        self.once: set = set()
        #: CSE over pure expressions: scalar source -> var holding the
        #: vectorized value, plus the names each entry depends on (the
        #: entry dies when any of them is rebound).  Scoped to the
        #: emitting block exactly like cond_cache.
        self.expr_cache: Dict[str, str] = {}
        self.expr_names: Dict[str, frozenset] = {}
        self.no_cse = 0
        #: hoisted constants: (type name, value) -> prologue array name
        self.consts: Dict[tuple, str] = {}
        self.live_ctxs: List[_MaskCtx] = []
        self.mcdc_gated = False

    def tmp(self, prefix: str) -> str:
        self.tmpn += 1
        return "%s%d" % (prefix, self.tmpn)

    def emit(self, line: str) -> None:
        self.lines.append("    " * self.ind + line)

    def insert_line(self, idx: int, line: str) -> None:
        self.lines.insert(idx, line)
        for ctx in self.live_ctxs:
            if ctx.insert_at >= idx:
                ctx.insert_at += 1

    def forget(self, name: str) -> None:
        self.boolvars.discard(name)
        self.wrapw.pop(name, None)
        self.cond_cache.pop(name, None)
        if self.expr_names:
            dead = [k for k, deps in self.expr_names.items() if name in deps]
            for k in dead:
                del self.expr_cache[k]
                del self.expr_names[k]

    def expr_scope_exit(self, esnap, nsnap) -> None:
        """Close a lexical scope for the CSE memo: entries born inside
        die (their temps sit behind a runtime-skippable guard), entries
        killed inside stay dead (a dependency was rebound)."""
        ec = self.expr_cache
        self.expr_cache = {k: v for k, v in esnap.items() if ec.get(k) == v}
        self.expr_names = {k: nsnap[k] for k in self.expr_cache}

    # ---------------- value analysis (on the scalar AST) ---------------- #

    def boolish(self, node) -> bool:
        """Value provably in {0, 1}: safe to carry as a bool lane array."""
        if isinstance(node, ast.Constant):
            return type(node.value) is bool
        if isinstance(node, ast.Name):
            return node.id in self.boolvars
        if isinstance(node, ast.Compare):
            return all(
                isinstance(op, (*_CMPOPS, ast.In, ast.NotIn)) for op in node.ops
            )
        if isinstance(node, ast.BoolOp):
            return all(self.boolish(v) for v in node.values)
        if isinstance(node, ast.UnaryOp):
            return isinstance(node.op, ast.Not)
        if isinstance(node, ast.IfExp):
            return (_is_01(node.body) or self.boolish(node.body)) and (
                _is_01(node.orelse) or self.boolish(node.orelse)
            )
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitAnd, ast.BitOr, ast.BitXor)
        ):
            return self.boolish(node.left) and self.boolish(node.right)
        return False

    def wrap_status(self, node):
        w = _wrap_pattern(node)
        if w is not None:
            return w[1]
        if isinstance(node, ast.Name):
            return self.wrapw.get(node.id)
        return None

    # ---------------- expression vectorization ---------------- #

    def vec(self, node: ast.expr) -> ast.expr:
        """Vectorize one pure expression; raises :class:`_Unvectorizable`.

        Compares and (whitelisted, hence pure) calls are memoized per
        block: generated code repeats the same comparison across probe
        partitions, branch guards and MCDC operands, and each repeat
        costs a full ufunc pass at runtime.  The first occurrence lands
        in an ``_eN`` temp; later ones reuse it."""
        if not isinstance(node, (ast.Compare, ast.Call)):
            return self.vec_inner(node)
        key = ast.unparse(node)
        hit = self.expr_cache.get(key)
        if hit is not None:
            return _name(hit)
        out = self.vec_inner(node)
        if isinstance(out, ast.Constant):
            return out  # folded: re-deriving is free
        if self.no_cse:
            return out
        if isinstance(out, ast.Name):
            self.expr_cache[key] = out.id
            self.expr_names[key] = _dep_tokens(node)
            return out
        name = self.tmp("_e")
        self.emit("%s = %s" % (name, ast.unparse(out)))
        if self.boolish(node):
            self.boolvars.add(name)
        w = self.wrap_status(node)
        if w is not None:
            self.wrapw[name] = w
        self.defined.add(name)
        self.expr_cache[key] = name
        self.expr_names[key] = _dep_tokens(node)
        return _name(name)

    def vec_inner(self, node: ast.expr) -> ast.expr:
        if isinstance(node, ast.Constant):
            return node
        if isinstance(node, ast.Name):
            return node
        if isinstance(node, ast.Attribute):
            if _is_self_attr(node):
                return node
            raise _Unvectorizable(ast.dump(node))
        if isinstance(node, ast.BinOp):
            if not isinstance(node.op, _BINOPS):
                raise _Unvectorizable("binop")
            w = _wrap_pattern(node)
            if (
                w is not None
                and isinstance(w[0], ast.Name)
                and self.wrapw.get(w[0].id) == w[1]
            ):
                return self.vec(w[0])  # idempotent re-wrap: elide
            if isinstance(node.op, (ast.BitAnd, ast.BitOr, ast.BitXor)):
                left = self.vec(node.left)
                right = self.vec(node.right)
            else:  # arithmetic: bool arrays have logical +/-/~ semantics
                left = self.vec_int(node.left)
                right = self.vec_int(node.right)
            left, right = self.hoist_pair(left, right)
            return ast.BinOp(left=left, op=node.op, right=right)
        if isinstance(node, ast.UnaryOp):
            if isinstance(node.op, ast.Not):
                return _call("_lnot", self.vec(node.operand))
            if isinstance(node.op, ast.USub) and isinstance(
                node.operand, ast.Constant
            ) and type(node.operand.value) in (int, float):
                return ast.Constant(value=-node.operand.value)
            if isinstance(node.op, (ast.USub, ast.UAdd, ast.Invert)):
                return ast.UnaryOp(op=node.op, operand=self.vec_int(node.operand))
            raise _Unvectorizable("unaryop")
        if isinstance(node, ast.Compare):
            return self.vec_compare(node)
        if isinstance(node, ast.BoolOp):
            if all(self.boolish(v) for v in node.values):
                # 0/1 operands: and/or == bitwise &/| — one ufunc per term
                out = self.vec(node.values[0])
                for nxt in node.values[1:]:
                    op = ast.BitAnd() if isinstance(node.op, ast.And) else ast.BitOr()
                    out = ast.BinOp(left=out, op=op, right=self.vec(nxt))
                return out
            vals = [self.vec(v) for v in node.values]
            out = vals[0]
            for nxt in vals[1:]:  # Python value semantics of and/or, per lane
                if isinstance(node.op, ast.And):
                    out = _call("_sel", out, nxt, out)
                else:
                    out = _call("_sel", out, out, nxt)
            return out
        if isinstance(node, ast.IfExp):
            if isinstance(node.test, ast.Constant):
                return self.vec(node.body if node.test.value else node.orelse)
            if _is_01(node.body, 1) and _is_01(node.orelse, 0):
                return self.vec_cond(node.test)  # `1 if c else 0` == truth(c)
            if _is_01(node.body, 0) and _is_01(node.orelse, 1):
                return _call("_lnot", self.vec_cond(node.test))
            return _call(
                "_sel",
                self.vec(node.test),
                self.vec(node.body),
                self.vec(node.orelse),
            )
        if isinstance(node, ast.Call):
            if not isinstance(node.func, ast.Name) or node.keywords:
                raise _Unvectorizable("call")
            fn = node.func.id
            if fn in _CALL_MAP:
                fn = _CALL_MAP[fn]  # builtin → batched equivalent, known-safe
            elif not (fn.startswith(_KNOWN_CALL_PREFIXES) or fn in _KNOWN_CALLS):
                raise _Unvectorizable("call:%s" % fn)
            return _call(fn, *[self.vec(a) for a in node.args])
        if isinstance(node, (ast.Tuple, ast.List)):
            elts = [self.vec(e) for e in node.elts]
            return type(node)(elts=elts, ctx=ast.Load())
        if isinstance(node, ast.Subscript):
            if isinstance(node.value, (ast.Tuple, ast.List)):
                idx = node.slice
                c = _const_int(idx)
                elts = [self.vec(e) for e in node.value.elts]
                if c is not None:
                    return elts[c]
                return _call(
                    "_tsel", self.vec(idx), ast.Tuple(elts=elts, ctx=ast.Load())
                )
            base = self.vec(node.value)
            if isinstance(node.slice, ast.Slice):
                for b in (node.slice.lower, node.slice.upper, node.slice.step):
                    if b is not None and _const_int(b) is None:
                        raise _Unvectorizable("slice")
                return ast.Subscript(value=base, slice=node.slice, ctx=ast.Load())
            if _const_int(node.slice) is not None:
                return ast.Subscript(value=base, slice=node.slice, ctx=ast.Load())
            return _call("_tsel", self.vec(node.slice), base)
        raise _Unvectorizable(type(node).__name__)

    def vec_int(self, node) -> ast.expr:
        """Vectorize an arithmetic operand, casting 0/1 bool arrays."""
        v = self.vec(node)
        if self.boolish(node):
            return _call("_b2i", v)
        return v

    def vec_cond(self, node) -> ast.expr:
        """Vectorize a truth test into a normalized bool value."""
        t = self.vec(node)
        if self.boolish(node):
            return t
        return _call("_mk", t)

    def vec_compare(self, node) -> ast.expr:
        if len(node.ops) == 1 and isinstance(node.ops[0], (ast.In, ast.NotIn)):
            # membership in a literal int/bool tuple (chart state dispatch)
            # → OR of per-element equality; float members keep the island
            # path (Python's `in` short-circuits via identity, so NaN
            # membership would diverge from an == chain)
            comp = node.comparators[0]
            if isinstance(comp, (ast.Tuple, ast.List)) and all(
                isinstance(e, ast.Constant)
                and isinstance(e.value, (int, bool))
                for e in comp.elts
            ):
                left = self.vec(node.left)
                out: Optional[ast.expr] = None
                for e in comp.elts:
                    eq = ast.Compare(left=left, ops=[ast.Eq()], comparators=[e])
                    out = (
                        eq
                        if out is None
                        else ast.BinOp(left=out, op=ast.BitOr(), right=eq)
                    )
                if out is None:
                    out = ast.Constant(value=False)
                if isinstance(node.ops[0], ast.NotIn):
                    out = _call("_lnot", out)
                return out
        for op in node.ops:
            if not isinstance(op, _CMPOPS):
                raise _Unvectorizable("cmp")
        if len(node.ops) == 1:
            l, r, op = node.left, node.comparators[0], node.ops[0]
            # vectorize first: an inner `(2 < 0)` sub-compare folds to a
            # constant only on the way through vec(), and the collapses
            # below must see that constant
            lv, rv = self.vec(l), self.vec(r)
            lc = isinstance(lv, ast.Constant)
            rc = isinstance(rv, ast.Constant)
            if lc and rc:
                return ast.Constant(value=_fold_cmp(op, lv.value, rv.value))
            if isinstance(op, (ast.Eq, ast.NotEq)):
                # `x == False` over a 0/1 value collapses to (not) x — the
                # optimizer's `(a < 0) == (b < 0)` sign tests hit this once
                # one side constant-folds
                if rc and type(rv.value) is bool and self.boolish(l):
                    want = rv.value if isinstance(op, ast.Eq) else not rv.value
                    return lv if want else _call("_lnot", lv)
                if lc and type(lv.value) is bool and self.boolish(r):
                    want = lv.value if isinstance(op, ast.Eq) else not lv.value
                    return rv if want else _call("_lnot", rv)
            lv, rv = self.hoist_pair(lv, rv)
            return ast.Compare(left=lv, ops=[op], comparators=[rv])
        left = self.vec(node.left)
        rest = [self.vec(c) for c in node.comparators]
        pairs = []
        cur = left
        for op, nxt in zip(node.ops, rest):
            pairs.append(ast.Compare(left=cur, ops=[op], comparators=[nxt]))
            cur = nxt
        out = pairs[0]
        for p in pairs[1:]:  # chained compares: elementwise AND of pairs
            out = ast.BinOp(left=out, op=ast.BitAnd(), right=p)
        return out

    # ---------------- constant hoisting ---------------- #

    def hoist_pair(self, left, right):
        """Swap a lone scalar constant operand for a pre-broadcast array."""
        if isinstance(left, ast.Constant) ^ isinstance(right, ast.Constant):
            if isinstance(left, ast.Constant):
                return self.hoist(left), right
            return left, self.hoist(right)
        return left, right

    def hoist(self, node):
        v = node.value
        if type(v) is int and _I64_LO < v < _I64_HI:
            pass
        elif type(v) is float and -math.inf < v < math.inf:
            pass
        else:  # bools, huge ints, inf/nan: keep the scalar literal
            return node
        key = (type(v).__name__, v)
        name = self.consts.get(key)
        if name is None:
            name = self.tmp("_k")
            self.consts[key] = name
        return _name(name)

    # ---------------- block / statement dispatch ---------------- #

    def block(self, stmts, ctx: _MaskCtx, top: bool) -> None:
        start = len(self.lines)
        for s in stmts:
            mark = len(self.lines)
            dsnap = set(self.defined)
            bsnap = set(self.boolvars)
            wsnap = dict(self.wrapw)
            csnap = dict(self.cond_cache)
            osnap = set(self.once)
            esnap = dict(self.expr_cache)
            nsnap = dict(self.expr_names)
            try:
                self.stmt(s, ctx, top)
            except _Unvectorizable:
                del self.lines[mark:]
                self.defined = dsnap
                self.boolvars = bsnap
                self.wrapw = wsnap
                self.cond_cache = csnap
                self.once = osnap
                self.expr_cache = esnap
                self.expr_names = nsnap
                self.island([s], ctx)
        if len(self.lines) == start:
            self.emit("pass")

    def stmt(self, node, ctx: _MaskCtx, top: bool) -> None:
        if isinstance(node, ast.Pass):
            return
        if isinstance(node, ast.Return):
            self.emit(ast.unparse(node))
            return
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            self.assign(node, ctx, top)
            return
        if isinstance(node, ast.AugAssign):
            load_t = ast.Name(id=node.target.id, ctx=ast.Load()) if isinstance(
                node.target, ast.Name
            ) else None
            if load_t is None:
                raise _Unvectorizable("augassign")
            desugar = ast.Assign(
                targets=[node.target],
                value=ast.BinOp(left=load_t, op=node.op, right=node.value),
            )
            self.assign(desugar, ctx, top)
            return
        if isinstance(node, ast.If):
            self.if_stmt(node, ctx, top)
            return
        if isinstance(node, ast.Expr):
            self.expr_stmt(node, ctx)
            return
        raise _Unvectorizable(type(node).__name__)

    # ---------------- assignments ---------------- #

    def assign(self, node, ctx: _MaskCtx, top: bool) -> None:
        tgt = node.targets[0]
        if (
            isinstance(tgt, ast.Subscript)
            and isinstance(tgt.value, ast.Name)
            and tgt.value.id == "cov"
        ):
            self.probe_write(tgt.slice, ctx)
            return
        if isinstance(tgt, ast.Name):
            name = tgt.id
            if name == "cov" or name.startswith("_mcdc"):
                # prologue bindings pass through; the legacy hook gains
                # lane dispatch, and both binding shapes set the _mcdc_on
                # gate so no-recorder runs skip vector/outcome evaluation
                if (
                    name == "_mcdc"
                    and _is_self_attr(node.value)
                    and node.value.attr == "_mcdc_hook"
                ):
                    self.emit("_mcdc = _mcdc_lanes(self._mcdc_hook)")
                    self.emit("_mcdc_on = _mcdc is not None")
                    self.mcdc_gated = True
                else:
                    self.emit(ast.unparse(node))
                    if name == "_mcdc_adds":
                        self.emit(
                            "_mcdc_on = bool(_mcdc_adds) "
                            "and _mcdc_adds[0] is not _noop_sink"
                        )
                        self.mcdc_gated = True
                return
            val = ast.unparse(self.vec(node.value))
            new_bool = self.boolish(node.value)
            new_wrap = self.wrap_status(node.value)
            if top or name not in self.defined or name in self.once:
                # once-vars skip the blend: their only write dominates
                # every read, so inactive lanes' values are unobservable
                self.emit("%s = %s" % (name, val))
            else:
                self.emit("%s = _sel(%s, %s, %s)" % (name, ctx.arr(), val, name))
                # a blend mixes branch and fall-through values: facts
                # survive only if both sides agree
                new_bool = new_bool and name in self.boolvars
                if new_wrap != self.wrapw.get(name):
                    new_wrap = None
            self.forget(name)
            if new_bool:
                self.boolvars.add(name)
            if new_wrap is not None:
                self.wrapw[name] = new_wrap
            self.defined.add(name)
            return
        if _is_self_attr(tgt):
            ref = "self.%s" % tgt.attr
            vnode = self.vec(node.value)
            if self.boolish(node.value):
                # state persists across steps with no static tracking:
                # never park a bool-represented signal in an attribute
                vnode = _call("_b2i", vnode)
            val = ast.unparse(vnode)
            if top:
                self.emit("%s = %s" % (ref, val))
            else:
                self.emit("%s = _sel(%s, %s, %s)" % (ref, ctx.arr(), val, ref))
            self.forget(ref)
            return
        if isinstance(tgt, ast.Subscript):
            base = tgt.value
            c = _const_int(tgt.slice)
            if c is not None and (
                (isinstance(base, ast.Name) and base.id in self.defined)
                or _is_self_attr(base)
            ):
                ref = "%s[%d]" % (ast.unparse(base), c)
                vnode = self.vec(node.value)
                if self.boolish(node.value):
                    vnode = _call("_b2i", vnode)
                val = ast.unparse(vnode)
                if top:
                    self.emit("%s = %s" % (ref, val))
                else:
                    self.emit("%s = _sel(%s, %s, %s)" % (ref, ctx.arr(), val, ref))
                # memo entries read whole containers (dep tokens have no
                # element granularity): any element store kills them
                self.forget(ast.unparse(base))
                return
        raise _Unvectorizable("assign target")

    def cond_bits(self, test) -> str:
        """Bitset expression for one condition, cached per name within
        the emitting block (conditions are SSA-ish optimizer temps)."""
        key = test.id if isinstance(test, ast.Name) else None
        if key is not None:
            ent = self.cond_cache.get(key)
            if ent is not None:
                return ent[1]
        src = ast.unparse(self.vec_cond(test))
        if key is None and src.isidentifier():
            # the CSE memo collapsed the condition onto a temp: adopt it
            # as the cache key so repeated partitions share the bits too
            key = src
            ent = self.cond_cache.get(key)
            if ent is not None:
                return ent[1]
        if key is None:
            return "_bits(%s)" % src
        cb = self.tmp("_cb")
        self.emit("%s = _bits(%s)" % (cb, src))
        # src == key exactly when the name is already a normalized bool
        self.cond_cache[key] = [key if src == key else None, cb]
        return cb

    def cond_pair(self, test):
        """(normalized-bool var, bitset var) for a branch condition,
        sharing work with any probe partition that saw it first."""
        key = test.id if isinstance(test, ast.Name) else None
        ent = self.cond_cache.get(key) if key is not None else None
        if ent is not None and ent[0] is not None:
            return ent[0], ent[1]
        if key is not None and self.boolish(test):
            cvar = key
        else:
            src = ast.unparse(self.vec_cond(test))
            if key is None and src.isidentifier():
                # memoized condition: key the cache on its temp so a
                # probe partition of the same test reuses bits and var
                key = src
                ent = self.cond_cache.get(key)
                if ent is not None and ent[0] is not None:
                    return ent[0], ent[1]
                cvar = src
            else:
                cvar = self.tmp("_bc")
                self.emit("%s = %s" % (cvar, src))
        if ent is not None:  # bits already computed by a probe partition
            ent[0] = cvar
            return cvar, ent[1]
        cb = self.tmp("_cb")
        self.emit("%s = _bits(%s)" % (cb, cvar))
        if key is not None:
            self.cond_cache[key] = [cvar, cb]
        return cvar, cb

    def probe_write(self, idx, ctx: _MaskCtx) -> None:
        base = 0
        rest = idx
        if isinstance(idx, ast.BinOp) and isinstance(idx.op, ast.Add):
            b = _const_int(idx.left)
            if b is not None:
                base = b
                rest = idx.right
        if isinstance(rest, ast.IfExp) and isinstance(rest.test, ast.Constant):
            rest = rest.body if rest.test.value else rest.orelse
        c = _const_int(rest)
        if c is not None:
            self.emit("cov[%d] |= %s" % (base + c, ctx.bits))
            return
        if isinstance(rest, ast.IfExp):
            a = _const_int(rest.body)
            b = _const_int(rest.orelse)
            if a is not None and b is not None:
                cb = self.cond_bits(rest.test)
                pt = self.tmp("_pt")
                self.emit("%s = %s & %s" % (pt, ctx.bits, cb))
                self.emit("cov[%d] |= %s" % (base + a, pt))
                # the two sides partition the mask: else-bits = mask ^ then
                self.emit("cov[%d] |= %s ^ %s" % (base + b, ctx.bits, pt))
                return
        expr = ast.unparse(self.vec(idx))
        self.emit("_hit_at(cov, %s, %s)" % (expr, ctx.arr()))

    # ---------------- control flow ---------------- #

    def if_stmt(self, node, ctx: _MaskCtx, top: bool) -> None:
        if isinstance(node.test, ast.Constant):
            taken = node.body if node.test.value else node.orelse
            for s in taken:  # constant fold: splice the taken branch
                mark = len(self.lines)
                dsnap = set(self.defined)
                bsnap = set(self.boolvars)
                wsnap = dict(self.wrapw)
                csnap = dict(self.cond_cache)
                osnap = set(self.once)
                esnap = dict(self.expr_cache)
                nsnap = dict(self.expr_names)
                try:
                    self.stmt(s, ctx, top)
                except _Unvectorizable:
                    del self.lines[mark:]
                    self.defined = dsnap
                    self.boolvars = bsnap
                    self.wrapw = wsnap
                    self.cond_cache = csnap
                    self.once = osnap
                    self.expr_cache = esnap
                    self.expr_names = nsnap
                    self.island([s], ctx)
            return
        cvar, cb = self.cond_pair(node.test)
        tb = self.tmp("_hb")
        self.emit("%s = %s & %s" % (tb, ctx.bits, cb))
        # names defined only inside a branch must exist for the blends
        counts = _assign_counts(list(node.body) + list(node.orelse))
        for n in sorted(counts):
            if n not in self.defined:
                self.emit("%s = 0" % n)
                self.defined.add(n)
                self.forget(n)
                if counts[n] == 1:
                    self.once.add(n)
        self.emit("if %s:" % tb)
        self.ind += 1
        tctx = _MaskCtx(self, tb, parent=ctx, cond=cvar, negated=False)
        tctx.insert_at = len(self.lines)
        tctx.ind = self.ind
        self.live_ctxs.append(tctx)
        csav = dict(self.cond_cache)
        esav = dict(self.expr_cache)
        nsav = dict(self.expr_names)
        try:
            self.block(node.body, tctx, top=False)
        finally:
            self.live_ctxs.pop()
            self.cond_cache = csav
            self.expr_scope_exit(esav, nsav)
        self.ind -= 1
        if node.orelse:
            eb = self.tmp("_hb")
            self.emit("%s = %s & ~%s" % (eb, ctx.bits, cb))
            self.emit("if %s:" % eb)
            self.ind += 1
            ectx = _MaskCtx(self, eb, parent=ctx, cond=cvar, negated=True)
            ectx.insert_at = len(self.lines)
            ectx.ind = self.ind
            self.live_ctxs.append(ectx)
            csav = dict(self.cond_cache)
            esav = dict(self.expr_cache)
            nsav = dict(self.expr_names)
            try:
                self.block(node.orelse, ectx, top=False)
            finally:
                self.live_ctxs.pop()
                self.cond_cache = csav
                self.expr_scope_exit(esav, nsav)
            self.ind -= 1

    def expr_stmt(self, node, ctx: _MaskCtx) -> None:
        call = node.value
        if isinstance(call, ast.Call) and isinstance(call.func, ast.Name):
            fn = call.func.id
            if fn.startswith("_mcdc_a") and len(call.args) == 1 and isinstance(
                call.args[0], ast.Tuple
            ):
                v, o = call.args[0].elts
                # lookup-only CSE: the call is emitted behind the
                # _mcdc_on gate, so fresh _e temps must not hoist work
                # recorder-less runs would otherwise skip
                self.no_cse += 1
                try:
                    vs, os_ = ast.unparse(self.vec(v)), ast.unparse(self.vec(o))
                finally:
                    self.no_cse -= 1
                line = "%s(%s, %s, %s)" % (fn, ctx.arr(), vs, os_)
                if self.mcdc_gated:
                    self.emit("if _mcdc_on:")
                    self.emit("    " + line)
                else:
                    self.emit(line)
                return
            if fn == "_mcdc" and len(call.args) == 3:
                g, v, o = call.args
                self.no_cse += 1
                try:
                    vs, os_ = ast.unparse(self.vec(v)), ast.unparse(self.vec(o))
                finally:
                    self.no_cse -= 1
                line = "_mcdc(%s, %s, %s, %s)" % (
                    ast.unparse(g),
                    ctx.arr(),
                    vs,
                    os_,
                )
                if self.mcdc_gated:
                    self.emit("if _mcdc_on:")
                    self.emit("    " + line)
                else:
                    self.emit(line)
                return
        raise _Unvectorizable("expr")

    # ---------------- scalar islands ---------------- #

    def island(self, stmts, ctx: _MaskCtx) -> None:
        mask = ctx.arr()
        reads, writes, attrs, a_writes = _island_vars(stmts, self.defined)
        for n in sorted(writes):
            if n not in self.defined:
                self.emit("%s = 0" % n)
                self.defined.add(n)
        locs = sorted((reads | writes) & self.defined)
        for n in sorted(writes & self.defined):
            self.emit("%s = _bc(%s, self._lanes)" % (n, n))
        for a in sorted(a_writes):
            self.emit("self.%s = _bc(self.%s, self._lanes)" % (a, a))
        il = self.tmp("_il")
        self.emit("%s = _lanes_of(%s, self)" % (il, mask))
        self.emit("for _ln in %s.tolist():" % il)
        self.ind += 1
        self.emit("_wd_enter(self, _ln)")
        self.emit("try:")
        self.ind += 1
        for n in locs:
            self.emit("_s_%s = _lv(%s, _ln)" % (n, n))
        for a in sorted(attrs):
            self.emit("_s_a_%s = _lv(self.%s, _ln)" % (a, a))
        renamer = _IslandRename(set(locs), set(attrs))
        for s in stmts:
            new = renamer.visit(
                ast.parse(ast.unparse(s)).body[0]  # deep copy via roundtrip
            )
            for line in ast.unparse(ast.fix_missing_locations(new)).splitlines():
                self.emit(line)
        for n in sorted(writes & self.defined):
            self.emit("%s = _st(%s, _ln, _s_%s)" % (n, n, n))
        for a in sorted(a_writes):
            self.emit("self.%s = _st(self.%s, _ln, _s_a_%s)" % (a, a, a))
        self.ind -= 1
        self.emit("except _WDT as _e:")
        # self.cov, not the local: the optimizer strips the dead
        # ``cov = self.cov`` binding from probe-free models
        self.emit("    _wd_abort(self, _ln, self.cov, _e)")
        self.emit("finally:")
        self.emit("    _wd_exit(self, _ln)")
        self.ind -= 1
        for n in writes:
            self.defined.add(n)
            self.forget(n)
        for a in a_writes:
            self.forget("self.%s" % a)


def _is_01(node, want=None) -> bool:
    """Constant int/bool 0 or 1 (optionally a specific one)."""
    if not (isinstance(node, ast.Constant) and type(node.value) in (int, bool)):
        return False
    if want is None:
        return node.value in (0, 1)
    return node.value == want


def _vectorize_step(fn: ast.FunctionDef) -> ast.FunctionDef:
    arg_names = [a.arg for a in fn.args.args if a.arg != "self"]
    sv = _StepVectorizer(arg_names)
    hb = sv.tmp("_hb")
    sv.emit("%s = _bits(_active)" % hb)
    top = _MaskCtx(sv, hb, arr="_active")
    sv.block(fn.body, top, top=True)
    prologue: List[str] = []
    if sv.consts:
        # one tuple bind per call after the first: the per-value _kc
        # lookups only run once per program instance
        items = sorted(sv.consts.items(), key=lambda kv: kv[1])
        names = ", ".join(name for _key, name in items)
        calls = ", ".join("_kc(%r, _nl)" % key[1] for key, _n in items)
        prologue.append("    _kt = self._kt")
        prologue.append("    if _kt is None:")
        prologue.append("        _nl = self._lanes")
        prologue.append("        _kt = self._kt = (%s,)" % calls)
        prologue.append("    (%s,) = _kt" % names)
    src = "def step(self, _active, %s):\n%s" % (
        ", ".join(arg_names),
        "\n".join(prologue + sv.lines) or "    pass",
    )
    try:
        new = ast.parse(src).body[0]
    except SyntaxError as exc:  # pragma: no cover - vectorizer bug guard
        raise CodegenError("vectorizer emitted invalid code: %s" % exc)
    return new


def _patch_init_fn(fn: ast.FunctionDef, has_state: bool) -> None:
    """__init__ gains a ``lanes`` parameter and the batch setup calls."""
    fn.args.args.append(ast.arg(arg="lanes"))
    fn.args.defaults.append(ast.Constant(value=1))
    fn.body.append(
        ast.Expr(
            value=ast.Call(
                func=ast.Attribute(
                    value=_name("self"), attr="_batch_setup", ctx=ast.Load()
                ),
                args=[_name("lanes")],
                keywords=[],
            )
        )
    )
    if has_state:
        fn.body.append(
            ast.Assign(
                targets=[
                    ast.Attribute(
                        value=_name("self"), attr="_state_b", ctx=ast.Store()
                    )
                ],
                value=_call("_bc_map", _name("_STATE_INIT"), _name("lanes")),
            )
        )


def _patch_model_init(fn: ast.FunctionDef) -> None:
    """init/reset re-arms per-lane state arrays."""
    new_body = []
    for s in fn.body:
        if (
            isinstance(s, ast.Expr)
            and isinstance(s.value, ast.Call)
            and isinstance(s.value.func, ast.Attribute)
            and s.value.func.attr == "update"
            and s.value.args
            and isinstance(s.value.args[0], ast.Name)
            and s.value.args[0].id == "_STATE_INIT"
        ):
            # the broadcast dict is cached: batched code never mutates
            # state arrays in place (islands copy-then-rebind, vector
            # code always rebinds), so sharing across resets is safe
            s.value.args[0] = ast.Attribute(
                value=_name("self"), attr="_state_b", ctx=ast.Load()
            )
            new_body.append(s)
        elif isinstance(s, ast.Assign) and _is_self_attr(s.targets[0]):
            s.value = _call(
                "_bc",
                s.value,
                ast.Attribute(value=_name("self"), attr="_lanes", ctx=ast.Load()),
            )
            new_body.append(s)
        else:
            new_body.append(s)
    fn.body = new_body


def vectorize_module(source: str) -> str:
    """Scalar generated module source -> lane-parallel module source."""
    _require_numpy()
    tree = ast.parse(source)
    has_state = any(
        isinstance(n, ast.Assign)
        and isinstance(n.targets[0], ast.Name)
        and n.targets[0].id == "_STATE_INIT"
        for n in tree.body
    )
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name == "GeneratedModel":
            node.bases = [_name("_BatchBase")]
            for i, item in enumerate(node.body):
                if not isinstance(item, ast.FunctionDef):
                    continue
                if item.name == "__init__":
                    _patch_init_fn(item, has_state)
                elif item.name == "init":
                    _patch_model_init(item)
                elif item.name == "step":
                    node.body[i] = _vectorize_step(item)
    return ast.unparse(ast.fix_missing_locations(tree))


def batch_op_census(source: str) -> int:
    """Vectorized-op count of one *batched* module's step function.

    Every counted node is roughly one numpy ufunc dispatch per model
    iteration (~0.4 µs each regardless of lane count), so the census is
    the dispatch-bound cost model behind the engine's ``lanes="auto"``
    pick: a step dominated by dispatch overhead (large census) gains
    little from more lanes and can lose to the scalar interpreter.
    """
    tree = ast.parse(source)
    count = 0
    for node in ast.walk(tree):
        if not isinstance(node, ast.FunctionDef) or node.name != "step":
            continue
        for sub in ast.walk(node):
            if isinstance(sub, (ast.BinOp, ast.Compare, ast.BoolOp)):
                count += 1
            elif isinstance(sub, ast.Call):
                # runtime helpers (_sel, _band, wrappers, ...) dispatch
                # at least one ufunc each; plain attribute calls don't
                if isinstance(sub.func, ast.Name):
                    count += 1
        break
    return count


#: calibrated on the 8-model PR 6 bench: measured 64-lane speedup is
#: approximated by _AUTO_GAIN * (scalar census / batched census) — the
#: expansion ratio captures how many extra masked-select/bitset
#: dispatches vectorization paid to linearize each model's branches
#: (EVCS expands 3.1x and regressed to 0.96x; every >=1x model stays
#: under 2.7x expansion)
_AUTO_GAIN = 3.0


def predict_batch_speedup(scalar_source: str, batched_source: str) -> float:
    """Predicted 64-lane batched speedup over the scalar interpreter.

    A coarse single-constant cost model over the two op censuses, good
    for one decision only: whether the vectorized engine beats scalar at
    all (the ``lanes="auto"`` pick).  Not a throughput estimate.
    """
    sops = batch_op_census(scalar_source)
    bops = batch_op_census(batched_source)
    if not sops or not bops:
        return 1.0
    return _AUTO_GAIN * sops / bops


# --------------------------------------------------------------------- #
# batched fuzz driver (Algorithm 1 over N lanes in lockstep)
# --------------------------------------------------------------------- #

_NP_FMT = {
    "int8": "<i1",
    "int16": "<i2",
    "int32": "<i4",
    "uint8": "<u1",
    "uint16": "<u2",
    "uint32": "<u4",
    "boolean": "u1",
    "single": "<f4",
    "double": "<f8",
}


def compile_batch_fuzz_driver(schedule):
    """Build ``fuzz_test_batch(program, cov, batch, total_int)``.

    ``batch`` is a list of byte streams (one per lane, ≤ program lanes).
    Returns one ``(metric, found_new, total_int, iterations, timeout)``
    tuple per stream, with semantics identical to running the scalar
    ``fuzz_test_one_input`` on each stream in list order (``total_int``
    threads through the batch sequentially, so ``found_new`` ranks match
    a sequential scalar campaign bit-for-bit).
    """
    _require_numpy()
    layout = schedule.layout
    n_probes = schedule.branch_db.n_probes
    tuple_size = layout.size
    fields = list(layout.fields)
    rec_dtype = _np.dtype(
        {
            "names": [f.name for f in fields],
            "formats": [_NP_FMT[f.dtype.name] for f in fields],
            "offsets": [f.offset for f in fields],
            "itemsize": tuple_size,
        }
    )
    kinds = [
        "f" if f.dtype.is_float else ("b" if f.dtype.is_bool else "i")
        for f in fields
    ]

    def fuzz_test_batch(program, cov, batch, total_int):
        lanes = program._lanes
        n = len(batch)
        if n == 0:
            return []
        if n > lanes:
            raise ValueError("batch of %d exceeds %d lanes" % (n, lanes))
        iters = [len(b) // tuple_size for b in batch]
        max_iters = max(iters)
        # fuzz streams are arbitrary bytes: casts and arithmetic on them
        # warn routinely (NaN payloads, wrap-range values), and the
        # scalar engine is silent on the same inputs
        old = _np.seterr(all="ignore")
        # lane-major field arrays: fields[k][t] is iteration t across lanes
        cols = _np.zeros((len(fields), max_iters, lanes), dtype=_np.float64)
        int_cols = _np.zeros((len(fields), max_iters, lanes), dtype=_np.int64)
        for l, data in enumerate(batch):
            k = iters[l]
            if k == 0:
                continue
            rec = _np.frombuffer(data[: k * tuple_size], dtype=rec_dtype)
            for fi, f in enumerate(fields):
                c = rec[f.name]
                if kinds[fi] == "f":
                    cc = c.astype(_np.float64)
                    cols[fi, :k, l] = _np.where(cc != cc, 0.0, cc)  # NaN clamp
                elif kinds[fi] == "b":
                    int_cols[fi, :k, l] = (c != 0).astype(_np.int64)
                else:
                    int_cols[fi, :k, l] = c.astype(_np.int64)
        field_rows = [
            cols[fi] if kinds[fi] == "f" else int_cols[fi]
            for fi in range(len(fields))
        ]
        program.reset()
        program.arm_lanes()
        iters_arr = _np.zeros(lanes, dtype=_np.int64)
        iters_arr[:n] = iters
        cum = [0] * n  # timeout pre-abort snapshots fold here mid-run
        metric = _np.zeros(lanes, dtype=_np.int64)
        texc: List[Optional[BaseException]] = [None] * n
        done_iters = list(iters)
        step = program.step
        # lane activity is a per-lane prefix [0, done_iters[l]), so every
        # step's active mask can be precomputed as one matrix row; a
        # timeout just zeroes the lane's remaining rows
        act_all = _np.arange(max_iters)[:, None] < iters_arr[None, :]
        cum_cov = _np.zeros(n_probes, dtype=_np.uint64)
        prev_cov = _np.zeros(n_probes, dtype=_np.uint64)
        prev_cb = prev_cov.tobytes()
        horizon = max_iters
        try:
            t = 0
            while t < horizon:
                cov[:] = 0
                step(act_all[t], *[fr[t] for fr in field_rows])
                fresh = program.drain_timeouts()
                if fresh:
                    clear = 0
                    for ln, exc in fresh:
                        if texc[ln] is None:
                            texc[ln] = exc
                            # fold the pre-abort snapshot: probes hit
                            # before the watchdog fired still count
                            cum[ln] |= program._timeout_bits[ln]
                            done_iters[ln] = t
                            act_all[t:, ln] = False
                        clear |= 1 << _lane_bit(ln)
                    # aborted mid-iteration: the partial probe row in
                    # cov is superseded by the folded snapshot
                    cov &= _np.uint64(~clear & 0xFFFFFFFFFFFFFFFF)
                    horizon = max(done_iters)
                # sparse bookkeeping: after warmup most steps reproduce
                # the previous step's probe rows exactly, and when they
                # do not, only a few probes' lane-sets actually move
                cb = cov.tobytes()
                if cb != prev_cb:
                    changed = _np.flatnonzero(cov ^ prev_cov)
                    drows = _np.unpackbits(
                        (cov[changed] ^ prev_cov[changed])
                        .view(_np.uint8)
                        .reshape(-1, 8),
                        axis=1,
                    )
                    # lanes that went inactive this step lose their bits
                    # in cov; mask so the vanishing flip does not count
                    metric += (drows[:, :lanes] & act_all[t]).sum(
                        axis=0, dtype=_np.int64
                    )
                    cum_cov |= cov
                    prev_cov[:] = cov
                    prev_cb = cb
                t += 1
        finally:
            _np.seterr(**old)
        if n_probes:
            # scalar total_int convention: one 0/1 BYTE per probe
            rows = _np.unpackbits(
                cum_cov.view(_np.uint8).reshape(n_probes, 8), axis=1
            )
            cols = _np.ascontiguousarray(rows.T)
            for l in range(n):
                cum[l] |= int.from_bytes(cols[l].tobytes(), "little")
        # sequential fold: lane l sees coverage of lanes 0..l-1, exactly
        # like scalar inputs executed in list order
        results = []
        running = total_int
        for l in range(n):
            found = bool(cum[l] & ~running)
            running |= cum[l]
            results.append(
                (int(metric[l]), found, running, done_iters[l], texc[l])
            )
        return results

    return fuzz_test_batch


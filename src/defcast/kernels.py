"""Kernels on the data space, Gram matrices, and finite-expansion norms.

Built-in kernels live on the real line; custom kernels take opaque points
(anything their evaluator accepts).  Hilbert-space norms are computed
through kernel sums only; feature maps are never materialized.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import numbers
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable

import numpy as np

# Quadratic forms below this are treated as broken kernels, not noise.
PSD_TOL = -1e-8

_DOT_SLICE = 8192  # OpenBLAS threads a ddot of more than 10,000 entries


class KernelError(ValueError):
    """Broken kernel: bad parameters, or a negative or non-finite form."""


def check_keys(doc, *keys: str) -> None:
    """Reject a JSON document that is not an object or has keys other than
    `keys`, as a call rejects an unexpected keyword argument: a misspelt key
    is not silently ignored."""
    if not isinstance(doc, dict):
        raise TypeError(f"a JSON object expected, got {type(doc).__name__}")
    unknown = sorted(set(doc) - set(keys))
    if unknown:
        raise TypeError(f"this document takes no key(s) {', '.join(unknown)}")


def json_float(key: str, value) -> float:
    """A finite number in field `key`; float() would also take a string or
    a bool, and json.load reads NaN and Infinity."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) \
            or not math.isfinite(value):
        raise TypeError(f"{key}: a finite number expected, got {value!r}")
    return float(value)


def from_doc(doc, what: str, error: type, kinds: dict):
    """Build the `what` a document names: JSON text, a parsed object or a
    bare name.  Its "kind" picks a constructor from `kinds`, and its other
    keys are that constructor's arguments, bound to its signature as a call
    binds keywords: an unknown or missing key is an `error` naming it."""
    try:  # JSON text; other text is a bare name
        doc = json.loads(doc) if isinstance(doc, str) else doc
    except json.JSONDecodeError:
        pass
    if isinstance(doc, str):  # a name, bare or a JSON string
        doc = {"kind": doc}
    if not isinstance(doc, dict):
        raise error(f"{what}: a JSON object expected, got {type(doc).__name__}")
    args = dict(doc)
    kind = args.pop("kind", None)
    if not isinstance(kind, str) or kind not in kinds:
        raise error(f"unknown {what} kind {kind!r}")
    try:
        inspect.signature(kinds[kind]).bind(**args)
    except TypeError as exc:
        raise error(f"{what} {kind!r}: {exc}") from None
    return kinds[kind](**args)


def ordered_dot(a, b):
    """a @ b summed in order over slices that OpenBLAS runs on one thread.
    Each row of a 2-D a gets its 1-D bits: (n, 1, m) @ (m, 1) runs one ddot
    per row, where a gemv sums another way, and the slices add from the
    first, not from zeros (0.0 + -0.0 is +0.0)."""
    if a.ndim == 2:
        a, b = a[:, None, :], b[:, None]
    elif len(a) <= _DOT_SLICE:
        return float(a @ b)
    total = a[..., :_DOT_SLICE] @ b[:_DOT_SLICE]
    for i in range(_DOT_SLICE, a.shape[-1], _DOT_SLICE):
        total += a[..., i:i + _DOT_SLICE] @ b[i:i + _DOT_SLICE]
    return float(total) if a.ndim == 1 else total[:, 0, 0]


# -- double-double arithmetic ---------------------------------------------
# A value is held as floats whose exact sum it is.  The helpers take floats
# or numpy arrays alike.

_SPLITTER = 134217729.0  # 2^27 + 1: Veltkamp's split of a double in halves


def two_sum(a, b):
    """(s, t) with s = fl(a + b) and s + t = a + b exactly (Knuth)."""
    s = a + b
    z = s - a
    return s, (a - (s - z)) + (b - z)


def _two_prod(a, b):
    """(p, t) with p = fl(a * b) and p + t = a * b exactly, by Veltkamp's
    split and Dekker's product: exact for |a|, |b| < 2^995 and a t that
    does not underflow."""
    p = a * b
    c, d = _SPLITTER * a, _SPLITTER * b
    a1, b1 = c - (c - a), d - (d - b)
    a2, b2 = a - a1, b - b1
    return p, ((a1 * b1 - p) + a1 * b2 + a2 * b1) + a2 * b2


def _dd_cumsum(a, a_lo) -> tuple[np.ndarray, np.ndarray]:
    """(hi, lo) with hi[i] + lo[i] = sum_{j<i} (a_j + a_lo_j), i = 0..N, to
    about N u^2 sum|a|: np.cumsum's running sum of a, and the running sum of
    a_lo plus the TwoSum error of each of cumsum's steps (Ogita, Rump &
    Oishi's Sum2; add.accumulate adds in order).  a_lo is overwritten."""
    hi, lo = np.zeros(len(a) + 1), np.zeros(len(a) + 1)
    np.cumsum(a, out=hi[1:])
    z = hi[2:] - hi[1:-1]
    a_lo[1:] += (hi[1:-1] - (hi[2:] - z)) + (a[1:] - z)
    np.cumsum(a_lo, out=lo[1:])
    return hi, lo


def _dd_total(a, a_lo) -> tuple[float, float]:
    """sum_j (a_j + a_lo_j) as a normalized pair (_dd_cumsum)."""
    hi, lo = _dd_cumsum(a, a_lo)
    return two_sum(float(hi[-1]), float(lo[-1]))


def rounded_sum(parts) -> float:
    """The exact sum of the float tuple `parts`, rounded once (math.fsum);
    +-inf past the float range.  Non-finite parts sum as in IEEE addition
    (inf - inf is NaN), and where one of fsum's partial sums overflows, the
    finite parts sum in Fractions."""
    try:
        return math.fsum(parts)
    except ValueError:  # -inf + inf
        return math.nan
    except OverflowError:  # a partial sum is past the range; the sum may not be
        special = [v for v in parts if not math.isfinite(v)]
        exact = sum(special) if special else sum(map(Fraction, parts))
        try:
            return float(exact)
        except OverflowError:
            return math.inf if exact > 0 else -math.inf


def _scale(v) -> int:
    """k with max|v| * 2^-k in [0.5, 1), 0 for an empty or zero v: scaling
    by 2^-k is exact and keeps _two_prod's splits finite."""
    top = float(np.max(np.abs(v), initial=0.0))
    return math.frexp(top)[1] if 0.0 < top < math.inf else 0


def _unscaled(hi: float, lo: float, k: int) -> tuple[float, float]:
    """(hi, lo) * 2^k; (inf, 0.0) past the float range."""
    try:
        return math.ldexp(hi, k), math.ldexp(lo, k)
    except OverflowError:
        return math.copysign(math.inf, hi), 0.0


def _square(hi: float, lo: float) -> tuple[float, float]:
    """(hi + lo)^2 to double-double precision."""
    p, t = _two_prod(hi, hi)
    return p, t + 2.0 * hi * lo


def _sobolev_form(x, w, w_lo) -> tuple[float, float]:
    """sum_ij w_i w_j exp(-|x_i - x_j|) / 2 for weights w + w_lo with
    max|w| < 1, in O(N log N): x sorted, it is sum_i w_i (w_i / 2 + L_i)
    with L_i = sum_{j<i} w_j exp(-(x_i - x_j)) (celerite's semiseparable
    recursion).  Points with one floor(x) form a block anchored at that c:
    L_i is exp(-(x_i - c)) times the block's carry plus its sum of
    w_j exp(x_j - c) over j < i.  Each exponent x - c lies in [0, 1), so
    neither overflows nor takes more than u of absolute error from x - c.
    The carry into the next block is exp(-(c' - c)) times the carry plus
    the block's sum.  Arrays are dropped as soon as they are used, to keep
    the peak near 16 floats per point."""
    order = np.argsort(x, kind="stable")
    x, w, w_lo = x[order], w[order], w_lo[order]
    del order
    c = np.floor(x)
    new = np.empty(len(x), bool)
    new[0], new[1:] = True, c[1:] != c[:-1]
    first, block = np.flatnonzero(new), np.cumsum(new)
    block -= 1
    d, c = np.subtract(x, c, out=x), c[first]
    del new, x
    g = np.exp(d)
    a, a_lo = _two_prod(w, g)
    a_lo += w_lo * g
    del g
    hi, lo = _dd_cumsum(a, a_lo)  # E[i] = sum_{j<i} w_j exp(x_j - c_j)
    del a, a_lo
    # each block's sum, E at the next block's first point less E at its own
    ends = np.append(first[1:], len(d))
    sums, sums_lo = two_sum(hi[ends], -hi[first])
    sums_lo += lo[ends] - lo[first]
    with np.errstate(over="ignore"):  # c' - c past the range: exp is 0
        factors = np.exp(-np.diff(c))
    carry, carry_lo = [0.0], [0.0]
    for f, b, b_lo in zip(factors.tolist(), sums.tolist(), sums_lo.tolist()):
        s, e = two_sum(carry[-1], b)
        p, t = _two_prod(s, f)
        carry.append(p)
        carry_lo.append(t + (e + carry_lo[-1] + b_lo) * f)
    # S_i = the carry into i's block plus E[i] - E[block start]
    carry, carry_lo = np.asarray(carry)[block], np.asarray(carry_lo)[block]
    k = first[block]
    del block
    s, e = two_sum(hi[:-1], -hi[k])
    e += lo[:-1] - lo[k]
    del hi, lo, k
    s, t = two_sum(carry, s)
    e += t + carry_lo
    del carry, carry_lo, t
    # L_i = exp(-(x_i - c)) S_i; then the terms w_i L_i and w_i^2 / 2
    h = np.exp(np.negative(d, out=d))
    del d
    s, t = _two_prod(s, h)
    t += e * h
    del e, h
    p, q = _two_prod(w, s)
    q += w * t + w_lo * s
    del s, t
    sq, sq_lo = _two_prod(w, w)
    sq_lo += 2.0 * w * w_lo
    parts = (*_dd_total(p, q), *_dd_total(0.5 * sq, 0.5 * sq_lo))
    hi = math.fsum(parts)
    return hi, math.fsum((*parts, -hi))


class KernelKind(Enum):
    SOBOLEV = "sobolev"
    GAUSSIAN = "gaussian"
    LINEAR = "linear"
    CUSTOM = "custom"


@dataclass(frozen=True)
class Kernel:
    """Symmetric positive-definite function on the data space.

    `c_f`, C_F = sup sqrt(K(x, x)) over the data, scales every regret
    bound (inf: no bound); a custom kernel declares it.  `data_range`, a
    linear document's `range`, declares that data lie in |x| <= r.
    """

    kind: KernelKind
    c_f: float
    width: float | None = None
    offset: float | None = None
    func: Callable | None = None
    data_range: float | None = None

    @staticmethod
    def sobolev() -> "Kernel":
        return Kernel(KernelKind.SOBOLEV, 1.0 / math.sqrt(2.0))

    @staticmethod
    def gaussian(width: float = 1.0) -> "Kernel":
        width = json_float("width", width)
        # of_difference divides by 2 * width ** 2; width * width comes first,
        # as ** raises OverflowError
        if not (width > 0 and math.isfinite(width * width)
                and 0.0 < 2 * width ** 2 < math.inf):
            raise KernelError(f"gaussian width must be > 0 with 2*width^2 a "
                              f"positive finite float, got {width!r}")
        return Kernel(KernelKind.GAUSSIAN, 1.0, width=width)

    @staticmethod
    def linear(offset: float = 0.0, range: float | None = None) -> "Kernel":
        offset = json_float("offset", offset)
        if offset < 0:
            raise KernelError("linear offset must be nonnegative")
        if range is not None:
            range = json_float("range", range)
            if not (range > 0 and math.isfinite(range * range + offset)):
                raise KernelError(f"range must be > 0 with range^2 + offset "
                                  f"finite, got range={range!r}, "
                                  f"offset={offset!r}")
        c_f = math.inf if range is None else math.sqrt(range * range + offset)
        return Kernel(KernelKind.LINEAR, c_f, offset=offset, data_range=range)

    @staticmethod
    def custom(func: Callable, c_f: float = math.inf) -> "Kernel":
        if not c_f > 0:
            raise KernelError(f"c_f must be > 0, got {c_f!r}")
        return Kernel(KernelKind.CUSTOM, float(c_f), func=func)

    @staticmethod
    def from_json(doc) -> "Kernel":
        """Build a kernel from a JSON document, a parsed object or a name."""
        return from_doc(doc, "kernel", KernelError, {
            "sobolev": Kernel.sobolev, "gaussian": Kernel.gaussian,
            "linear": Kernel.linear})

    # -- evaluation -------------------------------------------------------

    def __call__(self, x, x2):
        """K(x, x'); broadcasts over numpy arrays for built-ins.  A stationary
        kernel's chain runs in place in its fresh difference array, if any."""
        if self.kind in (KernelKind.SOBOLEV, KernelKind.GAUSSIAN):
            d = np.subtract(x, x2)
            return self.of_difference(d, out=d if d.ndim else None)
        if self.kind is KernelKind.LINEAR:
            return np.add(np.multiply(x, x2), self.offset)
        return self.func(x, x2)

    def of_difference(self, d, out=None):
        """A stationary kernel as a function of d = x - x'.  Gaussian's
        (d*d)/-(2w^2) is -(d*d)/(2w^2) bit for bit, as IEEE division is exact
        in the sign.  Sobolev keeps abs and negative: numpy's copysign, one
        pass for both, took twice their time (1.07 against 0.52 ns/entry)."""
        if self.kind is KernelKind.SOBOLEV:
            k = np.negative(np.abs(d, out), out)
            return np.multiply(np.exp(k, out), 0.5, out)
        k = np.multiply(d, d, out)
        return np.exp(np.divide(k, -(2 * self.width ** 2), out), out)

    def row(self, x, points) -> np.ndarray:
        """K(x, p) for each point: broadcast for a built-in kernel, point by
        point for a custom one.  Each point-sum is ordered_dot of a row."""
        if self.kind is KernelKind.CUSTOM:
            return np.array([float(self(x, p)) for p in points])
        return np.asarray(self(x, points))

    def sums(self, xs, points, w) -> np.ndarray:
        """ordered_dot(row(x, points), w) for each x in xs, with the bits of
        a call at that x alone.  A custom kernel takes each x as one opaque
        point; a built-in kernel's rows go to the 2-D ordered_dot in blocks
        of about 2^17 entries (1 MiB), so memory stays O(len(points))."""
        if self.kind is KernelKind.CUSTOM:
            return np.array([ordered_dot(self.row(x, points), w) for x in xs])
        col = np.asarray(xs, dtype=float).reshape(-1, 1)
        points = np.asarray(points, dtype=float)
        step = max(1, (1 << 17) // max(len(points), 1))
        out = np.empty(len(col))
        for i in range(0, len(col), step):
            out[i:i + step] = ordered_dot(self.row(col[i:i + step], points), w)
        return out

    def diag(self, x):
        """K(x, x); the stationary kernels' is their value at 0, exactly."""
        if self.kind in (KernelKind.SOBOLEV, KernelKind.GAUSSIAN):
            k0 = 0.5 if self.kind is KernelKind.SOBOLEV else 1.0
            return k0 if isinstance(x, float) else np.full(np.shape(x), k0)
        return self(x, x)

    def diags(self, points) -> np.ndarray:
        """K(x, x) at each point; custom kernels are called point by point."""
        if self.kind is KernelKind.CUSTOM:
            return np.array([float(self.diag(x)) for x in points])
        return self.diag(np.asarray(points, dtype=float))

    def quad_parts(self, points, w, w_lo=None) -> tuple:
        """Floats whose exact sum is w @ G @ w, G the Gram matrix of points,
        for w + w_lo (w_lo: zeros); () for no points.  Sobolev and linear are
        closed forms to double-double precision, in O(N log N) time, O(N)
        memory and no BLAS call: linear is (sum w x)^2 + offset (sum w)^2 by
        TwoProduct and Sum2, Sobolev is _sobolev_form.  w, w_lo and the
        linear x and offset are scaled by powers of two, exactly, so that no
        split overflows; a form past the float range is inf.  Gaussian and
        custom kernels give sum_i w_i f(x_i), f = sum_j w_j K(x_j, .) at its
        centres: ordered_dot of w and sums(points, points, w), on w alone
        (w_lo, at most half an ulp of each w, is below its rounding)."""
        w = np.asarray(w, dtype=float)
        if not len(w):
            return ()
        if self.kind in (KernelKind.GAUSSIAN, KernelKind.CUSTOM):
            return (ordered_dot(self.sums(points, points, w), w),)
        x = np.asarray(points, dtype=float)
        w_lo = np.zeros(len(w)) if w_lo is None else np.asarray(w_lo, float)
        kw = _scale(w)
        if self.kind is KernelKind.SOBOLEV:
            return _unscaled(*_sobolev_form(x, np.ldexp(w, -kw),
                                            np.ldexp(w_lo, -kw)), 2 * kw)
        w, w_lo = np.ldexp(w, -kw), np.ldexp(w_lo, -kw)
        kx, ko = _scale(x), _scale(self.offset)
        x = np.ldexp(x, -kx)
        p, t = _two_prod(w, x)
        wx = _square(*_dd_total(p, t + w_lo * x))
        hi, lo = _square(*_dd_total(w, w_lo))
        offset = math.ldexp(self.offset, -ko)
        p, t = _two_prod(hi, offset)
        return (*_unscaled(*wx, 2 * (kw + kx)),
                *_unscaled(p, t + lo * offset, 2 * kw + ko))

    def quad_form(self, points, w) -> float:
        """w @ G @ w, G the points' Gram matrix: quad_parts, rounded once."""
        return rounded_sum(self.quad_parts(points, w))


@dataclass(frozen=True)
class KernelExpansion:
    """Finite kernel expansion sum_i w_i K(z_i, .) in the kernel's RKHS."""

    centers: tuple
    weights: tuple
    kernel: Kernel

    @staticmethod
    def build(centers, weights, kernel: Kernel) -> "KernelExpansion":
        centers = tuple(centers) if kernel.kind is KernelKind.CUSTOM else \
            tuple(json_float("centers", z) for z in centers)
        weights = tuple(json_float("weights", w) for w in weights)
        if len(centers) != len(weights):
            raise KernelError("centers and weights must have equal length")
        return KernelExpansion(centers, weights, kernel)

    @staticmethod
    def from_json(doc, kernel: Kernel) -> "KernelExpansion":
        check_keys(doc, "centers", "weights")
        return KernelExpansion.build(doc["centers"], doc["weights"], kernel)

    @functools.cached_property
    def arrays(self) -> tuple:
        """(centers, weights) as read-only arrays, converted once; a custom
        kernel's centres stay its tuple of opaque points."""
        custom = self.kernel.kind is KernelKind.CUSTOM
        zs = self.centers if custom else np.array(self.centers, float)
        w = np.array(self.weights, float)
        for arr in (w,) if custom else (zs, w):
            arr.flags.writeable = False
        return zs, w

    @functools.cached_property
    def _norm(self) -> float:
        with np.errstate(over="ignore", invalid="ignore"):
            quad = self.kernel.quad_form(self.centers, self.weights)
        if quad < PSD_TOL:
            raise KernelError(
                f"negative quadratic form {quad}: kernel is not PSD")
        if not quad < math.inf:  # NaN too
            raise KernelError(f"squared norm w'Gw = {quad} is not finite")
        return math.sqrt(max(quad, 0.0))

    def __call__(self, x):
        """f(x) = ordered_dot(Kernel.row(x, centers), weights).  A custom
        kernel's x is one opaque point.  At a float array, a built-in
        kernel's entries are Kernel.sums, each with the bits of a call at
        that x alone."""
        zs, w = self.arrays
        if self.kernel.kind is KernelKind.CUSTOM or np.ndim(x) == 0:
            return ordered_dot(self.kernel.row(x, zs), w)
        xs = np.asarray(x, dtype=float)
        return self.kernel.sums(xs, zs, w).reshape(xs.shape)

    def norm(self) -> float:
        """RKHS norm sqrt(w' G w) of the expansion, computed once."""
        return self._norm

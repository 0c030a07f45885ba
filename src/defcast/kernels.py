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
import threading
from dataclasses import dataclass
from enum import Enum
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
            k = np.negative(np.abs(d, out=out), out=out)
            return np.multiply(np.exp(k, out=out), 0.5, out=out)
        k = np.multiply(d, d, out=out)
        return np.exp(np.divide(k, -(2 * self.width ** 2), out=out), out=out)

    def row(self, x, points) -> np.ndarray:
        """K(x, p) for each point: broadcast for a built-in kernel, point by
        point for a custom one.  Each point-sum is ordered_dot of a row."""
        if self.kind is KernelKind.CUSTOM:
            return np.array([float(self(x, p)) for p in points])
        return np.asarray(self(x, points))

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

    def gram(self, points) -> np.ndarray:
        """Gram matrix of a nonempty point list."""
        pts = list(points)
        if not pts:
            raise KernelError("gram needs at least one point")
        if self.kind is KernelKind.CUSTOM:
            n = len(pts)
            g = np.empty((n, n))
            for i in range(n):
                for j in range(i, n):
                    g[i, j] = g[j, i] = float(self.func(pts[i], pts[j]))
            return g
        xs = np.asarray(pts, dtype=float)
        return np.asarray(self(xs[:, None], xs[None, :]))

    def _slab(self, pts, j, k, out):
        """Gram columns j:k, written into `out`.  A custom entry is gram's,
        func(pts[min(i, c)], pts[max(i, c)]).  Built-in points come as rows
        [x_i, 1], and one k = 2 GEMM fills the slab: [x_i, 1] @ [1, -x_c] is
        x_i - x_c rounded once, as subtract rounds it, and [x_i, 1] @ [x_c, 0]
        is x_i * x_c, as multiply rounds it.  Only the sign of a zero can
        differ, and |d|, d*d and +offset drop it."""
        if self.kind is KernelKind.CUSTOM:
            out[:] = [[float(self.func(pts[min(i, c)], pts[max(i, c)]))
                       for c in range(j, k)] for i in range(len(pts))]
            return out
        xc = pts[j:k, 0]
        if self.kind is KernelKind.LINEAR:
            prod = np.matmul(pts, np.stack((xc, np.zeros(k - j))), out=out)
            return np.add(prod, self.offset, out=out)
        d = np.matmul(pts, np.stack((np.ones(k - j), np.negative(xc))), out=out)
        return self.of_difference(d, out=out)

    def quad_form(self, points, w) -> float:
        """w @ gram(points) @ w in O(N) memory, one Gram column slab at a time.

        Each slab is written in place, as a C-contiguous (n, m) view of one
        buffer allocated here: a fresh slab's layout.  A built-in kernel's
        full slabs run on two workers, this thread and one other; each takes
        every other half-width slab into its own half of the buffer, so the
        memory is one slab's.  Custom kernels, which hold the GIL and need
        not be thread-safe, run here alone, as does a final partial slab, in
        the whole buffer.  OpenBLAS sums the last (width mod 4) entries of
        each thread's share of w @ slab another way, so the bits are gram's
        when N <= 8192 is a multiple of 4 per BLAS thread (v @ w is summed
        by ordered_dot); otherwise the last bits can differ.  Half and full
        widths are multiples of 4, so the two workers give the bits of one.
        """
        w, n = np.asarray(w, dtype=float), len(points)
        # about 1 MiB, in multiples of 32 columns: 4 per thread, up to 8 threads
        width = 32 * max(1, 4096 // max(n, 1))
        buf, v = np.empty(n * min(width, n)), np.empty(n)
        if self.kind is KernelKind.CUSTOM:
            pts, full = list(points), 0
        else:  # full: the columns in full slabs, which two workers share
            pts = np.column_stack((np.asarray(points, float), np.ones(n)))
            full = n - n % width
        if full:
            half, halves = width // 2, buf.reshape(2, n, width // 2)
            errors, err, call = [], np.geterr(), np.geterrcall()

            def fill(first, out):
                for j in range(first, full, width):
                    v[j:j + half] = w @ self._slab(pts, j, j + half, out)

            def worker():
                try:  # numpy's error state is per thread: take the caller's
                    with np.errstate(call=call, **err):
                        fill(half, halves[1])
                except BaseException as exc:
                    errors.append(exc)

            thread = threading.Thread(target=worker)
            thread.start()
            try:
                fill(0, halves[0])
            finally:
                thread.join()
            if errors:
                raise errors[0]
        for j in range(full, n, width):
            k = min(j + width, n)
            v[j:k] = w @ self._slab(pts, j, k, buf[:n * (k - j)]
                                    .reshape(n, k - j))
        return ordered_dot(v, w)


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
    def zero(kernel: Kernel) -> "KernelExpansion":
        return KernelExpansion((), (), kernel)

    @staticmethod
    def from_json(doc, kernel: Kernel) -> "KernelExpansion":
        check_keys(doc, "centers", "weights")
        return KernelExpansion.build(doc["centers"], doc["weights"], kernel)

    @functools.cached_property
    def _arrays(self) -> tuple:
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
        kernel's rows go to ordered_dot in 1 MiB blocks, so each entry has
        the bits of a call at that x alone."""
        zs, w = self._arrays
        if self.kernel.kind is KernelKind.CUSTOM or np.ndim(x) == 0:
            return ordered_dot(self.kernel.row(x, zs), w)
        xs = np.asarray(x, dtype=float)
        col, step = xs.reshape(-1, 1), max(1, (1 << 17) // max(len(zs), 1))
        out = np.empty(len(col))
        for i in range(0, len(col), step):  # blocks of about 2^17 entries
            rows = self.kernel.row(col[i:i + step], zs)
            out[i:i + step] = ordered_dot(rows, w)
        return out.reshape(xs.shape)

    def norm(self) -> float:
        """RKHS norm sqrt(w' G w) of the expansion, computed once."""
        return self._norm

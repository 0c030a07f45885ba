"""Kernels on the data space, Gram matrices, and finite-expansion norms.

Built-in kernels live on the real line; custom kernels take opaque points
(anything their evaluator accepts).  Hilbert-space norms are computed
through kernel sums only; feature maps are never materialized.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

# Quadratic forms below this are treated as broken kernels, not noise.
PSD_TOL = -1e-8


class KernelError(ValueError):
    """Broken kernel: negative quadratic form or missing data range."""


def check_keys(doc, *keys: str) -> None:
    """Reject a JSON document that is not an object or has keys other than
    `keys`, as a call rejects an unexpected keyword argument: a misspelt key
    is not silently ignored."""
    if not isinstance(doc, dict):
        raise TypeError(f"a JSON object expected, got {type(doc).__name__}")
    unknown = sorted(set(doc) - set(keys))
    if unknown:
        what = f"kind {doc['kind']!r}" if "kind" in doc else "this document"
        raise TypeError(f"{what} takes no key(s) {', '.join(unknown)}")


def json_doc(doc):
    """A document given parsed or as JSON text; other text is a bare name."""
    try:
        return json.loads(doc) if isinstance(doc, str) else doc
    except json.JSONDecodeError:
        return doc


def json_float(key: str, value) -> float:
    """A finite number in field `key`; float() would also take a string or
    a bool, and json.load reads NaN and Infinity."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) \
            or not math.isfinite(value):
        raise TypeError(f"{key}: a finite number expected, got {value!r}")
    return float(value)


class KernelKind(Enum):
    SOBOLEV = "sobolev"
    GAUSSIAN = "gaussian"
    LINEAR = "linear"
    CUSTOM = "custom"


@dataclass(frozen=True)
class Kernel:
    """Symmetric positive-definite function on the data space.

    `data_range` declares a compact |x| <= r on which the diagonal sup is
    taken for kernels whose diagonal is unbounded on the whole line.
    """

    kind: KernelKind
    width: float = 1.0
    offset: float = 0.0
    func: Callable | None = None
    data_range: float | None = None

    @staticmethod
    def sobolev() -> "Kernel":
        return Kernel(KernelKind.SOBOLEV)

    @staticmethod
    def gaussian(width: float) -> "Kernel":
        if width <= 0:
            raise KernelError("gaussian width must be positive")
        return Kernel(KernelKind.GAUSSIAN, width=width)

    @staticmethod
    def linear(offset: float = 0.0, data_range: float | None = None) -> "Kernel":
        if offset < 0:
            raise KernelError("linear offset must be nonnegative")
        return Kernel(KernelKind.LINEAR, offset=offset, data_range=data_range)

    @staticmethod
    def custom(func: Callable, data_range: float | None = None) -> "Kernel":
        return Kernel(KernelKind.CUSTOM, func=func, data_range=data_range)

    @staticmethod
    def from_json(doc) -> "Kernel":
        """Build a kernel from a JSON document, a parsed object or a name."""
        doc = json_doc(doc)
        if isinstance(doc, str):  # a name, bare or a JSON string
            doc = {"kind": doc}
        kind = doc["kind"]
        if kind == "sobolev":
            check_keys(doc, "kind")
            return Kernel.sobolev()
        if kind == "gaussian":
            check_keys(doc, "kind", "width")
            return Kernel.gaussian(json_float("width", doc.get("width", 1.0)))
        if kind == "linear":
            check_keys(doc, "kind", "offset", "range")
            rng = doc.get("range")
            return Kernel.linear(
                json_float("offset", doc.get("offset", 0.0)),
                None if rng is None else json_float("range", rng))
        raise KernelError(f"unknown kernel {kind!r}")

    # -- evaluation -------------------------------------------------------

    def __call__(self, x, x2, out=None):
        """K(x, x'); broadcasts over numpy arrays for built-ins, which write
        into `out` when one is given: each ufunc of the chain passes it on."""
        if self.kind is KernelKind.SOBOLEV:
            k = np.abs(np.subtract(x, x2, out=out), out=out)
            k = np.exp(np.negative(k, out=out), out=out)
            return np.multiply(k, 0.5, out=out)
        if self.kind is KernelKind.GAUSSIAN:
            d = np.subtract(x, x2, out=out)
            k = np.negative(np.multiply(d, d, out=out), out=out)  # = (-d)*d
            return np.exp(np.divide(k, 2 * self.width ** 2, out=out), out=out)
        if self.kind is KernelKind.LINEAR:
            return np.add(np.multiply(x, x2, out=out), self.offset, out=out)
        return self.func(x, x2)

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

    def c_f(self) -> float:
        """Sup over the data space of sqrt(K(x, x))."""
        if self.kind is KernelKind.SOBOLEV:
            return 1.0 / math.sqrt(2.0)
        if self.kind is KernelKind.GAUSSIAN:
            return 1.0
        if self.data_range is None:
            return math.inf  # unbounded diagonal, no declared compact range
        r = float(self.data_range)
        grid = np.linspace(-r, r, 10_000)
        diag = self.diags(grid)
        best = int(np.argmax(diag))
        lo = grid[max(best - 1, 0)]
        hi = grid[min(best + 1, len(grid) - 1)]
        fine = np.linspace(lo, hi, 1_000)
        vals = self.diags(fine)
        return math.sqrt(max(float(diag[best]), float(vals.max())))

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

    def quad_form(self, points, w) -> float:
        """w @ gram(points) @ w in O(N) memory, one Gram column slab at a time.

        A built-in kernel writes each slab in place, as a C-contiguous (n, m)
        view of one reused buffer: a fresh slab's layout.  Custom slab entries
        are gram's: func(pts[min(i,j)], pts[max(i,j)]).  OpenBLAS sums the last
        (width mod 4) entries of each thread's share of w @ slab another way,
        so the bits are gram's when N is a multiple of 4 per BLAS thread;
        otherwise the last bits can differ.
        """
        pts = list(points)
        w, n = np.asarray(w, dtype=float), len(pts)
        xs = None if self.kind is KernelKind.CUSTOM else np.asarray(pts, float)
        # about 1 MiB, in multiples of 32 columns: 4 per thread, up to 8 threads
        width = 32 * max(1, 4096 // max(n, 1))
        buf, v = np.empty(n * min(width, n)), np.empty(n)
        for j in range(0, n, width):
            k = min(j + width, n)
            slab = self(xs[:, None], xs[None, j:k], out=buf[:n * (k - j)]
                        .reshape(n, k - j)) if xs is not None else [
                [float(self.func(pts[min(i, c)], pts[max(i, c)]))
                 for c in range(j, k)] for i in range(n)]
            v[j:k] = w @ np.asarray(slab)
        return float(v @ w)


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

    def __call__(self, x):
        """Evaluate at x; broadcasts over arrays for built-in kernels."""
        if not self.centers:
            return np.zeros_like(np.asarray(x, dtype=float)) \
                if np.ndim(x) else 0.0
        w = np.asarray(self.weights)
        if self.kernel.kind is KernelKind.CUSTOM:
            return float(sum(wi * float(self.kernel.func(zi, x))
                             for wi, zi in zip(w, self.centers)))
        zs = np.asarray(self.centers, dtype=float)
        xs = np.asarray(x, dtype=float)
        vals = self.kernel(zs, xs[..., None]) @ w
        return float(vals) if np.ndim(x) == 0 else vals

    def norm(self) -> float:
        """RKHS norm sqrt(w' G w) of the expansion."""
        quad = self.kernel.quad_form(self.centers, self.weights)
        if quad < PSD_TOL:
            raise KernelError(
                f"negative quadratic form {quad}: kernel is not PSD")
        return math.sqrt(max(quad, 0.0))

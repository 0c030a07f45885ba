"""Reference quadratic forms w' K w of the Sobolev and linear kernels.

Independent of defcast.kernels, in the standard library only: the linear
form in exact fractions, the Sobolev form in 50-digit decimals.  Each x
and w is taken exactly, as a float or a Fraction (an exact residual
y - p, say).  Each function also returns the scale that a rounded
computation's error is measured in, sum_ij |w_i| |K_ij| |w_j| (for the
linear kernel, the bound sum_ij |w_i| |w_j| (|x_i x_j| + offset)).
"""

from __future__ import annotations

from decimal import Context, Decimal, localcontext
from fractions import Fraction

# every operation below rounds to 50 digits
DIGITS = Context(prec=50)
# exp(-gap) below exp(-10^4) is taken as 0, which is below 2^-14000 of the
# scale of any test here
FAR = 10_000


def _dec(v) -> Decimal:
    """v, a float or a Fraction, to 50 digits (a float converts exactly)."""
    if isinstance(v, Fraction):
        return Decimal(v.numerator) / Decimal(v.denominator)
    return +Decimal(v)


def sobolev(xs, ws) -> tuple[Decimal, Decimal]:
    """(sum_ij w_i w_j exp(-|x_i - x_j|) / 2, its scale).  Over the points
    sorted by x, the pairs j < i add L_i = sum_{j<i} w_j exp(-(x_i - x_j)),
    and L_i = exp(-(x_i - x_{i-1})) (L_{i-1} + w_{i-1}) exactly."""
    with localcontext(DIGITS):
        pts = sorted(zip(map(_dec, xs), map(_dec, ws)))
        form = scale = signed = absolute = Decimal(0)  # L_i over w, |w|
        for i, (x, w) in enumerate(pts):
            if i:
                x0, w0 = pts[i - 1]
                f = Decimal(0) if x - x0 > FAR else (x0 - x).exp()
                signed, absolute = f * (signed + w0), f * (absolute + abs(w0))
            form += w * (w / 2 + signed)
            scale += abs(w) * (abs(w) / 2 + absolute)
        return form, scale


def sobolev_direct(xs, ws) -> Decimal:
    """The Sobolev form as its N^2 terms, for small N."""
    with localcontext(DIGITS):
        pts = [(_dec(x), _dec(w)) for x, w in zip(xs, ws)]
        return sum((wi * wj * (-abs(xi - xj)).exp() / 2
                    for xi, wi in pts for xj, wj in pts), Decimal(0))


def linear(xs, ws, offset: float) -> tuple[Fraction, Fraction]:
    """((sum w x)^2 + offset (sum w)^2, (sum |w x|)^2 + offset (sum |w|)^2),
    exactly."""
    xs, ws, k = list(map(Fraction, xs)), list(map(Fraction, ws)), \
        Fraction(offset)
    wx = sum((w * x for w, x in zip(ws, xs)), Fraction(0))
    w1 = sum(ws, Fraction(0))
    awx = sum((abs(w * x) for w, x in zip(ws, xs)), Fraction(0))
    aw = sum(map(abs, ws), Fraction(0))
    return wx * wx + k * w1 * w1, awx * awx + k * aw * aw

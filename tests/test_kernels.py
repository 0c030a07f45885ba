"""Kernels, Gram matrices, and finite-expansion RKHS norms."""

import json
import math
import os
import subprocess
import sys
import threading
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import defcast
from defcast.kernels import (Kernel, KernelError, KernelExpansion, ordered_dot,
                             rounded_sum)
import quad_reference
import reference

SOB = Kernel.sobolev()
LN2 = math.log(2)
U = 2.0 ** -53  # the unit roundoff

points_strategy = st.lists(
    st.floats(min_value=-3.0, max_value=3.0), min_size=1, max_size=64)


# -- evaluation -----------------------------------------------------------

def test_eval_values():
    assert SOB(0.0, 0.0) == 0.5
    assert SOB(0.0, LN2) == pytest.approx(0.25, abs=1e-15)
    assert Kernel.gaussian(1.0)(0.0, 0.0) == 1.0
    assert Kernel.linear(offset=0.5)(2.0, 3.0) == 6.5


def test_eval_broadcasts():
    xs = np.array([0.0, 1.0, -1.0])
    vals = SOB(0.0, xs)
    assert vals.shape == (3,)
    assert vals[0] == 0.5
    assert vals[1] == vals[2] == pytest.approx(0.5 * math.exp(-1), abs=1e-15)


def test_symmetry():
    rng = np.random.default_rng(0)
    for k in (SOB, Kernel.gaussian(0.7), Kernel.linear(offset=0.3)):
        for _ in range(20):
            a, b = rng.uniform(-2, 2, 2)
            assert float(k(a, b)) == pytest.approx(float(k(b, a)), abs=1e-15)


def test_custom_kernel_eval():
    k = Kernel.custom(lambda a, b: min(a, b) + 1.0, c_f=math.sqrt(2.0))
    assert k(0.25, 0.75) == 1.25


# -- diagonal sup ---------------------------------------------------------

def test_c_f_values():
    assert SOB.c_f == pytest.approx(1.0 / math.sqrt(2), abs=1e-15)
    assert Kernel.gaussian(0.1).c_f == 1.0
    assert Kernel.linear(range=2.0).c_f == pytest.approx(2.0, abs=1e-6)
    # the linear diagonal x^2 + offset peaks at |x| = range: a closed form
    assert Kernel.linear(1.0, 2.0).c_f == math.sqrt(5.0)
    # a custom kernel's points are opaque: it declares its sup
    custom = Kernel.custom(lambda a, b: a * b + 1.0, c_f=math.sqrt(5.0))
    assert custom.c_f == math.sqrt(5.0)


def test_c_f_unbounded_without_range():
    assert math.isinf(Kernel.linear().c_f)
    assert math.isinf(Kernel.custom(lambda a, b: a * b).c_f)


def test_c_f_squared_is_the_sobolev_diagonal():
    for x in np.linspace(-5, 5, 11):
        assert SOB.c_f ** 2 == pytest.approx(float(SOB.diag(x)), abs=1e-12)


def test_constructor_validation():
    with pytest.raises(KernelError):
        Kernel.gaussian(0.0)
    with pytest.raises(KernelError):
        Kernel.linear(offset=-1.0)


@pytest.mark.parametrize("c_f", [0.0, -0.0, -1.0, -math.inf, math.nan])
def test_custom_c_f_is_positive(c_f):
    with pytest.raises(KernelError, match="c_f"):
        Kernel.custom(lambda a, b: 1.0, c_f=c_f)


@pytest.mark.parametrize("value", [0.0, -0.0, -1.0, 1e-300, 1e155, 1e160,
                                   1e300])
def test_gaussian_width_is_positive_with_a_finite_2w2(value):
    # 1e160 squares past the float range, 1e-300 to 0: both once made a run
    # fail, by an OverflowError or by a NaN diagonal in the certificate
    for make in (lambda: Kernel.gaussian(value),
                 lambda: Kernel.from_json({"kind": "gaussian",
                                           "width": value})):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(KernelError, match="width"):
                make()


def test_gaussian_width_near_the_float_limits_runs():
    for width in (1e-150, 1e150):
        k = Kernel.gaussian(width)
        assert float(k(0.0, 0.0)) == 1.0 and float(k(0.0, 1.0)) >= 0.0


@pytest.mark.parametrize("value", [0.0, -0.0, -1.0, 1e155, 1e308])
def test_linear_range_is_positive_with_a_finite_square(value):
    # 1e308 squares to inf: the error comes before any numpy overflow warning
    for make in (lambda: Kernel.linear(range=value),
                 lambda: Kernel.from_json({"kind": "linear", "range": value})):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(KernelError, match="range"):
                make()


# -- Gram matrices --------------------------------------------------------

def test_gram_values():
    assert np.allclose(reference.gram(SOB, [0.0]), [[0.5]])
    g = reference.gram(SOB, [0.0, LN2])
    assert np.allclose(g, [[0.5, 0.25], [0.25, 0.5]], atol=1e-15)


def test_gram_permutation():
    pts = [0.3, -1.2, 0.8, 2.5]
    perm = [2, 0, 3, 1]
    g = reference.gram(SOB, pts)
    gp = reference.gram(SOB, [pts[i] for i in perm])
    assert np.allclose(gp, g[np.ix_(perm, perm)])


def test_gram_empty_rejected():
    with pytest.raises(KernelError):
        reference.gram(SOB, [])


@settings(max_examples=40, deadline=None)
@given(points_strategy)
def test_gram_psd_sobolev(pts):
    eig = np.linalg.eigvalsh(reference.gram(SOB, pts))
    assert eig.min() >= -1e-8


@settings(max_examples=40, deadline=None)
@given(points_strategy)
def test_gram_psd_gaussian(pts):
    eig = np.linalg.eigvalsh(reference.gram(Kernel.gaussian(0.5), pts))
    assert eig.min() >= -1e-8


@settings(max_examples=40, deadline=None)
@given(points_strategy)
def test_gram_psd_linear(pts):
    eig = np.linalg.eigvalsh(reference.gram(Kernel.linear(offset=1.0), pts))
    assert eig.min() >= -1e-8


# -- expansions -----------------------------------------------------------

def test_norm_values():
    assert KernelExpansion((), (), SOB).norm() == 0.0
    assert KernelExpansion.build([0.0], [0.0], SOB).norm() == 0.0
    assert KernelExpansion.build([0.0], [1.0], SOB).norm() == pytest.approx(
        math.sqrt(0.5), abs=1e-15)
    e = KernelExpansion.build([0.0, LN2], [1.0, -1.0], SOB)
    assert e.norm() == pytest.approx(math.sqrt(0.5), abs=1e-12)


def test_eval_expansion_values():
    zero = KernelExpansion.build([0.0, 1.0], [0.0, 0.0], SOB)
    assert zero(0.37) == 0.0
    single = KernelExpansion.build([0.7], [1.0], SOB)
    assert single(0.7) == 0.5
    e = KernelExpansion.build([0.0, 1.0], [2.0, -1.0], SOB)
    assert e(0.0) == pytest.approx(1.0 - 0.5 * math.exp(-1), abs=1e-12)
    assert e(0.0) == pytest.approx(0.816060, abs=1e-6)


def test_eval_expansion_broadcasts():
    e = KernelExpansion.build([0.0, 1.0], [2.0, -1.0], SOB)
    xs = np.array([0.0, 1.0])
    vals = e(xs)
    assert vals.shape == (2,)
    assert vals[0] == pytest.approx(e(0.0), abs=1e-15)
    assert vals[1] == pytest.approx(e(1.0), abs=1e-15)


@pytest.mark.parametrize(
    "kernel", [SOB, Kernel.gaussian(0.7), Kernel.linear()],
    ids=["sobolev", "gaussian", "linear"])
def test_expansion_column_call_has_the_bits_of_per_point_calls(kernel):
    # under the default BLAS thread count, signs of zero included: a gemv
    # over the column sums in another order.  9,000 centres take two
    # ordered_dot slices; at 0.7 ms a call, every 5th x is called alone
    rng = np.random.default_rng(19)
    xs = np.concatenate([[1.0, -1.0, 0.0, -0.0], rng.uniform(-3, 3, 5000)])
    for m in (0, 1, 2, 7, 64, 9000):
        f = KernelExpansion.build(rng.uniform(-2, 2, m), rng.normal(size=m),
                                  kernel)
        col = f(xs)
        assert col.shape == xs.shape
        at = np.arange(len(xs))[::5 if m > 64 else 1]
        at = np.union1d(at, [0, 1, 2, 3])
        each = np.array([f(x) for x in xs[at].tolist()])
        assert col[at].tobytes() == each.tobytes(), m
        assert f(xs[:6].reshape(2, 3)).tobytes() == col[:6].tobytes()


def test_custom_expansion_is_ordered_dot_of_its_row():
    # opaque string points; 9,000 centres take two ordered_dot slices
    k = Kernel.custom(lambda a, b: 1.0 / (1.0 + abs(len(a) - len(b))))
    rng = np.random.default_rng(23)
    centers = ["a" * n for n in rng.integers(0, 40, 9000).tolist()]
    weights = rng.normal(size=9000)
    f = KernelExpansion.build(centers, weights, k)
    for x in ("", "abc", "z" * 25):
        row = k.row(x, centers)
        assert row.tolist() == [k(x, z) for z in centers]
        assert f(x) == ordered_dot(row, weights)


def test_custom_kernel_expansion_is_its_weighted_sum():
    # opaque points: K(a, b) = 1 + len(a) len(b)
    k = Kernel.custom(lambda a, b: 1.0 + len(a) * len(b))
    e = KernelExpansion.build(["ab", "c"], [0.5, -2.0], k)
    assert e("xyz") == 0.5 * (1.0 + 2 * 3) - 2.0 * (1.0 + 1 * 3)
    assert KernelExpansion((), (), k)("xyz") == 0.0


def test_build_length_mismatch():
    with pytest.raises(KernelError):
        KernelExpansion.build([0.0, 1.0], [1.0], SOB)


def test_reproducing_consistency():
    # f(x) equals the Gram bilinear form of f against the evaluator at x
    rng = np.random.default_rng(7)
    for _ in range(25):
        m = int(rng.integers(1, 6))
        centers = rng.uniform(-2, 2, m)
        weights = rng.normal(size=m)
        f = KernelExpansion.build(centers, weights, SOB)
        x = float(rng.uniform(-2, 2))
        g = reference.gram(SOB, list(centers) + [x])
        inner = float(weights @ g[:m, m])
        assert f(x) == pytest.approx(inner, abs=1e-10)


def test_cauchy_schwarz():
    rng = np.random.default_rng(8)
    for _ in range(25):
        m = int(rng.integers(1, 6))
        f = KernelExpansion.build(rng.uniform(-2, 2, m),
                                  rng.normal(size=m), SOB)
        x = float(rng.uniform(-3, 3))
        assert abs(f(x)) <= f.norm() * math.sqrt(float(SOB.diag(x))) + 1e-10


def test_non_psd_custom_kernel_detected():
    bad = Kernel.custom(lambda a, b: -1.0 if a != b else 0.0)
    e = KernelExpansion.build([0.0, 1.0], [1.0, 1.0], bad)
    with pytest.raises(KernelError):
        e.norm()


def test_norm_runs_its_quadratic_form_once():
    calls = []

    def laplace(a, b):
        calls.append((a, b))
        return 0.5 * math.exp(-abs(a - b))

    f = KernelExpansion.build([0.0, 1.0], [0.5, -0.25], Kernel.custom(laplace))
    norm = f.norm()
    made = len(calls)
    assert made and f.norm() == norm and len(calls) == made


# -- quadratic form -------------------------------------------------------

# A custom evaluator whose value depends on argument order, so that an
# entry evaluated as func(x_j, x_i) instead of the point sum's func(x_i, x_j)
# shows.  quad_form only has to reproduce the point sum here, so the
# evaluator need not be a kernel.
ORDERED = Kernel.custom(lambda a, b: 0.5 * math.exp(-abs(a - b)) + 1e-6 * a)
QUAD_KERNELS = {"sobolev": SOB, "gaussian": Kernel.gaussian(0.5),
                "linear": Kernel.linear(offset=0.7), "custom": ORDERED}
GAUSS = QUAD_KERNELS["gaussian"]
# the kinds whose quad_parts is a closed form, not the point sum
CLOSED_FORMS = {"sobolev", "linear"}
# N = 1 and 40 fit one block of rows of Kernel.sums (about 2^17 entries);
# the built-in kernels' other N take 31 to 131 rows a block and end on a
# partial one
QUAD_SIZES = {name: [1, 40, 1000, 1004, 4100, 4128]
              for name in ("sobolev", "gaussian", "linear")}
QUAD_SIZES["custom"] = [1, 40, 400, 404]
UNALIGNED_SIZES = [3, 999, 1001, 1003, 4099]
CUSTOM_UNALIGNED_SIZES = [3, 401, 403]


def quad_case(name, n):
    rng = np.random.default_rng(n)
    return QUAD_KERNELS[name], rng.uniform(-2, 2, n), rng.normal(size=n)


def point_sum_matrix(kernel, xs) -> np.ndarray:
    """The matrix whose rows the point sum reads: gram for a stationary
    kernel, whose rows have Kernel.row's bits, and func(x_i, x_j), in that
    order, for every (i, j) for a custom one (gram evaluates i <= j)."""
    if kernel.kind.value != "custom":
        return reference.gram(kernel, xs)
    return np.array([[float(kernel.func(a, b)) for b in xs] for a in xs])


def point_sum_reference(kernel, xs, w) -> float:
    """w @ G @ w by the point-sum rule: ordered_dot(ordered_dot(G, w), w)."""
    return ordered_dot(ordered_dot(point_sum_matrix(kernel, xs), w), w)


def quad_form_mismatches(cases) -> list:
    """The (kernel, N) cases where quad_form differs from the point sum."""
    bad = []
    for name, n in cases:
        kernel, xs, w = quad_case(name, n)
        if kernel.quad_form(xs, w) != point_sum_reference(kernel, xs, w):
            bad.append([name, n])
    return bad


def reference_error(kernel, xs, w) -> float:
    """|quad_form - reference| in units of u * the reference's scale,
    sum_ij |w_i| |K_ij| |w_j| (tests/quad_reference.py)."""
    got = kernel.quad_form(xs, w)
    if kernel.kind.value == "sobolev":
        ref, scale = quad_reference.sobolev(xs, w)
        ref, scale = Fraction(ref), Fraction(scale)
    else:
        ref, scale = quad_reference.linear(xs, w, kernel.offset)
    if ref >= 2 ** 1024:  # past the float range
        return 0.0 if got == math.inf else math.inf
    if not scale:  # all weights 0
        return abs(got) / U
    return float(abs(Fraction(got) - ref) / (scale * Fraction(U)))


def quad_form_at_benchmark_sizes(sizes) -> dict:
    """Per (kernel, N): whether quad_form is right (the point sum's bits for
    the Gaussian, its rows summed one at a time so that the reference needs
    no Gram; within REFERENCE_BOUND for a closed form), and the peak of the
    memory numpy allocated during the quad_form call."""
    import tracemalloc
    out = {}
    for name in ("sobolev", "gaussian", "linear"):
        for n in sizes:
            kernel, xs, w = quad_case(name, n)
            tracemalloc.start()
            got = kernel.quad_form(xs, w)
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            ok = reference_error(kernel, xs.tolist(), w.tolist()) \
                <= REFERENCE_BOUND if name in CLOSED_FORMS \
                else got == ordered_dot(np.array(
                    [ordered_dot(kernel(x, xs), w) for x in xs]), w)
            out[f"{name}-{n}"] = [ok, peak]
    return out


def run_single_threaded(expr: str):
    """json of `expr` over this module as `t`, in a one-BLAS-thread process."""
    code = f"import json, test_kernels as t; print(json.dumps({expr}))"
    paths = [str(Path(defcast.__file__).parents[1]), str(Path(__file__).parent)]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(paths))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=300)
    return json.loads(out.stdout)


def test_quad_form_has_the_slab_loop_bits_at_benchmark_sizes():
    # N = 4000 and 6000 are benchmark horizons; 4000 ends on a full block of
    # rows, 6001 on a 16-row one.  The Gaussian's blocks must not move a bit
    # of the point sum, the closed forms stay within their reference bound,
    # and every pass stays O(N), below 8 * 32 * N + 128 * N bytes: one block
    # of rows (at most 1 MiB; the Gram is 288 MB at N = 6001) plus O(1) per
    # point
    sizes = [4000, 6001]
    result = run_single_threaded(f"t.quad_form_at_benchmark_sizes({sizes})")
    assert {case: same for case, (same, _) in result.items()} == {
        f"{name}-{n}": True for name in ("sobolev", "gaussian", "linear")
        for n in sizes}
    for case, (_, peak) in result.items():
        n = int(case.split("-")[1])
        assert peak < 8 * 32 * n + 128 * n, case


def test_quad_form_has_the_gram_bits_when_n_is_a_multiple_of_4():
    # the point sum's bits at any N (the multiples of 4 and the others)
    # and under the default BLAS thread count: ordered_dot's slices run on
    # one BLAS thread.  The closed forms are held to the reference instead
    cases = [(name, n) for name in ("gaussian", "custom")
             for n in QUAD_SIZES[name] + (UNALIGNED_SIZES if name != "custom"
                                          else CUSTOM_UNALIGNED_SIZES)]
    assert quad_form_mismatches(cases) == []


@pytest.mark.parametrize("name", sorted(QUAD_KERNELS))
def test_quad_form_matches_gram_to_rounding(name):
    # any N and BLAS thread count: within 4 ulps of sum |w_i K_ij w_j|, the
    # size rounding errors of the quadratic form scale with
    sizes = QUAD_SIZES[name] + (UNALIGNED_SIZES if name != "custom"
                                else CUSTOM_UNALIGNED_SIZES)
    for n in sizes:
        kernel, xs, w = quad_case(name, n)
        g = point_sum_matrix(kernel, xs)
        scale = float(np.abs(w) @ np.abs(g) @ np.abs(w))
        assert abs(kernel.quad_form(xs, w) - float(w @ g @ w)) \
            <= 4 * np.spacing(scale), (name, n)


# The closed forms' bound, in units of u * sum_ij |w_i| |K_ij| |w_j|: the
# final rounding is at most 1/2 of it, and numpy's exp and the sums add
# the rest.  The cases below reach 0.78.
REFERENCE_BOUND = 2.0


def reference_cases():
    """(id, xs, ws) lists for the closed forms' reference test."""
    rng = np.random.default_rng(29)
    yield "n0", [], []
    yield "n1", [0.3], [-1.7]
    yield "n2", [-0.25, 2.0], [0.5, 0.75]
    yield "n2-cancel", [1.0, 1.0], [1.0, -1.0]
    yield "ties", np.round(rng.uniform(-2, 2, 200), 1).tolist(), \
        rng.normal(size=200).tolist()
    yield "n1000", rng.uniform(-3, 3, 1000).tolist(), \
        rng.normal(size=1000).tolist()
    yield "residuals", rng.uniform(-1, 1, 1000).tolist(), \
        rng.uniform(-1, 1, 1000).tolist()
    yield "gaps-over-709", [0.0, 709.5, 1500.25, 0.5, 2300.0], \
        [1.0, -1.0, 2.0, 0.5, -3.0]
    yield "x-1e300", [1e300, -1e300, 5.0, 5.5, -1e300, 1.5e300], \
        [1.0, 2.0, 3.0, -4.0, 0.5, 1.0]
    yield "zero-weights", [0.0, 1.0, 2.0, 3.5], [0.0, 0.0, 0.0, 0.0]
    yield "some-zero-weights", [0.0, 1.0, 2.0, 3.5], [1.0, 0.0, -1.0, 0.0]


@pytest.mark.parametrize("name", ["sobolev", "linear"])
def test_closed_forms_match_the_reference(name):
    # the linear x-1e300 case is past the float range: quad_form is inf;
    # the same points with weights near 1e-150 are not
    kernel = QUAD_KERNELS[name]
    cases = list(reference_cases()) + [
        ("x-1e300-small-weights", [1e300, -1e300, 3e299],
         [1e-150, 2e-150, -3e-150])]
    errors = {case: reference_error(kernel, xs, ws)
              for case, xs, ws in cases}
    assert max(errors.values()) <= REFERENCE_BOUND, errors


def test_closed_form_references_agree_with_their_terms():
    # the Sobolev reference's recursion against its N^2 terms
    for case, xs, ws in reference_cases():
        if len(xs) <= 10:
            fast = quad_reference.sobolev(xs, ws)[0]
            assert abs(fast - quad_reference.sobolev_direct(xs, ws)) \
                <= 1e-45, case


@pytest.mark.parametrize("name, n", [
    ("sobolev", 1), ("sobolev", 40), ("gaussian", 352), ("linear", 1001),
    ("custom", 404)])
def test_quad_form_starts_no_thread(monkeypatch, name, n):
    started = []

    class Counted(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(threading, "Thread", Counted)
    QUAD_KERNELS[name].quad_form(*quad_case(name, n)[1:])
    assert started == []


# N = 1001 takes blocks of 130 rows: rows 0-129 are the first, 910-1000 the
# last, a partial one
@pytest.mark.parametrize("a, b", [(0, 1), (200, 201), (950, 1000), (0, 1000)],
                         ids=["first", "middle", "last", "first-and-last"])
def test_overflow_raises_in_any_block_of_rows(a, b):
    xs, w = np.zeros(1001), np.ones(1001)
    # only entries (a, b) and (b, a) overflow: d^2 / -(2 w^2) is -2.88e308
    # there and -7.2e307 between a or b and a zero
    xs[a], xs[b] = 0.6e154, -0.6e154
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        GAUSS.quad_form(xs, w)
    with np.errstate(over="ignore"):  # K is 0 where d^2 / -(2 w^2) is -inf
        assert GAUSS.quad_form(xs, w) == point_sum_reference(GAUSS, xs, w)


def test_concurrent_quad_forms_keep_their_bits():
    # more callers than cores, with a short switch interval: each call's
    # blocks of rows are its own, and no bit depends on the BLAS thread
    # count
    cases = [quad_case(name, n) for name, n in (
        ("sobolev", 352), ("gaussian", 1056), ("linear", 2048),
        ("sobolev", 2048))]
    expect = [kernel.quad_form(xs, w) for kernel, xs, w in cases]
    got = [None] * len(cases)

    def call(i):
        kernel, xs, w = cases[i]
        got[i] = kernel.quad_form(xs, w)

    threads = [threading.Thread(target=call, args=(i,))
               for i in range(len(cases))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == expect


def test_quad_form_takes_opaque_points_and_empty_input():
    k = Kernel.custom(lambda a, b: float(a == b) + 0.5 * (a[0] == b[0]))
    pts = [("a", 1), ("a", 2), ("b", 1)]
    w = np.array([1.0, -2.0, 0.5])
    assert k.quad_form(pts, w) == float(w @ reference.gram(k, pts) @ w)
    assert SOB.quad_form([], []) == 0.0


MAX = sys.float_info.max  # its ulp is 2^971


@pytest.mark.parametrize("parts, want", [
    ((math.inf, -math.inf), math.nan),
    ((1.0, math.nan), math.nan),
    ((1.0, -math.inf), -math.inf),
    # fsum overflows midway; the exact sum is in range or past it
    ((1e308, 1e308, -1e308), 1e308),
    ((MAX, MAX, -MAX, -MAX, 5e-324), 5e-324),
    ((MAX, MAX, -MAX, 2.0 ** 969), MAX),  # below MAX + ulp/2: rounds down
    ((MAX, MAX, -MAX, 2.0 ** 970), math.inf),  # the tie rounds to 2^1024
    ((MAX, MAX), math.inf),
    ((-MAX, -MAX), -math.inf),
    # and a non-finite part decides, as in IEEE addition
    ((1e308, 1e308, -math.inf), -math.inf),
    ((1e308, 1e308, math.inf, -math.inf), math.nan),
], ids=["inf-inf", "nan", "-inf", "midway", "midway-subnormal",
        "midway-to-max", "midway-tie-to-inf", "past-range", "past-range-neg",
        "midway-and-inf", "midway-and-inf-inf"])
def test_rounded_sum_of_non_finite_and_overflowing_parts(parts, want):
    got = rounded_sum(parts)
    assert got == want or math.isnan(got) and math.isnan(want)
    if all(map(math.isfinite, parts)) and math.isfinite(want):
        assert got == float(sum(map(Fraction, parts)))


BUILT_INS = {name: QUAD_KERNELS[name] for name in ("sobolev", "gaussian",
                                                   "linear")}


@pytest.mark.parametrize("name", sorted(BUILT_INS))
def test_diag_is_the_kernel_at_x_x(name):
    kernel = BUILT_INS[name]
    with np.errstate(over="ignore"):  # the linear kernel's (1e300)^2
        for x in (0.0, -0.0, 1.0, -2.5, 1e300, -1e300):
            d = kernel.diag(x)
            assert d == float(kernel(x, x)) and isinstance(d, float), x
            assert np.array_equal(kernel.diag(np.array([x, x])),
                                  np.full(2, float(kernel(x, x))))


def test_diags_match_pointwise_diagonal():
    xs = np.linspace(-2, 2, 9)
    for kernel in QUAD_KERNELS.values():
        expect = np.array([float(kernel.diag(float(x))) for x in xs])
        assert np.array_equal(kernel.diags(xs), expect)
        assert np.array_equal(kernel.diags(xs),
                              np.diag(reference.gram(kernel, xs)))


# -- serialization --------------------------------------------------------

@pytest.mark.parametrize("doc, key", [
    ({"kind": "gaussian", "width": "0.5"}, "width"),
    ({"kind": "gaussian", "width": True}, "width"),
    ({"kind": "linear", "offset": "1"}, "offset"),
    ({"kind": "linear", "range": "2"}, "range"),
    ({"kind": "gaussian", "width": math.nan}, "width"),
    ({"kind": "linear", "offset": -math.inf}, "offset"),
    ({"kind": "linear", "range": math.inf}, "range"),
])
def test_kernel_document_takes_no_strings_for_numbers(doc, key):
    with pytest.raises(TypeError, match=key):
        Kernel.from_json(doc)


@pytest.mark.parametrize("doc, key", [
    ({"centers": "05", "weights": [1.0, 2.0]}, "centers"),
    ({"centers": [0.0, 5.0], "weights": "12"}, "weights"),
    ({"centers": ["0", "5"], "weights": [1.0, 2.0]}, "centers"),
])
def test_expansion_document_takes_no_strings_for_lists(doc, key):
    with pytest.raises(TypeError, match=key):
        KernelExpansion.from_json(doc, SOB)


@pytest.mark.parametrize("doc", ["sobolev", '"sobolev"', '{"kind": "sobolev"}',
                                 {"kind": "sobolev"}])
def test_a_name_bare_or_a_json_string_names_a_kernel(doc):
    assert Kernel.from_json(doc) == Kernel.sobolev()


def test_from_json():
    assert Kernel.from_json({"kind": "sobolev"}).kind.value == "sobolev"
    k = Kernel.from_json({"kind": "gaussian", "width": 0.5})
    assert k.width == 0.5
    k = Kernel.from_json({"kind": "linear", "offset": 1.0, "range": 2.0})
    assert (k.offset, k.data_range) == (1.0, 2.0)
    with pytest.raises(KernelError):
        Kernel.from_json({"kind": "polynomial"})
    e = KernelExpansion.from_json(
        {"centers": [0.0, 1.0], "weights": [1.0, -1.0]}, SOB)
    assert e.centers == (0.0, 1.0)

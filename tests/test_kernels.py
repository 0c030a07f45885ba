"""Kernels, Gram matrices, and finite-expansion RKHS norms."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import defcast
from defcast.kernels import Kernel, KernelError, KernelExpansion

SOB = Kernel.sobolev()
LN2 = math.log(2)

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
    k = Kernel.custom(lambda a, b: min(a, b) + 1.0, data_range=1.0)
    assert k(0.25, 0.75) == 1.25


# -- diagonal sup ---------------------------------------------------------

def test_c_f_values():
    assert SOB.c_f() == pytest.approx(1.0 / math.sqrt(2), abs=1e-15)
    assert Kernel.gaussian(0.1).c_f() == 1.0
    assert Kernel.linear(data_range=2.0).c_f() == pytest.approx(2.0, abs=1e-6)


def test_c_f_unbounded_without_range():
    assert math.isinf(Kernel.linear().c_f())
    assert math.isinf(Kernel.custom(lambda a, b: a * b).c_f())


def test_c_f_squared_is_the_sobolev_diagonal():
    for x in np.linspace(-5, 5, 11):
        assert SOB.c_f() ** 2 == pytest.approx(float(SOB.diag(x)), abs=1e-12)


def test_constructor_validation():
    with pytest.raises(KernelError):
        Kernel.gaussian(0.0)
    with pytest.raises(KernelError):
        Kernel.linear(offset=-1.0)


# -- Gram matrices --------------------------------------------------------

def test_gram_values():
    assert np.allclose(SOB.gram([0.0]), [[0.5]])
    g = SOB.gram([0.0, LN2])
    assert np.allclose(g, [[0.5, 0.25], [0.25, 0.5]], atol=1e-15)


def test_gram_permutation():
    pts = [0.3, -1.2, 0.8, 2.5]
    perm = [2, 0, 3, 1]
    g = SOB.gram(pts)
    gp = SOB.gram([pts[i] for i in perm])
    assert np.allclose(gp, g[np.ix_(perm, perm)])


def test_gram_empty_rejected():
    with pytest.raises(KernelError):
        SOB.gram([])


@settings(max_examples=40, deadline=None)
@given(points_strategy)
def test_gram_psd_sobolev(pts):
    eig = np.linalg.eigvalsh(SOB.gram(pts))
    assert eig.min() >= -1e-8


@settings(max_examples=40, deadline=None)
@given(points_strategy)
def test_gram_psd_gaussian(pts):
    eig = np.linalg.eigvalsh(Kernel.gaussian(0.5).gram(pts))
    assert eig.min() >= -1e-8


@settings(max_examples=40, deadline=None)
@given(points_strategy)
def test_gram_psd_linear(pts):
    eig = np.linalg.eigvalsh(Kernel.linear(offset=1.0).gram(pts))
    assert eig.min() >= -1e-8


# -- expansions -----------------------------------------------------------

def test_norm_values():
    assert KernelExpansion.zero(SOB).norm() == 0.0
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
        g = SOB.gram(list(centers) + [x])
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


# -- quadratic form -------------------------------------------------------

# A custom evaluator whose value depends on argument order, so that an
# entry evaluated as func(x_j, x_i) instead of the Gram's func(x_i, x_j),
# i <= j, shows.  quad_form only has to reproduce the Gram here, so the
# evaluator need not be a kernel.
ORDERED = Kernel.custom(lambda a, b: 0.5 * math.exp(-abs(a - b)) + 1e-6 * a)
QUAD_KERNELS = {"sobolev": SOB, "gaussian": Kernel.gaussian(0.5),
                "linear": Kernel.linear(offset=0.7), "custom": ORDERED}
# N = 1 and 40 fit one slab; the others cross slab boundaries (slabs are 32
# to 320 columns wide at these N) and end on a partial slab, except 4128
QUAD_SIZES = {name: [1, 40, 1000, 1004, 4100, 4128]
              for name in ("sobolev", "gaussian", "linear")}
QUAD_SIZES["custom"] = [1, 40, 400, 404]
UNALIGNED_SIZES = [3, 999, 1001, 1003, 4099]


def quad_case(name, n):
    rng = np.random.default_rng(n)
    return QUAD_KERNELS[name], rng.uniform(-2, 2, n), rng.normal(size=n)


def quad_form_mismatches(cases) -> list:
    """The (kernel, N) cases where quad_form differs from w @ gram @ w."""
    bad = []
    for name, n in cases:
        kernel, xs, w = quad_case(name, n)
        if kernel.quad_form(xs, w) != float(w @ kernel.gram(xs) @ w):
            bad.append([name, n])
    return bad


def slab_reference(kernel, xs, w) -> float:
    """quad_form's slab loop with an allocating kernel call per slab."""
    n = len(xs)
    width = 32 * max(1, 4096 // n)
    v = np.empty(n)
    for j in range(0, n, width):
        k = min(j + width, n)
        v[j:k] = w @ kernel(xs[:, None], xs[None, j:k])
    return float(v @ w)


def quad_form_at_benchmark_sizes(sizes) -> dict:
    """Per (kernel, N): whether quad_form has the reference's bits, and the
    peak of the memory numpy allocated during the quad_form call."""
    import tracemalloc
    out = {}
    for name in ("sobolev", "gaussian", "linear"):
        for n in sizes:
            kernel, xs, w = quad_case(name, n)
            ref = slab_reference(kernel, xs, w)
            tracemalloc.start()
            got = kernel.quad_form(xs, w)
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            out[f"{name}-{n}"] = [got == ref, peak]
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
    # N = 4000 and 6000 are benchmark horizons; 6001 ends on a 17-wide slab.
    # The in-place slabs must not move a bit, and the pass stays O(N): one
    # 32-column slab buffer (1.5 MB at N = 6001, where the Gram is 288 MB)
    # plus O(1) per point, not a fresh slab for each step of the formula
    sizes = [4000, 6001]
    result = run_single_threaded(f"t.quad_form_at_benchmark_sizes({sizes})")
    assert {case: same for case, (same, _) in result.items()} == {
        f"{name}-{n}": True for name in ("sobolev", "gaussian", "linear")
        for n in sizes}
    for case, (_, peak) in result.items():
        n = int(case.split("-")[1])
        assert peak < 8 * 32 * n + 128 * n, case


def test_quad_form_has_the_gram_bits_when_n_is_a_multiple_of_4():
    # the bits agree when N is a multiple of 4 per BLAS thread, so check
    # with one thread, as the benchmark runs, in a process of its own
    cases = [(name, n) for name, sizes in QUAD_SIZES.items() for n in sizes]
    assert run_single_threaded(f"t.quad_form_mismatches({cases!r})") == []


@pytest.mark.parametrize("name", sorted(QUAD_KERNELS))
def test_quad_form_matches_gram_to_rounding(name):
    # any N and BLAS thread count: within 4 ulps of sum |w_i K_ij w_j|, the
    # size rounding errors of the quadratic form scale with
    sizes = QUAD_SIZES[name] + (UNALIGNED_SIZES if name != "custom"
                                else [3, 401, 403])
    for n in sizes:
        kernel, xs, w = quad_case(name, n)
        g = kernel.gram(xs)
        scale = float(np.abs(w) @ np.abs(g) @ np.abs(w))
        assert abs(kernel.quad_form(xs, w) - float(w @ g @ w)) \
            <= 4 * np.spacing(scale), (name, n)


def test_quad_form_takes_opaque_points_and_empty_input():
    k = Kernel.custom(lambda a, b: float(a == b) + 0.5 * (a[0] == b[0]))
    pts = [("a", 1), ("a", 2), ("b", 1)]
    w = np.array([1.0, -2.0, 0.5])
    assert k.quad_form(pts, w) == float(w @ k.gram(pts) @ w)
    assert SOB.quad_form([], []) == 0.0


BUILT_INS = {name: QUAD_KERNELS[name] for name in ("sobolev", "gaussian",
                                                   "linear")}


@pytest.mark.parametrize("name", sorted(BUILT_INS))
def test_kernel_writes_into_out_with_the_allocating_bits(name):
    # one buffer, reused as quad_form reuses it: a full 128-column slab of
    # N = 1001, then a partial 9-column one over the full slab's leftovers
    kernel, n = BUILT_INS[name], 1001
    xs = np.random.default_rng(3).uniform(-2, 2, n)
    buf = np.empty(n * 128)
    for j, k in ((0, 128), (n - 9, n)):
        view = buf[:n * (k - j)].reshape(n, k - j)
        assert view.flags.c_contiguous
        expect = kernel(xs[:, None], xs[None, j:k])
        assert kernel(xs[:, None], xs[None, j:k], out=view) is view
        assert np.array_equal(view, expect)


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
        assert np.array_equal(kernel.diags(xs), np.diag(kernel.gram(xs)))


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

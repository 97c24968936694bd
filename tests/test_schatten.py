import ast
import math
import os
import platform
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.linalg import _umath_linalg

import matprod
from matprod.errors import InvalidInputError, InvalidParameterError
from matprod.schatten import (
    BIGNUM,
    PARALLEL_MATRICES,
    SMLNUM,
    _stack_norms,
    _svals,
    condition_numbers,
    format_float,
    matrix_from_json,
    matrix_to_json,
    moment_norm,
    norm_from_singular_values,
    schatten_norm,
    singular_values,
    spectral_norm,
    spectral_radii,
    spectral_radius,
    stack_norms,
)

entries = st.floats(-1.0, 1.0, allow_nan=False)


def small_matrices(max_side=4):
    return st.tuples(
        st.integers(1, max_side), st.integers(1, max_side)
    ).flatmap(lambda rc: hnp.arrays(np.float64, rc, elements=entries))


def square_matrices(max_side=4):
    return st.integers(1, max_side).flatmap(
        lambda n: hnp.arrays(np.float64, (n, n), elements=entries))


def matrix_pairs(max_side=4):
    return st.tuples(
        st.integers(1, max_side), st.integers(1, max_side)
    ).flatmap(lambda rc: st.tuples(
        hnp.arrays(np.float64, rc, elements=entries),
        hnp.arrays(np.float64, rc, elements=entries)))


class TestSchattenNorm:
    def test_hand_values(self):
        m = np.diag([3.0, 4.0])
        assert schatten_norm(m, 1) == pytest.approx(7.0, rel=1e-15)
        assert schatten_norm(m, 2) == pytest.approx(5.0, rel=1e-15)
        assert schatten_norm(m, 4) == pytest.approx(337.0 ** 0.25, rel=1e-15)
        assert schatten_norm(m, math.inf) == pytest.approx(4.0, rel=1e-15)

    def test_rectangular(self):
        m = np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0]])
        assert schatten_norm(m, 2) == pytest.approx(math.sqrt(5.0), rel=1e-15)
        assert spectral_norm(m) == pytest.approx(2.0, rel=1e-15)

    @pytest.mark.parametrize("seed", range(8))
    def test_p2_takes_the_singular_value_route(self, seed):
        # the same formula as stack_norms; np.linalg.norm's Frobenius norm
        # differs from it in the last bits at seeds 0, 1, 2, 4, 5 and 6
        m = np.random.default_rng(seed).standard_normal((5, 3))
        assert schatten_norm(m, 2) == stack_norms(m[None], 2)[1][0]

    @pytest.mark.parametrize("p", [2.0, 2.5, 3.0, 7.0])
    def test_root_has_the_bits_of_a_stack_of_one(self, p):
        # a scalar power of the summed ratios differs from the array power of
        # stack_norms in the last bit for 3, 122, 115 and 105 of these matrices
        for m in np.random.default_rng(0).standard_normal((3000, 4, 3)):
            assert schatten_norm(m, p) == stack_norms(m[None], p)[1][0]

    def test_log_domain_large_p(self):
        # large p with entries that would underflow at s**p
        s = np.array([1e-160, 5e-161])
        got = float(norm_from_singular_values(s, 128))
        assert got == pytest.approx(1e-160 * (1.0 + 0.5 ** 128) ** (1.0 / 128), rel=1e-12)

    def test_log_domain_huge_p_no_overflow(self):
        m = np.diag([2.0, 1.0])
        assert schatten_norm(m, 200.0) == pytest.approx(2.0, rel=1e-12)
        assert schatten_norm(m, 1e6) == pytest.approx(2.0, rel=1e-12)

    @pytest.mark.parametrize("scale", [1e-305, 1e-301, 1e-150, 1.0, 1e150, 1e300])
    def test_one_formula_at_every_p(self, scale):
        # the top singular value is factored out at every p, so no ratio
        # exceeds 1: tiny scales do not vanish and huge ones do not overflow
        m = scale * np.diag([3.0, 2.0, 1e-5])
        s = singular_values(m)
        for p in (64.0, 65.0, 100.0, 1e6):
            got = schatten_norm(m, p)
            assert got > 0.0
            assert got == float(s[0] * np.sum((s / s[0]) ** p) ** (1.0 / p))
        below, above = (schatten_norm(m, np.nextafter(64.0, x)) for x in (0.0, math.inf))
        assert above == pytest.approx(below, rel=1e-15)

    def test_large_p_hand_values(self):
        assert schatten_norm(1e-301 * np.eye(2), 100.0) == 1.006955550056719e-301
        assert schatten_norm(np.diag([3.0, 2.0, 1e-5]), 100.0) == 3.0
        assert schatten_norm(np.zeros((3, 2)), 128.0) == 0.0

    def test_vectorized_over_leading_axes(self):
        rng = np.random.default_rng(5)
        stack = rng.standard_normal((7, 3, 3))
        svals = np.linalg.svd(stack, compute_uv=False)
        batched = norm_from_singular_values(svals, 3.0)
        singles = [schatten_norm(m, 3.0) for m in stack]
        assert np.allclose(batched, singles, rtol=1e-12)

    def test_invalid_p(self):
        m = np.eye(2)
        with pytest.raises(InvalidParameterError):
            schatten_norm(m, 0.5)
        with pytest.raises(InvalidParameterError):
            schatten_norm(m, math.nan)

    def test_invalid_matrix(self):
        with pytest.raises(InvalidInputError):
            schatten_norm(np.zeros((0, 2)), 2)
        with pytest.raises(InvalidInputError):
            schatten_norm(np.array([1.0, 2.0]), 2)
        with pytest.raises(InvalidInputError):
            schatten_norm(np.array([[math.inf]]), 2)

    @given(small_matrices(), st.floats(-3.0, 3.0, allow_nan=False))
    def test_homogeneity(self, m, a):
        p = 3.0
        assert schatten_norm(a * m, p) == pytest.approx(
            abs(a) * schatten_norm(m, p), rel=1e-10, abs=1e-12)

    @given(matrix_pairs())
    def test_triangle_inequality(self, pair):
        a, b = pair
        p = 2.5
        lhs = schatten_norm(a + b, p)
        rhs = schatten_norm(a, p) + schatten_norm(b, p)
        assert lhs <= rhs + 1e-9 * max(rhs, 1.0)

    @given(small_matrices(), st.floats(1.0, 20.0), st.floats(1.0, 20.0))
    def test_nonincreasing_in_p(self, m, p1, p2):
        lo, hi = min(p1, p2), max(p1, p2)
        n_lo = schatten_norm(m, lo)
        n_hi = schatten_norm(m, hi)
        assert n_hi <= n_lo + 1e-9 * max(n_lo, 1.0)

    @given(square_matrices(), st.integers(0, 2 ** 31 - 1))
    def test_unitary_invariance(self, m, seed):
        g = np.random.default_rng(seed).standard_normal(m.shape)
        u, _ = np.linalg.qr(g)
        for p in (1.0, 2.0, 3.0, math.inf):
            base = schatten_norm(m, p)
            assert schatten_norm(u @ m, p) == pytest.approx(base, rel=1e-10, abs=1e-10)


class TestSpectralRadius:
    def test_requires_square(self):
        with pytest.raises(InvalidInputError):
            spectral_radius(np.zeros((2, 3)))

    def test_hand_value(self):
        m = np.array([[0.0, 1.0], [0.0, 0.0]])  # nilpotent: radius 0, norm 1
        assert spectral_radius(m) == 0.0
        assert spectral_norm(m) == pytest.approx(1.0, rel=1e-15)

    @given(square_matrices())
    def test_dominated_by_spectral_norm(self, m):
        assert spectral_radius(m) <= spectral_norm(m) + 1e-9


class TestStackNorms:
    """One SVD per stack; each matrix's norms as if it were decomposed alone."""

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0, 100.0, math.inf])
    @pytest.mark.parametrize("shape", [(40, 4, 4), (30, 5, 2), (30, 2, 6), (1, 3, 3),
                                       (30, 7, 1), (20, 1, 1), (4, 300, 1)],
                             ids=["square", "tall", "wide", "stack-of-one",
                                  "column", "one-by-one", "long-column"])
    def test_matches_single_matrix_norms(self, shape, p):
        stack = np.random.default_rng(11).standard_normal(shape)
        spectral, schatten = stack_norms(stack, p)
        singles = np.stack([singular_values(m) for m in stack])
        assert spectral.tobytes() == singles[:, 0].tobytes()
        assert spectral.tobytes() == np.array([spectral_norm(m) for m in stack]).tobytes()
        assert schatten.tobytes() == np.asarray(norm_from_singular_values(singles, p)).tobytes()
        # schatten_norm takes the root of a stack of one; a longer stack's
        # array power is held to a few ulp, not to its bits
        np.testing.assert_array_max_ulp(
            schatten, np.array([schatten_norm(m, p) for m in stack]), maxulp=4)

    def test_default_is_spectral(self):
        stack = np.random.default_rng(12).standard_normal((6, 3, 4))
        spectral, schatten = stack_norms(stack)
        assert schatten.tobytes() == spectral.tobytes()

    @pytest.mark.parametrize("shape", [(4, 4), (5, 1)], ids=["square", "column"])
    def test_tuple_of_matrices_is_one_stack(self, shape):
        # a tuple of matrices is read as one array of them, not as the parts
        # of a stack that join into one tall matrix
        a, b = np.random.default_rng(14).standard_normal((2, *shape))
        want = stack_norms(np.stack([a, b]), 3.0)
        got = stack_norms((a, b), 3.0)
        assert [x.shape for x in got] == [(2,), (2,)]
        assert [x.tobytes() for x in got] == [x.tobytes() for x in want]

    @pytest.mark.parametrize("shape", [(40, 4, 4), (1, 3, 3), (5, 1, 1)])
    def test_spectral_radii_match_single_matrix(self, shape):
        stack = np.random.default_rng(13).standard_normal(shape)
        want = np.array([spectral_radius(m) for m in stack])
        assert spectral_radii(stack).tobytes() == want.tobytes()


def use_cpus(monkeypatch, n):
    """Make the norm layer see ``n`` usable CPUs, on any host."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def stack_outputs(stack, p):
    """Every norm-layer output for a stack, as bytes."""
    out = [x.tobytes() for x in stack_norms(stack, p)]
    if stack.shape[-1] == stack.shape[-2]:
        out.append(spectral_radii(stack).tobytes())
    return out


class TestSplitStacks:
    """A large stack is split over the usable CPUs; its norms are bitwise those
    of one serial call."""

    @pytest.mark.parametrize("cpus", [2, 3])
    @pytest.mark.parametrize("shape", [(4, 4), (10, 10), (100, 1), (1, 1)],
                             ids=["4x4", "10x10", "100x1", "1x1"])
    @pytest.mark.parametrize("count", [PARALLEL_MATRICES - 1, PARALLEL_MATRICES,
                                       PARALLEL_MATRICES + 1, 4096])
    def test_bits_match_serial_call(self, monkeypatch, count, shape, cpus):
        stack = np.random.default_rng(count).standard_normal((count, *shape))
        for p in (2.0, 11.2, math.inf):
            use_cpus(monkeypatch, 1)
            serial = stack_outputs(stack, p)
            use_cpus(monkeypatch, cpus)
            assert stack_outputs(stack, p) == serial

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    @pytest.mark.parametrize("shape", [(4, 4), (100, 1)], ids=["4x4", "100x1"])
    def test_parts_match_their_join(self, monkeypatch, shape, cpus):
        # parts that join into a split stack: joined once, split, never written
        rng = np.random.default_rng(9)
        parts = (rng.standard_normal((300, *shape)),
                 rng.standard_normal((PARALLEL_MATRICES, *shape)))
        before = [x.tobytes() for x in parts]
        use_cpus(monkeypatch, 1)
        serial = [x.tobytes() for x in stack_norms(np.concatenate(parts), 3.0)]
        use_cpus(monkeypatch, cpus)
        assert [x.tobytes() for x in _stack_norms(parts, 3.0)] == serial
        assert [x.tobytes() for x in parts] == before

    @pytest.mark.parametrize("where", [0, -1], ids=["part-0", "worker-part"])
    @pytest.mark.parametrize("reduce", [stack_norms, spectral_radii], ids=["svd", "eigvals"])
    def test_errors_match_serial_call(self, monkeypatch, reduce, where):
        stack = np.random.default_rng(5).standard_normal((1024, 4, 4))
        stack[where, 1, 2] = np.nan
        use_cpus(monkeypatch, 1)
        with pytest.raises(np.linalg.LinAlgError) as serial:
            reduce(stack)
        use_cpus(monkeypatch, 2)
        with pytest.raises(np.linalg.LinAlgError) as split:
            reduce(stack)
        assert str(split.value) == str(serial.value)

    @pytest.mark.parametrize("shape, cpus, threads", [
        # the Monte Carlo workloads' stacks stay serial: splitting them is slower
        ((80, 10, 10), 2, 0), ((40, 10, 10), 2, 0), ((100, 4, 4), 2, 0),
        ((300, 100, 1), 2, 0),
        ((4096, 4, 4), 1, 0), ((4096, 4, 4), 2, 1), ((4096, 4, 4), 3, 2),
    ])
    def test_threads_only_for_large_stacks(self, monkeypatch, shape, cpus, threads):
        started = []

        class Recording(threading.Thread):
            def start(self):
                started.append(self)
                super().start()

        monkeypatch.setattr(threading, "Thread", Recording)
        use_cpus(monkeypatch, cpus)
        stack = np.random.default_rng(6).standard_normal(shape)
        stack_norms(stack)
        if shape[1] == shape[2]:
            spectral_radii(stack)
        assert len(started) == threads * (2 if shape[1] == shape[2] else 1)
        assert not any(t.is_alive() for t in started)

    def test_single_matrix_is_not_split(self, monkeypatch):
        # spectral_radius hands the layer one matrix, whose rows are not a stack
        use_cpus(monkeypatch, 2)
        a = np.random.default_rng(7).standard_normal((PARALLEL_MATRICES, 2))
        spectral, _ = stack_norms(a)
        assert spectral == np.linalg.svd(a, compute_uv=False)[0]

    def test_import_loads_no_executor_or_logging(self):
        # concurrent.futures pulls in logging, a cost every run's set-up would pay
        code = ("import sys, matprod, matprod.cli; "
                "print(sorted({'concurrent.futures', 'logging'} & set(sys.modules)))")
        env = dict(os.environ, PYTHONPATH=str(Path(matprod.__file__).resolve().parents[1]))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=120, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["[]"]


class TestConditionNumbers:
    """Bitwise np.linalg.cond, for single matrices and stacks."""

    @pytest.mark.parametrize("side", range(1, 11))
    def test_matches_numpy_cond(self, side):
        rng = np.random.default_rng(side)
        columns = rng.standard_normal((20, 10 * side, 1))
        columns[::4] = 0.0  # 0 / 0: inf, as np.linalg.cond gives
        for stack in (rng.standard_normal((20, side, side)), columns):
            assert condition_numbers(stack).tobytes() == np.linalg.cond(stack).tobytes()
            for m in stack[:3]:
                assert condition_numbers(m).tobytes() == np.linalg.cond(m).tobytes()

    def test_singular_matrices_give_inf(self):
        stack = np.array([np.zeros((3, 3)), np.diag([1.0, 2.0, 0.0]), np.ones((3, 3)),
                          np.eye(3)])
        got = condition_numbers(stack)
        assert got.tobytes() == np.linalg.cond(stack).tobytes()
        assert got[0] == got[1] == math.inf
        assert condition_numbers(np.zeros((2, 2))) == math.inf

    @pytest.mark.parametrize("cpus", [2, 3])
    @pytest.mark.parametrize("count", [PARALLEL_MATRICES, 4096])
    def test_split_stack_matches_numpy_cond(self, monkeypatch, count, cpus):
        stack = np.random.default_rng(count).standard_normal((count, 4, 4))
        stack[::7, :, 0] = 0.0  # singular matrices in every part
        use_cpus(monkeypatch, cpus)
        assert condition_numbers(stack).tobytes() == np.linalg.cond(stack).tobytes()


def column_stack(seed, side, tops):
    """A (len(tops), side, 1) stack whose column k has largest entry magnitude tops[k]."""
    stack = np.random.default_rng(seed).standard_normal((len(tops), side, 1))
    # the largest entry becomes exactly +-1, and no other exceeds it in magnitude
    stack /= np.abs(stack).max(axis=-2, keepdims=True)
    return stack * np.asarray(tops, dtype=float)[:, None, None]


# largest entry magnitudes on both sides of the range in which dgesdd does not rescale
EDGE_TOPS = [0.0, np.nextafter(SMLNUM, 0.0), SMLNUM, np.nextafter(SMLNUM, 1.0), 1e-140, 1e-130,
             1e-300, 1.0, 1e130, 1e140, 1e300, np.nextafter(BIGNUM, 1.0), BIGNUM,
             np.nextafter(BIGNUM, math.inf)]


class TestColumnRoute:
    """One-column stacks take one QR when dgesdd would not rescale them; the
    singular values are bitwise np.linalg.svd's either way."""

    @given(st.integers(0, 2 ** 32 - 1),
           st.one_of(st.integers(1, 5), st.sampled_from([17, 100, 300]), st.integers(1, 300)),
           st.lists(st.sampled_from(EDGE_TOPS), min_size=1, max_size=6))
    def test_svals_match_svd_bits(self, seed, side, tops):
        stack = column_stack(seed, side, tops)
        want = np.linalg.svd(stack, compute_uv=False)
        assert _svals(stack).tobytes() == want.tobytes()
        assert _svals(stack[0]).tobytes() == want[0].tobytes()

    @pytest.mark.parametrize("side", [1, 2, 3, 5, 17, 100, 300])
    def test_every_edge_matches_svd_bits(self, side):
        for k, top in enumerate(EDGE_TOPS):
            stack = column_stack(k, side, [top] * 8)
            want = np.linalg.svd(stack, compute_uv=False)
            assert _svals(stack).tobytes() == want.tobytes()

    @pytest.mark.parametrize("tops, calls", [
        ([1.0] * 4, ["qr"]),
        ([1.0, 0.0, SMLNUM, BIGNUM], ["qr"]),
        ([1.0, 0.0, np.nextafter(SMLNUM, 0.0), 1.0], ["qr", "svd"]),
        ([1.0, np.nextafter(BIGNUM, math.inf)], ["qr", "svd"]),
        ([1.0, math.inf], ["qr", "svd"]),
    ], ids=["in-range", "zero-and-edges", "one-column-too-small", "one-column-too-large",
            "inf"])
    def test_one_rescaled_column_sends_the_stack_to_svd(self, monkeypatch, tops, calls):
        stack = column_stack(1, 100, tops)
        want = np.linalg.svd(stack, compute_uv=False)
        seen = []

        def spy(module, attr, name):
            lapack = getattr(module, attr)
            monkeypatch.setattr(module, attr, lambda *args, **kwargs: seen.append(name)
                                or lapack(*args, **kwargs))

        # the route runs numpy's QR gufunc itself, as np.linalg.qr would
        spy(_umath_linalg, "qr_r_raw", "qr")
        spy(np.linalg, "svd", "svd")
        assert _svals(stack).tobytes() == want.tobytes()
        assert seen == calls

    def test_nan_column_raises_as_svd_does(self):
        stack = column_stack(2, 5, [1.0, 1.0])
        stack[1, 3, 0] = math.nan
        with pytest.raises(np.linalg.LinAlgError) as want:
            np.linalg.svd(stack, compute_uv=False)
        with pytest.raises(np.linalg.LinAlgError) as got:
            _svals(stack)
        assert str(got.value) == str(want.value)

    @given(st.integers(0, 2 ** 32 - 1),
           st.one_of(st.integers(1, 5), st.sampled_from([17, 100, 300]), st.integers(1, 300)),
           st.lists(st.lists(st.sampled_from(EDGE_TOPS + [5e-324]), min_size=1, max_size=4),
                    min_size=1, max_size=3),
           st.sampled_from([2.0, 2.0 * (1.0 + math.log(100.0)), math.inf]))
    def test_parts_match_svd_of_their_join(self, seed, side, tops, p):
        # the layer joins the parts into a buffer of its own and factors that
        parts = [column_stack(seed + k, side, t) for k, t in enumerate(tops)]
        before = [x.tobytes() for x in parts]
        want = np.linalg.svd(np.concatenate(parts), compute_uv=False)
        assert _svals(*parts).tobytes() == want.tobytes()
        spectral, schatten = _stack_norms(parts, p)
        assert spectral.tobytes() == want[..., 0].tobytes()
        assert schatten.tobytes() == np.asarray(norm_from_singular_values(want, p)).tobytes()
        assert [x.tobytes() for x in parts] == before

    @pytest.mark.parametrize("tops, joins, svd", [
        ([[1.0] * 4, [1e-30, 1e30]], 1, 0),
        ([[1.0, 0.0], [0.0]], 1, 0),  # a zero norm is a zero column, settled
        ([[1.0], [SMLNUM, 1.0]], 2, 0),  # a norm under 2 sqrt(d) SMLNUM, an entry in range
        ([[1.0], [BIGNUM]], 2, 0),
        ([[1.0], [np.nextafter(SMLNUM, 0.0)]], 2, 1),
        ([[np.nextafter(BIGNUM, math.inf)], [1.0]], 2, 1),
    ], ids=["in-range", "zero", "small-norm", "large-norm", "too-small", "too-large"])
    def test_unsettled_columns_are_read_from_the_untouched_parts(self, monkeypatch, tops,
                                                                 joins, svd):
        parts = [column_stack(k, 100, t) for k, t in enumerate(tops)]
        before = [x.tobytes() for x in parts]
        want = np.linalg.svd(np.concatenate(parts), compute_uv=False)
        seen = []

        def spy(module, attr, name):
            call = getattr(module, attr)
            monkeypatch.setattr(module, attr, lambda *args, **kwargs: seen.append(name)
                                or call(*args, **kwargs))

        spy(np, "concatenate", "join")
        spy(np.linalg, "svd", "svd")
        assert _svals(*parts).tobytes() == want.tobytes()
        assert (seen.count("join"), seen.count("svd")) == (joins, svd)
        assert [x.tobytes() for x in parts] == before

    def test_square_parts_take_one_svd_of_their_join(self, svd_shapes):
        rng = np.random.default_rng(8)
        parts = (rng.standard_normal((5, 3, 3)), rng.standard_normal((4, 3, 3)))
        before = [x.tobytes() for x in parts]
        spectral, _ = _stack_norms(parts, math.inf)
        assert svd_shapes == [(9, 3, 3)]
        want = np.linalg.svd(np.concatenate(parts), compute_uv=False)[..., 0]
        assert spectral.tobytes() == want.tobytes()
        assert [x.tobytes() for x in parts] == before

    def test_qr_gufunc_writes_r_over_its_input(self):
        # the route reads R11 from the buffer it hands numpy's QR gufunc; a
        # numpy that stops writing R there must fail here, not in a digest
        stack = column_stack(5, 7, [1.0, 2.0, 0.0])
        buffer = stack.copy()
        tau = _umath_linalg.qr_r_raw(buffer, signature="d->d")
        assert tau.shape == (3, 1)
        r11 = np.linalg.qr(stack, mode="r")[..., 0, 0]
        assert buffer[..., 0, 0].tobytes() == r11.tobytes()
        assert not np.array_equal(buffer[:2, 0, 0], stack[:2, 0, 0])
        assert (np.abs(buffer[..., 0, :]).tobytes()
                == np.linalg.svd(stack, compute_uv=False).tobytes())

    @pytest.mark.skipif(platform.machine() not in ("x86_64", "AMD64"),
                        reason="the Haswell kernel is an x86-64 OpenBLAS kernel")
    def test_svals_match_svd_bits_under_haswell_kernel(self):
        # the SVD's own bits depend on the OpenBLAS kernel; the route must
        # match them under a second kernel too, which needs a fresh process
        code = (
            "import ctypes, glob, os, sys, numpy, pytest\n"
            "libs = glob.glob(os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)),\n"
            "                              'numpy.libs', 'libscipy_openblas64_*.so'))\n"
            "if libs:\n"
            "    corename = ctypes.CDLL(libs[0]).scipy_openblas_get_corename64_\n"
            "    corename.argtypes, corename.restype = [], ctypes.c_char_p\n"
            "    print('core', corename().decode())\n"
            "sys.exit(pytest.main(['-q', '-p', 'no:cacheprovider', *sys.argv[1:]]))\n")
        here = f"{Path(__file__).resolve()}::TestColumnRoute::"
        env = dict(os.environ, OPENBLAS_CORETYPE="Haswell", OPENBLAS_NUM_THREADS="1",
                   PYTHONPATH=str(Path(matprod.__file__).resolve().parents[1]))
        proc = subprocess.run([sys.executable, "-c", code, here + "test_svals_match_svd_bits",
                               here + "test_every_edge_matches_svd_bits",
                               here + "test_parts_match_svd_of_their_join"],
                              capture_output=True, text=True, timeout=300, env=env)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        cores = [line.split()[1] for line in proc.stdout.splitlines() if line.startswith("core ")]
        assert cores in ([], ["Haswell"])
        assert proc.stdout.splitlines()[-1].startswith("9 passed")


class TestOneReductionLayer:
    """Norms of program matrices are reduced in schatten.py and nowhere else."""

    def test_no_svd_eigvals_or_cond_outside_schatten(self):
        import matprod

        package = Path(matprod.__file__).parent
        stray = []
        for path in sorted(package.glob("*.py")):
            if path.name == "schatten.py":
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                names = ([node.attr] if isinstance(node, ast.Attribute) else
                         [a.name for a in node.names] if isinstance(node, ast.ImportFrom)
                         else [])
                stray += [f"{path.name}:{node.lineno} {name}" for name in names
                          if name in ("svd", "eigvals", "cond")]
        assert stray == []


class TestMomentNorm:
    def test_uniform_weights(self):
        assert moment_norm([1.0, 2.0], 2.0, [0.5, 0.5]) == pytest.approx(math.sqrt(2.5),
                                                                         rel=1e-15)

    def test_explicit_weights(self):
        got = moment_norm([1.0, 3.0], 4.0, weights=[0.25, 0.75])
        assert got == pytest.approx((0.25 + 0.75 * 81.0) ** 0.25, rel=1e-15)

    def test_zero_values(self):
        assert moment_norm([0.0, 0.0], 2.0, [0.5, 0.5]) == 0.0

    def test_large_q_factored(self):
        # top value factored out, so v**q cannot overflow
        got = moment_norm([1e200, 5e199], 8.0, [0.5, 0.5])
        assert got == pytest.approx(1e200 * (0.5 * (1 + 0.5 ** 8)) ** (1 / 8), rel=1e-12)

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            moment_norm([1.0], 0.5, [1.0])
        with pytest.raises(InvalidInputError):
            moment_norm([[1.0]], 2.0, [[1.0]])
        with pytest.raises(InvalidInputError):
            moment_norm([1.0, 2.0], 2.0, weights=[1.0])

    @given(st.lists(st.floats(0.0, 1e3), min_size=1, max_size=8),
           st.floats(1.0, 16.0))
    def test_bounded_by_max(self, values, q):
        top = max(values)
        weights = [1.0 / len(values)] * len(values)
        assert moment_norm(values, q, weights) <= top + 1e-9 * max(top, 1.0)


class TestWireFormats:
    def test_json_round_trip_bitwise(self):
        m = np.array([[0.1, -1.0 / 3.0], [1e300, 5e-324]])
        obj = matrix_to_json(m)
        assert obj["rows"] == 2 and obj["cols"] == 2
        assert obj["data"] == [0.1, -1.0 / 3.0, 1e300, 5e-324]
        back = matrix_from_json(obj)
        assert back.dtype == np.float64
        assert np.array_equal(back, m)

    def test_json_flat_row_major(self):
        m = np.arange(6.0).reshape(2, 3)
        assert matrix_to_json(m)["data"] == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]

    @pytest.mark.parametrize("obj", [
        42,
        {"rows": 2, "cols": 2},
        {"rows": 0, "cols": 1, "data": []},
        {"rows": 2.0, "cols": 1, "data": [1.0, 2.0]},
        {"rows": 2, "cols": 2, "data": [1.0, 2.0, 3.0]},
        {"rows": 1, "cols": 1, "data": ["x"]},
        {"rows": 1, "cols": 1, "data": [math.nan]},
    ])
    def test_json_rejects_malformed(self, obj):
        with pytest.raises(InvalidInputError):
            matrix_from_json(obj)

    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_format_float_round_trips(self, x):
        text = format_float(x)
        assert float(text) == x
        assert "," not in text

    def test_format_float_style(self):
        assert format_float(0.2) == "0.20000000000000001"
        assert format_float(1.0) == "1"

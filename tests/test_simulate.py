import bisect
import functools
import itertools
import math
import pickle
import re
import time
import tracemalloc
from dataclasses import replace

import hypothesis
import numpy as np
import pytest
import scipy.special
from hypothesis import given
from hypothesis import strategies as st

from matprod import ensembles, simulate
from matprod.cli import spec_from_config
from matprod.ensembles import (
    FactorEnsemble,
    FactorStats,
    SupportSampler,
    diagonal_moves,
    householder_direction,
    make_bounded_perturbation,
    make_rademacher_rank_one,
    make_random_projector_contraction,
    support_stats,
)
from matprod.errors import (
    EnumerationInfeasibleError,
    InvalidInputError,
    InvalidParameterError,
    UnsupportedEnsembleError,
)
from matprod.simulate import (
    CONDITION_LIMIT,
    ENUMERATION_BUDGET,
    MCEstimate,
    NormBiasedTwoPointHook,
    ProductSpec,
    clopper_pearson,
    conjugated_spec,
    enumerate_product,
    expected_product,
    simulate_product,
    summarize_simulation,
    triangular_array_run,
)
from matprod.schatten import (
    PARALLEL_MATRICES,
    condition_numbers,
    spectral_norm,
    spectral_radii,
    stack_norms,
)
from matprod.streams import substream
from matprod.verify import comparison_rows


def scalar_two_point(n=2, radius=0.1):
    e = make_bounded_perturbation(1, np.zeros((1, 1)), radius, 1.0)
    return ProductSpec(factors=(e,) * n, z0=np.eye(1))


def matrix_two_point(dim=2, n=3, radius=0.3, n_scale=None):
    a = 0.2 * np.eye(dim)
    e = make_bounded_perturbation(dim, a, radius, n_scale or n)
    return ProductSpec(factors=(e,) * n, z0=np.eye(dim))


class TestProductSpec:
    def test_properties(self):
        spec = matrix_two_point(dim=3, n=4)
        assert (spec.d, spec.r, spec.n) == (3, 3, 4)
        tall = ProductSpec(factors=spec.factors, z0=np.ones((3, 1)))
        assert (tall.d, tall.r) == (3, 1)

    def test_mode_validation(self):
        with pytest.raises(InvalidParameterError):
            ProductSpec(factors=scalar_two_point().factors, z0=np.eye(1), mode="warp")

    def test_rejects_triangular_mode(self):
        # triangular arrays are independent products; there is no such mode
        with pytest.raises(InvalidParameterError, match="mode must be one of"):
            ProductSpec(factors=scalar_two_point().factors, z0=np.eye(1), mode="triangular")
        assert simulate.MODES == ("independent", "adapted", "inverse")

    def test_adapted_needs_hook_and_length(self):
        with pytest.raises(InvalidParameterError):
            ProductSpec(factors=(), z0=np.eye(2), mode="adapted", n_steps=4)
        hook = NormBiasedTwoPointHook(2)
        with pytest.raises(InvalidParameterError):
            ProductSpec(factors=(), z0=np.eye(2), mode="adapted", adapted_hook=hook)
        ok = ProductSpec(factors=(), z0=np.eye(2), mode="adapted",
                         adapted_hook=hook, n_steps=4)
        assert ok.n == 4

    def test_adapted_hook_needs_the_batched_form(self):
        class PerHistory:
            dim = 2

            def conditional_support(self, history):
                return ((np.eye(2), 1.0),)

        with pytest.raises(InvalidParameterError, match="conditional_supports"):
            ProductSpec(factors=(), z0=np.eye(2), mode="adapted",
                        adapted_hook=PerHistory(), n_steps=3)

    def test_needs_factors_and_matching_dims(self):
        with pytest.raises(InvalidParameterError):
            ProductSpec(factors=(), z0=np.eye(2))
        e = make_bounded_perturbation(2, np.zeros((2, 2)), 0.1, 1.0)
        with pytest.raises(InvalidInputError):
            ProductSpec(factors=(e,), z0=np.eye(3))

    def test_inverse_needs_square_start(self):
        e = make_bounded_perturbation(2, np.zeros((2, 2)), 0.1, 1.0)
        with pytest.raises(InvalidInputError):
            ProductSpec(factors=(e,), z0=np.ones((2, 1)), mode="inverse")


class TestSimulateProduct:
    def test_bitwise_reproducible(self):
        spec = matrix_two_point()
        a = simulate_product(spec, 16, seed=7)
        b = simulate_product(spec, 16, seed=7)
        assert all(np.array_equal(x, y) for x, y in zip(a.z, b.z))

    def test_seed_and_key_separate_streams(self):
        spec = matrix_two_point()
        base = np.stack(simulate_product(spec, 16, seed=7).z)
        other_seed = np.stack(simulate_product(spec, 16, seed=8).z)
        other_key = np.stack(simulate_product(spec, 16, seed=7, key=(1,)).z)
        assert not np.array_equal(base, other_seed)
        assert not np.array_equal(base, other_key)

    def test_trial_extension_is_prefix_stable(self):
        # trial k depends only on (seed, k), not on the trial count
        spec = matrix_two_point()
        short = simulate_product(spec, 4, seed=3)
        long = simulate_product(spec, 8, seed=3)
        assert all(np.array_equal(x, y) for x, y in zip(short.z, long.z[:4]))

    def test_zero_radius_is_deterministic(self):
        spec = matrix_two_point(radius=0.0, n=3)
        out = simulate_product(spec, 5, seed=0)
        want = expected_product(spec)
        assert all(np.array_equal(z, out.z[0]) for z in out.z)
        assert np.allclose(out.z[0], want, rtol=1e-15)

    def test_trials_validation(self):
        with pytest.raises(InvalidParameterError):
            simulate_product(scalar_two_point(), 0, seed=0)


class DrawnSupport:
    """A finite support behind a sampler that is not a SupportSampler: Monte
    Carlo takes its draws as a per-chunk atom stack, as it takes sphere draws."""

    def __init__(self, support):
        self.support = support

    def draws(self, rng, count):
        return self.support.atoms[[bisect.bisect_right(self.support.cum, u)
                                   for u in rng.random(count)]]


def reference_draw(e, rng):
    """One factor drawn by single reads of ``rng``: a support atom by
    bisect_right on one uniform, a uniform-sphere draw from one normal matrix,
    drawn again while its norm is 0."""
    s = e.sampler.support if isinstance(e.sampler, DrawnSupport) else e.sampler
    if isinstance(s, SupportSampler):
        return s.atoms[bisect.bisect_right(s.cum, rng.random())]
    g = rng.standard_normal((e.dim, e.dim))
    while spectral_norm(g) == 0.0:
        g = rng.standard_normal((e.dim, e.dim))
    return s.base + s.scale * (g / spectral_norm(g))


def reference_loop(spec, trials, seed, key=(), stream=substream):
    """One trial and one factor draw at a time: the loop the kernel replaces."""
    inverse = spec.mode == "inverse"
    start = np.linalg.solve(spec.z0, np.eye(spec.d)) if inverse else spec.z0
    zs, excluded = [], []
    for k in range(trials):
        rng = stream(seed, *key, k)
        ys = [reference_draw(e, rng) for e in spec.factors]
        prod = start
        if inverse:
            cond_est = np.linalg.cond(spec.z0)
            for y in ys:
                cond_est *= np.linalg.cond(y)
            if cond_est > CONDITION_LIMIT:  # not solved: its atoms may be singular
                excluded.append(k)
                continue
        for y in ys:
            prod = np.linalg.solve(y.T, prod.T).T if inverse else y @ prod
        if inverse and not np.all(np.isfinite(prod)):
            excluded.append(k)
        else:
            zs.append(prod)
    return zs, excluded


def conditional_support(hook, prod):
    """The hook's (atom, probability) pairs for one path's running product
    Z_{i-1}, diagonal atoms expanded to dense matrices."""
    atoms, probs = hook.conditional_supports(prod[None])
    return [(np.diag(a) if a.ndim == 1 else a, prob) for a, prob in zip(atoms, probs[0])]


class HistoryFree:
    """A hook written here that ignores the history: a finite-support
    ensemble's atoms, or diagonals, and one row of probabilities for any runs."""

    def __init__(self, ensemble):
        self.dim, self.support = ensemble.dim, ensemble.support

    def conditional_supports(self, runs):
        s = self.support
        return (s.atoms if s.diagonals is None else s.diagonals), np.array([s.probs])


def walk(spec):
    """The blocks of a spec's enumeration walk, (weights, products, references)."""
    return simulate._spec_walk(spec)()


def assert_bitwise_equal(zs, want):
    assert len(zs) == len(want)
    if want:
        assert np.stack(zs).tobytes() == np.stack(want).tobytes()


def assert_matches_where_finite(got, want):
    """The kernel's contract against a dense reference, trial by trial or path
    by path: the reference's bits where it is finite, and non-finite exactly
    where it is; a non-finite product's bits are unspecified. On a finite
    reference this is bitwise equality. Returns the reference's finite mask."""
    assert len(got) == len(want)
    got, want = np.stack(got), np.stack(want)
    finite = np.isfinite(want).all(axis=(1, 2))
    assert np.isfinite(got).all(axis=(1, 2)).tolist() == finite.tolist()
    assert got[finite].tobytes() == want[finite].tobytes()
    return finite


def assert_matches_reference(spec, trials, seed, key=(), stream=substream):
    sim = simulate_product(spec, trials, seed, key)
    zs, excluded = reference_loop(spec, trials, seed, key, stream)
    assert sim.excluded_indices == excluded
    assert sim.excluded == len(excluded)
    assert_bitwise_equal(sim.z, zs)
    return sim


def uniforms(spec, seed, ks, key=()):
    """The (T, n) uniforms a chunk of a finite-support spec reads (_stream_reads)."""
    u, draws = simulate._stream_reads(spec, [e.sampler for e in spec.factors], seed, key, ks)
    assert draws == {}
    return u


def count_draws(monkeypatch):
    """Counts FactorEnsemble.draw calls, by ensemble id."""
    calls = {}
    draw = FactorEnsemble.draw

    def counting(self, rng):
        calls[id(self)] = calls.get(id(self), 0) + 1
        return draw(self, rng)

    monkeypatch.setattr(FactorEnsemble, "draw", counting)
    return calls


def inverse_with_exclusions(n=8):
    # atom condition numbers 15.1 and 47.8: about one trial in seven
    # multiplies up past CONDITION_LIMIT
    e = make_bounded_perturbation(4, np.diag([0.6, 0.0, 0.0, -0.2]), 0.9, 1.0)
    return ProductSpec(factors=(e,) * n, z0=np.eye(4), mode="inverse")


def tall_start(d, r, seed=0):
    z0 = substream(seed).standard_normal((d, r))
    return z0 / np.linalg.norm(z0)


def signed_zero_start(d, r):
    """A start with -0 entries between negative and positive ones."""
    z0 = tall_start(d, r, seed=1)
    z0[::3] = -0.0
    return z0


def rank_one_mixed(d, r, repeat=5):
    """Rank-one flips and coordinate projectors between dense perturbations."""
    return ProductSpec((make_rademacher_rank_one(d),
                        make_bounded_perturbation(d, 0.2 * np.eye(d), 0.4, 3.0),
                        make_random_projector_contraction(d),
                        make_rademacher_rank_one(d)) * repeat, tall_start(d, r))


IGNORE_OVERFLOW = pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                                             "ignore:invalid value encountered:RuntimeWarning")


def overflowing_rank_one(n=30):
    # each doubling of a 1e308 coordinate overflows; zeroing it afterwards
    # gives NaN through 0 * inf, so some trials end non-finite and some not
    return ProductSpec((make_rademacher_rank_one(4),) * n, np.full((4, 2), 1e308))


def kaczmarz_d64():
    rows = substream(2).standard_normal((9, 64))
    return ProductSpec((make_random_projector_contraction(64, "kaczmarz-row", rows),) * 6,
                       tall_start(64, 1))


def diagonal_ensemble(d):
    """Two diagonal atoms, +1 and -1 in the first coordinate, without a d-atom stack."""
    diagonals = np.ones((2, d))
    diagonals[1, 0] = -1.0
    sampler = SupportSampler.from_diagonals(diagonals, (0.5, 0.5))
    return FactorEnsemble(dim=d, sampler=sampler, stats=FactorStats(1.0, 0.0))


def dense_twin(spec):
    """The same spec with every sampler's diagonals forgotten: dense steps only."""
    twins = [SupportSampler(e.sampler.atoms, e.sampler.probs) for e in spec.factors]
    return ProductSpec(tuple(replace(e, sampler=s) for e, s in zip(spec.factors, twins)),
                       spec.z0, mode=spec.mode)


class TestBatchedKernel:
    """The trial-batched kernel against the per-trial loop, bit for bit."""

    @pytest.mark.parametrize("make_spec", [
        pytest.param(lambda: matrix_two_point(dim=5, n=40, radius=0.8), id="two-point"),
        pytest.param(lambda: ProductSpec((make_rademacher_rank_one(12),) * 30,
                                         tall_start(12, 1)), id="rank-one-one-column"),
        pytest.param(lambda: ProductSpec((make_random_projector_contraction(5),) * 20,
                                         np.eye(5)), id="coordinate-projector"),
        pytest.param(lambda: ProductSpec(
            (make_random_projector_contraction(
                4, "kaczmarz-row", substream(1).standard_normal((7, 4))),) * 25,
            tall_start(4, 2)), id="kaczmarz"),
        pytest.param(lambda: ProductSpec(
            (make_bounded_perturbation(3, 0.2 * np.eye(3), 0.4, 3.0),
             make_random_projector_contraction(3),
             make_bounded_perturbation(3, np.zeros((3, 3)), 0.0, 1.0)) * 4,
            np.eye(3)), id="mixed-supports"),
        pytest.param(lambda: ProductSpec((make_rademacher_rank_one(12),) * 30,
                                         -np.abs(tall_start(12, 1))), id="rank-one-negative"),
        pytest.param(lambda: ProductSpec((make_rademacher_rank_one(12),) * 30,
                                         signed_zero_start(12, 2)), id="rank-one-signed-zero"),
        pytest.param(lambda: ProductSpec((make_rademacher_rank_one(12),) * 30,
                                         tall_start(12, 3)), id="rank-one-three-columns"),
        pytest.param(lambda: ProductSpec((make_rademacher_rank_one(1),) * 12,
                                         np.array([[-0.75]])), id="rank-one-d1"),
        pytest.param(lambda: rank_one_mixed(5, 2), id="diagonal-and-dense"),
        pytest.param(overflowing_rank_one, id="rank-one-overflow", marks=IGNORE_OVERFLOW),
        pytest.param(lambda: conjugated_spec(matrix_two_point(dim=3, n=6),
                                             np.diag([1.0, 2.0, 3.0])), id="conjugated"),
    ])
    def test_matches_per_trial_loop(self, make_spec, monkeypatch):
        spec = make_spec()
        calls = count_draws(monkeypatch)
        sim = simulate_product(spec, 150, seed=31)
        assert calls == {}  # no per-factor draws on the batched path
        zs, excluded = reference_loop(spec, 150, seed=31)
        assert excluded == []
        assert_matches_where_finite(sim.z, zs)

    def test_uniforms_are_the_stacked_rows(self):
        ks = range(5, 42)
        want = np.stack([substream(7, 2, 1, k).random(23) for k in ks])
        got = uniforms(ProductSpec((make_rademacher_rank_one(2),) * 23, np.eye(2)), 7, ks, (2, 1))
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert got[3].tobytes() == substream(7, 2, 1, 8).random(23).tobytes()

    @pytest.mark.parametrize("make_spec, distinct", [
        pytest.param(lambda: matrix_two_point(dim=10, n=200), 1, id="one-sampler"),
        pytest.param(lambda: ProductSpec((make_rademacher_rank_one(100),) * 50,
                                         tall_start(100, 1)), 1, id="rank-one"),
        pytest.param(lambda: ProductSpec(
            (make_bounded_perturbation(3, 0.2 * np.eye(3), 0.4, 3.0),
             make_random_projector_contraction(3),
             make_bounded_perturbation(3, np.zeros((3, 3)), 0.0, 1.0)) * 4,
            np.eye(3)), 3, id="mixed-supports"),
    ])
    def test_one_pick_per_distinct_sampler(self, make_spec, distinct, monkeypatch):
        spec = make_spec()
        samplers = [e.sampler for e in spec.factors]
        calls = []
        pick = SupportSampler.pick

        def counting(self, u):
            calls.append((id(self), u.shape))
            return pick(self, u)

        monkeypatch.setattr(SupportSampler, "pick", counting)
        u = uniforms(spec, 31, range(40))
        simulate._sampled_chunk(spec, spec.z0, simulate._laws(spec), u, {})
        assert len(calls) == len({id(s) for s in samplers}) == distinct
        assert sum(shape[1] for _, shape in calls) == spec.n
        assert all(shape[0] == 40 for _, shape in calls)

    @IGNORE_OVERFLOW
    def test_overflow_takes_the_dense_products(self):
        # the rank-one-overflow case reaches both sides of the contract: some
        # trials overflow and some do not. Past an overflow, dense steps spread
        # NaN through 0 * inf and scaled rows keep finite entries, so there only
        # the finiteness is the dense products'
        spec = overflowing_rank_one()
        finite = assert_matches_where_finite(simulate_product(spec, 150, seed=31).z,
                                             reference_loop(spec, 150, seed=31)[0])
        assert 0 < finite.sum() < 150

    @pytest.mark.parametrize("make_spec, finite", [
        pytest.param(lambda: ProductSpec((make_rademacher_rank_one(3),) * 4,
                                         signed_zero_start(3, 2)), True, id="rank-one"),
        pytest.param(lambda: rank_one_mixed(3, 1, repeat=1), True, id="diagonal-and-dense"),
        pytest.param(lambda: overflowing_rank_one(n=5), False, id="rank-one-overflow",
                     marks=IGNORE_OVERFLOW),
    ])
    def test_enumeration_matches_dense_steps(self, make_spec, finite):
        spec = make_spec()
        twin = dense_twin(spec)
        assert all(e.sampler.diagonals is None for e in twin.factors)
        for (w, prod, _), (w_want, want, _) in zip(walk(spec), walk(twin), strict=True):
            assert w.tobytes() == w_want.tobytes()
            assert_matches_where_finite(prod, want)
            assert np.isfinite(prod).all() == finite
        if finite:
            got, want = (enumerate_product(s, 3.0, 2.0, (1.0,), (0.5,)) for s in (spec, twin))
            assert got.mean.tobytes() == want.mean.tobytes()
            assert replace(got, mean=None) == replace(want, mean=None)

    def test_inverse_with_excluded_trials(self):
        sim = assert_matches_reference(inverse_with_exclusions(), 200, seed=8)
        assert 0 < sim.excluded < 200

    def test_trials_span_several_chunks(self, monkeypatch):
        # a budget of seven 4x4 atoms makes chunks of 7 trials
        monkeypatch.setattr(simulate, "GATHER_BUDGET", 7 * 16 * 8)
        sim = assert_matches_reference(inverse_with_exclusions(), 200, seed=8)
        assert 0 < sim.excluded < 200
        assert_matches_reference(matrix_two_point(dim=4, n=12), 50, seed=2, key=(3,))
        # and 30 uniforms a trial make chunks of 3 for diagonal steps
        rank_one = ProductSpec((make_rademacher_rank_one(12),) * 30, tall_start(12, 1))
        assert simulate._chunk_size(rank_one, [e.sampler for e in rank_one.factors])[0] == 3
        assert_matches_reference(rank_one, 50, seed=2)

    def test_atom_conditions_found_once_per_sampler(self, monkeypatch):
        # inverse chunks of 7 trials: 29 chunks share one support's condition numbers
        monkeypatch.setattr(simulate, "GATHER_BUDGET", 7 * 16 * 8)
        stacks = []

        def counting(stack):
            stacks.append(np.shape(stack))
            return condition_numbers(stack)
        monkeypatch.setattr(ensembles, "condition_numbers", counting)
        spec = inverse_with_exclusions()
        assert_matches_reference(spec, 200, seed=8)
        assert stacks == [spec.factors[0].sampler.atoms.shape]

    def test_chunks_cover_long_products(self):
        # d = 64 Kaczmarz rows gather 32 KB per atom, so the default budget
        # makes chunks of 16
        spec = kaczmarz_d64()
        assert simulate._chunk_size(spec, [e.sampler for e in spec.factors])[0] == 16
        assert_matches_reference(spec, 40, seed=4)

    @pytest.mark.parametrize("make_spec, dense", [
        pytest.param(lambda: matrix_two_point(dim=10, n=200), True, id="two-point"),
        pytest.param(lambda: ProductSpec(matrix_two_point(dim=4, n=3).factors, tall_start(4, 2000)),
                     True, id="two-point-wide-start"),
        pytest.param(kaczmarz_d64, True, id="kaczmarz-d64"),
        pytest.param(lambda: ProductSpec((make_rademacher_rank_one(4),) * 3, np.eye(4),
                                         mode="inverse"), True, id="inverse-rank-one"),
        pytest.param(lambda: ProductSpec((diagonal_ensemble(100),) * 50, tall_start(100, 1)),
                     False, id="diagonal-one-column"),
        pytest.param(lambda: ProductSpec((diagonal_ensemble(64),) * 6, tall_start(64, 200)),
                     False, id="diagonal-wide-start"),
        pytest.param(lambda: ProductSpec((diagonal_ensemble(300),) * 6, tall_start(300, 300)),
                     False, id="diagonal-d300-r300"),
    ])
    def test_chunk_bounds_what_a_step_holds(self, make_spec, dense):
        spec = make_spec()
        chunk, step = simulate._chunk_size(spec, [e.sampler for e in spec.factors])
        # a step makes a d x r product per trial, after gathering a d x d atom
        # when dense
        assert step >= 8 * spec.d * spec.r
        if dense:
            assert step >= 8 * spec.d * spec.d
        # one trial always runs, however much it holds
        assert chunk * max(step, 8 * spec.n) <= simulate.GATHER_BUDGET or chunk == 1

    def test_triangular_rows_are_keyed(self):
        a = 0.3 * np.eye(3)
        rows = triangular_array_run(a, 0.5, 3, [4, 16], 64, seed=15)
        for j, (n, row) in enumerate(zip((4, 16), rows)):
            e = make_bounded_perturbation(3, a, 0.5, n)
            spec = ProductSpec((e,) * n, np.eye(3), mode="independent")
            assert_matches_reference(spec, 64, seed=15, key=(j,))
            zs, _ = reference_loop(spec, 64, seed=15, key=(j,))
            dev = np.linalg.svd(np.stack(zs) - expected_product(spec), compute_uv=False)[:, 0]
            assert row.deviation_from_mean.mean == float(dev.mean())


def invertible_diagonal(d):
    """Three diagonal atoms with no zero on their diagonals, so inverse mode can run."""
    diagonals = np.linspace(0.5, 2.0, 3 * d).reshape(3, d) * np.array([[1.0], [-1.0], [1.0]])
    sampler = SupportSampler.from_diagonals(diagonals, (0.25, 0.25, 0.5))
    return FactorEnsemble(dim=d, sampler=sampler, stats=FactorStats(1.0, 0.0))


class TestDiagonalSamplers:
    """A diagonal sampler keeps only its diagonals until dense atoms are read,
    and every reader of them gets the bytes of the dense sampler."""

    def test_rank_one_compare_never_writes_atoms(self):
        bounds = ["lowrank-growth", "lowrank-concentration"]
        # the rank-one preset's shape: d = 100, 50 flips, one column
        e = make_rademacher_rank_one(100)
        spec = ProductSpec((e,) * 50, tall_start(100, 1))
        rows, meta = comparison_rows(spec, p=11.2, trials=150, bounds=bounds)
        assert meta["source"] == "monte-carlo" and not any(r.skipped for r in rows)
        small = make_rademacher_rank_one(5)
        rows, meta = comparison_rows(ProductSpec((small,) * 4, tall_start(5, 1)), p=4.0,
                                     trials=0, bounds=bounds)
        assert meta["outcomes"] == 10**4 and not any(r.skipped for r in rows)
        assert "atoms" not in vars(e.sampler)
        assert "atoms" not in vars(small.sampler)

    @IGNORE_OVERFLOW
    def test_overflow_matches_dense_twin(self):
        spec = overflowing_rank_one()
        sim = simulate_product(spec, 150, seed=31)
        enumerated = list(walk(overflowing_rank_one(n=5)))
        # past an overflow the diagonals still scale rows: no dense atom is written
        assert "atoms" not in vars(spec.factors[0].sampler)
        assert_matches_where_finite(sim.z, simulate_product(dense_twin(spec), 150, seed=31).z)
        for (w, prod, _), (w_want, want, _) in zip(
                enumerated, walk(dense_twin(overflowing_rank_one(n=5))), strict=True):
            assert w.tobytes() == w_want.tobytes()
            assert_matches_where_finite(prod, want)

    @pytest.mark.parametrize("make_spec", [
        pytest.param(lambda: ProductSpec((invertible_diagonal(3),) * 6,
                                         np.eye(3) + 0.1 * tall_start(3, 3)), id="diagonal"),
        pytest.param(lambda: ProductSpec(
            (invertible_diagonal(3), make_bounded_perturbation(3, 0.2 * np.eye(3), 0.3, 2.0)) * 3,
            np.eye(3)), id="diagonal-and-dense"),
    ])
    def test_inverse_mode_matches_dense_twin(self, make_spec):
        spec = replace(make_spec(), mode="inverse")
        twin = dense_twin(spec)
        got, want = (simulate_product(s, 120, seed=9) for s in (spec, twin))
        assert_bitwise_equal(got.z, want.z)
        assert got.excluded_indices == want.excluded_indices
        got, want = (enumerate_product(s, 3.0, 2.0, (1.0,), (0.5,)) for s in (spec, twin))
        assert got.mean.tobytes() == want.mean.tobytes()
        assert replace(got, mean=None) == replace(want, mean=None)

    def test_conjugation_matches_dense_twin(self):
        spec = ProductSpec((invertible_diagonal(3), make_rademacher_rank_one(3)) * 2, np.eye(3))
        s = np.array([[1.0, 0.2, 0.0], [0.0, 0.5, 0.1], [0.3, 0.0, 2.0]])
        got, want = (conjugated_spec(x, s) for x in (spec, dense_twin(spec)))
        for f, g in zip(got.factors, want.factors, strict=True):
            assert f.support.atoms.tobytes() == g.support.atoms.tobytes()
            assert f.support.probs == g.support.probs
            assert f.mean.tobytes() == g.mean.tobytes()
            assert f.stats == g.stats
        assert_bitwise_equal(simulate_product(got, 40, seed=6).z,
                             simulate_product(want, 40, seed=6).z)


def padded_diagonal(d=5):
    """Diagonal atoms that move 0 to 3 coordinates, some of them to 0.0 or
    -0.0, so their moves are padded to m = 3; atom 0 is the identity."""
    diagonals = np.ones((4, d))
    diagonals[1, [1, 3]] = [2.5, -0.5]
    diagonals[2, [0, 2, 4]] = [0.0, -0.0, -1.5]
    diagonals[3, 4] = 0.75
    sampler = SupportSampler.from_diagonals(diagonals, (0.2, 0.3, 0.25, 0.25))
    return FactorEnsemble(dim=d, sampler=sampler, stats=FactorStats(1.0, 0.0))


def thirds_diagonal(d=3):
    """Diagonal atoms that scale coordinate 0 by 3.0 or by 1/3: a run of them
    moves one entry many times, and 3.0 then 1/3 is not 1/3 then 3.0 in the
    last bit."""
    diagonals = np.ones((2, d))
    diagonals[:, 0] = [3.0, 1.0 / 3.0]
    sampler = SupportSampler.from_diagonals(diagonals, (0.5, 0.5))
    return FactorEnsemble(dim=d, sampler=sampler, stats=FactorStats(1.0, 0.0))


def full_steps(spec, u):
    """A chunk's products from its uniforms by full steps: every diagonal
    step scales every row of every trial (_step)."""
    prod = np.broadcast_to(spec.z0, (len(u), *spec.z0.shape))
    for e, col in zip(spec.factors, u.T):
        s = e.sampler
        prod = simulate._step(s.atoms if s.diagonals is None else s.diagonals, s.pick(col), prod)
    return prod


MOVE_SPECS = [
    pytest.param(lambda: ProductSpec((padded_diagonal(),) * 12, tall_start(5, 1)),
                 id="padded-one-column"),
    pytest.param(lambda: ProductSpec((padded_diagonal(),) * 12, signed_zero_start(5, 3)),
                 id="padded-signed-zero-three-columns"),
    pytest.param(lambda: ProductSpec((make_rademacher_rank_one(5),) * 12,
                                     signed_zero_start(5, 2)), id="rank-one-signed-zero"),
    pytest.param(lambda: ProductSpec(
        (padded_diagonal(), make_bounded_perturbation(5, 0.2 * np.eye(5), 0.4, 3.0),
         make_rademacher_rank_one(5), make_random_projector_contraction(5)) * 3,
        signed_zero_start(5, 2)), id="diagonal-dense-diagonal"),
    pytest.param(lambda: ProductSpec(
        (make_bounded_perturbation(5, -0.3 * np.eye(5), 0.4, 3.0), padded_diagonal(),
         padded_diagonal(), make_random_projector_contraction(5)) * 3,
        tall_start(5, 2)), id="dense-first"),
    pytest.param(lambda: ProductSpec(
        (FactorEnsemble(dim=4, sampler=SupportSampler.from_diagonals(np.ones((2, 4)), (0.5, 0.5)),
                        stats=FactorStats(1.0, 0.0)),) * 3,
        signed_zero_start(4, 2)), id="identity-moves-nothing"),
    pytest.param(overflowing_rank_one, id="rank-one-overflow", marks=IGNORE_OVERFLOW),
    pytest.param(lambda: ProductSpec((thirds_diagonal(),) * 40, tall_start(3, 2)),
                 id="one-entry-moved-forty-times"),
    pytest.param(lambda: ProductSpec((thirds_diagonal(),) * 40, signed_zero_start(3, 2)),
                 id="thirds-signed-zero"),
    pytest.param(lambda: ProductSpec((padded_diagonal(), thirds_diagonal(5)) * 6,
                                     signed_zero_start(5, 2)), id="two-diagonal-samplers"),
    pytest.param(lambda: ProductSpec((thirds_diagonal(),) * 40, np.full((3, 2), 1e307)),
                 id="thirds-overflow", marks=IGNORE_OVERFLOW),
]


class TestMoveSteps:
    """A diagonal step that changes only its moved entries has the bits of
    the full step, of dense atoms and of the per-trial loop."""

    @pytest.mark.parametrize("make_spec", MOVE_SPECS)
    def test_chunk_matches_full_steps(self, make_spec):
        spec = make_spec()
        u = uniforms(spec, 31, range(150))
        got, _ = simulate._sampled_chunk(spec, spec.z0, simulate._laws(spec), u, {})
        assert got.tobytes() == full_steps(spec, u).tobytes()

    @pytest.mark.parametrize("make_spec", MOVE_SPECS)
    def test_matches_dense_twin_and_per_trial_loop(self, make_spec):
        spec = make_spec()
        sim = simulate_product(spec, 150, seed=31)
        # the moves ran: no diagonal sampler wrote its dense atoms
        assert not any("atoms" in vars(e.sampler) for e in spec.factors
                       if e.sampler.diagonals is not None)
        assert_matches_where_finite(sim.z, simulate_product(dense_twin(spec), 150, seed=31).z)
        assert_matches_where_finite(sim.z, reference_loop(spec, 150, seed=31)[0])

    def test_padded_moves(self):
        s = padded_diagonal().sampler
        cols, vals = s.moves
        assert cols.shape == vals.shape == (4, 3)
        assert cols.tolist() == [[0, 1, 2], [1, 3, 0], [0, 2, 4], [4, 0, 1]]
        assert vals.tolist() == [[1.0] * 3, [2.5, -0.5, 1.0], [0.0, -0.0, -1.5], [0.75, 1.0, 1.0]]
        assert np.signbit(vals[2]).tolist() == [False, True, True]
        # an identity-only support moves nothing
        cols, vals = diagonal_moves(np.ones((2, 3)))
        assert cols.shape == vals.shape == (2, 0)

    @pytest.mark.parametrize("dim", [1, 2, 7])
    def test_makers_pass_the_moves_of_their_diagonals(self, dim):
        makers = [make_rademacher_rank_one] + [make_random_projector_contraction] * (dim > 1)
        for make in makers:
            s = make(dim).sampler
            (cols, vals), (want_cols, want_vals) = s.moves, diagonal_moves(s.diagonals)
            assert cols.shape == vals.shape == want_cols.shape == (len(s), 1)
            assert np.array_equal(cols, want_cols)
            assert vals.tobytes() == want_vals.tobytes()

    def test_the_thirds_are_order_sensitive(self):
        # the fold's order matters on these starts: a scatter out of step
        # order would show in test_chunk_matches_full_steps
        z = tall_start(3, 2)
        assert (z * 3.0 * (1.0 / 3.0)).tobytes() != (z * (1.0 / 3.0) * 3.0).tobytes()

    def test_long_run_in_budget_slices(self, monkeypatch):
        spec = ProductSpec((thirds_diagonal(),) * 40, tall_start(3, 2))
        laws = simulate._laws(spec)
        u = uniforms(spec, 31, range(150))
        whole, _ = simulate._sampled_chunk(spec, spec.z0, laws, u, {})
        # one step moves 150 trials x 2 entries: three steps a slice
        monkeypatch.setattr(simulate, "GATHER_BUDGET", 3 * 8 * 2 * 150)
        sliced, _ = simulate._sampled_chunk(spec, spec.z0, laws, u, {})
        assert sliced.tobytes() == whole.tobytes() == full_steps(spec, u).tobytes()

    def test_run_scatter_stays_within_the_budget(self):
        # n >> d and r > 1: the whole run's offsets and factors would hold
        # 2 x 4000 steps x 16 trials x 3 entries x 8 bytes, about 5.9 budgets
        d, n, r, trials = 4, 4000, 3, 16
        spec = ProductSpec((make_rademacher_rank_one(d),) * n, np.ones((d, r)))
        s = spec.factors[0].sampler
        moved = simulate._laws(spec)[0].moved
        digits = s.pick(uniforms(spec, 3, range(trials))).T.copy()
        prod = np.ones((trials, d, r))
        base = (np.arange(trials) * d * r)[:, None]
        tracemalloc.start()
        try:
            simulate._scatter(moved, digits, prod.reshape(-1), base)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * simulate.GATHER_BUDGET + 2**14
        want = full_steps(spec, uniforms(spec, 3, range(trials)))
        assert prod.tobytes() == want.tobytes()

    def test_coordinate_steps_allocate_no_row_block(self):
        # d = 2000, one column: a step that gathered (T, d) diagonal rows, or
        # wrote a new (T, d, 1) product, would hold two more product-sized blocks
        d, n = 2000, 40
        diagonals = np.ones((8, d))
        diagonals[range(8), range(0, d, d // 8)] = np.tile([0.0, 2.0], 4)
        e = FactorEnsemble(dim=d, sampler=SupportSampler.from_diagonals(diagonals, (0.125,) * 8),
                           stats=FactorStats(1.0, 0.0))
        spec = ProductSpec((e,) * n, tall_start(d, 1))
        samplers = [e.sampler] * n
        chunk, _ = simulate._chunk_size(spec, samplers)
        u, laws = uniforms(spec, 3, range(chunk)), simulate._laws(spec)
        block = chunk * d * 8
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            prod, _ = simulate._sampled_chunk(spec, spec.z0, laws, u, {})
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert prod.nbytes == block
        assert peak < block + block // 2
        assert prod.tobytes() == full_steps(spec, u).tobytes()


def sphere(d=3, radius=0.5, mean=0.1):
    return make_bounded_perturbation(d, mean * np.eye(d), radius, 10, "uniform-sphere")


class ZeroingStream:
    """A trial's stream whose normal matrices at the read positions ``zeros``
    come out 0, so that a uniform-sphere draw there has norm 0 and is redrawn."""

    def __init__(self, rng, zeros, d):
        self.rng, self.zeros, self.d, self.read = rng, zeros, d, 0

    def random(self, size=None, out=None):
        return self.rng.random(size, out=out)

    def standard_normal(self, size):
        g = self.rng.standard_normal(size)
        for j, matrix in enumerate(g.reshape(-1, self.d, self.d), self.read):
            if j in self.zeros:
                matrix[...] = 0.0
        self.read += g.size // self.d**2
        return g


def sphere_mixed():
    """Runs of two sphere samplers between two-point and diagonal factors."""
    a, b = sphere(4), sphere(4, radius=0.9, mean=-0.2)
    two_point = make_bounded_perturbation(4, 0.2 * np.eye(4), 0.4, 3.0)
    return ProductSpec((a, a, two_point, make_rademacher_rank_one(4), b, a,
                        make_random_projector_contraction(4), two_point, b, b) * 3,
                       tall_start(4, 2))


SPHERE_SPECS = [
    pytest.param(lambda: ProductSpec((sphere(),) * 30, np.eye(3)), id="sphere"),
    pytest.param(lambda: ProductSpec((sphere(),) * 30, np.eye(3), mode="inverse"),
                 id="inverse-sphere"),
    pytest.param(sphere_mixed, id="mixed"),
    pytest.param(lambda: ProductSpec((sphere(4),) * 12, np.eye(4), mode="inverse"),
                 id="inverse-short"),
    # one trial's run of draws is a norm stack that the norm layer splits
    pytest.param(lambda: ProductSpec((sphere(2, 0.05),) * (PARALLEL_MATRICES + 88),
                                     np.eye(2)), id="sphere-long"),
]


class TestDrawnFactors:
    """Drawn factors, such as uniform-sphere perturbations, go through the
    gather kernel as per-chunk atom stacks, bit for bit the per-trial loop."""

    @pytest.mark.parametrize("chunk", [None, 1, 3], ids=["budget", "chunk-1", "chunk-3"])
    @pytest.mark.parametrize("make_spec", SPHERE_SPECS)
    def test_matches_per_trial_loop(self, make_spec, chunk, monkeypatch):
        spec = make_spec()
        if chunk is not None:
            monkeypatch.setattr(simulate, "_chunk_size", lambda spec, samplers: (chunk, 0))
        calls = count_draws(monkeypatch)
        sim = assert_matches_reference(spec, 12, seed=5)
        assert calls == {}  # no draw one factor at a time
        assert sim.trials == 12 and sim.z

    def test_chunk_counts_the_draws(self):
        # d = 10, n = 200: a trial holds 200 draws of 800 bytes
        spec = ProductSpec((sphere(10),) * 200, np.eye(10))
        chunk, _ = simulate._chunk_size(spec, [e.sampler for e in spec.factors])
        assert chunk == simulate.GATHER_BUDGET // (200 * 800) == 3

    @pytest.mark.parametrize("make_spec", SPHERE_SPECS[:3])
    def test_zero_norm_draws_are_redrawn(self, make_spec, monkeypatch):
        # reads 3 and 5 of each trial's normals come out zero, and so does
        # read 30, the first of a sphere-only trial's top-up
        spec, zeros = make_spec(), {3, 5, 30}

        def stream(*args):
            return ZeroingStream(substream(*args), zeros, spec.d)
        monkeypatch.setattr(simulate, "substream", stream)
        sim = assert_matches_reference(spec, 6, seed=5, stream=stream)
        monkeypatch.undo()
        plain = simulate_product(spec, 6, seed=5)
        assert len(sim.z) == len(plain.z) == 6
        assert all(x.tobytes() != y.tobytes() for x, y in zip(sim.z, plain.z))

    def test_mixed_reads_are_single_reads(self):
        # the stream order the kernel relies on: a trial's random(k) and
        # standard_normal((k, d, d)) blocks give the bits of single draws
        a, b = substream(7, 3), substream(7, 3)
        out = np.empty(4)
        blocks = [a.random(7), a.standard_normal((5, 3, 3)), a.random(out=out), a.random(1)]
        singles = [np.array([b.random() for _ in range(7)]),
                   np.stack([b.standard_normal((3, 3)) for _ in range(5)]),
                   np.array([b.random() for _ in range(4)]), np.array([b.random()])]
        for block, single in zip(blocks, singles, strict=True):
            assert block.tobytes() == single.tobytes()

    def test_sphere_chunk_stays_within_the_budget(self):
        spec = ProductSpec((sphere(10),) * 200, np.eye(10))
        chunk, _ = simulate._chunk_size(spec, [e.sampler for e in spec.factors])
        tracemalloc.start()
        try:
            for prod, _ in simulate._trial_chunks(spec, 4 * chunk, 7, ()):
                peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the chunk's draws fill most of one budget; one trial's block of
        # normals and its norm stack come on top
        assert peak < 2 * simulate.GATHER_BUDGET
        assert prod.shape == (chunk, 10, 10)


class TestHandEnumeration:
    def test_scalar_two_point_exact(self):
        spec = scalar_two_point(n=2)
        rep = enumerate_product(spec, p=2.0, q=2.0,
                                thresholds_growth=(1.0, 1.2),
                                thresholds_deviation=(0.2,))
        assert rep.outcomes == 4
        assert rep.reference == "mean"
        assert rep.mean == pytest.approx(np.array([[1.0]]), rel=1e-15)
        assert rep.growth_mean == pytest.approx(1.0, rel=1e-14)
        assert rep.deviation_mean == pytest.approx(0.105, rel=1e-14)
        assert rep.growth_moment == pytest.approx(1.01, rel=1e-14)
        assert rep.deviation_moment == pytest.approx(math.sqrt(0.0201), rel=1e-14)
        assert rep.spectral_radius_mean == pytest.approx(1.0, rel=1e-14)
        # outcomes 0.81, 0.99, 0.99, 1.21; deviations 0.19, 0.01, 0.01, 0.21
        assert rep.tail_growth[1.0] == pytest.approx(0.25, rel=1e-14)
        assert rep.tail_growth[1.2] == pytest.approx(0.25, rel=1e-14)
        assert rep.tail_deviation[0.2] == pytest.approx(0.25, rel=1e-14)

    def test_rectangular_start_skips_radius(self):
        e = make_bounded_perturbation(2, np.zeros((2, 2)), 0.1, 2.0)
        spec = ProductSpec(factors=(e,) * 2, z0=np.eye(2)[:, :1])
        rep = enumerate_product(spec)
        assert rep.spectral_radius_mean is None
        assert rep.outcomes == 4

    def test_matches_monte_carlo(self):
        spec = matrix_two_point(dim=2, n=4)
        rep = enumerate_product(spec, p=3.0, q=2.0)
        est = summarize_simulation(spec, 4096, 11, p=3.0, q=2.0)[0]
        for key, truth in [("spectral-norm-mean", rep.growth_mean),
                           ("schatten-moment", rep.growth_moment),
                           ("deviation-norm-mean", rep.deviation_mean),
                           ("deviation-schatten-moment", rep.deviation_moment)]:
            e = est[key]
            slack = 5.0 * max(e.std_error, 1e-12)
            assert abs(e.mean - truth) <= slack, (key, e.mean, truth)

    def test_q_validation(self):
        with pytest.raises(InvalidParameterError):
            enumerate_product(scalar_two_point(), q=0.5)

    def test_budget_enforced_with_details(self):
        spec = scalar_two_point(n=21)  # 2^21 outcomes
        with pytest.raises(EnumerationInfeasibleError) as info:
            enumerate_product(spec)
        assert info.value.required == 2**21
        assert info.value.budget == ENUMERATION_BUDGET

    def test_sampled_support_rejected(self):
        e = make_bounded_perturbation(2, np.zeros((2, 2)), 0.1, 2.0,
                                      support="uniform-sphere")
        spec = ProductSpec(factors=(e,) * 2, z0=np.eye(2))
        with pytest.raises(UnsupportedEnsembleError):
            enumerate_product(spec)


class TestConfidenceIntervals:
    def test_z99_is_scipy_ndtri_bit_for_bit(self):
        assert simulate.LEVEL == 0.99
        assert simulate._Z99 == float(scipy.special.ndtri(0.995))

    def test_clopper_pearson_closed_forms(self):
        # the closed forms at hits == 0 and hits == trials are the values
        # scipy.special.betaincinv returns there, not approximations of them
        trials = np.arange(1, 5001)
        level = simulate.LEVEL
        upper = scipy.special.betaincinv(1, trials, level).tolist()
        lower = scipy.special.betaincinv(trials, 1, 1.0 - level).tolist()
        for n, ucl, lcl in zip(trials.tolist(), upper, lower):
            assert clopper_pearson(0, n) == (0.0, ucl), n
            assert clopper_pearson(n, n) == (lcl, 1.0), n

    def test_clopper_pearson_interior_matches_scipy(self):
        n = 500
        lcl, ucl = clopper_pearson(3, n)
        assert lcl == float(scipy.special.betaincinv(3, n - 2, 1.0 - 0.99))
        assert ucl == float(scipy.special.betaincinv(4, n - 3, 0.99))
        assert 0.0 < lcl < 3.0 / n < ucl < 1.0
        assert clopper_pearson(np.int64(3), n) == (lcl, ucl)

    @pytest.mark.parametrize("hits, trials", [
        (0, 0),      # no trials
        (5, 3),      # more hits than trials
        (-1, 3),     # negative hits
        (1.5, 3),    # hits not an integer
    ])
    def test_clopper_pearson_rejects_bad_input(self, hits, trials):
        with pytest.raises(InvalidParameterError):
            clopper_pearson(hits, trials)

    def test_interval_coverage_of_exact_values(self):
        # 99% intervals over 100 disjoint substream batches cover the exact
        # enumerated value at least 99 times for every reported quantity
        spec = scalar_two_point(n=2)
        rep = enumerate_product(spec, p=2.0, q=2.0)
        truths = {
            "spectral-norm-mean": rep.growth_mean,
            "schatten-moment": rep.growth_moment,
            "spectral-radius-mean": rep.spectral_radius_mean,
            "deviation-norm-mean": rep.deviation_mean,
            "deviation-schatten-moment": rep.deviation_moment,
        }
        covered = {k: 0 for k in truths}
        for j in range(100):
            est = summarize_simulation(spec, 400, 1729, p=2.0, q=2.0, key=(j,))[0]
            for key, truth in truths.items():
                e = est[key]
                covered[key] += int(e.ci_low - 1e-12 <= truth <= e.ci_high + 1e-12)
        for key, hits in covered.items():
            assert hits >= 99, (key, hits)


class TestEstimateNormStatistics:
    """The estimates of summarize_simulation: names, intervals and tail counts."""

    def test_quantity_names_and_radius_only_when_square(self):
        est = summarize_simulation(matrix_two_point(), 32, 0, p=2.0, q=2.0)[0]
        assert set(est) == {"spectral-norm-mean", "schatten-moment", "spectral-radius-mean",
                            "deviation-norm-mean", "deviation-schatten-moment"}
        e = make_bounded_perturbation(2, np.zeros((2, 2)), 0.1, 2.0)
        tall = ProductSpec(factors=(e,) * 2, z0=np.eye(2)[:, :1])
        assert "spectral-radius-mean" not in summarize_simulation(tall, 8, 0)[0]

    def test_moment_interval_nonnegative(self):
        est = summarize_simulation(scalar_two_point(), 8, 0, p=2.0, q=4.0)[0]
        m = est["schatten-moment"]
        assert m.ci_low >= 0.0
        assert m.ci_low <= m.mean <= m.ci_high

    def test_validation(self):
        with pytest.raises(InvalidParameterError, match="q must satisfy"):
            summarize_simulation(scalar_two_point(), 8, 0, q=0.5)
        with pytest.raises(InvalidParameterError, match="trials must be positive"):
            summarize_simulation(scalar_two_point(), 0, 0)

    def test_tail_frequencies_exact_counts(self):
        spec = scalar_two_point(n=2)
        _, (growth, dev), _, _ = summarize_simulation(spec, 64, 5, thresholds_growth=(1.2,),
                                                      thresholds_deviation=(0.15,))
        values = np.stack(simulate_product(spec, 64, seed=5).z)[:, 0, 0]
        assert growth.quantity == "growth-tail" and dev.quantity == "deviation-tail"
        assert growth.hits == int((values >= 1.2).sum())
        deviations = np.abs(values - expected_product(spec)[0, 0])
        assert 0 < dev.hits == int((deviations >= 0.15).sum())
        assert growth.lcl <= growth.frequency <= growth.ucl
        assert growth.frequency == growth.hits / 64


def adapted_spec(n=6):
    hook = NormBiasedTwoPointHook(2, scale=0.1, high=0.7)
    return ProductSpec(factors=(), z0=np.eye(2), mode="adapted", adapted_hook=hook, n_steps=n)


def ill_conditioned_inverse():
    # atoms I +/- (1 - 1e-7) U have eigenvalues 1e-7 and 2 - 1e-7, so each
    # factor contributes condition ~ 2e7 and two factors overflow the limit
    e = make_bounded_perturbation(2, np.zeros((2, 2)), 1.0 - 1e-7, 1.0)
    return ProductSpec(factors=(e,) * 2, z0=np.eye(2), mode="inverse")


def mean_estimate(values, quantity, seed):
    """The per-column estimate rule the estimate table replaced, kept as its
    oracle: each column's own mean() and std(ddof=1)."""
    n = values.size
    mean = float(values.mean())
    se = float(values.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return MCEstimate(quantity, mean, se, mean - simulate._Z99 * se, mean + simulate._Z99 * se,
                      n, seed)


def moment_estimate(powers, q, quantity, seed):
    est = mean_estimate(powers, quantity, seed)  # of the q-th powers; then their root
    m, root = est.mean, 1.0 / q
    se = est.std_error * m ** (root - 1.0) / q if m > 0 else 0.0
    return replace(est, mean=m ** root, std_error=se, ci_low=max(est.ci_low, 0.0) ** root,
                   ci_high=est.ci_high ** root)


def whole_stack_summary(spec, trials, seed, p, q, tg, td, key=(), spectral_radius=True):
    """The reduction the streaming summary replaced, kept as its oracle: every
    trial's product kept, then one norm stack for all products and one for all
    their deviations from the mode's reference, each column estimated alone."""
    sim = simulate_product(spec, trials, seed, key)
    stack = np.stack(sim.z)
    spectral, schatten = stack_norms(stack, p)
    if spec.mode == "inverse":
        dev = None
    else:
        dev = stack_norms(stack - expected_product(spec), p)
    est = {
        "spectral-norm-mean": mean_estimate(spectral, "spectral-norm-mean", seed),
        "schatten-moment": moment_estimate(schatten**q, q, "schatten-moment", seed),
    }
    if spectral_radius and spec.d == spec.r:
        est["spectral-radius-mean"] = mean_estimate(
            spectral_radii(stack), "spectral-radius-mean", seed)
    if dev is not None:
        est["deviation-norm-mean"] = mean_estimate(dev[0], "deviation-norm-mean", seed)
        est["deviation-schatten-moment"] = moment_estimate(
            dev[1]**q, q, "deviation-schatten-moment", seed)
    tails = simulate._tails(spectral, tg, None if dev is None else dev[0], td)
    return est, tails, spectral, sim.excluded_indices


class TestSummarizeSimulation:
    """One reference rule per mode, reduced chunk by chunk."""

    def test_independent_measures_against_the_mean(self):
        spec = matrix_two_point(dim=3, n=5, radius=0.5)
        est, tails, spectral, excluded = summarize_simulation(
            spec, 60, 2, 3.0, 2.5, (1.0, 1.3), (0.2, 0.4))
        zs = simulate_product(spec, 60, seed=2).z
        dev = [spectral_norm(z - expected_product(spec)) for z in zs]
        assert spectral.tolist() == [spectral_norm(z) for z in zs]
        assert est["deviation-norm-mean"].mean == pytest.approx(np.mean(dev), rel=1e-14)
        assert [(t.quantity, t.threshold, t.hits) for t in tails] == [
            ("growth-tail", x, sum(v >= x for v in spectral)) for x in (1.0, 1.3)] + [
            ("deviation-tail", x, sum(v >= x for v in dev)) for x in (0.2, 0.4)]
        assert excluded == []

    def test_inverse_reports_no_deviations(self):
        e = make_bounded_perturbation(3, 0.1 * np.eye(3), 0.3, 4.0)
        spec = ProductSpec((e,) * 4, np.eye(3), mode="inverse")
        est, tails, _, _ = summarize_simulation(spec, 40, 3, 2.0, 2.0, (1.0,), (0.2,))
        assert set(est) == {"spectral-norm-mean", "schatten-moment", "spectral-radius-mean"}
        assert [t.quantity for t in tails] == ["growth-tail"]

    def test_each_stack_decomposed_once(self, svd_shapes):
        spec = matrix_two_point(dim=3, n=5)
        svd_shapes.clear()
        summarize_simulation(spec, 30, 5, 3.0, 2.0, (1.0,), (0.2,))
        # one chunk: its products and their deviations in one norm stack
        assert svd_shapes == [(60, 3, 3)]

    def test_validation(self):
        with pytest.raises(InvalidParameterError, match="q must satisfy"):
            summarize_simulation(scalar_two_point(), 8, 0, q=0.5)
        with pytest.raises(InvalidParameterError, match="no included trials"):
            summarize_simulation(ill_conditioned_inverse(), 8, 0)

    @pytest.mark.parametrize("run", [
        pytest.param(lambda **kw: summarize_simulation(scalar_two_point(), 8, 0, **kw),
                     id="monte-carlo"),
        pytest.param(lambda **kw: enumerate_product(scalar_two_point(), **kw), id="enumeration"),
    ])
    @pytest.mark.parametrize("kwargs, message", [
        ({"q": math.nan}, "q must satisfy 1 <= q < inf, got nan"),
        ({"q": math.inf}, "q must satisfy 1 <= q < inf, got inf"),
        ({"thresholds_growth": (1.0, math.nan)}, "a tail threshold is NaN"),
        ({"thresholds_deviation": (math.nan,)}, "a tail threshold is NaN"),
    ], ids=["q-nan", "q-inf", "growth-threshold-nan", "deviation-threshold-nan"])
    def test_non_finite_q_and_nan_thresholds_rejected(self, run, kwargs, message, monkeypatch):
        # NaN passes a test of q < 1; the run is refused before any norm is taken
        def no_svd(*args):
            raise AssertionError("the run reached the norm layer")

        monkeypatch.setattr(simulate, "_stack_norms", no_svd)
        with pytest.raises(InvalidParameterError, match=re.escape(message)):
            run(**kwargs)

    def test_infinite_threshold_has_no_hits(self):
        # compare passes one when a bound's M overflows
        (tail,) = summarize_simulation(scalar_two_point(), 8, 0, thresholds_growth=(math.inf,))[1]
        assert (tail.threshold, tail.hits) == (math.inf, 0)
        rep = enumerate_product(scalar_two_point(), thresholds_growth=(math.inf,))
        assert rep.tail_growth == {math.inf: 0.0}

    @pytest.mark.parametrize("make_spec, trials", [
        pytest.param(lambda: matrix_two_point(dim=3, n=5, radius=0.5), 200, id="two-point"),
        pytest.param(lambda: ProductSpec((make_bounded_perturbation(
            3, 0.1 * np.eye(3), 0.4, 4.0, support="uniform-sphere"),) * 4, np.eye(3)), 60,
            id="uniform-sphere"),
        pytest.param(lambda: ProductSpec((make_rademacher_rank_one(12),) * 10,
                                         tall_start(12, 1)), 200, id="rank-one-flips"),
        pytest.param(inverse_with_exclusions, 200, id="inverse-with-exclusions"),
    ])
    def test_matches_the_whole_stack_reduction(self, monkeypatch, make_spec, trials):
        # small budgets split every kind of run into several chunks
        monkeypatch.setattr(simulate, "GATHER_BUDGET", 7 * 16 * 8)
        spec = make_spec()
        assert len(list(simulate._trial_chunks(spec, trials, 5, (2,)))) > 1
        args = (3.0, 2.5, (1.0, 1.3), (0.2, 0.4))
        got = summarize_simulation(spec, trials, 5, *args, key=(2,))
        want = whole_stack_summary(spec, trials, 5, *args, key=(2,))
        # a float's repr round-trips, so equal reprs are equal bits
        assert repr(got[:2]) == repr(want[:2])
        assert got[2].tobytes() == want[2].tobytes()
        assert got[3] == want[3]

    def test_inverse_exclusions_are_named(self):
        _, _, spectral, excluded = summarize_simulation(inverse_with_exclusions(), 200, 8)
        assert 0 < len(excluded) < 200
        assert len(spectral) + len(excluded) == 200
        assert excluded == simulate_product(inverse_with_exclusions(), 200, 8).excluded_indices

    def test_memory_grows_by_norm_columns_not_matrices(self):
        # a d x d product alone is 8 d^2 = 800 bytes a trial at d = 10
        e = make_bounded_perturbation(10, 0.2 * np.eye(10), 0.5, 5)
        spec = ProductSpec((e,) * 5, np.eye(10))
        summarize_simulation(spec, 10, 3)  # first-call allocations

        def peak(trials):
            tracemalloc.start()
            try:
                summarize_simulation(spec, trials, 3, 3.0, 2.0, (1.5,), (0.5,))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert (peak(4000) - peak(2000)) / 2000 < 256

    def test_report_paths_never_collect_matrices(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("the trial matrices were collected")

        monkeypatch.setattr(simulate, "simulate_product", fail)
        summarize_simulation(matrix_two_point(), 16, 0)
        triangular_array_run(0.3 * np.eye(2), 0.5, 2, (3,), 16, 0)


@st.composite
def estimate_rows(draw):
    """The (quantity, values, q) rows of one run over 1 to 600 trials: its
    spectral and Schatten columns, with or without a radius row and deviation
    rows, each column spread, constant or zero."""
    t, q = draw(st.integers(1, 600)), draw(st.sampled_from([1.0, 2.0, 2.5, 4.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    names = ["spectral-norm-mean", "schatten-moment"]
    if draw(st.booleans()):
        names.append("spectral-radius-mean")
    if draw(st.booleans()):
        names += ["deviation-norm-mean", "deviation-schatten-moment"]
    columns = {"spread": lambda: rng.lognormal(0.0, 1.0, t),
               "constant": lambda: np.full(t, rng.lognormal(0.0, 1.0)),
               "zero": lambda: np.zeros(t)}
    return [(name, columns[draw(st.sampled_from(sorted(columns)))](),
             q if name.endswith("moment") else None) for name in names]


def per_column_estimates(rows, seed):
    return {name: mean_estimate(v, name, seed) if q is None else
            moment_estimate(v ** q, q, name, seed) for name, v, q in rows}


def constant_scalar(n=3):
    # factors 0 +/- 0.1: every |Z_n| is 1e-3, and so is every deviation from E Z_n = 0
    e = make_bounded_perturbation(1, -np.eye(1), 0.1, 1.0)
    return ProductSpec(factors=(e,) * n, z0=np.eye(1))


class TestEstimateTable:
    """One (k, T) table per run, reduced row-wise, with the per-column bits."""

    @given(estimate_rows())
    def test_the_table_has_the_per_column_bits(self, rows):
        # a float's repr round-trips, so equal reprs are equal bits
        assert repr(simulate._estimates(rows, 7)) == repr(per_column_estimates(rows, 7))

    @hypothesis.settings(max_examples=24)
    @given(st.sampled_from([
        lambda: matrix_two_point(dim=3, n=5, radius=0.5),
        lambda: ProductSpec((make_rademacher_rank_one(12),) * 10, tall_start(12, 1)),
        inverse_with_exclusions,
        constant_scalar,
    ]), st.integers(1, 600), st.booleans())
    def test_runs_have_the_per_column_bits(self, make_spec, trials, radius):
        spec = make_spec()
        args = (3.0, 2.5, (1.0,), (0.2,))
        if not simulate_product(spec, trials, 5).z:  # every inverse trial left out
            with pytest.raises(InvalidParameterError, match="no included trials"):
                summarize_simulation(spec, trials, 5, *args, spectral_radius=radius)
            return
        got = summarize_simulation(spec, trials, 5, *args, spectral_radius=radius)
        want = whole_stack_summary(spec, trials, 5, *args, spectral_radius=radius)
        assert repr(got[:2]) == repr(want[:2])
        assert got[3] == want[3]

    def test_one_trial_has_no_spread(self):
        est = summarize_simulation(matrix_two_point(), 1, 3)[0]
        assert all(e.std_error == 0.0 and e.ci_low == e.mean == e.ci_high
                   for e in est.values())

    @given(estimate_rows(), st.one_of(st.sampled_from([-150.0, -100.0, 100.0, 150.0]),
                                      st.floats(-150.0, 150.0)))
    def test_estimates_scale_with_the_values(self, rows, exponent):
        # rows past the raw range (q-th powers past 1e308 or squares below
        # 1e-308) are reduced again from values divided by their largest one
        c = 10.0 ** exponent
        with np.errstate(all="raise"):
            got = simulate._estimates([(n, c * v, q) for n, v, q in rows], 7)
        for name, ref in simulate._estimates(rows, 7).items():
            est = got[name]
            tol = 16 * np.finfo(float).eps * c * (ref.mean + ref.std_error)
            for f in ("mean", "std_error", "ci_low", "ci_high"):
                assert abs(getattr(est, f) - c * getattr(ref, f)) <= tol, (name, f)
            assert est.trials == ref.trials

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_extreme_starts_keep_their_spread(self, scale):
        # three factors 1 +/- 0.5 from z0 = [[scale]]: 1e200 squares past
        # float64 and 1e-200 squares below it; neither warns (a warning is an
        # error here), and each estimate is scale times the unit start's
        e = make_bounded_perturbation(1, np.zeros((1, 1)), 0.5, 1.0)
        unit = summarize_simulation(ProductSpec((e,) * 3, np.eye(1)), 20, 1729)[0]
        got = summarize_simulation(ProductSpec((e,) * 3, scale * np.eye(1)), 20, 1729)[0]
        for name, ref in unit.items():
            assert ref.std_error > 0.0
            for f in ("mean", "std_error", "ci_low", "ci_high"):
                want = scale * getattr(ref, f)
                assert getattr(got[name], f) == pytest.approx(want, rel=1e-14, abs=0.0), (name, f)


class TestInverseMode:
    def test_trialwise_inverse_of_forward_product(self):
        spec = matrix_two_point(dim=3, n=4)
        inv_spec = ProductSpec(factors=spec.factors, z0=spec.z0, mode="inverse")
        fwd = simulate_product(spec, 32, seed=9)
        inv = simulate_product(inv_spec, 32, seed=9)
        assert inv.excluded == 0
        for z, w in zip(fwd.z, inv.z):
            assert np.allclose(z @ w, np.eye(3), atol=1e-8)

    def test_enumeration_inverse_exact(self):
        spec = ProductSpec(factors=scalar_two_point(n=2).factors,
                           z0=np.eye(1), mode="inverse")
        rep = enumerate_product(spec)
        vals = [1 / 0.81, 1 / 0.99, 1 / 0.99, 1 / 1.21]
        assert rep.mean[0, 0] == pytest.approx(sum(vals) / 4, rel=1e-12)
        assert rep.growth_mean == pytest.approx(sum(vals) / 4, rel=1e-12)
        assert rep.outcomes == 4

    def test_singular_atom_trials_are_excluded(self):
        s = SupportSampler((np.eye(3), np.diag([1.0, 1.0, 0.0])), (0.99, 0.01))
        e = FactorEnsemble(3, s, FactorStats(1.0, 0.1))
        spec = ProductSpec((e,) * 3, np.eye(3), mode="inverse")
        estimates, _, _, excluded = summarize_simulation(spec, 200, 5)
        # a trial is left out exactly when it draws the singular atom
        u = uniforms(spec, 5, range(200))
        assert excluded == np.flatnonzero((s.pick(u) == 1).any(axis=1)).tolist()
        assert 0 < len(excluded) < 200
        assert estimates["spectral-norm-mean"].trials == 200 - len(excluded)

    @pytest.mark.parametrize("drawn", [False, True], ids=["support", "drawn"])
    def test_singular_atoms_keep_the_included_bits(self, drawn):
        u = householder_direction(3)
        s = SupportSampler((np.eye(3) + 0.2 * u, np.diag([1.0, 1.0, 0.0]), np.eye(3) - 0.3 * u),
                           (0.45, 0.1, 0.45))
        e = FactorEnsemble(3, DrawnSupport(s) if drawn else s, FactorStats(1.3, 0.3))
        sim = assert_matches_reference(ProductSpec((e,) * 4, np.eye(3), mode="inverse"),
                                       100, seed=5)
        assert 0 < sim.excluded < 100

    def test_probability_zero_singular_atom_is_never_solved(self):
        # no path and no trial takes the singular atom, so both methods run
        spec = ProductSpec((singular_zero_atom_ensemble(),) * 3, np.eye(2), mode="inverse")
        _, _, _, excluded = summarize_simulation(spec, 400, 5)
        assert excluded == []
        assert enumerate_product(spec).outcomes == 8

    def test_enumeration_names_the_singular_factor(self):
        s = SupportSampler((np.eye(3), np.diag([1.0, 1.0, 0.0])), (0.5, 0.5))
        singular = FactorEnsemble(3, s, FactorStats(1.0, 0.5), kind="flat")
        good = make_bounded_perturbation(3, np.zeros((3, 3)), 0.1, 1.0)
        spec = ProductSpec((good, singular, good), np.eye(3), mode="inverse")
        with pytest.raises(InvalidInputError, match=r"factor 2 \(flat\) has a singular atom"):
            enumerate_product(spec)

    @pytest.mark.parametrize("run", [lambda spec: summarize_simulation(spec, 10, 1),
                                     enumerate_product], ids=["monte-carlo", "enumeration"])
    def test_singular_start_is_named(self, run):
        e = make_bounded_perturbation(3, np.zeros((3, 3)), 0.1, 2.0)
        spec = ProductSpec((e,) * 2, np.diag([1.0, 1.0, 0.0]), mode="inverse")
        with pytest.raises(InvalidInputError, match="start z0 is singular"):
            run(spec)

    def test_ill_conditioned_trials_excluded(self):
        spec = ill_conditioned_inverse()
        sim = simulate_product(spec, 20, seed=0)
        assert sim.excluded == 20
        assert sim.excluded_indices == list(range(20))
        assert sim.z == []
        with pytest.raises(InvalidParameterError, match="no included trials"):
            summarize_simulation(spec, 20, 0)


class TestAdaptedMode:
    def adapted_pair(self, n=4):
        e = make_bounded_perturbation(2, 0.1 * np.eye(2), 0.2, n)
        indep = ProductSpec(factors=(e,) * n, z0=np.eye(2))
        adapted = ProductSpec(factors=(), z0=np.eye(2), mode="adapted",
                              adapted_hook=HistoryFree(e), n_steps=n)
        return indep, adapted

    def test_history_free_hook_matches_independent_bitwise(self):
        indep, adapted = self.adapted_pair()
        (w, prods, _), = walk(adapted)
        (w_want, want, _), = walk(indep)
        assert w.tobytes() == w_want.tobytes()
        assert prods.tobytes() == want.tobytes()

    def test_conditional_mean_track_equals_expected_product(self):
        indep, adapted = self.adapted_pair()
        (_, _, refs), = walk(adapted)
        want = expected_product(indep)
        assert len(refs) == 16
        for f in refs:
            assert np.allclose(f, want, rtol=1e-14, atol=1e-14)

    def test_monte_carlo_refuses_adapted_specs(self):
        spec = adapted_spec()
        for run in (lambda: summarize_simulation(spec, 40, 4),
                    lambda: simulate_product(spec, 40, seed=4),
                    lambda: comparison_rows(spec, trials=40)):
            with pytest.raises(UnsupportedEnsembleError, match="enumerate_product"):
                run()

    def test_budget_fallback_refuses_monte_carlo(self, monkeypatch):
        # past the budget an adapted walk has no Monte Carlo to fall back to
        monkeypatch.setattr(simulate, "ENUMERATION_BUDGET", 64)
        with pytest.raises(UnsupportedEnsembleError, match="enumerate_product"):
            comparison_rows(adapted_spec(n=8), trials=0, mc_fallback_trials=100)

    def test_enumeration_agrees_with_independent(self):
        indep, adapted = self.adapted_pair(n=3)
        ra = enumerate_product(adapted, p=2.0, q=2.0)
        ri = enumerate_product(indep, p=2.0, q=2.0)
        assert ra.outcomes == ri.outcomes == 8
        assert ra.reference == "adapted"
        assert ra.growth_mean == pytest.approx(ri.growth_mean, rel=1e-13)
        assert ra.growth_moment == pytest.approx(ri.growth_moment, rel=1e-13)
        # history-free conditional means equal the overall mean, so the
        # deviation statistics coincide too
        assert ra.deviation_moment == pytest.approx(ri.deviation_moment, rel=1e-12)
        assert np.allclose(ra.mean, ri.mean, rtol=1e-13)

    def test_norm_biased_hook_enumeration(self):
        hook = NormBiasedTwoPointHook(2, scale=0.05, high=0.7)
        spec = ProductSpec(factors=(), z0=np.eye(2), mode="adapted",
                           adapted_hook=hook, n_steps=8)
        rep = enumerate_product(spec, p=2.0, q=2.0)
        assert rep.outcomes == 256
        assert rep.growth_mean <= 1.05 ** 8
        assert rep.deviation_moment > 0.0
        stats = hook.factor_stats()
        assert stats.mean_norm == pytest.approx(1.02, rel=1e-15)
        assert stats.sigma == pytest.approx(0.07 / 1.02, rel=1e-15)

    def test_adapted_budget(self, monkeypatch):
        # paths are only countable by walking, so the budget trips mid-walk
        monkeypatch.setattr("matprod.simulate.ENUMERATION_BUDGET", 64)
        hook = NormBiasedTwoPointHook(2)
        spec = ProductSpec(factors=(), z0=np.eye(2), mode="adapted",
                           adapted_hook=hook, n_steps=8)
        with pytest.raises(EnumerationInfeasibleError) as info:
            enumerate_product(spec)
        assert info.value.required == 65
        assert info.value.budget == 64

    def test_hook_validation(self):
        with pytest.raises(InvalidParameterError):
            NormBiasedTwoPointHook(2, high=1.0)
        with pytest.raises(InvalidParameterError):
            NormBiasedTwoPointHook(2, scale=0.0)


def depth_first_paths(spec):
    """The frame-stack walk the level-wise walker replaced, kept as its oracle:
    (weight, product, conditional-mean product) of every path, in leaf order."""
    hook, n = spec.adapted_hook, spec.n

    def frame(weight, prod, ref):
        support = conditional_support(hook, prod)
        return [support, 0, weight, prod, ref, sum(prob * mat for mat, prob in support)]

    stack = [frame(1.0, spec.z0, spec.z0)]
    while stack:
        top = stack[-1]
        support, idx = top[0], top[1]
        if idx >= len(support):
            stack.pop()
            continue
        top[1] = idx + 1
        mat, prob = support[idx]
        if prob == 0.0:
            continue
        weight = top[2] * prob
        prod = mat @ top[3]
        ref = top[5] @ top[4]
        if len(stack) == n:
            yield weight, prod, ref
        else:
            stack.append(frame(weight, prod, ref))


def depth_first_report(spec, p, q, tg=(), td=()):
    """enumerate_product's adapted report from the oracle's paths, as one block."""
    paths = list(depth_first_paths(spec))
    weights = np.array([w for w, _, _ in paths])
    prods = np.stack([z for _, z, _ in paths])
    refs = np.stack([f for _, _, f in paths])
    stats = simulate._StreamStats(p, float(q), spec.d == spec.r, tg, td)
    stats.add(weights, prods, prods - refs)
    return stats.report(np.einsum("k,kij->ij", weights, prods), "adapted")


class LeaningHook:
    """A batched hook written here: three atoms whose probabilities lean on the
    sign of the running product's top-right entry. Where it is positive the
    second atom has probability 0."""

    dim = 2
    atoms = np.array([[[1.0, 0.3], [-0.2, 0.9]], [[0.8, 0.0], [0.1, 1.2]],
                      [[-1.0, -0.3], [0.2, -0.9]]])

    def conditional_supports(self, runs):
        up = runs[:, 0, 1] > 0
        return self.atoms, np.where(up[:, None], [0.25, 0.0, 0.75], [0.6, 0.3, 0.1])


def zero_atom_ensemble():
    atoms = (np.diag([1.1, 0.9]), np.array([[0.0, 1.0], [1.0, 0.0]]), np.diag([0.7, 1.3]))
    return FactorEnsemble(dim=2, sampler=SupportSampler(atoms, (0.5, 0.0, 0.5)),
                          stats=FactorStats(1.0, 0.5))


def singular_zero_atom_ensemble():
    """zero_atom_ensemble with a singular atom at probability 0."""
    atoms = (np.diag([1.1, 0.9]), np.diag([1.0, 0.0]), np.diag([0.7, 1.3]))
    return FactorEnsemble(dim=2, sampler=SupportSampler(atoms, (0.5, 0.0, 0.5)),
                          stats=FactorStats(1.0, 0.5))


ADAPTED_HOOKS = [
    pytest.param(lambda: NormBiasedTwoPointHook(3, scale=0.2, high=0.65), 7, np.eye(3),
                 id="norm-biased"),
    pytest.param(lambda: NormBiasedTwoPointHook(2, scale=0.4), 6, tall_start(2, 1),
                 id="norm-biased-column"),
    pytest.param(lambda: HistoryFree(make_bounded_perturbation(
        3, 0.1 * np.eye(3), 0.5, 10)), 5, np.eye(3), id="history-free"),
    pytest.param(lambda: HistoryFree(make_rademacher_rank_one(3)), 3, tall_start(3, 2),
                 id="history-free-diagonal"),
    pytest.param(lambda: HistoryFree(zero_atom_ensemble()), 5, np.eye(2),
                 id="history-free-zero-atom"),
    # "plain": the hook written above, from the identity and from signed zeros
    pytest.param(LeaningHook, 7, np.eye(2), id="plain"),
    pytest.param(LeaningHook, 6, signed_zero_start(2, 2), id="plain-zero-atom"),
]


def adapted(make_hook, n, z0):
    return ProductSpec(factors=(), z0=z0, mode="adapted", adapted_hook=make_hook(), n_steps=n)


class TestAdaptedWalker:
    """The level-wise walker against the depth-first walk it replaced."""

    @pytest.mark.parametrize("make_hook,n,z0", ADAPTED_HOOKS)
    def test_matches_depth_first_walk(self, make_hook, n, z0):
        spec = adapted(make_hook, n, z0)
        blocks = list(walk(spec))
        assert len(blocks) == 1
        w, prods, refs = blocks[0]
        want = list(depth_first_paths(spec))
        assert w.tobytes() == np.array([x for x, _, _ in want]).tobytes()
        assert prods.tobytes() == np.stack([z for _, z, _ in want]).tobytes()
        assert refs.tobytes() == np.stack([f for _, _, f in want]).tobytes()

    @pytest.mark.parametrize("make_hook,n,z0", ADAPTED_HOOKS)
    def test_report_matches_depth_first_walk(self, make_hook, n, z0):
        spec = adapted(make_hook, n, z0)
        got = enumerate_product(spec, 3.0, 2.5, (1.1,), (0.2,))
        want = depth_first_report(spec, 3.0, 2.5, (1.1,), (0.2,))
        assert got.mean.tobytes() == want.mean.tobytes()
        assert replace(got, mean=None) == replace(want, mean=None)

    @pytest.mark.parametrize("make_hook,n,z0", ADAPTED_HOOKS)
    @pytest.mark.parametrize("cap", [1, 3, 16])
    def test_capped_blocks_keep_leaf_order(self, make_hook, n, z0, cap, monkeypatch):
        spec = adapted(make_hook, n, z0)
        (whole,) = walk(spec)
        monkeypatch.setattr(simulate, "FRONTIER_PATHS", cap)
        blocks = list(walk(spec))
        # a block is cut only between parents; the largest support here has 6 atoms
        assert max(len(w) for w, _, _ in blocks) <= max(cap, 6)
        for part, want in zip(zip(*blocks), whole, strict=True):
            assert np.concatenate(part).tobytes() == want.tobytes()

    @IGNORE_OVERFLOW
    def test_overflow_matches_depth_first_walk(self):
        spec = adapted(lambda: HistoryFree(make_rademacher_rank_one(4)), 3,
                       np.full((4, 2), 1e308))
        (w, prods, refs), = walk(spec)
        want = list(depth_first_paths(spec))
        assert not np.isfinite(prods).all()
        assert w.tobytes() == np.array([x for x, _, _ in want]).tobytes()
        assert_matches_where_finite(prods, [z for _, z, _ in want])
        assert_matches_where_finite(refs, [f for _, _, f in want])

    def test_frontier_memory_is_bounded(self, monkeypatch):
        import tracemalloc

        cap, d, n = 256, 10, 14
        monkeypatch.setattr(simulate, "FRONTIER_PATHS", cap)
        spec = adapted(lambda: NormBiasedTwoPointHook(d), n, np.eye(d))
        path_bytes = 8 * (2 * d * d + 1)  # product, reference, weight
        leaves = 0
        tracemalloc.start()
        try:
            for w, prods, refs in walk(spec):
                assert len(w) <= cap
                leaves += len(w)
                del w, prods, refs
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert leaves == 2**n
        # every leaf at once would take 64 caps' worth of paths
        assert peak < 8 * cap * path_bytes

    def test_atoms_are_built_once(self):
        hook = NormBiasedTwoPointHook(3, scale=0.3, high=0.8)
        atoms, _ = hook.conditional_supports(np.stack([np.eye(3), 2.0 * np.eye(3)]))
        assert atoms is hook.atoms
        eye, spike = np.eye(3), 0.3 * householder_direction(3)
        assert hook.atoms.tobytes() == np.stack([eye + spike, eye - spike]).tobytes()

    @pytest.mark.parametrize("dim", [2, 3, 10])
    def test_batched_norm_test_keeps_its_bits(self, dim):
        # running products scaled to the threshold sqrt(dim): the hook's test
        # and the rule written out here disagree unless both norms have the same bits
        hook = NormBiasedTwoPointHook(dim)
        runs = substream(dim).standard_normal((4000, dim, dim))
        runs *= math.sqrt(dim) / np.linalg.norm(runs, axis=(1, 2))[:, None, None]
        _, probs = hook.conditional_supports(runs)
        want = [hook.high if np.linalg.norm(run) <= math.sqrt(dim) else 1.0 - hook.high
                for run in runs]
        assert probs[:, 0].tolist() == want
        assert 0 < sum(p == hook.high for p in want) < len(want)


class RecordingHook(LeaningHook):
    """LeaningHook in three dimensions, keeping a copy of every runs stack."""

    dim = 3
    atoms = np.stack([np.pad(a, ((0, 1), (0, 1))) + np.diag([0.0, 0.0, s])
                      for a, s in zip(LeaningHook.atoms, (1.1, 0.9, -1.0))])

    def __init__(self):
        self.seen = []

    def conditional_supports(self, runs):
        self.seen.append(runs.copy())
        return super().conditional_supports(runs)


class TestHookContract:
    """A hook reads the running products Z_{i-1}, a (B, d, r) stack."""

    N, Z0 = 4, tall_start(3, 2)

    def spec(self, n):
        return adapted(RecordingHook, n, self.Z0)

    def test_walker_hands_the_paths_products(self):
        spec = self.spec(self.N)
        list(walk(spec))
        assert len(spec.adapted_hook.seen) == self.N
        for i, runs in enumerate(spec.adapted_hook.seen):
            want = (self.Z0[None] if i == 0 else
                    np.stack([z for _, z, _ in depth_first_paths(self.spec(i))]))
            assert runs.shape == (len(want), 3, 2)
            assert runs.tobytes() == want.tobytes()


def outcomes_one_by_one(spec):
    """(weights, products) of every positive-probability outcome of an
    independent or inverse spec in leaf order, each multiplied out on its own:
    factor 1's atom leads, diagonal atoms are expanded, and inverse mode
    multiplies each atom's own inverse into Z_0^(-1) from the right."""
    inverse, eye = spec.mode == "inverse", np.eye(spec.d)
    levels = []
    for e in spec.factors:
        s = e.support
        dense = s.atoms if s.diagonals is None else [np.diag(x) for x in s.diagonals]
        levels.append([(np.linalg.solve(a, eye) if inverse else a, prob)
                       for a, prob in zip(dense, s.probs) if prob > 0.0])
    start = np.linalg.solve(spec.z0, eye) if inverse else spec.z0
    weights, prods = [], []
    for path in itertools.product(*levels):
        w, prod = 1.0, start
        for a, prob in path:
            w, prod = w * prob, (prod @ a if inverse else a @ prod)
        weights.append(w)
        prods.append(prod)
    return np.array(weights), np.stack(prods)


def one_atom_overflows():
    """The atom 1e200 at probability 0 beside 1.0: only a skipped outcome overflows."""
    s = SupportSampler((np.array([[1e200]]), np.array([[1.0]])), (0.0, 1.0))
    e = FactorEnsemble(dim=1, sampler=s, stats=FactorStats(1.0, 0.0))
    return ProductSpec((e, e), np.eye(1))


INDEPENDENT_WALKS = [
    pytest.param(lambda: matrix_two_point(dim=3, n=5), id="dense"),
    pytest.param(lambda: ProductSpec((make_rademacher_rank_one(3),) * 4, signed_zero_start(3, 2)),
                 id="diagonal"),
    pytest.param(lambda: rank_one_mixed(3, 2, repeat=1), id="diagonal-and-dense"),
    pytest.param(lambda: ProductSpec((zero_atom_ensemble(),) * 4, np.eye(2)),
                 id="zero-probability"),
    pytest.param(lambda: replace(matrix_two_point(dim=3, n=5), mode="inverse"),
                 id="inverse-dense"),
    pytest.param(lambda: ProductSpec((invertible_diagonal(3),) * 4,
                                     np.eye(3) + 0.1 * tall_start(3, 3), mode="inverse"),
                 id="inverse-diagonal"),
    pytest.param(lambda: ProductSpec((zero_atom_ensemble(),) * 4, np.eye(2), mode="inverse"),
                 id="inverse-zero-probability"),
    pytest.param(lambda: ProductSpec((singular_zero_atom_ensemble(),) * 4, np.eye(2),
                                     mode="inverse"), id="inverse-singular-at-probability-zero"),
]


class TestIndependentWalker:
    """Independent and inverse specs walk the level tree the adapted walk does."""

    @pytest.mark.parametrize("make_spec", INDEPENDENT_WALKS)
    @pytest.mark.parametrize("cap", [None, 1, 3, 16])
    def test_outcomes_match_one_by_one(self, make_spec, cap, monkeypatch):
        spec = make_spec()
        if cap is not None:
            monkeypatch.setattr(simulate, "FRONTIER_PATHS", cap)
        blocks = list(walk(spec))
        if cap is None:
            assert len(blocks) == 1
        # a block is cut only between parents, so one parent's children may pass the cap
        widest = max(len(e.support) for e in spec.factors)
        assert max(len(w) for w, _, _ in blocks) <= max(cap or simulate.FRONTIER_PATHS, widest)
        assert all(refs is None for _, _, refs in blocks)
        w_want, want = outcomes_one_by_one(spec)
        assert np.concatenate([w for w, _, _ in blocks]).tobytes() == w_want.tobytes()
        assert np.concatenate([z for _, z, _ in blocks]).tobytes() == want.tobytes()

    @pytest.mark.parametrize("spectral_radius", [False, True])
    def test_zero_probability_outcomes_are_skipped(self, spectral_radius):
        # the skipped outcomes would hold 1e200 and 1e400 = inf
        rep = enumerate_product(one_atom_overflows(), spectral_radius=spectral_radius)
        assert (rep.outcomes, rep.growth_mean, rep.deviation_mean) == (1, 1.0, 0.0)
        est, _, _, _ = summarize_simulation(one_atom_overflows(), 20, 3)
        assert est["spectral-norm-mean"].mean == rep.growth_mean

    @pytest.mark.parametrize("mode", ["independent", "inverse"])
    def test_budget_counts_positive_probability_outcomes(self, mode, monkeypatch):
        # four factors of three atoms, one of them at probability 0: 16 outcomes, not 81
        spec = ProductSpec((zero_atom_ensemble(),) * 4, np.eye(2), mode=mode)
        monkeypatch.setattr(simulate, "ENUMERATION_BUDGET", 15)
        with pytest.raises(EnumerationInfeasibleError, match="needs 16 outcomes") as info:
            enumerate_product(spec)
        assert (info.value.required, info.value.budget) == (16, 15)
        monkeypatch.setattr(simulate, "ENUMERATION_BUDGET", 16)
        assert enumerate_product(spec).outcomes == 16

    def test_walk_memory_is_bounded(self, monkeypatch):
        cap, d, n = 256, 10, 14
        monkeypatch.setattr(simulate, "FRONTIER_PATHS", cap)
        spec = matrix_two_point(dim=d, n=n)
        path_bytes = 8 * (d * d + 1)  # product, weight
        leaves = 0
        tracemalloc.start()
        try:
            for w, prods, refs in walk(spec):
                assert len(w) <= cap and refs is None
                leaves += len(w)
                del w, prods, refs
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert leaves == 2**n
        # every leaf at once would take 64 caps' worth of paths
        assert peak < 8 * cap * path_bytes


class TestOverflowIsNamed:
    """A non-finite product or deviation is refused before its norm stack,
    and warns nothing on the way (a warning is an error here)."""

    @pytest.mark.parametrize("run", [
        pytest.param(lambda: summarize_simulation(overflowing_rank_one(), 150, 31),
                     id="monte-carlo"),
        pytest.param(lambda: enumerate_product(overflowing_rank_one(n=5)), id="enumeration"),
    ])
    def test_overflow_is_invalid_input(self, run, monkeypatch):
        def no_svd(*args):
            raise AssertionError("a non-finite stack reached the SVD")

        monkeypatch.setattr(simulate, "_stack_norms", no_svd)
        with pytest.raises(InvalidInputError, match="overflowed float64"):
            run()

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("support", ["two-point", "uniform-sphere"])
    def test_overflow_warns_nothing(self, d, support):
        # 8 factors near 1e60 I reach 1e480; at d = 1 the deviation is inf - inf
        e = make_bounded_perturbation(d, 1e60 * np.eye(d), 0.5, 1.0, support)
        spec = ProductSpec((e,) * 8, np.eye(d))
        runs = [lambda: summarize_simulation(spec, 10, 1)]
        if support == "two-point":
            runs.append(lambda: enumerate_product(spec))
        for run in runs:
            with pytest.raises(InvalidInputError, match="overflowed float64"):
                run()
        assert not np.isfinite(np.stack(simulate_product(spec, 10, 1).z)).any()

    @pytest.mark.parametrize("shape", [(6, 2, 2), (6, 2, 1)], ids=["square", "column"])
    def test_finite_entries_whose_norms_overflow_are_refused(self, shape):
        # every entry is finite, but sigma_1 = 1.5e308 * sqrt(2 or 4) is not
        prods = np.full(shape, 1.5e308)
        with np.errstate(over="ignore", invalid="ignore"):  # as its callers run it
            for dev in (None, np.zeros(shape)):
                with pytest.raises(InvalidInputError, match="overflowed float64"):
                    simulate._block_norms(prods, dev, 2.0, shape[1] == shape[2])


class TestStreamSumsLayout:
    """The exact means' sums read each norm row as the norm layer returns it:
    for square products a strided row of the singular values, which numpy's
    dot sends to another BLAS kernel than a contiguous row. The golden digests
    hold those bits; a contiguous copy of the rows must fail here too."""

    def test_sums_read_the_strided_rows(self):
        moved = 0
        for seed in range(5):
            rng = np.random.default_rng(seed)
            prods = rng.standard_normal((256, 4, 4))
            w = rng.random(256) / 256.0
            dev = prods - prods.mean(axis=0)
            stats = simulate._StreamStats(2.0, 2.0, False, (), ())
            stats.add(w, prods, dev)
            rows = np.linalg.svd(np.concatenate([prods, dev]), compute_uv=False)[:, 0]
            strided = rows.reshape(2, -1)
            assert strided.strides[1] == 4 * 8
            assert (stats.growth, stats.dev) == tuple(float(w @ r) for r in strided)
            moved += (stats.growth, stats.dev) != tuple(float(w @ r.copy()) for r in strided)
        if not moved:  # this BLAS sums both layouts alike on these rows
            pytest.skip("contiguous and strided rows give the same sums here")


class TestInverseEnumeration:
    """Inverse mode streams its mean in a first walk. A walk of one block keeps
    that block for the deviations; a longer walk is walked a second time."""

    def walks(self, monkeypatch):
        calls = []
        walker = simulate._walk

        def counting(*args):
            calls.append(len(calls))
            return walker(*args)

        monkeypatch.setattr(simulate, "_walk", counting)
        return calls

    def streamed_twice(self, spec, p, q, tg=(), td=()):
        """The report from the walk's blocks, the mean summed before any deviation."""
        blocks = list(walk(spec))
        mean = np.zeros((spec.d, spec.d))
        for w, prods, _ in blocks:
            mean = mean + np.einsum("k,kij->ij", w, prods)
        stats = simulate._StreamStats(p, float(q), True, tg, td)
        for w, prods, _ in blocks:
            stats.add(w, prods, prods - mean[None])
        return stats.report(mean, "mean")

    def test_one_block_is_walked_once(self, monkeypatch):
        spec = replace(matrix_two_point(dim=4, n=10), mode="inverse")
        want = self.streamed_twice(spec, 3.0, 2.0, (1.0,), (0.5,))
        calls = self.walks(monkeypatch)
        got = enumerate_product(spec, 3.0, 2.0, (1.0,), (0.5,))
        assert len(calls) == 1 and got.outcomes == 1024
        assert got.mean.tobytes() == want.mean.tobytes()
        assert replace(got, mean=None) == replace(want, mean=None)

    @pytest.mark.parametrize("cap", [None, 1000], ids=["default-cap", "cap-1000"])
    def test_longer_walks_are_walked_twice(self, cap, monkeypatch):
        # 2**14 leaves make two blocks at the default cap, 17 at a cap of 1000
        spec = replace(matrix_two_point(dim=2, n=14), mode="inverse")
        if cap is not None:
            monkeypatch.setattr(simulate, "FRONTIER_PATHS", cap)
        assert len(list(walk(spec))) > 1
        want = self.streamed_twice(spec, 3.0, 2.0)
        calls = self.walks(monkeypatch)
        got = enumerate_product(spec, 3.0, 2.0)
        assert len(calls) == 2 and got.outcomes == 2**14
        assert got.mean.tobytes() == want.mean.tobytes()
        assert replace(got, mean=None) == replace(want, mean=None)


class TestSpectralRadiusOnRequest:
    def eigvals_calls(self, monkeypatch):
        calls = []
        radii = simulate.spectral_radii

        def counting(stack):
            calls.append(len(stack))
            return radii(stack)

        monkeypatch.setattr(simulate, "spectral_radii", counting)
        return calls

    def test_enumeration_skips_it_when_not_asked(self, monkeypatch):
        spec = matrix_two_point(dim=3, n=5)
        calls = self.eigvals_calls(monkeypatch)
        full = enumerate_product(spec, 3.0, 2.0, (1.0,), (0.5,))
        assert calls == [32] and full.spectral_radius_mean is not None
        bare = enumerate_product(spec, 3.0, 2.0, (1.0,), (0.5,), spectral_radius=False)
        assert calls == [32] and bare.spectral_radius_mean is None
        assert bare.mean.tobytes() == full.mean.tobytes()
        assert replace(bare, mean=None) == replace(full, mean=None, spectral_radius_mean=None)

    def test_monte_carlo_summary_skips_it_when_not_asked(self, monkeypatch):
        spec = matrix_two_point(dim=3, n=5)
        calls = self.eigvals_calls(monkeypatch)
        args = (spec, 60, 4, 3.0, 2.0, (1.0,), (0.5,))
        full, tails, spectral, _ = summarize_simulation(*args)
        assert calls == [60] and "spectral-radius-mean" in full
        bare, bare_tails, bare_spectral, _ = summarize_simulation(*args, spectral_radius=False)
        assert calls == [60] and "spectral-radius-mean" not in bare
        del full["spectral-radius-mean"]
        assert bare == full and bare_tails == tails
        assert bare_spectral.tobytes() == spectral.tobytes()

    def test_compare_asks_only_for_radius_bounds(self, monkeypatch):
        spec = matrix_two_point(dim=3, n=5)
        calls = self.eigvals_calls(monkeypatch)
        rows, _ = comparison_rows(spec, bounds=["growth-moment", "expectation-growth"])
        assert calls == [] and not any(r.skipped for r in rows)
        rows, _ = comparison_rows(spec)
        assert calls == [32]
        assert [r.quantity for r in rows if not r.skipped][-1] == "spectral-radius-expectation"


def dense_chain(spec):
    out = spec.z0
    for e in spec.factors:
        out = e.exact_mean() @ out
    return out


def diagonal_mean(e):
    """The ensemble with its mean given as the (d,) diagonal of its exact mean."""
    return replace(e, mean=np.diagonal(e.exact_mean()).copy())


class TestExpectedProduct:
    @pytest.mark.parametrize("make_spec, finite", [
        pytest.param(lambda: ProductSpec((make_rademacher_rank_one(6),) * 20,
                                         signed_zero_start(6, 2)), True, id="rank-one"),
        pytest.param(lambda: ProductSpec((make_random_projector_contraction(6),) * 20,
                                         signed_zero_start(6, 3)), True, id="coordinate-projector"),
        pytest.param(lambda: ProductSpec((padded_diagonal(),) * 12, signed_zero_start(5, 3)),
                     True, id="padded"),
        pytest.param(lambda: ProductSpec((padded_diagonal(), thirds_diagonal(5)) * 6,
                                         tall_start(5, 2)), True, id="two-diagonal-means"),
        pytest.param(lambda: rank_one_mixed(5, 2), True, id="diagonal-and-dense"),
        # the thirds' mean scales coordinate 0 by 5/3: 1e307 overflows within
        # the run, and the dense means turn the other rows into NaN by 0 * inf
        pytest.param(lambda: ProductSpec((thirds_diagonal(),) * 8, np.full((3, 2), 1e307)),
                     False, id="overflow", marks=IGNORE_OVERFLOW),
        # the means below are (d,) diagonals, stepped as row scales
        pytest.param(lambda: ProductSpec((diagonal_mean(padded_diagonal()),) * 12,
                                         signed_zero_start(5, 3)), True, id="padded-1d-mean"),
        pytest.param(lambda: ProductSpec(
            (diagonal_mean(thirds_diagonal(5)),
             make_bounded_perturbation(5, -0.3 * np.eye(5), 0.4, 3.0),
             diagonal_mean(thirds_diagonal(5)), diagonal_mean(padded_diagonal())) * 4,
            signed_zero_start(5, 2)), True, id="1d-mean-beside-dense"),
        # overflow within a run of 1-D means: the run is redone through the
        # dense mean, whose 0 * inf turns the other rows into NaN
        pytest.param(lambda: ProductSpec((diagonal_mean(thirds_diagonal()),) * 8,
                                         np.full((3, 2), 1e307)),
                     False, id="overflow-1d-mean", marks=IGNORE_OVERFLOW),
        pytest.param(lambda: ProductSpec(
            (make_bounded_perturbation(3, 2.0 * np.eye(3), 0.1, 1.0),
             diagonal_mean(thirds_diagonal()), make_rademacher_rank_one(3)) * 4,
            np.full((3, 2), 1e307)), False, id="1d-means-after-overflow", marks=IGNORE_OVERFLOW),
    ])
    def test_diagonal_means_match_the_dense_chain(self, make_spec, finite):
        spec = make_spec()
        got = expected_product(spec)
        assert got.tobytes() == dense_chain(spec).tobytes()
        assert np.isfinite(got).all() == finite
        if not finite:
            assert np.isnan(got[1:]).all()

    @pytest.mark.parametrize("make", [make_rademacher_rank_one, make_random_projector_contraction],
                             ids=["rank-one", "coordinate-projector"])
    def test_diagonal_builders_give_1d_means_that_build_no_matrix(self, make, monkeypatch):
        e = make(6)
        assert np.ndim(e.mean) == 1
        spec = ProductSpec((e,) * 20, signed_zero_start(6, 2))
        want = dense_chain(spec)
        monkeypatch.setattr(FactorEnsemble, "exact_mean", lambda self: pytest.fail("dense mean"))
        assert expected_product(spec).tobytes() == want.tobytes()

    @pytest.mark.parametrize("budget", [1, 3 * 8 * 5 * 2, 2**19],
                             ids=["one-step", "three-steps", "whole-run"])
    def test_row_scales_go_in_budget_blocks(self, budget, monkeypatch):
        # the thirds' mean scales coordinate 0 by 5/3; the start times the
        # 20th power of 5/3 is not the chain, so a block must keep step order
        spec = ProductSpec((diagonal_mean(thirds_diagonal(5)),) * 20, 3.0 * tall_start(5, 2))
        column = np.diagonal(spec.factors[0].exact_mean())[:, None]
        power = np.multiply.reduce(np.broadcast_to(column, (20, 5, 1)), axis=0)
        assert (spec.z0 * power + 0.0).tobytes() != dense_chain(spec).tobytes()
        monkeypatch.setattr(simulate, "GATHER_BUDGET", budget)
        assert expected_product(spec).tobytes() == dense_chain(spec).tobytes()

    def test_rank_one_at_scale_holds_no_d_by_d_array(self):
        # d = 2000: the (2d, d) table of diagonals and the d x d identity mean
        # took about 100 MB; the moves and the diagonal mean take O(d)
        d, z0 = 2000, tall_start(2000, 1)
        tracemalloc.start()
        try:
            started = time.perf_counter()
            spec = ProductSpec((make_rademacher_rank_one(d),) * 50, z0)
            rows, _ = comparison_rows(spec, p=2 * (1 + math.log(d)), trials=150)
            elapsed = time.perf_counter() - started
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [r.quantity for r in rows if not r.skipped] == [
            "growth-moment", "concentration-moment", "expectation-growth"]
        assert peak < 8 * 2**20
        assert "diagonals" not in vars(spec.factors[0].sampler)
        assert elapsed < 1.0

    def test_value(self):
        spec = matrix_two_point(dim=2, n=3)
        step = np.eye(2) + 0.2 * np.eye(2) / 3.0
        assert np.allclose(expected_product(spec), step @ step @ step, rtol=1e-14)

    def test_unsupported_modes(self):
        e = make_bounded_perturbation(2, np.zeros((2, 2)), 0.1, 2.0)
        inv = ProductSpec(factors=(e,), z0=np.eye(2), mode="inverse")
        with pytest.raises(UnsupportedEnsembleError):
            expected_product(inv)
        hook = NormBiasedTwoPointHook(2)
        ad = ProductSpec(factors=(), z0=np.eye(2), mode="adapted",
                         adapted_hook=hook, n_steps=2)
        with pytest.raises(UnsupportedEnsembleError):
            expected_product(ad)


class TestTriangularArrayRun:
    def test_rows_and_scaling(self):
        a = np.array([[0.0, 0.3], [0.0, 0.0]])
        rows = triangular_array_run(a, radius=1.0, dim=2, n_list=(2, 4),
                                    trials=64, seed=3)
        assert [r.n for r in rows] == [2, 4]
        t_val = float(np.linalg.svd(a, compute_uv=False)[0])
        want = math.sqrt(1.0 + 2.0 * math.log(2)) * 1.0 * math.exp(1.0 + t_val)
        for r in rows:
            assert r.scaled_bound == pytest.approx(want, rel=1e-14)
            assert r.scaled_mean == pytest.approx(
                math.sqrt(r.n) * r.deviation_from_mean.mean, rel=1e-14)
            assert r.scaled_std_error == pytest.approx(
                math.sqrt(r.n) * r.deviation_from_mean.std_error, rel=1e-14)
            assert r.deviation_from_exponential.mean > 0.0

    def test_rows_use_disjoint_streams_and_reproduce(self):
        a = 0.1 * np.eye(2)
        first = triangular_array_run(a, 0.5, 2, (3, 3), trials=16, seed=8)
        again = triangular_array_run(a, 0.5, 2, (3, 3), trials=16, seed=8)
        assert first[0].deviation_from_mean.mean == again[0].deviation_from_mean.mean
        # same n in both rows, different substream keys
        assert first[0].deviation_from_mean.mean != first[1].deviation_from_mean.mean

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            triangular_array_run(np.eye(3), 0.5, 2, (2,), trials=4, seed=0)
        with pytest.raises(InvalidParameterError):
            triangular_array_run(np.eye(2), 0.5, 2, (0,), trials=4, seed=0)

    def test_overflowing_bound_is_invalid_input(self, monkeypatch):
        # e^(1 + 800) overflows, and so would e^A; a warning is an error here
        import scipy.linalg

        def no_expm(a):
            raise AssertionError("expm ran on an overflowing mean")

        monkeypatch.setattr(scipy.linalg, "expm", no_expm)
        with pytest.raises(InvalidInputError, match=r"T = 800.*overflows"):
            triangular_array_run(800.0 * np.eye(2), 0.5, 2, (4,), trials=4, seed=0)

    def test_norm_below_the_overflow_runs(self):
        rows = triangular_array_run(700.0 * np.eye(2), 0.5, 2, (4,), trials=4, seed=0)
        assert math.isfinite(rows[0].scaled_bound)


class TestConjugatedSpec:
    def base_spec(self, n=6):
        mean = np.array([[0.9, 0.5], [0.0, 0.9]])
        e = make_bounded_perturbation(2, mean * 2.0 - 2.0 * np.eye(2), 0.02 * 2.0, 2.0)
        # factors are I + X/2 with E X = 2(mean - I): E Y = mean exactly
        assert np.allclose(e.exact_mean(), mean, rtol=1e-14)
        return ProductSpec(factors=(e,) * n, z0=np.eye(2))

    def test_spectral_radius_invariant_per_trial(self):
        spec = self.base_spec()
        s = np.diag([1.0, 0.1])
        conj = conjugated_spec(spec, s)
        a = simulate_product(spec, 16, seed=2)
        b = simulate_product(conj, 16, seed=2)
        for z, w in zip(a.z, b.z):
            rz = np.abs(np.linalg.eigvals(z)).max()
            rw = np.abs(np.linalg.eigvals(w)).max()
            assert rw == pytest.approx(rz, rel=1e-9)

    def test_support_stats_recomputed_exactly(self):
        spec = self.base_spec()
        s = np.diag([1.0, 0.1])
        conj = conjugated_spec(spec, s)
        f = conj.factors[0]
        assert f.kind == "conjugated-bounded-perturbation"
        expect = support_stats(f)
        assert f.stats.mean_norm == expect.mean_norm
        assert f.stats.sigma == expect.sigma
        # the conjugated mean is better balanced than the original
        orig_norm = spec.factors[0].stats.mean_norm
        assert f.stats.mean_norm == pytest.approx(0.9253471552684553, rel=1e-12)
        assert f.stats.mean_norm < orig_norm

    def test_sampler_is_the_conjugated_support(self, monkeypatch):
        spec = self.base_spec()
        s = np.array([[1.0, 0.2], [0.0, 0.5]])
        s_inv = np.linalg.solve(s, np.eye(2))
        conj = conjugated_spec(spec, s)
        for e, f in zip(spec.factors, conj.factors, strict=True):
            assert f.sampler is f.support
            assert f.support.probs == e.support.probs
            for (a, _), (b, _) in zip(e.support, f.support, strict=True):
                assert b.tobytes() == (s_inv @ a @ s).tobytes()
        calls = count_draws(monkeypatch)
        sim = simulate_product(conj, 40, seed=6)
        assert calls == {}  # the batched kernel, not one draw at a time
        # each step is a draw of the original factor, conjugated
        want = []
        for k in range(40):
            rng = substream(6, k)
            prod = conj.z0
            for e in spec.factors:
                prod = (s_inv @ e.draw(rng) @ s) @ prod
            want.append(prod)
        assert_bitwise_equal(sim.z, want)

    def test_each_ensemble_is_conjugated_once(self, monkeypatch):
        a, b = self.base_spec().factors[0], make_rademacher_rank_one(2)
        spec = ProductSpec((a, b) * 5, np.eye(2))
        s = np.array([[1.0, 0.2], [0.0, 0.5]])
        s_inv = np.linalg.solve(s, np.eye(2))
        shells = []
        monkeypatch.setattr(simulate, "support_stats",
                            lambda e: shells.append(e) or support_stats(e))
        conj = conjugated_spec(spec, s)
        assert len(shells) == 2
        assert conj.factors == conj.factors[:2] * 5 and conj.factors[0] is not conj.factors[1]
        for e, f in zip(spec.factors, conj.factors, strict=True):
            assert f.stats == support_stats(f)
            for (atom, _), (got, _) in zip(e.support, f.support, strict=True):
                assert got.tobytes() == (s_inv @ atom @ s).tobytes()

    def test_sampled_factors_are_rejected(self):
        e = make_bounded_perturbation(2, np.zeros((2, 2)), 0.2, 4.0,
                                      support="uniform-sphere")
        spec = ProductSpec(factors=(e,) * 2, z0=np.eye(2))
        with pytest.raises(UnsupportedEnsembleError):
            conjugated_spec(spec, np.diag([1.0, 0.5]))

    def test_validation(self):
        spec = self.base_spec(n=2)
        with pytest.raises(InvalidInputError):
            conjugated_spec(spec, np.diag([1.0, 1e-14]))
        with pytest.raises(InvalidInputError):
            conjugated_spec(spec, np.eye(3))
        e = spec.factors[0]
        tall = ProductSpec(factors=(e,) * 2, z0=np.eye(2)[:, :1])
        with pytest.raises(InvalidInputError):
            conjugated_spec(tall, np.eye(2))
        hook = NormBiasedTwoPointHook(2)
        ad = ProductSpec(factors=(), z0=np.eye(2), mode="adapted",
                         adapted_hook=hook, n_steps=2)
        with pytest.raises(UnsupportedEnsembleError):
            conjugated_spec(ad, np.eye(2))


TWO_POINT_CONFIG = {"kind": "bounded-perturbation", "dim": 2,
                    "mean": {"rows": 2, "cols": 2, "data": [0.2, 0.0, 0.0, 0.2]},
                    "radius": 0.3, "n_scale": 5}


class TestSpecConfig:
    def test_round_trip_groups_counts(self):
        spec = matrix_two_point(dim=2, n=5)
        cfg = {"factors": [{"ensemble": TWO_POINT_CONFIG, "count": 5}], "z0": "identity"}
        back = spec_from_config(cfg)
        assert back.n == 5 and back.d == 2 and back.mode == "independent"
        assert len({id(e) for e in back.factors}) == 1
        assert np.array_equal(back.z0, np.eye(2))
        ra = enumerate_product(back, thresholds_growth=(1.1,))
        rb = enumerate_product(spec, thresholds_growth=(1.1,))
        assert ra.growth_moment == rb.growth_moment

    def test_explicit_z0_round_trip(self):
        z0 = np.array([[1.0, 0.0], [0.5, 2.0]])
        cfg = {"factors": [{"ensemble": {"kind": "bounded-perturbation", "dim": 2,
                                         "radius": 0.1, "n_scale": 2.0}}],
               "z0": {"rows": 2, "cols": 2, "data": [1.0, 0.0, 0.5, 2.0]},
               "mode": "inverse"}
        back = spec_from_config(cfg)
        assert back.mode == "inverse"
        assert np.array_equal(back.z0, z0)

    def test_bare_ensemble_entries(self):
        # an entry holds 'ensemble' and 'count': a bare ensemble, whose count
        # was once dropped, is refused
        for entry in (TWO_POINT_CONFIG, {**TWO_POINT_CONFIG, "count": 10}):
            with pytest.raises(InvalidInputError, match="unknown spec factor key.*'kind'"):
                spec_from_config({"factors": [entry]})

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            spec_from_config([])
        with pytest.raises(InvalidInputError):
            spec_from_config({"factors": []})
        cfg = {"factors": [{"ensemble": TWO_POINT_CONFIG, "count": 0}]}
        with pytest.raises(InvalidInputError):
            spec_from_config(cfg)


class TestRankOneInteraction:
    def test_rademacher_products_enumerate(self):
        e = make_rademacher_rank_one(3)
        spec = ProductSpec(factors=(e,) * 2, z0=np.eye(3))
        rep = enumerate_product(spec)
        assert rep.outcomes == 36
        assert np.allclose(rep.mean, np.eye(3), atol=1e-14)


# ---------------------------------------------------------------------------
# the factor law table (_laws) against the per-factor derivations it replaced

def reference_spec_walk(spec):
    """_spec_walk of an independent or inverse spec as it was before the law
    table: each factor position derives its own support, probability row and
    steps, and inverse mode solves every atom of every position."""
    supports = [e.support for e in spec.factors]
    probs = [np.array(s.probs)[None] for s in supports]
    if spec.mode == "inverse":
        steps = [np.linalg.solve(s.atoms, np.eye(spec.d)) for s in supports]
        start, apply = np.linalg.solve(spec.z0, np.eye(spec.d)), lambda y, prod: prod @ y
    else:
        steps = [s.atoms if s.diagonals is None else s.diagonals for s in supports]
        start, apply = spec.z0, np.matmul
    return functools.partial(simulate._walk, start, spec.n,
                             lambda depth, _: (steps[depth], probs[depth], None), apply)


def reference_sampled_chunk(spec, start, laws, u, draws):
    """_sampled_chunk as it was before the law table, ignoring ``laws``: the
    kernel groups the picks by sampler, takes each position's steps from its
    sampler, and finds each diagonal sampler's moved entries for every chunk."""
    samplers = [e.sampler for e in spec.factors]
    groups = {}
    for i, s in enumerate(samplers):
        if i not in draws:
            groups.setdefault(id(s), (s, []))[1].append(i)
    digits = np.empty((len(samplers), len(u)), dtype=np.intp)
    for s, cols in groups.values():
        digits[cols] = s.pick(u[:, cols]).T
    digits[list(draws)] = np.arange(len(u))
    invert, kept = spec.mode == "inverse", None
    steps = [draws[i] if i in draws else s.atoms if invert or s.diagonals is None
             else s.diagonals for i, s in enumerate(samplers)]
    if invert:
        cond_est = np.full(len(u), condition_numbers(spec.z0))
        for i, (s, dig) in enumerate(zip(samplers, digits)):
            conds = condition_numbers(draws[i]) if i in draws else s.conds
            cond_est = cond_est * conds[dig]
        kept = ~(cond_est > CONDITION_LIMIT)
        digits = digits[:, kept]
    r, moves = start.shape[1], {}
    for key, (s, _) in groups.items():
        if not invert and s.moves is not None:
            cols, vals = s.moves
            offsets = (cols * r)[:, :, None] + np.arange(r)
            moves[key] = offsets.reshape(len(cols), -1), np.repeat(vals, r, axis=1)
    trials = digits.shape[1]
    base = (np.arange(trials) * start.size)[:, None]
    prod, pending = np.broadcast_to(start, (trials, *start.shape)), False
    with np.errstate(over="ignore", invalid="ignore"):
        for s, run in itertools.groupby(range(len(samplers)), key=samplers.__getitem__):
            run = list(run)
            moved = moves.get(id(s))
            if moved is None:
                if pending:
                    prod += 0.0
                    pending = False
                for i in run:
                    prod = simulate._step(steps[i], digits[i], prod,
                                          simulate._right_solve if invert else np.matmul)
                continue
            if not prod.flags.writeable:
                prod = prod.copy()
            simulate._scatter(moved, digits[run[0]:run[-1] + 1], prod.reshape(-1), base)
            pending = True
        if pending:
            prod += 0.0
    return prod, kept


@st.composite
def finite_support_specs(draw):
    """Independent or inverse specs of one to three finite-support ensembles,
    dense or diagonal, some atoms at probability 0, one ensemble repeated or
    several interleaved."""
    d, mode = draw(st.integers(1, 3)), draw(st.sampled_from(["independent", "inverse"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ensembles = []
    for _ in range(draw(st.integers(1, 3))):
        k = draw(st.integers(1, 3))
        weights = draw(st.lists(st.sampled_from([0.0, 1.0, 2.0]), min_size=k, max_size=k)
                       .filter(any))
        probs = tuple(w / sum(weights) for w in weights)
        if draw(st.booleans()):  # diagonal atoms, their entries away from 0
            sampler = SupportSampler.from_diagonals(rng.uniform(0.6, 1.4, (k, d)), probs)
        else:
            sampler = SupportSampler(np.eye(d) + rng.uniform(-0.3, 0.3, (k, d, d)) / d, probs)
        ensembles.append(FactorEnsemble(dim=d, sampler=sampler, stats=FactorStats(1.0, 0.0)))
    n = draw(st.integers(1, 6))
    if draw(st.booleans()):
        factors = (ensembles[0],) * n
    else:
        factors = tuple(ensembles[i % len(ensembles)] for i in range(n))
    r = d if mode == "inverse" else draw(st.integers(1, 3))
    z0 = np.eye(d, r) + rng.uniform(-0.2, 0.2, (d, r)) / d
    return ProductSpec(factors, z0, mode=mode)


class TestLawTable:
    """Every reader of _laws gives the bits of the per-factor derivations."""

    @staticmethod
    def outputs(spec, seed):
        mean = simulate.expected_product(spec) if spec.mode == "independent" else None
        return (mean, enumerate_product(spec, 3.0, 2.0, (1.0,), (0.1,)),
                summarize_simulation(spec, 40, seed, 3.0, 2.0, (1.0,), (0.1,)))

    @given(finite_support_specs(), st.integers(0, 2**31 - 1))
    def test_readers_keep_the_reference_bits(self, spec, seed):
        got = self.outputs(spec, seed)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(simulate, "_spec_walk", reference_spec_walk)
            mp.setattr(simulate, "_sampled_chunk", reference_sampled_chunk)
            mp.setattr(simulate, "expected_product", dense_chain)
            want = self.outputs(spec, seed)
        assert pickle.dumps(got) == pickle.dumps(want)

    def test_positions_share_one_record_per_ensemble(self):
        a, b = zero_atom_ensemble(), invertible_diagonal(2)
        laws = simulate._laws(ProductSpec((a, b, a, a, b), np.eye(2)))
        assert [law.ensemble for law in laws] == [a, b, a, a, b]
        assert laws[0] is laws[2] is laws[3] and laws[1] is laws[4] and laws[0] is not laws[1]

    def test_inverse_enumeration_solves_each_ensemble_once(self, monkeypatch):
        # the atoms of the one ensemble all ten positions share, then Z_0^(-1)
        spec = replace(matrix_two_point(dim=4, n=10), mode="inverse")
        calls, solve = [], np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", lambda a, b: calls.append(np.shape(a)) or solve(a, b))
        enumerate_product(spec)
        assert calls == [(2, 4, 4), (4, 4)]

    def test_expected_product_averages_each_ensemble_once(self, monkeypatch):
        spec = matrix_two_point(dim=4, n=10)
        want = dense_chain(spec)
        calls, exact_mean = [], FactorEnsemble.exact_mean
        monkeypatch.setattr(FactorEnsemble, "exact_mean",
                            lambda self: calls.append(self) or exact_mean(self))
        assert expected_product(spec).tobytes() == want.tobytes()
        assert calls == [spec.factors[0]]

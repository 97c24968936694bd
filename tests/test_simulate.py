import math
from dataclasses import replace

import numpy as np
import pytest

from matprod import simulate
from matprod.ensembles import (
    FactorEnsemble,
    FactorStats,
    SupportSampler,
    estimate_factor_stats,
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
    HistoryFreeHook,
    NormBiasedTwoPointHook,
    ProductSpec,
    clopper_pearson,
    conjugated_spec,
    enumerate_product,
    estimate_norm_statistics,
    expected_product,
    simulate_product,
    spec_from_config,
    spec_to_config,
    summarize_simulation,
    tail_frequencies,
    triangular_array_run,
)
from matprod.schatten import spectral_norm
from matprod.streams import substream


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


def reference_loop(spec, trials, seed, key=()):
    """One trial and one factor draw at a time: the loop the kernel replaces."""
    inverse = spec.mode == "inverse"
    start = np.linalg.solve(spec.z0, np.eye(spec.d)) if inverse else spec.z0
    zs, excluded = [], []
    for k in range(trials):
        rng = substream(seed, *key, k)
        prod = start
        cond_est = np.linalg.cond(spec.z0)
        for e in spec.factors:
            y = e.draw(rng)
            if inverse:
                cond_est *= np.linalg.cond(y)
                prod = np.linalg.solve(y.T, prod.T).T
            else:
                prod = y @ prod
        if inverse and (cond_est > CONDITION_LIMIT or not np.all(np.isfinite(prod))):
            excluded.append(k)
        else:
            zs.append(prod)
    return zs, excluded


def reference_adapted_loop(spec, trials, seed):
    """Adapted products drawn by a linear scan of the running probability sum."""
    zs = []
    for k in range(trials):
        rng = substream(seed, k)
        prod, history = spec.z0, []
        for _ in range(spec.n):
            support = spec.adapted_hook.conditional_support(tuple(history))
            u, acc, y = rng.random(), 0.0, support[-1][0]
            for mat, prob in support:
                acc += prob
                if u < acc:
                    y = mat
                    break
            prod = y @ prod
            history.append(y)
        zs.append(prod)
    return zs


def assert_bitwise_equal(zs, want):
    assert len(zs) == len(want)
    if want:
        assert np.stack(zs).tobytes() == np.stack(want).tobytes()


def assert_matches_reference(spec, trials, seed, key=()):
    sim = simulate_product(spec, trials, seed, key)
    zs, excluded = reference_loop(spec, trials, seed, key)
    assert sim.excluded_indices == excluded
    assert sim.excluded == len(excluded)
    assert_bitwise_equal(sim.z, zs)
    return sim


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
    return FactorEnsemble(dim=d, sampler=sampler, stats=FactorStats(1.0, 0.0),
                          support=sampler.support)


def dense_twin(spec):
    """The same spec with every sampler's diagonals forgotten: dense steps only."""
    return ProductSpec(tuple(replace(e, sampler=SupportSampler(e.sampler.atoms, e.sampler.probs))
                             for e in spec.factors), spec.z0, mode=spec.mode)


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
    ])
    def test_matches_per_trial_loop(self, make_spec, monkeypatch):
        spec = make_spec()
        calls = count_draws(monkeypatch)
        sim = simulate_product(spec, 150, seed=31)
        assert calls == {}  # no per-factor draws on the batched path
        zs, excluded = reference_loop(spec, 150, seed=31)
        assert excluded == []
        assert_bitwise_equal(sim.z, zs)

    @IGNORE_OVERFLOW
    def test_overflow_takes_the_dense_products(self):
        # in the rank-one-overflow case, dense steps spread an inf through
        # 0 * inf into NaN everywhere; scaled rows would keep finite entries
        z = np.stack(simulate_product(overflowing_rank_one(), 150, seed=31).z)
        done = np.isfinite(z).all(axis=(1, 2))
        assert 0 < done.sum() < 150
        assert np.isnan(z[~done]).all()

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
        for (w, prod), (w_want, want) in zip(simulate._enumerate_independent(spec, False),
                                             simulate._enumerate_independent(twin, False),
                                             strict=True):
            assert w.tobytes() == w_want.tobytes()
            assert prod.tobytes() == want.tobytes()
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


class TestPerTrialPath:
    """Samplers without a batch form still draw one factor at a time."""

    def test_uniform_sphere_conjugated_and_mixed(self, monkeypatch):
        sphere = make_bounded_perturbation(3, 0.1 * np.eye(3), 0.5, 10, "uniform-sphere")
        two_point = matrix_two_point(dim=3, n=6)
        conj = conjugated_spec(two_point, np.diag([1.0, 2.0, 3.0]))
        mixed = ProductSpec((sphere, two_point.factors[0]) * 3, np.eye(3))
        for spec in (ProductSpec((sphere,) * 6, np.eye(3)),
                     ProductSpec((sphere,) * 6, np.eye(3), mode="inverse"),
                     conj, mixed):
            calls = count_draws(monkeypatch)
            assert_matches_reference(spec, 12, seed=5)
            # the product draws each of its factors once per trial, twice
            # counting the reference loop
            assert sum(calls[id(e)] for e in set(spec.factors)) == 2 * 12 * 6

    def test_adapted_hooks(self):
        e = make_bounded_perturbation(3, 0.1 * np.eye(3), 0.5, 10)
        for hook in (HistoryFreeHook(e), NormBiasedTwoPointHook(3, scale=0.2)):
            spec = ProductSpec(factors=(), z0=np.eye(3), mode="adapted",
                               adapted_hook=hook, n_steps=7)
            assert_bitwise_equal(simulate_product(spec, 40, seed=6).z,
                                 reference_adapted_loop(spec, 40, seed=6))


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
        sim = simulate_product(spec, 4096, seed=11)
        est = estimate_norm_statistics(sim, p=3.0, q=2.0, reference=rep.mean)
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
    def test_clopper_pearson_closed_forms(self):
        n = 500
        lcl, ucl = clopper_pearson(0, n, level=0.99)
        assert lcl == 0.0
        assert ucl == pytest.approx(1.0 - 0.01 ** (1.0 / n), rel=1e-12)
        lcl, ucl = clopper_pearson(n, n, level=0.99)
        assert ucl == 1.0
        assert lcl == pytest.approx(0.01 ** (1.0 / n), rel=1e-12)
        lcl, ucl = clopper_pearson(3, n, level=0.99)
        assert 0.0 < lcl < 3.0 / n < ucl < 1.0
        with pytest.raises(InvalidParameterError):
            clopper_pearson(0, 0)

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
            sim = simulate_product(spec, 400, seed=1729, key=(j,))
            est = estimate_norm_statistics(sim, p=2.0, q=2.0, reference=rep.mean)
            for key, truth in truths.items():
                e = est[key]
                covered[key] += int(e.ci_low - 1e-12 <= truth <= e.ci_high + 1e-12)
        for key, hits in covered.items():
            assert hits >= 99, (key, hits)


class TestEstimateNormStatistics:
    def test_quantity_names_and_radius_only_when_square(self):
        sim = simulate_product(matrix_two_point(), 32, seed=0)
        est = estimate_norm_statistics(sim, p=2.0, q=2.0)
        assert set(est) == {"spectral-norm-mean", "schatten-moment",
                            "spectral-radius-mean"}
        e = make_bounded_perturbation(2, np.zeros((2, 2)), 0.1, 2.0)
        tall = ProductSpec(factors=(e,) * 2, z0=np.eye(2)[:, :1])
        est2 = estimate_norm_statistics(simulate_product(tall, 8, seed=0))
        assert "spectral-radius-mean" not in est2

    def test_moment_interval_nonnegative(self):
        sim = simulate_product(scalar_two_point(), 8, seed=0)
        est = estimate_norm_statistics(sim, p=2.0, q=4.0)
        m = est["schatten-moment"]
        assert m.ci_low >= 0.0
        assert m.ci_low <= m.mean <= m.ci_high

    def test_adapted_reference_requires_adapted_run(self):
        sim = simulate_product(scalar_two_point(), 8, seed=0)
        with pytest.raises(InvalidParameterError):
            estimate_norm_statistics(sim, reference="adapted")

    def test_validation(self):
        sim = simulate_product(scalar_two_point(), 8, seed=0)
        with pytest.raises(InvalidParameterError):
            estimate_norm_statistics(sim, q=0.5)
        empty = simulate_product(scalar_two_point(), 1, seed=0)
        empty.z = []
        with pytest.raises(InvalidParameterError):
            estimate_norm_statistics(empty)

    def test_tail_frequencies_exact_counts(self):
        spec = scalar_two_point(n=2)
        sim = simulate_product(spec, 64, seed=5)
        values = np.stack(sim.z)[:, 0, 0]
        out = tail_frequencies(sim, (1.2,), reference=np.eye(1))
        growth, dev = out
        assert growth.quantity == "growth-tail" and dev.quantity == "deviation-tail"
        assert growth.hits == int((values >= 1.2).sum())
        assert dev.hits == int((np.abs(values - 1.0) >= 1.2).sum())
        assert growth.lcl <= growth.frequency <= growth.ucl
        assert growth.frequency == growth.hits / 64


def adapted_spec(n=6):
    hook = NormBiasedTwoPointHook(2, scale=0.1, high=0.7)
    return ProductSpec(factors=(), z0=np.eye(2), mode="adapted", adapted_hook=hook, n_steps=n)


class TestSummarizeSimulation:
    """One reference rule, the same values as the two estimators it replaces."""

    def test_independent_measures_against_the_mean(self):
        spec = matrix_two_point(dim=3, n=5, radius=0.5)
        sim = simulate_product(spec, 60, seed=2)
        est, tails, spectral = summarize_simulation(spec, sim, 3.0, 2.5, (1.0, 1.3), (0.2, 0.4))
        ref = expected_product(spec)
        assert est == estimate_norm_statistics(sim, 3.0, 2.5, reference=ref)
        assert spectral.tolist() == [spectral_norm(z) for z in sim.z]
        assert tails == tail_frequencies(sim, (1.0, 1.3)) + [
            t for t in tail_frequencies(sim, (0.2, 0.4), ref) if t.quantity == "deviation-tail"]

    def test_inverse_reports_no_deviations(self):
        e = make_bounded_perturbation(3, 0.1 * np.eye(3), 0.3, 4.0)
        spec = ProductSpec((e,) * 4, np.eye(3), mode="inverse")
        sim = simulate_product(spec, 40, seed=3)
        est, tails, _ = summarize_simulation(spec, sim, 2.0, 2.0, (1.0,), (0.2,))
        assert est == estimate_norm_statistics(sim, 2.0, 2.0)
        assert set(est) == {"spectral-norm-mean", "schatten-moment", "spectral-radius-mean"}
        assert tails == tail_frequencies(sim, (1.0,))

    def test_adapted_measures_against_f_without_deviation_tails(self):
        spec = adapted_spec()
        sim = simulate_product(spec, 40, seed=4)
        est, tails, _ = summarize_simulation(spec, sim, 4.0, 2.0, (1.0,), (0.05,))
        assert est == estimate_norm_statistics(sim, 4.0, 2.0, reference="adapted")
        assert "deviation-norm-mean" in est
        assert tails == tail_frequencies(sim, (1.0,))

    def test_each_stack_decomposed_once(self, svd_shapes):
        spec = matrix_two_point(dim=3, n=5)
        sim = simulate_product(spec, 30, seed=5)
        svd_shapes.clear()
        summarize_simulation(spec, sim, 3.0, 2.0, (1.0,), (0.2,))
        assert svd_shapes == [(30, 3, 3), (30, 3, 3)]

    def test_validation(self):
        spec = scalar_two_point()
        sim = simulate_product(spec, 8, seed=0)
        with pytest.raises(InvalidParameterError, match="q must satisfy"):
            summarize_simulation(spec, sim, q=0.5)
        sim.z = []
        with pytest.raises(InvalidParameterError, match="no included trials"):
            summarize_simulation(spec, sim)


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

    def test_ill_conditioned_trials_excluded(self):
        # atoms I +/- (1 - 1e-7) U have eigenvalues 1e-7 and 2 - 1e-7, so each
        # factor contributes condition ~ 2e7 and two factors overflow the limit
        e = make_bounded_perturbation(2, np.zeros((2, 2)), 1.0 - 1e-7, 1.0)
        spec = ProductSpec(factors=(e,) * 2, z0=np.eye(2), mode="inverse")
        sim = simulate_product(spec, 20, seed=0)
        assert sim.excluded == 20
        assert sim.excluded_indices == list(range(20))
        assert sim.z == []
        with pytest.raises(InvalidParameterError):
            estimate_norm_statistics(sim)


class TestAdaptedMode:
    def adapted_pair(self, n=4):
        e = make_bounded_perturbation(2, 0.1 * np.eye(2), 0.2, n)
        indep = ProductSpec(factors=(e,) * n, z0=np.eye(2))
        adapted = ProductSpec(factors=(), z0=np.eye(2), mode="adapted",
                              adapted_hook=HistoryFreeHook(e), n_steps=n)
        return indep, adapted

    def test_history_free_hook_matches_independent_bitwise(self):
        indep, adapted = self.adapted_pair()
        a = simulate_product(indep, 24, seed=4)
        b = simulate_product(adapted, 24, seed=4)
        assert all(np.array_equal(x, y) for x, y in zip(a.z, b.z))

    def test_conditional_mean_track_equals_expected_product(self):
        indep, adapted = self.adapted_pair()
        sim = simulate_product(adapted, 8, seed=4)
        want = expected_product(indep)
        for f in sim.f:
            assert np.allclose(f, want, rtol=1e-14, atol=1e-14)

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

    def test_adapted_mc_matches_enumeration(self):
        hook = NormBiasedTwoPointHook(2, scale=0.05, high=0.7)
        spec = ProductSpec(factors=(), z0=np.eye(2), mode="adapted",
                           adapted_hook=hook, n_steps=8)
        rep = enumerate_product(spec, p=2.0, q=2.0)
        sim = simulate_product(spec, 4096, seed=21)
        est = estimate_norm_statistics(sim, p=2.0, q=2.0, reference="adapted")
        dev = est["deviation-norm-mean"]
        assert abs(dev.mean - rep.deviation_mean) <= 5.0 * dev.std_error
        growth = est["spectral-norm-mean"]
        assert abs(growth.mean - rep.growth_mean) <= 5.0 * growth.std_error

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
        plain = make_bounded_perturbation(2, np.zeros((2, 2)), 0.1, 2.0,
                                          support="uniform-sphere")
        with pytest.raises(UnsupportedEnsembleError):
            HistoryFreeHook(plain)


class TestExpectedProduct:
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

    def test_rows_use_disjoint_substreams_and_reproduce(self):
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

    def test_sampled_factors_get_monte_carlo_stats(self):
        e = make_bounded_perturbation(2, np.zeros((2, 2)), 0.2, 4.0,
                                      support="uniform-sphere")
        spec = ProductSpec(factors=(e,) * 2, z0=np.eye(2))
        conj = conjugated_spec(spec, np.diag([1.0, 0.5]), trials=256, seed=5)
        f = conj.factors[0]
        assert f.stats.provenance == "monte-carlo"
        assert f.stats.trials == 256

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


class TestSpecConfig:
    def test_round_trip_groups_counts(self):
        spec = matrix_two_point(dim=2, n=5)
        cfg = spec_to_config(spec)
        assert cfg["z0"] == "identity"
        assert len(cfg["factors"]) == 1
        assert cfg["factors"][0]["count"] == 5
        back = spec_from_config(cfg)
        assert back.n == 5 and back.d == 2 and back.mode == "independent"
        ra = enumerate_product(back, thresholds_growth=(1.1,))
        rb = enumerate_product(spec, thresholds_growth=(1.1,))
        assert ra.growth_moment == rb.growth_moment

    def test_explicit_z0_round_trip(self):
        e = make_bounded_perturbation(2, np.zeros((2, 2)), 0.1, 2.0)
        z0 = np.array([[1.0, 0.0], [0.5, 2.0]])
        spec = ProductSpec(factors=(e,), z0=z0, mode="inverse")
        back = spec_from_config(spec_to_config(spec))
        assert back.mode == "inverse"
        assert np.array_equal(back.z0, z0)

    def test_bare_ensemble_entries(self):
        e = make_bounded_perturbation(2, np.zeros((2, 2)), 0.1, 2.0)
        from matprod.ensembles import ensemble_to_config
        cfg = {"factors": [ensemble_to_config(e), ensemble_to_config(e)]}
        assert spec_from_config(cfg).n == 2

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            spec_from_config([])
        with pytest.raises(InvalidInputError):
            spec_from_config({"factors": []})
        e = make_bounded_perturbation(2, np.zeros((2, 2)), 0.1, 2.0)
        from matprod.ensembles import ensemble_to_config
        cfg = {"factors": [{"ensemble": ensemble_to_config(e), "count": 0}]}
        with pytest.raises(InvalidInputError):
            spec_from_config(cfg)


class TestRankOneInteraction:
    def test_rademacher_products_enumerate(self):
        e = make_rademacher_rank_one(3)
        spec = ProductSpec(factors=(e,) * 2, z0=np.eye(3))
        rep = enumerate_product(spec)
        assert rep.outcomes == 36
        assert np.allclose(rep.mean, np.eye(3), atol=1e-14)

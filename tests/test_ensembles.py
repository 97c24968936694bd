import math
import mmap

import numpy as np
import pytest

from matprod.ensembles import (
    PAGED_STACK_BYTES,
    FactorEnsemble,
    FactorStats,
    SupportSampler,
    ensemble_from_config,
    ensemble_to_config,
    estimate_factor_stats,
    householder_direction,
    make_bounded_perturbation,
    make_rademacher_rank_one,
    make_random_projector_contraction,
    projected_deviation_stat,
    support_stats,
)
from matprod.errors import (
    InvalidInputError,
    InvalidParameterError,
    UnsupportedEnsembleError,
)
from matprod.schatten import spectral_norm
from matprod.streams import substream


class TestFactorStats:
    def test_defaults(self):
        s = FactorStats(mean_norm=1.5, sigma=0.2)
        assert s.q == 2.0
        assert s.provenance == "analytic"
        assert s.uniform_norm is None

    @pytest.mark.parametrize("kwargs", [
        {"mean_norm": 0.0, "sigma": 0.1},
        {"mean_norm": math.inf, "sigma": 0.1},
        {"mean_norm": 1.0, "sigma": -0.1},
        {"mean_norm": 1.0, "sigma": 0.1, "q": 1.5},
        {"mean_norm": 2.0, "sigma": 0.1, "uniform_norm": 1.0},
        {"mean_norm": 1.0, "sigma": 0.1, "sigma_uniform": -1.0},
        {"mean_norm": 1.5, "sigma": 0.1, "contraction": 0.9},
        {"mean_norm": 0.9, "sigma": 0.1, "contraction": 1.5},
        {"mean_norm": 1.0, "sigma": 0.1, "mean_perturbation": -0.5},
        {"mean_norm": 1.0, "sigma": 0.1, "provenance": "guesswork"},
        {"mean_norm": 1.0, "sigma": 0.1, "provenance": "monte-carlo"},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(InvalidParameterError):
            FactorStats(**kwargs)

    def test_monte_carlo_provenance_needs_bookkeeping(self):
        s = FactorStats(mean_norm=1.0, sigma=0.1, provenance="monte-carlo",
                        trials=100, confidence=0.99)
        assert s.trials == 100


class TestHouseholderDirection:
    @pytest.mark.parametrize("dim", [1, 2, 3, 8])
    def test_orthogonal_reflector(self, dim):
        u = householder_direction(dim)
        assert np.allclose(u @ u.T, np.eye(dim), atol=1e-12)
        assert spectral_norm(u) == pytest.approx(1.0, rel=1e-12)
        assert np.allclose(u, u.T)


class TestBoundedPerturbation:
    def test_stats_formulas(self):
        a = np.array([[0.0, 0.3], [0.0, 0.0]])
        e = make_bounded_perturbation(2, a, radius=0.5, n_scale=10.0)
        assert e.stats.mean_norm == pytest.approx(1.0 + 0.3 / 10.0, rel=1e-15)
        assert e.stats.sigma == pytest.approx(0.05, rel=1e-15)
        assert e.stats.sigma_uniform == pytest.approx(0.05, rel=1e-15)
        assert e.stats.mean_perturbation == pytest.approx(0.03, rel=1e-15)
        assert e.stats.uniform_norm >= e.stats.mean_norm

    def test_two_point_support(self):
        e = make_bounded_perturbation(2, np.zeros((2, 2)), 0.1, 1.0)
        assert len(e.support) == 2
        assert [p for _, p in e.support] == [0.5, 0.5]
        assert np.array_equal(e.exact_mean(), np.eye(2))
        devs = [spectral_norm(m - np.eye(2)) for m, _ in e.support]
        assert devs == pytest.approx([0.1, 0.1], rel=1e-12)

    def test_scalar_two_point_is_one_plus_minus_radius(self):
        e = make_bounded_perturbation(1, np.zeros((1, 1)), 0.1, 1.0)
        atoms = sorted(float(m[0, 0]) for m, _ in e.support)
        assert atoms == pytest.approx([0.9, 1.1], rel=1e-15)

    def test_zero_radius_degenerate(self):
        e = make_bounded_perturbation(2, 0.2 * np.eye(2), 0.0, 1.0)
        assert len(e.support) == 1
        assert e.support[0][1] == 1.0
        assert e.stats.sigma == 0.0

    def test_draws_reproducible(self):
        e = make_bounded_perturbation(3, np.zeros((3, 3)), 0.2, 4.0)
        a = [e.draw(substream(11, k)) for k in range(20)]
        b = [e.draw(substream(11, k)) for k in range(20)]
        assert all(np.array_equal(x, y) for x, y in zip(a, b))
        c = [e.draw(substream(12, k)) for k in range(20)]
        assert any(not np.array_equal(x, y) for x, y in zip(a, c))

    def test_uniform_sphere_deviation_norm_is_radius_over_scale(self):
        e = make_bounded_perturbation(3, np.zeros((3, 3)), 0.4, 2.0,
                                      support="uniform-sphere")
        assert e.support is None
        rng = substream(0, 0)
        for _ in range(5):
            dev = spectral_norm(e.draw(rng) - e.exact_mean())
            assert dev == pytest.approx(0.2, rel=1e-12)

    def test_projected_deviation_closed_form(self):
        e = make_bounded_perturbation(4, np.zeros((4, 4)), 0.12, 2.0)
        value, quality = projected_deviation_stat(e, 2)
        assert quality == "analytic"
        assert value == pytest.approx(0.06, rel=1e-15)

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            make_bounded_perturbation(2, np.zeros((3, 3)), 0.1, 1.0)
        with pytest.raises(InvalidParameterError):
            make_bounded_perturbation(2, np.zeros((2, 2)), -0.1, 1.0)
        with pytest.raises(InvalidParameterError):
            make_bounded_perturbation(2, np.zeros((2, 2)), 0.1, 0.0)
        with pytest.raises(InvalidParameterError):
            make_bounded_perturbation(2, np.zeros((2, 2)), 0.1, 1.0, support="levy")


class TestRademacherRankOne:
    def test_support_and_stats(self):
        d = 5
        e = make_rademacher_rank_one(d)
        assert len(e.support) == 2 * d
        assert np.array_equal(e.exact_mean(), np.eye(d))
        assert e.stats.mean_norm == 1.0
        assert e.stats.sigma == 1.0
        assert e.stats.uniform_norm == 2.0
        exact = support_stats(e)
        assert exact.mean_norm == pytest.approx(1.0, rel=1e-15)
        assert exact.sigma == pytest.approx(1.0, rel=1e-15)
        assert exact.sigma_uniform == pytest.approx(1.0, rel=1e-15)
        # E Y^T Y = I + I/d has norm above one, so no contraction statistic
        assert exact.contraction is None

    def test_projected_deviation_sqrt_r_over_d(self):
        e = make_rademacher_rank_one(100)
        for r in (1, 7, 100):
            value, quality = projected_deviation_stat(e, r)
            assert quality == "analytic"
            assert value == math.sqrt(r / 100)

    def test_rank_bounds_checked(self):
        e = make_rademacher_rank_one(4)
        with pytest.raises(InvalidParameterError):
            projected_deviation_stat(e, 0)
        with pytest.raises(InvalidParameterError):
            projected_deviation_stat(e, 5)


class TestProjectorContraction:
    def test_coordinate_stats(self):
        d = 4
        e = make_random_projector_contraction(d)
        c = math.sqrt(1.0 - 1.0 / d)
        assert e.stats.contraction == pytest.approx(c, rel=1e-12)
        assert e.stats.mean_norm == pytest.approx(c, rel=1e-12)
        assert e.stats.uniform_norm == 1.0
        # deviation atoms are I/d - e_j e_j^T with norm 1 - 1/d
        assert e.stats.sigma_uniform == pytest.approx((1.0 - 1.0 / d) / c, rel=1e-12)

    def test_draws_are_projectors(self):
        e = make_random_projector_contraction(6)
        rng = substream(2, 0)
        for _ in range(50):
            y = e.draw(rng)
            assert spectral_norm(y) <= 1.0 + 1e-12
            assert np.allclose(y @ y, y, atol=1e-12)
            assert np.allclose(y, y.T, atol=1e-12)

    def test_kaczmarz_rows(self):
        rows = np.array([[1.0, 1.0, 0.0], [0.0, 2.0, 0.0], [1.0, 0.0, 3.0]])
        e = make_random_projector_contraction(3, kind="kaczmarz-row", rows=rows)
        assert len(e.support) == 3
        rng = substream(4, 1)
        assert spectral_norm(e.draw(rng)) <= 1.0 + 1e-12

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            make_random_projector_contraction(3, kind="mystery")
        with pytest.raises(InvalidInputError):
            make_random_projector_contraction(
                3, kind="kaczmarz-row", rows=np.zeros((2, 3)))
        with pytest.raises(InvalidInputError):
            make_random_projector_contraction(
                3, kind="kaczmarz-row", rows=np.eye(2))

    def test_sampled_projected_deviation_nondecreasing_in_rank(self):
        e = make_random_projector_contraction(4)
        values = []
        for r in (1, 2, 3, 4):
            value, quality = projected_deviation_stat(e, r, seed=5)
            assert quality == "lower-estimate"
            values.append(value)
        assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))


class TestSupportStats:
    def test_two_point_exact_recovery(self):
        e = make_bounded_perturbation(3, np.zeros((3, 3)), 0.25, 1.0)
        exact = support_stats(e)
        assert exact.mean_norm == pytest.approx(1.0, rel=1e-15)
        assert exact.sigma == pytest.approx(0.25, rel=1e-15)
        assert exact.sigma_uniform == pytest.approx(0.25, rel=1e-15)

    def test_higher_order_stat(self):
        e = make_bounded_perturbation(2, np.zeros((2, 2)), 0.3, 1.0)
        exact = support_stats(e, q=4.0)
        # two-point deviations have constant norm, so every q gives the same sigma
        assert exact.q == 4.0
        assert exact.sigma == pytest.approx(0.3, rel=1e-12)

    def test_needs_support(self):
        e = make_bounded_perturbation(2, np.zeros((2, 2)), 0.1, 1.0,
                                      support="uniform-sphere")
        with pytest.raises(UnsupportedEnsembleError):
            support_stats(e)

    def test_mean_must_not_vanish(self):
        atoms = ((np.eye(2), 0.5), (-np.eye(2), 0.5))
        e = FactorEnsemble(dim=2, sampler=lambda rng: np.eye(2),
                           stats=FactorStats(mean_norm=1.0, sigma=1.0),
                           support=atoms)
        with pytest.raises(UnsupportedEnsembleError):
            support_stats(e)


class TestSupportSampler:
    @pytest.mark.parametrize("make", [
        lambda: make_bounded_perturbation(3, 0.1 * np.eye(3), 0.4, 2.0),
        lambda: make_rademacher_rank_one(6),
        lambda: make_random_projector_contraction(4),
    ], ids=["two-point", "rank-one", "projector"])
    def test_support_views_the_atom_stack(self, make):
        e = make()
        stack = e.sampler.atoms
        assert isinstance(e.sampler, SupportSampler)
        assert stack.shape == (len(e.support), e.dim, e.dim)
        for j, (atom, prob) in enumerate(e.support):
            assert np.shares_memory(atom, stack)
            assert np.array_equal(atom, stack[j])
            assert prob == e.sampler.probs[j]

    def test_rank_one_atoms_built_in_place(self):
        for dim in (3, 41):  # a heap stack and a paged one
            e = make_rademacher_rank_one(dim)
            eye = np.eye(dim)
            for j in range(dim):
                spike = np.zeros((dim, dim))
                spike[j, j] = 1.0
                assert np.array_equal(e.sampler.atoms[2 * j], eye + spike)
                assert np.array_equal(e.sampler.atoms[2 * j + 1], eye - spike)
            # a float stack is kept as it is, not copied
            assert SupportSampler(e.sampler.atoms, e.sampler.probs).atoms is e.sampler.atoms

    @pytest.mark.skipif(not hasattr(mmap, "MAP_ANONYMOUS"), reason="no anonymous mmap")
    @pytest.mark.parametrize("make, nbytes", [
        (lambda: make_rademacher_rank_one(41), 8 * 2 * 41**3),
        (lambda: make_random_projector_contraction(52), 8 * 52**3),
        (lambda: make_rademacher_rank_one(6), 8 * 2 * 6**3),
    ], ids=["rank-one-large", "projector-large", "rank-one-small"])
    def test_large_stacks_own_their_pages(self, make, nbytes):
        stack = make().sampler.atoms
        owner = stack
        while isinstance(owner, np.ndarray) and owner.base is not None:
            owner = owner.base
        if isinstance(owner, memoryview):
            owner = owner.obj
        assert isinstance(owner, mmap.mmap) == (nbytes >= PAGED_STACK_BYTES)
        assert stack.nbytes == nbytes and stack.flags.writeable

    @pytest.mark.parametrize("make", [
        lambda: make_rademacher_rank_one(3),
        lambda: make_rademacher_rank_one(41),
        lambda: make_random_projector_contraction(5),
        lambda: make_random_projector_contraction(52),
        lambda: FactorEnsemble(2, SupportSampler.from_diagonals(
            [[-0.0, 1.5], [-2.0, 0.0]], (0.25, 0.75)), FactorStats(1.0, 0.0)),
    ], ids=["rank-one", "rank-one-large", "coordinate", "coordinate-large", "signed"])
    def test_diagonal_atoms_are_their_diagonals(self, make):
        sampler = make().sampler
        atoms, diagonals = sampler.atoms, sampler.diagonals
        assert diagonals.shape == atoms.shape[:2]
        assert np.diagonal(atoms, axis1=1, axis2=2).tobytes() == diagonals.tobytes()
        off = atoms[:, ~np.eye(atoms.shape[1], dtype=bool)]
        assert np.all(off == 0.0) and not np.signbit(off).any()

    def test_rank_one_and_coordinate_atoms_unchanged(self):
        # the atoms the dense builders made: I +/- e_j e_j^T and I - e_j e_j^T
        eye = np.eye(4)
        rank_one = make_rademacher_rank_one(4).sampler.atoms
        coordinate = make_random_projector_contraction(4).sampler.atoms
        for j, r in enumerate(eye):
            spike = np.outer(r, r) / (1.0 * 1.0)
            assert rank_one[2 * j].tobytes() == (eye + spike).tobytes()
            assert rank_one[2 * j + 1].tobytes() == (eye - spike).tobytes()
            assert coordinate[j].tobytes() == (eye - spike).tobytes()

    @pytest.mark.parametrize("make", [
        lambda: make_bounded_perturbation(3, 0.1 * np.eye(3), 0.4, 2.0),
        lambda: make_bounded_perturbation(3, 0.1 * np.eye(3), 0.0, 2.0),
        lambda: make_random_projector_contraction(
            4, kind="kaczmarz-row", rows=substream(11).standard_normal((5, 4))),
    ], ids=["two-point", "one-point", "kaczmarz"])
    def test_dense_samplers_have_no_diagonals(self, make):
        assert make().sampler.diagonals is None

    def test_projector_atoms_match_outer_products(self):
        rows = substream(11).standard_normal((5, 5))
        eye = np.eye(5)
        # coordinate atoms are built from their diagonals, bit for bit the same
        for e, want_rows in ((make_random_projector_contraction(5, kind="kaczmarz-row", rows=rows),
                              rows),
                             (make_random_projector_contraction(5), eye)):
            for atom, r in zip(e.sampler.atoms, want_rows):
                n = np.linalg.norm(r)
                assert atom.tobytes() == (eye - np.outer(r, r) / (n * n)).tobytes()

    def test_pick_matches_linear_scan(self):
        # the first atom whose running probability sum exceeds u, with zero
        # weights and a sum that rounds below one
        probs = (0.1, 0.0, 0.2, 0.3, 0.0, 0.4 - 3e-16, 0.0)
        sampler = SupportSampler(np.arange(7.0)[:, None, None] * np.ones((7, 2, 2)), probs)
        running = np.cumsum(probs)
        uniforms = np.concatenate([substream(3).random(2000), running[:-1],
                                   np.nextafter(running, 0.0), [0.0, 1.0 - 2**-53]])
        uniforms = uniforms[uniforms < 1.0]  # random() draws from [0, 1)

        class Fixed:
            def __init__(self, u):
                self.u = u

            def random(self):
                return self.u

        want = []
        for u in uniforms:
            acc, pick = 0.0, len(probs) - 1
            for j, prob in enumerate(probs):
                acc += prob
                if u < acc:
                    pick = j
                    break
            want.append(pick)
            assert sampler(Fixed(u))[0, 0] == pick
            assert SupportSampler.draw_from(sampler.support, Fixed(u))[0, 0] == pick
        batch = np.searchsorted(sampler.cum, uniforms, side="right")
        assert batch.tolist() == want


class TestEnsembleValidation:
    def test_support_probabilities_must_sum_to_one(self):
        with pytest.raises(InvalidInputError):
            FactorEnsemble(dim=2, sampler=lambda rng: np.eye(2),
                           stats=FactorStats(mean_norm=1.0, sigma=0.0),
                           support=((np.eye(2), 0.6), (np.eye(2), 0.6)))

    def test_support_atom_shape_checked(self):
        with pytest.raises(InvalidInputError):
            FactorEnsemble(dim=2, sampler=lambda rng: np.eye(2),
                           stats=FactorStats(mean_norm=1.0, sigma=0.0),
                           support=((np.eye(3), 1.0),))

    def test_custom_ensemble_has_no_mean(self):
        e = FactorEnsemble(dim=2, sampler=lambda rng: np.eye(2),
                           stats=FactorStats(mean_norm=1.0, sigma=0.0))
        with pytest.raises(UnsupportedEnsembleError):
            e.exact_mean()
        with pytest.raises(UnsupportedEnsembleError):
            ensemble_to_config(e)


class TestEstimateFactorStats:
    def test_two_point_plugin_is_exact(self):
        e = make_bounded_perturbation(2, np.zeros((2, 2)), 0.2, 1.0)
        est = estimate_factor_stats(e, trials=200, seed=9)
        # every draw deviates by exactly the radius, so the plug-in is exact
        assert est.sigma == pytest.approx(0.2, rel=1e-12)
        assert est.provenance == "monte-carlo"
        assert est.trials == 200
        assert est.confidence == 0.99
        assert est.std_errors["sigma"] < 1e-12

    def test_reproducible(self):
        e = make_bounded_perturbation(2, np.zeros((2, 2)), 0.2, 1.0,
                                      support="uniform-sphere")
        a = estimate_factor_stats(e, trials=50, seed=3, resamples=50)
        b = estimate_factor_stats(e, trials=50, seed=3, resamples=50)
        assert a.sigma == b.sigma
        assert a.std_errors == b.std_errors

    def test_validation(self):
        e = make_bounded_perturbation(2, np.zeros((2, 2)), 0.2, 1.0)
        with pytest.raises(InvalidParameterError):
            estimate_factor_stats(e, trials=1)
        with pytest.raises(InvalidParameterError):
            estimate_factor_stats(e, q=1.0)


class TestSampleMeanAgainstAnalyticMean:
    @pytest.mark.parametrize("support,trials", [
        ("two-point", 100_000),
        ("uniform-sphere", 100_000),
    ])
    def test_mean_within_five_standard_errors(self, support, trials):
        a = np.array([[0.1, 0.3], [0.0, -0.2]])
        e = make_bounded_perturbation(2, a, radius=0.3, n_scale=1.0, support=support)
        rng = substream(17, 0)
        draws = np.stack([e.draw(rng) for _ in range(trials)])
        se = draws.std(axis=0, ddof=1) / math.sqrt(trials)
        err = np.abs(draws.mean(axis=0) - e.exact_mean())
        # constant entries have se ~ 0; allow summation rounding there
        assert np.all(err <= 5.0 * se + 1e-11)


class TestConfigRoundTrip:
    @pytest.mark.parametrize("build", [
        lambda: make_bounded_perturbation(2, 0.1 * np.eye(2), 0.2, 4.0),
        lambda: make_bounded_perturbation(3, np.zeros((3, 3)), 0.1, 1.0,
                                          support="uniform-sphere"),
        lambda: make_rademacher_rank_one(4),
        lambda: make_random_projector_contraction(3),
        lambda: make_random_projector_contraction(
            2, kind="kaczmarz-row", rows=np.array([[1.0, 2.0], [3.0, 4.0]])),
    ])
    def test_round_trip(self, build):
        e = build()
        back = ensemble_from_config(ensemble_to_config(e))
        assert back.kind == e.kind
        assert back.dim == e.dim
        assert back.stats == e.stats
        if e.support is None:
            assert back.support is None
        else:
            assert all(np.array_equal(m1, m2) and p1 == p2
                       for (m1, p1), (m2, p2) in zip(e.support, back.support))

    def test_default_mean_is_zero_perturbation(self):
        e = ensemble_from_config({"kind": "bounded-perturbation", "dim": 2,
                                  "radius": 0.1, "n_scale": 1.0})
        assert np.array_equal(e.exact_mean(), np.eye(2))

    @pytest.mark.parametrize("obj", [
        "not-a-dict",
        {},
        {"kind": "unheard-of"},
        {"kind": "bounded-perturbation", "dim": 2},
        {"kind": "rademacher-rank-one"},
    ])
    def test_rejects_malformed(self, obj):
        with pytest.raises(InvalidInputError):
            ensemble_from_config(obj)

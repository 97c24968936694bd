import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from matprod.ensembles import (
    FactorEnsemble,
    FactorStats,
    SupportSampler,
    ensemble_from_config,
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
        # a comparison with NaN is false, so NaN once passed every check
        {"mean_norm": 1.0, "sigma": 0.1, "uniform_norm": math.nan},
        {"mean_norm": 1.0, "sigma": 0.1, "sigma_uniform": math.nan},
        {"mean_norm": 1.0, "sigma": 0.1, "mean_perturbation": math.nan},
        {"mean_norm": 1.0, "sigma": 0.1, "uniform_norm": math.inf},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(InvalidParameterError):
            FactorStats(**kwargs)


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
        assert e.support.probs == (1.0,)
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

    @pytest.mark.parametrize("d", [*range(1, 65), 200])
    def test_coordinate_stats_are_those_of_dense_svds(self, d):
        # the kaczmarz-row path takes the SVD of every dense atom and of the mean
        dense = lambda: make_random_projector_contraction(d, kind="kaczmarz-row", rows=np.eye(d))
        if d == 1:  # I - e_1 e_1^T = 0
            for make in (dense, lambda: make_random_projector_contraction(d)):
                with pytest.raises(UnsupportedEnsembleError):
                    make()
            return
        assert make_random_projector_contraction(d).stats == dense().stats

    def test_coordinate_stats_take_no_dense_svd(self, svd_shapes):
        make_random_projector_contraction(200)
        assert (200, 200) not in svd_shapes

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
            value, quality = projected_deviation_stat(e, r)
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
        e = FactorEnsemble(dim=2, sampler=SupportSampler((np.eye(2), -np.eye(2)), (0.5, 0.5)),
                           stats=FactorStats(mean_norm=1.0, sigma=1.0))
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
        for dim in (3, 41):
            e = make_rademacher_rank_one(dim)
            eye = np.eye(dim)
            for j in range(dim):
                spike = np.zeros((dim, dim))
                spike[j, j] = 1.0
                assert np.array_equal(e.sampler.atoms[2 * j], eye + spike)
                assert np.array_equal(e.sampler.atoms[2 * j + 1], eye - spike)
            # a float stack is kept as it is, not copied
            assert SupportSampler(e.sampler.atoms, e.sampler.probs).atoms is e.sampler.atoms

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
        batch = np.searchsorted(sampler.cum, uniforms, side="right")
        assert batch.tolist() == want
        assert sampler.pick(uniforms).tolist() == want

    @given(st.lists(st.one_of(st.just(0.0), st.just(1e-9), st.floats(1e-12, 1.0)),
                    min_size=1, max_size=300),
           st.integers(0, 2**32 - 1))
    @example([1e-9] * 199 + [1.0], 0)  # one bucket holds 199 running sums
    @example([0.0] * 150 + [1.0] + [0.0] * 149, 1)
    @example([1.0] * 12, 2)  # u just below cum[0] falls in bucket 1, whose guide is atom 1
    def test_pick_is_searchsorted(self, weights, seed):
        weights = np.array(weights)
        if weights.sum() == 0.0:
            weights[-1] = 1.0
        probs = weights / weights.sum()
        k = len(probs)
        sampler = SupportSampler(np.arange(k, dtype=float)[:, None, None], probs)
        cum = sampler.cum
        uniforms = np.concatenate([[0.0, np.nextafter(1.0, 0.0)], cum, np.nextafter(cum, 0.0),
                                   substream(seed).random(256)])
        uniforms = uniforms[(uniforms >= 0.0) & (uniforms < 1.0)]
        want = np.searchsorted(cum, uniforms, side="right")
        assert np.array_equal(sampler.pick(uniforms), want)
        # any array shape, as the chunk kernel passes (trials, factors) blocks
        grid = uniforms[: len(uniforms) // 4 * 4].reshape(-1, 4)
        assert np.array_equal(sampler.pick(grid), np.searchsorted(cum, grid, side="right"))
        assert [sampler(Fixed(u))[0, 0] for u in uniforms] == want.tolist()

    def test_pick_lands_without_search_on_equal_masses(self, monkeypatch):
        # the rank-one sampler's 200 equal masses put one running sum in each
        # bucket, so the guide entry and one step land every uniform
        sampler = make_rademacher_rank_one(100).sampler
        uniforms = substream(5).random((150, 50))
        want = np.searchsorted(sampler.cum, uniforms, side="right")
        searched = []
        searchsorted = np.searchsorted

        def counting(a, v, side):
            searched.append(np.size(v))
            return searchsorted(a, v, side=side)

        monkeypatch.setattr(np, "searchsorted", counting)
        assert np.array_equal(sampler.pick(uniforms), want)
        assert searched == []


class Fixed:
    """A stream whose every uniform is u."""

    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


def support_of(form, diagonals, probs):
    """A diagonal support built from a tuple of atoms, a dense stack or diagonals."""
    diagonals = np.asarray(diagonals, dtype=float)
    if form == "diagonals":
        return SupportSampler.from_diagonals(diagonals, probs)
    atoms = tuple(np.diag(g) for g in diagonals)
    return SupportSampler(np.stack(atoms) if form == "dense" else atoms, probs)


class TestSupportValidation:
    """Every form of support is checked once, by SupportSampler."""

    FORMS = ("tuple", "dense", "diagonals")

    @pytest.mark.parametrize("form", FORMS)
    @pytest.mark.parametrize("diagonals, probs", [
        ([[1.0, 2.0], [0.5, np.inf]], (0.5, 0.5)),
        ([[1.0, np.nan], [0.5, -1.0]], (0.5, 0.5)),
        ([[1.0, 2.0], [0.5, -1.0]], (1.5, -0.5)),
        ([[1.0, 2.0], [0.5, -1.0]], (0.5, float("nan"))),
        ([[1.0, 2.0], [0.5, -1.0]], (0.5, 0.5 + 2e-12)),
        ([[1.0, 2.0], [0.5, -1.0]], (0.5, 0.5 - 2e-12)),
    ], ids=["inf-atom", "nan-atom", "prob-outside", "nan-prob", "sum-above", "sum-below"])
    def test_rejects_bad_support(self, form, diagonals, probs):
        with pytest.raises(InvalidInputError):
            support_of(form, diagonals, probs)

    @pytest.mark.parametrize("form", FORMS)
    def test_accepts_sums_within_tolerance(self, form):
        support = support_of(form, [[1.0, 2.0], [0.5, -1.0]], (0.5, 0.5 + 5e-13))
        assert isinstance(support, SupportSampler)
        assert (len(support), support.dim) == (2, 2)

    @pytest.mark.parametrize("build", [
        lambda: SupportSampler((np.eye(2), np.eye(3)), (0.5, 0.5)),
        lambda: SupportSampler((np.ones(2), np.ones(2)), (0.5, 0.5)),
        lambda: SupportSampler(np.ones((2, 2, 3)), (0.5, 0.5)),
        lambda: SupportSampler(np.ones((3, 2, 2)), (0.5, 0.5)),
        lambda: SupportSampler(np.eye(2), (0.5, 0.5)),
        lambda: SupportSampler.from_diagonals(np.ones((2, 2, 2)), (0.5, 0.5)),
        lambda: SupportSampler.from_diagonals(np.ones((3, 2)), (0.5, 0.5)),
        lambda: SupportSampler.from_diagonals(np.ones((2, 0)), (0.5, 0.5)),
    ], ids=["tuple-ragged", "tuple-vectors", "dense-not-square", "dense-count",
            "dense-one-matrix", "diagonals-stack", "diagonals-count", "diagonals-empty"])
    def test_rejects_wrong_shape(self, build):
        with pytest.raises(InvalidInputError):
            build()

    @pytest.mark.parametrize("make", [make_rademacher_rank_one, make_random_projector_contraction],
                             ids=["rank-one", "coordinate"])
    def test_diagonal_builders_check_diagonals_not_each_atom(self, make, monkeypatch):
        from matprod import ensembles

        names = []
        real = ensembles.as_matrix

        def counting(a, name="matrix"):
            names.append(name)
            return real(a, name)

        monkeypatch.setattr(ensembles, "as_matrix", counting)
        e = make(100)
        assert names == ["analytic mean"]
        assert "atoms" not in vars(e.sampler)


class TestEnsembleValidation:
    def test_support_probabilities_must_sum_to_one(self):
        with pytest.raises(InvalidInputError):
            FactorEnsemble(dim=2, sampler=SupportSampler((np.eye(2),) * 2, (0.6, 0.6)),
                           stats=FactorStats(mean_norm=1.0, sigma=0.0))

    def test_support_atom_shape_checked(self):
        with pytest.raises(InvalidInputError):
            FactorEnsemble(dim=2, sampler=SupportSampler((np.eye(3),), (1.0,)),
                           stats=FactorStats(mean_norm=1.0, sigma=0.0))

    def test_support_sampler_owns_the_support(self):
        sampler = SupportSampler([np.eye(2), -np.eye(2)], (0.5, 0.5))
        e = FactorEnsemble(dim=2, sampler=sampler, stats=FactorStats(1.0, 0.0))
        assert e.support is sampler
        assert replace(e, stats=FactorStats(1.0, 0.5)).support is sampler
        other = SupportSampler([np.eye(2), 2.0 * np.eye(2)], (0.5, 0.5))
        # the support is read from the sampler, so enumeration follows a new one
        assert replace(e, sampler=other).support is other
        assert replace(e, sampler=lambda rng: np.eye(2)).support is None
        for built in (make_bounded_perturbation(2, np.eye(2), 0.3, 2.0),
                      make_rademacher_rank_one(4), make_random_projector_contraction(3)):
            assert built.support is built.sampler

    def test_custom_ensemble_has_no_mean(self):
        e = FactorEnsemble(dim=2, sampler=lambda rng: np.eye(2),
                           stats=FactorStats(mean_norm=1.0, sigma=0.0))
        with pytest.raises(UnsupportedEnsembleError):
            e.exact_mean()


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
        lambda: ({"kind": "bounded-perturbation", "dim": 2,
                  "mean": {"rows": 2, "cols": 2, "data": [0.1, 0.0, 0.0, 0.1]},
                  "radius": 0.2, "n_scale": 4.0, "support": "two-point"},
                 make_bounded_perturbation(2, 0.1 * np.eye(2), 0.2, 4.0)),
        lambda: ({"kind": "bounded-perturbation", "dim": 3, "radius": 0.1, "n_scale": 1.0,
                  "support": "uniform-sphere"},
                 make_bounded_perturbation(3, np.zeros((3, 3)), 0.1, 1.0,
                                           support="uniform-sphere")),
        lambda: ({"kind": "rademacher-rank-one", "dim": 4}, make_rademacher_rank_one(4)),
        lambda: ({"kind": "projector-contraction", "dim": 3, "projector_kind": "coordinate"},
                 make_random_projector_contraction(3)),
        lambda: ({"kind": "projector-contraction", "dim": 2, "projector_kind": "kaczmarz-row",
                  "rows": {"rows": 2, "cols": 2, "data": [1.0, 2.0, 3.0, 4.0]}},
                 make_random_projector_contraction(
                     2, kind="kaczmarz-row", rows=np.array([[1.0, 2.0], [3.0, 4.0]]))),
    ])
    def test_round_trip(self, build):
        cfg, e = build()
        back = ensemble_from_config(cfg)
        assert back.kind == e.kind
        assert back.dim == e.dim
        assert back.stats == e.stats
        assert np.array_equal(back.exact_mean(), e.exact_mean())
        assert np.array_equal(back.draw(substream(5, 0)), e.draw(substream(5, 0)))
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

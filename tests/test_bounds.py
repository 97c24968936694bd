import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from matprod.bounds import (
    DISPLAYS,
    Condition,
    PerturbationStats,
    ProductStats,
    ScenarioLT,
    SchattenParams,
    concentration_moment_bound,
    evaluate_kind,
    expectation_concentration_bound,
    expectation_growth_bound,
    growth_moment_bound,
    inverse_perturbation_stats,
    scalar_reference_bounds,
    scenario_lt_bounds,
    tail_concentration_bound,
    tail_growth_bound,
)
from matprod.ensembles import (
    FactorStats,
    make_bounded_perturbation,
    make_random_projector_contraction,
)
from matprod.errors import (
    InvalidInputError,
    InvalidParameterError,
    MissingUniformBoundsError,
)
from matprod import bounds
from matprod.schatten import norm_from_singular_values, schatten_norm

E = math.e


def scalar_stats(sigma=0.1, n=2, mean_norm=1.0, **kwargs):
    f = FactorStats(mean_norm=mean_norm, sigma=sigma, **kwargs)
    return ProductStats.from_factors([f] * n, d=1)


class TestSchattenParams:
    def test_cp(self):
        assert SchattenParams(p=4.0).cp == 3.0
        assert SchattenParams(p=2.0, q=2.0).to_json() == {"p": 2.0, "q": 2.0, "cp": 1.0}

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            SchattenParams(p=0.5)
        with pytest.raises(InvalidParameterError):
            SchattenParams(p=2.0, q=0.0)


class TestProductStats:
    def test_aggregates(self):
        f1 = FactorStats(mean_norm=1.1, sigma=0.1, uniform_norm=1.3,
                         sigma_uniform=0.2, mean_perturbation=0.1)
        f2 = FactorStats(mean_norm=1.2, sigma=0.3, uniform_norm=1.5,
                         sigma_uniform=0.4, mean_perturbation=0.2)
        s = ProductStats.from_factors([f1, f2], d=3)
        assert s.M == pytest.approx(1.32, rel=1e-15)
        assert s.v == pytest.approx(0.1 ** 2 + 0.3 ** 2, rel=1e-15)
        assert s.v_uniform == pytest.approx(0.2 ** 2 + 0.4 ** 2, rel=1e-15)
        assert s.B == pytest.approx(1.3 * 1.5, rel=1e-15)
        assert s.contraction_M is None

    def test_optional_aggregates_none_when_any_factor_lacks_them(self):
        f1 = FactorStats(mean_norm=1.0, sigma=0.1, uniform_norm=1.2)
        f2 = FactorStats(mean_norm=1.0, sigma=0.1)
        s = ProductStats.from_factors([f1, f2], d=2)
        assert s.B is None
        assert s.v_uniform is None

    def test_z0_norm(self):
        z0 = np.diag([3.0, 4.0])
        s = ProductStats.from_factors([FactorStats(1.0, 0.0)], d=2, z0=z0)
        assert s.z0_norm(2) == pytest.approx(5.0, rel=1e-15)
        assert s.z0_norm(math.inf) == pytest.approx(4.0, rel=1e-15)

    @given(st.tuples(st.integers(1, 5), st.integers(1, 5)).flatmap(
               lambda shape: hnp.arrays(np.float64, shape,
                                        elements=st.floats(-1.0, 1.0, allow_nan=False))),
           st.integers(-3, 3),
           st.sampled_from([1.0, 2.0, 2.5, 3.0, 7.0, 2.0 * (1.0 + math.log(100.0)), math.inf]))
    def test_z0_norm_has_the_norm_layers_bits(self, z0, scale, p):
        # the moment displays carry ||Z_0||_p; its root is taken as on a stack of one
        z0 = z0 * 10.0 ** scale
        s = ProductStats.from_factors([FactorStats(1.0, 0.0)], d=z0.shape[0], z0=z0)
        assert s.z0_norm(p) == schatten_norm(z0, p)

    def test_z0_norm_is_taken_once_per_p(self, monkeypatch):
        # the moment displays and their caps each read ||Z_0||_p
        z0 = np.linspace(-1.0, 2.0, 15).reshape(5, 3)
        s = ProductStats.from_factors([FactorStats(1.0, 0.0)], d=5, z0=z0)
        calls = []

        def counting(svals, p):
            calls.append(p)
            return norm_from_singular_values(svals, p)

        monkeypatch.setattr(bounds, "norm_from_singular_values", counting)
        ps = [1.0, 2.0, 2.0 * (1.0 + math.log(5)), math.inf]
        for _ in range(3):
            assert [s.z0_norm(p) for p in ps] == [schatten_norm(z0, p) for p in ps]
        assert calls == ps

    def test_rectangular_start(self):
        z0 = np.ones((3, 1))
        s = ProductStats.from_factors([FactorStats(1.0, 0.0)], d=3, z0=z0)
        assert s.r == 1
        assert s.z0_norm(7.0) == pytest.approx(math.sqrt(3.0), rel=1e-14)

    def test_validation(self):
        f = FactorStats(1.0, 0.1)
        with pytest.raises(InvalidInputError):
            ProductStats.from_factors([], d=2)
        with pytest.raises(InvalidInputError):
            ProductStats.from_factors([f], d=2, z0=np.eye(3))
        with pytest.raises(InvalidInputError):
            ProductStats(factors=("nope",), d=1, r=1, z0_singular_values=(1.0,))

    @pytest.mark.parametrize("shape", [(2, 2), (2, 1)], ids=["square", "column"])
    def test_start_whose_singular_values_overflow_is_refused(self, shape):
        # finite entries, but sigma_1 = 1.5e308 * sqrt(2 or 4) passes float64
        f = FactorStats(1.0, 0.1)
        with pytest.raises(InvalidInputError, match="z0 has singular values that overflow"):
            ProductStats.from_factors([f], d=2, z0=np.full(shape, 1.5e308))
        big = ProductStats.from_factors([f], d=2, z0=np.full(shape, 1e307))
        assert all(math.isfinite(big.z0_norm(p)) for p in (1.0, 2.0, math.inf))


class TestMomentBounds:
    def test_frozen_two_point_scalar(self):
        s = scalar_stats(sigma=0.1, n=2)  # v = 0.02
        conc = concentration_moment_bound(s, 2, 2)
        assert conc.value == pytest.approx(0.14213141815501529, rel=1e-14)
        growth = growth_moment_bound(s, 2, 2)
        assert growth.value == pytest.approx(math.exp(0.01), rel=1e-14)
        assert growth.conditions_met and conc.conditions_met

    def test_deterministic_product(self):
        s = scalar_stats(sigma=0.0, n=3, mean_norm=1.2)
        assert growth_moment_bound(s, 2, 2).value == pytest.approx(1.2 ** 3, rel=1e-15)
        assert concentration_moment_bound(s, 2, 2).value == 0.0

    def test_parameter_validation(self):
        s = scalar_stats()
        for p, q in [(math.inf, 2.0), (1.5, 1.5), (4.0, 1.0), (4.0, 8.0)]:
            with pytest.raises(InvalidParameterError):
                growth_moment_bound(s, p, q)
            with pytest.raises(InvalidParameterError):
                concentration_moment_bound(s, p, q)

    def test_stat_order_condition(self):
        # q = 4 demanded, factor carries only a q = 2 moment stat and no a.s. bound
        s = scalar_stats(sigma=0.1, n=1)
        r = growth_moment_bound(s, 4, 4)
        assert not r.conditions_met
        assert (r.conditions[0].lhs, r.conditions[0].rhs) == (1, 0)  # one factor short
        assert r.value == math.inf
        # an almost-sure deviation bound rescues any q
        s2 = scalar_stats(sigma=0.1, n=1, sigma_uniform=0.1)
        assert growth_moment_bound(s2, 4, 4).conditions_met

    def test_trivial_cap(self):
        s = scalar_stats(sigma=10.0, n=1, uniform_norm=2.0, sigma_uniform=10.0)
        r = growth_moment_bound(s, 2, 2)
        assert r.value > 2.0
        assert r.capped_value == 2.0
        assert r.trivial_fallback
        rc = concentration_moment_bound(s, 2, 2)
        assert rc.capped_value == 4.0

    def test_small_variance_linearization(self):
        # e^a - 1 <= e a on [0, 1]: concentration <= sqrt(e cp v) z0 M there
        for v_total, p in [(0.02, 2.0), (0.2, 3.0), (0.9, 1.9 ** 2)]:
            sigma = math.sqrt(v_total / 4.0)
            s = scalar_stats(sigma=sigma, n=4)
            cp = p - 1.0
            if cp * v_total > 1.0:
                continue
            bound = concentration_moment_bound(s, p, 2).value
            assert bound <= math.sqrt(E * cp * v_total) * 1.0 + 1e-12

    @given(st.floats(2.0, 30.0), st.floats(2.0, 30.0))
    def test_monotone_in_p_modulo_start_norm(self, p1, p2):
        lo, hi = min(p1, p2), max(p1, p2)
        s = ProductStats.from_factors(
            [FactorStats(1.05, 0.12)] * 3, d=4, z0=np.eye(4))
        for fn in (growth_moment_bound, concentration_moment_bound):
            lo_val = fn(s, lo, 2.0).value / s.z0_norm(lo)
            hi_val = fn(s, hi, 2.0).value / s.z0_norm(hi)
            assert hi_val >= lo_val * (1.0 - 1e-12)

    def test_monotone_in_p_for_rank_one_start(self):
        z0 = np.zeros((3, 1))
        z0[0, 0] = 1.0
        s = ProductStats.from_factors([FactorStats(1.0, 0.2)] * 2, d=3, z0=z0)
        values = [concentration_moment_bound(s, p, 2.0).value
                  for p in (2.0, 3.0, 5.0, 9.0, 17.0)]
        assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))

    def test_overflow_guard(self):
        # v large enough that expm1(v) overflows but exp(v / 2) does not
        s = scalar_stats(sigma=math.sqrt(1200.0), n=1)
        big = concentration_moment_bound(s, 2.0, 2.0)
        assert big.value == pytest.approx(math.exp(600.0), rel=1e-12)
        huge = scalar_stats(sigma=40.0, n=1)
        assert math.isinf(concentration_moment_bound(huge, 2.0, 2.0).value)


class TestUniformMomentBounds:
    def test_values(self):
        s = scalar_stats(sigma=0.1, n=2, uniform_norm=1.1, sigma_uniform=0.1)
        growth, conc = (DISPLAYS[name](s, p=2, q=2)
                        for name in ("uniform-growth", "uniform-concentration"))
        assert growth.value == pytest.approx(1.1 ** 2, rel=1e-14)
        assert conc.value == pytest.approx(math.sqrt(0.02) * 1.1 ** 2, rel=1e-14)

    def test_requires_uniform_norms(self):
        with pytest.raises(MissingUniformBoundsError):
            DISPLAYS["uniform-growth"](scalar_stats(), p=2, q=2)
        with pytest.raises(MissingUniformBoundsError):
            DISPLAYS["uniform-concentration"](scalar_stats(), p=2, q=2)


class TestExpectationBounds:
    def test_growth_frozen_scalar(self):
        s = scalar_stats(sigma=0.1, n=2)  # v = 0.02, d = 1
        r = expectation_growth_bound(s)
        assert r.value == pytest.approx(1.0408107741923882, rel=1e-14)
        assert r.params.p == pytest.approx(2.0, rel=1e-12)

    def test_growth_internal_p_recipe(self):
        s = ProductStats.from_factors([FactorStats(1.0, 0.05)] * 8, d=10)
        r = expectation_growth_bound(s)
        v = 8 * 0.05 ** 2
        want_p = math.sqrt(2.0 * max(2.0 * v, math.log(10)) / v)
        assert r.params.p == pytest.approx(want_p, rel=1e-12)
        assert r.value == pytest.approx(
            math.exp(math.sqrt(2.0 * v * max(2.0 * v, math.log(10)))), rel=1e-12)

    def test_concentration_frozen_scalar(self):
        s = scalar_stats(sigma=0.1, n=2)
        r = expectation_concentration_bound(s)
        assert r.value == pytest.approx(0.38442310281591166, rel=1e-14)
        assert r.params.p == pytest.approx(2.0 * (1.0 + math.log(1)), rel=1e-12)
        assert r.conditions_met

    def test_spectral_displays_scale_with_the_start_norm(self):
        # ||Z_n|| <= ||Y_n ... Y_1|| ||Z_0||: each Z_0 = I display, its cap,
        # its refined value and its tail threshold carry the factor 3
        f = FactorStats(1.1, 0.05, uniform_norm=1.3, sigma_uniform=0.05)
        unit, scaled = (ProductStats.from_factors([f] * 4, d=3, z0=z0)
                        for z0 in (np.eye(3), 3.0 * np.eye(3)[:, :2]))
        assert scaled.start_norm == 3.0
        for bound in (lambda s: expectation_growth_bound(s, refine=True),
                      lambda s: expectation_concentration_bound(s, refine=True),
                      lambda s: expectation_concentration_bound(s, uniform=True),
                      DISPLAYS["spectral-radius-expectation"]):
            a, b = bound(unit), bound(scaled)
            assert b.value == pytest.approx(3.0 * a.value, rel=1e-14)
            assert b.capped_value == pytest.approx(3.0 * a.capped_value, rel=1e-14)
            if a.refined_value is not None:
                assert b.refined_value == pytest.approx(3.0 * a.refined_value, rel=1e-14)
        for bound in (lambda s: tail_growth_bound(s, 2.0),
                      lambda s: tail_concentration_bound(s, 2.0),
                      lambda s: tail_concentration_bound(s, 2.0, uniform=True)):
            a, b = bound(unit), bound(scaled)
            assert (b.value, b.threshold) == (a.value, pytest.approx(3.0 * a.threshold))
        zero = ProductStats.from_factors([f] * 4, d=3, z0=np.zeros((3, 1)))
        with pytest.raises(InvalidInputError, match="nonzero start"):
            tail_growth_bound(zero, 2.0)

    def test_concentration_condition_violation(self):
        s = ProductStats.from_factors([FactorStats(1.0, 1.0)] * 4, d=5)
        r = expectation_concentration_bound(s)
        assert not r.conditions_met
        assert r.value == math.inf
        names = [c.name for c in r.conditions if not c.satisfied]
        assert "small-variance" in names

    def test_concentration_uniform_variant(self):
        f = FactorStats(1.0, 0.5, uniform_norm=1.5, sigma_uniform=0.5)
        s = ProductStats.from_factors([f] * 4, d=5)
        r = expectation_concentration_bound(s, uniform=True)
        v = 4 * 0.25
        load = 1.0 + 2.0 * math.log(5)
        assert r.value == pytest.approx(math.sqrt(E * v * load) * 1.5 ** 4, rel=1e-12)
        assert r.conditions_met  # unconditional apart from the stat order
        assert r.capped_value == pytest.approx(2.0 * 1.5 ** 4, rel=1e-12)

    def test_uniform_variant_requires_B(self):
        with pytest.raises(MissingUniformBoundsError):
            expectation_concentration_bound(scalar_stats(), uniform=True)

    def test_refine_improves_or_matches(self):
        s = ProductStats.from_factors([FactorStats(1.0, 0.05)] * 8, d=10)
        g = expectation_growth_bound(s, refine=True)
        assert g.refined_value is not None
        assert g.refined_value <= g.value * (1.0 + 1e-9)
        c = expectation_concentration_bound(s, refine=True)
        assert c.refined_value <= c.value * (1.0 + 1e-9)

    def test_finite_value_implies_conditions_met(self):
        grid = [scalar_stats(sigma=0.1, n=2),
                ProductStats.from_factors([FactorStats(1.0, 1.0)] * 4, d=5)]
        for s in grid:
            for r in (expectation_growth_bound(s),
                      expectation_concentration_bound(s),
                      growth_moment_bound(s, 4, 2),
                      concentration_moment_bound(s, 4, 2)):
                assert math.isfinite(r.value) == r.conditions_met


class TestTailBounds:
    def stats(self):
        f = FactorStats(1.0, 0.05, uniform_norm=1.05, sigma_uniform=0.05)
        return ProductStats.from_factors([f] * 8, d=3)

    def test_growth_formula(self):
        s = self.stats()
        v = 8 * 0.05 ** 2
        r = tail_growth_bound(s, 1.5)
        assert r.value == pytest.approx(3 * math.exp(-math.log(1.5) ** 2 / (2 * v)), rel=1e-12)
        assert r.threshold == pytest.approx(1.5 * s.M, rel=1e-12)
        assert r.conditions_met
        (c,) = r.conditions  # 2v <= log t
        assert c.lhs == pytest.approx(0.04, rel=1e-12)
        assert c.rhs == pytest.approx(0.405, abs=5e-4)
        assert r.params.p == pytest.approx(math.log(1.5) / v, rel=1e-12)
        assert r.capped_value <= 1.0

    def test_growth_condition(self):
        s = self.stats()
        r = tail_growth_bound(s, 1.02)
        assert not r.conditions_met
        (c,) = r.conditions  # 2v > log t
        assert c.lhs == pytest.approx(0.04, rel=1e-12)
        assert c.rhs == pytest.approx(0.0198, abs=5e-5)
        assert r.value == math.inf
        assert r.capped_value == 1.0

    def test_concentration_formula(self):
        s = self.stats()
        v = 8 * 0.05 ** 2
        r = tail_concentration_bound(s, 1.0)
        want = max(3, E) * math.exp(-1.0 / (2 * E * E * v))
        assert r.value == pytest.approx(want, rel=1e-12)
        assert r.params.p == pytest.approx(1.0 / (E * E * v), rel=1e-12)
        assert r.conditions_met

    def test_concentration_needs_t_below_e(self):
        r = tail_concentration_bound(self.stats(), 3.0)
        assert not r.conditions_met
        assert r.value == math.inf

    def test_concentration_uniform_any_t(self):
        s = self.stats()
        r = tail_concentration_bound(s, 3.0, uniform=True)
        assert r.conditions_met
        v = 8 * 0.05 ** 2
        assert r.value == pytest.approx(max(3, E) * math.exp(-9.0 / (2 * E * v)), rel=1e-12)
        assert r.threshold == pytest.approx(3.0 * s.B, rel=1e-12)

    def test_requires_uniform_stats(self):
        with pytest.raises(MissingUniformBoundsError):
            tail_growth_bound(scalar_stats(), 2.0)
        with pytest.raises(MissingUniformBoundsError):
            tail_concentration_bound(scalar_stats(), 1.0)

    def test_requires_positive_threshold_and_deviation(self):
        with pytest.raises(InvalidParameterError):
            tail_growth_bound(self.stats(), 0.0)
        quiet = ProductStats.from_factors(
            [FactorStats(1.0, 0.0, uniform_norm=1.0, sigma_uniform=0.0)], d=2)
        with pytest.raises(InvalidParameterError):
            tail_growth_bound(quiet, 2.0)

    @pytest.mark.parametrize("bound", [tail_growth_bound, tail_concentration_bound],
                             ids=["growth", "concentration"])
    def test_nan_threshold_is_named(self, bound):
        with pytest.raises(InvalidParameterError, match="threshold factor t must be positive"):
            bound(self.stats(), math.nan)

    def test_refined_tail_not_above_one(self):
        s = self.stats()
        r = tail_growth_bound(s, 1.5, refine=True)
        assert r.refined_value <= 1.0


PERT_SCENARIO = {"d": 10, "n": 200, "b": 1.0, "mu": 0.0}


def perturbation(display, xi, v, d, **t):
    """The perturbation display ``display`` at statistics (xi, v, d)."""
    return DISPLAYS[f"perturbation-{display}"](PerturbationStats(xi, v, d), **t)


class TestPerturbationBounds:
    def v(self):
        return PERT_SCENARIO["b"] ** 2 / PERT_SCENARIO["n"]

    def test_expectation_concentration_frozen(self):
        r = perturbation("expectation-concentration", 0.0, self.v(), 10)
        assert r.value == pytest.approx(0.45506547302734116, rel=1e-14)
        assert r.conditions_met
        assert r.params.p == pytest.approx(2.0 * (1.0 + math.log(10)), rel=1e-12)

    def test_tail_growth_frozen(self):
        r = perturbation("tail-growth", 0.0, self.v(), 10, t=1.65)
        assert r.value == pytest.approx(1.2851136069934235e-10, rel=1e-12)
        assert r.conditions_met
        (c,) = r.conditions  # 2v <= log t
        assert c.lhs == pytest.approx(0.01, rel=1e-12)
        assert c.rhs == math.log(1.65)
        assert r.threshold == pytest.approx(1.65, rel=1e-15)

    def test_tail_concentration_frozen_loose_prefactor(self):
        want = {0.5: 0.43156307262881175,
                1.0: 1.6861327847063342e-05,
                2.0: 3.928997548505088e-23}
        for t, loose in want.items():
            r = perturbation("tail-concentration", 0.0, self.v(), 10, t=t)
            assert r.extras["loose_prefactor_value"] == pytest.approx(loose, rel=1e-12)
            # headline value uses the sharper d-or-e prefactor
            assert r.value == pytest.approx(loose * 10 / (10 + E), rel=1e-12)
            assert r.conditions_met == (t <= E)

    def test_scalar_specialization_same_exponent(self):
        # aggregated perturbation stats reproduce the scalar displays' exponents
        d, n, b = PERT_SCENARIO["d"], PERT_SCENARIO["n"], PERT_SCENARIO["b"]
        scalar = scalar_reference_bounds(0.0, b, n, s=0.65, t=0.5)
        pert_g = perturbation("tail-growth", 0.0, self.v(), d, t=1.65)
        assert pert_g.value == pytest.approx(d * scalar["growth"].value, rel=1e-12)
        pert_c = perturbation("tail-concentration", 0.0, self.v(), d, t=0.5)
        assert pert_c.value == pytest.approx(
            max(d, E) * scalar["concentration"].value, rel=1e-12)
        loose = pert_c.extras["loose_prefactor_value"]
        assert pert_c.value <= loose

    def test_expectation_growth_condition(self):
        ok = perturbation("expectation-growth", 0.1, 0.05, 10)
        assert ok.conditions_met
        (c,) = ok.conditions  # 2v <= log d
        assert (c.lhs, c.rhs) == (0.1, math.log(10))
        assert ok.value == pytest.approx(
            math.exp(0.1 + math.sqrt(2 * 0.05 * math.log(10))), rel=1e-12)
        bad = perturbation("expectation-growth", 0.1, 2.0, 2)
        assert not bad.conditions_met and bad.value == math.inf

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            perturbation("expectation-growth", -0.1, 0.1, 2)
        with pytest.raises(InvalidParameterError):
            perturbation("expectation-growth", 0.1, -0.1, 2)
        with pytest.raises(InvalidParameterError):
            perturbation("expectation-growth", 0.1, 0.1, 0)
        with pytest.raises(InvalidParameterError):
            perturbation("tail-growth", 0.1, 0.1, 2, t=0.0)
        with pytest.raises(InvalidParameterError):
            perturbation("tail-growth", 0.1, 0.0, 2, t=2.0)


class TestInversePerturbationStats:
    def test_single_factor_hand_values(self):
        xi_bar, v_bar = inverse_perturbation_stats([0.1], [0.1])
        assert xi_bar == pytest.approx(0.15, rel=1e-12)
        assert v_bar == pytest.approx(0.04, rel=1e-12)

    def test_ten_factor_frozen(self):
        xi_bar, v_bar = inverse_perturbation_stats([0.02] * 10, [0.02] * 10)
        assert xi_bar == pytest.approx(0.21666666666666667, rel=1e-12)
        assert v_bar == pytest.approx(0.005444444444444444, rel=1e-12)
        r = perturbation("expectation-growth", xi_bar, v_bar, 4)
        assert r.value == pytest.approx(1.4042863150259291, rel=1e-12)
        assert r.conditions_met

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            inverse_perturbation_stats([], [])
        with pytest.raises(InvalidParameterError):
            inverse_perturbation_stats([0.1], [0.1, 0.2])
        with pytest.raises(InvalidParameterError):
            inverse_perturbation_stats([0.5], [0.5])
        with pytest.raises(InvalidParameterError):
            inverse_perturbation_stats([-0.1], [0.1])


def contraction(s, *ts):
    """The contraction kind's displays: growth, concentration and a tail at each t."""
    return evaluate_kind("contraction", s, {"deviation-tail": ts})


class TestContractionBounds:
    def kaczmarz_stats(self, n=50):
        e = make_random_projector_contraction(8)
        return ProductStats.from_ensembles([e] * n)

    def test_frozen_kaczmarz_values(self):
        s = self.kaczmarz_stats()
        assert s.contraction_M == pytest.approx(0.035497790793257017, rel=1e-12)
        assert s.contraction_v == pytest.approx(43.75, rel=1e-12)
        growth, conc = contraction(s)
        assert growth.value == pytest.approx(0.10040291434821372, rel=1e-12)
        assert conc.value == pytest.approx(0.6641028556787306, rel=1e-12)
        assert conc.capped_value == pytest.approx(0.6641028556787306, rel=1e-12)

    def test_growth_clipped_at_one(self):
        s = self.kaczmarz_stats(n=1)
        growth, _ = contraction(s)
        assert growth.value == 1.0
        assert growth.extras["unclipped"] == pytest.approx(
            math.sqrt(8) * math.sqrt(7.0 / 8.0), rel=1e-12)

    def test_clip_and_caps_follow_the_start_and_uniform_norms(self):
        # the contraction stat bounds ||E Y^T Y||, not ||Y||: B = 1.5^2 here
        f = FactorStats(0.9, 0.1, uniform_norm=1.5, sigma_uniform=0.2, contraction=0.95)
        s = ProductStats.from_factors([f] * 2, d=4, z0=2.0 * np.eye(4))
        growth, conc, tail = contraction(s, 16.0)
        assert growth.extras["unclipped"] == pytest.approx(2.0 * 2.0 * 0.95**2, rel=1e-14)
        assert growth.value == growth.extras["unclipped"] < 2.0 * 2.25
        assert growth.capped_value == growth.value
        assert conc.capped_value == min(conc.value, 4.0 * 2.25)
        assert tail.threshold == 32.0
        # without B there is nothing to clip at
        s = ProductStats.from_factors([FactorStats(0.9, 0.1, sigma_uniform=0.2,
                                                   contraction=0.95)] * 2, d=4)
        growth, conc = contraction(s)
        assert growth.value == growth.extras["unclipped"] == pytest.approx(
            2.0 * 0.95**2, rel=1e-14)
        assert growth.capped_value is None and conc.capped_value is None

    def test_tail_frozen(self):
        s = self.kaczmarz_stats()
        _, _, tail = contraction(s, 16.0)
        assert tail.conditions_met
        (c,) = tail.conditions  # 2 e v <= t^2
        assert c.lhs == pytest.approx(237.85, abs=5e-3)
        assert c.rhs == 256.0
        assert tail.value == pytest.approx(0.003436031092016610, rel=1e-12)
        assert tail.threshold == 16.0

    def test_tail_condition_boundary(self):
        s = self.kaczmarz_stats()
        t_min = math.sqrt(2.0 * E * 43.75)
        assert t_min == pytest.approx(15.422375303116134, rel=1e-12)
        _, _, below = contraction(s, 15.0)
        assert not below.conditions_met
        assert below.value == math.inf and below.capped_value == 1.0

    def test_nan_threshold_is_named(self):
        with pytest.raises(InvalidParameterError, match="threshold factor t must be positive"):
            DISPLAYS["contraction-tail"](self.kaczmarz_stats(), t=math.nan)

    def test_requires_contraction_stats(self):
        assert contraction(scalar_stats(), 16.0) == []
        for name in ("contraction-expectation-growth", "contraction-expectation-concentration"):
            with pytest.raises(MissingUniformBoundsError):
                DISPLAYS[name](scalar_stats())
        with pytest.raises(MissingUniformBoundsError):
            DISPLAYS["contraction-tail"](scalar_stats(), t=16.0)


def without_kind(result):
    return {k: v for k, v in result.to_json().items() if k != "kind"}


def lowrank(s, p):
    """The lowrank kind's displays: growth and concentration."""
    return evaluate_kind("lowrank", s, {}, p=p)


class TestLowRankBounds:
    def lowrank_stats(self):
        z0 = np.zeros((100, 1))
        z0[0, 0] = 1.0
        f = FactorStats(1.0, math.sqrt(1.0 / 100.0), sigma_uniform=1.0)
        return ProductStats.from_factors([f] * 50, d=100, z0=z0, projected_rank=1)

    def test_frozen_values(self):
        p = 2.0 * (1.0 + math.log(100))
        assert p == pytest.approx(11.210340371976184, rel=1e-14)
        s = self.lowrank_stats()
        growth, conc = lowrank(s, p)
        assert growth.value == pytest.approx(12.840254166877415, rel=1e-12)
        assert conc.value == pytest.approx(12.801254902157554, rel=1e-12)
        assert growth.params.q == 2.0
        # the general moment bounds at q = 2, under their own kinds
        assert (growth.kind, conc.kind) == ("lowrank-growth", "lowrank-concentration")
        assert without_kind(growth) == without_kind(growth_moment_bound(s, p))
        assert without_kind(conc) == without_kind(concentration_moment_bound(s, p))

    def test_improvement_over_unprojected_in_log_domain(self):
        p = 2.0 * (1.0 + math.log(100))
        z0 = np.zeros((100, 1))
        z0[0, 0] = 1.0
        full = ProductStats.from_factors(
            [FactorStats(1.0, 1.0, sigma_uniform=1.0)] * 50, d=100, z0=z0)
        unprojected = concentration_moment_bound(full, p, 2.0)
        log_ratio = math.log(unprojected.value) - math.log(
            lowrank(self.lowrank_stats(), p)[1].value)
        assert math.log(unprojected.value) == pytest.approx(255.25850929940458, rel=1e-12)
        assert log_ratio >= math.log(50.0)

    def test_requires_projected_rank_matching_start(self):
        assert lowrank(scalar_stats(), 4.0) == []
        z0 = np.zeros((3, 2))
        z0[0, 0] = z0[1, 1] = 1.0
        with pytest.raises(InvalidInputError):
            ProductStats.from_factors([FactorStats(1.0, 0.1)], d=3, z0=z0, projected_rank=1)


class TestSpectralRadiusBound:
    def test_matches_expectation_growth(self):
        s = ProductStats.from_factors([FactorStats(1.1, 0.2)] * 3, d=4)
        radius = DISPLAYS["spectral-radius-expectation"](s)
        assert radius.value == expectation_growth_bound(s).value
        assert radius.kind == "spectral-radius-expectation"
        assert without_kind(radius) == without_kind(expectation_growth_bound(s))


class TestScalarReferenceBounds:
    def test_growth_tail(self):
        out = scalar_reference_bounds(0.5, 1.0, 100, s=0.65)
        r = out["growth"]
        assert r.value == pytest.approx(
            math.exp(-100 * math.log1p(0.65) ** 2 / 2.0), rel=1e-12)
        assert r.threshold == pytest.approx(1.65 * math.exp(0.5), rel=1e-12)
        assert r.conditions == []

    def test_concentration_tail_needs_t_below_e(self):
        out = scalar_reference_bounds(0.0, 1.0, 100, t=3.0)
        assert not out["concentration"].conditions_met
        ok = scalar_reference_bounds(0.0, 1.0, 100, t=1.0)["concentration"]
        assert ok.value == pytest.approx(math.exp(-100.0 / (2 * E * E)), rel=1e-12)

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            scalar_reference_bounds(0.0, 0.0, 10, s=1.0)
        with pytest.raises(InvalidParameterError):
            scalar_reference_bounds(0.0, 1.0, 10)
        with pytest.raises(InvalidParameterError):
            scalar_reference_bounds(0.0, 1.0, 10, s=-1.0)


    @pytest.mark.parametrize("mu, b, s, t", [
        (math.inf, 1.0, 0.5, None),
        (math.nan, 1.0, 0.5, None),
        (0.0, math.inf, 0.5, None),
        (0.0, math.nan, None, 0.5),
        (800.0, 1.0, 0.5, None),
        (800.0, 1.0, None, 0.5),
        (0.0, 1.0, math.inf, None),
        (709.0, 1.0, 2.0, None),
    ], ids=["mu-inf", "mu-nan", "b-inf", "b-nan", "growth-threshold", "concentration-threshold",
            "s-inf", "threshold-past-exp"])
    def test_non_finite_inputs_and_thresholds_rejected(self, mu, b, s, t):
        with pytest.raises(InvalidParameterError):
            scalar_reference_bounds(mu, b, 10, s=s, t=t)

    def test_largest_finite_threshold_kept(self):
        out = scalar_reference_bounds(709.0, 1.0, 10, s=0.5, t=0.5)
        assert out["growth"].threshold == 1.5 * math.exp(709.0)
        assert out["concentration"].threshold == 0.5 * math.exp(709.0)


class TestScenarioLT:
    def test_frozen_values(self):
        sc = ScenarioLT(T=0.0, L=1.0, n=100, d=5, delta=0.01)
        expectation, probable = scenario_lt_bounds(sc)
        assert expectation.value == pytest.approx(0.5583324291528610, rel=1e-13)
        assert probable.value == pytest.approx(1.0325613199325351, rel=1e-13)
        assert probable.confidence == pytest.approx(0.99, rel=1e-15)
        assert expectation.conditions_met and probable.conditions_met

    def test_row_independent_scaled_constant(self):
        # sqrt(n) times the expectation bound is the same for every row size
        values = [math.sqrt(n) * scenario_lt_bounds(
            ScenarioLT(T=0.0, L=1.0, n=n, d=5))[0].value for n in (25, 100, 400)]
        assert values[0] == pytest.approx(values[1], rel=1e-12)
        assert values[1] == pytest.approx(values[2], rel=1e-12)
        assert values[0] == pytest.approx(5.583324291528610, rel=1e-13)

    def test_small_n_conditions_fail(self):
        sc = ScenarioLT(T=0.0, L=5.0, n=10, d=5)
        expectation, probable = scenario_lt_bounds(sc)
        assert not expectation.conditions_met
        assert expectation.value == math.inf
        assert not probable.conditions_met

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            ScenarioLT(T=-1.0, L=1.0, n=10, d=5)
        with pytest.raises(InvalidParameterError):
            ScenarioLT(T=0.0, L=0.0, n=10, d=5)
        with pytest.raises(InvalidParameterError):
            ScenarioLT(T=0.0, L=1.0, n=10, d=5, delta=1.5)


class TestDeterminism:
    def test_bound_functions_are_pure(self):
        e = make_bounded_perturbation(3, 0.1 * np.eye(3), 0.2, 5.0)
        s = ProductStats.from_ensembles([e] * 5)
        pairs = [(growth_moment_bound(s, 4, 2).value,
                  expectation_concentration_bound(s).value) for _ in range(3)]
        assert len(set(pairs)) == 1


def condition(result, name):
    (c,) = [c for c in result.conditions if c.name == name]
    return c


# sides that meet exactly: 2 e (0.05)^2 = T_AT^2, and L_AT^2 (2 + 2 log 2) = 3
T_AT = 0.11658219907985622
L_AT = 0.9412354454250338


class TestConditionSides:
    """Each side condition below, at and above its boundary: its two sides,
    and a flag equal to the comparison its display states."""

    def test_stat_order_counts_the_factors_short_of_q(self):
        f = FactorStats(1.0, 0.1, q=3.0)
        rescued = FactorStats(1.0, 0.1, sigma_uniform=0.1)  # an a.s. stat covers any q
        s = ProductStats.from_factors([f, f, rescued], d=2)
        for q, short in [(2.5, 0), (3.0, 0), (4.0, 2)]:
            c = condition(growth_moment_bound(s, 4.0, q), "stat-order-covers-q")
            assert (c.lhs, c.rhs) == (short, 0)
            assert c.satisfied == all(g.q >= q or g.sigma_uniform is not None
                                      for g in s.factors)

    @pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0], ids=["below", "at", "above"])
    def test_small_variance(self, sigma):
        # d = 1 makes the load 1 + 2 log d exactly 1
        s = ProductStats.from_factors([FactorStats(1.0, sigma)], d=1)
        load = 1.0 + 2.0 * math.log(s.d)
        c = condition(expectation_concentration_bound(s), "small-variance")
        assert (c.lhs, c.rhs) == (sigma**2, 1.0)
        assert c.satisfied == (s.v * load <= 1.0)

    @pytest.mark.parametrize("v", [0.5, 1.0, 2.0], ids=["below", "at", "above"])
    def test_perturbation_small_variance(self, v):
        s = PerturbationStats(0.0, v, 1)
        load = 1.0 + 2.0 * math.log(s.d)
        c = condition(perturbation("expectation-concentration", 0.0, v, 1), "small-variance")
        assert (c.lhs, c.rhs) == (v, 1.0)
        assert c.satisfied == (s.v * load <= 1.0)

    @pytest.mark.parametrize("n", [5, 4, 3], ids=["below", "at", "above"])
    def test_scenario_expectation_small_variance(self, n):
        sc = ScenarioLT(T=0.0, L=2.0, n=n, d=1)
        load1 = 1.0 + 2.0 * math.log(sc.d)
        c = condition(scenario_lt_bounds(sc)[0], "small-variance")
        assert (c.lhs, c.rhs) == (4.0, n)
        assert c.satisfied == (sc.L**2 * load1 <= sc.n)

    @pytest.mark.parametrize("n", [4, 3, 2], ids=["below", "at", "above"])
    def test_scenario_probable_small_variance(self, n):
        sc = ScenarioLT(T=0.0, L=L_AT, n=n, d=1, delta=0.5)
        load2 = 2.0 + 2.0 * math.log(sc.d / sc.delta)
        c = condition(scenario_lt_bounds(sc)[1], "small-variance")
        assert (c.lhs, c.rhs) == (3.0, n)
        assert c.satisfied == (sc.L**2 * load2 <= sc.n)

    @pytest.mark.parametrize("scale", [0.5, 1.0, 2.0], ids=["below", "at", "above"])
    def test_log_t_dominates(self, scale):
        t = 2.0
        v = scale * 0.5 * math.log(t)
        c = condition(tail_growth_bound(PerturbationStats(0.0, v, 3), t), "log-t-dominates")
        assert (c.lhs, c.rhs) == (scale * math.log(t), math.log(t))
        assert c.satisfied == (math.log(t) >= 2.0 * v)

    @pytest.mark.parametrize("t", [2.0, E, 3.0], ids=["below", "at", "above"])
    def test_t_below_e(self, t):
        f = FactorStats(1.0, 0.05, uniform_norm=1.05, sigma_uniform=0.05)
        s = ProductStats.from_factors([f] * 8, d=3)
        for result in (tail_concentration_bound(s, t),
                       scalar_reference_bounds(0.0, 1.0, 100, t=t)["concentration"]):
            c = condition(result, "t-below-e")
            assert (c.lhs, c.rhs) == (t, E)
            assert c.satisfied == (t <= E)

    @pytest.mark.parametrize("scale", [0.5, 1.0, 2.0], ids=["below", "at", "above"])
    def test_variance_below_log_d(self, scale):
        s = PerturbationStats(0.0, scale * 0.5 * math.log(10), 10)
        c = condition(perturbation("expectation-growth", s.xi, s.v, s.d), "variance-below-log-d")
        assert (c.lhs, c.rhs) == (scale * math.log(10), math.log(10))
        assert c.satisfied == (2.0 * s.v <= math.log(s.d))

    @pytest.mark.parametrize("t", [0.2, T_AT, 0.1], ids=["below", "at", "above"])
    def test_threshold_dominates(self, t):
        f = FactorStats(1.0, 0.0, sigma_uniform=0.05, contraction=1.0)
        s = ProductStats.from_factors([f], d=2)
        v = s.contraction_v
        c = condition(DISPLAYS["contraction-tail"](s, t=t), "threshold-dominates")
        assert (c.lhs, c.rhs) == (2.0 * E * 0.05**2, t * t)
        assert c.satisfied == (t * t >= 2.0 * E * v)
        if t == T_AT:
            assert c.lhs == c.rhs

    def test_a_nan_side_is_unsatisfied(self):
        assert not Condition("small-variance", math.nan, 1.0).satisfied
        assert not Condition("small-variance", 1.0, math.nan).satisfied
        assert not Condition("small-variance", math.nan, math.nan).satisfied

    def test_json_keeps_the_name_and_flag_only(self):
        c = Condition("small-variance", np.float64(0.5), 1.0)
        assert c.to_json() == {"name": "small-variance", "satisfied": True}
        assert type(c.to_json()["satisfied"]) is bool
        r = expectation_concentration_bound(ProductStats.from_factors([FactorStats(1.0, 2.0)],
                                                                      d=1))
        assert [set(c) for c in r.to_json()["conditions"]] == [{"name", "satisfied"}] * 2

import json
import math

import mpmath as mp
import numpy as np
import pytest
from scipy import special

from mathieuseries import analysis, mathieu, sharp
from mathieuseries.errors import ParameterError

from conftest import TWO_ZETA3, TWO_ZETA5


GRID = analysis.GridSpec(points=analysis.log_grid(0.05, 10.0, 10), tolerance=1e-9)


class TestReportPlumbing:
    def test_grid_validation(self):
        with pytest.raises(ValueError):
            analysis.GridSpec(points=())
        with pytest.raises(ValueError):
            analysis.GridSpec(points=(1.0, 1.0))

    def test_report_roundtrip(self):
        rep = analysis.VerificationReport("demo")
        rep.record(True, params={}, point=1.0, lhs=0.0, rhs=1.0, margin=1.0)
        rep.record(False, params={"x": 2}, point=2.0, lhs=1.0, rhs=0.5, margin=-0.5)
        assert rep.total == 2 and not rep.passed
        doc = json.loads(rep.to_json())
        assert doc["check_name"] == "demo"
        assert doc["violations"][0]["kind"] == "violation"

    def test_near_tie_never_passes(self):
        rep = analysis.VerificationReport("demo")
        analysis._strict_less(rep, 1.0, 0.5, 1.2, 0.5, params={}, point=0.0)
        assert not rep.passed
        assert rep.violations[0].kind == "inconclusive"

    def test_merge(self):
        rep = analysis.VerificationReport("outer")
        sub = analysis.VerificationReport("inner")
        sub.record(True, params={}, point=1.0, lhs=0.0, rhs=1.0, margin=1.0)
        sub.record(False, params={}, point=2.0, lhs=1.0, rhs=0.5, margin=-0.5)
        rep.merge(sub)
        rep.merge(sub)
        assert rep.total == 4 and len(rep.violations) == 2

    def test_determinism(self):
        a = analysis.classical_inequalities_check(GRID).to_json()
        b = analysis.classical_inequalities_check(GRID).to_json()
        assert a == b


class TestAuxKernels:
    def test_g_pu_continuity_at_zero(self):
        for p, u in ((0.3, 0.0), (1.2, 0.5), (0.75, 0.2)):
            assert analysis.g_pu(p, u, 1e-7) == pytest.approx(u + 0.5 - p, abs=1e-6)

    def test_h_u_continuity_at_zero(self):
        for u in (0.0, 0.5, 2.0):
            assert analysis.h_u(u, 1e-7) == pytest.approx(1.0, abs=1e-6)

    def test_series_direct_seam(self):
        eps = 1e-9
        for f, args in (
            (analysis.g_pu, (0.4, 0.1)),
            (analysis.h_u, (0.7,)),
            (analysis.h_u_prime, (0.7,)),
        ):
            below = f(*args, analysis._SERIES_SWITCH - eps)
            above = f(*args, analysis._SERIES_SWITCH + eps)
            assert below == pytest.approx(above, rel=1e-8, abs=1e-10)

    def test_h_u_prime_matches_finite_difference(self):
        for u, x in ((0.0, 0.1), (0.5, 1.3), (1.0, 0.26)):
            h = 1e-6
            fd = (analysis.h_u(u, x + h) - analysis.h_u(u, x - h)) / (2 * h)
            assert analysis.h_u_prime(u, x) == pytest.approx(fd, rel=1e-7)


class TestBessel:
    def test_value_at_zero(self):
        for lam in (0.0, 0.5, 1.7):
            assert analysis.bessel_j(lam, 0.0) == pytest.approx(
                1.0 / (2.0**lam * math.gamma(lam + 1.0)), rel=1e-14
            )

    def test_half_order_closed_form(self):
        for x in (0.5, 2.0, 9.0, 30.0, 200.0):
            expected = math.sqrt(2.0 / math.pi) * math.sin(x) / x
            assert analysis.bessel_j(0.5, x) == pytest.approx(expected, abs=1e-11)

    def test_against_scipy_reference(self):
        for lam in (0.0, 0.1, 0.5, 1.0, 2.5):
            for x in (0.3, 1.0, 5.0, 11.0, 13.0, 40.0, 300.0):
                mine = analysis.bessel_j(lam, x)
                ref = special.jv(lam, x) / x**lam
                envelope = math.sqrt(2.0 / (math.pi * x)) / x**lam
                assert abs(mine - ref) <= 1e-10 * (abs(ref) + envelope)

    def test_overlap_band_consistency(self):
        for lam in (0.0, 0.6, 1.5):
            cut = analysis.bessel_series_cutoff(lam)
            for x in (cut - 0.5, cut + 0.5):
                series = analysis._bessel_series(lam, x)
                asym = analysis._bessel_asym(lam, x)
                envelope = math.sqrt(2.0 / (math.pi * x)) / x**lam
                assert abs(series - asym) <= 1e-10 * (abs(series) + envelope)

    @pytest.mark.parametrize("lam", [-0.4, 0.0, 0.1, 0.5, 1.0, 2.5])
    def test_array_against_mpmath(self, lam):
        # one array call on both sides of the series/asymptotic switch
        cut = analysis.bessel_series_cutoff(lam)
        xs = np.concatenate([np.linspace(0.05, 2 * cut, 97), cut + np.array([-1e-9, 0.0, 1e-9])])
        got = analysis.bessel_j(lam, xs)
        assert got.shape == xs.shape
        for x, g in zip(xs.tolist(), got.tolist()):
            ref = mp.besselj(lam, x) / mp.mpf(x) ** lam
            envelope = math.sqrt(2.0 / (math.pi * x)) / x**lam
            assert abs(g - ref) <= 1e-11 * max(abs(ref), envelope), (lam, x)
            assert g == analysis.bessel_j(lam, x)  # a float gives the same value

    def test_bounded_by_value_at_zero(self):
        for lam in (0.0, 0.25, 1.0):
            j0 = analysis.bessel_j(lam, 0.0)
            for x in (0.5, 2.0, 7.0, 19.0):
                assert abs(analysis.bessel_j(lam, x)) < j0


class TestHankel:
    def test_laplace_identity_points(self):
        for p, a, mu in ((1.0, 1.0, 1.0), (0.7, 1.3, 0.6), (1.2, 0.5, 1.5)):
            rep = analysis.hankel_identity_610_check(p, a, mu)
            assert rep.passed, rep.violations

    @pytest.mark.parametrize("m", [1.2, 2.2, 3.0, 4.0])
    @pytest.mark.parametrize("t", [0.3, 1.0, 5.0])
    def test_laplace_closed_form(self, m, t):
        # identity 6.10 with p = 1: the integrand behaves like x^(m-2) at 0,
        # which the graded panels resolve down to m = 1.2
        mu = 0.5 * (m - 1.0)
        val = analysis.hankel_transform(lambda x: np.exp(-x) / x, m, t,
                                        analysis.hankel_cutoff(m - 2.0, 1.0))
        ref = mp.mpf(2) ** (mu - 0.5) * mp.gamma(mu + 1) / (
            mp.sqrt(mp.pi) * mu * (1 + mp.mpf(t) ** 2) ** mu)
        assert abs(val - ref) <= 1e-12 * ref

    def test_series_representation_points(self):
        for mu, u, t in ((1.0, 0.0, 2.0), (0.6, 0.5, 1.0), (1.5, 0.0, 0.7)):
            rep = analysis.hankel_identity_612_check(mu, u, t)
            assert rep.passed, rep.violations

    def test_difference_identity_points(self):
        for p, u, mu, t in ((0.4, 0.0, 1.0, 1.0), (1.3, 0.2, 0.8, 0.5), (0.3, 0.0, 1.0, 2.0)):
            rep = analysis.hankel_identity_67_check(p, u, mu, t)
            assert rep.passed, rep.violations

    def test_derivative_identity_points(self):
        for mu, u, t in ((1.0, 0.0, 1.0), (0.6, 0.5, 2.0), (1.0, 0.3, 0.5)):
            rep = analysis.derivative_69_check(mu, u, t)
            assert rep.passed, rep.violations

    def test_weighted_series_increases(self):
        # positivity of d/dt (t^2 S_1(t, 0)) at a sample point
        params = mathieu.MathieuParams(1.0, 2.0, 1.0, 0.0)
        f = lambda x: x * x * mathieu.eval_S(params, x, 1e-13).value
        h = 1e-5
        deriv = (f(1.0 + h) - f(1.0 - h)) / (2 * h)
        assert deriv > 0

    def test_cutoff_rule(self):
        # from 40 by factors of 1.5 until x^power e^(-decay x) <= 1e-20
        assert analysis.hankel_cutoff(2.0, 1.0) == 60.0
        for power, decay in ((2.0, 1.0), (0.2, 0.7), (3.0, 0.3)):
            c = analysis.hankel_cutoff(power, decay)
            assert c**power * math.exp(-decay * c) <= 1e-20
            if c > 40.0:
                prev = c / 1.5
                assert prev**power * math.exp(-decay * prev) > 1e-20


class TestChecks:
    def test_hermite_hadamard_examples(self):
        rep = analysis.hermite_hadamard_check(lambda x: x * x, 0.0, 1.0)
        assert rep.passed
        rep = analysis.hermite_hadamard_check(lambda x: 2.0 * x + 1.0, 0.5, 2.0)
        assert rep.passed  # equality case
        rep = analysis.hermite_hadamard_check(lambda x: x ** (-2.0), 1.0, 2.0)
        assert rep.passed

    def test_fsf_power_kernel_example(self):
        rep = analysis.fsf_bounds_check(sharp.PowerKernel(1.0), 0.0, 1.0)
        assert rep.passed
        # the series value itself: between the two displayed bounds
        s = sharp.convex_series(sharp.PowerKernel(1.0), 0.0, 1.0, 1e-12)
        assert 0.5 + 0.125 <= s.value <= 1.0

    def test_fsf_left_branch(self):
        rep = analysis.fsf_bounds_check(sharp.PowerKernel(1.0), -1.25, 1.0)
        assert rep.passed
        # u^2 + u + y = 0: the upper bound's tail integral diverges, the lower still holds
        rep = analysis.fsf_bounds_check(sharp.PowerKernel(1.0), -0.5, 0.25)
        assert rep.passed and rep.total == 1

    def test_fsf_preconditions(self):
        with pytest.raises(ParameterError):
            analysis.fsf_bounds_check(sharp.PowerKernel(1.0), -2.0, 1.0)

    def test_exp_log_bounds(self):
        for u in (0.0, 0.5, 1.0):
            for lam in (0.5, 1.0, 2.0):
                rep = analysis.exp_kernel_log_bounds_check(u, lam)
                assert rep.passed, rep.violations

    def test_classical_suite(self):
        rep = analysis.classical_inequalities_check(GRID)
        assert rep.passed, rep.violations[:3]

    def test_classical_values(self):
        z3 = analysis.two_zeta3()
        assert analysis.two_zeta3() is z3
        assert z3.value == pytest.approx(float(TWO_ZETA3), abs=1e-11)
        s5 = mathieu.eval_S(mathieu.MathieuParams(1.0, 2.0, 2.0, 0.0), 0.0, 1e-12)
        assert s5.value == pytest.approx(float(TWO_ZETA5), abs=1e-11)
        # squared-series comparison at t=0: zeta(5) < zeta(3)^2
        assert 0.5 * s5.value < (0.5 * z3.value) ** 2

    def test_poisson_suite(self):
        rep = analysis.poisson_closed_form_check()
        assert rep.passed, rep.violations

    def test_ner_branches(self):
        rep = analysis.ner_check(0.5, 0.0, 1.0, GRID)
        assert rep.passed
        rep = analysis.ner_check(1.5, 0.0, 1.0, GRID)
        assert rep.passed
        with pytest.raises(ParameterError):
            analysis.ner_check(0.75, 0.0, 1.0, GRID)

    def test_ner_bound_arithmetic(self):
        # branch constants against the direct-sum oracle
        z3 = analysis.two_zeta3()
        assert 1.0 / (1.0 * 0.5**2) - z3.value == pytest.approx(1.596, abs=1e-3)
        assert z3.value - 1.0 / (1.0 * 1.5**2) == pytest.approx(1.960, abs=1e-3)

    def test_sign_classification_matrix(self):
        for u in (0.0, 0.5, 1.0):
            for gap, expected in ((0.3, "positive"), (0.75, "sign-changing"), (1.5, "negative")):
                out = analysis.sign_g_pu(u + gap, u)
                assert out["classification"] == expected
                assert out["consistent"], out
                if expected == "sign-changing":
                    assert out["witnesses"]["negative_at"] < out["witnesses"]["positive_at"]

    def test_monotonicity(self):
        rep = analysis.monotonicity_check(1.0, 0.0, 0.0, GRID)
        assert rep.passed
        rep = analysis.monotonicity_check(1.0, 1.0 / 6.0, 0.0, GRID)
        assert rep.passed
        rep = analysis.monotonicity_check(1.0, 10.0, 0.0, GRID)
        assert not rep.passed  # witness found at small t

    def test_wilkins_scan(self):
        rep = analysis.wilkins_style_check(1.0, 0.0, GRID)
        assert rep.passed
        exploratory = analysis.wilkins_style_check(0.5, 1.0, GRID)
        assert exploratory.total == len(GRID.points)

    def test_cm_probe(self):
        grid = analysis.GridSpec(points=analysis.log_grid(0.05, 50.0, 8), tolerance=1e-10)
        assert analysis.cm_probe(2.0, 1.0, 1.0, 8, grid).passed
        assert analysis.cm_probe(1.0, 0.0, 1.0, 8, grid, negate=True).passed
        bad = analysis.cm_probe(0.24, 0.0, 1.0, 8, grid)
        assert not bad.passed

    def test_transfer_identities(self):
        assert analysis.identity_62_check(2.0, 1.0, 1.0, 0.0, 1.0).passed
        assert analysis.identity_62a_check(2.0, 1.0, 1.0 / 6.0, 0.0, 1.0).passed

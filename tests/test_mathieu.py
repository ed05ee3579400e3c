import gc
import inspect
import math
import runpy
import sys
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import integrate

from mathieuseries import emsum, jets, mathieu, polyfun, sharp
from mathieuseries.errors import (
    OrderOverflowError,
    ParameterError,
    RegimeError,
    ToleranceError,
)

from conftest import (
    TWO_ZETA3,
    eta_hurwitz_mp,
    exact_delta_mp,
    exact_g_derivative,
    exact_weight,
    log_phi_mp,
    poisson_alt_mp,
    poisson_plain_mp,
    s1_trigamma,
    s_alt_nsum_mp,
    s_binomial_mp,
    s_even_mp,
    s_hurwitz_alt_mp,
    s_hurwitz_mp,
    s_mellin_mp,
)


CLASSICAL = mathieu.MathieuParams(1.0, 2.0, 1.0, 0.0)


class TestParams:
    def test_delta(self):
        assert CLASSICAL.delta == 3.0
        assert mathieu.MathieuParams(0.0, 2.0, 0.0, 0.0).delta == 2.0

    def test_constraints(self):
        with pytest.raises(ParameterError):
            mathieu.MathieuParams(-0.5, 2.0, 1.0, 0.0)
        with pytest.raises(ParameterError):
            mathieu.MathieuParams(1.0, 0.0, 1.0, 0.0)
        with pytest.raises(ParameterError):
            mathieu.MathieuParams(1.0, 2.0, 1.0, -1.0)
        with pytest.raises(ParameterError):
            mathieu.MathieuParams(1.0, 2.0, 0.0, 0.0).require_delta(1.0)

    def test_mu_nonpositive_flagged(self):
        with pytest.warns(UserWarning, match="experimental"):
            mathieu.MathieuParams(0.0, 2.0, -0.2, 0.0)

    def test_tuple_types_validate_every_construction_and_stay_immutable(self):
        with pytest.warns(UserWarning, match="experimental") as caught:
            line = inspect.currentframe().f_lineno + 1
            mathieu.MathieuParams(0.0, 2.0, -0.2, 0.0)
        assert (caught[0].filename, caught[0].lineno) == (__file__, line)

        res = mathieu.EvalResult(1.0, 0.0, 0.0, mathieu.DIRECT)
        for obj, name in ((CLASSICAL, "mu"), (res, "value"), (res, "extra")):
            with pytest.raises(AttributeError):
                setattr(obj, name, 2.0)
        assert {CLASSICAL: 1}[mathieu.MathieuParams(1.0, 2.0, 1.0)] == 1

        def constructions(obj, **changes):
            cls, fields = type(obj), {**obj._asdict(), **changes}
            return [lambda: cls(*fields.values()), lambda: cls(**fields),
                    lambda: cls._make(fields.values()), lambda: obj._replace(**changes)]

        for changes in ({"gamma": -0.5}, {"alpha": 0.0}, {"u": -1.0}, {"mu": math.inf}):
            for build in constructions(CLASSICAL, **changes):
                with pytest.raises(ParameterError):
                    build()
        kind = polyfun.SplineKind("euler", 2)
        for changes in ({"family": "legendre"}, {"order": -1}):
            for build in constructions(kind, **changes):
                with pytest.raises(ValueError):
                    build()


def _binomial_coeff(mu: float, k: int) -> Fraction:
    """(-1)^k Gamma(mu+k+1) / (Gamma(mu+1) k!), the coefficient of
    x^(gamma + k alpha) in the kernel's series at 0, as an exact product."""
    out = Fraction(1)
    for j in range(k):
        out *= (Fraction(mu) + j + 1) / (j + 1)
    return (-1) ** k * out


class TestKernel:
    def test_values(self):
        assert mathieu.g_eval(CLASSICAL, 1.0) == pytest.approx(0.25, rel=1e-15)
        assert mathieu.g_eval(mathieu.MathieuParams(0.0, 1.7, 2.3, 0.0), 0.0) == 1.0
        assert mathieu.g_eval(CLASSICAL, 0.0) == 0.0

    def test_jet_matches_series_near_zero(self):
        # binomial series of the kernel at x = 0.1, truncated far past float precision
        x = 0.1
        jet = mathieu.g_jet(CLASSICAL, x, 6)
        series = math.fsum(
            float(_binomial_coeff(CLASSICAL.mu, k)) * x ** (1 + 2 * k) for k in range(40)
        )
        assert jet[0] == pytest.approx(series, rel=1e-12)
        d1 = math.fsum(
            float(_binomial_coeff(CLASSICAL.mu, k)) * (1 + 2 * k) * x ** (2 * k)
            for k in range(40)
        )
        assert jets.derivatives(jet)[1] == pytest.approx(d1, rel=1e-12)

    @pytest.mark.parametrize("mu", [0.5, 1.0, 2.5])
    def test_jet_at_zero_is_the_binomial_series(self, mu):
        # the coefficient of x^k for gamma = 0, alpha = 1; exp of lgamma
        # differences once erred by up to 7.7e-14 relative for k < 60
        jet = mathieu.g_jet(mathieu.MathieuParams(0.0, 1.0, mu, 0.0), 0.0, 59)
        for k, c in enumerate(jet):
            assert abs(Fraction(c) / _binomial_coeff(mu, k) - 1) < 1e-15
        derivs = dict(mathieu.g_smoothness(mathieu.MathieuParams(0.0, 1.0, mu, 0.0)).initial_derivs)
        for k in range(17):
            want = _binomial_coeff(mu, k) * math.factorial(k)
            assert abs(Fraction(derivs[k]) / want - 1) < 2e-15

    def test_jet_at_zero_smooth_regime(self):
        jet = mathieu.g_jet(CLASSICAL, 0.0, 7)
        # coefficients (-1)^k (k+1) at odd degrees 1, 3, 5, 7
        assert jet[1] == pytest.approx(1.0)
        assert jet[3] == pytest.approx(-2.0)
        assert jet[5] == pytest.approx(3.0)
        assert jet[7] == pytest.approx(-4.0)
        assert jet[0] == jet[2] == jet[4] == jet[6] == 0.0

    def test_smoothness_profile(self):
        prof = mathieu.g_smoothness(mathieu.MathieuParams(0.5, 2.0, 1.0, 0.0))
        assert prof.r == 0
        assert prof.initial_derivs == ((0, 0.0),)

        prof = mathieu.g_smoothness(mathieu.MathieuParams(2.0, 1.5, 2.0, 0.0))
        assert prof.r == 3
        assert dict(prof.initial_derivs)[2] == pytest.approx(2.0)
        assert dict(prof.initial_derivs)[1] == 0.0

        prof = mathieu.g_smoothness(CLASSICAL)
        assert prof.r == math.inf
        nonzero = [p for p, v in prof.initial_derivs if v != 0.0]
        assert nonzero == [1, 3, 5, 7, 9, 11, 13, 15]

    def test_jet_order_error_at_zero(self):
        rough = mathieu.MathieuParams(0.5, 2.0, 1.0, 0.0)
        with pytest.raises(OrderOverflowError):
            mathieu.g_jet(rough, 0.0, 1)
        assert mathieu.g_jet(rough, 0.0, 0) == [0.0]

    def test_total_variation(self):
        assert mathieu.g_total_variation(
            mathieu.MathieuParams(0.0, 2.0, 1.0, 0.0)
        ) == 1.0
        v = mathieu.g_total_variation(CLASSICAL)
        assert v == pytest.approx(2.0 * (1 / 3) ** 0.5 * (4 / 3) ** (-2.0), rel=1e-14)
        v2 = mathieu.g_total_variation(mathieu.MathieuParams(2.0, 2.0, 1.0, 0.0))
        assert v2 == pytest.approx(0.5, rel=1e-14)
        # cross-check by quadrature of |g'| (tail beyond X contributes g(X))
        quad, _ = integrate.quad(
            lambda x: abs(jets.derivatives(mathieu.g_jet(CLASSICAL, x, 1))[1]),
            0.0, 200.0, limit=300,
        )
        assert v == pytest.approx(quad + mathieu.g_eval(CLASSICAL, 200.0), rel=1e-8)


class TestTailIntegral:
    def test_classical_closed_form(self):
        for t in (0.0, 0.5, 2.0, 10.0):
            assert mathieu.tail_integral(CLASSICAL, t) == pytest.approx(
                1.0 / (2.0 * (t * t + 1.0)), rel=1e-12
            )

    def test_beta_value_at_zero(self):
        params = mathieu.MathieuParams(0.0, 2.0, 1.0, 0.0)
        assert mathieu.tail_integral(params, 0.0) == pytest.approx(math.pi / 4, rel=1e-12)
        # from 0 the value is B(a, b)/alpha, and its bound is that of B(a, b)/alpha
        c = mathieu._kernel(*params[:3])
        value, err = mathieu.MathieuSmoothFunction(params).integral_with_error()
        assert (value, err) == (c.whole, 1.01 * c.whole_rel * c.whole + 1e-300)
        assert abs(value - mp.pi / 4) <= c.whole_rel * mp.pi / 4

    def test_exponent_one_family(self):
        params = mathieu.MathieuParams(0.0, 1.0, 2.0, 0.0)
        for t in (0.0, 1.0, 3.0):
            assert mathieu.tail_integral(params, t) == pytest.approx(
                1.0 / (2.0 * (1.0 + t) ** 2), rel=1e-12
            )

    def test_quadrature_cross_check(self):
        params = mathieu.MathieuParams(0.7, 1.9, 1.3, 0.0)
        got = mathieu.tail_integral(params, 1.4)
        ref, _ = integrate.quad(
            lambda x: mathieu.g_eval(params, x), 1.4, math.inf, epsabs=1e-13
        )
        assert got == pytest.approx(ref, rel=1e-11)

    def test_divergence(self):
        with pytest.raises(ParameterError):
            mathieu.tail_integral(mathieu.MathieuParams(1.0, 2.0, 0.0, 0.0), 0.0)

    @pytest.mark.parametrize("params, form", [
        ((2.0, 2.0, 1.5, 0.0), "a=1"),
        ((1.0, 2.0, 1.0, 0.0), "a=1"),
        ((1.0, 1.0, 1.5, 0.0), "b=n"),
        ((1.0, 1.0, 1.01, 0.0), "b=n"),
        ((0.0, 1.0, 2.3, 0.0), "b=n"),
        ((4.0, 1.0, 5.2, 0.0), "b=n"),
        ((0.5, 1.5, 1.0, 0.0), "a=1"),
        ((0.5, 1.5, 2.0, 0.0), "b=n"),
        ((1.0, 2.0, 0.7, 0.0), "b=n"),
        ((0.0, 2.0, 0.0, 0.0), "a=b=1/2"),
        ((1.0, 4.0, 0.0, 0.0), "a=b=1/2"),
        # no closed form: the incomplete Beta series
        ((0.0, 2.0, 1.0, 0.0), None),
        ((1.0, 1.5, 1.0, 0.0), None),
        ((0.0, 2.5, 0.3, 0.0), None),
        ((2.0, 2.5, 1.0, 0.0), None),
        ((0.0, 2.0, 10.0, 0.0), None),  # a = 10.5 >> b = 0.5
        ((2.0, 2.5, 0.2000004, 0.0), None),  # delta - 1 = 1e-6: a = 4e-7
    ])
    def test_closed_forms_within_their_bound(self, params, form):
        # every form, against the 40-digit incomplete Beta integral at the
        # exact (a, b); x near 1 puts s within 1e-3 of 1/2, where the series
        # in s gives way to B(a, b) - B_q(b, a), and x <= 1e-6 puts s near 1
        # (with b < 1 for three of the series kernels).  The integral from 0
        # of g(x + shift) states err = 1.01 (rel value) + 1e-300, with rel
        # the relative bound at the shift: the value lies within rel of ref
        p = mathieu.MathieuParams(*params)
        assert mathieu._kernel(*p[:3]).form == form
        g, a_, mu, _ = (mp.mpf(x) for x in params)
        b = (g + 1) / a_
        a = mu + 1 - b
        for x in (1e-9, 1e-6, 1e-3, 0.3, 0.999, 0.9999, 1.0, 1.0001, 1.001, 1.7, 5.0, 64.0,
                  1e4):
            s = 1 / (mp.mpf(x) ** a_ + 1)
            ref = mp.betainc(a, b, 0, s) / a_
            value, err = mathieu.MathieuSmoothFunction(p, x).integral_with_error()
            assert value == mathieu.tail_integral(p, x), (params, x)
            assert 1.01 * abs(value - ref) + 1e-300 <= err, (params, x)

    def test_series_bound_against_mpmath(self):
        # random (a, b, s) with a, b in [0.01, 50]: the kernel (0, 1/b, a+b-1)
        # has those (a, b), and x = ((1-s)/s)^b gives s
        rng = __import__("random").Random(11)
        checked = 0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # mu <= 0 where a + b <= 1
            for _ in range(400):
                a, b = 10 ** rng.uniform(-2, 1.7), 10 ** rng.uniform(-2, 1.7)
                s = 10 ** rng.uniform(-14, 0) * rng.choice([1.0, 0.999])
                p = mathieu.MathieuParams(0.0, 1.0 / b, a + b - 1.0)
                log_x = b * (math.log1p(-s) - math.log(s)) if s < 1.0 else -math.inf
                if not -700.0 < log_x < 700.0:
                    continue
                x = math.exp(log_x)
                b_ = 1 / mp.mpf(p.alpha)
                a_ = mp.mpf(p.mu) + 1 - b_
                s_ = 1 / (mp.mpf(x) ** mp.mpf(p.alpha) + 1)
                ref = mp.betainc(a_, b_, 0, s_) / mp.mpf(p.alpha)
                if ref < 1e-290:  # below 2^-1000 the tail raises OverflowError
                    continue
                # err = 1.01 (rel value) + 1e-300, as in the closed forms' test
                value, err = mathieu.MathieuSmoothFunction(p, x).integral_with_error()
                assert 1.01 * abs(value - ref) + 1e-300 <= err, (a, b, s)
                checked += 1
        assert checked >= 300

    @pytest.mark.parametrize("params", [(0.0, 2.0, 1.0, 0.0), (1.0, 1.5, 1.0, 0.0),
                                        (0.0, 2.5, 0.3, 0.0), (0.0, 2.0, 10.0, 0.0)])
    def test_point_bound_is_the_selected_series_bound(self, params):
        # at each point, across the switch between the two series, the bound
        # is that of the series the point takes, plus the rounding of (a, b)
        p = mathieu.MathieuParams(*params)
        c = mathieu._kernel(*p[:3])
        taken = set()
        for lo, hi in ((1e-6, 1e-2), (1e-3, 0.9), (0.05, 3.0), (0.5, 1e3), (1.5, 1e9)):
            for x in np.geomspace(lo, hi, 40):
                x = float(x)
                s, q = mathieu._beta_point(p, x)
                series = mathieu._reflected_tail if q < 0.5 and q < c.split \
                    else mathieu._direct_tail
                taken.add(series)
                expected = series(c, s, q)[1] + mathieu._rounding_rel(p, c, x)
                value, err = mathieu.MathieuSmoothFunction(p, x).integral_with_error()
                assert err == 1.01 * (expected * value) + 1e-300, (params, x)
        assert taken == {mathieu._reflected_tail, mathieu._direct_tail}

    @pytest.mark.parametrize("params", [(0.0, 2.0, 1.0, 0.0), (0.0, 2.5, 0.3, 0.0),
                                        (2.0, 2.5, 0.2000004, 0.0), (0.5, 1.5, 2.0, 0.0)])
    def test_shifted_tail_states_the_point_bound(self, params):
        # a closed tail's integral term takes its value and bound from one
        # evaluation at the shift: tail_integral's value, and the bound of the
        # form that gave it plus the rounding of (a, b)
        p = mathieu.MathieuParams(*params)
        c = mathieu._kernel(*p[:3])
        for shift in (0.25, 0.875, 1.5, 64.0):
            for t in (0.0, 0.5, 3.0):
                x = shift + t
                value, err = mathieu.MathieuSmoothFunction(p, x).integral_with_error()
                assert value == mathieu.tail_integral(p, x), (params, x)
                rel = mathieu._tail_point(p, c, x)[1] + mathieu._rounding_rel(p, c, x)
                assert err == 1.01 * (rel * value) + 1e-300

    def test_split_switches_where_the_cancellation_factor_reaches_its_bound(self):
        # past s = 1/2 the series in q = 1 - s takes over while
        # I_q(b, a) / (1 - I_q(b, a)) <= 1, i.e. I_q <= 1/2
        for params in ((0.0, 2.0, 1.0, 0.0), (0.0, 2.0, 10.0, 0.0), (1.0, 1.5, 1.0, 0.0)):
            c = mathieu._kernel(*params[:3])
            q = c.split
            below = mp.betainc(c.b, c.a, 0, q, regularized=True)
            assert below <= 0.5 + 1e-12
            if q < 0.5:
                assert mp.betainc(c.b, c.a, 0, q * (1 + 2.0**-8), regularized=True) > 0.5


class TestEvalS:
    def test_zeta3(self):
        res = mathieu.eval_S(CLASSICAL, 0.0, 1e-12)
        assert abs(res.value - float(TWO_ZETA3)) <= res.err_hi

    def test_against_trigamma_oracle(self):
        for t, u in ((0.5, 0.0), (1.0, 0.0), (2.0, 0.3), (10.0, 0.0), (100.0, 0.9), (3.0, -0.5)):
            params = mathieu.MathieuParams(1.0, 2.0, 1.0, u)
            res = mathieu.eval_S(params, t, 1e-12)
            truth = float(s1_trigamma(t, u))
            assert abs(res.value - truth) <= res.err_hi, (t, u)

    @settings(max_examples=15, deadline=None)
    @given(
        t=st.floats(min_value=0.05, max_value=60.0),
        u=st.floats(min_value=-0.8, max_value=2.0),
        tol=st.sampled_from([1e-8, 1e-10, 1e-12]),
    )
    def test_bracket_honesty_property(self, t, u, tol):
        params = mathieu.MathieuParams(1.0, 2.0, 1.0, u)
        res = mathieu.eval_S(params, t, tol)
        truth = float(s1_trigamma(t, u))
        assert res.err_hi <= tol
        assert abs(res.value - truth) <= res.err_hi

    def test_bracket_meets_tol_where_first_term_dominates(self):
        # w = 1 + u near 0.2 and small t: sum|terms| reaches 223, so tol = 1e-12
        # needs the exact head sum and the per-term rounding count
        for t, u in ((0.0625, -0.78125), (0.05, -0.8)):
            res = mathieu.eval_S(mathieu.MathieuParams(1.0, 2.0, 1.0, u), t, 1e-12)
            assert res.err_hi <= 1e-12
            assert abs(res.value - float(s1_trigamma(t, u))) <= res.err_hi, (t, u)

    def test_generic_regime_against_brute_oracle(self):
        # non-integer gamma and alpha: 30-digit partial sum plus integral
        # tail bracket (fully independent of the library code paths)
        import mpmath as mp

        gamma, alpha, mu, u, t = 0.7, 1.9, 1.2, 0.3, 2.0
        f = lambda k: 2 * (k + u) ** gamma / ((k + u) ** alpha + t**alpha) ** (mu + 1)
        n = 50000
        with mp.workdps(30):
            partial = mp.fsum(f(k) for k in range(1, n + 1))
            hi = partial + mp.quad(f, [n, mp.inf])
            lo = partial + mp.quad(f, [n + 1, mp.inf])
        res = mathieu.eval_S(mathieu.MathieuParams(gamma, alpha, mu, u), t, 1e-12)
        assert float(lo) - res.err_hi <= res.value <= float(hi) + res.err_hi

    def test_jet_at_zero_fractional_alpha(self):
        # gamma in Z+, alpha not an integer: only the gamma-th derivative survives
        params = mathieu.MathieuParams(2.0, 1.5, 2.0, 0.0)
        assert mathieu.g_jet(params, 0.0, 3) == [0.0, 0.0, 1.0, 0.0]

    def test_poisson_remark_value(self):
        params = mathieu.MathieuParams(0.0, 2.0, 0.0, 0.0)
        res = mathieu.eval_S(params, 1.0, 1e-12)
        assert res.value == pytest.approx(mathieu.poisson_S(1.0), abs=5e-12)

    def test_mathieu_inequality_point(self):
        res = mathieu.eval_S(CLASSICAL, 2.0, 1e-12)
        assert res.value + res.err_hi < 0.25

    def test_bracket_is_two_sided(self):
        res = mathieu.eval_S(CLASSICAL, 1.0, 1e-10)
        assert res.lower <= res.value <= res.upper
        assert res.method == mathieu.DIRECT

    def test_tolerance_drives_bracket(self):
        wide = mathieu.eval_S(CLASSICAL, 1.0, 1e-6)
        tight = mathieu.eval_S(CLASSICAL, 1.0, 1e-12)
        assert tight.err_hi < wide.err_hi
        assert wide.err_hi <= 1e-6
        assert tight.err_hi <= 1e-12

    def test_term_cap_read_on_every_sum(self, monkeypatch):
        # a cap below the 64-term head raises at once; each sum reads the
        # cap again
        params = mathieu.MathieuParams(0.0, 2.0, 1.0, 0.0)
        unset = mathieu.eval_S_alt(params, 1.0)
        monkeypatch.setattr(mathieu, "MAX_TERMS", 32)
        with pytest.raises(ToleranceError, match="32-term cap"):
            mathieu.eval_S_alt(params, 1.0)
        monkeypatch.undo()
        assert mathieu.eval_S_alt(params, 1.0) == unset

    def test_term_cap(self, monkeypatch):
        # the bracket needs far more than 1,000 terms (delta = 1.075), and at
        # tol 1e-14 the closed tail (radius ~7e-14) cannot stand in
        monkeypatch.setattr(mathieu, "MAX_TERMS", 1000)
        from mathieuseries.errors import ToleranceError

        with pytest.raises(ToleranceError):
            mathieu.eval_S(mathieu.MathieuParams(0.5, 1.5, 0.05, 0.0), 1.0, 1e-14)


class TestEvalSAlt:
    def test_poisson_alternating(self):
        params = mathieu.MathieuParams(0.0, 2.0, 0.0, 0.0)
        res = mathieu.eval_S_alt(params, 1.0, 1e-12)
        assert res.value == pytest.approx(mathieu.poisson_S_alt(1.0), abs=5e-12)

    def test_identity_1b(self):
        params = mathieu.MathieuParams(1.0, 2.0, 1.0, 0.3)
        alt = mathieu.eval_S_alt(params, 3.0, 1e-12)
        s_full = mathieu.eval_S(params, 3.0, 1e-13)
        s_half = mathieu.eval_S(mathieu.MathieuParams(1.0, 2.0, 1.0, 0.15), 1.5, 1e-13)
        rhs = s_full.value - 2.0 ** (1.0 - params.delta) * s_half.value
        assert alt.value == pytest.approx(rhs, abs=1e-10)

    @settings(max_examples=10, deadline=None)
    @given(
        mu=st.floats(min_value=0.4, max_value=2.5),
        u=st.floats(min_value=-0.4, max_value=1.5),
        t=st.floats(min_value=0.1, max_value=8.0),
    )
    def test_identity_1b_random_params(self, mu, u, t):
        params = mathieu.MathieuParams(1.0, 2.0, mu, u)
        alt = mathieu.eval_S_alt(params, t, 1e-11)
        s_full = mathieu.eval_S(params, t, 1e-12)
        s_half = mathieu.eval_S(
            mathieu.MathieuParams(1.0, 2.0, mu, u / 2.0), t / 2.0, 1e-12
        )
        rhs = s_full.value - 2.0 ** (1.0 - params.delta) * s_half.value
        assert abs(alt.value - rhs) <= 1e-10

    def test_slow_alternating_family_raises_cleanly(self, monkeypatch):
        # delta = 0.9 outside Z+ x N: the 64-term head and its closed tail
        # meet tol 1e-12 (the first-order bracket, ~n^-0.9 wide, exhausted
        # the term cap); at tol 1e-16 a 128-term closed tail meets tol/2 and
        # the sum reports its float64-floor radius, as every closed sum does;
        # a cap below the 64-term head still ends in a clean ToleranceError
        params = mathieu.MathieuParams(1.5, 2.0, 0.2, 0.0)
        res = mathieu.eval_S_alt(params, 1.0, 1e-4)
        assert res.err_hi <= 1e-4
        with mp.workdps(30):
            truth = mp.nsum(lambda k: (-1) ** (k - 1) * 2 * k ** mp.mpf(1.5)
                            / (k**2 + 1) ** mp.mpf(1.2), [1, mp.inf], method="alternating")
        res = mathieu.eval_S_alt(params, 1.0, 1e-12)
        assert res.err_hi <= 1e-12
        assert _contains(res, truth)
        monkeypatch.setattr(mathieu, "MAX_TERMS", 1000)
        res = mathieu.eval_S_alt(params, 1.0, 1e-16)
        assert (res.terms_used, res.order) == (128, mathieu.TAIL_ORDER)
        assert res.err_hi < 1e-13
        assert _contains(res, truth)
        monkeypatch.setattr(mathieu, "MAX_TERMS", 32)
        with pytest.raises(ToleranceError):
            mathieu.eval_S_alt(params, 1.0, 1e-16)

    def test_vanishing_alternating_limit(self):
        # gamma even, alpha even, u = 0: t^(alpha(mu+1)) S~ -> (-1)^gamma E_gamma(0),
        # and the residual beats every tested power
        params = mathieu.MathieuParams(2.0, 2.0, 1.0, 0.0)
        scaled = []
        for t in (3.0, 5.0, 8.0):
            res = mathieu.eval_S_alt(params, t, 1e-14)
            scaled.append(abs(res.value) * t ** (2.0 * (1.0 + 1.0) + 2.0 * 3.0))
        assert scaled[1] < scaled[0] / 2.0
        assert scaled[2] < scaled[1] / 2.0

    def test_leading_alternating_coefficient(self):
        # gamma=1: t^4 S~ -> -E_1(0) = 1/2
        params = mathieu.MathieuParams(1.0, 2.0, 1.0, 0.0)
        res = mathieu.eval_S_alt(params, 40.0, 1e-14)
        assert res.value * 40.0**4 == pytest.approx(0.5, rel=2e-3)


class TestSMu:
    def test_matches_eval_s(self):
        a = mathieu.s_mu(1.0, 2.0, 0.3, 1e-12)
        b = mathieu.eval_S(mathieu.MathieuParams(1.0, 2.0, 1.0, 0.3), 2.0, 1e-12)
        assert a.value == b.value

    def test_dropped_term_and_shift(self):
        # u = -2: the k=2 term vanishes, remaining sum matches a brute force
        res = mathieu.s_mu(1.0, 1.5, -2.0, 1e-12)
        brute = math.fsum(
            2.0 * (k - 2.0) / ((k - 2.0) ** 2 + 1.5**2) ** 2
            for k in range(1, 400000)
            if k != 2
        )
        assert res.value == pytest.approx(brute, abs=1e-9)

    @pytest.mark.parametrize("mu", [0.5, 1.0, 2.0, 3.0])
    def test_bracket_holds_below_u_minus_one(self, mu):
        # the head with k + u <= 0, summed exactly, plus the shifted rest by
        # its binomial-series oracle; the head's roundings can far exceed the
        # rest's radius (at mu = 3, t = 0, u = -1.9 the head is 2e7)
        for u in (-1.25, -1.5, -1.9, -2.5, -3.7, -5.5):
            head_end = math.floor(-u) + 1
            for t in (0.0, 0.1, 0.3, 1.0):
                muf, w, tf = mp.mpf(mu), mp.mpf(u), mp.mpf(t)
                head = mp.fsum(2 * (k + w) / ((k + w) ** 2 + tf * tf) ** (muf + 1)
                               for k in range(1, head_end + 1) if k + u != 0)
                truth = head + s_binomial_mp(1.0, 2.0, mu, u + head_end, t)
                for tol in (1e-10, 1e-13, 1e-15):
                    res = mathieu.s_mu(mu, t, u, tol)
                    assert res.lower <= truth <= res.upper, (mu, u, t, tol, res)


class TestAsymptotics:
    def test_classical_pattern(self):
        series = mathieu.asym_S(CLASSICAL, 4)
        assert series.powers[0] == 2.0
        assert series.coeffs[0] == pytest.approx(1.0, rel=1e-14)
        # S ~ 1/t^2 - B_2/t^4 + B_4/t^6 - ... with (-1)^k B_{2k} signs
        assert series.coeffs[1] == pytest.approx(-1.0 / 6.0, rel=1e-14)
        assert series.coeffs[2] == pytest.approx(-1.0 / 30.0, rel=1e-14)

    def test_offset_coefficient(self):
        series = mathieu.asym_S(mathieu.MathieuParams(1.0, 2.0, 1.0, 0.5), 2)
        assert series.coeffs[1] == pytest.approx(-11.0 / 12.0, rel=1e-14)

    def test_general_mu_second_coefficient(self):
        # coefficient of t^-(2 mu + 2) is -(u^2+u+1/6)
        for mu, u in ((1.5, 0.0), (2.5, 0.7)):
            series = mathieu.asym_S(mathieu.MathieuParams(1.0, 2.0, mu, u), 2)
            assert series.coeffs[1] == pytest.approx(-(u * u + u + 1.0 / 6.0), rel=1e-13)

    def test_exponent_one_family_closed_form(self):
        # S(t, 0, 0, 1, 2) = -psi''(1+t); checks lead 1/t^2, then -1/t^3, +1/(2 t^4)
        from scipy import special

        params = mathieu.MathieuParams(0.0, 1.0, 2.0, 0.0)
        series = mathieu.asym_S(params, 3)
        assert series.coeffs[0] == pytest.approx(1.0, rel=1e-12)
        assert series.coeffs[1] == pytest.approx(-1.0, rel=1e-12)
        assert series.coeffs[2] == pytest.approx(0.5, rel=1e-12)
        for t in (10.0, 30.0):
            closed = -float(special.polygamma(2, 1.0 + t))
            direct = mathieu.eval_S(params, t, 1e-13)
            assert abs(direct.value - closed) <= direct.err_hi + 1e-15
            assert series.evaluate(1.0 / t) == pytest.approx(closed, rel=40.0 / t**3)

    def test_alternating_expansion_even_gamma(self):
        # gamma=2, alpha=2: leading coefficient is E_2(-u) = u^2 + u at t^-(2(mu+1))
        params = mathieu.MathieuParams(2.0, 2.0, 0.8, 0.3)
        series = mathieu.asym_S_alt(params, 3)
        assert series.powers[0] == pytest.approx(2.0 * 1.8)
        assert series.coeffs[0] == pytest.approx(0.3**2 + 0.3, rel=1e-13)
        direct = mathieu.eval_S_alt(params, 30.0, 1e-9)
        assert series.evaluate(1.0 / 30.0) == pytest.approx(direct.value, rel=1e-6)

    def test_regime_error(self):
        with pytest.raises(RegimeError):
            mathieu.asym_S(mathieu.MathieuParams(0.5, 2.0, 1.0, 0.0), 3)
        with pytest.raises(RegimeError):
            mathieu.asym_S(mathieu.MathieuParams(1.0, 1.5, 2.0, 0.0), 3)

    def test_alternating_expansion_leading_terms(self):
        params = mathieu.MathieuParams(1.0, 2.0, 1.0, 0.0)
        series = mathieu.asym_S_alt(params, 3)
        direct = mathieu.eval_S_alt(params, 30.0, 1e-14)
        assert series.evaluate(1.0 / 30.0) == pytest.approx(direct.value, rel=1e-5)

    def test_total_variation_brackets(self):
        # |t^delta S~ - g(0)| <= V(g) and
        # |t^delta (S - C t^(1-delta)) + (1+2u) g(0)| <= (1+2u) V(g) for u >= 0
        from mathieuseries import polyfun

        for gamma, alpha, mu, u in (
            (1.0, 2.0, 1.0, 0.0), (0.0, 2.0, 1.0, 0.5), (0.5, 1.5, 2.0, 0.25)
        ):
            params = mathieu.MathieuParams(gamma, alpha, mu, u)
            v = mathieu.g_total_variation(params)
            g0 = 1.0 if gamma == 0 else 0.0
            b = (gamma + 1.0) / alpha
            c_lead = 2.0 / alpha * polyfun.beta_fn(b, mu + 1.0 - b)
            delta = params.delta
            for t in (2.0, 5.0, 20.0):
                alt = mathieu.eval_S_alt(params, t, 1e-12).value
                assert abs(t**delta * alt - g0) <= v + 1e-9
                s = mathieu.eval_S(params, t, 1e-12).value
                lhs = t**delta * (s - c_lead * t ** (1.0 - delta)) + (1.0 + 2.0 * u) * g0
                assert abs(lhs) <= (1.0 + 2.0 * u) * v + 1e-9

    def test_scaled_residual_bounded(self):
        series = mathieu.asym_S(CLASSICAL, 4)
        scaled = []
        for t in (20.0, 40.0):
            direct = mathieu.eval_S(CLASSICAL, t, 1e-14)
            resid = abs(direct.value - series.evaluate(1.0 / t, 3))
            scaled.append(resid * t ** series.powers[3])
        expected = abs(series.coeffs[3])
        assert 0.3 * expected <= scaled[0] <= 3.0 * expected
        assert 0.3 * expected <= scaled[1] <= 3.0 * expected


def _exact_corrections(gamma: int, alpha: int, mu: float, u: float, n: int,
                       bernoulli: bool) -> list[float]:
    """The corrections 2 w_p g^(p)(0), p = gamma + alpha j, each exact product
    rounded once, from the test's own rationals."""
    return [float(2 * exact_weight(bernoulli, u, p) * exact_g_derivative(gamma, alpha, mu, p))
            for p in (gamma + alpha * j for j in range(n))]


class TestExactExpansions:
    """Every expansion coefficient and engine weight is its exact rational
    rounded once, and eval_asym is head 0's certified bracket."""

    KERNELS = [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 0.9), (0, 2, 0.5), (3, 4, 2.25), (1, 1, 1.5),
               (2, 2, 1.5), (0, 3, 0.7), (1, 4, 0.3)]

    @pytest.mark.parametrize("u", [0.0, 0.25, 0.3, 0.5, 1.7])
    @pytest.mark.parametrize("gamma, alpha, mu", KERNELS)
    def test_coefficients_are_correctly_rounded(self, gamma, alpha, mu, u):
        params = mathieu.MathieuParams(float(gamma), float(alpha), mu, u)
        plain, alt = mathieu.asym_S(params, 8), mathieu.asym_S_alt(params, 8)
        assert list(plain.coeffs[1:]) == _exact_corrections(gamma, alpha, mu, u, 8, True)
        assert list(alt.coeffs) == _exact_corrections(gamma, alpha, mu, u, 8, False)
        assert plain.powers[1:] == alt.powers == tuple(alpha * (j + mu + 1.0) for j in range(8))

    @settings(max_examples=80, deadline=None)
    @given(gamma=st.integers(0, 3), alpha=st.integers(1, 4), mu=st.floats(0.05, 4.0),
           u=st.one_of(st.integers(-7, 24).map(lambda i: i / 8.0),
                       st.sampled_from([0.3, 0.1, -0.4, 1.7, 2.0 / 3.0]),
                       st.floats(-0.95, 3.0)),
           n=st.integers(0, 10))
    def test_coefficients_and_weights_are_their_exact_rationals(self, gamma, alpha, mu, u, n):
        params = mathieu.MathieuParams(float(gamma), float(alpha), mu, u)
        assume(params.delta > 1.0)
        assert list(mathieu.asym_S(params, n).coeffs[1:]) == \
            _exact_corrections(gamma, alpha, mu, u, n, True)
        assert list(mathieu.asym_S_alt(params, n).coeffs) == \
            _exact_corrections(gamma, alpha, mu, u, n, False)
        for family in (polyfun.BERNOULLI, polyfun.EULER):
            weights = emsum._weights(family, u, mathieu.TAIL_ORDER)
            exact = [exact_weight(family == polyfun.BERNOULLI, u, k)
                     for k in range(mathieu.TAIL_ORDER + 1)]
            assert [part[0] for part in weights.parts] == [float(w) for w in exact]
            assert weights.orders == tuple(k for k, w in enumerate(exact)
                                           if w or k == mathieu.TAIL_ORDER)

    def test_derivatives_at_zero_are_exact(self):
        for gamma, alpha, mu in self.KERNELS:
            params = mathieu.MathieuParams(float(gamma), float(alpha), mu)
            kernel = mathieu._kernel(params.gamma, params.alpha, params.mu)
            derivs = dict(mathieu.g_smoothness(params).initial_derivs)
            jet = mathieu.g_jet(params, 0.0, 20)
            for p in range(21):
                exact = exact_g_derivative(gamma, alpha, mu, p)
                assert kernel.derivative_at_zero(p) == exact
                assert kernel.model(p).at_zero == polyfun.rounded(exact)
                assert jet[p] == float(exact / math.factorial(p))
                if p <= 16:
                    assert derivs[p] == float(exact)

    @pytest.mark.parametrize("u", [0.0, 0.25])
    @pytest.mark.parametrize("t", [20.0, 1e4, 1e8])
    def test_eval_asym_is_head_zero_and_brackets_the_oracles(self, t, u):
        params = mathieu.MathieuParams(1.0, 2.0, 1.0, u)
        res = mathieu.eval_asym(params, t)
        assert res == mathieu.eval_em(params, t)
        assert (res.rigorous, res.terms_used, res.order) == (True, 0, mathieu.TAIL_ORDER)
        for truth in (s1_trigamma(t, u), s_mellin_mp(1.0, 2.0, 1.0, u, t)):
            assert res.lower <= truth <= res.upper, (t, u, res, truth)

    def test_eval_asym_raises_as_eval_em(self):
        for params, t in (((0.5, 2.0, 1.0, 0.0), 100.0), ((1.0, 2.0, 1.0, 0.0), 0.0),
                          ((1.0, 2.0, 1.0, -0.5), 0.5)):
            params = mathieu.MathieuParams(*params)
            with pytest.raises(RegimeError) as asym:
                mathieu.eval_asym(params, t)
            with pytest.raises(RegimeError) as em:
                mathieu.eval_em(params, t)
            assert str(asym.value) == str(em.value)


class TestDispatch:
    def test_small_t_direct(self):
        assert mathieu.eval_auto(CLASSICAL, 0.5, 1e-10).method == mathieu.DIRECT

    def test_large_t_euler_maclaurin_contains_oracle(self):
        # large t goes to the certified Euler-Maclaurin bound, never to the expansion
        for u in (0.0, 0.5):
            params = mathieu.MathieuParams(1.0, 2.0, 1.0, u)
            for t in (1e3, 3e3, 1e4):
                res = mathieu.eval_auto(params, t, 1e-10)
                assert res.method == mathieu.EULER_MACLAURIN
                assert res.rigorous
                assert abs(mp.mpf(res.value) - s1_trigamma(t, u)) <= res.err_hi, (u, t)

    def test_direct_path_skips_smoothness(self, monkeypatch):
        def fail(_params):
            raise AssertionError("g_smoothness called on the direct path")

        monkeypatch.setattr(mathieu, "g_smoothness", fail)
        assert mathieu.eval_auto(CLASSICAL, 0.5, 1e-10).method == mathieu.DIRECT

    def test_euler_maclaurin_where_direct_cannot_reach_tol(self, monkeypatch):
        # delta = 1.2: under a cap below its 64-term head direct summation
        # cannot reach tol (without the cap its closed tail would), EM meets it
        monkeypatch.setattr(mathieu, "MAX_TERMS", 32)
        params = mathieu.MathieuParams(1.0, 1.0, 1.2, 0.0)
        res = mathieu.eval_auto(params, 20.0, 1e-10)
        assert res.method == mathieu.EULER_MACLAURIN
        assert res.err_hi <= 1e-10
        assert abs(mp.mpf(res.value) - s_hurwitz_mp(1.2, 20.0)) <= res.err_hi

    def test_unreachable_tol_raises(self):
        # direct stops at the float64 floor (radius ~6e-15), EM is wide at t = 1
        with pytest.raises(ToleranceError, match="direct.*euler-maclaurin"):
            mathieu.eval_auto(CLASSICAL, 1.0, 1e-18)

    def test_non_integer_kernel_goes_direct(self):
        # the unshifted EM kernel needs the integer regime, where its variation
        # comes from exact monotone pieces; every other kernel is summed directly
        for params in ((1.0, 1.5, 1.0, 0.0), (2.0, 2.5, 1.0, 0.0)):
            with pytest.raises(RegimeError):
                mathieu.eval_em(mathieu.MathieuParams(*params), 100.0)
        for params, t in [((1.0, 1.5, 1.0, 0.0), 50.0), ((1.0, 1.5, 1.0, 0.0), 2000.0),
                          ((2.0, 2.5, 1.0, 0.0), 50.0), ((2.0, 2.5, 1.0, 0.0), 707.1),
                          ((2.0, 2.5, 1.0, 0.0), 2000.0)]:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                res = mathieu.eval_auto(mathieu.MathieuParams(*params), t, 1e-10)
            assert res.method == mathieu.DIRECT
            assert res.rigorous and res.err_hi <= 1e-10
            oracle = s_binomial_mp(*params, t) if t <= 60 else s_mellin_mp(*params, t)
            assert _contains(res, oracle), (params, t)

    def test_mid_t_euler_maclaurin(self):
        res = mathieu.eval_auto(CLASSICAL, 200.0, 1e-10)
        assert res.method == mathieu.EULER_MACLAURIN
        assert res.rigorous

    def test_cross_validation_overlap(self):
        a, b = mathieu.cross_validate(CLASSICAL, 50.0, 1e-12)
        assert max(a.lower, b.lower) <= min(a.upper, b.upper)

    def test_cross_validation_large_t(self):
        direct, other = mathieu.cross_validate(CLASSICAL, 3000.0, 1e-12)
        assert (direct.method, other.method) == (mathieu.DIRECT, mathieu.EULER_MACLAURIN)
        assert max(direct.lower, other.lower) <= min(direct.upper, other.upper)

    def test_em_bracket_covers_beta_rounding(self):
        # the Beta function in the integral term is ~1e-15 off here; the radius
        # must cover it even where the remainder bound is far smaller
        params = mathieu.MathieuParams(2.0, 2.0, 1.5, 0.0)
        for t in (350.4, 670.7, 763.6, 1e4):
            res = mathieu.eval_em(params, t)
            assert abs(mp.mpf(res.value) - s_even_mp(t)) <= res.err_hi, t

    def test_em_bracket_near_delta_one(self):
        # a = (delta-1)/alpha = 1e-4 rounded once: rounded in steps it was off
        # by 1e-12 relative, and the integral term ~ 1/a with it (4e-8 here)
        params = mathieu.MathieuParams(1.0, 1.0, 1.0001, 0.0)
        for t in (100.0, 1000.0):
            res = mathieu.eval_em(params, t)
            assert abs(mp.mpf(res.value) - s_hurwitz_mp(1.0001, t)) <= res.err_hi, t

    def test_em_bracket_contains_oracle(self):
        for t in (50.0, 120.0):
            res = mathieu.eval_em(CLASSICAL, t)
            truth = float(s1_trigamma(t))
            assert abs(res.value - truth) <= res.err_hi


def _variation_mp(gamma, alpha, mu, n, start=-0.01):
    """(lo, hi) -> variation of g^(n) on [lo, hi], start <= lo, at 40 digits,
    the integral of |g^(n+1)| split at its zeros (found by a sign scan and
    bracketing).  On each piece g^(n+1) keeps one sign, so the piece's
    integral is the jump of g^(n) across it, taken by mpmath's numerical
    differentiation."""
    def g(x):
        return x**gamma * (1 + x**alpha) ** (-(mp.mpf(mu) + 1))

    def d(x):
        return mp.diff(g, x, n + 1)

    # for the kernels below every zero of g^(n+1) right of start lies below 11
    xs = [mp.mpf(start) + 12 * (mp.mpf(i) / 300) ** 2 for i in range(301)]
    vals = [d(x) for x in xs]
    zeros = [mp.findroot(d, (x0, x1), solver="anderson")
             for x0, x1, v0, v1 in zip(xs, xs[1:], vals, vals[1:]) if v0 * v1 < 0]

    def value(x):
        return mp.mpf(0) if x == math.inf else mp.diff(g, x, n)

    def variation(lo, hi):
        knots = [mp.mpf(lo)] + [z for z in zeros if lo < z < hi] + [hi]
        values = [value(x) for x in knots]
        return sum(abs(y - x) for x, y in zip(values, values[1:]))

    return variation


class TestExactVariation:
    """In the integer regime the variation of g^(n) is exact, not a quadrature."""

    #: a = eps u for u in {0.5, -0.3} and t in {50, 3000}, and a = 0
    STARTS = (0.0, 0.5 / 50, 0.5 / 3000, -0.3 / 50, -0.3 / 3000)

    @pytest.mark.parametrize("kernel", [(1, 2, 1.0), (1, 2, 2.0), (2, 2, 1.5), (0, 2, 1.0)])
    def test_matches_mpmath_reference(self, kernel):
        f = mathieu.MathieuSmoothFunction(mathieu.MathieuParams(*kernel, 0.0))

        def no_deriv(k, x):
            raise AssertionError("the exact variation evaluates no jets")

        f.deriv = no_deriv
        for n in (2, 8):
            reference = _variation_mp(*kernel, n)
            for a in self.STARTS:
                tail = f.variation(n, a, math.inf)
                ref = reference(a, math.inf)
                assert ref <= tail <= ref * (1 + mp.mpf(1e-12)), (kernel, n, a)
                if a != 0.0:
                    # the short edge piece [0, a] is a difference of nearby values,
                    # whose rounding is small against the tail's scale, not its own
                    lo, hi = min(a, 0.0), max(a, 0.0)
                    edge = f.variation(n, lo, hi)
                    ref = reference(lo, hi)
                    assert ref <= edge <= ref + 1e-12 * tail, (kernel, n, a)

    def test_non_integer_regime_has_no_kernel(self):
        # there no exact pieces exist, and no quadrature stands in for them
        for params in ((1.0, 1.5, 1.0, 0.0), (2.0, 2.5, 1.0, 0.0)):
            with pytest.raises(RegimeError):
                mathieu.MathieuSmoothFunction(mathieu.MathieuParams(*params))


@st.composite
def _integer_wide_case(draw):
    """(params, t) in Z+ x N: gamma in {0..4}, alpha in {1, 2, 3}, mu to 6
    decimals with delta in [1.05, 3], u in (-0.9, 2) to 6 decimals, and t
    log-uniform in [50, 400] or [1e3, 1e15], where an oracle applies."""
    gamma, alpha = draw(st.integers(0, 4)), draw(st.integers(1, 3))
    mu = round((draw(st.floats(1.05, 3.0)) + gamma) / alpha - 1.0, 6)
    u = round(draw(st.floats(-0.899999, 1.999999)), 6)
    e = draw(st.floats(math.log10(50.0), math.log10(400.0)) | st.floats(3.0, 15.0))
    return (float(gamma), float(alpha), mu, u), 10.0**e


class TestHeadZero:
    """`eval_em`, the closed tail with no head, on the unshifted kernel of
    Z+ x N in the y-form, with the radius of every other head."""

    #: the x-form's head 0 missed the oracle here by 1.02 to 2.59 radii
    MISSED = [((0.0, 1.0, 1.3, 0.0), t) for t in (1e6, 1e8, 1e15)] \
        + [((0.0, 1.0, 1.05, 0.0), t) for t in (1e8, 1e12)] \
        + [((0.0, 3.0, 0.7, 0.5), t) for t in (1e12, 1e15)]

    @pytest.mark.parametrize("params, t", MISSED)
    def test_former_misses_contain_the_oracle(self, params, t):
        p = mathieu.MathieuParams(*params)
        truth = s_mellin_mp(*params, t)
        for res in (mathieu.eval_em(p, t), mathieu.eval_auto(p, t, 1e-10)):
            assert (res.method, res.rigorous) == (mathieu.EULER_MACLAURIN, True)
            assert _contains(res, truth), (params, t, res)

    @settings(max_examples=25, deadline=None)
    @given(case=_integer_wide_case())
    def test_soundness_property(self, case):
        params, t = case
        res = mathieu.eval_em(mathieu.MathieuParams(*params), t)
        oracle = s_binomial_mp(*params, t) if t <= 400 else s_mellin_mp(*params, t)
        assert _contains(res, oracle), (params, t, res)

    @pytest.mark.parametrize("kernel", [(1, 2, 1.0), (0, 1, 1.3), (0, 3, 0.7), (2, 2, 1.5),
                                        (4, 3, 0.123457)])
    def test_derivatives_at_zero_are_the_series_coefficients(self, kernel):
        # g = sum_j (-1)^j binom(mu+j, j) x^(gamma + alpha j), so g^(n)(0) is n!
        # times the coefficient where n = gamma + alpha j, else 0, rounded once
        gamma, alpha, mu = kernel
        f = mathieu.MathieuSmoothFunction(mathieu.MathieuParams(gamma, alpha, mu, 0.0))
        for n, (value, err) in enumerate(f.derivs_with_error(tuple(range(12)))):
            j, rest = divmod(n - gamma, alpha)
            exact = Fraction(0)
            if n >= gamma and not rest:
                exact = Fraction(math.factorial(n) * (-1) ** j)
                for i in range(1, j + 1):
                    exact *= (Fraction(mu) + i) / i
            assert value == float(exact), (kernel, n)
            assert abs(Fraction(value) - exact) <= err, (kernel, n)

    def test_whole_integral_within_its_bound(self):
        # B(a, b)/alpha from 0, against 40 digits at the exact (a, b) of the
        # float parameters: b = 1/3 and a = (delta - 1)/alpha are rounded
        for params in ((0.0, 3.0, 0.7), (1.0, 3.0, 0.123457), (2.0, 3.0, 1.0),
                       (1.0, 1.0, 1.0001), (0.0, 1.0, 1.3), (4.0, 2.0, 1.75)):
            p = mathieu.MathieuParams(*params, 0.0)
            b = (Fraction(p.gamma) + 1) / Fraction(p.alpha)
            a = Fraction(p.mu) + 1 - b
            exact = mp.beta(mp.mpf(a.numerator) / a.denominator,
                            mp.mpf(b.numerator) / b.denominator) / p.alpha
            value, err = mathieu.MathieuSmoothFunction(p).integral_with_error()
            assert value == mathieu.tail_integral(p, 0.0), params
            assert abs(mp.mpf(value) - exact) <= err, params

    @pytest.mark.parametrize("kernel", [(0, 3, 0.7), (1, 1, 1.5), (2, 3, 0.5)])
    def test_left_of_zero_against_mpmath(self, kernel):
        # where alpha is odd, y = x^alpha < 0 left of 0: the values there lie
        # within their bounds, and the edge [a, 0] and the tail from a are
        # bounded as in TestExactVariation
        g = _g_mp(kernel)
        f = mathieu.MathieuSmoothFunction(mathieu.MathieuParams(*kernel, 0.0))
        for n in (0, 3, 8):
            for x in (-0.45, -0.1, -1e-3):
                value, err = f._kernel.model(n).value(x)
                assert abs(mp.mpf(value) - mp.diff(g, mp.mpf(x), n)) <= err, (kernel, n, x)
        with pytest.raises(ParameterError):
            f.deriv(0, -1.0)
        shifted = mathieu.MathieuSmoothFunction(mathieu.MathieuParams(0.5, 1.5, 1.0), 0.25)
        with pytest.raises(ParameterError):  # g' is unbounded at 0 here
            shifted.deriv(1, -0.25)
        reference = _variation_mp(*kernel, 8)
        for a in (-0.3 / 50, -0.3 / 3000):
            tail, ref = f.variation(8, a, math.inf), reference(a, math.inf)
            assert ref <= tail <= ref * (1 + mp.mpf(1e-12)), (kernel, a)
            edge, ref = f.variation(8, a, 0.0), reference(a, 0.0)
            assert ref <= edge <= ref + 1e-12 * tail, (kernel, a)

    @pytest.mark.parametrize("kernel", [(1, 2, 1.0), (0, 2, 1.0)])
    def test_turning_points_left_of_zero(self, kernel):
        # g^(8) turns at -0.46 and -0.14, resp. -0.30: the pieces from -0.49
        f = mathieu.MathieuSmoothFunction(mathieu.MathieuParams(*kernel, 0.0))
        assert f._kernel.model(8).left_turns
        reference = _variation_mp(*kernel, 8, start=-0.49)
        for lo, hi in ((-0.49, 0.0), (-0.49, math.inf), (-0.2, -0.1)):
            ref = reference(lo, hi)
            assert ref <= f.variation(8, lo, hi) <= ref * (1 + mp.mpf(1e-12)), (kernel, lo, hi)

    def test_engine_paths_take_no_jets(self, monkeypatch):
        # g^(k)(0) comes from the y-form, not from the series coefficients
        def fail(*args):
            raise AssertionError("a jet was taken on an engine path")

        monkeypatch.setattr(mathieu, "g_jet", fail)
        monkeypatch.setattr(mathieu, "g_smoothness", fail)
        monkeypatch.setattr(jets, "derivatives", fail)
        for t in (60.0, 1e3):
            assert mathieu.eval_em(CLASSICAL, t).method == mathieu.EULER_MACLAURIN
            assert mathieu.eval_auto(CLASSICAL, t, 1e-10).method == mathieu.EULER_MACLAURIN
        direct, other = mathieu.cross_validate(CLASSICAL, 60.0, 1e-12)
        assert (direct.method, other.method) == (mathieu.DIRECT, mathieu.EULER_MACLAURIN)
        assert mathieu.eval_em(mathieu.MathieuParams(1.0, 1.0, 1.5, 0.0), 1e300).value > 0.0


#: the five kernels outside Z+ x N of the y-form model, and the Poisson kernel
Y_FORM_KERNELS = [(1.0, 1.5, 1.0), (0.5, 1.5, 1.0), (2.0, 2.5, 1.0), (0.0, 2.5, 0.3),
                  (1.0, 3.5, 0.5), (0.0, 2.0, 0.0)]


def _g_mp(kernel):
    g, a, m = (mp.mpf(v) for v in kernel)
    return lambda x: x**g * (1 + x**a) ** -(m + 1)


@st.composite
def _non_integer_wide_case(draw):
    """(params, t) outside Z+ x N with delta in [1.1, 3], t in (0, 60] or [1e3, 1e9].

    The parameters are drawn to 6 decimals, as a user types them: a float
    such as gamma = 5.7e-271 makes P_9's exact coefficients some 9,000 bits
    long, and their first root isolation alone takes seconds (the result is
    sound, only slow)."""
    def param(lo, hi):
        return st.floats(lo, hi).map(lambda v: round(v, 6))

    gamma, alpha = draw(param(0.0, 3.0)), draw(param(0.5, 3.0))
    delta, u = draw(param(1.1, 3.0)), draw(param(-0.9, 2.0))
    params = (gamma, alpha, (delta + gamma) / alpha - 1.0, u)
    assume(not mathieu.MathieuParams(*params).integer_regime)
    t = draw(st.floats(0.0, 60.0, exclude_min=True) | st.floats(3.0, 9.0).map(lambda e: 10.0**e))
    return params, t


class TestYForm:
    """The float y-form derivatives g^(n) = x^(gamma-n) (1+y)^(-m-n) P_n(y)
    behind every closed tail at t > 0."""

    @pytest.mark.parametrize("kernel", Y_FORM_KERNELS)
    def test_values_and_bounds_against_mpmath(self, kernel):
        g = _g_mp(kernel)
        rng = np.random.default_rng(7)
        # log-uniform x in (1e-4, 1e4), both sides of x = 1 where the form switches
        xs = 10.0 ** rng.uniform(-4.0, 4.0, 12)
        ratios = []
        for n in range(mathieu.TAIL_ORDER + 1):
            d = mathieu._kernel(*kernel).model(n)
            for x in xs:
                value, err = d.value(float(x))
                ref = mp.diff(g, mp.mpf(x), n)
                assert abs(mp.mpf(value) - ref) <= err, (kernel, n, x)
                ratios.append(err / abs(float(ref)))
        # the bound is a few hundred ulps where no cancellation intervenes
        assert np.median(ratios) < 1e-13

    def test_huge_denominator_kernel_contains_the_oracle(self):
        # float parameters whose exact denominators are near 2^950: the turning
        # points of g^(8) come from P_9 coefficients of about 8,600 bits
        params = (5.722415312884681e-271, 2.7772510382832136, -0.6013965515991366,
                  -0.24454740959964283)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # mu <= 0
            p = mathieu.MathieuParams(*params)
        res = mathieu.eval_S(p, 7.64e7, 1e-10)
        assert res.rigorous and res.err_hi <= 1e-10
        assert _contains(res, s_mellin_mp(*params, 7.64e7))

    @pytest.mark.parametrize("kernel", Y_FORM_KERNELS)
    def test_turning_intervals_against_mpmath_sign(self, kernel):
        # g^(n+1) changes sign across each turning interval of g^(n) and keeps
        # it between them, on a grid of (1e-3, 1e3)
        g = _g_mp(kernel)
        for n in (2, mathieu.TAIL_ORDER):
            turns = mathieu._kernel(*kernel).model(n).turns
            assert all(a[1] < b[0] for a, b in zip(turns, turns[1:]))
            for l, h, *_ in turns:
                if l > 1e-6:
                    assert mp.sign(mp.diff(g, mp.mpf(l), n + 1)) \
                        == -mp.sign(mp.diff(g, mp.mpf(h), n + 1)), (kernel, n, l)
            grid = [10.0 ** ((k + 0.37) / 10) for k in range(-30, 30)]
            signs = [mp.sign(mp.diff(g, mp.mpf(x), n + 1)) for x in grid]
            for x0, x1, s0, s1 in zip(grid, grid[1:], signs, signs[1:]):
                crossed = sum(x0 < l and h < x1 for l, h, *_ in turns)
                assert (s0 == s1) == (crossed % 2 == 0), (kernel, n, x0)

    @settings(max_examples=6, deadline=None)
    @given(case=_non_integer_wide_case())
    def test_plain_soundness_property(self, case):
        params, t = case
        res = mathieu.eval_S(mathieu.MathieuParams(*params), t, 1e-10)
        assert res.err_hi <= 1e-10
        oracle = s_binomial_mp(*params, t) if t <= 60 else s_mellin_mp(*params, t)
        assert _contains(res, oracle), (params, t, res)

    @settings(max_examples=6, deadline=None)
    @given(case=_non_integer_wide_case())
    def test_alternating_soundness_property(self, case):
        params, t = case
        res = mathieu.eval_S_alt(mathieu.MathieuParams(*params), t, 1e-10)
        assert res.err_hi <= 1e-10
        oracle = s_binomial_mp(*params, t, alternating=True) if t <= 60 \
            else s_mellin_mp(*params, t, alternating=True)
        assert _contains(res, oracle), (params, t, res)

    def test_large_t_closes_in_64_terms(self):
        # the first bracket needed 629,962 / 18,898,817 / 85,028,302 terms
        for params, t in (((1.0, 1.5, 1.0, 0.0), 1e6), ((1.0, 1.5, 1.0, 0.0), 3e7),
                          ((2.0, 2.5, 1.0, 0.0), 1e8)):
            for alternating in (False, True):
                fn = mathieu.eval_S_alt if alternating else mathieu.eval_S
                res = fn(mathieu.MathieuParams(*params), t, 1e-10)
                assert (res.terms_used, res.order) == (64, mathieu.TAIL_ORDER)
                assert _contains(res, s_mellin_mp(*params, t, alternating=alternating))


def _contains(res, truth) -> bool:
    return abs(mp.mpf(res.value) - truth) <= res.err_hi


@st.composite
def _plain_case(draw):
    """(params, t, tol, oracle) for the plain series, from a family with a closed form."""
    family = draw(st.sampled_from(["hurwitz", "poisson", "zeta"]))
    if family == "hurwitz":  # (1, 1, mu, 0): delta = mu, the closed tail at every t
        mu = draw(st.floats(1.05, 3.0))
        t = draw(st.sampled_from([0.0, 0.3, 1.0, 7.0, 49.0]) | st.floats(0.01, 49.0))
        return (1.0, 1.0, mu, 0.0), t, 1e-12, s_hurwitz_mp(mu, t)
    if family == "poisson":
        t = draw(st.floats(0.05, 49.0))
        return (0.0, 2.0, 0.0, 0.0), t, 1e-12, poisson_plain_mp(t)
    # t = 0, any kernel: S(0) = 2 zeta(delta, 1+u)
    gamma, alpha = draw(st.floats(0.0, 3.0)), draw(st.floats(0.5, 3.0))
    delta, u = draw(st.floats(1.05, 3.0)), draw(st.floats(-0.9, 2.0))
    params = (gamma, alpha, (delta + gamma) / alpha - 1.0, u)
    return params, 0.0, 1e-10, 2 * mp.zeta(exact_delta_mp(*params[:3]), 1 + mp.mpf(u))


@st.composite
def _alternating_case(draw):
    """(params, t, tol, oracle) for the alternating series, from a family with a closed form."""
    family = draw(st.sampled_from(["hurwitz", "poisson", "trigamma", "eta"]))
    if family == "hurwitz":  # delta = mu down to 0.05
        mu = draw(st.floats(0.05, 3.0))
        t = draw(st.sampled_from([0.0, 1.0, 7.0]) | st.floats(0.01, 20.0))
        return (1.0, 1.0, mu, 0.0), t, 1e-10, s_hurwitz_alt_mp(mu, t)
    if family == "poisson":
        t = draw(st.floats(0.05, 49.0))
        return (0.0, 2.0, 0.0, 0.0), t, 1e-10, poisson_alt_mp(t)
    if family == "trigamma":  # tol 1e-13, near the float64 floor of the sum
        u, t = draw(st.floats(-0.4, 1.5)), draw(st.floats(0.5, 20.0))
        return (1.0, 2.0, 1.0, u), t, 1e-13, s1_trigamma(t, u) - s1_trigamma(t / 2, u / 2) / 4
    gamma, alpha = draw(st.floats(0.0, 3.0)), draw(st.floats(0.5, 3.0))
    delta, u = draw(st.floats(0.05, 3.0)), draw(st.floats(-0.9, 2.0))
    params = (gamma, alpha, (delta + gamma) / alpha - 1.0, u)
    return params, 0.0, 1e-10, 2 * eta_hurwitz_mp(exact_delta_mp(*params[:3]), 1 + mp.mpf(u))


@st.composite
def _large_t_case(draw):
    """(params, t) for the plain series of a gamma = 0 kernel with t in
    [1e10, 1e40]; mu comes from a drawn delta, so delta is inexact."""
    alpha, delta = draw(st.floats(0.5, 3.0)), draw(st.floats(1.05, 6.0))
    params = (0.0, alpha, delta / alpha - 1.0, draw(st.floats(-0.9, 2.0)))
    return params, 10.0 ** draw(st.floats(10.0, 40.0))


@st.composite
def _alternating_large_t_case(draw):
    """(params, t) for the alternating series of a Z+ x N kernel with t in
    [1e2, 1e40], where the terms and the sum, about t^(-alpha (mu+1)), are
    normal floats."""
    gamma, alpha, mu = draw(st.integers(0, 3)), draw(st.integers(1, 3)), draw(st.floats(0.1, 3.0))
    exponent = draw(st.floats(2.0, 40.0))
    assume(alpha * (mu + 1.0) - gamma >= 0.2 and alpha * (mu + 1.0) * exponent <= 280.0)
    return (float(gamma), float(alpha), mu, draw(st.floats(-0.9, 2.0))), 10.0**exponent


class TestClosedTail:
    """Slow tails closed by Euler-Maclaurin (Boole) on the shifted kernel."""

    @settings(max_examples=20, deadline=None)
    @given(case=_large_t_case())
    @example(case=((0.0, 1.0, 1.3, 0.0), 1e15))
    @example(case=((0.0, 3.0, 0.7, 0.5), 1e15))
    @example(case=((0.0, 2.5, 0.3, 0.0), 1e40))
    def test_large_t_soundness_property(self, case):
        # where the tail is most of the sum, the first-order bracket
        # [F(n+1), F(n)], which counted neither the rounding of F nor that of
        # its scale, missed these examples by 9.6, 12.4 and 20 radii
        params, t = case
        truth = s_mellin_mp(*params, t)
        for evaluate in (mathieu.eval_S, mathieu.eval_auto):
            res = evaluate(mathieu.MathieuParams(*params), t, 1e-10)
            assert res.err_hi <= 1e-10
            assert _contains(res, truth), (params, t, evaluate.__name__, res)

    @settings(max_examples=20, deadline=None)
    @given(case=_alternating_large_t_case())
    def test_alternating_large_t_soundness_property(self, case):
        # the range the [0, f(n+1)] ladder served in Z+ x N, now closed tails
        params, t = case
        res = mathieu.eval_S_alt(mathieu.MathieuParams(*params), t, 1e-10)
        assert res.err_hi <= 1e-10
        assert _contains(res, s_mellin_mp(*params, t, alternating=True)), (params, t, res)

    @pytest.mark.parametrize("params, t, truth", [
        ((0.0, 2.0, 0.0, 0.0), 1e40, poisson_alt_mp(1e40)),
        ((0.0, 1.0, 1.5, 0.2), 1e40, s_mellin_mp(0.0, 1.0, 1.5, 0.2, 1e40, alternating=True)),
    ])
    def test_alternating_past_2_125_has_a_relative_radius(self, params, t, truth):
        # the one-term bracket [0, f(65)] met tol with the whole value as its
        # radius (1.0e-80 +- 1.0e-80) where the closed tail exists
        res = mathieu.eval_S_alt(mathieu.MathieuParams(*params), t, 1e-10)
        assert (res.terms_used, res.order) == (64, mathieu.TAIL_ORDER)
        assert 0 < res.err_hi <= 1e-12 * res.value
        assert _contains(res, truth), (params, res)

    @pytest.mark.parametrize("params, t, value, radius", [
        # f(65)'s denominator leaves the float range: the next term is below
        # its numerator 2 times 2^-1024, which stands in (it read 0 before)
        ((0.0, 2.0, 1.0, 0.0), 1e100, "0x0.4000000000004p-1022", "0x1.56e1fc4f8f359p-997"),
        ((0.0, 0.5, 3.0, 0.0), 1e60, "0x1.4a8729fc3ddd0p-399", "0x1.4a8729fc3e445p-399"),
        ((0.0, 0.5, 3.0, 0.0), 1e100, "0x1.87e92154ef7c9p-665", "0x1.87e92154eff71p-665"),
        ((0.0, 0.25, 7.0, 0.5), 1e60, "0x1.4a8729fc3ddacp-399", "0x1.4a8729fc3e7afp-399"),
        ((0.0, 0.25, 7.0, 0.5), 1e100, "0x1.87e92154ef7d9p-665", "0x1.87e92154f0419p-665"),
    ])
    def test_alternating_one_term_stand_in(self, params, t, value, radius):
        # the shifted kernel leaves the float range and the t = 0 tail's
        # drift dwarfs the sum: past the monotone index the next term alone
        # brackets the rest, as the [0, f(n+1)] ladder did, bit for bit
        res = mathieu.eval_S_alt(mathieu.MathieuParams(*params), t, 1e-10)
        assert (res.value.hex(), res.err_lo.hex(), res.err_hi.hex()) == (value, radius, radius)
        assert (res.terms_used, res.order) == (64, 0)

    @pytest.mark.parametrize("params, t, tol", [
        # the shifted kernel leaves the float range: the t = 0 tail with its
        # drift, which t^alpha = 2.5e-19 keeps far below tol
        ((0.0, 0.5, 3.0, 0.0), 1.175494351e-38, 1e-10),
        # the drift, t^(1/4) = 3.2e-8 of the tail, misses tol past 64 terms:
        # the head doubles to 65,536 terms (16,777,216 with the bracket)
        ((0.0, 0.25, 7.0, 0.5), 1e-30, 1e-12),
    ])
    def test_tiny_t_outside_the_float_range_of_the_shifted_kernel(self, params, t, tol):
        res = mathieu.eval_S(mathieu.MathieuParams(*params), t, tol)
        assert res.order == mathieu.TAIL_ORDER
        assert res.err_hi <= tol
        assert _contains(res, s_binomial_mp(*params, t)), (params, t, res)

    @pytest.mark.parametrize("params, t", [
        # delta = 200: the tail past 64 terms, about 1e-362, leaves the float
        # range at t >= 1 too; the t = 0 tail with its drift stands in
        ((0.0, 1.0, 199.0, 0.0), 1.0),
        ((0.0, 2.0, 99.0, 0.0), 1.0),
        ((0.0, 1.0, 199.0, 0.0), 3.0),
    ])
    def test_tail_below_the_float_range(self, params, t):
        # 200 terms: the rest, below 2 * 201^(1-delta) / (delta - 1) ~ 1e-460,
        # is far inside every radius
        g, a, m, u = (mp.mpf(v) for v in params)
        truth = mp.fsum(2 * (k + u)**g / ((k + u)**a + mp.mpf(t)**a) ** (m + 1)
                        for k in range(1, 201))
        for evaluate in (mathieu.eval_S, mathieu.eval_auto):
            res = evaluate(mathieu.MathieuParams(*params), t, 1e-10)
            assert res.order == mathieu.TAIL_ORDER
            assert res.err_hi <= 1e-12 * res.value
            assert _contains(res, truth), (params, t, evaluate.__name__, res)

    @pytest.mark.parametrize("params, alternating", [
        ((0.0, 2.0, 0.0, 0.0), True),
        ((1.0, 2.0, 0.5, 0.3), False),
        ((2.0, 2.0, 1.0, 0.0), False),
    ])
    def test_negligible_t_power_takes_the_t_zero_tail(self, params, alternating):
        # at t^alpha = 1e-40 <= 2^-100 the shifted kernel stays in the float
        # range, but the t = 0 tail, whose drift is negligible, is narrower
        p, t = mathieu.MathieuParams(*params), 1e-20
        engine = emsum.boole_sum if alternating else emsum.em_sum
        value, radius, _ = mathieu._closed_tail(p, t, alternating, 64)
        at_zero = engine(mathieu._PowerTail(p, 64), 1.0, p.u, mathieu.TAIL_ORDER)
        assert value == at_zero.sum_estimate
        assert radius < mathieu._shifted_tail(p, t, alternating, 64)[1]

    @settings(max_examples=40, deadline=None)
    @given(case=_plain_case())
    def test_plain_soundness_property(self, case):
        params, t, tol, truth = case
        res = mathieu.eval_S(mathieu.MathieuParams(*params), t, tol)
        assert res.err_hi <= tol
        assert _contains(res, truth), (params, t, res)

    @settings(max_examples=40, deadline=None)
    @given(case=_alternating_case())
    def test_alternating_soundness_property(self, case):
        params, t, tol, truth = case
        res = mathieu.eval_S_alt(mathieu.MathieuParams(*params), t, tol)
        assert res.err_hi <= tol
        assert _contains(res, truth), (params, t, res)

    def test_closed_tail_past_every_head(self):
        # the tail alone, against the oracle minus an exact head, for heads
        # at and well past the 64-term minimum
        for alternating, params, t, truth in (
            (False, (1.0, 1.0, 1.5, 0.0), 3.0, s_hurwitz_mp(1.5, 3.0)),
            (True, (1.0, 1.0, 0.5, 0.0), 3.0, s_hurwitz_alt_mp(0.5, 3.0)),
            (False, (1.0, 1.0, 1.5, 0.0), 0.0, 2 * mp.zeta(1.5)),
            (True, (0.0, 2.0, 0.0, 0.0), 2.0, poisson_alt_mp(2.0)),
            # heads short of the monotone index t x0 - u (up to 577,350)
            *((False, (1.0, 1.0, 1.5, 0.0), t, s_hurwitz_mp(1.5, t)) for t in (1e3, 1e5, 1e6)),
            *((True, (1.0, 1.0, 1.5, 0.0), t, s_hurwitz_alt_mp(1.5, t)) for t in (1e3, 1e5, 1e6)),
            *((False, (1.0, 2.0, 1.0, 0.3), t, s1_trigamma(t, 0.3)) for t in (1e3, 1e5, 1e6)),
            *((True, (1.0, 2.0, 1.0, 0.3), t,
               s1_trigamma(t, 0.3) - s1_trigamma(t / 2, 0.15) / 4) for t in (1e3, 1e5, 1e6)),
            *((False, (0.0, 2.0, 0.0, 0.0), t, poisson_plain_mp(t)) for t in (1e3, 1e5, 1e6)),
            *((True, (0.0, 2.0, 0.0, 0.0), t, poisson_alt_mp(t)) for t in (1e3, 1e5, 1e6)),
        ):
            p = mathieu.MathieuParams(*params)
            for head in (64, 128, 256):
                head_sum = mp.fsum((-1) ** ((k - 1) * alternating) * 2 * (k + mp.mpf(p.u)) ** p.gamma
                                   / ((k + mp.mpf(p.u)) ** p.alpha + mp.mpf(t) ** p.alpha)
                                   ** (p.mu + 1)
                                   for k in range(1, head + 1))
                value, radius, order = mathieu._closed_tail(p, t, alternating, head)
                assert order == mathieu.TAIL_ORDER
                assert abs(mp.mpf(value) - (truth - head_sum)) <= radius, (params, t, head)
                assert radius < 1e-13

    @pytest.mark.parametrize("t", [0.0, 1.0, 7.0, 49.0])
    def test_slow_alternating_inputs_now_succeed(self, t):
        # delta = 0.5 exhausted the 20M-term cap before the closed tail
        res = mathieu.eval_S_alt(mathieu.MathieuParams(1.0, 1.0, 0.5, 0.0), t, 1e-10)
        assert res.err_hi <= 1e-10
        assert res.order == mathieu.TAIL_ORDER
        assert _contains(res, s_hurwitz_alt_mp(0.5, t))

    def test_tiny_t_closes_with_the_t0_tail(self):
        # (64/t)^alpha leaves the float range; t^alpha <= 2^-100 lets the t = 0
        # tail stand in, its difference bounded (here far below any ulp)
        for t in (1e-31, 1e-200):
            res = mathieu.eval_S(mathieu.MathieuParams(1.0, 1.0, 1.5, 0.0), t, 1e-12)
            assert (res.terms_used, res.order) == (64, mathieu.TAIL_ORDER)
            assert _contains(res, 2 * mp.zeta(1.5))
            res = mathieu.eval_S_alt(mathieu.MathieuParams(1.0, 2.0, 0.2, 0.0), t, 1e-12)
            assert (res.terms_used, res.order) == (64, mathieu.TAIL_ORDER)
            assert _contains(res, 2 * eta_hurwitz_mp(exact_delta_mp(1.0, 2.0, 0.2), 1))

    def test_tiny_t_bracket_stays_in_float_range(self):
        # 2 t^(1-delta) overflows (t = 1e-200) or the tail integral at (n+u)/t
        # underflows (t = 1e-100, where it once gave a bracket 4e-15 wide and
        # 5e-9 off): the t = 0 bracket stands in; the sum is 2 zeta(4) to 1e-200
        for t in (1e-200, 1e-100):
            res = mathieu.eval_S(mathieu.MathieuParams(0.0, 2.0, 1.0, 0.0), t, 1e-10)
            assert res.err_hi <= 1e-10
            assert _contains(res, mp.pi**4 / 45)

    def test_huge_t_tail_never_collapses_to_zero(self):
        # 2 t^(-delta) underflowed and each printed 0 +- 0 around a positive sum:
        # 2 t^(-1/2)/(mu (mu-1)) ~ 2.7e-150 and pi/(2 t^3) ~ 1.6e-300 are normal
        # floats, taken through the scale in two factors; ~1e-320 is not
        tf = mp.mpf(1e100)
        for params, t, truth in (((1.0, 1.0, 1.5, 0.0), 1e300, s_hurwitz_mp(1.5, 1e300)),
                                 ((0.0, 2.0, 1.0, 0.0), 1e100, mp.pi / (2 * tf**3) - 1 / tf**4)):
            res = mathieu.eval_em(mathieu.MathieuParams(*params), t)
            assert 0 < res.err_hi <= 1e-13 * res.value
            assert _contains(res, truth), (params, res)
        with pytest.raises(OverflowError):
            mathieu.eval_em(CLASSICAL, 1e160)

    def test_start_past_the_cap_raises(self, monkeypatch):
        # the monotone index 57,737 lies past the cap: all of it was summed;
        # now a start past the cap closes at once, and raises only where the
        # closed tail (radius ~3.5e-25 here) cannot meet tol
        monkeypatch.setattr(mathieu, "MAX_TERMS", 1000)
        with pytest.raises(ToleranceError, match="tail radius 3.47e-25 past 512 terms"):
            mathieu.eval_S(CLASSICAL, 1e5, 1e-30)
        res = mathieu.eval_S(CLASSICAL, 1e5)
        assert (res.terms_used, res.order) == (64, mathieu.TAIL_ORDER)
        assert _contains(res, s1_trigamma(1e5))

    @pytest.mark.parametrize("params", [CLASSICAL, mathieu.MathieuParams(1.0, 2.0, 1.0, 0.3)])
    def test_start_past_crossover_closes_at_once(self, params):
        # the monotone index is past CROSSOVER: the first bracket that met tol
        # was summed instead when its radius (2.09e-30) was below the closed
        # tail's (3.98e-30), 17,320,510 terms
        res = mathieu.eval_S(params, 3e7, 1e-10)
        assert (res.terms_used, res.order) == (64, mathieu.TAIL_ORDER)
        assert res.err_hi <= 1e-10
        assert _contains(res, s1_trigamma(3e7, params.u))

    def test_former_cap_input_closes_in_64_terms(self, monkeypatch):
        monkeypatch.setattr(mathieu, "MAX_TERMS", 1000)
        res = mathieu.eval_S(mathieu.MathieuParams(0.0, 2.0, 0.05, 0.0), 1.0, 1e-12)
        assert (res.terms_used, res.order) == (64, mathieu.TAIL_ORDER)
        assert res.err_hi <= 1e-12

    def test_roadmap_gate(self):
        # tol 1e-12 for delta near the convergence limits: a closed tail sums
        # at most 1,024 head terms; a series whose bracket meets tol below the
        # crossover keeps it.  (Far below, the float64 sum of a head past a
        # monotone index t/delta, or a value near 1/(delta-1), cannot hold
        # 1e-12: delta = 0.01 at t = 7, or delta = 1.01.)
        cases = [(True, d, t) for d in (0.01, 0.05, 0.1, 0.5, 1.0, 2.0) for t in (0.0, 1.0)]
        cases += [(True, d, 7.0) for d in (0.1, 0.5, 2.0)]
        cases += [(False, d, t) for d in (1.05, 1.1, 1.2, 1.5, 3.0) for t in (0.0, 1.0, 7.0)]
        for alternating, delta, t in cases:
            params = mathieu.MathieuParams(1.0, 1.0, delta, 0.0)
            if alternating:
                res = mathieu.eval_S_alt(params, t, 1e-12)
                truth = s_hurwitz_alt_mp(delta, t)
            else:
                res = mathieu.eval_S(params, t, 1e-12)
                truth = s_hurwitz_mp(delta, t)
            assert res.err_hi <= 1e-12, (alternating, delta, t)
            assert _contains(res, truth), (alternating, delta, t)
            if res.order:
                assert res.terms_used <= 1024, (alternating, delta, t)
            else:
                assert res.terms_used <= mathieu.CROSSOVER, (alternating, delta, t)
        # both alternating Poisson points and a gamma = 0 kernel with delta = 0.5
        assert mathieu.eval_S_alt(mathieu.MathieuParams(0.0, 2.0, 0.0, 0.0), 1.0,
                                  1e-12).terms_used == 64
        res = mathieu.eval_S_alt(mathieu.MathieuParams(0.0, 2.0, -0.75, 0.0), 3.0, 1e-12)
        assert (res.terms_used, res.order) == (64, mathieu.TAIL_ORDER)
        assert res.err_hi <= 1e-12

    #: eval_em as (params, t, value, radius) in hex: the values as before the
    #: closed tail existed; the radii since head 0 takes the y-form's explicit
    #: rounding bounds and the common `_scale_rounding` (1.29-1.39x wider),
    #: and the weights rounded once from their exact values (up to 1e-4
    #: narrower)
    EM_REFERENCE = [
        ((1.0, 2.0, 1.0, 0.0), 50.0, "0x1.a367060743b5ap-12", "0x1.ae6578197c3d8p-60"),
        ((1.0, 2.0, 1.0, 0.0), 350.4, "0x1.1149d0d4fc2e2p-17", "0x1.13982f95dceeap-65"),
        ((1.0, 2.0, 1.0, 0.0), 10000.0, "0x1.5798ee196d32cp-27", "0x1.5a7f19bc20a63p-75"),
        ((1.0, 2.0, 1.0, 0.5), 50.0, "0x1.a346d22a31cdfp-12", "0x1.ae5b71219e372p-60"),
        ((1.0, 2.0, 1.0, 0.5), 350.4, "0x1.1149636da2c17p-17", "0x1.13980e31d2238p-65"),
        ((1.0, 2.0, 1.0, 0.5), 10000.0, "0x1.5798edee3126ep-27", "0x1.5a7f19aeee96cp-75"),
        ((1.0, 2.0, 2.0, 0.0), 50.0, "0x1.578d33606dcfcp-24", "0x1.10745de8e995ap-71"),
        ((1.0, 2.0, 2.0, 0.0), 350.4, "0x1.23be84af0098dp-35", "0x1.b1294ac57a32ap-83"),
        ((1.0, 2.0, 2.0, 0.0), 10000.0, "0x1.cd2b2963be432p-55", "0x1.565acd6b4b155p-102"),
        ((2.0, 2.0, 1.5, 0.0), 50.0, "0x1.179ec9cbd821ap-12", "0x1.67530aba7b553p-60"),
        ((2.0, 2.0, 1.5, 0.0), 350.4, "0x1.6c628c312f522p-18", "0x1.c5925f729fa94p-66"),
        ((2.0, 2.0, 1.5, 0.0), 10000.0, "0x1.ca213d840baf1p-28", "0x1.1d217dc430302p-75"),
        ((0.0, 2.0, 1.0, 0.0), 50.0, "0x1.a049e97f7b24dp-17", "0x1.26a9b7960a4f7p-64"),
        ((0.0, 2.0, 1.0, 0.0), 350.4, "0x1.390f60e871907p-25", "0x1.b3be0348a4130p-73"),
        ((0.0, 2.0, 1.0, 0.0), 10000.0, "0x1.ba1c99286c354p-40", "0x1.334a62ce44abap-87"),
    ]

    def test_eval_em_is_the_unshifted_tail_bit_for_bit(self):
        for params, t, value, radius in self.EM_REFERENCE:
            res = mathieu.eval_em(mathieu.MathieuParams(*params), t)
            assert (res.value.hex(), res.err_lo.hex(), res.err_hi.hex()) == (value, radius, radius)
            assert (res.terms_used, res.order, res.method) == (0, 8, mathieu.EULER_MACLAURIN)

    def test_cold_and_warm_caches_give_the_same_result(self):
        calls = [(mathieu.eval_S, (1.0, 1.0, 1.5, 0.0), 2.5, 1e-10),
                 (mathieu.eval_S_alt, (0.0, 2.0, 0.0, 0.0), 1.0, 1e-10),
                 (mathieu.eval_S_alt, (1.0, 2.0, 0.3, -0.4), 3.0, 1e-11),
                 (mathieu.eval_em, (1.0, 2.0, 1.0, 0.5), 80.0, None),
                 (mathieu.eval_S, (1.0, 1.5, 1.0, 0.0), 1e6, 1e-10),
                 (mathieu.eval_S_alt, (0.5, 1.5, 1.0, 0.3), 3e7, 1e-10),
                 (mathieu.eval_S, (1.0, 1.5, 1.0, 0.0), 0.0, 1e-10)]
        for fn, params, t, tol in calls:
            for cache in (mathieu._kernel, mathieu.g_smoothness, emsum._weights,
                          emsum.boundary_weight, polyfun.real_root_intervals):
                cache.cache_clear()
            args = (mathieu.MathieuParams(*params), t) + ((tol,) if tol else ())
            cold, warm = fn(*args), fn(*args)
            assert cold == warm, (fn.__name__, params)
            assert cold.order == mathieu.TAIL_ORDER

    def test_threads_on_a_new_kernel_give_the_single_thread_bits(self):
        # eight threads start together on a kernel no earlier call touched,
        # whose record exists with none of its parts built, so they build
        # them at once, switching every microsecond: each sum keeps the bits
        # of one thread alone
        params = mathieu.MathieuParams(1.25, 2.5, 0.75, 0.125)
        calls = [(mathieu.eval_S, 7.0), (mathieu.eval_S_alt, 3.0),
                 (mathieu.eval_S, 0.0), (mathieu.eval_S_alt, 0.0)]
        mathieu._kernel.cache_clear()
        mathieu._kernel(*params[:3])
        start = threading.Barrier(8, timeout=60)

        def run(i):
            fn, t = calls[i % 4]
            start.wait()
            return fn(params, t, 1e-12)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(8) as pool:
                threaded = list(pool.map(run, range(8)))
        finally:
            sys.setswitchinterval(interval)
        mathieu._kernel.cache_clear()
        alone = [fn(params, t, 1e-12) for fn, t in calls]
        assert threaded == alone + alone
        assert all(res.order == mathieu.TAIL_ORDER for res in alone)
        # the numerators and factors, asked for directly past the orders
        # that the sums built under the models' own lock
        def parts(record):
            return [record.numerator(n) for n in range(16)], record.pochhammer(16)

        def together(record):
            start.wait()
            return parts(record)

        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(8) as pool:
                threaded = list(pool.map(together, [mathieu._Kernel(*params[:3])] * 8))
        finally:
            sys.setswitchinterval(interval)
        assert threaded == [parts(mathieu._Kernel(*params[:3]))] * 8

    def test_bracket_results_report_order_zero(self):
        res = mathieu.eval_S(CLASSICAL, 1.0, 1e-10)
        assert (res.order, res.terms_used) == (0, 512)


    #: terms the direct path summed before every kernel had a closed tail at
    #: t > 0, over the benchmark's direct-sweep cases: (at t = 0, at the other
    #: 40 points of its grid, at t = 1e4, 1e6 and 3e7), None where it raised
    TERMS_BEFORE = {
        ("eval_S", (1.0, 2.0, 0.5, 0.0), 1e-10): (4096, 4096, (7073, 707108, None)),
        ("eval_S", (1.0, 2.0, 0.5, 0.5), 1e-10): (4096, 4096, (7072, 707108, None)),
        ("eval_S", (1.0, 2.0, 1.0, 0.0), 1e-10): (512, 512, (5775, 577352, 17320510)),
        ("eval_S", (1.0, 2.0, 1.0, 0.5), 1e-10): (512, 512, (5775, 577351, 17320509)),
        ("eval_S", (1.0, 2.0, 2.0, 0.0), 1e-10): (64, 64, (4474, 447215, 13416409)),
        ("eval_S", (1.0, 2.0, 2.0, 0.5), 1e-10): (64, 64, (4473, 447215, 13416409)),
        ("eval_S", (0.0, 2.0, 1.0, 0.0), 1e-10): (512, 512, (64, 64, 64)),
        ("eval_S", (1.0, 1.5, 1.0, 0.0), 1e-10): (64, 2048, (12602, 629962, 18898817)),
        ("eval_S", (0.5, 1.5, 1.0, 0.0), 1e-10): (16384, 1024, (3421, 341997, 10259857)),
        ("eval_S", (0.0, 2.0, 0.0, 0.0), 1e-12): (64, 64, (64, 64, 64)),
        ("eval_S", (1.0, 1.0, 1.5, 0.0), 1e-10): (64, 64, (64, 64, None)),
        ("eval_S_alt", (0.0, 2.0, 0.0, 0.0), 1e-10): (64, 64, (64, 64, 64)),
        ("eval_S_alt", (1.0, 2.0, 1.0, 0.3), 1e-10): (4096, 4096, (5775, 577351, 17320509)),
        ("eval_S_alt", (1.0, 1.0, 0.5, 0.0), 1e-10): (64, 64, (64, 64, None)),
    }

    def test_no_input_sums_more_terms_than_before(self):
        workloads = runpy.run_path(str(Path(__file__).resolve().parents[1] / "bench"
                                       / "workloads.py"))
        sweep, direct_t = workloads["DIRECT_SWEEP"], workloads["DIRECT_T"]
        cases = {(c.fn.replace("eval_auto", "eval_S"), c.params, c.tol)
                 for c in sweep.cases + sweep.faults}
        assert cases == set(self.TERMS_BEFORE)
        grid = direct_t + (1e4, 1e6, 3e7)
        for (fn, params, tol), (at_zero, below_50, large) in self.TERMS_BEFORE.items():
            before = (at_zero,) + (below_50,) * (len(direct_t) - 1) + large
            for t, limit in zip(grid, before):
                res = getattr(mathieu, fn)(mathieu.MathieuParams(*params), t, tol)
                assert limit is None or res.terms_used <= limit, (fn, params, t)

    @pytest.mark.parametrize("t", [1e4, 1e5, 1e6])
    def test_closed_tail_head_stays_at_64(self, t):
        # the head once followed the monotone index: 6,668 / 66,668 / 666,668 terms
        res = mathieu.eval_S_alt(mathieu.MathieuParams(1.0, 1.0, 1.5, 0.0), t, 1e-10)
        assert (res.terms_used, res.order) == (64, mathieu.TAIL_ORDER)
        assert res.err_hi <= 1e-10
        assert _contains(res, s_hurwitz_alt_mp(1.5, t))


@st.composite
def _non_integer_case(draw):
    """(params, t) outside Z+ x N with delta in [1.1, 3], t in (0, 60]."""
    gamma, alpha = draw(st.floats(0.0, 3.0)), draw(st.floats(0.5, 3.0))
    delta, u = draw(st.floats(1.1, 3.0)), draw(st.floats(-0.9, 2.0))
    params = (gamma, alpha, (delta + gamma) / alpha - 1.0, u)
    assume(not mathieu.MathieuParams(*params).integer_regime)
    return params, draw(st.floats(0.0, 60.0, exclude_min=True))


class TestConvexBracket:
    """Kernels outside Z+ x N, which close with a 64-term head at every t."""

    @settings(max_examples=10, deadline=None)
    @given(case=_non_integer_case())
    def test_plain_soundness_property(self, case):
        params, t = case
        res = mathieu.eval_S(mathieu.MathieuParams(*params), t, 1e-10)
        assert res.err_hi <= 1e-10
        assert _contains(res, s_binomial_mp(*params, t)), (params, t, res)

    @settings(max_examples=10, deadline=None)
    @given(case=_non_integer_case())
    def test_alternating_soundness_property(self, case):
        params, t = case
        res = mathieu.eval_S_alt(mathieu.MathieuParams(*params), t, 1e-10)
        assert res.err_hi <= 1e-10
        assert _contains(res, s_binomial_mp(*params, t, alternating=True)), (params, t, res)

    @pytest.mark.parametrize("params, t", [((1.0, 1.5, 1.0, 0.0), 1.0),
                                           ((0.5, 1.5, 1.0, 0.0), 7.0)])
    def test_alternating_against_the_plain_series_oracle(self, params, t):
        res = mathieu.eval_S_alt(mathieu.MathieuParams(*params), t, 1e-12)
        assert res.err_hi <= 1e-12
        assert _contains(res, s_alt_nsum_mp(*params, t))

    @pytest.mark.parametrize("t", [0.0, 0.01, 1.0, 7.0, 49.9])
    def test_term_count(self, t):
        # the first-order bracket [F(n+1), F(n)] needed up to 262,144 terms,
        # and the second-order one up to 2,048
        params = (1.0, 1.5, 1.0, 0.0)
        res = mathieu.eval_S(mathieu.MathieuParams(*params), t, 1e-10)
        assert (res.terms_used, res.order) == (64, mathieu.TAIL_ORDER)
        assert res.err_hi <= 1e-10
        assert _contains(res, s_binomial_mp(*params, t))

    @pytest.mark.parametrize("params, t, first_order_terms", [
        ((0.0, 2.5, 0.3, 0.0), 1e6, 64), ((0.0, 2.5, 0.3, 0.0), 2e7, 64),
        ((1.0, 1.5, 1.0, 0.0), 1e6, 629_962), ((1.0, 1.5, 1.0, 0.0), 2e7, 12_599_212)])
    def test_large_t_head_starts_below_the_convexity_index(self, params, t, first_order_terms):
        # first_order_terms is what the first-order bracket alone sums; the
        # closed tail needs a 64-term head, whatever the monotone index
        p = mathieu.MathieuParams(*params)
        for res in (mathieu.eval_S(p, t, 1e-10), mathieu.eval_S_alt(p, t, 1e-10)):
            assert (res.terms_used, res.order) == (64, mathieu.TAIL_ORDER)
            assert res.err_hi <= 1e-10


@st.composite
def _array_terms_case(draw):
    """(params, t, ks): a kernel outside Z+ x N, t in [0, 50] and indices up to 2^18."""
    def param(lo, hi):
        return st.floats(lo, hi).map(lambda v: round(v, 6))

    gamma, alpha = draw(param(0.0, 3.0)), draw(param(0.5, 3.0))
    delta, u = draw(param(1.05, 3.0)), draw(param(-0.9, 2.0))
    params = (gamma, alpha, (delta + gamma) / alpha - 1.0, u)
    assume(not mathieu.MathieuParams(*params).integer_regime)
    t = draw(st.just(0.0) | st.floats(0.0, 50.0))
    ks = draw(st.lists(st.integers(1, 1 << 18), min_size=1, max_size=40))
    return params, t, sorted(set(ks) | set(range(1, 17)))


class TestTermRounding:
    @settings(max_examples=25, deadline=None)
    @given(case=_array_terms_case())
    def test_array_terms_within_term_rtol(self, case):
        # every summed head takes its terms from numpy's float64 power, which
        # may differ from libm's scalar pow by an ulp; _term_rtol covers both
        params, t, ks = case
        p = mathieu.MathieuParams(*params)
        got = mathieu._terms(p, t)(np.array(ks, dtype=float))
        rtol = mathieu._term_rtol(p)
        g, a, m, u, t_ = (mp.mpf(v) for v in (*params, t))
        for k, v in zip(ks, got):
            w = k + u
            ref = 2 * w**g / (w**a + t_**a) ** (m + 1)
            assert abs(mp.mpf(float(v)) - ref) <= rtol * ref, (params, t, k)


class TestTheta:
    def test_phi_value(self):
        brute = math.fsum(2 * k * math.exp(-k * k) for k in range(1, 30))
        assert mathieu.phi_u(0.0, 1.0) == pytest.approx(brute, rel=1e-14)
        assert mathieu.phi_u(0.0, 1.0) == pytest.approx(0.8097627971426214, rel=1e-13)

    def test_phi_small_x_limit(self):
        assert mathieu.phi_u(0.0, 1e-6) == pytest.approx(1.0, abs=1e-5)

    def test_log_phi_consistency(self):
        for u, x in ((0.0, 0.5), (1.0, 2.0), (0.3, 10.0)):
            assert mathieu.log_phi_u(u, x) == pytest.approx(
                math.log(mathieu.phi_u(u, x)), abs=1e-12
            )

    def test_log_phi_far_tail(self):
        # phi underflows near x ~ 1500 but the log form keeps working
        val = mathieu.log_phi_u(0.0, 2000.0)
        assert val == pytest.approx(-2000.0 + math.log(2.0 * 2000.0), rel=1e-12)

    def test_log_phi_matches_oracle(self):
        for u in (0.0, 0.5, 2.0):
            for x in (0.01, 1.0, 30.0):
                truth = -log_phi_mp(u, x)
                assert abs(mathieu.log_phi_u(u, x) - truth) <= 1e-15 * max(1.0, abs(truth)), (u, x)

    def test_log_phi_domain(self):
        for u, x in ((0.0, 0.0), (0.0, math.inf), (0.0, math.nan), (-1.0, 1.0), (math.nan, 1.0)):
            with pytest.raises(ParameterError):
                mathieu.log_phi_u(u, x)

    def test_log_ratio_bounds(self):
        for u in (0.0, 0.5, 1.0, 2.0):
            for x in (0.01, 0.5, 5.0, 40.0):
                val = -mathieu.log_phi_u(u, x) / x
                assert u * u + u < val < (1.0 + u) ** 2


@st.composite
def _zero_offset_case(draw):
    """(params, t, alternating) for u = 0, in and outside Z+ x N, either
    series, t = 0 or in [1e-2, 1e6]."""
    alternating = draw(st.booleans())
    if draw(st.booleans()):
        gamma, alpha = float(draw(st.integers(0, 3))), float(draw(st.integers(1, 3)))
    else:
        gamma, alpha = draw(st.floats(0.0, 3.0)), draw(st.floats(0.5, 3.0))
    delta = draw(st.floats(0.3 if alternating else 1.05, 4.0))
    t = draw(st.just(0.0) | st.floats(1e-2, 1e6))
    return (gamma, alpha, (delta + gamma) / alpha - 1.0, 0.0), t, alternating


def _outcome(fn):
    """fn() in hex, or the type of the error it raises."""
    try:
        value, radius, order = fn()
    except (OverflowError, ParameterError) as exc:
        return type(exc)
    return value.hex(), radius, order


def _listed_terms(params, t):
    """(lo, hi) -> `_terms(params, t)` at each k = lo..hi-1 as a list, 0 where
    the denominator leaves the float range, as in numpy's arithmetic."""
    terms = mathieu._terms(params, t)

    def head(lo, hi):
        out = []
        for k in range(lo, hi):
            w = k + params.u if params.u else float(k)
            try:
                (w**params.alpha + t**params.alpha) ** (params.mu + 1.0)
            except OverflowError:
                out.append(0.0)
            else:
                out.append(terms(k))
        return out

    return head


def _abs_formula_sum_terms(terms, n, alternating=False, head=None):
    """The head sum: a head of at most 64 terms, head(1, n + 1) (by default
    the terms on an index array, as a list), in one fsum of the signed terms
    and one of their absolute values; a longer one as it was before one
    reduce per chunk: the signs set first, then a reduce of each chunk and
    of its absolute values."""
    if n <= 64:
        listed = (head or (lambda lo, hi: terms(np.arange(lo, hi, dtype=float)).tolist()))(1, n + 1)
        signed = [-v if alternating and k % 2 else v for k, v in enumerate(listed)]
        return math.fsum(signed), math.fsum(map(abs, listed)), 0.0
    head, chunks, abs_chunks = [], [], []
    step = 1 << 18
    for lo in range(1, n + 1, step):
        arr = terms(np.arange(lo, min(n + 1, lo + step), dtype=float))
        if alternating:
            arr[1::2] *= -1.0
        if lo == 1:
            head = arr[:16].tolist()
            arr = arr[16:]
        if arr.size:
            chunks.append(float(np.add.reduce(arr)))
            abs_chunks.append(float(np.add.reduce(np.abs(arr))))
    rest_abs = math.fsum(abs_chunks)
    return math.fsum(head + chunks), math.fsum(map(abs, head)) + rest_abs, rest_abs


def _convex_terms(u, y):
    """`sharp.convex_series`' terms 2 (k+u) g((k+u)^2 + y) for g(s) = s^-2,
    whose first is negative for u < -1."""
    kernel = sharp.PowerKernel(1.0)

    def terms(k):
        w = k + u
        return 2.0 * w * kernel.g(w * w + y)

    return terms


class TestWarmSumsBitForBit:
    """The cheaper warm direct sum gives the same bits as the work it skips."""

    def test_zero_weights_at_u_zero(self):
        # B_(2j+1)(0) = E_(2j)(0) = 0 for j >= 1: orders 2, 4, 6 are skipped,
        # 8 stays for the variation
        for family in (polyfun.BERNOULLI, polyfun.EULER):
            assert emsum._weights(family, 0.0, 8).orders == (0, 1, 3, 5, 7, 8)
            assert emsum._weights(family, 0.3, 8).orders == tuple(range(9))

    @settings(max_examples=40, deadline=None)
    @given(case=_zero_offset_case())
    @example(case=((0.0, 2.0, 1.0, 0.0), 7.0, False))
    @example(case=((1.0, 2.0, 1.0, 0.0), 0.0, True))
    @example(case=((0.5, 1.5, 1.0, 0.0), 7.0, True))
    def test_skipped_orders_keep_the_estimate(self, case):
        params, t, alternating = case
        p = mathieu.MathieuParams(*params)
        skipping = _outcome(lambda: mathieu._closed_tail(p, t, alternating, 64))
        weights = emsum._weights

        def every_order(family, u, n):
            return weights(family, u, n)._replace(orders=tuple(range(n + 1)))

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(emsum, "_weights", every_order)
            forced = _outcome(lambda: mathieu._closed_tail(p, t, alternating, 64))
        if isinstance(forced, type):
            assert skipping is forced
            return
        assert (skipping[0], skipping[2]) == (forced[0], forced[2]), case
        assert skipping[1] <= forced[1], case

    @pytest.mark.parametrize("n", [1, 16, 17, 64, 512, 4096, (1 << 18) + 3])
    @pytest.mark.parametrize("alternating", [False, True])
    @pytest.mark.parametrize("terms, chunk, head", [
        *((mathieu._terms(p, t), mathieu._term_chunks(p, t), _listed_terms(p, t)) for p, t in (
            (mathieu.MathieuParams(1.0, 2.0, 1.0, 0.0), 7.0),
            (mathieu.MathieuParams(0.5, 1.5, 0.7, 0.3), 0.0),
            (mathieu.MathieuParams(0.0, 2.0, 0.5, -0.5), 49.0))),
        (_convex_terms(-1.25, 1.0), mathieu.convex_chunks(sharp.PowerKernel(1.0).g, -1.25, 1.0),
         None),
    ], ids=["hh", "non-integer", "negative-u", "convex"])
    def test_one_reduce_per_chunk(self, terms, chunk, head, n, alternating):
        got = mathieu._sum_terms(chunk, n, alternating)
        want = _abs_formula_sum_terms(terms, n, alternating, head)
        assert [v.hex() for v in got] == [v.hex() for v in want]

    @pytest.mark.parametrize("fn, t, value, radius, terms", [
        ("eval_S", 0.0, "0x1.924fd060e7098p+7", "0x1.c5f6ca7442867p-40", 64),
        ("eval_S", 7.0, "0x1.ae8d0092b7c94p+5", "0x1.2ddfeebc3c4e5p-35", 64),
        ("eval_S_alt", 0.0, "0x1.63b54d6a217f4p+0", "0x1.7cefc78b88ea1p-40", 64),
    ])
    def test_peak_past_the_float_range_is_not_needed(self, fn, t, value, radius, terms):
        # 2 g at the peak of this kernel needs 19.8^400, which Python's float
        # pow cannot give; no sum here asks for it, so none may fail on it
        params = mathieu.MathieuParams(20.0, 0.05, 419.2, 0.0)
        with pytest.raises(OverflowError):
            mathieu.g_total_variation(params)
        res = getattr(mathieu, fn)(params, t)
        assert (res.value.hex(), res.err_hi.hex(), res.terms_used, res.order) == \
            (value, radius, terms, mathieu.TAIL_ORDER)


class TestOneDoublingLoop:
    """Every direct sum doubles its head in one loop; each kind of sum keeps
    the bits it had with a loop of its own."""

    @pytest.mark.parametrize("case, cap, value, radius, terms, order", [
        # the Hermite-Hadamard ladder from the monotone index
        (("eval_S", (1.0, 2.0, 1.0, 0.0), 1.0, 1e-10), None,
         "0x1.96a5c7670b4a1p-1", "0x1.7d90f8d14d8e3p-37", 512, 0),
        (("eval_S", (1.0, 2.0, 0.5, 0.5), 7.0, 1e-12), None,
         "0x1.21dbdd445495bp-2", "0x1.42114804d4fb5p-43", 16384, 0),
        # a plain and an alternating closed sum
        (("eval_S", (0.0, 2.0, 1.0, 0.0), 1.0, 1e-10), None,
         "0x1.3a3378da946d7p-1", "0x1.617a4dd51e8dap-50", 64, 8),
        (("eval_S_alt", (1.0, 2.0, 1.0, 0.3), 1.0, 1e-10), None,
         "0x1.19900be56dc6ap-2", "0x1.513ef71c521d4p-50", 64, 8),
        # the one-term bracket [0, f(65)]
        (("eval_S_alt", (0.0, 0.5, 3.0, 0.0), 1e60, 1e-10), None,
         "0x1.4a8729fc3ddd0p-399", "0x1.4a8729fc3e445p-399", 64, 0),
        # under the term cap: the ladder stops at 64 terms and the closed tail
        # takes over; an alternating head doubles once
        (("eval_S", (1.0, 2.0, 1.0, 0.0), 1.0, 1e-13), 100,
         "0x1.96a5c76713323p-1", "0x1.e30059cdcf914p-50", 64, 8),
        (("eval_S_alt", (1.5, 2.0, 0.2, 0.0), 1.0, 1e-16), 1000,
         "0x1.a82dcbd54e74bp-2", "0x1.7cff0924b7044p-45", 128, 8),
        # the convex-kernel series
        (("convex_series", sharp.PowerKernel(1.0), 0.5, 1.0, 1e-12), None,
         "0x1.e884afad4c7a8p-2", "0x1.914493accca5bp-45", 2048, 0),
        (("convex_series", sharp.ExpKernel(0.25), -0.5, 4.0, 1e-12), None,
         "0x1.80ecc7bbd5aadp+0", "0x1.c971daa129386p-48", 16, 0),
    ])
    def test_sums_keep_their_bits(self, monkeypatch, case, cap, value, radius, terms, order):
        if cap is not None:
            monkeypatch.setattr(mathieu, "MAX_TERMS", cap)
        fn, *args = case
        if fn == "convex_series":
            res = sharp.convex_series(*args)
        else:
            res = getattr(mathieu, fn)(mathieu.MathieuParams(*args[0]), *args[1:])
        assert (res.value.hex(), res.err_lo.hex(), res.err_hi.hex(), res.terms_used,
                res.order, res.method) == (value, radius, radius, terms, order, mathieu.DIRECT)

    @pytest.mark.parametrize("u, x, value", [
        (0.3, 0.1, "-0x1.d010c4212635ep-5"),
        (0.0, 1e-3, "-0x1.5d96e4e8978b4p-13"),
    ])
    def test_log_phi_u_keeps_its_bits(self, u, x, value):
        assert mathieu.log_phi_u(u, x).hex() == value

    @pytest.mark.parametrize("fn, t", [("eval_S", 0.0), ("eval_S", 0.001),
                                       ("eval_S_alt", 0.0), ("eval_S_alt", 0.001)])
    def test_sum_past_the_float_range_raises(self, fn, t):
        # the first term, 2 / (0.001^100 + t^100)^1.1, is about 1e330: each
        # returned inf +- inf as a rigorous sum
        params = mathieu.MathieuParams(0.0, 100.0, 0.1, -0.999)
        with pytest.raises(OverflowError, match="float range"):
            getattr(mathieu, fn)(params, t, 1e-10)

    def test_em_regime_covers_negative_u(self):
        # at t <= 2|u| the point u/t lies outside the kernel's domain x > -1/2:
        # the engine's ParameterError once escaped eval_auto
        params = mathieu.MathieuParams(1.0, 2.0, 1.0, -0.5)
        for t in (0.0, 1e-200, 0.5, 1.0):
            with pytest.raises(RegimeError):
                mathieu.eval_em(params, t)
        assert mathieu.eval_em(params, 1.5).method == mathieu.EULER_MACLAURIN
        with pytest.raises(ToleranceError, match="direct: .*; euler-maclaurin: .*u < 0"):
            mathieu.eval_auto(params, 0.5, 1e-18)

    @pytest.mark.parametrize("params", [(1.0, 2.0, 1.0, 0.0), (0.0, 2.0, 1.0, 0.5)])
    @pytest.mark.parametrize("t", [5e-324, 1e-310])
    def test_em_regime_names_a_t_whose_inverse_overflows(self, params, t):
        # eps = 1/t is inf: the engine once raised OverflowError naming x = nan
        params = mathieu.MathieuParams(*params)
        with pytest.raises(RegimeError, match=f"t = {t!r}"):
            mathieu.eval_em(params, t)
        assert mathieu.eval_auto(params, t) == mathieu.eval_auto(params, 0.0)


#: Head lengths at the edges of the exact head, of the cached ranges
#: (CROSSOVER) and of numpy's 2^18-term chunks.
_HEAD_LENGTHS = [1, 16, 17, 64, 512, 4096, 1 << 14, (1 << 14) + 1, (1 << 18) + 3]


@st.composite
def _chunk_case(draw):
    """(params, t, other t, n, alternating): gamma = 0, non-integer and
    u != 0 kernels, t = 0 or in [1e-2, 1e6]."""
    kind = draw(st.sampled_from(["gamma-zero", "non-integer", "offset"]))
    gamma = 0.0 if kind == "gamma-zero" else draw(st.floats(0.1, 3.0))
    alpha, delta = draw(st.floats(0.5, 3.0)), draw(st.floats(0.3, 4.0))
    u = draw(st.floats(-0.9, 2.0)) if kind == "offset" else 0.0
    ts = st.just(0.0) | st.floats(1e-2, 1e6)
    return ((gamma, alpha, (delta + gamma) / alpha - 1.0, u), draw(ts), draw(ts),
            draw(st.sampled_from(_HEAD_LENGTHS)), draw(st.booleans()))


def _bits(arr):
    return np.asarray(arr, dtype=float).view(np.int64)


class TestHeadCache:
    """The head's t-independent factors are cached per kernel and index
    range; no sum's bits depend on what the cache holds."""

    @settings(max_examples=40, deadline=None)
    @given(case=_chunk_case())
    @example(case=((0.0, 3.0, 3.0, 0.0), 1e26, 0.0, 64, True))
    @example(case=((1.0, 2.0, 0.5, 0.5), 7.0, 0.0, 1 << 14, False))
    def test_chunks_are_the_terms_bit_for_bit(self, case):
        params, t, other, n, alternating = case
        p = mathieu.MathieuParams(*params)
        terms, chunk = mathieu._terms(p, t), mathieu._term_chunks(p, t)
        lo = 1 + ((n - 1) >> 18 << 18)  # the last 2^18-term chunk starts here
        with np.errstate(all="ignore"):  # the reference array path warns where numpy does
            want = _abs_formula_sum_terms(terms, n, alternating, _listed_terms(p, t))
            last = (_listed_terms(p, t)(lo, n + 1) if n <= 64
                    else terms(np.arange(lo, n + 1, dtype=float)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # and the chunk path never does
            first = mathieu._sum_terms(chunk, n, alternating)
            # another t of the same kernel, alternating, on the same entries
            mathieu._sum_terms(mathieu._term_chunks(p, other), n, True)
            second = mathieu._sum_terms(chunk, n, alternating)
            assert (_bits(chunk(lo, n + 1)) == _bits(last)).all()
        assert [v.hex() for v in first] == [v.hex() for v in second] == [v.hex() for v in want]

    def test_cached_arrays_are_read_only(self):
        # a 64-term head's factors are tuples, a longer head's read-only arrays
        params = mathieu.MathieuParams(1.0, 1.5, 1.0, 0.25)
        mathieu.eval_S_alt(params, 3.0)
        mathieu._sum_terms(mathieu._term_chunks(params, 3.0), 128, True)
        for hi, kind in ((65, tuple), (129, np.ndarray)):
            num, wa, _, _ = mathieu._HEAD_CACHE.entries[(1.0, 1.5, 0.25, 1, hi)]
            for factor in (num, wa):
                assert type(factor) is kind and len(factor) == hi - 1
                with pytest.raises((TypeError, ValueError)):
                    factor[1::2] *= -1.0

    def test_bounded_after_many_kernels(self):
        cache = mathieu._HEAD_CACHE
        n = 2048  # two arrays of n floats an entry
        fits = cache.limit // (16 * n)
        kernels = [mathieu.MathieuParams(1.0, 1.5, 1.0, j / 64.0) for j in range(3 * fits)]
        for p in kernels:
            mathieu._sum_terms(mathieu._term_chunks(p, 1.0), n)
            assert cache.size <= cache.limit
        # the newest kernels fill it, and the size counts what it holds
        assert cache.size == sum(map(cache.nbytes, cache.entries.values())) == fits * 16 * n
        assert [key[2] for key in cache.entries] == [p.u for p in kernels[-fits:]]
        # past CROSSOVER terms nothing is kept, though one array would fit
        params = mathieu.MathieuParams(0.0, 1.5, 1.0, 0.0)
        mathieu._sum_terms(mathieu._term_chunks(params, 1.0), mathieu.CROSSOVER + 1)
        assert (0.0, 1.5, 0.0, 1, mathieu.CROSSOVER + 2) not in cache.entries
        assert 8 * (mathieu.CROSSOVER + 1) <= cache.limit

    @pytest.mark.parametrize("call", [
        lambda: mathieu.eval_S(CLASSICAL, 7.0),
        lambda: mathieu.eval_S(mathieu.MathieuParams(0.5, 1.5, 1.0, 0.0), 7.0),
        lambda: mathieu.eval_S_alt(mathieu.MathieuParams(1.0, 2.0, 1.0, 0.3), 1.0),
        lambda: sharp.convex_series(sharp.PowerKernel(1.0), 0.5, 1.0),
        lambda: mathieu.log_phi_u(0.5, 0.1),
    ], ids=["hh", "closed", "alternating", "convex", "theta"])
    def test_no_reference_cycle_per_call(self, call):
        # a cycle per call leaves every sum's closures to the collector
        call()
        gc.collect()
        gc.disable()
        try:
            for _ in range(50):
                call()
            assert gc.collect() == 0
        finally:
            gc.enable()


@st.composite
def _short_head_case(draw):
    """(params, t, alternating) for a non-integer or a Z+ x N kernel with
    delta in [1.1, 5], u in [-0.5, 1.5] and t = 0 or in [1e-3, 1e3]."""
    if draw(st.booleans()):
        gamma, alpha = float(draw(st.integers(0, 3))), float(draw(st.integers(1, 3)))
    else:
        gamma, alpha = draw(st.floats(0.05, 3.0)), draw(st.floats(0.5, 3.0))
    mu = (draw(st.floats(1.1, 5.0)) + gamma) / alpha - 1.0
    assume(mu >= 0.05)
    t = draw(st.just(0.0) | st.floats(1e-3, 10.0) | st.floats(50.0, 1e3))
    return (gamma, alpha, mu, draw(st.floats(-0.5, 1.5))), t, draw(st.booleans())


class TestOneFsumHead:
    """A head of at most CLOSED_HEAD terms is one exact fsum, summed without
    numpy."""

    @pytest.mark.parametrize("params, t", [
        ((1.0, 2.0, 2.0, 0.0), 7.0), ((0.5, 1.5, 1.0, 0.0), 7.0), ((0.0, 2.0, 0.5, -0.5), 49.0),
        ((2.0, 2.0, 1.5, 0.3), 0.0), ((1.5, 0.7, 3.0, 0.25), 1e3), ((0.0, 3.0, 3.0, 0.0), 1e26),
    ])
    @pytest.mark.parametrize("n", [1, 16, 17, 64])
    @pytest.mark.parametrize("alternating", [False, True])
    def test_head_is_the_fsum_of_the_terms(self, params, t, n, alternating):
        p = mathieu.MathieuParams(*params)
        listed = _listed_terms(p, t)(1, n + 1)
        signed = [-v if alternating and k % 2 else v for k, v in enumerate(listed)]
        got = mathieu._sum_terms(mathieu._term_chunks(p, t), n, alternating)
        assert got == (math.fsum(signed), math.fsum(listed), 0.0)

    @pytest.mark.parametrize("fn, params, t", [
        ("eval_S", (0.5, 1.5, 1.0, 0.0), 7.0),
        ("eval_S", (0.0, 2.0, 1.0, 0.0), 1.0),
        ("eval_S_alt", (1.0, 2.0, 1.0, 0.3), 1.0),
        ("eval_S_alt", (0.0, 2.0, 0.0, 0.0), 1.0),
    ])
    def test_radius_has_no_pairwise_share(self, fn, params, t):
        # the term roundings, the tail's radius and two roundings of the value
        p = mathieu.MathieuParams(*params)
        alternating = fn == "eval_S_alt"
        res = getattr(mathieu, fn)(p, t)
        assert (res.terms_used, res.order) == (64, mathieu.TAIL_ORDER)
        partial, absolute, pairwise = mathieu._sum_terms(mathieu._term_chunks(p, t), 64,
                                                         alternating)
        rest = mathieu._closed_tail(p, t, alternating, 64)
        assert pairwise == 0.0 and res.value == partial + rest[0]
        assert res.err_hi == rest[1] + (mathieu._term_rtol(p) * absolute
                                        + 2.0**-53 * (abs(partial) + abs(res.value)) + 1e-300)

    @settings(max_examples=30, deadline=None)
    @given(case=_short_head_case())
    @example(case=((1.0, 2.0, 2.0, 0.0), 7.0, False))
    @example(case=((0.5, 1.5, 1.0, 0.0), 0.0, True))
    def test_brackets_contain_the_series(self, case):
        # the Mellin expansion where it converges, the binomial sum below it
        params, t, alternating = case
        res = (mathieu.eval_S_alt if alternating else mathieu.eval_S)(
            mathieu.MathieuParams(*params), t, 1e-10)
        truth = (s_mellin_mp(*params, t, alternating=alternating) if t >= 50.0
                 else s_binomial_mp(*params, t, alternating=alternating))
        assert res.err_hi <= 1e-10
        assert _contains(res, truth), (params, t, alternating, res)


def _fraction_numerators(gamma, alpha, mu, n):
    """P_0..P_n of `_Kernel.numerator` by its recursion in Fractions."""
    g, a = Fraction(gamma), Fraction(alpha)
    d = a * (Fraction(mu) + 1) - g
    polys = [(Fraction(1),)]
    for j in range(n):
        p = (Fraction(0),) + polys[j] + (Fraction(0),)
        polys.append(tuple((g - j + a * i) * p[i + 1] - (d + j + a * (j + 1 - i)) * p[i]
                           for i in range(j + 2)))
    return polys


class TestNumerators:
    @pytest.mark.parametrize("kernel", [(1.0, 1.5, 1.25), (0.5, 1.5, 1.0), (0.0, 2.5, 0.3),
                                        (2.0, 2.0, 1.5)])
    def test_integer_recursion_is_the_fraction_recursion(self, kernel):
        record = mathieu._Kernel(*kernel)
        got = [record.numerator(n) for n in range(17)]
        assert got == _fraction_numerators(*kernel, 16)
        assert {type(c) for poly in got for c in poly} == {Fraction}

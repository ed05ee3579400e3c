import math

import mpmath as mp
import pytest

from mathieuseries import mathieu, sharp
from mathieuseries.errors import ParameterError, ToleranceError

from conftest import TWO_ZETA3, s1_trigamma, s2_polygamma


class TestKernels:
    def test_kernels_live_in_mathieu(self):
        # one kernel object for every Hermite-Hadamard sum; sharp re-exports it
        assert sharp.PowerKernel is mathieu.PowerKernel
        assert sharp.ExpKernel is mathieu.ExpKernel
        assert sharp.ConvexKernel is mathieu.ConvexKernel

    def test_power_kernel_closed_forms(self):
        k = sharp.PowerKernel(1.5)
        assert k.tail(2.0) == pytest.approx(1.0 / (1.5 * 2.0**1.5), rel=1e-14)
        s = k.tail(3.7)
        assert k.tail_inverse(s) == pytest.approx(3.7, rel=1e-13)

    def test_exp_kernel_closed_forms(self):
        k = sharp.ExpKernel(0.7)
        assert k.tail(1.2) == pytest.approx(math.exp(-0.84) / 0.7, rel=1e-14)
        assert k.tail_inverse(k.tail(1.2)) == pytest.approx(1.2, rel=1e-13)

    def test_convex_series_matches_mathieu(self):
        # PowerKernel(mu) series at y = t^2 is exactly the gamma=1, alpha=2 family
        res = sharp.convex_series(sharp.PowerKernel(1.0), 0.3, 4.0, 1e-12)
        ref = mathieu.eval_S(mathieu.MathieuParams(1.0, 2.0, 1.0, 0.3), 2.0, 1e-13)
        assert res.value == pytest.approx(ref.value, abs=1e-11)

    def test_convex_series_bracket_honest(self):
        res = sharp.convex_series(sharp.PowerKernel(1.0), 0.0, 1.0, 1e-10)
        truth = float(s1_trigamma(1.0))
        assert abs(res.value - truth) <= res.err_hi


    def test_convex_series_below_minus_one(self):
        # u = -1.25: the first term, at k + u = -1/4, is negative
        u, y = -1.25, 1.0
        res = sharp.convex_series(sharp.PowerKernel(1.0), u, y, 1e-12)
        assert abs(mp.mpf(res.value) - s1_trigamma(1.0, u)) <= res.err_hi
        lam = 0.5
        res = sharp.convex_series(sharp.ExpKernel(lam), u, y, 1e-12)
        truth = mp.nsum(lambda k: 2 * (k + u) * mp.exp(-lam * ((k + u) ** 2 + y)), [1, mp.inf])
        assert abs(mp.mpf(res.value) - truth) <= res.err_hi
        with pytest.raises(ParameterError):
            sharp.convex_series(sharp.PowerKernel(1.0), -1.6, 1.0)


    def test_convex_series_raises_at_the_term_cap(self, monkeypatch):
        # mu = 1/2: the bracket narrows like n^-3, far too slowly for 1000 terms
        monkeypatch.setattr(mathieu, "MAX_TERMS", 1000)
        with pytest.raises(ToleranceError):
            sharp.convex_series(sharp.PowerKernel(0.5), 0.0, 1.0, 1e-14)

    def test_hermite_hadamard_encloses_the_tail(self):
        # exp kernel at y = 0: the tail past w = 2.5 against mpmath
        lam, w = 0.3, 2.5
        kernel = sharp.ExpKernel(lam)
        lo, hi = mathieu.hermite_hadamard(kernel, w, 0.0)
        truth = mp.nsum(lambda k: 2 * (w + k) * mp.exp(-lam * (w + k) ** 2), [1, mp.inf])
        assert lo < truth < hi


class TestPsi:
    def test_power_kernel_psi_equals_profile(self):
        # psi(u, y) with the power kernel is the f-profile in the y = t^2 coordinate
        mu, u, y = 1.0, 0.0, 1.0
        psi = sharp.psi_uy(sharp.PowerKernel(mu), u, y)
        s = mathieu.eval_S(mathieu.MathieuParams(1.0, 2.0, mu, u), 1.0, 1e-13)
        f = (mu * s.value) ** (-1.0 / mu) - y
        assert psi == pytest.approx(f, abs=1e-10)

    def test_exp_kernel_psi_constant(self):
        kernel = sharp.ExpKernel(1.0)
        vals = [sharp.psi_uy(kernel, 0.5, y) for y in (0.0, 0.7, 2.5, 6.0)]
        s0 = sharp.convex_series(kernel, 0.5, 0.0, 1e-14).value
        expected = -math.log(s0)
        for v in vals:
            assert v == pytest.approx(expected, abs=1e-10)

    def test_psi_two_sided_bounds(self):
        # instance of the two-sided bound with u = 0.5: psi in [0.75, 2.25)
        val = sharp.psi_uy(sharp.PowerKernel(1.0), 0.5, 3.0)
        assert 0.75 <= val < 2.25

    @pytest.mark.parametrize("u", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("y", [0.1, 1.0, 10.0])
    def test_psi_bounds_sweep(self, u, y):
        for kernel in (sharp.PowerKernel(0.7), sharp.PowerKernel(2.0), sharp.ExpKernel(1.3)):
            val = sharp.psi_uy(kernel, u, y)
            assert u * u + u <= val < (1.0 + u) ** 2


class TestFramework:
    def test_f_profile_at_zero(self):
        fw = sharp.SharpFramework.for_s_mu(1.0, 0.0)
        assert sharp.f_profile(fw, 0.0) == pytest.approx(1.0 / float(TWO_ZETA3), rel=1e-11)

    def test_f_infinity_closed_form(self):
        fw = sharp.SharpFramework.for_s_mu(1.0, 0.0)
        assert sharp.f_infinity(fw) == pytest.approx(1.0 / 6.0, rel=1e-15)
        fw2 = sharp.SharpFramework.for_s_mu(2.5, 0.7)
        assert sharp.f_infinity(fw2) == pytest.approx(0.7**2 + 0.7 + 1.0 / 6.0, rel=1e-14)

    def test_gamma0_framework_profile_limit(self):
        # f(t) must approach b1 A/(d1 C) = (1/2+u)/((mu+1-1/a) B(1/a, mu+1-1/a))
        fw = sharp.SharpFramework.for_gamma0(2.0, 1.0, 0.0)
        f_inf = sharp.f_infinity(fw)
        assert f_inf == pytest.approx(
            0.5 / ((1.0 + 1.0 - 0.5) * math.pi / 2.0), rel=1e-12
        )
        assert sharp.f_profile(fw, 60.0, 1e-13) == pytest.approx(f_inf, rel=5e-2)

    def test_framework_hypotheses_sampled(self):
        # positivity and the strict envelope S(t) < C / t^d1 on a sample grid
        fw = sharp.SharpFramework.for_s_mu(1.0, 0.3)
        for t in (0.05, 0.3, 1.0, 4.0, 20.0):
            res = fw.series(t, 1e-12)
            assert res.value - res.err_lo > 0
            assert res.value + res.err_hi < fw.C / t**fw.delta1

    def test_compute_mM_classical(self):
        consts = sharp.compute_mM(sharp.SharpFramework.for_s_mu(1.0, 0.0))
        assert consts.m == pytest.approx(1.0 / 6.0, abs=1e-9)
        assert consts.M == pytest.approx(1.0 / float(TWO_ZETA3), abs=1e-7)
        assert consts.t_at_m == math.inf
        assert consts.t_at_M == pytest.approx(0.0, abs=1e-6)
        assert not consts.certified
        assert 0.0 < consts.m <= consts.M < math.inf

    def test_compute_mM_reports_M_at_the_fine_tolerance(self):
        # M = f(0) = 1/(2 zeta(3)) is a grid point, whose profile value at the
        # grid's tolerance 1e-7 read 1.5e-10 high
        consts = sharp.compute_mM(sharp.SharpFramework.for_s_mu(1.0, 0.0))
        assert consts.t_at_M == 0.0
        assert abs(consts.M - 1 / TWO_ZETA3) <= 1e-12

    def test_compute_mM_chain(self):
        for mu, u in ((0.5, 0.0), (2.0, 0.0), (1.0, 1.0)):
            consts = sharp.compute_mM(sharp.SharpFramework.for_s_mu(mu, u))
            lo = u * u + u
            assert lo < consts.m <= lo + 1.0 / 6.0 + 1e-9
            assert lo + 0.25 < consts.M < (1.0 + u) ** 2

    def test_mu2_bounds(self):
        consts = sharp.compute_mM(sharp.SharpFramework.for_s_mu(2.0, 0.0))
        assert consts.m == pytest.approx(1.0 / 6.0, abs=1e-9)
        assert 0.25 < consts.M < 1.0

    @staticmethod
    def _dip_framework():
        # S(t) = 1/(t^2 + a(t)) with C = 1, d1 = b1 = 2 has the profile f = a,
        # whose least value 0.05 at t = 3 lies between grid points, and which
        # never exceeds f(inf) = 0.5
        def series(t, tol):
            a = 0.5 - 0.45 * math.exp(-((t - 3.0) ** 2))
            return mathieu.EvalResult(1.0 / (t * t + a), 0.0, 0.0, mathieu.DIRECT)

        return sharp.SharpFramework(series=series, C=1.0, delta1=2.0, A=0.5, beta1=2.0)

    def test_compute_mM_refines_an_interior_minimum(self):
        consts = sharp.compute_mM(self._dip_framework())
        assert consts.m == pytest.approx(0.05, abs=1e-9)
        assert consts.t_at_m == pytest.approx(3.0, abs=1e-3)
        assert consts.f_inf == 0.5

    def test_compute_mM_keeps_f_inf_over_rounding(self):
        # (C/S)^(b1/d1) - t^b1 cancels to about t^2 2^-53 (4.5e-13 at t = 60):
        # that noise was reported as M = 0.5000000000004547 at t = 60.4
        consts = sharp.compute_mM(self._dip_framework())
        assert (consts.M, consts.t_at_M) == (0.5, math.inf)

    def test_gamma0_extremization(self):
        # 0 < m <= min(f(0), f(inf)) <= max(f(0), f(inf)) <= M
        fw = sharp.SharpFramework.for_gamma0(2.0, 1.0, 0.0)
        consts = sharp.compute_mM(fw)
        f0 = sharp.f_profile(fw, 0.0)
        fi = sharp.f_infinity(fw)
        assert 0.0 < consts.m <= min(f0, fi) + 1e-9
        assert consts.M >= max(f0, fi) - 1e-9


class TestLimitConstants:
    def test_M_infinity_closed_form(self):
        assert sharp.M_infinity(0.3) == pytest.approx(1.69, rel=1e-15)
        assert sharp.M_infinity(0.0) == 1.0

    @pytest.mark.parametrize("u", [0.0, 0.5, 1.0, 2.0])
    def test_m_infinity_bounds(self, u):
        val = sharp.m_infinity(u)
        assert u * u + u < val <= u * u + u + 1.0 / 6.0

    def test_m_infinity_small_x_limit(self):
        val = -mathieu.log_phi_u(0.0, 1e-4) / 1e-4
        assert abs(val - 1.0 / 6.0) < 1e-3

    def test_psi_asymptotic_coefficient(self):
        # t^6 [((nu+1) S_{nu+1})^(1/(nu+1)) - (nu S_nu)^(1/nu)] -> -(60u^2+60u+11)/360
        for u in (0.0, 1.0):
            t = 100.0
            s1 = float(s1_trigamma(t, u))
            s2 = float(s2_polygamma(t, u))
            lhs = (2.0 * s2) ** 0.5 - s1
            target = -(60.0 * u * u + 60.0 * u + 11.0) / 360.0
            assert lhs * t**6 == pytest.approx(target, rel=0.05)


class TestMonotonicityTrends:
    def test_m_nonincreasing_M_nondecreasing_in_mu(self):
        ms, Ms = [], []
        for mu in (0.5, 1.0, 2.0, 4.0, 8.0):
            consts = sharp.compute_mM(sharp.SharpFramework.for_s_mu(mu, 0.0))
            ms.append(consts.m)
            Ms.append(consts.M)
        tol = 2e-7
        assert all(b <= a + tol for a, b in zip(ms, ms[1:]))
        assert all(b >= a - tol for a, b in zip(Ms, Ms[1:]))

    def test_limits_toward_infinity(self):
        # M_mu(u) increases toward M_inf(u) = (1+u)^2 with a shrinking gap
        u = 0.0
        gaps = []
        for mu in (1.0, 4.0, 16.0, 64.0):
            consts = sharp.compute_mM(sharp.SharpFramework.for_s_mu(mu, u))
            gaps.append(sharp.M_infinity(u) - consts.M)
        assert all(g > 0 for g in gaps)
        assert all(b < a for a, b in zip(gaps, gaps[1:]))

    def test_profile_eventually_decreasing(self):
        fw = sharp.SharpFramework.for_s_mu(1.5, 0.5)
        t_grid = [10.0, 20.0, 40.0, 80.0]
        vals = [sharp.f_profile(fw, t, 1e-13) for t in t_grid]
        assert all(b < a for a, b in zip(vals, vals[1:]))


class TestImpossibility:
    """A double bound with an exponent other than b1 = 2 fails somewhere: at
    these t the bracket of S lies strictly outside the candidate bound."""

    def test_low_exponent_upper_bound_fails(self):
        # beta = 1 < b1: S(t) <= C (t + 0.1)^(-d1) fails at this t
        fw = sharp.SharpFramework.for_s_mu(1.0, 0.0)
        t = 1.2301875000000002
        s = mathieu.eval_S(mathieu.MathieuParams(1.0, 2.0, 1.0, 0.0), t, 1e-12)
        assert s.lower > fw.C * (t + 0.1) ** (-fw.delta1)

    def test_high_exponent_lower_bound_fails(self):
        # beta = 3 > b1: C (t^3 + 1)^(-d1/3) <= S(t) fails at this t
        fw = sharp.SharpFramework.for_s_mu(1.0, 0.0)
        t = 4.086075469921877
        s = mathieu.eval_S(mathieu.MathieuParams(1.0, 2.0, 1.0, 0.0), t, 1e-12)
        assert s.upper < fw.C * (t**3 + 1.0) ** (-fw.delta1 / 3.0)

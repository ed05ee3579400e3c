"""Shared high-precision oracles, independent of the library's own code paths."""

import mpmath as mp
import pytest

mp.mp.dps = 40


def s1_trigamma(t: float, u: float = 0.0) -> mp.mpf:
    """sum 2(k+u)/((k+u)^2+t^2)^2 via the trigamma reflection, t > 0."""
    a = mp.mpf(1) + u
    return -mp.im(mp.psi(1, a + 1j * mp.mpf(t))) / mp.mpf(t)


def s2_polygamma(t: float, u: float = 0.0) -> mp.mpf:
    """sum 2(k+u)/((k+u)^2+t^2)^3 via tri/tetragamma, t > 0."""
    a = mp.mpf(1) + u
    w = mp.mpf(t)
    z = a + 1j * w
    return mp.re(mp.psi(2, z)) / (4 * w**2) - mp.im(mp.psi(1, z)) / (4 * w**3)


def s_mu_mp(mu: float, t: float, u: float = 0.0, terms: int = 200000) -> mp.mpf:
    """Brute-force partial sum plus integral tail bracket midpoint (40 digits)."""
    muf, tf, uf = mp.mpf(mu), mp.mpf(t), mp.mpf(u)
    total = mp.mpf(0)
    for k in range(1, terms + 1):
        w = k + uf
        total += 2 * w / (w * w + tf * tf) ** (muf + 1)
    hi = ((terms + uf) ** 2 + tf * tf) ** (-muf) / muf
    lo = ((terms + 1 + uf) ** 2 + tf * tf) ** (-muf) / muf
    return total + (hi + lo) / 2


def s_even_mp(t: float) -> mp.mpf:
    """sum 2k^2/(k^2+t^2)^(5/2), the (gamma, alpha, mu, u) = (2, 2, 3/2, 0) series.

    The summand is even in k and vanishes at k = 0, so by Poisson summation
    the sum is half its integral over the real line, 2/(3 t^2), plus Fourier
    terms of order exp(-2 pi t), which are below 1e-40 relative for t >= 20.
    """
    return mp.mpf(2) / (3 * mp.mpf(t) ** 2)


def s_hurwitz_mp(mu: float, t: float) -> mp.mpf:
    """sum 2k/(k+t)^(mu+1), the (gamma, alpha, mu, u) = (1, 1, mu, 0) series.

    Writing k = (k+t) - t splits it into Hurwitz zeta functions:
    2 [zeta(mu, 1+t) - t zeta(mu+1, 1+t)].
    """
    muf, tf = mp.mpf(mu), mp.mpf(t)
    return 2 * (mp.zeta(muf, 1 + tf) - tf * mp.zeta(muf + 1, 1 + tf))


def eta_hurwitz_mp(s, a) -> mp.mpf:
    """sum_{k>=0} (-1)^k (k+a)^(-s) = 2^(-s) [zeta(s, a/2) - zeta(s, (a+1)/2)], s > 0.

    Both sides are analytic in s > 0 apart from s = 1, where the digamma
    form takes over.
    """
    s, a = mp.mpf(s), mp.mpf(a)
    if s == 1:
        return (mp.digamma((a + 1) / 2) - mp.digamma(a / 2)) / 2
    return 2**-s * (mp.zeta(s, a / 2) - mp.zeta(s, (a + 1) / 2))


def s_hurwitz_alt_mp(mu: float, t: float) -> mp.mpf:
    """sum 2(-1)^(k-1) k/(k+t)^(mu+1), the alternating (1, 1, mu, 0) series, mu > 0:
    2 [eta(mu, 1+t) - t eta(mu+1, 1+t)] with eta = `eta_hurwitz_mp`."""
    muf, tf = mp.mpf(mu), mp.mpf(t)
    return 2 * (eta_hurwitz_mp(muf, 1 + tf) - tf * eta_hurwitz_mp(muf + 1, 1 + tf))


def exact_delta_mp(gamma: float, alpha: float, mu: float) -> mp.mpf:
    """alpha (mu+1) - gamma of the float parameters, without float rounding."""
    return mp.mpf(alpha) * (mp.mpf(mu) + 1) - mp.mpf(gamma)


def poisson_plain_mp(t: float) -> mp.mpf:
    """sum 2/(k^2+t^2) = pi coth(pi t)/t - 1/t^2, t > 0."""
    t = mp.mpf(t)
    return mp.pi * mp.coth(mp.pi * t) / t - 1 / t**2


def poisson_alt_mp(t: float) -> mp.mpf:
    """sum 2(-1)^(k-1)/(k^2+t^2) = 1/t^2 - pi csch(pi t)/t, t > 0."""
    t = mp.mpf(t)
    return 1 / t**2 - mp.pi * mp.csch(mp.pi * t) / t


def log_phi_mp(u: float, x: float) -> mp.mpf:
    """-log(x * sum 2(k+u) exp(-(k+u)^2 x)) by direct mpmath summation, x > 0."""
    uf, xf = mp.mpf(u), mp.mpf(x)
    total = mp.nsum(lambda k: 2 * (k + uf) * mp.exp(-((k + uf) ** 2) * xf), [1, mp.inf])
    return -mp.log(xf * total)


TWO_ZETA3 = 2 * mp.zeta(3)
TWO_ZETA5 = 2 * mp.zeta(5)


@pytest.fixture(autouse=True)
def _silence_experimental_mu_warning(recwarn):
    # mu <= 0 is deliberately exercised (Poisson closed forms); keep logs clean
    import warnings

    warnings.filterwarnings(
        "ignore", message="mu <= 0 is outside the vetted regime"
    )
    yield

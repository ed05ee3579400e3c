"""Shared high-precision oracles, independent of the library's own code paths."""

import math
from fractions import Fraction
from functools import lru_cache

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


def s_nsum_mp(gamma: float, alpha: float, mu: float, u: float, t: float) -> mp.mpf:
    """The plain series by mpmath's Euler-Maclaurin nsum, accepted only where a
    second evaluation, 2t + 37 terms summed at 50 digits plus an nsum tail,
    agrees to 1e-20 relative."""
    g, a, m, w, tf = (mp.mpf(x) for x in (gamma, alpha, mu, u, t))

    def f(k):
        return 2 * (k + w) ** g / ((k + w) ** a + tf**a) ** (m + 1)

    first = mp.nsum(f, [1, mp.inf], method="euler-maclaurin")
    n = 2 * int(mp.ceil(tf)) + 37
    with mp.workdps(50):
        second = mp.fsum(f(k) for k in range(1, n + 1)) + mp.nsum(
            f, [n + 1, mp.inf], method="euler-maclaurin")
    assert abs(first - second) <= mp.mpf("1e-20") * abs(first), (first, second)
    return first


def hurwitz_zeta_mp(s, a) -> mp.mpf:
    """sum_{i>=0} (a+i)^(-s), s > 1, a > 0: n terms directly, with a + n >=
    s + 60, then Euler-Maclaurin with 30 Bernoulli corrections, each about
    (s + 2j)^2 / (2 pi (a+n))^2 <= 1/(4 pi^2) times the one before.  mpmath's
    own zeta(s, a) loses digits at large s and a (about 1e-10 relative at
    s = 30, a = 213, at 40 and at 60 digits alike).
    """
    s, a = mp.mpf(s), mp.mpf(a)
    n = max(0, int(mp.ceil(s + 60 - a)))
    b = a + n
    terms = [(a + i) ** -s for i in range(n)] + [b ** (1 - s) / (s - 1), b**-s / 2]
    poch = s  # s (s+1) ... (s + 2j - 2)
    for j in range(1, 31):
        terms.append(mp.bernoulli(2 * j) / mp.factorial(2 * j) * poch * b ** (1 - s - 2 * j))
        poch *= (s + 2 * j - 1) * (s + 2 * j)
    return mp.fsum(terms)


def _binomial_sum_mp(g, a, m, w, tf, delta, n: int, alternating: bool) -> mp.mpf:
    sign = -1 if alternating else 1
    head = mp.fsum(sign ** (k - 1) * 2 * (k + w) ** g / ((k + w) ** a + tf**a) ** m
                   for k in range(1, n + 1))
    tail, coeff, j, c = mp.mpf(0), mp.mpf(1), 0, n + 1 + w
    while True:
        s = delta + a * j
        if alternating:  # (-1)^n sum_i (-1)^i (c+i)^(-s)
            z = sign**n * 2**-s * (hurwitz_zeta_mp(s, c / 2) - hurwitz_zeta_mp(s, (c + 1) / 2))
        else:
            z = hurwitz_zeta_mp(s, c)
        term = coeff * tf ** (a * j) * z
        tail += term
        if tf == 0 or (j > 2 * m + 2 and abs(term) <= mp.eps * abs(tail)):
            return head + 2 * tail
        coeff *= -(m + j) / (j + 1)
        j += 1


def s_binomial_mp(gamma: float, alpha: float, mu: float, u: float, t: float,
                  alternating: bool = False) -> mp.mpf:
    """Either series, delta > 1, as an exact head of n terms plus the
    binomial series of each term past it: with w = k + u and m = mu + 1,
    2 w^gamma (w^alpha + t^alpha)^(-m) = 2 sum_j binom(-m, j) t^(alpha j)
    w^(-delta - alpha j), so the tail past n is
    2 sum_j binom(-m, j) t^(alpha j) Z(delta + alpha j, n + 1 + u), with
    Z = `hurwitz_zeta_mp`, or its alternating form for the alternating series.
    With n >= 8t the j-th term shrinks like 8^(-alpha j) once j passes 2m.
    The value is accepted only where heads of 8t + 32 and 16t + 80 terms
    agree to 1e-25 relative.  (mpmath's `nsum` and `sumem` missed such a sum
    by 1.3e-7 at delta = 1.15.)
    """
    g, a, m, w, tf = mp.mpf(gamma), mp.mpf(alpha), mp.mpf(mu) + 1, mp.mpf(u), mp.mpf(t)
    delta = exact_delta_mp(gamma, alpha, mu)
    n = 8 * int(mp.ceil(tf)) + 32
    first = _binomial_sum_mp(g, a, m, w, tf, delta, n, alternating)
    second = _binomial_sum_mp(g, a, m, w, tf, delta, 2 * n + 16, alternating)
    scale = abs(first) + 2 * (1 + w) ** g / ((1 + w) ** a + tf**a) ** m
    assert abs(first - second) <= mp.mpf("1e-25") * scale, (first, second)
    return first


def _mellin_terms_mp(g, a, m, w, tf, alternating: bool):
    """The pole term, then the j-th residue terms of `s_mellin_mp`, j = 0, 1, ..."""
    b = (g + 1) / a
    # the pole of zeta(alpha s - gamma, 1+u) at s = b; eta has none
    yield mp.mpf(0) if alternating else 2 / a * mp.beta(b, m - b) * tf ** (g + 1 - a * m)
    j = 0
    while True:
        s = -g - a * j
        if abs(s - mp.nint(s)) < mp.eps:  # mpmath's zeta can divide by 0 a hair off an integer
            s = mp.nint(s)
        z = eta_hurwitz_mp(s, 1 + w) if alternating else mp.zeta(s, 1 + w)
        yield 2 * mp.binomial(-m, j) * z * tf ** (-a * (m + j))
        j += 1


def s_mellin_mp(gamma: float, alpha: float, mu: float, u: float, t: float,
                alternating: bool = False) -> mp.mpf:
    """Either series at large t by its Mellin-Barnes expansion: with
    m = mu + 1 and b = (gamma+1)/alpha,
    S(t) ~ (2/alpha) B(b, m-b) t^(1-delta)
           + 2 sum_j binom(-m, j) zeta(-gamma - alpha j, 1+u) t^(-alpha (m+j)),
    from the poles of Gamma(s) Gamma(m-s) zeta(alpha s - gamma, 1+u) t^(alpha s);
    the alternating series has no pole term and eta = `eta_hurwitz_mp` in
    place of zeta.  In Z+ x N it is the Bernoulli (Euler) form of `asym_S`
    (`asym_S_alt`).  The expansion is asymptotic: terms are summed until
    four in a row fall below 1e-32 of the sum (at most 120), and the value,
    4 terms later, is accepted only where it agrees with that sum to 1e-25
    relative.
    """
    g, a, m, w, tf = mp.mpf(gamma), mp.mpf(alpha), mp.mpf(mu) + 1, mp.mpf(u), mp.mpf(t)
    total, first, extra, recent = mp.mpf(0), None, 4, []
    for j, term in enumerate(_mellin_terms_mp(g, a, m, w, tf, alternating)):
        total += term
        recent = recent[-3:] + [abs(term)]  # single terms can vanish (eta(-2k, 1) = 0)
        if first is None and (j > 3 and max(recent) <= mp.mpf("1e-32") * abs(total)
                              or j >= 120):
            first = total
        elif first is not None:
            extra -= 1
            if not extra:
                break
    scale = abs(total) + 2 * (1 + w) ** g / ((1 + w) ** a + tf**a) ** m
    assert abs(first - total) <= mp.mpf("1e-25") * scale, (first, total)
    return total


def s_alt_nsum_mp(gamma: float, alpha: float, mu: float, u: float, t: float) -> mp.mpf:
    """The alternating series as S(t, u) - 2^(1-delta) S(t/2, u/2), delta > 1.

    The even terms of S(t, u) are 2^(-delta) times the terms of S(t/2, u/2),
    for every kernel, so both sums come from `s_nsum_mp`; delta is taken
    exactly from the float parameters.
    """
    delta = exact_delta_mp(gamma, alpha, mu)
    return (s_nsum_mp(gamma, alpha, mu, u, t)
            - 2 ** (1 - delta) * s_nsum_mp(gamma, alpha, mu, u / 2, t / 2))


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


@lru_cache(maxsize=None)
def _appell_constants(bernoulli: bool, n: int) -> tuple[Fraction, ...]:
    """c_0..c_n of the Appell polynomials P_j(x) = sum_i C(j, i) c_i x^(j-i):
    B_j(1) = B_j(0) for j >= 2, or E_j(1) = -E_j(0) for j >= 1."""
    c = [Fraction(1)]
    for j in range(1, n + 1):
        if bernoulli:  # sum_(i<=j) C(j+1, i) c_i = 0
            c.append(-sum(math.comb(j + 1, i) * c[i] for i in range(j)) / (j + 1))
        else:  # 2 c_j + sum_(i<j) C(j, i) c_i = 0
            c.append(-sum(math.comb(j, i) * c[i] for i in range(j)) / 2)
    return tuple(c)


def exact_weight(bernoulli: bool, u: float, k: int) -> Fraction:
    """The boundary weight (-1)^k B_(k+1)(-u) / (k+1)! or (-1)^k E_k(-u) / (2 k!)
    in rationals at the exact -u, from the difference equations
    B_j(x+1) - B_j(x) = j x^(j-1) and E_j(x+1) + E_j(x) = 2 x^j."""
    j = k + 1 if bernoulli else k
    c, x = _appell_constants(bernoulli, j), -Fraction(u)
    value = sum(math.comb(j, i) * c[i] * x ** (j - i) for i in range(j + 1))
    return (-1) ** k * value / (math.factorial(j) if bernoulli else 2 * math.factorial(k))


def exact_g_derivative(gamma: int, alpha: int, mu: float, p: int) -> Fraction:
    """g^(p)(0) of x^gamma (1 + x^alpha)^(-mu-1) in Z+ x N, exact in the
    Fraction of mu: p! times the coefficient (-1)^j binom(mu+j, j) of
    x^(gamma + alpha j) in the binomial series."""
    j, rest = divmod(p - gamma, alpha)
    if j < 0 or rest:
        return Fraction(0)
    coeff = Fraction(1)
    for i in range(1, j + 1):
        coeff *= -(Fraction(mu) + i) / i
    return math.factorial(p) * coeff


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

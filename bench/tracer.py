"""Spans around calls into the package's public functions, recorded from outside.

`Tracer.install` replaces module attributes and methods with wrappers.  Calls
inside a module resolve through its globals, so they pass through the
wrappers as well.  Each span has a name, start, end and parent; a layer's self
time is its spans' duration minus the time their child spans cover.  Every
span feeds per-name aggregates (calls, total, self); whole spans are kept only
while `keep_spans` is set, and never for the hot leaf names, whose millions of
calls per run would fill memory.
"""

from __future__ import annotations

import functools
import importlib
import time
from typing import Callable

#: Span names recorded as aggregates only.
HOT_PREFIXES = ("jets.", "emsum.deriv", "mathieu.g_jet", "polyfun.", "scipy.betainc")

_PUBLIC = {
    "mathieu": ("eval_auto", "eval_S", "eval_S_alt", "eval_em", "eval_asym", "tail_integral",
                "s_mu", "log_phi_u", "phi_u", "asym_S", "asym_S_alt", "cross_validate",
                "g_smoothness", "g_jet"),
    "emsum": ("em_sum", "boole_sum", "em_finite_identity", "boole_finite_identity",
              "em_asym_coeffs", "boole_asym_coeffs"),
    "jets": ("jet_const", "jet_var", "jet_add", "jet_sub", "jet_scale", "jet_shift", "jet_mul",
             "jet_div", "jet_exp", "jet_log", "jet_pow", "jet_ipow", "xpow_jet", "derivatives"),
    "polyfun": ("bernoulli_number", "bernoulli_coeffs", "euler_coeffs", "bernoulli_poly",
                "euler_poly", "bernoulli_spline", "euler_spline", "spline_eval", "poly_sup",
                "spline_sup", "beta_fn"),
    "sharp": ("convex_series", "psi_uy", "f_profile", "compute_mM", "m_infinity"),
    # the checks, not the kernels they evaluate at every quadrature node
    "analysis": ("hankel_transform", "hermite_hadamard_check", "fsf_bounds_check",
                 "exp_kernel_log_bounds_check", "two_zeta3", "classical_inequalities_check",
                 "poisson_closed_form_check", "ner_check", "sign_g_pu", "h_nu_b",
                 "monotonicity_check", "wilkins_style_check", "cm_probe", "derivative_69_check",
                 "hankel_identity_610_check", "hankel_identity_612_check",
                 "hankel_identity_67_check", "identity_62_check", "identity_62a_check"),
    "cli": ("main", "cmd_eval", "cmd_asym", "cmd_constants", "cmd_verify", "cmd_hankel"),
}


class Tracer:
    def __init__(self) -> None:
        self.agg: dict[str, list[float]] = {}  # name -> [calls, total_s, self_s]
        self.counters: dict[str, int] = {}
        self.spans: list[tuple[str, float, float, int]] = []  # name, start, end, parent index
        self.keep_spans = False
        self._stack: list[list] = []
        self._saved: list[tuple[object, str, object]] = []

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def span(self, name: str, fn: Callable, on_result: Callable | None = None) -> Callable:
        hot = name.startswith(HOT_PREFIXES)
        stack, agg, clock = self._stack, self.agg, time.perf_counter
        agg.setdefault(name, [0, 0.0, 0.0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = -1
            if self.keep_spans and not hot:
                idx = len(self.spans)
                self.spans.append((name, 0.0, 0.0, stack[-1][3] if stack else -1))
            # [name, start, child time, span index, child names or None]
            frame = [name, clock(), 0.0, idx, [] if on_result else None]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[1]
                a = agg[name]
                a[0] += 1
                a[1] += dur
                a[2] += dur - frame[2]
                if stack:
                    parent = stack[-1]
                    parent[2] += dur
                    if parent[4] is not None:
                        parent[4].append(name)
                if idx >= 0:
                    self.spans[idx] = (name, frame[1], end, self.spans[idx][3])
            if on_result is not None:
                on_result(result, frame[4])
            return result

        return wrapper

    def _patch(self, owner, attr: str, name: str, on_result=None) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, self.span(name, original, on_result))

    def install(self, hooks: dict[str, Callable] | None = None) -> None:
        """Wrap every traced function.

        `hooks` maps a span name to a callback that receives the call's result
        and the names of its direct child spans.
        """
        hooks = hooks or {}
        pkg = "mathieuseries"
        for mod_name, attrs in _PUBLIC.items():
            mod = importlib.import_module(f"{pkg}.{mod_name}")
            for attr in attrs:
                name = f"{mod_name}.{attr}"
                self._patch(mod, attr, name, hooks.get(name))
        emsum = importlib.import_module(f"{pkg}.emsum")
        mathieu = importlib.import_module(f"{pkg}.mathieu")
        for cls in (emsum.SmoothFunction, emsum.ExpFunction):
            self._patch(cls, "variation", "emsum.variation")
        for cls in (emsum.ExpFunction, emsum.GaussPowerFunction, mathieu.MathieuSmoothFunction):
            self._patch(cls, "deriv", "emsum.deriv")
        integrate = importlib.import_module("scipy.integrate")
        special = importlib.import_module("scipy.special")
        self._patch(integrate, "quad", "scipy.quad")
        self._patch(special, "betainc", "scipy.betainc")

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def snapshot(self) -> dict[str, list[float]]:
        out = {k: list(v) for k, v in self.agg.items()}
        out.update({k: [v, 0.0, 0.0] for k, v in self.counters.items()})
        return out


def diff(after: dict, before: dict) -> dict[str, list[float]]:
    return {k: [a - b for a, b in zip(v, before.get(k, [0, 0.0, 0.0]))] for k, v in after.items()}


def _sum(d: dict, prefix: str, i: int) -> float:
    return sum(v[i] for k, v in d.items() if k.startswith(prefix))


def layer_metrics(d: dict) -> dict[str, float]:
    """The per-layer metrics of BENCHMARK.json from one pass's aggregates."""
    def calls(name):
        return int(d.get(name, [0])[0])

    def total(name):
        return d.get(name, [0, 0.0])[1]

    m: dict[str, float] = {}
    for name in ("mathieu.eval_S", "mathieu.eval_S_alt"):
        m[f"{name}.s"] = total(name)
        m[f"{name}.terms"] = calls(f"{name}#terms")
    m["mathieu.eval_S.terms_per_s"] = (
        m["mathieu.eval_S.terms"] / m["mathieu.eval_S.s"] if m["mathieu.eval_S.s"] else 0.0)
    for name in ("mathieu.tail_integral", "scipy.betainc", "mathieu.eval_em", "emsum.em_sum",
                 "emsum.variation", "scipy.quad", "polyfun.spline_sup", "polyfun.poly_sup",
                 "mathieu.log_phi_u", "sharp.convex_series", "analysis.hankel_transform"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.s"] = total(name)
    m["mathieu.self_s"] = _sum(d, "mathieu.", 2)
    m["mathieu.eval_em.discarded"] = calls("mathieu.eval_em#discarded")
    m["emsum.deriv.calls"] = calls("emsum.deriv")
    m["jets.calls"] = int(_sum(d, "jets.", 0))
    m["jets.self_s"] = _sum(d, "jets.", 2)
    m["polyfun.self_s"] = _sum(d, "polyfun.", 2)
    for method in ("direct", "euler-maclaurin", "asymptotic"):
        m[f"mathieu.method.{method}"] = calls(f"mathieu.method#{method}")
    m["mathieu.eval_asym.calls"] = calls("mathieu.eval_asym")
    m["sharp.compute_mM.s"] = total("sharp.compute_mM")
    m["sharp.f_profile.calls"] = calls("sharp.f_profile")
    m["sharp.m_infinity.s"] = total("sharp.m_infinity")
    m["sharp.convex_series.terms"] = calls("sharp.convex_series#terms")
    m["mathieu.s_mu.s"] = total("mathieu.s_mu")
    m["emsum.boole_sum.s"] = total("emsum.boole_sum")
    m["emsum.finite_identity.s"] = total("emsum.em_finite_identity") + total(
        "emsum.boole_finite_identity")
    m["cli.self_s"] = _sum(d, "cli.", 2)
    m.update({f"{k}.s": v[1] for k, v in d.items() if k.startswith("verify.")})
    return m

"""Correctness oracles computed apart from the kit, and property checks.

Oracles (none of them calls the kit):

* model cumulative H and its inverse from the regularized incomplete
  beta function (DLMF 8.17): with theta = t * sqrt(K/(N-1)),
  H = I_{sin^2 theta}(N/2, 1/2) / 2 for theta <= pi/2 and
  1 - I_{sin^2 theta}(N/2, 1/2) / 2 beyond, density
  sin^(N-1)(theta) * scale / B with B = sqrt(pi) G(N/2) / G((N+1)/2);
* sup u = int_0^r1 (M/w)^(1/(p-1)) dr for `const` and `twolevel`
  sources, by mpmath quadrature on the closed-form model or cap density;
* the first eigenvalue at p = 2 on a cap and on the model segment from
  a finite-volume Sturm-Liouville solve with Richardson extrapolation,
  and lambda = N at the analytic anchor (K = N - 1, p = 2, v = 1/2).
  At p = 2 they check both eigenvalues of an `eigen` scenario, its
  Faber-Krahn margin, and the mass alpha of a `holder` scenario.

Properties the method must satisfy: sharpness gap ~ 0 on the model,
Faber-Krahn margin >= 0, model Hoelder ratio >= instance ratio, sweep
deficit increasing in the shift, c1 finite exactly when s > N/p.  Where
no oracle applies these repeat the kit's own gates (see README.md).

Every check returns a list of problem strings; an empty list passes.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import mpmath as mp
import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.special import betainc, betaincinv, gammaln

# tolerances, each far above the kit's own accuracy on these inputs
# and far below the perturbations the oracle tests apply
H_TOL = 1e-11          # |H(radius) - v| on the model-probe table
RADIUS_TOL = 1e-9      # |radius - H^-1(v)|, relative to the segment length
PROFILE_TOL = 1e-9     # |profile - h(H^-1(v))|, relative to max h
SUP_U_RTOL = 1e-8      # sup u against the mpmath quadrature
LAMBDA_RTOL = 1e-6     # eigenvalue against finite volumes or lambda = N
SHARPNESS_TOL = 1e-6
MARGIN_TOL = 1e-8
HOLDER_TOL = 1e-8


class Model:
    """Closed-form model segment for curvature K and dimension N."""

    def __init__(self, K: float, N: float) -> None:
        self.K, self.N = float(K), float(N)
        self.scale = math.sqrt(self.K / (self.N - 1.0))
        self.L = math.pi / self.scale
        self.B = math.exp(0.5 * math.log(math.pi) + gammaln(0.5 * self.N)
                          - gammaln(0.5 * (self.N + 1.0)))

    def H(self, t):
        theta = self.scale * np.asarray(t, dtype=float)
        half = 0.5 * betainc(0.5 * self.N, 0.5, np.sin(theta) ** 2)
        return np.where(theta <= 0.5 * math.pi, half, 1.0 - half)

    def Hinv(self, v):
        v = np.asarray(v, dtype=float)
        low = v <= 0.5
        x = betaincinv(0.5 * self.N, 0.5, 2.0 * np.where(low, v, 1.0 - v))
        phi = np.arcsin(np.sqrt(x))
        return np.where(low, phi, math.pi - phi) / self.scale

    def h(self, t):
        s = np.maximum(np.sin(self.scale * np.asarray(t, dtype=float)), 0.0)
        return s ** (self.N - 1.0) * self.scale / self.B

    # mpmath forms for the quadrature oracle
    def H_mp(self, t):
        theta = self.scale * t
        half = mp.betainc(0.5 * self.N, 0.5, 0, mp.sin(theta) ** 2,
                          regularized=True) / 2
        return half if theta <= mp.pi / 2 else 1 - half

    def h_mp(self, t):
        return mp.sin(self.scale * t) ** (self.N - 1) * self.scale / self.B


def _cap_radius(m: Model, a, v: float):
    """r1 with (H(r1 + a) - H(a)) / (1 - H(a)) = v, polished in mpmath."""
    Ha = m.H_mp(mp.mpf(a))
    target = Ha + v * (1 - Ha)
    t = mp.mpf(float(m.Hinv(float(target))))
    for _ in range(3):
        t -= (m.H_mp(t) - target) / m.h_mp(t)
    return t - a


def sup_u(K, N, p, v, a, source: str) -> float:
    """sup u of the radial p-Poisson solution by mpmath quadrature.

    source is `const c` or `twolevel h1 h2 split`; the space is the
    model (a = 0) or the cap shifted by a, renormalized to unit mass.
    """
    with mp.workdps(20):
        m = Model(K, N)
        a = mp.mpf(a)
        Ha = m.H_mp(a) if a > 0 else mp.mpf(0)
        Z = 1 - Ha
        W = lambda r: (m.H_mp(r + a) - Ha) / Z
        w = lambda r: m.h_mp(r + a) / Z
        r1 = _cap_radius(m, a, v)
        toks = source.split()
        if toks[0] == "const":
            c = mp.mpf(toks[1])
            M = lambda r: c * W(r)
            cuts = [0, r1]
        elif toks[0] == "twolevel":
            h1, h2, split = (mp.mpf(x) for x in toks[1:])
            Ws = W(split) if split < r1 else None
            M = lambda r: (h1 * W(r) if Ws is None or r <= split
                           else h1 * Ws + h2 * (W(r) - Ws))
            cuts = [0, split, r1] if split < r1 else [0, r1]
        else:
            raise ValueError(f"no sup u oracle for source {source!r}")
        e = 1 / (mp.mpf(p) - 1)
        # H(r + a) - H(a) cancels near r = 0; clamp its rounding noise
        return float(mp.quad(lambda r: max(M(r) / w(r), 0) ** e, cuts))


def _fv_lambda(m: Model, a: float, r1: float, n: int) -> float:
    """Cell-centred finite volumes for -(w z')' = lam w z on (0, r1).

    No flux at r = 0 (z'(0) = 0 on a cap, w(0) = 0 on the model) and
    z(r1) = 0 through a ghost cell; second order in the cell width.
    """
    h = r1 / n
    faces = np.linspace(0.0, r1, n + 1)
    w = lambda t: np.sin(m.scale * (t + a)) ** (m.N - 1.0)
    mass = w(0.5 * (faces[:-1] + faces[1:])) * h
    k = w(faces[1:-1]) / h                           # interior fluxes
    diag = np.zeros(n)
    diag[:-1] += k
    diag[1:] += k
    diag[-1] += 2.0 * w(r1) / h                      # z = 0 at r1
    d = 1.0 / np.sqrt(mass)
    return float(eigh_tridiagonal(diag * d * d, -k * d[:-1] * d[1:],
                                  select="i", select_range=(0, 0),
                                  eigvals_only=True)[0])


def lambda_p2(K, N, a, v) -> float:
    """First Dirichlet eigenvalue at p = 2 of the region of mass v.

    The model segment [0, H^-1(v)] for a = 0, the cap shifted by a
    otherwise; Richardson-extrapolated from 2000 and 4000 cells.
    """
    m = Model(K, N)
    r1 = float(_cap_radius(m, a, v)) if a > 0.0 else float(m.Hinv(v))
    coarse, fine = _fv_lambda(m, a, r1, 2000), _fv_lambda(m, a, r1, 4000)
    return (4.0 * fine - coarse) / 3.0


def _rel(x: float, ref: float) -> float:
    return abs(x - ref) / max(abs(ref), 1e-300)


# -- checks on one scenario's outputs ---------------------------------------

def check_model_probe(K, N, rows) -> list[str]:
    """rows: (v, radius, profile) triples of a model-probe table."""
    m = Model(K, N)
    arr = np.asarray(rows, dtype=float)
    v, radius, prof = arr[:, 0], arr[:, 1], arr[:, 2]
    out = []
    err_h = float(np.max(np.abs(m.H(radius) - v)))
    if not err_h <= H_TOL:
        out.append(f"H(radius) misses v by {err_h:.3g} > {H_TOL:g}")
    ref = m.Hinv(v)
    err_r = float(np.max(np.abs(radius - ref))) / m.L
    if not err_r <= RADIUS_TOL:
        out.append(f"radius misses H^-1(v) by {err_r:.3g} L > {RADIUS_TOL:g}")
    err_p = float(np.max(np.abs(prof - m.h(ref)))) / float(m.h(0.5 * m.L))
    if not err_p <= PROFILE_TOL:
        out.append(f"profile misses h(H^-1(v)) by {err_p:.3g} > "
                   f"{PROFILE_TOL:g}")
    return out


def check_sup_u(value: float, oracle: float) -> list[str]:
    err = _rel(value, oracle)
    if not err <= SUP_U_RTOL:
        return [f"sup u {value!r} misses the quadrature {oracle!r} "
                f"by {err:.3g} relative > {SUP_U_RTOL:g}"]
    return []


def check_lambda(value: float, oracle: float, what: str) -> list[str]:
    err = _rel(value, oracle)
    if not err <= LAMBDA_RTOL:
        return [f"{what} {value!r} misses {oracle!r} by {err:.3g} "
                f"relative > {LAMBDA_RTOL:g}"]
    return []


def check_sharpness(gap: float) -> list[str]:
    if not (math.isfinite(gap) and gap <= SHARPNESS_TOL):
        return [f"model sharpness gap {gap!r} exceeds {SHARPNESS_TOL:g}"]
    return []


def check_faber_krahn(lam_i, lam_m, margin, strict: bool,
                      oracle_margin=None) -> list[str]:
    """The margin against the two eigenvalues and, at p = 2, the oracle.

    oracle_margin is lambda_p2 of the instance minus that of the model,
    so the margin is checked without the kit's own eigenvalues.
    """
    out = []
    if abs(margin - (lam_i - lam_m)) > 1e-12 * max(1.0, abs(lam_m)):
        out.append("Faber-Krahn margin is not lambda_instance - lambda_model")
    if strict and not margin > 0.0:
        out.append(f"cap Faber-Krahn margin {margin!r} is not positive")
    if not margin >= -MARGIN_TOL * max(1.0, lam_m):
        out.append(f"Faber-Krahn margin {margin!r} is negative")
    if oracle_margin is not None:
        if not oracle_margin >= -LAMBDA_RTOL * lam_m:
            out.append(f"oracle Faber-Krahn margin {oracle_margin!r} is "
                       "negative")
        if abs(margin - oracle_margin) > LAMBDA_RTOL * lam_m:
            out.append(f"Faber-Krahn margin {margin!r} misses the oracle "
                       f"margin {oracle_margin!r}")
    return out


def check_alpha(K, N, v, alpha, lam_instance) -> list[str]:
    """alpha from alpha_from_lambda at p = 2: the model segment of mass
    alpha has the instance's eigenvalue, and alpha <= v (Faber-Krahn).
    """
    if not 0.0 < alpha <= v:
        return [f"alpha {alpha!r} is outside (0, v = {v!r}]"]
    return check_lambda(lambda_p2(K, N, 0.0, alpha), lam_instance,
                        f"model eigenvalue at alpha = {alpha!r}")


def check_holder(rows) -> list[str]:
    """rows: (t, ratio_instance, ratio_model) triples."""
    out = []
    for t, ri, rm in rows:
        if not rm >= ri - HOLDER_TOL:
            out.append(f"t = {t:g}: model ratio {rm!r} below instance "
                       f"ratio {ri!r}")
    return out


def check_sweep(rows) -> list[str]:
    """rows: (a, diameter_deficit, delta) with a increasing."""
    arr = np.asarray(rows, dtype=float)
    out = []
    if not np.all(np.diff(arr[:, 0]) > 0.0):
        out.append("sweep shifts do not increase")
    if not np.all(arr[:, 2] >= 0.0):
        out.append("sweep deficit is negative")
    if not np.all(np.diff(arr[:, 2]) > 0.0):
        out.append(f"sweep deficit {arr[:, 2].tolist()} is not increasing "
                   "in the shift")
    return out


def check_c1_regime(N, p, rows) -> list[str]:
    """rows: (s, t, c1, c2); c1 must be finite exactly when s > N/p."""
    out = []
    crit = N / p
    for s, _t, c1, _c2 in rows:
        if math.isfinite(c1) != (s > crit):
            out.append(f"c1 = {c1!r} at s = {s!r} against N/p = {crit!r}")
    return out


# -- reading one round of outputs --------------------------------------------

def _rows(path: Path) -> list[list[str]]:
    """Data rows of a CSV table, header dropped."""
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))[1:]


def _floats(path: Path) -> list[tuple]:
    return [tuple(float(c) if c else math.nan for c in r)
            for r in _rows(path)]


def oracle_values(specs) -> dict[str, dict[str, float]]:
    """Oracle numbers that depend only on the inputs, keyed by scenario."""
    out = {}
    for name, kv in specs:
        kind, f = kv["kind"], str(kv.get("f", ""))
        geo = (float(kv["K"]), float(kv["N"]))
        a = float(kv.get("a", 0.0))
        p = float(kv.get("p", "nan"))
        if kind in ("talenti", "poisson") and f.split()[0] in ("const",
                                                                "twolevel"):
            out[name] = {"sup_u": sup_u(*geo, p, float(kv["v"]), a, f)}
        elif kind == "eigen" and p == 2.0:
            out[name] = {"lambda_instance": lambda_p2(*geo, a, float(kv["v"])),
                         "lambda_model": lambda_p2(*geo, 0.0, float(kv["v"]))}
        elif kind == "holder" and p == 2.0:
            out[name] = {"lambda_instance": lambda_p2(*geo, a, float(kv["v"]))}
    return out


def check_scenario(name: str, kv: dict, out_dir: Path,
                   oracles: dict[str, dict[str, float]]) -> list[str]:
    """Every oracle and property that applies to one scenario."""
    kind = kv["kind"]
    K, N = float(kv["K"]), float(kv["N"])
    p = float(kv.get("p", "nan"))
    a = float(kv.get("a", 0.0))
    ref = oracles.get(name, {})
    table = out_dir / f"{name}.csv"
    if kind == "model-probe":
        return check_model_probe(K, N, _floats(table))
    if kind == "talenti":
        got = {k: float(v) for k, v in _rows(table)}
        out = []
        if "sup_u" in ref:
            out += check_sup_u(got["sup_u"], ref["sup_u"])
        if a == 0.0:
            out += check_sharpness(got["sharpness_gap"])
        return out
    if kind == "poisson":
        if "sup_u" not in ref:
            return []
        return check_sup_u(_floats(table)[0][1], ref["sup_u"])
    if kind == "eigen":
        lam_i, lam_m, margin = _floats(out_dir / f"{name}-spectrum.csv")[0]
        out = []
        if ref:
            out += check_lambda(lam_i, ref["lambda_instance"],
                                "instance eigenvalue")
            out += check_lambda(lam_m, ref["lambda_model"], "model eigenvalue")
        oracle_margin = (ref["lambda_instance"] - ref["lambda_model"]
                         if ref else None)
        out += check_faber_krahn(lam_i, lam_m, margin, strict=a > 0.0,
                                 oracle_margin=oracle_margin)
        if a == 0.0 and p == 2.0 and float(kv["v"]) == 0.5 \
                and K == N - 1.0:
            out += check_lambda(lam_i, N, "anchor eigenvalue")
        return out
    if kind == "holder":
        out = check_holder(_floats(table))
        if ref:
            alpha = _floats(out_dir / f"{name}-chiti.csv")[0][0]
            out += check_alpha(K, N, float(kv["v"]), alpha,
                               ref["lambda_instance"])
        return out
    if kind == "stability-sweep":
        return check_sweep(_floats(table))
    if kind == "sobolev":
        return check_c1_regime(N, p, _floats(table))
    return []

"""Seeded scenario sets for the three benchmark workloads.

Each workload is a list of scenarios, each a name plus the key = value
pairs of one INI section.  Parameters are drawn from the ranges written
next to each draw with ``random.Random(f"{workload}:{seed}")``, so a
seed always gives the same text.  The kit only ever sees the INI text
from ``render``.  The scenario names and kinds do not depend on the
seed, so every seed attempts the same operations.

This module uses the standard library only: the parent benchmark
process and the measured child processes both import it.
"""

from __future__ import annotations

import random

WORKLOADS = ("comparison", "eigen-holder", "probe-poisson")

# Fixed cases that fail one named check through a known fault; their
# inputs do not depend on the seed, so they fail in every round.
EXPECTED_FAILURES = {
    # the solve_mass_form interpolant (radial_poisson.solve_mass_form)
    "fail-model-twolevel": "route-agreement",
    "fail-cap-twolevel": "route-agreement",
    "fail-model-const-p1.5": "route-agreement",
    # weak_residual integrates the source across its jump in one piece
    "fail-cap-inc-weak": "weak-residual",
    # cli._run_holder compares a model abscissa with the cap radius
    "fail-holder-cap-p1.5": "chiti-crossing",
}


def _g(x: float) -> str:
    return f"{x:.6g}"


def _twolevel(rng: random.Random, decreasing: bool) -> str:
    high = rng.uniform(1.5, 2.5)
    low = rng.uniform(0.25, 0.75)
    split = rng.uniform(0.2, 0.45)
    h1, h2 = (high, low) if decreasing else (low, high)
    return f"twolevel {_g(h1)} {_g(h2)} {_g(split)}"


def _comparison(rng: random.Random) -> list[tuple[str, dict]]:
    out = []
    # the 12 model sharpness cases: comparison is an equality on the model
    for N in (3, 4):
        for p in ("1.5", "2", "3"):
            for tag, f in (("const", "const 1"), ("cospos", "cospos")):
                out.append((f"sharp-N{N}-p{p}-{tag}", {
                    "kind": "talenti", "K": N - 1, "N": N, "p": p,
                    "v": _g(rng.uniform(0.4, 0.6)), "f": f}))
    # shifted caps: strict inequality; one source shape per exponent
    # keeps a round near 15 s on a 2-core box
    for p, tag in (("1.5", "dec"), ("2", "inc"), ("3", "cospos")):
        f = "cospos" if tag == "cospos" else _twolevel(rng, tag == "dec")
        out.append((f"cap-p{p}-{tag}", {
            "kind": "talenti", "K": 2, "N": 3, "p": p,
            "v": _g(rng.uniform(0.3, 0.5)),
            "a": _g(rng.uniform(0.15, 0.35)), "f": f}))
    return out


def _eigen_holder(rng: random.Random) -> list[tuple[str, dict]]:
    # the shooting cost jumps with the bracket and regula falsi counts,
    # so the ranges are narrow and the sweep (half a round) is fixed:
    # with v in [0.3, 0.5], a in [0.15, 0.35] and a seeded sweep, the
    # median wall time moved by 26 % (quartile spread) across ten seeds
    out = []
    for p in ("1.5", "2", "3"):
        out.append((f"eigen-cap-p{p}", {
            "kind": "eigen", "K": 2, "N": 3, "p": p,
            "v": _g(rng.uniform(0.35, 0.45)),
            "a": _g(rng.uniform(0.2, 0.3))}))
    # one seeded holder case; at p = 1.5 the chiti-crossing gate fails
    # on some seeds, so that exponent runs as the fixed failing case
    out.append(("holder-cap-p2", {
        "kind": "holder", "K": 2, "N": 3, "p": "2",
        "v": _g(rng.uniform(0.35, 0.45)),
        "a": _g(rng.uniform(0.2, 0.3))}))
    out.append(("fail-holder-cap-p1.5", {
        "kind": "holder", "K": 2, "N": 3, "p": "1.5", "v": "0.4",
        "a": "0.3"}))
    out.append(("sweep-p2", {
        "kind": "stability-sweep", "K": 2, "N": 3, "p": "2", "v": "0.4",
        "a_list": "0.05,0.15,0.25"}))
    # analytic anchor: lambda = N for K = N - 1, p = 2, v = 1/2
    for N in (3, 4):
        out.append((f"anchor-N{N}", {
            "kind": "eigen", "K": N - 1, "N": N, "p": "2", "v": "0.5"}))
    return out


def _probe_poisson(rng: random.Random) -> list[tuple[str, dict]]:
    out = [("probe", {"kind": "model-probe", "K": _g(rng.uniform(1.5, 3.0)),
                      "N": rng.choice((3, 4)), "n": 150000})]
    for tag, f in (("cospos", "cospos"), ("twolevel", _twolevel(rng, True))):
        out.append((f"sym-{tag}", {
            "kind": "symmetrize", "K": 2, "N": 3,
            "v": _g(rng.uniform(0.3, 0.6)), "f": f, "n": 8192}))
    # seeded poisson cases use the smooth cosine source: a step source
    # fails route-agreement or weak-residual on some seeds (the fixed
    # cases below count both faults)
    for name, p, shifted in (
            ("poi-model-p1.5-cospos", "1.5", False),
            ("poi-model-p2-cospos", "2", False),
            ("poi-cap-p2-cospos", "2", True),
            ("poi-cap-p3-cospos", "3", True)):
        kv = {"kind": "poisson", "K": 2, "N": 3, "p": p,
              "v": _g(rng.uniform(0.3, 0.5)), "f": "cospos"}
        if shifted:
            kv["a"] = _g(rng.uniform(0.15, 0.35))
        out.append((name, kv))
    out += [
        ("fail-model-twolevel", {"kind": "poisson", "K": 2, "N": 3, "p": "2",
                                 "v": "0.4", "f": "twolevel 2 0.5 0.25"}),
        ("fail-cap-twolevel", {"kind": "poisson", "K": 2, "N": 3, "p": "2",
                               "v": "0.4", "a": "0.3",
                               "f": "twolevel 2 0.5 0.25"}),
        ("fail-model-const-p1.5", {"kind": "poisson", "K": 2, "N": 3,
                                   "p": "1.5", "v": "0.5", "f": "const 1"}),
        # the jump sits 0.002 past a hat peak of the weak-residual test
        ("fail-cap-inc-weak", {"kind": "poisson", "K": 2, "N": 3, "p": "2",
                               "v": "0.440973", "a": "0.182352",
                               "f": "twolevel 0.73065 1.60187 0.225796"}),
    ]
    # N/p = 1.5: s above it takes the sup-norm (c1) route, s below it
    # with t takes the L^t (c2) route
    out.append(("sob-c1-model", {
        "kind": "sobolev", "K": 2, "N": 3, "p": "2",
        "v": _g(rng.uniform(0.3, 0.5)), "f": "const 1",
        "s": _g(rng.uniform(2.0, 6.0))}))
    out.append(("sob-c1-cap", {
        "kind": "sobolev", "K": 2, "N": 3, "p": "2",
        "v": _g(rng.uniform(0.3, 0.5)), "a": _g(rng.uniform(0.15, 0.35)),
        "f": "cospos", "s": _g(rng.uniform(2.0, 6.0))}))
    out.append(("sob-c2-model", {
        "kind": "sobolev", "K": 2, "N": 3, "p": "2",
        "v": _g(rng.uniform(0.3, 0.5)), "f": "const 1",
        "s": _g(rng.uniform(0.95, 1.3)), "t": "2"}))
    return out


_GENERATORS = {
    "comparison": _comparison,
    "eigen-holder": _eigen_holder,
    "probe-poisson": _probe_poisson,
}


def scenarios(workload: str, seed: int) -> list[tuple[str, dict]]:
    """The (name, key/value) list of one workload at one seed."""
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r}; "
                         f"expected one of {', '.join(WORKLOADS)}")
    return _GENERATORS[workload](random.Random(f"{workload}:{seed}"))


def render(specs: list[tuple[str, dict]]) -> str:
    """INI text with one section per scenario."""
    parts = []
    for name, kv in specs:
        body = "".join(f"{k} = {v}\n" for k, v in kv.items())
        parts.append(f"[{name}]\n{body}")
    return "\n".join(parts)

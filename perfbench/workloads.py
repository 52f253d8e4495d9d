"""The three workloads: inputs made from the seed, the calls into the
program, and the checks on what it returns.

A round is a fixed list of operations made from the seed.  Every round of a
run repeats the same operations, so the share of failed operations and the
work counted per round do not depend on how many rounds fit in a run.  Every
call into the program goes through its module attribute (``galois.sym_power``
rather than an imported name), so the tracer's wrappers see it.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

import heisenkep
from heisenkep import dynamics, galois, heisenmodel, variational
from heisenkep.exactalg import ExactRatFunc

import checks
from spans import Tracer

PRESETS = Path(heisenkep.__file__).resolve().parent / "presets"
TIGHT = dict(abs_tol=1e-12, rel_tol=1e-12)

# the clock that times the program's share of each operation; run.py points
# it at hostclock.HostClock.now for untraced runs
now = time.perf_counter


@dataclass
class Workload:
    """setup(seed) -> context; inputs(seed) -> one round of operation inputs;
    run(context, input, tracer) -> (seconds in the program, output);
    check(input, output) -> list of problems."""

    setup: Callable
    inputs: Callable
    run: Callable
    check: Callable


def _preset(name: str) -> dict:
    return json.loads((PRESETS / f"{name}.json").read_text())


# ---------------------------------------------------------------------------
# resonant_verdict
# ---------------------------------------------------------------------------

# Rescalings whose verdicts cost within about +-5% of each other on the
# reference box (lambda = 2, 1/2 and 3 are 15-25% away), so that the draw
# does not dominate the run-to-run spread.
LAMBDAS = (Fraction(3, 2), Fraction(2, 3), Fraction(4, 3), Fraction(-1),
           Fraction(-3, 2))


def rescale(L, lam: Fraction):
    """Operator of u(s) = v(lam s) when L v = 0: the coefficient of D^j
    becomes lam^(n-j) a_j(lam s)."""
    n = L.order
    out = []
    for j, a in enumerate(L.coeffs):
        num = a.num.compose_linear(lam, 0).scale(lam ** (n - j))
        out.append(ExactRatFunc(num, a.den.compose_linear(lam, 0), var=L.var))
    return galois.DiffOperator(out, var=L.var)


def resonant_inputs(seed: int) -> list:
    rng = random.Random(seed)
    return [{"lam": Fraction(1)}, {"lam": rng.choice(LAMBDAS)}]


def resonant_run(ctx, inp, tracer):
    t0 = now()
    with tracer.span("variational.reduction"):
        L = galois.o3r_operator()
    t1 = now()
    if inp["lam"] != 1:
        L = rescale(L, inp["lam"])
    t2 = now()
    verdict = galois.liouvillian_verdict_o3r(L)
    t3 = now()
    return (t1 - t0) + (t3 - t2), verdict


def resonant_check(inp, verdict) -> list:
    return checks.check_verdict(inp["lam"], verdict.tag, verdict.evidence)


# ---------------------------------------------------------------------------
# factorize_family
# ---------------------------------------------------------------------------

# every (kappa, c) with kappa in {1, 2} and c in CS factors completely.  A
# kappa = 2 factorization costs ~10% more than a kappa = 1 one, so every
# round has one of each, and only the c values come from the seed.
CS = tuple(Fraction(c) for c in ("1/8", "1/4", "1/3", "1/2", "2/3", "1", "3/2"))


def factorize_setup(seed: int, tracer=None):
    """sympy's first-use cost in ve_along (~0.2 s), which the factorize
    subcommand pays once per process.  Paid here, it does not land on
    whichever operation a run happens to do first."""
    variational.ve_along(heisenmodel.SystemSpec("one-body", Fraction(1)), {"c": Fraction(3)})
    return {}


def factorize_inputs(seed: int) -> list:
    rng = random.Random(seed)
    return [{"kappa": Fraction(k), "c": c} for k, c in zip((1, 2), rng.sample(CS, 2))]


def factorize_run(ctx, inp, tracer):
    t0 = now()
    spec = heisenmodel.SystemSpec("one-body", inp["kappa"])
    A = variational.ve_along(spec, {"c": inp["c"]}).subsystem(range(4)).A
    E = galois.exterior_square(A)
    sols = galois.system_exp_solutions(E)
    dec = [v for s, v in sols if galois.plucker_check(v) and not s.is_zero()]
    fb = galois.factorization_basis(dec)
    blocks = variational.gauge_transform(variational.LinearSystem(A, var=A.var), fb.Q)
    t1 = now()
    return t1 - t0, {"A": A, "E": E, "solutions": sols, "decomposable": dec,
                     "Q": fb.Q.Q, "complete": fb.complete, "blocks": blocks.A}


def factorize_check(inp, out) -> list:
    return checks.check_factorization(inp["kappa"], inp["c"], **out)


# ---------------------------------------------------------------------------
# orbit_sweep
# ---------------------------------------------------------------------------

INFALL_T_END = 30.0   # above every t* the drawn (x0, p0) can give (< 11)


def orbit_setup(seed: int, tracer=None):
    """Both systems, with their lambdified Hamiltonian and vector field."""
    tracer = tracer or Tracer(False)
    ctx = {}
    with tracer.span("heisenmodel.spec_build"):
        for key, preset in (("one", "simulate_scatter"), ("two", "simulate_twobody")):
            spec = heisenmodel.SystemSpec.from_json(_preset(preset)["system"])
            s0 = np.asarray(_preset(preset)["state"], dtype=float)
            heisenmodel.hamiltonian(spec, s0)
            dynamics.hamilton_rhs(spec, s0)
            ctx[key] = spec
    return ctx


def orbit_inputs(seed: int) -> list:
    """Two vertical lines and two radial infalls drawn from the seed, then
    the packaged presets' orbits.  Every fate is known beforehand: the lines
    keep rho = 4|c|; an infall with E < 0 reaches the guard at the closed-form
    t*; the preset orbits end at t_end without collision."""
    rng = random.Random(seed)
    out = [{"kind": "line", "system": "one", "c": c, "t_end": 10.0}
           for c in rng.sample([Fraction(k, 8) for k in range(1, 17)], 2)]
    for _ in range(2):
        # |p0| <= 0.8 and x0 <= 1.5 give E = p0^2/2 - 1/x0^2 < 0
        x0, p0 = rng.uniform(0.8, 1.5), rng.uniform(-0.8, 0.8)
        out.append({"kind": "infall", "system": "one", "t_end": INFALL_T_END,
                    "state": [x0, 0.0, 0.0, p0, 0.0, 0.0]})
    coll = _preset("simulate_collision")
    out.append({"kind": "infall", "system": "one", "t_end": coll["integrator"]["t_end"],
                "state": coll["state"]})
    for name in ("simulate_scatter", "simulate_zero_energy", "simulate_twobody"):
        p = _preset(name)
        out.append({"kind": "free", "system": "two" if name.endswith("twobody") else "one",
                    "t_end": p["integrator"]["t_end"], "state": p["state"],
                    "thresholds": p.get("thresholds", {})})
    sweep = _preset("sweep_onebody")
    for s in sweep["states"]:
        out.append({"kind": "free", "system": "one",
                    "t_end": sweep["integrator"]["t_end"], "state": s,
                    "thresholds": sweep.get("thresholds", {})})
    return out


def bracket_rows(spec, s) -> list:
    """The verify subcommand's bracket identities at state s."""
    H = lambda a: heisenmodel.hamiltonian(spec, a)
    fi = lambda k: (lambda a: heisenmodel.first_integrals(spec, a)[k])
    pb = heisenmodel.poisson_bracket
    rows = [("{J,H} - 2H", pb(fi("J"), H, s) - 2 * H(s))]
    if spec.kind == "one-body":
        return rows + [("{p_theta,H}", pb(fi("p_theta"), H, s))]
    I = heisenmodel.first_integrals(spec, s)
    rows += [("{I1,I2} - I3", pb(fi("I1"), fi("I2"), s) - I["I3"]),
             ("{I1,I4} - I2", pb(fi("I1"), fi("I4"), s) - I["I2"]),
             ("{I2,I4} + I1", pb(fi("I2"), fi("I4"), s) + I["I1"])]
    return rows + [(f"{{{k},H}}", pb(fi(k), H, s)) for k in ("I1", "I2", "I3", "I4")]


def orbit_run(ctx, inp, tracer):
    spec = ctx[inp["system"]]
    t0 = now()
    if inp["kind"] == "line":
        s0 = heisenmodel.particular_solution(spec, {"c": float(inp["c"])}, 0.0).to_array()
    else:
        s0 = np.asarray(inp["state"], dtype=float)
    cfg = dynamics.IntegratorConfig(t_end=inp["t_end"], **TIGHT)
    traj = dynamics.integrate(spec, s0, cfg)
    tracer.count("dynamics.nfev", traj.stats["nfev"])
    tracer.count("dynamics.steps", traj.stats["steps"])
    out = {"flagged": traj.flagged_event, "t_stop": float(traj.t[-1]),
           "kappa": spec.kappa, "rho_min": cfg.rho_min}
    probes = [s0]
    if traj.flagged_event is None:
        rep = dynamics.monitor_conserved(spec, traj)
        out["drifts"], out["djdt"] = rep.drifts, rep.djdt_residual_max
        out["j_drift"] = rep.j_drift
        probes.append(traj.at(inp["t_end"] / 2))
    out["ts"] = np.linspace(0.0, float(traj.t[-1]), 300)
    out["states"] = traj.at(out["ts"])
    if inp["kind"] != "free":
        out["line_dev"] = dynamics.max_line_deviation(out["states"][:, :3])
    out["brackets"] = [row for s in probes for row in bracket_rows(spec, s)]
    return now() - t0, out


def orbit_check(inp, out) -> list:
    problems = checks.check_brackets(out["brackets"])
    if inp["kind"] != "free" and not out["line_dev"] < checks.LINE_TOL:
        problems.append(f"max_line_deviation {out['line_dev']:.3e}")
    if inp["kind"] == "line":
        problems += checks.check_line(inp["c"], out["kappa"], out["ts"],
                                      out["states"], out["flagged"])
    elif inp["kind"] == "infall":
        x0, p0 = inp["state"][0], inp["state"][3]
        problems += checks.check_infall(x0, p0, out["kappa"], out["rho_min"],
                                        out["t_stop"], out["states"], out["flagged"])
    if inp["kind"] != "infall":
        values = dict(out.get("drifts", {}), djdt=out.get("djdt"),
                      j_drift=out.get("j_drift"))
        problems += checks.check_drifts(out["flagged"], values,
                                        inp.get("thresholds", {}))
    return problems


WORKLOADS = {
    "resonant_verdict": Workload(lambda seed, tracer=None: {}, resonant_inputs,
                                 resonant_run, resonant_check),
    "factorize_family": Workload(factorize_setup, factorize_inputs,
                                 factorize_run, factorize_check),
    "orbit_sweep": Workload(orbit_setup, orbit_inputs, orbit_run, orbit_check),
}

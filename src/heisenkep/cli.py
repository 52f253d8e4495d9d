"""Batch front door: every computation in the analysis as a subcommand.

Each subcommand reads a JSON config, writes machine-readable artifacts
into an output directory, and exits 0 iff every check in the invoked
suite passes.  Artifacts are deterministic given (config, seed): JSON is
emitted with sorted keys, exact values are serialized as strings, and
floats round-trip through repr.  The seed is recorded in every output
header.  Presets for the standard scenarios ship with the package under
``heisenkep/presets``; a bare config name is resolved there when no file
of that name exists.  numpy and the numeric layer (``dynamics``) are
imported on the simulate, verify and sweep paths alone, so that ve, galois
and factorize load neither.

Grammar::

    heisenkep <simulate|verify|ve|galois|factorize|sweep>
        --config <path> [--out <dir>] [--seed <u64>] [--format csv|json]
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, fields
from fractions import Fraction
from importlib import resources
from pathlib import Path
from typing import TYPE_CHECKING

import click

from .exactalg import ExactMatrix, ExactPoly, ExactScalar
from .heisenmodel import (
    CollisionError,
    SystemSpec,
    _canonical_bracket,
    _num_grad,
    condition_coefficient_a,
    first_integrals,
    particular_solution,
    state_rho,
)
from .variational import (
    LinearSystem,
    cyclic_to_scalar,
    exp_substitution,
    gauge_transform,
    generic_reduction,
    resonant_reduction,
    ve_along,
    ve_blocks_transformed,
    ve_twobody_blocks,
)
from .galois import (
    ParabolicParams,
    exterior_square,
    factorization_basis,
    liouvillian_verdict_o3r,
    parabolic_from_ode,
    plucker_quadric,
    rehm_classify,
    system_exp_solutions,
)

if TYPE_CHECKING:
    import numpy as np

    from .dynamics import IntegratorConfig


# ---------------------------------------------------------------------------
# Run configuration and plumbing
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RunConfig:
    """Resolved invocation: subcommand, parsed config, and output policy."""

    subcommand: str
    config: dict
    config_name: str
    out_dir: Path
    seed: int
    fmt: str = "json"

    def header(self) -> dict:
        return {
            "subcommand": self.subcommand,
            "config": self.config_name,
            "seed": self.seed,
            "format": self.fmt,
        }


def preset_path(name: str) -> Path:
    """Path of a packaged preset config (name with or without .json)."""
    if not name.endswith(".json"):
        name += ".json"
    return Path(str(resources.files("heisenkep") / "presets" / name))


def _load_config(subcommand: str, config, out_dir, seed, fmt) -> RunConfig:
    path = Path(config)
    if not path.exists() and os.sep not in str(config):
        candidate = preset_path(str(config))
        if candidate.exists():
            path = candidate
    if not path.exists():
        raise click.ClickException(f"config file not found: {config}")
    try:
        doc = json.loads(path.read_text())
    except ValueError as e:
        raise click.ClickException(f"config is not JSON: {e}") from e
    if not isinstance(doc, dict):
        raise click.ClickException("config must be a JSON object")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return RunConfig(subcommand, doc, path.name, out, int(seed), fmt)


def _write_json(rc: RunConfig, name: str, doc: dict) -> Path:
    doc = dict(doc)
    doc["header"] = rc.header()
    path = rc.out_dir / name
    path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    return path


def _frac(v) -> Fraction:
    return Fraction(str(v))


def _integrator_config(rc: RunConfig) -> IntegratorConfig:
    """IntegratorConfig from the config's "integrator" table.  A table that
    is not a JSON object, a key that is not one of its fields, or a value it
    rejects is a usage error."""
    from .dynamics import IntegratorConfig

    opts = rc.config.get("integrator", {})
    if not isinstance(opts, dict):
        raise click.ClickException("the integrator table must be a JSON object")
    unknown = sorted(set(opts) - {f.name for f in fields(IntegratorConfig)})
    if unknown:
        raise click.ClickException(f"unknown integrator key(s): {', '.join(unknown)}")
    try:
        return IntegratorConfig(**opts)
    except ValueError as e:
        raise click.ClickException(str(e)) from e


def _system(rc: RunConfig) -> SystemSpec:
    """SystemSpec from the config's "system" table.  A table that is not a
    JSON object, a missing key, a value that SystemSpec rejects, or a
    potential coefficient that is not real (the numeric evaluators need
    real ones) is a usage error."""
    try:
        if not isinstance(rc.config["system"], dict):
            raise click.ClickException("bad system table: it must be a JSON object")
        spec = SystemSpec.from_json(rc.config["system"])
    except KeyError as e:
        raise click.ClickException(f"bad system table: missing key {e}") from e
    except (TypeError, ValueError, ZeroDivisionError) as e:  # TypeError: a potential not a table
        raise click.ClickException(f"bad system table: {e}") from e
    pot = spec.potential
    if not all(c.is_real() for c in (*pot.num.values(), *pot.den.values())):
        raise click.ClickException("bad system table: the potential's coefficients must be real")
    return spec


def _thresholds(rc: RunConfig, spec: SystemSpec) -> dict:
    """The config's "thresholds" table, each key a quantity _orbit checks
    and each value a number; anything else is a usage error, raised before
    any orbit is integrated."""
    from .dynamics import drift_names

    thresholds = rc.config.get("thresholds", {"H": 1e-9})
    if not isinstance(thresholds, dict):
        raise click.ClickException("the thresholds table must be a JSON object")
    unknown = sorted(set(thresholds) - {"line", "djdt", "j_drift", *drift_names(spec)})
    if unknown:
        raise click.ClickException(f"unknown threshold key(s): {', '.join(unknown)}")
    for key, tol in thresholds.items():
        if isinstance(tol, bool) or not isinstance(tol, (int, float)):
            raise click.ClickException(f"threshold {key} must be a number, not {tol!r}")
    return thresholds


def _matrix_strs(A: ExactMatrix) -> list:
    return [[str(A[i, j]) for j in range(A.cols)] for i in range(A.rows)]


def _finish(rc: RunConfig, name: str, doc: dict, ok: bool):
    path = _write_json(rc, name, doc)
    click.echo(f"{'PASS' if ok else 'FAIL'} {path}")
    if not ok:
        raise SystemExit(1)


def _common(f):
    for opt in (
        click.option("--format", "fmt", default="json",
                     type=click.Choice(["csv", "json"]),
                     help="Tabular artifact format (exact data is always JSON)."),
        click.option("--seed", default=0, type=click.IntRange(0, 2**64 - 1),
                     help="RNG seed, recorded in every output header."),
        click.option("--out", "out_dir", default=".",
                     type=click.Path(file_okay=False),
                     help="Output directory (created if missing)."),
        click.option("--config", required=True,
                     help="JSON config path or packaged preset name."),
    ):
        f = opt(f)
    return f


@click.group()
@click.version_option(package_name="heisenkep")
def main():
    """Reproduce the integrability analysis as batch subcommands."""


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def _initial_state(spec: SystemSpec, cfg: dict) -> np.ndarray:
    if "particular" in cfg:
        try:
            s = particular_solution(spec, {
                k: float(_frac(v)) for k, v in cfg["particular"].items()
            }, cfg.get("t0", 0.0))
        except KeyError as e:
            raise click.ClickException(f"state 0: particular misses key {e}") from e
        except ValueError as e:
            raise click.ClickException(f"state 0: {e}") from e
        return s.to_array()
    if "state" not in cfg:
        raise click.ClickException('the config needs a "state" or a "particular" table')
    return _state_array(spec, cfg["state"], "state 0: ")


def _state_array(spec: SystemSpec, state, where: str) -> np.ndarray:
    """A config's initial state as an array.  A length other than the
    system's dimension, or an entry that is not finite, is a usage error
    whose message begins with where."""
    import numpy as np

    try:
        a = np.asarray(state, dtype=float)
    except (TypeError, ValueError) as e:
        raise click.ClickException(f"{where}the initial state must be a list of numbers") from e
    if a.shape != (spec.dim,):
        raise click.ClickException(
            f"{where}a {spec.kind} state has {spec.dim} entries, not {a.size}")
    if not np.isfinite(a).all():
        raise click.ClickException(f"{where}the initial state must be finite")
    return a


def _line_deviation(spec: SystemSpec, traj, n: int = 300) -> float:
    import numpy as np

    from .dynamics import max_line_deviation

    ts = np.linspace(traj.t[0], traj.t[-1], n)
    pts = traj.at(ts)
    if spec.kind == "one-body":
        return max_line_deviation(pts[:, :3])
    return max(max_line_deviation(pts[:, :3]), max_line_deviation(pts[:, 3:6]))


def _orbit(spec: SystemSpec, s0, icfg, thresholds: dict, where="", line=False) -> tuple:
    """Integrate one orbit from s0 and check it against the thresholds.

    Returns the trajectory (None when the integration failed) and the
    report: flagged_event, then last_t and last_state for a flagged orbit,
    or monitor, max_line_deviation (if line) and checks; then pass.  A
    start on the collision set or inside its guard is a usage error, whose
    message begins with where."""
    from .dynamics import IntegrationError, integrate, monitor_conserved

    try:
        traj = integrate(spec, s0, icfg)
    except CollisionError as e:
        raise click.ClickException(f"{where}{e}") from e
    except IntegrationError as e:
        return None, {"flagged_event": "integration_failure", "last_t": float(e.last_t),
                      "last_state": list(map(float, e.last_state)), "pass": False}
    if traj.flagged_event is not None:
        return traj, {"flagged_event": traj.flagged_event, "last_t": float(traj.t[-1]),
                      "last_state": traj.y[-1].tolist(), "pass": False}
    rep = monitor_conserved(spec, traj)
    values = {"line": _line_deviation(spec, traj) if line or "line" in thresholds else None,
              "djdt": rep.djdt_residual_max, "j_drift": rep.j_drift, **rep.drifts}
    checks = {key: {"value": float(values[key]), "tol": float(tol),
                    "pass": bool(values[key] < tol)} for key, tol in thresholds.items()}
    report = {"flagged_event": None, "monitor": rep.to_json(), "checks": checks,
              "pass": all(c["pass"] for c in checks.values())}
    if line:
        report["max_line_deviation"] = values["line"]
    return traj, report


@main.command()
@_common
def simulate(config, out_dir, seed, fmt):
    """Integrate one orbit, monitor its invariants, export the trajectory."""
    rc = _load_config("simulate", config, out_dir, seed, fmt)
    spec = _system(rc)
    icfg = _integrator_config(rc)
    thresholds = _thresholds(rc, spec)
    traj, report = _orbit(spec, _initial_state(spec, rc.config), icfg, thresholds, line=True)
    if traj is not None and rc.fmt == "csv":
        from .dynamics import trajectory_to_csv

        trajectory_to_csv(spec, traj, rc.out_dir / "trajectory.csv", header_meta=rc.header())
    elif traj is not None:  # None: the integration failed, and there is no trajectory
        (rc.out_dir / "trajectory.json").write_text(json.dumps({
            "header": rc.header(), "t": traj.t.tolist(), "y": traj.y.tolist(),
        }, sort_keys=True) + "\n")
    ok = report.pop("pass")
    _finish(rc, "report.json", {"system": spec.to_json(), **report, "all_pass": ok}, ok=ok)


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _probe_states(spec: SystemSpec, rng, n: int) -> list:
    out = []
    while len(out) < n:
        a = rng.uniform(-1.5, 1.5, size=spec.dim)
        if state_rho(spec, a) > 0.4:
            out.append(a)
    return out


# verify's bracket identities (name, f, g, correction) of the first
# integrals: the residual is {f, g} + c * k for a correction (c, k)
_BRACKETS = (
    ("{J,H} - 2H", "J", "H", (-2, "H")),
    ("{p_theta,H}", "p_theta", "H", None),
    ("{I1,I2} - I3", "I1", "I2", (-1, "I3")),
    ("{I1,I4} - I2", "I1", "I4", (-1, "I2")),
    ("{I2,I4} + I1", "I2", "I4", (1, "I1")),
    *((f"{{{k},H}}", k, "H", None) for k in ("I1", "I2", "I3", "I4")),
)


def _row(name: str, residual, tol: float) -> dict:
    return {"name": name, "residual": float(residual), "tol": tol,
            "pass": bool(residual < tol)}


def _bracket_rows(spec: SystemSpec, states) -> list:
    """The identities of spec's integrals, each with its largest residual
    over the states, from one gradient of all the integrals per state."""
    import numpy as np

    from .dynamics import drift_names

    table = [r for r in _BRACKETS if r[1] in ("J", *drift_names(spec))]

    def integrals(a):
        return np.array(list(first_integrals(spec, a).values()))

    residuals = []
    for a in states:
        vals = first_integrals(spec, a)
        grad = dict(zip(vals, _num_grad(integrals, a)))
        residuals.append([
            _canonical_bracket(grad[f], grad[g]) + (0 if c is None else c[0] * vals[c[1]])
            for _, f, g, c in table])
    return [_row(name, max(map(abs, res)), 1e-6)
            for (name, *_), res in zip(table, zip(*residuals))]


def _extended_rows(spec: SystemSpec, rng, n_points: int) -> list:
    import numpy as np

    from .dynamics import (ExtendedState, IntegratorConfig, extended_poisson_build, integrate,
                           integrate_extended)

    lifted = extended_poisson_build(spec)

    def leaf_point():
        q = rng.uniform(-2, 2, size=3)
        p = rng.uniform(-2, 2, size=3)
        u = math.sqrt((q[0] ** 2 + q[1] ** 2) ** 2 + 16 * q[2] ** 2)
        return np.concatenate([q, p, [u]])

    pts = [leaf_point() for _ in range(n_points)]
    rank_fail = sum(
        1 for x in pts if np.linalg.matrix_rank(lifted.J(x), tol=1e-10) != 6
    )
    anti = max(float(np.max(np.abs(lifted.J(x) + lifted.J(x).T))) for x in pts)
    cas = max(
        abs(lifted.bracket(lifted.P, f, x, grad_f=lifted.grad_P))
        for x in pts[:25]
        for f in [lifted.K] + [lambda s, i=i: float(s[i]) ** 2 for i in range(7)]
    )

    q0, p0 = (1.0, 0.0, 0.2), (0.3, 1.2, 0.1)
    u0 = math.sqrt((q0[0] ** 2 + q0[1] ** 2) ** 2 + 16 * q0[2] ** 2)
    tight = IntegratorConfig(abs_tol=1e-12, rel_tol=1e-12, t_end=10.0)
    try:
        direct = integrate(spec, np.array(q0 + p0), tight)
        ext = integrate_extended(lifted, ExtendedState(q0, p0, u0), tight)
    except CollisionError as e:
        raise click.ClickException(f"extended suite: {e}") from e
    ts = np.linspace(0, 10, 200)
    proj = np.max(np.abs(ext.at(ts)[:, :6] - direct.at(ts)))
    return [_row("rank(J) = 2n", rank_fail, 0.5), _row("J antisymmetry", anti, 1e-12),
            _row("{P,.} Casimir", cas, 1e-10), _row("extended-flow projection", proj, 1e-6),
            _row("P drift", ext.stats["max_casimir_residual"], 1e-8)]


def _write_csv(path: Path, header: dict, columns: list, rows) -> None:
    """A table as CSV: a "# " line of the header's JSON, the column names,
    then the rows, each field quoted where it holds a comma or a quote."""
    with path.open("w", newline="") as fh:
        fh.write("# " + json.dumps(header, sort_keys=True) + "\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(rows)


@main.command()
@_common
def verify(config, out_dir, seed, fmt):
    """Run the bracket/identity suites and report residuals per identity."""
    import numpy as np

    rc = _load_config("verify", config, out_dir, seed, fmt)
    spec = _system(rc)
    suites = rc.config.get(
        "suites", ["brackets"] + (["extended"] if spec.kind == "one-body" else [])
    )
    if not suites or not isinstance(suites, list) or any(
            name not in ("brackets", "extended") for name in suites):
        raise click.ClickException(f"suites must be a non-empty list of brackets and "
                                   f"extended, not {json.dumps(suites)}")
    counts = {"n_probes": int(rc.config.get("n_probes", 50)),
              "n_points": int(rc.config.get("n_points", 100))}
    for key, n in counts.items():
        if n < 1:
            raise click.ClickException(f"{key} must be at least 1, not {n}")
    rng = np.random.default_rng(rc.seed)
    rows = []
    if "brackets" in suites:
        rows += _bracket_rows(spec, _probe_states(spec, rng, counts["n_probes"]))
    if "extended" in suites:
        if spec.kind != "one-body":
            raise click.ClickException("extended suite requires the one-body system")
        rows += _extended_rows(spec, rng, counts["n_points"])
    ok = all(r["pass"] for r in rows)
    if rc.fmt == "csv":
        _write_csv(rc.out_dir / "verify.csv", rc.header(), ["name", "residual", "tol", "pass"],
                   ([r["name"], r["residual"], r["tol"], r["pass"]] for r in rows))
    doc = {"system": spec.to_json(), "rows": rows, "all_pass": ok}
    _finish(rc, "verify.json", doc, ok=ok)


# ---------------------------------------------------------------------------
# ve
# ---------------------------------------------------------------------------

def _sqrt_fraction(q: Fraction) -> Fraction | None:
    if q <= 0:
        return None
    rn = math.isqrt(q.numerator)
    rd = math.isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


def _kepler_c(cfg: dict, kappa: Fraction) -> Fraction:
    if "c" in cfg:
        return _frac(cfg["c"])
    a = _frac(cfg["a"])
    if a == 0:
        raise click.ClickException("a must be nonzero")
    c = _sqrt_fraction(kappa / (8 * a))
    if c is None:
        raise click.ClickException(
            "a must satisfy kappa/(8a) = c^2 for a rational c; give c directly"
        )
    return c


def _parabolic_json(p) -> dict:
    return {
        "alpha_sq": str(p.alpha_sq),
        "two_alpha_beta": str(p.two_alpha_beta),
        "gamma": str(p.gamma),
        "ratio_squared": str(p.ratio_squared()),
    }


def _ve_kepler(cfg: dict) -> tuple:
    """The ve document of the Kepler branch, and the ParabolicParams of
    its reduced equation for the galois verdict."""
    kappa = _frac(cfg.get("kappa", 1))
    spec = SystemSpec("one-body", kappa)
    c = _kepler_c(cfg, kappa)
    a = condition_coefficient_a(spec, c)
    full = ve_along(spec, {"c": c})
    blocks = ve_blocks_transformed(spec, c)
    ode = cyclic_to_scalar(blocks.subsystem([0, 1]), 0)
    # y = w exp(-i a t^2 / 2) removes the first-derivative term
    reduced = exp_substitution(ode, ExactPoly([0, 0, ExactScalar(0, -a / 2)]))
    p = parabolic_from_ode(reduced)
    return {
        "system": "kepler",
        "a": str(a),
        "c": str(c),
        "ve_matrix": _matrix_strs(full.A),
        "weil_block": _matrix_strs(full.subsystem(range(4)).A),
        "blocks_transformed": _matrix_strs(blocks.A),
        "scalar_ode": [str(cf) for cf in ode.coeffs],
        "reduced_ode": [str(cf) for cf in reduced.coeffs],
        "parabolic": _parabolic_json(p),
    }, p


def _ve_twobody(cfg: dict) -> tuple:
    """The ve document of the two-body branch, and what its chain ends in:
    the ParabolicParams of the reduced equation, or for mu = -1 the
    resonant third-order operator.  The chain starts on the tau0 = 1
    solution when mu = -1 and on tau0 = 0 otherwise, the default of tau0."""
    mu = _frac(cfg["mu"])
    resonant = mu == -1
    tau0 = _frac(cfg.get("tau0", int(resonant)))
    w2 = _frac(cfg.get("w2", 1))
    blocks = ve_twobody_blocks(mu, tau0, w2)
    a1 = blocks.subsystem(range(4))
    out = {
        "system": "twobody",
        "mu": str(ExactScalar.coerce(mu)),
        "tau0": str(ExactScalar.coerce(tau0)),
        "w2": str(ExactScalar.coerce(w2)),
        "blocks": _matrix_strs(blocks.A),
        "A1": _matrix_strs(a1.A),
    }
    if tau0 != int(resonant):
        raise click.ClickException(f"the {'resonant' if resonant else 'generic'} "
                                   f"reduction needs tau0 = {int(resonant)}")
    g, ode, end = resonant_reduction(a1) if resonant else generic_reduction(a1, mu)
    out.update({"A1_reduced": _matrix_strs(g.A), "scalar_ode": [str(cf) for cf in ode.coeffs]})
    if resonant:
        out["o3r_coefficients"] = [str(cf) for cf in end.coeffs]
        return out, end
    p = parabolic_from_ode(end)
    out.update({"reduced_ode": [str(cf) for cf in end.coeffs], "parabolic": _parabolic_json(p)})
    return out, p


def _reduction(cfg: dict, key: str) -> tuple:
    """The ve document of the chain that cfg[key] names, and what the
    chain ends in (galois names it by "branch").  A missing key, or a value
    that the chain rejects, is a usage error."""
    try:
        name = cfg[key]
        if name == "kepler":
            return _ve_kepler(cfg)
        if name == "twobody":
            return _ve_twobody(cfg)
    except KeyError as e:
        raise click.ClickException(f"missing config key {e}") from e
    except ValueError as e:
        raise click.ClickException(str(e)) from e
    raise click.ClickException(f"unknown {key} {name!r}")


@main.command()
@_common
def ve(config, out_dir, seed, fmt):
    """Exact variational matrices and the gauge-reduced scalar equations."""
    rc = _load_config("ve", config, out_dir, seed, fmt)
    _finish(rc, "ve.json", _reduction(rc.config, "system")[0], ok=True)


# ---------------------------------------------------------------------------
# galois
# ---------------------------------------------------------------------------

@main.command()
@_common
def galois(config, out_dir, seed, fmt):
    """Non-solvability verdict for the chosen branch of the analysis: the
    classification of what the branch's ve chain ends in."""
    rc = _load_config("galois", config, out_dir, seed, fmt)
    data, end = _reduction(rc.config, "branch")
    if isinstance(end, ParabolicParams):
        verdict = rehm_classify(end)
    else:
        verdict = liouvillian_verdict_o3r(end)
    doc = {"branch": rc.config["branch"], "verdict": json.loads(verdict.to_json()),
           **{k: data[k] for k in ("a", "mu", "parabolic") if k in data}}
    _finish(rc, "galois.json", doc, ok=verdict.tag == "NotSolvableIdentityComponent")


# ---------------------------------------------------------------------------
# factorize
# ---------------------------------------------------------------------------

def _input_matrix(cfg: dict) -> ExactMatrix:
    if "matrix" in cfg:
        rows = [
            [ExactScalar.parse(e) if isinstance(e, str) else e for e in row]
            for row in cfg["matrix"]
        ]
        return ExactMatrix(rows)
    kappa = _frac(cfg.get("kappa", 1))
    spec = SystemSpec("one-body", kappa)
    c = _kepler_c(cfg, kappa) if ("a" in cfg or "c" in cfg) else Fraction(1, 4)
    return ve_along(spec, {"c": c}).subsystem(range(4)).A


@main.command()
@_common
def factorize(config, out_dir, seed, fmt):
    """Factor the 4-dim variational block through its exterior square."""
    rc = _load_config("factorize", config, out_dir, seed, fmt)
    try:
        A = _input_matrix(rc.config)
        E = exterior_square(A)
    except (TypeError, ValueError) as e:
        raise click.ClickException(str(e)) from e
    sols = system_exp_solutions(E)
    sol_docs = []
    decomposable = []
    for s, v in sols:
        quadric = plucker_quadric(v)
        ok = quadric.is_zero()
        sol_docs.append({
            "exponent": str(s),
            "direction": [str(e) for e in v],
            "plucker_quadric": str(quadric),
            "decomposable": ok,
        })
        if ok and not s.is_zero():
            decomposable.append(v)
    doc = {"exterior_square": _matrix_strs(E), "solutions": sol_docs}
    if rc.config.get("plucker_only", False):
        _finish(rc, "factorize.json", doc, ok=True)
        return
    if not decomposable:
        doc["error"] = "no decomposable exponential solutions"
        _finish(rc, "factorize.json", doc, ok=False)
        return
    fb = factorization_basis(decomposable)
    blocks = gauge_transform(LinearSystem(A, var=A.var), fb.Q)
    doc.update({
        "Q": _matrix_strs(fb.Q.Q),
        "det_Q": str(fb.Q.Q.det()),
        "complete": fb.complete,
        "blocks": _matrix_strs(blocks.A),
    })
    _finish(rc, "factorize.json", doc, ok=fb.complete)


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

# a random sweep gives up after this many draws per requested state
_DRAWS_PER_STATE = 10_000


def _sweep_states(spec: SystemSpec, cfg: dict, seed: int) -> list:
    import numpy as np

    if "states" in cfg:
        return [_state_array(spec, s, f"state {i}: ") for i, s in enumerate(cfg["states"])]
    if "random" not in cfg:
        raise click.ClickException('the config needs a "states" or a "random" table')
    rnd = cfg["random"]
    unknown = sorted(set(rnd) - {"n", "rho_min", "min_p_theta", "q_low", "q_high",
                                 "p_low", "p_high"})
    if unknown:
        raise click.ClickException(f"unknown random key(s): {', '.join(unknown)}")
    rng = np.random.default_rng(seed)
    n = int(rnd.get("n", 4))
    rho_min = float(rnd.get("rho_min", 0.5))
    min_p_theta = float(rnd.get("min_p_theta", 0.0))
    half = spec.dim // 2
    out = []
    for _ in range(_DRAWS_PER_STATE * n):
        if len(out) == n:
            break
        q = rng.uniform(rnd.get("q_low", -1.5), rnd.get("q_high", 1.5), size=half)
        p = rng.uniform(rnd.get("p_low", -1.0), rnd.get("p_high", 1.0), size=half)
        a = np.concatenate([q, p])
        # min_p_theta only filters the drawn states: it does not keep orbits
        # off the centre, so a random sweep can still trip the collision
        # guard, and that row is reported as flagged
        if spec.kind == "one-body" and abs(a[0] * a[4] - a[1] * a[3]) < min_p_theta:
            continue
        if state_rho(spec, a) > rho_min:
            out.append(a)
    if len(out) < n:
        filters = f"rho > {rho_min}" + (
            f" and |p_theta| >= {min_p_theta}" if spec.kind == "one-body" else "")
        raise click.ClickException(f"random: {len(out)} of {n} states met the filters "
                                   f"{filters} in {_DRAWS_PER_STATE * n} draws")
    return out


@main.command()
@_common
def sweep(config, out_dir, seed, fmt):
    """Integrate a family of orbits and summarize the drifts."""
    rc = _load_config("sweep", config, out_dir, seed, fmt)
    spec = _system(rc)
    icfg = _integrator_config(rc)
    thresholds = _thresholds(rc, spec)
    states = _sweep_states(spec, rc.config, rc.seed)

    def run(idx, s0):
        report = _orbit(spec, s0, icfg, thresholds, where=f"state {idx}: ")[1]
        row = {"index": idx, "initial_state": s0.tolist(),
               "flagged_event": report["flagged_event"], "pass": report["pass"]}
        if "monitor" in report:
            row.update(drifts=report["monitor"]["drifts"], checks=report["checks"])
        return row

    rows = [run(idx, s0) for idx, s0 in enumerate(states)]
    ok = all(r["pass"] for r in rows)
    if rc.fmt == "csv":  # csv writes no flagged_event (None) as an empty field
        _write_csv(rc.out_dir / "sweep.csv", rc.header(), ["index", "flagged_event", "pass"],
                   ([r["index"], r["flagged_event"], r["pass"]] for r in rows))
    doc = {"system": spec.to_json(), "runs": rows, "all_pass": ok}
    _finish(rc, "sweep.json", doc, ok=ok)


if __name__ == "__main__":
    main()

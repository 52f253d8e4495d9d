import csv
import hashlib
import importlib
import inspect
import json
import math
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from heisenkep import dynamics
from heisenkep.cli import _ve_kepler, main, preset_path
from heisenkep.dynamics import IntegrationError
from heisenkep.exactalg import ExactScalar
from heisenkep.galois import o3r_operator, parabolic_from_ode
from heisenkep.heisenmodel import PotentialSpec, SystemSpec, condition_coefficient_a
from heisenkep.variational import generic_reduction, ve_twobody_blocks

from oracles import rhs_fn


@pytest.fixture()
def runner():
    return CliRunner()


def _run(runner, args):
    return runner.invoke(main, args, catch_exceptions=False)


def _load(path):
    return json.loads(path.read_text())


# -- config resolution ------------------------------------------------------

def test_preset_names_resolve(runner, tmp_path):
    assert preset_path("ve_kepler_a2").exists()
    res = _run(runner, ["ve", "--config", "ve_kepler_a2", "--out", str(tmp_path)])
    assert res.exit_code == 0


def test_missing_config_errors(runner, tmp_path):
    res = runner.invoke(main, ["ve", "--config", "no_such_preset",
                               "--out", str(tmp_path)])
    assert res.exit_code != 0


def test_seed_recorded_in_header(runner, tmp_path):
    res = _run(runner, ["ve", "--config", "ve_kepler_a2",
                        "--out", str(tmp_path), "--seed", "7"])
    assert res.exit_code == 0
    assert _load(tmp_path / "ve.json")["header"]["seed"] == 7


def test_reruns_are_byte_identical(runner, tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    for d in (d1, d2):
        assert _run(runner, ["ve", "--config", "ve_twobody_mu_half",
                             "--out", str(d)]).exit_code == 0
    assert (d1 / "ve.json").read_bytes() == (d2 / "ve.json").read_bytes()


# -- ve ---------------------------------------------------------------------

def test_ve_kepler_matrices(runner, tmp_path):
    res = _run(runner, ["ve", "--config", "ve_kepler_a2", "--out", str(tmp_path)])
    assert res.exit_code == 0
    doc = _load(tmp_path / "ve.json")
    assert doc["a"] == "2"
    assert len(doc["ve_matrix"]) == 6 and len(doc["weil_block"]) == 4
    # computed coupling entry of the transformed block matrix
    assert doc["blocks_transformed"][5][4] == "32"
    assert doc["parabolic"]["alpha_sq"] == "-4"
    assert doc["parabolic"]["gamma"] == "0"


def test_ve_twobody_generic_parameters(runner, tmp_path):
    res = _run(runner, ["ve", "--config", "ve_twobody_mu_half",
                        "--out", str(tmp_path)])
    assert res.exit_code == 0
    doc = _load(tmp_path / "ve.json")
    # gamma = 2(1 + mu) at mu = 1/2
    assert doc["parabolic"]["gamma"] == "3"
    assert doc["parabolic"]["alpha_sq"] == "9/4"
    assert doc["parabolic"]["two_alpha_beta"] == "0"


def test_ve_twobody_resonant_coefficients(runner, tmp_path):
    res = _run(runner, ["ve", "--config", "ve_twobody_resonant",
                        "--out", str(tmp_path)])
    assert res.exit_code == 0
    doc = _load(tmp_path / "ve.json")
    assert doc["o3r_coefficients"] == [
        "(-28/3)*tau + (16/27)*tau^3", "(-4/3)*tau^2", "0", "1",
    ]
    assert "parabolic" not in doc


rationals = st.fractions(min_value=-20, max_value=20, max_denominator=30)


@settings(max_examples=25, deadline=None)
@given(rationals.filter(lambda mu: mu not in (0, -1)))
def test_generic_reduction_chain_parameters(mu):
    # the chain inverts reduction_gauge(mu) exactly on its way
    a1 = ve_twobody_blocks(mu, 0, 1).subsystem(range(4))
    p = parabolic_from_ode(generic_reduction(a1, mu)[2])
    assert p.alpha_sq == ExactScalar((1 + mu) ** 2)
    assert p.two_alpha_beta.is_zero()
    assert p.gamma == ExactScalar(2 * (1 + mu))


def test_generic_reduction_chain_degenerates_at_mu_minus_one():
    mu = Fraction(-1)
    reduced = generic_reduction(ve_twobody_blocks(mu, 0, 1).subsystem(range(4)), mu)[2]
    with pytest.raises(ValueError, match="degenerate: alpha = 0"):
        parabolic_from_ode(reduced)


@settings(max_examples=25, deadline=None)
@given(rationals.filter(bool), rationals.filter(bool))
def test_kepler_reduction_chain_parameters(kappa, c):
    p = _ve_kepler({"kappa": str(kappa), "c": str(c)})[1]
    a = condition_coefficient_a(SystemSpec("one-body", kappa), c)
    assert p.alpha_sq == ExactScalar(-a * a)
    assert p.two_alpha_beta.is_zero() and p.gamma.is_zero()


def test_ve_rejects_invalid_parameters(runner, tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"system": "twobody", "mu": "0"}))
    res = runner.invoke(main, ["ve", "--config", str(cfg), "--out", str(tmp_path)])
    assert res.exit_code != 0


# -- galois -----------------------------------------------------------------

def test_galois_kepler_branch(runner, tmp_path):
    res = _run(runner, ["galois", "--config", "galois_kepler",
                        "--out", str(tmp_path)])
    assert res.exit_code == 0
    doc = _load(tmp_path / "galois.json")
    assert doc["verdict"]["tag"] == "NotSolvableIdentityComponent"
    assert doc["verdict"]["evidence"]["group"] == "SL(2,C)"
    assert doc["parabolic"] == {
        "alpha_sq": "-4", "two_alpha_beta": "0", "gamma": "0",
        "ratio_squared": "0",
    }


def test_galois_twobody_generic_branch(runner, tmp_path):
    res = _run(runner, ["galois", "--config", "galois_twobody_generic",
                        "--out", str(tmp_path)])
    assert res.exit_code == 0
    doc = _load(tmp_path / "galois.json")
    assert doc["verdict"]["tag"] == "NotSolvableIdentityComponent"
    assert doc["parabolic"]["gamma"] == "3"


def test_galois_inconclusive_exits_nonzero(runner, tmp_path):
    # an odd-square ratio falls outside the criterion: exit must be nonzero
    cfg = tmp_path / "odd.json"
    cfg.write_text(json.dumps({"branch": "twobody", "mu": "-2"}))
    res = runner.invoke(main, ["galois", "--config", str(cfg),
                               "--out", str(tmp_path)])
    doc = _load(tmp_path / "galois.json")
    assert (res.exit_code == 0) == (
        doc["verdict"]["tag"] == "NotSolvableIdentityComponent"
    )


# galois classifies what ve derives: the parabolic block of each galois
# artifact is the one of the ve artifact of the same chain, and the resonant
# ve artifact prints the operator the resonant verdict classifies

def _ve_and_galois(runner, out, galois_cfg):
    ve_cfg = {**galois_cfg, "system": galois_cfg["branch"]}  # ve's tau0 defaults from mu
    docs = []
    for command, cfg in (("ve", ve_cfg), ("galois", galois_cfg)):
        path = out / f"{command}_cfg.json"
        path.write_text(json.dumps(cfg))
        res = runner.invoke(main, [command, "--config", str(path), "--out", str(out)])
        assert res.exit_code in (0, 1) and (out / f"{command}.json").exists(), res.output
        docs.append(_load(out / f"{command}.json"))
    return docs


@pytest.mark.parametrize("preset", ["galois_kepler", "galois_twobody_generic",
                                    "galois_twobody_resonant"])
def test_galois_preset_parabolic_is_ves(runner, tmp_path, preset):
    ve_doc, galois_doc = _ve_and_galois(runner, tmp_path, _load(preset_path(preset)))
    assert galois_doc.get("parabolic") == ve_doc.get("parabolic")
    assert ("parabolic" in galois_doc) == (preset != "galois_twobody_resonant")


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(rationals.filter(lambda mu: mu not in (0, -1)))
def test_galois_twobody_parabolic_is_ves(runner, tmp_path_factory, mu):
    out = tmp_path_factory.mktemp("mu")
    ve_doc, galois_doc = _ve_and_galois(runner, out, {"branch": "twobody", "mu": str(mu)})
    assert galois_doc["parabolic"] == ve_doc["parabolic"]
    assert galois_doc["mu"] == ve_doc["mu"]


@pytest.mark.parametrize("preset", ["ve_twobody_resonant", "ve_twobody_mu_half"])
def test_ve_tau0_defaults_from_mu(runner, tmp_path, preset):
    # tau0 = 1 for mu = -1 and 0 otherwise, as galois takes it: the preset
    # without tau0 (and w2, default 1) writes the preset's artifact
    cfg = _load(preset_path(preset))
    del cfg["tau0"], cfg["w2"]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    docs = []
    for config, out in ((preset, tmp_path / "preset"), (str(path), tmp_path / "default")):
        assert _run(runner, ["ve", "--config", config, "--out", str(out)]).exit_code == 0
        docs.append({k: v for k, v in _load(out / "ve.json").items() if k != "header"})
    assert docs[0] == docs[1]


def test_resonant_ve_prints_the_classified_operator(runner, tmp_path):
    assert _run(runner, ["ve", "--config", "ve_twobody_resonant",
                         "--out", str(tmp_path)]).exit_code == 0
    assert _load(tmp_path / "ve.json")["o3r_coefficients"] == [
        str(c) for c in o3r_operator().coeffs]


# A missing key, a value that the chain rejects, or an entry that is not
# exact is a usage error: exit 1 with a message, and no artifact
@pytest.mark.parametrize("command, cfg, message", [
    pytest.param("galois", {"branch": "twobody"}, "missing config key 'mu'", id="galois-no-mu"),
    pytest.param("galois", {"branch": "kepler"}, "missing config key 'a'", id="galois-no-a"),
    pytest.param("galois", {"branch": "twobody", "mu": "-1", "w2": "0"}, "w2 must be nonzero",
                 id="galois-resonant-w2-zero"),
    pytest.param("ve", {"mu": "1/2"}, "missing config key 'system'", id="ve-no-system"),
    pytest.param("ve", {"system": "twobody", "mu": "-1", "tau0": "0"},
                 "the resonant reduction needs tau0 = 1", id="ve-resonant-tau0"),
    pytest.param("factorize", {"matrix": [[0.5, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0],
                                          [0, 0, 0, 1]]}, "not exact", id="factorize-float"),
])
def test_bad_exact_config_is_rejected(runner, tmp_path, command, cfg, message):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    res = runner.invoke(main, [command, "--config", str(path), "--out", str(out)])
    assert res.exit_code == 1 and isinstance(res.exception, SystemExit)
    assert message in res.output
    assert not out.exists() or not any(out.iterdir())


# A config that is not JSON or not a JSON object, a system table that is
# not one, and a = 0 used to end in a traceback (a JSONDecodeError, a
# TypeError, an AttributeError and a ZeroDivisionError); each is a usage
# error
@pytest.mark.parametrize("command, text, message", [
    pytest.param("galois", '{"branch": "kepler", "a": "0"}', "a must be nonzero", id="galois-a0"),
    pytest.param("ve", '{"system": "kepler", "a": "0"}', "a must be nonzero", id="ve-a0"),
    pytest.param("factorize", '{"a": "0"}', "a must be nonzero", id="factorize-a0"),
    pytest.param("simulate", "[1, 2]", "config must be a JSON object", id="simulate-list"),
    pytest.param("ve", "[1, 2]", "config must be a JSON object", id="ve-list"),
    pytest.param("verify", '{"system": "kepler"', "config is not JSON", id="verify-not-json"),
    pytest.param("simulate", '{"system": [1, 2], "state": [1, 0, 0, 0, 0, 0]}',
                 "bad system table: it must be a JSON object", id="simulate-system-list"),
    pytest.param("sweep", '{"system": "kepler", "states": [[1, 0, 0, 0, 0, 0]]}',
                 "bad system table: it must be a JSON object", id="sweep-system-name"),
])
def test_bad_top_level_config_is_rejected(runner, tmp_path, command, text, message):
    path = tmp_path / "cfg.json"
    path.write_text(text)
    out = tmp_path / "out"
    res = runner.invoke(main, [command, "--config", str(path), "--out", str(out)])
    assert res.exit_code == 1 and isinstance(res.exception, SystemExit)
    assert message in res.output
    assert not out.exists() or not any(out.iterdir())


# A simulate config without "state" or "particular", a sweep config without
# "states" or "random", an integrator table that is a list and a threshold
# that is not a number used to end in a traceback (a KeyError, a KeyError, a
# TypeError, and a ValueError raised after the orbit was integrated); each
# is a usage error, raised before any orbit is integrated
@pytest.mark.parametrize("command, preset, edit, message", [
    pytest.param("simulate", "simulate_scatter", {"state": None},
                 'needs a "state" or a "particular" table', id="simulate-no-state"),
    pytest.param("sweep", "sweep_onebody", {"states": None},
                 'needs a "states" or a "random" table', id="sweep-no-states"),
    pytest.param("simulate", "simulate_twobody", {"integrator": [1, 2]},
                 "the integrator table must be a JSON object", id="integrator-list"),
    pytest.param("simulate", "simulate_scatter", {"thresholds": {"H": "x"}},
                 "threshold H must be a number, not 'x'", id="threshold-string"),
])
def test_malformed_numeric_config_is_rejected(runner, tmp_path, monkeypatch, command, preset,
                                              edit, message):
    cfg = _load(preset_path(preset))
    for key, value in edit.items():
        if value is None:
            cfg.pop(key)
        else:
            cfg[key] = value
    integrated = []
    monkeypatch.setattr(dynamics, "integrate", lambda *args: integrated.append(args))
    out = tmp_path / "out"
    res = runner.invoke(main, [command, "--config", _write_config(tmp_path, "cfg.json", cfg),
                               "--out", str(out)])
    assert res.exit_code == 1 and isinstance(res.exception, SystemExit)
    assert message in res.output
    assert not integrated
    assert not out.exists() or not any(out.iterdir())


# -- simulate ---------------------------------------------------------------

def test_simulate_invariant_line(runner, tmp_path):
    res = _run(runner, ["simulate", "--config", "simulate_invariant_line",
                        "--out", str(tmp_path)])
    assert res.exit_code == 0
    doc = _load(tmp_path / "report.json")
    assert doc["all_pass"] is True
    assert doc["checks"]["line"]["pass"] is True
    assert doc["max_line_deviation"] < 1e-9
    traj = _load(tmp_path / "trajectory.json")
    assert traj["header"]["seed"] == 0
    assert len(traj["t"]) == len(traj["y"])


def test_simulate_zero_energy_j_constancy(runner, tmp_path):
    res = _run(runner, ["simulate", "--config", "simulate_zero_energy",
                        "--out", str(tmp_path)])
    assert res.exit_code == 0
    doc = _load(tmp_path / "report.json")
    assert doc["monitor"]["j_constant_at_zero_energy"] is True
    assert doc["checks"]["j_drift"]["pass"] is True


def test_simulate_collision_exits_nonzero(runner, tmp_path):
    res = runner.invoke(main, ["simulate", "--config", "simulate_collision",
                               "--out", str(tmp_path)])
    assert res.exit_code == 1
    doc = _load(tmp_path / "report.json")
    assert doc["flagged_event"] == "collision_guard"
    assert len(doc["last_state"]) == 6 and doc["last_t"] < 50.0


def test_simulate_csv_export(runner, tmp_path):
    res = _run(runner, ["simulate", "--config", "simulate_invariant_line",
                        "--out", str(tmp_path), "--format", "csv",
                        "--seed", "3"])
    assert res.exit_code == 0
    lines = (tmp_path / "trajectory.csv").read_text().splitlines()
    assert lines[0].startswith("# ") and '"seed": 3' in lines[0]
    assert lines[1].split(",")[0] == "t"


# -- verify -----------------------------------------------------------------

def test_verify_twobody_rows(runner, tmp_path):
    res = _run(runner, ["verify", "--config", "verify_twobody",
                        "--out", str(tmp_path)])
    assert res.exit_code == 0
    doc = _load(tmp_path / "verify.json")
    names = [r["name"] for r in doc["rows"]]
    assert "{I1,I2} - I3" in names and "{J,H} - 2H" in names
    assert doc["all_pass"] is True
    assert all(r["residual"] < r["tol"] for r in doc["rows"])


def test_verify_onebody_extended_rows(runner, tmp_path):
    res = _run(runner, ["verify", "--config", "verify_onebody",
                        "--out", str(tmp_path)])
    assert res.exit_code == 0
    names = [r["name"] for r in _load(tmp_path / "verify.json")["rows"]]
    for expected in ("rank(J) = 2n", "{P,.} Casimir",
                     "extended-flow projection", "P drift"):
        assert expected in names


@pytest.mark.parametrize("suites, message", [
    # a typo used to write no row, all_pass true, and exit 0
    (["nope"], 'extended, not ["nope"]'),
    (["brackets", "extended", "Brackets"], 'extended, not ["brackets", "extended", "Brackets"]'),
    ([], "suites must be a non-empty list of brackets and extended, not []"),
    ("brackets", 'extended, not "brackets"'),
])
def test_verify_rejects_an_unknown_or_empty_suite_list(runner, tmp_path, suites, message):
    cfg = {**_load(preset_path("verify_onebody")), "suites": suites}
    out = tmp_path / "out"
    res = runner.invoke(main, ["verify", "--config", _write_config(tmp_path, "cfg.json", cfg),
                               "--out", str(out)])
    assert res.exit_code == 1 and isinstance(res.exception, SystemExit)
    assert message in res.output
    assert not out.exists() or not any(out.iterdir())


def test_verify_csv_rows(runner, tmp_path):
    # a name such as "{J,H} - 2H" holds a comma: each row still reads as 4 fields
    res = _run(runner, ["verify", "--config", "verify_twobody",
                        "--out", str(tmp_path), "--format", "csv"])
    assert res.exit_code == 0
    lines = (tmp_path / "verify.csv").read_text().splitlines()
    assert lines[0].startswith("# {") and lines[1] == "name,residual,tol,pass"
    rows = list(csv.reader(lines[2:]))
    assert [len(r) for r in rows] == [4] * len(rows)
    assert [r[0] for r in rows] == [r["name"] for r in _load(tmp_path / "verify.json")["rows"]]
    assert all(r[3] == "True" for r in rows)


def test_sweep_csv_rows(runner, tmp_path):
    res = _run(runner, ["sweep", "--config", "sweep_onebody",
                        "--out", str(tmp_path), "--format", "csv"])
    assert res.exit_code == 0
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert lines[0].startswith("# {") and lines[1] == "index,flagged_event,pass"
    runs = _load(tmp_path / "sweep.json")["runs"]
    assert list(csv.reader(lines[2:])) == [
        [str(r["index"]), r["flagged_event"] or "", str(r["pass"])] for r in runs]


# -- factorize --------------------------------------------------------------

def test_factorize_default(runner, tmp_path):
    res = _run(runner, ["factorize", "--config", "factorize_default",
                        "--out", str(tmp_path)])
    assert res.exit_code == 0
    doc = _load(tmp_path / "factorize.json")
    assert doc["det_Q"] == "-4" and doc["complete"] is True
    exps = {s["exponent"] for s in doc["solutions"]}
    assert {"(2*i)*t^2", "(-2*i)*t^2"} <= exps
    # the constant gauge block-diagonalizes the system
    B = doc["blocks"]
    for i in range(2):
        for j in range(2, 4):
            assert B[i][j] == "0" and B[j][i] == "0"


def test_factorize_plucker_only(runner, tmp_path):
    res = _run(runner, ["factorize", "--config", "factorize_plucker",
                        "--out", str(tmp_path)])
    assert res.exit_code == 0
    doc = _load(tmp_path / "factorize.json")
    assert "Q" not in doc
    for sol in doc["solutions"]:
        assert (sol["plucker_quadric"] == "0") == sol["decomposable"]


def test_factorize_malformed_matrix(runner, tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"matrix": [["1", "0"], ["0", "1"]]}))
    res = runner.invoke(main, ["factorize", "--config", str(cfg),
                               "--out", str(tmp_path)])
    assert res.exit_code != 0


@pytest.mark.parametrize("diagonal", [[1, 2, 3, 4], [1, 1, 1, 1]])
def test_factorize_dependent_kernel_columns(runner, tmp_path, diagonal):
    # six decomposable solutions give twelve kernel columns, the first four
    # of them dependent: Q is the first two kernels of rank 4, two invariant
    # planes, so the basis is complete and the blocks are diagonal
    cfg = tmp_path / "diag.json"
    cfg.write_text(json.dumps({"matrix": [[d if i == j else 0 for j in range(4)]
                                          for i, d in enumerate(diagonal)]}))
    res = runner.invoke(main, ["factorize", "--config", str(cfg),
                               "--out", str(tmp_path)])
    assert res.exit_code == 0 and "PASS" in res.output
    doc = _load(tmp_path / "factorize.json")
    assert doc["complete"] is True and doc["det_Q"] != "0"
    assert sum(s["decomposable"] for s in doc["solutions"]) == 6
    assert sorted(doc["blocks"][i][i] for i in range(4)) == sorted(map(str, diagonal))
    assert all(doc["blocks"][i][j] == "0" for i in range(4) for j in range(4) if i != j)


@pytest.mark.parametrize("c, a, C", [("19", "1/2888", "1/13718"),
                                     ("-19/4", "-2/361", "32/6859")])
def test_ve_and_factorize_at_large_denominators(runner, tmp_path, c, a, C):
    ve_cfg, f_cfg = tmp_path / "ve_cfg.json", tmp_path / "f_cfg.json"
    ve_cfg.write_text(json.dumps({"system": "kepler", "kappa": "1", "c": c}))
    f_cfg.write_text(json.dumps({"c": c}))
    assert _run(runner, ["ve", "--config", str(ve_cfg), "--out", str(tmp_path)]).exit_code == 0
    doc = _load(tmp_path / "ve.json")
    assert doc["a"] == a and doc["blocks_transformed"][5][4] == C
    assert doc["ve_matrix"][5][4] == C
    res = _run(runner, ["factorize", "--config", str(f_cfg), "--out", str(tmp_path)])
    assert res.exit_code == 0
    doc = _load(tmp_path / "factorize.json")
    assert doc["complete"] is True
    m = abs(Fraction(a))
    assert {f"({m}*i)*t^2", f"(-{m}*i)*t^2"} <= {s["exponent"] for s in doc["solutions"]}


# -- sweep ------------------------------------------------------------------

def test_sweep_preset(runner, tmp_path):
    blobs = []
    for sub in ("a", "b"):
        res = _run(runner, ["sweep", "--config", "sweep_onebody",
                            "--out", str(tmp_path / sub)])
        assert res.exit_code == 0
        blobs.append((tmp_path / sub / "sweep.json").read_bytes())
    # nothing machine-dependent is recorded, so reruns are byte-identical
    assert blobs[0] == blobs[1]
    doc = _load(tmp_path / "a" / "sweep.json")
    assert "threads" not in doc
    assert doc["all_pass"] is True
    assert [r["index"] for r in doc["runs"]] == [0, 1, 2, 3]
    assert all(r["checks"]["H"]["pass"] for r in doc["runs"])


@pytest.mark.parametrize("command, preset", [("simulate", "simulate_invariant_line"),
                                             ("sweep", "sweep_onebody")])
def test_unknown_integrator_key_is_rejected(runner, tmp_path, command, preset):
    cfg = _load(preset_path(preset))
    cfg["integrator"] = {**cfg.get("integrator", {}), "dense": False, "method": "RK45",
                         "rtol": 1e-9}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    res = runner.invoke(main, [command, "--config", str(path), "--out", str(out)])
    assert res.exit_code != 0
    assert "unknown integrator key(s): dense, method, rtol" in res.output
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("command, preset", [("simulate", "simulate_invariant_line"),
                                             ("sweep", "sweep_onebody")])
@pytest.mark.parametrize("table, entry, message", [
    pytest.param("thresholds", {"djdt_typo": 1e-9}, "unknown threshold key(s): djdt_typo",
                 id="threshold-key"),
    # there is one integrator, so a method entry is an unknown key
    pytest.param("integrator", {"method": "Euler"}, "unknown integrator key(s): method",
                 id="integrator-method"),
    pytest.param("integrator", {"t_end": -5}, "t_end must be positive",
                 id="integrator-t-end"),
    pytest.param("integrator", {"max_step": 0}, "max_step must be positive",
                 id="integrator-max-step"),
    # NaN and Infinity, as json writes them: the step loop never ended
    pytest.param("integrator", {"t_end": math.inf}, "t_end must be positive",
                 id="integrator-t-end-inf"),
    pytest.param("integrator", {"abs_tol": math.nan}, "tolerances must be positive",
                 id="integrator-abs-tol-nan"),
    pytest.param("integrator", {"rel_tol": math.nan}, "tolerances must be positive",
                 id="integrator-rel-tol-nan"),
    pytest.param("integrator", {"rel_tol": math.inf}, "tolerances must be positive",
                 id="integrator-rel-tol-inf"),
    # the guard never fires
    pytest.param("integrator", {"rho_min": math.nan}, "rho_min must be positive",
                 id="integrator-rho-min-nan"),
])
def test_bad_config_entry_is_rejected(runner, tmp_path, command, preset, table, entry,
                                      message):
    cfg = _load(preset_path(preset))
    cfg[table] = {**cfg.get(table, {}), **entry}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    res = runner.invoke(main, [command, "--config", str(path), "--out", str(out)])
    assert res.exit_code == 1 and isinstance(res.exception, SystemExit)
    assert message in res.output
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("command, preset", [("simulate", "simulate_invariant_line"),
                                             ("sweep", "sweep_onebody"),
                                             ("verify", "verify_twobody")])
@pytest.mark.parametrize("entry, message", [
    pytest.param({"kappa": 0}, "kappa must be nonzero", id="kappa-zero"),
    pytest.param({"m1": -1}, "masses must be positive", id="mass-negative"),
    pytest.param({"kind": "three-body"}, "unknown system kind", id="kind-unknown"),
    pytest.param({"kappa": "1+1i"}, "malformed ExactScalar token", id="kappa-malformed"),
    pytest.param({"kappa": "1e400"}, "malformed ExactScalar token", id="kappa-exponent"),
    pytest.param({"kappa": "1/0"}, "bad system table", id="kappa-zero-denominator"),
    pytest.param({"potential": {"num": [[0, 0, -1]], "den": [[0, 1, 0]]}},
                 "potential denominator is identically zero", id="den-zero"),
    pytest.param({"potential": {"den": [[0, 1, 1]]}}, "missing key 'num'", id="num-missing"),
    # used to end in a TypeError from float() of a complex H
    pytest.param({"potential": {"num": [[0, 0, "1+1*i"]], "den": [[0, 1, 1]]}},
                 "the potential's coefficients must be real", id="num-complex"),
    # used to end in a TypeError from indexing the string
    pytest.param({"potential": "coulomb"}, "bad system table", id="potential-name"),
])
def test_bad_system_entry_is_rejected(runner, tmp_path, command, preset, entry, message):
    cfg = _load(preset_path(preset))
    cfg["system"] = {**cfg["system"], **entry}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    res = runner.invoke(main, [command, "--config", str(path), "--out", str(out)])
    assert res.exit_code == 1 and isinstance(res.exception, SystemExit)
    assert message in res.output
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("command, preset, key", [("simulate", "simulate_scatter", "state"),
                                                  ("sweep", "sweep_onebody", "states")])
def test_start_on_the_collision_set_is_rejected(runner, tmp_path, command, preset, key):
    # rho = 0, where the vector field is not finite
    cfg = _load(preset_path(preset))
    state = [0.0, 0.0, 0.0, 0.1, 0.0, 0.0]
    cfg[key] = state if key == "state" else [cfg[key][0], state]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    res = runner.invoke(main, [command, "--config", str(path), "--out", str(out)])
    assert res.exit_code == 1 and isinstance(res.exception, SystemExit)
    assert "initial state on the collision set" in res.output
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("command, preset, key", [("simulate", "simulate_scatter", "state"),
                                                  ("sweep", "sweep_onebody", "states")])
def test_start_at_a_singularity_of_the_potential_is_rejected(runner, tmp_path, command, preset,
                                                             key):
    # W = 1/z at z = 0, off the collision set: the integrator's first step
    # used to divide by a zero step size
    cfg = _load(preset_path(preset))
    cfg["system"] = {**cfg["system"], "potential": {"num": [[0, 0, 1]], "den": [[1, 0, 1]]}}
    state = [1.0, 0.0, 0.0, 0.3, 1.2, 0.1]
    cfg[key] = state if key == "state" else [cfg[key][0], state]
    out = tmp_path / "out"
    res = runner.invoke(main, [command, "--config", _write_config(tmp_path, "cfg.json", cfg),
                               "--out", str(out)])
    assert res.exit_code == 1 and isinstance(res.exception, SystemExit)
    where = "state 1: " if key == "states" else ""
    assert f"Error: {where}the vector field is not finite at the initial state" in res.output
    assert not out.exists() or not any(out.iterdir())


def test_extended_suite_start_at_a_singularity_of_the_potential_is_rejected(runner, tmp_path):
    # W = 1/(z - 1/5) is singular at the suite's start (1, 0, 1/5)
    cfg = _load(preset_path("verify_onebody"))
    cfg["system"] = {**cfg["system"],
                     "potential": {"num": [[0, 0, 1]], "den": [[1, 0, 1], [0, 0, "-1/5"]]}}
    cfg.update(suites=["extended"], n_points=5)
    out = tmp_path / "out"
    res = runner.invoke(main, ["verify", "--config", _write_config(tmp_path, "cfg.json", cfg),
                               "--out", str(out)])
    assert res.exit_code == 1 and isinstance(res.exception, SystemExit)
    assert "Error: extended suite: the vector field is not finite at the initial state" in (
        res.output)
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("command, preset, key", [("simulate", "simulate_scatter", "state"),
                                                  ("sweep", "sweep_onebody", "states")])
@pytest.mark.parametrize("px", [0.1, -0.1])
def test_start_inside_the_collision_guard_is_rejected(runner, tmp_path, command, preset, key,
                                                      px):
    # 0 < rho = 1e-10 < rho_min, which the guard event, fired on a downward
    # crossing of rho_min, would never see
    cfg = _load(preset_path(preset))
    state = [1e-5, 0.0, 0.0, px, 0.0, 0.0]
    cfg[key] = state if key == "state" else [cfg[key][0], state]
    cfg["integrator"] = {**cfg.get("integrator", {}), "rho_min": 1e-4}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    res = runner.invoke(main, [command, "--config", str(path), "--out", str(out)])
    assert res.exit_code == 1 and isinstance(res.exception, SystemExit)
    assert "initial state inside the collision guard" in res.output
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("command, preset, key", [("simulate", "simulate_scatter", "state"),
                                                  ("sweep", "sweep_onebody", "states")])
@pytest.mark.parametrize("pz", [-1.0, 1.0])
def test_start_on_the_collision_guard_is_rejected(runner, tmp_path, command, preset, key, pz):
    # rho = 4 * 0.25 = rho_min exactly: inward (pz = -1) the guard event
    # fired at t = 0 and left no trajectory, and on the axis (pz = 1) rho
    # stays at rho_min
    cfg = _load(preset_path(preset))
    state = [0.0, 0.0, 0.25, 0.0, 0.0, pz]
    cfg[key] = state if key == "state" else [cfg[key][0], state]
    cfg["integrator"] = {**cfg.get("integrator", {}), "rho_min": 1.0, "t_end": 1.0}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    res = runner.invoke(main, [command, "--config", str(path), "--out", str(out)])
    assert res.exit_code == 1 and isinstance(res.exception, SystemExit)
    assert "initial state inside the collision guard, rho = 1.0" in res.output
    assert not out.exists() or not any(out.iterdir())


_SCATTER = [1.0, 0.0, 0.2, 0.3, 1.2, 0.1]


@pytest.mark.parametrize("preset, change, message", [
    # a short state used to end in the vector field's TypeError, a NaN in
    # the integrator's ValueError and a zero c or w2 in particular_solution's
    pytest.param("simulate_scatter", {"state": _SCATTER[:5]},
                 "state 0: a one-body state has 6 entries, not 5", id="simulate-short"),
    pytest.param("simulate_scatter", {"state": _SCATTER + [0.0]},
                 "state 0: a one-body state has 6 entries, not 7", id="simulate-long"),
    pytest.param("simulate_scatter", {"state": [math.nan] + _SCATTER[1:]},
                 "state 0: the initial state must be finite", id="simulate-nan"),
    pytest.param("simulate_scatter", {"state": ["1.0x"] + _SCATTER[1:]},
                 "state 0: the initial state must be a list of numbers", id="simulate-text"),
    pytest.param("sweep_onebody", {"states": [_SCATTER, _SCATTER[:5]]},
                 "state 1: a one-body state has 6 entries, not 5", id="sweep-short"),
    pytest.param("sweep_onebody", {"states": [_SCATTER, _SCATTER[:3] + [math.inf, 0, 0]]},
                 "state 1: the initial state must be finite", id="sweep-inf"),
    pytest.param("simulate_invariant_line", {"particular": {"c": 0}},
                 "state 0: the solution must not be constant: c must be nonzero",
                 id="particular-c-zero"),
    pytest.param("simulate_twobody", {"particular": {"w2": 0}},
                 "state 0: the solution must not be constant: w2 must be nonzero",
                 id="particular-w2-zero"),
    pytest.param("simulate_invariant_line", {"particular": {"w2": 1}},
                 "state 0: particular misses key 'c'", id="particular-c-missing"),
])
def test_bad_initial_state_is_rejected(runner, tmp_path, preset, change, message):
    cfg = {**_load(preset_path(preset)), **change}
    out = tmp_path / "out"
    res = runner.invoke(main, [preset.split("_")[0], "--config",
                               _write_config(tmp_path, "cfg.json", cfg), "--out", str(out)])
    assert res.exit_code == 1 and isinstance(res.exception, SystemExit)
    assert message in res.output
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("kind, random, message", [
    # no draw can pass these filters: the draw loop used to run forever
    ("one-body", {"n": 2, "rho_min": 1e9},
     "random: 0 of 2 states met the filters rho > 1000000000.0 and |p_theta| >= 0.0 in "
     "20000 draws"),
    ("one-body", {"n": 1, "min_p_theta": 100},
     "random: 0 of 1 states met the filters rho > 0.5 and |p_theta| >= 100.0 in 10000 draws"),
    ("two-body", {"n": 1, "rho_min": 1e9},
     "random: 0 of 1 states met the filters rho > 1000000000.0 in 10000 draws"),
])
def test_random_sweep_that_cannot_be_met_is_rejected(runner, tmp_path, kind, random, message):
    system = {"kind": kind, "kappa": 1, **({"m1": 1, "m2": 3} if kind == "two-body" else {})}
    cfg = {"system": system, "integrator": {"t_end": 1.0}, "random": random}
    out = tmp_path / "out"
    res = runner.invoke(main, ["sweep", "--config", _write_config(tmp_path, "cfg.json", cfg),
                               "--out", str(out)])
    assert res.exit_code == 1 and isinstance(res.exception, SystemExit)
    assert message in res.output
    assert not out.exists() or not any(out.iterdir())


def test_sweep_djdt_threshold_reads_the_dense_output(runner, tmp_path):
    # without dense output this orbit used to report a dJ/dt residual of 0
    cfg = _load(preset_path("sweep_onebody"))
    cfg["states"] = cfg["states"][:1]
    cfg["thresholds"] = {"djdt": 1e-12}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    res = runner.invoke(main, ["sweep", "--config", str(path), "--out", str(tmp_path)])
    assert res.exit_code == 1
    check = _load(tmp_path / "sweep.json")["runs"][0]["checks"]["djdt"]
    assert check["pass"] is False and 1e-12 < check["value"] < 1e-6


def _write_config(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def test_sweep_row_of_a_flagged_orbit(runner, tmp_path):
    # no preset sweeps an orbit that ends flagged: add simulate_collision's
    # start to a sweep and pin the row it gets
    coll = _load(preset_path("simulate_collision"))
    cfg = {**_load(preset_path("sweep_onebody")), "integrator": coll["integrator"]}
    cfg["states"] = [cfg["states"][0], coll["state"]]
    res = runner.invoke(main, ["sweep", "--config", _write_config(tmp_path, "cfg.json", cfg),
                               "--out", str(tmp_path / "sweep")])
    assert res.exit_code == 1
    doc = _load(tmp_path / "sweep" / "sweep.json")
    assert doc["all_pass"] is False and doc["runs"][0]["pass"] is True
    assert doc["runs"][1] == {"index": 1, "initial_state": coll["state"],
                              "flagged_event": "collision_guard", "pass": False}
    res = runner.invoke(main, ["simulate", "--config", "simulate_collision",
                               "--out", str(tmp_path / "simulate")])
    assert res.exit_code == 1
    assert _load(tmp_path / "simulate" / "report.json")["flagged_event"] == "collision_guard"


def test_integration_failure_report(runner, tmp_path, monkeypatch):
    # step-size underflow: simulate writes no trajectory, and both name the event
    def underflow(spec, s0, cfg):
        raise IntegrationError("integration failed", last_t=np.float64(0.5),
                               last_state=np.arange(6.0))

    monkeypatch.setattr(dynamics, "integrate", underflow)
    res = runner.invoke(main, ["simulate", "--config", "simulate_scatter",
                               "--out", str(tmp_path / "simulate")])
    assert res.exit_code == 1
    assert sorted(p.name for p in (tmp_path / "simulate").iterdir()) == ["report.json"]
    report = _load(tmp_path / "simulate" / "report.json")
    assert {k: report[k] for k in ("flagged_event", "last_t", "last_state", "all_pass")} == {
        "flagged_event": "integration_failure", "last_t": 0.5,
        "last_state": [0.0, 1.0, 2.0, 3.0, 4.0, 5.0], "all_pass": False}
    assert set(report) == {"system", "flagged_event", "last_t", "last_state", "all_pass",
                           "header"}
    res = runner.invoke(main, ["sweep", "--config", "sweep_onebody",
                               "--out", str(tmp_path / "sweep")])
    assert res.exit_code == 1
    rows = _load(tmp_path / "sweep" / "sweep.json")["runs"]
    assert rows[2] == {"index": 2, "initial_state": [0.8, 0.5, -0.2, 0.4, 1.1, 0.1],
                       "flagged_event": "integration_failure", "pass": False}


def test_sweep_line_threshold_checks_as_simulate_does(runner, tmp_path):
    # the invariant-line orbit through z = 1/2, swept and simulated
    line = _load(preset_path("simulate_invariant_line"))
    state = [0.0, 0.0, 0.5, 0.0, 0.0, 0.0]
    base = {k: line[k] for k in ("system", "integrator", "thresholds")}
    res = _run(runner, ["sweep", "--config",
                        _write_config(tmp_path, "sweep.json", {**base, "states": [state]}),
                        "--out", str(tmp_path / "sweep")])
    assert res.exit_code == 0
    row = _load(tmp_path / "sweep" / "sweep.json")["runs"][0]
    assert set(row) == {"index", "initial_state", "flagged_event", "drifts", "checks", "pass"}
    assert row["checks"]["line"]["pass"] is True
    res = _run(runner, ["simulate", "--config",
                        _write_config(tmp_path, "simulate.json", {**base, "state": state}),
                        "--out", str(tmp_path / "simulate")])
    assert res.exit_code == 0
    report = _load(tmp_path / "simulate" / "report.json")
    assert row["checks"] == report["checks"]
    assert row["drifts"] == report["monitor"]["drifts"]
    assert report["checks"]["line"]["value"] == report["max_line_deviation"]


def test_unknown_random_key_is_rejected(runner, tmp_path):
    cfg = {"system": {"kind": "one-body", "kappa": 1}, "integrator": {"t_end": 1.0},
           "random": {"n": 1, "rho_mn": 5}}
    out = tmp_path / "out"
    res = runner.invoke(main, ["sweep", "--config", _write_config(tmp_path, "cfg.json", cfg),
                               "--out", str(out)])
    assert res.exit_code == 1 and isinstance(res.exception, SystemExit)
    assert "unknown random key(s): rho_mn" in res.output
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("preset, key", [("verify_twobody", "n_probes"),
                                         ("verify_onebody", "n_points")])
def test_verify_zero_probe_count_is_rejected(runner, tmp_path, preset, key):
    cfg = {**_load(preset_path(preset)), key: 0}
    out = tmp_path / "out"
    res = runner.invoke(main, ["verify", "--config", _write_config(tmp_path, "cfg.json", cfg),
                               "--out", str(out)])
    assert res.exit_code == 1 and isinstance(res.exception, SystemExit)
    assert f"{key} must be at least 1" in res.output
    assert not out.exists() or not any(out.iterdir())


def test_sweep_random_states_deterministic(runner, tmp_path):
    cfg = tmp_path / "rand.json"
    cfg.write_text(json.dumps({
        "system": {"kind": "one-body", "kappa": 1},
        "random": {"n": 2, "rho_min": 0.8, "min_p_theta": 0.8},
        "integrator": {"t_end": 2.0},
        "thresholds": {"H": 1e-6},
    }))
    outs = []
    for sub in ("a", "b"):
        d = tmp_path / sub
        runner.invoke(main, ["sweep", "--config", str(cfg), "--out", str(d),
                             "--seed", "11"])
        outs.append(_load(d / "sweep.json")["runs"])
    assert [r["initial_state"] for r in outs[0]] == \
        [r["initial_state"] for r in outs[1]]


# -- exact artifacts ----------------------------------------------------------

# SHA-256 of the artifact of every exact preset.  The exact results are
# canonical, so a refactor of the exact layers must leave these bytes as
# they are.
EXACT_ARTIFACTS = {
    "factorize_default": (
        "factorize", "fdfe2927bd1d0bf10201a7fc939bdfb1a8a13650ed5083200a3fad654bf5d7c6"),
    "factorize_plucker": (
        "factorize", "451be343165af9e3c3ca366e9d7ad5be19f9c8e23f9ef0246cc1ca1b84af3f9c"),
    "galois_kepler": (
        "galois", "667eaba5c022250e49ad29528d763c0192a8199ee1619be4edbacf36134d8630"),
    "galois_twobody_generic": (
        "galois", "416f7c55e5e3eb402893d486e8ff8d44f61db7cce0368c2148624d1d1a7816b1"),
    "galois_twobody_resonant": (
        "galois", "09aa9de67fec07e75d757e7a8dd63f49d8398a5d324d5bebfc232fa1ef72a040"),
    "ve_kepler_a2": (
        "ve", "3e122bfd80d5f47baf3a2cb6c60b818feb544d359d55d2a0a1448f349747f929"),
    "ve_twobody_mu_half": (
        "ve", "d0f5641677d15aee00b95eaf3d4e7af7fbe11a61674c214afed8d79cd92dd97c"),
    "ve_twobody_resonant": (
        "ve", "8f9ca6f1d1c44b9280953d8d0aca870b02f98371a3034adff2299ccad11aaccb"),
}


@pytest.mark.parametrize("preset", sorted(EXACT_ARTIFACTS))
def test_exact_preset_artifact_digest(runner, tmp_path, preset):
    command, digest = EXACT_ARTIFACTS[preset]
    res = _run(runner, [command, "--config", preset, "--out", str(tmp_path)])
    assert res.exit_code == 0
    data = (tmp_path / f"{command}.json").read_bytes()
    assert hashlib.sha256(data).hexdigest() == digest


# With every import of scipy failing, imports the package, runs the given
# presets in one interpreter, and prints the exit code of each run and
# whether sympy was loaded after it.
_IMPORT_PROBE = """
import json, sys

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")

sys.meta_path.insert(0, NoScipy())
from heisenkep import cli, exactalg, galois, heisenmodel, variational

def loaded():
    return ["sympy" in sys.modules, "numpy" in sys.modules]

out, presets = sys.argv[1], sys.argv[2:]
seen = {"import": [0, *loaded()]}
for preset in presets:
    try:
        code = cli.main([preset.split("_")[0], "--config", preset, "--out", out],
                        standalone_mode=False)
    except SystemExit as e:
        code = e.code
    seen[preset] = [code or 0, *loaded()]
print(json.dumps(seen))
"""


def test_exact_subcommands_load_neither_scipy_nor_sympy(tmp_path):
    # the exact presets run first: numpy, once loaded, stays in sys.modules
    exact = sorted(EXACT_ARTIFACTS)
    numeric = sorted(NUMERIC_ARTIFACTS)
    packaged = {p.stem for p in preset_path("ve_kepler_a2").parent.glob("*.json")}
    assert packaged == {*exact, *numeric}
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(tmp_path), *exact, *numeric],
        check=True, stdout=subprocess.PIPE, text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    seen = json.loads(proc.stdout.splitlines()[-1])
    # the exact layers and the exact subcommands load neither numpy nor sympy
    exact_steps = ["import", *exact]
    assert {step: seen[step] for step in exact_steps} == dict.fromkeys(
        exact_steps, [0, False, False])
    # every numeric preset loads numpy (positive control), runs without
    # scipy, and loads no sympy: every evaluator, the extended lift's too, is
    # printed in the package
    assert {p: seen[p] for p in numeric} == {
        p: [NUMERIC_ARTIFACTS[p][1], False, True] for p in numeric}


def _loaded_by_import(module: str, candidates) -> str:
    """Which of the candidate modules a fresh interpreter has loaded after
    importing module."""
    probe = (f"import sys, {module}; print(sorted(m for m in {tuple(candidates)!r} "
             "if m in sys.modules))")
    proc = subprocess.run(
        [sys.executable, "-c", probe], check=True, stdout=subprocess.PIPE, text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    return proc.stdout.strip()


def test_galois_import_loads_no_numeric_layer():
    assert _loaded_by_import("heisenkep.galois",
                             ("heisenkep.dynamics", "numpy", "scipy", "sympy")) == "[]"


def test_exactalg_import_loads_no_numeric_layer():
    assert _loaded_by_import("heisenkep.exactalg", ("numpy", "scipy", "sympy")) == "[]"


# SHA-256 of every artifact of every numeric preset, with the exit code of
# its run (simulate_collision stops at the collision guard and exits 1).
# The floats come from the evaluators heisenmodel prints (sympy 1.14's
# lambdify text, on these Kepler systems) and the in-package RK45 on numpy,
# so the digests hold for the numpy version they were taken with (and the
# OpenBLAS kernel and libm variant: see the README).  The evaluator-source
# digests below hold for the sympy version of their oracle.
NUMERIC_VERSIONS = {"numpy": "2.4.6", "sympy": "1.14.0"}
NUMERIC_ARTIFACTS = {
    "simulate_collision": ("simulate", 1, {
        "report.json": "2878d261c3c3d5c22b32f10bcf9de33b79905329f12e635feab4c09746e39dc7",
        "trajectory.json": "c2529327ec36d78871b45fe870308ebdfb942ee025af21b21600f68ac9e4a269"}),
    "simulate_invariant_line": ("simulate", 0, {
        "report.json": "0b143d6dd8c9af0ede1056ec72ab476b8327ffb473410c652f9c760371f21fe2",
        "trajectory.json": "a903f23212ecb27f87584c75069bd4891d35c10e31cb98ecedaafeee27d20d03"}),
    "simulate_scatter": ("simulate", 0, {
        "report.json": "86df504cf2936fd4822cc143b5a08e967e7c0abb8e229659041dcbc586c4ec5d",
        "trajectory.json": "59b2db686cf583a2d86e25094ae05d8d355cc439b108854c8b85ea2a30099651"}),
    "simulate_twobody": ("simulate", 0, {
        "report.json": "4dd8a329d97ca67f88a97f059525726b6aa833173930601b2cd27b2072c9ad7b",
        "trajectory.json": "1382acd52dbd6819fa4e4864cd6a297ecb6bc0d62386ba6901ffecf4f012d18d"}),
    "simulate_zero_energy": ("simulate", 0, {
        "report.json": "1f1fb8ecb9c1693fc0a6e69ed1ccca99b8f271dcc40453df9b67c460898d0e0a",
        "trajectory.json": "551d5c1c2386bda3923bf3b7e675d76c7b284fea9db227eabfeb2fbd920c5a74"}),
    "sweep_onebody": ("sweep", 0, {
        "sweep.json": "19753258667f796b3769b9842b3462691cbc1fc7eb699597fe8a059170fa5cfd"}),
    "verify_onebody": ("verify", 0, {
        "verify.json": "acdd2314382e98fa8e2fb082e6f838f4add31efe8b0decda852c697182a67f27"}),
    "verify_twobody": ("verify", 0, {
        "verify.json": "2ebea321463a9af995432d61e59a68607f087aef4ace8fc82402e12128db081a"}),
}


def _require_versions(names):
    pinned = {n: NUMERIC_VERSIONS[n] for n in names}
    installed = {n: importlib.import_module(n).__version__ for n in names}
    if installed != pinned:
        pytest.skip(f"digests taken with {pinned}, installed {installed}")


@pytest.mark.parametrize("preset", sorted(NUMERIC_ARTIFACTS))
def test_numeric_preset_artifact_digest(runner, tmp_path, preset):
    _require_versions(("numpy",))
    command, code, digests = NUMERIC_ARTIFACTS[preset]
    res = _run(runner, [command, "--config", preset, "--out", str(tmp_path)])
    assert res.exit_code == code
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
           for p in sorted(tmp_path.iterdir())}
    assert got == digests


# SHA-256 of the generated source of the numeric evaluators.  The numeric
# artifacts depend on the term order of these expressions, which depends on
# sympy's printer only.  A Kepler spec's _h_fn and _rhs come from the
# package's copy of that printer's text, and _rhs_fn is the oracle's, from
# sympy itself.  _rhs is that text with its repeated subexpressions
# hoisted, as ast.unparse writes it.  A table potential's evaluators are
# the package's own text (heisenmodel._table_sources), pinned by no digest.
LAMBDIFY_SOURCES = {
    "kepler_1b": (
        lambda: SystemSpec("one-body", 1), {
            "_h_fn": "fc3cdfc6547b9bdf91d39715a3a73f3336d57e3f400f5ed9250af3f6f77010fc",
            "_rhs_fn": "de85eb79fc187bd6294c7eb134ff96a999626fdcdc9a289c8737234ec3985234",
            "_rhs": "c90bf9b51ff80a6c02a826f3c163f26e50082552557e7f0376a521f66ee0691f"}),
    "kepler_2b": (
        lambda: SystemSpec("two-body", 1, m1=1, m2=3), {
            "_h_fn": "b7dc2e7759a5fad0a1997ef9d0f25b9f59a51c1a0ed773af0e0e43ce1093b5e5",
            "_rhs_fn": "fd1d8b152035842906b86c9af4c47a2d74df0b0f77e5d6d2b4a893b9e5b223c2",
            "_rhs": "d8d3a9ba196a1e7ca46d1bfec1d3c5fc9a023f360ea0c56c142ce83d68718477"}),
    # W = (z^2 rho/3 + z - 2)/(rho^2 + 1)
    "table": (
        lambda: SystemSpec("one-body", 1, potential=PotentialSpec(
            [[1, 0, 1], [0, 0, -2], [2, 1, "1/3"]], [[0, 2, 1], [0, 0, 1]])), {
            "_rhs_fn": "f0b216f5785957b567f2675978d3da4dbf153ee65efec9fef2049877935a685c"}),
}


@pytest.mark.parametrize("name", sorted(LAMBDIFY_SOURCES))
def test_lambdified_evaluator_source_digest(name):
    _require_versions(("sympy",))
    build, digests = LAMBDIFY_SOURCES[name]
    spec = build()
    got = {fn: hashlib.sha256(inspect.getsource(
        rhs_fn(spec) if fn == "_rhs_fn" else getattr(spec, fn)).encode()).hexdigest()
        for fn in digests}
    assert got == digests

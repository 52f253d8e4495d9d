import hashlib
import json
from fractions import Fraction

import pytest
from click.testing import CliRunner

from heisenkep.cli import main, preset_path


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


def test_verify_csv_rows(runner, tmp_path):
    res = _run(runner, ["verify", "--config", "verify_twobody",
                        "--out", str(tmp_path), "--format", "csv"])
    assert res.exit_code == 0
    lines = (tmp_path / "verify.csv").read_text().splitlines()
    assert lines[1] == "name,residual,tol,pass"
    assert all(line.endswith(",True") for line in lines[2:])


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

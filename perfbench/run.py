"""Benchmark of the heisenkep analysis: one workload, one process, one thread.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s>
                             --trace <0|1> [--out <dir>]

Run from the root of a source checkout; the package is imported from its
``src`` directory.  With --trace 0 the run reports the end-to-end metrics,
timed on the host clock of hostclock.py, which takes out most of a shared
host's swings in speed; with --trace 1 it wraps the package's public functions and reports the
per-layer metrics instead.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics; the full
result (every operation, the seed and the versions) goes to
<out>/<workload>-s<seed>-t<trace>.json, and a traced run also writes its
spans to <out>/<workload>-s<seed>.trace.jsonl.
"""

from __future__ import annotations

import os

# one thread: keep the BLAS pools of numpy/scipy single-threaded
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from hostclock import REF_KERNEL_S, HostClock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
NAMES = ("resonant_verdict", "factorize_family", "orbit_sweep")
SETUP_PROBES = 3

# A fresh interpreter that imports the CLI and does the workload's one-time
# construction, on a host clock of its own; it prints the host-clock and the
# raw seconds of that part.  One sample of setup_s is the probe's wall time
# with that part counted on the host clock.
_PROBE = (
    "import sys, time; sys.path[:0] = [sys.argv[1], sys.argv[2]]\n"
    "import hostclock; clock = hostclock.HostClock().start()\n"
    "n0, t0 = clock.now(), time.perf_counter()\n"
    "import heisenkep.cli, workloads\n"
    "workloads.WORKLOADS[sys.argv[3]].setup(int(sys.argv[4]))\n"
    "part, part_raw = clock.now() - n0, time.perf_counter() - t0\n"
    "clock.stop(); print(part, part_raw)\n"
)


def _setup_seconds(workload: str, seed: int) -> tuple:
    """(setup samples on the host clock, raw wall samples)."""
    out, raw = [], []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", _PROBE, str(HERE), str(SRC),
                               workload, str(seed)],
                              check=True, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        raw.append(time.perf_counter() - t0)
        part, part_raw = map(float, proc.stdout.split())
        out.append(raw[-1] - part_raw + part)
    return out, raw


def _per_layer(tracer, rounds: int, import_s: float) -> dict:
    """Per-round totals of the traced spans and counts."""
    tot = lambda name: tracer.total.get(name, 0.0) / rounds
    calls = lambda name: tracer.calls.get(name, 0) // rounds
    count = lambda name: tracer.counts.get(name, 0) // rounds
    nfev = tracer.counts.get("dynamics.nfev", 0)
    integrate = tracer.total.get("dynamics.integrate", 0.0)
    m = {
        "cli.import_s": (import_s, "s"),
        "heisenmodel.spec_build_s": (tracer.total.get("heisenmodel.spec_build", 0.0), "s"),
        "heisenmodel.bracket_s": (tot("heisenmodel.bracket"), "s"),
        "dynamics.integrate_s": (tot("dynamics.integrate"), "s"),
        "dynamics.monitor_s": (tot("dynamics.monitor"), "s"),
        "dynamics.nfev": (count("dynamics.nfev"), "count"),
        "dynamics.steps": (count("dynamics.steps"), "count"),
        "dynamics.us_per_eval": (1e6 * integrate / nfev if nfev else 0.0, "us"),
        "variational.reduction_s": (tot("variational.reduction"), "s"),
        "variational.ve_along_s": (tot("variational.ve_along"), "s"),
        "variational.gauge_transform_s": (tot("variational.gauge_transform"), "s"),
    }
    for stage in ("exp_solutions", "sym_power", "singularity_analysis",
                  "exterior_square", "system_exp_solutions", "factorization_basis"):
        m[f"galois.{stage}_s"] = (tot(f"galois.{stage}"), "s")
    for stage in ("sym_power", "system_exp_solutions"):
        m[f"galois.{stage}.self_s"] = (
            tracer.self_time.get(f"galois.{stage}", 0.0) / rounds, "s")
    m["exactalg.matrix_s"] = (tot("exactalg.matrix"), "s")
    m["exactalg.matrix_calls"] = (calls("exactalg.matrix"), "count")
    m["exactalg.poly_gcd_s"] = (tot("exactalg.poly_gcd"), "s")
    m["exactalg.poly_gcd_calls"] = (calls("exactalg.poly_gcd"), "count")
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def _versions() -> dict:
    import numpy
    import scipy
    import sympy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "sympy": sympy.__version__}


def run_workload(name: str, seed: int, seconds: float, trace: bool, out_dir: Path) -> dict:
    setup, raw_setup = (None, None) if trace else _setup_seconds(name, seed)
    sys.path[:0] = [str(HERE), str(SRC)]
    t0 = time.perf_counter()
    import heisenkep.cli  # noqa: F401  (the import every subcommand pays)
    import_s = time.perf_counter() - t0
    import heisenkep
    if not Path(heisenkep.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"heisenkep imported from {heisenkep.__file__}, not {SRC}")
    import sympy
    import workloads
    from spans import Tracer

    wl = workloads.WORKLOADS[name]
    tracer = Tracer(trace)
    ctx = wl.setup(seed, tracer)   # before install: warm-up calls are not spans
    tracer.install()
    # untraced runs time on the host clock; traced runs on plain wall time
    clock = None if trace else HostClock().start()
    now = workloads.now = clock.now if clock else time.perf_counter
    try:
        inputs = wl.inputs(seed)
        ops, round_s, raw_round_s = [], [], []
        start, raw_start = now(), time.perf_counter()
        while not round_s or time.perf_counter() - raw_start < seconds:
            # every round starts from an empty sympy cache, as the first did
            # and as each run of a subcommand does, so that rounds cost alike
            sympy.core.cache.clear_cache()
            r0, raw_r0 = now(), time.perf_counter()
            for i, inp in enumerate(inputs):
                tracer.op = f"{len(round_s)}.{i}"
                rec = {"round": len(round_s), "index": i,
                       "input": {k: str(v) for k, v in inp.items()}}
                t_op = now()
                try:
                    rec["seconds"], result = wl.run(ctx, inp, tracer)
                except Exception:  # a failed operation is counted, not fatal
                    rec["seconds"] = now() - t_op
                    rec["error"] = traceback.format_exc(limit=3)
                    rec["problems"] = []
                else:
                    rec["problems"] = wl.check(inp, result)
                ops.append(rec)
            round_s.append(now() - r0)
            raw_round_s.append(time.perf_counter() - raw_r0)
        wall, raw_wall = now() - start, time.perf_counter() - raw_start
    finally:
        tracer.uninstall()
        if clock:
            clock.stop()

    rounds = len(round_s)
    failed = sum(1 for r in ops if r["problems"] or "error" in r)
    # per round: time in the program per operation.  A per-operation median
    # would jump between the seeded orbits, whose costs sit at the middle of
    # orbit_sweep's spread.
    per_op = [sum(r["seconds"] for r in ops if r["round"] == k) / len(inputs)
              for k in range(rounds)]
    host = None
    if trace:
        metrics = _per_layer(tracer, rounds, import_s)
        out_dir.mkdir(parents=True, exist_ok=True)
        tracer.write(out_dir / f"{name}-s{seed}.trace.jsonl")
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "run_s": {"value": statistics.median(round_s), "unit": "s"},
            "op_s": {"value": statistics.median(per_op), "unit": "s"},
            "ops_per_s": {"value": len(ops) / wall, "unit": "1/s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024, "unit": "MB"},
        }
        k = clock.samples
        host = {"ref_kernel_s": REF_KERNEL_S, "ticks": len(k),
                "kernel_quartiles_s": statistics.quantiles(k, n=4),
                "handler_s": clock.overhead,
                "raw_setup_s": raw_setup, "raw_wall_s": raw_wall, "raw_round_s": raw_round_s,
                "raw_run_s": statistics.median(raw_round_s)}
    return {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "env": _versions(), "rounds": rounds, "wall_s": wall,
        "setup_samples_s": setup, "host_clock": host,
        "correct": not any(r["problems"] for r in ops),
        "attempted": len(ops), "failed": failed,
        "metrics": metrics, "ops": ops,
    }


def _run_all(args) -> int:
    """Each workload in its own process, then one combined line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--out", str(args.out)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit code {proc.returncode}", file=sys.stderr)
            return 1
        res = json.loads(lines[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for k, v in res["metrics"].items():
            combined["metrics"][f"{name}.{k}"] = v
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, default=HERE / "results")
    args = ap.parse_args(argv)
    if not (SRC / "heisenkep" / "__init__.py").is_file():
        print(f"no heisenkep sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)

    res = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.out)
    args.out.mkdir(parents=True, exist_ok=True)
    path = args.out / f"{args.workload}-s{args.seed}-t{args.trace}.json"
    path.write_text(json.dumps(res, indent=1, sort_keys=True) + "\n")

    print(f"# workload {res['workload']} seed {res['seed']} rounds {res['rounds']} "
          f"attempted {res['attempted']} failed {res['failed']} -> {path}")
    print("# env " + json.dumps(res["env"], sort_keys=True))
    if res["host_clock"]:
        h = res["host_clock"]
        print(f"# host clock: kernel median {h['kernel_quartiles_s'][1] * 1e3:.3f} ms "
              f"(reference {h['ref_kernel_s'] * 1e3:.3f} ms) over {h['ticks']} ticks; "
              f"raw wall run_s {h['raw_run_s']:.4g} s")
    for r in [r for r in res["ops"] if r["problems"] or "error" in r][:5]:
        why = r.get("error", "").strip().splitlines()[-1:] or r["problems"]
        print(f"# FAILED op {r['round']}.{r['index']} {r['input']}: {'; '.join(why)}")
    for k, v in res["metrics"].items():
        print(f"{k} {v['value']!r} {v['unit']}")
    print(json.dumps({k: res[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

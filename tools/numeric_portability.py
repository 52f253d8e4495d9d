"""Which numeric preset artifacts move with the BLAS kernel or the libm variant.

    python tools/numeric_portability.py [preset ...]

Runs every numeric preset (simulate_*, sweep_*, verify_*), or the ones named,
through the CLI in a child process: once with the inherited environment, then
once under each setting below.  Each setting is an environment variable of
that child only:

    OPENBLAS_CORETYPE=SkylakeX|Haswell|Sandybridge   the OpenBLAS kernel
    GLIBC_TUNABLES=glibc.cpu.hwcaps=-AVX2,-FMA,-AVX512F   glibc's non-FMA libm

For each setting it prints the OpenBLAS core the child reports and every
artifact whose SHA-256 (or the run's exit code) differs from the inherited
run.  It changes nothing outside its temporary directory.  Not a test: on a
machine without AVX-512, forcing SkylakeX is what moves.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PRESETS = ROOT / "src" / "heisenkep" / "presets"
SETTINGS = [("OPENBLAS_CORETYPE", core) for core in ("SkylakeX", "Haswell", "Sandybridge")]
SETTINGS.append(("GLIBC_TUNABLES", "glibc.cpu.hwcaps=-AVX2,-FMA,-AVX512F"))

CORE_PROBE = """
import ctypes, glob, os, numpy
libs = glob.glob(os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)),
                              "numpy.libs", "libscipy_openblas*.so"))
name = "?"
for lib in libs:
    for symbol in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename"):
        fn = getattr(ctypes.CDLL(lib), symbol, None)
        if fn is not None:
            fn.argtypes, fn.restype = [], ctypes.c_char_p
            name = fn().decode()
print(name)
"""


def child_env(extra: dict) -> dict:
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    return {**os.environ, "PYTHONPATH": path, **extra}


def openblas_core(extra: dict) -> str:
    proc = subprocess.run([sys.executable, "-c", CORE_PROBE], env=child_env(extra),
                          stdout=subprocess.PIPE, text=True)
    return proc.stdout.strip() or "?"


def digests(preset: str, extra: dict) -> dict:
    """{artifact: sha256} of one preset run, with its exit code as "exit"."""
    with tempfile.TemporaryDirectory() as out:
        proc = subprocess.run(
            [sys.executable, "-m", "heisenkep.cli", preset.split("_")[0], "--config", preset,
             "--out", out], env=child_env(extra), stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL)
        got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in sorted(Path(out).iterdir())}
    return {"exit": proc.returncode, **got}


def moved(base: dict, other: dict) -> list:
    return [k for k in sorted(set(base) | set(other)) if base.get(k) != other.get(k)]


def main(argv: list) -> int:
    presets = argv or sorted(p.stem for p in PRESETS.glob("*.json")
                             if p.stem.split("_")[0] in ("simulate", "sweep", "verify"))
    print(f"inherited environment: OpenBLAS {openblas_core({})}")
    base = {preset: digests(preset, {}) for preset in presets}
    for key, value in SETTINGS:
        extra = {key: value}
        runs = {preset: digests(preset, extra) for preset in presets}
        changes = [f"{preset}/{k}" for preset in presets for k in moved(base[preset], runs[preset])]
        print(f"\n{key}={value}: OpenBLAS {openblas_core(extra)}, "
              f"{len(changes)} of {sum(len(d) for d in base.values())} digests and exit codes moved")
        for change in changes:
            print(f"  moved {change}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

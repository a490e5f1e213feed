"""Every command writes the same bytes whatever SIMD and BLAS kernels the CPU
offers: a GPS-point corpus is made and read once as the host runs numpy and
OpenBLAS, and once with numpy's dispatched CPU targets switched off
(NPY_DISABLE_CPU_FEATURES) and OpenBLAS on its generic kernel
(OPENBLAS_CORETYPE).  That holds because every math function of an array
element goes through geometry.libm, every sum is a math.fsum and numpy does
only correctly rounded elementwise arithmetic."""

import os
import platform
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from geoscale import cli

try:
    from numpy._core import _multiarray_umath as _umath
except ImportError:   # numpy 1.x
    from numpy.core import _multiarray_umath as _umath

# OpenBLAS's baseline kernel for each architecture the CI runs on
GENERIC_BLAS = {"x86_64": "Prescott", "amd64": "Prescott",
                "aarch64": "ARMV8", "arm64": "ARMV8"}

STUDY = "--study=-3.0,50.0,-2.31,50.345"
INPUTS = ["--tweets", "in/tweets.jsonl", "--population", "in/population.geojson",
          "--land", "in/land.geojson", STUDY, "--min-user-tweets", "1"]
REPLICATES = ["--subset-fraction", "0.1", "--replicates", "400", "--seed", "1"]
COMMANDS = [
    ("synth", ["synth", STUDY, "--x-gen", "6", "--b-true", "0.065", "--c-true", "4.0",
               "--pop-log10-mean", "1.0", "--pop-log10-sigma", "0.4", "--seed", "7",
               "--out", "in"]),
    ("fit", ["fit", *INPUTS, "--x", "6", "--out", "fit"]),
    ("anomaly", ["anomaly", *INPUTS, "--x", "6", "--kind", "both", "--geojson",
                 "--out", "anomaly"]),
    ("subarea", ["validate", *INPUTS, "--x", "12", "--mode", "subarea",
                 "--replicates", "40", "--seed", "1", "--out", "subarea"]),
    ("nonadjacent", ["validate", *INPUTS, "--x", "12", "--mode", "subset_nonadjacent",
                     *REPLICATES, "--out", "nonadjacent"]),
    ("subset", ["validate", *INPUTS, "--x", "12", "--mode", "subset", *REPLICATES,
                "--out", "subset"]),
    ("scan", ["scan", *INPUTS, "--out", "scan"]),
]

# Runs each command of sys.argv[1] (a repr of COMMANDS) through cli.main in
# the working directory, its printout in <name>.out and <name>.err; prints
# each exit code, then the dispatched numpy targets left on.
SCRIPT = """
import ast, contextlib, sys
from geoscale.cli import main
try:
    from numpy._core import _multiarray_umath as umath
except ImportError:
    from numpy.core import _multiarray_umath as umath
for name, argv in ast.literal_eval(sys.argv[1]):
    with open(name + ".out", "w") as out, open(name + ".err", "w") as err, \\
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    print(name, code)
print(*[t for t in getattr(umath, "__cpu_dispatch__", ())
        if umath.__cpu_features__.get(t)])
"""


def run_all(where: Path, **env_vars) -> tuple[str, dict]:
    """Run COMMANDS in one child under the environment plus env_vars.
    Returns its printout and the bytes of every file it wrote, by path."""
    where.mkdir()
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, **env_vars, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-c", SCRIPT, repr(COMMANDS)], cwd=where,
                         env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    files = {f.relative_to(where).as_posix(): f.read_bytes()
             for f in sorted(where.rglob("*")) if f.is_file()}
    return run.stdout, files


def test_outputs_hold_without_simd_and_on_the_generic_blas_kernel(tmp_path):
    present = [t for t in getattr(_umath, "__cpu_dispatch__", [])
               if _umath.__cpu_features__.get(t)]
    generic = GENERIC_BLAS.get(platform.machine().lower())
    if not present and generic is None:
        pytest.skip("no numpy SIMD target to switch off and no known generic "
                    f"OpenBLAS kernel on {platform.machine()}")
    off = {"NPY_DISABLE_CPU_FEATURES": " ".join(present)} if present else {}
    if generic is not None:
        off["OPENBLAS_CORETYPE"] = generic

    with ThreadPoolExecutor(2) as pool:   # the two children side by side
        host = pool.submit(run_all, tmp_path / "host")
        switched_off = pool.submit(run_all, tmp_path / "off", **off)
        (host_out, host_files), (off_out, off_files) = host.result(), switched_off.result()

    codes = [f"{name} 0" for name, _ in COMMANDS]
    assert host_out.splitlines()[:-1] == codes
    assert off_out.splitlines()[:-1] == codes
    assert off_out.splitlines()[-1] == ""   # every dispatched target was off
    assert "anomaly/correlation.json" in host_files
    assert "scan/fits.csv" in host_files
    assert [name for name in sorted(host_files.keys() | off_files.keys())
            if host_files.get(name) != off_files.get(name)] == []

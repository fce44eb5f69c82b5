"""``tools/digest.py`` prints the lines checked in as ``tools/digest.expected``.

Float results depend on the numpy version, the BLAS library and the
OpenBLAS kernel set it picks for the CPU, so the file's ``#`` header names
all three; on a machine where they differ the test fails and says that the
file is for another machine. A change that means to move outputs
regenerates the file, and its diff shows which digest lines moved:

    PYTHONPATH=src python3 tests/test_digest.py > tools/digest.expected

The digest runs with ``OPENBLAS_NUM_THREADS=1``, so ``usable_cpus()`` counts
every CPU, and on a machine with two or more its multi-chunk forwards run
their chunks on threads. The CLI pins one BLAS thread itself, but the
digest's library lines (the trained weights and the OCI ``predict`` and
``evaluate`` lines) run at the caller's BLAS thread count, which also
decides how a product rounds where its width is not a whole number of
kernel tiles, so the variable stays.
"""

import ctypes
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
EXPECTED = ROOT / "tools" / "digest.expected"


def _openblas_core() -> str | None:
    """The OpenBLAS core name of the library numpy loaded, if it is one."""
    try:
        with open("/proc/self/maps") as f:
            libs = {line.split()[-1] for line in f if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        for symbol in ("scipy_openblas_get_corename64_",
                       "openblas_get_corename64_", "openblas_get_corename"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_char_p
                return fn().decode()
    return None


def machine_header() -> list[str]:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return [f"# numpy {np.__version__}",
            f"# blas {blas.get('name')} {blas.get('version')}",
            f"# openblas core {_openblas_core()}"]


def run_digest() -> list[str]:
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, str(ROOT / "tools" / "digest.py")],
                         env={**os.environ, "PYTHONPATH": path,
                              "OPENBLAS_NUM_THREADS": "1"},
                         capture_output=True, text=True, timeout=600)
    assert out.returncode == 0, out.stderr
    return out.stdout.splitlines()


def test_digest_matches_the_expected_file():
    lines = EXPECTED.read_text().splitlines()
    header = [line for line in lines if line.startswith("#")]
    expected = [line for line in lines if not line.startswith("#")]
    assert header == machine_header(), (
        f"{EXPECTED} is for another machine: it was taken on {header}, "
        f"this machine has {machine_header()}")
    got = run_digest()
    for i, (want, have) in enumerate(zip(expected, got), 1):
        assert have == want, (f"digest line {i} differs:\n"
                              f"  expected {want}\n  got      {have}")
    assert len(got) == len(expected), (
        f"digest printed {len(got)} lines, {EXPECTED.name} holds "
        f"{len(expected)}")


if __name__ == "__main__":
    print("\n".join(machine_header() + run_digest()))

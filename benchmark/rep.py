"""One repetition of a workload in a fresh Python process.

Usage: python3 benchmark/rep.py WORKLOAD SEED TRACE SCALE WORK_DIR

Pins BLAS to one thread before numpy is imported, imports the program
from ``src/`` of the checkout, generates the seeded inputs, then marks the
end of set-up and runs the workload, timing its operations with
``calibrate.Laps``.  Prints one JSON record as the last
line of standard output.  Exits 3 if the program cannot be imported.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import ctypes  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MODULES = ("geometry", "laplace", "coefficient", "potentials", "solver",
           "verification", "cli")


def import_program():
    """The program's modules, imported from this checkout only."""
    sys.path.insert(0, str(SRC))
    bd = SimpleNamespace(**{m: importlib.import_module(f"bdies2d.{m}")
                            for m in MODULES})
    origin = Path(bd.cli.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"bdies2d imported from {origin}, not {SRC}")
    return bd


def blas_threads() -> dict:
    """Thread count each loaded OpenBLAS library reports."""
    found = {}
    with open("/proc/self/maps") as maps:
        libs = {line.split()[-1] for line in maps if "openblas" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            if hasattr(lib, sym):
                found[Path(path).name] = int(getattr(lib, sym)())
                break
    return found


def machine() -> dict:
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
    }


def run_rep(bd, name: str, seed: int, trace: bool, scale: str,
            work_dir: Path) -> dict:
    """Set up, run and check one repetition inside this process."""
    from calibrate import Laps
    from tracing import Probes
    from workloads import WORKLOADS

    work_dir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[name](bd, scale, seed, work_dir)
    workload.prepare()
    ready_at = time.monotonic()
    probes = Probes(bd, trace)
    probes.install()
    try:
        laps = Laps()
        workload.run(laps.lap)
        layers = probes.tracer.metrics() if trace else None
    finally:
        probes.restore()
    outcome = workload.check()
    u_digits, psi_digits = outcome.digits()
    return {
        "ready_at": ready_at,
        "traced": trace,
        "wall_s": laps.wall_s,
        "wall_raw_s": laps.wall_raw_s,
        "cpu_s": laps.cpu_s,
        "calib_s": laps.kernel_s,
        **probes.seconds,
        "u_digits": u_digits,
        "psi_digits": psi_digits,
        "ops": outcome.ops,
        "failed_ops": outcome.failed_ops(),
        "failures": outcome.failures,
        "layers": layers,
    }


def main(argv) -> int:
    name, seed, trace, scale, work_dir = argv
    try:
        bd = import_program()
    except ImportError as exc:
        print(f"cannot import the program: {exc}", file=sys.stderr)
        return 3
    record = run_rep(bd, name, int(seed), trace == "1", scale, Path(work_dir))
    record["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF)
                             .ru_maxrss / 1024.0)
    record["machine"] = machine()
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

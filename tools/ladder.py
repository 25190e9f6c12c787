"""Record assembly and solve cost and accuracy on a fixed config ladder.

Every config solves the manufactured problem ``exp_saddle`` once per
family, each in a fresh subprocess with one BLAS thread, and records:
assembly and solve seconds, peak RSS, ``err_u_max``, ``err_psi_max``, the
trace defect, the number of polar rules the volume pipeline built and
their node total (from the per-target node counts of the rule tables
``potentials`` gets from ``polar_rules``),
plus the seconds taken to import bdies2d (numpy already loaded) and the
``scipy.*`` subpackages loaded by the end of the run.
After the solve it records the spectral diagnostics of ``bdies2d solve``
and their seconds: ``cond`` and ``cond_s`` for the system's condition
number, ``remainder_block_norm`` and ``fredholm_s`` for
``verification.fredholm_diagnostic``; peak RSS is read before them.

One call can record several source trees, each into its own named
section of a JSON file, next to the machine it ran on and the tree's
``src_code_lines`` (``code_lines``); other sections of the file are kept.
The trees run interleaved: config by config and family by family, each
repeat runs every tree once, in the given order on even repeats and
reversed on odd ones, so host drift during the call reaches every tree
alike.  A row holds the median of each timing column over the repeats
and their samples under ``samples``; the other columns are those of the
first repeat, and the call fails if a later repeat disagrees::

    python tools/ladder.py --out BENCH.json --tree change=src \
        --tree parent=OTHER/src --repeats 3

It is a record, not a gate.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
DISK = {"kind": "disk", "center": (0.0, 0.0), "radius": 0.4}
STAR = {"kind": "star", "center": (0.0, 0.0), "cos_coeffs": (0.3, 0.0, 0.03)}
NONCONVEX = {"kind": "star", "center": (0.0, 0.0),
             "cos_coeffs": (0.3, 0.05, 0.0, 0.0, 0.0, 0.08)}
CONFIGS = [("disk", DISK, (64, 16, 8)), ("disk", DISK, (128, 32, 12)),
           ("disk", DISK, (256, 64, 24)), ("star", STAR, (128, 32, 12)),
           ("star", STAR, (256, 64, 24)),
           ("nonconvex_star", NONCONVEX, (128, 32, 12)),
           ("nonconvex_star", NONCONVEX, (256, 64, 24)),
           # memory against n_boundary: the Laplace blocks dominate here
           ("disk", DISK, (512, 32, 12)), ("disk", DISK, (1024, 32, 12)),
           ("disk", DISK, (2048, 32, 12))]
FAMILIES = ("x", "y")
#: Columns that vary from run to run; a row holds their medians.
VARYING = ("build_s", "assemble_s", "solve_s", "cond_s", "fredholm_s",
           "peak_rss_mb", "import_bdies2d_s")


def run_one(domain: dict, resolution, family: str) -> dict:
    """Solve exp_saddle on one config and family in this process."""
    import resource
    import time

    import numpy as np

    t_import = time.perf_counter()
    from bdies2d import potentials
    from bdies2d.geometry import DomainSpec, build_curve, build_domain_grid
    from bdies2d.solver import assemble_system, solve_dirichlet
    from bdies2d.verification import fredholm_diagnostic, manufactured_case
    import_s = time.perf_counter() - t_import

    # every rule the volume pipeline builds comes from this one call, one
    # table per target set
    tables, build_rules = [], potentials.polar_rules

    def counted(*args, **kwargs):
        built = build_rules(*args, **kwargs)
        tables.append(built)
        return built

    potentials.polar_rules = counted

    nb, nt, ns = resolution
    spec = DomainSpec(**domain)
    case = manufactured_case("exp_saddle")
    t0 = time.perf_counter()
    curve, grid = build_curve(spec, nb), build_domain_grid(spec, nt, ns)
    t1 = time.perf_counter()
    system = assemble_system(curve, grid, case.coeff, family)
    t2 = time.perf_counter()
    phi0 = case.phi0_on(curve)
    sol = solve_dirichlet(system.with_data(case.f_field_on(grid), phi0))
    t3 = time.perf_counter()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    cond = sol.system.cond
    t4 = time.perf_counter()
    fredholm = fredholm_diagnostic(sol)
    t5 = time.perf_counter()

    u_ex = case.u(grid.points)
    # per-target node counts; rule_nodes also takes a source tree's list
    # of rules from before the tables
    counts = [potentials.rule_nodes(t)[2] for t in tables]
    return {
        "build_s": t1 - t0, "assemble_s": t2 - t1, "solve_s": t3 - t2,
        "cond_s": t4 - t3, "fredholm_s": t5 - t4, "peak_rss_mb": peak_rss_mb,
        "err_u_max": float(np.abs(sol.u.values - u_ex).max()
                           / np.abs(u_ex).max()),
        "err_psi_max": float(np.abs(sol.psi.values
                                    - case.psi_on(curve)).max()),
        "trace_defect": float(np.abs(sol.u.at(curve.points)
                                     - phi0.values).max()),
        "rules": sum(len(c) for c in counts),
        "rule_nodes": int(sum(c.sum() for c in counts)),
        "cond": cond,
        "remainder_block_norm": fredholm["remainder_block_norm"],
        "import_bdies2d_s": import_s,
        "scipy_modules": sorted({".".join(m.split(".")[:2])
                                 for m in sys.modules
                                 if m.startswith("scipy.")
                                 and not m.startswith("scipy._")}),
    }


def code_lines(src: Path) -> int:
    """Lines of ``bdies2d/*.py`` under ``src`` that are not blank, not
    comments and not inside docstrings (found with ``ast``)."""
    total = 0
    for path in sorted((src / "bdies2d").glob("*.py")):
        text = path.read_text()
        docs = set()
        for node in ast.walk(ast.parse(text)):
            if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                  ast.AsyncFunctionDef))
                    and ast.get_docstring(node, clean=False) is not None):
                doc = node.body[0]
                docs.update(range(doc.lineno, doc.end_lineno + 1))
        total += sum(1 for i, line in enumerate(text.splitlines(), 1)
                     if i not in docs and line.strip()
                     and not line.lstrip().startswith("#"))
    return total


def machine() -> dict:
    import numpy
    import scipy

    model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"cpu": model or platform.processor(), "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas_threads": 1}


def run_job(src: Path, job: dict) -> dict:
    """One config and family from source tree ``src``, in a fresh process."""
    env = dict(os.environ, PYTHONPATH=str(src.resolve()),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    out = subprocess.run([sys.executable, __file__, "--one", json.dumps(job)],
                         env=env, capture_output=True, text=True)
    if out.returncode:
        raise RuntimeError(f"{src}: {job}\n{out.stderr}")
    return json.loads(out.stdout)


def merge(samples: list) -> dict:
    """One row from the repeats of a config, family and tree: the medians
    of the ``VARYING`` columns, their samples, and the first repeat's
    other columns."""
    first = samples[0]
    for other in samples[1:]:
        moved = [k for k in first if k not in VARYING and other[k] != first[k]]
        if moved:
            raise RuntimeError(f"repeats disagree on {moved}")
    row = {k: statistics.median(r[k] for r in samples) if k in VARYING
           else v for k, v in first.items()}
    row["samples"] = {k: [r[k] for r in samples] for k in VARYING}
    return row


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", type=Path,
                    help="JSON file to write the sections into")
    ap.add_argument("--tree", action="append", metavar="SECTION=SRC",
                    help="a section name and the source tree holding its "
                         "bdies2d package (repeatable; default change=src)")
    ap.add_argument("--repeats", type=int, default=1,
                    help="runs of every config, family and tree")
    ap.add_argument("--one", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.one:                          # subprocess: one config, one family
        job = json.loads(args.one)
        print(json.dumps(run_one(job["domain"], job["resolution"],
                                 job["family"])))
        return 0
    if args.out is None:
        ap.error("--out is required")
    trees = {}
    for spec in args.tree or [f"change={SRC}"]:
        name, sep, src = spec.partition("=")
        if not (name and sep and src):
            ap.error(f"--tree wants SECTION=SRC, got {spec!r}")
        trees[name] = Path(src)
    if args.repeats < 1:
        ap.error("--repeats must be at least 1")

    runs = {name: [] for name in trees}
    try:
        for config, domain, res in CONFIGS:
            for family in FAMILIES:
                job = {"domain": domain, "resolution": res, "family": family}
                samples = {name: [] for name in trees}
                for rep in range(args.repeats):
                    for name in list(trees)[::1 if rep % 2 == 0 else -1]:
                        samples[name].append(run_job(trees[name], job))
                for name in trees:
                    row = {"config": config, "resolution": "%d/%dx%d" % res,
                           "family": family, **merge(samples[name])}
                    print(json.dumps({"section": name, **row}), flush=True)
                    runs[name].append(row)
    except RuntimeError as exc:
        sys.stderr.write(f"{exc}\n")
        return 1

    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    doc.setdefault("case", "exp_saddle")
    for name, src in trees.items():
        doc.setdefault("sections", {})[name] = {
            "machine": machine(), "src_code_lines": code_lines(src),
            "repeats": args.repeats, "runs": runs[name]}
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

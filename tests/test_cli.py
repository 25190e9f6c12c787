"""Config loading, command execution, artifacts, determinism."""

import csv
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import bdies2d
from bdies2d import cli, potentials, verification
from bdies2d.cli import CSV_HEADER, ConfigError, fmt17, load_config, main, run
from bdies2d.coefficient import make_preset
from bdies2d.geometry import DomainSpec, build_curve, build_domain_grid
from bdies2d.solver import assemble_system


def write_config(tmp_path, payload, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return p


def fresh_env(**extra):
    """Environment for a fresh interpreter that imports this bdies2d."""
    src = str(Path(bdies2d.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, **extra,
                PYTHONPATH=src + (os.pathsep + path if path else ""))


MINIMAL_SOLVE = {
    "command": "solve",
    "domain": {"kind": "disk", "center": [0.0, 0.0], "radius": 0.4},
    "case": "exp_saddle",
    "family": "x",
    "resolutions": {"n_boundary": 128, "n_t": 32, "n_s": 12},
}


class TestLoadConfig:
    def test_minimal_solve_valid(self, tmp_path):
        cfg = load_config(write_config(tmp_path, MINIMAL_SOLVE))
        assert cfg.command == "solve"
        assert cfg.resolutions == [(128, 32, 12)]

    def test_unknown_keys_rejected(self, tmp_path):
        bad = dict(MINIMAL_SOLVE, extra=1)
        with pytest.raises(ConfigError, match="unknown keys"):
            load_config(write_config(tmp_path, bad))

    def test_unknown_domain_key_rejected(self, tmp_path):
        bad = dict(MINIMAL_SOLVE,
                   domain={"kind": "disk", "radius": 0.4, "color": "red"})
        with pytest.raises(ConfigError, match="unknown keys"):
            load_config(write_config(tmp_path, bad))

    def test_large_diameter_rejected_with_message(self, tmp_path):
        bad = dict(MINIMAL_SOLVE,
                   domain={"kind": "disk", "center": [0, 0], "radius": 0.6})
        with pytest.raises(ConfigError, match="diameter"):
            load_config(write_config(tmp_path, bad))

    def test_large_diameter_allowed_with_flag(self, tmp_path):
        ok = dict(MINIMAL_SOLVE,
                  domain={"kind": "disk", "center": [0, 0], "radius": 0.6},
                  allow_large_domain=True)
        cfg = load_config(write_config(tmp_path, ok))
        assert cfg.allow_large_domain

    def test_family_y_accepted(self, tmp_path):
        cfg = load_config(write_config(tmp_path,
                                       dict(MINIMAL_SOLVE, family="y")))
        assert cfg.family == "y"

    def test_solve_requires_case(self, tmp_path):
        bad = {k: v for k, v in MINIMAL_SOLVE.items() if k != "case"}
        with pytest.raises(ConfigError, match="case"):
            load_config(write_config(tmp_path, bad))

    @pytest.mark.parametrize("command", ["solve", "study", "compare"])
    def test_case_commands_refuse_a_coefficient(self, tmp_path, command):
        # the manufactured case fixes the coefficient: one given beside it
        # would be echoed into results.json and never used
        bad = dict(MINIMAL_SOLVE, command=command, resolutions=RUNGS,
                   coefficient={"preset": "exponential"})
        with pytest.raises(ConfigError, match="takes no 'coefficient'"):
            load_config(write_config(tmp_path, bad))

    def test_validate_refuses_a_case_beside_a_coefficient(self, tmp_path):
        # validate would run on the coefficient and ignore the case
        bad = dict(MINIMAL_SOLVE, command="validate",
                   coefficient={"preset": "exponential"})
        with pytest.raises(ConfigError, match="exactly one"):
            load_config(write_config(tmp_path, bad))
        del bad["case"]
        assert load_config(write_config(tmp_path, bad)).case is None

    def test_study_needs_three_resolutions(self, tmp_path):
        bad = dict(MINIMAL_SOLVE, command="study",
                   resolutions=[{"n_boundary": 32, "n_t": 12, "n_s": 6}])
        with pytest.raises(ConfigError, match="3 resolutions"):
            load_config(write_config(tmp_path, bad))

    @pytest.mark.parametrize("command", ["solve", "validate"])
    def test_one_resolution_commands_refuse_a_ladder(self, tmp_path,
                                                      command):
        # a second rung would be echoed under "config" but never run
        bad = dict(MINIMAL_SOLVE, command=command, resolutions=[
            {"n_boundary": 32, "n_t": 8, "n_s": 4},
            {"n_boundary": 96, "n_t": 24, "n_s": 10}])
        p = write_config(tmp_path, bad)
        with pytest.raises(ConfigError, match="one resolution"):
            load_config(p)
        assert main([command, "--config", str(p),
                     "--out", str(tmp_path / "o")]) == 2
        assert not (tmp_path / "o").exists()

    def test_odd_boundary_count_rejected(self, tmp_path):
        bad = dict(MINIMAL_SOLVE,
                   resolutions={"n_boundary": 33, "n_t": 12, "n_s": 6})
        with pytest.raises(ConfigError, match="even"):
            load_config(write_config(tmp_path, bad))

    def test_parse_error(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{not json")
        with pytest.raises(ConfigError, match="JSON"):
            load_config(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "nope.json")


STAR_VALIDATE = {
    "command": "validate",
    "domain": {"kind": "star", "center": [0.0, 0.0],
               "cos_coeffs": [0.3, 0.0, 0.03]},
    "coefficient": {"preset": "exponential", "direction": [1.0, 1.0]},
    "resolutions": [{"n_boundary": 32, "n_t": 8, "n_s": 4}],
    "output_dir": "out",
    "allow_large_domain": False,
}
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=6),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=6), inner, max_size=4)),
    max_leaves=8)


def _field_paths(cfg):
    """Every top-level key and every key of a nested object or list entry."""
    for key, value in cfg.items():
        yield (key,)
        entries = value if isinstance(value, list) else [value]
        for i, entry in enumerate(entries):
            if isinstance(entry, dict):
                index = (i,) if isinstance(value, list) else ()
                yield from ((key, *index, k) for k in entry)


FIELD_PATHS = ([(MINIMAL_SOLVE, p) for p in _field_paths(MINIMAL_SOLVE)]
               + [(STAR_VALIDATE, p) for p in _field_paths(STAR_VALIDATE)])


class TestConfigProperty:
    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(field=st.sampled_from(FIELD_PATHS), value=JSON_VALUES)
    def test_any_field_value_loads_or_is_config_error(self, tmp_path, field,
                                                      value):
        base, path = field
        cfg = json.loads(json.dumps(base))
        owner = cfg
        for key in path[:-1]:
            owner = owner[key]
        owner[path[-1]] = value
        try:
            loaded = load_config(write_config(tmp_path, cfg))
        except ConfigError:
            return
        assert loaded.command == cfg["command"]


class TestRunCommands:
    def test_solve_const_one(self, tmp_path):
        cfg = load_config(write_config(tmp_path, dict(
            MINIMAL_SOLVE, case="const_one",
            resolutions={"n_boundary": 64, "n_t": 16, "n_s": 8})))
        status = run(cfg, tmp_path / "out")
        assert status == 0
        results = json.loads((tmp_path / "out" / "results.json").read_text())
        checks = {c["name"]: c for c in results["checks"]}
        assert checks["err_u_max_rel"]["value"] < 1e-8
        assert checks["err_u_max_rel"]["pass"]
        assert (tmp_path / "out" / "errors.csv").exists()

    def test_solve_family_y_marked_experimental(self, tmp_path):
        cfg = load_config(write_config(tmp_path, dict(
            MINIMAL_SOLVE, family="y", case="const_one",
            resolutions={"n_boundary": 64, "n_t": 16, "n_s": 8})))
        assert run(cfg, tmp_path / "out") == 0
        results = json.loads((tmp_path / "out" / "results.json").read_text())
        assert results["experimental"] is True

    def test_validate_exponential(self, tmp_path):
        cfg = load_config(write_config(tmp_path, {
            "command": "validate",
            "domain": {"kind": "disk", "center": [0, 0], "radius": 0.4},
            "coefficient": {"preset": "exponential", "direction": [1, 1]},
            "family": "x",
            "resolutions": {"n_boundary": 64, "n_t": 16, "n_s": 8},
        }))
        assert run(cfg, tmp_path / "out") == 0
        results = json.loads((tmp_path / "out" / "results.json").read_text())
        assert all(c["pass"] for c in results["checks"])
        assert not (tmp_path / "out" / "errors.csv").exists()

    def test_study_writes_three_rows(self, tmp_path):
        cfg = load_config(write_config(tmp_path, {
            "command": "study",
            "domain": {"kind": "disk", "center": [0, 0], "radius": 0.4},
            "case": "exp_saddle",
            "family": "x",
            "resolutions": [
                {"n_boundary": 48, "n_t": 16, "n_s": 8},
                {"n_boundary": 96, "n_t": 24, "n_s": 10},
                {"n_boundary": 192, "n_t": 48, "n_s": 16},
            ],
        }))
        assert run(cfg, tmp_path / "out") == 0
        with open(tmp_path / "out" / "errors.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3
        errs = [float(r["err_u_max"]) for r in rows]
        assert errs[0] > errs[1] > errs[2]
        header = (tmp_path / "out" / "errors.csv").read_text().splitlines()[0]
        assert header == CSV_HEADER

    def test_compare_emits_both_tables(self, tmp_path):
        cfg = load_config(write_config(tmp_path, {
            "command": "compare",
            "domain": {"kind": "disk", "center": [0, 0], "radius": 0.4},
            "case": "quad_coeff",
            "family": "x",
            "resolutions": [
                {"n_boundary": 32, "n_t": 12, "n_s": 6},
                {"n_boundary": 64, "n_t": 24, "n_s": 12},
            ],
        }))
        assert run(cfg, tmp_path / "out") == 0
        results = json.loads((tmp_path / "out" / "results.json").read_text())
        assert len(results["family_x_rows"]) == 2
        assert len(results["family_y_rows"]) == 2
        assert (tmp_path / "out" / "errors_family_y.csv").exists()

    def test_determinism_modulo_timings(self, tmp_path):
        cfg_path = write_config(tmp_path, dict(
            MINIMAL_SOLVE, case="const_one",
            resolutions={"n_boundary": 64, "n_t": 16, "n_s": 8}))
        for d in ("a", "b"):
            assert run(load_config(cfg_path), tmp_path / d) == 0

        def strip_timing_csv(path):
            out = []
            for line in Path(path).read_text().splitlines():
                out.append(",".join(line.split(",")[:-1]))
            return out

        assert (strip_timing_csv(tmp_path / "a" / "errors.csv")
                == strip_timing_csv(tmp_path / "b" / "errors.csv"))
        ra = json.loads((tmp_path / "a" / "results.json").read_text())
        rb = json.loads((tmp_path / "b" / "results.json").read_text())
        ra.pop("timings"), rb.pop("timings")
        assert ra == rb

    def test_total_seconds_covers_fredholm_diagnostic(self, tmp_path,
                                                      monkeypatch):
        diagnostic = verification.fredholm_diagnostic

        def slow(sol):
            time.sleep(0.25)
            return diagnostic(sol)

        monkeypatch.setattr(verification, "fredholm_diagnostic", slow)
        cfg = load_config(write_config(tmp_path, dict(
            MINIMAL_SOLVE, case="const_one",
            resolutions={"n_boundary": 32, "n_t": 8, "n_s": 4})))
        assert run(cfg, tmp_path / "out") == 0
        results = json.loads((tmp_path / "out" / "results.json").read_text())
        assert results["timings"]["total_seconds"] >= 0.25


class TestReproducibility:
    """Two fresh processes with different string-hash seeds write the same
    results.json outside ``timings`` and the same CSV outside ``seconds``."""

    CONFIGS = {
        "solve": {"command": "solve",
                  "domain": {"kind": "star", "cos_coeffs": [0.3, 0.0, 0.03]},
                  "case": "exp_saddle", "family": "y",
                  "resolutions": {"n_boundary": 64, "n_t": 16, "n_s": 8}},
        "validate": {"command": "validate",
                     "domain": {"kind": "disk", "radius": 0.4},
                     "coefficient": {"preset": "exponential"},
                     "resolutions": {"n_boundary": 64, "n_t": 16, "n_s": 8}},
    }

    @staticmethod
    def _run(command, cfg_path, out, hash_seed):
        subprocess.run([sys.executable, "-m", "bdies2d.cli", command,
                        "--config", str(cfg_path), "--out", str(out)],
                       env=fresh_env(PYTHONHASHSEED=str(hash_seed)),
                       check=True, capture_output=True)
        results = json.loads((out / "results.json").read_text())
        results.pop("timings")
        csv_path = out / "errors.csv"
        rows = []
        if csv_path.exists():
            with open(csv_path, newline="") as fh:
                for row in csv.DictReader(fh):
                    row.pop("seconds")
                    rows.append(row)
        return json.dumps(results), rows

    @pytest.mark.parametrize("command", list(CONFIGS))
    def test_results_equal_across_hash_seeds(self, tmp_path, command):
        cfg_path = write_config(tmp_path, self.CONFIGS[command])
        first, second = (self._run(command, cfg_path, tmp_path / str(seed),
                                   seed) for seed in (1, 2))
        assert first == second
        assert (len(first[1]) > 0) == (command == "solve")


class TestImports:
    def test_commands_load_no_scipy_and_no_numpy_module_mid_run(
            self, tmp_path):
        # the SVDs and solves run on numpy.linalg, so no command imports
        # SciPy; and every numpy submodule a command uses is loaded with
        # bdies2d, not first inside a command
        disk = {"kind": "disk", "radius": 0.4}
        configs = {
            "validate": {"coefficient": {"preset": "exponential"},
                         "resolutions": RUNGS[0]},
            "solve": {"case": "exp_saddle", "resolutions": RUNGS[0]},
            "study": {"case": "exp_saddle", "resolutions": RUNGS},
            "compare": {"case": "quad_coeff", "resolutions": RUNGS[:2]},
        }
        runs = [[cmd, "--config", str(write_config(
                     tmp_path, dict(body, command=cmd, domain=disk),
                     f"{cmd}.json")), "--out", str(tmp_path / cmd)]
                for cmd, body in configs.items()]
        script = (
            "import json, sys\n"
            "from bdies2d.cli import main\n"
            "before = set(sys.modules)\n"
            f"for argv in {runs!r}:\n"
            "    main(argv)\n"
            "print(json.dumps([sorted(before), sorted(sys.modules)]))\n")
        out = subprocess.run([sys.executable, "-c", script], env=fresh_env(),
                             check=True, capture_output=True, text=True)
        before, after = map(set, json.loads(out.stdout.splitlines()[-1]))
        scipy = {m for m in after if m.split(".")[0] == "scipy"}
        assert not scipy, sorted(scipy)
        mid_run = {m for m in after - before if m.split(".")[0] == "numpy"}
        assert not mid_run, sorted(mid_run)
        for cmd in configs:
            assert (tmp_path / cmd / "results.json").exists()


def _resolution(nb=64, nt=16, ns=8):
    return {"resolutions": {"n_boundary": nb, "n_t": nt, "n_s": ns}}


def _with(change):
    """MINIMAL_SOLVE with ``change``; a validate config keeps its case only
    if the change names one, so a coefficient is its one refused value."""
    cfg = dict(MINIMAL_SOLVE, **change)
    if cfg["command"] == "validate" and "case" not in change:
        del cfg["case"]
    return cfg


_DISK = DomainSpec("disk", center=(0.0, 0.0), radius=0.4)
_BIG_DISK = DomainSpec("disk", center=(0.0, 0.0), radius=0.6)
# a config change, and the library call that refuses the same value
LIBRARY_REFUSALS = {
    "n_boundary-33": (_resolution(nb=33), lambda: build_curve(_DISK, 33)),
    "n_t-6": (_resolution(nt=6), lambda: build_domain_grid(_DISK, 6, 8)),
    "n_s-3": (_resolution(ns=3), lambda: build_domain_grid(_DISK, 16, 3)),
    "n_s-float": (_resolution(ns=4.0),
                  lambda: build_domain_grid(_DISK, 16, 4.0)),
    "family-z": ({"family": "z"}, lambda: potentials.layer_rows(
        build_curve(_DISK, 8), make_preset("constant"), "z", "V")),
    "preset-cubic": ({"command": "validate",
                      "coefficient": {"preset": "cubic"}},
                     lambda: make_preset("cubic")),
    "preset-missing": ({"command": "validate",
                        "coefficient": {"value": 2.0}},
                       lambda: make_preset(None, value=2.0)),
    "quadratic-value": ({"command": "validate",
                         "coefficient": {"preset": "quadratic", "value": 7.0}},
                        lambda: make_preset("quadratic", value=7.0)),
    "constant-direction": ({"command": "validate",
                            "coefficient": {"preset": "constant",
                                            "direction": [3, 0]}},
                           lambda: make_preset("constant", direction=(3, 0))),
    "disk-0.6": ({"domain": {"kind": "disk", "radius": 0.6}},
                 lambda: assemble_system(
                     build_curve(_BIG_DISK, 8),
                     build_domain_grid(_BIG_DISK, 8, 4),
                     make_preset("constant"), "x")),
}


class TestMain:
    def test_exit_codes(self, tmp_path):
        p = write_config(tmp_path, dict(
            MINIMAL_SOLVE, case="const_one",
            resolutions={"n_boundary": 64, "n_t": 16, "n_s": 8}))
        assert main(["solve", "--config", str(p),
                     "--out", str(tmp_path / "o")]) == 0

    def test_config_error_exit_2(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{")
        assert main(["solve", "--config", str(p)]) == 2

    def test_domain_built_once_per_command(self, tmp_path, monkeypatch):
        calls = []
        build = cli._build_domain

        def counted(cfg):
            calls.append(cfg.command)
            return build(cfg)

        monkeypatch.setattr(cli, "_build_domain", counted)
        p = write_config(tmp_path, dict(
            MINIMAL_SOLVE, case="const_one",
            domain={"kind": "star", "cos_coeffs": [0.3, 0.0, 0.03]},
            resolutions={"n_boundary": 32, "n_t": 8, "n_s": 4}))
        assert main(["solve", "--config", str(p),
                     "--out", str(tmp_path / "o")]) == 0
        assert calls == ["solve"]

    def test_command_mismatch_exit_2(self, tmp_path):
        p = write_config(tmp_path, MINIMAL_SOLVE)
        assert main(["validate", "--config", str(p)]) == 2

    @pytest.mark.parametrize("change", [
        {"domain": {"kind": "disk", "center": "ab", "radius": 0.4}},
        {"domain": {"kind": "star", "cos_coeffs": "x"}},
        {"domain": {"kind": "disk", "radius": float("nan")}},
        {"domain": {"kind": "disk", "center": [float("inf"), 0.0],
                    "radius": 0.4}},
        {"domain": {"kind": "star", "cos_coeffs": [0.3, float("nan")]}},
        {"resolutions": [5]},
        {"resolutions": "abc"},
        {"resolutions": {"n_boundary": 64, "n_t": 8.7, "n_s": 8}},
        {"allow_large_domain": "no"},
        {"command": "validate",
         "coefficient": {"preset": "constant", "value": "x"}},
        {"command": "validate",
         "coefficient": {"preset": "constant", "value": -1}},
        {"command": "validate",
         "coefficient": {"preset": "constant", "value": float("nan")}},
        {"command": "validate",
         "coefficient": {"preset": "exponential", "direction": [1]}},
        {"command": "validate",
         "coefficient": {"preset": "exponential", "direction": "ab"}},
        {"command": "validate",
         "coefficient": {"preset": "exponential", "direction": [1e400, 0]}},
        {"resolutions": {"n_boundary": 64, "n_t": 15, "n_s": 8}},
        {"resolutions": {"n_boundary": 6, "n_t": 16, "n_s": 8}},
        {"resolutions": {"n_boundary": 64, "n_t": 16, "n_s": 3}},
        {"domain": {"kind": "disk", "radius": 0.4,
                    "cos_coeffs": [0.2, 0.1]}},
        {"domain": {"kind": "star", "radius": 0.4,
                    "cos_coeffs": [0.3, 0.0, 0.03]}},
        {"command": "validate",
         "coefficient": {"preset": "exponential", "value": 7.0}},
        {"command": "validate",
         "coefficient": {"preset": "quadratic", "value": 7.0}},
        {"command": "validate",
         "coefficient": {"preset": "quadratic", "direction": [3, 0]}},
        {"command": "validate",
         "coefficient": {"preset": "constant", "direction": [3, 0]}},
        {"coefficient": {"preset": "exponential"}},
        {"command": "validate", "case": "exp_saddle",
         "coefficient": {"preset": "exponential"}},
    ], ids=["center-string", "coeffs-string", "radius-nan", "center-inf",
            "coeffs-nan", "resolution-int", "resolutions-string",
            "count-float", "flag-string", "value-string", "value-negative",
            "value-nan", "direction-short", "direction-string",
            "direction-inf", "n_t-odd", "n_boundary-small", "n_s-small",
            "disk-cos_coeffs", "star-radius", "exponential-value",
            "quadratic-value", "quadratic-direction", "constant-direction",
            "solve-coefficient", "validate-case-and-coefficient"])
    def test_malformed_config_exit_2(self, tmp_path, capsys, change):
        cfg = _with(change)
        p = write_config(tmp_path, cfg)
        assert main([cfg["command"], "--config", str(p),
                     "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith("config error:")

    @pytest.mark.parametrize("name", LIBRARY_REFUSALS)
    def test_config_error_carries_the_library_message(self, tmp_path, capsys,
                                                      name):
        change, library_call = LIBRARY_REFUSALS[name]
        with pytest.raises(ValueError) as refused:
            library_call()
        message = str(refused.value)
        cfg = _with(change)
        p = write_config(tmp_path, cfg)
        with pytest.raises(ConfigError) as err:
            load_config(p)
        assert message in str(err.value)
        assert main([cfg["command"], "--config", str(p),
                     "--out", str(tmp_path / "o")]) == 2
        assert message in capsys.readouterr().err

    def test_large_domain_flag_solves(self, tmp_path):
        p = write_config(tmp_path, dict(
            MINIMAL_SOLVE, case="harmonic_linear", allow_large_domain=True,
            domain={"kind": "disk", "center": [0.0, 0.0], "radius": 0.6},
            resolutions={"n_boundary": 64, "n_t": 16, "n_s": 8}))
        assert main(["solve", "--config", str(p),
                     "--out", str(tmp_path / "o")]) == 0


RUNGS = [{"n_boundary": 32, "n_t": 8, "n_s": 4},
         {"n_boundary": 40, "n_t": 10, "n_s": 4},
         {"n_boundary": 48, "n_t": 12, "n_s": 5}]


@st.composite
def run_configs(draw):
    """Configs that load: any command and family, at tiny rungs, on a disk
    or a convex star, some of diameter 1 or more."""
    command = draw(st.sampled_from(cli._COMMANDS))
    center = [draw(st.floats(-0.2, 0.2)), draw(st.floats(-0.2, 0.2))]
    r0 = draw(st.floats(0.2, 0.7))
    if draw(st.booleans()):
        domain = {"kind": "disk", "center": center, "radius": r0}
    else:
        # |eps| (1 + k^2) < 1 keeps rho = r0 (1 + eps cos k t) convex
        k = draw(st.integers(1, 4))
        coeffs = [r0] + [0.0] * k
        coeffs[k] = r0 * draw(st.floats(-0.8, 0.8)) / (1 + k * k)
        domain = {"kind": "star", "center": center, "cos_coeffs": coeffs}
    cfg = {"command": command, "domain": domain,
           "family": draw(st.sampled_from(["x", "y"])),
           "allow_large_domain": draw(st.booleans()),
           "resolutions": RUNGS[:{"study": 3, "compare": 2}.get(command, 1)]}
    if command == "validate":
        cfg["coefficient"] = {"preset": draw(st.sampled_from(
            ["constant", "exponential", "quadratic"]))}
    else:
        cfg["case"] = draw(st.sampled_from(verification.MANUFACTURED_NAMES))
    return cfg


class TestMainProperty:
    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(cfg=run_configs())
    def test_exit_status_and_results(self, tmp_path, cfg):
        # 0 or 1 (checks passed or not) with results.json written, or 2
        # for a domain of diameter >= 1 without allow_large_domain
        work = Path(tempfile.mkdtemp(dir=tmp_path))
        out = work / "out"
        status = main([cfg["command"], "--config",
                       str(write_config(work, cfg)), "--out", str(out)])
        assert status in (0, 1, 2)
        assert (out / "results.json").is_file() == (status != 2)


class TestFormatting:
    def test_fmt17_round_trips(self):
        vals = [0.1, 1.0 / 3.0, 1e-300, -2.5e17, 3.141592653589793]
        for v in vals:
            assert float(fmt17(v)) == v

"""Config loading, command execution, artifacts, determinism."""

import csv
import json
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bdies2d import cli, verification
from bdies2d.cli import CSV_HEADER, ConfigError, fmt17, load_config, main, run


def write_config(tmp_path, payload, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return p


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

    def test_study_needs_three_resolutions(self, tmp_path):
        bad = dict(MINIMAL_SOLVE, command="study",
                   resolutions=[{"n_boundary": 32, "n_t": 12, "n_s": 6}])
        with pytest.raises(ConfigError, match="3 resolutions"):
            load_config(write_config(tmp_path, bad))

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
    ], ids=["center-string", "coeffs-string", "radius-nan", "center-inf",
            "coeffs-nan", "resolution-int", "resolutions-string",
            "count-float", "flag-string", "value-string", "value-negative",
            "value-nan", "direction-short", "direction-string",
            "direction-inf", "n_t-odd", "n_boundary-small", "n_s-small",
            "disk-cos_coeffs", "star-radius"])
    def test_malformed_config_exit_2(self, tmp_path, capsys, change):
        cfg = dict(MINIMAL_SOLVE, **change)
        p = write_config(tmp_path, cfg)
        assert main([cfg["command"], "--config", str(p),
                     "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith("config error:")

    def test_large_domain_flag_solves(self, tmp_path):
        p = write_config(tmp_path, dict(
            MINIMAL_SOLVE, case="harmonic_linear", allow_large_domain=True,
            domain={"kind": "disk", "center": [0.0, 0.0], "radius": 0.6},
            resolutions={"n_boundary": 64, "n_t": 16, "n_s": 8}))
        assert main(["solve", "--config", str(p),
                     "--out", str(tmp_path / "o")]) == 0


class TestFormatting:
    def test_fmt17_round_trips(self):
        vals = [0.1, 1.0 / 3.0, 1e-300, -2.5e17, 3.141592653589793]
        for v in vals:
            assert float(fmt17(v)) == v

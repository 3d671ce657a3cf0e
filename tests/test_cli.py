"""Command-line surface: config parsing, CSV contract, exit codes."""

import hashlib
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from wgscatter import cli
from wgscatter import search as search_mod
from wgscatter.core import PHASE_NAMES, ConfigError, PhaseModel
from wgscatter.sweep import (
    ETA_UNDEFINED,
    FIGURE_IDS,
    FAMILIES,
    FLAG_NAMES,
    ILL_REVERSE,
    MAX_CELLS,
    RATE_FIELDS,
    SOLVER_BLOCK,
    Axis,
    PhaseAxis,
    SweepResult,
    SweepSpec,
    figure_preset,
    run_sweep,
)


def base_config(**overrides):
    doc = {
        "system": {
            "family": "small_overlap",
            "gamma_units": "Gamma_ref",
            "gamma": [1.0, 0.25, 1.0, 0.0],
            "phase_units": "radians",
            "phases": {},
            "regime": "markovian",
            "tau": 0.0,
        },
        "sweep": {
            "delta": {"min": -10, "max": 10, "count": 21},
            "phase": None,
            "engine": "closed",
        },
    }
    doc.update(overrides)
    return doc


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def no_axis_values(monkeypatch):
    """Fail the test if any axis is evaluated (its grid allocated)."""

    def no_grid(self):
        raise AssertionError("an axis was evaluated")

    monkeypatch.setattr(Axis, "values", no_grid)


class TestSpectrum:
    def test_csv_contract_and_values(self, tmp_path, capsys):
        cfg = write_config(tmp_path, base_config())
        out = tmp_path / "out.csv"
        assert cli.main(["spectrum", cfg, "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        meta = [l for l in lines if l.startswith("#")]
        header = next(l for l in lines if not l.startswith("#"))
        assert header == "delta,phi,T_Ng,T_Ns,T_M_rev,R_M,T2,eta,residual,flags"
        rows = [l.split(",") for l in lines if not l.startswith("#") and l != header]
        assert len(rows) == 21
        zero = next(r for r in rows if float(r[0]) == 0.0)
        assert float(zero[2]) == 0.0  # T_Ng
        assert float(zero[3]) == 0.0  # T_Ns
        assert float(zero[4]) == pytest.approx(0.5, abs=1e-12)  # T_M_rev
        assert "eta_undefined" in zero[9]
        assert any(l.startswith("# engine=") for l in meta)

    def test_engine_both_metadata(self, tmp_path):
        doc = base_config()
        doc["sweep"]["engine"] = "both"
        doc["sweep"]["delta"]["count"] = 7
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out.csv"
        assert cli.main(["spectrum", cfg, "--out", str(out)]) == 0
        line = next(
            l
            for l in out.read_text().splitlines()
            if l.startswith("# max_engine_discrepancy=")
        )
        assert float(line.split("=")[1]) <= 1e-10

    def test_seventeen_digit_serialization(self, tmp_path):
        cfg = write_config(tmp_path, base_config())
        out = tmp_path / "out.csv"
        cli.main(["spectrum", cfg, "--out", str(out)])
        text = out.read_text()
        # A third of pi-ish irrational rates must round-trip to full doubles.
        row = next(
            l for l in text.splitlines() if l.startswith("-10,")
        )
        value = row.split(",")[4]
        assert float(value) == float(f"{float(value):.17g}")
        assert len(value.replace("-", "").replace(".", "").lstrip("0")) >= 15

    def test_unknown_key_rejected(self, tmp_path):
        doc = base_config()
        doc["system"]["typo_key"] = 1
        cfg = write_config(tmp_path, doc)
        assert cli.main(["spectrum", cfg, "--out", "-"]) == 2

    def test_missing_units_tag_rejected(self, tmp_path):
        doc = base_config()
        del doc["system"]["gamma_units"]
        cfg = write_config(tmp_path, doc)
        assert cli.main(["spectrum", cfg, "--out", "-"]) == 2

    def test_non_object_block_rejected(self, tmp_path):
        doc = base_config()
        doc["system"]["phases"] = 3
        cfg = write_config(tmp_path, doc)
        assert cli.main(["spectrum", cfg, "--out", "-"]) == 2

    def test_empty_delta_axis_rejected(self, tmp_path):
        doc = base_config()
        doc["sweep"]["delta"]["count"] = 0
        cfg = write_config(tmp_path, doc)
        assert cli.main(["spectrum", cfg, "--out", "-"]) == 2

    def test_oversized_grid_exits_2_before_allocating(self, tmp_path, capsys, no_axis_values):
        doc = base_config()
        doc["sweep"]["delta"]["count"] = 10**12
        cfg = write_config(tmp_path, doc)
        assert cli.main(["spectrum", cfg, "--out", str(tmp_path / "out.csv")]) == 2
        assert f"limit of {MAX_CELLS} cells" in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("option", ["--delta-count", "--phase-count"])
    def test_oversized_figure_grid_exits_2(self, tmp_path, capsys, no_axis_values, option):
        argv = ["figure", "fig9", "--out-dir", str(tmp_path), option, str(10**12)]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err.startswith("config error:")
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "block, key, value",
        [
            ("system", "gamma", [float("nan"), 0.25, 1.0, 0.0]),
            ("system", "gamma", [1.0, float("inf"), 1.0, 0.0]),
            ("system", "tau", float("inf")),
            ("phases", "phi1_prime", float("nan")),
            ("delta", "count", 2.7),
            ("phase", "count", True),
            ("phase", "count", 3.0),
            pytest.param("phase", "linkage", ["phi_a"], id="phase-linkage-list"),
            pytest.param("system", "family", ["small_separated"], id="system-family-list"),
            pytest.param("system", "tau", 1e101, id="system-tau-past-magnitude-cap"),
            pytest.param("delta", "min", -1e101, id="delta-min-past-magnitude-cap"),
            pytest.param("system", "gamma", [10**400, 0.25, 1.0, 0.0], id="system-gamma-huge-int"),
        ],
    )
    def test_non_finite_or_non_integer_value_rejected(self, tmp_path, capsys, block, key, value):
        doc = base_config()
        # start == stop, so a count read as 1 would make a valid axis.
        doc["sweep"]["phase"] = {"min": 0.5, "max": 0.5, "count": 3, "linkage": {"phi_a": 1.0}}
        doc["system"]["family"] = "small_separated"
        target = {
            "system": doc["system"],
            "phases": doc["system"]["phases"],
            "delta": doc["sweep"]["delta"],
            "phase": doc["sweep"]["phase"],
        }[block]
        target[key] = value
        cfg = write_config(tmp_path, doc)
        assert cli.main(["spectrum", cfg, "--out", str(tmp_path / "out.csv")]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("config error:")
        assert captured.out == ""
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize(
        "block, key, value",
        [
            pytest.param("system", "gamma", [True, 0.25, 1.0, 0.0], id="system-gamma-bool"),
            pytest.param("system", "gamma", [1.0, "0.5", 1.0, 0.0], id="system-gamma-string"),
            pytest.param("phases", "phi1_prime", "3.0", id="system-phases-string"),
            pytest.param("system", "tau", False, id="system-tau-bool"),
            pytest.param("delta", "min", "-1", id="delta-min-string"),
            pytest.param("delta", "max", True, id="delta-max-bool"),
            pytest.param("phase", "min", "0.5", id="phase-min-string"),
            pytest.param("phase", "linkage", {"phi_a": True}, id="linkage-factor-bool"),
        ],
    )
    @pytest.mark.parametrize("command", ["spectrum", "dump-config"])
    def test_non_number_value_rejected(self, tmp_path, capsys, command, block, key, value):
        """JSON booleans and numeric strings are not numbers."""
        doc = base_config()
        doc["sweep"]["phase"] = {"min": 0.5, "max": 0.5, "count": 3, "linkage": {"phi_a": 1.0}}
        doc["system"]["family"] = "small_separated"
        target = {
            "system": doc["system"],
            "phases": doc["system"]["phases"],
            "delta": doc["sweep"]["delta"],
            "phase": doc["sweep"]["phase"],
        }[block]
        target[key] = value
        assert cli.main([command, write_config(tmp_path, doc)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("config error:") and "must be a number" in captured.err
        assert captured.out == ""

    def test_parse_failure_reports_location(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"system": \n}')
        assert cli.main(["spectrum", str(path), "--out", "-"]) == 2
        err = capsys.readouterr().err
        assert "line" in err and "column" in err

    def test_unwritable_out_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, base_config())
        out = tmp_path / "missing" / "out.csv"
        assert cli.main(["spectrum", cfg, "--out", str(out)]) == 2
        assert_cannot_write(capsys, out)

    def test_json_output(self, tmp_path, capsys):
        cfg = write_config(tmp_path, base_config())
        assert cli.main(["spectrum", cfg, "--json", "--out", "-"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["rates"]["T_M_rev"][0]  # phase-major nesting
        assert "timestamp" not in payload["metadata"]


def assert_cannot_write(capsys, path):
    """A one-line config error naming ``path``, and nothing on stdout."""
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"config error: cannot write {path}: ")
    assert captured.err.count("\n") == 1


def test_broken_pipe_exits_quietly(tmp_path):
    doc = base_config()
    # Far more output than a pipe buffers, so writing outlives the reader.
    doc["sweep"]["delta"]["count"] = 20001
    cfg = write_config(tmp_path, doc)
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "wgscatter.cli", "spectrum", cfg],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    assert proc.stdout.readline().startswith(b"# family=")
    proc.stdout.close()
    stderr = proc.stderr.read().decode()
    assert proc.wait(timeout=60) == 1
    assert "Traceback" not in stderr


class TestFigure:
    def test_fig4a_values(self, tmp_path, capsys):
        assert (
            cli.main(
                [
                    "figure",
                    "fig4a",
                    "--out-dir",
                    str(tmp_path),
                    "--delta-count",
                    "21",
                ]
            )
            == 0
        )
        lines = (tmp_path / "fig4a.csv").read_text().splitlines()
        zero = next(
            l for l in lines if not l.startswith("#") and l.startswith("0,")
        )
        cols = zero.split(",")
        assert float(cols[3]) == pytest.approx(0.37, abs=0.005)
        assert float(cols[7]) == pytest.approx(0.757, abs=1e-3)

    def test_fig9_emits_four_panels(self, tmp_path, monkeypatch):
        formatted = []
        write_csv = cli.write_csv

        def counting_write_csv(result, stream, extra=None):
            formatted.append(extra["panel"])
            write_csv(result, stream, extra)

        monkeypatch.setattr(cli, "write_csv", counting_write_csv)
        rc = cli.main(
            [
                "figure",
                "fig9",
                "--out-dir",
                str(tmp_path),
                "--delta-count",
                "9",
                "--phase-count",
                "7",
            ]
        )
        assert rc == 0
        names = sorted(p.name for p in tmp_path.glob("*.csv"))
        assert names == ["fig9a.csv", "fig9b.csv", "fig9c.csv", "fig9d.csv"]
        # Panels b and d reuse the rows formatted for a and c.
        assert formatted == ["a", "c"]

    def test_fig10_quarter_phase_rows_have_zero_conversion(self, tmp_path):
        cli.main(
            [
                "figure",
                "fig10",
                "--out-dir",
                str(tmp_path),
                "--delta-count",
                "9",
                "--phase-count",
                "9",
            ]
        )
        rows = [
            l.split(",")
            for l in (tmp_path / "fig10b.csv").read_text().splitlines()
            if not l.startswith("#") and not l.startswith("delta,")
        ]
        quarter = [r for r in rows if abs(float(r[1]) - math.pi / 2) < 1e-9]
        assert quarter
        assert all(float(r[3]) <= 1e-14 for r in quarter)

    def test_out_dir_that_is_a_file_exits_2(self, tmp_path, capsys):
        out_dir = tmp_path / "taken"
        out_dir.write_text("")
        assert cli.main(["figure", "fig2a", "--out-dir", str(out_dir), "--delta-count", "5"]) == 2
        assert_cannot_write(capsys, out_dir)

    def test_unknown_figure_id_exits_2(self):
        with pytest.raises(SystemExit) as err:
            cli.main(["figure", "fig99", "--out-dir", "."])
        assert err.value.code == 2


class TestValidateCommand:
    def test_seeded_report_reproducible(self, capsys):
        assert cli.main(["validate", "--draws", "50", "--seed", "7"]) == 0
        first = capsys.readouterr().out
        assert cli.main(["validate", "--draws", "50", "--seed", "7"]) == 0
        second = capsys.readouterr().out
        assert first == second
        assert "PASS" in first

    def test_breach_exits_1(self, monkeypatch, capsys):
        import wgscatter.cli as cli_mod

        class FakeReport:
            passed = False

            def lines(self):
                return ["validation: FAIL"]

        monkeypatch.setattr(
            cli_mod.validate_mod, "run_validation", lambda **kw: FakeReport()
        )
        assert cli.main(["validate", "--draws", "5"]) == 1


class TestSearchCommand:
    def objective_doc(self, floor):
        return {
            "kind": "conversion_merit",
            "parameters": {
                "gamma1": {"bounds": [0.01, 3.0]},
                "gamma2": {"fixed": 1.0},
                "gamma3": {"fixed": 1.0},
                "gamma4": {"fixed": 1.0},
                "phi1_prime": {"fixed": 0.0},
                "phi2_prime": {"fixed": 0.0},
                "tau": {"fixed": 0.0},
            },
            "min_reverse": floor,
        }

    def search_config(self, floor):
        """Search evaluates the giant layout, so its configs name that family."""
        doc = base_config(objective=self.objective_doc(floor))
        doc["system"]["family"] = "giant"
        return doc

    def test_anchor_run(self, tmp_path, capsys):
        doc = self.search_config(2 * 0.32 / 1.32**2)
        cfg = write_config(tmp_path, doc)
        assert cli.main(["search", cfg, "--budget", "800", "--out", "-"]) == 0
        out = capsys.readouterr().out
        eta = float(next(l for l in out.splitlines() if l.startswith("rate eta=")).split("=")[1])
        assert eta == pytest.approx(0.7576, abs=2e-3)

    def test_infeasible_exits_1(self, tmp_path):
        doc = self.search_config(0.5)
        doc["objective"]["parameters"]["gamma1"] = {"bounds": [0.001, 0.01]}
        cfg = write_config(tmp_path, doc)
        assert cli.main(["search", cfg, "--budget", "300"]) == 1

    def test_unwritable_out_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, self.search_config(0.0))
        out = tmp_path / "missing" / "report.txt"
        assert cli.main(["search", cfg, "--budget", "100", "--out", str(out)]) == 2
        assert_cannot_write(capsys, out)

    def test_budget_over_grid_cap_exits_2_before_allocating(
        self, tmp_path, capsys, monkeypatch
    ):
        """Half the budget goes to the grid, which may not exceed the sweep
        cap; the refusal comes before any grid array exists."""

        def no_grid(*args, **kwargs):
            raise AssertionError("the grid was allocated")

        monkeypatch.setattr(np, "linspace", no_grid)
        cfg = write_config(tmp_path, self.search_config(0.0))
        assert cli.main(["search", cfg, "--budget", str(10**12)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and str(MAX_CELLS) in err

    def test_missing_objective_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, base_config())
        assert cli.main(["search", cfg]) == 2

    #: One non-finite number per objective key.
    NON_FINITE_EDITS = {
        "fixed": lambda obj: obj["parameters"]["gamma2"].update(fixed=math.nan),
        "bounds": lambda obj: obj["parameters"]["gamma1"].update(bounds=[0.01, math.inf]),
        "factor": lambda obj: obj["parameters"].update(
            gamma3={"linked": "gamma1", "factor": math.nan}
        ),
        "purity_weight": lambda obj: obj.update(purity_weight=math.nan),
        "rate_weight": lambda obj: obj.update(rate_weight=math.inf),
        "min_reverse": lambda obj: obj.update(min_reverse=math.nan),
    }

    @pytest.mark.parametrize("key", sorted(NON_FINITE_EDITS))
    def test_non_finite_objective_number_exits_2(self, tmp_path, capsys, key):
        doc = self.search_config(0.0)
        self.NON_FINITE_EDITS[key](doc["objective"])
        cfg = write_config(tmp_path, doc)
        assert cli.main(["search", cfg, "--budget", "100"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and key in err

    #: One JSON boolean or numeric string per objective key.
    NON_NUMBER_EDITS = {
        "fixed": lambda obj: obj["parameters"]["gamma2"].update(fixed="1.0"),
        "bounds": lambda obj: obj["parameters"]["gamma1"].update(bounds=[True, 3.0]),
        "factor": lambda obj: obj["parameters"].update(
            gamma3={"linked": "gamma1", "factor": "2"}
        ),
        "purity_weight": lambda obj: obj.update(purity_weight=True),
        "rate_weight": lambda obj: obj.update(rate_weight="1"),
        "min_reverse": lambda obj: obj.update(min_reverse=False),
    }

    @pytest.mark.parametrize("key", sorted(NON_NUMBER_EDITS))
    def test_non_number_objective_entry_exits_2(self, tmp_path, capsys, key):
        doc = self.search_config(0.0)
        self.NON_NUMBER_EDITS[key](doc["objective"])
        cfg = write_config(tmp_path, doc)
        assert cli.main(["search", cfg, "--budget", "100"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("config error:") and key in err and "must be a number" in err

    #: Malformed objective blocks, each of which once escaped main() as a
    #: traceback, ran a search that ignored part of an entry, or let a decay
    #: rate go negative, and the text the config error names.
    MALFORMED_EDITS = {
        "bounds_not_a_pair": (
            lambda obj: obj["parameters"]["gamma1"].update(bounds=3),
            "objective.gamma1.bounds",
        ),
        "parameters_not_an_object": (
            lambda obj: obj.update(parameters=["gamma1"]),
            "objective.parameters",
        ),
        "linked_to_unknown_parameter": (
            lambda obj: obj["parameters"].update(gamma3={"linked": "gamma9"}),
            "gamma9",
        ),
        "tau_bounded": (
            lambda obj: obj["parameters"].update(tau={"bounds": [0.0, 2.0]}),
            "tau",
        ),
        "tau_linked": (
            lambda obj: obj["parameters"].update(tau={"linked": "gamma1"}),
            "tau",
        ),
        "bounds_with_factor": (
            lambda obj: obj["parameters"]["gamma1"].update(factor=5.0),
            "objective.gamma1.factor",
        ),
        "bounds_with_fixed": (
            lambda obj: obj["parameters"]["gamma1"].update(fixed=1.0),
            "objective.gamma1",
        ),
        "negative_fixed_rate": (
            lambda obj: obj["parameters"]["gamma2"].update(fixed=-1.0),
            "gamma2",
        ),
        "negative_rate_link": (
            lambda obj: obj["parameters"].update(gamma3={"linked": "gamma1", "factor": -1.0}),
            "gamma3",
        ),
        "negative_rate_bounds": (
            lambda obj: obj["parameters"]["gamma1"].update(bounds=[-2.0, -1.0]),
            "gamma1",
        ),
        "rate_linked_to_negative_phase_bounds": (
            lambda obj: obj["parameters"].update(
                gamma3={"linked": "phi1_prime"}, phi1_prime={"bounds": [-2.0, -1.0]}
            ),
            "gamma3",
        ),
        "rate_linked_to_negative_fixed_phase": (
            lambda obj: obj["parameters"].update(
                gamma3={"linked": "phi1_prime"}, phi1_prime={"fixed": -1.0}
            ),
            "gamma3",
        ),
        "rate_linked_to_phase_by_negative_factor": (
            lambda obj: obj["parameters"].update(
                gamma3={"linked": "phi1_prime", "factor": -1.0}
            ),
            "gamma3",
        ),
        "rate_linked_to_negative_tau": (
            lambda obj: obj["parameters"].update(
                gamma3={"linked": "tau"}, tau={"fixed": -1.0}
            ),
            "tau",
        ),
        "negative_fixed_tau": (
            lambda obj: obj["parameters"]["tau"].update(fixed=-1.0),
            "tau",
        ),
    }

    @pytest.mark.parametrize("case", sorted(MALFORMED_EDITS))
    def test_malformed_objective_exits_2(self, tmp_path, capsys, case):
        edit, named = self.MALFORMED_EDITS[case]
        doc = self.search_config(0.0)
        edit(doc["objective"])
        cfg = write_config(tmp_path, doc)
        assert cli.main(["search", cfg, "--budget", "100"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("config error:") and named in err

    def test_negative_phase_bounds_accepted(self, tmp_path, capsys):
        doc = self.search_config(0.0)
        doc["objective"]["parameters"]["phi1_prime"] = {"bounds": [-1.0, -0.5]}
        cfg = write_config(tmp_path, doc)
        assert cli.main(["search", cfg, "--budget", "100"]) == 0
        assert capsys.readouterr().out.startswith("# search report")

    def test_rate_linked_to_non_negative_phase_accepted(self, tmp_path, capsys):
        doc = self.search_config(0.0)
        doc["objective"]["parameters"].update(
            gamma3={"linked": "phi1_prime"}, phi1_prime={"bounds": [0.5, 1.0]}
        )
        cfg = write_config(tmp_path, doc)
        assert cli.main(["search", cfg, "--budget", "100"]) == 0
        assert capsys.readouterr().out.startswith("# search report")

    @pytest.mark.parametrize("family", ["small_overlap", "small_separated", "semi_infinite"])
    def test_non_giant_family_exits_2(self, tmp_path, capsys, family):
        doc = self.search_config(0.0)
        doc["system"]["family"] = family
        cfg = write_config(tmp_path, doc)
        assert cli.main(["search", cfg, "--budget", "100"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and family in err

    #: Free parameters in the order they are added; gamma3 is free only when
    #: all six are, and otherwise linked to gamma1 (a missing gamma3 would be
    #: fixed at 0).
    FREE_BOUNDS = {
        "gamma1": [0.05, 2.0],
        "gamma2": [0.1, 1.5],
        "gamma4": [0.05, 1.2],
        "phi1_prime": [0.0, 1.0],
        "phi2_prime": [0.0, 2.5],
        "gamma3": [0.2, 1.8],
    }

    def evaluations(self, tmp_path, n_free, budget):
        """`search` on ``n_free`` free parameters: its exit code and, on
        success, the evaluation count it reports."""
        free = {name: {"bounds": b} for name, b in list(self.FREE_BOUNDS.items())[:n_free]}
        doc = search_objective("isolation_contrast", free, min_reverse=0.0)
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "report.json"
        code = cli.main(["search", cfg, "--budget", str(budget), "--json", "--out", str(out)])
        return code, json.loads(out.read_text())["evaluations"] if code == 0 else None

    @pytest.mark.parametrize("n_free", range(1, 7))
    def test_evaluations_never_exceed_budget(self, tmp_path, capsys, n_free):
        least = 3**n_free + 2 * n_free
        for budget in sorted({100, 101, 250, least - 1, least, least + 1, 777, 1500}):
            if budget < 100:
                continue
            code, evaluations = self.evaluations(tmp_path, n_free, budget)
            if budget < least:
                assert code == 2
                assert capsys.readouterr().err.startswith("config error: a search budget")
            else:
                assert code == 0 and evaluations <= budget

    def test_six_free_parameters_need_741_evaluations(self, tmp_path, capsys, monkeypatch):
        with monkeypatch.context() as patch:
            # Any evaluation would call None and fail.
            patch.setattr(search_mod, "_objective_values", None)
            patch.setattr(search_mod, "rates_at_resonance", None)
            assert self.evaluations(tmp_path, 6, 740) == (2, None)
        err = capsys.readouterr().err
        assert "budget of 740 is below the 741 evaluations" in err
        assert self.evaluations(tmp_path, 6, 741) == (0, 741)


class TestDumpConfig:
    def test_round_trip(self, tmp_path, capsys):
        doc = base_config()
        doc["sweep"]["phase"] = {
            "min": 0.0,
            "max": 2 * math.pi,
            "count": 9,
            "linkage": {"phi1_prime": 1.0},
        }
        doc["system"]["family"] = "giant"
        cfg = write_config(tmp_path, doc)
        assert cli.main(["dump-config", cfg]) == 0
        dumped = json.loads(capsys.readouterr().out)
        spec_a, _ = cli.parse_config(dumped)
        spec_b, _ = cli.parse_config(json.loads((tmp_path / "config.json").read_text()))
        assert spec_a == spec_b
        # Dumping the dump is a fixed point.
        assert cli.dump_config(spec_a) == dumped

    def test_preset_dump_parses(self, capsys):
        assert cli.main(["dump-config", "--figure", "fig8"]) == 0
        doc = json.loads(capsys.readouterr().out)
        spec, _ = cli.parse_config(doc)
        assert spec == figure_preset("fig8").sweeps["main"]

    @pytest.mark.parametrize("figure_id, key", [("fig7", "ab"), ("fig9", "ab"), ("fig10", "a")])
    def test_multi_sweep_preset_dump_prints_first_sweep(self, capsys, figure_id, key):
        assert cli.main(["dump-config", "--figure", figure_id]) == 0
        spec, _ = cli.parse_config(json.loads(capsys.readouterr().out))
        assert spec == figure_preset(figure_id).sweeps[key]

    def test_objective_round_trip(self, tmp_path, capsys):
        doc = base_config(
            objective={
                "kind": "isolation_contrast",
                "parameters": {
                    "gamma1": {"bounds": [0.05, 3.0]},
                    "gamma2": {"fixed": 0.25},
                    "gamma3": {"linked": "gamma1", "factor": 1.0},
                    "gamma4": {"fixed": 0.0},
                },
                "min_reverse": 0.0,
            }
        )
        cfg = write_config(tmp_path, doc)
        assert cli.main(["dump-config", cfg]) == 0
        dumped = json.loads(capsys.readouterr().out)
        _, obj_a = cli.parse_config(dumped)
        _, obj_b = cli.parse_config(doc)
        assert obj_a == obj_b


def test_parse_config_requires_object():
    with pytest.raises(ConfigError):
        cli.parse_config([])


# ---------------------------------------------------------------------------
# Golden outputs: SHA-256 of whole CSV files written by the per-cell writer
# that formatted every value with f"{x:.17g}".  Any change of bytes fails.
# ---------------------------------------------------------------------------

#: Every panel of every preset at --delta-count 51 --phase-count 3.  The
#: phase axis 0, pi, 2pi puts singular cells into the giant-atom presets.
PRESET_DIGESTS = {
    "fig2a": {
        "fig2a.csv": "d4d521d8befe31ae025c00d3e38209d47bd2c0d597fcaeed75e1654308a16fb7",
    },
    "fig2b": {
        "fig2b.csv": "7ea8bb4601c0cdce16825c0711a902497f9d0ee5aa5f35379f7fafc11c85b3cc",
    },
    "fig3a": {
        "fig3a.csv": "76d4a88e01661fb1a40f0b06b43346e18199cd1c706602b6584995dea7cd86e5",
    },
    "fig3b": {
        "fig3b.csv": "5e620678897f418bf618846c6a3ae4809eeb2889864d5afdcc41ed8ac1f87aee",
    },
    "fig4a": {
        "fig4a.csv": "053325fd8512c40cc47cb4323bdc7b3f5ec0a86f43760ee8571e88c3c55031f2",
    },
    "fig4b": {
        "fig4b.csv": "99f21133129200d73b7439947032f2f1455d3ab636ba3200272e8c3d765be863",
    },
    "fig6": {
        "fig6a.csv": "a32bc1fbadab04e96847289cc2fef4d3eb31d7f77c68d1b049c88db0e0c27791",
        "fig6b.csv": "90e7ffc86f57fd220418f0a0da55215056f2c7ef9bac5ae0224e74a0046d7ff3",
    },
    "fig7": {
        "fig7a.csv": "e4505257ab3ff84bf0958a10d54ad2dff81ee3517766b69d07581bd675f44118",
        "fig7b.csv": "de2ecd37619f68ae503e40d99457c9838194284c6ae95142c8d03de4bbf85736",
        "fig7c.csv": "b78cd6cebd05a182c03727b9560462fedec5b2821f6d36fad3a0fb8e0d5f25aa",
        "fig7d.csv": "132128c036547a0792eb9b42db49fed337d1b09b229133c67e659137e4087cb9",
    },
    "fig8": {
        "fig8a.csv": "12e002c1fdeb3c04b87ad0ac6d6f54db2a580d800bd7ad343f35e4ce2562d8d0",
        "fig8b.csv": "d8593906da4252c6c8d03ee51763f7a5cd2f713fddca23523545ba0783e42d1f",
    },
    "fig9": {
        "fig9a.csv": "222334b1a1838d3b946a76e823a940c4eb275996ae7525c56bc70d6434d7f756",
        "fig9b.csv": "eef51eeaa92399f81025ea6aee45fa42b2eb5a6cb81aa1f4f5b6a23d653b5e88",
        "fig9c.csv": "ef96b9e07e25ff98fbad6f3b29219cd8ca312601de6c6ef78ae68c3bbc9f658d",
        "fig9d.csv": "3d9482c459a7a6e9d0e0457eba29a689a698d414ea79125de671c3fa8acfe339",
    },
    "fig10": {
        "fig10a.csv": "1cf0c7a0ddae5313872431872eb900b5a86e632aebb7f18333941ae6d775d617",
        "fig10b.csv": "322d6241db3159649fde50fe0d8becdc1f905f2cb673c2e000659d5a98406737",
    },
}


def sha256_of(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("figure_id", FIGURE_IDS)
def test_preset_panels_match_golden_digests(tmp_path, figure_id):
    argv = ["figure", figure_id, "--out-dir", str(tmp_path)]
    assert cli.main(argv + ["--delta-count", "51", "--phase-count", "3"]) == 0
    panels = {p.name: sha256_of(p) for p in tmp_path.glob("*.csv")}
    assert panels == PRESET_DIGESTS[figure_id]


def test_readme_lists_every_preset_id():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    (line,) = [x for x in readme.read_text().splitlines() if x.startswith("Preset ids:")]
    assert line == f"Preset ids: `{' '.join(FIGURE_IDS)}`."


def giant_at_pi_config():
    """Phases 3, pi - 0.07, pi: the solver flags the cell at pi and resonance
    ill_conditioned, and the cell beside it has eta_undefined."""
    doc = base_config()
    doc["system"]["family"] = "giant"
    doc["sweep"]["delta"] = {"min": -1, "max": 1, "count": 5}
    doc["sweep"]["phase"] = {
        "min": 3.0,
        "max": math.pi,
        "count": 3,
        "linkage": {"phi1_prime": 1.0},
    }
    return doc


@pytest.mark.parametrize(
    "doc, engine, flag, digest",
    [
        (
            base_config(),
            "both",
            "eta_undefined",
            "eb60afb598ab22a60be52b0b001d5475197f657fdc79e068ad1a019d046953f6",
        ),
        (
            giant_at_pi_config(),
            "solver",
            "ill_conditioned",
            "28c63ac677d9c3a6d73c6636b495dc6f5656c285bcc60c7085be2890503f0559",
        ),
    ],
)
def test_flagged_spectrum_matches_golden_digest(tmp_path, doc, engine, flag, digest):
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out.csv"
    assert cli.main(["spectrum", cfg, "--engine", engine, "--out", str(out)]) == 0
    assert f",{flag}\n" in out.read_text()
    assert sha256_of(out) == digest


#: `spectrum` output of `giant_at_pi_config` with 2 * SOLVER_BLOCK + 37
#: detunings, taken before the condition check screened cells with a bound:
#: each phase row spans three solver blocks, and the flagged cells at
#: resonance sit in the middle one.
MULTI_BLOCK_DIGESTS = {
    "both": ("eta_undefined", "0c3b138a8385f5aefdd6ef776071f001646f011ece50677433dfc80e5c860dd7"),
    "solver": ("ill_conditioned", "46b9a1f57b9fc1fc8cdfcdbac9135c5d75d1f9a8b7d06ea0d4f07157958608fd"),
}


@pytest.mark.parametrize("engine", sorted(MULTI_BLOCK_DIGESTS))
def test_multi_block_flagged_spectrum_matches_golden_digest(tmp_path, engine):
    """Rows split across solver blocks with flagged cells; digests taken at
    the parent of the screened condition check."""
    doc = giant_at_pi_config()
    doc["sweep"]["delta"]["count"] = 2 * SOLVER_BLOCK + 37
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out.csv"
    assert cli.main(["spectrum", cfg, "--engine", engine, "--out", str(out)]) == 0
    flag, digest = MULTI_BLOCK_DIGESTS[engine]
    assert f",{flag}\n" in out.read_text()
    assert sha256_of(out) == digest


#: Phase linkage per family; small_overlap has no phase, so its sweep
#: repeats one spectrum on every phase row.
FAMILY_LINKAGE = {
    "small_overlap": {"phi_a": 1.0},
    "small_separated": {"phi_a": 1.0, "phi_b": 0.5},
    "giant": {"phi1_prime": 1.0, "phi2_prime": -1.0},
    "semi_infinite": {"phi3": 1.0},
}

#: `spectrum` output on 5 phases x 21 detunings for every family, regime and
#: solver-backed engine, taken before the family table replaced the
#: per-family dispatch.
ENGINE_DIGESTS = {
    ("small_overlap", "markovian", "solver"): "b0db15cb9767175597c3b5e293fbfc189c091eb3bdaa4aef8fbb48f3b22cb502",
    ("small_overlap", "markovian", "both"): "6f75dc77a1b5e432671ba24834a645de44d73a316b176a5a0f0087fcdf872d2a",
    ("small_overlap", "non_markovian", "solver"): "707e450e4ce6a608d4130d59fc7d82cdb8bc3f2693324c1fcb9e23d3a19bba09",
    ("small_overlap", "non_markovian", "both"): "360e49bd958efafe98359e021742a6075e40891408b5076c3b766d8196e1d9c5",
    ("small_separated", "markovian", "solver"): "c11ad0264d62cccecc596194b27de9dfc000348b801980c268ab417d4f3d94c0",
    ("small_separated", "markovian", "both"): "05491e5c353b0b81e06e452a7addf0b47053eca1d0af99d674e4757687585eb6",
    ("small_separated", "non_markovian", "solver"): "63e574c31cc7d042cab2bf3f07b6d67d47676fff7376ec7caa8d4960a0ee3609",
    ("small_separated", "non_markovian", "both"): "8adf25f5314610f4acfa47875096b804ac7236b50d2522a9b3962f9363ca984c",
    ("giant", "markovian", "solver"): "e5adfc1532795a58f27c6e8ab69c0969c3f1575da87f7a2aac4da818d31a9f00",
    ("giant", "markovian", "both"): "1b3d9d16c948333c9692d182feea3622db0893e7c6987586f9e32b9293aca17d",
    ("giant", "non_markovian", "solver"): "398df277ef803faea0b935f4ee0077da1352c7e23def49b47293edbd66456ee7",
    ("giant", "non_markovian", "both"): "4b9be1f9e035d383f70140a422c15943639db082ab15a84dfb707ce2b1556e36",
    ("semi_infinite", "markovian", "solver"): "b3529ec57ee52f4f68f34167f155f9b67a45979d9eb91b2076d60f061c8b5297",
    ("semi_infinite", "markovian", "both"): "fc677d8156aa8d7ee43e346e36de4becd492499bc9e532c7ef22f014cfddf4f7",
    ("semi_infinite", "non_markovian", "solver"): "fe98d7d644d43555d8dc072ad3ac56b8ff4e3d0645c1c39564e2ca853066a4ac",
    ("semi_infinite", "non_markovian", "both"): "8372006ab17713171a0ca810854ff263dfbe403d713b8d0278e8edca89e81116",
}


def family_config(family, regime):
    doc = base_config()
    doc["system"].update(
        family=family,
        gamma=[0.5, 1.0, 1.5, 0.7],
        phases={"phi1_prime": 0.4, "phi2_prime": 1.1, "phi3": 0.2, "phi_a": 0.9, "phi_b": 1.3},
        regime=regime,
        tau=0.5 if regime == "non_markovian" else 0.0,
    )
    doc["sweep"]["phase"] = {
        "min": 0.25,
        "max": 5.75,
        "count": 5,
        "linkage": FAMILY_LINKAGE[family],
    }
    return doc


@pytest.mark.parametrize("family, regime, engine", sorted(ENGINE_DIGESTS))
def test_family_spectrum_matches_golden_digest(tmp_path, family, regime, engine):
    cfg = write_config(tmp_path, family_config(family, regime))
    out = tmp_path / "out.csv"
    assert cli.main(["spectrum", cfg, "--engine", engine, "--out", str(out)]) == 0
    assert sha256_of(out) == ENGINE_DIGESTS[family, regime, engine]


class TestOutputFileReplaced:
    """An existing regular output file is unlinked and written anew."""

    CASE = ("giant", "markovian", "both")

    def spectrum(self, tmp_path, out):
        cfg = write_config(tmp_path, family_config(*self.CASE[:2]))
        assert cli.main(["spectrum", cfg, "--engine", self.CASE[2], "--out", str(out)]) == 0

    def test_repeated_runs_give_the_golden_bytes(self, tmp_path):
        out = tmp_path / "out.csv"
        old = "an older, longer file\n" * 10_000
        out.write_text(old)
        other_link = tmp_path / "other_link.csv"
        os.link(out, other_link)
        for _ in range(2):
            self.spectrum(tmp_path, out)
            assert sha256_of(out) == ENGINE_DIGESTS[self.CASE]
        assert other_link.read_text() == old

    def test_symlinked_out_stays_a_symlink(self, tmp_path):
        target = tmp_path / "target.csv"
        target.write_text("old\n")
        out = tmp_path / "link.csv"
        out.symlink_to(target)
        self.spectrum(tmp_path, out)
        assert out.is_symlink()
        assert sha256_of(target) == ENGINE_DIGESTS[self.CASE]

    def test_figure_twice_into_one_directory(self, tmp_path):
        argv = ["figure", "fig9", "--out-dir", str(tmp_path), "--delta-count", "51"]
        for _ in range(2):
            assert cli.main(argv + ["--phase-count", "3"]) == 0
            panels = {p.name: sha256_of(p) for p in tmp_path.glob("*.csv")}
            assert panels == PRESET_DIGESTS["fig9"]


#: `spectrum --engine both --json` output of `family_config` for every family
#: and regime, taken before flags were stored as one code per cell.
JSON_DIGESTS = {
    ("giant", "markovian"): "1a6b5ef14ac57484047aad8e998ed9f293252da846e859209a00f812ee9fb858",
    ("giant", "non_markovian"): "c5879904a6f2e249e95d18d9b66443e2d10174f0ed847e52a5d154b914639ef3",
    ("semi_infinite", "markovian"): "c4a338f4c96f226900350ffab1815d632a8a85bc7a29079ef4ecf21238c26262",
    ("semi_infinite", "non_markovian"): "d65e4a04d927e9b06155b87a9490926bbf3d98db693dd154e1902b48c3ee15c6",
    ("small_overlap", "markovian"): "172e07f378d23cadf33e9cb77063a1faaedfe58859a17e27136db6d86e024b17",
    ("small_overlap", "non_markovian"): "35fbb8b1837c9447528939f548faa344023416867d48e828328313fb17bb2a28",
    ("small_separated", "markovian"): "0aa8fc8bba4e6c155383156e9bea4c0302cf15f2fcfef0b68b65b180649b8bfb",
    ("small_separated", "non_markovian"): "f5f25b1b4be77ee1f0fb52e3b8a4e081d4ce3335a288cc93ad00bdc19a8fa708",
}


def json_digest(tmp_path, doc, engine) -> tuple[str, str]:
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out.json"
    assert cli.main(["spectrum", cfg, "--engine", engine, "--json", "--out", str(out)]) == 0
    return sha256_of(out), out.read_text()


@pytest.mark.parametrize("family, regime", sorted(JSON_DIGESTS))
def test_family_json_matches_golden_digest(tmp_path, family, regime):
    digest, _ = json_digest(tmp_path, family_config(family, regime), "both")
    assert digest == JSON_DIGESTS[family, regime]


@pytest.mark.parametrize(
    "doc, engine, flag, digest",
    [
        (
            base_config(),
            "both",
            "eta_undefined",
            "6462170ab9aa1124ba1f7d6206a6c9975e3fcc6ce67607c4ed636c836915cb6e",
        ),
        (
            giant_at_pi_config(),
            "solver",
            "ill_conditioned",
            "ef1ca50231f334ed18732df52475c97d8048f8fe82645e69322e12e47dce557a",
        ),
    ],
)
def test_flagged_json_matches_golden_digest(tmp_path, doc, engine, flag, digest):
    actual, text = json_digest(tmp_path, doc, engine)
    assert f'"{flag}"' in text
    assert actual == digest


def search_objective(kind, free, **extra):
    """A giant objective with ``free`` bounds over fixed rates and phases."""
    parameters = {
        "gamma1": {"fixed": 0.7},
        "gamma2": {"fixed": 1.1},
        "gamma3": {"linked": "gamma1", "factor": 1.3},
        "gamma4": {"fixed": 0.4},
        "phi1_prime": {"fixed": 0.3},
        "phi2_prime": {"fixed": 1.2},
        "tau": {"fixed": 0.5},
    }
    parameters.update(free)
    doc = base_config(objective={"kind": kind, "parameters": parameters, **extra})
    doc["system"]["family"] = "giant"
    return doc


#: Search objectives with 1 to 3 free parameters and their budgets.  In
#: "singular_edge" the refinement closes in on phi1_prime = pi, where every
#: resonance denominator vanishes: 46 of its probes are singular, at three
#: distinct floats.
SEARCH_CASES = {
    "conversion_1d": (
        search_objective(
            "conversion_merit",
            {"gamma1": {"bounds": [0.01, 3.0]}, "gamma3": {"fixed": 1.0}},
            min_reverse=2 * 0.32 / 1.32**2,
        ),
        400,
    ),
    "isolation_2d": (
        search_objective(
            "isolation_contrast",
            {"gamma1": {"bounds": [0.05, 2.0]}, "gamma2": {"bounds": [0.1, 1.5]}},
            min_reverse=0.1,
        ),
        300,
    ),
    "conversion_3d": (
        search_objective(
            "conversion_merit",
            {
                "gamma2": {"bounds": [0.1, 2.0]},
                "gamma4": {"bounds": [0.05, 1.5]},
                "phi1_prime": {"bounds": [0.0, 1.0]},
            },
            purity_weight=1.5,
            rate_weight=0.8,
            min_reverse=0.2,
        ),
        500,
    ),
    "singular_edge": (
        search_objective("isolation_contrast", {"phi1_prime": {"bounds": [2.0, 3.5]}}),
        600,
    ),
}

#: `search` report digests (text, then `--json`), taken while the
#: golden-section refinement evaluated every probe afresh.
SEARCH_DIGESTS = {
    "conversion_1d": (
        "929a2731803705b154faad0d73c4056a86b5f0b275db56fccadf78a57a95ca13",
        "ad5d66f6a3a10e877ea393a39e9024e9aaaadb8b5bd69386498c96c5be1f5b80",
    ),
    "conversion_3d": (
        "32c8349bee774a1ae5d917668da42e91e608031d010b71f7d48f6d65919a1343",
        "c372bc2b1bbb173c8eae9f3af9a651b391b0467720b431c99a522675c7eea650",
    ),
    "isolation_2d": (
        "d7c75b4a5d06ddc543e8f11349731a61a9651b1902110452735205421d5cfe13",
        "21b677b336d174c8a4bdcfeda9afacddb708329e024b6bd2bb9f2485a7e700ea",
    ),
    "singular_edge": (
        "fb82ca79ff6b2d3971c359ab0a6ca8d4569c41514da92bc516a15543d6ddfe79",
        "d05d14944be14a21b93523ce7da362afd4f4fd8f7df4dea5f0d6a841a998733b",
    ),
}


@pytest.mark.parametrize("case", sorted(SEARCH_CASES))
def test_search_report_matches_golden_digest(tmp_path, case):
    doc, budget = SEARCH_CASES[case]
    cfg = write_config(tmp_path, doc)
    digests = []
    for fmt, name in (([], "report.txt"), (["--json"], "report.json")):
        out = tmp_path / name
        assert cli.main(["search", cfg, "--budget", str(budget), "--out", str(out)] + fmt) == 0
        digests.append(sha256_of(out))
    assert tuple(digests) == SEARCH_DIGESTS[case]


# ---------------------------------------------------------------------------
# The chunked writer against the per-cell formatting it replaced
# ---------------------------------------------------------------------------


def reference_csv(result, extra=None) -> str:
    """Cell-by-cell writer: nine f"{x:.17g}" calls and a flag join per row."""
    lines = cli._metadata_lines(result, extra) + [cli.CSV_HEADER]
    for j, d in enumerate(result.delta):
        for i, p in enumerate(result.phi):
            cell = result.cell(i, j)
            values = [d, p, *cell.as_row()]
            lines.append(",".join([f"{float(v):.17g}" for v in values] + [";".join(cell.flags)]))
    return "".join(line + "\n" for line in lines)


SPECIAL_VALUES = (
    float("nan"),
    float("inf"),
    -float("inf"),
    -0.0,
    0.0,
    5e-324,
    2.2250738585072009e-308,
    -1.5e-310,
    1.7976931348623157e308,
    0.1,
    1.0,
    -(2.0**53) - 2.0,
)

FLAG_CHOICES = (
    (),
    ("singular",),
    ("eta_undefined",),
    ("ill_conditioned", "eta_undefined"),
    ("eta_undefined", "ill_conditioned"),
    ("ill_conditioned", "eta_undefined", "singular"),
)

#: The flag code of each FLAG_CHOICES entry.
CHOICE_CODES = np.array([FLAG_NAMES.index(names) for names in FLAG_CHOICES], dtype=np.uint8)


def synthetic_result(rates, codes, with_phase_axis=True) -> SweepResult:
    n_phi, n_delta = rates["T_Ng"].shape
    phase_axis = (
        PhaseAxis(-math.pi, 0.3 * n_phi - math.pi - 0.3, n_phi, linkage=(("phi1_prime", 1.0),))
        if with_phase_axis
        else None
    )
    spec = SweepSpec(
        "giant", (0.32, 1.0, 1.0, 1.0), PhaseModel(), Axis(-3.0, 7.0, n_delta), phase_axis
    )
    phi = phase_axis.values() if with_phase_axis else np.array([0.0])
    return SweepResult(spec, spec.delta_axis.values(), phi, rates, np.asarray(codes, np.uint8), None)


def random_result(rng, n_phi, n_delta, with_phase_axis=True) -> SweepResult:
    shape = (n_phi, n_delta)
    rates = {}
    for name in RATE_FIELDS:
        grid = rng.standard_normal(shape) * 10.0 ** rng.integers(-320, 308, shape)
        special = rng.random(shape) < 0.2
        grid[special] = rng.choice(SPECIAL_VALUES, size=int(special.sum()))
        rates[name] = grid
    picks = rng.integers(0, len(FLAG_CHOICES), shape) * (rng.random(shape) < 0.1)
    return synthetic_result(rates, CHOICE_CODES[picks], with_phase_axis)


@pytest.mark.parametrize(
    "n_phi, n_delta, with_phase_axis",
    [
        (1, 7, False),  # phase_axis=None
        (3, 5, True),
        (16, 201, True),  # 3216 rows: not a multiple of the chunk
        (cli.CSV_CHUNK_ROWS + 37, 3, True),  # a phase row longer than a chunk
        (cli.CSV_CHUNK_ROWS, 2, True),  # chunk boundaries on delta boundaries
    ],
)
def test_writer_matches_per_cell_formatting(n_phi, n_delta, with_phase_axis):
    rng = np.random.default_rng(n_phi * 1000 + n_delta)
    result = random_result(rng, n_phi, n_delta, with_phase_axis)
    stream = io.StringIO()
    cli.write_csv(result, stream, extra={"figure": "x", "panel": "a"})
    assert stream.getvalue() == reference_csv(result, {"figure": "x", "panel": "a"})


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda n_phi: st.tuples(
            st.lists(
                hnp.arrays(np.float64, (n_phi, 3), elements=st.floats(width=64)),
                min_size=len(RATE_FIELDS),
                max_size=len(RATE_FIELDS),
            ),
            hnp.arrays(np.uint8, (n_phi, 3), elements=st.integers(0, len(FLAG_NAMES) - 1)),
        )
    )
)
def test_writer_property_random_float_grids(grids_and_codes):
    grids, codes = grids_and_codes
    result = synthetic_result(dict(zip(RATE_FIELDS, grids)), codes)
    stream = io.StringIO()
    cli.write_csv(result, stream)
    assert stream.getvalue() == reference_csv(result)


def test_writer_keeps_reverse_ill_conditioning_after_eta():
    """eta_undefined with an ill-conditioned reverse solve reads in the
    order combine_directions merges the two directions' flags."""
    rates = {name: np.zeros((1, 2)) for name in RATE_FIELDS}
    result = synthetic_result(rates, [[0, ETA_UNDEFINED | ILL_REVERSE]], with_phase_axis=False)
    stream = io.StringIO()
    cli.write_csv(result, stream)
    rows = stream.getvalue().splitlines()[-2:]
    assert [row.rsplit(",", 1)[1] for row in rows] == ["", "eta_undefined;ill_conditioned"]
    payload = cli.result_as_json(result)
    assert payload["flags"] == [["", "eta_undefined;ill_conditioned"]]


# ---------------------------------------------------------------------------
# Every small configuration parse_config accepts gives finite or flagged cells
# ---------------------------------------------------------------------------

#: Non-negative numbers from 0 to just past the magnitude cap: the extremes,
#: ordinary values, every decade from subnormal up, and Hypothesis's edge
#: floats.
MAGNITUDES = st.one_of(
    st.sampled_from((0.0, 5e-324, 1.0, cli.MAX_MAGNITUDE)),
    st.floats(0.0, 10.0),
    st.builds(pow, st.just(10.0), st.floats(-320.0, math.log10(cli.MAX_MAGNITUDE) + 1.0)),
    st.floats(0.0, cli.MAX_MAGNITUDE),
)
NUMBERS = st.builds(lambda sign, x: sign * x, st.sampled_from((1.0, -1.0)), MAGNITUDES)


@st.composite
def small_configs(draw):
    """Any family and regime, any phases and linkage, grids up to 4 x 9."""
    names = st.lists(st.sampled_from(PHASE_NAMES), unique=True)
    doc = base_config()
    doc["system"].update(
        family=draw(st.sampled_from(sorted(FAMILIES))),
        gamma=[draw(MAGNITUDES) for _ in range(4)],
        phases={name: draw(NUMBERS) for name in draw(names)},
        regime=draw(st.sampled_from(("markovian", "non_markovian"))),
        tau=draw(MAGNITUDES),
    )
    # A symmetric axis with an odd count has the resonance delta = 0 on it.
    stop = draw(NUMBERS)
    start = draw(st.one_of(st.just(-stop), NUMBERS))
    doc["sweep"]["delta"] = {"min": start, "max": stop, "count": draw(st.integers(2, 9))}
    if draw(st.booleans()):
        start, count = draw(NUMBERS), draw(st.integers(1, 4))
        doc["sweep"]["phase"] = {
            "min": start,
            "max": start if count == 1 else draw(NUMBERS),
            "count": count,
            "linkage": {name: draw(NUMBERS) for name in draw(names.filter(bool))},
        }
    return doc


def subnormal_rate_config():
    """A subnormal gamma2 swept onto resonance: the solver's LU pivot
    underflows and the solution is not finite, which used to abort the
    sweep with InvalidAmplitudeError."""
    doc = base_config()
    doc["system"].update(family="semi_infinite", gamma=[0.0, 5e-324, 0.0, 0.0])
    doc["sweep"]["delta"] = {"min": 4.0, "max": 0.0, "count": 3}
    return doc


@given(small_configs())
@example(subnormal_rate_config())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_accepted_config_gives_finite_or_flagged_cells(doc):
    """The closed and solver engines both finish on every configuration
    parse_config accepts, and each cell has finite rates or a flag."""
    try:
        spec, _ = cli.parse_config(doc)
    except ConfigError:
        return
    for engine in ("closed", "solver"):
        result = run_sweep(replace(spec, engine=engine))
        finite = np.logical_and.reduce([np.isfinite(result.rates[name]) for name in RATE_FIELDS])
        assert (finite | (result.codes != 0)).all(), engine

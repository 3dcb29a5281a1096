import json
import os
import re
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from simplexgeo.cli import (
    _COMMANDS,
    RunConfig,
    _build_parser,
    _emit,
    _write_atomic,
    config_from_args,
    main,
    parse_sequence_spec,
    run,
)
from simplexgeo.errors import ConfigError, NonFiniteOutput, ParseError, RatioOutOfRange
from simplexgeo.flows import LinearObjective, Trajectory, flow_closed_form, objective_value, solve_lp
from simplexgeo.sequence_core import TINY, SimplexPoint, make_simplex_point


class TestParseSequenceSpec:
    def test_uniform(self):
        spec = parse_sequence_spec("uniform", dim=4)
        assert spec.kind == "uniform" and spec.dim == 4

    def test_geometric(self):
        spec = parse_sequence_spec("geometric:0.5", dim=8)
        assert spec.kind == "geometric" and spec.ratio == 0.5

    def test_ratio_out_of_range(self):
        with pytest.raises(RatioOutOfRange):
            parse_sequence_spec("geometric:1.5", dim=4)

    def test_explicit(self):
        spec = parse_sequence_spec("explicit:0.25,0.75", dim=2)
        np.testing.assert_array_equal(spec.coords, [0.25, 0.75])

    def test_parse_error_carries_position(self):
        with pytest.raises(ParseError) as err:
            parse_sequence_spec("geometric:abc", dim=4)
        assert err.value.position == len("geometric:")

    def test_unknown_grammar(self):
        with pytest.raises(ParseError):
            parse_sequence_spec("fibonacci", dim=4)

    def test_file_spec(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"kind": "geometric", "dim": 6, "ratio": 0.3}))
        spec = parse_sequence_spec(f"file:{path}", dim=6)
        assert spec.ratio == 0.3

    def test_file_dim_mismatch(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"kind": "geometric", "dim": 6, "ratio": 0.3}))
        with pytest.raises(ConfigError):
            parse_sequence_spec(f"file:{path}", dim=4)

    @pytest.mark.parametrize(
        "content", ["not json", json.dumps({"dim": 6, "ratio": 0.3})], ids=["not-json", "no-kind"]
    )
    def test_bad_file_spec(self, tmp_path, content, capsys):
        path = tmp_path / "spec.json"
        path.write_text(content)
        with pytest.raises(ParseError):
            parse_sequence_spec(f"file:{path}", dim=6)
        assert main(["integrability", "--dim", "6", "--c", f"file:{path}"]) == 2
        assert capsys.readouterr().err.startswith("config error:")


FLOW_ARGS = [
    "flow", "--dim", "8", "--c", "geometric:0.5", "--p0", "uniform",
    "--t-max", "10", "--dt", "0.01", "--method", "closed", "--format", "csv",
]


class TestFlowCommand:
    def test_emits_csv_with_expected_rows(self, tmp_path, capsys):
        out = tmp_path / "flow.csv"
        code = main(FLOW_ARGS + ["--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 1002  # header + 1001 samples
        assert lines[0] == "t," + ",".join(f"p_{i}" for i in range(8)) + ",objective,residual_l1"
        objective = np.array([float(line.split(",")[-2]) for line in lines[1:]])
        assert np.diff(objective).min() >= -1e-12
        assert "pass" in capsys.readouterr().out

    def test_rk4_method(self, tmp_path):
        out = tmp_path / "flow.csv"
        code = main(
            ["flow", "--dim", "4", "--c", "geometric:0.5", "--p0", "uniform",
             "--t-max", "1", "--dt", "0.01", "--method", "rk4", "--out", str(out)]
        )
        assert code == 0 and out.exists()

    def test_json_mirror_has_report(self, tmp_path):
        out = tmp_path / "flow.json"
        code = main(FLOW_ARGS[:-2] + ["--format", "json", "--out", str(out), "--no-timestamp"])
        assert code == 0
        payload = json.loads(out.read_text())
        assert set(payload) >= {"times", "points", "objective", "residual_l1", "report"}
        assert payload["report"]["pass"] is True
        assert "timestamp" not in payload

    def test_missing_dim_is_config_error(self, capsys):
        code = main(["flow", "--c", "geometric:0.5", "--p0", "uniform",
                     "--t-max", "1", "--dt", "0.1"])
        assert code == 2
        assert "missing required fields" in capsys.readouterr().err


def per_cell_csv(traj):
    """The per-cell CSV writer the block writer replaced, kept as its reference."""
    dim = traj.coords.shape[1]
    header = "t," + ",".join(f"p_{i}" for i in range(dim)) + ",objective,residual_l1"
    rows = [header]
    for i, t in enumerate(traj.times):
        obj = traj.objective[i] if traj.objective is not None else float("nan")
        cells = [repr(float(t))] + [repr(float(x)) for x in traj.coords[i]]
        cells += [repr(float(obj)), repr(float(traj.residual_l1[i]))]
        rows.append(",".join(cells))
    return "\n".join(rows) + "\n"


def per_cell_json(traj, report):
    """The per-cell JSON mirror the block writer replaced, kept as its reference."""

    def floats(column):
        return None if column is None else [float(x) for x in column]

    mirror = {
        "times": floats(traj.times),
        "points": [floats(row) for row in traj.coords],
        "objective": floats(traj.objective),
        "residual_l1": floats(traj.residual_l1),
        "report": report,
    }
    return json.dumps(mirror, sort_keys=True, indent=1) + "\n"


SPECIAL_CELLS = np.array([-0.0, 0.0, TINY, 5e-324, 1e300, 0.1, 1.0 / 3.0])


def cells(rng, size):
    """Finite doubles of every magnitude, a quarter of them drawn from ``SPECIAL_CELLS``."""
    values = rng.standard_normal(size) * 10.0 ** rng.integers(-300, 300, size)
    return np.where(rng.random(size) < 0.25, rng.choice(SPECIAL_CELLS, size), values)


@st.composite
def trajectories(draw):
    rows, dim = draw(st.integers(1, 50)), draw(st.integers(2, 64))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    times = np.unique(np.concatenate([cells(rng, rows), np.arange(rows)]))
    times = np.sort(rng.choice(times, rows, replace=False))
    obj = LinearObjective(rng.uniform(-10.0, 10.0, dim)) if draw(st.booleans()) else None
    return Trajectory(times, cells(rng, (rows, dim)), obj, cells(rng, rows))


class TestWriterMatchesPerCellReference:
    @given(traj=trajectories())
    def test_csv_and_json_bytes(self, tmp_path_factory, traj):
        out = tmp_path_factory.mktemp("emit")
        report = {"command": "flow", "pass": True}
        csv_path = _emit(RunConfig("flow", out_path=str(out / "t.csv")), report, traj)
        cfg = RunConfig("flow", format="json", out_path=str(out / "t.json"))
        json_path = _emit(cfg, report, traj)
        with open(csv_path, "rb") as fh:
            assert fh.read() == per_cell_csv(traj).encode()
        with open(json_path, "rb") as fh:
            assert fh.read() == per_cell_json(traj, report).encode()


class TestOtherCommands:
    def test_geodesic(self, tmp_path):
        out = tmp_path / "geo.csv"
        code = main(["geodesic", "--dim", "3", "--p0", "uniform",
                     "--v0", "explicit:0.2,-0.1,-0.1", "--t-max", "2", "--dt", "0.1",
                     "--out", str(out)])
        assert code == 0
        assert len(out.read_text().strip().split("\n")) == 22

    def test_geodesic_overflowing_residual_is_an_error(self, tmp_path, capsys, recwarn):
        out = tmp_path / "geo.csv"
        code = main(["geodesic", "--dim", "3", "--p0", "uniform",
                     "--v0", "explicit:1e6,-5e5,-5e5", "--t-max", "1", "--dt", "0.5",
                     "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == (
            "geodesic dim=3 error in simplexgeo.connections.e_covariant_along_curve: "
            "e-connection derivative is not finite at t = 0.0\n"
        )
        assert not recwarn.list
        assert not out.exists()

    def test_lp_converges(self, tmp_path):
        out = tmp_path / "lp.json"
        code = main(["lp", "--dim", "6", "--c", "geometric:0.5", "--p0", "uniform",
                     "--tol", "1e-8", "--out", str(out), "--no-timestamp"])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["converged"] is True
        assert abs(payload["rate"] - 0.5) / 0.5 <= 0.05

    def test_lp_csv_rows_are_the_probes_on_the_flow(self, tmp_path):
        out = tmp_path / "lp.csv"
        argv = ["lp", "--dim", "8", "--c", "geometric:0.5", "--p0", "geometric:0.8", "--tol", "1e-8"]
        assert main(argv + ["--format", "csv", "--out", str(out)]) == 0
        obj = LinearObjective(parse_sequence_spec("geometric:0.5", 8).template())
        p0 = make_simplex_point(parse_sequence_spec("geometric:0.8", 8))
        _, report = solve_lp(obj, p0, 1e-8)
        lines = out.read_text().splitlines()
        assert lines[0] == "t," + ",".join(f"p_{i}" for i in range(8)) + ",objective,residual_l1"
        cells = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
        times, distances = np.array(report.probes).T
        assert cells[:, 0].tobytes() == times.tobytes()
        assert cells[:, -1].tobytes() == distances.tobytes()
        for t, row in zip(times, cells):
            point = flow_closed_form(obj, p0, t)
            assert row[1:-2].tobytes() == point.coords.tobytes()
            assert row[-2] == objective_value(obj, SimplexPoint(row[1:-2]))

    def test_lp_start_at_the_vertex_fits_no_rate(self, tmp_path, capsys):
        # Within 10 tol of e_0 at t = 0 there is no decade of decay to fit a rate on.
        out = tmp_path / "lp.json"
        code = main(["lp", "--dim", "3", "--c", "explicit:1,0,-1",
                     "--p0", "explicit:0.9999998,0.0000001,0.0000001",
                     "--tol", "1e-6", "--out", str(out), "--no-timestamp"])
        assert code == 0
        assert capsys.readouterr().out == f"lp dim=3 converged=True rate=none out={out} pass\n"
        payload = json.loads(out.read_text())
        assert payload["rate"] is None and payload["rate_rel_err"] is None

    def test_lp_constant_objective_fails(self, tmp_path):
        code = main(["lp", "--dim", "4", "--c", "explicit:1,1,1,1", "--p0", "uniform",
                     "--tol", "1e-6", "--out", str(tmp_path / "lp.json")])
        assert code == 1

    def test_isometry(self, tmp_path):
        out = tmp_path / "iso.json"
        code = main(["isometry", "--dim", "16", "--q", "3", "--seed", "3",
                     "--out", str(out), "--no-timestamp"])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["isometry_rel_residual"] <= 1e-12

    def test_bracket(self, tmp_path):
        out = tmp_path / "bracket.json"
        code = main(["bracket", "--dim", "6", "--seed", "1", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["canonical_pair"] == 1.0 and payload["analytic_max_abs"] == 0.0

    def test_integrability_report_schema(self, tmp_path):
        out = tmp_path / "integ.json"
        code = main(["integrability", "--dim", "5", "--c", "geometric:0.7", "--seed", "11",
                     "--out", str(out), "--no-timestamp"])
        assert code == 0
        payload = json.loads(out.read_text())
        assert set(payload) == {
            "brackets_max_abs", "conservation_max_drift", "gram_det", "pass", "seed",
        }

    def test_integrability_passes_a_tiny_nonzero_weight(self, tmp_path):
        out = tmp_path / "integ.json"
        code = main(["integrability", "--dim", "3", "--c", "explicit:3,2,1e-200", "--seed", "0",
                     "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["pass"] and payload["gram_det"] > 0.0

    def test_check_all(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        code = main(["check-all", "--dim", "16", "--seed", "7"])
        assert code == 0
        out = capsys.readouterr().out
        assert "[pass]" in out and "FAIL" not in out
        assert os.listdir(tmp_path) == []


#: A passing run of each command, and the file it writes when no --out is given.
PASSING_RUNS = {
    "flow": (["--dim", "4", "--c", "geometric:0.5", "--p0", "uniform", "--t-max", "1",
              "--dt", "0.5"], "flow.csv"),
    "geodesic": (["--dim", "3", "--p0", "uniform", "--v0", "explicit:0.2,-0.1,-0.1",
                  "--t-max", "1", "--dt", "0.5"], "geodesic.csv"),
    "lp": (["--dim", "4", "--c", "geometric:0.5", "--p0", "uniform", "--tol", "1e-6"], "lp.json"),
    "isometry": (["--dim", "4"], "isometry.json"),
    "bracket": (["--dim", "4"], "bracket.json"),
    "integrability": (["--dim", "4", "--c", "geometric:0.5"], "integrability.json"),
    "check-all": (["--dim", "4"], None),
}


class TestOutputFileAndStatusLine:
    """Which file a run writes and how its status line names it, with and without --out."""

    @pytest.mark.parametrize("command", PASSING_RUNS)
    def test_without_out(self, tmp_path, monkeypatch, capsys, command):
        monkeypatch.chdir(tmp_path)
        args, name = PASSING_RUNS[command]
        assert main([command, *args]) == 0
        status = capsys.readouterr().out.splitlines()[-1]
        assert status.startswith(f"{command} dim=")
        if name is None:  # check-all writes a file only when --out names one
            assert os.listdir(tmp_path) == []
            assert status.endswith(" pass") and " out=" not in status
        else:
            assert os.listdir(tmp_path) == [name]
            assert status.endswith(f" out={name} pass")

    @pytest.mark.parametrize("command", PASSING_RUNS)
    def test_with_out(self, tmp_path, monkeypatch, capsys, command):
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "result"
        assert main([command, *PASSING_RUNS[command][0], "--out", str(out)]) == 0
        status = capsys.readouterr().out.splitlines()[-1]
        assert os.listdir(tmp_path) == ["result"]
        if command == "check-all":
            assert json.loads(out.read_text())["pass"] is True
            assert status.endswith(" pass") and " out=" not in status
        else:
            assert status.endswith(f" out={out} pass")


class TestDeterminism:
    def test_csv_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(FLOW_ARGS + ["--out", str(a)]) == 0
        assert main(FLOW_ARGS + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_json_byte_identical_without_timestamp(self, tmp_path):
        # No output carries a timestamp, and --no-timestamp changes nothing.
        a, b, c = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "c.json"
        args = ["integrability", "--dim", "4", "--c", "geometric:0.5", "--seed", "9"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert main(args + ["--no-timestamp", "--out", str(c)]) == 0
        assert a.read_bytes() == b.read_bytes() == c.read_bytes()
        assert b'"timestamp"' not in a.read_bytes()


class TestAtomicity:
    def test_failed_replace_leaves_nothing(self, tmp_path, monkeypatch):
        target = tmp_path / "out.csv"

        def boom(src, dst):
            raise OSError("simulated crash")

        monkeypatch.setattr("simplexgeo.cli.os.replace", boom)
        with pytest.raises(OSError):
            _write_atomic(str(target), "payload")
        assert not target.exists()
        assert [p for p in os.listdir(tmp_path) if p.endswith(".tmp")] == []

    def test_interrupted_run_leaves_no_partial_output(self, tmp_path, monkeypatch):
        target = tmp_path / "flow.csv"

        def boom(src, dst):
            raise OSError("simulated crash")

        monkeypatch.setattr("simplexgeo.cli.os.replace", boom)
        code = main(FLOW_ARGS + ["--out", str(target)])
        assert code == 1
        assert not target.exists()

    def test_failing_chunks_leave_nothing(self, tmp_path):
        target = tmp_path / "out.csv"

        def chunks():
            yield "t,p_0,p_1,objective,residual_l1\n"
            raise OSError("simulated crash")

        with pytest.raises(OSError, match="simulated crash"):
            _write_atomic(str(target), chunks())
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["022", "077"])
    def test_output_mode_follows_the_umask(self, tmp_path, umask, mode):
        # The mode open(path, "w") gives a new file, not the 0o600 of the temp file.
        out = tmp_path / "iso.json"
        previous = os.umask(umask)
        try:
            assert main(["isometry", "--dim", "4", "--out", str(out)]) == 0
        finally:
            os.umask(previous)
        assert out.stat().st_mode & 0o777 == mode


class TestStreamedEmission:
    """Emission holds about one row at a time, whatever the number of rows."""

    @staticmethod
    def peak_bytes(tmp_path, fmt):
        rng = np.random.default_rng(0)
        rows, dim = 1001, 256
        traj = Trajectory(np.linspace(0.0, 10.0, rows), rng.dirichlet(np.ones(dim), rows),
                          LinearObjective(rng.uniform(size=dim)), rng.uniform(size=rows))
        cfg = RunConfig("flow", format=fmt, out_path=str(tmp_path / "t.out"))
        tracemalloc.start()
        try:
            _emit(cfg, {"command": "flow", "pass": True}, traj)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (tmp_path / "t.out").stat().st_size > 5 * 2**20
        return peak

    def test_csv_peak_is_one_row(self, tmp_path):
        # A writer that joins the rows into one string peaks at about 17 MB here.
        assert self.peak_bytes(tmp_path, "csv") < 2**20

    def test_json_peak_is_the_float_lists(self, tmp_path):
        # Only one row at a time is a float list; the block's tolist() alone is about 8 MB.
        assert self.peak_bytes(tmp_path, "json") < 2**20


class TestNearTheFloatRange:
    """Finite inputs near the float range: no numpy warning, no non-finite number in a file."""

    def test_log_weight_span_beyond_the_range(self, tmp_path, capsys, recwarn):
        out = tmp_path / "flow.csv"
        code = main(["flow", "--dim", "2", "--c", "explicit:1e308,-1e308", "--p0", "uniform",
                     "--t-max", "1", "--dt", "0.5", "--out", str(out)])
        assert code == 0
        assert capsys.readouterr() == (f"flow dim=2 final_objective=1e+308 out={out} pass\n", "")
        assert not recwarn.list
        assert out.read_text() == (
            "t,p_0,p_1,objective,residual_l1\n"
            "0.0,0.5,0.5,0.0,1e+308\n"
            "0.5,1.0,2.2250738585072014e-308,1e+308,4.450147717014403\n"
            "1.0,1.0,2.2250738585072014e-308,1e+308,4.450147717014403\n"
        )

    @pytest.mark.parametrize(
        "argv, err",
        [
            (["flow", "--dim", "2", "--c", "explicit:1e300,-1e300", "--p0", "uniform",
              "--t-max", "1e9", "--dt", "1e8"],
             "flow dim=2 error in simplexgeo.sequence_core._require_finite: "
             "log-weight vector contains NaN or infinity\n"),
            (["lp", "--dim", "3", "--c", "explicit:1e308,-1e308,0", "--p0", "uniform",
              "--tol", "1e-8"],
             "lp dim=3 error in simplexgeo.cli._emit: "
             "an output value is NaN or infinite; no file was written\n"),
            (["integrability", "--dim", "3", "--c", "explicit:1e308,1e307,1", "--seed", "1"],
             "integrability dim=3 error in simplexgeo.sequence_core._require_finite: "
             "coordinate vector contains NaN or infinity\n"),
            (["integrability", "--dim", "3", "--c", "explicit:1e200,1e199,1", "--seed", "1"],
             "integrability dim=3 error in simplexgeo.cli._emit: "
             "an output value is NaN or infinite; no file was written\n"),
            (["flow", "--dim", "2", "--c", "explicit:1e300,-1e300", "--p0", "uniform",
              "--t-max", "1e10", "--dt", "1e9", "--method", "rk4"],
             "flow dim=2 error in simplexgeo.sequence_core._require_finite: "
             "coordinate vector contains NaN or infinity\n"),
            (["flow", "--dim", "2", "--c", "explicit:1e300,-1e300", "--p0", "uniform",
              "--t-max", "1", "--dt", "0.5", "--method", "rk4"],
             "flow dim=2 error in simplexgeo.flows.integrate_rk4: "
             "an RK4 stage left the open simplex; shrink dt\n"),
            (["flow", "--dim", "3", "--c", "explicit:1e308,-1e308,0", "--p0", "uniform",
              "--t-max", "1", "--dt", "0.5", "--method", "rk4"],
             "flow dim=3 error in simplexgeo.sequence_core.check_zero_sum: "
             "tangent components sum to -8.216030716619784e+288, expected 0\n"),
        ],
        ids=["flow-exponent-overflows", "lp-gap-overflows", "integrability-phase-overflows",
             "integrability-bracket-overflows", "rk4-stage-overflows", "rk4-stage-leaves-simplex",
             "rk4-field-not-tangent"],
    )
    def test_typed_error_alone(self, tmp_path, capsys, recwarn, argv, err):
        assert main(argv + ["--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr() == ("", err)
        assert not recwarn.list
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_writer_refuses_a_non_finite_cell(self, tmp_path, fmt):
        traj = Trajectory(np.array([0.0, 1.0]), np.full((2, 2), 0.5), None,
                          np.array([0.0, np.inf]))
        cfg = RunConfig("flow", format=fmt, out_path=str(tmp_path / "t.out"))
        with pytest.raises(NonFiniteOutput):
            _emit(cfg, {"command": "flow"}, traj)
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_csv_writer_refuses_a_non_finite_inner_coordinate(self, tmp_path, bad):
        # Neither the smallest nor the largest finite cell: the check must still see it.
        rows = np.array([[0.2, 0.3, 0.5], [0.1, bad, 0.6], [0.4, 0.4, 0.2]])
        traj = Trajectory(np.array([0.0, 1.0, 2.0]), rows, None, np.zeros(3))
        cfg = RunConfig("flow", format="csv", out_path=str(tmp_path / "t.out"))
        with pytest.raises(NonFiniteOutput):
            _emit(cfg, {"command": "flow"}, traj)
        assert os.listdir(tmp_path) == []


ALL_OPTIONS = [
    "--dim", "4", "--c", "uniform", "--p0", "geometric:0.5", "--v0", "explicit:1,-1",
    "--q", "3", "--t-max", "2", "--dt", "0.1", "--tol", "1e-3", "--method", "rk4",
    "--seed", "3", "--out", "x.csv", "--format", "csv", "--no-timestamp",
]

TOP_HELP = """\
usage: simplexgeo [-h]
                  {flow,geodesic,lp,isometry,bracket,integrability,check-all}
                  ...

Fisher-Rao flows and geometry on truncated probability simplices

positional arguments:
  {flow,geodesic,lp,isometry,bracket,integrability,check-all}

options:
  -h, --help            show this help message and exit
"""

FLOW_HELP = """\
usage: simplexgeo flow [-h] [--dim DIM] [--c C_SPEC] [--p0 P0_SPEC]
                       [--v0 V0_SPEC] [--q Q] [--t-max T_MAX] [--dt DT]
                       [--tol TOL] [--method {closed,rk4}] [--seed SEED]
                       [--out OUT_PATH] [--format {csv,json}] [--no-timestamp]

options:
  -h, --help            show this help message and exit
  --dim DIM
  --c C_SPEC
  --p0 P0_SPEC
  --v0 V0_SPEC
  --q Q
  --t-max T_MAX
  --dt DT
  --tol TOL
  --method {closed,rk4}
  --seed SEED
  --out OUT_PATH
  --format {csv,json}
  --no-timestamp        ignored; no output has a timestamp
"""


def command_help(command):
    """``FLOW_HELP`` for ``command``: its usage line wrapped as argparse wraps it at ``COLUMNS=80``."""
    usage, rest = FLOW_HELP.split("\n\n", 1)
    prefix = f"usage: simplexgeo {command} "
    # \0 holds each bracketed group together, so textwrap breaks only between groups.
    groups = " ".join(group.replace(" ", "\0") for group in re.findall(r"\[[^]]*\]", usage))
    lines = textwrap.wrap(
        groups, 78, initial_indent=prefix, subsequent_indent=" " * len(prefix), break_on_hyphens=False
    )
    return "\n".join(lines).replace("\0", " ") + "\n\n" + rest


class TestParser:
    COMMANDS = ["flow", "geodesic", "lp", "isometry", "bracket", "integrability", "check-all"]

    @pytest.mark.parametrize("command", COMMANDS)
    def test_every_command_takes_every_option(self, command):
        assert vars(_build_parser().parse_args([command, *ALL_OPTIONS])) == {
            "command": command, "dim": 4, "c_spec": "uniform", "p0_spec": "geometric:0.5",
            "v0_spec": "explicit:1,-1", "q": 3.0, "t_max": 2.0, "dt": 0.1, "tol": 1e-3,
            "method": "rk4", "seed": 3, "out_path": "x.csv", "format": "csv",
            "no_timestamp": True,
        }
        unset = vars(_build_parser().parse_args([command]))
        assert unset.pop("command") == command and unset.pop("no_timestamp") is False
        assert set(unset.values()) == {None} and len(unset) == 12

    @pytest.mark.parametrize(
        "argv, text",
        [(["--help"], TOP_HELP)] + [([command, "-h"], command_help(command)) for command in _COMMANDS],
    )
    def test_help_text(self, capsys, monkeypatch, argv, text):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exit_info:
            _build_parser().parse_args(argv)
        assert exit_info.value.code == 0
        assert capsys.readouterr().out == text

    @pytest.mark.parametrize("command", COMMANDS)
    def test_omitted_options_keep_the_dataclass_defaults(self, command):
        cfg = config_from_args([command])
        assert cfg == RunConfig(command)
        assert (cfg.q, cfg.method, cfg.seed) == (2.0, "closed", 0)


class TestRunConfigValidation:
    def test_unknown_command(self):
        with pytest.raises(ConfigError):
            RunConfig(command="dance", dim=4).validate()

    def test_direct_run_with_config_object(self, tmp_path):
        cfg = RunConfig(
            command="lp", dim=4, c_spec="geometric:0.5", p0_spec="uniform",
            tol=1e-8, out_path=str(tmp_path / "lp.json"),
        )
        assert run(cfg) == 0

    @pytest.mark.parametrize("q", ["1.0", "0.5", "inf"])
    def test_q_outside_open_interval_is_config_error(self, q, capsys):
        assert main(["isometry", "--dim", "4", "--q", q]) == 2
        assert capsys.readouterr().err.startswith("config error: q must lie in (1, inf)")

    def test_negative_dt_rejected(self):
        cfg = RunConfig(command="flow", dim=4, c_spec="uniform", p0_spec="uniform",
                        t_max=1.0, dt=-0.1)
        with pytest.raises(ConfigError):
            cfg.validate()

    @pytest.mark.parametrize(
        "values, message",
        [
            ({"dim": "8"}, "dim must be int | None, got '8'"),
            ({"dim": 8, "seed": 1.5}, "seed must be int"),
            ({"dim": 8, "q": True}, "q must be float"),
            ({"dim": 8, "out_path": 3}, "out_path must be str | None"),
        ],
    )
    def test_wrong_config_type_is_config_error(self, values, message):
        # A caller of run() may set any value; the command line gives only typed ones.
        with pytest.raises(ConfigError) as err:
            RunConfig("isometry", **values).validate()
        assert message in str(err.value)

    @pytest.mark.parametrize(
        "cfg, message",
        [
            (RunConfig("flow", dim=4, c_spec="uniform", p0_spec="uniform", t_max=1.0, dt=0.5,
                       method="euler"),
             "method must be 'closed' or 'rk4', got 'euler'"),
            (RunConfig("isometry", dim=4, format="xml"), "format must be 'csv' or 'json', got 'xml'"),
        ],
        ids=["method-euler", "format-xml"],
    )
    def test_value_outside_the_choices_is_config_error(self, cfg, message):
        # argparse's choices reject these on the command line; run() rejects them too.
        with pytest.raises(ConfigError) as err:
            cfg.validate()
        assert str(err.value) == message


FLOW = ["flow", "--dim", "4", "--c", "uniform", "--p0", "uniform"]
CSV_REFUSED = "config error: format 'csv' is for flow, geodesic and lp; {} writes JSON\n"


class TestRejectedInputs:
    """Every input the configuration or the data model rejects exits 2, before any output."""

    @pytest.mark.parametrize(
        "spec_file, argv, message",
        [
            ({"kind": "bogus", "dim": 4}, ["integrability", "--dim", "4", "--c", "FILE"],
             "unknown kind 'bogus'"),
            ({"kind": "uniform", "dim": 4, "normalize": "sphere"},
             ["integrability", "--dim", "4", "--c", "FILE"], "unknown normalization 'sphere'"),
            (None, ["lp", "--dim", "2", "--c", "explicit:2,1", "--p0", "explicit:-1,2",
                    "--tol", "1e-6"], "explicit coords must be strictly positive"),
            (None, ["integrability", "--dim", "2", "--c", "explicit:nan,1"],
             "objective coefficient vector contains NaN or infinity"),
            (None, ["isometry", "--dim", "4", "--c", "bogus"], "expected uniform"),
            (None, ["isometry", "--dim", "2", "--v0", "explicit:1,-1"], "--v0 needs --p0"),
            ({"kind": "geometric", "dim": 4, "ratio": 0.5, "normalize": "none"},
             ["geodesic", "--dim", "4", "--p0", "FILE", "--v0", "explicit:0.1,-0.1,0,0",
              "--t-max", "1", "--dt", "0.1"], "geodesics start from exact (tail_bound = 0)"),
            (None, FLOW + ["--t-max", "1", "--dt", "1e-300"], "grid rows"),
            (None, FLOW + ["--t-max", "1e300", "--dt", "1e-300"], "grid rows"),
            (None, FLOW + ["--t-max", "1e12", "--dt", "1"], "grid rows"),
            (None, FLOW + ["--t-max", "1e12", "--dt", "1", "--method", "rk4"], "grid rows"),
            (None, ["check-all", "--dim", "4", "--out", "MISSING/a.json"],
             "missing' does not exist"),
            (None, ["isometry", "--dim", "4", "--out", "DIR"], "is a directory"),
            ({"kind": "explicit", "dim": 4, "coords": [[0.1, -0.1], [0.05, -0.05]]},
             ["geodesic", "--dim", "4", "--p0", "uniform", "--v0", "FILE", "--t-max", "1",
              "--dt", "0.1"], "coords must be a one-dimensional vector"),
            ({"kind": "uniform", "dim": 4.7}, ["integrability", "--dim", "4", "--c", "FILE"],
             "dim must be a JSON integer, got 4.7"),
            ({"kind": "geometric", "dim": 4, "ratio": 0.5, "normalise": "none"},
             ["geodesic", "--dim", "4", "--p0", "FILE", "--v0", "explicit:0.1,-0.1,0,0",
              "--t-max", "1", "--dt", "0.1"], "unknown key 'normalise' in a geometric spec"),
            ({"kind": "uniform", "dim": 4, "coords": [5, 1, 1, 1]},
             ["integrability", "--dim", "4", "--c", "FILE"],
             "unknown key 'coords' in a uniform spec"),
            (None, ["isometry", "--dim", "8", "--format", "csv"], CSV_REFUSED.format("isometry")),
            (None, ["bracket", "--dim", "4", "--format", "csv"], CSV_REFUSED.format("bracket")),
            (None, ["integrability", "--dim", "4", "--c", "uniform", "--format", "csv"],
             CSV_REFUSED.format("integrability")),
            (None, ["check-all", "--dim", "4", "--format", "csv"], CSV_REFUSED.format("check-all")),
            ({"kind": "explicit", "dim": 3, "coords": [0.2, 0.3, 0.6], "normalize": "none"},
             ["lp", "--dim", "3", "--c", "explicit:1,0,-1", "--p0", "FILE", "--tol", "1e-6"],
             "explicit coords sum to 1.1; pass normalize='simplex' to rescale"),
            (None, ["isometry", "--dim", "1"], "config error: dim must be >= 2, got 1\n"),
            (None, ["integrability", "--dim", "2", "--c", "explicit:1,x"],
             "config error: bad number 'x' (at position 11 in 'explicit:1,x')\n"),
            (None, ["integrability", "--dim", "4", "--c", "explicit:1,2"],
             "config error: explicit spec has 2 coords but dim is 4\n"),
            ({"kind": "explicit", "dim": 4, "coords": [0.2, 0.3, 0.5]},
             ["integrability", "--dim", "4", "--c", "FILE"], "config error: 3 coords but dim 4\n"),
        ],
        ids=["file-kind-bogus", "file-sphere-no-q", "p0-negative", "c-nan", "unread-c-bogus",
             "v0-without-p0", "geodesic-lossy-p0", "grid-dt-1e-300", "grid-ratio-overflows",
             "grid-1e12-rows", "grid-1e12-rows-rk4", "out-parent-missing", "out-is-directory",
             "file-v0-2d-coords", "file-dim-not-integer", "file-misspelt-key",
             "file-key-its-kind-ignores", "csv-isometry", "csv-bracket", "csv-integrability",
             "csv-check-all", "file-explicit-off-unit-sum", "dim-1", "explicit-bad-number",
             "explicit-count-not-dim", "file-coords-not-dim"],
    )
    def test_exits_2_with_config_error(self, tmp_path, capsys, spec_file, argv, message):
        # spec.json is the --c/--p0/--v0 spec file (FILE).
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec_file))
        (tmp_path / "dir").mkdir()
        out = tmp_path / "out.json"
        places = {"FILE": f"file:{path}", "DIR": str(tmp_path / "dir"),
                  "MISSING/a.json": str(tmp_path / "missing" / "a.json")}
        argv = [places.get(a, a) for a in argv]
        if "--out" not in argv:
            argv += ["--out", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        if message.endswith("\n"):  # a whole line: all of stderr
            assert err == message
        else:
            assert err.startswith("config error:") and message in err
        # Nothing is computed or written: no output, no temp file, no new directory.
        assert sorted(os.listdir(tmp_path)) == ["dir", "spec.json"]
        assert os.listdir(tmp_path / "dir") == []

    @pytest.mark.parametrize(
        "argv",
        [["isometry", "--dim", "4", "--out", ""],
         FLOW + ["--t-max", "1", "--dt", "0.5", "--out", ""],
         ["check-all", "--dim", "4", "--out", ""]],
        ids=["isometry", "flow", "check-all"],
    )
    def test_empty_out_path_rejected(self, tmp_path, monkeypatch, capsys, argv):
        # An empty path used to fall back to ./<command>.<ext>, or to no file for check-all.
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 2
        assert capsys.readouterr() == ("", "config error: out_path must not be empty\n")
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("argv", [
        ["flow", "--t-max", "1", "--dt", "0.1"],
        ["lp", "--tol", "1e-6"],
    ])
    def test_lossy_point_accepted_by_flow_and_lp(self, tmp_path, argv):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"kind": "geometric", "dim": 4, "ratio": 0.5, "normalize": "none"}))
        out = tmp_path / "out"
        common = ["--dim", "4", "--c", "explicit:3,2,1,0", "--p0", f"file:{path}", "--out", str(out)]
        assert main(argv + common) == 0
        assert out.exists()

    def test_unnormalized_explicit_point_from_a_file(self, tmp_path):
        # Within the membership tolerance of a unit sum, the coordinates are taken as given.
        coords = [0.2, 0.3, 0.5 + 1e-12]
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"kind": "explicit", "dim": 3, "coords": coords, "normalize": "none"}))
        out = tmp_path / "flow.csv"
        assert main(["flow", "--dim", "3", "--c", "explicit:1,0,-1", "--p0", f"file:{path}",
                     "--t-max", "1", "--dt", "1", "--out", str(out)]) == 0
        # The t = 0 row is the point after one softmax, so it keeps the coordinates to rounding.
        first = out.read_text().splitlines()[1].split(",")
        np.testing.assert_allclose([float(x) for x in first[1:4]], coords, rtol=1e-11)

    @pytest.mark.parametrize("command", [
        ["bracket", "--dim", "4"],
        ["isometry", "--dim", "4"],
        ["integrability", "--dim", "4", "--c", "uniform"],
        ["check-all", "--dim", "4"],
    ])
    @pytest.mark.parametrize("source", ["flag", "run"])
    def test_negative_seed_rejected(self, tmp_path, capsys, command, source):
        # The one schema rejects it, from the command line or from a caller of run().
        out = tmp_path / "out.json"
        argv = command + ["--out", str(out)]
        if source == "flag":
            code = main(argv + ["--seed", "-1"])
        else:
            cfg = config_from_args(argv)
            cfg.seed = -4
            code = run(cfg)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "seed must be >= 0" in err
        assert not out.exists()

    def test_library_error_inside_a_body_exits_1(self, tmp_path, capsys):
        # Valid inputs, but one RK4 step of size 1 leaves the open simplex.
        code = main(["flow", "--dim", "2", "--c", "explicit:100,0", "--p0", "uniform",
                     "--t-max", "1", "--dt", "1", "--method", "rk4",
                     "--out", str(tmp_path / "flow.csv")])
        assert code == 1
        assert "error in simplexgeo.flows" in capsys.readouterr().err

    def test_rk4_step_leaving_the_simplex_exits_1(self, tmp_path, capsys, recwarn):
        # Every stage stays in the open simplex, but the step's weighted sum of them does not.
        out = tmp_path / "flow.csv"
        code = main(["flow", "--dim", "2", "--c", "explicit:6.5,0", "--p0", "explicit:0.1,0.9",
                     "--t-max", "1", "--dt", "1", "--method", "rk4", "--out", str(out)])
        assert code == 1
        assert capsys.readouterr() == ("", (
            "flow dim=2 error in simplexgeo.flows.integrate_rk4: "
            "an RK4 step left the open simplex; shrink dt\n"
        ))
        assert not out.exists() and not recwarn.list


def test_import_leaves_numpy_random_unloaded():
    # Loading numpy.random costs about 10 ms and 5 MB of peak RSS per process, and
    # the flow, geodesic and lp commands draw nothing.  Only a seeded command may load it.
    probe = (
        "import sys, numpy\n"
        "before = 'numpy.random' in sys.modules\n"
        "import simplexgeo.cli\n"
        "print(before, 'numpy.random' in sys.modules)\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr
    before, after = done.stdout.split()
    assert after == before, "import simplexgeo.cli loaded numpy.random"

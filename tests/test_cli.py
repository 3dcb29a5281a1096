import json
import os

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from simplexgeo.cli import (
    RunConfig,
    _emit,
    _write_atomic,
    config_from_args,
    main,
    parse_sequence_spec,
    run,
)
from simplexgeo.errors import ConfigError, ParseError, RatioOutOfRange
from simplexgeo.flows import LinearObjective, Trajectory
from simplexgeo.sequence_core import TINY


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
        cfg = RunConfig("flow", format="json", timestamp=False, out_path=str(out / "t.json"))
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

    def test_check_all(self, capsys):
        code = main(["check-all", "--dim", "16", "--seed", "7"])
        assert code == 0
        out = capsys.readouterr().out
        assert "[pass]" in out and "FAIL" not in out


class TestDeterminism:
    def test_csv_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(FLOW_ARGS + ["--out", str(a)]) == 0
        assert main(FLOW_ARGS + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_json_byte_identical_without_timestamp(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["integrability", "--dim", "4", "--c", "geometric:0.5", "--seed", "9",
                "--no-timestamp"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_env_seed_respected_and_overridden(self, monkeypatch):
        monkeypatch.setenv("SIMPLEXGEO_SEED", "17")
        cfg = config_from_args(["check-all", "--dim", "4"])
        assert cfg.seed == 17
        cfg = config_from_args(["check-all", "--dim", "4", "--seed", "9"])
        assert cfg.seed == 9

    def test_config_file_merging(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({
            "dim": 8, "c_spec": "geometric:0.5", "p0_spec": "uniform",
            "t_max": 1.0, "dt": 0.1, "method": "closed", "format": "csv",
            "out_path": str(tmp_path / "from_config.csv"),
        }))
        cfg = config_from_args(["flow", "--config", str(path)])
        assert cfg.dim == 8 and cfg.t_max == 1.0
        cfg = config_from_args(["flow", "--config", str(path), "--dim", "4"])
        assert cfg.dim == 4  # explicit flag wins

    def test_unknown_config_field_rejected(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"dim": 8, "bogus": 1}))
        with pytest.raises(ConfigError):
            config_from_args(["flow", "--config", str(path)])

    def test_config_file_cannot_set_command(self, tmp_path, capsys):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"command": "flow", "dim": 4}))
        assert main(["isometry", "--config", str(path), "--out", str(tmp_path / "iso.json")]) == 2
        assert capsys.readouterr().err == "config error: unknown config fields: ['command']\n"
        assert not (tmp_path / "iso.json").exists()

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


class TestRunConfigValidation:
    def test_unknown_command(self):
        with pytest.raises(ConfigError):
            RunConfig(command="dance", dim=4).validate()

    def test_direct_run_with_config_object(self, tmp_path):
        cfg = RunConfig(
            command="lp", dim=4, c_spec="geometric:0.5", p0_spec="uniform",
            tol=1e-8, out_path=str(tmp_path / "lp.json"), timestamp=False,
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
            ([8], "does not hold a JSON object"),
        ],
    )
    def test_wrong_config_type_is_config_error(self, tmp_path, capsys, values, message):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(values))
        assert main(["isometry", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and message in err

    @pytest.mark.parametrize(
        "in_config, flags, stamped",
        [(False, [], False), (True, [], True), (True, ["--no-timestamp"], False)],
    )
    def test_config_timestamp(self, tmp_path, in_config, flags, stamped):
        path = tmp_path / "run.json"
        out = tmp_path / "iso.json"
        path.write_text(json.dumps({"dim": 4, "timestamp": in_config, "out_path": str(out)}))
        assert main(["isometry", "--config", str(path), *flags]) == 0
        assert ("timestamp" in json.loads(out.read_text())) == stamped


FLOW = ["flow", "--dim", "4", "--c", "uniform", "--p0", "uniform"]


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
        ],
        ids=["file-kind-bogus", "file-sphere-no-q", "p0-negative", "c-nan", "unread-c-bogus",
             "v0-without-p0", "geodesic-lossy-p0", "grid-dt-1e-300", "grid-ratio-overflows",
             "grid-1e12-rows", "grid-1e12-rows-rk4", "out-parent-missing", "out-is-directory"],
    )
    def test_exits_2_with_config_error(self, tmp_path, capsys, spec_file, argv, message):
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
        assert err.startswith("config error:") and message in err
        # Nothing is computed or written: no output, no temp file, no new directory.
        assert sorted(os.listdir(tmp_path)) == ["dir", "spec.json"]
        assert os.listdir(tmp_path / "dir") == []

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

    @pytest.mark.parametrize("command", [
        ["bracket", "--dim", "4"],
        ["isometry", "--dim", "4"],
        ["integrability", "--dim", "4", "--c", "uniform"],
        ["check-all", "--dim", "4"],
    ])
    @pytest.mark.parametrize("source", ["flag", "env"])
    def test_negative_seed_rejected(self, tmp_path, capsys, monkeypatch, command, source):
        out = tmp_path / "out.json"
        argv = command + ["--out", str(out)]
        if source == "flag":
            argv += ["--seed", "-1"]
        else:
            monkeypatch.setenv("SIMPLEXGEO_SEED", "-4")
        assert main(argv) == 2
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

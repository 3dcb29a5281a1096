"""Command-line surface: experiments, reports, and the check suite.

Commands
    flow           gradient-flow trajectory (closed form or RK4 oracle)
    geodesic       exponential-geodesic trajectory with equation residuals
    lp             follow the flow to the vertex optimum and fit the rate
    isometry       root-transform isometry residuals at a given dimension
    bracket        Poisson-bracket spot checks
    integrability  commuting-integrals report (JSON)
    check-all      every module's invariant suite

A run validates its configuration, builds every given spec flag and the
time grid (:func:`_inputs`), runs the command body and writes one file
(:func:`_emit`).
Exit status: 0 pass, 1 failure inside a body, 2 any input rejected by the
configuration schema or the data model.

Outputs are written atomically (temp file + rename).  CSV columns are
``t,p_0,...,p_{N-1},objective,residual_l1`` with shortest round-trip
number formatting; JSON mirrors carry the same fields plus a report
block.  Identical configuration and seed give byte-identical files,
modulo a JSON timestamp that ``--no-timestamp`` suppresses.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
import time
import traceback
import typing
from dataclasses import dataclass, fields

import numpy as np

from . import checks
from .connections import EGeodesic, e_geodesic_residual_rows, make_e_geodesic
from .errors import ConfigError, ParseError, SimplexGeoError
from .flows import (
    LinearObjective,
    Trajectory,
    flow_trajectory,
    gradient_vector_field,
    integrate_rk4,
    objective_value,
    solve_lp,
    time_grid,
)
from .hamiltonian import (
    CANONICAL_TOL,
    CoordinateImag,
    CoordinateReal,
    bracket_max,
    brackets_vanish,
    coordinate_hamiltonian,
    integrability_suite,
    poisson_bracket,
    random_complex_point,
)
from .sequence_core import (
    SequenceSpec,
    SimplexPoint,
    check_exponent,
    make_simplex_point,
    make_tangent,
    softmax_rows,
)

#: Most negative step-to-step objective change a ``flow`` trajectory may show.
FLOW_MIN_INCREMENT = -1e-12
#: Largest l1 e-connection residual a ``geodesic`` row may show.
GEODESIC_RESIDUAL_TOL = 1e-5
#: Largest relative error of the fitted ``lp`` rate against the gap c_0 - c_1.
LP_RATE_TOL = 0.05


def _type_ok(value, hint) -> bool:
    """JSON-level type check: ints pass as floats, but bools pass only as bools."""
    allowed = typing.get_args(hint) or (hint,)
    if isinstance(value, bool):
        return bool in allowed
    return isinstance(value, allowed) or (float in allowed and isinstance(value, int))


@dataclass
class RunConfig:
    command: str
    dim: int | None = None
    c_spec: str | None = None
    p0_spec: str | None = None
    v0_spec: str | None = None
    q: float = 2.0
    t_max: float | None = None
    dt: float | None = None
    tol: float | None = None
    method: str = "closed"
    seed: int = 0
    out_path: str | None = None
    format: str | None = None
    timestamp: bool = True

    def validate(self) -> None:
        if self.command not in _COMMANDS:
            raise ConfigError(f"unknown command {self.command!r}")
        hints = typing.get_type_hints(RunConfig)
        for f in fields(self):
            value = getattr(self, f.name)
            if not _type_ok(value, hints[f.name]):
                raise ConfigError(f"{f.name} must be {f.type}, got {value!r}")
        missing = [f for f in _COMMANDS[self.command][1] if getattr(self, f) is None]
        if missing:
            raise ConfigError(
                f"command {self.command!r} is missing required fields: {', '.join(missing)}"
            )
        if self.method not in ("closed", "rk4"):
            raise ConfigError(f"method must be 'closed' or 'rk4', got {self.method!r}")
        if self.format not in (None, "csv", "json"):
            raise ConfigError(f"format must be 'csv' or 'json', got {self.format!r}")
        if self.dim < 2:
            raise ConfigError(f"dim must be >= 2, got {self.dim}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.out_path is not None:
            # Rejected before any compute, so a bad --out neither wastes a run nor leaves a temp file.
            if os.path.isdir(self.out_path):
                raise ConfigError(f"out_path {self.out_path!r} is a directory")
            parent = os.path.dirname(os.path.abspath(self.out_path))
            if not os.path.isdir(parent):
                raise ConfigError(f"out_path {self.out_path!r}: directory {parent!r} does not exist")
        check_exponent(self.q)
        for name in ("t_max", "dt", "tol"):
            val = getattr(self, name)
            if val is not None and (not math.isfinite(val) or val <= 0.0):
                raise ConfigError(f"{name} must be positive and finite, got {val}")


# ---------------------------------------------------------------------------
# sequence-spec grammar: uniform | geometric:<r> | explicit:<v1,v2,...> | file:<path>
# ---------------------------------------------------------------------------


def parse_sequence_spec(text: str, dim: int) -> SequenceSpec:
    """Parse a spec string; ``dim`` comes from ``--dim``."""
    if text == "uniform":
        return SequenceSpec("uniform", dim)
    if text.startswith("geometric:"):
        arg = text[len("geometric:") :]
        try:
            ratio = float(arg)
        except ValueError:
            raise ParseError(text, len("geometric:"), f"bad ratio {arg!r}") from None
        return SequenceSpec("geometric", dim, ratio=ratio)
    if text.startswith("explicit:"):
        body = text[len("explicit:") :]
        values = []
        offset = len("explicit:")
        for part in body.split(","):
            try:
                values.append(float(part))
            except ValueError:
                raise ParseError(text, offset, f"bad number {part!r}") from None
            offset += len(part) + 1
        if dim != len(values):
            raise ConfigError(f"explicit spec has {len(values)} coords but dim is {dim}")
        return SequenceSpec("explicit", len(values), coords=np.asarray(values))
    if text.startswith("file:"):
        path = text[len("file:") :]
        try:
            with open(path, encoding="utf-8") as fh:
                spec = SequenceSpec.from_json(json.load(fh))
        except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
            # ValueError covers non-JSON text; the others, JSON that is not a spec object.
            message = f"no spec in {path!r}: {type(exc).__name__}: {exc}"
            raise ParseError(text, len("file:"), message) from None
        if spec.dim != dim:
            raise ConfigError(f"spec file has dim {spec.dim} but dim is {dim}")
        return spec
    raise ParseError(text, 0, "expected uniform | geometric:<r> | explicit:<v,..> | file:<path>")


# ---------------------------------------------------------------------------
# atomic emission
# ---------------------------------------------------------------------------


def _write_atomic(path: str, payload: str) -> None:
    parent = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=parent, prefix=".simplexgeo-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _trajectory_csv(traj: Trajectory) -> str:
    header = "t," + ",".join(f"p_{i}" for i in range(traj.coords.shape[1]))
    rows = [header + ",objective,residual_l1"]
    values = np.full(len(traj), np.nan) if traj.objective is None else traj.objective
    columns = (traj.times.tolist(), traj.coords, values.tolist(), traj.residual_l1.tolist())
    for t, row, f, r in zip(*columns):
        # tolist() gives Python floats, whose repr is the shortest round trip.
        rows.append(",".join(map(repr, [t, *row.tolist(), f, r])))
    return "\n".join(rows) + "\n"


def _emit(cfg: RunConfig, report: dict, traj: Trajectory | None = None) -> str:
    """Write the output to ``--out`` or ``<command>.<ext>`` and return its path:
    CSV for a trajectory unless ``--format json``, JSON for everything else."""
    as_csv = traj is not None and cfg.format != "json"
    path = cfg.out_path or f"{cfg.command}.{'csv' if as_csv else 'json'}"
    if as_csv:
        payload = _trajectory_csv(traj)
    else:
        if traj is not None:
            report = {
                "times": traj.times.tolist(),
                "points": traj.coords.tolist(),
                "objective": None if traj.objective is None else traj.objective.tolist(),
                "residual_l1": traj.residual_l1.tolist(),
                "report": report,
            }
        if cfg.timestamp:
            report = {**report, "timestamp": time.time()}
        payload = json.dumps(report, sort_keys=True, indent=1) + "\n"
    _write_atomic(path, payload)
    return path


# ---------------------------------------------------------------------------
# input step and command bodies; each body returns (key metric string, passed)
# ---------------------------------------------------------------------------


def _inputs(
    cfg: RunConfig,
) -> tuple[LinearObjective | None, SimplexPoint | None, EGeodesic | None, np.ndarray | None]:
    """Build every given spec flag and the time grid, whether or not the command reads them.

    ``--v0`` is the initial velocity of the e-geodesic through ``--p0``, so
    it is built into that geodesic, which rejects a lossy ``--p0``.
    """
    obj = p0 = geo = times = None
    if cfg.c_spec is not None:
        obj = LinearObjective(parse_sequence_spec(cfg.c_spec, cfg.dim).template())
    if cfg.p0_spec is not None:
        p0 = make_simplex_point(parse_sequence_spec(cfg.p0_spec, cfg.dim))
    if cfg.v0_spec is not None:
        if p0 is None:
            raise ConfigError("--v0 needs --p0, the point the velocity is attached to")
        v0 = make_tangent(p0, parse_sequence_spec(cfg.v0_spec, cfg.dim).template())
        geo = make_e_geodesic(p0, v0)
    if cfg.t_max is not None and cfg.dt is not None:
        times = time_grid(cfg.t_max, cfg.dt)
    return obj, p0, geo, times


def _cmd_flow(
    cfg: RunConfig, obj: LinearObjective, p0: SimplexPoint, _geo, times: np.ndarray
) -> tuple[str, bool]:
    if cfg.method == "closed":
        traj = flow_trajectory(obj, p0, times)
    else:
        traj = integrate_rk4(gradient_vector_field(obj), p0, cfg.t_max, cfg.dt, objective=obj)
    drops = float(np.diff(traj.objective).min()) if len(traj) > 1 else 0.0
    passed = drops >= FLOW_MIN_INCREMENT
    report = {
        "command": "flow",
        "method": cfg.method,
        "final_objective": float(traj.objective[-1]),
        "objective_min_increment": drops,
        "rows": len(traj),
        "pass": passed,
    }
    out = _emit(cfg, report, traj)
    return f"final_objective={traj.objective[-1]:.6g} out={out}", passed


def _cmd_geodesic(
    cfg: RunConfig, obj: LinearObjective | None, _p0, geo: EGeodesic, times: np.ndarray
) -> tuple[str, bool]:
    rows, residuals = e_geodesic_residual_rows(geo, times)
    traj = Trajectory(times, rows, obj, residuals)
    worst = float(residuals.max())
    passed = worst <= GEODESIC_RESIDUAL_TOL
    report = {
        "command": "geodesic",
        "max_residual_l1": worst,
        "rows": len(traj),
        "pass": passed,
    }
    out = _emit(cfg, report, traj)
    return f"max_residual_l1={worst:.3e} out={out}", passed


def _cmd_lp(cfg: RunConfig, obj: LinearObjective, p0: SimplexPoint, *_) -> tuple[str, bool]:
    limit, report = solve_lp(obj, p0, cfg.tol)
    rate_ok = report.rate_rel_err is None or report.rate_rel_err <= LP_RATE_TOL
    passed = report.converged and report.advisory is None and rate_ok
    payload = report.to_dict()
    payload["command"] = "lp"
    payload["limit"] = [float(x) for x in limit.coords]
    payload["objective_at_limit"] = objective_value(obj, limit)
    payload["pass"] = passed
    probes = None
    if cfg.format == "csv":
        times, distances = np.array(report.probes).T
        rows = softmax_rows(p0, obj.c, times)
        probes = Trajectory(times, rows, obj, distances)
    out = _emit(cfg, payload, probes)
    rate = "none" if report.rate is None else f"{report.rate:.4g}"
    return f"converged={report.converged} rate={rate} out={out}", passed


def _cmd_isometry(cfg: RunConfig, *_) -> tuple[str, bool]:
    rng = np.random.default_rng(cfg.seed)
    # The round trip is reported by check-all only; it is not part of this verdict.
    _, iso, scaled = checks.isometry_results(rng, cfg.dim, (cfg.q,), 50)
    passed = iso.passed and scaled.passed
    report = {
        "command": "isometry",
        "dim": cfg.dim,
        "q": cfg.q,
        "isometry_rel_residual": iso.value,
        "q_identity_rel_residual": scaled.value,
        "seed": cfg.seed,
        "pass": passed,
    }
    out = _emit(cfg, report)
    return f"isometry_residual={iso.value:.3e} q_residual={scaled.value:.3e} out={out}", passed


def _cmd_bracket(cfg: RunConfig, *_) -> tuple[str, bool]:
    rng = np.random.default_rng(cfg.seed)
    z = random_complex_point(rng, cfg.dim)
    canonical = poisson_bracket(CoordinateReal(0), CoordinateImag(0), z)
    c = rng.uniform(0.5, 3.0, size=cfg.dim)
    modes = [coordinate_hamiltonian(c, k) for k in range(cfg.dim)]
    analytic_max, numeric_max = bracket_max(modes, z)
    passed = brackets_vanish(analytic_max, numeric_max) and abs(canonical - 1.0) <= CANONICAL_TOL
    report = {
        "command": "bracket",
        "dim": cfg.dim,
        "canonical_pair": canonical,
        "analytic_max_abs": analytic_max,
        "numeric_max_abs": numeric_max,
        "seed": cfg.seed,
        "pass": passed,
    }
    out = _emit(cfg, report)
    return f"canonical={canonical:.12g} numeric_max={numeric_max:.3e} out={out}", passed


def _cmd_integrability(cfg: RunConfig, obj: LinearObjective, *_) -> tuple[str, bool]:
    report = integrability_suite(obj.c, trials=10, seed=cfg.seed)
    out = _emit(cfg, report)
    return (
        f"brackets_max_abs={report['brackets_max_abs']:.3e} "
        f"gram_det={report['gram_det']:.3e} out={out}"
    ), bool(report["pass"])


def _cmd_check_all(cfg: RunConfig, *_) -> tuple[str, bool]:
    results = checks.check_all(cfg.dim, cfg.seed)
    for res in results:
        print(res.line())
    passed = all(r.passed for r in results)
    report = {
        "command": "check-all",
        "dim": cfg.dim,
        "seed": cfg.seed,
        "results": [
            {"name": r.name, "value": r.value, "threshold": r.threshold, "pass": r.passed}
            for r in results
        ],
        "pass": passed,
    }
    if cfg.out_path:
        _emit(cfg, report)
    n_fail = sum(not r.passed for r in results)
    return f"checks={len(results)} failures={n_fail}", passed


#: Command name -> (body, fields the command requires).
_COMMANDS = {
    "flow": (_cmd_flow, ("dim", "c_spec", "p0_spec", "t_max", "dt", "method")),
    "geodesic": (_cmd_geodesic, ("dim", "p0_spec", "v0_spec", "t_max", "dt")),
    "lp": (_cmd_lp, ("dim", "c_spec", "p0_spec", "tol")),
    "isometry": (_cmd_isometry, ("dim",)),
    "bracket": (_cmd_bracket, ("dim",)),
    "integrability": (_cmd_integrability, ("dim", "c_spec")),
    "check-all": (_cmd_check_all, ("dim",)),
}


def _blame(exc: BaseException) -> str:
    """Locate the deepest package frame, for module-and-operation context."""
    pkg_dir = os.path.dirname(os.path.abspath(__file__))
    where = "simplexgeo"
    for frame in traceback.extract_tb(exc.__traceback__):
        if os.path.dirname(os.path.abspath(frame.filename)) == pkg_dir:
            module = os.path.splitext(os.path.basename(frame.filename))[0]
            where = f"simplexgeo.{module}.{frame.name}"
    return where


def run(cfg: RunConfig) -> int:
    """Execute one configured command; 0 pass, 1 failure, 2 rejected input."""
    try:
        cfg.validate()
        inputs = _inputs(cfg)
    except SimplexGeoError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        metric, passed = _COMMANDS[cfg.command][0](cfg, *inputs)
    except SimplexGeoError as exc:
        print(f"{cfg.command} dim={cfg.dim} error in {_blame(exc)}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"{cfg.command} dim={cfg.dim} output error: {exc}", file=sys.stderr)
        return 1
    status = "pass" if passed else "FAIL"
    print(f"{cfg.command} dim={cfg.dim} {metric} {status}")
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="simplexgeo",
        description="Fisher-Rao flows and geometry on truncated probability simplices",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--dim", type=int)
        p.add_argument("--c", dest="c_spec")
        p.add_argument("--p0", dest="p0_spec")
        p.add_argument("--v0", dest="v0_spec")
        p.add_argument("--q", type=float)
        p.add_argument("--t-max", dest="t_max", type=float)
        p.add_argument("--dt", type=float)
        p.add_argument("--tol", type=float)
        p.add_argument("--method", choices=("closed", "rk4"))
        p.add_argument("--seed", type=int)
        p.add_argument("--out", dest="out_path")
        p.add_argument("--format", choices=("csv", "json"))
        p.add_argument("--no-timestamp", action="store_true")
        p.add_argument("--config", dest="config_path")
    return parser


def config_from_args(argv: list[str]) -> RunConfig:
    args = _build_parser().parse_args(argv)
    file_values: dict = {}
    if args.config_path:
        try:
            with open(args.config_path, encoding="utf-8") as fh:
                file_values = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot load config {args.config_path!r}: {exc}") from None
        if not isinstance(file_values, dict):
            raise ConfigError(f"config {args.config_path!r} does not hold a JSON object")
    # The command comes from the command line only, so a config file may not set it.
    settable = [f.name for f in fields(RunConfig) if f.name != "command"]
    unknown = set(file_values) - set(settable)
    if unknown:
        raise ConfigError(f"unknown config fields: {sorted(unknown)}")
    cfg = RunConfig(command=args.command)
    for name in settable:
        cli_value = getattr(args, name, None)
        if cli_value is not None:
            setattr(cfg, name, cli_value)
        elif name in file_values:
            setattr(cfg, name, file_values[name])
    env_seed = os.environ.get("SIMPLEXGEO_SEED")
    if args.seed is None and "seed" not in file_values and env_seed is not None:
        try:
            cfg.seed = int(env_seed)
        except ValueError:
            raise ConfigError(f"SIMPLEXGEO_SEED={env_seed!r} is not an integer") from None
    if args.no_timestamp:
        cfg.timestamp = False
    return cfg


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        cfg = config_from_args(argv)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())

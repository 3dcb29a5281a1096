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
time grid (:func:`_inputs`) and runs the command body, which returns its
report; :func:`run` then writes the one file (:func:`_emit`) and prints
the status line, whose pass/FAIL word and exit status come from the
report's ``pass``.  Each command's facts are one record in ``_COMMANDS``,
and each option is one :class:`RunConfig` field, which declares its flag,
its type and its choices.
Exit status: 0 pass, 1 failure inside a body, 2 any input rejected by the
configuration schema or the data model.

Outputs are written atomically (temp file + rename).  CSV columns are
``t,p_0,...,p_{N-1},objective,residual_l1`` with shortest round-trip
number formatting; JSON mirrors carry the same fields plus a report
block.  The command line alone decides a run: no config file, environment
variable or wall clock enters it, so identical arguments give byte-identical
files.  ``--no-timestamp`` is accepted and ignored.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
import tempfile
import traceback
import typing
from dataclasses import dataclass, field, fields

import numpy as np

from . import checks
from .connections import EGeodesic, e_geodesic_residual_rows, make_e_geodesic
from .errors import ConfigError, NonFiniteOutput, ParseError, SimplexGeoError
from .flows import (
    LinearObjective,
    Trajectory,
    flow_trajectory,
    integrate_rk4,
    objective_value,
    solve_lp,
    time_grid,
)
from .hamiltonian import (
    CANONICAL_TOL,
    bracket_max,
    brackets_vanish,
    coordinate_hamiltonian,
    coordinate_jets,
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
    """Type check of a :class:`RunConfig` field: ints pass as floats, bools only as bools."""
    allowed = typing.get_args(hint) or (hint,)
    if isinstance(value, bool):
        return bool in allowed
    return isinstance(value, allowed) or (float in allowed and isinstance(value, int))


def _option(flag: str, default=None, choices: tuple[str, ...] | None = None):
    """A :class:`RunConfig` field set on the command line by ``flag``, to one of ``choices`` if given."""
    return field(default=default, metadata={"flag": flag, "choices": choices})


@dataclass
class RunConfig:
    command: str
    dim: int | None = _option("--dim")
    c_spec: str | None = _option("--c")
    p0_spec: str | None = _option("--p0")
    v0_spec: str | None = _option("--v0")
    q: float = _option("--q", 2.0)
    t_max: float | None = _option("--t-max")
    dt: float | None = _option("--dt")
    tol: float | None = _option("--tol")
    method: str = _option("--method", "closed", ("closed", "rk4"))
    seed: int = _option("--seed", 0)
    out_path: str | None = _option("--out")
    format: str | None = _option("--format", choices=("csv", "json"))

    def validate(self) -> None:
        if self.command not in _COMMANDS:
            raise ConfigError(f"unknown command {self.command!r}")
        hints = typing.get_type_hints(RunConfig)
        for f in fields(self):
            value = getattr(self, f.name)
            if not _type_ok(value, hints[f.name]):
                raise ConfigError(f"{f.name} must be {f.type}, got {value!r}")
        command = _COMMANDS[self.command]
        missing = [f for f in command.required if getattr(self, f) is None]
        if missing:
            raise ConfigError(
                f"command {self.command!r} is missing required fields: {', '.join(missing)}"
            )
        for f in fields(self):
            choices, value = f.metadata.get("choices"), getattr(self, f.name)
            if choices and value not in (None, *choices):
                raise ConfigError(f"{f.name} must be {' or '.join(map(repr, choices))}, got {value!r}")
        if self.format == "csv" and not command.csv:
            *others, last = [name for name, c in _COMMANDS.items() if c.csv]
            names = f"{', '.join(others)} and {last}"
            raise ConfigError(f"format 'csv' is for {names}; {self.command} writes JSON")
        if self.dim < 2:
            raise ConfigError(f"dim must be >= 2, got {self.dim}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.out_path is not None:
            # Rejected before any compute, so a bad --out neither wastes a run nor leaves a temp file.
            if not self.out_path:
                raise ConfigError("out_path must not be empty")
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


def _write_atomic(path: str, chunks: typing.Iterable[str]) -> None:
    """Write the strings of ``chunks`` to a temp file beside ``path``, then rename it
    onto ``path``; on any exception, including one raised by ``chunks``, remove it.

    The file gets the mode ``open(path, "w")`` gives a new file, 0o666 less the
    umask, rather than the 0o600 of ``mkstemp``.
    """
    parent = os.path.dirname(os.path.abspath(path))
    umask = os.umask(0)
    os.umask(umask)
    fd, tmp = tempfile.mkstemp(dir=parent, prefix=".simplexgeo-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            os.fchmod(fd, 0o666 & ~umask)
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _trajectory_csv(traj: Trajectory) -> typing.Iterator[str]:
    """The CSV text of ``traj``, one line at a time.

    Like ``json``'s ``allow_nan=False``, it raises ``ValueError`` before
    the first line if a cell would be NaN or infinite; the one exception
    is the ``nan`` that fills the objective column of a run without one.
    """
    columns = [traj.times, traj.coords, traj.residual_l1]
    if traj.objective is not None:
        columns.append(traj.objective)
    # min and max carry any NaN or infinity, with no temporary the size of the block.
    if not all(math.isfinite(column.min()) and math.isfinite(column.max()) for column in columns):
        raise ValueError("a trajectory cell is NaN or infinite")
    dim = traj.coords.shape[1]
    yield "t," + ",".join(f"p_{i}" for i in range(dim)) + ",objective,residual_l1\n"
    values = np.full(len(traj), np.nan) if traj.objective is None else traj.objective
    columns = (traj.times.tolist(), traj.coords, values.tolist(), traj.residual_l1.tolist())
    for t, row, f, r in zip(*columns):
        # tolist() gives Python floats, whose repr is the shortest round trip.
        yield ",".join(map(repr, [t, *row.tolist(), f, r])) + "\n"


class _RowLists(list):
    """The rows of a ``(T, N)`` block as the JSON encoder sees them: a list whose
    items are made lists of floats one at a time, as the encoder reaches them."""

    def __init__(self, block: np.ndarray):
        super().__init__()
        self.block = block

    def __len__(self) -> int:
        return len(self.block)

    def __iter__(self) -> typing.Iterator[list]:
        return (row.tolist() for row in self.block)


def _emit(cfg: RunConfig, report: dict, traj: Trajectory | None) -> str:
    """Stream the output to ``--out`` or ``<command>.<ext>`` and return its path:
    CSV for a trajectory unless ``--format json``, JSON for everything else.

    A NaN or infinite value is refused with :class:`NonFiniteOutput`, and
    no file is left.
    """
    as_csv = traj is not None and cfg.format != "json"
    path = cfg.out_path or f"{cfg.command}.{'csv' if as_csv else 'json'}"
    if as_csv:
        chunks = _trajectory_csv(traj)
    else:
        if traj is not None:
            report = {
                "times": traj.times.tolist(),
                "points": _RowLists(traj.coords),
                "objective": None if traj.objective is None else traj.objective.tolist(),
                "residual_l1": traj.residual_l1.tolist(),
                "report": report,
            }
        # The chunks json.dumps would join, so the bytes are the same.
        encoder = json.JSONEncoder(sort_keys=True, indent=1, allow_nan=False)
        chunks = itertools.chain(encoder.iterencode(report), ["\n"])
    try:
        _write_atomic(path, chunks)
    except ValueError:
        # allow_nan=False, or _trajectory_csv, met a value that is NaN or infinite.
        raise NonFiniteOutput("an output value is NaN or infinite; no file was written") from None
    return path


# ---------------------------------------------------------------------------
# input step and command bodies
# ---------------------------------------------------------------------------

#: What a body returns: its report, the trajectory to write in its place or
#: None, and the key metrics of the status line.
_Result = tuple[dict, Trajectory | None, str]


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
) -> _Result:
    closed = cfg.method == "closed"
    traj = flow_trajectory(obj, p0, times) if closed else integrate_rk4(obj, p0, cfg.t_max, cfg.dt)
    with np.errstate(over="ignore"):  # an increment beyond the float range is refused by _emit
        drops = float(np.diff(traj.objective).min()) if len(traj) > 1 else 0.0
    report = {
        "command": "flow",
        "method": cfg.method,
        "final_objective": float(traj.objective[-1]),
        "objective_min_increment": drops,
        "rows": len(traj),
        "pass": drops >= FLOW_MIN_INCREMENT,
    }
    return report, traj, f"final_objective={traj.objective[-1]:.6g}"


def _cmd_geodesic(
    cfg: RunConfig, obj: LinearObjective | None, _p0, geo: EGeodesic, times: np.ndarray
) -> _Result:
    rows, residuals = e_geodesic_residual_rows(geo, times)
    traj = Trajectory(times, rows, obj, residuals)
    worst = float(residuals.max())
    report = {
        "command": "geodesic",
        "max_residual_l1": worst,
        "rows": len(traj),
        "pass": worst <= GEODESIC_RESIDUAL_TOL,
    }
    return report, traj, f"max_residual_l1={worst:.3e}"


def _cmd_lp(cfg: RunConfig, obj: LinearObjective, p0: SimplexPoint, *_) -> _Result:
    limit, report = solve_lp(obj, p0, cfg.tol)
    rate_ok = report.rate_rel_err is None or report.rate_rel_err <= LP_RATE_TOL
    payload = report.to_dict()
    payload["command"] = "lp"
    payload["limit"] = [float(x) for x in limit.coords]
    payload["objective_at_limit"] = objective_value(obj, limit)
    payload["pass"] = report.converged and report.advisory is None and rate_ok
    probes = None
    if cfg.format == "csv":
        times, distances = np.array(report.probes).T
        rows = softmax_rows(p0, obj.c, times)
        probes = Trajectory(times, rows, obj, distances)
    rate = "none" if report.rate is None else f"{report.rate:.4g}"
    return payload, probes, f"converged={report.converged} rate={rate}"


def _cmd_isometry(cfg: RunConfig, *_) -> _Result:
    from ._draws import Draws  # loaded on the first draw, not with the package

    rng = Draws(cfg.seed)
    # The round trip is reported by check-all only; it is not part of this verdict.
    _, iso, scaled = checks.isometry_results(rng, cfg.dim, (cfg.q,), 50)
    report = {
        "command": "isometry",
        "dim": cfg.dim,
        "q": cfg.q,
        "isometry_rel_residual": iso.value,
        "q_identity_rel_residual": scaled.value,
        "seed": cfg.seed,
        "pass": iso.passed and scaled.passed,
    }
    return report, None, f"isometry_residual={iso.value:.3e} q_residual={scaled.value:.3e}"


def _cmd_bracket(cfg: RunConfig, *_) -> _Result:
    from ._draws import Draws  # loaded on the first draw, not with the package

    rng = Draws(cfg.seed)
    z = random_complex_point(rng, cfg.dim)
    canonical = poisson_bracket(*coordinate_jets(z, 0))
    c = rng.uniform(0.5, 3.0, size=cfg.dim)
    modes = [coordinate_hamiltonian(c, k) for k in range(cfg.dim)]
    analytic_max, numeric_max = bracket_max(modes, z)
    report = {
        "command": "bracket",
        "dim": cfg.dim,
        "canonical_pair": canonical,
        "analytic_max_abs": analytic_max,
        "numeric_max_abs": numeric_max,
        "seed": cfg.seed,
        "pass": brackets_vanish(analytic_max, numeric_max) and abs(canonical - 1.0) <= CANONICAL_TOL,
    }
    return report, None, f"canonical={canonical:.12g} numeric_max={numeric_max:.3e}"


def _cmd_integrability(cfg: RunConfig, obj: LinearObjective, *_) -> _Result:
    report = integrability_suite(obj.c, trials=10, seed=cfg.seed)
    metric = f"brackets_max_abs={report['brackets_max_abs']:.3e} gram_det={report['gram_det']:.3e}"
    return report, None, metric


def _cmd_check_all(cfg: RunConfig, *_) -> _Result:
    results = checks.check_all(cfg.dim, cfg.seed)
    for res in results:
        print(res.line())
    report = {
        "command": "check-all",
        "dim": cfg.dim,
        "seed": cfg.seed,
        "results": [
            {"name": r.name, "value": r.value, "threshold": r.threshold, "pass": r.passed}
            for r in results
        ],
        "pass": all(r.passed for r in results),
    }
    return report, None, f"checks={len(results)} failures={sum(not r.passed for r in results)}"


class _Command(typing.NamedTuple):
    """One command's facts: its body, the fields it requires, whether ``--format csv`` is
    open to it, and whether it writes ``<command>.<ext>`` without ``--out`` and names it."""

    body: typing.Callable[..., _Result]
    required: tuple[str, ...]
    csv: bool = False
    names_file: bool = True


_COMMANDS = {
    "flow": _Command(_cmd_flow, ("dim", "c_spec", "p0_spec", "t_max", "dt"), csv=True),
    "geodesic": _Command(_cmd_geodesic, ("dim", "p0_spec", "v0_spec", "t_max", "dt"), csv=True),
    "lp": _Command(_cmd_lp, ("dim", "c_spec", "p0_spec", "tol"), csv=True),
    "isometry": _Command(_cmd_isometry, ("dim",)),
    "bracket": _Command(_cmd_bracket, ("dim",)),
    "integrability": _Command(_cmd_integrability, ("dim", "c_spec")),
    "check-all": _Command(_cmd_check_all, ("dim",), names_file=False),
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
    command = _COMMANDS[cfg.command]
    try:
        report, traj, metric = command.body(cfg, *inputs)
        if cfg.out_path or command.names_file:
            out = _emit(cfg, report, traj)
            metric += f" out={out}" if command.names_file else ""
    except SimplexGeoError as exc:
        print(f"{cfg.command} dim={cfg.dim} error in {_blame(exc)}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"{cfg.command} dim={cfg.dim} output error: {exc}", file=sys.stderr)
        return 1
    passed = bool(report["pass"])
    print(f"{cfg.command} dim={cfg.dim} {metric} {'pass' if passed else 'FAIL'}")
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    # Every command takes the same options: one per RunConfig field with a flag, typed by its
    # annotation (int for ``int | None``), declared once on a parent parser.
    common = argparse.ArgumentParser(add_help=False)
    hints = typing.get_type_hints(RunConfig)
    for f in fields(RunConfig):
        if "flag" in f.metadata:
            kind = (typing.get_args(hints[f.name]) or (hints[f.name],))[0]
            common.add_argument(f.metadata["flag"], dest=f.name, type=kind, choices=f.metadata["choices"])
    # Accepted so that existing command lines keep working.
    common.add_argument("--no-timestamp", action="store_true", help="ignored; no output has a timestamp")
    parser = argparse.ArgumentParser(
        prog="simplexgeo",
        description="Fisher-Rao flows and geometry on truncated probability simplices",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        sub.add_parser(name, parents=[common])
    return parser


def config_from_args(argv: list[str]) -> RunConfig:
    args = _build_parser().parse_args(argv)
    cfg = RunConfig(command=args.command)
    for f in fields(RunConfig):
        value = getattr(args, f.name)
        if value is not None:
            setattr(cfg, f.name, value)
    return cfg


def main(argv: list[str] | None = None) -> int:
    return run(config_from_args(sys.argv[1:] if argv is None else argv))


if __name__ == "__main__":
    sys.exit(main())

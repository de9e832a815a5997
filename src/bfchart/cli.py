"""Command-line surface: fit, monitor, calibrate and simulate.

Exit codes: 0 ok / no signal, 10 signal present, 2 parse or usage error,
3 degenerate fit, 4 schema mismatch, 5 calibration failure.

Data files are UTF-8 CSV with a header row, comma delimiter, ``.`` decimal
point and an optional leading ``t`` column; rows are in time order.  Model
and report artifacts are versioned JSON documents with matrices stored
row-major alongside their dimension.  Every command honors ``--seed``, and
no timestamps are written, so reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
import warnings

import numpy as np

from . import __version__, chart, simulate, svg, workflow
from ._rows import format_rows
from .bayesfactor import TargetSpec
from .diagnostics import skewness
from .dwr import DwrConfig
from .exceptions import (
    BfchartError,
    BracketFailure,
    DegenerateFit,
    SchemaMismatch,
)
from .linalg import make_rng

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_DEGENERATE = 3
EXIT_SCHEMA = 4
EXIT_CALIBRATION = 5
EXIT_SIGNAL = 10


class ParseError(BfchartError):
    """A data or argument file could not be parsed; message carries location."""


# ---------------------------------------------------------------------------
# CSV and JSON I/O
# ---------------------------------------------------------------------------


def read_data(path: str) -> tuple[list[str], np.ndarray]:
    """Read a CSV data file; returns (column names, n x p array).

    A leading ``t`` column is accepted and dropped, and so is a UTF-8 byte
    order mark.  Raises ParseError with row/column location for malformed
    cells.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise ParseError(f"{path}: empty file") from None
            header = [h.strip() for h in header]
            skip_t = 1 if header and header[0] == "t" else 0
            names = header[skip_t:]
            if not names:
                raise ParseError(f"{path}: no data columns in header")
            data = _load_body(path, fh, len(header), skip_t)
            if data is None:
                fh.seek(0)
                next(reader)
                data = _parse_rows(path, reader, len(header), skip_t)
    except OSError as err:
        raise ParseError(f"{path}: {err.strerror or err}") from err
    except UnicodeDecodeError as err:
        raise ParseError(
            f"{path}: not UTF-8 text (byte 0x{err.object[err.start]:02x})"
        ) from None
    return names, data


#: ASCII separators that np.loadtxt skips as blanks but float() refuses
_SEPARATORS = (b"\x1c", b"\x1d", b"\x1e", b"\x1f")


def _load_body(path: str, fh, width: int, skip_t: int) -> np.ndarray | None:
    """The rows after the header in one ``np.loadtxt`` call.

    Returns None wherever the result could differ from ``_parse_rows``:
    loadtxt refuses the input, finds no rows, a width other than the
    header's or a non-finite value, or the file holds a character it reads
    as a blank where float() does not.  The caller then runs the loop.
    """
    with open(path, "rb") as raw:
        text = raw.read()
    if any(sep in text for sep in _SEPARATORS):
        return None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # a header-only file
            rows = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None
    if rows.shape[0] == 0 or rows.shape[1] != width:
        return None
    data = rows[:, skip_t:]
    return data if np.isfinite(data).all() else None


def _parse_rows(path: str, reader, width: int, skip_t: int) -> np.ndarray:
    """The rows after the header, one cell at a time; names the bad cell."""
    rows = []
    for lineno, row in enumerate(reader, start=2):
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) != width:
            raise ParseError(
                f"{path}:{lineno}: expected {width} fields, got {len(row)}"
            )
        values = []
        for col, cell in enumerate(row[skip_t:], start=skip_t + 1):
            try:
                value = float(cell)
            except ValueError:
                raise ParseError(
                    f"{path}:{lineno}: column {col}: {cell!r} is not a number"
                ) from None
            if not np.isfinite(value):
                raise ParseError(
                    f"{path}:{lineno}: column {col}: non-finite value"
                )
            values.append(value)
        rows.append(values)
    if not rows:
        raise ParseError(f"{path}: no data rows")
    return np.array(rows, dtype=float)


def write_data(path: str, data: np.ndarray, names: list[str] | None = None) -> None:
    """Write a CSV data file with a ``t`` column and 17-significant-digit floats."""
    data = np.asarray(data, dtype=float)
    if data.ndim == 1:
        data = data[:, None]
    if names is None:
        names = [f"y{i + 1}" for i in range(data.shape[1])]
    row = "%d" + ",%r" * data.shape[1] + "\n"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(["t", *names]) + "\n")
        fh.writelines(format_rows(row, "", (np.arange(1, len(data) + 1), *data.T)))


class _Rows:
    """A JSON array held as columns, which ``_write_json`` writes a chunk of
    rows at a time.  ``_Rows(a)`` stands for ``a.tolist()``, and
    ``_Rows({"k": a, ...})`` for ``[{"k": a[i], ...} for i in range(len(a))]``.
    """

    def __init__(self, columns):
        if isinstance(columns, dict):
            keys = sorted(columns)
            self.columns = [np.asarray(columns[k]) for k in keys]
            fields = ",\n".join(
                f"      {json.dumps(k).replace('%', '%%')}: %s" for k in keys
            )
            self.item = "    {\n" + fields + "\n    }"
        else:
            self.columns = [np.asarray(columns)]
            self.item = "    %s"

    def write(self, fh) -> None:
        """Write the array as a value of the top-level object."""
        if not len(self.columns[0]):
            fh.write("[]")
            return
        fh.write("[\n")
        fh.writelines(format_rows(self.item, ",\n", self.columns, _json_cells))
        fh.write("\n  ]")


def _json_cells(values: np.ndarray) -> list:
    """Values whose ``%s`` is their ``json`` text: true/false for bools,
    NaN/Infinity/-Infinity for non-finite floats, repr for other numbers."""
    if values.dtype == bool:
        return np.where(values, "true", "false").tolist()
    cells = values.tolist()
    if values.dtype.kind == "f" and not np.isfinite(values).all():
        return [json.dumps(v) for v in cells]
    return cells


def _write_json(path: str, doc: dict) -> None:
    """Write ``doc`` as ``json.dump(doc, fh, indent=2, sort_keys=True)`` and
    a newline would, byte for byte, with each top-level ``_Rows`` value
    written as the list it stands for."""
    with open(path, "w", encoding="utf-8") as fh:
        if not doc:
            fh.write("{}\n")
            return
        for i, key in enumerate(sorted(doc)):
            fh.write(("," if i else "{") + "\n  " + json.dumps(key) + ": ")
            value = doc[key]
            if isinstance(value, _Rows):
                value.write(fh)
            else:
                text = json.dumps(value, indent=2, sort_keys=True)
                fh.write(text.replace("\n", "\n  "))
        fh.write("\n}\n")


def _read_json(path: str) -> tuple[object, bytes]:
    """The document in a UTF-8 JSON file, and the bytes it was read from."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
        return json.loads(raw.decode("utf-8")), raw
    except OSError as err:
        raise ParseError(f"{path}: {err.strerror or err}") from err
    except UnicodeDecodeError as err:
        bad = err.object[err.start]
        raise SchemaMismatch(f"{path}: not UTF-8 text (byte 0x{bad:02x})") from None
    except json.JSONDecodeError as err:
        raise SchemaMismatch(f"{path}: invalid JSON: {err}") from err


def read_target(path: str) -> TargetSpec:
    """The target of a target file, parsed as a model's target is;
    SchemaMismatch naming the file when it is not a valid target."""
    doc, _ = _read_json(path)
    try:
        return workflow.target_from_dict(doc)
    except (KeyError, TypeError, ValueError, OverflowError, BfchartError) as err:
        raise SchemaMismatch(f"{path}: malformed target document: {err}") from err


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _parse_grid(text: str) -> tuple[float, ...]:
    try:
        values = tuple(float(v) for v in text.split(",") if v.strip())
    except ValueError:
        raise ParseError(f"invalid numeric list {text!r}") from None
    if not values:
        raise ParseError(f"empty numeric list {text!r}")
    return values


def cmd_fit(args) -> int:
    if args.target_file is None and not args.estimate_target:
        print(
            "fit: either --target-file or --estimate-target is required",
            file=sys.stderr,
        )
        return EXIT_PARSE
    names, data = read_data(args.data)
    target = read_target(args.target_file) if args.target_file else None
    model = workflow.phase1(
        data,
        target=target,
        deltas=_parse_grid(args.delta_grid),
        lam=args.lam,
        target_arl=args.arl,
        seed=args.seed,
        recenter=args.recenter,
        apply_difference=args.difference,
        calib_reps=args.reps,
    )
    doc = model.to_dict()
    doc["metadata"] = {
        "bfchart_version": __version__,
        "seed": args.seed,
        "columns": names,
        "source_rows": int(data.shape[0]),
        "calib_reps": args.reps,
        "target_arl": args.arl,
        "target_estimated": target is None,
    }
    _write_json(args.out, doc)
    _print_fit_report(model, names)
    print(f"model written to {args.out}")
    return EXIT_OK


def _print_fit_report(model: workflow.FittedModel, names: list[str]) -> None:
    print(f"phase I fit over {model.n_phase1} observations "
          f"({'differenced, ' if model.difference else ''}warm-up {model.warmup})")
    print("delta grid:")
    for entry in model.grid:
        marker = " *" if entry.delta == model.delta else "  "
        msse = " ".join(f"{v:.3f}" for v in entry.report.msse)
        print(f"{marker} delta={entry.delta:.2f}  MSSE=[{msse}]  "
              f"score={entry.report.msse_score:.4f}")
    mae_txt = " ".join(f"{v:.3f}" for v in model.fit.mae)
    mape_txt = " ".join("-" if np.isnan(v) else f"{v:.3f}" for v in model.fit.mape)
    print(f"selected delta={model.delta:.2f}  MAE=[{mae_txt}]  MAPE=[{mape_txt}]")
    print(f"AR(1) for the statistic: intercept={model.ar.intercept:.4f} "
          f"phi={model.ar.phi:.4f} sigma2={model.ar.sigma2:.4f}")
    print(f"chart: lambda={model.chart.lam} c={model.chart.c:.4f} "
          f"center={model.chart.mu_z:.6f} sigma_z={model.chart.sigma_z:.6f} "
          f"limits=[{model.chart.lcl:.6f}, {model.chart.ucl:.6f}]")


def cmd_monitor(args) -> int:
    model_doc, model_bytes = _read_json(args.model)
    model = workflow.FittedModel.from_dict(model_doc)
    names, data = read_data(args.data)
    result = workflow.phase2(model, data, tracking=args.tracking)
    signals = np.flatnonzero(result.out_of_control)
    doc = {
        "schema_version": workflow.SCHEMA_VERSION,
        "kind": "bfchart-report",
        "model_file": args.model,
        "model_sha256": hashlib.sha256(model_bytes).hexdigest(),
        "metadata": {
            "bfchart_version": __version__,
            "columns": names,
            "source_rows": int(data.shape[0]),
            "tracking": args.tracking,
        },
        "chart": {
            "lam": model.chart.lam,
            "c": model.chart.c,
            "mu_z": model.chart.mu_z,
            "sigma_z": model.chart.sigma_z,
            "ucl": model.chart.ucl,
            "lcl": model.chart.lcl,
        },
        "points": _Rows({
            "t": np.arange(len(result.lbf)),
            "x": result.x,
            "z": result.z,
            "out_of_control": result.out_of_control,
        }),
        "signals": _Rows(signals),
        "lbf": _Rows(result.lbf),
        "warnings": list(result.warnings),
    }
    if args.out:
        _write_json(args.out, doc)
    if args.plot:
        document = svg.render_chart_svg(
            np.concatenate([model.phase1_z, result.z]),
            model.chart.mu_z,
            model.chart.ucl,
            model.chart.lcl,
            separator=len(model.phase1_z),
        )
        with open(args.plot, "w", encoding="utf-8") as fh:
            fh.write(document)
    if signals.size:
        print(f"{signals.size} signal(s), first at t={signals[0]}, last at t={signals[-1]}")
    else:
        print("no signals")
    if result.warnings:
        print(f"warning: {len(result.warnings)} run(s) of {workflow.RUN_WARNING} or more "
              f"EWMA values on one side of the center, first: {result.warnings[0]}")
    return EXIT_SIGNAL if signals.size else EXIT_OK


def cmd_calibrate(args) -> int:
    if args.reps < 1000:
        print(
            f"warning: --reps {args.reps} gives a wide ARL standard error; "
            "1000 or more is recommended",
            file=sys.stderr,
        )
    if args.grid_lambda or args.grid_phi:
        lams = _parse_grid(args.grid_lambda or str(args.lam))
        phis = _parse_grid(args.grid_phi or str(args.phi))
        lines = ["lambda,phi,c,arl,arl_se"]
        for lam in lams:
            for phi in phis:
                res = chart.calibrate_c(
                    lam, phi, args.arl, reps=args.reps, seed=args.seed
                )
                lines.append(
                    f"{lam!r},{phi!r},{res.c!r},{res.arl!r},{res.arl_se!r}"
                )
        body = "\n".join(lines) + "\n"
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(body)
        else:
            print(body, end="")
        return EXIT_OK
    res = chart.calibrate_c(args.lam, args.phi, args.arl, reps=args.reps, seed=args.seed)
    print(f"c = {res.c:.4f}")
    print(f"achieved ARL = {res.arl:.1f} +/- {res.arl_se:.1f} "
          f"({args.reps} replications, {res.evaluations} rounds, "
          f"{res.censored} censored)")
    print(f"simulated steps = {res.simulated_steps} "
          f"({res.simulated_steps / args.reps:.1f} per replication)")
    return EXIT_OK


def cmd_simulate(args) -> int:
    if args.lbf and (args.dwr or args.scenario != "all"):
        print("simulate: --lbf needs --scenario all and no --dwr", file=sys.stderr)
        return EXIT_PARSE
    if args.dwr:
        config = DwrConfig(dim=args.dim, delta=args.delta)
        data = simulate.gen_local_level(
            config, np.eye(args.dim), args.n, make_rng(args.seed)
        )
        write_data(args.out, data)
        print(f"{args.n} local-level rows written to {args.out}")
        return EXIT_OK
    if args.lbf:
        study = simulate.scenario_lbf_study(
            n=args.n, warmup=args.warmup, delta=args.delta, seed=args.seed
        )
        out_dir = args.out_dir or "."
        summary = ["scenario,n,warmup,delta,mean,skewness"]
        for name, values in study.items():
            counts, edges = np.histogram(values, bins=40)
            lines = ["bin_left,bin_right,count"]
            lines += [
                f"{float(edges[i])!r},{float(edges[i + 1])!r},{int(counts[i])}"
                for i in range(len(counts))
            ]
            hist_path = f"{out_dir}/lbf_hist_{name}.csv"
            with open(hist_path, "w", encoding="utf-8") as fh:
                fh.write("\n".join(lines) + "\n")
            summary.append(
                f"{name},{len(values)},{args.warmup},{float(args.delta)!r},"
                f"{float(values.mean())!r},{float(skewness(values))!r}"
            )
        summary_path = f"{out_dir}/lbf_summary.csv"
        with open(summary_path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(summary) + "\n")
        print(f"histograms and summary written to {out_dir}/")
        return EXIT_OK
    scenarios = simulate.reference_scenarios()
    if args.scenario not in scenarios:
        print(
            f"simulate: unknown scenario {args.scenario!r}; choose one of "
            f"{', '.join(simulate.SCENARIO_NAMES)} or 'all' with --lbf",
            file=sys.stderr,
        )
        return EXIT_PARSE
    data = simulate.gen_iid(scenarios[args.scenario], args.n, make_rng(args.seed))
    write_data(args.out, data)
    print(f"{args.n} rows from scenario {args.scenario} written to {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bfchart",
        description="Bayes-factor control charts for autocorrelated "
        "multivariate processes",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    fit = sub.add_parser("fit", help="phase I: fit, diagnose and calibrate")
    fit.add_argument("data", help="CSV file of historical observations")
    fit.add_argument("--out", required=True, help="path for the model JSON")
    fit.add_argument("--target-file", help="JSON file with target mu and V")
    fit.add_argument(
        "--estimate-target",
        action="store_true",
        help="estimate the target from the phase I data",
    )
    fit.add_argument(
        "--delta-grid",
        default=",".join(str(d) for d in workflow.DELTA_GRID),
        help="comma-separated discount factor candidates",
    )
    fit.add_argument("--lambda", dest="lam", type=float, default=0.05,
                     help="EWMA smoothing parameter")
    fit.add_argument("--arl", type=float, default=370.4,
                     help="target in-control average run length")
    fit.add_argument("--difference", action="store_true",
                     help="monitor the first-differenced series (dispersion only)")
    fit.add_argument("--recenter", action="store_true",
                     help="pin the chart center to the phase I EWMA mean")
    fit.add_argument("--seed", type=int, default=0)
    fit.add_argument("--reps", type=int, default=10**4,
                     help="Monte-Carlo replications for limit calibration")
    fit.set_defaults(func=cmd_fit)

    monitor = sub.add_parser("monitor", help="phase II: chart new data")
    monitor.add_argument("data", help="CSV file of new observations")
    monitor.add_argument("--model", required=True, help="model JSON from fit")
    monitor.add_argument("--out", help="path for the report JSON")
    monitor.add_argument("--plot", help="path for an SVG rendering of the chart")
    monitor.add_argument("--tracking", action="store_true",
                         help="keep updating the filter during monitoring")
    monitor.set_defaults(func=cmd_monitor)

    calibrate = sub.add_parser("calibrate", help="calibrate the limit multiplier")
    calibrate.add_argument("--lambda", dest="lam", type=float, required=True)
    calibrate.add_argument("--phi", type=float, default=0.0)
    calibrate.add_argument("--arl", type=float, default=370.4)
    calibrate.add_argument("--reps", type=int, default=10**4)
    calibrate.add_argument("--seed", type=int, default=0)
    calibrate.add_argument("--grid-lambda", help="comma-separated lambda grid")
    calibrate.add_argument("--grid-phi", help="comma-separated phi grid")
    calibrate.add_argument("--out", help="CSV output path for grid mode")
    calibrate.set_defaults(func=cmd_calibrate)

    sim = sub.add_parser("simulate", help="generate scenario or filter data")
    sim.add_argument("--scenario", default="in_control",
                     help="scenario name, or 'all' with --lbf")
    sim.add_argument("--dwr", action="store_true",
                     help="generate a local-level path instead of an iid scenario")
    sim.add_argument("--dim", type=int, default=2, help="dimension for --dwr")
    sim.add_argument("--delta", type=float, default=0.9,
                     help="discount factor for --dwr and the --lbf study")
    sim.add_argument("-n", type=int, default=1000)
    sim.add_argument("--warmup", type=int, default=100,
                     help="in-control warm-up draws for the --lbf study")
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--lbf", action="store_true",
                     help="emit LBF histograms for all four scenarios")
    sim.add_argument("--out", default="data.csv", help="CSV output path")
    sim.add_argument("--out-dir", help="output directory for the --lbf study")
    sim.set_defaults(func=cmd_simulate)
    return parser


#: exit code of each library error class; a subclass takes its nearest
#: listed ancestor's, so every other error (ParseError too) is a usage error,
#: as is an output file that cannot be written
_EXIT_CODES = {
    DegenerateFit: EXIT_DEGENERATE,
    SchemaMismatch: EXIT_SCHEMA,
    BracketFailure: EXIT_CALIBRATION,
    BfchartError: EXIT_PARSE,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BfchartError as err:
        print(f"error: {err}", file=sys.stderr)
        return next(_EXIT_CODES[cls] for cls in type(err).__mro__ if cls in _EXIT_CODES)
    except OSError as err:
        where = "" if err.filename is None else f"{err.filename}: "
        print(f"error: {where}{err.strerror or err}", file=sys.stderr)
        return EXIT_PARSE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()

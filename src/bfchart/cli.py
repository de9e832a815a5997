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
import functools
import hashlib
import io
import json
import mmap
import os
import sys
from dataclasses import asdict

import numpy as np

from . import __version__, chart, simulate, svg, workflow
from ._rows import float_rows, format_rows
from .bayesfactor import TargetSpec
from .diagnostics import skewness
from .dwr import DwrConfig
from .exceptions import (
    BfchartError,
    BracketFailure,
    DegenerateFit,
    SchemaMismatch,
)
from .linalg import as_rows, make_rng

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_DEGENERATE = 3
EXIT_SCHEMA = 4
EXIT_CALIBRATION = 5
EXIT_SIGNAL = 10

#: version of the report.json layout, which does not follow the model's
REPORT_VERSION = 1


class ParseError(BfchartError):
    """A data or argument file could not be parsed, or the arguments are
    unusable; the message carries the location or the argument."""


# ---------------------------------------------------------------------------
# CSV and JSON I/O
# ---------------------------------------------------------------------------


def _os_message(err: OSError, path) -> str:
    """``path: reason`` for a file that could not be used; ``''`` is an empty path."""
    where = "" if path is None else f"{path!r}: " if path == "" else f"{path}: "
    return f"{where}{err.strerror or err}"


def read_data(path: str) -> tuple[list[str], np.ndarray]:
    """Read a CSV data file; returns (column names, n x p array).

    The file is opened once.  Its header is read as UTF-8 text through the
    csv reader, and its body by the parse kernel (``_rows.float_rows``) on
    a read-only memory map of the file, or, where the kernel leaves it to
    the loop, cell by cell through the same reader.  A leading ``t`` column
    is accepted and dropped, and so is a UTF-8 byte order mark.  Raises
    ParseError with row/column location for malformed cells.
    """
    try:
        with open(path, "rb") as fh:
            # decoded a chunk at a time as it is read: text of the whole
            # file would take four bytes a character
            reader = csv.reader(io.TextIOWrapper(fh, encoding="utf-8-sig", newline=""))
            try:
                header = [h.strip() for h in next(reader)]
            except StopIteration:
                raise ParseError(f"{path}: empty file") from None
            skip_t = 1 if header and header[0] == "t" else 0
            names = header[skip_t:]
            if not names:
                raise ParseError(f"{path}: no data columns in header")
            data = _read_body(fh, reader.line_num, len(header), skip_t)
            if data is None:
                data = _parse_rows(path, reader, len(header), skip_t)
    except OSError as err:
        raise ParseError(_os_message(err, path)) from err
    except UnicodeDecodeError as err:
        raise ParseError(
            f"{path}: not UTF-8 text (byte 0x{err.object[err.start]:02x})"
        ) from None
    return names, data


def _read_body(fh, header_lines: int, width: int, skip_t: int) -> np.ndarray | None:
    """The rows after the header line by the parse kernel, on a memory map
    of the file, which keeps its bytes off the heap.

    Returns None wherever the result could differ from ``_parse_rows``,
    which the caller then runs: the file cannot be mapped (a pipe), the
    header record is not the file's first line alone (a quoted line break,
    or a CR that the csv reader ends a line at), the kernel leaves the body
    to the loop, or a data value is not finite.
    """
    try:
        raw = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
    except (OSError, ValueError):
        return None
    with raw:
        line_end = raw.find(b"\n")
        if header_lines != 1 or line_end < 0 or raw.find(b"\r", 0, max(line_end - 1, 0)) >= 0:
            return None
        data = float_rows(raw, width, line_end + 1, skip_t)
    return data if data is not None and np.isfinite(data).all() else None


def _parse_rows(path: str, reader, width: int, skip_t: int) -> np.ndarray:
    """The rows after the header, one cell at a time; names the bad cell
    and the line its record ends on."""
    rows = []
    for row in reader:
        lineno = reader.line_num
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


def write_data(path: str, data: np.ndarray) -> None:
    """Write ``data``, read by ``linalg.as_rows``, as a CSV data file with a
    ``t`` column and columns ``y1``, ``y2``, ... of shortest round-trip floats."""
    data = as_rows(data)
    names = [f"y{i + 1}" for i in range(data.shape[1])]
    pieces = [""] + [","] * data.shape[1] + ["\n"]
    columns = (np.arange(1, len(data) + 1), *data.T)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(["t", *names]) + "\n")
        fh.writelines(format_rows(pieces, "", columns, repr))


class _Rows:
    """A JSON array held as columns, which ``_write_json`` writes a chunk of
    rows at a time.  ``_Rows(a)`` stands for ``a.tolist()``, and
    ``_Rows({"k": a, ...})`` for ``[{"k": a[i], ...} for i in range(len(a))]``.
    """

    def __init__(self, columns):
        if isinstance(columns, dict):
            keys = sorted(columns)
            self.columns = [np.asarray(columns[k]) for k in keys]
            fields = [f"      {json.dumps(k)}: " for k in keys]
            self.pieces = ["    {\n" + fields[0], *(",\n" + f for f in fields[1:]), "\n    }"]
        else:
            self.columns = [np.asarray(columns)]
            self.pieces = ["    ", ""]

    def write(self, fh) -> None:
        """Write the array as a value of the top-level object."""
        if not len(self.columns[0]):
            fh.write("[]")
            return
        fh.write("[\n")
        fh.writelines(format_rows(self.pieces, ",\n", self.columns, json.dumps))
        fh.write("\n  ]")


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
        raise ParseError(_os_message(err, path)) from err
    except UnicodeDecodeError as err:
        bad = err.object[err.start]
        raise SchemaMismatch(f"{path}: not UTF-8 text (byte 0x{bad:02x})") from None
    except json.JSONDecodeError as err:
        raise SchemaMismatch(f"{path}: invalid JSON: {err}") from err


def read_target(path: str) -> TargetSpec:
    """The target of a target file, parsed as a model's target is;
    SchemaMismatch naming the file when it is not a valid target."""
    doc, _ = _read_json(path)
    if type(doc) is not dict:
        raise SchemaMismatch(f"{path}: malformed target document: "
                             f"a target must be a JSON object, got {doc!r}")
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
        raise ParseError("fit: either --target-file or --estimate-target is required")
    if args.target_file is not None and args.estimate_target:
        raise ParseError("fit takes --target-file or --estimate-target, not both")
    names, data = read_data(args.data)
    target = None if args.target_file is None else read_target(args.target_file)
    model = workflow.phase1(
        data,
        target=target,
        deltas=_parse_grid(args.delta_grid),
        lam=args.lam,
        target_arl=args.arl,
        seed=args.seed,
        calib_reps=args.reps,
    )
    doc = model.to_dict()
    # the same text as to_dict's list, written without json's encoder
    doc["phase1_z"] = _Rows(model.phase1_z)
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
    print(f"phase I fit over {model.n_phase1} observations (warm-up {model.warmup})")
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
        "schema_version": REPORT_VERSION,
        "kind": "bfchart-report",
        "model_file": args.model,
        "model_sha256": hashlib.sha256(model_bytes).hexdigest(),
        "metadata": {
            "bfchart_version": __version__,
            "columns": names,
            "source_rows": int(data.shape[0]),
            "tracking": args.tracking,
        },
        "chart": {**asdict(model.chart), "ucl": model.chart.ucl, "lcl": model.chart.lcl},
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
    if args.out is not None:
        _write_json(args.out, doc)
    if args.plot is not None:
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
    grid = args.grid_lambda is not None or args.grid_phi is not None
    if args.out is not None and not grid:
        raise ParseError("calibrate: --out needs --grid-lambda or --grid-phi")
    lams = (args.lam,) if args.grid_lambda is None else _parse_grid(args.grid_lambda)
    phis = (args.phi,) if args.grid_phi is None else _parse_grid(args.grid_phi)
    for lam in lams:
        chart.check_chart_settings(lam, args.arl, args.reps)
    if args.reps < 1000:
        print(
            f"warning: --reps {args.reps} gives a wide ARL standard error; "
            "1000 or more is recommended",
            file=sys.stderr,
        )
    if grid:
        rows = []
        for lam in lams:
            for phi in phis:
                res = chart.calibrate_c(
                    lam, phi, args.arl, reps=args.reps, seed=args.seed
                )
                rows.append((lam, phi, res.c, res.arl, res.arl_se))
        pieces = [""] + [","] * 4 + ["\n"]
        body = "lambda,phi,c,arl,arl_se\n" + "".join(
            format_rows(pieces, "", np.array(rows).T, repr))
        if args.out is not None:
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
        raise ParseError("simulate: --lbf needs --scenario all and no --dwr")
    if not args.lbf and args.scenario not in simulate.SCENARIO_NAMES:
        raise ParseError(f"simulate: unknown scenario {args.scenario!r}; choose one of "
                         f"{', '.join(simulate.SCENARIO_NAMES)} or 'all' with --lbf")
    if args.dwr:
        config = DwrConfig(dim=args.dim, delta=args.delta)
        data = simulate.gen_local_level(
            config, np.eye(args.dim), args.n, make_rng(args.seed)
        )
        write_data(args.out, data)
        print(f"{args.n} local-level rows written to {args.out}")
        return EXIT_OK
    if args.lbf:
        if args.n < 3:
            raise ParseError(f"simulate: --lbf needs -n of at least 3, got {args.n}")
        out_dir = "." if args.out_dir is None else args.out_dir
        # a directory that cannot be opened, '' too, is refused before the study
        with os.scandir(out_dir):
            pass
        study = simulate.scenario_lbf_study(
            n=args.n, warmup=args.warmup, delta=args.delta, seed=args.seed
        )
        summary = ["scenario,n,warmup,delta,mean,skewness"]
        for name, values in study.items():
            counts, edges = np.histogram(values, bins=40)
            with open(os.path.join(out_dir, f"lbf_hist_{name}.csv"), "w",
                      encoding="utf-8") as fh:
                fh.write("bin_left,bin_right,count\n")
                columns = (edges[:-1], edges[1:], counts)
                fh.writelines(format_rows(["", ",", ",", "\n"], "", columns, repr))
            summary.append(
                f"{name},{len(values)},{args.warmup},{float(args.delta)!r},"
                f"{float(values.mean())!r},{float(skewness(values))!r}"
            )
        with open(os.path.join(out_dir, "lbf_summary.csv"), "w", encoding="utf-8") as fh:
            fh.write("\n".join(summary) + "\n")
        print(f"histograms and summary written to {os.path.join(out_dir, '')}")
        return EXIT_OK
    scenario = simulate.reference_scenarios()[args.scenario]
    data = simulate.gen_iid(scenario, args.n, make_rng(args.seed))
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
    fit.add_argument("--seed", type=int, default=0)
    fit.add_argument("--reps", type=int, default=10**4,
                     help="Monte-Carlo replications for limit calibration")

    monitor = sub.add_parser("monitor", help="phase II: chart new data")
    monitor.add_argument("data", help="CSV file of new observations")
    monitor.add_argument("--model", required=True, help="model JSON from fit")
    monitor.add_argument("--out", help="path for the report JSON")
    monitor.add_argument("--plot", help="path for an SVG rendering of the chart")
    monitor.add_argument("--tracking", action="store_true",
                         help="keep updating the filter during monitoring")

    calibrate = sub.add_parser("calibrate", help="calibrate the limit multiplier")
    calibrate.add_argument("--lambda", dest="lam", type=float, required=True)
    calibrate.add_argument("--phi", type=float, default=0.0)
    calibrate.add_argument("--arl", type=float, default=370.4)
    calibrate.add_argument("--reps", type=int, default=10**4)
    calibrate.add_argument("--seed", type=int, default=0)
    calibrate.add_argument("--grid-lambda", help="comma-separated lambda grid")
    calibrate.add_argument("--grid-phi", help="comma-separated phi grid")
    calibrate.add_argument("--out", help="CSV output path for grid mode")

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


#: the parser, built on the first call and kept for the process
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # looked up at each call, so the module's cmd_<command> is the one run
    command = globals()[f"cmd_{args.command}"]
    try:
        return command(args)
    except BfchartError as err:
        print(f"error: {err}", file=sys.stderr)
        return next(_EXIT_CODES[cls] for cls in type(err).__mro__ if cls in _EXIT_CODES)
    except OSError as err:
        print(f"error: {_os_message(err, err.filename)}", file=sys.stderr)
        return EXIT_PARSE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()

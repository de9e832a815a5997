"""Command-line surface: I/O formats, exit codes, determinism.

The per-cell CSV reader and the per-point report and CSV writers are kept
here as oracles for the array-speed I/O in ``cli``."""

import csv
import hashlib
import importlib
import importlib.util
import json
import os
import pathlib
import pkgutil
import re
import shlex
import sys
import threading
import warnings
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import bfchart
from bfchart import _rows, _threads, cli, exceptions
from bfchart._rows import CHUNK_ROWS
from bfchart.linalg import make_rng, sample_mvn

SIGMA = np.array([[1.0, 2.0], [2.0, 5.0]])


def read_data_loop(path):
    """The CSV reader one cell at a time: csv rows, then float() per cell."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise cli.ParseError(f"{path}: empty file") from None
            header = [h.strip() for h in header]
            skip_t = 1 if header and header[0] == "t" else 0
            names = header[skip_t:]
            if not names:
                raise cli.ParseError(f"{path}: no data columns in header")
            rows = []
            for row in reader:
                lineno = reader.line_num
                if not row or all(not cell.strip() for cell in row):
                    continue
                if len(row) != len(header):
                    raise cli.ParseError(
                        f"{path}:{lineno}: expected {len(header)} fields, "
                        f"got {len(row)}"
                    )
                values = []
                for col, cell in enumerate(row[skip_t:], start=skip_t + 1):
                    try:
                        value = float(cell)
                    except ValueError:
                        raise cli.ParseError(
                            f"{path}:{lineno}: column {col}: "
                            f"{cell!r} is not a number"
                        ) from None
                    if not np.isfinite(value):
                        raise cli.ParseError(
                            f"{path}:{lineno}: column {col}: non-finite value"
                        )
                    values.append(value)
                rows.append(values)
    except OSError as err:
        raise cli.ParseError(f"{path}: {err.strerror or err}") from err
    if not rows:
        raise cli.ParseError(f"{path}: no data rows")
    return names, np.array(rows, dtype=float)


def write_data_loop(path, data):
    """The CSV writer one cell at a time."""
    data = np.asarray(data, dtype=float)
    if data.ndim == 1:
        data = data[:, None]
    names = [f"y{i + 1}" for i in range(data.shape[1])]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(["t", *names]) + "\n")
        for t, row in enumerate(data, start=1):
            fh.write(",".join([str(t), *(repr(float(v)) for v in row)]) + "\n")


def outcome(read, path):
    """(names, array) from a reader, or the message of its ParseError."""
    try:
        return read(path)
    except cli.ParseError as err:
        return str(err)


def write_stream(path, n, seed, shift=0.0):
    """An in-control stream from the reference target, optionally mean-shifted."""
    data = sample_mvn(np.zeros(2), SIGMA, n, make_rng(seed))
    data[:, 0] += shift
    cli.write_data(str(path), data)
    return data


@pytest.fixture(scope="module")
def fit_artifacts(tmp_path_factory):
    """A fitted model produced through the CLI, shared across tests."""
    root = tmp_path_factory.mktemp("cli-fit")
    train = root / "train.csv"
    model = root / "model.json"
    write_stream(train, 250, seed=80)
    code = cli.main([
        "fit", str(train),
        "--out", str(model),
        "--estimate-target",
        "--delta-grid", "0.8,0.9",
        "--reps", "300",
        "--seed", "4",
    ])
    assert code == cli.EXIT_OK
    return root, train, model


#: the mistyped changes of a document value of each kind, by the test id
#: pattern they make: a number or a count as true, false and its JSON text,
#: a count also fractional and as a whole float
MISTYPED = {
    "number": {"{}_as_true": lambda v: True, "{}_as_false": lambda v: False,
               "{}_as_text": json.dumps},
    "count": {"{}_as_true": lambda v: True, "{}_as_false": lambda v: False,
              "{}_as_text": json.dumps, "fractional_{}": lambda v: v + 0.5,
              "{}_as_float": float},
}

#: every value of model.json but ``kind`` and ``metadata``: its key path, where
#: a list's first entry stands for the list, and its kind
MODEL_FIELDS = {
    "schema_version": (("schema_version",), "count"),
    "delta": (("delta",), "number"),
    "p_star": (("p_star",), "number"),
    "lbf_offset": (("lbf_offset",), "number"),
    "prior_scale": (("prior_scale",), "number"),
    "n_phase1": (("n_phase1",), "count"),
    "warmup": (("warmup",), "count"),
    "m_opt": (("m_opt", 0), "number"),
    "s_opt_dim": (("s_opt", "dim"), "count"),
    "s_opt_data": (("s_opt", "data", 0), "number"),
    "target_mu": (("target", "mu", 0), "number"),
    "target_dim": (("target", "v", "dim"), "count"),
    "target_data": (("target", "v", "data", 0), "number"),
    **{f"ar_{k}": (("ar", k), "number") for k in ("intercept", "phi", "sigma2")},
    **{f"chart_{k}": (("chart", k), "number") for k in ("lam", "c", "mu_z", "sigma_z")},
    **{f"fit_{k}": (("fit", k, 0), "number") for k in ("msse", "mae", "mape")},
    "fit_n": (("fit", "n"), "count"),
    "grid_delta": (("grid", 0, "delta"), "number"),
    **{f"grid_{k}": (("grid", 0, k, 0), "number") for k in ("msse", "mae", "mape")},
    "grid_n": (("grid", 0, "n"), "count"),
    "phase1_z": (("phase1_z", 0), "number"),
}

#: every value of a target file, as MODEL_FIELDS lists a model's
TARGET_FIELDS = {
    "mu": (("mu", 0), "number"),
    "dim": (("v", "dim"), "count"),
    "data": (("v", "data", 0), "number"),
}


def _field(doc, path):
    """The value at key path ``path`` of a document."""
    for step in path:
        doc = doc[step]
    return doc


def _key_path(path):
    """The name the model reader gives the value at ``path``: ``grid[0].msse``
    for ``("grid", 0, "msse", 0)``, whose last step stands for the list."""
    steps = path[:-1] if isinstance(path[-1], int) else path
    return steps[0] + "".join(f"[{s}]" if isinstance(s, int) else f".{s}" for s in steps[1:])


def _mistyped(fields):
    """For each field and each mistyped change of its kind, a pytest param of
    a function that makes that change to a document."""
    def mutator(path, change):
        def mutate(doc):
            _field(doc, path[:-1])[path[-1]] = change(_field(doc, path))
        return mutate

    return [pytest.param(mutator(path, change), id=pattern.format(name))
            for name, (path, kind) in fields.items()
            for pattern, change in MISTYPED[kind].items()]


@pytest.fixture(scope="module")
def positive_artifacts(tmp_path_factory):
    """A model fitted through the CLI on positive-valued rows, 50 + N(0, SIGMA),
    so that every value of model.json is a number (MAPE too), and a stream
    of such rows."""
    root = tmp_path_factory.mktemp("cli-positive")
    train, model, stream = root / "train.csv", root / "model.json", root / "stream.csv"
    cli.write_data(str(train), 50.0 + sample_mvn(np.zeros(2), SIGMA, 250, make_rng(80)))
    cli.write_data(str(stream), 50.0 + sample_mvn(np.zeros(2), SIGMA, 50, make_rng(90)))
    assert cli.main(["fit", str(train), "--out", str(model), "--estimate-target",
                     "--delta-grid", "0.8,0.9", "--reps", "300", "--seed", "4"]) == cli.EXIT_OK
    return model, stream


class TestDataIO:
    def test_round_trip_is_lossless(self, tmp_path):
        path = tmp_path / "data.csv"
        data = make_rng(81).standard_normal((20, 3)) * 1e3
        cli.write_data(str(path), data)
        names, back = cli.read_data(str(path))
        assert names == ["y1", "y2", "y3"]
        np.testing.assert_array_equal(back, data)

    def test_time_column_optional(self, tmp_path):
        path = tmp_path / "plain.csv"
        path.write_text("a,b\n1.0,2.0\n3.0,4.0\n")
        names, data = cli.read_data(str(path))
        assert names == ["a", "b"]
        np.testing.assert_array_equal(data, [[1.0, 2.0], [3.0, 4.0]])

    def test_bad_cell_reports_location(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,a\n1,2.0\n2,oops\n")
        with pytest.raises(cli.ParseError, match=r"bad\.csv:3: column 2"):
            cli.read_data(str(path))

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("a,b\n1.0,2.0\n3.0\n")
        with pytest.raises(cli.ParseError, match="expected 2 fields"):
            cli.read_data(str(path))

    def test_non_finite_rejected(self, tmp_path):
        path = tmp_path / "inf.csv"
        path.write_text("a\ninf\n")
        with pytest.raises(cli.ParseError, match="non-finite"):
            cli.read_data(str(path))

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(cli.ParseError):
            cli.read_data(str(path))

    def test_missing_file_is_parse_error(self, tmp_path):
        with pytest.raises(cli.ParseError):
            cli.read_data(str(tmp_path / "absent.csv"))

    @pytest.mark.parametrize("content", [b"a,b\n1,2\n\xff,3\n", b"\xffa,b\n1,2\n"],
                             ids=["body", "header"])
    def test_non_utf8_file_is_parse_error(self, tmp_path, capsys, content):
        path = tmp_path / "latin.csv"
        path.write_bytes(content)
        code = cli.main(["fit", str(path), "--out", str(tmp_path / "m.json"),
                         "--estimate-target"])
        assert code == cli.EXIT_PARSE
        assert capsys.readouterr().err == (
            f"error: {path}: not UTF-8 text (byte 0xff)\n")


#: values whose written text the parse kernel must read without the loop
WRITTEN_EDGES = [0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308,
                 -1.7976931348623157e308, 1e-7, -1e-7, 1e16, -1e16, 2.0**53, 2.0**53 + 2]

#: CSV bodies on which the parse kernel must agree with the cell loop:
#: the same names and array, or the same ParseError message
READ_CASES = {
    "plain": b"t,a,b\n1,1.5,-2\n2,3e-3,4\n",
    "no_t_column": b"a,b\n1.5,-2\n3,4\n",
    "one_column": b"a\n1\n2\n",
    "short_row": b"t,a,b\n1,1,2\n2,3\n",
    "long_row": b"t,a,b\n1,1,2\n2,3,4,5\n",
    "one_short_row": b"t,a,b\n1,2\n",
    "one_long_row": b"a,b\n1,2,3\n",
    "overflow": b"a,b\n1,2\n1e400,3\n",
    "infinity": b"a,b\n1,infinity\n",
    "nan": b"a,b\nnan,1\n",
    "header_only": b"t,a,b\n",
    "header_only_no_newline": b"t,a,b",
    "empty_file": b"",
    "no_data_columns": b"t\n1\n",
    "blank_lines": b"a,b\n\n1,2\n\n3,4\n\n",
    "whitespace_line": b"a,b\n1,2\n   \n3,4\n",
    "comma_line": b"a,b\n1,2\n,\n3,4\n",
    "only_blank_rows": b"a,b\n,\n \n",
    "quoted_cell": b'a,b\n"1",2\n',
    "underscore": b"a,b\n1_000,2\n",
    "arabic_indic_digit": "a,b\n١,2\n".encode(),
    "no_break_space": "a,b\n\xa01,2\n".encode(),
    "non_numeric_t": b"t,a\nx,1\ny,2\n",
    "non_finite_t": b"t,a\ninf,1\n",
    "cr_only": b"t,a,b\r1,1,2\r2,3,4\r",
    "crlf": b"t,a,b\r\n1,1,2\r\n2,3,4\r\n",
    "no_final_newline": b"a,b\n1,2\n3,4",
    "spaces_around": b"a,b\n 1.5 ,  2\n",
    "tab_around": b"a,b\n\t1.5\t,2\n",
    "d_exponent": b"a,b\n1.5d3,2\n",
    "inline_comment": b"a,b\n2 # c,1\n",
    "empty_cell": b"a,b\n1,\n",
    "trailing_comma": b"a,b\n1,2,\n",
    "info_separator": b"a,b\n1\x1c,2\n",
    "extreme_values": b"a,b\n5e-324,-0.0\n1e-400,+.5\n1e+16,1.7976931348623157e308\n",
    "bad_cell": b"t,a\n1,2.0\n2,oops\n",
    "line_break_in_header": b'"a\nb",c\n1,x\n',
    # the parse kernel's edges
    "signed_zeros": b"t,a,b\n1,-0,-0.0\n2,0,0.0\n",
    "bare_points": b"a,b,c\n0.,.5,-.5\n",
    "lone_point": b"a,b\n1,.\n",
    "lone_sign": b"a,b\n-,1\n",
    "sign_and_point": b"a,b\n-.,1\n",
    "double_sign": b"a,b\n--1,1\n",
    "two_points": b"a,b\n1.2.3,1\n",
    "inner_sign": b"a,b\n1-2,1\n",
    "leading_zeros": b"a,b\n007.50,-0001\n000000000000000000000000000001.5,0\n",
    "twenty_digits": b"a,b\n12345678901234567890,-1.2345678901234567890\n",
    "twenty_five_digits": b"a,b\n1234567890123456789012345,0.1234567890123456789012345\n",
    "eighteen_digits": b"a,b\n123456789012345678,-12345678.9012345678\n",
    "tie_above_2_53": b"a,b\n9007199254740993,18014398509481985\n",
    "near_tie_above_2_53": b"a,b\n9007199254740993.0000001,-9007199254740992.9999999\n",
    "long_fraction": b"a,b\n0.0000000000000000000001,0.00000000000000000000001\n"
                     b".00000000000000000000001,-.0000000000000000000001\n"
                     b".12345678901234567890123,1234567890123456789012.\n",
    "below_powers_of_two": b"a,b\n0.99999999999999993,0.99999999999999994\n"
                           b"9007199254740991.6,18014398509481983.3\n"
                           b"0.49999999999999997,4503599627370495.7\n",
    "exponents": b"a,b,c\n1e-7,1E5,+1.5\n5e-324,2.2250738585072011e-308,1e+16\n",
    "bad_exponent": b"a,b\n1e,2\n",
    "crlf_decimals": b"t,a,b\r\n1,-1.5,0.25\r\n2,3.75,-0.125\r\n",
    "crlf_no_final_newline": b"a,b\r\n1.5,2\r\n3,4.25",
    "crlf_blank_line": b"a,b\r\n1,2\r\n\r\n3,4\r\n",
    "cr_inside_a_row": b"a,b\n1\r,2\n",
    "cr_in_header": b"a\rb\n1\n2\n",
    "unclosed_quote_in_header": b'"a\n1\n',
    "short_rows_of_the_width": b"a,b,c\n1\n2,3\n",
    "long_then_short_row": b"a,b\n1,2,3\n4\n",
    "trailing_blank_line": b"a,b\n1,2\n\n",
    "leading_blank_line": b"a,b\n\n1,2\n",
    "one_column_blank_line": b"a\n1\n\n2\n",
    "empty_first_cell": b"a,b\n,2\n",
    "slash": b"a,b\n1/2,3\n",
}


def same_outcome(got, want):
    if isinstance(want, str):
        return got == want
    return (not isinstance(got, str) and got[0] == want[0]
            and got[1].shape == want[1].shape
            and got[1].tobytes() == want[1].tobytes())


class TestReadDataMatchesCellLoop:
    @pytest.mark.parametrize("content", READ_CASES.values(), ids=READ_CASES)
    def test_same_array_or_same_message(self, tmp_path, capsys, content):
        path = tmp_path / "data.csv"
        path.write_bytes(content)
        want = outcome(read_data_loop, str(path))
        assert same_outcome(outcome(cli.read_data, str(path)), want)
        if isinstance(want, str):
            code = cli.main(["fit", str(path), "--out", str(tmp_path / "m.json"),
                             "--estimate-target"])
            assert code == cli.EXIT_PARSE
            assert capsys.readouterr().err == f"error: {want}\n"

    @pytest.mark.parametrize("content, line", [
        (b'"a\nb",c\n1,x\n', 3),
        (b'"a\r\nb",c\r\n1,2\r\n\r\n3,x\r\n', 5),
        (b'a,b\n1,"2\n"\n3,x\n', 4),
    ], ids=["header", "header_crlf", "record"])
    def test_names_the_physical_line(self, tmp_path, content, line):
        # a quoted line break makes a record span two lines of the file
        path = tmp_path / "data.csv"
        path.write_bytes(content)
        assert outcome(cli.read_data, str(path)) == (
            f"{path}:{line}: column 2: 'x' is not a number")

    def test_missing_file(self, tmp_path):
        path = str(tmp_path / "absent.csv")
        assert same_outcome(outcome(cli.read_data, path),
                            outcome(read_data_loop, path))

    def test_byte_order_mark_is_not_part_of_the_header(self, tmp_path):
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        for content in (READ_CASES["plain"], b"a,b\n1,2\n", b"a,b\n\"1\",2\n"):
            plain.write_bytes(content)
            marked.write_bytes(b"\xef\xbb\xbf" + content)
            names, data = cli.read_data(str(marked))
            assert "t" not in names
            assert same_outcome((names, data), cli.read_data(str(plain)))

    def test_written_files_take_the_one_call_path(self, tmp_path, monkeypatch):
        # the parse kernel reads what write_data writes, edge values too
        path = tmp_path / "data.csv"
        normal = make_rng(91).standard_normal((CHUNK_ROWS + 3, 3))
        edges = normal.copy()
        edges.flat[:len(WRITTEN_EDGES)] = WRITTEN_EDGES
        edges[-len(WRITTEN_EDGES):, 1] = WRITTEN_EDGES

        def no_loop(*args):
            raise AssertionError("fell back to the cell loop")

        monkeypatch.setattr(cli, "_parse_rows", no_loop)
        for data in (normal, edges):
            cli.write_data(str(path), data)
            names, back = cli.read_data(str(path))
            assert names == ["y1", "y2", "y3"]
            assert back.tobytes() == data.tobytes()

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs a named pipe")
    def test_a_pipe_is_read_by_the_loop(self, tmp_path):
        # a pipe cannot be memory-mapped, so the cell loop reads it
        content = READ_CASES["crlf_decimals"]
        plain, fifo = tmp_path / "plain.csv", tmp_path / "fifo.csv"
        plain.write_bytes(content)
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_bytes, args=(content,), daemon=True)
        writer.start()
        got = outcome(cli.read_data, str(fifo))
        writer.join(timeout=10)
        assert not writer.is_alive()
        assert same_outcome(got, read_data_loop(str(plain)))

    @pytest.mark.parametrize("one_call", [True, False], ids=["one_call", "cell_loop"])
    def test_file_is_opened_once(self, tmp_path, monkeypatch, one_call):
        path = tmp_path / "data.csv"
        if one_call:
            cli.write_data(str(path), make_rng(95).standard_normal((CHUNK_ROWS + 3, 2)))
        else:
            path.write_bytes(READ_CASES["quoted_cell"])
        opened, loops = [], []
        real_open, real_loop = open, cli._parse_rows

        def counting_open(file, *args, **kwargs):
            if str(file) == str(path):
                opened.append(args)
            return real_open(file, *args, **kwargs)

        def counting_loop(*args):
            loops.append(args)
            return real_loop(*args)

        monkeypatch.setattr("builtins.open", counting_open)
        monkeypatch.setattr(cli, "_parse_rows", counting_loop)
        names, data = cli.read_data(str(path))
        monkeypatch.undo()
        assert len(opened) == 1
        assert len(loops) == (0 if one_call else 1)
        assert same_outcome((names, data), read_data_loop(str(path)))


def _midpoint_text(x, digits):
    """The exact decimal midpoint between |x| and the next double up, to
    ``digits`` significant digits, with the sign of x."""
    a = abs(x)
    mid = (Fraction(a) + Fraction(float(np.nextafter(a, np.inf)))) / 2
    with localcontext() as context:
        context.prec = 60
        text = format(Decimal(mid.numerator) / Decimal(mid.denominator), f".{digits}g")
    return ("-" if x < 0 else "") + text


def _digit_text(negative, digits, point):
    """A sign, the digits and a point at position ``point`` (none past the end)."""
    if point <= len(digits):
        digits = digits[:point] + "." + digits[point:]
    return ("-" if negative else "") + digits


def _sweep_cells(rng, n):
    """Cell texts of each kind the parse kernel must read as float() does."""
    x = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 17, n)
    bits = rng.integers(0, 2**63, n, dtype=np.int64).view(float)
    bits = np.where(np.isfinite(bits), bits, 0.0)
    lengths = rng.integers(1, 26, n)
    strings = ["".join(map(str, rng.integers(0, 10, size))) for size in lengths]
    cells = [repr(v) for v in bits.tolist()]
    cells += ["%.17g" % v for v in x.tolist()]
    cells += ["%.15g" % v for v in x.tolist()]
    cells += [f"%.{k}f" % v for v, k in zip(x.tolist(), rng.integers(0, 25, n).tolist())]
    cells += [_digit_text(neg, s, p) for neg, s, p in
              zip((rng.random(n) < 0.5).tolist(), strings,
                  rng.integers(0, 27, n).tolist())]
    cells += [_midpoint_text(v, d) for v, d in
              zip(x[:n // 4].tolist(), rng.integers(16, 40, n // 4).tolist())]
    # decimals between a power of two and the double below it, where the
    # ulp changes
    for e in range(-30, 62):
        top = Fraction(2) ** e
        below = Fraction(float(np.nextafter(float(top), 0.0)))
        for t in (0.3, 0.45, 0.55, 0.7):
            x_t = below + (top - below) * Fraction(t)
            with localcontext() as context:
                context.prec = 60
                exact = Decimal(x_t.numerator) / Decimal(x_t.denominator)
            cells += [format(exact, f".{d}f" if e > 0 else f".{d}g") for d in (17, 19)]
    return cells


#: cell texts for the parse kernel's property: shortest, %.17g, %.15g and
#: %.kf floats, digit strings with a sign and a point, and decimal midpoints
#: between adjacent doubles to 30 digits and more
KERNEL_CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(-1e20, 1e20).map(lambda v: "%.17g" % v),
    st.floats(-1e20, 1e20).map(lambda v: "%.15g" % v),
    st.builds(lambda v, k: f"%.{k}f" % v, st.floats(-1e17, 1e17), st.integers(0, 25)),
    st.builds(_digit_text, st.booleans(), st.text("0123456789", min_size=1, max_size=25),
              st.integers(0, 26)),
    st.builds(_midpoint_text, st.floats(1e-300, 1e300), st.integers(30, 40)),
)


class TestParseKernel:
    """``cli.read_data`` through the parse kernel against the cell loop,
    bit for bit."""

    @settings(max_examples=60, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(rows=st.lists(st.tuples(KERNEL_CELLS, KERNEL_CELLS), min_size=1, max_size=6))
    def test_property_against_the_cell_loop(self, tmp_path, rows):
        path = tmp_path / "data.csv"
        path.write_text("t,a,b\n" + "".join(f"{i},{a},{b}\n" for i, (a, b) in enumerate(rows)))
        assert same_outcome(outcome(cli.read_data, str(path)),
                            outcome(read_data_loop, str(path)))

    def test_sweep_against_the_cell_loop(self, tmp_path):
        cells = _sweep_cells(np.random.default_rng(97), 2000)
        half = len(cells) // 2
        path = tmp_path / "data.csv"
        path.write_text("a,b\n" + "".join(f"{a},{b}\n" for a, b in zip(cells, cells[half:])))
        want = read_data_loop(str(path))
        assert same_outcome(cli.read_data(str(path)), want)
        # and the written text of random finite bit patterns
        bits = np.random.default_rng(98).integers(0, 2**63, (3000, 2), dtype=np.int64)
        bits[::2] ^= np.int64(-2**63)
        data = np.where(np.isfinite(bits.view(float)), bits.view(float), 0.0)
        cli.write_data(str(path), data)
        assert cli.read_data(str(path))[1].tobytes() == data.tobytes()

    @pytest.mark.parametrize("block", [1, 40])
    def test_blocks_of_a_body_agree(self, tmp_path, monkeypatch, block):
        # a body read a few lines a block: every block boundary, and a bad
        # cell in a later block than the first
        monkeypatch.setattr(_rows, "PARSE_BYTES", block)
        path = tmp_path / "data.csv"
        for content in READ_CASES.values():
            path.write_bytes(content)
            assert same_outcome(outcome(cli.read_data, str(path)),
                                outcome(read_data_loop, str(path)))

    def test_every_written_file_takes_the_kernel(self, tmp_path, monkeypatch):
        # the files write_data, simulate and calibrate write, and perfbench's
        # inputs; the --lbf study's summary holds scenario names, not data
        spec = importlib.util.spec_from_file_location(
            "perfbench_workloads", pathlib.Path(__file__).parents[1] / "perfbench/workloads.py")
        workloads = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, workloads)
        spec.loader.exec_module(workloads)
        for name, workload in workloads.WORKLOADS.items():
            (tmp_path / name).mkdir()
            workloads.generate_inputs(workload, 1, workloads.Paths(str(tmp_path / name)))
        for argv in (["--scenario", "mean_shift", "-n", "300"], ["--dwr", "--dim", "3", "-n", "300"]):
            assert cli.main(["simulate", *argv, "--out", str(tmp_path / f"sim{len(argv)}.csv")]) == 0
        assert cli.main(["simulate", "--scenario", "all", "--lbf", "-n", "40", "--warmup", "20",
                         "--out-dir", str(tmp_path)]) == 0
        assert cli.main(["calibrate", "--lambda", "0.1", "--grid-phi", "0,0.2", "--reps", "100",
                         "--out", str(tmp_path / "grid.csv")]) == 0
        loops = []
        monkeypatch.setattr(cli, "_parse_rows", lambda path, *args: loops.append(path))
        paths = [p for p in sorted(tmp_path.rglob("*.csv")) if p.name != "lbf_summary.csv"]
        assert len(paths) == 8 + 4 + 4 + 2 + 4 + 1
        for path in paths:
            cli.read_data(str(path))
        assert loops == []


#: values whose text json and repr must agree on
EXTREME_FLOATS = [-0.0, 1e-05, 1e16, 5e-324, 1.7976931348623157e308, 0.1]


class TestWriteDataMatchesCellLoop:
    @pytest.mark.parametrize("n", [0, 1, CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1])
    def test_same_bytes(self, tmp_path, n):
        data = make_rng(92).standard_normal((n, 2)) * 1e3
        data.flat[:len(EXTREME_FLOATS)] = EXTREME_FLOATS[:data.size]
        for args in ((data,), (data[:, 0],)):
            cli.write_data(str(tmp_path / "a.csv"), *args)
            write_data_loop(str(tmp_path / "b.csv"), *args)
            assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def report_pair(n, seed, names, flagged=True, warnings=True, special=()):
    """A report with streamed arrays and the same report as plain lists."""
    rng = make_rng(seed)
    lbf = rng.standard_normal(n)
    lbf[:len(special)] = special[:n]
    x = lbf - 0.25
    z = np.cumsum(x) * 0.1
    flags = (np.abs(z) > 0.3) if flagged else np.zeros(n, dtype=bool)
    signals = np.flatnonzero(flags)
    small = {
        "schema_version": 1,
        "kind": "bfchart-report",
        "model_file": "mödel \"1\".json",
        "metadata": {"columns": list(names), "source_rows": n, "tracking": False},
        "chart": {"lam": 0.05, "c": 2.5, "ucl": 0.3, "lcl": -0.3},
        "warnings": ([f"run of {k} points above the center" for k in (7, 9)]
                     if warnings else []),
    }
    streamed = dict(
        small,
        points=cli._Rows({"t": np.arange(n), "x": x, "z": z, "out_of_control": flags}),
        signals=cli._Rows(signals),
        lbf=cli._Rows(lbf),
    )
    full = dict(
        small,
        points=[{"t": t, "x": float(x[t]), "z": float(z[t]),
                 "out_of_control": bool(flags[t])} for t in range(n)],
        signals=signals.tolist(),
        lbf=lbf.tolist(),
    )
    return streamed, full


def json_dump_bytes(path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path.read_bytes()


class TestReportWriterMatchesJsonDump:
    @pytest.mark.parametrize("n", [0, 1, CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1])
    @pytest.mark.parametrize("flagged,warnings", [(True, True), (False, False)])
    def test_same_bytes(self, tmp_path, n, flagged, warnings):
        streamed, full = report_pair(
            n, 93, ["y1", 'y"2', "ü中"], flagged, warnings,
            special=EXTREME_FLOATS,
        )
        out = tmp_path / "report.json"
        cli._write_json(str(out), streamed)
        assert out.read_bytes() == json_dump_bytes(tmp_path / "want.json", full)

    def test_non_finite_values_as_json_writes_them(self, tmp_path):
        streamed, full = report_pair(
            CHUNK_ROWS + 5, 94, ["y1"], special=[np.nan, np.inf, -np.inf, 1.0]
        )
        out = tmp_path / "report.json"
        cli._write_json(str(out), streamed)
        text = out.read_text()
        assert "NaN" in text and "-Infinity" in text
        assert out.read_bytes() == json_dump_bytes(tmp_path / "want.json", full)

    def test_keys_that_need_escaping(self, tmp_path):
        values = np.array([1.5, -0.0])
        streamed = {"k": cli._Rows({'a"%s': values, "é": values > 0}), "": 1}
        full = {"k": [{'a"%s': v, "é": v > 0} for v in values.tolist()], "": 1}
        out = tmp_path / "doc.json"
        cli._write_json(str(out), streamed)
        assert out.read_bytes() == json_dump_bytes(tmp_path / "want.json", full)

    def test_small_documents(self, tmp_path):
        for doc in ({}, {"a": []}, {"b": {}, "a": [1, {"c": None}]}):
            out = tmp_path / "doc.json"
            cli._write_json(str(out), doc)
            assert out.read_bytes() == json_dump_bytes(tmp_path / "want.json", doc)


def plain_rows(result):
    """The report's per-row arrays as the lists they stand for."""
    return {
        "points": [
            {"t": t, "x": x, "z": z, "out_of_control": flag}
            for t, (x, z, flag) in enumerate(zip(
                result.x.tolist(), result.z.tolist(), result.out_of_control.tolist()))
        ],
        "signals": np.flatnonzero(result.out_of_control).tolist(),
        "lbf": result.lbf.tolist(),
    }


class TestCommandOutputsMatchPerValueWriters:
    """Every file that simulate, fit and monitor write equals what a
    per-value writer gives for the same content: the text kernel's wiring
    into each command, not only the kernel.  The chart draws the M4 points
    of the full series, each with its per-point text."""

    def test_simulate_fit_monitor(self, tmp_path, capsys):
        from test_svg import assert_draws_m4

        from bfchart import simulate, workflow

        scenarios = simulate.reference_scenarios()
        data = {}
        for name, scenario, n, seed in (("fit", "in_control", 300, 21),
                                        ("new", "mean_shift", CHUNK_ROWS + 904, 22)):
            path = tmp_path / f"{name}.csv"
            assert cli.main(["simulate", "--scenario", scenario, "-n", str(n),
                             "--seed", str(seed), "--out", str(path)]) == cli.EXIT_OK
            data[name] = simulate.gen_iid(scenarios[scenario], n, make_rng(seed))
            write_data_loop(str(tmp_path / "want.csv"), data[name])
            assert path.read_bytes() == (tmp_path / "want.csv").read_bytes()

        model_path = tmp_path / "model.json"
        assert cli.main(["fit", str(tmp_path / "fit.csv"), "--estimate-target",
                         "--reps", "300", "--seed", "3",
                         "--out", str(model_path)]) == cli.EXIT_OK
        model_doc = json.loads(model_path.read_text())
        fitted = workflow.phase1(data["fit"], calib_reps=300, seed=3)
        model_doc["phase1_z"] = fitted.phase1_z.tolist()
        assert model_path.read_bytes() == json_dump_bytes(tmp_path / "want.json", model_doc)

        for tracking in (False, True):
            report, plot = tmp_path / "report.json", tmp_path / "chart.svg"
            args = ["monitor", str(tmp_path / "new.csv"), "--model", str(model_path),
                    "--out", str(report)]
            args += ["--tracking"] if tracking else ["--plot", str(plot)]
            assert cli.main(args) == cli.EXIT_SIGNAL
            result = workflow.phase2(fitted, data["new"], tracking=tracking)
            report_doc = dict(json.loads(report.read_text()), **plain_rows(result))
            assert report.read_bytes() == json_dump_bytes(tmp_path / "want.json", report_doc)
        chart = fitted.chart
        result = workflow.phase2(fitted, data["new"])
        assert_draws_m4(
            plot.read_text(encoding="utf-8"),
            np.concatenate([fitted.phase1_z, result.z]), chart.mu_z, chart.ucl,
            chart.lcl, separator=len(fitted.phase1_z),
        )
        capsys.readouterr()


class TestSimulateCommand:
    def test_scenario_row_count(self, tmp_path):
        out = tmp_path / "sim.csv"
        code = cli.main([
            "simulate", "--scenario", "in_control", "-n", "1000",
            "--seed", "7", "--out", str(out),
        ])
        assert code == cli.EXIT_OK
        _, data = cli.read_data(str(out))
        assert data.shape == (1000, 2)

    def test_same_seed_identical_files(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            cli.main(["simulate", "--scenario", "mean_shift", "-n", "100",
                      "--seed", "3", "--out", str(out)])
        assert a.read_bytes() == b.read_bytes()

    def test_unknown_scenario(self, tmp_path, capsys):
        code = cli.main(["simulate", "--scenario", "nope",
                         "--out", str(tmp_path / "x.csv")])
        assert code == cli.EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith("error: simulate: unknown scenario 'nope'; choose one of ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("scenario", ["nope", "all"])
    def test_unknown_scenario_with_dwr(self, tmp_path, capsys, scenario):
        # the name is checked whatever the generator; 'all' is only for --lbf
        out = tmp_path / "d.csv"
        code = cli.main(["simulate", "--dwr", "--scenario", scenario, "-n", "5",
                         "--out", str(out)])
        assert code == cli.EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith(
            f"error: simulate: unknown scenario {scenario!r}; choose one of ")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_dwr_generator(self, tmp_path):
        out = tmp_path / "dwr.csv"
        code = cli.main(["simulate", "--dwr", "--dim", "3", "--delta", "0.8",
                        "-n", "40", "--seed", "2", "--out", str(out)])
        assert code == cli.EXIT_OK
        _, data = cli.read_data(str(out))
        assert data.shape == (40, 3)

    @pytest.mark.parametrize("flags", [["--scenario", "mean_shift"], [],
                                       ["--scenario", "all", "--dwr"]])
    def test_lbf_needs_scenario_all(self, tmp_path, capsys, flags):
        out = tmp_path / "data.csv"
        code = cli.main(["simulate", "--lbf", *flags, "-n", "50", "--out", str(out),
                         "--out-dir", str(tmp_path)])
        assert code == cli.EXIT_PARSE
        assert capsys.readouterr().err == (
            "error: simulate: --lbf needs --scenario all and no --dwr\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("n", [1, 2])
    def test_lbf_needs_three_rows(self, tmp_path, capsys, n):
        # refused before the study writes its first histogram
        code = cli.main(["simulate", "--scenario", "all", "--lbf", "-n", str(n),
                         "--out-dir", str(tmp_path)])
        assert code == cli.EXIT_PARSE
        assert capsys.readouterr().err == (
            f"error: simulate: --lbf needs -n of at least 3, got {n}\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("warmup", [0, -3])
    def test_lbf_needs_a_warmup(self, tmp_path, capsys, warmup):
        # refused before the study writes its first histogram
        code = cli.main(["simulate", "--scenario", "all", "--lbf", "-n", "20",
                         "--warmup", str(warmup), "--out-dir", str(tmp_path)])
        assert code == cli.EXIT_PARSE
        assert capsys.readouterr() == (
            "", f"error: simulate: --lbf needs --warmup of at least 1, got {warmup}\n")
        assert list(tmp_path.iterdir()) == []

    def test_lbf_study_outputs(self, tmp_path):
        code = cli.main(["simulate", "--scenario", "all", "--lbf", "-n", "150",
                         "--warmup", "100", "--seed", "0",
                         "--out-dir", str(tmp_path)])
        assert code == cli.EXIT_OK
        for name in ("in_control", "mean_shift", "cov_shift", "both_shift"):
            hist = tmp_path / f"lbf_hist_{name}.csv"
            assert hist.exists()
            lines = hist.read_text().splitlines()
            assert lines[0] == "bin_left,bin_right,count"
            counts = [int(line.split(",")[2]) for line in lines[1:]]
            assert sum(counts) == 150
        summary = (tmp_path / "lbf_summary.csv").read_text().splitlines()
        assert summary[0] == "scenario,n,warmup,delta,mean,skewness"
        assert len(summary) == 5

    def test_lbf_histograms_match_per_value_text(self, tmp_path):
        from bfchart import simulate

        code = cli.main(["simulate", "--scenario", "all", "--lbf", "-n", "120",
                         "--warmup", "100", "--seed", "5", "--out-dir", str(tmp_path)])
        assert code == cli.EXIT_OK
        study = simulate.scenario_lbf_study(n=120, warmup=100, delta=0.9, seed=5)
        for name, values in study.items():
            counts, edges = np.histogram(values, bins=40)
            want = "bin_left,bin_right,count\n" + "".join(
                f"{float(edges[i])!r},{float(edges[i + 1])!r},{int(counts[i])}\n"
                for i in range(len(counts)))
            assert (tmp_path / f"lbf_hist_{name}.csv").read_bytes() == want.encode()


class TestCalibrateCommand:
    def test_shewhart_point(self, capsys):
        code = cli.main(["calibrate", "--lambda", "1.0", "--phi", "0.0",
                         "--reps", "2000", "--seed", "0"])
        assert code == cli.EXIT_OK
        out = capsys.readouterr().out
        c = float(out.splitlines()[0].split("=")[1])
        assert c == pytest.approx(3.0, abs=0.06)
        assert re.search(
            r"^achieved ARL = [0-9.]+ \+/- [0-9.]+ "
            r"\(2000 replications, [1-9][0-9]* rounds, 0 censored\)$",
            out.splitlines()[1],
        )
        steps = re.fullmatch(r"simulated steps = ([0-9]+) \(([0-9.]+) per replication\)",
                             out.splitlines()[2])
        assert steps and float(steps[2]) == pytest.approx(int(steps[1]) / 2000, abs=0.05)

    @pytest.mark.parametrize("phi", ["1", "-1.0"])
    def test_unit_root_exit_code(self, capsys, phi):
        code = cli.main(["calibrate", "--lambda", "0.05", "--phi", phi, "--reps", "1000"])
        assert code == cli.EXIT_PARSE
        assert "has modulus >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [["--arl", "nan"], ["--arl", "inf"],
                                       ["--phi", "nan"], ["--phi", "inf"],
                                       ["--lambda", "nan"],
                                       ["--grid-phi", "0.1,nan"]])
    def test_non_finite_input_exit_code(self, capsys, flags):
        code = cli.main(["calibrate", "--lambda", "0.05", *flags, "--reps", "1000"])
        assert code == cli.EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "must be finite" in err or "must lie in" in err

    @pytest.mark.parametrize("arl", ["1e7", "1e307"])
    def test_arl_at_or_above_the_run_length_cap_exit_code(self, monkeypatch, capsys, arl):
        from bfchart import chart

        monkeypatch.setattr(chart, "calibrate_c", None)
        code = cli.main(["calibrate", "--lambda", "0.05", "--arl", arl, "--reps", "1000"])
        assert code == cli.EXIT_PARSE
        assert capsys.readouterr() == ("", (
            "error: target ARL must be below the run-length cap 10000000, "
            f"got {float(arl)}\n"))

    def test_low_reps_warns(self, capsys):
        cli.main(["calibrate", "--lambda", "1.0", "--reps", "100", "--seed", "0"])
        assert "wide ARL standard error" in capsys.readouterr().err

    @pytest.mark.parametrize("grid", [[], ["--grid-phi", "0.0"]])
    def test_zero_reps_refused_without_warning(self, capsys, grid):
        code = cli.main(["calibrate", "--lambda", "0.05", "--reps", "0", *grid])
        assert code == cli.EXIT_PARSE
        assert capsys.readouterr() == ("", "error: replication count must be >= 1, got 0\n")

    def test_grid_rows_match_per_value_text(self, capsys):
        from bfchart import chart

        code = cli.main(["calibrate", "--grid-lambda", "0.5,1.0",
                         "--grid-phi", "0.0,0.3", "--reps", "1000", "--seed", "2"])
        assert code == cli.EXIT_OK
        want = ["lambda,phi,c,arl,arl_se"]
        for lam in (0.5, 1.0):
            for phi in (0.0, 0.3):
                res = chart.calibrate_c(lam, phi, 370.4, reps=1000, seed=2)
                want.append(f"{lam!r},{phi!r},{res.c!r},{res.arl!r},{res.arl_se!r}")
        assert capsys.readouterr().out == "\n".join(want) + "\n"

    def test_grid_mode_csv(self, tmp_path):
        out = tmp_path / "grid.csv"
        code = cli.main(["calibrate",
                         "--grid-lambda", "0.5,1.0", "--grid-phi", "0.0",
                         "--reps", "1000", "--seed", "0", "--out", str(out)])
        assert code == cli.EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == "lambda,phi,c,arl,arl_se"
        assert len(lines) == 3

    @pytest.mark.parametrize("argv, clash", [
        (["--lambda", "5", "--grid-lambda", "0.1"], "--grid-lambda: not allowed with "
         "argument --lambda"),
        (["--lambda", "0.05", "--phi", "0.3", "--grid-phi", "0.1"], "--grid-phi: not "
         "allowed with argument --phi"),
    ], ids=["lambda", "phi"])
    def test_a_value_and_its_grid_are_a_usage_error(self, tmp_path, monkeypatch, capsys,
                                                    argv, clash):
        from bfchart import chart

        monkeypatch.setattr(chart, "calibrate_c", None)
        out = tmp_path / "grid.csv"
        with pytest.raises(SystemExit) as stop:
            cli.main(["calibrate", *argv, "--reps", "1000", "--out", str(out)])
        assert stop.value.code == cli.EXIT_PARSE
        out_text, err = capsys.readouterr()
        assert out_text == ""
        assert f"error: argument {clash}\n" in err
        assert list(tmp_path.iterdir()) == []

    def test_a_lambda_is_required(self, capsys):
        with pytest.raises(SystemExit) as stop:
            cli.main(["calibrate", "--grid-phi", "0.1", "--reps", "1000"])
        assert stop.value.code == cli.EXIT_PARSE
        assert "one of the arguments --lambda --grid-lambda is required" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["--grid-phi", "0.1,0.5,1.5"], "autoregressive coefficient 1.5 has modulus >= 1"),
        (["--grid-phi", "0.1,-2"], "autoregressive coefficient -2.0 has modulus >= 1"),
        (["--grid-phi", "0.1,nan"], "autoregressive coefficient phi must be finite, got nan"),
        (["--phi", "nan"], "autoregressive coefficient phi must be finite, got nan"),
    ], ids=["grid_unit_root", "grid_negative", "grid_nan", "nan"])
    def test_every_phi_is_refused_before_calibrating(self, monkeypatch, capsys, argv,
                                                     message):
        from bfchart import chart

        calls = []
        monkeypatch.setattr(chart, "calibrate_c", lambda *a, **k: calls.append(a))
        code = cli.main(["calibrate", "--lambda", "0.05", *argv, "--reps", "10000"])
        assert code == cli.EXIT_PARSE
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert calls == []

    def test_out_needs_a_grid(self, tmp_path, capsys):
        out = tmp_path / "single.csv"
        code = cli.main(["calibrate", "--lambda", "0.05", "--reps", "200",
                         "--out", str(out)])
        assert code == cli.EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.err == (
            "error: calibrate: --out needs --grid-lambda or --grid-phi\n")
        assert captured.out == ""
        assert not out.exists()


class TestFitCommand:
    def test_requires_target_choice(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        write_stream(data, 60, seed=82)
        out = tmp_path / "m.json"
        capsys.readouterr()
        code = cli.main(["fit", str(data), "--out", str(out)])
        assert code == cli.EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.err == (
            "error: fit: either --target-file or --estimate-target is required\n")
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--recenter", "--difference"])
    def test_deleted_flag_is_a_usage_error(self, fit_artifacts, tmp_path, capsys, flag):
        _, train, _ = fit_artifacts
        out = tmp_path / "m.json"
        with pytest.raises(SystemExit) as stop:
            cli.main(["fit", str(train), "--out", str(out), "--estimate-target",
                      "--reps", "200", flag])
        assert stop.value.code == cli.EXIT_PARSE
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        assert not out.exists()

    def test_model_document_shape(self, fit_artifacts):
        _, _, model_path = fit_artifacts
        doc = json.loads(model_path.read_text())
        assert doc["kind"] == "bfchart-model"
        assert doc["schema_version"] == 2
        assert doc["metadata"]["seed"] == 4
        assert doc["metadata"]["target_estimated"] is True
        assert len(doc["m_opt"]) == 2
        assert len(doc["s_opt"]["data"]) == 4

    def test_rerun_is_byte_identical(self, fit_artifacts, tmp_path):
        root, train, model_path = fit_artifacts
        again = tmp_path / "again.json"
        code = cli.main([
            "fit", str(train), "--out", str(again), "--estimate-target",
            "--delta-grid", "0.8,0.9", "--reps", "300", "--seed", "4",
        ])
        assert code == cli.EXIT_OK
        assert again.read_bytes() == model_path.read_bytes()

    def test_empty_target_file_is_a_missing_file(self, tmp_path, capsys):
        # an empty path names no file; it does not mean "estimate the target"
        data = tmp_path / "d.csv"
        write_stream(data, 60, seed=82)
        out = tmp_path / "m.json"
        capsys.readouterr()
        code = cli.main(["fit", str(data), "--out", str(out), "--target-file", "",
                         "--reps", "200"])
        assert code == cli.EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.err == "error: '': No such file or directory\n"
        assert captured.out == ""
        assert not out.exists()

    def test_refuses_both_target_choices(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        write_stream(data, 60, seed=82)
        target = tmp_path / "target.json"
        target.write_text(json.dumps({"mu": [0.0, 0.0],
                                      "v": {"dim": 2, "data": [1.0, 0.0, 0.0, 1.0]}}))
        out = tmp_path / "m.json"
        capsys.readouterr()
        code = cli.main(["fit", str(data), "--out", str(out), "--target-file", str(target),
                         "--estimate-target", "--reps", "200"])
        assert code == cli.EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.err == (
            "error: fit takes --target-file or --estimate-target, not both\n")
        assert captured.out == ""
        assert not out.exists()

    def test_refuses_a_repeated_candidate(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        write_stream(data, 60, seed=82)
        out = tmp_path / "m.json"
        code = cli.main(["fit", str(data), "--out", str(out), "--estimate-target",
                         "--delta-grid", "0.5,0.5", "--reps", "200"])
        assert code == cli.EXIT_PARSE
        assert capsys.readouterr().err == "error: discount factor 0.5 is repeated in the grid\n"
        assert not out.exists()

    def test_threads_do_not_change_the_output(self, tmp_path, capsys, monkeypatch):
        # an input above the size from which candidates are scored on threads
        data = tmp_path / "d.csv"
        write_stream(data, -(-cli.workflow._THREADED_GRID_ENTRIES // 4), seed=87)
        outputs = []
        for count in (1, 2):
            monkeypatch.setattr(_threads, "usable_cpus", lambda: count)
            out = tmp_path / f"m{count}.json"
            code = cli.main(["fit", str(data), "--out", str(out), "--estimate-target",
                             "--reps", "200", "--seed", "3"])
            assert code == cli.EXIT_OK
            text = capsys.readouterr().out.replace(str(out), "MODEL")
            outputs.append((out.read_bytes(), text))
        assert outputs[0] == outputs[1]

    def test_target_file_input(self, tmp_path):
        data = tmp_path / "d.csv"
        write_stream(data, 120, seed=83)
        target = tmp_path / "target.json"
        estimated = __import__("bfchart").workflow.estimate_target(
            cli.read_data(str(data))[1]
        )
        target.write_text(json.dumps({
            "mu": estimated.mu.tolist(),
            "v": {"dim": 2, "data": estimated.V.reshape(-1).tolist()},
        }))
        code = cli.main([
            "fit", str(data), "--out", str(tmp_path / "m.json"),
            "--target-file", str(target),
            "--delta-grid", "0.9", "--reps", "200", "--seed", "1",
        ])
        assert code == cli.EXIT_OK

    def test_target_variance_near_the_largest_float(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        write_stream(data, 60, seed=86)
        target = tmp_path / "target.json"
        target.write_text(json.dumps({"mu": [0.0, 0.0],
                                      "v": {"dim": 2, "data": [1e308, 0.0, 0.0, 1.0]}}))
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(["fit", str(data), "--out", str(tmp_path / "m.json"),
                             "--target-file", str(target), "--reps", "200"])
        assert code == cli.EXIT_OK
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("doc", [
        {"mu": [0.0, 0.0], "v": {"dim": 2, "data": [1.0, 2.0, 2.0, 1.0]}},
        {"mu": [0.0, 0.0, 0.0], "v": {"dim": 2, "data": [1.0, 0.0, 0.0, 1.0]}},
        {"mu": [0.0, 0.0], "v": {"dim": 2, "data": [1.0, 0.0, 0.0]}},
        {"mu": [], "v": {"dim": 0, "data": []}},
        {"mu": [0.0], "v": {"dim": -1, "data": [1.0]}},
        {"mu": [0.0, 0.0], "v": {"dim": 2, "data": [[1.0, 0.0], [0.0, 1.0]]}},
        [0.0, 0.0],
        "target",
        None,
    ], ids=["indefinite_v", "long_mu", "cut_data", "zero_dim", "negative_dim",
            "nested_data", "list", "string", "null"])
    def test_bad_target_file_exits_schema(self, tmp_path, capsys, doc):
        data = tmp_path / "d.csv"
        write_stream(data, 60, seed=86)
        target = tmp_path / "target.json"
        target.write_text(json.dumps(doc))
        out = tmp_path / "m.json"
        code = cli.main(["fit", str(data), "--out", str(out),
                         "--target-file", str(target), "--reps", "200"])
        assert code == cli.EXIT_SCHEMA
        err = capsys.readouterr().err
        assert err.startswith(f"error: {target}: malformed target document: ")
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("doc, message", [
        ([], "a target must be a JSON object, got []"),
        ({"mu": [0.0, 0.0], "v": 3}, "v must be a JSON object, got 3"),
    ], ids=["list", "v_as_number"])
    def test_mistyped_target_block_names_its_key_path(self, tmp_path, capsys, doc, message):
        data = tmp_path / "d.csv"
        write_stream(data, 60, seed=86)
        target = tmp_path / "target.json"
        target.write_text(json.dumps(doc))
        capsys.readouterr()
        code = cli.main(["fit", str(data), "--out", str(tmp_path / "m.json"),
                         "--target-file", str(target), "--reps", "200"])
        assert code == cli.EXIT_SCHEMA
        assert capsys.readouterr().err == (
            f"error: {target}: malformed target document: {message}\n")

    @pytest.mark.parametrize("mutate", _mistyped(TARGET_FIELDS))
    def test_mistyped_target_field_exits_schema(self, tmp_path, capsys, mutate):
        data = tmp_path / "d.csv"
        write_stream(data, 60, seed=86)
        doc = {"mu": [0.0, 0.0], "v": {"dim": 2, "data": [1.0, 0.0, 0.0, 1.0]}}
        mutate(doc)
        target = tmp_path / "target.json"
        target.write_text(json.dumps(doc))
        out = tmp_path / "m.json"
        capsys.readouterr()
        code = cli.main(["fit", str(data), "--out", str(out),
                         "--target-file", str(target), "--reps", "200"])
        assert code == cli.EXIT_SCHEMA
        err = capsys.readouterr().err
        assert err.startswith(f"error: {target}: malformed target document: ")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_non_finite_target_mean_exits_schema(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        write_stream(data, 60, seed=86)
        target = tmp_path / "target.json"
        target.write_text('{"mu": [Infinity, 0], "v": {"dim": 2, "data": [1, 0, 0, 1]}}')
        out = tmp_path / "m.json"
        code = cli.main(["fit", str(data), "--out", str(out),
                         "--target-file", str(target), "--reps", "200"])
        assert code == cli.EXIT_SCHEMA
        err = capsys.readouterr().err
        assert err == (f"error: {target}: malformed target document: "
                       "target mean has a non-finite entry: [inf, 0.0]\n")
        assert not out.exists()

    def test_target_whose_log_bayes_factor_overflows_exits_degenerate(
            self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        write_stream(data, 60, seed=86)
        target = tmp_path / "target.json"
        target.write_text(json.dumps({"mu": [1e300, 0.0],
                                      "v": {"dim": 2, "data": [1e-300, 0.0, 0.0, 1.0]}}))
        out = tmp_path / "m.json"
        code = cli.main(["fit", str(data), "--out", str(out),
                         "--target-file", str(target), "--reps", "200"])
        assert code == cli.EXIT_DEGENERATE
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: log Bayes factor of row \d+ is not finite "
                            r"under the target\n", err)
        assert not out.exists()

    @pytest.mark.parametrize("difference,row", [(False, 10)])
    def test_target_whose_log_bayes_factor_is_too_large_exits_degenerate(
            self, tmp_path, capsys, difference, row):
        # finite, but its square overflows in the AR(1) fit; the row named
        # is the input's
        data = tmp_path / "d.csv"
        assert cli.main(["simulate", "-n", "300", "--seed", "1",
                         "--out", str(data)]) == cli.EXIT_OK
        target = tmp_path / "target.json"
        target.write_text(json.dumps({"mu": [0, 0],
                                      "v": {"dim": 2, "data": [1e-300, 0, 0, 1]}}))
        out = tmp_path / "m.json"
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(["fit", str(data), "--out", str(out), "--target-file",
                             str(target), "--reps", "200"])
        assert code == cli.EXIT_DEGENERATE
        err = capsys.readouterr().err
        assert re.fullmatch(rf"error: log Bayes factor of row {row} is \S+ under the "
                            r"target, too large to fit the AR\(1\) of the Phase I "
                            r"statistic\n", err)
        assert not out.exists()

    def test_target_file_that_is_not_utf8_exits_schema(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        write_stream(data, 60, seed=86)
        target = tmp_path / "target.json"
        target.write_bytes(b'{"mu": [0.0, 0.0], "v": {"dim": 2, "data": [1, 0, 0, 1]}'
                           b', "note": "\xff"}')
        out = tmp_path / "m.json"
        code = cli.main(["fit", str(data), "--out", str(out),
                         "--target-file", str(target), "--reps", "200"])
        assert code == cli.EXIT_SCHEMA
        assert capsys.readouterr().err == f"error: {target}: not UTF-8 text (byte 0xff)\n"
        assert not out.exists()

    @pytest.mark.parametrize("case", ["collinear", "tiny", "huge_value"])
    def test_degenerate_estimated_target_exit_code(self, tmp_path, capsys, case):
        data = sample_mvn(np.zeros(2), SIGMA, 60, make_rng(87))
        if case == "collinear":
            data[:, 1] = 2.0 * data[:, 0] + 1.0
            fault = "Matrix is not positive definite"
        elif case == "tiny":
            data *= 1e-200
            fault = "Matrix is not positive definite"
        else:
            data[7, 0] = 1e300
            fault = "matrix has non-finite entries"
        path = tmp_path / "d.csv"
        cli.write_data(str(path), data)
        out = tmp_path / "m.json"
        code = cli.main(["fit", str(path), "--out", str(out), "--estimate-target",
                         "--reps", "200"])
        assert code == cli.EXIT_DEGENERATE
        assert capsys.readouterr().err == (
            f"error: estimated target covariance: {fault}\n")
        assert not out.exists()

    @pytest.mark.parametrize("arl", ["inf", "nan"])
    def test_non_finite_arl_exit_code(self, fit_artifacts, tmp_path, capsys, arl):
        _, train, _ = fit_artifacts
        out = tmp_path / "model.json"
        code = cli.main(["fit", str(train), "--estimate-target", "--arl", arl,
                         "--reps", "200", "--out", str(out)])
        assert code == cli.EXIT_PARSE
        assert "target ARL must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("arl", ["1e7", "1e307"])
    def test_arl_at_or_above_the_run_length_cap_exit_code(self, fit_artifacts, tmp_path,
                                                          monkeypatch, capsys, arl):
        # refused before any candidate is filtered
        from bfchart import workflow

        _, train, _ = fit_artifacts
        monkeypatch.setattr(workflow, "run_filter", None)
        out = tmp_path / "model.json"
        code = cli.main(["fit", str(train), "--estimate-target", "--arl", arl,
                         "--reps", "200", "--out", str(out)])
        assert code == cli.EXIT_PARSE
        assert capsys.readouterr().err == (
            "error: target ARL must be below the run-length cap 10000000, "
            f"got {float(arl)}\n")
        assert not out.exists()

    def test_parse_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1.0,x\n")
        code = cli.main(["fit", str(bad), "--out", str(tmp_path / "m.json"),
                         "--estimate-target"])
        assert code == cli.EXIT_PARSE

    def test_degenerate_data_exit_code(self, tmp_path, capsys):
        flat = tmp_path / "flat.csv"
        rows = "\n".join("1.0,1.0" for _ in range(60))
        flat.write_text("a,b\n" + rows + "\n")
        code = cli.main(["fit", str(flat), "--out", str(tmp_path / "m.json"),
                         "--estimate-target"])
        assert code == cli.EXIT_DEGENERATE
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("value", [1.0, 0.1, 3.7])
    @pytest.mark.parametrize("target_from", ["estimate", "file"])
    def test_constant_column_exit_code(self, tmp_path, capsys, value, target_from):
        data = sample_mvn(np.zeros(2), SIGMA, 60, make_rng(84))
        data[:, 1] = value
        path = tmp_path / "flat.csv"
        cli.write_data(str(path), data)
        if target_from == "file":
            target = tmp_path / "target.json"
            target.write_text(json.dumps({
                "mu": [0.0, 0.0], "v": {"dim": 2, "data": SIGMA.reshape(-1).tolist()}
            }))
            how = ["--target-file", str(target)]
        else:
            how = ["--estimate-target"]
        code = cli.main(["fit", str(path), "--out", str(tmp_path / "m.json"),
                         *how, "--reps", "200"])
        assert code == cli.EXIT_DEGENERATE
        assert capsys.readouterr().err == (
            f"error: column 1 is constant: every value is {value}\n"
        )
        assert not (tmp_path / "m.json").exists()


class TestMonitorCommand:
    def test_one_warning_line_for_many_runs(self, fit_artifacts, tmp_path, capsys):
        _, _, model_path = fit_artifacts
        stream = tmp_path / "stream.csv"
        write_stream(stream, 3000, seed=93)
        report = tmp_path / "report.json"
        code = cli.main(["monitor", str(stream), "--model", str(model_path),
                         "--tracking", "--out", str(report)])
        assert code in (cli.EXIT_OK, cli.EXIT_SIGNAL)
        runs = json.loads(report.read_text())["warnings"]
        assert len(runs) > 10
        lines = capsys.readouterr().out.splitlines()
        assert [line for line in lines if line.startswith("warning:")] == [
            f"warning: {len(runs)} run(s) of 8 or more EWMA values on one side "
            f"of the center, first: {runs[0]}"
        ]
        assert len(lines) == 2

    def test_in_control_stream_no_signal(self, fit_artifacts, tmp_path, capsys):
        _, _, model_path = fit_artifacts
        stream = tmp_path / "stream.csv"
        write_stream(stream, 40, seed=84)
        report = tmp_path / "report.json"
        code = cli.main(["monitor", str(stream), "--model", str(model_path),
                         "--out", str(report)])
        assert code == cli.EXIT_OK
        doc = json.loads(report.read_text())
        assert doc["signals"] == []
        assert doc["kind"] == "bfchart-report"
        assert "no signals" in capsys.readouterr().out

    def test_shifted_stream_signals(self, fit_artifacts, tmp_path, capsys):
        _, _, model_path = fit_artifacts
        stream = tmp_path / "shifted.csv"
        write_stream(stream, 60, seed=85, shift=6.0)
        report = tmp_path / "report.json"
        plot = tmp_path / "chart.svg"
        code = cli.main(["monitor", str(stream), "--model", str(model_path),
                         "--out", str(report), "--plot", str(plot)])
        assert code == cli.EXIT_SIGNAL
        doc = json.loads(report.read_text())
        assert doc["signals"]
        assert doc["model_sha256"] == hashlib.sha256(model_path.read_bytes()).hexdigest()
        svg_text = plot.read_text()
        assert svg_text.startswith("<svg")
        assert "polyline" in svg_text
        assert "signal(s)" in capsys.readouterr().out

    def test_rerun_is_byte_identical(self, fit_artifacts, tmp_path):
        _, _, model_path = fit_artifacts
        stream = tmp_path / "stream.csv"
        write_stream(stream, 30, seed=86)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            cli.main(["monitor", str(stream), "--model", str(model_path),
                      "--out", str(out)])
        assert a.read_bytes() == b.read_bytes()

    def test_tracking_flag_changes_report(self, fit_artifacts, tmp_path):
        _, _, model_path = fit_artifacts
        stream = tmp_path / "stream.csv"
        write_stream(stream, 30, seed=87)
        frozen, tracking = tmp_path / "f.json", tmp_path / "t.json"
        cli.main(["monitor", str(stream), "--model", str(model_path),
                  "--out", str(frozen)])
        cli.main(["monitor", str(stream), "--model", str(model_path),
                  "--out", str(tracking), "--tracking"])
        assert (json.loads(frozen.read_text())["lbf"]
                != json.loads(tracking.read_text())["lbf"])

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    def test_non_finite_lbf_fails_loudly(self, fit_artifacts, tmp_path, capsys):
        # a finite but huge row overflows the frozen LBF to NaN, which would
        # make every later EWMA value NaN and hide all signals; both modes
        # refuse the stream instead
        _, _, model_path = fit_artifacts
        data = sample_mvn(np.zeros(2), SIGMA, 30, make_rng(95))
        data[5] = 1e200
        stream, report = tmp_path / "stream.csv", tmp_path / "report.json"
        cli.write_data(str(stream), data)
        code = cli.main(["monitor", str(stream), "--model", str(model_path),
                         "--out", str(report)])
        assert code == cli.EXIT_PARSE
        assert capsys.readouterr().err == (
            "error: log Bayes factor is not finite at row 5\n")
        assert not report.exists()
        assert cli.main(["monitor", str(stream), "--model", str(model_path),
                         "--tracking"]) == cli.EXIT_PARSE

    def test_tracking_names_the_overflowing_row(self, fit_artifacts, tmp_path, capsys):
        # the row overflows tracking mode's covariance estimate; the error
        # names the data row, not the filter time, and numpy warns nothing
        _, _, model_path = fit_artifacts
        data = sample_mvn(np.zeros(2), SIGMA, 30, make_rng(95))
        data[5] = 1e200
        stream = tmp_path / "stream.csv"
        cli.write_data(str(stream), data)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(["monitor", str(stream), "--model", str(model_path),
                             "--tracking"])
        assert code == cli.EXIT_PARSE
        assert capsys.readouterr().err == (
            "error: row 5 overflows the innovation covariance estimate, "
            "so no log Bayes factor from there on is finite\n")

    def test_signal_line_stays_short(self, fit_artifacts, tmp_path, capsys):
        # a long shifted stream flags most of its rows; stdout gives their
        # count and the first and last one, report.json lists them all
        _, _, model_path = fit_artifacts
        stream, report = tmp_path / "long.csv", tmp_path / "report.json"
        data = sample_mvn(np.zeros(2), SIGMA, 10**5, make_rng(88))
        data[1000:, 0] += 3.0
        cli.write_data(str(stream), data)
        code = cli.main(["monitor", str(stream), "--model", str(model_path),
                         "--out", str(report)])
        assert code == cli.EXIT_SIGNAL
        signals = json.loads(report.read_text())["signals"]
        assert len(signals) > 9 * 10**4 and 0 < signals[0] < signals[-1]
        out = capsys.readouterr().out
        assert out.splitlines()[0] == (
            f"{len(signals)} signal(s), first at t={signals[0]}, last at t={signals[-1]}")
        assert len(out) < 300

    def test_corrupt_model_schema_exit(self, fit_artifacts, tmp_path, capsys):
        _, _, model_path = fit_artifacts
        broken = tmp_path / "broken.json"
        doc = json.loads(model_path.read_text())
        doc["kind"] = "not-a-model"
        broken.write_text(json.dumps(doc))
        stream = tmp_path / "stream.csv"
        write_stream(stream, 30, seed=88)
        code = cli.main(["monitor", str(stream), "--model", str(broken)])
        assert code == cli.EXIT_SCHEMA
        assert "error:" in capsys.readouterr().err

    def test_model_that_is_not_utf8_exits_schema(self, fit_artifacts, tmp_path, capsys):
        _, train, model_path = fit_artifacts
        broken = tmp_path / "latin1.json"
        broken.write_bytes(model_path.read_bytes().replace(b'"kind"', b'"k\xe9ind"'))
        code = cli.main(["monitor", str(train), "--model", str(broken)])
        assert code == cli.EXIT_SCHEMA
        assert capsys.readouterr().err == f"error: {broken}: not UTF-8 text (byte 0xe9)\n"

    def test_hash_names_the_bytes_that_were_read(self, fit_artifacts, tmp_path,
                                                 monkeypatch):
        # the model file changes after it was read: the report's hash is
        # still that of the model it was scored against
        _, train, model_path = fit_artifacts
        model = tmp_path / "model.json"
        original = model_path.read_bytes()
        model.write_bytes(original)
        load = cli.workflow.FittedModel.from_dict

        def load_then_overwrite(doc):
            model.write_bytes(original + b"\n")
            return load(doc)

        monkeypatch.setattr(cli.workflow.FittedModel, "from_dict", load_then_overwrite)
        report = tmp_path / "report.json"
        code = cli.main(["monitor", str(train), "--model", str(model),
                         "--out", str(report)])
        assert code in (cli.EXIT_OK, cli.EXIT_SIGNAL)
        doc = json.loads(report.read_text())
        assert doc["model_sha256"] == hashlib.sha256(original).hexdigest()

    def test_invalid_json_schema_exit(self, fit_artifacts, tmp_path):
        _, _, model_path = fit_artifacts
        mangled = tmp_path / "mangled.json"
        mangled.write_text("{not json")
        stream = tmp_path / "stream.csv"
        write_stream(stream, 30, seed=89)
        code = cli.main(["monitor", str(stream), "--model", str(mangled)])
        assert code == cli.EXIT_SCHEMA


UNWRITABLE = "/nonexistent-bfchart-dir/out"


@pytest.mark.parametrize("argv", [
    ["fit", "{train}", "--estimate-target", "--reps", "200", "--out", UNWRITABLE],
    ["monitor", "{train}", "--model", "{model}", "--out", UNWRITABLE],
    ["monitor", "{train}", "--model", "{model}", "--plot", UNWRITABLE],
    ["monitor", "{train}", "--model", "{model}", "--tracking", "--out", UNWRITABLE],
    ["calibrate", "--lambda", "1.0", "--grid-phi", "0.0", "--reps", "1000",
     "--out", UNWRITABLE],
    ["simulate", "-n", "20", "--out", UNWRITABLE],
    ["simulate", "--dwr", "-n", "20", "--out", UNWRITABLE],
    ["simulate", "--scenario", "all", "--lbf", "-n", "20", "--out-dir", UNWRITABLE],
])
def test_unwritable_output_exits_parse(fit_artifacts, capsys, argv):
    _, train, model = fit_artifacts
    argv = [a.format(train=train, model=model) for a in argv]
    assert cli.main(argv) == cli.EXIT_PARSE
    err = capsys.readouterr().err
    assert err.startswith(f"error: {UNWRITABLE}") and err.count("\n") == 1
    assert "No such file or directory" in err


@pytest.mark.parametrize("argv", [
    ["fit", "{train}", "--estimate-target", "--reps", "200", "--seed", "-2",
     "--out", "{out}"],
    ["calibrate", "--lambda", "0.05", "--seed", "-1", "--reps", "100",
     "--grid-phi", "0.1", "--out", "{out}"],
    ["simulate", "--seed", "-1", "-n", "20", "--out", "{out}"],
], ids=["fit", "calibrate", "simulate"])
def test_negative_seed_exits_parse(fit_artifacts, tmp_path, capsys, argv):
    _, train, _ = fit_artifacts
    out = tmp_path / "out"
    assert cli.main([a.format(train=train, out=out) for a in argv]) == cli.EXIT_PARSE
    errors = [line for line in capsys.readouterr().err.splitlines()
              if not line.startswith("warning: ")]
    seed = argv[argv.index("--seed") + 1]
    assert errors == [f"error: seed must be a non-negative integer, got {seed}"]
    assert not out.exists()


def test_output_path_that_is_a_directory_exits_parse(tmp_path, capsys):
    assert cli.main(["simulate", "-n", "20", "--out", str(tmp_path)]) == cli.EXIT_PARSE
    assert capsys.readouterr().err.startswith(f"error: {tmp_path}: ")


@pytest.mark.parametrize("argv,message", [
    (["monitor", "{train}", "--model", "{model}", "--out", ""], "'': No such file"),
    (["monitor", "{train}", "--model", "{model}", "--plot", ""], "'': No such file"),
    (["calibrate", "--grid-lambda", ""], "empty numeric list ''"),
    (["calibrate", "--lambda", "0.05", "--grid-phi", ""], "empty numeric list ''"),
    (["calibrate", "--lambda", "0.05", "--grid-phi", "0.1", "--reps", "1000", "--out", ""],
     "'': No such file"),
    (["simulate", "--scenario", "all", "--lbf", "-n", "20", "--out-dir", ""],
     "'': No such file"),
], ids=["monitor_out", "monitor_plot", "calibrate_grid_lambda", "calibrate_grid_phi",
        "calibrate_out", "simulate_out_dir"])
def test_empty_value_is_used_not_read_as_absent(fit_artifacts, tmp_path, monkeypatch,
                                                capsys, argv, message):
    # an empty path names no file, and an empty grid no value; neither
    # falls back to the flag's absence
    _, train, model = fit_artifacts
    monkeypatch.chdir(tmp_path)
    assert cli.main([a.format(train=train, model=model) for a in argv]) == cli.EXIT_PARSE
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: {message}") and err.count("\n") == 1, err
    assert list(tmp_path.iterdir()) == []


def _cut_m_opt(doc):
    doc["m_opt"] = doc["m_opt"][:1]


def _one_by_one_s_opt(doc):
    doc["s_opt"] = {"dim": 1, "data": [1.0]}


def _long_target_mean(doc):
    doc["target"]["mu"] = [0.0, 0.0, 0.0]


def _delta_out_of_range(doc):
    doc["delta"] = 5


def _negative_p_star(doc):
    doc["p_star"] = -0.5


def _p_star_of_another_delta(doc):
    doc["p_star"] *= 1.0 + 1e-9


def _indefinite_s_opt(doc):
    doc["s_opt"]["data"] = [1.0, 2.0, 2.0, 1.0]


def _no_phase1_rows(doc):
    doc["n_phase1"] = 0


def _nan_in_m_opt(doc):
    doc["m_opt"][0] = float("nan")


def _lbf_offset_off_the_ar_mean(doc):
    doc["lbf_offset"] += 0.1


def _fit_off_the_grid(doc):
    doc["fit"]["msse"][0] += 0.1


def _grid_without_delta(doc):
    doc["grid"] = [g for g in doc["grid"] if g["delta"] != doc["delta"]]


def _repeated_grid_delta(doc):
    doc["grid"].append(dict(doc["grid"][0]))


def _unselected_grid_entry(doc):
    """A grid entry other than the selected delta's, which no output reads."""
    return next(g for g in doc["grid"] if g["delta"] != doc["delta"])


def _short_grid_msse(doc):
    _unselected_grid_entry(doc)["msse"] = [1.0]


def _empty_grid_mae(doc):
    _unselected_grid_entry(doc)["mae"] = []


def _negative_grid_n(doc):
    _unselected_grid_entry(doc)["n"] = -3


def _tripled_sigma_z(doc):
    doc["chart"]["sigma_z"] *= 3.0


def _mu_z_off_zero(doc):
    doc["chart"]["mu_z"] = 0.5 * doc["chart"]["sigma_z"]


def _another_prior_scale(doc):
    doc["prior_scale"] = 1.0


def _warmup_as_bool(doc):
    # False would pass as 0: the other fields agree with a warm-up of 0
    doc["warmup"] = False
    doc["n_phase1"] = len(doc["phase1_z"])


def _negative_warmup(doc):
    # phase1_z padded so that it still holds n_phase1 - warmup values
    doc["phase1_z"] = [0.0] * (doc["warmup"] + 5) + doc["phase1_z"]
    doc["warmup"] = -5


def _warmup_at_n_phase1(doc):
    doc["warmup"] = doc["n_phase1"]
    doc["phase1_z"] = []


def _huge_warmup(doc):
    doc["warmup"] = 10**9


def _cut_phase1_z(doc):
    doc["phase1_z"] = doc["phase1_z"][:-1]


def _huge_s_opt_variance(doc):
    # finite and positive definite, but the running sum tracking resumes
    # from, s_opt * n_phase1, overflows
    doc["s_opt"]["data"][0] = 1e308


#: each block of model.json that is an object or a list of objects, set to
#: a value of another JSON type: its key path, the value and the kind named
MISTYPED_BLOCKS = {
    "s_opt_as_number": (("s_opt",), 5, "object"),
    "ar_as_list": (("ar",), [1], "object"),
    "grid_as_number": (("grid",), 3, "list of objects"),
    "grid_entry_as_number": (("grid", 1), 5, "object"),
    "chart_as_number": (("chart",), 2, "object"),
    "target_as_list": (("target",), [], "object"),
    "target_v_as_list": (("target", "v"), [1], "object"),
    "fit_as_text": (("fit",), "x", "object"),
}


def _mistyped_blocks():
    """A pytest param of a mutator for each of MISTYPED_BLOCKS."""
    def mutator(path, value):
        def mutate(doc):
            _field(doc, path[:-1])[path[-1]] = value
        return mutate

    return [pytest.param(mutator(path, value), id=name)
            for name, (path, value, _) in MISTYPED_BLOCKS.items()]


class TestModelValidation:
    """Every inconsistent or mistyped model file exits 4 before any scoring."""

    @pytest.mark.parametrize("tracking", [False, True])
    @pytest.mark.parametrize("mutate", [
        _cut_m_opt, _one_by_one_s_opt, _long_target_mean, _delta_out_of_range,
        _negative_p_star, _p_star_of_another_delta, _indefinite_s_opt,
        _no_phase1_rows, _nan_in_m_opt, _lbf_offset_off_the_ar_mean,
        _tripled_sigma_z, _mu_z_off_zero, _another_prior_scale, _warmup_as_bool,
        _negative_warmup, _huge_warmup,
        _warmup_at_n_phase1, _cut_phase1_z, _huge_s_opt_variance, _fit_off_the_grid,
        _grid_without_delta, _repeated_grid_delta, _short_grid_msse, _empty_grid_mae,
        _negative_grid_n, *_mistyped(MODEL_FIELDS), *_mistyped_blocks(),
    ], ids=lambda f: f.__name__.strip("_"))
    def test_inconsistent_model_exits_schema(self, positive_artifacts, tmp_path, capsys,
                                             mutate, tracking):
        model_path, stream = positive_artifacts
        doc = json.loads(model_path.read_text())
        mutate(doc)
        broken = tmp_path / "broken.json"
        broken.write_text(json.dumps(doc))
        args = ["monitor", str(stream), "--model", str(broken)]
        capsys.readouterr()
        code = cli.main(args + (["--tracking"] if tracking else []))
        assert code == cli.EXIT_SCHEMA
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err

    @pytest.mark.parametrize("tracking", [False, True])
    def test_schema_version_1_model_exits_schema(self, positive_artifacts, tmp_path, capsys,
                                                 tracking):
        # a model written before the recenter and difference fields went away
        model_path, stream = positive_artifacts
        doc = json.loads(model_path.read_text())
        doc.update(schema_version=1, recenter=False, difference=False)
        old = tmp_path / "old.json"
        old.write_text(json.dumps(doc))
        capsys.readouterr()
        code = cli.main(["monitor", str(stream), "--model", str(old)]
                        + ["--tracking"] * tracking)
        assert code == cli.EXIT_SCHEMA
        assert capsys.readouterr() == ("", "error: unsupported schema version 1\n")

    @pytest.mark.parametrize("name", MODEL_FIELDS)
    def test_mistyped_value_names_its_key_path(self, positive_artifacts, tmp_path, capsys,
                                               name):
        model_path, stream = positive_artifacts
        path, _ = MODEL_FIELDS[name]
        doc = json.loads(model_path.read_text())
        _field(doc, path[:-1])[path[-1]] = "text"
        broken = tmp_path / "broken.json"
        broken.write_text(json.dumps(doc))
        capsys.readouterr()
        assert cli.main(["monitor", str(stream), "--model", str(broken)]) == cli.EXIT_SCHEMA
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f" {_key_path(path)} must be a " in err, err

    @pytest.mark.parametrize("name", MISTYPED_BLOCKS)
    def test_mistyped_block_names_its_key_path(self, positive_artifacts, tmp_path, capsys,
                                               name):
        model_path, stream = positive_artifacts
        path, value, kind = MISTYPED_BLOCKS[name]
        doc = json.loads(model_path.read_text())
        _field(doc, path[:-1])[path[-1]] = value
        broken = tmp_path / "broken.json"
        broken.write_text(json.dumps(doc))
        capsys.readouterr()
        assert cli.main(["monitor", str(stream), "--model", str(broken)]) == cli.EXIT_SCHEMA
        where = path[0] + "".join(f"[{s}]" if isinstance(s, int) else f".{s}" for s in path[1:])
        assert capsys.readouterr().err == (
            f"error: malformed model document: {where} must be a JSON {kind}, got {value!r}\n")

    def test_fields_are_every_value_of_the_model(self, positive_artifacts):
        doc = json.loads(positive_artifacts[0].read_text())
        del doc["kind"], doc["metadata"]
        kinds = {bool: "flag", int: "count", float: "number"}
        values = {path: kinds[type(_field(doc, path))] for path in _leaf_paths(doc)
                  if not isinstance(_field(doc, path), (dict, list))}
        assert values == dict(MODEL_FIELDS.values())


def _import_all_modules():
    for info in pkgutil.iter_modules(bfchart.__path__):
        importlib.import_module(f"bfchart.{info.name}")


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


_import_all_modules()

#: the documented exit code of every library error raised out of a command;
#: a new BfchartError subclass fails below until it is given one here
EXIT_CODES = {
    cli.ParseError: cli.EXIT_PARSE,
    exceptions.DegenerateFit: cli.EXIT_DEGENERATE,
    exceptions.SchemaMismatch: cli.EXIT_SCHEMA,
    exceptions.BracketFailure: cli.EXIT_CALIBRATION,
    # every other library error is a usage error
    exceptions.NotPositiveDefinite: cli.EXIT_PARSE,
    exceptions.DimensionMismatch: cli.EXIT_PARSE,
    exceptions.InvalidConfig: cli.EXIT_PARSE,
    exceptions.CovarianceNotReady: cli.EXIT_PARSE,
    exceptions.TooShort: cli.EXIT_PARSE,
    exceptions.NonStationary: cli.EXIT_PARSE,
    exceptions.ZeroVariance: cli.EXIT_PARSE,
    exceptions.EmptyInput: cli.EXIT_PARSE,
    exceptions.NonFiniteScore: cli.EXIT_PARSE,
}


class TestExitCodeTable:
    @pytest.mark.parametrize(
        "error", sorted(set(_subclasses(exceptions.BfchartError)), key=str),
        ids=lambda cls: cls.__name__,
    )
    def test_documented_code_and_no_traceback(self, monkeypatch, capsys, error):
        assert error in EXIT_CODES, f"{error.__name__} has no documented exit code"

        def command(args):
            raise error("what went wrong")

        monkeypatch.setattr(cli, "cmd_calibrate", command)
        assert cli.main(["calibrate", "--lambda", "0.1"]) == EXIT_CODES[error]
        captured = capsys.readouterr()
        assert captured.err == "error: what went wrong\n"
        assert captured.out == ""

    def test_table_names_only_library_errors(self):
        assert set(EXIT_CODES) == set(_subclasses(exceptions.BfchartError))


class TestOneParserPerProcess:
    def test_calls_in_turn_match_calls_on_a_fresh_parser(self, tmp_path, capsys):
        # the parser is built once and serves every later call; each call
        # must end as it does on a parser built for it alone
        train, stream = tmp_path / "train.csv", tmp_path / "stream.csv"
        write_stream(train, 120, seed=96)
        write_stream(stream, 60, seed=97, shift=1.5)
        outputs = [tmp_path / name for name in ("model.json", "grid.csv", "report.json")]
        model, grid, report = map(str, outputs)
        calls = [
            ["fit", str(train)],
            ["calibrate", "--lambda", "0.05", "--phi", "1"],
            ["fit", str(train), "--out", model, "--estimate-target",
             "--delta-grid", "0.8,0.9", "--reps", "200", "--seed", "5"],
            ["calibrate", "--reps", "400", "--seed", "2",
             "--grid-lambda", "0.1,0.2", "--out", grid],
            ["calibrate", "--lambda", "0.2", "--phi", "0.3", "--reps", "1000"],
            ["monitor", str(stream), "--model", model, "--out", report],
            ["monitor", str(stream), "--model", model, "--tracking"],
        ]

        def run(argv):
            try:
                code = cli.main(argv)
            except SystemExit as stop:
                code = stop.code
            out, err = capsys.readouterr()
            return code, out, err, {p.name: p.read_bytes() for p in outputs if p.exists()}

        capsys.readouterr()
        cli._parser.cache_clear()
        parser = cli._parser()
        in_turn = [run(argv) for argv in calls]
        assert cli._parser() is parser
        for path in outputs:
            path.unlink()
        fresh = []
        for argv in calls:
            cli._parser.cache_clear()
            fresh.append(run(argv))
        assert in_turn == fresh
        assert [code for code, *_ in in_turn] == [2, 2, 0, 0, 0, 10, 10]
        assert "--out" in in_turn[0][2] and "modulus" in in_turn[1][2]


def _leaf_paths(value, path=()):
    """Key paths to every field of a JSON document: each value, and the
    first element of each list."""
    if path:
        yield path
    if isinstance(value, dict):
        for key in sorted(value):
            yield from _leaf_paths(value[key], path + (key,))
    elif isinstance(value, list) and value:
        yield from _leaf_paths(value[0], path + (0,))


#: changes of one field: other JSON types, non-finite, huge, negative and
#: fractional numbers, and a list one element shorter or longer
FUZZ_CHANGES = [None, True, False, "1", "x", [], {}, [1.0], float("nan"),
                float("inf"), -float("inf"), 1e308, -1e308, 10**400, -10**400,
                -5, 0, 1, 2.5, 1e-320, "shorter", "longer"]
#: changes of one field of a target file: those of a model field, and a
#: variance so small that the log Bayes factor is finite but its square is not
FUZZ_TARGET_CHANGES = FUZZ_CHANGES + [1e-300]
#: replacement text for one CSV cell
FUZZ_CELLS = ["nan", "inf", "-inf", "1e308", "-1e308", "1e300", "1e-320", "0",
              "-5", "x", "", "1,2"]
#: exit codes a command may end with: ok, usage, degenerate fit, schema, signal
DOCUMENTED_EXITS = {cli.EXIT_OK, cli.EXIT_PARSE, cli.EXIT_DEGENERATE,
                    cli.EXIT_SCHEMA, cli.EXIT_SIGNAL}


def _mutate_field(doc, path, change):
    """Apply ``change`` to the field at ``path``: a new value, or "shorter"
    and "longer" for a list one element shorter or longer."""
    *parents, key = path
    owner = doc
    for step in parents:
        owner = owner[step]
    value = owner[key]
    if change == "shorter":
        owner[key] = value[:-1] if isinstance(value, list) else []
    elif change == "longer":
        owner[key] = (value + value[-1:]) if isinstance(value, list) and value else [value]
    else:
        owner[key] = change


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory):
    """A small fitted model and the CSV text of a Phase I and a Phase II stream."""
    root = tmp_path_factory.mktemp("fuzz")
    train, stream = root / "train.csv", root / "stream.csv"
    write_stream(train, 40, seed=93)
    write_stream(stream, 20, seed=94, shift=1.0)
    model = root / "model.json"
    assert cli.main(["fit", str(train), "--out", str(model), "--estimate-target",
                     "--delta-grid", "0.9", "--reps", "200"]) == cli.EXIT_OK
    doc = json.loads(model.read_text())
    return root, doc, train.read_text(), stream.read_text()


def _run_commands(calls, capsys):
    """Run each CLI call; each ends in a documented exit code, and an error
    exit in a one-line message."""
    for argv in calls:
        capsys.readouterr()
        code = cli.main(argv)
        err = capsys.readouterr().err
        assert code in DOCUMENTED_EXITS, (argv, err)
        if code in (cli.EXIT_OK, cli.EXIT_SIGNAL):
            assert "error" not in err
        else:
            assert err.startswith("error: ") and err.count("\n") == 1, err


class TestFailLoudFuzz:
    """One changed model field or CSV cell ends in a documented exit code
    with a one-line message, never in a traceback."""

    @settings(max_examples=60, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_one_change_exits_with_a_documented_code(self, fuzz_inputs, capsys, data):
        root, model_doc, train_text, stream_text = fuzz_inputs
        model, stream = root / "m.json", root / "s.csv"
        # one changed model field, monitored frozen and tracking
        doc = json.loads(json.dumps(model_doc))
        path = data.draw(st.sampled_from(list(_leaf_paths(doc))))
        _mutate_field(doc, path, data.draw(st.sampled_from(FUZZ_CHANGES)))
        model.write_text(json.dumps(doc))
        stream.write_text(stream_text)
        monitor = ["monitor", str(stream), "--model", str(model)]
        _run_commands([monitor, monitor + ["--tracking"]], capsys)
        # one changed cell of the monitored or of the Phase I data
        command = data.draw(st.sampled_from(["monitor", "fit"]))
        lines = (stream_text if command == "monitor" else train_text).splitlines()
        row = data.draw(st.integers(0, len(lines) - 1))
        cells = lines[row].split(",")
        col = data.draw(st.integers(0, len(cells) - 1))
        change = data.draw(st.sampled_from(FUZZ_CELLS + ["drop"]))
        if change == "drop":
            del cells[col]
        else:
            cells[col] = change
        lines[row] = ",".join(cells)
        stream.write_text("\n".join(lines) + "\n")
        if command == "monitor":
            model.write_text(json.dumps(model_doc))
            calls = [monitor, monitor + ["--tracking"]]
        else:
            calls = [["fit", str(stream), "--out", str(root / "refit.json"),
                      "--estimate-target", "--delta-grid", "0.9", "--reps", "200"]]
        _run_commands(calls, capsys)

    def test_every_target_change_exits_with_a_documented_code(self, fuzz_inputs, capsys):
        root, _, _, _ = fuzz_inputs
        target = root / "target.json"
        good = {"mu": [0.0, 0.0], "v": {"dim": 2, "data": [1.0, 0.0, 0.0, 1.0]}}
        fit = ["fit", str(root / "train.csv"), "--out", str(root / "refit.json"),
               "--target-file", str(target), "--delta-grid", "0.9", "--reps", "200"]
        for path in _leaf_paths(good):
            for change in FUZZ_TARGET_CHANGES:
                doc = json.loads(json.dumps(good))
                _mutate_field(doc, path, change)
                target.write_text(json.dumps(doc))
                _run_commands([fit], capsys)


def _readme_cli_examples():
    """The argv of each ``bfchart ...`` line of the sh block under README's
    ``## CLI`` heading, continuation lines joined."""
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## CLI\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("bfchart ")]


def test_readme_cli_examples_run(tmp_path, monkeypatch, capsys):
    # each example in turn, in one directory, as a reader would paste them
    examples = _readme_cli_examples()
    assert {argv[0] for argv in examples} == {"simulate", "fit", "monitor", "calibrate"}
    monkeypatch.chdir(tmp_path)
    for argv in examples:
        want = cli.EXIT_SIGNAL if argv[0] == "monitor" else cli.EXIT_OK
        assert cli.main(argv) == want, (argv, capsys.readouterr().err)

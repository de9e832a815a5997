"""The numpy text kernel against the per-value text it stands for.

Every cell function must give, byte for byte, what formatting each value
alone gives: ``repr`` of a float, ``json.dumps`` of a float or bool, and
``str`` of an int.  The kernel hands the values it cannot decide to exactly
those references, so a separate guard checks that it decides nearly all
ordinary values itself.
"""

import json
import math
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bfchart import _rows, _threads
from bfchart._rows import (
    CHUNK_ROWS,
    cells,
    float_cells,
    float_rows,
    format_rows,
    int_cells,
    join_rows,
)


def lines(cells):
    """The text of each cell, one a line."""
    return join_rows(["", ""], [cells], "\n")


def reference_lines(values, reference):
    return "".join(reference(v) + "\n" for v in values.tolist())


def assert_same_text(values, cells_of, reference):
    values = np.asarray(values)
    got = lines(cells_of(values))
    want = reference_lines(values, reference)
    if got != want:
        pairs = zip(want.split("\n"), got.split("\n"))
        bad = [(w, g) for w, g in pairs if w != g]
        raise AssertionError(f"{len(bad)} of {len(values)} differ, first: {bad[:5]}")


FLOAT_KERNELS = [
    pytest.param(float_cells, repr, id="repr"),
    pytest.param(lambda x: float_cells(x, json.dumps), json.dumps, id="json"),
]


def neighbours(values):
    """Each value and its one-ulp neighbours on both sides, both signs."""
    v = np.asarray(values, dtype=float)
    near = np.concatenate([v, np.nextafter(v, 0.0), np.nextafter(v, np.inf)])
    return np.concatenate([near, -near])


def edge_values():
    powers_of_2 = 2.0 ** np.arange(-1074, 1024)
    powers_of_10 = np.array([float(f"1e{e}") for e in range(-323, 309)])
    # k/8 is exact, and with an odd k its decimal ends in 5
    ties = np.arange(1, 4000, 2) / 8.0
    layout = [1e-4, 1e-5, 9.999999999999999e-05, 1e16, 9999999999999998.0,
              1e17, 0.1, 0.2, 0.3, 1 / 3, 2 / 3, 2.675, 1.005]
    special = [0.0, 5e-324, 1.7976931348623157e308, np.nan, np.inf, -np.inf]
    return np.concatenate([
        neighbours(powers_of_2), neighbours(powers_of_10), neighbours(ties),
        neighbours(layout), special, [-v for v in special],
    ])


def bit_patterns(n, seed):
    """Finite doubles with a uniform biased exponent (every binade,
    subnormals included), a uniform significand and a random sign."""
    rng = np.random.default_rng(seed)
    exponent = rng.integers(0, 2047, n, dtype=np.uint64)
    significand = rng.integers(0, 2**52, n, dtype=np.uint64)
    sign = rng.integers(0, 2, n, dtype=np.uint64)
    bits = (sign << np.uint64(63)) | (exponent << np.uint64(52)) | significand
    return bits.view(np.float64)


class TestFloatText:
    @pytest.mark.parametrize("cells_of,reference", FLOAT_KERNELS)
    def test_edge_values(self, cells_of, reference):
        assert_same_text(edge_values(), cells_of, reference)

    @pytest.mark.parametrize("cells_of,reference", FLOAT_KERNELS)
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(values=st.lists(st.floats(), min_size=1, max_size=40))
    def test_hypothesis_floats(self, cells_of, reference, values):
        assert_same_text(np.array(values, dtype=float), cells_of, reference)

    def test_a_million_bit_patterns_over_every_binade(self):
        # finite values, whose json text is their repr
        for seed in range(16):
            assert_same_text(bit_patterns(65536, seed), float_cells, repr)

    @pytest.mark.parametrize("cells_of,reference", FLOAT_KERNELS)
    def test_strided_input(self, cells_of, reference):
        data = np.random.default_rng(7).standard_normal((500, 3))
        assert_same_text(data[:, 1], cells_of, reference)

    def test_values_out_of_range_go_to_the_reference(self):
        # zero, non-finite, |x| outside [1e-6, 1e17) and powers of two, among
        # values the kernel decides itself
        out = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 9e-7, 1e17, 1e300, 0.25, -2.0]
        inside = [1.5, -3.75, 12.5, 0.3]
        values = np.array([v for pair in zip(out, inside * 3) for v in pair])
        calls = []

        def counted(v):
            calls.append(v)
            return json.dumps(v)

        assert lines(float_cells(values, counted)) == reference_lines(values, json.dumps)
        assert np.array(calls).tobytes() == np.array(out).tobytes()


def reference_calls(values):
    """How many values the float kernel handed to its reference."""
    calls = []

    def counted(reference):
        def call(v):
            calls.append(v)
            return reference(v)
        return call

    assert_same_text(values, lambda x: float_cells(x, counted(repr)), repr)
    return len(calls)


class TestFallbackIsRare:
    """A slide of ordinary values onto the per-value path fails here."""

    SAMPLES = {
        "normal": lambda rng, n: rng.standard_normal(n),
        "log_uniform": lambda rng, n: 10.0 ** rng.uniform(-5.0, 15.0, n),
    }

    @pytest.mark.parametrize("name", ["normal", "log_uniform"])
    def test_repr(self, name):
        values = self.SAMPLES[name](np.random.default_rng(11), 100_000)
        assert reference_calls(values) < 100


class TestIntAndBoolText:
    def test_ints(self):
        rng = np.random.default_rng(13)
        values = np.concatenate([
            rng.integers(-(2**63), 2**63 - 1, 10_000, endpoint=True),
            rng.integers(-10**6, 10**6, 10_000),
            [0, 1, -1, 9, 10, 99, 100, 9999, 10**4, 10**17, 10**18 - 1, 10**18,
             -(10**18), 2**63 - 1, -(2**63)],
        ]).astype(np.int64)
        assert_same_text(values, int_cells, str)

    @pytest.mark.parametrize("n", [0, 1, 7])
    def test_small_ranges(self, n):
        assert_same_text(np.arange(n), int_cells, str)

    def test_bools(self):
        values = np.array([True, False, False, True])
        assert_same_text(values, lambda v: cells(v, json.dumps), json.dumps)

    def test_cells_pick_by_dtype(self):
        ints = np.array([3, -12])
        assert lines(cells(ints, json.dumps)) == lines(cells(ints, repr)) == "3\n-12\n"
        floats = np.array([np.nan, -np.inf, 0.5])
        assert lines(cells(floats, json.dumps)) == "NaN\n-Infinity\n0.5\n"
        assert lines(cells(floats, repr)) == "nan\n-inf\n0.5\n"


class TestRows:
    @pytest.mark.parametrize("n", [1, CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1])
    def test_format_rows_joins_rows_and_chunks(self, n):
        rng = np.random.default_rng(14)
        t, x, flag = np.arange(n), rng.standard_normal(n), rng.random(n) < 0.5
        pieces = ["<", "|", "|", ">"]
        text = "".join(format_rows(pieces, ";\n", (t, x, flag), json.dumps))
        want = ";\n".join(
            f"<{a}|{json.dumps(b)}|{json.dumps(c)}>"
            for a, b, c in zip(t.tolist(), x.tolist(), flag.tolist())
        )
        assert text == want

    def test_pieces_may_be_empty_or_not_ascii(self):
        cells = [int_cells(np.array([1, 22])), float_cells(np.array([0.25, -3.5]))]
        assert join_rows(["", "é", ""], cells, "") == "1é0.2522é-3.5"


def reference_rows(pieces, sep, columns, reference):
    """The text format_rows stands for, built a value at a time."""
    text = {bool: json.dumps, int: str, float: reference}
    rows = [
        "".join(p + text[type(v)](v) for p, v in zip(pieces, values)) + pieces[-1]
        for values in zip(*(c.tolist() for c in columns))
    ]
    return sep.join(rows)


#: floats the kernel hands to its reference: non-finite, zero, subnormal,
#: out of its range, or with a power-of-two significand
REFERENCE_FLOATS = [np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, 1e300, 0.5, -2.0, 1024.0]
#: ints of 19 digits or more, which the int kernel hands to str
LONG_INTS = [2**63 - 1, -(2**63), 10**18, -(10**18)]


def chunked_columns(chunks, seed):
    """Columns of ``chunks`` chunks and a few rows, with the values the
    kernels leave to their references in every chunk and on each side of
    every chunk boundary."""
    n = chunks * CHUNK_ROWS + 5
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n) * 10.0 ** rng.integers(-3, 6, n)
    t = rng.integers(-10**6, 10**6, n)
    flag = rng.random(n) < 0.5
    edges = [k * CHUNK_ROWS + d for k in range(1, chunks + 1) for d in (-1, 0)]
    inside = [k * CHUNK_ROWS + 100 + 7 * i for k in range(chunks) for i in range(10)]
    for i, at in enumerate(edges + inside):
        x[at] = REFERENCE_FLOATS[i % len(REFERENCE_FLOATS)]
        t[at] = LONG_INTS[i % len(LONG_INTS)]
    return t, x, flag


@pytest.fixture(params=[1, 2], ids=["inline", "worker"])
def cpus(request, monkeypatch):
    monkeypatch.setattr(_threads, "usable_cpus", lambda: request.param)
    return request.param


class TestRowsOnTheCallingThread:
    """At one and at two usable CPUs the cells of each chunk are made on the
    calling thread, and the text is the per-value text."""

    @pytest.mark.parametrize("reference", [json.dumps, repr], ids=["json", "repr"])
    def test_matches_the_per_value_text(self, cpus, reference):
        columns = chunked_columns(3, 15)
        pieces, sep = ["{", ", ", ": ", "}"], ";\n"
        made_on = set()

        def recorded(v):
            made_on.add(threading.current_thread())
            return reference(v)

        before = threading.enumerate()
        text = "".join(format_rows(pieces, sep, columns, recorded))
        assert text == reference_rows(pieces, sep, columns, reference)
        assert not text.endswith(sep)
        assert made_on == {threading.main_thread()}
        assert threading.enumerate() == before

    @pytest.mark.parametrize("n", [0, 1, CHUNK_ROWS, 2 * CHUNK_ROWS])
    def test_two_chunks_or_fewer_stay_inline(self, cpus, n):
        columns = (np.full(n, np.nan),)
        made_on = set()

        def recorded(v):
            made_on.add(threading.current_thread())
            return json.dumps(v)

        text = "".join(format_rows(["<", ">"], ",", columns, recorded))
        assert text == ",".join(["<NaN>"] * n)
        assert made_on <= {threading.main_thread()}

    def test_pieces_are_chunk_sized(self, cpus):
        columns = chunked_columns(2, 16)
        got = list(format_rows(["", ",", ",", "\n"], "", columns, repr))
        assert len(got) == 3
        assert [g.count("\n") for g in got] == [CHUNK_ROWS, CHUNK_ROWS, 5]

    def test_error_in_a_middle_chunk(self, cpus):
        # the reference fails on chunk 1's NaN only; chunk 0 is written first
        x = np.ones(3 * CHUNK_ROWS)
        x[CHUNK_ROWS + 17] = np.nan

        def failing(v):
            if math.isnan(v):
                raise ValueError("reference failed")
            return repr(v)

        written = []
        before = threading.enumerate()
        with pytest.raises(ValueError, match="reference failed"):
            written.extend(format_rows(["", "\n"], "", (x,), failing))
        assert threading.enumerate() == before
        assert len(written) == 1

    def test_abandoned_output_ends_the_worker(self, cpus):
        x = np.ones(3 * CHUNK_ROWS)
        before = threading.enumerate()
        rows = format_rows(["", "\n"], "", (x,), repr)
        assert next(rows).count("\n") == CHUNK_ROWS
        rows.close()
        assert threading.enumerate() == before


class TestParseKernel:
    """``float_rows`` reads the text the text kernel writes back to the
    same bits, and decides nearly all of it without ``float()``."""

    def test_written_bit_patterns_read_back(self):
        rng = np.random.default_rng(31)
        bits = rng.integers(0, 2**63, (20_000, 2), dtype=np.int64)
        bits[::2] ^= np.int64(-2**63)
        x = np.where(np.isfinite(bits.view(float)), bits.view(float), 0.0)
        body = join_rows(["", ",", ""], [float_cells(x[:, 0]), float_cells(x[:, 1])], "\n")
        assert float_rows(body.encode(), 2).tobytes() == x.tobytes()

    def test_positional_text_needs_no_fallback(self, monkeypatch):
        # every repr between 1e-4 and 1e16 is positional, with at most 17
        # digits; the kernel decides each one itself
        rng = np.random.default_rng(32)
        x = rng.standard_normal(50_000) * 10.0 ** rng.integers(-3, 16, 50_000)
        x = x[(np.abs(x) >= 1e-4) & (np.abs(x) < 1e16)]
        decided = []
        decimals, to_double = _rows._decimals, _rows._to_double

        def read(*args):
            m, to_end, ok = decimals(*args)
            decided.append(ok.all())
            return m, to_end, ok

        def convert(*args):
            value, undecided = to_double(*args)
            decided.append(not undecided.any())
            return value, undecided

        monkeypatch.setattr(_rows, "_decimals", read)
        monkeypatch.setattr(_rows, "_to_double", convert)
        body = lines(float_cells(x)).encode()
        for text in (body, body.replace(b"\n", b"\r\n")):
            assert float_rows(text, 1).ravel().tobytes() == x.tobytes()
        assert decided and all(decided)

    @pytest.mark.parametrize("body, width", [
        (b"", 1), (b"1,2", 1), (b"1\n2,3\n", 2), (b"1,2\n\n", 2), (b' 1\n', 1),
        (b"1\r2\n", 1), (b'"1"\n', 1), (b"1e400\n", 1), (b"-\n", 1),
    ], ids=["empty", "width", "ragged", "blank_line", "blank", "lone_cr", "quote",
            "overflow", "sign"])
    def test_leaves_to_the_loop(self, body, width):
        rows = float_rows(body, width)
        assert rows is None or not np.isfinite(rows).all()

    def test_drops_leading_columns_after_reading_them(self):
        assert float_rows(b"1,2.5\n2,-3\n", 2, 0, 1).tolist() == [[2.5], [-3.0]]
        assert float_rows(b"x,2.5\n", 2, 0, 1) is None
        assert float_rows(b"head\n1,2.5\n", 2, 5).tolist() == [[1.0, 2.5]]

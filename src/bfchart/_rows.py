"""Text of long per-row outputs, built a chunk of rows at a time in numpy.

Every value of a chunk becomes a row of a fixed-width byte matrix, its
cell, whose NUL bytes are the ones its text drops (the keep mask).  A row
of output is the cells of its values between literal pieces, and the kept
bytes of the chunk's matrix, read in order, are its text.  The cells give
exactly the text of the per-value reference: ``repr`` of a float (its
shortest round-trip digits), ``str`` of an int, or ``json.dumps`` of a
bool or non-finite float.

The float kernel decides each value from its exact scaling by a power of
ten and hands any value it cannot decide with certainty (non-finite,
zero, outside the range of exact powers, a power-of-two significand, or
within rounding distance of a tie or of the round-trip bound) to the
per-value reference, whose text is spliced into its row.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Sequence

import numpy as np

from . import _threads

#: rows formatted per matrix
CHUNK_ROWS = 4096

_POW10 = 10 ** np.arange(19, dtype=np.int64)

#: ASCII of 0000 ... 9999, one four-byte word each
_QUADS = (
    np.arange(10000, dtype=np.uint16)[:, None] // np.array([1000, 100, 10, 1], np.uint16)
    % 10 + ord("0")
).astype(np.uint8).view(np.uint32).ravel()

_TRUE_FALSE = np.frombuffer(b"falsetrue\0", np.uint8).reshape(2, 5)

#: |x| range of the shortest-digits kernel: it scales |x| into [1e16, 1e17)
#: by 10**k with 0 <= k <= 22, where 10**k is a double
_FLOAT_LO, _FLOAT_HI = 1e-6, 1e17
_K_MAX = 22
#: a bound far above the rounding error of the round-trip bound (of order
#: 1e-15 in units of the 17th digit), so a decision within it goes to the
#: reference
_MARGIN = 1e-9
_SPLIT = 134217729.0  # 2**27 + 1


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp halves of ``a``, each with at most 26 significant bits."""
    t = a * _SPLIT
    top = t - (t - a)
    return top, a - top


_P = np.array([float(10**k) for k in range(_K_MAX + 1)])
_P_TOP, _P_BOTTOM = _split(_P)


def _scaled_digits(a: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``a * 10**k`` exactly, as an int64 and a fraction in [0, 1], or 0
    and a fraction where it is far outside [1e16, 1e17]."""
    # Dekker's error-free product: a * 10**k == h + l
    b_top, b_bottom = _P_TOP[k], _P_BOTTOM[k]
    h = a * _P[k]
    a_top, a_bottom = _split(a)
    l = ((a_top * b_top - h) + a_top * b_bottom + a_bottom * b_top) + a_bottom * b_bottom
    h = np.where((h >= 1e16) & (h <= 1e17), h, 0.0)
    floor = np.floor(l)
    return h.astype(np.int64) + floor.astype(np.int64), l - floor


def _digits(v: np.ndarray, words: int) -> np.ndarray:
    """ASCII of non-negative int64 values below 10**(4 * words), zero-padded
    to 4 * words digits."""
    out = np.empty((len(v), words), np.uint32)
    for i in range(words - 1, 0, -1):
        v, r = np.divmod(v, 10000)
        out[:, i] = _QUADS[r]
    out[:, 0] = _QUADS[v]
    return out.view(np.uint8)


def _lead_table(least: int) -> np.ndarray:
    """Each four-digit word with its leading zeros NUL, keeping at least
    ``least`` digits."""
    quads = _QUADS.view(np.uint8).reshape(10000, 4).copy()
    values = np.arange(10000, dtype=np.uint16)
    for i in range(4 - least):
        quads[values < 10 ** (3 - i), i] = 0
    return quads.view(np.uint32).ravel()


_NO_LEAD, _ONE_LEAD = _lead_table(0), _lead_table(1)


def _numerals(v: np.ndarray, words: int) -> np.ndarray:
    """ASCII of non-negative int64 values below 10**(4 * words), right-aligned
    and NUL-padded, with at least one digit."""
    out = np.empty((len(v), words), np.uint32)
    lead = _ONE_LEAD
    for i in range(words - 1, -1, -1):
        v, r = np.divmod(v, 10000)
        out[:, i] = np.where(v == 0, lead[r], _QUADS[r])
        lead = _NO_LEAD
    return out.view(np.uint8)


def _words_for(v: np.ndarray) -> int:
    """Four-digit words that hold the largest of non-negative int64 values."""
    top = int(v.max(initial=0))
    return max(1, -(-len(str(top)) // 4))


# The source bytes of a shortest float, as eight words: NUL, "-", ".", "0";
# three zeros and the first digit; the other sixteen digits; the exponent's
# magnitude as four digits; and "e", "+", "-", NUL.
_SRC_WORDS = 8
_NUL, _MINUS, _DOT, _ZERO = 0, 1, 2, 3
_FIRST_DIGIT = 7
_EXP_DIGITS, _E = 25, 28
_FLOAT_WIDTH = 24
#: layouts of each sign: 20 positional (decimal point after digit -3 ... 16)
#: and 4 exponent forms (2 or 3 exponent digits, + or -), by digit count
_FORMS = 24


def _layouts() -> np.ndarray:
    """The source byte of each output byte, for each layout of a shortest
    float as ``repr`` lays it out, NUL where the text is shorter."""
    index = np.zeros((2 * _FORMS * 17, _FLOAT_WIDTH), np.uint8)
    row = 0
    for sign in (_NUL, _MINUS):
        for form in range(_FORMS):
            for ndig in range(1, 18):
                d = list(range(_FIRST_DIGIT, _FIRST_DIGIT + ndig))
                if form >= 20:
                    three, negative = divmod(form - 20, 2)
                    body = d[:1] + ([_DOT] + d[1:] if ndig > 1 else [])
                    body += [_E, _E + 1 + negative]
                    body += list(range(_EXP_DIGITS + 1 - three, _EXP_DIGITS + 3))
                else:
                    point = form - 3
                    if point <= 0:
                        body = [_ZERO, _DOT] + [_ZERO] * -point + d
                    elif point < ndig:
                        body = d[:point] + [_DOT] + d[point:]
                    else:
                        body = d + [_ZERO] * (point - ndig) + [_DOT, _ZERO]
                index[row, :len(body) + 1] = [sign, *body]
                row += 1
    return index


_LAYOUTS = _layouts()
_LAYOUT_WIDTHS = _FLOAT_WIDTH - np.argmax(_LAYOUTS[:, ::-1] != _NUL, axis=1)
_HEAD_WORD = np.frombuffer(b"\0-.0", np.uint32)[0]
_TAIL_WORD = np.frombuffer(b"e+-\0", np.uint32)[0]


def _shortest(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """For finite positive values in the kernel's range with a significand
    other than a power of two: the digits as a 17-digit int64, their count,
    the decimal exponent of the first, and where the value is undecided.

    The digits are the shortest whose decimal rounds back to the value, and
    of those the nearest, as ``repr`` chooses them.
    """
    # log10 may be one off near a power of ten; the digit count shows it
    k = np.clip(16 - np.floor(np.log10(a)).astype(np.int64), 0, _K_MAX)
    d, frac = _scaled_digits(a, k)
    off = np.flatnonzero((d < _POW10[16]) | (d >= _POW10[17]))
    if off.size:
        k[off] = np.clip(k[off] + np.where(d[off] < _POW10[16], 1, -1), 0, _K_MAX)
        d[off], frac[off] = _scaled_digits(a[off], k[off])
    undecided = (d < _POW10[16]) | (d >= _POW10[17])
    # the decimals that round back to a lie strictly between d + low and
    # d + high, in units of its 17th digit; the interval holds an integer
    half_ulp = np.spacing(a) * 0.5 * _P[k]
    low, high = frac - half_ulp, frac + half_ulp
    for end in (low, high):
        undecided |= np.abs(end - np.rint(end)) <= _MARGIN
    top = d + np.floor(high).astype(np.int64)
    span = top - d - np.floor(low).astype(np.int64)
    # drop the most trailing digits that leave a decimal in the interval:
    # the largest j with a multiple of 10**j there, above top - span
    drop = np.zeros(len(a), np.int64)
    active = np.flatnonzero((top % 10 < span) & ~undecided)
    for j in range(1, 17):
        drop[active] = j
        active = active[top[active] % _POW10[j + 1] < span[active]]
        if not active.size:
            break
    # the nearest multiple of 10**drop, which lies in the interval too
    step = _POW10[drop]
    q, r = np.divmod(d, step)
    half = step // 2
    # a value exactly halfway between two shortest decimals (frac is exact
    # there) takes the one whose last digit is even, as repr does
    odd = (q & 1) == 1
    up = np.where(
        drop > 0,
        (r > half) | ((r == half) & ((frac > 0) | odd)),
        (frac > 0.5) | ((frac == 0.5) & odd),
    )
    best = (q + up) * step
    carry = best >= _POW10[17]
    best[carry] = _POW10[16]
    ndig = np.where(carry, 1, 17 - drop)
    return best, ndig, 16 - k + carry, undecided


def _spliced(text: np.ndarray, rows: np.ndarray, values, reference) -> np.ndarray:
    """The cells with the reference text of ``values`` in ``rows``."""
    if not len(rows):
        return text
    pieces = [reference(v).encode() for v in values.tolist()]
    width = max(text.shape[1], *map(len, pieces))
    if width > text.shape[1]:
        text = np.pad(text, ((0, 0), (0, width - text.shape[1])))
    padded = b"".join(piece.ljust(width, b"\0") for piece in pieces)
    text[rows] = np.frombuffer(padded, np.uint8).reshape(len(rows), width)
    return text


def float_cells(x: np.ndarray, reference: Callable[[float], str] = repr) -> np.ndarray:
    """The ``repr`` text of each float; ``reference`` gives the text of the
    values the kernel leaves undecided (``json.dumps`` writes NaN and
    Infinity where ``repr`` writes nan and inf)."""
    x = np.ascontiguousarray(x, dtype=float)
    a = np.abs(x)
    significand = x.view(np.uint64) & np.uint64(2**52 - 1)
    # a value out of range (NaN too) is scored as 1.5, in range, and left undecided
    out = ~((a >= _FLOAT_LO) & (a < _FLOAT_HI) & (significand != 0))
    best, ndig, e10, undecided = _shortest(np.where(out, 1.5, a))
    undecided |= out

    src = np.empty((len(best), _SRC_WORDS), np.uint32)
    src[:, 0] = _HEAD_WORD
    src[:, 1:6] = _digits(best, 5).view(np.uint32)
    src[:, 6] = _QUADS[np.abs(e10)]
    src[:, 7] = _TAIL_WORD
    form = np.where(
        (e10 >= -4) & (e10 <= 15),
        e10 + 4,
        20 + 2 * (np.abs(e10) >= 100) + (e10 < 0),
    )
    layout = (np.signbit(x) * _FORMS + form) * 17 + ndig - 1
    width = int(_LAYOUT_WIDTHS[layout].max(initial=1))
    index = _LAYOUTS[:, :width][layout] + np.arange(0, 4 * _SRC_WORDS * len(best), 4 * _SRC_WORDS)[:, None]
    text = np.take(src.view(np.uint8), index)
    fallback = np.flatnonzero(undecided)
    return _spliced(text, fallback, x[fallback], reference)


def int_cells(v: np.ndarray) -> np.ndarray:
    """The ``str`` text of each int64."""
    v = np.asarray(v).astype(np.int64)
    ok = (v > -_POW10[18]) & (v < _POW10[18])
    magnitude = np.where(ok, np.abs(v), 0)
    digits = _numerals(magnitude, _words_for(magnitude))
    text = np.empty((len(v), digits.shape[1] + 1), np.uint8)
    text[:, 0] = np.where(v < 0, ord("-"), 0)
    text[:, 1:] = digits
    fallback = np.flatnonzero(~ok)
    return _spliced(text, fallback, v[fallback], str)


def cells(values: np.ndarray, reference: Callable[[float], str]) -> np.ndarray:
    """The text of each value: ``json.dumps`` of a bool, ``str`` of an int,
    and ``float_cells(values, reference)`` of a float."""
    values = np.asarray(values)
    if values.dtype == bool:
        return _TRUE_FALSE[values.view(np.uint8)]
    if values.dtype.kind in "iu":
        return int_cells(values)
    return float_cells(values, reference)


def join_rows(pieces: Sequence[str], cells: Sequence[np.ndarray], end: str) -> str:
    """``pieces[0] + cell_0 + pieces[1] + ... + pieces[-1] + end`` for each
    row of the cells, concatenated."""
    parts = [np.frombuffer(p.encode(), np.uint8) for p in [*pieces[:-1], pieces[-1] + end]]
    widths = [len(p) for p in parts] + [c.shape[1] for c in cells]
    text = np.empty((len(cells[0]), sum(widths)), np.uint8)
    at = 0
    for i, part in enumerate(parts):
        text[:, at:at + len(part)] = part
        at += len(part)
        if i < len(cells):
            text[:, at:at + cells[i].shape[1]] = cells[i]
            at += cells[i].shape[1]
    # one boolean mask drops the NULs: faster than bytes.replace, which
    # scans for each NUL in turn, and than np.compress, which builds an
    # index array first
    flat = text.ravel()
    return flat[flat != 0].tobytes().decode()


def format_rows(
    pieces: Sequence[str],
    sep: str,
    columns: Sequence[np.ndarray],
    reference: Callable[[float], str],
) -> Iterator[str]:
    """Yield ``sep.join(row text)`` in pieces of at most CHUNK_ROWS rows,
    where a row's text is its values' ``cells`` between the ``pieces``
    (one more piece than columns); ``reference`` writes the floats the
    kernel leaves undecided.

    With three chunks or more and two usable CPUs, the cells of each chunk
    are made on a worker thread (``_threads.prefetched``) while this thread joins
    the chunk before into text; the text does not depend on it.
    """
    n = len(columns[0])
    starts = range(0, n, CHUNK_ROWS)

    def chunk_cells(start: int) -> list[np.ndarray]:
        return [cells(c[start:start + CHUNK_ROWS], reference) for c in columns]

    # the worker overlaps a chunk's cells with the join of the chunk before,
    # never the first chunk's, so it pays for its start from three chunks
    made = _threads.prefetched(chunk_cells, starts, len(starts) > 2)
    # made first, so that zip runs it to its end, which joins the worker
    for chunk, start in zip(made, starts):
        text = join_rows(pieces, chunk, sep)
        yield text if start + CHUNK_ROWS < n else text[:len(text) - len(sep)]

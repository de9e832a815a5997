"""Text of long per-row outputs, built a chunk of rows at a time in numpy,
and the parse kernel that reads a data CSV's rows back.  Both run on the
calling thread.

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

The parse kernel (``float_rows``) is the inverse: it gives each cell of a
CSV body ``float()``'s value.  It takes a block of whole lines at a time,
finds the separators, and reads the last 8, 16 or 24 bytes of every cell
as eight-byte words.  Word-wide integer arithmetic masks off the bytes
before the cell, classes its bytes, checks the grammar ``-?D*(.D*)?`` and
sums the digits into a significand M with a fraction length k.  Up to
2**53, M / 10**k is one correctly rounded division of exact doubles;
above, a quotient one step from the answer and its exact remainder (the
same error-free product as the text kernel's) give the nearest double.  A
cell it cannot decide with certainty (an exponent, more than 18 digits, a
fraction longer than 22 digits, a remainder within a margin of a tie, a
quotient at a power of two) takes ``float()``'s value; a body it cannot
read (a byte outside its alphabet, a ragged row, a blank line, a cell that
``float()`` refuses) is left to the caller's cell loop.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Sequence

import numpy as np

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
#: and 2 exponent forms (+ or -, two exponent digits), by digit count
_FORMS = 22


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
                    body = d[:1] + ([_DOT] + d[1:] if ndig > 1 else [])
                    body += [_E, _E + form - 19, _EXP_DIGITS + 1, _EXP_DIGITS + 2]
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
    form = np.where((e10 >= -4) & (e10 <= 15), e10 + 4, 20 + (e10 < 0))
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


# ---------------------------------------------------------------------------
# the parse kernel: the body of a data CSV to float rows
# ---------------------------------------------------------------------------

#: bytes of a body parsed per block, cut at the first line end after it
PARSE_BYTES = 1 << 18

#: the bytes a body may hold but digits, separators, the point and the
#: sign: a CR before a LF, and the exponent bytes, whose cells go to float()
_RARE_BYTES = b"\reE+"
_COMMA, _LF, _CR, _SIGN = b",\n\r-"
#: zero bytes before a block, so that every cell ends a full window
_PAD = 24
_ONES = 0x0101010101010101


def _keep_masks(words: int) -> np.ndarray:
    """For a window of ``words`` eight-byte words, the masks that keep its
    last n bytes, n = 0 ... 8 * words: row j holds word j's mask for each n."""
    keep = np.arange(8 * words) >= 8 * words - np.arange(8 * words + 1)[:, None]
    return np.ascontiguousarray((keep * np.uint8(0xFF)).view(np.uint64).T)


_KEEP = {words: _keep_masks(words) for words in (1, 2, 3)}


def _to_end_multipliers(words: int) -> np.ndarray:
    """For each word of a window, the multiplier whose top byte gives, for
    a point at lane i of that word, the lanes from it to the window's end."""
    lanes = np.arange(1, 9) + 8 * np.arange(words - 1, -1, -1)[:, None]
    return lanes.astype(np.uint8).view(np.uint64)


_TO_END = {words: _to_end_multipliers(words) for words in (1, 2, 3)}
# by the lanes t from the point to the end (0 without a point): the
# fraction length k, 10**(k + 1) (10**18 without a point), which D is the
# integer part times, and 10**k as an int and as a double
_T = np.arange(8 * 3 + 1)
_K_OF = np.maximum(_T - 1, 0)
_TOP_OF = _POW10[np.where(_T > 0, np.minimum(_T, 18), 18)].astype(np.uint64)
_LOW_OF = _POW10[np.minimum(_K_OF, 18)].astype(np.uint64)
_P_OF = _P[np.minimum(_K_OF, _K_MAX)]


def _eight_digits(v: np.ndarray) -> np.ndarray:
    """The value of each word's eight digit lanes (0-9, the first digit in
    the lowest byte), below 10**8: pairs of lanes, then pairs of pairs,
    then the two quads, each in one multiply-shift."""
    v = (v * 2561) >> 8
    v = ((v & 0x00FF00FF00FF00FF) * 6553601) >> 16
    return ((v & 0x0000FFFF0000FFFF) * 42949672960001) >> 32


def _decimals(windows: np.ndarray, length: np.ndarray):
    """The significand M, the lanes t from the point to the end, and
    where each cell is ``D*(.D*)?`` with at least one digit, M below 10**18
    and a fraction length k = t - 1 of at most 22 (elsewhere M and t are 0).

    ``windows`` holds one row per word of the eight-byte windows that end
    where the cells end, and ``length`` the cells' bytes after any sign.
    Bytes are classed a word at a time: of the bytes a cell may hold, only
    digits have bit 4 set, and only ``.`` of the others has bit 1 set and
    bit 0 clear.  Each lane that a class marks gets bit 0, and a multiply
    by 0x0101...01 sums a word's marks into its top byte.  The point is
    read as a zero digit, which gives D, the integer part times 10**(k + 1)
    plus the fraction; M drops the zero.
    """
    words = len(windows)
    v = windows & np.take(_KEEP[words], np.minimum(length, 8 * words), axis=1)
    high = v >> 4
    digit = high & _ONES
    point = (v >> 1) & ~(v | high) & _ONES
    # a lane of the sum over the words is at most 3
    marked = ((digit | point).sum(axis=0) * _ONES) >> 56
    points = ((point * _ONES) >> 56).sum(axis=0)
    to_end = ((point * _TO_END[words]) >> 56).sum(axis=0)
    ok = ((marked == length.view(np.uint64)) & (points <= 1) & (marked > points)
          & (to_end <= _K_MAX + 1))
    part = _eight_digits(v & (digit * 0x0F))
    d = part[-1]
    if words > 1:
        d = d + part[-2] * 10**8
    if words > 2:
        # at most 18 lanes of digits and point after any leading zeros
        ok &= part[0] < 100
        d = d + part[0] * 10**16
    d = np.where(ok, d, 0)
    to_end = np.where(ok, to_end, 0)
    return d - 9 * (d // _TOP_OF[to_end]) * _LOW_OF[to_end], to_end, ok


def _nearest(m: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The double nearest to ``m / 10**k`` for int64 2**53 < m < 2**62 and
    0 <= k <= 22, and where it is undecided.

    m = h + l with h = float(m), and q = fl(h / 10**k) lies within 1.5 ulps
    of the quotient.  The remainder r = h - q * 10**k is exact (Dekker's
    product gives q * 10**k as a sum of two doubles), so (r + l) / 10**k is
    the quotient minus q; in ulps of q, rounded, it is the step to the
    nearest double.  A step within a tie's margin (``_MARGIN``, far above
    the rounding of r + l and of the division) of +-1/2, or a q at a power
    of two, where the ulp below is half the ulp above, is undecided.
    """
    h = m.astype(float)
    p = _P[k]
    q = h / p
    product = q * p
    q_top, q_bottom = _split(q)
    error = ((q_top * _P_TOP[k] - product) + q_top * _P_BOTTOM[k]
             + q_bottom * _P_TOP[k]) + q_bottom * _P_BOTTOM[k]
    bits = q.view(np.uint64)
    # the power of two of q's binade, times 2**-52, is its ulp
    ulp = (bits & np.uint64(0x7FF0000000000000)).view(float) * 2.0**-52
    steps = (((h - product) - error) + (m - h.astype(np.int64))) / (ulp * p)
    undecided = np.abs(np.abs(steps) - 0.5) <= _MARGIN
    undecided |= (bits & np.uint64(2**52 - 1)) == 0
    return q + np.rint(steps) * ulp, undecided


def _to_double(m: np.ndarray, to_end: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The double nearest to ``m / 10**k`` for the M and t of ``_decimals``,
    and where it is undecided.  Up to 2**53, m and 10**k are exact doubles,
    and one division rounds their quotient correctly."""
    value = m / _P_OF[to_end]
    undecided = np.zeros(len(m), bool)
    big = np.flatnonzero(m > 2**53)
    if big.size:
        value[big], undecided[big] = _nearest(m[big].astype(np.int64), _K_OF[to_end[big]])
    return value, undecided


def _block_rows(data: bytes, at: int, stop: int, width: int, drop: int) -> np.ndarray | None:
    """The float rows of the whole lines ``data[at:stop]`` of a body but
    their first ``drop`` columns, or None."""
    size = stop - at
    ends_line = data[stop - 1] == _LF
    text = np.zeros(_PAD + size + (not ends_line), np.uint8)
    text[_PAD:_PAD + size] = np.frombuffer(data, np.uint8, size, at)
    text[-1] = _LF  # the body's last line may have no line end
    seps = np.flatnonzero((text == _COMMA) | (text == _LF))
    rows = len(seps) // width
    if len(seps) % width or not (text[seps[width - 1::width]] == _LF).all():
        return None
    # every byte but the rows' line ends is 0 ... 13 past the comma (a
    # comma, sign, point, digit or slash, which a cell float() reads never
    # holds) or a rare one; so no line is left over
    rare = np.count_nonzero(text[_PAD:] - np.uint8(_COMMA) > 13) - rows
    if rare and (sum(np.count_nonzero(text == b) for b in _RARE_BYTES) != rare
                 or not (text[np.flatnonzero(text == _CR) + 1] == _LF).all()):
        return None
    start = np.empty_like(seps)
    start[0] = _PAD
    start[1:] = seps[:-1] + 1
    start, end = start.reshape(rows, width), seps.reshape(rows, width)
    if rare:
        end[:, -1] -= text[end[:, -1] - 1] == _CR
    out = np.empty((rows, width - drop))
    # the columns are read in groups of the same window words
    words = [min(3, max(1, -(-int(c.max()) // 8))) for c in (end - start).T]
    for w in set(words):
        cols = [col for col in range(width) if words[col] == w]
        s, e = start[:, cols].T.ravel(), end[:, cols].T.ravel()
        negative = text[s] == _SIGN
        windows = np.ndarray((len(text) - 8 * w + 1,), f"V{8 * w}", text, strides=(1,))
        windows = windows[e - 8 * w].view(np.uint64).reshape(-1, w).T
        m, to_end, ok = _decimals(np.ascontiguousarray(windows), e - s - negative)
        value, undecided = _to_double(m, to_end)
        value.view(np.uint64)[:] ^= negative.astype(np.uint64) << 63
        for i in np.flatnonzero(undecided | ~ok).tolist():
            try:
                value[i] = float(text[s[i]:e[i]].tobytes())
            except ValueError:
                return None
        for col, column in zip(cols, value.reshape(len(cols), rows)):
            if col >= drop:
                out[:, col - drop] = column
    return out


def float_rows(data: bytes, width: int, start: int = 0, drop: int = 0) -> np.ndarray | None:
    """The rows of a data CSV body, ``data[start:]``, as an n x ``width``
    float array with ``float()``'s value of each cell, less its first
    ``drop`` columns, which are read and checked all the same.

    The kernel reads a body of lines of ``width`` cells split by commas,
    which holds only digits, ``, . - e E +``, and line ends (a CR only
    before a LF).  Anything else (a quote, a blank, a blank line, a row of
    another width, or a cell that ``float()`` refuses) returns None, and
    the caller reads the file one cell at a time.
    """
    blocks = []
    at = start
    while at < len(data):
        stop = data.find(b"\n", at + PARSE_BYTES) + 1 or len(data)
        rows = _block_rows(data, at, stop, width, drop)
        if rows is None:
            return None
        blocks.append(rows)
        at = stop
    return np.concatenate(blocks) if blocks else None


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
    """
    n = len(columns[0])
    for start in range(0, n, CHUNK_ROWS):
        chunk = [cells(c[start:start + CHUNK_ROWS], reference) for c in columns]
        text = join_rows(pieces, chunk, sep)
        yield text if start + CHUNK_ROWS < n else text[:len(text) - len(sep)]

"""Text of long per-row outputs, formatted a chunk of rows at a time.

One %-template applied to the interleaved ``tolist()`` values of a chunk
formats every value exactly as formatting it alone would (``%r`` and ``%s``
give ``repr`` of a float, ``%.2f`` gives ``format(v, ".2f")``), at array
speed and without holding the text of every row at once.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Sequence

import numpy as np

#: rows formatted per template application
CHUNK_ROWS = 4096


def format_rows(
    item: str,
    sep: str,
    columns: Sequence[np.ndarray],
    cells: Callable[[np.ndarray], list] = np.ndarray.tolist,
) -> Iterator[str]:
    """Yield ``sep.join(item % row for row in zip(*columns))`` in pieces.

    ``item`` takes one value from each column, in order; ``cells`` turns a
    slice of a column into those values.  The pieces, concatenated, are the
    whole text; each holds at most CHUNK_ROWS rows.
    """
    n, k = len(columns[0]), len(columns)
    for start in range(0, n, CHUNK_ROWS):
        stop = min(start + CHUNK_ROWS, n)
        flat = [None] * ((stop - start) * k)
        for j, column in enumerate(columns):
            flat[j::k] = cells(column[start:stop])
        if start:
            yield sep
        yield sep.join([item] * (stop - start)) % tuple(flat)

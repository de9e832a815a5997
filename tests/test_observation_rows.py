"""The one rule for observation arrays, at every entry point that reads them.

Each entry point reads its data through ``linalg.as_rows``: a stray
dimension or a width other than the one it knows raises DimensionMismatch,
and a NaN or infinite value raises InvalidConfig naming its row and column.
"""

import numpy as np
import pytest

from bfchart import bayesfactor, cli, dwr, workflow
from bfchart.dwr import DwrConfig
from bfchart.exceptions import DimensionMismatch, InvalidConfig
from bfchart.linalg import make_rng

SIGMA = np.array([[1.0, 2.0], [2.0, 5.0]])


@pytest.fixture(scope="module")
def model():
    rows = make_rng(70).multivariate_normal(np.zeros(2), SIGMA, 200)
    return workflow.phase1(rows, deltas=(0.5, 0.9), seed=1, calib_reps=200)


def _lbf_series(data, model, out):
    # a warm state at t = 40, as tracking resumes one
    state = dwr.run_filter(DwrConfig(dim=2, delta=0.5), _rows()[:40]).final
    return bayesfactor.lbf_series(data, state, model.target)


ENTRY_POINTS = {
    "estimate_target": lambda data, model, out: workflow.estimate_target(data),
    "phase1": lambda data, model, out: workflow.phase1(data, deltas=(0.5,),
                                                       calib_reps=200),
    "phase2_frozen": lambda data, model, out: workflow.phase2(model, data),
    "phase2_tracking": lambda data, model, out: workflow.phase2(model, data,
                                                                tracking=True),
    "run_filter": lambda data, model, out: dwr.run_filter(DwrConfig(dim=2, delta=0.5),
                                                          data),
    "lbf_series": _lbf_series,
    "write_data": lambda data, model, out: cli.write_data(str(out), data),
}

#: the entry points that know the data's width
KNOWS_DIM = ("phase2_frozen", "phase2_tracking", "run_filter", "lbf_series")


def _rows():
    return make_rng(71).multivariate_normal(np.zeros(2), SIGMA, 50)


def _cell(value):
    def make():
        rows = _rows()
        rows[7, 1] = value
        return rows
    return make


CASES = {
    "stray_axis": (lambda: _rows()[:, :, None], DimensionMismatch),
    "nan": (_cell(np.nan), InvalidConfig),
    "plus_inf": (_cell(np.inf), InvalidConfig),
    "minus_inf": (_cell(-np.inf), InvalidConfig),
    "wrong_width": (lambda: np.hstack([_rows(), _rows()[:, :1]]), DimensionMismatch),
}


@pytest.mark.parametrize("case, entry", [
    (case, entry)
    for case in CASES
    for entry in (KNOWS_DIM if case == "wrong_width" else ENTRY_POINTS)
])
def test_entry_point_refuses(model, tmp_path, case, entry):
    make, error = CASES[case]
    data = make()
    out = tmp_path / "d.csv"
    with pytest.raises(error) as raised:
        ENTRY_POINTS[entry](data, model, out)
    if error is InvalidConfig:
        assert str(raised.value) == f"non-finite value {data[7, 1]} at row 7, column 1"
    assert not out.exists()

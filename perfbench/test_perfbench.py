"""Tests of the benchmark itself: span arithmetic, metric names, oracles.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import re

import numpy as np
import pytest

import oracles
import run
import spans
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
workloads.load_bfchart(ROOT)

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_self_time_subtracts_direct_children_only():
    rows = [
        ["a", 0.0, 10.0, -1],
        ["b", 1.0, 4.0, 0],
        ["c", 2.0, 3.0, 1],
        ["d", 5.0, 7.0, 0],
    ]
    assert spans.self_times(rows) == pytest.approx([5.0, 2.0, 1.0, 2.0])


def test_self_time_counts_overlapping_children_once_and_hot_calls():
    rows = [["a", 0.0, 10.0, -1], ["b", 1.0, 5.0, 0], ["c", 4.0, 6.0, 0]]
    hot = {(0, "h"): [3, 1.5], (2, "h"): [1, 0.5]}
    assert spans.self_times(rows, hot) == pytest.approx([3.5, 4.0, 1.5])


def test_tracer_nests_spans_counts_and_restores_hooks():
    from bfchart import bayesfactor, workflow

    original = bayesfactor.lbf_terms
    tracer = spans.Tracer("test")
    with spans.hooks(tracer):
        assert bayesfactor.lbf_terms is not original
        with tracer.op("fit"):
            inner = tracer.wrap(lambda: None, "dwr.step", hot=True)
            outer = tracer.wrap(lambda: [inner() for _ in range(3)], "dwr.run_filter")
            outer()
        with pytest.raises(ValueError), tracer.op("fit"):
            tracer.wrap(lambda: int("x"), "chart.fit_ar1")()
    assert bayesfactor.lbf_terms is original
    assert workflow.phase1.__module__ == "bfchart.workflow"
    assert [s[0] for s in tracer.spans] == [
        "cli.main", "dwr.run_filter", "cli.main", "chart.fit_ar1"]
    assert [s[3] for s in tracer.spans] == [-1, 0, -1, 2]
    assert [s[4] for s in tracer.spans] == [0, 0, 2, 2]
    assert tracer.hot[(1, "dwr.step")][0] == 3
    assert tracer.counters["dwr.step.calls"] == 3
    assert tracer.counters["chart.errors"] == 1
    assert all(own >= 0.0 for own in tracer.self_times())
    summary = tracer.summary()
    assert summary["ops"]["fit"]["count"] == 2


def test_metric_and_workload_names_are_well_formed():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    declared_e2e = [m["name"] for m in bench["end_to_end"]]
    declared_layer = [m["name"] for m in bench["per_layer"]]
    assert declared_e2e == list(run.END_TO_END)
    assert declared_layer == list(run.PER_LAYER)
    assert [m["unit"] for m in bench["end_to_end"]] == list(run.END_TO_END.values())
    assert [m["unit"] for m in bench["per_layer"]] == list(run.PER_LAYER.values())
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    for name in declared_e2e + declared_layer + list(workloads.WORKLOADS):
        assert NAME.fullmatch(name) and len(name) <= 64, name


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """A tiny fit, a frozen and a tracking report, made through the CLI."""
    from bfchart import cli, simulate
    from bfchart.linalg import make_rng

    tmp = tmp_path_factory.mktemp("oracles")
    scenario = simulate.reference_scenarios()["in_control"]
    fit_rows = simulate.gen_iid(scenario, 120, make_rng(5, 0))
    new_rows = simulate.gen_iid(scenario, 150, make_rng(5, 1))
    data, new, model_path = tmp / "fit.csv", tmp / "new.csv", tmp / "model.json"
    cli.write_data(str(data), fit_rows)
    cli.write_data(str(new), new_rows)
    fit_code, _ = workloads.run_quiet(
        ["fit", str(data), "--out", str(model_path), "--estimate-target",
         "--reps", "50"])
    assert fit_code == 0
    out = {"model": json.loads(model_path.read_text()), "rows": new_rows}
    for mode, extra in (("frozen", []), ("tracking", ["--tracking"])):
        path = tmp / f"{mode}.json"
        code, _ = workloads.run_quiet(
            ["monitor", str(new), "--model", str(model_path), "--out", str(path),
             *extra])
        out[mode] = (json.loads(path.read_text()), code)
    return out


def _copy(doc):
    return json.loads(json.dumps(doc))


def test_oracles_accept_true_outputs(outputs):
    model, rows = outputs["model"], outputs["rows"]
    assert oracles.check_fit(model) == []
    for mode in ("frozen", "tracking"):
        report, code = outputs[mode]
        assert oracles.check_chart(model, report, code) == []
    assert oracles.check_frozen(model, rows, outputs["frozen"][0]) == []
    assert oracles.check_tracking(model, rows, outputs["tracking"][0]) == []


@pytest.mark.parametrize("mode", ["frozen", "tracking"])
def test_lbf_oracles_catch_a_perturbed_lbf(outputs, mode):
    report = _copy(outputs[mode][0])
    report["lbf"][3] += 1e-6 * max(1.0, abs(report["lbf"][3]))
    check = oracles.check_frozen if mode == "frozen" else oracles.check_tracking
    assert check(outputs["model"], outputs["rows"], report)


@pytest.mark.parametrize("mode", ["frozen", "tracking"])
def test_chart_oracle_catches_a_perturbed_z(outputs, mode):
    report, code = outputs[mode]
    report = _copy(report)
    report["points"][40]["z"] += 1e-6
    assert oracles.check_chart(outputs["model"], report, code)


@pytest.mark.parametrize("mode", ["frozen", "tracking"])
def test_chart_oracle_catches_a_flipped_flag(outputs, mode):
    report, code = outputs[mode]
    report = _copy(report)
    report["points"][7]["out_of_control"] = not report["points"][7]["out_of_control"]
    assert oracles.check_chart(outputs["model"], report, code)
    report, _ = outputs[mode]
    assert oracles.check_chart(outputs["model"], report, 10 - code)


def test_fit_oracle_catches_wrong_sigma_z_and_delta(outputs):
    model = _copy(outputs["model"])
    model["chart"]["sigma_z"] *= 1.0 + 1e-9
    assert oracles.check_fit(model)
    model = _copy(outputs["model"])
    others = [g["delta"] for g in model["grid"] if g["delta"] != model["delta"]]
    model["delta"] = others[0]
    assert oracles.check_fit(model)


def test_calibrate_oracle_reads_the_achieved_arl():
    good = "c = 2.4900\nachieved ARL = 372.1 +/- 3.6 (10000 replications, 9 evaluations)\n"
    assert oracles.check_calibrate(good, 370.4) == []
    assert oracles.check_calibrate(good.replace("372.1", "402.0"), 370.4)
    assert oracles.check_calibrate("c = 2.49\n", 370.4)


def test_closed_form_sigma_z_reduces_to_iid_case():
    lam = 0.05
    assert oracles.ewma_sigma_z(lam, 0.0, 1.0) == pytest.approx(
        np.sqrt(lam / (2.0 - lam)), rel=1e-15)

"""Two-phase workflow: fitting, serialization, frozen monitoring."""

import json
import re
import threading
import time
import warnings
import weakref
from dataclasses import replace

import numpy as np
import pytest

from bfchart import _threads, workflow
from bfchart.bayesfactor import TargetSpec
from bfchart.chart import asymptotic_sigma_z2
from bfchart.dwr import DwrConfig, steady_state_scale
from bfchart.exceptions import (
    DegenerateFit,
    DimensionMismatch,
    InvalidConfig,
    NonFiniteScore,
    NotPositiveDefinite,
    SchemaMismatch,
    TooShort,
)
from bfchart.linalg import cholesky, make_rng
from bfchart.simulate import gen_local_level
from bfchart.workflow import (
    DELTA_GRID,
    RUN_WARNING,
    FittedModel,
    _run_warnings,
    estimate_target,
    phase1,
    phase2,
    run_filter,
)

SIGMA = np.array([[1.0, 2.0], [2.0, 5.0]])


@pytest.fixture(scope="module")
def fitted():
    """One shared Phase I fit on self-consistent in-control data."""
    config = DwrConfig(dim=2, delta=0.9)
    data = gen_local_level(config, SIGMA, 400, make_rng(50))
    model = phase1(
        data,
        deltas=(0.7, 0.8, 0.9),
        lam=0.05,
        target_arl=370.4,
        seed=1,
        calib_reps=500,
    )
    return model, data, config


class TestEstimateTarget:
    def test_sample_moments(self):
        from bfchart.simulate import gen_iid, reference_scenarios

        data = gen_iid(reference_scenarios()["in_control"], 10**4, make_rng(53))
        target = estimate_target(data)
        assert np.all(np.abs(target.mu) < 0.07)
        assert np.all(
            np.abs(np.diag(target.V) - np.diag(SIGMA)) < 0.05 * np.diag(SIGMA)
        )

    def test_matches_numpy_cov(self):
        data = make_rng(54).standard_normal((40, 3))
        target = estimate_target(data)
        np.testing.assert_allclose(target.V, np.cov(data, rowvar=False, ddof=1))
        np.testing.assert_allclose(target.mu, data.mean(axis=0))

    def test_constant_data_rejected(self):
        with pytest.raises(NotPositiveDefinite):
            estimate_target(np.ones((20, 2)))

    def test_too_short(self):
        with pytest.raises(TooShort):
            estimate_target(np.ones((3, 2)))


class TestPhase1(object):
    def test_selected_model_is_adequate(self, fitted):
        model, _, _ = fitted
        assert model.delta in (0.7, 0.8, 0.9)
        cholesky(model.s_opt)  # raises unless positive definite
        assert np.all((model.fit.msse > 0.8) & (model.fit.msse < 1.2))
        assert model.p_star == pytest.approx(steady_state_scale(model.delta))
        assert model.n_phase1 == 400

    def test_selection_minimizes_msse_score(self, fitted):
        model, _, _ = fitted
        scores = {g.delta: g.report.msse_score for g in model.grid}
        assert scores[model.delta] == min(scores.values())

    def test_chart_limits_follow_asymptotic_variance(self, fitted):
        model, _, _ = fitted
        sigma_z2 = asymptotic_sigma_z2(model.chart.lam, model.ar)
        assert model.chart.sigma_z == pytest.approx(np.sqrt(sigma_z2), rel=1e-12)
        assert model.chart.ucl == pytest.approx(
            model.chart.mu_z + model.chart.c * model.chart.sigma_z
        )

    def test_offset_is_stationary_mean_of_fit(self, fitted):
        model, _, _ = fitted
        assert model.lbf_offset == pytest.approx(model.ar.mean)
        assert model.chart.mu_z == 0.0

    def test_default_grid_constant(self):
        assert DELTA_GRID == tuple(round(0.1 * k, 1) for k in range(1, 10))

    def test_too_short_rejected(self):
        with pytest.raises(TooShort):
            phase1(np.zeros((10, 2)))

    def test_degenerate_data_rejected(self):
        with pytest.raises(DegenerateFit):
            phase1(np.ones((60, 2)), target=TargetSpec([1.0, 1.0], np.eye(2)),
                   deltas=(0.9,), calib_reps=200)

    def test_model_arrays_are_read_only(self, fitted):
        # an in-place edit would bypass the checks the model was built with
        model, _, _ = fitted
        reports = [a for g in model.grid for a in (g.report.msse, g.report.mae, g.report.mape)]
        for a in (model.m_opt, model.s_opt, model.phase1_z, *reports):
            with pytest.raises(ValueError, match="read-only"):
                a[(0,) * a.ndim] += 1.0

    def test_target_dim_checked(self, fitted):
        _, data, _ = fitted
        with pytest.raises(DimensionMismatch):
            phase1(data, target=TargetSpec([0.0], [[1.0]]), deltas=(0.9,),
                   calib_reps=200)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_data_rejected(self, bad):
        data = make_rng(0).standard_normal((300, 2))
        data[7, 1] = bad
        with pytest.raises(InvalidConfig, match="row 7, column 1"):
            phase1(data, calib_reps=200)

    def test_negative_seed_rejected(self, monkeypatch):
        # refused before any candidate is filtered
        def run_filter(*args):
            raise AssertionError("run_filter called before the seed was checked")

        monkeypatch.setattr(workflow, "run_filter", run_filter)
        data = make_rng(0).standard_normal((300, 2))
        with pytest.raises(InvalidConfig, match="seed must be a non-negative integer, got -1"):
            phase1(data, deltas=(0.9,), calib_reps=200, seed=-1)

    @pytest.mark.parametrize("deltas,message", [
        ((), "the discount factor grid is empty"),
        ((0.5, 1.5), r"discount factor must lie in \(0, 1\], got 1.5"),
        ((0.5, 0.0), r"discount factor must lie in \(0, 1\], got 0.0"),
        ((np.nan,), r"discount factor must lie in \(0, 1\], got nan"),
    ])
    def test_bad_grid_rejected(self, monkeypatch, deltas, message):
        # refused before any candidate is filtered
        def run_filter(*args):
            raise AssertionError("run_filter called before the grid was checked")

        monkeypatch.setattr(workflow, "run_filter", run_filter)
        data = make_rng(0).standard_normal((300, 2))
        with pytest.raises(InvalidConfig, match=message):
            phase1(data, deltas=deltas, calib_reps=200)

    @pytest.mark.parametrize("settings,message", [
        ({"lam": 1.5}, r"EWMA smoothing parameter must lie in \(0, 1\], got 1.5"),
        ({"lam": np.nan}, r"EWMA smoothing parameter must lie in \(0, 1\], got nan"),
        ({"target_arl": 0.5}, "target ARL must be finite and exceed 1, got 0.5"),
        ({"target_arl": np.inf}, "target ARL must be finite and exceed 1, got inf"),
        ({"calib_reps": 0}, "replication count must be >= 1, got 0"),
    ], ids=["lam_above_1", "lam_nan", "arl_below_1", "arl_inf", "no_reps"])
    def test_bad_chart_setting_rejected(self, monkeypatch, settings, message):
        # refused before any candidate is filtered
        def run_filter(*args):
            raise AssertionError("run_filter called before the chart settings were checked")

        monkeypatch.setattr(workflow, "run_filter", run_filter)
        data = make_rng(0).standard_normal((300, 2))
        with pytest.raises(InvalidConfig, match=message):
            phase1(data, **{"calib_reps": 200, **settings})

    def test_removed_keywords_refused(self):
        import bfchart

        assert not hasattr(bfchart, "difference") and not hasattr(workflow, "difference")
        data = make_rng(0).standard_normal((300, 2))
        for keyword in ("recenter", "apply_difference"):
            with pytest.raises(TypeError, match=keyword):
                phase1(data, deltas=(0.9,), calib_reps=200, **{keyword: False})

    @pytest.mark.parametrize("difference,scale,row", [(False, 1.0, 10)])
    def test_log_bayes_factor_that_overflows_is_degenerate(self, difference, scale, row):
        # the row named is the input's
        data = make_rng(0).standard_normal((300, 2)) * scale
        target = TargetSpec([1e300, 0.0], np.diag([1e-300, 1.0]))
        with pytest.raises(DegenerateFit, match=f"log Bayes factor of row {row} is not finite"):
            phase1(data, target=target, deltas=(0.9,), calib_reps=200)

    @pytest.mark.parametrize("difference,row", [(False, 10)])
    def test_log_bayes_factor_too_large_for_the_ar1_fit_is_degenerate(self, difference, row):
        # finite values whose squares overflow the AR(1) fit's sums
        data = make_rng(0).standard_normal((300, 2))
        target = TargetSpec([0.0, 0.0], np.diag([1e-300, 1.0]))
        with pytest.raises(DegenerateFit, match=f"log Bayes factor of row {row} is "
                           r"\S+ under the target, too large to fit the AR\(1\)"):
            phase1(data, target=target, deltas=(0.9,), calib_reps=200)

    def test_holds_at_most_two_filter_paths(self, monkeypatch):
        # the best path so far and the one being scored; the rest are freed
        paths, most = [], []

        def counted(config, y):
            most.append(sum(ref() is not None for ref in paths))
            path = run_filter(config, y)
            paths.append(weakref.ref(path))
            return path

        monkeypatch.setattr(workflow, "run_filter", counted)
        data = make_rng(3).standard_normal((200, 2))
        model = phase1(data, calib_reps=200)
        assert len(most) == len(DELTA_GRID) and max(most) <= 1
        fresh = phase1(data, calib_reps=200, deltas=(model.delta,))
        assert fresh.to_dict()["m_opt"] == model.to_dict()["m_opt"]


def test_refuses_a_repeated_candidate():
    data = make_rng(3).standard_normal((100, 2))
    with pytest.raises(InvalidConfig, match="discount factor 0.5 is repeated"):
        phase1(data, deltas=(0.3, 0.5, 0.4, 0.5), calib_reps=200)


@pytest.fixture(scope="module")
def large():
    """A local-level history just large enough for threaded scoring."""
    n = -(-workflow._THREADED_GRID_ENTRIES // 4)
    return gen_local_level(DwrConfig(dim=2, delta=0.3), SIGMA, n, make_rng(62))


def cpus(monkeypatch, count):
    monkeypatch.setattr(_threads, "usable_cpus", lambda: count)


@pytest.fixture
def filter_threads(monkeypatch):
    """The thread of each run_filter call phase1 makes."""
    threads = []

    def recorded(config, y):
        threads.append(threading.current_thread())
        return run_filter(config, y)

    monkeypatch.setattr(workflow, "run_filter", recorded)
    return threads


class TestThreadedGrid:
    """Above the gate the candidates are scored on min(CPUs, candidates)
    threads, with the same results as one thread."""

    def test_threads_do_not_change_the_model(self, monkeypatch, large, filter_threads):
        models = {}
        for count in (1, 2):
            cpus(monkeypatch, count)
            filter_threads.clear()
            models[count] = phase1(large, calib_reps=200).to_dict()
            on_main = [t is threading.main_thread() for t in filter_threads]
            assert len(on_main) == len(DELTA_GRID)
            assert all(on_main) if count == 1 else not any(on_main)
        assert models[1] == models[2]

    @pytest.mark.parametrize("count", [1, 2])
    def test_raises_the_first_failure_in_grid_order(self, monkeypatch, large, count):
        # the later candidate fails first; its error must not win
        def failing(config, y):
            if config.delta == 0.3:
                time.sleep(0.05)
                raise DegenerateFit("candidate 0.3 failed")
            if config.delta == 0.4:
                raise NotPositiveDefinite("candidate 0.4 failed")
            return run_filter(config, y)

        cpus(monkeypatch, count)
        monkeypatch.setattr(workflow, "run_filter", failing)
        before = threading.active_count()
        with pytest.raises(DegenerateFit, match="candidate 0.3 failed"):
            phase1(large, calib_reps=200)
        assert threading.active_count() == before

    def test_threads_end_with_phase1(self, monkeypatch, large):
        cpus(monkeypatch, 2)
        before = threading.active_count()
        phase1(large, calib_reps=200, deltas=(0.5, 0.9))
        assert threading.active_count() == before

    def test_workers_see_the_callers_errstate(self, monkeypatch, large):
        seen = []

        def recorded(config, y):
            seen.append(np.geterr())
            return run_filter(config, y)

        cpus(monkeypatch, 2)
        monkeypatch.setattr(workflow, "run_filter", recorded)
        with np.errstate(all="ignore"):
            want = np.geterr()
            phase1(large, calib_reps=200)
        assert want != np.geterr() and seen == [want] * len(DELTA_GRID)

    @pytest.mark.parametrize("count", [1, 2, 3])
    def test_holds_at_most_one_filter_path_per_worker(self, monkeypatch, large, count):
        # the best path so far and one per other worker; the rest are freed.
        # Here the best is in the middle of the grid, so a path kept past its
        # scoring shows.
        paths, most = [], []

        def counted(config, y):
            most.append(sum(ref() is not None for ref in paths))
            path = run_filter(config, y)
            paths.append(weakref.ref(path))
            return path

        cpus(monkeypatch, count)
        monkeypatch.setattr(workflow, "run_filter", counted)
        model = phase1(large, calib_reps=200)
        assert DELTA_GRID[0] < model.delta < DELTA_GRID[-1]
        assert len(most) == len(DELTA_GRID) and max(most) <= count

    def test_one_candidate_runs_inline(self, monkeypatch, large, filter_threads):
        cpus(monkeypatch, 2)
        phase1(large, calib_reps=200, deltas=(0.9,))
        assert filter_threads == [threading.main_thread()]

    def test_counts_the_cpus_without_affinity(self, monkeypatch):
        monkeypatch.delattr(_threads.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(_threads.os, "cpu_count", lambda: None)
        assert _threads.usable_cpus() == 1
        monkeypatch.setattr(_threads.os, "cpu_count", lambda: 3)
        assert _threads.usable_cpus() == 3


class TestSerialization:
    def test_round_trip(self, fitted):
        model, _, _ = fitted
        clone = FittedModel.from_dict(model.to_dict())
        assert clone.delta == model.delta
        np.testing.assert_array_equal(clone.m_opt, model.m_opt)
        np.testing.assert_array_equal(clone.s_opt, model.s_opt)
        np.testing.assert_array_equal(clone.target.V, model.target.V)
        assert clone.ar == model.ar
        assert clone.chart == model.chart
        assert clone.lbf_offset == model.lbf_offset
        assert clone.warmup == model.warmup
        np.testing.assert_array_equal(clone.phase1_z, model.phase1_z)
        np.testing.assert_array_equal(clone.fit.msse, model.fit.msse)
        assert len(clone.grid) == len(model.grid)

    def test_round_trip_survives_json(self, fitted):
        model, _, _ = fitted
        doc = json.loads(json.dumps(model.to_dict()))
        clone = FittedModel.from_dict(doc)
        np.testing.assert_array_equal(clone.s_opt, model.s_opt)

    @pytest.mark.parametrize("through_json", [False, True], ids=["direct", "json"])
    def test_round_trip_with_numeric_mape(self, through_json):
        # positive-valued rows, so every MAPE entry is a number, not null
        data = 50.0 + make_rng(52).standard_normal((200, 2))
        model = phase1(data, deltas=(0.8, 0.9), calib_reps=200)
        assert all(np.isfinite(g.report.mape).all() for g in model.grid)
        doc = model.to_dict()
        if through_json:
            doc = json.loads(json.dumps(doc))
        assert FittedModel.from_dict(doc).to_dict() == model.to_dict()

    @pytest.mark.parametrize("v, message", [
        ({"dim": 0, "data": []}, r"matrix v\.dim must be >= 1, got 0"),
        ({"dim": -1, "data": [1.0]}, r"matrix v\.dim must be >= 1, got -1"),
        ({"dim": 2, "data": [[1.0, 0.0], [0.0, 1.0]]},
         r"v\.data must be a list of numbers, not hold \[1.0, 0.0\]"),
    ], ids=["zero_dim", "negative_dim", "nested_data"])
    def test_malformed_target_matrix_rejected(self, v, message):
        with pytest.raises(SchemaMismatch, match=message):
            workflow.target_from_dict({"mu": [0.0, 0.0], "v": v})

    @pytest.mark.parametrize("edit, message", [
        (lambda doc: doc["s_opt"].update(dim=True), r"^s_opt\.dim must be a JSON int"),
        (lambda doc: doc["target"]["v"].update(dim=2.0),
         r"^target\.v\.dim must be a JSON int"),
        (lambda doc: doc["target"].update(mu=["0"]), r"^target\.mu must be a list"),
        (lambda doc: doc["ar"].update(phi="0.1"), r"^ar\.phi must be a JSON number"),
        (lambda doc: doc["grid"][2].update(msse=[1.0, None]),
         r"^grid\[2\]\.msse must be a list of numbers, not hold None"),
        (lambda doc: doc["fit"].update(n=3.5), r"^fit\.n must be a JSON int, got 3\.5"),
        (lambda doc: doc["grid"][1].pop("n"), r"^'grid\[1\]\.n'$"),
        (lambda doc: doc.update(s_opt=5), r"^s_opt must be a JSON object, got 5$"),
        (lambda doc: doc.update(ar=[1]), r"^ar must be a JSON object, got \[1\]$"),
        (lambda doc: doc.update(grid=3), r"^grid must be a JSON list of objects, got 3$"),
        (lambda doc: doc["grid"].__setitem__(1, 5), r"^grid\[1\] must be a JSON object, got 5$"),
        (lambda doc: doc.update(chart=2), r"^chart must be a JSON object, got 2$"),
        (lambda doc: doc.update(target=[]), r"^target must be a JSON object, got \[\]$"),
        (lambda doc: doc["target"].update(v=[1]), r"^target\.v must be a JSON object"),
        (lambda doc: doc.update(fit="x"), r"^fit must be a JSON object, got 'x'$"),
    ], ids=["s_opt_dim", "target_v_dim", "target_mu", "ar_phi", "grid_msse", "fit_n",
            "missing_grid_n", "s_opt_block", "ar_block", "grid_block", "grid_entry",
            "chart_block", "target_block", "target_v_block", "fit_block"])
    def test_messages_name_the_full_key_path(self, fitted, edit, message):
        doc = fitted[0].to_dict()
        edit(doc)
        with pytest.raises(SchemaMismatch) as info:
            FittedModel.from_dict(doc)
        assert re.search(message, str(info.value.__cause__)), info.value

    @pytest.mark.parametrize("key, value, message", [
        ("msse", [1.0], r"msse of shape \(1,\), not \(2,\)"),
        ("mae", [], r"mae of shape \(0,\), not \(2,\)"),
        ("mape", [None, 1.0, 2.0], r"mape of shape \(3,\), not \(2,\)"),
        ("n", 0, "n 0, not >= 1"),
        ("n", -3, "n -3, not >= 1"),
    ], ids=["short_msse", "empty_mae", "long_mape", "zero_n", "negative_n"])
    @pytest.mark.parametrize("selected", [False, True], ids=["other", "selected"])
    def test_grid_entries_must_match_the_dim(self, fitted, key, value, message, selected):
        # fit is the selected entry's report; it follows the entry, so that
        # only the entry's own check can refuse it
        model = fitted[0]
        doc = model.to_dict()
        entry = next(g for g in doc["grid"] if (g["delta"] == model.delta) == selected)
        entry[key] = value
        if selected:
            doc["fit"][key] = value
        where = f"grid entry at delta {entry['delta']} has "
        with pytest.raises(SchemaMismatch, match=where + message):
            FittedModel.from_dict(doc)
        grid = tuple(
            replace(g, report=replace(g.report, **{key: value}))
            if g.delta == entry["delta"] else g for g in model.grid)
        with pytest.raises(SchemaMismatch, match=message):
            replace(model, grid=grid)

    def test_wrong_kind_rejected(self):
        with pytest.raises(SchemaMismatch):
            FittedModel.from_dict({"kind": "something-else", "schema_version": 1})

    def test_wrong_version_rejected(self, fitted):
        model, _, _ = fitted
        doc = model.to_dict()
        doc["schema_version"] = 99
        with pytest.raises(SchemaMismatch):
            FittedModel.from_dict(doc)

    def test_missing_field_rejected(self, fitted):
        model, _, _ = fitted
        doc = model.to_dict()
        del doc["ar"]
        with pytest.raises(SchemaMismatch):
            FittedModel.from_dict(doc)

    def test_malformed_matrix_rejected(self, fitted):
        model, _, _ = fitted
        doc = model.to_dict()
        doc["s_opt"]["data"] = [1.0, 2.0, 3.0]
        with pytest.raises(SchemaMismatch):
            FittedModel.from_dict(doc)

    def test_target_document_round_trip(self, fitted):
        model, _, _ = fitted
        doc = workflow.target_to_dict(model.target)
        assert doc == model.to_dict()["target"]
        back = workflow.target_from_dict(doc)
        assert back.mu.tobytes() == model.target.mu.tobytes()
        assert back.V.tobytes() == model.target.V.tobytes()

    @pytest.mark.parametrize("which", [0, -1])
    def test_repeated_grid_delta_rejected(self, fitted, which):
        model, _, _ = fitted
        doc = model.to_dict()
        doc["grid"].insert(which, dict(doc["grid"][which]))
        repeated = doc["grid"][which]["delta"]
        with pytest.raises(SchemaMismatch, match=f"the grid repeats delta {repeated}"):
            FittedModel.from_dict(doc)
        with pytest.raises(SchemaMismatch, match=f"the grid repeats delta {repeated}"):
            replace(model, grid=model.grid + (model.grid[which],))


def ewma_loop(x, lam, z0):
    """The EWMA recursion one value at a time."""
    z = np.empty(len(x))
    prev = z0
    for t, value in enumerate(x):
        prev = lam * value + (1.0 - lam) * prev
        z[t] = prev
    return z


class TestPhase2:
    @pytest.fixture
    def shifted(self, fitted):
        """A shifted stream charted about an off-zero center, frozen and tracking."""
        model, _, config = fitted
        # an off-zero center, so that where the EWMA starts is checked too
        chart = replace(model.chart, mu_z=0.5 * model.chart.sigma_z)
        model = replace(model, chart=chart)
        stream = gen_local_level(config, SIGMA, 80, make_rng(59))
        stream[40:, 0] += 5.0 * np.sqrt(SIGMA[0, 0])
        return model, [phase2(model, stream, tracking=mode) for mode in (False, True)]

    def test_empty_data(self, fitted):
        model, _, _ = fitted
        for empty in (np.empty((0, 2)), np.empty(0), []):
            result = phase2(model, empty)
            for arr in (result.lbf, result.x, result.z):
                assert arr.shape == (0,) and arr.dtype == float
            assert result.out_of_control.shape == (0,)
            assert result.out_of_control.dtype == bool
            assert result.signals == ()
            assert result.warnings == ()

    def test_pure_function_of_model_and_data(self, fitted):
        model, _, config = fitted
        stream = gen_local_level(config, SIGMA, 60, make_rng(57))
        a = phase2(model, stream)
        b = phase2(model, stream)
        np.testing.assert_array_equal(a.lbf, b.lbf)
        assert a.signals == b.signals
        np.testing.assert_array_equal(a.z, b.z)
        np.testing.assert_array_equal(a.out_of_control, b.out_of_control)

    def test_frozen_mode_scores_points_independently(self, fitted):
        model, _, config = fitted
        stream = gen_local_level(config, SIGMA, 40, make_rng(58))
        forward = phase2(model, stream).lbf
        reversed_lbf = phase2(model, stream[::-1]).lbf
        np.testing.assert_allclose(reversed_lbf, forward[::-1], atol=1e-12)

    def test_x_is_the_offset_lbf(self, shifted):
        model, results = shifted
        for result in results:
            np.testing.assert_array_equal(result.x, result.lbf - model.lbf_offset)

    def test_z_is_the_ewma_of_x_from_the_center(self, shifted):
        model, results = shifted
        for result in results:
            want = ewma_loop(result.x, model.chart.lam, model.chart.mu_z)
            np.testing.assert_allclose(result.z, want, rtol=1e-12, atol=1e-14)

    def test_signals_match_flagged_points(self, shifted):
        model, results = shifted
        for result in results:
            assert result.out_of_control.dtype == bool
            np.testing.assert_array_equal(
                result.out_of_control,
                (result.z > model.chart.ucl) | (result.z < model.chart.lcl),
            )
            assert result.signals == tuple(np.flatnonzero(result.out_of_control))
            assert all(type(t) is int for t in result.signals)
            assert result.signals  # a five-sigma shift must signal

    def test_tracking_mode_differs_from_frozen(self, fitted):
        model, _, config = fitted
        stream = gen_local_level(config, SIGMA, 60, make_rng(60))
        frozen = phase2(model, stream).lbf
        tracking = phase2(model, stream, tracking=True).lbf
        assert not np.allclose(frozen, tracking)

    def test_dim_mismatch(self, fitted):
        model, _, _ = fitted
        with pytest.raises(DimensionMismatch):
            phase2(model, np.zeros((5, 3)))

    def test_persistent_drift_yields_run_warning(self, fitted):
        model, _, config = fitted
        stream = gen_local_level(config, SIGMA, 60, make_rng(61))
        stream[:, 0] += 5.0 * np.sqrt(SIGMA[0, 0])
        result = phase2(model, stream)
        assert any("consecutive EWMA values" in w for w in result.warnings)


def run_warnings_loop(z, center):
    """The run scan one point at a time, as an oracle for _run_warnings."""
    side = np.sign(z - center)
    start = 0
    for t in range(1, len(z) + 1):
        if t == len(z) or side[t] != side[start] or side[start] == 0:
            length = t - start
            if length >= RUN_WARNING and side[start] != 0:
                where = "above" if side[start] > 0 else "below"
                yield (
                    f"{length} consecutive EWMA values {where} center "
                    f"from t={start} to t={t - 1}"
                )
            start = t


class TestRunWarnings:
    @pytest.mark.parametrize("seed", range(20))
    def test_random_sign_runs_match_loop(self, seed):
        rng = make_rng(90, seed)
        # runs of random length on a random side, some exactly at the center
        lengths = rng.integers(1, 3 * RUN_WARNING, size=40)
        levels = rng.choice([-1.5, 0.0, 2.0], size=40)
        z = np.repeat(levels, lengths) + 0.25
        assert _run_warnings(z, 0.25) == list(run_warnings_loop(z, 0.25))

    @pytest.mark.parametrize("seed", range(5))
    def test_smooth_path_matches_loop(self, seed):
        z = ewma_loop(make_rng(91, seed).standard_normal(2000), 0.05, 0.0)
        got = _run_warnings(z, 0.0)
        assert got == list(run_warnings_loop(z, 0.0))
        assert got

    def test_points_at_center_break_runs(self):
        z = np.r_[np.ones(RUN_WARNING), 0.0, np.ones(RUN_WARNING - 1), np.zeros(20)]
        got = _run_warnings(z, 0.0)
        assert got == list(run_warnings_loop(z, 0.0))
        assert got == [f"{RUN_WARNING} consecutive EWMA values above center "
                       f"from t=0 to t={RUN_WARNING - 1}"]

    def test_empty_input(self):
        assert _run_warnings(np.empty(0), 0.0) == []

    @pytest.mark.parametrize("sign, where", [(1.0, "above"), (-1.0, "below")])
    def test_run_spanning_the_whole_series(self, sign, where):
        z = sign * np.linspace(0.1, 1.0, 50)
        assert _run_warnings(z, 0.0) == list(run_warnings_loop(z, 0.0))
        assert _run_warnings(z, 0.0) == [
            f"50 consecutive EWMA values {where} center from t=0 to t=49"
        ]

    def test_short_series_never_warns(self):
        assert _run_warnings(np.ones(RUN_WARNING - 1), 0.0) == []


class TestPhase2NonFinite:
    @pytest.fixture(scope="class")
    def iid_model(self):
        return phase1(make_rng(0).standard_normal((300, 2)), calib_reps=200)

    @pytest.fixture
    def stream(self):
        y = make_rng(1).standard_normal((50, 2))
        y[20] += 50.0
        return y

    def test_spike_signals(self, iid_model, stream):
        assert len(phase2(iid_model, stream).signals) > 0

    @pytest.mark.parametrize("tracking", [False, True])
    def test_nan_cell_raises_instead_of_dropping_signals(
        self, iid_model, stream, tracking
    ):
        stream[5, 1] = np.nan
        with pytest.raises(InvalidConfig, match="row 5, column 1"):
            phase2(iid_model, stream, tracking=tracking)

    def test_first_bad_cell_is_named(self, iid_model, stream):
        stream[9, 0] = -np.inf
        stream[30, 1] = np.nan
        with pytest.raises(InvalidConfig, match="row 9, column 0"):
            phase2(iid_model, stream)

    @pytest.mark.parametrize("differenced", [False])
    def test_overflowing_row_raises_naming_it(self, iid_model, stream, differenced):
        # finite rows whose frozen LBF overflows; a NaN score would leave
        # every later EWMA value NaN and never signal
        stream[12] = 1e200
        stream[30] = -1e200
        with pytest.raises(NonFiniteScore, match=r"not finite at row 12$"):
            phase2(iid_model, stream)

    @pytest.mark.parametrize("differenced", [False])
    def test_tracking_names_the_row_that_overflows_the_covariance(
        self, iid_model, stream, differenced
    ):
        # the overflowed outer product makes every later S non-finite; the
        # error names the data row, not the filter time, and warns nothing
        stream[12] = 1e200
        stream[30] = -1e200
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteScore, match=r"^row 12 overflows"):
                phase2(iid_model, stream, tracking=True)

    @pytest.mark.parametrize("tracking", [False, True])
    def test_overflowing_last_row_raises(self, iid_model, stream, tracking):
        # no later covariance sees the last row, so only its own score can
        # tell; a NaN there would end the chart without a signal
        stream[-1] = 1e200
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteScore, match=r"not finite at row 49$"):
                phase2(iid_model, stream, tracking=tracking)

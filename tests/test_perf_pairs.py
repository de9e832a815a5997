"""tools/perf_pairs.py: alternating perfbench pairs and their summary."""

import importlib.util
import json
import pathlib

import pytest

TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "perf_pairs.py"
spec = importlib.util.spec_from_file_location("perf_pairs", TOOL)
perf_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(perf_pairs)


def result(fit_s, rows_per_s, failed=0):
    return {"correct": failed == 0, "attempted": 10, "failed": failed,
            "metrics": {"fit_s": fit_s, "monitor_rows_per_s": rows_per_s}}


@pytest.mark.parametrize("text,seeds", [("1-10", list(range(1, 11))), ("3", [3]),
                                        ("1,4,7-9", [1, 4, 7, 8, 9])])
def test_seed_list(text, seeds):
    assert perf_pairs.seed_list(text) == seeds


def test_quartiles_interpolate_linearly():
    assert perf_pairs.quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == [2.0, 3.0, 4.0]
    assert perf_pairs.quartiles([1.0, 2.0]) == [1.25, 1.5, 1.75]
    assert perf_pairs.quartiles([7.0]) == [7.0, 7.0, 7.0]


def test_summary_counts_the_pairs_the_change_wins_in_the_metric_direction():
    parent, change = [1.0, 2.0, 3.0, 4.0, 5.0], [0.5, 2.5, 2.0, 3.0, 5.0]
    lower = perf_pairs.summarize(parent, change, "lower")
    assert lower["change_better_pairs"] == 3
    assert lower["parent_quartiles"] == [2.0, 3.0, 4.0]
    assert lower["change_quartiles"] == [2.0, 2.5, 3.0]
    assert lower["ratio_of_medians"] == pytest.approx(2.5 / 3.0, abs=1e-4)
    assert lower["parent_iqr"] == 2.0
    assert lower["parent_runs"] == parent and lower["change_runs"] == change
    assert perf_pairs.summarize(parent, change, "higher")["change_better_pairs"] == 1


def test_pairs_alternate_which_side_runs_first(monkeypatch):
    calls = []

    def run_once(checkout, workload, seed, seconds):
        calls.append((checkout, seed))
        return result(1.0 if checkout == "P" else 0.9, 100.0)

    monkeypatch.setattr(perf_pairs, "run_once", run_once)
    runs = perf_pairs.pairs("P", "C", "fit-long", [1, 2, 3], 15.0)
    assert calls == [("P", 1), ("C", 1), ("C", 2), ("P", 2), ("P", 3), ("C", 3)]
    assert [(p["metrics"]["fit_s"], c["metrics"]["fit_s"]) for p, c in runs] == [(1.0, 0.9)] * 3


def test_a_run_without_a_result_counts_as_failed_and_leaves_its_pair_out():
    missing = {"correct": False, "attempted": 0, "failed": 1, "metrics": {}}
    runs = [(result(1.0, 100.0), result(0.9, 110.0)), (missing, result(0.8, 120.0)),
            (result(1.2, 90.0), result(1.1, 95.0, failed=2))]
    summary = perf_pairs.workload_summary(runs, [1, 2, 3], {"fit_s": "lower",
                                                            "monitor_rows_per_s": "higher"})
    assert summary["failed_ops"] == {"parent": 1, "change": 2}
    assert summary["attempted_ops"] == {"parent": 20, "change": 30}
    assert summary["correct"] is False
    assert summary["metrics"]["fit_s"]["parent_runs"] == [1.0, 1.2]
    assert summary["metrics"]["fit_s"]["change_better_pairs"] == 2
    assert summary["metrics"]["monitor_rows_per_s"]["change_better_pairs"] == 2
    assert "fit_s" in perf_pairs.table("fit-long", summary)


def test_a_metric_without_a_direction_is_an_error():
    runs = [(result(1.0, 100.0), result(0.9, 110.0))]
    with pytest.raises(KeyError, match="monitor_rows_per_s"):
        perf_pairs.workload_summary(runs, [1], {"fit_s": "lower"})


def test_run_once_reads_the_last_line_and_each_metric_value(monkeypatch, tmp_path):
    import subprocess

    line = json.dumps({"correct": True, "attempted": 7, "failed": 0, "metrics": {
        "fit_s": {"unit": "s", "value": 0.125}, "peak_rss_mb": {"unit": "MB", "value": 90.0}}})
    seen = []

    def run(argv, cwd, **kwargs):
        seen.append((argv[1:], cwd))
        return subprocess.CompletedProcess(argv, 0, stdout=f"perfbench env: {{}}\n{line}\n",
                                           stderr="")

    monkeypatch.setattr(perf_pairs.subprocess, "run", run)
    got = perf_pairs.run_once(str(tmp_path), "fit-long", 3, 15.0)
    assert got["metrics"] == {"fit_s": 0.125, "peak_rss_mb": 90.0}
    assert got["attempted"] == 7 and got["failed"] == 0
    assert seen == [(["perfbench/run.py", "--workload", "fit-long", "--seed", "3",
                      "--seconds", "15.0", "--trace", "0"], str(tmp_path))]
    monkeypatch.setattr(perf_pairs.subprocess, "run", lambda argv, cwd, **k: (
        subprocess.CompletedProcess(argv, 1, stdout="", stderr="Traceback")))
    assert perf_pairs.run_once(str(tmp_path), "fit-long", 3, 15.0) == {
        "correct": False, "attempted": 0, "failed": 1, "metrics": {}}


def test_main_prints_the_table_and_writes_the_summary(monkeypatch, tmp_path, capsys):
    written = []
    real_dump = json.dump

    def dump(doc, fh, **kwargs):
        written.append(doc["fit-long"]["pairs"])
        real_dump(doc, fh, **kwargs)

    monkeypatch.setattr(perf_pairs.json, "dump", dump)
    seconds = []

    def run_once(checkout, workload, seed, run_seconds):
        seconds.append(run_seconds)
        return result(0.8 if checkout == str(change) else 1.0, 100.0)

    monkeypatch.setattr(perf_pairs, "run_once", run_once)
    change = tmp_path / "change"
    change.mkdir()
    with pytest.raises(FileNotFoundError):
        perf_pairs.main(["--parent", "P", "--change", str(change), "--workload", "fit-long"])
    (change / "BENCHMARK.json").write_text(json.dumps({"run_seconds": 15, "end_to_end": [
        {"name": "fit_s", "better": "lower"},
        {"name": "monitor_rows_per_s", "better": "higher"}]}))
    out = tmp_path / "pairs.json"
    assert perf_pairs.main(["--parent", "P", "--change", str(change), "--workload",
                            "fit-long", "--seeds", "1-2", "--out", str(out)]) == 0
    # the summary is written after each pair
    assert written == [1, 2]
    doc = json.loads(out.read_text())
    assert doc["fit-long"]["seeds"] == [1, 2]
    assert doc["fit-long"]["metrics"]["fit_s"]["change_better_pairs"] == 2
    assert doc["fit-long"]["metrics"]["monitor_rows_per_s"]["change_better_pairs"] == 0
    assert "fit-long: 2 pairs" in capsys.readouterr().out
    # every run lasts BENCHMARK.json's run_seconds
    assert seconds == [15] * 4


def test_clean_removes_what_a_run_leaves(tmp_path):
    for folder in (".perfbench_work/x", "src/pkg/__pycache__", "perfbench/__pycache__"):
        (tmp_path / folder).mkdir(parents=True)
    (tmp_path / "src" / "pkg" / "keep.py").write_text("")
    perf_pairs.clean(str(tmp_path))
    assert sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*")) == [
        "perfbench", "src", "src/pkg", "src/pkg/keep.py"]

"""End-to-end acceptance checks.

Each test evaluates one numbered criterion at its stated tolerance and
prints a single PASS/FAIL line (bypassing capture) before asserting.
"""

import json

import numpy as np
from scipy.stats import multivariate_normal, norm

from bfchart import cli
from bfchart.bayesfactor import TargetSpec, lbf_terms
from bfchart.chart import (
    Ar1Model,
    asymptotic_sigma_z2,
    calibrate_c,
    design_chart,
    estimate_arl,
)
from bfchart.diagnostics import fit_report, lag1_autocorr, skewness
from bfchart.dwr import DwrConfig, FilterState, run_filter, scale_sequence, steady_state_scale
from bfchart.linalg import make_rng, sample_mvn
from bfchart.simulate import gen_ar1, gen_local_level, scenario_lbf_study
from bfchart.workflow import phase1, phase2

SIGMA = np.array([[1.0, 2.0], [2.0, 5.0]])


def _report(capsys, number, ok, description, detail):
    line = f"[acceptance {number:02d}] {'PASS' if ok else 'FAIL'} {description} -- {detail}"
    with capsys.disabled():
        print(line)
    assert ok, line


def test_criterion_01_steady_state_limit(capsys):
    failures = []
    worst = 0.0
    for delta in np.round(np.arange(0.1, 1.0, 0.1), 1):
        seq = scale_sequence(float(delta), p0=1e-3, n=1500)
        deviation = float(np.max(np.abs(seq[199:] - steady_state_scale(float(delta)))))
        worst = max(worst, deviation)
        if deviation >= 1e-9:
            failures.append(f"delta={delta}: {deviation:.3e}")
    seq_02 = scale_sequence(0.2, p0=1e-3, n=100)
    if not np.all(seq_02[13:] < 1.0):
        failures.append("P_t >= 1 for some t > 13 at delta=0.2")
    seq_09 = scale_sequence(0.9, p0=1e-3, n=100)
    if not np.all(seq_09[1:] < 1.0):
        failures.append("P_t >= 1 for some t > 1 at delta=0.9")
    _report(
        capsys, 1, not failures,
        "|P_t - limit| < 1e-9 for t >= 200 across the discount grid",
        "; ".join(failures) if failures else f"max deviation {worst:.2e}",
    )


def test_criterion_02_covariance_estimator(capsys):
    config = DwrConfig(dim=2, delta=0.9)
    reps = 500
    mean_s = np.zeros((2, 2))
    improved = 0
    for rep in range(reps):
        data = gen_local_level(config, SIGMA, 5000, make_rng(77, rep))
        path = run_filter(config, data)
        s_200, s_5000 = path.s_post[199], path.s_post[4999]
        mean_s += s_200
        err_200 = np.linalg.norm(s_200 - SIGMA) / np.linalg.norm(SIGMA)
        err_5000 = np.linalg.norm(s_5000 - SIGMA) / np.linalg.norm(SIGMA)
        improved += err_5000 < err_200
    mean_s /= reps
    mean_err = np.linalg.norm(mean_s - SIGMA) / np.linalg.norm(SIGMA)
    fraction = improved / reps
    # Oracle: the ideal estimator of Sigma (second moment of iid N(0, Sigma)
    # draws with known mean, nested 200 within 5000).  Sampling noise of order
    # 1/sqrt(n) caps its improvement fraction near 0.92, so the filter is held
    # to the oracle's fraction minus three standard errors of the difference.
    oracle_improved = 0
    for rep in range(reps):
        x = sample_mvn(np.zeros(2), SIGMA, 5000, make_rng(78, rep))
        s_200, s_5000 = x[:200].T @ x[:200] / 200, x.T @ x / 5000
        oracle_improved += np.linalg.norm(s_5000 - SIGMA) < np.linalg.norm(s_200 - SIGMA)
    q = oracle_improved / reps
    threshold = q - 3.0 * np.sqrt(2.0 * q * (1.0 - q) / reps)
    ok = mean_err < 0.05 and fraction >= threshold
    _report(
        capsys, 2, ok,
        "mean S_200 within 5% of Sigma; longer runs beat short ones in >= "
        "q - 3 se of seeds, q from the ideal iid estimator",
        f"mean rel Frobenius error {mean_err:.4f}, improvement fraction {fraction:.3f}, "
        f"oracle q {q:.3f}, threshold {threshold:.3f}",
    )


def test_criterion_03_calibration_design_point(capsys):
    ar = Ar1Model(0.0, 0.1, 1.0)
    result = calibrate_c(0.05, ar.phi, 370.4, reps=10**5, seed=0)
    chart = design_chart(ar, 0.05, 2.469)
    arl, se, _ = estimate_arl(chart, ar, 10**4, seed=1, cap=10**6)
    ok = 2.42 <= result.c <= 2.52 and 352.0 <= arl <= 389.0
    _report(
        capsys, 3, ok,
        "calibrated c in [2.42, 2.52]; ARL at c=2.469 in [352, 389]",
        f"c={result.c:.4f}, ARL={arl:.1f} +/- {se:.1f}",
    )


def test_criterion_04_shewhart_cross_check(capsys):
    chart = design_chart(Ar1Model(0.0, 0.0, 1.0), lam=1.0, c=3.0)
    arl, se, _ = estimate_arl(chart, Ar1Model(0.0, 0.0, 1.0), 10**4, seed=42,
                              cap=10**6)
    closed_form = 1.0 / (2.0 * norm.cdf(-3.0))
    ok = abs(arl - closed_form) <= 12.0
    _report(
        capsys, 4, ok,
        "Shewhart ARL within 12 of 1/(2 Phi(-3)) = 370.4",
        f"ARL={arl:.1f} +/- {se:.1f}, closed form {closed_form:.1f}",
    )


def test_criterion_05_asymptotic_variance(capsys):
    lam = 0.05
    ar = Ar1Model(0.0, 0.1, 1.0)
    x = gen_ar1(ar, 10**5, make_rng(30))
    z = np.empty(len(x))
    prev = 0.0
    for t, value in enumerate(x):
        prev = lam * value + (1.0 - lam) * prev
        z[t] = prev
    empirical = float(np.var(z[2000:]))
    formula = asymptotic_sigma_z2(lam, ar)
    rel = abs(empirical - formula) / formula
    iid = asymptotic_sigma_z2(lam, Ar1Model(0.0, 0.0, 2.5))
    iid_exact = abs(iid - 2.5 * lam / (2.0 - lam)) < 1e-14
    ok = rel < 0.05 and iid_exact
    _report(
        capsys, 5, ok,
        "empirical EWMA variance matches formula within 5%; phi=0 reduction exact",
        f"empirical {empirical:.5f} vs formula {formula:.5f} (rel {rel:.3f})",
    )


def test_criterion_06_lbf_identity_and_oracle(capsys):
    rng = make_rng(6)
    worst_identity = 0.0
    for _ in range(100):
        p = int(rng.integers(1, 5))
        a = rng.standard_normal((p, p))
        v = a @ a.T + 0.5 * np.eye(p)
        mu = rng.standard_normal(p)
        delta = rng.uniform(0.2, 1.0)
        p_scale = rng.uniform(0.05, 1.5)
        state = FilterState(delta=delta, t=4, m=mu.copy(), P=p_scale,
                            sum_outer=4 * delta * v / (delta + p_scale))
        value = lbf_terms(rng.standard_normal(p), state.m, state.P, state.S, state.delta,
                          TargetSpec(mu, v))
        worst_identity = max(worst_identity, abs(value))
    worst_oracle = 0.0
    for _ in range(1000):
        p = int(rng.integers(1, 5))
        a = rng.standard_normal((p, p))
        s = a @ a.T + 0.5 * np.eye(p)
        b = rng.standard_normal((p, p))
        v = b @ b.T + 0.5 * np.eye(p)
        state = FilterState(delta=rng.uniform(0.2, 1.0), t=9,
                            m=rng.standard_normal(p), P=rng.uniform(0.05, 1.5),
                            sum_outer=s * 9)
        target = TargetSpec(rng.standard_normal(p), v)
        y = rng.standard_normal(p) * 3.0
        value = lbf_terms(y, state.m, state.P, state.S, state.delta, target)
        pred_cov = (state.delta + state.P) * state.S / state.delta
        expected = (
            multivariate_normal.logpdf(y, mean=state.m, cov=pred_cov)
            - multivariate_normal.logpdf(y, mean=target.mu, cov=target.V)
        )
        worst_oracle = max(
            worst_oracle, abs(value - expected) / max(1.0, abs(expected))
        )
    ok = worst_identity < 1e-10 and worst_oracle < 1e-10
    _report(
        capsys, 6, ok,
        "lbf = 0 for identical densities; matches the density-ratio oracle",
        f"identity residual {worst_identity:.2e}, oracle residual {worst_oracle:.2e}",
    )


def test_criterion_07_scenario_study(capsys):
    study = scenario_lbf_study(n=1000, warmup=100, delta=0.9, seed=0)
    base = study["in_control"]
    skew = skewness(base)
    details = [f"skew(in_control)={skew:.3f}"]
    ok = abs(skew) < 0.5
    # signs frozen from the implementation-time oracle runs (seeds 0, 1, 2):
    # every shifted scenario moves the mean log Bayes factor upward
    for name in ("mean_shift", "cov_shift", "both_shift"):
        values = study[name]
        diff = values.mean() - base.mean()
        se = np.sqrt(values.var(ddof=1) / len(values) + base.var(ddof=1) / len(base))
        details.append(f"{name}: diff={diff:+.3f} ({diff / se:.1f} se)")
        ok = ok and diff > 3.0 * se
    _report(
        capsys, 7, ok,
        "in-control LBF roughly symmetric; shifted scenarios lift the mean by > 3 se",
        "; ".join(details),
    )


def test_criterion_08_forecast_error_whiteness(capsys):
    config = DwrConfig(dim=2, delta=0.9)
    data = gen_local_level(config, SIGMA, 2000, make_rng(21))
    path = run_filter(config, data)
    rhos = [lag1_autocorr(path.errors[50:, coord]) for coord in range(2)]
    ok = all(abs(r) < 0.1 for r in rhos)
    _report(
        capsys, 8, ok,
        "in-control one-step errors have |lag-1 autocorrelation| < 0.1",
        "rho = " + ", ".join(f"{r:+.4f}" for r in rhos),
    )


def test_criterion_09_msse_self_consistency(capsys):
    details = []
    ok = True
    for index, delta in enumerate((0.3, 0.5, 0.9)):
        config = DwrConfig(dim=2, delta=delta)
        data = gen_local_level(config, SIGMA, 1000, make_rng(9, index))
        path = run_filter(config, data)
        w = max(path.warmup, 10)
        covs = [
            (delta + path.p_pre[t]) * path.s_pre[t] / delta
            for t in range(w, 1000)
        ]
        report = fit_report(path.errors[w:], covs, data[w:])
        ok = ok and bool(np.all((report.msse > 0.8) & (report.msse < 1.2)))
        details.append(
            f"delta={delta}: [" + " ".join(f"{v:.3f}" for v in report.msse) + "]"
        )
    _report(capsys, 9, ok, "self-consistent simulation gives MSSE in (0.8, 1.2)",
            "; ".join(details))


def test_criterion_10_determinism_and_detection(capsys, tmp_path):
    # byte-identical CLI reruns
    train = tmp_path / "train.csv"
    cli.write_data(str(train), sample_mvn(np.zeros(2), SIGMA, 300, make_rng(100)))
    stream = tmp_path / "stream.csv"
    cli.write_data(str(stream), sample_mvn(np.zeros(2), SIGMA, 60, make_rng(101)))
    digests = {"model": set(), "report": set()}
    for run in ("one", "two"):
        model_path = tmp_path / f"model_{run}.json"
        report_path = tmp_path / f"report_{run}.json"
        code = cli.main([
            "fit", str(train), "--out", str(model_path), "--estimate-target",
            "--delta-grid", "0.8,0.9", "--reps", "1000", "--seed", "5",
        ])
        assert code == cli.EXIT_OK
        cli.main(["monitor", str(stream), "--model", str(model_path),
                  "--out", str(report_path)])
        digests["model"].add(model_path.read_bytes())
        report = json.loads(report_path.read_text())
        report.pop("model_file")  # echoes the per-run file name
        report.pop("model_sha256")
        digests["report"].add(json.dumps(report, sort_keys=True))
    deterministic = len(digests["model"]) == 1 and len(digests["report"]) == 1

    # detection drill: a three-target-standard-deviation mean shift must
    # signal within 50 monitored points in at least 90 of 100 seeded runs
    target = TargetSpec(np.zeros(2), SIGMA)
    model = phase1(
        sample_mvn(np.zeros(2), SIGMA, 500, make_rng(102)),
        target=target,
        deltas=(0.8, 0.9),
        seed=3,
        calib_reps=2000,
    )
    shift = 3.0 * np.sqrt(SIGMA[0, 0])
    detected = 0
    for rep in range(100):
        data = sample_mvn(np.zeros(2), SIGMA, 50, make_rng(200, rep))
        data[:, 0] += shift
        if phase2(model, data).signals:
            detected += 1
    ok = deterministic and detected >= 90
    _report(
        capsys, 10, ok,
        "byte-identical CLI reruns; >= 90/100 shifted runs signal within 50 points",
        f"deterministic={deterministic}, detected={detected}/100",
    )

"""Array kernels agree with plain loop references, which are kept here as
oracles: elementwise scalar loops for the filter, the log Bayes factor, the
EWMA and the AR(1)+EWMA run length.  ``scipy.signal.lfilter`` is the oracle
of the linear-recurrence kernel."""

import json
import math
import os
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.signal import lfilter
from scipy.stats import multivariate_normal

import bfchart
from bfchart import _accel
from bfchart.bayesfactor import TargetSpec
from bfchart.dwr import FilterState, filter_path
from bfchart.exceptions import CovarianceNotReady
from bfchart.linalg import make_rng


def filter_path_loop(y, delta, m0, p0):
    """The discount local-level recursions, one scalar at a time."""
    n, p = y.shape
    e = np.empty((n, p))
    m_pre = np.empty((n, p))
    p_pre = np.empty(n)
    s_post = np.empty((n, p, p))
    m = np.array(m0, dtype=float)
    scale = p0
    acc = np.zeros((p, p))
    for t in range(n):
        p_pre[t] = scale
        denom = delta + scale
        for i in range(p):
            m_pre[t, i] = m[i]
            e[t, i] = y[t, i] - m[i]
        w = delta / denom
        for i in range(p):
            for j in range(p):
                acc[i, j] += w * (e[t, i] * e[t, j])
        for i in range(p):
            for j in range(p):
                s_post[t, i, j] = acc[i, j] / (t + 1.0)
        for i in range(p):
            m[i] = (delta * m[i] + scale * y[t, i]) / denom
        scale = 1.0 / denom
    return e, m_pre, p_pre, s_post, m, scale, acc


def fwd_quad_loop(L, d):
    """d' (L L')^{-1} d by scalar forward substitution."""
    p = d.shape[0]
    w = np.empty(p)
    acc = 0.0
    for i in range(p):
        s = d[i]
        for j in range(i):
            s -= L[i, j] * w[j]
        w[i] = s / L[i, i]
        acc += w[i] * w[i]
    return acc


def lbf_path_loop(y, path, target, start):
    """The log Bayes factor of each observation from ``start`` on."""
    n, p = y.shape
    m_pre, p_pre, s_pre, delta = path.m_pre, path.p_pre, path.s_pre, path.delta
    out = np.full(n, np.nan)
    base = 0.5 * p * math.log(delta) + 0.5 * target.logdet
    for t in range(start, n):
        q_target = fwd_quad_loop(target.chol, y[t] - target.mu)
        ls = np.linalg.cholesky(s_pre[t])
        logdet_s = 2.0 * sum(math.log(ls[i, i]) for i in range(p))
        q_pred = fwd_quad_loop(ls, y[t] - m_pre[t])
        denom = delta + p_pre[t]
        out[t] = (
            base
            - 0.5 * p * math.log(denom)
            - 0.5 * logdet_s
            + 0.5 * q_target
            - 0.5 * delta * q_pred / denom
        )
    return out


def ewma_path_loop(x, lam, z0):
    z = np.empty(x.shape[0])
    prev = z0
    for t in range(x.shape[0]):
        prev = lam * x[t] + (1.0 - lam) * prev
        z[t] = prev
    return z


def rl_chunk_loop(noise, x, z, phi, icept, lam, ucl, lcl):
    for k in range(noise.shape[0]):
        x = icept + phi * x + noise[k]
        z = lam * x + (1.0 - lam) * z
        if z > ucl or z < lcl:
            return k + 1, True, x, z
    return noise.shape[0], False, x, z


def fresh_state(delta, m0, p0):
    """The filter state with no observation absorbed, mean m0 and scale p0."""
    p = len(m0)
    return FilterState(delta, 0, np.array(m0, dtype=float), p0, np.zeros((p, p)))


def filter_inputs(seed=70, n=60, p=3, delta=0.8):
    y = np.ascontiguousarray(make_rng(seed).standard_normal((n, p)))
    return y, delta, np.zeros(p), 1e-3


def lbf_inputs(seed=71, n=60, p=2, delta=0.9, start=10):
    """(y, path, target, start): the loop oracle's filter run over y holds
    the fields of a ``FilterPath`` that ``lbf_path`` reads."""
    y, delta, m0, p0 = filter_inputs(seed, n, p, delta)
    e, m_pre, p_pre, s_post, _, _, _ = filter_path_loop(y, delta, m0, p0)
    s_pre = np.concatenate([np.zeros((1, p, p)), s_post[:-1]], axis=0)
    path = SimpleNamespace(m_pre=m_pre, p_pre=p_pre, s_pre=s_pre, delta=delta)
    v = np.array([[1.0, 0.3], [0.3, 2.0]])[:p, :p]
    return y, path, TargetSpec(np.zeros(p), v), start


class TestFilterPath:
    def test_loop_and_numpy_references_agree(self):
        y, delta, m0, p0 = filter_inputs()
        e, m_pre, p_pre, s_post, m, scale, acc = filter_path_loop(y, delta, m0, p0)
        state = FilterState(delta, 0, m0.copy(), p0, np.zeros((3, 3)))
        for t, row in enumerate(y):
            assert state.P == p_pre[t]
            np.testing.assert_allclose(state.step(row), e[t], atol=1e-13)
            np.testing.assert_allclose(state.S, s_post[t], atol=1e-13)
        np.testing.assert_allclose(state.m, m, atol=1e-13)
        np.testing.assert_allclose(state.sum_outer, acc, atol=1e-13)

    def test_active_kernel_matches_reference(self):
        # 500 rows take delta = 0.1 past the point where P_t settles
        y, delta, m0, p0 = filter_inputs(seed=72, n=500, p=2, delta=0.1)
        path = filter_path(y, fresh_state(delta, m0, p0))
        final = path.final
        got = (path.errors, path.m_pre, path.p_pre, path.s_post, final.m, final.P,
               final.sum_outer)
        for a, b in zip(got, filter_path_loop(y, delta, m0, p0)):
            np.testing.assert_allclose(a, b, atol=1e-13)
        assert final.t == len(y)

    def test_p_sequence_is_the_scalar_recursion(self):
        y, delta, m0, p0 = filter_inputs(n=400, delta=0.2)
        path = filter_path(y, fresh_state(delta, m0, p0))
        _, _, want, _, _, want_final, _ = filter_path_loop(y, delta, m0, p0)
        np.testing.assert_array_equal(path.p_pre, want)
        assert path.final.P == want_final

    def test_s_post_is_exactly_symmetric(self):
        y, delta, m0, p0 = filter_inputs(n=200, p=4)
        s_post = filter_path(y, fresh_state(delta, m0, p0)).s_post
        np.testing.assert_array_equal(s_post, np.swapaxes(s_post, 1, 2))


class TestLbfPath:
    def test_loop_and_numpy_references_agree(self):
        y, path, target, start = lbf_inputs()
        loop = lbf_path_loop(y, path, target, start)
        delta = path.delta
        for t in range(start, len(y)):
            cov = (delta + path.p_pre[t]) * path.s_pre[t] / delta
            want = (multivariate_normal.logpdf(y[t], path.m_pre[t], cov)
                    - multivariate_normal.logpdf(y[t], target.mu, target.V))
            assert loop[t] == pytest.approx(want, rel=1e-10, abs=1e-10)

    def test_active_kernel_matches_reference(self):
        args = lbf_inputs(seed=73)
        y, _, _, start = args
        got = _accel.lbf_path(*args)
        # the scored rows only, with no prefix for the rows before start
        assert got.shape == (len(y) - start,)
        np.testing.assert_allclose(got, lbf_path_loop(*args)[start:], atol=1e-12)

    def test_matches_density_ratio_oracle(self):
        rng = make_rng(79)
        for p in (1, 2, 3, 5):
            n = 40
            a = rng.standard_normal((n, p, p))
            s = a @ np.swapaxes(a, 1, 2) + 0.3 * np.eye(p)
            m = rng.standard_normal((n, p))
            scales = rng.uniform(0.05, 1.5, n)
            delta = 0.7
            b = rng.standard_normal((p, p))
            v = b @ b.T + 0.5 * np.eye(p)
            mu = rng.standard_normal(p)
            y = 2.0 * rng.standard_normal((n, p))
            got = _accel._lbf(y, m, scales, s, delta, TargetSpec(mu, v))
            want = [
                multivariate_normal.logpdf(y[t], m[t], (delta + scales[t]) * s[t] / delta)
                - multivariate_normal.logpdf(y[t], mu, v)
                for t in range(n)
            ]
            np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-10)

    def test_constant_state_broadcasts(self):
        y, path, target, _ = lbf_inputs(seed=80)
        m, scale, s = path.m_pre[30], path.p_pre[30], path.s_pre[30]
        n = len(y)
        once = _accel._lbf(y, m, scale, s, path.delta, target)
        tiled = _accel._lbf(y, np.tile(m, (n, 1)), np.full(n, scale),
                            np.tile(s, (n, 1, 1)), path.delta, target)
        np.testing.assert_allclose(once, tiled, atol=1e-13)

    def test_names_the_first_covariance_that_is_not_ready(self):
        y, path, target, _ = lbf_inputs(seed=81)
        s_pre = path.s_pre
        s_pre[23] = [[1.0, 2.0], [2.0, 1.0]]
        s_pre[40] = np.nan
        with pytest.raises(CovarianceNotReady, match="at t=23"):
            _accel.lbf_path(y, path, target, 10)
        s_pre[23] = s_pre[22]
        with pytest.raises(CovarianceNotReady, match="at t=40"):
            _accel.lbf_path(y, path, target, 10)
        # a NaN matrix factors without raising; it still comes first
        s_pre[40] = [[1.0, 2.0], [2.0, 1.0]]
        s_pre[23] = np.nan
        with pytest.raises(CovarianceNotReady, match="at t=23"):
            _accel.lbf_path(y, path, target, 10)

    def test_matches_sequential_scorer(self):
        from bfchart.bayesfactor import lbf

        y, path, target, start = lbf_inputs(seed=74)
        state = FilterState(
            delta=path.delta,
            t=start,
            m=path.m_pre[start].copy(),
            P=path.p_pre[start],
            sum_outer=path.s_pre[start] * start,
        )
        expected = []
        for row in y[start:]:
            expected.append(lbf(row, state, target))
            state.step(row)
        out = _accel.lbf_path(y, path, target, start)
        np.testing.assert_allclose(out, expected, atol=1e-10)


B = _accel._BLOCK


class TestRecurrence:
    """``recurrence`` against ``lfilter`` on calibration's AR(1)+EWMA cascade
    (second order) and on its two first-order stages, for one and for many
    rows, at lengths around the block width."""

    @staticmethod
    def assert_matches_lfilter(b0, a, x, zi):
        y, zf = _accel.recurrence(b0, a, x, zi)
        want, want_zf = lfilter([b0], [1.0, *a], x, zi=zi)
        scale = max(1.0, float(np.abs(want).max()))
        assert y.shape == want.shape and zf.shape == want_zf.shape
        np.testing.assert_allclose(y, want, rtol=0, atol=5e-14 * scale)
        np.testing.assert_allclose(zf, want_zf, rtol=0, atol=5e-14 * scale)

    @pytest.mark.parametrize("rows", [1, 1000])
    @pytest.mark.parametrize("steps", [1, 2, B - 1, B, B + 1, 2048])
    @pytest.mark.parametrize("lam", [0.05, 1.0])
    @pytest.mark.parametrize("phi", [-0.9, 0.0, 0.1, 0.95])
    def test_matches_lfilter(self, phi, lam, steps, rows):
        rng = make_rng(82, steps)
        x = rng.standard_normal((rows, steps))
        zi = rng.standard_normal((rows, 2))
        damp = 1.0 - lam
        self.assert_matches_lfilter(0.3, (-(phi + damp), phi * damp), x, zi)
        self.assert_matches_lfilter(1.0, (-phi,), x, zi[:, :1])
        self.assert_matches_lfilter(lam, (-damp,), x, zi[:, 1:])

    @pytest.mark.parametrize("steps", [1, 2, 3 * B + 5, 100_000])
    def test_one_dimensional_series(self, steps):
        x = make_rng(83).standard_normal(steps)
        self.assert_matches_lfilter(0.05, (-0.95,), x, [0.4])
        self.assert_matches_lfilter(0.05, (-1.04, 0.0855), x, [0.4, -0.2])

    def test_leaves_its_input_alone(self):
        x = make_rng(84).standard_normal((3, 2 * B + 1))
        zi = np.ones((3, 2))
        before = x.copy(), zi.copy()
        _accel.recurrence(0.5, (-0.9, 0.1), x, zi)
        np.testing.assert_array_equal(x, before[0])
        np.testing.assert_array_equal(zi, before[1])

    def test_empty_input_keeps_the_state(self):
        y, zf = _accel.recurrence(0.5, (-0.9, 0.1), np.empty((4, 0)), np.ones((4, 2)))
        assert y.shape == (4, 0)
        np.testing.assert_array_equal(zf, np.ones((4, 2)))


class TestEwmaPath:
    def test_references_agree(self):
        x = make_rng(75).standard_normal(200)
        np.testing.assert_allclose(
            _accel.ewma_path(x, 0.05, 0.3), ewma_path_loop(x, 0.05, 0.3), atol=1e-13
        )

    def test_active_kernel_matches_reference(self):
        # closed form: z_t = (1-lam)^(t+1) z0 + lam sum_k (1-lam)^(t-k) x_k
        x = make_rng(76).standard_normal(200)
        lam, z0 = 0.2, -1.0
        t = np.arange(200)
        lags = t[:, None] - t[None, :]
        weights = np.where(lags >= 0, lam * (1.0 - lam) ** np.maximum(lags, 0), 0.0)
        want = (1.0 - lam) ** (t + 1) * z0 + weights @ x
        np.testing.assert_allclose(_accel.ewma_path(x, lam, z0), want, atol=1e-13)

    def test_empty_input(self):
        assert _accel.ewma_path(np.empty(0), 0.1, 0.0).shape == (0,)


def cascade_state(x, z, phi, lam):
    """The ``recurrence`` state of the AR(1)+EWMA cascade at (x, z)."""
    return np.array([lam * phi * x + (1.0 - lam) * z, -phi * (1.0 - lam) * z])


class TestRunLengthChunk:
    @pytest.mark.parametrize("scale", [0.2, 3.0])  # no-signal and signal regimes
    def test_references_agree(self, scale):
        noise = scale * make_rng(77).standard_normal(500)
        phi, icept, lam = 0.3, 0.05, 0.1
        start = cascade_state(0.1, 0.0, phi, lam)
        a = rl_chunk_loop(noise, 0.1, 0.0, phi, icept, lam, 0.5, -0.5)
        b = _accel.run_length_chunk(noise, start, phi, icept, lam, 0.5, -0.5)
        assert a[:2] == b[:2] and a[1] == (scale > 1.0)
        assert type(b[0]) is int
        # the state after the whole chunk, whether or not it signalled
        _, _, x, z = rl_chunk_loop(noise, 0.1, 0.0, phi, icept, lam, np.inf, -np.inf)
        np.testing.assert_allclose(b[2], cascade_state(x, z, phi, lam),
                                   rtol=0, atol=1e-12)

    def test_active_kernel_matches_reference(self):
        # two chunks carrying the state end where one pass over both ends
        noise = 0.2 * make_rng(78).standard_normal(500)
        phi, icept, lam, ucl, lcl = 0.1, 0.0, 0.05, 0.3, -0.3
        args = (phi, icept, lam, ucl, lcl)
        whole = rl_chunk_loop(noise, 0.0, 0.0, *args)
        state = cascade_state(0.0, 0.0, phi, lam)
        steps, signalled, state = _accel.run_length_chunk(noise[:200], state, *args)
        assert (steps, signalled) == (200, False)
        steps, signalled, state = _accel.run_length_chunk(noise[200:], state, *args)
        assert (200 + steps, signalled) == whole[:2] == (500, False)
        np.testing.assert_allclose(state, cascade_state(*whole[2:], phi, lam),
                                   rtol=0, atol=1e-12)


def test_import_loads_no_scipy():
    # scipy is not a runtime dependency; loading it would about double the
    # start-up of every bfchart process
    code = ("import sys, bfchart\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(bfchart.__file__))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out == "[]\n"


def test_cli_commands_load_no_scipy(tmp_path):
    # every command in one fresh process: simulate, fit (which calibrates),
    # calibrate, and monitor frozen with report and plot and with --tracking
    calls = [
        ["simulate", "-n", "300", "--seed", "1", "--out", "train.csv"],
        ["simulate", "-n", "200", "--seed", "2", "--out", "new.csv"],
        ["simulate", "--dwr", "-n", "50", "--out", "level.csv"],
        ["fit", "train.csv", "--estimate-target", "--reps", "200", "--out", "model.json"],
        ["calibrate", "--lambda", "0.05", "--phi", "0.1", "--reps", "200"],
        ["monitor", "new.csv", "--model", "model.json", "--out", "report.json",
         "--plot", "chart.svg"],
        ["monitor", "new.csv", "--model", "model.json", "--tracking"],
    ]
    code = ("import json, sys\n"
            "from bfchart import cli\n"
            f"codes = [cli.main(argv) for argv in {calls!r}]\n"
            "scipy = sorted(m for m in sys.modules if m.startswith('scipy'))\n"
            "print(json.dumps([codes, scipy]), file=sys.stderr)")
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(bfchart.__file__))}
    err = subprocess.run([sys.executable, "-c", code], env=env, cwd=tmp_path,
                         capture_output=True, text=True, check=True).stderr
    codes, modules = json.loads(err.splitlines()[-1])
    assert set(codes) <= {0, 10}  # ok, or a signal in the new data
    assert modules == []

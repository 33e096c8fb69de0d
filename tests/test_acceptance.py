"""Acceptance suite: one test per shipped guarantee, each recording a
pass/fail line (printed in the terminal summary).

The synthetic end-to-end criterion trains the desk-scale configuration from
scratch; expected quality numbers live in acceptance_baseline.json next to
this file (reference values measured once and committed).
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

import _acceptance_report
from etsfore import autodiff as ad
from etsfore import classical, data, esa, freq, trainer
from etsfore.cli import bench_esa
from etsfore.model import ModelConfig, ModelState, forecast, forward, mse_loss
from etsfore.trainer import TrainConfig, evaluate_state, load_checkpoint, lr_at, save_checkpoint, train

BASELINE = json.loads((Path(__file__).parent / "acceptance_baseline.json").read_text())


def check(criterion, ok, detail):
    _acceptance_report.record(criterion, ok, detail)
    assert ok, f"{criterion}: {detail}"


class TestCriterion01EsaOracleEquivalence:
    def test_fast_kernel_matches_naive_on_200_random_cases(self):
        rng = np.random.default_rng(2024)
        start = time.time()
        worst = 0.0
        for _ in range(200):
            L = int(rng.integers(1, 513))
            d = int(rng.integers(1, 17))
            V = rng.normal(size=(L, d))
            alpha, v0 = rng.uniform(0.01, 0.99), rng.normal(size=d)
            with ad.no_grad():
                fast = esa.esa_fast_t(ad.Tensor(V), alpha, ad.Tensor(v0)).data
            diff = np.abs(fast - esa.esa_naive(V, alpha, v0)).max()
            worst = max(worst, diff)
        elapsed = time.time() - start
        check(
            "1 ESA oracle equivalence",
            worst < 1e-9 and elapsed < 30.0,
            f"200 cases, max abs diff {worst:.2e} (< 1e-9), {elapsed:.1f}s (< 30s)",
        )


class TestCriterion02AttentionMatrixInvariants:
    def test_row_sums_monotonicity_shift_structure(self):
        rng = np.random.default_rng(7)
        worst_sum = 0.0
        monotone = True
        shift_ok = True
        for _ in range(50):
            alpha = rng.uniform(0.05, 0.95)
            L = int(rng.integers(1, 129))
            A = esa.attention_matrix(alpha, L)
            worst_sum = max(worst_sum, np.abs(A.sum(axis=1) - 1.0).max())
            for t in range(L):
                band = A[t, 1 : t + 2]
                if not np.all(np.diff(band) > 0):
                    monotone = False
            for t in range(1, L):
                if not np.allclose(A[t, 2:], A[t - 1, 1:-1], atol=1e-15):
                    shift_ok = False
        check(
            "2 attention-matrix invariants",
            worst_sum < 1e-12 and monotone and shift_ok,
            f"50 cases: row-sum err {worst_sum:.2e} (< 1e-12), "
            f"strict recency {monotone}, right-shift {shift_ok}",
        )


class TestCriterion03LevelSmoothing:
    def test_fast_path_matches_recurrence_on_100_instances(self):
        rng = np.random.default_rng(11)
        worst = 0.0
        for _ in range(100):
            L = int(rng.integers(1, 65))
            m = int(rng.integers(1, 5))
            level_prev = rng.normal(size=(L, m))
            s_obs = rng.normal(size=(L, m))
            b_obs = rng.normal(size=(L, m))
            alpha = rng.uniform(0.05, 0.95, size=m)
            init = rng.normal(size=m)
            fast = esa.level_smoothing(
                ad.Tensor(level_prev), ad.Tensor(s_obs), ad.Tensor(b_obs),
                ad.Tensor(alpha), ad.Tensor(init),
            ).data
            slow = esa.level_recurrence(level_prev, s_obs, b_obs, alpha, init)
            worst = max(worst, np.abs(fast - slow).max())
        check(
            "3 level smoothing fast path",
            worst < 1e-9,
            f"100 instances, max abs diff {worst:.2e} (< 1e-9)",
        )


class TestCriterion04FrequencyAttention:
    def test_constant_tone_completeness_and_dft(self):
        rng = np.random.default_rng(13)
        const_in = np.full((40, 2), 3.25)
        const_err = np.abs(freq.fourier_extrapolate(const_in, 3, np.arange(40)).data).max()

        j = np.arange(16)
        tone = np.cos(2 * np.pi * j / 8)[:, None]
        recon = freq.fourier_extrapolate(tone, 1, np.arange(32)).data[:, 0]
        tone_err = np.abs(recon - np.cos(2 * np.pi * np.arange(32) / 8)).max()

        L = 33
        x = rng.normal(size=(L, 3))
        full = freq.fourier_extrapolate(x, L // 2, np.arange(L)).data
        full_err = np.abs(full - (x - x.mean(axis=0))).max()

        dft_err = 0.0
        for L2 in (1, 2, 3, 8, 17, 32, 64):
            sig = rng.normal(size=L2)
            direct = np.array(
                [sum(sig[n] * np.exp(-2j * np.pi * k * n / L2) for n in range(L2))
                 for k in range(L2 // 2 + 1)]
            )
            dft_err = max(dft_err, np.abs(freq.dft_real(sig) - direct).max())

        # constant input is zero up to FFT roundoff on composite lengths
        ok = const_err < 1e-12 and tone_err < 1e-9 and full_err < 1e-9 and dft_err < 1e-10
        check(
            "4 frequency attention correctness",
            ok,
            f"constant {const_err:.1e} (< 1e-12), tone {tone_err:.2e} (< 1e-9), "
            f"full-K {full_err:.2e} (< 1e-9), DFT {dft_err:.2e} (< 1e-10)",
        )


class TestCriterion05GradientIntegrity:
    def test_full_tiny_model_finite_difference_check(self):
        cfg = ModelConfig(lookback=16, horizon=4, channels=2, dim=8, ff_dim=16,
                          layers=1, heads=2, top_k=2, dropout=0.2)
        state = ModelState.init(cfg, seed=26)
        rng = np.random.default_rng(27)
        x = rng.normal(size=(16, 2))
        y = rng.normal(size=(4, 2))

        worst_name, worst = "", 0.0
        for name, p in state.params.items():
            state.zero_grad()
            err = ad.grad_check(
                lambda t: mse_loss(forward(x, state), y), p, eps=1e-5
            )
            if err > worst:
                worst_name, worst = name, err
        check(
            "5 gradient integrity",
            worst < 1e-4,
            f"all {len(state.params)} parameter tensors, worst rel err "
            f"{worst:.2e} at {worst_name} (< 1e-4)",
        )


class TestCriterion06ComplexityScaling:
    def test_fft_kernel_scales_quasilinearly(self):
        spec = BASELINE["bench"]
        rows = bench_esa(spec["lengths"], d=8, repeats=10, seed=0)
        naive_ratio = rows[1]["naive_ms"] / rows[0]["naive_ms"]
        fast_ratio = rows[1]["fast_ms"] / rows[0]["fast_ms"]
        ok = fast_ratio < spec["fast_ratio_max"] and naive_ratio >= spec["naive_ratio_min"]
        check(
            "6 complexity scaling",
            ok,
            f"L {spec['lengths'][0]}->{spec['lengths'][1]}: fast ratio {fast_ratio:.2f} "
            f"(< {spec['fast_ratio_max']}), naive ratio {naive_ratio:.2f} "
            f"(>= {spec['naive_ratio_min']})",
        )


@pytest.fixture(scope="module")
def synthetic_run():
    spec = BASELINE["synthetic"]
    start = time.time()
    train_ds = data.synth_generate(spec["train_instances"], spec["noise_std"],
                                   seed=spec["data_seeds"]["train"])
    val_ds = data.synth_generate(128, spec["noise_std"], seed=spec["data_seeds"]["val"])
    test_ds = data.synth_generate(64, 0.0, seed=spec["data_seeds"]["test"])
    stats = data.compute_stats(np.stack([p.lookback for p in train_ds.window_pairs()]))

    def norm(pairs):
        return [
            data.WindowPair(data.normalize(p.lookback, stats),
                            data.normalize(p.target, stats), p.origin)
            for p in pairs
        ]

    tr, va, te = map(norm, (train_ds.window_pairs(), val_ds.window_pairs(),
                            test_ds.window_pairs()))
    mcfg = ModelConfig(lookback=192, horizon=48, channels=1, dim=32, ff_dim=128,
                       layers=2, heads=4, top_k=2, dropout=0.2)
    tcfg = TrainConfig(base_lr=1e-3, epochs=15, warmup_epochs=3, batch_size=32,
                       seed=spec["train_seed"])
    ckpt, log = train(mcfg, tcfg, tr, va, stats)
    elapsed = time.time() - start
    return dict(ckpt=ckpt, log=log, test_pairs=te, stats=stats, elapsed=elapsed)


@pytest.mark.slow
class TestCriterion07SyntheticEndToEnd:
    def test_forecast_quality_and_seasonal_recovery(self, synthetic_run):
        spec = BASELINE["synthetic"]
        state = synthetic_run["ckpt"].to_state()
        te = synthetic_run["test_pairs"]
        X = np.stack([p.lookback for p in te])
        Y = np.stack([p.target for p in te])
        res = evaluate_state(state, X, Y, synthetic_run["stats"])

        dec = forecast(X, state)
        t_hor = np.arange(193, 241, dtype=np.float64)
        true_seasonal = np.stack([data.synth_seasonal(t_hor + i) for i in range(len(te))])
        corr = np.corrcoef(dec.seasonal[:, :, 0].ravel(), true_seasonal.ravel())[0, 1]

        elapsed_min = synthetic_run["elapsed"] / 60.0
        ok = (res["mse"] < spec["mse_max"] and corr >= spec["seasonal_corr_min"]
              and elapsed_min < 15.0)
        check(
            "7 synthetic end-to-end",
            ok,
            f"noiseless test MSE {res['mse']:.4f} (< {spec['mse_max']:.4f}), "
            f"seasonal corr {corr:.3f} (>= {spec['seasonal_corr_min']}), "
            f"train {elapsed_min:.1f} min (< 15)",
        )


class TestCriterion08ClassicalOracle:
    def test_damped_asymptote_and_vanilla_limit(self):
        state = classical.HwState(level=np.array([0.0, 0.0]), growth=np.array([0.0, 1.0]),
                                  seasonal=np.zeros(5), period=4)
        damped = classical.hw_forecast(state, classical.HwParams(0.5, 0.5, 0.5, phi=0.5, period=4), 60)
        asymptote_err = abs(damped[-1] - 0.5 * 1.0 / (1 - 0.5))

        vanilla = classical.hw_forecast(state, classical.HwParams(0.5, 0.5, 0.5, phi=1.0, period=4), 12)
        exact = np.array([0.0 + h * 1.0 for h in range(1, 13)])
        vanilla_exact = np.array_equal(vanilla, exact)
        check(
            "8 classical oracle",
            asymptote_err < 1e-9 and vanilla_exact,
            f"damped asymptote err {asymptote_err:.2e} at h=60 (< 1e-9), "
            f"undamped equals vanilla forecast exactly: {vanilla_exact}",
        )


class TestCriterion09DeterminismPersistence:
    def test_training_and_checkpoints_are_bit_stable(self, tmp_path):
        cfg = ModelConfig(lookback=16, horizon=4, channels=1, dim=8, ff_dim=16,
                          layers=1, heads=2, top_k=2, dropout=0.2)
        tcfg = TrainConfig(base_lr=1e-3, epochs=2, warmup_epochs=1, batch_size=8, seed=21)
        rng = np.random.default_rng(0)
        series = (np.sin(2 * np.pi * np.arange(70) / 8) + 0.1 * rng.normal(size=70))[:, None]
        pairs = [data.WindowPair(series[i : i + 16], series[i + 16 : i + 20], i + 16)
                 for i in range(50)]
        run1 = train(cfg, tcfg, pairs[:40], pairs[40:])
        run2 = train(cfg, tcfg, pairs[:40], pairs[40:])
        logs_identical = run1[1] == run2[1]
        params_identical = all(
            np.array_equal(run1[0].params[k], run2[0].params[k]) for k in run1[0].params
        )

        p1, p2 = tmp_path / "a.etsf", tmp_path / "b.etsf"
        save_checkpoint(run1[0], str(p1))
        save_checkpoint(load_checkpoint(str(p1)), str(p2))
        bytes_identical = p1.read_bytes() == p2.read_bytes()
        e1 = trainer.evaluate(load_checkpoint(str(p1)), pairs[40:])
        e2 = trainer.evaluate(load_checkpoint(str(p2)), pairs[40:])
        ok = logs_identical and params_identical and bytes_identical and e1 == e2
        check(
            "9 determinism & persistence",
            ok,
            f"same-seed logs identical {logs_identical}, params bit-equal "
            f"{params_identical}, save/load/save bytes identical {bytes_identical}, "
            f"reloaded evaluation identical {e1 == e2}",
        )


class TestCriterion10ScheduleContract:
    def test_learning_rate_endpoints_and_special_group(self):
        cfg = TrainConfig(base_lr=1e-3, epochs=15, warmup_epochs=3, batch_size=32)
        total = 15 * 63
        warmup = (total * 3) // 15
        at_warmup_end = lr_at(warmup - 1, total, cfg)[0]
        at_final = lr_at(total - 1, total, cfg)[0]
        specials = {lr_at(s, total, cfg)[1] for s in range(0, total, 13)}
        ok = (
            at_warmup_end == pytest.approx(1e-3)
            and at_final == pytest.approx(1e-30, abs=1e-32)
            and specials == {0.1}
        )
        check(
            "10 schedule contract",
            ok,
            f"warmup end {at_warmup_end:.1e} (= base), final {at_final:.1e} (= 1e-30), "
            f"special constant {specials} (= 100x base)",
        )

"""Acceptance gate: every criterion is exercised at its stated tolerance and
reports one pass/fail line (run with `pytest -s tests/test_acceptance.py` to
see the lines as they happen).

The criterion-6 noise sweep builds test-function rows (`sweep_recipe`).
"""

from dataclasses import replace

import numpy as np
import pytest

from bgsindy import (PrunerConfig, coefficient_error, discover, importance,
                     integrate_model, least_squares, relative_l2, stlsq,
                     structure_match, train_stridge)
from bgsindy.benchmarks import (discovery_recipe, run_discovery, run_sweep,
                                sweep_recipe)
from bgsindy.cli import main as cli_main
from bgsindy.differentiation import fd_diff, spectral_diff
from bgsindy.simulate import default_config, generate_benchmark, reference_model
from tests.test_pruner import synthetic_library


def check(name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}  {detail}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def kdv_result(kdv_dataset):
    return run_discovery(kdv_dataset, discovery_recipe("kdv"))


@pytest.fixture(scope="module")
def burgers_result(burgers_dataset):
    return run_discovery(burgers_dataset, discovery_recipe("burgers-hyper"))


@pytest.fixture(scope="module")
def ks_result(ks_dataset):
    return run_discovery(ks_dataset, discovery_recipe("modified-ks"))


@pytest.fixture(scope="module")
def rd_result(rd_dataset):
    return {f: run_discovery(rd_dataset, discovery_recipe("rd2d", f))
            for f in ("u", "v")}


class TestCriterion1Kdv:
    def test_recovery(self, kdv_dataset, kdv_result):
        model, trace, lib = kdv_result
        ref = reference_model("kdv")
        ok, report = structure_match(model, ref)
        check("criterion 1a: KdV exact structure {u u_x, u_xxx}", ok, str(report))
        err = coefficient_error(model, ref)
        check("criterion 1b: KdV coefficient error <= 5%", err <= 0.05,
              f"err={err:.4%}")
        pred = integrate_model(model, kdv_dataset,
                               dt=kdv_dataset.metadata["config"]["dt"])
        l2 = relative_l2(pred, kdv_dataset, "u")
        check("criterion 1c: KdV relative L2 <= 2%", l2 <= 0.02, f"L2={l2:.4%}")


class TestCriterion2Burgers:
    def test_recovery(self, burgers_dataset, burgers_result):
        model, trace, lib = burgers_result
        ref = reference_model("burgers-hyper")
        ok, report = structure_match(model, ref)
        check("criterion 2a: Burgers exact structure {u u_x, u_xx, u_xxxx}",
              ok, str(report))
        err = coefficient_error(model, ref)
        check("criterion 2b: Burgers coefficient error <= 0.1%", err <= 1e-3,
              f"err={err:.3e}")
        pred = integrate_model(model, burgers_dataset)
        l2 = relative_l2(pred, burgers_dataset, "u")
        check("criterion 2c: Burgers relative L2 <= 0.1%", l2 <= 1e-3,
              f"L2={l2:.3e}")


class TestCriterion3ModifiedKs:
    def test_recovery(self, ks_dataset, ks_result):
        model, trace, lib = ks_result
        ref = reference_model("modified-ks")
        ok, report = structure_match(model, ref)
        check("criterion 3a: modified KS exact 7-term structure", ok, str(report))
        assert len(model.terms) == 7
        err = coefficient_error(model, ref)
        check("criterion 3b: modified KS coefficient error <= 1%", err <= 0.01,
              f"err={err:.3e}")
        pred = integrate_model(model, ks_dataset)
        l2 = relative_l2(pred, ks_dataset, "u")
        check("criterion 3c: modified KS relative L2 <= 0.1%", l2 <= 1e-3,
              f"L2={l2:.3e}")


class TestCriterion4ReactionDiffusion:
    def test_recovery(self, rd_dataset, rd_result):
        models = {}
        for f in ("u", "v"):
            model, trace, lib = rd_result[f]
            ref = reference_model("rd2d", f)
            ok, report = structure_match(model, ref)
            check(f"criterion 4a: RD exact structure ({f} equation, both "
                  f"diffusion terms)", ok, str(report))
            models[f] = model
        pred = integrate_model([models["u"], models["v"]], rd_dataset)
        for f in ("u", "v"):
            l2 = relative_l2(pred, rd_dataset, f)
            check(f"criterion 4b: RD relative L2 <= 1% ({f})", l2 <= 0.01,
                  f"L2={l2:.3e}")


class TestCriterion5BaselineFailures:
    def test_baselines_fail_where_expected(self, kdv_dataset, ks_dataset,
                                           kdv_result, ks_result):
        libraries = {"kdv": kdv_result[2], "modified-ks": ks_result[2]}
        rows = []
        all_failed = True
        for bench, lib in libraries.items():
            ref = reference_model(bench)
            for th in (1e-1, 1e-2, 1e-3):
                m = stlsq(lib, th)
                ok, _ = structure_match(m, ref)
                rows.append((bench, f"stlsq(th={th:g})", ok))
                all_failed &= not ok
            m = train_stridge(lib, seed=0)
            ok, _ = structure_match(m, ref)
            rows.append((bench, "train_stridge(defaults)", ok))
            all_failed &= not ok
        print("\nbaseline structure-recovery table (expected: all False):")
        for bench, method, ok in rows:
            print(f"  {bench:12s} {method:24s} recovered={ok}")
        check("criterion 5: STLSQ and TrainSTRidge fail on KdV and modified KS",
              all_failed, f"{sum(ok for *_, ok in rows)} unexpected recoveries")


@pytest.fixture(scope="module")
def sweep_results(kdv_dataset):
    gammas = np.linspace(0.0, 0.25, 6)
    ns = [1000, 10_000, 100_000]
    return gammas, ns, run_sweep(kdv_dataset, gammas, ns, n_seeds=3,
                                 base_seed=0, recipe=sweep_recipe("kdv"))


class TestCriterion6NoiseRobustness:
    def test_structure_at_low_noise(self, sweep_results):
        # rows are test-function averages of the columns (sweep_recipe)
        gammas, ns, results = sweep_results
        ok = True
        detail = []
        for g in gammas[gammas <= 0.05 + 1e-12]:
            cells = [r for r in results if r["gamma"] == g and r["n"] == 100_000]
            got = sum(c["structure_ok"] for c in cells)
            detail.append(f"gamma={g:g}: {got}/{len(cells)} seeds")
            ok &= got == len(cells)
        check("criterion 6a: KdV structure recovered at gamma <= 5%, n = 1e5",
              ok, "; ".join(detail))

    def test_coefficient_error_monotone_in_n(self, sweep_results):
        # non-increasing in n at fixed gamma, "within run-to-run seed
        # variance" formalized as: a mean increase no larger than the
        # observed seed range (max - min over the 3 seeds, the honest noise
        # floor for a 3-sample mean comparison) of either cell
        gammas, ns, results = sweep_results
        ok = True
        detail = []
        for g in gammas:
            means, ranges = [], []
            for n in ns:
                errs = [r["coefficient_error"] for r in results
                        if r["gamma"] == g and r["n"] == n
                        and np.isfinite(r["coefficient_error"])]
                means.append(np.mean(errs) if errs else np.nan)
                ranges.append(max(errs) - min(errs) if len(errs) > 1 else 0.0)
            for i in range(len(ns) - 1):
                if np.isnan(means[i]) or np.isnan(means[i + 1]):
                    continue
                slack = max(ranges[i], ranges[i + 1])
                if means[i + 1] > means[i] + slack:
                    ok = False
                    detail.append(f"gamma={g:g}: err(n={ns[i+1]})="
                                  f"{means[i+1]:.3g} > err(n={ns[i]})="
                                  f"{means[i]:.3g} + {slack:.3g}")
        check("criterion 6b: coefficient error monotone non-increasing in n",
              ok, "; ".join(detail) or "all transitions within seed spread")

    def test_spot_check_clean_vs_noisy_cell(self, sweep_results):
        gammas, ns, results = sweep_results

        def mean_err(g, n):
            errs = [r["coefficient_error"] for r in results
                    if r["gamma"] == g and r["n"] == n
                    and np.isfinite(r["coefficient_error"])]
            return np.mean(errs) if errs else np.inf

        clean = mean_err(0.0, 100_000)
        noisy = mean_err(0.25, 1000)
        check("criterion 6c: clean full-sample cell beats noisiest sparse cell",
              clean < noisy, f"{clean:.3g} < {noisy:.3g}")


class TestCriterion7PropertySuites:
    def test_importance_bounds_1000(self):
        rng = np.random.default_rng(7)
        ok = True
        for _ in range(1000):
            phi = rng.standard_normal((rng.integers(1, 40), rng.integers(1, 9)))
            xi = rng.standard_normal(phi.shape[1]) * 10.0 ** rng.integers(-8, 8)
            w, W = importance(phi, xi)
            ok &= bool((w >= 0).all() and (w <= 1).all()
                       and (W >= 0).all() and (W <= 1).all())
        check("criterion 7a: importance bounds on 1000 random instances", ok)

    def test_rescaling_invariance_100(self):
        from dataclasses import replace as dreplace
        ok = True
        for seed in range(100):
            lib, _ = synthetic_library(n=300, m=6, k_true=2, noise=1e-4, seed=seed)
            _, t1 = discover(lib, PrunerConfig())
            rng = np.random.default_rng(seed + 10_000)
            scales = 2.0 ** rng.integers(-8, 9, lib.n_terms)
            scaled = lib.matrix * scales[None, :]
            lib2 = dreplace(lib, matrix=scaled)
            _, t2 = discover(lib2, PrunerConfig())
            ok &= [it.removed for it in t1.iterations] == \
                  [it.removed for it in t2.iterations]
            ok &= t1.selected_iteration == t2.selected_iteration
        check("criterion 7b: column-rescaling invariance on 100 libraries", ok)

    def test_residual_monotonicity_on_traces(self, kdv_result, burgers_result,
                                             ks_result, rd_result):
        traces = [kdv_result[1], burgers_result[1], ks_result[1],
                  rd_result["u"][1], rd_result["v"][1]]
        for seed in range(20):
            lib, _ = synthetic_library(n=500, m=8, k_true=3, noise=1e-4, seed=seed)
            traces.append(discover(lib, PrunerConfig())[1])
        ok = True
        for trace in traces:
            res = trace.residuals
            ok &= bool((np.diff(res) >= -1e-9 * np.maximum(res[:-1], 1e-300)).all())
        check("criterion 7c: Res_k non-decreasing on every recorded trace", ok,
              f"{len(traces)} traces")

    def test_least_squares_oracle_100(self):
        rng = np.random.default_rng(42)
        ok = True
        for _ in range(100):
            phi = rng.standard_normal((50, 5))
            y = rng.standard_normal(50)
            oracle = np.linalg.solve(phi.T @ phi, phi.T @ y)
            fit = least_squares(phi, y)
            ok &= bool(np.abs(fit.coefficients - oracle).max() < 1e-8)
        check("criterion 7d: least_squares vs normal-equations oracle", ok)

    def test_derivative_exactness(self):
        x = np.linspace(0.0, 1.0, 50)
        u = np.tile((x ** 3)[:, None], (1, 4))
        d2 = fd_diff(u, 0, x[1] - x[0], 2, 4)
        poly_ok = np.abs(d2 - 6 * x[:, None]).max() < 1e-9
        n = 128
        xs = 2 * np.pi * np.arange(n) / n
        sp = spectral_diff(np.cos(3 * xs), 0, 2 * np.pi / n, 1)
        eig_ok = np.abs(sp + 3 * np.sin(3 * xs)).max() < 1e-11
        check("criterion 7e: polynomial exactness and spectral eigenfunctions",
              poly_ok and eig_ok)

    def test_solver_self_convergence(self):
        c = default_config("kdv")
        finals = {}
        for dt, stride in ((1e-4, 10), (5e-5, 20), (2.5e-5, 40)):
            cfg = replace(c, dt=dt, output_stride=stride, t_final=0.25)
            finals[dt] = generate_benchmark("kdv", cfg).fields["u"][:, -1]
        r_kdv = (np.linalg.norm(finals[1e-4] - finals[5e-5])
                 / np.linalg.norm(finals[5e-5] - finals[2.5e-5]))
        ck = default_config("modified-ks")
        f2 = {}
        for dt, stride in ((0.004, 1), (0.002, 2), (0.001, 4)):
            f2[dt] = generate_benchmark(
                "modified-ks",
                replace(ck, dt=dt, output_stride=stride, t_final=2.0)).fields["u"][:, -1]
        r_ks = (np.linalg.norm(f2[0.004] - f2[0.002])
                / np.linalg.norm(f2[0.002] - f2[0.001]))
        check("criterion 7f: 4th-order self-convergence (factor >= 8)",
              r_kdv >= 8 and r_ks >= 8, f"kdv={r_kdv:.1f} ks={r_ks:.1f}")


class TestCriterion8Determinism:
    def test_full_pipeline_byte_identical(self, tmp_path):
        reports = []
        for tag in ("one", "two"):
            base = tmp_path / tag
            data = base / "data"
            run = base / "run"
            assert cli_main(["generate", "kdv", "--out", str(data)]) == 0
            assert cli_main(["discover", "--data", str(data / "kdv"),
                             "--benchmark", "kdv", "--out", str(run)]) == 0
            code = cli_main(["validate", "--model", str(run / "model.json"),
                             "--reference", str(data / "kdv"),
                             "--out", str(run / "report.json")])
            assert code == 0
            reports.append({
                "model": (run / "model.json").read_bytes(),
                "trace": (run / "trace.json").read_bytes(),
                "report": (run / "report.json").read_bytes(),
                "manifest": (run / "manifest.json").read_bytes(),
            })
        ok = all(reports[0][k] == reports[1][k] for k in reports[0])
        check("criterion 8: identical configs/seeds give byte-identical reports", ok)

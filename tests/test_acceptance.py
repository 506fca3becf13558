"""End-to-end acceptance checks.

Each test covers one numbered criterion and prints a single
"criterion N [PASS|FAIL] ..." line with the measured values before
asserting, so the full scorecard is visible in any pytest run.
"""

import dataclasses
import json
import math

import numpy as np
import pytest

from renyiqnn.cli import bundled_config_path
from renyiqnn.divergence import (
    fd_richardson,
    qbm_grad_forward,
    qbm_grad_frechet,
    qbm_grad_reverse,
    renyi2_forward,
    renyi2_reverse,
    uqnn_grad_forward,
    uqnn_grad_reverse,
)
from renyiqnn.hamiltonians import LCUHamiltonian, PauliTerm, normalize, random_two_local
from renyiqnn.models import (
    QBMParams,
    UQNNParams,
    build_qbm,
    build_uqnn,
    qbm_visible_state,
    uqnn_visible_state,
)
from renyiqnn.plateau import haar_gradient_moment, init_gradient_scan, lemma1_bounds
from renyiqnn.states import (
    DensityMatrix,
    haar_unitaries,
    random_density_matrix,
    thermal_state,
)
from renyiqnn.swaptest import (
    SwapTestSpec,
    mc_reverse_gradient_thermal,
    swap_test_probability,
    trace_power_estimate,
)
from renyiqnn.training import TrainConfig, run_ensemble
from tests.conftest import relative_entropy


def report(capsys, line: str) -> None:
    with capsys.disabled():
        print(line)


def load_train_config(name: str) -> tuple[TrainConfig, int]:
    doc = json.loads(open(bundled_config_path(name)).read())
    return TrainConfig(**doc["train"]), int(doc["n_runs"])


def traceless_hermitian(d: int, rng) -> np.ndarray:
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = (g + g.conj().T) / 2
    return m - np.trace(m) / d * np.eye(d)


@pytest.fixture(scope="module")
def fig2_ensemble():
    cfg, n_runs = load_train_config("fig2_3v3h.json")
    return run_ensemble(cfg, n_runs, vary="both")


@pytest.fixture(scope="module")
def fig2_no_hidden_ensemble():
    cfg, n_runs = load_train_config("fig2_3v3h.json")
    cfg = dataclasses.replace(cfg, n_h=0)
    return run_ensemble(cfg, n_runs, vary="both")


@pytest.fixture(scope="module")
def tau10_ensemble():
    cfg, n_runs = load_train_config("fig3_tau10.json")
    return run_ensemble(cfg, n_runs, vary="both")


def test_criterion_01_thermal_learning_mean_fidelity(capsys, fig2_ensemble):
    _, summary = fig2_ensemble
    cfg, _ = load_train_config("fig2_3v3h.json")
    mean_fid = summary.final("fidelity_mean")
    ok = mean_fid >= 0.95
    # an ADAM step moves each angle by at most about lr
    budget = f"step budget lr x epochs = {cfg.lr * cfg.epochs:.2g} rad per angle"
    report(
        capsys,
        f"criterion 1 [{'PASS' if ok else 'FAIL'}] 3v+3h 50-run mean final fidelity "
        f"{mean_fid:.4f} (need >= 0.95, lr {cfg.lr:g}, {cfg.epochs} epochs; {budget})",
    )
    assert ok, f"ensemble-mean final fidelity {mean_fid:.4f} < 0.95 ({budget})"


def test_criterion_02_hidden_units_help(capsys, fig2_ensemble, fig2_no_hidden_ensemble):
    _, with_h = fig2_ensemble
    _, without_h = fig2_no_hidden_ensemble
    gap = with_h.final("fidelity_mean") - without_h.final("fidelity_mean")
    ok = gap >= 0.02
    report(
        capsys,
        f"criterion 2 [{'PASS' if ok else 'FAIL'}] n_h=3 vs n_h=0 final-fidelity gap "
        f"{gap:+.4f} on shared targets (need >= +0.02)",
    )
    assert ok, f"fidelity gap {gap:+.4f} < 0.02"


def test_criterion_03_four_by_four(capsys):
    cfg, n_runs = load_train_config("figF1_4v4h.json")
    _, summary = run_ensemble(cfg, n_runs, vary="both")
    mean_fid = summary.final("fidelity_mean")
    ok = mean_fid >= 0.93
    report(
        capsys,
        f"criterion 3 [{'PASS' if ok else 'FAIL'}] 4v+4h {n_runs}-run mean fidelity at "
        f"epoch 100: {mean_fid:.4f} (need >= 0.93)",
    )
    assert ok, f"4v4h mean fidelity {mean_fid:.4f} < 0.93"


def test_criterion_04_qbm_tau10(capsys, tau10_ensemble):
    _, summary = tau10_ensemble
    init_mean = summary.stats["fidelity_mean"][0]
    final_mean = summary.final("fidelity_mean")
    ok_init = 0.30 <= init_mean <= 0.55
    ok_final = final_mean >= 0.70
    ok = ok_init and ok_final
    cfg, _ = load_train_config("fig3_tau10.json")
    basis = build_qbm(cfg.n_v, cfg.n_h, np.random.default_rng(0)).basis
    family = (
        f"model basis {max(len(t.axes) for t in basis)}-local, "
        f"target {cfg.target_locality}-local"
    )
    report(
        capsys,
        f"criterion 4 [{'PASS' if ok else 'FAIL'}] QBM tau=10 lambda=2: init mean "
        f"{init_mean:.4f} (need in [0.30, 0.55]: {'ok' if ok_init else 'MISS'}), final mean "
        f"{final_mean:.4f} at epoch 1000 (need >= 0.70: {'ok' if ok_final else 'MISS'}; {family})",
    )
    assert ok_init, f"initial mean fidelity {init_mean:.4f} outside [0.30, 0.55]"
    assert ok_final, f"final mean fidelity {final_mean:.4f} < 0.70 ({family})"


def test_criterion_05_qbm_tau5(capsys):
    cfg, n_runs = load_train_config("figF4_tau5.json")
    _, summary = run_ensemble(cfg, n_runs, vary="both")
    init_mean = summary.stats["fidelity_mean"][0]
    final_mean = summary.final("fidelity_mean")
    ok = final_mean >= init_mean + 0.02 and final_mean >= 0.63
    report(
        capsys,
        f"criterion 5 [{'PASS' if ok else 'FAIL'}] QBM tau=5: init mean {init_mean:.4f}, "
        f"final mean {final_mean:.4f} at epoch 200 (need >= init + 0.02 and >= 0.63)",
    )
    assert final_mean >= init_mean + 0.02, f"gain {final_mean - init_mean:+.4f} < 0.02"
    assert final_mean >= 0.63, f"final mean fidelity {final_mean:.4f} < 0.63"


def test_criterion_06_gradient_boundedness(capsys):
    base = TrainConfig(
        kind="qbm",
        n_v=4,
        n_h=2,
        epochs=200,
        lr=0.01,
        l2_penalty=2.0,
        seed=0,
        target_locality=3,
        tau=10.0,
    )
    from renyiqnn.training import train

    reg_max = float(np.max(train(base).column("grad_inf_norm")))
    free_max = float(
        np.max(train(dataclasses.replace(base, l2_penalty=0.0)).column("grad_inf_norm"))
    )
    ok_bounded = reg_max < 10.0
    ok_contrast = free_max >= 2.0 * reg_max
    ok = ok_bounded and ok_contrast
    report(
        capsys,
        f"criterion 6 [{'PASS' if ok else 'FAIL'}] 4v+2h 200 epochs: lambda=2 max grad "
        f"inf-norm {reg_max:.3f} (need < 10), lambda=0 max {free_max:.3f} "
        f"(need >= 2x = {2 * reg_max:.3f})",
    )
    assert ok_bounded, f"regularized max gradient {reg_max:.3f} >= 10"
    assert ok_contrast, f"unregularized max {free_max:.3f} < 2x regularized {reg_max:.3f}"


def conditioned_state(n: int, rng, floor: float = 1e-4) -> DensityMatrix:
    # states that get inverted inside the loss must stay comfortably
    # invertible or the finite-difference reference loses all significance;
    # the dense-oracle gradient tests cover ill-conditioned states instead
    while True:
        rho = random_density_matrix(n, rng)
        if float(np.linalg.eigvalsh(rho.mat).min()) >= floor:
            return rho


def conditioned_uqnn(n_v: int, n_h: int, rng, floor: float = 1e-4):
    while True:
        p = build_uqnn(n_v, n_h, rng)
        sv = uqnn_visible_state(p)
        if float(np.linalg.eigvalsh(sv.mat).min()) >= floor:
            return p


def test_criterion_07_gradient_correctness(capsys):
    rng = np.random.default_rng(7001)
    tol = lambda g: np.maximum(1e-6, 1e-4 * np.abs(g))

    uqnn_count, uqnn_worst = 0, 0.0
    rev_shapes = [(2, 0), (2, 1), (3, 0), (2, 2), (3, 1), (1, 1)]
    fwd_shapes = [(1, 1), (2, 2), (1, 2), (2, 3), (3, 3), (2, 4)]
    for i in range(26):
        n_v, n_h = rev_shapes[i % len(rev_shapes)]
        p = build_uqnn(n_v, n_h, rng)
        rho = conditioned_state(n_v, rng)
        analytic = uqnn_grad_reverse(p, rho)
        fd = fd_richardson(
            lambda th: renyi2_reverse(
                uqnn_visible_state(UQNNParams(n_v, n_h, p.generators, th)), rho
            ).value,
            p.thetas,
        )
        err = np.abs(analytic - fd)
        assert np.all(err <= tol(analytic)), f"uqnn reverse instance {i}: {err.max():.2e}"
        uqnn_worst = max(uqnn_worst, float((err / tol(analytic)).max()))
        uqnn_count += 1
    for i in range(26):
        n_v, n_h = fwd_shapes[i % len(fwd_shapes)]
        p = conditioned_uqnn(n_v, n_h, rng)
        rho = random_density_matrix(n_v, rng)
        analytic = uqnn_grad_forward(p, rho)
        fd = fd_richardson(
            lambda th: renyi2_forward(
                rho, uqnn_visible_state(UQNNParams(n_v, n_h, p.generators, th))
            ).value,
            p.thetas,
        )
        err = np.abs(analytic - fd)
        assert np.all(err <= tol(analytic)), f"uqnn forward instance {i}: {err.max():.2e}"
        uqnn_worst = max(uqnn_worst, float((err / tol(analytic)).max()))
        uqnn_count += 1

    qbm_count, qbm_worst = 0, 0.0
    qbm_shapes = [(2, 0), (2, 1), (3, 0), (2, 2), (3, 1), (1, 1)]
    for i in range(32):
        n_v, n_h = qbm_shapes[i % len(qbm_shapes)]
        p = build_qbm(n_v, n_h, rng)
        rho = conditioned_state(n_v, rng)
        if i % 2 == 0:
            analytic = qbm_grad_reverse(p, rho)
            loss = lambda th: renyi2_reverse(
                qbm_visible_state(QBMParams(n_v, n_h, p.basis, th)), rho
            ).value
        else:
            analytic = qbm_grad_forward(p, rho)
            loss = lambda th: renyi2_forward(
                rho, qbm_visible_state(QBMParams(n_v, n_h, p.basis, th))
            ).value
        fd = fd_richardson(loss, p.thetas)
        err = np.abs(analytic - fd)
        assert np.all(err <= tol(analytic)), f"qbm instance {i}: {err.max():.2e}"
        qbm_worst = max(qbm_worst, float((err / tol(analytic)).max()))
        qbm_count += 1

    frechet_worst = 0.0
    frechet_shapes = [(2, 0), (2, 1), (1, 1), (2, 2), (3, 0), (3, 1)]
    for i in range(12):
        n_v, n_h = frechet_shapes[i % len(frechet_shapes)]
        p = build_qbm(n_v, n_h, rng)
        rho = random_density_matrix(n_v, rng)
        d_rev = np.max(np.abs(qbm_grad_reverse(p, rho) - qbm_grad_frechet(p, rho, "reverse")))
        d_fwd = np.max(np.abs(qbm_grad_forward(p, rho) - qbm_grad_frechet(p, rho, "forward")))
        frechet_worst = max(frechet_worst, float(d_rev), float(d_fwd))
    ok = frechet_worst < 1e-8
    report(
        capsys,
        f"criterion 7 [{'PASS' if ok else 'FAIL'}] FD agreement on {uqnn_count} UQNN + "
        f"{qbm_count} QBM instances (worst {max(uqnn_worst, qbm_worst):.3f}x tolerance); "
        f"kernel vs Frechet worst diff {frechet_worst:.2e} (need < 1e-8)",
    )
    assert uqnn_count >= 50 and qbm_count >= 30
    assert ok, f"kernel vs Frechet worst difference {frechet_worst:.2e} >= 1e-8"


def test_criterion_08_swap_test_corpus(capsys):
    rng = np.random.default_rng(8001)
    checked = 0
    for n_regs in (1, 2, 3):
        for m_qubits in (1, 2):
            for trial in range(4):
                regs = [random_density_matrix(m_qubits, rng) for _ in range(n_regs)]
                if trial == 0:
                    us = [np.eye(2**m_qubits)] * n_regs
                else:
                    us = list(haar_unitaries(m_qubits, n_regs, rng))
                # the simulator itself raises if circuit and closed form
                # disagree beyond 1e-10, so a clean call is the check
                prob = swap_test_probability(SwapTestSpec(regs, us))
                assert -1e-12 <= prob <= 1 + 1e-12
                checked += 1
    report(
        capsys,
        f"criterion 8 [PASS] swap-test circuit matched the closed form to 1e-10 on "
        f"{checked} configurations (n <= 3 registers, <= 2 qubits, non-commuting unitaries)",
    )


def test_criterion_09_trace_power_coverage(capsys):
    rng = np.random.default_rng(9001)
    hits, total = 0, 0
    for trial in range(100):
        m = 2 + trial % 3
        rho = random_density_matrix(2, rng)
        exact = float(np.real(np.trace(np.linalg.matrix_power(rho.mat, m))))
        est = trace_power_estimate(rho, m, shots=10**4, rng=rng)
        if est.std_error > 0 and abs(est.mean - exact) <= 4 * est.std_error:
            hits += 1
        total += 1
    ok = hits / total >= 0.95
    report(
        capsys,
        f"criterion 9 [{'PASS' if ok else 'FAIL'}] trace powers m in 2..4 within "
        f"4 std errors in {hits}/{total} trials at 1e4 shots (need >= 95)",
    )
    assert ok, f"coverage {hits}/{total} below 95%"


def test_criterion_10_mc_gradient(capsys):
    rng = np.random.default_rng(10001)
    h = normalize(random_two_local(2, 0.4, 0.4, rng), 1.0)
    scale = 0.8 / sum(abs(t.coeff) for t in h.terms)
    h = LCUHamiltonian(2, [PauliTerm(t.coeff * scale, t.axes) for t in h.terms])
    assert sum(abs(t.coeff) for t in h.terms) <= 1.0
    p = build_uqnn(2, 0, rng)
    k = 2
    exact = uqnn_grad_reverse(p, thermal_state(h))[k - 1]
    est = mc_reverse_gradient_thermal(p, h, k, shots=10**5, rng=np.random.default_rng(10002))
    z = abs(est.mean - exact) / est.std_error
    est4 = mc_reverse_gradient_thermal(p, h, k, shots=4 * 10**5, rng=np.random.default_rng(10003))
    ratio = est.std_error / est4.std_error
    ok_z = z <= 4.0
    ok_ratio = 1.6 <= ratio <= 2.4
    ok = ok_z and ok_ratio
    report(
        capsys,
        f"criterion 10 [{'PASS' if ok else 'FAIL'}] MC gradient z = {z:.2f} at 1e5 shots "
        f"(need <= 4); std-error ratio at 4x shots {ratio:.2f} (need 2.0 +- 20%)",
    )
    assert ok_z, f"z score {z:.2f} > 4"
    assert ok_ratio, f"std-error ratio {ratio:.2f} outside [1.6, 2.4]"


def test_criterion_11_plateau_properties(capsys):
    rng = np.random.default_rng(11001)
    hits, total = 0, 0
    for n in (2, 3, 4, 5):
        for _ in range(6):
            sigma = random_density_matrix(n, rng)
            rho = random_density_matrix(n, rng)
            d = traceless_hermitian(2**n, rng)
            first, second = lemma1_bounds(sigma, d, n)
            m_rev = haar_gradient_moment(sigma, d, rho, "reverse", 100, rng)
            m_fwd = haar_gradient_moment(sigma, d, rho, "forward", 100, rng)
            hits += (m_rev >= 0.1 * second) + (m_fwd >= 0.1 * first)
            total += 2
    moment_rate = hits / total

    target = normalize(
        random_two_local(3, math.sqrt(0.1), 1.0, np.random.default_rng(11002)), 1.0
    )
    scan = init_gradient_scan(3, target, [0, 1, 2, 3], ensemble=25, rng=np.random.default_rng(11003))
    medians = {n_h: scan.stat(3, n_h, "reverse", "inf_norm_median") for n_h in (0, 1, 2, 3)}
    min_median = min(medians.values())
    ok_moments = moment_rate >= 0.9
    ok_medians = min_median > 1e-3
    ok = ok_moments and ok_medians
    med_text = ", ".join(f"n_h={k}: {v:.3f}" for k, v in medians.items())
    report(
        capsys,
        f"criterion 11 [{'PASS' if ok else 'FAIL'}] Haar moments >= 0.1x reference on "
        f"{hits}/{total} instances (n = 2..5, need >= 90%); epoch-0 gradient inf-norm "
        f"medians at n_v=3: {med_text} (need all > 1e-3)",
    )
    assert ok_moments, f"moment hit rate {moment_rate:.2f} < 0.9"
    assert ok_medians, f"smallest scan median {min_median:.2e} <= 1e-3"


def test_criterion_12_divergence_properties(capsys):
    rng = np.random.default_rng(12001)
    worst_gap = math.inf
    for _ in range(100):
        rho = random_density_matrix(2, rng)
        sigma = random_density_matrix(2, rng)
        gap = renyi2_forward(rho, sigma).value - relative_entropy(rho, sigma)
        worst_gap = min(worst_gap, gap)
    self_dev = 0.0
    for _ in range(5):
        rho = random_density_matrix(2, rng)
        self_dev = max(self_dev, abs(renyi2_forward(rho, rho).value))
    pair_rng = np.random.default_rng(12002)
    rho_f = random_density_matrix(2, pair_rng)
    sigma_f = random_density_matrix(2, pair_rng)
    asym = abs(renyi2_forward(rho_f, sigma_f).value - renyi2_reverse(sigma_f, rho_f).value)
    ok = worst_gap >= -1e-10 and self_dev <= 1e-9 and asym > 1e-6
    report(
        capsys,
        f"criterion 12 [{'PASS' if ok else 'FAIL'}] divergence dominates relative entropy "
        f"on 100 pairs (worst gap {worst_gap:+.3e}); self-divergence <= {self_dev:.1e} "
        f"(need <= 1e-9); asymmetry on fixed pair {asym:.3f}",
    )
    assert worst_gap >= -1e-10
    assert self_dev <= 1e-9
    assert asym > 1e-6

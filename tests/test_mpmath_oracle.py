"""Loss numerators against a 40-digit mpmath reference.

The reference takes the program's float inputs as exact (a statevector, the
dense model and target Hamiltonians) and evaluates the forward numerator
Tr(rho^2 sigma^-1) and the reverse numerator Tr(sigma^2 rho^-1) at 40
significant digits: thermal states and their inverses from mpmath's
Hermitian eigensolver, any other inverse by LU. Each case has an inverted
state with eigenvalues between about 1e-9 and 1e-7, where a numerator read
from a formed and re-diagonalized matrix is off by 1e-11 to 1e-8; read from
the states' factors it must agree to 1e-12 relative.
"""

import dataclasses

import numpy as np
import pytest
from mpmath import mp

from renyiqnn import cli, training
from renyiqnn.divergence import renyi2_forward, renyi2_reverse
from renyiqnn.models import build_qbm, qbm_visible_state, uqnn_statevector, uqnn_visible_state

REL_TOL = 1e-12


@pytest.fixture(autouse=True)
def forty_digits():
    with mp.workdps(40):
        yield


def _mp(a: np.ndarray):
    return mp.matrix(np.asarray(a, dtype=complex).tolist())


def _thermal(h: np.ndarray):
    """e^{-H} / Tr e^{-H} and its inverse, from the eigenpairs of the dense float H."""
    e, q = mp.eighe(_mp(h))
    w = [e[i] for i in range(q.rows)]
    x = [mp.exp(min(w) - wi) for wi in w]
    z = mp.fsum(x)
    return q * mp.diag([xi / z for xi in x]) * q.H, q * mp.diag([z / xi for xi in x]) * q.H


def _trace(a) -> mp.mpf:
    return mp.re(mp.fsum(a[i, i] for i in range(a.rows)))


def _hidden_trace(a, dv: int, dh: int):
    out = mp.matrix(dv, dv)
    for i in range(dv):
        for j in range(dv):
            out[i, j] = mp.fsum(a[i * dh + k, j * dh + k] for k in range(dh))
    return out


def _rel(got: float, want) -> float:
    return float(abs(mp.mpf(got) - want) / want)


def _fig3(**over) -> training.TrainConfig:
    doc = cli.load_experiment_config(cli.bundled_config_path("fig3_tau10.json"), "ham-learn")
    return dataclasses.replace(training.TrainConfig(**doc["train"]), **over)


class _Found(Exception):
    pass


def test_forward_circuit_state_of_validate_grad_seed_1(monkeypatch):
    # the 3v+3h state of grad-uqnn-fwd[10], drawn as `renyiqnn validate grad --seed 1` draws it
    found, hamiltonians = {}, []
    thermal = cli.thermal_state
    monkeypatch.setattr(cli, "thermal_state", lambda h: hamiltonians.append(h) or thermal(h))

    def capture(name, p, rho, direction, abs_tol, rel_tol):
        if name.startswith("grad-uqnn-fwd[10]"):
            found.update(p=p, rho=rho, h=hamiltonians[-1])
            raise _Found
        return cli.CheckResult(name, True, "")

    monkeypatch.setattr(cli, "_fd_check", capture)
    with pytest.raises(_Found):
        cli.main(["validate", "grad", "--seed", "1"])
    p, rho = found["p"], found["rho"]
    assert (p.n_v, p.n_h) == (3, 3)
    m = _mp(uqnn_statevector(p).reshape(8, 8))
    r, _ = _thermal(found["h"].dense())
    lv = renyi2_forward(rho, uqnn_visible_state(p))
    assert lv.conditioning == pytest.approx(3.27e-7, rel=1e-2)
    assert _rel(lv.numerator, _trace(r * r * mp.inverse(m * m.H))) <= REL_TOL


def test_forward_fully_visible_machine_with_scaled_weights():
    target_rng, init_rng = training.run_streams(0, 0, "both")
    h, rho = training.draw_target(_fig3(), target_rng)
    p = build_qbm(4, 0, init_rng)
    p.thetas = 8.0 * p.thetas
    r, _ = _thermal(h.dense())
    _, sigma_inv = _thermal(p.hamiltonian_dense())
    lv = renyi2_forward(rho, qbm_visible_state(p))
    assert lv.conditioning < 2e-7
    assert _rel(lv.numerator, _trace(r * r * sigma_inv)) <= REL_TOL


@pytest.mark.parametrize("direction", ["forward", "reverse"])
def test_machine_with_a_hidden_unit(direction):
    target_rng, init_rng = training.run_streams(0, 0, "both")
    h, rho = training.draw_target(_fig3(n_v=3), target_rng)
    p = build_qbm(3, 1, init_rng)
    p.thetas = 8.0 * p.thetas
    r, r_inv = _thermal(h.dense())
    sigma = _hidden_trace(_thermal(p.hamiltonian_dense())[0], 8, 2)
    if direction == "forward":
        lv, want = renyi2_forward(rho, qbm_visible_state(p)), _trace(r * r * mp.inverse(sigma))
    else:
        lv, want = renyi2_reverse(qbm_visible_state(p), rho), _trace(sigma * sigma * r_inv)
        assert lv.conditioning < 1e-7
    assert _rel(lv.numerator, want) <= REL_TOL


def test_reverse_run_against_a_tau10_target():
    cfg = _fig3(epochs=200)
    model = training.load_checkpoint_model(training.train(cfg).checkpoint)
    h, rho = training.draw_target(cfg, training.run_streams(cfg.seed, 0, "both")[0])
    sigma, _ = _thermal(model.hamiltonian_dense())
    _, r_inv = _thermal(h.dense())
    lv = renyi2_reverse(qbm_visible_state(model), rho)
    assert lv.conditioning < 1e-8
    assert _rel(lv.numerator, _trace(sigma * sigma * r_inv)) <= REL_TOL

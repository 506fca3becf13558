import math

import numpy as np
import pytest
from scipy.linalg import expm

from renyiqnn.divergence import (
    LossValue,
    SingularStateError,
    evaluate,
    fd_gradient,
    fd_richardson,
    frechet_exp_neg_derivative,
    qbm_grad_forward,
    qbm_grad_forward_frechet,
    qbm_grad_reverse,
    qbm_grad_reverse_frechet,
    relative_entropy,
    renyi2_forward,
    renyi2_reverse,
    state_gradient_entry,
    uqnn_grad_forward,
    uqnn_grad_linear,
    uqnn_grad_reverse,
)
from renyiqnn import divergence, hamiltonians
from renyiqnn.hamiltonians import PauliTerm, string_trace
from renyiqnn.models import (
    QBMParams,
    UQNNParams,
    build_qbm,
    build_uqnn,
    conjugated_generator,
    qbm_visible_state,
    uqnn_statevector,
    uqnn_visible_state,
    visible_from_statevector,
)
from renyiqnn.qmath import partial_trace
from renyiqnn.states import DensityMatrix, fidelity, haar_unitary, random_density_matrix
from tests.conftest import random_hermitian


def dm(mat: np.ndarray) -> DensityMatrix:
    return DensityMatrix.from_mat(np.asarray(mat, dtype=complex))


def sweep_gradient_reference(p: UQNNParams, rho: DensityMatrix, direction: str) -> np.ndarray:
    """Entry-by-entry dense oracle: conjugate each generator explicitly."""
    psi = uqnn_statevector(p)
    sigma = np.outer(psi, psi.conj())
    out = np.empty(len(p.generators))
    for k in range(1, len(p.generators) + 1):
        ht = conjugated_generator(p, k)
        dsig_full = -1j * (ht @ sigma - sigma @ ht)
        dsig = partial_trace(dsig_full, p.n_v, p.n_h)
        sv = visible_from_statevector(psi, p.n_v, p.n_h)
        out[k - 1] = state_gradient_entry(sv, dsig, rho.mat, direction)
    return out


class TestLossClosedForms:
    def test_self_divergence_zero(self, rng):
        rho = random_density_matrix(2, rng)
        assert abs(renyi2_forward(rho, rho).value) < 1e-9
        assert abs(renyi2_reverse(rho, rho).value) < 1e-9

    def test_forward_against_maximally_mixed(self, rng):
        # ln Tr(rho^2 (I/d)^-1) = ln(d Tr rho^2)
        rho = random_density_matrix(2, rng)
        mixed = dm(np.eye(4) / 4)
        expect = math.log(4 * rho.purity())
        assert renyi2_forward(rho, mixed).value == pytest.approx(expect, abs=1e-12)

    def test_forward_pure_vs_diagonal(self):
        # rho = |0><0|, sigma = diag(p, 1-p): Tr(rho^2 sigma^-1) = 1/p
        rho = dm(np.diag([1.0, 0.0]))
        for p_ in (0.2, 0.5, 0.9):
            sigma = dm(np.diag([p_, 1 - p_]))
            assert renyi2_forward(rho, sigma).value == pytest.approx(math.log(1 / p_), abs=1e-12)

    def test_reverse_from_maximally_mixed(self, rng):
        # ln Tr((I/d)^2 rho^-1) = ln(Tr rho^-1 / d^2)
        rho = random_density_matrix(2, rng)
        mixed = dm(np.eye(4) / 4)
        expect = math.log(np.trace(np.linalg.inv(rho.mat)).real / 16)
        assert renyi2_reverse(mixed, rho).value == pytest.approx(expect, abs=1e-10)

    def test_loss_value_fields(self, rng):
        rho, sigma = random_density_matrix(2, rng), random_density_matrix(2, rng)
        lv = renyi2_forward(rho, sigma)
        assert isinstance(lv, LossValue)
        assert lv.value == pytest.approx(math.log(lv.numerator), abs=1e-14)
        assert lv.conditioning == pytest.approx(np.linalg.eigvalsh(sigma.mat).min(), abs=1e-12)
        # reverse inverts the target, so its conditioning is rho's
        assert renyi2_reverse(sigma, rho).conditioning == pytest.approx(
            np.linalg.eigvalsh(rho.mat).min(), abs=1e-12
        )

    def test_asymmetry(self, rng):
        rho, sigma = random_density_matrix(2, rng), random_density_matrix(2, rng)
        d_rho_sigma = renyi2_forward(rho, sigma).value
        d_sigma_rho = renyi2_reverse(sigma, rho).value
        assert abs(d_rho_sigma - d_sigma_rho) > 1e-6

    def test_unitary_invariance(self, rng):
        rho, sigma = random_density_matrix(2, rng), random_density_matrix(2, rng)
        u = haar_unitary(2, rng)
        conj = lambda m: dm(u @ m.mat @ u.conj().T)
        assert abs(
            renyi2_forward(conj(rho), conj(sigma)).value - renyi2_forward(rho, sigma).value
        ) < 1e-9
        assert abs(
            renyi2_reverse(conj(rho), conj(sigma)).value - renyi2_reverse(rho, sigma).value
        ) < 1e-9

    def test_nonnegative(self, rng):
        for _ in range(20):
            rho, sigma = random_density_matrix(2, rng), random_density_matrix(2, rng)
            assert renyi2_forward(rho, sigma).value >= -1e-12
            assert renyi2_reverse(sigma, rho).value >= -1e-12

    def test_singular_argument_raises(self, rng):
        pure = dm(np.diag([1.0, 0.0]))
        rho = random_density_matrix(1, rng)
        with pytest.raises(SingularStateError, match="model state"):
            renyi2_forward(rho, pure)
        with pytest.raises(SingularStateError, match="target state"):
            renyi2_reverse(rho, pure)

    def test_singular_error_carries_conditioning(self):
        near = dm(np.diag([1.0 - 1e-16, 1e-16]))
        with pytest.raises(SingularStateError) as exc_info:
            renyi2_reverse(dm(np.eye(2) / 2), near)
        assert exc_info.value.conditioning < 1e-12
        assert "smallest eigenvalue" in str(exc_info.value)


class TestRelativeEntropyBound:
    def test_dominates_relative_entropy(self, rng):
        for _ in range(25):
            rho, sigma = random_density_matrix(2, rng), random_density_matrix(2, rng)
            assert renyi2_forward(rho, sigma).value >= relative_entropy(rho, sigma) - 1e-10

    def test_relative_entropy_self_zero(self, rng):
        rho = random_density_matrix(2, rng)
        assert abs(relative_entropy(rho, rho)) < 1e-10

    def test_relative_entropy_pure_rho_ok(self, rng):
        rho = dm(np.diag([1.0, 0.0]))
        sigma = dm(np.diag([0.25, 0.75]))
        assert relative_entropy(rho, sigma) == pytest.approx(math.log(4), abs=1e-10)


class TestUQNNGradients:
    def test_reverse_matches_fd(self, rng):
        for _ in range(6):
            p = build_uqnn(2, 1, rng)
            rho = random_density_matrix(2, rng)
            analytic = uqnn_grad_reverse(p, rho)

            def loss(th):
                return renyi2_reverse(uqnn_visible_state(UQNNParams(2, 1, p.generators, th)), rho).value

            fd = fd_gradient(loss, p.thetas)
            assert np.max(np.abs(analytic - fd)) < 1e-6

    def test_forward_matches_fd(self, rng):
        for _ in range(6):
            # n_h >= n_v keeps the visible reduction generically full rank
            p = build_uqnn(2, 2, rng)
            rho = random_density_matrix(2, rng)
            analytic = uqnn_grad_forward(p, rho)

            def loss(th):
                return renyi2_forward(rho, uqnn_visible_state(UQNNParams(2, 2, p.generators, th))).value

            # forward entries scale with the inverse conditioning of sigma_v;
            # the higher-order stencil keeps the FD reference trustworthy there
            fd = fd_richardson(loss, p.thetas)
            assert np.all(np.abs(analytic - fd) <= np.maximum(1e-6, 1e-4 * np.abs(analytic)))

    def test_sweep_matches_dense_per_entry_oracle(self, rng):
        p = build_uqnn(2, 1, rng)
        rho = random_density_matrix(2, rng)
        assert np.max(np.abs(uqnn_grad_reverse(p, rho) - sweep_gradient_reference(p, rho, "reverse"))) < 1e-10
        p2 = build_uqnn(1, 2, rng)
        rho1 = random_density_matrix(1, rng)
        assert np.max(np.abs(uqnn_grad_forward(p2, rho1) - sweep_gradient_reference(p2, rho1, "forward"))) < 1e-10

    def test_one_qubit_hand_formula(self):
        # sigma from e^{-i theta X}|0> is a pure projector, so sigma^2 = sigma
        # and Tr(sigma^2 rho^-1) = c^2/a + s^2/(1-a) for rho = diag(a, 1-a).
        theta, a = 0.6, 0.3
        c, s = math.cos(theta), math.sin(theta)
        p = UQNNParams(1, 0, [PauliTerm(1.0, ((0, "x"),))], np.array([theta]))
        rho = dm(np.diag([a, 1 - a]))
        num = c**2 / a + s**2 / (1 - a)
        dnum = 2 * c * s * (1 / (1 - a) - 1 / a)
        expect = dnum / num
        got = uqnn_grad_reverse(p, rho)
        assert got.shape == (1,)
        assert got[0] == pytest.approx(expect, abs=1e-10)
        assert renyi2_reverse(uqnn_visible_state(p), rho).value == pytest.approx(
            math.log(num), abs=1e-12
        )

    def test_coincidence_point_zero_gradient(self, rng):
        # train the model onto its own visible state: gradient must vanish
        p = build_uqnn(2, 1, rng)
        rho = uqnn_visible_state(p)
        rho = dm(0.99 * rho.mat + 0.01 * np.eye(4) / 4)  # keep rho invertible
        # at sigma = rho the reverse gradient is Tr(dsigma {sigma, rho^-1})/Tr(...);
        # with sigma != rho it need not vanish, so use the exact coincidence case
        q = build_uqnn(2, 0, rng)
        target = uqnn_visible_state(q)
        with pytest.raises(SingularStateError):
            uqnn_grad_reverse(q, target)  # pure target is singular
        # full-rank coincidence: QBM state as its own target
        b = build_qbm(2, 0, rng)
        tv = qbm_visible_state(b)
        g = qbm_grad_reverse(b, tv)
        # at the coincidence point Tr(dsigma {sigma, sigma^-1}) = 2 Tr dsigma = 0
        assert np.max(np.abs(g)) < 1e-8

    def test_global_phase_generator_zero_entry(self, rng):
        # an identity-string generator only shifts global phase: entry is 0
        gens = [PauliTerm(1.0, ((0, "x"),)), PauliTerm(1.0, ()), PauliTerm(1.0, ((0, "z"),))]
        p = UQNNParams(1, 0, gens, rng.standard_normal(3))
        rho = random_density_matrix(1, rng)
        g = uqnn_grad_reverse(p, rho)
        assert abs(g[1]) < 1e-12

    def test_linear_loss_gradient(self, rng):
        p = build_uqnn(2, 0, rng)
        m = random_hermitian(4, rng)

        def loss(th):
            sv = uqnn_visible_state(UQNNParams(2, 0, p.generators, th)).mat
            return float(np.real(np.trace(m @ sv)))

        fd = fd_gradient(loss, p.thetas)
        assert np.max(np.abs(uqnn_grad_linear(p, m) - fd)) < 1e-6

    def test_regularized_target_keeps_gradient_finite(self, rng):
        p = build_uqnn(2, 1, rng)
        nearly_pure = random_density_matrix(2, rng, rank=1)
        reg = dm(0.999 * nearly_pure.mat + 0.001 * np.eye(4) / 4)
        g = uqnn_grad_reverse(p, reg)
        assert np.all(np.isfinite(g))
        lv = renyi2_reverse(uqnn_visible_state(p), reg)
        assert lv.conditioning == pytest.approx(0.001 / 4, rel=1e-6)


class TestStateGradientEntry:
    def test_directional_fd_reverse(self, rng):
        sigma = random_density_matrix(2, rng).mat
        rho = random_density_matrix(2, rng).mat
        d = random_hermitian(4, rng)
        d -= np.trace(d) / 4 * np.eye(4)
        analytic = state_gradient_entry(sigma, d, rho, "reverse")
        h = 1e-7

        def loss(t):
            return renyi2_reverse(dm(sigma + t * d), dm(rho)).value

        fd = (loss(h) - loss(-h)) / (2 * h)
        assert analytic == pytest.approx(fd, abs=1e-6)

    def test_directional_fd_forward(self, rng):
        # mix toward identity to keep sigma^-1 well conditioned for the FD probe
        sigma = (0.5 * random_density_matrix(2, rng).mat + 0.5 * np.eye(4) / 4)
        rho = random_density_matrix(2, rng).mat
        d = random_hermitian(4, rng)
        d -= np.trace(d) / 4 * np.eye(4)
        analytic = state_gradient_entry(sigma, d, rho, "forward")
        h = 1e-7

        def loss(t):
            return renyi2_forward(dm(rho), dm(sigma + t * d)).value

        fd = (loss(h) - loss(-h)) / (2 * h)
        assert analytic == pytest.approx(fd, rel=1e-5, abs=1e-6)

    def test_unknown_direction(self, rng):
        m = random_density_matrix(1, rng).mat
        with pytest.raises(ValueError, match="direction"):
            state_gradient_entry(m, np.zeros((2, 2)), m, "sideways")


class TestQBMGradients:
    def test_reverse_matches_fd(self, rng):
        for _ in range(4):
            p = build_qbm(2, 1, rng)
            rho = random_density_matrix(2, rng)
            analytic = qbm_grad_reverse(p, rho)

            def loss(th):
                return renyi2_reverse(
                    qbm_visible_state(QBMParams(2, 1, p.basis, th)), rho
                ).value

            fd = fd_gradient(loss, p.thetas)
            assert np.max(np.abs(analytic - fd)) < 1e-6

    def test_forward_matches_fd(self, rng):
        for _ in range(4):
            p = build_qbm(2, 1, rng)
            rho = random_density_matrix(2, rng)
            analytic = qbm_grad_forward(p, rho)

            def loss(th):
                return renyi2_forward(
                    rho, qbm_visible_state(QBMParams(2, 1, p.basis, th))
                ).value

            fd = fd_gradient(loss, p.thetas)
            assert np.max(np.abs(analytic - fd)) < 1e-6

    def test_series_matches_frechet_dual_route(self, rng):
        for _ in range(4):
            p = build_qbm(2, 1, rng)
            rho = random_density_matrix(2, rng)
            assert np.max(np.abs(qbm_grad_reverse(p, rho) - qbm_grad_reverse_frechet(p, rho))) < 1e-8
            assert np.max(np.abs(qbm_grad_forward(p, rho) - qbm_grad_forward_frechet(p, rho))) < 1e-8

    def test_literal_per_weight_series_oracle(self, rng):
        # rebuild the reverse gradient weight by weight with dense commutator
        # powers, no shared kernel
        p = build_qbm(2, 0, rng)
        rho = random_density_matrix(2, rng)
        h = p.hamiltonian_dense()
        e = expm(-h)
        z = np.trace(e).real
        sv = qbm_visible_state(p).mat
        rinv = np.linalg.inv(rho.mat)
        denom = np.trace(sv @ rinv @ sv).real
        q = sv @ rinv + rinv @ sv
        expect = np.empty(len(p.basis))
        for m, t in enumerate(p.basis):
            x = t.dense(p.n_qubits)
            term = x.copy()
            g = np.zeros_like(e)
            for pw in range(60):
                g = g + term / math.factorial(pw + 1)
                term = (-h) @ term - term @ (-h)
                if np.linalg.norm(term) / math.factorial(pw + 2) < 1e-14:
                    break
            gm = g @ e  # d/dtheta_m e^{-H} = -G_m with this G_m convention
            dz = -np.trace(gm).real
            dsv = -gm - (dz / z) * (z * sv)  # visible, n_h = 0
            dsv /= z
            expect[m] = np.trace(dsv @ q).real / denom
        got = qbm_grad_reverse(p, rho)
        assert np.max(np.abs(got - expect)) < 1e-8

    def test_commuting_all_z_case(self, rng):
        # H diagonal: the eigenbasis is the computational basis and everything is classical
        basis = [PauliTerm(1.0, ((0, "z"),)), PauliTerm(1.0, ((1, "z"),)),
                 PauliTerm(1.0, ((0, "z"), (1, "z")))]
        p = QBMParams(2, 0, basis, np.array([0.4, -0.7, 0.2]))
        rho = dm(np.diag([0.4, 0.3, 0.2, 0.1]))
        analytic = qbm_grad_reverse(p, rho)

        def loss(th):
            return renyi2_reverse(qbm_visible_state(QBMParams(2, 0, basis, th)), rho).value

        fd = fd_gradient(loss, p.thetas, h=1e-6)
        assert np.max(np.abs(analytic - fd)) < 1e-8
        assert np.max(np.abs(analytic - qbm_grad_reverse_frechet(p, rho))) < 1e-10

    def test_zero_weights_against_mixed_target_zero_gradient(self):
        basis = [PauliTerm(1.0, ((0, "z"),)), PauliTerm(1.0, ((0, "x"),))]
        p = QBMParams(1, 0, basis, np.zeros(2))
        mixed = dm(np.eye(2) / 2)
        assert abs(renyi2_reverse(qbm_visible_state(p), mixed).value) < 1e-12
        assert np.max(np.abs(qbm_grad_reverse(p, mixed))) < 1e-10

    @pytest.mark.parametrize("spread", [60.0, 500.0])
    def test_large_spectral_spread_matches_frechet(self, rng, spread):
        # e^{-w} spans 26 and 217 decades over the spectrum at these spreads
        p = build_qbm(2, 1, rng)
        w = np.linalg.eigvalsh(p.hamiltonian_dense())
        p.thetas = p.thetas * spread / (w[-1] - w[0])
        rho = random_density_matrix(2, rng)
        got = qbm_grad_reverse(p, rho)
        assert np.all(np.isfinite(got))
        assert np.max(np.abs(got - qbm_grad_reverse_frechet(p, rho))) < 1e-8

    def test_frechet_derivative_oracle(self, rng):
        # check the exact integral formula against a finite difference of expm;
        # the helper takes and returns matrices in the original basis
        h = random_hermitian(4, rng)
        x = random_hermitian(4, rng)
        w, v = np.linalg.eigh(h)
        g = frechet_exp_neg_derivative(w, v, x)
        eps = 1e-6
        fd = (expm(-(h + eps * x)) - expm(-(h - eps * x))) / (2 * eps)
        assert np.max(np.abs(-g - fd)) < 1e-8


class TestEvaluate:
    GRADIENTS = {
        ("uqnn", "reverse"): uqnn_grad_reverse,
        ("uqnn", "forward"): uqnn_grad_forward,
        ("qbm", "reverse"): qbm_grad_reverse,
        ("qbm", "forward"): qbm_grad_forward,
    }

    @pytest.mark.parametrize("kind,direction", sorted(GRADIENTS))
    def test_matches_public_loss_state_and_gradient(self, rng, kind, direction):
        # forward needs a full-rank circuit reduction, hence n_h = n_v
        p = build_uqnn(2, 2, rng) if kind == "uqnn" else build_qbm(2, 1, rng)
        rho = random_density_matrix(2, rng)
        ev = evaluate(p, rho, direction)
        visible = uqnn_visible_state(p) if kind == "uqnn" else qbm_visible_state(p)
        assert np.array_equal(ev.sigma_v.mat, visible.mat)
        if direction == "reverse":
            assert ev.loss == renyi2_reverse(ev.sigma_v, rho)
        else:
            assert ev.loss == renyi2_forward(rho, ev.sigma_v)
        assert np.array_equal(ev.grad, self.GRADIENTS[kind, direction](p, rho))

    @staticmethod
    def record_kernels(monkeypatch, inject=None) -> list:
        """Record each kernel evaluate gathers from; `inject` may alter it first."""
        kernels = []

        def recording(m, tables):
            m = m if inject is None else inject(m)
            kernels.append(m)
            return hamiltonians.pauli_traces(m, tables)

        monkeypatch.setattr(divergence, "pauli_traces", recording)
        return kernels

    @pytest.mark.parametrize("direction", ["reverse", "forward"])
    def test_qbm_gather_equals_per_term_traces(self, rng, monkeypatch, direction):
        p = build_qbm(2, 1, rng)
        rho = random_density_matrix(2, rng)
        kernels = self.record_kernels(monkeypatch)
        ev = evaluate(p, rho, direction)
        (kernel,) = kernels
        ref = [string_trace(kernel, *t.action(p.n_qubits)).real for t in p.basis]
        assert np.array_equal(ev.grad, ref)

    def test_qbm_imaginary_residue_names_first_entry(self, rng, monkeypatch):
        # Tr(P_m i eps P_k) = i eps dim delta_mk: entries 3 and 5 turn imaginary
        p = build_qbm(2, 1, rng)
        leak = 1e-3j * (p.basis[5].dense(p.n_qubits) + p.basis[3].dense(p.n_qubits))
        self.record_kernels(monkeypatch, inject=lambda m: m + leak)
        with pytest.raises(ArithmeticError, match=r"gradient entry 3 has imaginary residue 8\.000e-03"):
            evaluate(p, random_density_matrix(2, rng), "reverse")


class TestFactorizationReuse:
    """An inverted or square-rooted state keeps its eigendecomposition while its entries stay."""

    @staticmethod
    def count_eigh(monkeypatch) -> list:
        calls, eigh = [], np.linalg.eigh

        def counting(m):
            calls.append(m.shape)
            return eigh(m)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        return calls

    def test_fixed_target_factorized_once(self, rng, monkeypatch):
        rho = random_density_matrix(2, rng)
        sigmas = [random_density_matrix(2, rng) for _ in range(4)]
        calls = self.count_eigh(monkeypatch)
        losses = [renyi2_reverse(sv, rho) for sv in sigmas]
        assert len(calls) == 1
        assert losses == [renyi2_reverse(sv, dm(rho.mat.copy())) for sv in sigmas]

    @pytest.mark.parametrize("change", ["reassigned", "overwritten"])
    def test_changed_matrix_never_served_stale(self, rng, change):
        a, b, sv = (random_density_matrix(2, rng) for _ in range(3))
        rho = DensityMatrix(2, a.mat.copy())
        before = (renyi2_reverse(sv, rho), fidelity(rho, sv))
        if change == "reassigned":
            rho.mat = b.mat.copy()
        else:
            rho.mat[...] = b.mat
        after = (renyi2_reverse(sv, rho), fidelity(rho, sv))
        assert after == (renyi2_reverse(sv, dm(b.mat)), fidelity(dm(b.mat), sv))
        assert after != before

    def test_forward_fidelity_reuses_the_model_factorization(self, rng, monkeypatch):
        p = build_uqnn(2, 2, rng)
        rho = random_density_matrix(2, rng)
        calls = self.count_eigh(monkeypatch)
        ev = evaluate(p, rho, "forward")
        f = fidelity(ev.sigma_v, rho)
        assert len(calls) == 2  # sigma_v once (inverse and square root), the inner root once
        assert f == fidelity(dm(ev.sigma_v.mat.copy()), rho)


class TestFDGradient:
    def test_quadratic_is_exact(self):
        def loss(t):
            return float(t @ t)

        th = np.array([0.3, -1.2, 0.5])
        assert np.max(np.abs(fd_gradient(loss, th, h=1e-4) - 2 * th)) < 1e-9

    def test_error_scales_quadratically(self):
        def loss(t):
            return float(np.sum(t**4))

        th = np.array([1.1])
        exact = 4 * th**3
        e1 = abs(fd_gradient(loss, th, h=1e-2)[0] - exact[0])
        e2 = abs(fd_gradient(loss, th, h=5e-3)[0] - exact[0])
        assert e1 / e2 == pytest.approx(4.0, rel=0.05)

    def test_rejects_bad_step(self):
        with pytest.raises(ValueError, match="positive"):
            fd_gradient(lambda t: 0.0, np.zeros(2), h=0.0)

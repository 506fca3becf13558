import math

import numpy as np
import pytest
from scipy import stats

from renyiqnn import cli, divergence, models
from renyiqnn.hamiltonians import PauliTerm, two_local_terms
from renyiqnn.models import (
    QBMParams,
    UQNNParams,
    apply_gate,
    apply_pauli,
    brick_two_local_terms,
    build_qbm,
    build_uqnn,
    circuit_prefix,
    conjugated_generator,
    conjugated_generator_vec,
    gate_table,
    qbm_visible_state,
    uqnn_full_state,
    uqnn_layer_terms,
    uqnn_state_derivative,
    uqnn_statevector,
    uqnn_visible_state,
    visible_from_statevector,
)
from renyiqnn.qmath import op_norm, partial_trace
from renyiqnn.states import random_density_matrix, thermal_state
from tests.conftest import random_hermitian, uqnn_state_reference


def single_x(n: int, q: int = 0) -> PauliTerm:
    return PauliTerm(1.0, ((q, "x"),))


class TestStatevector:
    def test_zero_thetas_give_computational_zero(self):
        p = UQNNParams(2, 0, [single_x(2), PauliTerm(1.0, ((1, "z"),))], np.zeros(2))
        psi = uqnn_statevector(p)
        expect = np.zeros(4, dtype=complex)
        expect[0] = 1.0
        assert np.allclose(psi, expect)

    def test_x_half_pi_flips_qubit(self):
        # e^{-i (pi/2) X}|0> = -i|1>
        p = UQNNParams(1, 0, [single_x(1)], np.array([math.pi / 2]))
        psi = uqnn_statevector(p)
        assert np.allclose(psi, np.array([0.0, -1j]))
        assert np.allclose(uqnn_visible_state(p).mat, np.diag([0.0, 1.0]))

    def test_two_pi_periodicity(self, rng):
        gens = [single_x(2), PauliTerm(1.0, ((0, "z"), (1, "x")))]
        th = rng.standard_normal(2)
        a = uqnn_statevector(UQNNParams(2, 0, gens, th.copy()))
        shifted = th + np.array([2 * math.pi, -2 * math.pi])
        b = uqnn_statevector(UQNNParams(2, 0, gens, shifted))
        # each gate is periodic up to a global sign that cancels in pairs
        assert np.allclose(a, b, atol=1e-12)

    def test_full_state_is_pure(self, rng):
        p = build_uqnn(2, 1, rng)
        rho = uqnn_full_state(p)
        assert abs(rho.purity() - 1.0) < 1e-10

    def test_matches_expm_reference(self, rng):
        for _ in range(5):
            p = build_uqnn(2, 1, rng)
            assert np.max(np.abs(uqnn_statevector(p) - uqnn_state_reference(p))) < 1e-10

    def test_gate_order_with_noncommuting_pair(self):
        # generators [X, Z]: Z hits |0> first, then X rotates; order matters
        gens = [single_x(1), PauliTerm(1.0, ((0, "z"),))]
        th = np.array([0.7, 0.4])
        p = UQNNParams(1, 0, gens, th)
        psi = uqnn_statevector(p)
        assert np.max(np.abs(psi - uqnn_state_reference(p))) < 1e-12
        x, z = np.array([[0, 1], [1, 0]]), np.diag([1.0, -1.0])
        from scipy.linalg import expm

        wrong = expm(-1j * th[1] * z) @ expm(-1j * th[0] * x) @ np.array([1.0, 0.0])
        assert np.max(np.abs(psi - wrong)) > 1e-3

    def test_bell_from_xx_quarter_pi(self):
        # e^{-i pi/4 XX}|00> = (|00> - i|11>)/sqrt(2): visible qubit is I/2
        p = UQNNParams(1, 1, [PauliTerm(1.0, ((0, "x"), (1, "x")))], np.array([math.pi / 4]))
        psi = uqnn_statevector(p)
        assert np.allclose(np.abs(psi) ** 2, [0.5, 0, 0, 0.5], atol=1e-12)
        assert np.allclose(uqnn_visible_state(p).mat, np.eye(2) / 2, atol=1e-12)

    def test_visible_from_statevector_matches_partial_trace(self, rng):
        p = build_uqnn(2, 2, rng)
        psi = uqnn_statevector(p)
        direct = visible_from_statevector(psi, 2, 2)
        full = np.outer(psi, psi.conj())
        assert np.allclose(direct, partial_trace(full, 2, 2), atol=1e-12)


class TestGateTable:
    def test_unit_coefficient_required(self):
        with pytest.raises(ValueError, match="must be"):
            gate_table(PauliTerm(0.5, ((0, "x"),)), 1)

    def test_negative_unit_coefficient_allowed(self, rng):
        t = gate_table(PauliTerm(-1.0, ((0, "y"),)), 1)
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        got = apply_gate(v, t, 0.3)
        from scipy.linalg import expm

        y = np.array([[0, -1j], [1j, 0]])
        assert np.allclose(got, expm(-1j * 0.3 * (-y)) @ v, atol=1e-12)

    def test_inverse_gate(self, rng):
        t = gate_table(single_x(2), 2)
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        assert np.allclose(apply_gate(apply_gate(v, t, 0.9), t, 0.9, inverse=True), v)


# Per-gate reference loops, one gate_table/apply_gate call per gate: the
# arithmetic the stacked, phase-folded kernel must reproduce bit for bit.


def ref_tables(p: UQNNParams) -> list:
    return [gate_table(g, p.n_qubits) for g in p.generators]


def statevector_loop(p: UQNNParams, tables: list) -> np.ndarray:
    psi = np.zeros(p.dim, dtype=complex)
    psi[0] = 1.0
    for j in range(len(tables) - 1, -1, -1):
        psi = apply_gate(psi, tables[j], p.thetas[j])
    return psi


def kernel_sweep_loop(p: UQNNParams, tables: list, kernel_v: np.ndarray, psi: np.ndarray) -> np.ndarray:
    a = (kernel_v @ psi.reshape(2**p.n_v, 2**p.n_h)).reshape(-1)
    b = psi.copy()
    out = np.empty(len(p.generators))
    for k, table in enumerate(tables):
        out[k] = 2.0 * np.vdot(a, apply_pauli(b, table)).imag
        a = apply_gate(a, table, p.thetas[k], inverse=True)
        b = apply_gate(b, table, p.thetas[k], inverse=True)
    return out


def conjugated_generator_vec_loop(p: UQNNParams, tables: list, k: int, psi: np.ndarray) -> np.ndarray:
    y = psi
    for j in range(k - 1):
        y = apply_gate(y, tables[j], p.thetas[j], inverse=True)
    y = apply_pauli(y, tables[k - 1])
    for j in range(k - 2, -1, -1):
        y = apply_gate(y, tables[j], p.thetas[j])
    return y


def circuit_prefix_loop(p: UQNNParams, tables: list, k: int) -> np.ndarray:
    w = np.eye(p.dim, dtype=complex)
    for j in range(k - 2, -1, -1):
        w = apply_gate(w, tables[j], p.thetas[j])
    return w


def with_signs(p: UQNNParams) -> UQNNParams:
    """The same circuit with every third generator's coefficient set to -1."""
    gens = [PauliTerm(-1.0 if j % 3 == 0 else 1.0, g.axes) for j, g in enumerate(p.generators)]
    return UQNNParams(p.n_v, p.n_h, gens, p.thetas)


class TestStackedGateKernel:
    """The stacked kernel does the per-gate arithmetic of gate_table/apply_gate exactly."""

    @pytest.mark.parametrize("signs", ["unit", "mixed"])
    @pytest.mark.parametrize("n_h", [0, 1, 2, 3])
    @pytest.mark.parametrize("repetitions", [1, 2])
    @pytest.mark.parametrize("layout", ["exhaustive", "brick"])
    def test_bit_identical_to_per_gate_loop(self, rng, layout, repetitions, n_h, signs):
        p = build_uqnn(2, n_h, rng, layout=layout, repetitions=repetitions)
        if signs == "mixed":
            p = with_signs(p)
            assert any(g.coeff == -1.0 for g in p.generators)
        tables = ref_tables(p)
        psi = uqnn_statevector(p)
        assert np.array_equal(psi, statevector_loop(p, tables))
        kernel = random_hermitian(4, rng)
        assert np.array_equal(divergence._kernel_sweep(p, kernel, psi), kernel_sweep_loop(p, tables, kernel, psi))
        n = len(p.generators)
        for k in range(1, n + 1):
            got = conjugated_generator_vec(p, k, psi)
            assert np.array_equal(got, conjugated_generator_vec_loop(p, tables, k, psi)), f"k={k}"
        for k in sorted({1, 2, n // 2, n}):
            assert np.array_equal(circuit_prefix(p, k), circuit_prefix_loop(p, tables, k)), f"k={k}"


class TestSharedLayoutTables:
    @pytest.fixture
    def pauli_table_builds(self, monkeypatch):
        """Clears the layout cache and counts the stacked-table builds after it."""
        calls, build = [], models.pauli_tables

        def counting(terms, n_qubits):
            calls.append((len(terms), n_qubits))
            return build(terms, n_qubits)

        models._layout_tables.cache_clear()
        monkeypatch.setattr(models, "pauli_tables", counting)
        yield calls
        models._layout_tables.cache_clear()

    def test_one_build_per_layout(self, rng, pauli_table_builds):
        ps = [build_uqnn(3, 2, rng) for _ in range(50)]
        for p in ps:
            uqnn_statevector(p)
        assert pauli_table_builds == [(len(ps[0].generators), 5)]
        assert all(p.tables()[1] is ps[0].tables()[1] for p in ps)

    def test_rows_equal_gate_table(self, rng):
        p = with_signs(build_uqnn(2, 2, rng, layout="brick", repetitions=2))
        idx, phase = p.tables()
        assert idx.shape == phase.shape == (len(p.generators), p.dim)
        for j, g in enumerate(p.generators):
            ref_idx, ref_phase = gate_table(g, p.n_qubits)
            assert np.array_equal(idx[j], ref_idx) and np.array_equal(phase[j], ref_phase)

    def test_layouts_do_not_collide(self, rng, pauli_table_builds):
        x0 = [PauliTerm(1.0, ((0, "x"),))]
        one, two = UQNNParams(1, 0, x0, [0.3]).tables(), UQNNParams(1, 1, x0, [0.3]).tables()
        assert one[0].shape == (1, 2) and two[0].shape == (1, 4)
        exhaustive = build_uqnn(2, 1, rng).tables()
        brick = build_uqnn(2, 1, rng, layout="brick").tables()
        assert exhaustive[0].shape != brick[0].shape
        flipped = with_signs(build_uqnn(2, 1, rng)).tables()
        assert flipped[1] is not exhaustive[1]
        assert np.array_equal(flipped[1][0], -exhaustive[1][0])
        assert len(pauli_table_builds) == 5

    def test_tables_are_read_only(self, rng):
        idx, phase = build_uqnn(2, 1, rng).tables()
        with pytest.raises(ValueError, match="read-only"):
            idx[0, 0] = 1
        with pytest.raises(ValueError, match="read-only"):
            phase[0, 0] = 2.0

    def test_non_unit_coefficient_rejected(self):
        p = UQNNParams(1, 0, [PauliTerm(1.0, ((0, "z"),)), PauliTerm(0.5, ((0, "x"),))], [0.1, 0.2])
        with pytest.raises(ValueError, match=r"generator coefficient must be \+-1, got 0.5"):
            uqnn_statevector(p)

    def test_probes_and_checkpoints_reuse_tables(self, rng, pauli_table_builds):
        p = build_uqnn(2, 2, rng)
        shared = p.tables()
        rho = random_density_matrix(2, rng)
        loss = cli._fd_loss(p, rho, "reverse")
        for _ in range(3):
            loss(p.thetas + 0.01 * rng.standard_normal(len(p.thetas)))
        divergence.fd_gradient(lambda th: uqnn_statevector(UQNNParams(2, 2, p.generators, th))[0].real, p.thetas)
        back = UQNNParams.from_checkpoint(p.to_checkpoint())
        assert back.generators is not p.generators
        assert back.tables()[0] is shared[0] and back.tables()[1] is shared[1]
        assert len(pauli_table_builds) == 1


class TestConjugatedGenerator:
    def test_first_slot_is_bare_generator(self, rng):
        p = build_uqnn(2, 0, rng)
        assert np.allclose(conjugated_generator(p, 1), p.generators[0].dense(2))

    def test_zero_thetas_all_bare(self, rng):
        gens = [PauliTerm(1.0, ax) for ax in [((0, "x"),), ((1, "y"),), ((0, "z"), (1, "z"))]]
        p = UQNNParams(2, 0, gens, np.zeros(3))
        for k in (1, 2, 3):
            assert np.allclose(conjugated_generator(p, k), gens[k - 1].dense(2))

    def test_conjugation_preserves_involution(self, rng):
        p = build_uqnn(2, 1, rng)
        for k in (1, len(p.generators) // 2, len(p.generators)):
            ht = conjugated_generator(p, k)
            assert np.allclose(ht @ ht, np.eye(8), atol=1e-10)
            assert np.max(np.abs(ht - ht.conj().T)) < 1e-10

    def test_matches_prefix_conjugation(self, rng):
        p = build_uqnn(2, 0, rng)
        k = 4
        w = circuit_prefix(p, k)
        ref = w @ p.generators[k - 1].dense(2) @ w.conj().T
        assert np.allclose(conjugated_generator(p, k), ref, atol=1e-12)

    def test_vec_route_matches_dense(self, rng):
        p = build_uqnn(2, 1, rng)
        psi = uqnn_statevector(p)
        for k in (1, 5, len(p.generators)):
            dense_route = conjugated_generator(p, k) @ psi
            assert np.max(np.abs(conjugated_generator_vec(p, k, psi) - dense_route)) < 1e-12


class TestStateDerivative:
    def test_traceless_and_hermitian(self, rng):
        p = build_uqnn(2, 1, rng)
        d = uqnn_state_derivative(p, 3)
        assert abs(np.trace(d)) < 1e-12
        assert np.max(np.abs(d - d.conj().T)) < 1e-12

    def test_matches_finite_difference(self, rng):
        p = build_uqnn(2, 0, rng)
        h = 1e-6
        for k in (1, 7, len(p.generators)):
            analytic = uqnn_state_derivative(p, k)
            up, dn = p.thetas.copy(), p.thetas.copy()
            up[k - 1] += h
            dn[k - 1] -= h
            plus = uqnn_visible_state(UQNNParams(2, 0, p.generators, up)).mat
            minus = uqnn_visible_state(UQNNParams(2, 0, p.generators, dn)).mat
            fd = (plus - minus) / (2 * h)
            assert np.max(np.abs(analytic - fd)) < 1e-8

    def test_many_random_triples(self, rng):
        worst = 0.0
        for _ in range(100):
            p = build_uqnn(2, 0, rng)
            k = int(rng.integers(1, len(p.generators) + 1))
            analytic = uqnn_state_derivative(p, k)
            h = 1e-6
            up, dn = p.thetas.copy(), p.thetas.copy()
            up[k - 1] += h
            dn[k - 1] -= h
            fd = (
                uqnn_visible_state(UQNNParams(2, 0, p.generators, up)).mat
                - uqnn_visible_state(UQNNParams(2, 0, p.generators, dn)).mat
            ) / (2 * h)
            worst = max(worst, float(np.max(np.abs(analytic - fd))))
        assert worst < 1e-7

    def test_last_generator_z_string_gives_zero(self):
        # a pure-Z final gate commutes with |0><0|, so the derivative vanishes
        gens = [single_x(1), PauliTerm(1.0, ((0, "z"),))]
        p = UQNNParams(1, 0, gens, np.array([0.3, 0.8]))
        assert np.max(np.abs(uqnn_state_derivative(p, 2))) < 1e-14


class TestQBM:
    def test_zero_thetas_maximally_mixed(self):
        basis = two_local_terms(3)
        p = QBMParams(2, 1, basis, np.zeros(len(basis)))
        assert np.allclose(qbm_visible_state(p).mat, np.eye(4) / 4)

    def test_matches_thermal_state_no_hidden(self, rng):
        p = build_qbm(2, 0, rng)
        ref = thermal_state(p.to_hamiltonian())
        assert np.allclose(qbm_visible_state(p).mat, ref.mat, atol=1e-12)

    def test_hidden_units_traced_out(self, rng):
        p = build_qbm(2, 1, rng)
        full = thermal_state(p.to_hamiltonian()).mat
        assert np.allclose(qbm_visible_state(p).mat, partial_trace(full, 2, 1), atol=1e-12)

    def test_hamiltonian_dense_matches_lcu(self, rng):
        p = build_qbm(2, 1, rng)
        assert np.allclose(p.hamiltonian_dense(), p.to_hamiltonian().dense(), atol=1e-12)

    def test_theta_length_checked(self):
        basis = two_local_terms(2)
        with pytest.raises(ValueError):
            QBMParams(1, 1, basis, np.zeros(len(basis) - 1))


class TestCheckpoints:
    def test_uqnn_roundtrip(self, rng):
        p = build_uqnn(2, 1, rng)
        doc = p.to_checkpoint(rng_seed=11, epoch=5)
        back = UQNNParams.from_checkpoint(doc)
        assert back.n_v == p.n_v and back.n_h == p.n_h
        assert np.array_equal(back.thetas, p.thetas)
        assert [g.axes for g in back.generators] == [g.axes for g in p.generators]
        assert np.allclose(uqnn_statevector(back), uqnn_statevector(p))

    def test_qbm_roundtrip(self, rng):
        p = build_qbm(2, 1, rng)
        doc = p.to_checkpoint()
        back = QBMParams.from_checkpoint(doc)
        assert np.array_equal(back.thetas, p.thetas)
        assert np.allclose(qbm_visible_state(back).mat, qbm_visible_state(p).mat)

    def test_wrong_kind_rejected(self, rng):
        doc = build_uqnn(1, 0, rng).to_checkpoint()
        with pytest.raises(ValueError, match="kind"):
            QBMParams.from_checkpoint(doc)
        doc2 = build_qbm(1, 0, rng).to_checkpoint()
        with pytest.raises(ValueError, match="kind"):
            UQNNParams.from_checkpoint(doc2)


class TestBuilders:
    def test_exhaustive_layout_counts(self, rng):
        assert len(build_uqnn(2, 0, rng).generators) == 15
        assert len(build_uqnn(2, 1, rng).generators) == 36
        assert len(build_uqnn(3, 1, rng).generators) == 66

    def test_brick_layout(self, rng):
        # n=4 brick: 12 singles + 2 even bonds * 9 + 1 odd bond * 9
        assert len(brick_two_local_terms(4)) == 12 + 27
        p = build_uqnn(2, 2, rng, layout="brick")
        assert len(p.generators) == 39
        assert abs(uqnn_full_state(p).purity() - 1.0) < 1e-10

    def test_unknown_layout(self):
        with pytest.raises(ValueError, match="layout"):
            uqnn_layer_terms(2, layout="ring")

    def test_repetitions_stack_layers(self, rng):
        p = build_uqnn(2, 0, rng, repetitions=3)
        assert len(p.generators) == 45
        assert [g.axes for g in p.generators[:15]] == [g.axes for g in p.generators[15:30]]

    def test_theta_distribution(self, rng_factory):
        rng = rng_factory(3)
        draws = np.concatenate([build_uqnn(2, 1, rng).thetas for _ in range(300)])
        assert stats.kstest(draws, "norm", args=(0.0, 1.0)).pvalue > 0.01

    def test_qbm_normalized_init(self, rng):
        p = build_qbm(2, 1, rng)
        assert abs(op_norm(p.hamiltonian_dense()) - 1.0) < 1e-10

    def test_qbm_unnormalized_init(self, rng_factory):
        raw = build_qbm(2, 0, rng_factory(9), normalize_init=False)
        scaled = build_qbm(2, 0, rng_factory(9), normalize_init=True)
        s = op_norm(raw.hamiltonian_dense())
        assert np.allclose(scaled.thetas, raw.thetas / s)

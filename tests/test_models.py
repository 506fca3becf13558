import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from renyiqnn import cli, divergence, models, training
from renyiqnn.hamiltonians import LCUHamiltonian, PauliTerm, two_local_terms
from renyiqnn.models import (
    QBMParams,
    UQNNParams,
    apply_gate,
    brick_two_local_terms,
    build_qbm,
    build_uqnn,
    checkpoint_doc,
    checkpoint_text,
    conjugated_generator_vec,
    gate_table,
    json_text,
    load_checkpoint_model,
    qbm_visible_state,
    uqnn_statevector,
    uqnn_visible_state,
)
from renyiqnn.qmath import op_norm, partial_trace
from renyiqnn.states import DensityMatrix, random_density_matrix, thermal_state
from tests.conftest import (
    conjugated_generators_reference,
    pauli_string_dense,
    purity,
    random_hermitian,
    uqnn_state_reference,
)


def single_x(n: int, q: int = 0) -> PauliTerm:
    return PauliTerm(1.0, ((q, "x"),))


def full_state(p: UQNNParams) -> DensityMatrix:
    """W |0><0| W^dag on all n_v + n_h qubits, the outer product of the statevector."""
    psi = uqnn_statevector(p)
    return DensityMatrix.from_mat(np.outer(psi, psi.conj()))


def qbm_hamiltonian(p: QBMParams) -> LCUHamiltonian:
    """H(theta) of a Boltzmann machine as a Pauli sum, one term per basis string."""
    return LCUHamiltonian(p.n_qubits, [PauliTerm(float(th), t.axes) for th, t in zip(p.thetas, p.basis)])


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
        rho = full_state(p)
        assert abs(purity(rho) - 1.0) < 1e-10

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


class TestGateTable:
    def test_unit_coefficient_required(self):
        with pytest.raises(ValueError, match="must be"):
            gate_table(PauliTerm(0.5, ((0, "x"),)), 1)

    def test_negative_coefficient_is_the_gate_at_minus_theta(self, rng):
        # a -1 generator is refused; its gate is the unit generator's at -theta
        with pytest.raises(ValueError, match="got coefficient -1.0"):
            gate_table(PauliTerm(-1.0, ((0, "y"),)), 1)
        t = gate_table(PauliTerm(1.0, ((0, "y"),)), 1)
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        got = apply_gate(v, t, -0.3)
        from scipy.linalg import expm

        y = np.array([[0, -1j], [1j, 0]])
        assert np.allclose(got, expm(-1j * 0.3 * (-y)) @ v, atol=1e-12)

    def test_inverse_gate(self, rng):
        t = gate_table(single_x(2), 2)
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        assert np.allclose(apply_gate(apply_gate(v, t, 0.9), t, -0.9), v)


# Per-gate reference loops, one gate_table/apply_gate call per gate: the
# arithmetic the block kernel must reproduce within the tolerance stated below.


def ref_tables(p: UQNNParams) -> list:
    return [gate_table(g, p.n_qubits) for g in p.generators]


def apply_string(v: np.ndarray, table) -> np.ndarray:
    """P v for the string P with table (idx, col_phase)."""
    idx, col_phase = table
    return (col_phase * v)[idx]


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
        out[k] = 2.0 * np.vdot(a, apply_string(b, table)).imag
        a = apply_gate(a, table, -p.thetas[k])
        b = apply_gate(b, table, -p.thetas[k])
    return out


def conjugated_generator_vec_loop(p: UQNNParams, tables: list, k: int, psi: np.ndarray) -> np.ndarray:
    y = psi
    for j in range(k - 1):
        y = apply_gate(y, tables[j], -p.thetas[j])
    y = apply_string(y, tables[k - 1])
    for j in range(k - 2, -1, -1):
        y = apply_gate(y, tables[j], p.thetas[j])
    return y


def with_signs(p: UQNNParams) -> UQNNParams:
    """The circuit whose every third generator is -H_j, in unit-coefficient form: those angles negated."""
    signs = np.where(np.arange(len(p.generators)) % 3 == 0, -1.0, 1.0)
    return UQNNParams(p.n_v, p.n_h, p.generators, signs * p.thetas)


# The block kernel multiplies each block of consecutive gates (a run whose
# joint support is no wider than the layout's widest generator) out into one
# small unitary, so the statevector and the kernel sweep round differently
# from the per-gate loop. Stated tolerance: amplitudes agree to BLOCK_SV_ATOL,
# sweep entries to BLOCK_SWEEP_RTOL times the kernel's operator norm (each
# entry is at most twice that norm). Worst seen: 1.4e-15 and 1.7e-15.
BLOCK_SV_ATOL = 1e-14
BLOCK_SWEEP_RTOL = 1e-13


def dense_sweep_reference(p: UQNNParams, kernel_v: np.ndarray) -> np.ndarray:
    """2 Im <psi| (kernel_v x I_h) W_k H_k W_k^dag |psi> from dense expm products."""
    psi = uqnn_state_reference(p)
    m_psi = np.kron(kernel_v, np.eye(2**p.n_h)) @ psi
    return np.array([2.0 * np.vdot(m_psi, ht @ psi).imag for ht in conjugated_generators_reference(p)])


def check_block_kernel(p: UQNNParams, rng, dense: bool = True) -> None:
    """Block statevector, sweep and conjugated generators against the per-gate loops
    (stated tolerance) and, unless dense is False, the dense expm route."""
    tables, kernel = ref_tables(p), random_hermitian(2**p.n_v, rng)
    ref = statevector_loop(p, tables)
    psi = uqnn_statevector(p)
    assert np.max(np.abs(psi - ref)) <= BLOCK_SV_ATOL
    for k in range(1, len(p.generators) + 1):
        got = conjugated_generator_vec(p, k)
        assert np.max(np.abs(got - conjugated_generator_vec_loop(p, tables, k, ref))) <= BLOCK_SV_ATOL, f"k={k}"
    norm = np.linalg.norm(kernel, 2)
    got = divergence._kernel_sweep(p, kernel, ref)
    assert np.max(np.abs(got - kernel_sweep_loop(p, tables, kernel, ref))) <= BLOCK_SWEEP_RTOL * norm
    if dense:
        assert np.max(np.abs(psi - uqnn_state_reference(p))) < 1e-12
        assert np.max(np.abs(got - dense_sweep_reference(p, kernel))) < 1e-11 * norm


class TestStackedGateKernel:
    """The block kernel agrees with the per-gate loops within the stated tolerance."""

    @pytest.mark.parametrize("signs", ["unit", "mixed"])
    @pytest.mark.parametrize("n_h", [0, 1, 2, 3])
    @pytest.mark.parametrize("repetitions", [1, 2])
    @pytest.mark.parametrize("layout", ["exhaustive", "brick"])
    def test_matches_per_gate_loop(self, rng, layout, repetitions, n_h, signs):
        p = build_uqnn(2, n_h, rng, layout=layout, repetitions=repetitions)
        if signs == "mixed":
            p = with_signs(p)
        check_block_kernel(p, rng)

    @pytest.mark.parametrize(
        "case", ["exhaustive-3v3h", "brick-3v3h", "identities-between-supports", "weight-three", "odd-qubit-count"]
    )
    def test_merged_blocks_within_tolerance(self, rng, case):
        """Blocks that take in gates on more than one support, at the same stated tolerance."""
        dense = True
        if case in ("exhaustive-3v3h", "brick-3v3h"):
            p = build_uqnn(3, 3, rng, layout=case.split("-")[0])
            width, dense = 4, False  # 153 dense 64 x 64 exponentials take seconds
        elif case == "identities-between-supports":
            gens = []
            for g in build_uqnn(2, 2, rng).generators:
                if gens and [q for q, _ in gens[-1].axes] != [q for q, _ in g.axes]:
                    gens.append(PauliTerm(1.0, ()))
                gens.append(g)
            p = UQNNParams(2, 2, gens, 2.0 * rng.standard_normal(len(gens)))
            assert sum(not g.axes for g in gens) == 9  # 3 between singles, 1 before the pairs, 5 between pairs
            width = 4
        elif case == "weight-three":
            gens = build_uqnn(2, 2, rng).generators
            gens[12:12] = [PauliTerm(1.0, ((0, "y"), (2, "x"), (3, "z")))]
            p = UQNNParams(2, 2, gens, 2.0 * rng.standard_normal(len(gens)))
            width = 8
        else:
            p = with_signs(build_uqnn(3, 2, rng))
            width = 4
            # qubit 4's singles form a block of 3 gates, padded with an idle qubit
            assert (p.blocks().gates < len(p.generators)).sum(axis=1).tolist()[:3] == [6, 6, 3]
        assert p.blocks().phase.shape[-1] == width
        check_block_kernel(p, rng, dense)


class TestBlockKernel:
    """Block statevector and sweep on circuits the bundled layouts do not cover."""

    def test_identity_string_generators(self, rng):
        x0, z1, ident = PauliTerm(1.0, ((0, "x"),)), PauliTerm(1.0, ((1, "z"),)), PauliTerm(1.0, ())
        gens = [ident, x0, ident, ident, z1, x0, ident]
        p = UQNNParams(1, 1, gens, 2.0 * rng.standard_normal(len(gens)))
        check_block_kernel(p, rng)
        # identities join whichever block is open: [I x0 I I], [z1], [x0 I]
        assert p.blocks().phase.shape[-1] == 2
        assert p.blocks().gates.tolist() == [[0, 1, 2, 3], [4, 7, 7, 7], [5, 6, 7, 7]]

    def test_one_qubit_circuit(self, rng):
        gens = [PauliTerm(1.0, ((0, a),)) for a in "xyzy"]
        p = UQNNParams(1, 0, gens, 2.0 * rng.standard_normal(len(gens)))
        check_block_kernel(p, rng)
        assert p.blocks().gates.shape == (1, 4)

    def test_weight_three_generator_from_checkpoint(self, rng):
        doc = checkpoint_doc(with_signs(build_uqnn(2, 1, rng, layout="brick")))
        doc["generators"][4:4] = [
            {"coeff": 1.0, "axes": [[0, "x"], [1, "y"], [2, "z"]]},
            {"coeff": 1.0, "axes": [[0, "z"], [1, "z"], [2, "y"]]},
        ]
        doc["thetas"][4:4] = [0.8, -1.3]
        p = load_checkpoint_model(doc)
        check_block_kernel(p, rng)
        assert p.blocks().phase.shape[-1] == 8

    def test_empty_circuit(self, rng):
        p = UQNNParams(1, 1, [], [])
        assert np.array_equal(uqnn_statevector(p), [1.0, 0.0, 0.0, 0.0])
        assert divergence._kernel_sweep(p, random_hermitian(2, rng), uqnn_statevector(p)).shape == (0,)

    def test_runs_of_one_support_form_one_block(self, rng):
        p = build_uqnn(3, 3, rng, repetitions=2)
        assert p.blocks().gates.shape == (2 * 18, 9)

    def test_blocks_grow_to_the_widest_generator(self, rng):
        # singles on qubits 0 and 1 share a block; qubit 2's singles cannot join
        # them and form a block of their own, padded to two qubits
        table = build_uqnn(3, 0, rng).blocks()
        assert table.gates.tolist() == [
            [0, 1, 2, 3, 4, 5, 36, 36, 36],
            [6, 7, 8, 36, 36, 36, 36, 36, 36],
            [*range(9, 18)],
            [*range(18, 27)],
            [*range(27, 36)],
        ]
        assert table.phase.shape[-1] == 4

    @pytest.mark.parametrize(
        "config,experiment,n_h,shapes",
        [
            ("fig2_3v3h", "thermal-learn", 3, (18, 9)),
            ("figF1_4v4h", "thermal-learn", 4, (32, 9)),
            ("plateau_3v", "plateau-scan", 0, (5, 9)),
            ("plateau_3v", "plateau-scan", 1, (8, 9)),
            ("plateau_3v", "plateau-scan", 2, (13, 9)),
            ("plateau_3v", "plateau-scan", 3, (18, 9)),
            ("mc_2q", "mc-estimate", 0, (1, 15)),
        ],
    )
    def test_bundled_circuit_blocks(self, rng, config, experiment, n_h, shapes):
        """The (blocks, gates per block) shape and the block width of every circuit a bundled config builds."""
        doc = cli.load_experiment_config(cli.bundled_config_path(f"{config}.json"), experiment)
        if experiment == "thermal-learn":
            cfg = training.TrainConfig(**doc["train"])
            assert cfg.n_h == n_h
            p = training._build_model(cfg, rng)
        else:
            assert n_h in doc.get("n_h_list", [doc.get("n_h")])
            p = build_uqnn(doc["n_v"], n_h, rng, doc.get("layout", "exhaustive"), doc.get("repetitions", 1))
        table = p.blocks()
        assert table.gates.shape == shapes
        assert table.phase.shape[-1] == 4

    def test_block_table_is_read_only(self, rng):
        table = build_uqnn(2, 1, rng).blocks()
        for a in table:
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0

    def test_products_follow_thetas(self, rng):
        p = build_uqnn(2, 1, rng)
        first = p.block_products()
        assert p.block_products() is first
        p.thetas[3] += 0.5
        moved = p.block_products()
        assert moved is not first
        p.thetas = p.thetas - 0.25
        assert p.block_products() is not moved
        assert np.max(np.abs(uqnn_statevector(p) - uqnn_state_reference(p))) < 1e-12

    def test_products_built_once_per_evaluate(self, rng, monkeypatch):
        calls, build = [], models._block_products
        monkeypatch.setattr(models, "_block_products", lambda t, th: calls.append(1) or build(t, th))
        p = build_uqnn(2, 2, rng)
        rho = random_density_matrix(2, rng)
        for direction in ("reverse", "forward"):
            p.thetas = p.thetas + 0.1
            calls.clear()
            divergence.evaluate(p, rho, direction)
            assert len(calls) == 1


class TestSharedLayoutTables:
    @pytest.fixture
    def block_builds(self):
        """Clears the layout cache; returns a count of its misses since then."""
        models._layout_blocks.cache_clear()
        yield lambda: models._layout_blocks.cache_info().misses
        models._layout_blocks.cache_clear()

    def test_one_build_per_layout(self, rng, block_builds):
        # the statevector, the sweep and the conjugated generators all run on
        # the one block table of the layout
        ps = [build_uqnn(3, 2, rng) for _ in range(50)]
        kernel = random_hermitian(8, rng)
        for p in ps:
            psi = uqnn_statevector(p)
            divergence._kernel_sweep(p, kernel, psi)
            conjugated_generator_vec(p, 2)
        assert block_builds() == 1
        assert all(p.blocks() is ps[0].blocks() for p in ps)

    def test_layouts_do_not_collide(self, rng, block_builds):
        x0 = [PauliTerm(1.0, ((0, "x"),))]
        one, two = UQNNParams(1, 0, x0, [0.3]).blocks(), UQNNParams(1, 1, x0, [0.3]).blocks()
        assert one.state_out.shape == (2,) and two.state_out.shape == (4,)
        exhaustive = build_uqnn(2, 1, rng).blocks()
        brick = build_uqnn(2, 1, rng, layout="brick").blocks()
        assert exhaustive.gates.shape != brick.gates.shape
        assert block_builds() == 4

    def test_builds_share_generator_terms(self, rng):
        a, b = build_uqnn(3, 2, rng), build_uqnn(3, 2, rng, repetitions=2)
        assert a.generators is not b.generators
        assert all(g is h for g, h in zip(a.generators + a.generators, b.generators))
        assert a.generators == two_local_terms(5)

    def test_tables_are_read_only(self, rng):
        table = build_uqnn(2, 1, rng).blocks()
        for a in table:
            with pytest.raises(ValueError, match="read-only"):
                a.reshape(-1)[0] = 0

    def test_non_unit_coefficient_rejected(self):
        for coeff in (0.5, -1.0, math.nan):
            p = UQNNParams(1, 0, [PauliTerm(1.0, ((0, "z"),)), PauliTerm(coeff, ((0, "x"),))], [0.1, 0.2])
            with pytest.raises(ValueError, match=f"must be a unit coefficient Pauli string, got coefficient {coeff}"):
                uqnn_statevector(p)

    def test_probes_and_checkpoints_reuse_tables(self, rng, block_builds):
        p = build_uqnn(2, 2, rng)
        shared = p.blocks()
        rho = random_density_matrix(2, rng)
        loss = cli._fd_loss(p, rho, "reverse")
        for _ in range(3):
            loss(p.thetas + 0.01 * rng.standard_normal(len(p.thetas)))
        divergence.fd_gradient(lambda th: uqnn_statevector(UQNNParams(2, 2, p.generators, th))[..., 0].real, p.thetas)
        back = load_checkpoint_model(checkpoint_doc(p))
        assert back.generators is not p.generators
        assert back.blocks() is shared
        assert block_builds() == 1


class TestConjugatedGenerator:
    def test_first_slot_is_bare_generator(self, rng):
        p = build_uqnn(2, 0, rng)
        bare = pauli_string_dense(2, p.generators[0].axes) @ uqnn_statevector(p)
        assert np.allclose(conjugated_generator_vec(p, 1), bare)

    def test_zero_thetas_all_bare(self, rng):
        gens = [PauliTerm(1.0, ax) for ax in [((0, "x"),), ((1, "y"),), ((0, "z"), (1, "z"))]]
        p = UQNNParams(2, 0, gens, np.zeros(3))
        for k in (1, 2, 3):
            assert np.allclose(conjugated_generator_vec(p, k), pauli_string_dense(2, gens[k - 1].axes)[:, 0])

    def test_conjugation_preserves_involution(self, rng):
        # H~_k is Hermitian and unitary: a unit vector with a real expectation value
        p = build_uqnn(2, 1, rng)
        psi = uqnn_statevector(p)
        for k in (1, len(p.generators) // 2, len(p.generators)):
            phi = conjugated_generator_vec(p, k)
            assert abs(np.linalg.norm(phi) - 1.0) < 1e-10
            assert abs(np.vdot(psi, phi).imag) < 1e-10

    def test_vec_route_matches_dense(self, rng):
        p = build_uqnn(2, 1, rng)
        psi = uqnn_statevector(p)
        dense = conjugated_generators_reference(p)
        for k in (1, 5, len(p.generators)):
            assert np.max(np.abs(conjugated_generator_vec(p, k) - dense[k - 1] @ psi)) < 1e-12
        with pytest.raises(IndexError):
            conjugated_generator_vec(p, 0)
        with pytest.raises(IndexError):
            conjugated_generator_vec(p, len(p.generators) + 1)

    def test_vec_member_stack_matches_solo_rows(self, rng):
        solo = [build_uqnn(2, 1, rng) for _ in range(3)]
        stack = UQNNParams(2, 1, solo[0].generators, np.stack([p.thetas for p in solo]))
        for k in (1, 5, len(stack.generators)):
            got = conjugated_generator_vec(stack, k)
            assert got.shape == (3, stack.dim)
            for row, p in zip(got, solo, strict=True):
                assert np.array_equal(row, conjugated_generator_vec(p, k))


def visible_state_derivative(p: UQNNParams, k: int) -> np.ndarray:
    """d sigma_v / d theta_k = -i (A - A^dag) with A = Tr_h(H~_k |psi><psi|), from the production vector route."""
    dv = 2**p.n_v
    a = conjugated_generator_vec(p, k).reshape(dv, -1) @ uqnn_statevector(p).reshape(dv, -1).conj().T
    return -1j * (a - a.conj().T)


class TestStateDerivative:
    def test_traceless_and_hermitian(self, rng):
        # against Tr_h of the dense commutator -i [H~_k, sigma]
        p = build_uqnn(2, 1, rng)
        d = visible_state_derivative(p, 3)
        assert abs(np.trace(d)) < 1e-12
        assert np.max(np.abs(d - d.conj().T)) < 1e-12
        psi = uqnn_state_reference(p)
        sigma, ht = np.outer(psi, psi.conj()), conjugated_generators_reference(p)[2]
        assert np.max(np.abs(d - partial_trace(-1j * (ht @ sigma - sigma @ ht), 2, 1))) < 1e-12

    def test_matches_finite_difference(self, rng):
        p = build_uqnn(2, 0, rng)
        h = 1e-6
        for k in (1, 7, len(p.generators)):
            analytic = visible_state_derivative(p, k)
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
            analytic = visible_state_derivative(p, k)
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
        assert np.max(np.abs(visible_state_derivative(p, 2))) < 1e-14


class TestQBM:
    def test_zero_thetas_maximally_mixed(self):
        basis = two_local_terms(3)
        p = QBMParams(2, 1, basis, np.zeros(len(basis)))
        assert np.allclose(qbm_visible_state(p).mat, np.eye(4) / 4)

    def test_matches_thermal_state_no_hidden(self, rng):
        p = build_qbm(2, 0, rng)
        ref = thermal_state(qbm_hamiltonian(p))
        assert np.allclose(qbm_visible_state(p).mat, ref.mat, atol=1e-12)

    def test_hidden_units_traced_out(self, rng):
        p = build_qbm(2, 1, rng)
        full = thermal_state(qbm_hamiltonian(p)).mat
        assert np.allclose(qbm_visible_state(p).mat, partial_trace(full, 2, 1), atol=1e-12)

    def test_hamiltonian_dense_matches_lcu(self, rng):
        p = build_qbm(2, 1, rng)
        ref = sum(th * pauli_string_dense(p.n_qubits, t.axes) for th, t in zip(p.thetas, p.basis))
        assert np.allclose(p.hamiltonian_dense(), ref, atol=1e-12)

    def test_theta_length_checked(self):
        basis = two_local_terms(2)
        with pytest.raises(ValueError):
            QBMParams(1, 1, basis, np.zeros(len(basis) - 1))


class TestCheckpoints:
    def test_uqnn_roundtrip(self, rng):
        p = build_uqnn(2, 1, rng)
        doc = checkpoint_doc(p, rng_seed=11, epoch=5)
        back = load_checkpoint_model(doc)
        assert isinstance(back, UQNNParams) and (doc["rng_seed"], doc["epoch"]) == (11, 5)
        assert back.n_v == p.n_v and back.n_h == p.n_h
        assert np.array_equal(back.thetas, p.thetas)
        assert [g.axes for g in back.generators] == [g.axes for g in p.generators]
        assert np.allclose(uqnn_statevector(back), uqnn_statevector(p))

    def test_qbm_roundtrip(self, rng):
        p = build_qbm(2, 1, rng)
        doc = checkpoint_doc(p)
        assert all(g["coeff"] == 1.0 for g in doc["generators"])
        back = load_checkpoint_model(doc)
        assert isinstance(back, QBMParams)
        assert np.array_equal(back.thetas, p.thetas)
        assert np.allclose(qbm_visible_state(back).mat, qbm_visible_state(p).mat)

    @pytest.mark.parametrize(
        "edit,message",
        [
            (lambda d: [d], "a checkpoint must be a JSON object, got list"),
            (lambda d: {k: v for k, v in d.items() if k != "thetas"}, "checkpoint lacks 'thetas'"),
            (lambda d: {**d, "kind": None}, "checkpoint kind must be 'uqnn' or 'qbm', got None"),
            (lambda d: {**d, "n_v": 0}, "checkpoint n_v must be an integer >= 1, got 0"),
            (lambda d: {**d, "n_h": True}, "checkpoint n_h must be an integer >= 0, got True"),
            (lambda d: {**d, "generators": 5}, "checkpoint generators must be a list, got 5"),
            (lambda d: {**d, "generators": d["generators"][:-1]}, "checkpoint thetas must be a list of 26 finite"),
            (lambda d: {**d, "thetas": [math.nan] + d["thetas"][1:]}, "checkpoint thetas must be a list of 27 finite"),
            (lambda d: {**d, "thetas": "0.1"}, "checkpoint thetas must be a list"),
            (lambda d: {**d, "generators": [5] + d["generators"][1:]}, r"checkpoint generators\[0\]: "),
            (lambda d: {**d, "generators": [{"coeff": 1.0}] + d["generators"][1:]},
             r"checkpoint generators\[0\] lacks 'axes'"),
            (lambda d: {**d, "generators": d["generators"][:-1] + [{"coeff": 1.0, "axes": [[0, "x"], [3, "z"]]}]},
             r"checkpoint generators\[26\]: qubit 3 out of range for n=3"),
            (lambda d: {**d, "generators": [{"coeff": -1.0, "axes": [[0, "x"]]}] + d["generators"][1:]},
             r"checkpoint generators\[0\]: .* got coefficient -1.0"),
            (lambda d: {**d, "generators": [{"coeff": 1.0, "axes": [[0, "w"]]}] + d["generators"][1:]},
             r"checkpoint generators\[0\]: bad axis"),
            (lambda d: {**d, "generators": [{"coeff": 1.0, "axes": [[0.5, "x"]]}] + d["generators"][1:]},
             r"checkpoint generators\[0\]: coeff must be a number and qubits integers"),
            (lambda d: {**d, "generators": [{"coeff": "1.0", "axes": [[0, "x"]]}] + d["generators"][1:]},
             r"checkpoint generators\[0\]: coeff must be a number and qubits integers"),
        ],
        ids=["list-document", "missing-key", "unknown-kind", "no-visible-qubits", "bool-width",
             "generators-not-a-list", "theta-count", "nan-theta", "thetas-not-a-list", "generator-not-an-object",
             "generator-lacks-axes", "qubit-out-of-range", "negative-coefficient", "bad-axis", "fractional-qubit",
             "string-coefficient"],
    )
    def test_malformed_checkpoint_raises_value_error_naming_the_field(self, rng, edit, message):
        doc = checkpoint_doc(build_uqnn(2, 1, rng, layout="brick"))
        assert len(doc["generators"]) == 27
        with pytest.raises(ValueError, match=message):
            load_checkpoint_model(edit(doc))

    @pytest.mark.parametrize("n_v", [13, 5000])
    @pytest.mark.parametrize("build", [build_uqnn, build_qbm])
    def test_width_over_the_cap_is_refused_at_load(self, rng, build, n_v):
        doc = {**checkpoint_doc(build(1, 1, rng)), "n_v": n_v}
        with pytest.raises(ValueError, match=rf"checkpoint n_v \+ n_h = {n_v} \+ 1: dimension .* exceeds cap 4096"):
            load_checkpoint_model(doc)

    def test_qbm_basis_coefficient_is_read_and_checked(self, rng):
        doc = checkpoint_doc(build_qbm(1, 0, rng))
        doc["generators"][1]["coeff"] = 2.0
        with pytest.raises(ValueError, match="unit coefficient"):
            load_checkpoint_model(doc)


    @pytest.mark.parametrize("rng_seed", [7, None])
    @pytest.mark.parametrize(
        "config,experiment",
        [("fig2_3v3h.json", "thermal-learn"), ("figF1_4v4h.json", "thermal-learn"),
         ("fig3_tau10.json", "ham-learn"), ("figF4_tau5.json", "ham-learn")],
    )
    def test_checkpoint_text_is_json_dumps_of_the_doc(self, rng, config, experiment, rng_seed):
        doc = cli.load_experiment_config(cli.bundled_config_path(config), experiment)
        cfg = training.TrainConfig(**doc["train"])
        # two models of the layout: the second is written from the head the first encoded
        for _ in range(2):
            p = training._build_model(cfg, rng)
            p.thetas = p.thetas * rng.standard_normal(p.thetas.shape) ** 3
            assert checkpoint_text(p, rng_seed, cfg.epochs) == json.dumps(checkpoint_doc(p, rng_seed, cfg.epochs), indent=1)


JSON_FLOATS = st.floats(allow_nan=True, allow_infinity=True)
JSON_DATA = st.recursive(
    st.none() | st.booleans() | st.integers() | JSON_FLOATS | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=24,
)


class TestJsonText:
    @settings(max_examples=200, deadline=None)
    @given(JSON_DATA)
    @example({"epoch": [0, 10], "stats": {"a": [-0.0, 5e-324, 1e16, math.nan, math.inf, -math.inf]}, "failures": []})
    @example({"\u00e9\u4e2d\"q'\\": ["\u00e9\"", "", {}, [], None, True, False, -(2**70)]})
    @example([[[]], [{}], {"": {"": []}}])
    def test_equals_json_dumps_with_indent_one(self, obj):
        assert json_text(obj) == json.dumps(obj, indent=1)

    @pytest.mark.parametrize("bad", [{1: 2.0}, {"a": {None: 1}}, {"a": object()}, np.float32(1.0)])
    def test_non_string_keys_and_non_json_objects_raise(self, bad):
        with pytest.raises(TypeError):
            json_text(bad)


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
        assert abs(purity(full_state(p)) - 1.0) < 1e-10

    def test_unknown_layout(self, rng):
        with pytest.raises(ValueError, match="layout"):
            build_uqnn(2, 0, rng, layout="ring")

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
        # the init is the raw N(0, 1) draw divided once by its operator norm
        basis = two_local_terms(2)
        raw = QBMParams(2, 0, basis, rng_factory(9).standard_normal(len(basis)))
        scaled = build_qbm(2, 0, rng_factory(9))
        assert np.array_equal(scaled.thetas, raw.thetas / op_norm(raw.hamiltonian_dense()))

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import stats

from renyiqnn import hamiltonians
from renyiqnn.hamiltonians import (
    LCUHamiltonian,
    PauliTerm,
    normalize,
    pair_axes,
    pauli_tables,
    pauli_traces,
    random_three_local,
    random_two_local,
    single_axes,
    string_trace,
    triple_axes,
    two_local_terms,
    weighted_sum_dense,
)
from renyiqnn.qmath import op_norm
from renyiqnn.states import thermal_state
from renyiqnn.swaptest import _series_terms
from tests.conftest import pauli_string_dense, random_hermitian


class TestPauliTerm:
    def test_sigma_y_literal(self):
        m = LCUHamiltonian(1, [PauliTerm(1.0, ((0, "y"),))]).dense()
        assert np.array_equal(m, np.array([[0, -1j], [1j, 0]]))

    def test_dense_matches_kron_reference(self):
        t = PauliTerm(0.7, ((0, "x"), (2, "z")))
        assert np.allclose(LCUHamiltonian(3, [t]).dense(), 0.7 * pauli_string_dense(3, ((0, "x"), (2, "z"))))

    def test_string_is_involution(self):
        t = PauliTerm(1.0, ((0, "x"), (1, "y"), (2, "z")))
        m = LCUHamiltonian(3, [t]).dense()
        assert np.allclose(m @ m, np.eye(8))

    def test_masks(self):
        x, z, ny = PauliTerm(1.0, ((0, "x"), (1, "y"), (2, "z"))).masks(3)
        # qubit 0 is the most significant bit
        assert x == 0b110 and z == 0b011 and ny == 1

    def test_action_form_matches_dense(self, rng):
        t = PauliTerm(1.0, ((0, "y"), (1, "x")))
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        idx, col_phase = t.action(2)
        assert np.allclose((col_phase * v)[idx], pauli_string_dense(2, t.axes) @ v)

    def test_rejects_unsorted_qubits(self):
        with pytest.raises(ValueError, match="increasing"):
            PauliTerm(1.0, ((1, "x"), (0, "z")))

    def test_rejects_duplicate_qubit(self):
        with pytest.raises(ValueError, match="increasing"):
            PauliTerm(1.0, ((0, "x"), (0, "z")))

    def test_rejects_bad_axis(self):
        with pytest.raises(ValueError, match="axis"):
            PauliTerm(1.0, ((0, "w"),))

    def test_rejects_negative_qubit(self):
        with pytest.raises(ValueError, match="negative"):
            PauliTerm(1.0, ((-1, "x"),))

    def test_out_of_range_qubit(self):
        with pytest.raises(ValueError, match="out of range"):
            PauliTerm(1.0, ((3, "x"),)).masks(2)


class TestStringTrace:
    def test_matches_dense_trace(self, rng):
        m = random_hermitian(8, rng)
        for axes in (((0, "x"),), ((1, "y"), (2, "z")), ((0, "z"), (1, "x"), (2, "y"))):
            t = PauliTerm(1.0, axes)
            idx, col_phase = t.action(3)
            ref = np.trace(pauli_string_dense(3, axes) @ m)
            assert abs(string_trace(m, idx, col_phase) - ref) < 1e-12

    def test_identity_string(self):
        t = PauliTerm(1.0, ())
        idx, col_phase = t.action(2)
        assert abs(string_trace(np.eye(4, dtype=complex), idx, col_phase) - 4.0) < 1e-14


def random_terms(n: int, count: int, rng: np.random.Generator) -> list[PauliTerm]:
    """Distinct random Pauli strings on n qubits, every axis (y included) equally likely."""
    terms, seen = [], set()
    while len(terms) < count:
        qubits = sorted(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False))
        axes = tuple((int(q), str(rng.choice(["x", "y", "z"]))) for q in qubits)
        if axes not in seen:
            seen.add(axes)
            terms.append(PauliTerm(1.0, axes))
    return terms


def per_term_dense(n: int, coeffs, terms) -> np.ndarray:
    """The per-term scatter loop dense assembly used before stacked tables."""
    d = 2**n
    m = np.zeros((d, d), dtype=complex)
    cols = np.arange(d)
    for c, t in zip(coeffs, terms):
        idx, col_phase = t.action(n)
        m[idx, cols] += c * col_phase
    return m


class TestPauliTables:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_rows_equal_string_action(self, rng, n):
        terms = random_terms(n, min(12, 4**n - 1), rng)
        assert any(a == "y" for t in terms for _, a in t.axes)
        idx, col_phase = pauli_tables(terms, n)[:2]
        assert idx.shape == col_phase.shape == (len(terms), 2**n)
        ref = [t.action(n) for t in terms]  # string_action, one string at a time
        assert idx.dtype == ref[0][0].dtype and col_phase.dtype == ref[0][1].dtype
        assert np.array_equal(idx, np.stack([r[0] for r in ref]))
        assert np.array_equal(col_phase, np.stack([r[1] for r in ref]))

    @pytest.mark.parametrize("n", [1, 3])
    def test_empty_term_list(self, n):
        idx, col_phase = pauli_tables([], n)[:2]
        assert idx.shape == col_phase.shape == (0, 2**n)
        m = LCUHamiltonian(n, []).dense()
        assert m.shape == (2**n, 2**n) and not np.any(m)

    @pytest.mark.parametrize("n", [1, 2, 4, 6])
    def test_scatter_equals_per_term_loop(self, rng, n):
        terms = random_terms(n, min(20, 4**n - 1), rng)
        coeffs = rng.standard_normal(len(terms))
        m = weighted_sum_dense(coeffs, pauli_tables(terms, n))
        assert np.array_equal(m, per_term_dense(n, coeffs, terms))

    @pytest.mark.parametrize("n", [1, 3, 5])
    def test_gather_equals_string_trace_loop(self, rng, n):
        terms = random_terms(n, min(15, 4**n - 1), rng)
        d = 2**n
        m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        ref = [string_trace(m, *t.action(n)) for t in terms]
        assert np.array_equal(pauli_traces(m, pauli_tables(terms, n)), ref)

    def test_out_of_range_qubit(self):
        with pytest.raises(ValueError, match="out of range"):
            pauli_tables([PauliTerm(1.0, ((0, "x"),)), PauliTerm(1.0, ((2, "y"),))], 2)


def add_at_dense(coeffs, tables) -> np.ndarray:
    """The scatter weighted_sum_dense replaced: np.add.at of every term's values, in term order, onto +0."""
    idx, col_phase = tables[:2]
    d = idx.shape[1]
    vals = np.asarray(coeffs, dtype=float)[..., None] * col_phase
    m = np.zeros(vals.shape[:-2] + (d, d), dtype=complex)
    np.add.at(m, (..., idx, np.arange(d)), vals)
    return m


# signed zeros, subnormals and magnitudes whose sums round, cancel or overflow
HARSH = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.5e-310, -1e-300, 1e-300, 1e300, -1e300, 1.7e308, 1.0, -1.0])
COEFFS = st.one_of(HARSH, st.floats(-1e6, 1e6, allow_nan=False, allow_subnormal=True))


@st.composite
def sums(draw):
    """(terms, coefficient stack, n): any subset of the identity and the 1-3-local strings on 1-5 qubits, in any order."""
    n = draw(st.integers(1, 5))
    axes = [()] + single_axes(n) + pair_axes(n) + (triple_axes(n) if n >= 3 else [])
    picked = draw(st.lists(st.integers(0, len(axes) - 1), unique=True, max_size=174))
    lead = draw(st.sampled_from([(), (1,), (3,), (2, 2)]))
    coeffs = draw(hnp.arrays(float, lead + (len(picked),), elements=COEFFS))
    return [PauliTerm(1.0, axes[i]) for i in picked], coeffs, n


class TestFlipMaskAssembly:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(sums())
    def test_bytes_equal_add_at(self, drawn):
        terms, coeffs, n = drawn
        tables = pauli_tables(terms, n)
        with np.errstate(over="ignore", invalid="ignore"):
            got, ref = weighted_sum_dense(coeffs, tables), add_at_dense(coeffs, tables)
        assert got.shape == ref.shape == coeffs.shape[:-1] + (2**n, 2**n)
        assert got.tobytes() == ref.tobytes()

    def test_groups_hold_each_term_once_in_term_order(self, rng):
        terms = random_terms(4, 60, rng)
        tables = pauli_tables(terms, 4)
        flips = tables.idx[:, 0]
        members = [[t - 1 for t in column if t] for column in tables.groups.T]
        assert sorted(t for m in members for t in m) == list(range(len(terms)))
        assert all(m == sorted(m) and len(set(flips[m])) == 1 for m in members)
        assert not tables.groups[0].any()  # the +0 lead


class TestTermGeneration:
    def test_single_pair_triple_counts(self):
        assert len(single_axes(3)) == 9
        assert len(pair_axes(3)) == 27
        assert len(triple_axes(3)) == 27
        assert len(pair_axes(4)) == 54
        assert len(triple_axes(4)) == 108

    def test_two_local_term_counts(self):
        assert len(two_local_terms(2)) == 15
        assert len(two_local_terms(3)) == 36
        assert len(two_local_terms(4)) == 66

    def test_axes_are_unique(self):
        axes = [t.axes for t in two_local_terms(4)]
        assert len(set(axes)) == len(axes)

    def test_three_local_counts(self, rng):
        assert len(random_three_local(3, 1.0, rng).terms) == 63
        assert len(random_three_local(4, 1.0, rng).terms) == 174

    def test_three_local_needs_three_qubits(self, rng):
        with pytest.raises(ValueError):
            random_three_local(2, 1.0, rng)


class TestLCUHamiltonian:
    def test_dense_hermitian(self, rng):
        h = random_two_local(3, 0.5, 0.5, rng)
        m = h.dense()
        assert np.max(np.abs(m - m.conj().T)) < 1e-12

    def test_dense_linearity(self):
        a = PauliTerm(0.3, ((0, "x"),))
        b = PauliTerm(-1.2, ((0, "z"), (1, "z")))
        h = LCUHamiltonian(2, [a, b])
        assert np.allclose(h.dense(), 0.3 * pauli_string_dense(2, a.axes) - 1.2 * pauli_string_dense(2, b.axes))

    def test_alpha_norm(self):
        h = LCUHamiltonian(2, [PauliTerm(0.3, ((0, "x"),)), PauliTerm(-1.2, ((1, "z"),))])
        assert abs(_series_terms(h)[2] - 1.5) < 1e-14

    def test_op_norm_bounded_by_alpha_norm(self, rng):
        for _ in range(5):
            h = random_two_local(3, 0.5, 0.5, rng)
            assert op_norm(h.dense()) <= _series_terms(h)[2] + 1e-10

    def test_zero_std_gives_zero_hamiltonian(self, rng):
        h = random_two_local(3, 0.0, 0.0, rng)
        assert np.max(np.abs(h.dense())) == 0.0


class TestNormalize:
    def test_sets_operator_norm(self, rng):
        h = normalize(random_two_local(3, 0.5, 0.5, rng), 10.0)
        assert abs(op_norm(h.dense()) - 10.0) < 1e-10

    def test_idempotent(self, rng):
        h = normalize(random_two_local(2, 0.5, 0.5, rng), 3.0)
        h2 = normalize(h, 3.0)
        assert np.allclose(h.dense(), h2.dense(), atol=1e-12)

    def test_zero_hamiltonian_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            normalize(LCUHamiltonian(1, [PauliTerm(0.0, ((0, "z"),))]), 1.0)

    def test_tau_ten_thermal_spread(self, rng):
        # weight ratio is e^{lam_max - lam_min}; norm 10 pushes it past e^{10}
        h = normalize(random_three_local(3, 1.0, rng), 10.0)
        lam = np.linalg.eigvalsh(h.dense())
        w = np.linalg.eigvalsh(thermal_state(h).mat)
        assert w.max() / w.min() == pytest.approx(math.exp(lam.max() - lam.min()), rel=1e-6)
        assert w.max() / w.min() > math.exp(10.0)
        assert max(abs(lam.max()), abs(lam.min())) == pytest.approx(10.0, abs=1e-9)


    @pytest.mark.parametrize("locality", [2, 3])
    def test_rescaled_copy_shares_tables_and_target_is_bit_identical(self, rng, monkeypatch, locality):
        built = []

        def counting(terms, n_qubits):
            built.append(len(terms))
            return pauli_tables(terms, n_qubits)

        monkeypatch.setattr(hamiltonians, "pauli_tables", counting)
        hamiltonians._unit_tables.cache_clear()
        raw = random_two_local(4, 0.5, 1.0, rng) if locality == 2 else random_three_local(4, 1.0, rng)
        h = normalize(raw, 10.0)
        rho = thermal_state(h)
        # one assembly of the strings per (n, locality) in the process, for op_norm, the copy and the state
        assert built == [len(raw.terms)]
        assert h.tables() is raw.tables()
        redraw = random_two_local(4, 0.5, 1.0, rng) if locality == 2 else random_three_local(4, 1.0, rng)
        assert redraw.tables() is raw.tables() and built == [len(raw.terms)]
        # the same target as from freshly checked terms and freshly built tables
        s = 10.0 / op_norm(raw.dense())
        fresh = LCUHamiltonian(4, [PauliTerm(s * t.coeff, t.axes) for t in raw.terms])
        assert h.terms == fresh.terms
        assert np.array_equal(h.dense(), fresh.dense())
        assert all(np.array_equal(a, b) for a, b in zip(h.tables(), fresh.tables()))
        want = thermal_state(fresh)
        assert np.array_equal(rho.mat, want.mat)
        assert all(np.array_equal(x, y) for x, y in zip(rho.factor(), want.factor()))


class TestCoefficientDistributions:
    def test_two_local_coefficient_scales(self, rng_factory):
        rng = rng_factory(7)
        singles, pairs = [], []
        for _ in range(1200):
            h = random_two_local(2, math.sqrt(0.1), 1.0, rng)
            for t in h.terms:
                (singles if len(t.axes) == 1 else pairs).append(t.coeff)
        ks_s = stats.kstest(singles, "norm", args=(0.0, math.sqrt(0.1)))
        ks_p = stats.kstest(pairs, "norm", args=(0.0, 1.0))
        assert ks_s.pvalue > 0.01
        assert ks_p.pvalue > 0.01

    def test_three_local_coefficient_scale(self, rng):
        coeffs = []
        for _ in range(200):
            coeffs.extend(t.coeff for t in random_three_local(3, 0.7, rng).terms)
        ks = stats.kstest(coeffs, "norm", args=(0.0, 0.7))
        assert ks.pvalue > 0.01

import json
import math

import numpy as np
import pytest

from renyiqnn.divergence import (
    REL_CUTOFF,
    SingularStateError,
    _kernel_sweep,
    renyi2_forward,
    renyi2_reverse,
    state_gradient_entry,
)
from renyiqnn.hamiltonians import normalize, random_two_local
from renyiqnn.models import build_uqnn, uqnn_statevector
from renyiqnn.plateau import (
    PlateauReport,
    _second_expr_mean,
    haar_gradient_moment,
    init_gradient_scan,
    lemma1_bounds,
)
from renyiqnn.states import DensityMatrix, haar_unitary, random_density_matrix
from tests.conftest import random_hermitian


def dm(mat: np.ndarray) -> DensityMatrix:
    return DensityMatrix.from_mat(np.asarray(mat, dtype=complex))


def traceless_hermitian(d: int, rng) -> np.ndarray:
    m = random_hermitian(d, rng)
    return m - np.trace(m) / d * np.eye(d)


class TestLemma1Bounds:
    def test_maximally_mixed_second_expression(self, rng):
        # sigma = I/2^n: Tr(sigma dsigma) = Tr(dsigma)/2^n and |sigma| = 1/2^n,
        # so second = Tr^2(dsigma) exactly (scale factors cancel)
        n = 2
        sigma = dm(np.eye(4) / 4)
        d = random_hermitian(4, rng)  # deliberately not traceless
        first, second = lemma1_bounds(sigma, d, n)
        assert second == pytest.approx(float(np.trace(d).real) ** 2, rel=1e-12)
        # first = Tr^2(sigma^-2 d) / (2^{2n} Tr^2(sigma^-1)) with sigma^-1 = 4I
        expect_first = (16 * np.trace(d).real) ** 2 / (16 * 16**2)
        assert first == pytest.approx(expect_first, rel=1e-12)

    def test_commutator_tangent_annihilates_both(self, rng):
        # dsigma = -i[P, sigma] makes both traces vanish by cyclicity
        sigma = random_density_matrix(2, rng)
        p = random_hermitian(4, rng)
        d = -1j * (p @ sigma.mat - sigma.mat @ p)
        first, second = lemma1_bounds(sigma, d, 2)
        # zero up to squared floating-point cancellation of O(1) traces
        assert first < 1e-20
        assert second < 1e-20

    def test_product_extension_scaling(self, rng):
        # extend sigma -> sigma x I/2 and dsigma -> dsigma x I/2 (one more qubit):
        # first picks up 1/4, second is unchanged, exactly
        sigma = random_density_matrix(2, rng)
        d = traceless_hermitian(4, rng) + 0.3 * np.eye(4)
        f1, s1 = lemma1_bounds(sigma, d, 2)
        big_sigma = dm(np.kron(sigma.mat, np.eye(2) / 2))
        big_d = np.kron(d, np.eye(2) / 2)
        f2, s2 = lemma1_bounds(big_sigma, big_d, 3)
        assert f2 == pytest.approx(f1 / 4, rel=1e-10)
        assert s2 == pytest.approx(s1, rel=1e-10)

    def test_singular_state_rejected(self, rng):
        sigma = dm(np.diag([1.0, 0.0]))
        with pytest.raises(SingularStateError):
            lemma1_bounds(sigma, np.eye(2), 1)

    @pytest.mark.parametrize("ratio, singular", [(REL_CUTOFF * (1 + 1e-3), False), (REL_CUTOFF * (1 - 1e-3), True)])
    def test_one_singular_state_rule(self, rng, ratio, singular):
        # the losses in both directions and lemma1_bounds accept or reject a state together
        u = haar_unitary(1, rng)
        state = DensityMatrix.from_factor(u, np.array([ratio, 1.0]) / (1.0 + ratio))
        other = random_density_matrix(1, rng)
        smin = float(np.min(state.factor()[1]))
        calls = [
            lambda: renyi2_reverse(other, state).conditioning,
            lambda: renyi2_forward(other, state).conditioning,
            lambda: lemma1_bounds(state, np.eye(2), 1),
        ]
        if singular:
            for call in calls:
                with pytest.raises(SingularStateError) as exc_info:
                    call()
                assert exc_info.value.conditioning == smin
        else:
            assert calls[0]() == calls[1]() == smin
            calls[2]()

    def test_dimension_check(self, rng):
        sigma = random_density_matrix(2, rng)
        with pytest.raises(ValueError, match="does not match"):
            lemma1_bounds(sigma, np.eye(4), 3)

    def test_non_hermitian_tangent_rejected(self, rng):
        sigma = random_density_matrix(1, rng)
        bad = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="Hermitian"):
            lemma1_bounds(sigma, bad, 1)


def haar_moment_loop(sigma, dsigma, rho, direction, n_samples, rng) -> float:
    """Reference Haar moment: one unitary, conjugation and gradient entry per sample."""
    acc = 0.0
    for _ in range(n_samples):
        u = haar_unitary(sigma.n_qubits, rng)
        g = state_gradient_entry(u @ sigma.mat @ u.conj().T, u @ dsigma @ u.conj().T, rho.mat, direction)
        acc += g * g
    return acc / n_samples


class TestHaarGradientMoment:
    @pytest.mark.parametrize("direction", ["reverse", "forward"])
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_stacked_samples_equal_sample_loop(self, rng_factory, n, direction):
        rng = rng_factory(500 + n)
        sigma, rho = random_density_matrix(n, rng), random_density_matrix(n, rng)
        d = traceless_hermitian(2**n, rng)
        got = haar_gradient_moment(sigma, d, rho, direction, 40, rng_factory(600 + n))
        assert got == haar_moment_loop(sigma, d, rho, direction, 40, rng_factory(600 + n))

    def test_zero_tangent_gives_zero(self, rng):
        sigma = random_density_matrix(2, rng)
        rho = random_density_matrix(2, rng)
        m = haar_gradient_moment(sigma, np.zeros((4, 4)), rho, "reverse", 10, rng)
        assert m == 0.0

    def test_finite_and_positive(self, rng):
        sigma = random_density_matrix(2, rng)
        rho = random_density_matrix(2, rng)
        d = traceless_hermitian(4, rng)
        for direction in ("reverse", "forward"):
            m = haar_gradient_moment(sigma, d, rho, direction, 20, rng)
            assert np.isfinite(m) and m > 0

    def test_haar_invariance(self, rng_factory):
        # pre-rotating (sigma, dsigma) by a fixed unitary must not move the
        # moment beyond sampling noise: compare batched estimates at 3 sigma
        from renyiqnn.states import haar_unitary

        rng = rng_factory(3)
        sigma = random_density_matrix(2, rng)
        rho = random_density_matrix(2, rng)
        d = traceless_hermitian(4, rng)
        v = haar_unitary(2, rng)
        sigma_rot = dm(v @ sigma.mat @ v.conj().T)
        d_rot = v @ d @ v.conj().T

        def batch(s, dd, seed):
            r = rng_factory(seed)
            return np.array(
                [haar_gradient_moment(s, dd, rho, "reverse", 60, r) for _ in range(8)]
            )

        a = batch(sigma, d, 100)
        b = batch(sigma_rot, d_rot, 200)
        se = math.sqrt(a.var(ddof=1) / len(a) + b.var(ddof=1) / len(b))
        assert abs(a.mean() - b.mean()) < 3 * se

    def test_moment_respects_reference_scale(self, rng_factory):
        # generic traceless tangents: the measured moment clears 0.1x the
        # matching expression on most draws; the inverse-free expression
        # pairs with reverse, the sigma^-2 expression with forward
        rng = rng_factory(8)
        hits, total = 0, 0
        for n in (2, 3):
            for _ in range(5):
                sigma = random_density_matrix(n, rng)
                rho = random_density_matrix(n, rng)
                d = traceless_hermitian(2**n, rng)
                first, second = lemma1_bounds(sigma, d, n)
                m_rev = haar_gradient_moment(sigma, d, rho, "reverse", 120, rng)
                m_fwd = haar_gradient_moment(sigma, d, rho, "forward", 120, rng)
                hits += (m_rev >= 0.1 * second) + (m_fwd >= 0.1 * first)
                total += 2
        assert hits / total >= 0.9

    def test_argument_validation(self, rng):
        sigma = random_density_matrix(1, rng)
        rho = random_density_matrix(1, rng)
        with pytest.raises(ValueError, match="n_samples"):
            haar_gradient_moment(sigma, np.zeros((2, 2)), rho, "reverse", 0, rng)
        with pytest.raises(ValueError, match="dimensions"):
            haar_gradient_moment(sigma, np.zeros((2, 2)), random_density_matrix(2, rng), "reverse", 1, rng)
        with pytest.raises(ValueError, match="Hermitian"):
            haar_gradient_moment(sigma, np.array([[0, 1], [0, 0]]), rho, "reverse", 1, rng)


class TestInitGradientScan:
    def test_medians_stay_macroscopic(self, rng_factory):
        rng = rng_factory(21)
        target = normalize(random_two_local(2, math.sqrt(0.1), 1.0, rng), 1.0)
        report = init_gradient_scan(2, target, [0, 1], ensemble=6, rng=rng)
        for n_h in (0, 1):
            med = report.stat(2, n_h, "reverse", "inf_norm_median")
            assert med > 1e-3

    def test_linear_baseline_reported(self, rng_factory):
        rng = rng_factory(22)
        target = normalize(random_two_local(2, math.sqrt(0.1), 1.0, rng), 1.0)
        report = init_gradient_scan(2, target, [1], ensemble=4, rng=rng)
        rev = report.stat(2, 1, "reverse", "inf_norm_median")
        lin = report.stat(2, 1, "linear", "inf_norm_median")
        assert lin > 0
        print(f"reverse/linear inf-norm median ratio at n_v=2 n_h=1: {rev / lin:.2f}")

    def test_bound_expression_only_on_reverse(self, rng_factory):
        rng = rng_factory(23)
        target = normalize(random_two_local(2, math.sqrt(0.1), 1.0, rng), 1.0)
        report = init_gradient_scan(2, target, [0], ensemble=2, rng=rng)
        assert report.stat(2, 0, "reverse", "lemma1_second_expr_mean") > 0
        with pytest.raises(KeyError):
            report.stat(2, 0, "linear", "lemma1_second_expr_mean")

    def test_ensemble_of_one_degenerate_quantiles(self, rng_factory):
        rng = rng_factory(24)
        target = normalize(random_two_local(2, math.sqrt(0.1), 1.0, rng), 1.0)
        report = init_gradient_scan(2, target, [0], ensemble=1, rng=rng)
        q10 = report.stat(2, 0, "reverse", "inf_norm_q10")
        q90 = report.stat(2, 0, "reverse", "inf_norm_q90")
        assert q10 == q90  # single member: all quantiles coincide

    def test_target_size_checked(self, rng_factory):
        rng = rng_factory(25)
        target = normalize(random_two_local(3, 0.5, 0.5, rng), 1.0)
        with pytest.raises(ValueError, match="expected n_v"):
            init_gradient_scan(2, target, [0], ensemble=1, rng=rng)

    def test_repeated_width_rejected(self, rng_factory):
        rng = rng_factory(27)
        target = normalize(random_two_local(2, 0.5, 0.5, rng), 1.0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match=r"n_h_list repeats a width: \[1, 1\]"):
            init_gradient_scan(2, target, [1, 1], ensemble=1, rng=rng)
        assert rng.bit_generator.state == state  # refused before any circuit is drawn

    def test_ensemble_validated(self, rng_factory):
        rng = rng_factory(26)
        target = normalize(random_two_local(2, 0.5, 0.5, rng), 1.0)
        with pytest.raises(ValueError, match="ensemble"):
            init_gradient_scan(2, target, [0], ensemble=0, rng=rng)

    def test_empty_width_list_rejected(self, rng_factory):
        rng = rng_factory(26)
        target = normalize(random_two_local(2, 0.5, 0.5, rng), 1.0)
        with pytest.raises(ValueError, match="n_h_list must not be empty"):
            init_gradient_scan(2, target, [], ensemble=1, rng=rng)


class TestSecondExpressionFromKernelSweep:
    """The O(N^2) per-angle bound equals one O(N) sweep with sigma_v as kernel.

    Tr(sigma_v dsigma_v/dtheta_k) = 2 Im Tr(sigma_v Tr_h(H~_k sigma)), which is
    entry k of _kernel_sweep(p, sigma_v, psi).
    """

    @staticmethod
    def both_sides(n_h: int, seed: int) -> tuple[float, float]:
        p = build_uqnn(3, n_h, np.random.default_rng(seed))
        psi = uqnn_statevector(p)
        psi_m = psi.reshape(8, -1)
        sv = psi_m @ psi_m.conj().T
        wmax = float(np.linalg.eigvalsh(0.5 * (sv + sv.conj().T))[-1])
        swept = _kernel_sweep(p, sv, psi)
        return _second_expr_mean(p, psi), float(np.mean(swept**2)) / (8.0**2 * wmax**4)

    @pytest.mark.parametrize("n_h", [1, 2, 3])
    def test_mixed_visible_state(self, n_h):
        for seed in range(3):
            per_angle, swept = self.both_sides(n_h, seed)
            assert swept == pytest.approx(per_angle, rel=1e-12, abs=0.0)

    def test_pure_visible_state(self):
        # without hidden qubits both sides are rounding noise near 1e-33
        for seed in range(3):
            per_angle, swept = self.both_sides(0, seed)
            assert abs(per_angle) < 1e-30 and abs(swept - per_angle) < 1e-30


class TestPlateauReport:
    def make_report(self):
        return PlateauReport(3, {(2, 1, "reverse"): {"inf_norm_median": 0.5, "grad_sq_mean": 0.01}})

    def test_json_roundtrip(self, tmp_path):
        report = self.make_report()
        path = tmp_path / "report.json"
        report.save_json(str(path))
        back = PlateauReport.from_json_dict(json.loads(path.read_text()))
        assert back.ensemble_size == 3
        assert back.records == report.records

    def test_csv_header_and_rows(self, tmp_path):
        report = self.make_report()
        path = tmp_path / "report.csv"
        report.to_csv(str(path))
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "n_v,n_h,loss_kind,stat_name,value"
        assert len(lines) == 1 + len(report.records[(2, 1, "reverse")])

    def test_stat_lookup_errors(self):
        report = self.make_report()
        with pytest.raises(KeyError):
            report.stat(9, 9, "reverse", "inf_norm_median")
        with pytest.raises(KeyError):
            report.stat(2, 1, "reverse", "no_such_stat")

    def test_ensemble_size_validated(self):
        with pytest.raises(ValueError, match="ensemble_size"):
            PlateauReport(0, {})

    def test_non_finite_statistic_rejected(self):
        with pytest.raises(ValueError, match=r"non-finite statistic grad_sq_mean=nan in \(n_v=2, n_h=1, reverse\)"):
            PlateauReport(3, {(2, 1, "reverse"): {"inf_norm_median": 0.5, "grad_sq_mean": math.nan}})

    def test_one_record_per_configuration(self):
        # the report is keyed by configuration; a report.json read back may not repeat one
        doc = self.make_report().to_json_dict()
        rec = doc["records"][0]
        PlateauReport.from_json_dict({**doc, "records": [rec, {**rec, "loss_kind": "linear"}]})
        with pytest.raises(ValueError, match=r"two records for one \(n_v, n_h, loss_kind\)"):
            PlateauReport.from_json_dict({**doc, "records": [rec, {**rec, "stats": {"inf_norm_median": 0.7}}]})

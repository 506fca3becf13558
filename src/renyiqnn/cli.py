"""Command-line entry point binding JSON experiment configs to runs.

Subcommands: thermal-learn (circuit models against thermal targets),
ham-learn (Boltzmann models against three-local thermal targets),
plateau-scan (epoch-0 gradient statistics over random initializations),
validate (self-check suites: swap, grad, mc), and mc-estimate (shot-based
gradient estimate vs its exact value).

Exit codes: 0 success, 1 config error (bad JSON, unknown keys, missing or
wrong schema_version, invalid values, usage errors), 2 runtime failure,
3 one or more validation checks failed.

Every command that writes an output directory also writes the exact
resolved config (all defaults filled in) so the run can be repeated from
the artifact alone.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, replace

import numpy as np

from .divergence import (
    SingularStateError,
    evaluate,
    fd_richardson,
    qbm_grad_forward,
    qbm_grad_forward_frechet,
    qbm_grad_reverse,
    qbm_grad_reverse_frechet,
    renyi2_forward,
    renyi2_reverse,
    uqnn_grad_reverse,
)
from .hamiltonians import LCUHamiltonian, PauliTerm
from .models import LAYOUTS, QBMParams, UQNNParams, build_qbm, build_uqnn, qbm_visible_state, uqnn_visible_state
from .plateau import init_gradient_scan
from .states import DensityMatrix, haar_unitary, random_density_matrix, thermal_state
from .swaptest import (
    ALPHA_NORM_GUARD,
    DEFAULT_Q_MAX,
    SwapTestSpec,
    cyclic_shift,
    mc_reverse_gradient_thermal,
    swap_test_probability,
    trace_power_estimate,
)
from .training import TrainConfig, TrainingError, default_std_single, run_ensemble, target_hamiltonian

SCHEMA_VERSION = 1
CONFIG_DIR = os.path.join(os.path.dirname(__file__), "configs")


class ConfigError(ValueError):
    """Invalid config document or command line."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on usage errors; the contract reserves 2 for
    # runtime failures, so usage errors are rerouted through ConfigError.
    def error(self, message: str):
        raise ConfigError(message)


def bundled_config_path(name: str) -> str:
    """Absolute path of a config shipped inside the package."""
    return os.path.join(CONFIG_DIR, name)


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    return doc


_TOP_KEYS = {
    "thermal-learn": {"schema_version", "experiment", "train", "n_runs", "full_n_runs", "vary", "out_dir"},
    "ham-learn": {"schema_version", "experiment", "train", "n_runs", "full_n_runs", "vary", "out_dir"},
    "plateau-scan": {
        "schema_version", "experiment", "out_dir", "seed", "n_v", "n_h_list",
        "ensemble", "target", "layout", "repetitions",
    },
    "mc-estimate": {
        "schema_version", "experiment", "out_dir", "seed", "n_v", "n_h", "k",
        "shots", "q_max", "target", "target_alpha_norm",
    },
    "validate": {"schema_version", "experiment", "kind", "seed", "n_instances", "fd_tol"},
}
_TARGET_KEYS = {"locality", "tau", "std_single", "std_pair"}


def load_experiment_config(path: str, experiment: str) -> dict:
    """Parse and schema-check a config document for one subcommand."""
    doc = _load_json(path)
    version = doc.get("schema_version")
    if version is None:
        raise ConfigError(f"config {path} lacks schema_version")
    if version != SCHEMA_VERSION:
        raise ConfigError(f"config {path} has schema_version {version!r}, expected {SCHEMA_VERSION}")
    kind = doc.get("experiment")
    if kind != experiment:
        raise ConfigError(f"config {path} is for experiment {kind!r}, not {experiment!r}")
    allowed = _TOP_KEYS[experiment]
    unknown = sorted(set(doc) - allowed)
    if unknown:
        raise ConfigError(f"config {path} has unknown keys: {', '.join(unknown)}")
    target = doc.get("target", {})
    if not isinstance(target, dict):
        raise ConfigError("target must be an object")
    bad = sorted(set(target) - _TARGET_KEYS)
    if bad:
        raise ConfigError(f"target has unknown keys: {', '.join(bad)}")
    return doc


def _train_config(doc: dict, path: str) -> TrainConfig:
    train = doc.get("train")
    if not isinstance(train, dict):
        raise ConfigError(f"config {path} lacks a train object")
    try:
        return TrainConfig.from_json_dict(train)
    except TypeError as exc:
        raise ConfigError(f"config {path} train block: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"config {path} train block: {exc}") from exc


def _write_resolved(out_dir: str, doc: dict) -> None:
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "config.json"), "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _seed(args: argparse.Namespace, doc: dict) -> int:
    """The command-line seed, else the config's, else 0."""
    seed = args.seed if args.seed is not None else doc.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ConfigError(f"seed must be a nonnegative integer, got {seed!r}")
    return seed


def _target_spec(target: dict) -> dict:
    """The target recipe with every default filled in, as resolved configs record it."""
    locality = target.get("locality", 2)
    if locality not in (2, 3):
        raise ConfigError("target locality must be 2 or 3")
    spec = {
        "locality": locality,
        "tau": target.get("tau", 1.0),
        "std_single": target.get("std_single", default_std_single(locality)),
        "std_pair": target.get("std_pair", 1.0),
    }
    bad = [k for k in ("tau", "std_single", "std_pair") if not _is_number(spec[k])]
    if bad:
        raise ConfigError(f"target {bad[0]} must be a number, got {spec[bad[0]]!r}")
    if spec["tau"] <= 0:
        raise ConfigError("target tau must be positive")
    return spec


def _target_hamiltonian(n: int, target: dict, rng: np.random.Generator) -> LCUHamiltonian:
    return target_hamiltonian(n, rng, **_target_spec(target))


def _scale_alpha_norm(h: LCUHamiltonian, alpha_norm: float) -> LCUHamiltonian:
    """Rescale coefficients so sum |alpha_l| equals alpha_norm exactly."""
    if h.alpha_norm() == 0.0:
        raise ConfigError("cannot scale a zero Hamiltonian to a coefficient norm")
    s = alpha_norm / h.alpha_norm()
    return LCUHamiltonian(h.n_qubits, [PauliTerm(t.coeff * s, t.axes) for t in h.terms])


# ---------------------------------------------------------------- train cmds


def _cmd_learn(args: argparse.Namespace, experiment: str, kind: str) -> int:
    doc = load_experiment_config(args.config, experiment)
    cfg = _train_config(doc, args.config)
    if cfg.kind != kind:
        raise ConfigError(f"{experiment} requires train.kind {kind!r}, got {cfg.kind!r}")

    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    if args.epochs is not None:
        cfg = replace(cfg, epochs=args.epochs)
    n_runs = doc.get("n_runs")
    if not isinstance(n_runs, int) or n_runs < 1:
        raise ConfigError("n_runs must be a positive integer")
    full_n_runs = doc.get("full_n_runs", n_runs)
    if args.full:
        n_runs = full_n_runs
    if args.runs is not None:
        n_runs = args.runs
        if n_runs < 1:
            raise ConfigError("--runs must be >= 1")
    vary = doc.get("vary", "both")
    if vary not in ("target", "init", "both"):
        raise ConfigError(f"unknown vary mode {vary!r}")
    out_dir = args.out or doc.get("out_dir") or f"runs/{experiment}_{cfg.config_hash()}"
    jobs = args.jobs or os.cpu_count() or 1

    resolved = {
        "schema_version": SCHEMA_VERSION,
        "experiment": experiment,
        "train": cfg.to_json_dict(),
        "n_runs": n_runs,
        "full_n_runs": full_n_runs,
        "vary": vary,
        "out_dir": out_dir,
    }
    _write_resolved(out_dir, resolved)

    logs, summary = run_ensemble(cfg, n_runs, vary=vary, jobs=jobs, out_dir=out_dir)
    fid0 = summary.stats["fidelity_mean"][0]
    fid1 = summary.final("fidelity_mean")
    print(
        f"{experiment}: {len(logs)}/{n_runs} runs ok, epochs {cfg.epochs}, "
        f"fidelity {fid0:.4f} -> {fid1:.4f} +- {summary.final('fidelity_std'):.4f}"
    )
    for line in summary.failures:
        print(f"  failed {line}", file=sys.stderr)
    print(f"wrote {out_dir}")
    return 0


def cmd_thermal_learn(args: argparse.Namespace) -> int:
    return _cmd_learn(args, "thermal-learn", "uqnn")


def cmd_ham_learn(args: argparse.Namespace) -> int:
    return _cmd_learn(args, "ham-learn", "qbm")


# ------------------------------------------------------------- plateau-scan


def cmd_plateau_scan(args: argparse.Namespace) -> int:
    doc = load_experiment_config(args.config, "plateau-scan")
    seed = _seed(args, doc)
    n_v = doc.get("n_v")
    n_h_list = doc.get("n_h_list")
    ensemble = doc.get("ensemble")
    if not isinstance(n_v, int) or n_v < 1:
        raise ConfigError("n_v must be a positive integer")
    if not isinstance(n_h_list, list) or not all(isinstance(x, int) and x >= 0 for x in n_h_list):
        raise ConfigError("n_h_list must be a list of nonnegative integers")
    if not isinstance(ensemble, int) or ensemble < 1:
        raise ConfigError("ensemble must be a positive integer")
    target_doc = doc.get("target", {})
    layout = doc.get("layout", "exhaustive")
    repetitions = doc.get("repetitions", 1)
    if layout not in LAYOUTS:
        raise ConfigError(f"layout must be one of {', '.join(LAYOUTS)}, got {layout!r}")
    if not isinstance(repetitions, int) or repetitions < 1:
        raise ConfigError("repetitions must be a positive integer")
    out_dir = args.out or doc.get("out_dir") or f"runs/plateau_scan_seed{seed}"

    target_rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0, 0)))
    scan_rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0, 1)))
    target = _target_hamiltonian(n_v, target_doc, target_rng)
    report = init_gradient_scan(
        n_v, target, n_h_list, ensemble, scan_rng, layout=layout, repetitions=repetitions
    )

    resolved = {
        "schema_version": SCHEMA_VERSION,
        "experiment": "plateau-scan",
        "seed": seed,
        "n_v": n_v,
        "n_h_list": n_h_list,
        "ensemble": ensemble,
        "target": _target_spec(target_doc),
        "layout": layout,
        "repetitions": repetitions,
        "out_dir": out_dir,
    }
    _write_resolved(out_dir, resolved)
    report.save_json(os.path.join(out_dir, "report.json"))
    report.to_csv(os.path.join(out_dir, "report.csv"))
    for n_h in n_h_list:
        med = report.stat(n_v, n_h, "reverse", "inf_norm_median")
        print(f"plateau-scan: n_v={n_v} n_h={n_h} reverse inf-norm median {med:.6f}")
    print(f"wrote {out_dir}")
    return 0


# -------------------------------------------------------------- mc-estimate


def cmd_mc_estimate(args: argparse.Namespace) -> int:
    doc = load_experiment_config(args.config, "mc-estimate")
    seed = _seed(args, doc)
    n_v = doc.get("n_v")
    n_h = doc.get("n_h", 0)
    k = doc.get("k", 1)
    shots = doc.get("shots", 100000)
    q_max = doc.get("q_max", DEFAULT_Q_MAX)
    alpha_norm = doc.get("target_alpha_norm")
    if not isinstance(n_v, int) or n_v < 1:
        raise ConfigError("n_v must be a positive integer")
    if not isinstance(n_h, int) or n_h < 0:
        raise ConfigError("n_h must be a nonnegative integer")
    if not isinstance(k, int) or k < 1:
        raise ConfigError("k must be a positive integer")
    if not isinstance(shots, int) or shots < 1:
        raise ConfigError("shots must be a positive integer")
    if not isinstance(q_max, int) or q_max < 0:
        raise ConfigError("q_max must be a nonnegative integer")
    if alpha_norm is not None and not (_is_number(alpha_norm) and 0 < alpha_norm <= ALPHA_NORM_GUARD):
        raise ConfigError(f"target_alpha_norm must lie in (0, {ALPHA_NORM_GUARD:g}]")

    target_rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0, 0)))
    init_rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0, 1)))
    shot_rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0, 2)))
    target = _target_hamiltonian(n_v, doc.get("target", {}), target_rng)
    if alpha_norm is not None:
        target = _scale_alpha_norm(target, alpha_norm)
    p = build_uqnn(n_v, n_h, init_rng)
    if not 1 <= k <= len(p.thetas):
        raise ConfigError(f"k={k} out of range 1..{len(p.thetas)}")

    est = mc_reverse_gradient_thermal(p, target, k, shots, shot_rng, q_max=q_max)
    exact = float(uqnn_grad_reverse(p, thermal_state(target))[k - 1])
    z = (est.mean - exact) / est.std_error if est.std_error > 0 else 0.0
    print(
        f"mc-estimate: k={k} shots={shots} estimate {est.mean:.6f} +- {est.std_error:.6f}, "
        f"exact {exact:.6f}, z = {z:+.2f}"
    )
    out_dir = args.out or doc.get("out_dir")
    if out_dir:
        resolved = {
            "schema_version": SCHEMA_VERSION,
            "experiment": "mc-estimate",
            "seed": seed,
            "n_v": n_v,
            "n_h": n_h,
            "k": k,
            "shots": shots,
            "q_max": q_max,
            "target": _target_spec(doc.get("target", {})),
            "target_alpha_norm": alpha_norm,
            "out_dir": out_dir,
        }
        _write_resolved(out_dir, resolved)
        with open(os.path.join(out_dir, "estimate.json"), "w") as fh:
            json.dump(
                {
                    "mean": est.mean,
                    "std_error": est.std_error,
                    "shots": est.shots,
                    "q_max": est.q_max,
                    "tail_bound": est.tail_bound,
                    "exact": exact,
                    "z": z,
                },
                fh,
                indent=1,
            )
        print(f"wrote {out_dir}")
    return 0


# ----------------------------------------------------------------- validate


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str

    def row(self) -> str:
        return f"{'PASS' if self.passed else 'FAIL'} {self.name}: {self.detail}"


def _swap_checks(n_instances: int, rng: np.random.Generator) -> list[CheckResult]:
    results = []
    combos = [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (3, 2)]
    for i in range(n_instances):
        n_regs, m_qubits = combos[i % len(combos)]
        s = cyclic_shift(n_regs, m_qubits)
        uni = np.max(np.abs(s.conj().T @ s - np.eye(s.shape[0])))
        spower = np.linalg.matrix_power(s, n_regs)
        cyc = np.max(np.abs(spower - np.eye(s.shape[0])))
        regs = [random_density_matrix(m_qubits, rng) for _ in range(n_regs)]
        unis = [haar_unitary(m_qubits, rng) for _ in range(n_regs)]
        try:
            prob = swap_test_probability(SwapTestSpec(regs, unis))
            ok = uni < 1e-12 and cyc < 1e-12 and 0.0 <= prob <= 1.0
            detail = f"n={n_regs} m={m_qubits} p={prob:.6f} shift-unitarity {uni:.1e} cyclicity {cyc:.1e}"
        except ArithmeticError as exc:
            ok, detail = False, f"n={n_regs} m={m_qubits}: {exc}"
        results.append(CheckResult(f"swap[{i}]", ok, detail))
    return results


def _fd_loss(p: UQNNParams | QBMParams, rho: DensityMatrix, direction: str):
    """The raw training loss as a function of the parameter vector alone."""
    visible = uqnn_visible_state if isinstance(p, UQNNParams) else qbm_visible_state

    def loss(th: np.ndarray) -> float:
        keep, p.thetas = p.thetas, th
        try:
            sv = visible(p)
            return (renyi2_reverse(sv, rho) if direction == "reverse" else renyi2_forward(rho, sv)).value
        finally:
            p.thetas = keep

    return loss


def _fd_check(
    name: str, p: UQNNParams | QBMParams, rho: DensityMatrix, direction: str, abs_tol: float, rel_tol: float
) -> CheckResult:
    """Analytic gradient against Richardson differences of the loss; reports conditioning."""
    ev = evaluate(p, rho, direction)
    err = np.abs(ev.grad - fd_richardson(_fd_loss(p, rho, direction), p.thetas))
    tol = np.maximum(abs_tol, rel_tol * np.abs(ev.grad))
    worst = int(np.argmax(err - tol))
    ok = bool(np.all(err <= tol))
    return CheckResult(
        name, ok,
        f"max err {err.max():.3e} (tol at worst coord {tol[worst]:.3e}) "
        f"inverted-state min eig {ev.loss.conditioning:.3e}",
    )


def _grad_checks(n_instances: int, fd_tol: float, rng: np.random.Generator) -> list[CheckResult]:
    abs_tol, rel_tol = fd_tol, fd_tol * 100.0
    results = []
    rev_shapes = [(2, 0), (2, 1), (3, 0), (2, 2), (3, 1), (1, 1)]
    fwd_shapes = [(1, 1), (2, 2), (1, 2), (2, 3), (3, 3), (2, 4)]
    for direction, shapes, tag in (("reverse", rev_shapes, "rev"), ("forward", fwd_shapes, "fwd")):
        for i in range(n_instances):
            n_v, n_h = shapes[i % len(shapes)]
            rho = thermal_state(_target_hamiltonian(n_v, {}, rng))
            p = build_uqnn(n_v, n_h, rng)
            p.thetas = rng.normal(0.0, 0.6, size=len(p.thetas))
            name = f"grad-uqnn-{tag}[{i}] n_v={n_v} n_h={n_h}"
            results.append(_fd_check(name, p, rho, direction, abs_tol, rel_tol))
    qbm_shapes = [(2, 0), (2, 1), (3, 0), (2, 2), (3, 1)]
    for i in range(max(1, n_instances * 3 // 5)):
        n_v, n_h = qbm_shapes[i % len(qbm_shapes)]
        rho = thermal_state(_target_hamiltonian(n_v, {}, rng))
        p = build_qbm(n_v, n_h, rng)
        p.thetas = rng.normal(0.0, 0.4, size=len(p.thetas))
        for direction, tag in (("reverse", "rev"), ("forward", "fwd")):
            name = f"grad-qbm-{tag}[{i}] n_v={n_v} n_h={n_h}"
            results.append(_fd_check(name, p, rho, direction, abs_tol, rel_tol))
    # dual route: adjoint-kernel gradient against the per-weight
    # divided-difference construction, small dims
    frechet_shapes = [(2, 0), (2, 1), (3, 0), (2, 2), (3, 1), (1, 1)]
    for i in range(max(1, n_instances * 3 // 5)):
        n_v, n_h = frechet_shapes[i % len(frechet_shapes)]
        rho = thermal_state(_target_hamiltonian(n_v, {}, rng))
        p = build_qbm(n_v, n_h, rng)
        p.thetas = rng.normal(0.0, 0.4, size=len(p.thetas))
        d_rev = np.max(np.abs(qbm_grad_reverse(p, rho) - qbm_grad_reverse_frechet(p, rho)))
        d_fwd = np.max(np.abs(qbm_grad_forward(p, rho) - qbm_grad_forward_frechet(p, rho)))
        ok = d_rev < 1e-8 and d_fwd < 1e-8
        results.append(
            CheckResult(
                f"grad-qbm-kernel-vs-frechet[{i}] n_v={n_v} n_h={n_h}",
                ok, f"rev {d_rev:.3e} fwd {d_fwd:.3e} (tol 1e-8)",
            )
        )
    return results


def _mc_checks(n_instances: int, rng: np.random.Generator) -> list[CheckResult]:
    results = []
    for i in range(n_instances):
        m = 2 + i % 3
        n_q = 1 + i % 2
        rho = random_density_matrix(n_q, rng)
        est = trace_power_estimate(rho, m, 10000, rng)
        exact = float(np.real(np.trace(np.linalg.matrix_power(rho.mat, m))))
        dev = abs(est.mean - exact)
        ok = dev <= 4.0 * est.std_error + 1e-12
        results.append(
            CheckResult(
                f"mc-trace[{i}] m={m} n={n_q}",
                ok, f"|est-exact| {dev:.4f} vs 4se {4 * est.std_error:.4f}",
            )
        )
    for i in range(max(1, n_instances // 3)):
        n_h = i % 2
        target = _scale_alpha_norm(_target_hamiltonian(2, {}, rng), 0.8)
        p = build_uqnn(2, n_h, rng)
        k = 1 + i % len(p.thetas)
        est = mc_reverse_gradient_thermal(p, target, k, 20000, rng)
        exact = float(uqnn_grad_reverse(p, thermal_state(target))[k - 1])
        dev = abs(est.mean - exact)
        ok = dev <= 4.0 * est.std_error + 1e-12
        results.append(
            CheckResult(
                f"mc-grad[{i}] k={k} n_h={n_h}",
                ok, f"|est-exact| {dev:.5f} vs 4se {4 * est.std_error:.5f}",
            )
        )
    return results


def cmd_validate(args: argparse.Namespace) -> int:
    kind = args.kind
    n_instances = args.n_instances
    fd_tol = args.fd_tol
    doc = {}
    if args.config:
        doc = load_experiment_config(args.config, "validate")
        if doc.get("kind") not in (None, kind):
            raise ConfigError(f"config kind {doc.get('kind')!r} does not match {kind!r}")
        if n_instances is None:
            n_instances = doc.get("n_instances")
        if fd_tol is None:
            fd_tol = doc.get("fd_tol")
    seed = _seed(args, doc)
    if n_instances is None:
        n_instances = 12
    if fd_tol is None:
        fd_tol = 1e-6
    if not isinstance(n_instances, int) or n_instances < 1:
        raise ConfigError("--n-instances must be >= 1")
    if not _is_number(fd_tol) or fd_tol <= 0:
        raise ConfigError("--fd-tol must be positive")

    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0, 9)))
    if kind == "swap":
        results = _swap_checks(n_instances, rng)
    elif kind == "grad":
        results = _grad_checks(n_instances, fd_tol, rng)
    else:
        results = _mc_checks(n_instances, rng)

    for r in results:
        print(r.row())
    failures = [r for r in results if not r.passed]
    n = len(results)
    print(f"validate {kind}: {n - len(failures)}/{n} checks passed")
    if failures:
        json.dump(
            [{"name": r.name, "detail": r.detail} for r in failures],
            sys.stderr,
            indent=1,
        )
        sys.stderr.write("\n")
        return 3
    return 0


# --------------------------------------------------------------------- main


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="renyiqnn", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add_common(p: argparse.ArgumentParser, config_required: bool = True) -> None:
        p.add_argument("--config", required=config_required, help="JSON experiment config")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--jobs", type=int, default=None, help="parallel ensemble workers")
        p.add_argument("--out", default=None, help="override the output directory")
        p.add_argument("--full", action="store_true", help="use the config's full ensemble size")

    p_th = sub.add_parser("thermal-learn", help="train circuit models against thermal targets")
    add_common(p_th)
    p_th.add_argument("--epochs", type=int, default=None, help="override train.epochs")
    p_th.add_argument("--runs", type=int, default=None, help="override the ensemble size")
    p_th.set_defaults(func=cmd_thermal_learn)

    p_hl = sub.add_parser("ham-learn", help="train Boltzmann models against thermal targets")
    add_common(p_hl)
    p_hl.add_argument("--epochs", type=int, default=None, help="override train.epochs")
    p_hl.add_argument("--runs", type=int, default=None, help="override the ensemble size")
    p_hl.set_defaults(func=cmd_ham_learn)

    p_ps = sub.add_parser("plateau-scan", help="epoch-0 gradient statistics over random inits")
    add_common(p_ps)
    p_ps.set_defaults(func=cmd_plateau_scan)

    p_mc = sub.add_parser("mc-estimate", help="shot-based gradient estimate vs exact value")
    add_common(p_mc)
    p_mc.set_defaults(func=cmd_mc_estimate)

    p_va = sub.add_parser("validate", help="run a self-check suite")
    p_va.add_argument("kind", choices=["swap", "grad", "mc"], help="which suite to run")
    add_common(p_va, config_required=False)
    p_va.add_argument("--n-instances", type=int, default=None, help="checks per suite")
    p_va.add_argument("--fd-tol", type=float, default=None, help="absolute FD tolerance (rel = 100x)")
    p_va.set_defaults(func=cmd_validate)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (TrainingError, SingularStateError, ArithmeticError, ValueError) as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

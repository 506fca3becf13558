"""Command-line entry point binding JSON experiment configs to runs.

Subcommands: thermal-learn (circuit models against thermal targets),
ham-learn (Boltzmann models against three-local thermal targets),
plateau-scan (epoch-0 gradient statistics over random initializations),
validate (self-check suites: swap, grad, mc), and mc-estimate (shot-based
gradient estimate vs its exact value).

Exit codes: 0 success, 1 config error (bad JSON, unknown keys, missing or
wrong schema_version, an invalid value in the config or on the command
line, usage errors such as a flag the subcommand does not take), 2 runtime
failure, 3 one or more validation checks failed.

Each experiment's config keys, with their defaults and checks, live in one
table (`TABLES`). A command runs from the dict `resolve_config` returns and
writes that same dict as config.json, so the run can be repeated from it.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import qmath
from .divergence import (
    SingularStateError,
    evaluate,
    fd_richardson,
    qbm_grad_forward,
    qbm_grad_frechet,
    qbm_grad_reverse,
    renyi2_forward,
    renyi2_reverse,
    uqnn_grad_reverse,
)
from .hamiltonians import LCUHamiltonian
from .models import LAYOUTS, QBMParams, UQNNParams, build_qbm, build_uqnn, qbm_visible_state, uqnn_visible_state
from .plateau import init_gradient_scan
from .qmath import is_integer, is_number
from .states import DensityMatrix, haar_unitaries, random_density_matrix, thermal_state
from .swaptest import (
    ALPHA_NORM_GUARD,
    DEFAULT_Q_MAX,
    SwapTestSpec,
    _Q_MAX_CAP,
    _series_terms,
    cyclic_shift,
    mc_reverse_gradient_thermal,
    swap_test_probability,
    trace_power_estimate,
)
from .training import (
    TrainConfig,
    TrainingError,
    default_std_single,
    run_ensemble,
    run_streams,
    target_hamiltonian,
)

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


# ------------------------------------------------------------ config tables
#
# A table maps each key to (default, check). The default is a value,
# REQUIRED, or a function of the keys resolved before it; the check takes
# the key's dotted name and its value and returns the resolved value.

REQUIRED = object()


def _need(ok, what: str):
    """The check of a plain value: `ok(value)` must hold, and the value is kept as given."""

    def check(key: str, value):
        if not ok(value):
            raise ConfigError(f"{key} must be {what}, got {value!r}")
        return value

    return check


def _one_of(*choices):
    return _need(lambda v: v in choices, "one of " + ", ".join(map(repr, choices)))


def _fixed(value):
    """A required table entry that accepts `value` and nothing else."""
    return REQUIRED, _need(lambda v: type(v) is type(value) and v == value, repr(value))


def _object(resolve):
    """The check of a nested block: it must be a JSON object, resolved by `resolve(key, value)`."""

    def check(key: str, value):
        if not isinstance(value, dict):
            raise ConfigError(f"{key} must be an object, got {value!r}")
        return resolve(key, value)

    return check


def _retiring(retired: dict, resolve):
    """The check of a block that may hold retired keys: `resolve` of the rest, each retired key checked and dropped."""

    def check(key: str, doc: dict) -> dict:
        out = resolve(key, {k: v for k, v in doc.items() if k not in retired})
        for name in (n for n in retired if n in doc):
            value, accepted = doc[name], retired[name](out)
            if accepted is not None and not any(v == value and isinstance(v, bool) == isinstance(value, bool)
                                                for v in accepted):
                raise ConfigError(f"{key}.{name} is no longer a setting; it is accepted only at "
                                  f"{' or '.join(map(json.dumps, accepted))}, got {json.dumps(value)}")
        return out

    return check


# Keys that config.json files of earlier versions carry, each mapped to the
# values the program now always uses, given the resolved block (None: any
# value; series_tol was the tolerance of a truncated Boltzmann series).
_RETIRED_TRAIN = {
    "series_tol": lambda c: None,
    "target_std_single": lambda c: (None, default_std_single(c["target_locality"])),
    "target_std_pair": lambda c: (1.0,),
    "target_reg": lambda c: (0.0,),
    "normalize_init": lambda c: (True,),
    "layout": lambda c: ("exhaustive",),
    "repetitions": lambda c: (1,),
}
_RETIRED_TARGET = {"std_single": lambda t: (default_std_single(t["locality"]),), "std_pair": lambda t: (1.0,)}


def _train(kind: str):
    """The check of a train block: a TrainConfig of model kind `kind`, as its full field dict."""

    def resolve(key: str, value: dict) -> dict:
        try:
            cfg = TrainConfig(**value)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{key}: {exc}") from exc
        if cfg.kind != kind:
            raise ConfigError(f"{key}.kind must be {kind!r} for this experiment, got {cfg.kind!r}")
        return asdict(cfg)

    return _object(_retiring(_RETIRED_TRAIN, resolve))


_COUNT = _need(lambda v: is_integer(v) and v >= 1, "a positive integer")
_NATURAL = _need(lambda v: is_integer(v) and v >= 0, "a nonnegative integer")
_POSITIVE = _need(lambda v: is_number(v) and v > 0, "a positive number")
_PATH = _need(lambda v: isinstance(v, str) and v != "", "a nonempty path")

_TARGET = {
    "locality": (2, _need(lambda v: is_integer(v) and v in (2, 3), "2 or 3")),
    "tau": (1.0, _POSITIVE),
}
_TARGET_BLOCK = _object(_retiring(_RETIRED_TARGET, lambda key, value: _resolve(_TARGET, value, key + ".")))


def _learn_table(experiment: str, kind: str) -> dict:
    return {
        "train": (REQUIRED, _train(kind)),
        "n_runs": (REQUIRED, _COUNT),
        "full_n_runs": (lambda c: c["n_runs"], _COUNT),
        "vary": ("both", _one_of("target", "init", "both")),
        "out_dir": (lambda c: f"runs/{experiment}_{TrainConfig(**c['train']).config_hash()}", _PATH),
    }


TABLES = {
    "thermal-learn": _learn_table("thermal-learn", "uqnn"),
    "ham-learn": _learn_table("ham-learn", "qbm"),
    "plateau-scan": {
        "seed": (0, _NATURAL),
        "n_v": (REQUIRED, _COUNT),
        "n_h_list": (
            REQUIRED,
            _need(lambda v: isinstance(v, list) and v != [] and all(is_integer(x) and x >= 0 for x in v)
                  and len(set(v)) == len(v), "a nonempty list of distinct nonnegative integers"),
        ),
        "ensemble": (REQUIRED, _COUNT),
        "target": ({}, _TARGET_BLOCK),
        "layout": ("exhaustive", _one_of(*LAYOUTS)),
        "repetitions": (1, _COUNT),
        "out_dir": (lambda c: f"runs/plateau_scan_seed{c['seed']}", _PATH),
    },
    "mc-estimate": {
        "seed": (0, _NATURAL),
        "n_v": (REQUIRED, _COUNT),
        "n_h": (0, _NATURAL),
        "k": (1, _COUNT),
        "shots": (100000, _COUNT),
        "q_max": (DEFAULT_Q_MAX, _need(lambda v: is_integer(v) and 0 <= v <= _Q_MAX_CAP,
                                       f"an integer in 0..{_Q_MAX_CAP}")),
        "target": ({}, _TARGET_BLOCK),
        "target_alpha_norm": (
            None,
            _need(lambda v: v is None or (is_number(v) and 0 < v <= ALPHA_NORM_GUARD),
                  f"null or a number in (0, {ALPHA_NORM_GUARD:g}]"),
        ),
        "out_dir": (None, lambda key, v: v if v is None else _PATH(key, v)),
    },
    "validate": {
        "kind": (None, _one_of(None, "swap", "grad", "mc")),
        "seed": (0, _NATURAL),
        "n_instances": (12, _COUNT),
        "fd_tol": (1e-6, _POSITIVE),
    },
}


# the qubits of a command's widest state; TrainConfig checks those of a train block
_QUBITS = {"plateau-scan": lambda c: c["n_v"] + max(c["n_h_list"]), "mc-estimate": lambda c: c["n_v"] + c["n_h"]}


def _resolve(table: dict, doc: dict, where: str = "") -> dict:
    """Every key of `table`: its value in `doc`, else its default, passed through its check."""
    out = {}
    for key, (default, check) in table.items():
        if key in doc:
            value = doc[key]
        elif default is REQUIRED:
            raise ConfigError(f"config lacks {where}{key}")
        else:
            value = default(out) if callable(default) else default
        out[key] = check(where + key, value)
    unknown = sorted(set(doc) - set(table))
    if unknown:
        raise ConfigError(f"{where[:-1] or 'config'} has unknown keys: {', '.join(unknown)}")
    return out


def resolve_config(doc: dict, experiment: str, overrides: dict | None = None) -> dict:
    """The config one run of `experiment` reads and writes as config.json.

    `overrides` maps a key, or "block.key" in a nested block, to a flag's
    value (None: not given); they are set before every key is checked.
    Values are kept exactly as given; a resolved dict resolves to itself.
    """
    doc = dict(doc)
    for key, value in (overrides or {}).items():
        if value is not None:
            block, _, sub = key.partition(".")
            doc[block] = {**doc.get(block, {}), sub: value} if sub else value
    table = {"schema_version": _fixed(SCHEMA_VERSION), "experiment": _fixed(experiment), **TABLES[experiment]}
    out = _resolve(table, doc)
    if experiment in _QUBITS:
        try:
            qmath._check_qubits(_QUBITS[experiment](out))
        except ValueError as exc:
            raise ConfigError(f"{experiment}: {exc}") from exc
    if out.get("target", {}).get("locality") == 3 and out["n_v"] < 3:
        raise ConfigError(f"target.locality 3 needs n_v >= 3, got n_v={out['n_v']}")
    return out


def load_experiment_config(path: str, experiment: str) -> dict:
    """Read a config document for one subcommand and check every key; returns the document as read."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    resolve_config(doc, experiment)
    return doc


def _write_resolved(out_dir: str, doc: dict) -> None:
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "config.json"), "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _target_hamiltonian(n: int, target: dict, rng: np.random.Generator) -> LCUHamiltonian:
    return target_hamiltonian(n, rng, **_TARGET_BLOCK("target", target))


def _scale_alpha_norm(h: LCUHamiltonian, alpha_norm: float) -> LCUHamiltonian:
    """Rescale coefficients so sum |alpha_l| equals alpha_norm up to rounding, but never exceeds it.

    The sum is taken as the estimator's guard takes it (_series_terms); while
    it exceeds alpha_norm, the scale steps down by one ulp.
    """
    norm = _series_terms(h)[2]
    if norm == 0.0:
        raise ConfigError("cannot scale a zero Hamiltonian to a coefficient norm")
    s = alpha_norm / norm
    while True:
        scaled = h.scaled(s)
        if not _series_terms(scaled)[2] > alpha_norm:
            return scaled
        s = math.nextafter(s, 0.0)


# ---------------------------------------------------------------- train cmds


def cmd_learn(args: argparse.Namespace) -> int:
    experiment = args.command
    doc = load_experiment_config(args.config, experiment)
    # --runs, else --full, picks the ensemble size; the config's full size is kept as it was
    full_n_runs = resolve_config(doc, experiment)["full_n_runs"]
    runs = args.runs if args.runs is not None else full_n_runs if args.full else None
    resolved = resolve_config(
        doc,
        experiment,
        {"train.seed": args.seed, "train.epochs": args.epochs, "n_runs": runs,
         "full_n_runs": full_n_runs, "out_dir": args.out},
    )
    jobs = _NATURAL("--jobs", args.jobs or 0) or os.cpu_count() or 1
    cfg = TrainConfig(**resolved["train"])
    n_runs, out_dir = resolved["n_runs"], resolved["out_dir"]
    _write_resolved(out_dir, resolved)

    logs, summary = run_ensemble(cfg, n_runs, vary=resolved["vary"], jobs=jobs, out_dir=out_dir)
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


# ------------------------------------------------------------- plateau-scan


def cmd_plateau_scan(args: argparse.Namespace) -> int:
    doc = load_experiment_config(args.config, "plateau-scan")
    cfg = resolve_config(doc, "plateau-scan", {"seed": args.seed, "out_dir": args.out})
    n_v, n_h_list, out_dir = cfg["n_v"], cfg["n_h_list"], cfg["out_dir"]

    target_rng, scan_rng = run_streams(cfg["seed"], 0, "both")
    target = target_hamiltonian(n_v, target_rng, **cfg["target"])
    report = init_gradient_scan(
        n_v, target, n_h_list, cfg["ensemble"], scan_rng, layout=cfg["layout"], repetitions=cfg["repetitions"]
    )

    _write_resolved(out_dir, cfg)
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
    cfg = resolve_config(doc, "mc-estimate", {"seed": args.seed, "out_dir": args.out})
    seed, k, shots, out_dir = cfg["seed"], cfg["k"], cfg["shots"], cfg["out_dir"]

    target_rng, init_rng = run_streams(seed, 0, "both")
    shot_rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0, 2)))
    target = target_hamiltonian(cfg["n_v"], target_rng, **cfg["target"])
    if cfg["target_alpha_norm"] is not None:
        target = _scale_alpha_norm(target, cfg["target_alpha_norm"])
    p = build_uqnn(cfg["n_v"], cfg["n_h"], init_rng)
    if not 1 <= k <= len(p.thetas):
        raise ConfigError(f"k={k} out of range 1..{len(p.thetas)}")

    est = mc_reverse_gradient_thermal(p, target, k, shots, shot_rng, q_max=cfg["q_max"])
    exact = float(uqnn_grad_reverse(p, thermal_state(target))[k - 1])
    z = (est.mean - exact) / est.std_error if est.std_error > 0 else None
    print(
        f"mc-estimate: k={k} shots={shots} estimate {est.mean:.6f} +- {est.std_error:.6f}, "
        f"exact {exact:.6f}, " + ("z undefined" if z is None else f"z = {z:+.2f}")
    )
    if out_dir is not None:
        _write_resolved(out_dir, cfg)
        with open(os.path.join(out_dir, "estimate.json"), "w") as fh:
            json.dump({**asdict(est), "exact": exact, "z": z}, fh, indent=1)
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
        unis = list(haar_unitaries(m_qubits, n_regs, rng))
        try:
            prob = swap_test_probability(SwapTestSpec(regs, unis))
            ok = uni < 1e-12 and cyc < 1e-12 and 0.0 <= prob <= 1.0
            detail = f"n={n_regs} m={m_qubits} p={prob:.6f} shift-unitarity {uni:.1e} cyclicity {cyc:.1e}"
        except ArithmeticError as exc:
            ok, detail = False, f"n={n_regs} m={m_qubits}: {exc}"
        results.append(CheckResult(f"swap[{i}]", ok, detail))
    return results


def _fd_loss(p: UQNNParams | QBMParams, rho: DensityMatrix, direction: str):
    """The raw training loss as a function of parameter vectors alone: (M, N) stacks to M values."""
    visible = uqnn_visible_state if isinstance(p, UQNNParams) else qbm_visible_state

    def loss(th: np.ndarray) -> np.ndarray:
        sv = visible(replace(p, thetas=th))
        return (renyi2_reverse(sv, rho) if direction == "reverse" else renyi2_forward(rho, sv)).value

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
        d_rev = np.max(np.abs(qbm_grad_reverse(p, rho) - qbm_grad_frechet(p, rho, "reverse")))
        d_fwd = np.max(np.abs(qbm_grad_forward(p, rho) - qbm_grad_frechet(p, rho, "forward")))
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
    doc = {"schema_version": SCHEMA_VERSION, "experiment": "validate"}
    if args.config:
        doc = load_experiment_config(args.config, "validate")
    cfg = resolve_config(
        doc, "validate", {"seed": args.seed, "n_instances": args.n_instances, "fd_tol": args.fd_tol}
    )
    if cfg["kind"] not in (None, kind):
        raise ConfigError(f"config kind {cfg['kind']!r} does not match {kind!r}")
    n_instances = cfg["n_instances"]

    rng = np.random.default_rng(np.random.SeedSequence(cfg["seed"], spawn_key=(0, 9)))
    if kind == "swap":
        results = _swap_checks(n_instances, rng)
    elif kind == "grad":
        results = _grad_checks(n_instances, cfg["fd_tol"], rng)
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
    """One subparser per command, each with only the flags its command reads."""
    parser = _Parser(prog="renyiqnn", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def command(name: str, func, help: str, config_required: bool = True) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help)
        p.add_argument("--config", required=config_required, help="JSON experiment config")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.set_defaults(func=func)
        return p

    def add_out(p: argparse.ArgumentParser) -> None:
        p.add_argument("--out", default=None, help="override the output directory")

    for name, help in (
        ("thermal-learn", "train circuit models against thermal targets"),
        ("ham-learn", "train Boltzmann models against thermal targets"),
    ):
        p = command(name, cmd_learn, help)
        add_out(p)
        p.add_argument("--jobs", type=int, default=None, help="parallel ensemble workers (0: one per core)")
        p.add_argument("--full", action="store_true", help="use the config's full ensemble size")
        p.add_argument("--epochs", type=int, default=None, help="override train.epochs")
        p.add_argument("--runs", type=int, default=None, help="override the ensemble size")

    add_out(command("plateau-scan", cmd_plateau_scan, "epoch-0 gradient statistics over random inits"))
    add_out(command("mc-estimate", cmd_mc_estimate, "shot-based gradient estimate vs exact value"))

    p_va = command("validate", cmd_validate, "run a self-check suite", config_required=False)
    p_va.add_argument("kind", choices=["swap", "grad", "mc"], help="which suite to run")
    p_va.add_argument("--n-instances", type=int, default=None, help="checks per suite")
    p_va.add_argument("--fd-tol", type=float, default=None, help="absolute FD tolerance (rel = 100x)")
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

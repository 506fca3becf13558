"""The benchmark under perfbench/ binds program names by attribute; a rename
or deletion in the package must fail here rather than only when the
benchmark runs (or, for traced layers, only under --trace 1)."""

import ast
import concurrent.futures
import functools
import importlib
import importlib.util
import inspect
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor

import pytest

BENCH_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", os.path.join(BENCH_DIR, "tracing.py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _imports(tree: ast.AST) -> tuple[dict[str, str], dict[str, tuple[str, str]]]:
    """Local names bound to renyiqnn modules, and to (module, name) for names imported from them."""
    aliases: dict[str, str] = {}
    names: dict[str, tuple[str, str]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module and node.module.split(".")[0] == "renyiqnn":
            for a in node.names:
                full = f"{node.module}.{a.name}"
                if _is_module(full):
                    aliases[a.asname or a.name] = full
                else:
                    names[a.asname or a.name] = (node.module, a.name)
        elif isinstance(node, ast.Import):
            for a in node.names:
                if a.name.split(".")[0] == "renyiqnn":
                    aliases[a.asname or a.name] = a.name
    return aliases, names


def _program_references(path: str) -> list[tuple[str, str]]:
    """(module, dotted attribute path) for every renyiqnn name a benchmark file uses."""
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    aliases, names = _imports(tree)
    refs: list[tuple[str, str]] = list(names.values())
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        chain = []
        inner = node
        while isinstance(inner, ast.Attribute):
            chain.append(inner.attr)
            inner = inner.value
        if isinstance(inner, ast.Name) and inner.id in aliases:
            refs.append((aliases[inner.id], ".".join(reversed(chain))))
    return refs


def _program_calls(path: str) -> list[tuple[str, str, int, list[str], int]]:
    """(module, dotted name, positional count, keyword names, line) of every call a
    benchmark file makes to a renyiqnn name by its static name; calls with * or ** are left out."""
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    aliases, names = _imports(tree)
    calls = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        if any(isinstance(a, ast.Starred) for a in node.args) or any(k.arg is None for k in node.keywords):
            continue
        chain, inner = [], node.func
        while isinstance(inner, ast.Attribute):
            chain.append(inner.attr)
            inner = inner.value
        if not isinstance(inner, ast.Name):
            continue
        if inner.id in aliases and chain:
            module, dotted = aliases[inner.id], ".".join(reversed(chain))
        elif inner.id in names:
            module, name = names[inner.id]
            dotted = ".".join([name, *reversed(chain)])
        else:
            continue
        calls.append((module, dotted, len(node.args), [k.arg for k in node.keywords], node.lineno))
    return calls


def _is_module(name: str) -> bool:
    try:
        return importlib.util.find_spec(name) is not None
    except ModuleNotFoundError:
        return False


def _resolve(module: str, dotted: str):
    obj = importlib.import_module(module)
    for part in dotted.split("."):
        obj = getattr(obj, part)
    return obj


def test_traced_layers_resolve():
    tracing = _load_tracing()
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for targets in tracing.LAYERS.values()
        for owner, attr in targets
        if not callable(getattr(owner, attr, None))
    ]
    assert not missing, f"traced names missing from the program: {missing}"


BENCH_FILES = sorted(f for f in os.listdir(BENCH_DIR) if f.endswith(".py"))


@pytest.mark.parametrize("name", BENCH_FILES)
def test_program_names_used_by_benchmark_exist(name):
    refs = _program_references(os.path.join(BENCH_DIR, name))
    missing = []
    for module, dotted in refs:
        try:
            _resolve(module, dotted)
        except AttributeError:
            missing.append(f"{module}.{dotted}")
    assert not missing, f"{name} uses names missing from the program: {missing}"


def test_workloads_reference_the_program():
    # guards the scans themselves: the workloads' names and keyword calls must be found
    refs = _program_references(os.path.join(BENCH_DIR, "workloads.py"))
    assert ("renyiqnn.training", "run_ensemble") in refs
    assert ("renyiqnn.divergence", "qbm_grad_reverse") in refs
    assert ("renyiqnn.states", "DensityMatrix") in refs
    calls = {(m, d, *k) for m, d, _, k, _ in _program_calls(os.path.join(BENCH_DIR, "workloads.py"))}
    assert ("renyiqnn.plateau", "init_gradient_scan", "layout", "repetitions") in calls
    assert ("renyiqnn.training", "run_ensemble", "vary", "jobs", "out_dir") in calls
    assert ("renyiqnn.swaptest", "mc_reverse_gradient_thermal", "q_max") in calls
    assert ("renyiqnn.states", "DensityMatrix") in calls


@pytest.mark.parametrize("name", BENCH_FILES)
def test_benchmark_calls_bind_to_program_signatures(name):
    # a dropped or renamed parameter that the benchmark passes fails here, not only when it runs
    unbound = []
    for module, dotted, n_args, keywords, line in _program_calls(os.path.join(BENCH_DIR, name)):
        try:
            inspect.signature(_resolve(module, dotted)).bind(*[None] * n_args, **dict.fromkeys(keywords))
        except TypeError as exc:
            unbound.append(f"line {line}: {module}.{dotted}: {exc}")
    assert not unbound, f"{name} calls the program with arguments its signatures refuse: {unbound}"


def test_plateau_scan_looks_up_gradients_on_plateau_per_init(monkeypatch):
    # The plateau workload's observer rebinds these names on `plateau`; the
    # scan must resolve them there at call time, once per initialization.
    import numpy as np

    from renyiqnn import plateau
    from renyiqnn.hamiltonians import normalize, random_two_local

    calls = {"uqnn_grad_reverse": 0, "uqnn_grad_linear": 0}
    for name in calls:
        original = getattr(plateau, name)

        def counted(p, target, name=name, original=original):
            calls[name] += 1
            return original(p, target)

        monkeypatch.setattr(plateau, name, counted)
    rng = np.random.default_rng(5)
    target = normalize(random_two_local(2, 0.3, 1.0, rng), 1.0)
    n_h_list, ensemble = [0, 1], 3
    plateau.init_gradient_scan(2, target, n_h_list, ensemble, rng)
    assert calls == {name: ensemble * len(n_h_list) for name in calls}


def test_ensemble_worker_runs_once_per_chunk_in_one_pool(monkeypatch, tmp_path):
    # The training workloads time jobs == 1 in-process, and the worker hook
    # counts tasks and pools on _ensemble_worker: one call per chunk, each
    # with one tuple argument, from one pool per run_ensemble call.
    from renyiqnn import training

    pools = []

    class ForkPool(ProcessPoolExecutor):
        # the hook relies on workers forked with the wrapper installed
        def __init__(self, *args, **kwargs):
            pools.append(1)
            super().__init__(*args, mp_context=multiprocessing.get_context("fork"), **kwargs)

    original = training._ensemble_worker

    @functools.wraps(original)
    def recording(*args):
        with open(tmp_path / f"calls_{os.getpid()}.txt", "a") as fh:
            fh.write(f"{len(args)} {type(args[0]).__name__}\n")
        return original(*args)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", ForkPool)
    monkeypatch.setattr(training, "_ensemble_worker", recording)
    cfg = training.TrainConfig(kind="uqnn", n_v=1, n_h=1, epochs=2, seed=0)

    def calls() -> list[str]:
        return sorted(line for f in tmp_path.glob("calls_*.txt") for line in f.read_text().splitlines())

    training.run_ensemble(cfg, 3, jobs=1)
    assert calls() == [] and pools == []
    training.run_ensemble(cfg, 2, jobs=2)
    assert calls() == ["1 tuple", "1 tuple"]
    assert pools == [1]


@pytest.mark.parametrize("n_h", [0, 1])
@pytest.mark.parametrize("direction", ["reverse", "forward"])
def test_boltzmann_epoch_calls_traced_eigh_and_assembly_once(monkeypatch, n_h, direction):
    # The benchmark traces `np.linalg.eigh` and `QBMParams.hamiltonian_dense`;
    # an epoch that reached its eigenpairs or its Hamiltonian another way
    # would read 0 in those layers instead of failing here.
    import numpy as np

    from renyiqnn import models, training

    calls = {"eigh": 0, "hamiltonian_dense": 0}
    for owner, name in [(np.linalg, "eigh"), (models.QBMParams, "hamiltonian_dense")]:
        original = getattr(owner, name)

        def counted(*args, name=name, original=original, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    def per_run(epochs: int) -> dict[str, int]:
        calls.update(eigh=0, hamiltonian_dense=0)
        cfg = training.TrainConfig(kind="qbm", n_v=2, n_h=n_h, epochs=epochs, direction=direction, seed=4)
        training.train(cfg)
        return dict(calls)

    short, long = per_run(2), per_run(5)
    assert {name: long[name] - short[name] for name in calls} == {"eigh": 3, "hamiltonian_dense": 3}

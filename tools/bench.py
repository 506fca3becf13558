"""Paired benchmark runs of this tree against a git revision, written to one BENCH file.

    python3 tools/bench.py --label L --against REV [--pairs N]

For every workload in BENCHMARK.json this runs the unchanged
`perfbench/run.py`, each run as long as BENCHMARK.json's `run_seconds`, N
times (default 10) on this working tree ("change") and N times on the
committed files of REV ("base"), one seed per pair and both sides on that
seed, alternating which side runs first. One more pair runs
REV against itself (the A/A pair), so the file records the noise next to
the ratios. It also times the Tier-1 suite once per side. The result is
BENCH_<L>.json at the repository root: per workload and end-to-end metric,
each side's median and quartiles, the per-pair ratios change / base, and
the pairs the change won, and `within_bound`: whether the median ratio
stays inside 1 - bound (higher is better) or 1 + bound (lower is better);
failed operations, `correct` flags and the `env` line of every run. One
verdict line per workload prints each metric's median ratio against its
bound.

REV's files are exported with `git archive` into a temporary directory,
which is removed at the end. Runs go one at a time, so the machine holds at
most one benchmark process tree.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TIER1 = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--continue-on-collection-errors"]


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", ROOT, *args], capture_output=True, text=True, check=True).stdout.strip()


def export_tree(rev: str, dest: str) -> None:
    """The committed files of rev, unpacked into dest."""
    archive = subprocess.run(["git", "-C", ROOT, "archive", "--format=tar", rev], capture_output=True, check=True)
    subprocess.run(["tar", "-x", "-C", dest], input=archive.stdout, check=True)


def child_env() -> dict:
    # each tree imports its own src/; an inherited PYTHONPATH must not point elsewhere
    return {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}


def run_bench(tree: str, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run: its last-line JSON, its env stamp and wall time, or the error that stopped it."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    t0 = time.perf_counter()
    try:
        out = subprocess.run(cmd, cwd=tree, env=child_env(), capture_output=True, text=True,
                             timeout=20 * seconds + 600)
    except subprocess.TimeoutExpired:
        return {"seed": seed, "error": "timed out"}
    run = {"seed": seed, "wall_s": round(time.perf_counter() - t0, 2)}
    lines = out.stdout.strip().splitlines()
    env = [json.loads(line[4:]) for line in lines if line.startswith("env ")]
    if out.returncode != 0 or not lines or not lines[-1].startswith("{"):
        return {**run, "error": f"exit {out.returncode}: {out.stderr.strip()[-500:]}"}
    return {**run, **json.loads(lines[-1]), "env": env[0] if env else None}


def tier1(tree: str) -> dict:
    env = {**child_env(), "PYTHONPATH": os.path.join(tree, "src")}
    t0 = time.perf_counter()
    out = subprocess.run(TIER1, cwd=tree, env=env, capture_output=True, text=True)
    last = out.stdout.strip().splitlines()[-1] if out.stdout.strip() else ""
    counts = {k: int(n) for n, k in re.findall(r"(\d+) (passed|failed|error)", last)}
    return {"wall_s": round(time.perf_counter() - t0, 2), "summary": last, **counts}


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def value(run: dict, metric: str) -> float | None:
    return run.get("metrics", {}).get(metric, {}).get("value")


def summarize(pairs: list[dict], aa: dict, metrics: list[dict]) -> dict:
    """Medians, quartiles, ratios and wins of each end-to-end metric over the pairs that both sides finished."""
    out = {}
    for m in metrics:
        name, higher = m["name"], m["better"] == "higher"
        both = [(value(p["base"], name), value(p["change"], name)) for p in pairs]
        both = [(b, c) for b, c in both if b is not None and c is not None]
        entry = {"better": m["better"], "bound": m["bound"], "pairs": len(both)}
        if both:
            ratios = [c / b for b, c in both]
            entry.update(
                base=spread([b for b, _ in both]),
                change=spread([c for _, c in both]),
                ratios=[round(r, 4) for r in ratios],
                median_ratio=statistics.median(ratios),
                wins=sum(c > b if higher else c < b for b, c in both),
            )
        ratio = entry.get("median_ratio")
        entry["within_bound"] = None if ratio is None else (
            ratio >= 1.0 - m["bound"] if higher else ratio <= 1.0 + m["bound"]
        )
        a, b = value(aa["first"], name), value(aa["second"], name)
        entry["aa_ratio"] = None if a is None or b is None else round(b / a, 4)
        out[name] = entry
    return out


def verdict(workload: str, metrics: dict) -> str:
    """One line: each metric's median ratio change / base against its bound, and whether all are inside."""
    parts = []
    for name, e in metrics.items():
        higher = e["better"] == "higher"
        limit = f"{'>=' if higher else '<='} {1.0 - e['bound'] if higher else 1.0 + e['bound']:g}"
        if e["within_bound"] is None:
            parts.append(f"{name} no pairs")
        else:
            parts.append(f"{name} {e['median_ratio']:.3f} ({limit}{'' if e['within_bound'] else ', outside'})")
    inside = all(e["within_bound"] for e in metrics.values())
    return f"{workload}: {'within bounds' if inside else 'OUTSIDE A BOUND'}: " + "; ".join(parts)


def side_totals(runs: list[dict]) -> dict:
    return {
        "runs": len(runs),
        "errors": sum("error" in r for r in runs),
        "attempted": sum(r.get("attempted", 0) for r in runs),
        "failed": sum(r.get("failed", 0) for r in runs),
        "all_correct": all(r.get("correct", False) for r in runs),
    }


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--label", required=True, help="the file written is BENCH_<label>.json")
    ap.add_argument("--against", required=True, help="git revision of the base side")
    ap.add_argument("--pairs", type=int, default=10, help="alternating pairs per workload (default 10)")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be >= 1")
    if not re.fullmatch(r"[\w.-]+", args.label):
        ap.error("--label may hold letters, digits, '.', '_' and '-' only")
    base_rev = git("rev-parse", "--verify", f"{args.against}^{{commit}}")
    # whether the change side's program or benchmark differs from HEAD
    dirty = bool(git("status", "--porcelain", "--", "src", "perfbench"))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]

    doc = {
        "label": args.label,
        "command": "python3 tools/bench.py " + " ".join(argv),
        "base": {"rev": base_rev, "ref": args.against},
        "change": {"rev": git("rev-parse", "HEAD"), "dirty": dirty},
        "pairs": args.pairs,
        "seconds": seconds,
        "order": "pair i runs base first for even i, change first for odd i; seeds 1..pairs, A/A seed pairs + 1",
        "workloads": {},
    }
    # a SIGTERM ends the run through the finally below, as Ctrl-C does, so the export is removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    tmp = tempfile.mkdtemp(prefix="bench_base_")
    try:
        export_tree(base_rev, tmp)
        trees = {"base": tmp, "change": ROOT}
        doc["tier1"] = {side: tier1(tree) for side, tree in trees.items()}
        for w in spec["workloads"]:
            name = w["name"]
            pairs = []
            for i in range(args.pairs):
                seed = i + 1
                order = ("base", "change") if i % 2 == 0 else ("change", "base")
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    pair[side] = run_bench(trees[side], name, seed, seconds)
                    print(f"{name} pair {i} {side}: {json.dumps(pair[side].get('metrics', pair[side]))}", flush=True)
                pairs.append(pair)
            aa = {s: run_bench(tmp, name, args.pairs + 1, seconds) for s in ("first", "second")}
            print(f"{name} A/A: {[value(aa[s], 'ref_ops_per_s') for s in aa]}", flush=True)
            metrics = summarize(pairs, aa, spec["end_to_end"])
            print(verdict(name, metrics), flush=True)
            doc["workloads"][name] = {
                "metrics": metrics,
                "base": side_totals([p["base"] for p in pairs]),
                "change": side_totals([p["change"] for p in pairs]),
                "aa": aa,
                "pairs": pairs,
            }
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    path = os.path.join(ROOT, f"BENCH_{args.label}.json")
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

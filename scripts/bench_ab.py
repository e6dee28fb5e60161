#!/usr/bin/env python3
"""A/B fleet benchmark: a base revision against the working tree, in alternating pairs.

    scripts/bench_ab.py <base-rev> <workload> [--pairs N] [--seed S] [--layers]

Exports <base-rev> into a temporary directory (git archive: a plain checkout
with no .git, so a killed run leaves nothing behind in the repository), then
runs

    python3 fleetbench/run.py --workload W --seed S --seconds 30 --trace 0

N times in that checkout and N times in the working tree, one pair at a time,
alternating which side goes first (S defaults to 1, the seed the fingerprints
were recorded at; a claim should also hold at a seed it was not tuned on). Each
side builds its own Release harness under its own .bench_build/. Prints every
pair's end-to-end metrics, then each side's median and quartiles and how many
pairs each side won per metric. The metrics and their better direction come
from BENCHMARK.json's end_to_end list.

With --layers it then makes one --trace 1 run per side and prints every metric
of BENCHMARK.json's per_layer list whose value differs between the two, counts
in full: the layer a change moved, and any simulated count it should not have.

Exits 1 as soon as a run fails, reports correct=false or failed > 0; exits 0
otherwise. The temporary checkout is removed on exit.
"""
import argparse
import json
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def log(msg):
    print(msg, flush=True)


def export_revision(rev, dest):
    """Writes the committed tree of `rev` into `dest`; returns its short hash."""
    short = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short", "--verify",
                            f"{rev}^{{commit}}"], capture_output=True, text=True)
    if short.returncode != 0:
        raise RuntimeError(f"not a commit: {rev}")
    archive = subprocess.Popen(["git", "-C", str(ROOT), "archive", rev],
                               stdout=subprocess.PIPE)
    untar = subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout)
    archive.stdout.close()
    if archive.wait() != 0 or untar.returncode != 0:
        raise RuntimeError(f"could not export {rev}")
    return short.stdout.strip()


def run_args(seed, trace):
    return ["--seed", str(seed), "--seconds", "30", "--trace", str(trace)]


def run_once(tree, workload, seed, trace=0):
    """One fleetbench run in `tree`; returns its metrics as {name: value}."""
    done = subprocess.run([sys.executable, "fleetbench/run.py", "--workload", workload]
                          + run_args(seed, trace), cwd=tree, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr)
        raise RuntimeError(f"run.py exited {done.returncode} in {tree}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"] > 0:
        raise RuntimeError(f"run in {tree} is not clean: correct={result['correct']} "
                           f"failed={result['failed']}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(values):
    """(q1, median, q3), interpolated; a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def compare_layers(per_layer, trees, opts):
    """One traced run per side; prints each per-layer metric whose value differs."""
    log(f"== {opts.workload}: per-layer metrics that differ, one run per side, "
        f"{' '.join(run_args(opts.seed, 1))} ==")
    traced = {side: run_once(trees[side], opts.workload, opts.seed, trace=1)
              for side in ("base", "change")}

    def show(value, unit):
        if value is None:
            return "-"
        return f"{value:,.0f}" if unit == "count" else f"{value:.4g}"

    for m in per_layer:
        base = traced["base"].get(m["name"])
        change = traced["change"].get(m["name"])
        if base != change:
            log(f"{m['name']:<36} {m['unit']:<5} {show(base, m['unit']):>14} -> "
                f"{show(change, m['unit'])}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base_rev")
    parser.add_argument("workload")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--layers", action="store_true",
                        help="then compare one --trace 1 run per side, layer by layer")
    opts = parser.parse_args()
    if opts.pairs < 1:
        parser.error("--pairs must be at least 1")

    with open(ROOT / "BENCHMARK.json") as f:
        declared = json.load(f)
    metrics = declared["end_to_end"]
    # A SIGTERM unwinds through the finally below, so the export is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    base_tree = Path(tempfile.mkdtemp(prefix="bench_ab-"))
    try:
        short = export_revision(opts.base_rev, base_tree)
        log(f"== {opts.workload}: {short} (base) vs working tree, {opts.pairs} alternating "
            f"pairs, {' '.join(run_args(opts.seed, 0))} ==")
        runs = {"base": [], "change": []}
        trees = {"base": base_tree, "change": ROOT}
        for i in range(opts.pairs):
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            for side in order:
                runs[side].append(run_once(trees[side], opts.workload, opts.seed))
            cells = [f"{m['name']} {runs['base'][i][m['name']]:.4g} -> "
                     f"{runs['change'][i][m['name']]:.4g}" for m in metrics]
            log(f"pair {i + 1} ({order[0]} first): " + " | ".join(cells))

        log(f"{'metric':<20} {'unit':<5} {'better':<6}  {'base median [q1, q3]':<32}  "
            f"{'change median [q1, q3]':<32}  ratio   won by change/base")
        for m in metrics:
            name = m["name"]
            base = [r[name] for r in runs["base"]]
            change = [r[name] for r in runs["change"]]
            lower = m["better"] == "lower"
            won = sum(1 for b, c in zip(base, change) if (c < b if lower else c > b))
            lost = sum(1 for b, c in zip(base, change) if (c > b if lower else c < b))
            bq1, bmed, bq3 = quartiles(base)
            cq1, cmed, cq3 = quartiles(change)
            ratio = f"{cmed / bmed:.3f}x" if bmed else "-"
            log(f"{name:<20} {m['unit']:<5} {m['better']:<6}  "
                f"{f'{bmed:.4g} [{bq1:.4g}, {bq3:.4g}]':<32}  "
                f"{f'{cmed:.4g} [{cq1:.4g}, {cq3:.4g}]':<32}  {ratio:<7} {won}/{lost}")
        if opts.layers:
            compare_layers(declared["per_layer"], trees, opts)
        return 0
    except (RuntimeError, OSError, ValueError, KeyError) as err:
        log(f"bench_ab: {err}")
        return 1
    finally:
        shutil.rmtree(base_tree, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())

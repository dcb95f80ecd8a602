"""A/B driver for the repository benchmark: two source trees, alternating pairs.

Runs ``perfbench/run.py --trace 0`` from a parent tree and a change tree in
alternating pairs over a seed range (pair k runs the parent first when k is
even, the change first when it is odd), then prints, for every end-to-end
metric in ``BENCHMARK.json``: each side's median and interquartile range
(IQR), the change of the medians, and in how many pairs the change was
better (ties count for neither side).  A metric is *unresolved* when the
parent's own IQR divided by its median exceeds that metric's bound: the
runs then spread too widely to call a regression within the bound.

    python benchmarks/ab_perfbench.py --parent ../parent --change . \\
        --workload compile-ladder --seeds 31-40 --seconds 35

``--smoke`` runs one pair of ``--smoke`` benchmark runs (toy cases, two
seconds each).  The exit code is 1 when a run fails to report or reports a
failed output check.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile of a non-empty list (as perfbench's)."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def parse_result(stdout: str) -> dict:
    """The JSON object on the last non-empty stdout line of one run."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise ValueError("benchmark run printed nothing")
    return json.loads(lines[-1])


def summarize(pairs: list[tuple[dict, dict]], specs: list[dict]) -> list[dict]:
    """One row per metric spec from ``(parent, change)`` metric-value pairs.

    ``specs`` are ``BENCHMARK.json`` end-to-end entries (name, unit, better,
    bound).  ``delta`` is the change of the medians relative to the parent's
    median, signed so that positive is better.
    """
    rows = []
    for spec in specs:
        name, sign = spec["name"], 1 if spec["better"] == "higher" else -1
        got = [(p[name], c[name]) for p, c in pairs if name in p and name in c]
        if not got:
            continue
        parent = [p for p, _ in got]
        change = [c for _, c in got]
        p_med, c_med = statistics.median(parent), statistics.median(change)
        p_iqr = percentile(parent, 75) - percentile(parent, 25)
        spread = p_iqr / abs(p_med) if p_med else (0.0 if p_iqr == 0 else float("inf"))
        rows.append({
            "name": name,
            "unit": spec["unit"],
            "parent_median": p_med,
            "parent_iqr": p_iqr,
            "change_median": c_med,
            "change_iqr": percentile(change, 75) - percentile(change, 25),
            "delta": sign * (c_med - p_med) / abs(p_med) if p_med else 0.0,
            "wins": sum(1 for p, c in got if sign * (c - p) > 0),
            "losses": sum(1 for p, c in got if sign * (c - p) < 0),
            "pairs": len(got),
            "unresolved": spread > spec["bound"],
        })
    return rows


def format_rows(rows: list[dict]) -> str:
    out = [f"{'metric':<20} {'unit':<6} {'parent median':>14} {'IQR':>10} "
           f"{'change median':>14} {'IQR':>10} {'better by':>10} {'wins':>7}"]
    for r in rows:
        note = "  unresolved" if r["unresolved"] else ""
        out.append(
            f"{r['name']:<20} {r['unit']:<6} {r['parent_median']:>14.6g} "
            f"{r['parent_iqr']:>10.4g} {r['change_median']:>14.6g} {r['change_iqr']:>10.4g} "
            f"{r['delta']:>+9.1%} {r['wins']:>3}/{r['pairs']:<3}{note}"
        )
    return "\n".join(out)


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(tree: Path, workload: str, seed: int, seconds: float, smoke: bool) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"] + (["--smoke"] if smoke else [])
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    try:
        return parse_result(proc.stdout)
    except ValueError as exc:  # json.JSONDecodeError is a ValueError
        raise RuntimeError(
            f"{tree}: {' '.join(cmd)} exited {proc.returncode} without a result: "
            f"{exc}\n{proc.stderr[-2000:]}"
        ) from None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, default=Path("."))
    parser.add_argument("--change", type=Path, default=Path("."))
    parser.add_argument("--workload", default="compile-ladder")
    parser.add_argument("--seeds", type=seed_range, default=seed_range("31-40"),
                        help="inclusive range, e.g. 31-40; one pair per seed")
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--smoke", action="store_true",
                        help="one pair of toy-case runs, two seconds each")
    args = parser.parse_args(argv)
    seeds, seconds = (args.seeds[:1], 2.0) if args.smoke else (args.seeds, args.seconds)
    specs = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]

    pairs, bad = [], 0
    for k, seed in enumerate(seeds):
        sides = [("parent", args.parent), ("change", args.change)]
        result = {}
        for side, tree in sides if k % 2 == 0 else sides[::-1]:
            doc = run_once(tree.resolve(), args.workload, seed, seconds, args.smoke)
            values = {name: m["value"] for name, m in doc["metrics"].items()}
            bad += not doc["correct"]
            result[side] = values
            print(f"pair {k} seed {seed} {side}: jobs_per_s {values.get('jobs_per_s', 0):.4g}"
                  f", {doc['failed']}/{doc['attempted']} failed", flush=True)
        pairs.append((result["parent"], result["change"]))
    print(f"{args.workload}: {len(pairs)} pairs, seeds {seeds[0]}-{seeds[-1]}, "
          f"{seconds:g} s per run")
    print(format_rows(summarize(pairs, specs)))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

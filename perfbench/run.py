"""Repository benchmark: compile-ladder, serve-mixed and map-syk.

Run from the repository root::

    python3 perfbench/run.py --workload compile-ladder --seed 1 --seconds 35 --trace 0

``--trace 0`` sets up the workload several times (``setup_s`` is the median),
then runs whole passes until ``--seconds`` have elapsed and reports the
end-to-end metrics.  ``--trace 1`` sets up once, runs the same loop untraced
and then traced for half of ``--seconds`` each, and reports per-layer self
times from wrappers around each layer's public entry points (see
``tracing.py``); the spans are written to ``.perfbench-run/traces/``.
``--smoke`` swaps in toy cases so every workload finishes in seconds.

``BENCHMARK.json`` names compile-ladder and serve-mixed; map-syk is kept for
profiling the fermion->Majorana expansion on its own and is run by hand.

Every job's output is checked (``checks.py``).  The last stdout line is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``; the exit code
is 1 when any check failed, and 2 when the repository's ``src/`` is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SETUP_REPEATS = 5
RANKING_FILE = Path(__file__).with_name("ranking.json")

#: Units not implied by a metric's name suffix (_s, _ms, _ratio; else count).
UNITS = {"jobs_per_s": "1/s", "peak_rss_mb": "MB"}


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile of a non-empty list."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def env_stamp(root: Path, args) -> dict:
    import numpy

    commit = "unknown"
    if (root / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "repro").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "smoke": args.smoke,
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def measure(workload, seconds: float, rec) -> list[tuple[float, list]]:
    """Run whole passes until ``seconds`` have elapsed; [(wall, jobs)]."""
    passes = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        jobs = workload.run_pass(rec)
        passes.append((time.perf_counter() - t0, jobs))
        if time.perf_counter() - start >= seconds:
            return passes


def check_jobs(workload, expected, passes) -> list:
    """Attach every output-check failure to its job; returns all jobs."""
    jobs = [job for _, pass_jobs in passes for job in pass_jobs]
    for job in jobs:
        if not job.errors:
            job.errors.extend(expected.compare(job.case, job.kind, job.quality))
    # The same request must give the same answer every time it runs.
    seen: dict[tuple, dict] = {}
    for job in jobs:
        if job.errors:
            continue
        key = (job.job, job.case, job.kind)
        first = seen.setdefault(key, job.quality)
        if job.quality != first:
            job.errors.append(f"{key}: {job.quality} differs from earlier {first}")
    post = workload.post_checks(jobs)
    for job in jobs:
        job.errors.extend(post.get((job.case, job.kind), []))
    return jobs


def pass_totals(jobs) -> dict:
    return {
        key: sum(job.quality.get(key, 0) for job in jobs)
        for key in ("pauli_weight", "routed_cx", "routed_depth")
    }


def jobs_per_s(passes) -> float:
    return sum(len(jobs) for _, jobs in passes) / sum(wall for wall, _ in passes)


def end_to_end(setups, passes, jobs) -> dict:
    """The exported end-to-end metrics.

    Latency is summarised by its mean and p90, not its median: each workload
    sends request classes whose latencies differ by up to 100x in fixed
    shares, so the median over all jobs sits on the edge between two classes
    and jumps with either one's tail (it is printed, not exported).
    """
    latencies = [job.latency_s for job in jobs]
    failed = sum(1 for job in jobs if job.errors)
    return {
        "setup_s": statistics.median(setups),
        "jobs_per_s": jobs_per_s(passes),
        "latency_mean_ms": statistics.fmean(latencies) * 1e3,
        "latency_p90_ms": percentile(latencies, 90) * 1e3,
        "ok_ratio": (len(jobs) - failed) / len(jobs),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "pauli_weight_total": pass_totals(passes[0][1])["pauli_weight"],
    }


def per_layer(rec, setup_rec, untraced, traced, counters_before, counters_after) -> dict:
    from tracing import LAYERS

    n_pass = len(traced)
    jobs = [job for _, pass_jobs in traced for job in pass_jobs]
    self_s = rec.self_times()
    calls = rec.calls()
    counts = rec.counts
    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}_s"] = self_s.get(layer, 0.0) / n_pass
        out[f"{layer}_calls"] = calls.get(layer, 0) / n_pass
    out["sources.setup_build_s"] = setup_rec.self_times().get("sources.build", 0.0)
    lookups = counts["service.lookups"]
    out["service.hit_ratio"] = counts["service.hits"] / lookups if lookups else 0.0
    out["service.compiles"] = counts["service.compiles"] / n_pass
    out["fermion.to_majorana_calls_per_job"] = calls.get("fermion.to_majorana", 0) / len(jobs)
    for name in ("fermion.majorana_monomials", "mappings.mapped_terms",
                 "circuits.logical_cx", "circuits.swaps"):
        out[name] = counts[name] / n_pass
    out["compile.circuit_hits"] = sum(job.circuit_hit for job in jobs) / n_pass

    served = [job for job in jobs if not job.errors and job.exec_s > 0]
    followers = [job for job in jobs if not job.errors and job.coalesced]
    for name, attr in (("queue_wait", "queue_wait_s"), ("exec", "exec_s"),
                       ("http_overhead", "http_s")):
        values = [getattr(job, attr) * 1e3 for job in served]
        out[f"serve.{name}_ms"] = statistics.median(values) if values else 0.0
    for name, counter in (("coalesced", "coalesced"), ("retries", "retried"),
                          ("errors", "errors")):
        delta = counters_after.get(counter, 0) - counters_before.get(counter, 0)
        out[f"serve.{name}"] = delta / n_pass

    wall = sum(job.latency_s for job in jobs)
    layers = sum(self_s.get(layer, 0.0) for layer in LAYERS)
    # A coalesced request spends its whole round trip waiting on another.
    waits = sum(job.queue_wait_s + job.http_s for job in served) + sum(
        job.latency_s for job in followers
    )
    out["trace.wall_s"] = wall / n_pass
    out["trace.layers_s"] = layers / n_pass
    out["trace.waits_s"] = waits / n_pass
    out["trace.unaccounted_s"] = (wall - layers - waits) / n_pass
    out["trace.overhead_ratio"] = jobs_per_s(untraced) / jobs_per_s(traced)

    totals = pass_totals(traced[0][1])
    out["quality.routed_cx_total"] = totals["routed_cx"]
    out["quality.routed_depth_total"] = totals["routed_depth"]
    return out


def layer_ranking(metrics: dict) -> list[str]:
    from tracing import LAYERS

    timed = [(metrics[f"{layer}_s"], layer) for layer in LAYERS]
    return [layer for seconds, layer in sorted(timed, reverse=True) if seconds > 0]


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def print_classes(jobs) -> None:
    """Latency per request class, SYK instances grouped by mode count."""
    classes: dict[str, list[float]] = {}
    for job in jobs:
        family = job.case.split(",seed=")[0]
        label = f"{job.job} {family}|{job.kind}" + (" coalesced" if job.coalesced else "")
        classes.setdefault(label, []).append(job.latency_s * 1e3)
    for label, values in sorted(classes.items()):
        print(f"  class {label:<44} n={len(values):<4} p50 {percentile(values, 50):10.2f} ms"
              f"  min {min(values):10.2f}  max {max(values):10.2f}")


def show(name: str, value, note: str = "") -> None:
    print(f"  {name:<38} {value:>16.6g} {unit_of(name):<6} {note}".rstrip())


def run(args, root: Path, work: Path, tmp: Path) -> int:
    from checks import Expected
    from tracing import Recorder, install
    from workloads import WORKLOADS

    env = env_stamp(root, args)
    print("env " + json.dumps(env, sort_keys=True))
    expected = Expected()
    workload = WORKLOADS[args.workload](args.seed, args.smoke, tmp)
    try:
        if not args.trace:
            setups = []
            for _ in range(SETUP_REPEATS):
                t0 = time.perf_counter()
                workload.setup()
                setups.append(time.perf_counter() - t0)
            passes = measure(workload, args.seconds, None)
            jobs = check_jobs(workload, expected, passes)
            metrics = end_to_end(setups, passes, jobs)
        else:
            setup_rec = Recorder()
            undo = install(setup_rec)
            try:
                workload.setup()
            finally:
                undo()
            untraced = measure(workload, args.seconds / 2, None)
            before = workload.queue_counters()
            rec = Recorder()
            undo = install(rec)
            try:
                traced = measure(workload, args.seconds / 2, rec)
            finally:
                undo()
            after = workload.queue_counters()
            passes = untraced + traced
            jobs = check_jobs(workload, expected, passes)
            metrics = per_layer(rec, setup_rec, untraced, traced, before, after)
            traces = work / "traces"
            traces.mkdir(parents=True, exist_ok=True)
            rec.dump(traces / f"{args.workload}-seed{args.seed}.jsonl",
                     {**env, "passes": len(traced)})
    finally:
        workload.close()

    failed = [job for job in jobs if job.errors]
    print(f"{args.workload}: {len(passes)} passes, {len(jobs)} jobs, {len(failed)} failed; "
          f"pass walls {' '.join(f'{wall:.3f}' for wall, _ in passes)} s")
    for job in failed[:20]:
        print(f"  FAILED {job.job} {job.case}|{job.kind}: {'; '.join(job.errors)}")
    print_classes(jobs)
    if not args.trace:
        totals = pass_totals(passes[0][1])
        for name, value in metrics.items():
            note = f"n={len(jobs)}" if name.startswith("latency") else ""
            show(name, value, note)
        latencies = [job.latency_s * 1e3 for job in jobs]
        show("latency_p50_ms", percentile(latencies, 50), f"n={len(jobs)}, not exported")
        show("failed_ratio", len(failed) / len(jobs))
        show("routed_cx_total", totals["routed_cx"])
        show("routed_depth_total", totals["routed_depth"])
    else:
        print("  per pass, self times; traced passes:", len(traced))
        for name, value in metrics.items():
            show(name, value)
        circuits = sum(v for k, v in metrics.items()
                       if k.startswith("circuits.") and k.endswith("_s"))
        show("circuits.all_layers_s", circuits)
        print(f"  accounting: layers {metrics['trace.layers_s']:.4f} s + waits "
              f"{metrics['trace.waits_s']:.4f} s + unaccounted "
              f"{metrics['trace.unaccounted_s']:.4f} s = wall {metrics['trace.wall_s']:.4f} s")
        ranking = layer_ranking(metrics)
        print("ranking " + json.dumps(ranking))
        recorded = json.loads(RANKING_FILE.read_text())["top_layers"].get(args.workload)
        if recorded and not args.smoke:
            same = ranking[:len(recorded)] == recorded
            print(f"  top layers {'match' if same else 'DIFFER from'} the recorded "
                  f"profile {recorded}")

    print(json.dumps({
        "correct": not failed,
        "attempted": len(jobs),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }))
    return 0 if not failed else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("compile-ladder", "map-syk", "serve-mixed"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="toy cases, seconds per run")
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: {src}/repro not found; run from the repository root",
              file=sys.stderr)
        return 2
    work = root / ".perfbench-run"
    work.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work))
    # Before the first repro import: the integral cache path is read at import.
    os.environ["REPRO_CACHE_DIR"] = str(tmp / "cache")
    sys.path.insert(0, str(src))
    try:
        return run(args, root, work, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark for mgonal: one closed-loop workload per run.

Run from the root of a checkout:

    python3 bench/run.py --workload global_sieve --seed 1 --seconds 55 --trace 0

A single client makes one library call at a time, each only after the last
returned.  Calls come in batches generated from (workload, seed, batch index).
Every result is checked outside the timed region.  The last line of stdout is
one JSON object:

* ``--trace 0``: the end-to-end metrics, measured with tracing off.  A fixed
  list of batches is made in passes, each batch of a pass in a forked copy of
  the process from the same library state, while ``--seconds`` last; then once
  more in the process itself, which checks every result.  Each call keeps its
  best time over the passes.  ``setup_s`` is the median cold start (import
  plus warm-up) of several child processes; ``wall_s`` the time of the whole
  call list; ``op_p50_ms`` and ``op_p90_ms`` percentiles over its calls, a
  failed call ranking above every success; ``peak_rss_mb`` the median over
  batches of the peak resident memory of a forked copy making the batch;
* ``--trace 1``: the per-layer metrics of ``layers.PER_LAYER``, from spans
  recorded around mgonal's public functions.  Batches alternate between
  traced and untraced, which gives ``trace.overhead_ratio``; the spans are
  written to ``.bench_out/``.

The package is imported from ``src/`` of the current directory; the run exits
with code 2, printing no result, when that is missing.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads as wl
from layers import PER_LAYER, layer_metrics, make_probes
from tracing import Tracer
from warmup import warm_up

BENCH_DIR = Path(__file__).resolve().parent
SETUP_REPEATS = 5
# time of the checked pass over that of a forked pass, with room to spare
CHECKED_PASS_COST = 1.1


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="length of the measured loop")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0, help="shrink each batch (benchmark self-tests)")
    return ap.parse_args(argv)


def measure_setup(root: Path, scratch: Path, repeats: int) -> list[float]:
    """Cold-start times of child processes, one at a time; the first, which
    may write bytecode caches, is not counted."""
    env = dict(os.environ)
    env.pop("MGONAL_CACHE_DIR", None)
    times = []
    for i in range(repeats + 1):
        out = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(root), str(scratch / f"setup-{i}")],
            cwd=root,
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        if i:
            times.append(float(out.stdout.strip().splitlines()[-1]))
    return times


def import_package(root: Path):
    src = root / "src"
    if not (src / "mgonal" / "__init__.py").is_file() or not (root / "tests" / "oracles.py").is_file():
        raise FileNotFoundError(f"no mgonal sources under {root}: need src/mgonal and tests/oracles.py")
    sys.path.insert(0, str(root / "tests"))
    sys.path.insert(0, str(src))
    import mgonal
    import mgonal.cli
    import mgonal.errors
    import oracles

    if Path(mgonal.__file__).resolve().parent != (src / "mgonal").resolve():
        raise ImportError(f"mgonal was imported from {mgonal.__file__}, not from {src}")
    return mgonal, oracles


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def time_calls(runner, calls, tracer, check: bool) -> list[tuple[float, str | None]]:
    """(seconds, why it failed or None) for each call, made in order.

    With ``check``, each result is checked right after its call, outside the
    timed region and with tracing paused.
    """
    out = []
    for call in calls:
        result, why, dt = None, None, 0.0
        with tracer.op_span(call[0]):
            try:
                with wl.deadline(runner.deadline_for(call)):
                    t0 = time.perf_counter()
                    try:
                        result = runner.execute(call)
                    finally:
                        dt = time.perf_counter() - t0
            except wl.DeadlineExceeded:
                why = "deadline exceeded"
            except Exception as exc:  # a crashing call is a failed call
                why = f"{type(exc).__name__}: {exc}"
        if check and why is None:
            with tracer.paused():
                try:
                    why = runner.check(call, result)
                except Exception as exc:  # a result the checks cannot read is wrong
                    why = f"check raised {type(exc).__name__}: {exc}"
        out.append((dt, why))
    return out


def batch_in_child(runner, calls, cache: Path, cpu: int) -> tuple[list[float | None], float]:
    """Make the calls of one batch in a forked copy of this process, pinned
    to processor ``cpu``.

    Returns the call durations, None for a call that failed there, and the
    copy's peak resident memory in MB.  The copy starts from this process's
    library state, so whatever one pass leaves behind (a memo, a cache file)
    never speeds up the next.  The parent waits for the child to exit.
    """
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(read_fd)
            os.sched_setaffinity(0, {cpu})
            timed = time_calls(runner, calls, Tracer(None), check=False)
            report = {
                "durations": [dt if why is None else None for dt, why in timed],
                "peak_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            with os.fdopen(write_fd, "w") as fh:
                json.dump(report, fh)
        finally:
            os._exit(0)
    os.close(write_fd)
    with os.fdopen(read_fd) as fh:
        data = fh.read()
    os.waitpid(pid, 0)
    shutil.rmtree(cache, ignore_errors=True)
    if not data:
        raise RuntimeError("the forked timing pass died without a report")
    report = json.loads(data)
    return report["durations"], report["peak_mb"]


def run(args, root: Path, scratch: Path) -> dict:
    phases: dict[str, float] = {}
    clock = time.perf_counter()

    def phase(name: str) -> None:
        nonlocal clock
        now = time.perf_counter()
        phases[name] = now - clock
        clock = now

    setup_times = [] if args.trace else measure_setup(root, scratch, SETUP_REPEATS)
    phase("set-up probes")

    mg, oracles = import_package(root)
    reference = json.loads((BENCH_DIR / "reference.json").read_text())["calls"]
    pools = wl.Pools(mg)
    runner = wl.Runner(mg, oracles, scratch / "cache", reference)
    tracer = Tracer(mg, make_probes(mg))
    problems: list[str] = []

    def traced(on: bool):
        if not on:
            return contextlib.nullcontext()
        tracer.install()
        stack = contextlib.ExitStack()
        stack.callback(tracer.uninstall)
        stack.enter_context(tracer.recording())
        return stack

    with traced(args.trace):
        warm_up(mg, scratch / "warm")
    phase("import and warm-up")

    for call in wl.reference_calls(mg, pools, args.workload):
        if wl.call_key(call) not in reference:
            problems.append(f"reference.json has no digest for {wl.call_key(call)}")
            continue
        try:
            why = runner.check(call, runner.execute(call))
        except Exception as exc:  # a crashing reference call is a wrong result
            why = f"{type(exc).__name__}: {exc}"
        if why:
            problems.append(f"reference call {call!r}: {why}")
    shutil.rmtree(scratch / "cache", ignore_errors=True)
    phase("reference calls")

    attempted = failed = 0

    def batch(index: int) -> list[tuple]:
        return wl.make_batch(mg, pools, args.workload, args.seed, index, args.scale)

    def tally(index: int, calls, timed, best=None, failed_elsewhere=()) -> float:
        """Count and report the calls of one checked batch; returns the time
        spent in them, each call at its best time when ``best`` is given."""
        nonlocal attempted, failed
        busy = 0.0
        for j, (call, (dt, why)) in enumerate(zip(calls, timed)):
            attempted += 1
            if why is None and j in failed_elsewhere:
                why = "failed in a forked pass"
            if best is not None:
                best[j] = dt = min(best[j], dt) if why is None else math.inf
            busy += dt if why is None else 0.0
            if why is not None:
                failed += 1
                problems.append(f"batch {index} call {call!r}: {why}")
        return busy

    if args.trace:
        # Batches alternate between untraced and traced until the time is up.
        batch_times: dict[bool, list[float]] = {False: [], True: []}
        started = time.perf_counter()
        index = 0
        while index == 0 or time.perf_counter() - started < args.seconds:
            is_traced = index % 2 == 1
            calls = batch(index)
            with traced(is_traced):
                timed = time_calls(runner, calls, tracer, check=True)
            batch_times[is_traced].append(tally(index, calls, timed))
            shutil.rmtree(scratch / "cache", ignore_errors=True)
            index += 1
        passes = 1
    else:
        # The run's calls are a fixed list of batches, made in passes: in
        # each pass, forked copies of this process, one per batch and all
        # from the same library state, make the list one batch after another
        # while the time lasts; then this process makes it once more and
        # checks every result.  Each call keeps its best time over the
        # passes.  On a shared machine other tenants slow a processor down
        # by up to half, in stretches from a fraction of a second to over a
        # minute, and mostly one processor at a time.  A batch's forked
        # copies take the processors in turn from pass to pass, and its
        # passes lie seconds apart, so a call's best time escapes most of
        # those stretches.
        batches = [batch(i) for i in range(wl.batches_per_run(args.workload, args.scale))]
        best = [[math.inf] * len(calls) for calls in batches]
        failed_forked: list[set[int]] = [set() for _ in batches]
        peaks = [0.0] * len(batches)
        forked_passes = 0
        started = time.perf_counter()
        cpus = sorted(os.sched_getaffinity(0))
        while True:
            for i, calls in enumerate(batches):
                cpu = cpus[(forked_passes + i) % len(cpus)]
                durations, peak = batch_in_child(runner, calls, scratch / "cache", cpu)
                peaks[i] = max(peaks[i], peak)
                for j, dt in enumerate(durations):
                    if dt is None:
                        failed_forked[i].add(j)
                    else:
                        best[i][j] = min(best[i][j], dt)
            forked_passes += 1
            elapsed = time.perf_counter() - started
            # the checked pass costs a little more than a forked one
            if elapsed + (1 + CHECKED_PASS_COST) * elapsed / forked_passes > args.seconds:
                break
        passes = forked_passes + 1
        pass_note = f"forked passes {elapsed / forked_passes:.2f} s each"
        checked = time.perf_counter()
        for index, calls in enumerate(batches):
            timed = time_calls(runner, calls, tracer, check=True)
            tally(index, calls, timed, best[index], failed_forked[index])
            shutil.rmtree(scratch / "cache", ignore_errors=True)
        index = len(batches)
        pass_note += f", checked pass {time.perf_counter() - checked:.2f} s"

    phase("batches")
    with traced(args.trace):
        defects = wl.defect_probes(runner, args.workload, args.seed)
    phase("defect probes")
    problems += wl.spot_checks(runner, args.workload, args.seed)
    phase("oracle spot-checks")

    lines = [
        f"workload {args.workload} seed {args.seed}: {index} batches, {attempted} checked calls, {passes} passes",
        "phases: " + ", ".join(f"{k} {v:.2f} s" for k, v in phases.items()),
    ]
    for kind, results in defects.items():
        bad = [r for r in results if r is not None]
        lines.append(f"known defect {kind}: {len(bad)} of {len(results)} probes failed {sorted(set(bad))}")

    if args.trace:
        untraced = statistics.median(batch_times[False])
        overhead = statistics.median(batch_times[True]) / untraced - 1 if batch_times[True] else 0.0
        values = layer_metrics(tracer, overhead, defects)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER}
        out_path = root / ".bench_out" / f"trace-{args.workload}-{args.seed}.jsonl"
        tracer.write(out_path)
        lines.append(f"{len(tracer.spans)} spans written to {out_path.relative_to(root)}")
    else:
        cap = max([d for row in best for d in row if d != math.inf] + [wl.DEFAULT_DEADLINE])
        best = [[min(d, cap) for d in row] for row in best]  # a failure ranks above every success
        finite = sorted(d for row in best for d in row)
        values = {
            "setup_s": statistics.median(setup_times),
            "wall_s": sum(finite),
            "op_p50_ms": percentile(finite, 0.5) * 1e3,
            "op_p90_ms": percentile(finite, 0.9) * 1e3,
            "peak_rss_mb": statistics.median(peaks),
        }
        units = {"setup_s": "s", "wall_s": "s", "op_p50_ms": "ms", "op_p90_ms": "ms", "peak_rss_mb": "MB"}
        metrics = {name: {"value": v, "unit": units[name]} for name, v in values.items()}
        beyond = len(finite) - math.ceil(0.9 * len(finite))
        lines.append(
            f"samples: {len(finite)} calls ({beyond} beyond p90), best of {passes} passes, {len(setup_times)} set-ups"
        )
        lines.append(pass_note)
    for name, m in metrics.items():
        lines.append(f"  {name} = {m['value']} {m['unit']}")
    lines += [f"problem: {p}" for p in problems]
    print("\n".join(lines))
    return {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    os.environ.pop("MGONAL_CACHE_DIR", None)  # it would override every --cache-dir
    # numpy's BLAS pool would be the process's only other thread; without it
    # the process can fork safely.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    if not (root / "src" / "mgonal" / "__init__.py").is_file():
        print(f"error: {root} holds no src/mgonal to benchmark", file=sys.stderr)
        return 2
    tmp_root = root / ".bench_tmp"
    tmp_root.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=tmp_root))
    try:
        result = run(args, root, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        with contextlib.suppress(OSError):
            tmp_root.rmdir()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

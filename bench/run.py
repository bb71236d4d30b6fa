"""Layered benchmark of the dnumbers package.

One client runs one workload in a closed loop: the next op starts when the
previous one has returned and been checked.  Every op's output is checked
against the naive reference in ``reference.py``, outside the timed span.

    python3 bench/run.py --workload wide-pair --seed 1 --seconds 20 --trace 0

runs one workload in this process and prints, as its last line, a JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of a traced run with
``--trace 1``.

    python3 bench/run.py [--seed 1] [--seconds 20] [--previous FILE]

runs every workload, untraced and then traced, one worker process after
another, prints every metric with its unit, writes the results to
``bench/out/results-seed<seed>.json`` and, given ``--previous``, the change of
each end-to-end metric against an earlier results file.  ``--smoke`` runs one
checked op per workload and mode instead, to check the harness itself.

NOTES.md explains the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import random
import resource
import subprocess
import sys
from pathlib import Path
from statistics import median, median_low
from time import perf_counter_ns

from spans import NullTracer, Tracer
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
OUT = BENCH / "out"

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 21

#: Typical times of ``calibration_ns()`` and ``interpreter_ns()`` on the
#: machine this benchmark was written on (2-CPU virtual machine, Python
#: 3.11.7).  End-to-end times are reported at that machine speed: each raw
#: time is multiplied by the reference over the probe's time measured just
#: before it (see NOTES.md).
CALIBRATION_NS = 8_000_000
INTERPRETER_NS = 50_000_000

#: End-to-end metrics of an untraced run, with their units.
END_TO_END = {"setup_s": "s", "op_p50_ms": "ms", "peak_rss_mb": "MB"}

#: End-to-end times reported at the reference machine speed, not as wall times.
SCALED = ("setup_s", "op_p50_ms")

#: Per-layer metrics of a traced run: span names (median self time over ops, in
#: ms) and counts.  Counts are per pass over the workload's input pool.
SPANS = (
    "scenario.parse",
    "scenario.build",
    "evidence.dnumber_init",
    "evidence.frame_subsets",
    "fusion.residual_conflict",
    "fusion.degree",
    "fusion.model_init",
    "fusion.matrix",
    "fusion.exclusive",
    "fusion.combine_many",
    "fusion.mean_assignment",
    "classical.conjunctive",
    "classical.dempster",
    "classical.global_conflict",
    "report.to_machine",
    "report.to_human",
    "cli.interpreter",
    "cli.run_cli",
)
PER_LAYER_UNITS = {
    **{f"{name}_ms": "ms" for name in SPANS},
    "fusion.dcr2_self_ms": "ms",
    "cli.import_ms": "ms",
    "scenario.bytes": "B",
    "report.bytes": "B",
    "evidence.sort_key_calls": "count",
    "evidence.sort_ratio": "calls/cell",
    "fusion.pairs": "count",
    "fusion.disjoint_pairs": "count",
    "fusion.cells": "count",
    "fusion.element_probes": "count",
    "fusion.useful_lookup_ratio": "ratio",
    "fusion.matrix_cells": "count",
    "fusion.matrix_disjoint_cells": "count",
    "fusion.matrix_alloc_peak_mb": "MB",
    "fusion.steps": "count",
    "fusion.step_pairs": "pairs/step",
    "bench.trace_overhead_ratio": "ratio",
}

#: Counts that must repeat exactly between runs with one seed.
WORK_COUNTS = (
    "fusion.pairs",
    "fusion.disjoint_pairs",
    "fusion.cells",
    "fusion.element_probes",
    "fusion.matrix_cells",
    "fusion.steps",
    "scenario.bytes",
)


def tail(latencies: list[float]) -> tuple[float, float | None]:
    """The highest percentile, at most the 90th, with ten samples beyond it; and its value.

    With fewer than 20 samples that percentile would lie below the median, so
    none is reported (percentile 0, value None).
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 20:
        return 0.0, None
    rank = min(n - 11, -(-9 * n // 10) - 1)
    return 100.0 * (rank + 1) / n, ordered[rank]


def calibration_ns() -> int:
    """Time one fixed pure-Python loop of dict, float and string work.

    It does not touch the package, so its time measures only how fast the
    machine runs Python at that moment.
    """
    start = perf_counter_ns()
    cells: dict[int, float] = {}
    width = 0
    for i in range(20000):
        k = (i * 7919) & 4095
        cells[k] = cells.get(k, 0.0) + i * 0.5
        width += len(bin(k))
    sorted(cells.items())
    return perf_counter_ns() - start


def interpreter_ns() -> int:
    """Time a bare ``python -c pass``: how fast the machine starts an interpreter at that moment.

    It is the speed probe of workloads whose ops start interpreters, which
    the pure-Python loop of ``calibration_ns()`` does not follow well.
    """
    start = perf_counter_ns()
    subprocess.run([sys.executable, "-c", "pass"], check=True)
    return perf_counter_ns() - start


def fresh_import(preloaded: frozenset[str]):
    """Import the package anew, with every pure-Python module first imported after
    ``preloaded`` was taken, so that a heavier dependency shows in ``setup_s``.

    Modules the harness had loaded before stay loaded, and so do extension
    modules, many of which cannot be initialised twice in one process.
    """
    for name, module in list(sys.modules.items()):
        if name not in preloaded and (getattr(module, "__file__", None) or "").endswith(".py"):
            del sys.modules[name]
    return importlib.import_module("dnumbers")


class Run:
    """One workload, one seed, one mode: set-up, the closed loop, the checks."""

    def __init__(self, workload, seed: int, seconds: float, trace: bool, smoke: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.smoke = smoke
        self.tracer = Tracer() if trace else NullTracer()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        if workload.starts_interpreters:
            self.speed_probe, self.speed_reference = interpreter_ns, INTERPRETER_NS
        else:
            self.speed_probe, self.speed_reference = calibration_ns, CALIBRATION_NS
        self.speeds: list[int] = []  # speed_probe() before each untraced op that returned

    def attempt(self, state, expected, i, run) -> tuple[object, int | None]:
        """Run one op, time it, check it; returns its output and nanoseconds."""
        self.attempted += 1
        gc.collect()
        start = perf_counter_ns()
        try:
            out = run()
        except Exception as exc:  # a raising op is a failed op, not a failed run
            self.failed += 1
            self.problems.append(f"op {i}: {type(exc).__name__}: {exc}")
            return None, None
        elapsed = perf_counter_ns() - start
        try:
            problem = self.workload.check(state, expected, i, out)
        except (ValueError, KeyError, TypeError) as exc:  # output the check cannot read
            problem = f"unreadable output: {type(exc).__name__}: {exc}"
        if problem:
            self.failed += 1
            self.problems.append(f"op {i}: {problem}")
        return out, elapsed

    def execute(self) -> dict:
        w = self.workload
        preloaded = frozenset(sys.modules)
        raw = w.generate(random.Random(self.seed))
        expected, counts = w.expect(raw)
        setup_ns = []
        setup_calibration = []
        state = None
        for r in range(1 if self.smoke else SETUP_REPEATS):
            if state is not None:
                w.close(state)
            gc.collect()
            setup_calibration.append(calibration_ns())
            start = perf_counter_ns()
            dn = fresh_import(preloaded)
            state = w.setup(raw, dn, self.tracer, -1 - r)
            setup_ns.append(perf_counter_ns() - start)
        try:
            untraced, traced, samples = self.loop(state, expected)
            if self.trace:
                metrics = self.layer_metrics(dn, state, counts, untraced, traced, samples)
            else:
                metrics = self.end_to_end(setup_ns, setup_calibration, untraced)
        finally:
            w.close(state)
        return {
            "correct": self.failed == 0 and self.attempted > 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": metrics,
        }

    def loop(self, state, expected):
        w, tracer = self.workload, self.tracer
        untraced: list[float] = []
        traced: list[float] = []
        samples: dict[str, list[float]] = {}
        deadline = perf_counter_ns() + int(self.seconds * 1e9)
        i = 0
        while (i < 1) if self.smoke else (i == 0 or perf_counter_ns() < deadline):
            speed = self.speed_probe()
            out, ns = self.attempt(state, expected, i, lambda: w.op(state, i))
            if ns is not None:
                untraced.append(ns / 1e6)
                self.speeds.append(speed)
            del out
            if self.trace:
                out, ns = self.attempt(state, expected, i, lambda: self.traced_op(state, i))
                if ns is not None:
                    traced.append(ns / 1e6)
                    for name, value in w.probe(state, i, out, tracer, i).items():
                        samples.setdefault(name, []).append(value)
                del out
            i += 1
        return untraced, traced, samples

    def traced_op(self, state, i):
        with self.tracer.span("op", i):
            return self.workload.traced(state, i, self.tracer, i)

    def end_to_end(self, setup_ns, setup_calibration, latencies) -> dict:
        """End-to-end metrics at the reference machine speed; the raw figures go to the detail line."""
        if self.workload.name == "cli-session":
            peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        else:
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        scaled = [ms * self.speed_reference / c for ms, c in zip(latencies, self.speeds)]
        scaled_setup = [ns * CALIBRATION_NS / c for ns, c in zip(setup_ns, setup_calibration)]
        percentile, value = tail(scaled)
        detail = {
            "ops": len(latencies),
            "tail_percentile": percentile,
            "tail_ms": value,
            "raw_op_p50_ms": median(latencies) if latencies else None,
            "raw_setup_s": median(setup_ns) / 1e9,
            "op_probe_ms": median(self.speeds) / 1e6 if self.speeds else None,
            "op_probe_reference_ms": self.speed_reference / 1e6,
            "setup_probe_ms": median(setup_calibration) / 1e6,
            "problems": self.problems[:5],
        }
        print("detail: " + json.dumps(detail))
        values = {
            "setup_s": median(scaled_setup) / 1e9,
            "op_p50_ms": median(scaled) if scaled else 0.0,
            "peak_rss_mb": peak_kb / 1024,
        }
        return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}

    def layer_metrics(self, dn, state, counts, untraced, traced, samples) -> dict:
        w, tracer = self.workload, self.tracer
        sort_calls = count_calls(dn.Frame, "sort_key", lambda: w.counting_pass(state))
        values = {f"{name}_ms": tracer.median_ms(name) for name in SPANS}
        kernel = tracer.per_op_ms("fusion.residual_conflict")
        dcr2 = tracer.per_op_ms("fusion.dcr2")
        values["fusion.dcr2_self_ms"] = (
            median(t - kernel.get(op, 0.0) for op, t in dcr2.items()) if dcr2 else 0.0
        )
        for name in ("cli.import_ms", "report.bytes"):
            values[name] = median_low(samples[name]) if name in samples else 0
        work = counts.work
        values.update(
            {
                "scenario.bytes": state.get("scenario_bytes", 0),
                "evidence.sort_key_calls": sort_calls,
                "evidence.sort_ratio": sort_calls / counts.result_cells if counts.result_cells else 0.0,
                "fusion.pairs": work.pairs,
                "fusion.disjoint_pairs": work.disjoint_pairs,
                "fusion.cells": counts.cells,
                "fusion.element_probes": work.element_probes,
                "fusion.useful_lookup_ratio": (
                    work.nonzero_degrees / work.disjoint_pairs if work.disjoint_pairs else 0.0
                ),
                "fusion.matrix_cells": counts.matrix_cells,
                "fusion.matrix_disjoint_cells": counts.matrix_disjoint_cells,
                "fusion.matrix_alloc_peak_mb": w.alloc_peak_mb(state),
                "fusion.steps": counts.steps,
                "fusion.step_pairs": work.pairs / counts.steps if counts.steps else 0.0,
                "bench.trace_overhead_ratio": median(traced) / median(untraced) if traced and untraced else 0.0,
            }
        )
        OUT.mkdir(exist_ok=True)
        tracer.dump(OUT / f"spans-{w.name}-seed{self.seed}.jsonl")
        return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER_UNITS.items()}


def count_calls(cls, method: str, action) -> int:
    """How often ``action`` calls ``cls.method``; the method is wrapped only meanwhile."""
    original = getattr(cls, method)
    calls = 0

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return original(*args, **kwargs)

    setattr(cls, method, counted)
    try:
        action()
    finally:
        setattr(cls, method, original)
    return calls


def worker(args) -> int:
    root = Path(args.root).resolve()
    if not (root / "src" / "dnumbers" / "__init__.py").is_file() or not (root / "tests" / "helpers.py").is_file():
        print(f"error: {root} holds no dnumbers source tree (src/dnumbers, tests/helpers.py)", file=sys.stderr)
        return 2
    sys.path[:0] = [str(root / "src"), str(root / "tests")]
    OUT.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](root, OUT)
    result = Run(workload, args.seed, args.seconds, bool(args.trace), args.smoke).execute()
    print(json.dumps(result))
    return 0


# --- every workload, one worker process after another -----------------------------


def spawn(workload: str, seed: int, seconds: float, trace: int, smoke: bool, root: Path) -> dict:
    """Run one workload in a worker process; returns its result and detail lines."""
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed)]
    argv += ["--seconds", str(seconds), "--trace", str(trace), "--root", str(root)]
    if smoke:
        argv.append("--smoke")
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError(f"{workload} (trace {trace}) exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        if line.startswith("detail: "):
            result["detail"] = json.loads(line[len("detail: "):])
    return result


def print_results(results: dict) -> None:
    for name, modes in results.items():
        print(f"\n== {name}")
        for mode, result in modes.items():
            ratio = result["failed"] / result["attempted"]
            print(f"  [{mode}] ops {result['attempted']}, fail_ratio {ratio:.4g} ({result['failed']} failed)")
            for metric, m in result["metrics"].items():
                speed = " at reference speed" if mode == "untraced" and metric in SCALED else ""
                print(f"    {metric:32s} {m['value']:14.6g} {m['unit']}{speed}")
            detail = result.get("detail")
            if detail and detail["tail_percentile"]:
                print(
                    f"    {'op_p90_ms':32s} {detail['tail_ms']:14.6g} ms at reference speed "
                    f"(p{detail['tail_percentile']:.0f} of {detail['ops']} ops: "
                    f"the highest percentile with ten samples beyond it)"
                )
            elif detail:
                print(f"    {'op_p90_ms':32s} {'n/a':>14s}    ({detail['ops']} ops: fewer than 20)")
            if detail and detail["raw_op_p50_ms"] is not None:
                print(
                    f"    raw, unscaled: op_p50 {detail['raw_op_p50_ms']:.6g} ms, setup {detail['raw_setup_s']:.6g} s; "
                    f"speed probes: ops {detail['op_probe_ms']:.4g} ms (reference {detail['op_probe_reference_ms']:g} ms), "
                    f"set-up {detail['setup_probe_ms']:.4g} ms (reference {CALIBRATION_NS / 1e6:g} ms)"
                )
            for problem in (detail or {}).get("problems", []):
                print(f"    problem: {problem}")


def print_deltas(results: dict, previous: dict) -> bool:
    """Print the change of each end-to-end metric against an earlier results file,
    and whether the work counts repeat exactly; returns False if they do not."""
    print("\n== change against the previous results")
    same_work = True
    for name, modes in results.items():
        for mode, result in modes.items():
            before = previous.get(name, {}).get(mode)
            if before is None:
                continue
            for metric, m in result["metrics"].items():
                old = before["metrics"].get(metric, {}).get("value")
                if mode == "untraced" and old:
                    change = 100 * (m["value"] / old - 1)
                    print(f"  {name:14s} {metric:12s} {old:12.6g} -> {m['value']:12.6g} {m['unit']:3s} {change:+7.2f}%")
                elif metric in WORK_COUNTS and old != m["value"]:
                    same_work = False
                    print(f"  {name:14s} {metric} differs: {old} -> {m['value']}")
    print("work counts identical" if same_work else "WORK COUNTS DIFFER: the two runs did different work")
    return same_work


def run_all(args) -> int:
    root = Path(args.root).resolve()
    results: dict = {}
    modes = (("untraced", 0), ("traced", 1))
    for name in WORKLOADS:
        results[name] = {}
        for mode, trace in modes:
            print(f"running {name} ({mode})", file=sys.stderr, flush=True)
            results[name][mode] = spawn(name, args.seed, args.seconds, trace, args.smoke, root)
    print_results(results)
    ok = all(r["correct"] for modes_ in results.values() for r in modes_.values())
    if args.previous:
        previous = json.loads(Path(args.previous).read_text())
        if previous["meta"]["seed"] != args.seed:
            print(f"note: the previous results used seed {previous['meta']['seed']}; work counts will differ")
        ok &= print_deltas(results, previous["results"])
    if not args.smoke:
        OUT.mkdir(exist_ok=True)
        path = OUT / f"results-seed{args.seed}.json"
        meta = {"python": sys.version.split()[0], "seed": args.seed, "seconds": args.seconds}
        path.write_text(json.dumps({"meta": meta, "results": results}, indent=1))
        print(f"\nresults written to {path}")
    print("all checks passed" if ok else "SOME CHECKS FAILED")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="run one workload in this process")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0, help="measuring time of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="one checked op per run")
    parser.add_argument("--root", default=str(BENCH.parent), help="source tree under test (default: this checkout)")
    parser.add_argument("--previous", help="earlier results file to compare against")
    args = parser.parse_args(argv)
    return worker(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())

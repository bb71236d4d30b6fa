"""One-off re-measurement of the four baseline figures in ROADMAP.md.

    python3 bench/calibrate.py [--root TREE]

Prints, for the source tree (default: this checkout):

* ``dcr2`` on the paper's example (best of five loops of 2,000 calls);
* ``dcr2`` on a 20-element pair of 611 x 658 uniformly drawn focal sets
  under ``random_model`` (best of three);
* ``matrix()`` at the 12-element cap: wall time and the peak RSS of a fresh
  process that builds it;
* CLI ``combine --rule dcr2`` on ``scenarios/abc_fusion.scn`` and a bare
  interpreter start (medians of ten runs).

This is not one of the repeated benchmark runs; its results are recorded in
NOTES.md.
"""

from __future__ import annotations

import argparse
import os
import random
import resource
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter_ns

from workloads import exact_complete, labels


def best_ms(action, repeats: int, calls: int = 1) -> float:
    times = []
    for _ in range(repeats):
        start = perf_counter_ns()
        for _ in range(calls):
            action()
        times.append((perf_counter_ns() - start) / calls / 1e6)
    return min(times)


def matrix_at_cap() -> None:
    """Child process: build the 12-element matrix and print its wall time in ms."""
    from dnumbers import Frame
    from helpers import random_model

    model = random_model(random.Random(12), Frame(labels(12)))
    start = perf_counter_ns()
    model.matrix()
    print((perf_counter_ns() - start) / 1e6)


def wall_ms(argv, env, cwd, repeats: int = 10) -> float:
    times = []
    for _ in range(repeats):
        start = perf_counter_ns()
        subprocess.run(argv, env=env, cwd=cwd, check=True, capture_output=True)
        times.append((perf_counter_ns() - start) / 1e6)
    return median(times)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", default=str(Path(__file__).resolve().parent.parent))
    parser.add_argument("--matrix-child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    root = Path(args.root).resolve()
    sys.path[:0] = [str(root / "src"), str(root / "tests")]
    if args.matrix_child:
        matrix_at_cap()
        return 0

    from dnumbers import PRODUCT, DNumber, Frame, NonExclusivityModel, dcr2
    from helpers import random_model

    print(f"python {sys.version.split()[0]}, {os.cpu_count()} CPUs")
    abc = Frame(["a", "b", "c"])
    d1 = DNumber(abc, {("a",): 0.7, ("b", "c"): 0.1, ("a", "b", "c"): 0.1})
    d2 = DNumber(abc, {("a",): 0.5, ("c",): 0.3})
    model = NonExclusivityModel(abc, {("a", "b"): 0.1, ("b", "c"): 0.2, ("a", "c"): 0.0})
    paper = best_ms(lambda: dcr2(d1, d2, model, PRODUCT), 5, 2000)
    print(f"dcr2, paper example:            {paper * 1000:8.1f} us")

    rng = random.Random(20)
    frame = Frame(labels(20))
    big1, big2 = DNumber(frame, exact_complete(rng, frame, 611)), DNumber(frame, exact_complete(rng, frame, 658))
    big_model = random_model(rng, frame)
    wide = best_ms(lambda: dcr2(big1, big2, big_model, PRODUCT), 3)
    print(f"dcr2, 20 elements, 611 x 658:   {wide / 1000:8.2f} s")

    child = subprocess.run(
        [sys.executable, __file__, "--root", str(root), "--matrix-child"],
        check=True,
        capture_output=True,
        text=True,
    )
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    print(f"matrix(), 12 elements:          {float(child.stdout) / 1000:8.2f} s, peak RSS {peak_mb:.0f} MB")

    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    scn = str(root / "scenarios" / "abc_fusion.scn")
    cli = wall_ms([sys.executable, "-m", "dnumbers", "combine", "--rule", "dcr2", scn], env, root)
    bare = wall_ms([sys.executable, "-c", "pass"], env, root)
    print(f"CLI combine, abc_fusion.scn:    {cli / 1000:8.3f} s, of which interpreter start {bare / 1000:.3f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())

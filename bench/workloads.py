"""The four benchmark workloads: seeded inputs, set-up, one op, its check.

Each workload draws plain-data inputs from the seed (``generate``), computes
the expected outputs with :mod:`reference` (``expect``), builds the package's
objects from those inputs (``setup``, the timed set-up), and then repeats one
op.  ``check`` compares an op's output with the reference outside the timed
span.  ``traced`` is the op with a span around each call into the package,
and ``probe`` times the single layers the op hides (the product kernel alone,
the result constructor, degree lookups, ...) outside the op's span.

Why each workload exists, and which metric each one should move, is written
down in NOTES.md.
"""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from math import fsum
from pathlib import Path

import reference as ref


def labels(n: int) -> tuple[str, ...]:
    return tuple(f"e{i}" for i in range(n))


def exact_complete(rng, frame, k: int) -> dict[int, float]:
    """``random_complete`` from the test helpers, conditioned on exactly k focal sets."""
    from helpers import random_complete

    while True:
        d = random_complete(rng, frame, k)
        if len(d) == k:
            return dict(d.items())


def small_focal(rng, n: int, sizes: tuple[int, ...]) -> dict[int, float]:
    """An incomplete source (Q in [0.5, 1]) with ``sizes[s - 1]`` distinct focal sets of s elements.

    Fixing how many sets have each size keeps the share of disjoint pairs, and
    so the cost of a combination, nearly the same from seed to seed.
    """
    masks: set[int] = set()
    for size, count in enumerate(sizes, start=1):
        target = len(masks) + count
        while len(masks) < target:
            masks.add(sum(1 << i for i in rng.sample(range(n), size)))
    ordered = sorted(masks)
    weights = [rng.uniform(0.05, 1.0) for _ in ordered]
    q = rng.uniform(0.5, 1.0)
    total = fsum(weights)
    return {m: q * w / total for m, w in zip(ordered, weights)}


def model_from_helpers(rng, frame, zero_prob: float = 0.3) -> ref.Model:
    """``random_model`` from the test helpers, as plain degrees."""
    from helpers import random_model

    m = random_model(rng, frame, zero_prob)
    return ref.Model(dict(m.element_degrees), dict(m.subset_overrides))


def place_overrides(rng, model: ref.Model, candidates: list[tuple[int, int]], count: int) -> None:
    """Pin ``count`` random disjoint subset pairs, drawn from ``candidates``, to random degrees."""
    free = sorted({(min(b, c), max(b, c)) for b, c in candidates} - set(model.overrides))
    for key in rng.sample(free, min(count, len(free))):
        model.overrides[key] = rng.random()


def disjoint_pairs(m1: dict[int, float], m2: dict[int, float]) -> list[tuple[int, int]]:
    return [(b, c) for b in m1 for c in m2 if not b & c]


def model_args(names: tuple[str, ...], model: ref.Model) -> tuple[dict, dict]:
    """The constructor arguments of ``NonExclusivityModel`` for these degrees."""
    return (
        {(names[i], names[j]): d for (i, j), d in model.pairs.items()},
        dict(model.overrides),
    )


@dataclass
class Counts:
    """Work per pass over a workload's input pool, computed from the inputs."""

    work: ref.Work = field(default_factory=ref.Work)
    cells: int = 0  # cells of the DCR results
    result_cells: int = 0  # cells of every result the op builds
    matrix_cells: int = 0
    matrix_disjoint_cells: int = 0
    steps: int = 0


class Workload:
    name = ""
    pool = 1  # distinct inputs the ops cycle through
    starts_interpreters = False  # ops start Python child processes; selects the speed probe in run.py

    def __init__(self, root: Path, scratch: Path):
        self.root = root  # the source tree under test: src/, tests/, scenarios/
        self.scratch = scratch  # where a run may write files

    def generate(self, rng):
        raise NotImplementedError

    def expect(self, raw):
        raise NotImplementedError

    def setup(self, raw, dn, tracer, op_id):
        raise NotImplementedError

    def op(self, state, i):
        raise NotImplementedError

    def check(self, state, expected, i, out) -> str | None:
        raise NotImplementedError

    def traced(self, state, i, tracer, op_id):
        raise NotImplementedError

    def probe(self, state, i, out, tracer, op_id) -> dict[str, float]:
        """Time single layers outside the op's span; returns extra samples by metric name."""
        return {}

    def counting_pass(self, state) -> None:
        """Run one op per pooled input; the traced run counts public calls around it."""
        for i in range(self.pool):
            self.op(state, i)

    def alloc_peak_mb(self, state) -> float:
        """Peak traced allocation of one op, where that op builds a degree matrix."""
        return 0.0

    def close(self, state) -> None:
        pass


# --- two-source workloads --------------------------------------------------------


class PairWorkload(Workload):
    """A pool of source pairs under one model; an op combines one pair.

    The cost of a pair varies from pair to pair by several per cent; the ops
    cycle through 16 pairs so that a run's median is close to the median of
    many pairs and moves little from seed to seed.
    """

    pool = 16
    size = 0

    def sources(self, rng, frame) -> tuple[dict, dict]:
        raise NotImplementedError

    def model(self, rng, frame, pairs) -> ref.Model:
        raise NotImplementedError

    def generate(self, rng):
        from dnumbers import Frame

        frame = Frame(labels(self.size))
        pairs = [self.sources(rng, frame) for _ in range(self.pool)]
        model = self.model(rng, frame, pairs)
        return {"pairs": pairs, "model": model, "model_args": model_args(frame.labels, model)}

    def expect(self, raw):
        counts = Counts()
        out = []
        for m1, m2 in raw["pairs"]:
            dcr2, work = ref.dcr2(m1, m2, raw["model"])
            counts.work.add(work)
            counts.cells += len(dcr2)
            counts.result_cells += len(dcr2)
            out.append({"dcr2": ref.pack(dcr2), "f": fsum(m1.values()) * fsum(m2.values())})
        return out, counts

    def setup(self, raw, dn, tracer, op_id):
        frame = dn.Frame(labels(self.size))
        with tracer.span("fusion.model_init", op_id):
            model = dn.NonExclusivityModel(frame, *raw["model_args"])
        sources = [(dn.DNumber(frame, a), dn.DNumber(frame, b)) for a, b in raw["pairs"]]
        return {"dn": dn, "frame": frame, "model": model, "sources": sources}

    def op(self, state, i):
        d1, d2 = state["sources"][i % self.pool]
        return state["dn"].dcr2(d1, d2, state["model"], state["dn"].PRODUCT)

    def traced(self, state, i, tracer, op_id):
        d1, d2 = state["sources"][i % self.pool]
        with tracer.span("fusion.dcr2", op_id):
            return state["dn"].dcr2(d1, d2, state["model"], state["dn"].PRODUCT)

    def check(self, state, expected, i, out):
        e = expected[i % self.pool]
        return ref.mismatch(out.result.masses, e["dcr2"], e["f"])

    def probe(self, state, i, out, tracer, op_id):
        dn = state["dn"]
        d1, d2 = state["sources"][i % self.pool]
        with tracer.span("fusion.residual_conflict", op_id):
            dn.residual_conflict(d1, d2, state["model"])
        result = out.result.masses
        with tracer.span("evidence.dnumber_init", op_id):
            dn.DNumber(state["frame"], result)
        return {}


class WidePair(PairWorkload):
    name = "wide-pair"
    size = 16
    focal = 200

    def sources(self, rng, frame):
        return exact_complete(rng, frame, self.focal), exact_complete(rng, frame, self.focal)

    def model(self, rng, frame, pairs):
        return model_from_helpers(rng, frame)

    def expect(self, raw):
        out, counts = super().expect(raw)
        for e, (m1, m2) in zip(out, raw["pairs"]):
            dempster = ref.dempster(m1, m2)
            e["dempster"] = ref.pack(dempster)
            counts.result_cells += len(dempster)
        return out, counts

    def op(self, state, i):
        d1, d2 = state["sources"][i % self.pool]
        return super().op(state, i), state["dn"].dempster(d1, d2)

    def traced(self, state, i, tracer, op_id):
        d1, d2 = state["sources"][i % self.pool]
        report = super().traced(state, i, tracer, op_id)
        with tracer.span("classical.dempster", op_id):
            return report, state["dn"].dempster(d1, d2)

    def check(self, state, expected, i, out):
        report, combined = out
        return super().check(state, expected, i, report) or ref.mismatch(
            combined.masses, expected[i % self.pool]["dempster"], 1.0
        )

    def probe(self, state, i, out, tracer, op_id):
        d1, d2 = state["sources"][i % self.pool]
        super().probe(state, i, out[0], tracer, op_id)
        with tracer.span("classical.conjunctive", op_id):
            state["dn"].conjunctive(d1, d2)
        return {}


class SparsePair(PairWorkload):
    name = "sparse-pair"
    size = 20
    focal = (15, 50, 55)  # sets of 1, 2 and 3 elements: 120, about 75% of pairs disjoint
    overrides_per_pair = 200

    def sources(self, rng, frame):
        return small_focal(rng, self.size, self.focal), small_focal(rng, self.size, self.focal)

    def model(self, rng, frame, pairs):
        model = model_from_helpers(rng, frame)
        for m1, m2 in pairs:
            place_overrides(rng, model, disjoint_pairs(m1, m2), self.overrides_per_pair)
        return model

    def probe(self, state, i, out, tracer, op_id):
        super().probe(state, i, out, tracer, op_id)
        d1, d2 = state["sources"][i % self.pool]
        pairs = disjoint_pairs(d1.masses, d2.masses)
        degree = state["model"].degree
        with tracer.span("fusion.degree", op_id):
            for b, c in pairs:
                degree(b, c)
        return {}


# --- materialised degree matrix --------------------------------------------------


class DegreeMatrix(Workload):
    name = "degree-matrix"
    size = 10
    overrides = 64

    def generate(self, rng):
        from dnumbers import Frame

        frame = Frame(labels(self.size))
        model = model_from_helpers(rng, frame)
        full = frame.full_mask
        candidates = []
        while len(candidates) < 4 * self.overrides:
            b = rng.randint(1, full)
            c = rng.randint(1, full) & ~b & full
            if c:
                candidates.append((b, c))
        place_overrides(rng, model, candidates, self.overrides)
        return {"model": model, "model_args": model_args(frame.labels, model)}

    def expect(self, raw):
        order, rows = ref.matrix(self.size, raw["model"])
        counts = Counts(
            matrix_cells=len(order) ** 2,
            matrix_disjoint_cells=sum(1 for r in order for c in order if not r & c),
        )
        return {"order": tuple(order), "rows": rows}, counts

    def setup(self, raw, dn, tracer, op_id):
        frame = dn.Frame(labels(self.size))
        with tracer.span("fusion.model_init", op_id):
            model = dn.NonExclusivityModel(frame, *raw["model_args"])
        return {"frame": frame, "model": model}

    def op(self, state, i):
        matrix = state["model"].matrix()
        return matrix, matrix.exclusive()

    def traced(self, state, i, tracer, op_id):
        with tracer.span("fusion.matrix", op_id):
            matrix = state["model"].matrix()
        with tracer.span("fusion.exclusive", op_id):
            return matrix, matrix.exclusive()

    def check(self, state, expected, i, out):
        matrix, exclusive = out
        if matrix.subsets != expected["order"] or exclusive.subsets != expected["order"]:
            return "subsets are not in canonical order"
        return ref.matrix_mismatch(matrix.rows, expected["rows"]) or ref.matrix_mismatch(
            exclusive.rows, expected["rows"], exclusive=True
        )

    def alloc_peak_mb(self, state):
        tracemalloc.start()
        try:
            self.op(state, 0)
            return tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()

    def probe(self, state, i, out, tracer, op_id):
        with tracer.span("evidence.frame_subsets", op_id):
            tuple(state["frame"].subsets())
        return {}


# --- the command line, bytes in to bytes out -----------------------------------


def parse_plain_scenario(text: str):
    """A minimal scenario reader for the reference: labels, sources, degrees."""
    names: list[str] = []
    sources: dict[str, dict[int, float]] = {}
    model = ref.Model()
    section = None

    def mask(body: str) -> int:
        return sum(1 << names.index(x.strip()) for x in body.strip("{} ").split(","))

    for line in text.splitlines():
        line = line.split("#")[0].strip()
        if not line:
            continue
        head, _, value = line.rpartition(":")
        if line.startswith("frame:"):
            names = [x.strip() for x in value.split(",")]
        elif line.startswith("dnumber "):
            section = sources.setdefault(head[len("dnumber "):].strip(), {})
        elif head in ("nonexclusivity", "overrides"):
            section = head
        elif section == "nonexclusivity":
            i, j = sorted(names.index(x.strip()) for x in head.split("~"))
            model.pairs[(i, j)] = float(value)
        elif section == "overrides":
            b, c = sorted(mask(x) for x in head.split("~"))
            model.overrides[(b, c)] = float(value)
        else:
            section[mask(head)] = section.get(mask(head), 0.0) + float(value)
    return names, sources, model


def human_weights(text: str) -> dict[tuple[str, ...], float]:
    """The ``combined masses:`` block of a human report."""
    lines = text.splitlines()
    start = lines.index("combined masses:") + 1
    out = {}
    for line in lines[start:]:
        if line.startswith("total mass:"):
            break
        subset, _, weight = line.strip().rpartition(": ")
        out[tuple(subset.strip("{}").split(", "))] = float(weight)
    return out


def fold(rule, sources: list[dict[int, float]], model: ref.Model, counts: Counts):
    """Left-to-right fold of a DCR rule; returns the result and f(Q1, Q2) of its last step."""
    acc = sources[0]
    for nxt in sources[1:]:
        f_value = fsum(acc.values()) * fsum(nxt.values())
        acc, work = rule(acc, nxt, model)
        counts.work.add(work)
        counts.steps += 1
        counts.cells += len(acc)
    return acc, f_value


class CliSession(Workload):
    name = "cli-session"
    starts_interpreters = True
    size = 8
    sources = 12
    focal = 6
    overrides = 8

    #: (check name, output format, argv after ``python -m dnumbers``; the file comes last)
    script = (
        ("fold", "machine", ["combine", "--rule", "dcr2", "--strategy", "fold"], "incomplete"),
        ("average-iterate", "human", ["combine", "--rule", "dcr2", "--strategy", "average-iterate"], "incomplete"),
        ("dcr1", "machine", ["combine", "--rule", "dcr1"], "complete"),
        ("yager", "human", ["combine", "--rule", "yager"], "complete"),
        ("matrix", "machine", ["matrix", "expand"], "complete"),
        ("abc", "human", ["combine", "--rule", "dcr2"], "abc"),
    )

    def shipped(self) -> Path:
        return self.root / "scenarios" / "abc_fusion.scn"

    def generate(self, rng):
        from dnumbers import Frame

        frame = Frame(labels(self.size))
        incomplete = []
        for _ in range(self.sources):
            d = exact_complete(rng, frame, self.focal)
            q = rng.uniform(0.5, 1.0)
            incomplete.append({m: q * w for m, w in d.items()})
        complete = [exact_complete(rng, frame, self.focal) for _ in range(self.sources)]
        model = model_from_helpers(rng, frame)
        candidates = [p for ds in (incomplete, complete) for m1 in ds for m2 in ds for p in disjoint_pairs(m1, m2)]
        place_overrides(rng, model, candidates, self.overrides)
        names = frame.labels

        def subset(mask):
            return tuple(names[i] for i in ref.elements(mask))

        def document(sources, prefix):
            return {
                "dnumbers": [
                    (f"{prefix}{k + 1:02d}", [(subset(m), w) for m, w in source.items()])
                    for k, source in enumerate(sources)
                ],
                "pairs": [((names[i], names[j]), d) for (i, j), d in sorted(model.pairs.items())],
                "overrides": [((subset(b), subset(c)), d) for (b, c), d in sorted(model.overrides.items())],
            }

        return {
            "incomplete": incomplete,
            "complete": complete,
            "model": model,
            "documents": {"incomplete": document(incomplete, "I"), "complete": document(complete, "C")},
        }

    def expect(self, raw):
        model, counts = raw["model"], Counts()
        full = (1 << self.size) - 1
        fold_result, fold_f = fold(ref.dcr2, raw["incomplete"], model, counts)
        avg = ref.mean(raw["incomplete"])
        avg_result, avg_f = fold(ref.dcr2, [avg] * self.sources, model, counts)
        dcr1_result, _ = fold(ref.dcr1, raw["complete"], model, counts)
        yager_result = raw["complete"][0]
        for nxt in raw["complete"][1:]:
            yager_result = ref.yager(yager_result, nxt, full)
            counts.result_cells += len(yager_result)
        order, rows = ref.matrix(self.size, model)
        names, abc_sources, abc_model = parse_plain_scenario(self.shipped().read_text())
        abc_result, abc_f = fold(ref.dcr2, list(abc_sources.values()), abc_model, counts)
        counts.matrix_cells = len(order) ** 2
        counts.matrix_disjoint_cells = sum(1 for r in order for c in order if not r & c)
        counts.result_cells += counts.cells
        own = labels(self.size)
        expected = {
            "fold": (own, fold_result, fold_f),
            "average-iterate": (own, avg_result, avg_f),
            "dcr1": (own, dcr1_result, 1.0),
            "yager": (own, yager_result, 1.0),
            "matrix": ([[own[i] for i in ref.elements(m)] for m in order], rows),
            "abc": (tuple(names), abc_result, abc_f),
        }
        return expected, counts

    def document(self, dn, doc):
        """The scenario document in the package's own types."""
        return dn.ScenarioDocument(
            frame=labels(self.size),
            dnumbers=tuple(
                dn.NamedAssignment(name, tuple(dn.WeightEntry(subset, w) for subset, w in entries))
                for name, entries in doc["dnumbers"]
            ),
            pairs=tuple(dn.PairDegree(pair, d) for pair, d in doc["pairs"]),
            overrides=tuple(dn.OverrideDegree(pair, d) for pair, d in doc["overrides"]),
        )

    def setup(self, raw, dn, tracer, op_id):
        workdir = Path(tempfile.mkdtemp(prefix="cli-", dir=self.scratch))
        files = {"abc": self.shipped()}
        for kind, doc in raw["documents"].items():
            files[kind] = workdir / f"{kind}.scn"
            files[kind].write_text(dn.format_scenario(self.document(dn, doc)))
        env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        argvs = [(name, form, args + [str(files[kind]), "--output", form]) for name, form, args, kind in self.script]
        read = sum(files[kind].stat().st_size for *_, kind in self.script)
        return {"dn": dn, "workdir": workdir, "env": env, "argvs": argvs, "scenario_bytes": read}

    def run(self, state, argv):
        return subprocess.run(
            [sys.executable, "-m", "dnumbers", *argv],
            cwd=self.root,
            env=state["env"],
            capture_output=True,
            text=True,
            timeout=120,
        )

    def op(self, state, i):
        return [self.run(state, argv) for _, _, argv in state["argvs"]]

    def traced(self, state, i, tracer, op_id):
        out = []
        for _, _, argv in state["argvs"]:
            with tracer.span("cli.process", op_id):
                out.append(self.run(state, argv))
        return out

    def check(self, state, expected, i, out):
        for (name, form, _), proc in zip(state["argvs"], out):
            if proc.returncode != 0:
                return f"{name}: exit {proc.returncode}: {proc.stderr.strip()}"
            problem = self.check_output(name, form, proc.stdout, expected[name])
            if problem:
                return f"{name}: {problem}"
        return None

    def check_output(self, name, form, stdout, expected):
        if name == "matrix":
            doc = json.loads(stdout)
            subsets, rows = expected
            if doc["subsets"] != subsets:
                return "subsets are not in canonical order"
            return ref.matrix_mismatch(doc["rows"], rows)
        names, masses, f_value = expected
        if form == "machine":
            weights = {tuple(w["subset"]): w["weight"] for w in json.loads(stdout)["weights"]}
            tolerance, total = 0.0, f_value
        else:
            weights = human_weights(stdout)
            tolerance, total = 5e-5, None  # four printed decimals
        got = {sum(1 << names.index(x) for x in subset): w for subset, w in weights.items()}
        if tolerance:
            if set(got) != {a for a, v in masses.items() if v}:
                return "focal sets differ"
            worst = max(abs(got[a] - v) for a, v in masses.items() if v)
            return f"a printed weight is off by {worst!r}" if worst > tolerance + ref.TOLERANCE else None
        return ref.mismatch(got, ref.pack(masses), total)

    def probe(self, state, i, out, tracer, op_id):
        """The script's work in process, layer by layer, then interpreter and import start-up."""
        dn = state["dn"]
        from dnumbers.cli import run_cli

        report_bytes = 0
        for name, form, argv in state["argvs"]:
            raw = Path(argv[-3]).read_bytes()
            with tracer.span("scenario.parse", op_id):
                doc = dn.parse_scenario(raw)
            with tracer.span("scenario.build", op_id):
                scenario = doc.build()
            pairs = [(p.elements, p.degree) for p in doc.pairs]
            overrides = [(o.subsets, o.degree) for o in doc.overrides]
            with tracer.span("fusion.model_init", op_id):
                dn.NonExclusivityModel(scenario.frame, pairs, overrides)
            ds = list(scenario.dnumbers.values())
            weights = self.combine_probe(name, dn, ds, scenario, tracer, op_id)
            if weights is None:
                continue
            frame = scenario.frame
            document = dn.ReportDocument(
                rule=name,
                weights=tuple((frame.labels_of(m), w) for m, w in weights.items()),
                diagnostics={"q_values": [d.q_value for d in ds]},
                inputs={"dnumbers": list(scenario.dnumbers)},
            )
            with tracer.span(f"report.to_{form}", op_id):
                text = document.to_machine() if form == "machine" else document.to_human()
            report_bytes += len(text.encode())
        for _, _, argv in state["argvs"]:
            with tracer.span("cli.run_cli", op_id), redirect_stdout(io.StringIO()):
                run_cli(argv)
        with tracer.span("cli.interpreter", op_id):
            subprocess.run([sys.executable, "-c", "pass"], env=state["env"], check=True)
        timer = (
            "import time; t = time.perf_counter_ns(); import dnumbers.cli; "
            "print(time.perf_counter_ns() - t)"
        )
        started = subprocess.run(
            [sys.executable, "-c", timer], env=state["env"], check=True, capture_output=True, text=True
        )
        return {"cli.import_ms": int(started.stdout) / 1e6, "report.bytes": report_bytes}

    def combine_probe(self, name, dn, ds, scenario, tracer, op_id):
        model = scenario.model
        if name in ("fold", "average-iterate"):
            if name == "average-iterate":
                with tracer.span("fusion.mean_assignment", op_id):
                    dn.mean_assignment(ds)
            with tracer.span("fusion.combine_many", op_id):
                return dn.combine_many(ds, model, dn.PRODUCT, name).result.masses
        if name == "dcr1" or name == "abc":
            rule = dn.dcr1 if name == "dcr1" else dn.dcr2
            acc = ds[0]
            with tracer.span(f"fusion.{rule.__name__}", op_id):
                for nxt in ds[1:]:
                    acc = rule(acc, nxt, model).result
            return acc.masses
        if name == "yager":
            acc = ds[0]
            for nxt in ds[1:]:
                with tracer.span("classical.global_conflict", op_id):
                    dn.global_conflict(acc, nxt)
                with tracer.span("classical.yager", op_id):
                    acc = dn.yager(acc, nxt)
            return acc.masses
        with tracer.span("fusion.matrix", op_id):
            model.matrix()
        return None

    def counting_pass(self, state):
        from dnumbers.cli import run_cli

        with redirect_stdout(io.StringIO()):
            for _, _, argv in state["argvs"]:
                run_cli(argv)

    def close(self, state):
        for path in state["workdir"].iterdir():
            path.unlink()
        state["workdir"].rmdir()


WORKLOADS = {w.name: w for w in (WidePair, SparsePair, DegreeMatrix, CliSession)}

"""Command line front end.

Subcommands: combine, bel, pl, qvalue, conflict, matrix, validate.  Each reads
one scenario file (or standard input with ``-``) and prints either a human
report or, with ``--output machine``, deterministic JSON.

Exit codes: 0 success; 1 the scenario or table file is malformed (syntax,
unknown labels, out-of-range values, duplicate pairs); 2 the file is
well-formed but the mathematics rejects it (mass overflow, incomplete inputs
where completeness is required, total conflict, ...) or the invocation itself
is unusable; 141 (128 + SIGPIPE) the reader closed standard output early.
"""

from __future__ import annotations

import argparse
import os
import re
import sys

from .classical import _products
from .errors import FusionError
from .evidence import Frame
from .fusion import (
    AGGREGATORS,
    RULES,
    STRATEGIES,
    aggregator,
    combine_many,
    validate_f_points,
)
from .report import ReportDocument, fmt4, fmt_subset
from .scenario import MAX_SCENARIO_BYTES, ScenarioDocument, parse_f_table, parse_scenario

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_DOMAIN = 2
EXIT_BROKEN_PIPE = 141

class _Abort(Exception):
    """Unusable invocation against a well-formed scenario."""


def _kind(exc: Exception) -> str:
    name = type(exc).__name__.lstrip("_")
    return re.sub(r"(?<!^)(?=[A-Z])", "-", name).lower()


def _diag(exc: Exception) -> str:
    return f"error[{_kind(exc)}]: {exc}"


def _emit(args, human: str, machine: dict) -> int:
    if args.output == "machine":
        import json  # imported here, as human output never needs it
        sys.stdout.write(json.dumps(machine, sort_keys=True, indent=2) + "\n")
    else:
        sys.stdout.write(human)
    return EXIT_OK


def _read_scenario(args) -> bytes:
    # One byte past the cap is enough for parse_scenario to reject a file.
    if args.scenario in (None, "-"):
        return sys.stdin.buffer.read(MAX_SCENARIO_BYTES + 1)
    with open(args.scenario, "rb") as fh:
        return fh.read(MAX_SCENARIO_BYTES + 1)


def _digest(raw: bytes) -> str:
    import hashlib  # imported here, as only machine output shows the digest
    return hashlib.sha256(raw).hexdigest()


def _pick_sources(doc: ScenarioDocument, needed: int) -> list[str]:
    names = [named.name for named in doc.dnumbers]
    if len(names) < needed:
        raise _Abort(f"the scenario declares {len(names)} dnumbers; {needed} are needed")
    return names


def _parse_subset_flag(frame: Frame, text: str) -> int:
    labels = [part.strip() for part in text.split(",") if part.strip()]
    if not labels:
        raise _Abort(f"--subset {text!r} names no labels")
    return frame.mask(*labels)


# --- combine --------------------------------------------------------------------


def _cmd_combine(args, doc: ScenarioDocument, raw: bytes) -> int:
    if args.f is not None and args.rule != "dcr2":
        raise _Abort("--f applies to --rule dcr2 only")
    if args.strategy is not None and args.rule != "dcr2":
        raise _Abort("--strategy applies to --rule dcr2 only")
    names = _pick_sources(doc, 2)
    scenario = doc.build()
    ds = list(scenario.dnumbers.values())
    f = aggregator(args.f or "product")
    # A strategy only matters from three sources on; two are combined once.
    strategy = (args.strategy or "fold") if len(ds) > 2 else None
    try:
        report = combine_many(ds, scenario.model, f, strategy or "fold", args.rule)
    except ValueError as exc:
        raise _Abort(str(exc)) from None
    dcr2 = args.rule == "dcr2"
    diag = {
        "q_values": [d.q_value for d in ds],
        # dcr1 shows only K_D and dcr2 neither, although both reports carry K and K_D.
        "k": None if args.rule in ("dcr1", "dcr2") else report.k,
        "k_d": report.k_d if args.rule == "dcr1" else None,
        "d_t_total": report.d_t_total,
        "f": f.name if dcr2 else None,
        "f_value": report.f_value,
        "strategy": strategy if dcr2 else None,
    }
    machine = args.output == "machine"
    inputs = {"dnumbers": names}
    if machine:
        inputs["scenario_sha256"] = _digest(raw)
    report_doc = ReportDocument(
        rule=args.rule,
        weights=tuple(
            (scenario.frame.labels_of(mask), weight)
            for mask, weight in report.result.masses.items()
        ),
        diagnostics=diag,
        inputs=inputs,
    )
    sys.stdout.write(report_doc.to_machine() if machine else report_doc.to_human())
    return EXIT_OK


# --- bel / pl -------------------------------------------------------------------


def _cmd_measure(args, doc: ScenarioDocument, raw: bytes) -> int:
    names = _pick_sources(doc, 1)
    scenario = doc.build()
    source = args.source or names[0]
    if source not in scenario.dnumbers:
        raise _Abort(f"no dnumber named {source!r} (have: {', '.join(names)})")
    d = scenario.dnumbers[source]
    frame = scenario.frame
    if args.subset:
        masks = [_parse_subset_flag(frame, text) for text in args.subset]
    else:
        masks = list(d.focal_sets())
    measure = args.measure
    rows = []
    for mask in masks:
        value = d.belief(mask) if measure == "bel" else d.plausibility(mask)
        rows.append((frame.labels_of(mask), value))
    label = "Bel" if measure == "bel" else "Pl"
    note = "" if d.is_complete() else "; incomplete source: raw sums, not classical bounds"
    lines = [f"source: {source} (Q = {fmt4(d.q_value)}{note})"]
    for labels, value in rows:
        lines.append(f"  {label}({fmt_subset(labels)}) = {fmt4(value)}")
    machine = {
        "measure": measure,
        "source": source,
        "q_value": d.q_value,
        "complete": d.is_complete(),
        "values": [
            {"subset": list(labels), "value": value} for labels, value in rows
        ],
    }
    return _emit(args, "\n".join(lines) + "\n", machine)


# --- qvalue ---------------------------------------------------------------------


def _cmd_qvalue(args, doc: ScenarioDocument, raw: bytes) -> int:
    names = _pick_sources(doc, 1)
    scenario = doc.build()
    lines = []
    entries = []
    for name in names:
        d = scenario.dnumbers[name]
        status = "complete" if d.is_complete() else "incomplete"
        lines.append(f"{name}: Q = {fmt4(d.q_value)} ({status})")
        entries.append(
            {"name": name, "q_value": d.q_value, "complete": d.is_complete()}
        )
    return _emit(args, "\n".join(lines) + "\n", {"dnumbers": entries})


# --- conflict -------------------------------------------------------------------


def _cmd_conflict(args, doc: ScenarioDocument, raw: bytes) -> int:
    names = _pick_sources(doc, 2)[:2]
    scenario = doc.build()
    d1, d2 = (scenario.dnumbers[name] for name in names)
    _, k_d, k = _products(d1, d2, scenario.model._degrees_from)
    human = (
        f"sources: {names[0]}, {names[1]}\n"
        f"K   = {fmt4(k)} (classical global conflict)\n"
        f"K_D = {fmt4(k_d)} (residual conflict under the model)\n"
    )
    machine = {"dnumbers": names, "k": k, "k_d": k_d}
    return _emit(args, human, machine)


# --- matrix ---------------------------------------------------------------------


def _cmd_matrix(args, doc: ScenarioDocument, raw: bytes) -> int:
    frame = doc.build_frame()
    model = doc.build_model(frame)
    # The ranks alone, never the float rows: only the distinct values that
    # some cell holds are formatted, once each, and every row indexes those
    # strings and is written as soon as it is built.
    matrix = model._ranked()
    if args.kind == "exclusive":
        matrix = matrix.complement()
    labels = [frame.labels_of(mask) for mask in matrix.subsets]
    shown, overrides = matrix.shown()
    values = matrix.values
    write = sys.stdout.write
    if args.output == "machine":
        import json  # imported here, as human output never needs it
        # The bytes of json.dumps({"kind", "rows", "subsets"}, sort_keys=True,
        # indent=2) + "\n"; labels may need escapes, so json.dumps them.
        kind = "exclusive" if args.kind == "exclusive" else "nonexclusive"
        table = [repr(v) if r in shown else None for r, v in enumerate(values)]
        write('{\n  "kind": "%s",\n  "rows": [\n' % kind)
        for k, row in enumerate(matrix.rows_as(table, repr)):
            write((",\n" if k else "") + "    [\n      " + ",\n      ".join(row) + "\n    ]")
        write('\n  ],\n  "subsets": [\n')
        write(",\n".join(
            "    [\n      " + ",\n      ".join(map(json.dumps, subset)) + "\n    ]"
            for subset in labels
        ))
        write("\n  ]\n}\n")
        return EXIT_OK
    headers = [fmt_subset(subset) for subset in labels]
    texts = {r: f"{values[r]:g}" for r in shown}
    width = max(map(len, [*headers, *texts.values(), *map("{:g}".format, overrides)]))
    table = [texts[r].rjust(width) if r in texts else None for r in range(len(values))]
    write(" ".join([" " * width] + [h.rjust(width) for h in headers]) + "\n")
    rows = matrix.rows_as(table, lambda d: f"{d:g}".rjust(width))
    for header, row in zip(headers, rows):
        write(header.rjust(width) + " " + " ".join(row) + "\n")
    return EXIT_OK


# --- validate -------------------------------------------------------------------


def _cmd_validate(args, doc: ScenarioDocument, raw: bytes) -> int:
    scenario = doc.build()
    lines = [
        "scenario: OK",
        f"frame: {scenario.frame.size} elements ({', '.join(scenario.frame.labels)})",
    ]
    entries = []
    for name, d in scenario.dnumbers.items():
        status = "complete" if d.is_complete() else "incomplete"
        lines.append(f"dnumber {name}: Q = {fmt4(d.q_value)} ({status})")
        entries.append({"name": name, "q_value": d.q_value, "complete": d.is_complete()})
    lines.append(
        f"model: {len(scenario.model.element_degrees)} element pairs, "
        f"{len(scenario.model.subset_overrides)} overrides"
    )
    machine = {
        "valid": True,
        "frame": list(scenario.frame.labels),
        "dnumbers": entries,
        "element_pairs": len(scenario.model.element_degrees),
        "overrides": len(scenario.model.subset_overrides),
        "f_table": None,
    }
    if args.f_table:
        try:
            with open(args.f_table, "rb") as fh:
                points = parse_f_table(fh.read())
            count = validate_f_points(points)
        except (OSError, FusionError) as exc:
            print(_diag(exc), file=sys.stderr)
            return EXIT_PARSE
        lines.append(f"f-table: OK ({count} points)")
        machine["f_table"] = {"valid": True, "points": count}
    return _emit(args, "\n".join(lines) + "\n", machine)


# --- argument parsing -------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dnumbers",
        description="Combine D numbers and classical mass assignments from scenario files.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p):
        p.add_argument(
            "scenario",
            nargs="?",
            help="scenario file path, or - for standard input (default)",
        )
        p.add_argument(
            "--output",
            choices=("human", "machine"),
            default="human",
            help="report format (machine = deterministic JSON)",
        )
        return p

    def add(name, help_text, **kwargs):
        return add_io(sub.add_parser(name, help=help_text, **kwargs))

    p = add("combine", "combine the scenario's D numbers under a rule")
    p.add_argument("--rule", required=True, choices=tuple(RULES))
    p.add_argument(
        "--f",
        choices=tuple(AGGREGATORS),
        default=None,
        help="completeness aggregator for dcr2 (default: product)",
    )
    p.add_argument(
        "--strategy",
        choices=STRATEGIES,
        default=None,
        help="multi-source strategy for dcr2 with 3+ inputs (default: fold)",
    )
    p.set_defaults(handler=_cmd_combine)

    for measure, help_text in (
        ("bel", "belief of subsets under one source"),
        ("pl", "plausibility of subsets under one source"),
    ):
        p = add(measure, help_text)
        p.add_argument("--source", default=None, help="dnumber name (default: first)")
        p.add_argument(
            "--subset",
            action="append",
            default=None,
            metavar="LABELS",
            help="comma-separated labels; repeatable (default: every focal set)",
        )
        p.set_defaults(handler=_cmd_measure, measure=measure)

    p = add("qvalue", "degree of information completeness of each source")
    p.set_defaults(handler=_cmd_qvalue)

    p = add("conflict", "classical K and residual K_D of the first two sources")
    p.set_defaults(handler=_cmd_conflict)

    p = sub.add_parser("matrix", help="print the subset-pair degree matrix")
    p.add_argument(
        "kind",
        choices=("expand", "exclusive"),
        help="expand: non-exclusive degrees; exclusive: their complement",
    )
    add_io(p)
    p.set_defaults(handler=_cmd_matrix)

    p = add("validate", "check a scenario (and optionally an aggregator table)")
    p.add_argument("--f-table", default=None, help="path to a 'q1 q2 value' sample table")
    p.set_defaults(handler=_cmd_validate)

    return parser


def run_cli(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args, extra = parser.parse_known_args(argv)
        # Some argparse versions (3.11.7, 3.12.1, 3.13.0) leave the optional scenario
        # unset once they read `matrix KIND`, so a file named after `--output` is left over.
        if args.scenario is None and len(extra) == 1 and (extra[0] == "-" or extra[0][:1] != "-"):
            args.scenario = extra.pop()
        if extra:
            parser.error(f"unrecognized arguments: {' '.join(extra)}")
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        raw = _read_scenario(args)
        doc = parse_scenario(raw)
    except (OSError, FusionError) as exc:
        print(_diag(exc), file=sys.stderr)
        return EXIT_PARSE
    try:
        return args.handler(args, doc, raw)
    except (_Abort, FusionError) as exc:
        print(_diag(exc), file=sys.stderr)
        return EXIT_DOMAIN


def main() -> None:
    try:
        code = run_cli()
        sys.stdout.flush()
    except BrokenPipeError:  # the reader closed stdout: end quietly, as SIGPIPE would
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_BROKEN_PIPE
    sys.exit(code)

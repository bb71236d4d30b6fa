"""Command line front end.

Subcommands: combine, bel, pl, qvalue, conflict, matrix, validate.  Each reads
one scenario file (or standard input with ``-``) and prints either a human
report or, with ``--output machine``, deterministic JSON.

Each command returns its report's text and writes nothing; ``run_cli`` alone
writes.  Standard output carries only the report (``matrix`` streams it) or
the help text, and once the arguments are parsed a failure prints exactly one
``error[kind]: message`` line on standard error and nothing on standard output.

Exit codes: 0 success; 1 the scenario or table file is malformed (syntax,
unknown labels, out-of-range values, duplicate pairs); 2 the file is
well-formed but the mathematics rejects it (mass overflow, incomplete inputs
where completeness is required, total conflict, ...), the invocation itself
is unusable, or writing standard output failed (``error[os-error]``, as on a
full disk); 141 (128 + SIGPIPE) the reader closed standard output early.
"""

from __future__ import annotations

import gc
import io
import os
import re
import sys
from collections.abc import Iterator
from contextlib import redirect_stdout
from itertools import chain
from types import SimpleNamespace

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


def _render(args, lines: list[str], machine: dict) -> list[str]:
    """The report as text: the human lines, or the machine record as JSON."""
    if args.output == "machine":
        import json  # imported here, as human output never needs it
        return [json.dumps(machine, sort_keys=True, indent=2) + "\n"]
    return ["\n".join(lines) + "\n"]


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


def _q_rows(dnumbers, prefix: str) -> tuple[list[str], list[dict]]:
    """Each source's human line and machine entry: its Q value and completeness."""
    lines, entries = [], []
    for name, d in dnumbers.items():
        status = "complete" if d.is_complete() else "incomplete"
        lines.append(f"{prefix}{name}: Q = {fmt4(d.q_value)} ({status})")
        entries.append({"name": name, "q_value": d.q_value, "complete": d.is_complete()})
    return lines, entries


def _parse_subset_flag(frame: Frame, text: str) -> int:
    labels = [part.strip() for part in text.split(",") if part.strip()]
    if not labels:
        raise _Abort(f"--subset {text!r} names no labels")
    return frame.mask(*labels)


# --- combine --------------------------------------------------------------------


def _cmd_combine(args, doc: ScenarioDocument, raw: bytes) -> list[str]:
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
    return [report_doc.to_machine() if machine else report_doc.to_human()]


# --- bel / pl -------------------------------------------------------------------


def _cmd_measure(args, doc: ScenarioDocument, raw: bytes) -> list[str]:
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
    return _render(args, lines, machine)


# --- qvalue ---------------------------------------------------------------------


def _cmd_qvalue(args, doc: ScenarioDocument, raw: bytes) -> list[str]:
    _pick_sources(doc, 1)
    lines, entries = _q_rows(doc.build().dnumbers, "")
    return _render(args, lines, {"dnumbers": entries})


# --- conflict -------------------------------------------------------------------


def _cmd_conflict(args, doc: ScenarioDocument, raw: bytes) -> list[str]:
    names = _pick_sources(doc, 2)[:2]
    scenario = doc.build()
    d1, d2 = (scenario.dnumbers[name] for name in names)
    _, k_d, k = _products(d1, d2, scenario.model._degrees_from)
    lines = [
        f"sources: {names[0]}, {names[1]}",
        f"K   = {fmt4(k)} (classical global conflict)",
        f"K_D = {fmt4(k_d)} (residual conflict under the model)",
    ]
    return _render(args, lines, {"dnumbers": names, "k": k, "k_d": k_d})


# --- matrix ---------------------------------------------------------------------


def _cmd_matrix(args, doc: ScenarioDocument, raw: bytes) -> Iterator[str]:
    frame = doc.build_frame()
    model = doc.build_model(frame)
    # The ranks alone, never the float rows: each distinct value is formatted
    # once and every row indexes those strings as it is written; the human
    # table sizes its columns by the values that some cell holds.
    matrix = model._ranked()
    if args.kind == "exclusive":
        matrix = matrix.complement()
    labels = [frame.labels_of(mask) for mask in matrix.subsets]
    values = matrix.values
    if args.output == "machine":
        import json  # imported here, as human output never needs it
        # The bytes of json.dumps({"kind", "rows", "subsets"}, sort_keys=True,
        # indent=2) + "\n"; labels may need escapes, so json.dumps them.
        kind = "exclusive" if args.kind == "exclusive" else "nonexclusive"
        table = list(map(repr, values))
        head = '{\n  "kind": "%s",\n  "rows": [\n' % kind
        rows = (
            (",\n" if k else "") + "    [\n      " + ",\n      ".join(row) + "\n    ]"
            for k, row in enumerate(matrix.rows_as(table, repr))
        )
        tail = '\n  ],\n  "subsets": [\n' + ",\n".join(
            "    [\n      " + ",\n      ".join(map(json.dumps, subset)) + "\n    ]"
            for subset in labels
        ) + "\n  ]\n}\n"
    else:
        headers = [fmt_subset(subset) for subset in labels]
        shown, overrides = matrix.shown()
        texts = {r: f"{values[r]:g}" for r in shown}
        width = max(map(len, [*headers, *texts.values(), *map("{:g}".format, overrides)]))
        table = [texts[r].rjust(width) if r in texts else None for r in range(len(values))]
        head = " ".join([" " * width] + [h.rjust(width) for h in headers]) + "\n"
        rows = (
            header.rjust(width) + " " + " ".join(row) + "\n"
            for header, row in zip(headers, matrix.rows_as(table, lambda d: f"{d:g}".rjust(width)))
        )
        tail = ""
    return chain([head], rows, [tail])


# --- validate -------------------------------------------------------------------


def _cmd_validate(args, doc: ScenarioDocument, raw: bytes) -> list[str]:
    scenario = doc.build()
    rows, entries = _q_rows(scenario.dnumbers, "dnumber ")
    lines = [
        "scenario: OK",
        f"frame: {scenario.frame.size} elements ({', '.join(scenario.frame.labels)})",
        *rows,
        f"model: {len(scenario.model.element_degrees)} element pairs, "
        f"{len(scenario.model.subset_overrides)} overrides",
    ]
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
            exc.exit_code = EXIT_PARSE  # a malformed table exits as a malformed scenario does
            raise
        lines.append(f"f-table: OK ({count} points)")
        machine["f_table"] = {"valid": True, "points": count}
    return _render(args, lines, machine)


# --- argument parsing -------------------------------------------------------------

#: The scenario positional and ``--output``, which every command takes.
_IO = {
    "scenario": {"nargs": "?", "help": "scenario file path, or - for standard input (default)"},
    "--output": {
        "choices": ("human", "machine"),
        "default": "human",
        "help": "report format (machine = deterministic JSON)",
    },
}

#: The arguments of bel and pl.
_MEASURE = {
    **_IO,
    "--source": {"help": "dnumber name (default: first)"},
    "--subset": {
        "action": "append",
        "metavar": "LABELS",
        "help": "comma-separated labels; repeatable (default: every focal set)",
    },
}

#: The CLI's grammar: each command's help text, its ``set_defaults`` values and
#: the ``add_argument`` keywords of its arguments in order.  ``build_parser``
#: builds argparse's parser from it, and ``_plain`` reads plain lines by it.
_COMMANDS = {
    "combine": ("combine the scenario's D numbers under a rule", {"handler": _cmd_combine}, {
        **_IO,
        "--rule": {"required": True, "choices": tuple(RULES)},
        "--f": {
            "choices": tuple(AGGREGATORS),
            "help": "completeness aggregator for dcr2 (default: product)",
        },
        "--strategy": {
            "choices": STRATEGIES,
            "help": "multi-source strategy for dcr2 with 3+ inputs (default: fold)",
        },
    }),
    "bel": ("belief of subsets under one source", {"handler": _cmd_measure, "measure": "bel"}, _MEASURE),
    "pl": ("plausibility of subsets under one source", {"handler": _cmd_measure, "measure": "pl"}, _MEASURE),
    "qvalue": ("degree of information completeness of each source", {"handler": _cmd_qvalue}, _IO),
    "conflict": ("classical K and residual K_D of the first two sources", {"handler": _cmd_conflict}, _IO),
    "matrix": ("print the subset-pair degree matrix", {"handler": _cmd_matrix}, {
        "kind": {
            "choices": ("expand", "exclusive"),
            "help": "expand: non-exclusive degrees; exclusive: their complement",
        },
        **_IO,
    }),
    "validate": ("check a scenario (and optionally an aggregator table)", {"handler": _cmd_validate}, {
        **_IO,
        "--f-table": {"help": "path to a 'q1 q2 value' sample table"},
    }),
}


def build_parser() -> argparse.ArgumentParser:
    import argparse  # imported here, as a plain command line never needs it

    parser = argparse.ArgumentParser(
        prog="dnumbers",
        description="Combine D numbers and classical mass assignments from scenario files.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, defaults, arguments) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for name, keywords in arguments.items():
            p.add_argument(name, **keywords)
        p.set_defaults(**defaults)
    return parser


def _plain(argv: list[str]) -> SimpleNamespace | None:
    """The namespace that ``_parse`` gives a plain command line, without
    argparse's import, build and parse; None for any other line.

    A plain line is a known command, then its positionals in order and exact
    long options, each option followed by a separate value that does not start
    with "-".  Values and positionals lie in their choices, a store option comes
    at most once, ``--subset`` may repeat, and every required argument is
    present.  No other token starts with "-" except "-" itself, so ``-h``,
    ``--``, ``--opt=value`` and abbreviations are left to argparse.
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    _, defaults, arguments = _COMMANDS[argv[0]]
    values = {name: keywords.get("default") for name, keywords in arguments.items()}
    positionals = [name for name in arguments if name[0] != "-"]
    given = set()
    tokens = iter(argv[1:])
    for token in tokens:
        if token[:1] != "-" or token == "-":
            if not positionals:
                return None
            name, value = positionals.pop(0), token
        else:
            name, value = token, next(tokens, "-")  # a missing value reads as one starting with "-"
            if name not in arguments or name in given or value[:1] == "-":
                return None
        keywords = arguments[name]
        if value not in keywords.get("choices", (value,)):
            return None
        if keywords.get("action") == "append":
            values[name] = [*(values[name] or ()), value]
        else:
            given.add(name)
            values[name] = value
    for name, keywords in arguments.items():
        required = keywords.get("required") if name[0] == "-" else "nargs" not in keywords
        if required and name not in given:
            return None
    dests = {name.lstrip("-").replace("-", "_"): value for name, value in values.items()}
    return SimpleNamespace(command=argv[0], **defaults, **dests)


def _parse(argv: list[str]):
    """argparse's namespace for ``argv``; SystemExit after help or a usage error."""
    parser = build_parser()
    args, extra = parser.parse_known_args(argv)
    # Some argparse versions (3.11.7, 3.12.1, 3.13.0) leave the optional scenario
    # unset once they read `matrix KIND`, so a file named after `--output` is left over.
    if args.scenario is None and len(extra) == 1 and (extra[0] == "-" or extra[0][:1] != "-"):
        args.scenario = extra.pop()
    if extra:
        parser.error(f"unrecognized arguments: {' '.join(extra)}")
    return args


def run_cli(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    code = EXIT_PARSE
    try:
        with redirect_stdout(io.StringIO()) as help_text:  # argparse would drop a failed write
            args = _plain(argv) or _parse(argv)
    except SystemExit as exc:
        if exc.code:
            return int(exc.code)
        args, code = None, EXIT_DOMAIN  # --help: its text is the report
    try:
        if args is None:
            sys.stdout.write(help_text.getvalue())
        else:
            raw = _read_scenario(args)
            doc = parse_scenario(raw)
            code = EXIT_DOMAIN
            sys.stdout.writelines(args.handler(args, doc, raw))
        sys.stdout.flush()
    except BrokenPipeError:
        raise  # main() ends quietly, as SIGPIPE would
    except (OSError, _Abort, FusionError) as exc:
        name = type(exc).__name__.lstrip("_")  # OSError reads os-error
        kind = re.sub(r"(?<=[a-z])(?=[A-Z])|(?<=[A-Z])(?=[A-Z][a-z])", "-", name).lower()
        print(f"error[{kind}]: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", code)
    return EXIT_OK


def main() -> None:
    try:
        code = run_cli()
    except BrokenPipeError:  # the reader closed stdout: end quietly, as SIGPIPE would
        code = EXIT_BROKEN_PIPE
    if code:  # what a failed stdout still holds would fail again at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    # The process is ending: the collections at exit would only scan objects
    # that teardown frees anyway.  The atexit handlers still run.
    gc.freeze()
    sys.exit(code)

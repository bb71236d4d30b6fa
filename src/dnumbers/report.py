"""Combination reports: a stable document the CLI renders for humans or machines.

Machine output is JSON with sorted keys and shortest round-trip floats, so
identical inputs always produce byte-identical bytes and consumers recover the
exact computed weights.  Human output rounds to four decimals.
"""

from __future__ import annotations

from math import fsum

from .evidence import Record


def fmt4(v: float) -> str:
    return f"{v:.4f}"


def fmt_subset(labels: tuple[str, ...]) -> str:
    return "{%s}" % ", ".join(labels)


class ReportDocument(Record):
    """What one combination produced: rule, weights, diagnostics, input digests."""

    rule: str
    weights: tuple[tuple[tuple[str, ...], float], ...]
    diagnostics: dict
    inputs: dict

    def to_machine(self) -> str:
        import json  # imported here, as human output never needs it
        payload = {
            "rule": self.rule,
            "weights": [
                {"subset": list(subset), "weight": weight}
                for subset, weight in self.weights
            ],
            "diagnostics": self.diagnostics,
            "inputs": self.inputs,
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"

    def to_human(self) -> str:
        lines = [f"rule: {self.rule}"]
        diag = self.diagnostics
        if diag.get("f") is not None:
            lines.append(f"f: {diag['f']}")
        if diag.get("strategy") is not None:
            lines.append(f"strategy: {diag['strategy']}")
        names = self.inputs.get("dnumbers") or []
        if names:
            lines.append("inputs: " + ", ".join(names))
        q_values = diag.get("q_values")
        if q_values:
            lines.append("Q values: " + ", ".join(fmt4(q) for q in q_values))
        labels = {"k": "K", "k_d": "K_D", "d_t_total": "sum of D_t", "f_value": "f(Q1, Q2)"}
        for key, label in labels.items():
            if diag.get(key) is not None:
                lines.append(f"{label} = {fmt4(diag[key])}")
        lines.append("combined masses:")
        for subset, weight in self.weights:
            lines.append(f"  {fmt_subset(subset)}: {fmt4(weight)}")
        lines.append(f"total mass: {fmt4(fsum(w for _, w in self.weights))}")
        return "\n".join(lines) + "\n"

"""Canonical report documents.

One report schema serves every subcommand: a command echo, the effective
config, a results tree and a PASS/FAIL verdict. A report holds no
wall-clock value and no operation count, so identical (command, flags)
produce byte-identical output; wall-clock belongs on stderr. A document
keeps the values its flow returned; to_json() writes them in one recursive
pass, and render_text() reads only what it prints. Both round floats to 12
significant digits. The JSON bytes equal json.dumps(tree, sort_keys=True,
indent=2) of the canonical tree (see _json_text); with `indent` set,
json.dumps on CPython 3.12 and earlier runs in pure Python, about twice as
slow as this module's writer.

Report keys are the field names of the result dataclasses (ScenarioConfig,
ConstraintResult, SampleTally, CplResult, RelativeFact, ...): the writer
serializes any dataclass field by field. Renaming a field therefore
changes the schema, and the pinned hashes in tests/test_golden.py catch it.

Reports carry measurements, not restatements of them. A sampled tally's
shots, violations and marginal counts are derived from its outcome counts
by its own constructor, and no field only restates others of the same
report (a certification's +1/-1 product split, for one, is gone). Each
stage summary lists only its `changed_facts`: the ledger facts added or
changed in status since the previous stage. Replaying them in stage order
rebuilds the final `ledger`.

That key set is schema 2, but SCHEMA_VERSION still reads "1" and every
JSON report keeps an empty "timing" object: perfbench/oracle.py reads that
key, and perfbench/test_perfbench.py alters a report at the bytes
`"schema_version": "1"`, so both move in the same change as the benchmark.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass, fields, is_dataclass
from functools import lru_cache
from json.encoder import encode_basestring_ascii
from typing import Optional, Sequence

import numpy as np

from .scenarios import (
    MAX_TOLERANCE,
    ScenarioConfig,
    run_cdr,
    run_cdr_suite,
    run_lmz,
)

SCHEMA_VERSION = "1"

# Float reprs that JSON spells differently, as json.dumps writes them.
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def round_float(x: float) -> float:
    """Normalize to 12 significant digits; kills representation jitter
    without hiding real signal at the certified tolerances."""
    return float(f"{float(x):.12g}")


@lru_cache(maxsize=None)
def _field_keys(kind: type):
    """Sorted (name, JSON key text) of a dataclass's fields; None for other
    types and for a dataclass that is also a number, str or container, which
    is written as that. The memo grows with the program's types only."""
    if not is_dataclass(kind) or issubclass(
            kind, (np.generic, float, int, complex, str, dict, list, tuple)):
        return None
    return tuple(sorted(
        (f.name, encode_basestring_ascii(f.name) + ": ") for f in fields(kind)))


def _json_text(value, newline: str) -> str:
    """The JSON of `value` as json.dumps(tree, sort_keys=True, indent=2)
    writes its canonical tree: floats at 12 significant digits, dict keys
    as str, tuples as lists, complex numbers as [re, im], numpy scalars as
    their int or float, dataclasses as objects by field; other types raise
    TypeError. `newline` closes a container at this depth. Each container
    is joined as soon as it is written, so few pieces are alive at once."""
    # Exact types and dataclasses first: they are nearly every value of a
    # report. Subclasses, numpy scalars and complex values are converted to
    # one of the exact types and written again.
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is float:
        text = float.__repr__(round_float(value))
        return _NONFINITE.get(text, text)
    if value is None:
        return "null"
    if kind is bool:
        return "true" if value else "false"
    if kind is int:
        return int.__repr__(value)
    inner = newline + "  "
    if kind is list or kind is tuple:
        items = [_json_text(item, inner) for item in value]
        return f"[{inner}{(',' + inner).join(items)}{newline}]" if items else "[]"
    if kind is dict:
        pairs = {str(k): v for k, v in value.items()}
        items = [f"{encode_basestring_ascii(key)}: {_json_text(pairs[key], inner)}"
                 for key in sorted(pairs)]
        return f"{{{inner}{(',' + inner).join(items)}{newline}}}" if items else "{}"
    keys = _field_keys(kind)
    if keys is not None:
        items = [key + _json_text(getattr(value, name), inner) for name, key in keys]
        return f"{{{inner}{(',' + inner).join(items)}{newline}}}" if items else "{}"
    if isinstance(value, (np.floating, float)):
        return _json_text(float(value), newline)
    if isinstance(value, (np.integer, int)):
        return _json_text(int(value), newline)
    if isinstance(value, complex):
        return _json_text([value.real, value.imag], newline)
    if isinstance(value, str):
        return _json_text(str.__str__(value), newline)
    if isinstance(value, dict):
        return _json_text(dict(value.items()), newline)
    if isinstance(value, (list, tuple)):
        return _json_text(list(value), newline)
    raise TypeError(f"cannot write {kind.__name__} as report JSON")


@dataclass(frozen=True)
class ReportDocument:
    """One report, holding its values as built (result dataclasses
    included) with floats unrounded. Each rendering reads them afresh and
    keeps no copy; callers must not modify them once the document exists."""

    command: str
    config: dict
    results: dict
    verdict: str

    def to_json(self) -> str:
        # perfbench/oracle.py indexes "timing"; the key goes with ROADMAP item 1.
        tree = {"command": self.command, "config": self.config,
                "results": self.results, "verdict": self.verdict,
                "timing": {}, "schema_version": SCHEMA_VERSION}
        return _json_text(tree, "\n") + "\n"


# ScenarioReport fields that are not results: the document carries config
# and passed in their own blocks, and the snapshots and ledger facts go out
# as "stages" and "ledger".
_NOT_RESULTS = ("snapshots", "ledger_facts", "config", "passed")


def _stage_summary(snap, before: tuple = (), limit: int = 8) -> dict:
    """A stage's norm, its `limit` heaviest amplitudes (ties by index) and
    the facts added or changed in status since the facts `before` of the
    previous stage; the full state stays out of the report."""
    statuses = {f.label: f.status for f in before}
    amps = snap.state.amplitudes
    leading = []
    for i in np.argsort(-np.abs(amps) ** 2, kind="stable")[:limit]:
        if abs(amps[i]) <= 1e-9:
            break
        leading.append([int(i), [float(amps[i].real), float(amps[i].imag)]])
    return {
        "index": snap.index,
        "label": snap.label,
        "norm": snap.state.norm(),
        "leading_amplitudes": leading,
        "changed_facts": [
            f for f in snap.facts if statuses.get(f.label) != f.status],
    }


def _scenario_results(report, summaries: dict) -> dict:
    """A flow's results with its stage summaries. `summaries` keeps each
    summary by the identities of its snapshot and of the facts before it,
    so a stage that several reports share is summarized once."""
    body = {f.name: getattr(report, f.name)
            for f in fields(report) if f.name not in _NOT_RESULTS}
    previous = [()] + [s.facts for s in report.snapshots]
    stages = []
    for snap, before in zip(report.snapshots, previous):
        key = (id(snap), id(before))
        if key not in summaries:
            summaries[key] = _stage_summary(snap, before)
        stages.append(summaries[key])
    body["stages"] = stages
    body["ledger"] = report.ledger_facts
    return body


def from_scenario(command: str, report) -> ReportDocument:
    return ReportDocument(
        command=command, config=asdict(report.config),
        results=_scenario_results(report, {}),
        verdict="PASS" if report.passed else "FAIL")


def from_cdr_suite(command: str, reports: Sequence) -> ReportDocument:
    """One document for the four experiments, whose shared opening stages
    are summarized once."""
    summaries: dict = {}
    return ReportDocument(
        command=command,
        config=dict(asdict(reports[0].config), experiment_id="all"),
        results={"experiments": [
            _scenario_results(rep, summaries) for rep in reports]},
        verdict="PASS" if all(rep.passed for rep in reports) else "FAIL")


def from_parity(command: str, analysis: dict, config: dict) -> ReportDocument:
    results = dict(analysis)
    consistent = results.pop("consistent")
    return ReportDocument(
        command=command, config=config, results=results,
        verdict="PASS" if consistent else "FAIL")


def from_verify(command: str, rows: Sequence[dict]) -> ReportDocument:
    all_passed = all(r["passed"] for r in rows)
    return ReportDocument(
        command=command, config={},
        results={"checks": list(rows), "all_passed": all_passed},
        verdict="PASS" if all_passed else "FAIL")


def run_flow(scenario: str, experiment: Optional[str], shots: int,
             seed: int, tolerance: float) -> tuple:
    """(command echo, flow result) for primitive run flags: the list of four
    reports for `cdr --experiment all`, one ScenarioReport otherwise. The
    echo is rebuilt from the flags, so identical flags always yield
    identical echoes."""
    flags = f"--shots {shots} --seed {seed} --tolerance {tolerance:g}"
    if scenario == "lmz":
        return f"run lmz {flags}", run_lmz(ScenarioConfig(
            shots=shots, master_seed=seed, tolerance=tolerance))
    if scenario != "cdr":
        raise ValueError(f"unknown scenario {scenario!r}")
    if experiment == "all":
        return f"run cdr --experiment all {flags}", run_cdr_suite(
            shots=shots, master_seed=seed, tolerance=tolerance)
    exp = int(experiment)
    return f"run cdr --experiment {exp} {flags}", run_cdr(ScenarioConfig(
        bob_mode="cdr-reversal", experiment_id=exp, shots=shots,
        master_seed=seed, tolerance=tolerance))


def build_run_document(scenario: str, experiment: Optional[str], shots: int,
                       seed: int, tolerance: float) -> ReportDocument:
    """Run a scenario from primitive flags and wrap it as a document."""
    command, result = run_flow(scenario, experiment, shots, seed, tolerance)
    if scenario == "cdr" and experiment == "all":
        return from_cdr_suite(command, result)
    return from_scenario(command, result)


def build_check_document(command: str, system, config: dict) -> ReportDocument:
    from .parity import analyze

    return from_parity(command, analyze(system), config)


# -- text rendering -----------------------------------------------------------


def _fmt(value) -> str:
    """A printed value; a float is rounded as in the JSON (round_float)
    before it is printed."""
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        value = round_float(value)
        return f"{value:+.10g}" if value or value == 0 else str(value)
    if isinstance(value, (list, tuple)):
        return ",".join(_fmt(v) for v in value)
    return str(value)


def _table(headers: Sequence[str], rows: Sequence[Sequence]) -> list:
    cells = [[_fmt(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in cells:
        for i, c in enumerate(row):
            widths[i] = max(widths[i], len(c))
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip(),
        "  ".join("-" * w for w in widths),
    ]
    for row in cells:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return lines


def _render_scenario_body(results: dict) -> list:
    lines = []
    constraints = results.get("constraints", [])
    if constraints:
        lines.append("constraint certifications:")
        lines.extend(_table(
            ["id", "kind", "product", "stage", "expected", "expectation",
             "shots", "violations", "certified"],
            [[c.constraint_id, c.kind, "*".join(c.labels), c.stage,
              f"{c.expected:+d}", c.expectation, c.shots,
              c.violations, c.certified] for c in constraints]))
        lines.append("")
    commutation = results.get("commutation") or {}
    if commutation:
        lines.append(
            "commutation: products pairwise "
            + _fmt(commutation["all_products_commute"])
            + ", triples "
            + _fmt(all(commutation["triples_commute"].values()))
            + ", same-pair direct/record anticommute "
            + _fmt(all(r["anticommute"] for r in commutation["same_pair_anticommute"]))
            + ", cross-pair commute "
            + _fmt(commutation["cross_pair_commute"]))
        lines.append("")
    final_certificate = results.get("final_certificate") or []
    if final_certificate:
        lines.append("final-state transported certificate:")
        lines.extend(_table(
            ["id", "observable", "expected", "expectation", "certified"],
            [[e["constraint_id"], e["observable"], f"{e['expected']:+d}",
              e["expectation"], e["certified"]] for e in final_certificate]))
        lines.append("")
    diag = results.get("disturbed_diagnostic")
    if diag:
        lines.append(
            f"disturbed records: {'*'.join(diag['records'])} went from "
            f"{_fmt(diag['early_expectation'])} at {diag['early_stage']} to "
            f"{_fmt(diag['final_expectation'])} at the final stage "
            f"(gap {_fmt(diag['gap'])}, exceeds {MAX_TOLERANCE:g}: "
            f"{_fmt(diag['gap_exceeds_half'])})")
        lines.append("")
    restoration = results.get("restoration")
    if restoration:
        if restoration["kind"] == "full":
            lines.append(
                f"restoration: full register, fidelity {_fmt(restoration['fidelity'])},"
                f" restored {_fmt(restoration['restored'])}")
        else:
            lines.append(
                f"restoration: memory qubit {restoration['memory_qubit']},"
                f" purity {_fmt(restoration['purity'])},"
                f" excitation {_fmt(restoration['excitation'])},"
                f" restored {_fmt(restoration['restored'])}")
        lines.append("")
    coexisting = results.get("coexisting_records")
    if coexisting:
        lines.append(
            "coexisting records: " + ",".join(coexisting["current"])
            + " (match constraint: "
            + _fmt(coexisting["records_match_constraint"]) + ")")
        lines.append("")
    cpl = results.get("cpl")
    if cpl:
        lines.append("record-agreement premise:")
        lines.append(
            f"  intact: expectation {_fmt(cpl.intact_expectation)},"
            f" matches {cpl.intact_matches}/{cpl.shots}")
        lines.append(
            f"  after {cpl.disturbance_label}:"
            f" expectation {_fmt(cpl.disturbed_expectation)},"
            f" matches {cpl.disturbed_matches}/{cpl.shots}")
        lines.append(
            f"  same-time product stays {_fmt(cpl.operator_product_after)};"
            f" premise certified {_fmt(cpl.premise_certified)},"
            f" violation demonstrated {_fmt(cpl.violation_demonstrated)}")
        lines.append("")
    sampling = results.get("sampling", [])
    if sampling:
        lines.append("sampled record products:")
        lines.extend(_table(
            ["target", "stage", "records", "expected", "shots", "violations",
             "marginals in band"],
            [[t.target, t.stage, "*".join(t.record_labels),
              f"{t.expected_product:+d}", t.shots, t.violations,
              all(m.within_band for m in t.marginals)] for t in sampling]))
        lines.append("")
    return lines


def render_text(doc: ReportDocument) -> str:
    lines = [
        f"command: {doc.command}",
        f"verdict: {doc.verdict}",
    ]
    if doc.config:
        config_items = ", ".join(
            f"{k}={_fmt(v)}" for k, v in sorted(doc.config.items()))
        lines.append(f"config: {config_items}")
    lines.append("")
    results = doc.results
    if "experiments" in results:
        for body in results["experiments"]:
            lines.append(
                f"=== experiment {body['experiment_id']} ===")
            lines.extend(_render_scenario_body(body))
    elif "checks" in results:
        lines.append("acceptance checks:")
        lines.extend(_table(
            ["#", "claim", "status"],
            [[r["id"], r["claim"], "PASS" if r["passed"] else "FAIL"]
             for r in results["checks"]]))
        lines.append("")
        for r in results["checks"]:
            if r.get("detail"):
                lines.append(f"  [{r['id']}] {r['detail']}")
        lines.append("")
    elif "solve" in results:
        constraints = results["system"]["constraints"]
        lines.append("constraints:" if constraints else "constraints: none")
        for i, text in enumerate(constraints, 1):
            lines.append(f"  ({i}) {text}")
        solve = results["solve"]
        lines.append("")
        if solve["satisfiable"]:
            witness = " ".join(
                f"{k}={v:+d}" for k, v in sorted(solve["witness"].items())
            ) or "(empty assignment)"
            lines.append(
                f"satisfiable: yes ({solve['num_solutions']} of "
                f"{results['enumeration']['tested'] if results.get('enumeration') else 2 ** len(results['system']['universe'])}"
                f" assignments)")
            lines.append(f"witness: {witness}")
        else:
            lines.append("satisfiable: no")
            if solve["certificate"]:
                subset = ",".join(str(i) for i in solve["certificate"])
                lines.append(
                    f"certificate: constraints {{{subset}}} multiply to the "
                    "contradiction 1 = -1")
            else:
                lines.append("certificate: none")
        identity = results["product_identity"]
        residual = "*".join(identity["residual_variables"]) or "1"
        lines.append(
            f"product of all constraints: {residual} = "
            f"{'+1' if identity['rhs'] == 1 else '-1'}"
            + ("  <- contradiction" if identity["is_contradiction"] else ""))
        enumeration = results.get("enumeration")
        if enumeration:
            lines.append(
                f"enumeration: {enumeration['count']} of {enumeration['tested']}"
                " assignments satisfy every constraint")
        lines.append("")
    else:
        lines.extend(_render_scenario_body(results))
    return "\n".join(lines).rstrip("\n") + "\n"

"""Canonical report documents.

One report schema serves every subcommand: a command echo, the effective
config, a results tree, a PASS/FAIL verdict, and a timing block. Timing is
deterministic operation counting, never wall-clock, so that identical
(command, flags) produce byte-identical output; wall-clock belongs on
stderr. Floats are normalized to 12 significant digits, and the JSON bytes
equal json.dumps(tree, sort_keys=True, indent=2) of the canonical tree.
They come from one recursive writer in this module: with `indent` set,
json.dumps on CPython 3.12 and earlier leaves its C encoder for the
pure-Python one, which takes about twice as long on a report.

Report keys are the field names of the result dataclasses (ScenarioConfig,
OperationCounters, ConstraintResult, SampleTally, CplResult, RelativeFact,
...): canonicalize serializes any dataclass field by field. Renaming a field
therefore changes the schema, and the pinned hashes in tests/test_golden.py
catch it.

Reports carry measurements, not restatements of them. A sampled tally's
shots, violations and marginal counts are derived from its outcome counts
by its own constructor, and no field only restates others of the same
report (a certification's +1/-1 product split, for one, is gone). Each
stage summary lists only its `changed_facts`: the ledger facts added or
changed in status since the previous stage. Replaying them in stage order
rebuilds the final `ledger`.

That key set is schema 2, but SCHEMA_VERSION still reads "1":
perfbench/test_perfbench.py alters a report at the bytes
`"schema_version": "1"`, so the version moves to "2" in the same change
as that test.
"""
from __future__ import annotations

from dataclasses import dataclass, fields, is_dataclass
from functools import cached_property, lru_cache
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

_INFINITY = float("inf")


def round_float(x: float) -> float:
    """Normalize to 12 significant digits; kills representation jitter
    without hiding real signal at the certified tolerances."""
    return float(f"{float(x):.12g}")


def canonicalize(value):
    """Recursively convert to canonical JSON-ready primitives."""
    # Exact types first: they are nearly every value of a report. Their
    # subclasses, numpy scalars and complex values take the isinstance rules.
    kind = type(value)
    if kind is float:
        return round_float(value)
    if kind is str or kind is int or kind is bool or value is None:
        return value
    if kind is dict:
        return {str(k): canonicalize(v) for k, v in value.items()}
    if kind is list or kind is tuple:
        return [canonicalize(v) for v in value]
    if isinstance(value, (np.floating, float)):
        return round_float(float(value))
    if isinstance(value, (np.integer, int)):
        return int(value)
    if isinstance(value, complex):
        return [round_float(value.real), round_float(value.imag)]
    if isinstance(value, str):
        return value
    if isinstance(value, dict):
        return {str(k): canonicalize(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [canonicalize(v) for v in value]
    names = _field_names(kind)
    if names is not None:
        return {name: canonicalize(getattr(value, name)) for name in names}
    raise TypeError(f"cannot canonicalize {type(value).__name__}")


@lru_cache(maxsize=None)
def _field_names(kind: type):
    """A dataclass's field names in declaration order; None for any other
    type. Keyed by class, so the memo grows with the program's types only."""
    return tuple(f.name for f in fields(kind)) if is_dataclass(kind) else None


def _json_text(value, newline: str) -> str:
    """The JSON of a canonical tree, as json.dumps(value, sort_keys=True,
    indent=2) writes it; `newline` is the line break and indent that close
    a container at this depth. Each container is joined as soon as it is
    written, so few pieces are alive at once."""
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is float:
        if value != value:
            return "NaN"
        if value == _INFINITY:
            return "Infinity"
        if value == -_INFINITY:
            return "-Infinity"
        return float.__repr__(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if kind is int:
        return int.__repr__(value)
    if kind is dict:
        if not value:
            return "{}"
        inner = newline + "  "
        items = [f"{encode_basestring_ascii(key)}: {_json_text(value[key], inner)}"
                 for key in sorted(value)]
        return f"{{{inner}{(',' + inner).join(items)}{newline}}}"
    if kind is list:
        if not value:
            return "[]"
        inner = newline + "  "
        items = [_json_text(item, inner) for item in value]
        return f"[{inner}{(',' + inner).join(items)}{newline}]"
    raise TypeError(f"not a canonical JSON value: {kind.__name__}")


@dataclass(frozen=True)
class ReportDocument:
    """One report. The results tree may still hold result dataclasses;
    as_dict() canonicalizes the whole document, once per document, and
    returns that same tree on every call, for to_json() and render_text()
    alike. Callers must not modify it."""

    command: str
    config: dict
    results: dict
    verdict: str
    timing: dict

    @cached_property
    def _canonical(self) -> dict:
        return dict(canonicalize(self), schema_version=SCHEMA_VERSION)

    def as_dict(self) -> dict:
        return self._canonical

    def to_json(self) -> str:
        return _json_text(self.as_dict(), "\n") + "\n"


# ScenarioReport fields that are not results: the document carries config,
# counters and passed in their own blocks, and the snapshots and ledger facts
# go out as "stages" and "ledger".
_NOT_RESULTS = ("snapshots", "ledger_facts", "config", "counters", "passed")


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


def _scenario_results(report) -> dict:
    body = {f.name: getattr(report, f.name)
            for f in fields(report) if f.name not in _NOT_RESULTS}
    previous = [()] + [s.facts for s in report.snapshots]
    body["stages"] = [
        _stage_summary(s, before) for s, before in zip(report.snapshots, previous)]
    body["ledger"] = report.ledger_facts
    return body


def from_scenario(command: str, report) -> ReportDocument:
    return ReportDocument(
        command=command, config=canonicalize(report.config),
        results=_scenario_results(report),
        verdict="PASS" if report.passed else "FAIL",
        timing=canonicalize(report.counters))


def from_cdr_suite(command: str, reports: Sequence) -> ReportDocument:
    config = {}
    timing: dict = {}
    for rep in reports:
        config = config or dict(canonicalize(rep.config), experiment_id="all")
        for f in fields(rep.counters):
            timing[f.name] = timing.get(f.name, 0) + getattr(rep.counters, f.name)
    return ReportDocument(
        command=command, config=config,
        results={"experiments": [_scenario_results(rep) for rep in reports]},
        verdict="PASS" if all(rep.passed for rep in reports) else "FAIL",
        timing=timing)


def from_parity(command: str, analysis: dict, config: dict) -> ReportDocument:
    results = dict(analysis)
    consistent = results.pop("consistent")
    timing = results.pop("timing")
    return ReportDocument(
        command=command, config=config, results=results,
        verdict="PASS" if consistent else "FAIL", timing=timing)


def from_verify(command: str, rows: Sequence[dict]) -> ReportDocument:
    all_passed = all(r["passed"] for r in rows)
    return ReportDocument(
        command=command, config={},
        results={"checks": list(rows), "all_passed": all_passed},
        verdict="PASS" if all_passed else "FAIL",
        timing={"checks_run": len(rows)})


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
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
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
            [[c["constraint_id"], c["kind"], "*".join(c["labels"]), c["stage"],
              f"{c['expected']:+d}", c["expectation"], c["shots"],
              c["violations"], c["certified"]] for c in constraints]))
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
            f"  intact: expectation {_fmt(cpl['intact_expectation'])},"
            f" matches {cpl['intact_matches']}/{cpl['shots']}")
        lines.append(
            f"  after {cpl['disturbance_label']}:"
            f" expectation {_fmt(cpl['disturbed_expectation'])},"
            f" matches {cpl['disturbed_matches']}/{cpl['shots']}")
        lines.append(
            f"  same-time product stays {_fmt(cpl['operator_product_after'])};"
            f" premise certified {_fmt(cpl['premise_certified'])},"
            f" violation demonstrated {_fmt(cpl['violation_demonstrated'])}")
        lines.append("")
    sampling = results.get("sampling", [])
    if sampling:
        lines.append("sampled record products:")
        lines.extend(_table(
            ["target", "stage", "records", "expected", "shots", "violations",
             "marginals in band"],
            [[t["target"], t["stage"], "*".join(t["record_labels"]),
              f"{t['expected_product']:+d}", t["shots"], t["violations"],
              all(m["within_band"] for m in t["marginals"])] for t in sampling]))
        lines.append("")
    return lines


def render_text(doc: ReportDocument) -> str:
    data = doc.as_dict()
    lines = [
        f"command: {data['command']}",
        f"verdict: {data['verdict']}",
    ]
    if data["config"]:
        config_items = ", ".join(
            f"{k}={_fmt(v)}" for k, v in sorted(data["config"].items()))
        lines.append(f"config: {config_items}")
    lines.append("")
    results = data["results"]
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
    timing_items = ", ".join(
        f"{k}={v}" for k, v in sorted(data["timing"].items()))
    lines.append(f"timing: {timing_items}")
    return "\n".join(lines) + "\n"

"""Canonical report documents.

One report schema serves every subcommand: a command echo, the effective
config, a results tree and a PASS/FAIL verdict. `run` and
`check-assignments` each have one builder here (build_run_document,
build_check_document), which the CLI and verify's evidence both call, so
`verify` judges the bytes the CLI prints. A report holds no
wall-clock value and no operation count, so identical (command, flags)
produce byte-identical output; wall-clock belongs on stderr. A document
keeps the values its flow returned; to_json() writes them in one recursive
pass, and render_text() reads only what it prints. Both round floats to 12
significant digits. Every report value has an exact type (ScenarioConfig
makes outside numbers exact once), and the writer raises TypeError on any
other. The JSON bytes equal json.dumps(tree, sort_keys=True, indent=2) of
the canonical tree (see _json_text); with `indent` set, json.dumps on
CPython 3.12 and earlier runs in pure Python, about twice as slow as this
module's writer.

Report keys are the field names of the result dataclasses (ScenarioConfig,
ConstraintResult, SampleTally, RelativeFact, the lmz flow's LmzReport with
its CommutationSurvey, TransportedCertificate, DisturbedDiagnostic and
CplResult, the cdr flow's CdrReport with its FullRestoration or
MemoryRestoration and CoexistingRecords, ...): the writer serializes any
dataclass field by field. Renaming a field therefore changes the schema,
and the pinned hashes in tests/test_golden.py catch it.

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

import io
import shlex
from dataclasses import asdict, dataclass, fields, is_dataclass
from functools import lru_cache
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import parity
from .errors import ResourceError
from .scenarios import (
    MAX_TOLERANCE,
    ScenarioConfig,
    run_cdr,
    run_cdr_suite,
    run_lmz,
)

SCHEMA_VERSION = "1"
CONSTRAINT_FILE_MAX_BYTES = 1 << 18

# Float reprs that JSON spells differently, as json.dumps writes them.
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def round_float(x: float) -> float:
    """Normalize to 12 significant digits; kills representation jitter
    without hiding real signal at the certified tolerances."""
    return float(f"{float(x):.12g}")


@lru_cache(maxsize=None)
def _field_keys(kind: type):
    """Sorted (name, JSON key text) of a dataclass's fields; None for other
    types. The memo grows with the program's types only."""
    if not is_dataclass(kind):
        return None
    return tuple(sorted(
        (f.name, encode_basestring_ascii(f.name) + ": ") for f in fields(kind)))


def _json_text(value, newline: str) -> str:
    """The JSON of `value` as json.dumps(tree, sort_keys=True, indent=2)
    writes its canonical tree: floats at 12 significant digits, tuples as
    lists, dataclasses as objects by field. Types match exactly: str, float,
    None, bool, int, list, tuple, dict with str keys and dataclasses; any
    other, a numpy scalar, complex or subclass included, raises TypeError.
    `newline` closes a container at this depth. Each container is joined
    as soon as it is written, so few pieces are alive at once."""
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
        items = [f"{encode_basestring_ascii(key)}: {_json_text(value[key], inner)}"
                 for key in sorted(value)]
        return f"{{{inner}{(',' + inner).join(items)}{newline}}}" if items else "{}"
    keys = _field_keys(kind)
    if keys is not None:
        items = [key + _json_text(getattr(value, name), inner) for name, key in keys]
        return f"{{{inner}{(',' + inner).join(items)}{newline}}}" if items else "{}"
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
# and passed in their own blocks, and the snapshots go out as "stages",
# with the last one's facts as "ledger".
_NOT_RESULTS = ("snapshots", "config", "passed")


def _stage_summary(snap, before: tuple = (), limit: int = 8) -> dict:
    """A stage's norm, its `limit` heaviest amplitudes (ties by index) and
    the facts added or changed in status since the facts `before` of the
    previous stage; the full state stays out of the report."""
    statuses = {f.label: f.status for f in before}
    amps = snap.state.amplitudes
    # Only amplitudes above 1e-9 are listed, so only they are ranked: a
    # stable sort of that ascending subset keeps the ties in index order.
    mags = np.abs(amps)
    kept = np.flatnonzero(mags > 1e-9)
    leading = [[int(i), [float(amps[i].real), float(amps[i].imag)]]
               for i in kept[np.argsort(-mags[kept] ** 2, kind="stable")[:limit]]]
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
    body["ledger"] = report.snapshots[-1].facts
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


def build_run_document(scenario: str, experiment: Optional[str], shots: int,
                       seed: int, tolerance: float) -> tuple:
    """(flow result, document) of `run` from its flags: an LmzReport, a
    CdrReport, or the list of four for `cdr --experiment all`. The echo is
    rebuilt from the config, whose exact numbers (numpy flags too) rerun to
    the same report. A flag combination the CLI rejects raises ValueError
    with its message, as do ScenarioConfig's range checks."""
    if scenario not in ("lmz", "cdr"):
        raise ValueError(f"unknown scenario {scenario!r}")
    if scenario == "lmz" and experiment is not None:
        raise ValueError("--experiment applies only to the cdr scenario")
    if scenario == "cdr" and experiment is None:
        raise ValueError("the cdr scenario needs --experiment {1,2,3,4,all}")
    config = ScenarioConfig(
        experiment_id=None if experiment in (None, "all") else int(experiment),
        shots=shots, master_seed=seed, tolerance=tolerance)
    shots, seed, tolerance = config.shots, config.master_seed, config.tolerance
    flags = f"--shots {shots} --seed {seed} --tolerance {tolerance!r}"
    if scenario == "lmz":
        report = run_lmz(config)
        return report, from_scenario(f"run lmz {flags}", report)
    if experiment == "all":
        reports = run_cdr_suite(shots=shots, master_seed=seed, tolerance=tolerance)
        return reports, from_cdr_suite(f"run cdr --experiment all {flags}", reports)
    report = run_cdr(config)
    return report, from_scenario(
        f"run cdr --experiment {config.experiment_id} {flags}", report)


def _read_capped(path: Path) -> bytes:
    """The first CONSTRAINT_FILE_MAX_BYTES + 1 bytes of a file, or all of a
    shorter one. It reads in buffer-sized chunks, since one read of the
    whole cap would allocate the cap however short the file is, and never
    asks the file its size, which a FIFO or a device does not know."""
    chunks, left = [], CONSTRAINT_FILE_MAX_BYTES + 1
    with path.open("rb") as file:
        while left and (chunk := file.read(min(left, io.DEFAULT_BUFFER_SIZE))):
            chunks.append(chunk)
            left -= len(chunk)
    return b"".join(chunks)


def build_check_document(builtin: Optional[str],
                         constraints: Optional[Path]) -> tuple:
    """(parity analysis, document) of `check-assignments` for exactly one of
    a builtin system's name and a constraint file's path. A bad flag
    combination, an unknown builtin or an unreadable file raises
    ValueError, as does a malformed file (ConstraintParseError). The file
    is read as UTF-8, and at most CONSTRAINT_FILE_MAX_BYTES + 1 bytes of it,
    so a longer file or an endless stream raises ResourceError. The echo
    quotes the path as a shell would need it (shlex.quote), so it parses
    back to the same path."""
    if (constraints is None) == (builtin is None):
        raise ValueError("give exactly one of --constraints PATH or --builtin NAME")
    if builtin is not None:
        if builtin != "ghz":
            raise ValueError(f"unknown builtin system {builtin!r}")
        system = parity.ghz_record_system()
        command, config = "check-assignments --builtin ghz", {"builtin": "ghz"}
    else:
        path = Path(constraints)
        try:
            data = _read_capped(path)
        except OSError as exc:
            raise ValueError(f"cannot read {path}: {exc}") from exc
        if len(data) > CONSTRAINT_FILE_MAX_BYTES:
            raise ResourceError(
                f"{path} is longer than the {CONSTRAINT_FILE_MAX_BYTES}-byte "
                "constraint file guard")
        system = parity.parse_constraints(data.decode())
        command = f"check-assignments --constraints {shlex.quote(str(path))}"
        config = {"constraints_path": str(path)}
    analysis = parity.analyze(system)
    return analysis, from_parity(command, analysis, config)


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
    commutation = results.get("commutation")
    if commutation:
        lines.append(
            f"commutation: products pairwise {_fmt(commutation.all_products_commute)},"
            f" triples {_fmt(all(commutation.triples_commute.values()))},"
            " same-pair direct/record anticommute"
            f" {_fmt(all(r.anticommute for r in commutation.same_pair_anticommute))},"
            f" cross-pair commute {_fmt(commutation.cross_pair_commute)}")
        lines.append("")
    final_certificate = results.get("final_certificate")
    if final_certificate:
        lines.append("final-state transported certificate:")
        lines.extend(_table(
            ["id", "observable", "expected", "expectation", "certified"],
            [[e.constraint_id, e.observable, f"{e.expected:+d}",
              e.expectation, e.certified] for e in final_certificate]))
        lines.append("")
    diag = results.get("disturbed_diagnostic")
    if diag:
        lines.append(
            f"disturbed records: {'*'.join(diag.records)} went from "
            f"{_fmt(diag.early_expectation)} at {diag.early_stage} to "
            f"{_fmt(diag.final_expectation)} at the final stage "
            f"(gap {_fmt(diag.gap)}, exceeds {MAX_TOLERANCE:g}: "
            f"{_fmt(diag.gap_exceeds_half)})")
        lines.append("")
    restoration = results.get("restoration")
    if restoration:
        if restoration.kind == "full":
            lines.append(
                f"restoration: full register, fidelity {_fmt(restoration.fidelity)},"
                f" restored {_fmt(restoration.restored)}")
        else:
            lines.append(
                f"restoration: memory qubit {restoration.memory_qubit},"
                f" purity {_fmt(restoration.purity)},"
                f" excitation {_fmt(restoration.excitation)},"
                f" restored {_fmt(restoration.restored)}")
        lines.append("")
    coexisting = results.get("coexisting_records")
    if coexisting:
        lines.append(
            "coexisting records: " + ",".join(coexisting.current)
            + " (match constraint: "
            + _fmt(coexisting.records_match_constraint) + ")")
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
                f"=== experiment {body['constraints'][0].constraint_id} ===")
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
        solve, enumeration = results["solve"], results["enumeration"]
        lines.append("")
        if solve.satisfiable:
            witness = "none" if solve.witness is None else " ".join(
                f"{k}={v:+d}" for k, v in sorted(solve.witness.items())
            ) or "(empty assignment)"
            tested = (enumeration.tested if enumeration
                      else 2 ** len(results["system"]["universe"]))
            lines.append(
                f"satisfiable: yes ({solve.num_solutions} of {tested} assignments)")
            lines.append(f"witness: {witness}")
        else:
            lines.append("satisfiable: no")
            if solve.certificate:
                subset = ",".join(str(i) for i in solve.certificate)
                lines.append(
                    f"certificate: constraints {{{subset}}} multiply to the "
                    "contradiction 1 = -1")
            else:
                lines.append("certificate: none")
        identity = results["product_identity"]
        residual = "*".join(identity.residual_variables) or "1"
        lines.append(
            f"product of all constraints: {residual} = "
            f"{'+1' if identity.rhs == 1 else '-1'}"
            + ("  <- contradiction" if identity.is_contradiction else ""))
        if enumeration:
            lines.append(
                f"enumeration: {enumeration.count} of {enumeration.tested}"
                " assignments satisfy every constraint")
        lines.append("")
    else:
        lines.extend(_render_scenario_body(results))
    return "\n".join(lines).rstrip("\n") + "\n"

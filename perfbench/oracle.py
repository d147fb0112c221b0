"""Output oracle for benchmark commands, written without importing relfacts.

Every check restates the claim from first principles: the four record
products are (+1, -1, -1, -1), sampled shots never violate them, a parity
witness satisfies the constraints the benchmark generated, and a parity
certificate multiplies to 1 = -1 when the benchmark multiplies it. JSON and
text reports are both read. A command is also checked against earlier runs
of the identical argv: the output bytes must repeat exactly.
"""
from __future__ import annotations

import hashlib
import json
import re

EXPECTED_PRODUCTS = {1: 1, 2: -1, 3: -1, 4: -1}
PRODUCT_TOL = 1e-9
VERIFY_CHECKS = 10
EXIT_PASS = 0


class OracleError(Exception):
    """The output contradicts what the command must produce."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise OracleError(message)


def _expected_rows(experiment) -> set:
    if experiment is None or experiment == "all":
        ids = EXPECTED_PRODUCTS
    else:
        ids = (int(experiment),)
    return {(i, kind) for i in ids for kind in ("operator", "record")}


def _check_constraint_rows(rows, experiment, shots: int) -> None:
    """rows: (constraint_id, kind, expected, expectation, shots, violations,
    certified) per certification in the report."""
    seen = set()
    for cid, kind, expected, value, row_shots, violations, certified in rows:
        _require(cid in EXPECTED_PRODUCTS, f"unknown constraint id {cid}")
        want = EXPECTED_PRODUCTS[cid]
        _require(expected == want, f"constraint {cid} expects {expected:+d}, not {want:+d}")
        _require(abs(value - want) <= PRODUCT_TOL,
                 f"constraint {cid} {kind} product {value!r} is not {want:+d}")
        _require(violations == 0, f"constraint {cid} {kind}: {violations} violations")
        _require(certified, f"constraint {cid} {kind} is not certified")
        if kind == "record":
            _require(row_shots == shots,
                     f"constraint {cid} record: {row_shots} shots, {shots} requested")
        seen.add((cid, kind))
    missing = _expected_rows(experiment) - seen
    _require(not missing, f"certifications missing: {sorted(missing)}")


def _check_run_json(doc: dict, expect: dict) -> int:
    _require(doc["verdict"] == "PASS", f"verdict {doc['verdict']}")
    shots = expect["shots"]
    results = doc["results"]
    bodies = results["experiments"] if "experiments" in results else [results]
    rows = []
    for body in bodies:
        rows += [(c["constraint_id"], c["kind"], c["expected"], c["expectation"],
                  c["shots"], c["violations"], c["certified"]) for c in body["constraints"]]
        for target in body["sampling"]:
            _require(target["shots"] == shots,
                     f"{target['target']}: {target['shots']} shots, {shots} requested")
            _require(target["violations"] == 0,
                     f"{target['target']}: {target['violations']} violations")
        cpl = body.get("cpl")
        if cpl:
            _require(cpl["shots"] == shots and cpl["intact_matches"] == shots,
                     f"record agreement: {cpl['intact_matches']}/{cpl['shots']} shots")
    _check_constraint_rows(rows, expect["experiment"], shots)
    return int(doc["timing"].get("sampled_shots", 0))


_TABLE_DASHES = re.compile(r"^-+(  -+)+$")


def _tables(text: str, title: str) -> list:
    """Rows (as whitespace-split cells) of every table under `title`."""
    rows = []
    lines = text.splitlines()
    for i, line in enumerate(lines):
        if line != title:
            continue
        _require(i + 2 < len(lines) and _TABLE_DASHES.match(lines[i + 2]),
                 f"malformed table under {title!r}")
        for row in lines[i + 3:]:
            if not row.strip():
                break
            rows.append(row.split())
    return rows


def _verdict_line(text: str) -> str:
    match = re.search(r"^verdict: (\S+)$", text, re.M)
    _require(match is not None, "no verdict line")
    return match.group(1)


def _check_run_text(text: str, expect: dict) -> int:
    _require(_verdict_line(text) == "PASS", f"verdict {_verdict_line(text)}")
    shots = expect["shots"]
    rows = []
    for cells in _tables(text, "constraint certifications:"):
        _require(len(cells) == 9, f"constraint row {cells}")
        cid, kind, _product, _stage, expected, value, row_shots, violations, certified = cells
        rows.append((int(cid), kind, int(expected), float(value), int(row_shots),
                     int(violations), certified == "yes"))
    _check_constraint_rows(rows, expect["experiment"], shots)
    for cells in _tables(text, "sampled record products:"):
        _require(len(cells) == 7, f"sampling row {cells}")
        _require(int(cells[4]) == shots, f"{cells[0]}: {cells[4]} shots, {shots} requested")
        _require(int(cells[5]) == 0, f"{cells[0]}: {cells[5]} violations")
    for matches, total in re.findall(r"^  intact: .*, matches (\d+)/(\d+)$", text, re.M):
        _require(int(matches) == int(total) == shots,
                 f"record agreement: {matches}/{total} shots")
    match = re.search(r"^timing: .*\bsampled_shots=(\d+)", text, re.M)
    return int(match.group(1)) if match else 0


def _check_witness(constraints, witness: dict) -> None:
    for variables, rhs in constraints:
        product = 1
        for v in variables:
            value = witness.get(v)
            _require(value in (1, -1), f"witness gives {v} = {value!r}")
            product *= value
        _require(product == rhs,
                 f"witness breaks {'*'.join(variables)} = {rhs:+d}")


def _check_certificate(constraints, subset) -> None:
    _require(len(subset) > 0, "empty certificate")
    odd: set = set()
    sign = 1
    for index in subset:
        _require(1 <= index <= len(constraints), f"certificate index {index} out of range")
        variables, rhs = constraints[index - 1]
        odd.symmetric_difference_update(variables)
        sign *= rhs
    _require(not odd and sign == -1,
             f"certificate {list(subset)} multiplies to {'*'.join(sorted(odd)) or '1'} = {sign:+d}")


def _check_parity(expect: dict, verdict: str, satisfiable: bool, witness, certificate) -> None:
    _require(verdict == "PASS", f"verdict {verdict}")
    planted = expect["satisfiable"]
    _require(satisfiable == planted,
             f"reported {'SAT' if satisfiable else 'UNSAT'}, planted {'SAT' if planted else 'UNSAT'}")
    if satisfiable:
        _require(witness is not None, "satisfiable without a witness")
        _check_witness(expect["constraints"], witness)
    else:
        _require(certificate is not None, "unsatisfiable without a certificate")
        _check_certificate(expect["constraints"], certificate)


def _check_parity_json(doc: dict, expect: dict) -> int:
    solve = doc["results"]["solve"]
    _check_parity(expect, doc["verdict"], solve["satisfiable"],
                  solve["witness"], solve["certificate"])
    return 0


def _check_parity_text(text: str, expect: dict) -> int:
    match = re.search(r"^satisfiable: (yes|no)\b", text, re.M)
    _require(match is not None, "no satisfiable line")
    witness = certificate = None
    found = re.search(r"^witness: (.*)$", text, re.M)
    if found:
        witness = {}
        for item in found.group(1).split():
            name, value = item.split("=")
            witness[name] = int(value)
    found = re.search(r"^certificate: constraints \{([\d,]*)\}", text, re.M)
    if found:
        certificate = [int(i) for i in found.group(1).split(",") if i]
    _check_parity(expect, _verdict_line(text), match.group(1) == "yes", witness, certificate)
    return 0


def _check_verify_rows(verdict: str, rows) -> None:
    _require(verdict == "PASS", f"verdict {verdict}")
    ids = [i for i, _ in rows]
    _require(ids == list(range(1, VERIFY_CHECKS + 1)), f"check ids {ids}")
    failed = [i for i, passed in rows if not passed]
    _require(not failed, f"checks failed: {failed}")


def _check_verify_json(doc: dict, expect: dict) -> int:
    _check_verify_rows(doc["verdict"], [(r["id"], r["passed"]) for r in doc["results"]["checks"]])
    return 0


def _check_verify_text(text: str, expect: dict) -> int:
    rows = [(int(cells[0]), cells[-1] == "PASS") for cells in _tables(text, "acceptance checks:")]
    _check_verify_rows(_verdict_line(text), rows)
    return 0


_CHECKERS = {
    ("run", "json"): _check_run_json, ("run", "text"): _check_run_text,
    ("check", "json"): _check_parity_json, ("check", "text"): _check_parity_text,
    ("verify", "json"): _check_verify_json, ("verify", "text"): _check_verify_text,
}


class OutputOracle:
    """Checks each command's exit code and report, and that an argv seen
    before gives the same bytes again."""

    def __init__(self):
        self._digests = {}

    def check(self, command, exit_code, output) -> int:
        """Raise OracleError if the output is wrong; return the sampled
        shots the report accounts for (0 when nothing was sampled)."""
        _require(exit_code == EXIT_PASS, f"exit code {exit_code!r}, expected {EXIT_PASS}")
        _require(output is not None, "no report written")
        digest = hashlib.sha256(output).hexdigest()
        first = self._digests.setdefault(command.argv, digest)
        _require(first == digest, "identical argv gave different report bytes")
        checker = _CHECKERS[(command.kind, command.fmt)]
        try:
            text = output.decode()
            return checker(json.loads(text) if command.fmt == "json" else text, command.expect)
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            raise OracleError(f"unreadable report: {type(exc).__name__}: {exc}") from exc

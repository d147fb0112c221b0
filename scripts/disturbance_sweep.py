#!/usr/bin/env python3
"""Track the four record products stage by stage through the
single-experiment flow.

At each stage the script reports the exact expectation of every record
product together with the ledger status of each memory. In the straight
pipeline only the first mixed product is ever visible (right after Bob's
first step, before the next step destroys it); the other two mixed products
need their Bob step to run first, shown in the side-branch table.
"""
import argparse

from relfacts.observers import Premeasurement, ledger, premeasure
from relfacts.pauli import PauliString
from relfacts.scenarios import (
    BOB_MEMORY,
    CONSTRAINT_SIGNS,
    NUM_QUBITS,
    ScenarioConfig,
    alice_premeasurements,
    lifted_direct_observables,
    record_slots,
    run_lmz,
)
from relfacts.statevector import expectation


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.parse_args()

    slots = [record_slots(cid) for cid in range(1, len(CONSTRAINT_SIGNS) + 1)]
    products = [PauliString.from_map(NUM_QUBITS, {q: "Z" for _, q in records})
                for records in slots]
    headers = (["stage"] + ["*".join(label for label, _ in records) for records in slots]
               + ["ledger"])

    def snapshot(rows, state, facts, label):
        values = [f"{expectation(state, p):+.3f}" for p in products]
        status = ",".join(f"{f.label}:{f.status[0]}" for f in facts)
        rows.append([label] + values + [status or "-"])

    report = run_lmz(ScenarioConfig())
    rows = []
    for snap in report.snapshots[1:]:  # alice-complete, bob-1, bob-2, bob-3
        snapshot(rows, snap.state, snap.facts, snap.label)
    stage1 = report.snapshots[1].state

    def print_table(rows):
        widths = [max(len(str(r[i])) for r in rows + [headers])
                  for i in range(len(headers))]
        print("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
        print("  ".join("-" * w for w in widths))
        for row in rows:
            print("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))

    print("straight pipeline (Bob's steps in order):")
    print_table(rows)
    print()

    alice_pms = alice_premeasurements()
    alice_steps = [(f"A{j + 1}", pm, "alice") for j, pm in enumerate(alice_pms)]
    bhats = lifted_direct_observables(alice_pms)
    side_rows = []
    for k in (1, 2):
        pm = Premeasurement(bhats[k], BOB_MEMORY[k], "bob")
        facts = ledger(alice_steps + [(f"B{k + 1}", pm, "bob")])
        snapshot(side_rows, premeasure(stage1, pm), facts, f"bob-{k + 1}-only")
    print("side branches (one Bob step directly after the friends):")
    print_table(side_rows)

    print()
    print("expected signs once every record in the product exists:",
          " ".join(f"{s:+d}" for s in CONSTRAINT_SIGNS))
    print("(status letters: c = current, d = disturbed; a memory still in")
    print(" |0> reads +1, so a product is meaningful only at stages where")
    print(" every record it uses has been written)")
    print()
    print("Each mixed product reads its expected -1 only while the friend")
    print("records it uses are still current: the first one appears at bob-1")
    print("and is wiped by bob-2, and the other two require their Bob step")
    print("to run first. The all-direct product survives the full pipeline.")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Golden report bytes: the SHA-256 of every listed report is pinned.

The hashes were generated from the reports of an earlier release, so a
refactor that changes any byte of a report, in either format, fails here.
The 8 `check-assignments` and `verify --all` hashes date from the release
that dropped the operation counts: each JSON report's "timing" object
became empty (the key stays, and the version string still reads "1"), and
each text report lost its closing blank line and `timing:` line. The 24
`run` hashes date from the release that gave each flow its own report
type: each JSON report lost `config.bob_mode`, `results.scenario`,
`results.experiment_id`, the other flow's empty slots and the same-pair
rows' `direct_label` and `record_label`, and each text report's `config:`
line lost `bob_mode=...`. Every other byte was unchanged by either
release.
The two planted 20-variable constraint files under tests/data/ (one
satisfiable, one contradictory) are read by a relative path, which each
report prints, so the test runs from the repository root.
The `verify --all` report holds no wall-clock value, so its bytes are
pinned too; the sweep's times go to stderr.
The determinism checks elsewhere run the same code twice and cannot see a
change across versions.
"""
import hashlib
from pathlib import Path

import pytest

from relfacts.cli import main

GOLDEN = {
    ("run lmz --shots 0", "json"):
        "223d6010a5792bc4cf36cd1b0be309d917a2052bfe2fee93db1c492b7c9bbaa2",
    ("run lmz --shots 0", "text"):
        "8c425829d21e5d50b78c08b44935195c29a62ee42dca098b4d38d8156f1366d4",
    ("run lmz --shots 1000 --seed 7", "json"):
        "cdd0596516f8b7c5a1b13e0975bc426fefb00b506b6cee66cc3db9985f5047a5",
    ("run lmz --shots 1000 --seed 7", "text"):
        "7ec4013367a5cec66d4d0ab8fb9b69330dfcbeb748d1068c63f1210d3d4e55c2",
    ("run cdr --experiment 1 --shots 0", "json"):
        "d40530d6341051d48396dd33c103173144cdc2f125c2908a0e58f2dc8fcf60ef",
    ("run cdr --experiment 1 --shots 0", "text"):
        "778076a7922f0afc1f44db5b3ebf7a37a86c183936fb97adc369a1dcd884b27a",
    ("run cdr --experiment 1 --shots 1000 --seed 7", "json"):
        "6af5d2b65542759a98ef013117d7ee8c15f1ebbdc58f99c62702f9525177f3ac",
    ("run cdr --experiment 1 --shots 1000 --seed 7", "text"):
        "8ec2c9e2b2dde51b6686d93890284fc870ccb3b4d35efd848cc165677a13c0ed",
    ("run cdr --experiment 2 --shots 0", "json"):
        "bbb7aca4eb1cd47cbd0bf93083d130557084d28eca3d74bd20dfd4be2361e2b7",
    ("run cdr --experiment 2 --shots 0", "text"):
        "e56d01eab6c0a18c3155a2158f8904db760996048e280557a14f8134dac8ea0d",
    ("run cdr --experiment 2 --shots 1000 --seed 7", "json"):
        "95f675f62dd61d22bd93a6332264b04cffe13207055ca4db1de62d5d41322483",
    ("run cdr --experiment 2 --shots 1000 --seed 7", "text"):
        "535e2640a582566b018c994dbf276ee6b0401bb7cdbb191dd80673fd27a47cd0",
    ("run cdr --experiment 3 --shots 0", "json"):
        "b53b478ed107b49ac5a453ca704fba56337a4f0cfd373700de6b1e24f32612ff",
    ("run cdr --experiment 3 --shots 0", "text"):
        "43278769cf409f594364fc34f193fbc6390750edf9231e3793959eff6244ca3d",
    ("run cdr --experiment 3 --shots 1000 --seed 7", "json"):
        "a701c1b9dc65d7f427a260e6d1428a513ca3ce9ad1fbd2d2a85f630b74926025",
    ("run cdr --experiment 3 --shots 1000 --seed 7", "text"):
        "f33fa58a6c221cb06ec6f111020ccd18a1f75482a78bfd295ef19b66402818d5",
    ("run cdr --experiment 4 --shots 0", "json"):
        "707e9969d9f544e00065e9820704816d5d4b671504bab2f2facbafde53f79eea",
    ("run cdr --experiment 4 --shots 0", "text"):
        "1026a5ce9c25fdb9afe92dfbf763f07d45011e783f0ef4bf0a3895d79e5b1668",
    ("run cdr --experiment 4 --shots 1000 --seed 7", "json"):
        "dad664bfce9ad71b13f26d8c1d16f90e61a76a832c29943ba18a0cfc9883e948",
    ("run cdr --experiment 4 --shots 1000 --seed 7", "text"):
        "1a1df94cf9bf2112a742984d8fefe10180bc287aa2bf86e611830ff76aa43140",
    ("run cdr --experiment all --shots 0", "json"):
        "2156a542406514cb86241c47e708a4271c953325247b198109e0f4d866be7db1",
    ("run cdr --experiment all --shots 0", "text"):
        "0d7859109e91421cd62c7f28f464932f0df9ddcac51db0107fbe1c068a814329",
    ("run cdr --experiment all --shots 1000 --seed 7", "json"):
        "ad53f46d76e19b3f2247b18eafd05bbce007d8106e891ef3e2d2205349858bf1",
    ("run cdr --experiment all --shots 1000 --seed 7", "text"):
        "f3aff32a0d3f536162f0cd2f34edb91c83bbe1d3d02c7a58ad1ab19736e2ae11",
    ("check-assignments --builtin ghz", "json"):
        "f4d7fa6d6cdf4ef8590669a28f372467e39cbf884b4be00fd0829ea221ba8113",
    ("check-assignments --builtin ghz", "text"):
        "f46c6ff6b2d266609a1b1f3c4b2b5a0da3b5adf1225645c73c046accd9eaa752",
    ("check-assignments --constraints tests/data/planted-20-sat.txt", "json"):
        "0577244ae7d87353d70a263e55867b590205fbd902ad47bea5daed116dfef825",
    ("check-assignments --constraints tests/data/planted-20-sat.txt", "text"):
        "8301c25d10031fcdc6d6c99b17c25b33e809210c97924566972dc9316ad58cea",
    ("check-assignments --constraints tests/data/planted-20-unsat.txt", "json"):
        "3cdc652b3866571d771ecb989acc5476ff7114e094108f0d5ee2b162e34a1972",
    ("check-assignments --constraints tests/data/planted-20-unsat.txt", "text"):
        "2d576d28d7652cf3dc35a9754aae4dbb964a84ecce00a30e01f39ec24f145940",
    ("verify --all", "json"):
        "b7b7d3a89643a665b6eeff6692db3322eb5e2b3e6b38020830881005463a6139",
    ("verify --all", "text"):
        "7490e55fc10dd7911e219c2e7fa5d47fd241f4577666bebcd2780a5b3d61233e",
}


@pytest.mark.parametrize("command,fmt", sorted(GOLDEN))
def test_report_bytes_match_golden_hash(command, fmt, tmp_path, monkeypatch):
    monkeypatch.chdir(Path(__file__).resolve().parent.parent)
    path = tmp_path / f"report.{fmt}"
    assert main(command.split() + ["--format", fmt, "--out", str(path)]) == 0
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == GOLDEN[(command, fmt)]

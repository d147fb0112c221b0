"""Golden report bytes: the SHA-256 of every listed report is pinned.

The hashes were generated from the reports of an earlier release, so a
refactor that changes any byte of a report, in either format, fails here.
The hashes of the sampled reports (--shots 1000 --seed 7) date from the
release that draws each target's shot counts with one multinomial.
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
        "3278494ad73d560555da15a1fd84e4fac239f703911b39ca86db0a80acff72d4",
    ("run lmz --shots 0", "text"):
        "fa26d48bef242f891106734a9600ab312081edbaad8a5c0af170c2ad1c8e196e",
    ("run lmz --shots 1000 --seed 7", "json"):
        "9bd08b151b96315853ad365c0cbc23645f763d2e1079c7a8a520beea60323a9c",
    ("run lmz --shots 1000 --seed 7", "text"):
        "0b41ed132cd77962e10a2982cc8001c821cb95a6293783d68510cf2dfe03978a",
    ("run cdr --experiment 1 --shots 0", "json"):
        "c7d86d4484e33254fb45069e7e7d1069b2ef66b3fc4eb8d612ab6e8fe2679864",
    ("run cdr --experiment 1 --shots 0", "text"):
        "8fd16885023bb6d1e5fc1887003300f332c66c03ecdf6d0ff05f153d054d7dad",
    ("run cdr --experiment 1 --shots 1000 --seed 7", "json"):
        "f3a3f26cf1e912301a73af03ca8c40a726af505c0a7362d20c370a116dad1bf9",
    ("run cdr --experiment 1 --shots 1000 --seed 7", "text"):
        "09df978cda6d5df72358409fcd1acb723792470c9339089675da02e3fc34b3e1",
    ("run cdr --experiment 2 --shots 0", "json"):
        "d65f89c27e850722a43bf3a9caa5f9de39672fe95eadcf1e5efcf6229aa23f85",
    ("run cdr --experiment 2 --shots 0", "text"):
        "e48904f892fbd3b10720ac937abecd80927d5533ef6b561f50323216fcd53a10",
    ("run cdr --experiment 2 --shots 1000 --seed 7", "json"):
        "4a3eb20b064f0ecddc5dd319bf3172d892dd93c58bb4f1985e0c4893218ae4e2",
    ("run cdr --experiment 2 --shots 1000 --seed 7", "text"):
        "027d940146546246fcd9ea7ffd135a229be241938e7445b8eebb3411e29c56fc",
    ("run cdr --experiment 3 --shots 0", "json"):
        "121599d76fdbd6d105719176930cdcadafe236480d7599292b5482eeff667719",
    ("run cdr --experiment 3 --shots 0", "text"):
        "608e7976f4c2896cfdba2acfc7b6c139e033253d12bfdb3124b6d436069afb4e",
    ("run cdr --experiment 3 --shots 1000 --seed 7", "json"):
        "d67850835cfc3793f378507972cf88ef503a1895888fa2c3db257b4e7e7dccb8",
    ("run cdr --experiment 3 --shots 1000 --seed 7", "text"):
        "b527f87c714de5bbf8edae4900d7660dc032534b639c707097b3fb9f7c4b55ee",
    ("run cdr --experiment 4 --shots 0", "json"):
        "7cfe41033eccb39e9a30b071266ea13e3352efa18b4697627846c582ba8ac4d0",
    ("run cdr --experiment 4 --shots 0", "text"):
        "dec2dfcee4b99dafcad1d9447fdd2343b0e0eb9c27738b6df355a9900081cc60",
    ("run cdr --experiment 4 --shots 1000 --seed 7", "json"):
        "c3f7263f374723c5037b25d140541ab8449d825711a3abf625dee441a983c574",
    ("run cdr --experiment 4 --shots 1000 --seed 7", "text"):
        "a66460c0a60f2df79ead8944846be8b9df73630d7bfc019807ce196e7aa6f300",
    ("run cdr --experiment all --shots 0", "json"):
        "89359e0fa9bb652a240baa17ecbe32db325e24b61c575a1cc70b4fe0e1fe9a6b",
    ("run cdr --experiment all --shots 0", "text"):
        "ff4f98a6a74926bae39be61b45c0ea40da6a403f058d3ecb198139f2bea4beba",
    ("run cdr --experiment all --shots 1000 --seed 7", "json"):
        "3ba8938f2421aa89d791b2a37ce3cef5e4a78d2646c58d49ca6533fb08b6e6e4",
    ("run cdr --experiment all --shots 1000 --seed 7", "text"):
        "1ff97eb6fe3faae1b9d75c1e65af3e9c7cc841527cc02e4447c75f4b8d5f7535",
    ("check-assignments --builtin ghz", "json"):
        "05a4342ac62383a38bcd472860186ca631b9e5df9a16dc341e8dd9829f4917fc",
    ("check-assignments --builtin ghz", "text"):
        "04dddc2f4c410dc40788de8cce43ab23c7b8484ad57eb793ddeb32fa3f8057c7",
    ("check-assignments --constraints tests/data/planted-20-sat.txt", "json"):
        "695ddb1e3bc846a9cdd4b84724aaed04655e5b55870f3bc47a1a76b22dfb9a0a",
    ("check-assignments --constraints tests/data/planted-20-sat.txt", "text"):
        "24cf8b05e7530df8106d46b8e25658024f3462d71d4f78f18b6eb31d8819a27b",
    ("check-assignments --constraints tests/data/planted-20-unsat.txt", "json"):
        "2cb43096af52cb4f765cadd143e41240e92f113e534d28107001f4d16701fec6",
    ("check-assignments --constraints tests/data/planted-20-unsat.txt", "text"):
        "e9bba58cfdb67f31c0248461b404633ee009cabb47e8d32d040cc9231fd00ff6",
    ("verify --all", "json"):
        "4f05294a20f8dc359f630f2e34befc4fc896180c88b82c10a666886c3e670117",
    ("verify --all", "text"):
        "24e50bf0d60b87e0781f1dec5dcad572f1ec4aeabd50c987e521a7ff0092d756",
}


@pytest.mark.parametrize("command,fmt", sorted(GOLDEN))
def test_report_bytes_match_golden_hash(command, fmt, tmp_path, monkeypatch):
    monkeypatch.chdir(Path(__file__).resolve().parent.parent)
    path = tmp_path / f"report.{fmt}"
    assert main(command.split() + ["--format", fmt, "--out", str(path)]) == 0
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == GOLDEN[(command, fmt)]

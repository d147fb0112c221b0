"""Golden report bytes: the SHA-256 of every listed report is pinned.

The hashes were generated from the reports of an earlier release, so a
refactor that changes any byte of a report, in either format, fails here.
The hashes of the sampled reports (--shots 1000 --seed 7) date from the
release that draws each target's shot counts with one multinomial. The
JSON hashes of the run and check-assignments reports date from report
schema 2, which dropped the fields that restate others (its version string
still reads "1"); the verify --all JSON hash and every text hash predate
it, unchanged.
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
        "d5c11aa3ecf6c732579b8789df3aef7b00a2e1d5e299de58d3d3de8f7e6a6edc",
    ("run lmz --shots 0", "text"):
        "fa26d48bef242f891106734a9600ab312081edbaad8a5c0af170c2ad1c8e196e",
    ("run lmz --shots 1000 --seed 7", "json"):
        "6531e76cfdc91bf19d7e69e173f614137c19fe138992464c9a75a58c5937cae3",
    ("run lmz --shots 1000 --seed 7", "text"):
        "0b41ed132cd77962e10a2982cc8001c821cb95a6293783d68510cf2dfe03978a",
    ("run cdr --experiment 1 --shots 0", "json"):
        "29ed44434d6965399cb14eefa6b44b5d5b2a8ed86d89fcf72705dd41a19d312c",
    ("run cdr --experiment 1 --shots 0", "text"):
        "8fd16885023bb6d1e5fc1887003300f332c66c03ecdf6d0ff05f153d054d7dad",
    ("run cdr --experiment 1 --shots 1000 --seed 7", "json"):
        "3be33d74c67bcd9251fe9546d1c9beca2903d694fd72eb8854aa16529ae5d320",
    ("run cdr --experiment 1 --shots 1000 --seed 7", "text"):
        "09df978cda6d5df72358409fcd1acb723792470c9339089675da02e3fc34b3e1",
    ("run cdr --experiment 2 --shots 0", "json"):
        "62557d8dfddd41344ff1d34742835539988606a0c0acefad3b081e55a2970921",
    ("run cdr --experiment 2 --shots 0", "text"):
        "e48904f892fbd3b10720ac937abecd80927d5533ef6b561f50323216fcd53a10",
    ("run cdr --experiment 2 --shots 1000 --seed 7", "json"):
        "aa0ef0310ee01e9ede544838427c87b2c8a3566fc31c99930a4a240cc4e7ad9c",
    ("run cdr --experiment 2 --shots 1000 --seed 7", "text"):
        "027d940146546246fcd9ea7ffd135a229be241938e7445b8eebb3411e29c56fc",
    ("run cdr --experiment 3 --shots 0", "json"):
        "98e11f7b2eeca58c0c2fbf799f2a65f9c5fa08cda4cb83d202fd5bb8960badc0",
    ("run cdr --experiment 3 --shots 0", "text"):
        "608e7976f4c2896cfdba2acfc7b6c139e033253d12bfdb3124b6d436069afb4e",
    ("run cdr --experiment 3 --shots 1000 --seed 7", "json"):
        "93fdfd8715e3f565ccd34dbe9d81f663d0ee8dc2741f53a8d378489913814369",
    ("run cdr --experiment 3 --shots 1000 --seed 7", "text"):
        "b527f87c714de5bbf8edae4900d7660dc032534b639c707097b3fb9f7c4b55ee",
    ("run cdr --experiment 4 --shots 0", "json"):
        "03e7e4849a4b0054fef0df8238cf89c24c2eb51679c7767548280f356662efcf",
    ("run cdr --experiment 4 --shots 0", "text"):
        "dec2dfcee4b99dafcad1d9447fdd2343b0e0eb9c27738b6df355a9900081cc60",
    ("run cdr --experiment 4 --shots 1000 --seed 7", "json"):
        "a6ebe6c28b4ad6efd179900e9166d27bdb70b1844f7b2fba6ed79f5536876884",
    ("run cdr --experiment 4 --shots 1000 --seed 7", "text"):
        "a66460c0a60f2df79ead8944846be8b9df73630d7bfc019807ce196e7aa6f300",
    ("run cdr --experiment all --shots 0", "json"):
        "d3674bb8f4c8bdcdf55418d7959bc5767515961084fbac88d701c81b68fe5e1f",
    ("run cdr --experiment all --shots 0", "text"):
        "ff4f98a6a74926bae39be61b45c0ea40da6a403f058d3ecb198139f2bea4beba",
    ("run cdr --experiment all --shots 1000 --seed 7", "json"):
        "7e7532ab1052299d143001940e2e2e6576b4e26b79124abe8430224b3e958dda",
    ("run cdr --experiment all --shots 1000 --seed 7", "text"):
        "1ff97eb6fe3faae1b9d75c1e65af3e9c7cc841527cc02e4447c75f4b8d5f7535",
    ("check-assignments --builtin ghz", "json"):
        "d828a7c9ddf39578c042eed18437b02e5d6780222010e4adfb66ac57f24c80e9",
    ("check-assignments --builtin ghz", "text"):
        "04dddc2f4c410dc40788de8cce43ab23c7b8484ad57eb793ddeb32fa3f8057c7",
    ("check-assignments --constraints tests/data/planted-20-sat.txt", "json"):
        "1338734cfba51cef1201b483d42f1fb86b0b2cbfd1e1061c03afa72559fbc4fb",
    ("check-assignments --constraints tests/data/planted-20-sat.txt", "text"):
        "24cf8b05e7530df8106d46b8e25658024f3462d71d4f78f18b6eb31d8819a27b",
    ("check-assignments --constraints tests/data/planted-20-unsat.txt", "json"):
        "4104faa2138f433b3805ac95209ddb83c1fa561d9f49412a56ca3b1257c29996",
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

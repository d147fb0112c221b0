"""Golden report bytes: the SHA-256 of every listed report is pinned.

The hashes were generated from the reports of an earlier release, so a
refactor that changes any byte of a report, in either format, fails here.
All 32 date from the release that dropped the operation counts: each JSON
report's "timing" object became empty (the key stays, and the version
string still reads "1"), and each text report lost its closing blank line
and `timing:` line. Every other byte was unchanged by that release.
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
        "7e778aaa4ee381aeaa9d5a483337d7989eefab0ad7870372c63764dd8b2e779a",
    ("run lmz --shots 0", "text"):
        "52e331cf5eb98fbdb4f77f9a8251d60b4d3d3af53a841f59aec5a46db8bec206",
    ("run lmz --shots 1000 --seed 7", "json"):
        "756d10a9eb269533375f62b15e8ba2890fde688f9c0bae1fa846793c11d1f368",
    ("run lmz --shots 1000 --seed 7", "text"):
        "5e1e4e07696887717721c097910c88f28502e757e0c46514f419aa19fa266b0f",
    ("run cdr --experiment 1 --shots 0", "json"):
        "ea6435a8113ed2b0c4f275925f6e1da22818bcddd42fb903e43b2f39d1403567",
    ("run cdr --experiment 1 --shots 0", "text"):
        "e3311553e988d5f5e467914130160121dd34cc9fcb17750bc9ea8f2f48221e66",
    ("run cdr --experiment 1 --shots 1000 --seed 7", "json"):
        "6fb5541616e1011a425fa300145c98b57c4e47c87c90fec581aab683bfee613d",
    ("run cdr --experiment 1 --shots 1000 --seed 7", "text"):
        "1e3b2ca67da2def09c8b0c5d55092e41443669d9f14e48c4271592f274068311",
    ("run cdr --experiment 2 --shots 0", "json"):
        "d2f758402ea0fdf2e874e0590043d59707a9c05e1798fad256eb15baab331d8a",
    ("run cdr --experiment 2 --shots 0", "text"):
        "42655e8b16a2ec7d3a0c0b9a6b64c80370e92b636b4c7e57d8dc41b42af3db09",
    ("run cdr --experiment 2 --shots 1000 --seed 7", "json"):
        "45cf9b2a173eeeac2c51289a3571cbc750bf3fed6721275160a25f773d4b8c52",
    ("run cdr --experiment 2 --shots 1000 --seed 7", "text"):
        "e783b5fe80eae6688424af868201658b366d24a097e4971331a9ec261f09dc5f",
    ("run cdr --experiment 3 --shots 0", "json"):
        "424be499bbe83c9f754cf4addb225e0b3339f9cf7dfebe0bf29b5d77b5b3d80c",
    ("run cdr --experiment 3 --shots 0", "text"):
        "0afc56bdd0a7164eec4d563988535f1e87be4f90f43b33932973ef0c44ab108b",
    ("run cdr --experiment 3 --shots 1000 --seed 7", "json"):
        "f5d1848efde6b6e274d1409ce6501aa7f00f2b0342c0a13c1fc7527a12b9ea96",
    ("run cdr --experiment 3 --shots 1000 --seed 7", "text"):
        "ad17b77abf7fb00631e8e59d55a10f8063887c92431eb0d4d09c9acd7f6bdd4a",
    ("run cdr --experiment 4 --shots 0", "json"):
        "cded3220ee5662a1f962fa0f50703dbd810ff57d4cc5d0d09922e1bfe556056b",
    ("run cdr --experiment 4 --shots 0", "text"):
        "4f13a86de11456d92802704abcd4776efbd0db429c6b7b24a07765728100ea82",
    ("run cdr --experiment 4 --shots 1000 --seed 7", "json"):
        "95e2635290f5091a8ab28b3bbc78b86f7cba2c6a33cf64afa94a0d000bd57549",
    ("run cdr --experiment 4 --shots 1000 --seed 7", "text"):
        "4a368bb431fa03d8fbd6460f25a81529f816375c153c091d455f86670db61b6d",
    ("run cdr --experiment all --shots 0", "json"):
        "d9db4c21a5d3366be82d91441a1bd9e78f63c242acbc0f74e5f508022f50e56f",
    ("run cdr --experiment all --shots 0", "text"):
        "849beae944708170721aa5ee4024af29f02b3d999325c37eadfeb17be31590c4",
    ("run cdr --experiment all --shots 1000 --seed 7", "json"):
        "23e189871ee3b62457b1080aa5b6654b2f7a8408050748753f493c478263bcc0",
    ("run cdr --experiment all --shots 1000 --seed 7", "text"):
        "9c835e89d1db5ddc541c1b7cc8016d59dfe381b971102f02d4cc48305f1c30c7",
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

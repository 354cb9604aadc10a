"""Byte pins for the benchmark workloads.

Each workload of perfbench/corpus.py is generated at seed 1, trained and
parsed in-process, and the SHA-256 of the model and of the relations
(plain and with --conll-tokenlist) must equal the digests below. A change
that is meant to alter these bytes updates the digests and says why.
"""

import hashlib
import os
import sys

import pytest

from discoparse.cli import main

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench"))
import corpus  # noqa: E402

WORKLOAD_SHA256 = {
    "newswire": {
        "model": "c28dc59667ef3ab64a4c06cc9b2a1e648532e205ecf1a25498fbca7e64990a63",
        "relations": "f7f13f7369ae2b53226e25e3f06666adcc7dc2544fc84532ae5bc15ffafeca03",
        "relations-conll-tokenlist":
            "e9aa797356c77d5bb80888df665c4ff00ddbc1eefa5f9a7cb9852d8c24b439ae",
    },
    "sparse-short": {
        "model": "ae0f8dff62fe18bc0fbb5ad00643d468144b3c238c9aa8c6aaacad9456103be6",
        "relations": "a41b47a5c3b2ef59efe28b150575092e4b10f1173fa006512b8a56ebbc6957cd",
        "relations-conll-tokenlist":
            "3691b223b17b1d7f92b8706bc8ea247d4d67998908f64bfcf6bda10ab79b372e",
    },
    "long-dense": {
        "model": "eea4039584a49392c75b4754e19382acad9ec43d735dbe0f4e6c8b64f803b031",
        "relations": "3cf30d9fb9507e715555f20f4d637e0134e3730b73d6fd2f58e23fa9d35bd4a6",
        "relations-conll-tokenlist":
            "ca4405ac5165c947720b2ee2e92867ced55264eb3641103aa2d4150396500bea",
    },
}


@pytest.mark.parametrize("workload", sorted(WORKLOAD_SHA256))
def test_workload_outputs_match_golden_digests(workload, tmp_path):
    splits = {}
    for split in ("train", "test"):
        splits[split] = tmp_path / split
        corpus.write_split(corpus.generate(workload, 1, split), str(splits[split]))
    outputs = {"model": tmp_path / "model.json"}
    assert main(["train", "--relations", str(splits["train"] / "relations.jsonl"),
                 "--parses", str(splits["train"] / "parses.json"),
                 "--raw", str(splits["train"] / "raw"),
                 "--out", str(outputs["model"])]) == 0
    for name, extra in (("relations", []),
                        ("relations-conll-tokenlist", ["--conll-tokenlist"])):
        outputs[name] = tmp_path / f"{name}.jsonl"
        assert main(["parse", "--model", str(outputs["model"]),
                     "--parses", str(splits["test"] / "parses.json"),
                     "--raw", str(splits["test"] / "raw"),
                     "--out", str(outputs[name]), *extra]) == 0
    digests = {name: hashlib.sha256(path.read_bytes()).hexdigest()
               for name, path in outputs.items()}
    assert digests == WORKLOAD_SHA256[workload]

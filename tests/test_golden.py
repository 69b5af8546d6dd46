"""The command line's contract: every record of tests/golden/records.json.

Each record is replayed in-process and must give the same stdout, stderr and
exit code, byte for byte.  ``tools/golden.py --write`` writes the records;
this test never does.
"""

import json

import pytest
from conftest import golden

RECORDS = json.loads(golden.RECORDS.read_text(encoding="utf-8"))


def record_id(record):
    sabotage = f" [{record['sabotage']}]" if record["sabotage"] else ""
    return " ".join(record["argv"]) + sabotage


@pytest.mark.parametrize("record", RECORDS, ids=record_id)
def test_record(monkeypatch, record):
    monkeypatch.chdir(golden.GOLDEN)
    assert golden.replay(record["argv"], record["sabotage"]) == record


def test_records_cover_the_matrix():
    assert [(r["argv"], r["sabotage"]) for r in RECORDS] == list(golden.invocations())

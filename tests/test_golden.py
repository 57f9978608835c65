"""Golden outputs: every recorded CLI request answers as recorded.

The record (``golden_outputs.json``) and how it is made are described in
``golden.py`` beside this file; rerun that script after a deliberate change
of behaviour.
"""

import json

import golden

RECORD = json.loads(golden.DATA.read_text())


def test_cli_requests_answer_as_recorded():
    mismatches = [
        f"{want['argv']}: {why}" for want in RECORD["requests"] if (why := golden.mismatch(want))
    ]
    assert not mismatches, f"{len(mismatches)} requests differ:\n" + "\n".join(mismatches)


def test_verify_report_as_recorded():
    got = golden.verify_masked()
    want = RECORD["verify"]
    differ = [f"{w['suite']}/{w['check']}" for g, w in zip(got, want) if g != w]
    assert len(got) == len(want) and not differ, f"verify differs ({len(got)} checks): {differ}"

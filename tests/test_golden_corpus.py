"""Every report and written file of the golden corpus, byte for byte."""

import json

import pytest

from golden_corpus import CORPUS, generate, render, versions


def test_reports_and_files_match_the_corpus(tmp_path):
    text = CORPUS.read_text()
    want = json.loads(text)
    have = versions()
    recorded = {key: want[key] for key in have}
    if recorded != have:
        pytest.fail(f"corpus recorded with {recorded}, this run has {have}")
    got = generate(tmp_path)
    for old, new in zip(want["commands"], got["commands"], strict=True):
        assert new == old, " ".join(old["argv"])
    assert render(got) == text

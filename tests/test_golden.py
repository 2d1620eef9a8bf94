"""Every golden case prints the committed bytes and exits as recorded
(``golden.py``; refresh a case with ``python tests/golden.py --refresh``)."""

import pytest

import golden


def test_manifest_lists_every_case():
    assert sorted(golden.load_manifest()) == sorted(golden.CASES)


@pytest.mark.parametrize("name", sorted(golden.CASES))
def test_output_bytes_are_committed(name):
    entry = golden.load_manifest()[name]
    assert entry["argv"] == golden.CASES[name]
    stdout, code, stderr = golden.run(name)
    assert stdout == (golden.GOLDEN / f"{name}.out").read_bytes()
    assert (code, stderr) == (entry["exit"], entry["stderr"])

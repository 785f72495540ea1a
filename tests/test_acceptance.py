"""The acceptance gate: every criterion runs at its exact tolerance and
prints one PASS/FAIL line."""

import hashlib

import pytest

from kanforge import acceptance as ac

# sha1 of each criterion's report lines, joined by newlines; a change to
# any verdict or count in a report line changes its digest
REPORT_SHA1 = {
    "groupoid-nerve": "262c1559aec5038afa5ecadd3fef1d4cd024a8a8",
    "two-group-nerve": "aa45a53a05527c4c366f2aa43256a544fa0a7c5a",
    "grho": "c841cf8f8dc4a1db2d13115d7193bbab09775b12",
    "loop-gamma": "2aaa5bf0d670a90c93468b76feb6ad0fe6439d3c",
    "additive-representability": "ada1ebf7cd7ca91808e5ff1c2885c7d67a8e42d4",
    "determinant-representability": "ada3bbe9b7776a1cc8629beb20a0ba70a7897a02",
    "segal-representability": "8d5b44a6b4da428639a93964bdbaf07fe1ea539a",
    "simplex-counts": "6329b9761e0d2fbcbcf92058ee4edce73dbdeca7",
    "negative-fixture": "39d2fa10f4dd9dacde4d6f415a2dcf942b546882",
    "fibrancy": "7854041c42d0f1720d638cda5ea6513ba99b4244",
    "coskeleton": "5c20871069b78056eb78226d85b6a9b00e722c6b",
}


@pytest.mark.parametrize("name,check", ac.CRITERIA, ids=[n for n, _ in ac.CRITERIA])
def test_criterion(name, check, capsys):
    ok, lines = check()
    with capsys.disabled():
        print("\n%s %s" % ("PASS" if ok else "FAIL", name))
        for line in lines:
            print(line)
    assert ok, "criterion %s failed:\n%s" % (name, "\n".join(lines))
    digest = hashlib.sha1("\n".join(lines).encode()).hexdigest()
    assert digest == REPORT_SHA1[name], "report lines of %s changed" % name

"""The exactness gate: the ``scripts/report_stream.py --quick`` digests.

Each digest covers everything the checker reports on a prefix of one
standard sweep: every report, four derived edge sets, the summary with
its stream hash, and the failure records (see the script).  A change that
alters reports on purpose updates a digest here and says why in
CHANGES.md.
"""
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))

from report_stream import QUICK, sweep_hash  # noqa: E402

DIGESTS = {
    "alg1": (4000, "c1eb1490cb7dffc32afb32226c28aa145fbd4113e39165d0cf2537c63c839172"),
    "afek": (2000, "373b38747f1aa52dc0c6dcf3ad1af73db5cdf8c4805f148e0a49b02614ca1569"),
    "alg2": (3000, "01beb0f94eea8df2c3e234da1f9356203eadc2e4f69941c0e9cf8206c2aaae5b"),
    "alg3": (300, "4c81785a9375aceaea58e3a6f0bb9b8b9073db422c625a55b27b08f4d108114e"),
    "naive": (12, "975ae7979593ca4c69bbd2eacdaa4f044f9af24c062c8460e29315dbcd984800"),
}


@pytest.mark.parametrize("name", list(QUICK))
def test_quick_digest(name):
    assert sweep_hash(name, QUICK[name]) == DIGESTS[name]

"""The verdicts of ``pairs.compare`` on made-up runs."""

import pytest

from pairs import compare

NONE = {"parent": 0, "change": 0}
FLAT = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00]
WIDE = [1.0, 1.6, 0.7, 1.3, 0.8, 1.5, 0.9, 1.2, 0.6, 1.4]


@pytest.mark.parametrize("parent, change, lower, failed, verdict", [
    (FLAT, [v * 0.9 for v in FLAT], True, NONE, "better"),
    (FLAT, [v * 0.9 for v in FLAT], True, {"parent": 0, "change": 1},
     "flat"),
    (FLAT, [v * 0.9 for v in FLAT], False, NONE, "flat"),
    (FLAT, [v * 1.1 for v in FLAT], False, NONE, "better"),
    (FLAT, [v * 1.3 for v in FLAT], True, NONE, "worse"),
    (FLAT, [v * 0.7 for v in FLAT], False, NONE, "worse"),
    (FLAT, FLAT[1:] + FLAT[:1], True, NONE, "flat"),
    (WIDE, [v * 0.9 for v in WIDE], True, NONE, "unresolved"),
    (WIDE, [v * 0.3 for v in WIDE], True, NONE, "better"),
], ids=["gain", "gain-but-more-failures", "loss-within-bound",
        "gain-higher-is-better", "loss-beyond-bound",
        "loss-beyond-bound-higher-is-better", "shuffled",
        "parent-too-wide", "every-run-better"])
def test_verdict(parent, change, lower, failed, verdict):
    assert compare(parent, change, 0.25, lower, failed)["verdict"] == verdict

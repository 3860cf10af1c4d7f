"""Verify-suite properties report a failure as a PropertyReport, never as a raised error."""

import msi.verify as verify
from msi.farey import PairPartition


def test_taylor_positivity_counts_a_wide_near_pair_as_a_failure(monkeypatch):
    # 1/2 and 1/q routed NEAR: N * key >= 8 * (1/2 - 1/10) > 1/8 breaks J5's premise
    def wide(num, den, a, mode="difference"):
        return PairPartition(mode, ((num.size - 1, 0),), ())

    monkeypatch.setattr(verify, "spaced_pair_partition", wide)
    rep = verify.check_taylor_positivity()
    assert rep.passed is False
    assert rep.instances == 11 * 3 * 2  # one pair per (N, Q, mode)
    assert rep.max_error == rep.instances

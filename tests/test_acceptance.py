"""Acceptance gate: every criterion of the suite at its stated tolerance."""

import pytest

from coldgate import cli

_BY_NAME = dict(cli.CRITERIA)


@pytest.mark.parametrize("name", [n for n, _ in cli.CRITERIA])
def test_criterion(name, accept_ctx):
    passed, details = _BY_NAME[name](accept_ctx)
    assert passed, f"{name}: {details}"


@pytest.mark.parametrize("seed", [24, 55, 90, 101])
def test_ramsey_cluster_slopes_at_seeds(seed):
    # seeds at which the unweighted log-log fit of the cluster counts
    # missed the 5% tolerance
    passed, details = cli._c_ramsey(cli.AcceptContext(seed=seed))
    assert passed, details

import pytest

from coldgate import cli, switching, traps


@pytest.fixture(scope="session")
def ref_cfg():
    return traps.SwitchingConfig.rb87_microtrap()


@pytest.fixture(scope="session")
def bb_series(ref_cfg):
    """Production-resolution collision-channel series (shared)."""
    return switching.propagate(ref_cfg, ("b", "b"))


@pytest.fixture(scope="session")
def bb_series_dense(ref_cfg):
    """The production series sampled 4000 times a period, as the
    ``gate-switching`` scenario writes it (shared)."""
    return switching.propagate(ref_cfg, ("b", "b"), steps_per_period=4000, check_convergence=False)


@pytest.fixture(scope="session")
def accept_ctx(ref_cfg, bb_series):
    ctx = cli.AcceptContext(seed=0)
    ctx.__dict__.update(cfg=ref_cfg, bb_series=bb_series)  # seeds the cached properties
    return ctx

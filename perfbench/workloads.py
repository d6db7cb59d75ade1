"""The benchmark's workloads: each is an ordered list of ``coldgate`` steps.

A step is one ``coldgate.cli.main`` call: a scenario name and the config
overrides written to its ``--config`` file (none for a scenario at its
defaults).  One operation is one scenario call or one ``accept`` criterion.
"""

from __future__ import annotations


def accept(*criteria: str) -> tuple:
    return ("accept", {"only": ",".join(criteria)})


WORKLOADS = {
    "switching-gate": [
        accept("switching-phase", "switching-revival", "switching-fidelity", "cm-analytic"),
    ],
    "moving-thermal": [
        ("gate-moving", {}),
        ("fidelity-curve", {}),
        accept("transport-solver", "perturbative-oracle", "fidelity-properties"),
    ],
    "lattice-register": [
        ("mott", {}),
        ("qc-ramsey", {}),
        ("qc-syndrome-table", {}),
        ("qc-ghz", {}),
        ("qc-qft", {}),
        ("qc-ftcnot", {}),
        ("qc-armada", {}),
        accept("mott-loading", "syndrome-table", "ramsey", "sweep-constructions"),
    ],
}


def operations(steps) -> list[tuple[int, str]]:
    """(step index, operation name) for every operation of a step list:
    the scenario itself, or ``accept.<criterion>`` for each criterion."""
    ops = []
    for i, (scenario, cfg) in enumerate(steps):
        if scenario == "accept":
            ops += [(i, f"accept.{c}") for c in cfg["only"].split(",")]
        else:
            ops.append((i, scenario))
    return ops

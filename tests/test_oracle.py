"""Closed-form versus solver agreement over random parameter draws.

The full-size draw count lives in the acceptance suite; this module runs a
faster seeded subset per family plus the corruption negative control.
"""

import numpy as np
import pytest

from wgscatter import closed_form as cf
from wgscatter import solver
from wgscatter.core import ScatterAmplitudes
from wgscatter.sweep import FAMILIES
from wgscatter.validate import pair_discrepancy, run_validation


#: Every route of the family table: "<family>" is the forward route and
#: "<family>_reverse" the reverse one.
ROUTES = {
    f"{name}{suffix}": getattr(family, direction)
    for name, family in FAMILIES.items()
    for direction, suffix in (("forward", ""), ("reverse", "_reverse"))
}


@pytest.mark.parametrize("case", sorted(ROUTES))
def test_family_agreement(case):
    route = ROUTES[case]
    rng = np.random.default_rng(sorted(ROUTES).index(case))
    for _ in range(120):
        g = tuple(rng.uniform(0.0, 3.0, 4))
        delta = float(rng.uniform(-10.0, 10.0))
        phases = dict(zip(route.phases, rng.uniform(0.0, 2 * np.pi, len(route.phases))))
        closed = route.amplitudes(g, delta, phases)
        numeric = solver.solve(route.config(g, delta, phases))
        assert pair_discrepancy(closed, numeric) < 1e-10


def test_validation_report_deterministic():
    a = run_validation(draws=60, seed=5)
    b = run_validation(draws=60, seed=5)
    assert a.lines() == b.lines()
    assert a.passed


def test_corrupted_formula_detected():
    def corrupt(amps: ScatterAmplitudes) -> ScatterAmplitudes:
        return ScatterAmplitudes(
            incident_port=amps.incident_port,
            m_left=amps.m_left + 1e-6,
            m_right=amps.m_right,
            n_left_k=amps.n_left_k,
            n_right_k=amps.n_right_k,
            n_left_q=amps.n_left_q,
            n_right_q=amps.n_right_q,
            interior=amps.interior,
            excited=amps.excited,
        )

    report = run_validation(draws=20, seed=1, corruption=corrupt)
    assert not report.passed
    assert report.max_discrepancy.value > 1e-10


def test_wrong_terminated_reverse_kernel_detected(monkeypatch):
    kernel = cf.mirrored_reverse_fields

    def wrong(*args):
        fields = kernel(*args)
        fields.t1 = fields.t1 * (1.0 + 1e-6)
        return fields

    monkeypatch.setattr(cf, "mirrored_reverse_fields", wrong)
    assert not run_validation(draws=20, seed=1).passed

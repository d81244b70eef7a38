"""The canonical partial connection as the H-projection of a Levi-Civita
connection, in every dimension (docs/oracles.md section 12): the e-rows
of kappa against form_helpers.webster_kappa, which builds the Webster
metric from the frame's theta_hat and T and the input g and shares none
of the connection algebra.
"""

import pytest

from contactconn import connection
from contactconn.connection import canonical_partial_connection
from contactconn.contact import adapted_frame, max_abs
from contactconn.sampling import sample_box
from form_helpers import CHARTS, chart_spec, webster_kappa

ORACLE_TOL = 1e-12


def koszul_gap(name):
    """The largest miss of kappa[a, b+1, c+1] against the Koszul route
    over 6 points (seed 1)."""
    spec = chart_spec(name)
    cs = spec.build()
    gap = 0.0
    for p in sample_box(spec.box, 6, 1):
        frame = adapted_frame(cs, p)
        kappa_h = canonical_partial_connection(cs, p, frame=frame).kappa.value[:, 1:, 1:]
        gap = max(gap, max_abs(kappa_h - webster_kappa(frame)))
    return gap


@pytest.mark.parametrize("name", CHARTS)
def test_kappa_is_the_projected_webster_levi_civita_connection(name):
    # At most 1.3e-15 (sphere-chart, where |kappa| on H reaches 0.597;
    # 0.228 on heis7).
    assert koszul_gap(name) < ORACLE_TOL


@pytest.mark.parametrize("name", ["heisenberg-perturbed", "sphere-chart", "heis7.json"])
def test_koszul_route_catches_a_scaled_sigma_inv(monkeypatch, name):
    # 3.0e-3, 6.0e-3 and 2.3e-3 here; the flat charts, where Gamma = 0,
    # stay at rounding.
    real = connection.sigma_inv
    monkeypatch.setattr(connection, "sigma_inv", lambda t: real(t) * 1.01)
    assert koszul_gap(name) > 1e-6

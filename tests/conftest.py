import numpy as np
import pytest

from trafficlab import (GreenshieldsDiagram, TriangularDiagram, make_fvdm, make_gfm,
                        make_idm, make_idm_alt, make_jwz_cf, make_linear_gm,
                        make_nonlinear_gm, make_ovm)

# Binary-friendly canonical diagram: S_j = 5 m and time gap = 1 s exactly.
TRI = dict(v_f=20.0, w=5.0, k_j=0.2)
GS = dict(v_f=20.0, k_j=0.2)


def assert_bits_equal(a, b):
    """Equal arrays (or numbers) bit for bit: NaN payloads and the sign of zero count."""
    np.testing.assert_array_equal(np.asarray(a).view(np.int64),
                                  np.asarray(b).view(np.int64))


def stackable_pairs(fd):
    """Two laws of each built-in form that stacks, every float constant different."""
    return {
        "linear_gm": (make_linear_gm(0.5), make_linear_gm(0.8)),
        "nonlinear_gm": (make_nonlinear_gm(1.0, 1, 1), make_nonlinear_gm(0.6, 1, 1)),
        "ovm": (make_ovm(0.6, fd), make_ovm(0.9, fd)),
        "gfm": (make_gfm(2.0, 0.5, 2.0, 1.0, 5.0, fd), make_gfm(1.5, 0.4, 3.0, 0.8, 4.0, fd)),
        "idm": (make_idm(1.0, 1.5, 4, 20.0, 1.0, 2.0), make_idm(0.7, 2.0, 4, 25.0, 1.4, 3.0)),
        "idm_alt": (make_idm_alt(1.0, 1.5, 4, 20.0, 1.0, 2.0),
                    make_idm_alt(0.7, 2.0, 4, 25.0, 1.4, 3.0)),
        "fvdm": (make_fvdm(0.6, 0.5, fd), make_fvdm(0.8, 0.05, fd)),
        "jwz": (make_jwz_cf(1.0, 2.0, fd), make_jwz_cf(0.7, 1.0, fd)),
    }


@pytest.fixture
def tri():
    return TriangularDiagram(**TRI)


@pytest.fixture
def gs():
    return GreenshieldsDiagram(**GS)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)

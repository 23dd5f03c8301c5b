"""The validating value types: input checks, canonical fields, immutability, repr.

ExtensionU2, MomentumExtension, HalflineExtension, DeuteronParams and
BoxSpectrumRequest check and canonicalize their fields when constructed.
The module tests hold the other cases: an off-sphere m, a count of 2.5 or an
int-like count, a non-positive hbar_c and a NaN lambda.
"""

import math

import pytest

from saext import (
    BoxSpectrumRequest,
    DeuteronParams,
    ExtensionU2,
    HalflineExtension,
    InvalidParameterError,
    MomentumExtension,
    p_spectrum,
)

DIRICHLET = ExtensionU2(psi=0.0, m0=1.0, m=(0.0, 0.0, 0.0))

# one valid value of each type, one of its fields, and its repr
EXAMPLES = [
    (DIRICHLET, "m", "ExtensionU2(psi=0.0, m0=1.0, m=(0.0, 0.0, 0.0))"),
    (MomentumExtension(1.5), "theta", "MomentumExtension(theta=1.5)"),
    (HalflineExtension(math.inf), "lam", "HalflineExtension(lam=inf)"),
    (DeuteronParams(lam_over_a=2.0), "lam_over_a",
     "DeuteronParams(binding_energy=2.2, range_a=2.0, hbar_c=197.3269804, "
     "nucleon_mass_c2=938.919, lam_over_a=2.0)"),
    (BoxSpectrumRequest(DIRICHLET, count=3), "count",
     "BoxSpectrumRequest(ext=ExtensionU2(psi=0.0, m0=1.0, m=(0.0, 0.0, 0.0)), count=3, "
     "s_max=None)"),
]
IDS = [type(value).__name__ for value, _, _ in EXAMPLES]


@pytest.mark.parametrize("make", [
    pytest.param(lambda: ExtensionU2(psi=math.nan, m0=1.0, m=(0.0, 0.0, 0.0)), id="nan psi"),
    pytest.param(lambda: ExtensionU2(psi=math.inf, m0=1.0, m=(0.0, 0.0, 0.0)), id="inf psi"),
    pytest.param(lambda: ExtensionU2(psi=0.0, m0=math.nan, m=(0.0, 0.0, 0.0)), id="nan m0"),
    pytest.param(lambda: MomentumExtension(math.nan), id="nan theta"),
    pytest.param(lambda: MomentumExtension(-math.inf), id="inf theta"),
    pytest.param(lambda: MomentumExtension("x"), id="str theta"),
    pytest.param(lambda: MomentumExtension(1j), id="complex theta"),
    pytest.param(lambda: HalflineExtension(None), id="None lambda"),
    pytest.param(lambda: p_spectrum("x", (0, 1)), id="str p_spectrum theta"),
    pytest.param(lambda: DeuteronParams(lam_over_a=math.nan), id="nan lambda/a"),
    pytest.param(lambda: BoxSpectrumRequest(DIRICHLET, count=0), id="count 0"),
])
def test_bad_input_raises(make):
    with pytest.raises(InvalidParameterError):
        make()


@pytest.mark.parametrize("psi", [-0.5, math.pi, 4.0, 7.0, -2.0 * math.pi, 1e6])
def test_psi_lands_in_zero_to_pi(psi):
    e = ExtensionU2(psi=psi, m0=0.5, m=(0.5, 0.5, 0.5))
    assert 0.0 <= e.psi < math.pi
    assert isinstance(e.psi, float) and all(type(c) is float for c in (e.m0, *e.m))
    # (psi, m) ~ (psi + pi, -m): an odd number of pi shifts flips the sign of m
    flips = math.floor(psi % (2.0 * math.pi) / math.pi)
    assert e.m0 == (-0.5 if flips else 0.5)


@pytest.mark.parametrize("theta", [-1.0, 2.0 * math.pi, 7.0, 3])
def test_theta_reduced_mod_two_pi(theta):
    ext = MomentumExtension(theta)
    assert ext.theta == float(theta) % (2.0 * math.pi)
    assert type(ext.theta) is float and 0.0 <= ext.theta < 2.0 * math.pi


def test_deuteron_decay_parameter_follows_the_fields():
    p = DeuteronParams(binding_energy=3.0, range_a=1.5)
    assert p.y == 1.5 * math.sqrt(938.919 * 3.0) / 197.3269804


@pytest.mark.parametrize("value, field", [example[:2] for example in EXAMPLES], ids=IDS)
def test_assigning_an_attribute_raises(value, field):
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(value, field))
    with pytest.raises(AttributeError):
        value.extra = 1


@pytest.mark.parametrize("value, _, text", EXAMPLES, ids=IDS)
def test_repr_names_every_field(value, _, text):
    assert repr(value) == text

import math

import numpy as np
import pytest

from lagmin.errors import GrammarError
from lagmin.fields import EllipticField, PolynomialField, SumField
from lagmin.grammar import parse_field, parse_surface
from lagmin.reconstruct import FieldSurface
from lagmin.surfaces import ConvolutionSurface, RotatedSurface, RuledPatch


def test_parse_field_families():
    F = parse_field("elliptic(a1=1,a3=-1)")
    assert isinstance(F, EllipticField)
    assert F.a1 == 1.0 and F.a3 == -1.0
    F = parse_field("hyperbolic(gamma4=1)")
    assert F.gamma4 == 1.0
    F = parse_field("parabolic(alpha0=2)")
    assert F.alpha0 == 2.0
    F = parse_field("exceptional(A=1,B=0.5)")
    assert F.A == 1.0 and F.B == 0.5


def test_parse_field_whitespace_insensitive():
    a = parse_field("elliptic(a1=1, a3=-1)")
    b = parse_field(" elliptic ( a1 = 1 ,a3=-1 ) ")
    assert a == b


def test_parse_poly_monomials():
    F = parse_field("poly(x^2*y)")
    assert isinstance(F, PolynomialField)
    assert dict(F.coeffs) == {(2, 1): 1.0}
    F = parse_field("poly(2*x^4 - 0.5*y + 3)")
    assert dict(F.coeffs) == {(4, 0): 2.0, (0, 1): -0.5, (0, 0): 3.0}
    assert abs(F.value(1.0, 2.0) - (2.0 - 1.0 + 3.0)) < 1e-12


def test_parse_sum_of_fields():
    F = parse_field("sum(0.5*elliptic(a1=1), 2*poly(x))")
    assert isinstance(F, SumField)
    ws = [w for w, _ in F.terms]
    assert ws == [0.5, 2.0]


def test_parse_field_rejects_unknown_keys_and_calls():
    with pytest.raises(GrammarError):
        parse_field("elliptic(zz=1)")
    with pytest.raises(GrammarError):
        parse_field("spherical(a=1)")
    with pytest.raises(GrammarError):
        parse_field("elliptic(a1=1,a1=2)")
    with pytest.raises(GrammarError):
        parse_field("poly(x^2*z)")
    with pytest.raises(GrammarError):
        parse_field("elliptic(a1=1")


def test_parse_field_branch_and_guard_thread_through():
    F = parse_field("elliptic(a3=1)", branch=1, guard=0.2)
    assert F.branch == 1
    assert F.guard == 0.2
    base = parse_field("elliptic(a3=1)")
    assert abs(F.value(1.0, 1.0) - base.value(1.0, 1.0) - math.pi) < 1e-12


def test_parse_surface_blocks_and_rotations():
    S = parse_surface("r1")
    assert S.name == "r1"
    S = parse_surface("r3@theta=0.5")
    assert isinstance(S, RotatedSurface)
    assert S.base.name == "r3" and S.theta == 0.5
    # tilde blocks have no closed form, so rotation stays an outer wrapper
    S = parse_surface("r3~@theta=0.5")
    assert isinstance(S, RotatedSurface)
    assert isinstance(S.base, FieldSurface) and S.theta == 0.5


def test_parse_surface_ruled_and_conv():
    S = parse_surface("ruled(0,0,0,0.5)")
    assert isinstance(S, RuledPatch)
    assert (S.A, S.B, S.C, S.D) == (0.0, 0.0, 0.0, 0.5)
    S = parse_surface("conv(1.0*r1, 0.3*r3@theta=0.4)")
    assert isinstance(S, ConvolutionSurface)
    assert len(S.terms) == 2
    pt = S.point(1.0, 1.0)
    assert np.isfinite(pt).all()


def test_parse_surface_field_prefix():
    S = parse_surface("field:poly(x^2)")
    assert isinstance(S, FieldSurface)
    assert dict(S.field.coeffs) == {(2, 0): 1.0}


def test_parse_surface_rejects_garbage():
    for bad in ("r99", "conv()", "ruled(1,2)", "r3@phi=1", "conv(r1,)"):
        with pytest.raises(GrammarError):
            parse_surface(bad)


@pytest.mark.parametrize("spec", ["elliptic(guard=1)", "hyperbolic(branch=1)"])
def test_field_specs_name_coefficients_only(spec):
    # guard and branch are keyword-only fields, set by the caller
    with pytest.raises(GrammarError):
        parse_field(spec)

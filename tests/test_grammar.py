import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lagmin import grammar
from lagmin.errors import GrammarError
from lagmin.fields import (EllipticField, HyperbolicField, PolynomialField,
                           RotatedField, ScalarField, SumField, sum_fields)
from lagmin.grammar import parse_field, parse_number, parse_surface
from lagmin.reconstruct import FieldSurface
from lagmin.surfaces import (
    BLOCK_NAMES,
    ConvolutionSurface,
    RotatedSurface,
    RuledPatch,
    block_field,
)


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


def test_hyperbolic_cartesian_names_fold_into_the_radial_basis():
    # a1, a2 and a3 are γ4/2, α2/2 and γ3/2; b1, b2, c1 and c2 are β3, α3,
    # β4 and α4: two spellings of one function are one field
    assert parse_field("hyperbolic(a2=1,c2=1,alpha1=-1)") == parse_field(
        "hyperbolic(alpha2=2,alpha4=1,alpha1=-1)")
    F = parse_field("hyperbolic(a1=0.25,a2=-1,a3=3,b1=5,b2=7,c1=11,c2=13,"
                    "alpha2=0.5,alpha4=-13,gamma3=1,gamma4=0.5)")
    assert F == HyperbolicField(gamma4=1.0, alpha2=-1.5, gamma3=7.0,
                                beta3=5.0, alpha3=7.0, beta4=11.0,
                                alpha4=0.0)
    assert block_field("r5") == dataclasses.replace(
        parse_field("hyperbolic(a2=1,c2=1,alpha1=-1)"),
        folds=((0.0, 0.0, 1.0),))


@pytest.mark.parametrize("spec, name", [
    ("hyperbolic(a2=1e308)", "a2"),
    ("hyperbolic(a1=-1e308,gamma4=-1e308)", "a1"),
    ("hyperbolic(c2=1.7e308,alpha4=1.7e308)", "c2"),
])
def test_a_hyperbolic_name_that_folds_out_of_range_is_refused(spec, name):
    # 2·1e308 overflows; the unfolded coefficients are finite numbers
    with pytest.raises(GrammarError, match=r"\b%s\b.*out of range" % name):
        parse_field(spec)
    assert parse_field("hyperbolic(a2=8e307)").alpha2 == 1.6e308


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
    F = parse_field("sum(2*poly(x), 1*elliptic(a3=1))", branch=1)
    assert F.terms[1][1].branch == 1
    # only an elliptic(...) term with a nonzero a1..a4 has a branch to shift
    for spec in ("poly(x)", "hyperbolic(a2=1,c1=0.5)", "sum(1*poly(x))",
                 "elliptic(c1=1,d1=0.5)", "sum(1*poly(x),2*elliptic(b1=1))"):
        assert parse_field(spec, branch=0) == parse_field(spec)
        with pytest.raises(GrammarError, match="has none"):
            parse_field(spec, branch=1)


@pytest.mark.parametrize("tok", ["1\n", "-2.5e3\n", "1 ", "1e400"])
def test_parse_number_reads_whole_tokens_only(tok):
    with pytest.raises(GrammarError):
        parse_number(tok, "test")
    assert parse_number("-2.5e3", "test") == -2500.0


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


# every block, each turned by its own angle
_ROTATED = list(zip(BLOCK_NAMES, (0.5, -1.1, 0.5, 2.5, 0.7, -0.7, 1.1, 0.7,
                                  0.3, -2.0, 1.3, -0.4, 0.2, 0.9, -1.6)))


@pytest.mark.parametrize("name, theta",
                         [(n, 0.0) for n in BLOCK_NAMES] + _ROTATED)
def test_a_block_spec_carries_its_field(name, theta):
    spec = name if theta == 0.0 else "%s@theta=%r" % (name, theta)
    assert parse_surface(spec).field == block_field(name, theta)
    guarded = parse_surface(spec, guard=0.5).field
    assert guarded == block_field(name, theta).with_guard(0.5)


@pytest.mark.parametrize("guard", [None, 0.5])
def test_a_convolution_carries_the_weighted_sum_of_its_fields(guard):
    # the guard lives on the term fields; the sum keeps the default, as
    # its mask is the AND of theirs
    spec = "conv(1*r1, 0.5*r2, 0.3*r3@theta=0.4, -2*r7@theta=1)"
    terms = [(1.0, block_field("r1")), (0.5, block_field("r2")),
             (0.3, block_field("r3", 0.4)), (-2.0, block_field("r7", 1.0))]
    if guard is not None:
        terms = [(w, f.with_guard(guard)) for w, f in terms]
    assert parse_surface(spec, guard=guard).field == sum_fields(terms)


def test_a_rotated_spec_carries_the_turned_block_field():
    # every block turns, r1 and r4 among them, alone or in a convolution
    field = parse_surface("r1@theta=0.5").field
    assert isinstance(field, RotatedField)
    assert field == block_field("r1", 0.5) == RotatedField(block_field("r1"),
                                                           0.5)
    assert parse_surface("conv(1*r3, 1*r4@theta=0.5)").field == sum_fields(
        [(1.0, block_field("r3")), (1.0, block_field("r4", 0.5))])


def test_nested_sums_are_split_in_one_pass(monkeypatch):
    # count the characters handed to the splitters: a depth-d nested
    # sum(...) split level by level visits O(d^2) of them
    visited = []
    for name in ("_split_top", "_paren_groups"):
        def counting(text, *args, _split=getattr(grammar, name, None)):
            visited.append(len(text))
            return _split(text, *args)
        monkeypatch.setattr(grammar, name, counting, raising=False)
    depth = 200
    spec = "sum(" + "2*sum(" * depth + "poly(x^2)" + ")" * (depth + 1)
    F = parse_field(spec)
    assert F.value(0.5, 0.0) == 0.25 * 2.0 ** depth
    assert sum(visited) <= 2 * len(spec)


def _split_top(text):
    """Reference splitter: the comma-separated items of `text` outside
    parentheses, one character at a time."""
    parts = []
    depth = 0
    cur = []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise GrammarError("unbalanced parentheses in %r" % (text,))
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if depth != 0:
        raise GrammarError("unbalanced parentheses in %r" % (text,))
    parts.append("".join(cur))
    return parts


_BRACKETED = st.text(alphabet="(),ab", max_size=16)


@settings(max_examples=1000, deadline=None)
@given(prefix=_BRACKETED, body=_BRACKETED, suffix=_BRACKETED)
def test_items_read_from_the_one_scan_split_as_the_reference(prefix, body,
                                                             suffix):
    # the body sits in a call "(...)" anywhere in the text, whatever
    # brackets come before or after it, balanced or not
    text = prefix + "(" + body + ")" + suffix
    lo = len(prefix) + 1
    hi = lo + len(body)
    try:
        want = _split_top(body)
    except GrammarError as exc:
        with pytest.raises(GrammarError) as got:
            grammar._items(text, lo, hi, grammar._paren_groups(text))
        assert str(got.value) == str(exc)
    else:
        ranges = grammar._items(text, lo, hi, grammar._paren_groups(text))
        assert [text[a:b] for a, b in ranges] == want


@pytest.mark.parametrize("body", ["a,(b", "a),(b", "(a,b", "a,b)", ")a(",
                                  "(()", "())("])
def test_items_of_an_unbalanced_body_name_the_body(body):
    text = "f(" + body + ")"
    with pytest.raises(GrammarError) as exc:
        grammar._items(text, 2, len(text) - 1, grammar._paren_groups(text))
    assert str(exc.value) == "unbalanced parentheses in %r" % (body,)
    with pytest.raises(GrammarError, match="unbalanced"):
        _split_top(body)


@pytest.mark.parametrize("prefix", ["", "field:"])
def test_a_guard_is_applied_once_per_parse(monkeypatch, prefix):
    # guarding every sum(...) level re-walked the subtree below it, so a
    # guarded parse made O(d^2) with_guard calls at nesting depth d
    calls = []
    for cls in (ScalarField, SumField):
        def counting(self, eps, _with_guard=cls.with_guard):
            calls.append(type(self).__name__)
            return _with_guard(self, eps)
        monkeypatch.setattr(cls, "with_guard", counting)
    parse = parse_field if prefix == "" else \
        (lambda s, **kw: parse_surface("field:" + s, **kw).field)
    for depth in (10, 50, 150):
        spec = ("sum(" + "2*sum(" * depth + "poly(x^2), 0.5*elliptic(a1=1)"
                + ")" * (depth + 1))
        del calls[:]
        guarded = parse(spec, guard=0.25)
        # one walk: each of the depth + 1 sums and the two leaves once
        assert len(calls) == depth + 3
        assert guarded == parse(spec).with_guard(0.25)
        assert guarded.guard == 0.25 and guarded != parse(spec)

"""Parsers for the surface and field specification strings of the CLI.

Surface specs:   r1 | r3@theta=0.5 | r3~@theta=0.5 | ruled(A,B,C,D)
                 | conv(1.0*r1, 0.5*r2, 0.3*r3@theta=0.4) | field:<field>
Field specs:     elliptic(a1=1,a3=-1) | hyperbolic(...) | parabolic(...)
                 | exceptional(...) | poly(x^2*y - 0.5*x) | sum(w*spec, ...)

Whitespace is ignored everywhere.  Unknown names and unknown keyword
coefficients raise GrammarError, as does a nonzero branch on a spec with no
elliptic(...) term whose Arctan coefficients a1..a4 are not all zero, the
only term it shifts.  `parse_number` is the one
number reader, for spec strings and command-line values alike.

hyperbolic(...) reads its radial basis alpha1..alpha4, beta1..beta4 and
gamma1..gamma4, and also the Cartesian names of its reduced form, each a
multiple of one basis coefficient that it adds into: a1, a2 and a3 are
gamma4/2, alpha2/2 and gamma3/2; b1, b2, c1 and c2 are beta3, alpha3,
beta4 and alpha4.  A sum that is not finite is a GrammarError.

Each spec is scanned for its brackets once (`_paren_groups`): every call
body, be it field keywords, `sum(...)`, `conv(...)` or `ruled(...)`, reads
its comma-separated items from that scan (`_items`), however deep it nests.

The guard (`--config guard`) is set here, as each part is built: each
block, convolution term and parsed field takes it; `ruled(...)` refuses it.
"""

from __future__ import annotations

import dataclasses
import math
import re

from .errors import GrammarError
from .fields import (
    EllipticField,
    ExceptionalField,
    GUARD_EPS,
    HyperbolicField,
    ParabolicField,
    SumField,
    make_polynomial_field,
    sum_fields,
)
from .reconstruct import FieldSurface
from .surfaces import (BLOCK_NAMES, ConvolutionSurface, RuledPatch,
                       building_block)

GRAMMAR_HELP = """\
surface spec grammar:
  <block>                 one of %s
  <block>@theta=<num>     the block rotated by theta (radians)
  ruled(A,B,C,D)          the ruled patch (A p, B p, C p + D cos 2p) + l (sin p, cos p, 0)
  conv(w1*<block>, ...)   weighted convolution of blocks (each may carry @theta=...)
  field:<field spec>      reconstruction of a scalar field

field spec grammar:
  elliptic(a1=..,a2=..,a3=..,a4=..,b1=..,b2=..,b3=..,c1=..,c2=..,c3=..,d1=..,d2=..)
  hyperbolic(a1..a3, b1, b2, c1, c2, alpha1..alpha4, beta1..beta4, gamma1..gamma4)
  parabolic(alpha0..alpha3, beta0..beta3, gamma0..gamma3)
  exceptional(a=..,b=..,c=..,d=..,A=..,B=..,C=..,D=..)
  poly(<monomial sum>)    e.g. poly(x^2*y - 0.5*x + 3)
  sum(w1*<field spec>, w2*<field spec>, ...)

--branch k shifts the Arctan term of elliptic(...) fields by k*pi; only a
field: spec with an elliptic(...) term with a nonzero a1..a4 takes k != 0.
""" % (", ".join(BLOCK_NAMES),)

_FIELD_CLASSES = {
    "elliptic": EllipticField,
    "hyperbolic": HyperbolicField,
    "parabolic": ParabolicField,
    "exceptional": ExceptionalField,
}

# hyperbolic(...)'s Cartesian names: (basis coefficient, factor)
_HYPERBOLIC_FOLD = {
    "a1": ("gamma4", 2.0), "a2": ("alpha2", 2.0), "a3": ("gamma3", 2.0),
    "b1": ("beta3", 1.0), "b2": ("alpha3", 1.0), "c1": ("beta4", 1.0),
    "c2": ("alpha4", 1.0)}

# a spec names the coefficients; `guard` and the elliptic `branch`
# (keyword-only) are set by the caller
_FIELD_KEYS = {
    kind: tuple(f.name for f in dataclasses.fields(cls) if not f.kw_only)
    for kind, cls in _FIELD_CLASSES.items()
}
_FIELD_KEYS["hyperbolic"] = (*_HYPERBOLIC_FOLD, *_FIELD_KEYS["hyperbolic"])

# the one number syntax: spec numbers, weights and command-line values
_NUM = r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
_NUM_RE = re.compile(_NUM)


def _strip(spec: str) -> str:
    return re.sub(r"\s+", "", spec)


def parse_number(tok: str, where: str) -> float:
    """The finite number written as `tok`; the one number syntax of the
    package, for spec strings and command-line values alike."""
    if not _NUM_RE.fullmatch(tok):
        raise GrammarError("expected a number in %s, got %r" % (where, tok))
    value = float(tok)
    if not math.isfinite(value):
        raise GrammarError("number out of range in %s: %r" % (where, tok))
    return value


def _paren_groups(text: str) -> dict:
    """One pass over `text`: for the index of each "(", the index of its
    ")" and of the commas directly inside the pair."""
    groups = {}
    stack = []
    for i, ch in enumerate(text):
        if ch == "(":
            stack.append((i, []))
        elif ch == ")":
            if stack:
                start, commas = stack.pop()
                groups[start] = (i, commas)
        elif ch == "," and stack:
            stack[-1][1].append(i)
    return groups


def _call_body(text: str, lo: int, hi: int, name: str):
    """The index range of the body of the call `name(...)` spelled by
    text[lo:hi]."""
    if not (text.startswith(name + "(", lo, hi) and text.endswith(")", lo, hi)):
        raise GrammarError("malformed %s(...) spec: %r" % (name, text[lo:hi]))
    return lo + len(name) + 1, hi - 1


def _items(text: str, lo: int, hi: int, groups: dict):
    """The index ranges of the comma-separated items of the call body
    text[lo:hi], read from `groups = _paren_groups(text)`.  The body is
    balanced exactly when the "(" before it pairs with the ")" after it,
    and then that pair's direct commas are the body's top-level ones."""
    close, commas = groups.get(lo - 1, (None, []))
    if close != hi:
        raise GrammarError("unbalanced parentheses in %r" % (text[lo:hi],))
    return list(zip([lo] + [c + 1 for c in commas], commas + [hi]))


def _kwargs(text: str, lo: int, hi: int, groups: dict, allowed,
            where: str) -> dict:
    out = {}
    if lo == hi:
        return out
    for a, b in _items(text, lo, hi, groups):
        item = text[a:b]
        if "=" not in item:
            raise GrammarError(
                "expected key=value in %s, got %r" % (where, item)
            )
        key, val = item.split("=", 1)
        if key not in allowed:
            raise GrammarError(
                "unknown key %r in %s (allowed: %s)"
                % (key, where, ", ".join(allowed))
            )
        if key in out:
            raise GrammarError("duplicate key %r in %s" % (key, where))
        out[key] = parse_number(val, where)
    return out


# -- polynomial bodies -------------------------------------------------


def _split_terms(body: str):
    terms = []
    cur = ""
    for i, ch in enumerate(body):
        if ch in "+-" and i > 0 and body[i - 1] not in "eE^*+-":
            terms.append(cur)
            cur = ch
        else:
            cur += ch
    terms.append(cur)
    return [t for t in terms if t not in ("", "+")]


def _parse_monomial_term(term: str):
    sign = 1.0
    while term and term[0] in "+-":
        if term[0] == "-":
            sign = -sign
        term = term[1:]
    if term == "":
        raise GrammarError("empty polynomial term")
    coeff = sign
    dx = dy = 0
    for factor in term.split("*"):
        if factor == "":
            raise GrammarError("empty factor in polynomial term %r" % (term,))
        m = re.match(r"^([xy])(?:\^(\d+))?$", factor)
        if m:
            k = int(m.group(2) or 1)
            if m.group(1) == "x":
                dx += k
            else:
                dy += k
        else:
            coeff *= parse_number(factor, "poly(...)")
    return (dx, dy), coeff


def _parse_poly(body: str):
    if body == "":
        raise GrammarError("poly(...) needs at least one term")
    coeffs = {}
    for term in _split_terms(body):
        key, c = _parse_monomial_term(term)
        coeffs[key] = coeffs.get(key, 0.0) + c
    if not all(math.isfinite(c) for c in coeffs.values()):
        raise GrammarError("polynomial coefficient out of range in %r" % (body,))
    return make_polynomial_field(coeffs)


# -- field specs -------------------------------------------------------


_WEIGHT_RE = re.compile(r"(%s)\*" % _NUM)
_KIND_RE = re.compile(r"([a-z]+)\(")


def _weight(text: str, lo: int, hi: int):
    """The weight `w` of the item text[lo:hi] spelled `w*rest` if w parses
    as a number, else 1, and the index where the rest starts."""
    m = _WEIGHT_RE.match(text, lo, hi)
    if m:
        return parse_number(m.group(1), "weight"), m.end()
    return 1.0, lo


def _check_branch(spec: str, branch: int, field):
    """Refuse a nonzero branch where it would change nothing: unless some
    elliptic(...) term of the parsed `field` (None: a spec other than
    field:, which takes no branch) has an Arctan term, a nonzero a1..a4."""
    if branch and not _has_arctan(field):
        why = ("and %r has none" if field is not None else
               "and only field: specs take a branch, not %r")
        raise GrammarError("branch %d shifts the Arctan of elliptic(...) "
                           "terms with a nonzero a1..a4, " % branch
                           + why % (spec,))


def _has_arctan(field) -> bool:
    if isinstance(field, SumField):
        return any(_has_arctan(f) for _, f in field.terms)
    return isinstance(field, EllipticField) and any(
        c != 0.0 for c in (field.a1, field.a2, field.a3, field.a4))


def _fold_hyperbolic(kw: dict) -> dict:
    """`kw` with each Cartesian name's value, times its factor, added into
    its basis coefficient.  The jet halves 2·a + γ to a + γ/2 exactly, so
    it keeps the bits of the Cartesian form's sums."""
    for name, (basis, factor) in _HYPERBOLIC_FOLD.items():
        if name in kw:
            value = factor * kw.pop(name) + kw.get(basis, 0.0)
            if not math.isfinite(value):
                raise GrammarError("hyperbolic(...) coefficient %s folds into"
                                   " %s out of range" % (name, basis))
            kw[basis] = value
    return kw


def parse_field(spec: str, *, branch: int = 0, guard: float = None):
    """Field object from a field spec string."""
    spec = _strip(spec)
    f = _parse_field(spec, 0, len(spec), _paren_groups(spec), branch)
    _check_branch(spec, branch, f)
    return f if guard is None else f.with_guard(float(guard))


def _parse_field(text, lo, hi, groups, branch):
    """The field spelled by text[lo:hi]; `groups` is `_paren_groups(text)`,
    so nested sum(...) bodies are split without scanning them again."""
    if lo == hi:
        raise GrammarError("empty field spec")
    m = _KIND_RE.match(text, lo, hi)
    kind = m.group(1) if m else None
    if kind == "poly":
        a, b = _call_body(text, lo, hi, kind)
        f = _parse_poly(text[a:b])
    elif kind == "sum":
        terms = []
        for a, b in _items(text, *_call_body(text, lo, hi, kind), groups):
            w, a = _weight(text, a, b)
            terms.append((w, _parse_field(text, a, b, groups, branch)))
        f = sum_fields(terms)
    elif kind in _FIELD_CLASSES:
        kw = _kwargs(text, *_call_body(text, lo, hi, kind), groups,
                     _FIELD_KEYS[kind], kind + "(...)")
        if kind == "elliptic":
            kw["branch"] = int(branch)
        elif kind == "hyperbolic":
            kw = _fold_hyperbolic(kw)
        f = _FIELD_CLASSES[kind](**kw)
    else:
        raise GrammarError(
            "unknown field family in %r (allowed: %s)"
            % (text[lo:hi], ", ".join([*_FIELD_CLASSES, "poly", "sum"]))
        )
    return f


# -- surface specs -----------------------------------------------------


def _parse_block_ref(spec: str):
    name = spec
    theta = None
    if "@" in spec:
        name, _, tail = spec.partition("@")
        if not tail.startswith("theta="):
            raise GrammarError("expected @theta=<num> in %r" % (spec,))
        theta = parse_number(tail[len("theta="):], "theta")
    if name not in BLOCK_NAMES:
        raise GrammarError(
            "unknown building block %r (allowed: %s)"
            % (name, ", ".join(BLOCK_NAMES))
        )
    return name, theta


def parse_surface(spec: str, *, branch: int = 0, guard: float = None):
    """Surface object from a surface spec string, each of its fields built
    with `guard` (None: `GUARD_EPS`); a `field:` spec hands the rest of
    its string, the branch and the guard to `parse_field`."""
    spec = _strip(spec)
    if spec == "":
        raise GrammarError("empty surface spec")
    if spec.startswith("field:"):
        return FieldSurface(parse_field(spec[len("field:"):], branch=branch,
                                        guard=guard))
    _check_branch(spec, branch, None)
    groups = _paren_groups(spec)
    if spec.startswith("ruled("):
        items = _items(spec, *_call_body(spec, 0, len(spec), "ruled"), groups)
        if len(items) != 4:
            raise GrammarError("ruled(...) takes exactly A,B,C,D")
        if guard is not None:
            # a (phi, lambda) patch has no field, so no guard to apply
            raise GrammarError("ruled(...) takes no guard")
        return RuledPatch(*(parse_number(spec[a:b], "ruled(...)")
                            for a, b in items))
    guard = GUARD_EPS if guard is None else float(guard)
    if not spec.startswith("conv("):
        return building_block(*_parse_block_ref(spec), guard)
    terms = []
    for a, b in _items(spec, *_call_body(spec, 0, len(spec), "conv"), groups):
        w, a = _weight(spec, a, b)
        terms.append((w, building_block(*_parse_block_ref(spec[a:b]), guard)))
    return ConvolutionSurface(terms)

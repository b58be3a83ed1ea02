"""Parsers for the surface and field specification strings of the CLI.

Surface specs:   r1 | r3@theta=0.5 | r3~@theta=0.5 | ruled(A,B,C,D)
                 | conv(1.0*r1, 0.5*r2, 0.3*r3@theta=0.4) | field:<field>
Field specs:     elliptic(a1=1,a3=-1) | hyperbolic(...) | parabolic(...)
                 | exceptional(...) | poly(x^2*y - 0.5*x) | sum(w*spec, ...)

Whitespace is ignored everywhere.  Unknown names and unknown keyword
coefficients raise GrammarError.  `parse_number` is the one number reader,
for spec strings and command-line values alike.
"""

from __future__ import annotations

import dataclasses
import math
import re

from .errors import GrammarError
from .fields import (
    EllipticField,
    ExceptionalField,
    HyperbolicField,
    ParabolicField,
    make_polynomial_field,
    sum_fields,
)
from .reconstruct import reconstruct_surface
from .surfaces import BLOCK_NAMES, building_block, convolve, ruled_surface

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
""" % (", ".join(BLOCK_NAMES),)

_FIELD_CLASSES = {
    "elliptic": EllipticField,
    "hyperbolic": HyperbolicField,
    "parabolic": ParabolicField,
    "exceptional": ExceptionalField,
}

# a spec names the coefficients; `guard` and `branch` (keyword-only) are
# set by the caller
_FIELD_KEYS = {
    kind: tuple(f.name for f in dataclasses.fields(cls) if not f.kw_only)
    for kind, cls in _FIELD_CLASSES.items()
}

_NUM_RE = re.compile(r"^[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")


def _strip(spec: str) -> str:
    return re.sub(r"\s+", "", spec)


def parse_number(tok: str, where: str) -> float:
    """The finite number written as `tok`; the one number syntax of the
    package, for spec strings and command-line values alike."""
    if not _NUM_RE.match(tok):
        raise GrammarError("expected a number in %s, got %r" % (where, tok))
    value = float(tok)
    if not math.isfinite(value):
        raise GrammarError("number out of range in %s: %r" % (where, tok))
    return value


def _split_top(text: str, sep: str = ","):
    """Split on `sep` outside parentheses."""
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
        if ch == sep and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if depth != 0:
        raise GrammarError("unbalanced parentheses in %r" % (text,))
    parts.append("".join(cur))
    return parts


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


def _call_body(spec: str, name: str) -> str:
    if not (spec.startswith(name + "(") and spec.endswith(")")):
        raise GrammarError("malformed %s(...) spec: %r" % (name, spec))
    return spec[len(name) + 1 : -1]


def _kwargs(body: str, allowed, where: str) -> dict:
    out = {}
    if body == "":
        return out
    for item in _split_top(body):
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


_WEIGHT_RE = re.compile(r"([+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)\*")
_KIND_RE = re.compile(r"([a-z]+)\(")


def _weight_split(item: str):
    """Leading `w*rest` if w parses as a number, else weight 1."""
    m = _WEIGHT_RE.match(item)
    if m:
        return parse_number(m.group(1), "weight"), item[m.end():]
    return 1.0, item


def parse_field(spec: str, *, branch: int = 0, guard: float = None):
    """Field object from a field spec string."""
    spec = _strip(spec)
    return _parse_field(spec, 0, len(spec), _paren_groups(spec), branch,
                        guard)


def _parse_field(text, lo, hi, groups, branch, guard):
    """The field spelled by text[lo:hi]; `groups` is `_paren_groups(text)`,
    so nested sum(...) bodies are split without scanning them again."""
    if lo == hi:
        raise GrammarError("empty field spec")
    m = _KIND_RE.match(text, lo, hi)
    kind = m.group(1) if m else None
    spec = text[lo:hi]
    if kind == "poly":
        f = _parse_poly(_call_body(spec, "poly"))
    elif kind == "sum":
        if not spec.endswith(")"):
            _call_body(spec, "sum")             # raises: malformed
        start, end = lo + 3, hi - 1
        close, commas = groups.get(start, (None, []))
        if close != end:
            raise GrammarError("unbalanced parentheses in %r"
                               % (text[start + 1:end],))
        terms = []
        for a, b in zip([start] + commas, commas + [end]):
            w = _WEIGHT_RE.match(text, a + 1, b)
            weight = parse_number(w.group(1), "weight") if w else 1.0
            terms.append((weight, _parse_field(text, w.end() if w else a + 1,
                                               b, groups, branch, guard)))
        f = sum_fields(terms)
    elif kind in _FIELD_CLASSES:
        kw = _kwargs(_call_body(spec, kind), _FIELD_KEYS[kind],
                     kind + "(...)")
        if kind == "elliptic":
            kw["branch"] = int(branch)
        f = _FIELD_CLASSES[kind](**kw)
    else:
        raise GrammarError(
            "unknown field family in %r (allowed: elliptic, hyperbolic, "
            "parabolic, exceptional, poly, sum)" % (spec,)
        )
    if guard is not None:
        f = f.with_guard(float(guard))
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
    """Surface object from a surface spec string."""
    spec = _strip(spec)
    if spec == "":
        raise GrammarError("empty surface spec")
    if spec.startswith("field:"):
        return reconstruct_surface(
            parse_field(spec[len("field:"):], branch=branch, guard=guard)
        )
    if spec.startswith("ruled("):
        body = _call_body(spec, "ruled")
        parts = _split_top(body)
        if len(parts) != 4:
            raise GrammarError("ruled(...) takes exactly A,B,C,D")
        return ruled_surface(*(parse_number(p, "ruled(...)") for p in parts))
    if spec.startswith("conv("):
        body = _call_body(spec, "conv")
        terms = []
        for item in _split_top(body):
            w, sub = _weight_split(item)
            name, theta = _parse_block_ref(sub)
            terms.append((w, building_block(name, theta)))
        if not terms:
            raise GrammarError("conv(...) needs at least one term")
        surf = convolve(terms)
    else:
        surf = building_block(*_parse_block_ref(spec))
    return surf if guard is None else surf.with_guard(guard)

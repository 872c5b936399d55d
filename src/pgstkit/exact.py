"""Exact sparse polynomial arithmetic and exact linear algebra over Q.

Everything in this module is exact: no floating point enters any
computation. Polynomials live in ``Q[t, s1, s2]`` where ``t`` is the
distinguished spectral variable and ``s1``, ``s2`` are optional parameter
symbols. At most two parameter symbols may appear in any one polynomial;
that is all the perturbation constructions need, and the cap keeps the
multivariate gcd recursion shallow.

Representation: a polynomial is a map from exponent vectors to nonzero
rational coefficients. A coefficient is an ``int`` when it is integral and
otherwise a ``fractions.Fraction`` in lowest terms, so the fraction-free
kernels run on ints wherever the input is integral and only a division
that leaves a remainder builds a ``Fraction``. The public accessor
``constant_value`` returns a ``Fraction``. An exponent vector is a tuple
``(t_exp, *param_exps)`` aligned with the polynomial's sorted ``symbols``
tuple. The representation is canonical: zero coefficients are dropped and
symbols that do not occur are pruned, so structural equality is semantic
equality. Two private kernels work on plain term dicts over one frame (a
sorted symbol tuple): one accumulates sums of products, the other divides
exactly, popping leading terms off a heap. Operations lift to a frame, run
a kernel and canonicalize the result; a ``PolyMatrix`` lifts its nonzero
entries to its frame once, when built, so ``charpoly`` and
``krylov_min_poly`` stay in the frame.

Monomials are ordered graded lexicographically with ``t`` ranked highest.
The string form writes terms in decreasing order under that ordering and
round-trips through ``SparsePoly.parse``.

The linear algebra layer skips zero entries: a ``PolyMatrix``, from dense
rows or mappings from column to entry, keeps only its nonzero entries.
``charpoly`` is the one characteristic polynomial kernel: it takes the
power sums tr(M^k) from unit-vector Krylov runs and turns them into
coefficients by Newton's identities, and with known factors of det(tI - M)
it gives their cofactor the same way, without the determinant.
Determinants come from fraction-free Bareiss elimination with lowest-index
pivots (public and tested; no pipeline step calls it). Relative minimal
polynomials come from the same elimination on the Krylov vectors z, Mz,
M^2 z, ..., each carrying the t-polynomial that produced it. A division
that is not exact raises. A gcd first tries a modular image that can only
prove coprimality, and runs the multivariate recursion on everything else.
"""

from __future__ import annotations

import re
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import islice
from operator import add, neg, sub
from typing import Iterable, Iterator, Mapping, Sequence, Union

from .errors import (
    DomainError,
    ExactDivisionError,
    InternalConsistencyError,
    NotLinearInParamError,
    ParseError,
    StructuralError,
)

Scalar = Union[Fraction, int]
_Terms = dict[tuple[int, ...], Scalar]

MAX_PARAM_SYMBOLS = 2

_SYMBOL_RE = re.compile(r"^[A-Za-z][A-Za-z0-9_]*$")

_ZERO = 0
_ONE = 1


def _norm(c: Scalar) -> Scalar:
    """The stored form of a rational: an int if integral, else the Fraction."""
    return c.numerator if c.denominator == 1 else c


def _div(a: Scalar, b: Scalar) -> Scalar:
    """Exact quotient in stored form; ints divide with // when that is exact."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    return _norm(a / b)


def _check_symbol_name(name: str) -> str:
    if name == "t":
        raise DomainError("'t' is the spectral variable and cannot be a parameter symbol")
    if not _SYMBOL_RE.match(name):
        raise DomainError(f"bad parameter symbol {name!r}")
    return name


def _order_key(exps: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    # Graded lex. The t exponent sits first in the tuple, so on equal total
    # degree the term with the higher power of t wins the lex tie-break.
    return (sum(exps), exps)


class SparsePoly:
    """Immutable sparse polynomial in t and at most two parameter symbols."""

    __slots__ = ("_terms", "_symbols")

    def __init__(
        self,
        terms: Mapping[tuple[int, ...], Scalar] | Iterable[tuple[tuple[int, ...], Scalar]],
        symbols: Sequence[str] = (),
    ):
        symbols = tuple(symbols)
        for s in symbols:
            _check_symbol_name(s)
        if len(set(symbols)) != len(symbols):
            raise DomainError(f"duplicate symbols in {symbols!r}")
        if len(symbols) > MAX_PARAM_SYMBOLS:
            raise DomainError(f"at most {MAX_PARAM_SYMBOLS} parameter symbols supported, got {symbols!r}")
        items = terms.items() if isinstance(terms, Mapping) else terms
        width = 1 + len(symbols)
        acc: dict[tuple[int, ...], Scalar] = {}
        for exps, coeff in items:
            exps = tuple(exps)
            if len(exps) != width:
                raise StructuralError(f"exponent vector {exps!r} does not match symbols {symbols!r}")
            if any(e < 0 for e in exps):
                raise StructuralError(f"negative exponent in {exps!r}")
            c = _norm(acc.get(exps, _ZERO) + Fraction(coeff))
            if c:
                acc[exps] = c
            elif exps in acc:
                del acc[exps]
        self._terms, self._symbols = _canonical(acc, symbols)

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero() -> "SparsePoly":
        return _raw({}, ())

    @staticmethod
    def one() -> "SparsePoly":
        return _raw({(0,): _ONE}, ())

    @staticmethod
    def const(c: Scalar) -> "SparsePoly":
        c = _norm(Fraction(c))
        return _raw({(0,): c} if c else {}, ())

    @staticmethod
    def t(power: int = 1) -> "SparsePoly":
        if power < 0:
            raise StructuralError("negative power")
        return _raw({(power,): _ONE}, ())

    @staticmethod
    def sym(name: str, power: int = 1) -> "SparsePoly":
        _check_symbol_name(name)
        if power < 0:
            raise StructuralError("negative power")
        if power == 0:
            return SparsePoly.one()
        return _raw({(0, power): _ONE}, (name,))

    # -- basic queries ------------------------------------------------

    @property
    def symbols(self) -> tuple[str, ...]:
        return self._symbols

    def is_zero(self) -> bool:
        return not self._terms

    def is_one(self) -> bool:
        return self._terms == {(0,) * (1 + len(self._symbols)): _ONE}

    def is_constant(self) -> bool:
        return all(all(e == 0 for e in exps) for exps in self._terms)

    def constant_value(self) -> Fraction:
        if not self._terms:
            return Fraction(0)
        if not self.is_constant():
            raise DomainError(f"{self} is not constant")
        return Fraction(next(iter(self._terms.values())))

    def deg_t(self) -> int:
        """Degree in t; -1 for the zero polynomial."""
        if not self._terms:
            return -1
        return max(e[0] for e in self._terms)

    def deg_in(self, sym: str) -> int:
        """Degree in the parameter symbol; -1 for zero, 0 if absent."""
        if not self._terms:
            return -1
        if sym not in self._symbols:
            return 0
        k = 1 + self._symbols.index(sym)
        return max(e[k] for e in self._terms)

    def has_sym(self, sym: str) -> bool:
        return sym in self._symbols

    def is_t_free(self) -> bool:
        return self.deg_t() <= 0

    def lead_exponents(self) -> tuple[int, ...]:
        if not self._terms:
            raise DomainError("zero polynomial has no leading term")
        return max(self._terms, key=_order_key)

    def lead_coeff_t(self) -> "SparsePoly":
        """Coefficient of the highest power of t, as a t-free polynomial
        (zero for the zero polynomial, whose deg_t is -1)."""
        return self.coeff_t(self.deg_t())

    def is_monic_t(self) -> bool:
        return self.lead_coeff_t().is_one()

    def coeff_t(self, power: int) -> "SparsePoly":
        """Coefficient of t**power as a polynomial in the parameters only."""
        acc = {(0,) + e[1:]: c for e, c in self._terms.items() if e[0] == power}
        return _raw(*_canonical(acc, self._symbols))

    def t_coeffs(self) -> list["SparsePoly"]:
        """Coefficients by ascending t power, length deg_t()+1 (empty for 0)."""
        return _as_var_coeffs(self, "t")

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _sum_products(((self, _ONE_POLY), (other, _ONE_POLY)))

    __radd__ = __add__

    def __neg__(self):
        return _raw({e: -c for e, c in self._terms.items()}, self._symbols)

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _sum_products(((self, other),))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise DomainError("only nonnegative integer powers")
        out = SparsePoly.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def scale(self, c: Scalar) -> "SparsePoly":
        if not c:
            return SparsePoly.zero()
        return _raw({e: _norm(k * c) for e, k in self._terms.items()}, self._symbols)

    def divexact(self, other: "SparsePoly") -> "SparsePoly":
        """Exact division; raises ExactDivisionError if a remainder is left.

        Single-divisor multivariate division under the graded lex order.
        When ``other`` divides ``self`` in the polynomial ring the remainder
        is zero for any monomial order, so success is representation
        independent.
        """
        other = _coerce(other)
        if other.is_zero():
            raise DomainError("division by zero polynomial")
        syms = _common_symbols((self._symbols, other._symbols))
        return _raw(*_canonical(_divide(_lift(self, syms), _lift(other, syms)), syms))

    def derivative_t(self) -> "SparsePoly":
        acc: dict[tuple[int, ...], Scalar] = {}
        for e, c in self._terms.items():
            if e[0] > 0:
                acc[(e[0] - 1,) + e[1:]] = _norm(c * e[0])
        return _raw(*_canonical(acc, self._symbols))

    # -- substitution and evaluation -----------------------------------

    def subs_sym(self, sym: str, value: Union["SparsePoly", Scalar]) -> "SparsePoly":
        """Substitute a parameter symbol by a rational or another polynomial."""
        if sym not in self._symbols:
            return self
        value = _coerce(value)
        return _sum_products((c, value**k) for k, c in enumerate(_as_var_coeffs(self, sym)))

    def shift_t(self, c: Scalar) -> "SparsePoly":
        """p(t) -> p(t - c), i.e. roots move up by c (Horner in t - c)."""
        g = SparsePoly.t() - SparsePoly.const(c)
        out = SparsePoly.zero()
        for k in reversed(self.t_coeffs()):
            out = out * g + k
        return out

    def eval_float(self, t: float | None = None, params: Mapping[str, float] | None = None) -> float:
        """Floating point evaluation; every occurring variable must be bound."""
        params = params or {}
        if t is None and self.deg_t() > 0:
            raise DomainError("t occurs but no value for t was given")
        missing = [s for s in self._symbols if s not in params]
        if missing:
            raise DomainError(f"no value for symbols {missing!r}")
        total = 0.0
        for e, c in self._terms.items():
            v = float(c)
            if e[0]:
                v *= float(t) ** e[0]
            for s, p in zip(self._symbols, e[1:]):
                if p:
                    v *= float(params[s]) ** p
            total += v
        return total

    # -- equality, hashing, formatting -----------------------------------

    def __eq__(self, other) -> bool:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._symbols == other._symbols and self._terms == other._terms

    def __hash__(self) -> int:
        return hash((self._symbols, frozenset(self._terms.items())))

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __repr__(self) -> str:
        return f"SparsePoly({str(self)!r})"

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        names = ("t",) + self._symbols
        parts: list[str] = []
        for exps in sorted(self._terms, key=_order_key, reverse=True):
            c = self._terms[exps]
            mono = "*".join(
                n if p == 1 else f"{n}^{p}" for n, p in zip(names, exps) if p > 0
            )
            if not mono:
                body = str(abs(c))
            elif abs(c) == 1:
                body = mono
            else:
                body = f"{abs(c)}*{mono}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    @staticmethod
    def parse(text: str) -> "SparsePoly":
        """Parse the canonical string form (and mild variations of it)."""
        return _parse_poly(text)


def _canonical(
    acc: dict[tuple[int, ...], Scalar], symbols: tuple[str, ...]
) -> tuple[dict[tuple[int, ...], Scalar], tuple[str, ...]]:
    """Drop unused symbols and sort the remaining ones alphabetically."""
    if not acc:
        return {}, ()
    kept = sorted((s, 1 + i) for i, s in enumerate(symbols) if any(e[1 + i] for e in acc))
    new_syms = tuple(s for s, _ in kept)
    if len(new_syms) > MAX_PARAM_SYMBOLS:
        raise DomainError(f"operation would mix more than {MAX_PARAM_SYMBOLS} symbols: {new_syms!r}")
    if new_syms == symbols:
        return acc, symbols
    pos = [k for _, k in kept]
    return {(e[0], *[e[k] for k in pos]): c for e, c in acc.items()}, new_syms


def _raw(terms: dict[tuple[int, ...], Scalar], symbols: tuple[str, ...]) -> SparsePoly:
    p = object.__new__(SparsePoly)
    p._terms = terms
    p._symbols = symbols
    return p


_ONE_POLY = _raw({(0,): _ONE}, ())


def _coerce(x) -> SparsePoly:
    if isinstance(x, SparsePoly):
        return x
    if isinstance(x, (int, Fraction)):
        return SparsePoly.const(x)
    return NotImplemented


def _common_symbols(groups: Iterable[Sequence[str]]) -> tuple[str, ...]:
    """Sorted union of the symbol groups: a frame, which may exceed the cap."""
    return tuple(sorted({s for g in groups for s in g}))


def _lift(p: SparsePoly, syms: tuple[str, ...]) -> _Terms:
    """Terms of p with exponent vectors over syms, a sorted superset of p's symbols."""
    if p._symbols == syms:
        return p._terms
    pos = {s: 1 + i for i, s in enumerate(p._symbols)}
    return {(e[0], *[e[pos[s]] if s in pos else 0 for s in syms]): c for e, c in p._terms.items()}


def _sum_products(pairs: Iterable[tuple[SparsePoly, SparsePoly]]) -> SparsePoly:
    """Sum of x*y over the pairs: lift every factor to the sorted union of
    the symbols, run the accumulate kernel, canonicalize once."""
    pairs = list(pairs)
    syms = _common_symbols(p._symbols for pair in pairs for p in pair)
    lifted = [(_lift(x, syms), _lift(y, syms)) for x, y in pairs]
    return _raw(*_canonical(_accumulate(lifted), syms))


def _accumulate(pairs: Iterable[tuple[_Terms, _Terms]]) -> _Terms:
    """The accumulate kernel: sum of a*b over pairs of term dicts of one
    width, in stored form. It is the one loop that combines terms."""
    acc: _Terms = {}
    for a, b in pairs:
        # A term of b at the exponent origin needs no exponent sum; a
        # coefficient of 1 needs no product.
        bl = [(eb, cb, any(eb), cb != 1) for eb, cb in b.items()]
        for ea, ca in a.items():
            for eb, cb, shift, scale in bl:
                e = tuple(map(add, ea, eb)) if shift else ea
                c = ca * cb if scale else ca
                acc[e] = acc[e] + c if e in acc else c
    return {e: _norm(c) for e, c in acc.items() if c}


def _divide(a: _Terms, b: _Terms) -> _Terms:
    """The division kernel: the exact quotient a/b of term dicts of one width.
    Leading terms of the remainder come off a min-heap of negated graded-lex
    keys, skipping stale ones; a remainder raises ExactDivisionError."""
    lt_b = max(b, key=_order_key)
    rem = dict(a)
    heap = [(-sum(e), tuple(map(neg, e)), e) for e in rem]
    heapify(heap)
    quot: _Terms = {}
    while rem:
        if (lt_r := heappop(heap)[2]) not in rem:
            continue  # stale: cancelled after it was pushed
        diff = tuple(map(sub, lt_r, lt_b))
        if min(diff) < 0:
            raise ExactDivisionError("division leaves a remainder")
        c = quot[diff] = _div(rem[lt_r], b[lt_b])
        for eb, cb in b.items():
            e = tuple(map(add, diff, eb))
            if e not in rem:
                rem[e] = -c * cb
                heappush(heap, (-sum(e), tuple(map(neg, e)), e))
            elif s := rem[e] - c * cb:
                rem[e] = s
            else:
                del rem[e]
    return quot


def _as_var_coeffs(p: SparsePoly, var_name: str) -> list[SparsePoly]:
    """Coefficients of p viewed as univariate in var_name (t or a symbol), by
    ascending power: one pass that buckets the terms by that power. Zero
    gives [] in t; a symbol that does not occur gives [p]."""
    if var_name == "t":
        k, rest = 0, p._symbols
    elif var_name in p._symbols:
        k = 1 + p._symbols.index(var_name)
        rest = p._symbols[: k - 1] + p._symbols[k:]
    else:
        return [p]
    buckets: dict[int, dict[tuple[int, ...], Scalar]] = {}
    for e, c in p._terms.items():
        rest_exps = (0,) + e[1:] if k == 0 else e[:k] + e[k + 1 :]
        buckets.setdefault(e[k], {})[rest_exps] = c
    return [
        _raw(*_canonical(buckets.get(j, {}), rest)) for j in range(max(buckets, default=-1) + 1)
    ]


# ---------------------------------------------------------------------------
# parsing


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+(?:/\d+)?)|(?P<name>[A-Za-z][A-Za-z0-9_]*)|(?P<op>[\^*+-]))"
)


def _parse_poly(text: str) -> SparsePoly:
    if not isinstance(text, str) or not text.strip():
        raise ParseError("empty polynomial text")
    tokens: list[tuple[str, str]] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise ParseError(f"bad character in polynomial at {text[pos:]!r}")
            break
        pos = m.end()
        tokens.append((m.lastgroup, m.group(m.lastgroup)))

    result = SparsePoly.zero()
    i = 0
    n = len(tokens)
    sign = 1
    while i < n:
        # leading sign; every term after the first has one, where the factor loop stopped
        if tokens[i][0] == "op" and tokens[i][1] in "+-":
            sign = -1 if tokens[i][1] == "-" else 1
            i += 1
            if i >= n:
                raise ParseError(f"dangling sign in {text!r}")

        coeff = Fraction(1)
        factors: list[tuple[str, int]] = []
        saw_factor = False
        while i < n:
            kind, val = tokens[i]
            if kind == "num":
                try:
                    coeff *= Fraction(val)
                except ZeroDivisionError:
                    raise ParseError(f"zero denominator in {text!r}") from None
                saw_factor = True
                i += 1
            elif kind == "name":
                power = 1
                i += 1
                if i + 1 < n and tokens[i] == ("op", "^") and tokens[i + 1][0] == "num":
                    if "/" in tokens[i + 1][1]:
                        raise ParseError(f"fractional exponent in {text!r}")
                    power = int(tokens[i + 1][1])
                    i += 2
                factors.append((val, power))
                saw_factor = True
            elif kind == "op" and val == "*":
                i += 1
                if i >= n:
                    raise ParseError(f"dangling '*' in {text!r}")
            elif kind == "op" and val in "+-":
                break
            else:
                raise ParseError(f"unexpected token {val!r} in {text!r}")
        if not saw_factor:
            raise ParseError(f"empty term in {text!r}")

        term = SparsePoly.const(sign * coeff)
        for name, power in factors:
            if name == "t":
                term = term * SparsePoly.t(power)
            else:
                term = term * SparsePoly.sym(name) ** power
        result = result + term
    return result


# ---------------------------------------------------------------------------
# gcd machinery


def _normalize_sign(p: SparsePoly) -> SparsePoly:
    """Scale by a rational so the graded-lex leading coefficient is 1."""
    if p.is_zero():
        return p
    return p.scale(Fraction(1, p._terms[p.lead_exponents()]))


def _prem(f: list[SparsePoly], g: list[SparsePoly]) -> list[SparsePoly]:
    """Pseudo-remainder of coefficient lists (univariate views, deg f >= deg g)."""
    r = list(f)
    dg = len(g) - 1
    lc = g[-1]
    while len(r) - 1 >= dg and any(not c.is_zero() for c in r):
        while r and r[-1].is_zero():
            r.pop()
        if len(r) - 1 < dg:
            break
        shift = len(r) - 1 - dg
        minus_lead = -r[-1]
        r = [c * lc for c in r[:shift]] + [
            _sum_products(((c, lc), (minus_lead, gj))) for c, gj in zip(r[shift:], g)
        ]
        while r and r[-1].is_zero():
            r.pop()
    return r


def _gcd_rec(f: SparsePoly, g: SparsePoly) -> SparsePoly:
    """Multivariate gcd over Q, normalized to leading coefficient 1.

    Primitive pseudo-remainder sequence in the highest variable present,
    recursing into the coefficient ring for contents. Constants are units,
    so any nonzero constant input short-circuits to 1.
    """
    if f.is_zero():
        return _normalize_sign(g)
    if g.is_zero():
        return _normalize_sign(f)
    if f.is_constant() or g.is_constant():
        return SparsePoly.one()

    f = _normalize_sign(f)
    g = _normalize_sign(g)
    # main variable: the greatest symbol (every listed symbol occurs), else t
    main = max(f.symbols + g.symbols, default="t")

    def content_of(coeffs: list[SparsePoly]) -> SparsePoly:
        c = SparsePoly.zero()
        for x in filter(None, coeffs):
            if (c := _gcd_rec(c, x)).is_one():
                break
        return c

    def divided(coeffs: list[SparsePoly], c: SparsePoly) -> list[SparsePoly]:
        return coeffs if c.is_one() else [x.divexact(c) for x in coeffs]

    fc = _as_var_coeffs(f, main)
    gc = _as_var_coeffs(g, main)
    if len(fc) == 1:
        # f is free of main: gcd(f, content_main(g))
        return _gcd_rec(f, content_of(gc))
    if len(gc) == 1:
        return _gcd_rec(g, f)
    cf, cg = content_of(fc), content_of(gc)
    a, b = divided(fc, cf), divided(gc, cg)
    if len(a) < len(b):
        a, b = b, a
    while (r := _prem(a, b)) and any(r):
        if len(r) == 1:
            return _normalize_sign(_gcd_rec(cf, cg))
        a, b = b, divided(r, content_of(r))
    h = divided(b, content_of(b))
    cc = _gcd_rec(cf, cg)
    powers = (SparsePoly.t(k) if main == "t" else SparsePoly.sym(main, k) for k in range(len(h)))
    return _normalize_sign(_sum_products(zip(h, powers)) * cc)


_PROBE_PRIME = 2**61 - 1


def _probe_value(name: str) -> int:
    """The value a symbol takes in ``_coprime_probe``: fixed by its name alone."""
    return int.from_bytes(name.encode(), "big") * 0x9E3779B97F4A7C15 % _PROBE_PRIME


def _coprime_probe(p: SparsePoly, q: SparsePoly) -> bool:
    """True only if gcd(p, q) = 1; False says nothing.

    A modular image (Brown, J. ACM 18, 1971): both map into F_l[t],
    l = 2^61 - 1, each symbol to ``_probe_value`` of its name and each
    coefficient to its residue, and Euclid runs on int lists. If p or q has
    a constant leading t-coefficient with a nonzero residue, a common factor
    can be taken monic in t over the UFD Z_(l)[symbols], so its image divides
    both images at full t-degree: coprime images prove coprime inputs. A
    denominator divisible by l skips the probe.
    """
    ell = _PROBE_PRIME
    frame = _common_symbols((p._symbols, q._symbols))
    point = [_probe_value(s) for s in frame]
    images, kept_degree = [], False
    for f in (p, q):
        img = [0] * (f.deg_t() + 1)
        for e, c in _lift(f, frame).items():
            if type(c) is Fraction:
                if not c.denominator % ell:
                    return False
                c = c.numerator * pow(c.denominator, -1, ell)
            for x, k in zip(point, e[1:]):
                c *= pow(x, k, ell)
            img[e[0]] = (img[e[0]] + c) % ell
        kept_degree = kept_degree or bool(img and img[-1] and f.lead_coeff_t().is_constant())
        while img and not img[-1]:
            img.pop()
        images.append(img)
    if not kept_degree:
        return False
    a, b = images
    while b:  # Euclid in F_l[t], coefficients by ascending power
        inv = pow(b[-1], -1, ell)
        while len(a) >= len(b):
            lead, s = a[-1] * inv % ell, len(a) - len(b)
            for i, y in enumerate(b):
                a[s + i] = (a[s + i] - lead * y) % ell
            while a and not a[-1]:
                a.pop()
        a, b = b, a
    return len(a) == 1


def poly_gcd_t(p: SparsePoly, q: SparsePoly) -> SparsePoly:
    """Gcd of two polynomials, normalized deterministically.

    If the leading t-coefficient of the gcd is constant the result is monic
    in t; otherwise the graded-lex leading coefficient is scaled to 1.
    Coprime inputs give the constant 1.
    """
    if p.is_zero() and q.is_zero():
        raise DomainError("gcd(0, 0) is undefined")
    if _coprime_probe(p, q):
        return SparsePoly.one()
    g = _gcd_rec(p, q)
    if g.is_constant():
        return SparsePoly.one()
    lc = g.lead_coeff_t()
    if lc.is_constant():
        return g.scale(1 / lc.constant_value())
    return _normalize_sign(g)


# ---------------------------------------------------------------------------
# relative traces and the linear-parameter split


def poly_trace(p: SparsePoly) -> SparsePoly:
    """Sum of roots of a monic polynomial in t: minus the subleading coefficient."""
    d = p.deg_t()
    if d < 1:
        raise DomainError(f"trace needs t-degree >= 1, got {p}")
    if not p.is_monic_t():
        raise DomainError(f"trace needs a monic polynomial in t, got {p}")
    return -p.coeff_t(d - 1)


def split_linear_param(p: SparsePoly, sym: str) -> tuple[SparsePoly, SparsePoly]:
    """Write p = S + sym*R for a polynomial of degree <= 1 in sym."""
    d = p.deg_in(sym)
    if d > 1:
        raise NotLinearInParamError(f"{p} has degree {d} in {sym}")
    s, *r = _as_var_coeffs(p, sym)
    return s, r[0] if r else SparsePoly.zero()


def is_irreducible_linear_param(p: SparsePoly, sym: str) -> bool:
    """Irreducibility over Q(other symbols) of a monic p linear in sym.

    With p = S + sym*R and deg-in-sym exactly 1, any factorization must put
    sym in a single factor, which forces the sym-free cofactor to divide
    both S and R. So p is irreducible iff gcd(S, R) is constant.
    """
    if not p.is_monic_t():
        raise DomainError(f"need a monic polynomial in t, got {p}")
    if p.deg_in(sym) != 1:
        raise NotLinearInParamError(f"{p} must have degree exactly 1 in {sym}")
    s, r = split_linear_param(p, sym)
    return _coprime_probe(s, r) or _gcd_rec(s, r).is_constant()


# ---------------------------------------------------------------------------
# exact linear algebra


class PolyMatrix:
    """Symmetric matrix with t-free polynomial diagonal and rational off-diagonal,
    from rows that are sequences of n entries or mappings from column to entry
    (absent entries are zero). ``_rows[i]`` maps each nonzero column to its
    terms over the frame; zero entries are not kept."""

    __slots__ = ("_n", "_frame", "_rows")

    def __init__(self, rows):
        rows = [row if isinstance(row, Mapping) else list(row) for row in rows]
        n = self._n = len(rows)
        if any(isinstance(row, list) and len(row) != n for row in rows):
            raise StructuralError("matrix is not square")
        items = (row.items() if isinstance(row, Mapping) else enumerate(row) for row in rows)
        nonzero = [{j: p for j, x in row if (p := _coerce_entry(x))} for row in items]
        for i, row in enumerate(nonzero):  # one pass over the nonzero entries
            for j, x in row.items():
                _check_indices(n, j)
                if not x.is_t_free():
                    raise StructuralError(f"entry ({i},{j}) involves t")
                if i != j and not x.is_constant():
                    raise StructuralError(f"off-diagonal entry ({i},{j}) carries a parameter symbol")
                if nonzero[j].get(i) != x:
                    raise StructuralError(f"matrix is not symmetric at ({max(i, j)},{min(i, j)})")
        frame = self._frame = _common_symbols(x._symbols for row in nonzero for x in row.values())
        self._rows = tuple({j: _lift(x, frame) for j, x in row.items()} for row in nonzero)

    @property
    def dimension(self) -> int:
        return self._n

    def entry(self, i: int, j: int) -> SparsePoly:
        _check_indices(self._n, i, j)
        x = self._rows[i].get(j)
        return _raw(*_canonical(x, self._frame)) if x else SparsePoly.zero()

    def symbols(self) -> tuple[str, ...]:
        return self._frame

    def delete(self, drop: Iterable[int]) -> "PolyMatrix":
        drop_set = set(drop)
        _check_indices(self._n, *drop_set)
        new = {i: k for k, i in enumerate(i for i in range(self._n) if i not in drop_set)}
        return PolyMatrix([{new[j]: self.entry(i, j) for j in self._rows[i] if j in new} for i in new])


def _check_indices(n: int, *indices: int) -> None:
    for k in indices:
        if not (0 <= k < n):
            raise StructuralError(f"vertex index {k} out of range 0..{n - 1}")


def _krylov(m: PolyMatrix, z: Sequence) -> tuple[tuple[str, ...], Iterator[list[_Terms]]]:
    """The frame of M and z, and z, Mz, M^2 z, ... as term dicts over it, in
    stored form. On a frame wider than the cap, every entry of a vector is
    checked against the cap before the vector is yielded."""
    vec = [_coerce_entry(x) for x in z]
    if len(vec) != m.dimension:
        raise StructuralError("vector length does not match dimension")
    frame = _common_symbols((m._frame, *(x._symbols for x in vec)))
    rows = m._rows
    if frame != m._frame:
        rows = [{j: _lift(_raw(x, m._frame), frame) for j, x in r.items()} for r in rows]
    return frame, _powers(rows, frame, [_lift(x, frame) for x in vec])


def _powers(rows: Sequence, frame: tuple[str, ...], w: list[_Terms]) -> Iterator[list[_Terms]]:
    """w, Mw, M^2 w, ...: each nonzero w[j] spreads along row j of symmetric M."""
    while True:
        if len(frame) > MAX_PARAM_SYMBOLS:
            for x in w:
                _canonical(x, frame)
        yield w
        reached: list[list] = [[] for _ in rows]
        for j, wj in enumerate(w):
            for i, x in rows[j].items() if wj else ():
                reached[i].append((x, wj))
        w = [_accumulate(r) if r else {} for r in reached]


def _coerce_entry(x) -> SparsePoly:
    p = _coerce(x)
    if p is NotImplemented:
        raise StructuralError(f"bad matrix entry {x!r}")
    return p


def charpoly(m: PolyMatrix, factors: Sequence[SparsePoly] = ()) -> SparsePoly:
    """det(tI - M), divided by the product of the monic factors if any are
    given, from power sums. The empty matrix gives 1.

    The result has degree d = n - (sum of the factors' degrees) and power
    sums tr(M^k) minus the factors'. Newton's identities (k c_k + p_k + sum
    of c_j p_(k-j), 0 < j < k, is 0 for coefficients c_j of t^(deg - j))
    give the factors' p_k, k <= d + 1, then the result's c_k; c_(d+1) must
    be 0. If not, or if d < 0 or a factor holds a symbol M lacks, the product
    does not divide: ExactDivisionError. A frame past the symbol cap is
    refused first."""
    frame = m._frame
    if len(frame) > MAX_PARAM_SYMBOLS:  # phi fixes tr(M^2), which holds every symbol
        raise DomainError(f"operation would mix more than {MAX_PARAM_SYMBOLS} symbols: {frame!r}")
    d = m.dimension - sum(f.deg_t() for f in factors)
    if d < 0 or not {s for f in factors for s in f.symbols} <= set(frame):
        raise ExactDivisionError("the factors cannot divide charpoly")
    one = {(0,) * (1 + len(frame)): _ONE}
    sums = _trace_powers(m, d + 1)  # of M, then of the result
    for f in factors:
        deg, c = f.deg_t(), [{} for _ in range(d + 2)]  # c[j]: of t^(deg - j)
        for e, x in _lift(f, frame).items():
            if deg - e[0] <= d + 1:
                c[deg - e[0]][(0, *e[1:])] = x
        p = [{}]
        for k in range(1, d + 2):  # r = -p_k
            r = _accumulate([(c[k], {e: k for e in one}), *((c[j], p[k - j]) for j in range(1, k))])
            p.append({e: -x for e, x in r.items()})
            sums[k] = _accumulate(((sums[k], one), (r, one)))
    c = [one]
    for k in range(1, d + 2):  # r = -k c_k
        r = _accumulate([(sums[k], one), *((c[j], sums[k - j]) for j in range(1, k))])
        c.append({e: _div(-x, k) for e, x in r.items()})
    if c.pop():
        raise ExactDivisionError("power sums of the cofactor disagree at k = d + 1")
    terms = {(d - j, *e[1:]): x for j, cj in enumerate(c) for e, x in cj.items()}
    return _raw(*_canonical(terms, frame))


def _trace_powers(m: PolyMatrix, count: int) -> list[_Terms]:
    """[{}, tr M, ..., tr M^count] over M's frame: tr M from the diagonal, and
    tr(M^k) as the sum over i of <M^a e_i, M^b e_i>, a = k // 2, b = k - a,
    from unit vector Krylov runs. M^a and M^b are symmetric, so only their
    entries l <= i are read, and those above i stand for those below it."""
    rows, n, top = m._rows, m.dimension, (count + 1) // 2
    one = {(0,) * (1 + len(m._frame)): _ONE}
    diag, off = [[] for _ in range(count + 1)], [[] for _ in range(count + 1)]
    diag[1] = [(row[i], one) for i, row in enumerate(rows) if i in row]
    for i in range(n if count > 1 else 0):
        col = [rows[i].get(j, {}) for j in range(n)]  # M e_i is row i of M; vecs[a - 1] is M^a e_i
        vecs = [col, *islice(_powers(rows, m._frame, col), 1, top - 1)]
        if top > 1:  # the top power, at entries l <= i only (the list is built before the append)
            vecs.append([_accumulate((x, vecs[-1][j]) for j, x in rows[l].items()) for l in range(i + 1)])
        for k in range(2, count + 1):
            x, y = vecs[k // 2 - 1], vecs[k - k // 2 - 1]
            diag[k].append((x[i], y[i]))
            off[k] += ((x[l], y[l]) for l in range(i) if x[l] and y[l])
    two = {e: 2 for e in one}
    return [_accumulate(((_accumulate(a), one), (_accumulate(b), two))) for a, b in zip(diag, off)]


def bareiss_det(rows: Sequence[Sequence[SparsePoly]]) -> SparsePoly:
    """Determinant by fraction-free Bareiss elimination, lowest-index pivots."""
    n = len(rows)
    if n == 0:
        return SparsePoly.one()
    m = [[_coerce_entry(x) for x in row] for row in rows]
    for row in m:
        if len(row) != n:
            raise StructuralError("determinant needs a square matrix")
    sign = 1
    prev = SparsePoly.one()
    for k in range(n - 1):
        pivot_row = None
        for i in range(k, n):
            if not m[i][k].is_zero():
                pivot_row = i
                break
        if pivot_row is None:
            return SparsePoly.zero()
        if pivot_row != k:
            m[k], m[pivot_row] = m[pivot_row], m[k]
            sign = -sign
        pivot = m[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = m[i][j] * pivot - m[i][k] * m[k][j]
                m[i][j] = num.divexact(prev)
            m[i][k] = SparsePoly.zero()
        prev = pivot
    det = m[n - 1][n - 1]
    return det if sign == 1 else -det


def krylov_min_poly(m: PolyMatrix, z: Sequence) -> SparsePoly:
    """Minimal polynomial of M relative to z: the monic generator of the
    relation ideal of z, Mz, M^2 z, ...

    Each Krylov vector M^j z enters an incremental fraction-free (Bareiss)
    elimination with one extra entry, the polynomial t^j, and that entry
    goes through the same row operations. A reduced vector w then always
    satisfies w = T(M) z for the polynomial T it carries. The first vector
    that reduces to zero therefore carries a relation T(M) z = 0 of least
    degree, whose leading coefficient is the last pivot; dividing it out
    gives the monic minimal polynomial. That division is exact because the
    result divides the monic characteristic polynomial; a remainder would
    mean a bug and raises InternalConsistencyError. No division is by the
    constant 1: the first pivot step, a later pivot of 1 and a relation that
    is already monic skip it.
    """
    return _min_poly(*_krylov(m, z))


def _min_poly(frame: tuple[str, ...], powers: Iterator[list[_Terms]]) -> SparsePoly:
    """The elimination of ``krylov_min_poly`` on a Krylov sequence from
    ``_krylov``; it takes vectors until one reduces to zero."""
    one = {(0,) * (1 + len(frame)): _ONE}
    echelon: list[tuple[int, list[_Terms]]] = []  # (pivot index, reduced vector)
    for power in powers:  # M^j z for j = len(echelon)
        w = [*power, _lift(SparsePoly.t(len(echelon)), frame)]  # last entry: t^j
        d_prev = one
        for p, e in echelon:
            d, coef = e[p], {k: -c for k, c in w[p].items()}
            w = [_accumulate(((d, wi), (coef, ei))) for wi, ei in zip(w, e)]
            if d_prev != one:  # _accumulate already gives the stored form
                w = [_divide(x, d_prev) for x in w]
            d_prev = d
        if len(frame) > MAX_PARAM_SYMBOLS:  # no entry may hold more symbols than the cap
            for x in w:
                _canonical(x, frame)
        pivot = next((i for i, x in enumerate(w[:-1]) if x), None)
        if pivot is None:
            break
        echelon.append((pivot, w))
    if not echelon:
        raise DomainError("relative minimal polynomial of the zero vector")

    relation = _raw(*_canonical(w[-1], frame))
    lead = relation.lead_coeff_t()
    if lead.is_one():
        return relation
    try:
        return relation.divexact(lead)
    except ExactDivisionError as exc:
        raise InternalConsistencyError(
            "relative minimal polynomial coefficient is not polynomial"
        ) from exc

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
that leaves a remainder builds a ``Fraction``. The public accessors
``constant_value``, ``univariate_t_coeffs`` and ``eval_t`` return
``Fraction``. An exponent vector is a tuple ``(t_exp, *param_exps)``
aligned with the polynomial's sorted ``symbols`` tuple. The representation
is canonical: zero coefficients are dropped and symbols that do not occur
are pruned, so structural equality is semantic equality. Sums, products
and substitutions all run through one kernel, ``_sum_products``, which
accumulates a whole sum of products in one term dict and canonicalizes once.

Monomials are ordered graded lexicographically with ``t`` ranked highest.
The string form writes terms in decreasing order under that ordering and
round-trips through ``SparsePoly.parse``.

The linear algebra layer (``PolyMatrix``, ``charpoly``, ``krylov_min_poly``,
``bareiss_det``) is fraction-free and skips zero entries, so sparse matrices
cost far less than dense ones. Characteristic polynomials come from the
Berkowitz division-free recursion and determinants from Bareiss elimination
with lowest-index pivoting. Relative minimal polynomials come from the same
fraction-free elimination run on the Krylov vectors z, Mz, M^2 z, ..., with
each vector carrying the t-polynomial that produced it; the first vector to
reduce to zero carries a scalar multiple of the minimal polynomial, which
one exact division makes monic. Any division that fails to be exact raises
instead of degrading precision. No step of the analysis pipeline calls
``bareiss_det`` any more; it stays a public, tested name.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from operator import add
from typing import Iterable, Mapping, Sequence, Union

from .errors import (
    DomainError,
    ExactDivisionError,
    InternalConsistencyError,
    NotLinearInParamError,
    ParseError,
    StructuralError,
)

Scalar = Union[Fraction, int]

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
        """Coefficient of the highest power of t, as a t-free polynomial."""
        d = self.deg_t()
        if d < 0:
            return SparsePoly.zero()
        return self.coeff_t(d)

    def is_monic_t(self) -> bool:
        d = self.deg_t()
        if d < 0:
            return False
        lc = self.lead_coeff_t()
        return lc.is_constant() and lc.constant_value() == 1

    def coeff_t(self, power: int) -> "SparsePoly":
        """Coefficient of t**power as a polynomial in the parameters only."""
        acc = {(0,) + e[1:]: c for e, c in self._terms.items() if e[0] == power}
        return _raw(*_canonical(acc, self._symbols))

    def t_coeffs(self) -> list["SparsePoly"]:
        """Coefficients by ascending t power, length deg_t()+1 (empty for 0)."""
        return _as_var_coeffs(self, "t")

    def sort_key(self) -> tuple:
        """Deterministic total-order key (used for canonical tie-breaking)."""
        items = sorted(self._terms.items(), key=lambda kv: _order_key(kv[0]), reverse=True)
        return (self._symbols, tuple((e, c) for e, c in items))

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
        if self.is_zero():
            return SparsePoly.zero()
        syms = _common_symbols((self, other))
        a, b = _lift(self, syms), _lift(other, syms)
        lt_b = max(b, key=_order_key)
        lc_b = b[lt_b]
        rem = dict(a)
        quot: dict[tuple[int, ...], Scalar] = {}
        while rem:
            lt_r = max(rem, key=_order_key)
            diff = tuple(x - y for x, y in zip(lt_r, lt_b))
            if any(d < 0 for d in diff):
                raise ExactDivisionError(f"{self} is not divisible by {other}")
            c = quot[diff] = _div(rem[lt_r], lc_b)
            for eb, cb in b.items():
                e = tuple(x + y for x, y in zip(diff, eb))
                s = rem.get(e, _ZERO) - c * cb
                if s:
                    rem[e] = s
                elif e in rem:
                    del rem[e]
        return _raw(*_canonical(quot, syms))

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

    def compose_t(self, g: "SparsePoly") -> "SparsePoly":
        """Evaluate self with t replaced by the polynomial g (Horner)."""
        out = SparsePoly.zero()
        for c in reversed(self.t_coeffs()):
            out = out * g + c
        return out

    def shift_t(self, c: Scalar) -> "SparsePoly":
        """p(t) -> p(t - c), i.e. roots move up by c."""
        return self.compose_t(SparsePoly.t() - SparsePoly.const(c))

    def eval_t(self, x: Scalar) -> Fraction:
        """Evaluate a univariate polynomial in t at a rational point."""
        if self._symbols:
            raise DomainError(f"cannot evaluate with unbound symbols {self._symbols!r}")
        x = Fraction(x)
        acc = Fraction(0)
        for c in reversed(self.univariate_t_coeffs()):
            acc = acc * x + c
        return acc

    def univariate_t_coeffs(self) -> list[Fraction]:
        """Coefficients by ascending t power, each a Fraction (integral ones
        too, though stored as int); requires no symbols."""
        if self._symbols:
            raise DomainError(f"polynomial has unbound symbols {self._symbols!r}")
        return [c.constant_value() for c in self.t_coeffs()]

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


def _common_symbols(polys: Iterable[SparsePoly]) -> tuple[str, ...]:
    """Sorted union of the polynomials' symbols, within the symbol cap."""
    syms = tuple(sorted({s for p in polys for s in p._symbols}))
    if len(syms) > MAX_PARAM_SYMBOLS:
        raise DomainError(f"operation would mix more than {MAX_PARAM_SYMBOLS} symbols: {syms!r}")
    return syms


def _lift(p: SparsePoly, syms: tuple[str, ...]) -> dict[tuple[int, ...], Scalar]:
    """Terms of p with exponent vectors over syms, a sorted superset of p's symbols."""
    if p._symbols == syms:
        return p._terms
    pos = {s: 1 + i for i, s in enumerate(p._symbols)}
    return {(e[0], *[e[pos[s]] if s in pos else 0 for s in syms]): c for e, c in p._terms.items()}


def _sum_products(pairs: Iterable[tuple[SparsePoly, SparsePoly]]) -> SparsePoly:
    """Sum of x*y over the pairs: the one place SparsePoly terms are combined.

    Every factor is lifted once to the sorted union of the symbols, every
    product accumulates into one term dict, and the sum is canonicalized
    once at the end. Pairs with a zero factor contribute nothing.
    """
    pairs = [(x, y) for x, y in pairs if x._terms and y._terms]
    syms = _common_symbols(p for pair in pairs for p in pair)
    origin = (0,) * (1 + len(syms))
    acc: dict[tuple[int, ...], Scalar] = {}
    for x, y in pairs:
        # A term of y at the exponent origin needs no exponent sum; a
        # coefficient of 1 needs no product.
        b = [(eb, cb, eb != origin, cb != 1) for eb, cb in _lift(y, syms).items()]
        for ea, ca in _lift(x, syms).items():
            for eb, cb, shift, scale in b:
                e = tuple(map(add, ea, eb)) if shift else ea
                c = ca * cb if scale else ca
                acc[e] = acc[e] + c if e in acc else c
    return _raw(*_canonical({e: _norm(c) for e, c in acc.items() if c}, syms))


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


def _from_var_coeffs(coeffs: Sequence[SparsePoly], var_name: str) -> SparsePoly:
    """The polynomial whose coefficients by ascending power of var_name are coeffs."""
    return _sum_products(
        (c, SparsePoly.t(k) if var_name == "t" else SparsePoly.sym(var_name, k))
        for k, c in enumerate(coeffs)
    )


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
        for kind in ("num", "name", "op"):
            val = m.group(kind)
            if val is not None:
                tokens.append((kind, val))
                break

    result = SparsePoly.zero()
    i = 0
    n = len(tokens)
    sign = 1
    first = True
    while i < n:
        # leading sign of the term
        if tokens[i][0] == "op" and tokens[i][1] in "+-":
            sign = -1 if tokens[i][1] == "-" else 1
            i += 1
            if i >= n:
                raise ParseError(f"dangling sign in {text!r}")
        elif not first:
            raise ParseError(f"missing +/- between terms in {text!r}")
        first = False

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
        sign = 1
    return result


# ---------------------------------------------------------------------------
# gcd machinery


def _var_degrees(p: SparsePoly) -> list[int]:
    width = 1 + len(p.symbols)
    degs = [0] * width
    for e in p._terms:
        for i, x in enumerate(e):
            degs[i] = max(degs[i], x)
    return degs


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
    names = ("t",) + tuple(sorted(set(f.symbols) | set(g.symbols)))
    degs_f = dict(zip(("t",) + f.symbols, _var_degrees(f)))
    degs_g = dict(zip(("t",) + g.symbols, _var_degrees(g)))
    # main variable: last (alphabetically greatest symbol, t first) that occurs
    main = None
    for v in reversed(names):
        if degs_f.get(v, 0) > 0 or degs_g.get(v, 0) > 0:
            main = v
            break
    if main is None:
        return SparsePoly.one()

    def content_of(coeffs: list[SparsePoly]) -> SparsePoly:
        c = SparsePoly.zero()
        for x in coeffs:
            if x.is_zero():
                continue
            c = _gcd_rec(c, x)
            if c.is_one():
                break
        return c

    fc = _as_var_coeffs(f, main)
    gc = _as_var_coeffs(g, main)
    if len(fc) == 1:
        # f is free of main: gcd(f, content_main(g))
        return _gcd_rec(f, content_of(gc))
    if len(gc) == 1:
        return _gcd_rec(g, f)

    cf = content_of(fc)
    cg = content_of(gc)
    a = [c.divexact(cf) for c in fc]
    b = [c.divexact(cg) for c in gc]
    if len(a) < len(b):
        a, b = b, a
    while True:
        r = _prem(a, b)
        if not r or all(c.is_zero() for c in r):
            h = b
            break
        if len(r) == 1:
            return _normalize_sign(_gcd_rec(cf, cg))
        cr = content_of(r)
        a, b = b, [c.divexact(cr) for c in r]
    ch = content_of(h)
    h = [c.divexact(ch) for c in h]
    cc = _gcd_rec(cf, cg)
    return _normalize_sign(_from_var_coeffs(h, main) * cc)


def poly_gcd_t(p: SparsePoly, q: SparsePoly) -> SparsePoly:
    """Gcd of two polynomials, normalized deterministically.

    If the leading t-coefficient of the gcd is constant the result is monic
    in t; otherwise the graded-lex leading coefficient is scaled to 1.
    Coprime inputs give the constant 1.
    """
    if p.is_zero() and q.is_zero():
        raise DomainError("gcd(0, 0) is undefined")
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
    return _gcd_rec(s, r).is_constant()


# ---------------------------------------------------------------------------
# exact linear algebra


@dataclass(frozen=True)
class PolyMatrix:
    """Symmetric matrix with t-free polynomial diagonal and rational off-diagonal."""

    entries: tuple[tuple[SparsePoly, ...], ...]

    def __init__(self, entries):
        rows = [[_coerce_entry(x) for x in row] for row in entries]
        n = len(rows)
        for row in rows:
            if len(row) != n:
                raise StructuralError("matrix is not square")
        for i in range(n):
            for j in range(n):
                if not rows[i][j].is_t_free():
                    raise StructuralError(f"entry ({i},{j}) involves t")
                if i != j and not rows[i][j].is_constant():
                    raise StructuralError(
                        f"off-diagonal entry ({i},{j}) carries a parameter symbol"
                    )
                if j < i and rows[i][j] != rows[j][i]:
                    raise StructuralError(f"matrix is not symmetric at ({i},{j})")
        object.__setattr__(self, "entries", tuple(tuple(row) for row in rows))
        # (column, entry) pairs of each row's nonzero entries
        object.__setattr__(
            self, "nonzero", tuple(tuple((j, x) for j, x in enumerate(row) if x) for row in rows)
        )

    @property
    def dimension(self) -> int:
        return len(self.entries)

    def entry(self, i: int, j: int) -> SparsePoly:
        return self.entries[i][j]

    def symbols(self) -> tuple[str, ...]:
        syms: set[str] = set()
        for row in self.entries:
            for x in row:
                syms.update(x.symbols)
        return tuple(sorted(syms))

    def delete(self, drop: Iterable[int]) -> "PolyMatrix":
        drop_set = set(drop)
        n = self.dimension
        for k in drop_set:
            if not (0 <= k < n):
                raise StructuralError(f"vertex index {k} out of range 0..{n - 1}")
        keep = [i for i in range(n) if i not in drop_set]
        return PolyMatrix([[self.entries[i][j] for j in keep] for i in keep])

    def matvec(self, vec: Sequence[SparsePoly]) -> list[SparsePoly]:
        if len(vec) != self.dimension:
            raise StructuralError("vector length does not match dimension")
        return [_sum_products((x, vec[j]) for j, x in row) for row in self.nonzero]


def _coerce_entry(x) -> SparsePoly:
    p = _coerce(x)
    if p is NotImplemented:
        raise StructuralError(f"bad matrix entry {x!r}")
    return p


def unit_vector(n: int, i: int) -> list[SparsePoly]:
    if not (0 <= i < n):
        raise StructuralError(f"index {i} out of range 0..{n - 1}")
    return [SparsePoly.one() if k == i else SparsePoly.zero() for k in range(n)]


def charpoly(m: PolyMatrix) -> SparsePoly:
    """Characteristic polynomial det(tI - M) by the Berkowitz recursion.

    Division free, so parameter symbols on the diagonal flow through
    untouched. Products with a zero factor are skipped in the bordering
    vectors and in the Toeplitz step, so a sparse matrix costs far fewer
    polynomial products than a dense one. The empty matrix gives 1.
    """
    n = m.dimension
    if n == 0:
        return SparsePoly.one()
    a = m.entries
    one = SparsePoly.one()
    # c[i] is the coefficient of t^(k-i) for the leading k x k block
    c: list[SparsePoly] = [one, -a[0][0]]
    for k in range(1, n):
        # Border the leading block by row k; M is symmetric, so the part of
        # row k left of the diagonal is also the column above it.
        block = [[(j, x) for j, x in m.nonzero[i] if j < k] for i in range(k)]
        border = [(j, x) for j, x in m.nonzero[k] if j < k]
        w = dict(border)
        toep = [one, -a[k][k]]  # grows to length k + 2
        for i in range(k):
            if i:
                w = {
                    r: s
                    for r, row in enumerate(block)
                    if (s := _sum_products((x, w[j]) for j, x in row if j in w))
                }
            toep.append(-_sum_products((x, w[j]) for j, x in border if j in w))
        c = [
            _sum_products((toep[i - j], c[j]) for j in range(min(i, k) + 1))
            for i in range(k + 2)
        ]
    return _from_var_coeffs(c[::-1], "t")


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
    mean a bug and raises InternalConsistencyError.
    """
    n = m.dimension
    vec = [_coerce_entry(x) for x in z]
    if len(vec) != n:
        raise StructuralError("vector length does not match dimension")
    if all(x.is_zero() for x in vec):
        raise DomainError("relative minimal polynomial of the zero vector")

    echelon: list[tuple[int, list[SparsePoly]]] = []  # (pivot index, reduced vector)
    power = vec  # M^j z for j = len(echelon)
    while True:
        w = power + [SparsePoly.t(len(echelon))]  # entry n: the tracked t-polynomial
        d_prev = SparsePoly.one()
        for p, e in echelon:
            d, coef = e[p], -w[p]
            w = [_sum_products(((d, wi), (coef, ei))).divexact(d_prev) for wi, ei in zip(w, e)]
            d_prev = d
        pivot = next((i for i in range(n) if w[i]), None)
        if pivot is None:
            break
        echelon.append((pivot, w))
        power = m.matvec(power)

    relation = w[n]
    try:
        return relation.divexact(relation.lead_coeff_t())
    except ExactDivisionError as exc:
        raise InternalConsistencyError(
            "relative minimal polynomial coefficient is not polynomial"
        ) from exc


# ---------------------------------------------------------------------------
# real root isolation (univariate, exact)


def isolate_real_roots(p: SparsePoly, width: Fraction = Fraction(1, 10**12)) -> list[float]:
    """Distinct real roots of a univariate polynomial in t, sorted ascending.

    Sturm sequence on the squarefree part, bisected down to intervals of
    the requested width with exact rational evaluation throughout. The
    returned floats are interval midpoints.
    """
    if p.symbols:
        raise DomainError("root isolation needs a univariate polynomial")
    if p.deg_t() < 1:
        if p.is_zero():
            raise DomainError("zero polynomial has every point as a root")
        return []
    g = p.divexact(poly_gcd_t(p, p.derivative_t()))
    coeffs = g.univariate_t_coeffs()

    def poly_eval(cs: list[Fraction], x: Fraction) -> Fraction:
        acc = _ZERO
        for c in reversed(cs):
            acc = acc * x + c
        return acc

    def poly_rem(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
        a = list(a)
        while len(a) >= len(b) and any(a):
            while a and a[-1] == 0:
                a.pop()
            if len(a) < len(b):
                break
            f = a[-1] / b[-1]
            shift = len(a) - len(b)
            for i, bc in enumerate(b):
                a[shift + i] -= f * bc
            while a and a[-1] == 0:
                a.pop()
        return a

    chain = [coeffs, [c * i for i, c in enumerate(coeffs)][1:]]
    while len(chain[-1]) > 1:
        r = poly_rem(chain[-2], chain[-1])
        if not any(r):
            break
        chain.append([-c for c in r])
    if len(chain[-1]) <= 1 and chain[-1] and chain[-1][0] == 0:
        chain.pop()

    def variations(x: Fraction) -> int:
        signs = []
        for cs in chain:
            v = poly_eval(cs, x)
            if v:
                signs.append(1 if v > 0 else -1)
        return sum(1 for a, b in zip(signs, signs[1:]) if a != b)

    lead = coeffs[-1]
    bound = Fraction(1) + max(abs(c / lead) for c in coeffs)
    roots: list[Fraction] = []
    stack = [(-bound - 1, bound + 1)]
    while stack:
        lo, hi = stack.pop()
        count = variations(lo) - variations(hi)
        if count == 0:
            continue
        if count == 1 and hi - lo < width:
            roots.append((lo + hi) / 2)
            continue
        mid = (lo + hi) / 2
        if poly_eval(coeffs, mid) == 0:
            # nudge the split point off the root
            mid += (hi - lo) / 7
        if count == 1:
            # narrow the single-root interval
            if variations(lo) - variations(mid) == 1:
                stack.append((lo, mid))
            else:
                stack.append((mid, hi))
        else:
            stack.append((lo, mid))
            stack.append((mid, hi))
    return [float(r) for r in sorted(roots)]

"""Exact sparse polynomial arithmetic and exact linear algebra over Q.

Everything in this module is exact: no floating point enters any
computation. Polynomials live in ``Q[t, s1, s2]`` where ``t`` is the
distinguished spectral variable and ``s1``, ``s2`` are optional parameter
symbols. At most two parameter symbols may appear in any one polynomial
or exact matrix: that is all the constructions of arXiv 1804.01645 need,
and it keeps the modular kernels' grids of points small, as does the cap
``MAX_SYMBOL_DEGREE`` on a diagonal entry's degree in a symbol. One helper
checks the symbol cap where a frame is formed (a polynomial, a
``PolyMatrix``, a Krylov run whose z adds symbols, a gcd), so no kernel
meets a wider frame; the numeric lane binds every symbol to a number.

Representation: a polynomial is a map from exponent vectors to nonzero
rational coefficients. A coefficient is an ``int`` when it is integral and
otherwise a ``fractions.Fraction`` in lowest terms, so integral input takes
the int paths of ``_residue``, ``_integral`` and ``_div``, and only a
division that leaves a remainder builds a ``Fraction``. The public accessor
``constant_value`` returns a ``Fraction``. An exponent vector is a tuple
``(t_exp, *param_exps)`` aligned with the polynomial's sorted ``symbols``
tuple. The representation is canonical: zero coefficients are dropped and
symbols that do not occur are pruned, so structural equality is semantic
equality. Two private kernels work on plain term dicts over one frame (a
sorted symbol tuple): one accumulates sums of products, the other divides
exactly, popping leading terms off a heap. Operations lift to a frame, run
a kernel and canonicalize the result; a ``PolyMatrix`` lifts its nonzero
entries to its frame once, when built, so the modular kernels stay in the
frame.

Monomials are ordered graded lexicographically with ``t`` ranked highest.
The string form writes terms in decreasing order under that ordering and
round-trips through ``SparsePoly.parse``.

The linear algebra layer skips zero entries: a ``PolyMatrix``, from dense
rows or mappings from column to entry, keeps only its nonzero entries.
Relative minimal polynomials come from modular images of the Krylov run z,
Mz, M^2 z, ..., interpolated, combined over primes below 2^61 and
reconstructed, and proven by one exact check (see ``_min_poly``); at a
pair the images run on M0, M with no diagonal entry at the pair, so a
symbol found only there takes one grid point. Characteristic polynomials
come from the same echelon loop with its chains restarted in the quotient,
combined over primes past twice a coefficient bound, so they need no check
(see ``_charpoly``). Determinants come from fraction-free Bareiss
elimination (public and tested; no pipeline step calls it). A gcd comes
the same way, from images by Euclid, and is proven by dividing both
arguments exactly; an image of degree 0 proves coprimality at once. A
division that is not exact raises.
"""

from __future__ import annotations

import re
from collections import defaultdict
from contextlib import suppress
from functools import cached_property
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import product
from math import gcd, lcm, prod
from operator import add, mul, neg, sub
from typing import Iterable, Iterator, Mapping, Sequence, Union

from .errors import (
    DomainError,
    ExactDivisionError,
    NotCospectralError,
    NotLinearInParamError,
    ParseError,
    StructuralError,
)

Scalar = Union[Fraction, int]
_Terms = dict[tuple[int, ...], Scalar]
_Residues = dict[tuple[int, ...], list]  # residues modulo a prime, keyed by symbol exponents

MAX_PARAM_SYMBOLS = 2
MAX_SYMBOL_DEGREE = 10

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
        c = _norm(c if type(c) in (int, Fraction) else Fraction(c))
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
        return not any(map(any, self._terms))

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
        return max(self._terms)[0]  # t's exponent leads every exponent tuple

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

    def is_monic_t(self) -> bool:
        return _constant_lead_t(self) == 1

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
        if self.is_constant():  # equal to its value, so hashed as that number
            return hash(self._terms.get((0,), 0))
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
    new_syms = _capped(tuple(s for s, _ in kept))
    if new_syms == symbols:
        return acc, symbols
    pos = [k for _, k in kept]
    return {(e[0], *[e[k] for k in pos]): c for e, c in acc.items()}, new_syms


def _constant_lead_t(p: SparsePoly) -> Scalar | None:
    """p's leading t-coefficient if it is a constant, else None (also for 0).
    t leads every exponent tuple, so the largest tuple has t-exponent deg_t,
    and any symbol in the leading coefficient would make a larger one."""
    if p._terms and not any((top := max(p._terms))[1:]):
        return p._terms[top]
    return None


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


def _capped(frame: tuple[str, ...]) -> tuple[str, ...]:
    """The frame, unless it holds more symbols than the cap: the one check."""
    if len(frame) > MAX_PARAM_SYMBOLS:
        raise DomainError(f"operation would mix more than {MAX_PARAM_SYMBOLS} symbols: {frame!r}")
    return frame


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
# the modular kernels' primes and probe points, and the modular gcd


_PROBE_PRIME = 2**61 - 1


def _probe_value(name: str) -> int:
    """The value a symbol takes at the first point of a modular kernel's
    first round (the gcd's, the minimal polynomial's and ``_charpoly``'s):
    fixed by its name alone, so that symbols are matched by name across
    frames."""
    return int.from_bytes(name.encode(), "big") * 0x9E3779B97F4A7C15 % _PROBE_PRIME


def _residue(c: Scalar, p: int) -> int | None:
    """c modulo the prime p, or None when p divides c's denominator."""
    if type(c) is int:
        return c % p
    den = c.denominator % p
    return c.numerator * pow(den, -1, p) % p if den else None


def _primes() -> Iterator[int]:
    """2^61 - 1, then every prime below it in descending order."""
    yield (q := _PROBE_PRIME)
    while True:
        q -= 2
        if _is_prime(q):
            yield q


def _is_prime(q: int) -> bool:
    """Miller-Rabin for odd q > 37 with the first twelve primes as bases,
    which decides every such q below 3.1e23."""
    d, s = q - 1, 0
    while not d & 1:
        d, s = d >> 1, s + 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, q)
        if x == 1 or x == q - 1:
            continue
        for _ in range(s - 1):
            x = x * x % q
            if x == q - 1:
                break
        else:
            return False
    return True


def poly_gcd_t(p: SparsePoly, q: SparsePoly) -> SparsePoly:
    """Gcd of p and q, monic in t (1 if coprime); one of them must have a
    nonzero constant leading t-coefficient, as P+, P-, characteristic
    polynomials and S in S + sym*R do, or DomainError. See ``_gcd``."""
    return _gcd(p, q)


def _gcd(a: SparsePoly, b: SparsePoly) -> SparsePoly:
    """The gcd h of ``poly_gcd_t`` (Brown, J. ACM 18, 1971) in rounds as in
    ``_min_poly``, by Euclid over F_p at each point in turn. The argument f
    with a constant leading t-coefficient is scaled to make it 1, so h is
    monic in t with polynomial coefficients (Gauss's lemma), of degree in
    each symbol s at most B_s, the least deg_s of a nonzero argument. No
    image has a degree below deg h: one of degree 0 proves the answer 1, and
    D is the least seen. A candidate t^D + ... dividing both exactly is h."""
    for f, g in ((a, b), (b, a)):
        if (lead := _constant_lead_t(f)) is not None:
            break
    else:
        raise DomainError("gcd needs an argument with a constant leading coefficient in t")
    f = f if lead == 1 else f.scale(Fraction(1, lead))
    frame = _capped(_common_symbols((f._symbols, g._symbols)))
    lifted, sizes = [_lift(f, frame), _lift(g, frame)], [f.deg_t() + 1, g.deg_t() + 1]
    degree, modulus, combined = sizes[0] - 1, 1, {}
    for attempt, p in enumerate(_primes()):
        fres, gres = [_residues(x.items(), p) for x in lifted]
        if fres is None or gres is None:
            continue
        bounds = [min(max(e[s] for e in x) for x in (fres, gres) if x) for s in range(len(frame))]
        axes, images = _axes(frame, bounds, attempt, p), []
        for point in product(*axes):
            images.append(_euclid(_at(fres, sizes[0], point, p), _at(gres, sizes[1], point, p), p))
            if len(images[-1]) == 1:
                return _ONE_POLY
        if (low := min(map(len, images)) - 1) < degree:
            degree, modulus, combined = low, 1, {}
        combined, modulus, coeffs = _lifted(images, degree, axes, p, combined, modulus)
        if coeffs:
            terms = {(k, *e[1:]): c for k, ck in enumerate(coeffs) for e, c in ck.items()}
            with suppress(ExactDivisionError):
                _divide(lifted[0], terms), _divide(lifted[1], terms)
                return _raw(*_canonical(terms, frame))


def _euclid(a: list[int], b: list[int], p: int) -> list[int]:
    """The monic gcd over F_p of a nonzero a and b, coefficient lists by
    ascending power; remainders are scaled, not divided, by b's leading one."""
    while b and not b[-1]:
        b.pop()
    while b:
        lead_b = b[-1]
        while len(a) >= len(b):
            lead_a, s = a[-1], len(a) - len(b)
            for i in range(s):
                a[i] = a[i] * lead_b % p
            for i, y in enumerate(b):
                a[s + i] = (a[s + i] * lead_b - lead_a * y) % p
            while a and not a[-1]:
                a.pop()
        a, b = b, a
    if len(a) == 1:
        return [1]
    inv = pow(a[-1], -1, p)
    return [x * inv % p for x in a]


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
    both S and R. So p is irreducible iff gcd(S, R) is 1.
    """
    if not p.is_monic_t():
        raise DomainError(f"need a monic polynomial in t, got {p}")
    if p.deg_in(sym) != 1:
        raise NotLinearInParamError(f"{p} must have degree exactly 1 in {sym}")
    s, r = _as_var_coeffs(p, sym)
    return _gcd(s, r).is_one()


# ---------------------------------------------------------------------------
# exact linear algebra


class PolyMatrix:
    """Symmetric matrix with t-free polynomial diagonal and rational off-diagonal,
    from rows that are sequences of n entries or mappings from column to entry
    (absent entries are zero). ``_rows[i]`` maps each nonzero column to its
    terms over the frame, of at most two symbols; zero entries are not kept."""

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
                if 0 <= j < i and i in nonzero[j]:
                    continue  # checked at its mirror (j, i), which equals it
                _check_indices(n, j)
                if not x.is_t_free():
                    raise StructuralError(f"entry ({i},{j}) involves t")
                if i != j and not x.is_constant():
                    raise StructuralError(f"off-diagonal entry ({i},{j}) carries a parameter symbol")
                if x._symbols and max(max(e[1:]) for e in x._terms) > MAX_SYMBOL_DEGREE:
                    raise DomainError(f"entry ({i},{i}) has degree above {MAX_SYMBOL_DEGREE} in a symbol")
                if nonzero[j].get(i) != x:
                    raise StructuralError(f"matrix is not symmetric at ({max(i, j)},{min(i, j)})")
        frame = self._frame = _capped(_common_symbols(x._symbols for r in nonzero for x in r.values()))
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


def _krylov(m: PolyMatrix, *vectors: Sequence, pair: tuple[int, int] | None = None) -> tuple:
    """M over the frame of M and the vectors, prepared for runs at ``pair``
    if one is given (see ``_KrylovMatrix``), then each vector as term dicts
    over it, in stored form. The frame holds at most two symbols: a vector
    may add symbols to M's frame only within the cap."""
    vecs = [[_coerce_entry(x) for x in z] for z in vectors]
    if any(len(vec) != m.dimension for vec in vecs):
        raise StructuralError("vector length does not match dimension")
    frame = _capped(_common_symbols((m._frame, *(x._symbols for vec in vecs for x in vec))))
    rows = m._rows
    if frame != m._frame:
        rows = [{j: _lift(_raw(x, m._frame), frame) for j, x in r.items()} for r in rows]
    return (_KrylovMatrix(frame, rows, pair), *([_lift(x, frame) for x in vec] for vec in vecs))


class _KrylovMatrix:
    """M's rows over a frame and what ``_min_poly`` and ``_charpoly`` derive
    from M alone, once: M0's diagonal as (row, *symbol exponents) terms, the
    bounds B_s, the off-diagonal entries, the first prime's ``at_prime``;
    built on first use, L (the lcm of M's denominators), M' = L M for
    ``_annihilates``, its row sums, r and the largest deg_s1 on M's diagonal.

    At a pair (u, v), g = M_uu, and M0 is M with no diagonal entry at u or
    v, so M = M0 + g (E_uu + E_vv); if M_uu != M_vv, walks of length 1 tell
    u and v apart, NotCospectralError. With no pair, M0 = M and g = 0."""

    def __init__(self, frame: tuple[str, ...], rows: Sequence[dict[int, _Terms]], pair: tuple[int, int] | None):
        self.frame, self.rows = frame, rows
        diagonal = [row.get(i, {}) for i, row in enumerate(rows)]
        self.g: _Terms = {}
        if pair:
            if diagonal[pair[0]] != diagonal[pair[1]]:
                raise _not_cospectral(pair)
            self.g, diagonal[pair[0]], diagonal[pair[1]] = diagonal[pair[0]], {}, {}
        self.diagonal = [((i, *e[1:]), c) for i, x in enumerate(diagonal) for e, c in x.items()]
        self.bounds = [sum(max(e[s] for e in x) for x in diagonal if x) for s in range(1, 1 + len(frame))]
        self.edges = [(i, j, *x.values()) for i, row in enumerate(rows) for j, x in row.items() if j != i]
        self.first = self.at_prime(0, _PROBE_PRIME)

    @cached_property
    def lcm(self) -> int:
        return lcm(*(c.denominator for row in self.rows for x in row.values() for c in x.values()))

    @cached_property
    def integral(self) -> tuple[list[int], list[tuple[int, dict[tuple[int, ...], int]]], list[tuple[int, int, int]]]:
        """M' = L M: its diagonal's integers, the same at every N (0 for an
        entry with a symbol), those entries as (row, terms), and its edges."""
        zero = (0,) * (1 + len(self.frame))
        scaled = [_integral(row.get(i, {}), self.lcm) for i, row in enumerate(self.rows)]
        symbolic = [(i, x) for i, x in enumerate(scaled) if x.keys() - {zero}]
        constant = [0 if x.keys() - {zero} else x.get(zero, 0) for x in scaled]
        return constant, symbolic, [(i, j, (c * self.lcm).numerator) for i, j, c in self.edges]

    @cached_property
    def row_sums(self) -> list[int]:
        """The sum of the absolute values of the coefficients in each row of M'."""
        return [int(sum(abs(c) for x in row.values() for c in x.values()) * self.lcm) for row in self.rows]

    @cached_property
    def r(self) -> int:
        return max(1, max(self.row_sums, default=0))

    @cached_property
    def deg_diag(self) -> int:
        return _deg_s1(row.get(i, {}) for i, row in enumerate(self.rows))

    def at_prime(self, attempt: int, p: int) -> tuple | None:
        """Round ``attempt``'s grid modulo the prime p, M0's diagonal at its points
        and the edges (row, column, residue); None if p divides a denominator."""
        edges = [(i, j, _residue(c, p)) for i, j, c in self.edges]
        if (diag := _residues(self.diagonal, p)) is None or None in (c for *_, c in edges):
            return None
        axes = _axes(self.frame, self.bounds, attempt, p)
        return axes, [_at(diag, len(self.rows), a, p) for a in product(*axes)], edges


def _coerce_entry(x) -> SparsePoly:
    p = _coerce(x)
    if p is NotImplemented:
        raise StructuralError(f"bad matrix entry {x!r}")
    return p


def charpoly(m: PolyMatrix) -> SparsePoly:
    """det(tI - M) (``_charpoly``); the empty matrix gives 1."""
    return _charpoly(_KrylovMatrix(m._frame, m._rows, None))


def _charpoly(
    mat: _KrylovMatrix, divisor: SparsePoly = _ONE_POLY, first: tuple | None = None, z: list[int] | None = None
) -> SparsePoly:
    """det(tI - M0), M0 of ``mat``, divided exactly by ``divisor`` (else
    ExactDivisionError), from ``_images``' restarted chains: no point or
    prime is unlucky. In the round of ``first``, ``_min_poly``'s first
    images and echelons, chains continue from those, from z, then from unit
    vectors. B_s + 1 values of each symbol interpolate, as in ``_min_poly``,
    and primes combine by Chinese remaindering for det(tI - L M0), whose t^k
    coefficient is L^(n-k) times det(tI - M0)'s. By the expansion of the
    determinant its coefficients are at most H = product over i of (1 + sum
    of |coefficients| in row i of L M), so modulo more than 2H the symmetric
    residues are the coefficients: no reconstruction, no check."""
    n, bound, modulus, combined = len(mat.rows), 2 * prod(1 + x for x in mat.row_sums), 1, {}
    for attempt, p in enumerate(_primes() if n else ()):
        if (at_p := mat.at_prime(attempt, p) if attempt else mat.first) is None:
            continue
        axes, diags, edges = at_p
        if first and first[0] == attempt:  # continue from the first images' echelons, then from z
            starts, echelons, closed = [x % p for x in z], first[2], first[1]
        else:
            starts, echelons, closed = [1] + [0] * (n - 1), None, [[1]] * len(diags)
        images, _ = _images(diags, [starts] * len(diags), edges, p, None, echelons, closed)
        scales = [pow(mat.lcm, n - k, p) for k in range(n)]
        grid = product(*(range(len(xs)) for xs in axes))
        values = _interpolate_grid(dict(zip(grid, (image[:-1] for image in images))), axes, p)
        values = {key: [y * c % p for y, c in zip(ys, scales)] for key, ys in values.items()}
        combined, modulus = _combined(values, p, combined, modulus)
        if modulus > bound:
            break
    half, terms = modulus // 2, {(n, *(0,) * len(mat.frame)): _ONE}
    for key, column in combined.items():
        lifted = (x - modulus if x > half else x for x in column)
        terms.update(((k, *key), _div(x, mat.lcm ** (n - k))) for k, x in enumerate(lifted) if x)
    phi = _raw(*_canonical(terms, mat.frame))
    return phi if divisor.is_one() else phi.divexact(divisor)


def bareiss_det(rows: Sequence[Sequence[SparsePoly]]) -> SparsePoly:
    """Determinant by fraction-free Bareiss elimination, lowest-index pivots."""
    m = [[_coerce_entry(x) for x in row] for row in rows]
    n = len(m)
    if any(len(row) != n for row in m):
        raise StructuralError("determinant needs a square matrix")
    sign, prev = 1, SparsePoly.one()
    for k in range(n - 1):
        if (pivot_row := next((i for i in range(k, n) if not m[i][k].is_zero()), None)) is None:
            return SparsePoly.zero()
        if pivot_row != k:
            m[k], m[pivot_row], sign = m[pivot_row], m[k], -sign
        pivot = m[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * pivot - m[i][k] * m[k][j]).divexact(prev)
            m[i][k] = SparsePoly.zero()
        prev = pivot
    return (m[n - 1][n - 1] if n else SparsePoly.one()).scale(sign)


def krylov_min_poly(m: PolyMatrix, z: Sequence) -> SparsePoly:
    """Minimal polynomial of M relative to z: the monic generator of the
    relation ideal of z, Mz, M^2 z, ...

    ``_min_poly`` finds it from modular images and proves it exactly: see
    there. The zero vector raises DomainError.
    """
    return _min_poly(*_krylov(m, z))[0]


def _min_poly(
    mat: _KrylovMatrix, z: list[_Terms], pair: tuple[int, int] | None = None, kept: list | None = None
) -> tuple[SparsePoly, SparsePoly]:
    """The relative minimal polynomial P of M and z from ``_krylov``, and P|₀,
    that of M0 (P itself when g = 0). Given ``pair`` = (u, v), it checks
    that entries u and v of M^k z agree for k <= deg P, or NotCospectralError.

    Each round takes the next prime p below 2^61 (skipping one that divides
    a denominator of M or z) and a grid of points that changes from round
    to round. At each point a, ``_images`` gives the minimal polynomial of
    M0(a) relative to z(a) over F_p. Specialization cannot raise a Krylov
    rank, so no image has a degree above deg P|₀, and one of that degree is
    P|₀(a) mod p (the denominators of P|₀ divide powers of M's). D is the
    largest degree seen; images of lower degree are dropped with their
    round. P|₀ divides det(tI - M0), which is monic, so by Gauss's lemma
    P|₀ has polynomial coefficients of degree at most B_s = sum of deg_s
    M0_ii in each symbol s (off-diagonal entries are constant): B_s + 1
    values of s interpolate them over F_p, and a symbol M0 lacks (one only
    at the pair, or one only z carries) takes one value. Rounds combine by
    the Chinese remainder theorem, and maximal-quotient rational
    reconstruction (Monagan, ISSAC 2004) lifts the coefficients to Q.

    With g = 0, M0 = M and the candidate t^D + c_(D-1) t^(D-1) + ... + c_0
    is P|₀ = P. At a pair, with z = e_u + e_v or e_u - e_v, M = M0 +
    g (E_uu + E_vv) (see ``_KrylovMatrix``); if the pair is cospectral, the
    walk module W = span{M^k z} is orthogonal to e_u - e_v or e_u + e_v, so
    E_uu + E_vv acts on W as z z^T / 2. W is then M0-invariant and the same
    for M0, and by the matrix determinant lemma P = P|₀ - (g/2) Q, with Q
    the polynomial part of P|₀(t) z^T (tI - M0)^-1 z: the coefficient of
    t^j is the sum over k of b_(j+k+1) a_k, where b_i is P|₀'s coefficient
    of t^i and a_k = z^T M0^k z. Each image records a_k = z(a) . M0(a)^k
    z(a) mod p as it runs, so it yields Q at a too, and P|₀ and Q are
    interpolated and reconstructed together. Q is -2 times the coefficient
    of h in the P of M0 + h (E_uu + E_vv) for a new symbol h, so its
    coefficients have P|₀'s degree bounds. The candidate P|₀ - (g/2) Q is
    formed over the full frame. ``krylov_min_poly`` names no pair, so there
    every symbol keeps its B_s + 1 values.

    The candidate is then checked exactly with M itself: sum of c_k M^k z =
    0, and given ``pair``, entries u and v of M^k z agree for k <= D. A
    monic annihilator of degree D is a multiple of P; if D <= deg P, it is
    P itself, so the P returned is proven; a failed reconstruction or check
    only costs another round. With g = 0, D <= deg P|₀ = deg P. At a pair
    the sequence (M^k z)_u - (M^k z)_v obeys the recurrence of any
    annihilator of degree D, so a passing check for e_u + e_v proves the
    pair cospectral, and then W is the same for M0 and M: deg P|₀ = deg P.
    The run for e_u - e_v, on the same ``mat``, takes no ``pair``: it must
    come after that proof. If the pair is not cospectral, g is still the
    same at u and v (``_KrylovMatrix`` refuses M_uu != M_vv), so M0's pair
    is not cospectral either (if it were, W would be the same for M), and
    at the first k where the entries of M0^k z differ, k < deg P|₀, M^k z is
    M0^k z plus earlier M0^i z, whose entries agree. So the check raises at
    some k <= deg P|₀, at the latest in the first round whose images reach
    that degree: the run cannot loop. P|₀ comes from the residues that give
    the proven P and has no check of its own; ``decompose`` divides by it.

    The check (``_annihilates``) runs at one integer point, by Kronecker
    substitution. L, L_z and L_c are the lcms of the denominators of M, z
    and the c_k, so M' = L M, z' = L_z z and c'_k = L_c L^(D-k) c_k are
    integral, with sum of c'_k M'^k z' = L_c L_z L^D sum of c_k M^k z. The
    symbols go to powers of one integer N: s1 to N and s2 to N^d1, with
    d1 = max_k deg_s1 c_k + D max_i deg_s1 M_ii + max_i deg_s1 z_i + 1.
    Every entry of that sum, and every difference of entries u and v of
    M'^k z' for k <= D, has degree below d1 in s1, so distinct monomials go
    to distinct powers of N and the coefficients are kept. They are at most
    H = max_i |z'_i| max(sum of |c'_k| r^k, 2 r^D) in absolute value, where
    |x| is the sum of the absolute values of x's coefficients and r is the
    largest row sum of |M'_ij|, or 1 if that is less. Lemma: a nonzero
    integer polynomial f of degree m with coefficients at most H in absolute
    value has no root N >= H + 2, since |f(N)| >= N^m - H (N^m - 1)/(N - 1)
    > 0. So with N the least power of two >= H + 2, D sparse integer
    products v_(k+1) = M'(N) v_k from v_0 = z'(N) decide the identity over
    Q[s1, s2] (sum of c'_k(N) v_k = 0) and the agreement of entries u and v.
    """
    if not any(z):
        raise DomainError("relative minimal polynomial of the zero vector")
    indexed = [((i, *e[1:]), c) for i, x in enumerate(z) for e, c in x.items()]
    degree, modulus, combined = 0, 1, {}
    for attempt, p in enumerate(_primes()):
        at_p = mat.at_prime(attempt, p) if attempt else mat.first
        zres = _residues(indexed, p)
        if at_p is None or zres is None:
            continue
        axes, diags, edges = at_p
        zs = [_at(zres, len(z), a, p) for a in product(*axes)]
        echelons = [[] for _ in zs] if kept == [] else None
        relations, moments = _images(diags, zs, edges, p, pair, echelons)
        if kept == []:  # for decompose's P_zero: the first round's images and echelons
            kept[:] = attempt, relations, echelons
        if mat.g:  # each image as Q's coefficients, then P|₀'s: one vector of length 2 D + 1
            relations = [
                [sum(map(mul, c[j + 1 :], a)) % p for j in range(len(c) - 1)] + c
                for c, a in zip(relations, moments)
            ]
        if (top := max(map(len, relations)) - 1) > degree:
            degree, modulus, combined = top, 1, {}
        combined, modulus, coeffs = _lifted(relations, degree, axes, p, combined, modulus)
        at_m0 = coeffs
        if coeffs and mat.g:  # P|₀ - (g/2) Q
            one, half = {(0,) * (1 + len(mat.frame)): _ONE}, {e: _div(-c, 2) for e, c in mat.g.items()}
            at_m0, q = coeffs[degree // 2 :], coeffs[: degree // 2]
            coeffs = [_accumulate(((c, one), (x, half))) for c, x in zip(at_m0, q)] + at_m0[-1:]
        if coeffs and _annihilates(mat, z, coeffs, pair):
            poly = _from_t_coeffs(coeffs, mat.frame)
            return poly, poly if at_m0 is coeffs else _from_t_coeffs(at_m0, mat.frame)


def _from_t_coeffs(coeffs: list[_Terms], frame: tuple[str, ...]) -> SparsePoly:
    """The polynomial whose t^k coefficient has the terms coeffs[k] over frame."""
    return _raw(*_canonical({(k, *e[1:]): c for k, ck in enumerate(coeffs) for e, c in ck.items()}, frame))


def _annihilates(
    mat: _KrylovMatrix, z: list[_Terms], coeffs: list[_Terms], pair: tuple[int, int] | None
) -> bool:
    """Whether sum of c_k M^k z = 0 for the candidate's coefficients
    c_0, ..., c_D, decided at N by the lemma in ``_min_poly``; given
    ``pair`` = (u, v), entries u and v of M^k z must also agree for k <= D,
    or NotCospectralError."""
    top = len(coeffs) - 1
    lcm_z = lcm(*(c.denominator for x in z for c in x.values()))
    lcm_c = lcm(*(c.denominator for x in coeffs for c in x.values()))
    w = [_integral(x, lcm_z) for x in z]
    c = [_integral(x, lcm_c * mat.lcm ** (top - k)) for k, x in enumerate(coeffs)]
    h = max(map(_size, w)) * max(sum(_size(x) * mat.r**k for k, x in enumerate(c)), 2 * mat.r**top)
    shift = (h + 1).bit_length()  # N = 2^shift
    d1 = _deg_s1(c) + top * mat.deg_diag + _deg_s1(w) + 1
    weights = (0, shift, shift * d1)
    diagonal, symbolic, edges = mat.integral
    diagonal = diagonal[:]
    for i, x in symbolic:
        diagonal[i] = _kronecker(x, weights)
    vec = [_kronecker(x, weights) for x in w]
    residual = [0] * len(vec)
    for k, ck in enumerate(c):
        if k:
            u = list(map(mul, diagonal, vec))
            for i, j, x in edges:
                u[i] += x * vec[j]
            vec = u
        if pair and vec[pair[0]] != vec[pair[1]]:
            raise _not_cospectral(pair)
        ck = _kronecker(ck, weights)
        residual = [x + ck * y for x, y in zip(residual, vec)]
    return not any(residual)


def _not_cospectral(pair: tuple[int, int]) -> NotCospectralError:
    return NotCospectralError("vertices ({},{}) are not cospectral".format(*pair))


def _integral(terms: _Terms, scale: int) -> dict[tuple[int, ...], int]:
    """Terms times ``scale``, a multiple of every denominator, as ints."""
    return {e: (c * scale).numerator for e, c in terms.items()}


def _deg_s1(terms: Iterable[_Terms]) -> int:
    """The largest exponent of the first symbol in the term dicts (0 if none)."""
    return max((e[1] for x in terms for e in x if len(e) > 1), default=0)


def _size(terms: dict[tuple[int, ...], int]) -> int:
    """The sum of the absolute values of the coefficients."""
    return sum(map(abs, terms.values()))


def _kronecker(terms: dict[tuple[int, ...], int], weights: tuple[int, ...]) -> int:
    """Integral terms at t = 1, s1 = 2^weights[1], s2 = 2^weights[2]."""
    return sum(c << sum(map(mul, e, weights)) for e, c in terms.items())


def _axes(frame: tuple[str, ...], bounds: list[int], attempt: int, p: int) -> list[range]:
    """B_s + 1 values of each symbol s from _probe_value(s) * (attempt + 1) on,
    moved by the round: where a degree drops over Q it drops at every prime."""
    return [range(x := _probe_value(s) * (attempt + 1) % p, x + b + 1) for s, b in zip(frame, bounds)]


def _lifted(
    images: list[list[int]], degree: int, axes: list[range], p: int, combined: _Residues, modulus: int
) -> tuple[_Residues, int, list[_Terms] | None]:
    """A round's monic images over F_p at the grid of ``axes``, interpolated
    in the symbols and combined with the earlier rounds (``_combined``):
    the new residues and modulus, and the candidate's coefficients of t^0,
    ..., t^degree, or None if an image has another degree or a residue
    reconstructs no rational."""
    if any(len(image) != degree + 1 for image in images):
        return combined, modulus, None
    grid = product(*(range(len(xs)) for xs in axes))
    values = _interpolate_grid(dict(zip(grid, (image[:-1] for image in images))), axes, p)
    combined, modulus = _combined(values, p, combined, modulus)
    coeffs: list[_Terms] = [{} for _ in range(degree + 1)]
    coeffs[-1][(0,) * (1 + len(axes))] = _ONE
    for key, column in combined.items():
        for k, u in enumerate(column):
            if u:
                if (c := _rational(u, modulus)) is None:
                    return combined, modulus, None
                coeffs[k][(0, *key)] = c
    return combined, modulus, coeffs


def _combined(values: _Residues, p: int, combined: _Residues, modulus: int) -> tuple[_Residues, int]:
    """By the Chinese remainder theorem, from residues modulo p and ``combined``
    modulo ``modulus``: the residues modulo modulus * p, and that modulus."""
    inv = pow(modulus, -1, p)
    combined = {
        key: [x + modulus * ((y - x) * inv % p) for x, y in zip(combined.get(key, ys), ys)]
        for key, ys in values.items()
    }
    return combined, modulus * p


def _residues(terms: Iterable[tuple[tuple[int, ...], Scalar]], p: int) -> _Residues | None:
    """Terms (exponents, coefficient) modulo p: (first exponent, residue)
    pairs keyed by the rest; None when p divides a denominator."""
    out = defaultdict(list)
    for e, c in terms:
        if (r := _residue(c, p)) is None:
            return None
        out[e[1:]].append((e[0], r))
    return out


def _at(residues: _Residues, size: int, point: tuple[int, ...], p: int) -> list[int]:
    """``_residues`` at a point over F_p, summed by first exponent into a
    list of ``size``, evaluating each monomial in the symbols once."""
    values = [0] * size
    for exps, column in residues.items():
        m = 1
        for x, j in zip(point, exps):
            if j:
                m = m * pow(x, j, p) % p
        for k, c in column:
            values[k] += c * m
    return [c % p for c in values]


def _images(
    diags: list[list[int]],
    zs: list[list[int]],
    edges: list[tuple[int, int, int]],
    p: int,
    pair: tuple[int, int] | None,
    echelons: list[list[tuple[int, int, list[int]]]] | None = None,
    closed: list[list[int]] | None = None,
) -> tuple[list[list[int]], list[list[int]]]:
    """The minimal polynomial over F_p of M(a) relative to z(a) at each point
    a, from M(a)'s diagonal ``diags[g]``, its constant off-diagonal entries
    ``edges`` (row, column, residue) and ``zs[g]``, as coefficient lists by
    ascending power of t (monic); and for each, the moments z(a) . M(a)^k
    z(a), k = 0, ..., its degree, read off the same vectors. Without
    ``closed``, ``echelons`` receives each point's echelon rows.

    Each point runs to its end before the next begins. Its step k takes
    one product and reduces [M(a)^k z(a) | t^k] against the point's echelon
    rows. Given ``pair`` = (u, v), entries u and v of each M(a)^k z(a) are
    compared first: residues that differ prove the exact entries of M^k z
    differ, NotCospectralError.

    Given ``closed``, the images are det(tI - M(a)) mod p: ``echelons[g]``
    spans an M(a)-invariant subspace of characteristic polynomial
    ``closed[g]``, and chains from z(a), then from e_j for the first j that
    is no pivot (a combination of rows is nonzero at its first pivot), run
    to rank n, the rows before each chain cut to their vector part: each
    relation is in the quotient by the span before it, and they multiply to
    det(tI - M(a)) (Keller-Gehrig, Theoret. Comput. Sci. 36, 1985).
    """
    n = len(diags[0])
    relations: list[list[int]] = []
    moments: list[list[int]] = []
    for g, (d, v) in enumerate(zip(diags, zs)):
        rows = echelons[g] if echelons else []  # (pivot, its inverse, row)
        support = [(i, x) for i, x in enumerate(v) if x]
        relation = [1] if closed is None else closed[g]
        moments.append(moment := [])
        while True:  # a chain from v
            if closed is not None:
                rows = [(piv, inv, row[:n]) for piv, inv, row in rows]
            for k in range(n + 1):  # it closes within n + 1 steps
                if k:
                    u = [x * y for x, y in zip(d, v)]
                    for i, j, c in edges:
                        u[i] += c * v[j]
                    v = [x % p for x in u]
                if pair and v[pair[0]] != v[pair[1]]:
                    raise _not_cospectral(pair)
                if closed is None:
                    moment.append(sum(x * v[i] for i, x in support) % p)
                w = v + [0] * k + [1]
                for piv, inv, row in rows:  # entries are reduced once, after the last row
                    if c := w[piv] * inv % p:
                        w[: len(row)] = [x - c * y for x, y in zip(w, row)]
                w = [x % p for x in w]
                if (piv := next(filter(w.__getitem__, range(n)), None)) is None:
                    break
                rows.append((piv, pow(w[piv], -1, p), w))
            relation = _mul_mod(relation, w[n:], p)
            if closed is None or len(rows) == n:
                break
            j = min(set(range(n)).difference(piv for piv, _, _ in rows))  # restart from e_j
            v = [int(i == j) for i in range(n)]
        relations.append(relation)
    return relations, moments


def _mul_mod(a: list[int], b: list[int], p: int) -> list[int]:
    """The product over F_p of coefficient lists by ascending power."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return [c % p for c in out]


def _interpolate_grid(
    values: dict[tuple[int, ...], list[int]], axes: list[list[int]], p: int
) -> dict[tuple[int, ...], list[int]]:
    """From vectors at the points of a grid, keyed by the index of each
    coordinate on its axis, to coefficient vectors keyed by exponent: one
    axis at a time, the lines along it are interpolated entrywise, all in
    one call on their vectors laid end to end."""
    size = len(next(iter(values.values())))
    for d, xs in enumerate(axes):
        lines = sorted({key[:d] + key[d + 1 :] for key in values})
        ys = [[y for rest in lines for y in values[(*rest[:d], j, *rest[d:])]] for j in range(len(xs))]
        values = {
            (*rest[:d], e, *rest[d:]): c[i * size : (i + 1) * size]
            for e, c in enumerate(_interpolate(xs, ys, p))
            for i, rest in enumerate(lines)
        }
    return values


def _interpolate(xs: list[int], ys: list[list[int]], p: int) -> list[list[int]]:
    """Coefficient vectors, by ascending power, of the polynomial over F_p of
    degree < len(xs) through (xs[i], ys[i]), entrywise: Newton's divided
    differences, then Horner's rule in the factors x - xs[i]."""
    c = [list(y) for y in ys]
    for j in range(1, len(xs)):
        for i in range(len(xs) - 1, j - 1, -1):
            inv = pow(xs[i] - xs[i - j], -1, p)
            c[i] = [(a - b) * inv % p for a, b in zip(c[i], c[i - 1])]
    out = [c[-1]]
    for i in range(len(xs) - 2, -1, -1):
        out = [[0] * len(c[i]), *out]
        for e in range(len(out) - 1):
            out[e] = [(a - xs[i] * b) % p for a, b in zip(out[e], out[e + 1])]
        out[0] = [(a + b) % p for a, b in zip(out[0], c[i])]
    return out


def _rational(u: int, m: int) -> Scalar | None:
    """The rational a/b = u mod m in stored form, or None: maximal-quotient
    rational reconstruction (Monagan, ISSAC 2004). Of the remainders of
    Euclid on (m, u), it takes the one before the largest quotient, and only
    if that quotient exceeds 2^20 log2 m, so that residues of no small
    rational rarely pass."""
    if not u:
        return 0
    bound = m.bit_length() << 20
    a = b = 0
    r0, r1, t0, t1 = m, u, 0, 1
    while r1 and r0 > bound:
        q = r0 // r1
        if q > bound:
            a, b, bound = r1, t1, q
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    if not b or gcd(a, b) != 1:
        return None
    if b < 0:
        a, b = -a, -b
    return a if b == 1 else Fraction(a, b)

"""Three-point vacuum correlator reductions over an abstract symbol algebra.

Words of current modes sit at the marked points 1, infinity and 0 of the
projective line, with local coordinates z - 1, 1/z and z.  A reduction step
removes the leading operator J(n) of one slot through the Ward identity for
the global function xi_i^n: the same current is inserted at the other two
slots with the expansion coefficients of that function in their local
coordinates, then commuted down to the vacuum.  Inserted modes are always
nonnegative, so the total depth drops at every step and the rewriting ends
in a scalar.

The expansion of xi_i^n at slot j comes from one table: in the coordinate t
of slot j it is sign * t^shift * (1 + s*t)^e with (sign, shift, s, e) fixed
per slot pair.  The reduction keeps its open terms in layers by total depth
and empties the deepest layer first.  Every contribution to a term comes
from a deeper one, so a term is complete when its layer is reached; the
order inside a layer does not matter, and depth 0 holds only the all-vacuum
term, whose coefficient is the result.  Modes are conserved, so a move
files each new term by its depth without summing it.  Normal ordering is
one iterative push of a nonnegative mode across a word of negative modes.

A term is filed under its canonical slot words: each maximal run of
adjacent operators of one commuting class is sorted, the Cartan modes
forming one class and the modes of one root vector with one sign another.
For m, n < 0 the brackets [H(m), H'(n)] and [X+-r(m), X+-r(n)] vanish,
central term included, so the sorted word is the same vector of U(g_-)|0>,
and terms that differ only by such swaps merge before they are gauged.

Scalars are polynomials in declared pairing symbols; the central element
acts by the integer level.  Coefficients are exact integers, and Fractions
only where a declared pairing is a non-integer rational.  The bracket
closes over one root direction at a time plus the Cartan symbols: crossing
two distinct root symbols is rejected, matching the declared symbol set.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from itertools import groupby, product
from typing import NamedTuple


class ReductionBudgetExceeded(RuntimeError, ValueError):
    """Raised when the rewriting loop exceeds its step budget; a ValueError, so the CLI refuses it."""


def _accumulate(acc: dict, key, value) -> None:
    """acc[key] += value, dropping the key when the sum vanishes."""
    prev = acc.get(key)
    total = value if prev is None else prev + value
    if total:
        acc[key] = total
    else:
        acc.pop(key, None)


# ----------------------------------------------------------------------------
# polynomials in named commuting symbols


class Poly:
    """Polynomial over the rationals in named commuting symbols.

    Monomials are stored as sorted tuples of symbol names, with repetition
    recording the power; the empty tuple is the constant term.  A coefficient
    is stored as an int when it is integral on entry, else as a Fraction.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        if terms:
            for mono, c in terms.items():
                c = Fraction(c)
                _accumulate(self.terms, tuple(sorted(mono)), c.numerator if c.denominator == 1 else c)

    @classmethod
    def const(cls, value) -> "Poly":
        return cls({(): value})

    @classmethod
    def symbol(cls, name: str) -> "Poly":
        return cls({(name,): 1})

    @staticmethod
    def _coerce(other) -> "Poly":
        if isinstance(other, Poly):
            return other
        return Poly.const(other)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Poly.const(other)
        return isinstance(other, Poly) and self.terms == other.terms

    __hash__ = None

    def __add__(self, other) -> "Poly":
        other = self._coerce(other)
        out = dict(self.terms)
        for mono, c in other.terms.items():
            _accumulate(out, mono, c)
        p = Poly()
        p.terms = out
        return p

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        p = Poly()
        p.terms = {mono: -c for mono, c in self.terms.items()}
        return p

    def __sub__(self, other) -> "Poly":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "Poly":
        return self._coerce(other) + (-self)

    def __mul__(self, other) -> "Poly":
        if isinstance(other, int):
            return self.scaled(other)
        other = self._coerce(other)
        if len(other.terms) == 1 and () in other.terms:  # a constant: the monomials are kept, not rebuilt
            return self.scaled(other.terms[()])
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                _accumulate(out, tuple(sorted(m1 + m2)), c1 * c2)
        p = Poly()
        p.terms = out
        return p

    __rmul__ = __mul__

    def scaled(self, k) -> "Poly":
        """k * self for a rational k."""
        p = Poly()
        if k:
            p.terms = {mono: k * c for mono, c in self.terms.items()}
        return p

    def substitute(self, values: dict) -> "Poly":
        """Replace symbols by rationals or other polynomials."""
        result = Poly()
        for mono, c in self.terms.items():
            factor = Poly.const(c)
            for name in mono:
                rep = values.get(name)
                factor = factor * (Poly.symbol(name) if rep is None else self._coerce(rep))
            result = result + factor
        return result

    def divisible_by(self, name: str) -> bool:
        """True when every monomial contains the symbol (and the poly is nonzero)."""
        return bool(self.terms) and all(name in mono for mono in self.terms)

    def constant_value(self) -> Fraction:
        if set(self.terms) - {()}:
            raise ValueError(f"{self} is not constant")
        return Fraction(self.terms.get((), 0))

    def _sorted(self):
        return sorted(self.terms.items(), key=lambda kv: (len(kv[0]), kv[0]))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for mono, c in self._sorted():
            body = "*".join(mono)
            if not mono:
                piece = str(c)
            elif c == 1:
                piece = body
            elif c == -1:
                piece = "-" + body
            else:
                piece = f"{c}*{body}"
            if parts and not piece.startswith("-"):
                parts.append("+" + piece)
            else:
                parts.append(piece)
        return "".join(parts)

    __repr__ = __str__

    def json_obj(self):
        out = []
        for mono, c in self._sorted():
            powers = {}
            for name in mono:
                powers[name] = powers.get(name, 0) + 1
            out.append({"coefficient": str(c), "powers": powers})
        return out


_ZERO = Poly()
_ONE = Poly.const(1)
_MINUS_ONE = Poly.const(-1)
# undeclared pairings read one shared Poly per name: no Poly changes once built
_symbol = lru_cache(maxsize=None)(Poly.symbol)


# ----------------------------------------------------------------------------
# mode operators and pairing data


class ModeOp(NamedTuple):
    """One current mode: a root vector X(+/-)r(n) or a Cartan element h(n).

    data is (root, sign) for kind "x"; for kind "h" it is ("name", label)
    for a declared Cartan symbol or ("root", r) for the bracket element
    [X+r, X-r].  A named tuple, so words of modes hash and compare in C.
    """

    kind: str
    data: tuple
    mode: int

    def __str__(self) -> str:
        if self.kind == "x":
            root, sign = self.data
            return f"X{sign}{root}({self.mode})"
        tag, label = self.data
        name = label if tag == "name" else f"H_{label}"
        return f"{name}({self.mode})"


def root_mode(root: str, sign: int, mode: int) -> ModeOp:
    return ModeOp("x", (root, "+" if sign > 0 else "-"), mode)


def cartan_mode(mode: int, name: str = "H") -> ModeOp:
    return ModeOp("h", ("name", name), mode)


def _depth(word) -> int:
    return sum(-op.mode for op in word)


class PairingEnv:
    """Declared pairing data: root-vector pairings, Cartan evaluations, the level.

    Undeclared values read as shared symbols and are never stored here:
    <X+r, X-r> is x<r>, r(H) is <r><H>, <H, H'> concatenates the sorted
    names.  Fixed root rule: (r, r) = 2, distinct root symbols orthogonal.
    """

    def __init__(self, level: int = 1, xpair=None, cartan_values=None):
        if not isinstance(level, int) or level < 0:
            raise ValueError("level must be a nonnegative integer")
        self.level = level
        self.xpair = {k: Poly._coerce(v) for k, v in (xpair or {}).items()}
        self.cartan_values = {k: Poly._coerce(v) for k, v in (cartan_values or {}).items()}

    def xpair_value(self, root: str) -> Poly:
        val = self.xpair.get(root)
        return _symbol(f"x{root}") if val is None else val

    def root_on_cartan(self, root: str, cartan_data: tuple) -> Poly:
        tag, label = cartan_data
        if tag == "root":
            return self.xpair_value(label) * (2 if root == label else 0)
        val = self.cartan_values.get((root, label))
        return _symbol(f"{root}{label}") if val is None else val

    def cartan_pair(self, d1: tuple, d2: tuple) -> Poly:
        """<d1, d2>: a bracket element H_r = [X+r, X-r] on either side gives x_r r(other)."""
        for (tag, label), other in ((d1, d2), (d2, d1)):
            if tag == "root":
                return self.xpair_value(label) * self.root_on_cartan(label, other)
        return _symbol("".join(sorted((d1[1], d2[1]))))


def apply_bracket(a: ModeOp, b: ModeOp, env: PairingEnv):
    """[a, b] as a list of (coefficient, ModeOp) plus central terms (op None).

    Central contributions arrive with the level already multiplied in, since
    every slot carries a level-ell vacuum.
    """
    m, n = a.mode, b.mode
    if a.kind == "x" and b.kind == "x":
        (ra, sa), (rb, sb) = a.data, b.data
        if ra != rb:
            raise ValueError(f"bracket crosses distinct root symbols {ra!r} and {rb!r}")
        if sa == sb:
            return []
        out = [(_ONE if sa == "+" else _MINUS_ONE, ModeOp("h", ("root", ra), m + n))]
        if m + n == 0 and m != 0:
            out.append((env.xpair_value(ra) * (m * env.level), None))
        return out
    if a.kind == "h" and b.kind == "x":
        root, sign = b.data
        val = env.root_on_cartan(root, a.data)
        if not val:
            return []
        if sign == "-":
            val = -val
        return [(val, ModeOp("x", b.data, m + n))]
    if a.kind == "x" and b.kind == "h":
        return [(-c, op) for c, op in apply_bracket(b, a, env)]
    # both Cartan: only the central term survives
    if m + n != 0 or m == 0:
        return []
    val = env.cartan_pair(a.data, b.data)
    if not val:
        return []
    return [(val * (m * env.level), None)]


# ----------------------------------------------------------------------------
# states


class Term(NamedTuple):
    coefficient: Poly
    slots: tuple  # three tuples of ModeOp, outermost operator first


class CorrelatorState(NamedTuple):
    """Formal sum of three-slot words applied to vacua at the marked points."""

    terms: tuple

    @staticmethod
    def single(slot1=(), slot2=(), slot3=(), coefficient=None) -> "CorrelatorState":
        coeff = _ONE if coefficient is None else Poly._coerce(coefficient)
        return CorrelatorState((Term(coeff, (tuple(slot1), tuple(slot2), tuple(slot3))),))

    def __add__(self, other: "CorrelatorState") -> "CorrelatorState":
        return CorrelatorState(self.terms + other.terms)


def case_vacua() -> CorrelatorState:
    return CorrelatorState.single()


def case_opposite_pair(root: str = "a") -> CorrelatorState:
    return CorrelatorState.single(
        (), (root_mode(root, +1, -1),), (root_mode(root, -1, -1),)
    )


def case_cartan_insertion(root: str = "b", cartan: str = "H") -> CorrelatorState:
    return CorrelatorState.single(
        (cartan_mode(-1, cartan),), (root_mode(root, +1, -1),), (root_mode(root, -1, -1),)
    )


# ----------------------------------------------------------------------------
# normal ordering and gauge moves


def _push(word, op, env):
    """op . word |0> for an all-negative word and op.mode >= 0, as {word: coefficient}.

    The carried mode walks left to right.  At position j each bracket term
    either ends the walk (a central term drops word[j], a negative mode
    replaces it) or carries a nonnegative mode on from j + 1; past the end it
    meets the vacuum and vanishes.  The stack holds one entry per position
    still to try, the rightmost on top, and what a bracket carries goes on
    top of the rest: a fixed depth-first order, which decides the failing
    bracket that raises first.
    """
    out = {}
    # carried mode, coefficient (None: 1, saving a product), untouched start, kept, position
    todo = [(op, None, 0, (), j) for j in range(len(word))]
    while todo:
        carried, coeff, start, kept, j = todo.pop()
        head = kept + word[start:j]
        for c, bop in reversed(apply_bracket(carried, word[j], env)):
            c = c if coeff is None else coeff * c
            if bop is not None and bop.mode >= 0:
                todo.extend((bop, c, j + 1, head, i) for i in range(j + 1, len(word)))
            else:
                _accumulate(out, head + (() if bop is None else (bop,)) + word[j + 1:], c)
    return out


def _canonical(word):
    """An all-negative word with each maximal run of one commuting class sorted, no bracket taken.

    The Cartan modes form one class, the modes of one root vector with one sign another.
    """
    runs = groupby(word, lambda op: "h" if op.kind == "h" else op.data)
    return tuple(op for _, run in runs for op in sorted(run))


def _normalize_word(word, env):
    """Expand a word into all-negative-mode words applied to the vacuum, as {word: coefficient}."""
    out = {(): _ONE}
    for op in reversed(tuple(word)):
        new = {}
        for tail, coeff in out.items():
            if op.mode < 0:
                _accumulate(new, (op,) + tail, coeff)
            else:
                for tail2, c2 in _push(tail, op, env).items():
                    _accumulate(new, tail2, coeff * c2)
        out = new
    return out


# xi_i^n in the coordinate t of slot j is sign * t^shift * (1 + s*t)^e;
# (i, j) -> n -> (sign, shift, s, e)
_INSERTION_RULES = {
    (0, 1): lambda n: (1, -n, -1, n),  # (z-1)^n = t^-n (1 - t)^n, t = 1/z
    (0, 2): lambda n: (-1 if n % 2 else 1, 0, -1, n),  # (z-1)^n = (-1)^n (1 - t)^n, t = z
    (1, 0): lambda n: (1, 0, 1, -n),  # z^-n = (1 + t)^-n, t = z - 1
    (1, 2): lambda n: (1, -n, 1, 0),  # z^-n = t^-n, t = z
    (2, 0): lambda n: (1, 0, 1, n),  # z^n = (1 + t)^n, t = z - 1
    (2, 1): lambda n: (1, -n, 1, 0),  # z^n = t^-n, t = 1/z
}


def _insertion_modes(i: int, j: int, n: int, max_mode: int):
    """Expansion of xi_i^n in the coordinate at slot j, modes capped by max_mode.

    Slots are 0-based here: 0, 1, 2 sit at 1, infinity, 0 with coordinates
    z - 1, 1/z, z.  For nonpositive n the function is regular away from the
    marked points and every inserted mode is nonnegative.
    """
    rule = _INSERTION_RULES.get((i, j))
    if rule is None:
        raise ValueError(f"bad slot pair ({i}, {j})")
    sign, shift, s, e = rule(n)
    out, c = [], sign  # c = sign * binom(e, k) * s^k, an integer: each division is exact
    for k in range(max_mode - shift + 1):
        if not c:  # e >= 0 and k > e: every later binomial vanishes too
            break
        out.append((shift + k, c))
        c = c * s * (e - k) // (k + 1)
    return out


def _gauge_step(slots, i, env):
    """One Ward-identity rewrite removing the leading operator of slot i.

    Returns {(k, slots): coefficient}, k the inserted mode, with the
    identity's minus sign already folded into the coefficients.  Modes are
    conserved, so removing the leading mode n from a term of depth d and
    pushing k into another slot leaves a term of depth d + n - k.
    """
    op = slots[i][0]
    rest_i = slots[i][1:]
    n = op.mode
    if n > 0:
        raise ValueError("positive leading modes are removed by normal ordering, not gauge moves")
    out = {}
    for j in range(3):
        if j == i:
            continue
        word = slots[j]
        for k, c in _insertion_modes(i, j, n, _depth(word)):
            for wj, c2 in _push(word, ModeOp(op.kind, op.data, k), env).items():
                new = list(slots)
                new[i] = rest_i
                new[j] = wj
                _accumulate(out, (k, tuple(new)), c2.scaled(-c))
    return out


def gauge_move(state: CorrelatorState, which_slot: int, op: ModeOp, env: PairingEnv) -> CorrelatorState:
    """Rewrite every term by removing the given leading operator of a slot.

    which_slot is 1-based.  The operator must be the leading (outermost)
    entry of that slot in every term, and its mode must be nonpositive so
    the gauge function xi^n stays regular away from the marked points.
    """
    if which_slot not in (1, 2, 3):
        raise ValueError("which_slot must be 1, 2 or 3")
    i = which_slot - 1
    new_terms = []
    for t in state.terms:
        if not t.slots[i] or t.slots[i][0] != op:
            raise ValueError(f"{op} is not the leading operator of slot {which_slot}")
        for (_, slots), coeff in _gauge_step(t.slots, i, env).items():
            new_terms.append(Term(t.coefficient * coeff, slots))
    return CorrelatorState(tuple(new_terms))


def default_strategy(slots) -> int:
    """Gauge away the lowest-numbered slot led by a Cartan mode, else the lowest nonempty one.

    [H(m), X(n)] is a multiple of X(m + n), so moving a Cartan mode never adds
    operators, while [X+r, X-r] adds H_r and a central term and makes terms branch.
    """
    nonempty = [i for i in range(3) if slots[i]]
    if not nonempty:
        raise ValueError("no nonempty slot")
    return next((i for i in nonempty if slots[i][0].kind == "h"), nonempty[0])


def reduce_state(state: CorrelatorState, env: PairingEnv, strategy=None, budget: int = 10000) -> Poly:
    """Fully reduce a state to its scalar, a polynomial in the pairing symbols.

    budget caps the number of gauge moves, one per open term processed.
    """
    strategy = strategy or default_strategy
    layers = [{}]  # layers[d]: {slots: coefficient} for the open terms of total depth d
    for t in state.terms:
        for (w1, c1), (w2, c2), (w3, c3) in product(*(_normalize_word(w, env).items() for w in t.slots)):
            key = (_canonical(w1), _canonical(w2), _canonical(w3))
            depth = sum(map(_depth, key))
            layers.extend({} for _ in range(depth + 1 - len(layers)))
            _accumulate(layers[depth], key, t.coefficient * c1 * c2 * c3)
    steps = 0
    while len(layers) > 1:
        layer = layers.pop()
        depth = len(layers)
        while layer:
            key, poly = layer.popitem()  # a moved term is freed at once
            steps += 1
            if steps > budget:
                raise ReductionBudgetExceeded(
                    f"no scalar after {budget} gauge moves; open terms remain at depth {depth}"
                )
            i = strategy(key)
            if not key[i]:
                raise ValueError(f"strategy chose empty slot {i + 1}")
            removed = depth + key[i][0].mode
            for (k, slots), coeff in _gauge_step(key, i, env).items():
                _accumulate(layers[removed - k], tuple(map(_canonical, slots)), poly * coeff)
    return layers[0].get(((), (), ()), _ZERO)


# ----------------------------------------------------------------------------
# the script language

# Cap on the operators of one script.  It bounds the parse, not the time of a
# reduction, which grows fast with the operators, their modes and the level.
MAX_SCRIPT_OPERATORS = 200
# Cap on the total depth sum |mode| of one script.  The reduction keeps a layer per unit
# of depth; at the cap a one-operator script answers in 0.06-0.07 s cold, at 10^6 in 0.6 s
# and 85 MB.
MAX_SCRIPT_DEPTH = 10_000
_DEPTH_REFUSAL = f"script modes sum to more than {MAX_SCRIPT_DEPTH} in absolute value (the cap)"

_TERM_RE = re.compile(r"^(?:X([+-])([A-Za-z][A-Za-z0-9_]*)|H)\((-?)0*(\d+)\)$")
_SLOT_RE = re.compile(r"^slot([123])\s*:\s*(.*)$")


def parse_script(text: str):
    """Parse the correlator term language into a state and its environment.

    Grammar, one directive per line ('#' starts a comment), each directive
    at most once:

        level <nonnegative integer>
        slot<i>: <term> <term> ...      with i in 1, 2, 3

    where a term is X+<root>(<mode>), X-<root>(<mode>) or H(<mode>); the
    leftmost term is the outermost operator.  Roots are identifiers; each
    distinct root is an independent direction.  Missing slots are vacua.
    """
    level = None
    slots = {1: None, 2: None, 3: None}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("level"):
            digits = line[len("level"):].strip()
            if not digits.isdecimal():  # isdigit() also admits digits such as '²' that int() refuses
                raise ValueError(f"bad level directive: {raw.strip()!r}")
            if level is not None:
                raise ValueError("level given twice")
            digits = digits.lstrip("0") or "0"
            try:
                level = int(digits)
            except ValueError:  # more digits than int() converts
                raise ValueError(f"level has {len(digits)} digits, too many to read") from None
            continue
        m = _SLOT_RE.match(line)
        if not m:
            raise ValueError(f"cannot parse script line: {raw.strip()!r}")
        idx = int(m.group(1))
        if slots[idx] is not None:
            raise ValueError(f"slot{idx} given twice")
        ops = []
        for tok in m.group(2).split():
            tm = _TERM_RE.match(tok)
            if not tm:
                raise ValueError(f"cannot parse term {tok!r}")
            sign, root, minus, digits = tm.groups()
            if len(digits) > len(str(MAX_SCRIPT_DEPTH)):  # refused before int() meets a huge string
                raise ValueError(_DEPTH_REFUSAL)
            mode = int(minus + digits)
            ops.append(cartan_mode(mode) if sign is None else root_mode(root, +1 if sign == "+" else -1, mode))
        slots[idx] = tuple(ops)
    operators = [op for w in slots.values() if w for op in w]
    if len(operators) > MAX_SCRIPT_OPERATORS:
        raise ValueError(f"script has more than {MAX_SCRIPT_OPERATORS} operators (the cap)")
    if sum(abs(op.mode) for op in operators) > MAX_SCRIPT_DEPTH:
        raise ValueError(_DEPTH_REFUSAL)
    state = CorrelatorState.single(slots[1] or (), slots[2] or (), slots[3] or ())
    return state, PairingEnv(level=1 if level is None else level)

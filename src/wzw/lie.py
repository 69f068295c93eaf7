"""Exact root-system kernel for the simple Lie algebras A-G.

Conventions, fixed once and used everywhere downstream:

* Simple roots are numbered as in Bourbaki.  In particular G2 has the short
  simple root first (so the 7-dimensional representation is the first
  fundamental weight), F4 has the two long simple roots first (so the
  26-dimensional representation is the fourth fundamental weight), and the
  E8 marks read (2,3,4,6,5,4,3,2).
* Cartan matrix entries are a[i][j] = 2 (alpha_i, alpha_j) / (alpha_i, alpha_i),
  i.e. row i is scaled by the length of alpha_i.
* The invariant form is normalised so the highest root theta has (theta, theta) = 2.
  The symmetrizer d_i = (alpha_i, alpha_i)/2 then lies in {1, 1/2, 1/3}.
* Weights are tuples of Dynkin labels in the ordering above; roots are tuples of
  integer coordinates in the simple-root basis.

All arithmetic is exact and, past construction, integral.  The form is kept as
an integer Gram matrix gram[i][j] = D (omega_i, omega_j) with one common
denominator D (1 for E8, 2 for F4, 3 for G2), so every pairing is an integer
and (x, y) = scaled_ip(x, y) / D.  It is built from the Cartan matrix, a table
of integer root lengths and the Killing sum over the positive roots, with
integers only; Fractions appear only in public return values such as ip, and
there are no floats.  A failed internal check raises InvariantError, which
stays active under python -O.

One walk, dominant_weights, enumerates dominant weights under a monotone cost;
one tree walk, weyl_walk, gives each point of a Weyl orbit once, to weyl_orbit
and the S-matrix counts; one chamber fold, RootDatum.fold, whose reflection
s_i updates in place the nonzero entries of Cartan column i; one routine,
fold_sum, sums the signed chamber or alcove folds of weights, each distinct
point folded once per process through the memo _shifted_fold; and one
recursion, the affine Freudenthal step of GradedModule, gives every weight
multiplicity: the shifted-norm difference multiplies the unknown, the right
side sums over the positive affine roots, and the division is checked to be
exact.  Finite weight systems are the depth-0 rows of that table.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from operator import ge, sub
from typing import Iterable, NamedTuple

from . import InvariantError  # defined in the package so cli can catch it without this module

Labels = tuple  # Dynkin labels, ints
RootCoords = tuple  # integer coordinates in the simple-root basis

_SERIES = ("A", "B", "C", "D", "E", "F", "G")
_FOLD_GUARD = 10_000  # reflections allowed in one chamber fold
MAX_RANK = 80  # at the cap, a cold `wzw root-system --json` answers in about 1.4 s
MAX_WEIGHT_BOX = 2_000_000  # points of the Freudenthal coefficient box c <= A^-1 lambda


class LieAlgebraId(NamedTuple("LieAlgebraId", [("series", str), ("rank", int)])):
    __slots__ = ()

    def __new__(cls, series: str, rank: int):
        if series not in _SERIES:
            raise ValueError(f"unknown series {series!r}")
        n = rank
        if n > MAX_RANK:  # refused before any n x n table is built
            raise ValueError(f"rank {n} is above the cap {MAX_RANK}")
        ok = {
            "A": n >= 1,
            "B": n >= 2,
            "C": n >= 2,
            "D": n >= 3,
            "E": n in (6, 7, 8),
            "F": n == 4,
            "G": n == 2,
        }[series]
        if not ok:
            raise ValueError(f"invalid simple type {series}{n}")
        return tuple.__new__(cls, (series, rank))

    @staticmethod
    def from_string(name: str) -> "LieAlgebraId":
        name = name.strip()
        if len(name) < 2 or name[0].upper() not in _SERIES or not name[1:].isdecimal():
            raise ValueError(f"cannot parse algebra name {name!r}")
        digits = name[1:].lstrip("0") or "0"
        if len(digits) > len(str(MAX_RANK)):  # refused before int() meets a huge string
            raise ValueError(f"rank above the cap {MAX_RANK}")
        return LieAlgebraId(name[0].upper(), int(digits))

    def __str__(self) -> str:
        return f"{self.series}{self.rank}"


class Weight(NamedTuple("Weight", [("algebra", LieAlgebraId), ("labels", Labels)])):
    __slots__ = ()

    def __new__(cls, algebra: LieAlgebraId, labels: Labels):
        if len(labels) != algebra.rank:
            raise ValueError(f"{algebra} weight needs {algebra.rank} labels, got {len(labels)}")
        return tuple.__new__(cls, (algebra, labels))  # skips the base __new__, a Python call per weight

    def is_dominant(self) -> bool:
        return all(x >= 0 for x in self.labels)

    def __str__(self) -> str:
        return "[" + ",".join(str(x) for x in self.labels) + "]"


def _cartan_matrix(series: str, rank: int) -> list[list[int]]:
    n = rank
    a = [[2 * (i == j) for j in range(n)] for i in range(n)]

    def chain(i, j):  # single bond between nodes i, j (0-based)
        a[i][j] = a[j][i] = -1

    if series in ("A", "B", "C"):
        for i in range(n - 1):
            chain(i, i + 1)
        if series == "B" and n >= 2:
            a[n - 1][n - 2] = -2  # alpha_n short
        if series == "C" and n >= 2:
            a[n - 2][n - 1] = -2  # alpha_n long
    elif series == "D":
        for i in range(n - 2):
            chain(i, i + 1)
        chain(n - 3, n - 1)
    elif series == "E":
        # Bourbaki: chain 1-3-4-5-...-n with node 2 hanging off node 4.
        chain(0, 2)
        for i in range(2, n - 1):
            chain(i, i + 1)
        chain(1, 3)
    elif series == "F":
        chain(0, 1)
        chain(2, 3)
        a[1][2] = -1
        a[2][1] = -2
    elif series == "G":
        a[0][1] = -3
        a[1][0] = -1
    return a


def _root_lengths(series: str, rank: int) -> list[int]:
    """(alpha_i, alpha_i) in units of the shortest simple root: 1, 2 or 3."""
    if series in ("A", "D", "E"):
        return [1] * rank
    if series == "B":
        return [2] * (rank - 1) + [1]
    if series == "C":
        return [1] * (rank - 1) + [2]
    if series == "F":
        return [2, 2, 1, 1]
    if series == "G":
        return [1, 3]
    raise ValueError(series)


def _exact_quotient(num: int, den: int, what: str) -> int:
    q, rem = divmod(num, den)
    if rem:
        raise InvariantError(f"{what} is not an integer: {num}/{den}")
    return q


def weyl_walk(start, steps):
    """Walk the Weyl orbit of a dominant weight x, walls allowed, as a tree with no seen-set.

    The last rank entries of each tuple in start are Dynkin labels, x those of the first; step i,
    ending in column i of the Cartan matrix, is what s_i subtracts per unit of the tuple's own
    label i.  Each point y but x has one parent s_i y, i its first negative label, so y is reached
    once.  Yields (depth, images) once per point, in order of depth, with images the tuples of start
    moved by the same shortest w, so depth = l(w) and det w = (-1)^depth.
    """
    off = len(steps[0]) - len(steps)
    lower = [step[off:off + i] for i, step in enumerate(steps)]
    frontier, depth = [start], 0
    while frontier:
        nxt = []
        for images in frontier:
            yield depth, images
            x = images[0][off:]
            for i, c in enumerate(x):
                if c > 0 and all(map(ge, x, map(c.__mul__, lower[i]))):  # i is the first negative label of s_i x
                    nxt.append([tuple(map(sub, v, map(v[off + i].__mul__, steps[i]))) for v in images])
        frontier, depth = nxt, depth + 1


class RootDatum(NamedTuple):
    """Root data of a simple Lie algebra; every field is computed by build_root_datum."""

    algebra: LieAlgebraId
    cartan: tuple  # rows a[i][j] = <alpha_j, alpha_i^vee>
    positive_roots: tuple  # simple-root coordinates, height-then-lex order
    highest_root: RootCoords
    comarks: tuple  # dual marks a_i^vee = d_i * marks_i, ints
    dual_coxeter: int
    denominator: int  # D, the least common denominator of the form
    gram: tuple  # D (omega_i, omega_j), ints
    scaled_symmetrizer: tuple  # D d_i = D (alpha_i, omega_i), ints
    cartan_cols: tuple  # column i of the Cartan matrix = Dynkin labels of alpha_i
    sparse_cols: tuple  # the nonzero entries (j, a_ji) of each column i, for the chamber fold
    positive_root_labels: tuple  # Dynkin labels of each positive root
    theta_labels: Labels  # Dynkin labels of the highest root
    theta_support: tuple  # the nonzero labels (j, theta_j), for the affine reflection
    rho_pairings: tuple  # D (rho, beta) for each positive root, ints
    rho_product: int  # product of rho_pairings, the Weyl-dimension denominator

    # -- basic derived data ------------------------------------------------

    @property
    def rank(self) -> int:
        return self.algebra.rank

    @property
    def dimension(self) -> int:
        return 2 * len(self.positive_roots) + self.rank

    @property
    def weyl_order(self) -> int:
        return _parabolic_order(self.algebra, tuple(range(self.rank)))

    @property
    def marks(self) -> tuple:
        return self.highest_root

    @property
    def rho(self) -> Labels:
        return (1,) * self.rank

    def weight(self, labels: Iterable) -> Weight:
        return Weight(self.algebra, tuple(labels))

    def fundamental_weight(self, i: int) -> Weight:
        """1-based node index, matching the Bourbaki numbering."""
        if not 1 <= i <= self.rank:
            raise ValueError(f"node index {i} out of range for {self.algebra}")
        return self.weight(tuple(int(j == i - 1) for j in range(self.rank)))

    def zero_weight(self) -> Weight:
        return self.weight((0,) * self.rank)

    # -- coordinate changes ------------------------------------------------

    def root_coords(self, labels: Labels):
        """Simple-root coordinates of a weight, or None off the root lattice.

        Coordinate i is (x, omega_i) / d_i, so it comes from the Gram matrix.
        """
        out = []
        for row, s in zip(self.gram, self.scaled_symmetrizer):
            c, r = divmod(sum(g * x for g, x in zip(row, labels)), s)
            if r:
                return None
            out.append(c)
        return tuple(out)

    # -- invariant form ----------------------------------------------------

    def scaled_ip(self, x: Labels, y: Labels) -> int:
        """D (x, y) for two weights in Dynkin labels."""
        return sum(a * sum(g * b for g, b in zip(row, y)) for a, row in zip(x, self.gram))

    def scaled_ip_root(self, x: Labels, beta: RootCoords) -> int:
        """D (x, beta) with x in labels and beta in simple-root coordinates."""
        return sum(b * s * a for b, s, a in zip(beta, self.scaled_symmetrizer, x))

    def rho_norm(self, x: Labels) -> int:
        """D (x + rho, x + rho)."""
        shifted = tuple(a + 1 for a in x)
        return self.scaled_ip(shifted, shifted)

    def ip(self, x: Labels, y: Labels) -> Fraction:
        """(x, y) for two weights in Dynkin labels."""
        return Fraction(self.scaled_ip(x, y), self.denominator)

    def level_of(self, labels: Labels):
        """(lambda, theta); equals the affine level occupied by the weight."""
        return sum(a * x for a, x in zip(self.comarks, labels))

    # -- Weyl group action -------------------------------------------------

    def fold(self, labels: Labels, kappa=None, limit=None, nodes=None):
        """Reflect a weight into the dominant chamber.

        With kappa, also reflect through the affine wall (x, theta) = kappa
        until the level is at most kappa.  Returns (representative, det(w),
        shift), where shift is the sum of (x, theta) - kappa over the affine
        reflections; returns None as soon as shift exceeds limit.  The wall
        tests after a fold (a zero label, level equal to kappa) live in
        _shifted_fold.  With nodes J, only the simple reflections s_j, j in J,
        are used: the result is the J-dominant point of the W_J-orbit.

        The labels live in one list.  s_i, taken at the first negative label c,
        subtracts c times column i of the Cartan matrix, so it updates in place
        only the nonzero entries of that column (sparse_cols); the affine
        reflection updates only the nonzero labels of theta (theta_support).
        """
        cols = self.sparse_cols
        walls = range(len(labels)) if nodes is None else nodes
        lab, sign, shift = list(labels), 1, 0
        for _ in range(_FOLD_GUARD):
            for i in walls:
                c = lab[i]
                if c < 0:
                    for j, a in cols[i]:
                        lab[j] -= c * a
                    sign = -sign
                    break
            else:
                excess = 0 if kappa is None else self.level_of(lab) - kappa
                if excess <= 0:
                    return tuple(lab), sign, shift
                shift += excess
                if limit is not None and shift > limit:
                    return None
                for j, t in self.theta_support:
                    lab[j] -= excess * t
                sign = -sign
        raise InvariantError(f"chamber fold of {labels} failed to terminate")

    def dominant(self, labels: Labels) -> Labels:
        return self.fold(labels)[0]

    def weyl_orbit(self, labels: Labels) -> dict:
        """Weyl orbit of a weight, each point mapped to det(w) for a w reaching it from the input.

        The input is folded to the dominant x, and weyl_walk gives the points of W x in order of
        depth from x.  The sign is det(w) only for a regular weight (trivial stabiliser); on a wall
        only the keys matter.  No cap: all |W| / |W_J| points, 696,729,600 for a regular E8 weight.
        """
        dom, sign, _ = self.fold(labels)
        return {images[0]: -sign if depth & 1 else sign for depth, images in weyl_walk([dom], self.cartan_cols)}

    def orbit_size(self, dominant_labels: Labels) -> int:
        """|W x| = |W| / |W_J| for dominant x, with J the nodes where x has a zero label."""
        zeros = tuple(i for i, a in enumerate(dominant_labels) if a == 0)
        return _exact_quotient(self.weyl_order, _parabolic_order(self.algebra, zeros), "|W| / |W_J|")


@lru_cache(maxsize=None)
def build_root_datum(algebra: LieAlgebraId) -> RootDatum:
    """Construct the full root datum; rejects invalid (series, rank) via LieAlgebraId."""
    series, n = algebra.series, algebra.rank
    cartan = _cartan_matrix(series, n)
    lengths = _root_lengths(series, n)

    # L_i a_ij must be symmetric, otherwise the tables above are wrong
    if any(lengths[i] * cartan[i][j] != lengths[j] * cartan[j][i] for i in range(n) for j in range(n)):
        raise InvariantError(f"{algebra}: the root lengths do not symmetrize the Cartan matrix")

    cartan_cols = tuple(zip(*cartan))
    closure = _positive_root_closure(cartan_cols, n)
    roots, root_labels = tuple(closure), tuple(closure.values())
    theta = roots[-1]  # the closure is in height order
    if sum(sum(r) == sum(theta) for r in roots) != 1:
        raise InvariantError(f"{algebra}: highest root is not unique")
    # with (theta, theta) = 2 the symmetrizer is d_i = L_i / longest
    longest = max(lengths)
    comarks = tuple(_exact_quotient(L * m, longest, f"{algebra} comark") for L, m in zip(lengths, theta))
    dual_coxeter = 1 + sum(comarks)

    # Killing form: h^vee (x, y) = sum over beta > 0 of (beta, x) (beta, y), and
    # (beta, omega_i) = beta_i d_i, so sums[i][j] = h^vee longest^2 (omega_i, omega_j)
    sums = [[0] * n for _ in range(n)]
    for beta in roots:
        support = [(i, b * L) for i, (b, L) in enumerate(zip(beta, lengths)) if b]
        for i, a in support:
            row = sums[i]
            for j, b in support:
                row[j] += a * b
    common = dual_coxeter * longest * longest
    g = math.gcd(common, *(x for row in sums for x in row))
    denom = common // g
    gram = tuple(tuple(x // g for x in row) for row in sums)
    # dominant_weights needs a norm that grows with every label
    if any(x <= 0 for row in gram for x in row):
        raise InvariantError(f"{algebra}: form has a nonpositive entry")
    scaled_sym = tuple(_exact_quotient(denom * L, longest, f"{algebra} scaled symmetrizer") for L in lengths)
    rho_pairings = tuple(sum(b * s for b, s in zip(beta, scaled_sym)) for beta in roots)

    datum = RootDatum(
        algebra=algebra,
        cartan=tuple(tuple(row) for row in cartan),
        positive_roots=roots,
        highest_root=theta,
        comarks=comarks,
        dual_coxeter=dual_coxeter,
        denominator=denom,
        gram=gram,
        scaled_symmetrizer=scaled_sym,
        cartan_cols=cartan_cols,
        sparse_cols=tuple(tuple((j, a) for j, a in enumerate(col) if a) for col in cartan_cols),
        positive_root_labels=root_labels,
        theta_labels=closure[theta],
        theta_support=tuple((j, t) for j, t in enumerate(closure[theta]) if t),
        rho_pairings=rho_pairings,
        rho_product=math.prod(rho_pairings),
    )

    # normalisation check: (theta, theta) = 2
    if datum.scaled_ip_root(datum.theta_labels, theta) != 2 * denom:
        raise InvariantError(f"{algebra}: (theta, theta) != 2")
    return datum


@lru_cache(maxsize=None)
def _parabolic_order(algebra: LieAlgebraId, nodes: tuple) -> int:
    """|W_J| = prod (ht beta + 1) / ht beta over the positive roots beta supported
    on the nodes J (Macdonald, Math. Ann. 199, 1972)."""
    roots = build_root_datum(algebra).positive_roots
    heights = [sum(beta) for beta in roots if all(i in nodes for i, b in enumerate(beta) if b)]
    return _exact_quotient(math.prod(h + 1 for h in heights), math.prod(heights), f"|W_J| on {nodes}")


def _positive_root_closure(cartan_cols, n) -> dict:
    """Positive root -> Dynkin labels, in height-then-lex order.

    A positive root beta with a negative label c at node i reflects to the
    higher root beta - c alpha_i, and every non-simple positive root arises
    so from a lower one; the closure of the simple roots is therefore all.
    The labels of beta - c alpha_i are those of beta minus c times column i.
    """
    labels_of = {}
    todo = [(tuple(int(i == j) for j in range(n)), cartan_cols[i]) for i in range(n)]
    while todo:
        beta, labels = todo.pop()
        if beta in labels_of:
            continue
        labels_of[beta] = labels
        for i, c in enumerate(labels):
            if c < 0:
                up = list(beta)
                up[i] -= c
                todo.append((tuple(up), tuple(x - c * y for x, y in zip(labels, cartan_cols[i]))))
    return {r: labels_of[r] for r in sorted(labels_of, key=lambda r: (sum(r), r))}


# ----------------------------------------------------------------------------
# module-level operations


def check_weight(d: RootDatum, w: Weight, level: int | None = None):
    """Refuse a weight of another algebra, one not dominant, or one above the level if given."""
    if w.algebra != d.algebra:
        raise ValueError(f"weight {w} belongs to {w.algebra}, expected {d.algebra}")
    if not w.is_dominant():
        raise ValueError(f"{w} is not dominant")
    if level is not None and d.level_of(w.labels) > level:
        raise ValueError(f"{w} is not an integrable level-{level} weight of {d.algebra}")


def weyl_dimension(d: RootDatum, lam: Weight) -> int:
    check_weight(d, lam)
    shifted = tuple(x + 1 for x in lam.labels)
    num = math.prod(d.scaled_ip_root(shifted, beta) for beta in d.positive_roots)
    return _exact_quotient(num, d.rho_product, f"Weyl dimension of {lam}")


def dominant_weights(d: RootDatum, cost, bound) -> list:
    """Dominant label tuples x with cost(x) <= bound, in lexicographic order.

    The labels are set in node order, and each label grows until cost, with
    the later labels at zero, overshoots bound.  That finds every such x when
    cost never decreases as a label grows: the level does not, and neither
    does D (x + rho, x + rho), since every Gram entry is positive.
    """
    lab = [0] * d.rank
    if cost(tuple(lab)) > bound:
        return []
    out = [tuple(lab)]
    i = d.rank - 1
    while i >= 0:
        lab[i] += 1
        x = tuple(lab)
        if cost(x) <= bound:
            out.append(x)
            i = d.rank - 1
        else:
            lab[i] = 0
            i -= 1
    return out


def dominant_below(d: RootDatum, top: Labels, bound: int) -> list:
    """All (nu, c): nu dominant with D (nu + rho, nu + rho) <= bound and
    top - nu = sum c_i alpha_i, every c_i >= 0; ordered by (sum c, nu)."""
    rows = []
    for nu in dominant_weights(d, d.rho_norm, bound):
        c = d.root_coords(tuple(a - b for a, b in zip(top, nu)))
        if c is not None and min(c) >= 0:
            rows.append((sum(c), nu, c))
    rows.sort()
    return [(nu, c) for _, nu, c in rows]


@lru_cache(maxsize=None)
def orbit_classes(algebra: LieAlgebraId, nodes: tuple, affine: bool = True) -> tuple:
    """Positive affine roots beta + m delta summed over W_J-orbits, J = nodes.

    Returns the classes at m = 0 (the positive roots) and, when affine, at
    every m >= 1 (every root, and the imaginary root of multiplicity rank,
    alone), each class as (summed multiplicity, labels and simple-root
    coordinates of its J-dominant member, labels of its members).  A row
    joins the class of the J-dominant labels of beta, which the chamber fold
    over J finds.  W_J moves a root only along the simple roots in J, so rows
    of one class that differ in a coordinate outside J are an error.  The
    m >= 1 classes take the folds of the positive roots from the cached
    m = 0 ones, so depth 0 alone folds no negative root.
    """
    d = build_root_datum(algebra)
    zero = (0,) * d.rank
    rows = [(lab, beta, 1) for lab, beta in zip(d.positive_root_labels, d.positive_roots)]
    tops = {zero: zero}
    head = ()
    if affine:
        head = orbit_classes(algebra, nodes, False)
        tops.update((lab, c[1]) for c in head[0] for lab in c[3])
        rows += [(tuple(-x for x in lab), tuple(-b for b in beta), 1) for lab, beta, _ in rows]
        rows.append((zero, zero, d.rank))
    outside = [i for i in range(d.rank) if i not in nodes]
    classes: dict = {}
    for lab, beta, root_mult in rows:
        if lab not in tops:
            tops[lab] = d.fold(lab, nodes=nodes)[0]
        fixed = tuple(beta[i] for i in outside)
        cls = classes.setdefault(tops[lab], [0, None, None, [], fixed])
        if fixed != cls[4]:
            raise InvariantError(f"orbit class of {lab} on {nodes}: coordinates {fixed} != {cls[4]}")
        cls[0] += root_mult
        cls[3].append(lab)
        if lab == tops[lab]:
            cls[1], cls[2] = lab, beta
    if any(cls[1] is None for cls in classes.values()):
        raise InvariantError(f"an orbit class on {nodes} has no J-dominant row")
    return head + (tuple((c[0], c[1], c[2], tuple(c[3])) for c in classes.values()),)


class GradedModule:
    """Weight multiplicity table of one integrable highest-weight module.

    Rows are filled a depth at a time.  The candidates at depth k are the
    dominant weights below highest + k*theta in the norm ball that the
    affine Freudenthal denominator allows (dominant_below), processed by
    increasing height of highest + k*theta - nu, so every same-depth lookup
    lands on an entry that already exists.  Over alpha_0 = delta - theta,
    alpha_1 .. alpha_r, a weight nu at depth k lies below the highest weight
    by the gap (k, coordinates of highest + k*theta - nu) >= 0, and the root
    beta + m delta has the coordinates (m, m*theta + beta).  Each root is
    stepped while it fits in the gap; every term skipped is zero.

    The recursion sums over orbit classes of roots, not over single roots
    (Moody and Patera, Bull. AMS 7, 1982, 237).  Let J be the nodes where nu
    has label 0.  W_J fixes nu and preserves the multiplicities of every
    depth and (nu + j beta, beta), so the term of beta + m delta is the same
    on its W_J-orbit at the same m.  At m = 0 only positive roots enter; W_J
    keeps the positive roots outside the span of J positive, and on a root
    inside it (nu, beta) = 0, so beta and -beta give the same term and a
    class holds the positive roots of an orbit closed under negation.  Each
    class (orbit_classes) is stepped once, from its J-dominant member, the
    highest, whose j-range is the shortest, and weighted by its summed
    multiplicity.  A finished row also fixes its graded dimension
    (multiplicities times Weyl-orbit sizes), which queries read.
    """

    def __init__(self, algebra: LieAlgebraId, level: int, highest: Weight):
        if level < 1:
            raise ValueError("level must be a positive integer")
        d = build_root_datum(algebra)
        check_weight(d, highest, level)
        self.algebra = algebra
        self.level = level
        self.highest = tuple(int(x) for x in highest.labels)
        self.datum = d
        self._kappa = level + d.dual_coxeter
        self._top_norm = d.rho_norm(self.highest)
        self._mult = {(self.highest, 0): 1}
        self._dims: list = []  # graded dimension of each finished depth
        self._done = -1

    # -- multiplicities -------------------------------------------------

    def multiplicity(self, labels, depth: int) -> int:
        """Multiplicity of a weight at the given depth; 0 when absent.

        A table entry is dominant within the level and would fold to itself,
        so it is read without a fold.  Weights beyond the level boundary are
        folded back by the affine reflection through theta, which lands at a
        strictly smaller depth; the fold stops as soon as the depth would go
        negative.
        """
        if depth < 0:
            return 0
        labels = tuple(labels)
        known = self._mult.get((labels, depth))
        if known is not None:
            return known
        folded = self.datum.fold(labels, self.level, depth)
        if folded is None:
            return 0
        lab, _, shift = folded
        return self._mult.get((lab, depth - shift), 0)

    def _freudenthal(self, nu, gap):
        d = self.datum
        k = gap[0]
        num = self._top_norm + 2 * k * self._kappa * d.denominator - d.rho_norm(nu)
        if num <= 0:
            raise InvariantError(f"affine Freudenthal at {nu}, depth {k}: norm gap {num}")
        ell_s = self.level * d.denominator
        total = 0
        classes = orbit_classes(self.algebra, tuple(i for i, a in enumerate(nu) if a == 0), k > 0)
        for m_im in range(k + 1):
            for class_mult, beta, root, _ in classes[min(m_im, 1)]:
                coords = (m_im,) + tuple(m_im * t + b for t, b in zip(d.highest_root, root))
                for j in range(1, min(g // c for g, c in zip(gap, coords) if c > 0) + 1):
                    w = tuple(x + j * b for x, b in zip(nu, beta))
                    m = self.multiplicity(w, k - j * m_im)
                    if m:
                        total += class_mult * m * (d.scaled_ip(w, beta) + ell_s * m_im)
        mult, rem = divmod(2 * total, num)
        if rem or mult < 0:
            raise InvariantError(f"affine Freudenthal at {nu}, depth {k}: {2 * total}/{num}")
        return mult

    def _extend(self, depth):
        d = self.datum
        for k in range(self._done + 1, depth + 1):
            top = tuple(h + k * t for h, t in zip(self.highest, d.theta_labels))
            cands = dominant_below(d, top, self._top_norm + 2 * k * self._kappa * d.denominator)
            for nu, gap in cands:
                if k == 0 and nu == self.highest:
                    continue  # seeded; its norm difference is zero
                if d.level_of(nu) > self.level:
                    continue  # reached through the reflection chain instead
                self._mult[(nu, k)] = self._freudenthal(nu, (k,) + gap)
            self._dims.append(sum(self.multiplicity(nu, k) * d.orbit_size(nu) for nu, _ in cands))
            self._done = k

    def graded_dims(self, depth: int) -> tuple:
        """Dimensions of the depth-0 .. depth weight spaces."""
        self._extend(depth)
        return tuple(self._dims[: depth + 1])


@lru_cache(maxsize=None)
def graded_module(algebra: LieAlgebraId, level: int, highest: Weight) -> GradedModule:
    return GradedModule(algebra, level, highest)


class WeightSystem(NamedTuple):
    highest: Weight
    multiplicities: dict  # Weight -> positive int, full Weyl-orbit closure

    @property
    def dimension(self) -> int:
        return sum(self.multiplicities.values())


@lru_cache(maxsize=None)
def weight_system_cached(algebra: LieAlgebraId, lam: Labels):
    """Weyl-orbit closure of the depth-0 rows of L(lam) at level max(1, (lam, theta)), which hold
    every dominant mu <= lam, checked once against the Weyl dimension.  Weights whose coefficient
    box c <= A^{-1} lam has more than MAX_WEIGHT_BOX points are refused before any module is built."""
    d = build_root_datum(algebra)
    box = math.prod(
        sum(g * x for g, x in zip(row, lam)) // s + 1 for row, s in zip(d.gram, d.scaled_symmetrizer)
    )
    if box > MAX_WEIGHT_BOX:
        raise ValueError("weight system too large for exact enumeration")
    top = d.weight(lam)
    module = graded_module(algebra, max(1, d.level_of(lam)), top)
    module.graded_dims(0)
    table = {w: m for (mu, k), m in module._mult.items() if k == 0 and m for w in d.weyl_orbit(mu)}
    if sum(table.values()) != weyl_dimension(d, top):
        raise InvariantError(f"weight system of {top} misses the Weyl dimension")
    return table


def freudenthal_weights(d: RootDatum, lam: Weight) -> WeightSystem:
    check_weight(d, lam)
    full = weight_system_cached(d.algebra, tuple(lam.labels))
    return WeightSystem(lam, {d.weight(k): v for k, v in full.items()})


@lru_cache(maxsize=None)
def _shifted_fold(algebra: LieAlgebraId, kappa, labels: Labels):
    """(w(x + rho) - rho, det w) for x = labels, folded into the dominant chamber, or with
    kappa into the alcove of level at most kappa; None when x + rho folds onto a wall
    (a zero label, or level equal to kappa)."""
    d = build_root_datum(algebra)
    lab, sign, _ = d.fold(tuple(a + 1 for a in labels), kappa)
    if 0 in lab or (kappa is not None and d.level_of(lab) == kappa):
        return None
    return tuple(a - 1 for a in lab), sign


def fold_sum(d: RootDatum, terms, kappa=None) -> dict:
    """Sum of m * det(w) [w(x + rho) - rho] over the terms (x, m), as {Weight: m}.

    Each term's image comes from _shifted_fold, so a point repeated across
    terms or calls is folded once; a term landing on a wall drops out.  The
    signed total must be nonnegative.  The result is in label order, without
    zero entries.
    """
    out: dict = {}
    for x, m in terms:
        image = _shifted_fold(d.algebra, kappa, tuple(x))
        if image is not None:
            target, sign = image
            out[target] = out.get(target, 0) + sign * m
    result = {}
    for labels, m in sorted(out.items()):
        if m < 0:
            raise InvariantError(f"signed fold sum is negative at {labels}")
        if m:
            result[d.weight(labels)] = m
    return result


def tensor_decompose(d: RootDatum, lam: Weight, mu: Weight) -> dict:
    """Racah-Speiser: shift the weight system of one factor by rho and fold."""
    dim_lam, dim_mu = weyl_dimension(d, lam), weyl_dimension(d, mu)
    if dim_mu > dim_lam:
        lam, mu = mu, lam
    wts = weight_system_cached(d.algebra, tuple(mu.labels))
    result = fold_sum(d, ((tuple(a + b for a, b in zip(lam.labels, nu)), m) for nu, m in wts.items()))
    # dimension bookkeeping must close
    if sum(m * weyl_dimension(d, w) for w, m in result.items()) != dim_lam * dim_mu:
        raise InvariantError(f"{lam} x {mu}: constituent dimensions do not add up")
    return result


def primaries_at_least(d: RootDatum, level: int) -> int:
    """A lower bound on the number of level weights, found without listing them:
    labels summing to at most level // max(comarks) have level at most level."""
    return math.comb(max(level, 0) // max(d.comarks) + d.rank, d.rank)


def level_weights(d: RootDatum, level: int) -> list:
    """Dominant weights of level <= level, lexicographically ordered."""
    if level < 0:
        raise ValueError("level must be nonnegative")
    return [d.weight(x) for x in dominant_weights(d, d.level_of, level)]


def conformal_anomaly(algebra: LieAlgebraId, level: int) -> Fraction:
    """Virasoro central charge level*dim/(h_vee + level)."""
    if level < 0:
        raise ValueError("level must be nonnegative")
    d = build_root_datum(algebra)
    return Fraction(level * d.dimension, d.dual_coxeter + level)


def trace_anomaly(algebra: LieAlgebraId, level: int, w: Weight) -> Fraction:
    """Conformal weight (lambda, lambda + 2 rho) / (2 (h_vee + level))."""
    d = build_root_datum(algebra)
    check_weight(d, w, level)
    shifted = tuple(x + 2 for x in w.labels)  # lambda + 2 rho
    return Fraction(d.ip(w.labels, shifted)) / (2 * (d.dual_coxeter + level))

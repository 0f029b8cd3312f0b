"""Exact graded linear algebra: echelon spans, quotients, finite complexes.

Everything here is coordinate-based over an :class:`~ainfbench.scalars.ExactField`.
Vectors are tuples of scalars; matrices are tuples of row tuples, acting on
column vectors (``out[i] = sum_j M[i][j] * v[j]``).  Coordinates entering an
elimination pass ``ExactField.coerce``, which rejects floats and bools.

All elimination is one private sparse semi-echelon form, ``_Echelon``: rows
``{col: scalar}`` keyed by pivot, each 1 at its pivot and 0 before it and at
every earlier pivot.  ``rref`` inserts every row, then re-inserts the rows in
descending pivot order, which gives the reduced row echelon form: the
canonical representative, so two subspaces are equal iff their rows are.
Homogeneous vectors stay homogeneous under row reduction (basis vectors of
distinct degrees have disjoint support), so graded subspaces need no extra
block bookkeeping.

A :class:`QuotientPresentation` seeds one echelon with spanning vectors of
the denominator and inserts candidate vectors (for ``quotient_space``, the
preferred vectors, then the numerator rows); each that adds a pivot is a coset
representative.  None of it depends on the elimination order.  The pivots of a
span W are the leading columns of its vectors, so the remainder of v modulo W
is the unique v - w (w in W) that is 0 at every pivot of W; a representative
is the scaled remainder of its vector modulo what was inserted before it.  As
the echelon's rows span the numerator, reducing e_b splits it uniquely as
e_b = d + sum_k c_k rep_k + r with d in the denominator: c is the quotient
coordinate vector of e_b, and the remainder r its residue, zero iff e_b lies
in the numerator.  Both are kept as sparse columns once index b is met, so
``project(v)`` = sum_b v_b * column_b costs the support of ``v``;
``project_strict`` also sums the residue columns and rejects ``v`` when that
sum is nonzero.  ``quotient_space`` checks containment by one count: the
echelon spans D + P + N (denominator, preferred vectors, numerator), which
contains N, so D and P lie in N iff it has dim N rows; only a failed count
looks for the first denominator row outside N, the witness.

A cohomology group H^q is presented the same way: the columns of d_{q-1} seed
the echelon and the ``nullspace`` basis of d_q is the candidates.  No
containment test is needed, as ``FiniteComplex`` has checked d o d = 0.
"""

from __future__ import annotations

from dataclasses import dataclass

from .scalars import ExactField


class LinAlgError(ValueError):
    pass


class ContainmentError(LinAlgError):
    """Denominator not contained in numerator; carries a witness vector."""

    def __init__(self, witness):
        self.witness = tuple(witness)
        super().__init__(f"containment violation, witness vector {self.witness}")


# ---------------------------------------------------------------------------
# vectors and matrices


def vec_is_zero(v) -> bool:
    return all(a == 0 for a in v)


def vec_sub(field, u, v):
    return tuple(field.sub(a, b) for a, b in zip(u, v))


def _sparse(field, v) -> dict:
    """Dense coordinates as a dict index -> nonzero scalar, through ``field.coerce``."""
    out = {}
    for j, a in enumerate(v):
        a = field.coerce(a)
        if a != 0:
            out[j] = a
    return out


def _dense(field, v: dict, n: int) -> tuple:
    zero = field.zero
    return tuple(v.get(j, zero) for j in range(n))


# ---------------------------------------------------------------------------
# echelon machinery


class _Echelon:
    """Sparse semi-echelon form: rows ``{col: scalar}`` keyed by pivot.

    Each row is 1 at its pivot and 0 before it and at every pivot inserted
    before it, so one pass over the rows in insertion order reduces a vector
    to zero at every pivot.
    """

    def __init__(self, field: ExactField, dense_rows=()):
        self.field = field
        self.rows: dict = {}  # pivot -> row, in insertion order
        for r in dense_rows:
            self.insert(_sparse(field, r))

    def reduce(self, v: dict, multipliers: dict | None = None) -> dict:
        """Remainder of the sparse vector ``v`` (no zero entries); when given,
        ``multipliers[pivot]`` receives the multiple of each row subtracted,
        so that v = remainder + sum multipliers[p] * rows[p]."""
        field = self.field
        v = dict(v)
        for piv, row in self.rows.items():
            c = v.get(piv)
            if c is not None:
                field.add_scaled(v, row, field.neg(c))
                if multipliers is not None:
                    multipliers[piv] = c
        return v

    def insert(self, v: dict):
        """Add ``v`` if it is independent of the rows: returns (pivot, row),
        the row being v's remainder scaled to 1 at its first column; None when
        ``v`` lies in the span."""
        r = self.reduce(v)
        if not r:
            return None
        piv = min(r)
        if r[piv] != 1:
            inv = self.field.inv(r[piv])
            r = {j: self.field.mul(inv, a) for j, a in r.items()}
        self.rows[piv] = r
        return piv, r


def rref(field: ExactField, rows):
    """Reduced row echelon form; returns (rows, pivot columns), zero rows dropped."""
    rows = list(rows)
    if not rows:
        return (), ()
    ncols = len(rows[0])
    semi = _Echelon(field, rows)
    # Inserted in descending pivot order, each row meets only finished rows
    # with larger pivots, which are 0 before their pivot: the result is reduced.
    reduced = _Echelon(field)
    for piv in sorted(semi.rows, reverse=True):
        reduced.insert(semi.rows[piv])
    pivots = tuple(sorted(reduced.rows))
    return tuple(_dense(field, reduced.rows[p], ncols) for p in pivots), pivots


def solve_linear(field: ExactField, m, b):
    """One solution x of M x = b, or None if inconsistent (free variables 0)."""
    if not m:
        return () if vec_is_zero(b) else None
    ncols = len(m[0])
    augmented = [tuple(row) + (bi,) for row, bi in zip(m, b)]
    rows, pivots = rref(field, augmented)
    if pivots and pivots[-1] == ncols:
        return None
    # reduced rows vanish at the other pivots, so each pivot variable is
    # read off its row once the free variables are 0
    x = [field.zero] * ncols
    for piv, row in zip(pivots, rows):
        x[piv] = row[ncols]
    return tuple(x)


def nullspace(field: ExactField, m, ncols: int):
    """Basis of the kernel of the matrix ``m`` (rows act on length-``ncols`` vectors)."""
    rows, pivots = rref(field, m)
    pivot_set = set(pivots)
    basis = []
    for j in range(ncols):
        if j in pivot_set:
            continue
        v = [field.zero] * ncols
        v[j] = field.one
        for piv, row in zip(pivots, rows):
            v[piv] = field.neg(row[j])
        basis.append(tuple(v))
    return tuple(basis)


# ---------------------------------------------------------------------------
# graded spaces and subspaces


@dataclass(frozen=True)
class GradedSpace:
    """Ordered basis with integer (cohomological) degrees."""

    labels: tuple
    degrees: tuple

    def __post_init__(self):
        if len(self.labels) != len(self.degrees):
            raise LinAlgError("labels and degrees must have equal length")
        if len(set(self.labels)) != len(self.labels):
            dup = sorted({l for l in self.labels if self.labels.count(l) > 1})
            raise LinAlgError(f"duplicate basis labels: {dup}")

    @property
    def dim(self) -> int:
        return len(self.labels)

    def index(self, label) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise LinAlgError(f"unknown basis label {label!r}") from None

    def degree_of_vector(self, v):
        """Common degree of the support of ``v``; None if zero, error if mixed."""
        degs = {self.degrees[i] for i, a in enumerate(v) if a != 0}
        if not degs:
            return None
        if len(degs) > 1:
            raise LinAlgError(f"vector is not homogeneous: degrees {sorted(degs)}")
        return degs.pop()


class Subspace:
    """Span of vectors in a graded ambient space, held in reduced echelon form."""

    def __init__(self, ambient: GradedSpace, field: ExactField, vectors=()):
        for v in vectors:
            if len(v) != ambient.dim:
                raise LinAlgError(
                    f"vector length {len(v)} does not match ambient dimension {ambient.dim}"
                )
        self.ambient = ambient
        self.field = field
        self.rows, self.pivots = rref(field, vectors)
        self.graded = True
        for r in self.rows:
            degs = {ambient.degrees[i] for i, a in enumerate(r) if a != 0}
            if len(degs) > 1:
                self.graded = False
                break
        self._echelon = None  # sparse copy of the rows, made by the first reduce

    @property
    def dim(self) -> int:
        return len(self.rows)

    def reduce(self, v):
        if len(v) != self.ambient.dim:
            raise LinAlgError("dimension mismatch")
        if self._echelon is None:
            self._echelon = _Echelon(self.field, self.rows)
        return _dense(self.field, self._echelon.reduce(_sparse(self.field, v)), self.ambient.dim)

    def contains(self, v) -> bool:
        return vec_is_zero(self.reduce(v))

    def contains_subspace(self, other: "Subspace") -> bool:
        return all(self.contains(r) for r in other.rows)

    def sum(self, other: "Subspace") -> "Subspace":
        if other.ambient is not self.ambient and other.ambient != self.ambient:
            raise LinAlgError("ambient spaces differ")
        return Subspace(self.ambient, self.field, self.rows + other.rows)

    def degree_dims(self) -> dict:
        out: dict = {}
        for r in self.rows:
            d = self.ambient.degree_of_vector(r)
            out[d] = out.get(d, 0) + 1
        return out

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.ambient == other.ambient
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.ambient.labels, self.rows))

    def __repr__(self):
        return f"Subspace(dim={self.dim} of {self.ambient.dim})"


def echelon_basis(vectors, field: ExactField, ambient: GradedSpace | None = None) -> Subspace:
    """Subspace spanned by ``vectors`` with a reduced echelon spanning set."""
    vectors = tuple(tuple(v) for v in vectors)
    if ambient is None:
        if not vectors:
            raise LinAlgError("cannot infer ambient dimension from an empty family")
        n = len(vectors[0])
        ambient = GradedSpace(tuple(f"e{i}" for i in range(n)), (0,) * n)
    return Subspace(ambient, field, vectors)


def membership(s: Subspace, v) -> bool:
    return s.contains(v)


# ---------------------------------------------------------------------------
# quotients


class QuotientPresentation:
    """Quotient numerator/denominator with chosen coset representatives.

    ``project`` maps ambient coordinates to quotient coordinates and ``lift``
    maps quotient coordinates back, with project(lift(c)) = c exactly and
    lift(project(v)) - v in the denominator for every v in the numerator.

    The numerator is taken to be the span of ``denominator_rows`` and
    ``candidates``; :func:`quotient_space` checks that it is the one it was given.
    """

    def __init__(self, ambient: GradedSpace, field: ExactField, denominator_rows, candidates):
        self.ambient = ambient
        self.field = field
        self.numerator = self.denominator = None  # the Subspaces, set by quotient_space
        self._echelon = _Echelon(field, denominator_rows)
        self._rep_of = {}  # pivot of a representative's row -> its index
        reps = []
        for v in candidates:
            new = self._echelon.insert(_sparse(field, v))
            if new is not None:
                self._rep_of[new[0]] = len(reps)
                reps.append(_dense(field, new[1], self.ambient.dim))
        self.reps = tuple(reps)
        self.dim = len(reps)

        # representative degrees (quotients of graded subspaces stay graded)
        self.degrees = tuple(self.ambient.degree_of_vector(r) for r in self.reps)
        self._columns = {}  # ambient index b -> sparse (coords, residue) of e_b

    def _column(self, b):
        """Quotient coordinates of the basis vector e_b (the multipliers of the
        representatives' rows) and its residue (the remainder), both as
        sparse dicts index -> scalar; reduced the first time, then cached."""
        col = self._columns.get(b)
        if col is not None:
            return col
        if not 0 <= b < self.ambient.dim:
            raise LinAlgError(f"basis index {b} outside ambient dimension {self.ambient.dim}")
        multipliers = {}
        residue = self._echelon.reduce({b: self.field.one}, multipliers)
        coords = {self._rep_of[p]: c for p, c in multipliers.items() if p in self._rep_of}
        col = self._columns[b] = (coords, residue)
        return col

    def _combine(self, v, part):
        """sum_b v_b * column_b for ``part`` 0 (coords) or 1 (residue), as a
        dict index -> nonzero scalar; ``v`` is dense or a dict index -> scalar."""
        acc: dict = {}
        for b, c in v.items() if isinstance(v, dict) else enumerate(v):
            if c != 0:
                self.field.add_scaled(acc, self._column(b)[part], c)
        return acc

    def project(self, v):
        """Quotient coordinates of an ambient vector (class of its numerator part).

        ``v`` is a coordinate tuple or a sparse dict index -> scalar."""
        return _dense(self.field, self._combine(v, 0), self.dim)

    def project_strict(self, v):
        """Like project, but errors if ``v`` is not in the numerator mod denominator."""
        if self._combine(v, 1):
            raise LinAlgError("vector lies outside the numerator; projection undefined")
        return self.project(v)

    def lift(self, coords):
        if len(coords) != self.dim:
            raise LinAlgError("quotient coordinate length mismatch")
        acc: dict = {}
        for c, piv in zip(coords, self._rep_of):
            if c != 0:
                self.field.add_scaled(acc, self._echelon.rows[piv], c)
        return _dense(self.field, acc, self.ambient.dim)

    def verify(self) -> bool:
        """Self-check: project(lift(c)) = c, tested on the unit vectors c, and
        lift(project(r)) - r lies in the denominator for every numerator row."""
        field = self.field
        for k, rep in enumerate(self.reps):
            if self.project(rep) != tuple(field.one if j == k else field.zero for j in range(self.dim)):
                return False
        for r in self.numerator.rows:
            residue = vec_sub(field, self.lift(self.project(r)), r)
            if not self.denominator.contains(residue):
                return False
        return True


def quotient_space(numerator: Subspace, denominator: Subspace, preferred=()) -> QuotientPresentation:
    """numerator / denominator, representatives taken from ``preferred`` first."""
    ambient = numerator.ambient
    if ambient != denominator.ambient:
        raise LinAlgError("numerator and denominator have different ambients")
    preferred = tuple(preferred)
    if any(len(v) != ambient.dim for v in preferred):
        raise LinAlgError("dimension mismatch")
    q = QuotientPresentation(ambient, numerator.field, denominator.rows, (*preferred, *numerator.rows))
    # D + P + N is N iff D and P lie in N; only a failed count seeks the witness
    if denominator.dim + q.dim != numerator.dim:
        for r in denominator.rows:
            if not numerator.contains(r):
                raise ContainmentError(r)
        raise LinAlgError("preferred representative lies outside the numerator")
    q.numerator, q.denominator = numerator, denominator
    return q


# ---------------------------------------------------------------------------
# finite complexes and cohomology


class ComplexError(LinAlgError):
    pass


class FiniteComplex:
    """Finite complex of based vector spaces with a degree +1 differential.

    ``components[q]`` is the ordered basis (labels) in complex degree q and
    ``diff[q]`` the matrix of d: C^q -> C^{q+1}, its entries through
    ``field.coerce``.  d o d = 0 is checked on construction and violations
    report the failing matrix entry, the first in row-major order.
    """

    def __init__(self, field: ExactField, components: dict, diff: dict):
        self.field = field
        self.components = {q: tuple(labels) for q, labels in components.items() if labels}
        self.diff = {}
        columns = {}  # q -> {j: nonzero column j of d_q as {i: scalar}}
        for q, m in diff.items():
            m = tuple(tuple(field.coerce(a) for a in row) for row in m)
            cols = {}
            for i, row in enumerate(m):
                for j, a in enumerate(row):
                    if a != 0:
                        cols.setdefault(j, {})[i] = a
            if not cols:
                continue
            src = len(self.components.get(q, ()))
            tgt = len(self.components.get(q + 1, ()))
            if len(m) != tgt or any(len(row) != src for row in m):
                raise ComplexError(f"differential at degree {q} has wrong shape")
            self.diff[q] = m
            columns[q] = cols
        for q, cols in columns.items():
            nxt = columns.get(q + 1, {})
            bad = []
            for j, col in cols.items():
                out: dict = {}
                for k in col.keys() & nxt.keys():
                    field.add_scaled(out, nxt[k], col[k])
                bad += [(i, j, a) for i, a in out.items()]
            if bad:
                i, j, a = min(bad)
                raise ComplexError(f"d o d != 0: entry ({i},{j}) from degree {q} equals {a}")

    def dims(self) -> dict:
        return {q: len(ls) for q, ls in self.components.items()}

    def euler_characteristic(self) -> int:
        return sum((-1) ** (q % 2) * len(ls) for q, ls in self.components.items())

    def differential(self, q):
        src = len(self.components.get(q, ()))
        tgt = len(self.components.get(q + 1, ()))
        m = self.diff.get(q)
        if m is not None:
            return m
        return tuple((self.field.zero,) * src for _ in range(tgt))


class CohomologyData:
    """Cohomology of a finite complex with explicit representative cocycles."""

    def __init__(self, complex_: FiniteComplex):
        self.complex = complex_
        field = complex_.field
        self.groups = {}
        for q in sorted(complex_.components):
            labels = complex_.components[q]
            ambient = GradedSpace(labels, (q,) * len(labels))
            # the image of d_{q-1} is spanned by the columns of its matrix
            image = tuple(zip(*complex_.differential(q - 1)))
            kernel = nullspace(field, complex_.differential(q), len(labels))
            self.groups[q] = QuotientPresentation(ambient, field, image, kernel)

    def dims(self) -> dict:
        return {q: g.dim for q, g in self.groups.items() if g.dim > 0}

    def total_dim(self) -> int:
        return sum(g.dim for g in self.groups.values())

    def representatives(self, q):
        g = self.groups.get(q)
        return g.reps if g is not None else ()

    def class_coords(self, q, cocycle):
        """Coordinates of a cocycle's class in the chosen degree-q basis."""
        g = self.groups.get(q)
        if g is None:
            if not vec_is_zero(cocycle):
                raise LinAlgError("nonzero vector in a zero group")
            return ()
        return g.project_strict(cocycle)


def complex_cohomology(c: FiniteComplex) -> CohomologyData:
    return CohomologyData(c)

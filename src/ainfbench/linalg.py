"""Exact graded linear algebra: echelon spans, quotients, finite complexes.

Everything here is coordinate-based over an :class:`~ainfbench.scalars.ExactField`.
A vector is a sparse dict index -> nonzero scalar.  Every vector this module
hands out (the rows of a :class:`Subspace`, the representatives of a
:class:`QuotientPresentation`, projections, lifts and cohomology classes)
has its keys in ascending index order.  ``Subspace``, ``QuotientPresentation``
and ``quotient_space`` also take dense coordinate tuples as input, and
coordinates entering an elimination pass ``ExactField.coerce``, which rejects
floats and bools.  Only the dense utilities ``rref``, ``nullspace``,
``solve_linear`` and ``echelon_basis`` and the matrix views of a
:class:`FiniteComplex` work on tuples: matrices are tuples of row tuples,
acting on column vectors (``out[i] = sum_j M[i][j] * v[j]``).  A
``FiniteComplex`` also takes its differentials as sparse columns
``{j: {i: scalar}}``.

All elimination is one private sparse semi-echelon form, ``_Echelon``: rows
``{col: scalar}`` keyed by pivot, each 1 at its pivot and 0 before it and at
every earlier pivot.  ``_reduced`` inserts every row, then re-inserts the
rows in descending pivot order, which gives the reduced row echelon form: the
canonical representative, so two subspaces are equal iff their rows are.
A :class:`Subspace` keeps those reduced rows as its echelon (they vanish at
every pivot but their own) and tests membership by one reduction.
Homogeneous vectors stay homogeneous under row reduction (basis vectors of
distinct degrees have disjoint support), so graded subspaces need no extra
block bookkeeping.

A :class:`QuotientPresentation` seeds one echelon with spanning vectors of the
denominator and inserts candidate vectors; each that adds a pivot is a coset
representative.  ``quotient_space`` seeds it with a copy of the denominator's
reduced rows, an echelon already, and inserts the preferred vectors, then
the numerator's reduced rows.  None of it depends on the elimination order.
The pivots of a span W are the leading columns of its vectors, so the
remainder of v modulo W is the unique v - w (w in W) that is 0 at every pivot
of W; a representative is the scaled remainder of its vector modulo what was
inserted before it.  As the echelon's rows span the numerator, reducing e_b
splits it uniquely as e_b = d + sum_k c_k rep_k + r with d in the
denominator: c is the quotient coordinate vector of e_b, and the remainder r
its residue, zero iff e_b lies in the numerator.  Both are kept as sparse
columns once index b is met, so ``project(v)`` = sum_b v_b * column_b costs
the support of ``v``; ``project_strict`` also sums the residue columns and
rejects ``v`` when that sum is nonzero.  ``quotient_space`` checks
containment by one count: the echelon spans D + P + N (denominator, preferred
vectors, numerator), which contains N, so D and P lie in N iff it has dim N
rows; only a failed count looks for the first denominator row outside N, the
witness.

The dimension of a cohomology group H^q comes from the ranks of d_q and
d_{q-1}, one echelon of sparse columns each.  Its classes are presented the
same way as a quotient when first asked for: the echelon of d_{q-1}'s
columns seeds the presentation and the candidates are the kernel basis of
d_q, computed from the rows transposed from its columns.  No containment
test is needed, as ``FiniteComplex`` has checked d o d = 0, in ints: over Q
each degree's columns are scaled by the lcm of their denominators first.
"""

from __future__ import annotations

import math
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


def _fits(v, n: int) -> bool:
    """Whether a dense or sparse vector fits an ambient of dimension ``n``."""
    return all(0 <= j < n for j in v) if isinstance(v, dict) else len(v) == n


def _sparse(field, v) -> dict:
    """Coordinates as a dict index -> nonzero scalar, through ``field.coerce``;
    ``v`` is a dense sequence or a dict index -> scalar."""
    out = {}
    for j, a in v.items() if isinstance(v, dict) else enumerate(v):
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

    def __init__(self, field: ExactField, rows=()):
        self.field = field
        self.rows: dict = {}  # pivot -> row, in insertion order
        for r in rows:  # sparse, through field.coerce, no zero entries
            self.insert(r)

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


def _reduced(field: ExactField, rows) -> _Echelon:
    """Reduced row echelon form of sparse rows (as ``_Echelon`` takes them):
    an echelon with its rows in ascending pivot order."""
    semi = _Echelon(field, rows)
    # Inserted in descending pivot order, each row meets only finished rows
    # with larger pivots, which are 0 before their pivot: the result is reduced.
    reduced = _Echelon(field)
    for piv in sorted(semi.rows, reverse=True):
        reduced.insert(semi.rows[piv])
    reduced.rows = {p: dict(sorted(reduced.rows[p].items())) for p in sorted(reduced.rows)}
    return reduced


def rref(field: ExactField, rows):
    """Reduced row echelon form; returns (rows, pivot columns), zero rows dropped."""
    rows = list(rows)
    if not rows:
        return (), ()
    ncols = len(rows[0])
    reduced = _reduced(field, [_sparse(field, r) for r in rows]).rows
    return tuple(_dense(field, r, ncols) for r in reduced.values()), tuple(reduced)


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


def _kernel(field: ExactField, rows, ncols: int) -> list:
    """Kernel basis of the matrix with these sparse rows, as sparse vectors:
    one per free column j, 1 at j and -row[j] at the pivot of each reduced
    row (reduced rows vanish at every other pivot, so each entry off a row's
    pivot is at a free column)."""
    reduced = _reduced(field, rows).rows
    basis = {j: {j: field.one} for j in range(ncols) if j not in reduced}
    for piv, row in reduced.items():
        for j, a in row.items():
            if j != piv:
                basis[j][piv] = field.neg(a)
    return list(basis.values())


def nullspace(field: ExactField, m, ncols: int):
    """Basis of the kernel of the matrix ``m`` (rows act on length-``ncols`` vectors)."""
    return tuple(_dense(field, v, ncols) for v in _kernel(field, [_sparse(field, r) for r in m], ncols))


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

    def degree_of_vector(self, v: dict):
        """Common degree of the support of ``v``; None if zero, error if mixed."""
        degs = {self.degrees[i] for i, a in v.items() if a != 0}
        if not degs:
            return None
        if len(degs) > 1:
            raise LinAlgError(f"vector is not homogeneous: degrees {sorted(degs)}")
        return degs.pop()


class Subspace:
    """Span of vectors in a graded ambient space, held in reduced echelon form.

    Vectors, here and in ``contains``, are coordinate tuples or sparse dicts
    index -> scalar.  The sparse reduced rows (``rows``, not to be mutated)
    are the span's ``_Echelon``, and ``pivots`` their leading indices."""

    def __init__(self, ambient: GradedSpace, field: ExactField, vectors=()):
        self.ambient = ambient
        self.field = field
        self._echelon = _reduced(field, [self._coords(v) for v in vectors])
        self.rows = tuple(self._echelon.rows.values())
        self.pivots = tuple(self._echelon.rows)
        self.graded = all(len({ambient.degrees[i] for i in r}) == 1 for r in self.rows)

    def _coords(self, v) -> dict:
        """A dense or sparse vector as a sparse one, checked against the ambient."""
        if not _fits(v, self.ambient.dim):
            raise LinAlgError(f"vector does not fit the ambient dimension {self.ambient.dim}")
        return _sparse(self.field, v)

    @property
    def dim(self) -> int:
        return len(self.rows)

    def contains(self, v) -> bool:
        return not self._echelon.reduce(self._coords(v))

    def _same_ambient(self, other: "Subspace") -> None:
        if other.ambient is not self.ambient and other.ambient != self.ambient:
            raise LinAlgError("ambient spaces differ")

    def contains_subspace(self, other: "Subspace") -> bool:
        self._same_ambient(other)
        return all(self.contains(r) for r in other.rows)

    def sum(self, other: "Subspace") -> "Subspace":
        self._same_ambient(other)
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
        return hash((self.ambient.labels, self.pivots))

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
        """``denominator_rows`` and ``candidates`` are coordinate tuples or
        sparse dicts index -> scalar; ``denominator_rows`` may also be an
        ``_Echelon`` of them, which the presentation takes over."""
        self.ambient = ambient
        self.field = field
        self.numerator = self.denominator = None  # the Subspaces, set by quotient_space
        if isinstance(denominator_rows, _Echelon):
            self._echelon = denominator_rows
        else:
            self._echelon = _Echelon(field, [_sparse(field, r) for r in denominator_rows])
        self._rep_of = {}  # pivot of a representative's row -> its index
        reps = []
        for v in candidates:
            new = self._echelon.insert(_sparse(field, v))
            if new is not None:
                piv, row = new
                row = self._echelon.rows[piv] = dict(sorted(row.items()))
                self._rep_of[piv] = len(reps)
                reps.append(row)
        self.reps = tuple(reps)  # the representatives' echelon rows, not to be mutated
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

    def _combine(self, v: dict, part) -> dict:
        """sum_b v_b * column_b for ``part`` 0 (coords) or 1 (residue), as a
        dict index -> nonzero scalar."""
        acc: dict = {}
        for b, c in v.items():
            if c != 0:
                self.field.add_scaled(acc, self._column(b)[part], c)
        return acc

    def project(self, v: dict) -> dict:
        """Quotient coordinates of the ambient vector ``v``, the class of its
        numerator part, without the residue check: for a ``v`` known to lie
        in the numerator."""
        coords = self._combine(v, 0)
        return {k: coords[k] for k in sorted(coords)}

    def project_strict(self, v: dict) -> dict:
        """``project``, but errors if ``v`` is not in the numerator mod
        denominator."""
        if self._combine(v, 1):
            raise LinAlgError("vector lies outside the numerator; projection undefined")
        return self.project(v)

    def lift(self, coords: dict) -> dict:
        """The ambient vector sum_k coords_k * reps[k]."""
        acc: dict = {}
        for k, c in coords.items():
            if not 0 <= k < self.dim:
                raise LinAlgError(f"quotient coordinate {k} outside dimension {self.dim}")
            self.field.add_scaled(acc, self.reps[k], c)
        return {b: acc[b] for b in sorted(acc)}

    def verify(self) -> bool:
        """Self-check from the presentation's own echelon: project(lift(e_k))
        = e_k for each representative, and lift(project(r)) - r is a
        combination of the denominator rows alone for each echelon row r."""
        field = self.field
        if any(self.project(self.lift({k: field.one})) != {k: field.one} for k in range(self.dim)):
            return False
        for r in self._echelon.rows.values():
            residue = self.lift(self.project(r))
            field.add_scaled(residue, r, field.neg(field.one))
            multipliers = {}
            if self._echelon.reduce(residue, multipliers) or multipliers.keys() & self._rep_of.keys():
                return False
        return True


def quotient_space(numerator: Subspace, denominator: Subspace, preferred=()) -> QuotientPresentation:
    """numerator / denominator, representatives taken from ``preferred`` first."""
    ambient = numerator.ambient
    if ambient != denominator.ambient:
        raise LinAlgError("numerator and denominator have different ambients")
    preferred = tuple(preferred)
    if not all(_fits(v, ambient.dim) for v in preferred):
        raise LinAlgError("dimension mismatch")
    seed = _Echelon(numerator.field)  # reduced rows are an echelon already
    seed.rows = {p: dict(r) for p, r in denominator._echelon.rows.items()}
    q = QuotientPresentation(ambient, numerator.field, seed, (*preferred, *numerator.rows))
    # D + P + N is N iff D and P lie in N; only a failed count seeks the witness
    if denominator.dim + q.dim != numerator.dim:
        for r in denominator.rows:
            if not numerator.contains(r):
                raise ContainmentError(_dense(numerator.field, r, ambient.dim))
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
    ``diff[q]`` the map d: C^q -> C^{q+1}, given either as a dense matrix (a
    sequence of rows) or as sparse columns ``{j: {i: scalar}}``.  Either way
    its entries pass ``field.coerce`` and only the nonzero ones are kept, as
    the sparse columns ``columns[q]``; ``diff`` and ``differential(q)`` build
    dense matrices from them on demand.  d o d = 0 is checked on construction
    and violations report the failing matrix entry, the first in row-major
    order.
    """

    def __init__(self, field: ExactField, components: dict, diff: dict):
        self.field = field
        self.components = {q: tuple(labels) for q, labels in components.items() if labels}
        self.columns = {}  # q -> {j: nonzero column j of d_q as {i: scalar}}
        for q, m in diff.items():
            sparse = isinstance(m, dict)
            if sparse:
                entries = ((i, j, a) for j, col in m.items() for i, a in col.items())
            else:
                entries = ((i, j, a) for i, row in enumerate(m) for j, a in enumerate(row))
            cols = {}
            for i, j, a in entries:
                a = field.coerce(a)
                if a != 0:
                    cols.setdefault(j, {})[i] = a
            if not cols:
                continue
            src = len(self.components.get(q, ()))
            tgt = len(self.components.get(q + 1, ()))
            if sparse:
                bad = any(not 0 <= j < src or not all(0 <= i < tgt for i in col)
                          for j, col in cols.items())
            else:
                bad = len(m) != tgt or any(len(row) != src for row in m)
            if bad:
                raise ComplexError(f"differential at degree {q} has wrong shape")
            self.columns[q] = cols
        # d o d in ints: over Q each degree's columns are scaled by the lcm of
        # their denominators; only a failing entry is recomputed in the field
        p = field.characteristic
        ints = {q: cols if p else _scaled_columns(cols) for q, cols in self.columns.items()}
        for q, cols in ints.items():
            nxt = ints.get(q + 1, {})
            bad = []
            for j, col in cols.items():
                out: dict = {}
                for k in col.keys() & nxt.keys():
                    c = col[k]
                    for i, a in nxt[k].items():
                        out[i] = out.get(i, 0) + c * a
                bad += [(i, j) for i, s in out.items() if (s % p if p else s)]
            if bad:
                i, j = min(bad)
                col, nxt = self.columns[q][j], self.columns[q + 1]
                a = field.zero
                for k in col.keys() & nxt.keys():
                    a = field.add(a, field.mul(col[k], nxt[k].get(i, field.zero)))
                raise ComplexError(f"d o d != 0: entry ({i},{j}) from degree {q} equals {a}")

    def dims(self) -> dict:
        return {q: len(ls) for q, ls in self.components.items()}

    def euler_characteristic(self) -> int:
        return sum((-1) ** (q % 2) * len(ls) for q, ls in self.components.items())

    @property
    def diff(self) -> dict:
        """The nonzero differentials as dense matrices, keyed by degree."""
        return {q: self.differential(q) for q in self.columns}

    def differential(self, q):
        """The matrix of d_q as a tuple of row tuples (all zero outside ``diff``)."""
        rows = [[self.field.zero] * len(self.components.get(q, ()))
                for _ in self.components.get(q + 1, ())]
        for j, col in self.columns.get(q, {}).items():
            for i, a in col.items():
                rows[i][j] = a
        return tuple(map(tuple, rows))


def _scaled_columns(cols: dict) -> dict:
    """Sparse columns of Fractions times the lcm of their denominators, as ints."""
    den = math.lcm(*{a.denominator for col in cols.values() for a in col.values()})
    return {j: {i: a.numerator * (den // a.denominator) for i, a in col.items()} for j, col in cols.items()}


class CohomologyData:
    """Cohomology of a finite complex with explicit representative cocycles.

    Dimensions come from ranks: the constructor inserts the sparse columns of
    each d_q into one echelon, and dim H^q = dim C^q - rank d_q - rank d_{q-1},
    exact because ``FiniteComplex`` has checked d o d = 0.  Classes are
    presented on first use of ``groups``, ``representatives`` or
    ``class_coords``: H^q is a ``QuotientPresentation`` whose echelon is the
    one of d_{q-1}'s columns, taken over, with the kernel basis of d_q as
    candidates; each group's dim is checked against the one from ranks.
    """

    def __init__(self, complex_: FiniteComplex):
        self.complex = complex_
        field = complex_.field
        # q -> echelon of the columns of d_q, which span its image in C^{q+1}
        self._images = {q: _Echelon(field, cols.values()) for q, cols in complex_.columns.items()}
        rank = {q: len(e.rows) for q, e in self._images.items()}
        self._dims = {
            q: len(labels) - rank.get(q, 0) - rank.get(q - 1, 0)
            for q, labels in sorted(complex_.components.items())
        }
        self._groups = None

    @property
    def groups(self) -> dict:
        """degree -> QuotientPresentation of H^q, built on first use."""
        if self._groups is None:
            field = self.complex.field
            groups = {}
            for q, want in self._dims.items():
                labels = self.complex.components[q]
                ambient = GradedSpace(labels, (q,) * len(labels))
                rows: dict = {}  # the rows of d_q, transposed from its columns
                for j, col in self.complex.columns.get(q, {}).items():
                    for i, a in col.items():
                        rows.setdefault(i, {})[j] = a
                kernel = _kernel(field, rows.values(), len(labels))
                image = self._images.pop(q - 1, None) or _Echelon(field)
                g = groups[q] = QuotientPresentation(ambient, field, image, kernel)
                if g.dim != want:
                    raise LinAlgError(f"H^{q} presented with dim {g.dim}, ranks give {want}")
            self._groups = groups
        return self._groups

    def dims(self) -> dict:
        return {q: d for q, d in self._dims.items() if d > 0}

    def total_dim(self) -> int:
        return sum(self._dims.values())

    def representatives(self, q):
        g = self.groups.get(q)
        return g.reps if g is not None else ()

    def class_coords(self, q, cocycle: dict) -> dict:
        """Coordinates of a cocycle's class in the chosen degree-q basis."""
        g = self.groups.get(q)
        if g is None:
            if not vec_is_zero(cocycle.values()):
                raise LinAlgError("nonzero vector in a zero group")
            return {}
        return g.project_strict(cocycle)


def complex_cohomology(c: FiniteComplex) -> CohomologyData:
    return CohomologyData(c)

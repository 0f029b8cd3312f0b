"""Exact graded linear algebra: echelon spans, quotients, finite complexes.

Everything here is coordinate-based over an :class:`~ainfbench.scalars.ExactField`.
A vector is a sparse dict index -> scalar, in every form this module takes
and hands out.  Vectors going in (to :class:`Subspace`,
:class:`QuotientPresentation` and ``quotient_space``) pass
``ExactField.coerce``, which rejects floats and bools, and lose their zero
entries; any other form, a coordinate tuple among them, raises
:class:`LinAlgError`.  Every vector this module hands out (the rows of a
``Subspace``, the representatives of a ``QuotientPresentation``,
projections, lifts and cohomology classes) has no zero entry and its keys in
ascending index order.  A :class:`FiniteComplex` takes its differentials as
sparse columns ``{j: {i: scalar}}`` and keeps them that way.

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

A :class:`QuotientPresentation` takes over an echelon of the denominator's
spanning vectors and inserts candidate vectors; each that adds a pivot is a coset
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
same way as a quotient, one degree at a time, when that degree is first
asked for: the echelon of d_{q-1}'s columns seeds the presentation and the
candidates are the kernel basis of d_q, computed from the rows transposed
from its columns.  No containment test is needed, as ``FiniteComplex`` has
checked d o d = 0, in ints, on every pair of consecutive nonzero maps: over
Q the columns of those maps are scaled by the lcm of their denominators first.
``_solve`` reads one preimage off the reduced rows of the same transpose.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .scalars import ExactField


class LinAlgError(ValueError):
    pass


class ContainmentError(LinAlgError):
    """Denominator not contained in numerator; carries a witness vector,
    a denominator row outside the numerator, sparse."""

    def __init__(self, witness: dict):
        self.witness = witness
        super().__init__(f"containment violation, witness vector {self.witness}")


# ---------------------------------------------------------------------------
# vectors


def _sparse(field, v, n: int) -> dict:
    """The vector ``v`` as a dict index -> nonzero scalar, through
    ``field.coerce``; LinAlgError unless ``v`` is a dict index -> scalar
    with every index in 0..n-1."""
    if not isinstance(v, dict):
        raise LinAlgError(f"vectors are sparse dicts {{index: scalar}}, not {type(v).__name__}")
    out = {}
    for j, a in v.items():
        if not 0 <= j < n:
            raise LinAlgError(f"dimension mismatch: index {j} outside the ambient dimension {n}")
        a = field.coerce(a)
        if a != 0:
            out[j] = a
    return out


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


def _solve(field: ExactField, columns: dict, b: dict, ncols: int):
    """One solution x of M x = b as a sparse vector in ascending index order,
    or None when there is none.  M has ``ncols`` columns, given sparse
    (``{j: {i: scalar}}``, as ``FiniteComplex.columns``), and ``b`` is sparse;
    neither holds a zero entry.  The rows of [M | b] are brought to reduced
    echelon form: b lies outside the image iff column ``ncols`` is a pivot,
    and otherwise each pivot variable is read off its row with every free
    variable 0 (a reduced row vanishes at every other pivot)."""
    rows = _transpose(columns)
    for i, a in b.items():
        rows.setdefault(i, {})[ncols] = a
    reduced = _reduced(field, rows.values()).rows
    if ncols in reduced:
        return None
    return {piv: row[ncols] for piv, row in reduced.items() if ncols in row}


def _transpose(columns: dict) -> dict:
    """The sparse rows {i: {j: scalar}} of the matrix with sparse ``columns``."""
    rows: dict = {}
    for j, col in columns.items():
        for i, a in col.items():
            rows.setdefault(i, {})[j] = a
    return rows


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

    Vectors, here and in ``contains``, are sparse dicts index -> scalar
    (see the module docstring).  The sparse reduced rows (``rows``, not to
    be mutated) are the span's ``_Echelon``, and ``pivots`` their leading
    indices."""

    def __init__(self, ambient: GradedSpace, field: ExactField, vectors=()):
        self.ambient = ambient
        self.field = field
        self._echelon = _reduced(field, [_sparse(field, v, ambient.dim) for v in vectors])
        self.rows = tuple(self._echelon.rows.values())
        self.pivots = tuple(self._echelon.rows)
        self.graded = all(len({ambient.degrees[i] for i in r}) == 1 for r in self.rows)

    @property
    def dim(self) -> int:
        return len(self.rows)

    def contains(self, v) -> bool:
        return not self._echelon.reduce(_sparse(self.field, v, self.ambient.dim))

    def _same_ambient(self, other: "Subspace") -> None:
        if other.ambient is not self.ambient and other.ambient != self.ambient:
            raise LinAlgError("ambient spaces differ")

    def contains_subspace(self, other: "Subspace") -> bool:
        self._same_ambient(other)
        return all(self.contains(r) for r in other.rows)

    def sum(self, other: "Subspace") -> "Subspace":
        self._same_ambient(other)
        return Subspace(self.ambient, self.field, self.rows + other.rows)

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


# ---------------------------------------------------------------------------
# quotients


class QuotientPresentation:
    """Quotient numerator/denominator with chosen coset representatives.

    ``project`` maps ambient coordinates to quotient coordinates and ``lift``
    maps quotient coordinates back, with project(lift(c)) = c exactly and
    lift(project(v)) - v in the denominator for every v in the numerator.

    The numerator is taken to be the span of ``echelon``'s rows and
    ``candidates``; :func:`quotient_space` checks that it is the one it was given.
    """

    def __init__(self, ambient: GradedSpace, field: ExactField, echelon: _Echelon, candidates):
        """``echelon`` holds spanning vectors of the denominator, and the
        presentation takes it over; ``candidates`` are sparse dicts index ->
        scalar."""
        self.ambient = ambient
        self.field = field
        self.numerator = self.denominator = None  # the Subspaces, set by quotient_space
        self._echelon = echelon
        self._rep_of = {}  # pivot of a representative's row -> its index
        reps = []
        for v in candidates:
            new = self._echelon.insert(_sparse(field, v, ambient.dim))
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


def quotient_space(numerator: Subspace, denominator: Subspace, preferred=()) -> QuotientPresentation:
    """numerator / denominator, representatives taken from ``preferred`` first."""
    ambient = numerator.ambient
    if ambient != denominator.ambient:
        raise LinAlgError("numerator and denominator have different ambients")
    seed = _Echelon(numerator.field)  # reduced rows are an echelon already
    seed.rows = {p: dict(r) for p, r in denominator._echelon.rows.items()}
    q = QuotientPresentation(ambient, numerator.field, seed, (*preferred, *numerator.rows))
    # D + P + N is N iff D and P lie in N; only a failed count seeks the witness
    if denominator.dim + q.dim != numerator.dim:
        for r in denominator.rows:
            if not numerator.contains(r):
                raise ContainmentError(dict(r))
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
    ``diff[q]`` the map d: C^q -> C^{q+1} as sparse columns ``{j: {i:
    scalar}}``; any other form raises ComplexError.  Its entries pass
    ``field.coerce`` and only the nonzero ones are kept, as the sparse
    columns ``columns[q]``.  d o d = 0 is checked on construction and
    violations report the failing matrix entry (i, j), the first in
    row-major order.
    """

    def __init__(self, field: ExactField, components: dict, diff: dict):
        self.field = field
        self.components = {q: tuple(labels) for q, labels in components.items() if labels}
        self.columns = {}  # q -> {j: nonzero column j of d_q as {i: scalar}}
        for q, m in diff.items():
            if not isinstance(m, dict) or not all(isinstance(col, dict) for col in m.values()):
                raise ComplexError(f"differential at degree {q} is not sparse columns {{j: {{i: scalar}}}}")
            cols = {}
            for j, col in m.items():
                for i, a in col.items():
                    a = field.coerce(a)
                    if a != 0:
                        cols.setdefault(j, {})[i] = a
            if not cols:
                continue
            src = len(self.components.get(q, ()))
            tgt = len(self.components.get(q + 1, ()))
            if any(not 0 <= j < src or not all(0 <= i < tgt for i in col) for j, col in cols.items()):
                raise ComplexError(f"differential at degree {q} has wrong shape")
            self.columns[q] = cols
        # d o d in ints, on the pairs (q, q + 1) where both maps are nonzero:
        # over Q each such degree's columns are scaled by the lcm of their
        # denominators; only a failing entry is recomputed in the field
        p = field.characteristic
        pairs = [q for q in self.columns if q + 1 in self.columns]
        ints = {q: self.columns[q] if p else _scaled_columns(self.columns[q])
                for q in {*pairs, *(q + 1 for q in pairs)}}
        for q in pairs:
            cols, nxt = ints[q], ints[q + 1]
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


def _scaled_columns(cols: dict) -> dict:
    """Sparse columns of Fractions times the lcm of their denominators, as ints."""
    den = math.lcm(*{a.denominator for col in cols.values() for a in col.values()})
    return {j: {i: a.numerator * (den // a.denominator) for i, a in col.items()} for j, col in cols.items()}


class CohomologyData:
    """Cohomology of a finite complex with explicit representative cocycles.

    Dimensions come from ranks: the constructor inserts the sparse columns of
    each d_q into one echelon, and dim H^q = dim C^q - rank d_q - rank d_{q-1},
    exact because ``FiniteComplex`` has checked d o d = 0.  Classes are
    presented one degree at a time, on first use of ``group(q)`` or
    ``class_coords(q, ...)``: H^q is a ``QuotientPresentation`` whose
    echelon is the one of d_{q-1}'s columns, taken over, with the kernel
    basis of d_q as candidates, so its ``reps`` are the representative
    cocycles; its dim is checked against the one from ranks.  ``groups``
    presents every degree.
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
        self._groups = {}  # q -> QuotientPresentation of H^q, once presented

    def group(self, q):
        """QuotientPresentation of H^q, built on first use; None when C^q = 0."""
        g = self._groups.get(q)
        if g is None and q in self._dims:
            field = self.complex.field
            labels = self.complex.components[q]
            ambient = GradedSpace(labels, (q,) * len(labels))
            rows = _transpose(self.complex.columns.get(q, {}))  # the rows of d_q
            kernel = _kernel(field, rows.values(), len(labels))
            image = self._images.pop(q - 1, None) or _Echelon(field)
            g = self._groups[q] = QuotientPresentation(ambient, field, image, kernel)
            if g.dim != self._dims[q]:
                raise LinAlgError(f"H^{q} presented with dim {g.dim}, ranks give {self._dims[q]}")
        return g

    @property
    def groups(self) -> dict:
        """degree -> QuotientPresentation of H^q, for every degree of the complex."""
        return {q: self.group(q) for q in self._dims}

    def dims(self) -> dict:
        return {q: d for q, d in self._dims.items() if d > 0}

    def total_dim(self) -> int:
        return sum(self._dims.values())

    def class_coords(self, q, cocycle: dict) -> dict:
        """Coordinates of a cocycle's class in the chosen degree-q basis."""
        g = self.group(q)
        if g is None:
            if any(c != 0 for c in cocycle.values()):
                raise LinAlgError("nonzero vector in a zero group")
            return {}
        return g.project_strict(cocycle)


def complex_cohomology(c: FiniteComplex) -> CohomologyData:
    return CohomologyData(c)

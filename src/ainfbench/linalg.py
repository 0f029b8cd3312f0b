"""Exact graded linear algebra: echelon spans, quotients, finite complexes.

Everything here is coordinate-based over an :class:`~ainfbench.scalars.ExactField`.
Vectors are tuples of scalars; matrices are tuples of row tuples, acting on
column vectors (``out[i] = sum_j M[i][j] * v[j]``).

Subspaces are stored in reduced row echelon form, which is the canonical
representative: two subspaces are equal iff their echelon rows are equal.
A subspace of a graded ambient space spanned by homogeneous vectors stays
homogeneous under row reduction (basis vectors of distinct degrees have
disjoint support), so graded subspaces need no extra block bookkeeping.

Quotient projection is a cached sparse linear map.  The first time a
:class:`QuotientPresentation` meets ambient basis index b, it eliminates e_b
densely once and keeps two sparse columns: the quotient coordinates of e_b
and its residue ``den.reduce(e_b - lift(project(e_b)))``.  ``project(v)`` is
then sum_b v_b * column_b over the nonzero v_b, and ``project_strict`` also
sums the residue columns and rejects ``v`` when that sum is nonzero.
Elimination, lift and reduction are linear and the arithmetic is exact, so
this gives the same coordinates and the same strictness verdict as
eliminating ``v`` itself, at a cost proportional to the support of ``v``.
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


def vec_zero(field: ExactField, n: int):
    return (field.zero,) * n


def vec_is_zero(v) -> bool:
    return all(a == 0 for a in v)


def vec_sub(field, u, v):
    return tuple(field.sub(a, b) for a, b in zip(u, v))


def vec_scale(field, c, v):
    return tuple(field.mul(c, a) for a in v)


def mat_mul(field, a, b):
    if not a or not b:
        return tuple(() for _ in a)
    n = len(b[0])
    bt = tuple(tuple(row[j] for row in b) for j in range(n))
    return tuple(
        tuple(sum((field.mul(ra[k], col[k]) for k in range(len(col)) if ra[k] != 0), field.zero) for col in bt)
        for ra in a
    )


def mat_is_zero(m) -> bool:
    return all(vec_is_zero(row) for row in m)


def identity_matrix(field, n):
    return tuple(
        tuple(field.one if i == j else field.zero for j in range(n)) for i in range(n)
    )


# ---------------------------------------------------------------------------
# echelon machinery


def rref(field: ExactField, rows):
    """Reduced row echelon form; returns (rows, pivot columns), zero rows dropped."""
    work = [list(r) for r in rows if not vec_is_zero(r)]
    if not work:
        return (), ()
    ncols = len(work[0])
    out = []  # list of (pivot, row-list), kept sorted by pivot
    for row in work:
        for piv, prow in out:
            c = row[piv]
            if c != 0:
                for j in range(ncols):
                    if prow[j] != 0:
                        row[j] = field.sub(row[j], field.mul(c, prow[j]))
        lead = next((j for j, a in enumerate(row) if a != 0), None)
        if lead is None:
            continue
        inv = field.inv(row[lead])
        row = [field.mul(inv, a) for a in row]
        for piv, prow in out:
            c = prow[lead]
            if c != 0:
                for j in range(ncols):
                    if row[j] != 0:
                        prow[j] = field.sub(prow[j], field.mul(c, row[j]))
        out.append((lead, row))
        out.sort(key=lambda t: t[0])
    pivots = tuple(p for p, _ in out)
    return tuple(tuple(r) for _, r in out), pivots


def reduce_vector(field, v, rows, pivots):
    """Normal form of ``v`` modulo the echelon rows."""
    v = list(v)
    for piv, row in zip(pivots, rows):
        c = v[piv]
        if c != 0:
            for j in range(len(v)):
                if row[j] != 0:
                    v[j] = field.sub(v[j], field.mul(c, row[j]))
    return tuple(v)


def solve_linear(field: ExactField, m, b):
    """One solution x of M x = b, or None if inconsistent (free variables 0)."""
    if not m:
        return () if vec_is_zero(b) else None
    ncols = len(m[0])
    augmented = [tuple(row) + (bi,) for row, bi in zip(m, b)]
    rows, pivots = rref(field, augmented)
    x = [field.zero] * ncols
    for piv, row in zip(pivots, rows):
        if piv == ncols:
            return None
    for piv, row in zip(reversed(pivots), reversed(rows)):
        acc = row[ncols]
        for j in range(piv + 1, ncols):
            if row[j] != 0:
                acc = field.sub(acc, field.mul(row[j], x[j]))
        x[piv] = acc
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

    @property
    def dim(self) -> int:
        return len(self.rows)

    def reduce(self, v):
        if len(v) != self.ambient.dim:
            raise LinAlgError("dimension mismatch")
        return reduce_vector(self.field, v, self.rows, self.pivots)

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
    """

    def __init__(self, numerator: Subspace, denominator: Subspace, preferred=()):
        if numerator.ambient != denominator.ambient:
            raise LinAlgError("numerator and denominator have different ambients")
        field = numerator.field
        for r in denominator.rows:
            if not numerator.contains(r):
                raise ContainmentError(r)
        self.ambient = numerator.ambient
        self.field = field
        self.numerator = numerator
        self.denominator = denominator

        # Accumulate echelon rows starting from the denominator; numerator rows
        # (preceded by any preferred vectors) that add new pivots become the
        # coset representatives.
        work_rows = list(denominator.rows)
        work_pivots = list(denominator.pivots)
        reps = []
        rep_coords = []  # row i of the tracking matrix: coefficients on reps

        def _absorb(v, track: bool):
            r = reduce_vector(field, v, tuple(work_rows), tuple(work_pivots))
            if vec_is_zero(r):
                return
            lead = next(j for j, a in enumerate(r) if a != 0)
            r = vec_scale(field, field.inv(r[lead]), r)
            if track:
                reps.append(r)
            # keep working echelon sorted by pivot
            pos = 0
            while pos < len(work_pivots) and work_pivots[pos] < lead:
                pos += 1
            work_rows.insert(pos, r)
            work_pivots.insert(pos, lead)

        for v in preferred:
            if not numerator.contains(v):
                raise LinAlgError("preferred representative lies outside the numerator")
            _absorb(tuple(v), track=True)
        for v in numerator.rows:
            _absorb(v, track=True)

        self.reps = tuple(reps)
        self.dim = len(reps)

        # Tracked elimination data for projection: reduce against denominator
        # rows first, then against the reps (recording coefficients).
        self._den_rows = denominator.rows
        self._den_pivots = denominator.pivots
        rep_pivots = []
        rep_echelon = []
        track = []
        for i, r in enumerate(self.reps):
            v = list(reduce_vector(field, r, self._den_rows, self._den_pivots))
            coeff = [field.zero] * self.dim
            coeff[i] = field.one
            for piv, row, crow in zip(rep_pivots, rep_echelon, track):
                c = v[piv]
                if c != 0:
                    for j in range(len(v)):
                        if row[j] != 0:
                            v[j] = field.sub(v[j], field.mul(c, row[j]))
                    for j in range(self.dim):
                        if crow[j] != 0:
                            coeff[j] = field.sub(coeff[j], field.mul(c, crow[j]))
            lead = next(j for j, a in enumerate(v) if a != 0)
            inv = field.inv(v[lead])
            v = [field.mul(inv, a) for a in v]
            coeff = [field.mul(inv, a) for a in coeff]
            rep_pivots.append(lead)
            rep_echelon.append(v)
            track.append(coeff)
        self._rep_pivots = rep_pivots
        self._rep_echelon = rep_echelon
        self._track = track

        # representative degrees (quotients of graded subspaces stay graded)
        self.degrees = tuple(self.ambient.degree_of_vector(r) for r in self.reps)
        self._columns = {}  # ambient index b -> sparse (coords, residue) of e_b

    def _column(self, b):
        """Quotient coordinates of the basis vector e_b and its residue
        den.reduce(e_b - lift(project(e_b))), both as sparse dicts index ->
        scalar; eliminated densely the first time, then cached."""
        col = self._columns.get(b)
        if col is not None:
            return col
        if not 0 <= b < self.ambient.dim:
            raise LinAlgError(f"basis index {b} outside ambient dimension {self.ambient.dim}")
        field = self.field
        e = tuple(field.one if j == b else field.zero for j in range(self.ambient.dim))
        v = list(reduce_vector(field, e, self._den_rows, self._den_pivots))
        coords = [field.zero] * self.dim
        for piv, row, crow in zip(self._rep_pivots, self._rep_echelon, self._track):
            c = v[piv]
            if c != 0:
                for j in range(len(v)):
                    if row[j] != 0:
                        v[j] = field.sub(v[j], field.mul(c, row[j]))
                for j in range(self.dim):
                    if crow[j] != 0:
                        coords[j] = field.add(coords[j], field.mul(c, crow[j]))
        residue = self.denominator.reduce(vec_sub(field, e, self.lift(coords)))
        col = self._columns[b] = (
            {k: a for k, a in enumerate(coords) if a != 0},
            {k: a for k, a in enumerate(residue) if a != 0},
        )
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
        acc = self._combine(v, 0)
        zero = self.field.zero
        return tuple(acc.get(k, zero) for k in range(self.dim))

    def project_strict(self, v):
        """Like project, but errors if ``v`` is not in the numerator mod denominator."""
        if self._combine(v, 1):
            raise LinAlgError("vector lies outside the numerator; projection undefined")
        return self.project(v)

    def lift(self, coords):
        field = self.field
        if len(coords) != self.dim:
            raise LinAlgError("quotient coordinate length mismatch")
        out = [field.zero] * self.ambient.dim
        for c, r in zip(coords, self.reps):
            if c != 0:
                for j, a in enumerate(r):
                    if a != 0:
                        out[j] = field.add(out[j], field.mul(c, a))
        return tuple(out)

    def projection_matrix(self):
        n = self.ambient.dim
        cols = [self.project(tuple(self.field.one if i == j else self.field.zero for i in range(n))) for j in range(n)]
        return tuple(tuple(cols[j][i] for j in range(n)) for i in range(self.dim))

    def lift_matrix(self):
        return tuple(tuple(r[j] for r in self.reps) for j in range(self.ambient.dim))

    def verify(self) -> bool:
        field = self.field
        pl = mat_mul(field, self.projection_matrix(), self.lift_matrix())
        if pl != identity_matrix(field, self.dim):
            return False
        for r in self.numerator.rows:
            residue = vec_sub(field, self.lift(self.project(r)), r)
            if not self.denominator.contains(residue):
                return False
        return True


def quotient_space(numerator: Subspace, denominator: Subspace, preferred=()) -> QuotientPresentation:
    return QuotientPresentation(numerator, denominator, preferred)


# ---------------------------------------------------------------------------
# finite complexes and cohomology


class ComplexError(LinAlgError):
    pass


class FiniteComplex:
    """Finite complex of based vector spaces with a degree +1 differential.

    ``components[q]`` is the ordered basis (labels) in complex degree q and
    ``diff[q]`` the matrix of d: C^q -> C^{q+1}.  d o d = 0 is checked on
    construction and violations report the failing matrix entry.
    """

    def __init__(self, field: ExactField, components: dict, diff: dict):
        self.field = field
        self.components = {q: tuple(labels) for q, labels in components.items() if labels}
        self.diff = {}
        for q, m in diff.items():
            m = tuple(tuple(row) for row in m)
            if not m or mat_is_zero(m):
                continue
            src = len(self.components.get(q, ()))
            tgt = len(self.components.get(q + 1, ()))
            if len(m) != tgt or any(len(row) != src for row in m):
                raise ComplexError(f"differential at degree {q} has wrong shape")
            self.diff[q] = m
        self._check_dd()

    def _check_dd(self):
        for q, m in self.diff.items():
            nxt = self.diff.get(q + 1)
            if nxt is None:
                continue
            prod = mat_mul(self.field, nxt, m)
            for i, row in enumerate(prod):
                for j, a in enumerate(row):
                    if a != 0:
                        raise ComplexError(
                            f"d o d != 0: entry ({i},{j}) from degree {q} equals {a}"
                        )

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
        degrees = set(complex_.components)
        for q in sorted(degrees):
            dim_q = len(complex_.components[q])
            kernel = nullspace(field, complex_.differential(q), dim_q)
            ambient = GradedSpace(
                tuple(complex_.components[q]), (q,) * dim_q
            )
            ker_sub = Subspace(ambient, field, kernel)
            prev = complex_.differential(q - 1)
            image_vectors = []
            if complex_.components.get(q - 1):
                n_prev = len(complex_.components[q - 1])
                for j in range(n_prev):
                    col = tuple(prev[i][j] for i in range(dim_q))
                    image_vectors.append(col)
            im_sub = Subspace(ambient, field, image_vectors)
            self.groups[q] = quotient_space(ker_sub, im_sub)

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

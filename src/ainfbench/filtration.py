"""Decreasing filtrations of finite A-infinity algebras.

A filtration is a chain F^0 = R >= F^1 >= ... >= F^n = 0 of graded subspaces
compatible with all products: m_p(F^{i_1} (x) ... (x) F^{i_p}) lies in
F^{i_1 + ... + i_p} (indices above n read as n, where F^n = 0).

Included here: the compatibility checker, which proves compatibility on one
flag basis of the levels (``_Flag``, built once per ``Filtration`` and read
by the quotient category build as well), the filtration by cohomological
degree of a non-positively graded minimal algebra, Jacobson radicals of
finite-dimensional associative algebras as one kernel of the trace form
(x, y) -> trace(L_{xy}) (Curtis and Reiner 1962), certified by checking that
the kernel is nilpotent, that it is an ideal and that the quotient by it has
zero trace kernel, and the explicit filtration of an algebra concentrated in
degrees {0, -kappa} built from radical powers.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .ainf import AInfCategory, ValidationReport, _ProductTable
from .linalg import GradedSpace, Subspace, _Echelon, _kernel, quotient_space


class FiltrationError(ValueError):
    pass


class RadicalError(FiltrationError):
    """A trace kernel that fails its certificate as the radical of a valid
    algebra; ``witness`` is a check witness holding the nonzero vector that
    shows it."""

    def __init__(self, message, witness: dict):
        super().__init__(message)
        self.witness = witness


def _witness(reason, vector: dict, space: GradedSpace, field) -> dict:
    labels = space.labels
    return {"arity": 0, "tuple": [], "reason": reason,
            "vector": {labels[i]: field.unparse(c) for i, c in vector.items() if c != 0}}


def _one_object(r: AInfCategory):
    if len(r.objects) != 1:
        raise FiltrationError("filtrations are defined for one-object categories")
    obj = r.objects[0]
    return obj, r.hom[(obj, obj)]


def full_subspace(r: AInfCategory) -> Subspace:
    _, space = _one_object(r)
    return Subspace(space, r.field, [{i: r.field.one} for i in range(space.dim)])


def subspace_product(r: AInfCategory, s: Subspace, t: Subspace) -> Subspace:
    """Span of m_2(s, t) over spanning vectors."""
    _, space = _one_object(r)
    table = _ProductTable(r, space)
    s_ids, t_ids = table.intern(s.rows), table.intern(t.rows)
    return Subspace(space, r.field, [table.product((u, v)) for u in s_ids for v in t_ids])


class Filtration:
    """Levels F^0, ..., F^n of the underlying space of a one-object algebra."""

    def __init__(self, algebra: AInfCategory, levels):
        _one_object(algebra)
        self.algebra = algebra
        self.levels = tuple(levels)
        self._proof = None  # the flag of the levels for ``algebra``, once built
        if len(self.levels) < 2:
            raise FiltrationError("a filtration needs at least the levels F^0 and F^n = 0")
        space = algebra.hom[(algebra.objects[0],) * 2]
        for lv in self.levels:
            if lv.ambient != space:
                raise FiltrationError("level subspace has the wrong ambient space")

    @property
    def n(self) -> int:
        return len(self.levels) - 1

    def level(self, p: int) -> Subspace:
        """F^p, reading every index above n as n."""
        return self.levels[min(p, self.n)]

    def dims(self):
        return tuple(lv.dim for lv in self.levels)

    def _flag(self, r: AInfCategory) -> "_Flag":
        """The levels' flag with its compatibility proof for the products of
        ``r``: built once for ``self.algebra``, afresh for any other."""
        if r is not self.algebra:
            return _Flag(r, self.levels)
        if self._proof is None:
            self._proof = _Flag(r, self.levels)
        return self._proof


def check_filtration(r: AInfCategory, filt: Filtration) -> ValidationReport:
    """Type invariants plus product compatibility, proved on the flag basis.

    The filtration's flag (:class:`_Flag`, built once per ``Filtration`` and
    shared with the quotient category build) proves the levels decreasing
    and, with F^n = 0, decides compatibility from at most dim^p valuations
    per arity.  Only where the flag fails do the witness listers run: the
    per-level containment check and :func:`_compatibility_witnesses`, so a
    FAIL report lists every failing level and every failing (indices,
    vectors) pair.  F^0 = R is a count: ``Filtration`` has checked that every
    level is a subspace of R's space, so F^0 is R iff it has R's dimension.
    """
    report = ValidationReport()
    _, space = _one_object(r)
    n = filt.n

    f0_ok = filt.levels[0].dim == space.dim
    report.add("f0_full", f0_ok,
               detail=f"dim F^0 = {filt.levels[0].dim}, dim R = {space.dim}",
               witnesses=[] if f0_ok else [{"arity": 0, "tuple": [0], "reason": "F^0 != R"}])
    fn_ok = filt.levels[n].dim == 0
    report.add("fn_zero", fn_ok,
               detail=f"dim F^{n} = {filt.levels[n].dim}",
               witnesses=[] if fn_ok else [{"arity": 0, "tuple": [n], "reason": f"F^{n} != 0"}])

    flag = filt._flag(r)
    bad_decreasing = [] if flag.decreasing else [
        {"arity": 0, "tuple": [p], "reason": f"F^{p+1} not inside F^{p}"}
        for p in range(n)
        if not filt.levels[p].contains_subspace(filt.levels[p + 1])
    ]
    report.add("decreasing", not bad_decreasing, witnesses=bad_decreasing)

    not_graded = [
        {"arity": 0, "tuple": [p], "reason": "level not spanned by homogeneous vectors"}
        for p in range(n + 1)
        if not filt.levels[p].graded
    ]
    report.add("graded", not not_graded, witnesses=not_graded)

    bad_compat = [] if flag.compatible else _compatibility_witnesses(r, filt)
    report.add("compatibility", not bad_compat, witnesses=bad_compat)
    return report


class _Flag:
    """The flag basis of a filtration and the compatibility proof it gives.

    ``echelon`` takes the sparse rows of F^n, F^{n-1}, ..., F^0 in turn and
    ``tags`` each new pivot with its level.  After level k it must have
    dim F^k rows, which proves F^{k+1} inside F^k (``decreasing``; the loop
    stops at the first level that fails), so the rows tagged k or more are
    a basis of F^k.  With F^n = 0 as well, F is compatible with m_p iff
    every p-tuple of flag rows with tags (k_1, ..., k_p) has a product of
    valuation at least min(k_1 + ... + k_p, n) (:class:`_Valuations`), by
    multilinearity.  So at most dim^p products per arity decide
    ``compatible``: a tuple whose rows meet no key of the table of m_p in
    their supports has product zero and is skipped (:func:`_meeting`).
    """

    def __init__(self, r: AInfCategory, levels: tuple):
        n = len(levels) - 1
        self.n = n
        self.echelon, self.tags = _Echelon(r.field), {}
        self.decreasing = True
        for k in range(n, -1, -1):
            for row in levels[k].rows:
                new = self.echelon.insert(row)
                if new is not None:
                    self.tags[new[0]] = k
            if len(self.echelon.rows) != levels[k].dim:
                self.decreasing = False
                break
        self.compatible = self.decreasing and levels[n].dim == 0 and self._products_compatible(r)

    def _products_compatible(self, r: AInfCategory) -> bool:
        space = _one_object(r)[1]
        products = _ProductTable(r, space)
        rows = list(self.echelon.rows.values())
        ids = products.intern(rows)  # fresh ids, in row order
        tag = [self.tags[piv] for piv in self.echelon.rows]
        having = {}  # label -> ids of the rows with a nonzero coordinate there
        for k, row in zip(ids, rows):
            for i in row:
                having.setdefault(space.labels[i], []).append(k)
        valuation, n = _Valuations(products, self.echelon, self.tags, self.n), self.n
        for p, table in sorted(r.mult.items()):
            for args in _meeting(table, having):
                if valuation[args] < min(sum(map(tag.__getitem__, args)), n):
                    return False
        return True


def _meeting(table: dict, having: dict):
    """The distinct tuples of row ids whose rows meet a key of ``table`` in
    their supports, one label per row; every other tuple has product zero."""
    return dict.fromkeys(itertools.chain.from_iterable(
        itertools.product(*[having.get(lab, ()) for lab in key]) for key in table))


class _Valuations(dict):
    """ids -> valuation of the product of those interned rows: the largest k
    with the product in F^k, n for zero and -1 outside F^0.  It is computed
    on first lookup as the least tag of the flag rows (:class:`_Flag`) that
    its one reduction uses."""

    def __init__(self, products: _ProductTable, flag: _Echelon, tags: dict, n: int):
        super().__init__()
        self.products, self.flag, self.tags, self.n = products, flag, tags, n

    def __missing__(self, ids):
        prod, used = self.products.product(ids), {}
        val = self[ids] = (self.n if not prod else -1 if self.flag.reduce(prod, used)
                           else min(map(self.tags.__getitem__, used)))
        return val


def _compatibility_witnesses(r: AInfCategory, filt: Filtration) -> list:
    """One witness per index tuple (i_1, ..., i_p) with sum at most n and
    spanning vectors of F^{i_1}, ..., F^{i_p} whose product escapes
    F^{i_1 + ... + i_p}.

    Index tuples with sum above n are implied by monotonicity (every factor
    may be raised until the sum hits n, where the target is 0).  The same
    spanning vectors recur across levels, so they are interned in one
    product table: each product is evaluated once and reduced against the
    target level's echelon once per target level.
    """
    _, space = _one_object(r)
    n, field = filt.n, r.field
    table = _ProductTable(r, space)
    level_ids = [table.intern(lv.rows) for lv in filt.levels]
    contained: dict = {}  # (target level, ids) -> whether the product lies in it
    bad = []
    for p in sorted(r.mult):
        for indices in itertools.product(range(n), repeat=p):
            total = sum(indices)
            if total > n:
                continue
            for ids in itertools.product(*[level_ids[i] for i in indices]):
                out = table.product(ids)
                if not out:
                    continue
                ok = contained.get((total, ids))
                if ok is None:
                    ok = contained[(total, ids)] = filt.level(total).contains(out)
                if not ok:
                    vector = sorted((space.labels[k], c) for k, c in out.items())
                    bad.append(
                        {
                            "arity": p,
                            "tuple": list(indices),
                            "reason": f"m_{p}(F^{list(indices)}) escapes F^{total}",
                            "vector": {lab: field.unparse(c) for lab, c in vector},
                        }
                    )
    return bad


# ---------------------------------------------------------------------------
# degree filtration


def degree_filtration(r: AInfCategory) -> Filtration:
    """F^p spanned by the basis elements of degree <= -p; needs a minimal
    algebra concentrated in degrees <= 0."""
    obj, space = _one_object(r)
    if 1 in r.mult:
        raise FiltrationError("degree filtration requires a minimal algebra (m_1 = 0)")
    if any(d > 0 for d in space.degrees):
        raise FiltrationError("degree filtration requires degrees <= 0")
    field = r.field
    n = 1 + max((-d for d in space.degrees), default=0)
    levels = []
    for p in range(n + 1):
        rows = [{i: field.one} for i, d in enumerate(space.degrees) if d <= -p]
        levels.append(Subspace(space, field, rows))
    return Filtration(r, levels)


# ---------------------------------------------------------------------------
# quotients by A-infinity ideals


def quotient_by_ideal(r: AInfCategory, ideal: Subspace, prefix: str = "q"):
    """Quotient algebra R/I with induced products; verifies I is an ideal.

    Returns (quotient category, quotient presentation).  The class of the
    unit is seeded as the first basis vector of the quotient.

    The ideal check (m_p with one argument a spanning vector of I and the
    rest basis vectors, in every slot) and the induced tables (m_p on coset
    representatives, projected) share one product table, so each product of
    the same vectors is evaluated once.
    """
    obj, space = _one_object(r)
    field = r.field
    if ideal.ambient != space:
        raise FiltrationError("ideal is not a subspace of the algebra")
    full = full_subspace(r)
    table = _ProductTable(r, space)
    full_ids, ideal_ids = table.intern(full.rows), table.intern(ideal.rows)

    for p in sorted(r.mult):
        for pos in range(p):
            for iv in ideal_ids:
                for ids in itertools.product(*[[iv] if k == pos else full_ids for k in range(p)]):
                    out = table.product(ids)
                    if out and not ideal.contains(out):
                        raise FiltrationError(
                            f"subspace is not an ideal: m_{p} escapes it (slot {pos})"
                        )

    unit_vec = {space.index(r.units[obj]): field.one}
    q = quotient_space(full, ideal, preferred=[unit_vec] if not ideal.contains(unit_vec) else [])
    labels = [f"{prefix}:{space.labels[min(rep)]}" for rep in q.reps]
    degrees = tuple(q.degrees)
    qspace = GradedSpace(tuple(labels), degrees)

    rep_ids = table.intern(q.reps)
    mult: dict = {}
    for p in sorted(r.mult):
        induced = {}
        for key in itertools.product(range(q.dim), repeat=p):
            out = table.product(tuple(rep_ids[i] for i in key))
            if not out:
                continue
            entry = {labels[i]: c for i, c in q.project(out).items()}
            if entry:
                induced[tuple(labels[i] for i in key)] = entry
        if induced:
            mult[p] = induced

    unit_class = q.project(unit_vec)
    if list(unit_class.values()) != [field.one]:
        raise FiltrationError("class of the unit is not a quotient basis vector")
    quotient = AInfCategory(
        field,
        (obj,),
        {(obj, obj): qspace},
        {obj: labels[min(unit_class)]},
        mult,
    )
    return quotient, q


# ---------------------------------------------------------------------------
# radicals


def _radical_powers(a: AInfCategory) -> list:
    """[A, J, J^2, ..., 0] for J the Jacobson radical of an associative
    algebra in degree 0.

    rad lies in the kernel J of the trace form (x, y) -> trace(L_{xy}) in
    every characteristic (xy is nilpotent for x in rad), so J is the radical
    whenever J is nilpotent, as always in characteristic 0 (Curtis and
    Reiner 1962).  J is computed once and certified in three straight-line
    steps: J is nilpotent, else RadicalError with a nonzero vector of
    J^(dim R + 1) (as for k[x]/x^p over F_p); J is an ideal
    (:func:`quotient_by_ideal`); R/J has zero trace kernel, else RadicalError
    with a vector of that kernel.
    """
    _, space = _one_object(a)
    field = a.field
    if any(p != 2 for p in a.mult):
        raise FiltrationError("radical requires an associative algebra with only m_2")
    if any(d != 0 for d in space.degrees):
        raise FiltrationError("radical requires the algebra concentrated in degree 0")
    j = Subspace(space, field, _trace_kernel(a))
    try:
        powers = _powers(a, j)
    except RadicalError as exc:
        raise RadicalError("trace kernel is not nilpotent", exc.witness) from None
    quotient, _ = quotient_by_ideal(a, j, prefix="rq")
    kernel = _trace_kernel(quotient)
    if kernel:
        raise RadicalError("the quotient by the trace kernel has a nonzero trace kernel",
                           _witness("R/J has a nonzero trace kernel", dict(sorted(kernel[0].items())),
                                    _one_object(quotient)[1], field))
    return powers


def _trace_kernel(a: AInfCategory):
    obj, space = _one_object(a)
    field = a.field
    d = space.dim
    if d == 0:
        return []
    # trace of left multiplication by each basis element
    tr = []
    for k, lab in enumerate(space.labels):
        t = field.zero
        for j, labj in enumerate(space.labels):
            out = a.apply_labels(2, (lab, labj))
            t = field.add(t, out.get(labj, field.zero))
        tr.append(t)
    # T[i][j] = trace(L_{b_i b_j}); equations sum_i x_i T[i][j] = 0, one
    # sparse row per j
    rows = []
    for j in range(d):
        row = {}
        for i in range(d):
            out = a.apply_labels(2, (space.labels[i], space.labels[j]))
            val = field.zero
            for lab, c in out.items():
                val = field.add(val, field.mul(c, tr[space.index(lab)]))
            if val != 0:
                row[i] = val
        rows.append(row)
    return _kernel(field, rows, d)


def _powers(r: AInfCategory, j: Subspace) -> list:
    """[R, J, J^2, ..., J^a = 0], a the least with J^a = 0 (a = 1 when J = 0);
    RadicalError once J^(dim R + 1) != 0.  One product table serves the
    chain, and each distinct product enters the next power's echelon once."""
    table = _ProductTable(r, j.ambient)
    j_ids = table.intern(j.rows)
    powers = [full_subspace(r), j]
    while powers[-1].dim > 0:
        if len(powers) > j.ambient.dim + 1:
            raise RadicalError("subspace is not nilpotent", _witness(
                f"J^{len(powers) - 1} != 0", powers[-1].rows[0], j.ambient, r.field))
        ids = table.intern(powers[-1].rows)
        distinct = {frozenset(p.items()): p for p in (table.product((u, v)) for u in ids for v in j_ids)}
        powers.append(Subspace(j.ambient, r.field, distinct.values()))
    return powers


# ---------------------------------------------------------------------------
# the two-degree construction


@dataclass
class AppendixParams:
    kappa: int
    radical: Subspace
    nil_index: int
    big_n: int


def appendix_filtration(r: AInfCategory, kappa: int):
    """Filtration of a minimal algebra concentrated in degrees {0, -kappa}.

    With J the radical of the degree-0 part, a its nilpotency index and
    N = (kappa+2)(a-1): levels J^p + R_{-kappa} for p <= N, stopping at the
    first zero level, then M_q = sum_{u+v=q} J^u R_{-kappa} J^v at level N+q
    until it vanishes.  Sums of subspaces, not direct sums: summands may
    meet.  When a = 1 and R_{-kappa} != 0 the minimal N = 0 would make the
    two level families collide, so N is raised to 1 (any N >= (kappa+2)(a-1)
    works).

    M_q comes from one recursion, M_q = J M_{q-1} + M_{q-1} J, two products
    per level: m_2 is associative on a minimal algebra.  It starts from
    level N itself, whose products with J are those of M_0 = R_{-kappa}:
    J^N = 0 when a >= 2, as N >= a, and J = 0 when a = 1.  It stops by a
    theorem: J^a = 0, so M_q = 0 for q >= 2a - 1, where each spanning
    product J^u R_{-kappa} J^v has u >= a or v >= a.  So the loop goes no
    further than level N + 2a - 1, and there is no termination check: on an
    input whose m_2 is not associative the last level may be nonzero, which
    :func:`check_filtration` reports (``fn_zero``).
    """
    obj, space = _one_object(r)
    field = r.field
    if kappa < 1:
        raise FiltrationError("kappa must be a positive integer")
    if 1 in r.mult:
        raise FiltrationError("the construction requires a minimal algebra")
    bad = sorted({d for d in space.degrees if d not in (0, -kappa)})
    if bad:
        raise FiltrationError(f"grading must be concentrated in {{0, {-kappa}}}, found {bad}")

    rk = Subspace(space, field, [{i: field.one} for i, d in enumerate(space.degrees) if d == -kappa])

    # the degree-zero part as a standalone associative algebra
    labels0 = tuple(l for l, d in zip(space.labels, space.degrees) if d == 0)
    space0 = GradedSpace(labels0, (0,) * len(labels0))
    m2_0 = {}
    for key, vec in r.mult.get(2, {}).items():
        if all(lab in labels0 for lab in key):
            out = {lab: c for lab, c in vec.items() if lab in labels0}
            if out:
                m2_0[key] = out
    unit = r.units[obj]
    if unit not in labels0:
        raise FiltrationError("unit does not lie in degree 0")
    a0 = AInfCategory(field, (obj,), {(obj, obj): space0}, {obj: unit}, {2: m2_0})
    # J's powers from the radical's nilpotency check, moved into R's coordinates;
    # a product of degree-0 vectors has degree 0, so J^p is the same in R
    at = [space.index(lab) for lab in labels0]
    moved = [[{at[i]: c for i, c in row.items()} for row in p.rows] for p in _radical_powers(a0)[1:]]
    j_powers = [full_subspace(r)] + [Subspace(space, field, rows) for rows in moved]
    j = j_powers[1]
    a = len(j_powers) - 1
    big_n = (kappa + 2) * (a - 1)
    if a == 1 and rk.dim > 0 and big_n < 1:
        big_n = 1

    levels = [j_powers[0]]
    while levels[-1].dim and len(levels) < big_n + 2 * a:  # level N + 2a - 1 is M_{2a-1} = 0
        p, last = len(levels), levels[-1]
        levels.append(j_powers[min(p, a)].sum(rk) if p <= big_n
                      else subspace_product(r, j, last).sum(subspace_product(r, last, j)))

    filt = Filtration(r, levels)
    params = AppendixParams(kappa=kappa, radical=j, nil_index=a, big_n=big_n)
    return filt, params

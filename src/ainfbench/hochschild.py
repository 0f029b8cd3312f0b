"""Hochschild cochains, square-zero extensions, and cocycle deformations.

A bimodule M over a finite category C assigns a graded space M(x, y) to each
object pair, with action tables in the same sparse format as multiplication
tables (each key holds exactly one M-label).  The square-zero extension
C + M[shift] is an honest category of the same kind: products of two
M-components vanish by definition, so a degree-n normalized cochain eta with
values in M can be added to m_n on pure-C inputs.  The extended structure
satisfies the defining relations iff the Hochschild differential of eta
vanishes; that equivalence is the content of the deformation operation and is
what the test suite quantifies over.

The differential is the arity-(n+1) component of the graded commutator of the
cochain with m_2, normalized so that on an associative algebra in degree 0 it
is the classical alternating sum

    (d phi)(a_1, ..., a_{n+1}) = a_1 phi(a_2, ...) - phi(a_1 a_2, ...)
        + phi(a_1, a_2 a_3, ...) - ... + (-1)^(n+1) phi(a_1, ..., a_n) a_{n+1}.

On associative bases the commutator has no other components, so d o d = 0 and
the deformation equivalence are exact there; for bases with higher products
the remaining components are not captured by a single-arity cochain and the
structure checker remains the judge of a deformation.

The differential, the functor equations of :func:`coboundary_trivialization`
and the relation check of :mod:`ainfbench.ainf` are all sums of Gerstenhaber
insertions, and all three take their terms from the one sparse join
:func:`ainfbench.ainf.insertions`.
"""

from __future__ import annotations

from .ainf import AInfCategory, insertions
from .linalg import GradedSpace


class HochschildError(ValueError):
    pass


# ---------------------------------------------------------------------------
# bimodules


class Bimodule:
    """Graded value spaces per object pair plus action tables.

    Action tables map mixed tuples (exactly one M-label among C-labels) to
    M-valued sparse vectors; arity 2 gives the left/right actions, higher
    arities are optional.  M-labels must not collide with base labels.
    """

    def __init__(self, base: AInfCategory, spaces: dict, action: dict):
        self.base = base
        self.spaces = {}
        self._info = {}
        for x in base.objects:
            for y in base.objects:
                sp = spaces.get((x, y), GradedSpace((), ()))
                self.spaces[(x, y)] = sp
                for i, lab in enumerate(sp.labels):
                    if lab in self._info or lab in base._info:
                        raise HochschildError(f"duplicate or colliding label {lab!r}")
                    self._info[lab] = (x, y, sp.degrees[i])
        self.action = {}
        for p, table in action.items():
            clean = {}
            for key, vec in table.items():
                key = tuple(key)
                m_slots = [i for i, lab in enumerate(key) if lab in self._info]
                if len(m_slots) != 1:
                    raise HochschildError(
                        f"action entry {key} must contain exactly one module label"
                    )
                for lab in key:
                    if lab not in self._info and lab not in base._info:
                        raise HochschildError(f"unknown label {lab!r} in action table")
                out = {}
                for lab, c in vec.items():
                    if lab not in self._info:
                        raise HochschildError(f"action output {lab!r} is not a module label")
                    if c != 0:
                        out[lab] = c
                if out:
                    clean[key] = out
            if clean:
                self.action[p] = clean

    def src(self, label):
        return self._info[label][0]

    def tgt(self, label):
        return self._info[label][1]

    def deg(self, label):
        return self._info[label][2]

    def total_dim(self) -> int:
        return sum(sp.dim for sp in self.spaces.values())


def diagonal_bimodule(c: AInfCategory, prefix: str = "M") -> Bimodule:
    """The category acting on a relabeled copy of itself; every product table
    entry yields one action entry per argument slot."""
    spaces = {}
    rename = {}
    for (x, y), sp in c.hom.items():
        labels = tuple(f"{prefix}.{lab}" for lab in sp.labels)
        for old, new in zip(sp.labels, labels):
            rename[old] = new
        spaces[(x, y)] = GradedSpace(labels, sp.degrees)
    action: dict = {}
    for p, table in c.mult.items():
        tbl = action.setdefault(p, {})
        for key, vec in table.items():
            out = {rename[lab]: co for lab, co in vec.items()}
            for slot in range(p):
                new_key = tuple(
                    rename[lab] if i == slot else lab for i, lab in enumerate(key)
                )
                tbl[new_key] = dict(out)
    return Bimodule(c, spaces, action)


def zero_bimodule(c: AInfCategory) -> Bimodule:
    return Bimodule(c, {}, {})


def bimodule_direct_sum(m1: Bimodule, m2: Bimodule) -> Bimodule:
    if m1.base is not m2.base and not m1.base.tables_equal(m2.base):
        raise HochschildError("bimodules over different bases")
    spaces = {}
    for key in m1.spaces:
        a, b = m1.spaces[key], m2.spaces[key]
        spaces[key] = GradedSpace(a.labels + b.labels, a.degrees + b.degrees)
    action: dict = {}
    for src in (m1, m2):
        for p, table in src.action.items():
            tbl = action.setdefault(p, {})
            for key, vec in table.items():
                tbl[key] = dict(vec)
    return Bimodule(m1.base, spaces, action)


# ---------------------------------------------------------------------------
# square-zero extensions


def square_zero_extension(c: AInfCategory, m: Bimodule, shift: int) -> AInfCategory:
    """The category C + M[shift]: module labels lowered in degree by the
    shift, action entries twisted by the Koszul sign of sliding the shift
    line past the arguments, products of two module elements zero."""
    if m.base is not c and not m.base.tables_equal(c):
        raise HochschildError("bimodule is not over the given category")
    field = c.field
    hom = {}
    for (x, y), sp in c.hom.items():
        msp = m.spaces[(x, y)]
        hom[(x, y)] = GradedSpace(
            sp.labels + msp.labels,
            sp.degrees + tuple(d - shift for d in msp.degrees),
        )
    mult: dict = {}
    for p, table in c.mult.items():
        mult[p] = {key: dict(vec) for key, vec in table.items()}
    for p, table in m.action.items():
        tbl = mult.setdefault(p, {})
        for key, vec in table.items():
            slot = next(i for i, lab in enumerate(key) if lab in m._info)
            prefix_deg = sum(c.deg(lab) for lab in key[:slot])
            exp = (shift * (p + prefix_deg)) % 2
            if exp:
                vec = {lab: field.neg(co) for lab, co in vec.items()}
            tbl[key] = dict(vec)
    return AInfCategory(field, c.objects, hom, dict(c.units), mult)


# ---------------------------------------------------------------------------
# cochains


class HochschildCochain:
    """Multilinear normalized map from composable n-tuples into a bimodule.

    ``table`` maps composable tuples of base basis labels to sparse module
    vectors; for arity 0 it maps object labels to vectors in M(x, x).  The
    internal degree (output degree minus the sum of input degrees) must be
    constant across the table.
    """

    def __init__(self, base: AInfCategory, module: Bimodule, arity: int,
                 table: dict, internal_degree: int | None = None,
                 enforce_normalized: bool = True):
        if arity < 0:
            raise HochschildError("cochain arity must be >= 0")
        self.base = base
        self.module = module
        self.arity = arity
        clean = {}
        seen_internal = set()
        for key, vec in table.items():
            out = {lab: c for lab, c in zip(vec, map(base.field.coerce, vec.values())) if c != 0}
            if not out:
                continue
            if arity == 0:
                if key not in base.objects:
                    raise HochschildError(f"arity-0 cochain keyed by unknown object {key!r}")
                for lab in out:
                    if (module.src(lab), module.tgt(lab)) != (key, key):
                        raise HochschildError(f"arity-0 value {lab!r} not in M({key!r},{key!r})")
                    seen_internal.add(module.deg(lab))
                clean[key] = out
                continue
            key = tuple(key)
            if len(key) != arity:
                raise HochschildError(f"key {key} has wrong arity")
            for lab in key:
                if lab not in base._info:
                    raise HochschildError(f"unknown base label {lab!r} in cochain")
            if not base.composable(key):
                raise HochschildError(f"cochain key {key} is not composable")
            if enforce_normalized and any(base.is_unit(lab) for lab in key):
                raise HochschildError(f"cochain not normalized: unit argument in {key}")
            pair = (base.src(key[-1]), base.tgt(key[0]))
            in_deg = sum(base.deg(lab) for lab in key)
            for lab in out:
                if (module.src(lab), module.tgt(lab)) != pair:
                    raise HochschildError(f"cochain output {lab!r} in wrong module slot")
                seen_internal.add(module.deg(lab) - in_deg)
            clean[key] = out
        if len(seen_internal) > 1:
            raise HochschildError(f"cochain has mixed internal degrees {sorted(seen_internal)}")
        if internal_degree is None:
            internal_degree = seen_internal.pop() if seen_internal else 0
        elif seen_internal and seen_internal != {internal_degree}:
            raise HochschildError("declared internal degree does not match the table")
        self.internal_degree = internal_degree
        self.table = clean
        self.normalized = all(
            not any(base.is_unit(lab) for lab in key)
            for key in clean
            if arity > 0
        )

    def is_zero(self) -> bool:
        return not self.table


# ---------------------------------------------------------------------------
# the differential


def hochschild_differential(phi: HochschildCochain) -> HochschildCochain:
    """Arity-(n+1) component of the commutator with m_2.

    The terms are the insertions of m_2 into the cochain (inner parity 0)
    and of the cochain into the m_2 of the square-zero extension at the
    shift n - 2 used by deformations (inner parity n + d), with the
    (-1)^(r+st) and Koszul signs of the relation checker.  The overall sign
    is chosen so that degree-0 associative inputs reproduce the classical
    alternating formula.  An arity-0 cochain has no inputs: it enters the
    insertions under the key (), and only the composable products of the
    extension place its value at the right object.
    """
    base = phi.base
    field = base.field
    n = phi.arity
    ext = square_zero_extension(base, phi.module, n - 2)
    phi_table = phi.table if n else {(): {lab: c for vec in phi.table.values() for lab, c in vec.items()}}
    ext_m2 = {key: vec for key, vec in ext.mult.get(2, {}).items() if ext.composable(key)}
    total: dict = {}
    for outer, inner, parity in ((phi_table, base.mult.get(2, {}), 0),
                                 (ext_m2, phi_table, (n + phi.internal_degree) % 2)):
        for labels, r, s, coeff, out in insertions(outer, inner):
            if not base.composable(labels) or any(base.is_unit(lab) for lab in labels):
                continue
            exp = r + s * (n + 1 - r - s) + parity * sum(base.deg(lab) for lab in labels[:r])
            field.add_scaled(total.setdefault(labels, {}), out,
                             field.neg(coeff) if exp % 2 else coeff)
    # overall sign: minus the raw commutator defect
    table = {labels: {lab: field.neg(c) for lab, c in vec.items()} for labels, vec in total.items()}
    return HochschildCochain(
        base, phi.module, n + 1, table, internal_degree=phi.internal_degree,
        enforce_normalized=False,
    )


def is_cocycle(phi: HochschildCochain) -> bool:
    return hochschild_differential(phi).is_zero()


# ---------------------------------------------------------------------------
# deformations


def deform_by_cocycle(c: AInfCategory, m: Bimodule, eta: HochschildCochain) -> AInfCategory:
    """The square-zero extension with m_n augmented by eta on pure-C inputs.

    Requires eta normalized with internal degree 0, so the added component
    has operator degree 2 - n at the shift n - 2.  The result satisfies the
    defining relations iff eta is a Hochschild cocycle.
    """
    if eta.base is not c and not eta.base.tables_equal(c):
        raise HochschildError("cochain is not over the given category")
    if eta.arity < 1:
        raise HochschildError("deformations need cochain arity >= 1")
    if eta.internal_degree != 0:
        raise HochschildError(
            f"cocycle internal degree {eta.internal_degree} does not match the "
            f"shift {eta.arity - 2}"
        )
    if not eta.normalized:
        raise HochschildError("deformation requires a normalized cochain")
    return _deform(c, m, eta)


def _deform(c: AInfCategory, m: Bimodule, eta: HochschildCochain) -> AInfCategory:
    """The square-zero extension at shift eta.arity - 2 with eta added to
    m_n, without the gates of :func:`deform_by_cocycle`."""
    ext = square_zero_extension(c, m, eta.arity - 2)
    mult = {p: {key: dict(vec) for key, vec in table.items()} for p, table in ext.mult.items()}
    tbl = mult.setdefault(eta.arity, {})
    for key, vec in eta.table.items():
        c.field.add_scaled(tbl.setdefault(key, {}), vec)
    return AInfCategory(ext.field, ext.objects, ext.hom, dict(ext.units), mult)


# ---------------------------------------------------------------------------
# coboundaries deform trivially


def coboundary_trivialization(c: AInfCategory, m: Bimodule, phi: HochschildCochain) -> bool:
    """Verify the explicit change of coordinates killing the deformation by
    d(phi): the functor from the deformed extension to the plain one whose
    first component is the identity and whose component at arity phi.arity
    is (-1)^(arity+1) * phi satisfies the functor equations bit-exactly.
    (For arity 1 the two components merge into the map 1 + phi.)
    """
    eta = hochschild_differential(phi)
    deformed = deform_by_cocycle(c, m, HochschildCochain(
        c, m, eta.arity, eta.table, internal_degree=0))
    plain = square_zero_extension(c, m, eta.arity - 2)
    q = phi.arity
    if q % 2 == 0:
        field = c.field
        phi = HochschildCochain(
            c, m, q,
            {k: {l: field.neg(v) for l, v in e.items()} for k, e in phi.table.items()},
            internal_degree=phi.internal_degree,
        )
    return _verify_functor(deformed, plain, phi, q)


def _bar_exp(degs) -> int:
    p = len(degs)
    return sum((p - u) * (degs[u - 1] - 1) for u in range(1, p)) % 2


def _verify_functor(src: AInfCategory, tgt: AInfCategory, phi: HochschildCochain, q: int) -> bool:
    """Check the suspended functor equations for F = id + phi (phi at arity q).

    The defect D = (m_src - m_tgt) + phi o m_src - m_tgt o phi must vanish
    on every composable tuple.  Signs are the bar convention: ``_bar_exp``
    of each operation's inputs, the Koszul term sum(|a_u| - 1) for sliding
    an inner operation past a prefix, and a phi block of degree
    sum|a| + d - (q - 1) (for q = 1, F_1 keeps its input's degree).  Terms
    with two phi blocks vanish: the target is a square-zero extension and
    its tables hold at most one module label per key.  An arity-0 phi
    gives F no component, so for q = 0 only m_src = m_tgt is checked.
    """
    field = src.field
    shift = phi.internal_degree - (q - 1) if q > 1 else 0
    phi_table = phi.table if q else {}
    defect: dict = {}

    def add(labels, vec, coeff, exp):
        if src.composable(labels):
            field.add_scaled(defect.setdefault(labels, {}), vec,
                             field.neg(coeff) if exp % 2 else coeff)

    def degs(labels):
        return [src.deg(lab) for lab in labels]

    src_table = {key: vec for t in src.mult.values() for key, vec in t.items()}
    tgt_table = {key: vec for t in tgt.mult.values() for key, vec in t.items()}
    for table, exp in ((src_table, 0), (tgt_table, 1)):
        for labels, vec in table.items():
            add(labels, vec, field.one, exp + _bar_exp(degs(labels)))
    for labels, r, s, coeff, out in insertions(phi_table, src_table):
        d = degs(labels)
        key_degs = d[:r] + [sum(d[r:r + s]) + 2 - s] + d[r + s:]
        add(labels, out, coeff,
            _bar_exp(d[r:r + s]) + sum(x - 1 for x in d[:r]) + _bar_exp(key_degs))
    for labels, r, s, coeff, out in insertions(tgt_table, phi_table):
        d = degs(labels)
        block_degs = d[:r] + [sum(d[r:r + s]) + shift] + d[r + s:]
        add(labels, out, coeff, 1 + _bar_exp(d[r:r + s]) + _bar_exp(block_degs))
    return not any(defect.values())

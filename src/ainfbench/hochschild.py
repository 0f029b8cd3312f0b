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
the deformation equivalence are exact there.  For bases with a differential
or higher products the remaining components (the insertions of m_1 and of
m_k, k >= 3) are not captured by the m_2-only differential, so
:func:`deform_by_cocycle` and :func:`coboundary_trivialization` refuse a base
with a nonzero m_1 or m_k, k >= 3 (:class:`HigherProductsError`), and give no
verdict on it.

The differential, the functor equations of :func:`coboundary_trivialization`
and the relation check of :mod:`ainfbench.ainf` are all braces of the bar
convention (b{b} = 0, [b, phi], F o b_src = b_tgt o F), summed by the one
sparse join :func:`ainfbench.ainf._insertion_sums` under its one sign rule:
each caller passes table pairs with a constant sign and the inner table's
degree, and no sign function.  Cochains and bimodules are validated where
they enter, and what is built from them (extensions, deformations,
differentials) is valid by construction and not checked again.
:func:`deform_by_cocycle` is the path the CLI's ``deform`` runs: it gates
the cochain, then the base, and builds one square-zero extension, which the
differential and the deformation share.
"""

from __future__ import annotations

from .ainf import AInfCategory, _insertion_sums
from .linalg import GradedSpace


class HochschildError(ValueError):
    pass


class HigherProductsError(HochschildError):
    """A base with a nonzero m_1 or m_k, k >= 3: the differential inserts
    only m_2, so it is not the whole [m, phi] there, and no verdict is
    given.  ``arity`` is the least such k and ``key`` the least key of m_k."""

    def __init__(self, arity: int, key: tuple):
        super().__init__(f"the base has a nonzero m_{arity} (at {key}); "
                         "the differential inserts only m_2")
        self.arity, self.key = arity, key


# ---------------------------------------------------------------------------
# bimodules


class Bimodule:
    """Graded value spaces per object pair plus action tables.

    Action tables map mixed tuples (exactly one M-label among C-labels) to
    M-valued sparse vectors; arity 2 gives the left/right actions, higher
    arities are optional.  M-labels must not collide with base labels.  All
    of it is checked here, where tables enter; values pass ``field.coerce``
    (a float or bool raises ``FieldError``), and zeros are then dropped.
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
        coerce = base.field.coerce
        for p, table in action.items():
            if not isinstance(p, int) or p < 1:
                raise HochschildError(f"bad action arity {p!r}")
            clean = {}
            for key, vec in table.items():
                key = tuple(key)
                if len(key) != p:
                    raise HochschildError(f"arity-{p} action entry with {len(key)} inputs")
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
                    c = coerce(c)
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


def diagonal_bimodule(c: AInfCategory, prefix: str = "M") -> Bimodule:
    """The category acting on a relabeled copy of itself; every product table
    entry yields one action entry per argument slot, all sharing one output
    vector.  The action is valid by construction, as ``c`` is, and taken
    unchecked; the new labels are checked for collisions."""
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
                tbl[new_key] = out
    m = Bimodule(c, spaces, {})
    m.action = action
    return m


# ---------------------------------------------------------------------------
# square-zero extensions


def square_zero_extension(c: AInfCategory, m: Bimodule, shift: int) -> AInfCategory:
    """The category C + M[shift]: module labels lowered in degree by the
    shift, action entries twisted by the Koszul sign of sliding the shift
    line past the arguments, products of two module elements zero.  Valid by
    construction from ``c`` and ``m`` (both checked where they entered), so
    built by :meth:`AInfCategory._trusted`, sharing their vectors."""
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
    mult = {p: dict(table) for p, table in c.mult.items()}  # vectors are shared, never modified
    for p, table in m.action.items():
        tbl = mult.setdefault(p, {})
        for key, vec in table.items():
            slot = next(i for i, lab in enumerate(key) if lab in m._info)
            prefix_deg = sum(c.deg(lab) for lab in key[:slot])
            exp = (shift * (p + prefix_deg)) % 2
            if exp:
                vec = {lab: field.neg(co) for lab, co in vec.items()}
            tbl[key] = vec
    return AInfCategory._trusted(field, c.objects, hom, c.units, mult)


# ---------------------------------------------------------------------------
# cochains


class HochschildCochain:
    """Multilinear normalized map from composable n-tuples into a bimodule.

    ``table`` maps composable tuples of base basis labels to sparse module
    vectors; for arity 0 it maps object labels to vectors in M(x, x).  The
    internal degree (output degree minus the sum of input degrees) must be
    constant across the table.  All of it is checked here, where tables enter.
    """

    def __init__(self, base: AInfCategory, module: Bimodule, arity: int,
                 table: dict, internal_degree: int | None = None):
        if arity < 0:
            raise HochschildError("cochain arity must be >= 0")
        clean = {}
        seen_internal = set()
        for key, vec in table.items():
            out = {lab: c for lab, c in zip(vec, map(base.field.coerce, vec.values())) if c != 0}
            if not out:
                continue
            unknown = [lab for lab in out if lab not in module._info]
            if unknown:
                raise HochschildError(f"cochain output {unknown[0]!r} is not a module label")
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
            if any(base.is_unit(lab) for lab in key):
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
        self.base, self.module, self.arity = base, module, arity
        self.table, self.internal_degree = clean, internal_degree

    @classmethod
    def _trusted(cls, base, module, arity: int, table: dict, internal_degree: int):
        """The cochain of a table that is valid by construction, unchecked."""
        phi = cls.__new__(cls)
        phi.base, phi.module, phi.arity = base, module, arity
        phi.table, phi.internal_degree = table, internal_degree
        return phi

    def is_zero(self) -> bool:
        return not self.table


# ---------------------------------------------------------------------------
# the differential


def hochschild_differential(phi: HochschildCochain, ext: AInfCategory | None = None) -> HochschildCochain:
    """Arity-(n+1) component of the commutator with m_2.

    In the bar convention it is (-1)^|phi| [b_2, phi], that is
    (-1)^|phi| b_2{phi} minus phi{b_2}, where |phi| = d + 1 is phi's degree
    as a bar operation (d its internal degree): two pairs of
    :func:`ainfbench.ainf._insertion_sums`, with b_2 the m_2 of the base
    inside phi and the m_2 of the square-zero extension at the shift n - 2
    used by deformations around it.  The
    overall sign (-1)^|phi| makes degree-0 associative inputs reproduce the
    classical alternating formula.  An arity-0 cochain has no inputs: it
    enters the insertions under the key (), and only the composable products
    of the extension place its value at the right object.

    The sweep skips every tuple that holds a unit of the base, so the
    result is normalized as it comes out of the kernel.  It is valid by
    construction (composable, in the right module slots, of phi's internal
    degree, normalized): unchecked.  ``ext``, when given, must be
    ``square_zero_extension(phi.base, phi.module, n - 2)``: a caller that
    deforms by phi too builds it once for both.
    """
    base = phi.base
    n = phi.arity
    if ext is None:
        ext = square_zero_extension(base, phi.module, n - 2)
    phi_table = phi.table if n else {(): {lab: c for vec in phi.table.values() for lab, c in vec.items()}}
    ext_m2 = {key: vec for key, vec in ext.mult.get(2, {}).items() if ext.composable(key)}
    degree = phi.internal_degree + 1  # |phi| as a bar operation
    table = _insertion_sums(ext, [
        (phi_table, base.mult.get(2, {}), -1, 1),
        (ext_m2, phi_table, -1 if degree % 2 else 1, degree),
    ], skip=set(base.units.values()))
    return HochschildCochain._trusted(base, phi.module, n + 1, table, phi.internal_degree)


def _refuse_higher_products(c: AInfCategory) -> None:
    """HigherProductsError when ``c`` has a nonzero m_k for some k other
    than 2; on every other base :func:`hochschild_differential` is the
    whole [m, phi]."""
    k = min((p for p in c.mult if p != 2), default=None)
    if k is not None:
        raise HigherProductsError(k, min(c.mult[k]))


# ---------------------------------------------------------------------------
# deformations


def deform_by_cocycle(c: AInfCategory, m: Bimodule, eta: HochschildCochain) -> tuple:
    """(deformed, cocycle): the square-zero extension at the shift n - 2
    with m_n augmented by eta on pure-C inputs, and whether eta is a
    Hochschild cocycle, which holds iff the deformation satisfies the
    defining relations.

    The gates run in this order: HochschildError unless eta is a cochain
    over ``c`` with values in ``m`` (:func:`_check_over`), of arity >= 1 and
    internal degree 0 (so the added component has operator degree 2 - n);
    then HigherProductsError for a base with a nonzero m_1 or m_k, k >= 3.
    Only then is the one extension built that the differential and the
    deformation share.
    """
    _check_over(c, m, eta)
    if eta.arity < 1:
        raise HochschildError("deformations need cochain arity >= 1")
    if eta.internal_degree != 0:
        raise HochschildError(f"cocycle internal degree {eta.internal_degree} "
                              f"does not match the shift {eta.arity - 2}")
    _refuse_higher_products(c)
    ext = square_zero_extension(c, m, eta.arity - 2)
    return _deform(c, ext, eta), hochschild_differential(eta, ext).is_zero()


def _check_over(c: AInfCategory, m: Bimodule, phi: HochschildCochain) -> None:
    """HochschildError unless phi is a cochain over ``c`` with values in ``m``."""
    if phi.base is not c and not phi.base.tables_equal(c):
        raise HochschildError("cochain is not over the given category")
    if phi.module is not m and any(lab not in m._info for vec in phi.table.values() for lab in vec):
        raise HochschildError("cochain values lie outside the given bimodule")


def _deform(c: AInfCategory, ext: AInfCategory, eta: HochschildCochain) -> AInfCategory:
    """The deformation's one category: the square-zero extension ``ext`` at
    shift eta.arity - 2 (left unchanged) with eta added to m_n, and none of
    the gates of :func:`deform_by_cocycle`.  eta's values lie in M and m_n's
    on pure-C keys in C, so they merge without cancelling into tables valid
    by construction (:meth:`AInfCategory._trusted`); an empty m_n is dropped."""
    n = eta.arity
    tbl = dict(ext.mult.get(n, {}))
    for key, vec in eta.table.items():
        tbl[key] = {**tbl.get(key, {}), **vec}
    mult = {**ext.mult, n: tbl} if tbl else ext.mult
    return AInfCategory._trusted(c.field, c.objects, ext.hom, c.units, mult)


# ---------------------------------------------------------------------------
# coboundaries deform trivially


def coboundary_trivialization(c: AInfCategory, m: Bimodule, phi: HochschildCochain) -> bool:
    """Verify the explicit change of coordinates killing the deformation by
    d(phi): the functor F = id + phi, phi at arity phi.arity, from the
    deformed extension to the plain one satisfies the functor equations of
    the bar convention bit-exactly (:func:`_verify_functor`).  (For arity 1
    the two components merge into the map 1 + phi.)  The deformation reuses
    ``plain``.
    HochschildError unless phi is over ``c`` with values in ``m``
    (:func:`_check_over`), then HigherProductsError on a base with a nonzero
    m_1 or m_k, k >= 3, where d(phi) is not the differential's whole value.
    """
    _check_over(c, m, phi)
    _refuse_higher_products(c)
    eta = hochschild_differential(phi)
    if eta.table and eta.internal_degree:
        raise HochschildError(f"d(phi) has internal degree {eta.internal_degree}, not 0")
    plain = square_zero_extension(c, m, eta.arity - 2)
    return _verify_functor(_deform(c, plain, eta), plain, phi)


def _verify_functor(src: AInfCategory, tgt: AInfCategory, phi: HochschildCochain) -> bool:
    """Check the functor equations for F = id + phi, phi at arity phi.arity.

    In the bar convention F o b_src = b_tgt o F, so the defect
    (b_src - b_tgt) + phi{b_src} - b_tgt{phi} must vanish on every
    composable tuple: two pairs and two singles of
    :func:`ainfbench.ainf._insertion_sums`, where every b has degree 1 and
    phi, a component of a functor, has degree d (its internal degree, 0 for
    a deformation).  Terms with two phi blocks vanish: the target is a
    square-zero extension and its tables hold at most one module label per
    key.  An arity-0 phi gives F no component, so for arity 0 only
    b_src = b_tgt is checked.
    """
    phi_table = phi.table if phi.arity else {}
    src_table = {key: vec for t in src.mult.values() for key, vec in t.items()}
    tgt_table = {key: vec for t in tgt.mult.values() for key, vec in t.items()}
    pairs = [(phi_table, src_table, 1, 1), (tgt_table, phi_table, -1, phi.internal_degree)]
    return not _insertion_sums(src, pairs, [(src_table, 1), (tgt_table, -1)])

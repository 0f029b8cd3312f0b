"""One-sided twisted complexes over the quotient category: representables,
inclusion morphisms, cones, evaluations, Hom-complexes, semiorthogonality.

A twisted complex is a finite list of entries (object o_a, shift k_a) with a
strictly one-sided connection.  The connection component mapping summand s to
summand t (only t < s allowed) is stored at key (t, s) and is an element of
hom(o_t -> o_s): by the Yoneda lemma for the covariant modules hom(o -> -),
a module map between the representables at o_s and o_t corresponds to such an
element, acting on values by precomposition.  A shift k lowers evaluation
degrees by k, so the cone of f: X -> Y lists Y's entries unchanged followed
by X's entries with shift + 1 and places f in the connecting block with no
extra sign.

Signs.  All operations are computed through the suspended (bar) form of the
category operations, where the only signs are Koszul signs:

* converting m_p to its suspended form contributes
  sum_{u<p} (p-u) * (deg_u - 1);
* each matrix component carries a one-dimensional graded line for its shift;
  composing p components contributes sum_i (k_src_i - k_tgt_i) for the odd
  suspended operation passing the line block, plus the shuffle sign
  sum_{j>=2} (k_src_j - k_tgt_j) * sum_{i<j} (deg_i - 1).

These three exponents are the whole sign convention; d o d = 0 on every
Hom-complex, Maurer-Cartan for every cone, and the Yoneda comparisons below
are the correctness certificates.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dc_field

from .ainf import AInfCategory
from .auslander import AuslanderCategory
from .filtration import filtration_quotient_algebra
from .linalg import FiniteComplex, complex_cohomology, rref, solve_linear


class ModuleError(ValueError):
    pass


# ---------------------------------------------------------------------------
# chain evaluation with twisted-complex signs


def _chain_apply(cat: AInfCategory, items) -> dict:
    """Apply m_p to a chain of decorated sparse elements, with all signs.

    ``items`` is a list of (k_src, k_tgt, sparse element); list order is the
    order of application as module maps, which is also the argument order of
    m_p on the underlying elements.
    """
    p = len(items)
    table = cat.mult.get(p)
    if table is None:
        return {}
    field = cat.field
    lam = [(ks - kt) % 2 for ks, kt, _ in items]
    out: dict = {}
    for combo in itertools.product(*[list(e.items()) for _, _, e in items]):
        labels = tuple(lab for lab, _ in combo)
        entry = table.get(labels)
        if not entry:
            continue
        coeff = field.one
        for _, c in combo:
            coeff = field.mul(coeff, c)
        if coeff == 0:
            continue
        degs = [cat.deg(lab) for lab in labels]
        exp = sum(lam)
        running = 0
        for j in range(1, p):
            running += degs[j - 1] - 1
            exp += lam[j] * running
        for u in range(1, p):
            exp += (p - u) * (degs[u - 1] - 1)
        field.add_scaled(out, entry, field.neg(coeff) if exp % 2 else coeff)
    return out


# ---------------------------------------------------------------------------
# twisted complexes


class TwistedComplex:
    """Entries (object, shift) with a strictly one-sided degree-1 connection."""

    def __init__(self, cat: AInfCategory, entries, conn=None, check_mc: bool = True):
        self.cat = cat
        self.entries = tuple((o, int(k)) for o, k in entries)
        for o, _ in self.entries:
            if o not in cat.objects:
                raise ModuleError(f"unknown object {o!r}")
        self.conn = {}
        conn = conn or {}
        for (t, s), elem in conn.items():
            elem = {lab: c for lab, c in zip(elem, map(cat.field.coerce, elem.values())) if c != 0}
            if not elem:
                continue
            if not (0 <= t < s < len(self.entries)):
                raise ModuleError(f"connection key ({t},{s}) is not strictly one-sided")
            ot, kt = self.entries[t]
            os_, ks = self.entries[s]
            for lab in elem:
                if (cat.src(lab), cat.tgt(lab)) != (ot, os_):
                    raise ModuleError(
                        f"connection entry ({t},{s}) must lie in hom({ot!r},{os_!r})"
                    )
                if cat.deg(lab) != 1 - ks + kt:
                    raise ModuleError(
                        f"connection entry ({t},{s}) has degree {cat.deg(lab)}, "
                        f"expected {1 - ks + kt}"
                    )
            self.conn[(t, s)] = elem
        if check_mc:
            bad = maurer_cartan_defect(self)
            if bad:
                raise ModuleError(f"Maurer-Cartan fails at components {sorted(bad)}")

    @property
    def size(self) -> int:
        return len(self.entries)

    def shift(self, k: int) -> "TwistedComplex":
        return TwistedComplex(
            self.cat,
            [(o, sh + k) for o, sh in self.entries],
            dict(self.conn),
            check_mc=False,
        )

    def _delta_paths(self, start, end):
        """All connection paths start > ... > end (length >= 1), as item lists."""
        ks_start = self.entries[start][1]
        out = []

        def rec(cur, items):
            for (t, s), elem in self.conn.items():
                if s != cur:
                    continue
                step = (self.entries[s][1], self.entries[t][1], elem)
                if t == end:
                    out.append(items + [step])
                elif t > end:
                    rec(t, items + [step])

        rec(start, [])
        return out

    def __repr__(self):
        return f"TwistedComplex(entries={self.entries}, conn={sorted(self.conn)})"


def maurer_cartan_defect(x: TwistedComplex) -> dict:
    """Nonzero components of sum_p m_p(delta, ..., delta), keyed by (t, s)."""
    bad = {}
    for s in range(x.size):
        for t in range(s):
            total: dict = {}
            for path in x._delta_paths(s, t):
                x.cat.field.add_scaled(total, _chain_apply(x.cat, path))
            if total:
                bad[(t, s)] = total
    return bad


# ---------------------------------------------------------------------------
# morphisms


@dataclass
class ModuleMorphismElement:
    """Matrix element of Hom(source, target) of pure total degree.

    Component (t, s) lies in hom(o_t^target -> o_s^source) and has total
    degree deg + k_s^source - k_t^target.
    """

    source: TwistedComplex
    target: TwistedComplex
    degree: int
    comps: dict = dc_field(default_factory=dict)

    def __post_init__(self):
        cat = self.source.cat
        clean = {}
        for (t, s), elem in self.comps.items():
            elem = {lab: c for lab, c in elem.items() if c != 0}
            if not elem:
                continue
            ot, kt = self.target.entries[t]
            os_, ks = self.source.entries[s]
            for lab in elem:
                if (cat.src(lab), cat.tgt(lab)) != (ot, os_):
                    raise ModuleError(
                        f"component ({t},{s}) must lie in hom({ot!r},{os_!r})"
                    )
                if cat.deg(lab) + ks - kt != self.degree:
                    raise ModuleError(
                        f"component ({t},{s}) entry {lab} has total degree "
                        f"{cat.deg(lab) + ks - kt}, declared {self.degree}"
                    )
            clean[(t, s)] = elem
        self.comps = clean

    def is_zero(self) -> bool:
        return not self.comps

    def scaled(self, c) -> "ModuleMorphismElement":
        field = self.source.cat.field
        return ModuleMorphismElement(
            self.source,
            self.target,
            self.degree,
            {k: {l: field.mul(c, v) for l, v in e.items()} for k, e in self.comps.items()},
        )

    def plus(self, other: "ModuleMorphismElement") -> "ModuleMorphismElement":
        if other.degree != self.degree:
            raise ModuleError("cannot add morphisms of different degrees")
        field = self.source.cat.field
        comps = {k: dict(e) for k, e in self.comps.items()}
        for k, e in other.comps.items():
            field.add_scaled(comps.setdefault(k, {}), e)
        return ModuleMorphismElement(self.source, self.target, self.degree, comps)


def zero_morphism(source: TwistedComplex, target: TwistedComplex, degree: int = 0):
    return ModuleMorphismElement(source, target, degree, {})


def mu1(f: ModuleMorphismElement) -> ModuleMorphismElement:
    """Differential: sum of m(delta_src^j, f, delta_tgt^k) over all chains."""
    x, y = f.source, f.target
    cat = x.cat
    field = cat.field
    out: dict = {}
    for (t0, sm), elem in f.comps.items():
        f_item = (x.entries[sm][1], y.entries[t0][1], elem)
        for s_out in range(sm, x.size):
            pre_paths = [[]] if s_out == sm else x._delta_paths(s_out, sm)
            for pre in pre_paths:
                for t_out in range(t0 + 1):
                    post_paths = [[]] if t_out == t0 else y._delta_paths(t0, t_out)
                    for post in post_paths:
                        term = _chain_apply(cat, pre + [f_item] + post)
                        if not term:
                            continue
                        field.add_scaled(out.setdefault((t_out, s_out), {}), term)
    out = {k: e for k, e in out.items() if e}
    return ModuleMorphismElement(x, y, f.degree + 1, out)


def mu2(f: ModuleMorphismElement, g: ModuleMorphismElement) -> ModuleMorphismElement:
    """Composition f o g (g applied first), with all connection insertions.

    The raw suspended two-fold product is rescaled by (-1)^(deg(g) + 1), the
    unique twist that makes identity morphisms strict two-sided units; the
    product stays associative modulo exact terms.
    """
    if g.target is not f.source and g.target.entries != f.source.entries:
        raise ModuleError("morphisms are not composable")
    x, y, z = g.source, g.target, f.target
    cat = x.cat
    field = cat.field
    out: dict = {}
    for (ty, sx), g_elem in g.comps.items():
        g_item = (x.entries[sx][1], y.entries[ty][1], g_elem)
        for (tz, sy), f_elem in f.comps.items():
            if sy > ty:
                continue
            f_item = (y.entries[sy][1], z.entries[tz][1], f_elem)
            mid_paths = [[]] if sy == ty else y._delta_paths(ty, sy)
            for s_out in range(sx, x.size):
                pre_paths = [[]] if s_out == sx else x._delta_paths(s_out, sx)
                for t_out in range(tz + 1):
                    post_paths = [[]] if t_out == tz else z._delta_paths(tz, t_out)
                    for pre in pre_paths:
                        for mid in mid_paths:
                            for post in post_paths:
                                term = _chain_apply(
                                    cat, pre + [g_item] + mid + [f_item] + post
                                )
                                if not term:
                                    continue
                                field.add_scaled(out.setdefault((t_out, s_out), {}), term)
    if (g.degree + 1) % 2:
        out = {k: {l: field.neg(c) for l, c in e.items()} for k, e in out.items()}
    out = {k: e for k, e in out.items() if e}
    return ModuleMorphismElement(x, z, f.degree + g.degree, out)


def is_closed(f: ModuleMorphismElement) -> bool:
    return mu1(f).is_zero()


def identity_morphism(x: TwistedComplex) -> ModuleMorphismElement:
    cat = x.cat
    comps = {}
    for a, (o, _) in enumerate(x.entries):
        comps[(a, a)] = dict(cat.unit_vector(o))
    return ModuleMorphismElement(x, x, 0, comps)


# ---------------------------------------------------------------------------
# representables, inclusions, cones


def representable(aus: AuslanderCategory, i: int) -> TwistedComplex:
    if not 0 <= i < aus.n:
        raise ModuleError(f"object index {i} out of range 0..{aus.n - 1}")
    return TwistedComplex(aus.gamma, [(i, 0)], {})


def empty_complex(cat: AInfCategory) -> TwistedComplex:
    return TwistedComplex(cat, [], {})


def psi(aus: AuslanderCategory, i: int) -> ModuleMorphismElement:
    """The closed degree-0 morphism P_{i+1} -> P_i carried by the class of the
    unit in hom(i -> i+1); on evaluations it acts as the inclusion-style map."""
    if not 0 <= i <= aus.n - 2:
        raise ModuleError(f"psi index {i} out of range 0..{aus.n - 2}")
    gamma = aus.gamma
    r = aus.base
    obj = r.objects[0]
    unit_vec = r.element_to_coords(r.unit_vector(obj), obj, obj)
    q = aus.quotients[(i, i + 1)]
    coords = q.project_strict(unit_vec)
    elem = gamma.coords_to_element(coords, i, i + 1)
    f = ModuleMorphismElement(
        representable(aus, i + 1), representable(aus, i), 0, {(0, 0): elem}
    )
    if not is_closed(f):
        raise ModuleError("unit class failed to be closed (construction bug)")
    return f


def cone(f: ModuleMorphismElement) -> TwistedComplex:
    """Entries of the target followed by the source shifted one step; the
    morphism fills the connecting block.  Requires f closed of degree 0."""
    if f.degree != 0:
        raise ModuleError(f"cone requires a degree-0 morphism, got degree {f.degree}")
    if not is_closed(f):
        raise ModuleError("cone requires a closed morphism")
    x, y = f.source, f.target
    off = y.size
    entries = list(y.entries) + [(o, k + 1) for o, k in x.entries]
    conn = {}
    for (t, s), e in y.conn.items():
        conn[(t, s)] = dict(e)
    for (t, s), e in x.conn.items():
        conn[(t + off, s + off)] = dict(e)
    for (t, s), e in f.comps.items():
        conn[(t, s + off)] = dict(e)
    return TwistedComplex(x.cat, entries, conn, check_mc=True)


# ---------------------------------------------------------------------------
# evaluation and Hom-complexes


def evaluate_at(x: TwistedComplex, j) -> FiniteComplex:
    """Value of the module at object j: sum_a hom(o_a -> j) shifted by k_a,
    with the differential induced by the connection."""
    cat = x.cat
    field = cat.field
    if j not in cat.objects:
        raise ModuleError(f"unknown object {j!r}")
    basis = []  # (summand a, label)
    for a, (o, k) in enumerate(x.entries):
        for lab in cat.basis(o, j):
            basis.append((a, lab))
    index = {key: i for i, key in enumerate(basis)}
    degree_of = {}
    for a, lab in basis:
        degree_of[(a, lab)] = cat.deg(lab) - x.entries[a][1]

    components: dict = {}
    for key in basis:
        components.setdefault(degree_of[key], []).append(key)
    comp_labels = {
        d: tuple(f"{a}|{lab}" for a, lab in keys) for d, keys in components.items()
    }
    pos = {d: {key: i for i, key in enumerate(keys)} for d, keys in components.items()}

    diff: dict = {}
    for (a, lab), _ in degree_of.items():
        d = degree_of[(a, lab)]
        x_item = (0, x.entries[a][1], {lab: field.one})
        for t_out in range(a):
            for path in x._delta_paths(a, t_out):
                term = _chain_apply(cat, [x_item] + path)
                for out_lab, c in term.items():
                    key_out = (t_out, out_lab)
                    m = diff.setdefault(
                        d,
                        [
                            [field.zero] * len(components[d])
                            for _ in range(len(components.get(d + 1, ())))
                        ],
                    )
                    row = pos[d + 1][key_out]
                    col = pos[d][(a, lab)]
                    m[row][col] = field.add(m[row][col], c)
    diff = {d: tuple(tuple(row) for row in m) for d, m in diff.items()}
    return FiniteComplex(field, comp_labels, diff)


class HomComplexResult:
    """Hom-complex of two twisted complexes with its cohomology.

    The underlying graded space collects hom(o_t^target -> o_s^source) over
    all component slots, graded by total degree; the differential is mu1.
    """

    def __init__(self, source: TwistedComplex, target: TwistedComplex):
        cat = source.cat
        if cat is not target.cat and cat.objects != target.cat.objects:
            raise ModuleError("twisted complexes live over different categories")
        field = cat.field
        self.source = source
        self.target = target
        basis = []
        for t, (ot, kt) in enumerate(target.entries):
            for s, (os_, ks) in enumerate(source.entries):
                for lab in cat.basis(ot, os_):
                    basis.append((t, s, lab, cat.deg(lab) + ks - kt))
        self.basis_by_degree: dict = {}
        for t, s, lab, d in basis:
            self.basis_by_degree.setdefault(d, []).append((t, s, lab))
        for d in self.basis_by_degree:
            self.basis_by_degree[d].sort(key=lambda w: (w[0], w[1], str(w[2])))
        self._pos = {
            d: {key: i for i, key in enumerate(keys)}
            for d, keys in self.basis_by_degree.items()
        }
        comp_labels = {
            d: tuple(f"{t}|{s}|{lab}" for t, s, lab in keys)
            for d, keys in self.basis_by_degree.items()
        }
        diff: dict = {}
        for d, keys in self.basis_by_degree.items():
            n_src = len(keys)
            n_tgt = len(self.basis_by_degree.get(d + 1, ()))
            if n_tgt == 0:
                continue
            m = [[field.zero] * n_src for _ in range(n_tgt)]
            for col, (t, s, lab) in enumerate(keys):
                f = ModuleMorphismElement(source, target, d, {(t, s): {lab: field.one}})
                df = mu1(f)
                for (t2, s2), elem in df.comps.items():
                    for lab2, c in elem.items():
                        row = self._pos[d + 1][(t2, s2, lab2)]
                        m[row][col] = field.add(m[row][col], c)
            diff[d] = tuple(tuple(row) for row in m)
        self.complex = FiniteComplex(field, comp_labels, diff)
        self.cohomology = complex_cohomology(self.complex)

    def dims(self) -> dict:
        return {d: len(keys) for d, keys in self.basis_by_degree.items()}

    def cohomology_dims(self) -> dict:
        return self.cohomology.dims()

    def total_cohomology_dim(self) -> int:
        return self.cohomology.total_dim()

    def morphism_from_coords(self, d: int, coords) -> ModuleMorphismElement:
        comps: dict = {}
        for c, (t, s, lab) in zip(coords, self.basis_by_degree.get(d, ())):
            if c != 0:
                comps.setdefault((t, s), {})[lab] = c
        return ModuleMorphismElement(self.source, self.target, d, comps)

    def coords_from_morphism(self, f: ModuleMorphismElement):
        field = self.source.cat.field
        keys = self.basis_by_degree.get(f.degree, ())
        v = [field.zero] * len(keys)
        for (t, s), elem in f.comps.items():
            for lab, c in elem.items():
                v[self._pos[f.degree][(t, s, lab)]] = c
        return tuple(v)

    def class_of(self, f: ModuleMorphismElement):
        return self.cohomology.class_coords(f.degree, self.coords_from_morphism(f))


def hom_complex(x: TwistedComplex, y: TwistedComplex) -> HomComplexResult:
    return HomComplexResult(x, y)


# ---------------------------------------------------------------------------
# cohomology of a one-object algebra (with its product)


class AlgebraCohomology:
    """H^* of a one-object category with the product induced by m_2.

    For a minimal algebra this is the algebra itself; otherwise classes are
    presented by explicit cocycle representatives.
    """

    def __init__(self, alg: AInfCategory):
        self.alg = alg
        obj = alg.objects[0]
        space = alg.hom[(obj, obj)]
        field = alg.field
        self.obj = obj
        self.space = space
        components: dict = {}
        for i, lab in enumerate(space.labels):
            components.setdefault(space.degrees[i], []).append(lab)
        comp_labels = {d: tuple(ls) for d, ls in components.items()}
        pos = {d: {lab: i for i, lab in enumerate(ls)} for d, ls in components.items()}
        diff: dict = {}
        for d, ls in components.items():
            if (d + 1) not in components:
                if any(alg.apply_labels(1, (lab,)) for lab in ls):
                    raise ModuleError("m_1 output escapes the graded components")
                continue
            m = [[field.zero] * len(ls) for _ in components[d + 1]]
            for col, lab in enumerate(ls):
                for out_lab, c in alg.apply_labels(1, (lab,)).items():
                    m[pos[d + 1][out_lab]][col] = c
            diff[d] = tuple(tuple(row) for row in m)
        self.complex = FiniteComplex(field, comp_labels, diff)
        self.cohomology = complex_cohomology(self.complex)
        self._components = comp_labels
        self._pos = pos
        # class basis: (degree, index) with sparse representatives
        self.classes = []
        for d in sorted(self.cohomology.groups):
            g = self.cohomology.groups[d]
            for k, rep in enumerate(g.reps):
                elem = {comp_labels[d][i]: c for i, c in enumerate(rep) if c != 0}
                self.classes.append((d, k, elem))

    def dims(self) -> dict:
        return self.cohomology.dims()

    def class_coords(self, elem: dict, degree: int):
        ls = self._components.get(degree, ())
        v = [self.alg.field.zero] * len(ls)
        for lab, c in elem.items():
            v[self._pos[degree][lab]] = c
        return self.cohomology.class_coords(degree, tuple(v))

    def product_class(self, da, elem_a, db, elem_b):
        """Class of m_2(elem_a, elem_b) in degree da + db."""
        out = self.alg.apply(2, [elem_a, elem_b])
        return self.class_coords(out, da + db)

    def unit_class_index(self):
        obj = self.obj
        unit_elem = self.alg.unit_vector(obj)
        coords = self.class_coords(unit_elem, 0)
        return coords


# ---------------------------------------------------------------------------
# the canonical right-action comparison for End(S_i)


def end_comparison(aus: AuslanderCategory, s_i: TwistedComplex, rbar_h: AlgebraCohomology, rbar_pres) -> dict:
    """Verify H^*(End(S_i)) is a copy of H^*(R/F^1) via the right action.

    For each class rbar with representative r, the candidate endomorphism is
    the diagonal matrix of the classes of r (one slot per entry of S_i),
    corrected by a solvable term to make it closed.  The map r -> [f_r] is
    verified to be a degree-preserving linear isomorphism carrying the unit
    to the identity and satisfying the composition law

        mu2(f_r, f_s) ~ f_{m_2(s, r)}

    exactly.  Composition applies its second argument first, so the canonical
    identification reverses products: it is an isomorphism onto the opposite
    algebra, hence an isomorphism outright whenever R/F^1 is commutative or
    has an anti-automorphism.
    """
    cat = s_i.cat
    field = cat.field
    end = hom_complex(s_i, s_i)
    out = {"dims_match": end.cohomology_dims() == rbar_h.dims(), "failures": []}
    if not out["dims_match"]:
        out["failures"].append(
            {"check": "dims",
             "end": {str(d): v for d, v in end.cohomology_dims().items()},
             "rbar": {str(d): v for d, v in rbar_h.dims().items()}}
        )
        out["ok"] = False
        return out

    def diagonal_candidate(elem, degree):
        comps = {}
        for a, (o, _) in enumerate(s_i.entries):
            lifted = _lift_rbar_class(aus, rbar_h, rbar_pres, elem, o)
            if lifted:
                comps[(a, a)] = lifted
        return ModuleMorphismElement(s_i, s_i, degree, comps)

    reps = {}
    for d, k, elem in rbar_h.classes:
        f0 = diagonal_candidate(elem, d)
        df0 = mu1(f0)
        if df0.is_zero():
            f = f0
        else:
            m = end.complex.differential(d)
            target = end.coords_from_morphism(df0)
            sol = solve_linear(field, m, tuple(field.neg(c) for c in target))
            if sol is None:
                out["failures"].append({"check": "closure", "class": [d, k]})
                continue
            f = f0.plus(end.morphism_from_coords(d, sol))
            if not mu1(f).is_zero():
                out["failures"].append({"check": "closure", "class": [d, k]})
                continue
        reps[(d, k)] = f

    if len(reps) != len(rbar_h.classes):
        out["ok"] = False
        return out

    # linear isomorphism: the classes of the f_r span H^* degreewise
    by_degree: dict = {}
    for (d, k), f in reps.items():
        by_degree.setdefault(d, []).append(end.class_of(f))
    for d, vecs in by_degree.items():
        rows, _ = rref(field, [list(v) for v in vecs])
        want = end.cohomology.groups[d].dim if d in end.cohomology.groups else 0
        if len(rows) != len(vecs) or len(vecs) != want:
            out["failures"].append({"check": "linear_iso", "degree": d})

    # unit goes to the identity
    ident = identity_morphism(s_i)
    unit_f = _combine(reps, rbar_h, 0, rbar_h.unit_class_index(), end)
    if unit_f is None or end.class_of(unit_f) != end.class_of(ident):
        out["failures"].append({"check": "unit"})

    # composition law (product reversed by the right action)
    for (da, ka, ea) in rbar_h.classes:
        for (db, kb, eb) in rbar_h.classes:
            left = mu2(reps[(da, ka)], reps[(db, kb)])
            prod_coords = rbar_h.product_class(db, eb, da, ea)
            right = _combine(reps, rbar_h, da + db, prod_coords, end)
            rc = end.class_of(right) if right is not None else None
            if end.class_of(left) != rc:
                out["failures"].append(
                    {"check": "composition", "classes": [[da, ka], [db, kb]]}
                )

    out["ok"] = not out["failures"]
    return out


def _lift_rbar_class(aus: AuslanderCategory, rbar_h: AlgebraCohomology, rbar_pres, elem: dict, gamma_obj) -> dict:
    """Class in hom(o -> o) of a representative of an R/F^1 element."""
    cat = aus.gamma
    coords = [cat.field.zero] * rbar_pres.dim
    for lab, c in elem.items():
        coords[rbar_h.space.index(lab)] = c
    ambient = rbar_pres.lift(tuple(coords))
    q = aus.quotients[(gamma_obj, gamma_obj)]
    cls = q.project_strict(ambient)
    return {
        lab: c
        for lab, c in zip(cat.hom[(gamma_obj, gamma_obj)].labels, cls)
        if c != 0
    }


def _combine(reps, rbar_h, degree, coords, end):
    """Linear combination of the canonical endomorphisms for given class coords."""
    field = rbar_h.alg.field
    idx = [
        (d, k) for (d, k, _) in rbar_h.classes if d == degree
    ]
    if len(coords) != len(idx):
        return None
    total = None
    for c, key in zip(coords, idx):
        if c == 0:
            continue
        term = reps[key].scaled(c)
        total = term if total is None else total.plus(term)
    if total is None:
        total = zero_morphism(end.source, end.target, degree)
    return total


# ---------------------------------------------------------------------------
# the semiorthogonality report


class SodReport:
    def __init__(self, n, rbar_dims, ps_table, ss_table, end_results, failures, witnesses):
        self.n = n
        self.rbar_dims = rbar_dims
        self.ps_table = ps_table
        self.ss_table = ss_table
        self.end_results = end_results
        self.failures = failures
        self.generation_witnesses = witnesses

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json(self):
        def table_json(tab):
            return [
                [
                    {"total": sum(cell.values()), "by_degree": {str(d): v for d, v in sorted(cell.items())}}
                    for cell in row
                ]
                for row in tab
            ]

        return {
            "verdict": "PASS" if self.passed else "FAIL",
            "n": self.n,
            "rbar_cohomology_dims": {str(d): v for d, v in sorted(self.rbar_dims.items())},
            "hom_P_S_dims": table_json(self.ps_table),
            "hom_S_S_dims": table_json(self.ss_table),
            "end_algebra_checks": self.end_results,
            "failures": self.failures,
            "generation_witnesses": self.generation_witnesses,
        }


def sod_report(aus: AuslanderCategory) -> SodReport:
    """Build all P_i, psi_i, S_i and verify the semiorthogonality pattern:

    (a) H Hom(P_j, S_i) vanishes for j > i and matches H^*(R/F^1) for j = i;
    (b) H End(S_i) is a copy of H^*(R/F^1) (see :func:`end_comparison`);
    (c) H Hom(S_j, S_i) vanishes for j > i.
    """
    n = aus.n
    gamma = aus.gamma
    rbar, pres = filtration_quotient_algebra(aus.base, aus.filtration)
    rbar_h = AlgebraCohomology(rbar)
    rbar_dims = rbar_h.dims()

    ps = [representable(aus, i) for i in range(n)]
    ss = []
    for i in range(n):
        if i < n - 1:
            ss.append(cone(psi(aus, i)))
        else:
            ss.append(cone(zero_morphism(empty_complex(gamma), ps[i])))

    failures = []
    ps_table = [[hom_complex(ps[j], ss[i]).cohomology_dims() for j in range(n)] for i in range(n)]
    ss_table = [[hom_complex(ss[j], ss[i]).cohomology_dims() for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(n):
            if j > i:
                if ps_table[i][j]:
                    failures.append({"check": "hom_P_S_vanishing", "i": i, "j": j,
                                     "dims": {str(d): v for d, v in ps_table[i][j].items()}})
                if ss_table[i][j]:
                    failures.append({"check": "hom_S_S_vanishing", "i": i, "j": j,
                                     "dims": {str(d): v for d, v in ss_table[i][j].items()}})
            if j == i and ps_table[i][j] != rbar_dims:
                failures.append({"check": "hom_P_S_diagonal", "i": i,
                                 "dims": {str(d): v for d, v in ps_table[i][j].items()},
                                 "expected": {str(d): v for d, v in rbar_dims.items()}})

    end_results = []
    for i in range(n):
        res = end_comparison(aus, ss[i], rbar_h, pres)
        end_results.append({"i": i, "ok": res["ok"], "failures": res["failures"]})
        if not res["ok"]:
            failures.append({"check": "end_algebra", "i": i, "detail": res["failures"]})

    witnesses = [{"object": n - 1, "statement": "S_{n-1} = P_{n-1} (cone on the zero map)"}]
    for i in range(n - 2, -1, -1):
        witnesses.append(
            {
                "object": i,
                "statement": f"P_{i} is the extension of S_{i} by P_{i+1} "
                f"along the triangle P_{i+1} -> P_{i} -> S_{i}",
            }
        )
    return SodReport(n, rbar_dims, ps_table, ss_table, end_results, failures, witnesses)

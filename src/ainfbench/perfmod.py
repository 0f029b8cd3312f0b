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

Hom-complex differentials (``mu1``, :class:`HomComplexResult`) use one kernel,
``_Mu1``.  Each complex expands its connection paths once into label chains
(labels, shift parities, degrees, coefficient), so a basis column costs one
table lookup per (pre chain, post chain).  Terms are summed as ints scaled by
D, the lcm of the table denominators (cached on the category) times the
chains' denominators: one division (over Q) or reduction (over F_p) per
nonzero entry.  ``mu2``, ``evaluate_at`` and Maurer-Cartan use ``_chain_apply``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from functools import cached_property

from .ainf import AInfCategory, _product_terms
from .auslander import AuslanderCategory
from .filtration import filtration_quotient_algebra
from .linalg import FiniteComplex, complex_cohomology, rref, solve_linear


class ModuleError(ValueError):
    pass


# ---------------------------------------------------------------------------
# chain evaluation with twisted-complex signs


def _odd(lam, dm1) -> bool:
    """Whether a chain's sign is -1: the three exponents of the module
    docstring, from the shift parities ``lam`` and the degrees minus one
    ``dm1`` of its arguments, in application order."""
    p = len(lam)
    exp = sum(lam)
    running = 0
    for j in range(1, p):
        running += dm1[j - 1]
        exp += lam[j] * running + (p - j) * dm1[j - 1]
    return exp % 2 == 1


def _chain_apply(cat: AInfCategory, items) -> dict:
    """Apply m_p to a chain of decorated sparse elements, with all signs.

    ``items`` is a list of (k_src, k_tgt, sparse element); list order is the
    order of application as module maps, which is also the argument order of
    m_p on the underlying elements.
    """
    table = cat.mult.get(len(items))
    if table is None:
        return {}
    field = cat.field
    lam = [(ks - kt) % 2 for ks, kt, _ in items]
    out: dict = {}
    for labels, coeff, entry in _product_terms(field, table, [e for _, _, e in items]):
        odd = _odd(lam, [cat.deg(lab) - 1 for lab in labels])
        field.add_scaled(out, entry, field.neg(coeff) if odd else coeff)
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

    @cached_property
    def _paths(self) -> dict:
        """Connection paths keyed by (start, end), start >= end, as lists of
        (k_src, k_tgt, element) in order of application; [[]] (the empty
        path) when start = end."""
        paths: dict = {}
        for a in range(self.size):
            for b in range(a + 1):
                paths[(a, b)] = [[]] if a == b else [
                    [(self.entries[s][1], self.entries[t][1], elem)] + rest
                    for (t, s), elem in self.conn.items() if s == a and t >= b
                    for rest in paths[(t, b)]]
        return paths

    @cached_property
    def _label_chains(self):
        """``_paths`` expanded into label chains (labels, shift parities,
        degrees minus one, coefficient times D), D the lcm of the coefficients'
        denominators (1 over F_p): (chains by (start, end), D), built once."""
        deg = self.cat.deg
        raw = {}
        for key, paths in self._paths.items():
            chains = raw[key] = []
            for path in paths:
                lam = tuple((ks - kt) % 2 for ks, kt, _ in path)
                for combo in itertools.product(*[e.items() for _, _, e in path]):
                    labels = tuple(lab for lab, _ in combo)
                    chains.append((labels, lam, tuple(deg(l) - 1 for l in labels), math.prod(c for _, c in combo)))
        den = math.lcm(*{ch[3].denominator for chains in raw.values() for ch in chains})
        return {key: [(*ch[:3], ch[3].numerator * (den // ch[3].denominator)) for ch in chains]
                for key, chains in raw.items()}, den

    def __repr__(self):
        return f"TwistedComplex(entries={self.entries}, conn={sorted(self.conn)})"


def maurer_cartan_defect(x: TwistedComplex) -> dict:
    """Nonzero components of sum_p m_p(delta, ..., delta), keyed by (t, s)."""
    bad = {}
    for s in range(x.size):
        for t in range(s):
            total: dict = {}
            for path in x._paths[(s, t)]:
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
        coerce = self.source.cat.field.coerce
        clean = {}
        for (t, s), elem in self.comps.items():
            elem = {lab: c for lab, c in zip(elem, map(coerce, elem.values())) if c != 0}
            if not elem:
                continue
            for lab in elem:
                _check_entry(self.source, self.target, self.degree, t, s, lab)
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


def _check_entry(source: TwistedComplex, target: TwistedComplex, degree: int, t, s, lab):
    """Raise ModuleError unless the label ``lab`` can sit in component (t, s)
    of a degree-``degree`` morphism from ``source`` to ``target``."""
    cat = source.cat
    ot, kt = target.entries[t]
    os_, ks = source.entries[s]
    if (cat.src(lab), cat.tgt(lab)) != (ot, os_):
        raise ModuleError(f"component ({t},{s}) must lie in hom({ot!r},{os_!r})")
    if cat.deg(lab) + ks - kt != degree:
        raise ModuleError(
            f"component ({t},{s}) entry {lab} has total degree "
            f"{cat.deg(lab) + ks - kt}, declared {degree}"
        )


def zero_morphism(source: TwistedComplex, target: TwistedComplex, degree: int = 0):
    return ModuleMorphismElement(source, target, degree, {})


def _check_same_category(*complexes):
    """ModuleError unless all live over one category, or equal field and tables."""
    cat = complexes[0].cat
    if any(x.cat is not cat and (x.cat.field != cat.field or not cat.tables_equal(x.cat)) for x in complexes):
        raise ModuleError("twisted complexes live over different categories")


class _Mu1:
    """mu1 on the Hom-complex from ``x`` to ``y``, one basis vector at a time."""

    def __init__(self, x: TwistedComplex, y: TwistedComplex):
        _check_same_category(x, y)
        self.x, self.y, self.cat = x, y, x.cat
        (self.x_chains, dx), (self.y_chains, dy) = x._label_chains, y._label_chains
        self.tables = [x.cat.mult.get(p, {}) for p in range(x.size + y.size)]
        self.scale = x.cat._mult_scale * dx * dy

    def column(self, t, s, lab) -> dict:
        """mu1 of the morphism with the single component ``lab`` at slot (t, s):
        the nonzero sums of its terms m(delta_x^j, f, delta_y^k), keyed by
        (t_out, s_out, out_lab)."""
        x, y, cat, tables, unit = self.x, self.y, self.cat, self.tables, self.cat._mult_scale
        f_lam, f_dm1 = ((x.entries[s][1] - y.entries[t][1]) % 2,), (cat.deg(lab) - 1,)
        sums: dict = {}
        for s_out in range(s, x.size):
            for pre, pre_lam, pre_dm1, pre_c in self.x_chains[(s_out, s)]:
                pre, lam, dm1 = pre + (lab,), pre_lam + f_lam, pre_dm1 + f_dm1
                for t_out in range(t + 1):
                    for post, post_lam, post_dm1, post_c in self.y_chains[(t, t_out)]:
                        labels = pre + post
                        entry = tables[len(labels)].get(labels)
                        if not entry:
                            continue
                        c = -pre_c * post_c if _odd(lam + post_lam, dm1 + post_dm1) else pre_c * post_c
                        for out_lab, v in entry.items():
                            key = (t_out, s_out, out_lab)
                            sums[key] = sums.get(key, 0) + c * v.numerator * (unit // v.denominator)
        p = cat.field.characteristic
        if p:
            return {key: v % p for key, v in sums.items() if v % p}
        return {key: Fraction(v, self.scale) for key, v in sums.items() if v}


def mu1(f: ModuleMorphismElement) -> ModuleMorphismElement:
    """Differential: sum of m(delta_src^j, f, delta_tgt^k) over all chains."""
    kernel = _Mu1(f.source, f.target)
    field = f.source.cat.field
    out: dict = {}  # zeros and empty components are dropped by the constructor
    for (t, s), elem in f.comps.items():
        for lab, c in elem.items():
            for (t2, s2, lab2), v in kernel.column(t, s, lab).items():
                e = out.setdefault((t2, s2), {})
                e[lab2] = field.add(e.get(lab2, field.zero), field.mul(c, v))
    return ModuleMorphismElement(f.source, f.target, f.degree + 1, out)


def mu2(f: ModuleMorphismElement, g: ModuleMorphismElement) -> ModuleMorphismElement:
    """Composition f o g (g applied first), with all connection insertions.

    The raw suspended two-fold product is rescaled by (-1)^(deg(g) + 1), the
    unique twist that makes identity morphisms strict two-sided units; the
    product stays associative modulo exact terms.
    """
    if g.target is not f.source and g.target.entries != f.source.entries:
        raise ModuleError("morphisms are not composable")
    x, y, z = g.source, g.target, f.target
    _check_same_category(x, y, f.source, z)
    cat = x.cat
    field = cat.field
    x_paths, y_paths, z_paths = x._paths, y._paths, z._paths
    out: dict = {}
    for (ty, sx), g_elem in g.comps.items():
        g_item = (x.entries[sx][1], y.entries[ty][1], g_elem)
        for (tz, sy), f_elem in f.comps.items():
            if sy > ty:
                continue
            f_item = (y.entries[sy][1], z.entries[tz][1], f_elem)
            for s_out in range(sx, x.size):
                for t_out in range(tz + 1):
                    for pre in x_paths[(s_out, sx)]:
                        for mid in y_paths[(ty, sy)]:
                            for post in z_paths[(tz, t_out)]:
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

    paths = x._paths
    diff: dict = {}  # degree -> sparse columns {j: {i: scalar}}
    for (a, lab), d in degree_of.items():
        x_item = (0, x.entries[a][1], {lab: field.one})
        col: dict = {}
        for t_out in range(a + 1):
            for path in paths[(a, t_out)]:
                for out_lab, c in _chain_apply(cat, [x_item] + path).items():
                    i = pos[d + 1][(t_out, out_lab)]
                    col[i] = field.add(col.get(i, field.zero), c)
        if col:
            diff.setdefault(d, {})[pos[d][(a, lab)]] = col
    return FiniteComplex(field, comp_labels, diff)


class HomComplexResult:
    """Hom-complex of two twisted complexes with its cohomology.

    The underlying graded space collects hom(o_t^target -> o_s^source) over
    all component slots, graded by total degree; the differential is mu1.
    Its column at a basis slot (t, s, lab) is ``_Mu1.column`` of that one
    label (see the module docstring), keyed by positions in the next degree
    and handed to :class:`FiniteComplex` as sparse columns.  Both complexes
    must live over one category (ModuleError otherwise).
    """

    def __init__(self, source: TwistedComplex, target: TwistedComplex):
        kernel = _Mu1(source, target)
        cat = source.cat
        self.source = source
        self.target = target
        self.basis_by_degree: dict = {}
        for t, (ot, kt) in enumerate(target.entries):
            for s, (os_, ks) in enumerate(source.entries):
                for lab in cat.basis(ot, os_):
                    self.basis_by_degree.setdefault(cat.deg(lab) + ks - kt, []).append((t, s, lab))
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
        diff: dict = {}  # degree -> sparse columns {j: {i: scalar}}
        for d, keys in self.basis_by_degree.items():
            pos = self._pos.get(d + 1)
            if pos is None:
                continue
            cols = diff[d] = {}
            for j, (t, s, lab) in enumerate(keys):
                col = cols[j] = {}
                for (t2, s2, lab2), c in kernel.column(t, s, lab).items():
                    i = pos.get((t2, s2, lab2))
                    if i is None:  # only a malformed table gets here; this raises
                        _check_entry(source, target, d + 1, t2, s2, lab2)
                    col[i] = c
        self.complex = FiniteComplex(cat.field, comp_labels, diff)
        self.cohomology = complex_cohomology(self.complex)

    def dims(self) -> dict:
        return {d: len(keys) for d, keys in self.basis_by_degree.items()}

    def cohomology_dims(self) -> dict:
        return self.cohomology.dims()

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
            diff[d] = {
                j: {pos[d + 1][out_lab]: c for out_lab, c in alg.apply_labels(1, (lab,)).items()}
                for j, lab in enumerate(ls)
            }
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


def end_comparison(aus: AuslanderCategory, s_i: TwistedComplex, end: HomComplexResult,
                   rbar_h: AlgebraCohomology, rbar_pres) -> dict:
    """Verify H^*(End(S_i)) is a copy of H^*(R/F^1) via the right action.

    ``end`` is ``hom_complex(s_i, s_i)``, built once by :func:`sod_report`.

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
    if end.source is not s_i or end.target is not s_i:
        raise ModuleError("end must be the Hom-complex End(S_i)")
    field = s_i.cat.field
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
        comps = {(a, a): _lift_rbar_class(aus, rbar_h, rbar_pres, elem, o) for a, (o, _) in enumerate(s_i.entries)}
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
    return cat.coords_to_element(cls, gamma_obj, gamma_obj)


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
    ss_table = [[] for _ in range(n)]
    end_results = []
    for i in range(n):
        for j in range(n):
            h = hom_complex(ss[j], ss[i])
            ss_table[i].append(h.cohomology_dims())
            if j == i:  # End(S_i), compared while it is the one alive
                res = end_comparison(aus, ss[i], h, rbar_h, pres)
                end_results.append({"i": i, "ok": res["ok"], "failures": res["failures"]})
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

    failures += [{"check": "end_algebra", "i": r["i"], "detail": r["failures"]}
                 for r in end_results if not r["ok"]]

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

"""One-sided twisted complexes over the quotient category: representables,
inclusion morphisms, cones, Hom-complexes, semiorthogonality.

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
Hom-complex and Maurer-Cartan for every twisted complex are the
correctness certificates.

Every m_p evaluation here (``mu1``, :class:`HomComplexResult`, ``mu2``,
Maurer-Cartan) goes through one kernel, ``_chain_sums``.  The value of a
complex x at an object j is the Hom-complex Hom(P_j, x) (Yoneda).
Each complex expands its connection paths once into label chains (labels,
shift parities, degrees minus one, coefficient), and so does each morphism
for its components; a term is three lists of chains (pre, mid, post), and
each concatenation costs one table lookup, so a category whose tables are
evaluated on demand (the quotient category of ``auslander``) evaluates only
the entries these lookups meet.  Terms are summed as ints scaled by D, the lcm
of the denominators of the table entries met so far times the chains'
denominators: one division (over Q) or reduction (over F_p) per nonzero entry.
"""

from __future__ import annotations

import itertools
import math
from collections import defaultdict
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from functools import cached_property

from .ainf import AInfCategory
from .auslander import AuslanderCategory
from .linalg import FiniteComplex, _Echelon, _solve, complex_cohomology


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


def _slot_chain(x: TwistedComplex, y: TwistedComplex, t, s, lab, c):
    """The one-label chain of ``c * lab`` at slot (t, s) of Hom(x, y), that
    is, mapping summand s of ``x`` to summand t of ``y``."""
    return (lab,), ((x.entries[s][1] - y.entries[t][1]) % 2,), (x.cat.deg(lab) - 1,), c


def _integral(groups) -> int:
    """D, the lcm of the coefficient denominators in ``groups`` (lists of
    chains; 1 over F_p), after scaling every coefficient to an int times D,
    in place."""
    den = math.lcm(*{ch[3].denominator for cs in groups for ch in cs})
    for cs in groups:
        cs[:] = [(*ch[:3], ch[3].numerator * (den // ch[3].denominator)) for ch in cs]
    return den


def _join(a, b):
    """Chain ``a`` followed by chain ``b``."""
    return a[0] + b[0], a[1] + b[1], a[2] + b[2], a[3] * b[3]


_EMPTY = [((), (), (), 1)]  # the empty chain, coefficient 1


def _chain_sums(cat: AInfCategory, terms, den: int) -> dict:
    """The kernel: signed m_p summed over concatenated label chains.

    Each term (key, pre, mid, post) holds three lists of chains (labels,
    shift parities, degrees minus one, int coefficient over ``den``); every
    concatenation pre + mid + post that m_p maps to a nonzero entry adds it,
    times the product of the coefficients and the sign of :func:`_odd`, at
    ``key``.  Returns the nonzero sums {(key, label): scalar}: ints over
    ``den`` times a scale that grows with the table entries met (the running
    sums are multiplied by the missing factor when an entry's denominator
    does not divide it), divided (Q) or reduced (F_p) once.
    """
    tables, unit = defaultdict(dict, cat.mult), 1
    sums: dict = {}
    for key, pre, mid, post in terms:
        for pre_labels, pre_lam, pre_dm1, pre_c in pre:
            for mid_labels, mid_lam, mid_dm1, mid_c in mid:
                head, head_c = pre_labels + mid_labels, pre_c * mid_c
                for post_labels, post_lam, post_dm1, post_c in post:
                    labels = head + post_labels
                    entry = tables[len(labels)].get(labels)
                    if not entry:
                        continue
                    c = head_c * post_c
                    if _odd(pre_lam + mid_lam + post_lam, pre_dm1 + mid_dm1 + post_dm1):
                        c = -c
                    for out_lab, v in entry.items():
                        d = v.denominator
                        if unit % d:
                            grow = d // math.gcd(unit, d)
                            unit *= grow
                            sums = {k: s * grow for k, s in sums.items()}
                        k = (key, out_lab)
                        sums[k] = sums.get(k, 0) + c * v.numerator * (unit // d)
    p = cat.field.characteristic
    if p:
        return {k: v % p for k, v in sums.items() if v % p}
    scale = unit * den
    return {k: Fraction(v, scale) for k, v in sums.items() if v}


# ---------------------------------------------------------------------------
# twisted complexes


class TwistedComplex:
    """Entries (object, shift) with a strictly one-sided degree-1 connection.

    Every complex is certified on construction: each connection entry is a
    degree-1 component of the complex into itself (:func:`_check_entry`),
    and the connection satisfies Maurer-Cartan (ModuleError otherwise)."""

    def __init__(self, cat: AInfCategory, entries, conn=None):
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
            for lab in elem:
                _check_entry(self, self, 1, t, s, lab)
            self.conn[(t, s)] = elem
        bad = maurer_cartan_defect(self)
        if bad:
            raise ModuleError(f"Maurer-Cartan fails at components {sorted(bad)}")

    @property
    def size(self) -> int:
        return len(self.entries)

    @cached_property
    def _label_chains(self):
        """Connection paths from summand a down to summand b <= a, at
        ``chains[a][b]``, as label chains in order of application: one per
        choice of a label in each component along the path, with the product
        of their coefficients; the empty chain when a = b.  (chains, D) with
        the coefficients ints over D (:func:`_integral`), built once."""
        chains: list = []
        for a in range(self.size):
            chains.append([[((), (), (), 1)] if a == b else [
                _join(_slot_chain(self, self, t, s, lab, c), rest)
                for (t, s), elem in self.conn.items() if s == a and t >= b
                for lab, c in elem.items() for rest in chains[t][b]] for b in range(a + 1)])
        return chains, _integral([cs for row in chains for cs in row])

    def __repr__(self):
        return f"TwistedComplex(entries={self.entries}, conn={sorted(self.conn)})"


def maurer_cartan_defect(x: TwistedComplex) -> dict:
    """Nonzero components of sum_p m_p(delta, ..., delta), keyed by (t, s)."""
    chains, den = x._label_chains
    terms = (((t, s), chains[s][t], _EMPTY, _EMPTY) for s in range(x.size) for t in range(s))
    bad: dict = {}
    for ((t, s), lab), v in _chain_sums(x.cat, terms, den).items():
        bad.setdefault((t, s), {})[lab] = v
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


def _check_entry(source: TwistedComplex, target: TwistedComplex, degree: int, t, s, lab):
    """Raise ModuleError unless the label ``lab`` can sit in component (t, s)
    of a degree-``degree`` morphism from ``source`` to ``target``."""
    if not (0 <= t < target.size and 0 <= s < source.size):
        raise ModuleError(f"component ({t},{s}) is outside the {target.size}x{source.size} matrix")
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


def _check_same_category(*complexes):
    """ModuleError unless all live over one category, or equal field and tables."""
    cat = complexes[0].cat
    if any(x.cat is not cat and (x.cat.field != cat.field or not cat.tables_equal(x.cat)) for x in complexes):
        raise ModuleError("twisted complexes live over different categories")


def _morphism_chains(f: ModuleMorphismElement):
    """The components of ``f`` as one-label chains by slot (t, s), with
    coefficients ints over D (:func:`_integral`): (chains, D)."""
    chains = {(t, s): [_slot_chain(f.source, f.target, t, s, lab, c) for lab, c in elem.items()]
              for (t, s), elem in f.comps.items()}
    return chains, _integral(chains.values())


def _mu1_sums(x: TwistedComplex, y: TwistedComplex, slots, den: int) -> dict:
    """mu1 on Hom(x, y) by :func:`_chain_sums`.  ``slots`` are (key, t, s,
    chains), the chains (ints over ``den``) of a morphism's component at
    (t, s); its terms m(delta_x^a, f, delta_y^b) land at ((key, t_out,
    s_out), label)."""
    (xc, dx), (yc, dy) = x._label_chains, y._label_chains
    terms = (((key, t_out, s_out), xc[s_out][s], mid, post)
             for key, t, s, mid in slots for s_out in range(s, x.size) for t_out, post in enumerate(yc[t]))
    return _chain_sums(x.cat, terms, den * dx * dy)


def mu1(f: ModuleMorphismElement) -> ModuleMorphismElement:
    """Differential: sum of m(delta_src^j, f, delta_tgt^k) over all chains."""
    _check_same_category(f.source, f.target)
    chains, den = _morphism_chains(f)
    slots = ((0, t, s, mid) for (t, s), mid in chains.items())
    out: dict = {}
    for ((_, t, s), lab), v in _mu1_sums(f.source, f.target, slots, den).items():
        out.setdefault((t, s), {})[lab] = v
    return ModuleMorphismElement(f.source, f.target, f.degree + 1, out)


def mu2(f: ModuleMorphismElement, g: ModuleMorphismElement) -> ModuleMorphismElement:
    """Composition f o g (g applied first), with all connection insertions.

    The raw suspended two-fold product is rescaled by (-1)^(deg(g) + 1), the
    unique twist that makes identity morphisms strict two-sided units; the
    product stays associative modulo exact terms.
    """
    y = g.target
    if y is not f.source and (y.entries, y.conn) != (f.source.entries, f.source.conn):
        raise ModuleError("morphisms are not composable: g's target is not f's source")
    x, z = g.source, f.target
    _check_same_category(x, y, f.source, z)
    (xc, dx), (yc, dy), (zc, dz) = x._label_chains, y._label_chains, z._label_chains
    (gc, dg), (fc, df) = _morphism_chains(g), _morphism_chains(f)
    terms = []
    for (ty, sx), g_chains in gc.items():
        for (tz, sy), f_chains in fc.items():
            if sy > ty:
                continue
            mid = [_join(_join(u, w), v) for u, w, v in itertools.product(g_chains, yc[ty][sy], f_chains)]
            terms += [((t_out, s_out), xc[s_out][sx], mid, post)
                      for s_out in range(sx, x.size) for t_out, post in enumerate(zc[tz])]
    field = x.cat.field
    out: dict = {}
    for ((t, s), lab), v in _chain_sums(x.cat, terms, dx * dg * dy * df * dz).items():
        out.setdefault((t, s), {})[lab] = field.neg(v) if (g.degree + 1) % 2 else v
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


def psi(aus: AuslanderCategory, i: int) -> ModuleMorphismElement:
    """The degree-0 morphism P_{i+1} -> P_i carried by the class of the
    unit in hom(i -> i+1); on evaluations it acts as the inclusion-style map.
    The unit lies in R = F^0, the numerator of Gamma(i, i+1) (the build
    refuses F^0 != R), so it is projected without a residue check.  It is
    closed, which ``cone(psi(aus, i))`` certifies."""
    if not 0 <= i <= aus.n - 2:
        raise ModuleError(f"psi index {i} out of range 0..{aus.n - 2}")
    gamma = aus.gamma
    r = aus.base
    obj = r.objects[0]
    unit_vec = r.element_to_coords(r.unit_vector(obj), obj, obj)
    elem = gamma.coords_to_element(aus.quotients[(i, i + 1)].project(unit_vec), i, i + 1)
    return ModuleMorphismElement(representable(aus, i + 1), representable(aus, i), 0, {(0, 0): elem})


def cone(f: ModuleMorphismElement) -> TwistedComplex:
    """Entries of the target followed by the source shifted one step; the
    morphism fills the connecting block.  Requires f of degree 0 and closed
    (ModuleError otherwise).  Closedness is certified by the cone's own
    Maurer-Cartan check: x and y satisfy Maurer-Cartan, so the cone's
    defect is its (t, s + y.size) blocks, which are +-mu1(f) at (t, s)."""
    if f.degree != 0:
        raise ModuleError(f"cone requires a degree-0 morphism, got degree {f.degree}")
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
    return TwistedComplex(x.cat, entries, conn)


# ---------------------------------------------------------------------------
# Hom-complexes


class HomComplexResult:
    """Hom-complex of two twisted complexes with its cohomology.

    The underlying graded space collects hom(o_t^target -> o_s^source) over
    all component slots, graded by total degree; the differential is mu1.
    Every degree's columns come from one kernel call for the whole complex
    (see the module docstring): a one-label chain per basis slot (t, s, lab)
    of each degree that has a next one, keyed by (degree, column), with the
    sums split by degree into sparse columns keyed by positions in the next
    degree.  The (t, s, lab) keys themselves are the labels of the
    :class:`FiniteComplex`.  Both complexes must live over one category
    (ModuleError otherwise).
    """

    def __init__(self, source: TwistedComplex, target: TwistedComplex):
        _check_same_category(source, target)
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
        # degree -> sparse columns {j: {i: scalar}}, for each degree with a next one
        diff: dict = {d: {} for d in self.basis_by_degree if d + 1 in self._pos}
        slots = (((d, j), t, s, [_slot_chain(source, target, t, s, lab, 1)])
                 for d in diff for j, (t, s, lab) in enumerate(self.basis_by_degree[d]))
        for (((d, j), t2, s2), lab2), c in _mu1_sums(source, target, slots, 1).items():
            i = self._pos[d + 1].get((t2, s2, lab2))
            if i is None:  # only a malformed table gets here; this raises
                _check_entry(source, target, d + 1, t2, s2, lab2)
            diff[d].setdefault(j, {})[i] = c
        self.complex = FiniteComplex(cat.field, self.basis_by_degree, diff)
        self.cohomology = complex_cohomology(self.complex)

    def dims(self) -> dict:
        return {d: len(keys) for d, keys in self.basis_by_degree.items()}

    def cohomology_dims(self) -> dict:
        return self.cohomology.dims()

    def morphism_from_coords(self, d: int, coords: dict) -> ModuleMorphismElement:
        """The degree-``d`` morphism with sparse coordinates ``coords``."""
        keys = self.basis_by_degree.get(d, ())
        comps: dict = {}
        for i, c in coords.items():
            if c != 0:
                t, s, lab = keys[i]
                comps.setdefault((t, s), {})[lab] = c
        return ModuleMorphismElement(self.source, self.target, d, comps)

    def coords_from_morphism(self, f: ModuleMorphismElement) -> dict:
        """Sparse coordinates of ``f`` in the basis of its degree."""
        pos = self._pos.get(f.degree, {})
        v = {pos[(t, s, lab)]: c for (t, s), elem in f.comps.items() for lab, c in elem.items() if c != 0}
        return {i: v[i] for i in sorted(v)}

    def class_of(self, f: ModuleMorphismElement) -> dict:
        return self.cohomology.class_coords(f.degree, self.coords_from_morphism(f))


def hom_complex(x: TwistedComplex, y: TwistedComplex) -> HomComplexResult:
    return HomComplexResult(x, y)


# ---------------------------------------------------------------------------
# the canonical right-action comparison for End(S_i)


def end_comparison(aus: AuslanderCategory, s_i: TwistedComplex, end: HomComplexResult,
                   rbar: HomComplexResult) -> dict:
    """Verify H^*(End(S_i)) is a copy of H^*(R/F^1) via the right action.

    ``end`` is ``hom_complex(s_i, s_i)`` and ``rbar`` is End(P_{n-1}), both
    built once by :func:`sod_report`.  End(P_{n-1}) is R/F^1 = Gamma(n-1,
    n-1) with the differential m_1, so its classes, its unit class and the
    classes of products (m_2 of Gamma(n-1, n-1) elements) are those of
    R/F^1.

    For each class rbar with representative r, the candidate endomorphism is
    the diagonal matrix of the classes of r (one slot per entry of S_i),
    corrected by a solvable term to make it closed: the solution is added to
    its coordinates.  The map r -> [f_r] is verified to be a
    degree-preserving linear isomorphism carrying the unit to the identity
    and satisfying the composition law

        mu2(f_r, f_s) ~ f_{m_2(s, r)}

    exactly.  Both sides are compared in class coordinates: [f_r] is
    computed once per class, and the right-hand side is the combination of
    those class vectors with the R/F^1 class coordinates of m_2(s, r).
    Composition applies its second argument first, so the canonical
    identification reverses products: it is an isomorphism onto the opposite
    algebra, hence an isomorphism outright whenever R/F^1 is commutative or
    has an anti-automorphism.
    """
    if end.source is not s_i or end.target is not s_i:
        raise ModuleError("end must be the Hom-complex End(S_i)")
    field = s_i.cat.field
    out = {"dims_match": end.cohomology_dims() == rbar.cohomology_dims(), "failures": []}
    if not out["dims_match"]:
        out["failures"].append(
            {"check": "dims",
             "end": {str(d): v for d, v in end.cohomology_dims().items()},
             "rbar": {str(d): v for d, v in rbar.cohomology_dims().items()}}
        )
        out["ok"] = False
        return out

    # (degree, index, representative as a Gamma(n-1, n-1) element) per class
    classes = [(d, k, {rbar.basis_by_degree[d][b][2]: c for b, c in rep.items()})
               for d, g in sorted(rbar.cohomology.groups.items()) for k, rep in enumerate(g.reps)]
    p = rbar.source  # P_{n-1}
    top = p.entries[0][0]
    reps = {}
    for d, k, elem in classes:
        f = ModuleMorphismElement(s_i, s_i, d, {(a, a): _lift_rbar_class(aus, top, elem, o)
                                                for a, (o, _) in enumerate(s_i.entries)})
        df = mu1(f)
        if not df.is_zero():
            target = {b: field.neg(c) for b, c in end.coords_from_morphism(df).items()}
            sol = _solve(field, end.complex.columns.get(d, {}), target,
                         len(end.complex.components.get(d, ())))
            if sol is not None:
                v = end.coords_from_morphism(f)
                field.add_scaled(v, sol)
                f = end.morphism_from_coords(d, v)
            if sol is None or not is_closed(f):
                out["failures"].append({"check": "closure", "class": [d, k]})
                continue
        reps[(d, k)] = f

    if len(reps) != len(classes):
        out["ok"] = False
        return out
    cls = {key: end.class_of(f) for key, f in reps.items()}

    def image(degree, coords):
        """The class of f_r for the R/F^1 class with coordinates ``coords``."""
        acc: dict = {}
        for k, c in coords.items():
            field.add_scaled(acc, cls[(degree, k)], c)
        return acc

    # linear isomorphism: the classes of the f_r span H^* degreewise
    by_degree: dict = {}
    for (d, k), v in cls.items():
        by_degree.setdefault(d, []).append(v)
    for d, vecs in by_degree.items():
        g = end.cohomology.group(d)
        want = g.dim if g is not None else 0
        if len(_Echelon(field, vecs).rows) != len(vecs) or len(vecs) != want:
            out["failures"].append({"check": "linear_iso", "degree": d})

    # unit goes to the identity
    if image(0, rbar.class_of(identity_morphism(p))) != end.class_of(identity_morphism(s_i)):
        out["failures"].append({"check": "unit"})

    # composition law (product reversed by the right action)
    for (da, ka, ea) in classes:
        for (db, kb, eb) in classes:
            left = end.class_of(mu2(reps[(da, ka)], reps[(db, kb)]))
            product = ModuleMorphismElement(p, p, da + db, {(0, 0): aus.gamma.apply(2, [eb, ea])})
            if left != image(da + db, rbar.class_of(product)):
                out["failures"].append(
                    {"check": "composition", "classes": [[da, ka], [db, kb]]}
                )

    out["ok"] = not out["failures"]
    return out


def _lift_rbar_class(aus: AuslanderCategory, top, elem: dict, gamma_obj) -> dict:
    """Class in hom(o -> o) of a representative of an element of R/F^1 =
    Gamma(top, top).  The representative lies in R = F^0, the numerator of
    Gamma(o, o), so it is projected without a residue check."""
    cat = aus.gamma
    ambient = aus.quotients[(top, top)].lift(cat.element_to_coords(elem, top, top))
    cls = aus.quotients[(gamma_obj, gamma_obj)].project(ambient)
    return cat.coords_to_element(cls, gamma_obj, gamma_obj)


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

    S_i is the cone of psi_i for i < n - 1, and S_{n-1} is P_{n-1} itself:
    the cone of 0 -> P_{n-1} has P_{n-1}'s one entry and no connection.

    R/F^1 is Gamma(n-1, n-1) = F^0/F^1 (the build has presented it, and the
    filtration check has proved F^1 an ideal), and End(P_{n-1}) is R/F^1
    with the differential m_1.  So sod reads H^*(R/F^1), its classes and
    their products off End(P_{n-1}), built once: it is also the P/S and the
    S/S diagonal cell (n-1, n-1), since S_{n-1} = P_{n-1}.

    Hom(P_j, S_i) and, for j <= i, Hom(S_j, S_i) are computed.  For j > i,
    S_{n-1} = P_{n-1}, and Hom(S_j, S_i) extends Hom(P_j, S_i) by Hom(P_{j+1},
    S_i)[-1] (mu1 never lowers the source slot): zero if both are, else built.
    That is n^2 + n(n+1)/2 - 1 Hom-complexes when every premise holds.
    """
    n = aus.n
    ps = [representable(aus, i) for i in range(n)]
    ss = [cone(psi(aus, i)) for i in range(n - 1)] + [ps[n - 1]]
    rbar = hom_complex(ps[n - 1], ps[n - 1])
    rbar_dims = rbar.cohomology_dims()

    def hom(j, i, src):  # Hom(src[j], S_i), End(P_{n-1}) once
        return rbar if i == j == n - 1 else hom_complex(src[j], ss[i])

    failures = []
    ps_table = [[hom(j, i, ps).cohomology_dims() for j in range(n)] for i in range(n)]
    ss_table = [[] for _ in range(n)]
    end_results = []
    for i in range(n):
        for j in range(n):
            if j == n - 1 > i:
                ss_table[i].append(ps_table[i][j])
                continue
            if j > i and not ps_table[i][j] and not ps_table[i][j + 1]:
                ss_table[i].append({})
                continue
            h = hom(j, i, ss)
            ss_table[i].append(h.cohomology_dims())
            if j == i:  # End(S_i), compared while it is the one alive
                res = end_comparison(aus, ss[i], h, rbar)
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

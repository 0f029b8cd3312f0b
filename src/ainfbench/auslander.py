"""The quotient A-infinity category of a filtered algebra on objects 0..n-1.

Given a filtered algebra (R, F) with F^n = 0, the category Gamma has objects
the integers 0..n-1 and hom(j -> i) = F^{max(j-i,0)} / F^{n-i}, with all
products induced on the quotients by m_p of R through chosen coset
representatives.  Induced products are independent of the representatives,
and the proof has two halves.  Perturbing argument k of m_p by an element of
its denominator F^{n-i_k} changes the product by an element of
F^{(n-i_k) + sum_{u != k} max(i_{u+1}-i_u, 0)} because F is compatible with
the products, which the build proves first on the filtration's flag basis
(``filtration._Flag``, shared with ``check_filtration``: one proof per
``Filtration``), and that level lies inside the output denominator
F^{n-i_1} by the denominator inequality below.  The same two facts make
every product of representatives strict: it lies in its numerator
F^{max(i_{p+1}-i_1, 0)} by compatibility and the telescoping inequality.

Both index inequalities hold for every n, p and chain (i_1, ..., i_{p+1}),
so the build checks neither.  Write d_u = max(i_{u+1} - i_u, 0).
Telescoping, max(i_{p+1} - i_1, 0) <= sum_u d_u: i_{p+1} - i_1 is the sum
of the steps i_{u+1} - i_u, and max(., 0) is subadditive, max(a + b, 0) <=
max(a, 0) + max(b, 0).  Denominator, (n - i_k) + sum_{u != k} d_u >=
n - i_1 for each slot k: sum_{u != k} d_u >= sum_{u < k} d_u >= i_k - i_1,
as every d_u >= 0 and by the telescoping inequality of (i_1, ..., i_k).
A constant chain has slack 0 in both, so neither has room to spare.

The same facts certify Gamma's relations.  Lambda(j, i) = F^{max(j-i,0)} is
closed under every m_p of R (compatibility and the telescoping inequality),
I(j, i) = F^{n-i} is an ideal of Lambda (the denominator inequality), and
Gamma = Lambda / I with the induced products, so Gamma's Stasheff defect on
a tuple is the class of R's defect on lifts, which is 0 when R satisfies
its relations.  ``gamma build`` rests its verdict on this quotient argument
and does not sweep Gamma's relations; ``validate`` and ``stasheff`` sweep
the written file directly.

The build makes every check eagerly (compatibility and F^0 = R) and
evaluates no product: Gamma's tables are evaluated on demand (``_Induced``).
``sod`` pays only for the entries its Hom-complexes read, while iteration,
``len`` and ``==`` materialize a whole table, so ``gamma build``,
``validate``, serialization and equality see every entry.  The levels are
deduplicated once, by Subspace equality, so the pairs (j, i) with equal
numerator and denominator levels share one presentation.

Three facts of the build need no check.  The hom dims are right, as
``quotient_space`` refuses a presentation with dim != dim numerator - dim
denominator.  The labels of one hom space are distinct: the
representatives are echelon rows with distinct pivots, and a label is built
from its representative's pivot.  The unit of object i is a representative:
when the denominator F^{n-i} is not 0 it is the preferred one, and
otherwise Gamma(i, i) = F^0 / 0 = R / 0, whose representatives are R's
reduced echelon rows, the identity once F^0 = R, so the unit projects to
one basis vector of the quotient, with coefficient 1.

hom dims satisfy dim Gamma(j,i) = dim F^{max(j-i,0)} - dim F^{n-i}.  With
F^0 = R, which the build requires, and F^n = 0, Gamma(0,0) = F^0 / F^n is R
itself on the nose, with R's products; R's tables are non-empty (the
category constructor drops empty ones), so Gamma's arities are R's, each
with a non-empty table.
"""

from __future__ import annotations

import itertools
import weakref
from collections.abc import Mapping

from .ainf import AInfCategory, _ProductTable
from .filtration import Filtration
from .linalg import GradedSpace, quotient_space


class AuslanderError(ValueError):
    pass


class AuslanderCategory:
    """Filtered algebra together with its quotient category on 0..n-1."""

    def __init__(self, base: AInfCategory, filt: Filtration, gamma: AInfCategory, quotients: dict):
        self.base = base
        self.filtration = filt
        self.gamma = gamma
        self.quotients = quotients  # (j, i) -> QuotientPresentation

    @property
    def n(self) -> int:
        return self.filtration.n

    def hom_dims(self):
        n = self.n
        return tuple(
            tuple(self.gamma.hom[(j, i)].dim for j in range(n)) for i in range(n)
        )


def _gamma_label(j, i, lead):
    return f"g{j}>{i}:{lead}"


def build_auslander(r: AInfCategory, filt: Filtration) -> AuslanderCategory:
    """Construct Gamma, checking that the filtration is compatible with the
    products (its flag proof, built once per ``Filtration``) and that F^0 =
    R; its tables, one per arity of R, are evaluated on demand.  The hom
    dims, the labels and the unit classes need no check (module docstring).

    The index inequalities are not checked, as they hold for every chain of
    objects (module docstring).  With d_u = max(i_{u+1} - i_u, 0): the
    telescoping one, max(i_{p+1} - i_1, 0) <= sum_u d_u, because max(., 0)
    is subadditive; the denominator one, sum_{u != k} d_u >= i_k - i_1,
    because sum_{u != k} d_u >= sum_{u < k} d_u >= i_k - i_1."""
    obj = r.objects[0]
    space = r.hom[(obj, obj)]
    n = filt.n
    if n < 1:
        raise AuslanderError("filtration must have n >= 1")
    flag = filt._flag(r)
    if not flag.compatible:
        raise AuslanderError("the levels do not decrease" if not flag.decreasing
                             else f"F^{n} is not 0" if filt.levels[n].dim
                             else "the filtration is not compatible with the products")
    if len(flag.echelon.rows) != space.dim:  # the flag's rows span F^0
        raise AuslanderError("F^0 is not R")

    unit_vec = r.element_to_coords(r.unit_vector(obj), obj, obj)

    # levels are deduplicated once, by Subspace equality: pair (j, i) is keyed
    # by the first index of its numerator and denominator levels
    levels = [filt.level(k) for k in range(n + 1)]
    first = [levels.index(lv) for lv in levels]
    quotients = {}
    shared = {}  # (numerator index, denominator index, unit preferred) -> presentation
    hom = {}
    labels_by_pair = {}
    unit_labels = {}
    for i in range(n):
        for j in range(n):
            num = first[max(j - i, 0)]
            den = first[n - i]
            prefer_unit = i == j and levels[den].dim > 0
            q = shared.get((num, den, prefer_unit))
            if q is None:
                q = shared[(num, den, prefer_unit)] = quotient_space(
                    levels[num], levels[den], preferred=[unit_vec] if prefer_unit else []
                )
            quotients[(j, i)] = q
            labels = [_gamma_label(j, i, space.labels[min(rep)]) for rep in q.reps]
            labels_by_pair[(j, i)] = labels
            hom[(j, i)] = GradedSpace(tuple(labels), tuple(q.degrees))
            if i == j:
                unit_labels[i] = labels[0] if prefer_unit else labels[min(q.project(unit_vec))]

    induced = _Induced(r, space, n, quotients, labels_by_pair)
    mult = {p: _Table(induced, p) for p in sorted(r.mult)}
    gamma = AInfCategory._trusted(r.field, tuple(range(n)), hom, unit_labels, mult)
    induced.gamma = weakref.ref(gamma)
    return AuslanderCategory(r, filt, gamma, quotients)


class _Induced:
    """The tables m_p of Gamma, induced by those of R through the coset
    representatives, each a ``_Table`` evaluated on demand.  Gamma has R's
    arities: Gamma(0,0) = F^0 / F^n is R (see the module docstring), so no
    product is evaluated to find its nonzero tables.

    The representatives are interned once per presentation in one product
    table of Gamma's own, so each product of representatives is evaluated
    once; it is projected once per (presentation, ids), to coordinates only,
    as the build has proved it strict (see the module docstring).
    Entries are memoized per key, by ``_Table``.  Gamma is held by a weak
    reference, so that no reference cycle keeps it or the memos alive until
    the cycle collector runs.
    """

    def __init__(self, r: AInfCategory, space, n: int, quotients: dict, labels_by_pair: dict):
        self.n = n
        self.quotients, self.labels_by_pair = quotients, labels_by_pair
        self.products = _ProductTable(r, space)
        ids = {q: self.products.intern(q.reps) for q in dict.fromkeys(quotients.values())}
        self.rep_ids = {pr: ids[q] for pr, q in quotients.items()}
        self.where = {lab: (pr, k) for pr, labels in labels_by_pair.items() for k, lab in enumerate(labels)}
        self.projected: dict = {}  # presentation -> {ids: quotient coordinates}
        self.gamma = None  # a weak reference to Gamma, set by the build

    def _entry(self, out_pair, ids):
        """The Gamma output vector of the product of the representatives
        ``ids`` in ``out_pair``, or None when it is zero, as most products
        are (in R, or in the quotient)."""
        prod = self.products.product(ids)
        if not prod:
            return None
        q = self.quotients[out_pair]
        projected = self.projected.setdefault(q, {})
        coords = projected.get(ids)
        if coords is None:
            coords = projected[ids] = q.project(prod)
        if not coords:
            return None
        labels = self.labels_by_pair[out_pair]
        return {labels[k]: c for k, c in coords.items()}

    def entry(self, p: int, key):
        """The entry of m_p at ``key``, or None when it has none: a zero
        product, or a key that is not a composable p-tuple of Gamma labels."""
        where = self.where
        if len(key) != p or not all(lab in where for lab in key):
            return None
        located = [where[lab] for lab in key]
        if any(a[0][0] != b[0][1] for a, b in zip(located, located[1:])):
            return None
        out_pair = (located[-1][0][0], located[0][0][1])
        return self._entry(out_pair, tuple(self.rep_ids[pr][k] for pr, k in located))

    def materialize(self, p: int) -> dict:
        """Table p in full, by two ``itertools.product`` over the ids and over
        the labels of a chain's pairs in lockstep."""
        table, rep_ids, labels_by_pair = {}, self.rep_ids, self.labels_by_pair
        for chain in itertools.product(range(self.n), repeat=p + 1):
            # chain = (i_1, ..., i_{p+1}); argument u lives in hom(i_{u+1} -> i_u)
            pairs = [(chain[u + 1], chain[u]) for u in range(p)]
            out_pair = (chain[p], chain[0])
            for ids, key in zip(itertools.product(*[rep_ids[pr] for pr in pairs]),
                                itertools.product(*[labels_by_pair[pr] for pr in pairs])):
                entry = self._entry(out_pair, ids)
                if entry:
                    table[key] = entry
        return table

    def release(self) -> None:
        """Once every table of Gamma is materialized, put the plain dicts
        into its ``mult`` and drop the memos."""
        gamma = self.gamma()
        if gamma is not None and all(t._table is not None for t in gamma.mult.values()):
            for p, t in gamma.mult.items():
                gamma.mult[p], t._induced, t._memo = t._table, None, None


class _Table(Mapping):
    """One table m_p of Gamma: ``get`` evaluates the entry at one key,
    memoized per key, hits and misses alike; iteration, ``len`` and ``==``
    materialize the whole table, in the key order of the eager loop."""

    def __init__(self, induced: _Induced, p: int):
        self._induced, self._p = induced, p
        self._table = None  # the whole table, once materialized
        self._memo: dict = {}  # key -> entry, None for no entry

    def get(self, key, default=None):
        if self._table is not None:
            return self._table.get(key, default)
        try:
            entry = self._memo[key]
        except KeyError:
            entry = self._memo[key] = self._induced.entry(self._p, key)
        return default if entry is None else entry

    def __getitem__(self, key):
        entry = self.get(key)
        if entry is None:
            raise KeyError(key)
        return entry

    def _whole(self) -> dict:
        if self._table is None:
            induced = self._induced
            self._table = induced.materialize(self._p)
            induced.release()
        return self._table

    def __iter__(self):
        return iter(self._whole())

    def __len__(self):
        return len(self._whole())

    def items(self):
        return self._whole().items()

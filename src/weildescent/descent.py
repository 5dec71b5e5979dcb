"""The constructive descent pipeline.

Given a variety X over L and a descent datum {f_sigma}, produce a birational
map R onto a model Y whose ideal is generated over the fixed field, together
with verification certificates.  Includes the morphism and automorphism
variants and the uniqueness comparator.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Optional

from .errors import (
    CocycleViolation,
    InputError,
    MissingInverse,
    MorphismIncompatible,
    ConjugationNotClosed,
    NotIntoConjugate,
    NotKRational,
    VerificationError,
    ZeroDenominator,
)
from .groebner import (
    Ideal,
    MonomialOrder,
    _denominator_product,
    _fresh_name,
    _generated_by,
    _graph_basis,
    _reduced_denominator,
    _run,
    _second_block,
    normal_form,
    saturate,
)
from .invariants import BlockPermutationAction, generate_invariants
from .multipoly import (
    MultiPoly,
    PolyRing,
    RationalMap,
    compose_map,
    identity_map,
    _index_map,
    _is_one,
    _PowerTable,
)
from .numberfield import GaloisGroup

__all__ = [
    "AffineVariety",
    "DescentDatum",
    "DescentResult",
    "DatumReport",
    "verify_datum",
    "disjointify",
    "build_phi",
    "descend",
    "recover_inverse",
    "descend_morphism",
    "transport_automorphisms",
    "compare_models",
    "maps_equal_mod_ideal",
    "check_claimed_model",
]


class AffineVariety:
    """V(generators) in affine space over L; inconsistent systems are rejected."""

    __slots__ = ("ring", "generators", "ideal")

    def __init__(self, ring: PolyRing, generators):
        self.ring = ring
        self.ideal = Ideal(ring, generators)
        self.generators = self.ideal.generators
        if self.ideal.is_unit():
            raise InputError("the given equations have no common zero (unit ideal)")

    def __repr__(self):
        return f"AffineVariety<{', '.join(str(g) for g in self.generators)}>"


class DescentDatum:
    """A family of maps f_sigma: X -> X^sigma indexed by the Galois group.

    The identity's map is the identity: it is filled in when missing, and any
    other map given for it is an InputError.  With f_e = id, every check made
    sigma by sigma holds for e term for term, so the checks visit only
    group.nontrivial.
    """

    __slots__ = ("variety", "group", "maps")

    def __init__(self, variety: AffineVariety, group: GaloisGroup, maps):
        if isinstance(maps, dict):
            if not set(maps) <= set(range(group.order)):
                raise InputError(f"datum keys must be group indices below {group.order}")
            lst = [maps.get(i) for i in range(group.order)]
        else:
            lst = list(maps)
            if len(lst) != group.order:
                raise InputError("need one map per group element")
        ident = identity_map(variety.ring)
        e = group.identity_index
        if lst[e] is None:
            lst[e] = ident
        if any(f is None for f in lst):
            raise InputError("descent datum misses a group element")
        for f in lst:
            if f.ring != variety.ring:
                raise InputError("datum maps must be defined on the variety's ring")
            if f.target_arity != variety.ring.nvars:
                raise InputError("datum maps must land in the same affine space")
        for v, given, own in zip(variety.ring.variables, lst[e].components,
                                 ident.components):
            if given != own:
                raise InputError(f"the identity's datum map must send {v} to itself")
        self.variety = variety
        self.group = group
        self.maps = tuple(lst)


@dataclass
class DatumReport:
    checks: list = dc_field(default_factory=list)  # (label, ok, witness string)

    @property
    def ok(self):
        return all(ok for _, ok, _ in self.checks)

    def add(self, label, ok, witness=None):
        self.checks.append((label, ok, witness))


@dataclass
class DescentResult:
    group: GaloisGroup
    datum: DescentDatum
    y_ring: PolyRing
    y_generators: tuple
    y_ideal: Ideal
    map: RationalMap
    inverse: Optional[RationalMap]
    certificates: dict
    invariant_count: int
    pruned: tuple = ()


# -- map equality on a variety ---------------------------------------------------


def _equality_basis(ideal: Ideal, maps):
    """Groebner basis of the ideal, which its saturation by the product of the
    maps' denominators must equal.

    They are equal exactly when the product lies in no associated prime of
    the ideal, embedded ones included, so that every map is defined on a
    dense open subset of every component (Cox, Little & O'Shea, Ideals,
    Varieties, and Algorithms, Ch. 4 Sec. 4).  Otherwise ZeroDenominator.
    """
    gb = ideal.groebner_basis()
    prod = _denominator_product(maps)
    if prod is not None and saturate(ideal, prod).groebner_basis().divisors != gb.divisors:
        raise ZeroDenominator(
            "a map denominator vanishes on a component of the variety")
    return gb


def _first_mismatch(f: RationalMap, g: RationalMap, ideal: Ideal):
    """(index, nonzero normal form) of the first component where f and g differ
    on V(ideal), or None when they agree.  Both maps have the same arity.

    Denominators lying in the ideal raise ZeroDenominator.
    """
    gb = _equality_basis(ideal, [f, g])
    for k, ((nf_, df_), (ng_, dg_)) in enumerate(zip(f.components, g.components)):
        for den in (df_, dg_):
            _reduced_denominator(den, gb, "map denominator vanishes on the variety")
        if df_ == 1 and dg_ == 1:
            diff = nf_ - ng_
        else:
            diff = nf_ * dg_ - ng_ * df_
        rem = normal_form(diff, gb)
        if not rem.is_zero():
            return k, rem
    return None


def maps_equal_mod_ideal(f: RationalMap, g: RationalMap, ideal: Ideal, budget=None):
    """Equality as maps on V(ideal): cross-multiplied differences reduce to 0.

    Returns (equal, witness) where the witness is the first nonzero normal
    form.  Denominators lying in the ideal raise ZeroDenominator.
    """
    if f.target_arity != g.target_arity:
        return False, None
    with _run(budget):
        mismatch = _first_mismatch(f, g, ideal)
    if mismatch is None:
        return True, None
    return False, mismatch[1]


def _relation(R: RationalMap, d: DescentDatum, s):
    """R = R^sigma o f_sigma on X for the datum d: (equal, witness)."""
    rhs = compose_map(R.sigma(d.group, s), d.maps[s])
    return maps_equal_mod_ideal(R, rhs, d.variety.ideal)


def _sigma_fixed(L: RationalMap, group, ideal: Ideal):
    """L^sigma = L on V(ideal) for every sigma: (True, None), or (False, witness)."""
    for s in group.nontrivial:
        equal, witness = maps_equal_mod_ideal(L.sigma(group, s), L, ideal)
        if not equal:
            return False, witness
    return True, None


def _composed_normal_forms(gens, F: RationalMap, gb):
    """Normal forms modulo gb of the numerators of P(F), one per P in gens.

    Zero means P o F vanishes on V(gb) when gb is saturated by F's
    denominators.  Lazy, so a caller can stop at the first failure.
    """
    table = _PowerTable(F.ring, F.components)
    for P in gens:
        yield normal_form(table.poly(table.substitute(P)[0]), gb)


def _reduce_map(F: RationalMap, gb) -> RationalMap:
    """Normal-form every component; equal to F as a map on the variety."""
    return RationalMap(F.ring, [
        (normal_form(num, gb),
         _reduced_denominator(den, gb, "map denominator vanishes on the variety"))
        for num, den in F.components
    ])


# -- datum verification ------------------------------------------------------------


def verify_datum(d: DescentDatum, budget=None, strict=True) -> DatumReport:
    """Check f_sigma maps X into X^sigma and the cocycle identity for all pairs.

    f_e is the identity (see DescentDatum), so both checks visit only the
    non-identity elements.
    """
    with _run(budget):
        report = DatumReport()
        group = d.group
        X = d.variety
        gb = _equality_basis(X.ideal, d.maps)

        for s in group.nontrivial:
            f = d.maps[s]
            for den in f.denominators():
                _reduced_denominator(
                    den, gb, f"denominator of the map for sigma_{s} vanishes on X"
                )
            conjugates = [P.sigma(group, s) for P in X.generators]
            for gi, rem in enumerate(_composed_normal_forms(conjugates, f, gb)):
                ok = rem.is_zero()
                report.add(f"into-conjugate sigma_{s} generator_{gi}", ok,
                           None if ok else str(rem))
                if not ok and strict:
                    raise NotIntoConjugate(s, gi, rem)

        for s1 in group.nontrivial:
            for s2 in group.nontrivial:
                lhs = d.maps[group.compose(s1, s2)]
                rhs = compose_map(d.maps[s2].sigma(group, s1), d.maps[s1])
                mismatch = _first_mismatch(lhs, rhs, X.ideal)
                report.add(f"cocycle ({s1}, {s2})", mismatch is None,
                           None if mismatch is None else str(mismatch[1]))
                if mismatch is not None and strict:
                    raise CocycleViolation(s1, s2, *mismatch)
        return report


# -- disjointification ---------------------------------------------------------------


def _conjugates_disjoint(X: AffineVariety, group) -> bool:
    """Whether the conjugates of X are pairwise disjoint.

    The sum of sigma_i X and sigma_j X is sigma_i applied to X plus
    sigma_i^-1 sigma_j X, and sigma_i keeps the unit ideal, so it is enough
    that X + sigma X is the unit ideal for each sigma but the identity.
    """
    gens = list(X.generators)
    return all(
        Ideal(X.ring, gens + list(X.ideal.sigma(group, s).generators)).is_unit()
        for s in group.nontrivial
    )


def disjointify(d: DescentDatum, budget=None) -> DescentDatum:
    """Augment the model so conjugate varieties are pairwise disjoint.

    Exactly when some pair of conjugates already meets, adds one coordinate,
    last in the ring and pinned to alpha by the equation x - alpha.  Its datum
    component is sigma(alpha) for each sigma other than the identity, whose
    map stays the identity: x itself, equal to alpha on the new model.  The
    group's images of alpha are pairwise distinct, so the conjugates of the
    augmented model are too.
    Returns the input unchanged otherwise.
    """
    with _run(budget):
        group = d.group
        X = d.variety
        if _conjugates_disjoint(X, group):
            return d

        ring = X.ring
        pinned = _fresh_name(f"x{ring.nvars + 1}", ring.variables)
        big = PolyRing(ring.field, ring.variables + (pinned,), ring.order)
        alpha = ring.field.gen
        gens = [g.transplant(big) for g in X.generators]
        gens.append(big.var(pinned) - big.constant(alpha))
        Xhat = AffineVariety(big, gens)

        new_maps = {}
        for s in group.nontrivial:
            comps = [(num.transplant(big), den.transplant(big))
                     for num, den in d.maps[s].components]
            comps.append((big.constant(group.apply(s, alpha)), big.one))
            new_maps[s] = RationalMap(big, comps, normalize=False)
        return DescentDatum(Xhat, group, new_maps)


# -- the first isomorphism ------------------------------------------------------------


def _phi_action(d: DescentDatum) -> BlockPermutationAction:
    ring = d.variety.ring
    return BlockPermutationAction(
        d.group, ring.nvars, var_names=ring.variables, field=ring.field
    )


def _phi_map(d: DescentDatum) -> RationalMap:
    """Phi: x -> (f_sigma(x))_sigma."""
    comps = []
    for s in d.group:
        comps.extend(d.maps[s].components)
    return RationalMap(d.variety.ring, comps, normalize=False)


def build_phi(d: DescentDatum, budget=None):
    """Phi: x -> (f_sigma(x))_sigma, and the ideal of Phi(X) in the block ring."""
    with _run(budget):
        group = d.group
        X = d.variety
        action = _phi_action(d)
        big = action.ring
        n = X.ring.nvars
        phi = _phi_map(d)

        # Identity block variables carry the X names, so transplanting by name
        # lands polynomials on the e-block.
        gens = []
        for s in group:
            var_map = {i: action.variable_index(s, i) for i in range(n)}
            for P in X.generators:
                gens.append(P.sigma(group, s).transplant(big, var_map))
        for s in group.nontrivial:
            f = d.maps[s]
            for j, (num, den) in enumerate(f.components):
                y = big.var(action.variable_index(s, j))
                gens.append(y * den.transplant(big) - num.transplant(big))
        ideal = Ideal(big, gens)
        prod = _denominator_product([phi])
        if prod is not None:
            ideal = saturate(ideal, prod.transplant(big))
        return phi, ideal


# -- the pipeline -----------------------------------------------------------------------


def _trace_descend_generators(ideal: Ideal):
    """The ideal on generators over the fixed field, for a sigma-stable ideal.

    An ideal whose generators are all rational is returned itself.  Otherwise
    its reduced grevlex basis, which _sigma_stable has found fixed term by
    term, and so rational, generates it; the new ideal keeps every basis
    already cached on the old one.
    """
    if all(F.has_rational_coefficients() for F in ideal.generators):
        return ideal
    gb = ideal.groebner_basis(order=MonomialOrder("grevlex"))
    descended = Ideal(ideal.ring, [g.transplant(ideal.ring) for g in gb.elements])
    descended._gb_cache.update(ideal._gb_cache)
    return descended


def _sigma_stable(ideal: Ideal, group) -> bool:
    """Whether sigma(I) = I for every sigma, from one reduced basis of I.

    sigma acts on coefficients only, so it maps the reduced grevlex basis G
    of I onto the reduced basis of sigma(I) with the same monic leading
    terms in the same places: sigma(I) = I exactly when sigma(G) = G term
    by term.
    """
    gb = ideal.groebner_basis(order=MonomialOrder("grevlex"))
    return all(
        g.sigma(group, s).terms == g.terms
        for s in group.nontrivial for g in gb.elements
    )


def _certify_y(y_ideal: Ideal, group, certificates):
    """Certify Y sigma-stable, then read its generators over the fixed field.

    Records y_sigma_stable and y_rational_generators in `certificates` and
    returns Y on those generators; a failed certificate raises.
    """
    certificates["y_sigma_stable"] = _sigma_stable(y_ideal, group)
    if not certificates["y_sigma_stable"]:
        raise VerificationError("Y is not stable under the group action")
    y_ideal = _trace_descend_generators(y_ideal)
    certificates["y_rational_generators"] = all(
        g.has_rational_coefficients() for g in y_ideal.generators
    )
    if not certificates["y_rational_generators"]:
        raise VerificationError("Y has no generators over the fixed field")
    return y_ideal


def _x_stable_and_trivial(d: DescentDatum) -> bool:
    """Whether X is fixed by every sigma and every f_sigma is the identity on X."""
    X = d.variety
    ident = identity_map(X.ring)
    return _sigma_stable(X.ideal, d.group) and all(
        maps_equal_mod_ideal(d.maps[s], ident, X.ideal)[0]
        for s in d.group.nontrivial
    )


def descend(
    d: DescentDatum,
    budget=None,
    prune=False,
    want_inverse=True,
) -> DescentResult:
    """Run the full pipeline; every certificate is verified, never assumed.

    The budget caps the reduction steps of the whole run.
    """
    with _run(budget):
        group = d.group
        X = d.variety
        datum_checks = verify_datum(d, strict=True).checks
        certificates = {
            name: all(ok for label, ok, _ in datum_checks if label.startswith(kind))
            for name, kind in (("datum_cocycle", "cocycle"),
                               ("datum_into_conjugate", "into-conjugate"))
        }

        graph, pruned, chart, dropped = None, (), None, ()
        stable = _x_stable_and_trivial(d)
        if stable:
            # X is fixed by every sigma and the datum is trivial: X is already a
            # model over the fixed field, with R the identity.  No Phi is built,
            # so no disjointness is certified.
            R, y_ideal, invariant_count = identity_map(X.ring), X.ideal, X.ring.nvars
            if prune:
                y_lex = _reverse_lex(X.ideal)
        else:
            dd = disjointify(d)

            # Certify disjointness of the working model's conjugates: disjointify
            # returns its input only after finding every pair disjoint.
            disjoint = dd is d or _conjugates_disjoint(dd.variety, group)
            certificates["disjoint_conjugates"] = disjoint
            if not disjoint:
                raise VerificationError("conjugate models are not pairwise disjoint")

            action = _phi_action(dd)
            phi = _phi_map(dd)
            invars = generate_invariants(action)
            invariant_count = len(invars)

            # Certify the invariance and rationality of the generators (exact).
            certificates["psi_theta_invariant"] = all(
                action.is_invariant(E) for E in invars
            )
            certificates["psi_rational"] = all(
                E.has_rational_coefficients() for E in invars
            )
            if not (certificates["psi_theta_invariant"] and certificates["psi_rational"]):
                raise VerificationError("invariant generators failed their certificates")

            taken = set(X.ring.variables)
            tnames = tuple(_fresh_name(f"t{k + 1}", taken) for k in range(len(invars)))
            psi = RationalMap(action.ring, [(E, action.ring.one) for E in invars],
                              normalize=False)
            R = compose_map(psi, phi)
            R = _reduce_map(R, dd.variety.ideal.groebner_basis())
            if dd is not d:
                R = _restrict_to_original(d, R)

            # Y is the image of R, eliminated from the graph basis; _reduce_map
            # has already rejected a denominator vanishing on X.  Unpruned, the
            # block-order graph basis gives Y in grevlex and R^-1 below.
            # Pruning starts from Y's reduced lex basis over the coordinates in
            # reverse: from the affine chart of X among them when R has one,
            # which also gives R^-1 below, and otherwise off the lex graph
            # basis over them, where lex eliminates the source variables too.
            if prune:
                y_ideal = None
                degree1 = sum(E.total_degree() == 1 for E in invars)
                found = _affine_chart(R, X.ideal, tnames, degree1)
                if found is not None:
                    y_lex, dropped, chart = found
                else:
                    reverse = RationalMap(R.ring, R.components[::-1], normalize=False)
                    y_lex = _second_block(*_graph_basis(
                        reverse, X.ideal, tnames[::-1], MonomialOrder("lex")))
            else:
                graph = _graph_basis(R, X.ideal, tnames)
                y_ideal = _second_block(*graph)

        # Pruning reads only reduced bases, which depend on the ideal alone,
        # so Y is certified once, on its final coordinates.
        if prune:
            y_ideal, R, pruned, dropped_by = _prune_coordinates(
                y_lex, R, y_ideal, dropped)
        y_ideal = _certify_y(y_ideal, group, certificates)

        relation, witness = True, None
        for s in group.nontrivial:
            relation, witness = _relation(R, d, s)
            if not relation:
                break
        certificates["descent_relation"] = relation
        if not relation:
            raise VerificationError("R != R^sigma o f_sigma on X", witness)

        inverse = None
        if want_inverse:
            if graph is not None:
                inverse = _inverse_from_graph(*graph, X.ring.nvars, y_ideal)
            elif chart is not None:
                inverse = _chart_inverse(chart, dropped_by, y_ideal)
            elif stable and not pruned:
                inverse = R
            else:
                inverse = recover_inverse(R, X.ideal, y_ideal)
        if inverse is not None:
            checks = _verify_inverse(R, inverse, X.ideal, y_ideal)
            if not all(ok for ok, _ in checks):
                inverse = None
        certificates["inverse_recovered"] = inverse is not None

        return DescentResult(
            group=group,
            datum=d,
            y_ring=y_ideal.ring,
            y_generators=y_ideal.generators,
            y_ideal=y_ideal,
            map=R,
            inverse=inverse,
            certificates=certificates,
            invariant_count=invariant_count,
            pruned=pruned,
        )


def _restrict_to_original(d: DescentDatum, R: RationalMap) -> RationalMap:
    """R, reduced modulo the disjointified model, carried onto X's ring.

    The pinned coordinate is the last variable, so the reduced basis holds
    x - alpha with lead x in either order, and the reduced components are
    already free of it.
    """
    ring = d.variety.ring
    back = _index_map(R.ring, ring)
    comps = [(num.transplant(ring, back), den.transplant(ring, back))
             for num, den in R.components]
    return RationalMap(ring, comps, normalize=False)


def _verify_inverse(R, Rinv, x_ideal, y_ideal):
    """Rinv o R = id on X, then R o Rinv = id on Y: one (ok, witness) per direction.

    A denominator that vanishes fails its own direction, with the
    ZeroDenominator as the witness.
    """
    checks = []
    for outer, inner, ideal in ((Rinv, R, x_ideal), (R, Rinv, y_ideal)):
        try:
            checks.append(maps_equal_mod_ideal(
                compose_map(outer, inner), identity_map(ideal.ring), ideal
            ))
        except ZeroDenominator as exc:
            checks.append((False, exc))
    return checks


def recover_inverse(R: RationalMap, I_X: Ideal, I_Y: Ideal, budget=None):
    """Search the graph ideal for coordinate functions linear in each source variable.

    Soft outcome: returns None when no usable elements appear.
    """
    # The basis is read by position, so Y's coordinates may share X's names,
    # as on the stable path: the graph ring names them apart.
    targets = tuple(_fresh_name(f"t{k + 1}", I_X.ring.variables)
                    for k in range(I_Y.ring.nvars))
    with _run(budget):
        gb, split = _graph_basis(R, I_X, targets)
        return _inverse_from_graph(gb, split, I_X.ring.nvars, I_Y)


def _inverse_from_graph(gb, split, n, I_Y: Ideal):
    """R^-1 read off the graph basis of R (n source variables first), or None."""
    y_gb = I_Y.groebner_basis()
    target = I_Y.ring
    found = {}
    for g in gb.elements:
        use = [i for i in range(split) if g.uses_variable(i)]
        if len(use) != 1 or use[0] >= n:
            continue
        i = use[0]
        if i in found or g.degree_in(i) != 1:
            continue
        # g = c(t) * x_i + b(t)
        c_terms, b_terms = {}, {}
        for m, coeff in g.terms.items():
            (c_terms if m[i] == 1 else b_terms)[m[split:]] = coeff
        c, b = MultiPoly(target, c_terms), MultiPoly(target, b_terms)
        if normal_form(c, y_gb).is_zero():
            continue
        found[i] = (-b, c)
    if len(found) < n:
        return None
    return RationalMap(target, [found[i] for i in range(n)])


# -- optional coordinate pruning --------------------------------------------------------


def _reverse_lex(ideal: Ideal) -> Ideal:
    """The ideal in the lex ring over its variables in reverse order."""
    ring = PolyRing(ideal.ring.field, ideal.ring.variables[::-1], MonomialOrder("lex"))
    reverse = _index_map(ideal.ring, ring)
    return Ideal(ring, [g.transplant(ring, reverse) for g in ideal.generators])


def _prune_coordinates(y_lex: Ideal, R: RationalMap, y_ideal=None, dropped=()):
    """Drop target coordinates expressible in the remaining ones.

    y_lex is Y in the lex ring over its coordinates in reverse, t_k first.
    `dropped` names the coordinates above those that are dropped already,
    from the highest index down: the ones an affine chart substituted away
    (_affine_chart; Weil, Amer. J. Math. 78, 1956; Cox, Little & O'Shea,
    Ch. 3 Secs. 1-3).  Coordinates are tested from the highest index down;
    t_j is dropped when the ideal left contains t_j - p(the other
    coordinates left), and the last coordinate left is never tested.

    The answer depends on the ideal alone, so any lex ring with t_j first
    among the coordinates left gives it (Cox, Little & O'Shea, Ideals,
    Varieties, and Algorithms, Ch. 3 Sec. 1).  Each pass puts the untested
    candidates first, in test order, and the kept coordinates after them;
    the first pass's basis is y_lex's own.  Lex eliminates every prefix at
    once: while the prefix before t_j has been dropped, the basis elements
    whose lead is free of it generate the ideal left, and that ideal
    contains t_j - p(rest) exactly when one of them has lead t_j.  The first
    candidate that fails is kept and moves behind the untested ones for the
    next pass.

    Returns (Y, R, dropped, elements).  Y is `y_ideal` when nothing is
    dropped and it is given, and otherwise the reduced grevlex basis of the
    last pass's generators over the coordinates left, in their order.
    elements maps each coordinate dropped here, in drop order, to the basis
    element t_j - p(rest) that dropped it.
    """
    field = y_lex.ring.field
    coords = (tuple(dropped) + y_lex.ring.variables)[::-1]
    untested = list(y_lex.ring.variables)
    kept, dropped, elements = [], list(dropped), {}
    moved, gens = y_lex, y_lex.generators
    while True:
        names = untested + kept
        limit = min(len(untested), len(names) - 1)
        if not limit:
            break
        gb = moved.groebner_basis()
        by_lead = {lead: g for (lead, _), g in zip(gb.divisors, gb.elements)}
        j = 0
        while j < limit:
            g = by_lead.get((0,) * j + (1,) + (0,) * (len(names) - j - 1))
            if g is None:
                break
            elements[untested[j]] = g
            j += 1
        dropped += untested[:j]
        gens = [g for (lead, _), g in zip(gb.divisors, gb.elements) if not any(lead[:j])]
        if j == limit:
            break
        kept.append(untested[j])
        untested = untested[j + 1:]
        ring = PolyRing(field, untested + kept, MonomialOrder("lex"))
        to_ring = _index_map(moved.ring, ring)
        moved = Ideal(ring, [g.transplant(ring, to_ring) for g in gens])
        gens = moved.generators
    if not dropped and y_ideal is not None:
        return y_ideal, R, (), elements
    left = PolyRing(field, [v for v in coords if v not in dropped])
    to_left = _index_map(moved.ring, left)
    current = _generated_by(Ideal(left, [g.transplant(left, to_left) for g in gens])
                            .groebner_basis())
    comps = [c for v, c in zip(coords, R.components) if v not in dropped]
    return current, RationalMap(R.ring, comps, normalize=False), tuple(dropped), elements


def _affine_chart(R: RationalMap, I_X: Ideal, tnames, m):
    """Y's first lex ideal and R^-1 from the affine chart of X in R's coordinates.

    t_1..t_m are the degree-1 coordinates, the traces of x under the datum.
    Gauss-Jordan elimination finds the first n of them, lin, that are affine
    in x with an invertible linear part L.  Then R_lin = L x + c, and
    x = M(t_lin - c) with M = L^-1 wherever t = R(x): the trace construction
    behind Weil's theorem (Weil, The field of definition of a variety, Amer.
    J. Math. 78, 1956).  The graph ideal I_X + <t - R(x)> contains
    x - M(t_lin - c), so its part free of x and of t_k, ..., t_{m+1} comes
    from a substitution, not an elimination: P(M(t_lin - c)) for P in I_X
    and t_j - R_j(M(t_lin - c)) for j <= m outside lin generate it (Cox,
    Little & O'Shea, Ideals, Varieties, and Algorithms, Ch. 3 Secs. 1-3).
    Each t_j with j > m has t_j - R_j(M(t_lin - c)) in Y's ideal, with lead
    t_j in lex over the coordinates in reverse, so pruning drops it first.

    Returns (that ideal in lex over t_m, ..., t_1, the names t_k, ...,
    t_{m+1}, the n polynomials M(t_lin - c) over its ring).  None when R has
    a denominator or when the affine ones among t_1..t_m have rank below n.
    """
    ring = R.ring
    n = ring.nvars
    if not n or not all(_is_one(den) for _, den in R.components):
        return None
    big = PolyRing(ring.field, ring.variables + tuple(tnames[:m]))
    to_big = _index_map(ring, big)
    unit = [(0,) * v + (1,) + (0,) * (big.nvars - v - 1) for v in range(n)]
    rows, lin = {}, set()  # pivot x_v -> row, monic in x_v and free of the other pivots
    for j, (num, _) in enumerate(R.components[:m]):
        if num.total_degree() > 1:
            continue
        P = num.transplant(big, to_big) - big.var(n + j)
        for v, row in rows.items():
            if unit[v] in P.terms:
                P = P - row.scale(P.terms[unit[v]])
        v = next((v for v in range(n) if unit[v] in P.terms), None)
        if v is None:
            continue
        P = P.scale(P.terms[unit[v]].inverse())
        for w, row in rows.items():
            if unit[v] in row.terms:
                rows[w] = row - P.scale(row.terms[unit[v]])
        rows[v] = P
        lin.add(j)
        if len(rows) == n:
            break
    else:
        return None
    chart = PolyRing(ring.field, tnames[m - 1::-1], MonomialOrder("lex"))
    to_chart = _index_map(big, chart)
    xs = [(big.var(v) - rows[v]).transplant(chart, to_chart) for v in range(n)]
    table = _PowerTable(chart, [(x, None) for x in xs])
    gens = [table.poly(table.substitute(P)[0]) for P in I_X.generators]
    gens += [chart.var(tnames[j]) - table.poly(table.substitute(num)[0])
             for j, (num, _) in enumerate(R.components[:m]) if j not in lin]
    return Ideal(chart, gens), tuple(tnames[:m - 1:-1]), xs


def _chart_inverse(xs, elements, y_ideal: Ideal) -> RationalMap:
    """R^-1 = M(t_lin - c) on the pruned Y, from _affine_chart's xs.

    Each dropped coordinate the components use is replaced, in drop order,
    by its value from the element that dropped it, which uses no coordinate
    dropped before it.  On Y this is the unique polynomial inverse, so its
    normal form modulo Y's reduced grevlex basis is the one the block graph
    basis holds.
    """
    ring = xs[0].ring
    for name, g in elements.items():
        i = ring.variables.index(name)
        if any(x.uses_variable(i) for x in xs):
            values = ring.gens()
            values[i] = values[i] - g.transplant(ring)
            table = _PowerTable(ring, [(v, None) for v in values])
            xs = [table.poly(table.substitute(x)[0]) for x in xs]
    target = y_ideal.ring
    to_y = _index_map(ring, target)
    gb = y_ideal.groebner_basis()
    return RationalMap(target, [normal_form(x.transplant(target, to_y), gb) for x in xs])


# -- independent checking of a claimed model ----------------------------------------


def check_claimed_model(problem, claimed, budget=None) -> DatumReport:
    """Independent verification of a claimed (R, Y) pair against the datum.

    `problem` carries the datum, its group and the group-element labels (a
    loaded problem file); `claimed` carries y_ring, y_generators, map and an
    optional inverse (a loaded result document).  A failed check is reported
    with its witness, not raised.
    """
    with _run(budget):
        report = DatumReport()
        datum = problem.datum
        group = problem.group
        X = datum.variety
        R = claimed.map

        report.add(
            "Y generators over the fixed field",
            all(g.has_rational_coefficients() for g in claimed.y_generators),
        )

        # R(X) lands inside Y: each Y generator composed with R vanishes on X.
        try:
            x_gb = _equality_basis(X.ideal, [R])
        except ZeroDenominator as exc:
            report.add("image containment", False, str(exc))
        else:
            rems = _composed_normal_forms(claimed.y_generators, R, x_gb)
            for gi, rem in enumerate(rems):
                ok = rem.is_zero()
                report.add(f"image containment generator_{gi}", ok,
                           None if ok else str(rem))

        for s in group.nontrivial:
            try:
                equal, witness = _relation(R, datum, s)
            except ZeroDenominator as exc:
                equal, witness = False, exc
            report.add(f"descent relation {problem.labels[s]}", equal,
                       None if equal else str(witness))

        if claimed.inverse is not None:
            y_ideal = Ideal(claimed.y_ring, list(claimed.y_generators))
            checks = _verify_inverse(R, claimed.inverse, X.ideal, y_ideal)
            for where, (ok, witness) in zip(("X", "Y"), checks):
                report.add(f"inverse composition on {where}", ok,
                           None if ok else str(witness))
        return report


# -- other versions of the theorem -------------------------------------------------------


def descend_morphism(
    d: DescentDatum, phi: RationalMap, Z: AffineVariety, budget=None
):
    """Descent compatible with a morphism phi: X -> Z over the fixed field.

    Returns (DescentResult, L) with L o R = phi modulo I(X) and L defined
    over the fixed field.
    """
    with _run(budget):
        group = d.group
        X = d.variety
        if any(not g.has_rational_coefficients() for g in Z.generators):
            raise InputError("Z must be given by generators over the fixed field")
        if phi.ring != X.ring:
            raise InputError("phi must be defined on X's ring")
        if phi.target_arity != Z.ring.nvars:
            raise InputError("phi must land in Z's ambient space")

        gb = _equality_basis(X.ideal, [phi])
        for rem in _composed_normal_forms(Z.generators, phi, gb):
            if not rem.is_zero():
                raise InputError("phi does not map X into Z")
        for s in group.nontrivial:
            equal, witness = _relation(phi, d, s)
            if not equal:
                raise MorphismIncompatible(s, witness)

        result = descend(d)
        if result.inverse is None:
            raise MissingInverse(
                "morphism transport needs an explicit inverse of R"
            )
        y_gb = result.y_ideal.groebner_basis()
        L = _reduce_map(compose_map(phi, result.inverse), y_gb)
        rational, witness = _sigma_fixed(L, group, result.y_ideal)
        if not rational:
            raise NotKRational("transported morphism is not fixed-field rational",
                               witness)
        back = compose_map(L, result.map)
        equal, witness = maps_equal_mod_ideal(back, phi, X.ideal)
        if not equal:
            raise VerificationError("L o R != phi on X", witness)
        return result, L


def transport_automorphisms(result: DescentResult, G, budget=None):
    """H = R G R^{-1} on Y, verified closed under the group action."""
    if result.inverse is None:
        raise MissingInverse("automorphism transport needs an inverse of R")
    with _run(budget):
        d = result.datum
        group = result.group
        X = d.variety
        x_gb = _equality_basis(X.ideal, list(G) + list(d.maps))

        for g in G:
            for gi, rem in enumerate(_composed_normal_forms(X.generators, g, x_gb)):
                if not rem.is_zero():
                    raise InputError(
                        f"input map {G.index(g)} is not an automorphism of X "
                        f"(generator {gi} not preserved)"
                    )

        def setwise_member(cand, pool, ideal):
            for member in pool:
                equal, _ = maps_equal_mod_ideal(cand, member, ideal)
                if equal:
                    return True
            return False

        for s in group.nontrivial:
            for g in G:
                lhs = compose_map(g.sigma(group, s), d.maps[s])
                candidates = [compose_map(d.maps[s], gp) for gp in G]
                if not setwise_member(lhs, candidates, X.ideal):
                    raise ConjugationNotClosed(s)

        y_gb = result.y_ideal.groebner_basis()
        H = []
        for g in G:
            h = compose_map(result.map, compose_map(g, result.inverse))
            h = _reduce_map(h, y_gb)
            if not setwise_member(h, H, result.y_ideal):
                H.append(h)

        for s in group.nontrivial:
            for h in H:
                if not setwise_member(h.sigma(group, s), H, result.y_ideal):
                    raise ConjugationNotClosed(s)
        return H


def compare_models(model1, model2, d: DescentDatum, budget=None) -> RationalMap:
    """J = R2 o R1^{-1}: Y1 -> Y2, certified defined over the fixed field.

    Each model is (map, ideal, inverse-or-None) or a DescentResult.
    """
    def unpack(model):
        if isinstance(model, DescentResult):
            return model.map, model.y_ideal, model.inverse
        return model

    R1, Y1, R1_inv = unpack(model1)
    R2, Y2, _ = unpack(model2)
    if R1_inv is None:
        raise MissingInverse("compare_models needs an inverse for the first model")

    with _run(budget):
        for label, R in (("first", R1), ("second", R2)):
            for s in d.group.nontrivial:
                equal, witness = _relation(R, d, s)
                if not equal:
                    raise VerificationError(
                        f"{label} model does not satisfy R = R^sigma o f_sigma",
                        witness,
                    )

        y1_gb = Y1.groebner_basis()
        J = _reduce_map(compose_map(R2, R1_inv), y1_gb)
        rational, witness = _sigma_fixed(J, d.group, Y1)
        if not rational:
            raise NotKRational("comparison map is not fixed-field rational", witness)
        return J

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
    _as_budget,
    _denominator_product,
    _fresh_name,
    _graph_basis,
    _second_block,
    ideals_equal,
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
    poly_trace,
    _substitute_fraction,
)
from .numberfield import GaloisGroup, power_basis

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

    def __init__(self, ring: PolyRing, generators, budget=None):
        self.ring = ring
        self.ideal = Ideal(ring, generators)
        self.generators = self.ideal.generators
        if self.ideal.is_unit(budget=budget):
            raise InputError("the given equations have no common zero (unit ideal)")

    def __repr__(self):
        return f"AffineVariety<{', '.join(str(g) for g in self.generators)}>"


class DescentDatum:
    """A family of maps f_sigma: X -> X^sigma indexed by the Galois group."""

    __slots__ = ("variety", "group", "maps")

    def __init__(self, variety: AffineVariety, group: GaloisGroup, maps):
        if isinstance(maps, dict):
            lst = [maps.get(i) for i in range(group.order)]
        else:
            lst = list(maps)
            if len(lst) != group.order:
                raise InputError("need one map per group element")
        if lst[group.identity_index] is None:
            lst[group.identity_index] = identity_map(variety.ring)
        if any(f is None for f in lst):
            raise InputError("descent datum misses a group element")
        for f in lst:
            if f.ring != variety.ring:
                raise InputError("datum maps must be defined on the variety's ring")
            if f.target_arity != variety.ring.nvars:
                raise InputError("datum maps must land in the same affine space")
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


def _equality_basis(ideal: Ideal, maps, budget=None):
    """Groebner basis of the ideal saturated by the maps' denominators."""
    prod = _denominator_product(maps)
    if prod is None:
        return ideal.groebner_basis(budget=budget)
    return saturate(ideal, prod, budget=budget).groebner_basis(budget=budget)


def _first_mismatch(f: RationalMap, g: RationalMap, ideal: Ideal, budget):
    """(index, nonzero normal form) of the first component where f and g differ
    on V(ideal), or None when they agree.  Both maps have the same arity.

    Denominators lying in the ideal raise ZeroDenominator.
    """
    gb = _equality_basis(ideal, [f, g], budget)
    for k, ((nf_, df_), (ng_, dg_)) in enumerate(zip(f.components, g.components)):
        for den in (df_, dg_):
            if not den.is_constant() and normal_form(den, gb, budget).is_zero():
                raise ZeroDenominator("map denominator vanishes on the variety")
        rem = normal_form(nf_ * dg_ - ng_ * df_, gb, budget)
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
    mismatch = _first_mismatch(f, g, ideal, _as_budget(budget))
    if mismatch is None:
        return True, None
    return False, mismatch[1]


def _relation(R: RationalMap, d: DescentDatum, s, budget):
    """R = R^sigma o f_sigma on X for the datum d: (equal, witness)."""
    rhs = compose_map(R.sigma(d.group, s), d.maps[s])
    return maps_equal_mod_ideal(R, rhs, d.variety.ideal, budget)


def _sigma_fixed(L: RationalMap, group, ideal: Ideal, budget):
    """L^sigma = L on V(ideal) for every sigma: (True, None), or (False, witness)."""
    for s in group:
        equal, witness = maps_equal_mod_ideal(L.sigma(group, s), L, ideal, budget)
        if not equal:
            return False, witness
    return True, None


def _composed_normal_forms(gens, F: RationalMap, gb, budget):
    """Normal forms modulo gb of the numerators of P(F), one per P in gens.

    Zero means P o F vanishes on V(gb) when gb is saturated by F's
    denominators.  Lazy, so a caller can stop at the first failure.
    """
    nums, dens = F.numerators(), F.denominators()
    for P in gens:
        num, _ = _substitute_fraction(P, nums, dens, F.ring)
        yield normal_form(num, gb, budget)


def _reduce_map(F: RationalMap, gb, budget=None) -> RationalMap:
    """Normal-form every component; equal to F as a map on the variety."""
    comps = []
    for num, den in F.components:
        rn = normal_form(num, gb, budget)
        if den.is_constant():
            comps.append((rn, den))
        else:
            rd = normal_form(den, gb, budget)
            if rd.is_zero():
                raise ZeroDenominator("map denominator vanishes on the variety")
            comps.append((rn, rd))
    return RationalMap(F.ring, comps)


# -- datum verification ------------------------------------------------------------


def verify_datum(d: DescentDatum, budget=None, strict=True) -> DatumReport:
    """Check f_sigma maps X into X^sigma and the cocycle identity for all pairs."""
    budget = _as_budget(budget)
    report = DatumReport()
    group = d.group
    X = d.variety
    gb = _equality_basis(X.ideal, d.maps, budget)

    for s in group:
        f = d.maps[s]
        for den in f.denominators():
            if not den.is_constant() and normal_form(den, gb, budget).is_zero():
                raise ZeroDenominator(
                    f"denominator of the map for sigma_{s} vanishes on X"
                )
        conjugates = [P.sigma(group, s) for P in X.generators]
        for gi, rem in enumerate(_composed_normal_forms(conjugates, f, gb, budget)):
            ok = rem.is_zero()
            report.add(f"into-conjugate sigma_{s} generator_{gi}", ok,
                       None if ok else str(rem))
            if not ok and strict:
                raise NotIntoConjugate(s, gi, rem)

    for s1 in group:
        for s2 in group:
            lhs = d.maps[group.compose(s1, s2)]
            rhs = compose_map(d.maps[s2].sigma(group, s1), d.maps[s1])
            mismatch = _first_mismatch(lhs, rhs, X.ideal, budget)
            report.add(f"cocycle ({s1}, {s2})", mismatch is None,
                       None if mismatch is None else str(mismatch[1]))
            if mismatch is not None and strict:
                raise CocycleViolation(s1, s2, *mismatch)
    return report


# -- disjointification ---------------------------------------------------------------


def _conjugates_disjoint(X: AffineVariety, group, budget=None) -> bool:
    """Whether the conjugates of X are pairwise disjoint (each sum is the unit ideal)."""
    conj = [X.ideal.sigma(group, s) for s in group]
    for i in range(len(conj)):
        for j in range(i + 1, len(conj)):
            joint = Ideal(X.ring, list(conj[i].generators) + list(conj[j].generators))
            if not joint.is_unit(budget=budget):
                return False
    return True


def disjointify(d: DescentDatum, budget=None) -> DescentDatum:
    """Augment the model so conjugate varieties are pairwise disjoint.

    Adds one coordinate per non-identity group element, pinned to alpha
    (every non-identity automorphism moves alpha), exactly when some pair of
    conjugates already meets.  Returns the input unchanged otherwise.
    """
    budget = _as_budget(budget)
    group = d.group
    X = d.variety
    if _conjugates_disjoint(X, group, budget):
        return d

    ring = X.ring
    extra = ()
    for k in range(group.order - 1):
        extra += (_fresh_name(f"x{ring.nvars + k + 1}", ring.variables + extra),)
    big = PolyRing(ring.field, ring.variables + extra, ring.order)
    alpha = ring.field.gen
    gens = [g.transplant(big) for g in X.generators]
    for name in extra:
        gens.append(big.var(name) - big.constant(alpha))
    Xhat = AffineVariety(big, gens, budget=budget)

    new_maps = []
    for s in group:
        f = d.maps[s]
        comps = [(num.transplant(big), den.transplant(big)) for num, den in f.components]
        for _ in extra:
            comps.append((big.constant(group.apply(s, alpha)), big.one))
        new_maps.append(RationalMap(big, comps, normalize=False))
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


def build_phi(d: DescentDatum, budget=None, action=None):
    """Phi: x -> (f_sigma(x))_sigma, and the ideal of Phi(X) in the block ring."""
    budget = _as_budget(budget)
    group = d.group
    X = d.variety
    action = action or _phi_action(d)
    big = action.ring
    n = X.ring.nvars
    phi = _phi_map(d)

    # Identity block variables carry the X names, so transplanting by name
    # lands polynomials on the e-block.
    gens = []
    e = group.identity_index
    for s in group:
        var_map = {i: action.variable_index(s, i) for i in range(n)}
        for P in X.generators:
            gens.append(P.sigma(group, s).transplant(big, var_map))
    for s in group:
        if s == e:
            continue
        f = d.maps[s]
        for j, (num, den) in enumerate(f.components):
            y = big.var(action.variable_index(s, j))
            gens.append(y * den.transplant(big) - num.transplant(big))
    ideal = Ideal(big, gens)
    prod = _denominator_product([phi])
    if prod is not None:
        ideal = saturate(ideal, prod.transplant(big), budget=budget)
    return phi, ideal


# -- the pipeline -----------------------------------------------------------------------


def _trace_descend_generators(ideal: Ideal, group, budget=None):
    """Replace non-rational generators by their trace family; verify equality.

    An ideal whose generators are all rational is returned itself, with the
    bases already cached on it.
    """
    if all(F.has_rational_coefficients() for F in ideal.generators):
        return ideal
    basis = power_basis(ideal.ring.field)
    out = []
    for F in ideal.generators:
        if F.has_rational_coefficients():
            out.append(F)
            continue
        for e in basis:
            T = poly_trace(F.scale(e), group)
            if not T.is_zero():
                out.append(T)
    descended = Ideal(ideal.ring, out)
    if not ideals_equal(descended, ideal, budget=budget):
        raise VerificationError("trace descent changed the ideal")
    return descended


def _sigma_stable(ideal: Ideal, group, budget=None) -> bool:
    """Whether sigma(I) = I for every sigma, from one reduced basis of I.

    sigma acts on coefficients only, so it maps the reduced grevlex basis G
    of I onto the reduced basis of sigma(I) with the same monic leading
    terms in the same places: sigma(I) = I exactly when sigma(G) = G term
    by term.
    """
    gb = ideal.groebner_basis(order=MonomialOrder("grevlex"), budget=budget)
    return all(
        g.sigma(group, s).terms == g.terms for s in group for g in gb.elements
    )


def _certify_y(y_ideal: Ideal, group, certificates, budget):
    """Certify Y sigma-stable, then trace-descend it to rational generators.

    Records y_sigma_stable and y_rational_generators in `certificates` and
    returns the descended ideal; a failed certificate raises.
    """
    certificates["y_sigma_stable"] = _sigma_stable(y_ideal, group, budget)
    if not certificates["y_sigma_stable"]:
        raise VerificationError("Y is not stable under the group action")
    y_ideal = _trace_descend_generators(y_ideal, group, budget)
    certificates["y_rational_generators"] = all(
        g.has_rational_coefficients() for g in y_ideal.generators
    )
    if not certificates["y_rational_generators"]:
        raise VerificationError("trace descent left non-rational generators")
    return y_ideal


def _x_stable_and_trivial(d: DescentDatum, budget=None):
    group = d.group
    X = d.variety
    if not _sigma_stable(X.ideal, group, budget):
        return False
    ident = identity_map(X.ring)
    for s in group:
        equal, _ = maps_equal_mod_ideal(d.maps[s], ident, X.ideal, budget)
        if not equal:
            return False
    return True


def descend(
    d: DescentDatum,
    budget=None,
    prune=False,
    want_inverse=True,
) -> DescentResult:
    """Run the full pipeline; every certificate is verified, never assumed.

    The budget caps the reduction steps of the whole run.
    """
    budget = _as_budget(budget)
    group = d.group
    verify_datum(d, budget=budget, strict=True)
    certificates = {
        "datum_cocycle": True,
        "datum_into_conjugate": True,
    }

    if _x_stable_and_trivial(d, budget):
        # X is fixed by every sigma and the datum is trivial: X is already a
        # model over the fixed field after trace-descending its generators.
        certificates["disjoint_conjugates"] = True
        y_ideal = _certify_y(d.variety.ideal, group, certificates, budget)
        R = identity_map(d.variety.ring)
        certificates.update(descent_relation=True, inverse_recovered=True)
        return DescentResult(
            group=group,
            datum=d,
            y_ring=d.variety.ring,
            y_generators=y_ideal.generators,
            y_ideal=y_ideal,
            map=R,
            inverse=R,
            certificates=certificates,
            invariant_count=d.variety.ring.nvars,
        )

    dd = disjointify(d, budget=budget)
    Xw = dd.variety

    # Certify disjointness of the working model's conjugates: disjointify
    # returns its input only after finding every pair disjoint.
    disjoint = dd is d or _conjugates_disjoint(Xw, group, budget)
    certificates["disjoint_conjugates"] = disjoint
    if not disjoint:
        raise VerificationError("conjugate models are not pairwise disjoint")

    action = _phi_action(dd)
    phi = _phi_map(dd)
    invars = generate_invariants(action, budget=budget)

    # Certify the invariance and rationality of the generators (exact).
    certificates["psi_theta_invariant"] = all(
        action.is_invariant(E) for E in invars
    )
    certificates["psi_rational"] = all(
        E.has_rational_coefficients() for E in invars
    )
    if not (certificates["psi_theta_invariant"] and certificates["psi_rational"]):
        raise VerificationError("invariant generators failed their certificates")

    taken = set(Xw.ring.variables)
    tnames = tuple(_fresh_name(f"t{k + 1}", taken) for k in range(len(invars)))
    psi = RationalMap(action.ring, [(E, action.ring.one) for E in invars],
                      normalize=False)
    R = compose_map(psi, phi)
    x_gb = Xw.ideal.groebner_basis(budget=budget)
    R = _reduce_map(R, x_gb, budget)

    # Y is the image of R, eliminated from the graph basis; _reduce_map has
    # already rejected a denominator vanishing on X.  The same graph basis
    # gives R^-1 below unless pruning changes the target coordinates.
    graph = _graph_basis(R, Xw.ideal, tnames, budget)
    y_ideal = _second_block(*graph)

    # Pruning reads only reduced bases, which depend on the ideal alone, so
    # Y is certified once, on its final coordinates.
    pruned = ()
    if prune:
        y_ideal, R, pruned = _prune_coordinates(y_ideal, R, budget)
    y_ideal = _certify_y(y_ideal, group, certificates, budget)

    # Relation R = R^sigma o f_sigma on the working model.
    for s in group:
        relation, witness = _relation(R, dd, s, budget)
        if not relation:
            break
    certificates["descent_relation"] = relation
    if not relation:
        raise VerificationError("R != R^sigma o f_sigma on X", witness)

    inverse = None
    if want_inverse:
        if pruned:
            inverse = recover_inverse(R, Xw.ideal, y_ideal, budget=budget)
        else:
            inverse = _inverse_from_graph(*graph, Xw.ring.nvars, y_ideal, budget)
    certificates["inverse_recovered"] = inverse is not None

    # Fold the disjointification back onto the original model: substitute the
    # pinned coordinates and keep the original components of the inverse.
    if dd is not d:
        R, inverse = _restrict_to_original(d, dd, R, inverse)
        certificates["descent_relation"] = all(
            _relation(R, d, s, budget)[0] for s in group
        )
        if not certificates["descent_relation"]:
            raise VerificationError("R != R^sigma o f_sigma after restriction")

    if inverse is not None:
        checks = _verify_inverse(R, inverse, d.variety.ideal, y_ideal, budget)
        if not all(ok for ok, _ in checks):
            inverse = None
            certificates["inverse_recovered"] = False

    return DescentResult(
        group=group,
        datum=d,
        y_ring=y_ideal.ring,
        y_generators=y_ideal.generators,
        y_ideal=y_ideal,
        map=R,
        inverse=inverse,
        certificates=certificates,
        invariant_count=len(invars),
        pruned=pruned,
    )


def _restrict_to_original(d, dd, R, inverse):
    ring = d.variety.ring
    n = ring.nvars
    values = [ring.var(i) for i in range(n)]
    alpha = ring.constant(ring.field.gen)
    for _ in range(dd.variety.ring.nvars - n):
        values.append(alpha)
    comps = []
    for num, den in R.components:
        comps.append((num.substitute(values), den.substitute(values)))
    R0 = RationalMap(ring, comps)
    inv0 = None
    if inverse is not None:
        inv0 = RationalMap(inverse.ring, list(inverse.components)[:n],
                           normalize=False)
    return R0, inv0


def _verify_inverse(R, Rinv, x_ideal, y_ideal, budget):
    """Rinv o R = id on X, then R o Rinv = id on Y: one (ok, witness) per direction.

    A denominator that vanishes fails its own direction, with the
    ZeroDenominator as the witness.
    """
    checks = []
    for outer, inner, ideal in ((Rinv, R, x_ideal), (R, Rinv, y_ideal)):
        try:
            checks.append(maps_equal_mod_ideal(
                compose_map(outer, inner), identity_map(ideal.ring), ideal, budget
            ))
        except ZeroDenominator as exc:
            checks.append((False, exc))
    return checks


def recover_inverse(R: RationalMap, I_X: Ideal, I_Y: Ideal, budget=None):
    """Search the graph ideal for coordinate functions linear in each source variable.

    Soft outcome: returns None when no usable elements appear.
    """
    budget = _as_budget(budget)
    gb, split = _graph_basis(R, I_X, I_Y.ring.variables, budget)
    return _inverse_from_graph(gb, split, I_X.ring.nvars, I_Y, budget)


def _inverse_from_graph(gb, split, n, I_Y: Ideal, budget=None):
    """R^-1 read off the graph basis of R (n source variables first), or None."""
    y_gb = I_Y.groebner_basis(budget=budget)
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
            mm = list(m[split:])
            if m[i] == 1:
                c_terms[tuple(mm)] = coeff
            else:
                b_terms[tuple(mm)] = coeff
        c = MultiPoly(target, {m: c for m, c in c_terms.items()})
        b = MultiPoly(target, {m: c for m, c in b_terms.items()})
        if normal_form(c, y_gb, budget).is_zero():
            continue
        found[i] = (-b, c)
    if len(found) < n:
        return None
    return RationalMap(target, [found[i] for i in range(n)])


# -- optional coordinate pruning --------------------------------------------------------


def _prune_coordinates(y_ideal: Ideal, R: RationalMap, budget=None):
    """Drop target coordinates expressible in the remaining ones.

    Highest-index coordinates are tried first; a coordinate t_j is dropped
    only when the ideal contains t_j - p(remaining kept coordinates).
    """
    names = y_ideal.ring.variables
    current = y_ideal
    dropped = []
    for name in reversed(names):
        kept = current.ring.variables
        if len(kept) == 1:
            break
        reordered = PolyRing(
            current.ring.field,
            (name,) + tuple(v for v in kept if v != name),
            MonomialOrder("block", split=1),
        )
        moved = Ideal(reordered, [g.transplant(reordered) for g in current.generators])
        gb = moved.groebner_basis(budget=budget)
        lead = (1,) + (0,) * (reordered.nvars - 1)
        expressible = any(
            g.degree_in(0) == 1
            and lead in g.terms
            and all(m[0] == 0 for m in g.terms if m != lead)
            for g in gb.elements
        )
        if expressible:
            dropped.append(name)
            # This block basis eliminates t_j: its elements free of t_j
            # generate the ideal of the kept coordinates.
            current = _second_block(gb, 1)
    kept = set(current.ring.variables)
    comps = [c for v, c in zip(names, R.components) if v in kept]
    R2 = RationalMap(R.ring, comps, normalize=False)
    return current, R2, tuple(dropped)


# -- independent checking of a claimed model ----------------------------------------


def check_claimed_model(problem, claimed, budget=None) -> DatumReport:
    """Independent verification of a claimed (R, Y) pair against the datum.

    `problem` carries the datum, its group and the group-element labels (a
    loaded problem file); `claimed` carries y_ring, y_generators, map and an
    optional inverse (a loaded result document).  A failed check is reported
    with its witness, not raised.
    """
    budget = _as_budget(budget)
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
    x_gb = _equality_basis(X.ideal, [R], budget)
    rems = _composed_normal_forms(claimed.y_generators, R, x_gb, budget)
    for gi, rem in enumerate(rems):
        ok = rem.is_zero()
        report.add(f"image containment generator_{gi}", ok,
                   None if ok else str(rem))

    for s in group:
        if s == group.identity_index:
            continue
        try:
            equal, witness = _relation(R, datum, s, budget)
        except ZeroDenominator as exc:
            equal, witness = False, exc
        report.add(f"descent relation {problem.labels[s]}", equal,
                   None if equal else str(witness))

    if claimed.inverse is not None:
        y_ideal = Ideal(claimed.y_ring, list(claimed.y_generators))
        checks = _verify_inverse(R, claimed.inverse, X.ideal, y_ideal, budget)
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
    budget = _as_budget(budget)
    group = d.group
    X = d.variety
    if any(not g.has_rational_coefficients() for g in Z.generators):
        raise InputError("Z must be given by generators over the fixed field")
    if phi.ring != X.ring:
        raise InputError("phi must be defined on X's ring")
    if phi.target_arity != Z.ring.nvars:
        raise InputError("phi must land in Z's ambient space")

    gb = _equality_basis(X.ideal, [phi], budget)
    for rem in _composed_normal_forms(Z.generators, phi, gb, budget):
        if not rem.is_zero():
            raise InputError("phi does not map X into Z")
    for s in group:
        equal, witness = _relation(phi, d, s, budget)
        if not equal:
            raise MorphismIncompatible(s, witness)

    result = descend(d, budget=budget)
    if result.inverse is None:
        raise MissingInverse(
            "morphism transport needs an explicit inverse of R"
        )
    y_gb = result.y_ideal.groebner_basis(budget=budget)
    L = _reduce_map(compose_map(phi, result.inverse), y_gb, budget)
    rational, witness = _sigma_fixed(L, group, result.y_ideal, budget)
    if not rational:
        raise NotKRational("transported morphism is not fixed-field rational",
                           witness)
    back = compose_map(L, result.map)
    equal, witness = maps_equal_mod_ideal(back, phi, X.ideal, budget)
    if not equal:
        raise VerificationError("L o R != phi on X", witness)
    return result, L


def transport_automorphisms(result: DescentResult, G, budget=None):
    """H = R G R^{-1} on Y, verified closed under the group action."""
    if result.inverse is None:
        raise MissingInverse("automorphism transport needs an inverse of R")
    budget = _as_budget(budget)
    d = result.datum
    group = result.group
    X = d.variety
    x_gb = _equality_basis(X.ideal, list(G) + list(d.maps), budget)

    for g in G:
        for gi, rem in enumerate(_composed_normal_forms(X.generators, g, x_gb, budget)):
            if not rem.is_zero():
                raise InputError(
                    f"input map {G.index(g)} is not an automorphism of X "
                    f"(generator {gi} not preserved)"
                )

    def setwise_member(cand, pool, ideal):
        for member in pool:
            equal, _ = maps_equal_mod_ideal(cand, member, ideal, budget)
            if equal:
                return True
        return False

    for s in group:
        for g in G:
            lhs = compose_map(g.sigma(group, s), d.maps[s])
            candidates = [compose_map(d.maps[s], gp) for gp in G]
            if not setwise_member(lhs, candidates, X.ideal):
                raise ConjugationNotClosed(s)

    y_gb = result.y_ideal.groebner_basis(budget=budget)
    H = []
    for g in G:
        h = compose_map(result.map, compose_map(g, result.inverse))
        h = _reduce_map(h, y_gb, budget)
        if not setwise_member(h, H, result.y_ideal):
            H.append(h)

    for s in group:
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

    budget = _as_budget(budget)
    for label, R in (("first", R1), ("second", R2)):
        for s in d.group:
            equal, witness = _relation(R, d, s, budget)
            if not equal:
                raise VerificationError(
                    f"{label} model does not satisfy R = R^sigma o f_sigma",
                    witness,
                )

    y1_gb = Y1.groebner_basis(budget=budget)
    J = _reduce_map(compose_map(R2, R1_inv), y1_gb, budget)
    rational, witness = _sigma_fixed(J, d.group, Y1, budget)
    if not rational:
        raise NotKRational("comparison map is not fixed-field rational", witness)
    return J

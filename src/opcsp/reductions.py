"""Reductions between constraint languages that preserve both classical and
operator satisfiability: existential gadget expansion and equality collapse,
commutativity padding, endomorphism cores, constant anchoring, subdomain
restriction, and congruence factoring, together with the polynomial
transports that carry operator assignments across the last two.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import chain, combinations, product
from math import lcm

import numpy as np

from .csp_core import (
    EQUALITY,
    Instance,
    Language,
    Relation,
    _domain_size, _int, _list, _object, _str,
    equality_relation,
    full_relation,
    make_instance,
    search,
)
from .cyclotomic import UniPoly, embed
from .fourier import circle_idft
from .operators import (
    DEFAULT_TOL,
    OperatorAssignment,
    apply_unipoly_matrix,
    root_value,
    simultaneous_diagonalize,
)

PP_GUARD = 10 ** 8
ENDO_GUARD = 8


# ---------------------------------------------------------------------------
# pp-formulas and gadgets


@dataclass(frozen=True)
class PPAtom:
    rel: str  # language relation name or EQUALITY
    vars: tuple  # indices: 0..r-1 outputs, r..r+s-1 existentials


@dataclass(frozen=True)
class PPFormula:
    """Existentially quantified conjunction of language atoms and equalities."""

    arity: int
    exist: int
    atoms: tuple

    def __post_init__(self):
        if not self.atoms:
            raise ValueError("a pp-formula needs at least one atom")
        if self.arity < 1 or self.exist < 0:
            raise ValueError("formula arity must be positive and exist count nonnegative")
        total = self.arity + self.exist
        for atom in self.atoms:
            for idx in atom.vars:
                if not 0 <= idx < total:
                    raise ValueError(f"variable index {idx} out of range 0..{total - 1}")

    def to_obj(self) -> dict:
        return {
            "arity": self.arity,
            "exists": self.exist,
            "atoms": [{"rel": a.rel, "vars": list(a.vars)} for a in self.atoms],
        }

    @classmethod
    def from_obj(cls, obj) -> "PPFormula":
        _object(obj, "top level", ("arity", "exists", "atoms"))
        atoms = []
        for a in _list(obj["atoms"], "atoms"):
            vars_ = _list(_object(a, "an atom", ("rel", "vars"))["vars"], "vars")
            atoms.append(PPAtom(_str(a["rel"], "rel"), tuple(_int(i, "an index") for i in vars_)))
        return cls(_int(obj["arity"], "arity"), _int(obj["exists"], "exists"), tuple(atoms))


def _pp_witness(formula: PPFormula, language: Language):
    """The map from output values `point` to the lexicographically first
    assignment of the existential variables that satisfies every atom with
    them, or None: the first `search` result with the outputs pinned, over
    the atoms' constraints, built once."""
    equal = equality_relation(language.d).tuples
    constraints = [(atom.vars, equal if atom.rel == EQUALITY else language[atom.rel].tuples)
                   for atom in formula.atoms]
    exist = [range(language.d)] * formula.exist

    def witness(point: tuple):
        found = next(search([(a,) for a in point] + exist, constraints), None)
        return None if found is None else found[formula.arity:]
    return witness


def pp_evaluate(formula: PPFormula, language: Language) -> Relation:
    """Models of the formula over the language's domain, by brute force."""
    d = language.d
    r, s = formula.arity, formula.exist
    if r + s >= PP_GUARD.bit_length() or d ** (r + s) > PP_GUARD:
        raise ValueError("pp evaluation space exceeds the guard")
    for atom in formula.atoms:
        if atom.rel != EQUALITY:
            if atom.rel not in language:
                raise ValueError(f"atom references unknown relation {atom.rel!r}")
            if language[atom.rel].arity != len(atom.vars):
                raise ValueError(f"atom arity mismatch on {atom.rel!r}")
        elif len(atom.vars) != 2:
            raise ValueError("equality atoms are binary")

    witness = _pp_witness(formula, language)
    tuples = frozenset(outer for outer in product(range(d), repeat=r) if witness(outer) is not None)
    return Relation(r, d, tuples)


def _gadget_blocks(inst: Instance, formula: PPFormula, target: str) -> dict:
    """Fresh existential variable names per replaced constraint, deterministic."""
    existing = set(inst.variables)
    blocks: dict[int, list] = {}
    for ci, c in enumerate(inst.constraints):
        if c.rel != target:
            continue
        names = []
        for k in range(formula.exist):
            name = f"{c.scope[0]}-g{ci}-t{k}"
            while name in existing:
                name += "'"
            existing.add(name)
            names.append(name)
        blocks[ci] = names
    return blocks


def gadgetize(inst: Instance, formula: PPFormula, target: str) -> Instance:
    """Replace every constraint on the target relation by the formula's atoms
    over its scope plus a fresh block of existential variables."""
    if target not in inst.language:
        raise ValueError(f"instance language has no relation {target!r}")
    base_lang = inst.language.without(target)
    defined = pp_evaluate(formula, base_lang)
    if defined != inst.language[target]:
        raise ValueError("formula does not define the target relation")
    rels = dict(base_lang.relations)
    rels.setdefault(EQUALITY, equality_relation(inst.d))
    blocks = _gadget_blocks(inst, formula, target)
    variables = list(inst.variables)
    constraints: list[tuple] = []
    for ci, c in enumerate(inst.constraints):
        if c.rel != target:
            constraints.append((c.scope, c.rel))
            continue
        block = blocks[ci]
        variables.extend(block)
        lookup = list(c.scope) + block
        for atom in formula.atoms:
            constraints.append((tuple(lookup[i] for i in atom.vars), atom.rel))
    return make_instance(inst.d, variables, constraints, rels)


def collapse_equalities(inst: Instance) -> Instance:
    """Union equality-constrained variables, representative being the member
    earliest in declaration order; rewrite scopes and drop the equalities."""
    index = {v: i for i, v in enumerate(inst.variables)}
    parent = list(range(len(inst.variables)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i: int, j: int):
        ri, rj = find(i), find(j)
        if ri == rj:
            return
        lo, hi = min(ri, rj), max(ri, rj)
        parent[hi] = lo

    for c in inst.constraints:
        if c.rel == EQUALITY:
            union(index[c.scope[0]], index[c.scope[1]])
    rep = {v: inst.variables[find(index[v])] for v in inst.variables}
    variables = [v for v in inst.variables if rep[v] == v]
    constraints = [
        (tuple(rep[v] for v in c.scope), c.rel)
        for c in inst.constraints
        if c.rel != EQUALITY
    ]
    rels = dict(inst.language.relations)
    rels.pop(EQUALITY, None)
    return make_instance(inst.d, variables, constraints, rels)


def add_commutativity_gadget(inst: Instance) -> Instance:
    """Pad every constraint scope with full binary constraints on all its
    position pairs, so that restriction of operator assignments stays within
    commuting families."""
    full_name = None
    full = full_relation(2, inst.d)
    for name in sorted(inst.language.relations):
        if inst.language[name] == full:
            full_name = name
            break
    if full_name is None:
        raise ValueError("language does not contain the full binary relation")
    constraints = [(c.scope, c.rel) for c in inst.constraints]
    for c in inst.constraints:
        for i, j in combinations(range(len(c.scope)), 2):
            constraints.append(((c.scope[i], c.scope[j]), full_name))
    return make_instance(inst.d, inst.variables, constraints, dict(inst.language.relations))


# ---------------------------------------------------------------------------
# Unary maps, interpolation


@dataclass(frozen=True)
class UnaryMap:
    d_from: int
    d_to: int
    table: tuple

    def __post_init__(self):
        _domain_size(self.d_from, "source domain size")
        _domain_size(self.d_to, "target domain size")
        if len(self.table) != self.d_from:
            raise ValueError("table must be total on the source domain")
        for v in self.table:
            if not 0 <= v < self.d_to:
                raise ValueError(f"table value {v} outside 0..{self.d_to - 1}")

    def __call__(self, k: int) -> int:
        return self.table[k]

    def is_injective(self) -> bool:
        return len(set(self.table)) == self.d_from

    def compose(self, inner: "UnaryMap") -> "UnaryMap":
        if inner.d_to != self.d_from:
            raise ValueError("maps do not compose")
        return UnaryMap(inner.d_from, self.d_to, tuple(self.table[v] for v in inner.table))

    def apply_tuple(self, t) -> tuple:
        return tuple(self.table[a] for a in t)

    def apply_relation(self, rel: Relation) -> Relation:
        return Relation(rel.arity, self.d_to, frozenset(self.apply_tuple(t) for t in rel.tuples))

    @classmethod
    def identity(cls, d: int) -> "UnaryMap":
        return cls(d, d, tuple(range(d)))


def _root_interpolant(powers: dict, n: int, d: int) -> UniPoly:
    """Degree < n polynomial taking zeta_d^powers[k] at zeta_n^k, and 0 at
    the nodes absent from `powers`: one inverse DFT over zeta_lcm(n, d)."""
    order = lcm(n, d)
    units = {(k,): [0] * (j * order // d) + [1] for k, j in powers.items()}
    return UniPoly(circle_idft(units, n, 1, order).values())


def interpolate_map(pi: UnaryMap) -> UniPoly:
    """Degree < e polynomial sending each e-th root of unity to the image
    root of unity prescribed by an injective map into a d-element domain."""
    if not pi.is_injective():
        raise ValueError("operator transport requires an injective map")
    p = _root_interpolant(dict(enumerate(pi.table)), pi.d_from, pi.d_to)
    for k in range(pi.d_from):
        if p.eval(embed(k, pi.d_from)) != embed(pi(k), pi.d_to):
            raise AssertionError("interpolation failed to reproduce a node")
    return p


def indicator_interpolant(members, d: int) -> UniPoly:
    """Interpolant over all of U_d taking 1 on the members and 0 elsewhere."""
    members = set(members)
    return _root_interpolant({k: 0 for k in range(d) if k in members}, d, d)


def transport_assignment(p: UniPoly, assignment: OperatorAssignment) -> OperatorAssignment:
    return assignment.map(lambda M: apply_unipoly_matrix(p, M))


def _relabeled(inst: Instance, d: int, relations: dict, poly: UniPoly):
    """The instance's constraints over `relations` on a d-element domain, and
    the operator transport that applies `poly` to every operator."""
    mapped = Instance(d, inst.variables, inst.constraints, Language(d, relations))
    return mapped, lambda assignment: transport_assignment(poly, assignment)


# ---------------------------------------------------------------------------
# Endomorphisms, cores, constants


def _endomorphism_tables(language: Language):
    """The value tables of the unary maps preserving every relation, in
    lexicographic order, streamed from `search`: the variables are the domain
    values, and each tuple t of each relation R is the constraint
    R(f(t_1), ..., f(t_r)).  Raises on the guard before returning."""
    d = language.d
    if d > ENDO_GUARD:
        raise ValueError(f"endomorphism enumeration is guarded at d <= {ENDO_GUARD}")
    constraints = [(t, rel.tuples) for rel in language.relations.values() for t in rel.tuples]
    return search([range(d)] * d, constraints)


def endomorphisms(language: Language) -> list[UnaryMap]:
    """All unary maps preserving every relation, in lexicographic order."""
    return [UnaryMap(language.d, language.d, table) for table in _endomorphism_tables(language)]


def core(language: Language) -> tuple[UnaryMap, Language, UnaryMap]:
    """Idempotent minimum-image endomorphism, the relabeled core language,
    and the relabeling map.

    The returned relabeling is total on the source domain (it factors through
    the idempotent endomorphism) and restricts to an order-preserving
    bijection from the endomorphism's image onto 0..e-1.
    """
    table = min(_endomorphism_tables(language), key=lambda t: (len(set(t)), t))
    rho = UnaryMap(language.d, language.d, table)
    power = rho
    while power.compose(power) != power:
        power = power.compose(rho)
    rho = power
    image = sorted(set(rho.table))
    e = len(image)
    rank = {v: i for i, v in enumerate(image)}
    relabel = UnaryMap(language.d, e, tuple(rank[v] for v in rho.table))
    core_rels = {name: relabel.apply_relation(language[name]) for name in language.relations}
    return rho, Language(e, core_rels), relabel


def core_instance(inst: Instance):
    """Relabel an instance onto the core of its language.

    Returns the relabeled instance and an operator transport.  The transport
    applies the interpolant of the total relabeling map (endomorphism followed
    by the rank bijection); it carries satisfying assignments to satisfying
    assignments because relations are closed under their endomorphisms.
    """
    _, core_lang, relabel = core(inst.language)
    poly = _root_interpolant(dict(enumerate(relabel.table)), inst.d, core_lang.d)
    return _relabeled(inst, core_lang.d, core_lang.relations, poly)


def endomorphism_relation(language: Language) -> Relation:
    """Arity-d relation listing every endomorphism's value table.

    For a core language every listed tuple is a permutation of the whole
    domain; a non-core input is rejected.
    """
    d = language.d
    tuples = set()
    for table in _endomorphism_tables(language):
        if len(set(table)) != d:
            raise ValueError("language is not a core: found a non-permutation endomorphism")
        tuples.add(table)
    return Relation(d, d, frozenset(tuples))


ANCHOR_PREFIX = "anchor"


def constants_reduction(inst: Instance) -> Instance:
    """Eliminate constant (singleton unary) constraints: anchor variables
    v_0..v_{d-1}, one endomorphism-table constraint tying them together, and
    an equality per former constant constraint."""
    d = inst.d
    constant_names = {
        name
        for name, rel in inst.language.relations.items()
        if rel.arity == 1 and len(rel.tuples) == 1
    }
    gamma = {n: r for n, r in inst.language.relations.items() if n not in constant_names}
    rel_gamma = endomorphism_relation(Language(d, gamma))
    anchors = []
    for a in range(d):
        name = f"{ANCHOR_PREFIX}{a}"
        while name in inst.variables:
            name += "'"
        anchors.append(name)
    variables = list(inst.variables) + anchors
    constraints: list[tuple] = []
    for c in inst.constraints:
        if c.rel in constant_names:
            (value,) = next(iter(inst.language[c.rel].tuples))
            constraints.append(((c.scope[0], anchors[value]), EQUALITY))
        else:
            constraints.append((c.scope, c.rel))
    constraints.append((tuple(anchors), "endotable"))
    rels = dict(gamma)
    rels["endotable"] = rel_gamma
    rels.setdefault(EQUALITY, equality_relation(d))
    return make_instance(d, variables, constraints, rels)


def extend_with_anchor_scalars(assignment: OperatorAssignment, reduced: Instance) -> OperatorAssignment:
    """Operator transport for the constants reduction: anchor variables take
    the scalar operators lambda_a I."""
    anchor_scope = next(c.scope for c in reduced.constraints if c.rel == "endotable")
    out = dict(assignment.assign)
    for a, name in enumerate(anchor_scope):
        out[name] = root_value(a, reduced.d) * np.eye(assignment.dim)
    return OperatorAssignment(assignment.dim, out)


# ---------------------------------------------------------------------------
# Subdomain restriction and congruence factoring


def restrict_transport(inst: Instance, pi: UnaryMap):
    """Relabel an instance over a small domain through an injective map into
    a larger one; returns the relabeled instance and the operator transport
    that applies the interpolating polynomial to every operator."""
    if inst.d != pi.d_from:
        raise ValueError(f"instance domain {inst.d} does not match the map source {pi.d_from}")
    if not pi.is_injective():
        raise ValueError("restriction transport requires an injective map")
    rels = {name: pi.apply_relation(rel) for name, rel in inst.language.relations.items()}
    return _relabeled(inst, pi.d_to, rels, interpolate_map(pi))


@dataclass(frozen=True)
class Congruence:
    """Partition of 0..d-1 into congruence classes."""

    d: int
    classes: tuple  # of frozensets

    def __post_init__(self):
        seen: set = set()
        object.__setattr__(self, "classes", tuple(frozenset(c) for c in self.classes))
        for cls_ in self.classes:
            if not cls_:
                raise ValueError("congruence classes must be nonempty")
            if cls_ & seen:
                raise ValueError("congruence classes must be disjoint")
            seen |= cls_
        if seen != set(range(self.d)):
            raise ValueError("congruence classes must cover the domain")

    def sorted_classes(self) -> list:
        return sorted(self.classes, key=min)

    def projection(self) -> UnaryMap:
        """Class map d -> e, classes ranked by their smallest member."""
        table = [0] * self.d
        for rank, cls_ in enumerate(self.sorted_classes()):
            for a in cls_:
                table[a] = rank
        return UnaryMap(self.d, len(self.classes), tuple(table))

    def section(self) -> UnaryMap:
        """Smallest representative of each class, e -> d."""
        return UnaryMap(
            len(self.classes), self.d, tuple(min(cls_) for cls_ in self.sorted_classes())
        )


def factor_transport(inst: Instance, theta: Congruence):
    """Pull an instance over the factor domain back through the congruence:
    constraints become full preimage relations, the union over a relation's
    tuples of the products of their classes, and operator assignments are
    carried by the interpolant of the smallest-representative section."""
    classes = theta.sorted_classes()
    if inst.d != len(classes):
        raise ValueError(
            f"instance domain {inst.d} does not match the {len(classes)} congruence classes"
        )
    rels = {
        name: Relation(rel.arity, theta.d, frozenset(
            chain.from_iterable(product(*(classes[a] for a in t)) for t in rel.tuples)
        ))
        for name, rel in inst.language.relations.items()
    }
    return _relabeled(inst, theta.d, rels, interpolate_map(theta.section()))


# ---------------------------------------------------------------------------
# Operator extension along gadget expansion


def lift_assignment(
    inst: Instance,
    formula: PPFormula,
    target: str,
    assignment: OperatorAssignment,
    tol: float = DEFAULT_TOL,
    seed: int = 0,
) -> OperatorAssignment:
    """Extend a satisfying operator assignment of an instance to the gadget
    expansion of its target-relation constraints.

    Jointly diagonalizes each replaced constraint's scope operators, picks the
    lexicographically smallest witness tuple slot by slot, and conjugates the
    diagonal witnesses back.  Purely finite-dimensional.
    """
    base_lang = inst.language.without(target)
    rel = inst.language[target]
    d = inst.d
    witness = cache(_pp_witness(formula, base_lang))
    blocks = _gadget_blocks(inst, formula, target)
    out = dict(assignment.assign)
    for ci, c in enumerate(inst.constraints):
        if c.rel != target:
            continue
        mats = [assignment[v] for v in c.scope]
        U, diags = simultaneous_diagonalize(mats, tol=tol, seed=seed + ci)
        basis = U.conj().T
        slots = []
        for j in range(assignment.dim):
            entries = []
            for D in diags:
                val = D[j, j]
                k = int(round((np.angle(val) * d / (2 * np.pi))) % d)
                if abs(val - root_value(k, d)) > 1e-6:
                    raise ValueError("operator spectrum strays from the roots of unity")
                entries.append(k)
            point = tuple(entries)
            if point not in rel.tuples:
                raise ValueError(
                    "assignment does not satisfy the replaced constraint on a joint eigenspace"
                )
            slots.append(witness(point))
            if slots[-1] is None:
                raise ValueError(f"tuple {point} admits no witness; formula does not define the target")
        for k, name in enumerate(blocks[ci]):
            diag = np.diag([root_value(slots[j][k], d) for j in range(assignment.dim)])
            out[name] = basis @ diag @ U
    return OperatorAssignment(assignment.dim, out)


def restrict_to(assignment: OperatorAssignment, variables) -> OperatorAssignment:
    """Restriction onto a variable subset (e.g. the representatives left by
    an equality collapse, or the original variables of a padded instance)."""
    return OperatorAssignment(
        assignment.dim, {v: assignment[v] for v in variables}
    )

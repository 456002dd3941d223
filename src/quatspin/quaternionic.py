"""Hyperkaehler triple on R^{4m}, Kaehler operators, and the adapted basis.

The triple J_1, J_2, J_3 acts blockwise as left multiplication by the
quaternion units on each R^4 factor, in a basis ordered so that
e_{2j} = J_1 e_{2j-1} for every pair (adaptedness).  From it we build the
Kaehler operators on the spinor space, their Kraines-type sum, the
weight-shift components q^(+-)(x) = (x +- i J_1 x)/2 of a complexified
vector, and the isotropic adapted basis vectors f_j = q^-(e_{2j}), fbar_j =
q^+(e_{2j}) of the complexified R^{4m}.
The triple and the adapted basis are exact in both backends; the operators
on the spinor space are in the backend of the model's generators.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .clifford import basis_vector
from .errors import DomainError
from .exact import DenseMatrix, ExactScalar, SparseMatrix, commutator, fused_sum
from .report import VerificationReport, residual_entry
from .symmetry import orbits

# Left multiplication by i, j, k on H in the basis (1, i, j, k); columns are
# images of the basis vectors.
_J_BLOCKS = (
    [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]],
    [[0, 0, -1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, -1, 0, 0]],
    [[0, 0, 0, -1], [0, 0, -1, 0], [0, 1, 0, 0], [1, 0, 0, 0]],
)

_HALF = Fraction(1, 2)
_I = ExactScalar(0, 1)
_I_HALF = ExactScalar(0, _HALF)


def epsilon(a, b, c):
    """Levi-Civita symbol on 1-based indices."""
    return {(1, 2, 3): 1, (2, 3, 1): 1, (3, 1, 2): 1,
            (3, 2, 1): -1, (1, 3, 2): -1, (2, 1, 3): -1}.get((a, b, c), 0)


class HyperkahlerTriple(NamedTuple):
    """The three complex structures as n x n real matrices."""

    j: tuple

    def __getitem__(self, a):
        """1-based access: triple[1] is J_1."""
        if a not in (1, 2, 3):
            raise DomainError(f"complex-structure index must be 1, 2 or 3, got {a}")
        return self.j[a - 1]


def build_standard_triple(model):
    """Blockwise quaternion left multiplication, adapted to the basis pairing.

    Exact n x n signed permutations whatever the model's backend."""
    js = []
    for block in _J_BLOCKS:
        # the column and sign of the one nonzero in each row of the block
        cols, signs = zip(*(next((c, v) for c, v in enumerate(row) if v) for row in block))
        js.append(SparseMatrix.monomial([4 * t + c for t in range(model.m) for c in cols],
                                        signs * model.m, [0] * model.n))
    return HyperkahlerTriple(j=tuple(js))


def kaehler_form(model, triple, a):
    """Omega_a = (1/2) sum_i gamma_i * action(J_a e_i) on the spinor space.

    action(J_a e_i) = sum_k J_a[k, i] gamma_k, so Omega_a is the one fused
    sum (1/2) sum_{k,i} J_a[k, i] gamma_i gamma_k over the nonzeros of J_a.
    """
    den, entries = triple[a].numerators()
    g = model.gamma
    return fused_sum([(ExactScalar(Fraction(re, 2 * den), Fraction(im, 2 * den)), g[i], g[k])
                      for (k, i), (re, im) in entries.items()])


def kraines_form(model, omegas):
    """sum_a Omega_a^2 + 6m, the quaternionic 4-form acting on spinors."""
    return fused_sum([(1, om, om) for om in omegas], [(6 * model.m, model.identity())])


class KaehlerOperators(NamedTuple):
    """The three Kaehler operators and their Kraines-type sum."""

    omega: tuple
    kraines: DenseMatrix | SparseMatrix

    def __getitem__(self, a):
        if a not in (1, 2, 3):
            raise DomainError(f"Kaehler operator index must be 1, 2 or 3, got {a}")
        return self.omega[a - 1]


def build_kaehler_operators(model, triple):
    omegas = tuple(kaehler_form(model, triple, a) for a in (1, 2, 3))
    return KaehlerOperators(omega=omegas, kraines=kraines_form(model, omegas))


def q_plus(triple, x):
    """Weight-raising component (x + i J_1 x)/2 of a complexified vector."""
    return (x + (triple[1] @ x).scale(_I)).scale(_HALF)


def q_minus(triple, x):
    """Weight-lowering component (x - i J_1 x)/2."""
    return (x - (triple[1] @ x).scale(_I)).scale(_HALF)


class AdaptedBasis(NamedTuple):
    """Isotropic vectors f_j = (e_{2j-1} - i J_1 e_{2j-1})/2 and conjugates."""

    f: tuple
    f_bar: tuple


def build_adapted_basis(model, triple):
    """f_j = q^-(e_{2j}) and fbar_j = q^+(e_{2j}) = e_{2j} - f_j."""
    xs = [basis_vector(model, 2 * j) for j in range(2 * model.m)]
    fs = tuple(q_minus(triple, x) for x in xs)
    return AdaptedBasis(f=fs, f_bar=tuple(x - f for x, f in zip(xs, fs)))


def sl2_generators(ops):
    """O_1 = (i/2) Omega_1 and the ladder pair O^+ = (O_2 + i O_3)/2, O^-."""
    o1, o2, o3 = (ops[a].scale(_I_HALF) for a in (1, 2, 3))
    plus = (o2 + o3.scale(_I)).scale(_HALF)
    minus = (o2 - o3.scale(_I)).scale(_HALF)
    return o1, plus, minus


def structure_report(world, symmetry=None):
    """Verify the defining structural identities of a world's model.

    Clifford anticommutation, the quaternion relations and orthogonality of
    the triple, adaptedness of the basis pairing, the commutator table of the
    Kaehler operators, their compatibility with the Kraines sum, the ladder
    relations of the associated sl2 generators, and the Casimir identity.
    All residuals are exact zeros in the exact backend.

    `symmetry` is an optional `certify_line_symmetry(world)`.  When it
    passes on this world, the clifford_anticommutation rows are computed
    for one generator pair per orbit under the certified lifts: 9 pairs at
    every m >= 2.  The row of another pair copies its representative (see
    quatspin.symmetry).  Otherwise every row is computed directly.
    """
    model, triple, ops = world.model, world.triple, world.ops
    rep = VerificationReport()
    sub = f"m={model.m}"
    ident_s = model.identity()
    ident_n = SparseMatrix.identity(model.n)

    g, n = model.gamma, model.n
    # a lift moves the pair (i, j) to the sorted (sigma(i), sigma(j))
    for orbit in orbits(symmetry, world, [(i, j) for i in range(n) for j in range(i, n)],
                        lambda sigma, pair: tuple(sorted(sigma[c] for c in pair))):
        i, j = orbit[0]
        res = fused_sum([(1, g[i], g[j]), (1, g[j], g[i])], [(2 * int(i == j), ident_s)])
        rep.add_orbit(orbit, "clifford_anticommutation",
                      lambda pair: f"{sub} i={pair[0]} j={pair[1]}", res)

    for a in (1, 2, 3):
        rep.add(residual_entry("hk_orthogonality", f"{sub} a={a}", fused_sum(
            [(1, triple[a].transpose(), triple[a])], [(-1, ident_n)])))
        for b in (1, 2, 3):
            # J_a J_b = -delta_ab + sum_c eps_abc J_c
            rep.add(residual_entry("quaternion_relations", f"{sub} a={a} b={b}", fused_sum(
                [(1, triple[a], triple[b])],
                [(int(a == b), ident_n), *((-epsilon(a, b, c), triple[c]) for c in (1, 2, 3))])))

    for j in range(2 * model.m):
        res = triple[1] @ basis_vector(model, 2 * j) - basis_vector(model, 2 * j + 1)
        rep.add(residual_entry("hk_adaptedness", f"{sub} pair={j}", res))

    for a in (1, 2, 3):
        for b in (1, 2, 3):
            res = commutator(ops[a], ops[b],
                             [(-4 * epsilon(a, b, c), ops[c]) for c in (1, 2, 3)])
            rep.add(residual_entry("kaehler_commutators", f"{sub} a={a} b={b}",
                                   res))

    for a in (1, 2, 3):
        rep.add(residual_entry("kraines_commutes_weight", f"{sub} a={a}",
                               commutator(ops.kraines, ops[a])))

    # consistency of the operators with the model they claim to come from;
    # build_world derives them from it, so only a hand-assembled world fails
    for a in (1, 2, 3):
        rep.add(residual_entry("kaehler_rebuild", f"{sub} a={a}",
                               ops[a] - kaehler_form(model, triple, a)))
    rep.add(residual_entry(
        "kraines_rebuild", sub,
        ops.kraines - kraines_form(model, (ops[1], ops[2], ops[3]))))

    o1, plus, minus = sl2_generators(ops)
    for name, x, y, rhs in (("[O1,O+]=2O+", o1, plus, [(-2, plus)]),
                            ("[O1,O-]=-2O-", o1, minus, [(2, minus)]),
                            ("[O+,O-]=O1", plus, minus, [(-1, o1)])):
        rep.add(residual_entry("sl2_relations", f"{sub} {name}",
                               commutator(x, y, rhs)))

    # (1/8) sum_a o_a^2 - rhs with o_a = (i/2) Omega_a, rhs = -(Kraines - 6m)/32
    rep.add(residual_entry("casimir_identity", sub, fused_sum(
        [(Fraction(1, 8), o, o) for o in (ops[a].scale(_I_HALF) for a in (1, 2, 3))],
        [(Fraction(1, 32), ops.kraines), (Fraction(-6 * model.m, 32), ident_s)])))
    return rep

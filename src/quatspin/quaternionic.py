"""Hyperkaehler triple on R^{4m}, Kaehler operators, and the adapted basis.

The triple J_1, J_2, J_3 acts blockwise as left multiplication by the
quaternion units on each R^4 factor, in a basis ordered so that
e_{2j} = J_1 e_{2j-1} for every pair (adaptedness).  From it we build the
Kaehler operators on the spinor space, their Kraines-type sum, and the
isotropic adapted basis vectors f_j, fbar_j of the complexified R^{4m}.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .clifford import basis_vector, vector_action
from .errors import DomainError
from .exact import DenseMatrix, ExactScalar
from .sparse import SparseMatrix, matrix_type
from .report import VerificationReport, residual_entry

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


@dataclass(frozen=True)
class HyperkahlerTriple:
    """The three complex structures as n x n real matrices."""

    j: tuple

    def __getitem__(self, a):
        """1-based access: triple[1] is J_1."""
        if a not in (1, 2, 3):
            raise DomainError(f"complex-structure index must be 1, 2 or 3, got {a}")
        return self.j[a - 1]


def build_standard_triple(model):
    """Blockwise quaternion left multiplication, adapted to the basis pairing."""
    n = model.n
    js = []
    for block in _J_BLOCKS:
        arr = np.zeros((n, n), dtype=np.int64)
        for t in range(model.m):
            arr[4 * t:4 * t + 4, 4 * t:4 * t + 4] = block
        js.append(matrix_type(model.kind).from_rows(arr.tolist()))
    return HyperkahlerTriple(j=tuple(js))


def kaehler_form(model, triple, a):
    """Omega_a = (1/2) sum_i gamma_i * action(J_a e_i) on the spinor space."""
    j = triple[a]
    acc = model.zeros()
    for i in range(model.n):
        acc = acc + model.gamma[i] @ vector_action(model, j @ basis_vector(model, i))
    return acc.scale(_HALF)


def kraines_form(model, omegas):
    """sum_a Omega_a^2 + 6m, the quaternionic 4-form acting on spinors."""
    acc = model.identity().scale(6 * model.m)
    for om in omegas:
        acc = acc + om @ om
    return acc


@dataclass(frozen=True)
class KaehlerOperators:
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


@dataclass(frozen=True)
class AdaptedBasis:
    """Isotropic vectors f_j = (e_{2j-1} - i J_1 e_{2j-1})/2 and conjugates."""

    f: tuple
    f_bar: tuple


def build_adapted_basis(model, triple):
    j1 = triple[1]
    fs, fbars = [], []
    for j in range(2 * model.m):
        x = basis_vector(model, 2 * j)
        iy = (j1 @ x).scale(_I)
        fs.append((x - iy).scale(_HALF))
        fbars.append((x + iy).scale(_HALF))
    return AdaptedBasis(f=tuple(fs), f_bar=tuple(fbars))


def sl2_generators(ops):
    """O_1 = (i/2) Omega_1 and the ladder pair O^+ = (O_2 + i O_3)/2, O^-."""
    o1, o2, o3 = (ops[a].scale(_I_HALF) for a in (1, 2, 3))
    plus = (o2 + o3.scale(_I)).scale(_HALF)
    minus = (o2 - o3.scale(_I)).scale(_HALF)
    return o1, plus, minus


def structure_report(model, triple, ops):
    """Verify the defining structural identities of the model.

    Clifford anticommutation, the quaternion relations and orthogonality of
    the triple, adaptedness of the basis pairing, the commutator table of the
    Kaehler operators, their compatibility with the Kraines sum, the ladder
    relations of the associated sl2 generators, and the Casimir identity.
    All residuals are exact zeros in the exact backend.
    """
    rep = VerificationReport()
    sub = f"m={model.m}"
    ident_s = model.identity()
    ident_n = matrix_type(model.kind).identity(model.n)

    for i, gi in enumerate(model.gamma):
        for j in range(i, model.n):
            gj = model.gamma[j]
            res = gi @ gj + gj @ gi
            if i == j:
                res = res + ident_s.scale(2)
            rep.add(residual_entry("clifford_anticommutation",
                                   f"{sub} i={i} j={j}", res))

    for a in (1, 2, 3):
        rep.add(residual_entry("hk_orthogonality", f"{sub} a={a}",
                               triple[a].transpose() @ triple[a] - ident_n))
        for b in (1, 2, 3):
            expect = matrix_type(model.kind).zeros(model.n, model.n)
            if a == b:
                expect = expect - ident_n
            for c in (1, 2, 3):
                e = epsilon(a, b, c)
                if e:
                    expect = expect + triple[c].scale(e)
            rep.add(residual_entry("quaternion_relations", f"{sub} a={a} b={b}",
                                   triple[a] @ triple[b] - expect))

    for j in range(2 * model.m):
        res = triple[1] @ basis_vector(model, 2 * j) - basis_vector(model, 2 * j + 1)
        rep.add(residual_entry("hk_adaptedness", f"{sub} pair={j}", res))

    for a in (1, 2, 3):
        for b in (1, 2, 3):
            expect = model.zeros()
            for c in (1, 2, 3):
                e = epsilon(a, b, c)
                if e:
                    expect = expect + ops[c].scale(4 * e)
            res = ops[a] @ ops[b] - ops[b] @ ops[a] - expect
            rep.add(residual_entry("kaehler_commutators", f"{sub} a={a} b={b}",
                                   res))

    for a in (1, 2, 3):
        res = ops.kraines @ ops[a] - ops[a] @ ops.kraines
        rep.add(residual_entry("kraines_commutes_weight", f"{sub} a={a}", res))

    # consistency of the supplied operators with the model they claim to
    # come from; this is what catches a tampered generator
    for a in (1, 2, 3):
        rep.add(residual_entry("kaehler_rebuild", f"{sub} a={a}",
                               ops[a] - kaehler_form(model, triple, a)))
    rep.add(residual_entry(
        "kraines_rebuild", sub,
        ops.kraines - kraines_form(model, (ops[1], ops[2], ops[3]))))

    o1, plus, minus = sl2_generators(ops)
    rep.add(residual_entry("sl2_relations", f"{sub} [O1,O+]=2O+",
                           o1 @ plus - plus @ o1 - plus.scale(2)))
    rep.add(residual_entry("sl2_relations", f"{sub} [O1,O-]=-2O-",
                           o1 @ minus - minus @ o1 + minus.scale(2)))
    rep.add(residual_entry("sl2_relations", f"{sub} [O+,O-]=O1",
                           plus @ minus - minus @ plus - o1))

    casimir = model.zeros()
    for o in (ops[a].scale(_I_HALF) for a in (1, 2, 3)):
        casimir = casimir + o @ o
    lhs = casimir.scale(Fraction(1, 8))
    rhs = (ops.kraines - ident_s.scale(6 * model.m)).scale(Fraction(-1, 32))
    rep.add(residual_entry("casimir_identity", sub, lhs - rhs))
    return rep

"""Joint eigenspace decomposition of the spinor module.

The Kraines-type operator and the first Kaehler operator commute, so the
spinor space splits into joint eigenblocks S_r^k indexed by r in 0..m
(eigenvalue 6m - 4r(r+2)) and k in 0..2m (eigenvalue i(2m - 2k)).  A block
can be nonzero only when (k + r - m)/2 is an integer in 0..r.  Omega_1 is
diagonal in the model's basis, so the weight projectors are read off its
diagonal and certified; on each weight space the block projectors are a
certified Lagrange family of Kraines over the allowed levels alone.  A
block's dimension is its projector's trace.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import DomainError, SpectrumError
from .exact import (FLOAT_SCALAR_TOL, FLOAT_TOL, DenseMatrix, ExactScalar, SparseMatrix,
                    commutator, diagonal_eigenprojectors, fused_sum, lagrange_eigenprojectors)
from .clifford import CliffordModel
from .quaternionic import (HyperkahlerTriple, KaehlerOperators, build_kaehler_operators,
                           build_standard_triple)
from .report import VerificationReport, bool_entry, info_entry, residual_entry
from .symmetry import orbits


def omega_eigenvalue(m, r):
    """Kraines operator eigenvalue on S_r: 6m - 4r(r+2)."""
    return 6 * m - 4 * r * (r + 2)


def weight_eigenvalue(m, k):
    """First Kaehler operator eigenvalue on S^k: i(2m - 2k)."""
    return ExactScalar(0, 2 * m - 2 * k)


def lattice_allows(m, r, k):
    """Whether the block S_r^k may be nonzero: (k+r-m)/2 in {0, ..., r}."""
    if (k + r - m) % 2:
        return False
    s = (k + r - m) // 2
    return 0 <= s <= r


class Block(NamedTuple):
    """One joint eigenblock: its certified projector and dimension (= trace)."""

    r: int
    k: int
    dim: int
    projector: DenseMatrix | SparseMatrix
    omega_eig: int
    weight_im: int


class JointDecomposition(NamedTuple):
    """The blocks S_r^k, and the level (r) and weight (k) projector families.

    k_projectors are the spectral projectors of `omega1`, read off its
    diagonal and certified, the blocks of weight k the certified Lagrange
    family of `kraines` within P_k, and r_projectors[r] the sum of the
    blocks of level r; `kraines` and `omega1` built them.
    """

    m: int
    blocks: dict
    kraines: DenseMatrix | SparseMatrix
    omega1: DenseMatrix | SparseMatrix
    r_projectors: dict
    k_projectors: dict

    def block(self, r, k):
        if not (0 <= r <= self.m and 0 <= k <= 2 * self.m):
            raise DomainError(
                f"(r={r}, k={k}) outside the grid 0..{self.m} x 0..{2 * self.m}")
        return self.blocks[(r, k)]

    def nonzero_blocks(self):
        return [b for (_, b) in sorted(self.blocks.items()) if b.dim > 0]


def _integer_trace(p):
    t = p.trace()
    if isinstance(t, complex):
        d = round(t.real)
        cut = max(FLOAT_TOL * p.rows, FLOAT_SCALAR_TOL)
        if abs(t.imag) > cut or abs(t.real - d) > cut:
            raise SpectrumError(f"projector trace {t} is not close to an integer")
        return int(d)
    if t.im != 0 or t.re.denominator != 1 or t.re < 0:
        raise SpectrumError(f"projector trace {t} is not a nonnegative integer")
    return int(t.re)


def decompose(model, ops):
    """Split the spinor space into joint eigenblocks of (Kraines, Omega_1).

    The weight projectors P_k are read off the diagonal of Omega_1
    (`diagonal_eigenprojectors`): Omega_1 must be diagonal with every
    diagonal value a stated weight i(2m - 2k), and each P_k, the 0/1
    diagonal of the positions of weight k, is certified by its
    eigen-equation.  The blocks P_{r,k} of weight k are the certified
    Lagrange family of Kraines K within P_k, over the levels lattice_allows
    admits, and P_r = sum_k P_{r,k}.  Both spectra are exact in both
    backends.

    The P_k are orthogonal idempotents summing to I with Omega_1 =
    sum_k i(2m - 2k) P_k, so they are the spectral projectors of Omega_1
    and each is a polynomial in it.  K and Omega_1 must commute, so every
    P_k commutes with K.  One eigen-equation (K - omega_r) P_{r,k} = 0 per
    lattice block gives prod_allowed (K - omega) P_k = 0: K restricted to
    S^k is diagonalizable with spectrum inside the lattice set, and the
    P_{r,k} are its spectral projectors, idempotent, pairwise orthogonal
    and summing to P_k.  So the lattice rule is certified, a block's trace is
    its rank, and as the P_k sum to I the ranks sum to 4^m.  A failed
    certificate or commutator, an Omega_1 off the diagonal or off the
    stated weights, or a weight with no allowed level raises
    SpectrumError.  Every grid position is stored, an off-lattice block as
    the zero matrix.
    """
    m = model.m
    residual = commutator(ops.kraines, ops[1])
    if not residual.is_zero():
        raise SpectrumError("Kraines form and Omega_1 do not commute "
                            f"(residual {residual.max_abs():.3e})")
    weights = [weight_eigenvalue(m, k) for k in range(2 * m + 1)]
    k_proj = dict(enumerate(diagonal_eigenprojectors(ops[1], weights).values()))
    zero, blocks = model.zeros(), {}
    for k, weight in k_proj.items():
        allowed = [omega_eigenvalue(m, r) for r in range(m + 1) if lattice_allows(m, r, k)]
        if not allowed:
            raise SpectrumError(f"no level is allowed on the weight space k={k} "
                                f"of dimension {_integer_trace(weight)}")
        levels = lagrange_eigenprojectors(ops.kraines, allowed, within=weight)
        for r in range(m + 1):
            proj = levels.get(omega_eigenvalue(m, r), zero)
            blocks[(r, k)] = Block(r=r, k=k, dim=_integer_trace(proj), projector=proj,
                                   omega_eig=omega_eigenvalue(m, r),
                                   weight_im=2 * m - 2 * k)
    r_proj = {r: fused_sum(terms=[(1, blocks[(r, k)].projector) for k in k_proj])
              for r in range(m + 1)}
    return JointDecomposition(m=m, blocks=blocks,
                              kraines=ops.kraines, omega1=ops[1],
                              r_projectors=r_proj, k_projectors=k_proj)


class World(NamedTuple):
    """One m as every check reads it: a Clifford model, its triple, the
    Kaehler operators of its own generators, and the decomposition."""

    model: CliffordModel
    triple: HyperkahlerTriple
    ops: KaehlerOperators
    dec: JointDecomposition


def build_world(model, dec=None):
    """The world of `model`, over `dec` (by default decompose(model, ops)).

    The operators always come from the model's own generators.  A negative
    control passes the standard world's dec, the stated object, so that a
    corruption is a function on the generator list only.
    """
    triple = build_standard_triple(model)
    ops = build_kaehler_operators(model, triple)
    return World(model, triple, ops, decompose(model, ops) if dec is None else dec)


def decomposition_report(world, symmetry=None):
    """Re-certify the world's decomposition against its model and operators.

    Checks the stated eigenvalue pairs on every nonzero block, the presence
    rule, the dimension count, and that every Clifford generator maps each
    block into the four diagonal neighbor blocks only.

    The two eigen-residuals of a block P, Kraines P - omega_r P and
    Omega_1 P - i(2m - 2k) P, are formed once each and reported under two
    check_ids: block_projector_eigen (the stated spectrum) and
    block_scalar_kraines / block_scalar_weight (the restriction scalars of
    the lemma suite).  Both read the world's operators, so a corrupted
    generator list fails them together.

    The neighbor check reads the marginal families P_r (levels) and P_k
    (weights).  Per generator g it forms one residual per level and one
    per weight,

        R_r = g P_r - N_r g P_r,  N_r = P_{r-1} + P_{r+1},
        R_k = g P_k - N_k g P_k,  N_k = P_{k-1} + P_{k+1},

    where an index outside the grid contributes nothing.  Each family is a
    set of orthogonal idempotents summing to I, so P_r' R_r = P_r' g P_r for
    |r' - r| != 1 and 0 otherwise: R_r = 0 exactly when g moves S_r only
    to S_{r+-1}, and the same for R_k.  A failing row names the first
    level (weight) that R reaches, which is therefore not adjacent.

    Together the two claims are exactly the joint one, g P_{r,k} =
    sum_{nonzero d = (r+-1, k+-1)} P_d g P_{r,k} on every nonzero block.
    The families are polynomials in two operators that decompose certifies
    to commute, so P_{r,k} = P_r P_k = P_k P_r, and a block of dimension 0 is exactly
    zero (an idempotent of trace 0), so N_r N_k is the sum of the nonzero
    joint neighbor projectors.  Marginal to joint: g P_{r,k} = N_r g P_r P_k
    = N_r g P_k P_r = N_r N_k g P_{r,k}.  Joint to marginal: by the joint
    claim g P_r = sum_k g P_{r,k} is a sum of terms P_d g P_{r,k} with d at
    level r+-1, and N_r P_d = P_d for each, so g P_r = N_r g P_r; the same
    over r gives g P_k = N_k g P_k.

    `symmetry` is an optional `certify_line_symmetry(world)`.  When it
    passes on this world, the neighbor rows are computed for the
    generators i = 0 and 1 only, representatives of the even and the odd
    i, and the row of another i copies its representative: each lift
    commutes with every P_r, P_k and N (see quatspin.symmetry).
    Otherwise every row is computed directly.
    """
    model, ops, dec = world.model, world.ops, world.dec
    rep = VerificationReport()
    m = dec.m
    sub = f"m={m}"

    total = 0
    for (r, k), blk in sorted(dec.blocks.items()):
        total += blk.dim
        allowed = lattice_allows(m, r, k)
        if blk.dim > 0 and not allowed:
            note = "nonzero block off the parity lattice"
        elif blk.dim == 0 and allowed:
            note = "lattice-allowed block is missing"
        else:
            note = ""
        # the witness is the dimension of an extra block, 1 for a missing one
        rep.add(bool_entry("block_lattice", f"{sub} r={r} k={k}", not note,
                           str(max(blk.dim, 1)), note))
        if blk.dim == 0:
            continue
        p = blk.projector
        for claim, res, scalar_id, note in (
                ("kraines", ops.kraines @ p - p.scale(blk.omega_eig),
                 "block_scalar_kraines", ""),
                ("weight", ops[1] @ p - p.scale(weight_eigenvalue(m, k)),
                 "block_scalar_weight", "weight scalar carries the explicit i")):
            rep.add(residual_entry("block_projector_eigen",
                                   f"{sub} r={r} k={k} {claim}", res))
            rep.add(residual_entry(scalar_id, f"{sub} r={r} k={k}", res, note))
        ok = allowed and blk.weight_im == 2 * r - 4 * ((k + r - m) // 2)
        rep.add(bool_entry("weight_consistency", f"{sub} r={r} k={k}", ok))

    rep.add(bool_entry("block_dimension_sum", sub, total == model.spinor_dim,
                       str(abs(total - model.spinor_dim))))

    # a lift moves the generator index i to sigma(i)
    generators = orbits(symmetry, world, range(model.n), lambda sigma, i: sigma[i])
    for label, family in (("r", dec.r_projectors), ("k", dec.k_projectors)):
        for idx, proj in sorted(family.items()):
            adjacent = [family[n] for n in (idx - 1, idx + 1) if n in family]
            near = sum(adjacent[1:], adjacent[0])
            for orbit in generators:
                img = model.gamma[orbit[0]] @ proj
                res = img - near @ img
                hit = None if res.is_zero() else next(
                    (n for n, p in sorted(family.items()) if not (p @ res).is_zero()), None)
                note = "" if hit is None else f"reaches {label}={hit}"
                rep.add_orbit(orbit, "clifford_neighbor_blocks",
                              lambda i: f"{sub} i={i} {label}={idx}", res, note)

    rep.add(info_entry(
        "weight_orientation", sub,
        "realized convention: (i/2)*Omega_1 acts as k-m on S_r^k, so s=0 "
        "(k=m-r) is the lowest ladder weight and s=r the highest"))
    return rep

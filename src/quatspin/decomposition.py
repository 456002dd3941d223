"""Joint eigenspace decomposition of the spinor module.

The Kraines-type operator and the first Kaehler operator commute, so the
spinor space splits into joint eigenblocks S_r^k indexed by r in 0..m
(eigenvalue 6m - 4r(r+2)) and k in 0..2m (eigenvalue i(2m - 2k)).  A block
can be nonzero only when (k + r - m)/2 is an integer in 0..r.  Each block
projector is the product of two certified Lagrange projectors, one per
operator; their dimension is the projector's trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import DomainError, SpectrumError
from .exact import DenseMatrix, ExactScalar, lagrange_eigenprojectors, scalar_for
from .quaternionic import build_kaehler_operators
from .report import CheckEntry, VerificationReport, info_entry, residual_entry


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


@dataclass(frozen=True)
class Block:
    """One joint eigenblock: its certified projector and dimension (= trace)."""

    r: int
    k: int
    dim: int
    projector: DenseMatrix
    omega_eig: int
    weight_im: int


@dataclass
class JointDecomposition:
    m: int
    kind: str
    spinor_dim: int
    blocks: dict
    r_projectors: dict = field(repr=False, default_factory=dict)
    k_projectors: dict = field(repr=False, default_factory=dict)

    def block(self, r, k):
        if not (0 <= r <= self.m and 0 <= k <= 2 * self.m):
            raise DomainError(
                f"(r={r}, k={k}) outside the grid 0..{self.m} x 0..{2 * self.m}")
        return self.blocks[(r, k)]

    def nonzero_blocks(self):
        return [b for (_, b) in sorted(self.blocks.items()) if b.dim > 0]


def _integer_trace(p, tol):
    t = p.trace()
    if isinstance(t, complex):
        d = round(t.real)
        cut = 1e-6 if tol is None else max(tol * p.rows, 1e-9)
        if abs(t.imag) > cut or abs(t.real - d) > cut:
            raise SpectrumError(f"projector trace {t} is not close to an integer")
        return int(d)
    if t.im != 0 or t.re.denominator != 1 or t.re < 0:
        raise SpectrumError(f"projector trace {t} is not a nonnegative integer")
    return int(t.re)


def decompose(model, ops, tol=None):
    """Split the spinor space into joint eigenblocks of (Kraines, Omega_1).

    Both marginal projector families are built by certified Lagrange
    interpolation from the stated spectra.  The two operators must commute,
    so each block projector P_r P_k is idempotent and its trace is its rank;
    the blocks sum to (sum P_r)(sum P_k) = I, so the ranks sum to 4^m.  A
    failed certificate or commutator raises SpectrumError.  Every grid
    position is stored, absent blocks with dim 0.
    """
    m = model.m
    commutator = ops.kraines @ ops[1] - ops[1] @ ops.kraines
    if not commutator.is_zero(tol):
        raise SpectrumError("Kraines form and Omega_1 do not commute "
                            f"(residual {commutator.max_abs():.3e})")
    r_values = [omega_eigenvalue(m, r) for r in range(m + 1)]
    k_values = [weight_eigenvalue(m, k) for k in range(2 * m + 1)]
    p_r = lagrange_eigenprojectors(ops.kraines, r_values, tol)
    p_k = lagrange_eigenprojectors(ops[1], k_values, tol)
    r_proj = {r: p_r[scalar_for(ops.kraines, v)] for r, v in enumerate(r_values)}
    k_proj = {k: p_k[scalar_for(ops[1], v)] for k, v in enumerate(k_values)}

    blocks = {}
    for r in range(m + 1):
        for k in range(2 * m + 1):
            proj = r_proj[r] @ k_proj[k]
            dim = _integer_trace(proj, tol)
            blocks[(r, k)] = Block(r=r, k=k, dim=dim, projector=proj,
                                   omega_eig=omega_eigenvalue(m, r),
                                   weight_im=2 * m - 2 * k)
    return JointDecomposition(m=m, kind=model.kind, spinor_dim=model.spinor_dim,
                              blocks=blocks, r_projectors=r_proj, k_projectors=k_proj)


def block_dimension(dec, r, k):
    """Dimension of S_r^k; DomainError outside the grid."""
    return dec.block(r, k).dim


def decomposition_report(dec, model, triple, tol=None):
    """Re-certify the decomposition against a model.

    Rebuilds the Kaehler forms from (model, triple) and checks the stated
    eigenvalue pairs on every nonzero block, the presence rule, the dimension
    count, and that every Clifford generator maps each block into the four
    diagonal neighbor blocks only.

    The neighbor check is one residual per generator g and nonzero block,
    R = g P_src - sum_{neighbors d} P_d g P_src.  The block projectors are
    orthogonal idempotents summing to I (see decompose), so P_d R = P_d g P_src
    for every non-neighbor d and R is their sum: R = 0 exactly when each
    P_d g P_src = 0.  A failing row names one non-neighbor block R reaches.
    """
    rep = VerificationReport()
    m = dec.m
    sub = f"m={m}"

    ops = build_kaehler_operators(model, triple)

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
        rep.add(CheckEntry("block_lattice", f"{sub} r={r} k={k}",
                           "fail" if note else "pass",
                           str(blk.dim) if note else "0", note))
        if blk.dim == 0:
            continue
        rep.add(residual_entry(
            "block_projector_eigen", f"{sub} r={r} k={k} kraines",
            ops.kraines @ blk.projector - blk.projector.scale(blk.omega_eig), tol))
        wt = weight_eigenvalue(m, k)
        rep.add(residual_entry(
            "block_projector_eigen", f"{sub} r={r} k={k} weight",
            ops[1] @ blk.projector - blk.projector.scale(wt), tol))
        ok = allowed and blk.weight_im == 2 * r - 4 * ((k + r - m) // 2)
        rep.add(CheckEntry("weight_consistency", f"{sub} r={r} k={k}",
                           "pass" if ok else "fail", "0" if ok else "1"))

    rep.add(CheckEntry("block_dimension_sum", sub,
                       "pass" if total == dec.spinor_dim else "fail",
                       "0" if total == dec.spinor_dim else str(total - dec.spinor_dim)))

    nonzero = dec.nonzero_blocks()
    for i in range(model.n):
        for src in nonzero:
            img = model.gamma[i] @ src.projector
            res, far = img, []
            for dst in nonzero:
                if abs(dst.r - src.r) == 1 and abs(dst.k - src.k) == 1:
                    res = res - dst.projector @ img
                else:
                    far.append(dst)
            entry = residual_entry("clifford_neighbor_blocks",
                                   f"{sub} i={i} ({src.r},{src.k})", res, tol)
            if entry.status == "fail":
                hit = next((d for d in far
                            if not (d.projector @ res).is_zero(tol)), None)
                entry.note = f"reaches ({hit.r},{hit.k})" if hit else ""
            rep.add(entry)

    rep.add(info_entry(
        "weight_orientation", sub,
        "realized convention: (i/2)*Omega_1 acts as k-m on S_r^k, so s=0 "
        "(k=m-r) is the lowest ladder weight and s=r the highest"))
    return rep

"""Projector calculus on the adapted basis and the block transition constants.

Implements the first-order operators built from a complexified vector x:
its Clifford action a(x), the combination J(x) = sum_a Omega_a a(J_a x)
+ 3 a(x), the weight-shift components q^(+-)(x) = (x +- i J_1 x)/2, and the
degree-shift components

    p_r^+(x) = ((2r+1) a(x) - J(x)) / (4(r+1))   (S_r -> S_{r+1})
    p_r^-(x) = ((2r+3) a(x) + J(x)) / (4(r+1))   (S_r -> S_{r-1})

together with an exact verifier for the operator identities these satisfy,
and the scalars A^{s1 s2}_{r,k} by which the two-step compositions act on
each joint block.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .clifford import basis_vector, vector_action
from .decomposition import weight_eigenvalue
from .errors import DomainError, IdentityFailure
from .exact import DenseMatrix, ExactScalar, scalar_for
from .report import CheckEntry, VerificationReport, info_entry, residual_entry

_VARIANTS = ("--", "+-", "-+", "++")
_HALF = Fraction(1, 2)
_I = ExactScalar(0, 1)
_I_HALF = ExactScalar(0, _HALF)

# variant -> (left factor sign, right factor sign, left vector, right vector);
# the first character is the degree shift of the left factor, the second
# selects the vector pattern: "-" pairs (f, fbar), "+" pairs (fbar, f)
_VARIANT_TABLE = {
    "--": (-1, +1, "f", "fbar"),
    "+-": (+1, -1, "f", "fbar"),
    "-+": (-1, +1, "fbar", "f"),
    "++": (+1, -1, "fbar", "f"),
}


def q_plus(model, triple, x):
    """Weight-raising component (x + i J_1 x)/2 of a complexified vector."""
    return (x + (triple[1] @ x).scale(_I)).scale(_HALF)


def q_minus(model, triple, x):
    """Weight-lowering component (x - i J_1 x)/2."""
    return (x - (triple[1] @ x).scale(_I)).scale(_HALF)


def j_operator(model, triple, ops, x):
    """J(x) = sum_a Omega_a a(J_a x) + 3 a(x) as a spinor endomorphism."""
    out = vector_action(model, x).scale(3)
    for a in (1, 2, 3):
        out = out + ops[a] @ vector_action(model, triple[a] @ x)
    return out


def _p_combination(r, sign, act, jop):
    if r < 0:
        raise DomainError(f"degree index r must be nonnegative, got {r}")
    c = Fraction(1, 4 * (r + 1))
    if sign > 0:
        return (act.scale(2 * r + 1) - jop).scale(c)
    return (act.scale(2 * r + 3) + jop).scale(c)


def p_plus(model, triple, ops, r, x):
    """Degree-raising component of the Clifford action of x at level r."""
    return _p_combination(r, +1, vector_action(model, x),
                          j_operator(model, triple, ops, x))


def p_minus(model, triple, ops, r, x):
    """Degree-lowering component of the Clifford action of x at level r."""
    return _p_combination(r, -1, vector_action(model, x),
                          j_operator(model, triple, ops, x))


class ProjectorCalculus:
    """Cached endomorphisms for the adapted basis of one model.

    Holds a(f_j), a(fbar_j), J(f_j), J(fbar_j), the rotated actions
    a(J_a f_j) for a in {2, 3}, the mixed sums

        L    = sum_{a in 2,3} Omega_a sum_j a(f_j) a(J_a fbar_j)
        Lbar = sum_{a in 2,3} Omega_a sum_j a(fbar_j) a(J_a f_j)

    and the plain product sums sum_j a(f_j) a(fbar_j) and its reverse.
    p_r^{+-} of any cached vector is then a scale-and-add, so the lemma
    suite and the block constants cost roughly one product per check.
    """

    def __init__(self, model, triple, ops, basis):
        self.model = model
        self.triple = triple
        self.ops = ops
        self.basis = basis
        self.pairs = 2 * model.m

        self.act_f = [vector_action(model, f) for f in basis.f]
        self.act_fbar = [vector_action(model, fb) for fb in basis.f_bar]
        self.jop_f = [j_operator(model, triple, ops, f) for f in basis.f]
        self.jop_fbar = [j_operator(model, triple, ops, fb) for fb in basis.f_bar]

        self.act_jf = {a: [vector_action(model, triple[a] @ f) for f in basis.f]
                       for a in (2, 3)}
        self.act_jfbar = {a: [vector_action(model, triple[a] @ fb)
                              for fb in basis.f_bar] for a in (2, 3)}

        dim = model.spinor_dim
        zero = DenseMatrix.zeros(dim, dim, kind=model.kind)
        self.mixed_f_fbar = {}
        self.mixed_fbar_f = {}
        for a in (2, 3):
            acc1, acc2 = zero, zero
            for j in range(self.pairs):
                acc1 = acc1 + self.act_f[j] @ self.act_jfbar[a][j]
                acc2 = acc2 + self.act_fbar[j] @ self.act_jf[a][j]
            self.mixed_f_fbar[a] = acc1
            self.mixed_fbar_f[a] = acc2

        self.l_op = zero
        self.l_bar_op = zero
        for a in (2, 3):
            self.l_op = self.l_op + ops[a] @ self.mixed_f_fbar[a]
            self.l_bar_op = self.l_bar_op + ops[a] @ self.mixed_fbar_f[a]

        self.sum_f_fbar = zero
        self.sum_fbar_f = zero
        for j in range(self.pairs):
            self.sum_f_fbar = self.sum_f_fbar + self.act_f[j] @ self.act_fbar[j]
            self.sum_fbar_f = self.sum_fbar_f + self.act_fbar[j] @ self.act_f[j]

    def p_f(self, r, sign, j):
        return _p_combination(r, sign, self.act_f[j], self.jop_f[j])

    def p_fbar(self, r, sign, j):
        return _p_combination(r, sign, self.act_fbar[j], self.jop_fbar[j])


def closed_form_A(m, r, k, variant):
    """The block transition constants as explicit rational functions.

    variant encodes the two-step composition (degree shift of the left and
    right factor): "--" is p_{r+1}^- p_r^+ on the conjugate pair pattern
    (f, fbar), "+-" is p_{r-1}^+ p_r^-, "-+" and "++" swap the pattern to
    (fbar, f).
    """
    if variant not in _VARIANTS:
        raise DomainError(f"unknown variant {variant!r}; expected one of {_VARIANTS}")
    if r < 0 or k < 0:
        raise DomainError("block indices must be nonnegative")
    den = 2 * (r + 1)
    if variant == "--":
        return Fraction((-m + r) * (2 + k - m + r), den)
    if variant == "+-":
        return Fraction((k - m - r) * (2 + m + r), den)
    if variant == "-+":
        return Fraction((-m + r) * (2 - k + m + r), den)
    return Fraction((-k + m - r) * (2 + m + r), den)


def _restriction_scalar(op, proj, tol):
    """The scalar s with op|block = s * id, certified; IdentityFailure otherwise."""
    comp = op @ proj
    idx = proj.first_nonzero_index(tol)
    if idx is None:
        raise DomainError("restriction to a zero block has no scalar")
    pivot = proj[idx]
    s = comp[idx] / pivot
    if not (comp - proj.scale(s)).is_zero(tol):
        raise IdentityFailure(
            f"operator is not scalar on the block (residual "
            f"{(comp - proj.scale(s)).max_abs():.3e})")
    return s


def compute_A(model, dec, calc, r, k, variant, tol=None):
    """Evaluate sum_j (left p)(right p) on the block S_r^k and certify that
    the restriction is a scalar multiple of the identity.

    Returns that scalar (ExactScalar, or complex in the float backend).  For
    r = 0 with a raising left factor the composition passes through the
    empty degree level; the right factor is certified to annihilate the
    block and the scalar is 0.
    """
    blk = dec.block(r, k)
    if blk.dim == 0:
        raise DomainError(f"block (r={r}, k={k}) is zero; no restriction scalar")
    if variant not in _VARIANTS:
        raise DomainError(f"unknown variant {variant!r}")
    left_sign, right_sign, left_vec, right_vec = _VARIANT_TABLE[variant]
    left_level = r + 1 if left_sign < 0 else r - 1
    p_of = {"f": calc.p_f, "fbar": calc.p_fbar}

    if left_level < 0:
        # right factor maps S_0 into the empty level below, so the
        # composition is zero regardless of the (undefined) left factor
        for j in range(calc.pairs):
            right = p_of[right_vec](r, right_sign, j)
            if not (right @ blk.projector).is_zero(tol):
                raise IdentityFailure(
                    f"p_0^- does not annihilate block (r={r}, k={k})")
        return scalar_for(blk.projector, 0)

    dim = model.spinor_dim
    total = DenseMatrix.zeros(dim, dim, kind=model.kind)
    for j in range(calc.pairs):
        left = p_of[left_vec](left_level, left_sign, j)
        right = p_of[right_vec](r, right_sign, j)
        total = total + left @ right
    return _restriction_scalar(total, blk.projector, tol)


@dataclass(frozen=True)
class BlockConstant:
    """One computed block constant, judged against its closed form.

    `computed` is the display form of the computed scalar, None when the
    composition is not scalar on the block; `residual` is "0" on a match.
    """

    r: int
    k: int
    variant: str
    closed: Fraction
    computed: str | None
    ok: bool
    residual: str
    note: str


def block_constants(model, dec, calc, tol=None):
    """Compute every block constant and judge it against its closed form.

    The float backend matches within 10*tol (1e-8 when tol is None); the
    exact backend requires equality.  A mismatched row's residual is the
    modulus |computed - closed form| in both.  A composition that is not
    scalar on its block is a failed row, not an error.
    """
    rows = []
    for blk in dec.nonzero_blocks():
        for variant in _VARIANTS:
            expect = closed_form_A(model.m, blk.r, blk.k, variant)
            note = "twistor normalization undefined (A = 0)" if expect == 0 else ""
            try:
                got = compute_A(model, dec, calc, blk.r, blk.k, variant, tol)
            except IdentityFailure as exc:
                rows.append(BlockConstant(blk.r, blk.k, variant, expect, None, False,
                                          "nan", f"not scalar on block: {exc}"))
                continue
            if model.kind == "float":
                resid = abs(got - complex(expect))
                ok = resid <= (1e-8 if tol is None else 10 * tol)
                computed = f"{got.real:.12g}"
            else:
                ok = got == expect
                resid = 0 if ok else float((got - expect).abs2()) ** 0.5
                computed = str(got)
            rows.append(BlockConstant(blk.r, blk.k, variant, expect, computed, ok,
                                      "0" if ok else f"{float(resid):.3e}", note))
    return rows


def constants_report(model, dec, calc, tol=None):
    """Compare every computed block constant against its closed form."""
    rep = VerificationReport()
    for c in block_constants(model, dec, calc, tol):
        rep.add(CheckEntry("block_constant_match",
                           f"m={model.m} r={c.r} k={c.k} variant={c.variant}",
                           "pass" if c.ok else "fail", c.residual, c.note))
    return rep


def verify_lemma_identities(model, triple, ops, basis, dec, calc, tol=None):
    """Exact verification of the operator identities of the projector calculus.

    Covers the product/anticommutation identities of the rotated adapted
    basis, the expansion of J on the adapted basis, the mixed-product and
    double-J reductions, the restriction scalars on every block (including
    the L and Lbar scalars), the weight/degree mapping properties, the
    four-fold splitting of each Clifford generator, and the second-order
    commutators with the Kraines operator.  Returns a VerificationReport;
    all residuals are exact zeros in the exact backend.
    """
    rep = VerificationReport()
    m = model.m
    sub = f"m={m}"
    dim = model.spinor_dim
    ident = DenseMatrix.identity(dim, kind=model.kind)
    zero = DenseMatrix.zeros(dim, dim, kind=model.kind)

    # --- product sums of the adapted basis against the weight operator
    rep.add(residual_entry(
        "adapted_basis_product_sums", f"{sub} fbar*f",
        calc.sum_fbar_f + ident.scale(m) + ops[1].scale(_I_HALF), tol))
    rep.add(residual_entry(
        "adapted_basis_product_sums", f"{sub} f*fbar",
        calc.sum_f_fbar + ident.scale(m) - ops[1].scale(_I_HALF), tol))

    # --- rotated product sums: per fixed a the rotation is invisible
    for a in (2, 3):
        acc = zero
        for j in range(calc.pairs):
            acc = acc + calc.act_jf[a][j] @ calc.act_jfbar[a][j]
        rep.add(residual_entry("rotated_basis_product_sum", f"{sub} a={a}",
                               acc - calc.sum_fbar_f, tol))
    summed = zero
    for a in (2, 3):
        for j in range(calc.pairs):
            summed = summed + calc.act_jf[a][j] @ calc.act_jfbar[a][j]
    rep.add(residual_entry("rotated_basis_product_sum", f"{sub} a-summed=2x",
                           summed - calc.sum_fbar_f.scale(2), tol,
                           note="summing over both rotations doubles the right side"))

    # --- rotated/unrotated anticommutation
    for a in (2, 3):
        for j in range(calc.pairs):
            res = calc.act_jf[a][j] @ calc.act_fbar[j] \
                + calc.act_fbar[j] @ calc.act_jf[a][j]
            rep.add(residual_entry("rotated_vector_anticommute",
                                   f"{sub} a={a} j={j}", res, tol))

    # --- mixed product sums reproduce the other two Kaehler operators
    expectations = {
        (2, "f_fbar"): ops[2].scale(_HALF) - ops[3].scale(_I_HALF),
        (3, "f_fbar"): ops[3].scale(_HALF) + ops[2].scale(_I_HALF),
        (2, "fbar_f"): ops[2].scale(_HALF) + ops[3].scale(_I_HALF),
        (3, "fbar_f"): ops[3].scale(_HALF) - ops[2].scale(_I_HALF),
    }
    for a in (2, 3):
        rep.add(residual_entry("mixed_product_kaehler_form", f"{sub} a={a} f*Jfbar",
                               calc.mixed_f_fbar[a] - expectations[(a, "f_fbar")], tol))
        rep.add(residual_entry("mixed_product_kaehler_form", f"{sub} a={a} fbar*Jf",
                               calc.mixed_fbar_f[a] - expectations[(a, "fbar_f")], tol))

    # --- expansion of J on the adapted basis (weight term becomes +-i Omega_1)
    for j in range(calc.pairs):
        rhs = calc.act_f[j].scale(3) + ops[1] @ calc.act_f[j].scale(_I)
        for a in (2, 3):
            rhs = rhs + ops[a] @ calc.act_jf[a][j]
        rep.add(residual_entry("jop_adapted_expansion", f"{sub} f j={j}",
                               calc.jop_f[j] - rhs, tol))
        rhs = calc.act_fbar[j].scale(3) - ops[1] @ calc.act_fbar[j].scale(_I)
        for a in (2, 3):
            rhs = rhs + ops[a] @ calc.act_jfbar[a][j]
        rep.add(residual_entry("jop_adapted_expansion", f"{sub} fbar j={j}",
                               calc.jop_fbar[j] - rhs, tol))

    # --- first-order products of J(x) with the actions, summed over j
    ffbar, fbarf = calc.sum_f_fbar, calc.sum_fbar_f
    l_op, l_bar = calc.l_op, calc.l_bar_op
    iom = ops[1].scale(_I)
    c1 = zero
    c2 = zero
    c3 = zero
    c4 = zero
    for j in range(calc.pairs):
        c1 = c1 + calc.jop_f[j] @ calc.act_fbar[j]
        c2 = c2 + calc.jop_fbar[j] @ calc.act_f[j]
        c3 = c3 + calc.act_f[j] @ calc.jop_fbar[j]
        c4 = c4 + calc.act_fbar[j] @ calc.jop_f[j]
    rep.add(residual_entry(
        "jop_product_jf_fbar", sub,
        c1 - (-l_bar + (ident.scale(3) + iom) @ ffbar), tol))
    rep.add(residual_entry(
        "jop_product_jfbar_f", sub,
        c2 - (-l_op + (ident.scale(3) - iom) @ fbarf), tol))
    rep.add(residual_entry(
        "jop_product_f_jfbar", sub,
        c3 - (l_op + (ident - iom) @ ffbar - fbarf.scale(4)), tol))
    rep.add(residual_entry(
        "jop_product_fbar_jf", sub,
        c4 - (l_bar + (ident + iom) @ fbarf - ffbar.scale(4)), tol,
        note="right side attributed to fbar*J(f); the source statement "
             "repeats the line-2 left side here"))

    # --- second-order product sums
    d1 = zero
    d2 = zero
    for j in range(calc.pairs):
        d1 = d1 + calc.jop_f[j] @ calc.jop_fbar[j]
        d2 = d2 + calc.jop_fbar[j] @ calc.jop_f[j]
    sq23 = ops[2] @ ops[2] + ops[3] @ ops[3]
    rhs1 = fbarf.scale(-12) + sq23 @ fbarf \
        + (iom - ident) @ l_op - (ident - iom) @ l_bar + l_op.scale(4) \
        + (ident.scale(3) + iom) @ (ident - iom) @ ffbar
    rep.add(residual_entry("jop_jop_sum_f_fbar", sub, d1 - rhs1, tol))
    rhs2 = ffbar.scale(-12) + sq23 @ ffbar \
        - (ident + iom) @ l_op - (ident + iom) @ l_bar + l_bar.scale(4) \
        + (ident.scale(3) - iom) @ (ident + iom) @ fbarf
    rep.add(residual_entry("jop_jop_sum_fbar_f", sub, d2 - rhs2, tol))

    # --- restriction scalars on every nonzero block
    for blk in dec.nonzero_blocks():
        bsub = f"{sub} r={blk.r} k={blk.k}"
        p = blk.projector
        rep.add(residual_entry(
            "block_scalar_weight", bsub,
            ops[1] @ p - p.scale(weight_eigenvalue(m, blk.k)), tol,
            note="weight scalar carries the explicit i"))
        rep.add(residual_entry(
            "block_scalar_kraines", bsub,
            ops.kraines @ p - p.scale(blk.omega_eig), tol))
        r_, k_ = blk.r, blk.k
        l_scalar = -2 * r_ * (r_ + 2) + (m - k_) * (2 * m - 2 * k_ + 4)
        lbar_scalar = -2 * r_ * (r_ + 2) + (m - k_) * (2 * m - 2 * k_ - 4)
        rep.add(residual_entry("block_scalar_mixed_sum", bsub,
                               l_op @ p - p.scale(l_scalar), tol))
        rep.add(residual_entry("block_scalar_mixed_sum_conj", bsub,
                               l_bar @ p - p.scale(lbar_scalar), tol))
        rep.add(residual_entry("block_scalar_difference", bsub,
                               (l_bar - l_op) @ p - p.scale(-8 * (m - k_)), tol))

    # --- weight-shift mapping property of the adapted actions
    for j in range(calc.pairs):
        for k in range(2 * m + 1):
            pk = dec.k_projectors[k]
            up = dec.k_projectors.get(k + 1)
            down = dec.k_projectors.get(k - 1)
            img = calc.act_fbar[j] @ pk
            res = img - (up @ img if up is not None else zero)
            rep.add(residual_entry("k_shift_projection",
                                   f"{sub} j={j} k={k} raise", res, tol))
            img = calc.act_f[j] @ pk
            res = img - (down @ img if down is not None else zero)
            rep.add(residual_entry("k_shift_projection",
                                   f"{sub} j={j} k={k} lower", res, tol))

    # --- degree-shift mapping property of the p components
    for j in range(calc.pairs):
        for r in range(m + 1):
            pr = dec.r_projectors[r]
            up = dec.r_projectors.get(r + 1)
            down = dec.r_projectors.get(r - 1)
            for which, pf in (("f", calc.p_f), ("fbar", calc.p_fbar)):
                img = pf(r, +1, j) @ pr
                res = img - (up @ img if up is not None else zero)
                rep.add(residual_entry("r_shift_projection",
                                       f"{sub} j={j} r={r} {which} raise", res, tol))
                img = pf(r, -1, j) @ pr
                res = img - (down @ img if down is not None else zero)
                rep.add(residual_entry("r_shift_projection",
                                       f"{sub} j={j} r={r} {which} lower", res, tol))

    # --- commutators with the Kraines operator
    kraines = ops.kraines
    for i in range(model.n):
        e = basis_vector(model, i)
        act = vector_action(model, e)
        jop = j_operator(model, triple, ops, e)
        rep.add(residual_entry(
            "kraines_commutator_jop", f"{sub} i={i}",
            kraines @ act - act @ kraines - jop.scale(4), tol))
        rhs = jop.scale(-8) + act.scale(12) \
            - (act @ (kraines - ident.scale(6 * m))).scale(4)
        rep.add(residual_entry(
            "kraines_commutator_jop_second", f"{sub} i={i}",
            kraines @ jop - jop @ kraines - rhs, tol))

    # --- commutator of the Kaehler operators with vector actions
    for a in (1, 2, 3):
        for i in range(model.n):
            e = basis_vector(model, i)
            act = vector_action(model, e)
            rot = vector_action(model, triple[a] @ e)
            rep.add(residual_entry(
                "kaehler_vector_commutator", f"{sub} a={a} i={i}",
                ops[a] @ act - act @ ops[a] - rot.scale(2), tol))

    # --- four-fold splitting of each generator on each block
    for i in range(model.n):
        e = basis_vector(model, i)
        qp = q_plus(model, triple, e)
        qm = q_minus(model, triple, e)
        acts = {t: vector_action(model, v) for t, v in ((+1, qp), (-1, qm))}
        jops = {t: j_operator(model, triple, ops, v) for t, v in ((+1, qp), (-1, qm))}
        act_e = vector_action(model, e)
        for blk in dec.nonzero_blocks():
            recon = zero
            for s in (+1, -1):
                for t in (+1, -1):
                    piece = _p_combination(blk.r, s, acts[t], jops[t]) @ blk.projector
                    recon = recon + piece
                    target = dec.blocks.get((blk.r + s, blk.k + t))
                    absorbed = target.projector @ piece if target is not None else zero
                    rep.add(residual_entry(
                        "clifford_four_fold_split",
                        f"{sub} i={i} ({blk.r},{blk.k}) s={s:+d} t={t:+d}",
                        piece - absorbed, tol))
            rep.add(residual_entry(
                "clifford_four_fold_split",
                f"{sub} i={i} ({blk.r},{blk.k}) reconstruction",
                recon - act_e @ blk.projector, tol))

    # --- adjointness observation (informational, never fails the suite)
    matches = {"+fbar": 0, "-fbar": 0, "+f": 0, "-f": 0, "none": 0, "total": 0}
    for blk in dec.nonzero_blocks():
        target = dec.blocks.get((blk.r + 1, blk.k + 1))
        if target is None or target.dim == 0:
            continue
        for j in range(calc.pairs):
            up = target.projector @ calc.p_fbar(blk.r, +1, j) @ blk.projector
            if up.is_zero(tol):
                continue
            matches["total"] += 1
            adjoint = up.hermitian()
            down_fbar = blk.projector @ calc.p_fbar(blk.r + 1, -1, j) @ target.projector
            down_f = blk.projector @ calc.p_f(blk.r + 1, -1, j) @ target.projector
            if (adjoint - down_fbar).is_zero(tol):
                matches["+fbar"] += 1
            elif (adjoint + down_fbar).is_zero(tol):
                matches["-fbar"] += 1
            elif (adjoint - down_f).is_zero(tol):
                matches["+f"] += 1
            elif (adjoint + down_f).is_zero(tol):
                matches["-f"] += 1
            else:
                matches["none"] += 1
    verdict = ", ".join(f"{k}:{v}" for k, v in sorted(matches.items()) if v)
    rep.add(info_entry(
        "block_adjoint_pairing", sub,
        f"adjoint of the raising block map against the four candidate "
        f"lowering maps (sign, vector): {verdict or 'no nonzero maps'}"))
    return rep

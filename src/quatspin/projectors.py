"""Projector calculus on the adapted basis and the block transition constants.

Implements the first-order operators built from a complexified vector x:
its Clifford action a(x), the combination J(x) = sum_a Omega_a a(J_a x)
+ 3 a(x), and the degree-shift components

    p_r^+(x) = ((2r+1) a(x) - J(x)) / (4(r+1))   (S_r -> S_{r+1})
    p_r^-(x) = ((2r+3) a(x) + J(x)) / (4(r+1))   (S_r -> S_{r-1})

together with an exact verifier for the operator identities these satisfy,
and the scalars A^{s1 s2}_{r,k} by which the two-step compositions act on
each joint block.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .clifford import rotated_action, vector_action
from .errors import DomainError, IdentityFailure
from .exact import FLOAT_SCALAR_TOL, ExactScalar, commutator, fused_sum
from .quaternionic import build_adapted_basis
from .report import VerificationReport, bool_entry, residual_entry
from .symmetry import orbits

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
_VARIANTS = tuple(_VARIANT_TABLE)
_PATTERNS = (("f", "fbar"), ("fbar", "f"))
# weight shift t of the adapted vectors: a(f_j) lowers k, a(fbar_j) raises it
_WEIGHT_SHIFT = {"f": -1, "fbar": +1}


def j_operator(model, triple, ops, x):
    """J(x) = sum_a Omega_a a(J_a x) + 3 a(x) as a spinor endomorphism.

    The paper's definition for an arbitrary x, with each a(J_a x) the
    action of the product J_a x: the reference that tests/test_projectors.py
    checks `ProjectorCalculus.jop` against.  The calculus reads the same
    actions off the nonzeros of J_a and x (`rotated_action`).
    """
    return _j_combination(ops, vector_action(model, x),
                          {a: vector_action(model, triple[a] @ x) for a in (1, 2, 3)})


def _j_combination(ops, act, rotated):
    """J(x) from a(x) and the rotated actions rotated[a] = a(J_a x)."""
    return fused_sum([(1, ops[a], rotated[a]) for a in (1, 2, 3)], [(3, act)])


def _p_weights(r, sign):
    """(c, alpha, beta) with p_r^sign(x) = c (alpha a(x) + beta J(x))."""
    if r < 0:
        raise DomainError(f"degree index r must be nonnegative, got {r}")
    c = Fraction(1, 4 * (r + 1))
    return (c, 2 * r + 1, -1) if sign > 0 else (c, 2 * r + 3, 1)


def _p_combination(r, sign, act, jop):
    # alpha a(x) + beta J(x) first, then one scale by c: the float order
    c, alpha, beta = _p_weights(r, sign)
    return fused_sum(terms=[(alpha, act), (beta, jop)]).scale(c)


def p_plus(model, triple, ops, r, x):
    """Degree-raising component of the Clifford action of x at level r.

    The paper's definition for an arbitrary x: the reference that
    tests/test_projectors.py checks `ProjectorCalculus.p` against.
    """
    return _p_combination(r, +1, vector_action(model, x),
                          j_operator(model, triple, ops, x))


def p_minus(model, triple, ops, r, x):
    """Degree-lowering component of the Clifford action of x at level r.

    The paper's definition for an arbitrary x: the reference that
    tests/test_projectors.py checks `ProjectorCalculus.p` against.
    """
    return _p_combination(r, -1, vector_action(model, x),
                          j_operator(model, triple, ops, x))


def _product_sum(lefts, rights):
    """sum_j lefts[j] @ rights[j]."""
    return fused_sum([(1, left, right) for left, right in zip(lefts, rights)])


def _plus(total, piece):
    """total + piece, or piece when nothing has been added yet (total None)."""
    return piece if total is None else total + piece


def _outside(image, target):
    """image minus its part in the range of the projector target (None: none)."""
    return image if target is None else image - target @ image


class ProjectorCalculus:
    """Cached endomorphisms for the adapted basis of one world's model.

    For u in {"f", "fbar"} it holds the adapted vectors vectors[u][j] = u_j,
    act[u][j] = a(u_j), the rotated actions act_j[u][a][j] = a(J_a u_j) for
    a in {1, 2, 3}, read off the nonzeros of J_a and u_j (`rotated_action`),
    and jop[u][j] = J(u_j).  Over the patterns (u, v) in
    {(f, fbar), (fbar, f)} it forms sums[u, v, XY] = sum_j X(u_j) Y(v_j) for
    X, Y in {a, J}: the four sums aa, aJ, Ja and JJ of each pattern.  Since
    p_r^s(x) = c (alpha a(x) + beta J(x)), every two-step composition
    sum_j p(u_j) p(v_j) is a combination of the four sums of its pattern
    (see compute_A), and p_r^{+-} of any cached vector is a scale-and-add.
    """

    def __init__(self, world):
        self.world = world
        model, triple, ops = world.model, world.triple, world.ops
        basis = build_adapted_basis(model, triple)
        self.vectors = {"f": basis.f, "fbar": basis.f_bar}
        self.act = {u: [vector_action(model, x) for x in xs]
                    for u, xs in self.vectors.items()}
        self.act_j = {u: {a: [rotated_action(model, triple[a], x) for x in xs]
                          for a in (1, 2, 3)} for u, xs in self.vectors.items()}
        self.jop = {u: [_j_combination(ops, act, {a: self.act_j[u][a][j] for a in (1, 2, 3)})
                        for j, act in enumerate(self.act[u])] for u in self.vectors}

        factors = {"a": self.act, "J": self.jop}
        self.sums = {(u, v, x + y): _product_sum(factors[x][u], factors[y][v])
                     for u, v in _PATTERNS for x in "aJ" for y in "aJ"}
        self._two_step = {}

    @property
    def pairs(self):
        """The number of adapted vectors of each kind, 2m."""
        return 2 * self.world.model.m

    def p(self, u, r, sign, j):
        """p_r^sign(u_j) for the adapted vector u_j, u in {"f", "fbar"}."""
        return _p_combination(r, sign, self.act[u][j], self.jop[u][j])

    def two_step(self, r, variant):
        """sum_j (left p)(right p) of a variant at level r (see compute_A).

        With p_l^s(x) = c (alpha a(x) + beta J(x)) for each factor, the sum
        is c c' (alpha alpha' aa + alpha beta' aJ + beta alpha' Ja +
        beta beta' JJ) over the four product sums of the variant's vector
        pattern.  It depends on (r, variant) only, so it is formed once for
        all blocks of a level: the weighted sums are added first, then scaled
        once by c c', which keeps the float rounding of every constant.  Only
        the sums of the level last asked for are kept, as `block_constants`
        asks level by level.  The left factor's level must exist (r >= 1 for
        a raising left factor).
        """
        key = r, variant
        if key not in self._two_step:
            if any(level != r for level, _ in self._two_step):
                self._two_step.clear()
            left_sign, right_sign, left_vec, right_vec = _VARIANT_TABLE[variant]
            c_left, *left = _p_weights(r + 1 if left_sign < 0 else r - 1, left_sign)
            c_right, *right = _p_weights(r, right_sign)
            total = fused_sum(terms=[(wx * wy, self.sums[left_vec, right_vec, x + y])
                                     for x, wx in zip("aJ", left)
                                     for y, wy in zip("aJ", right)])
            self._two_step[key] = total.scale(c_left * c_right)
        return self._two_step[key]


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


def _restriction_scalar(op, blk):
    """The scalar s with op|block = s * id, certified; IdentityFailure otherwise.

    op P = s P gives trace(op P) = s dim, so s is read off the trace."""
    comp = op @ blk.projector
    s = comp.trace() / blk.dim
    residual = fused_sum(terms=[(1, comp), (-s, blk.projector)])
    if not residual.is_zero():
        mag = residual.max_abs()
        raise IdentityFailure(f"operator is not scalar on the block (residual {mag:.3e})",
                              mag)
    return s


def compute_A(calc, r, k, variant):
    """Evaluate sum_j (left p)(right p) on the block S_r^k and certify that
    the restriction is a scalar multiple of the identity.

    The sum is `ProjectorCalculus.two_step(r, variant)`, a combination of
    the four product sums formed once per (r, variant), so no per-j product
    is formed here.  Returns that scalar (ExactScalar, or complex in the
    float backend).  For r = 0 with a raising left factor the composition
    passes through the empty degree level; the right factor is certified
    to annihilate the block and the scalar is the int 0.  A failed
    certificate raises IdentityFailure with its residual's largest entry.
    """
    blk = calc.world.dec.block(r, k)
    if blk.dim == 0:
        raise DomainError(f"block (r={r}, k={k}) is zero; no restriction scalar")
    if variant not in _VARIANTS:
        raise DomainError(f"unknown variant {variant!r}")
    left_sign, right_sign, _, right_vec = _VARIANT_TABLE[variant]

    if r == 0 and left_sign > 0:
        # right factor maps S_0 into the empty level below, so the
        # composition is zero regardless of the (undefined) left factor
        for j in range(calc.pairs):
            image = calc.p(right_vec, r, right_sign, j) @ blk.projector
            if not image.is_zero():
                raise IdentityFailure(
                    f"p_0^- does not annihilate block (r={r}, k={k})", image.max_abs())
        return 0

    return _restriction_scalar(calc.two_step(r, variant), blk)


class BlockConstant(NamedTuple):
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


def block_constants(calc):
    """Compute every block constant of calc.world; judge it by its closed form.

    The float backend matches within FLOAT_SCALAR_TOL; the exact backend
    requires equality.  A mismatched row's residual is the modulus
    |computed - closed form| in both.  A composition that is not
    scalar on its block is a failed row, not an error, whose residual is
    the largest entry of the failed certificate.
    """
    model = calc.world.model
    rows = []
    for blk in calc.world.dec.nonzero_blocks():
        for variant in _VARIANTS:
            expect = closed_form_A(model.m, blk.r, blk.k, variant)
            note = "twistor normalization undefined (A = 0)" if expect == 0 else ""
            try:
                got = compute_A(calc, blk.r, blk.k, variant)
            except IdentityFailure as exc:
                rows.append(BlockConstant(blk.r, blk.k, variant, expect, None, False,
                                          f"{exc.residual:.3e}",
                                          f"not scalar on block: {exc}"))
                continue
            if model.kind == "float":
                resid = abs(got - complex(expect))
                ok = resid <= FLOAT_SCALAR_TOL
                computed = f"{got.real:.12g}"
            else:
                ok = got == expect
                resid = 0 if ok else float(ExactScalar.coerce(got - expect).abs2()) ** 0.5
                computed = str(got)
            rows.append(BlockConstant(blk.r, blk.k, variant, expect, computed, ok,
                                      "0" if ok else f"{float(resid):.3e}", note))
    return rows


def constants_report(calc):
    """Compare every computed block constant against its closed form."""
    rep = VerificationReport()
    for c in block_constants(calc):
        rep.add(bool_entry("block_constant_match",
                           f"m={calc.world.model.m} r={c.r} k={c.k} variant={c.variant}",
                           c.ok, c.residual, c.note))
    return rep


def verify_lemma_identities(calc, symmetry=None):
    """Exact verification of the operator identities of the projector calculus.

    Covers the product/anticommutation identities of the rotated adapted
    basis, the expansion of J on the adapted basis, the mixed-product and
    double-J reductions, the L and Lbar restriction scalars on every block,
    the weight/degree mapping properties, the four-fold splitting of the
    Clifford action, and the commutators of the vector actions with the
    Kraines and Kaehler operators.  The Omega_1 and Kraines scalars of a
    block (block_scalar_weight, block_scalar_kraines) are not formed here:
    decomposition_report certifies them on the same world.  Returns
    a VerificationReport; all residuals are exact zeros in the exact
    backend.

    Every per-vector identity is checked on the adapted basis f_j, fbar_j
    of the calculus.  Each residual is C-linear in the vector x, and
    {f_j, fbar_j} is a basis of C^{4m}, so it vanishes on every real e_i
    exactly when it vanishes on every f_j and fbar_j.  For the four-fold
    split of e_i into p_r^s(q^t(e_i)), s, t = +-1: q^-(e_2j) = f_j and
    q^+(e_2j) = fbar_j, and q^+-(e_2j+1) = -+i q^+-(e_2j) are mere phase
    multiples.  Since q^-(f_j) = f_j and q^+(f_j) = 0 (the reverse for
    fbar_j), each adapted vector leaves two pieces: p_r^s(f_j) P_{r,k} must
    lie in S_{r+s}^{k-1} and p_r^s(fbar_j) P_{r,k} in S_{r+s}^{k+1}.  The
    pieces add up to the action because p_r^+ + p_r^- = a by construction.

    The degree- and weight-shift rows add up the same pieces.  The blocks
    sum to P_k = sum_r P_{r,k} (a Lagrange family within P_k) and to P_r =
    sum_k P_{r,k} (decompose's sum), so sum_r P_r = sum_k P_k = I; a block
    of dimension 0 is exactly zero (an idempotent of trace 0),
    so only the nonzero blocks are read, as pieces and as targets.  Thus
    p_r^s(u_j) P_r is the sum of the pieces at level r, and a(u_j) P_k
    the sum over r and s of the pieces at weight k: exactly in the exact
    backend, up to rounding in the float one.

    The adjoint pairing is one certificate per j and pair of nonzero
    neighbour blocks b = (r, k), t = (r+1, k+1):

        (P_t p_r^+(fbar_j) P_b)^H + P_b p_{r+1}^-(f_j) P_t = 0,

    so p_r^+ and p_{r+1}^- are adjoint up to sign between the two blocks.
    Both block maps are the parts of four-fold pieces inside their
    targets, so the row forms no product of its own.

    `symmetry` is an optional `certify_line_symmetry(calc.world)`.  When
    it passes on that world, the per-vector families
    (rotated_vector_anticommute, jop_adapted_expansion,
    kraines_commutator_jop and _second, kaehler_vector_commutator, the
    four-fold split, the r- and k-shift projections and the adjoint
    pairing) are computed for j = 0 only: the certified lifts act
    transitively on j, and the row of j' copies the row of j = 0 (see
    quatspin.symmetry).  Otherwise every row is computed directly.
    """
    model, ops, dec = calc.world.model, calc.world.ops, calc.world.dec
    rep = VerificationReport()
    m = model.m
    # a lift moves the adapted index j to sigma(2j)/2: sigma keeps the parity
    # of the generator index, so it sends f_j and fbar_j to multiples of
    # f_{sigma(2j)/2} and fbar_{sigma(2j)/2}
    vectors = orbits(symmetry, calc.world, range(2 * m), lambda sigma, j: sigma[2 * j] // 2)
    sub = f"m={m}"
    ident = model.identity()
    zero = model.zeros()
    sums = calc.sums
    ffbar, fbarf = sums["f", "fbar", "aa"], sums["fbar", "f", "aa"]
    # mixed[u, v, a] = sum_j a(u_j) a(J_a v_j); L, Lbar = sum_a Omega_a mixed
    mixed = {(u, v, a): _product_sum(calc.act[u], calc.act_j[v][a])
             for u, v in _PATTERNS for a in (2, 3)}
    l_op, l_bar = (_product_sum([ops[2], ops[3]], [mixed[u, v, 2], mixed[u, v, 3]])
                   for u, v in _PATTERNS)
    # rotated_sums[a] = sum_j a(J_a f_j) a(J_a fbar_j)
    rotated_sums = {a: _product_sum(calc.act_j["f"][a], calc.act_j["fbar"][a])
                    for a in (2, 3)}

    # --- product sums of the adapted basis against the weight operator
    rep.add(residual_entry(
        "adapted_basis_product_sums", f"{sub} fbar*f",
        fbarf + ident.scale(m) + ops[1].scale(_I_HALF)))
    rep.add(residual_entry(
        "adapted_basis_product_sums", f"{sub} f*fbar",
        ffbar + ident.scale(m) - ops[1].scale(_I_HALF)))

    # --- rotated product sums: per fixed a the rotation is invisible
    for a in (2, 3):
        rep.add(residual_entry("rotated_basis_product_sum", f"{sub} a={a}",
                               rotated_sums[a] - fbarf))
    rep.add(residual_entry("rotated_basis_product_sum", f"{sub} a-summed=2x",
                           rotated_sums[2] + rotated_sums[3] - fbarf.scale(2),
                           note="summing over both rotations doubles the right side"))

    # --- rotated/unrotated anticommutation
    for a in (2, 3):
        for orbit in vectors:
            j = orbit[0]
            jf, fbar = calc.act_j["f"][a][j], calc.act["fbar"][j]
            res = fused_sum([(1, jf, fbar), (1, fbar, jf)])
            rep.add_orbit(orbit, lambda j: f"{sub} a={a} j={j}",
                          lambda name: residual_entry("rotated_vector_anticommute", name, res))

    # --- mixed product sums reproduce the other two Kaehler operators
    expectations = {
        (2, "f"): ops[2].scale(_HALF) - ops[3].scale(_I_HALF),
        (3, "f"): ops[3].scale(_HALF) + ops[2].scale(_I_HALF),
        (2, "fbar"): ops[2].scale(_HALF) + ops[3].scale(_I_HALF),
        (3, "fbar"): ops[3].scale(_HALF) - ops[2].scale(_I_HALF),
    }
    for a in (2, 3):
        for u, v in _PATTERNS:
            rep.add(residual_entry("mixed_product_kaehler_form",
                                   f"{sub} a={a} {u}*J{v}",
                                   mixed[u, v, a] - expectations[a, u]))

    # --- expansion of J on the adapted basis.  J_1 f_j = i f_j and J_1 fbar_j
    # = -i fbar_j state a(J_1 u_j) as the phase -t i a(u_j), which J(u_j)
    # reads off the triple: the one row that certifies the weight property
    for u, t in _WEIGHT_SHIFT.items():
        for orbit in vectors:
            j = orbit[0]
            act = calc.act[u][j]
            # J(u_j) - (3 a(u_j) - t i Omega_1 a(u_j) + sum_{a=2,3} Omega_a a(J_a u_j))
            rhs = [(ExactScalar(0, t), ops[1], act),
                   *((-1, ops[a], calc.act_j[u][a][j]) for a in (2, 3))]
            res = fused_sum(rhs, [(1, calc.jop[u][j]), (-3, act)])
            rep.add_orbit(orbit, lambda j: f"{sub} {u} j={j}",
                          lambda name: residual_entry("jop_adapted_expansion", name, res))

    # --- first-order products of J(x) with the actions, summed over j
    iom = ops[1].scale(_I)
    rep.add(residual_entry(
        "jop_product_jf_fbar", sub,
        sums["f", "fbar", "Ja"] - (-l_bar + (ident.scale(3) + iom) @ ffbar)))
    rep.add(residual_entry(
        "jop_product_jfbar_f", sub,
        sums["fbar", "f", "Ja"] - (-l_op + (ident.scale(3) - iom) @ fbarf)))
    rep.add(residual_entry(
        "jop_product_f_jfbar", sub,
        sums["f", "fbar", "aJ"] - (l_op + (ident - iom) @ ffbar - fbarf.scale(4))))
    rep.add(residual_entry(
        "jop_product_fbar_jf", sub,
        sums["fbar", "f", "aJ"] - (l_bar + (ident + iom) @ fbarf - ffbar.scale(4)),
        note="right side attributed to fbar*J(f); the source statement "
             "repeats the line-2 left side here"))

    # --- second-order product sums
    sq23 = ops[2] @ ops[2] + ops[3] @ ops[3]
    rhs1 = fbarf.scale(-12) + sq23 @ fbarf \
        + (iom - ident) @ l_op - (ident - iom) @ l_bar + l_op.scale(4) \
        + (ident.scale(3) + iom) @ (ident - iom) @ ffbar
    rep.add(residual_entry("jop_jop_sum_f_fbar", sub,
                           sums["f", "fbar", "JJ"] - rhs1))
    rhs2 = ffbar.scale(-12) + sq23 @ ffbar \
        - (ident + iom) @ l_op - (ident + iom) @ l_bar + l_bar.scale(4) \
        + (ident.scale(3) - iom) @ (ident + iom) @ fbarf
    rep.add(residual_entry("jop_jop_sum_fbar_f", sub,
                           sums["fbar", "f", "JJ"] - rhs2))

    # --- restriction scalars on every nonzero block
    for blk in dec.nonzero_blocks():
        bsub = f"{sub} r={blk.r} k={blk.k}"
        p = blk.projector
        r_, k_ = blk.r, blk.k
        l_scalar = -2 * r_ * (r_ + 2) + (m - k_) * (2 * m - 2 * k_ + 4)
        lbar_scalar = -2 * r_ * (r_ + 2) + (m - k_) * (2 * m - 2 * k_ - 4)
        l_p, lbar_p = l_op @ p, l_bar @ p
        rep.add(residual_entry("block_scalar_mixed_sum", bsub,
                               l_p - p.scale(l_scalar)))
        rep.add(residual_entry("block_scalar_mixed_sum_conj", bsub,
                               lbar_p - p.scale(lbar_scalar)))
        rep.add(residual_entry("block_scalar_difference", bsub,
                               lbar_p - l_p - p.scale(-8 * (m - k_))))

    # --- commutators of the vector actions with the Kraines and Kaehler operators
    kraines = ops.kraines
    for u in _WEIGHT_SHIFT:
        for orbit in vectors:
            j = orbit[0]
            act, jop = calc.act[u][j], calc.jop[u][j]
            # [K, a(x)] = 4 J(x); [K, J(x)] = -8 J(x) + 12 a(x) - 4 a(x) (K - 6m)
            for check_id, res in (
                    ("kraines_commutator_jop", commutator(kraines, act, [(-4, jop)])),
                    ("kraines_commutator_jop_second", fused_sum(
                        [(1, kraines, jop), (-1, jop, kraines), (4, act, kraines)],
                        [(8, jop), (-12 - 24 * m, act)]))):
                rep.add_orbit(orbit, lambda j: f"{sub} {u} j={j}",
                              lambda name: residual_entry(check_id, name, res))
            for a in (1, 2, 3):
                res = commutator(ops[a], act, [(-2, calc.act_j[u][a][j])])
                rep.add_orbit(orbit, lambda j: f"{sub} a={a} {u} j={j}",
                              lambda name: residual_entry("kaehler_vector_commutator", name, res))

    # --- four-fold splitting: p_r^s(u_j) P_{r,k} lies in S_{r+s}^{k+t}; the
    # pieces add up to the degree-shift image p_r^s(u_j) P_r and the
    # weight-shift image a(u_j) P_k.  The part of a piece inside its target
    # is a block map; the f pass (first in _WEIGHT_SHIFT) keeps each
    # lowering map P_b p_{r+1}^-(f_j) P_t for the adjoint pairing of the
    # fbar pass of the same j.
    nonzero = {(b.r, b.k): b for b in dec.nonzero_blocks()}
    for orbit in vectors:
        j = orbit[0]
        lowering = {}
        for u, t in _WEIGHT_SHIFT.items():
            k_images = {}
            for r in range(m + 1):
                level = [b for b in nonzero.values() if b.r == r]
                for s, label in ((+1, "raise"), (-1, "lower")):
                    p = calc.p(u, r, s, j)
                    r_image = None
                    for blk in level:
                        piece = p @ blk.projector
                        target = nonzero.get((r + s, blk.k + t))
                        inside = None if target is None else target.projector @ piece
                        res = piece if inside is None else piece - inside
                        rep.add_orbit(orbit, lambda j: f"{sub} {u} j={j} ({r},{blk.k}) s={s:+d}",
                                      lambda name: residual_entry("clifford_four_fold_split",
                                                                  name, res))
                        r_image = _plus(r_image, piece)
                        k_images[blk.k] = _plus(k_images.get(blk.k), piece)
                        if inside is None or s != t:
                            continue
                        if u == "f":
                            lowering[target.r, target.k] = inside
                            continue
                        pair = f"({r},{blk.k})->({target.r},{target.k})"
                        res = inside.hermitian() + lowering.pop((r, blk.k))
                        rep.add_orbit(orbit, lambda j: f"{sub} j={j} {pair}",
                                      lambda name: residual_entry("block_adjoint_pairing",
                                                                  name, res))
                    res = _outside(zero if r_image is None else r_image,
                                   dec.r_projectors.get(r + s))
                    rep.add_orbit(orbit, lambda j: f"{sub} j={j} r={r} {u} {label}",
                                  lambda name: residual_entry("r_shift_projection", name, res))
            for k in range(2 * m + 1):
                res = _outside(k_images.get(k, zero), dec.k_projectors.get(k + t))
                shift = "raise" if t > 0 else "lower"
                rep.add_orbit(orbit, lambda j: f"{sub} j={j} k={k} {shift}",
                              lambda name: residual_entry("k_shift_projection", name, res))
    return rep

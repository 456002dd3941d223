"""Spin lifts of the quaternionic line symmetries, certified on one world.

R^{4m} = H^m: line t spans e_{4t}, ..., e_{4t+3}, the coordinates of 1, i,
j, k, and the hyperkaehler triple is left multiplication by i, j and k on
every line.  Swapping two lines, and multiplying one line on the right by a
unit quaternion, are orthogonal maps that commute with the triple.  Their
spin lifts (Lawson and Michelsohn, Spin Geometry, 1989, ch. I) are

    swap of lines t, t+1:  S = (1/4) prod_{i=0..3} (gamma_{4t+i} - gamma_{4t+4+i}),
    right-j on line 0:     S = (1/2) (1 + gamma_2 gamma_0)(1 + gamma_3 gamma_1).

Each conjugates the generators by a signed permutation stated here in
advance, S gamma_c = s_c gamma_{sigma(c)} S: a swap exchanges gamma_{4t+i}
and gamma_{4t+4+i}; right-j sends gamma_0, gamma_1, gamma_2, gamma_3 to
-gamma_2, -gamma_3, gamma_0, gamma_1; both fix every other generator.

Derived rows.  Let rho be the signed permutation e_c -> s_c e_{sigma(c)} of
R^{4m}.  The certified relations give S a(x) S^H = a(rho x) for the
Clifford action a, and rho commutes with J_1, J_2 and J_3.  S also commutes
with the Kaehler operators the rows read and with the two operators of
whose polynomials the decomposition's projectors are built, so it fixes
every factor of a row but the generators and vectors its index names.  A
row of index x therefore has residual R_{x'} = +-S R_x S^H, where x' is the
image of x under the lift that the report owning the row states (the
`image` of `orbits`): structure_report, decomposition_report and the lemma
suite each state theirs beside their rows.  S is a permutation times
phases in {1, -1, i, -i}, so S R S^H holds the entries of R, moved and
multiplied by units: R_{x'} has exactly the largest entry modulus of R_x in
both backends and vanishes exactly when R_x does, and for a projector P
commuting with S, P R_{x'} = 0 exactly when P R_x = 0.  A derived row
copies the status, residual and note of the computed row of its orbit
(`VerificationReport.add_orbit`).  Rows are derived only on the very world
(by object identity) whose model, triple, operators and decomposition the
certificate was made on.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .exact import commutator, fused_sum
from .report import VerificationReport, bool_entry, residual_entry
from .sparse import SparseMatrix

CHECK_ID = "line_symmetry"


class LineSymmetry(NamedTuple):
    """A spin lift S with S gamma_c = sign gamma_target S for each
    (target, sign) = signed_permutation[c]."""

    name: str
    matrix: object
    signed_permutation: tuple


def _signed_permutation(n, moves):
    sigma = [(c, 1) for c in range(n)]
    for c, image in moves.items():
        sigma[c] = image
    return tuple(sigma)


def line_symmetries(model):
    """The lifts of right-j on line 0 and of the m - 1 adjacent line swaps."""
    g, n = model.gamma, model.n
    one = model.identity()
    right_j = ((one + g[2] @ g[0]) @ (one + g[3] @ g[1])).scale(Fraction(1, 2))
    lifts = [LineSymmetry("right-j line=0", right_j, _signed_permutation(
        n, {0: (2, -1), 1: (3, -1), 2: (0, 1), 3: (1, 1)}))]
    for t in range(model.m - 1):
        a, b = 4 * t, 4 * t + 4
        s = g[a] - g[b]
        for i in range(1, 4):
            s = s @ (g[a + i] - g[b + i])
        moves = {**{a + i: (b + i, 1) for i in range(4)},
                 **{b + i: (a + i, 1) for i in range(4)}}
        lifts.append(LineSymmetry(f"swap lines={t},{t + 1}", s.scale(Fraction(1, 4)),
                                  _signed_permutation(n, moves)))
    return tuple(lifts)


class LineSymmetryCertificate(NamedTuple):
    """The line_symmetry rows of one world, and that world."""

    report: VerificationReport
    lifts: tuple
    world: object

    @property
    def ok(self):
        return self.report.ok


def _claims_entry(subject, residuals):
    """One row over labelled residuals: it passes when every one vanishes;
    otherwise its residual is their largest entry modulus and its note
    names the first that does not vanish."""
    failed = [(label, res.max_abs()) for label, res in residuals if not res.is_zero()]
    if not failed:
        return bool_entry(CHECK_ID, subject, True)
    return bool_entry(CHECK_ID, subject, False,
                      f"{max(mag for _, mag in failed):.6e}", f"fails at {failed[0][0]}")


def certify_line_symmetry(world):
    """Certify the line symmetries on the world that structure_report,
    decomposition_report and verify_lemma_identities read.

    Four `line_symmetry` rows per lift S of `line_symmetries(world.model)`:

    - "monomial": S is a permutation times phases in {1, -1, i, -i}, judged
      exactly in both backends; the residual counts the defects;
    - "unitary": S^H S = I;
    - "generators": S gamma_c = s_c gamma_{sigma(c)} S for every c, and the
      signed permutation rho, an exact matrix in both backends, commutes
      with J_1, J_2, J_3 of the world's triple;
    - "operators": S commutes with Omega_1, Omega_2, Omega_3 and the Kraines
      form of the world, and with dec.kraines and dec.omega1 when they are
      other objects (a decomposition stated for another generator list).

    A failed row's note names its first failing claim.  The m - 1 swaps and
    right-j act transitively on the adapted index j, and their orbits on the
    generator index are the even and the odd c.
    """
    model, ops, dec = world.model, world.ops, world.dec
    sub = f"m={model.m}"
    operators = [*((f"Omega_{a}", ops[a]) for a in (1, 2, 3)), ("Kraines", ops.kraines),
                 *((label, op) for label, op, own in (
                     ("decomposition Kraines", dec.kraines, ops.kraines),
                     ("decomposition Omega_1", dec.omega1, ops[1])) if op is not own)]
    one = model.identity()
    rep = VerificationReport()
    lifts = line_symmetries(model)
    for lift in lifts:
        s, name = lift.matrix, f"{sub} {lift.name}"
        defect = s.unit_monomial_defect()
        rep.add(bool_entry(CHECK_ID, f"{name} monomial", not defect, str(defect)))
        rep.add(residual_entry(CHECK_ID, f"{name} unitary",
                               fused_sum([(1, s.hermitian(), s)], [(-1, one)])))
        # rho e_c = sign e_target: row target holds sign at column c
        perm, signs = [0] * model.n, [0] * model.n
        generators = []
        for c, (target, sign) in enumerate(lift.signed_permutation):
            perm[target], signs[target] = c, sign
            generators.append((f"gamma_{c}", fused_sum(
                [(1, s, model.gamma[c]), (-sign, model.gamma[target], s)])))
        rho, j = SparseMatrix.monomial(perm, signs, [0] * model.n), world.triple
        triple = [(f"J_{a}", commutator(rho, j[a])) for a in (1, 2, 3)]
        rep.add(_claims_entry(f"{name} generators", generators + triple))
        rep.add(_claims_entry(f"{name} operators", [
            (label, commutator(s, op)) for label, op in operators]))
    return LineSymmetryCertificate(rep, lifts, world)


def orbits(symmetry, world, items, image):
    """The orbits of `items` under x -> image(sigma, x) for the permutation
    sigma of the generator index of each lift of `symmetry`, when it is a
    passing certificate made on `world` itself; otherwise singletons.  Each
    orbit lists its members in `items` order, and the orbits are ordered by
    their first members.  The report that owns the rows states `image`: how
    a lift moves its row index."""
    items = list(items)
    index = {x: t for t, x in enumerate(items)}
    root = list(range(len(items)))

    def find(t):
        while root[t] != t:
            t = root[t]
        return t

    if symmetry is not None and symmetry.ok and symmetry.world is world:
        for lift in symmetry.lifts:
            sigma = [target for target, _ in lift.signed_permutation]
            for t, x in enumerate(items):
                a, b = find(t), find(index[image(sigma, x)])
                root[max(a, b)] = min(a, b)
    found = {}
    for t, x in enumerate(items):
        found.setdefault(find(t), []).append(x)
    return list(found.values())

"""Command-line front end: verification runs and machine-readable reports.

Subcommands
-----------
verify      run the structure/line-symmetry/decomposition/identity/constant
            suites plus the so(3) representation checks; exit 0 iff every
            check passes
constants   table of computed vs closed-form block constants for one m
bounds      eigenvalue-bound coefficient table (universal, per-configuration,
            and comparison rows) for one m
decompose   the (r, k) block lattice with dimensions and eigenvalues
so3-check   statistics of the exact search for top-weight-exposing rotations

JSON is the canonical format (sorted keys, stable byte output); csv and
table are projections of the same rows, and their columns are the keys of
a command's first row (bounds spreads each nested coefficient into
parent_key columns).  Rationals are serialized as "p/q" strings; purely
imaginary eigenvalues by their imaginary part, under a field name that
says so.  Reports are written to their sink as they are encoded, JSON in
batches of the chunks json.dumps would join and csv row by row: the bytes
are those of json.dumps, and the render's memory does not grow with the
report.  Tables still size their columns from every row first.  A reader that closes the pipe early ends the run quietly.  Exit
codes: 0 success, 1 verification failure, 2 usage error, 3 resource
refusal; a closed pipe does not change them.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import os
import sys
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .bounds import build_bound_report
from .clifford import build_clifford_model, corrupt_gamma
from .decomposition import (build_world, decomposition_report, omega_eigenvalue,
                            weight_eigenvalue)
from .errors import (
    DimensionError,
    DomainError,
    QuatspinError,
    ResourceLimitError,
)
from .exact import FLOAT_TOL
from .projectors import (
    ProjectorCalculus,
    block_constants,
    constants_report,
    verify_lemma_identities,
)
from .quaternionic import structure_report
from .report import VerificationReport
from .symmetry import certify_line_symmetry
from .so3 import build_irrep, find_rotation_with_top_component, irrep_report, random_vector


class CommandResult(NamedTuple):
    exit_code: int
    payload: dict
    rows: list
    preamble: tuple = ()
    table_text: str | None = None


# ------------------------------------------------------------ argument types


def _int_at_least(low):
    """The argument type of an integer >= low."""
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    return parse


def _rational(text):
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational (like 4 or 5/2): {text!r}")
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    return value


def _m_range(text):
    parts = text.split("..")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected a..b, got {text!r}")
    lo, hi = map(_int_at_least(1), parts)
    if lo > hi:
        raise argparse.ArgumentTypeError(f"empty range {text!r}")
    return lo, hi


# ------------------------------------------------------------------- parsing


def build_parser():
    parser = argparse.ArgumentParser(
        prog="quatspin",
        description="Exact verification of quaternionic spinor algebra "
                    "identities, block constants, and eigenvalue bounds.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output(p):
        p.add_argument("--format", choices=("json", "csv", "table"),
                       default="json", help="output format (default %(default)s)")
        p.add_argument("--out", default=None, help="write the report to a file")

    def add_m(p):
        p.add_argument("--m", type=_int_at_least(1), default=2,
                       help="quaternionic dimension (default %(default)s)")

    def add_common(p, backends=("exact", "float"), seed_help=None):
        p.add_argument("--backend", choices=backends, default="exact",
                       help="arithmetic backend (default %(default)s)")
        if seed_help is not None:
            p.add_argument("--seed", type=_int_at_least(0), default=0,
                           help=f"{seed_help} (default %(default)s)")
        add_output(p)

    p = sub.add_parser("verify", help="run the full verification matrix")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--m", type=_int_at_least(1), default=None,
                       help="single quaternionic dimension")
    group.add_argument("--m-range", type=_m_range, default=(1, 2), metavar="A..B",
                       help="inclusive dimension range (default 1..2)")
    p.add_argument("--flip-gamma", type=_int_at_least(0), default=None,
                   help=argparse.SUPPRESS)
    add_common(p, seed_help="copied into the report; nothing is sampled")
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser("constants", help="computed vs closed-form block constants")
    add_m(p)
    # nothing in the constants is sampled
    add_common(p)
    p.set_defaults(handler=cmd_constants)

    p = sub.add_parser("bounds", help="eigenvalue-bound coefficient table")
    add_m(p)
    p.add_argument("--kappa", type=_rational, default=Fraction(4),
                   help="scalar curvature as a positive rational (default 4)")
    p.add_argument("--complex-dimension", type=_int_at_least(1), default=None,
                   help="complex dimension for the Kaehler comparison "
                        "(default 2m)")
    add_output(p)
    p.set_defaults(handler=cmd_bounds)

    p = sub.add_parser("decompose", help="joint (r, k) block lattice")
    add_m(p)
    # the option stays for the decompose-exact-m4 workload, which passes it
    add_common(p, seed_help="ignored; nothing is sampled")
    p.set_defaults(handler=cmd_decompose)

    p = sub.add_parser("so3-check", help="top-weight rotation search on random vectors")
    p.add_argument("--max-r", type=_int_at_least(0), default=10,
                   help="largest highest weight (default %(default)s)")
    p.add_argument("--trials", type=_int_at_least(1), default=100,
                   help="random vectors per weight (default %(default)s)")
    p.add_argument("--budget", type=_int_at_least(1), default=1000,
                   help="rotations g_0, g_1, ... tried per search; r + 1 "
                        "always suffice (default %(default)s)")
    # the search is exact; the option stays for the so3-exact-search workload
    add_common(p, backends=("exact",), seed_help="seed of the random vectors")
    p.set_defaults(handler=cmd_so3_check)

    return parser


# ------------------------------------------------------------------ commands


def _tolerance(backend):
    """The float tolerance, in float reports only: no exact check applies one."""
    return {"tolerance": FLOAT_TOL} if backend == "float" else {}


def world_report(world):
    """Every check of one world, in report order."""
    calc = ProjectorCalculus(world)
    symmetry = certify_line_symmetry(world)
    parts = (structure_report(world, symmetry), symmetry.report,
             decomposition_report(world, symmetry),
             verify_lemma_identities(calc, symmetry), constants_report(calc))
    return VerificationReport([e for part in parts for e in part.entries])


def cmd_verify(args):
    lo, hi = args.m_range
    m_values = (args.m,) if args.m is not None else tuple(range(lo, hi + 1))
    models = [build_clifford_model(m, kind=args.backend) for m in m_values]
    if args.flip_gamma is not None:
        # every index is checked before the first world is built
        flipped = [corrupt_gamma(model, args.flip_gamma) for model in models]
    sections = []
    model_hashes = {}
    for t, model in enumerate(models):
        world = build_world(model)
        if args.flip_gamma is not None:
            # the stated decomposition under the corrupted generator list
            world = build_world(flipped[t], dec=world.dec)
        sections.append((f"m={model.m}", world_report(world)))
        model_hashes[str(model.m)] = world.model.content_hash()
    sections.append(("so3", irrep_report(10)))

    combined = VerificationReport([e for _, report in sections for e in report.entries])
    rows = [{"segment": segment, **e._asdict()}
            for segment, report in sections for e in report.sorted_entries()]
    counts = combined.counts()
    payload = {
        "command": "verify",
        "backend": args.backend,
        **_tolerance(args.backend),
        "seed": args.seed,
        "m_values": list(m_values),
        "flip_gamma": args.flip_gamma,
        "model_hashes": model_hashes,
        "counts": counts,
        "ok": combined.ok,
        "entries": rows,
        "failures": [row for row in rows if row["status"] == "fail"],
    }
    preamble = (f"backend={args.backend} m_values={list(m_values)} "
                f"pass={counts['pass']} fail={counts['fail']} info={counts['info']}",)
    return CommandResult(0 if combined.ok else 1, payload, rows, preamble)


def cmd_constants(args):
    world = build_world(build_clifford_model(args.m, kind=args.backend))
    constants = block_constants(ProjectorCalculus(world))
    rows = [{"r": c.r, "k": c.k, "variant": c.variant, "computed": c.computed,
             "closed": str(c.closed), "match": c.ok, "note": c.note}
            for c in constants]
    mismatches = sum(not c.ok for c in constants)
    payload = {
        "command": "constants",
        "backend": args.backend,
        **_tolerance(args.backend),
        "m": args.m,
        "model_hash": world.model.content_hash(),
        "ok": mismatches == 0,
        "counts": {"match": len(rows) - mismatches, "mismatch": mismatches},
        "rows": rows,
    }
    return CommandResult(0 if mismatches == 0 else 1, payload, rows)


def _coefficient_dict(coeff):
    return {
        "a": str(coeff.a_value),
        "two_a_plus_one": str(coeff.two_a_plus_one),
        "coefficient": None if coeff.value is None else str(coeff.value),
        "flag": coeff.flag,
    }


def cmd_bounds(args):
    report = build_bound_report(args.m, args.kappa, args.complex_dimension)
    rows = [{"r": row.r, "k": row.k, "case": row.case,
             "first": _coefficient_dict(row.first),
             "second": _coefficient_dict(row.second)} for row in report.rows]
    comparisons = report.comparisons
    payload = {
        "command": "bounds",
        "m": report.m,
        "kappa": str(report.kappa),
        "universal": {
            "coefficient": str(report.universal),
            "value": str(report.universal_value),
        },
        "comparisons": {
            "complex_dimension": comparisons.complex_dimension,
            "friedrich": str(comparisons.friedrich),
            "kirchberg_odd": str(comparisons.kirchberg_odd),
            "kirchberg_even": str(comparisons.kirchberg_even),
            "applicable_parity": comparisons.applicable_parity,
        },
        "rows": rows,
    }
    preamble = (
        f"m={report.m} kappa={report.kappa} universal coefficient "
        f"{report.universal} -> bound {report.universal_value}",
        f"friedrich {comparisons.friedrich}  kirchberg "
        f"odd {comparisons.kirchberg_odd} / even {comparisons.kirchberg_even} "
        f"(m_c={comparisons.complex_dimension}, {comparisons.applicable_parity})",
    )
    return CommandResult(0, payload, [_flat(row) for row in rows], preamble)


def _flat(row):
    """row with each nested dict spread into columns named parent_key."""
    flat = {}
    for key, value in row.items():
        if isinstance(value, dict):
            flat.update((f"{key}_{k}", v) for k, v in value.items())
        else:
            flat[key] = value
    return flat


def cmd_decompose(args):
    m = args.m
    world = build_world(build_clifford_model(m, kind=args.backend))
    model, dec = world.model, world.dec
    blocks = [{"r": b.r, "k": b.k, "dim": b.dim,
               "omega_eig": b.omega_eig, "omega1_eig_im": b.weight_im}
              for b in dec.nonzero_blocks()]
    payload = {
        "command": "decompose",
        "backend": args.backend,
        "m": m,
        "model_hash": model.content_hash(),
        "spinor_dim": model.spinor_dim,
        "dim_sum": sum(b["dim"] for b in blocks),
        "blocks": blocks,
    }
    return CommandResult(0, payload, blocks, table_text=_decompose_grid(model, dec))


def _decompose_grid(model, dec):
    """Render the lattice as a grid: rows r, columns k, cells dim or blank."""
    m = model.m
    by_pos = {(b.r, b.k): b for b in dec.nonzero_blocks()}
    header = ["r\\k"] + [f"k={k} (im {weight_eigenvalue(m, k).im})"
                          for k in range(2 * m + 1)]
    lines = [header]
    for r in range(m + 1):
        row = [f"r={r} (omega {omega_eigenvalue(m, r)})"]
        for k in range(2 * m + 1):
            blk = by_pos.get((r, k))
            row.append("" if blk is None else str(blk.dim))
        lines.append(row)
    total = sum(b.dim for b in dec.nonzero_blocks())
    return "\n".join([*_aligned(lines),
                      f"dim sum = {total} = 2^{{2m}} = {model.spinor_dim}"]) + "\n"


def cmd_so3_check(args):
    rows = []
    total_exhaustions = 0
    rng = np.random.default_rng(args.seed)
    for r in range(args.max_r + 1):
        irrep = build_irrep(r)
        successes = 0
        max_used = 0
        for _ in range(args.trials):
            outcome = find_rotation_with_top_component(
                irrep, random_vector(rng, irrep.dim), budget=args.budget)
            successes += 1 if outcome.found else 0
            max_used = max(max_used, outcome.samples_used)
        exhaustions = args.trials - successes
        total_exhaustions += exhaustions
        rows.append({"r": r, "trials": args.trials, "successes": successes,
                     "exhaustions": exhaustions, "max_samples_used": max_used})
    payload = {
        "command": "so3-check",
        "backend": args.backend,
        "max_r": args.max_r,
        "trials": args.trials,
        "budget": args.budget,
        "seed": args.seed,
        "total_exhaustions": total_exhaustions,
        "ok": total_exhaustions == 0,
        "rows": rows,
    }
    return CommandResult(0 if total_exhaustions == 0 else 1, payload, rows)


# ------------------------------------------------------------------ emission


def _write_csv(sink, rows):
    """The rows as csv, one column per key of the first row; None is blank."""
    # imported here: only --format csv reads it
    import csv

    writer = csv.DictWriter(sink, fieldnames=list(rows[0]), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)


def _aligned(lines, ruled=False):
    """Lines of cells with each column padded to its widest cell, two spaces
    apart; ruled puts a rule of dashes under the first line."""
    widths = [max(len(line[i]) for line in lines) for i in range(len(lines[0]))]
    out = ["  ".join(c.ljust(w) for c, w in zip(line, widths)).rstrip() for line in lines]
    if ruled:
        out.insert(1, "  ".join("-" * w for w in widths))
    return out


def _format_table(rows, preamble):
    """The preamble, then the rows under a header of the first row's keys."""
    cells = [[str("" if v is None else v) for v in row.values()] for row in rows]
    return "\n".join([*preamble, *_aligned([list(rows[0]), *cells], ruled=True)]) + "\n"


# JSON chunks joined per write: one write per chunk costs CPU, the whole
# text costs memory in proportion to the report
_JSON_CHUNKS_PER_WRITE = 1024


def _render(result, fmt, sink):
    """Write the report to sink in fmt, JSON and csv as they are encoded."""
    if fmt == "json":
        # the chunks json.dumps joins, so the bytes are the same
        chunks = json.JSONEncoder(sort_keys=True, indent=2).iterencode(result.payload)
        while text := "".join(itertools.islice(chunks, _JSON_CHUNKS_PER_WRITE)):
            sink.write(text)
        sink.write("\n")
    elif fmt == "csv":
        _write_csv(sink, result.rows)
    elif result.table_text is not None:
        sink.write(result.table_text)
    else:
        sink.write(_format_table(result.rows, result.preamble))


def _silence_stdout():
    """Point the stdout descriptor, if there is one, at the null device.

    Called after a reader closed the pipe: the flush at interpreter exit
    then writes what is still buffered there instead of failing again.
    """
    try:
        fd = sys.stdout.fileno()
    except ValueError:      # io.UnsupportedOperation: a stream with no descriptor
        return
    null = os.open(os.devnull, os.O_WRONLY)
    os.dup2(null, fd)
    os.close(null)


def _run(args, sink):
    """Run the command and write its report to sink; the exit code."""
    try:
        result = args.handler(args)
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (DomainError, DimensionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except QuatspinError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        _render(result, args.format, sink)
        sink.flush()
    except BrokenPipeError:
        # the reader stopped early; the verdict stands
        _silence_stdout()
    return result.exit_code


def main(argv=None):
    # the ~22k objects made at import live until exit anyway: frozen, no
    # collection walks them again, in the run or at interpreter shutdown
    gc.freeze()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    if args.out is None:
        return _run(args, sys.stdout)
    # opened before the command runs, as a shell's > PATH would be, so an
    # unwritable path costs no run
    try:
        sink = open(args.out, "w", encoding="utf-8")
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc.strerror or exc}", file=sys.stderr)
        return 2
    with sink:
        return _run(args, sink)


if __name__ == "__main__":
    sys.exit(main())

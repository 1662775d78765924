"""Command-line interface wiring the library to files and pipelines.

Every run is fully determined by its arguments; randomized subcommands
require an explicit seed.  Exit codes: 0 success, 1 validation failure,
2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import sys
from itertools import chain, cycle, islice
from typing import Callable, Iterable, Iterator, Sequence

from . import automaton, finite_chain, render, stabilizer
from .automaton import CqcaMatrix, CqcaValidationError, ValidatedCqca
from .finite_chain import (
    BoundaryBreaksAutomorphism,
    FiniteOperator,
    GeneratorsDoNotCommute,
    NotPure,
)
from .laurent import PolySyntaxError, render_poly
from .phase_space import frame_cells, parse_int, parse_observable
from .stabilizer import StateValidationError


def _add_matrix_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "matrix",
        nargs="?",
        help="built-in name (glider, fractal, identity, swap, shear:<poly>) or matrix file",
    )
    for key in ("t11", "t12", "t21", "t22"):
        parser.add_argument(f"--{key}", help=f"entry {key} in the polynomial grammar")


def _matrix_from_args(args: argparse.Namespace) -> ValidatedCqca:
    entries = [args.t11, args.t12, args.t21, args.t22]
    if any(e is not None for e in entries):
        if args.matrix is not None or any(e is None for e in entries):
            raise UsageError("give either a matrix source or all four --tij entries")
        return automaton.validate(CqcaMatrix.from_strings(*entries))
    if args.matrix is None:
        raise UsageError("a matrix source is required")
    return automaton.resolve_matrix(args.matrix)


class UsageError(Exception):
    pass


def _int_at_least(minimum: float = float("-inf")):
    """argparse type for integers >= minimum in ASCII digits; anything else exits 2."""

    def parse(text: str) -> int:
        try:
            value = parse_int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value

    return parse


def _region_sizes(text: str) -> list[int]:
    """argparse type for a comma-separated list of positive region sizes."""
    sizes = [_int_at_least(1)(part) for part in text.split(",") if part]
    if not sizes:
        raise argparse.ArgumentTypeError("must list at least one region size")
    return sizes


_BLOCK = 1 << 16  # bytes of output in one streamed block of a per-step table, about


def _write_output(chunks: Iterable[bytes], path: str | None) -> None:
    if path is not None:
        with open(path, "wb") as handle:
            handle.writelines(chunks)
        return
    out = getattr(sys.stdout, "buffer", None)
    if out is None:  # a text-only stdout, such as io.StringIO; every table and ASCII diagram is ASCII
        out, chunks = sys.stdout, (chunk.decode("ascii") for chunk in chunks)
    out.writelines(chunks)
    out.flush()


def _cmd_validate(args: argparse.Namespace) -> int:
    t = _matrix_from_args(args)
    print(f"valid, class={t.class_tag}, tr={render_poly(t.trace())}")
    return 0


def _cmd_classify(args: argparse.Namespace) -> int:
    t = _matrix_from_args(args)
    line = str(t.class_tag)
    if isinstance(t.class_tag, automaton.Periodic):
        p = automaton.period(t, args.cap)
        line += f", period={p}" if p is not None else f", period>{args.cap}"
    print(line)
    return 0


def _literals(block: list) -> list:
    """format_observable of each frame of a block as columns: the support's letters, then @lo unless 0."""
    lows = [b + ((c & -c).bit_length() - 1) // 2 if c else 0 for c, b in block]
    widths = [b + (c.bit_length() + 1) // 2 - lo if c else 1 for (c, b), lo in zip(block, lows)]
    letters = [view[:w] for view, w in zip(frame_cells(block, lows, max(widths), b"1XZY"), widths)]
    return [letters, [b"@%d" % lo if lo else b"" for lo in lows]]


def _cmd_evolve(args: argparse.Namespace) -> int:
    t = _matrix_from_args(args)
    _write_output(_table(t.orbit(parse_observable(args.obs), args.steps), _BLOCK, b"%d\t%b%b\n", _literals), None)
    return 0


def _cmd_diagram(args: argparse.Namespace) -> int:
    if args.format == "ppm" and args.output is None and not hasattr(sys.stdout, "buffer"):
        raise UsageError("stdout takes text only; write the PPM to a file with -o")
    t = _matrix_from_args(args)
    d = render.build_diagram(t, parse_observable(args.obs), args.steps)
    _write_output(render.emit_chunks(d, args.format), args.output)
    return 0


def _rows(fmt: str, lo: int, hi: int, *columns: Sequence[int]) -> str:
    """fmt once per row lo..hi-1, its fields read from the columns (indexed by row) by one %."""
    if lo >= hi:
        return ""
    fields = [0] * (len(columns) * (hi - lo))
    for i, column in enumerate(columns):
        fields[i::len(columns)] = column[lo:hi]
    return fmt * (hi - lo) % tuple(fields)


def _entangle_csv(ns: list[int], d: int, steps: int, region: int | None) -> Iterator[bytes]:
    """CSV rows t = 0..steps from the transient ns = n_0..n_k (see stabilizer._transient).

    Rows t < k, and every row if d = 0 (n_t = ns[t mod (k + 1)]), have their n, E_bi
    and E_tri baked into the row format, so only t varies.  From t = k on, n_t =
    n_k + (t - k) d and E_tri = min(2n, L) is 2n up to the row where 2n reaches L and
    L from there, so every column of a block is a range: one format, no call per row.
    """
    k, end, rows = len(ns) - 1, steps + 1, max(1, _BLOCK // 16)  # a row is about 16 bytes
    baked = ["%%d,%d,%d,%s\n" % (n, n, "" if region is None else min(2 * n, region)) for n in ns]
    n = twice = ()
    if d:  # n_t, and 2 n_t, at index t
        n = range(ns[k] - k * d, ns[k] + (end - k) * d, d)
        twice = range(2 * n.start, 2 * n.stop, 2 * d)
        cross = max(k, k - (2 * ns[k] - region) // (2 * d)) if region else end  # first row with 2n >= L
    else:
        k = cross = end
    below = ("%d,%d,%d,%d\n", range(end), n, n, twice) if region else ("%d,%d,%d,\n", range(end), n, n)
    for a in range(0, end, rows):
        b = min(a + rows, end)
        c, j = max(min(b, k), a), a % len(baked)
        text = "".join(islice(cycle(baked), j, j + c - a)) % tuple(range(a, c))
        text += _rows(below[0], max(a, k), min(b, cross), *below[1:])
        text += _rows(f"%d,%d,%d,{region}\n", max(a, cross), b, range(end), n, n)
        yield text.encode("ascii")


def _cmd_entangle(args: argparse.Namespace) -> int:
    t = _matrix_from_args(args)
    state = stabilizer.validate_state(parse_observable(args.state))
    ns = stabilizer._transient(t, state.xi, args.steps)
    csv = _entangle_csv(ns, t.trace_degree(), args.steps, args.region)
    _write_output(chain([b"t,n,E_bi,E_tri\n"], csv), args.output)
    return 0


def _cmd_rate(args: argparse.Namespace) -> int:
    t = _matrix_from_args(args)
    state = stabilizer.TIStabilizerState(parse_observable(args.state), 0)  # asymptotic_rate validates it
    predicted, empirical = stabilizer.asymptotic_rate(t, state, args.steps)
    print(f"predicted={predicted} empirical={empirical}")
    return 0


def _parse_site_letter(flag: str, text: str, origin: int, n_sites: int) -> tuple[int, str]:
    """SITE:LETTER with SITE a label in origin..origin + n_sites - 1, as (index, letter)."""
    site_text, sep, letter = text.rpartition(":")
    if not sep or letter not in ("X", "Y", "Z"):
        raise UsageError(f"expected SITE:LETTER with letter X, Y or Z, got {text!r}")
    try:
        site = parse_int(site_text)
    except ValueError:
        raise UsageError(f"{flag}: expected an integer site, got {site_text!r}") from None
    if not origin <= site < origin + n_sites:
        raise UsageError(f"{flag} site {site} falls off the chain")
    return site - origin, letter


def _table(rows: Iterator, line_bytes: int, fmt: bytes, columns: Callable[[list], list]) -> Iterator[bytes]:
    """Lines fmt % (k, fields) of rows 0, 1, ..., fields from the columns of a block (indexed by row); blocks
    of at most 256 rows, about _BLOCK bytes at ``line_bytes`` a line, then at the last block's mean."""
    start = 0
    while block := list(islice(rows, min(256, _BLOCK // line_bytes + 1))):
        text = _rows(fmt, 0, len(block), range(start, start + len(block)), *columns(block))
        yield text
        start, line_bytes = start + len(block), len(text) // len(block)


def _cmd_finite(args: argparse.Namespace) -> int:
    t = _matrix_from_args(args)
    origin = args.origin
    if args.mirror is not None and args.boundary != "open":
        raise UsageError("--mirror needs --boundary open")
    mirror, parity = (
        None if text is None else _parse_site_letter(flag, text, origin, args.sites)
        for flag, text in (("--mirror", args.mirror), ("--parity", args.parity))
    )
    rule, parts = finite_chain.truncate_rule(t, args.sites, args.boundary), []
    if args.obs is not None:
        v = parse_observable(args.obs)
        span = v.support()
        if span is not None:
            lo, hi = span
            # Report the support's left end if that is off the chain, else the first site
            # past the right end, whatever its letter (X1Z@2 on sites -2..2: site 3, a 1).
            if lo < origin or hi >= origin + args.sites:
                off = lo if lo < origin else max(lo, origin + args.sites)
                raise UsageError(f"observable site {off} falls off the chain")
        masks = (v.xi_plus.coefficients(origin, args.sites), v.xi_minus.coefficients(origin, args.sites))
        orbit = finite_chain.orbit_masks(rule, FiniteOperator.hermitian(args.sites, *masks), args.steps)
        parts.append(_table(orbit, args.sites + 16, b"%d\t%b%b\n", lambda rows: finite_chain.labels(rows, args.sites)))
    if mirror is not None:
        found = finite_chain.mirror_time(rule, *mirror)
        result = f"not mirrored within {2 * args.sites + 2} steps" if found is None else f"step {found}"
        parts.append([f"mirror {args.mirror}: {result}\n".encode()])
    if parity is not None:
        orbit = finite_chain.orbit_masks(rule, FiniteOperator.single_site(args.sites, *parity), args.steps)
        signs = lambda block: [[(b"+1", b"-1")[finite_chain.y_parity_bit(x, z)] for x, z, _ in block]]
        parts.append(_table(orbit, 16, b"%d\t%b\n", signs))
    if parts:
        _write_output(chain.from_iterable(parts), None)
    else:
        print(f"valid rule on {args.sites} sites ({args.boundary} boundary)")
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    checks = mismatches = 0
    for sample in range(args.samples):
        t = automaton.random_cqca(args.seed + sample, args.word_length, args.shear_degree)
        for k, state, size, measured in finite_chain.oracle_sweep(t, args.steps, args.ring, args.regions):
            expected = stabilizer.tripartite_entanglement(state, size)
            checks += 1
            if measured != expected:
                mismatches += 1
                print(
                    f"MISMATCH sample={sample} step={k} region={size}: "
                    f"rank oracle {measured} vs closed form {expected}"
                )
    print(f"{checks} checks, {mismatches} mismatches")
    if not checks:
        print(
            "error: the sweep made no checks; use a larger --ring or region sizes "
            "that fit it",
            file=sys.stderr,
        )
        return 1
    return 1 if mismatches else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cqca", description="Clifford cellular automaton laboratory"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check the automaton conditions")
    _add_matrix_arguments(p)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("classify", help="report the dynamical class")
    _add_matrix_arguments(p)
    p.add_argument("--cap", type=_int_at_least(1), default=64, help="period search bound")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("evolve", help="print an observable trajectory")
    _add_matrix_arguments(p)
    p.add_argument("--obs", required=True, help="observable literal, e.g. ZYX@-1")
    p.add_argument("--steps", type=_int_at_least(0), required=True)
    p.set_defaults(func=_cmd_evolve)

    p = sub.add_parser("diagram", help="render a space-time diagram")
    _add_matrix_arguments(p)
    p.add_argument("--obs", default="Z@0")
    p.add_argument("--steps", type=_int_at_least(1), required=True)
    p.add_argument("--format", choices=("ascii", "ppm"), default="ascii")
    p.add_argument("-o", "--output", help="output file (default stdout)")
    p.set_defaults(func=_cmd_diagram)

    p = sub.add_parser("entangle", help="entanglement trajectory as CSV")
    _add_matrix_arguments(p)
    p.add_argument("--state", default="Z@0", help="generator seed literal")
    p.add_argument("--steps", type=_int_at_least(0), required=True)
    p.add_argument(
        "--region", type=_int_at_least(1), help="finite region length L for E_tri"
    )
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_entangle)

    p = sub.add_parser("rate", help="predicted vs empirical entanglement rate")
    _add_matrix_arguments(p)
    p.add_argument("--state", default="Z@0")
    p.add_argument("--steps", type=_int_at_least(stabilizer.MIN_RATE_STEPS), default=256)
    p.set_defaults(func=_cmd_rate)

    p = sub.add_parser("finite", help="finite-chain simulation and diagnostics")
    _add_matrix_arguments(p)
    p.add_argument("--sites", type=_int_at_least(1), required=True)
    p.add_argument("--boundary", choices=("open", "ring"), default="open")
    p.add_argument("--origin", type=_int_at_least(), default=0, help="label of the leftmost site")
    p.add_argument("--obs", help="observable to evolve")
    p.add_argument("--steps", type=_int_at_least(0), default=0)
    p.add_argument("--mirror", metavar="SITE:LETTER", help="search for the mirror step")
    p.add_argument("--parity", metavar="SITE:LETTER", help="global-Y parity table")
    p.set_defaults(func=_cmd_finite)

    p = sub.add_parser("oracle", help="symbolic-vs-ring equivalence sweep")
    p.add_argument("--samples", type=_int_at_least(1), required=True)
    p.add_argument("--seed", type=_int_at_least(), required=True)
    p.add_argument("--ring", type=_int_at_least(1), default=64)
    p.add_argument("--steps", type=_int_at_least(0), default=20)
    p.add_argument("--word-length", type=_int_at_least(0), default=6)
    p.add_argument("--shear-degree", type=_int_at_least(1), default=2)
    p.add_argument("--regions", type=_region_sizes, default="8,16,24,32,40")
    p.set_defaults(func=_cmd_oracle)

    return parser


_parser = functools.cache(build_parser)  # built on main's first call, not at import


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (
        CqcaValidationError,
        StateValidationError,
        BoundaryBreaksAutomorphism,
        GeneratorsDoNotCommute,
        NotPure,
        PolySyntaxError,
    ) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except (OSError, OverflowError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Checkers for the outputs of benchmark jobs.

Each checker takes the program's output and the values the independent
reference (``reference.py``) computed for the same inputs, and raises
``CheckFailed`` on the first disagreement.  None compares against a stored
copy of an earlier output.
"""

from __future__ import annotations

import zlib
from fractions import Fraction

import reference

# render's fixed PPM palette, one RGB triple per letter.
PALETTE = {"1": b"\xff\xff\xff", "X": b"\xff\x00\x00", "Y": b"\x00\xff\x00", "Z": b"\x00\x00\xff"}


class CheckFailed(Exception):
    pass


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _lines(out: bytes) -> list[str]:
    return out.decode("ascii").splitlines()


def entangle(out: bytes, ns: list[int], region: int) -> None:
    """CSV rows t,n,E_bi,E_tri with n = dg xi_t, E_bi = n, E_tri = min(2n, L)."""
    lines = _lines(out)
    _require(lines[:1] == ["t,n,E_bi,E_tri"], "missing CSV header")
    _require(len(lines) == len(ns) + 1, f"{len(lines) - 1} rows for {len(ns)} steps")
    for t, (line, n) in enumerate(zip(lines[1:], ns)):
        expected = f"{t},{n},{n},{min(2 * n, region)}"
        _require(line == expected, f"row {t}: {line!r}, reference {expected!r}")


def rate(out: bytes, ns: list[int], trace_degree: int) -> None:
    """predicted = dg tr, empirical = slope of n over the second half of the run."""
    steps = len(ns) - 1
    half = steps // 2
    slope = Fraction(ns[steps] - ns[half], steps - half)
    expected = f"predicted={trace_degree} empirical={slope}"
    _require(_lines(out) == [expected], f"{out!r}, reference {expected!r}")


def power(entries, image, ref_entries, ref_image) -> None:
    """T^k entries and T^k xi0 as (mask, lowest exponent), bit for bit."""
    for name, got, want in zip(("t11", "t12", "t21", "t22"), entries, ref_entries):
        _require(got == want, f"{name} differs from the reference")
    _require(image == ref_image, "T^k xi0 differs from the reference")


def finite_ring(out: bytes, ref_letters: list[str]) -> None:
    """Line k is "k<TAB>sign letters" with letters xi_k folded onto the ring, sign real."""
    lines = _lines(out)
    _require(len(lines) == len(ref_letters), f"{len(lines)} lines for {len(ref_letters)} steps")
    for k, (line, want) in enumerate(zip(lines, ref_letters)):
        label, _, word = line.partition("\t")
        _require(label == str(k), f"line {k} is labelled {label!r}")
        _require(word[:1] in ("+", "-") and word[1:2] != "i", f"step {k}: sign of {word[:2]!r} is not real")
        _require(word[1:] == want, f"step {k}: letters differ from the folded reference")


def oracle_checks(ns: list[int], ring: int, regions: list[int]) -> int:
    """Checks the ring oracle must make for a state sequence with half-lengths ns."""
    checks = 0
    for n in ns:
        if ring < 2 * (2 * n + 1):
            break
        checks += sum(1 for size in regions if 2 * n <= size <= ring - 2 * n - 2)
    return checks


def oracle(out: bytes, expected_checks: int) -> None:
    """Zero mismatches over exactly the number of checks the reference predicts."""
    _require(expected_checks > 0, "a sweep without checks shows nothing")
    expected = f"{expected_checks} checks, 0 mismatches"
    _require(_lines(out) == [expected], f"{out!r}, reference {expected!r}")


def window(orbit) -> tuple[int, int]:
    """(left, width): the union of supports widened by one site on each side."""
    spans = [reference.support(xi) for xi in orbit]
    left = min(lo for lo, _ in spans) - 1
    right = max(hi for _, hi in spans) + 1
    return left, right - left + 1


def ascii_lines(rows):
    """The expected ASCII diagram, one line at a time: '.' for the identity and X, Y, Z otherwise."""
    for row in rows:
        yield (row.replace("1", ".") + "\n").encode("ascii")


def ppm_parts(rows, width: int, height: int):
    """The expected binary P6 image: the header, then one row of palette pixels at a time."""
    yield f"P6\n{width} {height}\n255\n".encode("ascii")
    for row in rows:
        yield b"".join(map(PALETTE.__getitem__, row))


def fingerprint(parts) -> tuple[int, int, int]:
    """(length, CRC-32, Adler-32) of the concatenated parts, without joining them.

    zlib is loaded with the interpreter, where importing hashlib would add
    3.6 MiB to the process's peak memory.
    """
    length, crc, adler = 0, 0, 1
    for part in parts:
        length, crc, adler = length + len(part), zlib.crc32(part, crc), zlib.adler32(part, adler)
    return length, crc, adler


def diagram(out: bytes, expected_print: tuple[int, int, int], expected_parts, compare) -> None:
    """The output equals the reference diagram.

    Only the reference's fingerprint is kept between rounds, so that the
    process's peak memory is the program's.  On a difference the reference is
    rebuilt from ``expected_parts()`` and ``compare`` says where it differs.
    """
    if fingerprint([out]) == expected_print:
        return
    compare(out, b"".join(expected_parts()))
    raise CheckFailed("the output's fingerprint differs from the reference")


def ascii_diagram(out: bytes, expected: bytes) -> None:
    """Every row and cell equals the reference text."""
    if out == expected:
        return
    got, want = _lines(out), _lines(expected)
    _require(len(got) == len(want), f"{len(got)} rows, reference {len(want)}")
    t = next((t for t, (a, b) in enumerate(zip(got, want)) if a != b), None)
    _require(t is not None, "line endings differ from the reference")
    col = next((i for i, (a, b) in enumerate(zip(got[t], want[t])) if a != b), None)
    raise CheckFailed(f"row {t} differs from the reference at column {col}")


def ppm_diagram(out: bytes, expected: bytes, width: int) -> None:
    """Header and every pixel equal the reference image."""
    if out == expected:
        return
    header_end = expected.index(b"255\n") + 4
    _require(out[:header_end] == expected[:header_end], f"header {out[:header_end]!r}")
    _require(len(out) == len(expected), f"{len(out)} bytes, reference {len(expected)}")
    cell = next(i for i in range(header_end, len(out), 3) if out[i:i + 3] != expected[i:i + 3])
    cell = (cell - header_end) // 3
    raise CheckFailed(f"pixel at row {cell // width}, column {cell % width} differs from the reference")

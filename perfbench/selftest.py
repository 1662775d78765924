#!/usr/bin/env python3
"""Self-test of the benchmark's reference and checkers.

Part one compares the Cayley-Hamilton orbits and powers of ``reference.py``
with direct matrix-vector and matrix-matrix products at small t.  Part two
requires each checker to accept a correct output and to reject a corrupted
copy of it (a flipped letter, an n off by one, a wrong pixel, a dropped CSV
row, ...).  ``run.py`` runs this before measuring; it also runs alone:

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import sys
from fractions import Fraction

import checks
import reference


class SelfTestFailed(Exception):
    pass


# [[1, q], [p, pq + 1]] with p = u^-1 + u and q = u^-1 + 1 + u: a shear product of trace degree 2.
SHEARED = reference.Matrix("1", "u^-1 + 1 + u", "u^-1 + u", "u^-2 + u^-1 + 1 + u + u^2")
STARTS = ["Z", "X", "YXZ@-3", "XZX@-1"]


def _matmul(a: tuple, b: tuple) -> tuple:
    a11, a12, a21, a22 = a
    b11, b12, b21, b22 = b
    add, mul = reference.add, reference.mul
    return (add(mul(a11, b11), mul(a12, b21)), add(mul(a11, b12), mul(a12, b22)),
            add(mul(a21, b11), mul(a22, b21)), add(mul(a21, b12), mul(a22, b22)))


def check_reference() -> None:
    for matrix in (reference.FRACTAL, reference.GLIDER, SHEARED):
        for start in STARTS:
            direct = [reference.observable(start)]
            for _ in range(24):
                direct.append(matrix.apply(direct[-1]))
            if list(matrix.orbit(direct[0], 24)) != direct:
                raise SelfTestFailed(f"Cayley-Hamilton orbit of {start} differs from T applied t times")
            if matrix.image(direct[0], 24) != direct[-1]:
                raise SelfTestFailed(f"T^24 {start} differs from T applied 24 times")
        product = (reference.ONE, reference.ZERO, reference.ZERO, reference.ONE)
        for k in range(13):
            if matrix.power(k) != product:
                raise SelfTestFailed(f"Cayley-Hamilton T^{k} differs from the repeated product")
            product = _matmul(product, matrix.entries)


def _rejects(checker, corrupted, what: str) -> None:
    try:
        checker(corrupted)
    except checks.CheckFailed:
        return
    raise SelfTestFailed(f"checker accepted {what}")


def _replace_line(out: bytes, index: int, new: str | None) -> bytes:
    """Replace line ``index``, or drop it when ``new`` is None."""
    lines = out.decode("ascii").split("\n")
    lines[index:index + 1] = [] if new is None else [new]
    return "\n".join(lines).encode("ascii")


def _flip_letter(word: str, at: int) -> str:
    return word[:at] + {"X": "Z", "Z": "Y", "Y": "X", "1": "X", ".": "X"}[word[at]] + word[at + 1:]


def check_checkers() -> None:
    """Each checker accepts an output built from the reference and rejects a corrupted copy.

    The outputs are written in the program's documented formats without running the
    program, so a fault in the program shows as failed jobs, never as a failed self-test.
    """

    def ns_of(matrix, start, steps):
        return [reference.half_length(xi) for xi in matrix.orbit(reference.observable(start), steps)]

    ns = ns_of(reference.FRACTAL, "Z", 12)
    rows = [f"{t},{n},{n},{min(2 * n, 8)}" for t, n in enumerate(ns)]
    out = "\n".join(["t,n,E_bi,E_tri"] + rows).encode("ascii") + b"\n"
    checks.entangle(out, ns, 8)
    t, n, _, tri = rows[5].split(",")
    _rejects(lambda o: checks.entangle(o, ns, 8), _replace_line(out, 6, f"{t},{int(n) + 1},{int(n) + 1},{tri}"),
             "an entangle row with n off by one")
    _rejects(lambda o: checks.entangle(o, ns, 8), _replace_line(out, 6, None), "an entangle CSV with a dropped row")

    ns = ns_of(reference.GLIDER, "Z", 16)
    out = f"predicted=1 empirical={Fraction(ns[16] - ns[8], 8)}\n".encode("ascii")
    checks.rate(out, ns, 1)
    _rejects(lambda o: checks.rate(o, ns, 1), out.replace(b"predicted=1", b"predicted=2"),
             "a rate line with the predicted rate off by one")

    entries = list(reference.FRACTAL.power(6))
    image = reference.FRACTAL.image(reference.observable("ZX@-1"), 6)
    checks.power(entries, image, entries, image)
    flipped = entries[:1] + [(entries[1][0] ^ 0b10, entries[1][1])] + entries[2:]
    _rejects(lambda e: checks.power(e, image, entries, image), flipped, "a power entry with one bit flipped")

    letters = [reference.ring_letters(xi, 16) for xi in reference.FRACTAL.orbit(reference.observable("ZX@3"), 6)]
    out = "".join(f"{k}\t-{word}\n" for k, word in enumerate(letters)).encode("ascii")
    checks.finite_ring(out, letters)
    _rejects(lambda o: checks.finite_ring(o, letters), _replace_line(out, 3, f"3\t-{_flip_letter(letters[3], 4)}"),
             "a ring line with one letter flipped")
    _rejects(lambda o: checks.finite_ring(o, letters), _replace_line(out, 3, f"3\t+i{letters[3]}"),
             "a ring line with an imaginary sign")

    expected = checks.oracle_checks(ns_of(reference.GLIDER, "Z", 16), 64, [8, 16, 24, 32, 40])
    out = f"{expected} checks, 0 mismatches\n".encode("ascii")
    checks.oracle(out, expected)
    _rejects(lambda o: checks.oracle(o, expected + 1), out, "an oracle sweep one check short")
    _rejects(lambda o: checks.oracle(o, 0), b"0 checks, 0 mismatches\n", "an oracle sweep without checks")

    orbit = list(reference.GLIDER.orbit(reference.observable("Y@2"), 8))
    left, width = checks.window(orbit)
    letters = [reference.letters(xi, left, width) for xi in orbit]

    def ascii_parts():
        return checks.ascii_lines(letters)

    def ascii_check(o):
        checks.diagram(o, checks.fingerprint(ascii_parts()), ascii_parts, checks.ascii_diagram)

    text = b"".join(ascii_parts())
    ascii_check(text)
    line = text.decode("ascii").split("\n")[4]
    _rejects(ascii_check, _replace_line(text, 4, _flip_letter(line, 3)), "an ASCII diagram with one cell flipped")

    def ppm_parts():
        return checks.ppm_parts(letters, width, len(letters))

    def ppm_check(o):
        checks.diagram(o, checks.fingerprint(ppm_parts()), ppm_parts,
                       lambda out, want: checks.ppm_diagram(out, want, width))

    image = b"".join(ppm_parts())
    ppm_check(image)
    at = len(image) - 3 * (width + 2)
    wrong = image[:at] + bytes(255 - b for b in image[at:at + 3]) + image[at + 3:]
    _rejects(ppm_check, wrong, "a PPM image with one pixel wrong")


def run() -> None:
    check_reference()
    try:
        check_checkers()
    except checks.CheckFailed as exc:
        raise SelfTestFailed(f"checker rejected an uncorrupted output: {exc}") from exc


if __name__ == "__main__":
    try:
        run()
    except SelfTestFailed as exc:
        print(f"self-test failed: {exc}", file=sys.stderr)
        sys.exit(1)
    print("self-test passed")

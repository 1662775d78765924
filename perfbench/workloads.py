"""The benchmark's workloads: fixed job lists whose inputs come from a seed.

A job list is a pair of functions.  ``draw(mods, rng)`` makes every seeded
choice, searches included, and returns plain data; it runs once, before set-up
is timed, because a search needs a seed-dependent number of draws.
``build(mods, drawn)`` is the timed set-up: it validates the automata it
needs, parses inputs and returns the jobs.  A job runs through an entry point
users call (``cli.main`` in-process, or the library where no subcommand
exists) and carries a ``make_check`` callable that computes the independent
expected values after set-up and returns the job's checker.

Seeded inputs are drawn so that a job's size does not depend on the seed:
random automata are kept only when their trace equals a fixed polynomial
(so their entanglement grows at a fixed rate), observables are single
letters or short words at a seeded site, and oracle seeds are kept only when
the reference predicts a fixed number of ring checks.
"""

from __future__ import annotations

import dataclasses
import io
import sys
from typing import Callable

import checks
import reference


class JobError(Exception):
    """A subcommand exited with a nonzero code."""


@dataclasses.dataclass
class Job:
    label: str
    run: Callable[[], object]
    make_check: Callable[[], Callable[[object], None]]


def run_cli(cli, argv: list[str]) -> bytes:
    """``cli.main(argv)`` with stdout captured as bytes; nonzero exit raises."""
    buffer = io.BytesIO()
    # cli._write_output writes to sys.stdout.buffer, so stdout wraps a bytes buffer.
    text = io.TextIOWrapper(buffer, encoding="utf-8", newline="\n", write_through=True)
    errors = io.StringIO()
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = text, errors
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse rejected the arguments
        code = exc.code
    finally:
        sys.stdout, sys.stderr = saved
        text.flush()
        text.detach()
    if code != 0:
        detail = errors.getvalue().strip() or buffer.getvalue().decode("utf-8", "replace").strip()
        raise JobError(f"cqca {' '.join(argv)} exited {code}: {detail}")
    return buffer.getvalue()


def _cli_job(mods, argv: list[str], make_check) -> Job:
    return Job("cqca " + " ".join(argv), lambda: run_cli(mods.cli, argv), make_check)


def _find_automaton(mods, rng, trace: str) -> int:
    """The first ``random_cqca`` seed from a seeded start whose trace renders as ``trace``."""
    seed = rng.randrange(1 << 30)
    while mods.laurent.render_poly(mods.automaton.random_cqca(seed, 4, 2).trace()) != trace:
        seed += 1
    return seed


def _seeded(mods, seed: int):
    """The automaton ``random_cqca(seed, 4, 2)``, validated, and its entry texts."""
    t = mods.automaton.validate(mods.automaton.random_cqca(seed, 4, 2).matrix)
    return t, tuple(mods.laurent.render_poly(p) for p in t.matrix.entries())


def _sources(mods, seeds: list[int]):
    """(CLI arguments, entry texts): fractal and glider by name, then one per seeded automaton."""
    sources = [(["fractal"], reference.BUILTIN_ENTRIES["fractal"]), (["glider"], reference.BUILTIN_ENTRIES["glider"])]
    for seed in seeds:
        _, entries = _seeded(mods, seed)
        sources.append(([f"--{key}={e}" for key, e in zip(("t11", "t12", "t21", "t22"), entries)], entries))
    return sources


def _half_lengths(entries, literal: str, steps: int) -> list[int]:
    orbit = reference.Matrix(*entries).orbit(reference.observable(literal), steps)
    return [reference.half_length(xi) for xi in orbit]


def draw_trajectory(mods, rng) -> dict:
    return {"seeds": [_find_automaton(mods, rng, tr) for tr in ("u^-1 + 1 + u", "u^-2 + 1 + u^2")],
            "regions": [rng.randrange(16, 512) for _ in range(3)]}


def trajectory(mods, drawn) -> list[Job]:
    """entangle and rate at 10^3 steps; the seed picks two automata and the regions.

    The states are fixed per job: the state changes how fast n grows, and so
    the cost of a job, while the region length L costs nothing.
    """
    fractal, glider, seeded1, seeded2 = _sources(mods, drawn["seeds"])
    jobs = []
    for ((source, entries), state, steps), region in zip(
            ((fractal, "Z", 1024), (glider, "Z", 1024), (seeded1, "Y", 512)), drawn["regions"]):
        argv = ["entangle", *source, f"--state={state}", "--steps", str(steps), "--region", str(region)]

        def ref(entries=entries, state=state, steps=steps, region=region):
            ns = _half_lengths(entries, state, steps)
            return lambda out: checks.entangle(out, ns, region)

        jobs.append(_cli_job(mods, argv, ref))
    for (source, entries), state, steps in ((fractal, "XZX@-1", 1024), (fractal, "X", 768),
                                            (glider, "X", 1024), (seeded2, "Z", 256)):
        argv = ["rate", *source, f"--state={state}", "--steps", str(steps)]

        def ref(entries=entries, state=state, steps=steps):
            ns = _half_lengths(entries, state, steps)
            return lambda out: checks.rate(out, ns, reference.top(reference.Matrix(*entries).trace))

        jobs.append(_cli_job(mods, argv, ref))
    return jobs


JUMPS = [("fractal", 4096), ("fractal", 3000), ("glider", 4096), ("glider", 2500), ("glider", 1000)]
SEEDED_JUMPS = [1500, 1500]


def draw_jump_ahead(mods, rng) -> dict:
    seeds = [_find_automaton(mods, rng, "u^-1 + 1 + u") for _ in SEEDED_JUMPS]
    words = ["".join(rng.choice("XYZ") for _ in range(3)) for _ in range(len(JUMPS) + len(SEEDED_JUMPS))]
    return {"seeds": seeds, "literals": [f"{word}@{rng.randrange(-8, 8)}" for word in words]}


def jump_ahead(mods, drawn) -> list[Job]:
    """power(k) then apply at sparse k; no subcommand jumps, so this uses the library."""
    builtins = {"fractal": mods.automaton.fractal(), "glider": mods.automaton.glider()}
    cases = [(name, builtins[name], reference.BUILTIN_ENTRIES[name], k) for name, k in JUMPS]
    for seed, k in zip(drawn["seeds"], SEEDED_JUMPS):
        t, entries = _seeded(mods, seed)
        cases.append((str(t.matrix), t, entries, k))
    jobs = []
    for (name, t, entries, k), literal in zip(cases, drawn["literals"]):
        xi0 = mods.phase_space.parse_observable(literal)

        def run(t=t, k=k, xi0=xi0):
            tk = t.power(k)
            return tk, tk.apply(xi0)

        def ref(entries=entries, k=k, literal=literal):
            matrix = reference.Matrix(*entries)
            ref_entries = list(matrix.power(k))
            image = matrix.image(reference.observable(literal), k)

            def check(out):
                tk, v = out
                got = [(p.mask, p.min_exp) for p in tk.matrix.entries()]
                checks.power(got, ((v.xi_plus.mask, v.xi_plus.min_exp), (v.xi_minus.mask, v.xi_minus.min_exp)),
                             ref_entries, image)

            return check

        jobs.append(Job(f"{name}.power({k}).apply({literal})", run, ref))
    return jobs


def _find_oracle_seed(mods, rng, ring: int, steps: int, regions: list[int], target: int) -> int:
    """A seeded oracle seed whose sweep the reference predicts to make ``target`` checks."""
    seed = rng.randrange(1 << 30)
    while True:
        entries = [mods.laurent.render_poly(p) for p in mods.automaton.random_cqca(seed, 6, 2).matrix.entries()]
        if checks.oracle_checks(_half_lengths(entries, "Z", steps), ring, regions) == target:
            return seed
        seed += 1


RINGS = [("Y", 512, 64), ("ZX", 256, 256), ("X", 128, 128)]
ORACLES = [(64, 16, [8, 16, 24, 32, 40], 29), (128, 16, [16, 32, 48, 64], 43), (256, 12, [16, 64, 96], 25)]


def draw_finite_ring(mods, rng) -> dict:
    return {"seeds": [_find_automaton(mods, rng, "u^-1 + 1 + u")],
            # A ring is translation invariant, so the seeded site does not change the cost.
            "sites": [rng.randrange(sites - len(word)) for word, sites, _ in RINGS],
            "oracle_seeds": [_find_oracle_seed(mods, rng, *oracle) for oracle in ORACLES]}


def finite_ring(mods, drawn) -> list[Job]:
    """cqca finite on rings of 128-512 sites and cqca oracle sweeps on rings of 64-256."""
    jobs = []
    for (source, entries), (word, sites, steps), site in zip(_sources(mods, drawn["seeds"]), RINGS, drawn["sites"]):
        literal = f"{word}@{site}"
        argv = ["finite", *source, "--sites", str(sites), "--boundary", "ring",
                f"--obs={literal}", "--steps", str(steps)]

        def ref(entries=entries, literal=literal, sites=sites, steps=steps):
            orbit = reference.Matrix(*entries).orbit(reference.observable(literal), steps)
            rows = [reference.ring_letters(xi, sites) for xi in orbit]
            return lambda out: checks.finite_ring(out, rows)

        jobs.append(_cli_job(mods, argv, ref))
    for (ring, steps, regions, target), seed in zip(ORACLES, drawn["oracle_seeds"]):
        argv = ["oracle", "--samples", "1", "--seed", str(seed), "--ring", str(ring),
                "--steps", str(steps), "--regions", ",".join(map(str, regions))]
        jobs.append(_cli_job(mods, argv, lambda target=target: lambda out: checks.oracle(out, target)))
    return jobs


DIAGRAMS = [("fractal", 512, "ppm"), ("fractal", 256, "ascii"), ("glider", 1024, "ascii"), ("glider", 512, "ppm")]


def draw_diagram(mods, rng) -> dict:
    return {"literals": [f"{rng.choice('XYZ')}@{rng.randrange(-64, 64)}" for _ in DIAGRAMS]}


def diagram(mods, drawn) -> list[Job]:
    """cqca diagram in both formats at 256-1024 rows; the seed picks the observable."""
    jobs = []
    for (name, steps, fmt), literal in zip(DIAGRAMS, drawn["literals"]):
        argv = ["diagram", name, f"--obs={literal}", "--steps", str(steps), "--format", fmt]

        def ref(name=name, literal=literal, steps=steps, fmt=fmt):
            matrix, xi0 = reference.Matrix(*reference.BUILTIN_ENTRIES[name]), reference.observable(literal)
            left, width = checks.window(matrix.orbit(xi0, steps))

            def parts():
                rows = (reference.letters(xi, left, width) for xi in matrix.orbit(xi0, steps))
                return checks.ppm_parts(rows, width, steps + 1) if fmt == "ppm" else checks.ascii_lines(rows)

            expected = checks.fingerprint(parts())
            compare = (lambda out, want: checks.ppm_diagram(out, want, width)) if fmt == "ppm" else checks.ascii_diagram
            return lambda out: checks.diagram(out, expected, parts, compare)

        jobs.append(_cli_job(mods, argv, ref))
    return jobs


# Each workload runs two job lists, as (draw, build) pairs.  The pairing keeps
# every layer's main cost on one workload and off the other, and lets each run
# last 60 s: on a shared 2-vCPU VM, speed moves by 20-45 % for stretches of
# seconds, and 28-33 s runs of the four lists as separate workloads did not
# repeat within the bounds.
WORKLOADS = {
    "stepwise": ((draw_trajectory, trajectory), (draw_diagram, diagram)),
    "jump_ring": ((draw_jump_ahead, jump_ahead), (draw_finite_ring, finite_ring)),
}

import contextlib
import hashlib
import io
import sys
import tracemalloc

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as hst

from cqcalab import cli
from cqcalab.automaton import CqcaMatrix, fractal, glider, identity, random_cqca, swap, validate
from cqcalab.cli import main
from cqcalab.finite_chain import FiniteOperator, truncate_rule
from cqcalab.laurent import render_poly
from cqcalab.phase_space import PhaseVector, format_observable, parse_observable
from cqcalab.stabilizer import entanglement_trajectory, trajectory_csv, validate_state
from oracles import letter_at, orbit_per_site


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def usage_exit(capsys, *argv):
    """Run a command that argparse must reject; return its stderr."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    return capsys.readouterr().err


class TestValidate:
    def test_glider(self, capsys):
        code, out, _ = run(capsys, "validate", "glider")
        assert code == 0
        assert out == "valid, class=Glider(1), tr=u^-1 + u\n"

    def test_singular_matrix_fails(self, capsys):
        code, _, err = run(
            capsys, "validate", "--t11", "1", "--t12", "1", "--t21", "1", "--t22", "1"
        )
        assert code == 1
        assert "DetNotMonomial" in err

    def test_matrix_file(self, capsys, tmp_path):
        path = tmp_path / "m.cqca"
        path.write_text("t11 u^-1 + 1 + u\nt12 1\nt21 1\nt22 0\n")
        code, out, _ = run(capsys, "validate", str(path))
        assert code == 0
        assert "Fractal" in out

    def test_missing_source_is_usage_error(self, capsys):
        code, _, err = run(capsys, "validate")
        assert code == 2
        assert "usage error" in err

    def test_partial_entries_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "validate", "--t11", "1")
        assert code == 2

    def test_unknown_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2


class TestClassify:
    def test_periodic_with_period(self, capsys):
        code, out, _ = run(
            capsys, "classify", "--t11", "0", "--t12", "1", "--t21", "1", "--t22", "1"
        )
        assert code == 0
        assert out == "Periodic, period=3\n"

    def test_shear_name(self, capsys):
        # shears square to the identity over F2
        code, out, _ = run(capsys, "classify", "shear:u^-1 + u")
        assert code == 0
        assert out == "Periodic, period=2\n"


    def test_period_cap_output(self, capsys):
        code, out, _ = run(
            capsys, "classify", "--t11", "0", "--t12", "1", "--t21", "1", "--t22", "1",
            "--cap", "2",
        )
        assert code == 0
        assert out == "Periodic, period>2\n"

    @pytest.mark.parametrize("cap", ["0", "-3"])
    def test_nonpositive_cap_is_usage_error(self, capsys, cap):
        err = usage_exit(
            capsys, "classify", "--t11", "0", "--t12", "1", "--t21", "1", "--t22", "1",
            "--cap", cap,
        )
        assert "--cap: must be at least 1" in err


class TestEvolve:
    def test_glider_trajectory(self, capsys):
        code, out, _ = run(capsys, "evolve", "glider", "--obs", "ZYX@-1", "--steps", "2")
        assert code == 0
        assert out.splitlines() == ["0\tZYX@-1", "1\tZYX@-2", "2\tZYX@-3"]

    def test_negative_steps_is_usage_error(self, capsys):
        err = usage_exit(capsys, "evolve", "glider", "--obs", "Z", "--steps", "-1")
        assert "--steps: must be at least 0" in err

    def test_observable_without_z_component(self, capsys):
        code, out, _ = run(capsys, "evolve", "fractal", "--obs", "X@57", "--steps", "3")
        assert code == 0
        assert out == "0\tX@57\n1\tXYX@56\n2\tXZZZX@55\n3\tXY1X1YX@54\n"

    def test_identity_rows(self, capsys):
        assert run(capsys, "evolve", "glider", "--obs", "1@7", "--steps", "2") == (0, "0\t1\n1\t1\n2\t1\n", "")

    # Digests of the output when each row was printed on its own, through format_observable.
    @pytest.mark.parametrize("argv, digest", [
        ("evolve fractal --obs Z --steps 4000",
         "ddc10f411485537045a59a81c13569dde97b0fcf6024111a62e167490bee9687"),
        ("evolve glider --obs XZY@-3 --steps 4000",
         "dd331b55c69cc82caee3b6a667827718644d24c6fe64b50304351dfb49773631"),
        ("evolve fractal --obs Y@5 --steps 300",
         "a7b915cfc81c994de28e063caea659aecdb51670c5dcc04ef3b92f0fe4bd8b81"),
    ])
    def test_pinned_digests(self, capsys, argv, digest):
        code, out, err = run(capsys, *argv.split())
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @given(
        hst.builds(
            random_cqca,
            seed=hst.integers(min_value=0, max_value=10**9),
            word_length=hst.integers(min_value=0, max_value=5),
            max_shear_degree=hst.integers(min_value=1, max_value=2),
        ),
        hst.one_of(
            hst.sampled_from(["1", "1@7", "1@-100", "Z", "X@1", "Y@-1"]),
            hst.builds("{}@{}".format, hst.text(alphabet="1XYZ", min_size=1, max_size=8),
                       hst.integers(min_value=-100, max_value=100)),
        ),
        hst.integers(min_value=0, max_value=40),
        hst.sampled_from([1, 7, 64, 1 << 16]),
    )
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_streamed_rows_against_format_observable(self, capsys, t, literal, steps, block):
        # The block sizes put 1, a few, some and up to 256 rows in a block.
        expected = "".join(f"{k}\t{format_observable(PhaseVector.from_frame(*frame))}\n"
                           for k, frame in enumerate(t.orbit(parse_observable(literal), steps)))
        entries = [f"--{key}={render_poly(p)}" for key, p in zip(("t11", "t12", "t21", "t22"), t.matrix.entries())]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cli, "_BLOCK", block)
            assert run(capsys, "evolve", *entries, f"--obs={literal}", "--steps", str(steps)) == (0, expected, "")


class TestDiagram:
    def test_ascii_stdout(self, capsys):
        code, out, _ = run(
            capsys, "diagram", "glider", "--obs", "X@0", "--steps", "2"
        )
        assert code == 0
        assert [row.strip(".") for row in out.splitlines()] == ["X", "Z", "ZXZ"]

    def test_ppm_to_file(self, tmp_path, capsys):
        target = tmp_path / "out.ppm"
        code, _, _ = run(
            capsys,
            "diagram", "fractal", "--steps", "8", "--format", "ppm", "-o", str(target),
        )
        assert code == 0
        assert target.read_bytes().startswith(b"P6\n")

    def test_identity_observable(self, capsys):
        assert run(capsys, "diagram", "glider", "--obs", "1", "--steps", "2") == (
            0, "...\n...\n...\n", ""
        )

    def test_observable_without_z_component(self, capsys):
        # X@57 has a zero Z component, which must not be shifted to the frame.
        code, out, err = run(capsys, "diagram", "fractal", "--obs", "X@57", "--steps", "30")
        assert (code, err) == (0, "")
        rows = out.splitlines()
        assert len(rows) == 31 and {len(row) for row in rows} == {63}
        assert rows[0] == "." * 31 + "X" + "." * 31
        assert rows[-1] == ".XZZZ..X.X...XZZZ.ZZZX...XZZZ..X..ZZZX...XZZZ.ZZZX...X.X..ZZZX."
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "9949e7cf73946c4319888d2c9d004b8fc67e9857218899a20dfa7ed2ec91ed81"
        )

    # Digests of the output before the orbit yielded interleaved frames.
    @pytest.mark.parametrize("argv, digest", [
        ("diagram glider --obs=Y@2 --steps 1024",
         "5642005302e9ebbf73adef74dd49afa7992c39d048261b091727edb1560a4427"),
        ("diagram fractal --obs=Y@-48 --steps 512 --format ppm",
         "4d06e70615e39d497393abbdd4d0ab439ea45c5910509486497b1655bf22cc82"),
    ])
    def test_pinned_digests(self, capsys, tmp_path, argv, digest):
        target = tmp_path / "out"
        assert run(capsys, *argv.split(), "-o", str(target)) == (0, "", "")
        assert hashlib.sha256(target.read_bytes()).hexdigest() == digest

    def test_ppm_streams_in_blocks(self, capsys, tmp_path):
        # Written a block of rows at a time: the traced peak is the packed diagram and one
        # block, well under the 6.3 MB image (a whole-image buffer plus its join is 2.2x).
        target = tmp_path / "out.ppm"
        tracemalloc.start()
        try:
            code = main(["diagram", "glider", "--steps", "1024", "--format", "ppm", "-o", str(target)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, *capsys.readouterr()) == (0, "", "")
        assert target.read_bytes().startswith(b"P6\n2051 1025\n255\n")
        assert peak < target.stat().st_size / 2

    def test_zero_steps_is_usage_error(self, capsys):
        err = usage_exit(capsys, "diagram", "glider", "--steps", "0")
        assert "--steps: must be at least 1" in err


class TestEntangle:
    def test_csv(self, capsys):
        code, out, _ = run(
            capsys, "entangle", "glider", "--state", "Z@0", "--steps", "5"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "t,n,E_bi,E_tri"
        assert [line.split(",")[2] for line in lines[1:]] == ["0", "1", "2", "3", "4", "5"]

    def test_csv_with_region(self, capsys):
        code, out, _ = run(
            capsys, "entangle", "glider", "--steps", "3", "--region", "4"
        )
        assert code == 0
        assert out.splitlines()[-1] == "3,3,3,4"

    def test_invalid_state_fails(self, capsys):
        code, _, err = run(capsys, "entangle", "glider", "--state", "XX@0", "--steps", "2")
        assert code == 1
        assert "NotReflectionSymmetric" in err

    def test_invalid_state_output(self, capsys):
        assert run(capsys, "entangle", "glider", "--state", "XX", "--steps", "3") == (
            1, "", "NotReflectionSymmetric: seed is not mirror-symmetric about site 0\n"
        )

    def test_periodic_automaton_keeps_product_state(self, capsys):
        code, out, _ = run(
            capsys, "entangle", "identity", "--state", "Z", "--steps", "3", "--region", "2"
        )
        assert code == 0
        assert out == "t,n,E_bi,E_tri\n0,0,0,0\n1,0,0,0\n2,0,0,0\n3,0,0,0\n"

    def test_negative_steps_is_usage_error(self, capsys):
        err = usage_exit(capsys, "entangle", "glider", "--steps", "-1")
        assert "--steps: must be at least 0" in err


PERIOD3 = validate(CqcaMatrix.from_strings("0", "1", "1", "1"))  # tr = 1
# T**-12 Z under the glider: n falls from 11 to 0 over the transient, then grows.
BACKWARD = format_observable(glider().inverse().power(12).apply(parse_observable("Z")))


def matrix_flags(t):
    return [f"--{key}={render_poly(p)}" for key, p in zip(("t11", "t12", "t21", "t22"), t.matrix.entries())]


class TestStreamedEntangle:
    """The block formatter of cqca entangle against trajectory_csv(entanglement_trajectory(...)),
    at blocks of 1, 2, 3 and 4,096 rows."""

    @staticmethod
    def check(capsys, monkeypatch, t, literal, steps, region):
        expected = trajectory_csv(entanglement_trajectory(t, validate_state(parse_observable(literal)), steps, region))
        argv = ["entangle", *matrix_flags(t), f"--state={literal}", "--steps", str(steps)]
        argv += [] if region is None else ["--region", str(region)]
        for rows in (1, 2, 3, 4096):
            monkeypatch.setattr(cli, "_BLOCK", 16 * rows)
            assert run(capsys, *argv) == (0, expected, "")

    @pytest.mark.parametrize("t, literal, steps, region", [
        (fractal(), "Z", 40, 64),  # 2n reaches L at t = 33: a block edge at 1 and 3 rows, inside at 2
        (fractal(), "Z", 40, 62),  # at t = 32: inside a 3-row block
        (fractal(), "Z", 40, 1),  # from t = 1 on
        (glider(), "Z", 30, 10**6),  # never reached
        (glider(), "Z", 30, None),
        (glider() @ glider(), "Z", 30, 17),  # d = 2: 2n passes L without equalling it
        (identity(), "Z", 7, 1),  # d = 0
        (swap(), "Z", 7, None),
        (swap(), "XZX@-1", 8, 3),
        (PERIOD3, "Y", 8, 2),
        (PERIOD3, "XZX@-1", 1, 5),  # fewer steps than the period
        (glider(), BACKWARD, 5, 7),  # fewer steps than the transient
        (glider(), BACKWARD, 12, 7),
        (glider(), BACKWARD, 40, 7),
    ])
    def test_cases(self, capsys, monkeypatch, t, literal, steps, region):
        self.check(capsys, monkeypatch, t, literal, steps, region)

    @given(hst.integers(min_value=0, max_value=10**9), hst.integers(min_value=0, max_value=7),
           hst.sampled_from(["Z", "X", "XZX@-1", "YXY@-1", "YXXXXXY@-3", BACKWARD]),
           hst.integers(min_value=0, max_value=60), hst.one_of(hst.none(), hst.integers(min_value=1, max_value=100)))
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_random_automata(self, capsys, monkeypatch, seed, word_length, literal, steps, region):
        self.check(capsys, monkeypatch, random_cqca(seed, word_length, 2), literal, steps, region)


class TestStreamedFinite:
    ARGV = ["finite", "glider", "--sites", "9", "--origin=-4", "--steps", "12"]
    PARTS = (["--obs=ZY@-1"], ["--mirror=0:X"], ["--parity=2:Z"])

    def test_observable_rows_against_the_reference(self, capsys):
        rule = truncate_rule(glider(), 9, "open")
        op = FiniteOperator.hermitian(9, 1 << 4, 0b11 << 3)  # Z on site -1 and Y on site 0
        expected = []
        for k, (x, z, phase) in enumerate(orbit_per_site(rule, op, 12)):
            op = FiniteOperator(9, x, z, phase)
            sign = ("+", "+i", "-", "-i")[(phase - (x & z).bit_count()) % 4]
            expected.append(f"{k}\t{sign}{''.join(letter_at(op, s) for s in range(9))}\n")
        assert run(capsys, *self.ARGV, *self.PARTS[0]) == (0, "".join(expected), "")

    def test_obs_mirror_and_parity_in_one_call(self, capsys, monkeypatch):
        alone = [run(capsys, *self.ARGV, *part) for part in self.PARTS]
        assert [(code, err) for code, _, err in alone] == [(0, "")] * 3
        assert [len(out.splitlines()) for _, out, _ in alone] == [13, 1, 13]
        together = (0, "".join(out for _, out, _ in alone), "")
        for rows in (1, 2, 3, 4096):  # a row of 9 sites counts 9 + 16 bytes
            monkeypatch.setattr(cli, "_BLOCK", 25 * rows)
            assert run(capsys, *self.ARGV, *self.PARTS[0], *self.PARTS[1], *self.PARTS[2]) == together
            assert run(capsys, *self.ARGV, *self.PARTS[2], *self.PARTS[1], *self.PARTS[0]) == together


def run_text_stdout(argv):
    """main(argv) with stdout an io.StringIO, a text stream with no .buffer."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


class TestTextOnlyStdout:
    @pytest.mark.parametrize("argv", [
        "diagram glider --obs=Y@2 --steps 6",
        "entangle fractal --steps 9 --region 4",
        "finite fractal --sites 9 --origin=-4 --obs=XZ@0 --steps 5 --mirror=0:X --parity=2:Z",
    ])
    def test_streamed_output_is_written_as_text(self, capsys, argv):
        expected = run(capsys, *argv.split())
        assert expected[0] == 0 and expected[1]
        assert run_text_stdout(argv.split()) == expected

    def test_ppm_needs_a_file(self, tmp_path):
        argv = ["diagram", "glider", "--steps", "6", "--format", "ppm"]
        code, out, err = run_text_stdout(argv)
        assert (code, out) == (2, "")
        assert err.startswith("usage error: ") and "-o" in err
        target = tmp_path / "out.ppm"
        assert run_text_stdout([*argv, "-o", str(target)]) == (0, "", "")
        assert target.read_bytes().startswith(b"P6\n")


class TestParserReuse:
    """``main`` builds its parser once per process; no call may leave state in it."""

    CALLS = [
        ["entangle", "glider", "--steps", "-1"],  # argparse rejects this: exit 2
        ["oracle", "--samples", "1", "--seed", "3", "--ring", "64", "--steps", "4", "--regions", "8"],
        ["oracle", "--samples", "1", "--seed", "3", "--ring", "64", "--steps", "4"],
        ["entangle", "glider", "--steps", "3", "-o", None],
        ["entangle", "glider", "--steps", "3"],
    ]

    def outcomes(self, capsys, target, fresh):
        results = []
        for argv in self.CALLS:
            if fresh:
                cli._parser.cache_clear()
            argv = [str(target) if arg is None else arg for arg in argv]
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            results.append((code, *capsys.readouterr()))
        return results

    def test_calls_leave_no_state(self, capsys, tmp_path):
        target = tmp_path / "trajectory.csv"
        reused = self.outcomes(capsys, target, fresh=False)
        written = target.read_text()
        target.unlink()
        assert [code for code, *_ in reused] == [2, 0, 0, 0, 0]
        # --regions 8 did not stick: the next call sweeps the default 8,16,24,32,40.
        assert reused[1][1] == "2 checks, 0 mismatches\n"
        assert reused[2][1] == "21 checks, 0 mismatches\n"
        # -o did not stick: the next call writes the same CSV to stdout.
        assert reused[3][1] == "" and reused[4][1] == written
        assert self.outcomes(capsys, target, fresh=True) == reused
        assert target.read_text() == written


class TestRate:
    def test_glider(self, capsys):
        code, out, _ = run(capsys, "rate", "glider", "--steps", "64")
        assert code == 0
        assert out == "predicted=1 empirical=1\n"

    def test_hundred_thousand_steps(self, capsys):
        # n is counted by the closed form after the transient; evolving every state would hold O(t^2) bits.
        code, out, _ = run(capsys, "rate", "fractal", "--steps", "100000")
        assert code == 0
        assert out == "predicted=1 empirical=1\n"

    def test_seed_validated_once(self, capsys, monkeypatch):
        calls = []
        validate_state = cli.stabilizer.validate_state
        monkeypatch.setattr(cli.stabilizer, "validate_state", lambda v: calls.append(v) or validate_state(v))
        assert run(capsys, "rate", "glider", "--state", "ZXZ@-1", "--steps", "64") == (0, "predicted=1 empirical=1\n", "")
        assert calls == [parse_observable("ZXZ@-1")]
        code, out, err = run(capsys, "rate", "glider", "--state", "XX@0", "--steps", "64")
        assert (code, out, err) == (1, "", "NotReflectionSymmetric: seed is not mirror-symmetric about site 0\n")
        assert len(calls) == 2

    def test_short_horizon_is_usage_error(self, capsys):
        err = usage_exit(capsys, "rate", "fractal", "--steps", "10")
        assert "--steps: must be at least 16" in err


class TestRateTheoremAtScale:
    """n(t) = n(t0) + (t - t0) d at t = 10**6, end to end: counted, not walked, and streamed."""

    def test_rate(self, capsys):
        assert run(capsys, "rate", "fractal", "--steps", "1000000") == (0, "predicted=1 empirical=1\n", "")

    def test_entangle_csv(self, capsys, tmp_path):
        path = tmp_path / "traj.csv"
        tracemalloc.start()
        try:
            code = main(["entangle", "fractal", "--steps", "1000000", "--region", "64", "-o", str(path)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, *capsys.readouterr()) == (0, "", "")
        assert peak < 4 << 20
        t, xi = fractal(), parse_observable("Z")
        # Rows on both sides of the CLI's 4096-row block edges, and the last one.
        samples = (0, 1, 2, 100, 4095, 4096, 8192, 500001, 10**6)
        sampled = {k: t.power(k).apply(xi).support()[1] for k in samples}
        with path.open() as handle:
            assert next(handle) == "t,n,E_bi,E_tri\n"
            for k, line in enumerate(handle):
                if k in sampled:
                    n = sampled[k]
                    assert line == f"{k},{n},{n},{min(2 * n, 64)}\n"
        assert (k, line) == (10**6, "1000000,999999,999999,64\n")


class TestFinite:
    def test_parity_table(self, capsys):
        code, out, _ = run(
            capsys,
            "finite", "glider", "--sites", "7", "--origin=-3",
            "--parity=-2:Z", "--steps", "8",
        )
        assert code == 0
        negative = [
            int(line.split("\t")[0]) for line in out.splitlines() if "-1" in line
        ]
        assert negative == [0, 1, 6, 7, 8]

    # Digests of the output when the CLI counted the parity inline.
    @pytest.mark.parametrize("argv, digest", [
        ("finite glider --sites 64 --boundary ring --parity=5:X --steps 200",
         "54dc99055878cce7085bfbe5febea09ec9a405d5bd395413d11d04a8f255f3db"),
        ("finite fractal --sites 128 --boundary ring --parity=100:Z --steps 300",
         "901c63d39403bc205b0454e903ddb91b73a320cb7bc97ba3923985f49c1169d2"),
        ("finite fractal --sites 33 --origin=-16 --parity=-3:X --steps 70",
         "b45f12635a344cc4fd5e5fa39f2ab53cad9046b740a94dd43c57c371de52e470"),
    ])
    def test_parity_tables_pinned(self, capsys, argv, digest):
        code, out, err = run(capsys, *argv.split())
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("boundary", ["open", "ring"])
    def test_parity_counts_x_and_z_letters(self, capsys, boundary):
        # -1 iff an odd number of sites carry X or Z, counted letter by letter; Y counts twice.
        rule = truncate_rule(fractal(), 12, boundary)
        expected = []
        for k, (x, z, phase) in enumerate(orbit_per_site(rule, FiniteOperator.single_site(12, 4, "Y"), 30)):
            letters = [letter_at(FiniteOperator(12, x, z, phase), s) for s in range(12)]
            expected.append(f"{k}\t{'-1' if (letters.count('X') + letters.count('Z')) % 2 else '+1'}\n")
        assert "-1" in "".join(expected) and "+1" in "".join(expected)
        argv = ["finite", "fractal", "--sites", "12", "--boundary", boundary, "--parity=4:Y", "--steps", "30"]
        assert run(capsys, *argv) == (0, "".join(expected), "")

    def test_mirror(self, capsys):
        code, out, _ = run(
            capsys, "finite", "glider", "--sites", "7", "--mirror", "1:Z"
        )
        assert code == 0
        assert "step 7" in out

    def test_observable_evolution(self, capsys):
        code, out, _ = run(
            capsys,
            "finite", "glider", "--sites", "7", "--origin", "-3",
            "--obs", "Y@0", "--steps", "1",
        )
        assert code == 0
        assert out.splitlines()[1] == "1\t-11ZYZ11"

    # Digests of the output before a FiniteRule stored only its bulk and end pairs.
    @pytest.mark.parametrize("argv, digest", [
        ("finite fractal --sites 512 --boundary ring --obs=Y@399 --steps 64",
         "3d0a16c3c2ba59ccdcab1976aed29f5b2f928edf7f6a01feb405bb50f47f63ff"),
        ("finite glider --sites 256 --boundary ring --obs=ZX@7 --steps 256",
         "91f5b3c84e7e7c690fa2a3e919a1a5345bdf08f653bea1f7dd21318dc4bd1977"),
        ("finite shear:u^-2+u^2 --sites 40 --obs=XYZ@0 --steps 40",
         "294362276c9053b7c4e9c8d7f05592f19e51d7845b080370c5f6de158e93853f"),
        ("finite fractal --sites 33 --origin=-16 --obs=XYZ@-6 --steps 40",
         "5c23dd85b74ee1d50fcadcd9639998504cd3f8e9a0f32a2c2eb102ebe0955564"),
    ])
    def test_golden_evolutions(self, capsys, argv, digest):
        code, out, err = run(capsys, *argv.split())
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_truncation_failure_reported(self, capsys):
        code, _, err = run(
            capsys, "finite", "--t11", "1", "--t12", "u^-1 + u",
            "--t21", "u^-1 + u", "--t22", "1 + u^-2 + u^2",
            "--sites", "9", "--boundary", "open",
        )
        assert code == 1
        assert "BoundaryBreaksAutomorphism" in err

    @pytest.mark.parametrize(
        "origin, literal, site",
        [
            # left end: the support starts before the first site
            ("-3", "ZX@-4", -4),
            # right end: X1Z covers sites 2..4 of -2..2; site 3 is the first off
            ("-2", "X1Z@2", 3),
            ("-2", "Z@5", 5),
        ],
    )
    def test_observable_off_the_chain_is_usage_error(self, capsys, origin, literal, site):
        code, _, err = run(
            capsys, "finite", "glider", "--sites", "5", f"--origin={origin}",
            "--obs", literal,
        )
        assert code == 2
        assert err == f"usage error: observable site {site} falls off the chain\n"

    def test_zero_sites_is_usage_error(self, capsys):
        err = usage_exit(capsys, "finite", "glider", "--sites", "0")
        assert "--sites: must be at least 1" in err

    @pytest.mark.parametrize(
        "extra, message",
        [
            (["--mirror", "9:Z"], "--mirror site 9 falls off the chain"),
            # labels run 3..9, so label 2 is off the chain (index -1)
            (["--origin", "3", "--mirror", "2:Z"], "--mirror site 2 falls off the chain"),
            (["--mirror", "a:Z"], "--mirror: expected an integer site, got 'a'"),
            (["--boundary", "ring", "--mirror", "1:Z"], "--mirror needs --boundary open"),
            (["--parity", "7:X"], "--parity site 7 falls off the chain"),
            (["--origin=-3", "--parity=-4:Y"], "--parity site -4 falls off the chain"),
            (["--parity", "1.5:Y"], "--parity: expected an integer site, got '1.5'"),
        ],
    )
    def test_bad_site_letter_is_usage_error(self, capsys, extra, message):
        code, out, err = run(capsys, "finite", "glider", "--sites", "7", *extra)
        assert (code, out, err) == (2, "", f"usage error: {message}\n")


class TestOracle:
    def test_small_sweep(self, capsys):
        code, out, _ = run(
            capsys,
            "oracle", "--samples", "3", "--seed", "11", "--ring", "32",
            "--steps", "5", "--word-length", "3", "--shear-degree", "1",
            "--regions", "4,8,12",
        )
        assert code == 0
        assert "0 mismatches" in out

    def test_long_sweep_stops_with_the_ring(self, capsys):
        args = ("oracle", "--samples", "1", "--seed", "1", "--ring", "64", "--steps")
        expected = (0, "55 checks, 0 mismatches\n", "")
        assert run(capsys, *args, "20") == expected
        assert run(capsys, *args, "20000") == expected

    def test_zero_samples_is_usage_error(self, capsys):
        err = usage_exit(capsys, "oracle", "--samples", "0", "--seed", "1")
        assert "--samples: must be at least 1" in err

    def test_zero_ring_is_usage_error(self, capsys):
        err = usage_exit(capsys, "oracle", "--samples", "3", "--seed", "1", "--ring", "0")
        assert "--ring: must be at least 1" in err

    def test_bad_region_list_is_usage_error(self, capsys):
        err = usage_exit(capsys, "oracle", "--samples", "1", "--seed", "1", "--regions", "8,x")
        assert "invalid int value: 'x'" in err

    def test_sweep_without_checks_fails(self, capsys):
        # a 4-site ring is too short for any region check
        code, out, err = run(
            capsys, "oracle", "--samples", "1", "--seed", "1", "--ring", "4", "--steps", "2"
        )
        assert code == 1
        assert out == "0 checks, 0 mismatches\n"
        assert "no checks" in err


class TestDeterminism:
    def test_byte_identical_reruns(self, capsys):
        first = run(capsys, "entangle", "fractal", "--steps", "20")
        second = run(capsys, "entangle", "fractal", "--steps", "20")
        assert first == second


# Exponents that do not fit a machine word; parsing must fail before any allocation.
OVERFLOW_POLY = "u^-99999999999999999999 + u^99999999999999999999"
# Exponents stay small: ones that fit but are huge would allocate gigabytes.
EXPONENTS = hst.integers(min_value=-10**4, max_value=10**4)
# Every separator holds a "+", so no two terms' digits run together.
POLYS = hst.builds(
    lambda terms, sep: sep.join(terms),
    hst.lists(
        hst.one_of(
            hst.sampled_from(["1", "u", "0", "", "u^", "u^-", "^", "x", "u^+3", " u "]),
            EXPONENTS.map(lambda e: f"u^{e}"),
        ),
        min_size=1,
        max_size=5,
    ),
    hst.sampled_from(["+", " + ", "++", "+ "]),
)
OBSERVABLES = hst.builds(
    str.__add__,
    hst.text(alphabet="1XYZW ", max_size=6),
    hst.one_of(
        hst.sampled_from(["", "@", "@x", "@1@2", "@ -3"]),
        EXPONENTS.map(lambda e: f"@{e}"),
    ),
)


KEYS = ("t11", "t12", "t21", "t22")
# Lines the matrix-file grammar must reject or skip: unknown keys, comments,
# blank lines, a tab separator, and exponents in non-ASCII digits.
ODD_LINES = ["t13 1", "T11 1", "t11", "# t11 u", "", "   ", "\t", "t11\t1", "t22 u^\u00b2", "t12 1 + u^\u0663"]


@hst.composite
def matrix_files(draw):
    """Matrix-file bytes: keys (missing or repeated) with POLYS values, odd lines, CRLF, a BOM, bad UTF-8."""
    lines = [f"{key} {draw(POLYS)}" for key in draw(hst.lists(hst.sampled_from(KEYS), max_size=6))]
    for line in draw(hst.lists(hst.sampled_from(ODD_LINES), max_size=3)):
        lines.insert(draw(hst.integers(min_value=0, max_value=len(lines))), line)
    data = draw(hst.sampled_from(["\n", "\r\n"])).join(lines).encode()
    if draw(hst.booleans()):
        data = "\ufeff".encode() + data
    if draw(hst.booleans()):
        cut = draw(hst.integers(min_value=0, max_value=len(data)))
        data = data[:cut] + draw(hst.sampled_from([b"\xff", b"\x80", b"\xc3("])) + data[cut:]
    return data


def exit_code(argv):
    """main(argv) with output discarded; argparse's own exit counts as its code.

    No input may end in a traceback, printed or raised.  stdout wraps a bytes
    buffer, since the streamed tables go to sys.stdout.buffer.
    """
    err = io.StringIO()
    with contextlib.redirect_stdout(io.TextIOWrapper(io.BytesIO())), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert "Traceback" not in err.getvalue()
    return code


class TestGrammarInputs:
    def test_exponent_too_large_for_an_int_fails(self, capsys):
        tracemalloc.start()
        try:
            code, out, err = run(
                capsys, "validate", "--t11", OVERFLOW_POLY, "--t12", "1", "--t21", "1", "--t22", "0"
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, out) == (1, "")
        assert err == ("PolySyntaxError: t11: exponents span 199999999999999999998, more than 1048576 "
                       "(at position 26)\n")
        assert peak < 1 << 20

    @pytest.mark.parametrize("entry, error", [
        ("1 + u^1048576", ""),  # at the budget: parsed, then validation rejects it
        ("1 + u^1048577", "PolySyntaxError: t12: exponents span 1048577, more than 1048576 (at position 4)\n"),
        ("1 + u^100000000", "PolySyntaxError: t12: exponents span 100000000, more than 1048576 (at position 4)\n"),
    ])
    def test_span_budget_names_the_entry(self, capsys, entry, error):
        tracemalloc.start()
        try:
            code, out, err = run(capsys, "validate", "--t11", "0", "--t12", entry, "--t21", "1", "--t22", "1")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, out) == (1, "")
        assert err == (error or "DetNotMonomial: determinant is 1 + u^1048576, not a single u^2a\n")
        assert peak < 4 << 20

    @pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", int)(), reason="int() has no digit limit")
    def test_too_long_exponent_is_a_syntax_error(self, capsys):
        entry = "u^" + "1" * (sys.get_int_max_str_digits() + 1)
        assert run(capsys, "validate", "--t11", entry, "--t12", "1", "--t21", "1", "--t22", "0") == (
            1, "", "PolySyntaxError: t11: exponent has too many digits (at position 2)\n"
        )

    def test_syntax_error_names_the_entry(self, capsys):
        assert run(capsys, "validate", "--t11", "1", "--t12", "1", "--t21", "1", "--t22", "u +") == (
            1, "", "PolySyntaxError: t22: expected a term, found None (at position 3)\n"
        )

    def test_matrix_file_syntax_error_names_the_entry(self, capsys, tmp_path):
        path = tmp_path / "m.cqca"
        path.write_text("t11 u^-1 + 1 + u\nt12 1\nt21 u^\nt22 0\n")
        assert run(capsys, "validate", str(path)) == (
            1, "", "PolySyntaxError: t21: expected an integer exponent (at position 2)\n"
        )

    @given(hst.lists(hst.one_of(POLYS, hst.just(OVERFLOW_POLY)), min_size=4, max_size=4),
           hst.sampled_from([["validate"], ["classify", "--cap", "8"]]))
    @example([OVERFLOW_POLY, "1", "1", "0"], ["validate"])
    @settings(max_examples=150, deadline=None)
    def test_polynomial_grammar(self, entries, command):
        flags = [f"--{key}={entry}" for key, entry in zip(("t11", "t12", "t21", "t22"), entries)]
        assert exit_code([*command, *flags]) in (0, 1, 2)
        assert exit_code(["validate", f"shear:{entries[0]}"]) in (0, 1, 2)

    @pytest.mark.parametrize("literal", ["X@\u0663", "X@\uff13", "X@1_0"])
    @pytest.mark.parametrize("command", [["evolve", "glider", "--steps", "1"], ["diagram", "glider", "--steps", "1"]])
    def test_observable_offset_takes_only_ascii_digits(self, capsys, literal, command):
        code, out, err = run(capsys, *command, f"--obs={literal}")
        assert (code, out) == (1, "")
        assert err == f"error: bad observable offset {literal[2:]!r}\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["evolve", "glider", "--obs", "X", "--steps", "\u0661\u0660"],
            ["finite", "fractal", "--sites", "\uff19"],
            ["finite", "glider", "--sites", "7", "--origin", "\u0663"],
            ["oracle", "--samples", "1", "--seed", "1_0"],
        ],
    )
    def test_integer_flags_take_only_ascii_digits(self, capsys, argv):
        err = usage_exit(capsys, *argv)
        assert f"invalid int value: {argv[-1]!r}" in err

    @pytest.mark.parametrize("flag", ["--mirror", "--parity"])
    def test_site_label_takes_only_ascii_digits(self, capsys, flag):
        code, out, err = run(capsys, "finite", "glider", "--sites", "7", flag, "\u0663:X")
        assert (code, out, err) == (2, "", f"usage error: {flag}: expected an integer site, got '\u0663'\n")

    @given(OBSERVABLES, hst.sampled_from([["evolve", "glider", "--steps", "2"],
                                          ["finite", "fractal", "--sites", "9", "--origin=-4"]]))
    @settings(max_examples=150, deadline=None)
    def test_observable_grammar(self, literal, command):
        assert exit_code([*command, f"--obs={literal}"]) in (0, 1, 2)

    @given(matrix_files(), hst.sampled_from(["validate", "classify"]))
    @example(b"t11 u^-1 + u\nt12 1\nt21 1\nt22 0\n", "classify")
    @example("\ufeff# glider\r\nt11 u^-1 + u\r\n\r\nt12 1\r\nt21 1\r\nt22 0\r\n".encode(), "validate")
    @example(b"t11 u^\xc2\xb2\nt12 1\nt21 1\nt22 0\n", "validate")
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_matrix_file_grammar(self, tmp_path, data, command):
        path = tmp_path / "m.cqca"
        path.write_bytes(data)
        assert exit_code([command, str(path)]) in (0, 1, 2)

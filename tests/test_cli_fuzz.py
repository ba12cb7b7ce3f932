"""Argv fuzzing of all five subcommands, with and without a config file,
against the exit-code contract.

Whatever the arguments, ``trinoids`` exits 0, 1, 2 or 3, never with a
traceback, and leaves no temporary or partial file behind.  Inputs stay
small (grids of at most 5 x 5, ends sampled down to radius 2^-3) so that
the whole test runs in a few seconds.
"""

import contextlib
import io
import json
import math
import os
import pathlib
import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from trinoids import cli
from trinoids import weierstrass as W

# about half of the values lie in the usual domains, so that every exit
# code is reached, not only the input errors
NUMBERS = st.one_of(
    st.floats(min_value=0.05, max_value=13.0).map(repr),
    st.floats(min_value=-0.3, max_value=3.0).map(repr),
    st.sampled_from(["0", "-0", "1", "-1", "0.5", "nan", "inf", "-inf", "1e999", "1e-320",
                     "3e-240", repr(math.pi), repr(2 * math.pi), "3.14159265358979", "x", ""]),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
)
# output paths: none, fresh, an existing file, a directory, a missing parent
OUTPUTS = st.sampled_from([None, None, "out{}", "out{}", "existing{}", "adir", "missing/out{}"])


def opt(flag, strategy):
    """Nothing, or ``flag=value`` (so that a leading minus is not read as an option)."""
    return st.one_of(st.just([]), strategy.map(lambda v: [f"{flag}={v}"]))


def path_opt(flag, suffix):
    return OUTPUTS.map(lambda name: [] if name is None else [flag, name.format(suffix)])


def switch(flag):
    return st.sampled_from([[], [flag]])


def command(name, options, positionals):
    """``name options -- positionals``: after ``--`` values like -1e-05 stay positional."""
    return st.tuples(st.just([name]), st.tuples(*options), st.just(["--"]), positionals)


def argv_strategy():
    angles = st.lists(NUMBERS, min_size=3, max_size=3)
    common = [path_opt("--json", ".json"), switch("--force")]
    angle_opts = [switch("--degrees"), opt("--eps-face", NUMBERS)]
    parts = st.one_of(
        command("classify", common + angle_opts, angles),
        command("convert", common + [
            st.sampled_from(["lambda", "phi", "mu", "bps", "nope"]).map(lambda s: ["--from", s]),
        ], NUMBERS.map(lambda v: [v])),
        command("surface", [
            opt("--nx", st.integers(-2, 5)),
            opt("--ny", st.integers(-2, 5)),
            *(opt(f, NUMBERS) for f in ("--xmin", "--xmax", "--ymin", "--ymax")),
            opt("--model", st.sampled_from(["halfspace", "ball"])),
            path_opt("--obj", ".obj"),
            path_opt("--csv", ".csv"),
            switch("--force"),
        ], st.tuples(st.sampled_from(["helicoid", "catenoid", "cousin"]).map(lambda k: [k]),
                     NUMBERS.map(lambda v: [v]))),
        command("constellation", common + angle_opts + [
            opt("--convention", st.sampled_from(["half-gap", "ruling-gap"])),
            opt("--box", NUMBERS),
            path_opt("--emit-obj", ".obj"),
            switch("--patches"),
        ], angles),
        command("verify-end", common + [
            opt("--min-radius-exp", st.integers(-1, 3)),
            opt("--arc-samples", st.integers(-1, 5)),
            opt("--boundary-samples", st.integers(-1, 10)),
            opt("--tol", st.sampled_from(["1e-10", "1e-6", "0", "-1", "nan", "inf", "1e-300"])),
            opt("--fit-lambda", NUMBERS),
            path_opt("--csv", ".csv"),
        ], st.sampled_from(["end.json", "perturbed.json", "exponential.json", "garbage.json",
                            "nothing.json", "adir"]).map(lambda p: [p])),
    )

    configs = st.sampled_from([[], [], ["--config", "good.cfg"], ["--config=bad.cfg"],
                               ["--config", "list.cfg"], ["--config", "nothing.cfg"]])

    def flatten(tree):
        if isinstance(tree, (list, tuple)):
            return [leaf for branch in tree for leaf in flatten(branch)]
        return [tree]

    return st.tuples(configs, parts).map(flatten)


def prepare(root: pathlib.Path) -> None:
    (root / "adir").mkdir()
    for suffix in (".json", ".obj", ".csv"):
        (root / ("existing" + suffix)).write_text("keep\n")
    ends = {"end.json": W.power_end_data(0.5),
            "perturbed.json": W.power_end_data(2 / 3, g1=(0.01,), w1=(0.005,)),
            "exponential.json": W.catenoid_data(0.5)}
    for name, data in ends.items():
        (root / name).write_text(json.dumps(W.data_to_json(data)))
    (root / "garbage.json").write_text('{"kind": "power_end", "alpha": [')
    (root / "good.cfg").write_text('{"convention": "ruling-gap", "tol": 1e-9, "arc_samples": 5}')
    (root / "bad.cfg").write_text('{"arc_samples": "x"}')
    (root / "list.cfg").write_text("[]")


def run_in(root: pathlib.Path, argv):
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(root)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
    finally:
        os.chdir(cwd)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=120, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(argv=argv_strategy())
def test_exit_code_contract(argv):
    with tempfile.TemporaryDirectory() as tmp:
        root = pathlib.Path(tmp)
        prepare(root)
        before = {p: p.read_bytes() for p in root.rglob("*") if p.is_file()}
        code, out, err = run_in(root, argv)
        assert code in (0, 1, 2, 3), (argv, code, err)
        assert "Traceback" not in err, (argv, err)
        if code == 3:
            assert err.startswith("internal error: ") and err.count("\n") == 1, (argv, err)
        if code == 2 and err.startswith("error: "):
            assert err.count("\n") == 1, (argv, err)
        after = [p for p in root.rglob("*") if p.is_file()]
        assert not [p for p in after if p.name.endswith(".tmp")], argv
        for path in after:
            if path in before:
                continue
            text = path.read_text()
            assert text.endswith("\n"), (argv, path.name)
            if path.suffix == ".json":
                assert text == out, (argv, path.name)
        if "--force" not in argv:
            assert all(p.read_bytes() == data for p, data in before.items()), argv

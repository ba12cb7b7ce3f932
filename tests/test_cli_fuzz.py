"""Argv fuzzing of all five subcommands, with and without a config file,
against the exit-code contract.

Whatever the arguments, ``trinoids`` exits 0, 1, 2 or 3, never with a
traceback, and leaves no temporary or partial file behind; every file it
writes parses, and a written JSON document equals stdout.  One branch of
the strategy draws argv inside every domain, which must succeed.  Inputs
stay small (grids of at most 5 x 5, ends sampled down to radius 2^-3, or
2^-6 in that branch) so that the whole test runs in a few seconds.
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


def valid_argv_strategy():
    """Argv inside every domain with fresh output paths: admissible triples,
    in-domain convert values, small surface grids and verify-end on a written
    end document.  Exits 0, or 1 for a negative verify-end result."""
    fresh = st.sampled_from([None, "new{}"])

    def path(flag, suffix):
        return fresh.map(lambda name: [] if name is None else [flag, name.format(suffix)])

    def value(lo, hi, hole):
        return st.floats(lo, hi).filter(lambda x: abs(x - hole) > 1e-6).map(repr)

    # reduced angles in [1.1, 2.1] satisfy every tetrahedron inequality strictly;
    # phi = r, 2 pi - r and r + 2 pi share the reduced angle r
    angle = st.tuples(st.floats(1.1, 2.1), st.sampled_from([0, 1, 2])).map(
        lambda t: repr((t[0], 2 * math.pi - t[0], t[0] + 2 * math.pi)[t[1]]))
    triple = st.lists(angle, min_size=3, max_size=3)
    json_out = [path("--json", ".json"), switch("--force")]
    source = st.sampled_from([("lambda", value(-0.24, 5.0, 0.0)), ("phi", value(0.01, 20.0, math.pi)),
                              ("mu", value(-0.49, 3.0, 0.0)), ("bps", value(0.01, 3.0, 0.5))])
    grid_out = st.sampled_from([["--obj", "new.obj"], ["--csv", "new.csv"],
                                ["--obj", "new.obj", "--csv", "new.csv"]])
    return st.one_of(
        command("classify", json_out, triple),
        source.flatmap(lambda s: command("convert", json_out + [st.just(["--from", s[0]])],
                                         s[1].map(lambda v: [v]))),
        st.tuples(st.sampled_from([("helicoid", []), ("catenoid", []), ("cousin", []),
                                   ("cousin", ["--model", "ball"])]),
                  st.integers(2, 5), st.integers(2, 5), grid_out, value(-0.2, 3.0, 0.0)).map(
            lambda t: ["surface", t[0][1], "--nx", str(t[1]), "--ny", str(t[2]), t[3], "--",
                       t[0][0], t[4]]),
        command("constellation", json_out + [
            opt("--convention", st.sampled_from(["half-gap", "ruling-gap"])),
            path("--emit-obj", ".obj"),
            switch("--patches"),
        ], triple),
        command("verify-end", json_out + [
            st.integers(2, 6).map(lambda n: ["--min-radius-exp", str(n)]),
            st.integers(3, 5).map(lambda n: ["--arc-samples", str(n)]),
            st.integers(8, 10).map(lambda n: ["--boundary-samples", str(n)]),
            opt("--tol", st.sampled_from(["1e-10", "1e-8"])),
            opt("--fit-lambda", st.floats(0.05, 2.0).map(repr)),
            path("--csv", ".csv"),
        ], st.sampled_from(["end.json", "perturbed.json"]).map(lambda p: [p])),
    )


def argv_strategy():
    """Flat argv lists: mostly arbitrary, one draw in four inside the domains."""
    return tagged_argv_strategy().map(lambda case: case[0])


def tagged_argv_strategy():
    """(argv, valid): valid argv come from valid_argv_strategy."""
    return st.sampled_from([False, False, False, True]).flatmap(
        lambda valid: valid_argv_strategy().map(lambda tree: (flatten(tree), True)) if valid
        else mixed_argv_strategy().map(lambda argv: (argv, False)))


def flatten(tree):
    if isinstance(tree, (list, tuple)):
        return [leaf for branch in tree for leaf in flatten(branch)]
    return [tree]


def mixed_argv_strategy():
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


def assert_parses(path: pathlib.Path, text: str, out: str) -> None:
    """A written JSON document equals stdout; OBJ and CSV rows hold numbers."""
    if path.suffix == ".json":
        json.loads(text)
        assert text == out, path.name
    elif path.suffix == ".csv":
        header, *rows = text.splitlines()
        width = len(header.split(","))
        assert rows and all(len([float(x) for x in row.split(",")]) == width for row in rows)
    else:
        for line in text.splitlines():
            kind, *fields = line.split()
            if kind in ("v", "vn"):
                assert len([float(x) for x in fields]) == 3, line
            elif kind in ("f", "l"):
                assert all(int(x.split("/")[0]) > 0 for x in fields), line
            else:
                assert kind == "#", line


@settings(max_examples=120, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=tagged_argv_strategy())
def test_exit_code_contract(case):
    argv, valid = case
    with tempfile.TemporaryDirectory() as tmp:
        root = pathlib.Path(tmp)
        prepare(root)
        before = {p: p.read_bytes() for p in root.rglob("*") if p.is_file()}
        code, out, err = run_in(root, argv)
        if valid:
            assert err == "" and (code == 0 or (code == 1 and argv[0] == "verify-end")), (
                argv, code, err)
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
            assert_parses(path, text, out)
        if "--force" not in argv:
            assert all(p.read_bytes() == data for p, data in before.items()), argv

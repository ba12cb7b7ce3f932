"""cli.main builds its argparse parser once per process, compiles the
checker of each output schema once per schema name and builds jsonschema's
validator of the data schema once; the output is the same as building the
parser anew and running a full ``jsonschema.validate`` on every call, which
is what ``oracles.cli_main`` does."""

import collections
import contextlib
import io
import json
import os
import pathlib
import re
import subprocess
import sys
import tempfile

import jsonschema
import pytest
from hypothesis import HealthCheck, given, settings

import oracles
from test_cli_fuzz import argv_strategy, prepare
from trinoids import cli, emit
from trinoids import weierstrass as W

SCHEMAS = ["classify.schema.json", "convert.schema.json", "constellation.schema.json",
           "verify_end.schema.json", "weierstrass_data.schema.json"]

# the random part of the name of write_text's temporary file
TMP_SUFFIX = re.compile(r"\.[0-9a-f]{16}\.tmp")


def prepare_all(root: pathlib.Path) -> None:
    """The fuzz test's files plus data files that parse but fail the data schema."""
    prepare(root)
    (root / "schemaless.json").write_text(json.dumps({"kind": "power_end"}))
    doc = W.data_to_json(W.power_end_data(0.5))
    doc["alpha"] = -1.0
    (root / "negative.json").write_text(json.dumps(doc))


def run_in(main, root: pathlib.Path, argv):
    """Exit code, stdout, stderr and every file under ``root`` after
    ``main(argv)`` in ``root``, with temporary-file suffixes masked."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(root)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse usage errors and --help
                code = exc.code
    finally:
        os.chdir(cwd)
    files = {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()}
    return code, out.getvalue(), TMP_SUFFIX.sub(".TMP", err.getvalue()), files


def assert_same_as_oracle(argv):
    with tempfile.TemporaryDirectory() as old, tempfile.TemporaryDirectory() as new:
        prepare_all(pathlib.Path(old))
        prepare_all(pathlib.Path(new))
        expected = run_in(oracles.cli_main, pathlib.Path(old), argv)
        assert run_in(cli.main, pathlib.Path(new), argv) == expected, argv


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(argv=argv_strategy())
def test_fuzz_corpus_same_as_oracle(argv):
    assert_same_as_oracle(argv)


# (argv, TRINOIDS_CONFIG)
HAND = [
    (["verify-end", "schemaless.json"], None),
    (["verify-end", "negative.json", "--json", "v.json"], None),
    (["verify-end", "end.json", "--min-radius-exp", "3", "--arc-samples", "9",
      "--boundary-samples", "10", "--json", "v.json", "--csv", "d.csv"], None),
    (["classify", "1"], None),
    (["constellation", "1.6", "1.6", "--bogus"], None),
    ([], None),
    (["--help"], None),
    (["verify-end", "--help"], None),
    (["constellation", "-h"], None),
    (["classify", "1", "1.2", "1.4"], "good.cfg"),
    (["constellation", "1.6", "1.6", "1.6"], "good.cfg"),
    (["--config", "good.cfg", "constellation", "1.6", "1.6", "1.6"], "bad.cfg"),
    (["--config", "bad.cfg", "classify", "1", "1.2", "1.4"], "good.cfg"),
    (["constellation", "--convention", "half-gap", "1.6", "1.6", "1.6"], "good.cfg"),
    (["classify", "1", "1.2", "1.4"], "list.cfg"),
    (["classify", "1", "1.2", "1.4"], "nothing.cfg"),
    (["constellation", "1.6", "1.6", "1.6", "--json", "k.json", "--emit-obj", "k.obj",
      "--patches"], None),
    (["convert", "--from", "lambda", "0.3", "--json", "adir", "--force"], None),
    (["convert", "--from", "lambda", "1e32"], None),
    (["convert", "--from", "mu", "0.1", "--json", "c.json"], None),
    (["classify", "--degrees", "90", "90", "90", "--json", "t.json"], None),
    (["surface", "cousin", "0.75", "--nx", "4", "--ny", "3", "--model", "ball",
      "--obj", "s.obj", "--csv", "existing.csv", "--force"], None),
]


@pytest.mark.parametrize("argv,env", HAND)
def test_hand_lists_same_as_oracle(monkeypatch, argv, env):
    if env is None:
        monkeypatch.delenv("TRINOIDS_CONFIG", raising=False)
    else:
        monkeypatch.setenv("TRINOIDS_CONFIG", env)
    assert_same_as_oracle(argv)


def test_parser_and_validators_built_once(tmp_path, monkeypatch):
    monkeypatch.delenv("TRINOIDS_CONFIG", raising=False)
    monkeypatch.chdir(tmp_path)
    prepare_all(tmp_path)
    cli._parser.cache_clear()
    cli._data_validator.cache_clear()
    emit._checker.cache_clear()
    builds = []
    build_parser = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build_parser())
    compiled = collections.Counter()
    compile_node = emit._compile

    def counting_compiles(node, root):
        if node is root:
            compiled[root["title"]] += 1
        return compile_node(node, root)

    monkeypatch.setattr(emit, "_compile", counting_compiles)
    checked = collections.Counter()
    for cls in {jsonschema.validators.validator_for(emit.load_schema(n)) for n in SCHEMAS}:
        def counting(schema, *args, check_schema=cls.check_schema, **kwargs):
            checked[schema["title"]] += 1
            return check_schema(schema, *args, **kwargs)
        monkeypatch.setattr(cls, "check_schema", staticmethod(counting))

    argvs = [
        ["classify", "1", "1.2", "1.4"], ["classify", "0.3", "0.3", "0.3"],
        ["classify", "--degrees", "90", "90", "90"],
        ["convert", "--from", "lambda", "0.75"], ["convert", "--from", "phi", "1"],
        ["convert", "--from", "mu", "0.1"], ["convert", "--from", "bps", "0.3"],
        ["constellation", "1.6", "1.6", "1.6"], ["constellation", "0.3", "0.3", "0.3"],
        ["constellation", "1.6", "1.6", "1.6", "--convention", "ruling-gap"],
        ["verify-end", "end.json", "--min-radius-exp", "4", "--arc-samples", "9",
         "--boundary-samples", "10"],
        ["verify-end", "schemaless.json"], ["verify-end", "negative.json"],
        ["surface", "helicoid", "1", "--nx", "3", "--ny", "3", "--obj", "h.obj"],
        ["surface", "catenoid", "1", "--nx", "3", "--ny", "3", "--csv", "c.csv"],
        ["--config", "good.cfg", "classify", "1", "1.2", "1.4"],
        ["--config", "bad.cfg", "classify", "1", "1.2", "1.4"],
        ["classify", "1"], ["--help"], ["convert", "--from", "lambda", "0"],
    ]
    codes = []
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        for argv in argvs:
            try:
                codes.append(cli.main(argv))
            except SystemExit as exc:
                codes.append(exc.code)
    assert len(argvs) == 20
    assert codes == [0, 1, 0, 0, 0, 0, 0, 0, 1, 0, 0, 2, 2, 0, 0, 0, 2, 2, 0, 2]
    assert len(builds) == 1
    # the checker compiles each output schema once; jsonschema checks only
    # the data schema, once, for verify-end's data files
    titles = [emit.load_schema(n)["title"] for n in SCHEMAS]
    assert compiled == {title: 1 for title in titles[:4]}
    assert checked == {titles[4]: 1}


REPLACED_THEN_RESTORED = """
import sys
from trinoids import cli

real = cli.cmd_classify
cli.cmd_classify = lambda args: 0
assert cli.main(["classify", "1", "1.2", "1.4"]) == 0
cli.cmd_classify = real
sys.exit(cli.main(["classify", "1", "1.2", "1.4"]))
"""


def test_first_call_under_a_replaced_command(capsys):
    """A command replaced during the call that builds the parser is not kept
    by the parser: the next call runs the module's current cmd_classify."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(os.path.dirname(__file__), os.pardir, "src"),
         os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", REPLACED_THEN_RESTORED], env=env,
                          capture_output=True, text=True, timeout=60)
    code = oracles.cli_main(["classify", "1", "1.2", "1.4"])
    expected = capsys.readouterr()
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, expected.out, "")
    assert json.loads(proc.stdout)["tag"] == "GenericAdmissible"

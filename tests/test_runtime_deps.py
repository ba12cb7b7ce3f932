"""The program runs without scipy, and only verify-end loads jsonschema.

No command imports scipy, and jsonschema is imported only to check
verify-end's data file.  weierstrass binds scipy's quad only when the
attribute ``quad`` is read, for the benchmark's tracer, which wraps it; with
scipy missing the attribute is missing too.
"""

import json
import os
import pathlib
import subprocess
import sys

import scipy.integrate

from test_end_engine import count_quad
from trinoids import weierstrass as W

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

COMMANDS = """
import json, sys
from trinoids import cli, weierstrass

d = sys.argv[1]
with open(d + "/end.json", "w") as fh:
    json.dump(weierstrass.data_to_json(weierstrass.power_end_data(0.5)), fh)
codes, jsonschema = [], []
for argv in (
    ["classify", "1.6", "1.6", "1.6"],
    ["convert", "--from", "lambda", "0.75"],
    ["surface", "cousin", "0.75", "--nx", "9", "--ny", "9",
     "--obj", d + "/s.obj", "--csv", d + "/s.csv"],
    ["constellation", "1.6", "2.0", "2.2", "--json", d + "/c.json"],
    ["verify-end", d + "/end.json", "--json", d + "/v.json"],
):
    codes.append(cli.main(argv))
    jsonschema.append(sorted(m for m in sys.modules if m.split(".")[0] == "jsonschema"))
scipy = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
print(json.dumps({"codes": codes, "scipy": scipy, "jsonschema": jsonschema}))
"""

WITHOUT_SCIPY = """
import sys
sys.modules["scipy"] = None  # import scipy raises ImportError
from trinoids import weierstrass
assert getattr(weierstrass, "quad", None) is None
try:
    weierstrass.quad
except AttributeError as exc:
    assert isinstance(exc.__cause__, ImportError), exc.__cause__
    print(exc)
"""


def run(script, *args):
    proc = subprocess.run([sys.executable, "-c", script, *args],
                          env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def test_commands_leave_scipy_unimported(tmp_path):
    doc = json.loads(run(COMMANDS, str(tmp_path)))
    assert doc["codes"] == [0, 0, 0, 0, 0]
    assert doc["scipy"] == []
    # only verify-end's data file is checked by jsonschema
    assert doc["jsonschema"][:4] == [[], [], [], []]
    assert "jsonschema" in doc["jsonschema"][4]
    for name in ("s.obj", "s.csv", "c.json", "v.json"):
        assert (tmp_path / name).stat().st_size > 0, name


def test_quad_is_scipys(monkeypatch):
    assert W.quad is scipy.integrate.quad
    assert vars(W)["quad"] is scipy.integrate.quad
    calls = count_quad(monkeypatch)  # the end engine tests' counter
    assert W.quad(lambda x: x, 0.0, 1.0)[0] == 0.5
    assert calls == [1]


def test_other_names_missing():
    assert not hasattr(W, "no_such_name")


def test_quad_missing_without_scipy():
    assert run(WITHOUT_SCIPY) == (
        "module 'trinoids.weierstrass' has no attribute 'quad' (scipy is not installed)")


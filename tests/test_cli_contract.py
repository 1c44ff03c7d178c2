"""The CLI contract as a property: for any numbers, expressions, words and
JSON configs on the command line, ``favlab`` exits 0, 1 or 2 without letting
an exception escape; exit 1 ends in an ``ERROR <code>: <detail>`` line, exit
2 in argparse's usage error or ``ERROR config:``; and nothing an exit-0 run
writes holds a NaN or an infinity.  Levels, angle counts and orbit bounds
are kept small so that every example runs in milliseconds."""

import contextlib
import io
import json
import pathlib
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from favlab import cli
from favlab.ifs import IFS
from favlab.relclose import power_family

FIG1 = str(pathlib.Path(__file__).resolve().parent.parent / "configs" / "fig1.json")
NON_FINITE = re.compile(r"(?i)\b(nan|inf|infinity)\b")
DOMAIN_ERROR = re.compile(r"^ERROR [a-z][a-z-]*: \S")

# values no numeric flag may turn into a traceback or a non-finite output
SPECIAL = ("nan", "-nan", "inf", "-inf", "0", "-1", "-0.5", "1e308", "-1e308", "abc", "")
HUGE_INT = str(10**30)


class Flags:
    """Draws the values of one command line.  One numeric flag, picked per
    example, takes a special value; the others take small valid values, so
    that the special value is what the command has to survive."""

    def __init__(self, draw):
        self.draw = draw
        self.special = draw(st.integers(0, 8))  # index of the special flag
        self.count = 0

    def _pick(self, valid, extra=()):
        self.count += 1
        if self.count == self.special:
            return self.draw(st.sampled_from(SPECIAL + extra))
        return self.draw(valid)

    def number(self, lo, hi):
        return self._pick(st.floats(lo, hi).map(repr))

    def integer(self, lo, hi, *extra):
        return self._pick(st.integers(lo, hi).map(str), extra)

    def expression(self):
        return self._pick(expression, extra=EXPRESSIONS_BAD)


expression = st.sampled_from(("0", "1", "3/7", "-2/3", "sqrt(2)", "(1+sqrt(5))/2", "pi/3"))
EXPRESSIONS_BAD = ("1e3", "1/0", "(", "sqrt(x)", "9" * 400, "-" + "9" * 310, "9" * 308,
                   "9" * 4301)
word = st.sampled_from(("", "1", "2", "3", "12", "23", "213", "9", "0", "1a"))

# JSON values of a map field: in range, out of range, non-finite, wrong type
map_value = st.one_of(
    st.floats(-2.0, 2.0),
    st.sampled_from((0.0, 1.0, -0.5, 1e300, 1e307, 4e307, -1.7e308, 10**400, float("nan"), float("inf"),
                     True, None, "abc", [])),
)
ratio = st.one_of(st.floats(0.1, 0.7), map_value)


@st.composite
def config(draw):
    """The text of a JSON config: mostly valid systems of one to four maps,
    sometimes with a bad field, a missing field or no maps at all."""
    maps = []
    for _ in range(draw(st.integers(0, 4))):
        m = {"r": draw(ratio), "tx": draw(map_value), "ty": draw(map_value)}
        m[draw(st.sampled_from(("theta", "theta_over_pi")))] = draw(map_value)
        if draw(st.booleans()):
            m["reflect"] = draw(st.sampled_from((True, False, 1, "yes")))
        if draw(st.integers(0, 9)) == 0:
            del m[draw(st.sampled_from(sorted(m)))]
        maps.append(m)
    doc = draw(st.sampled_from(({"maps": maps}, {"maps": maps}, maps, {"map": maps})))
    # json writes 1e400 as Infinity; keep the literal a user would write too
    text = json.dumps(doc)
    return text.replace("Infinity", "1e400") if draw(st.booleans()) else text


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("contract")
    cert = power_family(IFS.from_json(FIG1), (2,), (3,), 2)
    (root / "cert.json").write_text(json.dumps(cert.to_dict()))
    rows = ["n,theta,length"] + [f"{n},0.0,{1.3 / n ** 0.4!r}" for n in range(2, 9)]
    (root / "series.csv").write_text("\n".join(rows) + "\n")
    # diameter bound D = 1.53e308, near the float limit
    (root / "near_limit.json").write_text(json.dumps({"maps": [
        {"r": 0.5, "theta": 0.0, "tx": 1e307, "ty": 1e307},
        {"r": 0.5, "theta_over_pi": 0.7, "tx": 0.0, "ty": 0.0},
    ]}))
    # the pair (2, 3) of fig1 fails check_relclose with slack_iii = -0.667
    (root / "forged.json").write_text(json.dumps({
        "words": ["2", "3"], "eps": 1e-9, "theta": 0.0,
        "omegas": [{"pair": ["2", "3"], "prefix": "", "period": "1"}]}))
    # a mass band of these ratios descends ~4,600 levels along the first map
    (root / "skew.json").write_text(json.dumps({"maps": [
        {"r": 0.999, "theta": 0.0, "tx": 0.0, "ty": 0.0},
        {"r": 0.1, "theta": 1.0, "tx": 1.0, "ty": 0.0},
    ]}))
    (root / "deep.json").write_text("[" * 100_000 + "]" * 100_000)
    # past Python's 4,300-digit limit on integer strings
    (root / "long_eps.json").write_text(
        '{"words": ["2", "3"], "eps": ' + "1" * 5001 + ', "theta": 0.0, "omegas": []}')
    return root


def _argv(draw, command, files):
    ifs = draw(st.sampled_from((FIG1, FIG1, str(files / "cfg.json"))))
    if ifs != FIG1:
        (files / "cfg.json").write_text(draw(config()))
    out = str(files / "out")
    f = Flags(draw)
    if command == "dim":
        return ["dim", "--ifs", ifs]
    if command == "render":
        argv = ["render", "--ifs", ifs, "--depth", f.integer(0, 4, HUGE_INT), "--svg", out]
        return argv + (["--theta", f.expression()] if draw(st.booleans()) else [])
    if command == "favard":
        argv = ["favard", "--ifs", ifs, "--n", f.integer(0, 4, HUGE_INT),
                "--angles", f.integer(1, 8), "--csv", out]
        return argv + (["--hull"] if draw(st.booleans()) else [])
    if command == "decay":
        csv = files / "series.csv"
        if draw(st.integers(0, 3)) == 0:
            csv = files / "junk.csv"
            vals = draw(st.lists(st.sampled_from(SPECIAL + ("1.0", "0.5", "1e300")), max_size=8))
            csv.write_text("".join(f"{n},0.0,{v}\n" for n, v in enumerate(vals, start=2)))
        return ["decay", "fit", "--csv", str(csv),
                "--k", f.integer(1, 3), "--d", f.number(0.1, 4.0),
                "--delta", f.number(0.01, 1.0), "--m", f.integer(2, 5),
                "--c-low", f.number(-2.0, 2.0), "--C-ls", f.number(-2.0, 2.0),
                "--a-ls", f.number(-3.0, 3.0)]
    if command == "find":
        argv = ["relclose", "find", "--ifs", ifs, "--eps", f.number(0.1, 3.0),
                "--depth", f.integer(0, 4)]
        return argv + (["--phi", f.expression()] if draw(st.booleans()) else [])
    if command == "double":
        return ["relclose", "double", "--ifs", ifs, "--cert", str(files / "cert.json"),
                "--eps", f.number(0.5, 3.0), "--depth", f.integer(0, 4), "--out", out]
    if command == "power":
        return ["relclose", "power", "--ifs", ifs, "--u", draw(word), "--v", draw(word),
                "--n", f.integer(0, 4), "--eps", f.number(1e-9, 1.0), "--out", out]
    if command == "density":
        return ["density", "--ifs", ifs, "--theta", f.expression(),
                "--n", f.integer(0, 4, HUGE_INT), "--cert", str(files / "cert.json"),
                "--csv", out]
    if command == "visible":
        return ["visible", "--ifs", ifs, "--ax", f.number(-3.0, 3.0),
                "--ay", f.number(-3.0, 3.0), "--s", f.number(0.1, 2.0),
                "--n", f.integer(0, 4), "--csv", out]
    if command == "dioph":
        return ["dioph", "--alpha", f.expression(), "--nmax", f.integer(2, 10**4),
                "--d", f.number(0.0, 4.0)]
    if command == "net":
        return ["net", "--theta-over-pi", f.expression(), "--eps", f.number(0.01, 7.0),
                "--pmax", f.integer(1, 10**4), "--d", f.number(-3.0, 4.0)]
    if command == "avoid":
        return ["count", "avoid", "--m", f.integer(2, 5), "--s", f.integer(1, 8, "64"),
                "--blocks", f.integer(1, 60, HUGE_INT)]
    if command == "removal":
        return ["count", "removal", "--ifs", ifs, "--target", draw(word),
                "--steps", f.integer(0, 2), "--phi", f.expression(),
                "--eps", f.number(1.0, 7.0)]
    assert command == "schedule"
    return ["schedule", "--ifs", ifs, "--n", f.integer(1, 4, "300"),
            "--c1", f.number(0.1, 10.0), "--k", f.integer(1, 3),
            "--d", f.number(0.1, 4.0), "--delta", f.number(0.01, 1.0)]


COMMANDS = ("dim", "render", "favard", "decay", "find", "double", "power", "density",
            "visible", "dioph", "net", "avoid", "removal", "schedule")


@pytest.mark.parametrize("command", COMMANDS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_cli_contract(files, command, data):
    argv = _argv(data.draw, command, files)
    out = files / "out"
    out.unlink(missing_ok=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.run(argv)
    lines = stderr.getvalue().splitlines()
    assert code in (0, 1, 2), (argv, lines)
    if code == 1:
        assert lines and DOMAIN_ERROR.match(lines[-1]), (argv, lines)
    elif code == 2:
        assert lines and (": error: " in lines[-1] or lines[-1].startswith("ERROR config: ")), (
            argv, lines)
    else:
        written = stdout.getvalue() + (out.read_text() if out.exists() else "")
        assert not NON_FINITE.search(written), (argv, written)


def _run(argv):
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.run(argv)
    return code, stdout.getvalue(), stderr.getvalue().splitlines()[-1]


@pytest.mark.parametrize(
    "argv, code, last",
    [
        (["net", "--theta-over-pi", "1/2", "--eps", "nan"], 2, "--eps: must be finite"),
        (["net", "--theta-over-pi", "1/2", "--eps", "0.1", "--d", "nan"], 2, "--d: must be finite"),
        (["net", "--theta-over-pi", "9" * 308, "--eps", "0.1"], 2, "ERROR config: theta-over-pi"),
        (["net", "--theta-over-pi", "sqrt(2)", "--eps", "0.001", "--d", "-102.5"], 1,
         "ERROR overflow: c1_hat"),
        (["schedule", "--ifs", FIG1, "--n", "1", "--c1", "nan"], 2, "--c1: must be finite"),
        (["schedule", "--ifs", FIG1, "--n", "1", "--delta", "nan"], 2, "--delta: must be finite"),
        (["schedule", "--ifs", FIG1, "--n", "300"], 1, "ERROR overflow:"),
        (["schedule", "--ifs", FIG1, "--n", "1", "--c1", "1e308"], 1, "ERROR overflow: schedule"),
        (["decay", "fit", "--csv", "{series}", "--d", "nan"], 2, "--d: must be finite"),
        (["decay", "fit", "--csv", "{series}", "--m", "1"], 2, "--m: must be >= 2"),
        (["decay", "fit", "--csv", "{series}", "--m", "0"], 2, "--m: must be >= 2"),
        (["decay", "fit", "--csv", "{series}", "--k", "0"], 2, "--k: must be >= 1"),
        (["decay", "fit", "--csv", "{series}", "--delta", "-1"], 2, "--delta: must be > 0"),
        (["decay", "fit", "--csv", "{series}", "--c1", "5"], 2, "unrecognized arguments: --c1"),
        (["decay", "fit", "--csv", "{series}", "--a-ls", "-1000"], 1, "ERROR overflow:"),
        (["decay", "fit", "--csv", "{series}", "--a-ls", "-1", "--C-ls", "1e308"], 1,
         "ERROR overflow: log_star"),
        (["relclose", "find", "--ifs", FIG1, "--eps", "inf"], 2, "--eps: must be finite"),
        # eps * (D * r) overflows too; on fig1, D * r < 1 keeps it finite
        (["relclose", "find", "--ifs", "{near_limit}", "--eps", "1e308"], 1,
         "ERROR overflow: threshold"),
        (["count", "avoid", "--m", "2", "--s", "64", "--blocks", "40"], 1, "ERROR overflow:"),
        # refused from the bit count before the integer is formed
        (["count", "avoid", "--m", "2", "--s", "64", "--blocks", str(10**30)], 1,
         "ERROR overflow:"),
        (["count", "removal", "--ifs", FIG1, "--target", "19", "--steps", "1"], 1,
         "ERROR symbol: symbol 9 outside 1..3"),
        (["count", "removal", "--ifs", FIG1, "--target", "0", "--steps", "1"], 1,
         "ERROR symbol: symbol 0 outside 1..3"),
        (["dioph", "--alpha", "sqrt(2)", "--nmax", "100", "--d", "inf"], 2, "--d: must be finite"),
        (["dioph", "--alpha", "sqrt(2)", "--nmax", "1", "--d", "2"], 2, "--nmax: must be >= 2"),
        # the level cap is checked without forming m^n
        (["favard", "--ifs", FIG1, "--n", str(10**30), "--angles", "4"], 1,
         "ERROR level-too-large:"),
        (["render", "--ifs", FIG1, "--depth", str(10**30)], 1, "ERROR level-too-large:"),
        # inputs that once ended in a RecursionError
        (["relclose", "find", "--ifs", "{skew}", "--eps", "0.01"], 1, "ERROR level-too-large:"),
        (["net", "--theta-over-pi", "(" * 400 + "1" + ")" * 400, "--eps", "0.1"], 2,
         "ERROR config: expression nests too deeply"),
        (["net", "--theta-over-pi=" + "-" * 1500 + "1", "--eps", "0.1"], 2,
         "ERROR config: expression nests too deeply"),
        # sqrt(2)'s 40-digit expansion parts from the 80-digit one past 1.6e20
        (["dioph", "--alpha", "sqrt(2)", "--nmax", str(10**45), "--d", "2"], 1,
         "ERROR indeterminate: precision exhausted"),
        (["dioph", "--alpha", "1/3", "--nmax", "100", "--d", "2"], 1, "ERROR rational-alpha:"),
        # a loaded certificate is verified before it is used
        (["density", "--ifs", FIG1, "--theta", "0", "--n", "6", "--cert", "{forged}"], 1,
         "ERROR verification: pair (2, 3) fails at eps=1e-09"),
        (["relclose", "double", "--ifs", FIG1, "--cert", "{forged}", "--eps", "1"], 1,
         "ERROR verification: pair (2, 3) fails at eps=1e-09"),
        # inputs that once ended in a ValueError or a RecursionError traceback
        (["net", "--theta-over-pi", "9" * 5000, "--eps", "0.1"], 2, "ERROR config: bad expression"),
        (["dioph", "--alpha", "1/" + "3" * 4400, "--nmax", "100", "--d", "2"], 2,
         "ERROR config: bad expression"),
        (["dim", "--ifs", "{deep}"], 2, "ERROR config: cannot read"),
        (["density", "--ifs", FIG1, "--theta", "0", "--n", "6", "--cert", "{deep}"], 2,
         "ERROR config: cannot read"),
        (["density", "--ifs", FIG1, "--theta", "0", "--n", "6", "--cert", "{long_eps}"], 2,
         "ERROR config: cannot read"),
    ],
)
def test_boundary_inputs(files, argv, code, last):
    paths = {"series": files / "series.csv", "near_limit": files / "near_limit.json",
             "skew": files / "skew.json", "forged": files / "forged.json",
             "deep": files / "deep.json", "long_eps": files / "long_eps.json"}
    got, stdout, line = _run([a.format(**paths) for a in argv])
    assert (got, stdout) == (code, "")
    assert last in line


def test_huge_translations_are_a_config_error(files):
    cfg = files / "huge.json"
    cfg.write_text(json.dumps({"maps": [
        {"r": 0.5, "theta": 0.7, "tx": 1.7e308, "ty": -1.7e308},
        {"r": 0.9, "theta": 1.0, "tx": -1.7e308, "ty": 0.0},
    ]}))
    code, stdout, line = _run(["favard", "--ifs", str(cfg), "--n", "3", "--angles", "4"])
    assert (code, stdout) == (2, "")
    assert line == "ERROR config: the enclosing disk of the maps exceeds the float range"

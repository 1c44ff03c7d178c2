import hashlib
import json
import math
import shlex
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest
from conftest import src_env

from favlab.ifs import IFS
from favlab.svg import SVG_SIZE, render_svg
from oracle import LevelSweeper

FIG1 = "configs/fig1.json"


def run_cli(*args, env=None):
    return subprocess.run(
        [sys.executable, "-m", "favlab.cli", *args],
        capture_output=True,
        text=True,
        env=src_env(env),
        timeout=120,
    )


def test_dim(tmp_path):
    r = run_cli("dim", "--ifs", FIG1)
    assert r.returncode == 0
    label, value = r.stdout.split()
    assert label == "gamma"
    assert abs(float(value) - 1.0) < 1e-12


def test_config_echoed_to_stderr():
    r = run_cli("dim", "--ifs", FIG1)
    assert "config:" in r.stderr
    assert FIG1 in r.stderr


def test_malformed_json_exit2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    r = run_cli("dim", "--ifs", str(bad))
    assert r.returncode == 2
    assert r.stderr.splitlines()[-1].startswith("ERROR config:")


def test_unknown_flag_exit2():
    r = run_cli("dim", "--ifs", FIG1, "--bogus", "1")
    assert r.returncode == 2


def test_negative_level_exit2():
    r = run_cli("favard", "--ifs", FIG1, "--n", "-1", "--angles", "4")
    assert r.returncode == 2
    assert "--n: must be >= 0" in r.stderr
    assert r.stdout == ""


def test_domain_error_exit1():
    r = run_cli("net", "--theta-over-pi", "1/2", "--eps", "0.01",
                "--pmax", "10")
    assert r.returncode == 1
    assert r.stderr.splitlines()[-1].startswith("ERROR no-net:")


def test_favard_csv(tmp_path):
    out = tmp_path / "out.csv"
    r = run_cli("favard", "--ifs", FIG1, "--n", "4", "--angles", "8",
                "--csv", str(out))
    assert r.returncode == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# favlab ")
    assert "config=" in lines[0] and "seed=0" in lines[0]
    assert lines[1] == "n,theta,length"
    assert len(lines) == 2 + 8 + 1  # header comment + columns + rows + summary
    for row in lines[2:]:
        n, theta, length = row.split(",")
        assert int(n) == 4
        float(theta), float(length)


def test_favard_csv_deterministic_across_threads(tmp_path):
    out = tmp_path / "fav.csv"
    outs = []
    for workers in ("1", "3"):
        r = run_cli("favard", "--ifs", FIG1, "--n", "5", "--angles", "16",
                    "--csv", str(out), env={"FAVLAB_THREADS": workers})
        assert r.returncode == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def _favard_value(n, angles):
    r = run_cli("favard", "--ifs", FIG1, "--n", str(n), "--angles", str(angles),
                env={"FAVLAB_THREADS": "1"})
    assert r.returncode == 0, r.stderr
    return float(r.stdout.splitlines()[-1].split(",")[1])


def test_favard_recursion_passes_the_cover_cap():
    # 3^16 cylinders exceed INTERVAL_CAP; the projection recursion merges
    # only components, so fig1 at n = 16 runs
    v15, v16 = _favard_value(15, 8), _favard_value(16, 8)
    assert math.isfinite(v16) and 0.0 < v16 <= v15


def test_favard_huge_level_exits_1_promptly():
    t0 = time.perf_counter()
    r = run_cli("favard", "--ifs", FIG1, "--n", "100000", "--angles", "8")
    assert time.perf_counter() - t0 < 30.0  # interpreter start-up included
    assert r.returncode == 1
    assert r.stderr.splitlines()[-1].startswith("ERROR level-too-large:")
    assert r.stdout == ""


def test_relclose_roundtrip(tmp_path):
    cert = tmp_path / "cert.json"
    r = run_cli("relclose", "find", "--ifs", FIG1, "--eps", "0.3",
                "--out", str(cert))
    assert r.returncode == 0
    data = json.loads(cert.read_text())
    assert len(data["words"]) == 2
    doubled = tmp_path / "cert2.json"
    r = run_cli("relclose", "double", "--ifs", FIG1, "--cert", str(cert),
                "--eps", "2.0", "--out", str(doubled))
    assert r.returncode == 0
    assert len(json.loads(doubled.read_text())["words"]) == 4


def test_relclose_power_and_density(tmp_path):
    cert = tmp_path / "pow.json"
    r = run_cli("relclose", "power", "--ifs", FIG1, "--u", "2", "--v", "3",
                "--n", "3", "--out", str(cert))
    assert r.returncode == 0
    theta = json.loads(cert.read_text())["theta"]
    r = run_cli("density", "--ifs", FIG1, "--theta", str(theta), "--n", "8",
                "--cert", str(cert))
    assert r.returncode == 0
    fields = dict(zip(r.stdout.split()[::2], r.stdout.split()[1::2]))
    assert float(fields["ratio"]) > 0.0


@pytest.mark.parametrize("eps", ["1.5", "3"])
def test_relclose_near_float_limit_diameter(tmp_path, eps):
    # D = 1.53e308: eps * D overflows, but the threshold eps * D * r_u is finite
    cfg = tmp_path / "ifs.json"
    cfg.write_text(json.dumps({"maps": [
        {"r": 0.5, "theta": 0.0, "tx": 1e307, "ty": 1e307},
        {"r": 0.5, "theta_over_pi": 0.7, "tx": 0.0, "ty": 0.0},
    ]}))
    cert = tmp_path / "cert.json"
    r = run_cli("relclose", "find", "--ifs", str(cfg), "--eps", eps, "--out", str(cert))
    assert r.returncode == 0, r.stderr
    data = json.loads(cert.read_text())
    assert len(data["words"]) == 2
    slacks = [s[k] for s in data["slacks"] for k in ("slack_i", "slack_ii", "slack_iii")]
    assert slacks and all(s > 0.0 for s in slacks)


def test_dioph_output():
    r = run_cli("dioph", "--alpha", "(1+sqrt(5))/2", "--nmax", "1000",
                "--d", "2")
    assert r.returncode == 0
    assert r.stdout.splitlines()[0].startswith("c_hat ")
    r = run_cli("dioph", "--alpha", "3/7", "--nmax", "1000", "--d", "2")
    assert r.returncode == 1
    assert "ERROR rational-alpha" in r.stderr


def test_dioph_lists_only_the_irrationals_convergents():
    # sqrt(2)'s convergent denominators are the Pell numbers; its 40-digit
    # value's continued fraction parts from them after 165326326037771920630
    pell = [1, 2]
    while 2 * pell[-1] + pell[-2] <= 10**19:
        pell.append(2 * pell[-1] + pell[-2])
    r = run_cli("dioph", "--alpha", "sqrt(2)", "--nmax", str(10**19), "--d", "2")
    assert r.returncode == 0, r.stderr
    assert [int(row.split(",")[0]) for row in r.stdout.splitlines()[2:]] == pell
    r = run_cli("dioph", "--alpha", "sqrt(2)", "--nmax", str(10**40), "--d", "2")
    assert (r.returncode, r.stdout) == (1, "")
    assert r.stderr.splitlines()[-1].startswith("ERROR indeterminate: precision exhausted")


def test_dioph_overflowing_term_keeps_c_hat_finite():
    # q^d overflows for every q >= 2; the q = 1 convergent keeps c_hat finite
    r = run_cli("dioph", "--alpha", "sqrt(2)", "--nmax", "100", "--d", "1e308")
    assert r.returncode == 0, r.stderr
    c_hat = float(r.stdout.split()[1])
    assert c_hat == pytest.approx(math.sqrt(2.0) - 1.0, rel=1e-15)


def test_count_and_schedule():
    r = run_cli("count", "avoid", "--m", "2", "--s", "2", "--blocks", "2")
    assert r.returncode == 0
    assert r.stdout.splitlines()[0] == "exact 9 bound 9"
    r = run_cli("schedule", "--ifs", FIG1, "--n", "1", "--c1", "1",
                "--k", "1", "--d", "2", "--delta", "0.1")
    assert r.returncode == 0
    assert "s_n 54" in r.stdout


def test_visible_csv(tmp_path):
    out = tmp_path / "vis.csv"
    r = run_cli("visible", "--ifs", FIG1, "--ax", "3", "--ay", "0",
                "--s", "1", "--n", "6", "--csv", str(out))
    assert r.returncode == 0
    lines = out.read_text().splitlines()
    assert lines[1] == "n,covering_sum"
    sums = [float(row.split(",")[1]) for row in lines[2:]]
    assert len(sums) == 6
    assert all(b <= a + 1e-12 for a, b in zip(sums, sums[1:]))


def test_render_svg(tmp_path):
    out0 = tmp_path / "a.svg"
    r = run_cli("render", "--ifs", FIG1, "--depth", "0", "--svg", str(out0))
    assert r.returncode == 0
    doc = out0.read_text()
    assert doc.count("<circle") == 1
    out6a, out6b = tmp_path / "b.svg", tmp_path / "c.svg"
    run_cli("render", "--ifs", FIG1, "--depth", "6", "--svg", str(out6a))
    run_cli("render", "--ifs", FIG1, "--depth", "6", "--svg", str(out6b))
    assert out6a.read_bytes() == out6b.read_bytes()  # byte-identical
    assert out6a.read_text().count("<circle") == 729
    import xml.etree.ElementTree as ET

    ET.fromstring(out6a.read_text())  # valid XML


def test_render_svg_projection_bars(tmp_path):
    # one darkorange bar per component of fig1's level-4 projection at 0.3,
    # and the bars' widths over the drawing's scale sum to its length
    import xml.etree.ElementTree as ET

    out = tmp_path / "bars.svg"
    r = run_cli("render", "--ifs", FIG1, "--depth", "4", "--theta", "0.3", "--svg", str(out))
    assert r.returncode == 0, r.stderr
    rects = ET.fromstring(out.read_text()).iter("{http://www.w3.org/2000/svg}rect")
    widths = [float(rect.get("width")) for rect in rects if rect.get("fill") == "darkorange"]
    ifs = IFS.from_json(FIG1)
    sweeper = LevelSweeper(ifs)
    sweeper.advance_to(4)
    assert len(widths) == len(sweeper.merged_at(0.3)) == 14
    scale = SVG_SIZE / (2.0 * ifs.R0 * 1.1)
    # each width is printed to 6 decimals
    assert sum(widths) / scale == pytest.approx(sweeper.length_at(0.3), abs=len(widths) * 5e-7 / scale)


# sha256 of `favlab render --ifs fig1 --depth D --theta T`, as drawn from the
# level sweeper's cover and bars before the drawing took projection's cover
RENDER_SHA256 = {
    (4, "0.3"): "736da04610fd567f0611597f2f8a94b248d0d906a91aa80fc45dadbdbfda697d",
    (5, "1.1"): "23864915d9ded3817df355f782a5b136f0c3498f4d99936720df1d8c0e1c5cf4",
    (6, "2.0"): "58f90744bbb55b1196038463d27262d93d05a386c0a12d8a2a9202d86c376993",
}


@pytest.mark.parametrize("depth, theta", sorted(RENDER_SHA256))
def test_render_svg_bytes_are_pinned(depth, theta):
    r = run_cli("render", "--ifs", FIG1, "--depth", str(depth), "--theta", theta)
    assert r.returncode == 0, r.stderr
    assert hashlib.sha256(r.stdout.encode()).hexdigest() == RENDER_SHA256[depth, theta]


def test_render_svg_needs_no_level_sweeper(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("render_svg built the level sweeper")

    monkeypatch.setattr(LevelSweeper, "__init__", refuse)
    doc = render_svg(IFS.from_json(FIG1), 4, theta=0.3)
    assert hashlib.sha256(doc.encode()).hexdigest() == RENDER_SHA256[4, "0.3"]


def test_favard_has_no_svg_flag(tmp_path):
    # favlab render is the one drawing command
    r = run_cli("favard", "--ifs", FIG1, "--n", "2", "--angles", "4", "--svg",
                str(tmp_path / "x.svg"))
    assert r.returncode == 2
    assert "unrecognized arguments: --svg" in r.stderr
    assert not (tmp_path / "x.svg").exists()


def test_decay_fit_pipeline(tmp_path):
    csv = tmp_path / "series.csv"
    rows = ["# favlab test", "n,theta,length"]
    for n in range(3, 13):
        rows.append(f"{n},0.0,{2.0 / math.log(n) ** 0.5!r}")
    csv.write_text("\n".join(rows) + "\n")
    r = run_cli("decay", "fit", "--csv", str(csv))
    assert r.returncode == 0
    first = r.stdout.splitlines()[0].split()
    fields = dict(zip(first[::2], first[1::2]))
    # the fit reads Favard values, pi times the mean length: only A_hat scales
    assert float(fields["A_hat"]) == pytest.approx(2.0 * math.pi, abs=1e-6)
    assert float(fields["B_hat"]) == pytest.approx(0.5, abs=1e-6)


@pytest.mark.parametrize(
    "argv, flag, low",
    [
        (["favard", "--ifs", FIG1, "--n", "2", "--angles", "0"], "--angles", 1),
        (["relclose", "find", "--ifs", FIG1, "--eps", "0.3", "--depth", "-1"], "--depth", 0),
        (["relclose", "double", "--ifs", FIG1, "--cert", "c.json", "--eps", "2",
          "--depth", "-1"], "--depth", 0),
        (["net", "--theta-over-pi", "1/2", "--eps", "0.01", "--pmax", "0"], "--pmax", 1),
    ],
    ids=["favard-angles", "relclose-find-depth", "relclose-double-depth", "net-pmax"],
)
def test_integer_flag_below_range_exit2(argv, flag, low):
    r = run_cli(*argv)
    assert r.returncode == 2
    assert f"{flag}: must be >= {low}" in r.stderr
    assert r.stdout == ""


def _assert_config_error(r, detail):
    assert r.returncode == 2
    assert "Traceback" not in r.stderr
    last = r.stderr.splitlines()[-1]
    assert last.startswith("ERROR config:") and detail in last


def test_division_by_zero_exit2():
    r = run_cli("net", "--theta-over-pi", "1/0", "--eps", "0.01")
    _assert_config_error(r, "division by zero")


@pytest.mark.parametrize(
    "maps, detail",
    [
        ([3], "map 0: expected an object"),
        ([{"r": "abc", "theta": 0.0, "tx": 0.0, "ty": 0.0}], "r must be a number"),
        ([{"r": 0.5, "theta": 0.0, "tx": 1e400, "ty": 0.0}], "tx must be finite"),
    ],
    ids=["map-not-object", "ratio-not-number", "translation-not-finite"],
)
def test_bad_map_values_exit2(tmp_path, maps, detail):
    cfg = tmp_path / "ifs.json"
    # json.dumps writes 1e400 as Infinity; write the literal a user would
    cfg.write_text(json.dumps({"maps": maps}).replace("Infinity", "1e400"))
    out = tmp_path / "out.csv"
    r = run_cli("favard", "--ifs", str(cfg), "--n", "2", "--angles", "4",
                "--csv", str(out))
    _assert_config_error(r, detail)
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, detail",
    [
        (["decay", "fit", "--csv", "{tmp}/missing.csv"], "cannot read"),
        (["density", "--ifs", FIG1, "--theta", "1", "--n", "4",
          "--cert", "{tmp}/missing.json"], "cannot read"),
        (["favard", "--ifs", FIG1, "--n", "2", "--angles", "4",
          "--csv", "{tmp}/no/such/dir/out.csv"], "cannot write"),
    ],
    ids=["decay-fit-csv", "density-cert", "favard-csv-out"],
)
def test_missing_file_exit2(tmp_path, argv, detail):
    r = run_cli(*[a.format(tmp=tmp_path) for a in argv])
    _assert_config_error(r, detail)


def test_density_reports_profile_error(tmp_path):
    cert = tmp_path / "pow.json"
    r = run_cli("relclose", "power", "--ifs", FIG1, "--u", "2", "--v", "3",
                "--n", "3", "--out", str(cert))
    assert r.returncode == 0
    theta = json.loads(cert.read_text())["theta"]
    out = tmp_path / "density.csv"
    # level-1 atoms are far too coarse for the witness radii
    r = run_cli("density", "--ifs", FIG1, "--theta", str(theta), "--n", "1",
                "--cert", str(cert), "--csv", str(out))
    assert r.returncode == 0
    warnings = [ln for ln in r.stderr.splitlines() if ln.startswith("WARNING")]
    assert len(warnings) == 1
    assert "density profile not written: resolution:" in warnings[0]
    assert out.read_text().splitlines()[1:] == ["r,ratio"]


def test_density_reports_underflowed_radius(tmp_path):
    cert = tmp_path / "pow.json"
    r = run_cli("relclose", "power", "--ifs", FIG1, "--u", "2", "--v", "3",
                "--n", "3", "--out", str(cert))
    assert r.returncode == 0
    out = tmp_path / "density.csv"
    # steering to 0.7 takes 14,140 symbols, and the radius b underflows
    r = run_cli("density", "--ifs", FIG1, "--theta", "0.7", "--n", "8",
                "--cert", str(cert), "--csv", str(out))
    assert r.returncode == 0
    # b is printed only where it is positive; log10_b carries it
    assert " b " not in r.stdout
    assert " log10_b -6746.9" in r.stdout and "steering_len 14140" in r.stdout
    warnings = [ln for ln in r.stderr.splitlines() if ln.startswith("WARNING")]
    assert len(warnings) == 1
    assert "density profile not written: radius b underflows to 0.0 at log10_b -6746.9" in warnings[0]
    assert out.read_text().splitlines()[1:] == ["r,ratio"]


def test_hull_overflow_is_domain_error(tmp_path):
    # finite but huge translations overflow the hull to NaN vertices
    cfg = tmp_path / "ifs.json"
    cfg.write_text(json.dumps({"maps": [
        {"r": 0.5, "theta": 0.0, "tx": 1e300, "ty": 0.0},
        {"r": 0.5, "theta": 1.0, "tx": 0.0, "ty": 0.0},
    ]}))
    r = run_cli("favard", "--ifs", str(cfg), "--n", "3", "--angles", "4", "--hull")
    assert r.returncode == 1
    assert "Traceback" not in r.stderr
    assert r.stderr.splitlines()[-1].startswith("ERROR precondition:")
    assert "nan" not in r.stdout


@pytest.mark.parametrize("command", ["density", "double"])
def test_certificate_without_omegas_exit2(tmp_path, command):
    cert = tmp_path / "pow.json"
    r = run_cli("relclose", "power", "--ifs", FIG1, "--u", "2", "--v", "3",
                "--n", "2", "--out", str(cert))
    assert r.returncode == 0
    data = json.loads(cert.read_text())
    del data["omegas"]
    cert.write_text(json.dumps(data))
    if command == "density":
        argv = ["density", "--ifs", FIG1, "--theta", "1", "--n", "4", "--cert", str(cert)]
    else:
        argv = ["relclose", "double", "--ifs", FIG1, "--cert", str(cert), "--eps", "2"]
    _assert_config_error(run_cli(*argv), "missing 'omegas'")


@pytest.mark.parametrize("command", ["density", "double"])
@pytest.mark.parametrize("words, detail", [([], "'words' is empty"),
                                           (["2", "2"], "'words' repeats a word")])
def test_empty_or_repeated_word_list_exit2(tmp_path, command, words, detail):
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps({"words": words, "eps": 0.1, "theta": 0.3, "omegas": []}))
    if command == "density":
        argv = ["density", "--ifs", FIG1, "--theta", "1", "--n", "4", "--cert", str(cert)]
    else:
        argv = ["relclose", "double", "--ifs", FIG1, "--cert", str(cert), "--eps", "2"]
    _assert_config_error(run_cli(*argv), detail)


@pytest.mark.parametrize(
    "flag, value",
    [("--ax", "nan"), ("--ax", "inf"), ("--ay", "-inf"), ("--s", "nan")],
)
def test_visible_nonfinite_exit2(tmp_path, flag, value):
    args = {"--ax": "3", "--ay": "0", "--s": "1", flag: value}
    out = tmp_path / "vis.csv"
    r = run_cli("visible", "--ifs", FIG1, *(f"{k}={v}" for k, v in args.items()),
                "--n", "3", "--csv", str(out))
    assert r.returncode == 2
    assert "Traceback" not in r.stderr
    assert f"{flag}: must be finite" in r.stderr
    assert not out.exists()


@pytest.mark.parametrize("ax, ay, n", [("1e308", "1e308", "3"), ("1e12", "0", "9")])
def test_visible_vanishing_arcs_exit1(tmp_path, ax, ay, n):
    # seen from there the cylinder disks' arcs are narrower than the rounding
    # of their start angles, so a covering sum of 0.0 would understate
    out = tmp_path / "vis.csv"
    r = run_cli("visible", "--ifs", FIG1, "--ax", ax, "--ay", ay, "--s", "1",
                "--n", n, "--csv", str(out))
    assert r.returncode == 1
    assert "Traceback" not in r.stderr
    assert r.stderr.splitlines()[-1].startswith("ERROR indeterminate: ")
    assert not out.exists()


@pytest.mark.parametrize("value", ["abc", "0", "-3", "2.5"])
def test_bad_thread_count_exit2(value):
    r = run_cli("favard", "--ifs", FIG1, "--n", "3", "--angles", "4",
                env={"FAVLAB_THREADS": value})
    _assert_config_error(r, f"FAVLAB_THREADS must be an integer >= 1, got {value!r}")
    assert r.stdout == ""


@pytest.mark.parametrize("argv", [
    ["-m", "favlab.cli", "dim", "--ifs", FIG1],
    [str(Path(__file__).resolve().parent.parent / "scripts" / "build_family.py"),
     "--ifs", FIG1, "--size", "2"],
])
def test_bad_thread_count_exit2_without_a_sweep(argv):
    # the variable is checked before any command or script runs, sweep or not
    r = subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                       env=src_env({"FAVLAB_THREADS": "abc"}), timeout=120)
    _assert_config_error(r, "FAVLAB_THREADS must be an integer >= 1, got 'abc'")
    assert r.stdout == ""


def test_empty_thread_count_is_unset():
    r = run_cli("favard", "--ifs", FIG1, "--n", "3", "--angles", "4",
                env={"FAVLAB_THREADS": ""})
    assert r.returncode == 0, r.stderr


SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize(
    "script, argv, code, last",
    [
        # MERGE_CAP refuses the level before any work
        ("run_fig1_sweep.py", ["--n-max", "100000"], 1, "ERROR level-too-large:"),
        ("run_fig1_sweep.py", ["--angles", "0"], 2, "argument --angles: must be >= 1"),
        ("run_fig1_sweep.py", ["--n-max", "-1"], 2, "argument --n-max: must be >= 0"),
        ("run_fig1_sweep.py", ["--n-max", "3", "--out", "{tmp}/absent/out.csv"], 2,
         "ERROR config: cannot write"),
        # the decay fit is favlab decay fit; its missing CSV is in test_missing_file_exit2
        ("favlab", ["decay", "fit", "--csv", "{tmp}/short.csv"], 1, "ERROR degenerate-fit:"),
        ("favlab", ["decay", "fit", "--csv", "{tmp}/short.csv", "--d", "0"], 2,
         "argument --d: must be > 0"),
        # the mass band of ratios 0.999 and 0.1 descends ~4,600 levels
        ("build_family.py", ["--ifs", "{tmp}/skew.json", "--size", "2"], 1,
         "ERROR level-too-large:"),
        ("build_family.py", ["--eps", "0"], 2, "argument --eps: must be > 0"),
        ("build_family.py", ["--eps", "1e-9", "--size", "2"], 1, "ERROR no-net:"),
    ],
)
def test_script_errors_exit_without_traceback(tmp_path, script, argv, code, last):
    (tmp_path / "short.csv").write_text("n,theta,length\n3,0.1,0.5\n4,0.1,0.4\n")
    (tmp_path / "skew.json").write_text(json.dumps({"maps": [
        {"r": 0.999, "theta": 0.0, "tx": 0.0, "ty": 0.0},
        {"r": 0.1, "theta": 1.0, "tx": 1.0, "ty": 0.0},
    ]}))
    command = ["-m", "favlab.cli"] if script == "favlab" else [str(SCRIPTS / script), "--ifs", FIG1]
    r = subprocess.run(
        [sys.executable, *command, *(arg.format(tmp=tmp_path) for arg in argv)],
        capture_output=True, text=True, env=src_env(), timeout=120,
    )
    assert r.returncode == code
    assert "Traceback" not in r.stderr
    assert last in r.stderr.splitlines()[-1]
    assert r.stdout == ""


def readme_cli_block():
    """The commands of the README's CLI block, the fenced sh block that
    starts with favlab dim, each split as the shell would split it."""
    text = (SCRIPTS.parent / "README.md").read_text(encoding="utf-8")
    block = next(b for b in text.split("```sh\n")[1:] if b.startswith("favlab dim"))
    return [shlex.split(line, comments=True) for line in block.split("```")[0].splitlines()]


def test_readme_cli_block_runs_as_written(tmp_path):
    # run in order from a copy of configs/ and scripts/, as from a checkout:
    # later lines read what earlier ones write
    for part in ("configs", "scripts"):
        shutil.copytree(SCRIPTS.parent / part, tmp_path / part)
    prefix = {"favlab": [sys.executable, "-m", "favlab.cli"], "python": [sys.executable]}
    commands = readme_cli_block()
    assert len(commands) >= 10
    for argv in commands:
        r = subprocess.run(
            [*prefix[argv[0]], *argv[1:]], capture_output=True, text=True,
            cwd=tmp_path, env=src_env(), timeout=120,
        )
        assert r.returncode == 0, (argv, r.stderr)
        out = (r.stdout + r.stderr).splitlines()
        assert [line for line in out if "ERROR" in line or "WARNING" in line] == [], argv

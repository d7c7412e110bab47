import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hs

import polygv
from polygv import cli, verify
from polygv.cli import build_parser, main

SRC = str(Path(polygv.__file__).resolve().parents[1])
# the environment of every fresh-interpreter probe: no bytecode written under src/
PROBE_ENV = {"PYTHONPATH": SRC, "PYTHONDONTWRITEBYTECODE": "1"}
GOLDEN = Path(__file__).parent / "golden" / "verify_full.txt"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_construct_mw(capsys, tmp_path):
    out = tmp_path / "mw.json"
    code, _, _ = run_cli(
        capsys, "construct", "--family", "mw", "--K", "2", "--D", "4", "--N", "7",
        "--out", str(out),
    )
    assert code == 0
    obj = json.loads(out.read_text())
    assert len(obj["vertices"]) == 7
    assert len(obj["facets"]) == 11
    assert obj["dim"] == 3


def test_construct_is_byte_deterministic(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        code, _, _ = run_cli(
            capsys, "construct", "--family", "diamond",
            "--k", "1", "--d", "6", "--n", "9", "--a", "2", "--out", str(path),
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_construct_cyclic_and_lex(capsys):
    code, out, _ = run_cli(capsys, "construct", "--family", "cyclic", "--K", "2", "--m", "5")
    assert code == 0
    assert len(json.loads(out)["facets"]) == 5
    code, out, _ = run_cli(
        capsys, "construct", "--family", "lex", "--base", "cyclic",
        "--K", "2", "--m", "5", "--a", "2",
    )
    assert code == 0
    assert json.loads(out)["facets"] == [["c1", "c2", "c5"], ["c2", "c3", "c4"], ["c2", "c4", "c5"]]


def test_construct_missing_flags_is_exit_2(capsys):
    code, _, err = run_cli(capsys, "construct", "--family", "mw", "--K", "2")
    assert code == 2
    assert "needs" in err


def test_construct_bad_params_is_exit_2(capsys):
    code, _, err = run_cli(
        capsys, "construct", "--family", "mw", "--K", "9", "--D", "4", "--N", "7"
    )
    assert code == 2
    assert "polygv:" in err


def test_stackedness_report(capsys):
    code, out, _ = run_cli(capsys, "stackedness", "--k", "1", "--d", "6", "--n", "9", "--a", "2")
    assert code == 0
    obj = json.loads(out)
    assert obj["witness"]["a"] == 1 and obj["witness"]["b"] == 4
    report = obj["diamonds"][0]
    assert report["missing_agree"] and report["facets_agree"]
    assert len(report["predicted_missing"]) == 6
    assert len(report["oracle_stacked_facets"]) == 6


def test_stackedness_n_equal_to_d_has_one_diamond_and_no_witness(capsys):
    code, out, err = run_cli(capsys, "stackedness", "--k", "1", "--d", "6", "--n", "6")
    assert (code, err) == (0, "stackedness: n == d leaves a single diamond, no witness\n")
    obj = json.loads(out)
    assert obj["witness"] is None and len(obj["diamonds"]) == 1


def test_a_classified_witness_prints_the_json_and_exits_1(capsys, monkeypatch):
    from polygv import stackedness as st

    classify = st.classify_face

    def listed_in_b(face, k, d, n, a):
        return st.FACET_II if (k, d, n, a) == (1, 6, 9, 4) else classify(face, k, d, n, a)

    monkeypatch.setattr(st, "classify_face", listed_in_b)
    code, out, err = run_cli(capsys, "stackedness", "--k", "1", "--d", "6", "--n", "9")
    assert (code, err) == (1, "")
    obj = json.loads(out)
    assert obj["witness"]["face_type_in_b"] == "facet-II"
    assert all(d["missing_agree"] and d["facets_agree"] for d in obj["diamonds"])


CYCLIC_IN = str(GOLDEN.parent / "construct_cyclic_K4_m10.json")
CUBE_IN = str(GOLDEN.parent / "input_cube_d3_f.json")
Q_ARGS = ["q-report", "--k", "1", "--d", "6", "--n", "9"]
# golden file -> (arguments, stderr): each construct family with both lex bases
# and K = 1, one whole stackedness stream and one --a call, and each format of
# fvec, gvec, q-report and ray
OUTPUT_GOLDEN = {
    "construct_cyclic_K4_m10.json": (["construct", "--family", "cyclic", "--K", "4", "--m", "10"], ""),
    "construct_mw_K2_D6_N11.json": (["construct", "--family", "mw", "--K", "2", "--D", "6", "--N", "11"], ""),
    "construct_mw_K1_D3_N6.json": (["construct", "--family", "mw", "--K", "1", "--D", "3", "--N", "6"], ""),
    "construct_lex_cyclic_K3_m9_a3.json": (
        ["construct", "--family", "lex", "--base", "cyclic", "--K", "3", "--m", "9", "--a", "3"], ""
    ),
    "construct_lex_mw_K4_D8_N13_a4.json": (
        ["construct", "--family", "lex", "--base", "mw", "--K", "4", "--D", "8", "--N", "13", "--a", "4"], ""
    ),
    "construct_diamond_k2_d10_n14_a3.json": (
        ["construct", "--family", "diamond", "--k", "2", "--d", "10", "--n", "14", "--a", "3"], ""
    ),
    "stackedness_k2_d8_n10.json": (["stackedness", "--k", "2", "--d", "8", "--n", "10"], ""),
    "stackedness_k1_d6_n9_a3.json": (["stackedness", "--k", "1", "--d", "6", "--n", "9", "--a", "3"], ""),
    "q_report_k1_d6_n9.txt": (Q_ARGS, ""),
    "q_report_k1_d6_n9.csv": (Q_ARGS + ["--format", "csv"], ""),
    "q_report_k1_d6_n9.json": (Q_ARGS + ["--format", "json"], ""),
    "fvec_cyclic_K4_m10.json": (["fvec", "--in", CYCLIC_IN], ""),
    "fvec_cyclic_K4_m10.csv": (["fvec", "--in", CYCLIC_IN, "--format", "csv"], ""),
    "fvec_cyclic_K4_m10.txt": (["fvec", "--in", CYCLIC_IN, "--format", "table"], ""),
    "gvec_cyclic_K4_m10.json": (["gvec", "--in", CYCLIC_IN, "--kind", "simplicial"], ""),
    "gvec_cyclic_K4_m10.txt": (["gvec", "--in", CYCLIC_IN, "--kind", "simplicial", "--format", "table"], ""),
    "gvec_cubical_cube_d3.json": (["gvec", "--in", CUBE_IN, "--kind", "cubical-from-f"], ""),
    "gvec_cubical_cube_d3.txt": (["gvec", "--in", CUBE_IN, "--kind", "cubical-from-f", "--format", "table"], ""),
    "ray_k1_d6_n6_9.csv": (
        ["ray", "--k", "1", "--d", "6", "--n-from", "6", "--n-to", "9"],
        "ray: n=6 has zero normalizer, row emitted unnormalized\n",
    ),
}


@pytest.mark.parametrize("name", sorted(OUTPUT_GOLDEN))
def test_output_format_is_golden(capsys, name):
    """stdout byte for byte, the exit code and stderr: the order of every face
    list and vertex, the witness fields and the layout of each format."""
    argv, want_err = OUTPUT_GOLDEN[name]
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, want_err)
    assert out.encode() == (GOLDEN.parent / name).read_bytes()


def test_fvec_reads_stdin_for_a_dash(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO(Path(CYCLIC_IN).read_text()))
    code, out, err = run_cli(capsys, "fvec", "--in", "-")
    assert (code, err) == (0, "")
    assert out.encode() == (GOLDEN.parent / "fvec_cyclic_K4_m10.json").read_bytes()


def test_verify_output_is_golden():
    """stdout, byte for byte, as committed in tests/golden."""
    done = subprocess.run(
        [sys.executable, "-m", "polygv.cli", "verify", "--suite", "all", "--grid", "full"],
        capture_output=True, env=PROBE_ENV,
    )
    assert done.returncode == 0
    assert done.stdout == GOLDEN.read_bytes()


def test_verify_default_grid_is_full():
    """Without --grid, verify parses to the very run the golden test makes."""
    parser = build_parser()
    assert parser.parse_args(["verify", "--suite", "all"]) == parser.parse_args(
        ["verify", "--suite", "all", "--grid", "full"]
    )


def test_verify_other_grid_is_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "all", "--grid", "small"])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert "invalid choice: 'small'" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("suite", verify.SUITES)
def test_verify_each_suite(verify_run, suite):
    """Each suite prints exactly its own lines of the golden full run, in order, then its summary."""
    golden = [line for line in GOLDEN.read_text().splitlines() if line.startswith(f"PASS  {suite}: ")]
    assert golden
    run = verify_run(suite)
    assert run.code == 0
    n = len(golden)
    assert run.out.splitlines() == golden + [f"verify: suite={suite} grid=full checks={n} passed={n} failed=0"]


def test_ray_bad_range_is_exit_2(capsys):
    code, _, err = run_cli(capsys, "ray", "--k", "1", "--d", "6", "--n-from", "9", "--n-to", "6")
    assert code == 2
    assert "polygv:" in err


@pytest.mark.parametrize(
    "text,argv",
    [
        (None, ["fvec", "--in", "{path}"]),
        (None, ["q-report", "--k", "1", "--d", "6", "--n", "9", "-o", "{path}"]),
        ("[1, 2]", ["fvec", "--in", "{path}"]),
        ("[1, 2]", ["gvec", "--in", "{path}"]),
        ("[1, 2]", ["gvec", "--in", "{path}", "--kind", "cubical-from-f"]),
        ('{"d": 0, "f": []}', ["gvec", "--in", "{path}", "--kind", "cubical-from-f"]),
        ('{"facets": [1]}', ["fvec", "--in", "{path}"]),
        ('{"facets": [1]}', ["gvec", "--in", "{path}"]),
        ('{"d": 3, "f": ["a", "b", "c"]}', ["gvec", "--in", "{path}", "--kind", "cubical-from-f"]),
        ('{"d": 1, "f": [true]}', ["gvec", "--in", "{path}", "--kind", "cubical-from-f"]),
        ('{"facets": []}', ["gvec", "--in", "{path}", "--kind", "cubical-from-f"]),
        ('{"facets": [[]]}', ["gvec", "--in", "{path}", "--kind", "cubical-from-f"]),
        ('{"facets": [["u01", "u1"]]}', ["fvec", "--in", "{path}"]),
        ('{"facets": [["u\\u0663"]]}', ["fvec", "--in", "{path}"]),
        ('{"facets": [["u1\\n"]]}', ["fvec", "--in", "{path}"]),
        ('{"facets": [["p\\n"]]}', ["fvec", "--in", "{path}"]),
        (None, ["stackedness", "--k", "1", "--d", "6", "--n", "5"]),
        ("[" * 200000 + "]" * 200000, ["fvec", "--in", "{path}"]),
        ("[" * 200000 + "]" * 200000, ["gvec", "--in", "{path}"]),
        ("[" * 200000 + "]" * 200000, ["gvec", "--in", "{path}", "--kind", "cubical-from-f"]),
        (None, ["q-report", "--k", "1", "--d", "6", "--n", "100000"]),
        (None, ["ray", "--k", "1", "--d", "6", "--n-from", "100000", "--n-to", "100000"]),
        (None, ["q-report", "--k", "1", "--d", "6", "--n", "14284"]),
        (None, ["ray", "--k", "1", "--d", "6", "--n-from", "14284", "--n-to", "14284"]),
    ],
    ids=[
        "fvec-in-dir", "q-report-out-dir", "fvec-list", "gvec-list", "gvec-cubical-list",
        "gvec-cubical-d0", "fvec-int-facet", "gvec-int-facet", "gvec-cubical-str-f",
        "gvec-cubical-bool-f", "gvec-cubical-no-facets", "gvec-cubical-empty-facet",
        "fvec-label-leading-zero", "fvec-label-arabic-indic-digit", "fvec-label-trailing-newline",
        "fvec-apex-trailing-newline", "stackedness-n-below-d",
        "fvec-deep-nesting", "gvec-deep-nesting", "gvec-cubical-deep-nesting",
        "q-report-n-past-print-bound", "ray-n-past-print-bound",
        "q-report-entry-past-print-bound", "ray-entry-past-print-bound",
    ],
)
def test_bad_input_is_exit_2(capsys, tmp_path, text, argv):
    path = tmp_path
    if text is not None:
        path = tmp_path / "in.json"
        path.write_text(text)
    code, _, err = run_cli(capsys, *(arg.replace("{path}", str(path)) for arg in argv))
    assert code == 2
    assert err.startswith("polygv:")
    assert len(err.splitlines()) == 1


def test_print_bound_follows_the_int_str_limit(capsys, monkeypatch):
    # Under a limit of 30 digits, the last n whose unlimited output has no
    # integer wider than 30 digits must print, and every later n must exit 2
    # without printing.
    for argv in (["q-report", "--n"], ["ray", "--n-from", "6", "--n-to"]):
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 0)  # no limit
        widths = {}
        for n in range(88, 102):
            code, out, _ = run_cli(capsys, *argv, str(n), "--k", "1", "--d", "6")
            assert code == 0
            widths[n] = max(map(len, re.findall(r"\d+", out)))
        last = max(n for n, w in widths.items() if w <= 30)
        assert 88 < last < 101 and all(w > 30 for n, w in widths.items() if n > last)
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 30)
        assert run_cli(capsys, *argv, str(last), "--k", "1", "--d", "6")[0] == 0
        for n in (last + 1, 100):  # 100 = (10**30).bit_length(): rejected uncomputed
            code, out, err = run_cli(capsys, *argv, str(n), "--k", "1", "--d", "6")
            assert (code, out) == (2, "")
            assert err == (
                f"polygv: n={n} is too large to print: an entry has more than 30 digits, "
                "the interpreter's int-to-str limit\n"
            )


@pytest.mark.parametrize(
    "text,kind,want",
    [
        ('{"d": 3, "f": [8, 12, 6]}', "simplicial", "simplicial input needs a 'facets' list"),
        ('{"d": 3}', "cubical-from-f", "cubical input needs 'f' (or 'facets')"),
        ('{"f": [8, 12, 6]}', "cubical-from-f", "cubical input needs 'd' (or 'facets')"),
        ('{"d": 3, "f": [8, 12]}', "cubical-from-f", "cubical f-vector for d=3 needs 3 entries f_0..f_2"),
    ],
    ids=["simplicial-no-facets", "cubical-no-f", "cubical-no-d", "cubical-short-f"],
)
def test_missing_key_is_named(capsys, tmp_path, text, kind, want):
    path = tmp_path / "in.json"
    path.write_text(text)
    code, _, err = run_cli(capsys, "gvec", "--in", str(path), "--kind", kind)
    assert code == 2
    assert err == f"polygv: {want}\n"


def test_a_key_error_inside_a_command_propagates_out_of_main(monkeypatch):
    """Every input reader raises ValueError for a missing key, so a KeyError is a
    program fault: main lets it through rather than report it as bad input (exit 2)."""
    import polygv.qvectors as qv

    def lost(spec):
        raise KeyError("lost")

    monkeypatch.setattr(qv, "gsc_q_closed", lost)
    with pytest.raises(KeyError, match="lost"):
        main(Q_ARGS)


def test_route_disagreement_is_exit_1_without_traceback(capsys, monkeypatch):
    import polygv.qvectors as qv
    from polygv.vectors import CubicalG

    closed = qv.gc_q_closed

    def off_by_one(spec):
        gc = closed(spec)
        return CubicalG(gc.d, (gc.entries[0] + 1,) + gc.entries[1:])

    monkeypatch.setattr(qv, "gc_q_closed", off_by_one)
    code, out, err = run_cli(capsys, "ray", "--k", "1", "--d", "6", "--n-from", "7", "--n-to", "8")
    assert code == 1
    assert err.startswith("polygv: gc routes disagree")
    assert len(err.splitlines()) == 1
    assert "Traceback" not in out + err


def test_q_report_route_disagreement_prints_the_table_and_exits_1(capsys, monkeypatch):
    import polygv.qvectors as qv
    from polygv.vectors import CubicalG

    closed = qv.gc_q_closed

    def off_by_one(spec):
        gc = closed(spec)
        return CubicalG(gc.d, (gc.entries[0] + 1,) + gc.entries[1:])

    monkeypatch.setattr(qv, "gc_q_closed", off_by_one)
    code, out, err = run_cli(capsys, *Q_ARGS)
    assert (code, err) == (1, "q-report: routes disagree\n")
    # the golden table, but for route B of g^c and its verdict
    golden = (GOLDEN.parent / "q_report_k1_d6_n9.txt").read_text().splitlines()
    lines = out.splitlines()
    assert lines[:-2] == golden[:-2] and lines[-2] != golden[-2]
    assert lines[-1] == "gc  routes agree:           False"


def _ran_modules(code: str) -> str:
    """Probe ``code``, then a line that prints the polygv modules whose body has run.

    LazyLoader gives a registered module the class ``types.ModuleType`` once
    its body has run.
    """
    return (
        "import sys, types\n"
        + code
        + "print(sorted(name for name, m in sys.modules.items()"
        " if name.startswith('polygv.') and type(m) is types.ModuleType))\n"
    )


ALL_MODULES = ["cli", "complexes", "constructions", "qvectors", "stackedness", "vectors", "verify"]


def test_cli_imports_only_the_standard_library():
    """Every module body runs: `import polygv.cli` alone would run none of them.

    Nor do the bodies import `dataclasses` or `inspect`, which cost every call
    start-up time.
    """
    probe = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import polygv.cli\n"
        "for name, module in list(sys.modules.items()):\n"
        "    if name.startswith('polygv.'):\n"
        "        vars(module)\n"
        "new = {name.split('.')[0] for name in set(sys.modules) - before}\n"
        "print(sorted(new - set(sys.stdlib_module_names) - {'polygv'}))\n"
        "print('networkx' in sys.modules)\n"
        "print(sorted(new & {'dataclasses', 'inspect'}))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", _ran_modules(probe)], capture_output=True, text=True,
        check=True, env=PROBE_ENV,
    )
    ran = str([f"polygv.{m}" for m in ALL_MODULES])
    assert done.stdout.splitlines() == ["[]", "False", "[]", ran]


def test_cli_suite_choices_are_the_verify_suites():
    assert cli.SUITES == verify.SUITES


BASE_MODULES = ["cli", "complexes", "vectors"]
CONS_MODULES = sorted(BASE_MODULES + ["constructions"])
Q_MODULES = ["cli", "qvectors", "vectors"]


@pytest.mark.parametrize(
    "argv,ran",
    [
        (["construct", "--family", "diamond", "--k", "1", "--d", "6", "--n", "9", "--a", "2"],
         CONS_MODULES),
        (["construct", "--family", "cyclic", "--K", "4", "--m", "10"], CONS_MODULES),
        (["fvec", "--in", "diamond.json"], BASE_MODULES),
        (["gvec", "--in", "diamond.json"], BASE_MODULES),
        (["q-report", "--k", "1", "--d", "6", "--n", "9", "--format", "json"], Q_MODULES),
        (["ray", "--k", "1", "--d", "6", "--n-from", "7", "--n-to", "30"], Q_MODULES),
        (["stackedness", "--k", "1", "--d", "6", "--n", "9"],
         sorted(CONS_MODULES + ["qvectors", "stackedness"])),
        (["verify", "--suite", "all"], ALL_MODULES),
    ],
    ids=["construct-diamond", "construct-cyclic", "fvec", "gvec", "q-report", "ray",
         "stackedness", "verify"],
)
def test_each_subcommand_runs_only_the_modules_it_calls(tmp_path, argv, ran):
    """A fresh interpreter runs one call; only `verify` runs verify.py."""
    diamond = tmp_path / "diamond.json"
    assert main(["construct", "--family", "diamond", "--k", "1", "--d", "6", "--n", "9",
                 "--a", "2", "--out", str(diamond)]) == 0
    probe = (
        "import contextlib, io\n"
        "from polygv.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main({argv!r}) == 0\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", _ran_modules(probe)], capture_output=True, text=True,
        cwd=tmp_path, env=PROBE_ENV,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == f"{[f'polygv.{m}' for m in ran]}\n"


def test_the_q_module_loads_no_builder_and_the_verify_parent_no_fractions():
    """`import polygv.qvectors` loads neither the complex engine nor its builders;
    `verify --suite all` runs `fractions` only in its forked child."""
    probe = (
        "import contextlib, io, sys\n"
        "import polygv.qvectors\n"
        "print(sorted({'polygv.complexes', 'polygv.constructions'} & set(sys.modules)))\n"
        "from polygv.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(['verify', '--suite', 'all']) == 0\n"
        "print(sorted({'fractions', 'decimal'} & set(sys.modules)))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=PROBE_ENV,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["[]", "[]"]


@pytest.mark.parametrize(
    "cli_args,traced",
    [
        (["q-report", "--k", "1", "--d", "6", "--n", "9"], "cli.cmd_q_report"),
        (["verify", "--suite", "transforms"], "verify.check_resubstitution"),
    ],
    ids=["q-report", "verify-transforms"],
)
def test_benchmark_traced_cli_call_exits_0(tmp_path, cli_args, traced):
    """The benchmark's traced child wraps every polygv module from outside.

    It reads each module from ``sys.modules`` after ``import polygv.cli`` and
    calls ``verify.thread_count``, so a module or name it relies on that goes
    missing fails here rather than only in a traced benchmark run.  A traced
    verify benchmark run fails when its child dies before writing the summary.
    """
    summary = tmp_path / "trace.json"
    child = Path(SRC).parent / "perfbench" / "child.py"
    done = subprocess.run(
        [sys.executable, str(child), "--trace", str(summary), "cli", *cli_args],
        capture_output=True, text=True, env=PROBE_ENV, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    obj = json.loads(summary.read_text())
    assert obj["calls"][traced] == 1 and obj["setup_s"] > 0


def test_package_import_loads_no_submodule():
    """`import polygv` is the docstring and version: the API lives in the submodules."""
    probe = (
        "import sys\n"
        "import polygv\n"
        "print(sorted(name for name in sys.modules if name.startswith('polygv.')))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
        env=PROBE_ENV,
    )
    assert done.stdout == "[]\n"


def test_readme_cli_tour_runs(tmp_path):
    """Every line of README's "CLI tour" block runs, in order, under `bash -e`."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    tour = re.search(r"^## CLI tour\n\n```\n(.*?)^```", readme, re.S | re.M).group(1)
    script = f'polygv() {{ "{sys.executable}" -m polygv.cli "$@"; }}\n' + tour
    done = subprocess.run(
        ["bash", "-e", "-c", script], cwd=tmp_path, capture_output=True, text=True,
        env={**PROBE_ENV, "PATH": os.environ.get("PATH", "")},
    )
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "ray_k2_d10.csv").read_text().startswith("k,d,n,")


LABELS = hs.sampled_from(["p", "c1", "c2", "c3", "t1", "t2", "u1", "u2", "u3", "x", "c0", ""])
FACETS = hs.fixed_dictionaries(
    {"facets": hs.lists(hs.lists(LABELS, max_size=4), max_size=5)},
    optional={"dim": hs.integers(-2, 5), "vertices": hs.lists(LABELS, max_size=4)},
)
CUBICAL_F = hs.fixed_dictionaries(
    {},
    optional={
        "d": hs.one_of(hs.integers(-2, 6), hs.booleans(), hs.text(max_size=3)),
        "f": hs.lists(hs.one_of(hs.integers(-3, 50), hs.booleans(), hs.none()), max_size=7),
    },
)
SCALARS = hs.none() | hs.booleans() | hs.integers() | hs.floats(allow_nan=False) | hs.text(max_size=5)
ANY_JSON = hs.recursive(
    SCALARS,
    lambda inner: hs.lists(inner, max_size=4)
    | hs.dictionaries(hs.sampled_from(["facets", "d", "f", "dim", "x"]), inner, max_size=3),
    max_leaves=12,
)
COMMANDS = [["fvec"], ["gvec"], ["gvec", "--kind", "cubical-from-f"]]


@settings(max_examples=200, deadline=None)
@given(body=hs.one_of(FACETS, CUBICAL_F, ANY_JSON))
@example(body={"facets": []})
def test_fuzzed_json_input_is_exit_0_or_2(body):
    """No JSON body makes fvec or gvec raise: each call is ok (0) or bad input (2)."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "in.json"
        path.write_text(json.dumps(body), encoding="utf-8")
        for command in COMMANDS:
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = main([*command, "--in", str(path)])
            assert code in (0, 2), (command, body, sink.getvalue())


SMALL_INT = hs.integers(-2, 8)


@hs.composite
def cli_argv(draw):
    """argv for construct (each family), q-report, ray or stackedness, with
    small integers: d <= 8, n <= d + 3, a ray span of at most 5."""
    command = draw(hs.sampled_from(["construct", "q-report", "ray", "stackedness"]))
    if command == "construct":
        family = draw(hs.sampled_from(["cyclic", "mw", "lex", "diamond"]))
        argv = ["construct", "--family", family, "--base", draw(hs.sampled_from(["cyclic", "mw"]))]
        for name in draw(hs.lists(hs.sampled_from("K m D N k d n a".split()), unique=True)):
            argv += [f"--{name}", str(draw(SMALL_INT))]
        return argv
    k, d = draw(SMALL_INT), draw(SMALL_INT)
    if command == "ray":
        lo = draw(hs.integers(-2, d + 3))
        hi = lo + draw(hs.integers(-1, 5))
        return ["ray", "--k", str(k), "--d", str(d), "--n-from", str(lo), "--n-to", str(hi)]
    argv = [command, "--k", str(k), "--d", str(d), "--n", str(draw(hs.integers(-2, d + 3)))]
    if command == "stackedness" and draw(hs.booleans()):
        argv += ["--a", str(draw(SMALL_INT))]
    return argv


@settings(max_examples=200, deadline=None)
@given(argv=cli_argv())
def test_fuzzed_cli_arguments_are_exit_0_1_or_2(argv):
    """No small integer arguments make a command raise: each call is 0, 1 or 2."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        code = main(argv)
    assert code in (0, 1, 2), (argv, sink.getvalue())

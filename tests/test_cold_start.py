"""Start-up contract: what `import ekrlab.cli` loads, what a command leaves
unloaded (the real layer until it is needed, the mpmath package and
`multiprocessing` always), and that `--threads` changes no byte of a
cold-started command, since every command runs in one process.  Each check
runs in a fresh interpreter, because this one imported mpmath long ago."""

import ast
import json
import os
import pickle
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

import ekrlab
from conftest import perfbench_workloads
from ekrlab import numerics

ROOT = Path(__file__).resolve().parents[1]
SRC = str(Path(ekrlab.__file__).resolve().parents[1])

#: runs `cli.main` on the JSON argv in sys.argv[1] (none: import only), then
#: prints the sorted names of the loaded modules as the last stdout line
PROBE = """
import json, sys
from ekrlab import cli
argv = json.loads(sys.argv[1])
code = cli.main(argv) if argv else 0
print(json.dumps({"code": code, "modules": sorted(sys.modules)}))
"""


def _env(**extra_env) -> dict:
    # stdout block-buffered, as a user's is, so that output a run leaves in
    # the buffer when it exits would show as missing
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("EKRLAB_") and k != "PYTHONUNBUFFERED"}
    env.update(extra_env)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    return env


def _run(*argv, **extra_env) -> subprocess.CompletedProcess:
    proc = subprocess.run([sys.executable, *argv], cwd=ROOT,
                          env=_env(**extra_env), capture_output=True,
                          text=True, timeout=120)
    assert "Traceback" not in proc.stderr, proc.stderr
    return proc


def _loaded_after(*cli_argv, **extra_env) -> set:
    proc = _run("-c", PROBE, json.dumps(list(cli_argv)), **extra_env)
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["code"] == 0, proc.stdout
    return set(result["modules"])


def test_import_loads_every_traced_layer():
    # perfbench/tracing.py reads these from sys.modules when it installs
    layers = runpy.run_path(str(ROOT / "perfbench" / "tracing.py"))["MODULE_LAYERS"]
    assert len(layers) == 8
    assert set(layers) <= _loaded_after()


#: installs perfbench/tracing.py's Tracer, runs `cli.main` on the JSON argv
#: in sys.argv[2], uninstalls, and prints the code, the span labels and the
#: calls per layer as the last stdout line
TRACE_PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
from tracing import Tracer
from ekrlab import cli
tracer = Tracer()
tracer.install()
code = cli.main(json.loads(sys.argv[2]))
tracer.uninstall()
_, calls = tracer.layer_totals()
print(json.dumps({"code": code, "labels": tracer.labels, "calls": calls,
                  "restored": not hasattr(cli.main, "__wrapped__")}))
"""


def test_tracer_binds_every_name_it_looks_up():
    # the tracer finds its entry points by name when it installs; a run
    # through it must reach the sweep in measures and the count kernel
    proc = _run("-c", TRACE_PROBE, str(ROOT / "perfbench"), json.dumps(
        ["iso-sweep", "--n", "3", "--all-monotone", "--p", "1/3"]))
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["code"] == 0 and result["restored"]
    assert "measures:iso_sweep" in result["labels"]
    assert result["calls"]["measures"] > 0
    assert result["calls"]["kernels.count"] == 20


def test_import_defers_real_layer_and_pool():
    loaded = _loaded_after()
    assert "mpmath.ctx_mp" not in loaded
    assert numerics._LIBMP not in loaded
    assert "multiprocessing" not in loaded


def test_import_skips_dataclasses_and_inspect():
    # together about half of the CLI import time when they were used
    loaded = _loaded_after()
    assert "dataclasses" not in loaded
    assert "inspect" not in loaded


def _package_imports(at_any_depth: bool) -> list[tuple[str, str]]:
    """(file name, top-level module) for every absolute import in the
    package source, at module level only or at any depth."""
    found = []
    for path in sorted(Path(SRC, "ekrlab").glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree) if at_any_depth else tree.body:
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            found += [(path.name, name.split(".")[0]) for name in names]
    return found


def test_package_imports_no_heavy_stdlib_at_module_level():
    # `site` may load typing before ekrlab runs, so the sys.modules check
    # above cannot see a module-level typing import; this reads the source
    banned = {"dataclasses", "inspect", "typing"}
    assert not [hit for hit in _package_imports(at_any_depth=False)
                if hit[1] in banned]


def test_cli_is_a_thin_shell():
    # cli.py parses, dispatches and prints: the sweep maths, random draws
    # and exact or real arithmetic live in the library layers
    banned = {"mpmath", "random", "fractions", "Fraction", "iso_table",
              "russo_identity"}
    tree = ast.parse(Path(SRC, "ekrlab", "cli.py").read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            names |= {a.name for a in node.names}
            if node.module and not node.level:
                names.add(node.module.split(".")[0])
        elif isinstance(node, ast.Name):
            names.add(node.id)
    assert not names & banned


def test_one_class_holds_the_frozen_record_policy():
    # every frozen record inherits numerics._Frozen, so none repeats the
    # immutability, pickling or slot-setting code (and the bans above cover
    # the base too); the one other slot write is SetFamily's cache fill
    owners, writers = [], set()

    def visit(node, where):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            where += (node.name,)
        if (isinstance(node, ast.Attribute) and node.attr == "__setattr__"
                and isinstance(node.value, ast.Name)
                and node.value.id == "object"):
            writers.add(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    for path in sorted(Path(SRC, "ekrlab").glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and any(
                    isinstance(f, ast.FunctionDef)
                    and f.name in ("__setattr__", "__reduce__")
                    for f in node.body):
                owners.append((path.name, node.name))
        visit(tree, ())
    assert owners == [("numerics.py", "_Frozen")]
    assert writers == {("_Frozen", "__init__"), ("SetFamily", "_buffer")}


def test_package_never_imports_a_process_pool():
    # every command runs in one process, at any --threads
    banned = {"multiprocessing", "concurrent"}
    assert not [hit for hit in _package_imports(at_any_depth=True)
                if hit[1] in banned]


def test_package_leaves_nothing_for_the_exit_to_run():
    # `cli.run` ends the process at os._exit, which runs no atexit handler
    # or finalizer: no logging flush, thread join, weakref callback or
    # temporary-file clean-up would happen
    banned = {"atexit", "logging", "threading", "weakref", "tempfile"}
    assert not [hit for hit in _package_imports(at_any_depth=True)
                if hit[1] in banned]
    assert not [(path.name, node.lineno)
                for path in sorted(Path(SRC, "ekrlab").glob("*.py"))
                for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, ast.FunctionDef)
                and node.name == "__del__"]


def test_mpmath_imported_first_is_reused():
    # no second copy of libmp once mpmath is loaded, and the reals of each
    # convert to the other's
    proc = _run("-c", "import sys, mpmath; from ekrlab import numerics; "
                      "mpmath.mp.dps = numerics.DEFAULT_DPS; "
                      "x = numerics.to_mpf(1) / 3; "
                      "assert numerics._libmp() is mpmath.libmp; "
                      f"assert {numerics._LIBMP!r} not in sys.modules; "
                      "assert mpmath.mpf(x) == x == mpmath.mpf(1) / 3; "
                      "assert numerics.to_mpf(mpmath.mpf(1) / 3) == x; "
                      "assert mpmath.log(x) == numerics.log(x)")
    assert proc.returncode == 0, proc.stderr


def test_unpickled_real_loads_the_real_layer():
    # a real unpickled before any real-layer call still computes
    slack = numerics.check_le(lambda: numerics.log(3), 2).slack
    expect = numerics.fmt_real(slack * 3)
    proc = _run("-c", "import pickle, sys; from ekrlab import numerics; "
                      "x = pickle.loads(bytes.fromhex(sys.argv[1])); "
                      "print(numerics.fmt_real(x * 3))",
                pickle.dumps(slack).hex())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == expect + "\n"


def test_import_without_mpmath_names_the_missing_module():
    # -S leaves site-packages, and with it mpmath, off the path
    proc = subprocess.run(
        [sys.executable, "-S", "-c",
         "try:\n    import ekrlab\n"
         "except ModuleNotFoundError as exc:\n    print(exc.name, exc)"],
        cwd=ROOT, env={"PYTHONPATH": SRC}, capture_output=True, text=True,
        timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "mpmath No module named 'mpmath'\n"


@pytest.mark.parametrize("argv", [
    ("--threads", "1", "search", "--predicate", "intersecting",
     "--n", "6", "--k", "3"),
    ("--threads", "1", "kk", "--m", "10", "--k", "3"),
    # every value these compare is rational
    ("--threads", "1", "katona", "--spec",
     '{"name":"ak_family","params":{"n":9,"k":4,"t":2,"r":1}}', "--t", "2"),
    ("--threads", "1", "katona", "--spec",
     '{"name":"t_umvirate","params":{"n":7,"t":2}}', "--t", "2",
     "--p", "1/3"),
    ("--threads", "1", "tightness", "--spec",
     '{"name":"tilde_Gi","params":{"n":6,"i":5}}', "--p", "1/4"),
    # every survivor of the threshold has eps_r = p^4, decided without reals
    ("--threads", "1", "conjecture-scan", "--conjecture", "TIntersectingSharp",
     "--ranges", '{"t":1,"n":5,"ps":["1/4","2/7"]}'),
    # the Russo check compares integer coefficient vectors
    ("russo-sweep", "--n", "3", "--random", "20", "--seed", "1",
     "--max-n", "6"),
])
def test_commands_without_reals_leave_mpmath_unloaded(argv):
    loaded = _loaded_after(*argv)
    assert "mpmath.ctx_mp" not in loaded
    assert numerics._LIBMP not in loaded


@pytest.mark.parametrize("flag, env", [
    (("--precision", "40"), {}), ((), {"EKRLAB_PRECISION": "40"})])
def test_a_precision_setting_loads_no_libmp(flag, env):
    # the bits of a precision follow from its digits without libmp
    loaded = _loaded_after(*flag, "kk", "--m", "10", "--k", "3", **env)
    assert not [m for m in loaded if "libmp" in m or "mpmath" in m]


@pytest.mark.parametrize("name", ["sweep", "search", "scan", "verify"])
def test_well_formed_command_leaves_argparse_unloaded(name, tmp_path):
    # argparse, and the gettext and locale modules it loads, only print
    # help and usage errors
    commands, _ = perfbench_workloads().build(name, 0, tmp_path, small=True)
    loaded = _loaded_after(*commands[0].argv())
    assert not {"argparse", "gettext", "locale"} & loaded


#: commands that compare reals: a root, a log-slack sweep, a theorem check
REAL_COMMANDS = [
    ("--threads", "1", "tightness", "--spec",
     '{"name":"tilde_H_tsr","params":{"n":6,"t":1,"s":2,"r":3}}',
     "--p", "1/4"),
    ("--threads", "1", "iso-sweep", "--n", "3", "--all-monotone",
     "--p", "1/3"),
    ("--threads", "1", "verify", "--theorem", "MainBiased", "--spec",
     '{"name":"t_umvirate","params":{"n":6,"t":2}}', "--p0", "1/2",
     "--p", "1/5", "--t", "2", "--eps", "1/10"),
]


def test_real_layer_loads_on_first_use():
    # libmp alone, under its private name: not the mpmath package
    for argv in REAL_COMMANDS:
        loaded = _loaded_after(*argv)
        assert numerics._LIBMP in loaded
        assert "mpmath" not in loaded
        assert "mpmath.ctx_mp" not in loaded


#: computes reals on the private libmp load, then imports mpmath and prints
#: whether mpmath gives the same values, with the modules loaded before it
PRIVATE_LOAD_PROBE = """
import json, sys
from fractions import Fraction
from ekrlab import numerics as nm
cases = [("log", lambda: nm.log(3)),
         ("log_base", lambda: nm.log_base(5, Fraction(1, 3))),
         ("power", lambda: nm.power(nm.to_mpf(Fraction(2, 7)), nm.log(2))),
         ("div", lambda: 1 / nm.to_mpf(Fraction(3, 11))),
         ("str", lambda: nm.to_mpf("1e-9") * 7 - nm.to_mpf(Fraction(1, 3))),
         ("pow_int", lambda: nm.to_mpf(Fraction(5, 3)) ** 7)]
ours = {}
for dps in (15, 30, 61):
    with nm.workdps(dps):
        for name, f in cases:
            x = f()
            ours[f"{name}@{dps}"] = (x._mpf_, nm.nstr(x, 18), nm.nstr(x, dps))
libmp = sorted(m for m in sys.modules if "libmp" in m or "mpmath" in m)
import mpmath
theirs = {}
for dps in (15, 30, 61):
    with mpmath.workdps(dps):
        mp_cases = [("log", mpmath.log(3)),
                    ("log_base", mpmath.log(5) / mpmath.log(mpmath.mpf(1) / 3)),
                    ("power", mpmath.power(mpmath.mpf(2) / 7, mpmath.log(2))),
                    ("div", 1 / (mpmath.mpf(3) / 11)),
                    ("str", mpmath.mpf("1e-9") * 7 - mpmath.mpf(1) / 3),
                    ("pow_int", (mpmath.mpf(5) / 3) ** 7)]
        for name, x in mp_cases:
            theirs[f"{name}@{dps}"] = (x._mpf_, mpmath.nstr(x, 18),
                                       mpmath.nstr(x, dps))
print(json.dumps({"modules": libmp, "same": ours == theirs,
                  "count": len(ours)}))
"""


def test_private_libmp_load_computes_as_mpmath():
    # the in-process tests reuse the mpmath.libmp that mpmath imported;
    # this one computes on the private load first
    proc = _run("-c", PRIVATE_LOAD_PROBE)
    result = json.loads(proc.stdout.splitlines()[-1])
    assert numerics._LIBMP in result["modules"]
    assert all(m.partition(".")[0] == numerics._LIBMP
               for m in result["modules"])
    assert result["count"] == 18 and result["same"]


def test_csv_loads_for_no_command():
    # the sweep writes its CSV lines itself: no field needs quoting
    assert "csv" not in _loaded_after("kk", "--m", "10", "--k", "3")
    assert "csv" not in _loaded_after("iso-sweep", "--n", "2",
                                      "--all-monotone", "--p", "1/3")
    assert "csv" not in _loaded_after("iso-sweep", "--n", "2",
                                      "--all-monotone", "--p", "1/3", "--csv")


#: the commands that ran a process pool at --threads > 1 in earlier versions
ONCE_POOLED = [
    ("iso-sweep", "--n", "3", "--all-monotone", "--p", "1/3", "--p", "2/5"),
    ("conjecture-scan", "--conjecture", "TIntersectingSharp",
     "--ranges", '{"t": 1, "n": 4, "ps": ["1/4", "1/3"]}'),
    ("russo-sweep", "--n", "3", "--random", "20", "--seed", "1",
     "--max-n", "6"),
]


def test_iso_sweep_starts_no_pool():
    # nor do the other commands that once ran a pool
    for argv in ONCE_POOLED:
        assert "multiprocessing" not in _loaded_after("--threads", "2", *argv)


@pytest.mark.parametrize("argv", ONCE_POOLED)
def test_threads_change_no_byte_from_cold_start(argv):
    seq = _run("-m", "ekrlab.cli", "--threads", "1", *argv)
    par = _run("-m", "ekrlab.cli", "--threads", "2", *argv)
    assert seq.returncode == par.returncode == 0
    assert json.loads(seq.stdout)["header"]["inputs"]["threads"] == "1"
    # byte-identical apart from the echoed --threads input
    assert seq.stdout.replace('"threads": "1"', '"threads": "2"') == par.stdout


def test_iso_sweep_keeps_the_precision_at_any_threads():
    # at 15 digits the slack of an equality case rounds differently from
    # the default 30, so a run at the wrong precision shows in the CSV
    argv = ["iso-sweep", "--n", "3", "--all-monotone", "--p", "1/3", "--csv"]
    out = {}
    for threads in ("1", "2"):
        proc = _run("-m", "ekrlab.cli", "--precision", "15",
                    "--threads", threads, *argv)
        assert proc.returncode == 0
        out[threads] = proc.stdout
    assert len(out["1"].splitlines()) == 1 + 20
    assert out["1"] == out["2"]
    assert out["1"] != _run("-m", "ekrlab.cli", *argv).stdout


#: `cli.main` ended by sys.exit: the process exit with the interpreter's
#: teardown, which `python -m ekrlab.cli` (`cli.run`) skips
TEARDOWN = ("-c", "import sys; from ekrlab.cli import main; "
                  "sys.exit(main(sys.argv[1:]))")

#: (exit code, argv): each code, a usage error found by the command and one
#: found by argparse, and a 124 KB output
EXIT_COMMANDS = [
    (0, ("--threads", "1", "kk", "--m", "10", "--k", "3")),
    # family 1's exact tie counts as a violation at tau = 0
    (1, ("--tau", "0", "iso-sweep", "--n", "5", "--all-monotone",
         "--p", "1/3", "--csv")),
    (2, ("kk", "--m", "5", "--k", "0")),
    (2, ("kk", "--k", "0")),
    (0, ("construct", "--spec",
         '{"name":"tilde_F_ts","params":{"n":12,"t":2,"s":2}}')),
]


@pytest.mark.parametrize("code, argv", EXIT_COMMANDS)
def test_run_ends_as_the_teardown_exit_does(code, argv, tmp_path):
    # stdout bytes, stderr and exit code are those of the normal exit,
    # with stdout a pipe and a file
    for to_file in (False, True):
        seen = []
        for i, entry in enumerate((("-m", "ekrlab.cli"), TEARDOWN)):
            path = tmp_path / f"{i}.out"
            with open(path, "wb") as out:
                proc = subprocess.run(
                    [sys.executable, *entry, *argv], cwd=ROOT, env=_env(),
                    stdout=out if to_file else subprocess.PIPE,
                    stderr=subprocess.PIPE, timeout=120)
            stdout = path.read_bytes() if to_file else proc.stdout
            seen.append((proc.returncode, stdout, proc.stderr))
        assert seen[0][0] == code
        assert seen[0] == seen[1]
    assert b"Traceback" not in seen[0][2]
    assert bool(seen[0][1]) == (code != 2)


@pytest.mark.parametrize("code, argv", [EXIT_COMMANDS[1], EXIT_COMMANDS[-1]])
def test_a_reader_that_leaves_early_changes_no_code(code, argv):
    # as `| head -c 20`: each output is more than a pipe holds, so the
    # command is still writing when the reader goes
    proc = subprocess.Popen([sys.executable, "-m", "ekrlab.cli", *argv],
                            cwd=ROOT, env=_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    assert len(proc.stdout.read(20)) == 20
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == code
    assert err == b""


def test_closed_stdout_is_a_usage_error():
    # with fd 1 closed at start-up sys.stdout is None: a file that cannot
    # be written, so one error line and exit 2, not a traceback
    for entry in (("-m", "ekrlab.cli"), TEARDOWN):
        proc = subprocess.run(
            ["sh", "-c", 'exec "$@" >&-', "sh", sys.executable, *entry,
             "kk", "--m", "5", "--k", "3"],
            cwd=ROOT, env=_env(), stderr=subprocess.PIPE, text=True,
            timeout=120)
        assert proc.returncode == 2, proc.stderr
        assert "error" in json.loads(proc.stderr)

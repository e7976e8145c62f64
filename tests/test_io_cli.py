import contextlib
import csv
import hashlib
import io
import itertools
import json
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ekrlab
from ekrlab import UniformFamily, cli, load_family, measures, numerics
from ekrlab.cli import ISO_COLUMNS, main
from ekrlab.io import (family_to_dict, set_family_from_dict,
                       uniform_family_from_dict)
from ekrlab.search import MONOTONE_COUNTS
from ekrlab.zoo import tilde_gi

from conftest import (iso_rows, numerics_state, perfbench_gate,
                      perfbench_workloads)


def test_family_json_roundtrip(tmp_path):
    fam = tilde_gi(4, 3)
    d = family_to_dict(fam)
    assert set_family_from_dict(d) == fam
    d = {"n": fam.n, "masks_hex": [hex(m) for m in fam]}
    assert set_family_from_dict(d) == fam
    path = tmp_path / "fam.json"
    path.write_text(json.dumps(family_to_dict(fam)))
    assert load_family(path) == fam


def test_uniform_family_json():
    fam = UniformFamily.from_sets(5, 2, [[1, 2], [1, 3]])
    d = family_to_dict(fam)
    assert uniform_family_from_dict(d) == fam
    with pytest.raises(ValueError):
        uniform_family_from_dict({"n": 5, "sets": [[1, 2], [1, 2, 3]]})


def test_family_json_validation():
    with pytest.raises(ValueError):
        set_family_from_dict({"n": 3, "sets": [[2, 1]]})  # not increasing
    with pytest.raises(ValueError):
        set_family_from_dict({"n": 3})  # neither form
    with pytest.raises(ValueError):
        set_family_from_dict({"n": 3, "sets": [[1]], "masks_hex": ["0x1"]})


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_cli_verify_tightness_example(capsys):
    code, out = run_cli(capsys, "verify", "--theorem", "biased1",
                        "--spec", '{"name":"tilde_Gi","params":{"n":3,"i":3}}',
                        "--p", "1/4", "--eps", "1/16")
    assert code == 0
    payload = json.loads(out)
    assert payload["report"]["conclusion_holds"] is True
    assert payload["report"]["slacks"]["conclusion_residual"] == "3/64"
    assert payload["header"]["tau"] == "1/1000000000000"


@pytest.mark.parametrize("argv", [
    ("--predicate", "t-intersecting", "--t", "0"),
    ("--predicate", "matching", "--s", "0"),
])
def test_cli_search_rejects_parameter_below_one(capsys, argv):
    code = main(["search", *argv, "--n", "5", "--k", "2"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "t >= 1" in json.loads(captured.err)["error"]


def test_cli_search(capsys):
    code, out = run_cli(capsys, "search", "--predicate", "t-intersecting",
                        "--t", "2", "--n", "6", "--k", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["certificate"]["optimum"] == 4
    assert payload["certificate"]["complete"] is True


def test_cli_measure_and_influence(capsys):
    spec = '{"name":"tilde_Gi","params":{"n":3,"i":3}}'
    code, out = run_cli(capsys, "measure", "--spec", spec, "--p", "1/4",
                        "--polynomial")
    assert code == 0
    payload = json.loads(out)
    assert payload["mu"] == "5/32"
    assert payload["polynomial"] == ["0/1", "0/1", "3/1", "-2/1"]

    code, out = run_cli(capsys, "influence", "--spec", spec, "--p", "1/2")
    payload = json.loads(out)
    assert payload["total"] == "3/2"


def test_cli_iso_sweep_deterministic(capsys):
    args = ("--threads", "1", "iso-sweep", "--n", "3", "--all-monotone",
            "--p", "1/2", "--csv")
    code1, out1 = run_cli(capsys, *args)
    code2, out2 = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    header = out1.splitlines()[0]
    assert header == "family_id,p_num,p_den,mu,total_influence,iso_slack,log_p_mu"
    assert len(out1.splitlines()) == 1 + 20  # 20 monotone families on [3]


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("ps", [["2/1"], ["0"], ["1"], ["-1/2"], ["1/2", "1"]])
def test_cli_iso_sweep_bias_outside_unit_interval(capsys, threads, ps):
    argv = ["--threads", threads, "iso-sweep", "--n", "2", "--all-monotone",
            "--csv"]
    argv += [f"--p={p}" for p in ps]
    err = _usage_error(capsys, *argv)
    assert err.startswith("p must lie strictly between 0 and 1")


GI_SPEC = '{"name":"tilde_Gi","params":{"n":5,"i":3}}'


def _spec(name, **params) -> str:
    return json.dumps({"name": name, "params": params}, separators=(",", ":"))


AK_8_3 = _spec("ak_family", n=8, k=3, t=1, r=0)
UMV_4_2 = _spec("t_umvirate", n=4, t=2)


@pytest.mark.parametrize("argv, message", [
    # 0/1 and 1/1 once exited 0 with the chain reported as holding
    *[(("tightness", "--spec", GI_SPEC, "--p", p),
       "p must lie strictly between 0 and 1") for p in ("0/1", "1/1", "3/2")],
    # once itertools' "r must be non-negative"
    (("shadow", "--variant", "upper", "--family", '{"n":4,"sets":[[1,2]]}',
      "--s", "-1"), "s must be nonnegative"),
    # refusals that no other test reaches
    (("shadow", "--spec", AK_8_3, "--s", "4"), "need 0 <= s <= k"),
    (("shadow", "--spec", AK_8_3, "--variant", "upper", "--s", "6"),
     "k + s exceeds the ground size"),
    (("shadow", "--spec", UMV_4_2, "--variant", "increasing", "--s", "-1"),
     "s must be nonnegative"),
    (("kk", "--m", "-1", "--k", "3"), "need m >= 0 and k >= 1"),
    (("kk", "--m", "5", "--k", "3", "--s", "4"), "need 0 <= s <= k, got s=4, k=3"),
    (("katona", "--spec", AK_8_3, "--t", "0"), "t must be >= 1"),
    (("katona", "--spec", AK_8_3, "--t", "4"), "t exceeds the uniformity"),
    (("katona", "--spec", UMV_4_2, "--t", "1", "--p", "3/2"), "need 0 < p < 1"),
    (("katona", "--family", '{"n":3,"sets":[[1]]}', "--t", "1", "--p", "1/3"),
     "biased variant requires an increasing family"),
    (("katona", "--spec", _spec("or_family", n=4, s=2), "--t", "1",
      "--p", "1/3"), "family is not t-intersecting"),
    (("measure", "--p", "1/2"), "provide --family FILE/JSON or --spec ZOO-JSON"),
    (("iso-sweep", "--n", "2", "--p", "1/2"),
     "iso-sweep currently drives --all-monotone grounds"),
    (("search", "--predicate", "t-intersecting", "--n", "5", "--k", "3"),
     "t-intersecting search needs --t"),
    (("search", "--predicate", "matching", "--n", "5", "--k", "3"),
     "matching search needs --s"),
    (("conjecture-scan", "--conjecture", "WilsonSharp", "--ranges",
      '{"n":5,"k":3,"t":1,"d_max":1}'), "conjecture needs n >= (t+1)(k-t+1)"),
    (("conjecture-scan", "--conjecture", "EMCStability", "--ranges",
      '{"n":5,"k":3,"s":1,"d":1}'), "conjecture needs n >= (s+1)k"),
])
def test_cli_argument_out_of_range_exit_two(capsys, argv, message):
    assert _usage_error(capsys, *argv).startswith(message)


@pytest.mark.parametrize("perm, entry", [
    ("1,2,3,4,x", "'x'"), ("1,2,3,4,5,", "''"), ("", "''")])
def test_cli_construct_perm_entry_not_an_integer(capsys, perm, entry):
    # once int()'s "invalid literal for int() with base 10: 'x'", which
    # names neither the option nor the entry
    err = _usage_error(capsys, "construct", "--spec", GI_SPEC, "--perm", perm)
    assert err == f"--perm entry {entry} is not an integer"


@pytest.mark.parametrize("argv", [
    ("search", "--predicate", "intersecting", "--n", "5", "--k", "2",
     "--budget", "-5"),
    ("search", "--predicate", "intersecting", "--n", "5", "--k", "2",
     "--budget", "0"),
    ("conjecture-scan", "--conjecture", "WilsonSharp", "--ranges",
     '{"n":6,"k":3,"t":1,"d_max":2}', "--budget", "-1"),
    ("conjecture-scan", "--conjecture", "TIntersectingSharp", "--ranges",
     '{"t":1,"n":4,"ps":["1/4"]}', "--budget", "0"),
])
def test_cli_budget_below_one_exit_two(capsys, argv):
    assert "budget" in _usage_error(capsys, *argv)


def test_cli_russo_sweep(capsys):
    code, out = run_cli(capsys, "russo-sweep", "--n", "3", "--random", "50",
                        "--seed", "5", "--max-n", "8")
    assert code == 0
    payload = json.loads(out)
    assert payload["violations"] == 0
    assert payload["checked"] == 20 + 50


@pytest.mark.parametrize("argv, name", [
    (("--random", "-5"), "random family count"),
    (("--random", "5", "--max-n", "0"), "max_n"),
    (("--random", "3", "--max-n", "31"), "max_n"),
    (("--random", "3", "--max-n", "40"), "max_n"),
])
def test_cli_russo_sweep_bad_counts_exit_two(capsys, argv, name):
    # once a negative count checked nothing and exited 0, and a zero ground
    # bound leaked random.randrange's message; a bound above the dense cap
    # was accepted or refused by the random draws (seed 0 draws no ground
    # above 30 at 31, one of 32 at 40), the refusal naming no option
    err = _usage_error(capsys, "russo-sweep", "--n", "2", *argv)
    assert name in err and "randrange" not in err


@pytest.mark.parametrize("argv", [
    ("--predicate", "intersecting", "--n", "5", "--k", "0"),
    ("--predicate", "t-intersecting", "--n", "5", "--k", "1", "--t", "2"),
])
def test_cli_search_k_below_t_exit_two(capsys, argv):
    # no k-set is t-intersecting with itself when k < t; the search once
    # returned a single set and failed its own re-verification
    assert "k >= t" in _usage_error(capsys, "search", *argv)


def test_cli_construct_and_shadow(capsys, tmp_path):
    spec = '{"name":"t_umvirate","params":{"n":4,"t":2}}'
    code, out = run_cli(capsys, "construct", "--spec", spec)
    assert code == 0
    fam_json = json.dumps(json.loads(out)["family"])

    path = tmp_path / "fam.json"
    path.write_text(fam_json)
    code, out = run_cli(capsys, "shadow", "--family", str(path),
                        "--variant", "increasing", "--s", "1")
    assert code == 0
    payload = json.loads(out)
    got = set(map(tuple, payload["family"]["sets"]))
    assert got == {(1,), (2,)} | {tuple(sorted(s)) for s in
                                  [[1, 2], [1, 3], [1, 4], [2, 3], [2, 4],
                                   [1, 2, 3], [1, 2, 4], [1, 3, 4], [2, 3, 4],
                                   [1, 2, 3, 4]]}


def test_cli_kk_and_katona(capsys):
    code, out = run_cli(capsys, "kk", "--m", "5", "--k", "3")
    payload = json.loads(out)
    assert code == 0 and payload["min_shadow"] == 8

    spec = '{"name":"t_umvirate","params":{"n":5,"t":2}}'
    code, out = run_cli(capsys, "katona", "--spec", spec, "--t", "2",
                        "--p", "1/3")
    assert code == 0


def test_cli_threads_default_is_not_the_host_cpu_count(capsys, monkeypatch):
    # the header echoes --threads, so a host-dependent default would make
    # the same command print different bytes on different machines
    monkeypatch.setattr(os, "cpu_count", lambda: 7)
    code, out = run_cli(capsys, "kk", "--m", "10", "--k", "3")
    assert code == 0
    assert json.loads(out)["header"]["inputs"]["threads"] == "1"


def test_cli_tightness_and_scan(capsys):
    code, out = run_cli(capsys, "tightness",
                        "--spec", '{"name":"tilde_Gi","params":{"n":6,"i":4}}',
                        "--p", "1/3")
    assert code == 0

    code, out = run_cli(capsys, "conjecture-scan", "--conjecture",
                        "EMCStability", "--ranges",
                        '{"n":9,"k":2,"s":2,"d":1}')
    assert code == 0
    payload = json.loads(out)
    assert payload["report"]["candidates"] == []


def test_benchmark_tightness_commands_match_the_reference(
        capsys, tmp_path, monkeypatch):
    # the fourteen short commands of the `verify` workload (`measure`,
    # `influence`, `tightness`, `katona`, `kk`, `construct` and `shadow`) in
    # every input variant, replayed in process in the variant's directory,
    # where its family files are: a byte that drifts from the benchmark's
    # recorded output shows here before a benchmark run does.  The four
    # `verify` commands take seconds each and stay with the benchmark.
    monkeypatch.delenv("EKRLAB_PRECISION", raising=False)
    workloads, gate = perfbench_workloads(), perfbench_gate()
    root = Path(__file__).resolve().parents[1]
    reference = json.loads(
        (root / "perfbench" / "reference.json").read_text())["verify"]
    replayed = 0
    for seed in range(workloads.VARIANTS):
        workdir = tmp_path / str(seed)
        commands, variant = workloads.build("verify", seed, workdir)
        monkeypatch.chdir(workdir)
        for command in commands:
            if command.args[0] != "verify":
                code = main(command.argv())
                expect = reference[variant][command.key()]
                assert code == expect["rc"], command.key()
                assert gate.digest(capsys.readouterr().out) == \
                    expect["digest"], command.key()
                replayed += 1
    assert replayed == 224


def test_benchmark_search_commands_match_the_reference(capsys, tmp_path):
    # the five commands of the `search` workload at both of its input sets
    # (`small`, its warm-up, and `fixed`), replayed in process against the
    # exit codes and digests in `perfbench/reference.json`: the optimum,
    # witness and counters each prints are pinned byte for byte
    workloads, gate = perfbench_workloads(), perfbench_gate()
    root = Path(__file__).resolve().parents[1]
    reference = json.loads(
        (root / "perfbench" / "reference.json").read_text())["search"]
    replayed = 0
    for small in (True, False):
        commands, variant = workloads.build("search", 0, tmp_path, small)
        for command in commands:
            code = main(command.argv())
            expect = reference[variant][command.key()]
            assert code == expect["rc"], command.key()
            assert gate.digest(capsys.readouterr().out) == expect["digest"], \
                command.key()
            replayed += 1
    assert replayed == 10


def test_benchmark_scan_commands_match_the_reference(capsys, tmp_path):
    # the four commands of the `scan` workload in every input variant and
    # in `small`, its warm-up, replayed in process against the exit codes
    # and digests in `perfbench/reference.json`: each report is pinned byte
    # for byte
    workloads, gate = perfbench_workloads(), perfbench_gate()
    root = Path(__file__).resolve().parents[1]
    reference = json.loads(
        (root / "perfbench" / "reference.json").read_text())["scan"]
    replayed = 0
    runs = [(seed, False) for seed in range(workloads.VARIANTS)]
    for seed, small in runs + [(0, True)]:
        commands, variant = workloads.build("scan", seed, tmp_path, small)
        for command in commands:
            code = main(command.argv())
            expect = reference[variant][command.key()]
            assert code == expect["rc"], command.key()
            assert gate.digest(capsys.readouterr().out) == expect["digest"], \
                command.key()
            replayed += 1
    assert replayed == 4 * (workloads.VARIANTS + 1)


def test_benchmark_sweep_commands_match_the_reference(capsys, tmp_path):
    # the three commands of the `sweep` workload (one `iso-sweep --csv`, two
    # `russo-sweep`s) in every input variant and in `small`, its warm-up,
    # replayed in process against the exit codes and digests in
    # `perfbench/reference.json`: the streamed CSV and the sweep counts are
    # pinned byte for byte
    workloads, gate = perfbench_workloads(), perfbench_gate()
    root = Path(__file__).resolve().parents[1]
    reference = json.loads(
        (root / "perfbench" / "reference.json").read_text())["sweep"]
    replayed = 0
    runs = [(seed, False) for seed in range(workloads.VARIANTS)]
    for seed, small in runs + [(0, True)]:
        commands, variant = workloads.build("sweep", seed, tmp_path, small)
        for command in commands:
            code = main(command.argv())
            expect = reference[variant][command.key()]
            assert code == expect["rc"], command.key()
            assert gate.digest(capsys.readouterr().out) == expect["digest"], \
                command.key()
            replayed += 1
    assert replayed == 3 * (workloads.VARIANTS + 1) == 51


class _CountingOut:
    """A stdout that keeps only the number of characters written to it."""

    def __init__(self):
        self.chars = 0

    def write(self, text):
        self.chars += len(text)
        return len(text)

    def flush(self):
        pass


def test_iso_sweep_csv_streams(monkeypatch):
    # 7,581 families on [5] at eight biases: the CSV is written row by row
    # as it is made, so the sweep's traced peak is a small fraction of the
    # text it writes (holding the rows and a copy of the text took several
    # times its length)
    argv = ["iso-sweep", "--n", "5", "--all-monotone", "--csv"]
    for p in ("1/9", "1/5", "2/7", "1/3", "1/2", "3/5", "5/7", "7/8"):
        argv += ["--p", p]
    monkeypatch.setattr(sys, "stdout", _CountingOut())
    assert main(argv) == 0  # loads the real layer before tracing starts
    out = _CountingOut()
    monkeypatch.setattr(sys, "stdout", out)
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.chars == 4_109_495  # 60,649 lines
    assert peak < out.chars / 4


def test_iso_sweep_json_streams(monkeypatch):
    # the JSON form writes each family's rows into the payload's text in
    # their place, so its traced peak is a small fraction of the text too
    # (one dict per row and the whole text took several times its length)
    argv = ["iso-sweep", "--n", "5", "--all-monotone"]
    for p in ("1/9", "1/5", "2/7", "1/3", "1/2", "3/5", "5/7", "7/8"):
        argv += ["--p", p]
    monkeypatch.setattr(sys, "stdout", _CountingOut())
    assert main(argv) == 0  # loads the real layer before tracing starts
    out = _CountingOut()
    monkeypatch.setattr(sys, "stdout", out)
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.chars == 13_207_037  # 60,648 row objects
    assert peak < out.chars / 4


#: one to four biases a/b in (0, 1), b up to 40
_BIASES = st.lists(st.integers(2, 40).flatmap(
    lambda b: st.integers(1, b - 1).map(lambda a: f"{a}/{b}")),
    min_size=1, max_size=4)


def _stdout_of(argv) -> tuple[int, str]:
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = main(argv)
    return code, out.getvalue()


@settings(max_examples=30, deadline=None)
@given(n=st.integers(0, 4), ps=_BIASES,
       tau=st.sampled_from([[], ["--tau", "0"]]))
def test_iso_sweep_output_matches_the_row_writers(n, ps, tau):
    # both forms against the writers they replaced: `csv.writer` over each
    # row of the returned table, and `json.dumps` of one dict per row
    argv = [*tau, "iso-sweep", "--n", str(n), "--all-monotone"]
    argv += [f"--p={p}" for p in ps]
    with numerics.settings(tol=tau[-1] if tau else None):
        profile_of, fields, violations = measures.iso_sweep(
            n, [Fraction(p) for p in ps])
    code, text = _stdout_of(argv + ["--csv"])
    json_code, json_text = _stdout_of(argv)
    rows = list(iso_rows(profile_of, fields))
    assert code == (1 if violations else 0)
    expect = io.StringIO()
    writer = csv.writer(expect, lineterminator="\n")
    writer.writerow(ISO_COLUMNS)
    writer.writerows(rows)
    assert text == expect.getvalue()
    assert json_code == code
    payload = {"count": MONOTONE_COUNTS[n],
               "header": json.loads(json_text)["header"],
               "rows": [dict(zip(ISO_COLUMNS, r)) for r in rows],
               "violations": violations}
    assert json_text == json.dumps(payload, sort_keys=True, indent=2) + "\n"


def test_t_intersecting_sharp_reports_a_candidate(capsys, monkeypatch):
    # no family of the test ranges violates the sharp form, so the report
    # path of a candidate is driven by a planted one: every family that
    # clears the measure threshold and is not an umvirate reaches the
    # condition check, which here always reports eps = 0.00123
    from ekrlab import verify

    monkeypatch.setattr(verify, "_condition_beats_mu",
                        lambda *args: "0.00123")
    code, out = run_cli(capsys, "conjecture-scan", "--conjecture",
                        "TIntersectingSharp", "--ranges",
                        '{"t":1,"n":5,"ps":["1/4"]}')
    rep = json.loads(out)["report"]
    assert code == 1 and rep["complete"] is True
    assert rep["families_examined"] == 2646 and len(rep["candidates"]) == 5
    for cand in rep["candidates"]:
        assert set(cand) == {"family", "p", "eps", "note"}
        assert (cand["p"], cand["eps"], cand["note"]) == (
            "1/4", "0.00123", "condition holds while conclusion fails")
        fam = ekrlab.SetFamily.from_sets(5, cand["family"])
        assert ekrlab.is_t_intersecting(fam, 1) and fam.is_increasing()
        # no dictatorship holds it: the residual is not 0
        assert all(any(x not in b for b in cand["family"])
                   for x in range(1, 6))
    assert rep["candidates"][0]["family"][-2:] == [[2, 3, 4, 5],
                                                   [1, 2, 3, 4, 5]]


def test_wilson_sharp_budget_stops_the_scan(capsys):
    code, out = run_cli(capsys, "conjecture-scan", "--conjecture",
                        "WilsonSharp", "--ranges",
                        '{"n":7,"k":3,"t":1,"d_max":1}', "--budget", "50")
    rep = json.loads(out)["report"]
    assert code == 1 and rep["complete"] is False
    assert rep["notes"][-1] == "budget exhausted; scan incomplete"
    assert rep["families_examined"] == 1 and rep["candidates"] == []


def test_cli_usage_errors(capsys):
    # floats are rejected for rationals
    code = main(["measure", "--spec",
                 '{"name":"dictatorship","params":{"n":3}}', "--p", "0.25"])
    assert code == 2
    # malformed family JSON
    code = main(["measure", "--family", '{"n": 3}', "--p", "1/4"])
    assert code == 2
    # unknown theorem
    code = main(["verify", "--theorem", "nope", "--spec",
                 '{"name":"dictatorship","params":{"n":3}}', "--p", "1/4",
                 "--eps", "1/8"])
    assert code == 2


def test_cli_exit_one_on_failed_verification(capsys):
    # an intersecting family that beats tilde_G_i in measure but is NOT close
    # to a dictatorship cannot exist (Frankl); instead force exit 1 via a
    # conjecture scan with an impossible budget marker
    code, _ = run_cli(capsys, "conjecture-scan", "--conjecture",
                      "TIntersectingSharp", "--ranges",
                      '{"t":1,"n":4,"ps":["1/4"]}', "--budget", "3")
    assert code == 1  # incomplete scan exits nonzero


def test_cli_tau_override(capsys):
    code, out = run_cli(capsys, "--tau", "1/1000000", "kk", "--m", "3", "--k", "2")
    assert code == 0
    assert json.loads(out)["header"]["tau"] == "1/1000000"


def test_cli_tau_does_not_leak(capsys):
    run_cli(capsys, "--tau", "1/1000000", "kk", "--m", "3", "--k", "2")
    code, out = run_cli(capsys, "kk", "--m", "3", "--k", "2")
    assert json.loads(out)["header"]["tau"] == "1/1000000000000"


def test_cli_iso_sweep_threads_match(capsys):
    base = ("iso-sweep", "--n", "4", "--all-monotone", "--p", "1/4", "--csv")
    _, seq = run_cli(capsys, "--threads", "1", *base)
    _, par = run_cli(capsys, "--threads", "2", *base)
    assert seq == par
    assert len(seq.splitlines()) == 1 + 168


@pytest.mark.parametrize("argv, code", [
    (("iso-sweep", "--n", "4", "--all-monotone", "--p", "1/4"), 0),
    (("iso-sweep", "--n", "4", "--all-monotone", "--p", "1/4", "--csv"), 0),
    (("search", "--predicate", "intersecting", "--n", "6", "--k", "3",
      "--budget", "10"), 1),
])
def test_cli_closed_stdout_keeps_the_exit_code(argv, code):
    # `ekrlab ... | head -1`: the reader goes before the output is written
    src = str(Path(ekrlab.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if not k.startswith("EKRLAB_")}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "ekrlab.cli", "--threads", "1", *argv],
            stdout=write_end, stderr=subprocess.PIPE, env=env, text=True,
            timeout=120)
    finally:
        os.close(write_end)
    assert proc.returncode == code
    assert proc.stderr == ""


def test_cli_verify_byte_identical(capsys):
    args = ("verify", "--theorem", "MainBiased",
            "--spec", '{"name":"t_umvirate","params":{"n":5,"t":2}}',
            "--p0", "1/2", "--p", "1/4", "--t", "2", "--eps", "1/100")
    _, out1 = run_cli(capsys, *args)
    _, out2 = run_cli(capsys, *args)
    assert out1 == out2 and json.loads(out1)["report"]["conclusion_holds"]


def test_cli_shadow_lower_and_upper(capsys, tmp_path):
    fam = json.dumps({"n": 4, "sets": [[1, 2, 3]]})
    path = tmp_path / "u.json"
    path.write_text(fam)
    code, out = run_cli(capsys, "shadow", "--family", str(path),
                        "--variant", "lower")
    assert code == 0
    assert json.loads(out)["family"]["sets"] == [[1, 2], [1, 3], [2, 3]]
    code, out = run_cli(capsys, "shadow", "--family", str(path),
                        "--variant", "upper")
    assert json.loads(out)["family"]["sets"] == [[1, 2, 3, 4]]


def test_cli_family_masks_hex_form(capsys):
    fam = '{"n": 3, "masks_hex": ["0x3", "0x5", "0x6", "0x7"]}'
    code, out = run_cli(capsys, "measure", "--family", fam, "--p", "1/4")
    assert code == 0
    assert json.loads(out)["mu"] == "5/32"


def test_cli_verify_with_constants(capsys):
    code, out = run_cli(capsys, "verify", "--theorem", "Biased1",
                        "--spec", '{"name":"tilde_Gi","params":{"n":3,"i":3}}',
                        "--p", "1/4", "--eps", "1/16", "--C", "2", "--c", "1/100")
    assert code == 0
    rep = json.loads(out)["report"]
    assert all(h["status"] != "unresolved" for h in rep["hypotheses"])


def test_cli_verify_constants_refined_with_precision(capsys):
    # C p^2 = 11/48 exactly; C and c must gain digits with the working
    # precision, not enter the closure already rounded to a double
    code, out = run_cli(capsys, "verify", "--theorem", "Biased1",
                        "--spec", '{"name":"dictatorship","params":{"n":3}}',
                        "--p", "1/4", "--eps", "1/10", "--C", "16/3",
                        "--c", "1/3")
    assert code == 0
    flag = json.loads(out)["report"]["hypotheses"][1]
    assert flag["name"].startswith("mu_p(F) >= min{C p^2")
    assert flag["lhs"] == "0.229166666666666667"


def test_cli_triangle_biased_from_file(capsys, tmp_path):
    from ekrlab.zoo import triangle_umvirate

    path = tmp_path / "tri.json"
    path.write_text(json.dumps(family_to_dict(triangle_umvirate(4))))
    code, out = run_cli(capsys, "verify", "--theorem", "TriangleBiased",
                        "--family", str(path), "--v", "4",
                        "--p", "1/4", "--eps", "1/20")
    assert code == 0
    assert json.loads(out)["report"]["conclusion_holds"] is True
    # without --v the edge structure is unknown
    err = _usage_error(capsys, "verify", "--theorem", "TriangleBiased",
                       "--family", str(path), "--p", "1/4", "--eps", "1/20")
    assert err == ("TriangleBiased needs --v (vertex count) when the family "
                   "comes from a file")


def test_cli_precision_env(capsys, monkeypatch):
    monkeypatch.setenv("EKRLAB_PRECISION", "45")
    code, out = run_cli(capsys, "kk", "--m", "3", "--k", "2")
    assert json.loads(out)["header"]["precision_dps"] == 45


@pytest.mark.parametrize("dps", [30, 60])
def test_matching_remark_computed_at_the_command_precision(capsys, dps):
    # (c delta)^{log_{1-s p1} p1} at p1 = k/n = 1/3, s = 1 and c delta = 1/15
    # is computed at the precision the header reports: it once ran at 53
    # bits and printed 0.000650679993905084464 at every --precision
    code, out = run_cli(
        capsys, "--precision", str(dps), "verify", "--theorem",
        "MatchingUniform", "--spec",
        '{"name":"conj_H","params":{"n":9,"k":3,"s":1,"d":1}}', "--s", "1",
        "--eps", "1/2", "--c", "1/3", "--delta", "1/5")
    assert code == 0
    payload = json.loads(out)
    assert payload["header"]["precision_dps"] == dps
    with mpmath.workdps(dps):
        expect = mpmath.nstr(
            mpmath.power(mpmath.mpf(1) / 15, mpmath.log(mpmath.mpf(1) / 3)
                         / mpmath.log(mpmath.mpf(2) / 3)),
            18, strip_zeros=False)
    assert expect == "0.000650679993905084012"
    slacks = payload["report"]["slacks"]
    assert slacks["remark_epsilon(c delta)^{log_{1-s p1} p1}"] == expect


def _usage_error(capsys, *argv) -> str:
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    return json.loads(captured.err)["error"]


KK = ("kk", "--m", "3", "--k", "2")


@pytest.mark.parametrize("flags, name", [
    (("--tau", "abc"), "--tau"), (("--tau", "0.5"), "--tau"),
    (("--tau", "1/0"), "--tau"), (("--tau=-1/2",), "--tau"),
    (("--precision", "5"), "--precision"),
    (("--threads", "0"), "--threads"), (("--threads", "-3"), "--threads"),
])
def test_cli_bad_global_flag_named(capsys, flags, name):
    assert name in _usage_error(capsys, *flags, *KK)


@pytest.mark.parametrize("value", ["abc", "5"])
def test_cli_bad_precision_env_named(capsys, monkeypatch, value):
    monkeypatch.setenv("EKRLAB_PRECISION", value)
    assert "EKRLAB_PRECISION" in _usage_error(capsys, *KK)


def test_cli_precision_flag_overrides_a_bad_env(capsys, monkeypatch):
    # with --precision given, EKRLAB_PRECISION is never read
    monkeypatch.setenv("EKRLAB_PRECISION", "abc")
    code, out = run_cli(capsys, "--precision", "40", *KK)
    assert code == 0
    assert json.loads(out)["header"]["precision_dps"] == 40


def test_cli_header_kernel_backend(capsys):
    code, out = run_cli(capsys, *KK)
    assert code == 0
    assert json.loads(out)["header"]["kernel_backend"] == "pure"


#: argv -> sha256 of the whole stdout, header included, one row per
#: subcommand and one with both global flags
STDOUT_PINS = [
    pytest.param(argv, digest, id=name) for name, argv, digest in (
        ("measure", ("measure", "--spec", _spec("t_umvirate", n=4, t=2),
                     "--p", "1/3", "--polynomial"),
         "fc35cdcc616627ac72bc39b3126f08ecc48755baca8fb3805389d15b8a3b055e"),
        ("influence", ("influence", "--spec", _spec("or_family", n=4, s=2),
                       "--p", "1/3"),
         "19a1c5d21caef7d5041b5a42220953ace33c3471ada37f2af4c60fa6b30da791"),
        ("shadow", ("shadow", "--spec", _spec("F_ts", n=6, k=3, t=2, s=1),
                    "--variant", "lower", "--s", "2"),
         "76b1763fac3209ecb809979cc97003180a12c62a0322a444635819d5d4c7c17a"),
        ("construct", ("construct", "--spec", GI_SPEC, "--perm", "5,4,3,2,1"),
         "71a7faad7f43d14056ea0610c4169b50187fc9858b8a049f2cc0fbfece7f375d"),
        ("iso-sweep", ("iso-sweep", "--n", "2", "--all-monotone",
                       "--p", "1/3", "--p", "1/2"),
         "ff452a957618be6fc02d951df9859ee414cee1eafa21cf5a330064fb1ecfda2e"),
        ("russo-sweep", ("russo-sweep", "--n", "2", "--random", "3",
                         "--seed", "1", "--max-n", "4"),
         "213b5aa809de7b0fa8456f69aeeb56dd51829c8a64423786c8b85916b2ad920f"),
        ("verify", ("verify", "--theorem", "MainBiased", "--spec",
                    _spec("t_umvirate", n=5, t=2), "--p0", "1/2",
                    "--p", "1/4", "--t", "2", "--eps", "1/10"),
         "75e8c278bc4938f2408a8fb1fbe6578a09d28db8492f1f4427e4acd336e33956"),
        ("tightness", ("tightness", "--spec", GI_SPEC, "--p", "1/3"),
         "1cd61461adb28ba62952f467ba30710e1fc5ad0db1dae6faf0c6f204f9810125"),
        ("search", ("search", "--predicate", "t-intersecting", "--t", "2",
                    "--n", "5", "--k", "3"),
         "d1974154a4bebf9337d1c85647513ca395d3248592a9e7597774171ea4b42afe"),
        ("conjecture-scan", ("conjecture-scan", "--conjecture", "WilsonSharp",
                             "--ranges", '{"n":6,"k":3,"t":1,"d_max":2}'),
         "b56c09681465c7fb69b638207bdf9e57565fca49f13bb55046b6b24d8f8e56fd"),
        ("katona", ("katona", "--spec", _spec("ak_family", n=6, k=3, t=2, r=1),
                    "--t", "2"),
         "f8175d033273c298c56dede5e9295fb178be2357a0829dc7adb1a6d718a0ea4f"),
        ("kk", ("kk", "--m", "7", "--k", "3", "--s", "2"),
         "9acc1ba76ecc591055bda09d1d6ce75881ab5d284947e56fdcfff96c12f4e382"),
        ("global-flags", ("--precision", "45", "--tau", "1/1000", "tightness",
                          "--spec", _spec("tilde_H_tsr", n=6, t=1, s=2, r=3),
                          "--p", "1/4"),
         "8c6b76c5c7f7143ac49eb2876608810bff29c45e69b34c45cb2ba99bbc8d9128"),
    )]


@pytest.mark.parametrize("argv, digest", STDOUT_PINS)
def test_cli_stdout_bytes_pinned(capsys, monkeypatch, argv, digest):
    # the benchmark digests and the replays drop the header; these pin it
    # with the rest of stdout
    monkeypatch.delenv("EKRLAB_PRECISION", raising=False)
    code, out = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv, digest", STDOUT_PINS)
def test_cli_leaves_the_numerics_settings_as_it_found_them(capsys, argv,
                                                           digest):
    # --precision and --tau hold for their command only: main puts back the
    # settings it found, the defaults or a caller's own
    for outer in ((None, None), (30, Fraction(1, 7))):
        with numerics.settings(*outer):
            before = numerics_state()
            run_cli(capsys, *argv)
            assert numerics_state() == before, outer


def test_cli_restores_the_numerics_settings_on_errors(capsys, monkeypatch):
    # a usage error, a refused --tau and an exception out of the handler
    # leave the settings as main found them
    before = numerics_state()
    assert run_cli(capsys, "--tau", "1/1000", "kk", "--m", "7", "--k",
                   "0")[0] == 2
    assert run_cli(capsys, "--tau", "-1", "kk", "--m", "7", "--k", "3")[0] == 2
    assert numerics_state() == before

    def boom(args):
        assert numerics.default_tol() == Fraction(1, 1000)
        raise RuntimeError("handler failed")

    monkeypatch.setitem(cli.COMMANDS, "kk", (boom, *cli.COMMANDS["kk"][1:]))
    with pytest.raises(RuntimeError):
        main(["--precision", "40", "--tau", "1/1000", "kk", "--m", "7",
              "--k", "3"])
    assert numerics_state() == before


def test_cli_russo_sweep_reports_failing_families(capsys, monkeypatch):
    # plant a failure at the third enumerated family (id 2) and the second
    # random one (id -2), and record the ground of each family checked
    grounds = []

    def planted(fam):
        grounds.append(fam.n)
        return len(grounds) not in (3, 8)

    monkeypatch.setattr(measures, "russo_identity", planted)
    code, out = run_cli(capsys, "russo-sweep", "--n", "2", "--random", "3",
                        "--seed", "1", "--max-n", "4")
    payload = json.loads(out)
    assert code == 1 and len(grounds) == payload["checked"] == 6 + 3
    assert payload["violations"] == 2
    assert payload["failing"] == [{"family_id": 2, "n": 2},
                                  {"family_id": -2, "n": grounds[7]}]


def test_cli_spec_param_types_exit_two(capsys):
    for params, name in (('{"n":"3","t":1}', "'n'"), ('{"n":3,"t":1.0}', "'t'"),
                         ('{"n":3,"t":true}', "'t'"), ("[3, 1]", "params")):
        err = _usage_error(capsys, "measure", "--p", "1/2", "--spec",
                           '{"name":"t_umvirate","params":%s}' % params)
        assert name in err
    err = _usage_error(capsys, "construct", "--spec", '["t_umvirate"]')
    assert "name" in err


def test_cli_missing_family_file_named(capsys, tmp_path):
    missing = tmp_path / "missing.json"
    err = _usage_error(capsys, "measure", "--family", str(missing), "--p", "1/2")
    assert str(missing) in err and "not found" in err


def test_cli_kk_names_k(capsys):
    err = _usage_error(capsys, "kk", "--m", "5", "--k", "0")
    assert "k >= 1" in err and "k=0" in err


def test_cli_resume_other_problem_exit_two(capsys, tmp_path):
    cp = str(tmp_path / "ckpt.json")
    code = main(["search", "--predicate", "intersecting", "--plain", "--n", "7",
                 "--k", "3", "--budget", "500", "--checkpoint", cp])
    capsys.readouterr()
    assert code == 1
    err = _usage_error(capsys, "search", "--predicate", "intersecting",
                       "--plain", "--n", "5", "--k", "2", "--checkpoint", cp,
                       "--resume")
    assert "written for the problem" in err
    (tmp_path / "ckpt.json").write_text("{")
    err = _usage_error(capsys, "search", "--predicate", "intersecting",
                       "--plain", "--n", "7", "--k", "3", "--checkpoint", cp,
                       "--resume")
    assert "not valid JSON" in err


def test_cli_resume_without_checkpoint_exit_two(capsys):
    # it once ran from scratch, exited 0 and echoed "resume": "True"
    err = _usage_error(capsys, "search", "--predicate", "intersecting",
                       "--n", "5", "--k", "2", "--resume")
    assert "--checkpoint" in err


def test_cli_resume_refuses_a_prefix_that_is_not_shift_closed(capsys,
                                                              tmp_path):
    # the prefix excludes [1, 2, 3] and then includes [1, 2, 4], one of
    # whose shift images is [1, 2, 3]: no node of the shifted walk.
    # Resumed, it once printed a complete optimum of 1, where [6]^(3) at
    # s = 1 has 10
    cp = tmp_path / "cp.json"
    cp.write_text(json.dumps({
        "problem": {"n": 6, "k": 3, "predicate": "matching_at_most",
                    "t": 1, "shifted": True},
        "path": [0, 1], "best": -1, "witness": [], "nodes": 2}))
    argv = ("search", "--predicate", "matching", "--n", "6", "--k", "3",
            "--s", "1", "--checkpoint", str(cp))
    err = _usage_error(capsys, *argv, "--resume")
    assert "includes the set [1, 2, 4]" in err
    assert "shift image [1, 2, 3]" in err
    cp.unlink()
    assert main(list(argv)) == 0
    assert json.loads(capsys.readouterr().out)["certificate"]["optimum"] == 10


@pytest.mark.parametrize("fam, field", [
    ('{"n":3,"sets":5}', '"sets"'),
    ('{"n":3,"sets":[[1],2]}', '"sets"'),
    ('{"n":3,"sets":["12"]}', '"sets"'),
    ('{"n":3,"masks_hex":[5]}', '"masks_hex"'),
    ('{"n":3,"masks_hex":"0x5"}', '"masks_hex"'),
    ('{"n":[3],"sets":[[1]]}', '"n"'),
    ('{"sets":[[1]]}', '"n"'),
    ('[[1,2]]', 'object with "n" and "sets"'),
    ('{"n":3,"sets":[[1000000000000]]}', "element 1000000000000 out of range"),
])
def test_cli_family_json_shape_exit_two(capsys, fam, field):
    err = _usage_error(capsys, "measure", "--family", fam, "--p", "1/2")
    assert field in err
    err = _usage_error(capsys, "shadow", "--family", fam)
    assert field in err


def test_cli_uniform_family_json_k_exit_two(capsys):
    err = _usage_error(capsys, "shadow", "--family",
                       '{"n":3,"sets":[],"k":[1]}')
    assert '"k"' in err


def test_cli_missing_theorem_parameter_named(capsys):
    err = _usage_error(capsys, "verify", "--theorem", "MainBiased", "--spec",
                       '{"name":"t_umvirate","params":{"n":4,"t":2}}',
                       "--p0", "1/2", "--p", "1/4", "--eps", "1/10")
    assert "MainBiased" in err and "'t'" in err
    err = _usage_error(capsys, "verify", "--theorem", "Biased1", "--spec",
                       '{"name":"tilde_Gi","params":{"n":3,"i":3}}',
                       "--p", "1/4")
    assert "Biased1" in err and "'eps'" in err
    err = _usage_error(capsys, "verify", "--theorem", "MainBiased", "--spec",
                       '{"name":"t_umvirate","params":{"n":4,"t":2}}',
                       "--p", "1/4", "--t", "2", "--eps", "1/10")
    assert err == "MainBiased needs parameter 'p0'"
    err = _usage_error(capsys, "verify", "--theorem", "TriangleUniform",
                       "--spec", UNIFORM_SPEC, "--d", "1")
    assert err == "TriangleUniform needs parameter 'v'"


def test_cli_unread_theorem_flag_exit_two(capsys):
    # this ran Biased1, exited 0 and echoed p0, t and d in its header
    err = _usage_error(capsys, "verify", "--theorem", "Biased1", "--spec",
                       '{"name":"dictatorship","params":{"n":4}}',
                       "--p", "1/4", "--eps", "1/16", "--p0", "1/3",
                       "--t", "5", "--d", "2")
    assert err == ("Biased1 does not read 'p0', 't', 'd'; it reads p, eps, "
                   "C, c")


def test_cli_triangle_biased_v_must_match_the_spec(capsys):
    spec = '{"name":"triangle_umvirate","params":{"v":4}}'
    argv = ("verify", "--theorem", "TriangleBiased", "--spec", spec,
            "--p", "1/4", "--eps", "1/20")
    code, out = run_cli(capsys, *argv, "--v", "4")
    assert code == 0
    assert _usage_error(capsys, *argv, "--v", "5") == (
        "v = 5 disagrees with the family's edge ground, on 4 vertices")


#: each search predicate, the flag it reads (None: neither), k and the
#: optimum on [5]^(k) with that flag at 2
SEARCH_FLAGS = [("intersecting", None, "2", 4),
                ("t-intersecting", "--t", "3", 4),
                ("matching", "--s", "2", 10)]


@pytest.mark.parametrize("predicate, reads, k, optimum", SEARCH_FLAGS)
def test_cli_search_refuses_a_flag_it_does_not_read(capsys, predicate, reads,
                                                    k, optimum):
    argv = ("search", "--predicate", predicate, "--n", "5", "--k", k)
    given = (reads, "2") if reads else ()
    code, out = run_cli(capsys, *argv, *given)
    assert code == 0
    assert json.loads(out)["certificate"]["optimum"] == optimum
    for flag in ("--t", "--s"):
        if flag != reads:
            err = _usage_error(capsys, *argv, *given, flag, "2")
            assert err == f"{predicate} search reads no {flag}"
    if reads:
        assert _usage_error(capsys, *argv) == f"{predicate} search needs {reads}"


def test_cli_resume_from_a_missing_checkpoint_notes_it(capsys, tmp_path):
    cp = tmp_path / "missing.json"
    argv = ("search", "--predicate", "intersecting", "--n", "5", "--k", "2",
            "--checkpoint", str(cp))
    main([*argv])
    fresh = capsys.readouterr()
    assert not cp.exists()  # a complete run writes no checkpoint
    code = main([*argv, "--resume"])
    resumed = capsys.readouterr()
    assert code == 0
    # the same run, with only the header's echo of --resume added
    want = json.loads(fresh.out)
    want["header"]["inputs"]["resume"] = "True"
    assert json.loads(resumed.out) == want
    assert fresh.err == ""
    assert resumed.err.count("\n") == 1
    assert json.loads(resumed.err) == {"note": (
        f"checkpoint {cp} does not exist; nothing was resumed, the search "
        "runs from the start")}


@pytest.mark.parametrize("conj, ranges, key", [
    ("TIntersectingSharp", '{"t":1}', "'n'"),
    ("WilsonSharp", '{"n":9,"k":3,"t":1}', "'d_max'"),
    ("EMCStability", '{"n":10,"k":3,"d":1}', "'s'"),
    ("WilsonSharp", "[9, 3, 1, 3]", "JSON object"),
    ("TIntersectingSharp", '{"t":1,"n":"4","ps":["1/4"]}', "'n'"),
    ("EMCStability", '{"n":10,"k":3,"s":2,"d":true}', "'d'"),
    ("TIntersectingSharp", '{"t":0,"n":3,"ps":["1/4"]}', "'t'"),
    ("TIntersectingSharp", '{"t":-1,"n":3,"ps":["1/4"]}', "'t'"),
    # keys outside their domain: each of these ran on a vacuous or
    # meaningless range, or failed with a message that named no key
    ("WilsonSharp", '{"n":7,"k":3,"t":0,"d_max":1}', "'t'"),
    ("WilsonSharp", '{"n":7,"k":3,"t":-1,"d_max":1}', "'t'"),
    ("WilsonSharp", '{"n":7,"k":3,"t":1,"d_max":-2}', "'d_max'"),
    ("EMCStability", '{"n":9,"k":2,"s":0,"d":1}', "'s'"),
    ("EMCStability", '{"n":9,"k":2,"s":2,"d":-1}', "'d'"),
    ("EMCStability", '{"n":9,"k":2,"s":2,"d":3}', "'d'"),
    ("EMCStability", '{"n":9,"k":2,"s":2,"d":5}', "'d'"),
    ("TIntersectingSharp", '{"t":1,"n":-1,"ps":["1/4"]}', "'n'"),
    ("TIntersectingSharp", '{"t":1,"n":7,"ps":["1/4"]}', "'n'"),
    # once itertools' "r must be non-negative", and a k of 0 refused under 'd'
    ("WilsonSharp", '{"n":9,"k":-1,"t":1,"d_max":1}', "'k'"),
    ("WilsonSharp", '{"n":-3,"k":-2,"t":1,"d_max":1}', "'k'"),
    ("EMCStability", '{"n":9,"k":0,"s":1,"d":1}', "'k'"),
    # a key the conjecture does not read once ran and was echoed in "ranges"
    ("TIntersectingSharp", '{"t":1,"n":3,"ps":["1/4"],"k":2}', "'k'"),
    ("WilsonSharp", '{"n":6,"k":3,"t":1,"d_max":2,"d":5,"ps":["1/2"]}',
     "'d', 'ps'"),
    ("EMCStability", '{"n":9,"k":2,"s":2,"d":1,"t":1}', "'t'"),
])
def test_cli_bad_range_key_named(capsys, conj, ranges, key):
    err = _usage_error(capsys, "conjecture-scan", "--conjecture", conj,
                       "--ranges", ranges)
    assert conj in err and key in err


@pytest.mark.parametrize("ps", [
    '[0.25]', '["0.25"]', '"1/4"', '["1/0"]', '[1]', '["1/x"]', '["1/2"]',
    '{"p":"1/4"}',
])
def test_cli_scan_biases_are_exact_rationals(capsys, ps):
    err = _usage_error(capsys, "conjecture-scan", "--conjecture",
                       "TIntersectingSharp", "--ranges",
                       '{"t":1,"n":3,"ps":' + ps + "}")
    assert "TIntersectingSharp" in err and "'ps'" in err


def test_cli_scan_reads_exact_biases(capsys):
    code, out = run_cli(capsys, "conjecture-scan", "--conjecture",
                        "TIntersectingSharp", "--ranges",
                        '{"t":1,"n":3,"ps":["1/4"," 2/7"]}')
    assert code == 0
    assert json.loads(out)["report"]["families_examined"] == 12


#: malformed family JSON and the message it gets: the first fault in file
#: order
MALFORMED = [
    ('{"n":3,"sets":[[2,1]]}', False, "set [2, 1] is not strictly increasing"),
    ('{"n":3,"sets":[[1,1]]}', False, "set [1, 1] is not strictly increasing"),
    ('{"n":3,"sets":[[1,2,2]]}', False,
     "set [1, 2, 2] is not strictly increasing"),
    ('{"n":3,"sets":[[1,3,2]]}', False,
     "set [1, 3, 2] is not strictly increasing"),
    ('{"n":3,"sets":[[0,1]]}', False, "elements are 1-indexed, got 0"),
    ('{"n":3,"sets":[[-1]]}', False, "elements are 1-indexed, got -1"),
    ('{"n":3,"sets":[[4]]}', False, "element 4 out of range for n=3"),
    ('{"n":3,"sets":[[100000]]}', False, "element 100000 out of range for n=3"),
    ('{"n":3,"sets":[[1],[1000000000000]]}', False,
     "element 1000000000000 out of range for n=3"),
    ('{"n":3,"sets":[[1],[4],[3,2]]}', False,
     "set [3, 2] is not strictly increasing"),
    ('{"n":3,"sets":[[1],[0],[2,1]]}', False, "elements are 1-indexed, got 0"),
    ('{"n":3,"sets":[[1],[2,1],[0]]}', False,
     "set [2, 1] is not strictly increasing"),
    ('{"n":3,"sets":[[1,true]]}', False,
     'family JSON field "sets" must be a list of lists of integers'),
    ('{"n":3,"sets":[[1.0]]}', False,
     'family JSON field "sets" must be a list of lists of integers'),
    ('{"n":3,"sets":[[1],{"a":1}]}', False,
     'family JSON field "sets" must be a list of lists of integers'),
    ('{"n":3,"sets":[[1],[null]]}', False,
     'family JSON field "sets" must be a list of lists of integers'),
    ('{"n":true,"sets":[]}', False, 'family JSON field "n" must be an integer'),
    ('{"n":31,"sets":[[1]]}', False, "ground size must be in [0, 30], got 31"),
    ('{"n":-1,"sets":[]}', False, "ground size must be in [0, 30], got -1"),
    ('{"n":30,"sets":[[31]]}', False, "element 31 out of range for n=30"),
    ('{"n":3,"masks_hex":["0x10"]}', False,
     "masks_hex entry 0 out of range for n=3"),
    pytest.param('{"n":3,"masks_hex":["0x1","0x' + "f" * 5000 + '"]}', False,
                 "masks_hex entry 1 out of range for n=3",
                 id="masks_hex-5000-digit-mask"),
    ('[[1,2]]', False,
     'family JSON must be an object with "n" and "sets" (or "masks_hex")'),
    ('{"n":3,"masks_hex":["-0x1"]}', False,
     "subset mask -1 out of range for n=3"),
    ('{"n":3,"sets":[[1],[1,2]]}', True, "not k-uniform: member sizes [1, 2]"),
    ('{"n":3,"sets":[[1],[2,1]]}', True,
     "set [2, 1] is not strictly increasing"),
    ('{"n":3,"sets":[[1,2,3,4]]}', True, "uniformity k=4 out of range for n=3"),
    ('{"n":3,"k":2,"sets":[[1,2]]}', False,
     'family JSON field "k" marks a k-uniform family, not a family on the '
     'whole cube'),
    ('{"n":4,"k":3,"sets":[[1,2],[1,3]]}', True,
     'family JSON field "k" is 3, but its members have 2 elements'),
]


@pytest.mark.parametrize("text, uniform, message", MALFORMED)
def test_malformed_family_file_message(tmp_path, text, uniform, message):
    path = tmp_path / "family.json"
    path.write_text(text)
    for source in (str(path), text, json.loads(text)):
        with pytest.raises(ValueError) as info:
            load_family(source, uniform=uniform)
        assert str(info.value) == message
    command = ("katona", "--t", "1") if uniform else ("measure", "--p", "1/2")
    assert main([*command, "--family", str(path)]) == 2


def test_dense_ground_checked_before_any_mask():
    # the mask of element 10^8 alone would take 12.5 MB
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="got 100000000$"):
            load_family('{"n":100000000,"sets":[[100000000]]}')
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_family_sets_and_masks_hex_agree(rng):
    for n in (0, 1, 5, 9):
        members = [m for m in range(1 << n) if rng.random() < 0.4]
        sets = [[e + 1 for e in range(n) if m >> e & 1] for m in members]
        expect = set_family_from_dict({"n": n, "masks_hex": list(map(hex, members))})
        assert set_family_from_dict({"n": n, "sets": sets}) == expect
        assert set_family_from_dict({"n": n, "sets": tuple(map(tuple, sets))}) == expect
        assert list(expect) == members


def test_inline_family_longer_than_a_file_name(capsys):
    # all 560 3-sets of [16]: 6,914 bytes of JSON, read before any file probe
    text = json.dumps({"n": 16, "sets": [list(c) for c in
                                         itertools.combinations(range(1, 17), 3)]})
    assert len(text) > 4096
    code, out = run_cli(capsys, "shadow", "--family", text, "--s", "1")
    assert code == 0
    assert len(json.loads(out)["family"]["sets"]) == 120
    assert len(load_family(text)) == 560


def test_cli_long_text_that_is_not_json_exit_two(capsys):
    err = _usage_error(capsys, "measure", "--family", "x" * 300, "--p", "1/2")
    assert "too long" in err


def test_cli_file_errors_exit_two(capsys, tmp_path):
    missing = tmp_path / "no-such-dir"
    err = _usage_error(capsys, "construct", "--spec",
                       '{"name":"t_umvirate","params":{"n":3,"t":2}}',
                       "--out", str(missing / "x.json"))
    assert str(missing / "x.json") in err
    err = _usage_error(capsys, "measure", "--family", str(tmp_path),
                       "--p", "1/2")
    assert str(tmp_path) in err
    err = _usage_error(capsys, "search", "--predicate", "intersecting",
                       "--n", "5", "--k", "2", "--checkpoint",
                       str(missing / "cp.json"), "--budget", "3")
    assert str(missing) in err


def test_cli_file_errors_print_no_traceback(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(ekrlab.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "ekrlab.cli", "measure", "--family",
         str(tmp_path), "--p", "1/2"],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2 and proc.stdout == ""
    assert "Is a directory" in json.loads(proc.stderr)["error"]


def test_cli_dense_spec_past_the_cap_exit_two(capsys):
    err = _usage_error(capsys, "construct", "--spec",
                       '{"name":"t_umvirate","params":{"n":31,"t":2}}')
    assert err == "ground size must be in [0, 30], got 31"


WHOLE_CUBE_SPEC = '{"name":"t_umvirate","params":{"n":4,"t":2}}'


@pytest.mark.parametrize("variant", ["lower", "upper"])
def test_cli_shadow_of_whole_cube_spec_exit_two(capsys, variant):
    # once an AttributeError traceback and exit 1
    err = _usage_error(capsys, "shadow", "--variant", variant,
                       "--spec", WHOLE_CUBE_SPEC, "--s", "0")
    assert f"--variant {variant} needs a k-uniform family" in err
    code, out = run_cli(capsys, "shadow", "--variant", "increasing",
                        "--spec", WHOLE_CUBE_SPEC, "--s", "0")
    assert code == 0 and len(json.loads(out)["family"]["sets"]) == 4


@pytest.mark.parametrize("argv", [
    ("measure", "--p", "1/2"),
    ("influence", "--p", "1/2"),
    ("shadow", "--variant", "increasing"),
    ("verify", "--theorem", "MainBiased", "--p0", "1/2", "--p", "1/4",
     "--t", "2", "--eps", "1/10"),
    ("katona", "--t", "2"),
])
def test_cli_family_and_spec_together_exit_two(capsys, argv):
    # once the spec won and --family was dropped without a word
    err = _usage_error(capsys, *argv, "--spec", WHOLE_CUBE_SPEC,
                       "--family", '{"n":3,"sets":[[1]]}')
    assert err == "give --family or --spec, not both"


UNIFORM_SPEC = '{"name":"ak_family","params":{"n":6,"k":3,"t":1,"r":0}}'
_V = ("verify", "--theorem")

#: (the command as a family-kind error names it, whether it reads a
#: k-uniform family, its argv without the family)
FAMILY_COMMANDS = [
    ("measure", False, ("measure", "--p", "1/3")),
    ("influence", False, ("influence", "--p", "1/3")),
    *((f"shadow --variant {v}", v != "increasing",
       ("shadow", "--variant", v)) for v in ("lower", "upper", "increasing")),
    *((f"verify --theorem {argv[2]}", argv[2].endswith("Uniform"), argv)
      for argv in [
          (*_V, "MainBiased", "--p0", "1/2", "--p", "1/4", "--t", "1",
           "--eps", "1/10"),
          (*_V, "Biased1", "--p", "1/4", "--eps", "1/16"),
          (*_V, "TIntersectingBiased", "--t", "1", "--p", "1/5",
           "--eps", "1/25"),
          (*_V, "DualBiased", "--p0", "1/2", "--p", "1/4", "--s", "1",
           "--eps", "1/10"),
          (*_V, "MatchingBiased", "--s", "1", "--p", "1/10", "--eps", "1/36"),
          (*_V, "WilsonUniform", "--t", "1", "--d", "1"),
          (*_V, "TriangleBiased", "--p", "1/4", "--eps", "1/8", "--v", "4"),
          (*_V, "TriangleUniform", "--d", "1", "--v", "4"),
          (*_V, "MatchingUniform", "--s", "1", "--eps", "1/10"),
          (*_V, "FranklG_i", "--p", "1/4", "--i", "3")]),
    ("katona without --p", True, ("katona", "--t", "1")),
    ("katona --p", False, ("katona", "--t", "1", "--p", "1/3")),
]

_KINDS = ("a family on the whole cube", "a k-uniform family")


def test_family_commands_cover_every_theorem():
    from ekrlab.verify import THEOREM_IDS

    assert [argv[2] for _, _, argv in FAMILY_COMMANDS
            if argv[0] == "verify"] == list(THEOREM_IDS)


@pytest.mark.parametrize("spec_uniform", [True, False])
@pytest.mark.parametrize("label, uniform, argv", FAMILY_COMMANDS)
def test_cli_spec_of_either_kind(capsys, label, uniform, argv, spec_uniform):
    # 12 of these cells once printed an AttributeError traceback and exit 1,
    # and katona named the variant it fell into ("biased variant needs a
    # rational p"); a spec of the wrong kind is now refused before it is
    # built
    spec = UNIFORM_SPEC if spec_uniform else WHOLE_CUBE_SPEC
    code = main([*argv, "--spec", spec])
    captured = capsys.readouterr()
    assert code in (0, 1, 2)
    if spec_uniform != uniform:
        assert code == 2 and captured.out == ""
        assert json.loads(captured.err)["error"] == (
            f"{label} needs {_KINDS[uniform]}; "
            f"this spec builds {_KINDS[spec_uniform]}")
    elif code == 2:
        assert "needs a" not in captured.err


def test_cli_spec_of_the_wrong_kind_prints_no_traceback():
    env = dict(os.environ, PYTHONPATH=str(Path(ekrlab.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "ekrlab.cli", "verify", "--theorem",
         "MatchingUniform", "--s", "1", "--eps", "1/10", "--spec",
         '{"name":"triangle_umvirate","params":{"v":4}}'],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2 and proc.stdout == ""
    assert json.loads(proc.stderr)["error"] == (
        "verify --theorem MatchingUniform needs a k-uniform family; this "
        "spec builds a family on the whole cube")

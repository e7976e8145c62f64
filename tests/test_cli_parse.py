"""The direct argv parser against argparse: `cli._parse` either declines an
argv (None, and `main` hands it to argparse) or makes exactly the namespace
that `build_parser().parse_args` makes, and it declines every argv on which
argparse exits.  Help and usage errors stay argparse's own."""

import contextlib
import io
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import perfbench_workloads
from ekrlab import cli

#: the argv of every `cli.main` call and `python -m ekrlab.cli` run that
#: tests/test_io_cli.py and tests/test_cold_start.py make, temporary paths
#: cut to their file names
CORPUS = json.loads(
    (Path(__file__).parent / "cli_argv_corpus.json").read_text())

PARSER = cli.build_parser()


def _argparse(argv):
    """vars() of argparse's namespace for argv, or ("exit", code) where
    argparse prints help or a usage error and exits."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(PARSER.parse_args(argv))
        except SystemExit as exc:
            return ("exit", exc.code)


def _check_parity(argv):
    ours = cli._parse(argv)
    theirs = _argparse(argv)
    if isinstance(theirs, tuple):
        assert ours is None, (argv, theirs)
    elif ours is not None:
        assert vars(ours) == theirs, argv
        assert list(vars(ours)) == list(theirs), argv
    return ours


# -- argv drawn from the command table ---------------------------------------

_OPTIONS = {name: options for name, (_, _, options) in cli.COMMANDS.items()}

#: values that either parser may meet: a prefix "-", an "=", spaces, empty
#: text, words that name a subcommand or a flag, and bad ints
_ODD_VALUES = ("-1", "-1/3", "-x y", "--p", "-h", "", "a=b", "kk", "1.5",
               "x", " 4", "+5", "2_0", "sideways")


def _good_value(kw):
    if "choices" in kw:
        return st.sampled_from(kw["choices"])
    if kw.get("type") is int:
        return st.integers(0, 40).map(str)
    return st.sampled_from(("1/3", "2/7", "{}", '{"n": 3}', "a b", "x.json"))


@st.composite
def _pair(draw, options, form=None):
    """One option of `options` as argv words: `--flag value`,
    `--flag=value` or a bare switch; odd values and forms unless `form`
    is "clean"."""
    flag, kw = draw(st.sampled_from(options))
    if kw.get("action") == "store_true":
        if form != "clean" and draw(st.booleans()):
            return [flag + "=" + draw(st.sampled_from(("", "1")))]
        return [flag]
    value = draw(_good_value(kw) if form == "clean" or draw(st.booleans())
                 else st.sampled_from(_ODD_VALUES))
    if draw(st.booleans()):
        return [flag + "=" + value]
    return [flag, value]


_NOISE = st.sampled_from((["-h"], ["--help"], ["--"], ["--nope", "1"],
                          ["stray"], ["--threads", "2"], ["-"], ["--p"]))


@st.composite
def _argv(draw):
    """(argv, clean): a clean argv is well formed, so `_parse` must read
    it; a "one fault" argv is a clean one with one more pair or word, and a
    noisy one mixes in repeats, odd values, unknown or missing flags, help
    and stray words."""
    mode = draw(st.sampled_from(("clean", "one fault", "noisy")))
    noisy = mode == "noisy"
    argv = []
    for flag, kw in draw(st.lists(st.sampled_from(cli.GLOBAL_OPTIONS),
                                  max_size=3, unique_by=lambda o: o[0])):
        argv += draw(_pair([(flag, kw)], None if noisy else "clean"))
    name = draw(st.sampled_from(sorted(cli.COMMANDS)))
    if noisy and draw(st.integers(0, 9)) == 0:
        name = draw(st.sampled_from(("nope", "-h", "kk=1")))
    argv.append(name)
    options = _OPTIONS.get(name, cli.GLOBAL_OPTIONS)
    required = [(flag, kw) for flag, kw in options if kw.get("required")]
    pairs = [draw(_pair([opt], "clean")) for opt in required
             if not noisy or draw(st.integers(0, 4))]
    if noisy:
        pairs += draw(st.lists(st.one_of(_pair(options), _NOISE),
                               max_size=6))
    else:
        # optional flags at most once each (--p of iso-sweep appends)
        optional = [o for o in options if not o[1].get("required")]
        if optional:
            extra = draw(st.lists(st.sampled_from(optional), max_size=4,
                                  unique_by=lambda o: o[0]))
            pairs += [draw(_pair([opt], "clean")) for opt in extra]
        if name == "iso-sweep":
            pairs += draw(st.lists(_pair([("--p", {})], "clean"),
                                   max_size=2))
    if mode == "one fault":
        pairs.append(draw(st.one_of(_pair(options), _NOISE)))
    for words in draw(st.permutations(pairs)):
        argv += words
    return argv, mode == "clean"


@settings(max_examples=600, deadline=None, database=None, derandomize=True)
@given(_argv())
def test_parse_matches_argparse_or_declines(case):
    argv, clean = case
    ours = _check_parity(argv)
    if clean:
        assert ours is not None, argv


@pytest.mark.parametrize("argv", CORPUS, ids=range(len(CORPUS)))
def test_parse_matches_argparse_on_the_test_corpus(argv):
    _check_parity(argv)


def test_corpus_covers_both_paths():
    read = [argv for argv in CORPUS if cli._parse(argv) is not None]
    # the declined ones carry a value that starts with "-"
    assert len(read) >= len(CORPUS) - 8
    assert all(any(w.startswith("-") and not w.startswith("--")
                   or "=-" in w for w in argv)
               for argv in CORPUS if cli._parse(argv) is None)


@pytest.mark.parametrize("argv", [
    ["-h"], ["kk", "--help"], ["--", "kk", "--m", "3", "--k", "2"],
    ["kk", "--m", "3", "--k", "2", "--z", "1"], ["nope"], [],
    ["kk", "--m", "3"], ["kk", "--m", "3", "--k", "-2"],
    ["--tau", "-1/2", "kk", "--m", "3", "--k", "2"],
    ["kk", "--m", "3", "--m", "4", "--k", "2"],
    ["kk", "--m", "three", "--k", "2"],
    ["shadow", "--family", "x.json", "--variant", "sideways"],
    ["iso-sweep", "--n", "3", "--p", "1/3", "--csv=yes"],
    ["kk", "--m", "3", "--k", "2", "stray"],
])
def test_parse_declines_what_it_does_not_read(argv):
    # help, "--", an unknown flag or subcommand, a missing required flag,
    # a value that starts with "-", a repeated flag, a bad int or choice, a
    # value on a switch, a stray word
    assert cli._parse(argv) is None


# -- the benchmark's commands never reach argparse ---------------------------


def test_every_benchmark_command_is_read_directly(tmp_path):
    workloads = perfbench_workloads()
    builds = [(name, 0, True) for name in workloads.BUILDERS]
    builds += [(name, seed, False) for name in workloads.BUILDERS
               for seed in range(workloads.VARIANTS)]
    for name, seed, small in builds:
        commands, _ = workloads.build(name, seed,
                                      tmp_path / f"{name}-{seed}-{small}",
                                      small=small)
        for command in commands:
            assert _check_parity(command.argv()) is not None, command.argv()


# -- help and usage errors are argparse's ------------------------------------


def _exit(capsys, *argv):
    with pytest.raises(SystemExit) as info:
        cli.main(list(argv))
    captured = capsys.readouterr()
    return info.value.code, captured.out, captured.err


def test_help_exits_zero_with_argparse_text(capsys):
    code, out, err = _exit(capsys, "-h")
    assert code == 0 and err == ""
    assert out == cli.build_parser().format_help()
    code, out, _ = _exit(capsys, "kk", "--help")
    assert code == 0 and out.startswith("usage: ekrlab kk [-h] --m M --k K")


def test_bad_choice_exits_two_with_argparse_usage(capsys):
    code, out, err = _exit(capsys, "shadow", "--family", "x.json",
                           "--variant", "sideways")
    assert code == 2 and out == ""
    assert err.startswith("usage: ekrlab shadow [-h]")
    assert err.endswith("ekrlab shadow: error: argument --variant: invalid "
                        "choice: 'sideways' (choose from 'lower', 'upper', "
                        "'increasing')\n")


@pytest.mark.parametrize("argv, message", [
    (("kk", "--m", "3"), "the following arguments are required: --k"),
    (("kk", "--m", "x", "--k", "2"), "argument --m: invalid int value: 'x'"),
    (("nope",), "argument subcommand: invalid choice: 'nope'"),
    (("kk", "--m", "3", "--k", "2", "--z"), "unrecognized arguments: --z"),
])
def test_usage_errors_exit_two_from_argparse(capsys, argv, message):
    code, out, err = _exit(capsys, *argv)
    assert code == 2 and out == "" and message in err

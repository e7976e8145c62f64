#!/usr/bin/env python3
"""End-to-end benchmark of the ekrlab CLI, with an optional per-layer trace.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 1
    python3 perfbench/run.py --self-check
    python3 perfbench/run.py --record [--workload NAME]

`--trace 0` runs the workload's commands as fresh `python -m ekrlab.cli`
processes, back to back (a closed loop with one client), for `--seconds`
after an untimed warm-up pass at the smallest inputs, and reports the
end-to-end metrics.  It runs on one CPU and times a fixed calibration child
around every command; each time is reported against those calibration
times, in seconds of the machine the benchmark was written on, so that
other tenants slowing a shared host move the metrics little.  `--trace 1` runs the same commands in this process
through `ekrlab.cli.main(argv)` at `--threads 1`, alternating untraced and
traced passes, and reports the per-layer metrics.  Every output goes
through the gate in `gate.py`.  The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

`--self-check` runs every workload at its smallest inputs and shows that
the gate rejects a corrupted output, a usage error, a traceback and a wrong
exit code.  `--record` runs every input variant once, checks it with the
oracles alone and writes the digests to `reference.json`.

The program is imported from `src/` of the checkout this file sits in; the
run fails with exit code 2 when that is missing.  Scratch files go to
`.bench_work/` in the checkout.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import platform
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import gate  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
REFERENCE = Path(__file__).resolve().parent / "reference.json"

#: fresh interpreters timed for setup_s before the warm-up pass, and after
#: each timed pass, so the samples spread over the whole run
SETUP_FIRST = 6
SETUP_PER_PASS = 3
#: fresh interpreters timed with -X importtime for cli.import_s
IMPORT_SAMPLES = 5
#: the calibration child, timed around each command and after each set-up
#: sample
CALIBRATION = ("acc = 0\n"
               "for i in range(40000):\n"
               "    acc ^= (i * 2654435761) & 0xFFFF\n"
               "    acc += bin(i).count('1')\n")
#: seconds the calibration child takes on an idle core of the machine the
#: benchmark was written on (2.1 GHz Xeon, Python 3.11); every time is
#: reported in seconds of that machine
CALIBRATION_S = 0.065
#: seconds one CLI child may take before it is killed
CHILD_TIMEOUT = 150

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("cmd_p50_s", "s"),
              ("cmd_p90_s", "s"), ("peak_rss_mb", "MB"))

PER_LAYER = (
    ("cli.import_s", "s"), ("cli.self_s", "s"), ("cli.output_s", "s"),
    ("cli.output_bytes", "bytes"),
    ("kernels.enumerate.self_s", "s"), ("kernels.enumerate.calls", "count"),
    ("kernels.enumerate.families", "count"),
    ("kernels.count.self_s", "s"), ("kernels.count.calls", "count"),
    ("kernels.search.self_s", "s"), ("search.nodes", "count"),
    ("search.bound_prunes", "count"), ("search.predicate_rejections", "count"),
    ("search.forced_exclusions", "count"), ("search.prune_ratio", "ratio"),
    ("search.self_s", "s"),
    ("measures.self_s", "s"), ("measures.calls", "count"),
    ("numerics.self_s", "s"), ("numerics.calls", "count"),
    ("numerics.retries", "count"), ("numerics.inexact_checks", "count"),
    ("verify.nearest.self_s", "s"), ("verify.nearest.calls", "count"),
    ("verify.self_s", "s"), ("verify.families_examined", "count"),
    ("families.self_s", "s"), ("io.self_s", "s"), ("zoo.self_s", "s"),
    ("shadows.self_s", "s"), ("trace.overhead_frac", "ratio"),
)

#: counters read from CLI stdout (summed over a pass)
STDOUT_COUNTERS = ("search.nodes", "search.bound_prunes",
                   "search.predicate_rejections", "search.forced_exclusions",
                   "verify.families_examined")


class HarnessError(RuntimeError):
    """The benchmark itself cannot run (not a wrong program output)."""


# -- statistics ----------------------------------------------------------------


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least a share q
    of the samples at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def tail(values) -> str:
    """The highest of p90/p95/p99/p99.9 with at least ten samples beyond it."""
    best = "-"
    for q in (0.9, 0.95, 0.99, 0.999):
        if len(values) * (1 - q) >= 10:
            best = f"p{q * 100:g}={percentile(values, q):.4f}"
    return best


# -- running the CLI -----------------------------------------------------------


def child_env() -> dict:
    """Environment for every child: ekrlab from this checkout's src/, and no
    EKRLAB_* overrides (precision, kernel choice) leaking in."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("EKRLAB_") and k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPATH"] = str(SRC)
    return env


def pin() -> None:
    """Run this process and every child, which inherits its affinity, on one
    CPU, so that calibration and commands share that CPU's slow spells."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def spawn(argv: list[str], cwd: Path) -> tuple[int, str, str, float]:
    """Run argv to completion in its own process group; (rc, out, err, s)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        err += f"\nkilled after {CHILD_TIMEOUT} s"
    return proc.returncode, out, err, time.perf_counter() - t0


def run_child(cmd, cwd: Path):
    return spawn([sys.executable, "-m", "ekrlab.cli"] + cmd.argv(), cwd)


def run_inprocess(cli, cmd):
    """`cli.main(argv)` at --threads 1 with stdout/stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    argv = ["--threads", "1"] + cmd.args
    t0 = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a traceback is a failed command, not a crash
            traceback.print_exc()
            rc = 1
    return rc, out.getvalue(), err.getvalue(), time.perf_counter() - t0


def load_reference() -> dict:
    if REFERENCE.exists():
        return json.loads(REFERENCE.read_text())
    return {}


def calibrate(cwd: Path) -> float:
    """Seconds of one calibration child: a fresh interpreter running a fixed
    loop, started and timed like a CLI command but running no ekrlab code."""
    rc, _, err, secs = spawn([sys.executable, "-c", CALIBRATION], cwd)
    if rc != 0:
        raise HarnessError(f"calibration child failed: {err[-500:]}")
    return secs


class Pass:
    """Outcome of one pass over a workload's commands."""

    def __init__(self):
        self.wall = 0.0
        self.latencies: list[float] = []
        self.calibration: list[float] = []
        self.counters = dict.fromkeys(STDOUT_COUNTERS, 0)
        self.attempted = 0
        self.failed = 0
        self.output_bytes = 0
        self.records: list[dict] = []


def run_pass(cmds, refs: dict, runner, calibrate=None) -> Pass:
    """Run and gate every command; `refs` maps command keys to references.
    The pass's wall time is the sum of the command latencies, so the gate's
    own work between commands is not counted.  `calibrate`, if given, is
    timed before the first command and after each one; a command's
    calibration is the mean of the two around it."""
    res = Pass()
    before = calibrate() if calibrate else None
    for cmd in cmds:
        rc, out, err, secs = runner(cmd)
        ref = refs.get(cmd.key())
        problems, counters, dig = gate.check(cmd, rc, out, err, ref)
        if ref is None:
            problems.append("no reference recorded for this input")
        res.attempted += 1
        res.latencies.append(secs)
        if calibrate:
            after = calibrate()
            res.calibration.append((before + after) / 2)
            before = after
        res.output_bytes += len(out.encode())
        for k, v in counters.items():
            res.counters[k] += v
        if problems:
            res.failed += 1
            print(f"FAILED: {cmd.key()[:160]}: {'; '.join(problems)}",
                  file=sys.stderr)
        res.records.append({"cmd": cmd.key(), "threads": cmd.threads,
                            "rc": rc, "seconds": secs, "digest": dig,
                            "calibration": (res.calibration[-1] if calibrate
                                            else None),
                            "problems": problems})
    res.wall = sum(res.latencies)
    return res


def timed_passes(seconds: float, one_pass) -> list:
    """Passes back to back while the next one, as long as the last one took,
    is expected to end in time; at least one."""
    began = time.perf_counter()
    passes, last = [], 0.0
    while not passes or (time.perf_counter() - began) + last <= seconds:
        t0 = time.perf_counter()
        passes.append(one_pass())
        last = time.perf_counter() - t0
    return passes


# -- environment -------------------------------------------------------------


def check_checkout() -> None:
    if not (SRC / "ekrlab" / "cli.py").is_file():
        print(f"benchmark: no ekrlab sources under {SRC}; run it from the "
              "root of a source checkout", file=sys.stderr)
        sys.exit(2)


def metadata(cwd: Path) -> dict:
    probe = (
        "import json, os, platform, ekrlab, mpmath\n"
        "try:\n import numpy; npv = numpy.__version__\n"
        "except ImportError:\n npv = None\n"
        "print(json.dumps({'python': platform.python_version(), "
        "'mpmath': mpmath.__version__, 'numpy': npv, "
        "'nproc': os.cpu_count(), 'kernel_backend': ekrlab.kernel_backend, "
        "'ekrlab_file': ekrlab.__file__}))\n")
    rc, out, err, _ = spawn([sys.executable, "-c", probe], cwd)
    if rc != 0:
        raise HarnessError(f"cannot import ekrlab: {err.strip()[-500:]}")
    meta = json.loads(out)
    if not Path(meta["ekrlab_file"]).resolve().is_relative_to(SRC.resolve()):
        raise HarnessError(f"ekrlab imported from {meta['ekrlab_file']}, "
                           f"not from {SRC}")
    meta.update({"machine": platform.machine(),
                 "ekrlab_env": "EKRLAB_* unset in every child",
                 "threads": "explicit --threads on every command",
                 "cpus": sorted(os.sched_getaffinity(0))})
    return meta


def setup_samples(cwd: Path, count: int) -> list[tuple[float, float]]:
    """Wall times of `count` fresh interpreters running `import ekrlab.cli`,
    each paired with the calibration child run right after it."""
    times = []
    for _ in range(count):
        rc, _, err, secs = spawn([sys.executable, "-c", "import ekrlab.cli"],
                                 cwd)
        if rc != 0:
            raise HarnessError(f"import ekrlab.cli failed: {err[-500:]}")
        times.append((secs, calibrate(cwd)))
    return times


def import_samples(cwd: Path) -> list[float]:
    """Cumulative import time of ekrlab.cli from `python -X importtime`."""
    times = []
    for _ in range(IMPORT_SAMPLES):
        rc, _, err, _ = spawn([sys.executable, "-X", "importtime", "-c",
                               "import ekrlab.cli"], cwd)
        m = re.search(r"^import time:\s*\d+ \|\s*(\d+) \|\s*ekrlab\.cli$",
                      err, re.M)
        if rc != 0 or not m:
            raise HarnessError("cannot read the import time of ekrlab.cli")
        times.append(int(m.group(1)) / 1e6)
    return times


# -- modes ---------------------------------------------------------------------


def prepare(name: str, seed: int, small: bool):
    workdir = WORK / name
    shutil.rmtree(workdir, ignore_errors=True)
    cmds, variant = workloads.build(name, seed, workdir, small)
    refs = load_reference().get(name, {}).get(variant, {})
    return workdir, cmds, variant, refs


def untraced(args) -> tuple[dict, int, int, list[str]]:
    pin()
    workdir, warm_cmds, _, warm_refs = prepare(args.workload, args.seed, True)
    meta = metadata(workdir)
    setup_samples(workdir, 1)  # writes __pycache__; not kept
    setup = setup_samples(workdir, SETUP_FIRST)
    warm = run_pass(warm_cmds, warm_refs, lambda c: run_child(c, workdir))
    _, cmds, variant, refs = prepare(args.workload, args.seed, False)

    def one_pass():
        res = run_pass(cmds, refs, lambda c: run_child(c, workdir),
                       lambda: calibrate(workdir))
        setup.extend(setup_samples(workdir, SETUP_PER_PASS))
        return res

    passes = timed_passes(args.seconds, one_pass)
    rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    # each command against the calibration children run around it
    per_cmd = [sum(p.latencies[i] for p in passes)
               / sum(p.calibration[i] for p in passes) * CALIBRATION_S
               for i in range(len(cmds))]
    cal = [x for p in passes for x in p.calibration]
    scale = CALIBRATION_S / statistics.mean(cal)
    walls = [p.wall for p in passes]
    lat = [x for p in passes for x in p.latencies]
    notes = [f"env: {json.dumps(meta, sort_keys=True)}",
             f"inputs: variant {variant} of {workloads.VARIANTS} "
             f"(seed % {workloads.VARIANTS}); why: {workloads.WHY[args.workload]}",
             "load: closed loop, one client, commands back to back, each a "
             f"fresh `python -m ekrlab.cli`; {len(passes)} timed passes over "
             f"{len(cmds)} commands",
             f"host scale: {scale:.4f} = {CALIBRATION_S} s reference / "
             f"{statistics.mean(cal):.4f} s mean of {len(cal)} calibration "
             "children (the metrics scale each command by its own)",
             f"raw, unscaled: {'sample':<11} {'median':>8}  {'tail':<16} "
             "samples"]
    for name_, vals in (("setup", [x for x, _ in setup]), ("pass", walls),
                        ("command", lat), ("calibration", cal)):
        notes.append(f"raw, unscaled: {name_:<11} "
                     f"{statistics.median(vals):>8.4f}  {tail(vals):<16} "
                     f"n={len(vals)}")
    for i, cmd in enumerate(cmds):
        raw = statistics.median(p.latencies[i] for p in passes)
        notes.append(f"command {i}: {per_cmd[i]:.4f} s scaled, raw median "
                     f"{raw:.4f} s, n={len(passes)}: {cmd.key()[:90]}")
    attempted = warm.attempted + sum(p.attempted for p in passes)
    failed = warm.failed + sum(p.failed for p in passes)
    notes.append(f"failed_frac = {failed / attempted:.4f} ({failed} of "
                 f"{attempted} commands, warm-up included)")
    notes += counter_notes(passes)
    if any(p.counters != passes[0].counters for p in passes):
        failed += 1
        print("FAILED: stdout counters differ between passes", file=sys.stderr)
    metrics = {
        # each set-up sample against the calibration child right after it
        "setup_s": statistics.median(x / c for x, c in setup) * CALIBRATION_S,
        "wall_s": sum(per_cmd),
        "cmd_p50_s": percentile(per_cmd, 0.5),
        "cmd_p90_s": percentile(per_cmd, 0.9),
        "peak_rss_mb": rss_mb,
    }
    (workdir / "run.json").write_text(json.dumps(
        {"meta": meta, "seed": args.seed, "variant": variant,
         "scale": scale, "setup_s": setup, "warmup": warm.records,
         "passes": [p.records for p in passes]}, indent=1))
    return ({k: {"value": metrics[k], "unit": u} for k, u in END_TO_END},
            attempted, failed, notes)


def counter_notes(passes) -> list[str]:
    c = passes[0].counters
    out = [f"counter {k} = {v} (from stdout, per pass)" for k, v in c.items()
           if v]
    if c["search.nodes"]:
        out.append(f"search.prune_ratio = bound_prunes / nodes = "
                   f"{c['search.bound_prunes']} / {c['search.nodes']}")
    return out


def traced(args) -> tuple[dict, int, int, list[str]]:
    from tracing import Tracer

    workdir, warm_cmds, _, warm_refs = prepare(args.workload, args.seed, True)
    imports = import_samples(workdir)
    sys.path.insert(0, str(SRC))
    import ekrlab.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise HarnessError(f"ekrlab imported from {cli.__file__}")
    os.chdir(workdir)
    warm = run_pass(warm_cmds, warm_refs, lambda c: run_inprocess(cli, c))
    _, cmds, variant, refs = prepare(args.workload, args.seed, False)
    os.chdir(workdir)
    tracer = Tracer()
    runs = []  # (untraced pass, traced pass, layer seconds, layer calls, counts)

    def pair():
        plain = run_pass(cmds, refs, lambda c: run_inprocess(cli, c))
        tracer.reset()
        tracer.install()
        try:
            tr = run_pass(cmds, refs, lambda c: run_inprocess(cli, c))
        finally:
            tracer.uninstall()
        secs, calls = tracer.layer_totals()
        runs.append((plain, tr, secs, calls, dict(tracer.counts)))

    timed_passes(args.seconds, pair)
    tracer.write(workdir / "spans")
    attempted = warm.attempted + sum(a.attempted + b.attempted
                                     for a, b, *_ in runs)
    failed = warm.failed + sum(a.failed + b.failed for a, b, *_ in runs)
    _, last, secs, calls, counts = runs[-1]
    if any(r[3] != calls or r[4] != counts or r[1].counters != last.counters
           for r in runs):
        failed += 1
        print("FAILED: counters differ between traced passes", file=sys.stderr)

    def med(layer):
        return statistics.median(r[2][layer] for r in runs)

    c = last.counters
    values = {
        "cli.import_s": statistics.median(imports),
        "cli.self_s": med("cli"),
        "cli.output_s": med("cli.output"),
        "cli.output_bytes": last.output_bytes,
        "kernels.enumerate.self_s": med("kernels.enumerate"),
        "kernels.enumerate.calls": counts.get("kernels.enumerate.calls", 0),
        "kernels.enumerate.families":
            counts.get("kernels.enumerate.families", 0),
        "kernels.count.self_s": med("kernels.count"),
        "kernels.count.calls": calls["kernels.count"],
        "kernels.search.self_s": med("kernels.search"),
        "search.prune_ratio": (c["search.bound_prunes"] / c["search.nodes"]
                               if c["search.nodes"] else 0.0),
        "search.self_s": med("search"),
        "measures.self_s": med("measures"),
        "measures.calls": calls["measures"],
        "numerics.self_s": med("numerics"),
        "numerics.calls": calls["numerics"],
        "numerics.retries": counts.get("numerics.retries", 0),
        "numerics.inexact_checks": counts.get("numerics.inexact_checks", 0),
        "verify.nearest.self_s": med("verify.nearest"),
        "verify.nearest.calls": calls["verify.nearest"],
        "verify.self_s": med("verify"),
        "families.self_s": med("families"),
        "io.self_s": med("io"),
        "zoo.self_s": med("zoo"),
        "shadows.self_s": med("shadows"),
        "trace.overhead_frac": statistics.median(
            b.wall / a.wall - 1 for a, b, *_ in runs),
    }
    for k in STDOUT_COUNTERS:
        values[k] = c[k]
    total = sum(secs.values())
    notes = [f"traced in-process passes: {len(runs)} (each after an untraced "
             f"one), --threads 1, variant {variant}",
             f"spans of the last traced pass: {len(tracer.start)} "
             f"-> {workdir / 'spans'}.json/.bin",
             f"{'layer':<20} {'self_s':>10} {'share':>7} {'spans':>9}"]
    for layer in secs:
        notes.append(f"{layer:<20} {secs[layer]:>10.4f} "
                     f"{secs[layer] / total if total else 0:>7.1%} "
                     f"{calls[layer]:>9}")
    notes += counter_notes([last])
    return ({k: {"value": values[k], "unit": u} for k, u in PER_LAYER},
            attempted, failed, notes)


def self_check() -> int:
    """Smallest inputs of every workload through the gate, then the gate
    against outputs that must fail."""
    ok = True
    for name in workloads.BUILDERS:
        workdir, cmds, _, refs = prepare(name, 0, True)
        res = run_pass(cmds, refs, lambda c: run_child(c, workdir))
        print(f"{name}: {res.attempted - res.failed}/{res.attempted} "
              f"commands pass the gate in {res.wall:.2f} s")
        ok &= res.failed == 0
        cmd = cmds[0]
        rc, out, err, _ = run_child(cmd, workdir)
        ref = refs.get(cmd.key())
        bad = {
            "corrupted output": (rc, corrupt(out), err),
            "usage error": (2, out, err),
            "traceback": (rc, out, err + "Traceback (most recent call last):"),
            "wrong exit code": (rc + 1, out, err),
        }
        for what, (brc, bout, berr) in bad.items():
            problems, _, _ = gate.check(cmd, brc, bout, berr, ref)
            print(f"  {what}: {'rejected' if problems else 'ACCEPTED'}")
            ok &= bool(problems)
    print("self-check", "passed" if ok else "FAILED")
    return 0 if ok else 1


def corrupt(stdout: str) -> str:
    """The output with the last digit of its result part changed."""
    def bump(text):
        i = max(i for i, ch in enumerate(text) if ch.isdigit())
        return text[:i] + str((int(text[i]) + 1) % 10) + text[i + 1:]

    if not stdout.lstrip().startswith("{"):
        return bump(stdout)
    payload = json.loads(stdout)
    header = payload.pop("header")
    payload = json.loads(bump(json.dumps(payload, sort_keys=True)))
    payload["header"] = header
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def record(names) -> int:
    """Run every input variant once, check it by the oracles alone, and
    store the digests and exit codes as the reference."""
    ref = load_reference()
    ok = True
    for name in names:
        labels = [(0, True)]
        if name in workloads.SEEDED:
            labels += [(v, False) for v in range(workloads.VARIANTS)]
        else:
            labels.append((0, False))
        ref[name] = {}
        for seed, small in labels:
            workdir = WORK / name
            shutil.rmtree(workdir, ignore_errors=True)
            cmds, variant = workloads.build(name, seed, workdir, small)
            entries = ref[name][variant] = {}
            for cmd in cmds:
                rc, out, err, secs = run_child(cmd, workdir)
                problems, _, dig = gate.check(cmd, rc, out, err, None)
                if problems:
                    ok = False
                    print(f"FAILED {name}/{variant}: {cmd.key()[:120]}: "
                          f"{problems}", file=sys.stderr)
                entries[cmd.key()] = {"rc": rc, "digest": dig}
            print(f"recorded {name} variant {variant}: {len(cmds)} commands",
                  file=sys.stderr)
    if not ok:
        print("reference not written", file=sys.stderr)
        return 1
    REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(workloads.BUILDERS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true")
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args(argv)
    check_checkout()
    if args.self_check:
        return self_check()
    if args.record:
        return record([args.workload] if args.workload
                      else list(workloads.BUILDERS))
    if args.workload is None:
        ap.error("--workload is required")
    try:
        metrics, attempted, failed, notes = (traced if args.trace
                                             else untraced)(args)
    except HarnessError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    print(f"# ekrlab benchmark: workload {args.workload}, seed {args.seed}, "
          f"trace {args.trace}")
    for line in notes:
        print("# " + line)
    for name, m in metrics.items():
        print(f"# {name} = {m['value']} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

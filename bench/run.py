"""Benchmark of the `wrtr` batch CLI, end to end and per layer.

    python3 bench/run.py --workload robust-s2 --seed 1 --seconds 25 --trace 0

Run from anywhere inside a source checkout (the program is imported from
its `src/`). With `--trace 0` it times the set-up, then runs the
workload's CLI commands as child processes, one at a time (a closed loop
with one client), repeating the whole command sequence with fresh inputs
for about `--seconds` (at least once), checks every output, and reports
the end-to-end metrics, its times rescaled by the host speed that
`SpeedProbe` samples. With `--trace 1` it runs one untraced sequence,
then the same sequence in-process under `tracer.Tracer`, and reports the
per-layer metrics and the tracing overhead. The last line of standard output is the result as JSON; the
lines before it record the environment and the workload's regime.
Workloads, metrics and the layer map are described in README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import select
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
# One BLAS thread everywhere: with two, the same run used 1.7x the CPU time
# and its wall time moved with whatever else shared the machine.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 15
COMMAND_TIMEOUT_S = 150
RUN_LIMIT_S = 150  # start no repetition that could end after this
CLI_COMMANDS = ("wrtr", "baseline", "montecarlo", "staf")
TCG_STOPS = ("negative_curvature", "boundary", "residual_small", "max_inner")
SETUP_CODE = "import sys, wrtr; from wrtr.scenario import load_scenario; load_scenario(sys.argv[1]).to_scene()"
# The end-to-end times are rescaled by the host's speed, sampled with a
# fixed kernel on the same (pinned) vCPU every PROBE_EVERY_S of command time
# while the command is paused: on the shared two-vCPU test host one
# identical robust-s2 command took 27 to 44 s within 20 minutes, while
# kernel timings interleaved with the commands followed the commands'
# timings (correlation 0.92 over 70 repetitions of nonrobust-n128).
# REF_KERNEL_S is about the kernel's fastest time seen on that host, so a
# rescaled time reads as seconds at that speed.
REF_KERNEL_S = 0.13
PROBE_EVERY_S = 2.5
SETUP_PROBE_EVERY_S = 0.5


class SpeedProbe:
    """Samples the host's speed with a fixed kernel that shares no code with the program.

    The kernel mixes what the commands spend their time on: small complex
    matrix-vector products and FFTs driven from a Python loop, passes over
    a 16 MB array, and float formatting as in CSV writing. Each part alone
    followed analysis-n1024's times less closely than the mix (interquartile
    spread of rescaled repetitions 0.13 to 0.16, against 0.10 for the mix).
    `due_s` counts down the command time left until the next sample.
    """

    def __init__(self, every_s: float):
        import numpy as np

        rng = np.random.default_rng(0)
        self.np = np
        self.x = rng.standard_normal(128) + 1j * rng.standard_normal(128)
        self.m = rng.standard_normal((256, 128)) + 1j * rng.standard_normal((256, 128))
        self.big = rng.standard_normal(2_000_000)
        self.floats = rng.standard_normal(30_000).tolist()
        self.every_s = self.due_s = every_s
        self.samples = []

    def sample(self) -> None:
        np, m, x, big = self.np, self.m, self.x, self.big
        t0 = perf_counter()
        for _ in range(1000):
            x = m.conj().T @ (m @ x)
            x = np.fft.ifft(np.fft.fft(x / np.abs(x)))
        for _ in range(24):
            big = big * 1.0000001
        ",".join(format(v, ".17g") for v in self.floats)
        self.samples.append(perf_counter() - t0)
        self.due_s = self.every_s

    def scale(self) -> float:
        """REF_KERNEL_S over the mean sample, taking one now if there is none yet."""
        if not self.samples:
            self.sample()
        return REF_KERNEL_S / statistics.fmean(self.samples)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


class Spawner:
    """Starts the commands from a small process forked before numpy is imported.

    exec keeps the peak RSS of the address space it replaces, and a child
    spawned from this process starts inside this process's: every child
    would report at least this process's peak, the dense oracle's and the
    speed probe's included. The spawner passes back a pidfd for each command
    it starts, then the command's exit code, CPU time and peak RSS.
    """

    def __init__(self):
        self.sock, theirs = socket.socketpair(socket.AF_UNIX, socket.SOCK_SEQPACKET)
        sys.stdout.flush()
        self.pid = os.fork()
        if self.pid == 0:
            self.sock.close()
            try:
                _serve(theirs)
            finally:
                os._exit(0)
        theirs.close()

    def start(self, argv: list, env: dict) -> int:
        """Start a command; returns a pidfd for it."""
        self.sock.send(json.dumps([argv, env]).encode())
        _, fds, _, _ = socket.recv_fds(self.sock, 1, 1)
        if not fds:
            raise RuntimeError("spawner failed to start " + " ".join(argv))
        return fds[0]

    def result(self) -> list:
        """[exit code, cpu s, peak RSS KiB] of the command started last, once it has ended."""
        return json.loads(self.sock.recv(1 << 16))

    def close(self) -> None:
        self.sock.close()
        os.waitpid(self.pid, 0)


def _serve(sock) -> None:
    while msg := sock.recv(1 << 20):
        argv, env = json.loads(msg)
        devnull = [(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)]
        pid = os.posix_spawn(argv[0], argv, env, file_actions=devnull)
        pidfd = os.pidfd_open(pid)  # before the wait, so the pid cannot be reused
        socket.send_fds(sock, [b"p"], [pidfd])
        os.close(pidfd)
        _, status, usage = os.wait4(pid, 0)
        code = os.waitstatus_to_exitcode(status)
        sock.send(json.dumps([code, usage.ru_utime + usage.ru_stime, usage.ru_maxrss]).encode())


def _signal(pidfd: int, sig: int) -> None:
    """Send `sig` to the child, unless it has already exited and been reaped."""
    with contextlib.suppress(ProcessLookupError):
        signal.pidfd_send_signal(pidfd, sig)


def run_child(spawner: Spawner, argv: list, env: dict, probe: SpeedProbe | None = None) -> tuple:
    """Run a child to completion; (exit code, wall s it ran, cpu s, peak RSS KiB).

    It is killed after COMMAND_TIMEOUT_S. With a probe, whenever the probe
    is due the child is stopped, the probe samples the vCPU they share, and
    the child is continued; the pauses are not counted in its wall time.
    The wait is a select on a pidfd, which wakes as soon as the child
    exits; `subprocess` waits with a timeout by polling with sleeps of up to
    50 ms, which would show in the timings.
    """
    t0 = perf_counter()
    pidfd = spawner.start(argv, env)
    paused = 0.0
    try:
        while True:
            ran = perf_counter() - t0 - paused
            timeout = COMMAND_TIMEOUT_S - ran
            if probe:
                timeout = min(timeout, probe.due_s)
            ready, _, _ = select.select([pidfd], [], [], max(timeout, 0.0))
            if probe:
                probe.due_s -= perf_counter() - t0 - paused - ran
            if ready:
                break
            if perf_counter() - t0 - paused >= COMMAND_TIMEOUT_S:
                _signal(pidfd, signal.SIGKILL)
                select.select([pidfd], [], [])
                break
            if probe and probe.due_s <= 0:
                p0 = perf_counter()
                _signal(pidfd, signal.SIGSTOP)
                probe.sample()
                _signal(pidfd, signal.SIGCONT)
                paused += perf_counter() - p0
        wall = perf_counter() - t0 - paused
    except BaseException:
        _signal(pidfd, signal.SIGKILL)
        raise
    finally:
        os.close(pidfd)
    code, cpu, peak_kb = spawner.result()
    return code, wall, cpu, peak_kb


def measure_setup(spawner: Spawner, config: Path, env: dict) -> float:
    """Median wall time of a fresh interpreter importing wrtr and loading the scene, rescaled."""
    argv = [sys.executable, "-c", SETUP_CODE, str(config)]
    probe = SpeedProbe(SETUP_PROBE_EVERY_S)
    times = []
    for _ in range(SETUP_REPEATS + 1):  # the first one fills the bytecode cache
        code, wall, _, _ = run_child(spawner, argv, env, probe)
        if code != 0:
            raise RuntimeError("set-up failed: " + " ".join(argv))
        times.append(wall)
    return statistics.median(times[1:]) * probe.scale()


def run_untraced(spawner: Spawner, plan, env: dict, probe: SpeedProbe | None = None) -> tuple:
    """Run the plan's commands as child processes; (wall s, cpu s, peak RSS KiB, return codes)."""
    runs = [run_child(spawner, [sys.executable, "-m", "wrtr", *cmd.argv], env, probe) for cmd in plan.commands]
    return sum(r[1] for r in runs), sum(r[2] for r in runs), max(r[3] for r in runs), [r[0] for r in runs]


def run_traced(plan, tracer) -> tuple:
    """Run the plan's commands in this process under `tracer`; (wall s, per-command s, codes)."""
    from wrtr import cli

    per_command = dict.fromkeys(CLI_COMMANDS, 0.0)
    codes = []
    tracer.install()
    t0 = perf_counter()
    for cmd in plan.commands:
        c0 = perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(list(cmd.argv))
        except SystemExit as exc:  # argparse rejected the arguments
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash fails the command, as it would in a child process
            traceback.print_exc()
            code = 1
        per_command[cmd.name] += perf_counter() - c0
        codes.append(code)
    return perf_counter() - t0, per_command, codes


def check(plan, codes: list, checker) -> int:
    """Number of failed commands; prints what failed to stderr."""
    failed = 0
    for cmd, code in zip(plan.commands, codes):
        problems = checker.problems(cmd, code, plan)
        for p in problems:
            print(f"bench: FAILED {p}", file=sys.stderr)
        failed += bool(problems)
    return failed


def design_scr_db(plan, checker) -> float | None:
    """Dense-oracle nominal SCR (dB) of the repetition's primary design, if it was written."""
    path = plan.design / "sequence_final.csv"
    return checker.scr_db(path) if path.is_file() else None


def environment() -> dict:
    import numpy

    sha = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
        sha = proc.stdout.strip() or sha
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(),
        **{v: os.environ.get(v) for v in THREAD_VARS},
    }


def layer_metrics(tr, per_command: dict, traced_wall: float, untraced_wall: float, reg: dict) -> dict:
    """Per-layer metrics (name -> (value, unit)) from one traced sequence."""
    seq, worst, c = "objectives.SequenceObjective.", "objectives.WorstCaseObjective.", tr.counts

    def mean_us(name):
        return tr.total_s[name] / tr.calls[name] * 1e6 if tr.calls[name] else 0.0

    tangent_fns = ("project_tangent", "inner", "norm", "zero_tangent", "transport", "random_tangent")
    mc_s = tr.total_s["driver.monte_carlo_scr"]
    m = {
        "radar.bank.apply.calls": (tr.calls["radar.ClutterBank.apply"], "count"),
        "radar.bank.apply.us": (mean_us("radar.ClutterBank.apply"), "us"),
        "radar.bank.adjoint.calls": (tr.calls["radar.ClutterBank.apply_adjoint"], "count"),
        "radar.bank.adjoint.us": (mean_us("radar.ClutterBank.apply_adjoint"), "us"),
        "radar.bank.self_s": (tr.sum_self(*tr.names("radar.ClutterBank.")), "s"),
        "radar.bank.bytes_computed": (c["radar.bank.bytes"], "B"),
        "radar.staf.s": (tr.total_s["radar.staf"], "s"),
        "radar.clutter_energy.calls": (tr.calls["radar.clutter_energy"], "count"),
        "objectives.seq.hvp.calls": (tr.calls[seq + "rhess"], "count"),
        "objectives.seq.hvp.us": (mean_us(seq + "rhess"), "us"),
        "objectives.seq.hvp.self_s": (tr.sum_self(seq + "rhess", seq + "ehess_dir"), "s"),
        "objectives.seq.cost.calls": (tr.calls[seq + "cost"], "count"),
        "objectives.seq.grad.calls": (tr.calls[seq + "rgrad"], "count"),
        "objectives.worst.hvp.calls": (tr.calls[worst + "rhess"], "count"),
        "objectives.worst.self_s": (tr.sum_self(*tr.names(worst)), "s"),
        "manifold.tangent.constructions": (tr.calls["manifold.TangentVector.__post_init__"], "count"),
        "manifold.tangent.self_s": (
            tr.sum_self(*tr.names("manifold.TangentVector."), *(f"manifold.{f}" for f in tangent_fns)), "s"),
        "manifold.retract.calls": (tr.calls["manifold.retract"], "count"),
        "rtr.solve.calls": (tr.calls["rtr.solve"], "count"),
        "rtr.solve.iters": (c["rtr.iters"], "count"),
        "rtr.solve.capped": (c["rtr.capped"], "count"),
        "rtr.solve.accept_ratio": (c["rtr.accepted"] / c["rtr.iters"] if c["rtr.iters"] else 0.0, "ratio"),
        "rtr.tcg.calls": (tr.calls["rtr.tcg"], "count"),
        "rtr.tcg.inner_iters": (tr.edge_calls("rtr.tcg", ".rhess"), "count"),
        "rtr.tcg.self_s": (tr.self_s["rtr.tcg"], "s"),
        **{f"rtr.tcg.stop.{r}": (c[f"tcg.stop.{r}"], "count") for r in TCG_STOPS},
        "rcg.solve.s": (tr.total_s["rcg.solve_rcg"], "s"),
        "rcg.solve.iters": (c["rcg.iters"], "count"),
        "rcg.cost_evals": (tr.edge_calls("rcg.solve_rcg", ".cost"), "count"),
        "driver.optimize.s": (tr.total_s["driver.optimize"], "s"),
        "driver.outer_iters": (c["driver.outer_iters"], "count"),
        "driver.converged": (c["driver.converged"], "count"),
        "driver.hessian_spectrum.s": (tr.total_s["driver.hessian_spectrum"], "s"),
        "driver.monte_carlo.s": (mc_s, "s"),
        "driver.monte_carlo.trials_per_s": (c["driver.mc_trials"] / mc_s if mc_s else 0.0, "1/s"),
        "driver.eps": (reg["eps"], "1"),
        "driver.two_n": (reg["two_n"], "1"),
        "driver.eps_ge_2n": (int(reg["eps_ge_2n"]), "flag"),
        "fileio.write.s": (tr.sum_total(*tr.names("fileio.write_")), "s"),
        "fileio.write.bytes": (c["fileio.write.bytes"], "B"),
        "fileio.read.s": (tr.sum_total(*tr.names("fileio.read_")), "s"),
        "scenario.load.s": (tr.total_s["scenario.load_scenario"], "s"),
        **{f"cli.{name}.s": (per_command[name], "s") for name in CLI_COMMANDS},
        "trace.wall_s": (traced_wall, "s"),
        "trace.overhead_s": (traced_wall - untraced_wall, "s"),
    }
    return m


def print_top_spans(tr, limit: int = 15) -> None:
    ranked = sorted(tr.self_s, key=tr.self_s.get, reverse=True)[:limit]
    for name in ranked:
        print(f"# span {name}: calls={tr.calls[name]} total_s={tr.total_s[name]:.4f} self_s={tr.self_s[name]:.4f}")


def bench(spawner: Spawner, workload: str, seed: int, seconds: float, trace: bool, tiny: bool) -> dict:
    from checks import Checker
    from workloads import prepare

    env = child_env()
    work = WORK / f"{workload}-{seed}-{os.getpid()}"
    try:
        plan = prepare(workload, ROOT, work / "rep0", seed, 0, tiny)
        checker = Checker(plan.config)
        reg = checker.regime()
        print("# env " + json.dumps(environment(), sort_keys=True))
        print("# regime " + json.dumps(reg, sort_keys=True))
        if trace:
            sys.path.insert(0, str(ROOT / "src"))
            from tracer import Tracer

            untraced_wall, _, _, codes = run_untraced(spawner, plan, env)
            failed = check(plan, codes, checker)
            plan = prepare(workload, ROOT, work / "rep0", seed, 0, tiny)
            tracer = Tracer()
            traced_wall, per_command, codes = run_traced(plan, tracer)
            failed += check(plan, codes, Checker(plan.config))
            print_top_spans(tracer)
            metrics = layer_metrics(tracer, per_command, traced_wall, untraced_wall, reg)
            return _result(2 * len(plan.commands), failed, metrics)

        setup_s = measure_setup(spawner, plan.config, env)
        probe = SpeedProbe(PROBE_EVERY_S)
        walls, cpus, scrs, rep_s = [], [], [], []
        peak_kb = 0
        attempted = failed = rep = 0
        started = perf_counter()
        while True:
            wall, cpu, rep_peak_kb, codes = run_untraced(spawner, plan, env, probe)
            peak_kb = max(peak_kb, rep_peak_kb)
            attempted += len(codes)
            failed += check(plan, codes, checker)
            walls.append(wall)
            cpus.append(cpu)
            scr = design_scr_db(plan, checker)
            if scr is not None:
                scrs.append(scr)
            # Stop once another repetition would end more than half of one
            # past the window, so a run measures about `seconds` on average
            # however long a repetition is.
            elapsed = perf_counter() - started
            rep_s.append(elapsed - sum(rep_s))
            if elapsed + statistics.median(rep_s) / 2 >= seconds or elapsed + 1.5 * max(rep_s) > RUN_LIMIT_S:
                break
            rep += 1
            shutil.rmtree(work / f"rep{rep - 1}")
            plan = prepare(workload, ROOT, work / f"rep{rep}", seed, rep, tiny)
            checker = Checker(plan.config)
        # Ratio of means: the probe samples at even steps of command time,
        # and its own jitter averages out over the run before it divides.
        speed = probe.scale()
        print(f"# repetitions {len(walls)} wall_s {walls} probe_s {probe.samples}")
        metrics = {
            "wall_ref_s": (statistics.fmean(walls) * speed, "s"),
            "cpu_ref_s": (statistics.fmean(cpus) * speed, "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (peak_kb / 1024.0, "MB"),
            "nominal_scr_db": (statistics.median(scrs) if scrs else None, "dB"),
            "ok_frac": (1.0 - failed / attempted, "ratio"),
        }
        return _result(attempted, failed, metrics)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _result(attempted: int, failed: int, metrics: dict) -> dict:
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    from workloads import NAMES

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="shrink every workload (smoke test)")
    args = parser.parse_args(argv)
    required = [ROOT / "src" / "wrtr" / "__init__.py", ROOT / "configs" / "scenario2.json"]
    missing = [str(p.relative_to(ROOT)) for p in required if not p.is_file()]
    if missing:
        print(f"bench: not a wrtr source checkout, missing {missing}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"  # before anything imports numpy
    # One vCPU for this process and, by inheritance, every child, so the
    # speed probe runs where the commands run.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    spawner = Spawner()
    try:
        result = bench(spawner, args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    finally:
        spawner.close()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Paths, child-process plumbing and set-up timing shared by the
workloads."""

from __future__ import annotations

import contextlib
import os
import subprocess
import sys
import tempfile
import threading
import time

from perfbench import metrics

#: Checkout root: the benchmark only reads and writes below it.
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

#: Scratch space (sockets, result caches, trace dumps), under the root.
WORK_DIR = ".bench_work"

#: Set-up repetitions per run; ``setup_s`` is their median.
SETUP_REPEATS = 5


def child_env(**extra) -> dict:
    """Environment for a child Python process running the checkout's
    sources, with no ``REPRO_*`` setting inherited from the caller.

    ``PYTHONDONTWRITEBYTECODE`` is dropped too, so children cache
    bytecode under the checkout (``__pycache__/``, ignored by git).
    Where the caller set it, every probe compiled the sources afresh:
    ``setup_s`` then read 0.62 s instead of 0.40 s and spread 0.27,
    and the figure depended on the caller's environment."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")
           and key != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPATH"] = SRC
    env.update(extra)
    return env


def scratch_dir(label: str) -> str:
    """A fresh directory under :data:`WORK_DIR`, relative to the root
    (short enough for a UNIX socket path wherever the checkout is)."""
    os.makedirs(WORK_DIR, exist_ok=True)
    return os.path.relpath(tempfile.mkdtemp(prefix=label + "-",
                                            dir=WORK_DIR))


#: A set-up probe still running after this long is killed.
PROBE_TIMEOUT_S = 120.0


def probe_seconds(workload: str, seed: int, seconds: float) -> float:
    """Wall time of a fresh interpreter importing what ``workload``
    needs and generating its inputs (``perfbench/probe.py``).  The wait
    blocks until the probe exits: ``subprocess.run`` with a timeout
    polls every 50 ms, which rounded the figure up to that step.  A
    timer kills a probe that hangs."""
    started = time.monotonic()
    proc = subprocess.Popen([sys.executable,
                             os.path.join(ROOT, "perfbench", "probe.py"),
                             workload, str(seed), str(seconds)],
                            env=child_env())
    watchdog = threading.Timer(PROBE_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        code = proc.wait()
    finally:
        watchdog.cancel()
    elapsed = time.monotonic() - started
    if code != 0:
        raise subprocess.CalledProcessError(code, proc.args)
    return elapsed


@contextlib.contextmanager
def speed_sampler(interval: float):
    """Yield a :class:`metrics.Speed` that, once the block has ended,
    holds the samples a sampler process (``perfbench/sampler.py``) took
    every ``interval`` seconds while the block ran."""
    speed = metrics.Speed()
    proc = subprocess.Popen([sys.executable,
                             os.path.join(ROOT, "perfbench", "sampler.py"),
                             str(interval)],
                            stdout=subprocess.PIPE, text=True,
                            env=child_env())
    try:
        yield speed
    finally:
        proc.terminate()
        out, _ = proc.communicate(timeout=30)
    for line in out.splitlines():
        at, seconds = line.split()
        speed.add(float(at), float(seconds))
    if not speed.times:
        raise RuntimeError("the speed sampler took no sample")


def setup_seconds(workload: str, seed: int, seconds: float,
                  extra=None) -> float:
    """Median over :data:`SETUP_REPEATS` set-ups, each scaled to the
    reference machine speed (:class:`metrics.Speed`); ``extra(i)`` adds
    work-specific set-up (e.g. a daemon boot) to repetition ``i`` and
    returns its seconds."""
    speed = metrics.Speed()
    speed.sample()
    samples = []
    for index in range(SETUP_REPEATS):
        started = time.monotonic()
        elapsed = probe_seconds(workload, seed, seconds)
        if extra is not None:
            elapsed += extra(index)
        finished = time.monotonic()
        speed.sample()
        samples.append(elapsed * speed.factor(started, finished))
    return metrics.median(samples)

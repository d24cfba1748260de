"""Shared test helpers."""

import contextlib
import json
import os
import signal
import subprocess
import sys

import pytest

import opalg


def _run_job(code: str, *args: str, hash_seed: int = None):
    """Run ``code`` in a fresh interpreter that imports this checkout's
    ``opalg`` and the tests' ``oracles``, under ``PYTHONHASHSEED=hash_seed``
    when one is given, and return the JSON value it prints."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(opalg.__file__)))
    tests = os.path.dirname(os.path.abspath(__file__))
    path = os.pathsep.join(filter(None, [src, tests,
                                         os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    if hash_seed is not None:
        env["PYTHONHASHSEED"] = str(hash_seed)
    done = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=300,
                          check=True)
    return json.loads(done.stdout)


@pytest.fixture
def run_job():
    return _run_job


@contextlib.contextmanager
def _ceiling(seconds: float):
    """Fail the test when the block runs longer than ``seconds`` of wall
    time: an interval timer interrupts it, so a runaway computation fails
    the test instead of stalling the suite."""
    def expire(signum, frame):
        pytest.fail(f"ran past its {seconds} s ceiling")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def ceiling():
    return _ceiling

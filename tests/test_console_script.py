"""The ``kgqa`` console script at the process boundary.

The in-process CLI tests see what ``cli.main`` returns; these see the exit
status and streams of ``sys.exit(main())`` in a separate process. They run
``kgqa`` from PATH when it is installed, and ``python -m kgqa_engine.cli``
with this checkout's ``src`` otherwise. No inherited ``KGQA_*`` setting
reaches the child.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

from scenarios import FIXTURES, load_meta

HAPPY = FIXTURES / "happy_path"
SRC = Path(__file__).resolve().parent.parent / "src"
INSTALLED = shutil.which("kgqa")


def kgqa(*args: str, **env: str) -> subprocess.CompletedProcess:
    """Run ``kgqa args`` with ``env`` as its only ``KGQA_*`` settings."""
    child_env = {k: v for k, v in os.environ.items() if not k.startswith("KGQA_")} | env
    if INSTALLED:
        command = [INSTALLED]
    else:
        command = [sys.executable, "-m", "kgqa_engine.cli"]
        child_env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), child_env.get("PYTHONPATH")]))
    return subprocess.run([*command, *args], env=child_env, capture_output=True, text=True, timeout=60)


def run(out_dir: Path, *flags: str, **env: str) -> subprocess.CompletedProcess:
    """``kgqa run`` on the happy_path question and graph, tracing into ``out_dir``."""
    question = load_meta("happy_path")["question"]
    return kgqa("run", "--question", question, "--topic-entity", "m.0nile", "--kg-file", str(HAPPY / "kg.tsv"),
                "--out-dir", str(out_dir), *flags, **env)


def replay(out_dir: Path) -> subprocess.CompletedProcess:
    return kgqa("replay", "--trace", str(out_dir / "run.trace.jsonl"), "--kg-file", str(HAPPY / "kg.tsv"))


def test_answer_exits_0_and_its_replay_too(tmp_path):
    ran = run(tmp_path, "--script", str(HAPPY / "script.json"))
    assert (ran.returncode, ran.stdout) == (0, "Cairo\n"), ran.stderr
    replayed = replay(tmp_path)
    assert (replayed.returncode, replayed.stdout) == (0, "Cairo\n"), replayed.stderr


def test_invalid_config_from_the_environment_exits_2(tmp_path):
    ran = run(tmp_path, "--script", str(HAPPY / "script.json"), KGQA_HTTP_TIMEOUT="0")
    assert (ran.returncode, ran.stdout) == (2, "")
    assert ran.stderr.startswith("invalid config: http_timeout")


def test_run_without_a_chat_endpoint_answers_and_its_replay_exits_0(tmp_path):
    # nothing listens on port 9; no retry means no backoff sleep
    ran = run(tmp_path, "--chat-url", "http://127.0.0.1:9/v1", KGQA_HTTP_RETRIES="0")
    assert (ran.returncode, ran.stdout) == (0, "unknown\n"), ran.stderr
    # the trace records the failed call, so the replay needs no endpoint
    replayed = replay(tmp_path)
    assert (replayed.returncode, replayed.stdout) == (0, "unknown\n"), replayed.stderr

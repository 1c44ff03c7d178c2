import os
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def src_env(extra=None):
    """The environment for a child process that runs favlab: os.environ with
    this checkout's src/ first on PYTHONPATH, so that ``python -m
    favlab.cli`` and the scripts import it without an installed package or
    a PYTHONPATH set by the caller, then ``extra``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    env.update(extra or {})
    return env

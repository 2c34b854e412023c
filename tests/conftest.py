import contextlib
import io
import os
from dataclasses import dataclass
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "ci",
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


@pytest.fixture
def rng():
    """Fresh deterministic generator per test."""
    return np.random.default_rng(20260823)


@dataclass
class Result:
    exit_code: int
    output: str


class CliRunner:
    """Runs a CLI ``main`` in-process: ``invoke`` returns its exit code and
    what it wrote to stdout and stderr together, under ``env`` set in
    ``os.environ`` for the call."""

    def invoke(self, main, args, env=None):
        out = io.StringIO()
        with mock.patch.dict(os.environ, env or {}):
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
                with pytest.raises(SystemExit) as exit_:
                    main(args)
        return Result(exit_.value.code, out.getvalue())

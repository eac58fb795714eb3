"""Every row of the CLI contract table, run in-process through `cli.main`."""

import contextlib
import io

import pytest

from oscgeo.cli import main

from cli_contract import CHECKS, failure
from test_cli import time_limit


@pytest.mark.parametrize("check", CHECKS, ids=[" ".join(c.argv[:2]) for c in CHECKS])
def test_cli_contract(check):
    out = io.StringIO()
    limit = time_limit(check.seconds) if check.seconds else contextlib.nullcontext()
    with limit, contextlib.redirect_stdout(out):
        code = main(list(check.argv))
    assert failure(check, code, out.getvalue()) is None, check.why

"""Every command of ``scripts/cli_outputs.py`` against its golden record.

``goldens/cli_records.json`` holds, per command, the exit code, the
``error:`` line and the parsed records, as ``scripts/cli_outputs.py
--records`` wrote them (each command in a child process on one BLAS thread).
Here each command runs in-process through ``cli.main``, with scipy's BLAS
pool on one thread, and must match: keys (in order), exit codes, integers,
booleans, strings and nulls exactly; floats to ``RTOL`` relative, or within
``ATOL`` for values near 0.

A change that moves a number regenerates the file with
``python3 scripts/cli_outputs.py --records . goldens/cli_records.json`` and
says which numbers moved and why.
"""

import importlib.util
import json
import math
from pathlib import Path

import pytest

from vequil import _lapack
from vequil.cli import main
from vequil.config import parse_config

REPO = Path(__file__).resolve().parents[1]
GOLDEN = json.loads((REPO / "goldens" / "cli_records.json").read_text())

_spec = importlib.util.spec_from_file_location("cli_outputs", REPO / "scripts" / "cli_outputs.py")
cli_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cli_outputs)
COMMANDS = cli_outputs.commands(REPO)

# Floats match to RTOL relative (the refactor accuracy bound), or to ATOL
# absolute: near 0 a value is the round-off of unit-scale quantities (a
# Frostman violation of 1e-15, a weight of 1e-18), and ATOL is about 500
# ulps of 1.
RTOL, ATOL = 1e-12, 1e-13
# Round-off diagnostics: their bits follow the summation order of a product,
# so each is checked against its command's tolerance instead: the same side of
# it as the golden value.
ROUND_OFF = ("kkt_residual", "potential_residual")


def tolerance(argv: list[str], key: str) -> float:
    parsed = parse_config(argv[1])
    return parsed.balayage_tol if key == "potential_residual" else parsed.problem.config.grad_tol


def assert_matches(got, want, where: str, argv: list[str]) -> None:
    assert type(got) is type(want), where
    if isinstance(want, dict):
        assert list(got) == list(want), where
        for key in want:
            if key in ROUND_OFF:
                tol, value = tolerance(argv, key), got[key]
                assert 0.0 <= value < math.inf and (value <= tol) == (want[key] <= tol), \
                    f"{where}.{key}"
            else:
                assert_matches(got[key], want[key], f"{where}.{key}", argv)
    elif isinstance(want, list):
        assert len(got) == len(want), where
        for k, (g, w) in enumerate(zip(got, want)):
            assert_matches(g, w, f"{where}[{k}]", argv)
    elif isinstance(want, float):
        assert (math.isnan(got) and math.isnan(want)) or math.isclose(
            got, want, rel_tol=RTOL, abs_tol=ATOL), f"{where}: {got!r} != {want!r}"
    else:
        assert got == want, where


def test_the_golden_file_lists_every_command():
    assert [entry["label"] for entry in GOLDEN] == [label for label, _ in COMMANDS]


@pytest.mark.parametrize("label, argv, golden",
                         [(label, argv, entry) for (label, argv), entry in zip(COMMANDS, GOLDEN)],
                         ids=[label for label, _ in COMMANDS])
def test_command_matches_its_golden_record(label, argv, golden, capsys, monkeypatch):
    monkeypatch.chdir(REPO)
    with _lapack.one_blas_thread():
        code = main(argv)
    captured = capsys.readouterr()
    got = cli_outputs.outcome(label, code, captured.out, captured.err)
    assert_matches(got, golden, label, argv)

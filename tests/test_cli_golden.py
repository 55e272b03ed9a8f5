"""Golden bytes of the command-line interface.

Each case runs `barrierwalk.cli.main` in process and compares its exit code,
standard output, standard error and every file it writes with the values
frozen in golden/cli.json.  The cases cover each subcommand, the config-file
path and its errors, argparse errors and every --help page, so any change to
what a user sees shows up here.

After a deliberate change of output, rewrite the golden file with

    PYTHONPATH=src python tests/test_cli_golden.py

which also prints the names of the cases whose bytes changed, were added or
were removed, so a regeneration can be checked against what it declares.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path
from unittest import mock

import pytest

from barrierwalk.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden" / "cli.json"

# name -> (argv, config file text or None); "{tmp}" in argv is a scratch
# directory, "{cfg}" the config file written there.
CASES: dict[str, tuple[list[str], str | None]] = {
    "simulate-full": (
        ["simulate", "--n", "16", "--beta", "0.4", "--corrected", "--steps", "12"], None),
    "simulate-reduced": (
        ["simulate", "--n", "16", "--beta", "0.4", "--corrected", "--steps", "12",
         "--mode", "dtqw-reduced"], None),
    "simulate-default-window-to-file": (
        ["simulate", "--n", "16", "--beta", "0.4", "--marked", "3", "--out", "{tmp}/curve.csv"],
        None),
    "simulate-over-cap": (["simulate", "--n", "8192"], None),
    # t* = 7853981309300 must print every digit, and the steps as integers.
    "simulate-reduced-huge-n": (
        ["simulate", "--mode", "dtqw-reduced", "--n", "10000000000000000",
         "--beta", "0.9999999999", "--corrected", "--steps", "2"], None),
    "simulate-missing-n": (["simulate"], None),
    "simulate-bad-int": (["simulate", "--n", "16", "--steps", "abc"], None),
    "simulate-bad-mode": (["simulate", "--n", "16", "--mode", "ctqw"], None),
    "simulate-blocked-corrected": (["simulate", "--n", "16", "--beta", "1", "--corrected"], None),
    "sweep-fallback": (
        ["sweep", "--n", "8,64", "--beta", "0,0.5", "--corrected", "--steps", "30",
         "--max-full-n", "32", "--out", "{tmp}/sweep.csv"], None),
    # the benchmark's sweep flags: a "0.0" beta list, --workers 2 and --out
    "sweep-to-file": (
        ["sweep", "--n", "8,16", "--beta", "0.0,0.4,0.8", "--corrected", "--steps", "20",
         "--max-full-n", "8", "--workers", "2", "--out", "{tmp}/sweep.csv"], None),
    "sweep-blocked": (["sweep", "--n", "16", "--beta", "0.5,1", "--steps", "10"], None),
    "sweep-workers": (
        ["sweep", "--n", "8,16", "--beta", "0,0.5", "--corrected", "--steps", "25",
         "--workers", "2"], None),
    "ctqw-corrected": (
        ["ctqw", "--n", "64", "--epsilon", "0.5", "--corrected", "--samples", "9",
         "--t-max", "6"], None),
    "ctqw-miscalibrated": (["ctqw", "--n", "64", "--epsilon", "0.5", "--samples", "9"], None),
    "ctqw-gamma-to-file": (
        ["ctqw", "--n", "16", "--gamma", "0.05", "--samples", "5", "--out", "{tmp}/ctqw.csv"],
        None),
    "ctqw-corrected-with-gamma": (
        ["ctqw", "--n", "64", "--epsilon", "0.5", "--corrected", "--gamma", "0.1"], None),
    "plan": (["plan", "--n", "1024", "--beta", "0.8"], None),
    "plan-blocked": (["plan", "--n", "1024", "--beta", "1"], None),
    "verify-pass": (["verify", "--n", "3,4", "--phi", "0,0.3", "--steps", "40"], None),
    "verify-force-eta-zero": (
        ["verify", "--n", "4", "--phi", "0,0.3", "--steps", "20", "--force-eta-zero"], None),
    # N = 100 sums the bb class pairwise, so a change to its summation order
    # shows.
    "verify-n100": (["verify", "--n", "100", "--phi", "0", "--steps", "100"], None),
    # 16,256 amplitudes, past the 10,000 above which OpenBLAS would split a
    # dot product across threads; verify's norms take no BLAS, so these bytes
    # hold on one CPU and on several (CI also runs the suite under taskset).
    "verify-n128": (["verify", "--n", "128", "--phi", "0", "--steps", "100"], None),
    # verify has no reduced fallback, so above the default cap it exits 2.
    "verify-over-cap": (["verify", "--n", "4097", "--steps", "1"], None),
    # Near pi/2 the unscaled phase-matching defect rounds to 1e-8 and failed
    # a correct walk.
    "verify-near-blocking": (["verify", "--n", "16", "--phi", "1.5707", "--steps", "2"], None),
    "config-simulate": (
        ["simulate", "--config", "{cfg}", "--steps", "8"],
        "# comment\nn = 16\nbeta = 0.4\ncorrected = true\nsteps = 30\nmax-full-n = 64\n"),
    "config-sweep": (
        ["sweep", "--config", "{cfg}"], "n = 8, 16\nbeta = 0 0.5\ncorrected = yes\nsteps = 20\n"),
    "config-unknown-key": (["simulate", "--config", "{cfg}"], "n = 16\nworkers = 2\n"),
    "config-mode-ctqw": (["simulate", "--config", "{cfg}"], "n = 16\nmode = ctqw\n"),
    "config-bad-value": (["simulate", "--config", "{cfg}"], "n = 16\ncorrected = maybe\n"),
    "config-malformed": (["plan", "--config", "{cfg}"], "n 16\n"),
    "config-missing-file": (["plan", "--config", "{tmp}/missing.cfg"], None),
    "unknown-command": (["nonsense"], None),
    "help": (["--help"], None),
    "help-simulate": (["simulate", "--help"], None),
    "help-sweep": (["sweep", "--help"], None),
    "help-verify": (["verify", "--help"], None),
    "help-ctqw": (["ctqw", "--help"], None),
    "help-plan": (["plan", "--help"], None),
}


def run_case(name: str) -> dict:
    """Run one case in a fresh directory; paths in the output read "{tmp}"."""
    argv, config = CASES[name]
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "run.cfg")
        if config is not None:
            Path(cfg).write_text(config, encoding="utf-8")
        args = [arg.replace("{tmp}", tmp).replace("{cfg}", cfg) for arg in argv]
        stdout, stderr = io.StringIO(), io.StringIO()
        # argparse wraps help text to the terminal width it reads from COLUMNS
        with mock.patch.dict(os.environ, {"COLUMNS": "80"}), \
                contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(args)
        files = {
            path.name: path.read_bytes().decode("utf-8")
            for path in sorted(Path(tmp).iterdir())
            if path.name != "run.cfg"
        }
    return {
        "exit": code,
        "stdout": stdout.getvalue().replace(tmp, "{tmp}"),
        "stderr": stderr.getvalue().replace(tmp, "{tmp}"),
        "files": files,
    }


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_golden(name):
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))[name]
    assert run_case(name) == expected


def test_golden_file_covers_every_case():
    assert sorted(json.loads(GOLDEN.read_text(encoding="utf-8"))) == sorted(CASES)


def test_golden_changes_names_each_kind():
    old = {"kept": {"exit": 0}, "edited": {"exit": 0}, "dropped": {"exit": 2}}
    new = {"kept": {"exit": 0}, "edited": {"exit": 1}, "new": {"exit": 0}}
    assert golden_changes(old, new) == {
        "changed": ["edited"], "added": ["new"], "removed": ["dropped"]
    }


def golden_changes(old: dict, new: dict) -> dict[str, list[str]]:
    """Names of the cases whose results changed, were added or were removed."""
    return {
        "changed": sorted(name for name in old.keys() & new.keys() if old[name] != new[name]),
        "added": sorted(new.keys() - old.keys()),
        "removed": sorted(old.keys() - new.keys()),
    }


if __name__ == "__main__":
    old = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}
    results = {name: run_case(name) for name in sorted(CASES)}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(results, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(results)} cases to {GOLDEN}", file=sys.stderr)
    for kind, names in golden_changes(old, results).items():
        print(f"{kind}: {', '.join(names) or '(none)'}", file=sys.stderr)

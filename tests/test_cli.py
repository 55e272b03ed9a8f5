"""Experiment layer and command-line surface."""

import io
import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from barrierwalk import experiments
from barrierwalk.cli import main
from barrierwalk.ctqw import corrected_gamma, ctqw_runtime, ctqw_success_curve
from barrierwalk.experiments import (
    CtqwSpec,
    WalkSpec,
    phi_from_beta,
    run_experiment,
    run_sweep,
    run_verification,
    summary_line,
    write_curve_csv,
    write_sweep_csv,
)
from barrierwalk.phases import (
    BlockedRegimeError,
    build_phase_plan,
    corrected_eta,
    runtime_t_star,
    runtime_t_star_exact,
)


def test_phi_from_beta():
    assert phi_from_beta(0.0) == 0.0
    assert phi_from_beta(1.0) == pytest.approx(math.pi / 2, rel=1e-15)
    assert phi_from_beta(0.8) == pytest.approx(math.asin(0.8), rel=1e-15)
    for bad in (-0.1, 1.1):
        with pytest.raises(ValueError):
            phi_from_beta(bad)


def test_spec_validation():
    with pytest.raises(ValueError):
        WalkSpec(mode="dtqw", n_vertices=8)
    with pytest.raises(ValueError):
        WalkSpec(mode="dtqw-full", n_vertices=2)
    with pytest.raises(ValueError):
        WalkSpec(mode="dtqw-full", n_vertices=8, beta=1.5)
    with pytest.raises(BlockedRegimeError):
        WalkSpec(mode="dtqw-full", n_vertices=8, beta=1.0, corrected=True)
    # a knob of the other walk family is not a field of the spec
    with pytest.raises(TypeError):
        WalkSpec(mode="dtqw-full", n_vertices=8, epsilon=0.5)
    with pytest.raises(TypeError):
        WalkSpec(mode="dtqw-full", n_vertices=8, gamma=0.1)
    with pytest.raises(TypeError):
        WalkSpec(mode="dtqw-full", n_vertices=8, t_max=5.0)
    with pytest.raises(TypeError):
        CtqwSpec(n_vertices=8, beta=0.5)
    with pytest.raises(TypeError):
        CtqwSpec(n_vertices=8, steps=10)
    with pytest.raises(ValueError):
        CtqwSpec(n_vertices=8, corrected=True, gamma=0.1)
    with pytest.raises(ValueError):
        CtqwSpec(n_vertices=8, samples=1)
    with pytest.raises(ValueError):
        WalkSpec(mode="dtqw-full", n_vertices=8, marked=8)
    # the blocked point is allowed when uncorrected
    WalkSpec(mode="dtqw-full", n_vertices=8, beta=1.0)


def test_full_and_reduced_modes_agree():
    kwargs = dict(n_vertices=16, beta=0.4, corrected=True, steps=60)
    full = run_experiment(WalkSpec(mode="dtqw-full", **kwargs))
    reduced = run_experiment(WalkSpec(mode="dtqw-reduced", **kwargs))
    assert np.abs(full.probabilities - reduced.probabilities).max() < 1e-10
    buf_full, buf_reduced = io.StringIO(), io.StringIO()
    write_curve_csv(full, buf_full)
    write_curve_csv(reduced, buf_reduced)
    full_rows = buf_full.getvalue().splitlines()
    reduced_rows = buf_reduced.getvalue().splitlines()
    assert full_rows[0] == reduced_rows[0] == "step,probability"
    assert len(full_rows) == len(reduced_rows) == 62


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(3, 24),
    beta=st.floats(0.0, 1.0, exclude_max=True),
    corrected=st.booleans(),
    steps=st.integers(0, 60),
    data=st.data(),
)
def test_full_matches_reduced_for_any_marked_vertex(n, beta, corrected, steps, data):
    # The reduced engine never sees the marked vertex; the full one does.
    marked = data.draw(st.integers(1, n - 1), label="marked")
    kwargs = dict(n_vertices=n, beta=beta, corrected=corrected, steps=steps, marked=marked)
    full = run_experiment(WalkSpec(mode="dtqw-full", **kwargs))
    reduced = run_experiment(WalkSpec(mode="dtqw-reduced", **kwargs))
    assert np.abs(full.probabilities - reduced.probabilities).max() < 1e-10


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(2, 10**9),
    epsilon=st.floats(0.0, 1.0, exclude_max=True),
    gamma=st.none() | st.floats(1e-9, 10.0),
    corrected=st.booleans(),
    t_max=st.none() | st.floats(1e-3, 1e3),
    samples=st.integers(2, 40),
)
def test_ctqw_spec_hands_its_rate_to_ctqw_params(
    n, epsilon, gamma, corrected, t_max, samples
):
    assume(not (corrected and gamma is not None))
    spec = CtqwSpec(n, epsilon, gamma, corrected, t_max, samples)
    # the rate the docstring promises: corrected, else gamma, else 1/N
    if corrected:
        expected = corrected_gamma(n, epsilon)
    else:
        expected = 1.0 / n if gamma is None else gamma
    assert spec.params().rate == expected
    if corrected:
        assert spec.predicted_peak() == ctqw_runtime(n)
    result = run_experiment(spec)
    grid_end = 1.5 * ctqw_runtime(n) if t_max is None else t_max
    assert np.array_equal(result.x, np.linspace(0.0, grid_end, samples))
    curve = ctqw_success_curve(spec.params(), result.x)
    assert np.array_equal(result.probabilities, curve)


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(3, 10**12),
    beta=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
    corrected=st.booleans(),
)
def test_walk_spec_reads_its_phase_plan(n, beta, corrected):
    assume(not (corrected and beta == 1.0))
    spec = WalkSpec(n, beta, corrected, mode="dtqw-reduced")
    phi = phi_from_beta(beta)
    assert spec.plan == build_phase_plan(n, phi)
    assert spec.eta == (corrected_eta(phi, n) if corrected else 0.0)
    if corrected:
        window = math.ceil(1.35 * runtime_t_star_exact(phi, n))
    else:
        window = math.ceil(2.8 * runtime_t_star_exact(0.0, n))
    assert spec.resolved_steps() == window
    if corrected or beta == 0.0:
        assert spec.predicted_peak() == float(runtime_t_star(phi, n))
    else:
        assert spec.predicted_peak() is None


def test_result_fields_and_round_trip():
    spec = WalkSpec(mode="dtqw-full", n_vertices=16, beta=0.4, corrected=True, steps=40)
    result = run_experiment(spec)
    assert result.probabilities.shape == (41,)
    assert result.x[0] == 0 and result.x[-1] == 40
    assert result.probabilities[0] == pytest.approx(1.0 / 16.0, abs=1e-15)
    assert result.peak_probability == result.probabilities[result.peak_index]
    assert result.peak_x == result.x[result.peak_index]
    # identical spec reproduces identical bytes
    again = run_experiment(result.spec)
    first, second = io.StringIO(), io.StringIO()
    write_curve_csv(result, first)
    write_curve_csv(again, second)
    assert first.getvalue() == second.getvalue()


def test_default_windows_contain_peak():
    for beta in (0.0, 0.8):
        spec = WalkSpec(mode="dtqw-reduced", n_vertices=256, beta=beta, corrected=True)
        result = run_experiment(spec)
        assert 0 < result.peak_index < len(result.probabilities) - 1


def test_summary_lines():
    corrected = run_experiment(
        WalkSpec(mode="dtqw-reduced", n_vertices=64, beta=0.4, corrected=True, steps=30)
    )
    assert "predicted t* = " in summary_line(corrected)
    uncorrected = run_experiment(
        WalkSpec(mode="dtqw-reduced", n_vertices=64, beta=0.4, steps=30)
    )
    assert "no runtime prediction" in summary_line(uncorrected)
    ctqw = run_experiment(CtqwSpec(n_vertices=64, epsilon=0.5, corrected=True))
    assert "predicted peak time" in summary_line(ctqw)
    miscalibrated = run_experiment(
        CtqwSpec(n_vertices=64, epsilon=0.5, samples=50)
    )
    assert "miscalibrated" in summary_line(miscalibrated)


def test_curve_csv_golden_prefix():
    result = run_experiment(WalkSpec(mode="dtqw-full", n_vertices=64, steps=2))
    buf = io.StringIO()
    write_curve_csv(result, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "step,probability"
    assert lines[1] == "0,0.015625"  # 1/64 is exact in decimal
    ctqw = run_experiment(CtqwSpec(n_vertices=64, samples=3, t_max=1.0))
    buf = io.StringIO()
    write_curve_csv(ctqw, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "time,probability"
    assert lines[1] == "0,0.015625"
    assert len(lines) == 4


def test_sweep_rows_and_reduced_fallback():
    rows = run_sweep([8, 64], [0.0, 0.5], corrected=True, steps=30, max_full_n=32)
    assert [(r.n_vertices, r.beta) for r in rows] == [
        (8, 0.0),
        (8, 0.5),
        (64, 0.0),
        (64, 0.5),
    ]
    assert [r.mode for r in rows] == [
        "dtqw-full",
        "dtqw-full",
        "dtqw-reduced",
        "dtqw-reduced",
    ]
    for row in rows:
        assert row.t_star_predicted >= 1
        assert 0.0 <= row.peak_probability <= 1.0


def test_sweep_blocked_point_has_no_prediction():
    (row,) = run_sweep([16], [1.0], corrected=False, steps=10)
    assert row.t_star_predicted is None
    assert row.sigma == 0.0
    assert row.t_star_measured == 0  # nothing ever hops
    buf = io.StringIO()
    write_sweep_csv([row], buf)
    header, line = buf.getvalue().splitlines()
    assert header.startswith("n,beta,eta,sigma,t_star_predicted,")
    assert ",," in line  # empty prediction column


def test_sweep_workers_deterministic():
    # N = 512 also splits each step over threads; more workers than points.
    grid = ([16, 512, 10**6], [0.0, 0.5])
    serial = run_sweep(*grid, corrected=True, steps=25, max_full_n=512, workers=1)
    parallel = run_sweep(*grid, corrected=True, steps=25, max_full_n=512, workers=8)
    assert serial == parallel
    assert [row.mode for row in serial][-2:] == ["dtqw-reduced"] * 2
    with pytest.raises(ValueError):
        run_sweep([], [0.0], corrected=False)
    with pytest.raises(ValueError):
        run_sweep([8], [0.0], corrected=False, workers=0)


def test_sweep_workers_clamped_to_grid_and_cpus(monkeypatch):
    # A recording stand-in for the pool: the clamp is checked without ever
    # starting a thread, whatever count run_sweep asks for.
    seen = []

    class RecordingPool:
        def __init__(self, max_workers):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(experiments, "ThreadPoolExecutor", RecordingPool)
    monkeypatch.setattr(experiments, "_THREADS", 3)
    run_sweep([8], [0.0], corrected=False, steps=3, workers=100_000)
    assert seen == []  # one grid point runs in the calling thread
    run_sweep([8, 16], [0.0, 0.5], corrected=False, steps=3, workers=100_000)
    assert seen == [3]  # four points, three CPUs
    run_sweep([8], [0.0, 0.5], corrected=False, steps=3, workers=100_000)
    assert seen == [3, 2]  # two points
    monkeypatch.setattr(experiments, "_THREADS", 1)
    run_sweep([8, 16], [0.0, 0.5], corrected=False, steps=3, workers=4)
    assert seen == [3, 2]  # one usable CPU: no pool


def test_run_verification_names_and_negative_control():
    checks = run_verification([4], [0.0, 0.3], steps=40)
    assert [c.name for c in checks] == [
        "reduced-unitarity",
        "psi-minus-one-eigenvector",
        "hoyer-residual",
        "symmetry-classes",
        "projection-residual",
        "full-vs-reduced",
        "norm-conservation",
    ]
    assert all(c.passed for c in checks)
    forced = run_verification([4], [0.0, 0.3], steps=40, force_eta_zero=True)
    by_name = {c.name: c for c in forced}
    assert not by_name["hoyer-residual"].passed
    failed = [c.name for c in forced if not c.passed]
    assert failed == ["hoyer-residual"]  # the control breaks nothing else


# --- command-line surface ---


def test_cli_simulate_to_file_and_determinism(tmp_path, capsys):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["simulate", "--n", "16", "--beta", "0.4", "--corrected", "--steps", "30"]
    assert main(argv + ["--out", str(out1)]) == 0
    assert main(argv + ["--out", str(out2)]) == 0
    captured = capsys.readouterr()
    assert "peak probability" in captured.out
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().splitlines()
    assert lines[0] == "step,probability"
    assert len(lines) == 32


def test_cli_simulate_to_stdout(capsys):
    assert main(["simulate", "--n", "16", "--steps", "5"]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("step,probability\n0,0.0625\n")
    assert "peak probability" in captured.err  # summary moved off the CSV stream


def test_cli_simulate_reduced_mode_matches_full(capsys):
    assert main(["simulate", "--n", "16", "--beta", "0.4", "--steps", "20", "--mode", "dtqw-full"]) == 0
    full = capsys.readouterr().out
    assert main(["simulate", "--n", "16", "--beta", "0.4", "--steps", "20", "--mode", "dtqw-reduced"]) == 0
    reduced = capsys.readouterr().out
    full_probs = [float(line.split(",")[1]) for line in full.splitlines()[1:]]
    reduced_probs = [float(line.split(",")[1]) for line in reduced.splitlines()[1:]]
    assert max(abs(a - b) for a, b in zip(full_probs, reduced_probs)) < 1e-10


def test_cli_usage_errors(capsys):
    assert main(["simulate"]) == 2  # missing --n
    assert main(["simulate", "--n", "16", "--beta", "1.5"]) == 2
    assert main(["simulate", "--n", "16", "--beta", "1", "--corrected"]) == 2
    assert main(["simulate", "--n", "8192"]) == 2  # over the full-space cap
    assert main(["simulate", "--n", "16", "--steps", "abc"]) == 2  # argparse error
    assert main(["nonsense"]) == 2
    capsys.readouterr()


def test_cli_unwritable_out_is_exit_3(tmp_path, capsys):
    missing_dir = tmp_path / "no" / "such" / "dir.csv"
    assert main(["simulate", "--n", "16", "--steps", "3", "--out", str(missing_dir)]) == 3
    assert "error:" in capsys.readouterr().err


def test_cli_config_file_and_precedence(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text(
        "# comment\n"
        "n = 16\n"
        "beta = 0.4\n"
        "corrected = true\n"
        "steps = 30\n"
        "max-full-n = 64\n"  # hyphens normalize to underscores
    )
    assert main(["simulate", "--config", str(config)]) == 0
    from_config = capsys.readouterr().out
    assert main(
        ["simulate", "--n", "16", "--beta", "0.4", "--corrected", "--steps", "30"]
    ) == 0
    from_flags = capsys.readouterr().out
    assert from_config == from_flags
    # explicit flag wins over the config value
    assert main(["simulate", "--config", str(config), "--steps", "5"]) == 0
    overridden = capsys.readouterr().out
    assert len(overridden.splitlines()) == 7


def test_cli_config_errors(tmp_path, capsys):
    bad_key = tmp_path / "bad_key.cfg"
    bad_key.write_text("n = 16\nworkers = 2\n")  # workers is not a simulate option
    assert main(["simulate", "--config", str(bad_key)]) == 2
    assert "workers" in capsys.readouterr().err
    malformed = tmp_path / "malformed.cfg"
    malformed.write_text("n 16\n")
    assert main(["simulate", "--config", str(malformed)]) == 2
    capsys.readouterr()
    assert main(["simulate", "--config", str(tmp_path / "missing.cfg")]) == 2
    assert "cannot read config" in capsys.readouterr().err
    bad_value = tmp_path / "bad_value.cfg"
    bad_value.write_text("n = 16\ncorrected = maybe\n")
    assert main(["simulate", "--config", str(bad_value)]) == 2
    capsys.readouterr()


def test_cli_verify_pass_and_boundary(capsys):
    assert main(["verify", "--n", "3,4", "--phi", "0,0.3", "--steps", "40"]) == 0
    captured = capsys.readouterr()
    assert "verify: PASS (7/7 checks)" in captured.out
    assert captured.out.count("): PASS") == 7


def test_cli_verify_negative_control(capsys):
    code = main(
        ["verify", "--n", "4", "--phi", "0,0.3", "--steps", "20", "--force-eta-zero"]
    )
    assert code == 1
    captured = capsys.readouterr()
    assert "hoyer-residual" in captured.err
    assert "verify: FAIL" in captured.out


def test_cli_sweep(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code = main(
        ["sweep", "--n", "8,16", "--beta", "0,0.5", "--corrected", "--steps", "25", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "n,beta,eta,sigma,t_star_predicted,t_star_measured,peak_probability,mode"
    assert len(lines) == 5
    assert lines[1].startswith("8,0,0,")
    capsys.readouterr()


def test_cli_ctqw(capsys):
    assert main(["ctqw", "--n", "64", "--epsilon", "0.5", "--corrected", "--samples", "9", "--t-max", "6"]) == 0
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert lines[0] == "time,probability"
    assert len(lines) == 10
    assert "predicted peak time" in captured.err
    assert main(["ctqw", "--n", "64", "--epsilon", "0.5", "--corrected", "--gamma", "0.1"]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--mode", "dtqw-reduced", "--n", "16", "--steps", str(10**17)],
        ["ctqw", "--n", "16", "--samples", str(10**17)],
    ],
)
def test_cli_unallocatable_size_is_exit_2(argv, capsys):
    # 10**17 float64 values exceed any address space, so numpy fails at once.
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize(
    "argv",
    [
        ["plan"],
        ["simulate", "--mode", "dtqw-reduced"],
        ["sweep", "--beta", "0"],
        ["ctqw"],
        ["verify"],
    ],
    ids=lambda argv: argv[0],
)
def test_cli_absurd_n_is_exit_2(argv, capsys):
    # 10^400 does not convert to a float; N past 10^300 is refused up front
    # rather than ending in an OverflowError with exit code 1.
    assert main([*argv, "--n", str(10**400)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: need at most 10^300 vertices, got a 401-digit N\n"


@pytest.mark.parametrize("flag", ["--gamma", "--t-max"])
def test_cli_ctqw_rejects_non_finite(flag, capsys):
    assert main(["ctqw", "--n", "8", flag, "inf"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "must be finite" in captured.err


def test_cli_plan(capsys):
    assert main(["plan", "--n", "1024", "--beta", "0.8"]) == 0
    out = capsys.readouterr().out
    assert "t_star = 59" in out
    assert "eta = -1.85552918271" in out
    assert "blocked = false" in out
    assert main(["plan", "--n", "1024", "--beta", "1"]) == 0
    blocked = capsys.readouterr().out
    assert "blocked = true" in blocked
    assert "t_star = infinite" in blocked
    assert "eta = none" in blocked


@pytest.mark.parametrize(
    "argv", [["plan", "--n", "16"], ["sweep", "--n", "16", "--steps", "2"]]
)
def test_cli_negative_zero_beta_prints_as_zero(argv, capsys):
    # -0 and 0 spell the same barrier, so they print the same bytes
    assert main([*argv, "--beta", "-0"]) == 0
    negative = capsys.readouterr()
    assert main([*argv, "--beta", "0"]) == 0
    assert negative == capsys.readouterr()
    assert math.copysign(1.0, phi_from_beta(-0.0)) == 1.0


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "barrierwalk", "plan", "--n", "16"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "t_star" in proc.stdout

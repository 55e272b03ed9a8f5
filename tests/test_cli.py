"""Experiment layer and command-line surface."""

import io
import math
import os
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from barrierwalk import cli, experiments
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
    grid_end = 1.5 * ctqw_runtime(n) if t_max is None else t_max
    times = np.linspace(0.0, grid_end, samples)
    try:
        curve = ctqw_success_curve(spec.params(), times)
    except ValueError as exc:
        # a phase w*t past 2^32 rad (a large gamma * N) is refused, and the
        # spec's run refuses it the same way
        with pytest.raises(ValueError, match=re.escape(str(exc))):
            run_experiment(spec)
        return
    result = run_experiment(spec)
    assert np.array_equal(result.x, times)
    assert np.array_equal(result.probabilities, curve)


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(3, 10**12),
    beta=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
    corrected=st.booleans(),
)
@example(n=10**12, beta=0.999999, corrected=True)  # a 1e9-step window
def test_walk_spec_reads_its_phase_plan(n, beta, corrected):
    assume(not (corrected and beta == 1.0))
    spec = WalkSpec(n, beta, corrected, steps=0, mode="dtqw-reduced")
    phi = phi_from_beta(beta)
    assert spec.plan == build_phase_plan(n, phi)
    assert spec.eta == (corrected_eta(phi, n) if corrected else 0.0)
    if corrected:
        window = math.ceil(1.35 * runtime_t_star_exact(phi, n))
    else:
        window = math.ceil(2.8 * runtime_t_star_exact(0.0, n))
    # near beta = 1 the default window can outgrow physical memory
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if (window + 1) * experiments._ROW_BYTES > memory:
        with pytest.raises(ValueError, match=f"N = {n} with --steps {window} needs"):
            WalkSpec(n, beta, corrected, mode="dtqw-reduced")
    else:
        assert WalkSpec(n, beta, corrected, mode="dtqw-reduced").resolved_steps() == window
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
    assert [(r.spec.n_vertices, r.spec.beta) for r in rows] == [
        (8, 0.0),
        (8, 0.5),
        (64, 0.0),
        (64, 0.5),
    ]
    assert [r.spec.mode for r in rows] == [
        "dtqw-full",
        "dtqw-full",
        "dtqw-reduced",
        "dtqw-reduced",
    ]
    for row in rows:
        assert row.predicted_peak >= 1
        assert 0.0 <= row.peak_probability <= 1.0


def test_sweep_blocked_point_has_no_prediction():
    (row,) = run_sweep([16], [1.0], corrected=False, steps=10)
    assert row.predicted_peak is None
    assert row.spec.plan.sigma == 0.0
    assert row.peak_index == 0  # nothing ever hops
    buf = io.StringIO()
    write_sweep_csv([row], buf)
    header, line = buf.getvalue().splitlines()
    assert header.startswith("n,beta,eta,sigma,t_star_predicted,")
    assert ",," in line  # empty prediction column


def test_sweep_checks_its_grid_and_workers(capsys):
    rows = run_sweep([16, 10**6], [0.0, 0.5], corrected=True, steps=25, max_full_n=512)
    assert [row.spec.mode for row in rows] == ["dtqw-full"] * 2 + ["dtqw-reduced"] * 2
    with pytest.raises(ValueError):
        run_sweep([], [0.0], corrected=False)
    # --workers changes no result, but it is still checked
    assert main(["sweep", "--n", "8", "--beta", "0", "--workers", "0"]) == 2
    assert "workers must be >= 1, got 0" in capsys.readouterr().err


@settings(max_examples=150, deadline=None)
@given(
    # (full engine?, N): the full engine up to N = 16, the reduced one to 10^12
    point=st.tuples(st.just(True), st.integers(3, 16))
    | st.tuples(st.just(False), st.integers(3, 10**12)),
    beta=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
    corrected=st.booleans(),
    steps=st.integers(0, 40),
)
# sweep --n 64 --beta 0.5 printed t* = 10 where simulate had no prediction
@example(point=(True, 64), beta=0.5, corrected=False, steps=20)
def test_sweep_row_prints_the_prediction_simulate_prints(point, beta, corrected, steps):
    # The t_star_predicted field is the t* of the same spec's summary line,
    # and empty exactly where that line says there is no prediction.
    assume(not (corrected and beta == 1.0))
    full, n = point
    mode = "dtqw-full" if full else "dtqw-reduced"
    (row,) = run_sweep([n], [beta], corrected, steps, max_full_n=n if full else 0)
    buf = io.StringIO()
    write_sweep_csv([row], buf)
    field = buf.getvalue().splitlines()[1].split(",")[4]
    spec = WalkSpec(n, beta, corrected, steps, mode=mode)
    summary = summary_line(run_experiment(spec))
    _, _, predicted = summary.partition(f"; {spec.prediction}")
    if predicted:
        assert field == predicted
    else:
        assert summary.endswith(f"; {spec.no_prediction}")
        assert field == ""


@pytest.mark.parametrize("max_full_n", [16, 0], ids=["full", "reduced"])
@pytest.mark.parametrize(
    "corrected,beta", [(True, 0.0), (True, 0.5), (False, 0.0), (False, 0.5), (False, 1.0)]
)
def test_sweep_point_builds_its_phase_plan_once(monkeypatch, max_full_n, corrected, beta):
    calls = []

    def counting_build(n_vertices, phi):
        calls.append((n_vertices, phi))
        return build_phase_plan(n_vertices, phi)

    monkeypatch.setattr(experiments, "build_phase_plan", counting_build)
    rows = run_sweep([16], [beta], corrected, steps=10, max_full_n=max_full_n)
    write_sweep_csv(rows, io.StringIO())
    assert calls == [(16, phi_from_beta(beta))]


def test_sweep_holds_no_curve():
    # Each point's default window is 1.5-2.5 M steps, a 24-40 MB curve; the
    # sweep keeps each point's summary only, so what it returns is small.
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        rows = run_sweep([10**12], [0.0, 0.5, 0.8], corrected=True)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert [row.spec.resolved_steps() > 10**6 for row in rows] == [True] * 3
    assert kept < 1 << 20


def _peak_bytes(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "make",
    [lambda rows: WalkSpec(10**12, 0.8, True, rows - 1, mode="dtqw-reduced"),
     lambda rows: CtqwSpec(10**12, 0.3, corrected=True, samples=rows)],
    ids=["reduced", "ctqw"],
)
def test_curve_peak_memory_per_row_is_the_refusal_bound(make):
    # The growth of the peak from R to 2R rows is the per-row cost, free of
    # fixed costs such as chunk temporaries; the refusal in WalkSpec and
    # CtqwSpec charges _ROW_BYTES a row (16 and 24 B measured).  The 1 KiB
    # allows for small objects that one of the two runs allocates and the
    # other does not.
    rows = 200_000
    small = _peak_bytes(lambda: run_experiment(make(rows)))
    large = _peak_bytes(lambda: run_experiment(make(2 * rows)))
    assert experiments._ROW_BYTES == 24
    assert large - small <= 24 * rows + 1024


def test_curve_csv_is_written_in_chunks_of_fixed_memory(monkeypatch):
    monkeypatch.setattr(experiments, "_CSV_CHUNK", 1024)
    spec = WalkSpec(10**6, 0.8, True, 16 * 1024 + 4, mode="dtqw-reduced")
    result = run_experiment(spec)
    with open(os.devnull, "w", encoding="utf-8") as sink:
        peak = _peak_bytes(lambda: write_curve_csv(result, sink))
    # A chunk's lists, tuple and text take well under 200 B a row; the whole
    # curve as two lists would take about 68 B a row, 1.1 MB here.
    assert peak < 200 * 1024
    buf = io.StringIO()
    write_curve_csv(result, buf)
    rows = zip(result.x.tolist(), result.probabilities.tolist())
    assert buf.getvalue() == "step,probability\n" + "".join(
        f"{x},{p:.12g}\n" for x, p in rows
    )


@pytest.mark.parametrize("n", [10**60, 10**200])
def test_specs_refuse_curves_larger_than_memory(n, capsys):
    # The default window at such N is 10^30 or 10^100 steps.
    with pytest.raises(ValueError, match=f"N = {n} with --steps [0-9]+ needs more than"):
        WalkSpec(n, 0.8, True, mode="dtqw-reduced")
    argv = ["simulate", "--mode", "dtqw-reduced", "--n", str(n), "--beta", "0.8",
            "--corrected"]
    assert main(argv) == 2
    assert "MiB of RAM" in capsys.readouterr().err
    with pytest.raises(ValueError, match=f"N = {n} with --samples {10**30} needs"):
        CtqwSpec(n, samples=10**30)


def test_specs_refuse_by_the_host_memory(monkeypatch):
    pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 256}  # 1 MiB
    monkeypatch.setattr(experiments.os, "sysconf", pages.__getitem__)
    row = experiments._ROW_BYTES
    WalkSpec(16, steps=2**20 // row - 1, mode="dtqw-reduced")
    with pytest.raises(ValueError, match=f"N = 16 with --steps {2**20 // row} needs more than 1 MiB"):
        WalkSpec(16, steps=2**20 // row, mode="dtqw-reduced")
    # a full-space walk also holds its 16 N(N-1)-byte state
    with pytest.raises(ValueError, match="N = 257 with --steps 0"):
        WalkSpec(257, steps=0)
    WalkSpec(256, steps=0)
    CtqwSpec(16, samples=2**20 // row)
    with pytest.raises(ValueError, match=f"N = 16 with --samples {2**20 // row + 1}"):
        CtqwSpec(16, samples=2**20 // row + 1)
    # a sweep refuses before its first point runs
    ran = []
    monkeypatch.setattr(experiments, "_sweep_point", ran.append)
    with pytest.raises(ValueError, match="N = 257"):
        run_sweep([16, 257], [0.0], corrected=False, steps=0, max_full_n=4096)
    assert ran == []


def test_verify_checks_its_grid_before_any_trajectory(monkeypatch):
    pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 256}  # 1 MiB
    monkeypatch.setattr(experiments.os, "sysconf", pages.__getitem__)
    ran = []
    monkeypatch.setattr(experiments, "_trajectory_deviations",
                        lambda *args: ran.append(args))
    # one N = 256 state (1,044,480 B) fits in 1 MiB; the 3.5 verify charges do not
    with pytest.raises(ValueError, match="N = 256 with --steps 3 needs more than 1 MiB"):
        run_verification([4, 256], [0.0], steps=3)
    # a bad phi once stopped verify only after the points before it had run
    with pytest.raises(ValueError, match="phi must lie in"):
        run_verification([4], [0.3, 2.0], steps=3)
    assert ran == []
    run_verification([4, 128], [0.0], steps=3)
    assert {args[0] for args in ran} == {4, 128}


def test_run_verification_names_and_negative_control():
    checks = run_verification([4], [0.0, 0.3], steps=40)
    assert [c.name for c in checks] == [
        "reduced-unitarity",
        "psi-minus-one-eigenvector",
        "hoyer-residual",
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
    assert main(["simulate", "--n", "16", "--steps", "abc"]) == 2  # a bad value
    assert main(["nonsense"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--n", "16", "--steps", "3"],
        ["ctqw", "--n", "16", "--samples", "3"],
        ["sweep", "--n", "8", "--beta", "0", "--steps", "3"],
    ],
    ids=["simulate", "ctqw", "sweep"],
)
def test_cli_unwritable_out_is_exit_3(tmp_path, capsys, argv):
    missing_dir = tmp_path / "no" / "such" / "dir.csv"
    assert main([*argv, "--out", str(missing_dir)]) == 3
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
    # the continuous-time walk's curve does not depend on the marked vertex
    bad_key.write_text("n = 16\nmarked = 2\n")
    assert main(["ctqw", "--config", str(bad_key)]) == 2
    assert "marked" in capsys.readouterr().err
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


@pytest.mark.parametrize(
    "key, kind, value", [("n", "int", "8,x"), ("phi", "float", "0.3,x")]
)
def test_cli_list_errors(tmp_path, capsys, key, kind, value):
    # a bad item gets its item parser's text and an empty list the list
    # parser's, the same from the command line and from a config file
    bad_item = (
        "invalid literal for int() with base 10: 'x'"
        if kind == "int"
        else "could not convert string to float: 'x'"
    )
    items = "integers" if kind == "int" else "numbers"
    config = tmp_path / "run.cfg"
    for text, expected in [(value, bad_item), (",", f"expected a comma-separated list of {items}")]:
        assert main(["verify", f"--{key}", text]) == 2
        assert capsys.readouterr().err == f"error: argument --{key}: {expected}\n"
        config.write_text(f"{key} = {text}\n")
        assert main(["verify", "--config", str(config)]) == 2
        assert capsys.readouterr().err == f"error: config key '{key}': {expected}\n"


# Tokens that each parse function refuses (a str option takes any text);
# --mode is checked by WalkSpec and by simulate's pointer to ctqw instead.
_BAD_TOKENS = {
    int: ["x"],
    float: ["x"],
    cli._parse_int_list: ["8,x"],
    cli._parse_float_list: ["0.3,x"],
    cli._parse_bool: ["maybe"],
    str: [],
}
_MODE_ERRORS = {
    "foo": "mode must be dtqw-full or dtqw-reduced, got 'foo'",
    "ctqw": "continuous-time runs have their own subcommand: ctqw",
}
_BAD_VALUES = [
    (command, option, token)
    for command, (_, options, _) in cli._COMMANDS.items()
    for option in options
    for token in (_MODE_ERRORS if option.name == "mode" else _BAD_TOKENS[option.parse])
]


@pytest.mark.parametrize(
    "command, option, token",
    _BAD_VALUES,
    ids=[f"{command}-{option.name}-{token}" for command, option, token in _BAD_VALUES],
)
def test_cli_bad_value_is_one_message_from_either_source(
    tmp_path, capsys, command, option, token
):
    # Every bad value exits 2 with one error: line naming its source and
    # nothing on stdout, with the same text from a flag and a config file.
    # A switch takes no text on the command line, so a bool goes by config only.
    _, options, _ = cli._COMMANDS[command]
    required = [
        arg
        for other in options
        if other.required and other is not option
        for arg in (other.flag, {"n": "16", "beta": "0"}[other.name])
    ]
    config = tmp_path / "run.cfg"
    config.write_text(f"{option.name} = {token}\n")
    runs = {f"config key {option.name!r}": ["--config", str(config)]}
    if option.parse is not cli._parse_bool:
        runs[f"argument {option.flag}"] = [option.flag, token]
    texts = set()
    for source, argv in runs.items():
        assert main([command, *required, *argv]) == 2
        captured = capsys.readouterr()
        prefix = "error: " if option.name == "mode" else f"error: {source}: "
        assert captured.out == ""
        assert captured.err.startswith(prefix) and captured.err.count("\n") == 1
        assert captured.err.endswith("\n")
        texts.add(captured.err.removeprefix(prefix))
    assert len(texts) == 1
    if option.name == "mode":
        assert texts == {_MODE_ERRORS[token] + "\n"}


def test_cli_verify_pass_and_boundary(capsys):
    assert main(["verify", "--n", "3,4", "--phi", "0,0.3", "--steps", "40"]) == 0
    captured = capsys.readouterr()
    assert "verify: PASS (6/6 checks)" in captured.out
    assert captured.out.count("): PASS") == 6


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


@pytest.mark.parametrize("n", [4097, 10**12])
def test_cli_verify_refuses_n_above_the_cap(n, monkeypatch, capsys):
    # verify has no reduced fallback: above the default cap it exits 2 before
    # its first trajectory (10^12 once ended in numpy's dimension error, and
    # N = 20000 in a kill at 7.5 GiB).  A trajectory here would raise
    # TypeError, which main does not catch.
    monkeypatch.setattr(experiments, "_trajectory_deviations", None)
    assert main(["verify", "--n", f"16,{n}", "--steps", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: N = {n} exceeds the full-space cap 4096;"
        " verify steps the full-space walk at every N it checks\n"
    )


@pytest.mark.parametrize(
    "argv",
    [["simulate", "--n", "8", "--steps", "3"],
     ["sweep", "--n", "8", "--beta", "0", "--steps", "3"]],
    ids=lambda argv: argv[0],
)
def test_cli_negative_cap_is_exit_2(argv, capsys):
    # simulate once read -5 as "exceeds the full-space cap -5", and sweep
    # took -1 in silence.  A cap of 0 stays valid: sweep runs every point
    # reduced, and a full-space simulate is refused as above the cap.
    assert main([*argv, "--max-full-n", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the full-space cap must be >= 0, got -1\n"
    assert main([*argv, "--max-full-n", "0"]) == (2 if argv[0] == "simulate" else 0)
    assert "must be >= 0" not in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--gamma", "--t-max"])
def test_cli_ctqw_rejects_non_finite(flag, capsys):
    assert main(["ctqw", "--n", "8", flag, "inf"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "must be finite" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["--n", "3", "--t-max", "1e308"],
        ["--n", "1000000", "--gamma", "1e300"],
        ["--n", "10000000000", "--gamma", "1e300"],
    ],
    ids=["t-max", "gamma", "gamma-times-n"],
)
def test_cli_ctqw_refuses_an_absurd_phase(argv, capsys):
    # A phase w*t past 2^32 rad has no meaningful digits; the first two once
    # printed a curve and NaN rows with exit 0.
    assert main(["ctqw", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert len(captured.err.splitlines()) == 1


def test_cli_ctqw_peaks_at_large_n(capsys):
    # A 2x2 eigensolver printed a flat 1e-32 here, with exit 0.
    assert main(["ctqw", "--n", str(10**32), "--epsilon", "0.3", "--corrected"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    probs = [float(row.split(",")[1]) for row in rows]
    assert probs[0] == 1e-32
    assert max(probs) >= 0.99


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

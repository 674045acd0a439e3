"""Tests of the benchmark's own parts: generator, reference, checks, spans.

Run from the repository root with ``python3 -m pytest bench/test_bench.py``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import inputs  # noqa: E402
import reference  # noqa: E402
from spans import Tracer  # noqa: E402
from taxcascade.cli import main as cli_main  # noqa: E402

oracles = inputs.load_module(ROOT / "tests" / "oracles.py", "bench_test_oracles")


@pytest.mark.parametrize("block", [0, 8])
def test_generator_balances(block):
    e = inputs.structured(np.random.default_rng(3), 60, density=0.1, margins=3, block=block)
    np.testing.assert_allclose(e.supply, e.flows.sum(axis=1) + e.finaldemand.sum(axis=1), rtol=1e-12)
    assert (e.flows >= 0).all()
    fd = np.delete(e.finaldemand, inputs.INVENTORY, axis=1)
    assert (fd >= 0).all()
    rate = e.dest.sum(axis=1) / e.supply
    assert ((0.01 <= rate) & (rate <= 0.06) | np.isclose(rate, -0.01)).all()
    margin = e.marginshares > 0
    assert margin.sum() == 3
    assert (e.flows[margin][:, block:] > 0).all(), "margins serve every column outside the block"
    if block:
        inside = e.flows[:block, :block].sum(axis=1) / e.supply[:block]
        np.testing.assert_allclose(inside, inputs.BLOCK_INSIDE, rtol=1e-12)
        assert not e.flows[block:, :block].any(), "the block buys only from itself"


def test_generator_is_seeded():
    a = inputs.structured(np.random.default_rng(5), 40, density=0.1, margins=2)
    b = inputs.structured(np.random.default_rng(5), 40, density=0.1, margins=2)
    c = inputs.structured(np.random.default_rng(6), 40, density=0.1, margins=2)
    assert np.array_equal(a.dest, b.dest) and not np.array_equal(a.dest, c.dest)


def test_brazil_statutory_total():
    e = inputs.brazil67(ROOT)
    assert e.n == 67
    assert abs(e.dest.sum() - 840_186.0) <= 1e-9 * 840_186.0


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_reference_matches_stage_oracle(seed):
    rng = np.random.default_rng(seed)
    e = inputs.structured(rng, 12, density=0.3, margins=2)
    scale = rng.uniform(0.0, 2.0, e.n)
    ref = reference.reference(e, scale)
    exits, left = oracles.stagewise_final_incidence(
        ref.shares.tolist(),
        ref.final_shares.tolist(),
        ref.intermediate_tax.tolist(),
        first_final=ref.first_final.tolist(),
        settle=1e-14,
    )
    assert sum(abs(x) for x in left) <= 1e-14
    np.testing.assert_allclose(ref.final, np.array(exits), rtol=1e-9, atol=1e-9)
    assert abs(ref.final.sum() - (e.dest * scale[:, None]).sum()) <= 1e-9 * abs(ref.final.sum())


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    """A baseline and a uniform-scale compute plus their diff on a small bundle."""
    tmp = tmp_path_factory.mktemp("bench")
    e = inputs.structured(np.random.default_rng(9), 30, density=0.2, margins=2)
    # Scale so that expenditure clears the default rate-masking threshold.
    e = inputs.Economy(e.codes, e.labels, e.flows * 50, e.finaldemand * 50, e.supply * 50, e.dest * 50, e.marginshares)
    manifest = inputs.write_bundle(e, tmp / "bundle")
    uniform = inputs.Scenario("uniform", np.full(e.n, 0.5), uniform=0.5)
    inputs.write_scenario(uniform, e.codes, tmp / "s.csv")
    args = ["compute", "--manifest", str(manifest)]
    assert cli_main(args + ["--out", str(tmp / "base")]) == 0
    assert cli_main(args + ["--out", str(tmp / "scen"), "--scenario", str(tmp / "s.csv")]) == 0
    assert cli_main(["diff", "--baseline", str(tmp / "base"), "--scenario", str(tmp / "scen"), "--out", str(tmp / "diff")]) == 0
    return tmp, e, uniform


def _copy(src: Path, dst: Path) -> Path:
    import shutil

    shutil.copytree(src, dst)
    return dst


def test_checks_pass_on_program_output(small_run):
    tmp, e, uniform = small_run
    ref_b = reference.reference(e, np.ones(e.n))
    ref_s = reference.reference(e, uniform.scale)
    base = reference.check_compute(tmp / "base", e, ref_b, truncated=False)
    scen = reference.check_compute(tmp / "scen", e, ref_s, truncated=False)
    reference.check_linearity(tmp / "scen", base, scen, 0.5)
    reference.check_diff(tmp / "diff", e, (tmp / "base", ref_b), (tmp / "scen", ref_s))
    reference.check_oracle(tmp / "base", ref_b, base, oracles)


def test_check_fails_on_perturbed_result(small_run, tmp_path):
    tmp, e, _ = small_run
    out = _copy(tmp / "base", tmp_path / "base")
    record = json.loads((out / "result.json").read_text())
    record["final_incidence"][3][2] *= 1 + 1e-6
    (out / "result.json").write_text(json.dumps(record))
    with pytest.raises(reference.CheckError, match="final_incidence"):
        reference.check_compute(out, e, reference.reference(e, np.ones(e.n)), truncated=False)


def test_check_fails_on_perturbed_rate(small_run, tmp_path):
    tmp, e, _ = small_run
    out = _copy(tmp / "base", tmp_path / "base")
    path = out / "effective_rates.csv"
    lines = path.read_text().splitlines()
    cells = lines[1].split(",")
    cells[-1] = f"{float(cells[-1]) + 0.2:.1f}"
    lines[1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(reference.CheckError, match="identity"):
        reference.check_compute(out, e, reference.reference(e, np.ones(e.n)), truncated=False)


def test_check_fails_on_perturbed_diff(small_run, tmp_path):
    tmp, e, uniform = small_run
    out = _copy(tmp / "diff", tmp_path / "diff")
    path = out / "final_incidence_diff.csv"
    lines = path.read_text().splitlines()
    cells = lines[2].split(",")
    cells[2] = f"{float(cells[2]) + 0.05:.6f}"
    lines[2] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(reference.CheckError, match="scenario minus baseline"):
        reference.check_diff(
            out, e,
            (tmp / "base", reference.reference(e, np.ones(e.n))),
            (tmp / "scen", reference.reference(e, uniform.scale)),
        )


def test_linearity_check_is_exact():
    base = np.array([[1.0, 3.0]])
    reference.check_linearity(Path("x"), base, 0.5 * base, 0.5)
    with pytest.raises(reference.CheckError):
        reference.check_linearity(Path("x"), base, np.nextafter(0.5 * base, 1.0), 0.5)


def test_self_time_subtracts_children():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda: None)

    def outer_body():
        inner()
        inner()

    outer = tracer.wrap("outer", outer_body)
    outer()
    tracer.paused = True
    outer()
    assert len(tracer.durations("outer")) == 1
    (own,) = tracer.self_times("outer")
    children = sum(s["end"] - s["start"] for s in tracer.spans[1:3])
    assert own == pytest.approx(tracer.durations("outer")[0] - children)
    assert tracer.child_totals("outer", {"inner"}) == [pytest.approx(children)]

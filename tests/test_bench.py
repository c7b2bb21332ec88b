import math

import pytest

import mixgap.bench as bench_module
from mixgap.bench import CSV_HEADER, bench_convergence
from mixgap.chain import _BATCH_STEPS
from mixgap.fixtures import get_fixture


def parse_rows(csv_text):
    lines = csv_text.strip().splitlines()
    assert lines[0] == CSV_HEADER
    trials, medians = [], {}
    for line in lines[1:]:
        m, seed, point, err, hw, covered = line.split(",")
        if seed == "median":
            medians[int(m)] = (float(point), float(err), float(hw), float(covered))
        else:
            trials.append((int(m), int(seed), float(point), float(err), float(hw), int(covered)))
    return trials, medians


def test_row_count_contract():
    csv_text = bench_convergence(get_fixture("fast3"), m_grid=[500, 1000, 2000], seeds=4)
    trials, medians = parse_rows(csv_text)
    assert len(trials) == 12
    assert set(medians) == {500, 1000, 2000}


def test_median_error_decreases_in_m():
    csv_text = bench_convergence(get_fixture("fast3"), m_grid=[2000, 50_000], seeds=5)
    _, medians = parse_rows(csv_text)
    assert medians[50_000][1] < medians[2000][1]


def test_half_width_tracks_log_cubed_over_m_shape():
    # the half-width over sqrt(log^3 m / m) should stay within a x4 band
    # across the grid; needs a small c so the U term stays finite
    csv_text = bench_convergence(
        get_fixture("ex31"), m_grid=[100_000, 400_000], seeds=5, c=0.2
    )
    _, medians = parse_rows(csv_text)
    ratios = [
        medians[m][2] / math.sqrt(math.log(m) ** 3 / m) for m in (100_000, 400_000)
    ]
    assert max(ratios) / min(ratios) < 4.0


def test_batches_hold_at_most_the_cap_steps(monkeypatch):
    batches = []
    walk = bench_module._simulate_batch

    def recorded(P, m, seeds, start):
        batches.append((m, list(seeds)))
        return walk(P, m, seeds, start)

    monkeypatch.setattr(bench_module, "_simulate_batch", recorded)
    grid = [5000, 30_000, _BATCH_STEPS + 1]
    bench_convergence(get_fixture("fast3"), m_grid=grid, seeds=5)
    for m in grid:
        seeds = [batch for bm, batch in batches if bm == m]
        assert sum(seeds, []) == list(range(5))
        # a trial longer than the cap is walked alone
        assert all(len(s) * m <= _BATCH_STEPS or len(s) == 1 for s in seeds)
    assert [len(s) for m, s in batches] == [5, 4, 1, 1, 1, 1, 1, 1]


@pytest.mark.parametrize("grid", [[0], [0, 100], [100, -3]])
def test_m_below_one_is_refused_before_any_work(monkeypatch, grid):
    def unexpected(*args, **kwargs):
        raise AssertionError("bench_convergence worked on a grid it should refuse")

    monkeypatch.setattr(bench_module, "spectral_gaps", unexpected)
    monkeypatch.setattr(bench_module, "_simulate_batch", unexpected)
    with pytest.raises(ValueError, match="m must be >= 1"):
        bench_convergence(get_fixture("fast3"), m_grid=grid, seeds=2)

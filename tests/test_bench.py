import hashlib
import math

import numpy as np
import pytest

import mixgap.bench as bench_module
from mixgap import oracle
from mixgap.bench import _BATCH_STEPS, CSV_HEADER, bench_convergence
from mixgap.fixtures import get_fixture, random_dense_chain

from conftest import lazy_cycle


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


@pytest.mark.parametrize(
    "P, grid, seeds, sizes",
    [
        (get_fixture("fast3"), [5000, 30_000, _BATCH_STEPS + 1], 5, [5, 4, 1, 1, 1, 1, 1, 1]),
        # n^2 = 3,600 > m: each trial's count tables, not its walk, fill the batch
        (lazy_cycle(60), [1000, 3000], 40, [36, 4, 36, 4]),
    ],
)
def test_batches_hold_at_most_the_cap_steps(monkeypatch, P, grid, seeds, sizes):
    batches = []
    walk = bench_module._simulate_batch

    def recorded(P, m, seeds, start):
        batches.append((m, list(seeds)))
        return walk(P, m, seeds, start)

    monkeypatch.setattr(bench_module, "_simulate_batch", recorded)
    bench_convergence(P, m_grid=grid, seeds=seeds)
    for m in grid:
        cells = [batch for bm, batch in batches if bm == m]
        assert sum(cells, []) == list(range(seeds))
        # a trial larger than the cap is walked alone
        assert all(len(s) * max(m, P.n**2) <= _BATCH_STEPS or len(s) == 1 for s in cells)
    assert [len(s) for m, s in batches] == sizes


def test_no_stack_holds_more_entries_than_the_batch_has_steps(monkeypatch):
    # 40 trials of 1,000 steps on 60 states: bounded by m alone, one batch of
    # 40 would stack 40 60 x 60 tables, 144,000 entries
    stacks = []
    svds = oracle.second_singular_values
    monkeypatch.setattr(oracle, "second_singular_values", lambda A: stacks.append(np.shape(A)) or svds(A))
    bench_convergence(lazy_cycle(60), m_grid=[1000], seeds=40)
    assert max(math.prod(shape) for shape in stacks) <= _BATCH_STEPS
    assert max(shape[0] for shape in stacks) == _BATCH_STEPS // 60**2


# grids where n^2 exceeds some m, so that batches hold fewer trials than
# _BATCH_STEPS // m; the digests were recorded while batches were bounded by m
# alone, so where a batch is cut moves no byte
BENCH_DIGESTS = {
    "cycle60": "7de5190ce055053bbc066debebbb04104e1cd0383164d21bdee7b64c22bdabd9",
    "cycle30": "1d97817803cad7a5d78b3d5c98ff27d07c3df927b5a095c19767e1e2c87024b7",
    "dense40": "548550b524660c908339de5d35161dccf4f02a64df4f7084371221a5cfbf04d4",
}


@pytest.mark.parametrize(
    "case, P, grid, seeds",
    [
        ("cycle60", lazy_cycle(60), [1000, 3000], 40),
        ("cycle30", lazy_cycle(30), [200, 900, 5000], 30),
        ("dense40", random_dense_chain(40, 3), [400, 2000], 50),
    ],
)
def test_bench_digests_where_tables_bound_the_batch(case, P, grid, seeds):
    csv_text = bench_convergence(P, m_grid=grid, seeds=seeds)
    assert hashlib.sha256(csv_text.encode()).hexdigest() == BENCH_DIGESTS[case]


@pytest.mark.parametrize("grid", [[0], [0, 100], [100, -3]])
def test_m_below_one_is_refused_before_any_work(monkeypatch, grid):
    def unexpected(*args, **kwargs):
        raise AssertionError("bench_convergence worked on a grid it should refuse")

    monkeypatch.setattr(bench_module, "spectral_gaps", unexpected)
    monkeypatch.setattr(bench_module, "_simulate_batch", unexpected)
    with pytest.raises(ValueError, match="m must be >= 1"):
        bench_convergence(get_fixture("fast3"), m_grid=grid, seeds=2)

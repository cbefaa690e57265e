import math

import numpy as np
import pytest

import support
from phonectc.ctc import (
    InfeasibleAlignmentError,
    PosteriorGrid,
    collapse,
    ctc_grad,
    ctc_loss,
    greedy_decode,
    prefix_beam_search,
)


def uniform_grid(T, V1):
    return PosteriorGrid(log_probs=np.full((T, V1), -math.log(V1)))


def test_grid_rejects_unnormalized():
    with pytest.raises(ValueError):
        PosteriorGrid(log_probs=np.zeros((2, 3)))
    with pytest.raises(ValueError):
        PosteriorGrid(log_probs=np.zeros(3))


@pytest.mark.parametrize("offset", [2e-6, -2e-6])
def test_grid_rejects_rows_off_by_more_than_tolerance(offset):
    lp = support.random_grid(np.random.default_rng(11), 3, 4).log_probs.copy()
    lp[1] += offset
    with pytest.raises(ValueError):
        PosteriorGrid(log_probs=lp)


def test_grid_accepts_rows_within_tolerance():
    lp = support.random_grid(np.random.default_rng(12), 3, 4).log_probs.copy()
    lp[1] += 5e-7
    lp[2] -= 5e-7
    PosteriorGrid(log_probs=lp)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize(
    "row", [[np.nan] * 3, [np.inf, 0.0, 0.0], [-np.inf] * 3],
    ids=["nan", "plus-inf", "all-minus-inf"],
)
def test_grid_rejects_non_finite_rows(row):
    lp = support.random_grid(np.random.default_rng(13), 2, 3).log_probs.copy()
    lp[0] = row
    with pytest.raises(ValueError):
        PosteriorGrid(log_probs=lp)


def _random_lattice(rng):
    """A random feasible (grid, labels), biased towards repeated labels and
    lattices with no frame to spare."""
    V1 = int(rng.integers(2, 8))
    L = int(rng.integers(0, 9))
    labels = [int(k) for k in rng.integers(1, V1, size=L)]
    if L > 1 and rng.random() < 0.3:
        labels[1] = labels[0]
    need = len(labels) + sum(a == b for a, b in zip(labels, labels[1:]))
    T = max(1, need) + int(rng.integers(0, 3 if rng.random() < 0.5 else 20))
    return support.random_grid(rng, T, V1), labels


CORNER_LATTICES = [
    (1, 3, []), (1, 3, [2]), (4, 3, []), (3, 2, [1, 1]), (5, 3, [2, 2, 2]),
    (2, 4, [3, 1]), (7, 4, [1, 1, 2, 2]),
]


def test_loss_and_grad_equal_textbook_recursion():
    rng = np.random.default_rng(14)
    cases = [(support.random_grid(rng, T, V1), labels)
             for T, V1, labels in CORNER_LATTICES]
    cases += [_random_lattice(rng) for _ in range(1500)]
    for grid, labels in cases:
        assert ctc_loss(grid, labels) == support.ctc_loss_reference(grid, labels)
        assert np.array_equal(
            ctc_grad(grid, labels), support.ctc_grad_reference(grid, labels)
        )


def test_single_frame_single_label():
    grid = support.random_grid(np.random.default_rng(0), 1, 3)
    assert ctc_loss(grid, [2]) == pytest.approx(-grid.log_probs[0, 2])


def test_two_frames_uniform():
    # paths for label "a": aa, a<b>, <b>a -> 3/4 of the mass
    grid = uniform_grid(2, 2)
    assert ctc_loss(grid, [1]) == pytest.approx(-math.log(0.75))


def test_label_validation():
    grid = uniform_grid(3, 3)
    with pytest.raises(ValueError):
        ctc_loss(grid, [0])
    with pytest.raises(IndexError):
        ctc_loss(grid, [5])


def test_infeasible_alignment():
    grid = uniform_grid(2, 3)
    with pytest.raises(InfeasibleAlignmentError):
        ctc_loss(grid, [1, 2, 1])
    with pytest.raises(InfeasibleAlignmentError):
        ctc_loss(grid, [1, 1])  # repeat needs a blank gap


def test_loss_matches_bruteforce():
    rng = np.random.default_rng(42)
    for _ in range(60):
        T = int(rng.integers(1, 9))
        V1 = int(rng.integers(2, 6))
        grid = support.random_grid(rng, T, V1)
        L = int(rng.integers(0, min(3, T) + 1))
        labels = list(rng.integers(1, V1, size=L))
        reps = sum(1 for a, b in zip(labels, labels[1:]) if a == b)
        if T < L + reps:
            continue
        want = support.ctc_loss_bruteforce(grid, labels)
        assert ctc_loss(grid, labels) == pytest.approx(want, abs=1e-8)


def test_empty_label_sequence():
    grid = support.random_grid(np.random.default_rng(1), 4, 3)
    want = -grid.log_probs[:, 0].sum()
    assert ctc_loss(grid, []) == pytest.approx(want, abs=1e-10)


def test_grad_single_frame_is_softmax_minus_onehot():
    rng = np.random.default_rng(3)
    grid = support.random_grid(rng, 1, 4)
    g = ctc_grad(grid, [2])
    want = np.exp(grid.log_probs[0])
    want[2] -= 1.0
    assert np.allclose(g[0], want, atol=1e-10)


def test_grad_rows_sum_to_zero():
    rng = np.random.default_rng(4)
    grid = support.random_grid(rng, 6, 4)
    g = ctc_grad(grid, [1, 3, 2])
    assert np.max(np.abs(g.sum(axis=1))) < 1e-10


def test_grad_matches_finite_differences():
    rng = np.random.default_rng(5)
    for _ in range(10):
        T = int(rng.integers(2, 6))
        V1 = int(rng.integers(2, 5))
        logits = rng.normal(0.0, 1.0, (T, V1))
        lp = logits - np.logaddexp.reduce(logits, axis=1, keepdims=True)
        grid = PosteriorGrid(log_probs=lp)
        L = int(rng.integers(1, min(3, T) + 1))
        labels = list(rng.integers(1, V1, size=L))
        reps = sum(1 for a, b in zip(labels, labels[1:]) if a == b)
        if T < L + reps:
            continue
        got = ctc_grad(grid, labels)
        want = support.ctc_grad_fd(logits, labels)
        denom = np.maximum(np.abs(want), 1e-3)
        assert np.max(np.abs(got - want) / denom) < 1e-4


def test_collapse_rules():
    assert collapse([1, 1, 0, 2, 2]) == [1, 2]
    assert collapse([0, 0, 0]) == []
    assert collapse([1, 0, 1]) == [1, 1]


def test_greedy_decode():
    lp = np.log(
        np.array(
            [[0.1, 0.8, 0.1], [0.1, 0.8, 0.1], [0.8, 0.1, 0.1], [0.1, 0.1, 0.8]]
        )
    )
    assert greedy_decode(PosteriorGrid(log_probs=lp)) == [1, 2]


def test_prefix_beam_single_frame():
    rng = np.random.default_rng(8)
    grid = support.random_grid(rng, 1, 4)
    top, _ = prefix_beam_search(grid)[0]
    k = int(np.argmax(grid.log_probs[0]))
    assert top == ([] if k == 0 else [k])


def test_prefix_beam_matches_exhaustive_oracle():
    rng = np.random.default_rng(9)
    for _ in range(25):
        T = int(rng.integers(1, 6))
        V1 = int(rng.integers(2, 4))
        grid = support.random_grid(rng, T, V1)
        want_seq, want_lp = support.best_collapsed_bruteforce(grid)
        got = prefix_beam_search(grid, beam_width=10**6)
        assert got[0][0] == want_seq
        assert got[0][1] == pytest.approx(want_lp, abs=1e-9)


def test_prefix_beam_rejects_bad_width():
    grid = uniform_grid(2, 2)
    with pytest.raises(ValueError):
        prefix_beam_search(grid, beam_width=0)


def test_prefix_beam_scores_are_marginals():
    # total probability of returned prefixes never exceeds 1
    rng = np.random.default_rng(10)
    grid = support.random_grid(rng, 5, 3)
    results = prefix_beam_search(grid, beam_width=50)
    assert sum(math.exp(lp) for _, lp in results) <= 1.0 + 1e-9

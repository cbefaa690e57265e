import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import support
from phonectc.ctc import (
    InfeasibleAlignmentError,
    PosteriorGrid,
    _lattice_pass,
    _softmax_grids,
    ctc_grad,
    ctc_loss,
    log_softmax,
    min_frames,
    prefix_beam_search,
)


def _softmax_grid(logits, alphabet=None):
    """The training grid of all of ``logits``' rows."""
    return _softmax_grids(logits, [len(logits)], alphabet)[0]


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


def test_grid_rows_are_read_only():
    lp = support.random_grid(np.random.default_rng(15), 3, 4).log_probs.copy()
    grid = PosteriorGrid(log_probs=lp)
    with pytest.raises(ValueError):
        grid.log_probs[0, 0] = 0.0
    with pytest.raises(ValueError):
        _softmax_grid(lp).log_probs[0, 0] = 0.0
    assert lp.flags.writeable  # the caller's array is the caller's


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_unchecked_training_grid_passes_the_check(data):
    """The logits _softmax_grid trusts give rows PosteriorGrid accepts, at
    its magnitude bound and with the ties that round worst."""
    n = data.draw(st.integers(1, 2000), label="n")
    bound = (2**29 // n - n) * data.draw(st.sampled_from([1.0, 0.5, 1e-3]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    logits = bound * rng.choice([-1.0, -0.5, 0.0, 0.5, 1.0], size=(4, n))
    logits[0] = bound  # n-way tie at the bound
    logits[1, : n // 2] = -bound
    grid = _softmax_grid(logits)
    assert np.abs(np.logaddexp.reduce(grid.log_probs, axis=1)).max() <= 1e-6
    PosteriorGrid(log_probs=grid.log_probs)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_log_softmax_matches_logaddexp_reduce(data):
    """The max-shift form agrees with log-add-exp to within 1e-13 of each
    row's magnitude: ties at the maximum and at both ends, one -inf entry,
    magnitudes up to 1e300, for any of which a grid is trusted."""
    n = data.draw(st.integers(1, 100), label="n")
    scale = data.draw(st.sampled_from([1e-3, 1.0, 30.0, 1e6, 2.0**30, 1e12,
                                       1e300]), label="scale")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    logits = scale * rng.normal(size=(5, n))
    logits[1] = logits[1, 0]  # an n-way tie
    logits[2, : n // 2] = logits[2].max()
    logits[3] = scale * rng.choice([-1.0, 0.0, 1.0], size=n)
    if n > 1:
        logits[4, rng.integers(n)] = -np.inf
    got = log_softmax(logits)
    want = logits - np.logaddexp.reduce(logits, axis=1, keepdims=True)
    finite = np.isfinite(want)
    assert np.array_equal(np.isfinite(got), finite)
    assert np.array_equal(got[~finite], want[~finite])
    size = np.abs(np.where(np.isfinite(logits), logits, 0.0)).max(axis=1)
    bound = np.broadcast_to(1e-13 * np.maximum(1.0, size)[:, None], got.shape)
    assert np.all(np.abs(got[finite] - want[finite]) <= bound[finite])


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_trusted_grid_of_any_finite_magnitude_passes_the_check(data):
    """Finite logits of any magnitude give unchecked rows that sum to 1 in
    extended precision, and that PosteriorGrid accepts: ties at the maximum
    and at both ends, up to 2000 labels."""
    n = data.draw(st.integers(1, 2000), label="n")
    scale = data.draw(st.sampled_from([1.0, 1e3, 2.0**30, 1e12, 1e300]),
                      label="scale")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    logits = scale * rng.choice([-1.0, -0.5, 0.0, 0.5, 1.0], size=(4, n))
    logits[0] = scale
    logits[1, : n // 2] = -scale
    logits[3] = scale * rng.normal(size=n)
    with mock.patch.object(PosteriorGrid, "__post_init__",
                           side_effect=AssertionError("checked")):
        grid = _softmax_grid(logits)
    sums = np.log(np.exp(grid.log_probs.astype(np.longdouble)).sum(axis=1))
    assert np.abs(sums).max() <= 1e-6
    PosteriorGrid(log_probs=grid.log_probs)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize(
    "row, accepted",
    [([np.nan, 0.0, 0.0], False), ([np.inf, 0.0, 0.0], False),
     ([-np.inf] * 3, False), ([1e12, 1e12, 1e12], True),
     ([-np.inf, 0.0, 1.0], True), ([1e6, 0.0, -1e6], True)],
    ids=["nan", "plus-inf", "all-minus-inf", "huge-tie", "one-minus-inf",
         "large"],
)
def test_training_grid_raises_where_the_checked_grid_does(row, accepted):
    logits = np.array([[0.5, -1.0, 2.0], row])
    lp = log_softmax(logits)
    if accepted:
        got = _softmax_grid(logits, alphabet="A")
        want = PosteriorGrid(log_probs=lp, alphabet="A")
        assert np.array_equal(got.log_probs, want.log_probs, equal_nan=True)
        assert got.alphabet == "A"
        return
    with pytest.raises(ValueError, match="normalized"):
        PosteriorGrid(log_probs=lp)
    with pytest.raises(ValueError, match="normalized"):
        _softmax_grid(logits)


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


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_loss_after_grad_equals_fresh_loss_on_drawn_grids(data):
    """ctc_grad leaves its marginal on the grid for the same labels only:
    ctc_loss reads it bit-equal to a fresh alpha pass, and computes any
    other labels afresh."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    grid, labels = _random_lattice(rng)
    fresh = lambda ls: ctc_loss(PosteriorGrid(log_probs=grid.log_probs), ls)
    other = [int(k) for k in rng.integers(1, grid.num_labels,
                                          size=data.draw(st.integers(0, 4)))]
    if other == labels or min_frames(other) > grid.num_frames:
        other = labels[1:] if labels else [1]
    ctc_grad(grid, labels)
    assert ctc_loss(grid, other) == fresh(other)
    assert ctc_loss(grid, np.array(labels, dtype=np.int64)) == fresh(labels)
    assert ctc_loss(grid, iter(labels)) == fresh(labels)
    ctc_grad(grid, other)  # the grid holds the last gradient's labels only
    assert ctc_loss(grid, labels) == fresh(labels)
    assert ctc_loss(grid, other) == fresh(other)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_group_lattice_pass_equals_lone_passes(data):
    """One pass over lattices of mixed lengths leaves on every grid the
    gradient and marginal of a pass of that lattice alone."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    cases = [_random_lattice(rng) for _ in range(data.draw(st.integers(1, 6)))]
    grids = [PosteriorGrid(log_probs=grid.log_probs) for grid, _ in cases]
    _lattice_pass(grids, [labels for _, labels in cases])
    for grid, (lone, labels) in zip(grids, cases):
        assert np.array_equal(ctc_grad(grid, labels), ctc_grad(lone, labels))
        assert ctc_loss(grid, labels) == ctc_loss(lone, labels)
        assert grid._lattice[1] == lone._lattice[1]


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_softmax_grids_split_rows_and_check_every_run_when_untrusted():
    logits = np.random.default_rng(16).normal(size=(5, 3))
    lp = log_softmax(logits)
    grids = _softmax_grids(logits, [2, 0, 3], alphabet="A")
    assert [g.num_frames for g in grids] == [2, 0, 3]
    assert np.array_equal(np.concatenate([g.log_probs for g in grids]), lp)
    assert all(g.alphabet == "A" for g in grids)
    logits[4, 0] = np.inf  # the last run's row is not a distribution
    with pytest.raises(ValueError, match="normalized"):
        _softmax_grids(logits, [2, 3])
    assert _softmax_grids(logits[:2], [2])[0].num_frames == 2


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


@pytest.mark.parametrize("labels, error", [
    ([1, 0], ValueError), ([1, 3], IndexError),
    ([1, 2, 1], InfeasibleAlignmentError), ([2, 2], InfeasibleAlignmentError),
], ids=["blank", "outside", "too-long", "repeat"])
@pytest.mark.parametrize("grid_state", ["fresh", "passed"])
def test_grad_label_validation(labels, error, grid_state):
    """ctc_grad raises what ctc_loss raises before it runs a lattice, so a
    rejected call leaves the last pass's result on the grid."""
    grid = support.random_grid(np.random.default_rng(8), 2, 3)
    with pytest.raises(error) as want:
        ctc_loss(support.random_grid(np.random.default_rng(8), 2, 3), labels)
    if grid_state == "passed":
        want_grad = ctc_grad(grid, [2, 1])
        last = grid._lattice
    with pytest.raises(error, match=re.escape(str(want.value))):
        ctc_grad(grid, labels)
    if grid_state == "passed":
        assert grid._lattice is last
        assert np.array_equal(ctc_grad(grid, [2, 1]), want_grad)
    else:
        assert grid._lattice is None


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
    assert support.collapse([1, 1, 0, 2, 2]) == [1, 2]
    assert support.collapse([0, 0, 0]) == []
    assert support.collapse([1, 0, 1]) == [1, 1]


def test_greedy_decode():
    lp = np.log(
        np.array(
            [[0.1, 0.8, 0.1], [0.1, 0.8, 0.1], [0.8, 0.1, 0.1], [0.1, 0.1, 0.8]]
        )
    )
    assert support.greedy_decode(PosteriorGrid(log_probs=lp)) == [1, 2]


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


def _search_grid(rng):
    """A random grid biased towards ties (rounded logits) and -inf entries."""
    T = int(rng.integers(1, 14))
    V1 = int(rng.integers(1, 9))
    logits = rng.normal(0.0, 1.5, (T, V1))
    if rng.random() < 0.3:
        logits = np.round(logits)
    if rng.random() < 0.2:
        masked = rng.random((T, V1)) < 0.3
        masked[np.arange(T), rng.integers(0, V1, T)] = False  # a finite entry per row
        logits[masked] = -np.inf
    lp = logits - np.logaddexp.reduce(logits, axis=1, keepdims=True)
    return PosteriorGrid(log_probs=lp)


def test_prefix_beam_equals_reference_search():
    rng = np.random.default_rng(15)
    cases = [(support.random_grid(rng, 1, V1), beam)
             for V1 in (1, 2, 3, 5) for beam in (1, 2, 16)]
    cases += [(uniform_grid(T, V1), beam)
              for T in (1, 3, 6) for V1 in (1, 2, 4) for beam in (1, 3, 10**6)]
    cases += [(support.random_grid(rng, 7, V1), 10**6) for V1 in (1, 2, 3)]
    cases += [(_search_grid(rng), int(rng.integers(1, 20))) for _ in range(1200)]
    for grid, beam in cases:
        got = prefix_beam_search(grid, beam_width=beam)
        assert got == support.prefix_beam_search_reference(grid, beam)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_prefix_beam_equals_reference_search_on_drawn_grids(data):
    T = data.draw(st.integers(1, 8), label="T")
    V1 = data.draw(st.integers(1, 6), label="V1")
    beam = data.draw(st.integers(1, 20), label="beam")
    logits = np.array(data.draw(st.lists(
        st.lists(st.sampled_from([-np.inf, -2.0, -1.0, 0.0, 0.5, 1.0, 3.0]),
                 min_size=V1, max_size=V1).filter(
            lambda row: max(row) > -np.inf),
        min_size=T, max_size=T), label="logits"))
    lp = logits - np.logaddexp.reduce(logits, axis=1, keepdims=True)
    grid = PosteriorGrid(log_probs=lp)
    got = prefix_beam_search(grid, beam_width=beam)
    assert got == support.prefix_beam_search_reference(grid, beam)

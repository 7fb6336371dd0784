"""Moving-window filters: frozen examples and brute-force oracles."""

import tracemalloc

import numpy as np
import pytest

from madkit.data import SeriesMatrix
from madkit.smoothing import (
    _MEDIAN_BLOCK,
    SmoothConfig,
    align_labels,
    smooth_matrix,
    smooth_series,
)

import reference  # reference.smooth: the windowed np.median, the oracle


def brute_smooth(x, h, kind):
    """Independent reference: explicit per-window loop."""
    out = []
    for j in range(len(x) - h + 1):
        window = sorted(x[j : j + h])
        if kind == "mean":
            out.append(sum(window) / h)
        elif h % 2 == 1:
            out.append(window[h // 2])
        else:
            out.append((window[h // 2 - 1] + window[h // 2]) / 2.0)
    return np.array(out)


def test_median_frozen_example():
    # windows of [1,9,1,1,9] with h=3: sorted middles are 1, 1, 1
    out = smooth_series(np.array([1.0, 9.0, 1.0, 1.0, 9.0]), SmoothConfig(3, "median"))
    assert np.array_equal(out, np.array([1.0, 1.0, 1.0]))


def test_mean_frozen_example():
    out = smooth_series(np.array([1.0, 9.0, 1.0, 1.0, 9.0]), SmoothConfig(3, "mean"))
    expected = np.array([11.0, 11.0, 11.0]) / 3.0
    assert np.allclose(out, expected, rtol=0, atol=1e-15)


def test_output_length_is_t_minus_h_plus_1():
    x = np.arange(100, dtype=float)
    for h in (1, 2, 5, 99, 100):
        out = smooth_series(x, SmoothConfig(h, "mean"))
        assert out.size == 100 - h + 1


def test_h1_is_identity_copy():
    x = np.array([3.0, 1.0, 4.0])
    out = smooth_series(x, SmoothConfig(1, "median"))
    assert np.array_equal(out, x)
    out[0] = 99.0
    assert x[0] == 3.0  # caller's array untouched


def test_even_window_median_averages_middle_pair():
    # sorted [1,2,8,9] middles are 2 and 8
    out = smooth_series(np.array([9.0, 1.0, 8.0, 2.0]), SmoothConfig(4, "median"))
    assert out.size == 1
    assert out[0] == 5.0


def test_matches_brute_force_loop():
    rng = np.random.default_rng(42)
    for trial in range(20):
        t = int(rng.integers(5, 60))
        h = int(rng.integers(1, t + 1))
        kind = ("mean", "median")[trial % 2]
        x = rng.standard_normal(t)
        got = smooth_series(x, SmoothConfig(h, kind))
        want = brute_smooth(list(x), h, kind)
        assert np.allclose(got, want, rtol=0, atol=1e-12), (t, h, kind)


def test_window_longer_than_series_errors():
    with pytest.raises(ValueError, match="shorter than window"):
        smooth_series(np.ones(3), SmoothConfig(4, "mean"))


def test_config_validation():
    with pytest.raises(ValueError, match="at least 1"):
        SmoothConfig(0, "mean")
    with pytest.raises(ValueError, match="kind"):
        SmoothConfig(2, "mode")


def test_constant_series_stays_constant():
    x = np.full(30, 7.5)
    for h in (1, 2, 7):
        for kind in ("mean", "median"):
            out = smooth_series(x, SmoothConfig(h, kind))
            assert np.array_equal(out, np.full(30 - h + 1, 7.5))


def test_output_bounded_by_window_extremes():
    # every filter output lies between its window's min and max
    rng = np.random.default_rng(11)
    x = rng.standard_normal(200)
    for h in (2, 3, 10):
        for kind in ("mean", "median"):
            out = smooth_series(x, SmoothConfig(h, kind))
            for j, v in enumerate(out):
                w = x[j : j + h]
                assert w.min() - 1e-12 <= v <= w.max() + 1e-12


def test_matrix_smoothing_per_variable():
    rng = np.random.default_rng(5)
    m = SeriesMatrix(names=["a", "b"], values=rng.standard_normal((2, 40)))
    out = smooth_matrix(m, SmoothConfig(5, "median"))
    assert out.names == ["a", "b"]
    assert out.n_times == 36
    for i in range(2):
        row = smooth_series(m.values[i], SmoothConfig(5, "median"))
        assert np.array_equal(out.values[i], row)


def test_label_alignment_drops_leading_positions():
    labels = np.array([1, 0, 0, 1, 1, 0])
    assert np.array_equal(align_labels(labels, 1), labels)
    assert np.array_equal(align_labels(labels, 3), labels[2:])


def test_label_alignment_matches_smoothed_length():
    rng = np.random.default_rng(9)
    x = rng.standard_normal(57)
    labels = (rng.random(57) < 0.2).astype(int)
    for h in (1, 4, 10):
        out = smooth_series(x, SmoothConfig(h, "mean"))
        aligned = align_labels(labels, h)
        assert aligned.size == out.size


def test_label_alignment_validation():
    with pytest.raises(ValueError):
        align_labels(np.array([0, 1]), 0)
    with pytest.raises(ValueError, match="shorter"):
        align_labels(np.array([0, 1]), 3)


@pytest.mark.parametrize("bad", [0.5, 2], ids=["fraction", "two"])
def test_label_alignment_rejects_non_binary(bad):
    # aligned labels feed the metrics, so they are checked like any others
    with pytest.raises(ValueError, match="labels must contain only 0 and 1"):
        align_labels(np.array([0, bad, 1]), 1)


def test_effective_length_bookkeeping():
    # T=100 and T=50 both smoothed with h=10 leave T-9 positions
    rng = np.random.default_rng(1)
    a = smooth_series(rng.standard_normal(100), SmoothConfig(10, "median"))
    b = smooth_series(rng.standard_normal(50), SmoothConfig(10, "median"))
    assert a.size == 91
    assert b.size == 41


def test_median_matches_np_median_oracle_bit_for_bit():
    rng = np.random.default_rng(2024)
    for h in range(1, 42):
        # every fifth h, odd and even, also leaves one window past a full
        # sort block
        long = (_MEDIAN_BLOCK + h,) if h % 5 == 1 else ()
        for t in (h, h + 1, 500, *long):
            blocks = (
                rng.standard_normal((3, t)),
                rng.integers(0, 3, (3, t)).astype(float),  # heavy ties
                rng.choice([-0.0, 0.0, 1.0, -1.0], (3, t)),  # signed zeros
            )
            for block in blocks:
                for values in (np.ascontiguousarray(block), np.asfortranarray(block)):
                    want = reference.smooth(values, h)
                    config = SmoothConfig(h, "median")
                    got = [np.stack([smooth_series(row, config) for row in values])]
                    if t - h + 1 >= 2:  # a SeriesMatrix needs two columns
                        m = SeriesMatrix(["a", "b", "c"], values)
                        got.append(smooth_matrix(m, config).values)
                    for out in got:
                        assert np.array_equal(out, want), (h, t)
                        assert np.array_equal(np.signbit(out), np.signbit(want)), (h, t)


def test_median_keeps_the_input_memory_order():
    # later matrix products must see the layout np.median gave them
    block = np.random.default_rng(3).standard_normal((4, 50))
    for values in (np.ascontiguousarray(block), np.asfortranarray(block)):
        m = SeriesMatrix(["a", "b", "c", "d"], values)
        out = smooth_matrix(m, SmoothConfig(20, "median")).values
        want = reference.smooth(values, 20)
        assert out.flags.c_contiguous == want.flags.c_contiguous
        assert out.flags.f_contiguous == want.flags.f_contiguous


def test_median_rejects_nan():
    x = np.array([1.0, np.nan, 3.0, 2.0])
    with pytest.raises(ValueError, match="NaN"):
        smooth_series(x, SmoothConfig(3, "median"))


def test_median_memory_stays_near_the_output_size():
    # a window copy per output cell would need h times the output; the
    # input is column-major, as load_csv returns it
    values = np.random.default_rng(8).standard_normal((28_479, 38)).T
    m = SeriesMatrix([f"v{i}" for i in range(38)], values)
    tracemalloc.start()
    try:
        out = smooth_matrix(m, SmoothConfig(20, "median"))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * out.values.nbytes, peak / out.values.nbytes

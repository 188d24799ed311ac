"""The vectorized epoch-vector and rounding code equals its scalar form.

``epoch_vector`` takes exact integer channel/bucket sums, a cached fold
matrix for the 16-bucket coarsening and ``np.add.reduce``; the reference
below is the per-channel ``bincount`` formulation it replaced, kept here
verbatim.  Vectors must agree bit for bit (``.view(np.int64)``), and
``_round_vec`` must reproduce ``round(v, 6)`` exactly, signed zeros and
half-way ties included -- every signature byte depends on both.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.signature.vector import (
    N_COARSE,
    N_FEATURES,
    AllocationSignature,
    _round_vec,
    epoch_vector,
)

_N_SCALARS = 8


def _reference_coarsen(vec, n=N_COARSE):
    vec = np.asarray(vec, np.float64)
    if len(vec) == n:
        return vec.copy()
    idx = (np.arange(len(vec)) * n) // len(vec)
    return np.bincount(idx, weights=vec, minlength=n)


def _reference_epoch_vector(counts):
    counts = np.asarray(counts, np.float64)
    total = counts.sum()
    out = np.zeros(N_FEATURES, np.float64)
    if total <= 0:
        return out
    nbuckets = counts.shape[1]
    per_channel = counts.sum(axis=1)
    combined = counts.sum(axis=0)
    out[0:4] = per_channel / total
    cpu = per_channel[0] + per_channel[1]
    gpu = per_channel[2] + per_channel[3]
    reads = per_channel[0] + per_channel[2]
    out[4] = reads / total
    out[5] = gpu / total
    out[6] = min(cpu, gpu) / max(cpu, gpu) if max(cpu, gpu) > 0 else 0.0
    nonzero = int(np.count_nonzero(combined))
    out[7] = nonzero / nbuckets
    out[8] = combined.max() / total
    pos = (np.arange(nbuckets, dtype=np.float64) + 0.5) / nbuckets
    weights = combined / total
    center = float((pos * weights).sum())
    out[9] = center
    out[10] = float(np.sqrt(((pos - center) ** 2 * weights).sum()))
    if nbuckets > 1:
        p = weights[weights > 0]
        out[11] = float(-(p * np.log2(p)).sum()) / np.log2(nbuckets)
    base = 4 + _N_SCALARS
    for ch in range(4):
        dist = _reference_coarsen(counts[ch])
        s = dist.sum()
        if s > 0:
            out[base + ch * N_COARSE: base + (ch + 1) * N_COARSE] = dist / s
    return out


@st.composite
def heat_matrices(draw):
    """``(4, nbuckets)`` int64 counts: empty, sparse, small or 1e9-scale."""
    nbuckets = draw(st.sampled_from([1, 2, 7, 8, 9, 16, 17, 64, 100]))
    kind = draw(st.sampled_from(["empty", "sparse", "small", "huge"]))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    shape = (4, nbuckets)
    if kind == "empty":
        return np.zeros(shape, np.int64)
    if kind == "sparse":
        counts = np.zeros(shape, np.int64)
        n = draw(st.integers(1, 3))
        counts[rng.integers(0, 4, n), rng.integers(0, nbuckets, n)] = \
            rng.integers(1, 50, n)
        return counts
    high = 20 if kind == "small" else 10 ** 9
    return rng.integers(0, high, shape, dtype=np.int64)


class TestEpochVector:
    @settings(max_examples=400, deadline=None)
    @given(heat_matrices())
    def test_bit_identical_to_reference(self, counts):
        got = epoch_vector(counts)
        want = _reference_epoch_vector(counts)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_single_bucket_entropy_keeps_its_sign(self):
        # -(1 * log2 1) is -0.0; the signature JSON prints it as such.
        counts = np.zeros((4, 8), np.int64)
        counts[1, 3] = 5
        vec = epoch_vector(counts)
        assert math.copysign(1.0, vec[11]) == -1.0
        assert vec.view(np.int64)[11] == \
            _reference_epoch_vector(counts).view(np.int64)[11]


#: Exact decimal ties at the sixth place: odd multiples of 1/128 are
#: (2k+1) / (2 * 10**6) exactly.
_ties = st.integers(-10 ** 5, 10 ** 5).map(lambda j: (2 * j + 1) / 128)
#: Nearest doubles to the 6-place half-way points.
_near_ties = st.integers(-10 ** 7, 10 ** 7).map(lambda k: (k + 0.5) / 1e6)
_values = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=-1e-5, max_value=1e-5),
    st.floats(min_value=-2e9, max_value=2e9),
    _ties, _near_ties,
    st.sampled_from([0.0, -0.0, 4e-7, -4e-7, 5e-7, -5e-7, 1e9, -1e9,
                     999999999.9999995, 2 ** -7, 1e-300]),
)


def _hex(values):
    return [float(v).hex() for v in values]


class TestRoundVec:
    @settings(max_examples=500, deadline=None)
    @given(st.lists(_values, min_size=1, max_size=40))
    def test_matches_builtin_round(self, values):
        got = _round_vec(np.array(values, np.float64)).tolist()
        assert _hex(got) == _hex(round(v, 6) for v in values)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.lists(_values, min_size=3, max_size=3), min_size=1,
                    max_size=6))
    def test_matrix_rounds_per_element(self, rows):
        got = _round_vec(np.array(rows, np.float64)).tolist()
        for row, want in zip(got, rows):
            assert _hex(row) == _hex(round(v, 6) for v in want)

    def test_signature_document_rounds_each_vector(self):
        vectors = np.array([[1 / 3] * N_FEATURES, [2 ** -7] * N_FEATURES])
        sig = AllocationSignature("a", 64, 16, 16, [0, 1], [3, 1], vectors)
        doc = sig.to_dict()
        assert doc["vectors"] == [[round(1 / 3, 6)] * N_FEATURES,
                                  [round(2 ** -7, 6)] * N_FEATURES]
        assert doc["vectors"][1][0] == 0.007812  # half-even tie

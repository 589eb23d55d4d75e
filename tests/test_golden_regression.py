"""Golden-checksum regression tests.

SHA-256 digests of deterministic end-to-end outputs, pinned at release
1.0.0.  A digest change means the *bytes* of a result changed — either a
deliberate semantic change (update the constants, document it in
CHANGES.md) or an accidental one (a bug these tests exist to catch,
e.g. a stability regression that no order-only assertion would see
because `np.sort` oracles change in lockstep).

The input digests are pinned too, so a generator change is distinguished
from an algorithm change.
"""

import hashlib

import numpy as np
import pytest

from repro.baselines import sta_sort
from repro.core import sort_arrays, sort_pairs, top_k
from repro.workloads import generate_spectra, uniform_arrays

GOLDEN = {
    "batch_in": "233697bfb7c0e9a6",
    "sorted": "ac278588189c2937",
    "sta": "ac278588189c2937",
    "topk32": "79863c8ec13fa705",
    "pairs_keys": "79b7948a73b53748",
    "pairs_vals": "d68d6f05ad7ad99a",
    "spec_mz_in": "11579f083e9698da",
}


def _digest(array: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()[:16]


@pytest.fixture(scope="module")
def batch():
    return uniform_arrays(100, 256, seed=777)


@pytest.fixture(scope="module")
def spectra():
    return generate_spectra(20, 128, seed=777)


class TestGoldenDigests:
    def test_generator_unchanged(self, batch, spectra):
        assert _digest(batch) == GOLDEN["batch_in"]
        assert _digest(spectra.mz) == GOLDEN["spec_mz_in"]

    def test_sorted_output(self, batch):
        assert _digest(sort_arrays(batch)) == GOLDEN["sorted"]

    def test_sta_output_identical_bytes(self, batch):
        assert _digest(sta_sort(batch)) == GOLDEN["sta"]

    def test_sta_and_arraysort_same_digest(self):
        # The two techniques' outputs are byte-identical by construction;
        # recording both guards each against drifting alone.
        assert GOLDEN["sorted"] == GOLDEN["sta"]

    def test_topk_output(self, batch):
        assert _digest(top_k(batch, 32)) == GOLDEN["topk32"]

    def test_pair_sort_outputs(self, spectra):
        result = sort_pairs(spectra.mz, spectra.intensity)
        assert _digest(result.keys) == GOLDEN["pairs_keys"]
        # The values digest pins STABILITY: any reordering of equal keys'
        # payloads changes these bytes while every order assertion passes.
        assert _digest(result.values) == GOLDEN["pairs_vals"]

    def test_digest_helper_sensitivity(self, batch):
        mutated = batch.copy()
        # values reach 2^31, where float32 swallows += 1.0; halve instead
        mutated[0, 0] *= 0.5
        assert _digest(mutated) != _digest(batch)

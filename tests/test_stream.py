"""The random stream of a trial, pinned by a digest.

`sweep.run_trial` draws the field, then the paths, then the measurement noise
from one generator seeded per trial. The digest below covers all three draws
for one small trial per scheme, location-aware and -unaware, so any change to
what a seed produces fails here. A deliberate stream change updates the digest
and says so in CHANGES.md. The digest last changed when paths started to be
drawn in chunks of CHUNK paths, each from a generator seeded by one entropy
draw of the trial's and the chunk's index, so that a cell's paths are the first
m of one draw whatever m is.

Values are rounded to 10 decimals before hashing: path points go through
sin/cos, whose last bits may differ between numpy builds, and a changed stream
moves far more than that.
"""

import hashlib

import numpy as np

from pathfield.field import BandlimitedField, generate_random_field
from pathfield.paths import UNAWARE_SCHEMES, Scheme, SchemeConfig, generate_paths
from pathfield.sensing import build_matrix, measure

STREAM_DIGEST = "2f0367489cc952dd6fedd58ecdaad2e736ba94e1dcbea639888066018b56f958"

CASES = [(s, True) for s in Scheme] + [(s, False) for s in Scheme if s in UNAWARE_SCHEMES]


def _update(digest, values) -> None:
    digest.update(np.round(np.asarray(values, dtype=float), 10).tobytes())


def stream_digest() -> str:
    digest = hashlib.sha256()
    for i, (scheme, aware) in enumerate(CASES):
        b = 2
        config = SchemeConfig(scheme=scheme, m=2 * (2 * b + 1) ** 2, b=b, gamma=0.08, p=9,
                              noise_sigma=0.05, location_aware=aware, seed=700 + i)
        rng = np.random.default_rng(config.seed)
        fld = generate_random_field(b, rng)
        paths = generate_paths(config, rng)
        # A zero field measures the noise draws alone, exactly.
        zero = BandlimitedField(b=b, coeffs=np.zeros_like(fld.coeffs))
        noise = measure(zero, build_matrix(paths, config), paths, config, rng)
        digest.update(f"{scheme.value}:{aware}".encode())
        _update(digest, fld.coeffs.view(float))
        for sp in paths:
            _update(digest, sp.points)
            if sp.endpoints is not None:
                _update(digest, sp.endpoints)
            if sp.hive is not None:
                _update(digest, sp.hive)
        _update(digest, noise)
    return digest.hexdigest()


def test_rng_stream_digest_is_pinned():
    assert stream_digest() == STREAM_DIGEST

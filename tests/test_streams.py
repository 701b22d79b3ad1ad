"""A golden ledger of the package's random streams, stored beside the version it belongs to.

A change of random stream is a change of version: the same version gives the
same bits. Every entry is built from IEEE-exact operations only (the
ziggurat and uniform draws, the sphere heights 1 - 2u, the disk points
2u - 1 of a one-point spin-cover draw, sqrt, divide, copysign, sums in a
fixed order and shortest-repr or ``%.17g`` printing), so
it should read the same on every platform and numpy version; estimates,
which pass through arccos and LAPACK, are not pinned here.
"""

import contextlib
import hashlib
import io

import oriflag
from oriflag.cli import main
from oriflag.montecarlo import _cover_coords, _sphere_heights
from oriflag.orthogonal import RngStream, sample_rotation_matrices

LEDGER_VERSION = "0.14.0"
LEDGER = {
    "standard_normal RngStream(0, 0)": [
        "-0x1.19d8ab59737bap-1",
        "0x1.0a172d0cdb024p-1",
        "0x1.d82e1ff13cb8bp-3",
        "0x1.3141c7599e457p-1",
        "-0x1.902251a004ed6p-1",
        "-0x1.98ecb2dee7c17p+0",
    ],
    "random RngStream(0, 0)": ["0x1.18ca5a4e027f3p-1", "0x1.9e8c016ca2be2p-2"],
    "sphere heights RngStream(0, 0)": ["-0x1.8ca5a4e027f30p-4", "0x1.85cffa4d75078p-3"],
    "disk points RngStream(0, 0)": [
        "0x1.8ca5a4e027f30p-4",
        "-0x1.78486907dc318p-3",
        "-0x1.85cffa4d75078p-3",
        "-0x1.c0d4f5b48ca68p-3",
    ],
    "disk s RngStream(0, 0)": ["0x1.615c80a99901cp-5", "0x1.591ef1317bb28p-4"],
    "standard_normal RngStream(7, 3)": [
        "-0x1.469655dc32dc5p-4",
        "-0x1.2c6f63be5b064p-1",
        "0x1.d3fce0007e112p-1",
        "-0x1.126f57b9ee54ep+0",
        "0x1.80f4371a565f9p-2",
        "0x1.e6f5d686608e7p-1",
    ],
    "random RngStream(7, 3)": ["0x1.0083108f5fec0p-7", "0x1.3de6a8f782600p-4"],
    "sphere heights RngStream(7, 3)": ["0x1.f7fbe77b8500ap-1", "0x1.b08655c21f680p-1"],
    "disk points RngStream(7, 3)": [
        "-0x1.5a0eb2d63d272p-1",
        "-0x1.630f47ac83d40p-2",
        "-0x1.9bab479a527e2p-1",
        "-0x1.bfd850a628700p-4",
    ],
    "disk s RngStream(7, 3)": ["0x1.27744a57d2d26p-1", "0x1.511e9f81f96f1p-1"],
    "sample_rotation_matrices n=2": "7f475b6746eda5d9c4f46d242273030464e9d43f848a36e9738e2907f41a3823",
    "sample_rotation_matrices n=3": "d68da0a1a4b71bfc63cf2af44bb92cabf68ad9a38c8939e8939d06763fc76d11",
    "sample_rotation_matrices n=5": "6491f235f4df73e276dcbd62dfb228f5f69c23f3e8744b00bed9ad40c03f2348",
    "sample_rotation_matrices n=8": "cee9e5b92da1f184ff45ce254195587888005ee9e59855ccbf85ebf0d9f5269f",
    "oriflag sample --space so3 --n 4 --seed 1":
        "d20ef835cd5d89706439a9c819e7d4b509ecce887b55f26fa7a59f8647b1e629",
    "oriflag sample --space s2 --n 4 --seed 1 --format csv":
        "ea2a6e9a069c21472523fdac96aa630ed2e8e89f9be6bcc249e579eef912a594",
}


def _hexes(values):
    return [float.hex(float(x)) for x in values]


def _stdout_sha256(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


def _ledger():
    """Recompute every ledger entry."""
    ledger = {}
    for seed, k in ((0, 0), (7, 3)):
        ledger[f"standard_normal RngStream({seed}, {k})"] = _hexes(RngStream(seed, k).generator().standard_normal(6))
        ledger[f"random RngStream({seed}, {k})"] = _hexes(RngStream(seed, k).generator().random(2))
        ledger[f"sphere heights RngStream({seed}, {k})"] = _hexes(_sphere_heights(RngStream(seed, k).generator(), 2))
        x0, x1 = _cover_coords(RngStream(seed, k).generator(), 2, (0, 1))
        ledger[f"disk points RngStream({seed}, {k})"] = _hexes([x0[0], x1[0], x0[1], x1[1]])
        ledger[f"disk s RngStream({seed}, {k})"] = _hexes(x0 * x0 + x1 * x1)
    for n in (2, 3, 5, 8):
        stack = sample_rotation_matrices(n, 3, RngStream(1, 0))
        ledger[f"sample_rotation_matrices n={n}"] = hashlib.sha256(stack.tobytes()).hexdigest()
    for argv in (["--space", "so3", "--n", "4", "--seed", "1"],
                 ["--space", "s2", "--n", "4", "--seed", "1", "--format", "csv"]):
        ledger[" ".join(["oriflag sample", *argv])] = _stdout_sha256(["sample", *argv])
    return ledger


def test_random_streams_match_the_ledger_of_this_version():
    current = _ledger()
    assert current.keys() == LEDGER.keys()
    drifted = {key: value for key, value in current.items() if value != LEDGER[key]}
    assert oriflag.__version__ == LEDGER_VERSION, (
        f"the ledger was recorded at version {LEDGER_VERSION}, the package is "
        f"{oriflag.__version__}: re-record LEDGER and LEDGER_VERSION (drifted: {sorted(drifted)})"
    )
    assert not drifted, (
        f"random streams changed while the version stayed {LEDGER_VERSION}: {sorted(drifted)}. "
        "A change of random stream is a change of version: bump __version__ in "
        "pyproject.toml and oriflag/__init__.py, then re-record LEDGER and LEDGER_VERSION "
        f"with these values: {drifted}"
    )

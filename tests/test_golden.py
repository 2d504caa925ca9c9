"""Golden digests guarding the byte-identity contract.

The digests pin bytes the package produced before its three series classes
shared one core: ``dump_siegel`` of each generator at precision 6, and the
stdout of ``siegel2 verify --suite all``.  The precision-8 and precision-10
digests are the cache files pinned in ``perfbench/manifest.json``
(``warm_cache["8"]`` and ``warm_cache["10"]``), from the fraction-based
builds that preceded the integer Cohen numbers and the row-indexed product
kernel; at precision 10 the products of the builds reach 83-bit
coefficients.  The precision-12 digest of X35 was computed with the
Laplace determinant of 30 two-factor products that preceded the shared
block passes of ``theta_determinant``.  The precision-16 digests
(``DUMP16_SHA256``, checked by CI) were computed with its 18 block passes
along the row pairs (k, theta_12 | theta_1, theta_2), before the 10 along
the column pairs (X4, X6 | X10, X12).  The ``borcherds-structure`` digests
at B = 0..6 were pinned while a vanishing order past the box was a sentinel
object that decided each step's comparison itself, and those at B = 7 and 8
while the suite multiplied generators reduced mod p, before it reduced
products formed over Z.  A mismatch means a
change altered output; these digests must not be re-pinned to make a
refactoring pass.
"""

import hashlib

import pytest

from siegel2 import GeneratorRegistry
from siegel2.cli import main
from siegel2.qformat import dump_siegel, save_atomic
from siegel2.verify import verify_identities

DUMP_SHA256 = {
    "X4": "efeca2307a61aecf1aea2b86788289d61bf2ab0d8854d549bbade76bfed5e634",
    "X6": "387686f361a2f9b8dd72658b12fec4b11521ab220f62a1bc0200b95bd4f51c50",
    "X10": "e860502f0ff911eeea1f7984f7815726175dcd55b3ba83ee98d22fded9c1aec2",
    "X12": "b2d9226dbe66a5ae2c404a5590af81c14d2c431d91675993afa8b2064363a6f0",
    "Y12": "2beb344a634c55ede18aacfd0b9adb65ab74f9257bdf4a8e63ec09a235dc27e9",
    "X16": "df2c8057ecfccca09e984b1ee3ad2fb0e4df1b6902d52aa53682a87036e4dc88",
    "X35": "2328deef543f0f5c01a420cd05b16b6a0b6721f2ebfc04f3bff2a7a22a8fda53",
}
DUMP8_SHA256 = {
    "X4": "5fe2cd2729867eb2297ae44b29c989bca9336b960ecb8e8961d109bfc1071f7c",
    "X6": "69b88a07a3387b425bb6d65894df64ecb0fb983d8ad9f2a921ac8481656d915b",
    "X10": "6b83263acdf24e189fd69eccadaea88cdb152fb92c7ff235f1901d87bdc98712",
    "X12": "9497f05c5b6a3100dec20ff6639e87615c3d5f979dfad2b20a8f5b29f5f1c75b",
    "Y12": "13aea3402e2433a9628ef8df9744582070827bbe62065588f75e26981fb7457e",
    "X16": "cbc0ae2983053e2703dc39e45d4eb0d7b4507b01ae10b9b0101e9a858b50f17e",
    "X35": "e3c0af0ff5f6240eec6f5333bae9541eb8924d3ea1eeb6856ecafec8ed41b5b4",
}
DUMP10_SHA256 = {
    "X4": "02a8d9472f4a2b7e6f73a43c8bbe6402a57cf54a9056492c21722106ca8bcb67",
    "X6": "01e04686bb9ac96086693752646327f961426671272b8a81d362ed7aa021729a",
    "X10": "bbc3a8621a9c26c5ea915bebba9a261dc94b075e85495594b72014531db67ae4",
    "X12": "3d2b85c97f2a88d2c08d3e87e80658d2890cf9cf986d7c76683b3378c17cc8db",
    "Y12": "3c063125ea4e39293565e7fe37bfe3f351939d62ae535006c5da992e45f31c3f",
    "X16": "4f89f50e29bb39e53c55267dffc3a3230549894ff1514993518b5be266a2e5b3",
    "X35": "744f45e408a68317ea9342c21b62308b102a9f2d7ba01aa31b2a32d3f134ccaa",
}
# The cache files of a cold ``siegel2 build --name X35 --prec 16``, checked
# by a CI step outside the tier-1 tests.
DUMP16_SHA256 = {
    "X4": "c00d42e5f13582a9c8d700d5816244b4380679f6f48490315ff1bdf70082cda6",
    "X6": "1f1d89597b500dcb0d27750dcce18eb585a14a0f7aab6fd8137ea0c41e4a17a3",
    "X10": "ce36118dff3eea6e0259d6e9e6e58a22fc8466f9ad323f7479c8e7a9d77c92bc",
    "X12": "aa366aa73bcf9fca9b0eded356f5e6aa5b40a3ad51c60334bac24e36fa3bf659",
    "X35": "a65cf560da77ca9af572d5f70187437582ad9a8ab2dd988704e3ccb158b51d22",
}
# The cache file of a cold ``siegel2 build --name Y12 --prec 16``, checked by
# a CI step outside the tier-1 tests; pinned from the build that formed Y12
# as (X4^3 - X6^2)/1728 + 144 X12 of the pinned X4, X6 and X12.
Y12_DUMP16_SHA256 = "fc7d2ae5da2ee54d3b7a12bf626e718317d76a3207b7228088f1796042071346"
# The cache file of a cold ``siegel2 build --name X16 --prec 16``, checked by
# a CI step outside the tier-1 tests; pinned from the build that held each
# index-1 Jacobi form in a class of its own and converted every
# ``jacobi_combine`` term into and out of a one-variable series.
X16_DUMP16_SHA256 = "068862c187e3f3a1c5830c48306d56c566487bb6ae2362c129ddc16798f659bc"
DUMP12_SHA256 = {
    "X35": "63b3117a6f4b9ca4ec24889abcba7107c6a8e366c624f653d3c39634049f820b",
}
VERIFY_ALL_SHA256 = "0d17ca2462f94dd9093d9369735b71ecdf1e1e0cfb224f795573b4aa8c097680"
# stdout of ``verify --suite borcherds-structure --prec B`` per B: PASS steps,
# and SKIPs of products that vanish on a box B below the order checked.
BORCHERDS_SHA256 = {
    0: "bfd76df08337e609266d9637db8ef5edc74c290b08f446aaece96934b7c2e0ed",
    1: "4bbb177934af9be0490789a064e7ddd1e9c741c3f06c82ecd23d6ef7a1c06d4b",
    2: "278954730badf4e3ff22a4637ca40a0619903ce3c7517b6a5c645cf3d8abd166",
    3: "ecb3f68e8c318194c61669cdc4996de3d0dffdfbb7258287396dad754038bee5",
    4: "9bd1f706af55cc26ff4d63d854640e936226d46fb981214f3d9ed0cc8cb8a916",
    5: "5109af0b5342ca730a2c870e4e88df904e2143e0063efee6682c80415d22b1ca",
    6: "73a0abef4e1a20d30bc43ab21b4411cf5d1ca8affe36d8216127a60ea6370b02",
    # Every order is at most 6, read inside the box from B = 6 on, so a
    # larger box changes no line.
    7: "73a0abef4e1a20d30bc43ab21b4411cf5d1ca8affe36d8216127a60ea6370b02",
    8: "73a0abef4e1a20d30bc43ab21b4411cf5d1ca8affe36d8216127a60ea6370b02",
}
# ``render()`` of the suite at p = 5, B = 3 with X10 and X35 replaced by 5 X10
# and 5 X35: the steps past the box that the truncation decides, FAIL for X10
# and PASS for X35.
BORCHERDS_VANISHING_SHA256 = "64c056dce4208eedb23df368ea308f7c357573b2fedda09d403308eacf9a53a9"


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", sorted(DUMP_SHA256))
def test_generator_dump_digest(gens6, name):
    assert sha256(dump_siegel(gens6[name], name)) == DUMP_SHA256[name]


@pytest.fixture(scope="module")
def registry8(tmp_path_factory):
    return GeneratorRegistry(tmp_path_factory.mktemp("qexp-cache-8"))


@pytest.mark.parametrize("name", sorted(DUMP8_SHA256))
def test_generator_dump_digest_at_precision_8(registry8, name):
    exp = registry8.generator(name, 8)
    assert sha256(dump_siegel(exp, name)) == DUMP8_SHA256[name]


@pytest.fixture(scope="module")
def registry10(tmp_path_factory):
    return GeneratorRegistry(tmp_path_factory.mktemp("qexp-cache-10"))


@pytest.mark.parametrize("name", sorted(DUMP10_SHA256))
def test_generator_dump_digest_at_precision_10(registry10, name):
    exp = registry10.generator(name, 10)
    assert sha256(dump_siegel(exp, name)) == DUMP10_SHA256[name]


@pytest.mark.parametrize("name", sorted(DUMP12_SHA256))
def test_generator_dump_digest_at_precision_12(tmp_path, name):
    exp = GeneratorRegistry(tmp_path).generator(name, 12)
    assert sha256(dump_siegel(exp, name)) == DUMP12_SHA256[name]


def test_verify_all_stdout_digest(capsys, tmp_path, gens6):
    for name, exp in gens6.items():
        save_atomic(tmp_path / f"{name}.p6.qexp", dump_siegel(exp, name))
    code = main(["verify", "--suite", "all", "--cache-dir", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert sha256(out) == VERIFY_ALL_SHA256


@pytest.fixture(scope="module")
def cache6(tmp_path_factory, gens6):
    cache = tmp_path_factory.mktemp("qexp-cache-6")
    for name, exp in gens6.items():
        save_atomic(cache / f"{name}.p6.qexp", dump_siegel(exp, name))
    return cache


@pytest.mark.parametrize("B", sorted(BORCHERDS_SHA256))
def test_borcherds_structure_stdout_digest(capsys, cache6, B):
    code = main(["verify", "--suite", "borcherds-structure", "--prec", str(B), "--cache-dir", str(cache6)])
    out = capsys.readouterr().out
    assert code == 0
    assert sha256(out) == BORCHERDS_SHA256[B]


class _FiveTimesX10AndX35(GeneratorRegistry):
    def generator(self, name, precision):
        g = super().generator(name, precision)
        return 5 * g if name in ("X10", "X35") else g


def test_borcherds_structure_decides_the_steps_past_the_box(cache6):
    """5 X10 and 5 X35 vanish mod 5, so every product with them vanishes on
    the box: at B = 3 each x10-step is checked against v + 1 <= 3 and fails,
    and each x35-step against v + 2 <= 3 and passes."""
    report = verify_identities("borcherds-structure", 5, 3, _FiveTimesX10AndX35(cache6))
    assert sha256(report.render()) == BORCHERDS_VANISHING_SHA256


def test_a_cold_y12_build_writes_only_its_own_file(tmp_path):
    """Y12 is built from the lifts of X6's Jacobi form and of psi alone: a
    cold build on an empty cache writes Y12.p6.qexp, with the pinned bytes,
    and no other file."""
    assert main(["build", "--name", "Y12", "--prec", "6", "--cache-dir", str(tmp_path)]) == 0
    assert [f.name for f in tmp_path.iterdir()] == ["Y12.p6.qexp"]
    assert hashlib.sha256((tmp_path / "Y12.p6.qexp").read_bytes()).hexdigest() == DUMP_SHA256["Y12"]


def test_a_cold_x16_build_writes_only_its_own_file(tmp_path):
    """X16 is built from its Jacobi form alone: a cold build on an empty
    cache writes X16.p6.qexp, with the pinned bytes, and no other file."""
    assert main(["build", "--name", "X16", "--prec", "6", "--cache-dir", str(tmp_path)]) == 0
    assert [f.name for f in tmp_path.iterdir()] == ["X16.p6.qexp"]
    assert hashlib.sha256((tmp_path / "X16.p6.qexp").read_bytes()).hexdigest() == DUMP_SHA256["X16"]

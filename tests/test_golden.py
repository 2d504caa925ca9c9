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
block passes of ``theta_determinant``.  A mismatch means a change altered
output; these digests must not be re-pinned to make a refactoring pass.
"""

import hashlib

import pytest

from siegel2 import GeneratorRegistry
from siegel2.cli import main
from siegel2.qformat import dump_siegel, save_atomic

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
DUMP12_SHA256 = {
    "X35": "63b3117a6f4b9ca4ec24889abcba7107c6a8e366c624f653d3c39634049f820b",
}
VERIFY_ALL_SHA256 = "0d17ca2462f94dd9093d9369735b71ecdf1e1e0cfb224f795573b4aa8c097680"


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


def test_a_cold_x16_build_writes_only_its_own_file(tmp_path):
    """X16 is built from its Jacobi form alone: a cold build on an empty
    cache writes X16.p6.qexp, with the pinned bytes, and no other file."""
    assert main(["build", "--name", "X16", "--prec", "6", "--cache-dir", str(tmp_path)]) == 0
    assert [f.name for f in tmp_path.iterdir()] == ["X16.p6.qexp"]
    assert hashlib.sha256((tmp_path / "X16.p6.qexp").read_bytes()).hexdigest() == DUMP_SHA256["X16"]

"""Golden digests guarding the byte-identity contract.

The digests pin bytes the package produced before its three series classes
shared one core: ``dump_siegel`` of each generator at precision 6, and the
stdout of ``siegel2 verify --suite all``.  A mismatch means a change
altered output; these digests must not be re-pinned to make a refactoring
pass.
"""

import hashlib

import pytest

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
VERIFY_ALL_SHA256 = "0d17ca2462f94dd9093d9369735b71ecdf1e1e0cfb224f795573b4aa8c097680"


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", sorted(DUMP_SHA256))
def test_generator_dump_digest(gens6, name):
    assert sha256(dump_siegel(gens6[name], name)) == DUMP_SHA256[name]


def test_verify_all_stdout_digest(capsys, tmp_path, gens6):
    for name, exp in gens6.items():
        save_atomic(tmp_path / f"{name}.p6.qexp", dump_siegel(exp, name))
    code = main(["verify", "--suite", "all", "--cache-dir", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert sha256(out) == VERIFY_ALL_SHA256

"""Byte-identity gate: the bundled programs' DRAGLOG output and collection
statistics at K in {1, 4, 16}, pinned as sha256 digests.

A runtime change that keeps these digests keeps every creation, use and
collection tick of the bundled programs.  A change that means to alter
the log must update the table and say why.
"""

import hashlib

import pytest

import dragprof
from dragprof.interp import run_source
from dragprof.profiler import format_draglog

# (program, K) -> (sha256 of the DRAGLOG text, sha256 of the stats lines)
GOLDEN = {
    ("motiv", 1): (
        "121bdffed6b939c47103cfc90f492d5cfc34ad5e08b964b66661b63f76c11bb8",
        "cf1edaa4735df9f843b51969a432fdec8eef6b951ac09a5151cfd985ed15db00"),
    ("motiv", 4): (
        "07b8f07ffa6bc749d69758d41b058ff8937591693c5db8fee8fa6bce11628c3b",
        "aceba08c999ffa1bbc6ab3fa0c984491dae5c766a354bf920a45fa096acded5b"),
    ("motiv", 16): (
        "36b9a20b846570af190c8e14519a47b7fbab682ab1c5c649860a67ae077244c0",
        "77536bf51fe4708599f0b8a6082db9ffbb96918f81f99966749560ede8c1f213"),
    ("motiv-nullified", 1): (
        "4f7b26cac6dda4262e8f15b60683750d5464dd0c15f11056d54c7eb37a35c56b",
        "03a493a31033cad318b5fba618dab2640b5237494eb751285b202c698c7a031d"),
    ("motiv-nullified", 4): (
        "858dab13132b348856a7997206e83fc438cf6842830cda2c02212a53cd6f9cba",
        "2aabf2cb43228ffdc430d02c9286d9b0a5696f99d08d387e6b3e75a755e675e7"),
    ("motiv-nullified", 16): (
        "6c51632ff4de85e7bb6f637804984be181800a75611d43d86ced93677c4873fa",
        "d74cdabfd4a47383553028540a7ef5330fdd56f44c1e53084853543eff474c88"),
    ("list-stress", 1): (
        "8080cefab1a0dbd4602aa18618ec14fadf2151737887eff93c461b325c4ed6ac",
        "7b69dbb1d2c958bcb6aff048b9c83b0aa9d2b7e184e58f74b4d499caf284d0a2"),
    ("list-stress", 4): (
        "7f6e058104a9b346eb8f70a214fba434df4ff56638759f8abdb6ee21d9940941",
        "1525ab664ffdf54048c0fd92b0078398e2d99b318891a0bf0c90919208ecf426"),
    ("list-stress", 16): (
        "ba89ddaca6b9d7bd1f5281284f2a29550cf3cfa7a854ed9aaf3b22cd6eeec225",
        "a204cbab4243e8851756a3264aefc3b53bb25033f7a8fb11b2f52b32f3742ae7"),
    ("vector-stress", 1): (
        "38a8281277c8718c40cf29dc6b59d289a23b98f516f334adcb53725e7b3a2ab0",
        "23b2081b2c47b02b07977e001f433c41d1871f267b0a94b5123f66b8e86fb475"),
    ("vector-stress", 4): (
        "dfe3a8a2100c08d7d97da3713a6cd3db85e4e3973c1ffb10ab26a48186f828f8",
        "0dcfc20ce70d2ebc227bf561533f3468bdc32c03d5c3fd1da4b121bca657bf2d"),
    ("vector-stress", 16): (
        "6241d35eef45286017d20245aba0abcc1f27f7d4d36810f9603a2372c5ac7dab",
        "1451a9d049bc5b1a4822869652653b3cd02314a54e702f511aea67bfbb6f1561"),
}


def _sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("program, k", sorted(GOLDEN))
def test_bundled_draglog_and_stats_byte_identical(program, k):
    result = run_source(dragprof.bundled_program(program + ".scm"),
                        gc_interval=k, source_name=program + ".scm")
    stats = "".join(f"{s.trigger} {s.tick} {s.survivors} {s.collected} "
                    f"{s.slots_copied}\n" for s in result.collections)
    assert (_sha256(format_draglog(result.trace_log)),
            _sha256(stats)) == GOLDEN[program, k]

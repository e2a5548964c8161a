"""Byte-identity gate: the bundled programs' DRAGLOG output and collection
statistics at K in {1, 4, 16}, and the files `analyze` and `plot` make
from those logs at K in {1, 16}, pinned as sha256 digests.

A runtime change that keeps these digests keeps every creation, use and
collection tick of the bundled programs; an analyzer or plot change that
keeps them keeps every report, CSV and SVG byte.  A change that means to
alter an output must update the table and say why.
"""

import contextlib
import hashlib
import io

import pytest

import dragprof
from dragprof.cli import main
from dragprof.errors import (
    OutOfMemory,
    SchemeRuntimeError,
    SchemeSyntaxError,
)
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


REPORT_FILES = ("report.csv", "curves.csv", "histogram.csv", "report.txt",
                "curves.svg", "histogram.svg")

# (program, K) -> sha256 of each of REPORT_FILES, in that order
GOLDEN_REPORT = {
    ("list-stress", 1): (
        "0dcbb04f44163f3f24d4d4581b09b927dc4d8d37ac12106cb0eea4bec1e743e1",
        "f5717cc37a0ec34e36277597544011eae70c5c3f0acc4be13a6e2cfa0123aa4c",
        "fdfef48acad0c2c644e666f04b51d53f9cb2a0e3df3d957b163b19c27f43e92f",
        "80e8b6f76df691d8c4a8970ec2ad9b1b52721b4a43b9bdc34c2a069b9f6dd72d",
        "02ffcbb971359aa6e001644427a5ed35c27e733be6dd6a3cc7b57ad4a2b27a0a",
        "bceb078f91a7a1f822bed8dc2137b4ffd00437bd3069f45806462d2d080ec6e9"),
    ("list-stress", 16): (
        "2b25cb3dae2a332f02bae287a3f223912adfb9efba737de33bfc4498eebe6b8e",
        "f5717cc37a0ec34e36277597544011eae70c5c3f0acc4be13a6e2cfa0123aa4c",
        "be9242b242fd3758b8232fff1f4f20a8550132a4ef9f61877fdf209da87fcabb",
        "55fd8482f510c1a1d2ff1af47a211097c6e14ba8b8b1f5715da7f31110d76bf3",
        "02ffcbb971359aa6e001644427a5ed35c27e733be6dd6a3cc7b57ad4a2b27a0a",
        "e413d0458bc6392c3bed2aa6f3b9fbda4332baa88a9b7f178b4b26424a7d300e"),
    ("motiv", 1): (
        "d9eb6ff660d13f45e4a490e549c82ae948e60a3bb1b6a3cd1fed4a6e3721cfd1",
        "3a52ff9e0ec45b02d61c01b75f5ca8f01ab66864812be8c3b8ad9ad785bd5899",
        "9717590ad1bdfc13a4800caff2c616963f017b86dfcb1ab0713f7a6b837dce4e",
        "5ade4fbdf8a88ec39cdd6f11a239a3e112b1ad0f828c9a8b90b39b0d488c5b85",
        "9053f6a65d682bb568521314315db08931d2e064de2dac2735e7ebbeca5c0521",
        "931ebc46bbe2731e9579ff52530ea235e551b55e53842b9a4f8d8d7628762f23"),
    ("motiv", 16): (
        "25b839c653a01f26e1735a29efe411036da122d0edb1ee4681fe2b3314a50212",
        "3a52ff9e0ec45b02d61c01b75f5ca8f01ab66864812be8c3b8ad9ad785bd5899",
        "56ea51ca953053898d2453d6a25df7b6c8be489ab81fe769f4c861fae138b91f",
        "3710f83b10e56a694df822c26854efec9393f9a6b03d10ef8459e765a252c4d2",
        "9053f6a65d682bb568521314315db08931d2e064de2dac2735e7ebbeca5c0521",
        "b7db14f594b6e3c080c3a6d59bc5af11fc0507e18c6686a57837843173b6ae02"),
    ("motiv-nullified", 1): (
        "9312680338170e93ba96c8e99c441264aae3b071b8b478e082538f25b5438c1e",
        "1eaa2049cc7e82993bce71e9c4cc45de252cdc25422ca99b3000321abdf43bc3",
        "920f273b5b0c46962a861a5d460db9bda374ab8fc9d79bef0373f1f6d21f9c77",
        "7a72a3243b2011350c64bc655197f43da9efba459ea889365e2a5b19ebdc2031",
        "fba5fb13150e8f3a4a9df4f9fbb0d7c77b805160fadbfe25ae283cbe388f0c8b",
        "2b3bb588a86c9625a9ddc30fd1302116324f0d779bdd0ee4b9d4ce2ce64addc6"),
    ("motiv-nullified", 16): (
        "73e45e05d780bf13c9c9b6329cb1c23d073908b0933c345d6ec9b34251ebe406",
        "e65e0f784966fd0e4278a29fbeda3089da221c6a5d377a3de6d074e9d0f1b16c",
        "734761718e5173a75b0ff0740965a6c5b1ac670373c51787703cdd40b15cdb7e",
        "5f2553cf14ba77c4ab5b19fda171c0cf8548b707389691acc3fcaeb5e8d54dee",
        "01ec7984bc8ba91b601c887c0a551b98eb039cf94e971e6d67e3b578adc57544",
        "89f74049f813c597c74bd6f0a70b28d0b84c6992d054b65165d0417432ff8f78"),
    ("vector-stress", 1): (
        "5d53ffaba23f31ab171590c4a7cc51bc7305172a0cb3bde242ca8e6b4a7e43ea",
        "eac7094f48c75c6530ea231339c7087a41b66af4dc5c9803121d0f44fd68f0ad",
        "18cb76cde504a04adbb4a68f7486b7d19bc8eadbfe7ec59af0dac981a296a08e",
        "71416dbb51e50d9fb1a4c6e84a32581b8d7887c3e3b7f468c067e17bae11656a",
        "c179d3b8cc1f65b25432a9ebc33464cb141bc584730e9e93ea339e3fdc991230",
        "68e58c241e869e6b06341592bcfb780a08a4cf73e5f6921c1fe9b8ec008fd4da"),
    ("vector-stress", 16): (
        "5d53ffaba23f31ab171590c4a7cc51bc7305172a0cb3bde242ca8e6b4a7e43ea",
        "eac7094f48c75c6530ea231339c7087a41b66af4dc5c9803121d0f44fd68f0ad",
        "18cb76cde504a04adbb4a68f7486b7d19bc8eadbfe7ec59af0dac981a296a08e",
        "a4fca1e6ac2577988e6cef2ea3a01e0d8bb6093a4566f012e4f56bc59f089719",
        "c179d3b8cc1f65b25432a9ebc33464cb141bc584730e9e93ea339e3fdc991230",
        "68e58c241e869e6b06341592bcfb780a08a4cf73e5f6921c1fe9b8ec008fd4da"),
}


@pytest.mark.parametrize("program, k", sorted(GOLDEN_REPORT))
def test_bundled_report_and_plots_byte_identical(program, k, tmp_path):
    source = tmp_path / (program + ".scm")
    source.write_text(dragprof.bundled_program(program + ".scm"),
                      encoding="utf-8")
    log = tmp_path / (program + ".draglog")
    out = tmp_path / "out"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["run", str(source), "--gc-interval", str(k),
                     "--log", str(log)]) == 0
        assert main(["analyze", str(log), "--out-dir", str(out)]) == 0
        assert main(["plot", str(out / "curves.csv"),
                     str(out / "histogram.csv"), "--out-dir",
                     str(out)]) == 0
    digests = tuple(hashlib.sha256((out / name).read_bytes()).hexdigest()
                    for name in REPORT_FILES)
    assert digests == GOLDEN_REPORT[program, k]


# (source, heap slots, exception type, str(exception)) for one input per
# reader and compiler error, the order in which a form's errors are
# found, and the runtime errors that carry a source position.  Recorded
# at K=4 before the AST layer was merged into the closure compiler.
ERROR_MESSAGES = [
    ('(car', 64,
     SchemeSyntaxError, '1:5: unexpected end of input (unclosed parenthesis)'),
    ('())', 64,
     SchemeSyntaxError, '1:3: unexpected closing parenthesis'),
    ('#x', 64,
     SchemeSyntaxError, '1:1: unknown literal #x'),
    ("'(. 2)", 64,
     SchemeSyntaxError, '1:3: misplaced dot'),
    ('(1 . 2 3)', 64,
     SchemeSyntaxError, '1:8: form after dotted tail'),
    ('(car (1 . 2))', 64,
     SchemeSyntaxError, '1:6: dotted list in code'),
    ('()', 64,
     SchemeSyntaxError, '1:1: empty application'),
    ('(quote)', 64,
     SchemeSyntaxError, '1:1: quote takes one datum'),
    ('(define x (if))', 64,
     SchemeSyntaxError, '1:11: if takes a test and one or two branches'),
    ('(let loop ((i 0)))', 64,
     SchemeSyntaxError, '1:1: named let needs bindings and a body'),
    ('(let ((x 1)))', 64,
     SchemeSyntaxError, '1:1: let needs bindings and a body'),
    ('(let 5 1)', 64,
     SchemeSyntaxError, '1:1: expected a binding list'),
    ('(let ((x)) x)', 64,
     SchemeSyntaxError, '1:7: expected (name init) binding'),
    ('(let (y) y)', 64,
     SchemeSyntaxError, '1:1: expected (name init) binding'),
    ('(let ((1 2)) 1)', 64,
     SchemeSyntaxError, '1:7: expected a binding name'),
    ('(let (((a) 2)) 1)', 64,
     SchemeSyntaxError, '1:8: expected a binding name'),
    ('(let ((x 1) (x 2)) x)', 64,
     SchemeSyntaxError, '1:1: duplicate binding name x'),
    ('(lambda (x))', 64,
     SchemeSyntaxError, '1:1: lambda needs parameters and a body'),
    ('(lambda x x)', 64,
     SchemeSyntaxError, '1:1: expected a parameter list'),
    ('(lambda (a . b) a)', 64,
     SchemeSyntaxError, '1:9: expected a parameter list'),
    ('(lambda (1) 1)', 64,
     SchemeSyntaxError, '1:1: expected a parameter name'),
    ('(lambda ((p)) 1)', 64,
     SchemeSyntaxError, '1:10: expected a parameter name'),
    ('(lambda (x x) x)', 64,
     SchemeSyntaxError, '1:1: duplicate parameter x'),
    ('(define (g)\n  (define (f a b a) a) 1)', 64,
     SchemeSyntaxError, '2:3: duplicate parameter a'),
    ('(begin)', 64,
     SchemeSyntaxError, '1:1: empty begin'),
    ('(define x)', 64,
     SchemeSyntaxError, '1:1: define needs a name and a value'),
    ('(define () 1)', 64,
     SchemeSyntaxError, '1:9: bad define form'),
    ('(define (f . g) 1)', 64,
     SchemeSyntaxError, '1:9: bad define form'),
    ('(define (1 x) x)', 64,
     SchemeSyntaxError, '1:1: expected a procedure name'),
    ('(define ((f) x) x)', 64,
     SchemeSyntaxError, '1:10: expected a procedure name'),
    ('(define (f 1) 1)', 64,
     SchemeSyntaxError, '1:1: expected a parameter name'),
    ('(define x 1 2)', 64,
     SchemeSyntaxError, '1:1: define takes one value'),
    ('(define 1 2)', 64,
     SchemeSyntaxError, '1:1: expected a name'),
    ('(define (g) 1) (define (q) 2)\n  (define (h) (k (set! 1 2)))', 64,
     SchemeSyntaxError, '2:18: expected a name'),
    ('(set! x)', 64,
     SchemeSyntaxError, '1:1: set! takes a name and a value'),
    ('(set! (x) 2)', 64,
     SchemeSyntaxError, '1:7: expected a name'),
    ('(if (quote) (if) (let))', 64,
     SchemeSyntaxError, '1:18: let needs bindings and a body'),
    ('((quote) (begin) (if))', 64,
     SchemeSyntaxError, '1:2: quote takes one datum'),
    ('(define ok 1)\n(display 5)\n  (let ((a 1)) (set! a))\n(begin)', 64,
     SchemeSyntaxError, '3:16: set! takes a name and a value'),
    ('(let ((x y)) x)', 64,
     SchemeRuntimeError, '1:7: unbound variable: y'),
    ('(define (f)\n  (let ((a 1)\n        (b nope))\n    a))\n(f)', 64,
     SchemeRuntimeError, '3:9: unbound variable: nope'),
    ('(define x 1)\n\n   zz', 64,
     SchemeRuntimeError, '3:4: unbound variable: zz'),
    ('(set! zz 1)', 64,
     SchemeRuntimeError, '1:1: set! of unbound variable: zz'),
    ('(define (f x) x)\n(f 1 2)', 64,
     SchemeRuntimeError, '2:1: f expects 1 arguments, got 2'),
    ('(let loop ((i 0)) (loop))', 64,
     SchemeRuntimeError, '1:19: loop expects 1 arguments, got 0'),
    ('(car 1 2)', 64,
     SchemeRuntimeError, '1:1: car: bad argument count 2'),
    ('(5 1)', 64,
     SchemeRuntimeError, '1:1: not a procedure: 5'),
    ('((list 1 2) 3)', 64,
     SchemeRuntimeError, '1:1: not a procedure: (1 2)'),
    ('(car 5)', 64,
     SchemeRuntimeError, '1:1: car: expected a pair, got a number'),
    ("(cdr '())", 64,
     SchemeRuntimeError, '1:1: cdr: expected a pair, got the empty list'),
    ('(set-car! (vector 1) 2)', 64,
     SchemeRuntimeError, '1:1: set-car!: expected a pair, got a vector'),
    ('(vector-ref (vector 1 2) 2)', 64,
     SchemeRuntimeError, '1:1: vector-ref: index 2 out of range for vector of length 2'),
    ('(vector-set! (make-vector 3 0) -1 0)', 64,
     SchemeRuntimeError, '1:1: vector-set!: index -1 out of range for vector of length 3'),
    ('(vector-length (cons 1 2))', 64,
     SchemeRuntimeError, '1:1: vector-length: expected a vector, got a pair'),
    ('(vector-ref (vector 1) #t)', 64,
     SchemeRuntimeError, '1:1: vector-ref: expected a number, got a boolean'),
    ('(make-vector -2)', 64,
     SchemeRuntimeError, '1:1: make-vector: negative length -2'),
    ('(list->vector (cons 1 2))', 64,
     SchemeRuntimeError, '1:1: list->vector: expected a proper list, got a pair'),
    ('(define c (list 1 2)) (set-cdr! (cdr c) c) (list->vector c)', 64,
     SchemeRuntimeError, '1:44: list->vector: cyclic list'),
    ('(+ 1 #t)', 64,
     SchemeRuntimeError, '1:1: +: expected a number, got a boolean'),
    ("(< 1 'a)", 64,
     SchemeRuntimeError, '1:1: <: expected a number, got a symbol'),
    ('(cons car 1)', 64,
     SchemeRuntimeError, '1:1: cons: a procedure cannot be stored in a heap object'),
    ('(vector 1 (lambda (x) x))', 64,
     SchemeRuntimeError, '1:1: vector: a procedure cannot be stored in a heap object'),
    ('(list 1 car)', 64,
     SchemeRuntimeError, '1:1: list: a procedure cannot be stored in a heap object'),
    ('(make-vector 2 car)', 64,
     SchemeRuntimeError, '1:1: make-vector: a procedure cannot be stored in a heap object'),
    ('(set-car! (cons 1 2) car)', 64,
     SchemeRuntimeError, '1:1: set-car!: a procedure cannot be stored in a heap object'),
    ('(set-cdr! (cons 1 2) (lambda (x) x))', 64,
     SchemeRuntimeError, '1:1: set-cdr!: a procedure cannot be stored in a heap object'),
    ('(vector-set! (vector 1 2) 1 (lambda () 1))', 64,
     SchemeRuntimeError, '1:1: vector-set!: a procedure cannot be stored in a heap object'),
    ("'(1 2 3 4 5 6 7 8 9)", 16,
     OutOfMemory, '1:1: quote: need 2 slots, only 0 free after collection'),
    ("(define (grow n acc)\n  (if (= n 0) acc (grow (- n 1) (cons n acc))))\n(grow 100 '())", 16,
     OutOfMemory, '2:33: cons: need 2 slots, only 0 free after collection'),
    ('(make-vector 40 0)', 16,
     OutOfMemory, '1:1: make-vector: need 40 slots, only 16 free after collection'),
]


def test_error_messages_byte_identical(capsys):
    for source, slots, kind, message in ERROR_MESSAGES:
        with pytest.raises(kind) as err:
            run_source(source, heap_slots=slots, gc_interval=4)
        assert str(err.value) == message, source
        if kind is SchemeSyntaxError:
            # every form is compiled before any runs: no output
            assert capsys.readouterr().out == "", source

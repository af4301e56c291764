"""The pinned command lines: each argv once, with its exit code, the sha256
of its stdout and one line of reason.

    python tests/golden.py

runs every row in process through ``cli.run``, prints each mismatch and
exits 1 if there is one.  It needs no pytest and puts ``src/`` on the path
itself.  The tests read the same rows: ``test_cli.py`` checks each pin and
``test_reachability.py`` requires every function of the package to be
entered by some row, both from one profiled pass (``conftest.py``); a
third test holds the digests of ``bench/run.py`` to their rows.

A row that exits 0 pins its stdout.  A row that exits nonzero must print
nothing on stdout.  No row may print a traceback.  A digest whose reason
begins "pinned before" was recorded at the commit before that change; the
others were recorded when the rows were gathered into this table.
"""

import hashlib
import io
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from typing import NamedTuple

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from skewhowe import cli  # noqa: E402

EMPTY = hashlib.sha256(b"").hexdigest()


class Row(NamedTuple):
    argv: str  # split on whitespace
    code: int
    sha256: str | None  # of stdout; None for a nonzero exit, which prints none
    reason: str


_PATHS = ("pinned before the A, BC and D determinants were read off one "
          "table of lattice-path endpoints")
_TABLE = "pinned before one table of dual pairs replaced the per-series code"
_KERNEL = "pinned before the q-product kernel"
_WALK = ("pinned before the measure tables were walked one box at a time "
         "from the empty diagram")
_BATCH = ("pinned before GL samples were drawn a batch of lanes at a time; "
          "crosses the batch boundary")
_EPS = "pinned before the crystal oracle read eps off each letter's weight"
_Q_AT = "mult --series BC --n 6 --k 6 --lambda 3,2,1 --q-at "
_ONE_PATH = "pinned before each Z[q] operation took one path"
_ONE_WEIGHT = ("pinned before the int partition became the only weight type, "
               "with the D sign read by the CLI")
_INT_CONST = ("pinned before the boundary column of the D p = 0 dual was "
              "folded into an int constant")
_STREAM = ("pinned before the inverse-CDF draw read its 128 bits from "
           "random_bit_matrix")
_PIVOT = "pinned before Bareiss pivoted on the shortest remaining entry"
_BOX_WALK = "pinned before verify walked the box"
_MINUSCULE = ("the plain verify stdout of the commit before the crystal "
              "oracle stepped by the minuscule rule, with 'crystal oracle: "
              "ok' before its last line")

ROWS = (
    Row("mult --series A --n 3 --k 4 --lambda 2,1 --json", 0,
        "a0ac497dd4ed93e11dae588790151b37d81a7dbb563cc6cae4273f7086e6be93",
        _PATHS),
    Row("mult --series BC --p 1 --n 3 --k 3 --lambda 2,1 --json", 0,
        "e8590f3a96326708b899c1d14bee650383a9567d8ddfb9db346c11c510b4d06e",
        _PATHS),
    Row("mult --series D --n 3 --k 3 --lambda 2,1,-1 --json", 0,
        "c706b78a0b54b9dcf0d6c6bb8353135e6963b443c12a4450d636aeaf82e2a180",
        _PATHS),
    Row("mult --series D --p 1 --n 2 --k 3 --lambda 1 --json", 0,
        "1ad6ae61144d312a13a56bd9666fc3b7290a2d624995bbb33dcd23750c7236e5",
        _PATHS),
    Row("mult --series D --n 3 --k 3 --lambda 2,1,-1", 0,
        "6def0fc85d7986a1f5fe45c5c2bd850cbb8577a3d9a19f8198ef9d4b7458e518",
        "a D weight with a negative last part, as text"),
    Row("mult --series D --n 0 --k 1", 0,
        "7510814a1a56b7d8d0217373ef2daecb3d25b1b911f1949c3aa0086d5830b6be",
        "a rank-0 D weight is the empty partition: the stdout that "
        "mult --series A --n 0 --k 1 and --series BC printed before D did too"),
    Row("mult --series D --n 1 --k 2 --lambda -1 --json", 0,
        "315af10037ba5b44917ea9f8573d3c2a827a248183b6b87729878aad37180132",
        _ONE_WEIGHT + "; a rank-1 D weight is its own last part, "
        "labelled -1"),
    Row("mult --series D --n 3 --k 3 --lambda 1,2,-1", 2, None,
        _ONE_WEIGHT + "; not dominant: an increasing pair"),
    Row("mult --series D --n 2 --k 3 --lambda 0,-1", 2, None,
        _ONE_WEIGHT + "; not dominant: the last part outweighs the one "
        "above it"),
    Row("mult --series A --n 2 --k 2 --p 1 --lambda 1", 2, None,
        "no series A at p = 1: refused by the spec, before any formula"),
    Row("mult --series A --n 2 --k 3 --lambda 2,1 --q-at 1/2 --q-poly", 0,
        "77c44ae3f78ae8f62b125c735a875016cbc3f55b3d611edc9ce06a2d9966a309",
        "the text report with --q-at and --q-poly"),
    Row("mult --series BC --n 2 --k 2 --p 1 --lambda 1 --json --q-at 2", 0,
        "375eaccfa61f31b50ffe7a94c3bcc3a21f7cda7fc74663dfc0171f8b7940572a",
        "the JSON report with --q-at, at p = 1"),
    Row("mult --series A --n 2 --k 3 --lambda 2,1 --q-at=-3/1000", 0,
        "56c708280a4e682be235729a4aa26adf8dd5a68d253a41b07fce708386e088d7",
        _ONE_PATH + "; a negative fraction joined to --q-at by ="),
    Row("mult --series A --n 2 --k 3 --lambda 2,1 --q-at -3/1000", 2, None,
        _ONE_PATH + "; argparse reads a separate -3/1000 as an option: "
        "expected one argument"),
    Row(_Q_AT + "1e1000", 2, None,
        "over the --q-at bit budget, refused before the value is taken: "
        "it exited 2 with Python's 4,300-digit int-to-str error"),
    Row(_Q_AT + "1e100000", 2, None,
        "a --q-at exponent over its budget: it ran past 60 s"),
    Row(_Q_AT + "1e10000000", 2, None,
        "a --q-at exponent over its budget, refused before Fraction builds "
        "the literal: 11 s in argparse alone"),
    Row("mult --series BC --n 4 --k 4 --lambda 2,1", 0,
        "807dc2cf27549456f2872cf8820dfa46e42633b5e8f9829e2470ee7f74c53ab1",
        "a 4x4 BC determinant, as text"),
    Row("mult --series BC --n 8 --k 8 --lambda 3,2,1 --json", 0,
        "e28d8ced625bdaaab06429aa6e906a065d46fca1e63ba4fca085a5deacd41f4f",
        "the mult-bc8 benchmark argv, with its digest in bench/run.py"),
    Row("mult --series BC --n 10 --k 10 --lambda 3,2,1 --json", 0,
        "6aeff4c0a5bb42dec2e97bf26cf6be1dd8a0b3c21e9e2d6421bc0513f9d6997a",
        _PIVOT + "; 8.7 s then, about 1 s after"),
    Row("mult --series D --n 9 --k 9 --lambda 3,2,1 --json", 0,
        "b10c006ef2a790f8e35350fe7c01148a1d3f4fe2e6e871f6af91f74efe9f5634",
        _PIVOT + "; a D determinant of q-binomials"),
    Row("mult --series BC --n 8 --k 8 --p 1 --json", 0,
        "cf2511b2ec38cdb6d4b66cada767a6063518d5a1a316c33b8315843e526787fb",
        _PIVOT + "; BC at p = 1 and the empty weight"),
    Row("mult --series BC --n 25 --k 0", 0,
        "7510814a1a56b7d8d0217373ef2daecb3d25b1b911f1949c3aa0086d5830b6be",
        "a unit triangular matrix costs its rows' largest degrees, not "
        "times its order: it exited 2 with a cost estimate of 115,000"),
    Row("mult --series D --n 25 --k 0", 0,
        "7510814a1a56b7d8d0217373ef2daecb3d25b1b911f1949c3aa0086d5830b6be",
        "the D unit triangular matrix; it exited 2 with 122,500"),
    Row("mult --series BC --n 40 --k 40 --lambda 1", 2, None,
        "over the mult cost budget, refused before the matrix is built: "
        "it ran past 20 s"),
    Row("mult --series BC --n 8 --k 8 --lambda 3,2,1 --q-at 1/0", 2, None,
        "a --q-at that is not a rational is a usage error before the "
        "determinant; it ran the whole 8x8 determinant first"),
    Row("verify --series A --n 2 --k 2", 0,
        "445d045a31780659aeb1d34e68f518d943eae029b0688639b31d6037910f9349",
        "the console-script smoke run"),
    Row("verify --series A --n 2 --k 2 --oracle", 0,
        "368ef64bbc246ec64c3df4daa55211fdb90524f268bbc7f10ded9a9bd85a4687",
        _TABLE),
    Row("verify --series A --n 2 --k 3 --oracle", 0,
        "ad1fa827ec584748a392c4444dc50221f1130cda490a09fac785c695bffc9209",
        "the crystal oracle on a box that is not square"),
    Row("verify --series BC --p 0 --n 2 --k 2 --oracle", 0,
        "7c75421fa168d6dca69acf025a6f534892504c07b201c8fd60d3afc79385b045",
        _TABLE),
    Row("verify --series BC --n 2 --k 2 --p 0 --oracle", 0,
        "7c75421fa168d6dca69acf025a6f534892504c07b201c8fd60d3afc79385b045",
        "the row above with --p after the box"),
    Row("verify --series BC --p 1 --n 2 --k 2 --oracle", 0,
        "2f9aeb0b5d6ba399eee360727f1a9b90cd7a0e782d46ab4f043ac8ae9b766452",
        _TABLE),
    Row("verify --series BC --n 2 --k 2 --p 1 --oracle", 0,
        "2f9aeb0b5d6ba399eee360727f1a9b90cd7a0e782d46ab4f043ac8ae9b766452",
        "the row above with --p after the box"),
    Row("verify --series D --p 0 --n 2 --k 2 --oracle", 0,
        "7c75421fa168d6dca69acf025a6f534892504c07b201c8fd60d3afc79385b045",
        _TABLE),
    Row("verify --series D --n 2 --k 2 --p 0 --oracle", 0,
        "7c75421fa168d6dca69acf025a6f534892504c07b201c8fd60d3afc79385b045",
        "the row above with --p after the box"),
    Row("verify --series D --p 1 --n 2 --k 2 --oracle", 0,
        "2f9aeb0b5d6ba399eee360727f1a9b90cd7a0e782d46ab4f043ac8ae9b766452",
        _TABLE),
    Row("verify --series D --n 2 --k 2 --p 1 --oracle", 0,
        "2f9aeb0b5d6ba399eee360727f1a9b90cd7a0e782d46ab4f043ac8ae9b766452",
        "the row above with --p after the box"),
    Row("verify --series BC --n 3 --k 3 --p 1 --oracle", 0,
        "552ed9e2d755c71295887ca5184ddeddf3c01a64e3fdca700fba78c120aa3744",
        "pinned before the crystal oracle walked the dominant weights: "
        "20.5 s by the word scan"),
    Row("verify --series A --n 4 --k 6 --oracle", 0,
        "839f634932354ab250dec03f3be37a2546a7fa591f3751f95c692c6f3a7e86a9",
        _EPS + "; 16^6 words, it exited 2 before the walk"),
    Row("verify --series D --n 5 --k 5 --p 1 --oracle", 0,
        "a5de1d26b9bf74240bd5b16fe745ccab8aec6177e003d3d7d99a828b38411964",
        _EPS + "; 32^11 words, it exited 2 before the walk"),
    Row("verify --series A --n 14 --k 1 --oracle", 0,
        "5559208966ddcb81d50d75c14e36439c0947a613757c33e149d87d98699636df",
        _EPS + "; a thin box whose 2^14 letters the signature rule read "
        "one atom at a time"),
    Row("verify --series A --n 24 --k 1 --oracle", 0,
        "9f2084254056cf03ac5863a91fdcea494120505874e06730a128281ecc5d3f9e",
        _MINUSCULE + "; its 2^24 letters were refused before one was listed"),
    Row("verify --series A --n 20 --k 1 --oracle", 0,
        "6798ace4f8445b8b0151ce93c788295481a986cb0f8c954009be89a1bb7cadbc",
        _MINUSCULE + "; its 20 x 2^20 letter coordinates were refused"),
    Row("verify --series A --n 40 --k 2 --oracle", 0,
        "3b218567ef4e50b77ef4ee5833cc7306158fad02a48a1fbc2a6cb8d24a09399b",
        _MINUSCULE + "; the thin oracle box, 861 weights"),
    Row("verify --series BC --n 3 --k 3", 0,
        "4104451a5492da90f83945f8dbfb1a49bdaeb5e01d5aac99a8187bd68aa06553",
        "the BC report on a 3x3 box, run since the q-product kernel came in"),
    Row("verify --series D --n 3 --k 3 --p 0", 0,
        "4104451a5492da90f83945f8dbfb1a49bdaeb5e01d5aac99a8187bd68aa06553",
        "the D report at p = 0 on a 3x3 box"),
    Row("verify --series BC --n 4 --k 4", 0,
        "45451f1d6d0206959db7956493a46240021746e28b5a52debe95bdaa474d9bd0",
        _KERNEL),
    Row("verify --series D --n 4 --k 4 --p 0", 0,
        "45451f1d6d0206959db7956493a46240021746e28b5a52debe95bdaa474d9bd0",
        _KERNEL),
    Row("verify --series D --n 4 --k 4 --p 1", 0,
        "008eb1cdbba5f3263b1c67f70a7fbb5fd2523812c1349eb6d3650f44d523b926",
        _KERNEL),
    Row("verify --series A --n 5 --k 6", 0,
        "b7af67e1b7af42c8ee9d7e4bc1c9af7b01273360b7431fa6d2055e059b7e21e9",
        "the verify-a5x6 benchmark argv, with its digest in bench/run.py"),
    Row("verify --series A --n 6 --k 6", 0,
        "f7e8bca0fe2a05812dc08e9064d35127345f5f0be3fabc3b71fcaccd697fb025",
        "924 weights, every determinant a minor of one path table"),
    Row("verify --series A --n 40 --k 1", 0,
        "72d5f84b1c539e17ebd20e4c45ae26963f2a9d0ee2c99b98966b3b1636e7d788",
        "41 weights with 40-row minors of the path table"),
    Row("verify --series BC --n 25 --k 0", 0,
        "0dc03eaf633b61b87e53050671a6b92be723c33326f426302410d9c99dbed4ea",
        "a box with no columns: one weight; it exited 2 before the path table"),
    Row("verify --series A --n 20 --k 0 --oracle", 0,
        "0c266d8f744b4fe74d2fd55ebd0c524a04ac1f9d7451bda256641f1333054d66",
        _ONE_WEIGHT + "; the oracle's k = 0 return"),
    Row("verify --series BC --n 0 --k 3", 0,
        "64a791a6e8499a0c44a0ceff70412b1fc4a82b1166842cb6b70e4548b12b22d8",
        _ONE_WEIGHT + "; the path table of a rank-0 box"),
    Row("verify --series D --n 5 --k 5 --p 0", 0,
        "524c8adfdc5b05edfc83449544f52aec630caa4dc26c9b2db6bdfcf7046dcb8e",
        _INT_CONST + "; a full-length mu"),
    Row("verify --series D --n 3 --k 6 --p 0", 0,
        "30d4abab0d06359527aedcb77fba55cbf6c0973b253a1149e60e3adae7b7c872",
        _INT_CONST + "; mu shorter than k"),
    Row("verify --series D --n 1 --k 3 --p 0", 0,
        "ba9bb6d6c66efadf4c1ca3a5fee854685b3a1bca85e8ecd3c7ff2ec5093618a8",
        _INT_CONST + "; one row"),
    Row("verify --series D --n 3 --k 1 --p 0", 0,
        "e675de490d28464ffaf4722aed8e83cd7ae6903096c158abce9fcede72deb68d",
        _INT_CONST + "; a dual side of rank 1"),
    Row("verify --series BC --n 5 --k 5 --p 1", 0,
        "df8f0a9b94de87cc42750670815c08e52447568e5b2620a3b33d3fa579431ab9",
        _BOX_WALK + "; a spin G1 and a type C dual, 252 weights"),
    Row("verify --series D --n 4 --k 5 --p 1", 0,
        "2f2df14809334e148b064b8ac0c808748aae84d87f127719868ba453e16129d1",
        _BOX_WALK + "; a Pin G1 and a type B dual on a box that is not "
        "square"),
    Row("verify --series A --n 12 --k 12", 2, None,
        "over the verify cost budget, refused before the walk: 2,704,156 "
        "weights, over 45 minutes"),
    Row("verify --series A --n 20 --k 20", 2, None,
        "over the partition budget: one error line, not a MemoryError"),
    Row("verify --series A --n 2 --k 2 --threads 2", 2, None,
        "--threads and its process pool are gone: a usage error"),
    Row("measure --pair GL --n 2 --k 2", 0,
        "8f1d1b0222725a287f1b8dc8b54e14c16fd2dd390b792d3d877d80c5392ac22f",
        "the python -m skewhowe smoke run"),
    Row("measure --pair GL --n 2 --k 3", 0,
        "f3130e4aa07b18f40b4b294765a9443b45bd48d0112dec57fe89b3d0f7670d98",
        _TABLE),
    Row("measure --pair SO-PIN --n 2 --k 3", 0,
        "4377fa42b0d8dd49c485b10368dd9c7924b301e9a7f4e6f8c84efaba64a94741",
        _TABLE),
    Row("measure --pair SP --n 2 --k 3", 0,
        "572d87e729669c7c7ae6d78e8c8e61dc818d8898af5c5f83f67528cb839bc487",
        _TABLE),
    Row("measure --pair O-SO --n 2 --k 3", 0,
        "14dc55ed87e566bcb42c55a94309d67f32582364c647cf0473ef327f14ab2969",
        _TABLE),
    Row("measure --pair GL --n 3 --k 3", 0,
        "e22b9bcb968153f83b3a2e8442195d3efd83532d9a06ece30086e588f2d708d0",
        "a square GL box"),
    Row("measure --pair SP --n 2 --k 2", 0,
        "5aa7a6ba6e847bf9a8890530539cdc5be425ecd19adb96b699dd18b432101792",
        "a square SP box"),
    Row("measure --pair O-SO --n 3 --k 2", 0,
        "b391db3caf50ca48d0fbf1df00477f3f6a5f04b766ace93df11800b8b6aab3dd",
        "an O-SO box with more rows than columns"),
    Row("measure --pair O-SO --n 3 --k 4", 0,
        "6fcfd77bcce11b2dee3576dc05db0046b28ee596cee9948fe9407a76667506f7",
        "an O-SO box with more columns than rows"),
    Row("measure --pair GL --n 6 --k 12", 0,
        "eb831cffea6d41202d4334b7447c235cc676a2a77df6533d8c22f66e3a9fb3cb",
        "the measure-gl benchmark argv, with its digest in bench/run.py; "
        "pinned before the tables were walked one box at a time"),
    Row("measure --pair O-SO --n 4 --k 5", 0,
        "bdded1daced0ebe3ca2750efbfa106607c8f0f2857a8943b1be6304c890c2686",
        _WALK),
    Row("measure --pair SO-PIN --n 4 --k 5", 0,
        "3a1950080106672acd645e4e6536ae6e19118a6f2851f3be411c677e6b3b2d8d",
        _WALK),
    Row("measure --pair GL --n 4 --k 11", 0,
        "6259831f5028afafbd8487db47f8251192bc1befe6e3761619bb5c6a5f5d58b3",
        "the hill climb printed the local max 8,6,4,2"),
    Row("measure --pair GL --n 1200 --k 1", 0,
        "e0149d0284fa72cdf4a4e14ec52ecfb9d310c4c9e16fe431cbd39d926fc367e4",
        "1,200 rows: the walk recursed once per row and overflowed the stack"),
    Row("measure --pair SP --n 20 --k 20", 2, None,
        "over the partition budget: one error line"),
    Row("measure --pair GL --n 2 --k 2 --out /nonexistent/dir/x", 2, None,
        "an --out path that cannot be opened: one error line"),
    Row("sample --pair GL --n 3 --k 4 --count 3 --seed 1", 0,
        "1031987982b988d590cf6d011ee0c52193c26238235cf74e0799a1c0b1f0b6fd",
        "a few GL samples of a small box"),
    Row("sample --pair GL --n 30 --k 70 --count 10 --seed 5", 0,
        "0bb416fbd99dc011df9a38ba1a6d61cc2591da87a9f826bc16b9dcb52f89b925",
        "pinned before the bitmask dual RSK"),
    Row("sample --pair GL --n 50 --k 150 --count 5 --seed 1", 0,
        "ab12ac6cb6593e4ed3238ce3ed4dd2778db1479b8898cad650186b052ef8ad8d",
        "GL samples of the compare-gl box"),
    Row("sample --pair GL --n 7 --k 9 --count 150 --seed 5", 0,
        "da2107c7bf121a939996497fdb3498ff15e3922d6d23c8afa5dcca420ba27028",
        _BATCH),
    Row("sample --pair GL --n 1 --k 200 --count 130 --seed 2", 0,
        "72cb51e0f4654fa239bf3b5e17825870709fa5a0ac593194ddca29d8fb21aff5",
        _BATCH),
    Row("sample --pair SO-PIN --n 2 --k 3 --count 20 --seed 7", 0,
        "14b9a0e349d3dec510706587b70b4cea2620912265b6b39ee036dc3215d8b216",
        _TABLE),
    Row("sample --pair SP --n 2 --k 3 --count 20 --seed 7", 0,
        "5b81c56b079ad23ced100784e97d9adf20668f7be0f9dddf44bb72ebf54216c8",
        _TABLE),
    Row("sample --pair O-SO --n 2 --k 3 --count 20 --seed 7", 0,
        "fba94a9b290ab14066a4b879a958a3b034c3b9847a31bab57ba643c557ac0757",
        _TABLE),
    Row("sample --pair SP --n 2 --k 2 --count 3 --seed 1", 0,
        "fc6d5cbd4dae764a67f3bb1038a477459f49e2951372fc7cdd4de08c267db5d9",
        "a few SP samples of a square box"),
    Row("sample --pair SP --n 4 --k 4 --count 5 --seed 1", 0,
        "b6760ed78a15d5a6423a1037b1054c5a4911ce2188043558d1b5f3f70f01b028",
        "SP samples bisect an integer CDF"),
    Row("sample --pair SP --n 5 --k 6 --count 50 --seed 11", 0,
        "0502606e24012ffe4db3bde45fb5d411e6a80423598d7c37aebcae9baab3360f",
        _WALK),
    Row("sample --pair O-SO --n 3 --k 4 --count 40 --seed 2", 0,
        "4b7186a0060b4b637346cb2d97e2194299adcd56cde20eb63fc35b35d699394c",
        _STREAM),
    Row("sample --pair SO-PIN --n 3 --k 3 --count 40 --seed 9", 0,
        "779ed490b9359bf19cad5aa7d356279f4361b60c30e102236748f9c9c1f6d4f8",
        _STREAM),
    Row("shape --c 3 --grid 8 --format json", 0,
        "f541f4118a6e1dc5ec012e389a690df93c272272d5287b79f3df9e10281f2721",
        "the GL shape as JSON"),
    Row("shape --series HALF --c 3 --grid 8", 0,
        "539505889bf2bf87b6d552566f3ded3e4180ccdf9641497ee806f66ea02999e0",
        "prints limit_f and rho; re-pinned when the closed form replaced "
        "the quadrature and when rho was summed from sqrt(c) -+ x"),
    Row("shape --series HALF --c 0.5 --grid 8", 0,
        "0fe0a8e9376fc2527e5f11a45471b6b58e53cafff65870809e6cf33ff4d4ef92",
        "the HALF shape at c < 1, from the hole density"),
    Row("shape --c 1e300 --grid 2", 2, None,
        "c above C_MAX: rho printed nan here"),
    Row("compare --pair GL --n 4 --k 8 --count 5 --seed 3", 0,
        "32de91647dfbcde9ba76ba582e109f517df9ce22b2b208dd0ef263d21e8708bf",
        "prints limit_f; re-pinned when the closed form replaced the "
        "quadrature"),
    Row("compare --pair GL --n 5 --k 10 --count 50 --seed 3", 0,
        "9662aedba5a9dc73bbef7fcba2012c0fa91e108e345a013dbb0c0e7fcd37e9d2",
        "the mean boundary is an fsum: the builtin sum printed "
        "0.04217955006508567 on Python 3.11 and ...085225 on 3.12"),
    Row("compare --pair GL --n 50 --k 150 --count 200 --seed 3", 0,
        "76375d7ce20ea492530a2cdb16b406c808aabb5901aede512b4f3683d4a3192f",
        "the compare-gl benchmark argv at seed 3; "
        "pinned before GL samples were drawn a batch of lanes at a time"),
    Row("compare --pair GL --n 2 --k 2 --count 3 --c nan", 2, None,
        "a NaN c: one error line before sampling"),
    Row("compare --pair GL --n 2 --k 2 --count 3 --c 1e7", 2, None,
        "c above C_MAX: one error line before sampling"),
    Row("tiling --n 2 --k 3 --lambda 2,1 --index 3", 0,
        "c6caf093c07eace4322790b1ed0f0d15c85b65eefa6ada030acc5fe41881e3f8",
        "one tiling of a small domain, taken by rank"),
    Row("tiling --n 2 --k 3 --lambda 2,1 --count-only", 0,
        "251a20710fac6dd0e9dd6e759d5a62c00f175d3d65db56d7d781543c45dae102",
        "the tiling count of a small domain"),
    Row("tiling --n 10 --k 12 --lambda 10,10,10,10,10 --index 24648355308799871", 0,
        "3a0611f9a766ff553c035bb4b244bdde15407596b92ef2c7adc9cd5a40a734cf",
        "the last of 24,648,355,308,799,872 tilings, found by rank"),
    Row("tiling --count-only --n 16 --k 16 --lambda 16,16,16,16,16,16,16,16", 2, None,
        "over the pattern budget: one error line; it ran past 60 s before"),
)


def run_row(argv: str) -> tuple[int, str, str]:
    """(exit code, stdout sha256, stderr) of one in-process run, usage
    errors included."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.run(argv.split())
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest(), err.getvalue()


def mismatch(row: Row, code: int, digest: str, err: str) -> str | None:
    """What one run of the row got wrong, or None."""
    if code != row.code:
        return f"exit {code}, not {row.code}: {err.strip()}"
    if digest != (row.sha256 or EMPTY):
        return f"stdout sha256 {digest}, not {row.sha256 or EMPTY}"
    if "Traceback" in err:
        return "a traceback on stderr"
    return None


def main() -> int:
    failed = 0
    for row in ROWS:
        problem = mismatch(row, *run_row(row.argv))
        if problem:
            failed += 1
            print(f"FAIL {row.argv}: {problem}")
    print(f"{len(ROWS) - failed} of {len(ROWS)} pinned command lines hold")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

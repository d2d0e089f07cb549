"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every check is exact (no tolerances anywhere), and the stated wall-time
budgets are asserted.
"""

import hashlib
import json
import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path
from math import factorial

from polyfam import families as fam
from polyfam.identities import REGISTRY, GridConfig, run_all, run_identity
from polyfam.rationals import binomial
from polyfam.stirling import stirling1_unsigned, stirling2

from .oracles import (
    bell_by_enumeration,
    exponential_poly_recurrence,
    fubini_by_enumeration,
    stirling1_row_by_enumeration,
    stirling2_row_by_enumeration,
)

LAMBDA_GRID = (F(2), F(1, 3), F(-3), F(5))
X_GRID = (F(1), F(-1, 2), F(2, 3))


class _Budget:
    def __init__(self, criterion: str, seconds: float):
        self.criterion = criterion
        self.seconds = seconds

    def __enter__(self):
        self.started = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.started
        status = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.criterion}: {status} ({elapsed:.2f}s)")
        if exc_type is None:
            assert elapsed < self.seconds, (
                f"criterion {self.criterion} exceeded its {self.seconds}s budget: {elapsed:.2f}s"
            )
        return False


def test_criterion_01_enumeration_oracles():
    with _Budget("1 enumeration oracles", 5.0):
        for n in range(11):
            assert fam.bell(n) == bell_by_enumeration(n)
        for n in range(9):
            assert fam.fubini(n) == fubini_by_enumeration(n)
        for n in range(10):
            assert [stirling2(n, k) for k in range(n + 1)] == stirling2_row_by_enumeration(n)
            assert [stirling1_unsigned(n, k) for k in range(n + 1)] == stirling1_row_by_enumeration(n)


def test_criterion_02_dual_route_families():
    with _Budget("2 dual-route families", 10.0):
        order = 14
        for x in X_GRID:
            bell_series = fam.gf_exp_bell(x, order)
            for n in range(order + 1):
                assert bell_series.egf_coeff(n) == fam.exponential_poly(n)(x)
        for n in range(order + 1):
            assert fam.exponential_poly(n) == exponential_poly_recurrence(n)
        for alpha in (1, 2, 3, 4):
            for x in X_GRID:
                w_series = fam.gf_general_geometric(x, F(alpha), order)
                for n in range(order + 1):
                    assert w_series.egf_coeff(n) == fam.general_geometric(n, F(alpha))(x)
        for alpha in (1, 2, 3, 4):
            for lam in LAMBDA_GRID:
                e_series = fam.gf_apostol_euler(alpha, lam, order)
                base = fam.euler_prefactor_base(lam)
                for n in range(order + 1):
                    assert e_series.egf_coeff(n) == base**alpha * fam.apostol_euler_mantissa(n, F(alpha), lam)
        for l in (1, 2, 3, 4):
            for lam in LAMBDA_GRID:
                b_series = fam.gf_apostol_bernoulli(l, lam, order)
                for n in range(order + 1):
                    assert b_series.egf_coeff(n) == fam.apostol_bernoulli_higher(n, l, lam)


def test_criterion_03_index_shift_convolution():
    with _Budget("3 symbolic index-shift convolution", 5.0):
        grid = GridConfig(nmax=12, mmax=12, nm_sum=12)
        reports = run_identity("spivey", grid)
        assert len(reports) == sum(1 for n in range(13) for m in range(13) if n + m <= 12)
        assert all(r.status == "pass" for r in reports)
        # Bell-number form at x = 1
        for n in range(7):
            for m in range(7):
                rhs = sum(
                    binomial(n, k) * stirling2(m, j) * F(j) ** (n - k) * fam.bell(k)
                    for k in range(n + 1)
                    for j in range(m + 1)
                )
                assert fam.bell(n + m) == rhs


def test_criterion_04_generating_function_shifts():
    with _Budget("4 generating-function shifts", 10.0):
        grid = GridConfig()  # order 12, m <= 4, fractional orders included
        for identity_id in ("gf-phi-shift", "gf-w-shift", "gf-apostol-euler-shift",
                            "gf-apostol-bernoulli-shift", "gf-phi-base", "gf-w-base"):
            reports = run_identity(identity_id, grid)
            assert reports, identity_id
            assert all(r.status in ("pass", "skipped-domain") for r in reports), identity_id
            assert any(r.status == "pass" for r in reports)
        # prefactor-normalized checks at non-integer order actually ran
        euler_frac = [
            r for r in run_identity("gf-apostol-euler-shift", grid)
            if r.params["alpha"] in ("1/2", "5/2")
        ]
        assert euler_frac and all(r.status == "pass" for r in euler_frac)
        w_frac = [
            r for r in run_identity("gf-w-shift", grid)
            if r.params["alpha"] in ("1/2", "5/2")
        ]
        assert w_frac and all(r.status == "pass" for r in w_frac)


def test_criterion_05_recurrence_suite():
    with _Budget("5 recurrence suite", 30.0):
        ids = [
            "w-general-recurrence",
            "apostol-euler-recurrence",
            "apostol-bernoulli-recurrence",
            "bernoulli-higher-recurrence",
            "apostol-bernoulli-diag-recurrence",
            "poly-shift-prop",
            "poly-shift-theorem",
            "aux-wang",
            "aux-srivastava-luo",
            "aux-euler-reflection",
            "w-explicit",
            "fubini-explicit",
        ]
        summary, reports, _ = run_all(GridConfig(), ids)
        assert summary.failed == 0
        assert summary.passed > 0
        # classical (lambda=1) and first-order specializations are on the grid
        covered = {(r.id, r.params.get("lambda"), r.params.get("alpha"), r.params.get("l"))
                   for r in reports if r.status == "pass"}
        assert any(k[0] == "apostol-euler-recurrence" and k[1] == "1" for k in covered)
        assert any(k[0] == "apostol-bernoulli-recurrence" and k[1] == "1" for k in covered)
        assert any(k[0] == "poly-shift-theorem" and k[1] == "1" and k[3] == "1" for k in covered)


def test_criterion_06_finite_sums_and_diagonal_values():
    with _Budget("6 finite sums and diagonal values", 5.0):
        summary, _, _ = run_all(GridConfig(), ["finite-sums", "diag-bernoulli-values"])
        assert summary.failed == 0 and summary.passed > 0
        for n in range(1, 13):
            c_n = fam.bernoulli_second_kind(n)
            assert fam.bernoulli_higher_poly(n, n, 1) == factorial(n) * c_n
            # equivalent restatement of the second-kind link in diagonal form
            assert c_n == fam.bernoulli_higher_poly(n, n, 1) / factorial(n)
            if n >= 2:
                assert fam.bernoulli_higher_poly(n, n, 1) == fam.bernoulli_higher(n, n - 1) / (1 - n)


def test_criterion_07_connection_formulas():
    with _Budget("7 connection formulas", 5.0):
        summary, _, _ = run_all(GridConfig(), ["w-connections", "apostol-bernoulli-classical"])
        assert summary.failed == 0 and summary.passed > 0
        for n in range(11):
            assert fam.geometric_poly(n)(F(-1, 2)) == fam.euler_classical(n)
        for lam in LAMBDA_GRID:
            for n in range(1, 13):
                assert fam.apostol_bernoulli_higher(n, 1, lam) == \
                    F(n) / (lam - 1) * fam.geometric_poly(n - 1)(lam / (1 - lam))
        for alpha in (F(1), F(2), F(1, 2), F(5, 2)):
            for lam in LAMBDA_GRID:
                for n in range(11):
                    assert fam.general_geometric(n, alpha)(-lam / (lam + 1)) == \
                        fam.apostol_euler_mantissa(n, alpha, lam)
        for l in (1, 2, 3, 4):
            for lam in LAMBDA_GRID:
                for n in range(11):
                    assert fam.general_geometric(n, l)(-lam / (lam - 1)) == \
                        (lam - 1) ** l / factorial(l) / binomial(n + l, l) * \
                        fam.apostol_bernoulli_higher(n + l, l, lam)


def test_criterion_08_negative_control():
    with _Budget("8 negative control", 10.0):
        grid = GridConfig(
            nmax=2, mmax=2, nm_sum=4, gf_mmax=1, ls=(1, 2), int_alphas=(1, 2),
            frac_alphas=(F(1, 2),), lambdas=(F(2),), xs=(F(1),), order=6,
        )
        summary, reports, _ = run_all(grid, perturb=True)
        checked = [r for r in reports if r.status != "skipped-domain"]
        assert checked and summary.passed == 0
        per_id = {r.id for r in checked if r.status == "fail"}
        assert per_id == set(REGISTRY)


def _run_cli(*argv: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "polyfam", *argv], capture_output=True, text=True
    )


VERIFY_ALL_SECONDS = None
VERIFY_ALL_SHA256 = "1a3d006f9e05edcc1ca5433e1bfa2a57a01b62bfcf04e566eb15cb7abcebc740"
# sha256 of the stdout of `verify --all --perturb --format json`, the negative control
PERTURB_SHA256 = "5f984fb3e266a525a5359792d00c6614da74ee42ae37500f2937344d704ceb05"
# sha256 of the stdout of `verify --all` on twice the default grid, TWICE_THE_GRID
TWICE_THE_GRID = ("--nmax", "12", "--mmax", "12", "--nm-sum", "16", "--order", "24", "--gf-mmax", "8")
VERIFY_ALL_TWICE_SHA256 = "301f2ff1e638d4e2355c0cfd003e0ab543b031b64adce94364317101d52d5a15"
# sha256 of the stdout of `verify --all --format <fmt>` in the contract's other two formats
VERIFY_ALL_FORMAT_SHA256 = {
    "plain": "206062a63ba3b27455d46ab011711fd8be674903d315e3aafcb5154cfb3d35ce",
    "csv": "d0e347822ae0280481df5fd998450eec249d549de31957b84a76be05af55ab01",
}

# sha256 of the stdout of `table --family <id> <args> --format <fmt>`
TABLE_SHA256 = {
    ("stirling2", "--n", "240"): {
        "json": "a8bc98474a06a22c9c5fb001c6c0aaab8c9ad68c767783006514d717ea95b5c5",
        "csv": "70c69864d3bac52d9db3039a1e27e8744fd97b0f080f8deec61a8c59ede81dd2",
        "plain": "a990b284af9c985063dfa271e8ebfc4e39bfa6b75a7b0acce79fedbecf520a01",
    },
    ("stirling1-unsigned", "--n", "240"): {
        "json": "316cdb8d95e09076d8cfacae99cc7572b42a035e3e54a9dfb6f60aa22913ee49",
        "csv": "6a5cb2bf02aea8c54883875158750ffffa496e7640886ec91ab8609b2502cdf4",
        "plain": "eaad492a1f7e2a35d962344e6d07647aaa184727375a1d31467171ec572b5223",
    },
    ("exponential-poly", "--n", "80"): {
        "json": "87d856ed935a3e0000747585beb862b3e1fa26ad496b0cfbdae032766dc03a17",
        "csv": "92c65ed3e29df88948de233c35582a5f80195e947ef5b83e73ff2b902d9c73ef",
        "plain": "2b080f565e71b1171519c0f8df7e3a11dd970a91572a55bb879dfa48c97ceb6c",
    },
    ("general-geometric", "--n", "80", "--alpha=5/2"): {
        "json": "df9161527e924ef1f0d83c07dd5debcb8ad7793cff73dfef52806ec28c2e6e82",
        "csv": "1f7ab12d37a6a7da7399e305b4571e1c1d6d42ffb455ba8b4f1101a331e32118",
        "plain": "ac2db496184c3b8a7c2de3f97f0e46f1f8255baca37aa6df109c0c2cd28fbd58",
    },
    ("bell", "--n", "80"): {
        "json": "090a63848087208d70052477ff74b5d1e5a6398bfc3975667f63eb5603a6c0e2",
        "csv": "a5d281fbdf708c543f4967e73d78977a321e4faa8debd5c6a31685853663419d",
        "plain": "40a4fb7e82aa91ec8f603caf7e61f4080a4b051f1a0f09e5b36b5c373a2380ba",
    },
    ("euler-classical", "--n", "80"): {
        "json": "bb18dd021168272daf6fcc84b60d9cb0b8ebc42984a48d0ee72d4d1c751ffdfb",
        "csv": "e0cd35a3c2acb5dd33e0385fa6307921b13df6f5ca5e787053cc1c1e27bca978",
        "plain": "e493fa9959890a21d3fbff6b6b8833909135c1e2da15fd65a7d979b4d020821b",
    },
}

# sha256 of the stdout of `table --family <id> <FAMILY_TABLE_ARGS> --format <fmt>`, one
# entry per family id; every id gets all three value flags, so each JSON
# `params` object pins that only the flags the family reads are reported, in
# the order alpha, l, lambda
FAMILY_TABLE_ARGS = ("--n", "12", "--alpha=5/2", "--l=2", "--lambda=-1/3")
FAMILY_TABLE_SHA256 = {
    "exponential-poly": {
        "json": "8b55b9dce9381309e5860bd4720e204e9c153e6e00aac10534d76155ecc589a9",
        "csv": "b8bd3c7ebb52f6ddf89355530258ea4adb397752206e6851120b3018b40bac93",
        "plain": "ad2a26f5267f5309c3248179df3a58eef97105e88d5713e7b308f1f98f19b2e0",
    },
    "bell": {
        "json": "9c0d9d166a0c4eaaee4d0eebf2e6a577269ab0168abf3ac0b90469f99acab477",
        "csv": "5de9ab8f5f0388b711748cd0fbe55fcc2fed7e4666c8e42392fe6b89573503b7",
        "plain": "7d05b05d8a1c610938b5878aff20e889b1d72860ff6e418a36eb69dba90955ae",
    },
    "complementary-bell": {
        "json": "8bec71cf636305e58ea619260d1ee6f20f4ddb0cf0d46bc9794907d58154a626",
        "csv": "d2ec4b944da384441a90d407d010f5e54f1addbdea2186ab88aa601e559f4578",
        "plain": "cc64af8c1b5d1c1c02e37609fa07ce254219c75d2de5edb6cc4c7e7a300163b7",
    },
    "geometric-poly": {
        "json": "35e1587926930e5095bf6ef05ba1fc1d0ba11654ce176f08f36f9a70f1fd1292",
        "csv": "9e4b7312066a9f8abc9462520e776c5e5a1d64666e537eaed1d7bfa9b4139ea7",
        "plain": "777eefc50113f327f799a1c0a01e95e7e292c3bd3247726808d8325735675d45",
    },
    "fubini": {
        "json": "c531a582715dfea10bd38e468a15fa0ba4c1d6b81f605b90451816747e86411b",
        "csv": "18e6dd565160b52581bf361fd12600fe38cd89de33ca1baf66242cb0cc1c6e40",
        "plain": "0520ddbdcd1612dba5ee04827b1fc6b0c1e36104c19f1e143f776b1e2882a1e1",
    },
    "general-geometric": {
        "json": "8c6ded6c6a662fc61a9a1e024b182ef78cedc356171b79da924b8cffefff99a8",
        "csv": "222d2330648d351a193c1c57c6bc5bc30fdd76cd18210299a7536651fef48fef",
        "plain": "d7d457326d3ef4970e94f41c40fc7b8c0b746219cf957b7f55beb20df6dca110",
    },
    "euler-classical": {
        "json": "58bcaa07bf853b4214fee148dd2d2861d4cef6332b7bbd2a4204bfc74e3b51bf",
        "csv": "7d939ac07a8be3ea3f5a8b57dd1305ed7503e86bbeb79b08da6ce6529c08382f",
        "plain": "b5a2f9562c57826b249c6dab344e8bcfaa65cf36cd423ec1797e63511d3c4c0f",
    },
    "euler-higher": {
        "json": "581815702b951674246291154febaeebcc736b85fb09a181ce5ff8fad81d1424",
        "csv": "232fee3852da3ba394c054685cdcefd99c6ff9aad8c9fdc1f54c17f1a6006a01",
        "plain": "0891b3460ea7e9ac73e7540c113b34ea14480fe5be96861461040f79888eff01",
    },
    "apostol-euler": {
        "json": "2e4f066474eb7b541bb6061002d8b83d4f592d2962b84db2cb86dd8e7653a884",
        "csv": "411e35bba4ee8539f2379a068a71f08a3e54df353a0eb3d97d0896cd0ccd0dc7",
        "plain": "e032aa9b5ecd5a2dcbff51b2af7ca3890cf9fbb0ee299dfa62130e38ad072e0c",
    },
    "apostol-euler-higher": {
        "json": "f40cb9503e45d50e484818021afa888830cffea8e06bb80343bf215b408386c2",
        "csv": "10b20038fa6ea5492c7c80fd94ce1138d85723e68600eef062e9e6f345e7b636",
        "plain": "2800604b9a100071d789e936d6954ad7df41fb8fae997c4d60eb9916871df13c",
    },
    "bernoulli-classical": {
        "json": "b85d550959391ea5b3dc38f6483d6c23f97beb21dd11b3a82797f8bda8f40a8e",
        "csv": "c939a815b7edb858579aa81f1d133b90a0ad31a5bad9cabff230986f0526b563",
        "plain": "844b97ed6cbd74f0005740608b233dfa6ead0ab0e28391bbaf5f36461633d773",
    },
    "bernoulli-higher": {
        "json": "49d884b8020eab46a4fb66ee62b8078f4cd0dfc7c3b5562519ee4d3eb786cb87",
        "csv": "d957b7434dc1b531431ff15b9e0f01b4548564d4ee61f543f0a2197bcba9c6da",
        "plain": "77599bdaf67f7beeb00f0558a25b657dca09e1e820258b8bc5a19752f970fe3c",
    },
    "apostol-bernoulli": {
        "json": "d7c4a3dc1644318af3fe7cad506d3df1bf2bd43289fdd2091499497ef353ec70",
        "csv": "d1e2ca5cecdb923e122bbfb32a2bbd71f3d42171630a13f796e5649c230df6c0",
        "plain": "c4766fff6117dfc0f56a9c0bb1ce820f7fb80d4c5a14999b855bf86e9db02c46",
    },
    "apostol-bernoulli-higher": {
        "json": "b396f0e050e130d182643076b8839cbeab823c8a338dc498c9fc3ba11c057611",
        "csv": "78fdc0b359fae656533c9b0636bf556ab954a14d8cb1743145022252cb955756",
        "plain": "844fc4689d219e1eb1a69e170b96bb973c627ee49bcbe9c80b0565010f8bd2df",
    },
    "bernoulli-second-kind": {
        "json": "8c3cad11e8a49ad511823df4566f4ca2de5c7d8ec857de74a5daa9bfba4027b5",
        "csv": "2e8c6933966c487fb11bd5169332eda75094db27ad8f457610f3ec617f00229c",
        "plain": "e60ec4f8ec3d4506f5e9d04968f13deea7f1d94897c2cbc173e0e227778ce2a6",
    },
    "stirling2": {
        "json": "ba39dea38178686dcbf5f217b3d5cadba6f0e86e491bff64ebbbbdfb57b9c130",
        "csv": "01b312341839dbba56dadcdd98e655cbbc47c03e685a8d03e344bbbf44a67eb4",
        "plain": "ca4c74c37b95d53d1ceffc9601da2fef0f7ebb761a72edff8f950d427e10cab5",
    },
    "stirling1-unsigned": {
        "json": "8e492db5a8e4b9d3ef076745f5e490e3ffd0b564ad9f7cb7220d3909b163d720",
        "csv": "3d252f72c4b979733831c2ff6155aab49b26425993980d19dd8e4db896517e4a",
        "plain": "b5093e31f05d3424b62696164f1ea5d9d51fec589058bef661faa45e3855efb1",
    },
}

# sha256 of the stdout of `series --gf <id> <args> --order 64 --format <fmt>`;
# apostol-euler at a fractional alpha prints the prefactor line
SERIES_SHA256 = {
    ("exp-bell", "--x=2/3"): {
        "json": "214542a4e8415a7150590f0a92423b0f51584016a7a2ff83cb38a0d70d988500",
        "plain": "80d425af245e63bce0dc1c5ffa68b3a5a75ae94a1d823ee05bb6ebc44fe99630",
    },
    ("geometric", "--x=-1/2"): {
        "json": "4c37b901b713588a9fed78ef8e49dd130013d23b385105fcc26b0b6b013fc1f7",
        "plain": "1cfe2e29098df1ee56c783a6abae23fadf3efd2b84736bb63c205ce495539e48",
    },
    ("general-geometric", "--x=2/3", "--alpha=5/2"): {
        "json": "c563c74d2c84ceec1f9a8f65be4c4c149fb5607aeba61e8418f4cbed035e0c57",
        "plain": "0de1e8113439b11cf288fc38de910ce934bfd3c13578bb080dde5b5e19a51a51",
    },
    ("apostol-euler", "--alpha=3", "--lambda=1/3"): {
        "json": "30d66511db4db816cc01fcb1b3167c71af6ab51a0beed55f288ded835a3ada11",
        "plain": "fefa806ccc5ac9f3b51445a2a5d239fb411c0165314173f0d3636e1f29ae5069",
    },
    ("apostol-euler", "--alpha=5/2", "--lambda=2"): {
        "json": "fcbc32641e935da96f404c316e7f90cdd2db757b85f87bb9a0a4279b3da6d6c3",
        "plain": "2b112053bcaf846d5e1ef94a7416124aba3be86fa93bfcdd094d17607eb78138",
    },
    ("apostol-bernoulli", "--l=2", "--lambda=5"): {
        "json": "9796cbfd04608dba1b29ef8fb86c0f85137c7eea3c093cf902e50208881fc7a6",
        "plain": "4488fe66fe0ee19f91818f75030cb6b6257641884b83ae8a60cb52c69d3849ea",
    },
    ("bernoulli-higher", "--l=3"): {
        "json": "bba8c10145589e533f2ed94fc9059a86f3eb11239b48cfaf7e3d4a6b7777f3ca",
        "plain": "9303eae0a03163267618e9afbe2ffc39b824a264ecade73461fa94dee1463cf3",
    },
    ("bernoulli-second-kind",): {
        "json": "1c877e7faff767f3300af8c0e456c4ab85c2aaf615580ae58e29e45cbbd03489",
        "plain": "b7731e6d429f30a2c5bdd484d302be8b4abc4a232d1e0d2961e2601d90cc46f3",
    },
}

# sha256 of the stdout of `verify --config scripts/certify_lambda.cfg --format <fmt>`
CERTIFY_SHA256 = {
    "plain": "ab42f1a9febac18641fc3bf2445f71cf22a1ff22dfa2402f58320c66f59ec11c",
    "json": "4198d46a25b11f5d58de450724569a27549ed3b5ec0ff1e33398874460f7cc8b",
}


def test_criterion_09_determinism_and_exit_codes():
    global VERIFY_ALL_SECONDS
    with _Budget("9 determinism and exit codes", 180.0):
        started = time.perf_counter()
        one = _run_cli("verify", "--all", "--format", "json", "--jobs", "1")
        VERIFY_ALL_SECONDS = time.perf_counter() - started
        four = _run_cli("verify", "--all", "--format", "json", "--jobs", "4")
        assert one.returncode == 0 and four.returncode == 0
        assert one.stdout == four.stdout
        # the behaviour contract: the default-grid report, byte for byte
        assert hashlib.sha256(one.stdout.encode()).hexdigest() == VERIFY_ALL_SHA256
        payload = json.loads(one.stdout)
        assert payload["summary"]["fail"] == 0
        # parsing and re-serializing reproduces the bytes
        assert json.dumps(payload, indent=2) + "\n" == one.stdout
        # exit-code contract: pass -> 0, fail -> 1, usage -> 2
        ok = _run_cli("verify", "--id", "spivey", "--nmax", "2", "--mmax", "2")
        assert ok.returncode == 0
        bad = _run_cli("verify", "--id", "spivey", "--nmax", "2", "--mmax", "2", "--perturb")
        assert bad.returncode == 1
        usage = _run_cli("verify", "--id", "no-such-id")
        assert usage.returncode == 2
        domain = _run_cli("table", "--family", "apostol-bernoulli-higher",
                          "--l", "2", "--lambda", "1", "--n", "4")
        assert domain.returncode == 2


def test_criterion_09_perturb_bytes():
    with _Budget("9 perturb bytes", 120.0):
        for jobs in ("1", "2"):
            proc = _run_cli("verify", "--all", "--perturb", "--format", "json", "--jobs", jobs)
            assert proc.returncode == 1
            assert hashlib.sha256(proc.stdout.encode()).hexdigest() == PERTURB_SHA256, jobs
            assert json.loads(proc.stdout)["summary"] == {"pass": 0, "fail": 23086, "skipped": 297}


def test_criterion_09_twice_the_grid_bytes():
    with _Budget("9 twice the grid bytes", 60.0):
        proc = _run_cli("verify", "--all", *TWICE_THE_GRID, "--format", "json", "--jobs", "2")
        assert proc.returncode == 0
        assert hashlib.sha256(proc.stdout.encode()).hexdigest() == VERIFY_ALL_TWICE_SHA256


def test_criterion_09_plain_and_csv_bytes():
    with _Budget("9 plain and csv bytes", 120.0):
        for fmt, digest in VERIFY_ALL_FORMAT_SHA256.items():
            proc = _run_cli("verify", "--all", "--format", fmt)
            assert proc.returncode == 0
            assert hashlib.sha256(proc.stdout.encode()).hexdigest() == digest, fmt


def test_criterion_09_table_bytes():
    with _Budget("9 table bytes", 120.0):
        for (family, *args), want in TABLE_SHA256.items():
            for fmt, digest in want.items():
                proc = _run_cli("table", "--family", family, *args, "--format", fmt)
                assert proc.returncode == 0
                assert hashlib.sha256(proc.stdout.encode()).hexdigest() == digest, (family, fmt)


def test_criterion_09_family_table_bytes():
    with _Budget("9 family table bytes", 120.0):
        assert set(FAMILY_TABLE_SHA256) == set(fam.FAMILIES)
        for family, want in FAMILY_TABLE_SHA256.items():
            for fmt, digest in want.items():
                proc = _run_cli("table", "--family", family, *FAMILY_TABLE_ARGS, "--format", fmt)
                assert proc.returncode == 0
                assert hashlib.sha256(proc.stdout.encode()).hexdigest() == digest, (family, fmt)


def test_criterion_09_series_bytes():
    with _Budget("9 series bytes", 120.0):
        assert {gf for gf, *_ in SERIES_SHA256} == set(fam.SERIES)
        for (gf, *args), want in SERIES_SHA256.items():
            for fmt, digest in want.items():
                proc = _run_cli("series", "--gf", gf, *args, "--order", "64", "--format", fmt)
                assert proc.returncode == 0
                assert hashlib.sha256(proc.stdout.encode()).hexdigest() == digest, (gf, *args, fmt)


def test_criterion_09_certify_bytes():
    config = str(Path(__file__).resolve().parents[1] / "scripts" / "certify_lambda.cfg")
    with _Budget("9 certify bytes", 60.0):
        for fmt, digest in CERTIFY_SHA256.items():
            proc = _run_cli("verify", "--config", config, "--format", fmt)
            assert proc.returncode == 0
            assert hashlib.sha256(proc.stdout.encode()).hexdigest() == digest, fmt


def test_criterion_10_full_run_under_a_minute():
    with _Budget("10 full verification runtime", 60.0):
        seconds = VERIFY_ALL_SECONDS
        if seconds is None:
            started = time.perf_counter()
            proc = _run_cli("verify", "--all", "--format", "json", "--jobs", "1")
            seconds = time.perf_counter() - started
            assert proc.returncode == 0
        assert seconds < 60.0, f"full verification took {seconds:.1f}s"

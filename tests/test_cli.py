"""Command-line interface: reports, exit codes, determinism."""

import argparse
import hashlib
import io
import json
import random
import subprocess
import sys
import time

import numpy as np
import pytest

from conftest import random_code
from qupitcube import algebra, cli, fp, logical
from qupitcube.algebra import MAX_ALGEBRA_MODULUS
from qupitcube.classify import MAX_CLASSIFY_MODULUS
from qupitcube.codes import CodeParams, d5_code
from qupitcube.logical import TorusCode
from qupitcube.reference import product_of_all_generators
from qupitcube.oracle import MAX_STRIP_LENGTH, MAX_STRIP_WIDTH, scan_width

D5_FLAGS = ["--p", "5", "--alpha", "1,0", "--beta", "0,1",
            "--gamma", "1,1", "--delta", "3,2", "--parity", "S"]
P2_FLAGS = ["--p", "2", "--alpha", "1,0", "--beta", "0,1",
            "--gamma", "1,1", "--delta", "1,0"]


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "qupitcube", *args],
                          capture_output=True, text=True)


def report_digest(stdout: str) -> str:
    """sha256 of a report, once the report is shown to be canonical: the
    json module, reading it back and writing it with sorted keys and an
    indent of 2, gives the same text."""
    assert stdout == json.dumps(json.loads(stdout), sort_keys=True, indent=2) + "\n"
    return hashlib.sha256(stdout.encode()).hexdigest()


def test_scan_p2_zero_tuples():
    out = run_cli("scan", "--p", "2")
    assert out.returncode == 0
    report = json.loads(out.stdout)
    assert report["results"]["deformable_count"] == 0
    assert report["schema_version"] == "1"


def test_check_d5_reports_discrepancy():
    out = run_cli("check", *D5_FLAGS)
    assert out.returncode == 0
    report = json.loads(out.stdout)
    assert report["results"]["translation_commutation"]["consistent"]
    assert report["results"]["theorem1"]["overall"] is False
    kinds = {d["kind"] for d in report["discrepancies"]}
    assert "condition3-reading-mismatch" in kinds


def test_check_report_digests():
    # sha256 of the stdout reports, pinned from the json module's encoder.
    # Every code the command line can build has a consistent generator
    # family (none of the p = 3 tuples nor 3,000 random tuples each at
    # p = 2, 5 and 7 in either parity has a violation), so no report here
    # lists a translation_commutation violation.
    codes = {"d3": ["--p", "3", "--alpha", "1,0", "--beta", "0,1",
                    "--gamma", "1,1", "--delta", "1,2"],
             "d5": D5_FLAGS[:-2],
             "p2": P2_FLAGS,
             # every pair proportional: width1_determinants is null
             "p3-parallel": ["--p", "3", "--alpha", "1,0", "--beta", "1,0",
                             "--gamma", "1,0", "--delta", "1,0"]}
    expected = {
        ("d3", "S"): "fbc280207b0f125f5f8ef7e8af398fb52c49a101c1d03ee39c1a0ad7ee27458e",
        ("d3", "A"): "7084f8d5f7dcd716b36d2f62877a399029f68976a21556cbaf8042d51d563fde",
        ("d5", "S"): "8544a30ba5b5706d7a3963bd1792aafce1dbafacf1c2d5e08af17e7ad1093203",
        ("d5", "A"): "db0496550a9499a1bdd723eb3df292a149b90ebe88d92166a7c23455fe9ae54e",
        ("p2", "S"): "262ff2d8de42b83321e478b468d2a812f49f4ae962e3425e2e3e57cdf753d84d",
        ("p2", "A"): "c4ae709b1bdb19542480b8b9f57a0ec9d4aa16cf880b86dec46d6bbbca9c9390",
        # pinned from the 2x2 matrix route of the width-1 test
        ("p3-parallel", "S"): "b40a2c5b819e3bf1c4f4ecb839d1df6a241d3282fb4eefa8bc081076adf096b3",
        ("p3-parallel", "A"): "94f1459a397000cd647dc6ca36f3ab4d90b6f9bde4d84a89b501a302ba5128d9",
    }
    for (code, parity), digest in expected.items():
        out = run_cli("check", *codes[code], "--parity", parity)
        assert out.returncode == 0
        assert report_digest(out.stdout) == digest, (code, parity)


def test_strings_expect_no_string_violation():
    out = run_cli("strings", *P2_FLAGS, "--wmax", "1", "--lmax", "6",
                  "--expect-no-string")
    assert out.returncode == 1
    report = json.loads(out.stdout)
    assert report["status"] == "violation"
    assert report["results"]["bound_2w_exceeded"]


def test_strings_d5_within_bound():
    out = run_cli("strings", *D5_FLAGS, "--wmax", "2", "--expect-no-string")
    assert out.returncode == 0
    report = json.loads(out.stdout)
    assert report["results"]["bound_2w_exceeded"] == []


def test_strings_d5_report_digest():
    # sha256 of the stdout report, pinned from the dense length-by-length
    # scan; the transfer-matrix scan must reproduce it byte for byte
    expected = {
        "S": "64cf9fa6303680e2e5ab9570b2eab09eda4c1ed30472a5055e62692c24a51e40",
        "A": "d74458a81ec549d7f9476a3d4ce2d23f0cb061f67d0811026b981950c9e359f7",
    }
    for parity, digest in expected.items():
        out = run_cli("strings", *D5_FLAGS[:-1], parity, "--wmax", "3")
        assert out.returncode == 0
        assert report_digest(out.stdout) == digest


def test_strings_rank_deficient_report_digests():
    # sha256 of the stdout reports, pinned from the dense per-length solve
    # of every family whose first column block is rank deficient
    expected = {
        ("1,0", "1,0", "1,0", "1,0"):
            "20780c459a8bbcabd86b8abb551c023bf94306f88ab553b71b2155aa7a673c7c",
        ("1,2", "1,1", "1,2", "1,1"):
            "9b51ecb1c80f4a457e58cf378338416c6cf0aebfc98c3a39386223e023af904e",
    }
    for pairs, digest in expected.items():
        flags = [f for name, pair in zip(("alpha", "beta", "gamma", "delta"), pairs)
                 for f in (f"--{name}", pair)]
        out = run_cli("strings", "--p", "3", *flags, "--wmax", "3")
        assert out.returncode == 0
        assert report_digest(out.stdout) == digest, pairs


def test_strings_corner_report_digests():
    # sha256 of the stdout reports, pinned from the scan of every family
    # before families were scanned once per inversion class: a cornered
    # witness on a genuine corner (corner 2 at widths 3 and 5), cornered
    # witnesses on corner-1 families (the flat strips along the bend axis)
    # at every width, and a cornered-only run
    expected = {
        ("5", "4,4", "0,3", "3,2", "0,1", "S", "both"):
            "3de8639916553fdf37429b0457ef9e7756466a26098e7551143932761f22a0af",
        ("5", "2,1", "3,0", "0,4", "3,1", "A", "both"):
            "d1b04ed96f090158e53c060c2b3304e2b984e5352845ca4ec829338623706bc9",
        ("7", "4,5", "6,0", "5,5", "6,2", "S", "cornered"):
            "b645a4b3c9effef4c9bf08f54e2e57ad988433c993174cf6e74fa469a10dbc17",
    }
    for (p, *pairs, parity, kind), digest in expected.items():
        flags = [f for name, pair in zip(("alpha", "beta", "gamma", "delta"), pairs)
                 for f in (f"--{name}", pair)]
        out = run_cli("strings", "--p", p, *flags, "--parity", parity, "--wmax", "5",
                      "--kind", kind)
        assert out.returncode == 0
        assert report_digest(out.stdout) == digest, pairs


def test_usage_errors():
    assert run_cli("bogus").returncode == 2
    assert run_cli("scan").returncode == 2                      # missing --p
    assert run_cli("check", "--p", "5").returncode == 2         # missing pairs
    assert run_cli("scan", "--p", "2", "--frobnicate").returncode == 2
    assert run_cli("--schema-version", "2", "scan", "--p", "2").returncode == 2
    assert run_cli("check", "--p", "4", *D5_FLAGS[2:]).returncode == 2
    assert run_cli("classify", "--p", "3", "--workers", "2").returncode == 2
    assert run_cli("classify", "--p", "3", "--cache", "canon.txt").returncode == 2
    assert run_cli("scan", "--p", "2", "--workers", "2").returncode == 2


def test_params_file_equivalent_to_flags(tmp_path):
    path = tmp_path / "d5.json"
    path.write_text(json.dumps(d5_code("S").as_dict()))
    by_file = run_cli("check", "--params", str(path))
    by_flags = run_cli("check", *D5_FLAGS)
    assert by_file.returncode == by_flags.returncode == 0
    assert by_file.stdout == by_flags.stdout


def test_malformed_params_files_are_usage_errors(tmp_path):
    good = d5_code("S").as_dict()
    cases = {
        "short-pair": dict(good, alpha=[1]),
        "null-pair": dict(good, alpha=None),
        "long-pair": dict(good, alpha=[1, 0, 4]),
        "top-level-list": [good],
    }
    for name, content in cases.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(content))
        out = run_cli("check", "--params", str(path))
        assert out.returncode == 2, (name, out.stderr)
        assert out.stdout == "", name
        assert "Traceback" not in out.stderr, name


def test_classify_and_scan_report_digests():
    # sha256 of the stdout reports, pinned from the breadth-first orbit
    # closure; the normal-form classification must reproduce them byte
    # for byte
    expected = {
        ("classify", "--p", "3", "--parity", "S"):
            "50260d5309b65af3ccdad4c8371fbd32706cf6ce6a8be0547d8f00fc50c95cb5",
        ("classify", "--p", "3", "--parity", "A"):
            "b2a098c14e443d73986b1b4a80d5c8c3fe80b3a90a137e05e0821fcd6cee265b",
        ("classify", "--p", "5", "--parity", "S"):
            "d77aff387637eb18fdc66a3c1651a59f2c5fde9a28117dc6c88d997b7add2568",
        ("classify", "--p", "5", "--parity", "A"):
            "b481a16622043bdb2683bf20d8244bcd5f215c0db3b4eaf8208871c86cc93b05",
        # pinned from the 2x2 matrix route of the width-1 test
        ("classify", "--p", "7", "--parity", "S"):
            "1fef8470ea1319ac4dedd3547b8622ca0657afb7ab7ab16cd45d19a6a7111669",
        ("classify", "--p", "7", "--parity", "A"):
            "f49fa68edaa87bab2060e4e4eb74db3175d39ca695d372bcc9d5375576dc03dc",
        ("scan", "--p", "5", "--oracle-wmax", "1"):
            "ab11f4b3a45e15e97d1f62a3a43680baa6fdde30354ec11e16984d6df693e906",
        # pinned from one scan_width call per representative and width
        ("scan", "--p", "5", "--oracle-wmax", "2"):
            "0a51ff54eddcd9cea60499314f6dbfa5cac72083326c86e5deb6df169bcbb03d",
        ("scan", "--p", "7", "--oracle-wmax", "3"):
            "0d403f8602411e8b67336c3b918783856996d14be5870a89dbbf4dd070aea095",
        ("scan", "--p", "11", "--oracle-wmax", "2"):
            "199c2e45f132294e7ee78532b3e1d0869852a5d6afe69458ed4f261aecd8147e",
    }
    for argv, digest in expected.items():
        out = run_cli(*argv)
        assert out.returncode == 0
        assert report_digest(out.stdout) == digest
    one = run_cli("classify", "--p", "3")
    again = run_cli("classify", "--p", "3")
    assert one.returncode == 0
    assert one.stdout == again.stdout
    report = json.loads(one.stdout)
    assert report["results"]["orbit_count"] == 2


def test_logical_antisymmetric():
    out = run_cli("logical", "--p", "3", "--alpha", "1,0", "--beta", "0,1",
                  "--gamma", "1,1", "--delta", "1,2", "--parity", "A",
                  "--dims", "2x2x3")
    assert out.returncode == 0
    report = json.loads(out.stdout)
    assert report["results"]["product_of_all_generators_identity"] is True
    assert report["results"]["encoded_qudits"] >= 1
    census = report["results"]["census"]
    assert census["normal_x"]["count"] == 2    # in-plane dims (2, 3)
    assert census["normal_z"]["count"] == 4    # in-plane dims (2, 2)


def test_logical_report_digests():
    # sha256 of the stdout reports, pinned from the per-module generator
    # scatter loops and the duplicated census tiers; the shared codes
    # helpers and the single tier search must reproduce them byte for byte.
    # The --ktable 6 digests were pinned from the per-torus k table, before
    # the table built one layer relation per cross-section and the
    # commutation tables came from the census's plane arrays.  The 7x7x7,
    # 5x4x7, 2x3x3 and 6x6x2 digests, which reach every census tier, were
    # pinned from the per-vertex rolls of the census and the per-site loop
    # of check_abelian, before both were read off the label Gram matrix.
    # The f0 and r0 digests, codes built for the census branches with
    # F = 0 on every normal and with R_u = R_v = 0 on normal z, were pinned
    # from the census with both tile alignments and the product of all
    # generators built site by site.
    codes = {"d3": ["--p", "3", "--alpha", "1,0", "--beta", "0,1",
                    "--gamma", "1,1", "--delta", "1,2"],
             "d5": D5_FLAGS[:-2],
             "x4": ["--p", "3", "--alpha", "1,0", "--beta", "1,0",
                    "--gamma", "1,0", "--delta", "1,0"],
             "p7": ["--p", "7", "--alpha", "1,0", "--beta", "0,1",
                    "--gamma", "1,1", "--delta", "3,5"],
             "f0": ["--p", "5", "--alpha", "1,0", "--beta", "0,1",
                    "--gamma", "1,1", "--delta", "3,3"],
             "r0": ["--p", "5", "--alpha", "1,0", "--beta", "4,0",
                    "--gamma", "4,0", "--delta", "1,0"]}
    expected = {
        ("d3", "S", "2x2x2"): "9cb1a812f2428304bed43de9e368ca4a1a1822120f498c7866326dcb0f22afb6",
        ("d3", "S", "3x4x5"): "ca7e5a6183f486ec8b8271d64e99180fec71fac699b75b16ea00974b70a82cb5",
        ("d3", "S", "4x4x3"): "b0116ed450a444edd048f6401624d3d7e3b86a63ea4942b376780c5ce42d50ff",
        ("d3", "A", "2x2x2"): "f2841a81b7288838380b0b1c08d83f02761a8b8141e61fac87bc4b99015ca7b5",
        ("d3", "A", "3x4x5"): "9b2bd673bab6ee48b084ec0d2678012ae0863c683d1fd6bd9b87f57f667e6177",
        ("d3", "A", "4x4x3"): "2f9118c4ad6806392ecab95ddca2831485b576415b12401c609e9015270ded70",
        ("d5", "S", "2x2x2"): "558362d5aea872d6afbdaf57f0af352b2a1c4aefbea140a4af3c967cf8fb5e97",
        ("d5", "S", "3x4x5"): "18fdd5b0a802b17a559820ac13035d77e15535997236f3491e219874ab103904",
        ("d5", "S", "4x4x3"): "31467b7771e9de2ea902c46a16240d878d29a1d9aec0f9c1b65269736d948254",
        ("d5", "A", "2x2x2"): "84d979ccd098df36207829ce6a9205925462044c63e24b2654f3e9f4e48168b8",
        ("d5", "A", "3x4x5"): "3f0d737618ebb59816b4858d3b07e2d9554e73578713a88c49ea84958ea54d20",
        ("d5", "A", "4x4x3"): "5dfe1e4be36e304713d990360259f6f7500bcff81845180218241c99a2cf5d97",
        ("d3", "S", "7x7x7"): "666f9f6f4fbb23d60aa06c9e85f8ddca492c937c86b81eae0805660c427177f8",
        ("d3", "S", "5x4x7"): "02f18bfba00dbce57d02a3d0f55309503340d85a208c9a96b43ed4c52783b0a7",
        ("d3", "S", "2x3x3"): "a257a7faef998dcb00a451259a9c5e3f766446b7f895d7b3d92f8dffd96e7b70",
        ("d3", "S", "6x6x2"): "b2b6da88597dc5cc580ccca9ecbb48b8443dd5d72ad8fd4e59f95e6e5339b827",
        ("d3", "A", "7x7x7"): "eee1187381c860e12c030a02b3425b4454316b7db18e8b52ff1707626b667396",
        ("d3", "A", "5x4x7"): "8672d77f9d4852c7915f0791edd16f7989410ec1bb3a00326d7a2467152312ab",
        ("d3", "A", "2x3x3"): "07e615050e8cdbaa52e3c67062a9d671bd69f2ab9023291d24c18f5d6231b484",
        ("d3", "A", "6x6x2"): "d61086590824a3dd288ee358658640449dcf34f5cecf1216230d52f9764323cb",
        ("d5", "S", "7x7x7"): "2ecd31ec99d3cd9245848ac10213b6981135fa1e28a331c153f625a98b9f849c",
        ("d5", "S", "5x4x7"): "1ab1bace26450d7a213ea7ef4d7cf07e6c8567841adf8f28b3c95d23e6e17b89",
        ("d5", "S", "2x3x3"): "96588977386cf0849a8a38a543927ba5192ca838c0af26aae6eb5c84b9c1dbcc",
        ("d5", "S", "6x6x2"): "b95bca683166450da40ef6f40818d0691210a80c8603dd793871d66e19c4895c",
        ("d5", "A", "7x7x7"): "8b7f37ebe9cd5894c66e0c923191ad07921ed3b267d55b243d9e32033a5a0eab",
        ("d5", "A", "5x4x7"): "48ad09e3d6519954d40584ae993b1e0c5dede531a46b1300af78749db3d61c06",
        ("d5", "A", "2x3x3"): "5e98a392b4ed38040784f0946918f3e004bcb447ac079009e8bc8869fa5547d7",
        ("d5", "A", "6x6x2"): "056866e6259ac1676052c80ad448649dbfb58a3c081c88999e5c79424282bc1f",
        ("x4", "S", "7x7x7"): "ff4c2de419a4f1b9d42284ba3760749ab499456344efb208f745c079cf998c19",
        ("x4", "S", "5x4x7"): "e51eca8b3f62a6a027022bc18baf94f02830cd0680a55c0bf5afd2398ec711a3",
        ("x4", "S", "2x3x3"): "194534dc41554275d572cddadbfadcab827c09c96746b1d9b5eea2fae07ca6ce",
        ("x4", "S", "6x6x2"): "3fec63d0d229cfa91708b715feff921b2a4d77ffbb39b3e511388568108c9847",
        ("x4", "A", "7x7x7"): "eb476159bcea1be260bbd337684843d85da1f28a52a22dccd35f923a0cdf1f64",
        ("x4", "A", "5x4x7"): "3810461555b1da3e9b4040d59a0105e9525e9325b5e1b9bbcb997e9836c8784f",
        ("x4", "A", "2x3x3"): "9d170f394bd03272cf84e7f1c4533d66b57ffa3c2eb2f0fabc1770bbd812904d",
        ("x4", "A", "6x6x2"): "974e8bc25111352f367a1f9557c272355c5eae6bedc95c0b2d778aed2b0ce452",
        ("p7", "S", "7x7x7"): "c6032130bb40ff0cbabeda51ebe284333397e554bb73d9bb5e71c4c7a24e62b8",
        ("p7", "S", "5x4x7"): "ecc220f56c18ea2ddd348606c3eeea64301ce06921b48f7bdc5784b5818334de",
        ("p7", "S", "2x3x3"): "e385dc898a1c62050b083da70007e3c29e5cb33d71b8171e66d73dca297b2eeb",
        ("p7", "S", "6x6x2"): "316ad31669019bcf183c281883f682ae0ca2d6c643cf1452b516a3454eb82a49",
        ("p7", "A", "7x7x7"): "e2907edf118933eac8677ae8fae9f3afa5d9d792ee0921848c80f6e76cac6787",
        ("p7", "A", "5x4x7"): "1028ea9802732f9d611a9769c54860d9e822fbdcad1e85fb405c9c510fad1e14",
        ("p7", "A", "2x3x3"): "a74ac81757ae6d39127e8d3aa559152a7093ec4aa11ec0a3e42999a978b27814",
        ("p7", "A", "6x6x2"): "079309740fc95480a26b558b4cf1b0c80293c4a722b723559ef0e79305fbbe8f",
        ("f0", "S", "3x3x3"): "60fd252fe05a3f25b6f9d734885de01c5efcb7e12a480d5f0f4d199c10322e3e",
        ("f0", "S", "3x4x5"): "35207bd2ef5ce3d23c1ca15f39ededb704af92d56362a2bdb825c9313ee37ada",
        ("f0", "A", "3x3x3"): "ec4b62091b4451a1c2a517fe62d695c8b72d3809f80662e4119e1eebc8498930",
        ("f0", "A", "3x4x5"): "c63544d33ebad1c863ffd598fd669301447cac69985a66857735d5857d0dc7ae",
        ("r0", "S", "3x3x3"): "a5c7392c742923dd54f17b0aa886c79538392b6b175432bb04b49cb40476ea88",
        ("r0", "S", "3x4x5"): "57adabf2a527e5c6fedfbf30466079b1b94ba716e75e4fdaed7bdcc9cc853efb",
        ("r0", "A", "3x3x3"): "69ec6e97276c5438349a911e5537a5b689b8186fa3a4660a4bce1d237995b387",
        ("r0", "A", "3x4x5"): "073e22ac52c7d1224fdc55c06dc2994214fd5cd89642e9b5c20c75e05ae65052",
        ("d5", "A", "2x3x2", "--ktable", "3"):
            "be4c28c37179956f2d1f01cf29b5d1112875b5b129c533a0c3fdbec78256e8b7",
        ("d3", "A", "3x4x5", "--ktable", "6"):
            "258b3c96ba3a7b7721a048be817883d7f1e6399322087dd1761e1eb9d750cf3f",
        ("d5", "S", "3x4x5", "--ktable", "6"):
            "10d49aec03d88c8341ac65d3f97ffb2c69b6cc9fad129013d63bb0c679d5f5a9",
        ("x4", "S", "3x4x5", "--ktable", "6"):
            "58f5641cedf01208047fc95f81b5c0edf3e1dc076aedbe6c5dae9a866b24b0a7",
    }
    for (code, parity, dims, *extra), digest in expected.items():
        out = run_cli("logical", *codes[code], "--parity", parity, "--dims", dims, *extra)
        assert out.returncode == 0
        assert report_digest(out.stdout) == digest, (code, parity, dims)


def test_algebra_report_digests():
    # sha256 of the stdout reports, pinned from the cyclotomic-coefficient
    # operator sums; the rational phased-monomial sums must reproduce them
    codes = {"d3": ["--p", "3", "--alpha", "1,0", "--beta", "0,1",
                    "--gamma", "1,1", "--delta", "1,2"],
             "d5": D5_FLAGS[:-2],
             "p7": ["--p", "7", "--alpha", "1,0", "--beta", "0,1",
                    "--gamma", "1,1", "--delta", "3,5"]}
    expected = {
        ("d3", "S", "2x2x2", "1"): "5d880d235c8cb9bffbf72dd028b93203d8387b1b361fd721ad4148340601bcf2",
        ("d3", "S", "3x3x3", "1"): "8bfd01581a5c953b769efbb1bf18d90912838df24423f18c0e5a346afc81a012",
        ("d3", "A", "2x2x2", "1"): "f45075d2ed68bf7cb669e285dc2e43f5136eaafd95ad312cf5629970b653a5dd",
        ("d3", "A", "3x3x3", "1"): "e4c1320b3af0f5b273bbe0ad47ddd9c9a951c6eed9e4e44699f85a5e8dc47104",
        ("d5", "S", "2x2x2", "1"): "e883cc7bdb30743f7a338adc1d37f5dfb2033875de815681aee1f1112b93e1aa",
        ("d5", "S", "3x3x3", "1"): "88cc7ee90dce04e6ce29c43ac3abd8a8f4d10ebc7626d66f4000a1a38dbe80c2",
        ("d5", "A", "2x2x2", "1"): "d7fe8a0f82deb2d21455bf148da28a1fbe01cfd0946100b61e3a9f94e3c74ca4",
        ("d5", "A", "3x3x3", "1"): "3c2691113282a0fb41332e99fea48dbbcc1e9f7fc66f76708c48cc008bf24fdc",
        ("p7", "A", "2x2x2", "1"): "e52b9b22d558d3be5fe585381c85f1f627f5c534f7798725554f644f5c2108e5",
        ("p7", "A", "3x3x3", "1"): "200b310118f5d7b09ae3d91f7977c82ab293660bd3b61416de4d69fe2d8866d8",
        ("d5", "A", "2x2x2", "0"): "16bde34f6c0eb205854b55f86c576b36317290de259d63a6cee78f6ab7ce22bc",
        ("d3", "S", "3x3x3", "0"): "4d7be0b82d14f3a965733edb58b9471d31839b93a6bf9a218175be7ccd862fbf",
    }
    for (code, parity, dims, r), digest in expected.items():
        out = run_cli("algebra", *codes[code], "--parity", parity, "--dims", dims, "--r", r)
        assert out.returncode == 0
        assert report_digest(out.stdout) == digest, (code, parity, dims, r)


def test_algebra_r_out_of_range():
    # p = 5: labels run over 0..4
    for r in ("-1", "5", "7"):
        out = run_cli("algebra", *D5_FLAGS[:-1], "A", "--r", r)
        assert out.returncode == 2
        assert out.stdout == ""
        assert "syndrome label" in out.stderr


def test_logical_refuses_dense_torus_beyond_budget():
    for extra in (("--dims", "17x16x16"), ("--dims", "2x2x2", "--ktable", "17")):
        start = time.perf_counter()
        out = run_cli("logical", *D5_FLAGS, *extra)
        assert time.perf_counter() - start < 5
        assert out.returncode == 2
        assert out.stdout == ""
        assert "4096" in out.stderr


def test_logical_runs_at_the_torus_size_limit():
    out = run_cli("logical", *D5_FLAGS[:-1], "A", "--dims", "16x16x16")
    assert out.returncode == 0
    results = json.loads(out.stdout)["results"]
    assert [results["census"][f"normal_{a}"]["count"] for a in "xyz"] == [4, 4, 4]
    assert results["encoded_qudits"] >= 1
    assert results["product_of_all_generators_identity"] is True


def test_algebra_report_is_independent_of_dims():
    # every operator is the identity off the generator's eight sites, so
    # --dims is only checked and echoed
    codes = {"d5": D5_FLAGS[:-2],
             "p7": ["--p", "7", "--alpha", "1,0", "--beta", "0,1",
                    "--gamma", "1,1", "--delta", "3,5"]}
    for flags in codes.values():
        reports = []
        for dims in ("2x2x2", "3x4x5", "4x4x4"):
            out = run_cli("algebra", *flags, "--parity", "A", "--dims", dims)
            assert out.returncode == 0
            report = json.loads(out.stdout)
            assert report["options"].pop("dims") == [int(L) for L in dims.split("x")]
            reports.append(report)
        assert reports[0] == reports[1] == reports[2]
    out = run_cli("algebra", *D5_FLAGS, "--dims", "1x1x1")
    assert out.returncode == 2
    assert out.stdout == ""
    assert "sizes >= 2" in out.stderr


def test_logical_runs_one_census_tier_search_per_normal(monkeypatch, capsys):
    # one batched evaluation decides every normal's tier search
    calls = []
    verdicts = logical._census_verdicts

    def counted(torus):
        calls.append(torus.dims)
        return verdicts(torus)

    monkeypatch.setattr(logical, "_census_verdicts", counted)
    assert cli.main(["logical", *D5_FLAGS[:-1], "A", "--dims", "3x4x4"]) == 0
    assert json.loads(capsys.readouterr().out)["results"]["census"]["normal_x"]["count"] == 4
    assert calls == [(3, 4, 4)]


def test_logical_identity_bit_matches_the_product(capsys):
    # the command reads product_of_all_generators_identity off the sum of
    # the eight labels; the product of every generator on the torus is the
    # oracle, for seeded codes in both parities and the F = 0 code
    rng = random.Random(211)
    cases = [(random_code(rng, rng.choice((2, 3, 5, 7, 11, 13)), parity),
              tuple(rng.randint(2, 5) for _ in range(3)))
             for _ in range(12) for parity in "SA"]
    cases.append((CodeParams(5, (1, 0), (0, 1), (1, 1), (3, 3), "S"), (3, 3, 3)))
    seen = set()
    for code, dims in cases:
        argv = ["logical", "--p", str(code.p), "--parity", code.parity,
                "--dims", "x".join(map(str, dims))]
        for name, (x, z) in zip(("alpha", "beta", "gamma", "delta"), code.pairs):
            argv += [f"--{name}", f"{x},{z}"]
        cli.main(argv)
        bit = json.loads(capsys.readouterr().out)["results"]["product_of_all_generators_identity"]
        assert bit == product_of_all_generators(TorusCode(code, dims)).is_identity(), code
        seen.add((code.parity, bit))
    assert seen == {("S", True), ("S", False), ("A", True)}


def test_in_process_calls_match_fresh_interpreters(capsys):
    # the parser and the commutation-law verdict are built once per
    # process; a sequence of calls in one process reports what fresh
    # interpreters do, usage errors and --lmax included
    sequence = [
        ("check", *D5_FLAGS),
        ("strings", *D5_FLAGS, "--wmax", "2", "--lmax", "9"),
        ("check", "--p", "5", "--alpha", "1,0"),
        ("strings", *D5_FLAGS, "--wmax", "2"),
        ("algebra", *D5_FLAGS[:-1], "A", "--r", "2"),
        ("algebra", "--p", "3", "--alpha", "1,0", "--beta", "0,1",
         "--gamma", "1,1", "--delta", "1,2"),
        ("logical", *D5_FLAGS, "--dims", "3x4x2"),
        ("algebra", *D5_FLAGS, "--dims", "1x1x1"),
        ("check", *D5_FLAGS[:-1], "A"),
    ]
    for argv in sequence:
        try:
            rc = cli.main(list(argv))
        except SystemExit as e:
            rc = e.code
        out = capsys.readouterr().out
        fresh = run_cli(*argv)
        assert (rc, out) == (fresh.returncode, fresh.stdout), argv
    assert cli.build_parser() is cli.build_parser()


def test_each_report_is_one_write(monkeypatch):
    # the whole report, newline included, goes to stdout in one write
    writes = []

    class Recording(io.StringIO):
        def write(self, text):
            writes.append(text)
            return super().write(text)

    for argv in (("strings", *D5_FLAGS, "--wmax", "2"), ("check", *P2_FLAGS)):
        writes.clear()
        monkeypatch.setattr(sys, "stdout", Recording())
        cli.main(list(argv))
        assert len(writes) == 1 and writes[0].endswith("}\n"), argv
        assert json.loads(writes[0])["command"] == argv[0]


def random_report(rng: random.Random, depth: int = 0):
    """A random nested value of the types a report holds."""
    kind = rng.randrange(9 if depth < 4 else 6)
    if kind == 0:
        return rng.choice(["", "a", 'q"', "back\\", "tab\t", "é∑", "😀", "\x00", "null"])
    if kind == 1:
        return rng.choice([0, 1, -1, 7, -(2 ** 63), 2 ** 64, 10 ** 30])
    if kind == 2:
        return rng.choice([True, False])
    if kind == 3:
        return None
    if kind in (4, 5):
        return rng.randrange(-50, 50)
    items = [random_report(rng, depth + 1) for _ in range(rng.randrange(5))]
    if kind == 6:
        return items
    if kind == 7:
        return tuple(items)
    keys = rng.sample(["a", "B", "z", "", "é", 'k"', "\n", "10", "9", "true"], len(items))
    return dict(zip(keys, items))


def test_report_text_matches_the_json_module():
    values = [
        {}, [], (), {"a": {}, "b": [], "c": [[]], "d": [{}], "e": ({},)},
        [[[]], {"": {"": []}}], (1, (2, ()), [3]),
        ['"quoted"', "back\\slash", "tab\tnew\nline\r\x00\x1f\x7f", "non-ASCII é ∑ 😀",
         "  ", ""],
        {'key "q"': 1, "back\\": 2, "\n": 3, "é": 4, "Z": 5, "a": 6, "": 7},
        [-1, 0, -(2 ** 63) - 1, 2 ** 63, 2 ** 64 + 1, -(10 ** 30)],
        [True, 1, False, 0, None], {"t": True, "one": 1, "f": False, "zero": 0, "n": None},
        [1, True, 0, False], (False, 0, True, 1), {"a": 1, "b": True, "c": 0, "d": False},
        [[True, 1], {"x": False, "y": 0}, (0, False, None, "0", "false")],
        "bare", 7, True, False, None,
    ]
    # each scalar type as a dict value and as a list item, 1-3 levels down,
    # beside empty and nonempty containers
    for leaf in ("s", 'q"é', "", 0, -3, 2 ** 70, True, False, None):
        for depth in (1, 2, 3):
            as_value = {"a": [], "k": leaf, "m": {"n": 1}, "z": {}}
            as_item = [[], leaf, {"n": leaf}, (), [leaf]]
            for _ in range(depth - 1):
                as_value = {"w": as_value, "x": [as_value]}
                as_item = [as_item, {"y": as_item}]
            values += [as_value, as_item]
    rng = random.Random(28)
    values += [random_report(rng) for _ in range(500)]
    for value in values:
        assert cli._dumps(value) == json.dumps(value, sort_keys=True, indent=2), value
    for bad in (0.0, 1.5, np.int64(3), np.bool_(True), {1, 2}, frozenset(), {1: "a"},
                {"a": 1, 2: "b"}, b"bytes"):
        for value in (bad, [bad], {"k": [1, bad]}, [1, bad], ("s", None, bad),
                      {"k": bad}, {"a": True, "k": bad}):
            with pytest.raises(TypeError):
                cli._dumps(value)


def test_malformed_pairs_and_dims_name_the_expected_form(capsys):
    # a value that does not parse names the form it should take, not the
    # private function that parsed it
    cases = {
        ("check", "--alpha", "1,"): "qupitcube check: error: argument --alpha: "
                                    "expected 'a,b', got '1,'",
        ("logical", *D5_FLAGS, "--dims", "4xax3"): "qupitcube logical: error: argument "
                                                   "--dims: expected 'LxLyLz' like 4x4x3, "
                                                   "got '4xax3'",
    }
    for argv, message in cases.items():
        with pytest.raises(SystemExit) as exc:
            cli.main(list(argv))
        err = capsys.readouterr().err
        assert exc.value.code == 2 and err.endswith(message + "\n"), err
    for flag, text in (("--beta", "a,1"), ("--gamma", "1"), ("--delta", ",")):
        with pytest.raises(SystemExit):
            cli.main(["check", "--p", "5", flag, text])
        assert f"error: argument {flag}: expected 'a,b', got '{text}'" in capsys.readouterr().err
    for text in ("4x4", "4,x,3", "1,2,", "x", "2x2x2x2"):
        with pytest.raises(SystemExit):
            cli.main(["algebra", *D5_FLAGS, "--dims", text])
        assert f"--dims: expected 'LxLyLz' like 4x4x3, got '{text}'" in capsys.readouterr().err


VALID_ARGV = {
    "check": ("check", *P2_FLAGS),
    "strings": ("strings", *P2_FLAGS, "--wmax", "1"),
    "classify": ("classify", "--p", "3"),
    "logical": ("logical", *D5_FLAGS, "--dims", "2x2x3"),
    "algebra": ("algebra", "--p", "3", "--alpha", "1,0", "--beta", "0,1",
                "--gamma", "1,1", "--delta", "1,2", "--r", "2"),
    "scan": ("scan", "--p", "3", "--oracle-wmax", "1"),
}


def dispatch_corpus(rng: random.Random, params: dict) -> list[list[str]]:
    """Valid and invalid command lines over all six subcommands."""
    corpus = [[], ["-h"], ["--help"], ["bogus"], ["chec", "--p", "3"], ["--"],
              ["--", "check", *P2_FLAGS], ["-h", "check"], ["--schema-version", "2", "scan",
              "--p", "2"], ["--p", "3", "classify"], ["scan"], ["classify", "--p", "3", "--wmax", "2"],
              ["scan", "--p", "2", "--frobnicate"], ["check", "--p", "5"],
              ["logical", *D5_FLAGS], ["classify", "--p", "3", "--parity", "X"],
              ["strings", *P2_FLAGS, "--kind", "diagonal"], ["scan", "--p", "five"],
              ["check", "--params"], ["check", "--al", "1,0"], ["check", "--pa", "x"],
              ["classify", "--p=3", "--parity=A"], ["classify", "--p", "3", "--", "stray"],
              ["logical", *D5_FLAGS, "--dims", "2x2x2", "--ktable", "1"],
              ["check", "--p", "4", *P2_FLAGS[2:]], ["classify", "--p", "23"]]
    corpus += [[name, flag] for name in VALID_ARGV for flag in ("-h", "--help")]
    corpus += [["check", "--params", path] for path in params.values()]
    corpus += [["strings", "--params", params["good"], "--parity", "A", "--wmax", "1"],
               ["logical", "--params", params["good"], "--dims", "2x2x2", "--ktable", "3"],
               ["algebra", "--params", params["short"], "--r", "2"]]
    bad_values = ["five", "1,", "4xax3", "-", "", "1.5", "3x3", "X", "--p"]
    extras = [["--frobnicate"], ["--workers", "2"], ["stray"], ["-h"], ["--help"],
              ["--wmax", "2"], ["--dims", "2x2x2"], ["--parity", "Q"], ["--p"],
              ["--kind", "flat"], ["--ktable", "1"], ["--oracle-wmax", "0"],
              ["--params", params["missing"]], ["--params", params["not-json"]]]
    for _ in range(160):
        argv = list(VALID_ARGV[rng.choice(sorted(VALID_ARGV))])
        for _ in range(rng.randrange(1, 3)):
            move = rng.randrange(6) if len(argv) > 1 else 1
            if move == 0:  # drop an option and its value
                i = rng.randrange(1, len(argv))
                del argv[i:i + (2 if argv[i].startswith("--") and i + 1 < len(argv)
                                 and not argv[i + 1].startswith("--") else 1)]
            elif move == 1:  # insert an option, known to some subcommand or not
                i = rng.randrange(1, len(argv) + 1)
                argv[i:i] = rng.choice(extras)
            elif move == 2:  # spoil a value
                values = [i for i in range(2, len(argv)) if not argv[i].startswith("--")]
                if values:
                    argv[rng.choice(values)] = rng.choice(bad_values)
            elif move == 3:  # rename or drop the subcommand
                argv[0] = rng.choice(["bogus", "Check", "scan", "-h", "--help", "--frobnicate"])
                if rng.random() < 0.2:
                    argv = argv[1:]
            elif move == 4:  # a top-level option before the subcommand
                argv[:0] = rng.choice([["--schema-version", "2"], ["-h"], ["--"], ["-x"]])
            else:  # move an option pair to the end
                i = rng.randrange(1, len(argv))
                argv += argv[i:i + 2]
                del argv[i:i + 2]
        corpus.append(argv)
    return corpus


def outcome(run, argv, capsys):
    try:
        rc = run(argv)
    except SystemExit as e:
        rc = e.code
    out, err = capsys.readouterr()
    return rc, out, err


def full_parse(argv):
    """The command line through both argparse passes, then the command,
    whose errors are usage errors of its subcommand."""
    parser = cli.build_parser()
    args = parser.parse_args(argv)
    sub = parser.subcommands[args.command]
    try:
        return cli.COMMANDS[args.command](args, sub)
    except (ValueError, OSError) as e:
        sub.error(str(e))


def params_files(tmp_path) -> dict:
    good = d5_code("S").as_dict()
    contents = {"good": json.dumps(good), "short": json.dumps(dict(good, alpha=[1])),
                "list": json.dumps([good]), "not-json": "{p: 5"}
    paths = {name: tmp_path / f"{name}.json" for name in contents}
    for name, text in contents.items():
        paths[name].write_text(text)
    paths["missing"] = tmp_path / "missing.json"
    return {name: str(path) for name, path in paths.items()}


def test_one_parse_dispatch_matches_the_full_parser(tmp_path, capsys):
    # exit code, stdout and stderr of each command line equal what the full
    # argparse pass and then the command give, usage errors and help included
    corpus = dispatch_corpus(random.Random(28), params_files(tmp_path))
    seen = set()
    for argv in corpus:
        got = outcome(cli.main, list(argv), capsys)
        assert got == outcome(full_parse, list(argv), capsys), argv
        rc, out, err = got
        seen.add(rc)
        for kind in ("unrecognized arguments", "invalid choice", "the following arguments are "
                     "required", "expected one argument", "expected 'a,b'", "expected 'LxLyLz'",
                     "invalid int value", "No such file", "need --params", "must be"):
            if kind in err:
                seen.add(kind)
        if rc == 0 and out.startswith("usage: qupitcube"):
            seen.add("help " + out.split("\n")[0].split()[2])
    assert len(corpus) >= 200
    assert {0, 2, "unrecognized arguments", "invalid choice", "expected one argument",
            "the following arguments are required", "expected 'a,b'", "expected 'LxLyLz'",
            "invalid int value", "No such file", "need --params", "must be",
            "help [-h]"} <= seen, seen
    assert {f"help {name}" for name in VALID_ARGV} <= seen, seen


def test_a_command_line_is_parsed_once(monkeypatch, capsys):
    # one argparse pass, by the subcommand's parser; both passes of the full
    # parser would read the subcommand's arguments twice
    calls = []
    parse_known_args = argparse.ArgumentParser.parse_known_args

    def counting(self, *args, **kwargs):
        calls.append(self.prog)
        return parse_known_args(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counting)
    for name, argv in VALID_ARGV.items():
        calls.clear()
        assert cli.main(list(argv)) == 0
        assert json.loads(capsys.readouterr().out)["command"] == name
        assert calls == [f"qupitcube {name}"], (name, calls)


def test_errors_found_after_parsing_name_the_subcommand(capsys):
    # a value argparse accepts but the command refuses is a usage error of
    # the subcommand, reported as argparse reports its own; leftover
    # arguments keep the top-level usage line
    cases = {
        ("check", "--p", "4", *P2_FLAGS[2:]): "modulus must be prime, got 4 = 2 * 2",
        ("logical", *D5_FLAGS, "--dims", "2x2x2", "--ktable", "1"):
            "--ktable must be 0 (off) or >= 2, got 1",
    }
    subcommands = cli.build_parser().subcommands
    for argv, message in cases.items():
        with pytest.raises(SystemExit) as exc:
            cli.main(list(argv))
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert err.startswith(f"usage: qupitcube {argv[0]} [-h] [--params FILE] [--p P]"), err
        assert err == (subcommands[argv[0]].format_usage()
                       + f"qupitcube {argv[0]}: error: {message}\n"), err
    with pytest.raises(SystemExit):
        cli.main(["scan", "--p", "2", "--frobnicate"])
    assert capsys.readouterr().err == (
        "usage: qupitcube [-h] {check,strings,classify,logical,algebra,scan} ...\n"
        "qupitcube: error: unrecognized arguments: --frobnicate\n")


def test_classify_and_scan_refuse_moduli_beyond_the_bound():
    assert MAX_CLASSIFY_MODULUS == 19
    for command in ("classify", "scan"):
        start = time.perf_counter()
        out = run_cli(command, "--p", "23")
        assert time.perf_counter() - start < 5
        assert out.returncode == 2
        assert out.stdout == ""
        assert "p <= 19" in out.stderr


def test_classify_does_not_load_numpy_ma():
    # numpy.ma, which np.unique imports lazily, adds half a megabyte to a run
    script = (
        "import contextlib, io, sys\n"
        "import qupitcube.cli as cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(['classify', '--p', '5']) == 0\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


def test_strings_and_scan_refuse_scans_beyond_the_bounds(monkeypatch, capsys):
    assert (MAX_STRIP_WIDTH, MAX_STRIP_LENGTH) == (16, 64)
    refused = {
        ("strings", *D5_FLAGS, "--wmax", "17"): "width <= 16",
        ("strings", *D5_FLAGS, "--wmax", "1", "--lmax", "65"): "length <= 64",
        ("scan", "--p", "5", "--oracle-wmax", "17"): "width <= 16",
    }
    for argv, message in refused.items():
        start = time.perf_counter()
        out = run_cli(*argv)
        assert time.perf_counter() - start < 5
        assert out.returncode == 2
        assert out.stdout == ""
        assert message in out.stderr
    # refused before any elimination
    calls = []
    monkeypatch.setattr(fp, "mat_rref", lambda *a, **k: calls.append(a))
    for argv, message in refused.items():
        with pytest.raises(SystemExit) as exc:
            cli.main(list(argv))
        assert exc.value.code == 2 and calls == []
        assert message in capsys.readouterr().err
    for width, l_max, message in ((17, None, "width <= 16"), (1, 65, "length <= 64")):
        with pytest.raises(ValueError, match=message):
            scan_width(d5_code(), width, l_max=l_max)
    assert calls == []


def test_empty_scans_and_tables_are_refused(monkeypatch, capsys):
    # a scan of no width or no length would report "no string" without
    # solving anything; a k table needs sides 2..LMAX, and 0 means off
    refused = {
        ("strings", *D5_FLAGS, "--wmax", "0", "--expect-no-string"): "width >= 1",
        ("strings", *D5_FLAGS, "--wmax", "-3"): "width >= 1",
        ("strings", *D5_FLAGS, "--wmax", "1", "--lmax", "1"): "length >= 2",
        ("scan", "--p", "5", "--oracle-wmax", "0"): "width >= 1",
        ("logical", *D5_FLAGS, "--dims", "2x2x2", "--ktable", "1"): "--ktable must be",
        ("logical", *D5_FLAGS, "--dims", "2x2x2", "--ktable", "-2"): "--ktable must be",
    }
    calls = []
    monkeypatch.setattr(fp, "mat_rref", lambda *a, **k: calls.append(a))
    for argv, message in refused.items():
        with pytest.raises(SystemExit) as exc:
            cli.main(list(argv))
        assert exc.value.code == 2 and calls == [], argv
        err = capsys.readouterr()
        assert err.out == "" and message in err.err, argv
    for width, l_max in ((0, None), (1, 1)):
        with pytest.raises(ValueError, match=">= "):
            scan_width(d5_code(), width, l_max=l_max)
    monkeypatch.undo()
    out = run_cli("strings", *D5_FLAGS, "--wmax", "0", "--expect-no-string")
    assert (out.returncode, out.stdout) == (2, "")
    assert cli.main(["logical", *D5_FLAGS, "--dims", "2x2x2", "--ktable", "0"]) == 0
    assert "k_table" not in json.loads(capsys.readouterr().out)["results"]


def test_algebra_refuses_moduli_beyond_the_bound(monkeypatch, capsys):
    assert MAX_ALGEBRA_MODULUS == 31
    argv = ("algebra", "--p", "37", *D5_FLAGS[2:])
    start = time.perf_counter()
    out = run_cli(*argv)
    assert time.perf_counter() - start < 5
    assert out.returncode == 2
    assert out.stdout == ""
    assert "p <= 31" in out.stderr
    # refused before any monomial product is formed
    calls = []
    monkeypatch.setattr(algebra, "_monomial_mul", lambda *a: calls.append(a))
    with pytest.raises(SystemExit) as exc:
        cli.main(list(argv))
    assert exc.value.code == 2 and calls == []
    assert "p <= 31" in capsys.readouterr().err


def test_algebra_runs_at_the_modulus_bound():
    # the projector checks count all p^2 products in one integer array,
    # so a fresh interpreter decides p = 31 in well under two seconds
    assert MAX_ALGEBRA_MODULUS == 31
    start = time.perf_counter()
    out = run_cli("algebra", "--p", "31", *D5_FLAGS[2:-1], "A", "--r", "2")
    assert time.perf_counter() - start < 2
    assert out.returncode == 0
    report = json.loads(out.stdout)
    assert report["status"] == "ok"
    assert report["results"]["inversion_action"]["expected_r"] == 29


def test_algebra_allow_large_is_a_no_op():
    argv = ("algebra", *D5_FLAGS[:-1], "A", "--dims", "2x2x2")
    plain = run_cli(*argv)
    flagged = run_cli(*argv, "--allow-large")
    assert plain.returncode == flagged.returncode == 0
    assert plain.stdout == flagged.stdout


def test_an_algebra_command_builds_one_power_table(monkeypatch, capsys):
    # the projector and inversion checks of one command share one table
    calls = []
    powers = algebra._powers

    def counted(s):
        calls.append(s.p)
        return powers(s)

    monkeypatch.setattr(algebra, "_powers", counted)
    for argv in (VALID_ARGV["algebra"], ("algebra", *D5_FLAGS[:-1], "A", "--r", "4")):
        calls.clear()
        assert cli.main(list(argv)) == 0
        assert json.loads(capsys.readouterr().out)["status"] == "ok"
        assert calls == [int(argv[2])]


def test_algebra_subcommand():
    out = run_cli("algebra", "--p", "3", "--alpha", "1,0", "--beta", "0,1",
                  "--gamma", "1,1", "--delta", "1,2", "--parity", "A")
    assert out.returncode == 0
    report = json.loads(out.stdout)
    assert report["results"]["commutation_law"] is True
    assert report["results"]["projectors"] == {
        "idempotent": True, "orthogonal": True, "complete": True}
    assert report["results"]["inversion_action"]["matches"] is True
    assert report["results"]["inversion_action"]["expected_r"] == 2


def test_scan_p3_summary():
    out = run_cli("scan", "--p", "3", "--oracle-wmax", "1")
    assert out.returncode == 0
    report = json.loads(out.stdout)
    assert report["results"]["orbit_count"] == 2
    assert report["results"]["theorem1_scan"]["literal_pass"] == []
    assert len(report["results"]["theorem1_scan"]["cond12_oracle_pass"]) == 2

"""Byte-identical reports from the linear-algebra engine.

The `--json --no-timing` stdout and the exit code of the 23 algebra
operations (shear-check, antipode and integrals on the six fixtures, and
reconstruct on the five that round-trip) are pinned by sha256, once over Q
through the built-in fixtures and once over Q[x]/(x^2+x+1) through
bialgebra and family JSON files.  The directory of those files is replaced
by a fixed placeholder before hashing.  A change to the linear algebra may
make these reports faster, never different.  Reconstruct on the bialgebra
files over Q[x]/(x^2+x+1) is checked by its verdict and Hopf flags.
"""

import hashlib
import io
import json
import os
from contextlib import redirect_stdout

import pytest

from hopfsmith import cli
from hopfsmith.bialgebra import bialgebra_to_json
from hopfsmith.field import number_field_from_text
from hopfsmith.fixtures import standard_fixtures

FIXTURES = ("QZ2", "QS3", "QZ3dual", "QM", "sweedler", "superline")
RECONSTRUCT = ("QZ2", "QS3", "QZ3dual", "sweedler", "QM")
OPS = [(cmd, name) for cmd in ("shear-check", "antipode", "integrals")
       for name in FIXTURES] + [("reconstruct", name) for name in RECONSTRUCT]
PLACEHOLDER = "<inputs>"


def digest(argv, directory=None) -> str:
    """sha256 of the exit code and the stdout of one CLI run."""
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(["--json", "--no-timing"] + argv)
    text = out.getvalue()
    if directory is not None:
        text = text.replace(directory, PLACEHOLDER)
    return hashlib.sha256(f"{code}\n{text}".encode()).hexdigest()


def write_ext_inputs(directory: str):
    """Each fixture over Q[x]/(x^2+x+1) as bialgebra JSON, and a family JSON
    holding its regular comodule."""
    F = number_field_from_text("x^2+x+1")
    paths, families = {}, {}
    for name, B in standard_fixtures(F).items():
        doc = bialgebra_to_json(B)
        paths[name] = os.path.join(directory, f"{name}.json")
        with open(paths[name], "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        rho = [[F.show(B.delta[i, j]) for j in range(B.n)]
               for i in range(B.n * B.n)]
        families[name] = os.path.join(directory, f"{name}.family.json")
        with open(families[name], "w", encoding="utf-8") as fh:
            json.dump({"bialgebra": doc, "depth": 2,
                       "comodules": [{"dim": B.n, "rho": rho}]}, fh)
    return paths, families


@pytest.fixture(scope="module")
def ext_inputs(tmp_path_factory):
    directory = str(tmp_path_factory.mktemp("ext"))
    return (directory,) + write_ext_inputs(directory)


GOLDEN_Q = {
    "shear-check QZ2":
        "d15a29469a374d798e402c372091a660c14c66f30e3d76d0b86ffd327c28234c",
    "shear-check QS3":
        "48c3a8c060d01f491174f8eb47baa28e372653db1a0da08120f95411abc06c1f",
    "shear-check QZ3dual":
        "d2be5e7bc8de86910fe7a70360303ffc10568c76af50582f65e06915f888f7f7",
    "shear-check QM":
        "130336ddb128b56b8e8565a7199a094e6947c679a05b95dd06053c1217c8d02b",
    "shear-check sweedler":
        "5dbb0e3054ef3c1e7296b7fef60bf59f445f2c035d37401a3e24a8258b9c9119",
    "shear-check superline":
        "e9413c7edd0a6da8a7a37791ab1bac768fb598b2472253910cc9f45a542dcb22",
    "antipode QZ2":
        "470261d8931a35219ea7aa2c7b29c795425bc8b464a5bfcc29f90abe29525a31",
    "antipode QS3":
        "4378b265b899c7d83daaf54f5f1e5d283a54895695f850b74961ad7c95a94f32",
    "antipode QZ3dual":
        "142e0905aecea5ecdc34c9446d455f5b17f0797eee7fbc0a784ecd5bec6c5257",
    "antipode QM":
        "8e039ce53517d5752199963beb77a3d705e36be2a4d8d6ba5b2b01a858b3996b",
    "antipode sweedler":
        "32aa76a3c4aae5ba7d4ca09c31cda0935fd91279573f9dd52f725a0d8e3854fa",
    "antipode superline":
        "e0f0bf298c300fe09956a25f04222a4f2235163e139e03f261d5442f14f875e4",
    "integrals QZ2":
        "1a933450977947fbbb022f7ae32d6ff9b4ae58c481836001c8e8ab2139f64323",
    "integrals QS3":
        "efbcd70ffff81aceff2f82a64a5d05dc94bb2406dc87da1c22c4535737a1d740",
    "integrals QZ3dual":
        "e568ca229dac04520f2c8e696f88c4dd4968bb96a85a0bb8ad1050990f9dde38",
    "integrals QM":
        "64836da3d2b0dd930d0996800eae5ab4578e9267494920409a6aa938ef40b261",
    "integrals sweedler":
        "3192029ff406d8d93eaa310e4e8c0ab19f263132a4d0a60878ac5db8cb826a16",
    "integrals superline":
        "d9ca0cf4e8497e5a49a3d82498700e220685f7f5a082128214aa94d30ea208be",
    "reconstruct QZ2":
        "70c083e197330805b8f458f15f92b9fa88b951a4e5fbf1842f4a4c2a7ddf7d0c",
    "reconstruct QS3":
        "985822ae0f48cc7899e672a16c26db9e111436994f42dfaa5a407184e6e75447",
    "reconstruct QZ3dual":
        "5966e2dba2c0ce6f353cc4b7131eaf973357d978727d6f98fa10d19f5d2bdb21",
    "reconstruct sweedler":
        "92070cdfc1670dd1edb59af5e086cab506c015f7678791ebc7b032334b985dde",
    "reconstruct QM":
        "02851b49a50e032105da419dfaf8967645e466ad2e079665ef96e54fcbc34bb4",
}

GOLDEN_EXT = {
    "shear-check QZ2":
        "8ede20817ae64befa611ca5dee3c4e59c5f8ca44978c869daa37df2108d3a305",
    "shear-check QS3":
        "151b6afc9fec7096da6937a9d3beb08e1e172c806e69a0ec00fcbbe0efc8b924",
    "shear-check QZ3dual":
        "7b0980ad544d0acf299d04d3dba010048a0f14eceaf59f76877dd522377e8b9e",
    "shear-check QM":
        "b6e4b485fc93334f553079c7101d17183d6aad9639445006d5faf6da08d1e608",
    "shear-check sweedler":
        "3676ab204b2932bffe7db7418d716286013251149dd17431aa4fb47960645547",
    "shear-check superline":
        "e6c992a93a3a5d54db69f25ba4fe61f8437981c0c50ea88d30404a4e56f7b2f3",
    "antipode QZ2":
        "ec3e4d0cc37783b97ae80a24c44829971616059176a881c2dcd1fd6d393e18b2",
    "antipode QS3":
        "289e632451a757092a42788a08837142a43e4770476e9158b1dc5120d86a152b",
    "antipode QZ3dual":
        "c3d598872dc186422dae22d2f20a7110ae24611070f4e9225fb101624cf95c9d",
    "antipode QM":
        "dd0351de5cc726f0209b00ed9d040b281c15d9d8b600ab8412f39ed8e30d4112",
    "antipode sweedler":
        "31d854b51e5ea7a7860fa84d876d2ed4cc9d4203c3e4e4b8aafb45e1cec4e726",
    "antipode superline":
        "430e11a87de7bc0c31203939e0f4fd59ac57aeb57c299c99772572c235421a11",
    "integrals QZ2":
        "bdb51f1ddd0981c414c2368348fb3aa1346eee26d7da37a50fc99ed1d2f2ad10",
    "integrals QS3":
        "1624686f935b0c0c4fd03bd06cf50b59630dc2c7dd1145c18ee97ab92416173f",
    "integrals QZ3dual":
        "1dfabfcf7bbaacebf225aace650dbdd349c8f766594a6801c5c240d8308e742a",
    "integrals QM":
        "57cec74477649e3e54a17eb7ee18fbd91feb1f0072408f7ba18ec7bc2134e7df",
    "integrals sweedler":
        "905f36be840ed57e84b1e6f65d0335c3d8ac72a14fea47ab52d6d125b09a8e50",
    "integrals superline":
        "16d1125d96539136c28e710ea347fdbc9fb9704a7bb8c01f86626a67b263baa1",
    "reconstruct QZ2":
        "630913b50e0bdd3bc1c8aaebd4b5f31311c760024e09cea80d2e8364c0a309ba",
    "reconstruct QS3":
        "a7e184769c98c69766e61a41b03979c9eba5ff2dcd7ecd1cbec67dc2259ed699",
    "reconstruct QZ3dual":
        "692202427b063e7cfe90819ad7f515b871e149aac5e0f1c10a81f8969aa4e1a9",
    "reconstruct sweedler":
        "25718e1c759740ce8b75f4c51cb22cf24637d7a31c0cbf1a4017489b90ac02e9",
    "reconstruct QM":
        "359f5396de776e9348a3fa6c5b13258ae8e47b2f93da8eea42403ae1fb8521c9",
}


@pytest.mark.parametrize("cmd,name", OPS, ids=[f"{c}-{n}" for c, n in OPS])
def test_report_over_q(cmd, name):
    assert digest([cmd, name]) == GOLDEN_Q[f"{cmd} {name}"]


@pytest.mark.parametrize("cmd,name", OPS, ids=[f"{c}-{n}" for c, n in OPS])
def test_report_over_extension(cmd, name, ext_inputs):
    directory, paths, families = ext_inputs
    path = families[name] if cmd == "reconstruct" else paths[name]
    assert digest([cmd, path], directory) == GOLDEN_EXT[f"{cmd} {name}"]


@pytest.mark.parametrize("name", RECONSTRUCT)
def test_reconstruct_of_a_bialgebra_file_over_extension(name, ext_inputs):
    """The round trip of each fixture read from its bialgebra file over
    Q[x]/(x^2+x+1) is an isomorphism whose two Hopf flags agree; QM is the
    one of them that is not Hopf."""
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(["--json", "--no-timing", "reconstruct",
                         ext_inputs[1][name]])
    doc, hopf = json.loads(out.getvalue()), name != "QM"
    assert (code, doc["verdict"], doc["hopf"]) == (
        0, "isomorphism", [hopf, hopf])

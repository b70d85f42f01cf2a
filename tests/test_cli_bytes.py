"""Exact bytes of CLI output documents.

Each case runs one subcommand in-process and compares the sha256 of the
written document, and the exit status, with a digest recorded from the
reference implementation.  Any change to a verdict, a certificate (pieces,
pairings, surgeries, claimed profile) or the JSON layout changes a digest;
a deliberate format change must re-record the digests and be noted in
CHANGES.md.
"""

import hashlib
import json
from pathlib import Path

import pytest

from resflat.cli import main


def _stratum(genus, zeros, poles=(), simple=0):
    return {"genus": genus, "zeros": list(zeros), "poles": list(poles), "simple_poles": simple}


def _gauss(re, im):
    return {"re": re, "im": im}


# (name, argv before the input path, input document, exit status, sha256)
CASES = [
    (
        "witness-zero-residue-chain",
        ["witness"],
        {"stratum": _stratum(0, [1, 1], [2, 2]), "residues": [0, 0]},
        0,
        "7d192e8b72fac142c6c029954bf79651aa54ced98c25e7815a074da95ab4fb14",
    ),
    (
        "witness-residual-polygon",
        ["witness"],
        {
            "stratum": _stratum(0, [2], [], 4),
            "residues": [_gauss(1, 0), _gauss(0, 1), _gauss(-1, 0), _gauss(0, -1)],
        },
        0,
        "a0fba7cc0c06086cc7de1f8c8675e94c92c4b279344191e77e3624101c12709e",
    ),
    (
        "witness-collinear-anchor-chain",
        ["witness"],
        {"stratum": _stratum(0, [2], [2], 2), "residues": [1, 2, -3]},
        0,
        "014ef9694f2e3b226d724ccbfbc1785e582d3f5bd5dee2a6490596e2a821acb7",
    ),
    (
        "witness-connection-graph",
        ["witness"],
        {"stratum": _stratum(0, [5], [], 7), "residues": [3, 1, 1, 1, -2, -2, -2]},
        0,
        "b10250be60e5f0b1434ed1d7d680817f03bcc4ba391729614e996ee8814eb138",
    ),
    (
        "witness-blow-up-of-single-zero",
        ["witness"],
        {"stratum": _stratum(0, [1, 1], [], 4), "residues": [3, -1, -1, -1]},
        0,
        "1e47e22b0f0e4ab94de19563fe6bf797496bea71d9cddf6e98a5971786d2f125",
    ),
    (
        "witness-stable-tree",
        ["witness"],
        {"stratum": _stratum(0, [2, 2], [], 6), "residues": [2, 1, 1, -1, -1, -2]},
        0,
        "08527a9507d8ea3aadc094972fa8a93ba35fd084a8bcaed58cbff4f9028b3358",
    ),
    (
        "witness-genus-reduction",
        ["witness"],
        {"stratum": _stratum(1, [3], [2], 1), "residues": [[1, 2], [-1, 2]]},
        0,
        "7d7866f86023db958fe212a099d6c7192c952314b3e68076f61141e7712563ab",
    ),
    (
        "witness-genus-2-nonzero-residues",
        ["witness"],
        {
            "stratum": _stratum(2, [3, 3], [2], 2),
            "residues": [_gauss(1, 1), 1, _gauss(-2, -1)],
        },
        0,
        "4f91570cc1637d012c4c23fe94e5c861e54fbbf55a78ca805aca2e9bdf9a277d",
    ),
    (
        "witness-genus-2-simple-poles",
        ["witness"],
        {"stratum": _stratum(2, [2, 2], [], 2), "residues": [1, -1]},
        0,
        "7c16065a42206e7ee89eef9437f548cc35af4942854ed7d7be50149ad067cdb7",
    ),
    (
        "witness-genus-1-rotation",
        ["witness"],
        {"stratum": _stratum(1, [4], [2, 2]), "residues": [0, 0], "rotation": 2},
        0,
        "7911b419eda851a93a41b1f4d07f542a2006c470ddd6b12bb3c48623bfe13f7d",
    ),
    (
        "witness-marked-point",
        ["witness"],
        {"stratum": _stratum(0, [0], [], 2), "residues": [1, -1]},
        0,
        "244d4e470831c69ac36c9db8195f9d88fb0c0dc79a664912deabc69df6f3fdc6",
    ),
    (
        "witness-residual-polygon-trivial-part",
        ["witness"],
        {"stratum": _stratum(0, [4], [2, 2], 2), "residues": [0, 1, _gauss(0, 1), _gauss(-1, -1)]},
        0,
        "186b07b26b2de349328a8ef03dcdf7e3289db0eaabea3efeecb9262cdad03258",
    ),
    (
        "witness-anchor-chain-down-imaginary-trivial-part",
        ["witness"],
        {
            "stratum": _stratum(0, [5], [2, 3], 2),
            "residues": [_gauss(0, -2), 0, _gauss(0, 1), _gauss(0, 1)],
        },
        0,
        "af58261d712d3c5f08858c749ca073a454568ac3958ffe2a00d11fad71c6d2a8",
    ),
    (
        "witness-anchor-chain-two-zeros",
        ["witness"],
        {"stratum": _stratum(0, [1, 1], [2], 2), "residues": [1, 2, -3]},
        0,
        "92129596af10beea555846a358f8110e6cb77a46f7a3ee0fe1fddb2888f6047f",
    ),
    (
        "witness-genus-1-zero-residues-two-zeros",
        ["witness"],
        {"stratum": _stratum(1, [2, 2], [2, 2]), "residues": [0, 0]},
        0,
        "927629b13fa8699f2be56eb1c89895db0cf16d8a84bf346cddbc9f0b8a264d2e",
    ),
    (
        "witness-genus-3-holomorphic",
        ["witness"],
        {"stratum": _stratum(3, [2, 2]), "residues": []},
        0,
        "022d7239b1974fcea665aae2e29aa95656488e8345a3512b6680d9f99840d5ce",
    ),
    (
        # Two nested blow-ups, [1, 2] then [1, 1], both at zero 0: the bytes
        # depend on the order in which the splits are applied.
        "witness-zero-residue-nested-blow-ups",
        ["witness"],
        {"stratum": _stratum(0, [2, 1, 1, 1], [2, 2, 3]), "residues": [0, 0, 0]},
        0,
        "8d5a3af9b13e652e57917474761bfc85c02b8bfdf829df68e7a5e48b6986e912",
    ),
    (
        "witness-not-realizable",
        ["witness"],
        {"stratum": _stratum(0, [2], [2, 2]), "residues": [0, 0]},
        1,
        "78e712adfffcaf7219560436a71ff791486b8b38d0d1ac0fc96b809c2335fb8c",
    ),
    (
        "decide-excluded-ray",
        ["decide"],
        {"stratum": _stratum(0, [2], [], 4), "residues": [1, 1, -1, -1]},
        1,
        "dcf37069c57e0c59324476b12dff61d95d5676a3890bcd1f657648c4d81fbb8d",
    ),
    (
        "decide-stable-tree",
        ["decide"],
        {"stratum": _stratum(0, [2, 2], [], 6), "residues": [2, 1, 1, -1, -1, -2]},
        0,
        "4d9e6a2f48b5e733f70f6f7ff1ac8dec7faad185e62110951e397425786c5c61",
    ),
    (
        "cylinders-closed-form",
        ["cylinders"],
        {"stratum": _stratum(4, [6]), "circumferences": [1, 1, 1, 1]},
        1,
        "6e0e9bf75bd737fd51788695eeac61287a690e0651b355b734fb92f3e567b83c",
    ),
    (
        "cylinders-search",
        ["cylinders"],
        {"stratum": _stratum(4, [4, 1, 1]), "circumferences": [1, 1, 1, 1]},
        0,
        "0fac44e68e541a1fb14799d1320822563f078135734cae69d11abed8546b8f9a",
    ),
]


@pytest.mark.parametrize(
    "args, doc, code, digest", [c[1:] for c in CASES], ids=[c[0] for c in CASES]
)
def test_output_bytes_are_pinned(tmp_path, args, doc, code, digest):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out.json"
    assert main(args + [str(path), "-o", str(out)]) == code
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def _certificate(pieces, pairings, claimed=None):
    claimed = claimed or {"genus": 0, "zeros": [], "poles": []}
    return {
        "surface": {"pieces": pieces, "pairings": pairings},
        "claimed_profile": claimed,
    }


def _polygon(*edges):
    return {"kind": "polygon", "edges": list(edges)}


def _polar(order, tau, top, bottom):
    return {"kind": "polar_part", "order": order, "type": tau, "top": top, "bottom": bottom}


def _simple(*vectors):
    return {"kind": "simple_pole_part", "vectors": list(vectors)}


HALF, THIRD = [1, 2], [1, 3]
MINUS_HALF = [-1, 2]

# (name, certificate document or the name of a witness case above whose
# output is verified, exit status, sha256).  One violation document per check
# of the verifier that reads vectors, with non-integer Fractions throughout;
# both pairings of the two mismatch documents are mismatched, and each is
# reported.
VERIFY_CASES = [
    (
        "verify-profile-genus-reduction",
        "witness-genus-reduction",
        0,
        "476b8e2540b1ace43a1408f652b288f3074e7acea134f9f221aa55efcf5d1081",
    ),
    (
        "verify-profile-genus-2-nonzero-residues",
        "witness-genus-2-nonzero-residues",
        0,
        "e308c320c711755e0f9e1298362da8a6d4922765bb3dd924a75a95bce7b8e5b2",
    ),
    (
        "verify-vector-mismatch",
        _certificate(
            [
                _simple(THIRD, _gauss([1, 4], [2, 5])),
                _simple(MINUS_HALF, _gauss([-1, 4], [-3, 7])),
            ],
            [[[0, 0], [1, 0]], [[0, 1], [1, 1]]],
        ),
        1,
        "07b6b480e1b0339d3398dc1bf6821c365f904584db70c732a0237b71890f42ad",
    ),
    (
        "verify-vector-mismatch-gaussian",
        _certificate(
            [_simple(_gauss([1, 4], [2, 5]), THIRD), _simple(_gauss([-1, 4], [-3, 7]), MINUS_HALF)],
            [[[0, 0], [1, 0]], [[0, 1], [1, 1]]],
        ),
        1,
        "79a321e2757f0bdce4bd5aacf05defb772b0a2cc5f1f4773190bf702658d27fa",
    ),
    (
        "verify-polygon-open",
        _certificate([_polygon(HALF, _gauss(0, THIRD), MINUS_HALF)], []),
        1,
        "b16d5ba5f0e87600fe586a8b6fcb7331204dcafd216915acf1973e316c5678be",
    ),
    (
        "verify-polygon-winds-twice",
        _certificate(
            [_polygon(*[[2, 3], _gauss(0, [2, 3]), [-2, 3], _gauss(0, [-2, 3])] * 2)], []
        ),
        1,
        "8e0a6c72c43a3caa1855856254e1269ab5b8f38f6241f7a5e0eda128b5d6c84d",
    ),
    (
        "verify-negative-real-axis",
        _certificate([_polar(2, 1, [1], [_gauss(1, 1), MINUS_HALF])], []),
        1,
        "013d3d5c12ef1aed204caa8d17264ad9b7fc0cf6cc17ddd2f3c09378c57be80e",
    ),
    (
        "verify-top-chain-order",
        _certificate([_polar(3, 1, [1, _gauss(0, HALF)], [])], []),
        1,
        "44cd6db0af90cd16b9888dfc230c1971cdbee17c6c2fd857c9562f40e1d93dcb",
    ),
    (
        "verify-chain-sum",
        _certificate([_polar(2, 1, [_gauss(-1, THIRD)], [])], []),
        1,
        "6e2534e702ff9f2c97b7e964a4b86dfc8c4798b8b7616c727a11b39f22cfd171",
    ),
    (
        "verify-simple-pole-backtrack",
        _certificate([_simple(THIRD, MINUS_HALF)], []),
        1,
        "54f88c3ecc781a21ba64a41ffc2a734fd238ee4c4043e81fc5725a68f7144566",
    ),
    (
        "verify-excluded-ray-gluing",
        json.loads(Path(__file__).with_name("excluded_ray_gluing.json").read_text()),
        1,
        "f285ef9ef0bdd5275309968c525135a390c32779f02cd1543c5cf2a54d66457c",
    ),
    (
        "verify-zero-residue-at-simple-pole",
        _certificate(
            [
                _simple(HALF, _gauss(0, HALF), _gauss(MINUS_HALF, MINUS_HALF)),
                _polygon(MINUS_HALF, _gauss(0, MINUS_HALF), _gauss(HALF, HALF)),
            ],
            [[[0, k], [1, k]] for k in range(3)],
        ),
        1,
        "47e7a4384fcc33e5e21e6eaf81c4d544c3954a43f6b9be8667121fbee4386c7f",
    ),
    (
        "verify-unmatched-edge",
        _certificate(
            [_polygon(HALF, _gauss(0, THIRD), MINUS_HALF, _gauss(0, [-1, 3]))],
            [[[0, 0], [0, 2]]],
        ),
        1,
        "85ee0bf4b79d6f6668f14bc976dc7c65e5d00ea758ca654523b8b412524338a1",
    ),
    (
        "verify-claimed-poles-differ",
        _certificate(
            [_simple(HALF), _simple(MINUS_HALF)],
            [[[0, 0], [1, 0]]],
            {
                "genus": 0,
                "zeros": [0],
                "poles": [{"order": -1, "residue": THIRD}, {"order": -1, "residue": [-1, 3]}],
            },
        ),
        1,
        "6fb19972cbe886d792655ec20d0e789ee4f526772923d6943f7f68c5f73d6e39",
    ),
]


@pytest.mark.parametrize(
    "doc, code, digest", [c[1:] for c in VERIFY_CASES], ids=[c[0] for c in VERIFY_CASES]
)
def test_verify_bytes_are_pinned(tmp_path, doc, code, digest):
    path = tmp_path / "in.json"
    if isinstance(doc, str):
        (_, args, request, _, _), = (c for c in CASES if c[0] == doc)
        request_path = tmp_path / "request.json"
        request_path.write_text(json.dumps(request))
        assert main(args + [str(request_path), "-o", str(path)]) == 0
    else:
        path.write_text(json.dumps(doc))
    out = tmp_path / "out.json"
    assert main(["verify", str(path), "-o", str(out)]) == code
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

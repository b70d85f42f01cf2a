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
        "08264678be7eea9bfe4d958f9be07fdc3f493bdbbdcec87b3277c585b333debc",
    ),
    (
        "witness-residual-polygon",
        ["witness"],
        {
            "stratum": _stratum(0, [2], [], 4),
            "residues": [_gauss(1, 0), _gauss(0, 1), _gauss(-1, 0), _gauss(0, -1)],
        },
        0,
        "3730512a47eceb12ea589de1d4ed2280e6d8fae969e6834b2336ef2da580bc58",
    ),
    (
        "witness-collinear-anchor-chain",
        ["witness"],
        {"stratum": _stratum(0, [2], [2], 2), "residues": [1, 2, -3]},
        0,
        "6b9f46f6e54d6faabc62d038a3df598fc7a0b541b64c6effe3d8cea457ee103d",
    ),
    (
        "witness-connection-graph",
        ["witness"],
        {"stratum": _stratum(0, [5], [], 7), "residues": [3, 1, 1, 1, -2, -2, -2]},
        0,
        "eaa47e1dd0c87390af5abe80b6a43856270cd0300e3a5fc4d64c019d2048ff2f",
    ),
    (
        "witness-blow-up-of-single-zero",
        ["witness"],
        {"stratum": _stratum(0, [1, 1], [], 4), "residues": [3, -1, -1, -1]},
        0,
        "d95f12c75226223820ee8c840e64ef49e5718a50726bf2440d9af5c1224c618d",
    ),
    (
        "witness-stable-tree",
        ["witness"],
        {"stratum": _stratum(0, [2, 2], [], 6), "residues": [2, 1, 1, -1, -1, -2]},
        0,
        "40639e4e1f5c7ae8caf6c7df048840b09c2bdfe71102a821206e0b51de8c2a15",
    ),
    (
        "witness-genus-reduction",
        ["witness"],
        {"stratum": _stratum(1, [3], [2], 1), "residues": [[1, 2], [-1, 2]]},
        0,
        "b374137883b66087306ea33794b716330555ddeb71fa8010b12dfc6a88dfed34",
    ),
    (
        "witness-genus-2-nonzero-residues",
        ["witness"],
        {
            "stratum": _stratum(2, [3, 3], [2], 2),
            "residues": [_gauss(1, 1), 1, _gauss(-2, -1)],
        },
        0,
        "88326e71cca30e112fc15df3ad3a7560ff0ed10442f020c673df31ec5ed35bf7",
    ),
    (
        "witness-genus-2-simple-poles",
        ["witness"],
        {"stratum": _stratum(2, [2, 2], [], 2), "residues": [1, -1]},
        0,
        "910b7fbe4e623624c2f9f8d4e9a16c1e57a3b75666043e197313a614fa745100",
    ),
    (
        "witness-genus-1-rotation",
        ["witness"],
        {"stratum": _stratum(1, [4], [2, 2]), "residues": [0, 0], "rotation": 2},
        0,
        "ea23cff101f3114da706216d017fbcc55edef097ac6e9b1eb431ccfaec57eafc",
    ),
    (
        "witness-marked-point",
        ["witness"],
        {"stratum": _stratum(0, [0], [], 2), "residues": [1, -1]},
        0,
        "2d7f5c19327e20b853831ae8a0ff96a859c7a9e6b3fad116ff4a35195d3442ee",
    ),
    (
        "witness-residual-polygon-trivial-part",
        ["witness"],
        {"stratum": _stratum(0, [4], [2, 2], 2), "residues": [0, 1, _gauss(0, 1), _gauss(-1, -1)]},
        0,
        "d43a4a1c737c2fa7d79a73ac4cccaf3dbcfa7e3560563227892665ca52ce10ad",
    ),
    (
        "witness-anchor-chain-down-imaginary-trivial-part",
        ["witness"],
        {
            "stratum": _stratum(0, [5], [2, 3], 2),
            "residues": [_gauss(0, -2), 0, _gauss(0, 1), _gauss(0, 1)],
        },
        0,
        "f589c1e1c167dbfcedd2cd805d50f51d2b4361ccf8287692f063dd5449175c75",
    ),
    (
        "witness-anchor-chain-two-zeros",
        ["witness"],
        {"stratum": _stratum(0, [1, 1], [2], 2), "residues": [1, 2, -3]},
        0,
        "beeaf6caf973eb75523944372b3768eff55e8311a80461f1c1e19f5001fc097e",
    ),
    (
        "witness-genus-1-zero-residues-two-zeros",
        ["witness"],
        {"stratum": _stratum(1, [2, 2], [2, 2]), "residues": [0, 0]},
        0,
        "a6bc0219e7563cf83dced988366838ac142002b1f83c5120a381902233a9e89c",
    ),
    (
        "witness-genus-3-holomorphic",
        ["witness"],
        {"stratum": _stratum(3, [2, 2]), "residues": []},
        0,
        "31ad7e02cbbbfd7fe7fc9b4468270d68593eaa51e81a96f6e5a8a91c0d85df55",
    ),
    (
        "witness-not-realizable",
        ["witness"],
        {"stratum": _stratum(0, [2], [2, 2]), "residues": [0, 0]},
        1,
        "c6e9e788ec3affda79aaf858cf5cf8b5b592e653398847d6744724999f3b9484",
    ),
    (
        "decide-excluded-ray",
        ["decide"],
        {"stratum": _stratum(0, [2], [], 4), "residues": [1, 1, -1, -1]},
        1,
        "90be44ede4554c81458bb14192714000f033bafd9c56253d6540abd4fb383714",
    ),
    (
        "decide-stable-tree",
        ["decide"],
        {"stratum": _stratum(0, [2, 2], [], 6), "residues": [2, 1, 1, -1, -1, -2]},
        0,
        "7f28a0ba8d1bf62d1aefe99a9ae1be420880f14791fdfb4e0be610f146fa7c91",
    ),
    (
        "cylinders-closed-form",
        ["cylinders"],
        {"stratum": _stratum(4, [6]), "circumferences": [1, 1, 1, 1]},
        1,
        "d5801c7ba4437a49d83d701ef14312c87909f2e4585ae6e66d3e7a4b38311e78",
    ),
    (
        "cylinders-search",
        ["cylinders"],
        {"stratum": _stratum(4, [4, 1, 1]), "circumferences": [1, 1, 1, 1]},
        0,
        "9cb44a8b82ca0db2b38592263d6f541c83729db5e52c29399eb535b384fd252e",
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
        "dcad5d34aebfeb38cfe8ed305a90ee580e5bcf633080954cca50bc476f1137fa",
    ),
    (
        "verify-profile-genus-2-nonzero-residues",
        "witness-genus-2-nonzero-residues",
        0,
        "40565bf5f25299eb1b96405cf0e4bcb843dfd133e755311dea28e0d0157e7098",
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
        "204b5c488f6eea6386f930635398cc77efcce15160fd5f3c07deef1a8dcfb855",
    ),
    (
        "verify-vector-mismatch-gaussian",
        _certificate(
            [_simple(_gauss([1, 4], [2, 5]), THIRD), _simple(_gauss([-1, 4], [-3, 7]), MINUS_HALF)],
            [[[0, 0], [1, 0]], [[0, 1], [1, 1]]],
        ),
        1,
        "abcc03253daa90d1be0ebb190a6b7d0f7dd5bf3bdf1d728c511028bbce00dfea",
    ),
    (
        "verify-polygon-open",
        _certificate([_polygon(HALF, _gauss(0, THIRD), MINUS_HALF)], []),
        1,
        "e58c97b7cd6f7478fa9705a6360981abe9c11a293d0a07ee7ac823bbc4cf081e",
    ),
    (
        "verify-polygon-winds-twice",
        _certificate(
            [_polygon(*[[2, 3], _gauss(0, [2, 3]), [-2, 3], _gauss(0, [-2, 3])] * 2)], []
        ),
        1,
        "5b58a952c30c589a06dd7f7b88547f9ca0f612d604eedbb00f14d9433d6c1a51",
    ),
    (
        "verify-negative-real-axis",
        _certificate([_polar(2, 1, [1], [_gauss(1, 1), MINUS_HALF])], []),
        1,
        "b20a4518e10c0f7c92614af866834ddc2026dd24d62ea0a7ccb64f0af904e59f",
    ),
    (
        "verify-top-chain-order",
        _certificate([_polar(3, 1, [1, _gauss(0, HALF)], [])], []),
        1,
        "0f8204899542ec74204880e17dbc7a673f0c1dfe809dfedce248814fe8f08f0b",
    ),
    (
        "verify-chain-sum",
        _certificate([_polar(2, 1, [_gauss(-1, THIRD)], [])], []),
        1,
        "ca71529d982b71e78bd3008ef19c84304ebd0a58a3bb99ec30997dea9a1eb0ae",
    ),
    (
        "verify-simple-pole-backtrack",
        _certificate([_simple(THIRD, MINUS_HALF)], []),
        1,
        "073c3aace3c5e6de9b69758701ce20701f9c96fef2b7c8db04cc8298314ebd37",
    ),
    (
        "verify-excluded-ray-gluing",
        json.loads(Path(__file__).with_name("excluded_ray_gluing.json").read_text()),
        1,
        "f40940976bf7554e4d1c216e1fd2bc8308a7259818c0478ebdb9ad64ff40674b",
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
        "6bdfe0789e3c41d00cc22e742256bbd9e54961f9773c49a265e8822cd9e47e53",
    ),
    (
        "verify-unmatched-edge",
        _certificate(
            [_polygon(HALF, _gauss(0, THIRD), MINUS_HALF, _gauss(0, [-1, 3]))],
            [[[0, 0], [0, 2]]],
        ),
        1,
        "a18232c12f0a3ee1b6275c79fff2a9331cc03f184b32b59fae9038f6a4f347a1",
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
        "75da44dc03d1d747f8207d2f25fc730f13f6d193fbfcccb03d5db7da4ee6abf9",
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

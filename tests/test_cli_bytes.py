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
        "e6dd9f7b391e10e25fdba54eb1835995335073e5e26fce6b68121a53f859edc7",
    ),
    (
        "witness-residual-polygon",
        ["witness"],
        {
            "stratum": _stratum(0, [2], [], 4),
            "residues": [_gauss(1, 0), _gauss(0, 1), _gauss(-1, 0), _gauss(0, -1)],
        },
        0,
        "fd14d069ccb309dc299d5f9f4751ba00c67bf3c1d5551498df9f45ac83579598",
    ),
    (
        "witness-collinear-anchor-chain",
        ["witness"],
        {"stratum": _stratum(0, [2], [2], 2), "residues": [1, 2, -3]},
        0,
        "cb1f45150857f43c183e9a08f6668da498d866e09d0207c7236a86a386e9a79b",
    ),
    (
        "witness-connection-graph",
        ["witness"],
        {"stratum": _stratum(0, [5], [], 7), "residues": [3, 1, 1, 1, -2, -2, -2]},
        0,
        "8c5110818af65ebd061e4245f8098aa42949eae76070f67d63eee83a7bb0a978",
    ),
    (
        "witness-blow-up-of-single-zero",
        ["witness"],
        {"stratum": _stratum(0, [1, 1], [], 4), "residues": [3, -1, -1, -1]},
        0,
        "51e24c05f9acee6946b95342e14427140d964307c663e6c93a2e34a3d55d512e",
    ),
    (
        "witness-stable-tree",
        ["witness"],
        {"stratum": _stratum(0, [2, 2], [], 6), "residues": [2, 1, 1, -1, -1, -2]},
        0,
        "ea9154d17c1233f47ccb23bf4a628cbfad97d77d0dbb752a3c3f223820361dc5",
    ),
    (
        "witness-genus-reduction",
        ["witness"],
        {"stratum": _stratum(1, [3], [2], 1), "residues": [[1, 2], [-1, 2]]},
        0,
        "7117f0dfd95f09e7ce4716449526f2e6c565f6fc21ce1eee0c7fedfb29290ec7",
    ),
    (
        "witness-genus-2-nonzero-residues",
        ["witness"],
        {
            "stratum": _stratum(2, [3, 3], [2], 2),
            "residues": [_gauss(1, 1), 1, _gauss(-2, -1)],
        },
        0,
        "651e599f4857bf216598dac0a49c8357209f571852ddc99b2131393d5fa4b50c",
    ),
    (
        "witness-genus-2-simple-poles",
        ["witness"],
        {"stratum": _stratum(2, [2, 2], [], 2), "residues": [1, -1]},
        0,
        "ea87a5b364e474d44a9a943fdad2bf1766fd2c770401a53ba920e24290724043",
    ),
    (
        "witness-genus-1-rotation",
        ["witness"],
        {"stratum": _stratum(1, [4], [2, 2]), "residues": [0, 0], "rotation": 2},
        0,
        "e06ec8057ee77222a7321b17b283d7eba78a148282a118ae794f14acc8754aec",
    ),
    (
        "witness-marked-point",
        ["witness"],
        {"stratum": _stratum(0, [0], [], 2), "residues": [1, -1]},
        0,
        "88b23969084eb432e9721ad4f72dd6bde0f18bee952615b5da0ef4659a5ba45f",
    ),
    (
        "witness-anchor-chain-two-zeros",
        ["witness"],
        {"stratum": _stratum(0, [1, 1], [2], 2), "residues": [1, 2, -3]},
        0,
        "f6b3a7502514728396457358be88efb8b3d1437b46d9f39338035a776b66d53d",
    ),
    (
        "witness-genus-1-zero-residues-two-zeros",
        ["witness"],
        {"stratum": _stratum(1, [2, 2], [2, 2]), "residues": [0, 0]},
        0,
        "46204b27d9a3deefd508beab848b4ee2cf47a7ba8b7913dd43ff3152969178ed",
    ),
    (
        "witness-genus-3-holomorphic",
        ["witness"],
        {"stratum": _stratum(3, [2, 2]), "residues": []},
        0,
        "243fc5920be3710753a8b507fb08e2e14076e3f87bfeb7eb887838dd16295a67",
    ),
    (
        "witness-not-realizable",
        ["witness"],
        {"stratum": _stratum(0, [2], [2, 2]), "residues": [0, 0]},
        1,
        "e7fbad9539b843d304ee304ea53a10da437f77db0d46aef30350772bc200b561",
    ),
    (
        "decide-excluded-ray",
        ["decide"],
        {"stratum": _stratum(0, [2], [], 4), "residues": [1, 1, -1, -1]},
        1,
        "209d61e6ee3181b156c5c91be5bfb794c24b920bd8eee7e6c7740116dddc521e",
    ),
    (
        "decide-stable-tree",
        ["decide"],
        {"stratum": _stratum(0, [2, 2], [], 6), "residues": [2, 1, 1, -1, -1, -2]},
        0,
        "312213cc95922e4c71652c30d52fe3baecd65ac7903fe6380107c0690c3d566e",
    ),
    (
        "cylinders-closed-form",
        ["cylinders"],
        {"stratum": _stratum(4, [6]), "circumferences": [1, 1, 1, 1]},
        1,
        "e01bf49b5e2fab116488acef1b352c72bdc40873edbedad7e9087f3a3bd4b000",
    ),
    (
        "cylinders-search",
        ["cylinders"],
        {"stratum": _stratum(4, [4, 1, 1]), "circumferences": [1, 1, 1, 1]},
        0,
        "9a923730338dd601da056bc56320b2225b42f2bc5e949a3fc4711e69cbd9ed87",
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
        "bases": [{"pieces": pieces, "pairings": pairings}],
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
        "2b99a30aff20603ec7ff2beecf4de96847cb8467da79f76c897a007c126d0e6d",
    ),
    (
        "verify-profile-genus-2-nonzero-residues",
        "witness-genus-2-nonzero-residues",
        0,
        "5410ba3ec5268693f1494e5461f608ce7a99d3efb1fc7a60d1e5de523f1e71f2",
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
        "c30bc637c5f85210b650f0235212a3f5e3959a5124a049335f2fdcdb2bbd548d",
    ),
    (
        "verify-vector-mismatch-gaussian",
        _certificate(
            [_simple(_gauss([1, 4], [2, 5]), THIRD), _simple(_gauss([-1, 4], [-3, 7]), MINUS_HALF)],
            [[[0, 0], [1, 0]], [[0, 1], [1, 1]]],
        ),
        1,
        "b012567b18d31ab0755e33453154aff3467ef2da7894d66f4b34ab7b0f6645b7",
    ),
    (
        "verify-polygon-open",
        _certificate([_polygon(HALF, _gauss(0, THIRD), MINUS_HALF)], []),
        1,
        "bad74b5d63ecebbfd9397a65f5eaca85d539028375f08a4a2b50468ad34be460",
    ),
    (
        "verify-polygon-winds-twice",
        _certificate(
            [_polygon(*[[2, 3], _gauss(0, [2, 3]), [-2, 3], _gauss(0, [-2, 3])] * 2)], []
        ),
        1,
        "cbe08bc7ee4636cf6ddc62323128b8d7fa5750a5bdf5ffa086906ef1aeecc923",
    ),
    (
        "verify-negative-real-axis",
        _certificate([_polar(2, 1, [1], [_gauss(1, 1), MINUS_HALF])], []),
        1,
        "3679b2168e344ae1e609d16580666df5feb02c679d6cf2b5a4ff974765d7e2e2",
    ),
    (
        "verify-top-chain-order",
        _certificate([_polar(3, 1, [1, _gauss(0, HALF)], [])], []),
        1,
        "3accdbe7201126dc31871626bfc69e99759ef8f4d5f679d37f63c0e2d486ee9c",
    ),
    (
        "verify-chain-sum",
        _certificate([_polar(2, 1, [_gauss(-1, THIRD)], [])], []),
        1,
        "fbb69044f4649cde32398f68e0d8c15a4590e0448cc9303ac28099ddbe009457",
    ),
    (
        "verify-simple-pole-backtrack",
        _certificate([_simple(THIRD, MINUS_HALF)], []),
        1,
        "2beb1d44a4ac34896c885a95d7340986565c037c145b72717e03a54f95904316",
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
        "af101b075db93455b423c8c2437f32d1f04162dd635e662300d5a5a15d12c5e6",
    ),
    (
        "verify-unmatched-edge",
        _certificate(
            [_polygon(HALF, _gauss(0, THIRD), MINUS_HALF, _gauss(0, [-1, 3]))],
            [[[0, 0], [0, 2]]],
        ),
        1,
        "84f8b712a1365655663c07273357baca8137b7456ea76d1506455258f4267e13",
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
        "2505bebb9750b8d2a53a6a08431f88fb453efac4965077ac3deda6132e3658b8",
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

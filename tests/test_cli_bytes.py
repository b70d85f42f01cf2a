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
        "f9866cce153f27aeb692e9e96e8b2ce3e72a871c31f287bacf29b06d7700d3fc",
    ),
    (
        "witness-residual-polygon",
        ["witness"],
        {
            "stratum": _stratum(0, [2], [], 4),
            "residues": [_gauss(1, 0), _gauss(0, 1), _gauss(-1, 0), _gauss(0, -1)],
        },
        0,
        "c8401d6cfc3a5bcc6d89d7cb8db06b3331de3500a9df98b6f4ebff0f8b918891",
    ),
    (
        "witness-collinear-anchor-chain",
        ["witness"],
        {"stratum": _stratum(0, [2], [2], 2), "residues": [1, 2, -3]},
        0,
        "1e60c615f8ed7dba88f8d48dad0e92ecf3268be63fbcfdc827bd9c3544ba63ae",
    ),
    (
        "witness-connection-graph",
        ["witness"],
        {"stratum": _stratum(0, [5], [], 7), "residues": [3, 1, 1, 1, -2, -2, -2]},
        0,
        "f05fa6c0c80513a2218dc5c79305aecdf63f2ccdde1ae38ef207e25c5a9a8478",
    ),
    (
        "witness-blow-up-of-single-zero",
        ["witness"],
        {"stratum": _stratum(0, [1, 1], [], 4), "residues": [3, -1, -1, -1]},
        0,
        "7eb2fd9acd492dc01722402e9b49bd3196ed73f348345049b7d7019b3d4e2e79",
    ),
    (
        "witness-stable-tree",
        ["witness"],
        {"stratum": _stratum(0, [2, 2], [], 6), "residues": [2, 1, 1, -1, -1, -2]},
        0,
        "06f51b5abb49919be412a74b1000b2b3231bb2a0be0467a4267fdce44b18a682",
    ),
    (
        "witness-genus-reduction",
        ["witness"],
        {"stratum": _stratum(1, [3], [2], 1), "residues": [[1, 2], [-1, 2]]},
        0,
        "6729bdbad89048dd6b04c7e6e39242174c39ac84e25279e8fd6831814215f563",
    ),
    (
        "witness-genus-2-nonzero-residues",
        ["witness"],
        {
            "stratum": _stratum(2, [3, 3], [2], 2),
            "residues": [_gauss(1, 1), 1, _gauss(-2, -1)],
        },
        0,
        "25b89367e68b74b045ae5a97caa9c86fa6bd42e0014292057a64e43f97b0fdfd",
    ),
    (
        "witness-genus-2-simple-poles",
        ["witness"],
        {"stratum": _stratum(2, [2, 2], [], 2), "residues": [1, -1]},
        0,
        "11860b3e2ff203899c7bef4044e644d525b4e63ff91864938c1c4a34a3100c6e",
    ),
    (
        "witness-genus-1-rotation",
        ["witness"],
        {"stratum": _stratum(1, [4], [2, 2]), "residues": [0, 0], "rotation": 2},
        0,
        "ee1b852167c7613a9982b0a372f4f14c716ca4b2353d655f92cbe1d361239519",
    ),
    (
        "witness-marked-point",
        ["witness"],
        {"stratum": _stratum(0, [0], [], 2), "residues": [1, -1]},
        0,
        "58f49557b49d1502b6a516ffd6bbd094440ea5a4ba14e3c87438dcff9171a600",
    ),
    (
        "witness-residual-polygon-trivial-part",
        ["witness"],
        {"stratum": _stratum(0, [4], [2, 2], 2), "residues": [0, 1, _gauss(0, 1), _gauss(-1, -1)]},
        0,
        "adeb860730f9e99928d9b43df9ea7d94d61c5a778e9641446c5bc99e5cde4c25",
    ),
    (
        "witness-anchor-chain-down-imaginary-trivial-part",
        ["witness"],
        {
            "stratum": _stratum(0, [5], [2, 3], 2),
            "residues": [_gauss(0, -2), 0, _gauss(0, 1), _gauss(0, 1)],
        },
        0,
        "e7dc1d36352a7fa97d072f9febc57fadad0feb7794f43547db9c02b093100d20",
    ),
    (
        "witness-anchor-chain-two-zeros",
        ["witness"],
        {"stratum": _stratum(0, [1, 1], [2], 2), "residues": [1, 2, -3]},
        0,
        "2c0f7e656636771d0c3d9cf42bd2a8344d6d3d5feaca7ca31cf8034850e64e3e",
    ),
    (
        "witness-genus-1-zero-residues-two-zeros",
        ["witness"],
        {"stratum": _stratum(1, [2, 2], [2, 2]), "residues": [0, 0]},
        0,
        "35d1a23a21d3fe5c5ed279ae25e2d0cf21447d3d8b5ccf2a0b9471463a7e47b4",
    ),
    (
        "witness-genus-3-holomorphic",
        ["witness"],
        {"stratum": _stratum(3, [2, 2]), "residues": []},
        0,
        "b5160f042bcdf821a9ba066af8586021d6534faca00f84cbdcd22a3620d8d199",
    ),
    (
        "witness-not-realizable",
        ["witness"],
        {"stratum": _stratum(0, [2], [2, 2]), "residues": [0, 0]},
        1,
        "9195a5265bee98f39e2aa573aa88f58e052224b34e740df6ce89fde8e28a6129",
    ),
    (
        "decide-excluded-ray",
        ["decide"],
        {"stratum": _stratum(0, [2], [], 4), "residues": [1, 1, -1, -1]},
        1,
        "82512cd88aa90c2b82ae56b02b56a260e6c3480aa7f72f998fcc817f519d2b7a",
    ),
    (
        "decide-stable-tree",
        ["decide"],
        {"stratum": _stratum(0, [2, 2], [], 6), "residues": [2, 1, 1, -1, -1, -2]},
        0,
        "b634c17b27d7223707eac65c14aa8ee33eebcfdc2b6539326f60e2cab5c9b2fb",
    ),
    (
        "cylinders-closed-form",
        ["cylinders"],
        {"stratum": _stratum(4, [6]), "circumferences": [1, 1, 1, 1]},
        1,
        "d087af5f79b386ca50d38d8f6eabbdc9741e68d15d5bde605d90d8ee44d41625",
    ),
    (
        "cylinders-search",
        ["cylinders"],
        {"stratum": _stratum(4, [4, 1, 1]), "circumferences": [1, 1, 1, 1]},
        0,
        "9b8ca606ef73f43e9db80f9e1cf0a628e3f7c44d5523979118e15bc4c72fb118",
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
        "d88adafda2ad0edd4f87c65327ac3021d9af94c1eea8ade418d7462dfafa672b",
    ),
    (
        "verify-profile-genus-2-nonzero-residues",
        "witness-genus-2-nonzero-residues",
        0,
        "d5ff7a20d21bc7499190af3572c1ec5d460e0b739ca058a14eb3c87104795e2f",
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
        "630d410f6ed0d28c7b352e972fa5cbebbb14aac1f3ac86f65d041e05acd58615",
    ),
    (
        "verify-vector-mismatch-gaussian",
        _certificate(
            [_simple(_gauss([1, 4], [2, 5]), THIRD), _simple(_gauss([-1, 4], [-3, 7]), MINUS_HALF)],
            [[[0, 0], [1, 0]], [[0, 1], [1, 1]]],
        ),
        1,
        "fd7e2b0228278c934ce3356ad1b2d1e5fc9c476cacbf0438fa8c634c121f028b",
    ),
    (
        "verify-polygon-open",
        _certificate([_polygon(HALF, _gauss(0, THIRD), MINUS_HALF)], []),
        1,
        "425121ab65eaf0f5d5d3477c8db26b7b39330f1ddb2fca0b9ac9d63eb68eb00e",
    ),
    (
        "verify-polygon-winds-twice",
        _certificate(
            [_polygon(*[[2, 3], _gauss(0, [2, 3]), [-2, 3], _gauss(0, [-2, 3])] * 2)], []
        ),
        1,
        "4e0877c862f29b472655fa5f47b9c7e398fb0404f060b06452db0f3fe1ea374f",
    ),
    (
        "verify-negative-real-axis",
        _certificate([_polar(2, 1, [1], [_gauss(1, 1), MINUS_HALF])], []),
        1,
        "1719e5850452ead790aa761d97e3da58ceac9f8dd435a0c458bc948a60576c5b",
    ),
    (
        "verify-top-chain-order",
        _certificate([_polar(3, 1, [1, _gauss(0, HALF)], [])], []),
        1,
        "d6f38e75854bb8204ff4df0b2b33cb226046db97c9692fa9f59d29f384500aea",
    ),
    (
        "verify-chain-sum",
        _certificate([_polar(2, 1, [_gauss(-1, THIRD)], [])], []),
        1,
        "f7fa90fa80fc260957bd65adb28f2d7b65a38358a81fc2b46511cb470372fd0c",
    ),
    (
        "verify-simple-pole-backtrack",
        _certificate([_simple(THIRD, MINUS_HALF)], []),
        1,
        "f8b3833bb0468bb4397cf753c191db5033bee7b4fd0b1a404b6172e28f85d4bc",
    ),
    (
        "verify-excluded-ray-gluing",
        json.loads(Path(__file__).with_name("excluded_ray_gluing.json").read_text()),
        1,
        "0826987fcf2eff9397f71130a0837d729976ce226e29363e5bfbcc30cf51a67b",
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
        "c4c981143a786dd447355a8194a39df23f29110914b5167276d912f6224d9b43",
    ),
    (
        "verify-unmatched-edge",
        _certificate(
            [_polygon(HALF, _gauss(0, THIRD), MINUS_HALF, _gauss(0, [-1, 3]))],
            [[[0, 0], [0, 2]]],
        ),
        1,
        "0952ccecbe253fc674e4459736e871b824a4b66d258c068729d25dfeb0e14c31",
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
        "15fa4771f6cf03dcf185431a8e51ad67c25fbb9df11b8f490675625de514b512",
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

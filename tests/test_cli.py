import contextlib
import io
import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from collections import Counter
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import resflat
from resflat import (
    ConstructionCertificate,
    FlatSurface,
    PolarPart,
    Polygon,
    Profile,
    QQi,
    SimplePolePart,
    StratumSignature,
    VerificationError,
    build_witness,
    decide_realizable,
    residue_tuple,
    verify_certificate,
    verify_surface,
)
from resflat.cli import main
from resflat.core import replace
from resflat.verify import BlowUpZero, _certificate_to_json

# Integer pairs (x, y): on a surface of denominator d, the vector (x + iy)/d.
ZERO, ONE, I = (0, 0), (1, 0), (0, 1)

# A gluing of four simple-pole parts whose naive reading is an excluded ray.
EXCLUDED_RAY_GLUING = json.loads(
    Path(__file__).with_name("excluded_ray_gluing.json").read_text()
)


def run_cli(args, tmp_path, doc=None, name="in.json"):
    argv = list(args)
    if doc is not None:
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        argv.append(str(path))
    out = tmp_path / "out.json"
    argv += ["-o", str(out)]
    code = main(argv)
    payload = json.loads(out.read_text()) if out.exists() else None
    return code, payload


def test_decide_excluded_ray(tmp_path):
    doc = {
        "stratum": {"genus": 0, "zeros": [2], "poles": [], "simple_poles": 4},
        "residues": [1, 1, -1, -1],
    }
    code, out = run_cli(["decide"], tmp_path, doc)
    assert code == 1
    assert out["verdict"]["reason"] == "excluded-primitive-ray"


def test_decide_realizable_exit_zero(tmp_path):
    doc = {
        "stratum": {"genus": 1, "zeros": [6], "poles": [3, 3], "simple_poles": 0},
        "residues": [0, 0],
    }
    code, out = run_cli(["decide"], tmp_path, doc)
    assert code == 0
    assert sorted(out["verdict"]) == ["certificate_hint", "realizable", "reason"]


def test_a_genus_one_verdict_claims_no_component(tmp_path, capsys):
    """On H_1(4, -2, -2) with residues (1, -1) one surface is built, and
    no rotation can be asked of it: the verdict claims no component."""
    stratum = {"genus": 1, "zeros": [4], "poles": [2, 2], "simple_poles": 0}
    code, out = run_cli(["decide"], tmp_path, {"stratum": stratum, "residues": [1, -1]})
    assert code == 0
    assert out["verdict"] == {
        "realizable": True, "reason": "genus-positive-surjective", "certificate_hint": "genus-reduction"
    }
    doc = {"stratum": stratum, "residues": [1, -1], "rotation": 1}
    (tmp_path / "witness").mkdir()
    assert run_cli(["witness"], tmp_path / "witness", doc) == (2, None)
    assert capsys.readouterr().err == (
        "error: rotation numbers apply to genus-1 strata with higher poles, "
        "zero residues and at most one zero\n"
    )


def test_table_counts(tmp_path):
    code, out = run_cli(["table", "--s-min", "2", "--s-max", "6"], tmp_path)
    assert code == 0
    assert [row["count"] for row in out["rows"]] == [0, 0, 1, 1, 4]


def test_table_document_fields_override_options(tmp_path):
    # s_max comes from the document, s_min from its option.
    code, out = run_cli(["table", "--s-min", "3", "--s-max", "6"], tmp_path, {"s_max": 4})
    assert code == 0
    assert [row["s"] for row in out["rows"]] == [3, 4]
    # An empty document keeps every option.
    code, out = run_cli(["table", "--s-max", "3"], tmp_path, {})
    assert code == 0
    assert [row["s"] for row in out["rows"]] == [2, 3]


def test_oracle_check_document_fields_override_options(tmp_path):
    flags = ["oracle-check", "--s-max", "5", "--entry-bound", "2"]
    code, out = run_cli(flags, tmp_path)
    assert code == 0
    # entry_bound comes from the document, s_max from its option.
    code, overridden = run_cli(flags, tmp_path, {"entry_bound": 3})
    assert code == 0
    wider = ["oracle-check", "--s-max", "5", "--entry-bound", "3"]
    assert overridden == run_cli(wider, tmp_path)[1]
    assert overridden["cases"] > out["cases"]
    # An empty document keeps every option.
    assert run_cli(flags, tmp_path, {}) == (0, out)


def test_witness_then_verify_same_process(tmp_path):
    doc = {
        "stratum": {"genus": 0, "zeros": [5], "poles": [], "simple_poles": 7},
        "residues": [3, 1, 1, 1, -2, -2, -2],
    }
    code, cert = run_cli(["witness"], tmp_path, doc)
    assert code == 0 and cert["kind"] == "certificate"
    code2, out2 = run_cli(["verify"], tmp_path, cert, name="cert.json")
    assert code2 == 0
    assert out2["profile"]["zeros"] == [5]


def test_witness_verify_separate_processes(tmp_path):
    req = tmp_path / "req.json"
    req.write_text(
        json.dumps(
            {
                "stratum": {"genus": 1, "zeros": [4], "poles": [2, 2], "simple_poles": 0},
                "residues": [0, 0],
                "rotation": 1,
            }
        )
    )
    cert_path = tmp_path / "cert.json"
    r1 = subprocess.run(
        [sys.executable, "-m", "resflat.cli", "witness", str(req), "-o", str(cert_path)],
        capture_output=True,
        text=True,
    )
    assert r1.returncode == 0, r1.stderr
    r2 = subprocess.run(
        [sys.executable, "-m", "resflat.cli", "verify", str(cert_path)],
        capture_output=True,
        text=True,
    )
    assert r2.returncode == 0, r2.stderr
    assert json.loads(r2.stdout)["kind"] == "profile"


def test_stable_assembly_round_trips_through_json(tmp_path):
    doc = {
        "stratum": {"genus": 0, "zeros": [2, 2], "poles": [], "simple_poles": 6},
        "residues": [2, 1, 1, -1, -1, -2],
    }
    code, cert = run_cli(["witness"], tmp_path, doc)
    assert code == 0 and "bases" not in cert and "node_pairings" not in cert
    # Six simple-pole parts in request order, then the node's cylinder.
    pieces = cert["surface"]["pieces"]
    assert [p["kind"] for p in pieces] == ["simple_pole_part"] * 6 + ["polygon"]
    code2, out2 = run_cli(["verify"], tmp_path, cert, name="stable.json")
    assert code2 == 0
    assert out2["profile"]["zeros"] == [2, 2]


def test_witness_not_realizable(tmp_path):
    doc = {
        "stratum": {"genus": 0, "zeros": [2], "poles": [2, 2], "simple_poles": 0},
        "residues": [0, 0],
    }
    code, out = run_cli(["witness"], tmp_path, doc)
    assert code == 1
    assert out["kind"] == "verdict" and not out["verdict"]["realizable"]


def test_deterministic_output(tmp_path):
    doc = {
        "stratum": {"genus": 0, "zeros": [2], "poles": [], "simple_poles": 4},
        "residues": [
            {"re": [1, 1]},
            {"im": [1, 1]},
            {"re": [-1, 1]},
            {"im": [-1, 1]},
        ],
    }
    _, first = run_cli(["witness"], tmp_path, doc)
    path = tmp_path / "again.json"
    path.write_text(json.dumps(doc))
    out2 = tmp_path / "out2.json"
    main(["witness", str(path), "-o", str(out2)])
    assert json.dumps(first, sort_keys=True) == json.dumps(
        json.loads(out2.read_text()), sort_keys=True
    )


def test_svg_emission(tmp_path):
    doc = {
        "stratum": {"genus": 0, "zeros": [2], "poles": [], "simple_poles": 4},
        "residues": [
            {"re": [1, 1]},
            {"im": [1, 1]},
            {"re": [-1, 1]},
            {"im": [-1, 1]},
        ],
    }
    req = tmp_path / "req.json"
    req.write_text(json.dumps(doc))
    svg_path = tmp_path / "drawing.svg"
    code = main(
        ["witness", str(req), "-o", str(tmp_path / "c.json"), "--svg", str(svg_path)]
    )
    assert code == 0 and svg_path.exists()
    root = ET.parse(svg_path).getroot()
    assert root.tag.endswith("svg")
    assert len(list(root.iter())) > 5


def test_svg_emission_of_polar_parts(tmp_path):
    """Three polar parts on H_0(2, 2, -2, -2, -2), glued top to bottom in a
    cycle: each pairing's number labels its two edges."""
    doc = {
        "stratum": {"genus": 0, "zeros": [2, 2], "poles": [2, 2, 2], "simple_poles": 0},
        "residues": [0, 0, 0],
    }
    req = tmp_path / "req.json"
    req.write_text(json.dumps(doc))
    svg_path = tmp_path / "drawing.svg"
    code = main(
        ["witness", str(req), "-o", str(tmp_path / "c.json"), "--svg", str(svg_path)]
    )
    assert code == 0
    surface = json.loads((tmp_path / "c.json").read_text())["surface"]
    assert [piece["kind"] for piece in surface["pieces"]] == ["polar_part"] * 3
    assert len(surface["pairings"]) == 3
    root = ET.parse(svg_path).getroot()
    assert root.tag.endswith("svg")
    labels = Counter(e.text for e in root.iter() if e.get("fill") == "crimson")
    assert labels == {"0": 2, "1": 2, "2": 2}


@pytest.mark.parametrize("exponent", [320, -320])
def test_svg_emission_at_any_magnitude(tmp_path, exponent):
    x = Fraction(10) ** exponent
    pos, neg = [x.numerator, x.denominator], [-x.numerator, x.denominator]
    doc = {
        "stratum": {"genus": 0, "zeros": [2], "poles": [], "simple_poles": 4},
        "residues": [{"re": pos}, {"im": pos}, {"re": neg}, {"im": neg}],
    }
    req = tmp_path / "req.json"
    req.write_text(json.dumps(doc))
    svg_path = tmp_path / "drawing.svg"
    code = main(
        ["witness", str(req), "-o", str(tmp_path / "c.json"), "--svg", str(svg_path)]
    )
    assert code == 0
    assert ET.parse(svg_path).getroot().tag.endswith("svg")


def test_forged_rotation_family_is_a_violation(tmp_path):
    """The rotation-2 chain on H_1(4, -2^2) claimed as rotation 1: the
    rotation read off its surface contradicts the claim."""
    cert = json.loads(Path(__file__).with_name("forged_rotation_family.json").read_text())
    code, out = run_cli(["verify"], tmp_path, cert)
    assert code == 1
    assert out["violations"] == ["the surface has rotation number 2, claimed 1"]


@pytest.mark.parametrize(
    "genus, zeros, poles, simple, residues",
    [
        (0, [1, 1], [2, 2], 0, [0, 0]),
        (1, [0], [], 0, []),
        (1, [2], [], 2, [1, -1]),
        (1, [3], [2], 1, [1, -1]),
        (1, [2, 2], [2, 2], 0, [0, 0]),
    ],
    ids=["genus-0", "holomorphic", "simple-poles-only", "nonzero-residues", "two-zeros"],
)
def test_rotation_outside_its_families_is_rejected(tmp_path, genus, zeros, poles, simple, residues):
    with pytest.raises(ValueError, match="rotation numbers apply"):
        build_witness(
            StratumSignature(genus, zeros, poles, simple), residue_tuple(residues), rotation=1
        )
    stratum = {"genus": genus, "zeros": zeros, "poles": poles, "simple_poles": simple}
    doc = {"stratum": stratum, "residues": residues, "rotation": 1}
    assert run_cli(["witness"], tmp_path, doc) == (2, None)


@pytest.mark.parametrize(
    "poles, rotation, message",
    [
        ([2, 2], 0, "rotation number must be at least 1, got 0"),
        ([2, 2], -1, "rotation number must be at least 1, got -1"),
        ([2, 2], 3, "rotation 3 does not divide gcd of the orders"),
        ([4], 4, "the rotation number of this family is a strict divisor"),
    ],
    ids=["zero", "negative", "not-a-divisor", "strict-divisor"],
)
def test_unattainable_rotation_is_status_two(tmp_path, capsys, poles, rotation, message):
    stratum = {"genus": 1, "zeros": [4], "poles": poles, "simple_poles": 0}
    doc = {"stratum": stratum, "residues": [0] * len(poles), "rotation": rotation}
    assert run_cli(["witness"], tmp_path, doc) == (2, None)
    assert capsys.readouterr().err == f"error: {message}\n"


def test_oracle_check_small(tmp_path):
    code, out = run_cli(
        ["oracle-check", "--s-max", "5", "--entry-bound", "3"], tmp_path
    )
    assert code == 0
    assert out["agreement"] == "100%" and "mode" not in out
    assert out["cases"] > 0 and out["disagreements"] == []


def test_oracle_check_counts_only_schedules_the_replay_accepts(tmp_path, monkeypatch):
    # An oracle whose schedules the replay rejects agrees on no case.
    find = resflat.graphs.find_connection_graph

    def forged(entries):
        steps = find(entries)
        if steps is None:
            return ((0, 1, 1),)
        (a, b, length) = steps[-1]
        return steps[:-1] + ((a, b, length + 1),)

    monkeypatch.setattr(resflat.graphs, "find_connection_graph", forged)
    code, out = run_cli(["oracle-check", "--s-max", "5", "--entry-bound", "3"], tmp_path)
    assert code == 1 and out["agreement"] == "0.0000%"
    assert len(out["disagreements"]) == out["cases"] > 0
    assert not any(d["brute_force"] for d in out["disagreements"])
    assert any(d["closed_form"] for d in out["disagreements"])
    assert not all(d["closed_form"] for d in out["disagreements"])


def test_cylinders_closed_form(tmp_path):
    doc = {
        "stratum": {"genus": 4, "zeros": [6], "poles": [], "simple_poles": 0},
        "circumferences": [1, 1, 1, 1],
    }
    code, out = run_cli(["cylinders"], tmp_path, doc)
    assert code == 1 and out["via"] == "closed-form"


def test_cylinders_search(tmp_path):
    doc = {
        "stratum": {"genus": 4, "zeros": [4, 1, 1], "poles": [], "simple_poles": 0},
        "circumferences": [1, 1, 1, 1],
    }
    code, out = run_cli(["cylinders"], tmp_path, doc)
    assert code == 0 and out["via"] == "search"


def test_cylinders_on_the_plain_torus(tmp_path):
    """H_1() answers one cylinder as H_1(0) does."""
    torus = {"genus": 1, "zeros": [], "poles": [], "simple_poles": 0}
    marked = {**torus, "zeros": [0]}
    code, out = run_cli(["cylinders"], tmp_path, {"stratum": torus, "circumferences": [1]})
    assert (code, out["via"]) == (0, "closed-form")
    assert out["verdict"] == run_cli(
        ["cylinders"], tmp_path, {"stratum": marked, "circumferences": [1]}
    )[1]["verdict"]


def test_cylinders_budget_exceeded_is_status_two(tmp_path, capsys):
    doc = {
        "stratum": {"genus": 4, "zeros": [4, 1, 1], "poles": [], "simple_poles": 0},
        "circumferences": [1, 1, 1, 1],
    }
    path = tmp_path / "req.json"
    path.write_text(json.dumps(doc))
    code = main(["cylinders", str(path), "--budget", "1", "-o", str(tmp_path / "o.json")])
    assert code == 2
    # The budget counts cylinder ends placed; the message says so.
    assert capsys.readouterr().err == (
        "error: cylinder search exceeded its budget: 1 of 1 placements of "
        "cylinder ends spent\n"
    )


def _fresh_cli(args, stdin):
    """``python -m resflat.cli`` in a new process, which has loaded nothing."""
    env = {**os.environ, "PYTHONPATH": str(Path(resflat.__file__).parents[1])}
    return subprocess.run(
        [sys.executable, "-m", "resflat.cli", *args],
        input=stdin,
        capture_output=True,
        text=True,
        env=env,
    )


@pytest.mark.parametrize(
    "args, doc, err",
    [
        (
            ["cylinders", "-", "--budget", "1"],
            {
                "stratum": {"genus": 4, "zeros": [4, 1, 1], "poles": [], "simple_poles": 0},
                "circumferences": [1, 1, 1, 1],
            },
            "error: cylinder search exceeded its budget: 1 of 1 placements of "
            "cylinder ends spent\n",
        ),
        (
            ["decide", "-"],
            {"stratum": {"genus": 0, "zeros": "2"}, "residues": []},
            "error: $.stratum.zeros: expected a list of integers\n",
        ),
    ],
    ids=["budget", "malformed-decide"],
)
def test_a_fresh_process_keeps_the_exit_contract(args, doc, err):
    """main names the budget exception without the search module loaded."""
    done = _fresh_cli(args, json.dumps(doc))
    assert (done.returncode, done.stdout, done.stderr) == (2, "", err)


def test_self_overlapping_polygon_is_a_violation(tmp_path):
    """A gluing around a 16-gon with a clockwise kink: it turns once in all,
    but it is not convex."""
    cert = json.loads(Path(__file__).with_name("self_overlapping_polygon.json").read_text())
    code, out = run_cli(["verify"], tmp_path, cert)
    assert code == 1
    assert out["violations"] == [
        "piece 0: polygon is not convex: it turns right or back at a corner"
    ]


def test_blocked_pairings_are_violations_in_order(tmp_path):
    """On a square, a mismatched pairing is reported and kept; the next
    pairing meets its slot again and ends the matching."""
    cert = json.loads(Path(__file__).with_name("blocked_pairings.json").read_text())
    code, out = run_cli(["verify"], tmp_path, cert)
    assert code == 1
    assert out["violations"] == [
        "pairing 0: vector mismatch, 1 against 1i",
        "pairing 1: slot (0, 1) is matched twice",
    ]


@pytest.mark.parametrize("zeros", [[2, 2, 2], [6]], ids=["search", "closed-form"])
def test_cylinders_negative_budget_is_status_two(tmp_path, capsys, zeros):
    # Both used to exit 1: the search ran unbounded, the closed form ignored it.
    doc = {
        "stratum": {"genus": 4, "zeros": zeros, "poles": [], "simple_poles": 0},
        "circumferences": [1, 1, 1, 1],
    }
    code, out = run_cli(["cylinders", "--budget", "-5"], tmp_path, doc)
    err = capsys.readouterr().err
    assert code == 2 and out is None
    assert err == "error: budget must be nonnegative, got -5\n"


def test_malformed_json_is_status_two(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["decide", str(path)]) == 2


def test_missing_field_is_status_two(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"residues": [1, -1]}))
    assert main(["decide", str(path)]) == 2


def test_bad_validation_is_status_two(tmp_path):
    doc = {
        "stratum": {"genus": 0, "zeros": [2], "poles": [], "simple_poles": 4},
        "residues": [1, 1, -1, -2],
    }
    code, _ = run_cli(["decide"], tmp_path, doc)
    assert code == 2


def test_verify_rejects_tampered_certificate(tmp_path):
    doc = {
        "stratum": {"genus": 0, "zeros": [5], "poles": [], "simple_poles": 7},
        "residues": [3, 1, 1, 1, -2, -2, -2],
    }
    _, cert = run_cli(["witness"], tmp_path, doc)
    cert["claimed_profile"]["zeros"] = [4, 1]
    code, out = run_cli(["verify"], tmp_path, cert, name="tampered.json")
    assert code == 1
    assert out["kind"] == "violation"


def test_verify_rejects_a_gluing_of_an_excluded_ray(tmp_path):
    # Read naively it is genus 0 with zeros (2, 0) and the excluded ray
    # (1, 1, -1, -1); two of its simple-pole chains run against their residues.
    code, out = run_cli(["verify"], tmp_path, EXCLUDED_RAY_GLUING)
    assert code == 1
    assert out["violations"] == [
        "piece 2: simple-pole chain is not monotone along its residue",
        "piece 3: simple-pole chain is not monotone along its residue",
    ]


GENUS_0 = build_witness(StratumSignature(0, (1, 1), (2, 2)), residue_tuple([0, 0]))
GENUS_1 = build_witness(StratumSignature(1, (4,), (2, 2)), residue_tuple([0, 0]))
BLOWN_UP = build_witness(StratumSignature(1, (3, 1), (2, 2)), residue_tuple([0, 0]))


@pytest.mark.parametrize(
    "cert, violation, through_cli",
    [
        (
            replace(GENUS_0, claimed=replace(GENUS_0.claimed, genus=1)),
            "claimed genus 1, derived 0",
            True,
        ),
        (
            replace(GENUS_0, surgeries=(BlowUpZero(0, (0,)),)),
            "surgery 0: blow-up parts must be positive",
            True,
        ),
        (
            replace(GENUS_0, surgeries=(BlowUpZero(5, (1,)),)),
            "surgery 0: zero index out of range",
            True,
        ),
        (
            replace(GENUS_0, surgeries=("twist",)),
            "surgery 0: unknown operation 'twist'",
            False,  # the codec reads no such operation
        ),
        (
            replace(GENUS_0, claimed_rotation=1),
            "rotation numbers apply to genus-1 certificates",
            True,
        ),
        (replace(GENUS_1, claimed_rotation=0), "invalid rotation number 0", True),
        (
            replace(BLOWN_UP, claimed_rotation=1),
            "rotation claims require a surface without surgeries",
            True,
        ),
    ],
    ids=[
        "genus", "blow-up-parts", "zero-index", "unknown-operation", "rotation-genus",
        "rotation-zero", "rotation-after-surgery",
    ],
)
def test_certificate_violation(tmp_path, cert, violation, through_cli):
    with pytest.raises(VerificationError) as caught:
        verify_certificate(cert)
    assert caught.value.violations == (violation,)
    if through_cli:
        code, out = run_cli(["verify"], tmp_path, _certificate_to_json(cert))
        assert code == 1 and out["violations"] == [violation]


@pytest.mark.parametrize(
    "pieces, violation",
    [
        ([PolarPart(2, 1, (ZERO,), ())], "piece 0: top chain contains a zero vector"),
        (
            [PolarPart(2, 1, (), (I, ONE))],
            "piece 0: bottom chain arguments must be weakly increasing",
        ),
        ([Polygon((ONE, (-1, 0)))], "piece 0: polygon needs at least three edges"),
        ([PolarPart(1, 1, (ONE,), ())], "piece 0: polar part order must be at least 2"),
        ([PolarPart(2, 1, (), ())], "piece 0: polar part needs a nonempty boundary chain"),
        ([SimplePolePart(())], "piece 0: simple-pole part needs at least one vector"),
        ([], "surface has no pieces"),
    ],
    ids=[
        "zero-chain-vector", "bottom-chain-order", "two-edge-polygon", "order-one-polar-part",
        "empty-polar-part", "empty-simple-pole-part", "no-pieces",
    ],
)
def test_surface_violation(tmp_path, pieces, violation):
    surface = FlatSurface(pieces)
    with pytest.raises(VerificationError) as caught:
        verify_surface(surface)
    assert caught.value.violations == (violation,)
    cert = ConstructionCertificate(surface, (), Profile(0, (), ()))
    code, out = run_cli(["verify"], tmp_path, _certificate_to_json(cert))
    assert code == 1 and out["violations"] == [violation]


@pytest.mark.parametrize(
    "stratum, violation",
    [
        ({"genus": -1, "zeros": [], "poles": [2]}, "genus must be nonnegative, got -1"),
        ({"genus": 0, "zeros": [-1], "poles": [2]}, "zero orders must be nonnegative"),
        ({"genus": 0, "zeros": [0], "poles": [1]}, "higher pole orders must be at least 2"),
        (
            {"genus": 0, "zeros": [0], "poles": [2], "simple_poles": -1},
            "simple pole count must be nonnegative",
        ),
    ],
    ids=["negative-genus", "negative-zero", "order-one-pole", "negative-simple-poles"],
)
def test_structural_stratum_violation(tmp_path, capsys, stratum, violation):
    # The residue tuple also has the wrong length: the structural message
    # comes alone, as validate_residues stops before the length check.
    sig = StratumSignature(
        stratum["genus"], stratum["zeros"], stratum["poles"], stratum.get("simple_poles", 0)
    )
    with pytest.raises(ValueError) as caught:
        decide_realizable(sig, residue_tuple([1, 2, 3]))
    assert str(caught.value) == violation
    capsys.readouterr()
    code, _ = run_cli(["decide"], tmp_path, {"stratum": stratum, "residues": [1, 2, 3]})
    assert code == 2
    assert capsys.readouterr().err == f"error: {violation}\n"


def _certificate_doc(tmp_path, **changes):
    doc = {
        "stratum": {"genus": 1, "zeros": [4], "poles": [2, 2], "simple_poles": 0},
        "residues": [0, 0],
    }
    _, cert = run_cli(["witness"], tmp_path, doc, name="request.json")
    cert.update(changes)
    return cert


def _boolean_pole_type(tmp_path):
    cert = _certificate_doc(tmp_path)
    piece = cert["surface"]["pieces"][0]
    assert piece["kind"] == "polar_part" and piece["type"] == 1
    piece["type"] = True
    return cert


def _boolean_surgery_zero(tmp_path):
    doc = {
        "stratum": {"genus": 0, "zeros": [1, 1], "poles": [], "simple_poles": 4},
        "residues": [3, -1, -1, -1],
    }
    _, cert = run_cli(["witness"], tmp_path, doc, name="request.json")
    assert cert["surgeries"] == [{"op": "blow_up_zero", "zero": 0, "parts": [1, 1]}]
    cert["surgeries"][0]["zero"] = False
    return cert


def _boolean_claimed_pole_order(tmp_path):
    cert = _certificate_doc(tmp_path)
    cert["claimed_profile"]["poles"][0]["order"] = True
    return cert


def _request(residues=(1, -1), **stratum):
    return {
        "stratum": {"genus": 0, "zeros": [0], "poles": [], "simple_poles": 2, **stratum},
        "residues": residues,
    }


def _cylinders(genus, zeros, circumferences, simple_poles=0):
    stratum = {"genus": genus, "zeros": zeros, "poles": [], "simple_poles": simple_poles}
    return lambda tmp: {"stratum": stratum, "circumferences": circumferences}


def _certificate_with(part, **changes):
    """A maker of a certificate document with fields of its ``part`` replaced."""

    def make(tmp_path):
        cert = _certificate_doc(tmp_path)
        cert[part].update(changes)
        return cert

    return make


@pytest.mark.parametrize(
    "command, make_doc, line",
    [
        (
            ["verify"],
            lambda tmp: _certificate_doc(tmp, node_pairings=[]),
            "$.node_pairings: unexpected field in a format 4 certificate",
        ),
        (
            ["verify"],
            lambda tmp: _certificate_doc(tmp, bases=[]),
            "$.bases: unexpected field in a format 4 certificate",
        ),
        (
            ["verify"],
            lambda tmp: _certificate_doc(tmp, family=None),
            "$.family: unexpected field in a format 4 certificate",
        ),
        (
            ["verify"],
            lambda tmp: _certificate_doc(
                tmp, family={"name": "zero-residue-chain", "pole_orders": [2, 2], "taus": [1, 1]}
            ),
            "$.family: unexpected field in a format 4 certificate",
        ),
        (
            ["verify"],
            lambda tmp: _certificate_doc(tmp, surgeries=7),
            "$.surgeries: expected a list",
        ),
        (
            ["verify"],
            _boolean_pole_type,
            "$.surface.pieces[0]: polar parts need integer 'order' and 'type'",
        ),
        (["verify"], _boolean_surgery_zero, "$.surgeries[0].zero: expected an integer"),
        (
            ["verify"],
            _boolean_claimed_pole_order,
            "$.claimed_profile.poles[0]: expected an object with 'order'",
        ),
        (
            ["table"],
            lambda tmp: {"s_max": 4, "max_zero": "x"},
            "$.max_zero: expected an integer or null",
        ),
        (
            ["table"],
            lambda tmp: {"s_max": 3, "max_zero": True},
            "$.max_zero: expected an integer or null",
        ),
        (
            ["oracle-check"],
            lambda tmp: {"s_max": "x"},
            "$.s_max: expected an integer of at least 2",
        ),
        (
            ["oracle-check"],
            lambda tmp: {"s_max": True},
            "$.s_max: expected an integer of at least 2",
        ),
        (
            ["oracle-check"],
            lambda tmp: {"entry_bound": [1]},
            "$.entry_bound: expected a positive integer",
        ),
        (["oracle-check"], lambda tmp: {"s_max": 1}, "$.s_max: expected an integer of at least 2"),
        (
            ["oracle-check"],
            lambda tmp: {"entry_bound": 0},
            "$.entry_bound: expected a positive integer",
        ),
        (
            ["decide"],
            lambda tmp: {
                "stratum": {"genus": 0, "zeros": [0], "poles": [], "simple_poles": 2},
                "residues": [[True, 1], -1],
            },
            "$.residues[0]: expected an integer or a [numerator, denominator] pair",
        ),
        (
            ["decide"],
            lambda tmp: _request([True, -1]),
            "$.residues[0]: expected a rational, got a boolean",
        ),
        (["decide"], lambda tmp: _request([[1, 0], -1]), "$.residues[0]: zero denominator"),
        (
            ["decide"],
            lambda tmp: _request([{"re": 1, "x": 2}, -1]),
            "$.residues[0]: unexpected fields ['x']",
        ),
        (["decide"], lambda tmp: _request(7), "$.residues: expected a list"),
        (["decide"], lambda tmp: _request(genus="0"), "$.stratum.genus: expected an integer"),
        (
            ["decide"],
            lambda tmp: _request(simple_poles=[2]),
            "$.stratum.simple_poles: expected an integer",
        ),
        (["decide"], lambda tmp: _request(zeros=0), "$.stratum.zeros: expected a list of integers"),
        (
            ["decide"],
            lambda tmp: [_request()],
            "$: expected an object with 'stratum' and 'residues'",
        ),
        (
            ["witness"],
            lambda tmp: {**_request(), "rotation": "1"},
            "$.rotation: expected an integer or null",
        ),
        (["verify"], lambda tmp: [], "$: expected a certificate object"),
        (
            ["verify"],
            lambda tmp: _certificate_doc(tmp, surface=[]),
            "$.surface: expected a surface object",
        ),
        (["verify"], _certificate_with("surface", pieces={}), "$.surface.pieces: expected a list"),
        (
            ["verify"],
            _certificate_with("surface", pieces=[{"edges": []}]),
            "$.surface.pieces[0]: expected a piece object with a 'kind'",
        ),
        (
            ["verify"],
            _certificate_with("surface", pieces=[{"kind": "disk"}]),
            "$.surface.pieces[0].kind: unknown piece kind 'disk'",
        ),
        (
            ["verify"],
            _certificate_with("surface", pairings={}),
            "$.surface.pairings: expected a list",
        ),
        (
            ["verify"],
            _certificate_with("surface", pairings=[[1]]),
            "$.surface.pairings[0]: expected [[piece, slot], [piece, slot]]",
        ),
        (
            ["verify"],
            _certificate_with("surface", pairings=[[[0, 0, 1], [0, 1]]]),
            "$.surface.pairings[0][0]: expected [piece, slot]",
        ),
        (
            ["verify"],
            lambda tmp: _certificate_doc(tmp, claimed_profile=[]),
            "$.claimed_profile: expected a profile object",
        ),
        (
            ["verify"],
            _certificate_with("claimed_profile", poles={}),
            "$.claimed_profile.poles: expected a list",
        ),
        (
            ["verify"],
            _certificate_with("claimed_profile", genus="0"),
            "$.claimed_profile.genus: expected an integer",
        ),
        (
            ["verify"],
            lambda tmp: _certificate_doc(tmp, surgeries=[{"zero": 0}]),
            "$.surgeries[0]: expected an object with an 'op'",
        ),
        (
            ["verify"],
            lambda tmp: _certificate_doc(tmp, surgeries=[{"op": "twist", "zero": 0}]),
            "$.surgeries[0].op: unknown surgery 'twist'",
        ),
        (
            ["verify"],
            lambda tmp: _certificate_doc(tmp, surgeries=[{"op": "sew_handle", "zero": 0}]),
            "$.surgeries[0].op: unknown surgery 'sew_handle'",
        ),
        (
            ["verify"],
            lambda tmp: _certificate_doc(tmp, surgeries=[{"op": "sew_handle"}]),
            "$.surgeries[0].op: unknown surgery 'sew_handle'",
        ),
        (
            ["verify"],
            lambda tmp: _certificate_doc(tmp, claimed_rotation="1"),
            "$.claimed_rotation: expected an integer or null",
        ),
        (["table"], lambda tmp: [4], "$: expected an object"),
        (["oracle-check"], lambda tmp: [4], "$: expected an object"),
        (
            ["table"],
            lambda tmp: {"s_min": 5, "s_max": 4},
            "$.s_min/s_max: expected integers with s_min <= s_max",
        ),
        (
            ["table"],
            lambda tmp: {"s_min": 0, "s_max": 3},
            "$.s_min: expected an integer of at least 2",
        ),
        (["cylinders"], lambda tmp: [], "$: expected an object"),
        (
            ["table", "--max-zero", "-1", "--s-max", "3"],
            lambda tmp: None,
            "$.max_zero: expected a nonnegative integer or null",
        ),
        (
            ["table"],
            lambda tmp: {"s_max": 3, "max_zero": -1},
            "$.max_zero: expected a nonnegative integer or null",
        ),
        (
            ["cylinders"],
            _cylinders(0, [2], [1], simple_poles=4),
            "disjoint cylinders require a holomorphic stratum",
        ),
        (
            ["cylinders"],
            _cylinders(3, [3], [1]),
            "degree identity violated: sum of orders is 3, expected 4",
        ),
        (
            ["cylinders"],
            _cylinders(2, [2], [1, 1, 1, 1]),
            "4 disjoint cylinders exceed the maximal count 2",
        ),
        (
            ["cylinders"],
            _cylinders(1, [], [1, 1]),
            "2 disjoint cylinders exceed the maximal count 1",
        ),
        (
            ["cylinders"],
            _cylinders(2, [2], [1, 0]),
            "circumferences must be a nonempty tuple of nonzero values",
        ),
    ],
    ids=[
        "format-1-node-pairings",
        "format-1-bases",
        "format-2-null-family",
        "format-2-family",
        "surgeries-not-a-list",
        "boolean-type",
        "boolean-surgery-zero",
        "boolean-claimed-pole-order",
        "table-max-zero",
        "table-boolean-max-zero",
        "oracle-check-string-s-max",
        "oracle-check-boolean-s-max",
        "oracle-check-list-entry-bound",
        "oracle-check-empty-sweep-s-max",
        "oracle-check-empty-sweep-entry-bound",
        "boolean-numerator",
        "boolean-residue",
        "zero-denominator",
        "residue-field",
        "residues-not-a-list",
        "string-genus",
        "list-simple-poles",
        "integer-zeros",
        "request-not-an-object",
        "string-rotation",
        "certificate-not-an-object",
        "surface-not-an-object",
        "pieces-not-a-list",
        "piece-without-kind",
        "unknown-piece-kind",
        "pairings-not-a-list",
        "short-pairing",
        "long-slot",
        "claimed-profile-not-an-object",
        "claimed-poles-not-a-list",
        "string-claimed-genus",
        "surgery-without-op",
        "unknown-surgery",
        "format-3-sew-handle",
        "unknown-surgery-without-zero",
        "string-claimed-rotation",
        "table-not-an-object",
        "oracle-check-not-an-object",
        "table-empty-range",
        "table-s-min-below-two",
        "cylinders-not-an-object",
        "table-negative-max-zero-option",
        "table-negative-max-zero",
        "cylinders-meromorphic-stratum",
        "cylinders-invalid-stratum",
        "cylinders-past-the-maximal-count",
        "cylinders-plain-torus-past-one",
        "cylinders-zero-circumference",
    ],
)
def test_every_failure_is_status_two_with_one_error_line(
    tmp_path, capsys, command, make_doc, line
):
    doc = make_doc(tmp_path)
    capsys.readouterr()
    code, _ = run_cli(command, tmp_path, doc)
    err = capsys.readouterr().err
    assert code == 2
    assert "Traceback" not in err
    assert err == f"error: {line}\n"


@pytest.mark.parametrize(
    "residues, code",
    [([1, {"im": 1}, -1, {"im": -1}], 0), ([1, 1, -1, -1], 1)],
    ids=["realizable", "excluded-ray"],
)
def test_witness_decides_once(residues, code):
    """``witness`` runs the decider once on H_0(2, -1^4), and on a "no"
    writes the very document ``decide`` writes."""
    stratum = {"genus": 0, "zeros": [2], "poles": [], "simple_poles": 4}
    doc = {"stratum": stratum, "residues": residues}
    outputs = []
    for command in ("witness", "decide"):
        out = io.StringIO()
        wrapped = mock.patch(
            "resflat.decide.decide_realizable", wraps=resflat.decide.decide_realizable
        )
        with mock.patch("sys.stdin", io.StringIO(json.dumps(doc))), wrapped as decide:
            with contextlib.redirect_stdout(out):
                assert main([command, "-"]) == code
        assert decide.call_count == 1
        outputs.append(out.getvalue())
    assert (outputs[0] == outputs[1]) == (code == 1)


def test_huge_residues_round_trip(tmp_path):
    big = 10**400
    doc = {
        "stratum": {"genus": 0, "zeros": [2], "poles": [], "simple_poles": 4},
        "residues": [{"re": big}, {"im": big}, {"re": -big}, {"im": -big}],
    }
    code, cert = run_cli(["witness"], tmp_path, doc)
    assert code == 0
    code, out = run_cli(["verify"], tmp_path, cert, name="cert.json")
    assert code == 0 and out["profile"]["zeros"] == [2]
    assert [pole["residue"] for pole in out["profile"]["poles"]] == [
        {"re": [big, 1], "im": [0, 1]},
        {"re": [0, 1], "im": [big, 1]},
        {"re": [-big, 1], "im": [0, 1]},
        {"re": [0, 1], "im": [-big, 1]},
    ]


# The JSON contract: a mutated certificate document, with fields deleted or
# replaced by nulls, booleans, huge integers, zero denominators or values of
# the wrong shape, is verified (0), violated (1) or refused (2), never an
# internal error.  The first base puts the prime denominators 2, 3, 5 and 7
# on separate pieces, which the codec's one lcm per surface joins.
HALF = Fraction(1, 2)
FUZZ_BASES = [
    _certificate_to_json(build_witness(sig, residue_tuple(values), rotation=rotation))
    for sig, values, rotation in (
        (
            StratumSignature(0, (3,), (), 5),
            [
                Fraction(1, 2),
                QQi(0, Fraction(1, 3)),
                Fraction(-1, 5),
                QQi(0, Fraction(-1, 7)),
                QQi(Fraction(-3, 10), Fraction(-4, 21)),
            ],
            None,
        ),
        (StratumSignature(0, (2, 2), (), 6), [Fraction(m, 3) for m in (2, 1, 1, -1, -1, -2)], None),
        (StratumSignature(0, (3,), (3,), 2), [QQi(1, HALF), QQi(0, 1), QQi(-1, -3 * HALF)], None),
        (StratumSignature(2, (3, 3, 0), (2,), 2), [QQi(1, 1), QQi(HALF), QQi(-3 * HALF, -1)], None),
        (StratumSignature(1, (4, 0), (2, 2)), [0, 0], 2),
    )
] + [EXCLUDED_RAY_GLUING]
ODD_VALUES = [None, True, False, 10**400, -(10**400), [5, 0], -1, 0.5, "x"]
ODD_VALUES += [[], {}, [1, 2, 3], [[0, 1]], {"re": [1, 0]}]


def _locations(doc, path=()):
    """Every location below the root of a JSON document, as key paths."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield path + (key,)
        yield from _locations(value, path + (key,))


def _in_process(command, doc):
    """The exit status and the stderr of ``resflat <command> -`` on a document."""
    err = io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(json.dumps(doc))):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([command, "-"])
    return code, err.getvalue()


def _mutated(data, bases):
    """One of the documents, with one to three locations deleted or set to
    an odd value."""
    doc = json.loads(json.dumps(data.draw(st.sampled_from(bases))))
    for _ in range(data.draw(st.integers(1, 3))):
        locations = list(_locations(doc))
        if not locations:
            break
        *head, key = data.draw(st.sampled_from(locations))
        parent = doc
        for step in head:
            parent = parent[step]
        if data.draw(st.booleans()):
            del parent[key]
        else:
            parent[key] = json.loads(json.dumps(data.draw(st.sampled_from(ODD_VALUES))))
    return doc


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_mutated_certificates_keep_the_exit_contract(data):
    code, err = _in_process("verify", _mutated(data, FUZZ_BASES))
    assert code in (0, 1, 2)
    assert "internal error" not in err


# The same contract for request documents: a mutated decide request is
# realizable (0), not realizable (1) or refused (2), never an internal error.
DECIDE_FUZZ_BASES = [
    {
        "stratum": {"genus": 0, "zeros": [5], "poles": [], "simple_poles": 7},
        "residues": [3, 1, 1, 1, -2, -2, -2],
    },
    {
        "stratum": {"genus": 0, "zeros": [2, 2], "poles": [], "simple_poles": 6},
        "residues": [[2, 3], [1, 3], [1, 3], [-1, 3], [-1, 3], [-2, 3]],
    },
    {
        "stratum": {"genus": 0, "zeros": [1, 1], "poles": [], "simple_poles": 4},
        "residues": [{"re": 1, "im": [1, 2]}, {"im": 1}, -1, {"re": [0, 1], "im": [-3, 2]}],
    },
    {
        "stratum": {"genus": 0, "zeros": [4], "poles": [2, 2, 2], "simple_poles": 0},
        "residues": [0, 0, 0],
    },
    {
        "stratum": {"genus": 0, "zeros": [3], "poles": [3], "simple_poles": 2},
        "residues": [{"re": 1, "im": [1, 2]}, {"im": 1}, {"re": -1, "im": [-3, 2]}],
    },
    {
        "stratum": {"genus": 2, "zeros": [3, 3, 0], "poles": [2], "simple_poles": 2},
        "residues": [[1, 2], 1, [-3, 2]],
    },
]


# Zeros of order 4 exceed what three double poles allow a zero tuple.
REQUEST_FUZZ_CODES = [(c, "") for c in (0, 0, 0, 1, 0, 0)]


def test_decide_fuzz_bases_are_decided():
    assert [_in_process("decide", doc) for doc in DECIDE_FUZZ_BASES] == REQUEST_FUZZ_CODES


def test_witness_fuzz_bases_are_built():
    assert [_in_process("witness", doc) for doc in DECIDE_FUZZ_BASES] == REQUEST_FUZZ_CODES


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_mutated_decide_requests_keep_the_exit_contract(data):
    code, err = _in_process("decide", _mutated(data, DECIDE_FUZZ_BASES))
    assert code in (0, 1, 2)
    assert "internal error" not in err and "Traceback" not in err


# witness decodes the same requests and then builds with the records.
@given(st.data())
@settings(max_examples=300, deadline=None)
def test_mutated_witness_requests_keep_the_exit_contract(data):
    code, err = _in_process("witness", _mutated(data, DECIDE_FUZZ_BASES))
    assert code in (0, 1, 2)
    assert "internal error" not in err and "Traceback" not in err

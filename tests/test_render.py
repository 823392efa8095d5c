"""Deterministic SVG output: structure, labels, validation."""

import hashlib
import xml.etree.ElementTree as ET

import pytest
from conftest import NOT_TRIANGLES, refuses_by_name

from tonnetz.core import format_window
from tonnetz.lattice import BASE_TRIANGLE, Triangle, perm_of, triangle_ball
from tonnetz.render import MAX_PATH_LETTERS, LabelMode, RenderSpec, render_svg

NS = {"svg": "http://www.w3.org/2000/svg"}


def parse(doc: str) -> ET.Element:
    return ET.fromstring(doc)


def texts(root: ET.Element) -> list[str]:
    return [el.text or "" for el in root.iter("{http://www.w3.org/2000/svg}text")]


def test_byte_identical_output():
    spec = RenderSpec(BASE_TRIANGLE, 2, path="RL")
    assert render_svg(spec) == render_svg(spec)


def test_well_formed_xml():
    for mode in LabelMode:
        doc = render_svg(RenderSpec(BASE_TRIANGLE, 2, label_mode=mode))
        root = parse(doc)
        assert root.tag == "{http://www.w3.org/2000/svg}svg"
        assert "viewBox" in root.attrib


def test_radius_zero_single_triangle():
    doc = render_svg(RenderSpec(BASE_TRIANGLE, 0))
    root = parse(doc)
    polygons = root.findall(".//svg:polygon", NS)
    assert len(polygons) == 1
    # three vertex labels
    assert sorted(texts(root)) == ["C", "E", "G"]


def test_note_labels_radius_two():
    doc = render_svg(RenderSpec(BASE_TRIANGLE, 2))
    labels = set(texts(parse(doc)))
    assert labels == {
        "C", "G", "F", "D", "E", "A", "B", "Ab", "Eb", "Bb", "C#", "G#",
    }


def test_window_labels():
    doc = render_svg(RenderSpec(BASE_TRIANGLE, 2, label_mode=LabelMode.WINDOWS))
    labels = texts(parse(doc))
    assert "-1,0,1" in labels
    assert "-3,1,2" in labels
    assert len(labels) == 10  # one per triangle of the radius-two ball


def test_chord_labels():
    doc = render_svg(RenderSpec(BASE_TRIANGLE, 1, label_mode=LabelMode.CHORDS))
    labels = texts(parse(doc))
    assert sorted(labels) == ["Am", "C", "Cm", "Em"]


def test_triangle_count_radius_two():
    doc = render_svg(RenderSpec(BASE_TRIANGLE, 2))
    root = parse(doc)
    assert len(root.findall(".//svg:polygon", NS)) == 10


def overlays(spec: RenderSpec) -> list[ET.Element]:
    """The polygons drawn over the grid: only those carry a fill-opacity."""
    polygons = parse(render_svg(spec)).findall(".//svg:polygon", NS)
    return [p for p in polygons if p.get("fill-opacity")]


def test_highlights_add_overlay_polygons():
    plain = render_svg(RenderSpec(BASE_TRIANGLE, 1))
    both = (BASE_TRIANGLE, Triangle((0, 0), up=False))
    lit = render_svg(RenderSpec(BASE_TRIANGLE, 1, highlights=both))
    n_plain = len(parse(plain).findall(".//svg:polygon", NS))
    n_lit = len(parse(lit).findall(".//svg:polygon", NS))
    assert n_lit == n_plain + 2


def test_highlight_overlay_fill():
    (overlay,) = overlays(RenderSpec(BASE_TRIANGLE, 1, highlights=(BASE_TRIANGLE,)))
    assert overlay.get("fill") == "#f4b860"
    assert overlay.get("points") == "0.00,0.00 100.00,0.00 50.00,-86.60"


def test_highlight_outside_the_ball_draws_no_overlay():
    far = Triangle((5, 0), True)
    spec = RenderSpec(BASE_TRIANGLE, 1, highlights=(far,))
    assert not overlays(spec)
    assert render_svg(spec) == render_svg(RenderSpec(BASE_TRIANGLE, 1))


def test_path_draws_marker_and_lines():
    doc = render_svg(RenderSpec(BASE_TRIANGLE, 2, path="RL"))
    root = parse(doc)
    assert root.findall(".//svg:marker", NS)
    lines = root.findall(".//svg:line", NS)
    assert len(lines) == 2
    circles = root.findall(".//svg:circle", NS)
    assert circles  # start dot plus vertex dots


def test_path_segments_connect_centroids():
    doc = render_svg(RenderSpec(BASE_TRIANGLE, 2, path="P"))
    root = parse(doc)
    (line,) = root.findall(".//svg:line", NS)
    assert (line.get("x1"), line.get("y1")) != (line.get("x2"), line.get("y2"))


def test_spec_validation():
    with pytest.raises(ValueError):
        RenderSpec(BASE_TRIANGLE, -1)
    with pytest.raises(ValueError):
        RenderSpec(BASE_TRIANGLE, 1, path="PLQ")
    # no flip reaches a triangle off the lattice
    with pytest.raises(ValueError, match="not a lattice triangle"):
        render_svg(RenderSpec(Triangle((0.5, 0), True), 1))
    with pytest.raises(ValueError, match="not a lattice triangle"):
        render_svg(RenderSpec(Triangle((0, 0), 1), 1))


# the centre, and each highlight, which used to draw nothing if bad
SPEC_TRIANGLES = {
    "center": lambda t: RenderSpec(t, 1),
    "highlights": lambda t: RenderSpec(BASE_TRIANGLE, 1, highlights=(BASE_TRIANGLE, t)),
}


@pytest.mark.parametrize("value", NOT_TRIANGLES, ids=repr)
@pytest.mark.parametrize("call", SPEC_TRIANGLES.values(), ids=SPEC_TRIANGLES)
def test_spec_refuses_what_is_not_a_triangle(call, value):
    refuses_by_name(call, value)


def test_spec_checks_a_replaced_field():
    spec = RenderSpec(BASE_TRIANGLE, 1)
    # _replace builds its copy with _make, which used to skip every check:
    # render then drew Triangle((0, 0), 2) as an up triangle
    for field in ({"center": Triangle((0, 0), 2)}, {"highlights": ("junk",)}, {"path": "Q"}):
        with pytest.raises(ValueError):
            spec._replace(**field)
    assert spec._replace(radius=2) == RenderSpec(BASE_TRIANGLE, 2)


@pytest.mark.parametrize(
    "fields",
    [
        {"label_mode": "windows"},
        {"label_mode": None},
        {"radius": 1.5},
        {"radius": "2"},
        {"radius": None},
    ],
    ids=repr,
)
def test_spec_checks_label_mode_and_radius_type(fields):
    # "windows" used to draw chord labels, 1.5 to fail only in render_svg,
    # "2" to raise a bare TypeError from the sign check
    with pytest.raises(ValueError, match="must be an int|must be a LabelMode"):
        RenderSpec(BASE_TRIANGLE, **{"radius": 1, **fields})
    with pytest.raises(ValueError, match="must be an int|must be a LabelMode"):
        RenderSpec(BASE_TRIANGLE, 1)._replace(**fields)


def test_spec_caps_the_path():
    assert RenderSpec(BASE_TRIANGLE, 0, path="PL" * (MAX_PATH_LETTERS // 2)).path
    # the length is refused before any letter is read
    for path in ("P" * (MAX_PATH_LETTERS + 1), "Q" * (MAX_PATH_LETTERS + 1)):
        with pytest.raises(ValueError, match=f"path has {MAX_PATH_LETTERS + 1} letters"):
            RenderSpec(BASE_TRIANGLE, 0, path=path)


def test_no_external_references():
    doc = render_svg(RenderSpec(BASE_TRIANGLE, 3, path="RLP"))
    assert "http" not in doc.replace("http://www.w3.org/2000/svg", "")


def test_other_center_is_translated_copy():
    here = render_svg(RenderSpec(BASE_TRIANGLE, 1, label_mode=LabelMode.CHORDS))
    there = render_svg(
        RenderSpec(Triangle((1, 1), up=True), 1, label_mode=LabelMode.CHORDS)
    )
    assert sorted(texts(parse(here))) == ["Am", "C", "Cm", "Em"]
    assert sorted(texts(parse(there))) == ["B", "Bm", "D#m", "G#m"]


# --- the ball render draws --------------------------------------------------

# an up and a down centre, a negative root and a root near 10^12
BALL_CENTRES = [
    BASE_TRIANGLE,
    Triangle((0, 0), False),
    Triangle((3, -7), False),
    Triangle((-(10**12), 5 * 10**11), True),
]


def window_labels(center: Triangle, radius: int) -> list[str]:
    return texts(parse(render_svg(RenderSpec(center, radius, label_mode=LabelMode.WINDOWS))))


def bfs_window_labels(center: Triangle, radius: int) -> list[str]:
    """The breadth-first ball in render's order, each triangle labelled
    with its own window by lattice's route from triangle to element."""
    return [format_window(perm_of(t)).strip("[]") for t in sorted(triangle_ball(center, radius))]


def test_render_draws_the_bfs_ball():
    for center in BALL_CENTRES:
        for radius in range(17):
            assert window_labels(center, radius) == bfs_window_labels(center, radius), (
                center,
                radius,
            )
    center = Triangle((-5, 9), True)
    assert window_labels(center, 64) == bfs_window_labels(center, 64)


# sha256 of render_svg's document, by centre, label mode and radius; recorded
# when render still searched its ball breadth first, and unchanged by the
# strip rows and then core.ball that drew it since
PIN_CENTRES = {"down": Triangle((3, -7), False), "far": Triangle((-4_000_000, 1_000_000), True)}
SVG_PINS = {
    ("down", "notes", 0): "e4a6eb30005250b36169145d603715a9681abf5413cae0c840766dbd4c2d4247",
    ("down", "notes", 1): "1ca8470def2b11a6688f90f7760f58535b9458d4fcf4cb86d93c72025f21bae9",
    ("down", "notes", 8): "1530ec407f3b33fedd0e1e28e638f5fe8446fd117e881bd090fbca426cd82a59",
    ("down", "notes", 64): "d660c998483fbc74fd6a038b2986e2f75c4902d33ce54739069cba563ea0fdef",
    ("down", "windows", 0): "1dff48a285a963ed957f0adb6bae8ac8f0daf79c887c0d7368f4bcbe2053d1d8",
    ("down", "windows", 1): "4f089e3e4c5e6a6ee4db51c0f89e639d3638f77da99bf1cc4cdd9aeae8e9d4f0",
    ("down", "windows", 8): "673b52c944f4fc6c2e36f444458e98f71086926238d371cdf13ab47bdca70ed1",
    ("down", "windows", 64): "1609a05a25ec3cfd2786ed73a56dcbd47c9533f7f874251216c93953f3e228c8",
    ("down", "chords", 0): "c90fc7ea951b4300702942d30183d03fb63732e9543ca40032555905b4c53621",
    ("down", "chords", 1): "45efdd0b579b6d3f348fa035724e29f962ce9e24023b811818a7efbd4d6485a8",
    ("down", "chords", 8): "63e4c99e6dd89464a4a4ce069bd2297cc851999bcdde825bee171223572b81ad",
    ("down", "chords", 64): "12c731c9b99540741841951d92eba475c36ee24c455c485396bdfc18c2bbfbb0",
    ("far", "notes", 0): "3c5ba91b6607b396f37669a7f95469a79e7a6b3953ebbc5acf6b7eced2f5e1e6",
    ("far", "notes", 1): "48909b00d3e3c6a5e4c4f43df363889b509fc092af3da74d728f137d6a7894fb",
    ("far", "notes", 8): "867c6968908b303b455ba21bbe6da5057d760678f7bbf7559f1b439e349f484e",
    ("far", "notes", 64): "ea8a460d3b617d9bd8ec172dba497a84ae60ef36104c4876dab8ecea873701af",
    ("far", "windows", 0): "3ad220e5c06ad9655156091f4971219f2ad26b2de642381455bb7e6150bb2c76",
    ("far", "windows", 1): "11b5ef2a19267657de56e69318900035fae365e8efc661276491ed57b0b1aa74",
    ("far", "windows", 8): "4601b79f869f26e25cc950e2cb5196c41de0d65ae84b0b35c4b4c7eb0fa6f47b",
    ("far", "windows", 64): "250b76bae1b87af7e3159805b8be809168c8efa8f80b4668a2153483f9ee4e27",
    ("far", "chords", 0): "f38b5967eeb95f1ee62ba33d3a447c7ea75085597771cddffd983e13d453a141",
    ("far", "chords", 1): "48a7cc07544e28770a03478b22eb5ac1a1b0a469843d1d38d48ec4aebf7621ee",
    ("far", "chords", 8): "e29451347e4f8f0cf011887b9ca70040995b7351b8ffd2c667401b20bf4f7c46",
    ("far", "chords", 64): "5ba3dc09ec03295badc8f8e1b9f3bfd65b03be51b115986736a1cc445c217361",
}
PATH_PIN = "68641dcc8f3f99f45e2f6bbfe044f27e3b571484f097a3471a285c4481c39457"


@pytest.mark.parametrize("name, center", PIN_CENTRES.items(), ids=PIN_CENTRES)
def test_svg_bytes_are_pinned(name, center):
    for mode in LabelMode:
        for radius in (0, 1, 8, 64):
            doc = render_svg(RenderSpec(center, radius, label_mode=mode))
            digest = hashlib.sha256(doc.encode()).hexdigest()
            assert digest == SVG_PINS[name, mode.value, radius], (mode, radius)


def test_svg_with_path_is_pinned():
    center = PIN_CENTRES["down"]
    doc = render_svg(RenderSpec(center, 8, highlights=(center,), path="PLRLPRRL"))
    assert hashlib.sha256(doc.encode()).hexdigest() == PATH_PIN

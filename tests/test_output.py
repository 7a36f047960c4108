from __future__ import annotations

import xml.etree.ElementTree as ET

import numpy as np
import pytest

from qwalk.graphs import build_graph, cycle_graph, path_graph
from qwalk.operators import walk_step, walk_unitary
from qwalk.output import render_svg, write_csv, write_matrix_csv
from qwalk.scenarios import FidelitySeries, Scenario, paper_suite, run_scenario

from .oracles import (
    random_simple_graph,
    reference_render_svg,
    reference_write_csv,
    reference_write_matrix_csv,
)


def read_rows(path):
    lines = path.read_text().splitlines()
    return lines[0], [line.split(",") for line in lines[1:]]


def test_csv_noiseless_layout(tmp_path):
    series = run_scenario(
        Scenario(graph="path", size=(5,), sender=0, mode="periodicity", steps=2)
    )
    path = tmp_path / "series.csv"
    write_csv(series, path)
    header, rows = read_rows(path)
    assert header == "t,fidelity_noiseless,fidelity_noisy"
    assert len(rows) == 3
    assert rows[0] == ["0", "1", ""]


def test_csv_noisy_column_filled(tmp_path):
    series = FidelitySeries(noiseless=np.array([1.0, 0.25]), noisy=np.array([1.0, 0.2]))
    path = tmp_path / "series.csv"
    write_csv(series, path)
    _, rows = read_rows(path)
    assert rows[1] == ["1", "0.25", "0.2"]


def test_csv_round_trip_at_12_digits(tmp_path):
    rng = np.random.default_rng(61)
    values = rng.random(50)
    series = FidelitySeries(noiseless=values, noisy=rng.random(50))
    path = tmp_path / "series.csv"
    write_csv(series, path)
    _, rows = read_rows(path)
    for t, row in enumerate(rows):
        for col, reference in ((1, series.noiseless), (2, series.noisy)):
            reparsed = float(row[col])
            assert f"{reparsed:.12g}" == row[col]
            assert abs(reparsed - reference[t]) <= 1e-12 * max(1.0, reference[t])


def test_csv_columns_identical_for_transparent_scenario(tmp_path):
    # path transfer with a dephasing channel: the walker never leaves the
    # basis, so both columns must print identically
    series = run_scenario(
        Scenario(graph="path", size=(5,), sender=0, receiver=4,
                 receiver_mode="outgoing", noise="rtn", steps=100)
    )
    path = tmp_path / "series.csv"
    write_csv(series, path)
    _, rows = read_rows(path)
    assert all(row[1] == row[2] for row in rows)


def test_csv_deterministic_bytes(tmp_path):
    series = run_scenario(
        Scenario(graph="cycle", size=(6,), sender=0, receiver=3,
                 receiver_mode="outgoing", noise="rtn", steps=30)
    )
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(series, first)
    write_csv(series, second)
    assert first.read_bytes() == second.read_bytes()


def test_svg_well_formed_and_curve_cardinality(tmp_path):
    series = run_scenario(
        Scenario(graph="star", size=(6,), sender=0, receiver=1,
                 receiver_mode="outgoing", noise="oun", steps=100)
    )
    path = tmp_path / "series.svg"
    render_svg(series, path, title="star transfer <0 to 1>")
    root = ET.parse(path).getroot()  # raises on malformed XML
    assert root.tag.endswith("svg")
    polylines = root.findall(".//{http://www.w3.org/2000/svg}polyline")
    assert len(polylines) == 2
    for polyline in polylines:
        assert len(polyline.get("points").split()) == 101


def test_svg_single_point_gets_marker(tmp_path):
    series = FidelitySeries(noiseless=np.array([0.75]))
    path = tmp_path / "point.svg"
    render_svg(series, path, title="single point")
    root = ET.parse(path).getroot()
    circles = root.findall(".//{http://www.w3.org/2000/svg}circle")
    assert len(circles) == 1


def test_svg_legend_labels(tmp_path):
    series = FidelitySeries(noiseless=np.array([1.0, 0.5]), noisy=np.array([1.0, 0.4]))
    path = tmp_path / "legend.svg"
    render_svg(series, path, title="legend")
    text = path.read_text()
    assert ">noiseless</text>" in text
    assert ">noisy</text>" in text


def test_matrix_csv_format(tmp_path):
    path = tmp_path / "m.csv"
    write_matrix_csv(np.array([[1.0, -2.0 / 3.0], [0.0, 0.5]]), path)
    assert path.read_text() == "1.000000,-0.666667\n0.000000,0.500000\n"


def test_matrix_csv_rejects_non_matrix(tmp_path):
    with pytest.raises(ValueError, match="matrix"):
        write_matrix_csv(np.ones(4), tmp_path / "x.csv")


def test_matrix_csv_matches_the_per_element_writer_byte_for_byte(tmp_path):
    rng = np.random.default_rng(52)
    n = 9
    steps = [walk_step(cycle_graph(6), 0, 3), walk_step(path_graph(5), 0, 4),
             walk_step(build_graph(n, random_simple_graph(rng, n)), 0, n - 1)]
    negative_zeros = 0
    for step in steps:
        ops = walk_unitary(step)
        for matrix in (ops.coin, ops.shift, ops.unitary):
            write_matrix_csv(matrix, tmp_path / "new.csv")
            reference_write_matrix_csv(matrix, tmp_path / "old.csv")
            new = (tmp_path / "new.csv").read_bytes()
            assert new == (tmp_path / "old.csv").read_bytes()
            negative_zeros += new.count(b"-0.000000")
    assert negative_zeros > 0  # the signed zeros of C6 0->3 are printed as before


def _boundary_values(n: int) -> np.ndarray:
    # fidelities whose plot y = _TOP + plot_h * (1 - v) falls on a .xx5, the tie
    # that .2f must round; every other one is nudged an ulp to either side
    values = 1.0 - (0.005 + 11.25 * np.arange(n)) / 370.0
    values[1::4] = np.nextafter(values[1::4], 2.0)
    values[3::4] = np.nextafter(values[3::4], -1.0)
    return np.clip(values, 0.0, 1.0)


def _same_bytes(tmp_path, series, title):
    new_csv, old_csv = tmp_path / "new.csv", tmp_path / "old.csv"
    new_svg, old_svg = tmp_path / "new.svg", tmp_path / "old.svg"
    write_csv(series, new_csv)
    reference_write_csv(series, old_csv)
    render_svg(series, new_svg, title=title)
    reference_render_svg(series, old_svg, title=title)
    assert new_csv.read_bytes() == old_csv.read_bytes(), title
    assert new_svg.read_bytes() == old_svg.read_bytes(), title


def test_writers_match_the_per_element_writers_byte_for_byte(tmp_path):
    rng = np.random.default_rng(83)
    cases = [
        ("single point", FidelitySeries(noiseless=np.array([0.75]))),
        ("single noisy point", FidelitySeries(noiseless=np.array([1.0]), noisy=np.array([0.5]))),
        ("noiseless only", FidelitySeries(noiseless=rng.random(101))),
        ("extremes", FidelitySeries(noiseless=np.array([0.0, 1.0, 1e-300, 5e-324, 1.0 - 1e-16]),
                                    noisy=np.array([1e-300, 0.0, 1.0, 0.5, 1e-12]))),
        # 33 points: x steps by 740 / 32 = 23.125, a .xx5 under .2f
        ("x and y on .xx5", FidelitySeries(noiseless=_boundary_values(33),
                                           noisy=_boundary_values(33)[::-1].copy())),
        ("two points", FidelitySeries(noiseless=np.array([1.0, 0.125]),
                                      noisy=np.array([0.005, 0.995]))),
    ]
    for n in (2, 7, 26, 250, 1001):
        cases.append((f"random {n}", FidelitySeries(noiseless=rng.random(n), noisy=rng.random(n))))
    for title, series in cases:
        _same_bytes(tmp_path, series, title)
    for name, series in paper_suite():
        _same_bytes(tmp_path, series, name)


def test_svg_title_escaping_matches_saxutils(tmp_path):
    series = FidelitySeries(noiseless=np.array([1.0, 0.5]), noisy=np.array([1.0, 0.25]))
    for title in ("a&b<c>", "& < > \" '", "&amp; already escaped", "plain", ""):
        _same_bytes(tmp_path, series, title)
    render_svg(series, tmp_path / "t.svg", title="& < > \" '")
    assert ">&amp; &lt; &gt; \" '</text>" in (tmp_path / "t.svg").read_text()

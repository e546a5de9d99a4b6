import xml.etree.ElementTree as ET

import numpy as np
import pytest

from troppca.svgplot import scatter_svg


def circles(svg_text):
    root = ET.fromstring(svg_text)
    return root.findall(".//{http://www.w3.org/2000/svg}circle")


def test_one_circle_per_point():
    svg = scatter_svg([0.0, 1.0, 2.0], [1.0, 0.0, 2.0], xlabel="x", ylabel="y")
    assert len(circles(svg)) == 3


def test_deterministic_output():
    x = np.linspace(0, 1, 20)
    y = np.sin(x)
    assert scatter_svg(x, y, xlabel="a", ylabel="b") == scatter_svg(x, y, xlabel="a", ylabel="b")


def test_degenerate_bounds_do_not_crash():
    svg = scatter_svg([0.5, 0.5], [1.0, 1.0], xlabel="x", ylabel="y")
    assert len(circles(svg)) == 2


def test_groups_add_legend_swatches_and_counts():
    svg = scatter_svg([0, 1, 2, 3], [0, 1, 2, 3], groups=["a", "a", "a", "b"], xlabel="x", ylabel="y")
    # 4 data points + 2 legend swatches
    assert len(circles(svg)) == 6
    assert "a (3)" in svg and "b (1)" in svg

def test_group_colors_ordered_by_frequency():
    svg = scatter_svg([0, 1, 2], [0, 1, 2], groups=["rare", "common", "common"], xlabel="x", ylabel="y")
    assert svg.index("common (2)") < svg.index("rare (1)")


def test_labels_are_xml_escaped():
    svg = scatter_svg([0, 1, 2], [0, 1, 2], groups=["<&>", "<&>", "ok"],
                      xlabel="x&y", ylabel="a<b")
    ET.fromstring(svg)  # must stay well-formed
    assert "&lt;&amp;&gt;" in svg
    assert ">x&amp;y</text>" in svg and ">a&lt;b</text>" in svg


def test_shape_validation():
    with pytest.raises(ValueError):
        scatter_svg([0, 1], [0, 1, 2], xlabel="x", ylabel="y")
    with pytest.raises(ValueError):
        scatter_svg([0, 1], [0, 1], groups=["a"], xlabel="x", ylabel="y")

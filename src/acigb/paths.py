"""Lattice paths for monomials, and reflections across a piecewise boundary.

A monomial s with exponents bounded by a degree vector m corresponds to a
path of unit-width steps starting at the origin: exponent e on variable i
moves the path by 1 - e vertically, so the path ends at height n - deg(s).
The boundary line starts at -k/2 and has slope (3 - m_i)/2 on step i; heights
are stored doubled so everything stays in integers. Reflecting a path suffix
across the boundary realizes the degree pairing between monomials of degree d
and of degree sum(m) - n - d + k.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import check_degree_vector, check_power, enumerate_m_free

Heights = tuple  # vertex heights b_0..b_n, b_0 = 0, plain integers


@dataclass(frozen=True)
class ReflectionLine:
    """Piecewise-linear boundary with doubled integer heights y2[0..n]."""

    n: int
    m: tuple
    k: int
    y2: tuple

    @classmethod
    def build(cls, n: int, m, k: int) -> "ReflectionLine":
        m = check_degree_vector(m, n)
        check_power(k)
        y2 = [-k]
        for mi in m:
            y2.append(y2[-1] + 3 - mi)
        return cls(n, m, k, tuple(y2))


def path_from_monomial(mono) -> Heights:
    """Vertex heights of the path of an exponent tuple."""
    heights = [0]
    for e in mono:
        heights.append(heights[-1] + 1 - e)
    return tuple(heights)


def monomial_from_path(heights: Heights) -> tuple:
    """Inverse of path_from_monomial."""
    return tuple(1 - (b - a) for a, b in zip(heights, heights[1:]))


def is_admissible(heights: Heights, m) -> bool:
    """Slopes must lie in {1, 0, -1, ..., 2 - m_i} and the path starts at 0.

    Slope 1 - e on step i is in range iff 0 <= e <= m_i - 1, so the path
    of a monomial with a negative exponent is not admissible either.
    """
    if heights[0] != 0 or len(heights) != len(m) + 1:
        return False
    return all(0 <= e < mi for e, mi in zip(monomial_from_path(heights), m))


def reflect_suffix(heights: Heights, line: ReflectionLine, i: int) -> Heights:
    """Reflect vertices i..n across the line; no admissibility check.

    The reflection of height b at position a is 2*L(a) - b = y2[a] - b, an
    integer because y2 carries doubled line heights.
    """
    if not 1 <= i <= line.n:
        raise ValueError(f"reflection index {i} out of range 1..{line.n}")
    return heights[:i] + tuple(
        line.y2[a] - heights[a] for a in range(i, line.n + 1)
    )


def pivot_slope(heights: Heights, line: ReflectionLine, i: int) -> int:
    """Slope of the edge from vertex i - 1 into the reflection of vertex i."""
    return line.y2[i] - heights[i] - heights[i - 1]


def reflection_start(heights: Heights, line: ReflectionLine):
    """Largest i such that reflecting vertices i..n keeps the path admissible.

    Only the pivot edge into the first reflected vertex needs checking: a
    reflected edge of original slope sigma has slope 3 - m_i - sigma, which is
    again admissible for the same step. Index 0 is excluded since the
    reflected start (0, -k) can never begin an admissible path for k >= 1.
    Returns None when no index works (the path is not critical).
    """
    for i in range(line.n, 0, -1):
        if 2 - line.m[i - 1] <= pivot_slope(heights, line, i) <= 1:
            return i
    return None


def is_critical(heights: Heights, line: ReflectionLine) -> bool:
    return reflection_start(heights, line) is not None


def reflect(heights: Heights, line: ReflectionLine):
    """Reflected path at the maximal admissible start, or None."""
    i = reflection_start(heights, line)
    if i is None:
        return None
    return reflect_suffix(heights, line, i)


def paired_degree(n: int, m, k: int, d: int) -> int:
    """Degree of the reflected image: sum(m) - n - d + k."""
    return sum(m) - n - d + k


def critical_monomials(n: int, m, k: int, d: int) -> list:
    """All m-free monomials of degree d whose paths are critical."""
    line = ReflectionLine.build(n, m, k)
    return [
        s
        for s in enumerate_m_free(n, m, d)
        if is_critical(path_from_monomial(s), line)
    ]


def reflection_map(n: int, m, k: int, d: int) -> dict:
    """Critical monomial of degree d -> its reflected monomial."""
    line = ReflectionLine.build(n, m, k)
    out = {}
    for s in critical_monomials(n, m, k, d):
        image = reflect(path_from_monomial(s), line)
        out[s] = monomial_from_path(image)
    return out


def reflection_bijection_check(n: int, m, k: int, d: int) -> bool:
    """The reflection pairs degree-d critical paths with degree-d' ones and
    squares to the identity."""
    d2 = paired_degree(n, m, k, d)
    if d2 < 0:
        return critical_monomials(n, m, k, d) == []
    fwd = reflection_map(n, m, k, d)
    back = reflection_map(n, m, k, d2)
    targets = set(critical_monomials(n, m, k, d2))
    if set(fwd.values()) != targets or len(set(fwd.values())) != len(fwd):
        return False
    return all(back[img] == src for src, img in fwd.items())


# ---------------------------------------------------------------------------
# pictures

_XCELLS = 4  # character columns per unit step in the ascii picture


def _ascii_segment(cells, left, top, i, y0, y1, ch):
    # sample one char per column, rounding half away from the lower value
    for c in range(_XCELLS + 1):
        col = left + _XCELLS * i + c
        y = y0 + (2 * (y1 - y0) * c + _XCELLS) // (2 * _XCELLS)
        cells[top - y][col] = ch


def _frame(heights, line: ReflectionLine, reflected):
    """The path's heights on the doubled grid, and the top and bottom rows,
    on that grid, of a picture holding the path, the boundary and the
    reflected path, with a unit of margin above and below."""
    path2 = [2 * b for b in heights]
    layers = [path2, list(line.y2)]
    if reflected is not None:
        layers.append([2 * b for b in reflected])
    top = max(max(layer) for layer in layers) + 2
    bottom = min(min(layer) for layer in layers) - 2
    return path2, top, bottom


def render_ascii(heights, line: ReflectionLine, reflected=None) -> str:
    """Character picture of a path against the boundary line.

    Vertical resolution is half a unit so the boundary, which lives on the
    doubled grid, never falls between rows. Grid crossings are '+', the
    boundary is drawn with '.', the path with '*' and 'o' vertices; a second
    path, when given, is drawn with ':'.
    """
    n = line.n
    path2, top, bottom = _frame(heights, line, reflected)
    left = 5
    width = left + _XCELLS * n + 2
    cells = [[" "] * width for _ in range(top - bottom + 1)]

    for y in range(top, bottom - 1, -1):
        if y % 2 == 0:
            label = f"{y // 2:>4}"
            for j, ch in enumerate(label):
                cells[top - y][j] = ch
            for x in range(n + 1):
                cells[top - y][left + _XCELLS * x] = "+"
    for i in range(n):
        _ascii_segment(cells, left, top, i, line.y2[i], line.y2[i + 1], ".")
    if reflected is not None:
        for i in range(n):
            _ascii_segment(cells, left, top, i, 2 * reflected[i], 2 * reflected[i + 1], ":")
    for i in range(n):
        _ascii_segment(cells, left, top, i, path2[i], path2[i + 1], "*")
    for i, b in enumerate(heights):
        cells[top - 2 * b][left + _XCELLS * i] = "o"

    axis = [" "] * width
    for x in range(n + 1):
        for j, ch in enumerate(str(x)):
            if left + _XCELLS * x + j < width:
                axis[left + _XCELLS * x + j] = ch
    rows = ["".join(r).rstrip() for r in cells] + ["".join(axis).rstrip()]
    return "\n".join(rows) + "\n"


def _svg_points(pairs) -> str:
    return " ".join(f"{x},{y}" for x, y in pairs)


def render_svg(heights, line: ReflectionLine, reflected=None) -> str:
    """SVG picture: light grid, thin red boundary, heavy black path with
    vertex dots; an optional second path is dashed gray. Coordinates stay on
    the doubled integer grid, twenty pixels per half unit."""
    n = line.n
    pad = 40
    _, top, bottom = _frame(heights, line, reflected)
    fx = lambda x: pad + 40 * x
    fy = lambda y2: pad + 20 * (top - y2)
    w = 2 * pad + 40 * n
    h = 2 * pad + 20 * (top - bottom)

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {w} {h}" '
        f'width="{w}" height="{h}">',
        f'<rect width="{w}" height="{h}" fill="#ffffff"/>',
    ]
    for y in range(bottom, top + 1):
        if y % 2 == 0:
            out.append(
                f'<line x1="{fx(0)}" y1="{fy(y)}" x2="{fx(n)}" y2="{fy(y)}" '
                f'stroke="#dddddd" stroke-width="1"/>'
            )
            out.append(
                f'<text x="{fx(0) - 10}" y="{fy(y) + 5}" text-anchor="end" '
                f'font-family="monospace" font-size="13" fill="#555555">{y // 2}</text>'
            )
    for x in range(n + 1):
        out.append(
            f'<line x1="{fx(x)}" y1="{fy(top)}" x2="{fx(x)}" y2="{fy(bottom)}" '
            f'stroke="#dddddd" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{fx(x)}" y="{fy(bottom) + 18}" text-anchor="middle" '
            f'font-family="monospace" font-size="13" fill="#555555">{x}</text>'
        )
    red = [(fx(i), fy(y)) for i, y in enumerate(line.y2)]
    out.append(
        f'<polyline points="{_svg_points(red)}" fill="none" '
        f'stroke="#cc2222" stroke-width="2"/>'
    )
    if reflected is not None:
        gray = [(fx(i), fy(2 * b)) for i, b in enumerate(reflected)]
        out.append(
            f'<polyline points="{_svg_points(gray)}" fill="none" stroke="#999999" '
            f'stroke-width="3" stroke-dasharray="7 5"/>'
        )
        for x, y in gray:
            out.append(f'<circle cx="{x}" cy="{y}" r="4" fill="#999999"/>')
    black = [(fx(i), fy(2 * b)) for i, b in enumerate(heights)]
    out.append(
        f'<polyline points="{_svg_points(black)}" fill="none" '
        f'stroke="#000000" stroke-width="4"/>'
    )
    for x, y in black:
        out.append(f'<circle cx="{x}" cy="{y}" r="5" fill="#000000"/>')
    out.append("</svg>")
    return "\n".join(out) + "\n"

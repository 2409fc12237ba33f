"""Instance / tree files, orbit CSV and deterministic SVG rendering.

Coordinates are serialized as decimal strings with 17 significant digits so
that parse(serialize(x)) reproduces the double bit-for-bit.  All emitted
artifacts are byte-stable across runs: fixed precision, sorted element
order, no timestamps.  Files are written to a temporary sibling and renamed,
so failed commands leave no partial output.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from dataclasses import dataclass

from .errors import ParameterError
from .trees import STEINER, TERMINAL, EmbeddedTree, TerminalSet
from .geometry import Point

INSTANCE_SCHEMA = "steiner-ladder/instance-v1"
TREE_SCHEMA = "steiner-ladder/tree-v1"


class InstanceFormatError(ValueError):
    """Malformed instance or tree file."""


def fmt(x: float) -> str:
    return format(float(x), ".17g")


def _parse_float(s) -> float:
    try:
        v = float(s)
    except (TypeError, ValueError) as exc:
        raise InstanceFormatError(f"bad number {s!r}") from exc
    if not math.isfinite(v):
        raise InstanceFormatError(f"non-finite number {s!r}")
    return v


# ---------------------------------------------------------------------------
# instances


def instance_to_json(ts: TerminalSet) -> str:
    doc = {
        "schema": INSTANCE_SCHEMA,
        "terminals": [
            {"label": lab, "x": fmt(p.real), "y": fmt(p.imag)}
            for lab, p in zip(ts.labels, ts.points)
        ],
    }
    if ts.family is not None:
        fam = dict(ts.family)
        fam["alpha"] = fmt(fam["alpha"])
        fam["lambda"] = fmt(fam["lambda"])
        doc["family"] = fam
    if ts.segment is not None:
        doc["segment"] = list(ts.segment)
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def instance_from_json(text: str) -> TerminalSet:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InstanceFormatError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("schema") != INSTANCE_SCHEMA:
        raise InstanceFormatError(f"expected schema {INSTANCE_SCHEMA!r}")

    family = doc.get("family")
    terminals = doc.get("terminals")
    segment = doc.get("segment")
    if segment is not None:
        if not isinstance(segment, list) or len(segment) != 2:
            raise InstanceFormatError(f"segment must name two terminals, got {segment!r}")
        segment = tuple(segment)

    generated = None
    if family is not None:
        from .ladder import LadderParams, build_input

        if not isinstance(family, dict):
            raise InstanceFormatError(f"family descriptor must be an object, got {family!r}")
        try:
            params = LadderParams(
                _parse_float(family["alpha"]), _parse_float(family["lambda"]), family["depth"]
            )
            generated = build_input(params, family["family"])
        except (KeyError, ParameterError) as exc:
            raise InstanceFormatError(f"bad family descriptor: {exc}") from exc

    if terminals is None:
        if generated is None:
            raise InstanceFormatError("instance needs 'terminals' or a 'family' descriptor")
        return generated

    try:
        labels = tuple(t["label"] for t in terminals)
        points = tuple(Point(_parse_float(t["x"]), _parse_float(t["y"])) for t in terminals)
    except (KeyError, TypeError) as exc:
        raise InstanceFormatError(f"bad terminal entry: {exc}") from exc
    if not all(isinstance(lab, str) for lab in labels):
        raise InstanceFormatError("terminal labels must be strings")
    try:
        ts = TerminalSet(labels, points, family=family, segment=segment)
    except ParameterError as exc:
        raise InstanceFormatError(str(exc)) from exc

    if generated is not None:
        gen = {lab: complex(p) for lab, p in zip(generated.labels, generated.points)}
        for lab, p in zip(labels, points):
            if lab not in gen or complex(p) != gen[lab]:
                raise InstanceFormatError(
                    f"terminal {lab!r} does not match its family descriptor"
                )
    return ts


# ---------------------------------------------------------------------------
# trees


def tree_to_json(tree: EmbeddedTree) -> str:
    doc = {
        "schema": TREE_SCHEMA,
        "vertices": [
            {"x": fmt(v.real), "y": fmt(v.imag), "role": r}
            for v, r in zip(tree.vertices, tree.roles)
        ],
        "edges": [list(e) for e in tree.edges],
        "length": fmt(tree.length),
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def tree_from_json(text: str) -> EmbeddedTree:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InstanceFormatError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("schema") != TREE_SCHEMA:
        raise InstanceFormatError(f"expected schema {TREE_SCHEMA!r}")
    try:
        verts = [complex(_parse_float(v["x"]), _parse_float(v["y"])) for v in doc["vertices"]]
        roles = [v["role"] for v in doc["vertices"]]
        edges = [(u, w) for u, w in doc["edges"]]
        stated = _parse_float(doc["length"])
    except (KeyError, TypeError, ValueError) as exc:
        raise InstanceFormatError(f"bad tree entry: {exc}") from exc
    if any(r not in (TERMINAL, STEINER) for r in roles):
        raise InstanceFormatError("vertex roles must be 'terminal' or 'steiner'")
    nv = len(verts)
    # bool is an int subclass, so test the exact type
    if any(
        type(u) is not int or type(w) is not int or not 0 <= u < nv or not 0 <= w < nv or u == w
        for u, w in edges
    ):
        raise InstanceFormatError("each edge must join two distinct vertex indices")
    tree = EmbeddedTree.build(verts, roles, edges)
    if abs(stated - tree.length) > 1e-9 * tree.length:
        raise InstanceFormatError(
            f"stated length {fmt(stated)} differs from the edge sum {fmt(tree.length)}"
        )
    return tree


# ---------------------------------------------------------------------------
# records and CSV


@dataclass(frozen=True)
class ResultRecord:
    instance_id: str
    method: str
    length: float
    co_optima: int
    wall_time_s: float
    extra: dict | None = None

    def to_json(self) -> str:
        doc = {
            "instance": self.instance_id,
            "method": self.method,
            "length": fmt(self.length),
            "co_optima": self.co_optima,
            "wall_time_s": round(self.wall_time_s, 4),
        }
        if self.extra:
            doc.update(self.extra)
        return json.dumps(doc, sort_keys=True)


def orbit_to_csv(values, heights, branches, status: str = "ok", start_index: int = 0) -> str:
    lines = ["k,nu_k,mu_k,branch"]
    for j, (v, mu, br) in enumerate(zip(values, heights, branches)):
        lines.append(f"{start_index + j},{fmt(v)},{fmt(mu)},{br}")
    if status != "ok":
        lines.append(f"{start_index + len(values)},,,{status}")
    return "\n".join(lines) + "\n"


def region_to_csv(rows) -> str:
    lines = ["alpha,lambda,condition,separation"]
    for alpha, lam, cond, sep in rows:
        lines.append(f"{fmt(alpha)},{fmt(lam)},{int(cond)},{int(sep)}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# SVG


def svg_render(
    tree: EmbeddedTree | None,
    instance: TerminalSet | None = None,
    width: int = 800,
    margin: float = 40.0,
) -> str:
    """Deterministic standalone SVG: tree edges, terminal/branch dots,

    and, when an instance with a family descriptor is given, the angle sides
    and the cross segment in light strokes.
    """
    world: list[complex] = []
    if tree is not None:
        world.extend(tree.vertices)
    if instance is not None:
        world.extend(complex(p) for p in instance.points)
    if not world:
        header = (
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{width}" '
            f'viewBox="0 0 {width} {width}">'
        )
        return header + "</svg>\n"

    xs = [z.real for z in world]
    ys = [z.imag for z in world]
    span = max(max(xs) - min(xs), max(ys) - min(ys)) or 1.0
    scale = (width - 2 * margin) / span
    height = int(round((max(ys) - min(ys)) * scale + 2 * margin)) or width

    def map_pt(z: complex) -> tuple[float, float]:
        return (
            margin + (z.real - min(xs)) * scale,
            height - margin - (z.imag - min(ys)) * scale,
        )

    def c6(v: float) -> str:
        s = f"{v:.6f}"
        return "0.000000" if s == "-0.000000" else s

    backdrop: list[str] = []
    if instance is not None and instance.family is not None:
        rmax = max(abs(complex(p)) for p in instance.points) * 1.02
        alpha = float(instance.family["alpha"])
        for sgn in (1.0, -1.0):
            tip = rmax * complex(math.cos(alpha), sgn * math.sin(alpha))
            x1, y1 = map_pt(0j)
            x2, y2 = map_pt(tip)
            backdrop.append(
                f'<line x1="{c6(x1)}" y1="{c6(y1)}" x2="{c6(x2)}" y2="{c6(y2)}" '
                f'stroke="#999999" stroke-width="1"/>'
            )
        if instance.segment is not None:
            p, q = (map_pt(complex(instance.point(lab))) for lab in instance.segment)
            backdrop.append(
                f'<line x1="{c6(p[0])}" y1="{c6(p[1])}" x2="{c6(q[0])}" y2="{c6(q[1])}" '
                f'stroke="#999999" stroke-width="1"/>'
            )

    edge_elems: list[str] = []
    dot_elems: list[str] = []
    if tree is not None:
        for u, v in tree.edges:
            (x1, y1), (x2, y2) = map_pt(tree.vertices[u]), map_pt(tree.vertices[v])
            if (x2, y2) < (x1, y1):
                x1, y1, x2, y2 = x2, y2, x1, y1
            edge_elems.append(
                f'<line x1="{c6(x1)}" y1="{c6(y1)}" x2="{c6(x2)}" y2="{c6(y2)}" '
                f'stroke="#1f4e9c" stroke-width="2"/>'
            )
        for z, role in zip(tree.vertices, tree.roles):
            x, y = map_pt(z)
            if role == TERMINAL:
                dot_elems.append(f'<circle cx="{c6(x)}" cy="{c6(y)}" r="3" fill="#c1272d"/>')
            else:
                dot_elems.append(f'<circle cx="{c6(x)}" cy="{c6(y)}" r="2" fill="#1f4e9c"/>')
    if instance is not None:
        for p in instance.points:
            x, y = map_pt(complex(p))
            dot_elems.append(f'<circle cx="{c6(x)}" cy="{c6(y)}" r="3" fill="#c1272d"/>')

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">'
    ]
    parts.extend(backdrop)
    parts.extend(sorted(edge_elems))
    parts.extend(sorted(set(dot_elems)))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def atomic_write(path: str, text: str) -> None:
    """Write via a temporary sibling and rename; no partial files on error."""
    d = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix=os.path.basename(path))
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise

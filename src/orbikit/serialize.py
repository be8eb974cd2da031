"""JSON file formats for groupoids, bitorsors, cocycles, mode data.

Conventions: complex numbers are [re, im] pairs, exact fractions are
"p/q" strings, tuples become JSON arrays and are restored as tuples on
load.  Labels must be built from strings, integers and tuples thereof;
within that family round-trips are lossless.
"""

from __future__ import annotations

import json
from fractions import Fraction

import numpy as np

from .bases import (
    CircleModes,
    CircleRotation,
    FiniteSet,
    FourierCircle,
    FourierTorus,
    LabelPermutation,
    TorusIsometry,
    TorusModes,
)
from .cocycles import Cocycle
from .convolution import ConvolutionElement
from .groupoids import (
    ActionGroupoid,
    CechCover,
    CircleArc,
    FiniteGroup,
    FiniteGroupoid,
    composable_index,
    label_ids,
    table_groupoid,
)
from .morita import Bitorsor

SCHEMAS = {
    "groupoid": "orbikit/groupoid/2",
    "bitorsor": "orbikit/bitorsor/1",
    "cocycle": "orbikit/cocycle/1",
    "modes": "orbikit/modes/1",
    "convolution": "orbikit/convolution/1",
    "cover": "orbikit/cover/1",
}
# read, never written: finite documents that list every composition as a row
GROUPOID_SCHEMA_1 = "orbikit/groupoid/1"


def _freeze(value):
    """Lists decoded from JSON become tuples, recursively; only lists are entered."""
    if isinstance(value, list):
        return tuple([_freeze(v) if isinstance(v, list) else v for v in value])
    return value


def _thaw(value):
    """Tuples become lists, recursively; only tuples are entered."""
    if isinstance(value, tuple):
        return [_thaw(v) if isinstance(v, tuple) else v for v in value]
    return value


def _cplx(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


def _uncplx(pair) -> complex:
    return complex(pair[0], pair[1])


def _frn(f) -> str:
    return str(Fraction(f))


def _unfrn(s) -> Fraction:
    return Fraction(s)


# ---------------------------------------------------------------------------
# groupoids


def groupoid_to_dict(G, covers=()) -> dict:
    doc = _groupoid_body(G)
    if covers:
        doc["covers"] = [cover_to_dict(c) for c in covers]
    return doc


def covers_from_groupoid_doc(doc: dict):
    return [cover_from_dict(c) for c in doc.get("covers", [])]


def _groupoid_body(G) -> dict:
    if isinstance(G, FiniteGroupoid):
        index, table = G.arrow_index, G.table
        if len(table) != len(G.cmp) or (table[:, 2] < 0).any():
            raise ValueError(f"cannot serialize {G.name!r}: cmp names a label outside its arrows")
        src, tgt = _endpoint_ids(G)
        _check_composable_rows(G, table, *composable_index(src, tgt))
        return {
            "schema": SCHEMAS["groupoid"],
            "flavor": "finite",
            "name": G.name,
            "objects": [_thaw(x) for x in G.objects],
            "arrows": [_thaw(a) for a in G.arrows],
            "src": src.tolist(),
            "tgt": tgt.tolist(),
            "result": table[:, 2].tolist(),
            "inverse": [index[G.inv[a]] for a in G.arrows],
            "unit": [index[G.unit[x]] for x in G.objects],
        }
    if isinstance(G, ActionGroupoid):
        base = G.base
        if isinstance(base, FourierCircle):
            base_doc = {
                "kind": "circle",
                "circumference": base.circumference,
                "mode_cutoff": base.mode_cutoff,
            }
        elif isinstance(base, FourierTorus):
            base_doc = {
                "kind": "torus",
                "circumferences": list(base.circumferences),
                "mode_cutoff": base.mode_cutoff,
            }
        else:
            base_doc = {"kind": "finite", "points": [_thaw(p) for p in base.points]}
        action = []
        for g in G.group.elements:
            iso = G.iso[g]
            if isinstance(iso, CircleRotation):
                action.append({"element": _thaw(g), "kind": "rotation", "turns": _frn(iso.turns)})
            elif isinstance(iso, TorusIsometry):
                action.append(
                    {
                        "element": _thaw(g),
                        "kind": "torus",
                        "negate": iso.negate,
                        "shift": [_frn(s) for s in iso.shift],
                    }
                )
            else:
                action.append(
                    {
                        "element": _thaw(g),
                        "kind": "permutation",
                        "pairs": [[_thaw(x), _thaw(y)] for x, y in iso.pairs],
                    }
                )
        els = list(G.group.elements)
        return {
            "schema": SCHEMAS["groupoid"],
            "flavor": "fourier_action",
            "name": G.name,
            "base": base_doc,
            "group": {
                "elements": [_thaw(g) for g in els],
                "table": [[_thaw(G.group.mul(g, h)) for h in els] for g in els],
                "identity": _thaw(G.group.identity),
            },
            "action": action,
        }
    raise TypeError(f"cannot serialize {G!r}")


def _endpoint_ids(G):
    """Each arrow's source and target as positions in ``G.objects``.

    An endpoint outside the objects raises ``ValueError`` naming its arrow.
    """
    place = {x: i for i, x in enumerate(G.objects)}
    known = len(place)
    src, tgt = label_ids(place, G.arrows, G.src), label_ids(place, G.arrows, G.tgt)
    outside = np.flatnonzero((src >= known) | (tgt >= known))
    if len(outside):
        a = G.arrows[outside[0]]
        raise ValueError(f"cannot serialize {G.name!r}: an endpoint of {a!r} is not one of its objects")
    return src, tgt


def _check_composable_rows(G, table, later, earlier):
    """Raise ``ValueError`` unless the table's pairs are exactly ``(later, earlier)``.

    A schema-2 document stores only the results, in the order of the
    composable pairs, so a missing or an extra pair cannot be written; the
    error names the first one.
    """
    n = min(len(table), len(later))
    off = np.flatnonzero((table[:n, 0] != later[:n]) | (table[:n, 1] != earlier[:n]))
    if not len(off) and len(table) == len(later):
        return
    i = off[0] if len(off) else n  # the first place where they differ
    row = tuple(table[i, :2].tolist()) if i < len(table) else None
    pair = (int(later[i]), int(earlier[i])) if i < len(later) else None
    # the smaller of the two is the pair the other side lacks
    if row is not None and (pair is None or row < pair):
        tau, sigma = (G.arrows[j] for j in row)
        raise ValueError(f"cannot serialize {G.name!r}: cmp composes {tau!r} after {sigma!r}, which are not composable")
    tau, sigma = (G.arrows[j] for j in pair)
    raise ValueError(f"cannot serialize {G.name!r}: cmp has no composite of {tau!r} after {sigma!r}")


def index_array(values, n, length, field) -> np.ndarray:
    """A schema-2 index list as ints: ``length`` entries, each in ``0 <= i < n``.

    A value that is not a list, or an entry that is not an integer, raises
    ``TypeError``; a list of another length ``ValueError``; an index outside
    the range, negative ones included, ``IndexError``.
    """
    if not isinstance(values, list):
        raise TypeError(f"{field} must be a list of indices, not {type(values).__name__}")
    if len(values) != length:
        raise ValueError(f"{field} holds {len(values)} indices where {length} are needed")
    try:
        ids = np.asarray(values, dtype=None if values else np.int64)
    except ValueError:  # nested lists of different lengths
        ids = None
    if ids is None or ids.dtype.kind != "i" or ids.ndim != 1:
        bad = next((v for v in values if not isinstance(v, int)), None)
        if bad is not None:
            raise TypeError(f"{field} holds {bad!r}, which is not an index")
        # all integers, some past int64: those read -1 and fail below
        ids = np.array([v if 0 <= v < n else -1 for v in values], dtype=np.int64)
    outside = np.flatnonzero((ids < 0) | (ids >= n))
    if len(outside):
        raise IndexError(f"{field} holds {values[outside[0]]}, outside 0 <= i < {n}")
    return ids


def compose_table(rows, n) -> np.ndarray:
    """The sorted table of a schema-1 document's ``compose`` rows over ``n`` arrows.

    The rows read as a label dict built from them in row order would: a
    negative index counts from the end of the arrows, and a repeated pair
    keeps its last row.  A row that is not a triple raises ``ValueError``, a
    flat list or an entry that is not an integer ``TypeError``, and an index
    outside ``-n <= i < n`` ``IndexError``.
    """
    try:
        table = np.asarray(rows)
    except ValueError:  # rows of different lengths
        table = None
    if table is None or table.dtype.kind != "i" or table.shape[1:] != (3,):
        # one entry at a time, as indexing the arrows raises
        arrow = range(n).__getitem__
        table = np.array([(arrow(t), arrow(s), arrow(r)) for t, s, r in rows], dtype=np.int64)
    table = table.astype(np.int64, copy=False).reshape(-1, 3)
    if ((table < -n) | (table >= n)).any():
        raise IndexError(f"compose row names an arrow index outside the {n} arrows")
    table = np.where(table < 0, table + n, table)
    keys = table[:, 0] * n + table[:, 1]
    order = np.argsort(keys, kind="stable")
    keys, table = keys[order], table[order]
    last = np.ones(len(keys), dtype=bool)
    last[:-1] = keys[1:] != keys[:-1]  # the last row of each pair
    return table[last]


def _finite_tables_1(doc, objects, arrows):
    """The table and the label dicts of a schema-1 finite document."""
    return compose_table(doc["compose"], len(arrows)), dict(
        src={a: _freeze(x) for a, x in zip(arrows, doc["src"])},
        tgt={a: _freeze(x) for a, x in zip(arrows, doc["tgt"])},
        inv={a: arrows[i] for a, i in zip(arrows, doc["inverse"])},
        unit={x: arrows[i] for x, i in zip(objects, doc["unit"])},
    )


def _finite_tables_2(doc, objects, arrows):
    """The table and the label dicts of a schema-2 finite document."""

    def lookup(field, labels, keys):
        ids = index_array(doc[field], len(labels), len(keys), field)
        return ids, dict(zip(keys, map(labels.__getitem__, ids.tolist())))

    src, src_of = lookup("src", objects, arrows)
    tgt, tgt_of = lookup("tgt", objects, arrows)
    later, earlier = composable_index(src, tgt)  # the pairs in table order
    result = index_array(doc["result"], len(arrows), len(later), "result")
    return np.column_stack((later, earlier, result)), dict(
        src=src_of,
        tgt=tgt_of,
        inv=lookup("inverse", arrows, arrows)[1],
        unit=lookup("unit", arrows, objects)[1],
    )


def groupoid_from_dict(doc: dict):
    schema = doc.get("schema")
    if schema not in (SCHEMAS["groupoid"], GROUPOID_SCHEMA_1):
        raise ValueError(f"not a groupoid document: schema {schema!r}")
    if doc["flavor"] == "finite":
        objects = tuple(_freeze(x) for x in doc["objects"])
        arrows = tuple(_freeze(a) for a in doc["arrows"])
        read = _finite_tables_1 if schema == GROUPOID_SCHEMA_1 else _finite_tables_2
        table, tables = read(doc, objects, arrows)
        return table_groupoid(
            arrows,
            table,
            objects=objects,
            base=FiniteSet(objects),
            name=doc.get("name", "groupoid"),
            **tables,
        )
    if doc["flavor"] == "fourier_action":
        b = doc["base"]
        if b["kind"] == "circle":
            base = FourierCircle(b["circumference"], b["mode_cutoff"])
        elif b["kind"] == "torus":
            base = FourierTorus(tuple(b["circumferences"]), b["mode_cutoff"])
        else:
            base = FiniteSet(tuple(_freeze(p) for p in b["points"]))
        els = tuple(_freeze(g) for g in doc["group"]["elements"])
        table = {
            (g, h): _freeze(doc["group"]["table"][i][j])
            for i, g in enumerate(els)
            for j, h in enumerate(els)
        }
        group = FiniteGroup(els, table, _freeze(doc["group"]["identity"]))
        iso = {}
        for entry in doc["action"]:
            g = _freeze(entry["element"])
            if entry["kind"] == "rotation":
                iso[g] = CircleRotation(_unfrn(entry["turns"]))
            elif entry["kind"] == "torus":
                iso[g] = TorusIsometry(entry["negate"], tuple(_unfrn(s) for s in entry["shift"]))
            else:
                iso[g] = LabelPermutation(tuple((_freeze(x), _freeze(y)) for x, y in entry["pairs"]))
        return ActionGroupoid(group, base, iso, name=doc.get("name", "action groupoid"))
    raise ValueError(f"unknown groupoid flavor {doc['flavor']!r}")


# ---------------------------------------------------------------------------
# covers


def cover_to_dict(cover: CechCover) -> dict:
    sheets = []
    for s in cover.sheets:
        if isinstance(s, CircleArc):
            sheets.append({"kind": "arc", "center": _frn(s.center), "half_width": _frn(s.half_width)})
        else:
            sheets.append({"kind": "finite", "members": [_thaw(x) for x in s]})
    return {"schema": SCHEMAS["cover"], "sheets": sheets}


def cover_from_dict(doc: dict) -> CechCover:
    if doc.get("schema") != SCHEMAS["cover"]:
        raise ValueError("not a cover document")
    sheets = []
    for s in doc["sheets"]:
        if s["kind"] == "arc":
            sheets.append(CircleArc(_unfrn(s["center"]), _unfrn(s["half_width"])))
        else:
            sheets.append(tuple(_freeze(x) for x in s["members"]))
    return CechCover(tuple(sheets))


# ---------------------------------------------------------------------------
# bitorsors (finite flavor; groupoids referenced by name)


def bitorsor_to_dict(b: Bitorsor, left_name: str, right_name: str) -> dict:
    return {
        "schema": SCHEMAS["bitorsor"],
        "name": b.name,
        "left": left_name,
        "right": right_name,
        "carrier": [_thaw(q) for q in b.carrier],
        "rho": [[_thaw(q), _thaw(b.rho[q])] for q in b.carrier],
        "alpha": [[_thaw(q), _thaw(b.alpha[q])] for q in b.carrier],
        "left_act": sorted(
            ([_thaw(s), _thaw(q), _thaw(v)] for (s, q), v in b.left_act.items()),
            key=json.dumps,
        ),
        "right_act": sorted(
            ([_thaw(q), _thaw(t), _thaw(v)] for (q, t), v in b.right_act.items()),
            key=json.dumps,
        ),
    }


def bitorsor_from_dict(doc: dict, resolve: dict) -> Bitorsor:
    if doc.get("schema") != SCHEMAS["bitorsor"]:
        raise ValueError("not a bitorsor document")
    left = resolve[doc["left"]]
    right = resolve[doc["right"]]
    return Bitorsor(
        left=left,
        right=right,
        carrier=tuple(_freeze(q) for q in doc["carrier"]),
        rho={_freeze(q): _freeze(x) for q, x in doc["rho"]},
        alpha={_freeze(q): _freeze(y) for q, y in doc["alpha"]},
        left_act={(_freeze(s), _freeze(q)): _freeze(v) for s, q, v in doc["left_act"]},
        right_act={(_freeze(q), _freeze(t)): _freeze(v) for q, t, v in doc["right_act"]},
        name=doc.get("name", "bitorsor"),
    )


# ---------------------------------------------------------------------------
# cocycles


def cocycle_to_dict(g: Cocycle) -> dict:
    entries = []
    for a in g.groupoid.arrows:
        m = np.asarray(g.entries[a], dtype=complex)
        sheets = list(a[1:]) if isinstance(a, tuple) and len(a) == 3 else None
        entries.append(
            {
                "arrow": _thaw(a),
                "sheets": sheets,
                "matrix": [[_cplx(v) for v in row] for row in m],
            }
        )
    return {
        "schema": SCHEMAS["cocycle"],
        "name": g.name,
        "rank": g.rank,
        "entries": entries,
    }


def cocycle_from_dict(doc: dict, groupoid) -> Cocycle:
    if doc.get("schema") != SCHEMAS["cocycle"]:
        raise ValueError("not a cocycle document")
    entries = {}
    for e in doc["entries"]:
        arrow = _freeze(e["arrow"])
        entries[arrow] = np.array([[_uncplx(v) for v in row] for row in e["matrix"]])
    return Cocycle(groupoid, doc["rank"], entries, name=doc.get("name", "cocycle"))


# ---------------------------------------------------------------------------
# mode data


def modes_to_dict(m) -> dict:
    if isinstance(m, CircleModes):
        return {
            "schema": SCHEMAS["modes"],
            "kind": "circle",
            "circumference": m.circle.circumference,
            "cutoff": m.cutoff,
            "twist": _frn(m.twist),
            "fibre_shape": list(m.fibre_shape),
            "coeffs": [_cplx(v) for v in m.coeffs.reshape(-1)],
        }
    if isinstance(m, TorusModes):
        return {
            "schema": SCHEMAS["modes"],
            "kind": "torus",
            "circumferences": list(m.torus.circumferences),
            "cutoff": m.cutoff,
            "twist": [_frn(t) for t in m.twist],
            "fibre_shape": list(m.fibre_shape),
            "coeffs": [_cplx(v) for v in m.coeffs.reshape(-1)],
        }
    raise TypeError(f"cannot serialize {m!r}")


def modes_from_dict(doc: dict):
    if doc.get("schema") != SCHEMAS["modes"]:
        raise ValueError("not a mode-data document")
    fibre = tuple(doc["fibre_shape"])
    flat = np.array([_uncplx(v) for v in doc["coeffs"]])
    if doc["kind"] == "circle":
        n = 2 * doc["cutoff"] + 1
        circle = FourierCircle(doc["circumference"], max(2, doc["cutoff"]))
        return CircleModes(circle, doc["cutoff"], flat.reshape((n, *fibre)), _unfrn(doc["twist"]))
    n = 2 * doc["cutoff"] + 1
    torus = FourierTorus(tuple(doc["circumferences"]), max(2, doc["cutoff"]))
    return TorusModes(
        torus,
        doc["cutoff"],
        flat.reshape((n, n, *fibre)),
        tuple(_unfrn(t) for t in doc["twist"]),
    )


# ---------------------------------------------------------------------------
# convolution elements


def convolution_to_dict(f: ConvolutionElement) -> dict:
    if f.flavor == "finite":
        terms = sorted(
            ({"arrow": _thaw(a), "value": _cplx(v)} for a, v in f.data.items()),
            key=json.dumps,
        )
        return {"schema": SCHEMAS["convolution"], "flavor": "finite", "terms": terms}
    terms = [
        {"element": _thaw(g), "modes": modes_to_dict(part)} for g, part in sorted(f.data.items(), key=lambda kv: json.dumps(_thaw(kv[0])))
    ]
    return {"schema": SCHEMAS["convolution"], "flavor": "fourier", "terms": terms}


def convolution_from_dict(doc: dict, groupoid) -> ConvolutionElement:
    if doc.get("schema") != SCHEMAS["convolution"]:
        raise ValueError("not a convolution document")
    if doc["flavor"] == "finite":
        data = {_freeze(t["arrow"]): _uncplx(t["value"]) for t in doc["terms"]}
        return ConvolutionElement(groupoid, data)
    data = {_freeze(t["element"]): modes_from_dict(t["modes"]) for t in doc["terms"]}
    return ConvolutionElement(groupoid, data)


# ---------------------------------------------------------------------------
# file helpers


def save_json(path, doc: dict):
    """Write ``doc`` as compact JSON with sorted keys and a trailing newline.

    Without indentation ``json`` runs its C encoder; the value read back is
    the same as from an indented file.
    """
    with open(path, "w") as fh:
        fh.write(json.dumps(doc, sort_keys=True, separators=(",", ":")))
        fh.write("\n")


def load_json(path) -> dict:
    with open(path) as fh:
        return json.load(fh)

"""Command-line pipeline: simulate -> reconstruct -> assemble/compare -> demo.

Persistent formats
------------------
Datasets and moment sets are a JSON manifest plus a raw binary payload:
64-bit IEEE-754 little-endian values, row-major.  Dataset payloads are
time-major (node j is row j); moment payloads are order-major (row n is f_n
at the manifest's node); each reader returns a payload as one array.  Manifests
(format version 2) carry a BLAKE2b-64 checksum of the payload (RFC 7693,
8-byte digest, 16 hex digits), verified on every read, so a write/read round
trip is bit-exact or fails loudly.  A reader rejects a manifest with another
format version, a missing required key, or a payload path that leaves the
manifest's directory.  Density grids are also written as ``rho_<tag>.dat``,
one ``x y re im`` line per lattice point (x-major) in shortest round-trip
decimal, after a ``# x y re im`` header.  The table is formatted from the
y >= 0 half of each row, whose y < 0 mirror ``assemble`` guarantees, so only
half of the values go through ``repr``; its bytes are those of formatting
every value.

Exit codes: 0 success, 2 simulation-quality failure, 3 insufficient time
samples, 4 missing reference, 1 anything else.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import asdict, fields, is_dataclass
from pathlib import Path

import numpy as np

from .assembly import TaylorReconstruction, assemble, compare
from .numerics import GridField, PhysicalConstants, SpatialGrid, TimeNodes, _is_number, _row_blocks
from .potentials import PARAMETERS, PotentialModel, check_parameters, model_from_dict, model_to_dict
from .reconstruction import InsufficientTimeSamplesError, build_pyramid
from .simulator import (
    CatStateParams,
    SimulationQualityError,
    WaveFunction,
    cat_state_density_matrix,
    cat_state_moment,
    exact_density_matrix,
    gaussian_packet,
    make_cat_state,
    offdiagonal_lattice,
    sample_densities,
    _walk_steps,
)

__all__ = [
    "MissingReferenceError",
    "DataFormatError",
    "payload_checksum",
    "write_dataset",
    "read_dataset",
    "write_moment_set",
    "read_moment_set",
    "cmd_simulate",
    "cmd_reconstruct",
    "cmd_assemble_compare",
    "cmd_demo_cat",
    "main",
]

FORMAT_VERSION = 2
#: The manifest keys of each payload: its file name and its checksum.
PAYLOAD_KEYS = {"data": ("data_path", "checksum"), "psi": ("psi_path", "psi_checksum")}

CAT_DEFAULTS = CatStateParams()


class MissingReferenceError(ValueError):
    """The requested comparison reference cannot be resolved."""


class DataFormatError(ValueError):
    """A manifest or payload is malformed or fails its checksum."""


def payload_checksum(data: bytes) -> str:
    """BLAKE2b digest of a payload with an 8-byte output, as 16 hex digits."""
    return hashlib.blake2b(data, digest_size=8).hexdigest()


def _dump_json(path: Path, obj: dict) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _load_json(path: Path) -> dict:
    try:
        return json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"{path} is not valid JSON: {exc}") from exc


def _entry(cls, entry):
    """``cls(**entry)`` for a manifest entry, which must give every field."""
    missing = [f.name for f in fields(cls) if f.name not in entry]
    if missing:
        raise ValueError(f"{cls.__name__} needs {', '.join(missing)}")
    return cls(**entry)


def _payload_path(manifest_path: Path, name) -> Path:
    """A manifest's payload file, which must lie inside the manifest's directory."""
    home = manifest_path.parent.resolve()
    path = (home / name).resolve() if isinstance(name, str) else None
    if path is None or not path.is_relative_to(home):
        raise DataFormatError(f"{manifest_path}: payload path {name!r} leaves {home}")
    return path


def _write_payload(path: Path, array: np.ndarray) -> str:
    data = np.ascontiguousarray(array).astype(array.dtype.newbyteorder("<"), copy=False).tobytes()
    path.write_bytes(data)
    return payload_checksum(data)


def _read_payload(manifest_path: Path, name, checksum, dtype, shape) -> np.ndarray:
    """A manifest's payload, checked against the manifest's size and checksum, and finite."""
    path = _payload_path(manifest_path, name)
    data = path.read_bytes()
    expected = int(np.prod(shape)) * np.dtype(dtype).itemsize
    if len(data) != expected:
        raise DataFormatError(
            f"{path} holds {len(data)} bytes, expected {expected} for shape {shape}"
        )
    actual = payload_checksum(data)
    if actual != checksum:
        raise DataFormatError(
            f"{manifest_path}: {path.name} checksum {actual} does not match {checksum!r}"
        )
    array = np.frombuffer(data, dtype=np.dtype(dtype).newbyteorder("<")).reshape(shape).copy()
    if not np.all(np.isfinite(array)):
        raise DataFormatError(f"{manifest_path}: {path.name} holds non-finite values")
    return array


def _write_artifact(path: Path, kind: str, layout: str, payloads: dict, **entries) -> Path:
    """Write each payload beside the manifest ``path``, then the manifest.

    ``payloads`` maps ``"data"`` (and ``"psi"``) to a file name and an array
    of the stored dtype; a dataclass entry (grid, times, constants) is written
    as its fields.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    manifest = {"format_version": FORMAT_VERSION, "kind": kind, "layout": layout}
    manifest.update({k: asdict(v) if is_dataclass(v) else v for k, v in entries.items()})
    for payload, (name, array) in payloads.items():
        path_key, checksum_key = PAYLOAD_KEYS[payload]
        manifest[path_key] = name
        manifest[checksum_key] = _write_payload(path.parent / name, array)
    _dump_json(path, manifest)
    return path


def _read_artifact(path: Path, kind: str, layout: str, keys, parse, payloads: dict) -> dict:
    """Load and verify a manifest, its typed entries and its payloads.

    The manifest must have this ``kind``, format version and ``layout``, and
    hold ``grid``, ``constants``, ``keys`` and the ``"data"`` payload's keys.
    ``grid`` and ``constants`` are typed here; ``parse(m)`` types the rest and
    gives the payloads' row count (a row spans the grid).  A KeyError,
    TypeError or ValueError it raises reports a malformed entry.  ``payloads``
    maps ``"data"`` (and ``"psi"``, read when the manifest names one) to the
    result key and the dtype.
    """
    m = _load_json(path)
    if not isinstance(m, dict) or m.get("kind") != kind:
        raise DataFormatError(f"{path} is not a {kind} manifest")
    version = m.get("format_version")
    if not _is_number(version, integer=True) or version != FORMAT_VERSION:
        found = "no format_version" if version is None else f"format_version {version!r}"
        raise DataFormatError(f"{path} has {found}; this hydrec reads {FORMAT_VERSION}")
    if m.get("layout") != layout:
        raise DataFormatError(f"{path} has unsupported layout {m.get('layout')!r}")
    missing = [k for k in ("constants", "grid", *keys, *PAYLOAD_KEYS["data"]) if k not in m]
    if missing:
        raise DataFormatError(f"{path} lacks required key(s) {', '.join(missing)}")
    for payload in payloads:
        path_key, checksum_key = PAYLOAD_KEYS[payload]
        if path_key in m and checksum_key not in m:
            raise DataFormatError(f"{path} lacks required key(s) {checksum_key}")
    try:
        grid = _entry(SpatialGrid, m["grid"])
        constants = _entry(PhysicalConstants, m["constants"])
        typed, rows = parse(m)
    except (KeyError, TypeError, ValueError) as exc:
        raise DataFormatError(f"{path} has a malformed entry: {exc}") from exc
    out = {"manifest": m, "grid": grid, "constants": constants, **typed}
    for payload, (key, dtype) in payloads.items():
        path_key, checksum_key = PAYLOAD_KEYS[payload]
        if path_key in m:
            shape = (rows, grid.n_points)
            out[key] = _read_payload(path, m[path_key], m[checksum_key], dtype, shape)
    return out


# ---------------------------------------------------------------------------
# dataset manifests
# ---------------------------------------------------------------------------


def write_dataset(
    out_dir: Path,
    constants: PhysicalConstants,
    grid: SpatialGrid,
    nodes: TimeNodes,
    model: PotentialModel,
    records: np.ndarray,
    state: dict,
    provenance: str,
    psis: np.ndarray | None = None,
) -> Path:
    """Write f0 records (and optionally wavefunctions) plus their manifest."""
    records = np.asarray(records, dtype="<f8")
    if records.shape != (nodes.m_plus_1, grid.n_points):
        raise ValueError("records shape must be (m+1, n_points)")
    payloads = {"data": ("f0.bin", records)}
    if psis is not None:
        payloads["psi"] = ("psi.bin", np.asarray(psis, dtype="<c16"))
    return _write_artifact(
        out_dir / "dataset.json", "hydrec-dataset", "time_major_rows", payloads,
        constants=constants, grid=grid, times=nodes, potential=model_to_dict(model),
        state=state, provenance=provenance,
    )


def read_dataset(manifest_path: Path) -> dict:
    """Load and verify a dataset; returns typed objects plus the raw manifest."""

    def parse(m):
        nodes = _entry(TimeNodes, m["times"])
        return {"nodes": nodes, "model": model_from_dict(m["potential"])}, nodes.m_plus_1

    return _read_artifact(
        Path(manifest_path),
        "hydrec-dataset",
        "time_major_rows",
        ("times", "potential"),
        parse,
        {"data": ("records", "f8"), "psi": ("psis", "c16")},
    )


# ---------------------------------------------------------------------------
# moment-set files
# ---------------------------------------------------------------------------


def write_moment_set(
    out_dir: Path,
    dataset_manifest: dict,
    moments: np.ndarray,
    central_time: float,
    node: int,
    dataset_path: str = "",
) -> Path:
    """Write the ``(N+1, n_points)`` matrix of f_0 .. f_N at ``node`` plus its manifest."""
    array = np.asarray(moments, dtype="<f8")
    state = {"state": dataset_manifest["state"]} if "state" in dataset_manifest else {}
    return _write_artifact(
        out_dir / "moments.json", "hydrec-moments", "order_major_rows",
        {"data": ("moments.bin", array)},
        constants=dataset_manifest["constants"],
        grid=dataset_manifest["grid"],
        potential=dataset_manifest["potential"],
        **state,
        dataset_manifest=dataset_path,
        dataset_checksum=dataset_manifest["checksum"],
        central_time=central_time,
        node=node,
        order_max=len(array) - 1,
    )


def read_moment_set(path: Path) -> dict:
    """Load and verify a moment set; ``"moments"`` is the ``(N+1, n_points)`` matrix."""

    def parse(m):
        order_max, node, time = m["order_max"], m["node"], m["central_time"]
        for key, count in (("order_max", order_max), ("node", node)):
            if not _is_number(count, integer=True) or count < 0:
                raise ValueError(f"{key} must be an integer >= 0, got {count!r}")
        if not (_is_number(time) and np.isfinite(time)):
            raise ValueError(f"central_time must be a finite number, got {time!r}")
        cat_state = None
        if "state" in m:
            state = m["state"]
            if not (isinstance(state, dict) and isinstance(state.get("kind"), str)):
                raise ValueError(f"state must be an object with a string kind, got {state!r}")
            if state["kind"] == "cat":
                cat_state = _entry(CatStateParams, {k: v for k, v in state.items() if k != "kind"})
        return {"cat_state": cat_state}, order_max + 1

    return _read_artifact(
        Path(path),
        "hydrec-moments",
        "order_major_rows",
        ("order_max", "node", "central_time"),
        parse,
        {"data": ("moments", "f8")},
    )


# ---------------------------------------------------------------------------
# argument helpers
# ---------------------------------------------------------------------------


def _split_numbers(flag: str, form: str, text: str, *kinds) -> tuple:
    """``text`` split at commas into a number of each kind; only malformed text names ``form``."""
    try:
        return tuple(kind(value) for kind, value in zip(kinds, text.split(","), strict=True))
    except ValueError as exc:
        raise ValueError(f"{flag} expects {form!r}, got {text!r}") from exc


def _parse_grid(text: str) -> SpatialGrid:
    return SpatialGrid(*_split_numbers("--grid", "xmin,xmax,n", text, float, float, int))


def _parse_potential(text: str, mass: float) -> PotentialModel:
    """``kind:key=value,...``; a ``mass`` the kind takes defaults to ``--mass``."""
    kind, _, body = text.partition(":")
    params = {}
    if body:
        for item in body.split(","):
            key, _, value = item.partition("=")
            if not value:
                raise ValueError(f"potential parameter {item!r} is not key=value")
            if key.strip() in params:
                raise ValueError(f"--potential {kind}: {key.strip()} is given more than once")
            params[key.strip()] = value.strip()
    check_parameters(kind, params)
    values = {"mass": mass} if "mass" in PARAMETERS[kind] else {}  # PotentialModel fills the rest
    for key, value in params.items():
        try:
            if key == "coeffs":  # rows of x^k, each a '/'-separated time polynomial
                values[key] = [[float(c) for c in row.split("/")] for row in value.split(";")]
            else:
                values[key] = float(value)
        except ValueError:
            form = "numbers 'c0;c1/c1t;...'" if key == "coeffs" else "a number"
            raise ValueError(f"--potential {kind}: {key} expects {form}, got {value!r}") from None
    return PotentialModel(kind, values)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _prepare_state(args, grid: SpatialGrid, constants: PhysicalConstants, model) -> tuple:
    if args.state == "cat":
        params = CatStateParams(sigma=args.sigma, k0=args.k0)
        return make_cat_state(params, grid), {"kind": "cat", "sigma": params.sigma, "k0": params.k0}
    sigma = args.sigma
    if args.state == "coherent":
        if model.kind != "harmonic":
            raise ValueError("the coherent state needs a harmonic potential (its width is set by omega)")
        omega = float(model.params["omega"])
        if not omega > 0.0:
            raise ValueError(f"the coherent state needs omega > 0, got {omega}")
        sigma = float(np.sqrt(constants.hbar / (2.0 * constants.mass * omega)))
    psi = gaussian_packet(
        grid, sigma, center=args.center, momentum=args.momentum, hbar=constants.hbar
    )
    state = {"kind": args.state, "sigma": sigma, "center": args.center, "momentum": args.momentum}
    return psi, state


def cmd_simulate(args) -> int:
    if not (np.isfinite(args.noise) and args.noise >= 0.0):
        raise ValueError(f"--noise must be a finite number >= 0, got {args.noise}")
    if args.seed < 0:
        raise ValueError(f"--seed must be >= 0, got {args.seed}")
    constants = PhysicalConstants(hbar=args.hbar, mass=args.mass)
    grid = _parse_grid(args.grid)
    t_0, dt, m = _split_numbers("--times", "t0,dt,m", args.times, float, float, int)
    nodes = TimeNodes(t_0, dt, m + 1)
    sub = _walk_steps(nodes, args.substeps)[1]  # rejects a substeps below 1
    model = _parse_potential(args.potential, constants.mass)
    psi, state = _prepare_state(args, grid, constants, model)
    records, psis = sample_densities(psi, model, constants, nodes, args.substeps)

    if args.noise > 0.0:
        rng = np.random.default_rng(args.seed)
        records = np.clip(records + rng.normal(0.0, args.noise, records.shape), 0.0, None)

    provenance = (
        f"simulator: state={args.state} potential={args.potential} grid={args.grid} "
        f"times={args.times} hbar={args.hbar} mass={args.mass} noise={args.noise} "
        f"seed={args.seed} substeps={sub}"
    )
    psis = np.stack([p.amplitudes for p in psis]) if args.store_psi else None
    path = write_dataset(
        Path(args.out), constants, grid, nodes, model, records, state, provenance, psis
    )
    print(path)
    return 0


def cmd_reconstruct(args) -> int:
    data = read_dataset(Path(args.dataset))
    nodes: TimeNodes = data["nodes"]
    node = nodes.central_index if args.node is None else args.node
    if not (0 <= node <= nodes.m):
        raise ValueError(f"node {node} outside 0..{nodes.m}")
    pyramid = build_pyramid(
        data["records"], data["grid"], nodes, data["model"], data["constants"], args.order
    )
    path = write_moment_set(
        Path(args.out), data["manifest"], pyramid.levels[:, node],
        float(nodes.t_0 + node * nodes.dt), node, dataset_path=str(args.dataset),
    )
    print(path)
    return 0


def _emit_density_grid(out_dir: Path, tag: str, rec: TaylorReconstruction) -> None:
    grid = rec.values.x_grid
    y = rec.values.y
    vals = rec.values.values.astype("<c16", copy=False)
    _write_artifact(
        out_dir / f"rho_{tag}.json", "hydrec-density-grid", "x_major_rows_complex128",
        {"data": (f"rho_{tag}.bin", vals)},
        grid=grid,
        y={"y_max": float(np.max(np.abs(y))), "n_points": int(y.size)},
        order_max=rec.order_max,
        hbar=rec.hbar,
        trust_radius=rec.trust_radius,
    )
    # shortest round-trip decimal of every value, x-major like the payload, formatted from
    # the y >= 0 half: assemble writes column M-1-j as (re, 0.0 - im) of column j
    m, c = y.size, y.size // 2
    h = m - c  # the y >= 0 half
    ys = list(map(repr, y.tolist()))
    # a row's format fields: {0} is x, then the half's h re, h im and h mirrored im texts;
    # column k reads half column |k - c|
    row = "".join(
        f"{{0}} {ys[k]} {{{1 + abs(k - c)}}} {{{1 + (h if k >= c else 2 * h) + abs(k - c)}}}\n"
        for k in range(m)
    )
    points = grid.points
    with (out_dir / f"rho_{tag}.dat").open("w") as table:
        table.write("# x y re im\n")
        for blk in _row_blocks(grid.n_points, vals.itemsize * m):
            half = vals[blk, c:]
            xs = map(repr, points[blk].tolist())
            for x, re, im in zip(xs, half.real.tolist(), half.imag.tolist()):
                im = list(map(repr, im))
                # the text of 0.0 - v: +0.0 and nan stay, any other sign flips
                flip = [t[1:] if t[0] == "-" else t if t in ("0.0", "nan") else "-" + t for t in im]
                table.write(row.format(x, *map(repr, re), *im, *flip))


def _resolve_reference(args, mset: dict, y: np.ndarray):
    """Reference density matrix for comparison, on the reconstruction's x grid and ``y``."""
    manifest = mset["manifest"]
    grid: SpatialGrid = mset["grid"]
    if args.reference == "analytic-cat":
        if mset["cat_state"] is None:
            raise MissingReferenceError(
                f"{args.moments} was not reconstructed from a cat state; "
                "'analytic-cat' needs one"
            )
        if abs(manifest["central_time"]) > 1e-12:  # the closed form is the state at t = 0
            raise MissingReferenceError(
                f"{args.moments} holds the moments at t = {manifest['central_time']:g}; "
                "'analytic-cat' describes the state at t = 0 only"
            )
        return cat_state_density_matrix(mset["cat_state"], grid, y)
    if args.reference == "stored-psi":
        dataset_path = Path(args.dataset) if args.dataset else None
        if dataset_path is None or not dataset_path.exists():
            raise MissingReferenceError(
                "reference 'stored-psi' needs --dataset pointing at a manifest with wavefunctions"
            )
        data = read_dataset(dataset_path)
        if "psis" not in data:
            raise MissingReferenceError(
                f"{dataset_path} stores no wavefunctions (simulate with --store-psi)"
            )
        node, recorded = manifest["node"], manifest.get("dataset_checksum")
        checksum, last = data["manifest"]["checksum"], data["nodes"].m
        if recorded != checksum or node > last:
            raise DataFormatError(
                f"{args.moments} (node {node}, dataset checksum {recorded!r}) was not "
                f"reconstructed from {dataset_path} (checksum {checksum}, nodes 0..{last})"
            )
        psi = WaveFunction(data["grid"], data["psis"][node])
        return exact_density_matrix(psi, y=y)
    raise MissingReferenceError(f"unknown reference {args.reference!r}")


def cmd_assemble_compare(args, with_reference: bool) -> int:
    mset = read_moment_set(Path(args.moments))
    y = offdiagonal_lattice(args.y_max, args.n_y)
    rec = assemble(GridField(mset["grid"], mset["moments"]), y, mset["constants"].hbar)
    report = None
    if with_reference:  # before any file is written
        reference = _resolve_reference(args, mset, rec.y)
        region = (args.region_x, args.region_y)
        report = compare(rec.values, reference, region=region, f0=rec.moments[0].field)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    tag = f"N{rec.order_max}"
    if report is None:  # assemble writes the density grid, compare its report
        _emit_density_grid(out_dir, tag, rec)
    else:
        _dump_json(out_dir / f"report_{tag}.json", report.as_dict())

    hermiticity = rec.values.hermiticity_defect() if report is None else report.hermiticity_defect
    lines = [
        f"order_max        {rec.order_max}",
        f"x grid           [{rec.values.x_grid.x_min}, {rec.values.x_grid.x_max}] "
        f"x {rec.values.x_grid.n_points}",
        f"y lattice        [-{args.y_max}, {args.y_max}] x {args.n_y}",
        f"trust radius     {rec.trust_radius:.6g}",
        f"hermiticity      {hermiticity:.3e}",
    ]
    if report is not None:
        lines += [
            f"reference        {args.reference}",
            f"region           |x| <= {args.region_x}, |y| <= {args.region_y}",
            f"sup error        {report.sup_error:.6e}",
            f"l2 error         {report.l2_error:.6e}",
            f"trace (rec/ref)  {report.trace_a:.9g} / {report.trace_b:.9g}",
            f"diagonal vs f0   {report.diagonal_mismatch:.3e}",
        ]
    (out_dir / f"summary_{tag}.txt").write_text("\n".join(lines) + "\n")
    print(out_dir / f"summary_{tag}.txt")
    return 0


def cmd_demo_cat(args) -> int:
    """Reconstruct the superposition-state density matrix at several orders.

    Uses the analytic moment oracle of the default cat state, assembles each
    requested Taylor order, and reports sup errors against the closed-form
    density matrix over |x| <= 3, |y| <= 1.5.
    """
    kinds = [int] * (args.orders.count(",") + 1)
    orders = sorted(set(_split_numbers("--orders", "n1,n2,...", args.orders, *kinds)))
    if any(n < 0 for n in orders):
        raise ValueError("orders must be >= 0")
    constants = PhysicalConstants(hbar=args.hbar)
    params = CAT_DEFAULTS
    grid = _parse_grid(args.grid)
    y = offdiagonal_lattice(args.y_max, args.n_y)

    x = grid.points
    in_y = np.abs(y) <= 1.5
    if np.count_nonzero(in_y) == 1:  # the diagonal alone, where rho_N = f_0 by construction
        raise ValueError(f"region |y| <= 1.5 holds only y = 0 at dy = {y[1] - y[0]:g}")
    region = np.ix_(np.abs(x) <= 3.0, in_y)
    # row n holds f_n; each order assembles the rows up to it
    moments = np.array(
        [cat_state_moment(params, n, x, hbar=constants.hbar) for n in range(orders[-1] + 1)]
    )
    exact = cat_state_density_matrix(params, grid, y).values.real[region]

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    results = []
    for order in orders:
        rec = assemble(GridField(grid, moments[: order + 1]), y, constants.hbar)
        err = np.abs(rec.values.values.real[region] - exact)  # cropped first
        _emit_density_grid(out_dir, f"N{order}", rec)
        results.append((order, float(err.max()), rec.trust_radius))

    summary = {
        "state": {"kind": "cat", "sigma": params.sigma, "k0": params.k0},
        "hbar": constants.hbar,
        "region": {"x_max": 3.0, "y_max": 1.5},
        "orders": [
            {"order": n, "sup_error_real": e, "trust_radius": r} for n, e, r in results
        ],
    }
    _dump_json(out_dir / "demo_summary.json", summary)
    text = ["order   sup|Re rho_N - Re rho|   trust radius"]
    text += [f"{n:5d}   {e:22.6e}   {r:12.6g}" for n, e, r in results]
    (out_dir / "demo_summary.txt").write_text("\n".join(text) + "\n")
    print("\n".join(text))
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors, which this tool reserves
    # for simulation-quality failures; route usage errors to status 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_common(p: argparse.ArgumentParser, *constants: str) -> None:
    """``--out``, and flags for the named constants (other verbs read them from a manifest)."""
    meaning = {"hbar": "Planck constant", "mass": "particle mass"}
    for name in constants:
        p.add_argument(f"--{name}", type=float, default=1.0, help=f"{meaning[name]} (default 1)")
    p.add_argument("--out", default="out", help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="hydrec", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic measured dataset")
    _add_common(p, "hbar", "mass")
    p.add_argument("--state", choices=("cat", "gaussian", "coherent"), default="cat")
    p.add_argument("--grid", default="-10,10,1024", help="xmin,xmax,n")
    p.add_argument("--times", default="0,0.005,4", help="t0,dt,m (m+1 nodes)")
    p.add_argument("--potential", default="free", help="kind:key=value,... e.g. harmonic:omega=1")
    p.add_argument("--sigma", type=float, default=CAT_DEFAULTS.sigma)
    p.add_argument("--k0", type=float, default=CAT_DEFAULTS.k0)
    p.add_argument("--center", type=float, default=0.0)
    p.add_argument("--momentum", type=float, default=0.0)
    p.add_argument("--noise", type=float, default=0.0, help="additive Gaussian noise on f0")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--substeps", type=int, default=None, help="internal steps per node interval; "
                   "dt/substeps is also the lead-in step to t0 (default: steps of at most 1e-3)")
    p.add_argument("--store-psi", action="store_true", help="also store wavefunctions")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("reconstruct", help="recursive moments from a dataset")
    _add_common(p)
    p.add_argument("dataset", help="path to dataset.json")
    p.add_argument("--order", type=int, required=True, help="highest moment order N")
    p.add_argument("--node", type=int, default=None, help="report node (default: central)")
    p.set_defaults(func=cmd_reconstruct)

    for verb, with_ref, about in (
        ("assemble", False, "assemble the density-matrix Taylor polynomial"),
        ("compare", True, "compare the Taylor polynomial against a reference"),
    ):
        p = sub.add_parser(verb, help=about)
        _add_common(p)
        p.add_argument("moments", help="path to moments.json")
        p.add_argument("--y-max", type=float, default=1.5)
        p.add_argument("--n-y", type=int, default=201)
        if with_ref:
            p.add_argument("--reference", choices=("analytic-cat", "stored-psi"), required=True)
            p.add_argument("--dataset", default="", help="dataset manifest for stored-psi")
            p.add_argument("--region-x", type=float, default=3.0)
            p.add_argument("--region-y", type=float, default=1.5)
        p.set_defaults(func=lambda a, w=with_ref: cmd_assemble_compare(a, w))

    p = sub.add_parser("demo-cat", help="multi-order reconstruction of the default cat state")
    _add_common(p, "hbar")
    p.add_argument("--orders", default="10,20,36", help="comma-separated Taylor orders")
    p.add_argument("--grid", default="-6,6,481", help="xmin,xmax,n")
    p.add_argument("--y-max", type=float, default=1.5)
    p.add_argument("--n-y", type=int, default=201)
    p.set_defaults(func=cmd_demo_cat)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except SimulationQualityError as exc:
        print(f"hydrec: simulation quality failure: {exc}", file=sys.stderr)
        return 2
    except InsufficientTimeSamplesError as exc:
        print(f"hydrec: {exc}", file=sys.stderr)
        return 3
    except MissingReferenceError as exc:
        print(f"hydrec: missing reference: {exc}", file=sys.stderr)
        return 4
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"hydrec: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())

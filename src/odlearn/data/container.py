"""ODL dataset container: a directory with a JSON manifest and raw binaries.

Layout:

    manifest.json         format_version, name, seed, grids, splits, dtype,
                          endianness, PRNG record, provenance
    train_inputs.bin      raw little-endian IEEE-754 float64, sample-major,
    train_outputs.bin     grid-point-minor, no header
    test_inputs.bin
    test_outputs.bin

Grids are stored in the manifest as explicit point arrays (JSON floats
round-trip exactly, so a save/load cycle is bit-exact). Loading verifies byte
counts against the declared shapes and rejects unknown format versions.

Saved models (``odlearn.operator``) use the same layout through the same
helpers: ``write_array``/``read_array`` for the binaries and
``write_manifest``/``read_manifest`` for the manifest. Every load failure is a
DatasetFormatError naming the file and, where there is one, the manifest key.
A binary named by a manifest must be a bare file name inside its directory.
A model manifest may name one binary under several keys: ``save_model`` writes
each distinct array once, so a model whose two sides share a grid or a
preconditioner stores it in the first key's file (``input_points.bin``,
``l_input.bin``), and ``load_model`` maps and checks each distinct file once.
Models saved with every key in a file of its own load the same.

Binaries are mapped read-only, not copied: a loaded array shares the page
cache with its file and is not writeable; grids read from a manifest are made
read-only too. Writes never change a file in place: each file is written to a
uniquely named temporary sibling and moved over its target with
``os.replace``, one file at a time, so a live mapping keeps the old file's
bytes and a reader never sees a torn file; a load racing a save of the same
directory may still see old and new files together. ``write_text`` writes the
manifests and the CLI's configs, reports and CSVs the same way. On Python <
3.13 each mapped file holds one duplicated file descriptor while an array on
it is alive. A third party rewriting a mapped file in place, rather than
replacing it, is outside this contract: the arrays change with it, and a read
past a truncated end raises SIGBUS. ``operator.load_model`` relies on it too:
a load whose bytes equal the last load's returns that model unchecked, which
is sound only because a file that passed the checks never changes in place.
"""

from __future__ import annotations

import json
import mmap
import os
import secrets
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..errors import DatasetFormatError
from ..kernels import as_points

FORMAT_VERSION = 1

_SPLIT_FILES = {
    "train_inputs": ("train_inputs.bin", "train", "input"),
    "train_outputs": ("train_outputs.bin", "train", "output"),
    "test_inputs": ("test_inputs.bin", "test", "input"),
    "test_outputs": ("test_outputs.bin", "test", "output"),
}


@dataclass
class Dataset:
    """Paired sampled input/output functions with a train/test split."""

    name: str
    input_grid: np.ndarray    # (n, d_in)
    output_grid: np.ndarray   # (m, d_out)
    train_inputs: np.ndarray  # (N_train, n)
    train_outputs: np.ndarray # (N_train, m)
    test_inputs: np.ndarray   # (N_test, n)
    test_outputs: np.ndarray  # (N_test, m)
    seed: int = 0
    provenance: str = ""
    prng: str = field(default_factory=lambda: f"numpy.random PCG64 via default_rng/SeedSequence (numpy {np.__version__})")

    def __post_init__(self) -> None:
        for attr in ("input_grid", "output_grid"):
            setattr(self, attr, as_points(getattr(self, attr), attr))
        for attr in ("train_inputs", "train_outputs", "test_inputs", "test_outputs"):
            setattr(self, attr, np.atleast_2d(np.asarray(getattr(self, attr), dtype=float)))
        n, m = self.input_grid.shape[0], self.output_grid.shape[0]
        if self.train_inputs.shape[1] != n or self.test_inputs.shape[1] != n:
            raise ValueError("input sample columns must match the input grid size")
        if self.train_outputs.shape[1] != m or self.test_outputs.shape[1] != m:
            raise ValueError("output sample columns must match the output grid size")
        if self.train_inputs.shape[0] != self.train_outputs.shape[0]:
            raise ValueError("train split row counts differ")
        if self.test_inputs.shape[0] != self.test_outputs.shape[0]:
            raise ValueError("test split row counts differ")
        for attr in ("train_inputs", "train_outputs", "test_inputs", "test_outputs"):
            if not np.isfinite(getattr(self, attr)).all():
                raise ValueError(f"{attr} contains non-finite values")

    @property
    def n_train(self) -> int:
        return self.train_inputs.shape[0]

    @property
    def n_test(self) -> int:
        return self.test_inputs.shape[0]


@contextmanager
def manifest_keys(manifest_path: Path, entry: str = "entry"):
    """Report a key missing from a manifest, or a value of the wrong type or
    form, as a DatasetFormatError naming the key or ``entry`` and the file."""
    try:
        yield
    except KeyError as exc:
        raise DatasetFormatError(f"{manifest_path}: missing key {exc.args[0]!r}") from exc
    except (TypeError, ValueError, AttributeError) as exc:
        raise DatasetFormatError(f"{manifest_path}: malformed {entry} ({exc})") from exc


def manifest_count(value) -> int:
    """A count read from a manifest: a JSON integer >= 0, not a bool. Anything
    else raises ValueError, which ``manifest_keys`` reports with the key."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise ValueError(f"expected an integer >= 0, got {value!r}")
    return value


def _replace(path: Path, write) -> None:
    """Create ``path`` anew: ``write(fh)`` fills a uniquely named temporary
    sibling, which then replaces ``path`` in one rename. On any exception the
    temporary is removed and ``path`` is left as it was."""
    tmp = path.with_name(f".{path.name}.{secrets.token_hex(8)}.tmp")
    try:
        with open(tmp, "xb") as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_array(directory: Path, name: str, arr: np.ndarray) -> dict:
    """Write ``arr`` to ``directory/name`` as raw little-endian float64, C order,
    no header, replacing any earlier file; returns its manifest entry
    ``{"file", "shape"}``."""
    data = np.ascontiguousarray(arr, dtype="<f8")
    _replace(directory / name, data.tofile)
    return {"file": name, "shape": list(data.shape)}


def manifest_file(directory: Path, name) -> Path:
    """``directory/name`` for a manifest ``file`` entry. The entry must be a
    bare file name, so that a manifest never reads a binary from outside its
    directory; anything else raises ValueError, which ``manifest_keys`` reports
    with the key."""
    bare = isinstance(name, str) and name not in ("", "..") and "\\" not in name
    if not (bare and Path(name).name == name):
        raise ValueError(f"file must be a bare file name in {directory}, got {name!r}")
    return directory / name


def read_array(path: Path, shape: tuple[int, ...]) -> np.ndarray:
    """Map a file written by ``write_array`` as a read-only array of ``shape``.
    A missing file or a byte count that does not match ``shape`` is a
    DatasetFormatError naming the file. A shape with a zero in it gives an
    empty array, since an empty file cannot be mapped."""
    if not path.is_file():
        raise DatasetFormatError(f"missing {path}")
    expected = 8 * int(np.prod(shape))
    with path.open("rb") as fh:
        found = os.fstat(fh.fileno()).st_size
        if found != expected:
            raise DatasetFormatError(
                f"{path}: expected {expected} bytes for float64 shape {shape}, found {found}"
            )
        data = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ) if expected else b""
    return np.frombuffer(data, dtype="<f8").reshape(shape)


def write_text(path: Path, text: str) -> None:
    """Replace ``path`` by a file holding ``text`` in UTF-8, as ``_replace`` does."""
    _replace(path, lambda fh: fh.write(text.encode()))


def write_manifest(directory: Path, manifest: dict) -> None:
    write_text(directory / "manifest.json", json.dumps(manifest, indent=2, sort_keys=True))


def read_manifest(directory: Path, version: int, kind: str) -> dict:
    """Parse ``directory/manifest.json`` and check its ``format_version``; any
    failure is a DatasetFormatError naming the file."""
    path = directory / "manifest.json"
    if not path.is_file():
        raise DatasetFormatError(f"{directory} has no manifest.json")
    with manifest_keys(path, "JSON"):
        manifest = json.loads(path.read_text())
    if not isinstance(manifest, dict):
        raise DatasetFormatError(f"{path}: expected a JSON object, got {type(manifest).__name__}")
    found = manifest.get("format_version")
    if found != version:
        raise DatasetFormatError(
            f"{path}: unsupported {kind} format_version {found!r}; this build reads {version}"
        )
    return manifest


def _grid_to_json(grid: np.ndarray) -> dict:
    return {"kind": "points", "shape": list(grid.shape), "points": grid.tolist()}


def _grid_from_json(entry: dict) -> np.ndarray:
    # ValueError, so that manifest_keys names the grid entry and the file
    if entry.get("kind") != "points":
        raise ValueError(f"unsupported grid kind {entry.get('kind')!r}")
    grid = np.asarray(entry["points"], dtype=float)
    if list(grid.shape) != list(entry["shape"]):
        raise ValueError(f"grid shape {list(grid.shape)} does not match declared {entry['shape']}")
    grid = as_points(grid, "points")
    grid.flags.writeable = False  # like the mapped binaries beside it
    return grid


def save_dataset(ds: Dataset, directory) -> dict:
    """Write the dataset directory and return its manifest; round-tripping
    through load is bit-exact."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for attr, (fname, _, _) in _SPLIT_FILES.items():
        write_array(directory, fname, getattr(ds, attr))
    manifest = {
        "format_version": FORMAT_VERSION,
        "name": ds.name,
        "seed": int(ds.seed),
        "prng": ds.prng,
        "grids": {
            "input": _grid_to_json(ds.input_grid),
            "output": _grid_to_json(ds.output_grid),
        },
        "splits": {"train": ds.n_train, "test": ds.n_test},
        "dtype": "f64",
        "endianness": "little",
        "provenance": ds.provenance,
    }
    write_manifest(directory, manifest)
    return manifest


def load_dataset(directory) -> Dataset:
    """Read a dataset directory, verifying format version and byte counts; a
    split with a non-finite value is a DatasetFormatError naming its file."""
    directory = Path(directory)
    manifest = read_manifest(directory, FORMAT_VERSION, "dataset")
    manifest_path = directory / "manifest.json"
    if manifest.get("dtype") != "f64" or manifest.get("endianness") != "little":
        raise DatasetFormatError(f"{manifest_path}: container must be little-endian float64")
    with manifest_keys(manifest_path):
        grids = {}
        for side in ("input", "output"):
            with manifest_keys(manifest_path, f"grids.{side}"):
                grids[side] = _grid_from_json(manifest["grids"][side])
        arrays = {}
        for attr, (fname, split, side) in _SPLIT_FILES.items():
            with manifest_keys(manifest_path, f"splits.{split}"):
                rows = manifest_count(manifest["splits"][split])
            arrays[attr] = read_array(directory / fname, (rows, grids[side].shape[0]))
        name = manifest["name"]
    try:
        ds = Dataset(
            name=name,
            input_grid=grids["input"],
            output_grid=grids["output"],
            seed=manifest.get("seed", 0),
            provenance=manifest.get("provenance", ""),
            **arrays,
        )
    except ValueError as exc:  # the shapes are the manifest's, so a split is not finite: name its file
        files = (fname for attr, (fname, _, _) in _SPLIT_FILES.items() if not np.isfinite(arrays[attr]).all())
        raise DatasetFormatError(f"{directory / next(files, 'manifest.json')}: {exc}") from exc
    ds.prng = manifest.get("prng", ds.prng)
    return ds


def manifest_sha256(directory) -> str:
    """Hash of the manifest file, used to make report rows self-describing."""
    import hashlib

    return hashlib.sha256((Path(directory) / "manifest.json").read_bytes()).hexdigest()

"""Dataset loaders (IDX, event vectors), synthetic tasks, the dataset spec and splits."""

from dataclasses import dataclass, field
import struct
from types import SimpleNamespace

import numpy as np

from .kernels import ArchitectureConfig, InputSet, _check_end, _point_rows, label_matrix
from .finite_width import init_network, forward

__all__ = [
    "DATASET_SETTINGS",
    "Dataset",
    "dataset_from_spec",
    "read_setting",
    "load_idx",
    "load_event_vectors",
    "save_event_vectors",
    "make_synthetic",
    "energy_from_label",
    "split_ids",
    "split_arrays",
]

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801

# Every dataset setting: (name, type, default, the source that reads it).
# input_dim and n_out shape synthetic data and must match file data, so
# every source reads them; synthetic data also reads its generator's own.
# The CLI flags and the plan keys are these names.
DATASET_SETTINGS = (
    ("generator", str, "teacher", "synthetic"),
    ("n_points", int, 512, "synthetic"),
    ("input_dim", int, 8, None),
    ("n_out", int, 1, None),
    ("data_seed", int, 0, "synthetic"),
    ("noise", float, 0.0, "synthetic"),
    ("teacher_depth", int, 3, "teacher"),
    ("teacher_width", int, 32, "teacher"),
    ("idx_images", str, None, "idx"),
    ("idx_labels", str, None, "idx"),
    ("events", str, None, "events"),
    ("energy_min", float, 10.0, "events"),
    ("energy_max", float, 100.0, "events"),
)


@dataclass(frozen=True)
class Dataset:
    inputs: InputSet
    labels: np.ndarray
    normalization: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "labels", label_matrix(self.labels, self.inputs.count))

    @property
    def count(self):
        return self.inputs.count

    @property
    def n_out(self):
        return self.labels.shape[1]

    def check_shape(self, **claimed):
        """ValueError, naming both values, unless each claimed input_dim or n_out is the data's."""
        for name, value in claimed.items():
            actual = {"input_dim": self.inputs.input_dim, "n_out": self.n_out}[name]
            if value != actual:
                raise ValueError("%s %d given but the data has %d" % (name, value, actual))


def _read_be32(f):
    data = f.read(4)
    if len(data) != 4:
        raise ValueError("truncated IDX header")
    return struct.unpack(">I", data)[0]


def load_idx(images_path, labels_path):
    """Load an IDX image/label pair as a flattened one-hot dataset.

    Pixels are scaled to [0, 1]; labels become 10-dim one-hot rows. A file
    shorter or longer than its header promises raises ValueError.
    """
    with open(images_path, "rb") as f:
        magic = _read_be32(f)
        if magic != IDX_IMAGE_MAGIC:
            raise ValueError("bad image magic 0x%08x" % magic)
        count = _read_be32(f)
        rows = _read_be32(f)
        cols = _read_be32(f)
        payload = f.read(count * rows * cols)
        if len(payload) != count * rows * cols:
            raise ValueError("truncated IDX image payload")
        _check_end(f, "IDX image file")
        images = np.frombuffer(payload, dtype=np.uint8).reshape(count, rows * cols)

    with open(labels_path, "rb") as f:
        magic = _read_be32(f)
        if magic != IDX_LABEL_MAGIC:
            raise ValueError("bad label magic 0x%08x" % magic)
        label_count = _read_be32(f)
        raw = f.read(label_count)
        if len(raw) != label_count:
            raise ValueError("truncated IDX label payload")
        _check_end(f, "IDX label file")
        digits = np.frombuffer(raw, dtype=np.uint8)

    if label_count != count:
        raise ValueError("image count %d != label count %d" % (count, label_count))
    if digits.size and digits.max() > 9:
        raise ValueError("label byte %d is not a digit 0-9" % digits.max())
    onehot = np.zeros((count, 10))
    onehot[np.arange(count), digits] = 1.0
    return Dataset(inputs=InputSet(images.astype(float) / 255.0), labels=onehot)


def load_event_vectors(path, energy_min, energy_max):
    """Load flattened event vectors with scalar energy labels.

    Binary layout: u64 LE count, u64 LE input dim, then per event `dim`
    f64 inputs followed by one f64 energy label. Energies are mapped
    affinely onto [0.1, 1.0]; the map is recorded for inversion. A file
    shorter or longer than its header promises raises ValueError.
    """
    if energy_max <= energy_min:
        raise ValueError("energy_max must exceed energy_min")
    with open(path, "rb") as f:
        header = f.read(16)
        if len(header) != 16:
            raise ValueError("truncated event file header")
        count, dim = struct.unpack("<QQ", header)
        payload = f.read(count * (dim + 1) * 8)
        if len(payload) != count * (dim + 1) * 8:
            raise ValueError("truncated event file payload")
        _check_end(f, "event file")
    data = np.frombuffer(payload, dtype="<f8").reshape(count, dim + 1)
    energies = data[:, -1]
    if np.any(energies < energy_min) or np.any(energies > energy_max):
        raise ValueError("event energy outside [%g, %g]" % (energy_min, energy_max))
    labels = 0.1 + 0.9 * (energies - energy_min) / (energy_max - energy_min)
    return Dataset(
        inputs=InputSet(data[:, :-1].copy()),
        labels=labels[:, None],
        normalization={"energy_min": float(energy_min), "energy_max": float(energy_max)},
    )


def save_event_vectors(path, inputs, energies):
    """Write the flat event-vector binary layout read by load_event_vectors."""
    X = _point_rows(inputs)
    energies = label_matrix(energies, X.shape[0], 1)
    with open(path, "wb") as f:
        f.write(struct.pack("<QQ", X.shape[0], X.shape[1]))
        f.write(np.ascontiguousarray(np.column_stack([X, energies]), dtype="<f8").tobytes())


def energy_from_label(dataset, labels):
    """Invert the affine [0.1, 1.0] energy normalization."""
    lo = dataset.normalization["energy_min"]
    hi = dataset.normalization["energy_max"]
    return lo + (np.asarray(labels) - 0.1) / 0.9 * (hi - lo)


def make_synthetic(generator, n_points, input_dim, seed, teacher_arch=None, noise=0.0):
    """Deterministic synthetic datasets for desk-scale experiments.

    generator "teacher": standard-normal inputs labeled by a frozen
    randomly initialized MLP. generator "sinusoid": inputs uniform on
    [-1, 1]^d, scalar label prod_j sin(pi x_j) plus optional noise.
    """
    rng = np.random.default_rng(seed)
    if generator == "teacher":
        if teacher_arch is None:
            raise ValueError("teacher generator needs a teacher_arch")
        X = rng.standard_normal((n_points, input_dim))
        teacher = init_network(teacher_arch, seed + 1)
        Y = forward(teacher, X)
    elif generator == "sinusoid":
        X = rng.uniform(-1.0, 1.0, size=(n_points, input_dim))
        Y = np.prod(np.sin(np.pi * X), axis=1)[:, None]
    else:
        raise ValueError("unknown synthetic generator %r" % generator)
    if noise > 0:
        Y = Y + noise * rng.standard_normal(Y.shape)
    return Dataset(inputs=InputSet(X), labels=Y)


def read_setting(key, cast, text):
    """cast(text), or a ValueError that names the setting key."""
    try:
        return cast(text)
    except ValueError:
        raise ValueError("%s: %r is not a valid %s" % (key, text, cast.__name__)) from None


def dataset_from_spec(given, **defaults):
    """The Dataset that `given`, the DATASET_SETTINGS a user set, describes.

    Unset settings read `defaults`, then their own default. The source is the IDX pair, the
    events file, or else synthetic data, which also reads its generator's settings. A value
    that does not cast, a setting the source does not read, or an input_dim or n_out unlike
    the data's, raises ValueError.
    """
    v = SimpleNamespace(**{
        name: read_setting(name, cast, given[name]) if name in given
        else defaults.get(name, default)
        for name, cast, default, _ in DATASET_SETTINGS
    })
    if ("idx_images" in given) != ("idx_labels" in given):
        raise ValueError("idx_images and idx_labels must be given together")
    source = "idx" if "idx_images" in given else "events" if "events" in given else "synthetic"
    if source == "synthetic" and v.generator not in ("teacher", "sinusoid"):
        raise ValueError("unknown synthetic generator %r" % v.generator)
    reader = v.generator if source == "synthetic" else source
    unread = [
        n for n, *_, src in DATASET_SETTINGS if n in given and src not in (None, source, reader)
    ]
    if unread:
        raise ValueError("%s data does not read %s" % (reader, ", ".join(unread)))
    if source == "idx":
        dataset = load_idx(v.idx_images, v.idx_labels)
    elif source == "events":
        dataset = load_event_vectors(v.events, v.energy_min, v.energy_max)
    else:
        arch = ArchitectureConfig(v.teacher_depth, v.input_dim, v.teacher_width, v.n_out)
        dataset = make_synthetic(v.generator, v.n_points, v.input_dim, v.data_seed, arch, v.noise)
    dataset.check_shape(**{n: getattr(v, n) for n in ("input_dim", "n_out") if n in given})
    return dataset


def split_ids(dataset, seed, n_test, n_val, n_train):
    """(test, validation, pool) rows of one seeded permutation; the pool holds >= n_train."""
    if min(n_test, n_val, n_train) < 1:
        raise ValueError("n_test, n_val and n_train must be >= 1")
    needed = n_test + n_val + n_train
    if needed > dataset.count:
        raise ValueError("split needs %d points but dataset has %d" % (needed, dataset.count))
    perm = np.random.default_rng(seed).permutation(dataset.count)
    return perm[:n_test], perm[n_test : n_test + n_val], perm[n_test + n_val :]


def split_arrays(dataset, train_ids, val_ids, test_ids):
    """The x_/y_ train, val and test arrays that run_ensemble takes."""
    split = {}
    for part, ids in (("train", train_ids), ("val", val_ids), ("test", test_ids)):
        split["x_" + part], split["y_" + part] = dataset.inputs.points[ids], dataset.labels[ids]
    return split

"""Experiment configuration: versioned JSON in, validated objects out.

Every command takes one JSON document.  Validation errors name the faulty
field; unknown fields, unknown problem ids or malformed sections never
reach the solvers.  Block indices in subsets are 0-based.  ``json_ready``
is the way back out: every report and resolved config is written through it.

Every rule about a config field lives here: ``parse_config`` checks what
the document decides, the problem's params included, and computes the rate
gauge's factor once (``gauge_factor``), and the ``ExperimentConfig``
methods check what needs the built problem.  A trajectory column is
checked against the trajectory, by ``rates.check_column``.  Parsing loads
no numpy: the scheme and regions are plain-float classes defined here,
and the arrays (steps, Q, b) are built with the problem.
"""

from __future__ import annotations

import json
import math
import sys
from typing import TYPE_CHECKING, Any, Callable, NamedTuple

from .errors import (
    ConfigError,
    DimensionMismatch,
    InadmissibleGauge,
    InvalidFixedPoints,
    NotPSD,
    UncoveredBlock,
    UnsupportedSet,
)

if TYPE_CHECKING:
    from .problems import ProblemSpec
    from .splitting import SplittingMap

SCHEMA_VERSION = 1

# Steps of subset draws that ``markov.run`` prefetches per chain at a time.
# Results do not depend on it; it only bounds the outcome table at (DRAW_BLOCK, N).
DRAW_BLOCK = 256

CERTIFY_PROPERTIES = (
    "pointwise_aafne",
    "aafne_in_expectation",
    "paracontraction_in_expectation",
    "expectation_identities",
)


# The fields a config's top level takes.  The scheme, each section and a
# region take the fields their class's ``_fields`` names, and each tagged
# object the fields of its kind.
TOP_FIELDS = ("schema_version", "problem", "flavor", "scheme", "steps", "seed", "output_dir",
              "run", "certify", "rate")
RUN_INIT_FIELDS = {"region": (), "point": ("x",), "uniform_box": ("lo", "hi")}
TARGET_FIELDS = {"full": (), "subset": ("index",)}
GAUGE_FIELDS = {"linear": ("kappa", "tau", "epsilon")}
GAUGE_EPSILON = 0.0  # a gauge's epsilon where neither the config nor the command line gives one
# every set field is a vector of coordinates, except a ball's radius
SET_FIELDS = {"point": ("point",), "box": ("lo", "hi"), "ball": ("center", "radius"),
              "line": ("point", "direction")}


def json_ready(value):
    """A strict-JSON copy of ``value``, the one conversion of every report and config.

    A record, whose class's ``_fields`` names its fields in declaration
    order (a ``NamedTuple``, or a class of the package that declares them),
    becomes the dict of those fields; an array or numpy scalar (whatever
    has a ``tolist``) its ``tolist()``; NaN and infinities None.
    """
    names = getattr(type(value), "_fields", None)
    if names is not None:
        return {name: json_ready(getattr(value, name)) for name in names}
    if hasattr(value, "tolist"):
        return json_ready(value.tolist())
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: json_ready(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [json_ready(v) for v in value]
    return value


class Record:
    """Value equality and a repr by the fields that ``_fields`` names; records do not hash.

    A record that checks or normalizes its fields, or changes after
    construction, is a plain class with ``__slots__``, not a ``NamedTuple``.
    One that a config or a report holds declares ``_fields`` as a
    ``NamedTuple`` has it, in declaration order: ``json_ready`` writes those
    fields and ``parse_config`` takes them as the allowed keys.  Those of
    them compared as values derive from this class.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _asdict(self) -> dict:
        """Each field that ``_fields`` names and its value, as a ``NamedTuple``'s ``_asdict``."""
        return {name: getattr(self, name) for name in self._fields}

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._asdict() == other._asdict()

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in self._asdict().items())
        return f"{type(self).__name__}({fields})"


class BlockSubsetScheme(Record):
    """Finite family of block subsets with selection probabilities.

    ``subsets[i]`` is the tuple of block indices updated when outcome i is
    drawn; ``probs[i]`` is its probability.  Every block must appear in at
    least one subset of positive probability so that the induced per-block
    rates are nonzero.
    """

    __slots__ = _fields = ("subsets", "probs")

    def __init__(self, subsets: tuple[tuple[int, ...], ...], probs: tuple[float, ...]):
        subsets = tuple(tuple(sorted(set(int(j) for j in s))) for s in subsets)
        probs = tuple(float(q) for q in probs)
        if len(subsets) == 0:
            raise UncoveredBlock("scheme needs at least one subset")
        if len(subsets) != len(probs):
            raise DimensionMismatch(f"{len(subsets)} subsets but {len(probs)} probabilities")
        if any(len(s) == 0 for s in subsets):
            raise UncoveredBlock("empty subset in scheme")
        if any(q < 0 for q in probs):
            raise ValueError(f"negative probability in {probs}")
        # a NaN or infinite probability makes the sum NaN or infinite, which fails here
        total = sum(probs)
        if not abs(total - 1.0) <= 1e-12:
            raise ValueError(f"probabilities sum to {total!r}, expected 1")
        self.subsets = subsets
        self.probs = probs

    @property
    def num_outcomes(self) -> int:
        return len(self.subsets)

    def max_block_index(self) -> int:
        return max(max(s) for s in self.subsets)


class Region(Record):
    """Axis-aligned box, a float per coordinate; degenerate coordinates pin affine restrictions."""

    __slots__ = _fields = ("lo", "hi")

    def __init__(self, lo: tuple[float, ...], hi: tuple[float, ...]):
        lo, hi = tuple(float(v) for v in lo), tuple(float(v) for v in hi)
        if len(lo) != len(hi):
            raise DimensionMismatch(f"region bounds must have equal lengths, got {len(lo)} and {len(hi)}")
        if not all(map(math.isfinite, lo + hi)):
            raise ValueError("region bounds must be finite")
        if any(a > b for a, b in zip(lo, hi)):
            raise ValueError("region lower bound exceeds upper bound")
        for j, (a, b) in enumerate(zip(lo, hi)):  # a sample draws lo + (hi - lo) u
            if not math.isfinite(b - a):
                raise ValueError(f"region width hi - lo overflows at coordinate {j}")
        self.lo = lo
        self.hi = hi

    @property
    def dim(self) -> int:
        return len(self.lo)

    def sample(self, rng, n: int):
        """``n`` points drawn uniformly from the box by ``rng``, an (n, dim) array."""
        return rng.uniform(self.lo, self.hi, size=(n, self.dim))


def _object(v, where: str, allowed) -> dict:
    """``v`` as an object with no field outside ``allowed``, so a misspelt field is no silent default."""
    if not isinstance(v, dict):
        raise ConfigError(f"{where}: expected an object, got {v!r}")
    for key in v:
        if key not in allowed:
            raise ConfigError(f"{where}.{key}: unknown field; expected one of {', '.join(allowed)}")
    return v


def _kind(v, where: str, kinds: dict) -> str:
    """The kind of a tagged object, whose other fields must be those of its kind."""
    kind = v.get("kind") if isinstance(v, dict) else None
    if not isinstance(kind, str) or kind not in kinds:
        raise ConfigError(f"{where}: expected an object with 'kind' one of {', '.join(kinds)}, got {v!r}")
    _object(v, where, ("kind", *kinds[kind]))
    return kind


def _require(d: dict, key: str, where: str) -> Any:
    if key not in d:
        raise ConfigError(f"{where}.{key}: missing required field")
    return d[key]


def _as_int(v, where: str, minimum: int | None = None) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"{where}: expected an integer, got {v!r}")
    if minimum is not None and v < minimum:
        raise ConfigError(f"{where}: must be >= {minimum}, got {v}")
    return v


def _as_count(v, where: str, minimum: int) -> int:
    """An integer count of array rows: numpy takes no dimension above ``sys.maxsize``."""
    n = _as_int(v, where, minimum)
    if n > sys.maxsize:
        raise ConfigError(f"{where}: must be <= {sys.maxsize}, got {n}")
    return n


def _as_float(v, where: str) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{where}: expected a number, got {v!r}")
    try:
        return float(v)
    except OverflowError:  # an integer beyond the largest float
        raise ConfigError(f"{where}: integer too large for a float") from None


def _as_finite(v, where: str, nonnegative: bool = False) -> float:
    x = _as_float(v, where)
    if not math.isfinite(x) or (nonnegative and x < 0):
        rule = "finite and nonnegative" if nonnegative else "finite"
        raise ConfigError(f"{where}: must be {rule}, got {x}")
    return x


def _as_bool(v, where: str) -> bool:
    if not isinstance(v, bool):
        raise ConfigError(f"{where}: expected true or false, got {v!r}")
    return v


def _as_vector(v, where: str) -> list[float]:
    if not isinstance(v, (list, tuple)) or any(t is bool or not issubclass(t, (int, float)) for t in set(map(type, v))):
        raise ConfigError(f"{where}: expected a list of numbers, got {v!r}")
    try:
        return [float(x) for x in v]
    except OverflowError:
        for i, x in enumerate(v):  # raises at the first entry beyond the largest float
            _as_float(x, f"{where}[{i}]")
        raise


def _as_finite_vector(v, where: str) -> list[float]:
    x = _as_vector(v, where)
    if not all(map(math.isfinite, x)):
        raise ConfigError(f"{where}: must be finite, got {x}")
    return x


def _as_indices(v, where: str, minimum: int) -> tuple[int, ...]:
    if not isinstance(v, list):
        raise ConfigError(f"{where}: expected a list of integers, got {v!r}")
    return tuple(_as_int(x, f"{where}[{i}]", minimum) for i, x in enumerate(v))


# Each section class holds its fields' defaults, which parse_config gives an
# absent field and the library functions that the commands call take.  A dict
# default is one object, shared by every section left at it; none is mutated.
class RunSection(NamedTuple):
    num_chains: int
    iterations: int
    snapshot_every: int = 0
    dw_step_every: int = 0
    init: dict = {"kind": "region"}
    strict_steps: bool = False


class CertifySection(NamedTuple):
    property: str
    target: dict = {"kind": "full"}
    alpha: float = 0.5
    violation: float = 0.0
    num_pairs: int = 10_000
    region: Region | None = None
    tolerance: float = 1e-10
    adversarial: bool = True
    residual_threshold: float = 1e-8


class RateSection(Record):
    _fields = ("column", "gauge", "fejer_tol_rel", "tail_tol")
    # gauge_factor: the factor parse_config computes from ``gauge``, which reports keep as given
    __slots__ = _fields + ("gauge_factor",)

    def __init__(self, column: str = "d_target", gauge: dict | None = None,
                 fejer_tol_rel: float = 1e-3, tail_tol: float = 1e-3):
        self.column = column
        self.gauge = gauge
        self.fejer_tol_rel = fejer_tol_rel
        self.tail_tol = tail_tol
        self.gauge_factor: float | None = None


class ExperimentConfig(Record):
    """A fully validated experiment description."""

    _fields = ("problem_id", "problem_params", "flavor", "scheme", "steps", "seed", "output_dir",
               "run", "certify", "rate")
    # builder: the params' (field, constructor) pair, checked once here; reports do not write it
    __slots__ = _fields + ("builder",)

    def __init__(self, problem_id: str, problem_params: dict, flavor: str,
                 scheme: BlockSubsetScheme, steps: list[float] | None, seed: int,
                 output_dir: str | None = None, run: RunSection | None = None,
                 certify: CertifySection | None = None, rate: RateSection | None = None):
        self.problem_id = problem_id
        self.problem_params = problem_params
        self.flavor = flavor
        self.scheme = scheme
        self.steps = steps
        self.seed = seed
        self.output_dir = output_dir
        self.run = run
        self.certify = certify
        self.rate = rate
        self.builder: tuple[str, Callable] = _problem_builder(problem_id)(problem_params)

    def build_problem(self) -> ProblemSpec:
        return build_problem(self.problem_id, self.problem_params, self.builder)

    def build(self) -> tuple[ProblemSpec, SplittingMap]:
        """The problem and its splitting map, refusing steps or subsets the problem's blocks do not take.

        The problem keeps its target only where this map fixes it (``require_fixed``).
        A count whose up-front array passes the largest byte size numpy can
        index is refused as out of memory, as numpy refuses a smaller one
        that does not fit.
        """
        from .splitting import require_fixed

        problem = self.build_problem()
        num_blocks = problem.layout.num_blocks
        if self.steps is not None and len(self.steps) not in (1, num_blocks):
            raise ConfigError(f"config.steps: expected 1 or {num_blocks} values, got {len(self.steps)}")
        top = self.scheme.max_block_index()
        if top >= num_blocks:
            raise ConfigError(f"config.scheme.subsets: block {top} out of range for a problem of "
                              f"{num_blocks} blocks")
        for where, shape, itemsize in self._up_front_arrays(problem.layout.total_dim, num_blocks):
            nbytes = math.prod(shape) * itemsize
            if nbytes > sys.maxsize:  # numpy refuses it with a ValueError, before any allocation
                raise MemoryError(f"{where}: an array of shape {shape} and {itemsize}-byte items takes "
                                  f"{nbytes} bytes, more than the {sys.maxsize} that numpy can index")
        m = problem.build_map(self.flavor, self.scheme, self.steps)
        if problem.target_point is not None:  # keep the target only where this map fixes it
            try:
                require_fixed(m, problem.target_point)
            except InvalidFixedPoints:
                problem.target_point = None
        return problem, m

    def _up_front_arrays(self, dim: int, num_blocks: int) -> list[tuple[str, tuple[int, ...], int]]:
        """The field that sizes each array a command allocates before its work, its shape and item size."""
        arrays = []
        if self.run is not None:
            n, k = self.run.num_chains, self.run.iterations
            arrays += [
                ("config.run.num_chains", (n, dim), 8),  # the initial uniforms, then the states
                ("config.run.num_chains", (n, 8), 4),  # one stream's seed words
                ("config.run.num_chains", (min(k, DRAW_BLOCK), n), 8),  # the draw table
                # the trajectory table: k, four diagnostics and the block means
                ("config.run.iterations", (k + 1, 5 + num_blocks), 8),
            ]
        if self.certify is not None:
            arrays.append(("config.certify.num_pairs", (self.certify.num_pairs, dim), 8))
        return arrays

    def initial_sampler(self, problem: ProblemSpec):
        """The sampler of ``run.init``, refusing coordinates the problem does not have."""
        from .markov import point_sampler, uniform_box_sampler

        init = self.run.init
        kind = init["kind"]
        dim = problem.layout.total_dim
        if kind == "point":
            if len(init["x"]) != dim:
                raise ConfigError(f"config.run.init.x: expected {dim} coordinates, got {len(init['x'])}")
            return point_sampler(init["x"])
        if kind == "uniform_box":
            # parse_config has checked that lo and hi have one length
            if len(init["lo"]) != dim:
                raise ConfigError(f"config.run.init: expected bounds of {dim} coordinates, "
                                  f"got {len(init['lo'])}")
            return uniform_box_sampler(init["lo"], init["hi"])
        return uniform_box_sampler(problem.region.lo, problem.region.hi)

    def certify_region(self, problem: ProblemSpec) -> Region:
        """``certify.region``, or the problem's own region; either must have the problem's dimension."""
        region = self.certify.region if self.certify.region is not None else problem.region
        if region.dim != problem.layout.total_dim:
            raise ConfigError(
                f"config.certify.region: dimension {region.dim} does not match problem "
                f"dimension {problem.layout.total_dim}"
            )
        return region

    def document(self) -> dict:
        """The config with defaults applied, as reports embed it; ``json_ready`` writes it."""
        doc = {
            "schema_version": SCHEMA_VERSION,
            "problem": {"id": self.problem_id, "params": self.problem_params},
            "flavor": self.flavor,
            "scheme": self.scheme,
            "steps": self.steps,
            "seed": self.seed,
            "output_dir": self.output_dir,
        }
        for name in ("run", "certify", "rate"):
            if getattr(self, name) is not None:
                doc[name] = getattr(self, name)
        return doc


def _counterexample2d(params: dict) -> tuple[str, Callable]:
    _object(params, "problem.params", ("t",))
    t = _as_finite(params.get("t", 0.25), "problem.params.t")
    return "problem.params.t", lambda gallery: gallery.counterexample2d(t)


def _set_kind(s, where: str) -> str:
    """The kind of a set descriptor whose vectors are finite and of one length.

    The kind's own checks, and a missing field, come with its projection.
    """
    kind = _kind(s, where, SET_FIELDS)
    vectors = {key: _as_finite_vector(s[key], f"{where}.{key}")
               for key in SET_FIELDS[kind] if key != "radius" and key in s}
    if len({len(v) for v in vectors.values()}) > 1:
        lengths = " and ".join(str(len(v)) for v in vectors.values())
        raise ConfigError(f"{where}: {' and '.join(vectors)} must have equal lengths, got {lengths}")
    return kind


def _feasibility(params: dict) -> tuple[str, Callable]:
    _object(params, "problem.params", ("sets", "coupling"))
    raw_sets = _require(params, "sets", "problem.params")
    if not isinstance(raw_sets, list) or len(raw_sets) < 2:
        raise ConfigError("problem.params.sets: expected a list of at least two set descriptors")
    for idx, s in enumerate(raw_sets):
        _set_kind(s, f"problem.params.sets[{idx}]")
    coupling = params.get("coupling", "sqdist")
    if coupling not in ("sqdist", "indicator"):
        raise ConfigError(
            f"problem.params.coupling: expected 'sqdist' or 'indicator', got {coupling!r}"
        )

    def build(gallery) -> ProblemSpec:
        sets = []
        for idx, s in enumerate(raw_sets):
            try:
                sets.append(gallery.make_set(**s))
            except Exception as e:
                raise ConfigError(f"problem.params.sets[{idx}]: {e}") from e
        return gallery.feasibility(sets, coupling)

    return "problem.params.sets", build


def _quadratic_l1(params: dict) -> tuple[str, Callable]:
    _object(params, "problem.params", ("Q", "b", "l1_weights", "block_dims"))
    Q = _require(params, "Q", "problem.params")
    if not isinstance(Q, list) or len({len(_as_finite_vector(row, "problem.params.Q")) for row in Q}) > 1:
        raise ConfigError(f"problem.params.Q: expected a list of equal-length rows of numbers, got {Q!r}")
    b = _as_finite_vector(_require(params, "b", "problem.params"), "problem.params.b")
    w = _as_finite_vector(_require(params, "l1_weights", "problem.params"), "problem.params.l1_weights")
    bd = params.get("block_dims")
    bd = None if bd is None else _as_indices(bd, "problem.params.block_dims", 1)
    return "problem.params", lambda gallery: gallery.quadratic_l1(Q, b, w, bd)


# The problem ids a config may name, each with the builder that checks its
# params and returns the field that names a build error and the constructor,
# which takes the problems module: that module is loaded only at a build.
PROBLEM_BUILDERS = {
    "counterexample2d": _counterexample2d,
    "feasibility": _feasibility,
    "quadratic_l1": _quadratic_l1,
}


def _problem_builder(problem_id) -> Callable:
    """The builder of ``problem_id``, which must name one of PROBLEM_BUILDERS (a list or dict names none)."""
    if not isinstance(problem_id, str) or problem_id not in PROBLEM_BUILDERS:
        raise ConfigError(f"config.problem.id: unknown problem {problem_id!r}; "
                          f"available: {sorted(PROBLEM_BUILDERS)}")
    return PROBLEM_BUILDERS[problem_id]


def build_problem(problem_id: str, params: dict,
                  builder: tuple[str, Callable] | None = None) -> ProblemSpec:
    """The problem of ``params``; ``builder`` is their checked (field, constructor) pair, if at hand."""
    where, construct = builder if builder is not None else _problem_builder(problem_id)(params)
    from . import problems

    try:
        return construct(problems)
    except (ValueError, DimensionMismatch, NotPSD, UnsupportedSet) as e:
        raise ConfigError(f"{where}: {e}") from e


def _parse_region(d: dict, where: str) -> Region:
    lo = _as_vector(_require(d, "lo", where), f"{where}.lo")
    hi = _as_vector(_require(d, "hi", where), f"{where}.hi")
    try:
        return Region(lo, hi)
    except Exception as e:
        raise ConfigError(f"{where}: {e}") from e


def gauge_factor(constants: dict, where: str) -> float:
    """The factor of the linear gauge of kappa, tau and epsilon, refused unless it lies in (0, 1).

    ``constants`` maps the name each value is reported under (a config
    field or a flag) to kappa, tau and epsilon, in that order.  Each must
    be finite, tau positive and epsilon nonnegative; a kappa outside the
    admissible window is reported under ``where``.
    """
    (_, kappa), (tau_name, tau), (epsilon_name, epsilon) = constants.items()
    for name, v in constants.items():
        _as_finite(v, name)
    if not tau > 0:
        raise ConfigError(f"{tau_name}: must be positive, got {tau}")
    _as_finite(epsilon, epsilon_name, nonnegative=True)
    from .rates import theta_linear

    try:
        return theta_linear(kappa, tau, epsilon)
    except InadmissibleGauge as e:
        raise ConfigError(f"{where}: {e}") from e


def parse_config(doc: dict) -> ExperimentConfig:
    """Validate a parsed JSON document into an ExperimentConfig."""
    _object(doc, "config", TOP_FIELDS)
    version = _as_int(_require(doc, "schema_version", "config"), "config.schema_version")
    if version != SCHEMA_VERSION:
        raise ConfigError(
            f"config.schema_version: this build reads version {SCHEMA_VERSION}, got {version}"
        )
    prob = _object(_require(doc, "problem", "config"), "config.problem", ("id", "params"))
    problem_id = _require(prob, "id", "config.problem")
    _problem_builder(problem_id)
    params = prob.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError("config.problem.params: expected an object")

    flavor = _require(doc, "flavor", "config")
    if flavor not in ("fb", "dr"):
        raise ConfigError(f"config.flavor: expected 'fb' or 'dr', got {flavor!r}")

    raw_scheme = _object(_require(doc, "scheme", "config"), "config.scheme",
                         BlockSubsetScheme._fields)
    subsets = _require(raw_scheme, "subsets", "config.scheme")
    if not isinstance(subsets, list):
        raise ConfigError(f"config.scheme.subsets: expected a list of block-index lists, got {subsets!r}")
    subsets = tuple(_as_indices(s, f"config.scheme.subsets[{i}]", 0) for i, s in enumerate(subsets))
    probs = _as_vector(_require(raw_scheme, "probs", "config.scheme"), "config.scheme.probs")
    try:
        scheme = BlockSubsetScheme(subsets, tuple(probs))
    except Exception as e:
        raise ConfigError(f"config.scheme: {e}") from e

    steps = doc.get("steps")
    steps_arr = None if steps is None else _as_vector(steps, "config.steps")
    if steps_arr is not None and not all(math.isfinite(x) and x > 0 for x in steps_arr):
        raise ConfigError(f"config.steps: every step must be finite and positive, got {steps}")

    seed = _as_int(_require(doc, "seed", "config"), "config.seed", minimum=0)
    output_dir = doc.get("output_dir")
    if output_dir is not None and not isinstance(output_dir, str):
        raise ConfigError("config.output_dir: expected a string path")

    run_sec = None
    if "run" in doc:
        r = {**RunSection._field_defaults, **_object(doc["run"], "config.run", RunSection._fields)}
        init = r["init"]
        kind = _kind(init, "config.run.init", RUN_INIT_FIELDS)
        if kind == "point":
            _as_finite_vector(_require(init, "x", "config.run.init"), "config.run.init.x")
        elif kind == "uniform_box":
            _parse_region(init, "config.run.init")
        run_sec = RunSection(
            num_chains=_as_count(_require(r, "num_chains", "config.run"), "config.run.num_chains", 1),
            iterations=_as_count(_require(r, "iterations", "config.run"), "config.run.iterations", 0),
            snapshot_every=_as_int(r["snapshot_every"], "config.run.snapshot_every", 0),
            dw_step_every=_as_int(r["dw_step_every"], "config.run.dw_step_every", 0),
            init=init,
            strict_steps=_as_bool(r["strict_steps"], "config.run.strict_steps"),
        )

    certify_sec = None
    if "certify" in doc:
        c = {**CertifySection._field_defaults, **_object(doc["certify"], "config.certify", CertifySection._fields)}
        prop = _require(c, "property", "config.certify")
        if prop not in CERTIFY_PROPERTIES:
            raise ConfigError(
                f"config.certify.property: expected one of {CERTIFY_PROPERTIES}, got {prop!r}"
            )
        target = c["target"]
        if _kind(target, "config.certify.target", TARGET_FIELDS) == "subset":
            if prop != "pointwise_aafne":
                raise ConfigError(f"config.certify.target: a subset target applies to "
                                  f"pointwise_aafne only, not to {prop}")
            idx = _as_int(_require(target, "index", "config.certify.target"), "config.certify.target.index", 0)
            if idx >= scheme.num_outcomes:
                raise ConfigError(f"config.certify.target.index: {idx} out of range for "
                                  f"{scheme.num_outcomes} subsets")
        alpha = _as_float(c["alpha"], "config.certify.alpha")
        if not 0 < alpha < 1:
            raise ConfigError(f"config.certify.alpha: must lie in (0, 1), got {alpha}")
        region = c["region"]
        if region is not None:
            region = _parse_region(_object(region, "config.certify.region", Region._fields),
                                   "config.certify.region")
        certify_sec = CertifySection(
            property=prop,
            target=target,
            alpha=alpha,
            violation=_as_finite(c["violation"], "config.certify.violation", True),
            num_pairs=_as_count(c["num_pairs"], "config.certify.num_pairs", 1),
            region=region,
            tolerance=_as_finite(c["tolerance"], "config.certify.tolerance"),
            adversarial=_as_bool(c["adversarial"], "config.certify.adversarial"),
            residual_threshold=_as_finite(c["residual_threshold"], "config.certify.residual_threshold", True),
        )

    rate_sec = None
    if "rate" in doc:
        r = {**RateSection()._asdict(), **_object(doc["rate"], "config.rate", RateSection._fields)}
        gauge, factor = r["gauge"], None
        if gauge is not None:
            _kind(gauge, "config.rate.gauge", GAUGE_FIELDS)
            kappa, tau = (_as_float(_require(gauge, key, "config.rate.gauge"), f"config.rate.gauge.{key}")
                          for key in ("kappa", "tau"))
            epsilon = gauge.get("epsilon")
            epsilon = GAUGE_EPSILON if epsilon is None else _as_float(epsilon, "config.rate.gauge.epsilon")
            factor = gauge_factor({"config.rate.gauge.kappa": kappa, "config.rate.gauge.tau": tau,
                                   "config.rate.gauge.epsilon": epsilon}, "config.rate.gauge")
        column = r["column"]
        if not isinstance(column, str):
            raise ConfigError(f"config.rate.column: expected a trajectory column name, got {column!r}")
        rate_sec = RateSection(
            column=column,
            gauge=gauge,
            # a negative fejer_tol_rel asks every step to shrink by that fraction
            fejer_tol_rel=_as_finite(r["fejer_tol_rel"], "config.rate.fejer_tol_rel"),
            tail_tol=_as_finite(r["tail_tol"], "config.rate.tail_tol", True),
        )
        rate_sec.gauge_factor = factor

    # checks the params after the sections, so that a section's error is reported first
    return ExperimentConfig(
        problem_id=problem_id,
        problem_params=params,
        flavor=flavor,
        scheme=scheme,
        steps=steps_arr,
        seed=seed,
        output_dir=output_dir,
        run=run_sec,
        certify=certify_sec,
        rate=rate_sec,
    )


def load_config(path) -> ExperimentConfig:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as e:
        raise ConfigError(f"config file is not valid JSON: {e}")
    except ValueError as e:  # not UTF-8, or an integer of more digits than Python converts
        raise ConfigError(f"config file cannot be read as JSON: {e}")
    return parse_config(doc)

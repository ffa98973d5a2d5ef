"""Config file parsing, preset expansion, validation, and serialization.

The format is line-oriented text: `[section]` headers, `key = value` lines,
`#` comment lines, nothing else.  Values are scalars, comma-separated vectors
("1.0, 2.0"), or semicolon-separated matrix rows ("1,0; 0,1").  Unknown
sections and keys are hard errors with the offending line number.

Resolution order, later wins: preset defaults, then file keys, then --set
overrides.  The preset comes from [experiment] preset unless the caller
passes one explicitly.  After resolution every value is a string; typed
parsing and invariant checks happen in one place when the runtime objects are
built, so error messages can always point at a config path; that includes
values the run reads that its runtime would reject, and every given key,
read or not, parses as its kind.  _KEYS alone declares each key's kind and
default.

Keys:
  [experiment]  name, algorithm, seed, output_dir, preset, plot
  [grid]        n_steps, t_start, t_end
  [codec]       scale, offset
  [inputs]      x0, x_target, sample_source, count
  [transport]   beta0, phi, delta, clip_tau, orientation, window_hi, window_lo
  [editor]      eta, eta_start, eta_stop, condition, n_avg, n_max, n_min,
                source_condition, target_condition
  [scales]      w, w_src, w_tar
  [sweep]       replicates
  [verify]      kind, beta0_list, edit_beta0_list, step_counts, phi, n_runs,
                probe_t, condition
  [dataset.X]   points, csv, mean, cov

algorithm is invert_edit|flowedit|generate|verify; codec scale and offset
are a scalar or a d-vector (identity when omitted); sample_source names the
dataset x0 is drawn from.  invert_edit reads the editor keys eta through
condition, flowedit n_avg through target_condition (cfg.editor holds their
InversionEditConfig or FlowEditConfig arguments), generate condition.  Every
run reads experiment.seed; sweep rows derive their seeds from it.  Each of
_SIZE_KEYS (verify.step_counts by its largest count) times the registry's
dimension is at most _ELEMENT_CAP.
`axis = path: v1, v2, ...` may repeat, over any key but _UNSWEPT and the
matrix, floats and ints keys, for up to _SWEEP_CAP rows (cells x replicates);
values split on commas, so `inputs.x0: 0.5, 1.0` is two cells of a 1-vector.
A dataset gives exactly one of `points = x,y; x,y; ...`, `csv = path`, or
mean and cov.  A dataset name holds only letters, digits, _ and - wherever
a dataset path comes in (a section header, --set, a sweep axis, a
derive_config override), so it is one path component, and gen-data writes
its <name>.csv inside its output directory.
"""

import math
import os
import re
import warnings
from dataclasses import dataclass, field

import numpy as np

from .core import LatentCodec, make_time_grid
from .editors import FlowEditConfig, InversionEditConfig, RngSeed
from .fields import Condition, FieldRegistry, GuidanceScales
from .metrics import (check_convergence_arms, check_edit_control_arms, check_edit_control_phi,
                      check_probe_step, check_run_count, check_step_counts)
from .presets import get_preset
from .transport import TransportConfig, check_beta0

_ALGORITHMS = ("invert_edit", "flowedit", "generate", "verify")
_SWEEP_CAP = 100_000
# The most elements (value x registry dimension) any of _SIZE_KEYS may ask
# for, a list key by its largest value; a larger value fails at load instead
# of in an allocation mid-run.
_ELEMENT_CAP = 100_000_000
_SIZE_KEYS = ("grid.n_steps", "inputs.count", "editor.n_avg", "verify.n_runs",
              "verify.step_counts")

# Each key outside [dataset.*], declared once: path -> (kind in _PARSERS,
# default).  A None default makes a key required where a run reads it; the
# "" algorithm fails the algorithm check by name.  [sweep] axis lines are not
# keys: _parse_lines hands them to _parse_axes.
_KEYS = {
    "experiment.name": ("str", "experiment"),
    "experiment.algorithm": ("str", ""),
    "experiment.seed": ("int", "0"),
    "experiment.output_dir": ("str", "out"),
    "experiment.preset": ("str", None),
    "experiment.plot": ("bool", "false"),
    "grid.n_steps": ("int", "28"),
    "grid.t_start": ("float", "1.0"),
    "grid.t_end": ("float", "0.0"),
    "codec.scale": ("vector", None),
    "codec.offset": ("vector", None),
    "inputs.x0": ("vector", None),
    "inputs.x_target": ("vector", None),
    "inputs.sample_source": ("str", None),
    "inputs.count": ("int", "256"),
    "transport.beta0": ("float", "0.0"),
    "transport.phi": ("float", "0.3"),
    "transport.delta": ("float", "0.01"),
    "transport.clip_tau": ("float", "10.0"),
    "transport.orientation": ("str", "elapsed"),
    "transport.window_hi": ("float", "1.0"),
    "transport.window_lo": ("float", "0.0"),
    "editor.eta": ("float", "0.0"),
    "editor.eta_start": ("float", "0.0"),
    "editor.eta_stop": ("float", "1.0"),
    "editor.condition": ("str", "null"),
    "editor.n_avg": ("int", "1"),
    "editor.n_max": ("int", None),
    "editor.n_min": ("int", "0"),
    "editor.source_condition": ("str", None),
    "editor.target_condition": ("str", None),
    "scales.w": ("float", "1.0"),
    "scales.w_src": ("float", "1.0"),
    "scales.w_tar": ("float", "1.0"),
    "sweep.replicates": ("int", "1"),
    "verify.kind": ("str", "all"),
    "verify.beta0_list": ("floats", "0, 0.1, 0.2, 0.4"),
    "verify.edit_beta0_list": ("floats", "0, 0.1, 0.2, 0.4, 0.8"),
    "verify.step_counts": ("ints", "10, 20, 40, 80"),
    "verify.phi": ("float", "0.3"),
    "verify.n_runs": ("int", "64"),
    "verify.probe_t": ("float", "0.6"),
    "verify.condition": ("str", "null"),
}
# [dataset.<name>] key -> kind; these keys have no default.
_DATASET_KINDS = {"points": "matrix", "csv": "str", "mean": "vector", "cov": "matrix"}
# A dataset name or experiment.name: one path component, which gen-data, run
# and sweep use as a file stem under --out-dir.
_DATASET_NAME = re.compile(r"[\w-]+")
_SECTIONS = {path.rpartition(".")[0] for path in _KEYS}

# Keys every sweep row reads from the base config (its seed via derive_seed).
_UNSWEPT = ("experiment.name", "experiment.seed", "experiment.output_dir",
            "experiment.plot", "experiment.preset", "sweep.replicates")
# The editor config each editing algorithm builds from cfg.editor.
_EDIT_CONFIGS = {"invert_edit": InversionEditConfig, "flowedit": FlowEditConfig}
# Verifier -> the keys it reads whose values its runtime checks, in its
# order, each with the function that check is and the keys whose values
# that function also takes.
_RUN_RULES = {
    "discretization": (("verify.step_counts", check_step_counts),),
    "convergence": (("verify.n_runs", check_run_count),
                    ("verify.beta0_list", check_convergence_arms)),
    "edit_control": (("verify.n_runs", check_run_count),
                     ("verify.phi", check_edit_control_phi),
                     ("verify.edit_beta0_list", check_edit_control_arms, "verify.phi")),
}


# Shared with runner._generate, which applies the rule to sweep rows.
_GENERATE_NEEDS_TARGET = "generate with transport.beta0 > 0 needs inputs.x_target"


class ConfigError(Exception):
    """Raised for parse errors, unknown keys, and invariant violations."""

    def __init__(self, message, line=None):
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)
        self.line = line


def _spec(path):
    """(kind, default) of path, None for an unknown path; [dataset.*] keys
    have no default, and a dataset path whose name is not a _DATASET_NAME is
    unknown."""
    section, _, key = path.rpartition(".")
    base, _, name = section.partition(".")
    if base == "dataset" and key in _DATASET_KINDS and _DATASET_NAME.fullmatch(name):
        return _DATASET_KINDS[key], None
    return _KEYS.get(path)


def _parse_lines(text, source):
    """First pass: (path -> (raw string, line number), sweep axis lines)."""
    entries = {}
    axes = []
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            base = section.split(".", 1)[0]
            if not section or (base != "dataset" and section not in _SECTIONS):
                raise ConfigError(f"unknown section [{section}] in {source}", lineno)
            if base == "dataset" and not _DATASET_NAME.fullmatch(section.partition(".")[2]):
                raise ConfigError("dataset sections need a name of letters, digits, '_' and "
                                  f"'-': [dataset.<name>], got [{section}]", lineno)
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value' in {source}, got {line!r}", lineno)
        if section is None:
            raise ConfigError(f"key before any [section] in {source}", lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        path = f"{section}.{key}"
        if section == "sweep" and key == "axis":
            axes.append((value, lineno))
            continue
        if _spec(path) is None:
            raise ConfigError(f"unknown key {key!r} in section [{section}]", lineno)
        if path in entries:
            raise ConfigError(f"duplicate key {path}", lineno)
        entries[path] = (value, lineno)
    if not entries and not axes:
        raise ConfigError(f"no configuration found in {source}")
    return entries, axes


def _merge(entries, preset_map, overrides):
    resolved = {path: str(value) for path, value in preset_map.items()}
    lines = {}
    for path, (value, lineno) in entries.items():
        resolved[path] = value
        lines[path] = lineno
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        path, _, value = item.partition("=")
        path = path.strip()
        if path == "experiment.preset":
            raise ConfigError("select presets with --preset, not --set")
        if _spec(path) is None:
            raise ConfigError(f"--set: unknown key {path!r}")
        resolved[path] = value.strip()
        lines.pop(path, None)  # the file's line no longer holds the value
    return resolved, lines


def _parse_vector(text):
    return np.array([float(p) for p in text.split(",") if p.strip() != ""], dtype=float)


def _parse_matrix(text):
    rows = [r for r in text.split(";") if r.strip() != ""]
    return np.array([[float(p) for p in r.split(",")] for r in rows], dtype=float)


def _parse_bool(text):
    if text.lower() not in ("true", "false"):
        raise ValueError("expected true/false")
    return text.lower() == "true"


_PARSERS = {"str": str, "int": int, "float": float, "bool": _parse_bool,
            "vector": _parse_vector, "matrix": _parse_matrix,
            "floats": lambda text: [float(p) for p in text.split(",") if p.strip() != ""],
            "ints": lambda text: [int(p) for p in text.split(",") if p.strip() != ""]}


class _Resolved:
    """Typed accessors over the merged path->string map."""

    def __init__(self, resolved, lines):
        self.map = resolved
        self.lines = lines
        # Every given key parses as its kind, whether or not the algorithm
        # reads it, in _KEYS order so the first error is deterministic;
        # [dataset.*] keys are parsed by _build_registry.
        for path in _KEYS:
            if path in resolved:
                self.get(path)

    def _fail(self, path, message):
        raise ConfigError(f"{path}: {message}", self.lines.get(path))

    def build(self, section, make, *args, **kwargs):
        """make(*args, **kwargs); a ValueError it raises fails under the first
        key of section that its message names, by the key or by the key's stem
        before '_' (window for window_hi), else under the section."""
        try:
            return make(*args, **kwargs)
        except ValueError as exc:
            message = str(exc)
        for word in re.findall(r"\w+", message):
            for path in _KEYS:
                if path == f"{section}.{word}" or path.startswith(f"{section}.{word}_"):
                    self._fail(path, message)
        self._fail(section, message)

    def has(self, path):
        return path in self.map

    def get(self, path):
        """The value at path, or its declared default, parsed as its kind."""
        kind, declared = _spec(path)
        text = self.map.get(path, declared)
        if text is None:
            self._fail(path, "required key missing")
        try:
            return _PARSERS[kind](text)
        except ValueError as exc:
            self._fail(path, f"cannot parse {text!r} as {kind} ({exc})")


@dataclass
class ExperimentConfig:
    """A fully validated experiment: runtime objects plus the resolved map
    they were built from (the map is what serialize_config re-emits)."""

    name: str
    algorithm: str
    seed: int
    output_dir: str
    plot: bool
    registry: FieldRegistry
    codec: LatentCodec
    grid: object
    transport: TransportConfig
    scales: GuidanceScales
    editor: dict
    inputs: dict
    verify: dict
    sweep_axes: list
    replicates: int
    resolved: dict = field(repr=False, default_factory=dict)
    base_dir: str = "."


def _build_registry(res, base_dir):
    names = sorted({p.split(".")[1] for p in res.map if p.startswith("dataset.")})
    registry = FieldRegistry()
    for name in names:
        prefix = f"dataset.{name}"
        have = {k for k in _DATASET_KINDS if res.has(f"{prefix}.{k}")}
        lines = {k: res.lines.get(f"{prefix}.{k}") for k in have}
        try:
            if have == {"points"}:
                registry.add_points(name, res.get(f"{prefix}.points"))
            elif have == {"csv"}:
                path = res.get(f"{prefix}.csv")
                if not os.path.isabs(path):
                    path = os.path.join(base_dir, path)
                if not os.path.exists(path):
                    res._fail(f"{prefix}.csv", f"file not found: {path}")
                with warnings.catch_warnings():
                    # A file without data rows fails below as an empty dataset.
                    warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                    points = np.loadtxt(path, delimiter=",", ndmin=2)
                registry.add_points(name, points)
            elif have == {"mean", "cov"}:
                registry.add_gaussian(name, res.get(f"{prefix}.mean"), res.get(f"{prefix}.cov"))
            else:
                first = min((n for n in lines.values() if n is not None), default=None)
                raise ConfigError(f"{prefix}: give exactly one of: points, csv, or mean+cov", first)
        except ValueError as exc:
            # The registry's messages open with the dataset's name, then name
            # the mean when it is at fault; a Gaussian's other faults are the cov's.
            message = str(exc).removeprefix(f"dataset {name!r}").removeprefix(":").strip()
            key = "mean" if message.startswith("mean") else "cov" if "cov" in have else min(have)
            raise ConfigError(f"{prefix}: {message}", lines[key])
    return registry


def _build_codec(res, dim):
    def broadcast(path):
        vec = res.get(path)
        if vec.shape[0] == 1:
            vec = np.full(dim, vec[0])
        if vec.shape[0] != dim:
            res._fail(path, f"expected 1 or {dim} entries, got {vec.shape[0]}")
        return vec

    scale = broadcast("codec.scale") if res.has("codec.scale") else np.ones(dim)
    offset = broadcast("codec.offset") if res.has("codec.offset") else np.zeros(dim)
    return res.build("codec", LatentCodec, scale=scale, offset=offset)


def _condition(res, path, registry):
    name = res.get(path)
    if name == "null":
        return Condition.null()
    if not registry.has(name):
        res._fail(path, f"dataset {name!r} is not registered")
    return Condition.dataset(name)


def _build_transport(res):
    return res.build(
        "transport", TransportConfig,
        beta0=res.get("transport.beta0"),
        phi=res.get("transport.phi"),
        delta=res.get("transport.delta"),
        clip_tau=res.get("transport.clip_tau"),
        orientation=res.get("transport.orientation"),
        window=(res.get("transport.window_hi"), res.get("transport.window_lo")),
    )


def _build_editor(res, algorithm, registry):
    ed = {}
    if algorithm == "invert_edit":
        ed["eta"] = res.get("editor.eta")
        start = res.get("editor.eta_start")
        stop = res.get("editor.eta_stop")
        if not 0.0 <= start <= stop <= 1.0:
            res._fail("editor.eta_start", f"need 0 <= eta_start <= eta_stop <= 1, got {start}, {stop}")
        ed["eta_window"] = (1.0 - start, 1.0 - stop)
        ed["condition_target"] = _condition(res, "editor.condition", registry)
    elif algorithm == "flowedit":
        ed["n_avg"] = res.get("editor.n_avg")
        # Absent, None: FlowEditConfig's default, grid.n_steps.
        ed["n_max"] = res.get("editor.n_max") if res.has("editor.n_max") else None
        ed["n_min"] = res.get("editor.n_min")
        ed["cond_src"] = _condition(res, "editor.source_condition", registry)
        ed["cond_tar"] = _condition(res, "editor.target_condition", registry)
    elif algorithm == "generate":
        ed["condition"] = _condition(res, "editor.condition", registry)
    return ed


def _build_inputs(res, algorithm, registry):
    inputs = {"x0": None, "x_target": None, "sample_source": None,
              "count": res.get("inputs.count")}
    for key in ("x0", "x_target"):
        if res.has(f"inputs.{key}"):
            vec = res.get(f"inputs.{key}")
            if not np.all(np.isfinite(vec)):
                res._fail(f"inputs.{key}", f"entries must be finite, got {vec.tolist()}")
            inputs[key] = vec
    if res.has("inputs.sample_source"):
        name = res.get("inputs.sample_source")
        if not registry.has(name):
            res._fail("inputs.sample_source", f"dataset {name!r} is not registered")
        inputs["sample_source"] = name
    if algorithm in ("invert_edit", "flowedit"):
        if inputs["x0"] is None and inputs["sample_source"] is None:
            res._fail("inputs.x0", "editing runs need inputs.x0 or inputs.sample_source")
    if inputs["count"] < 1:
        res._fail("inputs.count", "count must be >= 1")
    return inputs


def _build_verify(res, registry):
    kind = res.get("verify.kind")
    if kind not in ("discretization", "convergence", "edit_control", "all"):
        res._fail("verify.kind", f"unknown verification kind {kind!r}")
    beta0_list = res.get("verify.beta0_list")
    edit_list = res.get("verify.edit_beta0_list")
    for path, values in (("verify.beta0_list", beta0_list), ("verify.edit_beta0_list", edit_list)):
        if not all(0.0 <= b < np.inf for b in values):
            res._fail(path, f"beta0 entries must be finite and >= 0, got {values}")
    steps = res.get("verify.step_counts")
    if not steps or min(steps) < 1:
        res._fail("verify.step_counts", f"step counts must be positive integers, got {steps}")
    probe_t = res.get("verify.probe_t")
    try:
        check_probe_step(probe_t, steps)
    except ValueError as exc:
        res._fail("verify.probe_t", str(exc))
    return {
        "kind": kind,
        "beta0_list": beta0_list,
        "edit_beta0_list": edit_list,
        "step_counts": steps,
        "phi": res.get("verify.phi"),
        "n_runs": res.get("verify.n_runs"),
        "probe_t": probe_t,
        "condition": _condition(res, "verify.condition", registry),
    }


def editor_config(cfg):
    """The InversionEditConfig or FlowEditConfig of cfg's editing algorithm,
    built from cfg.editor with cfg's transport, grid and scales, and for
    flowedit its seed."""
    seed = {"seed": cfg.seed} if cfg.algorithm == "flowedit" else {}
    return _EDIT_CONFIGS[cfg.algorithm](transport=cfg.transport, grid=cfg.grid,
                                        scales=cfg.scales, **seed, **cfg.editor)


def _check_run_values(res, cfg):
    """Fail, with its key and line, on any value the run reads that its
    runtime's rule rejects: an editing run builds its editor config, a
    generate run with transport needs its anchor, a verify run checks the
    verifiers its kind selects."""
    if (cfg.algorithm == "generate" and cfg.transport.beta0 > 0.0
            and cfg.inputs["x_target"] is None):
        res._fail("transport.beta0", _GENERATE_NEEDS_TARGET)
    if cfg.algorithm in _EDIT_CONFIGS:
        res.build("editor", editor_config, cfg)
    for run, rules in _RUN_RULES.items():
        if cfg.algorithm == "verify" and cfg.verify["kind"] in (run, "all"):
            for path, rule, *given in rules:
                try:
                    rule(res.get(path), *map(res.get, given))
                except ValueError as exc:
                    res._fail(path, str(exc))


def _parse_axes(axis_lines):
    axes = []
    seen = set()
    for value, lineno in axis_lines:
        if ":" not in value:
            raise ConfigError(f"axis needs 'path: v1, v2, ...', got {value!r}", lineno)
        path, _, values = value.partition(":")
        path = path.strip()
        spec = _spec(path)
        if spec is None:
            raise ConfigError(f"axis over unknown key {path!r}", lineno)
        if path in _UNSWEPT:
            raise ConfigError(f"axis over {path}: sweep rows read it from the base config", lineno)
        if path in seen:
            raise ConfigError(f"duplicate axis {path}", lineno)
        if spec[0] in ("matrix", "floats", "ints"):
            raise ConfigError(f"axis over {path}: its {spec[0]} values hold commas, which "
                              "separate axis values", lineno)
        seen.add(path)
        vals = [v.strip() for v in values.split(",") if v.strip() != ""]
        if not vals:
            raise ConfigError(f"axis {path} has no values", lineno)
        axes.append((path, vals))
    return axes


def load_config_text(text, source="<string>", preset=None, overrides=None, base_dir="."):
    """Parse, merge with preset defaults and overrides, validate, and build."""
    entries, axis_lines = _parse_lines(text, source)
    preset_name = preset
    if preset_name is None and "experiment.preset" in entries:
        preset_name = entries["experiment.preset"][0]
    preset_map = {}
    if preset_name is not None:
        try:
            preset_map = get_preset(preset_name)
        except KeyError as exc:
            raise ConfigError(str(exc.args[0])) from None
    resolved, lines = _merge(entries, preset_map, overrides)
    if preset_name is not None:
        resolved["experiment.preset"] = preset_name
    return _build_config(resolved, lines, axis_lines, base_dir)


def _build_config(resolved, lines, axis_lines, base_dir, registry=None):
    """Build the runtime objects; a given registry stands in for the
    [dataset.*] sections, which the caller guarantees it was built from."""
    res = _Resolved(resolved, lines)

    algorithm = res.get("experiment.algorithm")
    if algorithm not in _ALGORITHMS:
        res._fail("experiment.algorithm",
                  f"algorithm must be one of {', '.join(_ALGORITHMS)}, got {algorithm!r}")
    if registry is None:
        registry = _build_registry(res, base_dir)
    if not registry.names():
        raise ConfigError("at least one [dataset.<name>] section is required")
    dim = registry.dim()
    for path in _SIZE_KEYS:
        size = res.get(path)
        size = max(size, default=0) if isinstance(size, list) else size
        if size * dim > _ELEMENT_CAP:
            res._fail(path, f"{size} x dimension {dim} exceeds the cap of "
                      f"{_ELEMENT_CAP} elements")
    n_steps = res.get("grid.n_steps")
    grid = res.build("grid", make_time_grid, n_steps, res.get("grid.t_start"),
                     res.get("grid.t_end"))
    if algorithm in ("invert_edit", "flowedit", "generate") and grid.direction != "reverse":
        res._fail("grid.t_start", f"{algorithm} needs a reverse grid (t_start > t_end)")
    transport = _build_transport(res)
    scales = res.build("scales", GuidanceScales, w=res.get("scales.w"),
                       w_src=res.get("scales.w_src"), w_tar=res.get("scales.w_tar"))
    seed = res.get("experiment.seed")
    res.build("experiment", RngSeed, seed)

    name = res.get("experiment.name")
    if not _DATASET_NAME.fullmatch(name):
        res._fail("experiment.name", "name must be letters, digits, '_' and '-', "
                  f"since it is a file stem, got {name!r}")
    cfg = ExperimentConfig(
        name=name,
        algorithm=algorithm,
        seed=seed,
        output_dir=res.get("experiment.output_dir"),
        plot=res.get("experiment.plot"),
        registry=registry,
        codec=_build_codec(res, registry.dim()),
        grid=grid,
        transport=transport,
        scales=scales,
        editor=_build_editor(res, algorithm, registry),
        inputs=_build_inputs(res, algorithm, registry),
        verify=_build_verify(res, registry),
        sweep_axes=_parse_axes(axis_lines),
        replicates=res.get("sweep.replicates"),
        resolved=dict(resolved),
        base_dir=base_dir,
    )
    if cfg.replicates < 1:
        res._fail("sweep.replicates", "replicates must be >= 1")
    cells = math.prod(len(vals) for _, vals in cfg.sweep_axes)
    if cfg.sweep_axes and cells * cfg.replicates > _SWEEP_CAP:
        raise ConfigError(f"sweep has {cells} cells x {cfg.replicates} replicates, "
                          f"cap is {_SWEEP_CAP} rows")

    # Cross-checks that need several sections at once.
    for key in ("x0", "x_target"):
        vec = cfg.inputs[key]
        if vec is not None and vec.shape[0] != dim:
            res._fail(f"inputs.{key}", f"expected {dim} entries, got {vec.shape[0]}")
    # Last, so a config that fails an earlier check keeps that error.
    _check_run_values(res, cfg)
    return cfg


def derive_config(cfg, overrides):
    """Rebuild a config with path -> value overrides applied to its resolved
    map; sweep axes are dropped since the result describes a single cell.

    The registry is immutable, so unless an override touches a [dataset.*]
    key the result shares cfg's registry instead of re-reading its data."""
    resolved = dict(cfg.resolved)
    for path, value in overrides.items():
        if _spec(path) is None:
            raise ConfigError(f"override of unknown key {path!r}")
        resolved[path] = str(value)
    touches_data = any(path.startswith("dataset.") for path in overrides)
    return _build_config(resolved, {}, [], cfg.base_dir,
                         registry=None if touches_data else cfg.registry)


def cell_beta0(text):
    """A sweep cell's transport.beta0 text, parsed as its declared kind and
    checked by check_beta0, the rule TransportConfig applies; a bad value
    fails with the ConfigError text derive_config gives it."""
    res = _Resolved({"transport.beta0": text}, {})
    beta0 = res.get("transport.beta0")
    res.build("transport", check_beta0, beta0)
    return beta0


def load_config(path, preset=None, overrides=None):
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    return load_config_text(text, source=path, preset=preset, overrides=overrides,
                            base_dir=os.path.dirname(os.path.abspath(path)))


def serialize_config(cfg):
    """Emit the resolved key map back as config text; reloading the output
    yields an equivalent configuration (same resolved map)."""
    by_section = {}
    for path, value in cfg.resolved.items():
        section, _, key = path.rpartition(".")
        by_section.setdefault(section, {})[key] = value
    if cfg.sweep_axes:
        by_section.setdefault("sweep", {})
    out = []
    for section in sorted(by_section):
        out.append(f"[{section}]")
        for key in sorted(by_section[section]):
            out.append(f"{key} = {by_section[section][key]}")
        if section == "sweep":
            for path, vals in cfg.sweep_axes:
                out.append(f"axis = {path}: {', '.join(vals)}")
        out.append("")
    return "\n".join(out)

"""Config file parsing, preset expansion, validation, and serialization.

The format is line-oriented text: `[section]` headers, `key = value` lines,
`#` comment lines, nothing else.  Values are scalars, comma-separated vectors
("1.0, 2.0"), or semicolon-separated matrix rows ("1,0; 0,1").  Unknown
sections and keys are hard errors with the offending line number.

Resolution order, later wins: preset defaults, then file keys, then --set
overrides.  The preset comes from [experiment] preset unless the caller
passes one explicitly.  After resolution every value is a string; typed
parsing and invariant checks happen in one place when the runtime objects are
built, so error messages can always point at a config path.

Sections:
  [experiment]  name, algorithm (invert_edit|flowedit|generate|verify),
                seed, output_dir, preset, plot
  [grid]        n_steps, t_start, t_end
  [codec]       scale, offset (scalar or d-vector; identity when omitted)
  [dataset.X]   points = x,y; x,y; ...  |  csv = path  |  mean = ... + cov = ...
  [inputs]      x0, x_target, sample_source (dataset to draw x0 from), count
  [transport]   beta0, phi, delta, clip_tau, orientation, window_hi, window_lo
  [editor]      eta, eta_start, eta_stop, condition            (invert_edit)
                n_avg, n_max, n_min, source_condition,
                target_condition                               (flowedit)
                condition                                      (generate)
  [scales]      w, w_src, w_tar
  [sweep]       axis = path: v1, v2, ... (repeatable), replicates
  [verify]      kind, beta0_list, edit_beta0_list, step_counts, phi,
                n_runs, probe_t, condition
"""

import os
from dataclasses import dataclass, field

import numpy as np

from .core import LatentCodec, make_time_grid
from .fields import Condition, FieldRegistry, GuidanceScales
from .metrics import check_probe_step
from .presets import get_preset
from .transport import TransportConfig

_ALGORITHMS = ("invert_edit", "flowedit", "generate", "verify")
_SWEEP_CAP = 100_000

_SCHEMA = {
    "experiment": {"name", "algorithm", "seed", "output_dir", "preset", "plot"},
    "grid": {"n_steps", "t_start", "t_end"},
    "codec": {"scale", "offset"},
    "inputs": {"x0", "x_target", "sample_source", "count"},
    "transport": {"beta0", "phi", "delta", "clip_tau", "orientation",
                  "window_hi", "window_lo"},
    "editor": {"eta", "eta_start", "eta_stop", "condition", "n_avg", "n_max",
               "n_min", "source_condition", "target_condition"},
    "scales": {"w", "w_src", "w_tar"},
    "sweep": {"axis", "replicates"},
    "verify": {"kind", "beta0_list", "edit_beta0_list", "step_counts", "phi",
               "n_runs", "probe_t", "condition"},
}
_DATASET_KEYS = {"points", "csv", "mean", "cov"}

_DEFAULTS = {
    "experiment.name": "experiment",
    "experiment.seed": "0",
    "experiment.output_dir": "out",
    "experiment.plot": "false",
    "grid.n_steps": "28",
    "grid.t_start": "1.0",
    "grid.t_end": "0.0",
    "transport.beta0": "0.0",
    "transport.phi": "0.3",
    "transport.delta": "0.01",
    "transport.clip_tau": "10.0",
    "transport.orientation": "elapsed",
    "transport.window_hi": "1.0",
    "transport.window_lo": "0.0",
    "editor.eta": "0.0",
    "editor.eta_start": "0.0",
    "editor.eta_stop": "1.0",
    "editor.condition": "null",
    "editor.n_avg": "1",
    "editor.n_min": "0",
    "scales.w": "1.0",
    "scales.w_src": "1.0",
    "scales.w_tar": "1.0",
    "inputs.count": "256",
    "sweep.replicates": "1",
    "verify.kind": "all",
    "verify.beta0_list": "0, 0.1, 0.2, 0.4",
    "verify.edit_beta0_list": "0, 0.1, 0.2, 0.4, 0.8",
    "verify.step_counts": "10, 20, 40, 80",
    "verify.phi": "0.3",
    "verify.n_runs": "64",
    "verify.probe_t": "0.6",
    "verify.condition": "null",
}


class ConfigError(Exception):
    """Raised for parse errors, unknown keys, and invariant violations."""

    def __init__(self, message, line=None):
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)
        self.line = line


def _known_path(path):
    section, _, key = path.rpartition(".")
    if section.startswith("dataset."):
        return key in _DATASET_KEYS
    return section in _SCHEMA and key in _SCHEMA[section]


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
            if not section or (base != "dataset" and section not in _SCHEMA):
                raise ConfigError(f"unknown section [{section}] in {source}", lineno)
            if base == "dataset" and ("." not in section or not section.split(".", 1)[1]):
                raise ConfigError("dataset sections need a name: [dataset.<name>]", lineno)
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
        if not _known_path(path):
            raise ConfigError(f"unknown key {key!r} in section [{section}]", lineno)
        if path in entries:
            raise ConfigError(f"duplicate key {path}", lineno)
        entries[path] = (value, lineno)
    if not entries and not axes:
        raise ConfigError(f"no configuration found in {source}")
    return entries, axes


def _merge(entries, preset_name, overrides):
    resolved = {}
    lines = {}
    if preset_name is not None:
        for path, value in get_preset(preset_name).items():
            resolved[path] = str(value)
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
        if not _known_path(path):
            raise ConfigError(f"--set: unknown key {path!r}")
        resolved[path] = value.strip()
    return resolved, lines


def _parse_vector(text):
    return np.array([float(p) for p in text.split(",") if p.strip() != ""], dtype=float)


def _parse_matrix(text):
    rows = [r for r in text.split(";") if r.strip() != ""]
    return np.array([[float(p) for p in r.split(",")] for r in rows], dtype=float)


class _Resolved:
    """Typed accessors over the merged path->string map."""

    def __init__(self, resolved, lines):
        self.map = resolved
        self.lines = lines

    def _fail(self, path, message):
        raise ConfigError(f"{path}: {message}", self.lines.get(path))

    def has(self, path):
        return path in self.map

    def raw(self, path, default=None):
        return self.map.get(path, default)

    def get(self, path, kind, default=None):
        text = self.map.get(path)
        if text is None:
            text = _DEFAULTS.get(path) if default is None else default
            if text is None:
                self._fail(path, "required key missing")
        try:
            if kind == "str":
                return text
            if kind == "int":
                return int(text)
            if kind == "float":
                return float(text)
            if kind == "bool":
                if text.lower() not in ("true", "false"):
                    raise ValueError("expected true/false")
                return text.lower() == "true"
            if kind == "vector":
                return _parse_vector(text)
            if kind == "matrix":
                return _parse_matrix(text)
            if kind == "floats":
                return [float(p) for p in text.split(",") if p.strip() != ""]
            if kind == "ints":
                return [int(p) for p in text.split(",") if p.strip() != ""]
        except ValueError as exc:
            self._fail(path, f"cannot parse {text!r} as {kind} ({exc})")
        raise AssertionError(f"unknown kind {kind}")


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
        have = {k for k in _DATASET_KEYS if res.has(f"{prefix}.{k}")}
        try:
            if have == {"points"}:
                registry.add_points(name, res.get(f"{prefix}.points", "matrix"))
            elif have == {"csv"}:
                path = res.get(f"{prefix}.csv", "str")
                if not os.path.isabs(path):
                    path = os.path.join(base_dir, path)
                if not os.path.exists(path):
                    res._fail(f"{prefix}.csv", f"file not found: {path}")
                registry.add_points(name, np.loadtxt(path, delimiter=",", ndmin=2))
            elif have == {"mean", "cov"}:
                registry.add_gaussian(name, res.get(f"{prefix}.mean", "vector"),
                                      res.get(f"{prefix}.cov", "matrix"))
            else:
                res._fail(prefix, "give exactly one of: points, csv, or mean+cov")
        except ValueError as exc:
            res._fail(prefix, str(exc))
    return registry


def _build_codec(res, dim):
    def broadcast(path):
        vec = res.get(path, "vector")
        if vec.shape[0] == 1:
            vec = np.full(dim, vec[0])
        if vec.shape[0] != dim:
            res._fail(path, f"expected 1 or {dim} entries, got {vec.shape[0]}")
        return vec

    scale = broadcast("codec.scale") if res.has("codec.scale") else np.ones(dim)
    offset = broadcast("codec.offset") if res.has("codec.offset") else np.zeros(dim)
    try:
        return LatentCodec(scale=scale, offset=offset)
    except ValueError as exc:
        res._fail("codec.scale", str(exc))


def _condition(res, path, registry):
    name = res.get(path, "str")
    if name == "null":
        return Condition.null()
    if not registry.has(name):
        res._fail(path, f"dataset {name!r} is not registered")
    return Condition.dataset(name)


def _build_transport(res):
    try:
        return TransportConfig(
            beta0=res.get("transport.beta0", "float"),
            phi=res.get("transport.phi", "float"),
            delta=res.get("transport.delta", "float"),
            clip_tau=res.get("transport.clip_tau", "float"),
            orientation=res.get("transport.orientation", "str"),
            window=(res.get("transport.window_hi", "float"),
                    res.get("transport.window_lo", "float")),
        )
    except ValueError as exc:
        res._fail("transport", str(exc))


def _build_editor(res, algorithm, registry, n_steps):
    ed = {}
    if algorithm == "invert_edit":
        ed["eta"] = res.get("editor.eta", "float")
        start = res.get("editor.eta_start", "float")
        stop = res.get("editor.eta_stop", "float")
        if not 0.0 <= start <= stop <= 1.0:
            res._fail("editor.eta_start", f"need 0 <= eta_start <= eta_stop <= 1, got {start}, {stop}")
        ed["eta_window"] = (1.0 - start, 1.0 - stop)
        ed["condition"] = _condition(res, "editor.condition", registry)
    elif algorithm == "flowedit":
        ed["n_avg"] = res.get("editor.n_avg", "int")
        ed["n_max"] = res.get("editor.n_max", "int", default=str(n_steps))
        ed["n_min"] = res.get("editor.n_min", "int")
        ed["cond_src"] = _condition(res, "editor.source_condition", registry)
        ed["cond_tar"] = _condition(res, "editor.target_condition", registry)
    elif algorithm == "generate":
        ed["condition"] = _condition(res, "editor.condition", registry)
    return ed


def _build_inputs(res, algorithm, registry):
    inputs = {"x0": None, "x_target": None, "sample_source": None,
              "count": res.get("inputs.count", "int")}
    for key in ("x0", "x_target"):
        if res.has(f"inputs.{key}"):
            vec = res.get(f"inputs.{key}", "vector")
            if not np.all(np.isfinite(vec)):
                res._fail(f"inputs.{key}", f"entries must be finite, got {vec.tolist()}")
            inputs[key] = vec
    if res.has("inputs.sample_source"):
        name = res.get("inputs.sample_source", "str")
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
    kind = res.get("verify.kind", "str")
    if kind not in ("discretization", "convergence", "edit_control", "all"):
        res._fail("verify.kind", f"unknown verification kind {kind!r}")
    beta0_list = res.get("verify.beta0_list", "floats")
    edit_list = res.get("verify.edit_beta0_list", "floats")
    for path, values in (("verify.beta0_list", beta0_list), ("verify.edit_beta0_list", edit_list)):
        if not all(0.0 <= b < np.inf for b in values):
            res._fail(path, f"beta0 entries must be finite and >= 0, got {values}")
    steps = res.get("verify.step_counts", "ints")
    if not steps or min(steps) < 1:
        res._fail("verify.step_counts", f"step counts must be positive integers, got {steps}")
    probe_t = res.get("verify.probe_t", "float")
    try:
        check_probe_step(probe_t, steps)
    except ValueError as exc:
        res._fail("verify.probe_t", str(exc))
    return {
        "kind": kind,
        "beta0_list": beta0_list,
        "edit_beta0_list": edit_list,
        "step_counts": steps,
        "phi": res.get("verify.phi", "float"),
        "n_runs": res.get("verify.n_runs", "int"),
        "probe_t": probe_t,
        "condition": _condition(res, "verify.condition", registry),
    }


def _parse_axes(axis_lines):
    axes = []
    seen = set()
    for value, lineno in axis_lines:
        if ":" not in value:
            raise ConfigError(f"axis needs 'path: v1, v2, ...', got {value!r}", lineno)
        path, _, values = value.partition(":")
        path = path.strip()
        if not _known_path(path):
            raise ConfigError(f"axis over unknown key {path!r}", lineno)
        if path in seen:
            raise ConfigError(f"duplicate axis {path}", lineno)
        seen.add(path)
        vals = [v.strip() for v in values.split(",") if v.strip() != ""]
        if not vals:
            raise ConfigError(f"axis {path} has no values", lineno)
        axes.append((path, vals))
    total = 1
    for _, vals in axes:
        total *= len(vals)
    if total > _SWEEP_CAP:
        raise ConfigError(f"sweep grid has {total} cells, cap is {_SWEEP_CAP}")
    return axes


def load_config_text(text, source="<string>", preset=None, overrides=None, base_dir="."):
    """Parse, merge with preset defaults and overrides, validate, and build."""
    entries, axis_lines = _parse_lines(text, source)
    preset_name = preset
    if preset_name is None and "experiment.preset" in entries:
        preset_name = entries["experiment.preset"][0]
    if preset_name is not None:
        try:
            get_preset(preset_name)
        except KeyError as exc:
            raise ConfigError(str(exc.args[0])) from None
    resolved, lines = _merge(entries, preset_name, overrides)
    if preset_name is not None:
        resolved["experiment.preset"] = preset_name
    return _build_config(resolved, lines, axis_lines, base_dir)


def _build_config(resolved, lines, axis_lines, base_dir, registry=None):
    """Build the runtime objects; a given registry stands in for the
    [dataset.*] sections, which the caller guarantees it was built from."""
    res = _Resolved(resolved, lines)

    algorithm = res.get("experiment.algorithm", "str", default="")
    if algorithm not in _ALGORITHMS:
        res._fail("experiment.algorithm",
                  f"algorithm must be one of {', '.join(_ALGORITHMS)}, got {algorithm!r}")
    if registry is None:
        registry = _build_registry(res, base_dir)
    if not registry.names():
        raise ConfigError("at least one [dataset.<name>] section is required")
    n_steps = res.get("grid.n_steps", "int")
    try:
        grid = make_time_grid(n_steps, res.get("grid.t_start", "float"),
                              res.get("grid.t_end", "float"))
    except ValueError as exc:
        res._fail("grid.n_steps", str(exc))
    if algorithm in ("invert_edit", "flowedit", "generate") and grid.direction != "reverse":
        res._fail("grid.t_start", f"{algorithm} needs a reverse grid (t_start > t_end)")
    transport = _build_transport(res)
    try:
        scales = GuidanceScales(w=res.get("scales.w", "float"),
                                w_src=res.get("scales.w_src", "float"),
                                w_tar=res.get("scales.w_tar", "float"))
    except ValueError as exc:
        res._fail("scales.w", str(exc))
    seed = res.get("experiment.seed", "int")
    if seed < 0:
        res._fail("experiment.seed", "seed must be nonnegative")

    cfg = ExperimentConfig(
        name=res.get("experiment.name", "str"),
        algorithm=algorithm,
        seed=seed,
        output_dir=res.get("experiment.output_dir", "str"),
        plot=res.get("experiment.plot", "bool"),
        registry=registry,
        codec=_build_codec(res, registry.dim()),
        grid=grid,
        transport=transport,
        scales=scales,
        editor=_build_editor(res, algorithm, registry, n_steps),
        inputs=_build_inputs(res, algorithm, registry),
        verify=_build_verify(res, registry),
        sweep_axes=_parse_axes(axis_lines),
        replicates=res.get("sweep.replicates", "int"),
        resolved=dict(resolved),
        base_dir=base_dir,
    )
    if cfg.replicates < 1:
        res._fail("sweep.replicates", "replicates must be >= 1")

    # Cross-checks that need several sections at once.
    dim = registry.dim()
    for key in ("x0", "x_target"):
        vec = cfg.inputs[key]
        if vec is not None and vec.shape[0] != dim:
            res._fail(f"inputs.{key}", f"expected {dim} entries, got {vec.shape[0]}")
    if algorithm == "flowedit":
        n_min, n_max = cfg.editor["n_min"], cfg.editor["n_max"]
        if not 0 <= n_min <= n_max <= n_steps:
            res._fail("editor.n_min",
                      f"need 0 <= n_min <= n_max <= n_steps, got {n_min}, {n_max}, {n_steps}")
        if cfg.editor["n_avg"] < 1:
            res._fail("editor.n_avg", "n_avg must be >= 1")
    return cfg


def derive_config(cfg, overrides):
    """Rebuild a config with path -> value overrides applied to its resolved
    map; sweep axes are dropped since the result describes a single cell.

    The registry is immutable, so unless an override touches a [dataset.*]
    key the result shares cfg's registry instead of re-reading its data."""
    resolved = dict(cfg.resolved)
    for path, value in overrides.items():
        if not _known_path(path):
            raise ConfigError(f"override of unknown key {path!r}")
        resolved[path] = str(value)
    touches_data = any(path.startswith("dataset.") for path in overrides)
    return _build_config(resolved, {}, [], cfg.base_dir,
                         registry=None if touches_data else cfg.registry)


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

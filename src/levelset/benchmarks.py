"""Benchmark cases: mesh distortion, 1D monotonicity, 2D/3D vortex, convergence.

Every case is fully deterministic (no random state); all resolved parameters
are echoed into a run manifest so outputs are reproducible byte for byte.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, fields, replace
from functools import partial

import numpy as np

from .fields import (
    AnalyticField,
    HeavisideParams,
    NaiveScaledField,
    check_setting,
    regularized_heaviside,
    subdomain_volumes,
)
from .io import emit_csv, emit_vtk, write_manifest
from .mesh import build_structured, grade_structured, triangulate
from .redistance import (
    RedistanceParams,
    canonical_alternative,
    project_function,
    redistance_field,
)
from .transport import SeparableVelocity, TimeState, TransportIntegrator, TransportParams

CASES = ("distortion", "monotone1d", "vortex2d", "vortex3d", "converge")

# peak speeds of the analytic vortex fields, for time-step selection
VORTEX2D_MAX_SPEED = 1.0
VORTEX3D_MAX_SPEED = 2.0


def vortex_time_factor(t, period):
    """Temporal factor of both vortex fields, written as sin(pi (T/2 - t) / T).

    It equals cos(pi t / T) but evaluates to exactly zero at the reversal
    instant t = T/2 and to exactly -/+1 at t = T and t = 0.
    """
    return np.sin(np.pi * (0.5 * period - t) / period)


def vortex2d_field(x):
    """Spatial part of the single-vortex field on the unit square."""
    x = np.asarray(x, dtype=np.float64)
    sx = np.sin(np.pi * x[..., 0])
    sy = np.sin(np.pi * x[..., 1])
    u = np.sin(2.0 * np.pi * x[..., 1]) * sx * sx
    v = -np.sin(2.0 * np.pi * x[..., 0]) * sy * sy
    return np.stack([u, v], axis=-1)


def vortex3d_field(x):
    """Spatial part of the superimposed deformation field on the unit cube."""
    x = np.asarray(x, dtype=np.float64)
    sx, sy, sz = (np.sin(np.pi * x[..., d]) for d in range(3))
    s2x, s2y, s2z = (np.sin(2.0 * np.pi * x[..., d]) for d in range(3))
    u = 2.0 * sx * sx * s2y * s2z
    v = -s2x * sy * sy * s2z
    w = -s2x * s2y * sz * sz
    return np.stack([u, v, w], axis=-1)


def signed_distance_to_sphere(center, radius):
    """Signed distance, positive inside the sphere/disc."""
    center = np.asarray(center, dtype=np.float64)

    def fn(x):
        return radius - np.linalg.norm(np.asarray(x) - center, axis=-1)

    def grad(x):
        d = np.asarray(x) - center
        n = np.linalg.norm(d, axis=-1, keepdims=True)
        return -d / np.maximum(n, 1e-300)

    return fn, grad


@dataclass
class CaseConfig:
    """Benchmark descriptor.

    Every field has a config key. Every field but ``picard_tol`` and
    ``picard_max`` can also be set on the command line, ``case`` as the
    subcommand. Construction checks each setting against its case, so a bad
    one raises ``ValueError`` before any mesh is built. The time-stepping and
    transport settings (``_TRANSPORT``) belong to the vortex and converge
    cases; the others accept only their defaults and leave them out of the
    manifest.
    """

    case: str
    family: str = "quad"            # quad | tri
    mesh_n: int | None = None       # monotone1d: 10, other cases: 40
    degree: int | None = None       # 1 or 2 (case default)
    alpha: float | None = None      # interface half-width (case default)
    kappa_d: float | None = None    # smoothing (family/case default)
    alternative: str = "proj-inv-scale"
    capturing_c: float = 1.0
    dt: float | None = None
    cfl: float = 0.5
    t_end: float | None = None
    out_dir: str | None = None
    tau_form: str = "printed"
    # looser than the solver-module defaults: the capturing coefficient's
    # abs-value kink leaves the relinearization map non-contractive below
    # ~1e-5 at peak distortion on coarse meshes, so tight close-outs stall in
    # a limit cycle; 1e-4 is reachable and orders below discretization error,
    # and volume conservation is enforced separately
    picard_tol: float = 1e-4
    picard_max: int = 150
    grading_x: float = 2.0          # distortion powers; distinct values keep
    grading_y: float = 1.6          # the diagonal problem asymmetric
    with_80: bool = False
    with_triangles: bool = False
    vtk: bool = True

    def __post_init__(self):
        if self.case not in CASES:
            raise ValueError(f"unknown case {self.case!r}; choose from {CASES}")
        if self.family not in ("quad", "tri"):
            raise ValueError("family must be 'quad' or 'tri'")
        if self.mesh_n is not None and self.mesh_n < 4:
            raise ValueError("mesh element count must be at least 4")
        if self.degree not in (None, 1, 2):
            raise ValueError("degree must be 1 or 2")
        if self.family == "tri":
            if self.case in ("monotone1d", "vortex3d"):
                raise ValueError(f"triangle meshes are two-dimensional; "
                                 f"{self.case} needs family 'quad'")
            if self.degree == 2:
                raise ValueError("triangle meshes are linear; family 'tri' needs degree 1")
        if self.case == "monotone1d":
            if self.degree == 2:
                raise ValueError("monotone1d runs linear elements; it needs degree 1")
            if self.mesh_n is not None and self.mesh_n % 2:
                raise ValueError(f"the alternating mesh needs an even element count, "
                                 f"got mesh_n={self.mesh_n}")
        self.alternative = canonical_alternative(self.alternative)
        if self.case not in self._STEPPED:
            for name in self._TRANSPORT:
                val = getattr(self, name)
                if val != getattr(CaseConfig, name):
                    raise ValueError(f"{self.case} has no time stepping or transport; "
                                     f"{name} cannot be set, got {val!r}")
        if self.case == "converge":
            # the sweep chooses these for each of its runs
            for name, default in self._CONVERGE_FIXED.items():
                val = getattr(self, name)
                if val != default:
                    raise ValueError(f"converge runs its own meshes, degrees and families "
                                     f"with proj-inv-scale; {name} cannot be set, got {val!r}")
        if self.tau_form not in ("printed", "conventional"):
            raise ValueError("tau_form must be 'printed' or 'conventional'")
        for name in self._FLOATS:
            val = getattr(self, name)
            if val is not None:
                check_setting(name, val, positive=name not in ("kappa_d", "capturing_c"))
        if self.picard_max < 1:
            raise ValueError(f"picard_max must be at least 1, got {self.picard_max}")
        if self.dt is not None and self.cfl != CaseConfig.cfl:
            raise ValueError(f"dt fixes the time step, so cfl cannot be set, got {self.cfl:g}")
        if self.dt is not None:
            t_end = self._t_end()
            if abs(round(t_end / self.dt) * self.dt - t_end) > 1e-9 * t_end:
                raise ValueError(f"dt must divide the end time {t_end:g}, got {self.dt:g}")

    _CONVERGE_FIXED = {"mesh_n": None, "degree": None, "family": "quad",
                       "alternative": "proj-inv-scale"}
    # the cases that step in time, and the settings only they read
    _STEPPED = ("vortex2d", "vortex3d", "converge")
    _TRANSPORT = ("dt", "cfl", "t_end", "tau_form", "capturing_c", "picard_tol",
                  "picard_max")
    _FLOATS = ("alpha", "kappa_d", "capturing_c", "dt", "cfl", "t_end",
               "picard_tol", "grading_x", "grading_y")
    _BOOLS = ("with_80", "with_triangles", "vtk")
    _TRUE = ("1", "true", "yes", "on")
    _FALSE = ("0", "false", "no", "off")

    @classmethod
    def from_mapping(cls, mapping, case=None):
        """Config from flat key=value settings, such as a config file's.

        Values may be strings or already typed. ``""`` and ``none`` select
        the case default and are accepted only for fields whose default is
        None; booleans accept only 1/true/yes/on and 0/false/no/off, in any
        case. Any other value that does not parse raises ``ValueError``
        naming its key.
        """
        kwargs = {}
        aliases = {"mesh": "mesh_n", "alt": "alternative", "out": "out_dir",
                   "kappa-d": "kappa_d", "c": "capturing_c"}
        defaults = {f.name: f.default for f in fields(cls)}
        for raw_key, val in mapping.items():
            key = aliases.get(raw_key, raw_key)
            if key == "case":
                if case is not None and val != case:
                    raise ValueError(f"config names case {val!r}, but case {case!r} "
                                     f"was asked for")
                case = val
                continue
            if key not in defaults:
                raise ValueError(f"unknown config key {raw_key!r}")
            text = str(val).strip().lower()
            if text in ("", "none"):
                if defaults[key] is not None:
                    raise ValueError(f"config key {raw_key!r} needs a value")
                kwargs[key] = None
            elif key in cls._BOOLS:
                if text not in cls._TRUE + cls._FALSE:
                    raise ValueError(f"config key {raw_key!r} takes one of "
                                     f"{', '.join(cls._TRUE + cls._FALSE)}, got {val!r}")
                kwargs[key] = text in cls._TRUE
            elif key in ("family", "alternative", "tau_form", "out_dir"):
                kwargs[key] = val
            else:  # a number: the floats above, or mesh_n, degree, picard_max
                kind = float if key in cls._FLOATS else int
                try:
                    kwargs[key] = kind(val)
                except ValueError:
                    raise ValueError(f"config key {raw_key!r} takes "
                                     f"{'a number' if kind is float else 'an integer'}, "
                                     f"got {val!r}") from None
        if case is None:
            raise ValueError("config must name a case")
        return cls(case=case, **kwargs)

    def _t_end(self):
        if self.t_end is not None:
            return self.t_end
        return 3.0 if self.case == "vortex3d" else 8.0

    def resolved(self):
        """Fill case/family-dependent defaults; returns a new config."""
        cfg = replace(self)
        if cfg.mesh_n is None and cfg.case != "converge":
            cfg.mesh_n = 10 if cfg.case == "monotone1d" else 40
        if cfg.degree is None and cfg.case != "converge":
            cfg.degree = 2 if cfg.case == "distortion" and cfg.family == "quad" else 1
        if cfg.alpha is None:
            cfg.alpha = 3.0 if cfg.case in ("distortion", "monotone1d") else 2.0
        if cfg.kappa_d is None:
            if cfg.case == "monotone1d":
                cfg.kappa_d = 1.0
            elif cfg.family == "tri":
                cfg.kappa_d = 10.0
            else:
                cfg.kappa_d = 0.0
        if cfg.case in cfg._STEPPED:
            cfg.t_end = cfg._t_end()
        return cfg

    def to_mapping(self):
        out = {}
        for key, val in vars(self).items():
            out[key] = "" if val is None else val
        return out


def _square_patch(config, dim):
    # a resolved tri config is two-dimensional and linear (CaseConfig)
    patch = build_structured([(0.0, 1.0)] * dim, [config.mesh_n] * dim, config.degree)
    return triangulate(patch, pattern=2) if config.family == "tri" else patch


def _write_manifest(config, extra=None, omit=()):
    # the manifest sits in out_dir; recording that path would make the bytes
    # of identical runs depend on where they were written
    mapping = config.to_mapping()
    for key in ("out_dir",) + tuple(omit):
        del mapping[key]
    if extra:
        mapping.update(extra)
    write_manifest(os.path.join(config.out_dir, "manifest.txt"), mapping)


# ----------------------------------------------------------------------
# distortion test


def heaviside_edge_jump(patch, scaled, alpha):
    """Largest one-sided mismatch of the regularized step across any edge."""
    e_l, p_l, e_r, p_r = patch.interior_edge_samples()
    hv = HeavisideParams(alpha)
    h_l = regularized_heaviside(scaled.eval_values(e_l, p_l), hv)
    h_r = regularized_heaviside(scaled.eval_values(e_r, p_r), hv)
    return float(np.abs(h_l - h_r).max())


def interface_drift(patch, scaled, zero_points):
    """Largest |phi_hat| sampled on the original zero set."""
    pts = patch.param_of_physical(zero_points)
    elems = patch.element_of_param(pts)
    return float(np.abs(scaled.eval_values(elems, pts)).max())


@dataclass
class DistortionEntry:
    alternative: str
    kappa_d: float
    max_jump: float
    drift: float


@dataclass
class DistortionReport:
    patch: object
    entries: list


def run_distortion(config):
    """Redistance phi = x - y on a mesh graded toward both axes.

    Sweeps each alternative over smoothing weights {0, 1, 10}, reporting the
    maximum inter-element jump of the regularized step and the interface
    drift along the diagonal.
    """
    config = config.resolved()
    if config.case != "distortion":
        raise ValueError("config.case must be 'distortion'")
    # grading is applied on the structured parent so triangulations inherit it
    gx, gy = config.grading_x, config.grading_y
    base = build_structured([(0.0, 1.0)] * 2, [config.mesh_n] * 2, config.degree)
    patch = grade_structured(base, (lambda s: s**gx, lambda s: s**gy))
    if config.family == "tri":
        patch = triangulate(patch, pattern=2)
    phi = AnalyticField(
        patch,
        lambda x: x[..., 0] - x[..., 1],
        lambda x: np.broadcast_to(np.array([1.0, -1.0]), np.shape(x)).copy(),
    )
    diag = np.linspace(0.02, 0.98, 300)
    zero_pts = np.stack([diag, diag], axis=-1)
    hv = HeavisideParams(config.alpha)
    entries = []
    vtk_fields = {}
    # one projection operator per kappa_d: the first projected entry builds
    # it, and the later ones reuse it
    ops = {}
    for alt in ("direct", "proj-redist", "proj-scale", "proj-inv-scale"):
        for kd in (0.0, 1.0, 10.0):
            params = RedistanceParams(alt, kappa_d=kd)
            sd = redistance_field(phi, params, ops.get(kd))
            if sd.op is not None:
                ops.setdefault(kd, sd.op)
            entries.append(DistortionEntry(
                alt, kd,
                heaviside_edge_jump(patch, sd, config.alpha),
                interface_drift(patch, sd, zero_pts),
            ))
            if config.out_dir and config.vtk:
                vtk_fields[(alt, kd)] = sd
    if config.out_dir:
        emit_csv(
            os.path.join(config.out_dir, "distortion_summary.csv"),
            ["alternative", "kappa_d", "max_heaviside_jump", "interface_drift"],
            [(e.alternative, e.kappa_d, e.max_jump, e.drift) for e in entries],
        )
        for (alt, kd), sd in vtk_fields.items():
            emit_vtk(
                os.path.join(config.out_dir, f"heaviside_{alt}_kd{kd:g}.vtk"),
                patch,
                {
                    "phi": lambda e, p: phi.eval_values(e, p),
                    "phi_hat": lambda e, p, s=sd: s.eval_values(e, p),
                    "heaviside": lambda e, p, s=sd: regularized_heaviside(
                        s.eval_values(e, p), hv),
                },
            )
        _write_manifest(config, omit=CaseConfig._TRANSPORT)
    return DistortionReport(patch, entries)


# ----------------------------------------------------------------------
# 1D monotonicity


def alternating_width_lines(n):
    """Breakpoints of a 1D mesh with widths alternating small/large.

    With n=10 the widths alternate 0.05 / 0.15 over the unit interval.
    """
    if n % 2:
        raise ValueError("alternating mesh needs an even element count")
    pair = 2.0 / n
    widths = np.tile([2 * 0.25 * pair / 2, 2 * (1 - 0.25) * pair / 2], n // 2)
    return np.concatenate([[0.0], np.cumsum(widths)])


def _line_patch(lines, n):
    patch = build_structured([(0.0, 1.0)], [n], 1)
    law = lambda s: np.interp(s, np.linspace(0.0, 1.0, n + 1), lines)
    return grade_structured(patch, law)


@dataclass
class MonotoneCurve:
    name: str
    x: np.ndarray
    phi_hat: np.ndarray
    heaviside: np.ndarray
    monotone: bool


@dataclass
class MonotoneReport:
    curves: dict


def run_monotone1d(config):
    """Scaled distance and regularized step on uniform vs graded 1D meshes.

    Compares naive local scaling against the projected-inverse-scaling
    alternative and reports a monotonicity verdict per curve.
    """
    config = config.resolved()
    if config.case != "monotone1d":
        raise ValueError("config.case must be 'monotone1d'")
    n = config.mesh_n
    uniform = build_structured([(0.0, 1.0)], [n], 1)
    graded = _line_patch(alternating_width_lines(n), n)
    hv = HeavisideParams(config.alpha)
    xs = np.linspace(1e-3, 1.0 - 1e-3, 1000)

    def curve(name, patch, scaled):
        pts = patch.param_of_physical(xs[:, None])
        elems = patch.element_of_param(pts)
        vals = scaled.eval_values(elems, pts)
        h = regularized_heaviside(vals, hv)
        return MonotoneCurve(name, xs, vals, h, bool(np.all(np.diff(h) >= -1e-12)))

    curves = {}
    for label, patch in (("uniform", uniform), ("graded", graded)):
        phi = AnalyticField(patch, lambda x: x[..., 0] - 0.5,
                            lambda x: np.ones_like(x))
        curves[f"naive_{label}"] = curve(f"naive_{label}", patch,
                                         NaiveScaledField(phi))
        sd = redistance_field(phi, RedistanceParams(config.alternative,
                                                    kappa_d=config.kappa_d))
        curves[f"scaled_{label}"] = curve(f"scaled_{label}", patch, sd)
    if config.out_dir:
        header = ["x"]
        cols = [xs]
        for name, c in curves.items():
            header += [f"phi_hat_{name}", f"heaviside_{name}"]
            cols += [c.phi_hat, c.heaviside]
        emit_csv(os.path.join(config.out_dir, "monotone1d_curves.csv"), header,
                 zip(*cols))
        emit_csv(os.path.join(config.out_dir, "monotone1d_verdicts.csv"),
                 ["curve", "monotone"],
                 [(name, c.monotone) for name, c in curves.items()])
        _write_manifest(config, omit=CaseConfig._TRANSPORT)
    return MonotoneReport(curves)


# ----------------------------------------------------------------------
# vortex benchmarks


def heaviside_area_mismatch(patch, sd_final, sd_initial, hv):
    """Area of disagreement between two regularized step fields (L1 norm)."""
    wdet = patch.tabulation().wdet
    h_f = regularized_heaviside(sd_final.quadrature_values(), hv)
    h_i = regularized_heaviside(sd_initial.quadrature_values(), hv)
    return float(np.sum(wdet * np.abs(h_f - h_i)))


@dataclass
class VortexResult:
    """A vortex run's traces and errors, with the ``transport.StepInfo`` of
    each of its steps."""

    config: CaseConfig
    patch: object
    times: np.ndarray
    corrections: np.ndarray
    volumes: np.ndarray
    v1_initial: float
    l1_heaviside: float
    linf_phi: float
    state: TimeState = field(repr=False, default=None)
    steps: list = field(repr=False, default_factory=list)


def _vortex_setup(config, dim):
    patch = _square_patch(config, dim)
    # declared separable, so the transport step scales the field kept at set-up
    factor = partial(vortex_time_factor, period=config.t_end)
    if dim == 2:
        center, radius = (0.5, 0.75), 0.15
        velocity = SeparableVelocity(vortex2d_field, factor)
        max_speed = VORTEX2D_MAX_SPEED
    else:
        center, radius = (0.35, 0.35, 0.35), 0.15
        velocity = SeparableVelocity(vortex3d_field, factor)
        max_speed = VORTEX3D_MAX_SPEED
    fn, _ = signed_distance_to_sphere(center, radius)
    phi0 = project_function(patch, fn)
    dt = config.dt
    if dt is None:
        dt = config.cfl * patch.h_min() / max_speed
        # land exactly on t_end
        n_steps = int(np.ceil(config.t_end / dt - 1e-12))
        dt = config.t_end / n_steps
    else:
        n_steps = int(round(config.t_end / dt))  # CaseConfig checked that dt divides t_end
    return patch, velocity, phi0, dt, n_steps, center, radius


def _run_vortex(config, dim, snapshot_times=()):
    patch, velocity, phi0, dt, n_steps, center, radius = _vortex_setup(config, dim)
    hv = HeavisideParams(config.alpha)
    # clamped positivity: coarse runs drive the projected scaling through the
    # floor once the spiral thins below the mesh, and must still finish
    rd = RedistanceParams(config.alternative, kappa_d=config.kappa_d,
                          positivity="clamp")
    tparams = TransportParams(dt=dt, capturing_c=config.capturing_c,
                              picard_tol=config.picard_tol,
                              picard_max=config.picard_max,
                              tau_form=config.tau_form)
    integ = TransportIntegrator(patch, velocity, tparams, rd, hv)
    state = TimeState(phi0)
    sd0 = integ.scaled_distance(state)
    v1_initial = subdomain_volumes(sd0, hv, patch)[1]
    phi0_qp = phi0.quadrature_values()

    snap_steps = {int(round(t / dt)): t for t in snapshot_times}
    times = [0.0]
    steps = []

    def snapshot(step_idx, st):
        if config.out_dir is None or not config.vtk or step_idx not in snap_steps:
            return
        label = f"{snap_steps[step_idx]:g}".replace(".", "p")
        eff = st.effective()
        sd = integ.scaled_distance(st)
        emit_vtk(
            os.path.join(config.out_dir, f"vortex{dim}d_t{label}.vtk"),
            patch,
            {
                "phi": lambda e, p: eff.eval_values(e, p),
                "phi_hat": lambda e, p: sd.eval_values(e, p),
                "heaviside": lambda e, p: regularized_heaviside(sd.eval_values(e, p), hv),
            },
        )

    snapshot(0, state)
    for k in range(1, n_steps + 1):
        state = integ.step(state, target_v1=v1_initial)
        times.append(state.t)
        steps.append(integ.last_info)
        snapshot(k, state)
    corrections = [0.0] + [info.correction for info in steps]
    volumes = [v1_initial] + [info.volume for info in steps]

    sd_final = integ.scaled_distance(state)
    l1_h = heaviside_area_mismatch(patch, sd_final, sd0, hv)
    linf = float(np.abs(state.effective().quadrature_values() - phi0_qp).max())
    result = VortexResult(config, patch, np.array(times), np.array(corrections),
                          np.array(volumes), v1_initial, l1_h, linf, state, steps)
    if config.out_dir:
        emit_csv(
            os.path.join(config.out_dir, f"vortex{dim}d_trace.csv"),
            ["step", "t", "correction", "v1", "v1_rel_err"],
            [
                (k, times[k], corrections[k], volumes[k],
                 abs(volumes[k] - v1_initial) / v1_initial)
                for k in range(len(times))
            ],
        )
        emit_csv(
            os.path.join(config.out_dir, f"vortex{dim}d_final.csv"),
            ["l1_heaviside", "linf_phi", "v1_initial", "v1_final"],
            [(l1_h, linf, v1_initial, volumes[-1])],
        )
        _write_manifest(config, extra={
            "resolved_dt": dt, "n_steps": n_steps,
            "initial_center": ",".join(f"{c:g}" for c in np.atleast_1d(center)),
            "initial_radius": radius,
        })
    return result


def run_vortex2d(config):
    """Disc stretched into a spiral and back; traces volume and correction."""
    config = config.resolved()
    if config.case != "vortex2d":
        raise ValueError("config.case must be 'vortex2d'")
    snaps = (0.0, 0.5 * config.t_end, config.t_end)
    return _run_vortex(config, 2, snapshot_times=snaps)


def run_vortex3d(config):
    """Cube version of the vortex benchmark (volume-conservation property run)."""
    config = config.resolved()
    if config.case != "vortex3d":
        raise ValueError("config.case must be 'vortex3d'")
    snaps = (0.0, config.t_end) if config.vtk else ()
    return _run_vortex(config, 3, snapshot_times=snaps)


# ----------------------------------------------------------------------
# convergence study


@dataclass
class ConvergenceRow:
    elements: int
    l1_h: float
    rate_l1: float
    linf_phi: float
    rate_linf: float


@dataclass
class ConvergenceTable:
    family: str
    degree: int
    rows: list


def convergence_rate(coarse_err, fine_err):
    """Order estimate between successive dyadic refinements."""
    return float(np.log2(coarse_err / fine_err))


def run_convergence(config):
    """Dyadic mesh sweep of the vortex benchmark, inverse-scaling variant.

    Required families: linear and quadratic quads on {10, 20, 40}; the
    80-element level and the triangle family are opt-in flags. The sweep
    sets mesh, degree, family and alternative of each run itself, so
    :class:`CaseConfig` accepts only their defaults for this case.
    """
    config = config.resolved()
    if config.case != "converge":
        raise ValueError("config.case must be 'converge'")
    levels = [10, 20, 40] + ([80] if config.with_80 else [])
    families = [("quad", 1), ("quad", 2)]
    if config.with_triangles:
        families.append(("tri", 1))
    tables = []
    for family, degree in families:
        rows = []
        prev = None
        for n in levels:
            sub = replace(config, case="vortex2d", family=family, degree=degree,
                          mesh_n=n, out_dir=None,
                          kappa_d=config.kappa_d if family == "quad" else None,
                          vtk=False)
            res = _run_vortex(sub.resolved(), 2)
            if prev is None:
                rows.append(ConvergenceRow(n, res.l1_heaviside, float("nan"),
                                           res.linf_phi, float("nan")))
            else:
                rows.append(ConvergenceRow(
                    n, res.l1_heaviside,
                    convergence_rate(prev.l1_h, res.l1_heaviside),
                    res.linf_phi,
                    convergence_rate(prev.linf_phi, res.linf_phi),
                ))
            prev = rows[-1]
        tables.append(ConvergenceTable(family, degree, rows))
    if config.out_dir:
        records = []
        for table in tables:
            for row in table.rows:
                records.append((table.family, table.degree, row.elements,
                                row.l1_h, row.rate_l1, row.linf_phi, row.rate_linf))
        emit_csv(
            os.path.join(config.out_dir, "convergence_table.csv"),
            ["family", "degree", "elements", "l1_heaviside", "rate_l1",
             "linf_phi", "rate_linf"],
            records,
        )
        # the levels and families that ran, in place of the settings the
        # sweep chooses itself
        _write_manifest(config, omit=CaseConfig._CONVERGE_FIXED, extra={
            "levels": ",".join(map(str, levels)),
            "families": ",".join(f"{family}-p{degree}" for family, degree in families),
        })
    return tables


def run_case(config):
    """Dispatch a resolved case configuration to its runner."""
    runner = {
        "distortion": run_distortion,
        "monotone1d": run_monotone1d,
        "vortex2d": run_vortex2d,
        "vortex3d": run_vortex3d,
        "converge": run_convergence,
    }[config.case]
    return runner(config)

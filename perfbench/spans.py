"""Spans around the public functions of each polybubble layer.

The tracer wraps functions from outside the program: a module function is
replaced at its definition and in every polybubble module namespace that
imported it by name, a method on its class (and on every class attribute
that aliases it).  Each call records a span (name, start, end, parent) in
memory; per-name calls, inclusive and self time are accumulated on the fly,
where self time is the inclusive time minus the time covered by wrapped
children.  Work counters are read from arguments and return values.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter, defaultdict

CLI_COMMANDS = ("bubble-check", "cayley-green", "tree", "pohozaev", "solve")


def _points(x) -> int:
    """Number of points in a point batch: rows of a 2-D array, else 1."""
    shape = getattr(x, "shape", ())
    return int(shape[0]) if len(shape) == 2 else 1


def _size(x) -> int:
    return int(getattr(x, "size", 1))


def _cli_name(args, kwargs):
    argv = args[0] if args else kwargs.get("argv") or ()
    cmd = next((a for a in argv if a in CLI_COMMANDS), "none")
    return f"cli.{cmd}"


def _shoot_hook(tr, args, kwargs, result):
    if tr.active("solver.newton_solve"):
        tr.count("solver.shoot.in_newton", 1)


# Marks an integrator: its integrand argument gets its own span and node count.
INTEGRAND = "integrand"

# (module, attribute path, span name or naming function, hook).  A counter
# hook gets (tracer, args, kwargs, result).
LAYERS = [
    ("solver", "shoot", "solver.shoot", _shoot_hook),
    ("solver", "newton_solve", "solver.newton_solve", None),
    ("solver", "continuation", "solver.continuation", None),
    ("solver", "collocation_check", "solver.collocation_check", None),
    ("solver", "solve_ivp", "solver.solve_ivp",
     lambda tr, a, kw, r: tr.count("solver.rk45_nfev", r.nfev)),
    ("fields", "RadialTermField.partial", "fields.RadialTermField.partial",
     lambda tr, a, kw, r: tr.count("fields.RadialTermField.partial.points",
                                   _points(a[2]))),
    ("fields", "RadialTermField.jet", "fields.RadialTermField.jet", None),
    ("jets", "Jet.lap_iter", "jets.Jet.lap_iter", None),
    ("jets", "Jet.grad_lap", "jets.Jet.grad_lap", None),
    ("jets", "Jet.hess_lap", "jets.Jet.hess_lap", None),
    ("radial", "RadialFunction.__call__", "radial.RadialFunction.call",
     lambda tr, a, kw, r: tr.count("radial.RadialFunction.call.points",
                                   _size(a[1]))),
    ("radial", "check_bubble_identity", "radial.check_bubble_identity", None),
    ("radial", "laplacian", "radial.laplacian", None),
    ("pohozaev", "pohozaev_lhs", "pohozaev.pohozaev_lhs", None),
    ("pohozaev", "pohozaev_rhs", "pohozaev.pohozaev_rhs", None),
    ("pohozaev", "pohozaev_residual", "pohozaev.pohozaev_residual", None),
    ("pohozaev", "MultiPoly.__mul__", "pohozaev.MultiPoly.mul",
     lambda tr, a, kw, r: tr.count("pohozaev.MultiPoly.mul.terms_out",
                                   len(r.coeffs))),
    ("pohozaev", "MultiPoly.__pow__", "pohozaev.MultiPoly.pow", None),
    ("quadrature", "integrate_axisymmetric", "quadrature.integrate_axisymmetric",
     INTEGRAND),
    ("quadrature", "integrate_surface", "quadrature.integrate_surface",
     INTEGRAND),
    ("quadrature", "integrate_volume", "quadrature.integrate_volume",
     INTEGRAND),
    ("quadrature", "integrate_radial", "quadrature.integrate_radial",
     INTEGRAND),
    ("quadrature", "sphere_moment_ratio", "quadrature.sphere_moment_ratio", None),
    ("conformal", "check_norm_invariance", "conformal.check_norm_invariance", None),
    ("conformal", "check_distance_identity", "conformal.check_distance_identity",
     None),
    ("green", "check_conformal_relation", "green.check_conformal_relation", None),
    ("tree", "classify", "tree.classify", None),
    ("tree", "check_dominance", "tree.check_dominance", None),
    ("tree", "interaction_sup", "tree.interaction_sup", None),
    ("weights", "convolution_bound_verify", "weights.convolution_bound_verify",
     None),
    ("weights", "eta_sequences", "weights.eta_sequences", None),
    ("weights", "giraud_verify", "weights.giraud_verify", None),
    ("bubbles", "positive_bubble", "bubbles.positive_bubble", None),
    ("bubbles", "check_decay", "bubbles.check_decay", None),
    ("cli", "main", _cli_name, None),
]


class Tracer:
    """In-memory span recorder with per-name aggregates."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name_id = array("i")
        self.parent = array("i")
        self._stack: list[int] = []
        self._child: list[float] = []
        self._active: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    # -- recording ---------------------------------------------------------

    def reset(self):
        """Start a new aggregation window (spans are kept)."""
        self.stats = defaultdict(lambda: [0, 0.0, 0.0, 0])  # calls, s, self_s, failed
        self.counters = defaultdict(float)

    def count(self, key: str, value) -> None:
        self.counters[key] += value

    def active(self, name: str) -> bool:
        return self._active[name] > 0

    def _open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        i = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(i)
        self._child.append(0.0)
        self._active[name] += 1
        self.start.append(time.perf_counter())
        return i

    def _close(self, i: int, name: str, failed: bool) -> None:
        t = time.perf_counter()
        self.end[i] = t
        self._stack.pop()
        dur = t - self.start[i]
        st = self.stats[name]
        st[0] += 1
        st[2] += dur - self._child.pop()
        st[3] += failed
        self._active[name] -= 1
        if not self._active[name]:  # outermost frame of a recursion
            st[1] += dur
        if self._child:
            self._child[-1] += dur

    def wrap(self, fn, name, hook=None, integrand_of=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            if integrand_of is not None and args:
                args = (tracer._integrand(args[0], integrand_of),) + args[1:]
            i = tracer._open(label)
            failed = True
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                tracer._close(i, label, failed)
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        return wrapper

    def _integrand(self, f, owner: str):
        """Span each integrand call, so the quadrature's self time is the
        time spent building and combining rules; count the nodes."""
        key = owner + ".nodes"

        def integrand(pts, *a, **kw):
            self.counters[key] += _size(pts) if owner.endswith("radial") else _points(pts)
            i = self._open("quadrature.integrand")
            failed = True
            try:
                out = f(pts, *a, **kw)
                failed = False
            finally:
                self._close(i, "quadrature.integrand", failed)
            return out

        return integrand

    # -- installation ------------------------------------------------------

    def install(self) -> list[str]:
        """Wrap every layer function; return the ones that were not found."""
        mods = {k: m for k, m in list(sys.modules.items())
                if k == "polybubble" or k.startswith("polybubble.")}
        missing = []
        for modname, path, name, hook in LAYERS:
            owner = mods.get(f"polybubble.{modname}")
            if owner is None:  # the workload never imports this layer
                continue
            parts = path.split(".")
            for p in parts[:-1]:
                owner = getattr(owner, p, None)
            orig = getattr(owner, parts[-1], None) if owner is not None else None
            if orig is None:
                missing.append(f"{modname}.{path}")
                continue
            integ = name if hook == INTEGRAND else None
            w = self.wrap(orig, name, None if integ else hook, integ)
            if len(parts) > 1:  # method: patch every alias on the class
                for attr, val in list(vars(owner).items()):
                    if val is orig:
                        self._patch(owner, attr, w)
            else:
                for m in mods.values():
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            self._patch(m, attr, w)
        return missing

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    # -- output ------------------------------------------------------------

    def snapshot(self) -> dict[str, float]:
        """Flat metrics of the current window."""
        out = {}
        for name, (calls, s, self_s, failed) in self.stats.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.s"] = s
            out[f"{name}.self_s"] = self_s
            out[f"{name}.failed"] = failed
        out.update(self.counters)
        return out

    def save(self, path: str) -> None:
        """Write every recorded span as columns of an .npz file."""
        import numpy as np

        np.savez(path, names=np.array(self.names),
                 name_id=np.frombuffer(self.name_id, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 start=np.frombuffer(self.start, dtype=np.float64),
                 end=np.frombuffer(self.end, dtype=np.float64))

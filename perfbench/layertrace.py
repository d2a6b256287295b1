"""Outside-in layer tracing for the benchmark.

The tracer wraps public functions of the fogforge modules from the outside:
module-level functions are replaced in the module that *calls* them (modules
bind imported names at import time), and methods are replaced on their class.
Nothing under ``src/`` is edited.

While an operation is open, every wrapped call records a span
``[name, start, end, parent, op]`` in memory. Self time is the span's
duration minus the time its direct children cover; busy time counts only the
outermost span of a name, so recursion is never counted twice. Counters
(rows, points, nodes, tensors) are kept per operation so that a count can be
compared exactly between repeats of the same operation.
"""

from __future__ import annotations

import functools
import gzip
import json
from collections import defaultdict
from importlib import import_module
from time import perf_counter

import numpy as np

# (module, function, layer name); the module named is the caller whose global
# is replaced, because modules bind imported names at import time
FUNCTION_TARGETS = (
    ("fogforge.training", "collect_trajectory", "agents.collect_trajectory"),
    ("fogforge.training", "ppo_update", "agents.ppo_update"),
    ("fogforge.training", "evaluate_policy", "training.evaluate_policy"),
    ("fogforge.training", "infer_placement", "training.infer_placement"),
    ("fogforge.training", "evaluate", "model.evaluate"),
    ("fogforge.env", "evaluate", "model.evaluate"),
    ("fogforge.model", "batch_objectives", "model.batch_objectives"),
    ("fogforge.model", "pareto_front", "model.pareto_front"),
    ("fogforge.model", "brute_force_oracle", "model.brute_force_oracle"),
    ("fogforge.evolutionary", "batch_objectives", "model.batch_objectives"),
    ("fogforge.evolutionary", "pareto_front", "model.pareto_front"),
    ("fogforge.evolutionary", "hypervolume_2d", "model.hypervolume_2d"),
    ("fogforge.evolutionary", "fast_nondominated_sort", "evolutionary.fast_nondominated_sort"),
    ("fogforge.evolutionary", "crowding_distance", "evolutionary.crowding_distance"),
    ("fogforge.evolutionary", "nsga2_solve", "evolutionary.nsga2_solve"),
    ("fogforge.evolutionary", "ga_solve", "evolutionary.ga_solve"),
)
# (module, class, method, layer name); methods are replaced on their class
METHOD_TARGETS = (
    ("fogforge.env", "PlacementEnv", "step", "env.step"),
    ("fogforge.gin", "GinEncoder", "forward", "gin.forward"),
    ("fogforge.agents", "PolicyModel", "act", "agents.act"),
    ("fogforge.agents", "PolicyModel", "evaluate_actions", "agents.evaluate_actions"),
    ("fogforge.nn.autodiff", "Tensor", "backward", "nn.backward"),
    ("fogforge.nn.optim", "Adam", "step", "nn.adam_step"),
)
# PolicyModel attribute -> layer name for its Mlp.forward calls
HEADS = (("actor_d", "agents.device_head"), ("actor_s", "agents.service_head"))
SOLVERS = ("evolutionary.nsga2_solve", "evolutionary.ga_solve")

# layers whose busy/self/calls the benchmark reports, and the extra counters
LAYERS = tuple(
    dict.fromkeys([t[-1] for t in FUNCTION_TARGETS + METHOD_TARGETS] + [name for _, name in HEADS])
)
COUNTERS = (
    "nn.tensors_created",
    "gin.forward.nodes",
    "model.batch_objectives.rows",
    "model.pareto_front.points",
    "evolutionary.fast_nondominated_sort.points",
)
# counts that must repeat exactly between repeats of one operation
EXACT_COUNTS = (
    "agents.evaluate_actions.calls",
    "gin.forward.calls",
    "nn.tensors_created",
    "model.batch_objectives.rows",
    "model.pareto_front.points",
    "evolutionary.fast_nondominated_sort.points",
)


class Tracer:
    """Span recorder; ``install`` patches fogforge, ``uninstall`` restores it."""

    def __init__(self) -> None:
        self.op: int | None = None
        self.spans: list[list] = []  # [name, start, end, parent, op, child_time]
        self._stack: list[int] = []
        self._depth: dict[str, int] = defaultdict(int)
        self._patches: list[tuple[object, str, object]] = []
        self._heads: dict[int, tuple[object, str]] = {}
        self.busy: dict[tuple[int, str], float] = defaultdict(float)
        self.self_time: dict[tuple[int, str], float] = defaultdict(float)
        self.counts: dict[int, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self._seen_rows: dict[int, set[bytes]] = {}
        self._origin = perf_counter()

    # --- recording ----------------------------------------------------------

    def begin_op(self, op: int) -> None:
        self.op = op

    def end_op(self) -> None:
        self.op = None
        self._stack.clear()
        self._depth.clear()
        self._seen_rows.clear()

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0, parent, self.op, 0.0])
        self._stack.append(index)
        self._depth[name] += 1
        self.counts[self.op][f"{name}.calls"] += 1
        return index

    def _close(self, index: int) -> None:
        end = perf_counter()
        span = self.spans[index]
        span[2] = end
        duration = end - span[1]
        self._stack.pop()
        name, op, parent = span[0], span[4], span[3]
        self._depth[name] -= 1
        if self._depth[name] == 0:
            self.busy[(op, name)] += duration
        self.self_time[(op, name)] += duration - span[5]
        if parent >= 0:
            self.spans[parent][5] += duration

    def _ancestor(self, names: tuple[str, ...]) -> int:
        for index in reversed(self._stack):
            if self.spans[index][0] in names:
                return index
        return -1

    def _count(self, name: str, amount: int) -> None:
        self.counts[self.op][name] += amount

    def _hook(self, hook, *args) -> None:
        """Run a counting hook outside every span and leave its time out of the
        enclosing span's self time."""
        start = perf_counter()
        hook(*args)
        if self._stack:
            self.spans[self._stack[-1]][5] += perf_counter() - start

    # --- per-call hooks: run just before the span opens or after it closes --

    def _on_batch_objectives(self, args, kwargs) -> None:
        assignments = np.asarray(args[2] if len(args) > 2 else kwargs["assignments"])
        rows = int(assignments.shape[0])
        self._count("model.batch_objectives.rows", rows)
        solver = self._ancestor(SOLVERS)
        if solver < 0:
            return
        seen = self._seen_rows.setdefault(solver, set())
        keys = [row.tobytes() for row in np.ascontiguousarray(assignments, dtype=np.int64)]
        self._count("evolutionary.rows", rows)
        self._count("evolutionary.rows_reevaluated", sum(key in seen for key in keys))
        seen.update(keys)

    def _on_pareto_front(self, args, kwargs) -> None:
        points = len(args[0] if args else kwargs["points"])
        self._count("model.pareto_front.points", points)
        if self._stack and self.spans[self._stack[-1]][0] == "model.brute_force_oracle":
            self._count("model.oracle.boxed_points", points)

    def _on_sort(self, args, kwargs) -> None:
        self._count("evolutionary.fast_nondominated_sort.points", len(args[0] if args else kwargs["points"]))

    def _on_gin(self, args, kwargs) -> None:
        features = args[1] if len(args) > 1 else kwargs["node_features"]
        self._count("gin.forward.nodes", int(np.shape(getattr(features, "data", features))[0]))

    def _on_oracle_return(self, result) -> None:
        self._count("model.oracle.enumerated", int(result.enumerated))

    # --- patching -----------------------------------------------------------

    def _wrap(self, fn, name: str, before=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            if before is not None:
                tracer._hook(before, args, kwargs)
            index = tracer._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(index)
            if after is not None:
                tracer._hook(after, out)
            return out

        return wrapper

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        hooks = {
            "model.batch_objectives": (self._on_batch_objectives, None),
            "model.pareto_front": (self._on_pareto_front, None),
            "evolutionary.fast_nondominated_sort": (self._on_sort, None),
            "model.brute_force_oracle": (None, self._on_oracle_return),
            "gin.forward": (self._on_gin, None),
        }
        for module_path, attr, name in FUNCTION_TARGETS:
            module = import_module(module_path)
            before, after = hooks.get(name, (None, None))
            self._patch(module, attr, self._wrap(vars(module)[attr], name, before, after))
        for module_path, cls_name, attr, name in METHOD_TARGETS:
            cls = getattr(import_module(module_path), cls_name)
            before, after = hooks.get(name, (None, None))
            self._patch(cls, attr, self._wrap(vars(cls)[attr], name, before, after))
        self._install_heads()
        self._install_tensor_counter()

    def _install_heads(self) -> None:
        agents = import_module("fogforge.agents")
        layers = import_module("fogforge.nn.layers")
        tracer = self
        model_init = vars(agents.PolicyModel)["__init__"]
        mlp_forward = vars(layers.Mlp)["forward"]

        @functools.wraps(model_init)
        def init(model, *args, **kwargs):
            model_init(model, *args, **kwargs)
            for attr, name in HEADS:
                head = getattr(model, attr)
                # keep the head alive so its id is never reused by another Mlp
                tracer._heads[id(head)] = (head, name)

        @functools.wraps(mlp_forward)
        def forward(mlp, *args, **kwargs):
            entry = tracer._heads.get(id(mlp))
            if tracer.op is None or entry is None:
                return mlp_forward(mlp, *args, **kwargs)
            index = tracer._open(entry[1])
            try:
                return mlp_forward(mlp, *args, **kwargs)
            finally:
                tracer._close(index)

        self._patch(agents.PolicyModel, "__init__", init)
        self._patch(layers.Mlp, "forward", forward)

    def _install_tensor_counter(self) -> None:
        autodiff = import_module("fogforge.nn.autodiff")
        tensor_init = vars(autodiff.Tensor)["__init__"]
        counts = self.counts
        tracer = self

        @functools.wraps(tensor_init)
        def init(tensor, *args, **kwargs):
            if tracer.op is not None:
                counts[tracer.op]["nn.tensors_created"] += 1
            tensor_init(tensor, *args, **kwargs)

        self._patch(autodiff.Tensor, "__init__", init)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # --- summaries ----------------------------------------------------------

    def op_counts(self, op: int) -> dict[str, int]:
        return dict(self.counts.get(op, {}))

    def layer_metrics(self, ops: list[int], units_per_op: float) -> dict[str, tuple[float, str]]:
        """Per-layer busy/self seconds, calls and counters per unit of work,
        each as (value, unit)."""
        units = len(ops) * units_per_op
        totals: dict[str, float] = defaultdict(float)
        for op in ops:
            for key, value in self.counts[op].items():
                totals[key] += value
            for (span_op, name), value in self.busy.items():
                if span_op == op:
                    totals[f"{name}.busy_s"] += value
            for (span_op, name), value in self.self_time.items():
                if span_op == op:
                    totals[f"{name}.self_s"] += value
        out: dict[str, tuple[float, str]] = {}
        for name in LAYERS:
            out[f"{name}.busy_s"] = (totals[f"{name}.busy_s"] / units, "s")
            out[f"{name}.self_s"] = (totals[f"{name}.self_s"] / units, "s")
            out[f"{name}.calls"] = (totals[f"{name}.calls"] / units, "count")
        for name in COUNTERS:
            out[name] = (totals[name] / units, "count")
        enumerated = totals["model.oracle.enumerated"]
        boxed = totals["model.oracle.boxed_points"] / enumerated if enumerated else 0.0
        out["model.oracle.boxed_ratio"] = (boxed, "ratio")
        rows = totals["evolutionary.rows"]
        reevaluated = totals["evolutionary.rows_reevaluated"] / rows if rows else 0.0
        out["evolutionary.reevaluated_ratio"] = (reevaluated, "ratio")
        return out

    def write_spans(self, path) -> int:
        """Write recorded spans as gzip JSON lines; returns the span count."""
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            for name, start, end, parent, op, _ in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "name": name,
                            "start": start - self._origin,
                            "end": end - self._origin,
                            "parent": parent,
                            "op": op,
                        }
                    )
                    + "\n"
                )
        return len(self.spans)

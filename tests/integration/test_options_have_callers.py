"""No option without a caller (structural, AST-only — imports nothing).

Every optional constructor parameter of the serving / backend / engine
classes doubles the configurations the tests and benchmarks must cover,
so each one has to be *set* by a deployment: passed at ≥ 1 call site
under ``src/ tools/ benchmarks/ examples/``.  A setting only tests pass
is a module constant (tests monkeypatch it), a behaviour only tests
select is deleted, and the four :data:`SEAMS` are the stated
exceptions.  A parameter a wrapper merely forwards from its own
parameter (``super().__init__(x=x)``,
``WorkerPool(..., fault_injector=fault_injector)``) only counts when
the wrapper's parameter is itself set by someone.  The telemetry
classes follow the same rule with no seam.  Likewise the only
environment variables ``src/`` may read are the two deployment settings
(cache directory, benchmark preset).  The same rule one level up: the
``HeBackend`` interface is implemented by the three schemes and nothing
else (a serving wrapper would be a fourth copy of every method), and
every name a ``repro`` package exports is used by code outside
``tests/``, bar the :data:`TEST_ONLY_EXPORTS`.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
CALL_SITE_DIRS = ("src", "tools", "benchmarks", "examples", "tests")
OUTSIDE_TESTS = ("src", "tools", "benchmarks", "examples")

CLASSES = (
    "CloudService",
    "BatchedCloudService",
    "ClusteredCloudService",
    "WorkerPool",
    "Dispatcher",
    "BatchingScheduler",
    "CkksRnsContext",
    "CkksRnsBackend",
    "CkksBackend",
    "MockBackend",
    "HeInferenceEngine",
    "HybridRnsEngine",
    "PlaintextCache",
)

#: Options only tests set, each kept for a stated reason.
SEAMS = {
    "BatchingScheduler(start)": "a test fills the queue before the batcher thread runs",
    "MockBackend(quantize)": "the exact reference mode the BSGS, lazy-relin and compiler tests compare against",
    "MockBackend(fault_injector)": "the fault harness",
    "CkksRnsBackend(fault_injector)": "the fault harness",
}

#: Telemetry classes whose options must be set outside ``tests/``.
TELEMETRY = (
    "SamplingPolicy",
    "TraceStore",
    "RequestTracer",
    "ObservabilityServer",
    "Tracer",
    "Histogram",
)

ALLOWED_ENV = {"REPRO_CACHE", "REPRO_BENCH_PRESET"}

BACKENDS = {"MockBackend", "CkksBackend", "CkksRnsBackend"}


def _trees(*dirs: str):
    for d in dirs:
        for path in sorted((ROOT / d).rglob("*.py")):
            yield path, ast.parse(path.read_text(), filename=str(path))


def _constructors(classes=CLASSES) -> dict[str, tuple[ast.ClassDef, ast.FunctionDef]]:
    found = {}
    for _, tree in _trees("src"):
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and node.name in classes:
                init = next(
                    n
                    for n in node.body
                    if isinstance(n, ast.FunctionDef) and n.name == "__init__"
                )
                assert node.name not in found, f"two classes named {node.name}"
                found[node.name] = (node, init)
    assert set(found) == set(classes), set(classes) - set(found)
    return found


def _signature(init: ast.FunctionDef) -> tuple[list[str], set[str]]:
    """``(positional names after self, optional names)`` of a constructor."""
    a = init.args
    positional = [p.arg for p in a.posonlyargs + a.args][1:]
    with_default = positional[len(positional) - len(a.defaults) :] if a.defaults else []
    return positional, set(with_default) | {p.arg for p in a.kwonlyargs}


def _callee(call: ast.Call, enclosing_class: ast.ClassDef | None) -> str | None:
    """Target class a call constructs, resolving ``super().__init__``."""
    f = call.func
    if isinstance(f, ast.Name):
        return f.id
    if isinstance(f, ast.Attribute):
        if (
            f.attr == "__init__"
            and isinstance(f.value, ast.Call)
            and isinstance(f.value.func, ast.Name)
            and f.value.func.id == "super"
            and enclosing_class is not None
            and enclosing_class.bases
        ):
            base = enclosing_class.bases[0]
            return base.id if isinstance(base, ast.Name) else getattr(base, "attr", None)
        return f.attr
    return None


def _unset_options(classes=CLASSES, dirs=CALL_SITE_DIRS) -> list[str]:
    ctors = _constructors(classes)
    sigs = {name: _signature(init) for name, (_, init) in ctors.items()}
    # Keywords a subclass swallows in ``**kwargs`` reach its base class.
    passthrough = {
        name: cls.bases[0].id
        for name, (cls, init) in ctors.items()
        if init.args.kwarg is not None and cls.bases and cls.bases[0].id in ctors
    }
    fed: set[tuple[str, str]] = set()
    forwards: list[tuple[tuple[str, str], tuple[str, str]]] = []

    def visit(node: ast.AST, cls: ast.ClassDef | None, fn: ast.FunctionDef | None) -> None:
        if isinstance(node, ast.ClassDef):
            cls, fn = node, None
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            fn = node
        elif isinstance(node, ast.Call):
            target = _callee(node, cls)
            if target in ctors:
                in_ctor = cls is not None and fn is not None and fn.name == "__init__"
                wrapper = cls.name if in_ctor and cls.name in ctors else None
                positional, _ = sigs[target]
                args = [(positional[i], a) for i, a in enumerate(node.args) if i < len(positional)]
                args += [(k.arg, k.value) for k in node.keywords if k.arg is not None]
                for name, value in args:
                    owner = target
                    while name not in sigs[owner][1] and owner in passthrough:
                        owner = passthrough[owner]
                    if name not in sigs[owner][1]:
                        continue
                    if (
                        wrapper is not None
                        and isinstance(value, ast.Name)
                        and value.id in sigs[wrapper][1]
                    ):
                        forwards.append(((wrapper, value.id), (owner, name)))
                    else:
                        fed.add((owner, name))
        for child in ast.iter_child_nodes(node):
            visit(child, cls, fn)

    for _, tree in _trees(*dirs):
        visit(tree, None, None)
    grew = True
    while grew:
        grew = False
        for src, dst in forwards:
            if src in fed and dst not in fed:
                fed.add(dst)
                grew = True
    return sorted(
        f"{cls}({opt})" for cls, (_, options) in sigs.items() for opt in options if (cls, opt) not in fed
    )


def _env_reads() -> set[str]:
    """Names ``src/`` reads from the environment; ``<dynamic>`` for a
    computed name or any other use of ``os.environ`` (iteration, copy)."""
    names = set()
    for _, tree in _trees("src"):
        parent = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            if not (
                isinstance(node, ast.Attribute)
                and node.attr in ("environ", "getenv")
                and isinstance(node.value, ast.Name)
                and node.value.id == "os"
            ):
                continue
            use = parent[node]
            if node.attr == "environ" and isinstance(use, ast.Attribute) and use.attr == "get":
                use = parent[use]
            key = None
            if isinstance(use, ast.Call) and use.args:
                key = use.args[0]
            elif isinstance(use, ast.Subscript):
                key = use.slice
            literal = isinstance(key, ast.Constant) and isinstance(key.value, str)
            names.add(key.value if literal else "<dynamic>")
    return names


def test_every_constructor_option_is_set_by_some_caller():
    """Only call sites under ``src/ tools/ benchmarks/ examples/`` count;
    what is left unset is exactly the :data:`SEAMS`."""
    assert _unset_options(CLASSES, OUTSIDE_TESTS) == sorted(SEAMS)


def test_telemetry_options_are_set_outside_tests():
    """Only call sites under ``src/ tools/ benchmarks/ examples/`` count
    (the serving classes stay in scope so a forwarded ``trace_policy``
    resolves to the caller that sets it)."""
    unset = _unset_options(CLASSES + TELEMETRY, OUTSIDE_TESTS)
    assert [u for u in unset if u.split("(")[0] in TELEMETRY] == []


def _defined_names() -> set[str]:
    """Module-level functions, classes and ``Class.method`` names in ``src/``."""
    names: set[str] = set()
    for _, tree in _trees("src"):
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.add(node.name)
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef):
                names.update(f"{cls.name}.{m}" for m in _methods(cls))
    return names


def _params(node: ast.FunctionDef) -> set[str]:
    a = node.args
    return {p.arg for p in a.posonlyargs + a.args + a.kwonlyargs}


def test_telemetry_records_each_event_once():
    """One record per event: no span→registry mirror (``Tracer`` /
    ``enable`` / ``tracing`` take no registry), no per-worker ledger
    beside the merged totals, no engine-private tracer behind a
    ``LayerTrace`` view, and the one-line wrappers and per-prefix report
    helpers stay gone."""
    gone = {
        "LayerTrace",
        "HeInferenceEngine.trace",
        "MetricsRegistry.per_worker",
        "MetricsRegistry._note_worker",
        "Gauge.inc",
        "health_enabled",
        "serving_rows",
        "cluster_rows",
        "stage_rows",
    }
    assert gone & _defined_names() == set()
    (tracer,) = [t for p, t in _trees("src") if p.name == "tracer.py" and p.parent.name == "obs"]
    (metrics,) = [t for p, t in _trees("src") if p.name == "metrics.py" and p.parent.name == "obs"]
    functions = {
        node.name if not isinstance(parent, ast.ClassDef) else f"{parent.name}.{node.name}": node
        for tree in (tracer, metrics)
        for parent in ast.walk(tree)
        for node in ast.iter_child_nodes(parent)
        if isinstance(node, ast.FunctionDef)
    }
    for name in ("Tracer.__init__", "enable", "tracing.__init__"):
        assert "metrics" not in _params(functions[name]), name
    assert _params(functions["MetricsRegistry.merge_delta"]) == {"self", "delta"}


def test_the_ckks_rns_context_and_backend_take_no_executor():
    """Position shards replaced the context's channel fan-outs; their
    count comes from the CPU affinity, not from an option."""
    ctors = _constructors()
    for name in ("CkksRnsContext", "CkksRnsBackend"):
        positional, options = _signature(ctors[name][1])
        assert "executor" not in positional + sorted(options), name


def test_src_reads_only_the_two_deployment_env_vars():
    assert _env_reads() == ALLOWED_ENV


def _base_names(cls: ast.ClassDef) -> set[str]:
    return {b.id if isinstance(b, ast.Name) else getattr(b, "attr", "") for b in cls.bases}


def test_hebackend_is_implemented_by_the_three_schemes_only():
    classes = [
        node for _, tree in _trees("src") for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
    ]
    family = {"HeBackend"}
    while True:  # transitive: a subclass of a backend is a backend
        grown = family | {c.name for c in classes if _base_names(c) & family}
        if grown == family:
            break
        family = grown
    assert family - {"HeBackend"} == BACKENDS


#: Exports only tests use, and why: a format inverse only tests read back
#: (``obs.load_json``), a test hook (``obs.capture_logs``) and the sign
#: flip of the reference rotations that test the automorphisms
#: (``nt.negmod``).
TEST_ONLY_EXPORTS = {"obs": {"capture_logs", "load_json"}, "nt": {"negmod"}}


def _exports(package_name: str) -> list[str]:
    """``repro.<package_name>.__all__``, read from the source."""
    package = ROOT / "src" / "repro" / package_name / "__init__.py"
    (exported,) = [
        ast.literal_eval(node.value)
        for node in ast.parse(package.read_text()).body
        if isinstance(node, ast.Assign) and node.targets[0].id == "__all__"
    ]
    return exported


def _unreferenced_exports(package_name: str) -> list[str]:
    """Names in ``repro.<package_name>.__all__`` no code outside tests uses."""
    package = ROOT / "src" / "repro" / package_name / "__init__.py"
    exported = _exports(package_name)
    used: set[str] = set()
    for path, tree in _trees("src", "tools", "benchmarks", "examples"):
        if path == package:
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return sorted(set(exported) - used - TEST_ONLY_EXPORTS.get(package_name, set()))


def test_every_serving_export_is_referenced_outside_tests():
    assert _unreferenced_exports("serving") == []


@pytest.mark.parametrize(
    "package_name",
    [
        "parallel", "resilience", "henn", "ckks", "ckksrns", "nn", "bench", "rns",
        "nt", "data", "utils", "obs",
    ],
)
def test_every_export_is_referenced_outside_tests(package_name):
    """Every package export has a user outside ``tests/``, bar the
    :data:`TEST_ONLY_EXPORTS`."""
    assert _unreferenced_exports(package_name) == []


# -- one linear-map executor, no plan switch ------------------------------------


def test_engine_always_plans_there_is_no_switch():
    """The engine compiles its own plan: no ``plan`` parameter to switch
    planning off or to adopt a plan compiled for another graph."""
    (_, init) = _constructors()["HeInferenceEngine"]
    positional, options = _signature(init)
    assert "plan" not in positional + sorted(options)
    switched = [
        f"{path.relative_to(ROOT)}:{node.lineno}"
        for path, tree in _trees(*CALL_SITE_DIRS)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        for k in node.keywords
        if k.arg == "plan" and isinstance(k.value, ast.Constant) and isinstance(k.value.value, bool)
    ]
    assert switched == []


def test_linear_maps_have_one_reference_and_one_planned_spelling():
    henn = ROOT / "src" / "repro" / "henn"
    plan = ast.parse((henn / "plan.py").read_text())
    executors = [
        cls.name
        for cls in ast.walk(plan)
        if isinstance(cls, ast.ClassDef)
        and any(isinstance(n, ast.FunctionDef) and n.name == "forward" for n in cls.body)
    ]
    assert executors == ["PlannedTaps"]
    (compile_plan,) = [
        n for n in plan.body if isinstance(n, ast.FunctionDef) and n.name == "compile_plan"
    ]
    named = {n.id for n in ast.walk(compile_plan) if isinstance(n, ast.Name)}
    assert not named & {"HeConv2d", "HeLinear", "HeAvgPool"}
    calls: dict[str, list[str]] = {}
    for path in sorted(henn.rglob("*.py")):
        if path.name == "backend.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                calls.setdefault(node.func.attr, []).append(path.name)
    # the reference forward and PlannedTaps; the map rescales and adds its bias itself
    assert sorted(calls["weighted_sum_encoded"]) == ["layers.py", "plan.py"]
    assert "weighted_sum" not in calls


# -- one way to run residue channels ----------------------------------------------


def test_residue_channels_run_serial_or_on_threads_only():
    """The executors are the serial reference and a thread pool; no
    process pool or shared-memory segment comes back under ``src/``."""
    imported: set[str] = set()
    executors: set[str] = set()
    for _, tree in _trees("src"):
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update(a.name for a in node.names)
            elif isinstance(node, ast.ImportFrom):
                imported.update(f"{node.module}.{a.name}" for a in node.names)
            elif isinstance(node, ast.ClassDef) and "Executor" in _base_names(node):
                executors.add(node.name)
    assert executors == {"SerialExecutor", "ThreadExecutor"}
    assert not {
        name
        for name in imported
        if "shared_memory" in name or name.endswith("ProcessPoolExecutor")
    }


# -- one BSGS interpreter, one way to write a relinearised product -----------------


def _methods(cls: ast.ClassDef) -> set[str]:
    return {n.name for n in cls.body if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))}


def test_one_bsgs_interpreter_and_no_relinearising_products():
    """The eager interpreter lives in ``tests/henn/eager_oracle.py``; a
    relinearised product is ``relinearize(mul_raw(...))`` at every level.
    No ``relin_mode`` switch, no second interpreter, no ``mul`` /
    ``square`` on a backend, and neither scheme context keeps ``mul``,
    ``square`` or the uncalled ``sub`` / ``negate`` / ``rescale_to_match``."""
    interpreters, switched = [], []
    classes: dict[str, ast.ClassDef] = {}
    for path, tree in _trees("src"):
        if "relin_mode" in path.read_text():
            switched.append(str(path.relative_to(ROOT)))
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name.startswith("_run_poly_program"):
                interpreters.append(node.name)
            elif isinstance(node, ast.ClassDef):
                classes[node.name] = node
    assert interpreters == ["_run_poly_program"]
    assert switched == []
    for name in {"HeBackend"} | BACKENDS:
        assert not _methods(classes[name]) & {"mul", "square"}, name
    for name in ("CkksContext", "CkksRnsContext"):
        dropped = {"mul", "square", "sub", "negate", "rescale_to_match"}
        assert not _methods(classes[name]) & dropped, name


def test_batch_entry_points_are_written_once():
    """``poly_eval_many``, ``relinearize_many`` and a linear map's finish
    (``_finish_map``: rescale, then bias) live on ``HeBackend`` over one
    grouping hook (``_shard_plan``) and one module-level ``_run_shards``:
    the interpreter takes the backend itself (no ``_SinglePolyOps`` /
    ``_RnsBatchOps`` adapter), and ``CkksRnsBackend`` only chooses the
    groups."""
    classes: dict[str, ast.ClassDef] = {}
    runners = []
    for _, tree in _trees("src"):
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                classes[node.name] = node
            elif isinstance(node, ast.FunctionDef) and node.name == "_run_shards":
                runners.append(node.name)
    assert not {"_SinglePolyOps", "_RnsBatchOps"} & set(classes)
    batch = {"poly_eval_many", "relinearize_many", "_finish_map"}
    assert batch <= _methods(classes["HeBackend"])
    assert not _methods(classes["CkksRnsBackend"]) & (batch | {"_run_shards"})
    assert runners == ["_run_shards"]


#: ``HeBackend``'s public names: 16 primitives and 4 derived composites.
HEBACKEND_PUBLIC = 20


def test_a_linear_map_is_one_backend_call():
    """``weighted_sum_encoded`` rescales and adds the bias itself:
    ``HeBackend`` keeps exactly :data:`HEBACKEND_PUBLIC` public names,
    and the batched ``rescale_many`` / ``add_plain_each``, the plan's tap
    encoder with its cache keys (``_TapEncoder``, ``plan_cache_key``,
    ``_backend_sig``) and ``compile_plan``'s ``cache`` parameter stay
    gone — defined nowhere, called nowhere."""
    gone = {"rescale_many", "add_plain_each", "_TapEncoder", "plan_cache_key", "_backend_sig"}
    defined, called = [], []
    for path, tree in _trees(*CALL_SITE_DIRS):
        where = str(path.relative_to(ROOT))
        for node in ast.walk(tree):
            if isinstance(node, (ast.ClassDef, ast.FunctionDef)) and node.name in gone:
                defined.append(f"{where}:{node.name}")
            elif isinstance(node, ast.Attribute) and node.attr in gone:
                called.append(f"{where}:{node.attr}")
            elif isinstance(node, ast.Name) and node.id in gone:
                called.append(f"{where}:{node.id}")
            elif isinstance(node, ast.ImportFrom):
                called += [f"{where}:{a.name}" for a in node.names if a.name in gone]
    assert defined == []
    assert called == []
    src = [node for _, tree in _trees("src") for node in ast.walk(tree)]
    (backend,) = [n for n in src if isinstance(n, ast.ClassDef) and n.name == "HeBackend"]
    public = sorted(m for m in _methods(backend) if not m.startswith("_"))
    assert len(public) == HEBACKEND_PUBLIC, public
    (compile_plan,) = [n for n in src if isinstance(n, ast.FunctionDef) and n.name == "compile_plan"]
    assert "cache" not in _params(compile_plan)


def test_the_packed_layout_is_one_record():
    """``packing.packed_layout`` decides the packed layout in one walk and
    everything reads its one ``PackedLayout``: the two deciding functions
    and the rebuilt identity gather are defined nowhere under ``src/``, and
    no code reads the two parallel ``packed_width`` / ``packed_input``
    fields."""
    gone = {"packed_score_width", "packed_input", "_identity_input"}
    defined = [
        f"{path.relative_to(ROOT)}:{node.name}"
        for path, tree in _trees("src")
        for node in ast.walk(tree)
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)) and node.name in gone
    ]
    read = [
        f"{path.relative_to(ROOT)}:{node.lineno}"
        for path, tree in _trees(*CALL_SITE_DIRS)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in {"packed_width", "packed_input"}
    ]
    assert defined == []
    assert read == []


# -- handles carry their own scale and level ---------------------------------------


def test_backends_have_no_wrappers_for_what_a_handle_or_a_map_carries():
    """A handle answers ``.scale`` / ``.level`` itself, a weighted sum is
    a one-row ``EncodedMap`` through ``weighted_sum_encoded``, and a
    slot-vector product is ``_mul_encoded(_encode_vector(...))``: no
    backend defines ``scale_of``, ``level_of``, ``weighted_sum`` or
    ``mul_plain_vector``."""
    dropped = {"scale_of", "level_of", "weighted_sum", "mul_plain_vector"}
    classes = {
        node.name: node
        for _, tree in _trees("src")
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
    }
    for name in {"HeBackend"} | BACKENDS:
        assert not _methods(classes[name]) & dropped, name


# -- one CRT basis ------------------------------------------------------------------


def test_one_crt_basis():
    """``repro.nt.crt.CrtBasis`` decomposes, multiplies and composes at
    word speed itself: nothing under ``src/`` subclasses it, no module
    defines the stacked-tensor wrappers it replaced, and ``repro.rns``
    exports base conversion only."""
    wrappers = {"RnsBase", "rns_decompose", "rns_recompose_signed", "channel_mul"}
    subclasses, defined = [], []
    for path, tree in _trees("src"):
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and "CrtBasis" in _base_names(node):
                subclasses.append(node.name)
            if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
                names = {node.name}
            elif isinstance(node, ast.Assign):
                names = {t.id for t in node.targets if isinstance(t, ast.Name)}
            else:
                continue
            defined += [f"{path.relative_to(ROOT)}:{n}" for n in names & wrappers]
    assert subclasses == []
    assert defined == []
    assert _exports("rns") == ["approx_base_convert"]


def test_one_polynomial_product():
    """``PolyRing.mul`` multiplies through ``CrtBasis`` and
    ``BatchedNttPlan`` like the RNS scheme: the multiprecision ring keeps
    no Kronecker packing of its own."""
    (ring,) = [
        node
        for _, tree in _trees("src")
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and node.name == "PolyRing"
    ]
    assert not _methods(ring) & {"_pack", "_unpack"}

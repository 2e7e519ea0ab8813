"""The benchmark's contract with the package, checked from the package's side.

``benchmarks/spans.py`` rebinds public names of trafficlab to trace them, and
``benchmarks/workloads.py`` drives the package through its public names. A
rename under ``src/`` that drops one of them breaks the benchmark only when
the benchmark runs; these tests catch it in the tier-1 suite. They read the
files under ``benchmarks/`` and change nothing there.
"""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

import trafficlab

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def load_spans():
    spec = importlib.util.spec_from_file_location("benchmark_spans", BENCHMARKS / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = load_spans()


def workload_names():
    """Each (module, attribute) that ``workloads.py`` reads from trafficlab: the
    names it imports, and the attributes of the modules it binds to a name."""
    tree = ast.parse((BENCHMARKS / "workloads.py").read_text(encoding="utf-8"))
    modules, used = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.partition(".")[0] == "trafficlab":
                    modules[alias.asname or alias.name] = alias.name
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("trafficlab"):
            for alias in node.names:
                try:  # a submodule, or a name the module defines
                    module = importlib.import_module(f"{node.module}.{alias.name}").__name__
                    modules[alias.asname or alias.name] = module
                except ModuleNotFoundError:
                    used.append((node.module, alias.name))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            used.append((modules[node.value.id], node.attr))
    return sorted(set(used))


WORKLOAD_NAMES = workload_names()


def test_the_workloads_names_are_found():
    # tl., cli. and config. attributes, and a name imported from a module
    assert ("trafficlab", "simulate_continuous") in WORKLOAD_NAMES
    assert ("trafficlab.equivalence", "front_position") in WORKLOAD_NAMES
    assert ("trafficlab.cli", "main") in WORKLOAD_NAMES
    assert ("trafficlab.config", "validate_document") in WORKLOAD_NAMES


@pytest.mark.parametrize("module, attr", WORKLOAD_NAMES,
                         ids=[f"{module}.{attr}" for module, attr in WORKLOAD_NAMES])
def test_every_name_the_workloads_read_exists(module, attr):
    assert hasattr(importlib.import_module(module), attr)


@pytest.mark.parametrize("mod, attr", [target[:2] for target in spans.TARGETS],
                         ids=[target[2] + ":" + target[1] for target in spans.TARGETS])
def test_every_traced_target_exists(mod, attr):
    assert callable(getattr(importlib.import_module(f"trafficlab.{mod}"), attr, None))


@pytest.mark.parametrize("name", spans.LAW_FACTORIES)
def test_every_traced_law_factory_exists(name):
    assert callable(getattr(trafficlab.laws, name, None))


@pytest.mark.parametrize("name", spans.DIAGRAM_CLASSES)
def test_every_traced_diagram_class_has_phi(name):
    assert callable(getattr(getattr(trafficlab.fundamental, name, None), "phi", None))


def bindings():
    """Every value bound in a trafficlab module, and the phi each diagram class
    resolves (its own or the one it inherits)."""
    bound = {(name, attr): value for name, module in list(sys.modules.items())
             if name == "trafficlab" or name.startswith("trafficlab.")
             for attr, value in vars(module).items()}
    for name in spans.DIAGRAM_CLASSES:
        bound[(name, "phi")] = getattr(trafficlab.fundamental, name).phi
    return bound


def test_tracer_installs_and_uninstall_restores_every_binding():
    before = bindings()
    tracer = spans.Tracer()
    try:
        tracer.install()
        rebound = len(tracer._undo)
        after_install = bindings()
        changed = {key for key, value in before.items() if after_install[key] is not value}
        # each traced target, law factory and diagram phi was rebound somewhere
        for mod, attr, _, _ in spans.TARGETS:
            assert (f"trafficlab.{mod}", attr) in changed, (mod, attr)
        for name in spans.LAW_FACTORIES:
            assert ("trafficlab.laws", name) in changed, name
        for name in spans.DIAGRAM_CLASSES:
            assert (name, "phi") in changed, name
    finally:
        tracer.uninstall()
    assert rebound == len(changed)
    after = bindings()
    assert after.keys() == before.keys()
    assert [key for key, value in before.items() if after[key] is not value] == []


FD = trafficlab.TriangularDiagram(v_f=20.0, w=5.0, k_j=0.2)
OVM = trafficlab.make_ovm(0.4, FD)  # made untraced, so a traced wrapper copies the delayed law
DELAYED = {  # the names are looked up at call time, so a traced build uses the wrappers
    "law_from_config": lambda: trafficlab.law_from_config(
        {"name": "third_order", "t_delay": 0.5, "inner": {"name": "ovm", "T": 0.4}}, FD),
    "make_third_order": lambda: trafficlab.make_third_order(OVM, 0.5),
}


@pytest.mark.parametrize("build", DELAYED.values(), ids=DELAYED)
def test_traced_third_order_law_keeps_its_delay(build):
    """The tracer wraps each law's ``psi`` on a ``dataclasses.replace`` copy,
    which must keep the law's delay: a traced third-order run is the untraced
    one bit for bit, accelerations included."""
    initial = trafficlab.PlatoonState(time=0.0, positions=[37.5, 25.0, 12.5, 0.0],
                                      speeds=[5.0, 4.0, 6.0, 5.0])

    def run():
        law = build()
        return law, trafficlab.simulate_continuous(law, initial, trafficlab.ConstantLeader(5.0),
                                                   0.02, 200)

    plain_law, plain = run()
    tracer = spans.Tracer()
    try:
        tracer.install()
        tracer.active = True
        traced_law, traced = run()
    finally:
        tracer.active = False
        tracer.uninstall()
    assert traced_law.psi is not plain_law.psi and "laws.evaluate" in tracer.ids
    assert traced_law.t_delay == plain_law.t_delay == 0.5
    assert traced.accels is not None
    for name in ("positions", "speeds", "accels"):
        assert getattr(traced, name).tobytes() == getattr(plain, name).tobytes(), name

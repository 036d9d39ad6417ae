"""Contract vs. implementation: the AST scanner and FPT1xx checks."""

from repro.core import Module, RunReason
from repro.core.registry import ModuleRegistry
from repro.lint import (
    InputPortSpec,
    ModuleContract,
    ParamSpec,
    check_implementation,
    check_registry,
    contracts_for_registry,
    infer_contract,
    scan_module_class,
)


class WellBehaved(Module):
    type_name = "well_behaved"

    def init(self) -> None:
        self.out = self.ctx.create_output("result")
        self.window = self.ctx.param_int("window", 10)
        self.conn = self.ctx.input("input").single()
        self.ctx.trigger_after_updates(1)

    def run(self, reason: RunReason) -> None:
        pass


WELL_BEHAVED_CONTRACT = ModuleContract(
    type_name="well_behaved",
    params=(ParamSpec("window", "int"),),
    inputs=(InputPortSpec("input", max_connections=1),),
    outputs=("result",),
)


class Sneaky(Module):
    """Violates its (deliberately wrong) contract in every FPT1xx way."""

    type_name = "sneaky"

    def init(self) -> None:
        self.out = self.ctx.create_output("surprise")   # undeclared: FPT103
        self.k = self.ctx.param_int("k")                # undeclared: FPT101
        self.w = self.ctx.param_float("window", 1.0)    # contract says int: FPT106
        self.conn = self.ctx.input("side")              # undeclared: FPT105

    def run(self, reason: RunReason) -> None:
        pass


SNEAKY_CONTRACT = ModuleContract(
    type_name="sneaky",
    params=(
        ParamSpec("window", "int"),
        ParamSpec("ghost", "int"),                      # never read: FPT102
    ),
    inputs=(InputPortSpec("input"),),
    outputs=("result",),                                # never created: FPT104
)


class DynamicEverything(Module):
    """Computed names: every facet must be exempted, not flagged."""

    type_name = "dynamic_everything"

    def init(self) -> None:
        for name in self.names():
            self.ctx.create_output(name)
            self.ctx.param_float(name, 0.0)
        self.ctx.trigger_after_updates(self.ctx.connection_count)

    def run(self, reason: RunReason) -> None:
        for _name, group in self.ctx.inputs.items():
            group.pop_all()

    def names(self):
        return ["a", "b"]


class Base(Module):
    """A skeleton two module types share: the API calls live here."""

    def init(self) -> None:
        self.alarms = self.ctx.create_output("alarms")
        self.k = self.ctx.param_float("k", 3.0)
        self.configure()
        self.ctx.trigger_after_updates(1)

    def configure(self) -> None:
        self.ctx.create_output("never")  # every subclass overrides this

    def run(self, reason: RunReason) -> None:
        for node in self.nodes:  # a fleet loop on the inherited hot path
            pass


class Sub(Base):
    type_name = "sub"

    def configure(self) -> None:
        self.depth = self.ctx.param_int("depth")


class TestScan:
    def test_inherited_init_and_run_are_scanned(self):
        """``Sub`` defines neither ``init`` nor ``run``; what ``Base``
        does in them is what a ``[sub]`` instance does."""
        scan = scan_module_class(Sub)
        assert set(scan.outputs) == {"alarms"}  # not the shadowed "never"
        assert set(scan.params) == {"k", "depth"}
        assert scan.trigger_updates == 1
        assert scan.params["depth"][1] > 1 and scan.file.endswith(
            "test_implcheck.py"
        )
        contract = infer_contract(Sub)
        assert contract.outputs == ("alarms",)
        assert contract.param("depth").required
        assert not contract.param("k").required

    def test_scan_collects_literal_api_usage(self):
        scan = scan_module_class(WellBehaved)
        assert set(scan.outputs) == {"result"}
        assert set(scan.params) == {"window"}
        assert scan.params["window"][0] == {"int"}
        assert set(scan.inputs) == {"input"}
        assert scan.trigger_updates == 1
        assert not scan.dynamic_outputs

    def test_scan_marks_dynamic_facets(self):
        scan = scan_module_class(DynamicEverything)
        assert scan.dynamic_outputs
        assert scan.dynamic_params
        assert scan.reads_all_inputs
        assert scan.dynamic_trigger

    def test_scan_records_line_numbers_in_class_file(self):
        scan = scan_module_class(WellBehaved)
        assert scan.file.endswith("test_implcheck.py")
        assert scan.outputs["result"] > 1


class TestCheckImplementation:
    def test_clean_module_has_no_findings(self):
        assert check_implementation(WellBehaved, WELL_BEHAVED_CONTRACT) == []

    def test_every_fpt1xx_code_fires_on_sneaky(self):
        codes = {
            d.code for d in check_implementation(Sneaky, SNEAKY_CONTRACT)
        }
        assert codes == {
            "FPT101", "FPT102", "FPT103", "FPT104", "FPT105", "FPT106",
        }

    def test_dynamic_module_exempt_from_static_checks(self):
        contract = ModuleContract(type_name="dynamic_everything")
        assert check_implementation(DynamicEverything, contract) == []

    def test_findings_point_into_the_source_file(self):
        findings = check_implementation(Sneaky, SNEAKY_CONTRACT)
        located = [d for d in findings if d.line]
        assert located
        assert all(d.file.endswith("test_implcheck.py") for d in located)


class TestInference:
    def test_inferred_contract_mirrors_the_source(self):
        contract = infer_contract(WellBehaved)
        assert contract.inferred
        assert contract.outputs == ("result",)
        assert [p.name for p in contract.params] == ["window"]
        assert contract.param("window").type == "int"
        assert not contract.param("window").required  # has a default
        assert [p.name for p in contract.inputs] == ["input"]

    def test_param_without_default_is_required(self):
        contract = infer_contract(Sneaky)
        assert contract.param("k").required

    def test_dynamic_module_infers_opaque_contract(self):
        contract = infer_contract(DynamicEverything)
        assert contract.opaque_outputs
        assert contract.opaque_params
        assert contract.accepts_any_inputs

    def test_contracts_for_registry_mixes_declared_and_inferred(self):
        registry = ModuleRegistry()
        registry.register(WellBehaved)
        contracts = contracts_for_registry(registry)
        assert contracts.get("well_behaved").inferred
        assert not contracts.get("sadc").inferred  # declared, untouched


class TestStandardRegistry:
    def test_every_standard_module_matches_its_contract(self):
        assert check_registry() == []

"""Single-pass characterization is bit-exact.

The runner takes every sample from one ``run_session`` with the RTL
observer attached.  The reference energies are the regression targets,
so the single pass, ``Characterizer.add_program`` and the materialized
``estimate(result)`` replay must agree bit for bit — on every
characterization program and Table II application, with the
data-dependent walk on and off, at the reference operating point and
away from it.  A plain per-charge walk, written out below as the
oracle, pins the table-driven accumulator itself: every block and group
must receive the same float additions in the same order.
"""

import pytest

from repro.core import CharacterizationRunner, Characterizer, RunnerTask
from repro.isa import InstructionClass, hamming_distance
from repro.obs import run_session
from repro.programs import application_suite, characterization_suite
from repro.rtl import EVENT_ENERGY, RtlEnergyEstimator, generate_netlist, stable_unit_variation
from repro.rtl.blocks import (
    BLOCKS_BY_NAME,
    MULTIPLIER_MNEMONICS,
    SHIFTER_MNEMONICS,
    SPURIOUS_INPUT_STAGE_WEIGHT,
)

OPERATING_POINTS = (None, "65nm@1.1V@800MHz")
VARIANTS = [(dd, op) for dd in (True, False) for op in OPERATING_POINTS]
#: variants also walked by the oracle: each toggle mode and each scale once
ORACLE_VARIANTS = [(True, None), (False, "65nm@1.1V@800MHz")]
FLOOR = 0.55


def _toggle(previous, current, width=32):
    return FLOOR + (1.0 - FLOOR) * (hamming_distance(previous, current, width) / width)


def _per_charge_walk(est, trace):
    """The reference walk: one ``charge`` per block touch, in retire order."""
    config, netlist, scale = est.config, est.netlist, est.energy_scale
    blocks = BLOCKS_BY_NAME
    extensions = config.extension_index
    by_block = {name: 0.0 for name in blocks}
    for instance in netlist.custom_instances:
        by_block[instance.name] = 0.0
    by_block["tie_control"] = 0.0
    groups = dict.fromkeys(("base_core", "custom_hw", "events", "control", "idle"), 0.0)
    taps = [
        (name, est._instance_energy[name])
        for impl in config.extensions
        for name in impl.bus_tapped
    ]
    idle_per_cycle = sum(b.idle_energy for b in netlist.base_blocks) + sum(
        est._instance_idle.values()
    )
    mean = (FLOOR + 1.0) / 2.0
    toggle = _toggle if est.data_dependent else (lambda p, c, w=32: mean)
    latency = {d.mnemonic: d.latency for d in config.isa}
    prev = {"pc": 0, "alu": (0, 0), "mul": (0, 0), "shift": 0, "mem": 0, "bus": (0, 0)}
    prev_custom = {}

    def charge(block, amount, group):
        by_block[block] += amount * scale
        groups[group] += amount * scale

    for r in trace:
        ops, iclass, m = r.operands, r.iclass, r.mnemonic
        fetch = toggle(prev["pc"], r.addr)
        prev["pc"] = r.addr
        charge("fetch_unit", blocks["fetch_unit"].active_energy * fetch, "base_core")
        var = stable_unit_variation("decode/" + m, spread=0.06) if est.data_dependent else 1.0
        charge("instruction_decoder", blocks["instruction_decoder"].active_energy * var, "base_core")
        if not r.uncached_fetch:
            charge("icache", blocks["icache"].active_energy * fetch, "base_core")
        if extensions:
            charge("tie_control", netlist.control.decode_energy, "control")
        writes = r.result or iclass in (
            InstructionClass.ARITH, InstructionClass.LOAD, InstructionClass.CUSTOM
        )
        ports = len(ops) + (1 if writes else 0)
        port_factor = 0.55 + 0.15 * min(ports, 3)
        if ports:
            charge("register_file", blocks["register_file"].active_energy * port_factor, "base_core")
        if iclass is InstructionClass.ARITH:
            a = ops[0] if ops else 0
            b = ops[1] if len(ops) > 1 else r.result
            if m in SHIFTER_MNEMONICS and m not in MULTIPLIER_MNEMONICS:
                t = toggle(prev["shift"], a)
                prev["shift"] = a
                charge("base_shifter", blocks["base_shifter"].active_energy * t, "base_core")
            else:
                unit, block = ("mul", "base_multiplier") if m in MULTIPLIER_MNEMONICS else ("alu", "alu")
                t = (toggle(prev[unit][0], a) + toggle(prev[unit][1], b)) / 2.0
                prev[unit] = (a, b)
                charge(block, blocks[block].active_energy * t * latency[m], "base_core")
        elif iclass in (InstructionClass.LOAD, InstructionClass.STORE):
            t = toggle(prev["mem"], r.mem_addr or 0)
            prev["mem"] = r.mem_addr or 0
            charge("load_store_unit", blocks["load_store_unit"].active_energy * t, "base_core")
            charge("dcache", blocks["dcache"].active_energy * t, "base_core")
        elif iclass in (
            InstructionClass.JUMP, InstructionClass.BRANCH_TAKEN, InstructionClass.BRANCH_UNTAKEN
        ):
            charge("alu", blocks["alu"].active_energy * 0.6, "base_core")
            if iclass is not InstructionClass.BRANCH_UNTAKEN:
                charge("fetch_unit", blocks["fetch_unit"].active_energy * 0.8, "base_core")
        if iclass is InstructionClass.CUSTOM:
            impl = extensions[m]
            t = FLOOR + (1.0 - FLOOR) * 0.5
            if est.data_dependent and m in prev_custom and ops:
                widths = est._custom_widths.get(m, ()) or (32,) * len(ops)
                densities = [
                    hamming_distance(p, c, w) / w for p, c, w in zip(prev_custom[m], ops, widths)
                ]
                t = FLOOR + (1.0 - FLOOR) * (sum(densities) / len(densities))
            prev_custom[m] = ops
            for instance in impl.instances:
                active = len(impl.active_cycles[instance.name])
                if active:
                    charge(instance.name, est._instance_energy[instance.name] * t * active, "custom_hw")
            extra = impl.latency - 1
            if extra:
                charge(
                    "instruction_decoder",
                    blocks["instruction_decoder"].active_energy * var * extra,
                    "base_core",
                )
                if ports:
                    charge(
                        "register_file",
                        blocks["register_file"].active_energy * port_factor * extra,
                        "base_core",
                    )
            if impl.accesses_gpr:
                charge("tie_control", netlist.control.bypass_energy * impl.latency, "control")
        elif ops and taps:
            a, b = ops[0], (ops[1] if len(ops) > 1 else 0)
            t = (toggle(prev["bus"][0], a) + toggle(prev["bus"][1], b)) / 2.0
            prev["bus"] = (a, b)
            for name, nominal in taps:
                charge(name, nominal * SPURIOUS_INPUT_STAGE_WEIGHT * t, "custom_hw")
        for flag, kind, block in (
            (r.icache_miss, "icache_miss", "bus_interface"),
            (r.dcache_miss, "dcache_miss", "bus_interface"),
            (r.uncached_fetch, "uncached_fetch", "bus_interface"),
            (r.interlock, "interlock", "pipeline_control"),
        ):
            if flag:
                charge(block, EVENT_ENERGY[kind], "events")
        charge("pipeline_control", blocks["pipeline_control"].active_energy * r.cycles, "base_core")
        charge("clock_tree", blocks["clock_tree"].active_energy * r.cycles, "base_core")
        charge("clock_tree", idle_per_cycle * r.cycles, "idle")
    return by_block, groups


def _variant_id(variant):
    data_dependent, point = variant
    return f"{'data' if data_dependent else 'mean'}-{point or 'reference'}"


@pytest.fixture(scope="module")
def cases():
    return characterization_suite(include_variants=True) + application_suite()


@pytest.fixture(scope="module")
def reports(cases):
    """Per case: single-pass and replayed reports for every variant.

    One simulation carries an observer per variant; one traced
    simulation is replayed through ``estimate(result)`` per variant.
    """
    out = {}
    for case in cases:
        config, program = case.build()
        netlist = generate_netlist(config)
        estimators = {
            variant: RtlEnergyEstimator(
                netlist, data_dependent=variant[0], operating_point=variant[1]
            )
            for variant in VARIANTS
        }
        observers = {variant: est.observer() for variant, est in estimators.items()}
        run_session(
            config,
            program,
            observers=tuple(observers.values()),
            max_instructions=case.max_instructions,
        )
        traced = run_session(
            config, program, collect_trace=True, max_instructions=case.max_instructions
        )
        out[case.name] = {
            variant: (
                observers[variant].report,
                estimators[variant].estimate(traced),
                _per_charge_walk(estimators[variant], traced.trace)
                if variant in ORACLE_VARIANTS
                else None,
            )
            for variant in VARIANTS
        }
    return out


def _tasks(cases):
    return [RunnerTask.from_case(case) for case in cases]


@pytest.mark.parametrize("variant", VARIANTS, ids=_variant_id)
def test_single_pass_report_equals_replayed_trace(reports, variant):
    for name, by_variant in reports.items():
        streamed, replayed, _ = by_variant[variant]
        assert streamed.total == replayed.total, name
        assert streamed.by_block == replayed.by_block, name
        assert list(streamed.by_group.items()) == list(replayed.by_group.items()), name
        assert (streamed.cycles, streamed.instructions) == (
            replayed.cycles,
            replayed.instructions,
        ), name


@pytest.mark.parametrize("variant", ORACLE_VARIANTS, ids=_variant_id)
def test_accumulator_matches_per_charge_walk(reports, variant):
    for name, by_variant in reports.items():
        streamed, _, (by_block, groups) = by_variant[variant]
        assert streamed.by_block == by_block, name
        assert list(streamed.by_group.items()) == list(groups.items()), name


@pytest.mark.parametrize("point", OPERATING_POINTS, ids=lambda p: p or "reference")
def test_runner_energies_equal_add_program_and_replay(cases, point):
    runner = CharacterizationRunner(Characterizer(operating_point=point))
    report = runner.run(_tasks(cases), fit=False)
    assert report.ok
    assert [s.name for s in report.samples] == [case.name for case in cases]

    direct = Characterizer(operating_point=point)
    for case, runner_sample in zip(cases, report.samples):
        config, program = case.build()
        direct_sample = direct.add_program(
            config, program, max_instructions=case.max_instructions
        )
        # Replay through the estimator the runner used: the characterizer
        # shares one estimator between content-equal configs.
        traced = run_session(
            config, program, collect_trace=True, max_instructions=case.max_instructions
        )
        replayed = runner.characterizer._estimator_for(config).estimate(traced)
        name = case.name
        assert runner_sample.energy == direct_sample.energy == replayed.total, name
        assert (runner_sample.variables == direct_sample.variables).all(), name

"""The storage contract of packed quantized layers.

A packed layer holds only its levels; its float32 weight lives in the
process-wide, byte-budgeted dequantization memo.  These tests pin what a
quantized variant measurably holds, that the memo stays inside its budget
without changing any output, and that its accounting survives garbage
collection and concurrent callers.
"""

import copy
import gc
import pickle
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro import nn
from repro.core import (
    DequantizeMemo,
    PackedIntWeight,
    fp4_fp8_config,
    fp8_fp8_config,
    int4_int8_config,
    int8_int8_config,
    qmodules,
    quantize_pipeline,
    resident_nbytes,
)
from repro.core.formats import FPFormat
from repro.core.fp import quantize_fp
from repro.core.integer import (
    calibrate_int_format,
    calibrate_int_format_per_channel,
    quantize_int,
)
from repro.core.qmodules import QUANTIZED_LAYER_TYPES, FPTensorQuantizer
from repro.diffusion import DiffusionPipeline
from repro.models import DiffusionModel
from repro.obs import MetricsRegistry
from repro.serving import ModelVariantPool, ServingEngine, variant_cost_bytes
from repro.tensor import Tensor, inference_mode, use_backend

from tiny_factories import make_tiny_spec

CONFIGS = {
    "int8": int8_int8_config,
    "int4": int4_int8_config,
    "fp4": lambda: fp4_fp8_config(rounding_learning=False),
    "fp8": fp8_fp8_config,
}


@pytest.fixture(scope="module")
def fp32_pipeline():
    model = DiffusionModel(make_tiny_spec(), rng=np.random.default_rng(0))
    return DiffusionPipeline(model, num_steps=4)


@pytest.fixture
def fresh_memo(monkeypatch):
    """Route storages created from here on into a memo of their own, so a
    test sees only its own entries; ``budget_bytes`` may then be shrunk."""
    memo = DequantizeMemo(qmodules.DEQUANTIZE_MEMO_BUDGET_BYTES)
    monkeypatch.setattr(qmodules, "DEQUANTIZE_MEMO", memo)
    return memo


def quantize(pipeline, scheme):
    config = CONFIGS[scheme]().scaled_for_speed(num_bias_candidates=7)
    quantized, _report = quantize_pipeline(pipeline, config)
    return quantized


def packed_layers(model):
    return [module for module in model.modules()
            if isinstance(module, QUANTIZED_LAYER_TYPES)
            and module.packed_weight is not None]


def unet_forward(model, backend="reference"):
    x = np.random.default_rng(1).standard_normal((2, 3, 16, 16)).astype(np.float32)
    with inference_mode(), use_backend(backend):
        return model.unet(Tensor(x), np.array([3, 7])).data


def float_twin(model):
    """A copy whose packed layers hold their float weight as a parameter
    and no levels: the layout quantized layers had before packed-only
    storage, whose reference forward read that parameter."""
    twin = copy.deepcopy(model)
    for layer in packed_layers(twin):
        values = np.array(layer.packed_weight.dequantize())
        layer.packed_weight = None
        layer._parameters = {"weight": nn.Parameter(values, requires_grad=False),
                             **layer._parameters}
    return twin


@pytest.mark.parametrize("scheme,bound", [("int8", 0.30), ("int4", 0.17),
                                          ("fp4", 0.17), ("fp8", 1.0)])
def test_quantized_unet_holds_a_fraction_of_fp32_bytes(fp32_pipeline, fresh_memo,
                                                       scheme, bound):
    quantized = quantize(fp32_pipeline, scheme)
    ratio = (resident_nbytes(quantized.model.unet)
             / resident_nbytes(fp32_pipeline.model.unet))
    assert ratio <= bound
    if scheme != "fp8":
        layers = packed_layers(quantized.model)
        assert layers
        for layer in layers:
            assert "weight" not in layer._parameters
            assert not hasattr(layer, "original_weight")
    # quantizing (the FP4 packing check included) leaves the memo empty
    assert fresh_memo.stats()["nbytes"] == 0


def test_pickled_variant_ships_levels_only(fp32_pipeline):
    quantized = quantize(fp32_pipeline, "int8").model.unet
    fp32 = fp32_pipeline.model.unet
    # Pickle bytes beyond the arrays: module structure, formats, names.
    overhead = len(pickle.dumps(fp32)) - resident_nbytes(fp32)
    assert len(pickle.dumps(quantized)) < resident_nbytes(quantized) + 2 * overhead
    restored = pickle.loads(pickle.dumps(quantized))
    assert resident_nbytes(restored) == resident_nbytes(quantized)
    assert all("weight" not in layer._parameters for layer in packed_layers(restored))


def test_weight_surface_is_unchanged_by_packing(fp32_pipeline):
    quantized = quantize(fp32_pipeline, "int4")
    twin = float_twin(quantized.model)
    assert quantized.model.num_parameters() == fp32_pipeline.model.num_parameters()
    state, twin_state = quantized.model.state_dict(), twin.state_dict()
    assert list(state) == list(twin_state)
    for key, value in state.items():
        np.testing.assert_array_equal(value, twin_state[key], err_msg=key)


@pytest.mark.parametrize("scheme", ["int8", "int4", "fp4"])
def test_model_beyond_memo_budget_runs_bit_identically(fp32_pipeline, fresh_memo,
                                                       scheme):
    quantized = quantize(fp32_pipeline, scheme)
    layers = packed_layers(quantized.model)
    float_bytes = sum(4 * layer.packed_weight.num_elements for layer in layers)
    largest = max(4 * layer.packed_weight.num_elements for layer in layers)
    # Holds several layers, but neither the model nor its largest weight.
    fresh_memo.budget_bytes = min(float_bytes // 4, largest - 4)
    expected = unet_forward(float_twin(quantized.model))
    stored = []
    for _ in range(2):
        out = unet_forward(quantized.model)
        np.testing.assert_array_equal(out.view(np.uint32), expected.view(np.uint32))
        stats = fresh_memo.stats()
        assert 0 < stats["nbytes"] <= fresh_memo.budget_bytes
        assert 0 < stats["entries"] < len(layers)
        stored.append(dict(fresh_memo._entries))
    # The second forward hits the weights the first one stored.
    assert stored[0].keys() == stored[1].keys()
    assert all(stored[0][key] is stored[1][key] for key in stored[0])


def test_collected_variant_leaves_the_memo(fp32_pipeline, fresh_memo):
    quantized = quantize(fp32_pipeline, "int8")
    unet_forward(quantized.model)
    assert fresh_memo.stats()["entries"] == len(packed_layers(quantized.model))
    del quantized
    gc.collect()
    assert fresh_memo.stats()["nbytes"] == 0
    assert fresh_memo.stats()["entries"] == 0


def test_concurrent_dequantize_keeps_accounting_exact(fresh_memo):
    rng = np.random.default_rng(3)
    storages = []
    for index in range(24):
        values = rng.standard_normal((8 + index, 4 * (1 + index % 5))).astype(np.float32)
        fmt = (calibrate_int_format_per_channel(values, 8) if index % 3 == 0
               else calibrate_int_format(values, 4 if index % 2 else 8))
        storages.append(PackedIntWeight.pack(values, fmt))
    expected = [np.array(storage._dequantize_levels()) for storage in storages]
    fresh_memo.budget_bytes = sum(e.nbytes for e in expected) // 3
    calls = rng.integers(0, len(storages), size=2000)

    def work(index):
        storage = storages[index]
        if index % 7 == 0:
            storage.drop_dequantized()
        return np.array_equal(storage.dequantize(), expected[index])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads inside the memo's updates
    try:
        with ThreadPoolExecutor(max_workers=4) as executor:
            assert all(executor.map(work, calls, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    stats = fresh_memo.stats()
    assert stats["nbytes"] == sum(v.nbytes for v in fresh_memo._entries.values())
    assert stats["nbytes"] <= fresh_memo.budget_bytes
    for storage, values in zip(storages, expected):
        entry = fresh_memo._entries.get(storage._memo_key)
        assert entry is None or np.array_equal(entry, values)


def test_storage_keeps_the_memo_it_was_created_with(monkeypatch):
    weights = [np.linspace(-1, 1, 64, dtype=np.float32).reshape(8, 8) * scale
               for scale in (1.0, 2.0)]
    storages = []
    for values in weights:
        # Each memo numbers its keys from 0, so both storages get key 0.
        monkeypatch.setattr(qmodules, "DEQUANTIZE_MEMO",
                            DequantizeMemo(qmodules.DEQUANTIZE_MEMO_BUDGET_BYTES))
        storages.append(PackedIntWeight.pack(values, calibrate_int_format(values, 8)))
    newer, older = storages[1], storages[0]
    np.testing.assert_array_equal(newer.dequantize(), quantize_int(
        weights[1], newer.fmt))
    np.testing.assert_array_equal(older.dequantize(), quantize_int(
        weights[0], older.fmt))
    older.drop_dequantized()
    assert qmodules.DEQUANTIZE_MEMO.stats()["entries"] == 1


@pytest.mark.parametrize("bits", [8, 4, 2])
def test_dequantize_reproduces_the_simulation(fresh_memo, bits):
    weight = (np.random.default_rng(bits).standard_normal((64, 1023))
              * 0.05).astype(np.float32)
    fmt = calibrate_int_format(weight, bits)
    served = quantize_int(weight, fmt)
    storage = PackedIntWeight.pack(weight, fmt)
    np.testing.assert_array_equal(storage.dequantize().view(np.uint32),
                                  served.view(np.uint32))
    fp_fmt = FPFormat(1, 2, FPFormat.bias_for_max_value(1, 2, float(np.abs(weight).max())))
    fp_served = quantize_fp(weight, fp_fmt)
    fp_storage = FPTensorQuantizer(fp_fmt).pack_weights(fp_served)
    assert np.array_equal(fp_storage.dequantize(), fp_served)


def test_dequantized_weights_are_read_only(fresh_memo):
    values = np.linspace(-1, 1, 64, dtype=np.float32).reshape(8, 8)
    storage = PackedIntWeight.pack(values, calibrate_int_format(values, 8))
    with pytest.raises(ValueError):
        storage.dequantize()[0, 0] = 1.0


def test_fp4_packing_check_bypasses_the_memo(fresh_memo):
    fmt = FPFormat.from_name("E1M2")
    quantizer = FPTensorQuantizer(fmt)
    values = quantizer.quantize(
        np.random.default_rng(4).standard_normal((16, 8)).astype(np.float32))
    assert quantizer.pack_weights(values) is not None
    assert fresh_memo.stats() == DequantizeMemo(fresh_memo.budget_bytes).stats()


def test_pool_charges_measured_bytes_and_predicts_analytically(fp32_pipeline):
    variants = {"fp32": fp32_pipeline, "int4": quantize(fp32_pipeline, "int4")}
    pool = ModelVariantPool(builder=lambda _model, scheme: variants[scheme])
    metrics = MetricsRegistry()
    engine = ServingEngine(pool, metrics=metrics)
    for scheme in variants:
        pool.get("ddim-cifar10", scheme)
    engine.sync_component_stats()
    stats = pool.stats()
    measured = {scheme: resident_nbytes(variants[scheme].model) for scheme in variants}
    assert pool.resident_bytes == sum(measured.values())
    assert measured["int4"] < 0.3 * measured["fp32"]
    for scheme, nbytes in measured.items():
        meta = stats["variants"][f"ddim-cifar10/{scheme}"]
        assert meta["resident_nbytes"] == nbytes
        assert meta["predicted_bytes"] == variant_cost_bytes("ddim-cifar10", scheme)
        gauge = metrics.gauge("serving.variant_resident_bytes",
                              labels={"variant": f"ddim-cifar10/{scheme}"})
        assert gauge.snapshot()["value"] == nbytes
    assert "nbytes" in stats["dequantize_memo"]
    report = engine.stats.report()["components"]["variant_pool"]
    assert report["variants"] == stats["variants"]
    # A served variant is measured again: its first fused products build
    # the row arrays of the layers' GEMM views.
    int4 = variants["int4"].model
    for layer in packed_layers(int4):
        layer.packed_weight.packed_view()
    assert resident_nbytes(int4) > measured["int4"]
    pool.get("ddim-cifar10", "int4")
    engine.sync_component_stats()
    meta = pool.stats()["variants"]["ddim-cifar10/int4"]
    assert meta["resident_nbytes"] == resident_nbytes(int4)
    assert pool.resident_bytes == measured["fp32"] + resident_nbytes(int4)

import numpy as np
import pytest

from normmatch.params import ParameterStore


def test_register_and_lookup():
    store = ParameterStore()
    v = store.register("w", np.ones((2, 3)))
    assert v.shape == (2, 3)
    assert store.value("w").dtype == np.float64
    assert store.grad("w").shape == (2, 3)
    assert np.all(store.grad("w") == 0.0)
    assert store.names() == ["w"]


def test_duplicate_registration_rejected():
    store = ParameterStore()
    store.register("w", np.zeros(2))
    with pytest.raises(ValueError):
        store.register("w", np.zeros(2))


def test_gradients_accumulate_additively():
    store = ParameterStore()
    store.register("w", np.zeros(3))
    store.add_grad("w", np.array([1.0, 2.0, 3.0]))
    store.add_grad("w", np.array([1.0, 1.0, 1.0]))
    np.testing.assert_array_equal(store.grad("w"), [2.0, 3.0, 4.0])
    store.zero_grads()
    np.testing.assert_array_equal(store.grad("w"), [0.0, 0.0, 0.0])


def test_gradient_shape_must_match_value():
    store = ParameterStore()
    store.register("w", np.zeros((2, 2)))
    with pytest.raises(ValueError):
        store.add_grad("w", np.zeros(3))
    with pytest.raises(ValueError):
        store.set_value("w", np.zeros(3))


def test_iteration_order_is_registration_order():
    store = ParameterStore()
    for name in ("b", "a", "c"):
        store.register(name, np.zeros(1))
    assert store.names() == ["b", "a", "c"]
    store.set_trainable("a", False)
    assert store.trainable_names() == ["b", "c"]


def test_set_value_preserves_views():
    store = ParameterStore()
    view = store.register("w", np.zeros(2))
    store.set_value("w", np.array([5.0, 6.0]))
    np.testing.assert_array_equal(view, [5.0, 6.0])


def test_quantize_float32_is_idempotent():
    store = ParameterStore()
    store.register("w", np.array([1.0 / 3.0, np.pi]))
    store.quantize_float32()
    once = store.value("w").copy()
    store.quantize_float32()
    np.testing.assert_array_equal(store.value("w"), once)
    # quantized values survive an f32 round trip exactly
    np.testing.assert_array_equal(once.astype(np.float32).astype(np.float64), once)


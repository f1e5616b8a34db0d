import pytest


def _parameter_bytes(net):
    tensors = [t for r in net.rbm_layers for t in (r.weights, r.visible_bias, r.hidden_bias)]
    return net.class_labels, [t.tobytes() for t in tensors + [net.translation_w, net.translation_b]]


@pytest.fixture
def models_equal():
    """Bit-exact parameter equality of two networks."""
    return lambda a, b: _parameter_bytes(a) == _parameter_bytes(b)

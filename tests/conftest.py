import resource

import pytest


def _parameter_bytes(net):
    tensors = [t for r in net.rbm_layers for t in (r.weights, r.visible_bias, r.hidden_bias)]
    return net.class_labels, [t.tobytes() for t in tensors + [net.translation_w, net.translation_b]]


@pytest.fixture
def models_equal():
    """Bit-exact parameter equality of two networks."""
    return lambda a, b: _parameter_bytes(a) == _parameter_bytes(b)


def pytest_terminal_summary(terminalreporter):
    """Log the session's peak RSS (Linux reports ``ru_maxrss`` in KiB); it gates nothing."""
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    terminalreporter.write_line(f"peak RSS of the test process: {peak_mb:.1f} MB")

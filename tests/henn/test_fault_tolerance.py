"""End-to-end fault tolerance: the ISSUE's acceptance scenarios.

A tiny trained CNN1 runs through the Fig. 5 hybrid engine / Fig. 1
protocol while the seeded :class:`FaultInjector` corrupts residue
channels, kills pool workers, and perturbs ciphertext scales.  Each
scenario asserts (a) the classification survives with logits matching
the fault-free run, and (b) the corresponding ``resilience.*`` counters
fired — detection must be observable, not incidental.
"""

import numpy as np
import pytest

from repro.henn.architectures import build_cnn1
from repro.henn.backend import MockBackend
from repro.henn.compiler import compile_model, model_depth, slafify
from repro.henn.hybrid import HybridRnsEngine
from repro.henn.protocol import Client, CloudService, ServiceError
from repro.nn import TrainConfig, Trainer
from repro.obs.metrics import get_registry
from repro.resilience import ChannelIntegrityError, FaultInjector, ProtocolError

pytestmark = pytest.mark.faults


@pytest.fixture(scope="module")
def setup():
    rng = np.random.default_rng(0)
    x = rng.uniform(0, 1, (400, 1, 12, 12))
    y = rng.integers(0, 10, 400)
    model = build_cnn1(variant="tiny", seed=0)
    Trainer(model, TrainConfig(epochs=2, batch_size=32, max_lr=0.05, seed=0)).fit(x, y)
    slaf = slafify(model, x, y, epochs=1, seed=0)
    layers = compile_model(slaf)
    return slaf, layers, x, y


def _mock(layers, injector=None):
    return MockBackend(batch=8, levels=model_depth(layers) + 1, fault_injector=injector)


@pytest.fixture(scope="module")
def clean_logits(setup):
    _, layers, x, _ = setup
    engine = HybridRnsEngine(_mock(layers), layers, (1, 12, 12), k_moduli=3, redundancy=2)
    return engine.classify(x[:8])


K_WORK = 5  # 3 data + 2 redundant channels


@pytest.mark.parametrize("channel", range(K_WORK))
def test_any_single_corrupted_channel_recovered(setup, clean_logits, channel):
    """Corrupting *any* one residue channel of the CNN1 conv stage is
    detected and corrected; logits equal the fault-free run exactly
    (the conv stage is integer-exact, so recovery leaves no residue)."""
    _, layers, x, _ = setup
    reg = get_registry()
    rec0 = reg.counter("resilience.channel_recoveries").value
    inj = FaultInjector(seed=channel).corrupt_channel(channel=channel, times=1)
    engine = HybridRnsEngine(
        _mock(layers), layers, (1, 12, 12), k_moduli=3, redundancy=2, fault_injector=inj
    )
    logits = engine.classify(x[:8])
    assert engine.last_faults == [channel]
    assert np.allclose(logits, clean_logits, atol=1e-9)
    assert inj.summary() == {"channel.corrupt": 1}
    assert reg.counter("resilience.channel_recoveries").value > rec0


def test_dropped_channel_recovered(setup, clean_logits):
    _, layers, x, _ = setup
    inj = FaultInjector(seed=5).corrupt_channel(channel=2, times=1, drop=True)
    engine = HybridRnsEngine(
        _mock(layers), layers, (1, 12, 12), k_moduli=3, redundancy=1, fault_injector=inj
    )
    logits = engine.classify(x[:8])
    assert engine.last_faults == [2]
    assert np.allclose(logits, clean_logits, atol=1e-9)


def test_unrecoverable_corruption_is_typed(setup):
    """Without redundancy, a dropped channel raises ChannelIntegrityError
    instead of composing garbage."""
    _, layers, x, _ = setup
    inj = FaultInjector(seed=6).corrupt_channel(channel=0, times=1, drop=True)
    engine = HybridRnsEngine(
        _mock(layers), layers, (1, 12, 12), k_moduli=3, fault_injector=inj
    )
    with pytest.raises(ChannelIntegrityError):
        engine.classify(x[:8])


def test_protocol_retry_after_scale_fault(setup):
    """A mis-tracked ciphertext scale mid-inference becomes a structured,
    retryable error; the client's second attempt (fault budget spent)
    succeeds with correct logits."""
    slaf, layers, x, _ = setup
    reg = get_registry()
    retries0 = reg.counter("resilience.protocol_retries").value
    inj = FaultInjector(seed=9).perturb_scale(factor=1.7, times=1)
    backend = _mock(layers, injector=inj)
    client = Client(backend, (1, 12, 12))
    cloud = CloudService(backend, layers, (1, 12, 12))
    logits = client.classify_with_retry(cloud, x[:4], max_attempts=3)
    want = Trainer(slaf).predict(x[:4])
    assert np.array_equal(logits.argmax(1), want.argmax(1))
    assert reg.counter("resilience.protocol_retries").value == retries0 + 1
    assert inj.summary() == {"scale.perturb": 1}


class _BrokenCloud:
    """Stub cloud that always answers with one fixed sanitised error."""

    def __init__(self, error: ServiceError):
        self.error = error
        self.calls = 0

    def try_classify(self, enc):
        from repro.henn.protocol import CloudResponse

        self.calls += 1
        return CloudResponse(ok=False, error=self.error)


def test_protocol_exhaustion_raises_sanitized(setup):
    """A persistently failing cloud exhausts the retry budget; the raised
    ProtocolError carries only the sanitised error."""
    _, layers, x, _ = setup
    client = Client(_mock(layers), (1, 12, 12))
    cloud = _BrokenCloud(
        ServiceError("ValueError", "state", True, "ciphertext bookkeeping rejected the request")
    )
    with pytest.raises(ProtocolError) as ei:
        client.classify_with_retry(cloud, x[:4], max_attempts=2)
    assert ei.value.attempts == 2
    assert cloud.calls == 2
    assert ei.value.error.category == "state"


def test_protocol_nonretryable_fails_fast(setup):
    _, layers, x, _ = setup
    client = Client(_mock(layers), (1, 12, 12))
    cloud = _BrokenCloud(
        ServiceError("RuntimeError", "internal", False, "internal evaluation failure")
    )
    with pytest.raises(ProtocolError) as ei:
        client.classify_with_retry(cloud, x[:4], max_attempts=3)
    assert ei.value.attempts == 1
    assert cloud.calls == 1


def _leaks_payload(err: ServiceError, x: np.ndarray) -> bool:
    """No field of the error may embed a payload-derived number."""
    text = f"{err.code} {err.category} {err.detail}"
    probes = [f"{float(v):.3f}"[:5] for v in x.reshape(-1)[:16]]
    return any(p in text for p in probes)


def test_error_responses_leak_no_plaintext(setup):
    """Trust boundary under fault paths: the sanitised error carries only
    a fixed vocabulary — no exception args, no slot values, no scales."""
    _, layers, x, _ = setup
    inj = FaultInjector(seed=11).perturb_scale(factor=1.7, times=99)
    backend = _mock(layers, injector=inj)
    cloud = CloudService(backend, layers, (1, 12, 12))
    client = Client(backend, (1, 12, 12))
    response = cloud.try_classify(client.encrypt_request(x[:4]))
    assert not response.ok
    err = response.error
    assert err.detail in {
        "residue channel check failed beyond recovery",
        "evaluation resources exhausted",
        "ciphertext bookkeeping rejected the request",
        "internal evaluation failure",
    }
    assert not _leaks_payload(err, x[:4])
    # The cloud side still holds no secret material, even mid-fault.
    assert not hasattr(cloud, "sk")
    assert not any("sk" in attr for attr in vars(cloud))
    assert not any("sk" in attr for attr in vars(cloud.engine))


def test_sanitizer_vocabulary():
    from repro.henn.protocol import _sanitize

    secret = "secret-value-3.14159"
    cases = [
        (ChannelIntegrityError(secret), "integrity", True),
        (ValueError(secret), "state", True),
        (RuntimeError(secret), "internal", False),
    ]
    for exc, category, retryable in cases:
        err = _sanitize(exc)
        assert err.category == category
        assert err.retryable is retryable
        assert secret not in err.detail and secret not in err.code

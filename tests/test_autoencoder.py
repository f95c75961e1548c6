import hashlib
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import dekm.autoencoder as ae
from dekm import core, data
from dekm.core import DekmConfig, run_dekm
from dekm.errors import ConfigurationError, DimensionError, DivergenceError, FormatError

from conftest import finite_difference_grads, max_gradient_rel_error, relu_pattern


def test_xavier_bounds_and_zero_bias():
    m = ae.xavier_init([4, 2], seed=0)
    limit = np.sqrt(6.0 / 6.0)
    assert np.all(np.abs(m.enc_w[0]) <= limit)
    assert np.all(m.enc_b[0] == 0.0)
    assert np.all(m.dec_b[0] == 0.0)


def test_xavier_deterministic():
    m1 = ae.xavier_init([7, 5, 3], seed=42)
    m2 = ae.xavier_init([7, 5, 3], seed=42)
    for a, b in zip(m1.all_params(), m2.all_params()):
        assert np.array_equal(a, b)


def test_paper_architecture_shapes():
    m = ae.xavier_init([784, 500, 500, 2000, 10], seed=1)
    assert [w.shape for w in m.enc_w] == [(784, 500), (500, 500), (500, 2000), (2000, 10)]
    assert [w.shape for w in m.dec_w] == [(10, 2000), (2000, 500), (500, 500), (500, 784)]
    assert m.dims[::-1] == [10, 2000, 500, 500, 784]


def test_xavier_rejects_bad_dims():
    with pytest.raises(ConfigurationError):
        ae.xavier_init([4], seed=0)
    with pytest.raises(ConfigurationError):
        ae.xavier_init([4, 0, 2], seed=0)


def test_encode_zero_network():
    m = ae.xavier_init([3, 2], seed=0)
    m.enc_w[0][:] = 0.0
    assert np.array_equal(ae.encode(m, np.ones((4, 3))), np.zeros((4, 2)))


def test_encode_single_linear_layer(rng):
    m = ae.xavier_init([3, 2], seed=5)
    x = rng.normal(size=(6, 3))
    assert np.allclose(ae.encode(m, x), x @ m.enc_w[0] + m.enc_b[0], atol=0, rtol=0)


def test_encode_matches_hand_rolled_forward(rng):
    m = ae.xavier_init([4, 6, 5, 3], seed=9)
    x = rng.normal(size=(7, 4))
    a = x
    for i in range(3):
        z = a @ m.enc_w[i] + m.enc_b[i]
        a = np.maximum(z, 0.0) if i < 2 else z
    assert np.max(np.abs(ae.encode(m, x) - a)) < 1e-12


def test_encode_shape_error():
    m = ae.xavier_init([4, 2], seed=0)
    with pytest.raises(DimensionError):
        ae.encode(m, np.zeros((3, 5)))


def test_reconstruction_loss_zero_network():
    m = ae.xavier_init([5, 3], seed=0)
    for p in m.all_params():
        p[:] = 0.0
    # zero network reconstructs zero, loss = ||x||^2 = d for x = ones
    assert ae.reconstruction_loss(m, np.ones((1, 5))) == pytest.approx(5.0)


def test_reconstruction_loss_direct_recompute(rng):
    m = ae.xavier_init([4, 3, 2], seed=7)
    x = rng.normal(size=(5, 4))
    direct = float(np.sum((x - ae.decode(m, ae.encode(m, x))) ** 2))
    assert ae.reconstruction_loss(m, x) == pytest.approx(direct, rel=1e-14)


def test_backprop_zero_loss_point():
    # identity-capable net at its optimum: single linear layer pair, weights
    # identity, reconstruction is exact and all gradients vanish
    m = ae.xavier_init([3, 3], seed=0)
    m.enc_w[0][:] = np.eye(3)
    m.dec_w[0][:] = np.eye(3)
    x = np.random.default_rng(0).normal(size=(4, 3))
    grads, loss = ae.backprop_reconstruction(m, x)
    assert loss == pytest.approx(0.0, abs=1e-20)
    for g in grads:
        assert np.allclose(g, 0.0, atol=1e-12)


def test_backprop_linear_closed_form(rng):
    # one linear encoder layer, embedding targets: grad_W = 2 x^T (xW + b - t)
    m = ae.xavier_init([3, 2], seed=11)
    x = rng.normal(size=(5, 3))
    t = rng.normal(size=(5, 2))
    grads, _ = ae.backprop_embedding(m, x, t)
    resid = x @ m.enc_w[0] + m.enc_b[0] - t
    assert np.allclose(grads[0], 2.0 * x.T @ resid)
    assert np.allclose(grads[1], 2.0 * resid.sum(axis=0))


@pytest.mark.parametrize("seed", range(5))
def test_backprop_reconstruction_finite_differences(seed):
    rng = np.random.default_rng(seed)
    dims = [int(rng.integers(2, 8)) for _ in range(rng.integers(2, 4))]
    m = ae.xavier_init(dims, seed=seed)
    x = rng.normal(size=(int(rng.integers(2, 16)), dims[0]))
    grads, loss = ae.backprop_reconstruction(m, x)
    fd = finite_difference_grads(
        lambda: ae.reconstruction_loss(m, x),
        m.all_params(),
        pattern_fn=lambda: relu_pattern(m, x),
    )
    assert max_gradient_rel_error(grads, fd, loss) < 1e-4


@pytest.mark.parametrize("seed", range(5))
def test_backprop_embedding_finite_differences(seed):
    rng = np.random.default_rng(100 + seed)
    dims = [int(rng.integers(2, 8)) for _ in range(rng.integers(2, 4))]
    m = ae.xavier_init(dims, seed=seed)
    x = rng.normal(size=(int(rng.integers(2, 16)), dims[0]))
    t = rng.normal(size=(x.shape[0], dims[-1]))

    def loss_fn():
        d = ae.encode(m, x) - t
        return float(np.sum(d * d))

    grads, loss = ae.backprop_embedding(m, x, t)
    fd = finite_difference_grads(
        loss_fn, m.encoder_params(), pattern_fn=lambda: relu_pattern(m, x, encoder_only=True)
    )
    assert max_gradient_rel_error(grads, fd, loss) < 1e-4


def test_adam_zero_gradient_keeps_params():
    m = ae.xavier_init([3, 2], seed=0)
    params = m.encoder_params()
    before = [p.copy() for p in params]
    state = ae.AdamState.for_params(params)
    ae.adam_step(params, [np.zeros_like(p) for p in params], state)
    for p, b in zip(params, before):
        assert np.array_equal(p, b)
    assert state.t == 1


def test_adam_first_step_is_signed_lr():
    p = [np.array([1.0, -2.0, 0.5])]
    g = [np.array([0.3, -4.0, 1e-3])]
    state = ae.AdamState.for_params(p, lr=0.01, eps=1e-12)
    ae.adam_step(p, g, state)
    # bias-corrected first step: p -= lr * g / |g| to within eps
    assert np.allclose(p[0], [1.0 - 0.01, -2.0 + 0.01, 0.5 - 0.01], atol=1e-8)


def test_adam_matches_scalar_reference_trace():
    # three steps on f(w) = w^2 from w = 1, checked against a hand-rolled
    # scalar Adam
    w = np.array([1.0])
    state = ae.AdamState.for_params([w], lr=0.1)
    m = v = 0.0
    ref = 1.0
    for t in range(1, 4):
        g = 2.0 * w[0]
        gr = 2.0 * ref
        ae.adam_step([w], [np.array([g])], state)
        m = 0.9 * m + 0.1 * gr
        v = 0.999 * v + 0.001 * gr * gr
        ref -= 0.1 * (m / (1 - 0.9**t)) / (np.sqrt(v / (1 - 0.999**t)) + 1e-8)
        assert w[0] == pytest.approx(ref, rel=1e-12)


def test_pretrain_zero_epochs_is_identity(rng):
    m = ae.xavier_init([6, 4, 2], seed=3)
    before = [p.copy() for p in m.all_params()]
    m, losses = ae.pretrain(m, rng.normal(size=(10, 6)), epochs=0, seed=0)
    assert losses == []
    for p, b in zip(m.all_params(), before):
        assert np.array_equal(p, b)


def test_pretrain_reduces_loss_on_linear_fixture():
    # data on a 2-D linear subspace of R^6 is compressible to 2 dims
    rng = np.random.default_rng(0)
    z = rng.normal(size=(64, 2))
    x = z @ rng.normal(size=(2, 6))
    m = ae.xavier_init([6, 4, 2], seed=0)
    initial = ae.reconstruction_loss(m, x)
    m, losses = ae.pretrain(m, x, epochs=500, batch_size=16, seed=0)
    assert losses[-1] < 0.1 * initial
    assert all(np.isfinite(v) for v in losses)
    # allow SGD noise in at most 10% of epochs
    increases = sum(1 for a, b in zip(losses, losses[1:]) if b > a)
    assert increases <= 0.1 * len(losses)


def test_pretrain_deterministic(rng):
    x = rng.normal(size=(20, 5))
    runs = []
    for _ in range(2):
        m = ae.xavier_init([5, 3, 2], seed=1)
        m, _ = ae.pretrain(m, x, epochs=5, batch_size=8, seed=9)
        runs.append([p.copy() for p in m.all_params()])
    for a, b in zip(*runs):
        assert np.array_equal(a, b)


def test_pretrain_divergence_error():
    m = ae.xavier_init([3, 2], seed=0)
    m.enc_w[0][:] = np.inf
    with np.errstate(invalid="ignore"), pytest.raises(DivergenceError):
        ae.pretrain(m, np.ones((4, 3)), epochs=1, seed=0)


def test_checkpoint_roundtrip_bit_exact(tmp_path, rng):
    m = ae.xavier_init([5, 4, 3], seed=8)
    m, _ = ae.pretrain(m, rng.normal(size=(12, 5)), epochs=2, seed=0)
    path = tmp_path / "ckpt.json"
    ae.save_checkpoint(path, m, meta={"seed": 8})
    loaded, meta = ae.load_checkpoint(path)
    assert meta == {"seed": 8}
    assert loaded.dims == m.dims
    for a, b in zip(m.all_params(), loaded.all_params()):
        assert np.array_equal(a, b)


@st.composite
def _models(draw):
    dims = draw(st.lists(st.integers(1, 5), min_size=2, max_size=4))
    size = ae.xavier_init(dims, seed=0).flat.size
    finite = st.floats(allow_nan=False, allow_infinity=False)  # subnormals and -0.0 too
    return ae.AutoencoderModel(dims, draw(arrays(np.float64, size, elements=finite)))


@settings(max_examples=50, deadline=None)
@given(m=_models(), meta=st.dictionaries(st.text(), st.integers() | st.text(), max_size=3))
def test_checkpoint_roundtrip_property(m, meta):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ck.json"
        ae.save_checkpoint(path, m, meta=meta)
        loaded, loaded_meta = ae.load_checkpoint(path)
    assert loaded.dims == m.dims and loaded_meta == meta
    assert loaded.flat.tobytes() == m.flat.tobytes()
    _assert_packed(loaded)


def test_checkpoint_version_check(tmp_path):
    path = tmp_path / "ckpt.json"
    path.write_text('{"version": 999}')
    with pytest.raises(FormatError):
        ae.load_checkpoint(path)


def _assert_packed(m):
    # every parameter is a view at its own offset of one flat float64 vector,
    # in all_params() order, and the encoder's parameters are its prefix
    assert m.flat.dtype == np.float64 and m.flat.ndim == 1 and m.flat.flags.c_contiguous
    base = m.flat.__array_interface__["data"][0]
    offset = 0
    for p in m.all_params():
        assert p.flags.c_contiguous and np.shares_memory(p, m.flat)
        assert p.__array_interface__["data"][0] == base + 8 * offset
        offset += p.size
    assert offset == m.flat.size
    assert m.encoder_flat.__array_interface__["data"][0] == base
    assert m.encoder_flat.size == sum(p.size for p in m.encoder_params())


def test_views_and_flat_vector_alias():
    m = ae.xavier_init([5, 4, 3], seed=2)
    m.enc_w[1][2, 1] = 7.5
    assert m.flat[5 * 4 + 2 * 3 + 1] == 7.5
    m.flat[-1] = -3.0
    assert m.dec_b[-1][-1] == -3.0
    m.encoder_flat[5 * 4 + 4 * 3] = 2.0  # first encoder bias
    assert m.enc_b[0][0] == 2.0
    assert m.encoder_flat.size == sum(p.size for p in m.encoder_params())


def test_copy_shares_no_memory():
    m = ae.xavier_init([6, 5, 2], seed=3)
    c = m.copy()
    _assert_packed(c)
    assert np.array_equal(c.flat, m.flat)
    assert not np.shares_memory(c.flat, m.flat)
    c.enc_w[0][0, 0] += 1.0
    assert c.enc_w[0][0, 0] != m.enc_w[0][0, 0]


def test_models_are_packed(tmp_path):
    m = ae.xavier_init([7, 5, 4, 3], seed=4)
    _assert_packed(m)
    ae.save_checkpoint(tmp_path / "ck.json", m)
    loaded, _ = ae.load_checkpoint(tmp_path / "ck.json")
    _assert_packed(loaded)


def test_model_rejects_a_mis_sized_or_strided_vector():
    with pytest.raises(DimensionError):
        ae.AutoencoderModel([3, 2], np.zeros(12))
    with pytest.raises(DimensionError):
        ae.AutoencoderModel([3, 2], np.zeros(2 * 17)[::2])


def test_pretrain_and_representation_step_pass_adam_one_array(monkeypatch, rng):
    calls = []
    real = ae.adam_step

    def counting(params, grads, state):
        calls.append((len(params), len(grads)))
        return real(params, grads, state)

    monkeypatch.setattr(ae, "adam_step", counting)
    m = ae.xavier_init([6, 5, 3], seed=1)
    x = rng.normal(size=(20, 6))
    ae.pretrain(m, x, epochs=2, batch_size=8, seed=0)
    assert calls == [(1, 1)] * 6
    calls.clear()
    adam = ae.AdamState.for_params([m.encoder_flat])
    core.representation_step(m, x, rng.normal(size=(20, 3)), adam)
    assert calls == [(1, 1)]


# Out-of-place reference numerics: the textbook expressions that the chunked
# in-place Adam and the single-buffer layers must reproduce bit for bit.


def _textbook_adam_step(params, grads, state):
    state.t += 1
    b1t = 1.0 - state.beta1 ** state.t
    b2t = 1.0 - state.beta2 ** state.t
    for p, g, m, v in zip(params, grads, state.m, state.v):
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * (g * g)
        p -= state.lr * (m / b1t) / (np.sqrt(v / b2t) + state.eps)
    return params, state


def _textbook_forward(ws, bs, x):
    acts = [x]
    for i, (w, b) in enumerate(zip(ws, bs)):
        z = acts[-1] @ w + b
        acts.append(z if i == len(ws) - 1 else np.maximum(z, 0.0))
    return acts


def _textbook_backward(ws, acts, delta):
    gw, gb = [None] * len(ws), [None] * len(ws)
    for i in range(len(ws) - 1, -1, -1):
        if i != len(ws) - 1:
            delta = (delta @ ws[i + 1].T) * (acts[i + 1] > 0.0)
        gw[i] = acts[i].T @ delta
        gb[i] = delta.sum(axis=0)
    return gw, gb, delta


def _textbook_backward_into(ws, acts, delta, gw_out, gb_out):
    # the out-of-place reference, copied into the gradient buffer's views
    gw, gb, delta = _textbook_backward(ws, acts, delta)
    for out, g in zip(gw_out + gb_out, gw + gb):
        out[...] = g
    return delta


def _use_textbook_numerics(monkeypatch):
    monkeypatch.setattr(ae, "adam_step", _textbook_adam_step)
    monkeypatch.setattr(ae, "_forward", _textbook_forward)
    monkeypatch.setattr(ae, "_output", lambda ws, bs, x: _textbook_forward(ws, bs, x)[-1])
    monkeypatch.setattr(ae, "_backward", _textbook_backward_into)


def test_adam_step_matches_textbook_formula_bit_for_bit():
    rng = np.random.default_rng(4)
    # one parameter spans three chunks (the last one partial), one is a scalar
    shapes = [(3 * ae.ADAM_CHUNK // 100 + 7, 100), (1,), (5, 3)]
    assert shapes[0][0] * shapes[0][1] > 2 * ae.ADAM_CHUNK
    params = [rng.normal(size=s) for s in shapes]
    ref = [p.copy() for p in params]
    state = ae.AdamState.for_params(params, lr=0.01)
    ref_state = ae.AdamState.for_params(ref, lr=0.01)
    for _ in range(5):
        grads = [rng.normal(size=s) for s in shapes]
        ae.adam_step(params, grads, state)
        _textbook_adam_step(ref, grads, ref_state)
    assert state.t == ref_state.t == 5
    for got, want in zip(params + state.m + state.v, ref + ref_state.m + ref_state.v):
        assert np.array_equal(got, want)


def test_adam_rejects_non_contiguous_params_and_moments():
    # a flat view of a strided array is a copy, so its update would be lost
    strided = np.zeros((4, 6))[:, ::2]
    p, g = np.zeros((4, 3)), np.ones((4, 3))
    state = ae.AdamState.for_params([p])
    with pytest.raises(DimensionError, match="contiguous"):
        ae.adam_step([strided], [g], state)
    state.v = [np.zeros((3, 4)).T]
    with pytest.raises(DimensionError, match="contiguous"):
        ae.adam_step([p], [g], state)
    assert state.t == 0
    with pytest.raises(DimensionError):
        ae.adam_step([p], [np.ones((3, 4))], ae.AdamState.for_params([p]))


def test_encode_and_backprop_match_textbook_formula_bit_for_bit(rng):
    m = ae.xavier_init([6, 9, 7, 3], seed=12)
    x = rng.normal(size=(11, 6))
    t = rng.normal(size=(11, 3))
    enc = _textbook_forward(m.enc_w, m.enc_b, x)
    assert np.array_equal(ae.encode(m, x), enc[-1])
    dec = _textbook_forward(m.dec_w, m.dec_b, enc[-1])
    assert np.array_equal(ae.decode(m, enc[-1]), dec[-1])

    grads, _ = ae.backprop_embedding(m, x, t)
    gw, gb, _ = _textbook_backward(m.enc_w, enc, 2.0 * (enc[-1] - t))
    for got, want in zip(grads, gw + gb):
        assert np.array_equal(got, want)

    grads, _ = ae.backprop_reconstruction(m, x)
    dgw, dgb, dz0 = _textbook_backward(m.dec_w, dec, 2.0 * (dec[-1] - x))
    egw, egb, _ = _textbook_backward(m.enc_w, enc, dz0 @ m.dec_w[0].T)
    for got, want in zip(grads, egw + egb + dgw + dgb):
        assert np.array_equal(got, want)


def _sha256(arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _pretrain_and_cluster(monkeypatch):
    # enc_w[0] and dec_w[-1] have 38400 entries, more than one Adam chunk
    ds = data.gen_synthetic(
        k=4, per_cluster_n=50, latent_dim=2, ambient_dim=64, separation=5.0, seed=31
    )
    m = ae.xavier_init([64, 600, 4], seed=5)
    m, losses = ae.pretrain(m, ds.x, epochs=3, batch_size=64, seed=2)
    pretrained = [p.copy() for p in m.all_params()]
    # run_dekm starts its own Adam state; capture it through whichever
    # adam_step is installed (the chunked one or the textbook reference)
    states = []
    step = ae.adam_step

    def capturing(params, grads, state):
        states.append(state)
        return step(params, grads, state)

    monkeypatch.setattr(ae, "adam_step", capturing)
    cfg = DekmConfig(k=4, max_outer_iters=3, inner_batch_size=64, seed=3)
    result, m, _ = run_dekm(m, ds.x, cfg)
    monkeypatch.setattr(ae, "adam_step", step)
    adam = states[0]
    assert all(s is adam for s in states)
    return pretrained, losses, m.encoder_params(), adam, result.assignments


def test_pretrain_and_run_dekm_are_pinned(monkeypatch):
    # Digests recorded with the out-of-place numerics; the encoder and Adam
    # digest re-recorded when last_dim_Y targets began to be built in the
    # embedding space (ulp-level change). The GEMM summation
    # order belongs to the BLAS kernel, so they hold for the BLAS build they
    # were recorded with (OpenBLAS, x86-64); the next test checks the same
    # property on any BLAS.
    pretrained, losses, enc, adam, assignments = _pretrain_and_cluster(monkeypatch)
    assert _sha256(pretrained) == (
        "6c718efa1d80f132a6e7fc736a454c07f9eb559ecbd104da6ee2e0e1b13850e0"
    )
    assert _sha256([np.array(losses)]) == (
        "51a2a48b34cf643027132163b32710f47d4642d2d44d375cc014f19585221a39"
    )
    assert adam.t == 12
    assert _sha256(enc + adam.m + adam.v) == (
        "d24cd6a6a5cc0da633388bc34fff4b6c244054cafc24e442f1f0f6c225e33ce3"
    )
    assert _sha256([assignments.astype("<i8")]) == (
        "b019b8c339ce797086b1daa1db2acac3f506bcf54371e99a6e1c26906f5d1caf"
    )


def test_pretrain_and_run_dekm_match_textbook_numerics(monkeypatch):
    pre, losses, enc, adam, assignments = _pretrain_and_cluster(monkeypatch)
    _use_textbook_numerics(monkeypatch)
    ref_pre, ref_losses, ref_enc, ref_adam, ref_assignments = _pretrain_and_cluster(monkeypatch)
    assert losses == ref_losses
    assert adam.t == ref_adam.t
    for g, w in zip(pre + enc + adam.m + adam.v, ref_pre + ref_enc + ref_adam.m + ref_adam.v):
        assert np.array_equal(g, w)
    assert np.array_equal(assignments, ref_assignments)


def test_encode_keeps_no_dead_activations():
    # The forward pass needs the widest activation plus the next (narrow)
    # one; a single extra full-width temporary would reach input + 2x widest.
    m = ae.xavier_init([64, 1024, 10], seed=0)
    tracemalloc.start()
    try:
        x = np.random.default_rng(0).normal(size=(4000, 64))
        ae.encode(m, x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    widest = 4000 * 1024 * 8
    assert peak < x.nbytes + 1.5 * widest


# Full-data forward passes run in row blocks of FORWARD_BLOCK_BYTES of the
# widest activation: 2048 rows for a 1024-wide layer. ``_forward`` is the
# unblocked pass.


def _unblocked(ws, bs, x):
    return ae._forward(ws, bs, x)[-1]


def _block_rows(ws):
    return ae.FORWARD_BLOCK_BYTES // (8 * max(w.shape[1] for w in ws))


def test_forward_within_one_block_is_one_unblocked_pass(rng):
    m = ae.xavier_init([32, 1024, 10], seed=3)
    rows = _block_rows(m.enc_w)
    assert rows == _block_rows(m.dec_w) == 2048
    x = rng.normal(size=(rows, 32))
    h = ae.encode(m, x)
    assert np.array_equal(h, _unblocked(m.enc_w, m.enc_b, x))
    assert np.array_equal(ae.decode(m, h), _unblocked(m.dec_w, m.dec_b, h))


def test_forward_blocks_equal_unblocked_passes_on_their_slices(rng):
    m = ae.xavier_init([32, 1024, 10], seed=3)
    rows = _block_rows(m.enc_w)
    x = rng.normal(size=(2 * rows + 37, 32))  # two full blocks and a partial one
    h = ae.encode(m, x)
    r = ae.decode(m, h)
    assert h.shape == (x.shape[0], 10) and r.shape == x.shape
    for lo in range(0, x.shape[0], rows):
        block = slice(lo, lo + rows)
        assert np.array_equal(h[block], _unblocked(m.enc_w, m.enc_b, x[block]))
        assert np.array_equal(r[block], _unblocked(m.dec_w, m.dec_b, h[block]))
    assert np.allclose(h, _unblocked(m.enc_w, m.enc_b, x), rtol=1e-12, atol=1e-12)


def test_encode_memory_does_not_grow_with_rows():
    # 8192 rows through a 1024-wide layer: 64 MiB unblocked, 16 MiB a block
    m = ae.xavier_init([32, 1024, 10], seed=0)
    x = np.random.default_rng(0).normal(size=(8192, 32))
    tracemalloc.start()
    try:
        h = ae.encode(m, x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < x.nbytes + h.nbytes + 1.5 * ae.FORWARD_BLOCK_BYTES

"""Model forwards against independent step-by-step oracles, plus the
side-encoding and scoring contracts."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

from feedrank import layers as L
from feedrank import tensor as T
from feedrank.container import load_checkpoint, save_checkpoint
from feedrank.data import SideInfo
from feedrank.models import VARIANTS, BertITEModel, ITEModel, ModelConfig, build_model, predict_score
from feedrank.tensor import ConfigError

from conftest import (check_gradients, encode_side_user, per_occurrence_side, same_bits, side_from_lists,
                      to_float64)
from test_layers import oracle_attention, oracle_ffn_row, oracle_layer_norm


def ite_config(k=2, x=1, y=1, side_dim=0):
    return ModelConfig(embedding_dim=k, attention_heads=1, implicit_mlp_layers=x,
                       explicit_mlp_layers=y, dropout=0.0, side_dim=side_dim)


def ite_forward(model: ITEModel, user: int, item: int, side_info=None):
    """(implicit, explicit) probabilities of one pair, dropout-free."""
    with T.no_grad():
        res = model.forward(np.array([user]), np.array([item]), side_info)
    return res.x_hat.item(), res.y_hat.item()


def bert_ite_forward(model: BertITEModel, user: int, sequence, target: int):
    """(implicit, explicit) probabilities of one padded session, dropout-free."""
    with T.no_grad():
        res = model.forward(np.array([user]), np.array([sequence]), np.array([target]))
    return res.x_hat.item(), res.y_hat.item()


def oracle_ite_forward(model: ITEModel, u: int, i: int):
    """Independent numpy evaluation of the GMF/MLP fusion and both heads."""
    phi_gmf = model.gmf_user.rows.data[u] * model.gmf_item.rows.data[i]
    h = np.concatenate([model.mlp_user.rows.data[u], model.mlp_item.rows.data[i]])
    for layer in model.implicit_tower:
        h = np.maximum(layer.weight.data @ h + layer.bias.data, 0.0)
    phi_implicit = np.concatenate([phi_gmf, h])
    x_hat = expit(model.implicit_head.data @ phi_implicit)
    e = phi_implicit
    for layer in model.explicit_tower:
        e = np.maximum(layer.weight.data @ e + layer.bias.data, 0.0)
    y_hat = expit(model.explicit_head.data @ e)
    return float(x_hat), float(y_hat)


def oracle_bert_forward(model: BertITEModel, u: int, seq, target: int):
    """Independent composition of the transformer stack and heads."""
    rows = [model.user_table.rows.data[u]]
    rows += [model.item_table.rows.data[j] for j in seq]
    tgt = model.item_table.rows.data[target]
    rows.append(tgt)
    x = np.stack(rows)
    for layer in model.transformer:
        mh = oracle_attention(x, [p.data for p in layer.wq], [p.data for p in layer.wk],
                              [p.data for p in layer.wv], layer.wo.data, layer.heads)
        a = oracle_layer_norm(x + mh) * layer.ln1_gain.data + layer.ln1_bias.data
        ff = oracle_ffn_row(a, layer.ffn_w1.data, layer.ffn_b1.data,
                            layer.ffn_w2.data, layer.ffn_b2.data)
        x = oracle_layer_norm(a + ff) * layer.ln2_gain.data + layer.ln2_bias.data
    u_rep = x[0]
    phi = u_rep * tgt
    x_hat = expit(model.implicit_head.data @ phi)
    e = phi
    for layer in model.explicit_tower:
        e = np.maximum(layer.weight.data @ e + layer.bias.data, 0.0)
    y_hat = expit(model.explicit_head.data @ e)
    return float(x_hat), float(y_hat)


def random_side_info(rng, num_users, num_items, num_categories=3):
    """SideInfo giving each item a random subset of the categories, and each
    user a random subset weighted uniformly in [0, 1)."""
    def subset():
        return np.flatnonzero(rng.integers(0, 2, num_categories))

    users = [subset() for _ in range(num_users)]
    return side_from_lists(num_categories, [subset() for _ in range(num_items)],
                           [(u, rng.random(u.size)) for u in users])


def scores_of(res):
    return res.x_hat.data.astype(np.float64), res.y_hat.data.astype(np.float64)


class TestITEForward:
    def test_zero_implicit_head_gives_half(self):
        model = ITEModel(4, 4, ite_config(), seed=1)
        to_float64(model.params)
        model.implicit_head.data[:] = 0.0
        for u, i in [(0, 0), (3, 2), (1, 3)]:
            x_hat, _ = ite_forward(model, u, i)
            assert x_hat == 0.5

    def test_zero_gmf_embeddings_zero_gmf_layer(self):
        # zero GMF tables + a head reading only the GMF half => sigma(0)
        model = ITEModel(4, 4, ite_config(k=2), seed=2)
        to_float64(model.params)
        model.gmf_user.rows.data[:] = 0.0
        model.implicit_head.data[:] = 0.0
        model.implicit_head.data[:2] = 5.0  # GMF half of the implicit layer
        x_hat, _ = ite_forward(model, 1, 1)
        assert x_hat == 0.5

    def test_matches_scripted_oracle(self):
        model = ITEModel(4, 4, ite_config(k=2, x=1, y=1), seed=3)
        to_float64(model.params)
        rng = np.random.default_rng(33)
        for p in model.params:  # hand-set weights, order 1 magnitudes
            p.data[:] = rng.uniform(-1.0, 1.0, size=p.shape)
        for u in range(4):
            for i in range(4):
                got = ite_forward(model, u, i)
                expected = oracle_ite_forward(model, u, i)
                np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_matches_oracle_deeper_towers(self):
        model = ITEModel(5, 6, ite_config(k=4, x=3, y=3), seed=4)
        to_float64(model.params)
        got = ite_forward(model, 2, 5)
        np.testing.assert_allclose(got, oracle_ite_forward(model, 2, 5), atol=1e-12)

    def test_tower_shapes_follow_halving_pattern(self):
        model = ITEModel(3, 3, ite_config(k=4, x=3, y=3), seed=0)
        assert [l.weight.shape for l in model.implicit_tower] == [(16, 32), (8, 16), (4, 8)]
        assert [l.weight.shape for l in model.explicit_tower] == [(8, 8), (4, 8), (2, 4)]
        assert model.implicit_head.shape == (8,)   # 2K
        assert model.explicit_head.shape == (2,)

    def test_outputs_strictly_inside_unit_interval(self):
        model = ITEModel(6, 6, ite_config(k=4, x=2, y=2), seed=5)
        res = model.forward(np.arange(6), np.arange(6))
        for arr in (res.x_hat.data, res.y_hat.data):
            assert np.all(arr > 0.0) and np.all(arr < 1.0)

    def test_id_out_of_range(self):
        model = ITEModel(4, 4, ite_config(), seed=6)
        with pytest.raises(IndexError):
            ite_forward(model, 4, 0)

    def test_side_required_but_absent(self):
        model = ITEModel(4, 4, ite_config(side_dim=3), seed=7, variant="ite-si")
        with pytest.raises(ConfigError, match=r"needs side info \(user_and_item\)"):
            model.forward(np.array([0]), np.array([0]))

    def test_side_free_variant_ignores_side_info(self):
        model = ITEModel(4, 4, ite_config(), seed=8)
        side = side_from_lists(3, [[0, 1, 2]] * 4, [([0], [1.0])] * 4)
        assert ite_forward(model, 0, 1, side) == ite_forward(model, 0, 1)

    def test_item_only_mode(self):
        model = ITEModel(4, 4, ite_config(side_dim=3), seed=9, variant="ite-ossi")
        to_float64(model.params)
        x0, y0 = ite_forward(model, 0, 1, side_from_lists(3, [[]] * 4))
        x1, y1 = ite_forward(model, 0, 1, side_from_lists(3, [[0, 1, 2]] * 4))
        assert (x0, y0) != (x1, y1)  # the item's categories reach its embedding

    @pytest.mark.parametrize("variant", ["ite", "ite-si", "ite-ossi"])
    def test_one_user_for_many_items_matches_repeated_user(self, variant):
        model = build_model(variant, 4, 9, ite_config(k=4, x=2, y=2, side_dim=3), seed=10)
        rng = np.random.default_rng(10)
        items = rng.integers(0, 9, 7)
        side = random_side_info(rng, 4, 9)
        with T.no_grad():
            one = model.forward(np.array([2]), items, side)
            each = model.forward(np.full(7, 2), items, side)
        for got, want in zip(scores_of(one), scores_of(each)):
            np.testing.assert_allclose(got, want, rtol=1e-6, atol=0)
            if variant != "ite-si":  # the same rows meet the same ops
                np.testing.assert_array_equal(got, want)


def one_category_each(num_categories, num_users, num_items):
    """SideInfo where user or item r has the single category r % num_categories, weight 1."""
    return side_from_lists(num_categories, [[i % num_categories] for i in range(num_items)],
                           [([u % num_categories], [1.0]) for u in range(num_users)])


class TestForwardBatchSideInfo:
    @pytest.mark.parametrize("variant", ["ite-si", "ite-ossi", "bert-ite-si", "bert-ite-ossi"])
    @pytest.mark.parametrize("num_categories", [2, 4])
    def test_category_count_must_equal_side_dim(self, variant, num_categories):
        cfg = ModelConfig(embedding_dim=4, seq_len=3, transformer_layers=1, attention_heads=2, side_dim=3)
        model = build_model(variant, 4, 6, cfg, seed=0)
        side = one_category_each(num_categories, 4, 6)
        with pytest.raises(ConfigError) as info:
            model.forward_batch(np.array([0, 1]), np.array([2, 3]), np.zeros((2, 3), dtype=np.int64), side)
        assert str(info.value) == f"side info has {num_categories} categories, the model's side_dim is 3"

    def test_bert_si_reads_side_info_once_per_distinct_id(self, monkeypatch):
        """perfbench traces SideInfo.item_matrix and SideInfo.user_matrix in
        a bert-ite-si training step and counts item_matrix's result bytes.
        A forward asks for the distinct users, then for the distinct items of
        its sequences and targets together, each in one call."""
        calls = []
        for name in ("item_matrix", "user_matrix"):
            def spy(self, rows, _name=name, _method=getattr(SideInfo, name)):
                result = _method(self, rows)
                calls.append((_name, np.asarray(rows).tolist(), result))
                return result
            monkeypatch.setattr(SideInfo, name, spy)
        cfg = ModelConfig(embedding_dim=4, seq_len=3, transformer_layers=1, attention_heads=2, side_dim=3)
        model = build_model("bert-ite-si", 4, 7, cfg, seed=0)
        model.forward_batch(np.array([3, 1, 3]), np.array([6, 2, 6]), np.array([[0, 1, 2], [5, 4, 0], [0, 1, 2]]),
                            one_category_each(3, 4, 7), training=True, rng=np.random.default_rng(0))
        assert [(name, rows) for name, rows, _ in calls] == [
            ("user_matrix", [1, 3]), ("item_matrix", [0, 1, 2, 4, 5, 6])]
        for name, _, result in calls:
            if name == "item_matrix":
                assert isinstance(result, np.ndarray) and result.dtype == np.int64
                assert result.nbytes == result.size * 8


class TestDistinctSideBags:
    """Side columns summed once per distinct id against the per-occurrence
    lookup (``conftest.per_occurrence_side``): the same forward bits and the
    same gradient bits, except the side projections', which now sum per
    distinct id and so agree to float rounding."""

    @settings(max_examples=40, deadline=None)
    @given(variant=st.sampled_from(["ite-si", "ite-ossi", "bert-ite-si", "bert-ite-ossi"]),
           b=st.integers(1, 24), seed=st.integers(0, 2 ** 16))
    def test_training_forward_and_gradients(self, variant, b, seed):
        cfg = ModelConfig(embedding_dim=4, seq_len=5, transformer_layers=2, attention_heads=2,
                          explicit_mlp_layers=2, dropout=0.1, side_dim=6)
        model = build_model(variant, 5, 12, cfg, seed=seed)
        rng = np.random.default_rng(seed)
        side = random_side_info(rng, 5, 12, 6)
        # few users and items, so ids repeat within the batch
        users, candidates, contexts = rng.integers(0, 5, b), rng.integers(0, 12, b), rng.integers(0, 12, (b, 5))

        def step():
            res = model.forward_batch(users, candidates, contexts, side, training=True,
                                      rng=np.random.default_rng(seed))
            loss = T.add(T.sum_all(res.x_hat), T.sum_all(res.y_hat))
            for rows in res.embedding_rows:
                loss = T.add(loss, T.l2_sq(rows))
            loss.backward()
            grads = {p.name: p.grad.copy() for p in model.params if p.grad is not None}
            model.params.zero_grads()
            return res, grads

        got, got_grads = step()
        with per_occurrence_side():
            want, want_grads = step()
        assert same_bits(got.x_hat.data, want.x_hat.data) and same_bits(got.y_hat.data, want.y_hat.data)
        assert got_grads.keys() == want_grads.keys()
        for name, want_grad in want_grads.items():
            if name.endswith(".side_projection"):
                scale = np.abs(want_grad).max()
                assert np.abs(got_grads[name] - want_grad).max() <= 1e-6 * scale, name
            else:
                assert same_bits(got_grads[name], want_grad), name

    @settings(max_examples=20, deadline=None)
    @given(variant=st.sampled_from(["bert-ite-si", "bert-ite-ossi"]), c=st.integers(2, 30),
           seed=st.integers(0, 2 ** 16))
    def test_shared_context_scoring(self, variant, c, seed):
        cfg = ModelConfig(embedding_dim=4, seq_len=5, transformer_layers=2, attention_heads=2, side_dim=6)
        model = build_model(variant, 5, 12, cfg, seed=seed)
        rng = np.random.default_rng(seed)
        side = random_side_info(rng, 5, 12, 6)
        user, context, targets = rng.integers(0, 5, 1), rng.integers(0, 12, (1, 5)), rng.integers(0, 12, c)
        with T.no_grad():
            got = model.forward(user, context, targets, side)
            with per_occurrence_side():
                want = model.forward(user, context, targets, side)
        assert same_bits(got.x_hat.data, want.x_hat.data) and same_bits(got.y_hat.data, want.y_hat.data)


class TestVariantRoster:
    def test_variants_share_code_paths(self):
        cfg = ModelConfig(embedding_dim=4, attention_heads=2, side_dim=5)
        # class, and which tables project categories: user, item
        roster = {
            "ite": (ITEModel, False, False), "ite-si": (ITEModel, True, True),
            "ite-ossi": (ITEModel, False, True), "bert-ite": (BertITEModel, False, False),
            "bert-ite-si": (BertITEModel, True, True), "bert-ite-ossi": (BertITEModel, False, True),
        }
        for variant, (cls, user_side, item_side) in roster.items():
            model = build_model(variant, 4, 4, cfg, seed=0)
            assert type(model) is cls and model.variant == variant
            user, item = (model.gmf_user, model.gmf_item) if cls is ITEModel else (model.user_table, model.item_table)
            assert (user.side_projection is not None, item.side_projection is not None) == (user_side, item_side)

    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_checkpoint_records_the_models_variant(self, tmp_path, variant):
        model = build_model(variant, 4, 5, ModelConfig(embedding_dim=4, seq_len=3, transformer_layers=1,
                                                       side_dim=3), seed=0)
        save_checkpoint(str(tmp_path / "m.ckpt"), model)
        loaded, recorded, _ = load_checkpoint(str(tmp_path / "m.ckpt"))
        assert model.variant == recorded == loaded.variant == variant

    @pytest.mark.parametrize("cls, variant", [(ITEModel, "bert-ite"), (BertITEModel, "ite-si"), (ITEModel, "mf")])
    def test_variant_of_another_class_rejected(self, cls, variant):
        with pytest.raises(ConfigError, match=f"{cls.__name__} cannot build variant '{variant}'"):
            cls(4, 4, ModelConfig(embedding_dim=4, side_dim=3), variant=variant)

    @pytest.mark.parametrize("variant", ["ite-si", "ite-ossi", "bert-ite-si", "bert-ite-ossi"])
    def test_side_variant_needs_side_dim(self, variant):
        with pytest.raises(ConfigError, match=f"variant '{variant}' needs side_dim > 0, got 0"):
            build_model(variant, 4, 4, ModelConfig(embedding_dim=4), seed=0)

    def test_unknown_variant(self):
        with pytest.raises(ConfigError):
            build_model("mf", 4, 4, ModelConfig())

    def test_seeded_builds_are_bit_identical(self):
        cfg = ModelConfig(embedding_dim=8, attention_heads=2)
        a = build_model("bert-ite", 5, 7, cfg, seed=11)
        b = build_model("bert-ite", 5, 7, cfg, seed=11)
        for name, arr in a.params.state_arrays().items():
            np.testing.assert_array_equal(arr, b.params.state_arrays()[name])


class TestBertITEForward:
    def cfg(self, k=2, n=2, layers=1, heads=1, y=1):
        return ModelConfig(embedding_dim=k, seq_len=n, transformer_layers=layers,
                           attention_heads=heads, explicit_mlp_layers=y, dropout=0.0)

    def test_zero_target_embedding_gives_half(self):
        # phi = u_rep * target embedding; a zero target forces sigma(0)
        model = BertITEModel(3, 4, self.cfg(), seed=12)
        to_float64(model.params)
        model.item_table.rows.data[2] = 0.0
        x_hat, _ = bert_ite_forward(model, 0, [1, 3], 2)
        assert x_hat == 0.5

    def test_identical_sequence_items_permutation_invariant(self):
        model = BertITEModel(3, 6, self.cfg(n=4), seed=13)
        to_float64(model.params)
        model.item_table.rows.data[:4] = model.item_table.rows.data[0]
        a = bert_ite_forward(model, 1, [0, 1, 2, 3], 5)
        b = bert_ite_forward(model, 1, [3, 0, 1, 2], 5)
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_matches_scripted_oracle_small(self):
        model = BertITEModel(3, 5, self.cfg(), seed=14)
        to_float64(model.params)
        rng = np.random.default_rng(44)
        for p in model.params:
            if "ln" not in p.name:
                p.data[:] = rng.uniform(-0.8, 0.8, size=p.shape)
        got = bert_ite_forward(model, 1, [0, 3], 4)
        np.testing.assert_allclose(got, oracle_bert_forward(model, 1, [0, 3], 4), atol=1e-10)

    def test_matches_oracle_two_layers_two_heads(self):
        model = BertITEModel(4, 6, self.cfg(k=4, n=3, layers=2, heads=2, y=2), seed=15)
        to_float64(model.params)
        got = bert_ite_forward(model, 2, [5, 0, 1], 3)
        np.testing.assert_allclose(got, oracle_bert_forward(model, 2, [5, 0, 1], 3), atol=1e-10)

    def test_wrong_sequence_length(self):
        model = BertITEModel(3, 5, self.cfg(n=2), seed=16)
        with pytest.raises(ConfigError, match=r"sequences must be \[batch, 2\]"):
            bert_ite_forward(model, 0, [1, 2, 3], 4)

    def test_eval_forward_has_no_dropout(self):
        cfg = ModelConfig(embedding_dim=4, seq_len=2, transformer_layers=1,
                          attention_heads=2, dropout=0.5)
        model = BertITEModel(3, 5, cfg, seed=17)
        a = bert_ite_forward(model, 0, [1, 2], 3)
        b = bert_ite_forward(model, 0, [1, 2], 3)
        assert a == b

    def test_explicit_tower_widths(self):
        model = BertITEModel(3, 5, ModelConfig(embedding_dim=8, attention_heads=2,
                                               explicit_mlp_layers=3), seed=18)
        assert [l.weight.shape for l in model.explicit_tower] == [(8, 8), (4, 8), (2, 4)]


def full_encoder_forward(model: BertITEModel, users, sequences, targets, side_info=None):
    """The encoder without pruning: every layer on every row, then the user row."""
    b, k = len(users), model.config.embedding_dim
    user_bag, item_bag, (user_at, seq_at, target_at) = model._side_bags(side_info, users, sequences, targets)
    u_emb = model.user_table.lookup(users, model.user_table.side_columns(*user_bag), user_at)
    seq_emb = model.item_table.lookup(sequences, model.item_table.side_columns(*item_bag), seq_at)
    tgt_emb = model.item_table.lookup(targets, model.item_table.side_columns(*item_bag), target_at)
    x = T.concat_many([T.reshape(u_emb, (b, 1, k)), seq_emb, T.reshape(tgt_emb, (b, 1, k))], axis=-2)
    for layer in model.transformer:
        x = L.transformer_layer(x, layer)
    return model._heads(T.elementwise_mul(T.select_row(x, 0), tgt_emb), [])


class TestPrunedEncoder:
    @settings(max_examples=40, deadline=None)
    @given(b=st.integers(1, 4), n=st.integers(1, 5), heads=st.integers(1, 3), head_dim=st.integers(1, 3),
           layers=st.integers(1, 3), variant=st.sampled_from(["bert-ite", "bert-ite-si", "bert-ite-ossi"]),
           seed=st.integers(0, 2 ** 16))
    def test_matches_full_encoder(self, b, n, heads, head_dim, layers, variant, seed):
        side_dim = 3
        cfg = ModelConfig(embedding_dim=heads * head_dim, seq_len=n, transformer_layers=layers,
                          attention_heads=heads, explicit_mlp_layers=2, dropout=0.1, side_dim=side_dim)
        model = build_model(variant, 4, 7, cfg, seed=seed)
        to_float64(model.params)
        randomize_away_from_kinks(model, seed)
        rng = np.random.default_rng(seed)
        users, seqs, targets = rng.integers(0, 4, b), rng.integers(0, 7, (b, n)), rng.integers(0, 7, b)
        side = random_side_info(rng, 4, 7, side_dim)
        with T.no_grad():
            got = model.forward(users, seqs, targets, side)
            want = full_encoder_forward(model, users, seqs, targets, side)
        np.testing.assert_allclose(got.x_hat.data, want.x_hat.data, rtol=0, atol=1e-10)
        np.testing.assert_allclose(got.y_hat.data, want.y_hat.data, rtol=0, atol=1e-10)

    def test_last_layer_dropout_acts_on_user_row(self, monkeypatch):
        shapes = []
        dropout = T.dropout

        def recording_dropout(x, rate, training, rng=None):
            shapes.append(x.shape)
            return dropout(x, rate, training, rng)

        monkeypatch.setattr(T, "dropout", recording_dropout)
        cfg = ModelConfig(embedding_dim=4, seq_len=3, transformer_layers=2, attention_heads=2, dropout=0.5)
        model = BertITEModel(3, 6, cfg, seed=22)
        res = model.forward(np.array([0, 1]), np.array([[1, 2, 3], [0, 4, 5]]), np.array([5, 1]),
                            training=True, rng=np.random.default_rng(0))
        assert res.x_hat.shape == (2,)
        assert shapes == [(2, 5, 4), (2, 5, 4), (2, 1, 4), (2, 1, 4)]

    def test_zero_layers_rejected(self):
        with pytest.raises(ConfigError, match="transformer_layers must be >= 1"):
            build_model("bert-ite", 3, 5, ModelConfig(embedding_dim=4, transformer_layers=0))


def shared_prefix_inputs(model, rng, c, n, side_dim=3):
    """One user and context shared by ``c`` targets, and a SideInfo over the
    model's users and items."""
    user = rng.integers(0, model.num_users, 1)
    seq = rng.integers(0, model.num_items, (1, n))
    targets = rng.integers(0, model.num_items, c)
    return user, seq, targets, random_side_info(rng, model.num_users, model.num_items, side_dim)


class TestSharedPrefixForward:
    """``users`` [1] and ``sequences`` [1, n] with ``targets`` [C]: the
    first layer attends among the shared rows once per call."""

    def model(self, variant, layers, heads, dtype, seed=0, n=4):
        cfg = ModelConfig(embedding_dim=2 * heads, seq_len=n, transformer_layers=layers,
                          attention_heads=heads, explicit_mlp_layers=2, dropout=0.1, side_dim=3)
        model = build_model(variant, 5, 9, cfg, seed=seed)
        if dtype == np.float64:
            to_float64(model.params)
        randomize_away_from_kinks(model, seed, scale=1.0)
        return model

    @pytest.mark.parametrize("dtype,tol", [(np.float64, dict(rtol=0, atol=1e-10)),
                                           (np.float32, dict(rtol=1e-5, atol=0))])
    @pytest.mark.parametrize("heads", [1, 2])
    @pytest.mark.parametrize("layers", [1, 2, 3])
    @pytest.mark.parametrize("variant", ["bert-ite", "bert-ite-si", "bert-ite-ossi"])
    def test_matches_broadcast_batch(self, variant, layers, heads, dtype, tol):
        model = self.model(variant, layers, heads, dtype, seed=layers * 10 + heads)
        c = 23
        user, seq, targets, side = shared_prefix_inputs(model, np.random.default_rng(heads), c,
                                                        model.config.seq_len)
        with T.no_grad():
            got = model.forward(user, seq, targets, side)
            want = model.forward(np.repeat(user, c), np.repeat(seq, c, axis=0), targets, side)
        assert got.x_hat.shape == (c,)
        for g, w in zip(scores_of(got), scores_of(want)):
            np.testing.assert_allclose(g, w, **tol)

    def test_one_target_takes_the_plain_path(self, monkeypatch):
        def no_shared_prefix(*args, **kwargs):
            raise AssertionError("shared-prefix layer used for a single target")

        monkeypatch.setattr(L, "_shared_prefix_layer", no_shared_prefix)
        model = self.model("bert-ite", 2, 2, np.float64)
        with T.no_grad():
            res = model.forward(np.array([1]), np.array([[0, 2, 4, 6]]), np.array([3]))
        np.testing.assert_allclose(np.concatenate(scores_of(res)),
                                   oracle_bert_forward(model, 1, [0, 2, 4, 6], 3), rtol=0, atol=1e-10)

    def test_many_targets_take_the_shared_path(self, monkeypatch):
        calls = []
        shared_layer = L._shared_prefix_layer

        def counted(*args, **kwargs):
            calls.append((args[1].shape, args[2]))
            return shared_layer(*args, **kwargs)

        monkeypatch.setattr(L, "_shared_prefix_layer", counted)
        model = self.model("bert-ite", 2, 2, np.float64)
        with T.no_grad():
            model.forward(np.array([1]), np.array([[0, 2, 4, 6]]), np.array([3, 5, 7]))
        assert calls == [((3, 1, 4), model.transformer[0])]  # layer 1 only, once per forward

    def test_forward_only(self):
        model = self.model("bert-ite", 2, 1, np.float64)
        args = (np.array([1]), np.array([[0, 2, 4, 6]]), np.array([3, 5]))
        with pytest.raises(ConfigError, match="forward only"):
            model.forward(*args)
        with T.no_grad(), pytest.raises(ConfigError, match="forward only"):
            model.forward(*args, training=True, rng=np.random.default_rng(0))
        # the layer refuses grad mode itself: its merge step has no backward
        prefix, target = T.Tensor(np.zeros((1, 3, 2))), T.Tensor(np.zeros((2, 1, 2)))
        with pytest.raises(ConfigError, match="forward only"):
            L.transformer_layer(prefix, model.transformer[0], target=target)

    def test_mismatched_batches_rejected(self):
        model = self.model("bert-ite", 1, 1, np.float64)
        with T.no_grad(), pytest.raises(ConfigError, match="one per target, or 1 shared"):
            model.forward(np.array([1, 2]), np.array([[0, 2, 4, 6]] * 2), np.array([3, 5, 7]))

    @settings(max_examples=30, deadline=None)
    @given(variant=st.sampled_from(["bert-ite", "bert-ite-si", "bert-ite-ossi"]),
           layers=st.integers(1, 3), heads=st.integers(1, 2), c=st.integers(2, 12),
           cuts=st.lists(st.integers(1, 11), max_size=3), seed=st.integers(0, 2 ** 16))
    def test_scores_ignore_candidate_order_and_chunking(self, variant, layers, heads, c, cuts, seed):
        model = self.model(variant, layers, heads, np.float64, seed=seed)
        rng = np.random.default_rng(seed)
        user, seq, targets, side = shared_prefix_inputs(model, rng, c, model.config.seq_len)
        order = rng.permutation(c)
        bounds = [0] + sorted({x for x in cuts if x < c}) + [c]
        with T.no_grad():
            want = model.forward(user, seq, targets, side)
            got = np.empty((2, c))
            for a, b in zip(bounds, bounds[1:]):
                part = order[a:b]
                got[:, part] = scores_of(model.forward(user, seq, targets[part], side))
        np.testing.assert_allclose(got, scores_of(want), rtol=1e-12, atol=0)


class TestSessionOrderBlindness:
    """bert-ite has no positional encoding and its attention runs both ways,
    so it sees a session's n context items as a set (ROADMAP item 10):
    permuting the items of any row leaves every score unchanged up to float32
    rounding, in the per-row forward and in shared-context scoring, whose
    sums over the keys run in another order. This states today's behaviour;
    a positional model flips it on purpose and turns it into a test that
    order changes the scores."""

    @settings(max_examples=30, deadline=None)
    @given(b=st.integers(1, 4), n=st.integers(2, 6), layers=st.integers(1, 3), heads=st.integers(1, 2),
           c=st.integers(2, 12), seed=st.integers(0, 2 ** 16))
    def test_permuted_contexts_score_the_same(self, b, n, layers, heads, c, seed):
        cfg = ModelConfig(embedding_dim=2 * heads, seq_len=n, transformer_layers=layers,
                          attention_heads=heads, explicit_mlp_layers=2, dropout=0.1)
        model = build_model("bert-ite", 5, 9, cfg, seed=seed)
        randomize_away_from_kinks(model, seed, scale=1.0)
        rng = np.random.default_rng(seed)
        users, seqs, targets = rng.integers(0, 5, b), rng.integers(0, 9, (b, n)), rng.integers(0, 9, b)
        candidates = rng.integers(0, 9, c)
        shuffled = rng.permuted(seqs, axis=1)
        with T.no_grad():
            for args, permuted in (((users, seqs, targets), (users, shuffled, targets)),
                                   ((users[:1], seqs[:1], candidates), (users[:1], shuffled[:1], candidates))):
                want, got = scores_of(model.forward(*args)), scores_of(model.forward(*permuted))
                np.testing.assert_allclose(got, want, rtol=1e-5, atol=0)


class TestConfigValidation:
    @settings(max_examples=80, deadline=None)
    @given(ints=st.lists(st.integers(-3, 5), min_size=6, max_size=6),
           dropout=st.floats(allow_nan=True, allow_infinity=True),
           variant=st.sampled_from(["ite", "bert-ite-si"]))
    def test_validate_passes_or_raises_config_error(self, ints, dropout, variant):
        # whatever validate lets through must build and run a training step's forward
        k, n, layers, heads, implicit_depth, explicit_depth = ints
        cfg = ModelConfig(embedding_dim=k, seq_len=n, transformer_layers=layers,
                          attention_heads=heads, implicit_mlp_layers=implicit_depth,
                          explicit_mlp_layers=explicit_depth, dropout=dropout, side_dim=2)
        try:
            cfg.validate()
            model = build_model(variant, 2, 3, cfg, seed=0)
        except ConfigError:
            return
        users, targets = np.array([0, 1]), np.array([1, 2])
        if model.kind == "bert":  # bert-ite-si: every user and item in both categories
            side = side_from_lists(2, [[0, 1]] * 3, [([0, 1], [1.0, 1.0])] * 2)
            res = model.forward(users, np.zeros((2, n), dtype=np.int64), targets, side,
                                training=True, rng=np.random.default_rng(0))
        else:
            res = model.forward(users, targets)
        assert np.all(np.isfinite(res.x_hat.data)) and np.all(np.isfinite(res.y_hat.data))


class TestPredictScore:
    def test_hand_values(self):
        assert predict_score(1.0, 0.5) == 0.5
        assert predict_score(0.0, 0.7) == 0.0
        assert abs(predict_score(0.8, 0.9) - 0.72) < 1e-12

    def test_strictly_monotone_in_each_factor(self):
        ys = np.linspace(0.01, 0.99, 25)
        scores = predict_score(0.4, ys)
        assert np.all(np.diff(scores) > 0)
        xs = np.linspace(0.01, 0.99, 25)
        scores = predict_score(xs, 0.6)
        assert np.all(np.diff(scores) > 0)


class TestEncodeSideUser:
    def test_three_one_split(self):
        cats = [[0], [0], [0], [1]]
        vec = encode_side_user([0, 1, 2, 3], cats, 3)
        np.testing.assert_allclose(vec, [0.75, 0.25, 0.0])

    def test_single_category_one_hot(self):
        cats = [[2], [2]]
        np.testing.assert_allclose(encode_side_user([0, 1], cats, 4), [0, 0, 1, 0])

    def test_multi_category_items_counted_in_each(self):
        # brute-force counting oracle over a fixture interaction list
        rng = np.random.default_rng(55)
        t = 5
        cats = [sorted(rng.choice(t, size=rng.integers(0, 3), replace=False).tolist())
                for _ in range(12)]
        items = rng.integers(0, 12, size=30).tolist()
        expected = np.zeros(t)
        for item in items:
            for c in cats[item]:
                expected[c] += 1
        if expected.sum():
            expected /= expected.sum()
        np.testing.assert_allclose(encode_side_user(items, cats, t), expected)

    def test_uncategorized_user_zero_vector(self):
        np.testing.assert_array_equal(encode_side_user([0], [[]], 3), [0.0, 0.0, 0.0])

    def test_normalizes_to_one(self):
        vec = encode_side_user([0, 1, 2], [[0, 1], [1], [2]], 3)
        assert abs(vec.sum() - 1.0) < 1e-12


def randomize_away_from_kinks(model, seed, scale=0.5):
    """Order-1 parameter draws so relu pre-activations sit well away from
    zero at the finite-difference step size (layer-norm gains stay near 1)."""
    rng = np.random.default_rng(seed)
    for p in model.params:
        if ".ln" in p.name and "gain" in p.name:
            p.data[:] = 1.0 + rng.uniform(-0.1, 0.1, size=p.shape)
        else:
            p.data[:] = rng.uniform(-scale, scale, size=p.shape)


class TestModelGradients:
    def test_ite_forward_gradient(self):
        model = ITEModel(4, 4, ite_config(k=2, x=2, y=2), seed=20)
        to_float64(model.params)
        randomize_away_from_kinks(model, seed=100)
        users = np.array([0, 1, 2])
        items = np.array([1, 3, 0])
        tensors = list(model.params)

        def loss():
            res = model.forward(users, items)
            return T.add(T.sum_all(res.x_hat), T.sum_all(res.y_hat))

        check_gradients(loss, tensors, tol=1e-5, h=1e-4)

    def test_bert_forward_gradient(self):
        cfg = ModelConfig(embedding_dim=4, seq_len=2, transformer_layers=1,
                          attention_heads=2, explicit_mlp_layers=2, dropout=0.0)
        model = BertITEModel(3, 5, cfg, seed=21)
        to_float64(model.params)
        randomize_away_from_kinks(model, seed=101)
        users = np.array([0, 2])
        seqs = np.array([[1, 2], [0, 4]])
        targets = np.array([3, 1])
        tensors = list(model.params)

        def loss():
            res = model.forward(users, seqs, targets)
            return T.add(T.sum_all(res.x_hat), T.sum_all(res.y_hat))

        check_gradients(loss, tensors, tol=1e-5, h=1e-3)

    def test_two_layer_bert_forward_gradient(self):
        # a full first layer feeds the pruned last layer
        cfg = ModelConfig(embedding_dim=4, seq_len=2, transformer_layers=2,
                          attention_heads=2, explicit_mlp_layers=2, dropout=0.0)
        model = BertITEModel(3, 5, cfg, seed=23)
        to_float64(model.params)
        randomize_away_from_kinks(model, seed=102)
        users = np.array([0, 2])
        seqs = np.array([[1, 2], [0, 4]])
        targets = np.array([3, 1])
        tensors = list(model.params)

        def loss():
            res = model.forward(users, seqs, targets)
            return T.add(T.sum_all(res.x_hat), T.sum_all(res.y_hat))

        check_gradients(loss, tensors, tol=1e-5, h=1e-3)

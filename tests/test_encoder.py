"""Toy transformer encoders: shapes, determinism, structural identities."""

import json
import re

import numpy as np
import pytest

from medtriplet.checkpoint import MAGIC, load_checkpoint, save_checkpoint
from medtriplet.encoder import (
    IMAGE,
    TEXT,
    EncoderConfig,
    ImageSample,
    TokenSequence,
    _attention,
    _gelu,
    _layer_norm,
    embed_input,
    hash_token,
    init_head,
    init_image_trunk,
    init_text_trunk,
    patchify,
    tokenize_text,
    transformer_block,
    trunk_encode,
)
from medtriplet.images import load_image, read_pgm, write_pgm
from medtriplet.pipeline import _project
from oracles import oracle_gelu

CFG = EncoderConfig(patch_size=8, embed_dim=64, depth=2, heads=4, max_seq_len=64, seed=0)
SMALL = EncoderConfig(patch_size=4, embed_dim=16, depth=2, heads=4, max_seq_len=8, seed=1)


def random_image(rng, size=32):
    return ImageSample(rng.random((size, size)))


class TestConfig:
    def test_divisibility_enforced(self):
        with pytest.raises(ValueError):
            EncoderConfig(embed_dim=10, heads=4)

    def test_depth_and_epsilon(self):
        with pytest.raises(ValueError):
            EncoderConfig(depth=0)
        with pytest.raises(ValueError):
            EncoderConfig(ln_epsilon=0.0)

    @pytest.mark.parametrize(
        "name, value, message",
        [
            ("heads", 0, "heads must be >= 1, got 0"),
            ("heads", -4, "heads must be >= 1, got -4"),
            ("embed_dim", 0, "embed_dim must be >= 1, got 0"),
            ("patch_size", 0, "patch_size must be >= 1, got 0"),
            ("vocab_size", 0, "vocab_size must be >= 1, got 0"),
            ("max_seq_len", 0, "max_seq_len must be >= 1, got 0"),
            ("mlp_ratio", 0.0, "mlp_ratio must be positive, got 0.0"),
            ("mlp_ratio", float("nan"), "mlp_ratio must be positive, got nan"),
        ],
        ids=["heads", "heads_negative", "embed_dim", "patch_size", "vocab_size", "max_seq_len", "mlp_ratio", "mlp_ratio_nan"],
    )
    def test_bounds_name_the_value(self, name, value, message):
        with pytest.raises(ValueError) as info:
            EncoderConfig(**{name: value})
        assert str(info.value) == message


class TestPatchify:
    def test_shape(self):
        img = ImageSample(np.zeros((32, 32)))
        assert patchify(img, 8).shape == (16, 64)

    def test_single_patch_is_flattened_image(self):
        rng = np.random.default_rng(0)
        img = ImageSample(rng.random((8, 8)))
        patches = patchify(img, 8)
        assert patches.shape == (1, 64)
        np.testing.assert_array_equal(patches[0], img.pixels.ravel())

    def test_constant_image(self):
        img = ImageSample(np.full((16, 16), 0.5))
        assert np.all(patchify(img, 8) == 0.5)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            patchify(ImageSample(np.zeros((30, 32))), 8)

    def test_row_major_order(self):
        grid = np.arange(16.0).reshape(4, 4)
        patches = patchify(ImageSample(grid), 2)
        np.testing.assert_array_equal(patches[0], [0, 1, 4, 5])
        np.testing.assert_array_equal(patches[1], [2, 3, 6, 7])


class TestTokenization:
    def test_hash_stable_and_in_range(self):
        for token in ("edema", "effusion", "x"):
            i = hash_token(token, 4096)
            assert 0 <= i < 4096
            assert hash_token(token, 4096) == i

    def test_truncation(self):
        text = " ".join(["edema"] * 100)
        seq = tokenize_text(text, CFG)
        assert len(seq.ids) == CFG.max_seq_len

    def test_empty_text_reserved_id(self):
        assert tokenize_text("...", CFG).ids == (0,)

    def test_sentence_breaks_dropped(self):
        a = tokenize_text("mild edema. small effusion.", CFG)
        b = tokenize_text("mild edema small effusion", CFG)
        assert a.ids == b.ids

    def test_sequence_validation(self):
        with pytest.raises(ValueError):
            TokenSequence(())
        with pytest.raises(ValueError):
            TokenSequence((-1,))


class TestEmbedInput:
    def test_zero_weights_zero_pe(self):
        trunk = init_image_trunk(SMALL)
        trunk["input.w"] = np.zeros_like(trunk["input.w"])
        trunk["input.b"] = np.zeros_like(trunk["input.b"])
        trunk["pos"] = np.zeros_like(trunk["pos"])
        img = ImageSample(np.random.default_rng(0).random((8, 8)))
        assert np.all(embed_input(img, trunk, SMALL) == 0.0)

    def test_identity_map_single_patch(self):
        cfg = EncoderConfig(patch_size=4, embed_dim=16, heads=4, max_seq_len=4, seed=0)
        trunk = init_image_trunk(cfg)
        trunk["input.w"] = np.eye(16)
        trunk["input.b"] = np.zeros(16)
        trunk["pos"] = np.zeros_like(trunk["pos"])
        img = ImageSample(np.random.default_rng(1).random((4, 4)))
        np.testing.assert_array_equal(embed_input(img, trunk, cfg)[0], img.pixels.ravel())

    def test_overlong_sequence_error(self):
        trunk = init_text_trunk(SMALL)
        seq = TokenSequence(tuple(range(SMALL.max_seq_len + 1)))
        with pytest.raises(ValueError, match="max_seq_len"):
            embed_input(seq, trunk, SMALL)

    def test_bit_identical_across_runs(self):
        img = ImageSample(np.random.default_rng(2).random((8, 8)))
        h1 = embed_input(img, init_image_trunk(SMALL), SMALL)
        h2 = embed_input(img, init_image_trunk(SMALL), SMALL)
        np.testing.assert_array_equal(h1, h2)


class TestLayerNormAndGelu:
    def test_layer_norm_bitwise_equal_to_numpy_var_formula(self):
        rng = np.random.default_rng(43)
        for trial in range(300):
            n, c = int(rng.integers(1, 70)), int(rng.integers(1, 130))
            scale, offset = 10.0 ** rng.uniform(-6, 3, size=2)
            x = rng.standard_normal((n, c)) * scale + offset * rng.standard_normal()
            g, b = rng.standard_normal(c), rng.standard_normal(c)
            cfg = CFG if trial % 2 else EncoderConfig(ln_epsilon=10.0 ** rng.uniform(-12, -1))
            mean, var = x.mean(axis=-1, keepdims=True), x.var(axis=-1, keepdims=True)
            expected = (x - mean) / np.sqrt(var + cfg.ln_epsilon) * g + b
            assert (_layer_norm(x, g, b, cfg) == expected).all()

    def test_gelu_matches_scalar_oracle(self):
        rng = np.random.default_rng(44)
        x = np.concatenate([rng.standard_normal(4000) * 10.0 ** rng.uniform(-6, 1, 4000), np.linspace(-2, 40, 4001)])
        x = x[x >= -2]
        np.testing.assert_allclose(_gelu(x), np.vectorize(oracle_gelu)(x), rtol=1e-14, atol=0)
        # Below about -2, 1 + tanh(...) cancels, so only the absolute error stays small.
        tail = np.linspace(-12, -2, 2001)
        np.testing.assert_allclose(_gelu(tail), np.vectorize(oracle_gelu)(tail), rtol=0, atol=1e-15)


class TestTransformerBlock:
    def test_zero_output_weights_identity(self):
        trunk = init_image_trunk(SMALL)
        for i in range(SMALL.depth):
            trunk[f"block{i}.attn.wo"] = np.zeros((16, 16))
            trunk[f"block{i}.mlp.w2"] = np.zeros_like(trunk[f"block{i}.mlp.w2"])
        h = np.random.default_rng(3).normal(size=(5, 16))
        np.testing.assert_array_equal(transformer_block(h, trunk, 0, SMALL), h)

    def test_permutation_equivariance(self):
        trunk = init_image_trunk(SMALL)
        rng = np.random.default_rng(4)
        h = rng.normal(size=(6, 16))
        perm = rng.permutation(6)
        out = transformer_block(h, trunk, 0, SMALL)
        out_perm = transformer_block(h[perm], trunk, 0, SMALL)
        np.testing.assert_allclose(out_perm, out[perm], atol=1e-12)

    def test_attention_rows_sum_to_one(self):
        trunk = init_image_trunk(SMALL)
        h = np.random.default_rng(5).normal(size=(7, 16))
        p = trunk
        attn = _attention(_layer_norm(h, p["block0.ln1.g"], p["block0.ln1.b"], SMALL), p, "block0.", SMALL)
        assert attn.shape == (SMALL.heads, 7, 7)
        np.testing.assert_allclose(attn.sum(axis=-1), 1.0, atol=1e-9)

    def test_single_position_reduces_to_value_path(self):
        cfg = EncoderConfig(patch_size=4, embed_dim=16, heads=4, max_seq_len=4, seed=2)
        p = init_image_trunk(cfg)
        p["block0.mlp.w2"] = np.zeros_like(p["block0.mlp.w2"])
        p["block0.mlp.b2"] = np.zeros_like(p["block0.mlp.b2"])
        h = np.random.default_rng(6).normal(size=(1, 16))
        # One position attends only to itself: the block adds the value path of the layer-normed input.
        x = _layer_norm(h, p["block0.ln1.g"], p["block0.ln1.b"], cfg)
        v = x @ p["block0.attn.wv"] + p["block0.attn.bv"]
        expected = h + v @ p["block0.attn.wo"] + p["block0.attn.bo"]
        np.testing.assert_allclose(transformer_block(h, p, 0, cfg), expected, atol=1e-12)


class TestEncode:
    """Trunk output through a projection head, as the pipeline projects trunk matrices."""

    def test_output_length(self):
        rng = np.random.default_rng(7)
        pooled = trunk_encode(random_image(rng), init_image_trunk(CFG), CFG)
        assert _project(pooled[None], init_head(CFG, IMAGE)).shape == (1, CFG.embed_dim)

    def test_purity(self):
        rng = np.random.default_rng(8)
        img = random_image(rng)
        trunk, head = init_image_trunk(CFG), init_head(CFG, IMAGE)
        np.testing.assert_array_equal(
            _project(trunk_encode(img, trunk, CFG)[None], head), _project(trunk_encode(img, trunk, CFG)[None], head)
        )

    def test_head_linearity(self):
        rng = np.random.default_rng(9)
        pooled = trunk_encode(random_image(rng), init_image_trunk(CFG), CFG)[None]
        e1 = _project(pooled, np.eye(CFG.embed_dim))
        e2 = _project(pooled, 2.0 * np.eye(CFG.embed_dim))
        np.testing.assert_allclose(e2, 2.0 * e1, atol=1e-12)

    def test_residual_identity_full_path(self):
        cfg = EncoderConfig(patch_size=4, embed_dim=16, heads=4, max_seq_len=8, seed=3)
        trunk = init_image_trunk(cfg)
        for i in range(cfg.depth):
            trunk[f"block{i}.attn.wo"] = np.zeros((16, 16))
            trunk[f"block{i}.mlp.w2"] = np.zeros_like(trunk[f"block{i}.mlp.w2"])
        img = ImageSample(np.random.default_rng(10).random((8, 8)))
        pooled = trunk_encode(img, trunk, cfg)
        np.testing.assert_array_equal(pooled, embed_input(img, trunk, cfg).mean(axis=0))

    def test_text_encoding(self):
        seq = tokenize_text("Mild left pleural effusion.", CFG)
        pooled = trunk_encode(seq, init_text_trunk(CFG), CFG)
        assert _project(pooled[None], init_head(CFG, TEXT)).shape == (1, CFG.embed_dim)


class TestImagesIO:
    def test_pgm_round_trip(self, tmp_path):
        rng = np.random.default_rng(11)
        grid = rng.random((8, 10))
        path = tmp_path / "img.pgm"
        write_pgm(path, grid)
        back = read_pgm(path)
        quantized = np.rint(grid * 255) / 255
        np.testing.assert_allclose(back.pixels, quantized, atol=1e-12)

    def test_pgm_rejects_binary_magic(self, tmp_path):
        path = tmp_path / "img.pgm"
        path.write_text("P5\n2 2\n255\n0 0 0 0\n")
        with pytest.raises(ValueError, match="P2"):
            read_pgm(path)

    def test_pgm_pixel_count_checked(self, tmp_path):
        path = tmp_path / "img.pgm"
        path.write_text("P2\n2 2\n255\n0 0 0\n")
        with pytest.raises(ValueError, match="expected 4"):
            read_pgm(path)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("P2\n2 2\n255\n0 255 300 7\n", "pixel value 300 outside"),
            ("P2\n2 2\n255\n0 255 -4 7\n", "pixel value -4 outside"),
            ("P2\n2 2\n255\n0 255 1.5 7\n", "integers"),
            ("P2\n0 0\n255\n", "must be integers >= 1, got 0 0 255"),
            ("P2\n-2 -2\n255\n0 255 7 7\n", "must be integers >= 1, got -2 -2 255"),
            ("P2\n2 x\n255\n0 255 7 7\n", "must be integers >= 1, got 2 x 255"),
            ("P2\n2 2\n0\n0 0 0 0\n", "must be integers >= 1, got 2 2 0"),
        ],
        ids=["above_maxval", "negative", "not_integer", "zero_size", "negative_size", "size_not_integer", "zero_maxval"],
    )
    def test_pgm_pixel_values_checked(self, tmp_path, text, message):
        path = tmp_path / "img.pgm"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: .*{message}"):
            read_pgm(path)

    def test_pgm_written_bytes_pinned(self, tmp_path):
        rng = np.random.default_rng(14)
        grid = rng.random((9, 7)) * 1.2 - 0.1  # clips to both 0 and maxval
        path = tmp_path / "img.pgm"
        write_pgm(path, grid)
        ints = np.clip(np.rint(grid * 255), 0, 255).astype(int)
        assert ints.min() == 0 and ints.max() == 255
        # Formatting over numpy integer scalars, as the writer did before it joined Python ints.
        expected = "\n".join(["P2", "7 9", "255", *(" ".join(str(v) for v in row) for row in ints)]) + "\n"
        assert path.read_bytes() == expected.encode("ascii")

    def test_npy_round_trip(self, tmp_path):
        rng = np.random.default_rng(12)
        grid = rng.random((6, 6))
        path = tmp_path / "img.npy"
        np.save(path, grid)
        np.testing.assert_allclose(load_image(path).pixels, grid, atol=1e-15)

    def test_unknown_extension(self, tmp_path):
        path = tmp_path / "img.jpeg"
        path.write_bytes(b"xx")
        with pytest.raises(ValueError, match="unsupported"):
            load_image(path)


class TestCheckpoint:
    def test_bit_exact_round_trip(self, tmp_path):
        rng = np.random.default_rng(13)
        arrays = {
            "head.image": rng.normal(size=(8, 8)),
            "head.text": rng.normal(size=(8, 8)),
            "adam.t": np.array([7], dtype=np.int64),
        }
        config = {"embed_dim": 8, "seed": 3}
        path = tmp_path / "w.ckpt"
        save_checkpoint(path, config, arrays)
        config2, arrays2 = load_checkpoint(path)
        assert config2 == config
        for name, arr in arrays.items():
            assert arrays2[name].dtype == arr.dtype
            np.testing.assert_array_equal(arrays2[name], arr)

    def test_shapes_round_trip(self, tmp_path):
        """A 0-d array keeps shape (); a transposed or big-endian one loads C-ordered and equal."""
        grid = np.arange(12.0).reshape(3, 4)
        arrays = {"c": np.array(3.0), "t": grid.T, "b": grid.astype(">f8")}
        path = tmp_path / "w.ckpt"
        save_checkpoint(path, {}, arrays)
        _, loaded = load_checkpoint(path)
        assert {name: arr.shape for name, arr in loaded.items()} == {"c": (), "t": (4, 3), "b": (3, 4)}
        for name, arr in arrays.items():
            np.testing.assert_array_equal(loaded[name], arr)

    @pytest.mark.parametrize(
        "entry, message",
        [
            ({"shape": [4, 4], "offset": 0, "nbytes": 64}, "nbytes 64 does not hold shape [4, 4] of <f8"),
            ({"shape": [4, 4], "offset": 8, "nbytes": 128}, "bytes [8, 136) run past the 128-byte payload"),
            ({"shape": [4, 4], "offset": -8, "nbytes": 128}, "must be non-negative integers"),
            ({"shape": [4], "offset": 0}, "header entry has no 'nbytes' field"),
            ({"shape": [4], "offset": 0, "nbytes": 32, "dtype": "<q8"}, "data type"),
        ],
    )
    def test_header_entry_must_fit_the_payload(self, tmp_path, entry, message):
        entry = {"name": "head.image", "dtype": "<f8", **entry}
        header = json.dumps({"config": {}, "arrays": [entry]}).encode()
        path = tmp_path / "w.ckpt"
        path.write_bytes(MAGIC + len(header).to_bytes(4, "little") + header + bytes(128))
        with pytest.raises(ValueError, match=re.escape(f"{path}: array 'head.image': ")) as err:
            load_checkpoint(path)
        assert message in str(err.value)

    def test_header_entry_without_a_name(self, tmp_path):
        header = json.dumps({"config": {}, "arrays": [{"dtype": "<f8", "shape": [1], "offset": 0, "nbytes": 8}]}).encode()
        path = tmp_path / "w.ckpt"
        path.write_bytes(MAGIC + len(header).to_bytes(4, "little") + header + bytes(8))
        with pytest.raises(ValueError, match=re.escape(f"{path}: checkpoint header entry without a name")):
            load_checkpoint(path)

    def test_header_without_arrays(self, tmp_path):
        header = json.dumps({"config": {}}).encode()
        path = tmp_path / "w.ckpt"
        path.write_bytes(MAGIC + len(header).to_bytes(4, "little") + header)
        with pytest.raises(ValueError, match=re.escape(f"{path}: unreadable checkpoint header: KeyError('arrays')")):
            load_checkpoint(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "w.ckpt"
        path.write_bytes(b"NOTACKPT" + b"\x00" * 16)
        with pytest.raises(ValueError, match="magic"):
            load_checkpoint(path)

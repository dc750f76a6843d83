"""Toy transformer encoders: shapes, determinism, structural identities."""

import json
import re

import numpy as np
import pytest

from medtriplet.checkpoint import MAGIC, load_checkpoint, save_checkpoint
from medtriplet.corpus import CorpusRecord
from medtriplet.encoder import (
    DEPTH,
    EMBED_DIM,
    HEAD_DIM,
    HEADS,
    IMAGE,
    LN_EPSILON,
    MAX_SEQ_LEN,
    PATCH_SIZE,
    TEXT,
    VOCAB_SIZE,
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
from medtriplet import pipeline
from medtriplet.pipeline import TRUNK_POSITIONS, FrozenTrunks, PipelineError, _project
from conftest import write_old_layout_heads
from oracles import oracle_gelu, oracle_read_pgm, oracle_trunk_encode

def random_image(rng, size=32):
    return ImageSample(rng.random((size, size)))


class TestConfig:
    def test_divisibility_enforced(self):
        # The fixed shape splits the width evenly across the attention heads.
        assert HEAD_DIM * HEADS == EMBED_DIM

    def test_depth_and_epsilon(self):
        trunk = init_image_trunk(0)
        assert sorted({name.split(".")[0] for name in trunk if name.startswith("block")}) == [
            f"block{i}" for i in range(DEPTH)
        ]
        # The fixed epsilon keeps a zero-variance row finite: it normalizes to zeros.
        np.testing.assert_array_equal(_layer_norm(np.full((1, 4), 3.0)), np.zeros((1, 4)))

    def test_trunks_hold_only_random_weights(self):
        """No trunk array is a constant: frozen ones and zeros are left out, not stored."""
        for trunk in (init_image_trunk(0), init_text_trunk(0)):
            assert len(trunk) == 2 + 6 * DEPTH
            for name, arr in trunk.items():
                assert arr.std() > 0, name


class TestPatchify:
    def test_shape(self):
        img = ImageSample(np.zeros((32, 32)))
        assert patchify(img).shape == (16, 64)

    def test_single_patch_is_flattened_image(self):
        rng = np.random.default_rng(0)
        img = ImageSample(rng.random((8, 8)))
        patches = patchify(img)
        assert patches.shape == (1, 64)
        np.testing.assert_array_equal(patches[0], img.pixels.ravel())

    def test_constant_image(self):
        img = ImageSample(np.full((16, 16), 0.5))
        assert np.all(patchify(img) == 0.5)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            patchify(ImageSample(np.zeros((30, 32))))

    def test_row_major_order(self):
        grid = np.arange(256.0).reshape(16, 16)
        patches = patchify(ImageSample(grid))
        assert patches.shape == (4, 64)
        for index, (r, c) in enumerate([(0, 0), (0, 8), (8, 0), (8, 8)]):
            np.testing.assert_array_equal(patches[index], grid[r : r + 8, c : c + 8].ravel())


class TestTokenization:
    def test_hash_stable_and_in_range(self):
        for token in ("edema", "effusion", "x"):
            i = hash_token(token)
            assert 0 <= i < VOCAB_SIZE
            assert hash_token(token) == i

    def test_truncation(self):
        text = " ".join(["edema"] * 100)
        seq = tokenize_text(text)
        assert len(seq.ids) == MAX_SEQ_LEN

    def test_empty_text_reserved_id(self):
        assert tokenize_text("...").ids == (0,)

    def test_sentence_breaks_dropped(self):
        a = tokenize_text("mild edema. small effusion.")
        b = tokenize_text("mild edema small effusion")
        assert a.ids == b.ids

    def test_sequence_validation(self):
        with pytest.raises(ValueError):
            TokenSequence(())
        with pytest.raises(ValueError):
            TokenSequence((-1,))


class TestEmbedInput:
    def test_zero_weights_zero_pe(self):
        trunk = init_image_trunk(1)
        trunk["input.w"] = np.zeros_like(trunk["input.w"])
        trunk["pos"] = np.zeros_like(trunk["pos"])
        img = ImageSample(np.random.default_rng(0).random((8, 8)))
        assert np.all(embed_input(img, trunk) == 0.0)

    def test_identity_map_single_patch(self):
        trunk = init_image_trunk(0)
        trunk["input.w"] = np.eye(PATCH_SIZE * PATCH_SIZE, EMBED_DIM)
        trunk["pos"] = np.zeros_like(trunk["pos"])
        img = ImageSample(np.random.default_rng(1).random((PATCH_SIZE, PATCH_SIZE)))
        np.testing.assert_array_equal(embed_input(img, trunk)[0], img.pixels.ravel())

    def test_overlong_sequence_error(self):
        trunk = init_text_trunk(1)
        seq = TokenSequence(tuple(range(MAX_SEQ_LEN + 1)))
        with pytest.raises(ValueError, match="max_seq_len"):
            embed_input(seq, trunk)

    def test_bit_identical_across_runs(self):
        img = ImageSample(np.random.default_rng(2).random((8, 8)))
        h1 = embed_input(img, init_image_trunk(1))
        h2 = embed_input(img, init_image_trunk(1))
        np.testing.assert_array_equal(h1, h2)


class TestLayerNormAndGelu:
    def test_layer_norm_bitwise_equal_to_numpy_var_formula(self):
        rng = np.random.default_rng(43)
        for _ in range(300):
            n, c = int(rng.integers(1, 70)), int(rng.integers(1, 130))
            scale, offset = 10.0 ** rng.uniform(-6, 3, size=2)
            x = rng.standard_normal((n, c)) * scale + offset * rng.standard_normal()
            mean, var = x.mean(axis=-1, keepdims=True), x.var(axis=-1, keepdims=True)
            expected = (x - mean) / np.sqrt(var + LN_EPSILON)
            assert _layer_norm(x).tobytes() == expected.tobytes()

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
        trunk = init_image_trunk(1)
        for i in range(DEPTH):
            trunk[f"block{i}.attn.wo"] = np.zeros((EMBED_DIM, EMBED_DIM))
            trunk[f"block{i}.mlp.w2"] = np.zeros_like(trunk[f"block{i}.mlp.w2"])
        h = np.random.default_rng(3).normal(size=(5, EMBED_DIM))
        np.testing.assert_array_equal(transformer_block(h, trunk, 0), h)

    def test_permutation_equivariance(self):
        trunk = init_image_trunk(1)
        rng = np.random.default_rng(4)
        h = rng.normal(size=(6, EMBED_DIM))
        perm = rng.permutation(6)
        out = transformer_block(h, trunk, 0)
        out_perm = transformer_block(h[perm], trunk, 0)
        np.testing.assert_allclose(out_perm, out[perm], atol=1e-12)

    def test_attention_rows_sum_to_one(self):
        trunk = init_image_trunk(1)
        h = np.random.default_rng(5).normal(size=(7, EMBED_DIM))
        attn = _attention(_layer_norm(h), trunk, "block0.")
        assert attn.shape == (HEADS, 7, 7)
        np.testing.assert_allclose(attn.sum(axis=-1), 1.0, atol=1e-9)

    def test_single_position_reduces_to_value_path(self):
        p = init_image_trunk(2)
        p["block0.mlp.w2"] = np.zeros_like(p["block0.mlp.w2"])
        h = np.random.default_rng(6).normal(size=(1, EMBED_DIM))
        # One position attends only to itself: the block adds the value path of the layer-normed input.
        expected = h + _layer_norm(h) @ p["block0.attn.wv"] @ p["block0.attn.wo"]
        np.testing.assert_allclose(transformer_block(h, p, 0), expected, atol=1e-12)


class TestInputsUntouched:
    """The forward pass computes in place only in arrays it made itself: a caller's input and the trunk's
    weights keep their bits."""

    @pytest.mark.parametrize("step", ["_layer_norm", "_gelu", "_attention", "transformer_block", "trunk_encode"])
    def test_inputs_keep_their_bits(self, step):
        trunk = init_image_trunk(0)
        weights = {name: w.copy() for name, w in trunk.items()}
        h = np.random.default_rng(19).normal(size=(3, 16, EMBED_DIM))
        pixels = np.random.default_rng(20).random((3, 32, 32))
        arg = pixels if step == "trunk_encode" else h
        before = arg.copy()
        out = {
            "_layer_norm": lambda: _layer_norm(h),
            "_gelu": lambda: _gelu(h),
            "_attention": lambda: _attention(h, trunk, "block0."),
            "transformer_block": lambda: transformer_block(h, trunk, 0),
            "trunk_encode": lambda: trunk_encode(ImageSample(pixels), trunk),
        }[step]()
        assert not np.shares_memory(out, arg)
        assert arg.tobytes() == before.tobytes()
        assert all(trunk[name].tobytes() == w.tobytes() for name, w in weights.items())


class TestEncode:
    """Trunk output through a projection head, as the pipeline projects trunk matrices."""

    def test_output_length(self):
        rng = np.random.default_rng(7)
        pooled = trunk_encode(random_image(rng), init_image_trunk(0))
        assert _project(pooled[None], init_head(0, IMAGE)).shape == (1, EMBED_DIM)

    def test_purity(self):
        rng = np.random.default_rng(8)
        img = random_image(rng)
        trunk, head = init_image_trunk(0), init_head(0, IMAGE)
        np.testing.assert_array_equal(
            _project(trunk_encode(img, trunk)[None], head), _project(trunk_encode(img, trunk)[None], head)
        )

    def test_head_linearity(self):
        rng = np.random.default_rng(9)
        pooled = trunk_encode(random_image(rng), init_image_trunk(0))[None]
        e1 = _project(pooled, np.eye(EMBED_DIM))
        e2 = _project(pooled, 2.0 * np.eye(EMBED_DIM))
        np.testing.assert_allclose(e2, 2.0 * e1, atol=1e-12)

    def test_residual_identity_full_path(self):
        trunk = init_image_trunk(3)
        for i in range(DEPTH):
            trunk[f"block{i}.attn.wo"] = np.zeros((EMBED_DIM, EMBED_DIM))
            trunk[f"block{i}.mlp.w2"] = np.zeros_like(trunk[f"block{i}.mlp.w2"])
        img = ImageSample(np.random.default_rng(10).random((2 * PATCH_SIZE, 2 * PATCH_SIZE)))
        pooled = trunk_encode(img, trunk)
        np.testing.assert_array_equal(pooled, embed_input(img, trunk).mean(axis=0))

    def test_text_encoding(self):
        seq = tokenize_text("Mild left pleural effusion.")
        pooled = trunk_encode(seq, init_text_trunk(0))
        assert _project(pooled[None], init_head(0, TEXT)).shape == (1, EMBED_DIM)


class TestTrunkOracle:
    """The trunks drop the frozen layer-norm affine and biases; with them written out as ones and zeros,
    the forward pass keeps every bit."""

    def test_image_stacks_match_oracle_bitwise(self):
        rng = np.random.default_rng(17)
        for seed in (0, 3):
            trunk = init_image_trunk(seed)
            for shape in ((8, 8), (16, 32), (4, 32, 32), (3, 16, 16)):
                pixels = rng.random(shape)
                want = oracle_trunk_encode(trunk, DEPTH, HEADS, LN_EPSILON, pixels=pixels, patch_size=PATCH_SIZE)
                assert trunk_encode(ImageSample(pixels), trunk).tobytes() == want.tobytes()

    def test_text_stacks_match_oracle_bitwise(self):
        rng = np.random.default_rng(18)
        for seed in (0, 3):
            trunk = init_text_trunk(seed)
            for rows, length in ((1, 1), (1, 9), (4, 3), (4, MAX_SEQ_LEN), (2, 17)):
                ids = rng.integers(0, VOCAB_SIZE, (rows, length))
                seq = TokenSequence(tuple(tuple(int(i) for i in row) for row in ids))
                want = oracle_trunk_encode(trunk, DEPTH, HEADS, LN_EPSILON, ids=ids)
                assert trunk_encode(seq, trunk).tobytes() == want.tobytes()
            single = TokenSequence((5, 9, 11))
            want = oracle_trunk_encode(trunk, DEPTH, HEADS, LN_EPSILON, ids=[5, 9, 11])
            assert trunk_encode(single, trunk).tobytes() == want.tobytes()


class TestStacks:
    """A stack of rows through a trunk gives each row's own single-sample bits."""

    def test_stacked_samples_validated(self):
        with pytest.raises(ValueError, match="one length"):
            TokenSequence(((1, 2), (3,)))
        with pytest.raises(ValueError, match="one length"):
            TokenSequence(((1, 2), 3))
        with pytest.raises(ValueError, match="nonnegative"):
            TokenSequence(((1, 2), (3, -4)))
        with pytest.raises(ValueError, match="non-empty"):
            TokenSequence(((), ()))
        with pytest.raises(ValueError, match="3-D stack"):
            ImageSample(np.zeros((2, 2, 8, 8)))

    def test_trunk_stacks_match_single_samples(self):
        rng = np.random.default_rng(15)
        image_trunk, text_trunk = init_image_trunk(0), init_text_trunk(0)
        for size in (16, 32):
            grids = rng.random((9, size, size))
            stacked = trunk_encode(ImageSample(grids), image_trunk)
            assert stacked.shape == (9, EMBED_DIM)
            for grid, row in zip(grids, stacked):
                assert np.array_equal(row, trunk_encode(ImageSample(grid), image_trunk))
        for length in range(1, 7):
            seqs = tuple(tuple(int(i) for i in rng.integers(0, VOCAB_SIZE, length)) for _ in range(5))
            stacked = trunk_encode(TokenSequence(seqs), text_trunk)
            for seq, row in zip(seqs, stacked):
                assert np.array_equal(row, trunk_encode(TokenSequence(seq), text_trunk))

    @pytest.mark.parametrize("n", [TRUNK_POSITIONS // 16 + d for d in (-1, 0, 1)])
    def test_frozen_trunks_match_single_samples(self, tmp_path, monkeypatch, n):
        """``n`` 32 x 32 images (16 patches), around the TRUNK_POSITIONS // 16 rows a stack holds, and
        as many rows past or short of every other stack bound: 16 x 16 images (4 patches), 1-token
        texts, where numpy takes its gemv path, and token counts that do not divide the budget."""
        d = n - TRUNK_POSITIONS // 16
        rng = np.random.default_rng(n)
        records = []
        for size in [32] * n + [16] * (TRUNK_POSITIONS // 4 + d) + [32]:
            path = tmp_path / f"{len(records)}.npy"
            np.save(path, rng.random((size, size)))
            records.append(CorpusRecord(f"r{len(records)}", "", path))
        lengths = (1, 3, 5, 6, 7)
        texts = [
            " ".join(f"w{j}" for j in rng.integers(0, 10**9, length))
            for length in lengths
            for _ in range(TRUNK_POSITIONS // length + d)
        ]
        texts += texts[:2]  # repeats take the row their first copy got
        stacks = []

        def spy(sample, trunk):
            stacks.append(embed_input(sample, trunk).shape[:-1])
            return trunk_encode(sample, trunk)

        monkeypatch.setattr(pipeline, "trunk_encode", spy)
        trunks = FrozenTrunks(0)
        images = trunks.encode_images(records)
        assert images.shape == (len(records), EMBED_DIM)
        for rec, row in zip(records, images):
            assert np.array_equal(row, trunk_encode(load_image(rec.image), trunks.image))
        encoded = trunks.encode_texts(texts)
        assert encoded.shape == (len(texts), EMBED_DIM)
        for text, row in zip(texts, encoded):
            assert np.array_equal(row, trunk_encode(tokenize_text(text), trunks.text))
        # each run of one patch or token count fills stacks of TRUNK_POSITIONS // count rows, then one
        # with the rest
        want = []
        runs = [(16, n), (4, TRUNK_POSITIONS // 4 + d), (16, 1)] + [(k, TRUNK_POSITIONS // k + d) for k in lengths]
        for positions, rows in runs:
            full = TRUNK_POSITIONS // positions
            want += [(full, positions)] * (rows // full) + [(rows % full, positions)] * (rows % full > 0)
        assert stacks == want

    def test_first_failing_record_named_within_a_chunk(self, tmp_path):
        good, bad_shape, unreadable = tmp_path / "good.npy", tmp_path / "bad.npy", tmp_path / "broken.pgm"
        np.save(good, np.zeros((32, 32)))
        np.save(bad_shape, np.zeros((30, 32)))
        unreadable.write_text("P5\n2 2\n255\n")
        records = [CorpusRecord("r0", "", good), CorpusRecord("r1", "", bad_shape), CorpusRecord("r2", "", unreadable)]
        with pytest.raises(PipelineError, match=re.escape(f"record 'r1', image {bad_shape}: image 30x32 not divisible")):
            FrozenTrunks(0).encode_images(records)
        with pytest.raises(ValueError, match="P2"):
            FrozenTrunks(0).encode_images([records[0], records[2], records[1]])

    def test_overlong_image_named(self, tmp_path):
        path = tmp_path / "big.npy"
        np.save(path, np.zeros((72, 64)))  # 9 x 8 patches, past max_seq_len 64
        with pytest.raises(PipelineError, match="record 'r0', .*sequence length 72 exceeds max_seq_len 64"):
            FrozenTrunks(0).encode_images([CorpusRecord("r0", "", path)])


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
            ("P2\n2 2\n255\n0 255 1_0 7\n", "integers"),
            ("P2\n2 2\n255\n0 255 99999999999999999999 7\n", "(integers|outside)"),
            ("P2\n2 2\n255\n0 \xe9 0 0\n", "byte 0xe9 at offset 13 is not ASCII"),
        ],
        ids=[
            "above_maxval", "negative", "not_integer", "zero_size", "negative_size", "size_not_integer",
            "zero_maxval", "digit_separator", "twenty_digits", "non_ascii",
        ],
    )
    def test_pgm_pixel_values_checked(self, tmp_path, text, message):
        path = tmp_path / "img.pgm"
        path.write_bytes(text.encode("latin-1"))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: .*{message}"):
            read_pgm(path)

    def test_pgm_comments_parse_like_plain_files(self, tmp_path):
        plain, commented = tmp_path / "plain.pgm", tmp_path / "commented.pgm"
        plain.write_text("P2\n3 2\n9\n0 1 2\n3 4 9\n")
        commented.write_text("P2 # magic\n# whole-line comment\n3 2\n9#no space\n0 1 2 # row one\n3\t4 9\n")
        np.testing.assert_array_equal(read_pgm(commented).pixels, read_pgm(plain).pixels)
        np.testing.assert_array_equal(read_pgm(plain).pixels, np.array([[0, 1, 2], [3, 4, 9]]) / 9)

    def test_pgm_decoder_matches_token_oracle(self, tmp_path):
        """Random graymaps, and copies with one token or byte broken: ``read_pgm`` and the token-by-token
        oracle read the same pixels, or both reject the file with an error that names it."""
        rng = np.random.default_rng(19)
        spaces = [" ", "  ", "\t", "\v", "\f", "\r\n", "\n", " \n# comment 7 7\n"]
        breaks = ["", "x", "1.5", "-3", "+4", "0x1", "1e2", "99999999999999999999", "#", "P2", " 0", "\x00", "9,"]
        texts = []
        for k in range(240):
            height, width = (int(n) for n in rng.integers(1, 7, 2))
            maxval = (1, 255, 65535)[k % 3]
            grid = rng.integers(0, maxval + 1, (height, width))
            header = ["P2", str(width), str(height), str(maxval)]
            tokens = header + [str(v) for v in grid.ravel()]
            if k % 2:  # break one token: drop it, or append to or replace it
                i = int(rng.integers(0, len(tokens)))
                broken = str(rng.choice(breaks))
                tokens[i] = (broken, tokens[i] + broken, "")[k % 3] if i else tokens[i] + broken
            seps = [str(s) for s in rng.choice(spaces, len(tokens))]
            text = "".join(token + sep for token, sep in zip(tokens, seps))
            if k % 4 == 0:
                text = "# made by hand\n" + text
            texts.append(text.rstrip() if k % 5 == 0 else text)
        outcomes = {"same pixels": 0, "both rejected": 0}
        for k, text in enumerate(texts):
            path = tmp_path / f"{k}.pgm"
            path.write_bytes(text.encode("ascii"))
            try:
                want = oracle_read_pgm(path)
            except ValueError as exc:
                assert str(exc).startswith(f"{path}: ")
                with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: "):
                    read_pgm(path)
                outcomes["both rejected"] += 1
                continue
            got = read_pgm(path).pixels
            assert got.tobytes() == want.tobytes() and got.shape == want.shape, text
            outcomes["same pixels"] += 1
        assert min(outcomes.values()) >= 60, outcomes

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

    @pytest.mark.parametrize(
        "grid, message",
        [
            (np.array([[0.5, np.nan]]), "pixel values must be finite"),
            (np.array([[0.5, np.inf]]), "pixel values must be finite"),
            (np.array([[-np.inf, 0.5]]), "pixel values must be finite"),
            (np.array([0.5, 0.25]), "expected a 2-D grid, got shape (2,)"),
            (np.zeros((2, 2, 2)), "expected a 2-D grid, got shape (2, 2, 2)"),
        ],
        ids=["nan", "inf", "negative_inf", "1d", "3d"],
    )
    def test_pgm_writer_rejects_bad_grid_before_writing(self, tmp_path, grid, message):
        path = tmp_path / "img.pgm"
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {message}')}$"):
            write_pgm(path, grid)
        assert not path.exists()

    def test_npy_round_trip(self, tmp_path):
        rng = np.random.default_rng(12)
        grid = rng.random((6, 6))
        path = tmp_path / "img.npy"
        np.save(path, grid)
        np.testing.assert_allclose(load_image(path).pixels, grid, atol=1e-15)

    @pytest.mark.parametrize("layout", [np.asfortranarray, lambda g: g.astype(">f8")], ids=["fortran", "big_endian"])
    def test_npy_layouts_load_equal(self, tmp_path, layout):
        grid = np.random.default_rng(12).random((6, 8))
        path = tmp_path / "img.npy"
        np.save(path, layout(grid))
        np.testing.assert_array_equal(load_image(path).pixels, grid)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "negative_inf"])
    def test_npy_non_finite_pixels_rejected(self, tmp_path, bad):
        grid = np.zeros((8, 8))
        grid[3, 5] = bad
        path = tmp_path / "img.npy"
        np.save(path, grid)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: pixel values must be finite$"):
            load_image(path)

    @pytest.mark.parametrize(
        "cut, message",
        [(40, "EOF: reading array header"), (140, r"shape \(8, 8\) of <f8 takes 512 bytes; 12 follow the header"),
         (0, "EOF: reading magic string")],
        ids=["header", "body", "empty"],
    )
    def test_truncated_npy_names_file(self, tmp_path, cut, message):
        path = tmp_path / "img.npy"
        np.save(path, np.zeros((8, 8)))
        path.write_bytes(path.read_bytes()[:cut])
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {message}"):
            load_image(path)

    @pytest.mark.parametrize(
        "shape, data, message",
        [((10**6, 10**5), 16, "shape (1000000, 100000) of <f8 takes 800000000000 bytes; 16 follow the header"),
         ((8, 8), 520, "shape (8, 8) of <f8 takes 512 bytes; 520 follow the header")],
        ids=["oversized", "trailing_bytes"],
    )
    def test_npy_header_must_match_the_data_it_precedes(self, tmp_path, shape, data, message):
        """The declared size is checked before any array is made, so a huge one is an error, not an allocation."""
        path = tmp_path / "img.npy"
        with open(path, "wb") as fh:
            np.lib.format.write_array_header_1_0(fh, {"descr": "<f8", "fortran_order": False, "shape": shape})
            fh.write(bytes(data))
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {message}')}$"):
            load_image(path)

    def test_npz_archive_named_npy_names_file(self, tmp_path):
        path = tmp_path / "img.npy"
        with open(path, "wb") as fh:
            np.savez(fh, pixels=np.zeros((8, 8)))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: the magic string is not correct"):
            load_image(path)

    @pytest.mark.parametrize(
        "grid", [np.full((8, 8), "a"), np.full((8, 8), 0.5 + 0.5j), np.zeros((8, 8), dtype="datetime64[s]")],
        ids=["string", "complex", "datetime"],
    )
    def test_npy_non_numeric_dtype_names_file(self, tmp_path, grid):
        path = tmp_path / "img.npy"
        np.save(path, grid)
        message = f"{path}: pixel dtype {grid.dtype} is not bool, integer or float"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            load_image(path)

    @pytest.mark.parametrize("dtype", [bool, np.uint8, np.int32, np.float32])
    def test_npy_numeric_dtypes_load_as_float(self, tmp_path, dtype):
        grid = np.eye(8, dtype=dtype)
        path = tmp_path / "img.npy"
        np.save(path, grid)
        pixels = load_image(path).pixels
        assert pixels.dtype == np.float64
        np.testing.assert_array_equal(pixels, np.eye(8))

    def test_unknown_extension(self, tmp_path):
        path = tmp_path / "img.jpeg"
        path.write_bytes(b"xx")
        with pytest.raises(ValueError, match="unsupported"):
            load_image(path)


class TestCheckpoint:
    def _heads(self, seed=13):
        rng = np.random.default_rng(seed)
        return {IMAGE: rng.normal(size=(EMBED_DIM, EMBED_DIM)), TEXT: rng.normal(size=(EMBED_DIM, EMBED_DIM))}

    def _write(self, path, header: bytes, payload: bytes):
        path.write_bytes(MAGIC + len(header).to_bytes(4, "little") + header + payload)

    def test_bit_exact_round_trip(self, tmp_path):
        heads, record = self._heads(), {"seed": 3}
        path = tmp_path / "w.ckpt"
        save_checkpoint(path, record, heads)
        record2, heads2 = load_checkpoint(path)
        assert record2 == record
        assert list(heads2) == [IMAGE, TEXT]
        for modality, head in heads.items():
            assert heads2[modality].dtype == np.float64
            assert heads2[modality].tobytes() == head.tobytes()
        header = json.dumps(record).encode()
        payload = heads[IMAGE].tobytes() + heads[TEXT].tobytes()
        assert path.read_bytes() == MAGIC + len(header).to_bytes(4, "little") + header + payload

    def test_shapes_round_trip(self, tmp_path):
        """A transposed or big-endian head is saved as its values in C order, little-endian, and loads equal."""
        heads = self._heads()
        path = tmp_path / "w.ckpt"
        save_checkpoint(path, {}, {IMAGE: heads[IMAGE].T, TEXT: heads[TEXT].astype(">f8")})
        _, loaded = load_checkpoint(path)
        np.testing.assert_array_equal(loaded[IMAGE], heads[IMAGE].T)
        np.testing.assert_array_equal(loaded[TEXT], heads[TEXT])
        assert all(h.flags.c_contiguous and h.dtype == np.float64 for h in loaded.values())

    @pytest.mark.parametrize(
        "record, heads",
        [
            ({}, {IMAGE: np.zeros((EMBED_DIM, EMBED_DIM))}),
            ({}, {IMAGE: np.zeros((8, 8)), TEXT: np.zeros((8, 8))}),
            ({}, {"head.image": np.zeros((EMBED_DIM, EMBED_DIM)), "head.text": np.zeros((EMBED_DIM, EMBED_DIM))}),
            ([], {IMAGE: np.zeros((EMBED_DIM, EMBED_DIM)), TEXT: np.zeros((EMBED_DIM, EMBED_DIM))}),
        ],
        ids=["one_head", "embed_dim_8", "old_names", "list_record"],
    )
    def test_save_refuses_other_shapes_before_writing(self, tmp_path, record, heads):
        path = tmp_path / "w.ckpt"
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: a heads checkpoint takes"):
            save_checkpoint(path, record, heads)
        assert not path.exists()

    def test_header_without_arrays(self, tmp_path):
        """A header with no heads after it."""
        path = tmp_path / "w.ckpt"
        self._write(path, b'{"seed": 0}', b"")
        message = f"{path}: 0 bytes follow the header; the two heads take 65536"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "header, message",
        [
            (b"[]", "checkpoint header is a JSON list, not an object"),
            (b'"x"', "checkpoint header is a JSON str, not an object"),
            (b"{", "checkpoint header is not JSON"),
            (b"\xff{}", "checkpoint header is not JSON"),
        ],
        ids=["list", "string", "cut", "not_utf8"],
    )
    def test_header_not_a_json_object(self, tmp_path, header, message):
        path = tmp_path / "w.ckpt"
        self._write(path, header, bytes(2 * EMBED_DIM * EMBED_DIM * 8))
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {message}')}"):
            load_checkpoint(path)

    @pytest.mark.parametrize("extra", [-8, 8], ids=["short", "long"])
    def test_heads_must_fill_the_rest_exactly(self, tmp_path, extra):
        path = tmp_path / "w.ckpt"
        self._write(path, b"{}", bytes(65536 + extra))
        with pytest.raises(ValueError, match=re.escape(f"{path}: {65536 + extra} bytes follow the header")):
            load_checkpoint(path)

    def test_bad_magic(self, tmp_path):
        """Another file, or heads saved in the older named-array layout, is refused by its magic."""
        path = tmp_path / "w.ckpt"
        path.write_bytes(b"NOTACKPT" + b"\x00" * 16)
        with pytest.raises(ValueError, match="magic b'NOTACKPT', not b'MTHEADS1'"):
            load_checkpoint(path)
        write_old_layout_heads(path, {"seed": 0}, self._heads())
        message = f"{path}: not a heads checkpoint: magic b'MTCKPT01', not b'MTHEADS1'; train again"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            load_checkpoint(path)

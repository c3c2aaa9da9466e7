import time
from collections import namedtuple

import numpy as np
import pytest
from hypothesis import settings

import claimspan.model as model_mod
import claimspan.preprocess as preprocess
import claimspan.training as training_mod
from claimspan.encoder import ModelConfig
from claimspan.model import Vocabulary, init_model_params
from claimspan.preprocess import AnnotatedPost, CharSpan

# Tier-1 runs the same Hypothesis examples on every run, with no wall-clock
# deadline, so its outcome does not depend on chance or machine load.
settings.register_profile("tier1", derandomize=True, deadline=None)
settings.load_profile("tier1")


@pytest.fixture
def tiny_config() -> ModelConfig:
    return ModelConfig(d=16, h=2, d_ff=32, layers=2, max_len=16, vocab_size=64,
                       dropout_p=0.0, adapter_layer=2, seed=0)


@pytest.fixture
def tiny_vocab() -> Vocabulary:
    words = [["the", "news", "said", "garlic", "cures", "covid19", "flu",
              "bleach", "prevents", "today", "people", "share", "claims",
              "numbers", "quote", "someone", "from", "a", "with"]]
    return Vocabulary.build(words, 64)


@pytest.fixture
def tiny_params(tiny_config, tiny_vocab):
    rng = np.random.default_rng(tiny_config.seed)
    return init_model_params(tiny_config, len(tiny_vocab), 2, rng)


def make_post(pid: str, text: str, spans) -> AnnotatedPost:
    return AnnotatedPost(id=pid, text=text, spans=[CharSpan(s, e) for s, e in spans])


@pytest.fixture
def small_corpus() -> list:
    return [
        make_post("p0", "the news said garlic cures covid19 today", [(14, 34)]),
        make_post("p1", "people share bleach prevents flu claims", [(13, 32)]),
        make_post("p2", "today the news said people share numbers", []),
        make_post("p3", "garlic cures flu said someone today", [(0, 16)]),
    ]


GradCheckRun = namedtuple("GradCheckRun", "report tokenized steps elapsed_s")


@pytest.fixture(scope="session")
def default_grad_check() -> GradCheckRun:
    """One default ``grad_check()`` run, shared by the tests that assert on
    its report, with the texts it tokenized, the (config, batch, bank, rng)
    of each training step it ran and its wall time."""
    real_tokenize, tokenized = preprocess.tokenize, []
    real_step, steps = training_mod.batch_gradients, []

    def counting(text):
        tokenized.append(text)
        return real_tokenize(text)

    def recording(params, config, batch, bank, rng=None, grads=None):
        steps.append((config, batch, bank, rng))
        return real_step(params, config, batch, bank, rng, grads)

    with pytest.MonkeyPatch.context() as mp:
        # posts reach tokenize through preprocess.encode_post, bank texts
        # through model.bank_token_ids
        mp.setattr(preprocess, "tokenize", counting)
        mp.setattr(model_mod, "tokenize", counting)
        mp.setattr(training_mod, "batch_gradients", recording)
        tic = time.perf_counter()
        report = training_mod.grad_check()
        elapsed_s = time.perf_counter() - tic
    return GradCheckRun(report, tokenized, steps, elapsed_s)

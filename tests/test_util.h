// Shared helpers for the test suite: finite-difference gradient checking,
// one-row prefill, and tiny fixture data builders.
#pragma once

#include <cmath>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "gpt/infer.h"
#include "nn/graph.h"
#include "nn/tensor.h"

namespace ppg::testing {

/// A differentiable scalar function of some input tensors, rebuilt on a
/// fresh graph each call (the graph owns no state between calls).
using ScalarFn = std::function<nn::Tensor(nn::Graph&)>;

/// Checks analytic gradients of `fn` w.r.t. every tensor in `inputs`
/// against central finite differences. Inputs must be small (the check is
/// O(numel) forward passes per tensor).
inline void expect_gradients_match(const ScalarFn& fn,
                                   std::vector<nn::Tensor> inputs,
                                   float eps = 1e-2f, float tol = 2e-2f) {
  // Analytic pass.
  for (auto& t : inputs) t.zero_grad();
  {
    nn::Graph g;
    const nn::Tensor loss = fn(g);
    g.backward(loss);
  }
  for (std::size_t ti = 0; ti < inputs.size(); ++ti) {
    nn::Tensor& t = inputs[ti];
    for (std::size_t i = 0; i < t.numel(); ++i) {
      const float saved = t.data()[i];
      t.data()[i] = saved + eps;
      nn::Graph gp;
      const double fp = fn(gp).at(0);
      t.data()[i] = saved - eps;
      nn::Graph gm;
      const double fm = fn(gm).at(0);
      t.data()[i] = saved;
      const double numeric = (fp - fm) / (2.0 * eps);
      const double analytic = t.grad()[i];
      const double denom = std::max({1.0, std::abs(numeric), std::abs(analytic)});
      EXPECT_NEAR(analytic / denom, numeric / denom, tol)
          << "tensor " << ti << " element " << i << " analytic=" << analytic
          << " numeric=" << numeric;
    }
  }
}

/// Deterministic small random tensor.
inline nn::Tensor random_tensor(std::vector<nn::Index> shape,
                                std::uint64_t seed, float scale = 1.0f) {
  nn::Tensor t(std::move(shape));
  Rng rng(seed);
  t.fill_normal(rng, scale);
  return t;
}

/// Resets `session` to one row and brings it to the end of `tokens`,
/// restoring `state`'s positions first when one is given; returns the row's
/// next-token logits (valid until the session's next step or reset).
inline std::span<const float> prefill_one(gpt::InferenceSession& session,
                                          std::span<const int> tokens,
                                          const gpt::KvState* state = nullptr) {
  const gpt::PrefillRow row{tokens, state};
  session.prefill({&row, 1});
  return session.logits_row(0);
}

/// A tiny vocabulary of human-ish passwords for model smoke tests.
inline std::vector<std::string> tiny_password_corpus() {
  return {
      "love12",   "blue99",   "star7",    "abc123",  "pass1!",  "moon88",
      "fire21",   "cool55",   "rock77",   "king01",  "love99",  "blue12",
      "star88",   "wolf44",   "dark13",   "gold00",  "hero64",  "lion32",
      "bear76",   "nice81",   "love12!",  "blue9@",  "sun777",  "sky123",
      "red4567",  "cat9999",  "dog1234",  "fox55",   "owl77",   "bee88",
      "rain01",   "snow02",   "wind03",   "leaf04",  "tree05",  "rose06",
      "mint07",   "sage08",   "ruby09",   "opal10",
  };
}

}  // namespace ppg::testing
